//! EP — NAS "embarrassingly parallel": per-thread pseudo-random pair
//! generation with acceptance counting and Gaussian-sum reductions.
//! Private-variable-heavy, the main target of the privatization
//! fault-injection study.

use crate::{Benchmark, Scale};
use openarc_core::interactive::OutputSpec;

/// Build the EP benchmark at the given scale.
pub fn benchmark(scale: Scale) -> Benchmark {
    let n = (scale.n * scale.n / 4).max(16); // number of streams
    let pairs = scale.iters.max(2) * 2;
    let make = |data_open: &str, k1: &str, k2: &str, post: &str, data_close: &str| {
        format!(
            r#"int seeds[{n}];
double sx;
double sy;
int cnt;
void main() {{
    int i; int p; int s; double u1; double u2; double xx; double yy; double t; double fac;
{data_open}
{k1}
    for (i = 0; i < {n}; i++) {{
        s = (i * 7919 + 12345) % 1048576;
        seeds[i] = s;
    }}
    sx = 0.0;
    sy = 0.0;
    cnt = 0;
{k2}
    for (i = 0; i < {n}; i++) {{
        s = seeds[i];
        for (p = 0; p < {pairs}; p++) {{
            s = (s * 1103515 + 12345) % 1048576;
            u1 = (double) s / 1048576.0;
            s = (s * 1103515 + 12345) % 1048576;
            u2 = (double) s / 1048576.0;
            xx = 2.0 * u1 - 1.0;
            yy = 2.0 * u2 - 1.0;
            t = xx * xx + yy * yy;
            if (t <= 1.0 && t > 0.0) {{
                fac = sqrt(-2.0 * log(t) / t);
                sx += xx * fac;
                sy += yy * fac;
                cnt += 1;
            }}
        }}
    }}
{post}
{data_close}
}}
"#,
            n = n,
            pairs = pairs,
            data_open = data_open,
            k1 = k1,
            k2 = k2,
            post = post,
            data_close = data_close,
        )
    };

    let k1 = "#pragma acc kernels loop gang worker private(s)";
    let k2 = "#pragma acc kernels loop gang worker private(s, u1, u2, xx, yy, t, fac) reduction(+:sx) reduction(+:sy) reduction(+:cnt)";
    let naive = make("", k1, k2, "", "");
    let unoptimized = make(
        "#pragma acc data create(seeds)\n{",
        k1,
        k2,
        "#pragma acc update host(seeds)",
        "}",
    );
    let optimized = make("#pragma acc data create(seeds)\n{", k1, k2, "", "}");

    Benchmark {
        name: "EP",
        naive,
        unoptimized,
        optimized,
        outputs: OutputSpec::arrays(&[]).with_scalars(&["sx", "sy", "cnt"]),
        n_kernels: 2,
        kernels_with_private: 2,
        kernels_with_reduction: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_variant, Variant};

    #[test]
    fn all_variants_correct() {
        let b = benchmark(Scale::default());
        for v in Variant::ALL {
            check_variant(&b, v).unwrap();
        }
    }

    #[test]
    fn acceptance_ratio_plausible() {
        let b = benchmark(Scale::default());
        let (tr, r) = crate::run_variant(
            &Default::default(),
            &b,
            Variant::Optimized,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        let cnt = r.global_scalar(&tr.tr, "cnt").unwrap().as_f64();
        let n = (Scale::default().n * Scale::default().n / 4).max(16) as f64;
        let pairs = (Scale::default().iters.max(2) * 2) as f64;
        let ratio = cnt / (n * pairs);
        // π/4 ≈ 0.785 acceptance for uniform pairs in the unit square.
        assert!(ratio > 0.5 && ratio < 1.0, "{ratio}");
    }
}
