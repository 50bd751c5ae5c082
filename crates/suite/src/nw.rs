//! NW — Needleman-Wunsch sequence alignment (Rodinia): anti-diagonal
//! wavefront over the score matrix, upper-left then lower-right passes,
//! one kernel launch per diagonal.

use crate::{Benchmark, Scale};
use openarc_core::interactive::OutputSpec;

/// Build the NW benchmark at the given scale.
pub fn benchmark(scale: Scale) -> Benchmark {
    let n = scale.n.max(8);
    let penalty = 2;
    let make = |data_open: &str, k1: &str, k2: &str, upd: &str, post: &str, data_close: &str| {
        format!(
            r#"int score[{n}][{n}];
int ref[{n}][{n}];
void main() {{
    int i; int j; int d; int t; int i2; int j2; int s;
    for (i = 0; i < {n}; i++) {{
        for (j = 0; j < {n}; j++) {{
            ref[i][j] = ((i * 7 + j * 11) % 10) - 4;
            score[i][j] = 0;
        }}
    }}
    for (i = 0; i < {n}; i++) {{ score[i][0] = -i * {penalty}; }}
    for (j = 0; j < {n}; j++) {{ score[0][j] = -j * {penalty}; }}
{data_open}
    for (d = 1; d <= {nm1}; d++) {{
{k1}
        for (t = 0; t < d; t++) {{
            i2 = 1 + t;
            j2 = d - t;
            score[i2][j2] = max(score[i2 - 1][j2 - 1] + ref[i2][j2],
                max(score[i2][j2 - 1] - {penalty}, score[i2 - 1][j2] - {penalty}));
        }}
{upd}
    }}
    for (d = 1; d <= {nm2}; d++) {{
        s = {n} + d;
{k2}
        for (t = 0; t < {nm1} - d; t++) {{
            i2 = d + 1 + t;
            j2 = s - i2;
            score[i2][j2] = max(score[i2 - 1][j2 - 1] + ref[i2][j2],
                max(score[i2][j2 - 1] - {penalty}, score[i2 - 1][j2] - {penalty}));
        }}
{upd}
    }}
{post}
{data_close}
}}
"#,
            n = n,
            nm1 = n - 1,
            nm2 = n - 2,
            penalty = penalty,
            data_open = data_open,
            k1 = k1,
            k2 = k2,
            upd = upd,
            post = post,
            data_close = data_close,
        )
    };

    let k1 = "#pragma acc kernels loop gang worker private(i2, j2)";
    let k2 = "#pragma acc kernels loop gang worker private(i2, j2)";
    let naive = make("", k1, k2, "", "", "");
    let unoptimized = make(
        "#pragma acc data copyin(score, ref)\n{",
        k1,
        k2,
        "#pragma acc update host(score)",
        "",
        "}",
    );
    let optimized = make(
        "#pragma acc data copyin(score, ref)\n{",
        k1,
        k2,
        "",
        "#pragma acc update host(score)",
        "}",
    );

    Benchmark {
        name: "NW",
        naive,
        unoptimized,
        optimized,
        outputs: OutputSpec::arrays(&["score"]),
        n_kernels: 2,
        kernels_with_private: 2,
        kernels_with_reduction: 0,
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
    fn wavefront_fills_whole_matrix() {
        let b = benchmark(Scale::default());
        let (tr, r) = crate::run_variant(
            &Default::default(),
            &b,
            Variant::Optimized,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        let s = r.global_array(&tr.tr, "score").unwrap();
        let n = Scale::default().n.max(8);
        // Bottom-right cell must have been computed (nonzero path cost).
        assert_ne!(s[(n - 1) * n + (n - 1)], 0.0);
    }
}
