//! HOTSPOT — 2D transient thermal simulation (Rodinia). Ping-pong between
//! `temp` and `temp2`, driven by a static `power` map.

use crate::{Benchmark, Scale};
use openarc_core::interactive::OutputSpec;

/// Build the HOTSPOT benchmark at the given scale.
pub fn benchmark(scale: Scale) -> Benchmark {
    let n = scale.n.max(8);
    let iters = scale.iters.max(2);
    let make = |data_open: &str, k1: &str, k2: &str, upd: &str, post: &str, data_close: &str| {
        format!(
            r#"double temp[{n}][{n}];
double temp2[{n}][{n}];
double power[{n}][{n}];
void main() {{
    int i; int j; int k; double tc; double acc;
    for (i = 0; i < {n}; i++) {{
        for (j = 0; j < {n}; j++) {{
            temp[i][j] = 60.0 + 0.01 * (double) ((i * 7 + j * 3) % 11);
            temp2[i][j] = temp[i][j];
            power[i][j] = 0.001 * (double) ((i + j) % 5);
        }}
    }}
{data_open}
    for (k = 0; k < {iters}; k++) {{
{k1}
        for (i = 1; i < {nm1}; i++) {{
            for (j = 1; j < {nm1}; j++) {{
                tc = temp[i][j];
                acc = temp[i - 1][j] + temp[i + 1][j] + temp[i][j - 1] + temp[i][j + 1] - 4.0 * tc;
                temp2[i][j] = tc + 0.1 * acc + power[i][j];
            }}
        }}
{k2}
        for (i = 1; i < {nm1}; i++) {{
            for (j = 1; j < {nm1}; j++) {{
                temp[i][j] = temp2[i][j];
            }}
        }}
{upd}
    }}
{post}
{data_close}
}}
"#,
            n = n,
            nm1 = n - 1,
            iters = iters,
            data_open = data_open,
            k1 = k1,
            k2 = k2,
            upd = upd,
            post = post,
            data_close = data_close,
        )
    };

    let k1 = "#pragma acc kernels loop gang worker collapse(2) private(tc, acc)";
    let k2 = "#pragma acc kernels loop gang worker collapse(2)";
    let naive = make("", k1, k2, "", "", "");
    let unoptimized = make(
        "#pragma acc data copyin(temp, power) create(temp2)\n{",
        k1,
        k2,
        "#pragma acc update host(temp)",
        "",
        "}",
    );
    let optimized = make(
        "#pragma acc data copyin(temp, power) create(temp2)\n{",
        k1,
        k2,
        "",
        "#pragma acc update host(temp)",
        "}",
    );

    Benchmark {
        name: "HOTSPOT",
        naive,
        unoptimized,
        optimized,
        outputs: OutputSpec::arrays(&["temp"]),
        n_kernels: 2,
        kernels_with_private: 1,
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
    fn temperatures_remain_physical() {
        let b = benchmark(Scale::default());
        let (tr, r) = crate::run_variant(
            &Default::default(),
            &b,
            Variant::Optimized,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        let t = r.global_array(&tr.tr, "temp").unwrap();
        assert!(t.iter().all(|x| *x > 50.0 && *x < 80.0));
    }
}
