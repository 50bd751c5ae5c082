//! JACOBI — 2D 5-point stencil iteration (kernel benchmark; the paper's
//! running example for Listings 3 and 4).
//!
//! Two kernels per sweep: the stencil into `anew` (private temporary) and
//! the copy-back into `a`. The unoptimized variant conservatively updates
//! the host copy of `a` every sweep — exactly the per-iteration redundant
//! `memcpyout(b)` the paper's Listing 4 reports; the tool's suggestion is
//! to defer it past the k-loop.

use crate::{Benchmark, Scale};
use openarc_core::interactive::OutputSpec;

/// Build the JACOBI benchmark at the given scale.
pub fn benchmark(scale: Scale) -> Benchmark {
    let n = scale.n.max(8);
    let iters = scale.iters.max(2);
    let make = |data_open: &str,
                p1: &str,
                p2: &str,
                upd_dev: &str,
                upd_host: &str,
                post: &str,
                data_close: &str| {
        format!(
            r#"double a[{n}][{n}];
double anew[{n}][{n}];
double checksum;
void main() {{
    int i; int j; int k; double tmp; double fac;
    for (i = 0; i < {n}; i++) {{
        for (j = 0; j < {n}; j++) {{
            a[i][j] = 0.0;
            anew[i][j] = 0.0;
        }}
    }}
    for (j = 0; j < {n}; j++) {{ a[0][j] = 100.0; anew[0][j] = 100.0; }}
{data_open}
    for (k = 0; k < {iters}; k++) {{
{upd_dev}
{p1}
        for (i = 1; i < {nm1}; i++) {{
            for (j = 1; j < {nm1}; j++) {{
                tmp = a[i - 1][j] + a[i + 1][j] + a[i][j - 1] + a[i][j + 1];
                anew[i][j] = 0.25 * tmp;
            }}
        }}
{p2}
        for (i = 1; i < {nm1}; i++) {{
            for (j = 1; j < {nm1}; j++) {{
                fac = 1.0;
                a[i][j] = fac * anew[i][j];
            }}
        }}
{upd_host}
    }}
{post}
{data_close}
    checksum = 0.0;
    for (i = 0; i < {n}; i++) {{
        for (j = 0; j < {n}; j++) {{
            checksum += a[i][j];
        }}
    }}
}}
"#,
            n = n,
            nm1 = n - 1,
            iters = iters,
            data_open = data_open,
            p1 = p1,
            p2 = p2,
            upd_dev = upd_dev,
            upd_host = upd_host,
            post = post,
            data_close = data_close,
        )
    };

    let k1 = "#pragma acc kernels loop gang worker collapse(2) private(tmp)";
    let k2 = "#pragma acc kernels loop gang worker collapse(2) private(fac)";
    let naive = make("", k1, k2, "", "", "", "");
    let unoptimized = make(
        "#pragma acc data copyin(a) create(anew)\n{",
        k1,
        k2,
        "#pragma acc update device(a)",
        "#pragma acc update host(a)",
        "",
        "}",
    );
    let optimized = make(
        "#pragma acc data copyin(a) create(anew)\n{",
        k1,
        k2,
        "",
        "",
        "#pragma acc update host(a)",
        "}",
    );

    Benchmark {
        name: "JACOBI",
        naive,
        unoptimized,
        optimized,
        outputs: OutputSpec::arrays(&["a"]).with_scalars(&["checksum"]),
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
    fn heat_propagates_from_boundary() {
        let b = benchmark(Scale::default());
        let (tr, r) = crate::run_variant(
            &Default::default(),
            &b,
            Variant::Optimized,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        let a = r.global_array(&tr.tr, "a").unwrap();
        let n = Scale::default().n;
        // Row 1 interior must have warmed up; far rows stay near zero.
        assert!(a[n + 5] > 10.0, "row 1: {}", a[n + 5]);
        assert!(a[(n - 2) * n + 5] < 1.0, "far row: {}", a[(n - 2) * n + 5]);
    }

    #[test]
    fn optimized_transfers_far_fewer_than_naive() {
        let b = benchmark(Scale::default());
        let (_, naive) = crate::run_variant(
            &Default::default(),
            &b,
            Variant::Naive,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        let (_, opt) = crate::run_variant(
            &Default::default(),
            &b,
            Variant::Optimized,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        assert!(
            naive.machine.stats.total_bytes() > 4 * opt.machine.stats.total_bytes(),
            "naive {} vs opt {}",
            naive.machine.stats.total_bytes(),
            opt.machine.stats.total_bytes()
        );
    }
}
