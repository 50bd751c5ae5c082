//! SPMUL — sparse matrix-vector multiplication iterations (kernel
//! benchmark). Band CSR matrix built in-program; each sweep computes
//! `y = A·x`, the norm of `y` (reduction), and renormalizes `x`.

use crate::{Benchmark, Scale};
use openarc_core::interactive::OutputSpec;

/// Build the SPMUL benchmark at the given scale.
pub fn benchmark(scale: Scale) -> Benchmark {
    let n = scale.n.max(8);
    let iters = scale.iters.max(2);
    let nnz_cap = n * 5;
    let make = |data_open: &str,
                k1: &str,
                k2: &str,
                k3: &str,
                upd_host: &str,
                post: &str,
                data_close: &str| {
        format!(
            r#"int rowptr[{np1}];
int colidx[{nnz}];
double vals[{nnz}];
double x[{n}];
double y[{n}];
double norm;
double scale;
void main() {{
    int i; int j; int k; int nnz; double sum; double sc2;
    nnz = 0;
    for (i = 0; i < {n}; i++) {{
        rowptr[i] = nnz;
        for (j = i - 2; j <= i + 2; j++) {{
            if (j >= 0 && j < {n}) {{
                colidx[nnz] = j;
                if (i == j) {{ vals[nnz] = 4.0; }} else {{ vals[nnz] = -0.5; }}
                nnz = nnz + 1;
            }}
        }}
        x[i] = 1.0 + 0.001 * (double) (i % 17);
        y[i] = 0.0;
    }}
    rowptr[{n}] = nnz;
{data_open}
    for (k = 0; k < {iters}; k++) {{
{k1}
        for (i = 0; i < {n}; i++) {{
            sum = 0.0;
            for (j = rowptr[i]; j < rowptr[i + 1]; j++) {{
                sum += vals[j] * x[colidx[j]];
            }}
            y[i] = sum;
        }}
        norm = 0.0;
{k2}
        for (i = 0; i < {n}; i++) {{
            norm += y[i] * y[i];
        }}
        scale = 1.0 / sqrt(norm);
{k3}
        for (i = 0; i < {n}; i++) {{
            sc2 = scale;
            x[i] = y[i] * sc2;
        }}
{upd_host}
    }}
{post}
{data_close}
}}
"#,
            n = n,
            np1 = n + 1,
            nnz = nnz_cap,
            iters = iters,
            data_open = data_open,
            k1 = k1,
            k2 = k2,
            k3 = k3,
            upd_host = upd_host,
            post = post,
            data_close = data_close,
        )
    };

    let k1 = "#pragma acc kernels loop gang worker private(sum)";
    let k2 = "#pragma acc kernels loop gang worker reduction(+:norm)";
    let k3 = "#pragma acc kernels loop gang worker private(sc2)";
    let naive = make("", k1, k2, k3, "", "", "");
    let unoptimized = make(
        "#pragma acc data copyin(rowptr, colidx, vals, x) create(y)\n{",
        k1,
        k2,
        k3,
        "#pragma acc update host(x)\n#pragma acc update host(y)",
        "",
        "}",
    );
    let optimized = make(
        "#pragma acc data copyin(rowptr, colidx, vals, x) create(y)\n{",
        k1,
        k2,
        k3,
        "",
        "#pragma acc update host(x)",
        "}",
    );

    Benchmark {
        name: "SPMUL",
        naive,
        unoptimized,
        optimized,
        outputs: OutputSpec::arrays(&["x"]).with_scalars(&["norm"]),
        n_kernels: 3,
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
    fn x_stays_normalized() {
        let b = benchmark(Scale::default());
        let (tr, r) = crate::run_variant(
            &Default::default(),
            &b,
            Variant::Optimized,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        let x = r.global_array(&tr.tr, "x").unwrap();
        let norm: f64 = x.iter().map(|v| v * v).sum();
        // After the final rescale x has unit norm.
        assert!((norm - 1.0).abs() < 1e-9, "{norm}");
    }
}
