//! CG — NAS conjugate gradient (the paper's Listing 1 source). Band SPD
//! matrix; the full CG iteration with mat-vec, two dot-product reductions,
//! and three AXPY-style kernels.

use crate::{Benchmark, Scale};
use openarc_core::interactive::OutputSpec;

/// Build the CG benchmark at the given scale.
pub fn benchmark(scale: Scale) -> Benchmark {
    let n = scale.n.max(8);
    let iters = scale.iters.max(2);
    let nnz_cap = n * 5;
    let make = |data_open: &str, pragmas: [&str; 7], upd: &str, post: &str, data_close: &str| {
        let [k_init, k_rho0, k_q, k_dpq, k_x, k_r, k_p] = pragmas;
        format!(
            r#"int rowptr[{np1}];
int colidx[{nnz}];
double vals[{nnz}];
double x[{n}];
double r[{n}];
double p[{n}];
double q[{n}];
double rho;
double rhon;
double dpq;
double alpha;
double beta;
void main() {{
    int i; int j; int cgit; int nnz; double sum; double ax; double bt;
    nnz = 0;
    for (i = 0; i < {n}; i++) {{
        rowptr[i] = nnz;
        for (j = i - 2; j <= i + 2; j++) {{
            if (j >= 0 && j < {n}) {{
                colidx[nnz] = j;
                if (i == j) {{ vals[nnz] = 5.0; }} else {{ vals[nnz] = -1.0; }}
                nnz = nnz + 1;
            }}
        }}
    }}
    rowptr[{n}] = nnz;
{data_open}
{k_init}
    for (i = 0; i < {n}; i++) {{
        x[i] = 0.0;
        r[i] = 1.0;
        p[i] = 1.0;
        q[i] = 0.0;
    }}
    rho = 0.0;
{k_rho0}
    for (i = 0; i < {n}; i++) {{
        rho += r[i] * r[i];
    }}
    for (cgit = 1; cgit <= {iters}; cgit++) {{
{k_q}
        for (i = 0; i < {n}; i++) {{
            sum = 0.0;
            for (j = rowptr[i]; j < rowptr[i + 1]; j++) {{
                sum += vals[j] * p[colidx[j]];
            }}
            q[i] = sum;
        }}
        dpq = 0.0;
{k_dpq}
        for (i = 0; i < {n}; i++) {{
            dpq += p[i] * q[i];
        }}
        alpha = rho / dpq;
{k_x}
        for (i = 0; i < {n}; i++) {{
            ax = alpha;
            x[i] = x[i] + ax * p[i];
        }}
{k_r}
        for (i = 0; i < {n}; i++) {{
            r[i] = r[i] - alpha * q[i];
        }}
        rhon = 0.0;
{k_rho0}
        for (i = 0; i < {n}; i++) {{
            rhon += r[i] * r[i];
        }}
        beta = rhon / rho;
        rho = rhon;
{k_p}
        for (i = 0; i < {n}; i++) {{
            bt = beta;
            p[i] = r[i] + bt * p[i];
        }}
{upd}
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
            k_init = k_init,
            k_rho0 = k_rho0,
            k_q = k_q,
            k_dpq = k_dpq,
            k_x = k_x,
            k_r = k_r,
            k_p = k_p,
            upd = upd,
            post = post,
            data_close = data_close,
        )
    };

    // NOTE: k_rho0 appears twice in the body (initial rho and per-iteration
    // rhon) — the reduction target differs, so they are distinct regions.
    let k_init = "#pragma acc kernels loop gang worker";
    let k_rho0a = "#pragma acc kernels loop gang worker reduction(+:rho)";
    let k_q = "#pragma acc kernels loop gang worker private(sum)";
    let k_dpq = "#pragma acc kernels loop gang worker reduction(+:dpq)";
    let k_x = "#pragma acc kernels loop gang worker private(ax)";
    let k_r = "#pragma acc kernels loop gang worker";
    let k_p = "#pragma acc kernels loop gang worker private(bt)";
    // The second k_rho0 slot reduces rhon; handled by a distinct pragma via
    // string replacement below.
    let fix_second_rho = |src: String| -> String {
        // The second occurrence of the rho-reduction pragma reduces rhon.
        let needle = "#pragma acc kernels loop gang worker reduction(+:rho)";
        if let Some(first) = src.find(needle) {
            if let Some(second_rel) = src[first + needle.len()..].find(needle) {
                let second = first + needle.len() + second_rel;
                let mut out = src.clone();
                out.replace_range(
                    second..second + needle.len(),
                    "#pragma acc kernels loop gang worker reduction(+:rhon)",
                );
                return out;
            }
        }
        src
    };

    let pragmas = [k_init, k_rho0a, k_q, k_dpq, k_x, k_r, k_p];
    let naive = fix_second_rho(make("", pragmas, "", "", ""));
    let unoptimized = fix_second_rho(make(
        "#pragma acc data copyin(rowptr, colidx, vals) create(x, r, p, q)\n{",
        pragmas,
        "#pragma acc update host(x)\n#pragma acc update host(r)",
        "",
        "}",
    ));
    let optimized = fix_second_rho(make(
        "#pragma acc data copyin(rowptr, colidx, vals) create(x, r, p, q)\n{",
        pragmas,
        "",
        "#pragma acc update host(x)\n#pragma acc update host(r)",
        "}",
    ));

    Benchmark {
        name: "CG",
        naive,
        unoptimized,
        optimized,
        outputs: OutputSpec::arrays(&["x", "r"]).with_scalars(&["rho"]),
        n_kernels: 8,
        kernels_with_private: 3,
        kernels_with_reduction: 3,
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
    fn residual_shrinks() {
        let b = benchmark(Scale::default());
        let (tr, r) = crate::run_variant(
            &Default::default(),
            &b,
            Variant::Optimized,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        let rho = r.global_scalar(&tr.tr, "rho").unwrap().as_f64();
        let n = Scale::default().n.max(8) as f64;
        // Initial rho = n; CG on a well-conditioned SPD band matrix reduces
        // the residual by orders of magnitude in a few iterations.
        assert!(rho < n / 10.0, "rho = {rho}");
    }
}
