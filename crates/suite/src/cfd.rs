//! CFD — simplified 1D Euler-style solver in the shape of Rodinia's
//! euler3d: per-step snapshot of the conserved variables, a step-factor
//! kernel, and a two-stage Runge-Kutta flux/update pair.

use crate::{Benchmark, Scale};
use openarc_core::interactive::OutputSpec;

/// Build the CFD benchmark at the given scale.
pub fn benchmark(scale: Scale) -> Benchmark {
    let n = scale.n.max(16);
    let iters = scale.iters.max(2);
    let make = |data_open: &str,
                k1: &str,
                k2: &str,
                k3: &str,
                k4: &str,
                upd: &str,
                post: &str,
                data_close: &str| {
        format!(
            r#"double vars[{n3}];
double old_vars[{n3}];
double fluxes[{n3}];
double sf[{n}];
void main() {{
    int i; int c; int it; int rk; double d; double f0; double rkf; double coef;
    for (c = 0; c < 3; c++) {{
        for (i = 0; i < {n}; i++) {{
            vars[c * {n} + i] = 1.0 + 0.1 * (double) ((i * 13 + c * 7) % 9);
            old_vars[c * {n} + i] = 0.0;
            fluxes[c * {n} + i] = 0.0;
        }}
    }}
{data_open}
    for (it = 0; it < {iters}; it++) {{
{k1}
        for (i = 0; i < {n3}; i++) {{
            old_vars[i] = vars[i];
        }}
{k2}
        for (i = 0; i < {n}; i++) {{
            d = vars[i];
            sf[i] = 0.5 / sqrt(fabs(d) + 1.0);
        }}
        for (rk = 0; rk < 2; rk++) {{
            rkf = 0.5 / (double) (2 - rk);
{k3}
            for (c = 0; c < 3; c++) {{
                for (i = 0; i < {nm1}; i++) {{
                    f0 = vars[c * {n} + i + 1] - vars[c * {n} + i];
                    fluxes[c * {n} + i] = f0;
                }}
            }}
{k4}
            for (c = 0; c < 3; c++) {{
                for (i = 1; i < {nm1}; i++) {{
                    coef = rkf;
                    vars[c * {n} + i] = old_vars[c * {n} + i]
                        + coef * sf[i] * (fluxes[c * {n} + i] - fluxes[c * {n} + i - 1]);
                }}
            }}
        }}
{upd}
    }}
{post}
{data_close}
}}
"#,
            n = n,
            n3 = n * 3,
            nm1 = n - 1,
            iters = iters,
            data_open = data_open,
            k1 = k1,
            k2 = k2,
            k3 = k3,
            k4 = k4,
            upd = upd,
            post = post,
            data_close = data_close,
        )
    };

    let k1 = "#pragma acc kernels loop gang worker";
    let k2 = "#pragma acc kernels loop gang worker private(d)";
    let k3 = "#pragma acc kernels loop gang worker collapse(2) private(f0)";
    let k4 = "#pragma acc kernels loop gang worker collapse(2) private(coef)";
    let naive = make("", k1, k2, k3, k4, "", "", "");
    let unoptimized = make(
        "#pragma acc data copyin(vars) create(old_vars, fluxes, sf)\n{",
        k1,
        k2,
        k3,
        k4,
        "#pragma acc update host(vars)\n#pragma acc update host(old_vars)",
        "",
        "}",
    );
    let optimized = make(
        "#pragma acc data copyin(vars) create(old_vars, fluxes, sf)\n{",
        k1,
        k2,
        k3,
        k4,
        "",
        "#pragma acc update host(vars)",
        "}",
    );

    Benchmark {
        name: "CFD",
        naive,
        unoptimized,
        optimized,
        outputs: OutputSpec::arrays(&["vars"]),
        n_kernels: 4,
        kernels_with_private: 3,
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
    fn diffusion_smooths_but_conserves_sign() {
        let b = benchmark(Scale::default());
        let (tr, r) = crate::run_variant(
            &Default::default(),
            &b,
            Variant::Optimized,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        let v = r.global_array(&tr.tr, "vars").unwrap();
        assert!(v.iter().all(|x| *x > 0.0 && x.is_finite()));
    }
}
