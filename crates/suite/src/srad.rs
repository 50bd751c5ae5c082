//! SRAD — speckle-reducing anisotropic diffusion (Rodinia): a global
//! statistics reduction, a diffusion-coefficient kernel, and the image
//! update kernel, per iteration.

use crate::{Benchmark, Scale};
use openarc_core::interactive::OutputSpec;

/// Build the SRAD benchmark at the given scale.
pub fn benchmark(scale: Scale) -> Benchmark {
    let n = scale.n.max(8);
    let iters = scale.iters.max(2);
    let size = n * n;
    let make =
        |data_open: &str, k1: &str, k2: &str, k3: &str, upd: &str, post: &str, data_close: &str| {
            format!(
                r#"double img[{n}][{n}];
double cc[{n}][{n}];
double dn_a[{n}][{n}];
double ds_a[{n}][{n}];
double dw_a[{n}][{n}];
double de_a[{n}][{n}];
double sum;
double sum2;
double q0;
void main() {{
    int i; int j; int it; int iN; int iS; int jW; int jE;
    double mean; double varr; double dn; double ds; double dw; double de;
    double g2; double l; double num; double den; double qsq; double cval; double d2;
    for (i = 0; i < {n}; i++) {{
        for (j = 0; j < {n}; j++) {{
            img[i][j] = 1.0 + 0.3 * (double) ((i * 5 + j * 3) % 7) / 7.0;
            cc[i][j] = 0.0;
            dn_a[i][j] = 0.0;
            ds_a[i][j] = 0.0;
            dw_a[i][j] = 0.0;
            de_a[i][j] = 0.0;
        }}
    }}
{data_open}
    for (it = 0; it < {iters}; it++) {{
        sum = 0.0;
        sum2 = 0.0;
{k1}
        for (i = 0; i < {n}; i++) {{
            for (j = 0; j < {n}; j++) {{
                sum += img[i][j];
                sum2 += img[i][j] * img[i][j];
            }}
        }}
        mean = sum / {size}.0;
        varr = sum2 / {size}.0 - mean * mean;
        q0 = varr / (mean * mean);
{k2}
        for (i = 0; i < {n}; i++) {{
            for (j = 0; j < {n}; j++) {{
                iN = (i == 0) ? 0 : (i - 1);
                iS = (i == {nm1}) ? {nm1} : (i + 1);
                jW = (j == 0) ? 0 : (j - 1);
                jE = (j == {nm1}) ? {nm1} : (j + 1);
                dn = img[iN][j] - img[i][j];
                ds = img[iS][j] - img[i][j];
                dw = img[i][jW] - img[i][j];
                de = img[i][jE] - img[i][j];
                dn_a[i][j] = dn;
                ds_a[i][j] = ds;
                dw_a[i][j] = dw;
                de_a[i][j] = de;
                g2 = (dn * dn + ds * ds + dw * dw + de * de) / (img[i][j] * img[i][j]);
                l = (dn + ds + dw + de) / img[i][j];
                num = 0.5 * g2 - 0.0625 * l * l;
                den = 1.0 + 0.25 * l;
                qsq = num / (den * den);
                den = (qsq - q0) / (q0 * (1.0 + q0));
                cval = 1.0 / (1.0 + den);
                cval = (cval < 0.0) ? 0.0 : ((cval > 1.0) ? 1.0 : cval);
                cc[i][j] = cval;
            }}
        }}
{k3}
        for (i = 0; i < {n}; i++) {{
            for (j = 0; j < {n}; j++) {{
                iS = (i == {nm1}) ? {nm1} : (i + 1);
                jE = (j == {nm1}) ? {nm1} : (j + 1);
                d2 = cc[iS][j] * ds_a[i][j] + cc[i][j] * dn_a[i][j]
                    + cc[i][jE] * de_a[i][j] + cc[i][j] * dw_a[i][j];
                img[i][j] = img[i][j] + 0.025 * d2;
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
                size = size,
                iters = iters,
                data_open = data_open,
                k1 = k1,
                k2 = k2,
                k3 = k3,
                upd = upd,
                post = post,
                data_close = data_close,
            )
        };

    let k1 = "#pragma acc kernels loop gang worker collapse(2) reduction(+:sum) reduction(+:sum2)";
    let k2 = "#pragma acc kernels loop gang worker collapse(2) private(iN, iS, jW, jE, dn, ds, dw, de, g2, l, num, den, qsq, cval)";
    let k3 = "#pragma acc kernels loop gang worker collapse(2) private(iS, jE, d2)";
    let naive = make("", k1, k2, k3, "", "", "");
    let unoptimized = make(
        "#pragma acc data copyin(img) create(cc, dn_a, ds_a, dw_a, de_a)\n{",
        k1,
        k2,
        k3,
        "#pragma acc update host(img)\n#pragma acc update host(cc)",
        "",
        "}",
    );
    let optimized = make(
        "#pragma acc data copyin(img) create(cc, dn_a, ds_a, dw_a, de_a)\n{",
        k1,
        k2,
        k3,
        "",
        "#pragma acc update host(img)",
        "}",
    );

    Benchmark {
        name: "SRAD",
        naive,
        unoptimized,
        optimized,
        outputs: OutputSpec::arrays(&["img"]),
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
    fn diffusion_reduces_variance() {
        let b = benchmark(Scale::default());
        let (tr, r) = crate::run_variant(
            &Default::default(),
            &b,
            Variant::Optimized,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        let img = r.global_array(&tr.tr, "img").unwrap();
        let mean: f64 = img.iter().sum::<f64>() / img.len() as f64;
        let var: f64 = img.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / img.len() as f64;
        // Initial pattern variance is ~0.01; diffusion must shrink it.
        assert!(var < 0.01, "{var}");
        assert!(img.iter().all(|x| x.is_finite() && *x > 0.5));
    }
}
