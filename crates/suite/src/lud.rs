//! LUD — in-place LU decomposition (Rodinia), right-looking form: a column
//! scaling kernel and a trailing-submatrix update kernel per step.
//!
//! Three names alias the same malloc'd matrix (`m`, `mview`, `mrow`), the
//! sub-matrix-pointer idiom of the real Rodinia code. The host refines the
//! pivot through `mrow` each step, so the compiler's *name-based* deadness
//! analysis wrongly concludes the device copy of `mrow` is dead — the
//! source of the three incorrect interactive iterations the paper reports
//! for LUD ("the compiler cannot resolve the relationship between
//! (may-)aliased pointers").

use crate::{Benchmark, Scale};
use openarc_core::interactive::OutputSpec;

/// Build the LUD benchmark at the given scale.
pub fn benchmark(scale: Scale) -> Benchmark {
    let n = (scale.n / 2).max(8);
    let make = |data_open: &str,
                k1: &str,
                k2: &str,
                upd_dev: &str,
                upd_post: &str,
                post: &str,
                data_close: &str| {
        format!(
            r#"double *m;
double *mview;
double *mrow;
void main() {{
    int i; int j; int k; int kp1;
    m = (double *) malloc({nn} * sizeof(double));
    mview = m;
    mrow = m;
    for (i = 0; i < {n}; i++) {{
        for (j = 0; j < {n}; j++) {{
            if (i == j) {{ m[i * {n} + j] = (double) {n}; }}
            else {{ m[i * {n} + j] = 1.0 / (double) (1 + abs(i - j)); }}
        }}
    }}
{data_open}
    for (k = 0; k < {nm1}; k++) {{
        kp1 = k + 1;
        mrow[k * {n} + k] = mrow[k * {n} + k] * 1.001;
{upd_dev}
{k1}
        for (i = kp1; i < {n}; i++) {{
            mview[i * {n} + k] = mview[i * {n} + k] / mview[k * {n} + k];
        }}
{k2}
        for (i = kp1; i < {n}; i++) {{
            for (j = kp1; j < {n}; j++) {{
                m[i * {n} + j] = m[i * {n} + j] - m[i * {n} + k] * m[k * {n} + j];
            }}
        }}
{upd_post}
    }}
{post}
{data_close}
}}
"#,
            n = n,
            nn = n * n,
            nm1 = n - 1,
            data_open = data_open,
            k1 = k1,
            k2 = k2,
            upd_dev = upd_dev,
            upd_post = upd_post,
            post = post,
            data_close = data_close,
        )
    };

    let k1 = "#pragma acc kernels loop gang worker";
    let k2 = "#pragma acc kernels loop gang worker collapse(2)";
    let naive = make("", k1, k2, "", "", "", "");
    let unoptimized = make(
        "#pragma acc data copyin(m)\n{",
        k1,
        k2,
        "#pragma acc update device(m)",
        "#pragma acc update host(m)\n#pragma acc update host(mview)",
        "",
        "}",
    );
    let optimized = make(
        "#pragma acc data copyin(m)\n{",
        k1,
        k2,
        "#pragma acc update device(m)",
        "#pragma acc update host(m)",
        "",
        "}",
    );

    Benchmark {
        name: "LUD",
        naive,
        unoptimized,
        optimized,
        outputs: OutputSpec::arrays(&["m"]),
        n_kernels: 2,
        kernels_with_private: 0,
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
    fn lu_factors_reconstruct_matrix_shape() {
        let b = benchmark(Scale::default());
        let (tr, r) = crate::run_variant(
            &Default::default(),
            &b,
            Variant::Optimized,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        let m = r.global_array(&tr.tr, "m").unwrap();
        let n = (Scale::default().n / 2).max(8);
        // Diagonal of U stays positive and dominant for this matrix.
        for k in 0..n {
            assert!(m[k * n + k] > 0.5, "U[{k}][{k}] = {}", m[k * n + k]);
        }
        // L entries (below diagonal) are the small multipliers.
        assert!(m[(n - 1) * n].abs() < 1.0);
    }
}
