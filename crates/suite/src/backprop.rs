//! BACKPROP — two-layer neural-network training step (Rodinia): forward
//! pass, output/hidden error, weight adjustment with momentum.
//!
//! The input→hidden weight matrix is heap-allocated and *aliased* by a
//! second pointer (`wdecay`) the host uses for per-epoch weight decay —
//! the (may-)aliased-pointer pattern behind BACKPROP's one incorrect
//! interactive iteration in the paper's Table 3.

use crate::{Benchmark, Scale};
use openarc_core::interactive::OutputSpec;

const NO: usize = 4;

/// Build the BACKPROP benchmark at the given scale.
pub fn benchmark(scale: Scale) -> Benchmark {
    let ni = scale.n.max(16);
    let nh = (scale.n / 2).max(8);
    let epochs = scale.iters.max(2);
    let make = |data_open: &str,
                k1: &str,
                k2: &str,
                k3: &str,
                k4: &str,
                k5: &str,
                upd_dev: &str,
                upd_host: &str,
                post: &str,
                data_close: &str| {
        format!(
            r#"double in_units[{ni}];
double hid_units[{nh}];
double out_units[{no}];
double w2[{nhno}];
double delta_out[{no}];
double delta_hid[{nh}];
double *w1cur;
double *w1prev;
double *wdecay;
double err;
void main() {{
    int i; int j; int idx; int epoch; int i2; int h2; int o2; int i3; int j3;
    double sum; double sum2; double o; double h; double sumd; double neww;
    w1cur = (double *) malloc({ninh} * sizeof(double));
    w1prev = (double *) malloc({ninh} * sizeof(double));
    wdecay = w1cur;
    for (i = 0; i < {ni}; i++) {{
        in_units[i] = 0.1 + 0.8 * (double) ((i * 37) % 100) / 100.0;
    }}
    for (idx = 0; idx < {ninh}; idx++) {{
        w1cur[idx] = 0.02 * (double) ((idx * 13) % 50) - 0.5;
        w1prev[idx] = w1cur[idx];
    }}
    for (idx = 0; idx < {nhno}; idx++) {{
        w2[idx] = 0.02 * (double) ((idx * 7) % 50) - 0.5;
    }}
{data_open}
    for (epoch = 0; epoch < {epochs}; epoch++) {{
        for (idx = 0; idx < {ninh}; idx++) {{
            wdecay[idx] = w1cur[idx] * 0.999;
        }}
{upd_dev}
{k1}
        for (j = 0; j < {nh}; j++) {{
            sum = 0.0;
            for (i2 = 0; i2 < {ni}; i2++) {{
                sum += w1cur[i2 * {nh} + j] * in_units[i2];
            }}
            hid_units[j] = 1.0 / (1.0 + exp(-sum));
        }}
{k2}
        for (j = 0; j < {no}; j++) {{
            sum2 = 0.0;
            for (h2 = 0; h2 < {nh}; h2++) {{
                sum2 += w2[h2 * {no} + j] * hid_units[h2];
            }}
            out_units[j] = 1.0 / (1.0 + exp(-sum2));
        }}
        err = 0.0;
{k3}
        for (j = 0; j < {no}; j++) {{
            o = out_units[j];
            delta_out[j] = o * (1.0 - o) * (0.5 - o);
            err += fabs(delta_out[j]);
        }}
{k4}
        for (j = 0; j < {nh}; j++) {{
            h = hid_units[j];
            sumd = 0.0;
            for (o2 = 0; o2 < {no}; o2++) {{
                sumd += delta_out[o2] * w2[j * {no} + o2];
            }}
            delta_hid[j] = h * (1.0 - h) * sumd;
        }}
{k5}
        for (idx = 0; idx < {ninh}; idx++) {{
            i3 = idx / {nh};
            j3 = idx % {nh};
            neww = w1cur[idx] + 0.3 * delta_hid[j3] * in_units[i3]
                + 0.3 * (w1cur[idx] - w1prev[idx]);
            w1prev[idx] = w1cur[idx];
            w1cur[idx] = neww;
        }}
{upd_host}
    }}
{post}
{data_close}
}}
"#,
            ni = ni,
            nh = nh,
            no = NO,
            ninh = ni * nh,
            nhno = nh * NO,
            epochs = epochs,
            data_open = data_open,
            k1 = k1,
            k2 = k2,
            k3 = k3,
            k4 = k4,
            k5 = k5,
            upd_dev = upd_dev,
            upd_host = upd_host,
            post = post,
            data_close = data_close,
        )
    };

    let k1 = "#pragma acc kernels loop gang worker private(sum, i2)";
    let k2 = "#pragma acc kernels loop gang worker private(sum2, h2)";
    let k3 = "#pragma acc kernels loop gang worker private(o) reduction(+:err)";
    let k4 = "#pragma acc kernels loop gang worker private(h, sumd, o2)";
    let k5 = "#pragma acc kernels loop gang worker private(i3, j3, neww)";
    let naive = make("", k1, k2, k3, k4, k5, "", "", "", "");
    let unoptimized = make(
        "#pragma acc data copyin(in_units, w1cur, w1prev, w2) create(hid_units, out_units, delta_out, delta_hid)\n{",
        k1, k2, k3, k4, k5,
        "#pragma acc update device(w1cur)",
        "#pragma acc update host(w1cur)\n#pragma acc update host(hid_units)\n#pragma acc update host(out_units)",
        "",
        "}",
    );
    let optimized = make(
        "#pragma acc data copyin(in_units, w1cur, w1prev, w2) create(hid_units, out_units, delta_out, delta_hid)\n{",
        k1, k2, k3, k4, k5,
        "#pragma acc update device(w1cur)",
        "#pragma acc update host(w1cur)",
        "#pragma acc update host(hid_units)\n#pragma acc update host(out_units)",
        "}",
    );

    Benchmark {
        name: "BACKPROP",
        naive,
        unoptimized,
        optimized,
        outputs: OutputSpec::arrays(&["hid_units", "out_units"]).with_scalars(&["err"]),
        n_kernels: 5,
        kernels_with_private: 4,
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
    fn outputs_are_sigmoid_range() {
        let b = benchmark(Scale::default());
        let (tr, r) = crate::run_variant(
            &Default::default(),
            &b,
            Variant::Optimized,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        let out = r.global_array(&tr.tr, "out_units").unwrap();
        assert!(out.iter().all(|x| *x > 0.0 && *x < 1.0), "{out:?}");
        let err = r.global_scalar(&tr.tr, "err").unwrap().as_f64();
        assert!((0.0..4.0).contains(&err), "{err}");
    }
}
