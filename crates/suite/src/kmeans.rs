//! KMEANS — k-means clustering (Rodinia): the assignment step runs on the
//! device, the centroid update on the host, forcing a genuine membership /
//! centroid transfer every iteration (the pattern that dominates KMEANS's
//! Figure 1 bar).

use crate::{Benchmark, Scale};
use openarc_core::interactive::OutputSpec;

const F: usize = 4;
const KC: usize = 4;

/// Build the KMEANS benchmark at the given scale.
pub fn benchmark(scale: Scale) -> Benchmark {
    let n = (scale.n * 2).max(16);
    let iters = scale.iters.max(2);
    let make = |data_open: &str,
                k1: &str,
                upd_mem: &str,
                upd_clu: &str,
                upd_extra: &str,
                post: &str,
                data_close: &str| {
        format!(
            r#"double feats[{nf}];
double clusters[{kf}];
int membership[{n}];
double newclust[{kf}];
int counts[{kc}];
void main() {{
    int i; int c; int f; int it; int best; double bestd; double d; double diff;
    for (i = 0; i < {n}; i++) {{
        for (f = 0; f < {ff}; f++) {{
            feats[i * {ff} + f] = (double) ((i * 31 + f * 17) % 100) * 0.01 + (double) (i % {kc});
        }}
        membership[i] = 0;
    }}
    for (c = 0; c < {kc}; c++) {{
        for (f = 0; f < {ff}; f++) {{
            clusters[c * {ff} + f] = feats[c * {ff} + f];
        }}
    }}
{data_open}
    for (it = 0; it < {iters}; it++) {{
{k1}
        for (i = 0; i < {n}; i++) {{
            best = 0;
            bestd = 1e30;
            for (c = 0; c < {kc}; c++) {{
                d = 0.0;
                for (f = 0; f < {ff}; f++) {{
                    diff = feats[i * {ff} + f] - clusters[c * {ff} + f];
                    d += diff * diff;
                }}
                if (d < bestd) {{ bestd = d; best = c; }}
            }}
            membership[i] = best;
        }}
{upd_mem}
{upd_extra}
        for (c = 0; c < {kc}; c++) {{
            counts[c] = 0;
            for (f = 0; f < {ff}; f++) {{ newclust[c * {ff} + f] = 0.0; }}
        }}
        for (i = 0; i < {n}; i++) {{
            c = membership[i];
            counts[c] = counts[c] + 1;
            for (f = 0; f < {ff}; f++) {{
                newclust[c * {ff} + f] += feats[i * {ff} + f];
            }}
        }}
        for (c = 0; c < {kc}; c++) {{
            if (counts[c] > 0) {{
                for (f = 0; f < {ff}; f++) {{
                    clusters[c * {ff} + f] = newclust[c * {ff} + f] / (double) counts[c];
                }}
            }}
        }}
{upd_clu}
    }}
{post}
{data_close}
}}
"#,
            n = n,
            nf = n * F,
            kf = KC * F,
            kc = KC,
            ff = F,
            iters = iters,
            data_open = data_open,
            k1 = k1,
            upd_mem = upd_mem,
            upd_clu = upd_clu,
            upd_extra = upd_extra,
            post = post,
            data_close = data_close,
        )
    };

    let k1 = "#pragma acc kernels loop gang worker private(best, bestd, d, diff, c, f)";
    // Naive still needs the host membership/cluster exchange (semantics),
    // but no data region: feats/clusters/membership shipped per kernel.
    // Naive: the kernel's default copyout/copyin already round-trips
    // membership and clusters; explicit updates would target unmapped data.
    let naive = make("", k1, "", "", "", "", "");
    let upd_mem = "        #pragma acc update host(membership)";
    let upd_clu = "        #pragma acc update device(clusters)";
    let unoptimized = make(
        "#pragma acc data copyin(feats, clusters) create(membership)\n{",
        k1,
        upd_mem,
        upd_clu,
        "#pragma acc update host(feats)",
        "",
        "}",
    );
    let optimized = make(
        "#pragma acc data copyin(feats, clusters) create(membership)\n{",
        k1,
        upd_mem,
        upd_clu,
        "",
        "",
        "}",
    );

    Benchmark {
        name: "KMEANS",
        naive,
        unoptimized,
        optimized,
        outputs: OutputSpec::arrays(&["membership", "clusters"]),
        n_kernels: 1,
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
    fn clustering_separates_generated_groups() {
        let b = benchmark(Scale::default());
        let (tr, r) = crate::run_variant(
            &Default::default(),
            &b,
            Variant::Optimized,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        let mem = r.global_array(&tr.tr, "membership").unwrap();
        // Points were generated around KC distinct offsets; the assignment
        // must use more than one cluster.
        let distinct: std::collections::BTreeSet<i64> = mem.iter().map(|m| *m as i64).collect();
        assert!(distinct.len() > 1, "{distinct:?}");
    }
}
