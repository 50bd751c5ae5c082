//! BFS — breadth-first search on an implicit binary tree (Rodinia).
//! Frontier-mask traversal: one kernel expands the mask, one promotes the
//! next frontier with a reduction that tells the host whether to continue.

use crate::{Benchmark, Scale};
use openarc_core::interactive::OutputSpec;

/// Build the BFS benchmark at the given scale.
pub fn benchmark(scale: Scale) -> Benchmark {
    let n = (scale.n * 4).max(32);
    // Levels of a binary tree with n nodes.
    let levels = (usize::BITS - n.leading_zeros()) as usize + 1;
    let make = |data_open: &str, k1: &str, k2: &str, upd: &str, post: &str, data_close: &str| {
        format!(
            r#"int rowptr[{np1}];
int colidx[{nnz}];
int mask[{n}];
int newmask[{n}];
int visited[{n}];
int cost[{n}];
int frontier;
void main() {{
    int i; int e; int nb; int lvl; int nnz;
    nnz = 0;
    for (i = 0; i < {n}; i++) {{
        rowptr[i] = nnz;
        if (2 * i + 1 < {n}) {{ colidx[nnz] = 2 * i + 1; nnz = nnz + 1; }}
        if (2 * i + 2 < {n}) {{ colidx[nnz] = 2 * i + 2; nnz = nnz + 1; }}
        mask[i] = 0;
        newmask[i] = 0;
        visited[i] = 0;
        cost[i] = -1;
    }}
    rowptr[{n}] = nnz;
    mask[0] = 1;
    visited[0] = 1;
    cost[0] = 0;
{data_open}
    for (lvl = 0; lvl < {levels}; lvl++) {{
        frontier = 0;
{k1}
        for (i = 0; i < {n}; i++) {{
            if (mask[i] == 1) {{
                mask[i] = 0;
                for (e = rowptr[i]; e < rowptr[i + 1]; e++) {{
                    nb = colidx[e];
                    if (visited[nb] == 0) {{
                        cost[nb] = cost[i] + 1;
                        newmask[nb] = 1;
                    }}
                }}
            }}
        }}
{k2}
        for (i = 0; i < {n}; i++) {{
            if (newmask[i] == 1) {{
                mask[i] = 1;
                visited[i] = 1;
                newmask[i] = 0;
                frontier += 1;
            }}
        }}
{upd}
        if (frontier == 0) {{ break; }}
    }}
{post}
{data_close}
}}
"#,
            n = n,
            np1 = n + 1,
            nnz = n * 2,
            levels = levels,
            data_open = data_open,
            k1 = k1,
            k2 = k2,
            upd = upd,
            post = post,
            data_close = data_close,
        )
    };

    let k1 = "#pragma acc kernels loop gang worker private(e, nb)";
    let k2 = "#pragma acc kernels loop gang worker reduction(+:frontier)";
    let naive = make("", k1, k2, "", "", "");
    let unoptimized = make(
        "#pragma acc data copyin(rowptr, colidx, mask, visited, cost) create(newmask)\n{",
        k1,
        k2,
        "#pragma acc update host(cost)\n#pragma acc update host(visited)",
        "",
        "}",
    );
    let optimized = make(
        "#pragma acc data copyin(rowptr, colidx, mask, visited, cost) create(newmask)\n{",
        k1,
        k2,
        "",
        "#pragma acc update host(cost)\n#pragma acc update host(visited)",
        "}",
    );

    Benchmark {
        name: "BFS",
        naive,
        unoptimized,
        optimized,
        outputs: OutputSpec::arrays(&["cost", "visited"]),
        n_kernels: 2,
        kernels_with_private: 1,
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
    fn costs_match_tree_depth() {
        let b = benchmark(Scale::default());
        let (tr, r) = crate::run_variant(
            &Default::default(),
            &b,
            Variant::Optimized,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        let cost = r.global_array(&tr.tr, "cost").unwrap();
        assert_eq!(cost[0], 0.0);
        assert_eq!(cost[1], 1.0);
        assert_eq!(cost[2], 1.0);
        assert_eq!(cost[5], 2.0);
        // Every node reachable (complete binary tree).
        assert!(cost.iter().all(|c| *c >= 0.0));
    }
}
