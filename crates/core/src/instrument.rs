//! Coherence-check placement (§III-B).
//!
//! Computes where the compiler inserts `check_read` / `check_write` /
//! `reset_status` runtime calls, applying the paper's placement
//! optimizations:
//!
//! * GPU-side checks only at kernel boundaries (built into the launch
//!   handler; this module only *subtracts* hoisted write checks from it).
//! * CPU-side checks only at may-be-first reads/writes since program entry
//!   or the last kernel call ([`openarc_dataflow::first_access`]).
//! * `reset_status` for remote-dead variables only at last writes
//!   ([`openarc_dataflow::last_write`], Algorithm 2) and kernel boundaries.
//! * Checks whose first access sits in a kernel-free loop hoist before the
//!   loop; kernel GPU write checks hoist out of loops under the Listing-3
//!   conditions, enabling detection of per-iteration redundant copyouts.

use crate::ir::RtOp;
use openarc_dataflow::{
    dead_live_compute, first_access, last_write, natural_loops, AccessSel, Cfg, Deadness, NodeKind,
    Side,
};
use openarc_gpusim::DeviceId;
use openarc_minic::span::Diagnostic;
use openarc_minic::{Func, NodeId, Sema};
use openarc_runtime::{Loc, St};
use std::collections::{BTreeSet, HashMap};

/// Planned instrumentation for one function.
#[derive(Debug, Default)]
pub struct Instrumentation {
    /// Ops to run before a statement.
    pub before: HashMap<NodeId, Vec<RtOp>>,
    /// Ops to run after a statement.
    pub after: HashMap<NodeId, Vec<RtOp>>,
    /// Kernel statement → aggregate vars whose GPU write check is hoisted
    /// (the launch skips their state transition; a pre-loop op does it).
    pub hoisted_kernel_writes: HashMap<NodeId, Vec<String>>,
}

impl Instrumentation {
    fn before_push(&mut self, id: NodeId, op: RtOp) {
        let v = self.before.entry(id).or_default();
        if !v.contains(&op) {
            v.push(op);
        }
    }

    fn after_push(&mut self, id: NodeId, op: RtOp) {
        let v = self.after.entry(id).or_default();
        if !v.contains(&op) {
            v.push(op);
        }
    }

    /// Total number of planned check/reset ops.
    #[cfg(test)]
    fn op_count(&self) -> usize {
        self.before.values().map(Vec::len).sum::<usize>()
            + self.after.values().map(Vec::len).sum::<usize>()
    }
}

/// The aggregate (tracked) variables visible in `func`.
pub fn tracked_vars(func: &Func, sema: &Sema) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (name, ty) in &sema.globals {
        if ty.is_aggregate() {
            out.insert(name.clone());
        }
    }
    if let Some(info) = sema.funcs.get(&func.name) {
        for (name, ty) in &info.locals {
            if ty.is_aggregate() {
                out.insert(name.clone());
            }
        }
    }
    let _ = func;
    out
}

/// Plan instrumentation for `func`. With `optimize` false, checks go at
/// every access (the naive placement the paper's optimizations replace).
pub fn plan(
    func: &Func,
    sema: &Sema,
    optimize: bool,
    hoist_gpu: bool,
    ignored_updates: &BTreeSet<NodeId>,
) -> Result<Instrumentation, Diagnostic> {
    let cfg = Cfg::build_typed(func, sema)?;
    let tracked = tracked_vars(func, sema);
    let mut ins = Instrumentation::default();
    if tracked.is_empty() {
        return Ok(ins);
    }

    let loops = natural_loops(&cfg);
    // Map: node → innermost-to-outermost loops containing it.
    let loops_of = |n: usize| -> Vec<&openarc_dataflow::NaturalLoop> {
        let mut ls: Vec<_> = loops.iter().filter(|l| l.body.contains(&n)).collect();
        ls.sort_by_key(|l| std::cmp::Reverse(l.body.len()));
        ls
    };
    let loop_has_kernel = |l: &openarc_dataflow::NaturalLoop| -> bool {
        l.body.iter().any(|&n| cfg.nodes[n].is_kernel())
    };
    // Listing-3 condition (ii): "no memory transfer call for the variable
    // exists BEFORE the write_check() call within the loop" — only
    // transfers preceding the kernel in the iteration matter (the paper's
    // own example keeps the post-kernel memcpyout and still hoists).
    let loop_has_transfer_of_before =
        |l: &openarc_dataflow::NaturalLoop, var: &str, kernel_node: usize| -> bool {
            l.body.iter().any(|&n| match &cfg.nodes[n].kind {
                NodeKind::Update(u) => {
                    // User-removed updates no longer transfer anything.
                    let removed = cfg.nodes[n]
                        .stmt
                        .map(|id| ignored_updates.contains(&id))
                        .unwrap_or(false);
                    !removed && n < kernel_node && u.host.iter().chain(&u.device).any(|v| v == var)
                }
                NodeKind::DataEnter(_) | NodeKind::DataExit(_) => true,
                _ => false,
            })
        };
    let loop_has_host_access_of = |l: &openarc_dataflow::NaturalLoop, var: &str| -> bool {
        l.body.iter().any(|&n| {
            let node = &cfg.nodes[n];
            !node.is_kernel()
                && !matches!(node.kind, NodeKind::Update(_))
                && (node.host.reads.contains(var) || node.host.writes.contains(var))
        })
    };

    // ---- CPU-side read/write checks -------------------------------------
    let (reads_at, writes_at): (Vec<BTreeSet<String>>, Vec<BTreeSet<String>>) = if optimize {
        (
            first_access(&cfg, Side::Host, AccessSel::Read),
            first_access(&cfg, Side::Host, AccessSel::Write),
        )
    } else {
        // Naive: every access is checked.
        (
            cfg.nodes.iter().map(|n| n.host.reads.clone()).collect(),
            cfg.nodes.iter().map(|n| n.host.writes.clone()).collect(),
        )
    };

    for (n, node) in cfg.nodes.iter().enumerate() {
        // Kernel and update nodes manage coherence in their handlers.
        if node.is_kernel() || matches!(node.kind, NodeKind::Update(_)) {
            continue;
        }
        let Some(stmt) = node.stmt else { continue };
        for var in reads_at[n].iter().filter(|v| tracked.contains(*v)) {
            let site = format!("cpu_read@{stmt}");
            let op = RtOp::CheckRead {
                var: var.clone(),
                side: Loc::Cpu,
                site,
            };
            let target = if optimize {
                hoist_target(&cfg, &loops_of(n), &loop_has_kernel, stmt)
            } else {
                stmt
            };
            ins.before_push(target, op);
        }
        for var in writes_at[n].iter().filter(|v| tracked.contains(*v)) {
            let total = node.host.total_writes.contains(var);
            let site = format!("cpu_write@{stmt}");
            let op = RtOp::CheckWrite {
                var: var.clone(),
                side: Loc::Cpu,
                total,
                site,
            };
            let target = if optimize {
                hoist_target(&cfg, &loops_of(n), &loop_has_kernel, stmt)
            } else {
                stmt
            };
            ins.before_push(target, op);
        }
    }

    // ---- reset_status at last CPU writes (remote = GPU deadness) --------
    let dl_gpu = dead_live_compute(&cfg, Side::Gpu);
    let lw_host = last_write(&cfg, Side::Host, true);
    for (n, node) in cfg.nodes.iter().enumerate() {
        if node.is_kernel() || matches!(node.kind, NodeKind::Update(_)) {
            continue;
        }
        let Some(stmt) = node.stmt else { continue };
        let candidates: BTreeSet<String> = if optimize {
            lw_host.last_written_at(&cfg, Side::Host, n)
        } else {
            node.host.writes.clone()
        };
        // A reset after a write inside a kernel-free loop hoists to after
        // the loop (only the final iteration's state matters, and keeping
        // the call out of the hot loop is where the paper's low Figure 4
        // overhead comes from).
        let target = if optimize {
            hoist_target(&cfg, &loops_of(n), &loop_has_kernel, stmt)
        } else {
            stmt
        };
        for var in candidates.iter().filter(|v| tracked.contains(*v)) {
            match dl_gpu.after(n, var) {
                Deadness::MustDead => ins.after_push(
                    target,
                    RtOp::ResetStatus {
                        var: var.clone(),
                        side: Loc::Dev(DeviceId::PRIMARY),
                        st: St::NotStale,
                    },
                ),
                Deadness::MayDead => ins.after_push(
                    target,
                    RtOp::ResetStatus {
                        var: var.clone(),
                        side: Loc::Dev(DeviceId::PRIMARY),
                        st: St::MayStale,
                    },
                ),
                Deadness::Live => {}
            }
        }
    }

    // ---- reset_status for dead CPU copies at kernel boundaries ----------
    let dl_host = dead_live_compute(&cfg, Side::Host);
    for &k in &cfg.kernel_nodes() {
        let stmt = cfg.nodes[k].stmt.expect("kernel stmt");
        let written: Vec<String> = cfg.nodes[k].gpu.writes.iter().cloned().collect();
        for var in written.iter().filter(|v| tracked.contains(*v)) {
            match dl_host.after(k, var) {
                Deadness::MustDead => ins.after_push(
                    stmt,
                    RtOp::ResetStatus {
                        var: var.clone(),
                        side: Loc::Cpu,
                        st: St::NotStale,
                    },
                ),
                Deadness::MayDead => ins.after_push(
                    stmt,
                    RtOp::ResetStatus {
                        var: var.clone(),
                        side: Loc::Cpu,
                        st: St::MayStale,
                    },
                ),
                Deadness::Live => {}
            }
        }
    }

    // ---- Listing-3 hoisting of GPU write checks --------------------------
    if optimize && hoist_gpu {
        for &k in &cfg.kernel_nodes() {
            let kstmt = cfg.nodes[k].stmt.expect("kernel stmt");
            let enclosing = loops_of(k);
            let Some(outer) = enclosing.first() else {
                continue;
            };
            for var in cfg.nodes[k].gpu.writes.clone() {
                if !tracked.contains(&var) {
                    continue;
                }
                let ok = !loop_has_host_access_of(outer, &var)
                    && !loop_has_transfer_of_before(outer, &var, k);
                if ok {
                    let head_stmt = cfg.nodes[outer.head].stmt.expect("loop head stmt");
                    ins.before_push(
                        head_stmt,
                        RtOp::CheckWrite {
                            var: var.clone(),
                            side: Loc::Dev(DeviceId::PRIMARY),
                            total: false,
                            site: format!("gpu_write_hoisted@{kstmt}"),
                        },
                    );
                    ins.hoisted_kernel_writes
                        .entry(kstmt)
                        .or_default()
                        .push(var);
                }
            }
        }
    }

    Ok(ins)
}

/// Hoist a CPU check out of kernel-free loops: returns the statement to
/// insert before (outermost kernel-free enclosing loop, else the access).
fn hoist_target(
    cfg: &Cfg,
    enclosing: &[&openarc_dataflow::NaturalLoop],
    loop_has_kernel: &dyn Fn(&openarc_dataflow::NaturalLoop) -> bool,
    stmt: NodeId,
) -> NodeId {
    // `enclosing` is sorted outermost-first.
    for l in enclosing {
        if !loop_has_kernel(l) {
            if let Some(s) = cfg.nodes[l.head].stmt {
                return s;
            }
        }
    }
    stmt
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::frontend;
    use std::collections::BTreeMap;

    /// Count ops of each kind.
    fn op_histogram(ins: &Instrumentation) -> BTreeMap<&'static str, usize> {
        let mut h: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut bump = |op: &RtOp| {
            let k = match op {
                RtOp::CheckRead { .. } => "check_read",
                RtOp::CheckWrite { .. } => "check_write",
                RtOp::ResetStatus { .. } => "reset_status",
                _ => "other",
            };
            *h.entry(k).or_insert(0) += 1;
        };
        for ops in ins.before.values().chain(ins.after.values()) {
            for op in ops {
                bump(op);
            }
        }
        h
    }

    fn planned(src: &str, optimize: bool) -> (openarc_minic::Program, Instrumentation) {
        let (p, s) = frontend(src).expect("frontend");
        let f = p.func("main").unwrap().clone();
        let ins = plan(&f, &s, optimize, true, &Default::default()).expect("plan");
        (p, ins)
    }

    #[test]
    fn no_aggregates_no_ops() {
        let (_, ins) = planned("int n;\nvoid main() { n = 1; }", true);
        assert_eq!(ins.op_count(), 0);
    }

    #[test]
    fn first_read_checked_once() {
        let src = "double a[8];\nint z;\nvoid main() { z = (int) a[0]; z = (int) a[1]; }";
        let (_, ins) = planned(src, true);
        let h = op_histogram(&ins);
        assert_eq!(h.get("check_read").copied().unwrap_or(0), 1);
    }

    #[test]
    fn naive_mode_checks_every_access() {
        let src = "double a[8];\nint z;\nvoid main() { z = (int) a[0]; z = (int) a[1]; }";
        let (_, ins) = planned(src, false);
        let h = op_histogram(&ins);
        assert_eq!(h.get("check_read").copied().unwrap_or(0), 2);
        // Optimized placement is strictly cheaper.
        let (_, opt) = planned(src, true);
        assert!(opt.op_count() < ins.op_count());
    }

    #[test]
    fn check_hoisted_out_of_kernel_free_loop() {
        let src = "double a[8];\nint z;\nvoid main() { int j; for (j = 0; j < 8; j++) { z = z + (int) a[j]; } }";
        let (p, ins) = planned(src, true);
        // The check must be attached to the for statement, not the body.
        let f = p.func("main").unwrap();
        let for_id = f.body.stmts[1].id;
        assert!(
            ins.before
                .get(&for_id)
                .map(|v| v
                    .iter()
                    .any(|op| matches!(op, RtOp::CheckRead { var, .. } if var == "a")))
                .unwrap_or(false),
            "{ins:?}"
        );
    }

    #[test]
    fn check_not_hoisted_past_kernel_in_loop() {
        let src = "double a[8];\nint z;\nvoid main() {\n int k; int j;\n for (k = 0; k < 3; k++) {\n  #pragma acc kernels loop gang\n  for (j = 0; j < 8; j++) { a[j] = 1.0; }\n  z = (int) a[0];\n }\n}";
        let (p, ins) = planned(src, true);
        let f = p.func("main").unwrap();
        let outer_for = f.body.stmts[2].id;
        // The host read of `a` after the kernel must NOT hoist out of the
        // kernel-containing loop.
        let hoisted_read = ins
            .before
            .get(&outer_for)
            .map(|v| v.iter().any(|op| matches!(op, RtOp::CheckRead { .. })))
            .unwrap_or(false);
        assert!(!hoisted_read);
        // But some check_read must exist inside the loop.
        let h = op_histogram(&ins);
        assert!(h.get("check_read").copied().unwrap_or(0) >= 1);
    }

    #[test]
    fn reset_status_after_last_write_when_gpu_dead() {
        // CPU writes `a`; GPU never touches it → GPU copy must-dead.
        let src = "double a[8];\ndouble b[8];\nvoid main() {\n int j;\n a[0] = 1.0;\n #pragma acc kernels loop gang\n for (j = 0; j < 8; j++) { b[j] = 2.0; }\n}";
        let (_, ins) = planned(src, true);
        let resets: Vec<&RtOp> = ins
            .after
            .values()
            .flatten()
            .filter(
                |op| matches!(op, RtOp::ResetStatus { var, side: Loc::Dev(DeviceId::PRIMARY), .. } if var == "a"),
            )
            .collect();
        assert!(!resets.is_empty(), "{ins:?}");
    }

    #[test]
    fn listing3_gpu_write_check_hoisted() {
        // Kernel in a loop, var `b` written by kernel, no CPU access or
        // transfer of `b` inside the loop, data region outside.
        let src = "double a[8];\ndouble b[8];\nvoid main() {\n int k; int j;\n #pragma acc data create(a, b)\n {\n  for (k = 0; k < 4; k++) {\n   #pragma acc kernels loop gang\n   for (j = 0; j < 8; j++) { b[j] = a[j] + 1.0; }\n  }\n }\n}";
        let (p, ins) = planned(src, true);
        // Find the kernel statement id (the annotated for).
        let mut kernel_id = None;
        openarc_minic::ast::walk_stmts(&p.func("main").unwrap().body, &mut |s| {
            if s.pragmas.iter().any(|pr| pr.text.contains("kernels")) {
                kernel_id = Some(s.id);
            }
        });
        let kid = kernel_id.unwrap();
        let hoisted = ins
            .hoisted_kernel_writes
            .get(&kid)
            .cloned()
            .unwrap_or_default();
        assert!(hoisted.contains(&"b".to_string()), "{ins:?}");
    }

    #[test]
    fn listing3_no_hoist_when_cpu_touches_var_in_loop() {
        let src = "double b[8];\nvoid main() {\n int k; int j;\n #pragma acc data create(b)\n {\n  for (k = 0; k < 4; k++) {\n   #pragma acc kernels loop gang\n   for (j = 0; j < 8; j++) { b[j] = 1.0; }\n   b[0] = 2.0;\n  }\n }\n}";
        let (p, ins) = planned(src, true);
        let mut kernel_id = None;
        openarc_minic::ast::walk_stmts(&p.func("main").unwrap().body, &mut |s| {
            if s.pragmas.iter().any(|pr| pr.text.contains("kernels")) {
                kernel_id = Some(s.id);
            }
        });
        let hoisted = ins
            .hoisted_kernel_writes
            .get(&kernel_id.unwrap())
            .cloned()
            .unwrap_or_default();
        assert!(hoisted.is_empty(), "{ins:?}");
    }
}
