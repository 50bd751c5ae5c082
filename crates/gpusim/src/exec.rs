//! Lockstep kernel executor.
//!
//! Kernels are MiniC functions compiled to bytecode whose first parameter
//! is the global thread id. The executor resolves the kernel once per
//! launch into an [`openarc_vm::Wave`] and runs the threads in waves of
//! bounded width (like resident thread blocks), reusing the lanes' stacks
//! and locals from wave to wave. Within a wave every live thread executes
//! **one instruction per round, in thread-id order**; while all of them
//! share a pc the round decodes the instruction once (see
//! `openarc_vm::interp`).
//!
//! Lockstep interleaving is what makes the paper's target bugs observable:
//! when a privatization is missed and a scalar temporary is shared, every
//! thread's write lands before any thread's read, so the race corrupts the
//! result deterministically — exactly the "active error" class of Table 2.

use crate::device::{Device, DeviceEnv};
use crate::race::{RaceDetector, RaceReport};
use openarc_vm::{Module, Value, VmError, Wave};

/// Execution knobs for one launch.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Number of threads resident (stepped in lockstep) at once.
    pub wave: u32,
    /// Total instruction budget across all threads (runaway guard).
    pub step_budget: u64,
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig {
            wave: 256,
            step_budget: 2_000_000_000,
        }
    }
}

/// Instruction counts and race reports from one kernel launch.
#[derive(Debug, Clone, Default)]
pub struct KernelOutcome {
    /// Instructions executed over all threads.
    pub total_instrs: u64,
    /// Longest single-thread instruction count.
    pub max_thread_instrs: u64,
    /// Races observed (empty when detection is off).
    pub races: Vec<RaceReport>,
    /// Number of threads launched.
    pub n_threads: u64,
}

/// Launch `kernel` over `n_threads` threads. Thread `i` receives arguments
/// `[Int(i), base_args...]`.
pub fn launch(
    device: &mut Device,
    module: &Module,
    kernel: &str,
    base_args: &[Value],
    n_threads: u64,
    cfg: &LaunchConfig,
) -> Result<KernelOutcome, VmError> {
    let mut outcome = KernelOutcome {
        n_threads,
        ..Default::default()
    };
    // No thread runs, so the kernel is never resolved (nor its name
    // checked).
    if n_threads == 0 {
        return Ok(outcome);
    }
    let mut wave = Wave::kernel(module, kernel, base_args)?;
    let mut detector = device.race_detect.then(RaceDetector::new);
    let mut env = DeviceEnv::new(&mut device.mem, detector.as_mut());
    let width = cfg.wave.max(1) as u64;
    let mut spent: u64 = 0;
    let mut start = 0u64;
    while start < n_threads {
        let end = (start + width).min(n_threads);
        wave.reset(start, (end - start) as usize);
        wave.run(module, &mut env, &mut spent, cfg.step_budget)?;
        for steps in wave.lane_steps() {
            outcome.total_instrs += steps;
            outcome.max_thread_instrs = outcome.max_thread_instrs.max(steps);
        }
        start = end;
    }
    if let Some(d) = detector {
        outcome.races = d.reports();
    }
    Ok(outcome)
}

/// Combine per-thread partial values pairwise (tournament tree), the way a
/// GPU reduction combines partials. For floating point this produces
/// different rounding than the host's left-to-right loop — the precision
/// mismatch the paper's configurable error margin exists to absorb.
pub fn tree_combine(
    vals: &[Value],
    f: &dyn Fn(Value, Value) -> Result<Value, VmError>,
) -> Result<Option<Value>, VmError> {
    if vals.is_empty() {
        return Ok(None);
    }
    let mut level: Vec<Value> = vals.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(f(pair[0], pair[1])?);
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    Ok(Some(level[0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::ast::BinOp;
    use openarc_minic::frontend;
    use openarc_minic::ScalarTy;
    use openarc_vm::{compile, interp::eval_bin};

    /// Compile a standalone kernel program (kernels take `__gid` first).
    fn kernel_module(src: &str) -> Module {
        let (p, s) = frontend(src).expect("frontend");
        compile(&p, &s).expect("compile")
    }

    #[test]
    fn parallel_elementwise_copy() {
        let m = kernel_module("void k(int gid, double *q, double *w) { q[gid] = w[gid]; }");
        let mut dev = Device::new();
        let q = dev.mem.alloc(ScalarTy::Double, 100, "q");
        let w = dev.mem.alloc(ScalarTy::Double, 100, "w");
        for i in 0..100 {
            dev.mem.store(w, i, Value::F64(i as f64)).unwrap();
        }
        let out = launch(
            &mut dev,
            &m,
            "k",
            &[Value::Ptr(q), Value::Ptr(w)],
            100,
            &LaunchConfig::default(),
        )
        .unwrap();
        assert_eq!(out.n_threads, 100);
        assert!(out.races.is_empty(), "{:?}", out.races);
        for i in 0..100 {
            assert_eq!(dev.mem.load(q, i).unwrap(), Value::F64(i as f64));
        }
        assert!(out.total_instrs > 0);
        assert!(out.max_thread_instrs <= out.total_instrs);
    }

    #[test]
    fn missed_privatization_races_and_corrupts() {
        // `tmp` is a shared one-element buffer instead of a private local:
        // lockstep guarantees every thread's write lands before the reads.
        let m = kernel_module(
            "void k(int gid, double *a, double *tmp) { tmp[0] = (double) gid; a[gid] = tmp[0] * 2.0; }",
        );
        let mut dev = Device::new();
        let a = dev.mem.alloc(ScalarTy::Double, 64, "a");
        let tmp = dev.mem.alloc(ScalarTy::Double, 1, "tmp");
        let out = launch(
            &mut dev,
            &m,
            "k",
            &[Value::Ptr(a), Value::Ptr(tmp)],
            64,
            &LaunchConfig::default(),
        )
        .unwrap();
        assert!(!out.races.is_empty(), "expected a race on tmp");
        assert_eq!(out.races[0].label, "tmp");
        // Lockstep: every thread read the LAST writer's value (63).
        let mut wrong = 0;
        for i in 0..64 {
            if dev.mem.load(a, i).unwrap() != Value::F64(i as f64 * 2.0) {
                wrong += 1;
            }
        }
        assert!(
            wrong >= 63,
            "lockstep should corrupt nearly all lanes, got {wrong}"
        );
    }

    #[test]
    fn private_local_does_not_race() {
        let m = kernel_module(
            "void k(int gid, double *a) { double tmp; tmp = (double) gid; a[gid] = tmp * 2.0; }",
        );
        let mut dev = Device::new();
        let a = dev.mem.alloc(ScalarTy::Double, 64, "a");
        let out = launch(
            &mut dev,
            &m,
            "k",
            &[Value::Ptr(a)],
            64,
            &LaunchConfig::default(),
        )
        .unwrap();
        assert!(out.races.is_empty());
        for i in 0..64 {
            assert_eq!(dev.mem.load(a, i).unwrap(), Value::F64(i as f64 * 2.0));
        }
    }

    #[test]
    fn waves_partition_large_launches() {
        let m = kernel_module("void k(int gid, int *a) { a[gid] = gid + 1; }");
        let mut dev = Device::new();
        let a = dev.mem.alloc(ScalarTy::Int, 1000, "a");
        let cfg = LaunchConfig {
            wave: 64,
            ..Default::default()
        };
        launch(&mut dev, &m, "k", &[Value::Ptr(a)], 1000, &cfg).unwrap();
        for i in 0..1000 {
            assert_eq!(dev.mem.load(a, i).unwrap(), Value::Int(i as i64 + 1));
        }
    }

    #[test]
    fn step_budget_enforced() {
        let m = kernel_module("void k(int gid, int *a) { while (1) { a[0] = gid; } }");
        let mut dev = Device::new();
        let a = dev.mem.alloc(ScalarTy::Int, 1, "a");
        let cfg = LaunchConfig {
            wave: 8,
            step_budget: 10_000,
        };
        let r = launch(&mut dev, &m, "k", &[Value::Ptr(a)], 8, &cfg);
        assert!(matches!(r, Err(VmError::StepLimit(_))));
    }

    #[test]
    fn zero_threads_is_a_noop() {
        let m = kernel_module("void k(int gid) { }");
        let mut dev = Device::new();
        let out = launch(&mut dev, &m, "k", &[], 0, &LaunchConfig::default()).unwrap();
        assert_eq!(out.total_instrs, 0);
        assert_eq!(out.n_threads, 0);
    }

    #[test]
    fn tree_combine_matches_sum_for_ints() {
        let vals: Vec<Value> = (1..=10).map(Value::Int).collect();
        let f = |a: Value, b: Value| eval_bin(BinOp::Add, a, b);
        let r = tree_combine(&vals, &f).unwrap().unwrap();
        assert_eq!(r, Value::Int(55));
    }

    #[test]
    fn tree_combine_float_order_differs_from_sequential() {
        // A big head value swallows the 1.0s one-by-one sequentially (f32
        // eps at 1e8 is 8.0), while the tree first builds them into one
        // large partial that survives the final add.
        let mut vals = vec![Value::F32(1e8)];
        vals.extend(std::iter::repeat_n(Value::F32(1.0), 1000));
        let mut seq = 0.0f32;
        for v in &vals {
            if let Value::F32(x) = v {
                seq += x;
            }
        }
        let f = |a: Value, b: Value| eval_bin(BinOp::Add, a, b);
        let tree = match tree_combine(&vals, &f).unwrap().unwrap() {
            Value::F32(x) => x,
            other => panic!("{other:?}"),
        };
        assert_ne!(seq, tree, "tree and sequential rounding should differ");
        assert!((seq - tree).abs() / seq.abs() < 1e-4, "but only slightly");
    }

    #[test]
    fn tree_combine_empty_is_none() {
        let f = |a: Value, b: Value| eval_bin(BinOp::Add, a, b);
        assert_eq!(tree_combine(&[], &f).unwrap(), None);
    }

    #[test]
    fn race_detection_can_be_disabled() {
        let m = kernel_module("void k(int gid, int *x) { x[0] = gid; }");
        let mut dev = Device::new();
        dev.race_detect = false;
        let x = dev.mem.alloc(ScalarTy::Int, 1, "x");
        let out = launch(
            &mut dev,
            &m,
            "k",
            &[Value::Ptr(x)],
            32,
            &LaunchConfig::default(),
        )
        .unwrap();
        assert!(out.races.is_empty());
    }

    // ------------------------------------------------------------------
    // Pinned lockstep interleavings. Every expected string below was
    // recorded from a one-interpreter-per-thread round-robin executor
    // (no converged rounds); a change to the interleaving (which lane's
    // write a shared cell ends up holding, which accesses race, how many
    // instructions ran) shows up as a diff here.

    /// Launch `src`'s kernel `k` over `n` threads in waves of `wave`,
    /// with one zeroed int buffer per label in `bufs` passed in order.
    /// Returns the launch result and the buffers' contents.
    fn pinned_run(
        src: &str,
        bufs: &[(&str, usize)],
        n: u64,
        wave: u32,
        step_budget: u64,
    ) -> (Result<KernelOutcome, VmError>, String) {
        let m = kernel_module(src);
        let mut dev = Device::new();
        let hs: Vec<_> = bufs
            .iter()
            .map(|(l, len)| dev.mem.alloc(ScalarTy::Int, *len, *l))
            .collect();
        let args: Vec<Value> = hs.iter().map(|h| Value::Ptr(*h)).collect();
        let cfg = LaunchConfig { wave, step_budget };
        let r = launch(&mut dev, &m, "k", &args, n, &cfg);
        let mem: Vec<String> = bufs
            .iter()
            .zip(&hs)
            .map(|((l, len), h)| {
                let vals: Vec<String> = (0..*len as u64)
                    .map(|i| dev.mem.load(*h, i).unwrap().to_string())
                    .collect();
                format!("{l}=[{}]", vals.join(","))
            })
            .collect();
        (r, mem.join(" "))
    }

    /// `pinned_run` of a launch that must succeed, rendered as one line:
    /// memory, instruction counts and every race report field.
    fn pinned(src: &str, bufs: &[(&str, usize)], n: u64, wave: u32) -> String {
        let (r, mem) = pinned_run(src, bufs, n, wave, 2_000_000_000);
        let out = r.expect("launch");
        let races: Vec<String> = out
            .races
            .iter()
            .map(|r| {
                format!(
                    "{}:{}@{}{:?}",
                    r.label, r.conflicts, r.example_idx, r.example_threads
                )
            })
            .collect();
        format!(
            "{mem} total={} max={} races=[{}]",
            out.total_instrs,
            out.max_thread_instrs,
            races.join(" ")
        )
    }

    #[test]
    fn pinned_divergent_branch_reconverges() {
        // Both arms are the same length, so the lanes split on the
        // tid-dependent branch and meet again at `t[0] = x`: the shared
        // cell then holds the last lane's value when every lane reads it.
        let got = pinned(
            "void k(int gid, int *a, int *t) { int x; if (gid % 3 == 0) { x = gid * 3; } else { x = -gid + 1; } t[0] = x; a[gid] = t[0] + x; }",
            &[("a", 12), ("t", 1)],
            12,
            8,
        );
        assert_eq!(got, "a=[-6,-6,-7,3,-9,-10,12,-12,-17,17,-19,-20] t=[-10] total=336 max=28 races=[t:21@0(0, 1)]");
    }

    #[test]
    fn pinned_tid_dependent_trip_count() {
        let got = pinned(
            "void k(int gid, int *a, int *acc) { int i; int s; s = 0; for (i = 0; i < gid % 5; i++) { s = s + i; acc[0] = acc[0] + 1; } a[gid] = s; }",
            &[("a", 11), ("acc", 1)],
            11,
            4,
        );
        assert_eq!(
            got,
            "a=[0,0,1,3,6,0,0,1,3,6,0] acc=[11] total=738 max=126 races=[acc:30@0(3, 1)]"
        );
    }

    #[test]
    fn pinned_device_function_call() {
        let got = pinned(
            "int clampv(int v, int hi) { if (v > hi) return hi; return v; }\nint sq(int v) { return v * v; }\nvoid k(int gid, int *a, int *t) { t[0] = sq(gid); a[gid] = clampv(t[0] + sq(gid + 1), 40); }",
            &[("a", 10), ("t", 1)],
            10,
            8,
        );
        assert_eq!(
            got,
            "a=[40,40,40,40,40,40,40,40,40,40] t=[81] total=390 max=39 races=[t:17@0(0, 1)]"
        );
    }

    #[test]
    fn pinned_early_return() {
        let got = pinned(
            "void k(int gid, int *a, int *t) { if (gid % 4 == 1) { return; } t[0] = gid; a[gid] = t[0] + 1; }",
            &[("a", 9), ("t", 1)],
            9,
            8,
        );
        assert_eq!(
            got,
            "a=[8,0,8,8,8,0,8,8,9] t=[8] total=168 max=22 races=[t:11@0(0, 2)]"
        );
    }

    #[test]
    fn pinned_race_in_divergent_branch() {
        // A missed privatization of `t` only on the even lanes.
        let got = pinned(
            "void k(int gid, int *a, int *t) { if (gid % 2 == 0) { t[0] = gid; a[gid] = t[0] * 2; } else { a[gid] = 1; } }",
            &[("a", 10), ("t", 1)],
            10,
            16,
        );
        assert_eq!(
            got,
            "a=[16,1,16,1,16,1,16,1,16,1] t=[8] total=175 max=23 races=[t:8@0(0, 2)]"
        );
    }

    #[test]
    fn pinned_step_limit_mid_wave() {
        // 20 threads in waves of 8; the budget runs out in the middle of
        // a round of the second wave. The stores that landed before the
        // limit fired stay in device memory.
        let (r, mem) = pinned_run(
            "void k(int gid, int *a) { a[gid] = gid; a[gid] = a[gid] + 100; }",
            &[("a", 20)],
            20,
            8,
            163,
        );
        assert_eq!(r.unwrap_err(), VmError::StepLimit(163));
        assert_eq!(
            mem,
            "a=[100,101,102,103,104,105,106,107,8,9,10,11,0,0,0,0,0,0,0,0]"
        );
    }
}
