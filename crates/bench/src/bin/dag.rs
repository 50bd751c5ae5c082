//! DAG-executor benchmark: for every benchmark in the suite, run kernel
//! verification under the sequential oracle (`dagJobs=1, devices=1`) and
//! under the dependency-DAG schedule (`dagJobs=4, devices=2`) with each
//! placement policy — round-robin and cost-model EFT — gate on every
//! verification observable being bit-identical, and report wall-clock
//! p50/p95 per mode plus per-device utilization of each placement's
//! simulated timeline. Writes `BENCH_dag.json`; exits non-zero when the
//! identity gate fails or when EFT regresses against round-robin on any
//! benchmark.
//!
//! Wall-clock numbers compare the host cost of the schedulers (same
//! simulated work either way). The placement comparison runs on the
//! *device-side makespan* — the bottleneck device's total busy time on
//! the simulated timeline. Verification's end-to-end `sim_us` is pinned
//! by the host-serial reference execution and comparison, so placement
//! barely moves it (it is still gated against regression); the device
//! makespan is what the placement controls, and it shrinking under EFT
//! is the cost model steering heavy kernels apart.

use openarc_bench::args::{BenchArgs, FLAGS_HELP};
use openarc_bench::timing;
use openarc_core::exec::dag::Placement;
use openarc_core::exec::{execute, ExecMode, ExecOptions, RunResult, VerifyOptions};
use openarc_core::pipeline::Session;
use openarc_core::translate::TranslateOptions;
use openarc_trace::json::Json;
use openarc_trace::{EventKind, Journal, TraceEvent, Track};

const DAG_JOBS: usize = 4;
const DEVICES: usize = 2;

fn verify_run(
    tr: &openarc_core::translate::Translated,
    dag_jobs: usize,
    devices: usize,
    placement: Placement,
) -> (RunResult, Vec<TraceEvent>) {
    let journal = Journal::enabled();
    let eopts = ExecOptions {
        mode: ExecMode::Verify(VerifyOptions {
            dag_jobs,
            devices,
            placement,
            ..Default::default()
        }),
        journal: journal.clone(),
        ..Default::default()
    };
    let r = execute(tr, &eopts).unwrap_or_else(|e| {
        eprintln!("dag: verify run failed: {e}");
        std::process::exit(1)
    });
    (r, journal.drain())
}

/// Every verification observable agrees between the two runs.
fn observables_identical(a: &RunResult, b: &RunResult) -> bool {
    a.verify.len() == b.verify.len()
        && a.verify.iter().zip(&b.verify).all(|(x, y)| {
            x.kernel == y.kernel
                && x.launches == y.launches
                && x.failed_launches == y.failed_launches
                && x.compared_elems == y.compared_elems
                && x.mismatched_elems == y.mismatched_elems
                && x.max_abs_err.to_bits() == y.max_abs_err.to_bits()
                && x.assertion_failures == y.assertion_failures
        })
        && a.machine.report.issues == b.machine.report.issues
        && a.races == b.races
        && a.kernel_launches == b.kernel_launches
        && a.host_instrs == b.host_instrs
}

/// Per-device busy time on the simulated timeline: the sum of queue-track
/// span durations per device.
fn device_busy(events: &[TraceEvent], devices: usize) -> Vec<f64> {
    let mut busy = vec![0.0f64; devices];
    for e in events {
        if let Track::Queue { dev, .. } = e.track {
            if (dev as usize) < devices {
                busy[dev as usize] += e.dur_us;
            }
        }
    }
    busy
}

/// Each device's busy time as a fraction of the *bottleneck* device's
/// busy time. 1.0 means the device carries as much load as the heaviest
/// one; a low minimum means the placement parked the work on one device.
fn device_utilization(busy: &[f64]) -> Vec<f64> {
    let bottleneck = busy.iter().copied().fold(0.0f64, f64::max);
    busy.iter().map(|b| b / bottleneck.max(1e-9)).collect()
}

/// Any two kernel spans on distinct devices overlapping in simulated time?
fn cross_device_overlap(events: &[TraceEvent]) -> bool {
    let spans: Vec<(u32, f64, f64)> = events
        .iter()
        .filter_map(|e| match (&e.kind, &e.track) {
            (EventKind::KernelComplete { .. }, Track::Queue { dev, .. }) => {
                Some((*dev, e.ts_us, e.ts_us + e.dur_us))
            }
            _ => None,
        })
        .collect();
    spans.iter().enumerate().any(|(i, a)| {
        spans[i + 1..]
            .iter()
            .any(|b| a.0 != b.0 && a.1 < b.2 && b.1 < a.2)
    })
}

/// One placement's leg for one benchmark.
struct PlacementResult {
    placement: Placement,
    identical: bool,
    overlap: bool,
    sim_us: f64,
    /// Device-side makespan: the bottleneck device's total busy time. The
    /// run-level `sim_us` is dominated by the host-serial reference
    /// execution and comparison, so it barely moves with placement; this
    /// is the quantity a placement actually controls — how long the
    /// device-side work would take were the devices the constraint.
    dev_makespan_us: f64,
    util: Vec<f64>,
    timing: timing::Stats,
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match BenchArgs::parse(&raw, None) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("dag: {e}");
            eprintln!("usage: dag {FLAGS_HELP}");
            std::process::exit(2);
        }
    };
    let scale = args.scale;
    let samples = 5;

    let mut rows = Vec::new();
    let mut all_identical = true;
    let mut any_overlap = false;
    let mut eft_regressions: Vec<String> = Vec::new();
    let mut eft_wins = 0usize;
    println!(
        "{:<10} {:>9} {:>9} | {:>9} {:>11} | {:>9} {:>11} {:>7}",
        "benchmark", "seq sim", "dag sim", "rr dev", "rr util", "eft dev", "eft util", "cut",
    );
    let session = Session::default();
    for b in openarc_suite::all(scale) {
        let tra = openarc_suite::translate_variant(
            &session,
            &b,
            openarc_suite::Variant::Naive,
            &TranslateOptions::default(),
        )
        .unwrap_or_else(|e| {
            eprintln!("dag: {e}");
            std::process::exit(1)
        });
        let tr = &tra.tr;

        let (oracle, _) = verify_run(tr, 1, 1, Placement::RoundRobin);
        let t_seq = timing::measure(samples, || verify_run(tr, 1, 1, Placement::RoundRobin));

        let mut legs: Vec<PlacementResult> = Vec::new();
        for placement in [Placement::RoundRobin, Placement::Eft] {
            let (run, events) = verify_run(tr, DAG_JOBS, DEVICES, placement);
            let identical = observables_identical(&oracle, &run);
            all_identical &= identical;
            let overlap = cross_device_overlap(&events);
            any_overlap |= overlap;
            let t = timing::measure(samples, || verify_run(tr, DAG_JOBS, DEVICES, placement));
            let busy = device_busy(&events, DEVICES);
            legs.push(PlacementResult {
                placement,
                identical,
                overlap,
                sim_us: run.sim_time_us(),
                dev_makespan_us: busy.iter().copied().fold(0.0f64, f64::max),
                util: device_utilization(&busy),
                timing: t,
            });
        }

        let rr_sim = legs[0].sim_us;
        let eft_sim = legs[1].sim_us;
        let rr_dev = legs[0].dev_makespan_us;
        let eft_dev = legs[1].dev_makespan_us;
        let cut = 1.0 - eft_dev / rr_dev.max(1e-9);
        // EFT must not regress on either axis: the device-side makespan it
        // optimizes (1% tolerance covers first-touch allocation noise when
        // a balanced plan mirrors a variable onto a second device), nor
        // the end-to-end simulated time (which placement barely moves, but
        // must never be made worse).
        if eft_dev > rr_dev * 1.01 || eft_sim > rr_sim * 1.01 {
            eft_regressions.push(b.name.to_string());
        }
        if cut >= 0.15 {
            eft_wins += 1;
        }
        let utils = |l: &PlacementResult| {
            l.util
                .iter()
                .map(|u| format!("{:.2}", u))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "{:<10} {:>7.0}µs {:>7.0}µs | {:>7.0}µs {:>11} | {:>7.0}µs {:>11} {:>6.1}%{}",
            b.name,
            oracle.sim_time_us(),
            eft_sim,
            rr_dev,
            utils(&legs[0]),
            eft_dev,
            utils(&legs[1]),
            cut * 100.0,
            if legs.iter().all(|l| l.identical) {
                ""
            } else {
                "  DIVERGED"
            }
        );

        let placements = Json::obj(
            legs.iter()
                .map(|l| {
                    let min_util = l.util.iter().copied().fold(f64::INFINITY, f64::min);
                    (
                        l.placement.as_str(),
                        Json::obj(vec![
                            ("identical_output", Json::from(l.identical)),
                            ("cross_device_overlap", Json::from(l.overlap)),
                            ("timing", l.timing.to_json()),
                            ("sim_us", Json::from(l.sim_us)),
                            ("device_makespan_us", Json::from(l.dev_makespan_us)),
                            (
                                "device_utilization",
                                Json::Arr(l.util.iter().copied().map(Json::from).collect()),
                            ),
                            ("min_utilization", Json::from(min_util)),
                        ]),
                    )
                })
                .collect(),
        );
        rows.push(Json::obj(vec![
            ("name", Json::from(b.name)),
            (
                "identical_output",
                Json::from(legs.iter().all(|l| l.identical)),
            ),
            (
                "cross_device_overlap",
                Json::from(legs.iter().any(|l| l.overlap)),
            ),
            ("sequential", t_seq.to_json()),
            ("sim_us_sequential", Json::from(oracle.sim_time_us())),
            ("sim_us_roundrobin", Json::from(rr_sim)),
            ("sim_us_eft", Json::from(eft_sim)),
            ("dev_makespan_us_roundrobin", Json::from(rr_dev)),
            ("dev_makespan_us_eft", Json::from(eft_dev)),
            ("eft_makespan_cut", Json::from(cut)),
            ("placements", placements),
        ]));
    }

    let no_regression = eft_regressions.is_empty();
    let report = Json::obj(vec![
        ("n", Json::from(scale.n)),
        ("iters", Json::from(scale.iters)),
        ("dag_jobs", Json::from(DAG_JOBS)),
        ("devices", Json::from(DEVICES)),
        ("identical_output", Json::from(all_identical)),
        ("any_cross_device_overlap", Json::from(any_overlap)),
        ("eft_no_regression", Json::from(no_regression)),
        ("eft_benchmarks_cut_15pct", Json::from(eft_wins)),
        ("benchmarks", Json::Arr(rows)),
    ]);
    std::fs::write("BENCH_dag.json", report.pretty()).ok();
    println!(
        "wrote BENCH_dag.json (identical_output={all_identical}, \
         cross-device overlap on ≥1 benchmark: {any_overlap}, \
         EFT ≥15% device-makespan cut on {eft_wins} benchmarks, \
         regressions: {})",
        if no_regression {
            "none".to_string()
        } else {
            eft_regressions.join(", ")
        }
    );
    if !all_identical {
        eprintln!("dag: a DAG schedule diverged from the sequential oracle");
        std::process::exit(1);
    }
    if !no_regression {
        eprintln!(
            "dag: EFT regressed vs round-robin (device makespan or sim time) on: {}",
            eft_regressions.join(", ")
        );
        std::process::exit(1);
    }
}
