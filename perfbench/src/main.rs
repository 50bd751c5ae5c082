//! `perfbench`: the end-to-end and per-layer benchmark of the OpenARC-rs
//! debugging pipeline. See `perfbench/README.md` for the workloads, the
//! metrics and how a performance change names its claim.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <verify-large|edit-small|serve-mix|fuzz-campaign|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! nonzero on any wrong verdict, byte-identity failure, fuzz finding,
//! deterministic-counter drift or failed trace reconciliation.

mod answers;
mod edit_small;
mod fuzz_campaign;
mod layers;
mod ledger;
mod probe;
mod requests;
mod serve_mix;
mod stats;
mod trace;
mod verify_large;

use answers::Answers;
use ledger::Ledger;
use openarc_trace::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["verify-large", "edit-small", "serve-mix", "fuzz-campaign"];

/// End-to-end metrics, reported with tracing off.
const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Where runs keep the determinism ledger, trace files and scratch stores
/// (inside the benchmark's own directory of the checkout).
pub fn state_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("state");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => a.seconds = v.parse().map_err(|_| "--seconds expects a number")?,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of {} or all)",
            a.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// What every workload gets.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub ledger: Ledger,
    pub answers: Answers,
}

/// What every workload returns.
#[derive(Default)]
pub struct Outcome {
    /// Per-request time to verdict, ms (successful requests only).
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The timed phase, one entry per pass over the workload's request set.
    pub passes: Vec<Pass>,
    /// Each set-up repetition, s.
    pub setup_s: Vec<f64>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<String, f64>,
    /// Traced request id → program label, for the per-program rows.
    pub programs: BTreeMap<u64, String>,
}

/// One pass of the timed phase.
pub struct Pass {
    /// Units completed: requests, or fuzz programs.
    pub units: f64,
    pub wall_s: f64,
    /// Process CPU seconds the pass used.
    pub cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub steal: f64,
    /// Latency samples the pass added to [`Outcome::latencies_ms`].
    pub samples: usize,
}

/// Where a pass began.
pub struct PassStart {
    cpu_s: f64,
    t: std::time::Instant,
    ticks: (u64, u64),
}

impl PassStart {
    pub fn now() -> PassStart {
        PassStart {
            cpu_s: stats::cpu_seconds(),
            t: std::time::Instant::now(),
            ticks: stats::host_ticks(),
        }
    }

    /// The pass ends now, with `units` completed and `samples` latency
    /// samples added.
    pub fn finish(self, units: f64, samples: usize) -> Pass {
        let ticks = stats::host_ticks();
        let all = ticks.1.saturating_sub(self.ticks.1).max(1);
        Pass {
            units,
            wall_s: self.t.elapsed().as_secs_f64(),
            cpu_s: stats::cpu_seconds() - self.cpu_s,
            steal: ticks.0.saturating_sub(self.ticks.0) as f64 / all as f64,
            samples,
        }
    }
}

/// The passes the timing figures come from: the ones during which the
/// hypervisor stole the least CPU time, at least half of all passes and
/// enough of them to put 10 latency samples beyond p90. A pass the host
/// interfered with still counts for correctness, only not for timing.
fn timing_passes(passes: &[Pass]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..passes.len()).collect();
    order.sort_by(|&a, &b| passes[a].steal.total_cmp(&passes[b].steal));
    let (mut keep, mut samples) = (Vec::new(), 0);
    for i in order {
        if keep.len() >= passes.len().div_ceil(2) && samples >= 100 {
            break;
        }
        samples += passes[i].samples;
        keep.push(i);
    }
    keep.sort_unstable();
    keep
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        eprintln!("FAIL: {why}");
        self.failures.push(why);
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::F64(value)),
        ("unit", Json::from(unit)),
    ])
}

fn run_one(a: &Args) -> ExitCode {
    let workload = WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == a.workload)
        .expect("workload validated by parse_args");
    let nproc = stats::nproc();
    println!(
        "perfbench workload={workload} seed={} seconds={} trace={} nproc={nproc}",
        a.seed, a.seconds, a.trace as u8
    );
    let ctx = Ctx {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        tracer: Tracer::new(a.trace),
        ledger: Ledger::new(workload),
        answers: Answers::load(),
    };
    let mut out = match workload {
        "verify-large" => verify_large::run(&ctx),
        "edit-small" => edit_small::run(&ctx),
        "serve-mix" => serve_mix::run(&ctx),
        _ => fuzz_campaign::run(&ctx),
    };
    match ctx.ledger.finish() {
        Ok(drift) => {
            for d in drift {
                out.fail(format!("determinism drift: {d}"));
            }
        }
        Err(e) => out.fail(format!("determinism ledger: {e}")),
    }
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if a.trace {
        let spans = ctx.tracer.take();
        match layers::finish(&ctx, &spans, &mut out) {
            Ok(m) => metrics = m,
            Err(e) => out.fail(e),
        }
    } else {
        let keep = timing_passes(&out.passes);
        let mut offset = 0;
        let mut lat = Vec::new();
        for (i, p) in out.passes.iter().enumerate() {
            if keep.contains(&i) {
                lat.extend_from_slice(&out.latencies_ms[offset..offset + p.samples]);
            }
            offset += p.samples;
        }
        let mean_steal = |ix: &mut dyn Iterator<Item = usize>| {
            let v: Vec<f64> = ix.map(|i| out.passes[i].steal).collect();
            100.0 * v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        println!(
            "timing from {} of {} passes (host steal {:.1}% in them, {:.1}% in all)",
            keep.len(),
            out.passes.len(),
            mean_steal(&mut keep.iter().copied()),
            mean_steal(&mut (0..out.passes.len()))
        );
        let n = lat.len();
        let p90_beyond = n - (0.9 * n as f64).ceil() as usize;
        println!("latency samples={n} beyond_p90={p90_beyond}");
        if p90_beyond < 10 {
            out.fail(format!(
                "only {p90_beyond} latency samples beyond p90 (need 10)"
            ));
        }
        let per_pass = |f: &dyn Fn(&Pass) -> f64| {
            stats::median(&keep.iter().map(|&i| f(&out.passes[i])).collect::<Vec<_>>())
        };
        let values = [
            per_pass(&|p| p.units / p.wall_s.max(1e-9)),
            stats::percentile(&lat, 0.5),
            stats::percentile(&lat, 0.9),
            per_pass(&|p| p.cpu_s),
            stats::peak_rss_mb(),
            stats::median(&out.setup_s),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), v, unit));
        }
    }
    for (name, v, unit) in &metrics {
        println!("  {name:<32} {v:>14.4} {unit}");
    }
    let failed = out.failures.len() as u64;
    let correct = failed == 0;
    let wall_s: f64 = out.passes.iter().map(|p| p.wall_s).sum();
    println!(
        "attempted={} failed={failed} passes={} wall_s={wall_s:.2} nproc={nproc} seed={}",
        out.attempted,
        out.passes.len(),
        a.seed
    );
    let json = Json::obj(vec![
        ("correct", Json::from(correct)),
        ("attempted", Json::from(out.attempted.max(1))),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(n, v, u)| (n.clone(), metric(*v, u)))
                    .collect(),
            ),
        ),
    ]);
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: every workload in its own child process (so each
/// has its own peak RSS), one table, one combined JSON line.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut combined: Vec<(String, Json)> = Vec::new();
    for w in WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &a.seed.to_string()])
            .args([
                "--seconds",
                &a.seconds.to_string(),
                "--trace",
                if a.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let text = match child {
            Ok(o) => {
                correct &= o.status.success();
                String::from_utf8_lossy(&o.stdout).into_owned()
            }
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                correct = false;
                continue;
            }
        };
        print!(
            "{}",
            text.lines()
                .take(text.lines().count().saturating_sub(1))
                .map(|l| format!("{l}\n"))
                .collect::<String>()
        );
        let Some(last) = text.lines().last().and_then(|l| Json::parse(l).ok()) else {
            correct = false;
            continue;
        };
        attempted += last.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += last.get("failed").and_then(Json::as_u64).unwrap_or(1);
        if let Some(Json::Obj(ms)) = last.get("metrics") {
            for (k, v) in ms {
                combined.push((format!("{w}.{k}"), v.clone()));
            }
        }
    }
    let json = Json::obj(vec![
        ("correct", Json::from(correct && failed == 0)),
        ("attempted", Json::from(attempted.max(1))),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(combined)),
    ]);
    println!("{json}");
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(a) if a.workload == "all" => run_all(&a),
        Ok(a) => run_one(&a),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
