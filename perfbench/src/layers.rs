//! Per-request bookkeeping shared by the workloads, and the traced run's
//! per-layer metrics, ledger table and reconciliation check.

use crate::probe::{self, ProbeCounts};
use crate::requests::Done;
use crate::trace::{self, Span};
use crate::{Ctx, Outcome};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Every per-layer metric, in report order, with its unit. A traced run
/// of any workload reports all of them; a layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("minic.frontend_ms", "ms"),
    ("minic.frontend_calls", "count"),
    ("minic.source_kb", "kB"),
    ("openacc.directives_ms", "ms"),
    ("dataflow.cfg_ms", "ms"),
    ("dataflow.alg1_ms", "ms"),
    ("dataflow.alg2_ms", "ms"),
    ("dataflow.first_access_ms", "ms"),
    ("dataflow.cfg_nodes", "count"),
    ("translate.analysis_ms", "ms"),
    ("translate.instrument_ms", "ms"),
    ("vm.compile_ms", "ms"),
    ("vm.host_ref_ms", "ms"),
    ("vm.host_instrs", "count"),
    ("vm.host_minstr_per_s", "Minstr/s"),
    ("gpusim.device_ms", "ms"),
    ("gpusim.race_ms", "ms"),
    ("gpusim.kernel_launches", "count"),
    ("gpusim.race_reports", "count"),
    ("runtime.coherence_ms", "ms"),
    ("runtime.transfer_bytes", "bytes"),
    ("runtime.transfer_ops", "count"),
    ("runtime.issues", "count"),
    ("verify.staging_ms", "ms"),
    ("verify.overlap_ms", "ms"),
    ("verify.compare_ms", "ms"),
    ("verify.compared_elems", "count"),
    ("verify.flagged_kernels", "count"),
    ("pipeline.frontend.hit_ratio", "ratio"),
    ("pipeline.directives.hit_ratio", "ratio"),
    ("pipeline.analysis.hit_ratio", "ratio"),
    ("pipeline.instrument.hit_ratio", "ratio"),
    ("pipeline.plan.hit_ratio", "ratio"),
    ("pipeline.execute.hit_ratio", "ratio"),
    ("pipeline.verify.hit_ratio", "ratio"),
    ("cache.load_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("cache.disk_hit_ratio", "ratio"),
    ("cache.corrupt", "count"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p95_ms", "ms"),
    ("serve.wire_queue_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.rejected", "count"),
    ("serve.deadline_missed", "count"),
    ("serve.protocol_errors", "count"),
    ("trace.journal_events", "count"),
    ("trace.journal_overhead_ratio", "ratio"),
    ("fuzz.exec_p50_us", "us"),
    ("fuzz.rejected_ratio", "ratio"),
    ("fuzz.racy_ratio", "ratio"),
    ("fuzz.corpus", "count"),
    ("fuzz.new_atoms", "count"),
    ("fuzz.findings", "count"),
    ("sim.time_ms", "ms"),
    ("exec.check_ms", "ms"),
    ("exec.verify_ms", "ms"),
    ("ledger.unattributed_ratio", "ratio"),
    ("ledger.reconcile_err", "ratio"),
    ("tracing.overhead_ratio", "ratio"),
];

/// Span names whose mean self time per call is a per-layer `_ms` metric.
const TIMED_SPANS: [&str; 18] = [
    "minic.frontend",
    "openacc.directives",
    "dataflow.cfg",
    "dataflow.alg1",
    "dataflow.alg2",
    "dataflow.first_access",
    "translate.analysis",
    "translate.instrument",
    "vm.compile",
    "vm.host_ref",
    "gpusim.device",
    "verify.staging",
    "verify.overlap",
    "verify.compare",
    "exec.check",
    "exec.verify",
    "cache.load",
    "cache.store",
];

fn add(out: &mut Outcome, key: &str, v: f64) {
    *out.layers.entry(key.to_string()).or_default() += v;
}

/// Book one finished request: determinism ledger, known answer, latency.
/// Returns the request's latency (0 when it failed).
pub fn record(
    ctx: &Ctx,
    out: &mut Outcome,
    bench: &str,
    request: &str,
    key: String,
    res: Result<Done, String>,
) -> f64 {
    out.attempted += 1;
    let d = match res {
        Ok(d) => d,
        Err(e) => {
            out.fail(format!("{key}: {e}"));
            return 0.0;
        }
    };
    ctx.ledger.record(key, d.det.ledger_value());
    if ctx.tracer.on() {
        add(out, "sim.time_ms", d.det.sim_us / 1e3);
        add(out, "verify.compared_elems", d.det.compared as f64);
        add(out, "verify.flagged_kernels", d.det.flagged as f64);
    }
    match ctx.answers.check(bench, request, &d.verdict) {
        Ok(()) => out.latencies_ms.push(d.latency_ms),
        Err(e) => out.fail(e),
    }
    d.latency_ms
}

/// Probe every distinct program of `srcs` (`(label, source)`) once.
pub fn probe_all(ctx: &Ctx, out: &mut Outcome, srcs: &[(String, String)]) {
    let mut seen = BTreeSet::new();
    let mut c = ProbeCounts::default();
    for (label, src) in srcs {
        if !seen.insert(src.as_str()) {
            continue;
        }
        let id = PROBE_IDS + seen.len() as u64;
        out.programs.insert(id, label.clone());
        if let Err(e) = probe::probe(&ctx.tracer, id, src, &mut c) {
            out.fail(format!("probe {label}: {e}"));
        }
    }
    let n = c.programs.max(1) as f64;
    for (k, v) in [
        ("dataflow.cfg_nodes", c.cfg_nodes as f64 / n),
        ("vm.host_instrs", c.host_instrs as f64 / n),
        (
            "vm.host_minstr_per_s",
            c.host_instrs as f64 / 1e3 / c.host_ref_ms.max(1e-9),
        ),
        ("gpusim.kernel_launches", c.kernel_launches as f64 / n),
        ("gpusim.race_reports", c.race_reports as f64 / n),
        ("gpusim.race_ms", c.race_ms / n),
        ("runtime.coherence_ms", c.coherence_ms / n),
        ("runtime.transfer_bytes", c.transfer_bytes as f64 / n),
        ("runtime.transfer_ops", c.transfer_ops as f64 / n),
        ("runtime.issues", c.issues as f64 / n),
    ] {
        out.layers.insert(k.to_string(), v);
    }
}

/// Tracing cost where the traced path is the user's path: the measured
/// cost of recording one span, times the spans recorded, over the traced
/// requests' wall time.
pub fn span_cost_ratio(spans: usize, total_ms: f64) -> f64 {
    const N: u64 = 20_000;
    let scratch = trace::Tracer::new(true);
    let t = std::time::Instant::now();
    for i in 0..N {
        let id = scratch.begin("x", i, trace::NO_SPAN);
        scratch.end(id);
    }
    let per_span_ms = crate::stats::ms_since(t) / N as f64;
    spans as f64 * per_span_ms / total_ms.max(1e-9)
}

/// Request ids of probe roots start here, clear of any workload's ids.
pub const PROBE_IDS: u64 = 1 << 40;

/// Build the per-layer metrics from the traced run's spans, write the
/// span file and the ledger table, and run the reconciliation check.
pub fn finish(
    ctx: &Ctx,
    spans: &[Span],
    out: &mut Outcome,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let led = trace::ledger(spans);
    let requests = out.attempted.max(1) as f64;
    let mean = |name: &str| led.self_ms.get(name).map_or(0.0, |(ms, n)| ms / *n as f64);
    let mut values = std::mem::take(&mut out.layers);
    for k in [
        "sim.time_ms",
        "verify.compared_elems",
        "verify.flagged_kernels",
    ] {
        if let Some(v) = values.get_mut(k) {
            *v /= requests;
        }
    }
    for name in TIMED_SPANS {
        values.insert(format!("{name}_ms"), mean(name));
    }
    let calls = led.self_ms.get("minic.frontend").map_or(0, |(_, n)| *n);
    values.insert("minic.frontend_calls".into(), calls as f64 / requests);
    values.insert(
        "ledger.unattributed_ratio".into(),
        led.root_self_ms / led.root_wall_ms.max(1e-9),
    );
    values.insert("ledger.reconcile_err".into(), led.worst_rel_err);

    let table = ledger_table(ctx, spans, &led, out);
    print!("{table}");
    let stem = format!("{}-{}", ctx.workload, ctx.seed);
    let dir = crate::state_dir();
    std::fs::write(
        dir.join(format!("trace-{stem}.jsonl")),
        trace::spans_jsonl(spans),
    )
    .and_then(|()| std::fs::write(dir.join(format!("layers-{stem}.txt")), &table))
    .map_err(|e| format!("writing trace files: {e}"))?;
    if led.worst_rel_err > trace::RECONCILE_TOLERANCE {
        return Err(format!(
            "reconciliation: layer self times miss a root's wall time by {:.3}% (> {}%)",
            led.worst_rel_err * 100.0,
            trace::RECONCILE_TOLERANCE * 100.0
        ));
    }
    Ok(PER_LAYER
        .iter()
        .map(|(name, unit)| {
            (
                name.to_string(),
                values.get(*name).copied().unwrap_or(0.0),
                *unit,
            )
        })
        .collect())
}

/// The workload × layer table (self time by span name) and one row per
/// program (self time of its spans by layer).
fn ledger_table(ctx: &Ctx, spans: &[Span], led: &trace::LayerLedger, out: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# layer ledger: workload={} seed={} nproc={} roots={} root_wall_ms={:.1} reconcile_err={:.2e} (tolerance {})",
        ctx.workload,
        ctx.seed,
        crate::stats::nproc(),
        led.roots,
        led.root_wall_ms,
        led.worst_rel_err,
        trace::RECONCILE_TOLERANCE
    );
    let _ = writeln!(
        s,
        "{:<14} {:<24} {:>8} {:>12} {:>10} {:>7}",
        "workload", "layer", "calls", "self_ms", "ms/call", "share"
    );
    for (name, (ms, n)) in &led.self_ms {
        let _ = writeln!(
            s,
            "{:<14} {:<24} {:>8} {:>12.2} {:>10.3} {:>6.1}%",
            ctx.workload,
            name,
            n,
            ms,
            ms / *n as f64,
            100.0 * ms / led.root_wall_ms.max(1e-9)
        );
    }
    // Per-program rows: self time of every span of the program's requests
    // and probes, by layer.
    let selfs = trace::self_times(spans);
    let mut rows: BTreeMap<&str, BTreeMap<&str, f64>> = BTreeMap::new();
    for (sp, ns) in spans.iter().zip(&selfs) {
        if let Some(p) = out.programs.get(&sp.request) {
            *rows
                .entry(p.as_str())
                .or_default()
                .entry(sp.name)
                .or_default() += *ns as f64 / 1e6;
        }
    }
    let cols: BTreeSet<&str> = rows.values().flat_map(|r| r.keys().copied()).collect();
    let _ = write!(s, "{:<14}", "program");
    for c in &cols {
        let _ = write!(s, " {c:>21}");
    }
    let _ = writeln!(s);
    for (p, r) in &rows {
        let _ = write!(s, "{p:<14}");
        for c in &cols {
            let _ = write!(s, " {:>21.2}", r.get(c).copied().unwrap_or(0.0));
        }
        let _ = writeln!(s);
    }
    s
}
