//! `fuzz-campaign`: `core::fuzz::run_campaign` with jobs=1 and a fixed
//! program budget, the committed regression corpus (`tests/corpus/*.c`)
//! as seeds and the 12 reduced benchmarks as the coverage baseline.
//! Campaigns run back to back in whole cycles over 8 campaign seeds,
//! in an order the run's seed rotates. It is the only workload that drives the fuzzer's
//! generator, sync model and threefold oracle, and the multi-device
//! `exec::dag` matrix on hundreds of tiny launches, so an execution
//! change that slows tiny launches shows here.

use crate::stats::percentile;
use crate::trace::NO_SPAN;
use crate::{Ctx, Outcome, PassStart};
use openarc_core::fuzz::{run_campaign, CampaignConfig, CampaignReport};
use openarc_suite::Scale;
use std::path::Path;
use std::time::{Duration, Instant};

/// Generated/mutated programs per campaign.
const BUDGET: usize = 120;
const SETUP_REPS: usize = 3;
/// Campaign seeds per cycle. A campaign's cost varies up to twofold with
/// its seed, so a run does whole cycles over the same 8 campaigns and the
/// run's seed only rotates their order; every run then measures the same
/// work.
const CYCLE: u64 = 8;
/// The regression corpus, relative to the checkout root the benchmark
/// runs from.
const CORPUS: &str = "tests/corpus";

fn config(seed: u64, max_programs: usize, seeds: &[String], baseline: &[String]) -> CampaignConfig {
    CampaignConfig {
        seed,
        max_programs,
        jobs: 1,
        seeds: seeds.to_vec(),
        baseline: baseline.to_vec(),
        ..CampaignConfig::default()
    }
}

/// The corpus seeds, in sorted path order (as `openarc fuzz --corpus`).
fn corpus() -> Result<Vec<String>, String> {
    let dir = Path::new(CORPUS);
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

fn fingerprint(r: &CampaignReport) -> String {
    format!(
        "fp={:016x} programs={} rejected={} racy={} corpus={} new_atoms={} findings={}",
        r.fingerprint,
        r.programs,
        r.rejected,
        r.racy,
        r.corpus,
        r.new_atoms().len(),
        r.findings.len()
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let seeds = match corpus() {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("corpus: {e}"));
            return out;
        }
    };
    let baseline: Vec<String> = openarc_suite::reduced_corpus(Scale { n: 8, iters: 2 })
        .into_iter()
        .map(|(_, src)| src)
        .collect();
    // Set-up: a replay-only campaign (baseline and seeds through the
    // oracle, no generation), the fixed cost every campaign starts with.
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let r = run_campaign(&config(ctx.seed, 0, &seeds, &baseline));
        out.setup_s.push(t.elapsed().as_secs_f64());
        ctx.ledger
            .record(format!("replay/{}", ctx.seed), fingerprint(&r));
    }

    let budget = Duration::from_secs_f64(ctx.seconds);
    let tr = &ctx.tracer;
    let t0 = Instant::now();
    let (mut round, mut programs, mut rejected, mut racy) = (0u64, 0usize, 0usize, 0usize);
    let (mut corpus_sum, mut atoms_sum, mut exec_us) = (0usize, 0usize, Vec::new());
    // A pass is one cycle: campaigns differ in cost, so the timing
    // figures are taken over whole cycles only.
    let mut pass = (PassStart::now(), 0, 0);
    while round == 0 || round % CYCLE != 0 || t0.elapsed() < budget {
        let seed = 1 + (ctx.seed.wrapping_add(round)) % CYCLE;
        round += 1;
        let root = tr.begin("request", round, NO_SPAN);
        let r = tr.span("fuzz.campaign", round, root, |_| {
            run_campaign(&config(seed, BUDGET, &seeds, &baseline))
        });
        tr.end(root);
        pass.1 += r.programs;
        pass.2 += r.exec_us.len();
        if round % CYCLE == 0 {
            let (start, units, samples) = std::mem::replace(&mut pass, (PassStart::now(), 0, 0));
            out.passes.push(start.finish(units as f64, samples));
        }
        ctx.ledger
            .record(format!("campaign/{seed}/{BUDGET}"), fingerprint(&r));
        for f in &r.findings {
            out.fail(format!(
                "fuzz finding (seed {seed}, {:?} under {}): {}\n{}",
                f.kind, f.config, f.detail, f.minimized
            ));
        }
        out.attempted += r.programs as u64;
        programs += r.programs;
        rejected += r.rejected;
        racy += r.racy;
        corpus_sum += r.corpus;
        atoms_sum += r.new_atoms().len();
        // Per-program time to the oracle's verdict.
        out.latencies_ms.extend(r.exec_us.iter().map(|us| us / 1e3));
        exec_us.extend_from_slice(&r.exec_us);
    }
    if tr.on() {
        let n = round as f64;
        let p = programs.max(1) as f64;
        for (k, v) in [
            ("fuzz.exec_p50_us", percentile(&exec_us, 0.5)),
            ("fuzz.rejected_ratio", rejected as f64 / p),
            ("fuzz.racy_ratio", racy as f64 / p),
            ("fuzz.corpus", corpus_sum as f64 / n),
            ("fuzz.new_atoms", atoms_sum as f64 / n),
            ("fuzz.findings", out.failures.len() as f64),
        ] {
            out.layers.insert(k.to_string(), v);
        }
        let total_ms = t0.elapsed().as_secs_f64() * 1e3;
        out.layers.insert(
            "tracing.overhead_ratio".into(),
            crate::layers::span_cost_ratio(2 * round as usize, total_ms),
        );
        let srcs: Vec<(String, String)> = openarc_suite::reduced_corpus(Scale { n: 8, iters: 2 })
            .into_iter()
            .map(|(name, src)| (name.to_string(), src))
            .collect();
        crate::layers::probe_all(ctx, &mut out, &srcs);
    }
    out
}
