//! `verify-large`: one developer debugging paper-size programs.
//!
//! The 12 suite benchmarks at n=64, iters=8, each pass in a seeded order,
//! each benchmark on a fresh memory-only `Session` with three requests:
//! `check` of the Unoptimized variant, `verify` of the Optimized variant
//! and the Table 2 fault (privatization stripped, then verified).
//! Simulated execution dominates here, so changes to the execution engine
//! and the race detector show on this workload.

use crate::requests::{self, Kind};
use crate::{Ctx, Outcome, PassStart};
use openarc_core::fuzz::FuzzRng;
use openarc_core::pipeline::Session;
use openarc_suite::{Benchmark, Scale, Variant};
use std::time::{Duration, Instant};

const SCALE: Scale = Scale { n: 64, iters: 8 };
const SETUP_REPS: usize = 5;
/// Whole passes keep every run's latency sample the same multiset of
/// requests. Four passes let the three cleanest (see `timing_passes`)
/// give 108 samples, more than ten beyond p90.
const MIN_PASSES: usize = 4;

/// The three requests of each benchmark, in order.
const REQUESTS: [(Kind, Variant); 3] = [
    (Kind::Check, Variant::Unoptimized),
    (Kind::Verify, Variant::Optimized),
    (Kind::Fault, Variant::Optimized),
];

/// Set-up: warm every request path once on the smallest suite size, then
/// generate the timed sources.
fn setup() -> Result<Vec<Benchmark>, String> {
    for b in openarc_suite::all(Scale { n: 8, iters: 1 }) {
        let session = Session::builder().build();
        for (kind, v) in REQUESTS {
            requests::untraced(&session, kind, b.source(v))?;
        }
    }
    Ok(openarc_suite::all(SCALE))
}

/// Run one benchmark's three requests on a fresh session.
fn one_benchmark(ctx: &Ctx, out: &mut Outcome, b: &Benchmark, traced: bool, req: &mut u64) -> f64 {
    let session = Session::builder().build();
    let mut total_ms = 0.0;
    for (kind, v) in REQUESTS {
        *req += 1;
        if traced {
            out.programs.insert(*req, b.name.to_string());
        }
        let res = if traced {
            requests::traced(&session, kind, b.source(v), &ctx.tracer, *req)
        } else {
            requests::untraced(&session, kind, b.source(v))
        };
        let key = format!(
            "{}/{}x{}/{}",
            b.name,
            SCALE.n,
            SCALE.iters,
            requests::label(kind, v)
        );
        total_ms += crate::layers::record(ctx, out, b.name, &requests::label(kind, v), key, res);
    }
    total_ms
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut benches = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        match setup() {
            Ok(b) => benches = b,
            Err(e) => {
                out.fail(format!("setup: {e}"));
                return out;
            }
        }
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut rng = FuzzRng::new(ctx.seed);
    let budget = Duration::from_secs_f64(ctx.seconds);
    let traced = ctx.tracer.on();
    let t0 = Instant::now();
    let mut req = 0u64;
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    let min_passes = if traced { 1 } else { MIN_PASSES };
    while out.passes.len() < min_passes || t0.elapsed() < budget {
        let (start, before) = (PassStart::now(), out.latencies_ms.len());
        let mut order: Vec<usize> = (0..benches.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for &i in &order {
            if traced {
                // Interleave the untraced path on its own fresh session
                // to measure the traced path's overhead.
                let mut scratch = Outcome::default();
                plain_ms += one_benchmark(ctx, &mut scratch, &benches[i], false, &mut 0);
                out.failures.extend(scratch.failures);
            }
            let ms = one_benchmark(ctx, &mut out, &benches[i], traced, &mut req);
            traced_ms += ms;
        }
        let samples = out.latencies_ms.len() - before;
        out.passes
            .push(start.finish((3 * benches.len()) as f64, samples));
    }
    if traced {
        out.layers.insert(
            "tracing.overhead_ratio".into(),
            traced_ms / plain_ms.max(1e-9) - 1.0,
        );
        let per_benchmark: usize = benches
            .iter()
            .map(|b| b.source(Variant::Unoptimized).len() + 2 * b.source(Variant::Optimized).len())
            .sum();
        out.layers.insert(
            "minic.source_kb".into(),
            per_benchmark as f64 / 1024.0 / (3 * benches.len()) as f64,
        );
        let mut srcs = Vec::new();
        for b in &benches {
            srcs.push((
                b.name.to_string(),
                b.source(Variant::Unoptimized).to_string(),
            ));
            srcs.push((b.name.to_string(), b.source(Variant::Optimized).to_string()));
        }
        crate::layers::probe_all(ctx, &mut out, &srcs);
    }
    out
}
