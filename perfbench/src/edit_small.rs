//! `edit-small`: debugging at a reduced input size, where every edit is a
//! new source.
//!
//! Each pass regenerates the 36 suite programs (12 benchmarks × 3
//! variants) at seeded sizes (n in 8..=16, iters in {1, 2}) and marks each
//! as a fresh edit (a trailing comment, so every stage cache misses while
//! the program's meaning and verdict stay put). Each source gets `check`
//! then `verify` on the pass's memory-only `Session`. Compile layers
//! dominate here, so dataflow and translation changes show on this
//! workload and execution-engine changes should not.

use crate::requests::{self, Kind};
use crate::{Ctx, Outcome, PassStart};
use openarc_core::fuzz::FuzzRng;
use openarc_core::pipeline::Session;
use openarc_suite::{Benchmark, Scale, Variant};
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 5;

/// The suite's benchmark constructors, so each program gets its own size.
pub const CTORS: [fn(Scale) -> Benchmark; 12] = [
    openarc_suite::backprop::benchmark,
    openarc_suite::bfs::benchmark,
    openarc_suite::cfd::benchmark,
    openarc_suite::cg::benchmark,
    openarc_suite::ep::benchmark,
    openarc_suite::hotspot::benchmark,
    openarc_suite::jacobi::benchmark,
    openarc_suite::kmeans::benchmark,
    openarc_suite::lud::benchmark,
    openarc_suite::nw::benchmark,
    openarc_suite::spmul::benchmark,
    openarc_suite::srad::benchmark,
];

/// One edited program of a pass.
struct Edit {
    bench: &'static str,
    variant: Variant,
    scale: Scale,
    src: String,
}

/// The `pass`-th round of edits: 36 programs at seeded sizes, in seeded
/// order.
fn edits(rng: &mut FuzzRng, pass: usize) -> Vec<Edit> {
    let mut out = Vec::new();
    for ctor in CTORS {
        for variant in Variant::ALL {
            let scale = Scale {
                n: 8 + rng.below(9),
                iters: 1 + rng.below(2),
            };
            let b = ctor(scale);
            let src = format!("{}\n// edit {pass}.{}\n", b.source(variant), out.len());
            out.push(Edit {
                bench: b.name,
                variant,
                scale,
                src,
            });
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// Set-up: generate one round of edits and run it once, untimed, to warm
/// every request path. Its own random stream leaves the timed rounds as
/// they are.
fn setup(seed: u64) -> Result<(), String> {
    let session = Session::builder().build();
    for e in edits(&mut FuzzRng::new(!seed), 0) {
        for kind in [Kind::Check, Kind::Verify] {
            requests::untraced(&session, kind, &e.src)?;
        }
    }
    Ok(())
}

/// Run one pass's edits; returns the summed request latency.
fn pass(ctx: &Ctx, out: &mut Outcome, edits: &[Edit], traced: bool, req: &mut u64) -> f64 {
    let session = Session::builder().build();
    let mut total_ms = 0.0;
    for e in edits {
        for kind in [Kind::Check, Kind::Verify] {
            *req += 1;
            if traced {
                out.programs.insert(*req, e.bench.to_string());
            }
            let res = if traced {
                requests::traced(&session, kind, &e.src, &ctx.tracer, *req)
            } else {
                requests::untraced(&session, kind, &e.src)
            };
            let label = requests::label(kind, e.variant);
            let key = format!("{}/{}x{}/{label}", e.bench, e.scale.n, e.scale.iters);
            total_ms += crate::layers::record(ctx, out, e.bench, &label, key, res);
        }
    }
    total_ms
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        if let Err(e) = setup(ctx.seed) {
            out.fail(format!("setup: {e}"));
            return out;
        }
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut rng = FuzzRng::new(ctx.seed);
    let budget = Duration::from_secs_f64(ctx.seconds);
    let traced = ctx.tracer.on();
    let t0 = Instant::now();
    let (mut passes, mut req) = (0, 0u64);
    let (mut plain_ms, mut traced_ms, mut source_bytes) = (0.0, 0.0, 0usize);
    let mut first = Vec::new();
    while passes == 0 || t0.elapsed() < budget {
        let (start, before) = (PassStart::now(), out.latencies_ms.len());
        let round = edits(&mut rng, passes);
        if traced {
            // The untraced path on its own session, to measure the traced
            // path's overhead on identical work.
            let mut scratch = Outcome::default();
            plain_ms += pass(ctx, &mut scratch, &round, false, &mut 0);
            out.failures.extend(scratch.failures);
            source_bytes += round.iter().map(|e| 2 * e.src.len()).sum::<usize>();
        }
        traced_ms += pass(ctx, &mut out, &round, traced, &mut req);
        if passes == 0 {
            first = round
                .into_iter()
                .map(|e| (e.bench.to_string(), e.src))
                .collect();
        }
        passes += 1;
        let samples = out.latencies_ms.len() - before;
        out.passes
            .push(start.finish((2 * CTORS.len() * Variant::ALL.len()) as f64, samples));
    }
    if traced {
        out.layers.insert(
            "tracing.overhead_ratio".into(),
            traced_ms / plain_ms.max(1e-9) - 1.0,
        );
        out.layers.insert(
            "minic.source_kb".into(),
            source_bytes as f64 / 1024.0 / out.attempted.max(1) as f64,
        );
        crate::layers::probe_all(ctx, &mut out, &first);
    }
    out
}
