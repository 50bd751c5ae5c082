//! Batch-mode sweep driver: fans benchmark work across cores.
//!
//! Every figure/table of the evaluation walks the same 12-benchmark
//! matrix, and each cell is an independent deterministic simulation — an
//! embarrassingly parallel workload. A [`Sweep`] couples a problem
//! [`Scale`], a worker count, and one shared pipeline
//! [`Session`] so that
//!
//! * cells run concurrently on [`openarc_core::sched::run_tasks`] workers,
//! * repeated compilations of the same variant hit the session's artifact
//!   cache regardless of which worker asks, and
//! * results and journals come back in **task order**, making parallel
//!   output byte-identical to a sequential run.

use openarc_core::exec::ExecOptions;
use openarc_core::pipeline::Session;
use openarc_core::sched::run_tasks;
use openarc_core::translate::TranslateOptions;
use openarc_suite::{all, run_variant, Benchmark, Scale, Variant};
use openarc_trace::json::Json;
use openarc_trace::{merge_parts, Journal, TraceEvent};

/// One batch sweep: scale × worker count × shared artifact cache.
pub struct Sweep {
    /// Problem scale every cell runs at.
    pub scale: Scale,
    /// Worker threads (`1` = sequential on the calling thread).
    pub jobs: usize,
    /// Shared stage cache; thread-safe, so all workers use it directly.
    pub session: Session,
}

impl Sweep {
    /// Sweep with a fresh in-memory session.
    pub fn new(scale: Scale, jobs: usize) -> Sweep {
        Sweep::with_session(scale, jobs, Session::builder().build())
    }

    /// Sweep over a caller-configured session (e.g. one carrying a disk
    /// cache from [`crate::args::BenchArgs::session`]).
    pub fn with_session(scale: Scale, jobs: usize, session: Session) -> Sweep {
        Sweep {
            scale,
            jobs,
            session,
        }
    }

    /// Sequential sweep (one worker).
    pub fn sequential(scale: Scale) -> Sweep {
        Sweep::new(scale, 1)
    }

    /// Run `f` over all twelve benchmarks, fanned across the sweep's
    /// workers; results return in benchmark order. The first error wins.
    pub fn map_benchmarks<T, F>(&self, f: F) -> Result<Vec<T>, String>
    where
        T: Send,
        F: Fn(&Benchmark) -> Result<T, String> + Sync,
    {
        let benches = all(self.scale);
        let f = &f;
        let tasks: Vec<_> = benches.iter().map(|b| move || f(b)).collect();
        run_tasks(self.jobs, tasks).into_iter().collect()
    }

    /// Run `f` over every (benchmark, variant) cell of the matrix — 36
    /// fine-grained tasks instead of 12 benchmark-sized ones, so one
    /// expensive benchmark's variants spread across workers instead of
    /// serializing on whichever worker drew it. Results return in
    /// (benchmark, variant) order. The first error wins.
    pub fn map_cells<T, F>(&self, f: F) -> Result<Vec<T>, String>
    where
        T: Send,
        F: Fn(&Benchmark, Variant) -> Result<T, String> + Sync,
    {
        let benches = all(self.scale);
        let f = &f;
        let mut tasks = Vec::with_capacity(benches.len() * Variant::ALL.len());
        for b in &benches {
            for v in Variant::ALL {
                tasks.push(move || f(b, v));
            }
        }
        run_tasks(self.jobs, tasks).into_iter().collect()
    }
}

/// One cell of the full benchmark × variant matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixRow {
    /// Benchmark name.
    pub bench: String,
    /// Variant name.
    pub variant: &'static str,
    /// Simulated time, µs.
    pub sim_us: f64,
    /// Bytes moved between host and device.
    pub transferred_bytes: u64,
    /// Kernel launches.
    pub kernel_launches: u64,
    /// Journal events the run emitted.
    pub events: usize,
}

impl MatrixRow {
    /// JSON object for one matrix cell.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", Json::from(self.bench.as_str())),
            ("variant", Json::from(self.variant)),
            ("sim_us", Json::from(self.sim_us)),
            ("transferred_bytes", Json::from(self.transferred_bytes)),
            ("kernel_launches", Json::from(self.kernel_launches)),
            ("events", Json::from(self.events)),
        ])
    }
}

impl Sweep {
    /// Run the full 12-benchmark × 3-variant matrix as 36 independent
    /// cell tasks, journaling every run into a per-cell buffer. Returns
    /// the 36 rows plus the merged event stream; both are in
    /// (benchmark, variant) order — deterministic and bit-identical for
    /// any `jobs` value.
    pub fn matrix(&self) -> Result<(Vec<MatrixRow>, Vec<TraceEvent>), String> {
        let cells = self.map_cells(|b, v| {
            // A private journal per cell: workers never contend on one
            // buffer, and the merge below fixes the global order.
            let journal = Journal::enabled();
            let eopts = ExecOptions {
                race_detect: false,
                journal: journal.clone(),
                ..Default::default()
            };
            let (_, r) = run_variant(&self.session, b, v, &TranslateOptions::default(), &eopts)?;
            // `drain` (not `snapshot`): the cell owns its buffer, so the
            // merge below moves events instead of copying them.
            let events = journal.drain();
            Ok((
                MatrixRow {
                    bench: b.name.to_string(),
                    variant: v.name(),
                    sim_us: r.sim_time_us(),
                    transferred_bytes: r.machine.stats.total_bytes(),
                    kernel_launches: r.kernel_launches,
                    events: events.len(),
                },
                events,
            ))
        })?;
        let mut rows = Vec::with_capacity(cells.len());
        let mut parts = Vec::with_capacity(cells.len());
        for (row, evs) in cells {
            rows.push(row);
            parts.push(evs);
        }
        Ok((rows, merge_parts(parts)))
    }
}

/// Unwrap an experiment result in a bin, printing the error to stderr and
/// exiting with status `1` on failure.
pub fn exit_on_error<T>(bin: &str, r: Result<T, String>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{bin}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_36_cells_and_journals() {
        let sw = Sweep::sequential(Scale::default());
        let (rows, events) = sw.matrix().unwrap();
        assert_eq!(rows.len(), 36);
        assert!(!events.is_empty());
        assert_eq!(rows.iter().map(|r| r.events).sum::<usize>(), events.len());
        // Task order: benchmarks alphabetical (suite order), variants in
        // Variant::ALL order within each.
        assert_eq!(rows[0].bench, "BACKPROP");
        assert_eq!(rows[0].variant, "naive");
        assert_eq!(rows[2].variant, "optimized");
    }
}
