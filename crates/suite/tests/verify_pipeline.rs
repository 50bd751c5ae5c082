//! Differential test for the pipelined verified-launch path: on every
//! suite benchmark, the three-stage pipeline (staged demotion copies,
//! overlapped reference, fanned-out comparison) must be observationally
//! **bit-identical** to the fully sequential oracle
//! (`overlap_reference = false`) — same verdicts, same journal, same
//! simulated clock — at every comparison job count.

use openarc_core::exec::{execute, ExecMode, ExecOptions, RunResult, VerifyOptions};
use openarc_core::pipeline::Session;
use openarc_core::translate::TranslateOptions;
use openarc_gpusim::TimeCategory;
use openarc_suite::{all, translate_variant, Scale, Variant};
use openarc_trace::{Journal, TraceEvent};

fn run_verify(
    tr: &openarc_core::translate::Translated,
    name: &str,
    overlap: bool,
    jobs: usize,
) -> (RunResult, Vec<TraceEvent>) {
    let journal = Journal::enabled();
    let eopts = ExecOptions {
        mode: ExecMode::Verify(VerifyOptions {
            overlap_reference: overlap,
            compare_jobs: jobs,
            ..Default::default()
        }),
        journal: journal.clone(),
        ..Default::default()
    };
    let r =
        execute(tr, &eopts).unwrap_or_else(|e| panic!("{name} overlap={overlap} jobs={jobs}: {e}"));
    (r, journal.drain())
}

/// Every benchmark, every fan-out in {1, 3, 8}: verdict counts, flagged
/// kernels, journal event streams, and clock state match the sequential
/// oracle bit-for-bit.
#[test]
fn pipelined_verify_matches_sequential_oracle_on_all_benchmarks() {
    let session = Session::default();
    for b in all(Scale::default()) {
        let tra = translate_variant(
            &session,
            &b,
            Variant::Optimized,
            &TranslateOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let tr = &tra.tr;
        let (oracle, oracle_events) = run_verify(tr, b.name, false, 1);
        assert!(
            !oracle.verify.is_empty(),
            "{}: no kernels were verified",
            b.name
        );
        for jobs in [1usize, 3, 8] {
            let (r, events) = run_verify(tr, b.name, true, jobs);
            let ctx = format!("{} jobs={jobs}", b.name);
            assert_eq!(r.verify.len(), oracle.verify.len(), "{ctx}: kernel count");
            for (v, o) in r.verify.iter().zip(&oracle.verify) {
                assert_eq!(v.kernel, o.kernel, "{ctx}");
                assert_eq!(v.launches, o.launches, "{ctx}: {}", v.kernel);
                assert_eq!(v.failed_launches, o.failed_launches, "{ctx}: {}", v.kernel);
                assert_eq!(v.compared_elems, o.compared_elems, "{ctx}: {}", v.kernel);
                assert_eq!(
                    v.mismatched_elems, o.mismatched_elems,
                    "{ctx}: {}",
                    v.kernel
                );
                assert_eq!(
                    v.max_abs_err.to_bits(),
                    o.max_abs_err.to_bits(),
                    "{ctx}: {} max_abs_err",
                    v.kernel
                );
                assert_eq!(
                    v.assertion_failures, o.assertion_failures,
                    "{ctx}: {}",
                    v.kernel
                );
                assert_eq!(v.flagged(), o.flagged(), "{ctx}: {}", v.kernel);
            }
            assert_eq!(
                r.sim_time_us().to_bits(),
                oracle.sim_time_us().to_bits(),
                "{ctx}: sim time"
            );
            for c in TimeCategory::ALL {
                assert_eq!(
                    r.machine.clock.breakdown.get(c).to_bits(),
                    oracle.machine.clock.breakdown.get(c).to_bits(),
                    "{ctx}: breakdown {c:?}"
                );
            }
            assert_eq!(events, oracle_events, "{ctx}: journal diverged");
        }
    }
}
