//! The three developer requests of `verify-large` and `edit-small`, each
//! on two paths:
//!
//! * **untraced** — the user's path: `api::handle` for `check`/`verify`,
//!   and `strip_privatization` + `Session::verify` for the Table 2 fault.
//!   Only this call is timed; the verdict and the deterministic counters
//!   are then read back through cache hits on the same session.
//! * **traced** — the same work split into the `Session` stage calls the
//!   request is made of, each inside a span, plus the `verify:*` phase
//!   spans the executor writes to a stage journal.

use crate::answers::{self, Verdict};
use crate::stats::ms_since;
use crate::trace::{Tracer, NO_SPAN};
use openarc_core::api::{handle, Action, Request};
use openarc_core::exec::{ExecMode, ExecOptions, RunResult, VerifyOptions};
use openarc_core::pipeline::{FrontendArtifact, Session};
use openarc_core::strip_privatization;
use openarc_core::translate::TranslateOptions;
use openarc_core::verify::VerificationReport;
use openarc_trace::{EventKind, Journal};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// §III-B memory-transfer check of the Unoptimized variant.
    Check,
    /// §III-A kernel verification of the Optimized variant.
    Verify,
    /// Table 2 fault: privatization stripped, automatic
    /// privatization/reduction off, then verified.
    Fault,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Check => "check",
            Kind::Verify => "verify",
            Kind::Fault => "fault",
        }
    }
}

/// Request label of the known-answer table and the ledger keys.
pub fn label(kind: Kind, v: openarc_suite::Variant) -> String {
    format!("{}-{}", kind.label(), v.name())
}

/// Deterministic observables of one request (the ledger value).
#[derive(Debug, Clone, Default)]
pub struct Det {
    pub sim_us: f64,
    pub launches: u64,
    pub host_instrs: u64,
    pub bytes: u64,
    pub ops: u64,
    pub compared: u64,
    pub issues: u64,
    pub races: u64,
    pub flagged: u64,
}

impl Det {
    pub fn ledger_value(&self) -> String {
        format!(
            "sim={:016x} launches={} instrs={} bytes={} ops={} compared={} issues={} races={} flagged={}",
            self.sim_us.to_bits(),
            self.launches,
            self.host_instrs,
            self.bytes,
            self.ops,
            self.compared,
            self.issues,
            self.races,
            self.flagged
        )
    }

    fn of_check(r: &RunResult) -> Det {
        Det {
            sim_us: r.sim_time_us(),
            launches: r.kernel_launches,
            host_instrs: r.host_instrs,
            bytes: r.machine.stats.total_bytes(),
            ops: r.machine.stats.total_count(),
            issues: r.machine.report.issues.len() as u64,
            ..Det::default()
        }
    }

    fn of_verify(base: &RunResult, run: &RunResult, rep: &VerificationReport) -> Det {
        Det {
            sim_us: run.sim_time_us(),
            launches: run.kernel_launches,
            host_instrs: base.host_instrs,
            bytes: run.machine.stats.total_bytes(),
            ops: run.machine.stats.total_count(),
            compared: rep.kernels.iter().map(|k| k.compared_elems).sum(),
            races: rep.races.len() as u64,
            flagged: rep.kernels.iter().filter(|k| k.flagged()).count() as u64,
            ..Det::default()
        }
    }
}

/// One finished request.
pub struct Done {
    pub latency_ms: f64,
    pub verdict: Verdict,
    pub det: Det,
}

pub fn topts(kind: Kind) -> TranslateOptions {
    match kind {
        Kind::Check => TranslateOptions {
            instrument: true,
            ..Default::default()
        },
        Kind::Verify => TranslateOptions::default(),
        Kind::Fault => TranslateOptions {
            auto_privatize: false,
            auto_reduction: false,
            ..Default::default()
        },
    }
}

pub fn check_eopts() -> ExecOptions {
    ExecOptions {
        check_transfers: true,
        ..Default::default()
    }
}

/// The CPU-baseline leg `Session::verify` runs (same fingerprint, so the
/// traced path's explicit call and the report's leg share one run).
fn baseline_eopts() -> ExecOptions {
    ExecOptions {
        mode: ExecMode::CpuOnly,
        race_detect: false,
        ..Default::default()
    }
}

fn verify_eopts(stage_journal: Journal) -> ExecOptions {
    ExecOptions {
        mode: ExecMode::Verify(VerifyOptions::default()),
        stage_journal,
        ..Default::default()
    }
}

fn strip(session: &Session, fe: &FrontendArtifact) -> Result<Arc<FrontendArtifact>, String> {
    let (stripped, _) = strip_privatization(&fe.program).map_err(|d| d.to_string())?;
    Ok(session.frontend_program(stripped, fe.sema.clone()))
}

fn flagged_exit(rep: &VerificationReport) -> i32 {
    i32::from(rep.kernels.iter().any(|k| k.flagged()))
}

/// Verdict and counters of a finished verify-kind request, read back
/// through cache hits.
fn verify_done(
    session: &Session,
    fe: &FrontendArtifact,
    kind: Kind,
    exit: i32,
    latency_ms: f64,
) -> Result<Done, String> {
    let (tra, rep) = session
        .verify(fe, &topts(kind), VerifyOptions::default())
        .map_err(|e| e.to_string())?;
    let base = session
        .execute(&tra, &baseline_eopts())
        .map_err(|e| e.to_string())?;
    let run = session
        .execute(&tra, &verify_eopts(Journal::disabled()))
        .map_err(|e| e.to_string())?;
    Ok(Done {
        latency_ms,
        verdict: answers::of_verify(exit, &rep),
        det: Det::of_verify(&base, &run, &rep),
    })
}

/// The user's path; see the module docs.
pub fn untraced(session: &Session, kind: Kind, src: &str) -> Result<Done, String> {
    let t = Instant::now();
    match kind {
        Kind::Check => {
            let resp =
                handle(session, &Request::new(Action::Check, src)).map_err(|e| e.to_string())?;
            let latency_ms = ms_since(t);
            let fe = session.frontend(src).map_err(|e| e.to_string())?;
            let tra = session
                .translate(&fe, &topts(kind))
                .map_err(|e| e.to_string())?;
            let r = session
                .execute(&tra, &check_eopts())
                .map_err(|e| e.to_string())?;
            Ok(Done {
                latency_ms,
                verdict: answers::of_check(resp.exit_code, &r),
                det: Det::of_check(&r),
            })
        }
        Kind::Verify => {
            let resp =
                handle(session, &Request::new(Action::Verify, src)).map_err(|e| e.to_string())?;
            let latency_ms = ms_since(t);
            let fe = session.frontend(src).map_err(|e| e.to_string())?;
            verify_done(session, &fe, kind, resp.exit_code, latency_ms)
        }
        Kind::Fault => {
            let fe = session.frontend(src).map_err(|e| e.to_string())?;
            let fe = strip(session, &fe)?;
            let (_, rep) = session
                .verify(&fe, &topts(kind), VerifyOptions::default())
                .map_err(|e| e.to_string())?;
            let latency_ms = ms_since(t);
            verify_done(session, &fe, kind, flagged_exit(&rep), latency_ms)
        }
    }
}

/// Map an executor phase label to its per-layer span name.
fn phase_span(label: &str) -> Option<&'static str> {
    Some(match label {
        "verify:staging" => "verify.staging",
        "verify:overlap" => "verify.overlap",
        "verify:compare" => "verify.compare",
        _ => return None,
    })
}

/// The traced path; see the module docs. Span `request` is the root.
pub fn traced(
    session: &Session,
    kind: Kind,
    src: &str,
    tr: &Tracer,
    req: u64,
) -> Result<Done, String> {
    let t = Instant::now();
    let root = tr.begin("request", req, NO_SPAN);
    let mut fe = tr
        .span("minic.frontend", req, root, |_| session.frontend(src))
        .map_err(|e| e.to_string())?;
    if kind == Kind::Fault {
        fe = tr.span("faults.strip", req, root, |_| strip(session, &fe))?;
    }
    tr.span("openacc.directives", req, root, |_| session.directives(&fe))
        .map_err(|e| e.to_string())?;
    let topts = topts(kind);
    let tname = if topts.instrument {
        "translate.instrument"
    } else {
        "translate.analysis"
    };
    let tra = tr
        .span(tname, req, root, |_| session.translate(&fe, &topts))
        .map_err(|e| e.to_string())?;
    if kind == Kind::Check {
        let r = tr
            .span("exec.check", req, root, |_| {
                session.execute(&tra, &check_eopts())
            })
            .map_err(|e| e.to_string())?;
        tr.end(root);
        return Ok(Done {
            latency_ms: ms_since(t),
            verdict: answers::of_check(i32::from(r.machine.report.has_errors()), &r),
            det: Det::of_check(&r),
        });
    }
    tr.span("vm.host_ref", req, root, |_| {
        session.execute(&tra, &baseline_eopts())
    })
    .map_err(|e| e.to_string())?;
    let phases = Journal::enabled();
    tr.span("exec.verify", req, root, |id| {
        let t0 = tr.now_ns();
        let r = session.execute(&tra, &verify_eopts(phases.clone()));
        for ev in phases.drain() {
            if let EventKind::Stage { stage, .. } = ev.kind {
                if let Some(name) = phase_span(stage) {
                    let s = t0 + (ev.ts_us * 1e3) as u64;
                    tr.push(name, req, id, s, s + (ev.dur_us * 1e3) as u64);
                }
            }
        }
        r
    })
    .map_err(|e| e.to_string())?;
    let (_, rep) = tr
        .span("core.verify_report", req, root, |_| {
            session.verify(&fe, &topts, VerifyOptions::default())
        })
        .map_err(|e| e.to_string())?;
    tr.end(root);
    let latency_ms = ms_since(t);
    verify_done(session, &fe, kind, flagged_exit(&rep), latency_ms)
}
