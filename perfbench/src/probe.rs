//! Layer probes for the traced run: calls into the layers a request's
//! stage calls hide (the dataflow passes instrumentation runs, the VM
//! compiler, and the execute variants that separate device simulation,
//! race detection and coherence tracking). Each distinct program is
//! probed once, under a `probe` root span.

use crate::trace::{Tracer, NO_SPAN};
use openarc_core::exec::{execute, ExecMode, ExecOptions};
use openarc_core::translate::{translate, TranslateOptions};
use openarc_dataflow::{dead_live_compute, first_access, last_write, AccessSel, Cfg, Side};
use openarc_minic::ast::{walk_stmts, Func, Item, StmtKind};
use openarc_minic::sema::FuncInfo;
use openarc_minic::{Program, Sema};
use std::time::Instant;

/// Deterministic counts the probes collect.
#[derive(Debug, Default, Clone)]
pub struct ProbeCounts {
    pub programs: u64,
    pub cfg_nodes: u64,
    pub kernel_launches: u64,
    pub race_reports: u64,
    pub transfer_bytes: u64,
    pub transfer_ops: u64,
    pub issues: u64,
    pub host_instrs: u64,
    /// Wall time of the CPU-only reference run, ms (for instructions/s).
    pub host_ref_ms: f64,
    /// Execute-variant differences, ms: race detection on minus off, and
    /// coherence tracking on minus off.
    pub race_ms: f64,
    pub coherence_ms: f64,
}

/// The kernel module's sema is built inside `translate`; rebuild the same
/// tables here so the VM compiler can be called on the kernel program.
fn kernel_sema(kernels: &Program) -> Sema {
    let mut sema = Sema::default();
    for item in &kernels.items {
        if let Item::Func(f) = item {
            sema.funcs.insert(f.name.clone(), func_info(f));
        }
    }
    sema
}

fn func_info(f: &Func) -> FuncInfo {
    let mut locals: std::collections::HashMap<_, _> = f
        .params
        .iter()
        .map(|p| (p.name.clone(), p.ty.clone()))
        .collect();
    walk_stmts(&f.body, &mut |s| {
        if let StmtKind::Decl(d) = &s.kind {
            locals.insert(d.name.clone(), d.ty.clone());
        }
    });
    FuncInfo {
        ret: f.ret.clone(),
        params: f.params.clone(),
        locals,
    }
}

/// Parse every OpenACC pragma of the program (the Directives stage's
/// work, without a session).
fn count_directives(program: &Program) -> Result<usize, openarc_minic::Diagnostic> {
    let mut n = 0;
    let mut err = None;
    for item in &program.items {
        if let Item::Func(f) = item {
            walk_stmts(&f.body, &mut |s| match openarc_openacc::directives_of(s) {
                Ok(ds) => n += ds.len(),
                Err(d) => err = err.take().or(Some(d)),
            });
        }
    }
    err.map_or(Ok(n), Err)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Probe one program (`src` must be a valid suite or corpus program).
pub fn probe(tr: &Tracer, req: u64, src: &str, c: &mut ProbeCounts) -> Result<(), String> {
    let root = tr.begin("probe", req, NO_SPAN);
    let span = |name, f: &mut dyn FnMut()| tr.span(name, req, root, |_| f());
    let (program, sema) = tr
        .span("minic.frontend", req, root, |_| {
            openarc_minic::frontend(src)
        })
        .map_err(|d| format!("{d:?}"))?;
    let mut directives = Ok(0);
    span("openacc.directives", &mut || {
        directives = count_directives(&program)
    });
    directives.map_err(|d| d.to_string())?;
    let mut cfgs = Vec::new();
    span("dataflow.cfg", &mut || {
        cfgs = program
            .items
            .iter()
            .filter_map(|it| match it {
                Item::Func(f) => Cfg::build_typed(f, &sema).ok(),
                _ => None,
            })
            .collect();
    });
    c.cfg_nodes += cfgs.iter().map(|g| g.nodes.len() as u64).sum::<u64>();
    span("dataflow.alg1", &mut || {
        for g in &cfgs {
            std::hint::black_box(dead_live_compute(g, Side::Gpu));
            std::hint::black_box(dead_live_compute(g, Side::Host));
        }
    });
    span("dataflow.alg2", &mut || {
        for g in &cfgs {
            std::hint::black_box(last_write(g, Side::Host, true));
        }
    });
    span("dataflow.first_access", &mut || {
        for g in &cfgs {
            std::hint::black_box(first_access(g, Side::Host, AccessSel::Read));
            std::hint::black_box(first_access(g, Side::Host, AccessSel::Write));
        }
    });
    let plain = tr
        .span("translate.analysis", req, root, |_| {
            translate(&program, &sema, &TranslateOptions::default())
        })
        .map_err(|d| format!("{d:?}"))?;
    let instr = tr
        .span("translate.instrument", req, root, |_| {
            let topts = TranslateOptions {
                instrument: true,
                ..Default::default()
            };
            translate(&program, &sema, &topts)
        })
        .map_err(|d| format!("{d:?}"))?;
    let ksema = kernel_sema(&plain.kernel_program);
    let mut compiled = Ok(());
    span("vm.compile", &mut || {
        compiled = openarc_vm::compile(&plain.host_program, &plain.host_sema)
            .and_then(|_| openarc_vm::compile(&plain.kernel_program, &ksema))
            .map(|_| ());
    });
    compiled.map_err(|d| d.to_string())?;

    let run = |tr_: &openarc_core::Translated, o: ExecOptions| {
        execute(tr_, &o).map_err(|e| e.to_string())
    };
    let mut out = Ok(());
    let mut step = |name: &'static str, f: &mut dyn FnMut() -> Result<f64, String>| {
        if out.is_ok() {
            out = tr.span(name, req, root, |_| f()).map(|_| ());
        }
    };
    let cpu = ExecOptions {
        mode: ExecMode::CpuOnly,
        race_detect: false,
        ..Default::default()
    };
    step("vm.host_ref", &mut || {
        let (r, ms) = timed(|| run(&plain, cpu.clone()));
        let r = r?;
        c.host_instrs += r.host_instrs;
        c.host_ref_ms += ms;
        Ok(ms)
    });
    let mut device_ms = 0.0;
    step("gpusim.device", &mut || {
        let (r, ms) = timed(|| {
            run(
                &plain,
                ExecOptions {
                    race_detect: false,
                    ..Default::default()
                },
            )
        });
        c.kernel_launches += r?.kernel_launches;
        device_ms = ms;
        Ok(ms)
    });
    step("gpusim.race_on", &mut || {
        let (r, ms) = timed(|| run(&plain, ExecOptions::default()));
        c.race_reports += r?.races.len() as u64;
        c.race_ms += ms - device_ms;
        Ok(ms)
    });
    let mut off_ms = 0.0;
    step("runtime.check_off", &mut || {
        let (r, ms) = timed(|| {
            run(
                &instr,
                ExecOptions {
                    race_detect: false,
                    ..Default::default()
                },
            )
        });
        r?;
        off_ms = ms;
        Ok(ms)
    });
    step("runtime.check_on", &mut || {
        let opts = ExecOptions {
            check_transfers: true,
            race_detect: false,
            ..Default::default()
        };
        let (r, ms) = timed(|| run(&instr, opts));
        let r = r?;
        c.transfer_bytes += r.machine.stats.total_bytes();
        c.transfer_ops += r.machine.stats.total_count();
        c.issues += r.machine.report.issues.len() as u64;
        c.coherence_ms += ms - off_ms;
        Ok(ms)
    });
    tr.end(root);
    c.programs += 1;
    out
}
