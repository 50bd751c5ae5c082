//! Lowered-program representation produced by the translator.
//!
//! The translator rewrites directive statements in the host AST into
//! `__host_op(id)` marker calls; `id` indexes the [`RtOp`] table below,
//! which the executor dispatches against the simulated machine.

use openarc_minic::NodeId;
use openarc_openacc::{DataClauseKind, ReductionOp};
use openarc_runtime::{Loc, St};

/// How one variable is handled around a kernel launch or data region
/// boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct DataAction {
    /// Variable name.
    pub var: String,
    /// Map (allocate if absent) at entry and release at exit.
    pub map: bool,
    /// Host→device copy at entry.
    pub copyin: bool,
    /// Device→host copy at exit.
    pub copyout: bool,
    /// Which clause produced this action (None = default/naive policy).
    pub from_clause: Option<DataClauseKind>,
    /// Data region whose clauses cover this variable, when the action is
    /// region-managed. If that region's `if(...)` evaluated false at run
    /// time, the launch falls back to the default copy policy.
    pub covering_region: Option<usize>,
    /// Whether the kernel writes the variable (drives the fallback
    /// copyout).
    pub written: bool,
}

/// Recipe for one kernel argument after the implicit `__gid`.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelParam {
    /// Device handle of a mapped aggregate (host global holding the
    /// buffer handle is named `var`).
    Aggregate {
        /// Host variable name.
        var: String,
    },
    /// Scalar value read from a host global slot (original global or a
    /// synthesized `__k*` argument global).
    Scalar {
        /// Host global name.
        var: String,
    },
    /// A one-element device buffer shared by all threads — produced when a
    /// written scalar is neither privatized nor recognized as a reduction
    /// (the miscompilation §IV-B injects).
    SharedCell {
        /// Scalar name (cell is labelled with it).
        var: String,
        /// Host global slot holding the initial value, if the scalar has a
        /// meaningful incoming value (globals, or synthesized captures).
        init_global: Option<String>,
    },
    /// Per-thread partial-result buffer for one reduction variable.
    ReductionSlot {
        /// Reduced scalar.
        var: String,
        /// Combining operator.
        op: ReductionOp,
    },
}

/// Everything the executor needs to launch one translated kernel.
#[derive(Debug, Clone)]
pub struct KernelInfo {
    /// Kernel function name in the kernel module (e.g. `main_kernel0`).
    pub name: String,
    /// Sequential CPU fallback function name in the host module.
    pub seq_name: String,
    /// Host global holding the thread count (synthesized).
    pub n_threads_global: String,
    /// Argument recipes (after the implicit `__gid`).
    pub params: Vec<KernelParam>,
    /// Per-variable data policy at this launch.
    pub actions: Vec<DataAction>,
    /// Aggregates read by the kernel (coherence: GPU read checks).
    pub gpu_reads: Vec<String>,
    /// Aggregates written by the kernel (coherence: GPU write checks).
    pub gpu_writes: Vec<String>,
    /// Aggregates whose GPU write-check was hoisted before the enclosing
    /// loop (Listing 3 optimization): launch skips their state update.
    pub hoisted_writes: Vec<String>,
    /// Reduction outputs `(var, op)` finalized on the CPU after launch.
    pub reductions: Vec<(String, ReductionOp)>,
    /// §III-C application knowledge attached via `openarc verify` pragmas.
    pub knowledge: crate::knowledge::KernelKnowledge,
    /// Lockstep wave width requested via `num_workers`/`vector_length`
    /// (workers × vector lanes resident together); `None` uses the
    /// executor default.
    pub wave_override: Option<u32>,
    /// Async queue, if the launch is asynchronous.
    pub queue: Option<i64>,
    /// Synthesized global holding the `if(...)` clause value; when it
    /// evaluates falsy the region executes on the host instead.
    pub if_global: Option<String>,
    /// Originating statement in the source program.
    pub stmt: NodeId,
    /// Source line of the compute directive (for reports).
    pub line: u32,
}

/// One structured data region.
#[derive(Debug, Clone)]
pub struct DataRegionInfo {
    /// Per-variable actions at enter/exit.
    pub actions: Vec<DataAction>,
    /// Synthesized global holding the `if(...)` clause value; when falsy
    /// the region performs no mapping or transfers.
    pub if_global: Option<String>,
    /// Originating statement.
    pub stmt: NodeId,
}

/// Runtime operations dispatched by `__host_op(id)`.
#[derive(Debug, Clone, PartialEq)]
pub enum RtOp {
    /// Enter structured data region `.0` (index into region table).
    DataEnter(usize),
    /// Exit structured data region `.0`.
    DataExit(usize),
    /// Launch kernel `.0` (index into kernel table).
    Launch(usize),
    /// Executable `update` directive.
    Update {
        /// Device→host variables.
        to_host: Vec<String>,
        /// Host→device variables.
        to_device: Vec<String>,
        /// Async queue.
        queue: Option<i64>,
        /// Report site label (e.g. `update0`).
        site: String,
        /// Synthesized global holding the `if(...)` value, when present.
        if_global: Option<String>,
    },
    /// Wait on a queue (or all).
    Wait(Option<i64>),
    /// Coherence `check_read(var, side)` (instrumentation).
    CheckRead {
        /// Variable.
        var: String,
        /// Location performing the read.
        side: Loc,
        /// Report site label.
        site: String,
    },
    /// Coherence `check_write(var, side, total)` (instrumentation).
    CheckWrite {
        /// Variable.
        var: String,
        /// Location performing the write.
        side: Loc,
        /// Whole-variable overwrite?
        total: bool,
        /// Report site label.
        site: String,
    },
    /// Coherence `reset_status(var, side, st)` (dead-variable override).
    ResetStatus {
        /// Variable.
        var: String,
        /// Location whose state is overridden.
        side: Loc,
        /// New state.
        st: St,
    },
    /// Begin tracking an enclosing host loop (report context).
    LoopEnter {
        /// Label shown in reports (e.g. `k-loop`).
        label: String,
    },
    /// Host loop advanced to its next iteration.
    LoopTick,
    /// Host loop finished.
    LoopExit,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_action_defaults() {
        let a = DataAction {
            var: "q".into(),
            map: true,
            copyin: true,
            copyout: false,
            from_clause: Some(DataClauseKind::CopyIn),
            covering_region: None,
            written: false,
        };
        assert_eq!(a.from_clause, Some(DataClauseKind::CopyIn));
        assert!(a.map && a.copyin && !a.copyout);
    }

    #[test]
    fn rtop_equality() {
        assert_eq!(RtOp::Wait(None), RtOp::Wait(None));
        assert_ne!(RtOp::Wait(Some(1)), RtOp::Wait(None));
        assert_eq!(RtOp::LoopTick, RtOp::LoopTick);
    }
}
