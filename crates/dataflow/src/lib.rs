//! # openarc-dataflow
//!
//! Control-flow graphs and the dataflow analyses behind the paper's
//! memory-transfer verification and optimization (§III-B):
//!
//! * [`mod@cfg`] — OpenACC-aware CFG construction: compute regions collapse
//!   into kernel nodes with device-side access summaries.
//! * [`analyses::dead_live`] — the paper's **Algorithm 1**
//!   (may-dead / may-live / must-dead).
//! * [`analyses::last_write`] — **Algorithm 2** (last-write detection).
//! * [`analyses::first_access`] — first-read/first-write placement for
//!   runtime coherence checks.
//! * [`analyses::natural_loops`] — loop structure for the check-hoisting
//!   optimization (Listing 3).
//!
//! The analyses track variables by name and do no pointer analysis: a
//! write through a pointer alias is invisible to them, which is what
//! produces the "incorrect iterations" of Table III.

#![warn(missing_docs)]

pub mod analyses;
pub mod cfg;
pub mod solver;

pub use analyses::{
    dead_live, dead_live_compute, first_access, last_write, liveness, natural_loops, AccessSel,
    DeadLiveResult, Deadness, LastWriteResult, NaturalLoop,
};
pub use cfg::{AccessSummary, Cfg, CfgNode, ComputeRegion, DataRegion, NodeKind, Side};
pub use solver::{solve, Problem, Solution};
