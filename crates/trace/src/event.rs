//! The event schema: what the stack journals and when.
//!
//! Events come in two shapes:
//!
//! * **Slices** ([`EventKind::Slice`]) — host-timeline time charges,
//!   emitted by the simulated clock itself at the instant the time is
//!   charged. Summing slice durations per [`Category`] reproduces the
//!   clock's `TimeBreakdown` *exactly* (same additions, same order), which
//!   is what lets summaries reconcile to the unit.
//! * **Semantic events** — everything else: kernel launches/completions,
//!   device alloc/free, transfers, present-table hits/misses, coherence
//!   transitions, report findings, and verification verdicts. These carry
//!   the payload a programmer asks about ("why was this transfer flagged
//!   redundant"); spans additionally carry a duration and the async-queue
//!   track they executed on.

use std::fmt;

/// Where simulated host time was spent. Mirrors the simulator clock's
/// `TimeCategory` (Figure 3's legend) so journal totals and clock totals
/// are the same vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Device memory frees.
    GpuMemFree,
    /// Device memory allocations.
    GpuMemAlloc,
    /// Host↔device transfers (synchronous part).
    MemTransfer,
    /// Host blocked waiting for async work.
    AsyncWait,
    /// Output comparison against the CPU reference.
    ResultComp,
    /// Host CPU computation.
    CpuTime,
    /// Synchronous kernel execution.
    KernelExec,
}

impl Category {
    /// All categories, in Figure 3 order.
    pub const ALL: [Category; 7] = [
        Category::GpuMemFree,
        Category::GpuMemAlloc,
        Category::MemTransfer,
        Category::AsyncWait,
        Category::ResultComp,
        Category::CpuTime,
        Category::KernelExec,
    ];

    /// Display label (matches the clock's `TimeCategory::label`).
    pub fn label(self) -> &'static str {
        match self {
            Category::GpuMemFree => "GPU Mem Free",
            Category::GpuMemAlloc => "GPU Mem Alloc",
            Category::MemTransfer => "Mem Transfer",
            Category::AsyncWait => "Async-Wait",
            Category::ResultComp => "Result-Comp",
            Category::CpuTime => "CPU Time",
            Category::KernelExec => "Kernel Exec",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which simulated timeline an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// The host timeline.
    Host,
    /// An asynchronous queue on one simulated device. Queues are
    /// namespaced per device: `(dev, id)` is the timeline identity, and
    /// the same queue id on two devices names two independent timelines.
    Queue {
        /// Device owning the queue (`0` is the primary device).
        dev: u32,
        /// Queue id within the device.
        id: i64,
    },
}

impl Track {
    /// A queue track on the primary device (device 0).
    #[cfg(test)]
    pub fn queue0(id: i64) -> Track {
        Track::Queue { dev: 0, id }
    }

    /// The queue id, if this is a queue track (any device).
    pub fn queue(self) -> Option<i64> {
        match self {
            Track::Host => None,
            Track::Queue { id, .. } => Some(id),
        }
    }

    /// The device id, if this is a queue track.
    pub fn device(self) -> Option<u32> {
        match self {
            Track::Host => None,
            Track::Queue { dev, .. } => Some(dev),
        }
    }

    /// The `(device, queue)` pair, if this is a queue track.
    pub fn dev_queue(self) -> Option<(u32, i64)> {
        match self {
            Track::Host => None,
            Track::Queue { dev, id } => Some((dev, id)),
        }
    }
}

/// One journaled event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated start timestamp, µs.
    pub ts_us: f64,
    /// Duration, µs. `0.0` marks an instant event.
    pub dur_us: f64,
    /// Timeline the event occurred on.
    pub track: Track,
    /// Payload.
    pub kind: EventKind,
}

/// The payload of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A host-time charge, emitted by the simulated clock. The per-category
    /// sum of slice durations equals the clock's `TimeBreakdown` exactly.
    Slice {
        /// Category the time was charged to.
        cat: Category,
    },
    /// A kernel was launched (instant, at the host-side launch point).
    KernelLaunch {
        /// Kernel name.
        kernel: String,
        /// Threads in the launch.
        n_threads: u64,
        /// Async queue, if any.
        queue: Option<i64>,
        /// Device the launch was dispatched to (`0` = primary device).
        dev: u32,
    },
    /// A kernel's execution span; its end (`ts_us + dur_us`) is the
    /// completion timestamp. Lands on the queue track for async launches.
    KernelComplete {
        /// Kernel name.
        kernel: String,
    },
    /// Device memory allocated for a variable (instant).
    DevAlloc {
        /// Variable label.
        var: String,
        /// Allocation size.
        bytes: u64,
    },
    /// Device memory freed (instant).
    DevFree {
        /// Variable label.
        var: String,
    },
    /// A host↔device transfer span. Lands on the queue track when async.
    Transfer {
        /// Variable transferred.
        var: String,
        /// Report site naming the transfer (e.g. `update0`).
        site: String,
        /// Payload size.
        bytes: u64,
        /// Direction: `true` = host→device.
        to_device: bool,
    },
    /// Present-table lookup found an existing mapping (instant).
    PresentHit {
        /// Variable looked up.
        var: String,
    },
    /// Present-table lookup missed; a mapping was created (instant).
    PresentMiss {
        /// Variable looked up.
        var: String,
    },
    /// A coherence state transition on one side of a tracked variable
    /// (instant). States are the paper's `notstale` / `maystale` / `stale`.
    Coherence {
        /// Variable whose state changed.
        var: String,
        /// Side that changed: `"cpu"`, `"gpu"` (primary device), or
        /// `"gpuN"` for device N > 0.
        side: &'static str,
        /// Previous state.
        from: &'static str,
        /// New state.
        to: &'static str,
        /// What caused the transition: `"write"`, `"transfer"`, `"reset"`
        /// or `"dealloc"`.
        cause: &'static str,
    },
    /// A transfer-report finding (instant) — the journal's copy of one
    /// Listing-4-style suggestion.
    Finding {
        /// Severity: `"info"`, `"warning"` or `"error"`.
        severity: &'static str,
        /// Finding kind, e.g. `"Redundant"`, `"Missing"`.
        kind: String,
        /// Variable involved.
        var: String,
        /// Site the finding fired at.
        site: String,
        /// Rendered message.
        message: String,
    },
    /// A kernel-verification verdict (§III-A) for one launch (instant).
    Verification {
        /// Kernel verified.
        kernel: String,
        /// Whether the launch's outputs stayed within the error margin.
        passed: bool,
        /// Elements compared.
        compared_elems: u64,
        /// Elements that diverged.
        mismatched_elems: u64,
        /// Largest absolute divergence.
        max_abs_err: f64,
    },
    /// A pipeline-stage timing span emitted by the staged compilation
    /// pipeline (`Session`). Unlike [`EventKind::Slice`], the duration is
    /// **real wall-clock** µs spent compiling/executing, not simulated
    /// time, and the timestamp is the offset since the session started.
    /// Stage events therefore never enter the deterministic per-run
    /// journals compared byte-for-byte across worker counts — they live in
    /// a separate session-level stream.
    Stage {
        /// Stage label, e.g. `"Frontend"`, `"Translate"`, `"Execute"`.
        stage: &'static str,
        /// Whether the stage result came from the artifact cache.
        cached: bool,
    },
    /// A disk-cache operation performed by the staged pipeline's
    /// content-addressed artifact store (instant, session-level stream —
    /// same rules as [`EventKind::Stage`]: real wall-clock offsets, never
    /// part of the deterministic per-run journals).
    Cache {
        /// Stage label of the artifact involved, e.g. `"Frontend"`.
        stage: &'static str,
        /// Operation: `"hit"`, `"miss"`, `"store"`, `"evict"` or
        /// `"corrupt"`.
        op: &'static str,
    },
    /// One gauge sample from the `openarc serve` daemon's periodic stats
    /// heartbeat (instant, server-level stream — real wall-clock offsets
    /// since daemon start, same rules as [`EventKind::Stage`]: never part
    /// of the deterministic per-run journals).
    Serve {
        /// Gauge name, e.g. `"in_flight"`, `"queue_depth"`, `"p95_us"`,
        /// `"cache_hits"`.
        gauge: String,
        /// Sampled value.
        value: f64,
    },
}

impl TraceEvent {
    /// Short display name (the Chrome trace event name).
    pub fn name(&self) -> String {
        match &self.kind {
            EventKind::Slice { cat } => cat.label().to_string(),
            EventKind::KernelLaunch { kernel, .. } => format!("launch {kernel}"),
            EventKind::KernelComplete { kernel } => kernel.clone(),
            EventKind::DevAlloc { var, .. } => format!("alloc {var}"),
            EventKind::DevFree { var } => format!("free {var}"),
            EventKind::Transfer { var, to_device, .. } => {
                if *to_device {
                    format!("H2D {var}")
                } else {
                    format!("D2H {var}")
                }
            }
            EventKind::PresentHit { var } => format!("present-hit {var}"),
            EventKind::PresentMiss { var } => format!("present-miss {var}"),
            EventKind::Coherence { var, side, to, .. } => format!("{var}.{side} → {to}"),
            EventKind::Finding { kind, var, .. } => format!("{kind} {var}"),
            EventKind::Verification { kernel, passed, .. } => {
                format!("verify {kernel}: {}", if *passed { "ok" } else { "FAIL" })
            }
            EventKind::Stage { stage, cached } => {
                format!("stage {stage}{}", if *cached { " (cached)" } else { "" })
            }
            EventKind::Cache { stage, op } => format!("cache {op} {stage}"),
            EventKind::Serve { gauge, value } => format!("serve {gauge}={value}"),
        }
    }

    /// Chrome trace category string for this event.
    pub fn chrome_category(&self) -> &'static str {
        match &self.kind {
            EventKind::Slice { .. } => "clock",
            EventKind::KernelLaunch { .. } | EventKind::KernelComplete { .. } => "kernel",
            EventKind::DevAlloc { .. }
            | EventKind::DevFree { .. }
            | EventKind::PresentHit { .. }
            | EventKind::PresentMiss { .. } => "memory",
            EventKind::Transfer { .. } => "transfer",
            EventKind::Coherence { .. } => "coherence",
            EventKind::Finding { .. } => "finding",
            EventKind::Verification { .. } => "verify",
            EventKind::Stage { .. } => "stage",
            EventKind::Cache { .. } => "cache",
            EventKind::Serve { .. } => "serve",
        }
    }

    /// True when the event concerns the named kernel (its launch,
    /// completion, verification verdict, or a transfer/finding at a site
    /// named after it — kernel-boundary transfers use the kernel name as
    /// their report site).
    pub fn matches_kernel(&self, name: &str) -> bool {
        match &self.kind {
            EventKind::KernelLaunch { kernel, .. }
            | EventKind::KernelComplete { kernel }
            | EventKind::Verification { kernel, .. } => kernel == name,
            EventKind::Transfer { site, .. } | EventKind::Finding { site, .. } => {
                site == name || site.starts_with(&format!("{name}_"))
            }
            _ => false,
        }
    }

    /// True when the event mentions the named variable.
    pub fn mentions_var(&self, name: &str) -> bool {
        match &self.kind {
            EventKind::DevAlloc { var, .. }
            | EventKind::DevFree { var }
            | EventKind::Transfer { var, .. }
            | EventKind::PresentHit { var }
            | EventKind::PresentMiss { var }
            | EventKind::Coherence { var, .. }
            | EventKind::Finding { var, .. } => var == name,
            _ => false,
        }
    }
}
