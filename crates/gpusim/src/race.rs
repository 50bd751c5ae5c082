//! Data-race detection inside simulated kernels.
//!
//! This is the *ground-truth oracle* our Table 2 reproduction uses to
//! classify injected concurrency bugs: the paper's kernel-verification tool
//! only observes *active* errors (wrong outputs), while races whose final
//! value happens to be unused are *latent*. The simulator sees every
//! conflicting access, so it can count latent races the output comparison
//! cannot.

use openarc_vm::{Buffer, Handle};

/// Kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read.
    Read,
    /// Write.
    Write,
}

/// Summary of races observed on one buffer during one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceReport {
    /// The buffer.
    pub handle: Handle,
    /// Buffer label (source variable name).
    pub label: String,
    /// Number of conflicting access pairs observed.
    pub conflicts: u64,
    /// Example conflicting element index.
    pub example_idx: u64,
    /// Example pair of thread ids.
    pub example_threads: (u64, u64),
}

/// What the detector remembers about one element.
#[derive(Debug, Clone, Copy, Default)]
struct LastAccess {
    /// Some thread has accessed the element during this launch.
    seen: bool,
    tid: u64,
    wrote: bool,
    read_tid: u64,
    read_any: bool,
    /// More than one distinct thread has read this element. Without this
    /// a later read by the eventual writer would mask the foreign read
    /// (lockstep order: foreign read, own read, own write) and the
    /// write-after-read conflict would go unreported.
    read_many: bool,
}

/// The shadow of one buffer: one [`LastAccess`] per element, allocated
/// when the launch first touches the buffer.
#[derive(Debug, Default)]
struct Shadow {
    cells: Vec<LastAccess>,
    /// Index of this buffer's report in [`RaceDetector::races`].
    report: Option<usize>,
}

/// Per-launch access table. Tracks, per element, the last writer and
/// whether any other thread touched it, in a dense shadow array per
/// touched buffer (indexed by handle slot, then element).
#[derive(Debug, Default)]
pub struct RaceDetector {
    shadows: Vec<Shadow>,
    races: Vec<RaceReport>,
}

impl RaceDetector {
    /// Fresh detector (one per kernel launch).
    pub fn new() -> RaceDetector {
        RaceDetector::default()
    }

    /// Record an access by thread `tid` to element `idx` of `buf`, the
    /// buffer behind `handle`. An index past the end records nothing:
    /// that access fails the launch. The buffer's label is copied only
    /// when its first race is reported.
    #[inline]
    pub fn record(&mut self, handle: Handle, buf: &Buffer, idx: u64, tid: u64, kind: AccessKind) {
        let slot = handle.0 as usize;
        if slot >= self.shadows.len() {
            self.shadows.resize_with(slot + 1, Shadow::default);
        }
        let shadow = &mut self.shadows[slot];
        if shadow.cells.is_empty() {
            shadow.cells = vec![LastAccess::default(); buf.len()];
        }
        let Some(la) = shadow.cells.get_mut(idx as usize) else {
            return;
        };
        if !la.seen {
            *la = LastAccess {
                seen: true,
                tid,
                wrote: kind == AccessKind::Write,
                read_tid: tid,
                read_any: kind == AccessKind::Read,
                read_many: false,
            };
            return;
        }
        let conflict = match kind {
            // write-after-write, or write after a read by any other
            // thread (even one since shadowed by the writer's own read).
            AccessKind::Write => {
                (la.wrote && la.tid != tid) || (la.read_any && (la.read_tid != tid || la.read_many))
            }
            // read-after-write by another thread
            AccessKind::Read => la.wrote && la.tid != tid,
        };
        if conflict {
            let races = &mut self.races;
            let i = *shadow.report.get_or_insert_with(|| {
                let other = if la.wrote {
                    la.tid
                } else if la.read_tid != tid {
                    la.read_tid
                } else {
                    la.tid
                };
                races.push(RaceReport {
                    handle,
                    label: buf.label.clone(),
                    conflicts: 0,
                    example_idx: idx,
                    example_threads: (other, tid),
                });
                races.len() - 1
            });
            races[i].conflicts += 1;
        }
        match kind {
            AccessKind::Write => {
                la.wrote = true;
                la.tid = tid;
            }
            AccessKind::Read => {
                if la.read_any && la.read_tid != tid {
                    la.read_many = true;
                }
                la.read_any = true;
                la.read_tid = tid;
            }
        }
    }

    /// Reports for all buffers that raced, sorted by label, then handle
    /// (two buffers can share a source name).
    pub fn reports(&self) -> Vec<RaceReport> {
        let mut v = self.races.clone();
        v.sort_by(|a, b| (&a.label, a.handle).cmp(&(&b.label, b.handle)));
        v
    }

    /// True if any race was observed.
    pub fn any(&self) -> bool {
        !self.races.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::ScalarTy;

    const H: Handle = Handle(3);

    /// Record an access to element `idx` of a 16-element buffer `H`
    /// labelled `label`.
    fn rec(d: &mut RaceDetector, label: &str, idx: u64, tid: u64, kind: AccessKind) {
        d.record(H, &Buffer::new(ScalarTy::Int, 16, label), idx, tid, kind);
    }

    #[test]
    fn disjoint_indices_do_not_race() {
        let mut d = RaceDetector::new();
        rec(&mut d, "a", 0, 0, AccessKind::Write);
        rec(&mut d, "a", 1, 1, AccessKind::Write);
        rec(&mut d, "a", 0, 0, AccessKind::Read);
        assert!(!d.any());
    }

    #[test]
    fn write_write_conflict_detected() {
        let mut d = RaceDetector::new();
        rec(&mut d, "tmp", 0, 0, AccessKind::Write);
        rec(&mut d, "tmp", 0, 1, AccessKind::Write);
        assert!(d.any());
        let r = &d.reports()[0];
        assert_eq!(r.label, "tmp");
        assert_eq!(r.example_threads, (0, 1));
        assert_eq!(r.conflicts, 1);
    }

    #[test]
    fn read_after_foreign_write_detected() {
        let mut d = RaceDetector::new();
        rec(&mut d, "s", 0, 2, AccessKind::Write);
        rec(&mut d, "s", 0, 5, AccessKind::Read);
        assert!(d.any());
    }

    #[test]
    fn write_after_foreign_read_detected() {
        let mut d = RaceDetector::new();
        rec(&mut d, "s", 0, 2, AccessKind::Read);
        rec(&mut d, "s", 0, 5, AccessKind::Write);
        assert!(d.any());
    }

    #[test]
    fn same_thread_sequence_is_fine() {
        let mut d = RaceDetector::new();
        rec(&mut d, "x", 0, 4, AccessKind::Read);
        rec(&mut d, "x", 0, 4, AccessKind::Write);
        rec(&mut d, "x", 0, 4, AccessKind::Read);
        assert!(!d.any());
    }

    #[test]
    fn conflicts_accumulate_per_buffer() {
        let mut d = RaceDetector::new();
        for t in 0..10u64 {
            rec(&mut d, "acc", 0, t, AccessKind::Read);
            rec(&mut d, "acc", 0, t, AccessKind::Write);
        }
        let r = &d.reports()[0];
        assert!(r.conflicts >= 9, "{}", r.conflicts);
        assert_eq!(d.reports().len(), 1);
    }

    #[test]
    fn own_read_does_not_mask_foreign_read() {
        // Lockstep loop-carried dependence order: thread 2 reads, then
        // thread 1 reads and writes the same element. The write still
        // conflicts with thread 2's earlier read.
        let mut d = RaceDetector::new();
        rec(&mut d, "b", 1, 2, AccessKind::Read);
        rec(&mut d, "b", 1, 1, AccessKind::Read);
        rec(&mut d, "b", 1, 1, AccessKind::Write);
        assert!(d.any());
    }

    #[test]
    fn reads_only_never_race() {
        let mut d = RaceDetector::new();
        for t in 0..5u64 {
            rec(&mut d, "ro", 0, t, AccessKind::Read);
        }
        assert!(!d.any());
    }

    #[test]
    fn out_of_range_index_records_nothing() {
        let mut d = RaceDetector::new();
        rec(&mut d, "a", 16, 0, AccessKind::Write);
        rec(&mut d, "a", 16, 1, AccessKind::Write);
        assert!(!d.any());
    }

    #[test]
    fn same_label_reports_order_by_handle() {
        // Two allocations assigned to one variable share its name; the
        // buffer that raced first has the larger handle.
        let late = Buffer::new(ScalarTy::Int, 2, "p");
        let early = Buffer::new(ScalarTy::Int, 2, "p");
        let mut d = RaceDetector::new();
        for (h, buf) in [(Handle(7), &late), (Handle(2), &early)] {
            d.record(h, buf, 0, 0, AccessKind::Write);
            d.record(h, buf, 0, 1, AccessKind::Write);
        }
        let handles: Vec<Handle> = d.reports().iter().map(|r| r.handle).collect();
        assert_eq!(handles, vec![Handle(2), Handle(7)]);
    }

    /// The hash-map detector the dense shadows replaced, kept verbatim
    /// (apart from the report order) as the reference model.
    mod reference {
        use super::super::{AccessKind, RaceReport};
        use openarc_vm::Handle;
        use std::collections::HashMap;

        #[derive(Debug, Clone, Copy)]
        struct LastAccess {
            tid: u64,
            wrote: bool,
            read_tid: u64,
            read_any: bool,
            read_many: bool,
        }

        #[derive(Debug, Default)]
        pub struct HashDetector {
            last: HashMap<(Handle, u64), LastAccess>,
            races: HashMap<Handle, RaceReport>,
        }

        impl HashDetector {
            pub fn record(
                &mut self,
                handle: Handle,
                label: &str,
                idx: u64,
                tid: u64,
                kind: AccessKind,
            ) {
                let entry = self.last.entry((handle, idx));
                match entry {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(LastAccess {
                            tid,
                            wrote: kind == AccessKind::Write,
                            read_tid: tid,
                            read_any: kind == AccessKind::Read,
                            read_many: false,
                        });
                    }
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        let la = o.get_mut();
                        let conflict = match kind {
                            AccessKind::Write => {
                                (la.wrote && la.tid != tid)
                                    || (la.read_any && (la.read_tid != tid || la.read_many))
                            }
                            AccessKind::Read => la.wrote && la.tid != tid,
                        };
                        if conflict {
                            let other = if la.wrote {
                                la.tid
                            } else if la.read_tid != tid {
                                la.read_tid
                            } else {
                                la.tid
                            };
                            let rep = self.races.entry(handle).or_insert_with(|| RaceReport {
                                handle,
                                label: label.to_string(),
                                conflicts: 0,
                                example_idx: idx,
                                example_threads: (other, tid),
                            });
                            rep.conflicts += 1;
                        }
                        match kind {
                            AccessKind::Write => {
                                la.wrote = true;
                                la.tid = tid;
                            }
                            AccessKind::Read => {
                                if la.read_any && la.read_tid != tid {
                                    la.read_many = true;
                                }
                                la.read_any = true;
                                la.read_tid = tid;
                            }
                        }
                    }
                }
            }

            pub fn reports(&self) -> Vec<RaceReport> {
                let mut v: Vec<RaceReport> = self.races.values().cloned().collect();
                v.sort_by(|a, b| (&a.label, a.handle).cmp(&(&b.label, b.handle)));
                v
            }
        }
    }

    /// xorshift64*, the recurrence of the property-test suite.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D) % n
        }
    }

    /// Feed one access stream to both detectors and require identical
    /// reports (handle, label, conflicts, example index and threads).
    fn differential(bufs: &[(Handle, Buffer)], stream: &[(usize, u64, u64, AccessKind)]) {
        let mut dense = RaceDetector::new();
        let mut model = reference::HashDetector::default();
        for &(b, idx, tid, kind) in stream {
            let (h, buf) = &bufs[b];
            dense.record(*h, buf, idx, tid, kind);
            model.record(*h, &buf.label, idx, tid, kind);
        }
        assert_eq!(dense.reports(), model.reports(), "stream {stream:?}");
        assert_eq!(dense.any(), !model.reports().is_empty());
    }

    #[test]
    fn dense_shadows_match_hash_map_model() {
        // Two of the three buffers share a label, and handles are not in
        // allocation order.
        let bufs = [
            (Handle(4), Buffer::new(ScalarTy::Int, 1, "a")),
            (Handle(1), Buffer::new(ScalarTy::Int, 5, "a")),
            (Handle(9), Buffer::new(ScalarTy::Double, 3, "b")),
        ];
        // The lockstep orders of `own_read_does_not_mask_foreign_read`
        // and its mirror image.
        let (r, w) = (AccessKind::Read, AccessKind::Write);
        differential(&bufs, &[(1, 1, 2, r), (1, 1, 1, r), (1, 1, 1, w)]);
        differential(&bufs, &[(1, 1, 1, r), (1, 1, 2, r), (1, 1, 2, w)]);
        differential(&bufs, &[(1, 1, 2, r), (1, 1, 2, r), (1, 1, 2, w)]);
        let mut rng = Rng(0x5eed_7ace);
        for _ in 0..2000 {
            let len = 1 + rng.below(60) as usize;
            let tids = 1 + rng.below(6);
            let stream: Vec<_> = (0..len)
                .map(|_| {
                    let b = rng.below(bufs.len() as u64) as usize;
                    let idx = rng.below(bufs[b].1.len() as u64);
                    let kind = if rng.below(2) == 0 { r } else { w };
                    (b, idx, rng.below(tids), kind)
                })
                .collect();
            differential(&bufs, &stream);
        }
    }
}
