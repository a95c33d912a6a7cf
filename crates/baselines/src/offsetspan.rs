//! Offset-Span labeling (Mellor-Crummey, 1991) for nested fork-join.
//!
//! The labeling-scheme family of the paper's related work (§6): every task
//! carries a label — a sequence of `(offset, span)` pairs, one per
//! fork-join nesting level — and two accesses are ordered iff their labels
//! are, which is decidable from the labels alone (no global structure).
//!
//! The original scheme targets strict `cobegin/coend` nesting where the
//! parent does not execute inside a fork. To run it on async-finish
//! programs we use the standard *continuation-as-branch* emulation:
//!
//! * spawning a child pushes a **branch pair** `(1, 2)` onto the child's
//!   label and a **continuation pair** `(2, 2)` onto the parent's — the
//!   parent's remaining phase is just another branch of a binary fork;
//! * `finish_end` restores the owner's label to its `finish_start` value
//!   and advances its last pair's offset by the span (`o → o+2`), the
//!   classic join rule ordering every phase child before the post-join
//!   continuation;
//! * `L1 ≺ L2` iff `L1` is a prefix of `L2`, or at the first differing
//!   pair `o1 < o2` with `o1 ≡ o2 (mod 2)` — same-parity offsets at one
//!   level belong to successive phases of the same branch, while
//!   odd(child)/even(continuation) offsets are concurrent.
//!
//! The emulation is exact for async-finish, but labels grow with the
//! number of spawns along a task's ancestry/continuation — precisely the
//! cost profile that motivated bags-based detectors, and the contrast the
//! paper draws: "Our approach uses a labeling scheme which is of constant
//! size … while Offset-Span labeling supports only nested fork-join
//! constructs." Futures are out of scope for the scheme: the detector
//! counts and drops each `get()` edge, over-reporting on future programs,
//! and the report notes the count when nonzero.

use crate::BaselineReport;
use futrace_runtime::engine::Analysis;
use futrace_runtime::monitor::{Monitor, TaskKind};
use futrace_util::ids::{FinishId, LocId, TaskId};
use std::sync::Arc;

/// An offset-span label (immutably shared; clones are `Arc` bumps).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct OsLabel(Arc<Vec<(u64, u64)>>);

impl OsLabel {
    fn root() -> Self {
        OsLabel(Arc::new(vec![(0, 2)]))
    }

    fn extended(&self, pair: (u64, u64)) -> Self {
        let mut v = (*self.0).clone();
        v.push(pair);
        OsLabel(Arc::new(v))
    }

    /// Label for the continuation after a join: this label's pairs, with
    /// the last pair's offset advanced *past the current in-phase value at
    /// that level* (`floor`). Advancing only from the saved value would
    /// collide with phases created by inner finishes at the same level
    /// (restore-from-saved would forget their bumps, producing a label
    /// that is a prefix of an already-joined child — a false race).
    fn joined(&self, floor: (u64, u64)) -> Self {
        let mut v = (*self.0).clone();
        let last = v.last_mut().expect("non-empty label");
        debug_assert_eq!(last.1, floor.1);
        debug_assert_eq!(last.0 % 2, floor.0 % 2, "bumps preserve parity");
        last.0 = floor.0 + floor.1; // offset advances past everything used
        OsLabel(Arc::new(v))
    }

    fn pair_at(&self, pos: usize) -> (u64, u64) {
        self.0[pos]
    }

    /// Number of `(offset, span)` pairs — grows with spawn/finish nesting
    /// under the continuation-branch emulation (the cost metric).
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Does work labeled `self` necessarily precede work labeled `other`?
    pub(crate) fn precedes(&self, other: &OsLabel) -> bool {
        let a = &*self.0;
        let b = &*other.0;
        let mut k = 0;
        while k < a.len() && k < b.len() && a[k] == b[k] {
            k += 1;
        }
        if k == a.len() {
            // `self` is a (possibly equal) prefix: an earlier state of the
            // same branch path — ordered before every extension.
            return true;
        }
        if k == b.len() {
            // `other` is a proper prefix of `self`: the suspended
            // ancestor's earlier state does not follow its descendant.
            return false;
        }
        let ((o1, s1), (o2, s2)) = (a[k], b[k]);
        debug_assert_eq!(s1, s2, "all spans are 2 in this emulation");
        // Same-parity offsets at one level are successive phases of the
        // same branch; odd (child) vs even (continuation) are concurrent.
        o1 < o2 && o1 % s1 == o2 % s2
    }
}

#[derive(Clone, Default)]
struct Cell {
    writer: Option<OsLabel>,
    reader: Option<OsLabel>,
}

/// The Offset-Span labeling race detector (async-finish adapter).
pub struct OffsetSpan {
    /// Current label of each task.
    labels: Vec<OsLabel>,
    /// Labels saved at finish_start, restored+advanced at finish_end.
    saved: Vec<(TaskId, OsLabel)>,
    shadow: Vec<Cell>,
    races: u64,
    /// `get()` edges observed and ignored.
    ignored_gets: u64,
    /// Largest label length observed (the growth metric).
    peak_label_len: usize,
}

impl Default for OffsetSpan {
    fn default() -> Self {
        Self::new()
    }
}

impl OffsetSpan {
    /// Fresh detector.
    pub fn new() -> Self {
        OffsetSpan {
            labels: vec![OsLabel::root()],
            saved: Vec::new(),
            shadow: Vec::new(),
            races: 0,
            ignored_gets: 0,
            peak_label_len: 1,
        }
    }

    fn cell_mut(&mut self, loc: LocId) -> &mut Cell {
        let i = loc.index();
        if i >= self.shadow.len() {
            self.shadow.resize_with(i + 1, Cell::default);
        }
        &mut self.shadow[i]
    }

    fn note_len(&mut self, l: &OsLabel) {
        self.peak_label_len = self.peak_label_len.max(l.len());
    }
}

impl Monitor for OffsetSpan {
    fn task_create(&mut self, parent: TaskId, child: TaskId, _kind: TaskKind, _ief: FinishId) {
        debug_assert_eq!(child.index(), self.labels.len());
        let base = self.labels[parent.index()].clone();
        let child_label = base.extended((1, 2));
        let parent_label = base.extended((2, 2));
        self.note_len(&child_label);
        self.labels.push(child_label);
        self.labels[parent.index()] = parent_label;
    }

    fn finish_start(&mut self, task: TaskId, _finish: FinishId) {
        self.saved.push((task, self.labels[task.index()].clone()));
    }

    fn finish_end(&mut self, task: TaskId, _finish: FinishId, _joined: &[TaskId]) {
        // The implicit finish around main emits finish_end without a
        // matching finish_start; nothing executes after it, so no label
        // update is needed.
        let Some((owner, label)) = self.saved.pop() else {
            return;
        };
        debug_assert_eq!(owner, task, "finish scopes are strictly nested");
        // The join rule: restore the pre-finish label with its last pair
        // advanced past the level's current value (see `joined`), ordering
        // every phase child before the post-finish continuation.
        let floor = self.labels[task.index()].pair_at(label.len() - 1);
        self.labels[task.index()] = label.joined(floor);
    }

    fn task_end(&mut self, _task: TaskId) {}

    fn get(&mut self, _waiter: TaskId, _awaited: TaskId) {
        // Labels cannot express a point-to-point join: the edge is
        // dropped, which can only add false positives.
        self.ignored_gets += 1;
    }

    fn write(&mut self, task: TaskId, loc: LocId) {
        let label = self.labels[task.index()].clone();
        let cell = self.cell_mut(loc).clone();
        if let Some(r) = &cell.reader {
            if !r.precedes(&label) {
                self.races += 1;
            }
        }
        if let Some(w) = &cell.writer {
            if !w.precedes(&label) {
                self.races += 1;
            }
        }
        self.cell_mut(loc).writer = Some(label);
    }

    fn read(&mut self, task: TaskId, loc: LocId) {
        let label = self.labels[task.index()].clone();
        let cell = self.cell_mut(loc).clone();
        if let Some(w) = &cell.writer {
            if !w.precedes(&label) {
                self.races += 1;
            }
        }
        let replace = match &cell.reader {
            None => true,
            // Keep a concurrent reader, replace an ordered one.
            Some(r) => r.precedes(&label),
        };
        if replace {
            self.cell_mut(loc).reader = Some(label);
        }
    }
}

impl Analysis for OffsetSpan {
    type Report = BaselineReport;

    fn finish(self) -> BaselineReport {
        let label = format!(
            "peak label length: {} (grows with nesting depth)",
            self.peak_label_len
        );
        BaselineReport::new("offset-span", self.races, self.ignored_gets, vec![label])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::run;
    use futrace_runtime::{run_serial, TaskCtx};

    #[test]
    fn label_algebra() {
        let root = OsLabel::root();
        let c1 = root.extended((1, 2)); // first child
        let cont = root.extended((2, 2)); // parent continuation
        let c2 = cont.extended((1, 2)); // second child
        assert!(root.precedes(&c1), "pre-spawn state precedes the child");
        assert!(root.precedes(&c2));
        assert!(cont.precedes(&c2), "work between spawns precedes child 2");
        assert!(!c1.precedes(&cont), "child 1 concurrent with continuation");
        assert!(!cont.precedes(&c1));
        assert!(!c1.precedes(&c2), "siblings concurrent");
        assert!(!c2.precedes(&c1));
        // Join: the saved (root) label advanced orders both children.
        let post = root.joined(root.pair_at(0));
        assert!(c1.precedes(&post));
        assert!(c2.precedes(&post));
        assert!(root.precedes(&post));
        assert!(!post.precedes(&c1));
        assert!(!c1.0.is_empty());
    }

    #[test]
    fn race_free_fork_join() {
        let r = run(OffsetSpan::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| xa.write(ctx, 1));
            });
            x.write(ctx, 2);
        });
        assert!(!r.has_races(), "{} races", r.races);
        assert_eq!(r.ignored_gets, 0);
        assert_eq!(r.notes.len(), 1, "only the label note: {:?}", r.notes);
    }

    #[test]
    fn detects_sibling_race() {
        let r = run(OffsetSpan::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| xa.write(ctx, 1));
                let xb = x.clone();
                ctx.async_task(move |ctx| xb.write(ctx, 2));
            });
        });
        assert!(r.has_races());
        assert_eq!(r.name, "offset-span");
    }

    #[test]
    fn parent_work_inside_phase_races_with_child() {
        let r = run(OffsetSpan::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| xa.write(ctx, 1));
                x.write(ctx, 2); // continuation branch: concurrent
            });
        });
        assert!(r.has_races());
    }

    #[test]
    fn pre_spawn_work_is_ordered_before_child() {
        let r = run(OffsetSpan::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            x.write(ctx, 1); // before the spawn: ordered
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| {
                    let _ = xa.read(ctx);
                });
            });
        });
        assert!(!r.has_races(), "{} races", r.races);
    }

    #[test]
    fn nested_finishes() {
        let r = run(OffsetSpan::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let x1 = x.clone();
                ctx.async_task(move |ctx| {
                    ctx.finish(|ctx| {
                        let x2 = x1.clone();
                        ctx.async_task(move |ctx| x2.write(ctx, 1));
                    });
                    x1.write(ctx, 2); // after inner finish: ordered
                });
            });
            x.write(ctx, 3); // after outer finish: ordered
        });
        assert!(!r.has_races(), "{} races", r.races);
    }

    #[test]
    fn deep_ief_task_still_handled() {
        // A grandchild whose IEF is the outer finish (not spawn-sync
        // shaped): unlike the SP-bags adapter, the emulation handles it —
        // labels are restored per finish owner, not per parent.
        let r = run(OffsetSpan::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let x1 = x.clone();
                ctx.async_task(move |ctx| {
                    let x2 = x1.clone();
                    ctx.async_task(move |ctx| x2.write(ctx, 1));
                });
            });
            x.write(ctx, 2);
        });
        assert!(!r.has_races(), "{} races", r.races);
    }

    #[test]
    fn label_length_grows_with_nesting() {
        let mut d = OffsetSpan::new();
        run_serial(&mut d, |ctx| {
            fn nest<C: TaskCtx>(ctx: &mut C, depth: usize) {
                if depth == 0 {
                    return;
                }
                ctx.finish(|ctx| {
                    ctx.async_task(move |ctx| nest(ctx, depth - 1));
                });
            }
            nest(ctx, 12);
        });
        assert!(
            d.peak_label_len >= 12,
            "labels must grow with nesting depth, got {}",
            d.peak_label_len
        );
    }

    #[test]
    fn futures_are_counted_and_ignored() {
        let r = run(OffsetSpan::new(), |ctx| {
            let f = ctx.future(|_| 1u8);
            ctx.get(&f);
            ctx.get(&f);
        });
        assert_eq!(r.ignored_gets, 2);
        assert_eq!(
            r.notes[1..],
            ["ignored 2 get() edge(s): verdict may over-approximate on futures"]
        );
    }

    #[test]
    fn false_positive_on_future_sync() {
        let r = run(OffsetSpan::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let f = ctx.future(move |ctx| x2.write(ctx, 1));
            ctx.get(&f);
            let _ = x.read(ctx);
        });
        assert!(r.has_races(), "the dropped get edge must cause a report");
        assert_eq!(r.ignored_gets, 1);
    }
}
