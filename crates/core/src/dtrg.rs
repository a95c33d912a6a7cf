//! The dynamic task reachability graph (DTRG) — §4.1 and Algorithms 1–7,
//! 10 of the paper.
//!
//! The DTRG answers, during a serial depth-first execution, the query
//! *"must every already-executed step of task `A` precede the currently
//! executing step of task `B`?"* ([`Dtrg::precede`], the paper's
//! `Precede`). It encodes reachability at task granularity with three
//! mechanisms:
//!
//! 1. **Disjoint sets over tree joins.** Tasks connected to an ancestor by
//!    tree-join + continue edges share a set ([`futrace_util::UnionFind`]);
//!    `Merge` (Algorithm 7) keeps the ancestor-most label and `lsa`, and
//!    unions the non-tree predecessor lists.
//! 2. **Interval labels.** Each set carries a `[pre, post]` spawn-tree
//!    interval ([`futrace_util::interval`]); subsumption answers
//!    ancestor-reachability in O(1).
//! 3. **Non-tree predecessors + lowest significant ancestor.** Non-tree
//!    join edges (future `get`s that cannot merge) are stored per set
//!    (`nt`), and each task remembers its lowest ancestor that performed a
//!    non-tree join (`lsa`), so `Visit` (Algorithm 10) only walks the
//!    "significant" part of the spawn path.
//!
//! `Precede` is implemented iteratively (explicit work stack + visited set
//! keyed by set representative) rather than recursively: a wavefront
//! program like Smith-Waterman can chain thousands of non-tree edges, which
//! would overflow the call stack, and the visited set gives the
//! "each non-tree edge visited once" bound of Theorem 1.

use futrace_runtime::monitor::TaskKind;
use futrace_util::ids::TaskId;
use futrace_util::interval::{Interval, IntervalLabeler};
use futrace_util::{FxHashMap, FxHashSet, UnionFind};

/// Inline capacity of [`NtSet`]. The paper observes (§5) that producers
/// and consumers sit 1–2 non-tree hops apart, and across the benchsuite
/// almost every set stores at most a couple of non-tree predecessors, so
/// four inline slots cover the common case without heap traffic.
const NT_INLINE: usize = 4;

/// Duplicate-free set of non-tree predecessor tasks in insertion order: up
/// to `NT_INLINE` entries inline, spilling to a heap vector only for sets
/// that accumulate many unjoined producers (wavefront programs under heavy
/// merging, a consumer that gets a thousand producers).
///
/// A spilled set keeps a hash index next to its vector, so membership —
/// `on_get`'s duplicate check and each entry Algorithm 7's `nt_A ∪ nt_B`
/// moves — costs O(1) however large the set grows; without it both were
/// linear scans and non-tree joins cost Θ(n²) in total, outside Theorem 1's
/// bound. The vector still fixes the order `Visit` pushes entries in.
#[derive(Clone, Debug)]
pub struct NtSet(NtRepr);

#[derive(Clone, Debug)]
enum NtRepr {
    /// At most `NT_INLINE` entries, stored in place; only `buf[..len]` is
    /// meaningful.
    Inline { len: u8, buf: [TaskId; NT_INLINE] },
    /// Past the inline capacity: `index` holds exactly the entries of
    /// `order`.
    Spilled {
        order: Vec<TaskId>,
        index: FxHashSet<TaskId>,
    },
}

impl Default for NtSet {
    fn default() -> Self {
        NtSet::new()
    }
}

impl NtSet {
    /// Empty set (no allocation).
    pub(crate) const fn new() -> Self {
        NtSet(NtRepr::Inline {
            len: 0,
            buf: [TaskId(0); NT_INLINE],
        })
    }

    /// Number of stored predecessors.
    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True if no predecessor is stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `t` is stored.
    #[inline]
    pub fn contains(&self, t: TaskId) -> bool {
        match &self.0 {
            NtRepr::Inline { len, buf } => buf[..*len as usize].contains(&t),
            NtRepr::Spilled { index, .. } => index.contains(&t),
        }
    }

    /// The stored predecessors in insertion order.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[TaskId] {
        match &self.0 {
            NtRepr::Inline { len, buf } => &buf[..*len as usize],
            NtRepr::Spilled { order, .. } => order,
        }
    }

    /// Copies the stored predecessors into a fresh vector.
    pub fn to_vec(&self) -> Vec<TaskId> {
        self.as_slice().to_vec()
    }

    /// Appends `t` unless it is already stored; returns true if it was
    /// added. Adds the entries the membership test examined to
    /// `counters.nt_probe_steps`: each entry an inline scan compares, or 1
    /// for a hashed lookup.
    pub(crate) fn insert(&mut self, t: TaskId, counters: &mut DtrgCounters) -> bool {
        match &mut self.0 {
            NtRepr::Inline { len, buf } => {
                let n = *len as usize;
                match buf[..n].iter().position(|&x| x == t) {
                    Some(i) => {
                        counters.nt_probe_steps += i as u64 + 1;
                        return false;
                    }
                    None => counters.nt_probe_steps += n as u64,
                }
                if n < NT_INLINE {
                    buf[n] = t;
                    *len += 1;
                } else {
                    let mut order = Vec::with_capacity(NT_INLINE * 2);
                    order.extend_from_slice(&buf[..]);
                    order.push(t);
                    let index = order.iter().copied().collect();
                    self.0 = NtRepr::Spilled { order, index };
                }
                true
            }
            NtRepr::Spilled { order, index } => {
                counters.nt_probe_steps += 1;
                if !index.insert(t) {
                    return false;
                }
                order.push(t);
                true
            }
        }
    }

    /// Unions `other` into `self`, deduplicating (Algorithm 7's
    /// `nt := nt_A ∪ nt_B`): `other`'s new entries follow `self`'s, in
    /// `other`'s order. Counts probes as [`NtSet::insert`] does and the
    /// entries added in `counters.nt_moved`.
    pub(crate) fn merge_from(&mut self, other: &NtSet, counters: &mut DtrgCounters) {
        for &t in other.as_slice() {
            if self.insert(t, counters) {
                counters.nt_moved += 1;
            }
        }
    }
}

/// Per-set attributes (the record the paper attaches to every disjoint
/// set: `pre`/`post`, `nt`, `lsa`; `parent` lives per task).
#[derive(Clone, Debug)]
pub struct SetData {
    /// Interval label of the set — the label of the member closest to the
    /// spawn-tree root.
    pub interval: Interval,
    /// Sources of non-tree join edges into any member of this set.
    pub nt: NtSet,
    /// Lowest significant ancestor: the nearest ancestor task whose set had
    /// performed a non-tree join when this task was spawned.
    pub lsa: Option<TaskId>,
}

/// Per-task immutable facts.
#[derive(Clone, Copy, Debug)]
pub struct TaskMeta {
    /// Spawn-tree parent (`None` for main).
    pub parent: Option<TaskId>,
    /// Async vs future vs main.
    pub kind: TaskKind,
    /// The task's *own* interval label (distinct from its set's label once
    /// merged); used for exact ancestor queries and statistics.
    pub own: Interval,
}

/// Counters the DTRG maintains for Theorem-1 style accounting and for
/// Table 2's structural columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DtrgCounters {
    /// `get()` operations observed.
    pub gets: u64,
    /// Gets that merged disjoint sets (Algorithm 4's then-branch).
    pub merging_gets: u64,
    /// Gets recorded as non-tree predecessors (Algorithm 4's else-branch).
    pub nt_edges: u64,
    /// Non-tree joins in the computation-graph sense: gets whose waiter is
    /// *not* an ancestor of the awaited task (Table 2's #NTJoins).
    pub graph_nt_joins: u64,
    /// Set merges performed (gets + finish joins).
    pub merges: u64,
    /// `Precede` queries answered.
    pub precede_calls: u64,
    /// Nodes expanded across all `Visit` traversals.
    pub visit_expansions: u64,
    /// `Precede` queries answered from the memo table (no `Visit` run).
    pub memo_hits: u64,
    /// `Precede` queries that ran `Visit` and populated the memo.
    pub memo_misses: u64,
    /// Access checks answered by the shadow-cell fast path without
    /// consulting the DTRG at all (maintained by the detector).
    pub shadow_hits: u64,
    /// `nt` entries examined by the membership tests of `on_get` and
    /// `Merge`: each entry an inline scan compares, or 1 per hashed lookup.
    /// Control-derived, like `merges`: `Precede`'s probes are not counted.
    pub nt_probe_steps: u64,
    /// `nt` entries `Merge` copies into the surviving set.
    pub nt_moved: u64,
}

/// Sentinel in the `task_parent` column for "no parent" (main).
const NO_PARENT: u32 = u32::MAX;

/// The dynamic task reachability graph.
#[derive(Clone, Debug)]
pub struct Dtrg {
    labeler: IntervalLabeler,
    sets: UnionFind<SetData>,
    /// Per-task facts in struct-of-arrays layout: the hot queries
    /// (`is_future` in Algorithm 9's reader rule, `own` in the O(1)
    /// ancestor test) each touch one dense homogeneous column instead of
    /// striding over a wider record.
    task_parent: Vec<u32>,
    task_kind: Vec<TaskKind>,
    task_own: Vec<Interval>,
    /// Scratch for `precede` (kept to avoid per-query allocation).
    visit_stack: Vec<TaskId>,
    /// Visited-set fast path: realistic queries (paper §5: producers and
    /// consumers sit 1–2 non-tree hops apart) expand a handful of nodes,
    /// so a linear-scanned small vector beats hashing; the hash set only
    /// takes over when a query blows past the inline capacity.
    visited_small: Vec<usize>,
    visited: FxHashSet<usize>,
    /// Graph-mutation epoch: bumped exactly when an ordering edge is added
    /// between existing nodes — a real set union (merging `get`, finish
    /// end) or a newly stored non-tree predecessor. `on_task_create` /
    /// `on_task_end` never add edges between existing nodes, so they keep
    /// the epoch, and every cached `precede` verdict stays valid within
    /// one epoch (verdicts are monotone: they can only flip false→true,
    /// and only when an edge is added; see DESIGN S39).
    epoch: u64,
    /// Memoized `precede` verdicts keyed on `(Find(a), Find(b))` set
    /// representatives. Representatives are stable within an epoch (only
    /// unions change them, and unions bump the epoch), so entries are
    /// valid while `memo_epoch == epoch` and lazily cleared otherwise.
    memo: FxHashMap<(u32, u32), bool>,
    memo_epoch: u64,
    memo_enabled: bool,
    /// Counters.
    pub counters: DtrgCounters,
}

impl Default for Dtrg {
    fn default() -> Self {
        Self::new()
    }
}

impl Dtrg {
    /// Algorithm 1: initialization with the main task. Main gets the label
    /// `[0, MAXINT]`, no parent, no `lsa`.
    pub fn new() -> Self {
        let mut labeler = IntervalLabeler::new();
        let own = labeler.on_spawn();
        let mut sets = UnionFind::with_capacity(1024);
        let key = sets.make_set(SetData {
            interval: own,
            nt: NtSet::new(),
            lsa: None,
        });
        debug_assert_eq!(key, TaskId::MAIN.index());
        Dtrg {
            labeler,
            sets,
            task_parent: vec![NO_PARENT],
            task_kind: vec![TaskKind::Main],
            task_own: vec![own],
            visit_stack: Vec::new(),
            visited_small: Vec::new(),
            visited: FxHashSet::default(),
            epoch: 0,
            memo: FxHashMap::default(),
            memo_epoch: 0,
            memo_enabled: true,
            counters: DtrgCounters::default(),
        }
    }

    /// Number of tasks known (including main).
    pub fn task_count(&self) -> usize {
        self.task_own.len()
    }

    /// Per-task facts, assembled by value from the SoA columns.
    pub fn meta(&self, t: TaskId) -> TaskMeta {
        TaskMeta {
            parent: self.parent_of(t),
            kind: self.task_kind[t.index()],
            own: self.task_own[t.index()],
        }
    }

    /// Spawn-tree parent (`None` for main).
    #[inline]
    pub(crate) fn parent_of(&self, t: TaskId) -> Option<TaskId> {
        let p = self.task_parent[t.index()];
        if p == NO_PARENT {
            None
        } else {
            Some(TaskId(p))
        }
    }

    /// The paper's `IsFuture`.
    #[inline]
    pub(crate) fn is_future(&self, t: TaskId) -> bool {
        self.task_kind[t.index()].is_future()
    }

    /// Current graph-mutation epoch (see the field docs; the detector's
    /// shadow fast path keys its cached verdicts on this).
    #[inline]
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Enables or disables the `precede` memo table (enabled by default).
    /// Disabling also drops any cached verdicts, restoring the uncached
    /// pre-memo query path exactly.
    pub(crate) fn set_memo_enabled(&mut self, enabled: bool) {
        self.memo_enabled = enabled;
        if !enabled {
            self.memo.clear();
        }
    }

    /// Set attributes of the set currently containing `t`.
    pub fn set_data(&mut self, t: TaskId) -> &SetData {
        self.sets.payload(t.index())
    }

    /// True if `a` and `b` currently share a disjoint set.
    pub fn same_set(&mut self, a: TaskId, b: TaskId) -> bool {
        self.sets.same_set(a.index(), b.index())
    }

    /// Exact spawn-tree ancestry from the tasks' own labels: `a` is a weak
    /// ancestor of `d`.
    #[inline]
    pub fn is_ancestor(&self, a: TaskId, d: TaskId) -> bool {
        self.task_own[a.index()].contains(&self.task_own[d.index()])
    }

    /// Algorithm 2: task creation. Assigns the child its preorder value and
    /// a temporary postorder value, creates its singleton set, and derives
    /// its `lsa` from the parent's set.
    pub fn on_task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind) {
        debug_assert_eq!(child.index(), self.task_own.len(), "dense spawn-order ids");
        let own = self.labeler.on_spawn();
        let pdata = self.sets.payload(parent.index());
        let lsa = if pdata.nt.is_empty() {
            pdata.lsa
        } else {
            Some(parent)
        };
        let key = self.sets.make_set(SetData {
            interval: own,
            nt: NtSet::new(),
            lsa,
        });
        debug_assert_eq!(key, child.index());
        self.task_parent.push(parent.0);
        self.task_kind.push(kind);
        self.task_own.push(own);
    }

    /// Algorithm 3: task termination. Replaces the temporary postorder with
    /// the final one, on both the task's own label and its set's label (at
    /// termination the task is the ancestor-most member of its set, so the
    /// set's label is its label).
    pub fn on_task_end(&mut self, task: TaskId) {
        let post = self.labeler.on_terminate();
        self.task_own[task.index()].post = post;
        let data = self.sets.payload_mut(task.index());
        debug_assert_eq!(data.interval.pre, self.task_own[task.index()].pre);
        data.interval.post = post;
    }

    /// Algorithm 7: `Merge(S_A, S_B)` — union keeping `S_A`'s label and
    /// `lsa`, with `nt` the union of both sides. Bumps the mutation epoch
    /// only when the union actually joins two distinct sets (a repeated
    /// `get` on an already-merged future adds no edge, so cached verdicts
    /// stay valid).
    fn merge(&mut self, a: TaskId, b: TaskId) {
        self.counters.merges += 1;
        if self.sets.same_set(a.index(), b.index()) {
            return;
        }
        self.epoch += 1;
        let counters = &mut self.counters;
        self.sets.union_with(a.index(), b.index(), |pa, pb| {
            let mut nt = pa.nt;
            nt.merge_from(&pb.nt, counters);
            SetData {
                interval: pa.interval,
                nt,
                lsa: pa.lsa,
            }
        });
    }

    /// Algorithm 4: `get()` by task `a` on future task `b`. Merges when the
    /// whole ancestor chain between them has already joined (`Find-Set(a) ==
    /// Find-Set(b.parent)`), otherwise records a non-tree predecessor.
    pub fn on_get(&mut self, a: TaskId, b: TaskId) {
        self.counters.gets += 1;
        if !self.is_ancestor(a, b) {
            self.counters.graph_nt_joins += 1;
        }
        let bparent = self.parent_of(b).expect("future task has a parent");
        if self.sets.same_set(a.index(), bparent.index()) {
            self.counters.merging_gets += 1;
            self.merge(a, b);
        } else {
            self.counters.nt_edges += 1;
            let data = self.sets.payload_mut(a.index());
            if data.nt.insert(b, &mut self.counters) {
                self.epoch += 1;
            }
        }
    }

    /// Algorithm 6: end of finish `F` executed by `a`; every task in
    /// `F.joins` (tasks whose IEF is `F`) merges into `a`'s set.
    pub(crate) fn on_finish_end(&mut self, a: TaskId, joined: &[TaskId]) {
        for &b in joined {
            self.merge(a, b);
        }
    }

    /// The paper's `Precede(T_A, T_B)` (Algorithm 10), asked while `b` is
    /// the currently executing task (or, recursively, a recorded
    /// predecessor): true iff every step of `a` executed so far must
    /// precede `b`'s current step in the computation graph.
    ///
    /// Iterative `Visit`: expands `b`, then `b`'s non-tree predecessors and
    /// the non-tree predecessors of `b`'s significant-ancestor chain,
    /// transitively, pruning nodes whose set preorder is below `a`'s
    /// (non-tree sources always have lower preorder than their sinks in a
    /// race-free execution) and nodes already visited.
    pub fn precede(&mut self, a: TaskId, b: TaskId) -> bool {
        self.counters.precede_calls += 1;
        if a == b {
            return true;
        }
        let ra = self.sets.find(a.index());
        let la = self.sets.payload_no_compress(ra).interval;

        // Memoized path: the first `Visit` iteration's two O(1) verdicts
        // (same set, ancestor subsumption) are answered without touching
        // the work stack, and full traversal results are cached per
        // representative pair until the next graph mutation. Disabled mode
        // falls through to the exact pre-memo query below (the perf
        // harness's before/after baseline).
        let mut memo_key = None;
        if self.memo_enabled {
            let rb = self.sets.find(b.index());
            if rb == ra {
                return true;
            }
            let lb = self.sets.payload_no_compress(rb).interval;
            if la.contains(&lb) {
                return true;
            }
            if self.memo_epoch != self.epoch {
                self.memo.clear();
                self.memo_epoch = self.epoch;
            }
            let key = (ra as u32, rb as u32);
            if let Some(&v) = self.memo.get(&key) {
                self.counters.memo_hits += 1;
                return v;
            }
            self.counters.memo_misses += 1;
            memo_key = Some(key);
        }

        debug_assert!(self.visit_stack.is_empty());
        self.visited_small.clear();
        let mut spilled = false;
        self.visit_stack.push(b);

        // Inline capacity of the small visited set; past this, spill into
        // the hash set (rare: only adversarially long non-tree chains).
        const SMALL: usize = 24;

        // Breadth-first examination order (index walk = FIFO): the paper
        // observes producers and consumers sit 1–2 non-tree hops apart, so
        // the target is almost always among the nearest predecessors —
        // depth-first order would wander into older regions of the graph
        // before examining near siblings (measured 5–50× more expansions
        // on the Jacobi wavefront).
        let mut head = 0usize;
        let mut found = false;
        'visit: while head < self.visit_stack.len() {
            let t = self.visit_stack[head];
            head += 1;
            let rt = self.sets.find(t.index());
            // Visited check: linear scan of the small vec, hash set once
            // spilled.
            if spilled {
                if !self.visited.insert(rt) {
                    continue;
                }
            } else if self.visited_small.contains(&rt) {
                continue;
            } else if self.visited_small.len() < SMALL {
                self.visited_small.push(rt);
            } else {
                self.visited.clear();
                self.visited.extend(self.visited_small.iter().copied());
                self.visited.insert(rt);
                spilled = true;
            }
            self.counters.visit_expansions += 1;
            if rt == ra {
                found = true;
                break;
            }
            let data = self.sets.payload_no_compress(rt);
            let lt = data.interval;
            // Lines 6–11: the interval of A's set subsumes the interval of
            // B's set — A's set is an ancestor along tree joins.
            if la.contains(&lt) {
                found = true;
                break;
            }
            // Lines 12–14 (prune): if this set finished before A's set was
            // even spawned, no step of A can reach into it (paths respect
            // serial execution order, Lemma 2), so its predecessors cannot
            // lead back to A either. Note the comparison uses the set's
            // *final* postorder: a live set carries a temporary postorder
            // far above every preorder, so live sets are never pruned. The
            // paper prunes on preorder ("the source of a non-tree join edge
            // has a lower preorder than the sink"), which holds for task
            // labels but not for merged-set labels — a set merged into a
            // low-preorder ancestor would be pruned while still carrying
            // explorable non-tree predecessors, so we prune on the
            // completion-order test instead.
            if lt.post < la.pre {
                continue;
            }
            // Lines 15–20: immediate non-tree predecessors of this node.
            // (`visit_stack` and `sets` are disjoint fields, so the borrows
            // split.) Here and on the chain below, a set that stores `a`
            // itself answers true at once: the walk would push `a`, pop it
            // and find `Find(a) == ra`, as it leaves early only on `found`
            // (DESIGN S39).
            if data.nt.contains(a) {
                found = true;
                break;
            }
            self.visit_stack.extend_from_slice(data.nt.as_slice());
            // Lines 21–29: walk the significant-ancestor chain, exploring
            // each significant set's non-tree predecessors.
            let mut anc = data.lsa;
            while let Some(x) = anc {
                let rx = self.sets.find_no_compress(x.index());
                if spilled {
                    if !self.visited.insert(rx) {
                        break; // chain tail already explored
                    }
                } else if self.visited_small.contains(&rx) {
                    break;
                } else if self.visited_small.len() < SMALL {
                    self.visited_small.push(rx);
                } else {
                    self.visited.clear();
                    self.visited.extend(self.visited_small.iter().copied());
                    self.visited.insert(rx);
                    spilled = true;
                }
                self.counters.visit_expansions += 1;
                let adata = self.sets.payload_no_compress(rx);
                if adata.nt.contains(a) {
                    found = true;
                    break 'visit;
                }
                self.visit_stack.extend_from_slice(adata.nt.as_slice());
                anc = adata.lsa;
            }
        }
        self.visit_stack.clear();
        if let Some(key) = memo_key {
            self.memo.insert(key, found);
        }
        found
    }

    /// Exact ancestor query by walking parent pointers — the naive
    /// alternative to the O(1) interval-label subsumption test, kept for
    /// the ablation bench (`benches/ablation.rs`) that quantifies what the
    /// labeling scheme buys.
    pub fn is_ancestor_walk(&self, a: TaskId, d: TaskId) -> bool {
        let mut cur = d;
        loop {
            if cur == a {
                return true;
            }
            match self.parent_of(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Total non-tree predecessor entries currently stored across all sets
    /// — the `O(n)` term of Theorem 1's space bound.
    pub(crate) fn stored_nt_edges(&self) -> usize {
        self.sets.sets().map(|(_, d)| d.nt.len()).sum()
    }

    /// The spawn path from the main task to `t` (inclusive), for race
    /// reports: "who created the racing task".
    pub(crate) fn spawn_path(&self, t: TaskId) -> Vec<TaskId> {
        let mut path = vec![t];
        let mut cur = t;
        while let Some(p) = self.parent_of(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Helper mirroring the executor's event order for hand-built
    /// scenarios: spawn a child, run `body`-style events, end it.
    struct Driver {
        g: Dtrg,
        next: u32,
    }

    impl Driver {
        fn new() -> Self {
            Driver {
                g: Dtrg::new(),
                next: 1,
            }
        }
        fn spawn(&mut self, parent: TaskId, kind: TaskKind) -> TaskId {
            let c = TaskId(self.next);
            self.next += 1;
            self.g.on_task_create(parent, c, kind);
            c
        }
    }

    const M: TaskId = TaskId::MAIN;

    #[test]
    fn init_state() {
        let mut g = Dtrg::new();
        assert_eq!(g.task_count(), 1);
        assert!(!g.is_future(M));
        assert_eq!(g.meta(M).parent, None);
        assert_eq!(g.set_data(M).lsa, None);
        assert!(g.set_data(M).nt.is_empty());
        assert_eq!(g.set_data(M).interval.pre, 0);
    }

    #[test]
    fn precede_same_task() {
        let mut g = Dtrg::new();
        assert!(g.precede(M, M));
    }

    #[test]
    fn ancestor_precedes_running_descendant() {
        // main spawns A (still running): main's completed steps precede A.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        assert!(d.g.precede(M, a), "ancestor set contains descendant");
        assert!(!d.g.precede(a, M), "running child is parallel to parent");
    }

    #[test]
    fn completed_unjoined_future_is_parallel() {
        // main spawns future A; A ends; no get. A's steps are parallel to
        // main's continuation.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        assert!(!d.g.precede(a, M));
        assert!(d.g.precede(M, a)); // main's earlier steps precede A
    }

    #[test]
    fn parent_get_merges_and_orders() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        d.g.on_get(M, a); // Find-Set(M) == Find-Set(A.parent=M): merge
        assert!(d.g.same_set(M, a));
        assert!(d.g.precede(a, M), "after get, A precedes main");
        assert_eq!(d.g.counters.merging_gets, 1);
        assert_eq!(d.g.counters.nt_edges, 0);
        assert_eq!(
            d.g.counters.graph_nt_joins, 0,
            "ancestor get is a tree join"
        );
    }

    #[test]
    fn sibling_get_records_non_tree_edge() {
        // main spawns future A (ends), then future B which gets A.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a); // Find-Set(B) != Find-Set(A.parent=M)
        assert!(!d.g.same_set(a, b));
        assert_eq!(d.g.counters.nt_edges, 1);
        assert_eq!(d.g.counters.graph_nt_joins, 1);
        assert!(d.g.precede(a, b), "A precedes B via the non-tree edge");
        assert!(!d.g.precede(b, a));
        // Main's completed steps (before spawning B) also precede B.
        assert!(d.g.precede(M, b));
    }

    #[test]
    fn finish_end_merges_all_ief_tasks() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Async);
        let b = d.spawn(a, TaskKind::Async); // same IEF as a
        d.g.on_task_end(b);
        d.g.on_task_end(a);
        assert!(!d.g.precede(a, M));
        assert!(!d.g.precede(b, M));
        d.g.on_finish_end(M, &[a, b]);
        assert!(d.g.same_set(M, a));
        assert!(d.g.same_set(M, b));
        assert!(d.g.precede(a, M));
        assert!(d.g.precede(b, M));
    }

    #[test]
    fn transitive_non_tree_paths() {
        // Figure-1 shape: A; B gets A; C gets B; main gets C.
        // Then A must precede main transitively.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a);
        d.g.on_task_end(b);
        let c = d.spawn(M, TaskKind::Future);
        d.g.on_get(c, b);
        d.g.on_task_end(c);
        d.g.on_get(M, c); // merge C into main's set
        assert!(d.g.precede(c, M));
        assert!(d.g.precede(b, M), "via C's non-tree predecessor");
        assert!(d.g.precede(a, M), "two non-tree hops");
        assert_eq!(d.g.counters.nt_edges, 2);
    }

    #[test]
    fn lsa_chain_orders_descendants_of_getter() {
        // A ends; main gets A via... no: main spawns A (future, ends),
        // then B gets A (non-tree), B spawns C. A must precede C because
        // C's lsa is B and B's nt contains A.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a);
        let c = d.spawn(b, TaskKind::Future);
        assert_eq!(d.g.set_data(c).lsa, Some(b));
        assert!(d.g.precede(a, c), "join into ancestor B precedes C");
        // And deeper descendants inherit the lsa (C performed no non-tree
        // join itself, so E's lsa is still B).
        let e = d.spawn(c, TaskKind::Async);
        assert_eq!(d.g.set_data(e).lsa, Some(b));
    }

    #[test]
    fn lsa_inherited_when_parent_has_no_nt() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a); // b.nt = {a}
        let c = d.spawn(b, TaskKind::Future); // lsa = b (b has nt)
        let e = d.spawn(c, TaskKind::Future); // c has no nt: lsa inherited = b
        assert_eq!(d.g.set_data(c).lsa, Some(b));
        assert_eq!(d.g.set_data(e).lsa, Some(b));
        assert!(
            d.g.precede(a, e),
            "a -> b join visible from e via lsa chain"
        );
    }

    #[test]
    fn unrelated_siblings_are_parallel() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        assert!(!d.g.precede(a, b));
        assert!(!d.g.precede(b, a));
    }

    #[test]
    fn merge_keeps_ancestor_label() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let main_label = d.g.set_data(M).interval;
        d.g.on_get(M, a);
        assert_eq!(
            d.g.set_data(a).interval,
            main_label,
            "merged set keeps main's label"
        );
    }

    #[test]
    fn merge_unions_nt_lists() {
        // B gets A (nt edge), then main gets B (merge B into main's set):
        // main's set must inherit B's nt predecessor A.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a);
        d.g.on_task_end(b);
        d.g.on_get(M, b);
        assert!(d.g.set_data(M).nt.contains(a));
    }

    #[test]
    fn repeated_gets_on_same_future_are_idempotent() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a);
        d.g.on_get(b, a);
        assert_eq!(d.g.set_data(b).nt.len(), 1);
        assert_eq!(d.g.counters.gets, 2);
    }

    #[test]
    fn preorder_prune_blocks_later_tasks() {
        // B spawned after A ended and never joined: B cannot precede A's
        // set members, and precede(B, anything-earlier) is false quickly.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(b);
        assert!(!d.g.precede(b, a));
    }

    #[test]
    fn counters_track_queries() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let before = d.g.counters.precede_calls;
        let _ = d.g.precede(a, M);
        let _ = d.g.precede(M, a);
        assert_eq!(d.g.counters.precede_calls, before + 2);
        assert!(d.g.counters.visit_expansions > 0);
    }

    #[test]
    fn memo_epoch_invalidates_on_get() {
        // A ends unjoined; B is a later sibling, so precede(A, B) is false
        // and the verdict lands in the memo. B's get() then stores a
        // non-tree edge, which must bump the epoch and flip the recomputed
        // verdict to true.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        assert!(!d.g.precede(a, b));
        assert_eq!(d.g.counters.memo_misses, 1);
        assert!(!d.g.precede(a, b), "repeat query served from the memo");
        assert_eq!(d.g.counters.memo_hits, 1);

        let e0 = d.g.epoch();
        d.g.on_get(b, a); // non-tree edge
        assert!(d.g.epoch() > e0, "stored nt edge must bump the epoch");
        assert!(d.g.precede(a, b), "stale memo entry must not survive");
        assert_eq!(d.g.counters.memo_hits, 1, "post-bump query recomputes");
    }

    #[test]
    fn memo_epoch_invalidates_on_finish_end() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Async);
        d.g.on_task_end(a);
        assert!(!d.g.precede(a, M), "unjoined async is parallel to main");
        let e0 = d.g.epoch();
        d.g.on_finish_end(M, &[a]); // merge: an ordering edge appears
        assert!(d.g.epoch() > e0, "finish-end merge must bump the epoch");
        assert!(d.g.precede(a, M), "verdict flips after the merge");
    }

    #[test]
    fn idempotent_operations_keep_the_epoch() {
        // Epoch bumps only on *actual* graph mutations: repeated gets on
        // an already-recorded future (both the nt-edge and merged shapes)
        // and plain task create/end add no edges between existing nodes.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a);
        let e = d.g.epoch();
        d.g.on_get(b, a); // nt edge already stored
        assert_eq!(d.g.epoch(), e);
        d.g.on_task_end(b);
        d.g.on_get(M, a); // merge A into main's set
        let e = d.g.epoch();
        d.g.on_get(M, a); // already merged
        assert_eq!(d.g.epoch(), e);
        let c = d.spawn(M, TaskKind::Async);
        d.g.on_task_end(c);
        assert_eq!(d.g.epoch(), e, "create/end add no edges");
    }

    #[test]
    fn memo_disabled_matches_enabled_verdicts() {
        let build = |memo: bool| {
            let mut d = Driver::new();
            d.g.set_memo_enabled(memo);
            let a = d.spawn(M, TaskKind::Future);
            d.g.on_task_end(a);
            let b = d.spawn(M, TaskKind::Future);
            d.g.on_get(b, a);
            let c = d.spawn(b, TaskKind::Future);
            let tasks = [M, a, b, c];
            let mut verdicts = Vec::new();
            for x in tasks {
                for y in tasks {
                    verdicts.push(d.g.precede(x, y));
                    verdicts.push(d.g.precede(x, y)); // repeat: memo path
                }
            }
            (verdicts, d.g.counters)
        };
        let (with, cw) = build(true);
        let (without, cwo) = build(false);
        assert_eq!(with, without);
        assert_eq!(cw.precede_calls, cwo.precede_calls);
        assert!(cw.memo_hits > 0, "repeat queries must hit the memo");
        assert_eq!(
            cwo.memo_hits + cwo.memo_misses,
            0,
            "disabled mode never memoizes"
        );
        assert!(
            cw.visit_expansions < cwo.visit_expansions,
            "memo must save traversal work: {} vs {}",
            cw.visit_expansions,
            cwo.visit_expansions
        );
    }

    /// A spilled set's hash index holds exactly the entries of its vector.
    fn assert_index_agrees(s: &NtSet) {
        if let NtRepr::Spilled { order, index } = &s.0 {
            assert_eq!(index.len(), order.len(), "index and vector sizes differ");
            assert!(order.iter().all(|t| index.contains(t)));
        }
    }

    #[test]
    fn nt_set_spills_past_inline_capacity() {
        let mut c = DtrgCounters::default();
        let mut s = NtSet::new();
        assert!(s.is_empty());
        for i in 1..=4u32 {
            assert!(s.insert(TaskId(i), &mut c));
        }
        assert!(matches!(s.0, NtRepr::Inline { .. }));
        // Inline probes count every entry scanned: 0 + 1 + 2 + 3.
        assert_eq!(c.nt_probe_steps, 6);
        assert!(!s.insert(TaskId(2), &mut c), "duplicate is rejected");
        assert_eq!(c.nt_probe_steps, 8, "scan stops at the match");
        for i in 5..=9u32 {
            assert!(s.insert(TaskId(i), &mut c));
        }
        assert!(matches!(s.0, NtRepr::Spilled { .. }));
        // The spilling insert scans 4; each later one is one hashed lookup.
        assert_eq!(c.nt_probe_steps, 8 + 4 + 4);
        assert!(!s.insert(TaskId(9), &mut c), "duplicate is rejected");
        assert!(!s.insert(TaskId(1), &mut c), "duplicate is rejected");
        assert_eq!(c.nt_probe_steps, 18);
        let ids = |v: &[u32]| v.iter().map(|&i| TaskId(i)).collect::<Vec<_>>();
        assert_eq!(s.as_slice(), ids(&[1, 2, 3, 4, 5, 6, 7, 8, 9]));
        assert!(s.contains(TaskId(4)) && !s.contains(TaskId(10)));
        assert_index_agrees(&s);
        assert_eq!(c.nt_moved, 0, "inserts move nothing");

        let mut t = NtSet::new();
        t.insert(TaskId(12), &mut c);
        t.insert(TaskId(4), &mut c);
        let mut c = DtrgCounters::default();
        t.merge_from(&s, &mut c);
        // `t`'s entries first, then `s`'s new ones in `s`'s order; the 4
        // already present is not copied again.
        assert_eq!(t.as_slice(), ids(&[12, 4, 1, 2, 3, 5, 6, 7, 8, 9]));
        assert_eq!(c.nt_moved, 8);
        assert_index_agrees(&t);
        // Merging into a spilled set probes each entry once.
        let mut u = DtrgCounters::default();
        t.merge_from(&s, &mut u);
        assert_eq!((u.nt_probe_steps, u.nt_moved), (9, 0));
        assert_eq!(t.len(), 10);
        assert_index_agrees(&t);
    }

    #[test]
    fn visit_stops_at_a_stored_predecessor() {
        // Consumer B gets 1,024 completed sibling futures, so its set
        // stores all of them as non-tree predecessors. The walk finds the
        // last stored one in B's own `nt`: no need to pop the 1,023 before
        // it.
        let mut d = Driver::new();
        let producers: Vec<TaskId> = (0..1024)
            .map(|_| {
                let p = d.spawn(M, TaskKind::Future);
                d.g.on_task_end(p);
                p
            })
            .collect();
        let b = d.spawn(M, TaskKind::Future);
        for &p in &producers {
            d.g.on_get(b, p);
        }
        assert_eq!(d.g.set_data(b).nt.len(), 1024);
        for p in [producers[1023], producers[0]] {
            let before = d.g.counters.visit_expansions;
            assert!(d.g.precede(p, b));
            let walked = d.g.counters.visit_expansions - before;
            assert!(
                walked <= 2,
                "{walked} expansions to find a stored predecessor"
            );
        }
        // Through the lsa chain: C's lsa is B, whose set stores the
        // producers.
        let c = d.spawn(b, TaskKind::Future);
        let before = d.g.counters.visit_expansions;
        assert!(d.g.precede(producers[1023], c));
        assert!(d.g.counters.visit_expansions - before <= 2);
        // A walk that finds nothing still answers false: a sibling
        // spawned after B is unordered with C.
        let late = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(late);
        assert!(!d.g.precede(late, c));
    }
}

#[cfg(test)]
mod spill_tests {
    use super::*;
    use futrace_runtime::monitor::TaskKind;

    /// Builds a long pure non-tree chain (future i gets future i−1) plus a
    /// disconnected straggler, forcing `precede`'s small-visited-set to
    /// spill into the hash set on the negative query.
    #[test]
    fn visited_set_spill_path_is_correct() {
        let mut g = Dtrg::new();
        let main = TaskId::MAIN;
        let n = 200u32;
        for i in 1..=n {
            g.on_task_create(main, TaskId(i), TaskKind::Future);
            if i > 1 {
                g.on_get(TaskId(i), TaskId(i - 1));
            }
            g.on_task_end(TaskId(i));
        }
        // Straggler future created last, never joined to the chain.
        let straggler = TaskId(n + 1);
        g.on_task_create(main, straggler, TaskKind::Future);
        g.on_task_end(straggler);

        // Positive long-range query: walks (and spills) the whole chain.
        assert!(g.precede(TaskId(1), TaskId(n)));
        // Negative query from the straggler: nothing reaches it.
        assert!(!g.precede(straggler, TaskId(n)));
        // Negative long-range reverse query: must visit every chain node
        // (spilling) and still answer false.
        assert!(!g.precede(TaskId(n), TaskId(1)));
        // Re-querying after spills stays consistent (scratch reuse).
        assert!(g.precede(TaskId(7), TaskId(n)));
        assert!(!g.precede(TaskId(n), TaskId(7)));
    }
}
