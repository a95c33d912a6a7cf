//! Dynamic interval labeling of the spawn tree (§4.1 of the paper).
//!
//! Every task is assigned a label `[pre, post]`. `pre` is the preorder
//! number, assigned when the task is spawned; because race detection is
//! on-the-fly, the final postorder number is unknown until the task
//! terminates, so a *temporary* postorder value is assigned at spawn time,
//! taken from a counter that starts at `MAXINT` and decreases
//! (Algorithms 1–2), and replaced by the real value at termination
//! (Algorithm 3).
//!
//! The scheme maintains the classic subsumption invariant at every moment of
//! the serial depth-first execution: task `x` is a (weak) ancestor of task
//! `y` **iff** `x.pre <= y.pre && y.post >= ... `— concretely,
//! [`Interval::contains`] — because
//!
//! * live (unterminated) tasks form the current spawn stack; the temporary
//!   postorders decrease with depth, so a deeper live task's interval nests
//!   inside every live ancestor's interval;
//! * a terminated task's final postorder is drawn from the same counter as
//!   preorders (`dfid`), so it is larger than the `pre` of every descendant
//!   (all of which spawned before it terminated) and smaller than the
//!   temporary postorder of every live ancestor.
//!
//! Note the `dfid` counter is shared between preorders and final postorders,
//! exactly as in Algorithms 1–3 (`S_C.post ← dfid; dfid ← dfid + 1`).

/// The largest value the temporary-postorder counter starts from.
///
/// Using `u64::MAX / 2` leaves headroom so `dfid` (counting up) and `tmpid`
/// (counting down) can never collide in any realistic execution: that would
/// require more than 2^62 task events.
pub const TMPID_START: u64 = u64::MAX / 2;

/// An interval label `[pre, post]` in the dynamic spawn-tree numbering.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Interval {
    /// Preorder number, final from the moment of spawn.
    pub pre: u64,
    /// Postorder number; temporary (large) while the task is live, final
    /// once it has terminated.
    pub post: u64,
}

impl Interval {
    /// True if this interval subsumes `other`, i.e. the task (or disjoint
    /// set) labeled `self` is a weak ancestor of the one labeled `other`
    /// in the spawn tree (`x.pre <= y.pre && y.post <= x.post`).
    #[inline]
    pub fn contains(&self, other: &Interval) -> bool {
        self.pre <= other.pre && other.post <= self.post
    }

    /// True if the two intervals are disjoint (neither contains the other).
    /// In a well-formed labeling, intervals are laminar: any two are either
    /// nested or disjoint.
    #[inline]
    pub fn disjoint(&self, other: &Interval) -> bool {
        !self.contains(other) && !other.contains(self)
    }
}

/// Hands out interval labels during a serial depth-first execution,
/// implementing the `dfid` / `tmpid` counters of Algorithms 1–3.
#[derive(Clone, Debug)]
pub struct IntervalLabeler {
    dfid: u64,
    tmpid: u64,
}

impl Default for IntervalLabeler {
    fn default() -> Self {
        Self::new()
    }
}

impl IntervalLabeler {
    /// Fresh labeler; the first label handed out belongs to the main task
    /// and is `[0, TMPID_START]`.
    pub fn new() -> Self {
        IntervalLabeler {
            dfid: 0,
            tmpid: TMPID_START,
        }
    }

    /// Called when a task is spawned (Algorithm 2 lines 2–5): assigns the
    /// next preorder value and a temporary postorder value.
    pub fn on_spawn(&mut self) -> Interval {
        let pre = self.dfid;
        self.dfid += 1;
        let post = self.tmpid;
        self.tmpid -= 1;
        Interval { pre, post }
    }

    /// Called when a task terminates (Algorithm 3): returns the final
    /// postorder value and releases the temporary one.
    pub fn on_terminate(&mut self) -> u64 {
        let post = self.dfid;
        self.dfid += 1;
        self.tmpid += 1;
        post
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::{self, strategies, Config};

    #[test]
    fn main_task_label() {
        let mut l = IntervalLabeler::new();
        let main = l.on_spawn();
        assert_eq!(main.pre, 0);
        assert_eq!(main.post, TMPID_START);
    }

    #[test]
    fn contains_basics() {
        let a = Interval { pre: 0, post: 100 };
        let b = Interval { pre: 1, post: 50 };
        let c = Interval { pre: 60, post: 70 };
        assert!(a.contains(&b));
        assert!(a.contains(&c));
        assert!(!b.contains(&c));
        assert!(b.disjoint(&c));
        assert!(a.contains(&a), "contains is reflexive");
    }

    /// Drive the labeler through a bracket sequence representing a
    /// depth-first execution and collect final labels plus the spawn tree.
    fn run_tree(brackets: &str) -> (Vec<Interval>, Vec<Option<usize>>) {
        let mut l = IntervalLabeler::new();
        let mut labels = vec![l.on_spawn()]; // main task
        let mut parents: Vec<Option<usize>> = vec![None];
        let mut stack = vec![0usize];
        for ch in brackets.chars() {
            match ch {
                '(' => {
                    let id = labels.len();
                    labels.push(l.on_spawn());
                    parents.push(stack.last().copied());
                    stack.push(id);
                }
                ')' => {
                    let id = stack.pop().expect("balanced");
                    labels[id].post = l.on_terminate();
                }
                _ => unreachable!(),
            }
        }
        // Terminate anything still live, deepest first (including main).
        while let Some(id) = stack.pop() {
            labels[id].post = l.on_terminate();
        }
        (labels, parents)
    }

    fn is_ancestor(parents: &[Option<usize>], a: usize, mut d: usize) -> bool {
        loop {
            if a == d {
                return true;
            }
            match parents[d] {
                Some(p) => d = p,
                None => return false,
            }
        }
    }

    #[test]
    fn labels_encode_ancestry_after_completion() {
        let (labels, parents) = run_tree("(()())(())()");
        let n = labels.len();
        for a in 0..n {
            for d in 0..n {
                assert_eq!(
                    labels[a].contains(&labels[d]),
                    is_ancestor(&parents, a, d),
                    "tasks {a} vs {d}"
                );
            }
        }
    }

    #[test]
    fn labels_encode_ancestry_mid_execution() {
        // Check the invariant at *every* prefix of the execution, where some
        // tasks still carry temporary postorders — the on-the-fly situation
        // the scheme was designed for.
        let brackets = "(()(()))(()())";
        for cut in 0..=brackets.len() {
            let (labels, parents) = run_tree(&brackets[..cut]);
            let n = labels.len();
            for a in 0..n {
                for d in 0..n {
                    assert_eq!(
                        labels[a].contains(&labels[d]),
                        is_ancestor(&parents, a, d),
                        "prefix {cut}: tasks {a} vs {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn terminate_releases_tmpid() {
        let mut l = IntervalLabeler::new();
        let _main = l.on_spawn();
        let t0 = l.tmpid;
        let _c = l.on_spawn();
        assert_eq!(l.tmpid, t0 - 1);
        l.on_terminate();
        assert_eq!(l.tmpid, t0, "tmpid is released on termination");
    }

    /// Random bracket strings (random depth-first spawn trees): random
    /// open/close soup repaired into a balanced-prefix sequence by
    /// dropping unmatched ')'. Shrinking drops/shrinks soup characters,
    /// so counterexamples minimize to the smallest failing tree.
    fn bracket_strategy() -> impl propcheck::Strategy<Repr = Vec<u8>, Value = String> {
        strategies::map(
            strategies::vec_of(strategies::u8_range(0..2), 0, 120),
            |bits: Vec<u8>| {
                let mut depth = 0i32;
                let mut s = String::new();
                for b in bits {
                    match b {
                        1 => {
                            depth += 1;
                            s.push('(');
                        }
                        _ if depth > 0 => {
                            depth -= 1;
                            s.push(')');
                        }
                        _ => {}
                    }
                }
                s
            },
        )
    }

    /// The laminar-family property: at any point of any depth-first
    /// execution, any two task intervals are nested or disjoint, and
    /// containment coincides with spawn-tree ancestry.
    #[test]
    fn interval_labels_are_laminar_and_exact() {
        propcheck::check(&Config::default(), &bracket_strategy(), |brackets| {
            let (labels, parents) = run_tree(&brackets);
            let n = labels.len();
            for a in 0..n {
                for d in 0..n {
                    assert_eq!(
                        labels[a].contains(&labels[d]),
                        is_ancestor(&parents, a, d),
                        "brackets {brackets:?}: tasks {a} vs {d}"
                    );
                    assert!(
                        labels[a].contains(&labels[d])
                            || labels[d].contains(&labels[a])
                            || labels[a].disjoint(&labels[d]),
                        "brackets {brackets:?}: not laminar for {a} vs {d}"
                    );
                }
            }
        });
    }

    /// Preorder values are unique and assigned in spawn order.
    #[test]
    fn preorders_strictly_increase() {
        propcheck::check(&Config::default(), &bracket_strategy(), |brackets| {
            let (labels, _) = run_tree(&brackets);
            for w in labels.windows(2) {
                assert!(w[0].pre < w[1].pre, "brackets {brackets:?}");
            }
        });
    }
}
