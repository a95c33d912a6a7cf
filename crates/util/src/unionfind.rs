//! Disjoint-set forest (union-find) with payloads attached to set
//! representatives.
//!
//! The paper's DTRG partitions tasks into disjoint sets connected by
//! tree-join and continue edges (§4.1). Each set carries attributes — the
//! interval label, the set of incoming non-tree edges `nt`, and the lowest
//! significant ancestor `lsa` — which the `Merge` operation (Algorithm 7)
//! combines. This module provides the generic machinery: a classic
//! union-find with *union by rank* and *path compression* (amortized
//! `O(α(m,n))`, [CLRS ch. 21]) where each set's payload lives at its current
//! representative and moves when sets merge.
//!
//! Unlike textbook union-find, `union` here is **directed**: the caller
//! decides which payload survives by providing a combining closure, because
//! Algorithm 7 keeps the *ancestor-most* set's label and `lsa` while
//! unioning the `nt` sets.

/// A disjoint-set forest over dense `usize` keys, with one payload `P` per
/// set stored at the representative.
#[derive(Clone, Debug)]
pub struct UnionFind<P> {
    /// parent[i] == i for representatives.
    parent: Vec<u32>,
    /// Union-by-rank rank; only meaningful for representatives.
    rank: Vec<u8>,
    /// payload[i] is `Some` iff `i` is currently a representative.
    payload: Vec<Option<P>>,
}

impl<P> Default for UnionFind<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> UnionFind<P> {
    /// Creates an empty forest.
    pub fn new() -> Self {
        UnionFind {
            parent: Vec::new(),
            rank: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Creates an empty forest with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        UnionFind {
            parent: Vec::with_capacity(cap),
            rank: Vec::with_capacity(cap),
            payload: Vec::with_capacity(cap),
        }
    }

    /// `Make-Set(x)`: creates a fresh singleton set with the given payload
    /// and returns its key. Keys are dense and handed out in creation order,
    /// so callers can use task ids directly.
    pub fn make_set(&mut self, payload: P) -> usize {
        let key = self.parent.len();
        let key32 = u32::try_from(key).expect("union-find key space exhausted");
        self.parent.push(key32);
        self.rank.push(0);
        self.payload.push(Some(payload));
        key
    }

    /// `Find-Set(x)`: returns the representative of `x`'s set, compressing
    /// the path on the way.
    pub fn find(&mut self, x: usize) -> usize {
        debug_assert!(x < self.parent.len(), "find on unknown key {x}");
        // Iterative two-pass path compression: find the root, then repoint
        // every node on the path directly at it.
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = x;
        while self.parent[cur] as usize != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Read-only find that does not compress paths (usable through `&self`).
    pub fn find_no_compress(&self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        root
    }

    /// True if `a` and `b` are currently in the same set.
    pub fn same_set(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Immutable access to the payload of the set containing `x`.
    pub fn payload(&mut self, x: usize) -> &P {
        let r = self.find(x);
        self.payload[r].as_ref().expect("representative payload")
    }

    /// Mutable access to the payload of the set containing `x`.
    pub fn payload_mut(&mut self, x: usize) -> &mut P {
        let r = self.find(x);
        self.payload[r].as_mut().expect("representative payload")
    }

    /// Payload access without path compression (for `&self` contexts).
    pub fn payload_no_compress(&self, x: usize) -> &P {
        let r = self.find_no_compress(x);
        self.payload[r].as_ref().expect("representative payload")
    }

    /// `Union(A, B)` with payload combination: merges the sets containing
    /// `a` and `b`. The surviving payload is `combine(payload_a, payload_b)`
    /// where `payload_a` belonged to `a`'s set. Returns the new
    /// representative. If `a` and `b` are already in the same set, the
    /// payload is untouched and the current representative returned — the
    /// paper's `Merge` may legitimately be called on already-merged sets
    /// (e.g. a `get()` followed by the end of the enclosing finish).
    pub fn union_with(
        &mut self,
        a: usize,
        b: usize,
        combine: impl FnOnce(P, P) -> P,
    ) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let pa = self.payload[ra].take().expect("payload a");
        let pb = self.payload[rb].take().expect("payload b");
        let merged = combine(pa, pb);
        // Union by rank for the tree shape; the payload always follows the
        // surviving representative regardless of which side "wins" rank-wise.
        let (winner, loser) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[loser] = winner as u32;
        if self.rank[winner] == self.rank[loser] {
            self.rank[winner] += 1;
        }
        self.payload[winner] = Some(merged);
        winner
    }

    /// Iterator over current representatives and their payloads.
    pub fn sets(&self) -> impl Iterator<Item = (usize, &P)> {
        self.payload
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (i, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::{self, strategies, Config};

    impl<P> UnionFind<P> {
        /// Number of distinct sets currently in the forest.
        fn set_count(&self) -> usize {
            self.payload.iter().filter(|p| p.is_some()).count()
        }
    }

    #[test]
    fn singletons_are_their_own_reps() {
        let mut uf: UnionFind<u32> = UnionFind::new();
        let a = uf.make_set(10);
        let b = uf.make_set(20);
        assert_eq!(uf.find(a), a);
        assert_eq!(uf.find(b), b);
        assert_eq!(*uf.payload(a), 10);
        assert_eq!(*uf.payload(b), 20);
        assert_eq!(uf.set_count(), 2);
    }

    #[test]
    fn union_combines_payloads() {
        let mut uf: UnionFind<Vec<u32>> = UnionFind::new();
        let a = uf.make_set(vec![1]);
        let b = uf.make_set(vec![2]);
        let c = uf.make_set(vec![3]);
        uf.union_with(a, b, |mut x, y| {
            x.extend(y);
            x
        });
        assert!(uf.same_set(a, b));
        assert!(!uf.same_set(a, c));
        let mut merged = uf.payload(a).clone();
        merged.sort_unstable();
        assert_eq!(merged, vec![1, 2]);
        assert_eq!(uf.set_count(), 2);
    }

    #[test]
    fn union_of_same_set_is_noop() {
        let mut uf: UnionFind<u32> = UnionFind::new();
        let a = uf.make_set(1);
        let b = uf.make_set(2);
        uf.union_with(a, b, |x, y| x + y);
        let before = *uf.payload(a);
        uf.union_with(a, b, |x, y| x + y + 100);
        assert_eq!(*uf.payload(a), before, "repeat union must not re-combine");
    }

    #[test]
    fn directed_combine_keeps_first_argument_semantics() {
        // Algorithm 7 keeps S_A's label; model the label as the payload and
        // check the combiner sees (payload of `a`'s set, payload of `b`'s set).
        let mut uf: UnionFind<&'static str> = UnionFind::new();
        let a = uf.make_set("ancestor");
        let b = uf.make_set("descendant");
        uf.union_with(b, a, |pb, pa| {
            assert_eq!(pb, "descendant");
            assert_eq!(pa, "ancestor");
            pa
        });
        assert_eq!(*uf.payload(a), "ancestor");
        assert_eq!(*uf.payload(b), "ancestor");
    }

    #[test]
    fn payload_mut_updates_whole_set() {
        let mut uf: UnionFind<u32> = UnionFind::new();
        let a = uf.make_set(0);
        let b = uf.make_set(0);
        uf.union_with(a, b, |x, _| x);
        *uf.payload_mut(b) = 99;
        assert_eq!(*uf.payload(a), 99);
    }

    #[test]
    fn find_no_compress_matches_find() {
        let mut uf: UnionFind<()> = UnionFind::new();
        let ids: Vec<usize> = (0..16).map(|_| uf.make_set(())).collect();
        for w in ids.chunks(2) {
            uf.union_with(w[0], w[1], |a, _| a);
        }
        uf.union_with(ids[0], ids[2], |a, _| a);
        uf.union_with(ids[4], ids[6], |a, _| a);
        uf.union_with(ids[0], ids[4], |a, _| a);
        for &i in &ids {
            assert_eq!(uf.find_no_compress(i), uf.find(i));
        }
    }

    #[test]
    fn long_chain_compresses() {
        // Build a long chain by always unioning the next element in; find on
        // the deepest element must terminate quickly and agree everywhere.
        let mut uf: UnionFind<u64> = UnionFind::new();
        let first = uf.make_set(0);
        let mut prev = first;
        for i in 1..10_000u64 {
            let n = uf.make_set(i);
            uf.union_with(prev, n, |a, _| a);
            prev = n;
        }
        let rep = uf.find(prev);
        assert_eq!(uf.find(first), rep);
        assert_eq!(uf.set_count(), 1);
    }

    /// Reference (slow) model: sets as Vec<Vec<usize>>.
    #[derive(Default)]
    struct Model {
        sets: Vec<Vec<usize>>,
        n: usize,
    }

    impl Model {
        fn make_set(&mut self) -> usize {
            let k = self.n;
            self.sets.push(vec![k]);
            self.n += 1;
            k
        }
        fn set_of(&self, x: usize) -> usize {
            self.sets.iter().position(|s| s.contains(&x)).unwrap()
        }
        fn union(&mut self, a: usize, b: usize) {
            let sa = self.set_of(a);
            let sb = self.set_of(b);
            if sa != sb {
                let moved = self.sets[sb].clone();
                self.sets[sa].extend(moved);
                self.sets.remove(sb);
            }
        }
        fn same(&self, a: usize, b: usize) -> bool {
            self.set_of(a) == self.set_of(b)
        }
    }

    /// Union-find agrees with a naive model on arbitrary operation
    /// sequences: same-set relation and set count match after each op.
    #[test]
    fn matches_naive_model() {
        let ops_strategy = strategies::vec_of(
            strategies::tuple2(
                strategies::usize_range(0..64),
                strategies::usize_range(0..64),
            ),
            1,
            200,
        );
        propcheck::check(&Config::default(), &ops_strategy, |ops| {
            let mut uf: UnionFind<()> = UnionFind::new();
            let mut model = Model::default();
            for _ in 0..64 {
                uf.make_set(());
                model.make_set();
            }
            for (a, b) in ops {
                uf.union_with(a, b, |x, _| x);
                model.union(a, b);
                assert_eq!(uf.set_count(), model.sets.len());
                assert!(uf.same_set(a, b));
            }
            for a in 0..64 {
                for b in 0..64 {
                    assert_eq!(uf.same_set(a, b), model.same(a, b));
                }
            }
        });
    }
}
