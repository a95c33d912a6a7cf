//! Instrumented shared memory.
//!
//! The programming model communicates through side effects on shared
//! variables (§2). [`SharedVar`] and [`SharedArray`] are the only mutable
//! state the DSL exposes; every access goes through the executor (a
//! [`MemCtx`]) so instrumentation observes the complete access stream — the
//! equivalent of the paper's bytecode pass instrumenting "reads and writes
//! to shared memory locations".
//!
//! Storage is a plain `std::sync::atomic::AtomicU64` per cell, with element
//! types bridged through the [`Word`] trait (every benchmark payload —
//! `f64`, `u64`, `i64`, `u8`, … — is a machine word, stored via a lossless
//! bit conversion). That makes the same program runnable unchanged under
//! the serial depth-first executor *and* the parallel work-stealing
//! executor: for a program the detector proves race-free, the parallel
//! execution is guaranteed to compute the serial elision's answer (the
//! paper's determinism property, Appendix A), and even for racy demo
//! programs a torn read can never occur. Accesses use `Relaxed` ordering —
//! cross-task ordering is established by the runtime's own synchronization
//! (finish joins, future gets), and word-sized atomics rule out tearing
//! regardless of ordering.

use futrace_util::ids::LocId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A value storable in one shared-memory cell: any `Copy` type with a
/// lossless round-trip through `u64` bits. Implemented for the primitive
/// integer and float types up to 64 bits, plus `bool`.
pub trait Word: Copy + Send + Sync + 'static {
    /// Encodes the value into a 64-bit word.
    fn to_word(self) -> u64;
    /// Decodes a value previously produced by [`Word::to_word`].
    fn from_word(w: u64) -> Self;
}

macro_rules! impl_word_int {
    ($($t:ty),*) => {$(
        impl Word for $t {
            #[inline]
            fn to_word(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_word(w: u64) -> Self {
                w as $t
            }
        }
    )*};
}

impl_word_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Word for f64 {
    #[inline]
    fn to_word(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_word(w: u64) -> Self {
        f64::from_bits(w)
    }
}

impl Word for f32 {
    #[inline]
    fn to_word(self) -> u64 {
        u64::from(self.to_bits())
    }
    #[inline]
    fn from_word(w: u64) -> Self {
        f32::from_bits(w as u32)
    }
}

impl Word for bool {
    #[inline]
    fn to_word(self) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn from_word(w: u64) -> Self {
        w != 0
    }
}

/// Executor-side hooks shared memory needs: location allocation and access
/// notification. Implemented by the serial executor (forwarding to its
/// [`crate::monitor::Monitor`]) and by the parallel executor (allocation
/// only; parallel runs are not instrumented).
pub trait MemCtx {
    /// Reserves `n` fresh location ids and returns the first; `name` is a
    /// debug label surfaced in race reports.
    fn alloc(&mut self, n: u32, name: &str) -> LocId;

    /// Called before every shared read of `loc` by the current task.
    fn on_read(&mut self, loc: LocId);

    /// Called before every shared write of `loc` by the current task.
    fn on_write(&mut self, loc: LocId);
}

/// A fixed-length array of shared cells, one shadow-memory location per
/// element. Cloning is cheap (an `Arc` bump) so handles can be captured by
/// task closures.
pub struct SharedArray<T> {
    base: LocId,
    cells: Arc<[AtomicU64]>,
    _marker: std::marker::PhantomData<T>,
}

impl<T> Clone for SharedArray<T> {
    fn clone(&self) -> Self {
        SharedArray {
            base: self.base,
            cells: Arc::clone(&self.cells),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Word> SharedArray<T> {
    /// Allocates a shared array of `len` copies of `fill` under `ctx`.
    ///
    /// # Panics
    /// Panics if `len` does not fit in `u32`.
    pub(crate) fn new(ctx: &mut impl MemCtx, len: usize, fill: T, name: &str) -> Self {
        let n = u32::try_from(len).expect("shared array too large");
        let base = ctx.alloc(n, name);
        let cells: Arc<[AtomicU64]> = (0..len).map(|_| AtomicU64::new(fill.to_word())).collect();
        SharedArray {
            base,
            cells,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    #[allow(clippy::len_without_is_empty)] // no caller asks for emptiness
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Location id of element `i`.
    #[inline]
    pub(crate) fn loc(&self, i: usize) -> LocId {
        debug_assert!(i < self.cells.len());
        LocId(self.base.0 + i as u32)
    }

    /// Instrumented read of element `i`.
    #[inline]
    pub fn read(&self, ctx: &mut impl MemCtx, i: usize) -> T {
        ctx.on_read(self.loc(i));
        T::from_word(self.cells[i].load(Ordering::Relaxed))
    }

    /// Instrumented write of element `i`.
    #[inline]
    pub fn write(&self, ctx: &mut impl MemCtx, i: usize, v: T) {
        ctx.on_write(self.loc(i));
        self.cells[i].store(v.to_word(), Ordering::Relaxed);
    }

    /// Uninstrumented read, for verifying results *after* a run. Using this
    /// inside a task body would hide the access from the race detector.
    pub fn peek(&self, i: usize) -> T {
        T::from_word(self.cells[i].load(Ordering::Relaxed))
    }

    /// Uninstrumented write, for seeding inputs *before* a run (e.g. from a
    /// workload generator whose writes are not part of the program under
    /// analysis).
    pub fn poke(&self, i: usize, v: T) {
        self.cells[i].store(v.to_word(), Ordering::Relaxed);
    }

    /// Copies the whole array out (uninstrumented; for result checking).
    pub fn snapshot(&self) -> Vec<T> {
        self.cells
            .iter()
            .map(|c| T::from_word(c.load(Ordering::Relaxed)))
            .collect()
    }
}

/// A single shared cell — a one-element [`SharedArray`] with scalar
/// accessors.
pub struct SharedVar<T> {
    arr: SharedArray<T>,
}

impl<T> Clone for SharedVar<T> {
    fn clone(&self) -> Self {
        SharedVar {
            arr: self.arr.clone(),
        }
    }
}

impl<T: Word> SharedVar<T> {
    /// Allocates a shared variable initialized to `init`.
    pub(crate) fn new(ctx: &mut impl MemCtx, init: T, name: &str) -> Self {
        SharedVar {
            arr: SharedArray::new(ctx, 1, init, name),
        }
    }

    /// Instrumented read.
    #[inline]
    pub fn read(&self, ctx: &mut impl MemCtx) -> T {
        self.arr.read(ctx, 0)
    }

    /// Instrumented write.
    #[inline]
    pub fn write(&self, ctx: &mut impl MemCtx, v: T) {
        self.arr.write(ctx, 0, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Word> SharedVar<T> {
        /// Uninstrumented read for post-run assertions.
        pub(crate) fn peek(&self) -> T {
            self.arr.peek(0)
        }
    }

    /// Minimal MemCtx that counts accesses and allocates densely.
    #[derive(Default)]
    struct CountingCtx {
        next: u32,
        reads: Vec<LocId>,
        writes: Vec<LocId>,
    }

    impl MemCtx for CountingCtx {
        fn alloc(&mut self, n: u32, _name: &str) -> LocId {
            let base = LocId(self.next);
            self.next += n;
            base
        }
        fn on_read(&mut self, loc: LocId) {
            self.reads.push(loc);
        }
        fn on_write(&mut self, loc: LocId) {
            self.writes.push(loc);
        }
    }

    #[test]
    fn array_allocates_dense_locations() {
        let mut ctx = CountingCtx::default();
        let a: SharedArray<u64> = SharedArray::new(&mut ctx, 4, 0, "a");
        let b: SharedArray<u64> = SharedArray::new(&mut ctx, 2, 0, "b");
        assert_eq!(a.base, LocId(0));
        assert_eq!(a.loc(3), LocId(3));
        assert_eq!(b.base, LocId(4));
        assert_eq!(b.loc(1), LocId(5));
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn reads_and_writes_are_instrumented() {
        let mut ctx = CountingCtx::default();
        let a: SharedArray<i64> = SharedArray::new(&mut ctx, 3, 7, "a");
        assert_eq!(a.read(&mut ctx, 1), 7);
        a.write(&mut ctx, 1, 42);
        assert_eq!(a.read(&mut ctx, 1), 42);
        assert_eq!(ctx.reads, vec![LocId(1), LocId(1)]);
        assert_eq!(ctx.writes, vec![LocId(1)]);
    }

    #[test]
    fn peek_poke_bypass_instrumentation() {
        let mut ctx = CountingCtx::default();
        let a: SharedArray<f64> = SharedArray::new(&mut ctx, 2, 0.0, "a");
        a.poke(0, 3.5);
        assert_eq!(a.peek(0), 3.5);
        assert_eq!(a.snapshot(), vec![3.5, 0.0]);
        assert!(ctx.reads.is_empty());
        assert!(ctx.writes.is_empty());
    }

    #[test]
    fn var_is_single_location() {
        let mut ctx = CountingCtx::default();
        let v = SharedVar::new(&mut ctx, 1u64, "v");
        let w = SharedVar::new(&mut ctx, 2u64, "w");
        assert_ne!(v.arr.base, w.arr.base);
        v.write(&mut ctx, 10);
        assert_eq!(v.read(&mut ctx), 10);
        assert_eq!(w.peek(), 2);
    }

    #[test]
    fn clones_alias_storage() {
        let mut ctx = CountingCtx::default();
        let a: SharedArray<u64> = SharedArray::new(&mut ctx, 1, 0, "a");
        let b = a.clone();
        a.write(&mut ctx, 0, 9);
        assert_eq!(b.read(&mut ctx, 0), 9);
        assert_eq!(b.base, a.base);
    }

    #[test]
    fn shared_array_is_send_sync_for_copy_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedArray<f64>>();
        assert_send_sync::<SharedVar<u64>>();
    }

    #[test]
    fn word_roundtrips_every_element_type() {
        fn rt<T: Word + PartialEq + std::fmt::Debug>(vals: &[T]) {
            for &v in vals {
                assert_eq!(T::from_word(v.to_word()), v);
            }
        }
        rt(&[0u8, 1, 255]);
        rt(&[0u16, u16::MAX]);
        rt(&[0u32, u32::MAX]);
        rt(&[0u64, u64::MAX]);
        rt(&[0i32, -1, i32::MIN, i32::MAX]);
        rt(&[0i64, -1, i64::MIN, i64::MAX]);
        rt(&[0.0f64, -0.0, 1.5, f64::MIN, f64::MAX, f64::INFINITY]);
        rt(&[0.0f32, -2.25, f32::MAX]);
        rt(&[true, false]);
        // NaN round-trips bit-exactly even though NaN != NaN.
        assert!(f64::from_word(f64::NAN.to_word()).is_nan());
    }

    #[test]
    fn negative_values_survive_storage() {
        let mut ctx = CountingCtx::default();
        let a: SharedArray<i64> = SharedArray::new(&mut ctx, 1, -5, "a");
        assert_eq!(a.peek(0), -5);
        a.poke(0, i64::MIN);
        assert_eq!(a.peek(0), i64::MIN);
        let f: SharedArray<f64> = SharedArray::new(&mut ctx, 1, -0.5, "f");
        assert_eq!(f.peek(0), -0.5);
    }
}
