//! HJ-style finish accumulators: deterministic parallel reductions.
//!
//! Habanero-Java pairs its determinacy story with *accumulators* —
//! reduction cells that many tasks may `put` into concurrently, with the
//! result readable after the enclosing `finish`. Because the reduction
//! operator is associative and commutative, the final value is
//! schedule-independent even though the puts race on wall-clock time: the
//! construct is **race-free by construction**, so (exactly as in HJ's
//! runtime) accumulator traffic is *not* routed through the shared-memory
//! instrumentation — the detector neither sees nor needs to see it.
//! Everything the paper's determinism property requires still holds: a
//! program whose only "races" are accumulator puts is determinate.
//!
//! Contract (dynamically unchecked, as in HJ): `get` is meaningful only
//! after every task that `put`s has been joined (typically: after the
//! `finish` enclosing the puts). Reading earlier yields some prefix
//! reduction — deterministic under the serial executor but not under the
//! parallel one.
//!
//! ```
//! use futrace_runtime::accumulator::{Accumulator, SumOp};
//! use futrace_runtime::{run_parallel, TaskCtx};
//!
//! let total = run_parallel(4, |ctx| {
//!     let acc = Accumulator::<u64, SumOp>::new();
//!     ctx.finish(|ctx| {
//!         for i in 1..=100u64 {
//!             let acc = acc.clone();
//!             ctx.async_task(move |_| acc.put(i));
//!         }
//!     });
//!     acc.get()
//! })
//! .unwrap();
//! assert_eq!(total, 5050);
//! ```

use crate::sync::Mutex;
use std::marker::PhantomData;
use std::sync::Arc;

/// An associative, commutative reduction operator over `T`.
pub trait ReduceOp<T>: Send + Sync + 'static {
    /// The operator's identity element (initial accumulator value).
    fn identity() -> T;
    /// Combines two values; must be associative and commutative for the
    /// determinism guarantee to hold.
    fn combine(a: T, b: T) -> T;
}

/// Addition.
#[derive(Clone, Copy, Debug, Default)]
pub struct SumOp;

/// Maximum.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxOp;

macro_rules! impl_numeric_ops {
    ($($t:ty),*) => {$(
        impl ReduceOp<$t> for SumOp {
            fn identity() -> $t { 0 as $t }
            fn combine(a: $t, b: $t) -> $t { a + b }
        }
        impl ReduceOp<$t> for MaxOp {
            fn identity() -> $t { <$t>::MIN }
            fn combine(a: $t, b: $t) -> $t { if a > b { a } else { b } }
        }
    )*};
}

impl_numeric_ops!(u32, u64, i32, i64, usize, f64);

/// A deterministic reduction cell (see module docs).
pub struct Accumulator<T, O: ReduceOp<T>> {
    value: Arc<Mutex<T>>,
    _op: PhantomData<O>,
}

impl<T, O: ReduceOp<T>> Clone for Accumulator<T, O> {
    fn clone(&self) -> Self {
        Accumulator {
            value: Arc::clone(&self.value),
            _op: PhantomData,
        }
    }
}

impl<T, O: ReduceOp<T>> Default for Accumulator<T, O>
where
    T: Copy + Send + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<T, O: ReduceOp<T>> Accumulator<T, O>
where
    T: Copy + Send + 'static,
{
    /// Fresh accumulator holding the operator's identity.
    pub fn new() -> Self {
        Accumulator {
            value: Arc::new(Mutex::new(O::identity())),
            _op: PhantomData,
        }
    }

    /// Contributes `v` (associative + commutative, so schedule-independent).
    pub fn put(&self, v: T) {
        let mut guard = self.value.lock();
        *guard = O::combine(*guard, v);
    }

    /// Reads the reduction. Call after the enclosing finish (see module
    /// docs for the contract).
    pub fn get(&self) -> T {
        *self.value.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_parallel, run_serial, NullMonitor, TaskCtx};

    #[test]
    fn serial_sum() {
        let mut mon = NullMonitor;
        let total = run_serial(&mut mon, |ctx| {
            let acc = Accumulator::<u64, SumOp>::new();
            ctx.finish(|ctx| {
                for i in 1..=1000u64 {
                    let acc = acc.clone();
                    ctx.async_task(move |_| acc.put(i));
                }
            });
            acc.get()
        });
        assert_eq!(total, 500_500);
    }

    #[test]
    fn max_identity() {
        let mx = Accumulator::<i64, MaxOp>::new();
        assert_eq!(mx.get(), i64::MIN);
        for v in [3, -7, 12, 0] {
            mx.put(v);
        }
        assert_eq!(mx.get(), 12);
    }

    #[test]
    fn parallel_sum_is_schedule_independent() {
        for _ in 0..10 {
            let total = run_parallel(4, |ctx| {
                let acc = Accumulator::<u64, SumOp>::new();
                ctx.finish(|ctx| {
                    for i in 1..=500u64 {
                        let acc = acc.clone();
                        ctx.async_task(move |_| acc.put(i));
                    }
                });
                acc.get()
            })
            .unwrap();
            assert_eq!(total, 125_250);
        }
    }

    #[test]
    fn float_sum_reduces() {
        let acc = Accumulator::<f64, SumOp>::new();
        acc.put(1.5);
        acc.put(2.5);
        assert_eq!(acc.get(), 4.0);
    }

    #[test]
    fn accumulators_work_with_futures_too() {
        let mut mon = NullMonitor;
        let v = run_serial(&mut mon, |ctx| {
            let acc = Accumulator::<u64, MaxOp>::new();
            let hs: Vec<_> = (0..16u64)
                .map(|i| {
                    let acc = acc.clone();
                    ctx.future(move |_| acc.put(i * i))
                })
                .collect();
            for h in &hs {
                ctx.get(h);
            }
            acc.get()
        });
        assert_eq!(v, 225);
    }
}
