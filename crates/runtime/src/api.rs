//! The executor-independent programming model.
//!
//! [`TaskCtx`] is the paper's programming model (§2) as a Rust trait:
//! programs are written once as generic functions over `C: TaskCtx` and can
//! then run under the serial depth-first executor (instrumented, for race
//! detection — see [`crate::serial`]) or the parallel work-stealing executor
//! (see [`crate::parallel`]) without modification. The Table-2 benchmarks
//! and all example programs are written this way.
//!
//! The correspondence to the paper's syntax:
//!
//! | paper                              | here                                  |
//! |------------------------------------|---------------------------------------|
//! | `async { S }`                      | `ctx.async_task(\|ctx\| S)`           |
//! | `finish { S }`                     | `ctx.finish(\|ctx\| S)`               |
//! | `future<T> f = async<T> Expr;`     | `let f = ctx.future(\|ctx\| expr);`   |
//! | `f.get()`                          | `ctx.get(&f)`                         |
//!
//! Closure bounds are `Send + 'static` even though the serial executor does
//! not strictly need them — the stricter bound is what makes the same
//! program text valid under the parallel executor.

use crate::memory::{MemCtx, SharedArray, SharedVar, Word};
use futrace_util::ids::TaskId;

/// The async/finish/future programming model. See the module docs for the
/// paper correspondence.
pub trait TaskCtx: MemCtx + Sized {
    /// Handle type returned by [`TaskCtx::future`]; cheap to clone and
    /// capturable by other task bodies.
    type Handle<T: Send + 'static>: Clone + Send + 'static;

    /// Identifier of the task whose code is currently executing.
    fn current_task(&self) -> TaskId;

    /// `async { S }`: creates a child task executing `f`. The child is
    /// joined by its Immediately Enclosing Finish. Under serial depth-first
    /// execution the body runs to completion here; under the parallel
    /// executor it may run before, after, or concurrently with the
    /// continuation.
    fn async_task<F>(&mut self, f: F)
    where
        F: FnOnce(&mut Self) + Send + 'static;

    /// `finish { S }`: executes `f` and then waits for every task
    /// transitively created within it (including future tasks, as in HJ).
    fn finish<F>(&mut self, f: F)
    where
        F: FnOnce(&mut Self);

    /// `future<T> f = async<T> Expr`: creates a child future task computing
    /// `f` and returns a handle to its eventual value.
    fn future<T, F>(&mut self, f: F) -> Self::Handle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut Self) -> T + Send + 'static;

    /// `h.get()`: joins the future task behind `h` and returns (a clone of)
    /// its value, blocking under the parallel executor if the task has not
    /// completed.
    fn get<T>(&mut self, h: &Self::Handle<T>) -> T
    where
        T: Clone + Send + 'static;

    /// HJ's `forasync`: one async task per index of `range`, all
    /// registered with the current Immediately Enclosing Finish. The
    /// iteration closure is cloned per task (capture shared handles, not
    /// large owned data).
    ///
    /// ```
    /// use futrace_runtime::{run_serial, NullMonitor, TaskCtx};
    ///
    /// let mut mon = NullMonitor;
    /// let total = run_serial(&mut mon, |ctx| {
    ///     let acc = ctx.shared_array(8, 0u64, "acc");
    ///     let acc2 = acc.clone();
    ///     ctx.finish(|ctx| {
    ///         ctx.forasync(0..8, move |ctx, i| acc2.write(ctx, i, i as u64 * 2));
    ///     });
    ///     (0..8).map(|i| acc.peek(i)).sum::<u64>()
    /// });
    /// assert_eq!(total, 56);
    /// ```
    fn forasync<F>(&mut self, range: std::ops::Range<usize>, f: F)
    where
        F: Fn(&mut Self, usize) + Clone + Send + 'static,
    {
        for i in range {
            let f = f.clone();
            self.async_task(move |ctx| f(ctx, i));
        }
    }

    /// `finish { forasync … }` in one call — the ubiquitous parallel-loop
    /// idiom of the paper's async-finish benchmarks.
    fn finish_forasync<F>(&mut self, range: std::ops::Range<usize>, f: F)
    where
        F: Fn(&mut Self, usize) + Clone + Send + 'static,
    {
        self.finish(|ctx| ctx.forasync(range, f));
    }

    /// Allocates an instrumented shared array (convenience for
    /// `SharedArray::new`).
    fn shared_array<T: Word>(&mut self, len: usize, fill: T, name: &str) -> SharedArray<T> {
        SharedArray::new(self, len, fill, name)
    }

    /// Allocates an instrumented shared variable (convenience for
    /// `SharedVar::new`).
    fn shared_var<T: Word>(&mut self, init: T, name: &str) -> SharedVar<T> {
        SharedVar::new(self, init, name)
    }
}
