//! Thin std-only synchronization wrappers.
//!
//! The runtime previously used `parking_lot`; these wrappers keep its
//! ergonomic surface (`lock()` returns a guard directly) on top of
//! `std::sync`, with lock poisoning deliberately ignored: the executors
//! have their own panic protocol (catch, record the payload, poison the
//! *pool*, unwind waiters), so a std-level `PoisonError` carries no extra
//! information and would only turn clean panic propagation into a double
//! panic.

use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, PoisonError};
use std::time::Duration;

pub(crate) use std::sync::MutexGuard;

/// A mutex whose `lock` never fails: poisoning is stripped (see module
/// docs for why that is sound here).
pub struct Mutex<T>(StdMutex<T>);

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    /// Acquires the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// Condition variable paired with [`Mutex`].
#[derive(Default)]
pub struct Condvar(StdCondvar);

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Self {
        Condvar(StdCondvar::new())
    }

    /// Wakes all threads blocked in [`Condvar::wait`]/[`Condvar::wait_timeout`].
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Wakes one thread blocked in [`Condvar::wait`]/[`Condvar::wait_timeout`].
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Waits on the condition (releasing `guard`) until notified; reacquires
    /// the lock and returns the guard. Spurious wakeups are possible —
    /// callers loop on their predicate.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits on the condition (releasing `guard`) until notified or until
    /// `timeout` elapses; reacquires the lock and returns the guard.
    /// Spurious wakeups are possible — callers loop on their predicate.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        self.0
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn lock_survives_a_panicked_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the std mutex");
        })
        .join();
        // parking_lot semantics: the next lock just works.
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn wait_and_notify_one_hand_off() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            while *g == 0 {
                g = cv.wait(g);
            }
            *g
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = 9;
            cv.notify_one();
        }
        assert_eq!(t.join().unwrap(), 9);
    }

    #[test]
    fn wait_timeout_returns_after_notify_or_deadline() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            while !*g {
                g = cv.wait_timeout(g, Duration::from_millis(10));
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }
}
