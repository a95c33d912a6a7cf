//! Bounded blocking MPSC channel built on [`futrace_runtime::sync`]
//! (std-only Mutex + Condvar), for the decode→detect pipeline.
//!
//! The decode stage can outrun the detect workers by orders of magnitude
//! (varint decoding vs `Precede` queries), so the channel is *bounded*:
//! `Sender::send` blocks when the queue is full, which backpressures
//! the decoder and keeps pipeline memory at O(capacity × batch) instead
//! of O(trace). Disconnection is graceful in both directions: senders see
//! `Err` once the receiver is gone (a dead worker must not wedge the
//! router), and [`Receiver::recv`] returns `None` once all senders are
//! dropped and the queue drains.

use futrace_runtime::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Sending half; clone for multiple producers.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half (single consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// The item handed back by [`Sender::send`] when the receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SendError<T>(pub T);

/// Outcome of [`Receiver::recv_timeout`] — the supervisor's watchdog
/// primitive (DESIGN S38).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RecvTimeout<T> {
    /// An item arrived within the deadline.
    Item(T),
    /// The deadline elapsed with the queue still empty but senders alive —
    /// the signal a supervisor treats as a stalled producer.
    Timeout,
    /// Every sender is gone and the queue is drained.
    Disconnected,
}

/// Outcome of [`Sender::send_timeout`], handing the unsent item back on
/// both failure paths.
#[derive(Debug, PartialEq, Eq)]
pub enum SendTimeout<T> {
    /// The item was enqueued within the deadline.
    Sent,
    /// The queue stayed full past the deadline — the signal a router
    /// treats as a stalled (wedged) consumer.
    Full(T),
    /// The receiver has been dropped.
    Disconnected(T),
}

/// A bounded channel with room for `capacity` in-flight items
/// (clamped to ≥ 1).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            senders: 1,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Blocks until there is room, then enqueues `item`. Returns the item
    /// if the receiver has been dropped.
    pub(crate) fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.state.lock();
        loop {
            if !st.receiver_alive {
                return Err(SendError(item));
            }
            if st.queue.len() < st.capacity {
                st.queue.push_back(item);
                drop(st);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            st = self.shared.not_full.wait(st);
        }
    }

    /// Like `Sender::send`, but gives up once `timeout` elapses with
    /// the queue still full. Spurious condvar wakeups re-check the
    /// deadline, so the call is bounded by roughly `timeout` even under a
    /// notify storm.
    pub fn send_timeout(&self, item: T, timeout: Duration) -> SendTimeout<T> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        loop {
            if !st.receiver_alive {
                return SendTimeout::Disconnected(item);
            }
            if st.queue.len() < st.capacity {
                st.queue.push_back(item);
                drop(st);
                self.shared.not_empty.notify_one();
                return SendTimeout::Sent;
            }
            let now = Instant::now();
            if now >= deadline {
                return SendTimeout::Full(item);
            }
            st = self.shared.not_full.wait_timeout(st, deadline - now);
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            // Wake a receiver blocked on an empty queue so it can observe
            // disconnection and finish.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until an item arrives; `None` once every sender is dropped
    /// and the queue is drained.
    pub fn recv(&self) -> Option<T> {
        let mut st = self.shared.state.lock();
        loop {
            if let Some(item) = st.queue.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                return Some(item);
            }
            if st.senders == 0 {
                return None;
            }
            st = self.shared.not_empty.wait(st);
        }
    }

    /// Like [`Receiver::recv`], but returns [`RecvTimeout::Timeout`] once
    /// `timeout` elapses with nothing to deliver. The deadline is
    /// absolute: spurious or storming notifications merely re-check the
    /// predicate and keep waiting for the remainder.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> RecvTimeout<T> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        loop {
            if let Some(item) = st.queue.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                return RecvTimeout::Item(item);
            }
            if st.senders == 0 {
                return RecvTimeout::Disconnected;
            }
            let now = Instant::now();
            if now >= deadline {
                return RecvTimeout::Timeout;
            }
            st = self.shared.not_empty.wait_timeout(st, deadline - now);
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.state.lock().receiver_alive = false;
        // Unblock every sender stuck in a full-queue wait.
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_roundtrip() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(
            std::iter::from_fn(|| rx.recv()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(rx.recv(), None, "disconnected and drained");
    }

    #[test]
    fn send_blocks_until_capacity_frees() {
        let (tx, rx) = bounded(1);
        tx.send(1u32).unwrap();
        let t = thread::spawn(move || {
            // This send must block until the main thread receives.
            tx.send(2).unwrap();
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        t.join().unwrap();
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn dropped_receiver_fails_send() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn dropped_receiver_unblocks_full_sender() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || tx.send(2));
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(t.join().unwrap(), Err(SendError(2)));
    }

    #[test]
    fn sender_drop_mid_stream_delivers_prefix_then_disconnects() {
        let (tx, rx) = bounded(8);
        let t = thread::spawn(move || {
            for i in 0..3 {
                tx.send(i).unwrap();
            }
            // tx dropped here, mid-stream from the receiver's viewpoint.
        });
        assert_eq!(rx.recv(), Some(0));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None, "drop observed after the queued prefix");
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            RecvTimeout::Disconnected
        );
        t.join().unwrap();
    }

    #[test]
    fn receiver_drop_with_full_buffer_unblocks_timed_sender() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || tx.send_timeout(2, Duration::from_millis(5_000)));
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        // The blocked sender must observe disconnection immediately, not
        // ride out its 5s deadline.
        assert_eq!(t.join().unwrap(), SendTimeout::Disconnected(2));
    }

    #[test]
    fn send_timeout_reports_full_queue() {
        let (tx, rx) = bounded(1);
        tx.send(1u32).unwrap();
        let start = std::time::Instant::now();
        assert_eq!(
            tx.send_timeout(2, Duration::from_millis(15)),
            SendTimeout::Full(2)
        );
        assert!(start.elapsed() >= Duration::from_millis(15));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(
            tx.send_timeout(3, Duration::from_millis(15)),
            SendTimeout::Sent
        );
        assert_eq!(rx.recv(), Some(3));
    }

    #[test]
    fn recv_timeout_fires_on_empty_queue() {
        let (tx, rx) = bounded::<u32>(1);
        let start = std::time::Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(15)),
            RecvTimeout::Timeout
        );
        assert!(start.elapsed() >= Duration::from_millis(15));
        tx.send(9).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(15)),
            RecvTimeout::Item(9)
        );
    }

    #[test]
    fn recv_timeout_survives_notify_storm_without_spurious_result() {
        // A thread hammering the condvars must not make recv_timeout
        // return early or fabricate an item: the deadline is absolute and
        // the predicate is re-checked on every wakeup.
        let (tx, rx) = bounded::<u32>(1);
        let shared = Arc::clone(&rx.shared);
        let storming = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let flag = Arc::clone(&storming);
        let storm = thread::spawn(move || {
            while flag.load(std::sync::atomic::Ordering::Relaxed) {
                shared.not_empty.notify_all();
                shared.not_full.notify_all();
                std::hint::spin_loop();
            }
        });
        let start = std::time::Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(30)),
            RecvTimeout::Timeout
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        storming.store(false, std::sync::atomic::Ordering::Relaxed);
        storm.join().unwrap();
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            RecvTimeout::Disconnected
        );
    }

    #[test]
    fn multiple_producers_drain_completely() {
        let (tx, rx) = bounded(2);
        let mut handles = Vec::new();
        for p in 0..4u64 {
            let tx = tx.clone();
            handles.push(thread::spawn(move || {
                for i in 0..50u64 {
                    tx.send(p * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got.len(), 200);
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 200, "no item lost or duplicated");
    }
}
