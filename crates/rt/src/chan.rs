//! A small MPMC channel over `Mutex<VecDeque>` + `Condvar` — the one
//! place the runtime needs semantics `std::sync::mpsc` does not offer:
//! clonable receivers (so the manager can salvage a crashed worker's
//! queued jobs for redispatch) and explicit `close()` that lets
//! receivers drain remaining messages before observing disconnection
//! (shutdown-drains-queues).
//!
//! Reply paths, which are strictly one-shot SPSC, use
//! `std::sync::mpsc::sync_channel(1)` instead — no shim needed there.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when the channel is closed; the
/// unsent message is handed back.
#[derive(Debug)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed with the queue empty (channel still open).
    Timeout,
    /// The queue is empty and the channel is closed or all senders are
    /// gone; no message will ever arrive.
    Disconnected,
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// Queue empty right now.
    Empty,
    /// Queue empty and closed/sender-less.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    closed: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: Option<usize>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> Shared<T> {
    fn close(&self) {
        lock(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Sending half; clonable (multi-producer).
pub struct Sender<T>(Arc<Shared<T>>);

/// Receiving half; clonable (multi-consumer).
pub struct Receiver<T>(Arc<Shared<T>>);

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock(&self.0.state).senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = lock(&self.0.state);
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Sender<T> {
    /// Enqueues `value`, blocking while a bounded channel is full.
    /// Fails (returning the value) once the channel is closed.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = lock(&self.0.state);
        loop {
            if st.closed {
                return Err(SendError(value));
            }
            match self.0.cap {
                Some(cap) if st.queue.len() >= cap => {
                    st = self
                        .0
                        .not_full
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                _ => break,
            }
        }
        st.queue.push_back(value);
        drop(st);
        self.0.not_empty.notify_one();
        Ok(())
    }

    /// Closes the channel: future sends fail, receivers drain what is
    /// already queued and then observe `Disconnected`.
    pub fn close(&self) {
        self.0.close();
    }
}

impl<T> Receiver<T> {
    /// Dequeues a message, waiting up to `timeout`. Queued messages are
    /// delivered even after `close()` — disconnection is only reported
    /// once the queue is drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.0.state);
        loop {
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.0.not_full.notify_one();
                return Ok(v);
            }
            if st.closed || st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _) = self
                .0
                .not_empty
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    /// Dequeues a message if one is immediately available.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = lock(&self.0.state);
        if let Some(v) = st.queue.pop_front() {
            drop(st);
            self.0.not_full.notify_one();
            return Ok(v);
        }
        if st.closed || st.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// See [`Sender::close`].
    pub fn close(&self) {
        self.0.close();
    }
}

fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            closed: false,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cap,
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

/// An unbounded MPMC channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

/// A bounded MPMC channel; `send` blocks while `cap` messages queue.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    channel(Some(cap.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_order_across_clones() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(1));
        assert_eq!(rx.clone().recv_timeout(Duration::from_millis(10)), Ok(2));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn close_drains_then_disconnects() {
        let (tx, rx) = unbounded();
        tx.send("queued").unwrap();
        tx.close();
        assert!(tx.send("late").is_err());
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok("queued"));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn dropping_all_senders_disconnects() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(7).unwrap();
        drop(tx2);
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn bounded_send_blocks_until_recv() {
        let (tx, rx) = bounded(1);
        tx.send(1u32).unwrap();
        let t = std::thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the main thread receives
            tx.send(3).unwrap();
        });
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(rx.recv_timeout(Duration::from_secs(2)).unwrap());
        }
        t.join().unwrap();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn two_consumers_split_the_work() {
        let (tx, rx) = unbounded();
        for i in 0..100u32 {
            tx.send(i).unwrap();
        }
        tx.close();
        let rx2 = rx.clone();
        let worker = |rx: Receiver<u32>| {
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv_timeout(Duration::from_millis(200)) {
                    got.push(v);
                }
                got
            })
        };
        let (a, b) = (worker(rx), worker(rx2));
        let mut all: Vec<u32> = a.join().unwrap();
        all.extend(b.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }
}
