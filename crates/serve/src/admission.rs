//! Bounded admission queue: a `Mutex<VecDeque>` plus one `Condvar`.
//!
//! Producers fail fast ([`PushError::Full`]) at capacity, so overload
//! degrades by rejecting; workers block in [`AdmissionQueue::pop_wait`]
//! until a job arrives or the queue is closed. One lock guards the items
//! and the closed flag together, so a push and a close can never race a
//! waiter's empty check.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the value is handed back.
    Full(T),
    /// The queue has been closed; the value is handed back.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue.
pub struct AdmissionQueue<T> {
    queue: Mutex<State<T>>,
    ready: Condvar,
    cap: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `cap` items (`cap` is clamped to at least
    /// 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        AdmissionQueue {
            queue: Mutex::new(State {
                items: VecDeque::with_capacity(cap),
                closed: false,
            }),
            ready: Condvar::new(),
            cap,
        }
    }

    fn state(&self) -> MutexGuard<'_, State<T>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state().items.len()
    }

    /// Whether no item is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking push; fails fast when the queue is full or closed.
    pub fn push(&self, value: T) -> Result<(), PushError<T>> {
        let mut s = self.state();
        if s.closed {
            return Err(PushError::Closed(value));
        }
        if s.items.len() >= self.cap {
            return Err(PushError::Full(value));
        }
        s.items.push_back(value);
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        self.state().items.pop_front()
    }

    /// Blocking pop: waits until an item is available or the queue is
    /// closed. Returns `None` once closed; items still queued then are
    /// dropped with the queue, unrun.
    pub fn pop_wait(&self) -> Option<T> {
        let mut s = self.state();
        loop {
            if s.closed {
                return None;
            }
            if let Some(v) = s.items.pop_front() {
                return Some(v);
            }
            s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Close the queue: pushes fail, waiting workers wake and get `None`.
    pub fn close(&self) {
        self.state().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_within_a_single_thread() {
        let q = AdmissionQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert!(matches!(q.push(9), Err(PushError::Full(9))));
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop_wait(), Some(0));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(3));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn a_capacity_that_is_no_power_of_two_is_exact() {
        // Cap 3: the 4th push must fail, and a pop makes room for one.
        let q = AdmissionQueue::new(3);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert!(matches!(q.push(4), Err(PushError::Full(4))));
        assert_eq!(q.try_pop(), Some(1));
        q.push(4).unwrap();
    }

    #[test]
    fn close_rejects_pushes_and_wakes_waiters() {
        let q = Arc::new(AdmissionQueue::<u32>::new(8));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_wait())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None, "closed queue returns None");
        assert!(matches!(q.push(1), Err(PushError::Closed(1))));
    }

    #[test]
    fn blocked_waiter_receives_a_later_push() {
        let q = Arc::new(AdmissionQueue::<u32>::new(8));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_wait())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.push(7).unwrap();
        assert_eq!(waiter.join().unwrap(), Some(7));
        assert!(q.is_empty());
    }

    #[test]
    fn mpmc_delivers_every_item_exactly_once() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: usize = 500;
        let q = Arc::new(AdmissionQueue::<usize>::new(64));
        let seen = Arc::new(Mutex::new(vec![0u32; PRODUCERS * PER_PRODUCER]));
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    while let Some(v) = q.pop_wait() {
                        seen.lock().unwrap_or_else(|e| e.into_inner())[v] += 1;
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut v = p * PER_PRODUCER + i;
                        loop {
                            match q.push(v) {
                                Ok(()) => break,
                                Err(PushError::Full(back)) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => return,
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        while !q.is_empty() {
            std::thread::yield_now();
        }
        q.close();
        for c in consumers {
            c.join().unwrap();
        }
        let seen = seen.lock().unwrap_or_else(|e| e.into_inner());
        assert!(
            seen.iter().all(|&n| n == 1),
            "every value delivered exactly once"
        );
    }
}
