//! Loom model of a connection's bounded outbound queue.
//!
//! Mirrors `OutQueue` (crates/serve/src/conn.rs): worker frames wait for
//! room while the queue holds `bound` bytes (an empty queue takes any
//! frame), the writer drains everything queued at once and frees the room,
//! the writer exits only once the reader has finished and no answer is in
//! flight, and a writer that closes the queue releases every waiting push.
//! The properties modeled:
//!
//! 1. the queue never holds more than `bound` bytes of worker frames,
//! 2. a push at the bound waits for the drain, and every frame arrives,
//!    each answer's frames in order, the final one included — the writer
//!    does not exit while an answer is in flight,
//! 3. a closed queue turns a waiting push into a failure instead of a hang.
//!
//! The shim has no `Condvar`: a wait is modeled as release, yield,
//! re-acquire and re-check — a condition variable with spurious wakeups.
//! Lost wakeups are therefore out of scope; the bound, the drain, the
//! `in_flight`/`finish` exit rule and the close are in.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p nok-serve --test loom_out_queue`
#![cfg(loom)]

use std::collections::VecDeque;

use loom::sync::{Arc, Mutex, MutexGuard};
use loom::thread;

/// A frame: which answer it belongs to, its place in it, its length.
type Frame = (u32, u32, usize);

struct State {
    frames: VecDeque<Frame>,
    bytes: usize,
    in_flight: usize,
    done: bool,
    closed: bool,
    /// Most worker-frame bytes ever queued.
    hwm: usize,
}

struct Queue {
    out: Mutex<State>,
    bound: usize,
}

impl Queue {
    fn new(bound: usize) -> Self {
        Queue {
            out: Mutex::new(State {
                frames: VecDeque::new(),
                bytes: 0,
                in_flight: 0,
                done: false,
                closed: false,
                hwm: 0,
            }),
            bound,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.out.lock().unwrap()
    }

    /// Mirrors `OutQueue::enqueue`.
    fn enqueue(g: &mut State, frame: Frame) {
        if g.closed {
            return;
        }
        g.bytes += frame.2;
        g.frames.push_back(frame);
        g.hwm = g.hwm.max(g.bytes);
    }

    /// Mirrors `OutQueue::wait_room` (no deadline: the model never expires).
    fn wait_room(&self, len: usize) -> MutexGuard<'_, State> {
        loop {
            let g = self.lock();
            if g.closed || g.bytes == 0 || g.bytes + len <= self.bound {
                return g;
            }
            drop(g);
            thread::yield_now();
        }
    }

    /// Mirrors `OutQueue::push`: inline frames never wait.
    fn push(&self, frame: Frame) {
        Self::enqueue(&mut self.lock(), frame);
    }

    /// Mirrors `OutQueue::send`: false when the writer is gone.
    fn send(&self, frame: Frame) -> bool {
        let mut g = self.wait_room(frame.2);
        if g.closed {
            return false;
        }
        Self::enqueue(&mut g, frame);
        true
    }

    fn begin(&self) {
        self.lock().in_flight += 1;
    }

    /// Mirrors `OutQueue::complete`.
    fn complete(&self, frame: Frame) {
        let mut g = self.wait_room(frame.2);
        Self::enqueue(&mut g, frame);
        g.in_flight -= 1;
    }

    fn finish(&self) {
        self.lock().done = true;
    }

    /// Mirrors `OutQueue::take_all`.
    fn take_all(&self, into: &mut Vec<Frame>) -> bool {
        loop {
            let mut g = self.lock();
            if !g.frames.is_empty() {
                into.extend(g.frames.drain(..));
                g.bytes = 0;
                return true;
            }
            if g.done && g.in_flight == 0 {
                return false;
            }
            drop(g);
            thread::yield_now();
        }
    }

    /// Mirrors `OutQueue::close`.
    fn close(&self) {
        let mut g = self.lock();
        g.closed = true;
        g.frames.clear();
        g.bytes = 0;
    }
}

/// One answer: `parts` chunks of `len` bytes, then a final frame of 1.
fn answer(q: &Queue, id: u32, parts: u32, len: usize) -> bool {
    for seq in 0..parts {
        if !q.send((id, seq, len)) {
            q.complete((id, parts, 1));
            return false;
        }
    }
    q.complete((id, parts, 1));
    true
}

fn writer(q: Arc<Queue>) -> thread::JoinHandle<Vec<Frame>> {
    thread::spawn(move || {
        let mut got = Vec::new();
        while q.take_all(&mut got) {}
        got
    })
}

/// Frames of answer `id` in arrival order: `0..=parts` exactly.
fn assert_answer(got: &[Frame], id: u32, parts: u32) {
    let seqs: Vec<u32> = got.iter().filter(|f| f.0 == id).map(|f| f.1).collect();
    assert_eq!(seqs, (0..=parts).collect::<Vec<_>>(), "answer {id}");
}

#[test]
fn a_push_at_the_bound_waits_for_the_drain() {
    loom::model(|| {
        let q = Arc::new(Queue::new(3));
        // The connection reserves the slot before submitting.
        q.begin();
        let w = writer(Arc::clone(&q));
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || assert!(answer(&q, 1, 3, 2)))
        };
        // The reader finishes while the answer may still be streaming.
        q.finish();
        worker.join().unwrap();
        let got = w.join().unwrap();
        assert_answer(&got, 1, 3);
        let g = q.lock();
        assert!(g.hwm <= 3, "queue held {} bytes", g.hwm);
        assert_eq!(g.in_flight, 0);
    });
}

#[test]
fn interleaved_answers_and_inline_frames_all_arrive() {
    loom::model(|| {
        let q = Arc::new(Queue::new(4));
        q.begin();
        q.begin();
        let w = writer(Arc::clone(&q));
        let workers: Vec<_> = [(1, 2), (2, 1)]
            .into_iter()
            .map(|(id, parts)| {
                let q = Arc::clone(&q);
                thread::spawn(move || assert!(answer(&q, id, parts, 2)))
            })
            .collect();
        q.push((9, 0, 1));
        q.finish();
        for t in workers {
            t.join().unwrap();
        }
        let got = w.join().unwrap();
        assert_answer(&got, 1, 2);
        assert_answer(&got, 2, 1);
        assert_answer(&got, 9, 0);
    });
}

#[test]
fn a_closed_queue_releases_a_waiting_push() {
    loom::model(|| {
        let q = Arc::new(Queue::new(2));
        q.begin();
        // A writer whose socket fails after its first batch.
        let w = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = Vec::new();
                q.take_all(&mut got);
                q.close();
            })
        };
        let worker = {
            let q = Arc::clone(&q);
            // Must return (true or false), never wait forever.
            thread::spawn(move || answer(&q, 1, 4, 2))
        };
        worker.join().unwrap();
        w.join().unwrap();
        q.finish();
        assert_eq!(q.lock().in_flight, 0);
    });
}
