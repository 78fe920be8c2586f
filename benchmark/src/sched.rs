//! Open-loop pacing: operations fall due on a fixed schedule whether or not
//! the previous one has finished, and each is timed from when it was due,
//! so a stall shows up in the latency of everything queued behind it.

use std::time::{Duration, Instant};

/// Due times `start + k / rate` for `k = 0, 1, 2, …`.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
    issued: u32,
}

impl OpenLoop {
    pub fn new(start: Instant, per_second: u32) -> OpenLoop {
        OpenLoop {
            start,
            interval: Duration::from_secs(1) / per_second,
            issued: 0,
        }
    }

    /// The instant the next operation is due.
    pub fn next_due(&mut self) -> Instant {
        let due = self.start + self.interval * self.issued;
        self.issued += 1;
        due
    }
}

/// One paced operation as the report counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Paced {
    /// Finish minus **due** time: the wait behind a stall is included.
    pub latency_ns: u64,
    /// How long after its due time the generator started the operation.
    pub late_ns: u64,
}

pub fn account(due: Instant, started: Instant, finished: Instant) -> Paced {
    Paced {
        latency_ns: finished.saturating_duration_since(due).as_nanos() as u64,
        late_ns: started.saturating_duration_since(due).as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate_not_the_work() {
        let t0 = Instant::now();
        let mut sched = OpenLoop::new(t0, 20);
        assert_eq!(sched.next_due(), t0);
        assert_eq!(sched.next_due(), t0 + Duration::from_millis(50));
        assert_eq!(sched.next_due(), t0 + Duration::from_millis(100));
    }

    #[test]
    fn latency_counts_from_due_time_and_lateness_is_reported() {
        let t0 = Instant::now();
        let mut sched = OpenLoop::new(t0, 20);
        let _first = sched.next_due();
        let due = sched.next_due();
        // The first operation stalled: the second starts 30 ms late and
        // then takes 10 ms of its own.
        let started = due + Duration::from_millis(30);
        let finished = started + Duration::from_millis(10);
        let p = account(due, started, finished);
        assert_eq!(p.late_ns, 30_000_000);
        assert_eq!(p.latency_ns, 40_000_000);
        // On time: no lateness, latency is the work alone.
        let p = account(due, due, due + Duration::from_millis(10));
        assert_eq!((p.late_ns, p.latency_ns), (0, 10_000_000));
    }
}
