//! Server metrics: aggregate counters plus a fixed-bucket latency histogram
//! good enough for p50/p99 without per-request allocation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 microsecond buckets: bucket `i` holds latencies in
/// `[2^i, 2^(i+1))` µs, so 40 buckets cover ~1µs to ~12 days.
const BUCKETS: usize = 40;

/// A concurrent latency histogram over log2-microsecond buckets.
///
/// Quantiles are bucket upper bounds — at most 2× off, which is plenty to
/// tell a 100µs p50 from a 10ms p99 — and reads are lock-free snapshots.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        // analyze: allow(serve-worker-panic): idx is clamped to BUCKETS-1 on the line above
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        (self.sum_micros.load(Ordering::Relaxed))
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Latency quantile `q` in `[0,1]`, reported as the upper bound of the
    /// bucket containing the q-th observation, in microseconds.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64 * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                // Bucket i holds [2^(i-1), 2^i) µs; return the upper bound.
                return 1u64 << i.min(63);
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// Aggregate service counters, shared by every worker and connection.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Queries completed successfully.
    pub served: AtomicU64,
    /// Queries rejected because the admission queue was full.
    pub rejected: AtomicU64,
    /// Queries that hit their deadline.
    pub timed_out: AtomicU64,
    /// Queries that failed (parse error, storage error).
    pub failed: AtomicU64,
    /// Current admission-queue depth.
    pub queue_depth: AtomicU64,
    /// Plan-cache lookups that found a cached plan.
    pub plan_hits: AtomicU64,
    /// Plan-cache lookups that had to plan from scratch.
    pub plan_misses: AtomicU64,
    /// Plan-cache lookups that dropped an entry planned under an older
    /// commit generation.
    pub plan_stale: AtomicU64,
    /// Queries answered empty from the synopsis path summary alone: the
    /// planner proved a root chain unsupported and the executor never
    /// located a starting point or touched a page.
    pub empty_proofs: AtomicU64,
    /// End-to-end latency of successful queries.
    pub latency: LatencyHistogram,
    /// From a query's arrival to its answer's first frame in the
    /// connection's outbound queue: time to first match on the wire.
    pub first_chunk: LatencyHistogram,
    /// `QueryPart` frames sent: chunks of answers larger than one.
    pub answer_chunks: AtomicU64,
    /// The most bytes any connection's outbound queue has held.
    pub out_queue_hwm: AtomicU64,
}

impl ServerMetrics {
    /// One-line summary (nokd logs this on shutdown).
    pub fn summary(&self) -> String {
        format!(
            "served={} rejected={} timed_out={} failed={} plan_hits={} plan_misses={} \
             plan_stale={} empty_proofs={} p50_us={} p99_us={} mean_us={}",
            self.served.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.timed_out.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
            self.plan_hits.load(Ordering::Relaxed),
            self.plan_misses.load(Ordering::Relaxed),
            self.plan_stale.load(Ordering::Relaxed),
            self.empty_proofs.load(Ordering::Relaxed),
            self.latency.quantile_micros(0.50),
            self.latency.quantile_micros(0.99),
            self.latency.mean_micros(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_buckets() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket [64,128) -> ub 128
        }
        h.record(Duration::from_millis(50)); // the single tail outlier
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_micros(0.50), 128);
        assert!(h.quantile_micros(0.999) >= 50_000);
        assert!(h.mean_micros() >= 100);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_micros(0.5), 0);
        assert_eq!(h.mean_micros(), 0);
    }

    #[test]
    fn concurrent_recording() {
        let h = std::sync::Arc::new(LatencyHistogram::default());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(Duration::from_micros(i % 512));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }
}
