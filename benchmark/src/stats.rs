//! Order statistics: medians, the percentile picker, and the quartile
//! spread `--repeat` judges steadiness by.

/// Percentiles the picker may report, highest first.
const LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// A quantile is only trusted with this many samples beyond it.
const MIN_BEYOND: usize = 10;

/// The highest percentile of the ladder that `n` samples support: at least
/// [`MIN_BEYOND`] of them must lie beyond it. `None` below 20 samples.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .find(|q| samples_beyond(n, *q) >= MIN_BEYOND)
}

fn samples_beyond(n: usize, q: f64) -> usize {
    // Integer arithmetic on per-mille keeps 0.95 * 200 from rounding to 9.
    let per_mille = (q * 1000.0).round() as usize;
    n * (1000 - per_mille) / 1000
}

/// Nearest-rank quantile of an ascending slice (0 for an empty one).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values, averaging the middle pair (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The host this runs on changes speed for seconds at a time, so one figure
/// over a whole window moves with how much of the window a slow spell took.
/// The figures below are therefore medians over consecutive slices of the
/// window: a spell shorter than half the window leaves them alone.
const MAX_SLICES: usize = 15;

/// How many equal slices `n` samples are cut into for percentile `q`: as
/// many as leave [`MIN_BEYOND`] samples beyond the percentile in each, at
/// least one, at most [`MAX_SLICES`].
pub fn slices_for(n: usize, q: f64) -> usize {
    (samples_beyond(n, q) / MIN_BEYOND).clamp(1, MAX_SLICES)
}

/// Percentile `q` of latencies given **in completion order**: the median,
/// over [`slices_for`] consecutive slices, of each slice's nearest-rank
/// percentile. With one slice it is the plain percentile.
pub fn sliced_quantile(in_order: &[u64], q: f64) -> f64 {
    if in_order.is_empty() {
        return f64::NAN;
    }
    let slices = slices_for(in_order.len(), q);
    let per = in_order.len() / slices;
    let of_slices: Vec<f64> = in_order
        .chunks_exact(per)
        .map(|slice| {
            let mut sorted = slice.to_vec();
            sorted.sort_unstable();
            quantile_sorted(&sorted, q) as f64
        })
        .collect();
    median(&of_slices)
}

/// Operations per second from ascending completion times in ns: the median
/// rate over up to [`MAX_SLICES`] consecutive slices, each a whole number of
/// `unit` operations (one period of the request mix, so that every slice is
/// the same work). Falls back to the overall rate below two units.
pub fn sliced_rate(done_ns: &[u64], unit: usize) -> f64 {
    let n = done_ns.len();
    if n < 2 {
        return f64::NAN;
    }
    let units = (n - 1) / unit.max(1);
    let slices = units.clamp(1, MAX_SLICES);
    let per = if units == 0 {
        n - 1
    } else {
        units / slices * unit
    };
    let rates: Vec<f64> = (0..slices)
        .map(|i| {
            let span_ns = done_ns[(i + 1) * per] - done_ns[i * per];
            per as f64 / (span_ns.max(1) as f64 / 1e9)
        })
        .collect();
    median(&rates)
}

/// A latency sample set reduced to what the report prints.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50_us: f64,
    /// The value at the workload's declared tail percentile (e.g. 0.95).
    pub tail_us: f64,
    /// False when the sample count does not support the tail percentile
    /// (fewer than ten samples beyond it); the value is still reported.
    pub tail_supported: bool,
}

/// Reduce latencies in nanoseconds, in completion order, to microsecond
/// statistics.
pub fn summarize_ns(in_order: &[u64], tail_q: f64) -> LatencySummary {
    LatencySummary {
        samples: in_order.len(),
        p50_us: sliced_quantile(in_order, 0.50) / 1000.0,
        tail_us: sliced_quantile(in_order, tail_q) / 1000.0,
        tail_supported: supported_percentile(in_order.len()).is_some_and(|q| q >= tail_q),
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the exclusive method): the number the benchmark contract bounds.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, interpolated and clamped.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (at(3) - at(1)).abs() / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_wants_ten_samples_beyond_the_percentile() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.50));
        assert_eq!(supported_percentile(39), Some(0.50));
        assert_eq!(supported_percentile(40), Some(0.75));
        assert_eq!(supported_percentile(100), Some(0.90));
        assert_eq!(supported_percentile(199), Some(0.90));
        assert_eq!(supported_percentile(200), Some(0.95));
        assert_eq!(supported_percentile(999), Some(0.95));
        assert_eq!(supported_percentile(1000), Some(0.99));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50);
        assert_eq!(quantile_sorted(&v, 0.95), 95);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn summary_flags_an_unsupported_tail() {
        let few: Vec<u64> = (1..=50).map(|x| x * 1000).collect();
        let s = summarize_ns(&few, 0.95);
        assert_eq!(s.samples, 50);
        assert!(!s.tail_supported);
        let many: Vec<u64> = (1..=400).map(|x| x * 1000).collect();
        assert!(summarize_ns(&many, 0.95).tail_supported);
    }

    #[test]
    fn slices_leave_ten_samples_beyond_the_percentile() {
        assert_eq!(slices_for(50, 0.95), 1);
        assert_eq!(slices_for(400, 0.95), 2);
        assert_eq!(slices_for(400, 0.50), 15);
        assert_eq!(slices_for(1_000_000, 0.99), 15);
    }

    #[test]
    fn one_slice_is_the_plain_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(sliced_quantile(&v, 0.95), 95.0);
        assert_eq!(sliced_quantile(&v, 0.50), 50.0);
    }

    #[test]
    fn a_slow_spell_shorter_than_half_the_window_does_not_move_the_figures() {
        // 3,000 operations at 1 ms each, of which one stretch of 600 (a
        // fifth of the window) runs three times slower.
        let mut lat = vec![1_000_000u64; 3000];
        for l in &mut lat[900..1500] {
            *l = 3_000_000;
        }
        let mut done = Vec::new();
        let mut t = 0u64;
        for l in &lat {
            t += l;
            done.push(t);
        }
        assert_eq!(sliced_quantile(&lat, 0.50), 1_000_000.0);
        assert_eq!(sliced_quantile(&lat, 0.95), 1_000_000.0);
        assert!((sliced_rate(&done, 3) - 1000.0).abs() < 1e-6);
        // The plain figures move: the 95th percentile triples, the rate
        // drops by more than a quarter.
        let mut sorted = lat.clone();
        sorted.sort_unstable();
        assert_eq!(quantile_sorted(&sorted, 0.95), 3_000_000);
        let plain = (done.len() - 1) as f64 / ((done[done.len() - 1] - done[0]) as f64 / 1e9);
        assert!(plain < 750.0);
    }

    #[test]
    fn rate_slices_are_whole_units_of_work() {
        // 8 operations per round, a round every 0.5 s, unevenly inside it.
        let mut done = vec![0u64];
        for round in 0..10u64 {
            for k in 1..=8u64 {
                done.push(round * 500_000_000 + k * k * 7_812_500);
            }
        }
        assert!((sliced_rate(&done, 8) - 16.0).abs() < 1e-9);
        assert!(sliced_rate(&[5], 8).is_nan());
        // Fewer operations than one unit: the overall rate.
        assert!((sliced_rate(&[0, 250_000_000, 500_000_000], 8) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let want = (8.25 - 2.75) / 5.5;
        assert!((quartile_spread(&v) - want).abs() < 1e-12);
        assert!(quartile_spread(&[5.0, 5.0, 5.0]) == 0.0);
        // Two values: Python extrapolates to [7.5, 15.0, 22.5].
        assert!((quartile_spread(&[10.0, 20.0]) - 1.0).abs() < 1e-12);
    }
}
