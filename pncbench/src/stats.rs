//! Order statistics the benchmark reports: medians, quartiles (the same
//! rule as Python's `statistics.quantiles(values, n=4)`), and the tail
//! percentile rule — the highest of p90/p99/p99.9 that has at least ten
//! samples beyond it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Sorts a copy of `values` ascending (NaN-free input assumed).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
    v
}

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First, second and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let data = sorted(values);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Nearest-rank percentile (`p` in `(0, 1]`) of an ascending slice.
fn rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let k = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[k - 1]
}

/// Tail quantiles, largest first, considered by [`tail_percentile`].
const TAILS: [f64; 3] = [0.999, 0.99, 0.9];

/// The highest tail quantile with at least ten of `n` samples beyond it
/// (p90 needs 100 samples, p99 1000, p99.9 10000); `None` below 100.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|p| {
        // Count samples strictly beyond the nearest-rank position.
        let at = (p * n as f64).ceil() as usize;
        n.saturating_sub(at) >= 10
    })
}

/// A latency sample summarized by the benchmark's rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// p90, reported only when at least ten samples lie beyond it.
    pub p90: Option<f64>,
    /// The highest tail percentile the sample supports and its value.
    pub tail: Option<(f64, f64)>,
    pub max: f64,
}

/// Summarizes `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    let p90 = (tail_percentile(n).is_some()).then(|| rank(&v, 0.9));
    Some(Summary {
        count: n,
        p50: median(&v).expect("non-empty"),
        p90,
        tail: tail_percentile(n).map(|p| (p, rank(&v, p))),
        max: v[n - 1],
    })
}

/// Relative width of a [`Histogram`] bucket: about 0.1%.
const GROWTH: f64 = 1.0 + 1.0 / 1024.0;

/// A latency histogram with logarithmic buckets 0.1% wide, stored sparsely
/// so its memory follows the spread of the values, not their count: a
/// run's own sample storage then stays small and the same size however
/// fast the machine was, which keeps `peak_rss_mb` a measure of the
/// program. Quantiles are exact to the bucket width.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    buckets: BTreeMap<i32, u64>,
    count: usize,
    max: f64,
}

impl Histogram {
    /// Records one non-negative value.
    pub fn record(&mut self, v: f64) {
        let b = if v > 0.0 {
            (v.ln() / GROWTH.ln()).floor() as i32
        } else {
            i32::MIN
        };
        *self.buckets.entry(b).or_default() += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Adds `other`'s values.
    pub fn merge(&mut self, other: &Histogram) {
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_default() += n;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Nearest-rank quantile `p` in `(0, 1]`, as its bucket's geometric
    /// middle (the exact maximum for the top rank); `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p * self.count as f64).ceil() as usize).clamp(1, self.count);
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0usize;
        for (&b, &n) in &self.buckets {
            seen += n as usize;
            if seen >= rank {
                return Some(if b == i32::MIN {
                    0.0
                } else {
                    GROWTH.powf(f64::from(b) + 0.5)
                });
            }
        }
        Some(self.max)
    }

    /// The benchmark's summary of the recorded values.
    pub fn summary(&self) -> Option<Summary> {
        let tail = tail_percentile(self.count);
        Some(Summary {
            count: self.count,
            p50: self.quantile(0.5)?,
            p90: tail.and_then(|_| self.quantile(0.9)),
            tail: tail.and_then(|p| self.quantile(p).map(|v| (p, v))),
            max: self.max,
        })
    }
}

/// Latency of an open-loop request measured from when it was due, not
/// from when the (possibly late) generator sent it: a generator stall
/// then shows as latency on every request it delayed.
pub fn due_latency(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// How late the generator sent a request (zero when on time or early).
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn summary_reports_p90_only_with_enough_samples() {
        let small: Vec<f64> = (1..=50).map(f64::from).collect();
        let s = summarize(&small).unwrap();
        assert_eq!(s.p90, None);
        assert_eq!(s.tail, None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&big).unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.p90, Some(900.0));
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert_eq!(s.max, 1000.0);
    }

    #[test]
    fn histogram_quantiles_within_a_bucket() {
        let mut h = Histogram::default();
        assert_eq!(h.summary(), None);
        for v in 1..=1000 {
            h.record(f64::from(v));
        }
        h.record(0.0);
        let s = h.summary().unwrap();
        assert_eq!(s.count, 1001);
        assert_eq!(s.max, 1000.0);
        let close = |got: f64, want: f64| (got / want - 1.0).abs() < 1.0 / 1024.0;
        assert!(close(s.p50, 500.0), "{}", s.p50);
        assert!(close(s.p90.unwrap(), 900.0), "{:?}", s.p90);
        assert_eq!(s.tail.map(|t| t.0), Some(0.99));
        assert_eq!(h.quantile(1e-9), Some(0.0));
        let mut m = Histogram::default();
        m.record(2000.0);
        m.merge(&h);
        assert_eq!((m.len(), m.summary().unwrap().max), (1002, 2000.0));
    }

    #[test]
    fn due_time_latency_counts_generator_lag() {
        let due = Instant::now();
        let sent = due + Duration::from_micros(300);
        let done = sent + Duration::from_micros(200);
        // The request was sent 300 µs late; its latency includes that lag.
        assert_eq!(lateness(due, sent), Duration::from_micros(300));
        assert_eq!(due_latency(due, done), Duration::from_micros(500));
        // A request sent early is not late, and never has negative latency.
        assert_eq!(lateness(sent, due), Duration::ZERO);
        assert_eq!(due_latency(done, due), Duration::ZERO);
    }
}
