//! Latency aggregation for the stress harness: a percentile histogram over
//! request durations.
//!
//! `hanoi_stress` records one sample per
//! request/response round trip and reports p50/p95/p99 — the numbers that
//! matter for a bounded server are the *tail*, not the mean (a server that
//! sheds correctly keeps its tail flat under overload; one that queues
//! without bound does not).  Exact samples are kept (microsecond
//! `Duration`s, a few bytes each); at stress-harness volumes this is
//! cheaper than maintaining bucketed sketches and keeps the percentiles
//! exact.

use std::time::Duration;

use hanoi::json::Json;

/// An exact-sample latency histogram.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    samples: Vec<Duration>,
    sorted: bool,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Duration) {
        self.samples.push(sample);
        self.sorted = false;
    }

    /// Absorbs every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by the nearest-rank method, or
    /// `None` when empty.
    pub fn percentile(&mut self, q: f64) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        self.sort();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        Some(self.samples[rank - 1])
    }

    /// The largest sample, or `None` when empty.
    pub fn max(&mut self) -> Option<Duration> {
        self.sort();
        self.samples.last().copied()
    }

    /// Mean latency, or `None` when empty.
    pub fn mean(&self) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        let total: Duration = self.samples.iter().sum();
        Some(total / self.samples.len() as u32)
    }

    /// Serializes count, mean, p50/p95/p99 and max (milliseconds).
    ///
    /// Takes `&mut self` because percentile extraction sorts the samples.
    pub fn summary(&mut self) -> Json {
        let ms = |d: Option<Duration>| match d {
            Some(d) => Json::Num(d.as_secs_f64() * 1000.0),
            None => Json::Null,
        };
        Json::obj([
            ("count", Json::Num(self.len() as f64)),
            ("mean_ms", ms(self.mean())),
            ("p50_ms", ms(self.percentile(0.50))),
            ("p95_ms", ms(self.percentile(0.95))),
            ("p99_ms", ms(self.percentile(0.99))),
            ("max_ms", ms(self.max())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut histogram = LatencyHistogram::new();
        assert!(histogram.is_empty());
        assert_eq!(histogram.percentile(0.5), None);
        // 1..=100 ms, inserted out of order.
        for ms in (1..=100).rev() {
            histogram.record(Duration::from_millis(ms));
        }
        assert_eq!(histogram.len(), 100);
        assert_eq!(histogram.percentile(0.50), Some(Duration::from_millis(50)));
        assert_eq!(histogram.percentile(0.95), Some(Duration::from_millis(95)));
        assert_eq!(histogram.percentile(0.99), Some(Duration::from_millis(99)));
        assert_eq!(histogram.percentile(1.0), Some(Duration::from_millis(100)));
        assert_eq!(histogram.percentile(0.0), Some(Duration::from_millis(1)));
        assert_eq!(histogram.max(), Some(Duration::from_millis(100)));
        assert_eq!(histogram.mean(), Some(Duration::from_micros(50_500)));

        let mut other = LatencyHistogram::new();
        other.record(Duration::from_millis(1000));
        histogram.merge(&other);
        assert_eq!(histogram.max(), Some(Duration::from_secs(1)));

        let json = histogram.summary();
        assert_eq!(json.get("count").unwrap().as_usize(), Some(101));
        assert!(json.get("p99_ms").unwrap().as_f64().unwrap() >= 99.0);
    }
}
