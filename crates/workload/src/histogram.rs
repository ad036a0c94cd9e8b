//! Latency recording and stage aggregation.

use nbkv_core::proto::StageTimes;

/// A simple latency recorder (nanosecond samples).
///
/// It keeps every sample and reports exact nearest-rank quantiles, unlike
/// the log-linear buckets of `nbkv_obs::Histogram`. The two stay separate
/// on purpose: the figure tables print these exact values, and bucketed
/// quantiles would move the published numbers.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
    sorted: bool,
}

impl LatencyRecorder {
    /// New, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        self.samples.push(ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean_ns(&self) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        (self.samples.iter().map(|&x| x as u128).sum::<u128>() / self.samples.len() as u128) as u64
    }

    /// The `q`-quantile (0.0-1.0), nearest-rank method; 0 if empty.
    pub fn quantile_ns(&mut self, q: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let rank = (q * self.samples.len() as f64).ceil() as usize;
        self.samples[rank.saturating_sub(1).min(self.samples.len() - 1)]
    }

    /// Maximum sample (0 if empty).
    pub fn max_ns(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }
}

/// Average per-operation breakdown over the six stages of Section III-A,
/// in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    /// Stage 1: slab allocation (including eviction/flush).
    pub slab_alloc_ns: f64,
    /// Stage 2: cache check and load (including SSD reads).
    pub check_load_ns: f64,
    /// Stage 3: cache (LRU) update.
    pub cache_update_ns: f64,
    /// Stage 4: server response.
    pub response_ns: f64,
    /// Stage 5: client wait (everything not attributed elsewhere).
    pub client_wait_ns: f64,
    /// Stage 6: backend miss penalty.
    pub miss_penalty_ns: f64,
}

impl StageBreakdown {
    /// Sum of all stages (the bar height in Figures 2/6).
    pub fn total_ns(&self) -> f64 {
        self.slab_alloc_ns
            + self.check_load_ns
            + self.cache_update_ns
            + self.response_ns
            + self.client_wait_ns
            + self.miss_penalty_ns
    }
}

/// Accumulates per-op stage observations into an average breakdown.
#[derive(Debug, Clone, Default)]
pub struct StageAggregator {
    sum: StageBreakdown,
    count: u64,
}

impl StageAggregator {
    /// New, empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one blocking operation: server stages from the response,
    /// plus the measured total and any backend penalty. The remainder of
    /// the total is attributed to client wait.
    pub fn record_blocking(&mut self, stages: &StageTimes, total_ns: u64, miss_penalty_ns: u64) {
        let server = stages.server_total_ns();
        let wait = total_ns.saturating_sub(server + miss_penalty_ns);
        self.sum.slab_alloc_ns += stages.slab_alloc_ns as f64;
        self.sum.check_load_ns += stages.check_load_ns as f64;
        self.sum.cache_update_ns += stages.cache_update_ns as f64;
        self.sum.response_ns += stages.response_ns as f64;
        self.sum.client_wait_ns += wait as f64;
        self.sum.miss_penalty_ns += miss_penalty_ns as f64;
        self.count += 1;
    }

    /// Record one non-blocking operation: only the client-visible blocked
    /// time counts (the server stages are hidden by overlap).
    pub fn record_nonblocking(&mut self, visible_blocked_ns: u64) {
        self.sum.client_wait_ns += visible_blocked_ns as f64;
        self.count += 1;
    }

    /// Operations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The average per-op breakdown.
    pub fn average(&self) -> StageBreakdown {
        if self.count == 0 {
            return StageBreakdown::default();
        }
        let n = self.count as f64;
        StageBreakdown {
            slab_alloc_ns: self.sum.slab_alloc_ns / n,
            check_load_ns: self.sum.check_load_ns / n,
            cache_update_ns: self.sum.cache_update_ns / n,
            response_ns: self.sum.response_ns / n,
            client_wait_ns: self.sum.client_wait_ns / n,
            miss_penalty_ns: self.sum.miss_penalty_ns / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_statistics() {
        let mut r = LatencyRecorder::new();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            r.record(v);
        }
        assert_eq!(r.count(), 10);
        assert_eq!(r.mean_ns(), 55);
        assert_eq!(r.quantile_ns(0.5), 50);
        assert_eq!(r.quantile_ns(1.0), 100);
        assert_eq!(r.quantile_ns(0.0), 10);
        assert_eq!(r.max_ns(), 100);
    }

    #[test]
    fn empty_recorder_is_zero() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.mean_ns(), 0);
        assert_eq!(r.quantile_ns(0.99), 0);
    }

    #[test]
    fn blocking_aggregation_attributes_remainder_to_wait() {
        let mut agg = StageAggregator::new();
        let stages = StageTimes {
            slab_alloc_ns: 100,
            check_load_ns: 200,
            cache_update_ns: 50,
            response_ns: 150,
            ..StageTimes::default()
        };
        agg.record_blocking(&stages, 1000, 0);
        let avg = agg.average();
        assert_eq!(avg.client_wait_ns, 500.0);
        assert_eq!(avg.total_ns(), 1000.0);
    }

    #[test]
    fn miss_penalty_is_separate_from_wait() {
        let mut agg = StageAggregator::new();
        agg.record_blocking(&StageTimes::default(), 2_100_000, 2_000_000);
        let avg = agg.average();
        assert_eq!(avg.miss_penalty_ns, 2_000_000.0);
        assert_eq!(avg.client_wait_ns, 100_000.0);
    }

    #[test]
    fn nonblocking_counts_only_visible_time() {
        let mut agg = StageAggregator::new();
        agg.record_nonblocking(500);
        agg.record_nonblocking(1500);
        let avg = agg.average();
        assert_eq!(avg.client_wait_ns, 1000.0);
        assert_eq!(avg.slab_alloc_ns, 0.0);
        assert_eq!(agg.count(), 2);
    }

    #[test]
    fn average_over_multiple_ops() {
        let mut agg = StageAggregator::new();
        for total in [100, 300] {
            agg.record_blocking(&StageTimes::default(), total, 0);
        }
        assert_eq!(agg.average().client_wait_ns, 200.0);
    }
}
