//! Service-level observability: the [`ServeReport`] aggregate, whose
//! latency sketch is `hierdiff-obs`'s [`DurationHistogram`].

use serde::{Deserialize, Serialize};

use hierdiff_obs::DurationHistogram;

/// Aggregate service statistics since construction (or the last
/// [`DiffService::report`](crate::DiffService::report) snapshot — the
/// report is cumulative, not windowed).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Requests that entered admission.
    pub requests: u64,
    /// Requests answered successfully (including degraded ones).
    pub ok: u64,
    /// Requests shed by admission control (too many requests or nodes in
    /// flight).
    pub rejected: u64,
    /// Retry attempts consumed across all requests.
    pub retried: u64,
    /// Successful responses flagged degraded (ladder rung > first, or an
    /// in-pipeline degraded tier engaged).
    pub degraded: u64,
    /// Requests dropped for deadline reasons: timed out waiting for a
    /// run slot, answered only after the deadline, or rejected at the
    /// ladder's bottom.
    pub shed: u64,
    /// Version-entry lookups served from an intact cached index.
    pub cache_hits: u64,
    /// Lookups that had to rebuild a quarantined index first.
    pub cache_misses: u64,
    /// Cache entries quarantined by panicking requests.
    pub quarantined: u64,
    /// End-to-end request latency sketch (successful responses only).
    pub latency: DurationHistogram,
    /// Wall time covered by this report, nanoseconds.
    pub elapsed_nanos: u64,
}

impl ServeReport {
    /// Sustained successful-diff throughput over the report window.
    pub fn diffs_per_sec(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            return 0.0;
        }
        self.ok as f64 * 1e9 / self.elapsed_nanos as f64
    }

    /// Approximate median request latency, nanoseconds.
    pub fn p50_nanos(&self) -> u64 {
        self.latency.approx_quantile(0.50)
    }

    /// Approximate 99th-percentile request latency, nanoseconds.
    pub fn p99_nanos(&self) -> u64 {
        self.latency.approx_quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_quantiles() {
        let mut r = ServeReport {
            ok: 10,
            elapsed_nanos: 2_000_000_000,
            ..ServeReport::default()
        };
        assert!((r.diffs_per_sec() - 5.0).abs() < 1e-9);
        for _ in 0..99 {
            r.latency.record(1_000);
        }
        r.latency.record(1_000_000);
        assert!(r.p50_nanos() <= 2_048);
        assert!(r.p99_nanos() <= 2_048, "p99 is the 100th of 101 below 1ms");
        r.latency.record(1_000_000);
        assert!(r.p99_nanos() > 2_048 || r.latency.count() < 100);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut report = ServeReport {
            requests: 3,
            ok: 2,
            ..ServeReport::default()
        };
        report.latency.record(500);
        let json = serde_json::to_string(&report).unwrap();
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
