//! Serving statistics: outcome counters, queue high-water mark, and
//! per-outcome latency histograms.

/// A log₂-bucketed latency histogram over microseconds.
///
/// Bucket `i` counts latencies in `[2^i, 2^(i+1))` µs (bucket 0 also
/// absorbs sub-microsecond samples); 40 buckets reach ~12 days, far past
/// any sane request. Buckets make the histogram mergeable and cheap —
/// no reservoir, no allocation on the hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))` µs.
    pub buckets: [u64; 40],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples, milliseconds (for the mean).
    pub sum_ms: f64,
    /// Largest sample, milliseconds.
    pub max_ms: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 40],
            count: 0,
            sum_ms: 0.0,
            max_ms: 0.0,
        }
    }
}

impl LatencyHistogram {
    /// Record one latency sample, in milliseconds.
    pub fn record(&mut self, ms: f64) {
        let us = (ms * 1000.0).max(0.0);
        let idx = if us < 1.0 {
            0
        } else {
            (us.log2().floor() as usize).min(self.buckets.len() - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ms += ms;
        if ms > self.max_ms {
            self.max_ms = ms;
        }
    }

    /// Mean latency, ms (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }

    /// Upper edge (ms) of the bucket containing quantile `q` ∈ [0, 1],
    /// capped at the largest latency recorded — a bucketed approximation,
    /// exact to within one power of two and never above the maximum.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return (2f64.powi(i as i32 + 1) / 1000.0).min(self.max_ms);
            }
        }
        self.max_ms
    }
}

/// Counters and histograms for one server's lifetime. Cloned out of the
/// server by [`Server::stats`](crate::Server::stats); all counters are
/// cumulative.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Requests accepted into the admission queue.
    pub admitted: u64,
    /// Requests rejected at submission (`ServerOverloaded`).
    pub shed: u64,
    /// Requests that terminated with `PlanDeadlineExceeded` — queued,
    /// waiting on a coalesced computation, or mid-compute.
    pub expired: u64,
    /// Responses served in degraded mode: a stale cached response under
    /// an open breaker, or the fallback path.
    pub degraded: u64,
    /// Responses served from the fingerprint cache (healthy or stale).
    pub cache_hits: u64,
    /// Duplicate in-flight requests that coalesced onto another
    /// request's computation (single-flight followers).
    pub coalesced: u64,
    /// Responses computed fresh by the full pipeline.
    pub fresh: u64,
    /// Responses computed by the degraded fallback path under an open
    /// breaker (a subset of `degraded`; the rest are stale cache hits).
    pub fallbacks: u64,
    /// Requests that terminated with a typed error other than shed /
    /// expired / stopped.
    pub failed: u64,
    /// Requests completed with `ServerStopped` at shutdown.
    pub stopped: u64,
    /// Transient-failure retries spent across all requests.
    pub retries: u64,
    /// Circuit-breaker transitions to open.
    pub breaker_opens: u64,
    /// Circuit-breaker recoveries (half-open probe succeeded).
    pub breaker_closes: u64,
    /// Deepest the admission queue ever got.
    pub queue_high_water: usize,
    /// Queue-wait latency of admitted requests.
    pub queue_wait: LatencyHistogram,
    /// Submission-to-response latency of successful responses, by path.
    pub latency_fresh: LatencyHistogram,
    /// Latency of cache hits (healthy and stale).
    pub latency_cache: LatencyHistogram,
    /// Latency of degraded-mode responses (stale cache + fallback).
    pub latency_degraded: LatencyHistogram,
    /// Latency of requests that terminated with a typed error.
    pub latency_error: LatencyHistogram,
}

impl ServerStats {
    /// Requests that terminated, successfully or not (shed excluded —
    /// they never entered the queue).
    pub fn completed(&self) -> u64 {
        self.fresh
            + self.cache_hits
            + self.coalesced
            + self.fallbacks
            + self.expired
            + self.failed
            + self.stopped
    }

    /// Cache hits over all successful responses, in [0, 1].
    pub fn cache_hit_ratio(&self) -> f64 {
        let ok = self.fresh + self.cache_hits + self.coalesced + self.fallbacks;
        if ok == 0 {
            0.0
        } else {
            self.cache_hits as f64 / ok as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let mut h = LatencyHistogram::default();
        h.record(0.0005); // 0.5 µs → bucket 0
        h.record(0.003); // 3 µs → bucket 1
        h.record(1.0); // 1000 µs → bucket 9
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[9], 1);
        assert!(h.mean_ms() > 0.0);
        assert_eq!(h.max_ms, 1.0);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let mut h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(0.01); // 10 µs → bucket 3
        }
        h.record(100.0); // 100 000 µs → bucket 16
        assert!(h.quantile_ms(0.5) <= 0.016_384 + 1e-9);
        assert!(h.quantile_ms(1.0) >= 100.0);
    }

    /// Regression: a quantile was its bucket's upper edge, so the report
    /// printed p99 = 32.8 ms beside max = 22.6 ms.
    #[test]
    fn no_quantile_exceeds_the_maximum() {
        let mut h = LatencyHistogram::default();
        h.record(5.0);
        h.record(22.6);
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert!(h.quantile_ms(q) <= 22.6, "q={q}: {}", h.quantile_ms(q));
        }
        assert_eq!(h.quantile_ms(1.0), h.max_ms);
    }

    #[test]
    fn cache_hit_ratio_counts_only_successes() {
        let stats = ServerStats {
            fresh: 3,
            cache_hits: 6,
            coalesced: 1,
            expired: 5,
            failed: 2,
            ..Default::default()
        };
        assert_eq!(stats.cache_hit_ratio(), 0.6);
        assert_eq!(stats.completed(), 17);
    }
}
