//! Serving statistics: outcome counters and the queue high-water mark.
//! Latency is per response ([`Served`](crate::Served)'s `queue_ms` and
//! `total_ms`), not aggregated here.

/// Counters for one server's lifetime. Cloned out of the server by
/// [`Server::stats`](crate::Server::stats); all counters are cumulative.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Requests accepted into the admission queue.
    pub admitted: u64,
    /// Requests rejected at submission (`ServerOverloaded`).
    pub shed: u64,
    /// Responses served from the fingerprint cache.
    pub cache_hits: u64,
    /// Duplicate in-flight requests that coalesced onto another
    /// request's computation (single-flight followers).
    pub coalesced: u64,
    /// Responses computed fresh by the full pipeline.
    pub fresh: u64,
    /// Requests that terminated with a typed error other than shed /
    /// stopped.
    pub failed: u64,
    /// Requests completed with `ServerStopped` at shutdown.
    pub stopped: u64,
    /// Deepest the admission queue ever got.
    pub queue_high_water: usize,
}

impl ServerStats {
    /// Requests that terminated, successfully or not (shed excluded —
    /// they never entered the queue).
    pub fn completed(&self) -> u64 {
        self.fresh + self.cache_hits + self.coalesced + self.failed + self.stopped
    }

    /// Cache hits over all successful responses, in [0, 1].
    pub fn cache_hit_ratio(&self) -> f64 {
        let ok = self.fresh + self.cache_hits + self.coalesced;
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
    fn cache_hit_ratio_counts_only_successes() {
        let stats = ServerStats {
            fresh: 3,
            cache_hits: 6,
            coalesced: 1,
            failed: 7,
            ..Default::default()
        };
        assert_eq!(stats.cache_hit_ratio(), 0.6);
        assert_eq!(stats.completed(), 17);
    }
}
