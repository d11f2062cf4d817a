//! Server telemetry: lock-free counters, a log-bucketed latency histogram,
//! and the aggregated [`SolveStats`] of every solve the daemon has run.
//!
//! Everything here is designed to be cheap on the hot path (atomics for
//! counters, one short mutex hold per completed solve) and rendered as a
//! flat stats response by [`Metrics::snapshot`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pcap_lp::SolveStats;

/// Number of log₂ latency buckets; bucket `i` covers solves faster than
/// `0.1ms * 2^i`, so the range spans 0.1 ms … ~14 min.
const BUCKETS: usize = 24;

#[derive(Default)]
struct Histogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Histogram {
    fn record(&mut self, seconds: f64) {
        let mut bound = 0.1e-3;
        let mut idx = BUCKETS - 1;
        for i in 0..BUCKETS {
            if seconds <= bound {
                idx = i;
                break;
            }
            bound *= 2.0;
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Upper bound of the bucket holding the q-quantile, in milliseconds.
    /// `0` when nothing was recorded.
    fn quantile_ms(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let mut bound_ms = 0.1;
        for count in self.counts {
            seen += count;
            if seen >= target {
                return bound_ms;
            }
            bound_ms *= 2.0;
        }
        bound_ms
    }
}

#[derive(Default)]
struct MetricsInner {
    latency: Histogram,
    lp: SolveStats,
}

/// Shared server metrics. All counters are cumulative since start.
pub struct Metrics {
    /// Request lines received (any op, including malformed ones).
    pub requests: AtomicU64,
    /// Lines rejected as unparseable.
    pub parse_errors: AtomicU64,
    /// Lines rejected for exceeding the size cap.
    pub too_large: AtomicU64,
    /// Sweep requests whose instance failed to decode/validate/resolve.
    pub bad_instance: AtomicU64,
    /// Sweep requests answered from the ready cache.
    pub cache_hits: AtomicU64,
    /// Sweep requests that became solve leaders.
    pub cache_misses: AtomicU64,
    /// Sweep requests coalesced onto another connection's in-flight solve.
    pub coalesced: AtomicU64,
    /// Sweep requests shed because the admission queue was full.
    pub shed: AtomicU64,
    /// Sweep requests rejected because the server was draining.
    pub rejected_shutdown: AtomicU64,
    /// Jobs executed by the worker pool (== leaders that reached a worker).
    pub solves: AtomicU64,
    /// Solver panics caught by a worker's `catch_unwind` guard.
    pub worker_panics: AtomicU64,
    /// Replacement workers spawned after a panic poisoned one.
    pub worker_respawns: AtomicU64,
    /// Fingerprints tombstoned after repeatedly panicking workers.
    pub quarantined_fingerprints: AtomicU64,
    /// Requests refused because their fingerprint is quarantined.
    pub quarantine_rejected: AtomicU64,
    /// Responses answered with the degraded discrete floor instead of the
    /// LP optimum (panics, deadline misses).
    pub degraded: AtomicU64,
    /// Queued jobs whose deadline had already passed when a worker popped
    /// them (skipped the solve, answered degraded).
    pub deadline_drops: AtomicU64,
    /// Sweep requests answered from the on-disk store.
    pub store_hits: AtomicU64,
    /// Replies persisted to the on-disk store.
    pub store_writes: AtomicU64,
    /// Store writes that failed (flaky disk / injected faults).
    pub store_write_errors: AtomicU64,
    /// Entries validated by the startup recovery scan.
    pub store_recovered: AtomicU64,
    /// Corrupt entries quarantined (at startup or on read).
    pub store_quarantined: AtomicU64,
    /// Connections deliberately dropped by the fault injector.
    pub injected_disconnects: AtomicU64,
    start: Instant,
    inner: Mutex<MetricsInner>,
}

impl Metrics {
    pub fn new() -> Self {
        Self {
            requests: AtomicU64::new(0),
            parse_errors: AtomicU64::new(0),
            too_large: AtomicU64::new(0),
            bad_instance: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            quarantined_fingerprints: AtomicU64::new(0),
            quarantine_rejected: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            deadline_drops: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_writes: AtomicU64::new(0),
            store_write_errors: AtomicU64::new(0),
            store_recovered: AtomicU64::new(0),
            store_quarantined: AtomicU64::new(0),
            injected_disconnects: AtomicU64::new(0),
            start: Instant::now(),
            inner: Mutex::new(MetricsInner::default()),
        }
    }

    /// Records one completed solve: end-to-end latency plus the LP
    /// telemetry it accumulated.
    pub fn record_solve(&self, wall: Duration, lp: &SolveStats) {
        self.solves.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        inner.latency.record(wall.as_secs_f64());
        inner.lp.absorb(lp);
    }

    /// Snapshot for the stats response. `queue_depth` and `cache_entries`
    /// are point-in-time gauges supplied by the caller; every
    /// [`SolveStats`] field follows as `lp_<field>`.
    pub fn snapshot(&self, queue_depth: usize, cache_entries: usize) -> Vec<(String, String)> {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let hits = load(&self.cache_hits);
        let misses = load(&self.cache_misses);
        let coal = load(&self.coalesced);
        let lookups = hits + misses + coal;
        let hit_rate = if lookups == 0 { 0.0 } else { (hits + coal) as f64 / lookups as f64 };
        let inner = self.inner.lock().unwrap();
        let counters = [
            ("requests", load(&self.requests).to_string()),
            ("parse_errors", load(&self.parse_errors).to_string()),
            ("too_large", load(&self.too_large).to_string()),
            ("bad_instance", load(&self.bad_instance).to_string()),
            ("cache_hits", hits.to_string()),
            ("cache_misses", misses.to_string()),
            ("coalesced", coal.to_string()),
            ("cache_hit_rate", format!("{hit_rate:.4}")),
            ("shed", load(&self.shed).to_string()),
            ("rejected_shutdown", load(&self.rejected_shutdown).to_string()),
            ("queue_depth", queue_depth.to_string()),
            ("cache_entries", cache_entries.to_string()),
            ("solves", load(&self.solves).to_string()),
            ("worker_panics", load(&self.worker_panics).to_string()),
            ("worker_respawns", load(&self.worker_respawns).to_string()),
            ("quarantined_fingerprints", load(&self.quarantined_fingerprints).to_string()),
            ("quarantine_rejected", load(&self.quarantine_rejected).to_string()),
            ("degraded", load(&self.degraded).to_string()),
            ("deadline_drops", load(&self.deadline_drops).to_string()),
            ("store_hits", load(&self.store_hits).to_string()),
            ("store_writes", load(&self.store_writes).to_string()),
            ("store_write_errors", load(&self.store_write_errors).to_string()),
            ("store_recovered", load(&self.store_recovered).to_string()),
            ("store_quarantined", load(&self.store_quarantined).to_string()),
            ("injected_disconnects", load(&self.injected_disconnects).to_string()),
            // The same total as `lp_wall_time_s` below, under the key
            // clients already read.
            ("lp_wall_s", format!("{:.6}", inner.lp.wall_time_s)),
            ("p50_ms", format!("{:.3}", inner.latency.quantile_ms(0.50))),
            ("p99_ms", format!("{:.3}", inner.latency.quantile_ms(0.99))),
            ("uptime_s", format!("{:.3}", self.start.elapsed().as_secs_f64())),
        ];
        let lp = inner.lp.fields().into_iter().map(|(k, v)| (format!("lp_{k}"), v.to_string()));
        counters.into_iter().map(|(k, v)| (k.to_string(), v)).chain(lp).collect()
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_recordings() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(0.001); // ~1ms
        }
        h.record(1.0); // one slow outlier
        let p50 = h.quantile_ms(0.50);
        assert!((0.5..=2.0).contains(&p50), "p50={p50}");
        let p99 = h.quantile_ms(0.99);
        assert!(p99 <= 2.0, "p99={p99} should exclude the single outlier");
        let p100 = h.quantile_ms(1.0);
        assert!(p100 >= 1000.0, "p100={p100} must cover the outlier");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_ms(0.5), 0.0);
    }

    #[test]
    fn snapshot_contains_required_fields() {
        let m = Metrics::new();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(1, Ordering::Relaxed);
        m.cache_misses.fetch_add(1, Ordering::Relaxed);
        let lp = SolveStats {
            solves: 4,
            certified: 2,
            warm_rejected: 1,
            basis_nnz: 120,
            factor_nnz: 150,
            ..SolveStats::default()
        };
        m.record_solve(Duration::from_millis(3), &lp);
        let snap = m.snapshot(5, 7);
        let get = |k: &str| {
            snap.iter().find(|(sk, _)| *sk == k).map(|(_, v)| v.clone()).unwrap_or_default()
        };
        assert_eq!(get("queue_depth"), "5");
        assert_eq!(get("cache_entries"), "7");
        assert_eq!(get("solves"), "1");
        assert_eq!(get("lp_solves"), "4");
        assert_eq!(get("lp_certified"), "2");
        assert_eq!(get("lp_warm_rejected"), "1");
        assert_eq!(get("lp_basis_nnz"), "120");
        assert_eq!(get("lp_factor_nnz"), "150");
        assert_eq!(get("cache_hit_rate"), "0.5000");
        for field in SolveStats::FIELDS {
            assert!(snap.iter().any(|(k, _)| *k == format!("lp_{field}")), "no lp_{field}");
        }
        assert!(get("p50_ms").parse::<f64>().unwrap() > 0.0);
        assert!(get("p99_ms").parse::<f64>().unwrap() > 0.0);
        assert!(get("uptime_s").parse::<f64>().unwrap() >= 0.0);
    }
}
