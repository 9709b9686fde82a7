//! Wire-level observability: lock-free counters and a fixed-precision
//! latency histogram, exported as a serde-friendly snapshot and mirrored
//! into a [`cdba_obs::Registry`] at scrape time.

use cdba_obs::Registry;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Values below [`LINEAR_MAX`] get one bucket each (exact).
const LINEAR_MAX: u64 = 100;
/// Buckets per decade above the linear range: two significant digits.
const PER_DECADE: usize = 90;
/// Decades covered above the linear range (`10^2` up to `> 10^19`, the
/// full `u64` range).
const DECADES: usize = 18;
const BUCKETS: usize = LINEAR_MAX as usize + DECADES * PER_DECADE;

/// A fixed-precision latency histogram over microseconds, HDR-style with
/// two significant digits.
///
/// Samples below 100 µs land in exact one-microsecond buckets; larger
/// samples keep their top two digits (`1234 µs` → bucket `[1200, 1300)`),
/// so the relative quantisation error is bounded by one bucket width —
/// 10% worst-case, against the 2× of a power-of-two histogram.
/// Percentile queries return the upper bound of the bucket the rank falls
/// in. Recording stays lock-free and allocation-free on the hot path.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
}

/// The bucket index for a sample of `micros`.
fn bucket_index(micros: u64) -> usize {
    if micros < LINEAR_MAX {
        return micros as usize;
    }
    // Reduce to the top two digits and count the discarded decades.
    let mut top = micros;
    let mut decade = 0usize;
    while top >= 1000 {
        top /= 10;
        decade += 1;
    }
    // `top` is in [100, 999]; its leading two digits index the decade.
    LINEAR_MAX as usize + (decade.min(DECADES - 1)) * PER_DECADE + (top as usize / 10 - 10)
}

/// The upper bound (µs) of bucket `index` — exclusive, except where the
/// arithmetic saturates near the top of the `u64` range: a returned
/// bound of `u64::MAX` is *inclusive*, since no recordable sample can
/// exceed it. The decade is clamped exactly as [`bucket_index`] clamps
/// it, so an out-of-range index maps into the top decade instead of
/// saturating straight to `u64::MAX` and losing its two-digit bucket.
fn bucket_bound(index: usize) -> u64 {
    if index < LINEAR_MAX as usize {
        return index as u64 + 1;
    }
    let above = index - LINEAR_MAX as usize;
    let decade = (above / PER_DECADE).min(DECADES - 1);
    let two = (above % PER_DECADE) as u64 + 10;
    (two + 1).saturating_mul(10u64.saturating_pow(decade as u32 + 1))
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Records one sample in microseconds.
    pub fn record(&self, micros: u64) {
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records the time since `started` as one sample.
    pub fn record_since(&self, started: std::time::Instant) {
        self.record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The full bucket dump: `(upper bound µs, count)` for every bucket
    /// holding at least one sample, in ascending bound order. This is the
    /// one source of truth both consumers derive from — the
    /// [`WireSnapshot`] carries it verbatim, and the `/metrics` exposition
    /// re-buckets it into its coarser `le` bounds — so the endpoint and
    /// the snapshot can never disagree about the recorded distribution.
    pub fn buckets(&self) -> Vec<LatencyBucket> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let count = c.load(Ordering::Relaxed);
                (count > 0).then(|| LatencyBucket {
                    bound_us: bucket_bound(i),
                    count,
                })
            })
            .collect()
    }

    /// The upper bucket bound (µs) containing the `q`-quantile sample,
    /// with `q` in `[0, 1]`. Returns 0 for an empty histogram.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(BUCKETS - 1)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// One occupied latency bucket: its exclusive upper bound in µs (see
/// [`LatencyHistogram`] for the saturated-top exception) and its count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyBucket {
    /// Upper bound of the bucket, in microseconds.
    pub bound_us: u64,
    /// Samples recorded in the bucket.
    pub count: u64,
}

/// Shared wire-level counters, updated lock-free by the connection core.
#[derive(Debug, Default)]
pub struct WireStats {
    /// Connections the accept loop admitted into the connection core.
    pub connections_accepted: AtomicU64,
    /// Connections currently being served (gauge).
    pub connections_active: AtomicU64,
    /// Connections closed by the idle harvester.
    pub connections_harvested: AtomicU64,
    /// Frames decoded off client sockets.
    pub frames_in: AtomicU64,
    /// Frames written to client sockets.
    pub frames_out: AtomicU64,
    /// Frames that failed to decode (framing or payload errors).
    pub decode_errors: AtomicU64,
    /// Requests refused with a typed `Busy` error (connection capacity or
    /// a parked tick commit already pending).
    pub busy_rejections: AtomicU64,
    /// Unacknowledged stage frames accepted (`StageNoAck`).
    pub noack_stages: AtomicU64,
    /// Snapshot requests answered (`SnapshotBin`).
    pub full_snapshots: AtomicU64,
    /// Subscription event frames pushed (`EventBatch`), every push: a
    /// subscriber with `batch` 1 gets one frame per event.
    pub event_batches: AtomicU64,
    /// Request-to-reply latency, measured at the connection core.
    pub latency: LatencyHistogram,
}

impl WireStats {
    /// A zeroed stats block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freezes the counters into a serialisable snapshot.
    pub fn snapshot(&self) -> WireSnapshot {
        let o = Ordering::Relaxed;
        WireSnapshot {
            connections_accepted: self.connections_accepted.load(o),
            connections_active: self.connections_active.load(o),
            connections_harvested: self.connections_harvested.load(o),
            frames_in: self.frames_in.load(o),
            frames_out: self.frames_out.load(o),
            decode_errors: self.decode_errors.load(o),
            busy_rejections: self.busy_rejections.load(o),
            noack_stages: self.noack_stages.load(o),
            full_snapshots: self.full_snapshots.load(o),
            event_batches: self.event_batches.load(o),
            requests: self.latency.count(),
            latency_p50_us: self.latency.quantile_us(0.50),
            latency_p99_us: self.latency.quantile_us(0.99),
            latency_buckets: self.latency.buckets(),
        }
    }

    /// Exposes every wire series through `registry` via a scrape-time
    /// collector: the atomics here stay the single source of truth and the
    /// hot path keeps its existing one-RMW cost; the collector projects
    /// them into registry handles only when a scrape renders. The latency
    /// histogram is re-bucketed from [`LatencyHistogram::buckets`] into
    /// coarse `le` bounds (its native ~1700 two-significant-digit buckets
    /// would bloat every scrape), with each fine bucket contributing at
    /// its upper bound — the same rounding `quantile_us` reports.
    pub fn register_collector(self: &Arc<Self>, registry: &Registry) {
        let bounds: Vec<f64> = [
            50u64, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
            500_000, 1_000_000, 5_000_000,
        ]
        .iter()
        .map(|&b| b as f64)
        .collect();
        let latency = registry.histogram(
            "cdba_gateway_request_latency_us",
            "Request-to-reply latency at the connection core, microseconds",
            &bounds,
        );
        let accepted = registry.counter(
            "cdba_gateway_connections_accepted_total",
            "Connections admitted into the connection core",
        );
        let active = registry.gauge(
            "cdba_gateway_connections_active",
            "Connections currently being served",
        );
        let harvested = registry.counter(
            "cdba_gateway_connections_harvested_total",
            "Connections closed by the idle harvester",
        );
        let frames_in = registry.counter_with(
            "cdba_gateway_frames_total",
            "Wire frames by direction",
            &[("direction", "in")],
        );
        let frames_out = registry.counter_with(
            "cdba_gateway_frames_total",
            "Wire frames by direction",
            &[("direction", "out")],
        );
        let decode_errors = registry.counter(
            "cdba_gateway_decode_errors_total",
            "Frames that failed to decode (framing or payload errors)",
        );
        let busy = registry.counter(
            "cdba_gateway_busy_rejections_total",
            "Requests refused with a typed Busy error",
        );
        let noack = registry.counter(
            "cdba_gateway_noack_stages_total",
            "Unacknowledged stage frames accepted",
        );
        let snap_full = registry.counter_with(
            "cdba_gateway_snapshots_total",
            "Snapshot requests answered, by reply kind",
            &[("kind", "full")],
        );
        let event_batches = registry.counter(
            "cdba_gateway_event_batches_total",
            "Subscription event frames pushed",
        );
        let stats = Arc::clone(self);
        registry.register_collector(move || {
            let o = Ordering::Relaxed;
            accepted.store(stats.connections_accepted.load(o));
            active.set(stats.connections_active.load(o) as f64);
            harvested.store(stats.connections_harvested.load(o));
            frames_in.store(stats.frames_in.load(o));
            frames_out.store(stats.frames_out.load(o));
            decode_errors.store(stats.decode_errors.load(o));
            busy.store(stats.busy_rejections.load(o));
            noack.store(stats.noack_stages.load(o));
            snap_full.store(stats.full_snapshots.load(o));
            event_batches.store(stats.event_batches.load(o));

            let fine = stats.latency.buckets();
            let coarse_bounds = latency.bounds().to_vec();
            let mut per_bucket = vec![0u64; coarse_bounds.len() + 1];
            let mut sum = 0.0f64;
            for bucket in fine {
                let value = bucket.bound_us as f64;
                let idx = coarse_bounds
                    .iter()
                    .position(|&b| value <= b)
                    .unwrap_or(coarse_bounds.len());
                per_bucket[idx] += bucket.count;
                sum += value * bucket.count as f64;
            }
            latency.overwrite(&per_bucket, sum);
        });
    }
}

/// A point-in-time copy of [`WireStats`], carried inside the gateway
/// snapshot. Deliberately *not* part of
/// [`ServiceSnapshot::invariant_view`](cdba_ctrl::ServiceSnapshot::invariant_view):
/// wire traffic depends on connection count and timing, the allocation
/// state does not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSnapshot {
    /// Connections the accept loop admitted into the connection core.
    pub connections_accepted: u64,
    /// Connections being served when the snapshot was taken.
    pub connections_active: u64,
    /// Connections closed by the idle harvester.
    pub connections_harvested: u64,
    /// Frames decoded off client sockets.
    pub frames_in: u64,
    /// Frames written to client sockets.
    pub frames_out: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Requests refused with a typed `Busy` error.
    pub busy_rejections: u64,
    /// Unacknowledged stage frames accepted.
    #[serde(default)]
    pub noack_stages: u64,
    /// Snapshot requests answered.
    #[serde(default)]
    pub full_snapshots: u64,
    /// Subscription event frames pushed, every push.
    #[serde(default)]
    pub event_batches: u64,
    /// Requests answered (latency samples recorded).
    pub requests: u64,
    /// Median request latency (µs, upper bucket bound).
    pub latency_p50_us: u64,
    /// 99th-percentile request latency (µs, upper bucket bound).
    pub latency_p99_us: u64,
    /// Every occupied latency bucket, ascending by bound — the same dump
    /// the `/metrics` exposition re-buckets, so the two can never
    /// disagree.
    #[serde(default)]
    pub latency_buckets: Vec<LatencyBucket>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_below_100_us() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), 0, "empty histogram reports zero");
        for _ in 0..99 {
            h.record(10);
        }
        h.record(10_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.50), 11, "10 µs reports 11, not 16");
        assert_eq!(h.quantile_us(0.99), 11);
        assert_eq!(h.quantile_us(1.0), 11_000, "10 ms keeps two digits");
    }

    #[test]
    fn quantisation_error_is_bounded_by_the_two_digit_precision() {
        // Two significant digits: the reported upper bound overshoots the
        // sample by at most one bucket width — 10% worst-case, against the
        // 2× of the log₂ histogram this replaces.
        for v in [0u64, 1, 7, 99, 100, 101, 999, 1234, 54_321, 987_654_321] {
            let bound = bucket_bound(bucket_index(v));
            assert!(bound > v, "upper bound {bound} must exceed sample {v}");
            let err = (bound - v) as f64 / (v.max(1)) as f64;
            assert!(
                err <= 0.101 || v < LINEAR_MAX,
                "sample {v}: bound {bound} overshoots by {err:.4}"
            );
        }
    }

    #[test]
    fn bucket_indices_are_monotone_and_in_range() {
        let mut last = 0usize;
        for v in (0u64..200_000).step_by(7) {
            let idx = bucket_index(v);
            assert!(idx >= last, "index regressed at {v}");
            assert!(idx < BUCKETS);
            last = idx;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
        assert!(bucket_bound(bucket_index(u64::MAX)) >= u64::MAX / 10);
    }

    /// The bound function clamps its decade exactly like the index
    /// function: an index past the last real bucket stays in the top
    /// decade (keeping its two-digit bucket) instead of saturating every
    /// such bound to `u64::MAX`.
    #[test]
    fn bucket_bound_clamps_the_decade_like_bucket_index() {
        assert_eq!(bucket_bound(BUCKETS), bucket_bound(BUCKETS - PER_DECADE));
        // The top real bucket saturates; that bound is inclusive.
        assert_eq!(bucket_bound(bucket_index(u64::MAX)), u64::MAX);
        // Everywhere else the bound strictly exceeds the sample.
        for x in [0, LINEAR_MAX, 1_000, 10_000_000, u64::MAX / 2, u64::MAX - 1] {
            let bound = bucket_bound(bucket_index(x));
            assert!(
                bound > x || bound == u64::MAX,
                "sample {x}: bound {bound} does not cover it"
            );
        }
    }

    #[test]
    fn close_latencies_are_distinguishable() {
        // The log2 histogram this replaces could not tell 130 µs from
        // 250 µs (both reported 256); two-digit precision can.
        let a = LatencyHistogram::new();
        a.record(130);
        let b = LatencyHistogram::new();
        b.record(250);
        assert_eq!(a.quantile_us(0.5), 140);
        assert_eq!(b.quantile_us(0.5), 260);
    }

    #[test]
    fn snapshot_copies_counters() {
        let s = WireStats::new();
        s.frames_in.fetch_add(3, Ordering::Relaxed);
        s.busy_rejections.fetch_add(1, Ordering::Relaxed);
        s.noack_stages.fetch_add(2, Ordering::Relaxed);
        s.full_snapshots.fetch_add(1, Ordering::Relaxed);
        s.latency.record(100);
        let snap = s.snapshot();
        assert_eq!(snap.frames_in, 3);
        assert_eq!(snap.busy_rejections, 1);
        assert_eq!(snap.noack_stages, 2);
        assert_eq!(snap.full_snapshots, 1);
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.latency_p99_us, 110);
    }
}
