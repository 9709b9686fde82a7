//! Control-plane instrumentation: the [`CtrlMetrics`] handle bundle the
//! driver updates, resolved once against a [`cdba_obs::Registry`].
//!
//! Attachment is opt-in ([`crate::ControlPlane::attach_metrics`]); an
//! unattached plane pays one branch per hook. The hooks live entirely on
//! the *driver* thread — the SoA tick kernel is untouched — so the
//! per-tick cost with metrics attached is two relaxed atomic adds, which
//! is invisible next to the 100k session-ticks a tick performs. The
//! snapshot-derived gauges (signalling cost, RESET/change count, max
//! delay) are refreshed whenever a snapshot is assembled: the fold that
//! computes them is placement-invariant and already cached, so the gauges
//! inherit the bitwise determinism of `invariant_view()`.

use cdba_obs::{Counter, Gauge, Histogram, Registry};

/// Bucket bounds for `cdba_ctrl_restore_seconds`: a journal-only restore
/// lands in the sub-millisecond bucket, a 1M-session genesis replay in
/// the sub-second ones, and anything over ten seconds is pathological.
const RESTORE_BOUNDS: &[f64] = &[0.001, 0.01, 0.1, 1.0, 10.0];

/// Pre-resolved metric handles for one [`crate::ControlPlane`].
#[derive(Debug)]
pub(crate) struct CtrlMetrics {
    /// `cdba_ctrl_ticks_total`.
    pub ticks: Counter,
    /// `cdba_ctrl_arrivals_total`.
    pub arrivals: Counter,
    /// `cdba_ctrl_sessions_admitted_total`.
    pub admitted: Counter,
    /// `cdba_ctrl_sessions_rejected_total`.
    pub rejected: Counter,
    /// `cdba_ctrl_sessions_left_total`.
    pub leaves: Counter,
    /// `cdba_ctrl_journal_events_replayed_total`.
    pub events_replayed: Counter,
    /// `cdba_ctrl_shard_deliveries_total{shard}`, indexed by shard: event
    /// batches sent to the shard's worker. Against the admitted, leave and
    /// tick counters it is the live events-per-wake-up ratio.
    pub shard_deliveries: Vec<Counter>,
    /// `cdba_ctrl_shard_lag_events{shard}`, indexed by shard: events
    /// dispatched to the shard less its worker's watermark. Set by a
    /// scrape-time collector, not by the driver.
    pub shard_lag: Vec<Gauge>,
    /// `cdba_ctrl_shard_restarts_total{shard}`, indexed by shard.
    pub shard_restarts: Vec<Counter>,
    /// `cdba_ctrl_checkpoints_total{shard}`, indexed by shard.
    pub shard_checkpoints: Vec<Counter>,
    /// `cdba_ctrl_checkpoint_bytes_total{shard}`, indexed by shard.
    pub shard_checkpoint_bytes: Vec<Counter>,
    /// `cdba_ctrl_checkpoint_retained_bytes{shard}`, indexed by shard —
    /// the one frame the supervisor holds for recovery.
    pub shard_checkpoint_retained: Vec<Gauge>,
    /// `cdba_ctrl_checkpoint_encoded_sessions_total` — session rows
    /// carried by accepted checkpoint frames.
    pub checkpoint_sessions: Counter,
    /// `cdba_ctrl_restore_seconds` — wall-clock seconds the driver was
    /// blocked per shard restore (reclaim + frame apply + journal replay).
    pub restore_seconds: Histogram,
    /// `cdba_ctrl_parked_workers` — superseded workers not yet seen to
    /// exit. A restart that parks one restores into a second column set.
    pub parked_workers: Gauge,
    /// `cdba_ctrl_shard_sessions{shard}`, indexed by shard.
    pub shard_sessions: Vec<Gauge>,
    /// `cdba_ctrl_live_sessions`.
    pub live_sessions: Gauge,
    /// `cdba_ctrl_slab_slots`.
    pub slab_slots: Gauge,
    /// `cdba_ctrl_available_budget`.
    pub available_budget: Gauge,
    /// `cdba_ctrl_alloc_changes` (snapshot-derived).
    pub changes: Gauge,
    /// `cdba_ctrl_stages_completed_total` (snapshot-derived).
    pub stages_completed: Gauge,
    /// `cdba_ctrl_signalling_cost` (snapshot-derived).
    pub signalling_cost: Gauge,
    /// `cdba_ctrl_bandwidth_cost` (snapshot-derived).
    pub bandwidth_cost: Gauge,
    /// `cdba_ctrl_max_delay_ticks` (snapshot-derived).
    pub max_delay: Gauge,
    /// `cdba_ctrl_snapshot_tick` — the tick the snapshot gauges were
    /// folded at, so a scraper knows their freshness.
    pub snapshot_tick: Gauge,
}

impl CtrlMetrics {
    /// Resolves every handle against `registry`, with one labelled series
    /// per shard where the quantity is shard-scoped.
    pub fn register(registry: &Registry, shards: usize) -> Self {
        let per_shard_counter = |name: &str, help: &str| -> Vec<Counter> {
            (0..shards)
                .map(|s| registry.counter_with(name, help, &[("shard", &s.to_string())]))
                .collect()
        };
        let per_shard_gauge = |name: &str, help: &str| -> Vec<Gauge> {
            (0..shards)
                .map(|s| registry.gauge_with(name, help, &[("shard", &s.to_string())]))
                .collect()
        };
        CtrlMetrics {
            ticks: registry.counter(
                "cdba_ctrl_ticks_total",
                "Ticks executed by the control plane",
            ),
            arrivals: registry.counter(
                "cdba_ctrl_arrivals_total",
                "Per-session arrival records delivered to tick batches",
            ),
            admitted: registry.counter(
                "cdba_ctrl_sessions_admitted_total",
                "Joins admitted under the envelope-based admission control",
            ),
            rejected: registry.counter(
                "cdba_ctrl_sessions_rejected_total",
                "Joins rejected by admission control (budget or tenant quota)",
            ),
            leaves: registry.counter(
                "cdba_ctrl_sessions_left_total",
                "Sessions drained and retired",
            ),
            events_replayed: registry.counter(
                "cdba_ctrl_journal_events_replayed_total",
                "Journal events replayed into restarted shard workers",
            ),
            shard_deliveries: per_shard_counter(
                "cdba_ctrl_shard_deliveries_total",
                "Event batches sent to the shard's worker (threaded executor)",
            ),
            shard_lag: per_shard_gauge(
                "cdba_ctrl_shard_lag_events",
                "Events dispatched to the shard and not yet applied by its worker, \
                 read at scrape (threaded executor; 0 after any sync point)",
            ),
            shard_restarts: per_shard_counter(
                "cdba_ctrl_shard_restarts_total",
                "Shard-worker restarts performed by the supervisor",
            ),
            shard_checkpoints: per_shard_counter(
                "cdba_ctrl_checkpoints_total",
                "Shard checkpoints accepted by the driver",
            ),
            shard_checkpoint_bytes: per_shard_counter(
                "cdba_ctrl_checkpoint_bytes_total",
                "Binary-encoded checkpoint payload bytes accepted by the driver",
            ),
            shard_checkpoint_retained: per_shard_gauge(
                "cdba_ctrl_checkpoint_retained_bytes",
                "Bytes of the one checkpoint frame the driver retains for recovery",
            ),
            checkpoint_sessions: registry.counter(
                "cdba_ctrl_checkpoint_encoded_sessions_total",
                "Session rows carried by accepted checkpoint frames",
            ),
            restore_seconds: registry.histogram(
                "cdba_ctrl_restore_seconds",
                "Wall-clock seconds the driver spent restarting a shard: reclaiming \
                 the retired worker's state, applying the checkpoint frame, \
                 replaying the journal",
                RESTORE_BOUNDS,
            ),
            parked_workers: registry.gauge(
                "cdba_ctrl_parked_workers",
                "Superseded shard workers that had not exited when they were \
                 retired (hung); each cost its restart a second column set",
            ),
            shard_sessions: per_shard_gauge(
                "cdba_ctrl_shard_sessions",
                "Live sessions placed on the shard",
            ),
            live_sessions: registry.gauge(
                "cdba_ctrl_live_sessions",
                "Sessions admitted and not yet left",
            ),
            slab_slots: registry.gauge(
                "cdba_ctrl_slab_slots",
                "High-water size of the dense session key space (slab occupancy \
                 is live_sessions / slab_slots)",
            ),
            available_budget: registry.gauge(
                "cdba_ctrl_available_budget",
                "Aggregate bandwidth budget not committed to admission envelopes",
            ),
            changes: registry.gauge(
                "cdba_ctrl_alloc_changes",
                "Total allocation changes (RESET and stage signals) as of the last \
                 snapshot fold — the signalling count the paper minimizes",
            ),
            stages_completed: registry.gauge(
                "cdba_ctrl_stages_completed_total",
                "Stages completed by dedicated sessions and pooled groups, live and \
                 retired, as of the last snapshot fold; each certifies one offline \
                 change, so alloc_changes over this is the live online/certified ratio",
            ),
            signalling_cost: registry.gauge(
                "cdba_ctrl_signalling_cost",
                "Total signalling cost under the Section-1 pricing, as of the last \
                 snapshot fold",
            ),
            bandwidth_cost: registry.gauge(
                "cdba_ctrl_bandwidth_cost",
                "Total bandwidth cost under the Section-1 pricing, as of the last \
                 snapshot fold",
            ),
            max_delay: registry.gauge(
                "cdba_ctrl_max_delay_ticks",
                "Maximum FIFO delay over all sessions, as of the last snapshot fold",
            ),
            snapshot_tick: registry.gauge(
                "cdba_ctrl_snapshot_tick",
                "Tick the snapshot-derived gauges were folded at",
            ),
        }
    }
}
