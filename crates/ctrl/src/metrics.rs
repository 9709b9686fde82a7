//! Snapshot aggregation and JSON export.
//!
//! Aggregation is deterministic by construction: per-session metrics are
//! sorted by session key and every float fold runs in that order, so a
//! snapshot's global section is bitwise identical no matter how sessions
//! were spread over shards or threads. The per-shard section is the only
//! placement-dependent part.

use crate::meter::SessionMetrics;
use serde::{Deserialize, Serialize};

/// Supervision status of one shard (placement-dependent; excluded from
/// [`ServiceSnapshot::invariant_view`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: u64,
    /// `false` once the shard exhausted its restart budget and was
    /// declared permanently down.
    pub healthy: bool,
    /// Times the supervisor restarted this shard.
    pub restarts: u64,
    /// The most recent failure reason, if the shard ever failed.
    pub last_failure: Option<String>,
}

/// Totals for one shard (placement-dependent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: u64,
    /// Sessions that ran on the shard (live + retired).
    pub sessions: u64,
    /// Sum of allocation changes.
    pub changes: u64,
    /// Max per-session peak allocation.
    pub peak_allocation: f64,
    /// Max per-session FIFO delay.
    pub max_delay: u64,
    /// Sum of signalling costs.
    pub signalling_cost: f64,
    /// Sum of bandwidth costs.
    pub bandwidth_cost: f64,
}

/// Service-wide totals (placement-invariant).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalMetrics {
    /// Sessions ever admitted to an executor (live + retired).
    pub sessions: u64,
    /// Total allocation changes — the signalling count the paper minimizes.
    pub changes: u64,
    /// Maximum FIFO delay over all sessions, in ticks.
    pub max_delay: u64,
    /// Maximum per-session peak allocation.
    pub peak_allocation: f64,
    /// Total bits submitted.
    pub total_arrived: f64,
    /// Total bits served.
    pub total_served: f64,
    /// Total allocated bandwidth (bandwidth-unit·ticks).
    pub total_allocated: f64,
    /// Minimum windowed utilization over all sessions with a complete
    /// window.
    pub min_windowed_utilization: Option<f64>,
    /// Total signalling cost.
    pub signalling_cost: f64,
    /// Total bandwidth cost.
    pub bandwidth_cost: f64,
}

impl GlobalMetrics {
    fn empty() -> Self {
        GlobalMetrics {
            sessions: 0,
            changes: 0,
            max_delay: 0,
            peak_allocation: 0.0,
            total_arrived: 0.0,
            total_served: 0.0,
            total_allocated: 0.0,
            min_windowed_utilization: None,
            signalling_cost: 0.0,
            bandwidth_cost: 0.0,
        }
    }

    /// Adds one session. Sessions come in key order: the order fixes the
    /// float summation sequence.
    fn add(&mut self, m: &SessionMetrics) {
        self.sessions += 1;
        self.changes += m.changes;
        self.max_delay = self.max_delay.max(m.max_delay);
        self.peak_allocation = self.peak_allocation.max(m.peak_allocation);
        self.total_arrived += m.total_arrived;
        self.total_served += m.total_served;
        self.total_allocated += m.total_allocated;
        if let Some(u) = m.windowed_utilization {
            self.min_windowed_utilization = Some(match self.min_windowed_utilization {
                Some(best) => best.min(u),
                None => u,
            });
        }
        self.signalling_cost += m.signalling_cost;
        self.bandwidth_cost += m.bandwidth_cost;
    }

    /// Total billed cost.
    pub fn total_cost(&self) -> f64 {
        self.signalling_cost + self.bandwidth_cost
    }
}

/// A full metrics export of the control plane at one instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// Ticks the service has executed.
    pub ticks: u64,
    /// Configured shard count.
    pub shards: u64,
    /// Joins admitted.
    pub admitted: u64,
    /// Joins rejected by admission control.
    pub rejected: u64,
    /// Shard-worker restarts performed by the supervisor.
    pub restarts: u64,
    /// Journal events replayed into restarted shards during recovery.
    pub events_replayed: u64,
    /// Placement-invariant totals.
    pub global: GlobalMetrics,
    /// Per-shard totals, sorted by shard index.
    pub per_shard: Vec<ShardMetrics>,
    /// Per-shard supervision status, sorted by shard index.
    pub health: Vec<ShardHealth>,
    /// Every session's metrics, sorted by session key.
    pub sessions: Vec<SessionMetrics>,
}

/// The driver-side counters a snapshot carries verbatim: clock, shape,
/// admission tallies, and the supervisor's recovery bookkeeping.
///
/// Public so an out-of-process orchestrator (the fleet driver) can
/// re-assemble a fleet-wide [`ServiceSnapshot`] from per-process parts
/// with its own clock and summed tallies.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotCounters {
    /// Ticks the service has executed.
    pub ticks: u64,
    /// Configured shard count.
    pub shards: u64,
    /// Joins admitted.
    pub admitted: u64,
    /// Joins rejected by admission control.
    pub rejected: u64,
    /// Shard-worker restarts performed by the supervisor.
    pub restarts: u64,
    /// Journal events replayed into restarted shards during recovery.
    pub events_replayed: u64,
}

/// A snapshot's totals, folded one session at a time in key order: the
/// one summation sequence, whether the sessions sit in a sorted table
/// ([`ServiceSnapshot::assemble`]) or are read off the shard columns one
/// row at a time ([`crate::ControlPlane::snapshot_rows`]).
pub(crate) struct Totals {
    global: GlobalMetrics,
    per_shard: Vec<ShardMetrics>,
}

impl Totals {
    pub(crate) fn new(shards: u64) -> Self {
        let per_shard = (0..shards)
            .map(|shard| ShardMetrics {
                shard,
                sessions: 0,
                changes: 0,
                peak_allocation: 0.0,
                max_delay: 0,
                signalling_cost: 0.0,
                bandwidth_cost: 0.0,
            })
            .collect();
        Totals {
            global: GlobalMetrics::empty(),
            per_shard,
        }
    }

    /// Adds the next session by key.
    pub(crate) fn add(&mut self, m: &SessionMetrics) {
        self.global.add(m);
        let Some(s) = self.per_shard.get_mut(m.shard as usize) else {
            return;
        };
        s.sessions += 1;
        s.changes += m.changes;
        s.peak_allocation = s.peak_allocation.max(m.peak_allocation);
        s.max_delay = s.max_delay.max(m.max_delay);
        s.signalling_cost += m.signalling_cost;
        s.bandwidth_cost += m.bandwidth_cost;
    }

    /// The snapshot these totals head, its session table empty.
    pub(crate) fn finish(
        self,
        counters: SnapshotCounters,
        health: Vec<ShardHealth>,
    ) -> ServiceSnapshot {
        let SnapshotCounters {
            ticks,
            shards,
            admitted,
            rejected,
            restarts,
            events_replayed,
        } = counters;
        ServiceSnapshot {
            ticks,
            shards,
            admitted,
            rejected,
            restarts,
            events_replayed,
            global: self.global,
            per_shard: self.per_shard,
            health,
            sessions: Vec::new(),
        }
    }
}

impl ServiceSnapshot {
    /// Builds a snapshot from raw per-session metrics (any order) and the
    /// driver's counters. `health` must be sorted by shard index (the
    /// supervisor stores it that way).
    pub fn assemble(
        counters: SnapshotCounters,
        health: Vec<ShardHealth>,
        mut sessions: Vec<SessionMetrics>,
    ) -> Self {
        // Keys are unique, so the unstable sort is the same permutation —
        // without the stable sort's half-table scratch allocation.
        sessions.sort_unstable_by_key(|m| m.session);
        let mut totals = Totals::new(counters.shards);
        for m in &sessions {
            totals.add(m);
        }
        let mut snap = totals.finish(counters, health);
        snap.sessions = sessions;
        snap
    }

    /// The snapshot as a JSON value.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self)
    }

    /// The snapshot pretty-printed as JSON.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization cannot fail")
    }

    /// The placement-invariant view: everything except shard assignments,
    /// per-shard totals, and supervision bookkeeping (restarts, replay
    /// counts, health). Two runs of the same workload under different
    /// shard counts — or with and without a recovered fault — must agree
    /// on this value exactly.
    pub fn invariant_view(&self) -> (u64, GlobalMetrics, Vec<SessionMetrics>) {
        let sessions = self
            .sessions
            .iter()
            .map(|m| SessionMetrics {
                shard: 0,
                ..m.clone()
            })
            .collect();
        (self.ticks, self.global.clone(), sessions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy(shards: u64) -> Vec<ShardHealth> {
        (0..shards)
            .map(|shard| ShardHealth {
                shard,
                healthy: true,
                restarts: 0,
                last_failure: None,
            })
            .collect()
    }

    fn counters(
        ticks: u64,
        shards: u64,
        admitted: u64,
        restarts: u64,
        events_replayed: u64,
    ) -> SnapshotCounters {
        SnapshotCounters {
            ticks,
            shards,
            admitted,
            rejected: 0,
            restarts,
            events_replayed,
        }
    }

    fn metric(session: u64, shard: u64, changes: u64, arrived: f64) -> SessionMetrics {
        SessionMetrics {
            session,
            tenant: format!("t{session}").into(),
            shard,
            ticks: 10,
            changes,
            peak_allocation: 4.0 + session as f64,
            max_delay: session,
            total_arrived: arrived,
            total_served: arrived,
            total_allocated: arrived * 2.0,
            windowed_utilization: Some(0.5 / (session + 1) as f64),
            signalling_cost: changes as f64,
            bandwidth_cost: arrived * 2.0,
        }
    }

    #[test]
    fn assemble_sorts_and_folds() {
        let snap = ServiceSnapshot::assemble(
            SnapshotCounters {
                rejected: 1,
                ..counters(10, 2, 3, 0, 0)
            },
            healthy(2),
            vec![metric(2, 1, 5, 10.0), metric(0, 0, 3, 20.0)],
        );
        assert_eq!(
            snap.sessions.iter().map(|m| m.session).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(snap.global.changes, 8);
        assert_eq!(snap.global.max_delay, 2);
        assert_eq!(snap.global.sessions, 2);
        assert_eq!(snap.global.peak_allocation, 6.0);
        assert_eq!(snap.global.total_arrived, 30.0);
        assert_eq!(snap.global.min_windowed_utilization, Some(0.5 / 3.0));
        assert_eq!(snap.per_shard.len(), 2);
        assert_eq!(snap.per_shard[0].changes, 3);
        assert_eq!(snap.per_shard[1].changes, 5);
    }

    #[test]
    fn invariant_view_hides_placement() {
        let a = ServiceSnapshot::assemble(
            counters(5, 1, 2, 0, 0),
            healthy(1),
            vec![metric(0, 0, 1, 1.0)],
        );
        let b = ServiceSnapshot::assemble(
            counters(5, 4, 2, 0, 0),
            healthy(4),
            vec![metric(0, 3, 1, 1.0)],
        );
        assert_eq!(a.invariant_view(), b.invariant_view());
        assert_ne!(a.per_shard.len(), b.per_shard.len());
    }

    #[test]
    fn invariant_view_hides_recovery_bookkeeping() {
        let clean = ServiceSnapshot::assemble(
            counters(5, 1, 2, 0, 0),
            healthy(1),
            vec![metric(0, 0, 1, 1.0)],
        );
        let recovered = ServiceSnapshot::assemble(
            counters(5, 1, 2, 2, 17),
            vec![ShardHealth {
                shard: 0,
                healthy: true,
                restarts: 2,
                last_failure: Some("injected fault: kill".into()),
            }],
            vec![metric(0, 0, 1, 1.0)],
        );
        assert_eq!(clean.invariant_view(), recovered.invariant_view());
        assert_ne!(clean, recovered);
    }

    #[test]
    fn json_roundtrip() {
        use serde::Deserialize;
        let snap = ServiceSnapshot::assemble(
            counters(7, 1, 1, 1, 3),
            healthy(1),
            vec![metric(0, 0, 4, 3.0)],
        );
        let text = snap.to_json_string();
        let value = serde_json::from_str::<serde_json::Value>(&text).unwrap();
        let back = ServiceSnapshot::deserialize(&value).unwrap();
        assert_eq!(back, snap);
    }
}
