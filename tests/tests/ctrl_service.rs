//! Integration tests of the cdba-ctrl control plane: service-level churn
//! keeps the per-session delay and utilization behaviour inside the
//! paper's envelopes, and the exported metrics are invariant under the
//! shard count and execution mode.

use cdba_ctrl::{ControlPlane, CtrlError, ExecMode, ServiceConfig, ServiceSnapshot};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const B_MAX: f64 = 16.0;
const B_O: f64 = 8.0;
const D_O: usize = 8;
const U_O: f64 = 0.5;
const W: usize = 16;

fn config(shards: usize, exec: ExecMode) -> ServiceConfig {
    ServiceConfig::builder(4096.0)
        .session_b_max(B_MAX)
        .group_b_o(B_O)
        .offline_delay(D_O)
        .offline_utilization(U_O)
        .window(W)
        .shards(shards)
        .exec(exec)
        .build()
        .expect("valid test config")
}

/// A churn workload: dedicated sessions and one pooled group, arrivals
/// feasible for the offline budget `(U_O·B_A, D_O)` per session, with a
/// mid-run leave/admit swap. Deterministic in `seed` only.
fn churn_scenario(mut service: ControlPlane, seed: u64, ticks: u64) -> ServiceSnapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<u64> = Vec::new();
    for i in 0..12 {
        live.push(service.admit(["acme", "globex"][i % 2]).unwrap());
    }
    live.extend(service.admit_group("initech", 4).unwrap());
    // Each session replays a rate pattern bounded by U_O·B_A per tick, so
    // every arrival sequence is feasible for the offline pair (U_O·B_A, D_O).
    let mut patterns: Vec<Vec<f64>> = Vec::new();
    for _ in 0..live.len() + 8 {
        let pattern: Vec<f64> = (0..64)
            .map(|_| {
                if rng.random_bool(0.6) {
                    rng.random_range(0.0..U_O * B_MAX)
                } else {
                    0.0
                }
            })
            .collect();
        patterns.push(pattern);
    }
    for t in 0..ticks {
        if t > 0 && t % 100 == 0 {
            let gone = live.remove(0);
            service.leave(gone).unwrap();
            live.push(service.admit("acme").unwrap());
        }
        let arrivals: Vec<(u64, f64)> = live
            .iter()
            .map(|&key| {
                let p = &patterns[key as usize % patterns.len()];
                (key, p[t as usize % p.len()])
            })
            .collect();
        service.tick(&arrivals).unwrap();
    }
    let snapshot = service.snapshot().expect("all shards healthy");
    service.shutdown();
    snapshot
}

#[test]
fn churn_preserves_delay_and_bandwidth_envelopes() {
    let snapshot = churn_scenario(ControlPlane::new(config(2, ExecMode::Threaded)), 7, 600);
    assert!(snapshot.global.sessions >= 16);
    assert!(snapshot.global.changes > 0);
    // Theorem 6 promises dedicated sessions max delay 2·D_O under feasible
    // input; pooled members are bounded by the phased guarantee with the
    // same D_O. Leaving sessions only drain, which cannot increase delay.
    assert!(
        snapshot.global.max_delay <= 2 * D_O as u64,
        "max delay {} exceeds 2·D_O = {}",
        snapshot.global.max_delay,
        2 * D_O
    );
    // No allocator may exceed its configured ceiling.
    for m in &snapshot.sessions {
        assert!(
            m.peak_allocation <= B_MAX + 1e-9,
            "session {} peaked at {}",
            m.session,
            m.peak_allocation
        );
    }
    // Everything submitted before the final churn settles is served;
    // nothing is fabricated.
    assert!(snapshot.global.total_served <= snapshot.global.total_arrived + 1e-6);
    // The windowed utilization floor is a real number in (0, 1] whenever
    // some session completed a window with allocation held.
    if let Some(u) = snapshot.global.min_windowed_utilization {
        assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
    }
}

#[test]
fn metrics_identical_across_shard_counts() {
    let one = churn_scenario(ControlPlane::new(config(1, ExecMode::Threaded)), 42, 500);
    let four = churn_scenario(ControlPlane::new(config(4, ExecMode::Threaded)), 42, 500);
    assert_eq!(
        one.invariant_view(),
        four.invariant_view(),
        "global + per-session metrics must not depend on the shard count"
    );
    // The placement-dependent part genuinely differs, so the equality
    // above is not vacuous.
    assert_eq!(one.per_shard.len(), 1);
    assert_eq!(four.per_shard.len(), 4);
    assert!(four.per_shard.iter().filter(|s| s.sessions > 0).count() > 1);
}

#[test]
fn inline_fallback_matches_threaded_exactly() {
    let inline = churn_scenario(ControlPlane::new(config(3, ExecMode::Inline)), 9, 400);
    let threaded = churn_scenario(ControlPlane::new(config(3, ExecMode::Threaded)), 9, 400);
    assert_eq!(inline, threaded, "same shard count: full snapshot equality");
}

#[test]
fn snapshot_json_roundtrips_through_serde() {
    use serde::Deserialize;
    let snapshot = churn_scenario(ControlPlane::new(config(2, ExecMode::Inline)), 3, 300);
    let text = snapshot.to_json_string();
    let value: serde_json::Value = serde_json::from_str(&text).unwrap();
    let back = ServiceSnapshot::deserialize(&value).unwrap();
    assert_eq!(back, snapshot);
}

#[test]
fn placement_rebalances_after_churn() {
    // Eight dedicated sessions over four shards: least-loaded placement
    // with lowest-index tie-breaks assigns keys 0..8 to shards
    // 0,1,2,3,0,1,2,3. Skew the load by removing both of shard 1's
    // sessions and one of shard 2's; the next admissions must heal the
    // imbalance instead of continuing round-robin from where they left
    // off.
    let mut service = ControlPlane::new(config(4, ExecMode::Threaded));
    let keys: Vec<u64> = (0..8).map(|_| service.admit("acme").unwrap()).collect();
    for t in 0..20u64 {
        let arrivals: Vec<(u64, f64)> = keys.iter().map(|&k| (k, (t % 3) as f64)).collect();
        service.tick(&arrivals).unwrap();
    }
    for &gone in &[keys[1], keys[5], keys[2]] {
        service.leave(gone).unwrap();
    }
    // Live load is now 2,0,1,2 → the healers go to shard 1, 1, then 2.
    let healers: Vec<u64> = (0..3).map(|_| service.admit("acme").unwrap()).collect();
    for _ in 0..20u64 {
        let arrivals: Vec<(u64, f64)> = healers.iter().map(|&k| (k, 1.0)).collect();
        service.tick(&arrivals).unwrap();
    }
    let snapshot = service.snapshot().expect("all shards healthy");
    let shard_of = |key: u64| {
        snapshot
            .sessions
            .iter()
            .find(|m| m.session == key)
            .map(|m| m.shard)
            .unwrap()
    };
    assert_eq!(
        (0..8).map(&shard_of).collect::<Vec<u64>>(),
        vec![0, 1, 2, 3, 0, 1, 2, 3],
        "initial placement spreads one per shard before doubling up"
    );
    assert_eq!(shard_of(healers[0]), 1);
    assert_eq!(shard_of(healers[1]), 1);
    assert_eq!(shard_of(healers[2]), 2);
    service.shutdown();
}

#[test]
fn admission_is_exact_under_churn() {
    // A budget for exactly three dedicated sessions: churn must stay
    // admissible forever because leaves release capacity immediately.
    let cfg = ServiceConfig::builder(3.0 * B_MAX)
        .session_b_max(B_MAX)
        .offline_delay(D_O)
        .window(W)
        .exec(ExecMode::Inline)
        .build()
        .unwrap();
    let mut service = ControlPlane::new(cfg);
    let mut live: Vec<u64> = (0..3).map(|_| service.admit("acme").unwrap()).collect();
    assert!(matches!(
        service.admit("acme"),
        Err(CtrlError::Admission(_))
    ));
    for round in 0..50 {
        let gone = live.remove(0);
        service.leave(gone).unwrap();
        live.push(service.admit("acme").unwrap());
        for _ in 0..4 {
            let arrivals: Vec<(u64, f64)> = live.iter().map(|&k| (k, 2.0)).collect();
            service.tick(&arrivals).unwrap();
        }
        assert_eq!(service.live_sessions(), 3, "round {round}");
    }
    let snapshot = service.snapshot().expect("all shards healthy");
    assert_eq!(snapshot.admitted, 3 + 50);
    assert_eq!(snapshot.rejected, 1);
}

/// Control events wait in a per-shard outbox on the threaded executor,
/// and every operation that reads shard state flushes it first: an
/// `admit` followed at once by an export, a leave or a snapshot sees the
/// session exactly as the inline executor — which applies on the spot —
/// does, and a group admitted right before a tick gets that tick's
/// arrivals on all four members.
#[test]
fn sync_points_see_every_event_dispatched_before_them() {
    let run = |exec: ExecMode| {
        let mut plane = ControlPlane::new(config(1, exec));
        let exported = plane.admit("acme").unwrap();
        let blob = plane.export_session(exported).expect("the shard knows it");
        let left = plane.admit("acme").unwrap();
        plane.leave(left).unwrap();
        let kept = plane.admit("globex").unwrap();
        let polled = plane.snapshot_shared().unwrap();
        let keys: Vec<u64> = polled.sessions.iter().map(|m| m.session).collect();
        assert_eq!(keys, [left, kept], "{exec:?}: left retired, kept live");
        let group = plane.admit_group("initech", 4).unwrap();
        let arrivals: Vec<(u64, f64)> = group.iter().map(|&k| (k, 2.0)).collect();
        plane.tick(&arrivals).unwrap();
        let ticked = plane.snapshot().unwrap();
        for key in &group {
            let member = ticked.sessions.iter().find(|m| m.session == *key).unwrap();
            assert_eq!(
                (member.ticks, member.total_arrived),
                (1, 2.0),
                "{exec:?}: member {key} missed the tick behind its join"
            );
        }
        plane.shutdown();
        (blob, polled.invariant_view(), ticked.invariant_view())
    };
    assert_eq!(run(ExecMode::Inline), run(ExecMode::Threaded));
}

/// The count behind the batching claim, read off the live series: 10,000
/// admits and the tick that flushes the last of them reach the worker in
/// at most 10,000 / 64 + 2 messages — and in no fewer than 10,000 / 4,096
/// before that tick: every 64th admit goes out with what has gathered if
/// the worker is idle, and a busy worker is sent a block once 4,096 have
/// (the lower bound was 10,000 / 64 while every 64 events were sent
/// whatever the worker was doing). A steady-state tick with no control
/// events is exactly one message per shard.
#[test]
fn control_events_reach_a_worker_in_batches() {
    const ADMITS: usize = 10_000;
    let registry = cdba_obs::Registry::new();
    let deliveries = |shard: usize| -> usize {
        let series = format!("cdba_ctrl_shard_deliveries_total{{shard=\"{shard}\"}} ");
        let text = registry.render();
        let line = text.lines().find(|l| l.starts_with(&series));
        line.expect("exported")
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let cfg = ServiceConfig::builder(ADMITS as f64 * B_MAX)
        .session_b_max(B_MAX)
        .offline_delay(D_O)
        .window(W)
        .exec(ExecMode::Threaded)
        .checkpoint_every(64)
        .build()
        .unwrap();
    let mut plane = ControlPlane::new(cfg);
    plane.attach_metrics(&registry);
    let keys: Vec<u64> = (0..ADMITS).map(|_| plane.admit("acme").unwrap()).collect();
    assert!(
        deliveries(0) >= ADMITS / 4096,
        "a burst does not wait for a tick"
    );
    plane.tick(&[(keys[0], 1.0)]).unwrap();
    let after_burst = deliveries(0);
    assert!(after_burst <= ADMITS / 64 + 2, "{after_burst} deliveries");
    assert_eq!(plane.snapshot_shared().unwrap().sessions.len(), ADMITS);
    plane.tick(&[(keys[1], 1.0)]).unwrap();
    assert_eq!(
        deliveries(0),
        after_burst + 1,
        "a lone tick is a batch of one"
    );
    plane.shutdown();

    let mut plane = ControlPlane::new(config(3, ExecMode::Threaded));
    plane.attach_metrics(&registry);
    let before: Vec<usize> = (0..3).map(deliveries).collect();
    plane.tick(&[]).unwrap();
    for (shard, before) in before.iter().enumerate() {
        assert_eq!(deliveries(shard), before + 1, "shard {shard}");
    }
    plane.shutdown();
}
