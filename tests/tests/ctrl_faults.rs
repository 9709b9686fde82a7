//! Fault-injection tests of the cdba-ctrl shard supervisor: killed, hung,
//! and merely slow workers, recovery from checkpoint + journal replay, and
//! the degraded-mode behaviour of a shard that cannot be recovered.
//!
//! The load-bearing comparison: a run whose shard is killed mid-replay
//! and restarted must produce a snapshot whose placement-invariant parts
//! are **bitwise identical** to the same run without the fault — recovery
//! is indistinguishable in the metrics, and only the supervision
//! bookkeeping (`restarts`, `events_replayed`, `health`) tells the runs
//! apart.

use cdba_ctrl::codec::CODEC_VERSION;
use cdba_ctrl::{ControlPlane, CtrlError, ExecMode, FaultPlan, ServiceConfig, ServiceSnapshot};
use cdba_integration::{
    column_f64s, column_u64s, frame_column, image_frames, with_columns, with_strings, Cells,
};
use std::time::{Duration, Instant};

const B_MAX: f64 = 16.0;
const B_O: f64 = 8.0;
const D_O: usize = 4;
const TICKS: u64 = 120;

fn config(fault: Option<FaultPlan>) -> ServiceConfig {
    let mut builder = ServiceConfig::builder(4096.0)
        .session_b_max(B_MAX)
        .group_b_o(B_O)
        .offline_delay(D_O)
        .window(2 * D_O)
        .shards(2)
        .exec(ExecMode::Threaded)
        .checkpoint_every(16)
        .max_restarts(3);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    builder.build().expect("valid test config")
}

/// A deterministic churn replay: dedicated sessions on both shards plus a
/// pooled group, a mid-run leave/admit swap, and fully determined
/// arrivals. Ticks must tolerate transparent recovery, so every call is
/// unwrapped — a fault that recovery absorbs never surfaces as an error.
fn replay(mut service: ControlPlane) -> ServiceSnapshot {
    let mut live: Vec<u64> = Vec::new();
    for i in 0..6 {
        live.push(service.admit(["acme", "globex"][i % 2]).unwrap());
    }
    live.extend(service.admit_group("initech", 3).unwrap());
    for t in 0..TICKS {
        if t == 40 {
            let gone = live.remove(0);
            service.leave(gone).unwrap();
            live.push(service.admit("acme").unwrap());
        }
        let arrivals: Vec<(u64, f64)> = live
            .iter()
            .enumerate()
            .map(|(i, &key)| (key, ((t + 3 * i as u64) % 5) as f64))
            .collect();
        service.tick(&arrivals).unwrap();
    }
    let snapshot = service.snapshot().expect("no shard is permanently down");
    service.shutdown();
    snapshot
}

/// A control plane reporting into its own registry, and the value of the
/// certified-stage gauge once the replay's final snapshot has folded it.
fn metered(cfg: ServiceConfig) -> (ControlPlane, impl Fn() -> f64) {
    let registry = cdba_obs::Registry::new();
    let mut service = ControlPlane::new(cfg);
    service.attach_metrics(&registry);
    let stages = move || {
        let text = registry.render();
        let line = text
            .lines()
            .find(|l| l.starts_with("cdba_ctrl_stages_completed_total "))
            .expect("the stage gauge is exported");
        line.rsplit(' ').next().unwrap().parse().unwrap()
    };
    (service, stages)
}

#[test]
fn killed_shard_recovers_from_checkpoint_bitwise() {
    let (service, clean_stages) = metered(config(None));
    let clean = replay(service);
    // Kill shard 1 when it is about to process tick 50: past the tick-48
    // checkpoint, so recovery must combine the checkpoint with a journal
    // replay of everything since.
    let (service, faulted_stages) = metered(config(Some(FaultPlan::kill(1, 50))));
    let faulted = replay(service);
    assert!(clean_stages() > 0.0, "the replay completes stages");
    assert_eq!(
        clean_stages(),
        faulted_stages(),
        "live columns, pools and the retired count all survive a restart"
    );

    assert_eq!(
        clean.invariant_view(),
        faulted.invariant_view(),
        "recovery must be invisible in the placement-invariant metrics"
    );
    assert_eq!(faulted.restarts, 1, "exactly one restart");
    assert!(
        faulted.events_replayed > 0,
        "the journal since the last checkpoint cannot be empty"
    );
    assert_eq!(clean.restarts, 0);
    assert_eq!(clean.events_replayed, 0);
    let health = &faulted.health[1];
    assert!(health.healthy, "the shard came back");
    assert_eq!(health.restarts, 1);
    assert!(
        health
            .last_failure
            .as_deref()
            .unwrap_or_default()
            .contains("injected fault: kill"),
        "failure reason should carry the panic message, got {:?}",
        health.last_failure
    );
    // The other shard never noticed.
    assert!(faulted.health[0].healthy);
    assert_eq!(faulted.health[0].restarts, 0);
}

#[test]
fn kill_before_any_checkpoint_recovers_via_journal_alone() {
    let clean = replay(ControlPlane::new(config(None)));
    // Tick 7 precedes the first checkpoint (tick 16): the rebuild starts
    // from a fresh shard and replays the journal from the very beginning.
    let faulted = replay(ControlPlane::new(config(Some(FaultPlan::kill(1, 7)))));
    assert_eq!(clean.invariant_view(), faulted.invariant_view());
    assert_eq!(faulted.restarts, 1);
    assert!(faulted.events_replayed > 0);
}

/// Two restores with journaled churn between them. The first rebuild
/// replays a leave/admit swap out of the journal; the replacement
/// worker's next checkpoint is then cut from that replayed state, and a
/// second restore — forced mid-run with [`ControlPlane::restart_shard`] —
/// starts from exactly that checkpoint. The final snapshot must stay
/// bitwise-identical to the clean run.
#[test]
fn two_restores_across_journaled_churn_lose_no_mutation() {
    fn run(fault: Option<FaultPlan>, restart_at: Option<u64>) -> ServiceSnapshot {
        let mut builder = ServiceConfig::builder(4096.0)
            .session_b_max(B_MAX)
            .group_b_o(B_O)
            .offline_delay(D_O)
            .window(2 * D_O)
            .shards(2)
            .exec(ExecMode::Threaded)
            .checkpoint_every(16)
            .max_restarts(3);
        if let Some(plan) = fault {
            builder = builder.fault(plan);
        }
        let mut service = ControlPlane::new(builder.build().unwrap());
        let mut live: Vec<u64> = Vec::new();
        for i in 0..6 {
            live.push(service.admit(["acme", "globex"][i % 2]).unwrap());
        }
        for t in 0..TICKS {
            // Churn right after the tick-64 checkpoint: the swap sits in
            // the journal the rebuild replays.
            if t == 65 {
                let gone = live.remove(0);
                service.leave(gone).unwrap();
                live.push(service.admit("globex").unwrap());
            }
            if restart_at == Some(t) {
                service.restart_shard(1).expect("operator restart");
            }
            let arrivals: Vec<(u64, f64)> = live
                .iter()
                .enumerate()
                .map(|(i, &key)| (key, ((t + 3 * i as u64) % 5) as f64))
                .collect();
            service.tick(&arrivals).unwrap();
        }
        let snapshot = service.snapshot().expect("no shard is permanently down");
        service.shutdown();
        snapshot
    }

    let clean = run(None, None);
    // Kill shard 1 when it is about to process tick 66: the retained
    // frame is the tick-64 one and the journal holds the tick-65 swap. At
    // tick 90 the rebuilt shard is restored a second time, from the
    // tick-80 frame its replacement worker cut.
    let faulted = run(Some(FaultPlan::kill(1, 66)), Some(90));
    assert_eq!(
        clean.invariant_view(),
        faulted.invariant_view(),
        "checkpoints crossing two restores must lose no mutation"
    );
    assert_eq!(
        faulted.restarts, 2,
        "the injected kill plus the operator-requested restart"
    );
    assert!(faulted.events_replayed > 0);
    assert!(faulted.health[1].healthy, "the shard came back twice");
    assert_eq!(clean.restarts, 0);
}

/// A forced restart anywhere in the checkpoint cycle is invisible: 0, 1,
/// 32 and 63 ticks past an accepted checkpoint, and once straight after
/// dispatching a checkpoint tick — the old worker's frame is then still
/// in flight and arrives stamped with a superseded epoch.
#[test]
fn restart_anywhere_in_the_checkpoint_cycle_is_invisible() {
    const EVERY: u64 = 64;
    fn run(restart: Option<(u64, bool)>) -> ServiceSnapshot {
        let cfg = ServiceConfig::builder(65_536.0)
            .session_b_max(B_MAX)
            .group_b_o(B_O)
            .offline_delay(D_O)
            .window(2 * D_O)
            .shards(1)
            .exec(ExecMode::Threaded)
            .pipeline_depth(4)
            .checkpoint_every(EVERY)
            .build()
            .unwrap();
        let mut service = ControlPlane::new(cfg);
        let mut live: Vec<u64> = (0..400).map(|_| service.admit("acme").unwrap()).collect();
        live.extend(service.admit_group("initech", 3).unwrap());
        for t in 0..3 * EVERY + 8 {
            if t == EVERY + 5 {
                service.leave(live.remove(0)).unwrap();
                live.push(service.admit("globex").unwrap());
            }
            if let Some((at, synced)) = restart {
                if t == at {
                    if synced {
                        // A Collect round trip: the worker has emitted,
                        // and the driver accepted, every frame so far.
                        service.snapshot().unwrap();
                    }
                    service.restart_shard(0).expect("operator restart");
                }
            }
            let arrivals: Vec<(u64, f64)> = live
                .iter()
                .enumerate()
                .map(|(i, &key)| (key, ((t + 3 * i as u64) % 5) as f64))
                .collect();
            service.tick(&arrivals).unwrap();
        }
        let snapshot = service.snapshot().expect("no shard is permanently down");
        service.shutdown();
        snapshot
    }

    let clean = run(None);
    for (past, synced) in [(0, true), (1, true), (32, true), (63, true), (0, false)] {
        let restarted = run(Some((2 * EVERY + past, synced)));
        assert_eq!(
            clean.invariant_view(),
            restarted.invariant_view(),
            "restart {past} ticks past a checkpoint (synced: {synced})"
        );
        assert_eq!(restarted.restarts, 1);
    }
}

#[test]
fn hung_shard_is_detected_and_replaced() {
    let mut builder = ServiceConfig::builder(4096.0)
        .session_b_max(B_MAX)
        .offline_delay(D_O)
        .window(2 * D_O)
        .shards(1)
        .exec(ExecMode::Threaded)
        .checkpoint_every(8)
        .shard_timeout_ms(100);
    // Stall for well over the shard timeout at tick 30.
    builder = builder.fault(FaultPlan::hang(0, 30, 600));
    let mut service = ControlPlane::new(builder.build().unwrap());
    let key = service.admit("acme").unwrap();
    for t in 0..50u64 {
        service.tick(&[(key, (t % 3) as f64)]).unwrap();
    }
    // The hang shows up as a missing snapshot reply; the supervisor must
    // replace the worker and serve the snapshot from the replacement.
    let snapshot = service.snapshot().expect("recovered");
    assert_eq!(snapshot.restarts, 1);
    assert!(snapshot.health[0].healthy);
    assert_eq!(snapshot.ticks, 50);
    let session = &snapshot.sessions[0];
    assert_eq!(session.ticks, 50, "no tick was lost to the hang");
    service.shutdown();
}

/// A threaded shard holds dispatched events back in an outbox until a
/// sync point. This script leaves one non-empty when the disturbance
/// lands — five admits and a leave after tick `LAST`, fewer than a batch,
/// nothing flushed — and counts what the journal must hold by then (no
/// checkpoint precedes tick 16, so the journal is everything dispatched).
/// `disturb` runs with that count, between the burst and the next tick.
fn replay_with_pending_outbox(
    fault: Option<FaultPlan>,
    mut disturb: impl FnMut(&mut ControlPlane, u64),
) -> ServiceSnapshot {
    const LAST: u64 = 9;
    let mut builder = ServiceConfig::builder(4096.0)
        .session_b_max(B_MAX)
        .offline_delay(D_O)
        .window(2 * D_O)
        .shards(1)
        .exec(ExecMode::Threaded)
        .checkpoint_every(16);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    let mut service = ControlPlane::new(builder.build().unwrap());
    let mut live: Vec<u64> = (0..6).map(|_| service.admit("acme").unwrap()).collect();
    let mut journaled = live.len() as u64;
    for t in 0..40u64 {
        if t == LAST {
            // A sync: every earlier tick is acked, so the tick after the
            // disturbance is dispatched without waiting on the pipeline.
            service.snapshot().unwrap();
        }
        if t == LAST + 1 {
            live.extend((0..5).map(|_| service.admit("globex").unwrap()));
            service.leave(live.remove(0)).unwrap();
            journaled += 6;
            disturb(&mut service, journaled);
        }
        let arrivals: Vec<(u64, f64)> = live
            .iter()
            .map(|&key| (key, ((t + key) % 4) as f64))
            .collect();
        service.tick(&arrivals).unwrap();
        journaled += 1;
        if t == LAST + 1 && fault.is_some() {
            // This tick's flush found the failure report; the replay took
            // the journal as it stood, this tick included.
            assert_eq!(service.restarts(), 1, "the kill is discovered here");
            assert_eq!(service.events_replayed(), journaled);
        }
    }
    let snapshot = service.snapshot().unwrap();
    service.shutdown();
    let keys: Vec<u64> = snapshot.sessions.iter().map(|m| m.session).collect();
    assert_eq!(keys, (0..11).collect::<Vec<u64>>(), "each session once");
    snapshot
}

/// A worker that dies with events still in the driver's outbox, and an
/// operator restart issued over a non-empty outbox: the journal replay
/// applies the undelivered events, the outbox is dropped rather than sent
/// after it, and the run is bitwise the undisturbed one.
#[test]
fn undelivered_outbox_is_replayed_exactly_once() {
    let clean = replay_with_pending_outbox(None, |_, _| {});
    assert_eq!(clean.restarts, 0);
    // The worker dies on tick 9; by the time the burst is in the outbox
    // its failure report is waiting for the next flush.
    let pause = |_: &mut ControlPlane, _| std::thread::sleep(Duration::from_millis(50));
    let killed = replay_with_pending_outbox(Some(FaultPlan::kill(0, 9)), pause);
    assert_eq!(clean.invariant_view(), killed.invariant_view());
    assert_eq!(killed.restarts, 1);
    let restarted = replay_with_pending_outbox(None, |service, journaled| {
        service.restart_shard(0).unwrap();
        assert_eq!(service.events_replayed(), journaled);
    });
    assert_eq!(clean.invariant_view(), restarted.invariant_view());
    assert_eq!(restarted.restarts, 1);
}

/// Admits keep arriving while the worker hangs, and nothing bounds how
/// many the driver gets ahead by: the `ahead <= 64 + 256` once asserted
/// here was the outbox plus a bounded queue, and that queue is gone — every
/// queued event already sits in the journal, so blocking the driver on it
/// saved no memory and held 100k joins up for tens of milliseconds. The
/// bound is in time instead. No admit waits on the worker — a quarter of
/// the timeout is allowed for a busy host, and the one admit whose look at
/// the worker performs the recovery (a thread spawn and a replay) answers
/// only for not waiting the hang out. That look — the first to find events
/// pending and the worker's watermark still for the shard timeout —
/// restarts the shard: not before the timeout, and, with a look every
/// ~20 ms, long before twice the timeout (the hang lasts four). The
/// recovery takes every admit so far with it, bitwise.
#[test]
fn hung_worker_bounds_what_the_driver_runs_ahead_by() {
    const TIMEOUT: Duration = Duration::from_millis(200);
    // `admits` is `None` on the hung run, which stops at the restart and
    // reports how many it made for the clean run to repeat.
    fn run(fault: Option<FaultPlan>, admits: Option<usize>) -> (ServiceSnapshot, usize) {
        let mut builder = ServiceConfig::builder(65_536.0 * B_MAX)
            .session_b_max(B_MAX)
            .offline_delay(D_O)
            .window(2 * D_O)
            .shards(1)
            .exec(ExecMode::Threaded)
            .checkpoint_every(8)
            .shard_timeout_ms(TIMEOUT.as_millis() as u64);
        if let Some(plan) = fault {
            builder = builder.fault(plan);
        }
        let mut service = ControlPlane::new(builder.build().unwrap());
        let first = service.admit("acme").unwrap();
        // The watermark stops between these two instants: the worker hangs
        // in front of the sixth tick.
        let before = Instant::now();
        for t in 0..6u64 {
            service.tick(&[(first, (t % 3) as f64)]).unwrap();
        }
        let stopped = Instant::now();
        let mut made = 0;
        while admits.map_or(service.restarts() == 0, |n| made < n) {
            let started = Instant::now();
            service.admit("acme").unwrap();
            let blocked = started.elapsed();
            made += 1;
            let allowed = if service.restarts() == 0 {
                TIMEOUT / 4
            } else {
                TIMEOUT
            };
            assert!(
                blocked < allowed,
                "admit {made} blocked the driver for {blocked:?}"
            );
            if admits.is_none() {
                assert!(
                    service.restarts() == 1 || stopped.elapsed() < TIMEOUT * 2,
                    "{made} admits and {:?} into the hang, no look has exposed it",
                    stopped.elapsed()
                );
                // Paced, so that a look at the worker (every 64th admit)
                // comes round every ~20 ms and the replay stays a
                // millisecond's work.
                std::thread::sleep(Duration::from_micros(250));
            }
        }
        if admits.is_none() {
            assert!(
                before.elapsed() >= TIMEOUT,
                "restarted {:?} into a {TIMEOUT:?} timeout",
                before.elapsed()
            );
        }
        service.tick(&[(first, 1.0)]).unwrap();
        let snapshot = service.snapshot().unwrap();
        service.shutdown();
        (snapshot, made)
    }
    let (hung, made) = run(Some(FaultPlan::hang(0, 5, 4 * 200)), None);
    assert_eq!(hung.restarts, 1);
    assert!(hung.health[0].healthy);
    assert_eq!(hung.sessions.len(), made + 1);
    let (clean, _) = run(None, Some(made));
    assert_eq!(clean.restarts, 0);
    assert_eq!(clean.invariant_view(), hung.invariant_view());
}

/// The other half of timing silence instead of counting events: a worker
/// 400k events behind is slow, not hung. The driver admits 200k sessions
/// about three times as fast as the worker can grow state for them, so the
/// waits that follow — the fifth tick's pipeline slot above all — outlast
/// the 50 ms timeout (70 – 130 ms here, debug and release), and none may
/// fire while the watermark keeps moving. (With the old 320-event bound
/// the driver could never get this far ahead; with an unbounded queue and
/// fixed deadlines it would restart a healthy shard, every time.) The
/// sessions leave again before the first tick, so the backlog is long
/// while every single event — which the timeout does bound — stays
/// microseconds, whatever the build.
///
/// What a host can still do is keep the worker off the CPU for the whole
/// 50 ms with work in hand, which is silence as far as anyone can tell. A
/// longer timeout needs a longer backlog to outlast it, and this one
/// already costs over 200 MB of retired-session records, so the run is allowed
/// three attempts instead: a wait that does not follow the watermark fails
/// all three.
#[test]
fn backlog_is_slowness_not_a_hang() {
    const BURST: usize = 200_000;
    const ATTEMPTS: usize = 3;
    let run = |exec: ExecMode| {
        let cfg = ServiceConfig::builder((BURST + 16) as f64 * B_MAX)
            .session_b_max(B_MAX)
            .offline_delay(D_O)
            .window(2 * D_O)
            .shards(1)
            .exec(exec)
            .pipeline_depth(4)
            .checkpoint_every(8)
            .shard_timeout_ms(50)
            .build()
            .unwrap();
        let mut service = ControlPlane::new(cfg);
        let live: Vec<u64> = (0..8).map(|_| service.admit("acme").unwrap()).collect();
        let burst: Vec<u64> = (0..BURST)
            .map(|_| service.admit("globex").unwrap())
            .collect();
        for key in burst {
            service.leave(key).unwrap();
        }
        for t in 0..5u64 {
            let arrivals: Vec<(u64, f64)> = live
                .iter()
                .map(|&key| (key, ((t + key) % 5) as f64))
                .collect();
            service.tick(&arrivals).unwrap();
        }
        let snapshot = service.snapshot_shared().unwrap();
        service.shutdown();
        (snapshot.restarts, snapshot.invariant_view())
    };
    let (_, inline) = run(ExecMode::Inline);
    assert_eq!(inline.2.len(), BURST + 8);
    let mut restarts = Vec::new();
    for _ in 0..ATTEMPTS {
        let (restarted, threaded) = run(ExecMode::Threaded);
        assert_eq!(threaded, inline, "with {restarted} restart(s)");
        restarts.push(restarted);
        if restarted == 0 {
            return;
        }
    }
    panic!("a shrinking backlog is not silence: restarts per attempt {restarts:?}");
}

#[test]
fn slow_shard_within_timeout_is_tolerated() {
    let clean = replay(ControlPlane::new(config(None)));
    // A 30 ms stall against the default 2000 ms timeout: no restart.
    let delayed = replay(ControlPlane::new(config(Some(FaultPlan::delay(1, 50, 30)))));
    assert_eq!(clean, delayed, "a tolerated delay changes nothing at all");
    assert_eq!(delayed.restarts, 0);
}

#[test]
fn unrecoverable_shard_degrades_to_typed_errors() {
    // checkpoint_every = 0 disables the journal: the first failure is
    // final. Keys 0..4 alternate shards 0,1,0,1 under least-loaded
    // placement.
    let cfg = ServiceConfig::builder(4096.0)
        .session_b_max(B_MAX)
        .offline_delay(D_O)
        .window(2 * D_O)
        .shards(2)
        .exec(ExecMode::Threaded)
        .checkpoint_every(0)
        .fault(FaultPlan::kill(1, 3))
        .build()
        .unwrap();
    let mut service = ControlPlane::new(cfg);
    let keys: Vec<u64> = (0..4).map(|_| service.admit("acme").unwrap()).collect();
    let budget_before_death = service.available_budget();

    // Drive until the supervisor notices the dead worker — the worker
    // fails asynchronously, so pace the loop instead of outrunning it.
    // The tick that discovers the death returns ShardDown; nothing ever
    // panics.
    let mut death = None;
    for t in 0..2000u64 {
        let arrivals: Vec<(u64, f64)> = keys.iter().map(|&k| (k, 1.0)).collect();
        match service.tick(&arrivals) {
            Ok(()) => std::thread::sleep(std::time::Duration::from_millis(1)),
            Err(CtrlError::ShardDown { shard, .. }) => {
                death = Some((t, shard));
                break;
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    let (_, dead_shard) = death.expect("the kill must be discovered");
    assert_eq!(dead_shard, 1);

    // Sessions on the dead shard: leave and arrivals report ShardDown
    // before anything advances; healthy-shard traffic still flows.
    assert!(matches!(
        service.tick(&[(keys[1], 1.0)]),
        Err(CtrlError::ShardDown { shard: 1, .. })
    ));
    assert!(matches!(
        service.leave(keys[1]),
        Err(CtrlError::ShardDown { shard: 1, .. })
    ));
    service.tick(&[(keys[0], 1.0), (keys[2], 1.0)]).unwrap();
    service.leave(keys[0]).unwrap();

    // New sessions avoid the dead shard.
    let replacement = service.admit("acme").unwrap();
    let snapshot = service.snapshot().expect("degraded but serviceable");
    assert!(!snapshot.health[1].healthy);
    assert_eq!(snapshot.restarts, 0, "recovery was disabled, not attempted");
    assert_eq!(snapshot.events_replayed, 0);
    let placed = snapshot
        .sessions
        .iter()
        .find(|m| m.session == replacement)
        .expect("admitted session reports");
    assert_eq!(placed.shard, 0);

    // Dead-shard sessions keep their envelopes: the budget only moved by
    // keys[0]'s release against the replacement's admit.
    assert_eq!(service.available_budget(), budget_before_death);
    service.shutdown();
}

/// A worker that dies with its report already asked for, and no budget to
/// restart it: whichever step of the snapshot finds out — a flush of the
/// fan-out (before or after the shard was asked), or the fan-in once the
/// shard has been silent for the timeout — the snapshot degrades instead
/// of failing, and the surviving shards report in full. (The one ordering
/// that needs exact timing, found out between two flushes of one fan-out,
/// is pinned in `service::tests::fan_in_stops_awaiting_a_shard_lost_during_the_fan_out`.)
#[test]
fn shard_lost_under_a_snapshot_degrades_the_snapshot() {
    const SHARDS: usize = 4;
    let cfg = ServiceConfig::builder(4096.0)
        .session_b_max(B_MAX)
        .offline_delay(D_O)
        .window(2 * D_O)
        .shards(SHARDS)
        .exec(ExecMode::Threaded)
        .checkpoint_every(8)
        .max_restarts(0)
        .shard_timeout_ms(250)
        .fault(FaultPlan::kill(0, 2))
        .build()
        .unwrap();
    let mut service = ControlPlane::new(cfg);
    let keys: Vec<u64> = (0..2 * SHARDS)
        .map(|_| service.admit("acme").unwrap())
        .collect();
    let arrivals: Vec<(u64, f64)> = keys.iter().map(|&k| (k, 1.0)).collect();
    for _ in 0..2 {
        service.tick(&arrivals).unwrap();
    }
    // Shard 0's worker dies applying this one; pipelined, so the tick
    // itself need not see it.
    let _ = service.tick(&arrivals);
    let snapshot = service.snapshot().expect("degraded, never an error");
    assert!(!snapshot.health[0].healthy, "no budget to restart shard 0");
    assert_eq!(snapshot.restarts, 0);
    assert!(snapshot.health[1..].iter().all(|h| h.healthy));
    assert_eq!(
        snapshot.sessions.iter().filter(|m| m.shard != 0).count(),
        2 * (SHARDS - 1),
        "every surviving shard reported"
    );
    service.shutdown();
}

#[test]
fn admission_rolls_back_when_no_shard_can_take_the_join() {
    let cfg = ServiceConfig::builder(4096.0)
        .session_b_max(B_MAX)
        .offline_delay(D_O)
        .window(2 * D_O)
        .shards(1)
        .exec(ExecMode::Threaded)
        .checkpoint_every(0)
        .fault(FaultPlan::kill(0, 2))
        .build()
        .unwrap();
    let mut service = ControlPlane::new(cfg);
    let key = service.admit("acme").unwrap();
    let budget = service.available_budget();
    let mut discovered = false;
    for _ in 0..2000u64 {
        if service.tick(&[(key, 1.0)]).is_err() {
            discovered = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(discovered, "the kill must be discovered");
    // The sole shard is gone: the join is refused with a typed error and
    // its admission commit is rolled back in full.
    let before = service.available_budget();
    assert_eq!(before, budget);
    let err = service.admit("globex").unwrap_err();
    assert!(matches!(err, CtrlError::ShardDown { .. }), "got {err}");
    assert_eq!(service.available_budget(), before, "no budget leaked");
    let err = service.admit_group("globex", 2).unwrap_err();
    assert!(matches!(err, CtrlError::ShardDown { .. }), "got {err}");
    assert_eq!(service.available_budget(), before, "no budget leaked");
    let snapshot = service.snapshot().expect("snapshot in degraded mode");
    assert_eq!(
        snapshot.admitted, 1,
        "rolled-back joins never count as admitted"
    );
    service.shutdown();
}

/// Builds an inline single-shard service for migration-blob tests.
fn inline_service() -> ControlPlane {
    let cfg = ServiceConfig::builder(4096.0)
        .session_b_max(B_MAX)
        .group_b_o(B_O)
        .offline_delay(D_O)
        .window(2 * D_O)
        .exec(ExecMode::Inline)
        .build()
        .expect("valid test config");
    ControlPlane::new(cfg)
}

/// Exports a session whose meter totals are a known float value, so the
/// tests can locate and poison a specific f64 inside the blob.
fn blob_with_known_totals() -> Vec<u8> {
    let mut src = inline_service();
    let key = src.admit("acme").unwrap();
    for _ in 0..10u64 {
        src.tick(&[(key, 1.5)]).unwrap();
    }
    src.export_session(key).unwrap()
}

/// A migration blob that decodes structurally but carries an
/// out-of-domain float (NaN, negative, infinite), or one in another
/// encoding than the columnar frame, must be refused with the typed
/// [`CtrlError::InvalidCheckpoint`] — not imported, not panicked on —
/// and the refused import must hold no budget.
#[test]
fn out_of_domain_floats_in_a_migration_blob_are_rejected_typed() {
    let blob = blob_with_known_totals();

    // Control: the pristine blob imports cleanly.
    let mut dst = inline_service();
    assert!(dst.import_session(&blob).is_ok());

    // 10 ticks × 1.5 bits: the meter's total_arrived cell is in the
    // blob verbatim, an `f32`-exact 15. Re-encoding it poisoned must trip
    // the domain validator.
    assert_eq!(frame_column(&blob, "total_arrived"), 15.0f32.to_le_bytes());
    assert_eq!(
        column_f64s(&blob, "total_arrived"),
        [15.0],
        "the known total"
    );
    for bad in [f64::NAN, -5.0, f64::INFINITY, f64::NEG_INFINITY] {
        let evil = with_columns(&blob, &[("total_arrived", Cells::Float(&[bad]))]);
        let mut target = inline_service();
        let budget = target.available_budget();
        let err = target.import_session(&evil).unwrap_err();
        assert!(
            matches!(err, CtrlError::InvalidCheckpoint { .. }),
            "poisoned with {bad}: got {err}"
        );
        assert_eq!(target.live_sessions(), 0, "nothing was imported");
        assert_eq!(target.available_budget(), budget, "no budget held");
    }

    // A blob led by the row-oriented codec's version byte is another
    // frame version, refused typed like any other.
    let mut v1 = blob.clone();
    v1[0] = CODEC_VERSION;
    let mut target = inline_service();
    let budget = target.available_budget();
    assert_eq!(
        target.import_session(&v1),
        Err(CtrlError::InvalidCheckpoint {
            field: "columnar.version"
        })
    );
    assert_eq!(target.live_sessions(), 0, "nothing was imported");
    assert_eq!(target.available_budget(), budget, "no budget held");
}

/// Every single-byte corruption of a migration blob either imports (a
/// benign flip) or returns a typed error — `import_session` never
/// panics, whatever the wire delivers.
#[test]
fn corrupted_migration_blobs_never_panic_the_importer() {
    let blob = blob_with_known_totals();
    let mut dst = inline_service();
    for at in 0..blob.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut evil = blob.clone();
            evil[at] ^= mask;
            // Ok (benign) or typed Err (caught) — both fine; a panic
            // fails the test.
            let _ = dst.import_session(&evil);
        }
    }
}

/// A lease is one dedicated row and nothing else: a frame of two rows, a
/// pooled row, or a row beside a retired list is refused as
/// `columnar.migration`, with nothing imported and no budget held.
#[test]
fn frames_that_are_not_one_dedicated_row_are_refused_as_migrations() {
    let frame_of = |plane: &mut ControlPlane| {
        let image = plane.cut_image().unwrap();
        image_frames(&image)[0].to_vec()
    };
    let mut two = inline_service();
    let keys = [two.admit("acme").unwrap(), two.admit("acme").unwrap()];
    two.tick(&[(keys[0], 1.0), (keys[1], 2.0)]).unwrap();
    let two_rows = frame_of(&mut two);
    assert_eq!(column_u64s(&two_rows, "key").len(), 2);

    const F_LIVE: u64 = 1;
    let pooled = with_columns(
        &blob_with_known_totals(),
        &[("flags", Cells::Unsigned(&[F_LIVE]))],
    );

    let mut retiring = inline_service();
    let stays = retiring.admit("acme").unwrap();
    let goes = retiring.admit("acme").unwrap();
    retiring.leave(goes).unwrap();
    retiring.tick(&[(stays, 1.0)]).unwrap();
    let with_retired = frame_of(&mut retiring);
    assert_eq!(column_u64s(&with_retired, "key"), [stays]);

    for (what, frame) in [
        ("two rows", two_rows),
        ("a pooled row", pooled),
        ("a retired list", with_retired),
    ] {
        let mut target = inline_service();
        let budget = target.available_budget();
        assert_eq!(
            target.import_session(&frame),
            Err(CtrlError::InvalidCheckpoint {
                field: "columnar.migration"
            }),
            "{what}"
        );
        assert_eq!(target.live_sessions(), 0, "{what}: nothing was imported");
        assert_eq!(target.available_budget(), budget, "{what}: no budget held");
    }
}

/// A lease's row names its tenant through the frame's string table: with
/// a table of two names whose row names the second, the session is
/// admitted and imported under the second.
#[test]
fn a_lease_imports_under_the_tenant_its_row_names() {
    let blob = with_strings(&blob_with_known_totals(), &["globex", "acme"]);
    let blob = with_columns(&blob, &[("tenant", Cells::Unsigned(&[1]))]);
    let mut target = inline_service();
    let key = target.import_session(&blob).unwrap();
    let snapshot = target.snapshot().unwrap();
    let imported = snapshot.sessions.iter().find(|m| m.session == key);
    assert_eq!(imported.map(|m| &*m.tenant), Some("acme"));
}

/// One logical state has one encoding. A session a few ticks into a
/// RESET that a burst keeps open (84 bits queued at `B_A` = 16), leased out
/// and straight back in, must come out of every later checkpoint frame
/// byte for byte as the same session ticked straight through, leased only
/// before its first tick so that both carry the same key: a RESET holds
/// no tracker state, however the session got there.
#[test]
fn a_reset_encodes_the_same_whether_ticked_through_or_leased() {
    let frames = |lease_at: u64| {
        let cfg = ServiceConfig::builder(4096.0)
            .session_b_max(B_MAX)
            .offline_delay(D_O)
            .window(D_O)
            .shards(1)
            .exec(ExecMode::Threaded)
            .checkpoint_every(1)
            .build()
            .unwrap();
        let mut plane = ControlPlane::new(cfg);
        let mut key = plane.admit("acme").unwrap();
        let mut frames = Vec::new();
        for t in 0..24u64 {
            if t == lease_at {
                let blob = plane.export_session(key).unwrap();
                key = plane.import_session(&blob).unwrap();
            }
            let bits = if t == 6 { 100.0 } else { 1.0 };
            plane.tick(&[(key, bits)]).unwrap();
            frames.push(image_frames(&plane.cut_image().unwrap())[0].to_vec());
        }
        plane.shutdown();
        frames
    };
    let (straight, leased) = (frames(0), frames(9));
    const F_STAGE_OPEN: u64 = 8;
    for (t, frame) in straight.iter().enumerate().skip(6) {
        let open = column_u64s(frame, "flags")[0] & F_STAGE_OPEN != 0;
        assert!(t > 8 || !open, "the session is in RESET after tick {t}");
        assert!(
            t < 9 || *frame == leased[t],
            "the frames after tick {t} differ"
        );
    }
}
