use super::*;
use crate::config::ServiceConfig;
use crate::fault::FaultPlan;
use crate::shard::{Segment, CONTROL_BATCH};
use std::time::Duration;

fn config(shards: usize, exec: ExecMode) -> ServiceConfig {
    ServiceConfig::builder(1024.0)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(4)
        .window(4)
        .shards(shards)
        .exec(exec)
        .build()
        .unwrap()
}

/// The plane's live dedicated keys, ascending, off its placement table:
/// the sessions a fleet may migrate away.
fn live_dedicated(plane: &ControlPlane) -> Vec<u64> {
    let table = &plane.placements;
    (0..table.shard_of.len() as u64)
        .filter(|&key| table.shard_of(key).is_some() && !table.is_pooled(key))
        .collect()
}

/// A deterministic churn scenario driven against any service.
fn run_scenario(mut service: ControlPlane) -> ServiceSnapshot {
    let mut live: Vec<u64> = Vec::new();
    for _ in 0..6 {
        live.push(service.admit("acme").unwrap());
    }
    live.extend(service.admit_group("globex", 3).unwrap());
    for t in 0..200u64 {
        if t == 60 {
            let gone = live.remove(0);
            service.leave(gone).unwrap();
            live.push(service.admit("initech").unwrap());
        }
        let arrivals: Vec<(u64, f64)> = live
            .iter()
            .enumerate()
            .map(|(i, &key)| (key, ((t + i as u64) % 4) as f64))
            .collect();
        service.tick(&arrivals).unwrap();
    }
    let snapshot = service.snapshot().unwrap();
    service.shutdown();
    snapshot
}

#[test]
fn inline_and_threaded_agree_exactly() {
    let a = run_scenario(ControlPlane::new(config(1, ExecMode::Inline)));
    let b = run_scenario(ControlPlane::new(config(1, ExecMode::Threaded)));
    assert_eq!(a, b, "same shard count: full snapshots agree");
}

#[test]
fn shard_count_does_not_change_results() {
    let one = run_scenario(ControlPlane::new(config(1, ExecMode::Inline)));
    let four = run_scenario(ControlPlane::new(config(4, ExecMode::Threaded)));
    assert_eq!(one.invariant_view(), four.invariant_view());
    assert!(one.global.changes > 0);
    assert!(one.global.total_served > 0.0);
}

#[test]
fn admission_rejections_do_not_allocate() {
    let cfg = ServiceConfig::builder(32.0)
        .session_b_max(16.0)
        .exec(ExecMode::Inline)
        .build()
        .unwrap();
    let mut service = ControlPlane::new(cfg);
    let a = service.admit("acme").unwrap();
    let _b = service.admit("acme").unwrap();
    assert!(matches!(
        service.admit("acme"),
        Err(CtrlError::Admission(_))
    ));
    assert_eq!(service.live_sessions(), 2);
    service.leave(a).unwrap();
    assert!(service.admit("acme").is_ok());
    let snap = service.snapshot().unwrap();
    assert_eq!(snap.admitted, 3);
    assert_eq!(snap.rejected, 1);
}

#[test]
fn group_envelope_released_on_last_leave() {
    let cfg = ServiceConfig::builder(32.0)
        .group_b_o(8.0) // envelope 32: one group fills the budget
        .exec(ExecMode::Inline)
        .build()
        .unwrap();
    let mut service = ControlPlane::new(cfg);
    let members = service.admit_group("acme", 2).unwrap();
    assert!(service.admit_group("acme", 2).is_err());
    service.leave(members[0]).unwrap();
    assert!(service.admit_group("acme", 2).is_err(), "group still live");
    service.leave(members[1]).unwrap();
    assert!(service.admit_group("acme", 2).is_ok());
}

#[test]
fn unknown_sessions_error() {
    let mut service = ControlPlane::new(config(1, ExecMode::Inline));
    assert!(matches!(
        service.leave(42),
        Err(CtrlError::UnknownSession(42))
    ));
    assert!(matches!(
        service.tick(&[(42, 1.0)]),
        Err(CtrlError::UnknownSession(42))
    ));
}

/// A departed key stays unknown after a newcomer takes its shard slot:
/// its arrivals, its leave and its export are refused.
#[test]
fn left_sessions_reject_arrivals() {
    let mut service = ControlPlane::new(config(2, ExecMode::Inline));
    let key = service.admit("acme").unwrap();
    service.tick(&[(key, 2.0)]).unwrap();
    service.leave(key).unwrap();
    service.tick(&[]).unwrap();
    let newcomer = service.admit("acme").unwrap();
    service.tick(&[(newcomer, 1.0)]).unwrap();
    assert!(matches!(
        service.tick(&[(key, 2.0)]),
        Err(CtrlError::UnknownSession(k)) if k == key
    ));
    assert!(matches!(
        service.leave(key),
        Err(CtrlError::UnknownSession(k)) if k == key
    ));
    assert!(matches!(
        service.export_session(key),
        Err(CtrlError::UnknownSession(k)) if k == key
    ));
    assert_eq!(service.live_sessions(), 1);
    assert_eq!(live_dedicated(&service), vec![newcomer]);
}

#[test]
fn malformed_arrivals_are_rejected_before_anything_advances() {
    let mut service = ControlPlane::new(config(1, ExecMode::Inline));
    let a = service.admit("acme").unwrap();
    let b = service.admit("acme").unwrap();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        assert!(matches!(
            service.tick(&[(a, 1.0), (b, bad)]),
            Err(CtrlError::InvalidArrival { session, bits })
                if session == b && (bits.is_nan() == bad.is_nan() && (bits == bad || bad.is_nan()))
        ));
    }
    assert!(matches!(
        service.tick(&[(a, 1.0), (a, 2.0)]),
        Err(CtrlError::DuplicateArrival(key)) if key == a
    ));
    // Nothing advanced: the clock is untouched and a clean tick works.
    assert_eq!(service.ticks(), 0);
    service.tick(&[(a, 1.0), (b, 0.0)]).unwrap();
    assert_eq!(service.ticks(), 1);
}

/// A session exported from one control plane and imported into
/// another continues bitwise — the core guarantee behind fleet live
/// migration — and the admission budget moves with it.
#[test]
fn export_import_moves_a_session_between_services_bitwise() {
    let mut src = ControlPlane::new(config(1, ExecMode::Inline));
    let mut dst = ControlPlane::new(config(1, ExecMode::Inline));
    let mut twin = ControlPlane::new(config(1, ExecMode::Inline));

    let key = src.admit("acme").unwrap();
    let group = src.admit_group("globex", 2).unwrap();
    let twin_key = twin.admit("acme").unwrap();
    for t in 0..40u64 {
        src.tick(&[(key, (t % 5) as f64)]).unwrap();
        twin.tick(&[(twin_key, (t % 5) as f64)]).unwrap();
    }

    // Pooled members refuse to migrate; unknown keys error.
    assert!(matches!(
        src.export_session(group[0]),
        Err(CtrlError::InvalidService(_))
    ));
    assert!(matches!(
        src.export_session(999),
        Err(CtrlError::UnknownSession(999))
    ));

    let src_budget_before = src.available_budget();
    let dst_budget_before = dst.available_budget();
    let blob = src.export_session(key).unwrap();
    let moved = dst.import_session(&blob).unwrap();

    // The envelope moved: released at the source, charged at the
    // target.
    let envelope = src.config().dedicated_envelope();
    assert_eq!(src.available_budget(), src_budget_before + envelope);
    assert_eq!(dst.available_budget(), dst_budget_before - envelope);
    assert!(live_dedicated(&src).is_empty());
    assert_eq!(live_dedicated(&dst), vec![moved]);

    // The source neither serves nor reports the session any more.
    assert!(matches!(
        src.tick(&[(key, 1.0)]),
        Err(CtrlError::UnknownSession(_))
    ));
    let src_snap = src.snapshot().unwrap();
    assert!(src_snap.sessions.iter().all(|m| m.session != key));

    // The moved session and its undisturbed twin agree bitwise after
    // identical continuations.
    for t in 0..25u64 {
        dst.tick(&[(moved, ((t + 1) % 4) as f64)]).unwrap();
        twin.tick(&[(twin_key, ((t + 1) % 4) as f64)]).unwrap();
    }
    let moved_m = dst
        .snapshot()
        .unwrap()
        .sessions
        .iter()
        .find(|m| m.session == moved)
        .cloned()
        .unwrap();
    let twin_m = twin
        .snapshot()
        .unwrap()
        .sessions
        .iter()
        .find(|m| m.session == twin_key)
        .cloned()
        .unwrap();
    assert_eq!(
        SessionMetrics {
            session: twin_key,
            ..moved_m
        },
        twin_m,
        "migrated session diverged from its single-service twin"
    );
}

/// The threaded export path (quiesce over the worker channel) emits
/// the same blob as the inline path after the same history.
#[test]
fn threaded_export_matches_inline_export() {
    let run = |exec: ExecMode| {
        let mut plane = ControlPlane::new(config(2, exec));
        let key = plane.admit("acme").unwrap();
        let other = plane.admit("acme").unwrap();
        for t in 0..30u64 {
            plane
                .tick(&[(key, (t % 3) as f64), (other, ((t + 1) % 3) as f64)])
                .unwrap();
        }
        let blob = plane.export_session(key).unwrap();
        plane.shutdown();
        blob
    };
    assert_eq!(run(ExecMode::Inline), run(ExecMode::Threaded));
}

/// A worker that is known to be exiting is joined by the restart that
/// retires it (its state is the restore target), so operator restarts
/// park nothing. Only a worker retired for silence is parked: the
/// recovery does not wait for it, restores into a fresh state just as
/// invisibly, and the first recovery after it exits reaps it.
#[test]
fn restarts_reap_exited_workers() {
    let mut plane = ControlPlane::new(config(1, ExecMode::Threaded));
    let key = plane.admit("acme").unwrap();
    for t in 0..3u64 {
        plane.tick(&[(key, t as f64)]).unwrap();
        plane.restart_shard(0).unwrap();
        assert!(plane.graveyard.is_empty(), "after restart {t}");
    }
    plane.shutdown();

    const TIMEOUT_MS: u64 = 200;
    let run = |fault: Option<FaultPlan>| {
        let mut builder = ServiceConfig::builder(1024.0)
            .session_b_max(16.0)
            .offline_delay(4)
            .window(4)
            .exec(ExecMode::Threaded)
            .checkpoint_every(8)
            .shard_timeout_ms(TIMEOUT_MS);
        if let Some(plan) = fault {
            builder = builder.fault(plan);
        }
        let mut plane = ControlPlane::new(builder.build().unwrap());
        let key = plane.admit("acme").unwrap();
        for t in 0..50u64 {
            let started = Instant::now();
            plane.tick(&[(key, (t % 3) as f64)]).unwrap();
            if plane.restarts() == 1 && plane.graveyard.len() == 1 {
                // The tick that detected the hang: one time-out to
                // notice the silence, and no second one waiting for a
                // worker that cannot answer.
                let blocked = started.elapsed();
                assert!(
                    blocked < Duration::from_millis(TIMEOUT_MS * 3 / 2),
                    "recovery from a hang blocked the driver for {blocked:?}"
                );
            }
        }
        let view = plane.snapshot().unwrap().invariant_view();
        (plane, view)
    };
    let (clean, clean_view) = run(None);
    clean.shutdown();
    let (mut hung, hung_view) = run(Some(FaultPlan::hang(0, 30, 4 * TIMEOUT_MS)));
    assert_eq!(hung.restarts(), 1);
    assert_eq!(hung.graveyard.len(), 1, "the hung worker is parked");
    assert_eq!(clean_view, hung_view, "a fresh restore target shows");
    while !hung.graveyard.iter().all(JoinHandle::is_finished) {
        std::thread::sleep(Duration::from_millis(5));
    }
    hung.restart_shard(0).unwrap();
    assert!(hung.graveyard.is_empty(), "the next recovery reaps it");
    hung.shutdown();
}

/// An admission burst does not set the journal's footprint for life:
/// a trim drops whole segments, each its own allocation, so what the
/// burst leaves behind is the deque's ring of pointers — no capacity
/// to give back, hence no shrink step — and the trimmed journal still
/// replays bitwise.
#[test]
fn journal_capacity_follows_the_checkpoint_interval() {
    const EVERY: u64 = 16;
    let run = |restart: bool| {
        let cfg = ServiceConfig::builder(4096.0 * 16.0)
            .session_b_max(16.0)
            .offline_delay(4)
            .window(4)
            .exec(ExecMode::Threaded)
            .checkpoint_every(EVERY)
            .build()
            .unwrap();
        let mut plane = ControlPlane::new(cfg);
        let keys: Vec<u64> = (0..4096).map(|_| plane.admit("acme").unwrap()).collect();
        let tick = |plane: &mut ControlPlane, t: u64| {
            let batch: Vec<(u64, f64)> = keys.iter().map(|&k| (k, ((k + t) % 4) as f64)).collect();
            plane.tick(&batch).unwrap();
        };
        for t in 0..2 * EVERY {
            tick(&mut plane, t);
        }
        // The snapshot reply is behind the second checkpoint in the
        // worker's queue; the drain after it takes that checkpoint in.
        drop(plane.snapshot().unwrap());
        plane.drain_worker_msgs();
        let sup = &plane.sups[0];
        assert_eq!(sup.frames_seq, 2, "two checkpoints accepted");
        let held = sup.journal.held() as usize;
        let footprint = held * std::mem::size_of::<ReplayEvent>()
            + sup.journal.ring_capacity() * std::mem::size_of::<Segment>();
        assert!(
            footprint <= 4 * EVERY as usize * std::mem::size_of::<ReplayEvent>(),
            "{held} events in a ring of {} segments ({footprint} bytes) after a \
             4,096-join burst and two trims",
            sup.journal.ring_capacity()
        );
        for t in 2 * EVERY..3 * EVERY {
            if restart && t == 2 * EVERY + EVERY / 2 {
                plane.restart_shard(0).unwrap();
            }
            tick(&mut plane, t);
        }
        let view = plane.snapshot().unwrap().invariant_view();
        plane.shutdown();
        view
    };
    assert_eq!(run(false), run(true), "replay from the trimmed journal");
}

/// The journal keeps a tick's arrivals encoded ([`TickBatch`]): 5 bytes
/// an arrival for key-ascending batches of integer bits (16 as
/// `(u64, f64)` pairs), exactly, and `cdba_ctrl_journal_bytes` scrapes
/// what it holds — until a checkpoint trims it.
#[test]
fn journal_holds_five_bytes_per_ascending_integer_arrival() {
    const EVERY: u64 = 16;
    let cfg = ServiceConfig::builder(4096.0 * 16.0)
        .session_b_max(16.0)
        .offline_delay(4)
        .window(4)
        .exec(ExecMode::Threaded)
        .checkpoint_every(EVERY)
        .build()
        .unwrap();
    let mut plane = ControlPlane::new(cfg);
    let registry = Registry::new();
    plane.attach_metrics(&registry);
    let keys: Vec<u64> = (0..4096).map(|_| plane.admit("acme").unwrap()).collect();
    for t in 0..EVERY - 1 {
        let batch: Vec<(u64, f64)> = keys.iter().map(|&k| (k, ((k + t) % 4) as f64)).collect();
        plane.tick(&batch).unwrap();
    }
    drop(plane.snapshot().unwrap());
    let sup = &plane.sups[0];
    let (held, arrivals) = sup.journal.replay().fold((0, 0), |(held, n), ev| match ev {
        ReplayEvent::Tick { arrivals } => (held + arrivals.bytes(), n + arrivals.iter().count()),
        _ => (held, n),
    });
    assert_eq!(arrivals, 4096 * (EVERY as usize - 1), "no checkpoint yet");
    assert_eq!(held, 5 * arrivals, "bytes per journaled arrival");
    let scraped = format!("cdba_ctrl_journal_bytes{{shard=\"0\"}} {held}\n");
    assert!(registry.render().contains(&scraped), "{scraped}");
    plane.tick(&[]).unwrap();
    drop(plane.snapshot().unwrap());
    plane.drain_worker_msgs();
    assert_eq!(plane.sups[0].frames_seq, 1);
    assert!(
        registry
            .render()
            .contains("cdba_ctrl_journal_bytes{shard=\"0\"} 0\n"),
        "the checkpoint trims every tick"
    );
    plane.shutdown();
}

/// A restart mid-interval replays ticks that hold both encoded widths
/// — `f32`-exact bits and bits only an `f64` holds (`0.1`, `1/3`) —
/// and lands bitwise where the inline backend, which never encodes,
/// does.
#[test]
fn replayed_ticks_of_both_widths_match_inline_bitwise() {
    let run = |exec: ExecMode, shards: usize, restart: bool| {
        let cfg = ServiceConfig::builder(1024.0)
            .session_b_max(16.0)
            .group_b_o(8.0)
            .offline_delay(4)
            .window(4)
            .shards(shards)
            .exec(exec)
            .checkpoint_every(16)
            .build()
            .unwrap();
        let mut plane = ControlPlane::new(cfg);
        let mut keys: Vec<u64> = (0..12).map(|_| plane.admit("acme").unwrap()).collect();
        keys.extend(plane.admit_group("globex", 3).unwrap());
        for t in 0..60u64 {
            if restart && t == 40 {
                for shard in 0..shards {
                    plane.restart_shard(shard).unwrap();
                }
            }
            let batch: Vec<(u64, f64)> = keys
                .iter()
                .rev()
                .map(|&k| match (k + t) % 4 {
                    0 => (k, 0.1),
                    1 => (k, 1.0 / 3.0),
                    r => (k, r as f64 * 1.5),
                })
                .collect();
            plane.tick(&batch).unwrap();
        }
        let replayed = plane.events_replayed();
        let view = plane.snapshot().unwrap().invariant_view();
        plane.shutdown();
        (view, replayed)
    };
    let (inline, _) = run(ExecMode::Inline, 1, false);
    let (threaded, replayed) = run(ExecMode::Threaded, 2, true);
    assert!(
        replayed >= 2 * 8,
        "each shard replays the 8 ticks past its frame"
    );
    assert_eq!(threaded, inline);
}

/// A checkpoint's `events_applied` is always a segment edge: a tick
/// seals its segment, and a recovery seals the tail it replayed
/// without sending it, so the worker that follows counts from an edge
/// too. The trim's `debug_assert` is live in this build; the equalities
/// below say the same where it is not.
#[test]
fn checkpoints_land_on_segment_edges() {
    const EVERY: u64 = 4;
    let cfg = ServiceConfig::builder(4096.0 * 16.0)
        .session_b_max(16.0)
        .offline_delay(4)
        .window(4)
        .exec(ExecMode::Threaded)
        .checkpoint_every(EVERY)
        .build()
        .unwrap();
    let mut plane = ControlPlane::new(cfg);
    for t in 0..6 * EVERY {
        if t % 3 == 0 {
            // More than one look at the worker's worth: one segment or
            // two ahead of the tick, as the worker keeps up, and the
            // tick seals whatever is open.
            for _ in 0..CONTROL_BATCH + 6 {
                plane.admit("acme").unwrap();
            }
        }
        if t == 2 * EVERY + 1 {
            plane.admit("globex").unwrap();
            assert!(plane.sups[0].journal.open() > 0, "an open tail");
            plane.restart_shard(0).unwrap();
            let sup = &plane.sups[0];
            assert_eq!(sup.journal.open(), 0, "sealed by the recovery");
            assert_eq!(sup.seen_applied, sup.journal.sealed(), "replayed, not sent");
        }
        plane.tick(&[]).unwrap();
        // The reply is behind every checkpoint so far in the worker's
        // queue; the drain after it takes them in.
        drop(plane.snapshot().unwrap());
        plane.drain_worker_msgs();
        let sup = &plane.sups[0];
        let journal = &sup.journal;
        assert_eq!(
            journal.base() + journal.held(),
            journal.sealed(),
            "tick {t}"
        );
        if let Some(cp) = &sup.frame {
            assert_eq!(cp.events_applied, journal.base(), "tick {t}");
        }
    }
    assert_eq!(plane.sups[0].frames_seq, 6, "one checkpoint per interval");
    assert_eq!(plane.restarts(), 1);
    plane.shutdown();
}

/// A snapshot's fan-out flushes shard after shard, and every flush
/// first takes in whatever any worker has reported — so a shard already
/// asked for its report can be found dead, and with no restart budget
/// go down, before the fan-in starts. The fan-in stops awaiting it: it
/// neither looks for the worker the shard no longer has nor waits out
/// the timeout for a reply that cannot come. The worker lost with no
/// restart budget, and the restart that replaces it.
#[test]
fn fan_in_stops_awaiting_a_shard_lost_during_the_fan_out() {
    let cfg = |restarts: u32| {
        ServiceConfig::builder(1024.0)
            .session_b_max(16.0)
            .offline_delay(4)
            .window(4)
            .shards(2)
            .exec(ExecMode::Threaded)
            .checkpoint_every(8)
            .max_restarts(restarts)
            .build()
            .unwrap()
    };
    for (restarts, survives) in [(0, false), (3, true)] {
        let mut plane = ControlPlane::new(cfg(restarts));
        let keys: Vec<u64> = (0..4).map(|_| plane.admit("acme").unwrap()).collect();
        let arrivals: Vec<(u64, f64)> = keys.iter().map(|&k| (k, 1.0)).collect();
        plane.tick(&arrivals).unwrap();
        // Shard 0's share of a fan-out …
        plane.flush(0, true).unwrap();
        let (reply, rx) = unbounded();
        let mut pending = vec![(0, plane.sups[0].epoch)];
        // … and what shard 1's flush then finds in the message channel.
        plane.apply_worker_msg(WorkerMsg::Failure(crate::shard::ShardFailure {
            shard: 0,
            epoch: plane.sups[0].epoch,
            reason: "injected".into(),
        }));
        assert_eq!(plane.sups[0].healthy, survives);
        let started = Instant::now();
        plane.await_reports(&rx, &mut pending, |shard, _| {
            panic!("shard {shard} was asked nothing")
        });
        assert!(pending.is_empty(), "shard 0 is not a straggler");
        assert!(started.elapsed() < Duration::from_millis(plane.cfg.shard_timeout_ms));
        drop(reply);
        // The snapshot degrades, or sees the restarted shard, in full.
        let snapshot = plane.snapshot().expect("never an error");
        assert_eq!(snapshot.health[0].healthy, survives);
        assert!(snapshot.health[1].healthy);
        assert_eq!(snapshot.sessions.len(), if survives { 4 } else { 2 });
        plane.shutdown();
    }
}

#[test]
fn placement_prefers_least_loaded_shard() {
    let mut service = ControlPlane::new(config(4, ExecMode::Inline));
    let keys: Vec<u64> = (0..4).map(|_| service.admit("acme").unwrap()).collect();
    // One session per shard so far (ties broken by index).
    service.leave(keys[2]).unwrap();
    // Shard 2 is now emptiest; the next session must land there.
    let replacement = service.admit("acme").unwrap();
    // And at one-per-shard again, ties go to the lowest index.
    let next = service.admit("acme").unwrap();
    let snap = service.snapshot().unwrap();
    let shard_of = |key: u64| {
        snap.sessions
            .iter()
            .find(|m| m.session == key)
            .map(|m| m.shard)
            .unwrap()
    };
    assert_eq!(shard_of(replacement), 2);
    assert_eq!(shard_of(next), 0);
}

/// A steady shard writes each checkpoint frame into the buffer of the
/// frame two before it, which the driver kept as its spare once the
/// frame after it superseded it: two buffers, reused for the shard's
/// whole life. (Freed and taken fresh each capture, frames below
/// glibc's 32 MB mmap ceiling stay resident once freed, and
/// `recover-100k`'s peak RSS reads ≈ 18 MB higher.)
#[test]
fn checkpoints_cycle_two_frame_buffers() {
    let cfg = config(1, ExecMode::Threaded);
    let mut plane = ControlPlane::new(ServiceConfig {
        checkpoint_every: 4,
        ..cfg
    });
    let keys: Vec<u64> = (0..64).map(|_| plane.admit("acme").unwrap()).collect();
    let arrivals: Vec<(u64, f64)> = keys.iter().map(|&k| (k, 4.0)).collect();
    let mut frame = || {
        for _ in 0..4 {
            plane.tick(&arrivals).unwrap();
        }
        // The snapshot's reply queues behind this tick's frame, and
        // the drain after it takes the frame in.
        drop(plane.snapshot().unwrap());
        plane.drain_worker_msgs();
        let retained = plane.sups[0].frame.as_ref().expect("a retained frame");
        retained.bytes.as_ptr() as usize
    };
    // The first frames grow with the windows filling; past them every
    // frame fits the spare.
    for _ in 0..8 {
        frame();
    }
    let at: Vec<usize> = (0..16).map(|_| frame()).collect();
    assert_ne!(at[0], at[1]);
    for k in 2..16 {
        assert_eq!(
            at[k],
            at[k - 2],
            "frame {k} is written into frame {}'s buffer",
            k - 2
        );
    }
    plane.shutdown();
}
