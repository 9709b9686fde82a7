//! Shard supervision and crash recovery.
//!
//! The driver doubles as the shard supervisor. Each threaded worker runs
//! under `catch_unwind` and reports panics as typed
//! `ShardFailure`s instead of poisoning the
//! service; the driver also treats a worker as failed when it is silent
//! for [`ServiceConfig::shard_timeout_ms`] — events or a reply pending and
//! its watermark of applied events not moving; a backlog that shrinks is
//! slowness, however long. A failed shard is restarted from its last
//! periodic `ShardCheckpoint` (a full
//! frame taken every [`ServiceConfig::checkpoint_every`] ticks; the
//! driver retains only the latest) by replaying the driver's journal of
//! events sent since that checkpoint — the journal is trimmed on every
//! checkpoint receipt, which is what keeps it bounded.
//! Each incarnation of a worker gets a fresh *epoch*; messages stamped
//! with a superseded epoch are discarded, so a hung worker that wakes up
//! after being replaced cannot corrupt anything. Once a shard exhausts
//! [`ServiceConfig::max_restarts`], it is marked permanently down and every
//! operation touching it returns [`CtrlError::ShardDown`] — the driver
//! never panics on a dead shard. Restart and replay totals, plus
//! per-shard health, are surfaced in the [`ServiceSnapshot`].

use super::{Backend, ControlPlane};
use crate::config::ServiceConfig;
use crate::fault::FaultPlan;
use crate::journal::Journal;
use crate::shard::{
    panic_reason, run_worker, Event, ReplayEvent, ShardCheckpoint, ShardState, WorkerCtx,
    WorkerMsg, CONTROL_BATCH, JOURNAL_BLOCK,
};
use crate::CtrlError;
use cdba_obs::{TraceEvent, TraceKind};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a retiring supervisor looks at an exiting worker's handle.
const RECLAIM_POLL: Duration = Duration::from_micros(100);

/// One live worker incarnation of a threaded shard. Joining the handle
/// yields the state the worker ran on.
pub(super) struct Worker {
    /// Unbounded: what is queued here is already held by the journal, so
    /// a bound would save nothing and only stall the driver.
    pub(super) tx: Sender<Event>,
    pub(super) handle: JoinHandle<ShardState>,
    pub(super) cancel: Arc<AtomicBool>,
}

/// What a metrics scrape reads a shard's lag and journal size from,
/// without the driver.
pub(super) struct LagProbe {
    /// Replayable events dispatched to the shard so far.
    pub(super) dispatched: AtomicU64,
    /// [`Journal::bytes`] of the shard's journal: the encoded arrivals a
    /// restart replays on top of the retained frame.
    pub(super) journal_bytes: AtomicU64,
    /// The current worker's watermark ([`WorkerCtx::applied`]), swapped at
    /// every spawn rather than shared with a successor: a retired worker
    /// may still finish — and publish — the event it was applying. The one
    /// handle the driver keeps; [`ControlPlane::patience`] reads it too.
    pub(super) applied: Mutex<Arc<AtomicU64>>,
}

impl LagProbe {
    /// Events dispatched and not yet applied.
    pub(super) fn lag(&self) -> u64 {
        let applied = self.applied.lock().load(Ordering::Relaxed);
        self.dispatched
            .load(Ordering::Relaxed)
            .saturating_sub(applied)
    }
}

/// What the supervisor knows about a worker it retires, which decides
/// whether the retiree's state is waited for.
#[derive(Clone, Copy, PartialEq)]
pub(super) enum Retiring {
    /// It reported a failure, its queue disconnected, or the operator
    /// asked: it leaves its loop at the cancel flag or the closed queue,
    /// at the latest after the event it is applying.
    Exiting,
    /// It missed a deadline and may be hung: waiting could block the
    /// driver for as long as the hang lasts.
    Silent,
}

/// The driver's supervision record for one shard.
pub(super) struct ShardSup {
    /// Incarnation counter; bumped on every restart. Worker messages from
    /// older epochs are discarded.
    pub(super) epoch: u64,
    /// Cleared when the restart budget is exhausted (or recovery is
    /// impossible); a down shard never comes back.
    pub(super) healthy: bool,
    /// Restarts performed so far.
    pub(super) restarts: u64,
    /// Most recent failure reason, if any.
    pub(super) last_failure: Option<String>,
    /// Replayable events since the retained frame, in dispatch order — the
    /// only place one is stored. A segment is sealed at a tick at the
    /// latest, and the worker is sent that same allocation, so a checkpoint
    /// (taken after a tick) always falls on a segment edge. The open tail
    /// is [`CONTROL_BATCH`] at most in front of an idle worker,
    /// [`JOURNAL_BLOCK`] in front of a busy one; a recovery seals it
    /// without sending, having replayed it. Every sealed event reached the
    /// current worker in a segment, or the state it started from in a
    /// replay.
    pub(super) journal: Journal<ReplayEvent>,
    /// The worker's watermark when the driver last read it, and when it
    /// was last seen to have moved — the silence clock every wait on the
    /// worker runs on.
    pub(super) seen_applied: u64,
    pub(super) moved_at: Instant,
    /// The scrape-side view of this shard's lag and journal size.
    pub(super) probe: Arc<LagProbe>,
    /// The latest accepted checkpoint: one full-population frame that
    /// supersedes every earlier one. Recovery applies it, then replays
    /// the journal. `None` until the first checkpoint is accepted.
    pub(super) frame: Option<ShardCheckpoint>,
    /// Checkpoint frames ever accepted.
    pub(super) frames_seq: u64,
    /// The buffer of the frame the retained one superseded, once nothing
    /// else holds it, for the worker to write its next frame into. A
    /// steady shard so cycles two frame-sized buffers for its whole life,
    /// however often its worker restarts: freed and taken fresh each
    /// capture, buffers below the allocator's largest mmap threshold stay
    /// resident once freed and pile up, one set per worker arena.
    pub(super) spare: Arc<Mutex<Option<Vec<u8>>>>,
    /// Live sessions placed on this shard, for least-loaded placement.
    pub(super) live: usize,
    /// Ticks dispatched to the current worker incarnation but not yet
    /// acknowledged. Bounds how far the tick pipeline runs ahead.
    pub(super) inflight: u64,
}

impl ShardSup {
    pub(super) fn new() -> Self {
        ShardSup {
            epoch: 0,
            healthy: true,
            restarts: 0,
            last_failure: None,
            journal: Journal::default(),
            seen_applied: 0,
            moved_at: Instant::now(),
            probe: Arc::new(LagProbe {
                dispatched: AtomicU64::new(0),
                journal_bytes: AtomicU64::new(0),
                applied: Mutex::default(),
            }),
            frame: None,
            frames_seq: 0,
            spare: Arc::default(),
            live: 0,
            inflight: 0,
        }
    }

    /// Makes `cp` the retained frame; the one it supersedes becomes the
    /// spare. The spare holds at least
    /// the retained frame's length, the likeliest length of the next, so
    /// the two buffers follow the frame's size as it grows; it gives back
    /// what it holds beyond an eighth more, so they follow it down too,
    /// without moving on the small swings between frames.
    pub(super) fn retain(&mut self, cp: ShardCheckpoint) {
        let len = cp.bytes.len();
        if let Some(old) = self.frame.replace(cp) {
            let mut bytes = old.bytes;
            bytes.clear();
            if bytes.capacity() > len + len / 8 {
                bytes.shrink_to(len);
            }
            bytes.reserve_exact(len);
            *self.spare.lock() = Some(bytes);
        }
        self.frames_seq += 1;
    }

    /// Publishes the journal's bytes; a checkpoint trims them.
    pub(super) fn settle_journal(&mut self) {
        let bytes = self.journal.bytes();
        self.probe.journal_bytes.store(bytes, Ordering::Relaxed);
    }
}

/// Spawns the worker of `sup`'s current epoch on `state`, which holds
/// everything sealed so far, and starts its supervision record: the
/// silence clock and the scrape-side watermark.
pub(super) fn spawn_worker(
    shard: usize,
    sup: &mut ShardSup,
    state: ShardState,
    cfg: &ServiceConfig,
    fault: Option<FaultPlan>,
    msgs: &Sender<WorkerMsg>,
) -> Result<Worker, CtrlError> {
    let (tx, rx) = unbounded();
    let cancel = Arc::new(AtomicBool::new(false));
    let applied = Arc::new(AtomicU64::new(sup.journal.sealed()));
    let epoch = sup.epoch;
    let ctx = WorkerCtx {
        epoch,
        cancel: cancel.clone(),
        msgs: msgs.clone(),
        checkpoint_every: cfg.checkpoint_every,
        spare: Arc::clone(&sup.spare),
        events_base: sup.journal.sealed(),
        applied: applied.clone(),
        fault,
    };
    let handle = std::thread::Builder::new()
        .name(format!("cdba-shard-{shard}-e{epoch}"))
        .spawn(move || run_worker(state, rx, ctx))
        .map_err(|e| CtrlError::Spawn {
            shard,
            reason: e.to_string(),
        })?;
    sup.seen_applied = sup.journal.sealed();
    sup.moved_at = Instant::now();
    *sup.probe.applied.lock() = applied;
    Ok(Worker { tx, handle, cancel })
}

impl ControlPlane {
    /// Applies all pending out-of-band worker messages: accepts
    /// current-epoch checkpoints (trimming the journal they cover), counts
    /// tick acks against the pipeline, and recovers shards that reported a
    /// failure. Recovery errors are not propagated here — the failed shard
    /// is marked down and the caller's own health check surfaces it.
    pub(super) fn drain_worker_msgs(&mut self) {
        if !self.graveyard.is_empty() {
            self.reap_parked();
        }
        loop {
            let msg = match &self.msgs {
                Some((_, rx)) => match rx.try_recv() {
                    Ok(msg) => msg,
                    Err(_) => return,
                },
                None => return,
            };
            self.apply_worker_msg(msg);
        }
    }

    /// Applies one out-of-band worker message. Messages stamped with a
    /// superseded epoch are discarded.
    pub(super) fn apply_worker_msg(&mut self, msg: WorkerMsg) {
        match msg {
            WorkerMsg::Checkpoint(cp) => self.accept_checkpoint(cp),
            WorkerMsg::TickAck { shard, epoch } => {
                let sup = &mut self.sups[shard as usize];
                if sup.epoch == epoch {
                    sup.inflight = sup.inflight.saturating_sub(1);
                }
            }
            WorkerMsg::Failure(failure) => {
                let shard = failure.shard as usize;
                if self.sups[shard].epoch == failure.epoch {
                    let _ = self.recover(shard, Retiring::Exiting, failure.reason);
                }
            }
        }
    }

    /// Blocks until `shard` has pipeline capacity for one more tick: fewer
    /// than [`ServiceConfig::pipeline_depth`] dispatched-but-unacked ticks.
    /// Worker messages that arrive while waiting (acks, checkpoints,
    /// failures) are applied as they land, so a failure surfaces here as a
    /// recovery rather than a stall. A shard that is silent for the shard
    /// timeout ([`ControlPlane::patience`]) is restarted.
    pub(super) fn await_pipeline_slot(&mut self, shard: usize) -> Result<(), CtrlError> {
        let depth = u64::from(self.cfg.pipeline_depth);
        while self.sups[shard].healthy && self.sups[shard].inflight >= depth {
            let remaining = self.patience(shard, Instant::now());
            if remaining.is_zero() {
                return self.recover(
                    shard,
                    Retiring::Silent,
                    "tick pipeline stalled past the shard timeout".into(),
                );
            }
            let msg = match &self.msgs {
                Some((_, rx)) => match rx.recv_timeout(remaining) {
                    Ok(msg) => msg,
                    Err(_) => continue,
                },
                None => return Ok(()),
            };
            self.apply_worker_msg(msg);
        }
        Ok(())
    }

    pub(super) fn accept_checkpoint(&mut self, cp: ShardCheckpoint) {
        let shard = cp.shard as usize;
        let payload_bytes = cp.bytes.len() as u64;
        let sup = &mut self.sups[shard];
        if sup.epoch != cp.epoch {
            return; // stale: a superseded worker's parting checkpoint
        }
        sup.journal.trim_to(cp.events_applied);
        sup.settle_journal();
        debug_assert_eq!(
            sup.journal.base(),
            cp.events_applied,
            "a checkpoint follows a tick, and a tick ends its segment"
        );
        let sessions = cp.sessions;
        sup.retain(cp);
        if let Some(m) = &self.obs {
            if let Some(counter) = m.shard_checkpoints.get(shard) {
                counter.inc();
            }
            if let Some(counter) = m.shard_checkpoint_bytes.get(shard) {
                counter.add(payload_bytes);
            }
            if let Some(gauge) = m.shard_checkpoint_retained.get(shard) {
                gauge.set(payload_bytes as f64);
            }
            m.checkpoint_sessions.add(sessions);
        }
        if self.trace.is_some() {
            self.trace_push(
                TraceEvent::at(self.clock, TraceKind::Checkpoint)
                    .shard(shard as u32)
                    .detail(format!("{payload_bytes} bytes")),
            );
        }
    }

    /// Joins the parked workers that have exited by now, which also frees
    /// the state each handed back.
    pub(super) fn reap_parked(&mut self) {
        let (exited, parked) = std::mem::take(&mut self.graveyard)
            .into_iter()
            .partition(JoinHandle::is_finished);
        self.graveyard = parked;
        for handle in exited {
            let _ = handle.join();
        }
        if let Some(m) = &self.obs {
            m.parked_workers.set(self.graveyard.len() as f64);
        }
    }

    /// Cancels and retires `shard`'s current worker, if any, and hands back
    /// the state it ran on when the worker has exited. An
    /// [`Retiring::Exiting`] worker is waited for, bounded by the shard
    /// timeout; a [`Retiring::Silent`] one is not — a hung worker only
    /// observes the cancel flag once its stall ends. Whatever has not
    /// exited is parked in the graveyard.
    pub(super) fn retire_worker(&mut self, shard: usize, how: Retiring) -> Option<ShardState> {
        let mut retiree = None;
        if let Backend::Threaded { workers } = &mut self.backend {
            if let Some(old) = workers[shard].take() {
                old.cancel.store(true, Ordering::Release);
                drop(old.tx);
                if how == Retiring::Exiting {
                    let deadline =
                        Instant::now() + Duration::from_millis(self.cfg.shard_timeout_ms);
                    while !old.handle.is_finished() && Instant::now() < deadline {
                        std::thread::sleep(RECLAIM_POLL);
                    }
                }
                if old.handle.is_finished() {
                    // A worker that died outside its panic guard has no
                    // state to give; the restore then starts fresh.
                    retiree = old.handle.join().ok();
                } else {
                    self.graveyard.push(old.handle);
                }
            }
        }
        self.reap_parked();
        retiree
    }

    /// Restarts `shard` after a failure: retire the worker, reclaim its
    /// state when it has exited, and restore *into* that state — emptied
    /// first ([`ShardState::recycle`]; a fresh one when there is nothing to
    /// reclaim), then the retained checkpoint frame, then the journal
    /// suffix — so a restart allocates nothing that scales with the
    /// population. A fresh-epoch worker takes the result. Restarted
    /// workers never re-arm the injected fault.
    ///
    /// # Errors
    ///
    /// [`CtrlError::ShardDown`] when the restart budget is exhausted or
    /// the replay itself panics (a deterministic poison event); the shard
    /// is marked permanently down in both cases.
    pub(super) fn recover(
        &mut self,
        shard: usize,
        how: Retiring,
        reason: String,
    ) -> Result<(), CtrlError> {
        self.mutated();
        // Everything the driver is blocked for: reclaim, apply, replay.
        let restore_started = Instant::now();
        let retiree = self.retire_worker(shard, how);
        let max_restarts = u64::from(self.cfg.max_restarts);
        let sup = &mut self.sups[shard];
        sup.last_failure = Some(reason.clone());
        // The replay below applies every journaled event on this thread,
        // the open tail included — sealed here, and never sent; nothing
        // dispatched to the old worker is outstanding any more.
        sup.inflight = 0;
        sup.journal.seal();
        sup.settle_journal();
        if sup.restarts >= max_restarts {
            sup.healthy = false;
            return Err(CtrlError::ShardDown {
                shard,
                reason: format!("{reason} (restart budget {max_restarts} exhausted)"),
            });
        }
        sup.restarts += 1;
        sup.epoch += 1;
        let replayed = sup.journal.held();
        let frame = sup.frame.as_ref().map(|cp| cp.bytes.as_slice());
        let journal = sup.journal.replay();
        let cfg = &self.cfg;
        // The replay runs on the driver thread; guard it so a poison event
        // that deterministically panics the shard cannot take the driver
        // down with it. The guard also covers emptying the retiree and
        // decoding the retained frame: a malformed payload downs the
        // shard, not the driver.
        let rebuilt = catch_unwind(AssertUnwindSafe(|| {
            retiree
                .map(ShardState::recycle)
                .unwrap_or_else(|| ShardState::new(shard as u64, cfg))
                .rebuild(frame, journal)
        }));
        let restore_seconds = restore_started.elapsed().as_secs_f64();
        let state = match rebuilt {
            Ok(state) => state,
            Err(payload) => {
                let why = format!("recovery replay panicked: {}", panic_reason(payload));
                let sup = &mut self.sups[shard];
                sup.healthy = false;
                sup.last_failure = Some(why.clone());
                return Err(CtrlError::ShardDown { shard, reason: why });
            }
        };
        self.events_replayed += replayed;
        let msg_tx = self
            .msgs
            .as_ref()
            .expect("threaded mode has a message channel")
            .0
            .clone();
        let sup = &mut self.sups[shard];
        let worker = match spawn_worker(shard, sup, state, &self.cfg, None, &msg_tx) {
            Ok(worker) => worker,
            Err(err) => {
                let sup = &mut self.sups[shard];
                sup.healthy = false;
                sup.last_failure = Some(err.to_string());
                return Err(err);
            }
        };
        let Backend::Threaded { workers } = &mut self.backend else {
            unreachable!("recover is only reachable in threaded mode")
        };
        workers[shard] = Some(worker);
        if let Some(m) = &self.obs {
            if let Some(counter) = m.shard_restarts.get(shard) {
                counter.inc();
            }
            m.events_replayed.add(replayed);
            m.restore_seconds.observe(restore_seconds);
        }
        if self.trace.is_some() {
            self.trace_push(
                TraceEvent::at(self.clock, TraceKind::ShardRestart)
                    .shard(shard as u32)
                    .detail(reason),
            );
        }
        Ok(())
    }

    /// Forces `shard` through the full recovery path — retire its worker,
    /// rebuild from the retained checkpoint frame plus a journal replay,
    /// spawn a fresh epoch — exactly as if the worker had failed. An
    /// operator uses this to rotate a worker in place (or a harness to
    /// exercise restore determinism); it counts against the restart
    /// budget like any recovery. Inline mode has no worker to rotate, so
    /// the call is a no-op there.
    ///
    /// # Errors
    ///
    /// [`CtrlError::ShardDown`] under the same conditions as a
    /// failure-driven recovery (budget exhausted or a poisoned replay).
    pub fn restart_shard(&mut self, shard: usize) -> Result<(), CtrlError> {
        if shard >= self.cfg.shards {
            return Err(CtrlError::InvalidService(format!(
                "shard {shard} out of range (shards = {})",
                self.cfg.shards
            )));
        }
        if matches!(self.backend, Backend::Inline(_)) {
            return Ok(());
        }
        self.drain_worker_msgs();
        if !self.sups[shard].healthy {
            return Err(self.down_error(shard));
        }
        self.recover(
            shard,
            Retiring::Exiting,
            "operator-requested restart".into(),
        )
    }

    /// Hands one replayable event to `shard`: applied on the spot inline;
    /// appended to the open tail of the shard's journal when threaded. A
    /// tick seals and sends the tail (a tick is always the last event of
    /// its segment); every [`CONTROL_BATCH`]-th control event looks at the
    /// worker ([`ControlPlane::flush`]). A worker failure between journal
    /// and delivery is recovered by replay, so a successful recovery counts
    /// as delivery.
    ///
    /// # Errors
    ///
    /// [`CtrlError::ShardDown`] if the shard is (or just became)
    /// permanently down.
    pub(super) fn dispatch(&mut self, shard: usize, ev: ReplayEvent) -> Result<(), CtrlError> {
        if let Backend::Inline(states) = &mut self.backend {
            states[shard].apply(&ev);
            return Ok(());
        }
        if !self.sups[shard].healthy {
            return Err(self.down_error(shard));
        }
        let sup = &mut self.sups[shard];
        let sync = matches!(ev, ReplayEvent::Tick { .. });
        sup.journal.push(ev);
        let open = sup.journal.open();
        sup.probe
            .dispatched
            .store(sup.journal.sealed() + open as u64, Ordering::Relaxed);
        if sync || open.is_multiple_of(CONTROL_BATCH) {
            self.flush(shard, sync)
        } else {
            Ok(())
        }
    }

    /// How much longer the driver waits on `shard`'s worker as of `now`:
    /// the shard timeout less the time the worker's watermark has stood
    /// still. A look that finds the watermark moved restarts the clock, so
    /// what is timed is silence — a worker behind by a million joins is
    /// slow, one that applies nothing for the whole timeout is hung.
    pub(super) fn patience(&mut self, shard: usize, now: Instant) -> Duration {
        let sup = &mut self.sups[shard];
        let applied = sup.probe.applied.lock().load(Ordering::Relaxed);
        if applied != sup.seen_applied {
            sup.seen_applied = applied;
            sup.moved_at = now;
        }
        Duration::from_millis(self.cfg.shard_timeout_ms)
            .saturating_sub(now.saturating_duration_since(sup.moved_at))
    }

    /// Seals `shard`'s open journal tail and sends the segment to its
    /// worker — the only way a replayable event reaches a worker, and it
    /// never blocks. A `sync` point (a tick, a collect, an export) sends
    /// whatever is open, so a reply always reflects everything dispatched
    /// before it. Between sync points the tail goes to a worker that has
    /// applied everything sent so far; one still busy is sent nothing
    /// until a [`JOURNAL_BLOCK`] has gathered — it has work, and a burst
    /// then costs a few large segments instead of a thousand small ones.
    /// This is also where a hung worker is found out while nothing waits
    /// on it: events sent, and none applied for the shard timeout,
    /// restarts the shard. No-op inline.
    ///
    /// # Errors
    ///
    /// As [`ControlPlane::dispatch`].
    pub(super) fn flush(&mut self, shard: usize, sync: bool) -> Result<(), CtrlError> {
        self.drain_worker_msgs();
        if !self.sups[shard].healthy {
            return Err(self.down_error(shard));
        }
        let now = Instant::now();
        let patience = self.patience(shard, now);
        let sup = &mut self.sups[shard];
        let idle = sup.seen_applied == sup.journal.sealed();
        if idle {
            // Caught up is idle, not silent: the clock starts with the
            // work about to be sent (or the reply about to be asked for).
            sup.moved_at = now;
        } else if patience.is_zero() {
            return self.recover(
                shard,
                Retiring::Silent,
                "worker applied nothing for the shard timeout with events pending".into(),
            );
        } else if !sync && sup.journal.open() < JOURNAL_BLOCK {
            return Ok(());
        }
        // Nothing open, too, when the drain above recovered the shard: the
        // replay applied what was waiting here.
        let Some(segment) = sup.journal.seal() else {
            return Ok(());
        };
        sup.settle_journal();
        let epoch = sup.epoch;
        let Backend::Threaded { workers } = &self.backend else {
            unreachable!("the inline backend queues nothing")
        };
        let worker = workers[shard].as_ref().expect("healthy shard has a worker");
        if worker.tx.send(Event::Batch(segment)).is_ok() {
            if let Some(counter) = self
                .obs
                .as_ref()
                .and_then(|m| m.shard_deliveries.get(shard))
            {
                counter.inc();
            }
            return Ok(());
        }
        // Disconnected. The worker's failure report, if it made one, is
        // already in the message channel (it is sent before the worker
        // drops its event receiver) — draining recovers the shard.
        self.drain_worker_msgs();
        if !self.sups[shard].healthy {
            Err(self.down_error(shard))
        } else if self.sups[shard].epoch != epoch {
            Ok(()) // the drain already restarted the shard
        } else {
            self.recover(
                shard,
                Retiring::Exiting,
                "worker terminated without a failure report".into(),
            )
        }
    }

    pub(super) fn stop_workers(&mut self) {
        if let Backend::Threaded { workers } = &mut self.backend {
            for slot in workers.iter_mut() {
                if let Some(worker) = slot.take() {
                    // The cancel flag stops a worker with a backlog ahead
                    // of the shutdown event.
                    worker.cancel.store(true, Ordering::Release);
                    let _ = worker.tx.send(Event::Shutdown);
                    drop(worker.tx);
                    self.graveyard.push(worker.handle);
                }
            }
        }
        for handle in self.graveyard.drain(..) {
            let _ = handle.join();
        }
    }
}
