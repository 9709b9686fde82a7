//! The supervised worker loop of a threaded shard.

use super::*;

/// Messages a supervised worker sends back to the driver out of band.
#[derive(Debug, Clone)]
pub(crate) enum WorkerMsg {
    /// A periodic state snapshot.
    Checkpoint(ShardCheckpoint),
    /// One tick event was applied. The driver counts acks against its
    /// dispatched ticks to bound how far the pipeline may run ahead.
    TickAck {
        /// The acking shard.
        shard: u64,
        /// Epoch of the worker that applied the tick; stale acks from a
        /// superseded worker are discarded.
        epoch: u64,
    },
    /// The worker caught a panic and exited.
    Failure(ShardFailure),
}

/// Everything a supervised worker needs beyond its state and event queue.
pub(crate) struct WorkerCtx {
    /// This worker's epoch, stamped into every outgoing message.
    pub epoch: u64,
    /// Set by the supervisor when this worker is superseded; the worker
    /// exits at the next opportunity without touching further events.
    pub cancel: Arc<AtomicBool>,
    /// Out-of-band channel for checkpoints and failure reports.
    pub msgs: crossbeam::channel::Sender<WorkerMsg>,
    /// Checkpoint cadence in ticks (0 = never).
    pub checkpoint_every: u64,
    /// The driver's spare frame buffer, which the next checkpoint is
    /// written into when there is one.
    pub spare: Arc<parking_lot::Mutex<Option<Vec<u8>>>>,
    /// Replayable events already applied to the state at spawn (the
    /// journal replay baseline).
    pub events_base: u64,
    /// The watermark: `events_base` plus the events this worker has
    /// applied, stored after each one. The supervisor reads it to tell a
    /// slow worker (it moves) from a hung one (it does not) and to report
    /// the shard's lag. It publishes no other data — everything else
    /// reaches the driver over a channel — so `Relaxed` on both sides.
    pub applied: Arc<AtomicU64>,
    /// Armed fault, if this worker is the sabotage target. Only initial
    /// (epoch-0) workers ever get one, so a fault fires at most once.
    pub fault: Option<FaultPlan>,
}

pub(crate) fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// The supervised worker loop of one threaded shard: serve messages until
/// shutdown, disconnection, or cancellation; catch panics and report them
/// as [`ShardFailure`]. Every exit hands the state back through the join
/// handle, so the supervisor can restore the replacement into the
/// allocations this worker retires.
pub(crate) fn run_worker(
    state: ShardState,
    rx: crossbeam::channel::Receiver<Event>,
    ctx: WorkerCtx,
) -> ShardState {
    let mut worker = WorkerLoop {
        events_applied: ctx.events_base,
        fault: ctx.fault,
        cp_sink: columnar::ColumnSink::default(),
        state,
        ctx,
    };
    worker.state.epoch = worker.ctx.epoch;
    while let Ok(event) = rx.recv() {
        match catch_unwind(AssertUnwindSafe(|| worker.serve(event))) {
            Ok(true) => {}
            Ok(false) => break,
            Err(payload) => {
                // The state may be torn mid-event: its contents are worth
                // nothing, and the supervisor rebuilds from the last
                // checkpoint + journal — into this state's allocations,
                // emptied first ([`ShardState::recycle`]).
                let _ = worker.ctx.msgs.send(WorkerMsg::Failure(ShardFailure {
                    shard: worker.state.shard,
                    epoch: worker.ctx.epoch,
                    reason: panic_reason(payload),
                }));
                break;
            }
        }
    }
    worker.state
}

/// One worker incarnation: the state it runs on and what it counts.
struct WorkerLoop {
    state: ShardState,
    ctx: WorkerCtx,
    /// Replayable events applied, the count the checkpoint trim keys on.
    /// Read-only messages never enter the journal and never advance it.
    events_applied: u64,
    fault: Option<FaultPlan>,
    /// The writer's row scratch, reused across captures; the frame itself
    /// is allocated per capture and shipped, never held here.
    cp_sink: columnar::ColumnSink,
}

impl WorkerLoop {
    /// Whether the supervisor has superseded this worker.
    fn cancelled(&self) -> bool {
        self.ctx.cancel.load(Ordering::Acquire)
    }

    /// Serves one message; `false` ends the loop. A batch applies in
    /// order, every tick in it acked and — every `checkpoint_every` ticks
    /// — followed by a shipped [`ShardCheckpoint`]; the injected fault, if
    /// any, fires in front of its tick.
    fn serve(&mut self, event: Event) -> bool {
        if self.cancelled() {
            return false;
        }
        let batch = match event {
            Event::Batch(batch) => batch,
            Event::Collect { reply, what } => {
                // The service may already have dropped the receiver (e.g. a
                // torn-down snapshot); losing the report is then harmless.
                match what {
                    Collect::Metrics { per_report } => {
                        self.state
                            .report(per_report, |report| reply.send(report).is_ok());
                    }
                    Collect::Image => {
                        let _ = reply.send(self.state.image_report(&mut self.cp_sink));
                    }
                }
                return true;
            }
            Event::ExportSession { key, reply } => {
                let _ = reply.send(self.state.lease(key, &mut self.cp_sink));
                return true;
            }
            Event::Shutdown => return false,
        };
        for event in batch.iter() {
            // A retired worker stops at the event it is applying, not at
            // the end of the batch it found it in.
            if self.cancelled() {
                return false;
            }
            let is_tick = matches!(event, ReplayEvent::Tick { .. });
            // Fault injection: fires when the worker is about to process
            // the planned tick, then disarms.
            if is_tick && self.fault.is_some_and(|p| self.state.ticks() >= p.at_tick) {
                match self.fault.take().expect("checked above").kind {
                    FaultKind::Kill => panic!("injected fault: kill"),
                    FaultKind::Hang { millis } => {
                        std::thread::sleep(std::time::Duration::from_millis(millis));
                        // A hung worker may have been replaced while asleep;
                        // if so, leave the event unapplied — the supervisor
                        // already replayed it into the replacement.
                        if self.cancelled() {
                            return false;
                        }
                    }
                }
            }
            self.state.apply(event);
            self.events_applied += 1;
            self.ctx
                .applied
                .store(self.events_applied, Ordering::Relaxed);
            if !is_tick {
                continue;
            }
            let _ = self.ctx.msgs.send(WorkerMsg::TickAck {
                shard: self.state.shard,
                epoch: self.ctx.epoch,
            });
            if self.state.ticks().is_multiple_of(self.ctx.checkpoint_every) {
                let mut bytes = self.ctx.spare.lock().take().unwrap_or_default();
                let sessions = self.state.encode_columnar(&mut self.cp_sink, &mut bytes);
                let _ = self.ctx.msgs.send(WorkerMsg::Checkpoint(ShardCheckpoint {
                    shard: self.state.shard,
                    epoch: self.ctx.epoch,
                    events_applied: self.events_applied,
                    sessions,
                    bytes,
                }));
            }
        }
        true
    }
}
