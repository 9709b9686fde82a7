//! The three end-to-end drivers. Each follows the workload's script in a
//! closed loop — tick `t+1` is committed only after the ack of `t` — on
//! one driver thread, and records what a user of that boundary would see.

use crate::checks::Check;
use crate::inputs::{Inputs, Kind, GROUP};
use crate::procfs;
use crate::spans::Tracer;
use cdba_ctrl::{ControlPlane, ServiceSnapshot};
use cdba_fleet::{Fleet, FleetConfig, Placement};
use cdba_gateway::{Client, GatewayConfig, GatewayServer, WireSnapshot};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// How one pass is run.
pub struct RunCfg {
    pub seed: u64,
    /// When the process started: set-up time is measured from here.
    pub started: Instant,
    /// Measure for at least this long …
    pub seconds: f64,
    /// … and at least this many ticks.
    pub min_ticks: u64,
    /// Record spans during set-up and every second [`TRACE_BLOCK`] of
    /// the window.
    pub traced: bool,
    /// Stop once the first tick is acked.
    pub setup_only: bool,
    /// The `cdba-cli` binary fleet children are spawned from.
    pub cli: PathBuf,
}

/// Operations the pass attempted and how many failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; a failure is counted and then propagated.
    pub fn run<T, E: ToString>(&mut self, what: &str, r: Result<T, E>) -> Result<T, String> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            format!("{what}: {}", e.to_string())
        })
    }
}

/// What one pass observed.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    /// Mean time of one join/admit during set-up.
    pub admit_us: f64,
    /// Sessions live during every measured tick.
    pub live: u64,
    pub window_start_ns: u64,
    /// Completion time of each measured tick.
    pub tick_end_ns: Vec<u64>,
    /// Driver-observed latency of each measured tick.
    pub rtt_ns: Vec<u64>,
    pub poll_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    /// Time inside the restart/kill call alone, per forced failure.
    pub restart_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    /// `(measured tick, snapshot)` at the pin tick, if the run reached it
    /// through a poll.
    pub pin: Option<(u64, Arc<ServiceSnapshot>)>,
    /// `(measured tick, snapshot)` after the last tick.
    pub last: Option<(u64, Arc<ServiceSnapshot>)>,
    pub wire: Option<WireSnapshot>,
    pub ops: Ops,
    pub checks: Vec<Check>,
    /// Journal events replayed by shard restarts, as the service counts
    /// them (recover). For the fleet, which exposes no such counter, what
    /// its genesis replay has to re-send **by the script's own account**:
    /// derived, not measured.
    pub replayed: u64,
}

/// Ticks per block of a traced pass: blocks alternate between recording
/// spans and not, so that host drift over the pass (tens of seconds of
/// correlated noise are normal here) hits both sides alike. Not a divisor
/// of 64, so `recover-100k`'s restarts fall on both kinds of block.
pub const TRACE_BLOCK: usize = 24;

/// Whether spans are recorded during the `i`-th (0-based) measured tick
/// of a traced pass.
pub fn traced_tick(i: usize) -> bool {
    (i / TRACE_BLOCK) % 2 == 1
}

/// Tracks the measured window: when to stop, when to record.
struct Window<'a> {
    cfg: &'a RunCfg,
    pin: u64,
    begun: Instant,
}

impl<'a> Window<'a> {
    fn open(cfg: &'a RunCfg, pin: u64, tracer: &mut Tracer, out: &mut Outcome) -> Self {
        tracer.set_recording(false);
        out.window_start_ns = tracer.now_ns();
        Window {
            cfg,
            pin,
            begun: Instant::now(),
        }
    }

    /// Called after measured tick `m` and its poll: peak memory is read
    /// at the pin tick, after the same work in every run, because a timed
    /// run's later memory grows with however many ticks it fitted in (the
    /// fleet's journal, the sample vectors).
    fn after_tick(&self, m: u64, out: &mut Outcome) {
        if m == self.pin {
            out.peak_rss_mb = procfs::peak_rss_mb();
        }
    }

    /// Called before measured tick `m`: in a traced run, switches span
    /// recording on and off in alternating blocks.
    fn before_tick(&self, m: u64, tracer: &mut Tracer) {
        if self.cfg.traced {
            tracer.set_recording(traced_tick(m as usize - 1));
        }
    }

    fn done(&self, m: u64) -> bool {
        m >= self.cfg.min_ticks && self.begun.elapsed().as_secs_f64() >= self.cfg.seconds
    }
}

fn since_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ------------------------------------------------------------------ wire

/// `dense-100k`, `lean-256`, `churn-pooled-20k`: a gateway server (its
/// one core thread in this process) driven over loopback TCP.
pub fn run_wire(inputs: &Inputs, cfg: &RunCfg, tracer: &mut Tracer) -> Result<Outcome, String> {
    let shape = &inputs.shape;
    let mut out = Outcome::default();
    let server = GatewayServer::start(shape.service(cfg.seed, false), GatewayConfig::default())
        .map_err(|e| e.to_string())?;
    let result = wire_pass(inputs, cfg, tracer, &server, &mut out);
    let wire = server.wire_stats();
    let shut = server.shutdown().map_err(|e| e.to_string());
    result?;
    shut?;
    out.checks
        .push(Check::equal("decode_errors", wire.decode_errors, 0));
    out.checks
        .push(Check::equal("busy_rejections", wire.busy_rejections, 0));
    out.wire = Some(wire);
    Ok(out)
}

fn wire_pass(
    inputs: &Inputs,
    cfg: &RunCfg,
    tracer: &mut Tracer,
    server: &GatewayServer,
    out: &mut Outcome,
) -> Result<(), String> {
    let shape = &inputs.shape;
    let addr = server.local_addr();
    let two = shape.connections == 2;
    tracer.set_recording(cfg.traced);

    // Keys are dense in join order: the staging connection (if any) joins
    // the lower half first, the committing connection the rest.
    let mut stager = if two {
        Some(out.ops.run("connect", Client::connect(addr))?)
    } else {
        None
    };
    let mut commit = out.ops.run("connect", Client::connect(addr))?;
    let split = if two { shape.dedicated as u64 / 2 } else { 0 };

    let joins_started = Instant::now();
    for g in 0..shape.groups() {
        let span = tracer.begin("client.join_group", 0);
        let members = out.ops.run(
            "join_group",
            commit.join_group(shape.tenant(g), GROUP as u32),
        )?;
        tracer.end(span);
        let first = (g * GROUP) as u64;
        if members.first() != Some(&first) {
            return Err(format!(
                "group {g} got keys {members:?}, script expects {first}.."
            ));
        }
    }
    for (i, want) in shape.dedicated_keys(0).enumerate() {
        let client = match &mut stager {
            Some(s) if want < shape.pooled as u64 + split => s,
            _ => &mut commit,
        };
        let span = tracer.begin("client.join", 0);
        let key = out.ops.run("join", client.join(shape.tenant(i)))?;
        tracer.end(span);
        if key != want {
            return Err(format!("join {i} got key {key}, script expects {want}"));
        }
    }
    let joins = shape.groups() + shape.dedicated;
    out.admit_us = joins_started.elapsed().as_secs_f64() * 1e6 / joins as f64;
    out.live = shape.sessions() as u64;

    // Pre-built batches for the keys that never change; the churning
    // dedicated range is generated per tick.
    let fixed = shape.dedicated_keys(0);
    let staged: Vec<Vec<(u64, f64)>> = if two {
        inputs.prebuild(fixed.start..fixed.start + split)
    } else {
        vec![Vec::new(); shape.period]
    };
    let committed: Vec<Vec<(u64, f64)>> = if shape.churn {
        inputs.prebuild(0..shape.pooled as u64)
    } else {
        inputs.prebuild(fixed.start + split..fixed.end)
    };
    let mut scratch: Vec<(u64, f64)> = Vec::new();

    // One closed-loop tick: first byte staged → commit ack.
    let mut tick = |m: u64,
                    batch: u64,
                    tracer: &mut Tracer,
                    ops: &mut Ops,
                    stager: &mut Option<Client>,
                    commit: &mut Client|
     -> Result<u64, String> {
        let c = batch as usize % shape.period;
        let own: &[(u64, f64)] = if shape.churn {
            let span = tracer.begin("gen.batch", batch);
            scratch.clear();
            scratch.extend_from_slice(&committed[c]);
            inputs.extend_batch(shape.dedicated_keys(m), batch, &mut scratch);
            tracer.end(span);
            &scratch
        } else {
            &committed[c]
        };
        let total = (staged[c].len() + own.len()) as u32;
        let sent = Instant::now();
        if let Some(stager) = stager {
            let span = tracer.begin("client.stage", batch);
            let r = stager.stage_noack(&staged[c]);
            tracer.end(span);
            ops.run("stage_noack", r)?;
        }
        let span = tracer.begin("client.commit_wait", batch);
        let r = commit.tick_sync(own, total);
        tracer.end(span);
        let acked = ops.run("tick_sync", r)?;
        let rtt = sent.elapsed().as_nanos() as u64;
        if acked != batch + 1 {
            ops.failed += 1;
            return Err(format!(
                "tick ack says {acked}, script expects {}",
                batch + 1
            ));
        }
        Ok(rtt)
    };

    tick(0, 0, tracer, &mut out.ops, &mut stager, &mut commit)?;
    out.setup_s = cfg.started.elapsed().as_secs_f64();
    if cfg.setup_only {
        return close(stager, commit, out);
    }
    for batch in 1..shape.warm {
        tick(0, batch, tracer, &mut out.ops, &mut stager, &mut commit)?;
    }

    let window = Window::open(cfg, shape.pin, tracer, out);
    let mut m = 0u64;
    let mut polled_at = 0u64;
    loop {
        m += 1;
        window.before_tick(m, tracer);
        let batch = shape.batch_of(m);
        let outer = tracer.begin("tick", batch);
        if shape.churn {
            let gone = shape.dedicated_keys(m - 1).start;
            let span = tracer.begin("client.leave", batch);
            let r = commit.leave(gone);
            tracer.end(span);
            out.ops.run("leave", r)?;
            let span = tracer.begin("client.join", batch);
            let r = commit.join(shape.tenant((m - 1) as usize));
            tracer.end(span);
            let key = out.ops.run("join", r)?;
            let want = shape.dedicated_keys(m).end - 1;
            if key != want {
                return Err(format!("churn join got key {key}, script expects {want}"));
            }
        }
        let rtt = tick(m, batch, tracer, &mut out.ops, &mut stager, &mut commit)?;
        out.rtt_ns.push(rtt);
        out.tick_end_ns.push(tracer.now_ns());
        if shape.poll_every > 0 && m.is_multiple_of(shape.poll_every) {
            let span = tracer.begin("client.snapshot", batch);
            let polled = Instant::now();
            let r = commit.snapshot_bin();
            out.poll_ms.push(since_ms(polled));
            tracer.end(span);
            let snap = Arc::new(out.ops.run("snapshot_bin", r)?.service);
            polled_at = m;
            if m == shape.pin {
                out.pin = Some((m, Arc::clone(&snap)));
            }
            out.last = Some((m, snap));
        }
        tracer.end(outer);
        window.after_tick(m, out);
        if window.done(m) {
            break;
        }
    }
    if polled_at != m {
        let snap = out.ops.run("snapshot_bin", commit.snapshot_bin())?.service;
        out.last = Some((m, Arc::new(snap)));
    }
    close(stager, commit, out)
}

fn close(stager: Option<Client>, commit: Client, out: &mut Outcome) -> Result<(), String> {
    if let Some(stager) = stager {
        out.ops.run("goodbye", stager.goodbye())?;
    }
    out.ops.run("goodbye", commit.goodbye())?;
    Ok(())
}

// --------------------------------------------------------------- recover

/// `recover-100k`: the in-process control plane on the threaded executor
/// with checkpoints and journal on, and a forced shard restart after
/// every 64th measured tick — in-process because the wire has no restart
/// operation.
pub fn run_recover(inputs: &Inputs, cfg: &RunCfg, tracer: &mut Tracer) -> Result<Outcome, String> {
    let shape = &inputs.shape;
    let mut out = Outcome::default();
    tracer.set_recording(cfg.traced);
    let mut plane = ControlPlane::new(shape.service(cfg.seed, true));

    let admits_started = Instant::now();
    for (i, want) in shape.dedicated_keys(0).enumerate() {
        let span = tracer.begin("ctrl.admit", 0);
        let key = out.ops.run("admit", plane.admit(shape.tenant(i)))?;
        tracer.end(span);
        if key != want {
            return Err(format!("admit {i} got key {key}, script expects {want}"));
        }
    }
    out.admit_us = admits_started.elapsed().as_secs_f64() * 1e6 / shape.dedicated as f64;
    out.live = shape.sessions() as u64;
    let batches = inputs.prebuild(shape.dedicated_keys(0));

    let tick = |batch: u64,
                tracer: &mut Tracer,
                ops: &mut Ops,
                plane: &mut ControlPlane|
     -> Result<u64, String> {
        let span = tracer.begin("ctrl.tick", batch);
        let sent = Instant::now();
        let r = plane.tick(&batches[batch as usize % shape.period]);
        let rtt = sent.elapsed().as_nanos() as u64;
        tracer.end(span);
        ops.run("tick", r)?;
        Ok(rtt)
    };

    tick(0, tracer, &mut out.ops, &mut plane)?;
    out.setup_s = cfg.started.elapsed().as_secs_f64();
    if cfg.setup_only {
        plane.shutdown();
        return Ok(out);
    }
    for batch in 1..shape.warm {
        tick(batch, tracer, &mut out.ops, &mut plane)?;
    }

    let window = Window::open(cfg, shape.pin, tracer, &mut out);
    let mut m = 0u64;
    let mut failed_at: Option<Instant> = None;
    loop {
        m += 1;
        window.before_tick(m, tracer);
        let batch = shape.batch_of(m);
        let outer = tracer.begin("tick", batch);
        let rtt = tick(batch, tracer, &mut out.ops, &mut plane)?;
        out.rtt_ns.push(rtt);
        out.tick_end_ns.push(tracer.now_ns());
        if let Some(failed) = failed_at.take() {
            // Failure → next tick acked; then the poll that follows it.
            out.recover_ms.push(since_ms(failed));
            let span = tracer.begin("ctrl.snapshot", batch);
            let polled = Instant::now();
            let r = plane.snapshot_shared();
            out.poll_ms.push(since_ms(polled));
            tracer.end(span);
            let snap = out.ops.run("snapshot_shared", r)?;
            if m == shape.pin {
                out.pin = Some((m, Arc::clone(&snap)));
            }
            out.last = Some((m, snap));
        }
        tracer.end(outer);
        window.after_tick(m, &mut out);
        if window.done(m) {
            break;
        }
        if shape.failures_after.contains(&m) {
            let span = tracer.begin("ctrl.restart", batch);
            let failed = Instant::now();
            let r = plane.restart_shard(0);
            out.restart_ms.push(since_ms(failed));
            tracer.end(span);
            out.ops.run("restart_shard", r)?;
            failed_at = Some(failed);
        }
    }
    if out.last.as_ref().is_none_or(|(at, _)| *at != m) {
        let snap = out.ops.run("snapshot_shared", plane.snapshot_shared())?;
        out.last = Some((m, snap));
    }
    if let Some((_, snap)) = &out.last {
        out.checks.push(Check::equal(
            "restarts",
            snap.restarts,
            out.restart_ms.len() as u64,
        ));
        out.replayed = snap.events_replayed;
    }
    plane.shutdown();
    Ok(out)
}

// ----------------------------------------------------------------- fleet

/// The harness's own placement policy: processes in turn, whatever their
/// load. Deterministic, and independent of every in-tree policy.
#[derive(Default)]
struct Alternating(usize);

impl Placement for Alternating {
    fn name(&self) -> &'static str {
        "alternating"
    }

    fn pick(&mut self, loads: &[usize]) -> Option<usize> {
        if loads.is_empty() {
            return None;
        }
        self.0 += 1;
        Some((self.0 - 1) % loads.len())
    }
}

/// A fleet of 2 ctrl processes, behind `gateways` relay processes.
pub fn start_fleet(inputs: &Inputs, cfg: &RunCfg, gateways: usize) -> Result<Fleet, String> {
    Fleet::start(
        FleetConfig {
            exe: cfg.cli.clone(),
            ctrl_procs: 2,
            gateways,
            child_args: inputs.shape.fleet_child_args(),
            migration_price: 1.0,
        },
        Box::new(Alternating::default()),
    )
    .map_err(|e| e.to_string())
}

/// `fleet-failover-2k`: the only multi-process workload. Process 1 is
/// killed before measured ticks 60, 90 and 120 and comes back by genesis
/// replay.
pub fn run_fleet(inputs: &Inputs, cfg: &RunCfg, tracer: &mut Tracer) -> Result<Outcome, String> {
    let shape = &inputs.shape;
    let mut out = Outcome::default();
    tracer.set_recording(cfg.traced);
    let mut fleet = out.ops.run("fleet_start", start_fleet(inputs, cfg, 1))?;

    let admits_started = Instant::now();
    for (i, want) in shape.dedicated_keys(0).enumerate() {
        let span = tracer.begin("fleet.admit", 0);
        let key = out.ops.run("admit", fleet.admit(shape.tenant(i)))?;
        tracer.end(span);
        if key != want {
            return Err(format!("admit {i} got key {key}, script expects {want}"));
        }
    }
    out.admit_us = admits_started.elapsed().as_secs_f64() * 1e6 / shape.dedicated as f64;
    out.live = shape.sessions() as u64;
    let batches = inputs.prebuild(shape.dedicated_keys(0));

    let tick = |batch: u64,
                tracer: &mut Tracer,
                ops: &mut Ops,
                fleet: &mut Fleet|
     -> Result<u64, String> {
        let span = tracer.begin("fleet.tick", batch);
        let sent = Instant::now();
        let r = fleet.tick(&batches[batch as usize % shape.period]);
        let rtt = sent.elapsed().as_nanos() as u64;
        tracer.end(span);
        ops.run("tick", r)?;
        Ok(rtt)
    };

    tick(0, tracer, &mut out.ops, &mut fleet)?;
    out.setup_s = cfg.started.elapsed().as_secs_f64();
    if cfg.setup_only {
        return Ok(out);
    }
    for batch in 1..shape.warm {
        tick(batch, tracer, &mut out.ops, &mut fleet)?;
    }

    let window = Window::open(cfg, shape.pin, tracer, &mut out);
    let mut m = 0u64;
    loop {
        m += 1;
        window.before_tick(m, tracer);
        let batch = shape.batch_of(m);
        let outer = tracer.begin("tick", batch);
        let failed = shape.failures_after.contains(&(m - 1)).then(|| {
            let span = tracer.begin("fleet.kill", batch);
            let failed = Instant::now();
            fleet.kill(1);
            out.restart_ms.push(since_ms(failed));
            tracer.end(span);
            // Derived from the script: process 1 was handed every second
            // admit and every tick so far, and genesis replay re-sends all.
            out.replayed += shape.dedicated as u64 / 2 + batch;
            failed
        });
        let rtt = tick(batch, tracer, &mut out.ops, &mut fleet)?;
        if let Some(failed) = failed {
            out.ops.attempted += 1; // the kill, recovered by this tick
            out.recover_ms.push(since_ms(failed));
        }
        out.rtt_ns.push(rtt);
        out.tick_end_ns.push(tracer.now_ns());
        tracer.end(outer);
        window.after_tick(m, &mut out);
        if window.done(m) {
            break;
        }
    }

    let span = tracer.begin("fleet.snapshot", shape.batch_of(m));
    let polled = Instant::now();
    let r = fleet.snapshot();
    out.poll_ms.push(since_ms(polled));
    tracer.end(span);
    let snap = Arc::new(out.ops.run("fleet_snapshot", r)?);
    out.checks.push(Check::equal(
        "respawns",
        fleet.summary().respawns,
        out.recover_ms.len() as u64,
    ));
    // The fleet's one snapshot is its final one; the pin snapshot comes
    // from the in-process replay the caller ties to it bit for bit.
    out.last = Some((m, snap));
    Ok(out)
}

pub fn run(inputs: &Inputs, cfg: &RunCfg, tracer: &mut Tracer) -> Result<Outcome, String> {
    match inputs.shape.kind {
        Kind::Dense | Kind::Lean | Kind::Churn => run_wire(inputs, cfg, tracer),
        Kind::Recover => run_recover(inputs, cfg, tracer),
        Kind::Fleet => run_fleet(inputs, cfg, tracer),
    }
}
