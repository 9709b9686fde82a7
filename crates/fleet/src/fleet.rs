//! The fleet orchestrator: child processes, global keys, migration.
//!
//! Process topology (see DESIGN.md "Fleet & migration" for the full
//! picture): the fleet spawns `ctrl_procs` backend workers — each a
//! `cdba-cli gateway` child owning a full control plane — and fronts
//! them with `gateways` relay children; backend `b` is reached through
//! relay `b % gateways`. The fleet holds exactly one wire client per
//! backend, so every session on a backend is owned by that one
//! connection and lease operations always pass the ownership check.
//!
//! Crash recovery is an image plus a bounded suffix. Every
//! [`IMAGE_EVERY`] fleet ticks the orchestrator pulls each child's
//! process image ([`Client::image`]: every shard's frame plus the
//! driver state) and trims that child's [`Journal`]
//! of mutating wire ops, which keeps a tick's arrivals as a
//! [`TickBatch`]; a process that stops answering is respawned,
//! restored from its latest image ([`Client::restore`]) and replayed the
//! ops journaled since — at most [`IMAGE_EVERY`] ticks' worth. Before the
//! first image the suffix is the whole history, replayed into a fresh
//! child: one recovery path, whose base is either an image or nothing.
//! Local keys come back identical because the image carries the child's
//! key counter and the child allocates the replayed ops' keys in order;
//! the fresh connection is made *directly* to the respawned backend,
//! bypassing the relay, whose forwarding target is the dead process's old
//! address.

use crate::placement::Placement;
use crate::FleetError;
use cdba_ctrl::journal::{Entry, Journal, TickBatch};
use cdba_ctrl::{ServiceSnapshot, SnapshotCounters};
use cdba_gateway::{Client, ClientConfig, ClientError};
use cdba_obs::{Counter, Gauge, Registry, TraceEvent, TraceKind, TraceRing};
use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;

/// Fleet ticks between image pulls: the cadence every threaded
/// workload checkpoints its shards at, and so the most ticks a respawn
/// replays.
pub const IMAGE_EVERY: u64 = 64;

/// How a fleet is built.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Path to the `cdba-cli` binary used for every child process.
    pub exe: PathBuf,
    /// Backend control-plane worker processes (≥ 1).
    pub ctrl_procs: usize,
    /// Relay frontend processes; `0` connects to the backends directly.
    pub gateways: usize,
    /// Extra flags passed verbatim to every backend child after
    /// `gateway --addr 127.0.0.1:0` — the service/workload shape
    /// (`--b-max`, `--shards`, `--exec`, …). Every backend gets the same
    /// flags, so each carries the full single-process budget and no
    /// admission decision ever depends on placement.
    pub child_args: Vec<String>,
    /// Price of one migration hop in the §1 cost accounting: one
    /// allocation change at `cdba_core::cost::CostModel`'s `per_change`.
    pub migration_price: f64,
}

impl FleetConfig {
    fn validate(&self) -> Result<(), FleetError> {
        if self.ctrl_procs == 0 {
            return Err(FleetError::Config("ctrl_procs must be at least 1".into()));
        }
        Ok(())
    }
}

/// One mutating wire op, as journaled for a respawn to replay on top of
/// the child's latest image. Expected local keys are recorded alongside
/// so a replay that diverges (it cannot, unless the child binary changed
/// under us) is caught loudly.
enum FleetOp {
    Admit {
        tenant: String,
        local: u64,
    },
    AdmitGroup {
        tenant: String,
        size: u32,
    },
    Leave {
        local: u64,
    },
    /// Replay decodes it back to the exact pairs.
    Tick {
        arrivals: TickBatch,
    },
    /// Replay re-captures (and discards) the blob: the session's current
    /// state lives wherever the original revoke's blob was granted.
    Revoke {
        local: u64,
    },
    /// Replay re-imports the very blob the live run granted.
    Grant {
        blob: Vec<u8>,
        local: u64,
    },
}

/// Bytes a journaled op holds besides its payload: the op itself.
pub const JOURNAL_OP_BYTES: u64 = std::mem::size_of::<FleetOp>() as u64;

impl Entry for FleetOp {
    /// [`JOURNAL_OP_BYTES`] plus what the op points to.
    fn bytes(&self) -> u64 {
        let held = match self {
            FleetOp::Admit { tenant, .. } | FleetOp::AdmitGroup { tenant, .. } => tenant.len(),
            FleetOp::Tick { arrivals } => arrivals.bytes(),
            FleetOp::Grant { blob, .. } => blob.len(),
            FleetOp::Leave { .. } | FleetOp::Revoke { .. } => 0,
        };
        JOURNAL_OP_BYTES + held as u64
    }
}

/// A child process the fleet owns: killed and reaped when dropped, so no
/// early return leaves one running.
struct OwnedChild(Child);

impl OwnedChild {
    /// Kills the child and reaps it.
    fn kill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for OwnedChild {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A child's latest process image and the fleet tick it was cut at.
struct Image {
    bytes: Vec<u8>,
    tick: u64,
}

/// Where one live session currently runs.
#[derive(Debug, Clone, Copy)]
struct SessionLoc {
    proc: usize,
    local: u64,
    /// Dedicated sessions migrate; pooled members do not.
    migratable: bool,
}

/// One backend worker process and the fleet's book-keeping for it.
struct Proc {
    child: OwnedChild,
    client: Client,
    /// The latest image pulled from this process; `None` before the
    /// first pull.
    image: Option<Image>,
    /// Every mutating op since the image (since spawn without one), in
    /// order; sealed at every tick.
    journal: Journal<FleetOp>,
    /// local key → global key, *permanent* (never removed on leave):
    /// retired sessions keep reporting under their local key and must
    /// still remap in [`Fleet::snapshot`].
    local_to_global: HashMap<u64, u64>,
    /// Live sessions currently placed here.
    live: usize,
    /// Set by [`Fleet::drain_and_migrate`]: placement skips the process.
    draining: bool,
    respawns: u64,
}

/// The fleet-level roll-up reported next to a snapshot.
#[derive(Debug, Clone)]
pub struct FleetSummary {
    /// Backend worker processes.
    pub ctrl_procs: usize,
    /// Relay frontends.
    pub gateways: usize,
    /// The placement policy's label.
    pub placement: String,
    /// Completed live migrations.
    pub migrations: u64,
    /// Migration signalling cost: `migrations × migration_price`.
    pub migration_cost: f64,
    /// Child processes respawned after a loss.
    pub respawns: u64,
    /// Journaled ops re-sent by respawns, on top of their images.
    pub replayed_ops: u64,
    /// Live sessions per process, in process order.
    pub live: Vec<usize>,
}

/// Pre-resolved orchestrator metric handles (see
/// [`Fleet::attach_metrics`]). Every update runs on the orchestrator
/// thread around a wire round-trip, so the relaxed-atomic cost is
/// invisible.
struct FleetMetrics {
    /// `cdba_fleet_ticks_total`.
    ticks: Counter,
    /// `cdba_fleet_migrations_total`.
    migrations: Counter,
    /// `cdba_fleet_lease_failures_total`.
    lease_failures: Counter,
    /// `cdba_fleet_respawns_total`.
    respawns: Counter,
    /// `cdba_fleet_replayed_ops_total`.
    replayed_ops: Counter,
    /// `cdba_fleet_placements_total{policy}`.
    placements: Counter,
    /// `cdba_fleet_proc_sessions{proc}`, indexed by process.
    proc_sessions: Vec<Gauge>,
    /// `cdba_fleet_journal_bytes{proc}`, indexed by process.
    journal_bytes: Vec<Gauge>,
}

impl FleetMetrics {
    fn register(registry: &Registry, policy: &str, procs: usize) -> Self {
        FleetMetrics {
            ticks: registry.counter("cdba_fleet_ticks_total", "Fleet-wide ticks committed"),
            migrations: registry.counter(
                "cdba_fleet_migrations_total",
                "Completed live migrations (lease revoked, blob granted, key rebound)",
            ),
            lease_failures: registry.counter(
                "cdba_fleet_lease_failures_total",
                "Migrations whose lease grant failed at the target (the blob was \
                 handed back to the source)",
            ),
            respawns: registry.counter(
                "cdba_fleet_respawns_total",
                "Child processes respawned after a loss, each restored from its latest image",
            ),
            replayed_ops: registry.counter(
                "cdba_fleet_replayed_ops_total",
                "Journaled wire ops re-sent by respawns on top of their images",
            ),
            placements: registry.counter_with(
                "cdba_fleet_placements_total",
                "Placement decisions taken, labelled by the policy that made them",
                &[("policy", policy)],
            ),
            proc_sessions: (0..procs)
                .map(|p| {
                    registry.gauge_with(
                        "cdba_fleet_proc_sessions",
                        "Live sessions placed on the backend process",
                        &[("proc", &p.to_string())],
                    )
                })
                .collect(),
            journal_bytes: (0..procs)
                .map(|p| {
                    registry.gauge_with(
                        "cdba_fleet_journal_bytes",
                        "Bytes of wire ops journaled for the process since its latest image: \
                         each op's size plus its payload, a tick's arrivals encoded as a TickBatch",
                        &[("proc", &p.to_string())],
                    )
                })
                .collect(),
        }
    }
}

/// A running fleet. See the crate docs for the determinism argument.
pub struct Fleet {
    cfg: FleetConfig,
    placement: Box<dyn Placement>,
    procs: Vec<Proc>,
    relays: Vec<OwnedChild>,
    /// Global session keys, allocated in admission order — the same
    /// sequence a single-process run of the trace assigns.
    next_key: u64,
    clock: u64,
    keys: HashMap<u64, SessionLoc>,
    /// Per-process arrival buffers reused across ticks.
    routes: Vec<Vec<(u64, f64)>>,
    /// Scratch buffer a route is encoded through into its [`TickBatch`].
    encode_buf: Vec<u8>,
    migrations: u64,
    replayed_ops: u64,
    obs: Option<FleetMetrics>,
    trace: Option<Arc<TraceRing>>,
}

/// Reads one stdout line from a freshly spawned child and extracts the
/// address after `marker` (up to the following space).
fn parse_listen_line(
    reader: &mut impl BufRead,
    marker: &str,
    proc: usize,
) -> Result<String, FleetError> {
    let mut line = String::new();
    let n = reader.read_line(&mut line).map_err(|e| FleetError::Spawn {
        proc,
        reason: format!("reading child stdout: {e}"),
    })?;
    if n == 0 {
        return Err(FleetError::Spawn {
            proc,
            reason: "child exited before announcing its address".into(),
        });
    }
    let rest = line.split(marker).nth(1).ok_or_else(|| FleetError::Spawn {
        proc,
        reason: format!("unexpected child banner: {}", line.trim()),
    })?;
    Ok(rest
        .split_whitespace()
        .next()
        .unwrap_or_default()
        .to_string())
}

/// Starts `cdba-cli` with `args`, its stdout piped for the banner.
fn spawn(
    cfg: &FleetConfig,
    args: &[&str],
) -> std::io::Result<(OwnedChild, BufReader<ChildStdout>)> {
    let mut child = Command::new(&cfg.exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map(OwnedChild)?;
    let stdout = child.0.stdout.take().expect("stdout was piped");
    Ok((child, BufReader::new(stdout)))
}

fn spawn_backend(cfg: &FleetConfig, proc: usize) -> Result<(OwnedChild, String), FleetError> {
    let mut args = vec!["gateway", "--addr", "127.0.0.1:0"];
    args.extend(cfg.child_args.iter().map(String::as_str));
    let (child, mut reader) = spawn(cfg, &args).map_err(|e| FleetError::Spawn {
        proc,
        reason: e.to_string(),
    })?;
    let addr = parse_listen_line(&mut reader, "listening on ", proc)?;
    Ok((child, addr))
}

/// Connects to a child in one attempt: a child announces its address
/// only once it listens, so a refusal means it is gone, not starting.
fn connect(addr: &str, proc: usize) -> Result<Client, FleetError> {
    let cfg = ClientConfig {
        connect_timeout_ms: 0,
        ..ClientConfig::default()
    };
    Client::connect_with(addr, cfg).map_err(|e| FleetError::Spawn {
        proc,
        reason: format!("connecting to {addr}: {e}"),
    })
}

impl Fleet {
    /// Spawns the backend workers and relay frontends and connects one
    /// wire client per backend (through its relay when `gateways > 0`).
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] for an empty fleet, [`FleetError::Spawn`]
    /// when a child cannot be started or contacted.
    pub fn start(cfg: FleetConfig, placement: Box<dyn Placement>) -> Result<Self, FleetError> {
        cfg.validate()?;
        let mut backends = Vec::with_capacity(cfg.ctrl_procs);
        for p in 0..cfg.ctrl_procs {
            backends.push(spawn_backend(&cfg, p)?);
        }
        // Relay r fronts the backends with index ≡ r (mod gateways); it
        // opens one listen port per fronted backend and announces each
        // as "cdba-relay listening on LOCAL -> BACKEND".
        let mut relays = Vec::new();
        let mut via: Vec<String> = backends.iter().map(|(_, addr)| addr.clone()).collect();
        for r in 0..cfg.gateways {
            let fronted: Vec<usize> = (0..cfg.ctrl_procs)
                .filter(|p| p % cfg.gateways == r)
                .collect();
            if fronted.is_empty() {
                continue;
            }
            let list = fronted
                .iter()
                .map(|&p| backends[p].1.clone())
                .collect::<Vec<_>>()
                .join(",");
            let (child, mut reader) =
                spawn(&cfg, &["relay", "--backends", &list]).map_err(|e| FleetError::Spawn {
                    proc: r,
                    reason: format!("relay: {e}"),
                })?;
            for &p in &fronted {
                via[p] = parse_listen_line(&mut reader, "listening on ", r)?;
            }
            relays.push(child);
        }
        let mut procs = Vec::with_capacity(cfg.ctrl_procs);
        for (p, (child, _)) in backends.into_iter().enumerate() {
            let client = connect(&via[p], p)?;
            procs.push(Proc {
                child,
                client,
                image: None,
                journal: Journal::default(),
                local_to_global: HashMap::new(),
                live: 0,
                draining: false,
                respawns: 0,
            });
        }
        let routes = vec![Vec::new(); cfg.ctrl_procs];
        Ok(Fleet {
            cfg,
            placement,
            procs,
            relays,
            next_key: 0,
            clock: 0,
            keys: HashMap::new(),
            routes,
            encode_buf: Vec::new(),
            migrations: 0,
            replayed_ops: 0,
            obs: None,
            trace: None,
        })
    }

    /// Registers the orchestrator's metric series (`cdba_fleet_*`) with
    /// `registry` and starts updating them. Opt-in: an unattached fleet
    /// pays one branch per hook.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        let m = FleetMetrics::register(registry, self.placement.name(), self.procs.len());
        self.obs = Some(m);
        self.sync_proc_gauges();
    }

    /// Starts recording structured fleet events (migrations, lease
    /// failures, respawns, placements) into `ring`.
    pub fn attach_trace(&mut self, ring: Arc<TraceRing>) {
        self.trace = Some(ring);
    }

    fn trace_push(&self, event: TraceEvent) {
        if let Some(ring) = &self.trace {
            ring.push(event);
        }
    }

    /// Refreshes the per-process live-session gauges after any placement
    /// change (admit, leave, migrate, recovery replay).
    fn sync_proc_gauges(&self) {
        if let Some(m) = &self.obs {
            for (p, gauge) in m.proc_sessions.iter().enumerate() {
                gauge.set(self.procs[p].live as f64);
            }
        }
    }

    /// Appends `op` to `proc`'s journal, sealing it at a tick.
    fn journal(&mut self, proc: usize, op: FleetOp) {
        let journal = &mut self.procs[proc].journal;
        let tick = matches!(op, FleetOp::Tick { .. });
        journal.push(op);
        if tick {
            journal.seal();
        }
        self.publish_journal(proc);
    }

    /// Sets `proc`'s `cdba_fleet_journal_bytes` gauge.
    fn publish_journal(&self, proc: usize) {
        if let Some(gauge) = self.obs.as_ref().and_then(|m| m.journal_bytes.get(proc)) {
            gauge.set(self.procs[proc].journal.bytes() as f64);
        }
    }

    /// Backend worker processes.
    pub fn ctrl_procs(&self) -> usize {
        self.procs.len()
    }

    /// Fleet ticks committed so far.
    pub fn ticks(&self) -> u64 {
        self.clock
    }

    /// Completed live migrations so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Runs one wire op against a process, recovering it (respawn, image
    /// and journal replay, directly connected) and retrying once if the
    /// op fails — a dead child surfaces as an I/O error on its client.
    fn with_proc<T>(
        &mut self,
        proc: usize,
        op: impl Fn(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, FleetError> {
        match op(&mut self.procs[proc].client) {
            Ok(v) => Ok(v),
            Err(ClientError::Server { code, message }) => Err(FleetError::Wire {
                proc,
                reason: format!("{code}: {message}"),
            }),
            Err(first) => {
                self.recover_proc(proc, &first)?;
                op(&mut self.procs[proc].client).map_err(|e| FleetError::Wire {
                    proc,
                    reason: e.to_string(),
                })
            }
        }
    }

    /// Respawns a lost process, restores its latest image and replays
    /// the ops journaled since (the whole history into a fresh child
    /// before the first image). The new connection goes directly to the
    /// respawned backend: the relay still forwards to the dead
    /// incarnation's address and is not updated.
    fn recover_proc(&mut self, proc: usize, cause: &dyn fmt::Display) -> Result<(), FleetError> {
        let lost = |reason: String| FleetError::ProcLost { proc, reason };
        self.procs[proc].child.kill();
        let (child, addr) =
            spawn_backend(&self.cfg, proc).map_err(|e| lost(format!("respawn: {e}")))?;
        let mut client = connect(&addr, proc).map_err(|e| lost(format!("reconnect: {e}")))?;
        let wire = |e: ClientError| lost(format!("recovery (after {cause}): {e}"));
        let p = &self.procs[proc];
        let base = match &p.image {
            Some(image) => {
                let (tick, _) = client.restore(&image.bytes).map_err(wire)?;
                if tick != image.tick {
                    return Err(lost(format!(
                        "restore diverged: resumed at tick {tick}, image cut at {}",
                        image.tick
                    )));
                }
                format!("image at tick {tick}")
            }
            None => "genesis".to_string(),
        };
        let mut replayed = 0;
        let mut arrivals_buf = Vec::new();
        for op in p.journal.replay() {
            replayed += 1;
            match op {
                FleetOp::Admit { tenant, local } => {
                    let key = client.join(tenant).map_err(wire)?;
                    if key != *local {
                        return Err(lost(format!(
                            "replay diverged: admit returned key {key}, expected {local}"
                        )));
                    }
                }
                FleetOp::AdmitGroup { tenant, size } => {
                    client.join_group(tenant, *size).map_err(wire)?;
                }
                FleetOp::Leave { local } => client.leave(*local).map_err(wire)?,
                FleetOp::Tick { arrivals } => {
                    arrivals_buf.clear();
                    arrivals_buf.extend(arrivals.iter());
                    client.tick(&arrivals_buf).map(|_| ()).map_err(wire)?;
                }
                FleetOp::Revoke { local } => {
                    client.lease_revoke(*local).map(|_| ()).map_err(wire)?;
                }
                FleetOp::Grant { blob, local } => {
                    let key = client.lease_grant(blob).map_err(wire)?;
                    if key != *local {
                        return Err(lost(format!(
                            "replay diverged: grant returned key {key}, expected {local}"
                        )));
                    }
                }
            }
        }
        let p = &mut self.procs[proc];
        p.child = child;
        p.client = client;
        p.respawns += 1;
        self.replayed_ops += replayed;
        if let Some(m) = &self.obs {
            m.respawns.inc();
            m.replayed_ops.add(replayed);
        }
        self.trace_push(
            TraceEvent::at(self.clock, TraceKind::Respawn)
                .shard(proc as u32)
                .detail(format!("{base} + {replayed} op(s) after: {cause}")),
        );
        Ok(())
    }

    /// Pulls every process's image at the current tick and trims the
    /// journal it covers, leaving each journal empty. [`Fleet::tick`]
    /// calls this every [`IMAGE_EVERY`] ticks; a process lost before or
    /// during its pull is recovered and asked again, like any op.
    ///
    /// # Errors
    ///
    /// Wire failures after recovery fails.
    pub fn pull_images(&mut self) -> Result<(), FleetError> {
        for proc in 0..self.procs.len() {
            let bytes = self.with_proc(proc, |c| c.image())?;
            let p = &mut self.procs[proc];
            p.image = Some(Image {
                bytes,
                tick: self.clock,
            });
            p.journal.seal();
            p.journal.trim_to(p.journal.sealed());
            self.publish_journal(proc);
        }
        Ok(())
    }

    /// The placement-eligible processes: alive (always — a lost process
    /// is recovered on its next op) and not draining, minus `exclude`.
    fn place_on(&mut self, exclude: Option<usize>) -> Result<usize, FleetError> {
        let candidates: Vec<usize> = (0..self.procs.len())
            .filter(|&p| !self.procs[p].draining && Some(p) != exclude)
            .collect();
        if candidates.is_empty() {
            return Err(FleetError::NoCapacity);
        }
        let loads: Vec<usize> = candidates.iter().map(|&p| self.procs[p].live).collect();
        // A policy that declines (or picks out of range) on a non-empty
        // list is misbehaving; surface that as a typed error rather than
        // clamping it to an arbitrary process.
        match self.placement.pick(&loads) {
            Some(at) if at < candidates.len() => {
                let chosen = candidates[at];
                if let Some(m) = &self.obs {
                    m.placements.inc();
                }
                self.trace_push(
                    TraceEvent::at(self.clock, TraceKind::Placement).shard(chosen as u32),
                );
                Ok(chosen)
            }
            _ => Err(FleetError::NoHealthyProcess),
        }
    }

    /// Places global `key` at local key `local` on `proc`, live.
    fn bind(&mut self, key: u64, proc: usize, local: u64, migratable: bool) {
        self.procs[proc].local_to_global.insert(local, key);
        self.procs[proc].live += 1;
        let loc = SessionLoc {
            proc,
            local,
            migratable,
        };
        self.keys.insert(key, loc);
    }

    /// Admits one dedicated session for `tenant` on a placement-chosen
    /// process; returns its fleet-global key.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoCapacity`] when every process is draining;
    /// [`FleetError::Wire`] / [`FleetError::ProcLost`] on wire failures.
    pub fn admit(&mut self, tenant: &str) -> Result<u64, FleetError> {
        let proc = self.place_on(None)?;
        let local = self.with_proc(proc, |c| c.join(tenant))?;
        let tenant = tenant.to_string();
        self.journal(proc, FleetOp::Admit { tenant, local });
        let key = self.next_key;
        self.next_key += 1;
        self.bind(key, proc, local, true);
        self.sync_proc_gauges();
        Ok(key)
    }

    /// Admits a pooled group of `size` sessions for `tenant`, whole, on
    /// one placement-chosen process; returns the members' global keys in
    /// join order. Pooled members never migrate individually.
    ///
    /// # Errors
    ///
    /// As [`Fleet::admit`].
    pub fn admit_group(&mut self, tenant: &str, size: u32) -> Result<Vec<u64>, FleetError> {
        let proc = self.place_on(None)?;
        let locals = self.with_proc(proc, |c| c.join_group(tenant, size))?;
        let tenant = tenant.to_string();
        self.journal(proc, FleetOp::AdmitGroup { tenant, size });
        let mut members = Vec::with_capacity(locals.len());
        for local in locals {
            let key = self.next_key;
            self.next_key += 1;
            self.bind(key, proc, local, false);
            members.push(key);
        }
        self.sync_proc_gauges();
        Ok(members)
    }

    /// Begins draining session `key` out of the fleet.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownSession`] for a key that is not live, plus
    /// the wire failures of [`Fleet::admit`].
    pub fn leave(&mut self, key: u64) -> Result<(), FleetError> {
        let loc = *self.keys.get(&key).ok_or(FleetError::UnknownSession(key))?;
        self.with_proc(loc.proc, |c| c.leave(loc.local))?;
        self.journal(loc.proc, FleetOp::Leave { local: loc.local });
        self.procs[loc.proc].live -= 1;
        self.keys.remove(&key);
        // local_to_global keeps the entry: the retired session still
        // reports under its local key and must remap in snapshots.
        self.sync_proc_gauges();
        Ok(())
    }

    /// Advances the whole fleet by one tick: arrivals (keyed by global
    /// key) are routed to their processes and *every* process commits a
    /// tick, listed or not, so all per-process clocks advance in
    /// lockstep with the fleet clock. Every [`IMAGE_EVERY`]-th tick then
    /// pulls the processes' images ([`Fleet::pull_images`]).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownSession`] before anything advances; wire
    /// failures after recovery fails.
    pub fn tick(&mut self, arrivals: &[(u64, f64)]) -> Result<(), FleetError> {
        let mut routes = std::mem::take(&mut self.routes);
        for route in &mut routes {
            route.clear();
        }
        let routed = arrivals.iter().try_for_each(|&(key, bits)| {
            let loc = self.keys.get(&key).ok_or(FleetError::UnknownSession(key))?;
            routes[loc.proc].push((loc.local, bits));
            Ok(())
        });
        let sent = routed.and_then(|()| {
            routes.iter().enumerate().try_for_each(|(proc, batch)| {
                self.with_proc(proc, |c| c.tick(batch).map(|_| ()))?;
                let arrivals = TickBatch::encode(batch, &mut self.encode_buf);
                self.journal(proc, FleetOp::Tick { arrivals });
                Ok(())
            })
        });
        self.routes = routes;
        sent?;
        self.clock += 1;
        if let Some(m) = &self.obs {
            m.ticks.inc();
        }
        if self.clock.is_multiple_of(IMAGE_EVERY) {
            self.pull_images()?;
        }
        Ok(())
    }

    /// Live-migrates session `key` to process `target`: revoke the lease
    /// at the source (quiesce + checkpoint + release), grant the blob to
    /// the target, rebind the global key. One
    /// migration bills one signalling change (see [`FleetSummary`]).
    ///
    /// A target that has already exited is respawned first, as for any
    /// other op. If the *grant* fails — the target died mid-migration,
    /// say — the blob is granted straight back to the source: the
    /// session keeps running where it was, the budget
    /// it released on revoke is re-taken, and the typed
    /// [`FleetError::MigrationFailed`] tells the caller nothing moved.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownSession`] / [`FleetError::NotMigratable`] /
    /// [`FleetError::MigrationFailed`], plus wire failures at the source.
    pub fn migrate(&mut self, key: u64, target: usize) -> Result<(), FleetError> {
        let loc = *self.keys.get(&key).ok_or(FleetError::UnknownSession(key))?;
        if !loc.migratable {
            return Err(FleetError::NotMigratable(key));
        }
        if loc.proc == target || target >= self.procs.len() {
            return Err(FleetError::Config(format!(
                "bad migration target {target} for session {key} on process {}",
                loc.proc
            )));
        }
        // Before the revoke, so a failed recovery leaves the session where
        // it is.
        if matches!(self.procs[target].child.0.try_wait(), Ok(Some(_))) {
            self.recover_proc(target, &"process exited before a migration grant")?;
        }
        let local = loc.local;
        let blob = self.with_proc(loc.proc, |c| c.lease_revoke(local))?;
        self.journal(loc.proc, FleetOp::Revoke { local });
        self.procs[loc.proc].live -= 1;
        self.keys.remove(&key);
        // Deliberately no recovery on the grant itself: a target that
        // vanishes mid-grant must hand the lease back to the source, not
        // be resurrected holding a session the source also replays.
        match self.procs[target].client.lease_grant(&blob) {
            Ok(tlocal) => {
                let grant = FleetOp::Grant {
                    blob,
                    local: tlocal,
                };
                self.journal(target, grant);
                self.bind(key, target, tlocal, true);
                self.migrations += 1;
                if let Some(m) = &self.obs {
                    m.migrations.inc();
                }
                self.trace_push(
                    TraceEvent::at(self.clock, TraceKind::Migration)
                        .session(key)
                        .shard(target as u32)
                        .detail(format!("from proc {} to proc {target}", loc.proc)),
                );
                self.sync_proc_gauges();
                Ok(())
            }
            Err(err) => {
                let back = self.with_proc(loc.proc, |c| c.lease_grant(&blob))?;
                let grant = FleetOp::Grant { blob, local: back };
                self.journal(loc.proc, grant);
                self.bind(key, loc.proc, back, true);
                if let Some(m) = &self.obs {
                    m.lease_failures.inc();
                }
                self.trace_push(
                    TraceEvent::at(self.clock, TraceKind::LeaseFailure)
                        .session(key)
                        .shard(target as u32)
                        .detail(format!(
                            "grant failed, session stays on {}: {err}",
                            loc.proc
                        )),
                );
                self.sync_proc_gauges();
                Err(FleetError::MigrationFailed {
                    key,
                    from: loc.proc,
                    to: target,
                    reason: err.to_string(),
                })
            }
        }
    }

    /// Marks process `proc` draining — placement puts no new session on
    /// it — and live-migrates every migratable session off it to
    /// placement-chosen targets, in ascending local-key order. Pooled
    /// groups stay and keep ticking. The drain is the orchestrator's
    /// state alone: the process is not told. Returns how many sessions
    /// moved.
    ///
    /// # Errors
    ///
    /// As [`Fleet::migrate`]; the drain flag sticks even if a later
    /// migration fails.
    pub fn drain_and_migrate(&mut self, proc: usize) -> Result<u64, FleetError> {
        self.procs[proc].draining = true;
        let mut moving: Vec<(u64, u64)> = self
            .keys
            .iter()
            .filter(|(_, loc)| loc.proc == proc && loc.migratable)
            .map(|(&key, loc)| (loc.local, key))
            .collect();
        moving.sort_unstable();
        for &(_, key) in &moving {
            let target = self.place_on(Some(proc))?;
            self.migrate(key, target)?;
        }
        Ok(moving.len() as u64)
    }

    /// Kills process `proc`'s child outright — the fault-injection hook
    /// behind `--fault`. The fleet notices on the next op against it and
    /// recovers it from its latest image plus the ops journaled since —
    /// at most [`IMAGE_EVERY`] ticks' worth.
    pub fn kill(&mut self, proc: usize) {
        self.procs[proc].child.kill();
    }

    /// Assembles the fleet-wide snapshot: every process's sessions (live
    /// and retired) remapped to global keys and fleet-global shard ids,
    /// under the fleet clock. Its
    /// [`invariant_view`](ServiceSnapshot::invariant_view) is
    /// bitwise-identical to a single-process run of the same trace.
    ///
    /// # Errors
    ///
    /// Wire failures after recovery fails; a local key the fleet never
    /// allocated surfaces as [`FleetError::ProcLost`].
    pub fn snapshot(&mut self) -> Result<ServiceSnapshot, FleetError> {
        let mut sessions = Vec::new();
        let mut health = Vec::new();
        let mut shard_base = 0u64;
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        let mut restarts = 0u64;
        let mut events_replayed = 0u64;
        for proc in 0..self.procs.len() {
            let snap = self.with_proc(proc, |c| c.snapshot_bin())?;
            let svc = snap.service;
            admitted += svc.admitted;
            rejected += svc.rejected;
            restarts += svc.restarts;
            events_replayed += svc.events_replayed;
            for mut m in svc.sessions {
                let Some(&global) = self.procs[proc].local_to_global.get(&m.session) else {
                    return Err(FleetError::ProcLost {
                        proc,
                        reason: format!("snapshot reported unknown local key {}", m.session),
                    });
                };
                m.session = global;
                m.shard += shard_base;
                sessions.push(m);
            }
            for mut h in svc.health {
                h.shard += shard_base;
                health.push(h);
            }
            shard_base += svc.shards;
        }
        Ok(ServiceSnapshot::assemble(
            SnapshotCounters {
                ticks: self.clock,
                shards: shard_base,
                admitted,
                rejected,
                restarts,
                events_replayed,
            },
            health,
            sessions,
        ))
    }

    /// The fleet-level roll-up: placement label, migration count and
    /// cost, respawns and the ops they replayed, and the live-session
    /// spread.
    pub fn summary(&self) -> FleetSummary {
        FleetSummary {
            ctrl_procs: self.procs.len(),
            gateways: self.relays.len(),
            placement: self.placement.name().to_string(),
            migrations: self.migrations,
            migration_cost: self.migrations as f64 * self.cfg.migration_price,
            respawns: self.procs.iter().map(|p| p.respawns).sum(),
            replayed_ops: self.replayed_ops,
            live: self.procs.iter().map(|p| p.live).collect(),
        }
    }
}
