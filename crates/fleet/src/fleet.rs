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
//! Crash recovery is genesis replay: every mutating wire op is recorded
//! in a per-process journal, and a process that stops answering is
//! respawned and replayed from scratch. Local keys come back identical
//! because the child allocates them in op order; the fresh connection is
//! made *directly* to the respawned backend, bypassing the relay, whose
//! forwarding target is the dead process's old address.

use crate::placement::Placement;
use crate::FleetError;
use cdba_analysis::cost::CostModel;
use cdba_ctrl::{ServiceSnapshot, SnapshotCounters};
use cdba_gateway::{Client, ClientError};
use cdba_obs::{Counter, Gauge, Registry, TraceEvent, TraceKind, TraceRing};
use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

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
    /// Price of one migration hop in the §1 cost accounting (one
    /// allocation change under [`CostModel::with_change_price`]).
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

/// One mutating wire op, as recorded for genesis replay. Expected local
/// keys are recorded alongside so a replay that diverges (it cannot,
/// unless the child binary changed under us) is caught loudly.
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
    Tick {
        arrivals: Vec<(u64, f64)>,
    },
    /// Replay re-captures (and discards) the blob: the session's current
    /// state lives wherever the original revoke's blob was granted.
    Revoke {
        local: u64,
    },
    /// Replay re-imports the very blob the live run granted.
    Grant {
        epoch: u64,
        blob: Vec<u8>,
        local: u64,
    },
    Drain,
}

/// Where one live session currently runs. The lease epoch is not
/// tracked here: the gateway's [`lease_revoke`](Client::lease_revoke)
/// reply is the authoritative epoch source at migration time.
#[derive(Debug, Clone, Copy)]
struct SessionLoc {
    proc: usize,
    local: u64,
    /// Dedicated sessions migrate; pooled members do not.
    migratable: bool,
}

/// One backend worker process and the fleet's book-keeping for it.
struct Proc {
    child: Child,
    /// The backend's own listen address (direct).
    addr: String,
    client: Client,
    /// Genesis journal: every mutating op since spawn, in order.
    journal: Vec<FleetOp>,
    /// local key → global key, *permanent* (never removed on leave):
    /// retired sessions keep reporting under their local key and must
    /// still remap in [`Fleet::snapshot`].
    local_to_global: HashMap<u64, u64>,
    /// Live sessions currently placed here.
    live: usize,
    draining: bool,
    respawns: u64,
}

/// One relay frontend process.
struct Relay {
    child: Child,
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
    /// Migration signalling cost: `migrations × per_change` under
    /// [`CostModel::with_change_price`]`(migration_price)`.
    pub migration_cost: f64,
    /// Child processes respawned and genesis-replayed after a loss.
    pub respawns: u64,
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
    /// `cdba_fleet_placements_total{policy}`.
    placements: Counter,
    /// `cdba_fleet_proc_sessions{proc}`, indexed by process.
    proc_sessions: Vec<Gauge>,
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
                "Child processes respawned and genesis-replayed after a loss",
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
        }
    }
}

/// A running fleet. See the crate docs for the determinism argument.
pub struct Fleet {
    cfg: FleetConfig,
    placement: Box<dyn Placement>,
    procs: Vec<Proc>,
    relays: Vec<Relay>,
    /// Global session keys, allocated in admission order — the same
    /// sequence a single-process run of the trace assigns.
    next_key: u64,
    clock: u64,
    keys: HashMap<u64, SessionLoc>,
    migrations: u64,
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

fn spawn_backend(cfg: &FleetConfig, proc: usize) -> Result<(Child, String), FleetError> {
    let mut child = Command::new(&cfg.exe)
        .arg("gateway")
        .args(["--addr", "127.0.0.1:0"])
        .args(&cfg.child_args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| FleetError::Spawn {
            proc,
            reason: e.to_string(),
        })?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut reader = BufReader::new(stdout);
    match parse_listen_line(&mut reader, "listening on ", proc) {
        Ok(addr) => Ok((child, addr)),
        Err(err) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(err)
        }
    }
}

fn connect(addr: &str, proc: usize) -> Result<Client, FleetError> {
    Client::connect(addr).map_err(|e| FleetError::Spawn {
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
            let mut child = Command::new(&cfg.exe)
                .arg("relay")
                .args(["--backends", &list])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| FleetError::Spawn {
                    proc: r,
                    reason: format!("relay: {e}"),
                })?;
            let stdout = child.stdout.take().expect("stdout was piped");
            let mut reader = BufReader::new(stdout);
            for &p in &fronted {
                via[p] = parse_listen_line(&mut reader, "listening on ", r)?;
            }
            relays.push(Relay { child });
        }
        let mut procs = Vec::with_capacity(cfg.ctrl_procs);
        for (p, (child, addr)) in backends.into_iter().enumerate() {
            let client = connect(&via[p], p)?;
            procs.push(Proc {
                child,
                addr,
                client,
                journal: Vec::new(),
                local_to_global: HashMap::new(),
                live: 0,
                draining: false,
                respawns: 0,
            });
        }
        Ok(Fleet {
            cfg,
            placement,
            procs,
            relays,
            next_key: 0,
            clock: 0,
            keys: HashMap::new(),
            migrations: 0,
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

    /// Runs one wire op against a process, recovering it (respawn +
    /// genesis replay, directly connected) and retrying once if the op
    /// fails — a dead child surfaces as an I/O error on its client.
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

    /// Respawns a lost process and replays its genesis journal. The new
    /// connection goes directly to the respawned backend: the relay still
    /// forwards to the dead incarnation's address and is not updated.
    fn recover_proc(&mut self, proc: usize, cause: &dyn fmt::Display) -> Result<(), FleetError> {
        let lost = |reason: String| FleetError::ProcLost { proc, reason };
        let _ = self.procs[proc].child.kill();
        let _ = self.procs[proc].child.wait();
        let (child, addr) =
            spawn_backend(&self.cfg, proc).map_err(|e| lost(format!("respawn: {e}")))?;
        let mut client = connect(&addr, proc).map_err(|e| lost(format!("reconnect: {e}")))?;
        let wire = |e: ClientError| lost(format!("replay (after {cause}): {e}"));
        for op in &self.procs[proc].journal {
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
                    client.tick(arrivals).map(|_| ()).map_err(wire)?;
                }
                FleetOp::Revoke { local } => {
                    client.lease_revoke(*local).map(|_| ()).map_err(wire)?;
                }
                FleetOp::Grant { epoch, blob, local } => {
                    let key = client.lease_grant(*epoch, blob.clone()).map_err(wire)?;
                    if key != *local {
                        return Err(lost(format!(
                            "replay diverged: grant returned key {key}, expected {local}"
                        )));
                    }
                }
                FleetOp::Drain => {
                    client.drain().map(|_| ()).map_err(wire)?;
                }
            }
        }
        let p = &mut self.procs[proc];
        p.child = child;
        p.addr = addr;
        p.client = client;
        p.respawns += 1;
        if let Some(m) = &self.obs {
            m.respawns.inc();
        }
        self.trace_push(
            TraceEvent::at(self.clock, TraceKind::Respawn)
                .shard(proc as u32)
                .detail(format!("genesis replay after: {cause}")),
        );
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
        self.procs[proc].journal.push(FleetOp::Admit {
            tenant: tenant.to_string(),
            local,
        });
        let key = self.next_key;
        self.next_key += 1;
        self.procs[proc].local_to_global.insert(local, key);
        self.procs[proc].live += 1;
        self.keys.insert(
            key,
            SessionLoc {
                proc,
                local,
                migratable: true,
            },
        );
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
        self.procs[proc].journal.push(FleetOp::AdmitGroup {
            tenant: tenant.to_string(),
            size,
        });
        let mut members = Vec::with_capacity(locals.len());
        for local in locals {
            let key = self.next_key;
            self.next_key += 1;
            self.procs[proc].local_to_global.insert(local, key);
            self.keys.insert(
                key,
                SessionLoc {
                    proc,
                    local,
                    migratable: false,
                },
            );
            members.push(key);
        }
        self.procs[proc].live += members.len();
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
        self.procs[loc.proc]
            .journal
            .push(FleetOp::Leave { local: loc.local });
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
    /// lockstep with the fleet clock.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownSession`] before anything advances; wire
    /// failures after recovery fails.
    pub fn tick(&mut self, arrivals: &[(u64, f64)]) -> Result<(), FleetError> {
        let mut routes: Vec<Vec<(u64, f64)>> = vec![Vec::new(); self.procs.len()];
        for &(key, bits) in arrivals {
            let loc = self.keys.get(&key).ok_or(FleetError::UnknownSession(key))?;
            routes[loc.proc].push((loc.local, bits));
        }
        for (proc, batch) in routes.into_iter().enumerate() {
            self.with_proc(proc, |c| c.tick(&batch).map(|_| ()))?;
            self.procs[proc]
                .journal
                .push(FleetOp::Tick { arrivals: batch });
        }
        self.clock += 1;
        if let Some(m) = &self.obs {
            m.ticks.inc();
        }
        Ok(())
    }

    /// Live-migrates session `key` to process `target`: revoke the lease
    /// at the source (quiesce + checkpoint + release), grant the blob to
    /// the target at a bumped epoch, rebind the global key. One
    /// migration bills one signalling change (see [`FleetSummary`]).
    ///
    /// A target that has already exited is respawned first, as for any
    /// other op. If the *grant* fails — the target died mid-migration,
    /// say — the blob is granted straight back to the source at the
    /// original epoch: the session keeps running where it was, the budget
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
        if matches!(self.procs[target].child.try_wait(), Ok(Some(_))) {
            self.recover_proc(target, &"process exited before a migration grant")?;
        }
        let local = loc.local;
        let (epoch, blob) = self.with_proc(loc.proc, |c| c.lease_revoke(local))?;
        self.procs[loc.proc].journal.push(FleetOp::Revoke { local });
        self.procs[loc.proc].live -= 1;
        self.keys.remove(&key);
        // Deliberately no recovery on the grant itself: a target that
        // vanishes mid-grant must hand the lease back to the source, not
        // be resurrected holding a session the source also replays.
        match self.procs[target]
            .client
            .lease_grant(epoch + 1, blob.clone())
        {
            Ok(tlocal) => {
                self.procs[target].journal.push(FleetOp::Grant {
                    epoch: epoch + 1,
                    blob,
                    local: tlocal,
                });
                self.procs[target].local_to_global.insert(tlocal, key);
                self.procs[target].live += 1;
                self.keys.insert(
                    key,
                    SessionLoc {
                        proc: target,
                        local: tlocal,
                        migratable: true,
                    },
                );
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
                let back = self.with_proc(loc.proc, |c| c.lease_grant(epoch, blob.clone()))?;
                self.procs[loc.proc].journal.push(FleetOp::Grant {
                    epoch,
                    blob,
                    local: back,
                });
                self.procs[loc.proc].local_to_global.insert(back, key);
                self.procs[loc.proc].live += 1;
                self.keys.insert(
                    key,
                    SessionLoc {
                        proc: loc.proc,
                        local: back,
                        migratable: true,
                    },
                );
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

    /// Puts process `proc` in draining mode and live-migrates every
    /// migratable session off it to placement-chosen targets. Pooled
    /// groups stay (they keep ticking; a draining process refuses only
    /// *new* sessions). Returns how many sessions moved.
    ///
    /// # Errors
    ///
    /// As [`Fleet::migrate`]; the drain flag sticks even if a later
    /// migration fails.
    pub fn drain_and_migrate(&mut self, proc: usize) -> Result<u64, FleetError> {
        let locals = self.with_proc(proc, |c| c.drain())?;
        self.procs[proc].journal.push(FleetOp::Drain);
        self.procs[proc].draining = true;
        let mut moved = 0;
        for local in locals {
            let Some(&key) = self.procs[proc].local_to_global.get(&local) else {
                return Err(FleetError::ProcLost {
                    proc,
                    reason: format!("drain listed unknown local key {local}"),
                });
            };
            let target = self.place_on(Some(proc))?;
            self.migrate(key, target)?;
            moved += 1;
        }
        Ok(moved)
    }

    /// Kills process `proc`'s child outright — the fault-injection hook
    /// behind `--fault`. The fleet notices on the next op against it and
    /// recovers by genesis replay.
    pub fn kill(&mut self, proc: usize) {
        let _ = self.procs[proc].child.kill();
        let _ = self.procs[proc].child.wait();
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
    /// cost, respawns, and the live-session spread.
    pub fn summary(&self) -> FleetSummary {
        let price = CostModel::with_change_price(self.cfg.migration_price).per_change;
        FleetSummary {
            ctrl_procs: self.procs.len(),
            gateways: self.relays.len(),
            placement: self.placement.name().to_string(),
            migrations: self.migrations,
            migration_cost: self.migrations as f64 * price,
            respawns: self.procs.iter().map(|p| p.respawns).sum(),
            live: self.procs.iter().map(|p| p.live).collect(),
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for p in &mut self.procs {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
        for r in &mut self.relays {
            let _ = r.child.kill();
            let _ = r.child.wait();
        }
    }
}
