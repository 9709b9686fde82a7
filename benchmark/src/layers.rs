//! Per-layer measurements for the traced pass: the workload's own batches
//! replayed at each boundary beneath the one it crosses, every layer timed
//! from outside through its public functions.

use crate::drive::{start_fleet, RunCfg};
use crate::inputs::{Inputs, GROUP};
use crate::stats;
use cdba_core::multi::pool::SessionPool;
use cdba_core::single::SingleSession;
use cdba_ctrl::{
    AdmissionController, CheckpointMirror, CheckpointProbe, ControlPlane, ServiceConfig,
    ServiceSnapshot,
};
use cdba_gateway::{proto, Frame, GatewaySnapshot};
use cdba_obs::Registry;
use cdba_sim::traits::Allocator;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Median wall time, in ns, of `runs` calls of `f`; the first failure
/// ends it.
fn median_ns(runs: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let started = Instant::now();
        f()?;
        samples.push(ns_since(started));
    }
    Ok(stats::median(&samples).unwrap_or(0.0))
}

/// What the in-process replay of a workload's script measured.
pub struct Replay {
    /// Mean `ControlPlane::admit`/`admit_group` time during set-up.
    pub admit_us: f64,
    /// Mean time of one leave + admit pair on the populated plane.
    pub leave_admit_us: f64,
    /// `ControlPlane::tick` time of each measured tick.
    pub tick_ns: Vec<u64>,
    /// Session-ticks per second over the measured ticks.
    pub session_ticks_per_s: f64,
    /// `snapshot_shared` at the last stop.
    pub snapshot_ms: f64,
    /// The snapshot after each requested measured tick, in order.
    pub snapshots: Vec<Arc<ServiceSnapshot>>,
}

/// Replays the workload's script against an `inline/s1` control plane in
/// this process, snapshotting after each measured tick in `stops`
/// (ascending). The operations and their order are exactly the wire and
/// fleet drivers', so the snapshots must agree with theirs bit for bit.
pub fn replay_in_process(inputs: &Inputs, seed: u64, stops: &[u64]) -> Result<Replay, String> {
    let shape = &inputs.shape;
    let last = *stops.last().ok_or("replay needs a stop")?;
    let mut plane = ControlPlane::new(shape.service(seed, false));
    let err = |e: cdba_ctrl::CtrlError| e.to_string();

    let admits_started = Instant::now();
    for g in 0..shape.groups() {
        plane.admit_group(shape.tenant(g), GROUP).map_err(err)?;
    }
    for i in 0..shape.dedicated {
        plane.admit(shape.tenant(i)).map_err(err)?;
    }
    let admits = shape.groups() + shape.dedicated;
    let admit_us = admits_started.elapsed().as_secs_f64() * 1e6 / admits as f64;

    let fixed_end = if shape.churn {
        shape.pooled as u64
    } else {
        shape.sessions() as u64
    };
    let fixed = inputs.prebuild(0..fixed_end);
    let mut scratch = Vec::new();
    for batch in 0..shape.warm {
        scratch.clear();
        scratch.extend_from_slice(&fixed[batch as usize % shape.period]);
        if shape.churn {
            inputs.extend_batch(shape.dedicated_keys(0), batch, &mut scratch);
        }
        plane.tick(&scratch).map_err(err)?;
    }

    let mut tick_ns = Vec::with_capacity(last as usize);
    let mut snapshots = Vec::with_capacity(stops.len());
    let mut snapshot_ms = 0.0;
    let window = Instant::now();
    let mut paused = 0.0;
    for m in 1..=last {
        let batch = shape.batch_of(m);
        if shape.churn {
            plane
                .leave(shape.dedicated_keys(m - 1).start)
                .map_err(err)?;
            plane.admit(shape.tenant((m - 1) as usize)).map_err(err)?;
        }
        scratch.clear();
        scratch.extend_from_slice(&fixed[batch as usize % shape.period]);
        if shape.churn {
            inputs.extend_batch(shape.dedicated_keys(m), batch, &mut scratch);
        }
        let sent = Instant::now();
        plane.tick(&scratch).map_err(err)?;
        tick_ns.push(sent.elapsed().as_nanos() as u64);
        if stops.contains(&m) {
            let polled = Instant::now();
            snapshots.push(plane.snapshot_shared().map_err(err)?);
            snapshot_ms = polled.elapsed().as_secs_f64() * 1e3;
            paused += polled.elapsed().as_secs_f64();
        }
    }
    let secs = (window.elapsed().as_secs_f64() - paused).max(1e-9);
    let session_ticks_per_s = (shape.sessions() as u64 * last) as f64 / secs;

    // The snapshots are taken; the plane is free for the churn-path probe.
    let pairs = (shape.dedicated / 2).clamp(1, 1_000) as u64;
    let first = shape.dedicated_keys(last).start;
    let started = Instant::now();
    for i in 0..pairs {
        plane.leave(first + i).map_err(err)?;
        plane.admit(shape.tenant(i as usize)).map_err(err)?;
    }
    let leave_admit_us = started.elapsed().as_secs_f64() * 1e6 / pairs as f64;
    plane.shutdown();

    Ok(Replay {
        admit_us,
        leave_admit_us,
        tick_ns,
        session_ticks_per_s,
        snapshot_ms,
        snapshots,
    })
}

/// ns per session-tick of a bare `SingleSession` fed the bank's rows —
/// the algorithmic floor under every dedicated session.
pub fn core_single_step_ns(inputs: &Inputs, service: &ServiceConfig) -> f64 {
    const TICKS: u64 = 2_048;
    let rows = 64u64.min(inputs.shape.sessions() as u64);
    let mut sessions: Vec<SingleSession> = (0..rows)
        .map(|_| SingleSession::new(service.single_config()))
        .collect();
    let started = Instant::now();
    for t in 0..TICKS {
        for (key, session) in sessions.iter_mut().enumerate() {
            black_box(session.on_tick(black_box(inputs.arrival(key as u64, t))));
        }
    }
    ns_since(started) / (rows * TICKS) as f64
}

/// ns per session-tick of bare `SessionPool`s of [`GROUP`] members.
pub fn core_pool_step_ns(inputs: &Inputs, service: &ServiceConfig) -> f64 {
    const TICKS: u64 = 2_048;
    const POOLS: u64 = 16;
    let mut pools: Vec<_> = (0..POOLS)
        .map(|_| {
            let mut pool = SessionPool::new(service.multi_config());
            let ids: Vec<_> = (0..GROUP).map(|_| pool.join()).collect();
            (pool, ids)
        })
        .collect();
    let started = Instant::now();
    for t in 0..TICKS {
        for (p, (pool, ids)) in pools.iter_mut().enumerate() {
            for (j, &id) in ids.iter().enumerate() {
                let key = p as u64 * GROUP as u64 + j as u64;
                let bits = inputs.arrival(key, t);
                if bits > 0.0 {
                    pool.submit(id, bits).expect("member is live");
                }
            }
            black_box(pool.tick());
        }
    }
    ns_since(started) / (POOLS * GROUP as u64 * TICKS) as f64
}

/// ns per `AdmissionController::request` (+ its release).
pub fn admission_request_ns(service: &ServiceConfig) -> f64 {
    const N: u32 = 200_000;
    let mut ctl = AdmissionController::new(service.budget, service.default_quota);
    let envelope = service.dedicated_envelope();
    let started = Instant::now();
    for _ in 0..N {
        black_box(ctl.request(black_box("alpha"), envelope)).expect("budget fits one");
        ctl.release("alpha", envelope);
    }
    ns_since(started) / f64::from(N)
}

/// ns per session-tick of `CheckpointProbe::tick` at the workload's
/// population. The probe feeds every session a uniform 8-bit arrival:
/// synthetic, unlike every other layer's input here.
pub fn shard_sweep_ns(service: &ServiceConfig, sessions: usize) -> f64 {
    let ticks = (2_000_000 / sessions).clamp(8, 2_000);
    let mut probe = CheckpointProbe::new(service);
    probe.populate(sessions);
    probe.tick(ticks / 4); // warm
    let started = Instant::now();
    probe.tick(ticks);
    ns_since(started) / (sessions * ticks) as f64
}

/// The checkpoint codec and mirror at the workload's population.
pub struct CodecNumbers {
    pub genesis_encode_ms: f64,
    pub incr_encode_ms: f64,
    pub genesis_bytes: f64,
    pub bytes_per_dirty_session: f64,
    pub apply_cold_ms: f64,
    pub apply_warm_ms: f64,
}

pub fn codec_and_mirror(service: &ServiceConfig, sessions: usize) -> Result<CodecNumbers, String> {
    let mut probe = CheckpointProbe::new(service);
    probe.populate(sessions);
    probe.tick(4);
    let mut genesis = Vec::new();
    let genesis_encode_ms = median_ns(5, || {
        probe.encode(true, &mut genesis);
        Ok(())
    })? / 1e6;
    // Between-tick churn dirties 1 % of the population: what an
    // incremental frame is built for. The churn itself is not timed.
    let dirty = (sessions / 100).max(1);
    let mut incr = Vec::new();
    let mut bytes_per_dirty = 0.0;
    let mut incr_ms = Vec::new();
    for _ in 0..5 {
        probe.churn(dirty);
        let started = Instant::now();
        let rows = probe.encode(false, &mut incr);
        incr_ms.push(ns_since(started) / 1e6);
        bytes_per_dirty = incr.len() as f64 / rows.max(1) as f64;
    }
    let incr_encode_ms = stats::median(&incr_ms).unwrap_or(0.0);

    let mut mirror = CheckpointMirror::new(service);
    let apply =
        |mirror: &mut CheckpointMirror| mirror.apply(&genesis).map(drop).map_err(|e| e.to_string());
    let apply_cold_ms = median_ns(1, || apply(&mut mirror))? / 1e6;
    let apply_warm_ms = median_ns(5, || apply(&mut mirror))? / 1e6;
    Ok(CodecNumbers {
        genesis_encode_ms,
        incr_encode_ms,
        genesis_bytes: genesis.len() as f64,
        bytes_per_dirty_session: bytes_per_dirty,
        apply_cold_ms,
        apply_warm_ms,
    })
}

/// Wire-codec cost of the workload's own arrival frames.
pub struct ProtoNumbers {
    pub encode_ns_per_arrival: f64,
    pub decode_ns_per_arrival: f64,
    pub bytes_per_arrival: f64,
}

/// Encodes and decodes the frames one period of ticks puts on the wire:
/// `StageNoAck` for the staged half (two-connection workloads) and
/// `TickSync` for the committed batch.
pub fn proto_numbers(inputs: &Inputs) -> Result<ProtoNumbers, String> {
    let shape = &inputs.shape;
    let keys = 0..shape.sessions() as u64;
    let split = if shape.connections == 2 {
        keys.end / 2
    } else {
        0
    };
    let mut frames = Vec::new();
    let mut arrivals = 0usize;
    for c in 0..shape.period as u64 {
        let mut staged = Vec::new();
        inputs.extend_batch(0..split, c, &mut staged);
        let mut committed = Vec::new();
        inputs.extend_batch(split..keys.end, c, &mut committed);
        arrivals += staged.len() + committed.len();
        let min_staged = (staged.len() + committed.len()) as u32;
        if split > 0 {
            frames.push(Frame::StageNoAck { arrivals: staged });
        }
        frames.push(Frame::TickSync {
            id: c + 1,
            arrivals: committed,
            min_staged,
        });
    }
    let arrivals = arrivals.max(1) as f64;
    let repeats = (2_000_000.0 / arrivals).clamp(1.0, 200.0) as usize;

    let mut encoded = Vec::new();
    let encode_ns = median_ns(repeats.max(3), || {
        encoded = frames.iter().map(|f| proto::encode(black_box(f))).collect();
        Ok(())
    })? / arrivals;
    let bytes: usize = encoded.iter().map(|b| b.len()).sum();
    let decode_ns = median_ns(repeats.max(3), || {
        for wire in &encoded {
            let mut buf = wire.clone();
            black_box(proto::decode(&mut buf).map_err(|e| e.to_string())?);
        }
        Ok(())
    })? / arrivals;
    Ok(ProtoNumbers {
        encode_ns_per_arrival: encode_ns,
        decode_ns_per_arrival: decode_ns,
        bytes_per_arrival: bytes as f64 / arrivals,
    })
}

/// `(encode ms, decode ms, bytes)` of the binary snapshot codec on the
/// run's own final snapshot.
pub fn snapshot_codec(snap: &GatewaySnapshot) -> Result<(f64, f64, f64), String> {
    let mut bytes = Vec::new();
    let encode_ms = median_ns(5, || {
        bytes = cdba_gateway::codec::encode_gateway_snapshot(black_box(snap));
        Ok(())
    })? / 1e6;
    let decode_ms = median_ns(5, || {
        let decoded = cdba_gateway::codec::decode_gateway_snapshot(&bytes);
        black_box(decoded.map_err(|e| e.to_string())?);
        Ok(())
    })? / 1e6;
    Ok((encode_ms, decode_ms, bytes.len() as f64))
}

/// `(overhead %, render ms)`: `ControlPlane::tick` with `attach_metrics`
/// on against off at the workload's population, in alternating blocks so
/// drift hits both sides, and one exposition render.
pub fn obs_overhead(inputs: &Inputs, seed: u64) -> Result<(f64, f64), String> {
    const BLOCK: u64 = 8;
    const BLOCKS: u64 = 6;
    let shape = &inputs.shape;
    let registry = Registry::new();
    let mut planes = [
        ControlPlane::new(shape.service(seed, false)),
        ControlPlane::new(shape.service(seed, false)),
    ];
    planes[1].attach_metrics(&registry);
    for plane in &mut planes {
        for i in 0..shape.dedicated {
            plane.admit(shape.tenant(i)).map_err(|e| e.to_string())?;
        }
    }
    let batches = inputs.prebuild(shape.dedicated_keys(0));
    let mut tick_ns: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for block in 0..=BLOCKS {
        for (plane, samples) in planes.iter_mut().zip(tick_ns.iter_mut()) {
            for t in block * BLOCK..(block + 1) * BLOCK {
                let started = Instant::now();
                plane
                    .tick(&batches[t as usize % shape.period])
                    .map_err(|e| e.to_string())?;
                if block > 0 {
                    samples.push(ns_since(started));
                }
            }
        }
    }
    let plain = stats::median(&tick_ns[0]).unwrap_or(1.0);
    let attached = stats::median(&tick_ns[1]).unwrap_or(plain);
    let render_ms = median_ns(5, || {
        black_box(registry.render());
        Ok(())
    })? / 1e6;
    let [a, b] = planes;
    a.shutdown();
    b.shutdown();
    Ok(((attached - plain) / plain * 100.0, render_ms))
}

/// Median `Fleet::tick` (µs) of the same fleet without its relay
/// (`gateways = 0`): what the relay hop is measured against.
pub fn fleet_direct_tick_us(inputs: &Inputs, cfg: &RunCfg) -> Result<f64, String> {
    const TICKS: u64 = 50;
    let shape = &inputs.shape;
    let mut fleet = start_fleet(inputs, cfg, 0)?;
    for i in 0..shape.dedicated {
        fleet.admit(shape.tenant(i)).map_err(|e| e.to_string())?;
    }
    let batches = inputs.prebuild(shape.dedicated_keys(0));
    let mut samples = Vec::with_capacity(TICKS as usize);
    for t in 0..shape.warm + TICKS {
        let started = Instant::now();
        fleet
            .tick(&batches[t as usize % shape.period])
            .map_err(|e| e.to_string())?;
        if t >= shape.warm {
            samples.push(ns_since(started) / 1e3);
        }
    }
    Ok(stats::median(&samples).unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::digest;
    use crate::inputs::{Kind, Scale, Shape};

    #[test]
    fn replay_is_deterministic_and_stops_where_asked() {
        let inputs = Inputs::generate(Shape::of(Kind::Churn, Scale::Smoke), 5).unwrap();
        let a = replay_in_process(&inputs, 5, &[10, 25]).unwrap();
        let b = replay_in_process(&inputs, 5, &[25]).unwrap();
        assert_eq!(a.snapshots.len(), 2);
        assert_eq!(a.tick_ns.len(), 25);
        assert_eq!(a.snapshots[0].ticks, inputs.shape.ticks_at(10));
        assert_eq!(digest(&a.snapshots[1]), digest(&b.snapshots[0]));
        assert_ne!(digest(&a.snapshots[0]), digest(&a.snapshots[1]));
    }

    #[test]
    fn layer_probes_return_positive_numbers() {
        let shape = Shape::of(Kind::Churn, Scale::Smoke);
        let service = shape.service(1, false);
        let inputs = Inputs::generate(shape, 1).unwrap();
        assert!(core_single_step_ns(&inputs, &service) > 0.0);
        assert!(core_pool_step_ns(&inputs, &service) > 0.0);
        assert!(admission_request_ns(&service) > 0.0);
        assert!(shard_sweep_ns(&service, 200) > 0.0);
        let codec = codec_and_mirror(&service, 200).unwrap();
        assert!(codec.genesis_bytes > codec.bytes_per_dirty_session);
        let proto = proto_numbers(&inputs).unwrap();
        assert!(proto.bytes_per_arrival >= 16.0, "key + bits per arrival");
    }
}
