//! Golden bytes of the columnar frame writer.
//!
//! For a fixed join/leave/tick script every frame kind must come out
//! byte-for-byte as pinned: a dense genesis, a sparse incremental (rows,
//! tombstones and a retired suffix), a worker-emitted genesis with a
//! pooled group, and a one-row migration frame.
//!
//! The digests were re-pinned once, when frame v3 replaced the ragged
//! `stage_len`/`stages` columns (a 17-byte record per stage a session
//! ever ran) with the fixed `stages_completed`/`stage_open_start`
//! columns. The v2 lengths are kept beside them and every frame is held
//! to the length identity between the two schemas, computed from the
//! frame's own contents — so the stage columns (and the pool's stage
//! log, bounded the same way) are provably the only thing that moved.

use cdba_ctrl::{CheckpointProbe, ControlPlane, ExecMode, ServiceConfig, ServiceConfigBuilder};
use cdba_integration::fnv1a;

/// What [`v2_len`] needs of a v3 frame, read by walking the documented
/// layout: header, tenant table, self-describing columns, group section.
struct Walk<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Walk<'_> {
    fn u8(&mut self) -> u8 {
        self.at += 1;
        self.buf[self.at - 1]
    }

    fn u32(&mut self) -> u32 {
        self.at += 4;
        u32::from_le_bytes(self.buf[self.at - 4..self.at].try_into().unwrap())
    }

    fn u64(&mut self) -> u64 {
        self.at += 8;
        u64::from_le_bytes(self.buf[self.at - 8..self.at].try_into().unwrap())
    }

    fn str(&mut self) -> String {
        let n = self.u32() as usize;
        self.at += n;
        String::from_utf8(self.buf[self.at - n..self.at].to_vec()).unwrap()
    }
}

/// The length the v2 encoder gave the frame `v3` now encodes: per row the
/// 4-byte `stage_len` cell instead of two 8-byte cells, 17 bytes per
/// stage record (one per completed stage plus the open one), 17 fewer
/// bytes of column names, no 8-byte retired-stage count in the header,
/// and per pooled group a stage log without the 8-byte forgotten count
/// but with its closed records (18 bytes each).
fn v2_len(v3: &[u8]) -> usize {
    const F_STAGE_OPEN: u32 = 8;
    let mut w = Walk { buf: v3, at: 0 };
    assert_eq!(w.u8(), 3, "frame version");
    w.at += 1 + 8; // kind, ticks
    let rows = w.u32() as usize;
    w.at += 4 + 6 * 8; // w, cost ×2, b_max, d_o, u_o, stages_retired
    for _ in 0..w.u32() {
        w.str();
    }
    let (mut completed, mut open) = (0u64, 0u64);
    for _ in 0..w.u32() {
        let name = w.str();
        w.at += 1 + 4; // type, width
        let (count, body) = (w.u32(), w.u32() as usize);
        match name.as_str() {
            "stages_completed" => completed = (0..count).map(|_| w.u64()).sum(),
            "flags" => {
                open = (0..count)
                    .map(|_| u64::from(w.u32() & F_STAGE_OPEN != 0))
                    .sum()
            }
            _ => w.at += body,
        }
    }
    let mut group_delta = 0i64;
    for _ in 0..w.u32() {
        w.at += 8 + 3 * 8; // group id; pool k, b_o, d_o
        w.at += w.u32() as usize * 41; // slots
        w.at += w.u32() as usize * 16; // pending
        w.at += 3 * 8; // next_id, tick, phase_anchor
        let forgotten = w.u64() as i64;
        group_delta += 18 * forgotten - 8;
        for _ in 0..w.u32() {
            w.at += 8; // start
            w.at += if w.u8() == 1 { 8 } else { 0 }; // end
            w.at += 1; // kind
        }
        w.at += 8; // membership_changes
        w.at += w.u32() as usize * 16; // members
    }
    let records = (completed + open) as i64;
    let rows = rows as i64;
    (v3.len() as i64 + 4 * rows + 17 * records - 16 * rows - 17 - 8 + group_delta) as usize
}

fn builder() -> ServiceConfigBuilder {
    ServiceConfig::builder(65_536.0)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(4)
        .window(8)
}

/// Six dedicated sessions and a pooled group of three under determined
/// arrivals, with one leave/admit swap at tick 9.
fn drive(service: &mut ControlPlane, ticks: u64) -> Vec<u64> {
    let mut live: Vec<u64> = Vec::new();
    for i in 0..6 {
        live.push(service.admit(["acme", "globex"][i % 2]).unwrap());
    }
    live.extend(service.admit_group("initech", 3).unwrap());
    for t in 0..ticks {
        if t == 9 {
            service.leave(live.remove(0)).unwrap();
            live.push(service.admit("acme").unwrap());
        }
        let arrivals: Vec<(u64, f64)> = live
            .iter()
            .enumerate()
            .map(|(i, &key)| (key, ((t + 3 * i as u64) % 5) as f64))
            .collect();
        service.tick(&arrivals).unwrap();
    }
    live
}

#[test]
fn probe_frames_match_the_pinned_encoder_bytes() {
    let cfg = builder().build().unwrap();
    let mut probe = CheckpointProbe::new(&cfg);
    probe.populate(48);
    probe.tick(12);
    probe.churn(5);
    probe.tick(3);
    probe.populate(8);

    let mut genesis = Vec::new();
    assert_eq!(probe.encode(true, &mut genesis), 51);
    assert_eq!(
        genesis.capacity(),
        genesis.len(),
        "a fresh output buffer is allocated once, at the exact frame length"
    );
    assert_eq!(
        (genesis.len(), fnv1a(&genesis)),
        (25729, 5482621478610822418),
        "genesis"
    );
    assert_eq!(v2_len(&genesis), 25959, "genesis vs the v2 schema");

    // Between-tick churn: exactly the six churned rows travel.
    probe.churn(6);
    let mut sparse = Vec::new();
    let rows = probe.encode(false, &mut sparse);
    assert_eq!(sparse.capacity(), sparse.len());
    assert_eq!(
        (rows, sparse.len(), fnv1a(&sparse)),
        (6, 4210, 4851411260549745964),
        "sparse incremental"
    );
    assert_eq!(v2_len(&sparse), 4215, "sparse incremental vs the v2 schema");

    // A reused buffer is refilled in place. The ticks retire drained
    // leavers, so this frame carries tombstones and a retired suffix.
    probe.tick(6);
    let rows = probe.encode(false, &mut sparse);
    assert_eq!(
        (rows, sparse.len(), fnv1a(&sparse)),
        (45, 24606, 7937048438536350701),
        "dense incremental"
    );
    assert_eq!(v2_len(&sparse), 24806, "dense incremental vs the v2 schema");
}

#[test]
fn worker_genesis_and_migration_frames_match_the_pinned_encoder_bytes() {
    let cfg = builder()
        .shards(1)
        .exec(ExecMode::Threaded)
        .checkpoint_every(8)
        .build()
        .unwrap();
    let mut service = ControlPlane::new(cfg);
    let live = drive(&mut service, 20);
    // The snapshot's Collect is answered after the tick-16 emission.
    service.snapshot().unwrap();
    let (_, frames) = service.checkpoint_frames_since(0, 0).unwrap();
    let (kind, genesis) = frames.last().expect("a retained frame");
    assert_eq!(*kind, 0);
    assert_eq!(
        (genesis.len(), fnv1a(genesis)),
        (5674, 17927961569003828009),
        "worker genesis at tick 16"
    );
    assert_eq!(v2_len(genesis), 5689, "worker genesis vs the v2 schema");

    let blob = service.export_session(live[2]).unwrap();
    assert_eq!(blob.capacity(), blob.len());
    assert_eq!(
        (blob.len(), fnv1a(&blob)),
        (1609, 16060290946037241993),
        "migration frame"
    );
    assert_eq!(v2_len(&blob), 1589, "migration frame vs the v2 schema");
    service.shutdown();
}
