//! Golden bytes of the columnar frame writer.
//!
//! For a fixed join/leave/tick script every frame must come out
//! byte-for-byte as pinned: a probe's genesis, a worker-emitted genesis
//! with a pooled group, and a one-row migration frame. A genesis is the
//! one frame kind.
//!
//! The digests were last re-pinned when frame v4 stopped carrying what
//! the kernel derives: the algorithm and delay clocks, the open stage's
//! start, the high window and its length (a suffix of `recent`), and a
//! row's group and member (the group section lists them), while the
//! ring's allocation half became `alloc_runs`. The v3 lengths are kept
//! beside the new pins, and every frame is held to the length identity
//! between the two schemas, computed from the frame's own contents — so
//! those columns are provably the only thing that moved. (Frame v3 had
//! replaced v2's ragged per-stage records the same way.)

use cdba_ctrl::{CheckpointProbe, ControlPlane, ExecMode, ServiceConfig, ServiceConfigBuilder};
use cdba_integration::{fnv1a, frame_column, with_columns};

/// What [`v3_len`] needs of a v4 frame, read by walking the documented
/// layout: header, tenant table, self-describing columns.
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

/// The length the v3 encoder gave the frame `v4` now encodes. Per row,
/// v3 also wrote `alg_tick`, `delay_tick`, `stage_open_start`, `group`
/// and `member` (8 bytes each) and `high_len` (4), but no 4-byte
/// `alloc_runs_len`; an open stage's `min(stage ticks, W)` high-window
/// cells (8 bytes each); and each ring entry as an `(arrivals,
/// allocation)` pair (16 bytes) where v4 writes the arrival (8) and
/// 16 bytes per allocation run. The schema lost seven entries (119
/// bytes around 57 of names) and gained two (34 around 24). The header,
/// tenant table and every tail section are the same bytes.
fn v3_len(v4: &[u8]) -> usize {
    const F_STAGE_OPEN: u32 = 8;
    let mut w = Walk { buf: v4, at: 0 };
    assert_eq!(w.u8(), 4, "frame version");
    w.at += 1 + 8; // kind, ticks
    let rows = w.u32() as usize;
    let window = u64::from(w.u32());
    w.at += 6 * 8; // cost ×2, b_max, d_o, u_o, stages_retired
    for _ in 0..w.u32() {
        w.str();
    }
    let (mut open, mut stage_ticks) = (Vec::new(), Vec::new());
    let (mut recent, mut runs) = (0u64, 0u64);
    for _ in 0..w.u32() {
        let name = w.str();
        w.at += 1 + 4; // type, width
        let (count, body) = (w.u32(), w.u32() as usize);
        match name.as_str() {
            "flags" => open = (0..count).map(|_| w.u32() & F_STAGE_OPEN != 0).collect(),
            "stage_ticks" => stage_ticks = (0..count).map(|_| w.u64()).collect(),
            "recent_len" => recent = (0..count).map(|_| u64::from(w.u32())).sum(),
            "alloc_runs_len" => runs = (0..count).map(|_| u64::from(w.u32())).sum(),
            _ => w.at += body,
        }
    }
    let high: u64 = open
        .iter()
        .zip(&stage_ticks)
        .map(|(&open, &t)| if open { t.min(window) } else { 0 })
        .sum();
    let schema = (7 * 17 + 57) - (2 * 17 + 24);
    v4.len() + 40 * rows + (8 * high + 8 * recent - 16 * runs) as usize + schema
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
    assert_eq!(v3_len(&genesis), 25729, "genesis vs the v3 schema");
    assert_eq!(
        (genesis.len(), fnv1a(&genesis)),
        (18755, 9165361665128617614),
        "genesis"
    );
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
    assert_eq!(v3_len(genesis), 5674, "worker genesis vs the v3 schema");
    assert_eq!(
        (genesis.len(), fnv1a(genesis)),
        (4412, 3807408090775053015),
        "worker genesis at tick 16"
    );

    let blob = service.export_session(live[2]).unwrap();
    assert_eq!(blob.capacity(), blob.len());
    assert_eq!(v3_len(&blob), 1609, "migration frame vs the v3 schema");
    assert_eq!(
        (blob.len(), fnv1a(&blob)),
        (1339, 16647146029230336001),
        "migration frame"
    );
    service.shutdown();
}

/// Bytes of a one-row frame's column bodies: the row itself, without the
/// header, schema and tenant table every frame pays once.
fn row_bytes(frame: &[u8]) -> usize {
    const COLUMNS: [&str; 32] = [
        "key",
        "tenant",
        "flags",
        "shadow_backlog",
        "current_alloc",
        "peak_alloc",
        "total_arrived",
        "total_served",
        "total_allocated",
        "window_arrived",
        "window_allocated",
        "backlog",
        "b_on",
        "low_total",
        "low_low",
        "high_window_sum",
        "high_min_window_sum",
        "min_util",
        "max_delay_exact",
        "stage_ticks",
        "meter_ticks",
        "changes",
        "max_delay",
        "stages_completed",
        "hull_len",
        "hull",
        "recent_len",
        "recent",
        "alloc_runs_len",
        "alloc_runs",
        "pend_len",
        "pend",
    ];
    COLUMNS.iter().map(|c| frame_column(frame, c).len()).sum()
}

/// What one dedicated row costs at `W` = 16, pinned to the byte, as the
/// one-row lease frame a session migrates in. Steady arrivals hold its
/// allocation at one value over the window: one 16-byte run. The same
/// session with an allocation that changed every tick — the run-length
/// worst case, 16 runs — costs 240 bytes more: 256 bytes of runs, more
/// than the 128-byte allocation half frame v3 gave every row. The paper's
/// objective keeps changes rare (at most `log2 B_A + 1` per stage), and
/// the rows of a 100k-session genesis average about two runs. Either row
/// is smaller than frame v3 made it.
#[test]
fn a_row_at_w_16_costs_its_pinned_bytes() {
    let plane = || {
        let cfg = ServiceConfig::builder(4096.0)
            .session_b_max(16.0)
            .offline_delay(4)
            .window(16)
            .exec(ExecMode::Inline)
            .build()
            .unwrap();
        ControlPlane::new(cfg)
    };
    let mut src = plane();
    let key = src.admit("acme").unwrap();
    for _ in 0..40 {
        src.tick(&[(key, 2.0)]).unwrap();
    }
    let steady = src.export_session(key).unwrap();
    assert_eq!(frame_column(&steady, "alloc_runs_len"), 1u32.to_le_bytes());
    assert_eq!(
        (steady.len(), row_bytes(&steady)),
        (1369, 408),
        "single-run row"
    );

    let mut runs = Vec::new();
    for j in 0..16u64 {
        runs.extend_from_slice(&1u64.to_le_bytes());
        runs.extend_from_slice(&(2.0 + (j % 2) as f64).to_le_bytes());
    }
    let churned = with_columns(
        &steady,
        &[
            ("alloc_runs", &runs),
            ("alloc_runs_len", &16u32.to_le_bytes()),
        ],
    );
    let mut dst = plane();
    let key = dst.import_session(&churned).unwrap();
    let worst = dst.export_session(key).unwrap();
    assert_eq!(worst, churned, "the imported history re-exports as it came");
    assert_eq!(
        (worst.len(), row_bytes(&worst)),
        (1609, 648),
        "a change every tick"
    );
    assert_eq!(row_bytes(&worst) - row_bytes(&steady), 15 * 16);
    // Frame v3 wrote both as the same 1,767 bytes: with the high window
    // and the clocks it carried, even the worst case is smaller now.
    assert_eq!((v3_len(&steady), v3_len(&worst)), (1767, 1767));
}
