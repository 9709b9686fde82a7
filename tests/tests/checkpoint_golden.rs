//! Golden bytes of the columnar frame writer.
//!
//! For a fixed join/leave/tick script every frame must come out
//! byte-for-byte as pinned: a probe's genesis, a worker-emitted genesis
//! with a pooled group, and a one-row migration frame. A genesis is the
//! one frame kind.
//!
//! The digests were last re-pinned when frame v6 wrote each column whose
//! zero cells outweigh a bitmap as that bitmap plus its non-zero cells.
//! The v5 lengths are kept beside the new pins, and every frame is held
//! to the length identity between the two layouts, computed from the
//! frame's own contents — so the sparse bodies are provably the only
//! thing that moved. (Frame v5 had narrowed v4's cells and dropped the
//! FIFO's window-covered tail the same way, and its v4 lengths are held
//! here too.)

use cdba_bench::replay::ReplaySpec;
use cdba_ctrl::{
    CheckpointMirror, CheckpointProbe, ControlPlane, ExecMode, ServiceConfig, ServiceConfigBuilder,
};
use cdba_integration::{
    column_sparse, column_u64s, column_width, fnv1a, frame_column, frame_columns, image_frames,
    with_columns, Cells,
};

/// The length the v5 encoder gave the frame `v6` now encodes. v5 wrote
/// every column dense, `count × width` bytes; v6 writes a column sparse
/// when a bitmap of one bit per cell plus its non-zero cells is smaller.
/// The schema entries, header, tenant table and tail sections are the
/// same bytes.
fn v5_len(v6: &[u8]) -> usize {
    assert_eq!(v6[0], 6, "frame version");
    let sparse = frame_columns(v6).into_iter().filter(|c| c.sparse);
    v6.len() + sparse.map(|c| c.count * c.width - c.body).sum::<usize>()
}

/// The length the v4 encoder gave the frame `v6` now encodes. v4 wrote
/// every cell at full width: `tenant`, `flags` and the `*_len` columns
/// in 4 bytes, every other cell in 8 (a pair in 16, which v5 splits into
/// two columns of 8-byte halves). It also wrote the whole delay FIFO, one
/// 16-byte pair per entry of `pend_len`, where v5 writes the head and
/// the spill only. A v4 schema entry was 17 bytes around its name
/// (a 4-byte width) and v5's is 14 (a 1-byte width); v4 had 32 entries
/// and v5 has 35, the three pair names (18 bytes) becoming six (61).
fn v4_len(v6: &[u8]) -> usize {
    let (mut narrowed, mut held) = (0, 0);
    for c in frame_columns(v6) {
        let v4_width = match c.name.as_str() {
            "tenant" | "flags" => 4,
            name if name.ends_with("_len") => 4,
            _ => 8,
        };
        narrowed += c.count * (v4_width - c.width);
        if c.name == "pend_age" {
            held = c.count;
        }
    }
    let queued: u64 = column_u64s(v6, "pend_len").iter().sum();
    let schema = (32 * 17 + 18) - (35 * 14 + 61);
    v5_len(v6) + narrowed + 16 * (queued as usize - held) + schema
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
    assert_eq!(v5_len(&genesis), 8238, "genesis vs the v5 layout");
    assert_eq!(v4_len(&genesis), 18755, "genesis vs the v4 schema");
    assert_eq!(
        (genesis.len(), fnv1a(&genesis)),
        (7482, 7519993975074719591),
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
    // The worker writes the frame its tick-16 checkpoint retains.
    let mut service = ControlPlane::new(cfg.clone());
    drive(&mut service, 16);
    let mut image = Vec::new();
    service.cut_image(&mut image).unwrap();
    service.shutdown();
    let genesis = image_frames(&image)[0];
    assert_eq!(v5_len(genesis), 2901, "worker genesis vs the v5 layout");
    assert_eq!(v4_len(genesis), 4412, "worker genesis vs the v4 schema");
    assert_eq!(
        (genesis.len(), fnv1a(genesis)),
        (2709, 10067079759653757795),
        "worker genesis at tick 16"
    );

    let mut service = ControlPlane::new(cfg);
    let live = drive(&mut service, 20);
    let blob = service.export_session(live[2]).unwrap();
    assert_eq!(blob.capacity(), blob.len());
    assert_eq!(v5_len(&blob), 1114, "migration frame vs the v5 layout");
    assert_eq!(v4_len(&blob), 1339, "migration frame vs the v4 schema");
    assert_eq!(
        (blob.len(), fnv1a(&blob)),
        (1101, 4267875291682518673),
        "migration frame"
    );
    service.shutdown();
}

/// Bytes of a one-row frame's column bodies: the row itself, without the
/// header, schema and tenant table every frame pays once.
fn row_bytes(frame: &[u8]) -> usize {
    frame_columns(frame).iter().map(|c| c.body).sum()
}

/// What one dedicated row costs at `W` = 16, pinned to the byte, as the
/// one-row lease frame a session migrates in. Steady arrivals hold its
/// allocation at one value over the window: one run. The same session
/// with an allocation that changed every tick — the run-length worst
/// case, 16 runs — costs 75 bytes more: five a run, a one-byte length and
/// a four-byte power-of-two value. The paper's objective keeps changes
/// rare (at most `log2 B_A + 1` per stage), and the rows of a
/// 100k-session genesis average about two runs. Frame v4 wrote every
/// cell of either row at full width, 16 bytes a run.
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
    assert_eq!(frame_column(&steady, "alloc_runs_len"), [1]);
    assert_eq!(
        (steady.len(), row_bytes(&steady)),
        (1114, 164),
        "single-run row"
    );

    let values: Vec<f64> = (0..16).map(|j| 2.0 + (j % 2) as f64).collect();
    let churned = with_columns(
        &steady,
        &[
            ("alloc_runs_ticks", Cells::Unsigned(&[1; 16])),
            ("alloc_runs_value", Cells::Float(&values)),
            ("alloc_runs_len", Cells::Unsigned(&[16])),
        ],
    );
    let mut dst = plane();
    let key = dst.import_session(&churned).unwrap();
    let worst = dst.export_session(key).unwrap();
    assert_eq!(worst, churned, "the imported history re-exports as it came");
    assert_eq!(
        (worst.len(), row_bytes(&worst)),
        (1189, 239),
        "a change every tick"
    );
    assert_eq!(row_bytes(&worst) - row_bytes(&steady), 15 * 5);
    // Frame v5 wrote them as 1,120 and 1,195 bytes, v4 as 1,369 and 1,609.
    assert_eq!((v5_len(&steady), v5_len(&worst)), (1120, 1195));
    assert_eq!((v4_len(&steady), v4_len(&worst)), (1369, 1609));
}

/// A frame shaped like the benchmark's: dedicated sessions at `W` = 16
/// replaying 32-tick on/off rows whose arrivals are multiples of 1/64,
/// the worker cutting a frame every 64 ticks. Every integer column, and
/// every float column whose cells the dyadic traffic keeps `f32`-exact,
/// narrows, and every column whose zero cells outweigh a bitmap — `recent`
/// most of all, the idle ticks of the window — is written sparse: a row
/// weighs at most 105 bytes (95 measured), where frame v5 wrote about 178
/// and v4 about 408. (Keys below 65,536 take two bytes here, a 100k
/// population's four.) The frame goes through a mirror and back to the
/// same bytes: one state, one encoding.
#[test]
fn a_bench_shaped_frame_weighs_under_105_bytes_a_row() {
    const SESSIONS: usize = 2048;
    let spec = ReplaySpec {
        sessions: SESSIONS,
        ticks: 32,
        pool_frac: 0.0,
        churn_every: 0,
        ..ReplaySpec::default()
    };
    let bank = spec.bank().unwrap();
    let rows: Vec<Vec<f64>> = bank
        .sessions()
        .iter()
        .map(|row| {
            let quantized = row.arrivals().iter().map(|a| (a * 64.0).floor() / 64.0);
            quantized.collect()
        })
        .collect();
    let cfg = spec
        .service_builder(spec.default_budget())
        .shards(1)
        .exec(ExecMode::Threaded)
        .checkpoint_every(64)
        .build()
        .unwrap();
    let mut plane = ControlPlane::new(cfg.clone());
    let registry = cdba_obs::Registry::new();
    plane.attach_metrics(&registry);
    let keys: Vec<u64> = (0..SESSIONS)
        .map(|_| plane.admit("acme").unwrap())
        .collect();
    let mut frame = Vec::new();
    for t in 0..160 {
        let arrivals: Vec<(u64, f64)> = keys
            .iter()
            .map(|&k| (k, rows[k as usize % rows.len()][t % 32]))
            .filter(|&(_, bits)| bits > 0.0)
            .collect();
        plane.tick(&arrivals).unwrap();
        if t + 1 == 128 {
            // The frame the tick-128 checkpoint retains.
            let mut image = Vec::new();
            plane.cut_image(&mut image).unwrap();
            frame = image_frames(&image)[0].to_vec();
        }
    }
    // The snapshot's reply queues behind the tick-128 frame.
    plane.snapshot().unwrap();
    plane.shutdown();
    let text = registry.render();
    let gauge = text
        .lines()
        .find_map(|l| l.strip_prefix("cdba_ctrl_checkpoint_retained_bytes{shard=\"0\"} "))
        .expect("the retained-bytes gauge is exported");
    assert_eq!(
        gauge.parse::<f64>().unwrap(),
        frame.len() as f64,
        "the retained bytes"
    );
    let per_row = |len: usize| len / SESSIONS;
    let (v6, v5, v4) = (
        per_row(frame.len()),
        per_row(v5_len(&frame)),
        per_row(v4_len(&frame)),
    );
    assert!(v6 <= 105, "{v6} B a row");
    assert!((170..=200).contains(&v5), "frame v5 wrote {v5} B a row");
    assert!((400..=460).contains(&v4), "frame v4 wrote {v4} B a row");
    for narrow in ["recent", "alloc_runs_value", "hull_y", "current_alloc"] {
        assert_eq!(column_width(&frame, narrow), 4, "{narrow}");
    }
    assert!(column_sparse(&frame, "recent"), "the idle ticks cost a bit");
    let mut mirror = CheckpointMirror::new(&cfg);
    assert_eq!(mirror.apply(&frame).unwrap(), SESSIONS as u64);
    let mut again = Vec::new();
    mirror.encode(&mut again);
    assert!(again == frame, "the frame re-encodes to other bytes");
}
