//! Golden bytes of the columnar frame writer.
//!
//! For a fixed join/leave/tick script every frame must come out
//! byte-for-byte as pinned: a probe's genesis, a worker-emitted genesis
//! with a pooled group, and a one-row migration frame. A genesis is the
//! one frame kind.
//!
//! The digests were last re-pinned when frame v5 gave each column the
//! narrowest width that holds its cells bit for bit, split the three
//! pair columns in two, and stopped carrying the delay FIFO's entries
//! that the window covers. The v4 lengths are kept beside the new pins,
//! and every frame is held to the length identity between the two
//! schemas, computed from the frame's own contents — so widths and the
//! FIFO's tail are provably the only thing that moved. (Frame v4 had
//! dropped v3's derived columns the same way.)

use cdba_bench::replay::ReplaySpec;
use cdba_ctrl::{CheckpointProbe, ControlPlane, ExecMode, ServiceConfig, ServiceConfigBuilder};
use cdba_integration::{column_width, fnv1a, frame_column, with_columns, Cells};

/// What [`v4_len`] needs of a v5 frame, read by walking the documented
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

    fn unsigned(&mut self, width: usize) -> u64 {
        let mut le = [0u8; 8];
        le[..width].copy_from_slice(&self.buf[self.at..self.at + width]);
        self.at += width;
        u64::from_le_bytes(le)
    }

    fn str(&mut self) -> String {
        let n = self.u32() as usize;
        self.at += n;
        String::from_utf8(self.buf[self.at - n..self.at].to_vec()).unwrap()
    }
}

/// The length the v4 encoder gave the frame `v5` now encodes. v4 wrote
/// every cell at full width: `tenant`, `flags` and the `*_len` columns
/// in 4 bytes, every other cell in 8 (a pair in 16, which v5 splits into
/// two columns of 8-byte halves). It also wrote the whole delay FIFO, one
/// 16-byte pair per entry of `pend_len`, where v5 writes the head and
/// the spill only. A v4 schema entry was 17 bytes around its name
/// (a 4-byte width) and v5's is 14 (a 1-byte width); v4 had 32 entries
/// and v5 has 35, the three pair names (18 bytes) becoming six (61). The
/// header, tenant table and every tail section are the same bytes.
fn v4_len(v5: &[u8]) -> usize {
    let mut w = Walk { buf: v5, at: 0 };
    assert_eq!(w.u8(), 5, "frame version");
    w.at += 1 + 8 + 4 + 4 + 6 * 8; // kind, ticks, rows, W, cost ×2, b_max, d_o, u_o, stages_retired
    for _ in 0..w.u32() {
        w.str();
    }
    let (mut narrowed, mut queued, mut held) = (0, 0, 0);
    for _ in 0..w.u32() {
        let name = w.str();
        w.at += 1; // kind
        let width = usize::from(w.u8());
        let (count, body) = (w.u32() as usize, w.u32() as usize);
        let v4_width = match name.as_str() {
            "tenant" | "flags" => 4,
            _ if name.ends_with("_len") => 4,
            _ => 8,
        };
        narrowed += count * (v4_width - width);
        match name.as_str() {
            "pend_len" => queued = (0..count).map(|_| w.unsigned(width) as usize).sum(),
            "pend_age" => (held, w.at) = (count, w.at + body),
            _ => w.at += body,
        }
    }
    let schema = (32 * 17 + 18) - (35 * 14 + 61);
    v5.len() + narrowed + 16 * (queued - held) + schema
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
    assert_eq!(v4_len(&genesis), 18755, "genesis vs the v4 schema");
    assert_eq!(
        (genesis.len(), fnv1a(&genesis)),
        (8238, 11622816720413789228),
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
    assert_eq!(v4_len(genesis), 4412, "worker genesis vs the v4 schema");
    assert_eq!(
        (genesis.len(), fnv1a(genesis)),
        (2901, 8751929270405163112),
        "worker genesis at tick 16"
    );

    let blob = service.export_session(live[2]).unwrap();
    assert_eq!(blob.capacity(), blob.len());
    assert_eq!(v4_len(&blob), 1339, "migration frame vs the v4 schema");
    assert_eq!(
        (blob.len(), fnv1a(&blob)),
        (1114, 3400064998222166966),
        "migration frame"
    );
    service.shutdown();
}

/// Bytes of a one-row frame's column bodies: the row itself, without the
/// header, schema and tenant table every frame pays once.
fn row_bytes(frame: &[u8]) -> usize {
    const COLUMNS: [&str; 35] = [
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
        "hull_x",
        "hull_y",
        "recent_len",
        "recent",
        "alloc_runs_len",
        "alloc_runs_ticks",
        "alloc_runs_value",
        "pend_len",
        "pend_age",
        "pend_bits",
    ];
    COLUMNS.iter().map(|c| frame_column(frame, c).len()).sum()
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
        (1120, 170),
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
        (1195, 245),
        "a change every tick"
    );
    assert_eq!(row_bytes(&worst) - row_bytes(&steady), 15 * 5);
    // Frame v4 wrote them as 1,369 and 1,609 bytes.
    assert_eq!((v4_len(&steady), v4_len(&worst)), (1369, 1609));
}

/// A frame shaped like the benchmark's: dedicated sessions at `W` = 16
/// replaying 32-tick on/off rows whose arrivals are multiples of 1/64,
/// the worker cutting a frame every 64 ticks. Every integer column, and
/// every float column whose cells the dyadic traffic keeps `f32`-exact,
/// narrows: a row weighs at most 200 bytes, where frame v4 wrote about
/// 428. (Keys below 65,536 take two bytes here, a 100k population's
/// four.)
#[test]
fn a_bench_shaped_frame_weighs_under_200_bytes_a_row() {
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
    let mut plane = ControlPlane::new(cfg);
    let registry = cdba_obs::Registry::new();
    plane.attach_metrics(&registry);
    let keys: Vec<u64> = (0..SESSIONS)
        .map(|_| plane.admit("acme").unwrap())
        .collect();
    for t in 0..160 {
        let arrivals: Vec<(u64, f64)> = keys
            .iter()
            .map(|&k| (k, rows[k as usize % rows.len()][t % 32]))
            .filter(|&(_, bits)| bits > 0.0)
            .collect();
        plane.tick(&arrivals).unwrap();
    }
    // The snapshot's reply queues behind the tick-128 frame.
    plane.snapshot().unwrap();
    let (_, frames) = plane.checkpoint_frames_since(0, 0).unwrap();
    let frame = frames.last().expect("a retained frame").1.to_vec();
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
    let (v5, v4) = (frame.len() / SESSIONS, v4_len(&frame) / SESSIONS);
    assert!(v5 <= 200, "{v5} B a row");
    assert!((400..=460).contains(&v4), "frame v4 wrote {v4} B a row");
    for narrow in ["recent", "alloc_runs_value", "hull_y", "current_alloc"] {
        assert_eq!(column_width(&frame, narrow), 4, "{narrow}");
    }
}
