//! Process images of the control plane: a plane cut at a tick boundary
//! and restored into a fresh one runs on exactly as the original — the
//! same keys, snapshots, refusals and budget — whichever executor cut it
//! and whichever restores it. An image the fresh plane refuses is refused
//! typed, before anything changes, so the plane stays fresh.

use cdba_ctrl::{ControlPlane, CtrlError, ExecMode, PlaneImage, ServiceConfig};
use cdba_integration::{column_f64s, with_columns, Cells};

/// Fits 16 dedicated sessions (16 bits each), or fewer beside groups
/// (32 each).
const BUDGET: f64 = 256.0;

fn config(exec: ExecMode, shards: usize) -> ServiceConfig {
    ServiceConfig::builder(BUDGET)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(4)
        .window(8)
        .shards(shards)
        .exec(exec)
        .checkpoint_every(16)
        .build()
        .expect("valid test config")
}

/// Bits session `key` submits at tick `t` of a script: on/off, and never
/// the same for two neighbouring keys.
fn bits(key: u64, t: u64) -> f64 {
    ((key * 7 + t * 3) % 11) as f64 * 0.75
}

fn tick(plane: &mut ControlPlane, live: &[u64], t: u64) {
    let arrivals: Vec<(u64, f64)> = live.iter().map(|&k| (k, bits(k, t))).collect();
    plane.tick(&arrivals).expect("tick");
}

/// Brings `plane` to the state the image is cut in: dedicated sessions
/// of three tenants, two pooled groups (one later left whole, one by a
/// member), a migrated-in session, a rejected admission, retired
/// sessions, and a session still draining its backlog. Returns the live
/// keys.
fn prefix(plane: &mut ControlPlane) -> Vec<u64> {
    let mut donor = ControlPlane::new(config(ExecMode::Inline, 1));
    let migrant = donor.admit("donor").expect("donor admit");
    for t in 0..10 {
        donor.tick(&[(migrant, bits(3, t))]).expect("donor tick");
    }
    let blob = donor.export_session(migrant).expect("export");

    let mut live: Vec<u64> = (0..10)
        .map(|i| {
            plane
                .admit(["acme", "globex", "initech"][i % 3])
                .expect("admit")
        })
        .collect();
    let pool_a = plane.admit_group("pool-a", 3).expect("group a");
    let pool_b = plane.admit_group("pool-b", 2).expect("group b");
    live.extend(&pool_a);
    live.extend(&pool_b);
    for t in 0..40 {
        match t {
            10 => {
                live.push(plane.import_session(&blob).expect("import"));
                live.push(plane.admit("acme").expect("admit"));
                // The budget is full now: this one is counted as rejected.
                assert!(matches!(
                    plane.admit("globex"),
                    Err(CtrlError::Admission(_))
                ));
            }
            15 => {
                let gone = live.remove(0);
                plane.leave(gone).expect("leave");
            }
            20 => {
                live.retain(|&k| k != pool_a[1]);
                plane.leave(pool_a[1]).expect("pooled leave");
            }
            25 => {
                for k in &pool_b {
                    live.retain(|l| l != k);
                    plane.leave(*k).expect("group leaves whole");
                }
            }
            _ => {}
        }
        tick(plane, &live, t);
    }
    // A leave with a backlog the cut finds still draining.
    let drained = live.remove(1);
    plane.tick(&[(drained, 600.0)]).expect("burst");
    plane.leave(drained).expect("leave with a backlog");
    live
}

/// The same operations on any plane after the cut, logged: admissions
/// up to and past the budget, a group, leaves, ticks, a restart of every
/// shard before the restored plane's first checkpoint, a migration out,
/// and the end state.
fn continuation(plane: &mut ControlPlane, mut live: Vec<u64>) -> Vec<String> {
    let mut log = Vec::new();
    for t in 41..90 {
        match t {
            43 => {
                for shard in 0..plane.config().shards {
                    plane.restart_shard(shard).expect("restart");
                }
            }
            45 => {
                for tenant in ["acme", "acme", "globex", "initech", "hooli", "acme"] {
                    let admitted = plane.admit(tenant);
                    log.push(format!("{admitted:?}"));
                    live.extend(admitted.ok());
                }
            }
            50 => {
                let left = live.remove(2);
                log.push(format!("{:?}", plane.leave(left)));
                let group = plane.admit_group("pool-c", 2);
                log.push(format!("{group:?}"));
                live.extend(group.into_iter().flatten());
                log.push(format!("{:?}", plane.leave(10_000)));
            }
            60 => {
                let moved = live.remove(0);
                let blob = plane.export_session(moved).expect("export");
                log.push(format!("{blob:?}"));
            }
            _ => {}
        }
        tick(plane, &live, t);
    }
    let snap = plane.snapshot().expect("snapshot");
    log.push(format!("{:?}", snap.invariant_view()));
    log.push(format!(
        "admitted {} rejected {} live {} ticks {} budget {:x}",
        snap.admitted,
        snap.rejected,
        plane.live_sessions(),
        plane.ticks(),
        plane.available_budget().to_bits(),
    ));
    log
}

/// Cuts `from` after the prefix, restores the image into a fresh `into`
/// plane, and runs the continuation on both.
fn round_trip(from: ServiceConfig, into: ServiceConfig) {
    let mut original = ControlPlane::new(from);
    let live = prefix(&mut original);
    let mut image = Vec::new();
    original.cut_image(&mut image).expect("cut");

    let mut restored = ControlPlane::new(into);
    restored
        .restore_image(&PlaneImage::parse(&image).expect("parse"))
        .expect("restore");
    assert_eq!(restored.ticks(), original.ticks());
    assert_eq!(
        restored.snapshot().unwrap().invariant_view(),
        original.snapshot().unwrap().invariant_view()
    );
    // Restored rows keep their order, so the plane cuts the image it
    // came from, byte for byte — onto the end of what the buffer holds.
    let mut again = b"lead".to_vec();
    restored.cut_image(&mut again).expect("re-cut");
    assert_eq!((&again[..4], &again[4..]), (&b"lead"[..], &image[..]));

    let want = continuation(&mut original, live.clone());
    let got = continuation(&mut restored, live);
    assert_eq!(got, want);
    assert!(
        want.iter().any(|line| line.contains("Admission")),
        "the continuation reaches a refusal: {want:?}"
    );
    original.shutdown();
    restored.shutdown();
}

#[test]
fn an_inline_image_restores_to_the_same_plane_at_one_and_four_shards() {
    for shards in [1, 4] {
        let cfg = config(ExecMode::Inline, shards);
        round_trip(cfg.clone(), cfg);
    }
}

#[test]
fn a_threaded_image_restores_to_the_same_plane_at_one_and_four_shards() {
    for shards in [1, 4] {
        let cfg = config(ExecMode::Threaded, shards);
        round_trip(cfg.clone(), cfg);
    }
}

#[test]
fn an_image_moves_between_executors() {
    round_trip(config(ExecMode::Inline, 4), config(ExecMode::Threaded, 4));
    round_trip(config(ExecMode::Threaded, 1), config(ExecMode::Inline, 1));
}

/// The image's header, then each frame as `(start, end)` byte offsets.
fn frames(image: &[u8]) -> Vec<(usize, usize)> {
    const HEADER: usize = 4 + 1 + 4 + 5 * 8 + 4 * 8;
    let shards = u32::from_le_bytes(image[5..9].try_into().unwrap()) as usize;
    let mut at = HEADER;
    (0..shards)
        .map(|_| {
            let len = u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
            at += 4 + len;
            (at - len, at)
        })
        .collect()
}

/// Overwrites the header's `u64` field number `field` (0 = clock,
/// 1 = next key, 2 = next group, …).
fn with_header_u64(image: &[u8], field: usize, value: u64) -> Vec<u8> {
    let mut out = image.to_vec();
    let at = 9 + 8 * field;
    out[at..at + 8].copy_from_slice(&value.to_le_bytes());
    out
}

fn refusal(plane: &mut ControlPlane, image: &[u8]) -> CtrlError {
    let err = PlaneImage::parse(image)
        .and_then(|parsed| plane.restore_image(&parsed))
        .expect_err("refused");
    // Refused before anything changed: the plane is still fresh.
    assert_eq!((plane.ticks(), plane.live_sessions()), (0, 0));
    assert_eq!(plane.available_budget(), plane.config().budget);
    err
}

fn field(err: CtrlError) -> &'static str {
    match err {
        CtrlError::InvalidImage { field } => field,
        other => panic!("expected a typed image refusal, got {other}"),
    }
}

#[test]
fn a_bad_image_is_refused_typed_and_leaves_the_plane_fresh() {
    for exec in [ExecMode::Inline, ExecMode::Threaded] {
        let cfg = config(exec, 2);
        let mut original = ControlPlane::new(cfg.clone());
        prefix(&mut original);
        let mut image = Vec::new();
        original.cut_image(&mut image).expect("cut");
        let spans = frames(&image);
        let mut plane = ControlPlane::new(cfg.clone());

        // The header against the frames.
        let clock = original.ticks();
        assert_eq!(
            field(refusal(&mut plane, &with_header_u64(&image, 0, clock + 1))),
            "image.clock"
        );
        assert_eq!(
            field(refusal(&mut plane, &with_header_u64(&image, 1, 3))),
            "image.key"
        );
        assert_eq!(
            field(refusal(&mut plane, &with_header_u64(&image, 2, 0))),
            "image.group"
        );
        // Shard 0's frame twice: every key of it is live on two shards.
        let (start, end) = spans[0];
        let mut doubled = image[..spans[1].0 - 4].to_vec();
        doubled.extend_from_slice(&image[start - 4..end]);
        assert_eq!(field(refusal(&mut plane, &doubled)), "image.keys");

        // Malformed: a foreign frame version, a truncation, trailing
        // bytes, a foreign magic.
        let mut foreign = image.clone();
        foreign[spans[1].0] ^= 0xFF;
        assert_eq!(field(refusal(&mut plane, &foreign)), "columnar.version");
        assert_eq!(
            field(refusal(&mut plane, &image[..image.len() - 9])),
            "image.header"
        );
        let mut trailing = image.clone();
        trailing.push(0);
        assert_eq!(field(refusal(&mut plane, &trailing)), "image.trailing");
        let mut magic = image.clone();
        magic[0] = b'X';
        assert_eq!(field(refusal(&mut plane, &magic)), "image.magic");

        // Another configuration: the budget, the shard count, the window
        // (which only the frames carry).
        for other in [
            ServiceConfig::builder(BUDGET * 2.0)
                .session_b_max(16.0)
                .group_b_o(8.0)
                .offline_delay(4)
                .window(8)
                .shards(2)
                .exec(exec)
                .build()
                .unwrap(),
            config(exec, 3),
        ] {
            let mut plane = ControlPlane::new(other);
            assert_eq!(field(refusal(&mut plane, &image)), "image.config");
        }
        let narrow = ServiceConfig {
            w: 16,
            ..cfg.clone()
        };
        assert_eq!(
            field(refusal(&mut ControlPlane::new(narrow), &image)),
            "columnar.w"
        );

        // After every refusal the plane takes the good image.
        plane
            .restore_image(&PlaneImage::parse(&image).unwrap())
            .expect("the fresh plane restores");
        assert_eq!(plane.ticks(), clock);

        // A plane that is not fresh: restored already, ticked, or with a
        // session admitted.
        let err = plane.restore_image(&PlaneImage::parse(&image).unwrap());
        assert_eq!(field(err.unwrap_err()), "image.fresh");
        for ticked in [true, false] {
            let mut plane = ControlPlane::new(cfg.clone());
            if ticked {
                plane.tick(&[]).unwrap();
            } else {
                plane.admit("acme").unwrap();
            }
            let err = plane.restore_image(&PlaneImage::parse(&image).unwrap());
            assert_eq!(field(err.unwrap_err()), "image.fresh");
        }
        original.shutdown();
    }
}

/// `image` with shard `shard`'s frame replaced by `frame`.
fn with_frame(image: &[u8], shard: usize, frame: &[u8]) -> Vec<u8> {
    let (start, end) = frames(image)[shard];
    let mut out = image[..start - 4].to_vec();
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(frame);
    out.extend_from_slice(&image[end..]);
    out
}

/// A frame of an image passes the one validator a lease and a retained
/// checkpoint pass: a session total of NaN, −5 or ∞ is refused typed,
/// naming the column, and the plane stays fresh.
#[test]
fn an_image_with_a_cell_out_of_its_domain_is_refused_typed() {
    for exec in [ExecMode::Inline, ExecMode::Threaded] {
        let cfg = config(exec, 2);
        let mut original = ControlPlane::new(cfg.clone());
        prefix(&mut original);
        let mut image = Vec::new();
        original.cut_image(&mut image).expect("cut");
        original.shutdown();
        let (start, end) = frames(&image)[1];
        let frame = &image[start..end];
        let mut totals = column_f64s(frame, "total_arrived");
        assert!(totals.iter().any(|&t| t > 0.0), "a session has traffic");
        for bad in [f64::NAN, -5.0, f64::INFINITY] {
            totals[0] = bad;
            let evil = with_columns(frame, &[("total_arrived", Cells::Float(&totals))]);
            let mut plane = ControlPlane::new(cfg.clone());
            assert_eq!(
                refusal(&mut plane, &with_frame(&image, 1, &evil)),
                CtrlError::InvalidImage {
                    field: "columnar.total_arrived"
                },
                "total_arrived = {bad}"
            );
            plane
                .restore_image(&PlaneImage::parse(&image).unwrap())
                .expect("the fresh plane restores");
            plane.shutdown();
        }
    }
}

/// An image is cut at a tick boundary: in threaded mode after everything
/// dispatched before the call, through the same fan-out as a snapshot,
/// without touching the retained checkpoint frame — a restart right
/// after the cut recovers as it would have without it.
#[test]
fn cutting_an_image_leaves_the_threaded_plane_running_unchanged() {
    let cfg = config(ExecMode::Threaded, 2);
    let mut cut = ControlPlane::new(cfg.clone());
    let mut clean = ControlPlane::new(cfg);
    let live = prefix(&mut cut);
    prefix(&mut clean);
    for t in 41..60 {
        tick(&mut cut, &live, t);
        tick(&mut clean, &live, t);
        if t % 5 == 0 {
            cut.cut_image(&mut Vec::new()).expect("cut");
            cut.restart_shard(1).expect("restart");
            clean.restart_shard(1).expect("restart");
        }
    }
    assert_eq!(
        cut.snapshot().unwrap().invariant_view(),
        clean.snapshot().unwrap().invariant_view()
    );
}
