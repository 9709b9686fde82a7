//! Golden bytes of the columnar frame writer.
//!
//! The writer was rebuilt from per-column buffers plus a concatenating
//! finish into a size pass, one exact allocation, and a fill pass. The
//! frame format did not change, so for a fixed join/leave/tick script
//! every frame kind must come out byte-for-byte as the old encoder
//! produced it. The digests below were taken from that encoder before
//! the rewrite; they cover a dense genesis, a sparse incremental (rows,
//! tombstones and a retired suffix), a worker-emitted genesis with a
//! pooled group, and a one-row migration frame.

use cdba_ctrl::{CheckpointProbe, ControlPlane, ExecMode, ServiceConfig, ServiceConfigBuilder};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
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
        (25959, 13857754811519261468),
        "genesis"
    );

    // Between-tick churn: exactly the six churned rows travel.
    probe.churn(6);
    let mut sparse = Vec::new();
    let rows = probe.encode(false, &mut sparse);
    assert_eq!(sparse.capacity(), sparse.len());
    assert_eq!(
        (rows, sparse.len(), fnv1a(&sparse)),
        (6, 4215, 9347229334749887425),
        "sparse incremental"
    );

    // A reused buffer is refilled in place. The ticks retire drained
    // leavers, so this frame carries tombstones and a retired suffix.
    probe.tick(6);
    let rows = probe.encode(false, &mut sparse);
    assert_eq!(
        (rows, sparse.len(), fnv1a(&sparse)),
        (45, 24806, 17390956524031255846),
        "dense incremental"
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
    assert_eq!(
        (genesis.len(), fnv1a(genesis)),
        (5689, 227520499245461859),
        "worker genesis at tick 16"
    );

    let blob = service.export_session(live[2]).unwrap();
    assert_eq!(blob.capacity(), blob.len());
    assert_eq!(
        (blob.len(), fnv1a(&blob)),
        (1589, 5624299062710012432),
        "migration frame"
    );
    service.shutdown();
}
