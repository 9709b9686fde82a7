//! Output checks, run on every pass: a digest of the service's
//! placement-invariant view, the paper's envelopes, conservation of
//! submitted bits, and the script's own counts.

use crate::inputs::{Inputs, Scale};
use cdba_ctrl::ServiceSnapshot;
use serde_json::Value;

/// One verdict; `detail` says what was compared.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }

    pub fn equal<T: PartialEq + std::fmt::Display>(name: &str, got: T, want: T) -> Check {
        Check::new(name, got == want, format!("got {got}, want {want}"))
    }

    pub fn to_json(&self) -> Value {
        serde_json::json!({"name": self.name, "ok": self.ok, "detail": self.detail})
    }

    pub fn from_json(v: &Value) -> Check {
        Check {
            name: v["name"].as_str().unwrap_or("?").to_string(),
            ok: matches!(v["ok"], Value::Bool(true)),
            detail: v["detail"].as_str().unwrap_or("").to_string(),
        }
    }
}

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.f64(v);
            }
            None => self.u64(0),
        }
    }
}

/// FNV-1a over every field of `invariant_view()`, floats by bit pattern:
/// two runs agree on the digest iff they agree bitwise on every session.
pub fn digest(snap: &ServiceSnapshot) -> u64 {
    let (ticks, global, sessions) = snap.invariant_view();
    let mut h = Fnv1a::new();
    h.u64(ticks);
    h.u64(global.sessions);
    h.u64(global.changes);
    h.u64(global.max_delay);
    h.f64(global.peak_allocation);
    h.f64(global.total_arrived);
    h.f64(global.total_served);
    h.f64(global.total_allocated);
    h.opt(global.min_windowed_utilization);
    h.f64(global.signalling_cost);
    h.f64(global.bandwidth_cost);
    for m in &sessions {
        h.u64(m.session);
        h.bytes(m.tenant.as_bytes());
        h.u64(m.shard);
        h.u64(m.ticks);
        h.u64(m.changes);
        h.f64(m.peak_allocation);
        h.u64(m.max_delay);
        h.f64(m.total_arrived);
        h.f64(m.total_served);
        h.f64(m.total_allocated);
        h.opt(m.windowed_utilization);
        h.f64(m.signalling_cost);
        h.f64(m.bandwidth_cost);
    }
    h.0
}

/// What `expected.json` pins for one workload at the default seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    pub digest: u64,
    pub changes: u64,
    pub max_delay: u64,
}

impl Pinned {
    pub fn of(snap: &ServiceSnapshot) -> Pinned {
        Pinned {
            digest: digest(snap),
            changes: snap.global.changes,
            max_delay: snap.global.max_delay,
        }
    }

    pub fn to_json(self) -> Value {
        serde_json::json!({
            "digest": format!("{:016x}", self.digest),
            "changes": self.changes,
            "max_delay": self.max_delay,
        })
    }

    pub fn from_json(v: &Value) -> Option<Pinned> {
        Some(Pinned {
            digest: u64::from_str_radix(v["digest"].as_str()?, 16).ok()?,
            changes: v["changes"].as_f64()? as u64,
            max_delay: v["max_delay"].as_f64()? as u64,
        })
    }
}

/// The pinned values for `workload` at `scale`, read from the parsed
/// `expected.json`.
pub fn expected(file: &Value, scale: Scale, workload: &str) -> Option<Pinned> {
    Pinned::from_json(&file[scale.name()][workload])
}

/// The default-seed check: digest, change count and worst delay equal
/// what `expected.json` pins for this workload.
pub fn check_pinned(snap: &ServiceSnapshot, want: Option<Pinned>) -> Check {
    let got = Pinned::of(snap);
    match want {
        Some(want) => Check::new(
            "pinned_digest",
            got == want,
            format!(
                "got {:?}, expected.json has {:?}",
                got.to_json(),
                want.to_json()
            ),
        ),
        None => Check::new(
            "pinned_digest",
            false,
            format!("no entry in expected.json; got {:?}", got.to_json()),
        ),
    }
}

/// The any-seed checks on the snapshot taken after measured tick `m`.
pub fn check_snapshot(snap: &ServiceSnapshot, inputs: &Inputs, m: u64) -> Vec<Check> {
    let shape = &inputs.shape;
    let env = &inputs.envelope;
    let mut out = vec![
        Check::equal("ticks", snap.ticks, shape.ticks_at(m)),
        Check::equal("sessions", snap.global.sessions, shape.admitted_at(m)),
        Check::new(
            "max_delay<=2*D_O",
            snap.global.max_delay <= 2 * env.d_o,
            format!("max_delay {} vs 2*{}", snap.global.max_delay, env.d_o),
        ),
    ];

    // Pooled keys are admitted first, so every key past them is dedicated.
    let worst = snap
        .sessions
        .iter()
        .filter(|s| s.session >= shape.pooled as u64)
        .map(|s| s.peak_allocation)
        .fold(0.0f64, f64::max);
    out.push(Check::new(
        "dedicated_peak<=B_A",
        worst <= env.b_max,
        format!("peak {worst} vs B_A {}", env.b_max),
    ));

    let want = inputs.total_arrived(m);
    let got = snap.global.total_arrived;
    let rel = if want == 0.0 {
        got.abs()
    } else {
        ((got - want) / want).abs()
    };
    out.push(Check::new(
        "total_arrived",
        rel <= 1e-9,
        format!("service {got}, generator {want}, relative gap {rel:e}"),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Kind, Shape};

    fn run(seed: u64, m: u64) -> (Inputs, ServiceSnapshot) {
        let inputs = Inputs::generate(Shape::of(Kind::Churn, Scale::Smoke), seed).unwrap();
        let replay = crate::layers::replay_in_process(&inputs, seed, &[m]).expect("replay runs");
        let snap = ServiceSnapshot::clone(&replay.snapshots[0]);
        (inputs, snap)
    }

    #[test]
    fn a_clean_replay_passes_every_check() {
        let (inputs, snap) = run(3, 40);
        for c in check_snapshot(&snap, &inputs, 40) {
            assert!(c.ok, "{}: {}", c.name, c.detail);
        }
    }

    #[test]
    fn digest_sees_a_single_flipped_bit() {
        let (inputs, mut snap) = run(3, 10);
        let before = digest(&snap);
        assert_eq!(before, digest(&snap.clone()));
        let s = snap.sessions.last_mut().unwrap();
        s.total_served = f64::from_bits(s.total_served.to_bits() ^ 1);
        assert_ne!(before, digest(&snap));
        // And conservation notices a service that lost bits.
        snap.global.total_arrived *= 0.999;
        let checks = check_snapshot(&snap, &inputs, 10);
        assert!(checks.iter().any(|c| c.name == "total_arrived" && !c.ok));
    }

    #[test]
    fn pinned_values_must_be_present_and_equal() {
        let (_, mut snap) = run(7, 10);
        assert!(!check_pinned(&snap, None).ok);
        let pinned = Pinned::of(&snap);
        assert!(check_pinned(&snap, Some(pinned)).ok);
        assert_eq!(Pinned::from_json(&pinned.to_json()), Some(pinned));
        snap.global.changes += 1;
        assert!(!check_pinned(&snap, Some(pinned)).ok);
    }
}
