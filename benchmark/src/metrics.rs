//! The metric names, units and directions: the one list `BENCHMARK.json`,
//! the harness output and the README agree on.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`; negative
    /// when it is better.
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - old) / old.abs(),
            Better::Higher => (old - new) / old.abs(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The eight end-to-end metrics: what a user of the boundary sees.
pub const E2E: [MetricDef; 8] = [
    lower("setup_s", "s"),
    higher("session_ticks_per_s", "1/s"),
    lower("tick_rtt_p50_us", "us"),
    lower("tick_rtt_p99_us", "us"),
    lower("recover_ms", "ms"),
    lower("snapshot_poll_ms", "ms"),
    lower("peak_rss_mb", "MB"),
    lower("changes_per_ksession_tick", "chg/ksess-tick"),
];

/// The end-to-end metrics gated with a bound: those every workload
/// reports and whose run-to-run spread the reference host holds within
/// the 25 % cap. Every wall-clock metric but the mandatory `setup_s` fails
/// the second test there today (see the README's "Noise") and is
/// reported, under the same name, among the per-layer metrics instead:
/// **no speed metric is gated** until `--calibrate` on a quiet host says
/// one can be.
pub const GATED: [&str; 3] = ["setup_s", "peak_rss_mb", "changes_per_ksession_tick"];

/// The exact count: a function of the seed alone, so two runs of one seed
/// must agree to the bit and its (metric, workload) bound is 0.
pub const EXACT: &str = "changes_per_ksession_tick";

pub fn gated() -> impl Iterator<Item = MetricDef> {
    E2E.into_iter().filter(|m| GATED.contains(&m.name))
}

/// The end-to-end metrics reported without a bound.
pub fn demoted() -> impl Iterator<Item = MetricDef> {
    E2E.into_iter().filter(|m| !GATED.contains(&m.name))
}

/// Per-layer metrics, layer = module.
pub const LAYER: [MetricDef; 46] = [
    lower("traffic.bank_gen_ms", "ms"),
    lower("core.single_step_ns", "ns"),
    lower("core.pool_step_ns", "ns"),
    lower("ctrl.admission.request_ns", "ns"),
    lower("ctrl.service.admit_us", "us"),
    lower("ctrl.service.leave_admit_us", "us"),
    lower("ctrl.shard.sweep_ns_per_session_tick", "ns"),
    lower("ctrl.service.tick_us", "us"),
    higher("ctrl.service.session_ticks_per_s", "1/s"),
    lower("ctrl.service.snapshot_ms", "ms"),
    lower("ctrl.exec.threaded_tick_us", "us"),
    lower("ctrl.exec.checkpoint_tick_us", "us"),
    lower("ctrl.exec.restart_ms_by_chain_len", "ms"),
    lower("ctrl.exec.events_replayed", "count"),
    lower("ctrl.codec.genesis_encode_ms", "ms"),
    lower("ctrl.codec.incr_encode_ms", "ms"),
    lower("ctrl.codec.genesis_bytes", "B"),
    lower("ctrl.codec.bytes_per_dirty_session", "B"),
    lower("ctrl.mirror.apply_cold_ms", "ms"),
    lower("ctrl.mirror.apply_warm_ms", "ms"),
    lower("gateway.proto.encode_ns_per_arrival", "ns"),
    lower("gateway.proto.decode_ns_per_arrival", "ns"),
    lower("gateway.proto.bytes_per_arrival", "B"),
    lower("gateway.client.join_us", "us"),
    lower("gateway.client.stage_us", "us"),
    lower("gateway.client.commit_wait_us", "us"),
    lower("gateway.server.frames_in", "count"),
    lower("gateway.server.frames_out", "count"),
    lower("gateway.server.requests", "count"),
    lower("gateway.server.decode_errors", "count"),
    lower("gateway.server.busy_rejections", "count"),
    lower("gateway.server.request_p50_us", "us"),
    lower("gateway.server.request_p99_us", "us"),
    lower("gateway.hop_us", "us"),
    lower("gateway.codec.snapshot_encode_ms", "ms"),
    lower("gateway.codec.snapshot_decode_ms", "ms"),
    lower("gateway.codec.snapshot_bytes", "B"),
    lower("fleet.admit_us", "us"),
    lower("fleet.tick_us", "us"),
    lower("fleet.direct_tick_us", "us"),
    lower("fleet.relay.hop_us", "us"),
    lower("fleet.snapshot_ms", "ms"),
    lower("fleet.replay_ops", "count"),
    lower("obs.attached_tick_overhead_pct", "%"),
    lower("obs.render_ms", "ms"),
    lower("trace.overhead_pct", "%"),
];

/// Everything a `--trace 1` run reports.
pub fn per_layer() -> impl Iterator<Item = MetricDef> {
    demoted().chain(LAYER)
}

pub fn find(name: &str) -> Option<MetricDef> {
    E2E.into_iter().chain(LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in gated().chain(per_layer()) {
            assert!(valid_name(m.name, 64, "_.-"), "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                valid_name(m.unit, 16, "_/%.-"),
                "{} unit {}",
                m.name,
                m.unit
            );
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        assert!(gated().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert_eq!(gated().count(), GATED.len());
        assert_eq!(gated().count() + demoted().count(), E2E.len());
        assert!(per_layer().count() <= 128);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(Better::Lower.worsening(100.0, 110.0), 0.1);
        assert_eq!(Better::Higher.worsening(100.0, 90.0), 0.1);
        assert!(Better::Higher.worsening(100.0, 120.0) < 0.0);
    }
}
