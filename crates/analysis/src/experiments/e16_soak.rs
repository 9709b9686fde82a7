//! E16 — soak (engineering validation, not a paper claim): the paper's
//! algorithm driven over million-tick streams through the constant-memory
//! streaming engine. Verifies the delay envelope does not erode over long
//! horizons, reports sustained throughput, and demonstrates that the
//! implementation is usable on real trace scales (the GKT95-era
//! experiments ran days of traffic).

use super::{f2, Ctx};
use crate::report::{Report, Table};
use cdba_core::config::SingleConfig;
use cdba_core::single::{LookbackSingle, SingleSession};
use cdba_sim::streaming::simulate_streaming;
use cdba_sim::Allocator;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

const B_MAX: f64 = 64.0;
const D_O: usize = 8;
const U_O: f64 = 0.2;
const W: usize = 16;

/// A small inline Markov-modulated source producing arrivals on the fly —
/// the stream never exists in memory.
struct MmppStream {
    rng: StdRng,
    state: usize,
    rates: [f64; 3],
    remaining: usize,
}

impl MmppStream {
    fn new(seed: u64, len: usize) -> Self {
        MmppStream {
            rng: StdRng::seed_from_u64(seed),
            state: 0,
            rates: [0.5, 4.0, 20.0],
            remaining: len,
        }
    }
}

impl Iterator for MmppStream {
    type Item = f64;
    fn next(&mut self) -> Option<f64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.rng.random::<f64>() < 0.01 {
            self.state = (self.state + 1) % self.rates.len();
        }
        Some(cdba_traffic::distr::poisson(&mut self.rng, self.rates[self.state]) as f64)
    }
}

fn cfg() -> SingleConfig {
    SingleConfig::builder(B_MAX)
        .offline_delay(D_O)
        .offline_utilization(U_O)
        .window(W)
        .build()
        .expect("valid config")
}

/// Runs the experiment.
pub fn run(ctx: Ctx) -> Report {
    let mut report = Report::new(
        "E16",
        "Soak: million-tick streams through the constant-memory engine",
        "the 2·D_O delay bound holds at every horizon; throughput is flat (no per-tick cost \
         growth); memory is O(W + backlog), never O(n)",
    );
    let lengths: Vec<usize> = if ctx.quick {
        vec![10_000, 100_000]
    } else {
        vec![10_000, 100_000, 1_000_000]
    };
    let mut table = Table::new(
        "Streaming soak (inline MMPP source, never materialized)",
        &[
            "algorithm",
            "ticks",
            "max delay",
            "bound",
            "changes",
            "global util",
            "Mticks/s",
        ],
    );
    for &len in &lengths {
        for which in ["single", "lookback"] {
            let mut single;
            let mut lookback;
            let alg: &mut dyn Allocator = if which == "single" {
                single = SingleSession::new(cfg());
                &mut single
            } else {
                lookback = LookbackSingle::new(cfg());
                &mut lookback
            };
            let start = Instant::now();
            let summary =
                simulate_streaming(MmppStream::new(ctx.seed ^ len as u64, len), alg, 4096);
            let secs = start.elapsed().as_secs_f64();
            let rate = summary.ticks as f64 / secs / 1e6;
            table.push_row(vec![
                which.to_string(),
                len.to_string(),
                summary.max_delay.to_string(),
                (2 * D_O).to_string(),
                summary.changes.to_string(),
                f2(summary.global_utilization()),
                f2(rate),
            ]);
            if summary.max_delay > 2 * D_O {
                report.fail(format!(
                    "{which} at {len} ticks: delay {} > {}",
                    summary.max_delay,
                    2 * D_O
                ));
            }
            if summary.final_backlog > 0.0 {
                report.fail(format!("{which} at {len} ticks: backlog never drained"));
            }
        }
    }
    report.tables.push(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_passes_quick() {
        let r = run(Ctx {
            quick: true,
            seed: 16,
        });
        assert!(r.pass, "notes: {:?}", r.notes);
    }

    #[test]
    fn stream_source_is_deterministic() {
        let a: Vec<f64> = MmppStream::new(9, 100).collect();
        let b: Vec<f64> = MmppStream::new(9, 100).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
    }
}
