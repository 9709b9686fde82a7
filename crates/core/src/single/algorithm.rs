//! The single-session algorithm of Fig. 3 (Theorem 6).

use crate::bounds::{HighTracker, HullLowTracker, LowTracker};
use crate::config::SingleConfig;
use crate::next_power_of_two;
use crate::stage::{StageKind, StageLog};
use cdba_sim::{Allocator, BitQueue};

/// The `high(t) < low(t)` stage-end test with a relative tolerance.
///
/// Exposed so external drivers of the per-session state machines (the ctrl
/// crate's columnar tick kernel) apply the exact comparison
/// [`SingleSession::on_tick`] uses; any deviation here would break bitwise
/// equivalence between the two paths.
pub fn crossed(low: f64, high: f64) -> bool {
    low - high > 1e-9 * low.max(1.0)
}

#[derive(Debug)]
enum Mode {
    Stage {
        low: HullLowTracker,
        high: HighTracker,
    },
    Reset,
}

/// The online single-session algorithm (paper §2, Fig. 3).
///
/// Works in stages separated by RESET operations. Within a stage it tracks
/// [`low(t)`](crate::bounds::low) and [`high(t)`](crate::bounds::high) — the
/// bounds any *constant* offline allocation must satisfy since the stage
/// start — and allocates the smallest power of two ≥ `low(t)`. When
/// `high(t) < low(t)` no constant offline allocation can span the stage
/// (the offline must have changed at least once), so the algorithm may
/// afford a RESET: allocate `B_A` until the queue drains, then start a new
/// stage.
///
/// Guarantees (Theorem 6): maximum bandwidth `B_A`, delay ≤ `2·D_O`,
/// relaxed-window utilization ≥ `U_O/3`, and at most `ℓ_A + 2 = log₂ B_A + 2`
/// allocation changes per stage (the paper states `ℓ_A` by not counting the
/// stage-entry drop and the RESET boost; the schedule's change log counts
/// every transition, hence the `+2`).
///
/// Drive it with [`cdba_sim::engine::simulate`]; query [`Self::stage_log`]
/// afterwards for the per-stage certificate.
#[derive(Debug)]
pub struct SingleSession {
    cfg: SingleConfig,
    queue: BitQueue,
    mode: Mode,
    b_on: f64,
    tick: usize,
    stages: StageLog,
}

impl SingleSession {
    /// Creates the algorithm in a fresh stage (the paper starts by invoking
    /// RESET, which immediately finds an empty queue and opens a stage).
    pub fn new(cfg: SingleConfig) -> Self {
        let mut stages = StageLog::new();
        stages.open(0);
        SingleSession {
            mode: Mode::Stage {
                low: HullLowTracker::new(cfg.d_o),
                high: HighTracker::new(cfg.u_o, cfg.w, cfg.b_max),
            },
            cfg,
            queue: BitQueue::new(),
            b_on: 0.0,
            tick: 0,
            stages,
        }
    }

    /// The configuration this instance runs with.
    pub fn config(&self) -> &SingleConfig {
        &self.cfg
    }

    /// The stage log (completed stages are the offline-change certificate).
    pub fn stage_log(&self) -> &StageLog {
        &self.stages
    }

    /// The offline-change lower bound this run certifies: any offline
    /// algorithm obeying `(B_A, D_O, U_O)` made at least this many changes
    /// (one per completed stage — paper §2).
    pub fn certified_offline_changes(&self) -> usize {
        self.stages.completed()
    }

    /// The current internal allocation level `B_on`.
    pub fn current_level(&self) -> f64 {
        self.b_on
    }

    /// `true` while a RESET is in progress.
    pub fn in_reset(&self) -> bool {
        matches!(self.mode, Mode::Reset)
    }

    fn fresh_stage(&mut self) -> Mode {
        Mode::Stage {
            low: HullLowTracker::new(self.cfg.d_o),
            high: HighTracker::new(self.cfg.u_o, self.cfg.w, self.cfg.b_max),
        }
    }
}

impl Allocator for SingleSession {
    fn on_tick(&mut self, arrivals: f64) -> f64 {
        let alloc = match &mut self.mode {
            Mode::Stage { low, high } => {
                let l = low.push(arrivals);
                let h = high.push(arrivals);
                if crossed(l, h) {
                    // Certificate fired: end the stage, enter RESET.
                    self.stages.close(self.tick, StageKind::BoundsCrossed);
                    self.mode = Mode::Reset;
                    self.b_on = self.cfg.b_max;
                    self.cfg.b_max
                } else {
                    if self.b_on < l {
                        self.b_on = next_power_of_two(l).min(self.cfg.b_max);
                    }
                    self.b_on
                }
            }
            Mode::Reset => self.cfg.b_max,
        };
        self.queue.tick(arrivals, alloc);
        if matches!(self.mode, Mode::Reset) && self.queue.is_empty() {
            // RESET complete: the next tick starts a new stage.
            self.mode = self.fresh_stage();
            self.stages.open(self.tick + 1);
            self.b_on = 0.0;
        }
        self.tick += 1;
        alloc
    }

    fn name(&self) -> &'static str {
        "single-session"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdba_sim::engine::{simulate, DrainPolicy};
    use cdba_sim::verify::verify_single;
    use cdba_traffic::adversarial::{stage_forcer, StageForcerParams};
    use cdba_traffic::Trace;

    fn cfg(b_max: f64, d_o: usize, u_o: f64, w: usize) -> SingleConfig {
        SingleConfig::builder(b_max)
            .offline_delay(d_o)
            .offline_utilization(u_o)
            .window(w)
            .build()
            .unwrap()
    }

    #[test]
    fn allocations_are_powers_of_two_or_reset() {
        let c = cfg(64.0, 4, 0.5, 8);
        let mut alg = SingleSession::new(c);
        let t = Trace::new(vec![3.0, 9.0, 0.0, 20.0, 0.0, 0.0, 1.0, 50.0]).unwrap();
        let run = simulate(&t, &mut alg, DrainPolicy::DrainToEmpty).unwrap();
        for &a in run.schedule.allocation() {
            if a == 0.0 {
                continue;
            }
            let l = a.log2();
            assert!(
                (l - l.round()).abs() < 1e-9,
                "allocation {a} not a power of two"
            );
            assert!(a <= 64.0);
        }
    }

    #[test]
    fn ladder_is_monotone_within_a_stage() {
        let c = cfg(64.0, 4, 0.5, 64);
        let mut alg = SingleSession::new(c);
        // Steadily growing demand within one stage.
        let arrivals: Vec<f64> = (0..40).map(|i| 1.0 + i as f64).collect();
        let t = Trace::new(arrivals).unwrap();
        let run = simulate(&t, &mut alg, DrainPolicy::StopAtTraceEnd).unwrap();
        assert_eq!(alg.stage_log().completed(), 0, "should stay in one stage");
        let alloc = run.schedule.allocation();
        for w in alloc.windows(2) {
            assert!(w[1] >= w[0], "allocation decreased within a stage: {w:?}");
        }
    }

    #[test]
    fn delay_bound_holds_on_bursty_trace() {
        let c = cfg(64.0, 4, 0.25, 8);
        let bounds = c.promised_bounds();
        let mut alg = SingleSession::new(c);
        let t = Trace::new(vec![
            40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 64.0, 0.0, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0,
        ])
        .unwrap();
        let run = simulate(&t, &mut alg, DrainPolicy::DrainToEmpty).unwrap();
        let v = verify_single(&t, &run, &bounds);
        assert!(v.delay_ok, "delay violated: {v:?}");
        assert!(v.bandwidth_ok, "bandwidth violated: {v:?}");
    }

    #[test]
    fn stage_forcer_completes_stages_and_respects_ladder_budget() {
        let d_o = 4;
        let b_max = 16.0;
        let w = 24; // ≥ climb_len = 4 levels × 5 ticks = 20
        let params = StageForcerParams::new(b_max, d_o, w, 3);
        let t = stage_forcer(params).unwrap();
        let c = cfg(b_max, d_o, 0.5, w);
        let mut alg = SingleSession::new(c.clone());
        let run = simulate(&t, &mut alg, DrainPolicy::DrainToEmpty).unwrap();
        let completed = alg.stage_log().completed();
        assert!(
            completed >= 2,
            "expected >= 2 completed stages, got {completed}"
        );
        // Changes per stage within the ladder budget log2(B_A) + 2.
        let budget = c.levels() as usize + 2;
        for rec in alg.stage_log().records() {
            let end = rec.end.unwrap_or(run.schedule.len());
            let changes = run.schedule.changes_in(rec.start, end);
            assert!(
                changes <= budget,
                "stage [{}, {end}) made {changes} changes (budget {budget})",
                rec.start
            );
        }
    }

    #[test]
    fn stage_forcer_climbs_the_full_ladder() {
        let d_o = 4;
        let b_max = 16.0;
        let w = 24;
        let t = stage_forcer(StageForcerParams::new(b_max, d_o, w, 1)).unwrap();
        let c = cfg(b_max, d_o, 0.5, w);
        let mut alg = SingleSession::new(c);
        let run = simulate(&t, &mut alg, DrainPolicy::DrainToEmpty).unwrap();
        // The climb visits 2, 4, 8, 16.
        let distinct: std::collections::BTreeSet<u64> = run
            .schedule
            .allocation()
            .iter()
            .filter(|&&a| a > 0.0)
            .map(|&a| a as u64)
            .collect();
        for level in [2u64, 4, 8, 16] {
            assert!(
                distinct.contains(&level),
                "level {level} never allocated: {distinct:?}"
            );
        }
    }

    #[test]
    fn silence_never_ends_a_stage_without_traffic() {
        let c = cfg(32.0, 2, 0.5, 4);
        let mut alg = SingleSession::new(c);
        let t = Trace::new(vec![0.0; 50]).unwrap();
        let run = simulate(&t, &mut alg, DrainPolicy::DrainToEmpty).unwrap();
        assert_eq!(alg.stage_log().completed(), 0);
        assert_eq!(run.schedule.num_changes(), 0);
        assert_eq!(run.schedule.peak(), 0.0);
    }

    #[test]
    fn reset_serves_at_b_max_until_empty() {
        let d_o = 2;
        let w = 4;
        let c = cfg(8.0, d_o, 0.9, w);
        let mut alg = SingleSession::new(c);
        // A burst then silence: high collapses, reset fires with backlog.
        let mut arrivals = vec![30.0];
        arrivals.extend(std::iter::repeat_n(0.0, 20));
        let t = Trace::new(arrivals).unwrap();
        let run = simulate(&t, &mut alg, DrainPolicy::DrainToEmpty).unwrap();
        assert!(alg.stage_log().completed() >= 1);
        // Some tick must have run at B_A = 8 (the reset).
        assert!(run.schedule.allocation().contains(&8.0));
        assert_eq!(run.final_backlog, 0.0);
    }
}
