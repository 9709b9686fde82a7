//! The tick kernel: the phase passes a tick runs over the columns'
//! dense slot lists.

use super::*;

/// Shard-uniform kernel parameters, derived once per tick from the
/// service config. Every session on a shard runs the same configuration
/// (joins read it, and imports are validated against it), so none of
/// these belong in per-session state.
#[derive(Clone, Copy)]
pub(super) struct KernelParams {
    /// Per-session allocation cap `B_max` (also the stage grace value).
    pub(super) b_max: f64,
    /// Offline delay `D_O`.
    pub(super) d_o: u64,
    /// `high(t)` denominator `U_O · W` — one multiply hoisted out of the
    /// per-session division; the product is the same f64 every time, so
    /// hoisting it cannot move a bit.
    pub(super) high_denom: f64,
    /// Window length `W` (bounds-tracker and meter windows share it).
    pub(super) w: usize,
}

/// Stage-open dedicated slots: the tracker/hull/decide passes run over
/// exactly the slots whose flags carry both bits.
const OPEN: u32 = F_DEDICATED | F_STAGE_OPEN;

/// One step of the shadow link queue plus the metering totals —
/// branch-free so the flow pass autovectorizes. Bitwise-identical to
/// the branchy original: the `select` forms produce the same values,
/// and the totals only read `arrivals`/`allocation`/`served`, so
/// hoisting them ahead of the FIFO drain reorders across independent
/// fields only. Returns the bits served this tick.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn flow_step(
    arrivals: f64,
    allocation: f64,
    current_alloc: &mut f64,
    changes: &mut u64,
    shadow_backlog: &mut f64,
    total_arrived: &mut f64,
    total_served: &mut f64,
    total_allocated: &mut f64,
    peak_alloc: &mut f64,
) -> f64 {
    let changed = (allocation - *current_alloc).abs() > EPS;
    *changes += changed as u64;
    *current_alloc = if changed { allocation } else { *current_alloc };
    let offered = *shadow_backlog + arrivals;
    let served = offered.min(allocation);
    let backlog = offered - served;
    *shadow_backlog = if backlog < EPS { 0.0 } else { backlog };
    *total_arrived += arrivals;
    *total_served += served;
    *total_allocated += allocation;
    *peak_alloc = peak_alloc.max(allocation);
    served
}

/// Reusable per-sweep work lists, one per shard, so steady-state ticks
/// allocate nothing.
#[derive(Default)]
pub(super) struct SweepScratch {
    /// Indices of dedicated slots, in slot order.
    pub(super) ded: Vec<u32>,
    /// Effective arrivals per `ded` entry (leaving slots read as 0).
    pub(super) ded_arr: Vec<f64>,
    /// Indices of stage-open dedicated slots.
    pub(super) open: Vec<u32>,
    /// Effective arrivals per `open` entry.
    pub(super) open_arr: Vec<f64>,
    /// Per-`ded` allocation decided this tick.
    pub(super) alloc: Vec<f64>,
    /// Per-index bits served by the flow pass.
    pub(super) served: Vec<f64>,
    /// Keys whose drain completed this tick, in slot order.
    pub(super) retire: Vec<u64>,
    /// Slot indices of pooled-group members metered this tick.
    pub(super) grp: Vec<u32>,
    /// Effective arrivals per `grp` entry.
    pub(super) grp_arr: Vec<f64>,
    /// Pool-decided allocation per `grp` entry.
    pub(super) grp_alloc: Vec<f64>,
}

/// The sweep passes: each runs over an index list of slots, in list
/// order, touching only the columns its phase owns.
impl Columns {
    /// The tracker-push pass over the stage-open slots: the
    /// `HullLowTracker` point push and the `HighTracker` window push,
    /// same float-op order as `SingleSession::on_tick`. The hull
    /// *query* is hoisted into [`Columns::pass_hull_query`], so this
    /// pass is straight-line arithmetic.
    /// A full high window evicts the meter ring's oldest cell, read here
    /// before [`Columns::pass_meter_window`] overwrites it later in the
    /// same tick: [`Columns::sweep`] runs this pass first, and the pooled
    /// slots metered before the sweep are never open.
    pub(super) fn pass_track(&mut self, open: &[u32], open_arr: &[f64], p: &KernelParams) {
        for (&j, &arrivals) in open.iter().zip(open_arr) {
            let j = j as usize;
            debug_assert!(
                self.flags[j] & F_STAGE_OPEN != 0,
                "tracker push on an open stage"
            );
            // Both trackers clamp identically; one shared clamp is the
            // same value.
            let a2 = arrivals.max(0.0);
            // Low push: candidate window-start x = stage tick, P[x] =
            // total so far; the query uses the post-arrival total.
            self.hull_push(j, (self.stage_ticks[j] as f64, self.low_total[j]));
            self.low_total[j] += a2;
            // High push: the running sum adds the new entry before
            // subtracting the evicted one, as the VecDeque form did. The
            // ring's unclamped arrival is `a2`'s bits: arrivals are
            // validated non-negative and scattered onto +0.0. Cohorts
            // share a ring cursor, so the eviction reads one dense row.
            self.high_window_sum[j] += a2;
            if self.stage_ticks[j] as usize >= p.w {
                let old = self.recent_ring.arrival(self.recent_head[j] as usize, j);
                self.high_window_sum[j] -= old;
                if self.high_window_sum[j] < 0.0 {
                    self.high_window_sum[j] = 0.0; // float-noise guard
                }
            }
            // One shared stage clock: the two trackers advance in
            // lockstep.
            self.stage_ticks[j] += 1;
            // The full-window minimum merge reads only high-tracker
            // fields, so folding it into this pass (ahead of the hull
            // query it used to follow) cannot move a bit of either
            // tracker.
            if self.stage_ticks[j] as usize >= p.w {
                self.high_min_window_sum[j] =
                    self.high_min_window_sum[j].min(self.high_window_sum[j]);
            }
        }
    }

    /// The hoisted hull query as its own pass over the stage-open index
    /// list: the `HullLowTracker::max_slope` binary search merged into
    /// the running `low` maximum — the one data-dependent, branchy part
    /// of the allocator step, kept out of the vectorizable passes.
    pub(super) fn pass_hull_query(&mut self, open: &[u32], p: &KernelParams) {
        for &j in open {
            let j = j as usize;
            let q = ((self.stage_ticks[j] + p.d_o) as f64, self.low_total[j]);
            let candidate = hull_max_slope(self.hull(j), q);
            if candidate > self.low_low[j] {
                self.low_low[j] = candidate;
            }
        }
    }

    /// The decision pass over the dedicated slots: certificate check,
    /// `B_on` ladder, link queue, and RESET reopen —
    /// `SingleSession::on_tick` after the tracker pushes and the hull
    /// query already ran this tick for stage-open slots. Fills
    /// `alloc_out` parallel to `ded`.
    pub(super) fn pass_decide(
        &mut self,
        ded: &[u32],
        ded_arr: &[f64],
        alloc_out: &mut Vec<f64>,
        p: &KernelParams,
    ) {
        alloc_out.clear();
        for (&j, &arrivals) in ded.iter().zip(ded_arr) {
            let j = j as usize;
            let alloc = if self.flags[j] & F_STAGE_OPEN != 0 {
                let l = self.low_low[j];
                let hi = if self.high_min_window_sum[j].is_infinite() {
                    p.b_max // grace: no full window constrains the offline yet
                } else {
                    self.high_min_window_sum[j] / p.high_denom
                };
                if crossed(l, hi) {
                    // Certificate fired: end the stage, enter RESET. The
                    // dead trackers go vacant now, as a restore without
                    // trackers lands them: one state, one encoding.
                    self.stages_completed[j] += 1;
                    self.flags[j] &= !F_STAGE_OPEN;
                    self.clear_hull(j);
                    self.stage_ticks[j] = 0;
                    self.low_total[j] = 0.0;
                    self.low_low[j] = 0.0;
                    self.high_window_sum[j] = 0.0;
                    self.high_min_window_sum[j] = f64::INFINITY;
                    self.b_on[j] = p.b_max;
                    p.b_max
                } else {
                    if self.b_on[j] < l {
                        self.b_on[j] = next_power_of_two(l).min(p.b_max);
                    }
                    self.b_on[j]
                }
            } else {
                p.b_max
            };
            // The session's link queue (`BitQueue::tick` on the backlog
            // field; inputs are validated upstream, so the clamps it
            // would apply are identities).
            let offered = self.backlog[j] + arrivals;
            let served = offered.min(alloc);
            let mut backlog = offered - served;
            if backlog < EPS {
                backlog = 0.0;
            }
            self.backlog[j] = backlog;
            if self.flags[j] & F_STAGE_OPEN == 0 && backlog <= EPS {
                // RESET complete: the next tick starts a new stage with
                // the fresh trackers a RESET slot already holds. It
                // starts at the meter clock this tick ends on.
                self.flags[j] |= F_STAGE_OPEN;
                self.b_on[j] = 0.0;
            }
            alloc_out.push(alloc);
        }
    }

    /// The metering flow pass: shadow link queue plus totals, via the
    /// branch-free [`flow_step`]. When the index list is one dense
    /// ascending run the loop specializes to pre-sliced contiguous
    /// columns, which is the form the compiler autovectorizes; the
    /// gather fallback handles sparse lists bit-identically.
    pub(super) fn pass_meter_flow(
        &mut self,
        idx: &[u32],
        arr: &[f64],
        alloc: &[f64],
        served_out: &mut Vec<f64>,
    ) {
        let n = idx.len();
        served_out.clear();
        served_out.resize(n, 0.0);
        if n == 0 {
            return;
        }
        let base = idx[0] as usize;
        // Dense-run detection must check every element: group-gathered
        // lists need not be monotonic, so a first/last/len probe lies.
        let dense = idx.iter().enumerate().all(|(k, &j)| j as usize == base + k);
        if dense {
            let current_alloc = &mut self.current_alloc[base..base + n];
            let changes = &mut self.changes[base..base + n];
            let shadow_backlog = &mut self.shadow_backlog[base..base + n];
            let total_arrived = &mut self.total_arrived[base..base + n];
            let total_served = &mut self.total_served[base..base + n];
            let total_allocated = &mut self.total_allocated[base..base + n];
            let peak_alloc = &mut self.peak_alloc[base..base + n];
            for k in 0..n {
                served_out[k] = flow_step(
                    arr[k],
                    alloc[k],
                    &mut current_alloc[k],
                    &mut changes[k],
                    &mut shadow_backlog[k],
                    &mut total_arrived[k],
                    &mut total_served[k],
                    &mut total_allocated[k],
                    &mut peak_alloc[k],
                );
            }
        } else {
            for k in 0..n {
                let j = idx[k] as usize;
                served_out[k] = flow_step(
                    arr[k],
                    alloc[k],
                    &mut self.current_alloc[j],
                    &mut self.changes[j],
                    &mut self.shadow_backlog[j],
                    &mut self.total_arrived[j],
                    &mut self.total_served[j],
                    &mut self.total_allocated[j],
                    &mut self.peak_alloc[j],
                );
            }
        }
    }

    /// The FIFO delay-tracker pass (`OnlineDelayTracker::push`, then
    /// `link_drained` once the shadow queue the flow pass just stepped is
    /// empty): the head entry lives inline in the columns, and the entries
    /// behind it are the spill's and the window's arrivals
    /// ([`Columns::next_pending`]). Data-dependent drain loop, so it stays
    /// its own scalar pass.
    pub(super) fn pass_meter_fifo(&mut self, idx: &[u32], arr: &[f64], served: &[f64], w: usize) {
        for (k, &j) in idx.iter().enumerate() {
            let j = j as usize;
            // The delay tracker runs on the meter clock, which
            // `pass_meter_window` advances after this pass.
            let now = self.meter_ticks[j];
            let arrivals = arr[k];
            if arrivals > EPS {
                // Behind a head, the entry is this tick's ring cell, which
                // `pass_meter_window` writes later in the tick.
                if self.pend_len[j] == 0 {
                    self.pend_tick[j] = now;
                    self.pend_bits[j] = arrivals;
                }
                self.pend_len[j] += 1;
            }
            let total = served[k];
            let mut left = total;
            while left > EPS && self.pend_len[j] > 0 {
                let take = self.pend_bits[j].min(left);
                self.pend_bits[j] -= take;
                left -= take;
                if self.pend_bits[j] <= EPS {
                    // The entry completes after the fraction of this
                    // tick's service consumed so far (see
                    // `OnlineDelayTracker`).
                    let consumed = ((total - left) / total).clamp(0.0, 1.0);
                    let exact = ((now - self.pend_tick[j]) as f64 - 1.0 + consumed).max(0.0);
                    self.max_delay_exact[j] = self.max_delay_exact[j].max(exact);
                    self.pend_len[j] -= 1;
                    if self.pend_len[j] > 0 {
                        let (t0, bits) = self.next_pending(j, now, arrivals, w);
                        self.pend_tick[j] = t0;
                        self.pend_bits[j] = bits;
                    }
                }
            }
            // A still-pending head already implies at least this much
            // delay.
            if self.pend_len[j] > 0 {
                self.max_delay_exact[j] =
                    self.max_delay_exact[j].max((now - self.pend_tick[j]) as f64);
                // An emptied link queue leaves only rounding residue
                // behind (`OnlineDelayTracker::link_drained`).
                if self.shadow_backlog[j] <= EPS {
                    self.pend_len[j] = 0;
                    self.pend_spills.remove(j);
                }
            }
        }
    }

    /// The delay-FIFO entry behind slot `j`'s head, which has just
    /// completed at tick `now` with more entries queued: the spill's
    /// oldest, else the first window arrival `> EPS` newer than the head,
    /// else this tick's `arrivals`, not yet in the ring. The window holds
    /// ticks `now − recent_len ..` at positions `0 ..` from its head.
    fn next_pending(&mut self, j: usize, now: u64, arrivals: f64, w: usize) -> (u64, f64) {
        if let Some(spill) = self.pend_spills.get_mut(j) {
            let next = spill.pop_front().expect("a held spill is not empty");
            if spill.is_empty() {
                self.pend_spills.remove(j);
            }
            return next;
        }
        let len = self.recent_len[j] as usize;
        let first = (self.pend_tick[j] + 1 + len as u64).saturating_sub(now) as usize;
        for p in first..len {
            let q = self.recent_head[j] as usize + p;
            let a = self.recent_ring.arrival(if q >= w { q - w } else { q }, j);
            if a > EPS {
                return (now - (len - p) as u64, a);
            }
        }
        debug_assert!(arrivals > EPS, "the FIFO counts an entry it does not hold");
        (now, arrivals)
    }

    /// The utilization-window pass: the rolling `recent` ring and the
    /// windowed-minimum merge. The running sums add the new pair before
    /// subtracting the evicted one, as the VecDeque form did. An evicted
    /// arrival the delay FIFO still queues behind its head moves to the
    /// slot's spill before its cell is overwritten.
    pub(super) fn pass_meter_window(&mut self, idx: &[u32], arr: &[f64], alloc: &[f64], w: usize) {
        for (k, &j) in idx.iter().enumerate() {
            let j = j as usize;
            let (arrivals, allocation) = (arr[k], alloc[k]);
            let now = self.meter_ticks[j];
            self.meter_ticks[j] += 1;
            if (self.recent_len[j] as usize) < w {
                let q = self.recent_len[j] as usize;
                self.recent_ring.replace(q, j, (arrivals, allocation));
                self.recent_len[j] += 1;
                self.window_arrived[j] += arrivals;
                self.window_allocated[j] += allocation;
            } else {
                let idx2 = self.recent_head[j] as usize;
                let (a0, b0) = self.recent_ring.replace(idx2, j, (arrivals, allocation));
                // The evicted cell is tick `now − W`; queued behind the
                // head means newer than it (the FIFO is in tick order).
                if a0 > EPS && self.pend_len[j] > 0 && self.pend_tick[j] + (w as u64) < now {
                    let spill = self.pend_spills.get_or_insert_with(j, VecDeque::new);
                    spill.push_back((now - w as u64, a0));
                }
                self.recent_head[j] = if idx2 + 1 == w { 0 } else { (idx2 + 1) as u32 };
                self.window_arrived[j] += arrivals;
                self.window_allocated[j] += allocation;
                self.window_arrived[j] -= a0;
                self.window_allocated[j] -= b0;
            }
            if self.recent_len[j] as usize == w && self.window_allocated[j] > EPS {
                let ratio = self.window_arrived[j].max(0.0) / self.window_allocated[j];
                // `min` returns the other operand when one side is NaN,
                // so the NaN "none yet" sentinel picks up the first
                // ratio.
                self.min_util[j] = self.min_util[j].min(ratio);
            }
        }
    }

    /// One full dedicated-session sweep over slots `[0, bound)`: build
    /// the dense index lists, then run the phase passes in order. Leaves
    /// the keys of drain-completed slots in `s.retire`, in slot order.
    pub(super) fn sweep(&mut self, bound: usize, p: &KernelParams, s: &mut SweepScratch) {
        s.ded.clear();
        s.ded_arr.clear();
        s.open.clear();
        s.open_arr.clear();
        s.retire.clear();
        for (j, &f) in self.flags[..bound].iter().enumerate() {
            if f & F_DEDICATED == 0 {
                continue;
            }
            // A leaving session stops arriving; it only drains.
            let a = if f & F_LEAVING != 0 {
                0.0
            } else {
                self.arrived[j]
            };
            s.ded.push(j as u32);
            s.ded_arr.push(a);
            // Capture stage-open membership before the decide pass can
            // close or reopen stages: matches the fused kernel, which
            // read the flag once at the top of the slot's step.
            if f & OPEN == OPEN {
                s.open.push(j as u32);
                s.open_arr.push(a);
            }
        }
        self.pass_track(&s.open, &s.open_arr, p);
        self.pass_hull_query(&s.open, p);
        self.pass_decide(&s.ded, &s.ded_arr, &mut s.alloc, p);
        self.pass_meter_flow(&s.ded, &s.ded_arr, &s.alloc, &mut s.served);
        self.pass_meter_fifo(&s.ded, &s.ded_arr, &s.served, p.w);
        self.pass_meter_window(&s.ded, &s.ded_arr, &s.alloc, p.w);
        for &j in &s.ded {
            let j = j as usize;
            if self.flags[j] & F_LEAVING != 0 && self.shadow_backlog[j] <= EPS {
                s.retire.push(self.keys[j]);
            }
        }
    }
}
