//! Session state in and out of columnar frames: the one validator every
//! frame passes on its way into a shard (a checkpoint on recovery, a
//! process image's shard, a mirror's frame, a lease), the row writer
//! that lands a validated row, and the shard's frame and lease writers.

use super::*;
use crate::codec::columnar::RawFrame;

/// Reusable scratch for [`ShardState::apply_frame`], so a mirror
/// re-applying frame after frame allocates the key tables once.
#[derive(Default)]
pub(crate) struct ApplyScratch {
    /// `(key, row)` of the frame being validated, sorted by key.
    keys: Vec<(u64, u32)>,
    /// The row of each member the group section names, sorted.
    members: Vec<u32>,
    /// The shard's tenant id of each entry of the frame's string table.
    tenant_ids: Vec<u32>,
}

/// Where a frame row's runs start in the ragged columns; the row writer
/// moves it past each row it lands.
#[derive(Default)]
struct RowAt {
    hull: usize,
    recent: usize,
    runs: usize,
    pend: usize,
}

/// The values a float cell may hold.
#[derive(Clone, Copy)]
enum Domain {
    /// Finite and `>= 0`: a backlog, a total, an allocation, a sum of
    /// arrivals.
    NonNegative,
    /// Finite: a rolling window sum (its subtractions may leave a
    /// rounding residue below zero) or a hull vertex.
    Finite,
    /// Non-negative, or `NaN` for "none yet".
    NoneYetNaN,
    /// Non-negative, or `+∞` while the high tracker is in grace.
    GraceInfinity,
}

impl Domain {
    fn holds(self, v: f64) -> bool {
        let non_negative = v.is_finite() && v >= 0.0;
        match self {
            Domain::NonNegative => non_negative,
            Domain::Finite => v.is_finite(),
            Domain::NoneYetNaN => non_negative || v.is_nan(),
            Domain::GraceInfinity => non_negative || v == f64::INFINITY,
        }
    }
}

/// Every float column's value domain, and the field a cell outside it is
/// refused as. `+0.0`, a sparse column's absent cell, is in every domain.
const DOMAINS: [(usize, Domain, &str); 21] = {
    use columnar::*;
    use Domain::*;
    [
        (C_F64, NonNegative, "columnar.shadow_backlog"),
        (C_F64 + 1, NonNegative, "columnar.current_alloc"),
        (C_F64 + 2, NonNegative, "columnar.peak_alloc"),
        (C_F64 + 3, NonNegative, "columnar.total_arrived"),
        (C_F64 + 4, NonNegative, "columnar.total_served"),
        (C_F64 + 5, NonNegative, "columnar.total_allocated"),
        (C_F64 + 6, Finite, "columnar.window_arrived"),
        (C_F64 + 7, Finite, "columnar.window_allocated"),
        (C_F64 + 8, NonNegative, "columnar.backlog"),
        (C_F64 + 9, NonNegative, "columnar.b_on"),
        (C_F64 + 10, NonNegative, "columnar.low_total"),
        (C_F64 + 11, NonNegative, "columnar.low_low"),
        (C_F64 + 12, NonNegative, "columnar.high_window_sum"),
        (C_F64 + 13, GraceInfinity, "columnar.high_min_window_sum"),
        (C_F64 + 14, NoneYetNaN, "columnar.min_util"),
        (C_F64 + 15, NonNegative, "columnar.max_delay_exact"),
        (C_HULL_X, Finite, "columnar.hull_x"),
        (C_HULL_Y, Finite, "columnar.hull_y"),
        (C_RECENT, NonNegative, "columnar.recent"),
        (C_RUNS_VALUE, NonNegative, "columnar.alloc_runs_value"),
        (C_PEND_BITS, NonNegative, "columnar.pend_bits"),
    ]
};

/// The one validator of session state on its way into a shard — a
/// checkpoint frame on recovery, a process image's frame on restore, a
/// mirror's frame, a lease on import — run in full before any of it
/// lands. The frame must run `single` at `cost` (the kernel keeps one
/// shard-wide parameter block, so a row under other rules would silently
/// change them); carry ragged bodies that the rows' run lengths add up
/// to; hold rows the kernel could hold (in range keys and tenants, known flags, a ring no
/// longer than `W` or its clock, an open stage no older than its clock
/// whose high window the ring covers, allocation runs that tile the
/// ring, a delay FIFO that agrees with its window, no key twice, group
/// members that are the frame's pooled rows, each once); and hold every
/// float cell in its column's [`DOMAINS`] — what the kernel would
/// otherwise compute with. [`columnar::parse`] has checked the columns'
/// counts.
///
/// # Errors
///
/// The first offending `columnar.*` field, for
/// `CtrlError::InvalidCheckpoint`.
fn validate_frame(
    f: &RawFrame<'_>,
    single: &SingleConfig,
    cost: CostModel,
    scratch: &mut ApplyScratch,
) -> Result<(), &'static str> {
    use columnar::*;
    let w = single.w;
    if f.w as usize != w {
        return Err("columnar.w");
    }
    if f.cost.per_bandwidth_tick.to_bits() != cost.per_bandwidth_tick.to_bits()
        || f.cost.per_change.to_bits() != cost.per_change.to_bits()
        || f.b_max.to_bits() != single.b_max.to_bits()
        || f.d_o != single.d_o as u64
        || f.u_o.to_bits() != single.u_o.to_bits()
    {
        return Err("columnar.cfg");
    }
    let rows = f.rows as usize;
    // Ragged bodies must account for exactly the sum of the per-row
    // run lengths — a mismatched cursor would smear rows together.
    // (The FIFO's cells are counted row by row below.)
    for (len_c, body_c) in [
        (C_HULL_LEN, C_HULL_X),
        (C_RECENT_LEN, C_RECENT),
        (C_RUNS_LEN, C_RUNS_TICKS),
    ] {
        let total = (0..rows).try_fold(0u64, |sum, r| sum.checked_add(u64_at(f.col(len_c), r)));
        if total != Some(u64::from(f.col(body_c).count)) {
            return Err("columnar.ragged");
        }
    }
    const KNOWN: u64 = (F_LIVE | F_DEDICATED | F_LEAVING | F_STAGE_OPEN) as u64;
    let dedicated = |r: usize| u64_at(f.col(C_FLAGS), r) & u64::from(F_DEDICATED) != 0;
    scratch.keys.clear();
    let mut pooled_rows = 0usize;
    let mut at = RowAt::default();
    for r in 0..rows {
        // The key index is direct-mapped — one table slot per key up
        // to the maximum — so an astronomical key in a hostile frame
        // would translate straight into an astronomical allocation.
        if u64_at(f.col(C_KEY), r) >= MAX_FRAME_KEY {
            return Err("columnar.key");
        }
        let recent_n = u64_at(f.col(C_RECENT_LEN), r) as usize;
        let clock = u64_at(f.col(C_U64 + 1), r);
        if recent_n > w || recent_n as u64 > clock {
            return Err("columnar.ring");
        }
        // Only the FIFO's head and spill travel: the entries behind
        // the head that the window covers are its arrivals.
        let recent = (at.recent..at.recent + recent_n).map(|j| f64_at(f.col(C_RECENT), j));
        let pend_n = u64_at(f.col(C_PEND_LEN), r);
        at.pend += fifo_cells(f.col(C_PEND_AGE), at.pend, pend_n, clock, recent)?;
        at.recent += recent_n;
        let flags = u64_at(f.col(C_FLAGS), r);
        if flags & !KNOWN != 0 || flags & u64::from(F_LIVE) == 0 {
            return Err("columnar.flags");
        }
        let open = flags & u64::from(F_STAGE_OPEN) != 0;
        if !dedicated(r) && open {
            return Err("columnar.flags");
        }
        if u64_at(f.col(C_TENANT), r) >= f.strings.len() as u64 {
            return Err("columnar.tenant");
        }
        // An open stage started at the meter's clock less its ticks,
        // and its high window is the ring's newest `min(ticks, W)`
        // arrivals: both must exist.
        let stage = u64_at(f.col(C_U64), r);
        if open && (stage > clock || stage.min(w as u64) > recent_n as u64) {
            return Err("columnar.stage");
        }
        let runs_n = u64_at(f.col(C_RUNS_LEN), r) as usize;
        check_runs(
            f.col(C_RUNS_TICKS),
            f.col(C_RUNS_VALUE),
            at.runs..at.runs + runs_n,
            recent_n,
        )?;
        at.runs += runs_n;
        pooled_rows += usize::from(!dedicated(r));
        scratch.keys.push((u64_at(f.col(C_KEY), r), r as u32));
    }
    if at.pend != f.col(C_PEND_AGE).count as usize {
        return Err("columnar.pend");
    }
    scratch.keys.sort_unstable();
    if scratch.keys.windows(2).any(|p| p[0].0 == p[1].0) {
        return Err("columnar.keys"); // one key, two rows
    }
    if !f.groups.windows(2).all(|g| g[0].group < g[1].group) {
        return Err("columnar.groups");
    }
    // A row carries no group: the group section names its pooled
    // rows. Every listed member must resolve to a pooled row of the
    // frame, and every pooled row must be listed exactly once, or the
    // rebuilt pool would silently drop it.
    scratch.members.clear();
    for g in &f.groups {
        // Group ids feed the same direct-mapped index as session keys.
        if g.group >= MAX_FRAME_KEY {
            return Err("columnar.key");
        }
        if !g.members.windows(2).all(|m| m[0].0 < m[1].0) {
            return Err("columnar.groups");
        }
        for &(_, key) in &g.members {
            let pos = scratch
                .keys
                .binary_search_by_key(&key, |&(k, _)| k)
                .map_err(|_| "columnar.groups")?;
            let r = scratch.keys[pos].1;
            if dedicated(r as usize) {
                return Err("columnar.groups");
            }
            scratch.members.push(r);
        }
    }
    scratch.members.sort_unstable();
    if scratch.members.len() != pooled_rows || scratch.members.windows(2).any(|p| p[0] == p[1]) {
        return Err("columnar.groups");
    }
    // Value domains, a column at a time over its written cells.
    for (col, domain, field) in DOMAINS {
        if !float_cells(f.col(col)).all(|v| domain.holds(v)) {
            return Err(field);
        }
    }
    Ok(())
}

/// Checks that a frame is a lease — one dedicated row, no group section,
/// no retired list — then validates it ([`validate_frame`]). Returns the
/// row's tenant.
///
/// # Errors
///
/// `columnar.migration` for any other shape, else the validator's field.
pub(crate) fn validate_lease<'f>(
    f: &RawFrame<'f>,
    single: &SingleConfig,
    cost: CostModel,
) -> Result<&'f str, &'static str> {
    use columnar::{u64_at, C_FLAGS, C_TENANT};
    // A one-row frame's fixed columns hold one cell each.
    let dedicated = || u64_at(f.col(C_FLAGS), 0) & u64::from(F_DEDICATED) != 0;
    if f.rows != 1 || !f.groups.is_empty() || !f.retired.is_empty() || !dedicated() {
        return Err("columnar.migration");
    }
    validate_frame(f, single, cost, &mut ApplyScratch::default())?;
    Ok(f.strings[u64_at(f.col(C_TENANT), 0) as usize])
}

impl Columns {
    /// Lands row `r` of a validated frame in vacant slot `i`, bitwise —
    /// all of it but the tenant, an index into the frame's string table —
    /// and moves `at` past the row's ragged cells. What the frame does not
    /// carry stays at its vacant value (arrived 0, ring head 0, the FIFO
    /// head 0/0.0 when there is none), and so do the trackers of a row
    /// with no open stage.
    fn land_row(&mut self, i: usize, f: &RawFrame<'_>, r: usize, at: &mut RowAt) {
        use columnar::*;
        let flags = u64_at(f.col(C_FLAGS), r) as u32;
        let hull_n = u64_at(f.col(C_HULL_LEN), r) as usize;
        let recent_n = u64_at(f.col(C_RECENT_LEN), r) as usize;
        let runs_n = u64_at(f.col(C_RUNS_LEN), r) as usize;
        let pend_n = u64_at(f.col(C_PEND_LEN), r);
        let f64s = |j: usize| f64_at(f.col(C_F64 + j), r);
        self.keys[i] = u64_at(f.col(C_KEY), r);
        self.flags[i] = flags;
        self.shadow_backlog[i] = f64s(0);
        self.current_alloc[i] = f64s(1);
        self.peak_alloc[i] = f64s(2);
        self.total_arrived[i] = f64s(3);
        self.total_served[i] = f64s(4);
        self.total_allocated[i] = f64s(5);
        self.window_arrived[i] = f64s(6);
        self.window_allocated[i] = f64s(7);
        self.backlog[i] = f64s(8);
        self.b_on[i] = f64s(9);
        self.min_util[i] = f64s(14);
        self.max_delay_exact[i] = f64s(15);
        let clock = u64_at(f.col(C_U64 + 1), r);
        self.meter_ticks[i] = clock;
        self.changes[i] = u64_at(f.col(C_U64 + 2), r);
        self.stages_completed[i] = u64_at(f.col(C_U64 + 3), r);
        // The ring lands at head = 0, exactly how the encoder read it,
        // its allocation runs expanded in place.
        let arrivals = (at.recent..at.recent + recent_n).map(|j| f64_at(f.col(C_RECENT), j));
        let runs = at.runs..at.runs + runs_n;
        let allocs = expand_runs(f.col(C_RUNS_TICKS), f.col(C_RUNS_VALUE), runs);
        self.recent_ring.land(i, arrivals.clone().zip(allocs));
        self.recent_len[i] = recent_n as u32;
        if flags & F_STAGE_OPEN != 0 {
            self.stage_ticks[i] = u64_at(f.col(C_U64), r);
            self.low_total[i] = f64s(10);
            self.low_low[i] = f64s(11);
            self.high_window_sum[i] = f64s(12);
            self.high_min_window_sum[i] = f64s(13);
            let vertices = at.hull..at.hull + hull_n;
            let vertices =
                vertices.map(|j| (f64_at(f.col(C_HULL_X), j), f64_at(f.col(C_HULL_Y), j)));
            self.land_hull(i, hull_n, vertices);
        }
        let held = fifo_cells(f.col(C_PEND_AGE), at.pend, pend_n, clock, arrivals)
            .expect("validated: the FIFO agrees with its window");
        let cells = at.pend..at.pend + held;
        let entries = fifo_held(f.col(C_PEND_AGE), f.col(C_PEND_BITS), cells, clock);
        self.land_pending(i, pend_n as u32, entries);
        at.hull += hull_n;
        at.recent += recent_n;
        at.runs += runs_n;
        at.pend += held;
    }
}

impl ShardState {
    /// Every group's state, sorted by id (members by pool id) — identical
    /// event histories list identically.
    pub(super) fn group_checkpoints(&self) -> Vec<GroupCheckpoint> {
        let mut groups: Vec<GroupCheckpoint> = self
            .groups
            .iter()
            .map(|(_, g)| {
                let mut members: Vec<(u64, u64)> = g
                    .by_member
                    .iter()
                    .map(|&(member, key, _)| (member.raw(), key))
                    .collect();
                members.sort_unstable();
                GroupCheckpoint {
                    group: g.group,
                    pool: g.pool.checkpoint(),
                    members,
                }
            })
            .collect();
        groups.sort_unstable_by_key(|g| g.group);
        groups
    }

    /// Appends the shard as one columnar checkpoint frame — every live
    /// session, every group, the full retired list — to `out`, grown by
    /// the frame's exact length when it lacks the room. Returns the
    /// number of session rows encoded.
    pub(crate) fn encode_columnar(
        &self,
        sink: &mut columnar::ColumnSink,
        out: &mut Vec<u8>,
    ) -> u64 {
        let groups = self.group_checkpoints();
        self.encode_rows(
            self.live_slots(),
            self.header(),
            &groups,
            &self.retired,
            sink,
            out,
        )
    }

    /// The frame header of this shard: its clock, retired stages and
    /// configuration.
    pub(super) fn header(&self) -> columnar::FrameHeader {
        columnar::FrameHeader {
            ticks: self.ticks,
            stages_retired: self.stages_retired,
            w: self.window as u32,
            cost: self.cost,
            b_max: self.single_cfg.b_max,
            d_o: self.single_cfg.d_o as u64,
            u_o: self.single_cfg.u_o,
        }
    }

    /// A frame of the rows of `slots`, in that order, under `hdr`, with
    /// `groups` and `retired` as its tail sections.
    pub(super) fn encode_rows(
        &self,
        slots: impl IntoIterator<Item = usize>,
        hdr: columnar::FrameHeader,
        groups: &[GroupCheckpoint],
        retired: &[SessionMetrics],
        sink: &mut columnar::ColumnSink,
        out: &mut Vec<u8>,
    ) -> u64 {
        sink.begin();
        for i in slots {
            sink.push_row(i as u32, self.tenants.name(self.cols.tenant[i]));
        }
        sink.write(self, &hdr, groups, retired, out)
    }

    /// Applies one parsed columnar frame. [`validate_frame`] runs in full
    /// before any mutation — a hostile frame yields a typed `columnar.*`
    /// field with the shard untouched; once mutation starts, nothing can
    /// fail.
    ///
    /// The frame replaces the whole population: slots compact to `0..n`
    /// in row order.
    ///
    /// # Errors
    ///
    /// A `columnar.*` field name for `CtrlError::InvalidCheckpoint`.
    pub(crate) fn apply_frame(
        &mut self,
        f: &columnar::RawFrame<'_>,
        scratch: &mut ApplyScratch,
    ) -> Result<(), &'static str> {
        validate_frame(f, &self.single_cfg, self.cost, scratch)?;
        // ---- mutate: infallible from here on ----
        // Row `r` lands in slot `r` of emptied columns.
        let rows = f.rows as usize;
        self.index.clear();
        self.slots.reset(rows);
        self.group_index.clear();
        self.groups.clear();
        self.cols.recycle();
        self.cols.grow_to(rows, self.window);
        // The frame's string table may repeat a name; every entry maps
        // to the id its name interns to, so a repeat shares one id.
        self.tenants.clear();
        scratch.tenant_ids.clear();
        for &name in &f.strings {
            let id = self.tenants.intern(&Arc::from(name));
            scratch.tenant_ids.push(id);
        }
        let mut at = RowAt::default();
        for r in 0..rows {
            self.cols.land_row(r, f, r, &mut at);
            self.index.insert(self.cols.keys[r], r as u32);
            // A frame index, validated below the string table's length.
            let tenant = columnar::u64_at(f.col(columnar::C_TENANT), r);
            self.cols.tenant[r] = scratch.tenant_ids[tenant as usize];
        }
        // Groups, every member validated to be a pooled row.
        for g in &f.groups {
            let by_member = g
                .members
                .iter()
                .map(|&(member, key)| {
                    let slot = self
                        .index
                        .get(key)
                        .expect("validated: member sessions are live after the frame");
                    (PoolSessionId::from_raw(member), key, slot)
                })
                .collect();
            self.insert_group(g.group, SessionPool::restore(&g.pool), by_member);
        }
        let retired = Arc::make_mut(&mut self.retired);
        retired.clear();
        retired.extend(f.retired.iter().cloned());
        self.cols.hull_free.clear(); // the spills no hull took
        self.ticks = f.ticks;
        self.stages_retired = f.stages_retired;
        Ok(())
    }

    /// Session `key`'s lease: its row as a one-row frame with no group
    /// section and no retired list, clock and retired stages 0, the blob a
    /// live migration carries. `None` for an unknown key or a pooled
    /// member, whose dynamics are not separable from its group.
    pub(crate) fn lease(&self, key: u64, sink: &mut columnar::ColumnSink) -> Option<Vec<u8>> {
        let i = self.slot_of(key)?;
        if self.cols.flags[i] & F_DEDICATED == 0 {
            return None;
        }
        let hdr = columnar::FrameHeader {
            ticks: 0,
            stages_retired: 0,
            ..self.header()
        };
        let mut out = Vec::new();
        self.encode_rows([i], hdr, &[], &[], sink, &mut out);
        Some(out)
    }

    /// Re-creates a migrated-in dedicated session bitwise from its lease
    /// ([`ShardState::lease`]): the frame's one row lands in a fresh slot
    /// through the row writer a frame apply uses, under `key` (fresh in
    /// this service) and `tenant`.
    ///
    /// # Panics
    ///
    /// On a lease that fails [`validate_frame`]: the import path refused
    /// it typed at the service boundary, so this is a corrupted journal,
    /// and degrades to a downed shard under `catch_unwind`.
    pub(super) fn import(&mut self, key: u64, tenant: &Arc<str>, lease: &[u8]) {
        let f = columnar::parse(lease).expect("a journaled lease parses");
        let mut scratch = ApplyScratch::default();
        validate_frame(&f, &self.single_cfg, self.cost, &mut scratch)
            .expect("a journaled lease validates");
        let (i, vacant) = self.take_slot(key);
        if !vacant {
            self.cols.reset_scalars(i);
        }
        self.cols.land_row(i, &f, 0, &mut RowAt::default());
        self.cols.keys[i] = key;
        self.cols.tenant[i] = self.tenants.intern(tenant);
    }

    /// The report of a [`Collect::Image`] or a [`Collect::Lease`]: the
    /// `frame` it asked for (empty for a lease with no live session), and
    /// no metrics.
    pub(crate) fn frame_report(&self, frame: Vec<u8>) -> ShardReport {
        ShardReport {
            shard: self.shard,
            epoch: self.epoch,
            retired: Arc::default(),
            live: Vec::new(),
            rows: 0,
            last: true,
            stages_completed: 0,
            frame,
        }
    }

    /// Every live row as `(key, tenant, leaving, group)`, in slot order:
    /// what the driver's placements, groups and admission grants are
    /// re-derived from when a process image is restored.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (u64, &Arc<str>, bool, Option<u64>)> + '_ {
        self.live_slots().map(|i| {
            let flags = self.cols.flags[i];
            let group = (flags & F_DEDICATED == 0).then(|| {
                let g = self.groups.get(self.cols.group[i]);
                g.expect("a pooled slot's group is live").group
            });
            let tenant = self.tenants.name(self.cols.tenant[i]);
            (self.cols.keys[i], tenant, flags & F_LEAVING != 0, group)
        })
    }
}

/// A shard's frame rows, read straight from its columns: one sequential
/// run per column.
impl columnar::ColumnSource for ShardState {
    fn columns(&self, rows: &columnar::Rows<'_>, f: &mut impl columnar::ColumnWriter) {
        use columnar::*;
        let cols = &self.cols;
        let (w, ring) = (self.window, &cols.recent_ring);
        let cursors = (&cols.recent_head[..], &cols.recent_len[..]);
        // The arrivals and the allocations are the ring block's two
        // halves, so each column reads its own half alone.
        let allocs = move |i: usize| ring.allocs(w, cursors, i);
        let slots = || rows.slots.iter().map(|&i| i as usize);
        f.col(C_KEY, at_slots(&cols.keys, rows.slots));
        f.col(C_TENANT, rows.tenants.iter().copied());
        f.col(C_FLAGS, at_slots(&cols.flags, rows.slots));
        let f64_cols: [&[f64]; 16] = [
            &cols.shadow_backlog,
            &cols.current_alloc,
            &cols.peak_alloc,
            &cols.total_arrived,
            &cols.total_served,
            &cols.total_allocated,
            &cols.window_arrived,
            &cols.window_allocated,
            &cols.backlog,
            &cols.b_on,
            &cols.low_total,
            &cols.low_low,
            &cols.high_window_sum,
            &cols.high_min_window_sum,
            &cols.min_util,
            &cols.max_delay_exact,
        ];
        for (j, src) in f64_cols.into_iter().enumerate() {
            f.col(C_F64 + j, at_slots(src, rows.slots));
        }
        let u64_cols: [&[u64]; 4] = [
            &cols.stage_ticks,
            &cols.meter_ticks,
            &cols.changes,
            &cols.stages_completed,
        ];
        for (j, src) in u64_cols.into_iter().enumerate() {
            f.col(C_U64 + j, at_slots(src, rows.slots));
        }
        let hull = move || slots().flat_map(|i| cols.hull(i).iter());
        f.col(C_HULL_LEN, at_slots(&cols.hull_len, rows.slots));
        f.col(C_HULL_X, hull().map(|p| p.0));
        f.col(C_HULL_Y, hull().map(|p| p.1));
        f.col(C_RECENT_LEN, at_slots(&cols.recent_len, rows.slots));
        f.col(C_RECENT, slots().flat_map(|i| ring.arrivals(w, cursors, i)));
        let all_runs = move || slots().flat_map(move |i| runs(allocs(i)));
        f.col(C_RUNS_LEN, slots().map(|i| runs(allocs(i)).count() as u64));
        f.col(C_RUNS_TICKS, all_runs().map(|r| r.0));
        f.col(C_RUNS_VALUE, all_runs().map(|r| r.1));
        // The FIFO's head and spill: the window's arrivals behind them
        // are derived on apply.
        let held = move || slots().flat_map(|i| cols.fifo_held(i).map(move |p| (i, p)));
        f.col(C_PEND_LEN, at_slots(&cols.pend_len, rows.slots));
        f.col(
            C_PEND_AGE,
            held().map(|(i, (t, _))| cols.meter_ticks[i] - t),
        );
        f.col(C_PEND_BITS, held().map(|(_, (_, b))| b));
    }
}
