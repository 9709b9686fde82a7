//! Stage bookkeeping shared by all algorithms.
//!
//! The paper's lower-bound arguments are *per stage*: every completed stage
//! certifies at least one change by any offline algorithm, so the stage log
//! doubles as the certificate used to compute competitive ratios.

use serde::{Deserialize, Serialize};

/// Why a stage ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageKind {
    /// The single-session certificate fired: `high(t) < low(t)` — no constant
    /// offline allocation can span this stage (paper §2).
    BoundsCrossed,
    /// The multi-session certificate fired: total regular bandwidth exceeded
    /// `2·B_O` (paper §3, Lemma 13).
    RegularOverflow,
    /// The combined algorithm's global certificate fired (paper §4).
    GlobalBoundsCrossed,
    /// A local stage of the combined algorithm ended because the global
    /// allocation `B_on` changed (not an offline-change certificate by
    /// itself).
    BudgetChanged,
}

/// One completed (or still-open) stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Tick at which the stage started.
    pub start: usize,
    /// Tick at which the stage ended (exclusive); `None` while open.
    pub end: Option<usize>,
    /// Why it ended (meaningless while open).
    pub kind: StageKind,
}

/// An append-only log of stages.
///
/// The proofs need only the *count* of completed stages, so a long-running
/// owner may drop closed records with [`StageLog::forget_closed`]; the log
/// then carries their count in `forgotten` and memory stops following
/// uptime. Nothing in this crate forgets — the reference algorithms and
/// every test over [`StageLog::records`] see full history.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageLog {
    /// Completed stages whose records [`StageLog::forget_closed`] dropped.
    forgotten: usize,
    records: Vec<StageRecord>,
}

impl StageLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        StageLog::default()
    }

    /// Opens a new stage at `tick`.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if the previous stage is still open.
    pub fn open(&mut self, tick: usize) {
        debug_assert!(
            self.records.last().is_none_or(|r| r.end.is_some()),
            "opening a stage while one is open"
        );
        self.records.push(StageRecord {
            start: tick,
            end: None,
            kind: StageKind::BoundsCrossed,
        });
    }

    /// Closes the open stage at `tick` with the given reason.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if no stage is open.
    pub fn close(&mut self, tick: usize, kind: StageKind) {
        let last = self.records.last_mut().expect("no stage to close");
        debug_assert!(last.end.is_none(), "closing a closed stage");
        last.end = Some(tick);
        last.kind = kind;
    }

    /// The retained records, in order: every stage since the last
    /// [`StageLog::forget_closed`] (all of them if it was never called).
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// Rebuilds a log from exported parts (e.g. a decoded checkpoint):
    /// the count of forgotten completed stages and the retained records,
    /// taken verbatim; ordering is the caller's contract.
    pub fn from_parts(forgotten: usize, records: Vec<StageRecord>) -> Self {
        StageLog { forgotten, records }
    }

    /// Drops every closed record, keeping their count — the log shrinks to
    /// at most the open stage. The dropped records' kinds go with them, so
    /// this is only for logs that never close a stage as
    /// [`StageKind::BudgetChanged`] ([`StageLog::certified`] counts every
    /// forgotten stage as certified).
    pub fn forget_closed(&mut self) {
        let open = self.records.pop_if(|r| r.end.is_none());
        debug_assert!(
            self.records
                .iter()
                .all(|r| r.kind != StageKind::BudgetChanged),
            "forgetting an uncertified stage"
        );
        self.forgotten += self.records.len();
        self.records.clear();
        self.records.extend(open);
    }

    /// Completed stages no longer in [`StageLog::records`].
    pub fn forgotten(&self) -> usize {
        self.forgotten
    }

    /// Start tick of the open stage, if one is open.
    pub fn open_start(&self) -> Option<usize> {
        self.records
            .last()
            .filter(|r| r.end.is_none())
            .map(|r| r.start)
    }

    /// Number of *completed* stages — the offline-change lower bound
    /// certificate (each completed stage forces ≥ 1 offline change).
    pub fn completed(&self) -> usize {
        self.forgotten + self.records.iter().filter(|r| r.end.is_some()).count()
    }

    /// Number of completed stages that carry an offline-change certificate
    /// (excludes [`StageKind::BudgetChanged`] local stages).
    pub fn certified(&self) -> usize {
        self.forgotten
            + self
                .records
                .iter()
                .filter(|r| r.end.is_some() && r.kind != StageKind::BudgetChanged)
                .count()
    }

    /// Total number of stages including an open one.
    pub fn len(&self) -> usize {
        self.forgotten + self.records.len()
    }

    /// `true` if no stage was ever opened.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_cycle() {
        let mut log = StageLog::new();
        log.open(0);
        assert_eq!(log.completed(), 0);
        log.close(10, StageKind::BoundsCrossed);
        log.open(12);
        assert_eq!(log.completed(), 1);
        assert_eq!(log.len(), 2);
        assert_eq!(log.records()[0].end, Some(10));
        assert_eq!(log.records()[1].start, 12);
    }

    #[test]
    fn certified_excludes_budget_changes() {
        let mut log = StageLog::new();
        log.open(0);
        log.close(5, StageKind::BudgetChanged);
        log.open(5);
        log.close(9, StageKind::RegularOverflow);
        assert_eq!(log.completed(), 2);
        assert_eq!(log.certified(), 1);
    }

    #[test]
    fn forgetting_keeps_the_counts_and_the_open_stage() {
        let mut log = StageLog::new();
        log.open(0);
        log.close(5, StageKind::BoundsCrossed);
        log.open(7);
        log.close(9, StageKind::RegularOverflow);
        log.open(9);
        let full = log.clone();
        log.forget_closed();
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.forgotten(), 2);
        for l in [&full, &log] {
            assert_eq!((l.completed(), l.certified(), l.len()), (2, 2, 3));
            assert_eq!(l.open_start(), Some(9));
        }
        log.close(12, StageKind::BoundsCrossed);
        log.forget_closed();
        assert_eq!((log.completed(), log.open_start()), (3, None));
        assert!(log.records().is_empty() && !log.is_empty());
        assert_eq!(log, StageLog::from_parts(3, Vec::new()));
    }

    #[test]
    #[should_panic(expected = "no stage to close")]
    fn closing_without_opening_panics() {
        let mut log = StageLog::new();
        log.close(1, StageKind::BoundsCrossed);
    }
}
