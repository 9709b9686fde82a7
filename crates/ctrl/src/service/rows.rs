//! A snapshot without its session table: the head of an inline plane's
//! snapshot, and a cursor that reads its rows straight off the shard
//! columns in key order, one at a time.
//!
//! [`ControlPlane::snapshot_rows`] walks the rows once to fold the head —
//! totals, per-shard sums, the row count and what the rows encode to — in
//! the order [`ServiceSnapshot::assemble`] folds a sorted table, so the
//! head is the table-built snapshot's, bit for bit. The cursor then walks
//! them again for whoever encodes them. Nothing holds the table: a live
//! row is read from its slot, a retired row from its shard's retired list,
//! and the walk keeps one key counter plus, per shard, the retired list's
//! order by key (4 B a retired row). The rows are only valid while the
//! plane is unchanged, which a cursor asserts.

use super::{Backend, ControlPlane};
use crate::codec::session_metrics_len;
use crate::meter::SessionMetrics;
use crate::metrics::{ServiceSnapshot, Totals};
use crate::shard::ShardState;

/// An inline plane's snapshot with its rows left on the shard columns.
pub struct SnapshotRows {
    /// The snapshot, its `sessions` table empty.
    pub head: ServiceSnapshot,
    /// The bytes [`crate::codec::encode_session_metrics`] writes for them.
    pub row_bytes: usize,
    /// The rows, in key order, from the first; [`RowCursor::left`] is
    /// how many there are.
    pub cursor: RowCursor,
}

/// Where a walk over a [`SnapshotRows`]'s rows stands. Read it with
/// [`ControlPlane::next_row`] on the plane that made it, before that
/// plane changes.
#[derive(Debug)]
pub struct RowCursor {
    /// The next key to look for.
    next: u64,
    /// One past the last key the plane had issued.
    end: u64,
    /// Per shard, its retired list's indices ascending by key, and how
    /// many of them the walk has passed.
    retired: Vec<(Vec<u32>, usize)>,
    /// Rows not yet read.
    left: usize,
    /// The plane's mutation count when the cursor was made.
    generation: u64,
}

impl RowCursor {
    fn new(states: &[ShardState], end: u64, generation: u64) -> Self {
        let retired = states
            .iter()
            .map(|state| {
                let rows = state.retired();
                let mut order: Vec<u32> = (0..rows.len() as u32).collect();
                order.sort_unstable_by_key(|&i| rows[i as usize].session);
                (order, 0)
            })
            .collect();
        RowCursor {
            next: 0,
            end,
            retired,
            left: 0,
            generation,
        }
    }

    /// Rows not yet read.
    pub fn left(&self) -> usize {
        self.left
    }

    /// The row of the next key any shard holds: live on one, or retired
    /// on one. A key in neither (a session leased away) has no row.
    fn step(&mut self, states: &[ShardState]) -> Option<SessionMetrics> {
        while self.next < self.end {
            let key = self.next;
            self.next += 1;
            if let Some(row) = states.iter().find_map(|state| state.live_metrics(key)) {
                return Some(row);
            }
            for (state, (order, at)) in states.iter().zip(&mut self.retired) {
                let Some(&i) = order.get(*at) else {
                    continue;
                };
                let row = &state.retired()[i as usize];
                if row.session == key {
                    *at += 1;
                    return Some(row.clone());
                }
            }
        }
        debug_assert!(
            self.retired.iter().all(|(order, at)| *at == order.len()),
            "every retired row has a key below the plane's next"
        );
        None
    }
}

impl ControlPlane {
    /// The snapshot [`ControlPlane::snapshot`] would return, without its
    /// session table: the head, and a cursor over the rows in key order
    /// ([`ControlPlane::next_row`]). Only an inline plane's driver holds
    /// the shard columns; a threaded plane returns `None`.
    pub fn snapshot_rows(&self) -> Option<SnapshotRows> {
        let Backend::Inline(states) = &self.backend else {
            return None;
        };
        let mut cursor = RowCursor::new(states, self.next_key, self.generation);
        let mut totals = Totals::new(self.cfg.shards as u64);
        let mut row_bytes = 0;
        while let Some(row) = cursor.step(states) {
            totals.add(&row);
            cursor.left += 1;
            row_bytes += session_metrics_len(&row);
        }
        // Rewound for the rows' second walk.
        cursor.next = 0;
        for (_, at) in &mut cursor.retired {
            *at = 0;
        }
        let stages: u64 = states.iter().map(ShardState::stages_completed).sum();
        let head = totals.finish(self.counters(), self.health());
        self.publish(&head, stages);
        Some(SnapshotRows {
            head,
            row_bytes,
            cursor,
        })
    }

    /// The next row of `cursor`, or `None` past its last.
    ///
    /// # Panics
    ///
    /// On a threaded plane, which makes no cursors, and when the plane
    /// changed since it made `cursor`: the rows left would not be the
    /// ones its head counted.
    pub fn next_row(&self, cursor: &mut RowCursor) -> Option<SessionMetrics> {
        let Backend::Inline(states) = &self.backend else {
            panic!("a threaded plane makes no row cursors");
        };
        assert_eq!(
            cursor.generation, self.generation,
            "the plane changed under a row cursor"
        );
        let row = cursor.step(states)?;
        cursor.left -= 1;
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{ExecMode, ServiceConfig};
    use crate::ControlPlane;

    /// Three inline shards with pooled groups, sessions draining, retired
    /// out of key order, one leased away, and one admitted after the
    /// last tick.
    fn churned() -> ControlPlane {
        let cfg = ServiceConfig::builder(4096.0)
            .session_b_max(16.0)
            .group_b_o(8.0)
            .offline_delay(4)
            .window(4)
            .shards(3)
            .exec(ExecMode::Inline)
            .build()
            .expect("valid config");
        let mut plane = ControlPlane::new(cfg);
        let mut keys = plane.admit_group("initech", 3).expect("group");
        for i in 0..24 {
            keys.push(plane.admit(["acme", "globex", "umbrella"][i % 3]).unwrap());
        }
        for t in 0..10u64 {
            let arrivals: Vec<_> = keys.iter().map(|&k| (k, ((k + t) % 4) as f64)).collect();
            plane.tick(&arrivals).unwrap();
            if t % 3 == 2 {
                let gone = keys.remove(keys.len() - 1 - t as usize);
                plane.leave(gone).unwrap();
            }
        }
        let moved = keys.remove(5);
        plane.export_session(moved).unwrap();
        plane.leave(keys[0]).unwrap(); // a pooled member, draining
        plane.admit("acme").unwrap();
        plane
    }

    #[test]
    fn rows_read_off_the_columns_are_the_snapshot_bit_for_bit() {
        let mut plane = churned();
        let table = plane.snapshot().unwrap();
        let mut live = plane.snapshot_rows().expect("inline");
        assert_eq!(live.cursor.left(), table.sessions.len());
        let rows: Vec<_> = std::iter::from_fn(|| plane.next_row(&mut live.cursor)).collect();
        assert_eq!(live.cursor.left(), 0);
        live.head.sessions = rows;
        // The JSON encoding is exact, so equal text is equal bits.
        assert_eq!(live.head.to_json_string(), table.to_json_string());
        assert_eq!(live.head, table);
        let bytes: usize = table
            .sessions
            .iter()
            .map(crate::codec::session_metrics_len)
            .sum();
        assert_eq!(live.row_bytes, bytes);
        assert!(table
            .sessions
            .windows(2)
            .all(|w| w[0].session < w[1].session));
        assert!((0..3).all(|s| table.sessions.iter().any(|m| m.shard == s)));
    }

    #[test]
    fn a_threaded_plane_makes_no_row_cursor() {
        let cfg = ServiceConfig::builder(64.0)
            .exec(ExecMode::Threaded)
            .build()
            .unwrap();
        let plane = ControlPlane::new(cfg);
        assert!(plane.snapshot_rows().is_none());
        plane.shutdown();
    }

    #[test]
    #[should_panic(expected = "the plane changed under a row cursor")]
    fn a_cursor_refuses_a_changed_plane() {
        let mut plane = churned();
        let mut live = plane.snapshot_rows().expect("inline");
        plane.admit("acme").unwrap();
        plane.next_row(&mut live.cursor);
    }
}
