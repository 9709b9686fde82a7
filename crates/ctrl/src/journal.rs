//! The recovery journal, shared by both levels of the stack.
//!
//! The allocators are deterministic online functions of their inputs, so
//! recovery is one job wherever it happens: keep a snapshot, journal every
//! input since it, and trim the journal when the next snapshot lands. A
//! shard's supervisor journals replay events on top of its retained
//! checkpoint frame; the fleet journals wire ops on top of a child's
//! process image. [`Journal`] is that job, and [`TickBatch`] is how both
//! keep a tick's arrivals.

use crate::codec;
use std::collections::VecDeque;
use std::sync::Arc;

/// One journaled input.
pub trait Entry {
    /// Bytes the entry holds, counted in [`Journal::bytes`].
    fn bytes(&self) -> u64;
}

/// Inputs since the last snapshot, in order: sealed segments, each one
/// allocation shared with whoever it was sent to, then an open tail.
///
/// Counts run over the journal's whole life: [`Journal::sealed`] entries
/// have been sealed, the first [`Journal::base`] of them are covered by a
/// snapshot and gone, and the [`Journal::held`] rest are in the segments,
/// so `base + held == sealed` always. A trim drops whole segments only, so
/// `base` is always a segment edge.
#[derive(Debug)]
pub struct Journal<E> {
    segments: VecDeque<Arc<Vec<E>>>,
    tail: Vec<E>,
    base: u64,
    sealed: u64,
    bytes: u64,
}

impl<E> Default for Journal<E> {
    fn default() -> Self {
        Journal {
            segments: VecDeque::new(),
            tail: Vec::new(),
            base: 0,
            sealed: 0,
            bytes: 0,
        }
    }
}

impl<E: Entry> Journal<E> {
    /// Appends `entry` to the open tail.
    pub fn push(&mut self, entry: E) {
        self.bytes += entry.bytes();
        self.tail.push(entry);
    }

    /// Seals the open tail into a segment and returns it, shared with the
    /// journal; `None` when nothing is open.
    pub fn seal(&mut self) -> Option<Arc<Vec<E>>> {
        if self.tail.is_empty() {
            return None;
        }
        let segment = Arc::new(std::mem::take(&mut self.tail));
        self.sealed += segment.len() as u64;
        self.segments.push_back(Arc::clone(&segment));
        Some(segment)
    }

    /// Drops every segment a snapshot of the first `applied` entries
    /// covers — whole segments only, each freed as it goes, so what a burst
    /// leaves behind is the ring of pointers, not entries.
    pub fn trim_to(&mut self, applied: u64) {
        while let Some(segment) = self.segments.front() {
            let edge = self.base + segment.len() as u64;
            if edge > applied {
                break;
            }
            self.base = edge;
            self.bytes -= segment.iter().map(E::bytes).sum::<u64>();
            self.segments.pop_front();
        }
    }

    /// Every entry held, in order: the segments, then the open tail.
    pub fn replay(&self) -> impl Iterator<Item = &E> {
        self.segments
            .iter()
            .flat_map(|s| s.iter())
            .chain(&self.tail)
    }

    /// Entries trimmed away: covered by the last snapshot.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Entries sealed so far.
    pub fn sealed(&self) -> u64 {
        self.sealed
    }

    /// Sealed entries still held.
    pub fn held(&self) -> u64 {
        self.segments.iter().map(|s| s.len() as u64).sum()
    }

    /// Entries in the open tail.
    pub fn open(&self) -> usize {
        self.tail.len()
    }

    /// [`Entry::bytes`] summed over every entry held, sealed or open.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Segment slots the ring has room for.
    #[cfg(test)]
    pub(crate) fn ring_capacity(&self) -> usize {
        self.segments.capacity()
    }
}

/// One tick's arrivals as a journal keeps them: sealed bytes, in routing
/// order. Each arrival is one LEB128 varint of the 65-bit value
/// `zigzag(key − previous key) << 1 | wide` (the previous key starts at 0;
/// the delta wraps), then the bits as a little-endian `f32` when that
/// round-trips bit for bit (`wide` = 0), else as the `f64`. Ascending keys
/// with integer bits below 2^24 cost 5 bytes an arrival; nothing costs more
/// than 18 (a 10-byte varint and an `f64`). Decoding yields the exact pairs
/// in the same order, so a tick from a batch is bitwise the tick from the
/// slice it was encoded from.
#[derive(Debug, Clone)]
pub struct TickBatch(Arc<[u8]>);

impl TickBatch {
    /// Encodes `arrivals` through `buf` (a reusable scratch buffer, left
    /// holding the encoding) into one allocation of the exact length.
    pub fn encode(arrivals: &[(u64, f64)], buf: &mut Vec<u8>) -> Self {
        buf.clear();
        let mut prev = 0u64;
        for &(key, bits) in arrivals {
            let delta = key.wrapping_sub(prev) as i64;
            prev = key;
            let zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
            let narrow = codec::f32_exact(bits);
            let wide = narrow.is_none();
            let mut byte = ((zigzag & 0x3f) as u8) << 1 | u8::from(wide);
            let mut rest = zigzag >> 6;
            while rest != 0 {
                buf.push(byte | 0x80);
                byte = (rest & 0x7f) as u8;
                rest >>= 7;
            }
            buf.push(byte);
            match narrow {
                Some(narrow) => buf.extend_from_slice(&narrow.to_le_bytes()),
                None => buf.extend_from_slice(&bits.to_le_bytes()),
            }
        }
        TickBatch(Arc::from(buf.as_slice()))
    }

    /// Encoded bytes held.
    pub fn bytes(&self) -> usize {
        self.0.len()
    }

    /// The arrivals, decoded in encoding order.
    pub fn iter(&self) -> TickArrivals<'_> {
        TickArrivals {
            rest: &self.0,
            key: 0,
        }
    }
}

#[cfg(test)]
impl From<Vec<(u64, f64)>> for TickBatch {
    fn from(arrivals: Vec<(u64, f64)>) -> Self {
        TickBatch::encode(&arrivals, &mut Vec::new())
    }
}

/// Decoding iterator over a [`TickBatch`].
pub struct TickArrivals<'a> {
    rest: &'a [u8],
    key: u64,
}

impl Iterator for TickArrivals<'_> {
    type Item = (u64, f64);

    fn next(&mut self) -> Option<(u64, f64)> {
        let (&first, mut rest) = self.rest.split_first()?;
        let wide = first & 1 != 0;
        let mut zigzag = u64::from(first >> 1 & 0x3f);
        let mut byte = first;
        let mut shift = 6;
        while byte & 0x80 != 0 {
            let (&next, r) = rest.split_first().expect("a whole varint");
            (byte, rest) = (next, r);
            zigzag |= u64::from(byte & 0x7f) << shift;
            shift += 7;
        }
        self.key = self
            .key
            .wrapping_add((zigzag >> 1) ^ (zigzag & 1).wrapping_neg());
        let bits = if wide {
            let (b, r) = rest.split_first_chunk::<8>().expect("whole f64");
            rest = r;
            f64::from_le_bytes(*b)
        } else {
            let (b, r) = rest.split_first_chunk::<4>().expect("whole f32");
            rest = r;
            f64::from(f32::from_le_bytes(*b))
        };
        self.rest = rest;
        Some((self.key, bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An entry that is its own byte count.
    impl Entry for u64 {
        fn bytes(&self) -> u64 {
            *self
        }
    }

    /// A trim inside a segment keeps it; one at its edge frees it.
    #[test]
    fn a_trim_keeps_the_segment_it_falls_inside() {
        let mut journal = Journal::default();
        journal.push(3);
        journal.push(4);
        assert_eq!(*journal.seal().expect("open"), [3, 4]);
        journal.push(5);
        journal.seal();
        journal.push(6);
        journal.trim_to(1);
        let counts = |j: &Journal<u64>| (j.base(), j.held(), j.open(), j.bytes());
        assert_eq!(counts(&journal), (0, 3, 1, 18));
        journal.trim_to(2);
        assert_eq!(counts(&journal), (2, 1, 1, 11));
        assert!(journal.replay().copied().eq([5, 6]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a model of every entry and every seal edge, over random
        /// pushes, seals and trims (to an edge `ahead` edges past the base,
        /// half of them `past` entries beyond it): a trim stops at the last
        /// edge it reaches, the counts agree, and a replay yields exactly
        /// the untrimmed suffix, in order, holding the bytes the journal
        /// says.
        #[test]
        fn the_journal_holds_the_untrimmed_suffix(
            ops in proptest::collection::vec((0u8..8, 0u64..1000, 0usize..4, 0u64..16), 0..64)
        ) {
            let mut journal = Journal::default();
            let (mut pushed, mut edges) = (Vec::new(), vec![0u64]);
            for (kind, entry, ahead, past) in ops {
                match kind {
                    0..4 => {
                        journal.push(entry);
                        pushed.push(entry);
                    }
                    4..6 => {
                        if journal.seal().is_some() {
                            edges.push(pushed.len() as u64);
                        }
                    }
                    _ => {
                        let at = edges.iter().position(|&e| e == journal.base()).unwrap();
                        let applied = edges[(at + ahead).min(edges.len() - 1)]
                            + past.saturating_sub(8);
                        journal.trim_to(applied);
                        let reached = edges.iter().rev().find(|&&e| e <= applied).unwrap();
                        prop_assert_eq!(journal.base(), *reached);
                    }
                }
                prop_assert!(edges.contains(&journal.base()), "whole segments only");
                prop_assert_eq!(journal.base() + journal.held(), journal.sealed());
                prop_assert_eq!(journal.sealed(), *edges.last().unwrap());
                prop_assert_eq!(journal.open() as u64, pushed.len() as u64 - journal.sealed());
                let suffix = &pushed[journal.base() as usize..];
                let replayed: Vec<u64> = journal.replay().copied().collect();
                prop_assert_eq!(&replayed[..], suffix);
                prop_assert_eq!(journal.bytes(), suffix.iter().sum::<u64>());
            }
        }
    }
}
