//! Integration test crate for the cdba workspace; the suites live in
//! `tests/`. Shared here: [`LiveBytesAlloc`], for the suites that assert
//! on heap size rather than behaviour, and the [`fnv1a`] digest the
//! golden-bytes suites pin.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A global allocator that tracks the bytes currently allocated, their
/// high-water mark, and the heap blocks they sit in. It is
/// process-global, so a test file that installs it
/// (`#[global_allocator] static A: LiveBytesAlloc = LiveBytesAlloc::new();`)
/// holds exactly one `#[test]`, or runs its tests one at a time behind a
/// lock (`gateway_stream.rs`).
pub struct LiveBytesAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
    blocks: AtomicUsize,
}

impl LiveBytesAlloc {
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        LiveBytesAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            blocks: AtomicUsize::new(0),
        }
    }

    /// Bytes allocated and not yet freed.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Heap blocks allocated and not yet freed (a reallocation moves one).
    pub fn blocks(&self) -> usize {
        self.blocks.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark at the current live size.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Ordering::Relaxed);
    }

    /// The most bytes live at once since the last [`Self::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    fn allocated(&self, size: usize) {
        self.blocks.fetch_add(1, Ordering::Relaxed);
        self.grew(size);
    }

    fn grew(&self, by: usize) {
        let now = self.live.fetch_add(by, Ordering::Relaxed) + by;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every call defers to `System` with the caller's own arguments;
// the counters are relaxed atomics that influence no allocation.
unsafe impl GlobalAlloc for LiveBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocated(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocated(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
        self.grew(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
        self.blocks.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// One column of a columnar checkpoint frame: its name, cell kind and
/// width, and where its schema entry starts and its body lies.
struct Span<'a> {
    name: &'a [u8],
    kind: u8,
    width: usize,
    entry: usize,
    body: std::ops::Range<usize>,
}

/// Cell kind byte of an unsigned column (a float column's is 1).
const K_UNSIGNED: u8 = 0;

/// Walks a columnar checkpoint frame's documented layout — the fixed
/// header, the tenant table, then the self-describing columns — and
/// returns where the columns start, each column, and where they end.
fn spans(frame: &[u8]) -> (usize, Vec<Span<'_>>, usize) {
    let u32_at = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) as usize;
    let mut at = string_table(frame).1.end;
    let columns = u32_at(at);
    at += 4;
    let start = at;
    let mut spans = Vec::with_capacity(columns);
    for _ in 0..columns {
        let len = u32_at(at);
        let name = &frame[at + 4..at + 4 + len];
        let (kind, width) = (frame[at + 4 + len], usize::from(frame[at + 4 + len + 1]));
        let body_at = at + 4 + len + 1 + 1 + 4 + 4; // name, kind, width, count, length
        let body = body_at..body_at + u32_at(body_at - 4);
        spans.push(Span {
            name,
            kind,
            width,
            entry: at,
            body: body.clone(),
        });
        at = body.end;
    }
    (start, spans, at)
}

/// A columnar checkpoint frame's tenant names, in table order, and the
/// byte range of the table (its count included).
fn string_table(frame: &[u8]) -> (Vec<&str>, std::ops::Range<usize>) {
    let u32_at = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) as usize;
    // Version, kind, clock, rows, W, two prices, B_max, D_O, U_O and the
    // retired stage count.
    let start = 66;
    let mut at = start + 4;
    let mut names = Vec::with_capacity(u32_at(start));
    for _ in 0..u32_at(start) {
        let len = u32_at(at);
        names.push(std::str::from_utf8(&frame[at + 4..at + 4 + len]).unwrap());
        at += 4 + len;
    }
    (names, start..at)
}

/// The tenant names of a columnar checkpoint frame's string table, which
/// its `tenant` column indexes.
pub fn frame_strings(frame: &[u8]) -> Vec<&str> {
    string_table(frame).0
}

/// `frame` with its tenant string table replaced by `names` (the
/// `tenant` column left as it is).
pub fn with_strings(frame: &[u8], names: &[&str]) -> Vec<u8> {
    let table = string_table(frame).1;
    let mut out = frame[..table.start].to_vec();
    out.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for name in names {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    out.extend_from_slice(&frame[table.end..]);
    out
}

fn span<'s, 'f>(spans: &'s [Span<'f>], name: &str) -> &'s Span<'f> {
    spans
        .iter()
        .find(|s| s.name == name.as_bytes())
        .unwrap_or_else(|| panic!("the frame has no column `{name}`"))
}

/// The body of the column named `name` in a columnar checkpoint frame,
/// as written.
pub fn frame_column<'a>(frame: &'a [u8], name: &str) -> &'a [u8] {
    let (_, spans, _) = spans(frame);
    &frame[span(&spans, name).body.clone()]
}

/// The bytes a cell of the column named `name` was written in.
pub fn column_width(frame: &[u8], name: &str) -> usize {
    span(&spans(frame).1, name).width
}

/// The cells of the unsigned column named `name`, widened to `u64`.
pub fn column_u64s(frame: &[u8], name: &str) -> Vec<u64> {
    let width = column_width(frame, name);
    frame_column(frame, name)
        .chunks_exact(width)
        .map(|c| {
            let mut le = [0u8; 8];
            le[..width].copy_from_slice(c);
            u64::from_le_bytes(le)
        })
        .collect()
}

/// The cells of the float column named `name`, widened to `f64`.
pub fn column_f64s(frame: &[u8], name: &str) -> Vec<f64> {
    let body = frame_column(frame, name);
    match column_width(frame, name) {
        4 => body
            .chunks_exact(4)
            .map(|c| f64::from(f32::from_le_bytes(c.try_into().unwrap())))
            .collect(),
        _ => body
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect(),
    }
}

/// Replacement cells for one column of [`with_columns`].
pub enum Cells<'a> {
    Unsigned(&'a [u64]),
    Float(&'a [f64]),
}

/// `frame` re-laid with the named columns' cells replaced, their widths,
/// cell counts and body lengths following: each written at the narrowest
/// width that holds all of its cells, as the frame writer lays a column
/// out — a frame as a hostile or a hand-built writer would produce it.
pub fn with_columns(frame: &[u8], cols: &[(&str, Cells<'_>)]) -> Vec<u8> {
    let (start, spans, end) = spans(frame);
    let mut out = frame[..start].to_vec();
    for s in &spans {
        let head = &frame[s.entry..s.body.start - 9]; // through the kind byte
        let Some((_, cells)) = cols.iter().find(|(name, _)| name.as_bytes() == s.name) else {
            out.extend_from_slice(&frame[s.entry..s.body.end]);
            continue;
        };
        let (width, body): (usize, Vec<u8>) = match cells {
            Cells::Unsigned(cells) => {
                assert_eq!(s.kind, K_UNSIGNED, "an unsigned column");
                let widest = cells.iter().fold(0, |w, &c| w | c);
                let width = [1, 2, 4, 8]
                    .into_iter()
                    .find(|&w| w == 8 || widest >> (8 * w) == 0)
                    .unwrap();
                let body = cells.iter().flat_map(|c| c.to_le_bytes()[..width].to_vec());
                (width, body.collect())
            }
            Cells::Float(cells) => {
                assert_ne!(s.kind, K_UNSIGNED, "a float column");
                let exact = |c: &f64| f64::from(*c as f32).to_bits() == c.to_bits();
                if cells.iter().all(exact) {
                    let body = cells.iter().flat_map(|&c| (c as f32).to_le_bytes());
                    (4, body.collect())
                } else {
                    (8, cells.iter().flat_map(|c| c.to_le_bytes()).collect())
                }
            }
        };
        out.extend_from_slice(head);
        out.push(width as u8);
        out.extend_from_slice(&((body.len() / width) as u32).to_le_bytes());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
    }
    out.extend_from_slice(&frame[end..]);
    out
}

/// Where each `(member, key)` cell of a frame's group section lies, with
/// its two values, in frame order — found by walking the group encoding
/// (id; pool `k`, `b_o`, `d_o`; slots; pending; next id, tick, phase
/// anchor; stage log; membership changes; members).
pub fn group_members(frame: &[u8]) -> Vec<(usize, u64, u64)> {
    let u32_at = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(frame[at..at + 8].try_into().unwrap());
    let (_, _, mut at) = spans(frame);
    let mut members = Vec::new();
    let groups = u32_at(at);
    at += 4;
    for _ in 0..groups {
        at += 8 + 3 * 8;
        at += 4 + u32_at(at) * 41;
        at += 4 + u32_at(at) * 16;
        at += 3 * 8 + 8; // next id, tick, phase anchor; forgotten stages
        let closed = u32_at(at);
        at += 4;
        for _ in 0..closed {
            at += 8;
            at += 1 + if frame[at] == 1 { 8 } else { 0 };
            at += 1;
        }
        at += 8;
        let n = u32_at(at);
        at += 4;
        for _ in 0..n {
            members.push((at, u64_at(at), u64_at(at + 8)));
            at += 16;
        }
    }
    members
}
