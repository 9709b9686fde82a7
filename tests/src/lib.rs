//! Integration test crate for the cdba workspace; the suites live in
//! `tests/`. Shared here: [`LiveBytesAlloc`], for the suites that assert
//! on heap size rather than behaviour, the [`fnv1a`] digest the
//! golden-bytes suites pin, and [`proptest_cases`], the case count of the
//! properties CI raises with `PROPTEST_CASES`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cases per property: `default`, or `PROPTEST_CASES` when set (CI runs
/// the release build with more).
pub fn proptest_cases(default: u32) -> u32 {
    let env = std::env::var("PROPTEST_CASES").ok();
    env.and_then(|v| v.parse().ok()).unwrap_or(default)
}

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

/// One column of a columnar checkpoint frame: its name, cell kind,
/// width and layout, its cell count, and where its width byte starts and
/// its body lies.
struct Span {
    name: &'static str,
    kind: u8,
    width: usize,
    sparse: bool,
    count: usize,
    entry: usize,
    body: std::ops::Range<usize>,
}

/// Cell kind of an unsigned column, and of a float one.
const K_UNSIGNED: u8 = 0;
const K_FLOAT: u8 = 1;
/// The width byte's high bit: a sparse column, its body a presence bitmap
/// of one bit per cell, then the cells that are not all-zero bits.
const SPARSE: u8 = 0x80;

/// The columns of a frame, `(name, cell kind)`, in the order they are
/// written: the frame names none of them.
const COLUMNS: [(&str, u8); 34] = [
    ("key", K_UNSIGNED),
    ("tenant", K_UNSIGNED),
    ("flags", K_UNSIGNED),
    ("shadow_backlog", K_FLOAT),
    ("current_alloc", K_FLOAT),
    ("peak_alloc", K_FLOAT),
    ("total_arrived", K_FLOAT),
    ("total_served", K_FLOAT),
    ("total_allocated", K_FLOAT),
    ("window_arrived", K_FLOAT),
    ("window_allocated", K_FLOAT),
    ("backlog", K_FLOAT),
    ("b_on", K_FLOAT),
    ("low_total", K_FLOAT),
    ("low_low", K_FLOAT),
    ("high_window_sum", K_FLOAT),
    ("high_min_window_sum", K_FLOAT),
    ("min_util", K_FLOAT),
    ("max_delay_exact", K_FLOAT),
    ("stage_ticks", K_UNSIGNED),
    ("meter_ticks", K_UNSIGNED),
    ("changes", K_UNSIGNED),
    ("stages_completed", K_UNSIGNED),
    ("hull_len", K_UNSIGNED),
    ("hull_x", K_FLOAT),
    ("hull_y", K_FLOAT),
    ("recent_len", K_UNSIGNED),
    ("recent", K_FLOAT),
    ("alloc_runs_len", K_UNSIGNED),
    ("alloc_runs_ticks", K_UNSIGNED),
    ("alloc_runs_value", K_FLOAT),
    ("pend_len", K_UNSIGNED),
    ("pend_age", K_UNSIGNED),
    ("pend_bits", K_FLOAT),
];

/// Walks a columnar checkpoint frame's documented layout — the fixed
/// header, the tenant table, then the columns in [`COLUMNS`] order, each
/// a width byte, a `u32` cell count and its body — and returns where the
/// columns start, each column, and where they end.
fn spans(frame: &[u8]) -> (usize, Vec<Span>, usize) {
    let u32_at = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) as usize;
    let start = string_table(frame).1.end;
    let mut at = start;
    let mut spans = Vec::with_capacity(COLUMNS.len());
    for (name, kind) in COLUMNS {
        let (width, count) = (usize::from(frame[at] & !SPARSE), u32_at(at + 1));
        let sparse = frame[at] & SPARSE != 0;
        let body_at = at + 1 + 4;
        let len = if sparse {
            let bitmap = count.div_ceil(8);
            let present: u32 = frame[body_at..body_at + bitmap]
                .iter()
                .map(|b| b.count_ones())
                .sum();
            bitmap + present as usize * width
        } else {
            count * width
        };
        spans.push(Span {
            name,
            kind,
            width,
            sparse,
            count,
            entry: at,
            body: body_at..body_at + len,
        });
        at = body_at + len;
    }
    (start, spans, at)
}

/// A columnar checkpoint frame's tenant names, in table order, and the
/// byte range of the table (its count included).
fn string_table(frame: &[u8]) -> (Vec<&str>, std::ops::Range<usize>) {
    let u32_at = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) as usize;
    // Version, clock, rows, W, two prices, B_max, D_O, U_O and the
    // retired stage count.
    let start = 65;
    let mut at = start + 4;
    let mut names = Vec::with_capacity(u32_at(start));
    for _ in 0..u32_at(start) {
        let len = u32_at(at);
        names.push(std::str::from_utf8(&frame[at + 4..at + 4 + len]).unwrap());
        at += 4 + len;
    }
    (names, start..at)
}

/// Each shard's columnar frame in a process image
/// (`ControlPlane::cut_image`), in shard order: the image's header is the
/// magic, a version byte, the shard count and nine 8-byte fields, then
/// every frame follows its `u32` length.
pub fn image_frames(image: &[u8]) -> Vec<&[u8]> {
    const HEADER: usize = 4 + 1 + 4 + 9 * 8;
    let shards = u32::from_le_bytes(image[5..9].try_into().unwrap());
    let mut at = HEADER;
    (0..shards)
        .map(|_| {
            let len = u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
            at += 4 + len;
            &image[at - len..at]
        })
        .collect()
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

fn span<'s>(spans: &'s [Span], name: &str) -> &'s Span {
    spans
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("the frame has no column `{name}`"))
}

/// One column of a columnar checkpoint frame, as its width byte and
/// count describe it.
pub struct Column {
    pub name: &'static str,
    /// Bytes per written cell.
    pub width: usize,
    /// Written as a presence bitmap, then only the non-zero cells.
    pub sparse: bool,
    /// Cells, zero ones included.
    pub count: usize,
    /// Bytes of the body as written.
    pub body: usize,
}

/// Every column of a columnar checkpoint frame, in frame order.
pub fn frame_columns(frame: &[u8]) -> Vec<Column> {
    let spans = spans(frame).1;
    let column = |s: &Span| Column {
        name: s.name,
        width: s.width,
        sparse: s.sparse,
        count: s.count,
        body: s.body.len(),
    };
    spans.iter().map(column).collect()
}

/// The body of the column named `name` in a columnar checkpoint frame,
/// as written (a sparse column's bitmap included).
pub fn frame_column<'a>(frame: &'a [u8], name: &str) -> &'a [u8] {
    let (_, spans, _) = spans(frame);
    &frame[span(&spans, name).body.clone()]
}

/// The bytes a cell of the column named `name` was written in.
pub fn column_width(frame: &[u8], name: &str) -> usize {
    span(&spans(frame).1, name).width
}

/// Whether the column named `name` was written sparse: a presence bitmap,
/// then only its non-zero cells.
pub fn column_sparse(frame: &[u8], name: &str) -> bool {
    span(&spans(frame).1, name).sparse
}

/// The cells of the unsigned column named `name`, widened to `u64` (a
/// float column's as the little-endian bits they were written in): a
/// sparse column's absent cells are 0.
pub fn column_u64s(frame: &[u8], name: &str) -> Vec<u64> {
    let spans = spans(frame).1;
    let s = span(&spans, name);
    let body = &frame[s.body.clone()];
    let (bitmap, cells) = body.split_at(if s.sparse { s.count.div_ceil(8) } else { 0 });
    let mut cells = cells.chunks_exact(s.width);
    (0..s.count)
        .map(|i| {
            if s.sparse && bitmap[i / 8] >> (i % 8) & 1 == 0 {
                return 0;
            }
            let mut le = [0u8; 8];
            le[..s.width].copy_from_slice(cells.next().unwrap());
            u64::from_le_bytes(le)
        })
        .collect()
}

/// The cells of the float column named `name`, widened to `f64`.
pub fn column_f64s(frame: &[u8], name: &str) -> Vec<f64> {
    let widen = |bits: u64| match column_width(frame, name) {
        4 => f64::from(f32::from_bits(bits as u32)),
        _ => f64::from_bits(bits),
    };
    column_u64s(frame, name).into_iter().map(widen).collect()
}

/// Replacement cells for one column of [`with_columns`].
pub enum Cells<'a> {
    Unsigned(&'a [u64]),
    Float(&'a [f64]),
}

/// `frame` re-laid with the named columns' cells replaced, their widths,
/// layouts and cell counts following, as the frame writer
/// lays a column out: each at the narrowest width that holds all of its
/// cells, and sparse — a bitmap of one bit per cell, then the cells whose
/// bits are not all zero — exactly when that body is the smaller one. A
/// frame as a hostile or a hand-built writer would produce it.
pub fn with_columns(frame: &[u8], cols: &[(&str, Cells<'_>)]) -> Vec<u8> {
    let (start, spans, end) = spans(frame);
    let mut out = frame[..start].to_vec();
    for s in &spans {
        let Some((_, cells)) = cols.iter().find(|(name, _)| *name == s.name) else {
            out.extend_from_slice(&frame[s.entry..s.body.end]);
            continue;
        };
        // Each cell's little-endian bytes at the column's width.
        let (width, cells): (usize, Vec<Vec<u8>>) = match cells {
            Cells::Unsigned(cells) => {
                assert_eq!(s.kind, K_UNSIGNED, "an unsigned column");
                let widest = cells.iter().fold(0, |w, &c| w | c);
                let width = [1, 2, 4, 8]
                    .into_iter()
                    .find(|&w| w == 8 || widest >> (8 * w) == 0)
                    .unwrap();
                let cells = cells.iter().map(|c| c.to_le_bytes()[..width].to_vec());
                (width, cells.collect())
            }
            Cells::Float(cells) => {
                assert_eq!(s.kind, K_FLOAT, "a float column");
                let exact = |c: &f64| f64::from(*c as f32).to_bits() == c.to_bits();
                if cells.iter().all(exact) {
                    let cells = cells.iter().map(|&c| (c as f32).to_le_bytes().to_vec());
                    (4, cells.collect())
                } else {
                    (8, cells.iter().map(|c| c.to_le_bytes().to_vec()).collect())
                }
            }
        };
        let zero = |c: &Vec<u8>| c.iter().all(|&b| b == 0);
        let zeros = cells.iter().filter(|c| zero(c)).count();
        let bitmap = cells.len().div_ceil(8);
        let sparse = bitmap < zeros * width;
        let body: Vec<u8> = if sparse {
            let mut body = vec![0u8; bitmap];
            for (i, c) in cells.iter().enumerate() {
                if !zero(c) {
                    body[i / 8] |= 1 << (i % 8);
                    body.extend_from_slice(c);
                }
            }
            body
        } else {
            cells.concat()
        };
        out.push(width as u8 | if sparse { SPARSE } else { 0 });
        out.extend_from_slice(&(cells.len() as u32).to_le_bytes());
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
