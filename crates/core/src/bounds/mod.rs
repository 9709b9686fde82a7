//! The per-stage bound trackers of the single-session algorithm (paper §2).
//!
//! Within a stage starting at `ts`, under the hypothesis that the offline
//! algorithm kept a *constant* allocation since `ts`:
//!
//! * [`low`] tracks `low(t)` — the least bandwidth that constant allocation
//!   must have to meet the offline delay `D_O` (grows as bursts arrive);
//! * [`high`] tracks `high(t)` — the most it may have while meeting the
//!   windowed offline utilization `U_O` (shrinks as traffic thins).
//!
//! The first time `high(t) < low(t)` the hypothesis is refuted: the offline
//! has changed its allocation at least once during the stage — the paper's
//! competitive certificate.

pub mod high;
pub mod low;

pub use high::HighTracker;
pub use low::{HullLowTracker, LowTracker, NaiveLowTracker};
