//! Single-session online algorithms (paper §2).
//!
//! * [`SingleSession`] — the algorithm of Fig. 3 / Theorem 6:
//!   `O(log B_A)`-competitive in allocation changes against an offline with
//!   bandwidth `B_A`, delay `D_O = D_A/2`, utilization `U_O = 3·U_A`.
//! * [`LookbackSingle`] — our reconstruction of the *modified* algorithm of
//!   Theorem 7 (`O(log 1/U_O)` changes per stage): both bounds additionally
//!   consider the window of `W` ticks immediately preceding the current tick
//!   even when it crosses the stage boundary, which keeps
//!   `high(t)/low(t) = O(1/U_O)` throughout the stage. The conference paper
//!   defers the modified algorithm's details to its (unavailable) full
//!   version; see the type-level docs for the exact reconstruction and its
//!   guarantee.

mod algorithm;
mod lookback;

pub use algorithm::{crossed, SingleSession};
pub use lookback::LookbackSingle;
