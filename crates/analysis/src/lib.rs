//! Experiment harness: runs algorithm × workload grids, measures the
//! paper's three quality dimensions (changes, delay, utilization), computes
//! bracketed competitive ratios, and renders tables and ASCII figures.
//!
//! The paper (PODC 1998) is theory-only — it has no experimental tables —
//! so its figures and theorems define the reproduction targets. Each module
//! in [`experiments`] regenerates one of them; see `DESIGN.md` §5 for the
//! experiment index (E1–E13) and `cdba-bench`'s `repro` binary for the
//! command-line driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii_plot;
pub use cdba_core::cost;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod workloads;

pub use report::{Report, Table};
