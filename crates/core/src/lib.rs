//! Online competitive dynamic bandwidth allocation — the algorithms of
//! Bar-Noy, Mansour & Schieber, *Competitive Dynamic Bandwidth Allocation*
//! (PODC 1998).
//!
//! The model: a session submits bits at an unpredictable rate; the network
//! allocates it bandwidth dynamically. The session has a **delay**
//! requirement and the network a **utilization** requirement; every
//! bandwidth re-allocation is a costly signalling operation. Given the
//! delay/utilization envelope, the algorithms below minimize the **number of
//! allocation changes**, competitively against a clairvoyant offline
//! algorithm that is held to *more stringent* constraints:
//!
//! | Algorithm | Paper | Online envelope | Offline adversary | Ratio |
//! |---|---|---|---|---|
//! | [`single::SingleSession`] | §2, Thm 6 | `B_A`, delay `2·D_O`, util `U_O/3` | `B_A`, `D_O`, `U_O` | `O(log B_A)` |
//! | [`single::LookbackSingle`] | §2, Thm 7 | delay `2·D_O`, util `Ω(U_O)` | `D_O`, `U_O` | `O(log 1/U_O)` |
//! | [`multi::Phased`] | §3.1, Thm 14 | `4·B_O`, delay `2·D_O` | `(B_O, D_O)` | `3k` |
//! | [`multi::Continuous`] | §3.2, Thm 17 | `5·B_O`, delay `2·D_O` | `(B_O, D_O)` | `3k` |
//! | [`combined::Combined`] | §4 | `7·B_O`/`8·B_O`, delay `2·D_O`, util `U_O/3` | `(B_O, D_O, U_O)` | `O(log B_A)` global, `O(k log B_A)` local |
//!
//! All algorithms implement the [`cdba_sim::Allocator`] /
//! [`cdba_sim::MultiAllocator`] state-machine traits and are driven by the
//! engine in `cdba-sim`; they never see the future — each tick they receive
//! that tick's arrivals and answer with that tick's allocation.
//!
//! # Time discretization
//!
//! The paper works in continuous time; this implementation uses unit ticks.
//! Arrivals land at the start of a tick and can be served within the same
//! tick. `low(t)` maximizes over windows *including* the current tick's
//! arrivals (the algorithm reacts in the same tick — a faithful
//! discretization that can only improve delay); `high(t)` minimizes over
//! full windows of exactly `W` ticks inside the current stage.
//!
//! # Example
//!
//! ```
//! use cdba_core::config::SingleConfig;
//! use cdba_core::single::SingleSession;
//! use cdba_sim::{engine, verify};
//! use cdba_traffic::Trace;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SingleConfig::builder(64.0)      // B_A
//!     .offline_delay(8)                       // D_O  (=> online delay 16)
//!     .offline_utilization(0.5)               // U_O  (=> online util 1/6)
//!     .window(16)                             // W
//!     .build()?;
//! let mut alg = SingleSession::new(cfg.clone());
//! let trace = Trace::new(vec![10.0, 0.0, 30.0, 0.0, 0.0, 5.0, 0.0, 0.0])?;
//! let run = engine::simulate(&trace, &mut alg, engine::DrainPolicy::DrainToEmpty)?;
//! let verdict = verify::verify_single(&trace, &run, &cfg.promised_bounds());
//! assert!(verdict.delay_ok && verdict.bandwidth_ok);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod combined;
pub mod config;
pub mod cost;
pub mod multi;
pub mod single;
pub mod stage;

pub use config::{CombinedConfig, ConfigError, MultiConfig, SingleConfig};
pub use stage::{StageKind, StageLog, StageRecord};

/// Rounds `x` up to the smallest power of two that is ≥ `x` (minimum 1.0).
///
/// The paper's single-session algorithm quantizes its allocation to powers
/// of two so that allocations within a stage form a monotone ladder of at
/// most `log₂ B_A` levels. Bandwidth below one bit/tick rounds up to 1 (the
/// model's minimum allocation unit).
///
/// # Examples
///
/// ```
/// assert_eq!(cdba_core::next_power_of_two(0.3), 1.0);
/// assert_eq!(cdba_core::next_power_of_two(1.0), 1.0);
/// assert_eq!(cdba_core::next_power_of_two(5.0), 8.0);
/// assert_eq!(cdba_core::next_power_of_two(8.0), 8.0);
/// ```
pub fn next_power_of_two(x: f64) -> f64 {
    if x <= 1.0 {
        return 1.0;
    }
    // Exact powers of two have a zero mantissa; everything else rounds up by
    // bumping the exponent and clearing the mantissa. Branch-light and exact
    // for every finite f64, unlike the log2/ceil route, which needs a
    // float-noise guard.
    let bits = x.to_bits();
    let exponent = bits >> 52; // sign bit is 0: x > 1.0
    let mantissa = bits & ((1u64 << 52) - 1);
    if mantissa == 0 {
        return x;
    }
    if exponent >= 0x7FE {
        // Rounding up from the top binade (or from infinity) overflows.
        return f64::INFINITY;
    }
    f64::from_bits((exponent + 1) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_power_of_two_table() {
        for (x, want) in [
            (0.0, 1.0),
            (0.5, 1.0),
            (1.0, 1.0),
            (1.0001, 2.0),
            (2.0, 2.0),
            (3.0, 4.0),
            (4.0, 4.0),
            (1023.0, 1024.0),
            (1024.0, 1024.0),
            (1025.0, 2048.0),
        ] {
            assert_eq!(next_power_of_two(x), want, "x={x}");
        }
    }

    #[test]
    fn exact_powers_are_fixed_points() {
        for e in 0..40 {
            let p = 2f64.powi(e);
            assert_eq!(next_power_of_two(p), p, "2^{e}");
        }
    }
}
