//! Fault injection for the shard supervisor.
//!
//! A [`FaultPlan`] names one shard, one tick, and a failure mode; wire it
//! into a service with
//! [`ServiceConfigBuilder::fault`](crate::config::ServiceConfigBuilder::fault)
//! and the chosen shard's *initial* worker sabotages itself when it is
//! about to process that tick. Restarted workers never re-arm the fault,
//! so a plan fires at most once — which is what lets recovery tests
//! compare a faulted run against a fault-free one.
//!
//! Plans only take effect under [`ExecMode::Threaded`]
//! (config validation rejects them in inline mode, where a kill would
//! panic the driver itself).
//!
//! [`ExecMode::Threaded`]: crate::config::ExecMode::Threaded

use std::fmt;
use std::str::FromStr;

/// What the sabotaged worker does at the chosen tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic before applying the tick. The panic is caught by the worker's
    /// `catch_unwind` and reported as a shard failure; the supervisor
    /// restarts the shard from its last checkpoint.
    Kill,
    /// Stall for `millis` before applying the tick, re-checking for
    /// cancellation afterwards. Above the configured shard timeout, the
    /// supervisor declares the worker unresponsive and restarts it; below
    /// it, the worker proceeds: no restart, no metric difference.
    Hang {
        /// Stall duration in milliseconds.
        millis: u64,
    },
}

/// One injected fault: `kind` strikes shard `shard` when it is about to
/// process its `at_tick`-th tick (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The shard to sabotage.
    pub shard: usize,
    /// The 0-based tick index the fault fires at.
    pub at_tick: u64,
    /// The failure mode.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// A plan that kills `shard` at `at_tick`.
    pub fn kill(shard: usize, at_tick: u64) -> Self {
        FaultPlan {
            shard,
            at_tick,
            kind: FaultKind::Kill,
        }
    }

    /// A plan that stalls `shard` for `millis` at `at_tick`.
    pub fn hang(shard: usize, at_tick: u64, millis: u64) -> Self {
        FaultPlan {
            shard,
            at_tick,
            kind: FaultKind::Hang { millis },
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}:", self.shard, self.at_tick)?;
        match self.kind {
            FaultKind::Kill => write!(f, "kill"),
            FaultKind::Hang { millis } => write!(f, "hang:{millis}"),
        }
    }
}

/// Parses the CLI spelling `SHARD@TICK:kill` or `SHARD@TICK:hang:MILLIS`
/// (e.g. `1@50:kill`, `0@100:hang:5000`).
impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let bad = |what: &str| format!("invalid fault spec {spec:?}: {what}");
        let (target, kind) = spec
            .split_once(':')
            .ok_or_else(|| bad("expected SHARD@TICK:KIND"))?;
        let (shard, at_tick) = target
            .split_once('@')
            .ok_or_else(|| bad("expected SHARD@TICK before the colon"))?;
        let shard: usize = shard
            .parse()
            .map_err(|_| bad("shard must be an unsigned integer"))?;
        let at_tick: u64 = at_tick
            .parse()
            .map_err(|_| bad("tick must be an unsigned integer"))?;
        let kind = match kind.split_once(':') {
            None if kind == "kill" => FaultKind::Kill,
            Some((mode, millis)) => {
                let millis: u64 = millis
                    .parse()
                    .map_err(|_| bad("milliseconds must be an unsigned integer"))?;
                match mode {
                    "hang" => FaultKind::Hang { millis },
                    _ => return Err(bad("mode must be kill or hang:MS")),
                }
            }
            _ => return Err(bad("mode must be kill or hang:MS")),
        };
        Ok(FaultPlan {
            shard,
            at_tick,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_modes() {
        assert_eq!("1@50:kill".parse(), Ok(FaultPlan::kill(1, 50)));
        assert_eq!("0@100:hang:5000".parse(), Ok(FaultPlan::hang(0, 100, 5000)));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "kill",
            "1@50",
            "x@50:kill",
            "1@y:kill",
            "1@50:explode",
            "1@50:hang",
            "1@50:hang:x",
            "1@50:kill:5",
            // The retired stall below the shard timeout: a short `hang`.
            "3@7:delay:20",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for plan in [
            FaultPlan::kill(2, 9),
            FaultPlan::hang(0, 3, 750),
            FaultPlan::hang(5, 0, 1),
        ] {
            assert_eq!(plan.to_string().parse(), Ok(plan));
        }
    }
}
