//! Placement policies: which idle instance runs the next batch.
//!
//! Homogeneous fleets make placement a non-decision (every instance
//! quotes the same cost), which is why the dispatcher historically took
//! the lowest idle index. Heterogeneous fleets — per-instance
//! [`crate::ServiceModelConfig`]s mixing, say, q5.3 and q3.5 engines —
//! make it a real one: the same batch has different latency and energy
//! on different instances. Every policy below is deterministic (ties
//! break to the lowest instance index) and consumes zero RNG draws.
//! [`PlacementPolicy::RoundRobin`] levels wear on homogeneous fleets too:
//! it spreads invocations across the fleet, so the health monitor's
//! per-instance ledgers even out (the A9 wear-leveling rows).

use serde::{Deserialize, Serialize};
use std::fmt;

/// How the dispatcher picks among idle instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PlacementPolicy {
    /// Lowest idle index — the default, bitwise identical to the
    /// pre-control-plane dispatcher.
    #[default]
    FirstIdle,
    /// The idle instance with the lowest invocation latency for this
    /// batch (ties to the lowest index). On a homogeneous fleet this
    /// degenerates to [`PlacementPolicy::FirstIdle`].
    FastestEligible,
    /// The idle instance with the least accumulated busy time — spreads
    /// load even on homogeneous fleets.
    LeastLoaded,
    /// The idle instance with the lowest invocation energy for this
    /// batch (ties to the lowest index).
    EnergyGreedy,
    /// The first idle instance at or after a cursor, wrapping; the
    /// cursor then moves past the pick. Independent of wear magnitudes,
    /// so placement never feeds back through float arithmetic.
    RoundRobin,
}

impl PlacementPolicy {
    /// Stable short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::FirstIdle => "first_idle",
            PlacementPolicy::FastestEligible => "fastest_eligible",
            PlacementPolicy::LeastLoaded => "least_loaded",
            PlacementPolicy::EnergyGreedy => "energy_greedy",
            PlacementPolicy::RoundRobin => "round_robin",
        }
    }
}

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_first_idle() {
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::FirstIdle);
        assert_eq!(PlacementPolicy::default().name(), "first_idle");
    }

    #[test]
    fn serde_round_trip() {
        for p in [
            PlacementPolicy::FirstIdle,
            PlacementPolicy::FastestEligible,
            PlacementPolicy::LeastLoaded,
            PlacementPolicy::EnergyGreedy,
            PlacementPolicy::RoundRobin,
        ] {
            let json = serde_json::to_string(&p).expect("serialize");
            let back: PlacementPolicy = serde_json::from_str(&json).expect("parse");
            assert_eq!(back, p);
            assert_eq!(p.to_string(), p.name());
        }
    }
}
