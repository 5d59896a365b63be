//! The fleet control plane: multi-tenant scheduling, deterministic
//! autoscaling, and heterogeneous placement.
//!
//! Everything here is off by default: a [`ControlConfig::default()`]
//! leaves the simulator byte-identical to the pre-control-plane
//! dispatcher (FIFO dequeue, first-idle placement, no autoscaler, a
//! homogeneous fleet). Each knob is independently switchable:
//!
//! - [`policy::DequeuePolicy`] reorders the ready-class index —
//!   a comparator swap against `ReadyIndex`, not a new scan.
//! - [`autoscale::AutoscaleConfig`] adds/drains instances from signals
//!   already in the event loop; decisions ride ordinary `(time, seq)`
//!   `ScaleCheck` events, so byte-identical replay survives any
//!   `STAR_EXEC_THREADS`.
//! - [`placement::PlacementPolicy`] plus per-instance
//!   [`crate::ServiceModelConfig`]s make heterogeneous fleets (q5.3 vs
//!   q3.5 engines) first-class, threaded through dispatch and the
//!   wear/health ledgers.
//!
//! When any knob is on, the run's `SimOutcome` carries a
//! [`ControlReport`]: per-class fairness shares, the scale-event
//! timeline, instance-seconds, and convergence/over-provisioning
//! figures for the A10 experiment.

pub mod autoscale;
pub mod placement;
pub mod policy;

pub use autoscale::{AutoscaleConfig, ScaleDirection, ScaleEvent};
pub use placement::PlacementPolicy;
pub use policy::{DequeuePolicy, EdfPolicy, WeightedFairPolicy};

use crate::model::ServiceModelConfig;
use crate::request::RequestClass;
use serde::{Deserialize, Serialize};

/// Control-plane configuration carried by `ServeConfig`. The default is
/// a strict no-op.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ControlConfig {
    /// How the ready-class index orders pending work.
    pub dequeue: DequeuePolicy,
    /// How the dispatcher picks among idle instances.
    pub placement: PlacementPolicy,
    /// Deterministic autoscaler; `None` keeps the fleet static.
    pub autoscale: Option<AutoscaleConfig>,
    /// Per-instance engine configs for heterogeneous fleets. Empty
    /// means every instance runs the `ServeConfig`-level service; when
    /// non-empty the length must equal the fleet capacity
    /// ([`ControlConfig::capacity`]).
    pub instance_services: Vec<ServiceModelConfig>,
}

impl ControlConfig {
    /// True when every knob is at its no-op default — the simulator
    /// then skips all control bookkeeping and emits no report.
    pub fn is_noop(&self) -> bool {
        self.dequeue.is_fifo()
            && self.placement == PlacementPolicy::FirstIdle
            && self.autoscale.is_none()
            && self.instance_services.is_empty()
    }

    /// Total instance slots: with an autoscaler, the larger of `fleet`
    /// and `max_instances`; otherwise `fleet`.
    pub fn capacity(&self, fleet: usize) -> usize {
        match &self.autoscale {
            Some(a) => fleet.max(a.max_instances),
            None => fleet,
        }
    }

    /// Instances active at t = 0: `fleet` clamped into the autoscaler's
    /// bounds when one is configured.
    pub fn initial_active(&self, fleet: usize) -> usize {
        match &self.autoscale {
            Some(a) => fleet.clamp(a.min_instances, a.max_instances),
            None => fleet,
        }
    }

    /// Panics on invalid policies, degenerate autoscaler bounds, or a
    /// per-instance service list that does not cover the capacity.
    pub(crate) fn validate(&self, fleet: usize) {
        self.dequeue.validate();
        if let Some(a) = &self.autoscale {
            a.validate();
        }
        if !self.instance_services.is_empty() {
            let capacity = self.capacity(fleet);
            assert_eq!(
                self.instance_services.len(),
                capacity,
                "instance_services must list one engine config per instance slot"
            );
        }
    }
}

/// Per-class service share under the active dequeue policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassShare {
    /// The tenant class.
    pub class: RequestClass,
    /// Requests of this class completed.
    pub completed: u64,
    /// Busy time attained by this class, ns.
    pub attained_ns: f64,
    /// Fraction of total attained service time.
    pub share: f64,
    /// The class's scheduling weight (1 outside weighted-fair mode).
    pub weight: f64,
}

/// What the control plane did during a run. Present on `SimOutcome`
/// only when [`ControlConfig::is_noop`] is false.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlReport {
    /// Active dequeue policy name ("fifo" / "wfq" / "edf").
    pub dequeue: String,
    /// Active placement policy name.
    pub placement: String,
    /// Per-class fairness table, ordered by class.
    pub shares: Vec<ClassShare>,
    /// The scale-event timeline (empty without an autoscaler).
    pub scale_events: Vec<ScaleEvent>,
    /// Active instances at the end of the run.
    pub final_active: usize,
    /// Peak concurrently active instances.
    pub peak_active: usize,
    /// Minimum concurrently active instances.
    pub min_active: usize,
    /// `∫ active(t) dt` in instance-seconds — the fleet-cost headline.
    pub instance_seconds: f64,
    /// Time of the scale event that first reached `peak_active`, ns
    /// (0 when the fleet never scaled).
    pub converge_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelKind;

    #[test]
    fn default_is_noop() {
        let cfg = ControlConfig::default();
        assert!(cfg.is_noop());
        cfg.validate(4);
        assert_eq!(cfg.capacity(4), 4);
        assert_eq!(cfg.initial_active(4), 4);
    }

    #[test]
    fn any_knob_defeats_noop() {
        let wfq = ControlConfig {
            dequeue: DequeuePolicy::weighted_fair(vec![]),
            ..ControlConfig::default()
        };
        assert!(!wfq.is_noop());
        let placed =
            ControlConfig { placement: PlacementPolicy::LeastLoaded, ..ControlConfig::default() };
        assert!(!placed.is_noop());
        let scaled = ControlConfig {
            autoscale: Some(AutoscaleConfig::new(1, 8)),
            ..ControlConfig::default()
        };
        assert!(!scaled.is_noop());
    }

    #[test]
    fn autoscaler_widens_capacity_and_clamps_initial() {
        let cfg = ControlConfig {
            autoscale: Some(AutoscaleConfig::new(2, 12)),
            ..ControlConfig::default()
        };
        assert_eq!(cfg.capacity(4), 12);
        assert_eq!(cfg.initial_active(4), 4);
        assert_eq!(cfg.initial_active(1), 2, "clamped up to min_instances");
        assert_eq!(cfg.initial_active(20), 12, "clamped down to max_instances");
        cfg.validate(4);
    }

    #[test]
    fn heterogeneous_services_must_cover_capacity() {
        let mut cfg = ControlConfig {
            instance_services: vec![ServiceModelConfig::default(); 3],
            ..ControlConfig::default()
        };
        cfg.validate(3);
        cfg.instance_services.pop();
        let result = std::panic::catch_unwind(|| cfg.validate(3));
        assert!(result.is_err(), "2 configs for 3 slots must be rejected");
    }

    #[test]
    fn config_serde_round_trip() {
        let class = RequestClass::new(ModelKind::Tiny, 16);
        let cfg = ControlConfig {
            dequeue: DequeuePolicy::weighted_fair(vec![(class, 3.0)]),
            placement: PlacementPolicy::EnergyGreedy,
            autoscale: Some(AutoscaleConfig::new(1, 8)),
            instance_services: Vec::new(),
        };
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: ControlConfig = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, cfg);
    }
}
