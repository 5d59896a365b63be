//! Pluggable multi-tenant dequeue policies.
//!
//! The dispatcher's ready-class index (`ReadyIndex` in `ready.rs`)
//! orders classes by an integer key and pops the minimum. A dequeue
//! policy is nothing more than the function that computes that key from
//! a class's queue head — so swapping policies swaps a comparator, not a
//! scan:
//!
//! - **FIFO** (the default): key = `(head arrival, head id)` — today's
//!   behaviour, bitwise-preserved.
//! - **Weighted fair**: key = `(attained service ÷ weight, head id)` —
//!   the class that has consumed the least weighted service goes first,
//!   so long-run service shares track the configured weights.
//! - **Earliest deadline first**: key = `(head arrival + class deadline
//!   offset, head id)` — the head whose deadline expires soonest goes
//!   first; per-class offsets express tenant tiers.
//!
//! All keys are non-negative finite times (or virtual times), so they
//! inherit the `ReadyIndex` bit-pattern ordering trick unchanged.

use crate::request::RequestClass;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Weighted-fair scheduling across tenant classes: service is shared in
/// proportion to per-class weights (classes without an entry weigh 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedFairPolicy {
    /// Per-class scheduling weights; higher weight ⇒ larger service
    /// share. Classes absent from the list default to weight 1.
    pub weights: Vec<(RequestClass, f64)>,
}

impl WeightedFairPolicy {
    /// The weight of `class` (1 when unlisted).
    pub fn weight(&self, class: RequestClass) -> f64 {
        self.weights.iter().find(|(c, _)| *c == class).map_or(1.0, |&(_, w)| w)
    }
}

/// Earliest-deadline-first across tenant classes: each class carries a
/// deadline offset from arrival; the head with the earliest absolute
/// deadline dispatches first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdfPolicy {
    /// Per-class deadline offsets from arrival, ns. Classes absent from
    /// the list fall back to the run's global `deadline_ns`.
    pub deadlines_ns: Vec<(RequestClass, f64)>,
}

impl EdfPolicy {
    /// The deadline offset of `class` (`default_ns` when unlisted).
    pub fn deadline_ns(&self, class: RequestClass, default_ns: f64) -> f64 {
        self.deadlines_ns.iter().find(|(c, _)| *c == class).map_or(default_ns, |&(_, d)| d)
    }
}

/// Which dequeue policy orders the ready-class index.
///
/// (The variants wrap named structs rather than using struct variants
/// because the vendored `serde_derive` supports only unit and newtype
/// enum variants.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum DequeuePolicy {
    /// First-in first-out by head arrival time — the default, bitwise
    /// identical to the pre-control-plane dispatcher.
    #[default]
    Fifo,
    /// Weighted-fair sharing across classes.
    WeightedFair(WeightedFairPolicy),
    /// Earliest deadline first across classes.
    EarliestDeadline(EdfPolicy),
}

impl DequeuePolicy {
    /// Weighted-fair sharing with the given per-class weights.
    pub fn weighted_fair(weights: Vec<(RequestClass, f64)>) -> Self {
        DequeuePolicy::WeightedFair(WeightedFairPolicy { weights })
    }

    /// Earliest deadline first with the given per-class offsets, ns.
    pub fn earliest_deadline(deadlines_ns: Vec<(RequestClass, f64)>) -> Self {
        DequeuePolicy::EarliestDeadline(EdfPolicy { deadlines_ns })
    }

    /// True for the default FIFO policy.
    pub fn is_fifo(&self) -> bool {
        matches!(self, DequeuePolicy::Fifo)
    }

    /// Stable short name used in reports and counter attribution.
    pub fn name(&self) -> &'static str {
        match self {
            DequeuePolicy::Fifo => "fifo",
            DequeuePolicy::WeightedFair(_) => "wfq",
            DequeuePolicy::EarliestDeadline(_) => "edf",
        }
    }

    /// Panics on non-finite or non-positive weights/offsets.
    pub(crate) fn validate(&self) {
        match self {
            DequeuePolicy::Fifo => {}
            DequeuePolicy::WeightedFair(p) => {
                for (class, w) in &p.weights {
                    assert!(
                        w.is_finite() && *w > 0.0,
                        "weighted-fair weight for {class} must be positive, got {w}"
                    );
                }
            }
            DequeuePolicy::EarliestDeadline(p) => {
                for (class, d) in &p.deadlines_ns {
                    assert!(
                        d.is_finite() && *d > 0.0,
                        "EDF deadline for {class} must be positive, got {d}"
                    );
                }
            }
        }
    }
}

impl fmt::Display for DequeuePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelKind;

    fn class(seq: usize) -> RequestClass {
        RequestClass::new(ModelKind::Tiny, seq)
    }

    #[test]
    fn default_is_fifo() {
        assert!(DequeuePolicy::default().is_fifo());
        assert_eq!(DequeuePolicy::default().name(), "fifo");
    }

    #[test]
    fn weights_and_deadlines_fall_back() {
        let wfq = WeightedFairPolicy { weights: vec![(class(16), 3.0)] };
        assert_eq!(wfq.weight(class(16)), 3.0);
        assert_eq!(wfq.weight(class(32)), 1.0, "unlisted class weighs 1");
        let edf = EdfPolicy { deadlines_ns: vec![(class(16), 5e5)] };
        assert_eq!(edf.deadline_ns(class(16), 2e6), 5e5);
        assert_eq!(edf.deadline_ns(class(32), 2e6), 2e6, "unlisted class uses the default");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DequeuePolicy::weighted_fair(vec![]).name(), "wfq");
        assert_eq!(DequeuePolicy::earliest_deadline(vec![]).name(), "edf");
        assert_eq!(DequeuePolicy::earliest_deadline(vec![]).to_string(), "edf");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        DequeuePolicy::weighted_fair(vec![(class(16), 0.0)]).validate();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_deadline_rejected() {
        DequeuePolicy::earliest_deadline(vec![(class(16), -1.0)]).validate();
    }

    #[test]
    fn serde_round_trip() {
        for p in [
            DequeuePolicy::Fifo,
            DequeuePolicy::weighted_fair(vec![(class(16), 3.0), (class(32), 1.0)]),
            DequeuePolicy::earliest_deadline(vec![(class(16), 5e5)]),
        ] {
            let json = serde_json::to_string(&p).expect("serialize");
            let back: DequeuePolicy = serde_json::from_str(&json).expect("parse");
            assert_eq!(back, p);
        }
    }
}
