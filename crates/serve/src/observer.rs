//! The one interface every serving observer implements: the request
//! lifecycle as the event loop hands it out.
//!
//! Trace, health, flight and blame are observers. Each hook takes
//! `&mut self` and an event and returns nothing to the loop, so an
//! observer cannot steer a scheduling decision: it draws no RNG and
//! changes no event arithmetic, and a run's [`crate::ServeReport`] is
//! bitwise the same whichever observers are attached. The loop builds
//! no event when no observer is attached.
//!
//! The loop calls the observers in list order: trace, health, flight,
//! blame. The order matters at two points, both explicit below: flight's
//! health-alarm trigger reads [`Sample::alarms`] after health sampled
//! the same event, and health's [`Observer::finish`] attaches its
//! timeseries to the trace that finished before it.

use crate::flight::FlightEventKind;
use crate::model::{BatchCost, InvocationPhases, ServiceModel};
use crate::request::{Request, RequestClass};
use crate::sim::SimOutcome;
use crate::trace::RequestOutcome;

/// One completed invocation, handed over before its members are consumed.
pub(crate) struct BatchDone<'a> {
    pub instance: usize,
    pub class: RequestClass,
    pub dispatch_ns: f64,
    pub done_ns: f64,
    pub members: &'a [Request],
    /// The invocation's hardware phase decomposition.
    pub phases: InvocationPhases,
}

/// One request reaching its terminal state. `dispatch_ns` and
/// `instance` are `None` and `batch_size` is 0 unless it completed.
pub(crate) struct Terminal {
    pub id: u64,
    pub class: RequestClass,
    pub outcome: RequestOutcome,
    pub arrive_ns: f64,
    pub dispatch_ns: Option<f64>,
    pub finish_ns: f64,
    pub batch_size: usize,
    pub instance: Option<usize>,
}

impl Terminal {
    /// The terminal of a request that never ran: rejected at `now`, its
    /// arrival, or expired in the queue at `now`.
    pub fn unserved(req: &Request, outcome: RequestOutcome, now: f64) -> Self {
        Terminal {
            id: req.id,
            class: req.class,
            outcome,
            arrive_ns: req.arrive_ns,
            dispatch_ns: None,
            finish_ns: now,
            batch_size: 0,
            instance: None,
        }
    }
}

/// The settled state after one event, with that event's own fields.
pub(crate) struct Sample {
    pub t_ns: f64,
    pub seq: u64,
    pub kind: FlightEventKind,
    /// Class of an arrive, window-expire or instance-free event.
    pub class: Option<RequestClass>,
    /// Instance, batch size and batch dispatch time of an instance-free
    /// event.
    pub instance: Option<usize>,
    pub batch_size: usize,
    pub dispatch_ns: Option<f64>,
    /// Requests queued across all classes.
    pub queued: usize,
    /// Instances executing a batch.
    pub busy: usize,
    /// Requests executing in batches.
    pub occupancy: usize,
    /// Health alarms raised so far by the observers ahead in the list
    /// (health precedes flight).
    pub alarms: usize,
}

impl Sample {
    /// An event's own fields, before the loop fills in the settled
    /// state; an instance-free event also sets its batch fields.
    pub fn new(t_ns: f64, seq: u64, kind: FlightEventKind, class: Option<RequestClass>) -> Self {
        Sample {
            t_ns,
            seq,
            kind,
            class,
            instance: None,
            batch_size: 0,
            dispatch_ns: None,
            queued: 0,
            busy: 0,
            occupancy: 0,
            alarms: 0,
        }
    }
}

/// What the observers read when the run ends.
pub(crate) struct Finish<'a> {
    pub makespan_ns: f64,
    pub services: &'a [ServiceModel],
    pub model_of: &'a [usize],
}

/// A read-only watcher of one simulation (see the module docs).
pub(crate) trait Observer {
    /// A batch of `size` `class` requests was costed onto `instance`.
    fn on_dispatch(
        &mut self,
        _instance: usize,
        _class: RequestClass,
        _size: usize,
        _cost: &BatchCost,
    ) {
    }

    /// An invocation finished; its members complete now.
    fn on_batch_done(&mut self, _batch: &BatchDone<'_>) {}

    /// A request was rejected, expired or completed.
    fn on_terminal(&mut self, _terminal: &Terminal) {}

    /// An event was handled and the state settled.
    fn on_sample(&mut self, _sample: &Sample) {}

    /// Health alarms raised so far, added to [`Sample::alarms`] for the
    /// observers after this one.
    fn alarms(&self) -> usize {
        0
    }

    /// Writes this observer's field of the outcome.
    fn finish(self: Box<Self>, end: &Finish<'_>, out: &mut SimOutcome);
}
