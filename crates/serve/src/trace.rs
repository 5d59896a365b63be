//! Request-lifecycle tracing: span trees per request, invocation spans
//! per batch, and a queue-depth / busy-instance timeseries sampler —
//! everything the SLO monitor and the Perfetto export consume.
//!
//! # Span model
//!
//! Every simulated request owns exactly one root [`Span`] (category
//! `"request"`) covering arrival → terminal event:
//!
//! - **good / late** completions get a `"queue"` child (arrival →
//!   dispatch) and an `"invocation"` child (dispatch → finish) whose
//!   grandchildren are the five sequential hardware phases of
//!   [`InvocationPhases`] (`overhead`, `projection`, `qk_fill`,
//!   `softmax_stream`, `av_drain`);
//! - **expired** requests get a `"queue"` child spanning their whole
//!   (futile) wait;
//! - **rejected** requests get a zero-duration root at their arrival
//!   instant.
//!
//! Conservation therefore holds by construction: the number of root
//! spans equals the number of arrivals, and every admitted request's
//! tree closes at its terminal event.
//!
//! # Determinism
//!
//! Spans are plain data appended by the totally ordered event loop —
//! never a live enter/exit API — so the serialized trace is a pure
//! function of the [`crate::ServeConfig`]. The CI byte-diff legs rerun
//! `star_cli serve --trace` under different `STAR_EXEC_THREADS` values
//! and `diff` the files.
//!
//! # Perfetto layout
//!
//! [`ServeTrace::to_chrome`] lowers the trace onto three process lanes:
//! pid 0 `"system"` carries the queue-depth and busy-instance counter
//! tracks (plus per-instance device-health counter tracks — temperature,
//! accuracy margin, wear reads — when the run was health-monitored),
//! pid 1 `"requests"` carries one thread lane per request id,
//! and pids `100 + i` carry the per-instance batch invocation spans.
//! [`ServeTrace::to_object_json`] wraps those events in Chrome's object
//! form and embeds the machine-readable trace itself under
//! [`TRACE_SIDECAR_KEY`] — Perfetto ignores unknown top-level keys, so
//! one file serves both the UI and `star_cli trace-analyze`.

use crate::health::FleetHealthSample;
use crate::model::InvocationPhases;
use crate::observer::{BatchDone, Finish, Observer, Sample, Terminal};
use crate::request::RequestClass;
use crate::sim::SimOutcome;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use star_telemetry::{ChromeTrace, Span};

/// Top-level JSON key under which [`ServeTrace::to_object_json`] embeds
/// the machine-readable trace next to `traceEvents`.
pub const TRACE_SIDECAR_KEY: &str = "starServe";

/// Terminal state of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RequestOutcome {
    /// Completed within the deadline.
    Good,
    /// Completed past the deadline.
    Late,
    /// Admitted but dropped at dispatch after out-waiting the deadline.
    Expired,
    /// Refused at admission (queue full).
    Rejected,
}

impl RequestOutcome {
    /// Stable lower-case label used in trace args and tables.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestOutcome::Good => "good",
            RequestOutcome::Late => "late",
            RequestOutcome::Expired => "expired",
            RequestOutcome::Rejected => "rejected",
        }
    }

    /// True when the request executed (good or late).
    pub fn is_completed(self) -> bool {
        matches!(self, RequestOutcome::Good | RequestOutcome::Late)
    }

    /// True when the request burned SLO error budget (anything but
    /// [`RequestOutcome::Good`]).
    pub fn is_violation(self) -> bool {
        self != RequestOutcome::Good
    }
}

/// One request's closed lifecycle: outcome plus its span tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTrace {
    /// Request id (arrival order).
    pub id: u64,
    /// Batching class.
    pub class: RequestClass,
    /// Terminal state.
    pub outcome: RequestOutcome,
    /// Size of the batch it executed in (0 unless completed).
    pub batch_size: usize,
    /// Instance that executed it (`None` unless completed).
    pub instance: Option<usize>,
    /// Root span (category `"request"`), arrival → terminal event.
    pub span: Span,
}

impl RequestTrace {
    /// Arrival → terminal-event duration, ns.
    pub fn latency_ns(&self) -> f64 {
        self.span.dur_ns
    }

    /// Terminal-event time, ns.
    pub fn finish_ns(&self) -> f64 {
        self.span.end_ns()
    }
}

/// One batched invocation's span tree on its instance lane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchTrace {
    /// Instance that ran the batch.
    pub instance: usize,
    /// Class of every member.
    pub class: RequestClass,
    /// Number of member requests.
    pub size: usize,
    /// Root span (category `"invocation"`) with the five phase children.
    pub span: Span,
}

/// One sample of system state, taken after every event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemSample {
    /// Sample time, ns.
    pub t_ns: f64,
    /// Requests queued across all classes.
    pub queued: u64,
    /// Instances executing a batch.
    pub busy: u64,
}

/// Everything one traced simulation emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeTrace {
    /// Fleet size (number of instance lanes).
    pub fleet: usize,
    /// The run's latency SLO, ns.
    pub deadline_ns: f64,
    /// Time of the last event, ns.
    pub makespan_ns: f64,
    /// One entry per arrival, in terminal-event order.
    pub requests: Vec<RequestTrace>,
    /// One entry per dispatched batch, in completion order.
    pub batches: Vec<BatchTrace>,
    /// Queue-depth / busy-instance timeseries (one sample per distinct
    /// event time, post-event state).
    pub samples: Vec<SystemSample>,
    /// Device-health timeseries (empty unless the run was health-
    /// monitored; see [`crate::health`]). Sampled on the
    /// monitor's deterministic grid, rendered as per-instance
    /// temperature / accuracy-margin / wear counter tracks in the
    /// Perfetto export.
    pub health: Vec<FleetHealthSample>,
}

/// Builds an `"invocation"` span covering `[start_ns, start_ns + dur_ns)`
/// whose children are the five sequential hardware phases of `phases`,
/// placed back-to-back from `start_ns`.
///
/// `dur_ns` is the event-loop's measured interval (finish − dispatch);
/// the phase durations sum to the service model's latency, which equals
/// it up to one ulp — inside [`star_telemetry::SPAN_EPS_NS`], so
/// [`Span::validate`] accepts the tree.
pub fn invocation_span(
    name: impl Into<String>,
    start_ns: f64,
    dur_ns: f64,
    phases: &InvocationPhases,
) -> Span {
    let mut root = Span::leaf(name, "invocation", start_ns, dur_ns);
    let mut t = start_ns;
    for (cat, dur) in phases.as_categories() {
        root.push_child(Span::leaf(cat, cat, t, dur));
        t += dur;
    }
    root
}

impl ServeTrace {
    /// A new, empty trace for a `fleet`-instance run under `deadline_ns`.
    pub fn new(fleet: usize, deadline_ns: f64) -> Self {
        ServeTrace {
            fleet,
            deadline_ns,
            makespan_ns: 0.0,
            requests: Vec::new(),
            batches: Vec::new(),
            samples: Vec::new(),
            health: Vec::new(),
        }
    }

    /// Number of requests with the given terminal state.
    pub fn outcome_count(&self, outcome: RequestOutcome) -> u64 {
        self.requests.iter().filter(|r| r.outcome == outcome).count() as u64
    }

    /// Validates every span tree in the trace (see [`Span::validate`]).
    ///
    /// # Errors
    ///
    /// Returns the first invariant violation found.
    pub fn validate(&self) -> Result<(), String> {
        for r in &self.requests {
            r.span.validate().map_err(|e| format!("request {}: {e}", r.id))?;
        }
        for (i, b) in self.batches.iter().enumerate() {
            b.span.validate().map_err(|e| format!("batch {i}: {e}"))?;
        }
        Ok(())
    }

    /// Lowers the trace onto Chrome trace-event lanes (see the module
    /// docs for the pid/tid layout).
    pub fn to_chrome(&self) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.name_process(0, "system");
        t.name_process(1, "requests");
        for i in 0..self.fleet {
            t.name_process(100 + i as u64, format!("instance {i}"));
        }
        for r in &self.requests {
            r.span.emit_chrome(
                &mut t,
                1,
                r.id,
                json!({
                    "outcome": r.outcome.as_str(),
                    "batch": r.batch_size,
                    "instance": r.instance.map(|i| i as u64),
                }),
            );
        }
        for b in &self.batches {
            b.span.emit_chrome(
                &mut t,
                100 + b.instance as u64,
                0,
                json!({ "class": b.class.to_string(), "batch": b.size }),
            );
        }
        for s in &self.samples {
            t.counter_ns("queue depth", s.t_ns, 0, vec![("queued".to_string(), s.queued as f64)]);
            t.counter_ns("busy instances", s.t_ns, 0, vec![("busy".to_string(), s.busy as f64)]);
        }
        for h in &self.health {
            let series = |f: fn(&crate::health::InstanceHealthSample) -> f64| {
                h.instances
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (format!("i{i}"), f(s)))
                    .collect::<Vec<_>>()
            };
            t.counter_ns("health: temperature K", h.t_ns, 0, series(|s| s.temperature_kelvin));
            t.counter_ns("health: accuracy margin", h.t_ns, 0, series(|s| s.accuracy_margin));
            t.counter_ns("health: wear reads", h.t_ns, 0, series(|s| s.reads as f64));
        }
        t
    }

    /// The trace as Chrome's object-form JSON: `traceEvents` for the
    /// Perfetto UI plus the machine-readable trace under
    /// [`TRACE_SIDECAR_KEY`] so analyses round-trip through the same
    /// file.
    pub fn to_object_json(&self) -> Value {
        let sidecar = serde_json::to_value(self).expect("trace serializes");
        self.to_chrome().to_object_json(vec![(TRACE_SIDECAR_KEY.to_string(), sidecar)])
    }

    /// Recovers the trace from [`ServeTrace::to_object_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message when the sidecar key is missing or malformed.
    pub fn from_object_json(v: &Value) -> Result<Self, String> {
        let sidecar = v
            .get(TRACE_SIDECAR_KEY)
            .ok_or_else(|| format!("not a serve trace: missing `{TRACE_SIDECAR_KEY}` key"))?;
        serde_json::from_value(sidecar.clone())
            .map_err(|e| format!("malformed `{TRACE_SIDECAR_KEY}` sidecar: {e}"))
    }
}

/// The trace records every lifecycle event as plain data. Completed
/// requests get their span trees with their batch, which carries the
/// phase decomposition; terminals add only the rejected and expired.
impl Observer for ServeTrace {
    fn on_batch_done(&mut self, b: &BatchDone<'_>) {
        let size = b.members.len();
        let service_ns = b.done_ns - b.dispatch_ns;
        let span =
            invocation_span(format!("{} x{size}", b.class), b.dispatch_ns, service_ns, &b.phases);
        self.batches.push(BatchTrace { instance: b.instance, class: b.class, size, span });
        for req in b.members {
            let latency = b.done_ns - req.arrive_ns;
            let queue = Span::leaf("queue", "queue", req.arrive_ns, b.dispatch_ns - req.arrive_ns);
            let span = Span::leaf(
                format!("req{} {}", req.id, req.class),
                "request",
                req.arrive_ns,
                latency,
            )
            .with_child(queue)
            .with_child(invocation_span(
                "invoke",
                b.dispatch_ns,
                service_ns,
                &b.phases,
            ));
            self.requests.push(RequestTrace {
                id: req.id,
                class: req.class,
                outcome: if latency <= self.deadline_ns {
                    RequestOutcome::Good
                } else {
                    RequestOutcome::Late
                },
                batch_size: size,
                instance: Some(b.instance),
                span,
            });
        }
    }

    fn on_terminal(&mut self, t: &Terminal) {
        if t.outcome.is_completed() {
            return;
        }
        // A rejected request's lifecycle is one instant; an expired one
        // spent its whole (futile) lifetime queued.
        let wait = t.finish_ns - t.arrive_ns;
        let mut span = Span::leaf(format!("req{} {}", t.id, t.class), "request", t.arrive_ns, wait);
        if t.outcome == RequestOutcome::Expired {
            span.push_child(Span::leaf("queue", "queue", t.arrive_ns, wait));
        }
        self.requests.push(RequestTrace {
            id: t.id,
            class: t.class,
            outcome: t.outcome,
            batch_size: 0,
            instance: None,
            span,
        });
    }

    /// One sample per distinct event time: later events at the same
    /// instant overwrite, so the sample reflects the settled state.
    fn on_sample(&mut self, s: &Sample) {
        let (queued, busy) = (s.queued as u64, s.busy as u64);
        match self.samples.last_mut() {
            Some(last) if last.t_ns == s.t_ns => (last.queued, last.busy) = (queued, busy),
            _ => self.samples.push(SystemSample { t_ns: s.t_ns, queued, busy }),
        }
    }

    fn finish(mut self: Box<Self>, end: &Finish<'_>, out: &mut SimOutcome) {
        self.makespan_ns = end.makespan_ns;
        out.trace = Some(*self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ServiceModel, ServiceModelConfig};
    use crate::request::ModelKind;

    fn tiny_phases(batch: usize) -> InvocationPhases {
        let class = RequestClass::new(ModelKind::Tiny, 16);
        let m = ServiceModel::new(ServiceModelConfig::default(), &[class]);
        m.invocation_phases(class, batch)
    }

    #[test]
    fn invocation_span_children_are_the_five_phases() {
        let phases = tiny_phases(4);
        let span = invocation_span("invoke", 1000.0, phases.sum(), &phases);
        span.validate().expect("valid invocation span");
        assert_eq!(span.children.len(), 5);
        let cats: Vec<&str> = span.children.iter().map(|c| c.cat.as_str()).collect();
        assert_eq!(cats, ["overhead", "projection", "qk_fill", "softmax_stream", "av_drain"]);
        // Children tile the interval: each starts where the previous ends.
        for pair in span.children.windows(2) {
            assert!((pair[1].start_ns - pair[0].end_ns()).abs() < 1e-9);
        }
        let child_sum: f64 = span.children.iter().map(|c| c.dur_ns).sum();
        assert!((child_sum - span.dur_ns).abs() < 1e-6);
    }

    #[test]
    fn outcome_labels_and_predicates() {
        assert_eq!(RequestOutcome::Good.as_str(), "good");
        assert!(RequestOutcome::Good.is_completed());
        assert!(!RequestOutcome::Good.is_violation());
        assert!(RequestOutcome::Late.is_completed());
        assert!(RequestOutcome::Late.is_violation());
        assert!(!RequestOutcome::Expired.is_completed());
        assert!(RequestOutcome::Rejected.is_violation());
    }

    #[test]
    fn object_json_round_trips() {
        let phases = tiny_phases(2);
        let class = RequestClass::new(ModelKind::Tiny, 16);
        let mut trace = ServeTrace::new(2, 2e6);
        trace.makespan_ns = 5000.0;
        trace.requests.push(RequestTrace {
            id: 0,
            class,
            outcome: RequestOutcome::Good,
            batch_size: 2,
            instance: Some(1),
            span: Span::leaf("req0", "request", 0.0, 5000.0)
                .with_child(Span::leaf("queue", "queue", 0.0, 1000.0))
                .with_child(invocation_span("invoke", 1000.0, 4000.0, &phases)),
        });
        trace.batches.push(BatchTrace {
            instance: 1,
            class,
            size: 2,
            span: invocation_span("tiny/seq16 x2", 1000.0, 4000.0, &phases),
        });
        trace.samples.push(SystemSample { t_ns: 0.0, queued: 1, busy: 0 });
        let obj = trace.to_object_json();
        assert!(obj.get("traceEvents").is_some(), "Perfetto needs traceEvents");
        let back = ServeTrace::from_object_json(&obj).expect("round trip");
        assert_eq!(back, trace);
    }

    #[test]
    fn from_object_json_rejects_plain_chrome_traces() {
        let plain = ChromeTrace::new().to_object_json(vec![]);
        let err = ServeTrace::from_object_json(&plain).expect_err("no sidecar");
        assert!(err.contains(TRACE_SIDECAR_KEY), "{err}");
    }

    #[test]
    fn chrome_layout_has_system_request_and_instance_lanes() {
        let trace = ServeTrace::new(3, 1e6);
        let chrome = trace.to_chrome();
        let arr = match chrome.to_json() {
            Value::Seq(v) => v,
            other => panic!("expected array, got {other:?}"),
        };
        // 1 system + 1 requests + 3 instances = 5 metadata records.
        assert_eq!(arr.len(), 5);
        assert!(arr.iter().all(|e| e.get("ph").and_then(Value::as_str) == Some("M")));
    }
}
