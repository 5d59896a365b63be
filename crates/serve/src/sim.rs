//! The deterministic discrete-event serving simulator.
//!
//! One [`simulate`] call models a fleet of `fleet` STAR accelerator
//! instances fed from bounded per-class queues by an arrival process. The
//! event loop is **fully ordered**: events are processed in `(time,
//! sequence-number)` order, every random draw comes from one seeded
//! `ChaCha8Rng` consumed in event order, and all collections iterate
//! deterministically (class state lives in `Vec`s indexed by the class's
//! rank in class order). Two runs with the same [`ServeConfig`] therefore
//! produce bitwise-identical reports.
//!
//! # Event sources
//!
//! Events come from two sources merged under the one `(time, seq)`
//! order, so each event costs the same however many requests a run has:
//!
//! - an **arrival cursor** over the open-loop trace that
//!   [`generate_open_loop`] materializes. Arrival `i` carries `seq = i`,
//!   and every other event is numbered after the whole trace, so an
//!   arrival wins any time tie — exactly the order a heap seeded with
//!   the full trace would produce;
//! - a **binary heap** of the events the loop creates as it runs
//!   (instance-free completions, window timers, scale checks, and
//!   closed-loop arrivals). It holds about one event per instance and
//!   class at a time.
//!
//! The loop is serial: every event reads and writes shared serving
//! state (the idle set, the admission bound, the sequence counter), so
//! each pop waits on the one before it. Whole-simulation parallelism
//! lives *outside* the loop (parameter sweeps fan out over `star-exec`;
//! see [`crate::sweep`]).
//!
//! # Entry points
//!
//! [`simulate_with`] runs one simulation with any set of observers
//! attached, chosen by a [`SimOptions`]. [`simulate`],
//! [`simulate_profiled`] and [`simulate_blamed`] are shorthands for the
//! common single-observer runs.
//!
//! Gauge and histogram telemetry is not recorded per event: the run
//! keeps the values it needs anyway (per-request latencies, per-batch
//! sizes and energies) and replays each metric into the registry once,
//! at finalize, in the order the events produced them — bit-identical to
//! per-event recording, without a lock and a name lookup per event.
//!
//! # Event model
//!
//! - `Arrive` — a request enters. If the queue bound is hit it is
//!   rejected (backpressure); otherwise it joins its class queue.
//! - `WindowExpire` — a class's oldest request has waited out the batch
//!   window; the batcher may now dispatch a partial batch.
//! - `InstanceFree` — an invocation finished; its requests complete and
//!   the instance returns to the idle set.
//!
//! After every event the dispatcher greedily matches idle instances with
//! *ready* class queues (full batch, expired window, or zero window).
//! Requests whose deadline has already passed while queueing are dropped
//! at dispatch time (they could only waste accelerator time).

use crate::arrival::{exp_sample, generate_open_loop, ArrivalProcess, WorkloadMix};
use crate::batch::BatchPolicy;
use crate::blame::{BlameOutcome, BlameRecorder};
use crate::control::autoscale::ScalerState;
use crate::control::{
    ClassShare, ControlConfig, ControlReport, DequeuePolicy, PlacementPolicy, ScaleDirection,
};
use crate::flight::{FlightConfig, FlightEventKind, FlightOutcome, FlightRecorder};
use crate::health::{FleetHealthReport, HealthConfig, HealthMonitor};
use crate::model::{ServiceModel, ServiceModelConfig, ServicePhase};
use crate::observer::{BatchDone, Finish, Observer, Sample, Terminal};
use crate::profile::{phase, SimProfile};
use crate::ready::ReadyIndex;
use crate::request::{Request, RequestClass, RequestRecord};
use crate::slo::{ClassSloReport, LatencyStats, ServeReport};
use crate::trace::{RequestOutcome, ServeTrace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use star_telemetry::DEFAULT_BUCKET_BOUNDS;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::time::Instant;

/// Complete description of one serving experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Number of accelerator instances.
    pub fleet: usize,
    /// Batching policy.
    pub policy: BatchPolicy,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Request-class mix.
    pub mix: WorkloadMix,
    /// Arrivals stop at this time; the simulation then drains, ns.
    pub horizon_ns: f64,
    /// RNG seed (arrivals, class sampling, think times).
    pub seed: u64,
    /// Admission bound: arrivals beyond this many *queued* requests are
    /// rejected.
    pub max_queue: usize,
    /// Per-request latency SLO, ns. Completions within it count toward
    /// goodput; requests that out-wait it in the queue are dropped at
    /// dispatch.
    pub deadline_ns: f64,
    /// Hardware operating point of every instance.
    pub service: ServiceModelConfig,
    /// Fleet control plane: dequeue policy, placement, autoscaler,
    /// heterogeneous per-instance engines. The default is a strict
    /// no-op — the simulation is then bitwise identical to a config
    /// without a control plane at all.
    pub control: ControlConfig,
}

impl ServeConfig {
    /// A small, fast configuration for tests and examples: a tiny model
    /// class, Poisson arrivals, two instances.
    pub fn example() -> Self {
        use crate::request::ModelKind;
        ServeConfig {
            fleet: 2,
            policy: BatchPolicy::new(4, 50_000.0),
            arrival: ArrivalProcess::poisson(20_000.0),
            mix: WorkloadMix::single(RequestClass::new(ModelKind::Tiny, 16)),
            horizon_ns: 5e6,
            seed: 42,
            max_queue: 64,
            deadline_ns: 2e6,
            service: ServiceModelConfig::default(),
            control: ControlConfig::default(),
        }
    }

    fn validate(&self) {
        assert!(self.fleet > 0, "fleet must hold at least one instance");
        assert!(self.max_queue > 0, "queue bound must be positive");
        assert!(
            self.deadline_ns.is_finite() && self.deadline_ns > 0.0,
            "deadline must be positive"
        );
        assert!(self.horizon_ns.is_finite() && self.horizon_ns > 0.0, "horizon must be positive");
        self.control.validate(self.fleet);
    }

    /// The fleet's distinct service-model configurations in first-use
    /// order, plus each instance slot's index into them. A homogeneous
    /// fleet has one entry; a heterogeneous one dedupes, since building a
    /// [`ServiceModel`] is the expensive part (a two-format q5.3/q3.5
    /// fleet builds two models, not one per instance).
    fn model_slots(&self) -> (Vec<ServiceModelConfig>, Vec<usize>) {
        let capacity = self.control.capacity(self.fleet);
        if self.control.instance_services.is_empty() {
            return (vec![self.service.clone()], vec![0; capacity]);
        }
        let mut distinct: Vec<ServiceModelConfig> = Vec::new();
        let mut model_of = Vec::with_capacity(capacity);
        for svc in &self.control.instance_services {
            let idx = match distinct.iter().position(|c| c == svc) {
                Some(idx) => idx,
                None => {
                    distinct.push(svc.clone());
                    distinct.len() - 1
                }
            };
            model_of.push(idx);
        }
        (distinct, model_of)
    }

    /// Builds the fleet's distinct service models, in the order the
    /// what-if engine ([`crate::run_what_ifs`]) shares them across its
    /// runs. Configs that differ only in batch window, fleet size
    /// (heterogeneous fleets adding a copy of an existing engine) or
    /// placement share these models.
    pub fn service_models(&self) -> Vec<ServiceModel> {
        let classes = self.mix.classes();
        self.model_slots().0.into_iter().map(|c| ServiceModel::new(c, &classes)).collect()
    }
}

/// One dispatched invocation in flight.
#[derive(Debug, Clone)]
struct Batch {
    class: RequestClass,
    dispatch_ns: f64,
    /// The dispatch-time `BatchCost::latency_ns` of this invocation.
    latency_ns: f64,
    members: Vec<Request>,
}

#[derive(Debug, Clone)]
enum EventKind {
    Arrive(Request),
    WindowExpire(RequestClass),
    InstanceFree {
        instance: usize,
        batch: Batch,
    },
    /// Periodic autoscaler decision point (only scheduled when an
    /// autoscaler is configured).
    ScaleCheck,
}

/// Per-class running totals (always maintained — they cost a handful of
/// integer bumps per request and feed [`ServeReport::per_class`]).
#[derive(Debug, Clone, Default)]
struct ClassAccum {
    arrivals: u64,
    rejected: u64,
    expired: u64,
    completed: u64,
    good: u64,
    late: u64,
    latencies_ns: Vec<f64>,
}

#[derive(Debug, Clone)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl Event {
    /// The event's own fields as observers see them; the loop fills in
    /// the settled state after the handler ran.
    fn sample(&self) -> Sample {
        let of = |kind, class| Sample::new(self.time, self.seq, kind, class);
        match &self.kind {
            EventKind::Arrive(req) => of(FlightEventKind::Arrive, Some(req.class)),
            EventKind::WindowExpire(class) => of(FlightEventKind::WindowExpire, Some(*class)),
            EventKind::InstanceFree { instance, batch } => Sample {
                instance: Some(*instance),
                batch_size: batch.members.len(),
                dispatch_ns: Some(batch.dispatch_ns),
                ..of(FlightEventKind::InstanceFree, Some(batch.class))
            },
            EventKind::ScaleCheck => of(FlightEventKind::ScaleCheck, None),
        }
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Total order: time first (finite by construction), then the
        // creation sequence number as the deterministic tie-break.
        self.time.total_cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// Telemetry facade sink. A run leaves the same registry state as
/// calling `star_telemetry` directly, plus one deterministic op-count
/// bump per call when profiling — folded into
/// `WorkCounters::telemetry_ops` at finalize. Lives in its own field so
/// the hot path can call it while other state is borrowed.
///
/// Counters stay in a per-run table and reach the active registry once,
/// in [`TelSink::flush`] at finalize: integer addition makes the fold
/// exact, and a `count(name, 0)` still creates its counter. Gauge and
/// histogram values are replayed at finalize from the run's own vectors
/// (see [`Sim::replay_telemetry`]); their call sites only bump the op
/// count.
#[derive(Debug)]
struct TelSink {
    profiled: bool,
    ops: u64,
    /// Per-run counter totals, in first-use order (a handful of names).
    counters: Vec<(&'static str, u64)>,
}

impl TelSink {
    fn new(profiled: bool) -> Self {
        TelSink { profiled, ops: 0, counters: Vec::new() }
    }

    /// Counts `n` logical recordings.
    #[inline]
    fn bump(&mut self, n: u64) {
        if self.profiled {
            self.ops += n;
        }
    }

    fn count(&mut self, name: &'static str, n: u64) {
        self.bump(1);
        match self.counters.iter_mut().find(|(k, _)| *k == name) {
            Some((_, total)) => *total += n,
            None => self.counters.push((name, n)),
        }
    }

    /// Folds the run's counters into the active registry.
    fn flush(&mut self) {
        for (name, n) in self.counters.drain(..) {
            star_telemetry::count(name, n);
        }
    }
}

/// Bucket bounds of the `serve.batch.size` histogram.
const BATCH_SIZE_BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// The simulator state.
struct Sim<'a> {
    cfg: &'a ServeConfig,
    /// Distinct service models of the fleet (one entry for a
    /// homogeneous fleet; heterogeneous configs dedupe, since building
    /// a `ServiceModel` is the expensive part).
    services: Vec<ServiceModel>,
    /// Instance slot → index into `services`.
    model_of: Vec<usize>,
    /// The mix's classes in class order; a class's index here (its
    /// rank) addresses every per-class table below.
    classes: Vec<RequestClass>,
    /// The open-loop arrival trace, read through `next_arrival`; arrival
    /// `i` carries sequence number `i`. Empty for closed-loop runs,
    /// whose arrivals go through the heap.
    open_loop: Vec<Request>,
    next_arrival: usize,
    /// Loop-created events, smallest `(time, seq)` first.
    events: BinaryHeap<Reverse<Event>>,
    event_seq: u64,
    next_request_id: u64,
    rng: ChaCha8Rng,
    queues: Vec<VecDeque<Request>>,
    queued_total: usize,
    idle: BTreeSet<usize>,
    /// Per class, the time of its pending window wake-up, if any.
    armed_windows: Vec<Option<f64>>,
    /// Incremental ready/flagged class index — replaces the per-iteration
    /// linear queue scan in the dispatcher. The control plane's dequeue
    /// policy chooses the *key* each class is indexed under (FIFO head
    /// arrival by default; WFQ virtual time; EDF absolute deadline).
    ready: ReadyIndex,
    /// True iff any control-plane knob is on; the hot path consults this
    /// one flag to skip all control bookkeeping in the default config.
    control_active: bool,
    /// Instances currently active (== fleet without an autoscaler).
    active_count: usize,
    /// Per-class attained busy time, ns — WFQ's virtual-time input and
    /// the fairness-share table (maintained only when control is on).
    attained_ns: Vec<f64>,
    /// Autoscaler runtime state (present iff configured).
    scaler: Option<ScalerState>,
    /// Round-robin placement's cursor: the next pick is the first idle
    /// instance at or after it.
    rr_cursor: usize,
    tel: TelSink,
    // Accounting.
    arrivals: u64,
    rejected: u64,
    expired: u64,
    completed: u64,
    good: u64,
    late: u64,
    batches: u64,
    batched_requests: u64,
    latencies_ns: Vec<f64>,
    queue_delays_ns: Vec<f64>,
    records: Vec<RequestRecord>,
    /// Size and energy of every batch, in dispatch order (replayed into
    /// telemetry at finalize).
    batch_sizes: Vec<usize>,
    batch_energy_pj: Vec<f64>,
    busy_ns: Vec<f64>,
    energy_pj: f64,
    in_system: u64,
    max_in_system: u64,
    makespan_ns: f64,
    per_class: Vec<ClassAccum>,
    /// The attached observers in call order: trace, health, flight,
    /// blame (see [`crate::observer`]). Empty when none is attached.
    observers: Vec<Box<dyn Observer>>,
    /// Self-profile: deterministic work counters + wall-clock phase
    /// attribution. A timer layer, not an observer: like them it
    /// consumes zero RNG draws and perturbs no event arithmetic —
    /// reports stay bitwise identical (boxed: only the hot loop's
    /// `is_some` check stays in the state's cache footprint).
    profile: Option<Box<SimProfile>>,
}

impl<'a> Sim<'a> {
    /// `services` are the fleet's distinct models in
    /// [`ServeConfig::service_models`] order; `None` builds them.
    fn new(cfg: &'a ServeConfig, services: Option<Vec<ServiceModel>>, opts: &SimOptions) -> Self {
        cfg.validate();
        let classes = cfg.mix.classes();
        let capacity = cfg.control.capacity(cfg.fleet);
        let initial_active = cfg.control.initial_active(cfg.fleet);
        let (distinct, model_of) = cfg.model_slots();
        let services = match services {
            Some(services) => {
                assert!(
                    services.iter().map(ServiceModel::config).eq(&distinct),
                    "service models do not match the fleet's engine configs"
                );
                services
            }
            None => distinct.into_iter().map(|c| ServiceModel::new(c, &classes)).collect(),
        };
        // List order is call order: health samples each event before
        // flight reads its alarms, and the trace finishes before health
        // attaches its timeseries to it.
        let mut observers: Vec<Box<dyn Observer>> = Vec::new();
        if opts.traced {
            observers.push(Box::new(ServeTrace::new(capacity, cfg.deadline_ns)));
        }
        if let Some(hc) = &opts.health {
            let monitor = HealthMonitor::new(hc.clone(), capacity, cfg.service.qformat());
            observers.push(Box::new(monitor));
        }
        if let Some(fc) = &opts.flight {
            let window_ns = cfg.policy.window_ns;
            let recorder = FlightRecorder::new(fc.clone(), classes.clone(), capacity, window_ns);
            observers.push(Box::new(recorder));
        }
        if opts.blamed {
            observers.push(Box::new(BlameRecorder::new(
                classes.clone(),
                cfg.policy.window_ns,
                cfg.control.dequeue.name(),
                cfg.control.placement.name(),
            )));
        }
        let mut ranked = classes;
        ranked.sort_unstable();
        ranked.dedup();
        let n_classes = ranked.len();
        let scaler =
            cfg.control.autoscale.clone().map(|a| ScalerState::new(a, capacity, initial_active));
        Sim {
            cfg,
            services,
            model_of,
            classes: ranked,
            open_loop: Vec::new(),
            next_arrival: 0,
            events: BinaryHeap::new(),
            event_seq: 0,
            next_request_id: 0,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x5EB5_E001),
            queues: vec![VecDeque::new(); n_classes],
            queued_total: 0,
            idle: (0..initial_active).collect(),
            armed_windows: vec![None; n_classes],
            ready: ReadyIndex::new(n_classes),
            control_active: !cfg.control.is_noop(),
            active_count: initial_active,
            attained_ns: vec![0.0; n_classes],
            scaler,
            rr_cursor: 0,
            tel: TelSink::new(opts.profiled),
            arrivals: 0,
            rejected: 0,
            expired: 0,
            completed: 0,
            good: 0,
            late: 0,
            batches: 0,
            batched_requests: 0,
            latencies_ns: Vec::new(),
            queue_delays_ns: Vec::new(),
            records: Vec::new(),
            batch_sizes: Vec::new(),
            batch_energy_pj: Vec::new(),
            busy_ns: vec![0.0; capacity],
            energy_pj: 0.0,
            in_system: 0,
            max_in_system: 0,
            makespan_ns: 0.0,
            per_class: vec![ClassAccum::default(); n_classes],
            observers,
            profile: opts.profiled.then(|| Box::new(SimProfile::new())),
        }
    }

    /// Starts a wall-clock interval iff profiling is on. Pair with
    /// [`Sim::tock`]; when profiling is off this is one branch and no
    /// clock read.
    #[inline]
    fn tick(&self) -> Option<Instant> {
        self.profile.is_some().then(Instant::now)
    }

    /// Ends a wall-clock interval started by [`Sim::tick`], attributing
    /// it to `phase_idx`.
    #[inline]
    fn tock(&mut self, phase_idx: usize, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            if let Some(p) = self.profile.as_deref_mut() {
                p.wall.record(phase_idx, t0.elapsed());
            }
        }
    }

    /// Hands one lifecycle event to every attached observer in list
    /// order, timed as the nested `observe` phase. With none attached
    /// the hook never runs, so no event is built and no clock is read.
    #[inline]
    fn notify(&mut self, mut hook: impl FnMut(&mut dyn Observer)) {
        if self.observers.is_empty() {
            return;
        }
        let t0 = self.tick();
        for o in &mut self.observers {
            hook(o.as_mut());
        }
        self.tock(phase::OBSERVE, t0);
    }

    fn push_event(&mut self, time: f64, kind: EventKind) {
        debug_assert!(time.is_finite(), "event times must be finite");
        let seq = self.event_seq;
        self.event_seq += 1;
        self.events.push(Reverse(Event { time, seq, kind }));
        if let Some(p) = self.profile.as_deref_mut() {
            p.work.heap_pushes += 1;
            p.work.heap_peak = p.work.heap_peak.max(self.events.len() as u64);
        }
    }

    /// Installs the open-loop trace behind the arrival cursor, or pushes
    /// the first request of every closed-loop client.
    fn seed_arrivals(&mut self) {
        match self.cfg.arrival {
            ArrivalProcess::Poisson(_) | ArrivalProcess::Mmpp(_) => {
                let reqs = generate_open_loop(
                    &self.cfg.arrival,
                    &self.cfg.mix,
                    self.cfg.horizon_ns,
                    self.cfg.seed,
                );
                // Arrival i is event i; loop-created events follow.
                let n = reqs.len();
                self.event_seq = n as u64;
                self.next_request_id = n as u64;
                self.open_loop = reqs;
                // Every completion appends one entry to each; sizing them
                // once keeps the trace the cursor holds from raising the
                // run's peak memory.
                self.latencies_ns.reserve_exact(n);
                self.queue_delays_ns.reserve_exact(n);
                self.records.reserve_exact(n);
            }
            ArrivalProcess::ClosedLoop(crate::arrival::ClosedLoopArrival { clients, think_ns }) => {
                assert!(clients > 0, "closed loop needs at least one client");
                assert!(think_ns > 0.0, "think time must be positive");
                for client in 0..clients {
                    let t = exp_sample(&mut self.rng, think_ns);
                    self.issue_client_request(client, t);
                }
            }
        }
    }

    /// Removes and returns the next event: the smaller of the arrival
    /// cursor's head and the heap's head under the `(time, seq)` order.
    fn pop_event(&mut self) -> Option<Event> {
        let seq = self.next_arrival as u64;
        let head = self.events.peek().map(|Reverse(head)| head);
        let arrival_first = match (self.open_loop.get(self.next_arrival), head) {
            (Some(req), Some(head)) => {
                req.arrive_ns.total_cmp(&head.time).then(seq.cmp(&head.seq)).is_lt()
            }
            (arrival, _) => arrival.is_some(),
        };
        if arrival_first {
            let req = self.open_loop[self.next_arrival].clone();
            self.next_arrival += 1;
            return Some(Event { time: req.arrive_ns, seq, kind: EventKind::Arrive(req) });
        }
        let Reverse(event) = self.events.pop()?;
        if let Some(p) = self.profile.as_deref_mut() {
            p.work.heap_pops += 1;
        }
        Some(event)
    }

    /// The rank of `class` in class order.
    fn rank(&self, class: RequestClass) -> usize {
        self.classes.binary_search(&class).expect("mix classes are registered")
    }

    /// Schedules the next request of a closed-loop client at `t` (no-op
    /// past the horizon, which is how the closed loop drains).
    fn issue_client_request(&mut self, client: usize, t: f64) {
        if t >= self.cfg.horizon_ns {
            return;
        }
        let class = self.cfg.mix.sample(&mut self.rng);
        let id = self.next_request_id;
        self.next_request_id += 1;
        self.push_event(
            t,
            EventKind::Arrive(Request { id, class, arrive_ns: t, client: Some(client) }),
        );
    }

    /// A finished (or failed) closed-loop request lets its client think,
    /// then issue the next one.
    fn client_think_and_reissue(&mut self, client: Option<usize>, now: f64) {
        if let (Some(client), ArrivalProcess::ClosedLoop(loop_cfg)) = (client, &self.cfg.arrival) {
            let think = exp_sample(&mut self.rng, loop_cfg.think_ns);
            self.issue_client_request(client, now + think);
        }
    }

    fn on_arrive(&mut self, now: f64, req: Request) {
        let rank = self.rank(req.class);
        self.arrivals += 1;
        self.per_class[rank].arrivals += 1;
        self.tel.count("serve.requests.arrived", 1);
        if self.queued_total >= self.cfg.max_queue {
            self.rejected += 1;
            self.per_class[rank].rejected += 1;
            if let Some(s) = self.scaler.as_mut() {
                s.note_violation(req.class);
            }
            self.tel.count("serve.requests.rejected", 1);
            self.notify(|o| {
                o.on_terminal(&Terminal::unserved(&req, RequestOutcome::Rejected, now))
            });
            self.client_think_and_reissue(req.client, now);
            return;
        }
        self.tel.count("serve.requests.admitted", 1);
        self.in_system += 1;
        self.max_in_system = self.max_in_system.max(self.in_system);
        self.queued_total += 1;
        self.queues[rank].push_back(req);
        // Enqueue is one of the two points where class readiness can
        // change; re-evaluate its slot in the ready index.
        self.reindex_class(now, rank);
        self.try_dispatch(now);
    }

    fn on_window_expire(&mut self, now: f64, class: RequestClass) {
        let rank = self.rank(class);
        if self.armed_windows[rank] == Some(now) {
            self.armed_windows[rank] = None;
        }
        self.try_dispatch(now);
    }

    fn on_instance_free(&mut self, now: f64, instance: usize, batch: Batch) {
        let size = batch.members.len();
        debug_assert!(
            batch.members.iter().all(|r| r.class == batch.class),
            "batches never mix request classes"
        );
        if !self.observers.is_empty() {
            // The hardware phase decomposition, once per batch for every
            // observer: a pure function of the model (no counters, no
            // RNG), so computing it perturbs nothing.
            let done = BatchDone {
                instance,
                class: batch.class,
                dispatch_ns: batch.dispatch_ns,
                done_ns: now,
                members: &batch.members,
                phases: self.services[self.model_of[instance]].phases_of(
                    batch.class,
                    size,
                    batch.latency_ns,
                ),
            };
            self.notify(|o| o.on_batch_done(&done));
        }
        let rank = self.rank(batch.class);
        for req in batch.members {
            let latency = now - req.arrive_ns;
            let queue_ns = batch.dispatch_ns - req.arrive_ns;
            let good = latency <= self.cfg.deadline_ns;
            self.notify(|o| {
                o.on_terminal(&Terminal {
                    id: req.id,
                    class: req.class,
                    outcome: if good { RequestOutcome::Good } else { RequestOutcome::Late },
                    arrive_ns: req.arrive_ns,
                    dispatch_ns: Some(batch.dispatch_ns),
                    finish_ns: now,
                    batch_size: size,
                    instance: Some(instance),
                })
            });
            self.in_system -= 1;
            self.completed += 1;
            let acc = &mut self.per_class[rank];
            acc.completed += 1;
            acc.latencies_ns.push(latency);
            if good {
                self.good += 1;
                acc.good += 1;
                if let Some(s) = self.scaler.as_mut() {
                    s.note_completed(req.class);
                }
            } else {
                self.late += 1;
                acc.late += 1;
                if let Some(s) = self.scaler.as_mut() {
                    s.note_violation(req.class);
                }
                self.tel.count("serve.requests.late", 1);
            }
            self.tel.count("serve.requests.completed", 1);
            // `serve.latency_us`, `serve.queue_us` and the class's pair,
            // replayed at finalize from the vectors filled below.
            self.tel.bump(4);
            self.latencies_ns.push(latency);
            self.queue_delays_ns.push(queue_ns);
            self.records.push(RequestRecord {
                id: req.id,
                class: req.class,
                arrive_ns: req.arrive_ns,
                dispatch_ns: batch.dispatch_ns,
                finish_ns: now,
                batch_size: size,
                instance,
            });
            self.client_think_and_reissue(req.client, now);
        }
        self.idle.insert(instance);
        self.try_dispatch(now);
    }

    /// One autoscaler decision point: evaluate the scale rule from the
    /// current queue depth and the per-class outcome counts accumulated
    /// since the last check, execute the action if possible, and arm the
    /// next check. Scale-up activates the lowest inactive slot and
    /// immediately offers it to the dispatcher; scale-down drains the
    /// highest *idle* active slot (never a busy one — if nothing is
    /// idle the decision lapses and is re-evaluated next check). Checks
    /// stop at the horizon so the drain phase terminates.
    fn on_scale_check(&mut self, now: f64) {
        let queued = self.queued_total;
        let scaler = self.scaler.as_mut().expect("scale check implies an autoscaler");
        let decision = scaler.decide(now, queued);
        let interval = scaler.cfg.check_interval_ns;
        let mut scaled_up = false;
        match decision.direction {
            Some(ScaleDirection::Up) => {
                if let Some(i) = scaler.lowest_inactive() {
                    scaler.record(now, ScaleDirection::Up, i, queued, decision.burn_hot);
                    self.active_count += 1;
                    self.idle.insert(i);
                    scaled_up = true;
                }
            }
            Some(ScaleDirection::Down) => {
                // The highest idle index: drained instances re-activate
                // last, so low slots accumulate the steady-state load.
                if let Some(&i) = self.idle.iter().next_back() {
                    scaler.record(now, ScaleDirection::Down, i, queued, decision.burn_hot);
                    self.active_count -= 1;
                    self.idle.remove(&i);
                }
            }
            None => {}
        }
        let next = now + interval;
        if next <= self.cfg.horizon_ns {
            self.push_event(next, EventKind::ScaleCheck);
        }
        if scaled_up {
            // A fresh instance may unblock queued work right now.
            self.try_dispatch(now);
        }
    }

    /// Greedily matches idle instances with ready class queues.
    fn try_dispatch(&mut self, now: f64) {
        let td = self.tick();
        if let Some(p) = self.profile.as_deref_mut() {
            p.work.dispatch_rounds += 1;
        }
        self.dispatch_loop(now);
        self.tock(phase::DISPATCH, td);
    }

    /// The ready-index key of class `rank` whose queue head arrived at
    /// `arrive_ns` with request `id` — the dequeue policy's comparator.
    /// FIFO keys by head arrival (the pre-control-plane order, bitwise
    /// preserved); weighted-fair by the class's weighted attained
    /// service (a virtual time — least-served-first); EDF by the head's
    /// absolute deadline. All three are non-negative finite, so they
    /// ride the same `ready_key` bit-pattern ordering.
    fn priority_key(&self, rank: usize, arrive_ns: f64, id: u64) -> (u64, u64) {
        let class = self.classes[rank];
        match &self.cfg.control.dequeue {
            DequeuePolicy::Fifo => ReadyIndex::ready_key(arrive_ns, id),
            DequeuePolicy::WeightedFair(p) => {
                ReadyIndex::ready_key(self.attained_ns[rank] / p.weight(class), id)
            }
            DequeuePolicy::EarliestDeadline(p) => {
                ReadyIndex::ready_key(arrive_ns + p.deadline_ns(class, self.cfg.deadline_ns), id)
            }
        }
    }

    /// Re-evaluates class `rank`'s slot in the ready index from its queue
    /// state. Called at the two points where readiness can change shape:
    /// enqueue (length grows, or a first head appears) and batch
    /// formation (the head changes or the queue empties). Between those
    /// points readiness is monotone — queues only grow and time only
    /// advances — so promotions *by time* are handled lazily by the
    /// arming sweep inside the dispatch loop, exactly where the serial
    /// scan used to notice them. (Weighted-fair keys also move when a
    /// class attains service; the dispatch loop re-indexes the
    /// dispatched class after charging it.)
    fn reindex_class(&mut self, now: f64, rank: usize) {
        let q = &self.queues[rank];
        match q.front() {
            None => self.ready.clear(rank),
            Some(head) => {
                if self.cfg.policy.head_ready(q.len(), now, head.arrive_ns) {
                    let key = self.priority_key(rank, head.arrive_ns, head.id);
                    self.ready.set_ready(rank, key);
                } else {
                    self.ready.set_flagged(rank);
                }
            }
        }
    }

    /// The window-arming sweep: walks the flagged classes in class
    /// order, promoting any whose window has elapsed and arming one
    /// wake-up event for the rest. This is push-for-push identical to
    /// the serial scan's arming pass — same classes, same order, same
    /// coverage check — which is what keeps the event stream (and
    /// therefore every report, golden, and trace byte) unchanged.
    fn arm_flagged(&mut self, now: f64) {
        let mut cursor = self.ready.first_flagged();
        while let Some(rank) = cursor {
            cursor = self.ready.next_flagged_after(rank);
            let head = self.queues[rank].front().expect("flagged class has a queued head");
            let (arrive_ns, id) = (head.arrive_ns, head.id);
            let expiry = self.cfg.policy.expiry_ns(arrive_ns);
            if now >= expiry {
                let key = self.priority_key(rank, arrive_ns, id);
                self.ready.set_ready(rank, key);
            } else {
                // Arm one wake-up per class; re-arm only if nothing
                // earlier is pending (duplicates would be harmless but
                // noisy).
                let covered = self.armed_windows[rank].is_some_and(|t| t > now && t <= expiry);
                if !covered {
                    self.armed_windows[rank] = Some(expiry);
                    self.push_event(expiry, EventKind::WindowExpire(self.classes[rank]));
                }
            }
        }
    }

    fn dispatch_loop(&mut self, now: f64) {
        while !self.idle.is_empty() {
            self.arm_flagged(now);
            // The ready class whose head has waited longest (ties broken
            // by request id; ids are unique), straight off the index —
            // the serial loop rescanned every class queue here.
            let Some(rank) = self.ready.best() else { break };
            let class = self.classes[rank];
            if let Some(p) = self.profile.as_deref_mut() {
                // One "scan" per indexed ready-pop, i.e. per dispatch
                // attempt — a pure function of the batch sequence (the
                // serial dispatcher counted full queue sweeps here,
                // which also made the count fleet-dependent). Also
                // attributed to the active dequeue-policy branch so the
                // ±5% work budgets stay meaningful per policy.
                p.work.dispatch_scans += 1;
                match &self.cfg.control.dequeue {
                    DequeuePolicy::Fifo => p.work.dispatch_scans_fifo += 1,
                    DequeuePolicy::WeightedFair(_) => p.work.dispatch_scans_wfq += 1,
                    DequeuePolicy::EarliestDeadline(_) => p.work.dispatch_scans_edf += 1,
                }
            }
            let members = self.form_batch(now, rank);
            self.reindex_class(now, rank);
            if members.is_empty() {
                continue; // everything at the head had expired
            }
            let size = members.len();
            // Placement: the lowest idle index unless the control plane
            // picks (zero RNG draws on every path — placement chooses
            // *which* instance runs the batch, never when or what).
            let instance = if self.control_active {
                self.place_instance(class, size)
            } else {
                *self.idle.first().expect("loop guard: idle set non-empty")
            };
            debug_assert!(
                self.scaler.as_ref().is_none_or(|s| s.is_active(instance)),
                "dispatch only targets active instances"
            );
            let tc = self.tick();
            let cost = self.services[self.model_of[instance]].batch_cost(class, size);
            self.tock(phase::BATCH_COST, tc);
            self.notify(|o| o.on_dispatch(instance, class, size, &cost));
            self.idle.remove(&instance);
            self.busy_ns[instance] += cost.latency_ns;
            self.energy_pj += cost.energy_pj;
            if self.control_active {
                // Charge the class its attained service. Under
                // weighted-fair the charge moves the class's virtual
                // time, so its index key must be recomputed.
                self.attained_ns[rank] += cost.latency_ns;
                if matches!(self.cfg.control.dequeue, DequeuePolicy::WeightedFair(_)) {
                    self.reindex_class(now, rank);
                }
            }
            self.batches += 1;
            self.batched_requests += size as u64;
            if let Some(p) = self.profile.as_deref_mut() {
                p.work.batches_formed += 1;
                p.work.batch_members += size as u64;
            }
            self.tel.count("serve.batches.dispatched", 1);
            // `serve.batch.size` and `serve.energy.total_pj`, replayed at
            // finalize.
            self.tel.bump(2);
            self.batch_sizes.push(size);
            self.batch_energy_pj.push(cost.energy_pj);
            let finish = now + cost.latency_ns;
            self.push_event(
                finish,
                EventKind::InstanceFree {
                    instance,
                    batch: Batch { class, dispatch_ns: now, latency_ns: cost.latency_ns, members },
                },
            );
        }
    }

    /// Picks the idle instance for a batch under the control plane's
    /// placement policy. Deterministic: the idle set iterates in
    /// ascending instance order and comparisons are strict, so ties
    /// always break to the lowest index; no RNG is consumed. On a
    /// homogeneous fleet, fastest-eligible and energy-greedy both
    /// degenerate to first-idle (every instance quotes the same cost).
    fn place_instance(&mut self, class: RequestClass, size: usize) -> usize {
        let first = *self.idle.first().expect("loop guard: idle set non-empty");
        match self.cfg.control.placement {
            PlacementPolicy::FirstIdle => first,
            PlacementPolicy::RoundRobin => {
                let pick = self.idle.range(self.rr_cursor..).next().copied().unwrap_or(first);
                self.rr_cursor = pick + 1;
                pick
            }
            PlacementPolicy::LeastLoaded => {
                let mut best = first;
                let mut best_busy = f64::INFINITY;
                for &i in &self.idle {
                    if self.busy_ns[i] < best_busy {
                        best_busy = self.busy_ns[i];
                        best = i;
                    }
                }
                best
            }
            PlacementPolicy::FastestEligible | PlacementPolicy::EnergyGreedy => {
                let greedy_energy = self.cfg.control.placement == PlacementPolicy::EnergyGreedy;
                // Quote each *distinct* model once, not each instance.
                let mut quote: Vec<Option<f64>> = vec![None; self.services.len()];
                let mut best = first;
                let mut best_cost = f64::INFINITY;
                for &i in &self.idle {
                    let m = self.model_of[i];
                    let c = *quote[m].get_or_insert_with(|| {
                        let cost = self.services[m].batch_cost(class, size);
                        if greedy_energy {
                            cost.energy_pj
                        } else {
                            cost.latency_ns
                        }
                    });
                    if c < best_cost {
                        best_cost = c;
                        best = i;
                    }
                }
                best
            }
        }
    }

    /// Pops up to `max_batch` requests of class `rank`, dropping any
    /// whose deadline already lapsed in the queue.
    fn form_batch(&mut self, now: f64, rank: usize) -> Vec<Request> {
        let mut members = Vec::new();
        let mut dead: Vec<Request> = Vec::new();
        {
            let q = &mut self.queues[rank];
            while members.len() < self.cfg.policy.max_batch {
                let Some(head) = q.front() else { break };
                if now - head.arrive_ns > self.cfg.deadline_ns {
                    dead.push(q.pop_front().expect("head exists"));
                    self.queued_total -= 1;
                    self.in_system -= 1;
                    self.expired += 1;
                    continue;
                }
                members.push(q.pop_front().expect("head exists"));
                self.queued_total -= 1;
            }
        }
        if !dead.is_empty() {
            // One facade call for the whole sweep: `count(name, n)` folds
            // identically to n unit counts in every registry snapshot.
            self.tel.count("serve.requests.expired", dead.len() as u64);
            if let Some(p) = self.profile.as_deref_mut() {
                p.work.expired_drops += dead.len() as u64;
            }
        }
        for req in dead {
            self.per_class[rank].expired += 1;
            if let Some(s) = self.scaler.as_mut() {
                s.note_violation(req.class);
            }
            self.notify(|o| o.on_terminal(&Terminal::unserved(&req, RequestOutcome::Expired, now)));
            self.client_think_and_reissue(req.client, now);
        }
        members
    }

    fn run(mut self) -> SimOutcome {
        let run_start = self.tick();
        self.seed_arrivals();
        if let Some(s) = &self.scaler {
            // The first decision point; each check arms its successor
            // until the horizon. Numbered after the arrival trace, whose
            // arrivals keep seq == index.
            let first = s.cfg.check_interval_ns;
            if first <= self.cfg.horizon_ns {
                self.push_event(first, EventKind::ScaleCheck);
            }
        }
        // The global (time, seq) minimum of the arrival cursor and the
        // heap head, one event at a time — which is what preserves
        // bitwise replay.
        while let Some(event) = self.pop_event() {
            self.makespan_ns = self.makespan_ns.max(event.time);
            if let Some(p) = self.profile.as_deref_mut() {
                p.work.events_total += 1;
                match &event.kind {
                    EventKind::Arrive(_) => p.work.events_arrive += 1,
                    EventKind::WindowExpire(_) => p.work.events_window_expire += 1,
                    EventKind::InstanceFree { .. } => p.work.events_instance_free += 1,
                    EventKind::ScaleCheck => p.work.events_scale_check += 1,
                }
            }
            // Observers never see the private event enum: its fields are
            // copied out before the handler consumes it.
            let sample = (!self.observers.is_empty()).then(|| event.sample());
            let t0 = self.tick();
            match event.kind {
                EventKind::Arrive(req) => {
                    self.on_arrive(event.time, req);
                    self.tock(phase::ARRIVE, t0);
                }
                EventKind::WindowExpire(class) => {
                    self.on_window_expire(event.time, class);
                    self.tock(phase::WINDOW_EXPIRE, t0);
                }
                EventKind::InstanceFree { instance, batch } => {
                    self.on_instance_free(event.time, instance, batch);
                    self.tock(phase::INSTANCE_FREE, t0);
                }
                EventKind::ScaleCheck => {
                    self.on_scale_check(event.time);
                    self.tock(phase::SCALE_CHECK, t0);
                }
            }
            if let Some(p) = self.profile.as_deref_mut() {
                // Post-event settled state, same convention as the
                // observers' sample below.
                p.work.queue_depth_hist.record(self.queued_total as u64);
                p.work.backlog_hist.record(self.events.len() as u64);
            }
            let ts = self.tick();
            if let Some(mut sample) = sample {
                sample.queued = self.queued_total;
                sample.busy = self.active_count - self.idle.len();
                sample.occupancy = (self.in_system as usize).saturating_sub(self.queued_total);
                for o in &mut self.observers {
                    o.on_sample(&sample);
                    sample.alarms += o.alarms();
                }
            }
            self.tock(phase::SAMPLE_HOOKS, ts);
        }
        debug_assert_eq!(self.queued_total, 0, "drain leaves no queued request");
        debug_assert_eq!(self.in_system, 0, "every admitted request completes or expires");
        let tf = self.tick();
        let makespan_s = (self.makespan_ns * 1e-9).max(f64::MIN_POSITIVE);
        let per_class: Vec<ClassSloReport> = self
            .classes
            .iter()
            .zip(&self.per_class)
            .map(|(&class, a)| ClassSloReport {
                class,
                arrivals: a.arrivals,
                completed: a.completed,
                good: a.good,
                late: a.late,
                rejected: a.rejected,
                expired: a.expired,
                goodput_rps: a.good as f64 / makespan_s,
                latency: LatencyStats::from_ns_samples(&a.latencies_ns),
            })
            .collect();
        let utilization: Vec<f64> =
            self.busy_ns.iter().map(|b| b / self.makespan_ns.max(f64::MIN_POSITIVE)).collect();
        let mean_utilization = utilization.iter().sum::<f64>() / utilization.len() as f64;
        let report = ServeReport {
            arrivals: self.arrivals,
            completed: self.completed,
            good: self.good,
            late: self.late,
            rejected: self.rejected,
            expired: self.expired,
            makespan_ns: self.makespan_ns,
            offered_rps: self.cfg.arrival.offered_rps(),
            throughput_rps: self.completed as f64 / makespan_s,
            goodput_rps: self.good as f64 / makespan_s,
            latency: LatencyStats::from_ns_samples(&self.latencies_ns),
            queue_delay: LatencyStats::from_ns_samples(&self.queue_delays_ns),
            batches: self.batches,
            mean_batch_size: if self.batches == 0 {
                0.0
            } else {
                self.batched_requests as f64 / self.batches as f64
            },
            utilization,
            mean_utilization,
            total_energy_pj: self.energy_pj,
            energy_per_request_nj: if self.completed == 0 {
                0.0
            } else {
                self.energy_pj / 1e3 / self.completed as f64
            },
            max_in_system: self.max_in_system,
            per_class,
        };
        let control = self.control_active.then(|| {
            let total_attained: f64 = self.attained_ns.iter().sum();
            let shares: Vec<ClassShare> = self
                .classes
                .iter()
                .zip(&self.per_class)
                .zip(&self.attained_ns)
                .map(|((&class, a), &attained)| ClassShare {
                    class,
                    completed: a.completed,
                    attained_ns: attained,
                    share: if total_attained > 0.0 { attained / total_attained } else { 0.0 },
                    weight: match &self.cfg.control.dequeue {
                        DequeuePolicy::WeightedFair(p) => p.weight(class),
                        _ => 1.0,
                    },
                })
                .collect();
            let (
                scale_events,
                final_active,
                peak_active,
                min_active,
                instance_seconds,
                converge_ns,
            ) = match self.scaler.as_mut() {
                Some(s) => {
                    let integral_ns = s.close_integral(self.makespan_ns);
                    let peak = s.peak_active;
                    // Convergence: when the fleet first reached its
                    // peak size (0 if it never moved).
                    let converge =
                        s.events.iter().find(|e| e.active_after == peak).map_or(0.0, |e| e.t_ns);
                    (
                        std::mem::take(&mut s.events),
                        s.active_count(),
                        peak,
                        s.min_active,
                        integral_ns * 1e-9,
                        converge,
                    )
                }
                None => (
                    Vec::new(),
                    self.active_count,
                    self.active_count,
                    self.active_count,
                    self.active_count as f64 * self.makespan_ns * 1e-9,
                    0.0,
                ),
            };
            ControlReport {
                dequeue: self.cfg.control.dequeue.name().to_string(),
                placement: self.cfg.control.placement.name().to_string(),
                shares,
                scale_events,
                final_active,
                peak_active,
                min_active,
                instance_seconds,
                converge_ns,
            }
        });
        self.replay_telemetry();
        let mut out = SimOutcome {
            report,
            records: self.records,
            trace: None,
            health: None,
            profile: None,
            control,
            flight: None,
            blame: None,
        };
        let end = Finish {
            makespan_ns: self.makespan_ns,
            services: &self.services,
            model_of: &self.model_of,
        };
        for o in self.observers {
            o.finish(&end, &mut out);
        }
        self.tel.flush();
        let tel_ops = self.tel.ops;
        out.profile = self.profile.take().map(|mut p| {
            p.work.telemetry_ops = tel_ops;
            if let Some(tf) = tf {
                p.wall.record(phase::FINALIZE, tf.elapsed());
            }
            if let Some(start) = run_start {
                p.wall_total_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            }
            *p
        });
        out
    }

    /// Records the run's gauge and histogram telemetry into the active
    /// registry: each metric's values in the order the events produced
    /// them, which makes the registry state bit-identical to recording
    /// each value as it happened.
    fn replay_telemetry(&self) {
        let us = |ns: &f64| ns / 1e3;
        star_telemetry::observe_all(
            "serve.latency_us",
            self.latencies_ns.iter().map(us),
            &DEFAULT_BUCKET_BOUNDS,
        );
        star_telemetry::observe_all(
            "serve.queue_us",
            self.queue_delays_ns.iter().map(us),
            &DEFAULT_BUCKET_BOUNDS,
        );
        // Per-class span-duration histograms: the dashboard view of the
        // per-request span tree's two lifecycle children.
        for (&class, acc) in self.classes.iter().zip(&self.per_class) {
            star_telemetry::observe_all(
                &format!("serve.class.{class}.latency_us"),
                acc.latencies_ns.iter().map(us),
                &DEFAULT_BUCKET_BOUNDS,
            );
            star_telemetry::observe_all(
                &format!("serve.class.{class}.queue_us"),
                self.records
                    .iter()
                    .filter(|r| r.class == class)
                    .map(|r| (r.dispatch_ns - r.arrive_ns) / 1e3),
                &DEFAULT_BUCKET_BOUNDS,
            );
        }
        star_telemetry::observe_all(
            "serve.batch.size",
            self.batch_sizes.iter().map(|&n| n as f64),
            &BATCH_SIZE_BOUNDS,
        );
        star_telemetry::add_all("serve.energy.total_pj", self.batch_energy_pj.iter().copied());
    }
}

/// Everything a traced simulation produces.
#[derive(Debug)]
pub struct SimOutcome {
    /// The SLO report.
    pub report: ServeReport,
    /// Per-request lifecycle records, completion order.
    pub records: Vec<RequestRecord>,
    /// Span trees, batch invocations, and the system-state timeseries
    /// (present when requested; see [`crate::trace`]).
    pub trace: Option<ServeTrace>,
    /// Fleet device-health report (present when the run was monitored;
    /// see [`crate::health`]).
    pub health: Option<FleetHealthReport>,
    /// Simulator self-profile: deterministic work counters + wall-clock
    /// phase attribution (present when requested; see [`crate::profile`]).
    pub profile: Option<SimProfile>,
    /// Control-plane report: fairness shares, the scale-event timeline,
    /// and fleet-cost figures (present iff any [`ControlConfig`] knob is
    /// on; see [`crate::control`]).
    pub control: Option<ControlReport>,
    /// Flight-recorder outcome: sealed incident dumps plus ring
    /// conservation counters (present when the recorder was attached;
    /// see [`crate::flight`]).
    pub flight: Option<FlightOutcome>,
    /// Critical-path blame: per-request latency decomposition, the
    /// blocking-chain table, and fleet-wide blame aggregation (present
    /// when requested; see [`crate::blame`]).
    pub blame: Option<BlameOutcome>,
}

/// The observers a [`simulate_with`] run attaches; the default attaches
/// none. Every observer only reads: it consumes zero RNG draws, makes no
/// scheduling decision and perturbs no event arithmetic, so the
/// [`ServeReport`] is bitwise identical whichever are attached.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Collect the full [`ServeTrace`]: a span tree per request,
    /// invocation spans per batch, and the queue-depth/busy timeseries.
    pub traced: bool,
    /// Attach the device-health monitor: wear ledgers accrue from every
    /// costed invocation and fleet health is sampled on the monitor's
    /// deterministic grid (see [`crate::health`]). A traced run then
    /// also carries the fleet-health timeseries.
    pub health: Option<HealthConfig>,
    /// Attach the self-profiler: deterministic work counters plus
    /// wall-clock phase attribution (see [`crate::profile`]).
    pub profiled: bool,
    /// Attach the incident flight recorder: bounded event rings and the
    /// trigger engine that seals incident dumps (see [`crate::flight`]).
    pub flight: Option<FlightConfig>,
    /// Attach the critical-path blame recorder: every request's latency
    /// split into causally attributed waits (see [`crate::blame`]).
    pub blamed: bool,
}

/// Runs the serving simulation with the observers `opts` attaches and
/// returns everything they collected. Per-request records are always
/// collected; each observer's output is present iff it was attached.
///
/// # Panics
///
/// Panics on invalid configuration (zero fleet, non-positive deadline,
/// horizon, or queue bound; unknown classes).
pub fn simulate_with(cfg: &ServeConfig, opts: &SimOptions) -> SimOutcome {
    Sim::new(cfg, None, opts).run()
}

/// Runs the serving simulation with no observer attached and returns its
/// report.
///
/// # Panics
///
/// Panics on invalid configuration (see [`simulate_with`]).
pub fn simulate(cfg: &ServeConfig) -> ServeReport {
    simulate_with(cfg, &SimOptions::default()).report
}

/// Exactly [`simulate`]: the event loop runs on one heap and `_shards`
/// is ignored. The argument is kept only for the benchmark harness,
/// which calls this signature.
pub fn simulate_sharded(cfg: &ServeConfig, _shards: usize) -> ServeReport {
    simulate(cfg)
}

/// [`simulate_with`] with only the self-profiler attached: the outcome
/// carries a [`SimProfile`] of deterministic work counters and
/// wall-clock phase attribution.
pub fn simulate_profiled(cfg: &ServeConfig) -> SimOutcome {
    simulate_with(cfg, &SimOptions { profiled: true, ..SimOptions::default() })
}

/// [`simulate_with`] with only the critical-path blame recorder
/// attached: the outcome carries a [`BlameOutcome`] splitting every
/// request's latency into causally attributed waits with a bitwise
/// conservation identity.
pub fn simulate_blamed(cfg: &ServeConfig) -> SimOutcome {
    simulate_with(cfg, &SimOptions { blamed: true, ..SimOptions::default() })
}

/// Runs the simulation on prebuilt service models, with one service
/// phase's latency lever optionally scaled — the what-if engine's
/// counterfactual hook (see [`crate::blame`]). `services` are the
/// fleet's distinct models as [`ServeConfig::service_models`] builds
/// them; the run scales a clone, so one build serves a whole menu of
/// interventions. The scaling is applied to the models, not the
/// configuration, so intervention runs never perturb config
/// serialization; `scale = None` is exactly [`simulate`].
///
/// # Panics
///
/// Panics if `services` are not the models of `cfg`'s fleet, or on
/// invalid configuration (see [`simulate_with`]).
pub(crate) fn simulate_scaled(
    cfg: &ServeConfig,
    services: &[ServiceModel],
    scale: Option<(ServicePhase, f64)>,
) -> ServeReport {
    let mut sim = Sim::new(cfg, Some(services.to_vec()), &SimOptions::default());
    if let Some((phase, factor)) = scale {
        for s in &mut sim.services {
            s.scale_phase(phase, factor);
        }
    }
    sim.run().report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelKind;

    #[test]
    fn conservation_no_request_lost() {
        let cfg = ServeConfig::example();
        let r = simulate(&cfg);
        assert!(r.arrivals > 0);
        assert_eq!(r.arrivals, r.completed + r.rejected + r.expired);
        assert_eq!(r.completed, r.good + r.late);
    }

    #[test]
    fn same_seed_bitwise_identical() {
        let cfg = ServeConfig::example();
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a, b);
        let mut other = cfg;
        other.seed ^= 1;
        assert_ne!(simulate(&other), a);
    }

    #[test]
    fn arrivals_win_time_ties_against_loop_events() {
        // Arrivals, a window timer and a completion stamped with one
        // time: the arrivals pop first, in trace order — the order of a
        // heap holding the whole trace ahead of every loop-created event,
        // which is the order the goldens record.
        let cfg = ServeConfig::example();
        let class = cfg.mix.classes()[0];
        let t = 1_000.0;
        let mut sim = Sim::new(&cfg, None, &SimOptions::default());
        sim.open_loop =
            (0..2).map(|id| Request { id, class, arrive_ns: t, client: None }).collect();
        sim.event_seq = 2;
        sim.push_event(t, EventKind::WindowExpire(class));
        let batch = Batch { class, dispatch_ns: 0.0, latency_ns: 0.0, members: Vec::new() };
        sim.push_event(t, EventKind::InstanceFree { instance: 0, batch });
        sim.push_event(t - 1.0, EventKind::WindowExpire(class));
        let order: Vec<(f64, u64, &str)> = std::iter::from_fn(|| sim.pop_event())
            .map(|e| {
                let kind = match e.kind {
                    EventKind::Arrive(_) => "arrive",
                    EventKind::WindowExpire(_) => "window",
                    EventKind::InstanceFree { .. } => "free",
                    EventKind::ScaleCheck => "scale",
                };
                (e.time, e.seq, kind)
            })
            .collect();
        assert_eq!(
            order,
            [
                (t - 1.0, 4, "window"),
                (t, 0, "arrive"),
                (t, 1, "arrive"),
                (t, 2, "window"),
                (t, 3, "free")
            ]
        );
    }

    #[test]
    fn traced_run_matches_untraced_report() {
        let cfg = ServeConfig::example();
        let plain = simulate(&cfg);
        let traced = simulate_with(&cfg, &SimOptions { traced: true, ..SimOptions::default() });
        assert_eq!(plain, traced.report);
        assert_eq!(traced.records.len() as u64, plain.completed);
        let trace = traced.trace.expect("trace requested");
        // Conservation: one root span per arrival, one invocation span
        // per batch; every tree satisfies the span invariants.
        assert_eq!(trace.requests.len() as u64, plain.arrivals);
        assert_eq!(trace.batches.len() as u64, plain.batches);
        assert_eq!(trace.makespan_ns, plain.makespan_ns);
        trace.validate().expect("all span trees valid");
        assert!(!trace.samples.is_empty());
    }

    #[test]
    fn per_class_breakdown_sums_to_totals() {
        use crate::arrival::WorkloadMix;
        let mut cfg = ServeConfig::example();
        cfg.mix = WorkloadMix::new(vec![
            (RequestClass::new(ModelKind::Tiny, 16), 0.7),
            (RequestClass::new(ModelKind::Tiny, 32), 0.3),
        ]);
        let r = simulate(&cfg);
        assert_eq!(r.per_class.len(), 2);
        let sum =
            |f: fn(&crate::slo::ClassSloReport) -> u64| -> u64 { r.per_class.iter().map(f).sum() };
        assert_eq!(sum(|c| c.arrivals), r.arrivals);
        assert_eq!(sum(|c| c.completed), r.completed);
        assert_eq!(sum(|c| c.good), r.good);
        assert_eq!(sum(|c| c.late), r.late);
        assert_eq!(sum(|c| c.rejected), r.rejected);
        assert_eq!(sum(|c| c.expired), r.expired);
        // Classes are reported in class order and goodput splits too.
        assert!(r.per_class[0].class < r.per_class[1].class);
        let goodput: f64 = r.per_class.iter().map(|c| c.goodput_rps).sum();
        assert!((goodput - r.goodput_rps).abs() < 1e-6 * r.goodput_rps.max(1.0));
    }

    #[test]
    fn utilization_and_latency_sane() {
        let cfg = ServeConfig::example();
        let r = simulate(&cfg);
        assert_eq!(r.utilization.len(), cfg.fleet);
        for u in &r.utilization {
            assert!((0.0..=1.0 + 1e-9).contains(u), "{u}");
        }
        // Latency can never beat the batch-of-one service floor.
        let model = ServiceModel::new(cfg.service.clone(), &cfg.mix.classes());
        let floor_ms = model.unit_latency_ns(RequestClass::new(ModelKind::Tiny, 16)) / 1e6;
        assert!(r.latency.p50_ms >= floor_ms * 0.999, "{} < {floor_ms}", r.latency.p50_ms);
        assert!(r.latency.max_ms >= r.latency.p99_ms);
        assert!(r.latency.p99_ms >= r.latency.p50_ms);
    }

    #[test]
    fn closed_loop_bounds_outstanding_requests() {
        let clients = 5;
        let mut cfg = ServeConfig::example();
        cfg.arrival = ArrivalProcess::closed_loop(clients, 50_000.0);
        let r = simulate(&cfg);
        assert!(r.completed > 0);
        assert!(r.max_in_system <= clients as u64, "{}", r.max_in_system);
        assert_eq!(r.arrivals, r.completed + r.rejected + r.expired);
    }

    #[test]
    fn tiny_queue_rejects_under_overload() {
        let mut cfg = ServeConfig::example();
        cfg.max_queue = 2;
        cfg.fleet = 1;
        cfg.arrival = ArrivalProcess::poisson(200_000.0);
        let r = simulate(&cfg);
        assert!(r.rejected > 0, "overload must trip admission control");
        assert_eq!(r.arrivals, r.completed + r.rejected + r.expired);
    }

    #[test]
    fn batching_beats_baseline_at_saturation() {
        // Fleet-2 capacity for the example's Tiny class: ~74 krps at
        // batch 1, ~215 krps at batch 8 — 120 krps saturates the
        // baseline but not the batcher.
        let mut batched = ServeConfig::example();
        batched.arrival = ArrivalProcess::poisson(120_000.0);
        batched.policy = BatchPolicy::new(8, 100_000.0);
        batched.max_queue = 512;
        let mut baseline = batched.clone();
        baseline.policy = BatchPolicy::no_batching();
        let rb = simulate(&batched);
        let r1 = simulate(&baseline);
        assert!(rb.mean_batch_size > 1.0, "{}", rb.mean_batch_size);
        assert!(
            rb.goodput_rps > r1.goodput_rps,
            "batched {} vs baseline {}",
            rb.goodput_rps,
            r1.goodput_rps
        );
    }

    #[test]
    fn mmpp_burst_traffic_runs() {
        let mut cfg = ServeConfig::example();
        cfg.arrival = ArrivalProcess::mmpp(5_000.0, 80_000.0, 1e6, 5e5);
        let r = simulate(&cfg);
        assert!(r.arrivals > 0);
        assert_eq!(r.arrivals, r.completed + r.rejected + r.expired);
    }

    #[test]
    fn telemetry_records_request_lifecycle() {
        // The overloaded point rejects, expires and completes late, so
        // every counter of the per-run table is exercised.
        let mut overloaded = ServeConfig::example();
        overloaded.arrival = ArrivalProcess::poisson(400_000.0);
        overloaded.max_queue = 64;
        overloaded.deadline_ns = 1.2e5;
        for (cfg, overloaded) in [(ServeConfig::example(), false), (overloaded, true)] {
            let (r, snap) = star_telemetry::with_scoped(|| simulate(&cfg));
            assert!(!overloaded || (r.rejected > 0 && r.expired > 0 && r.late > 0), "{r:?}");
            let counts = [
                ("serve.requests.arrived", r.arrivals),
                ("serve.requests.rejected", r.rejected),
                ("serve.requests.admitted", r.arrivals - r.rejected),
                ("serve.requests.expired", r.expired),
                ("serve.requests.completed", r.completed),
                ("serve.requests.late", r.late),
                ("serve.batches.dispatched", r.batches),
            ];
            // Each counter exists iff something was counted into it.
            for (name, n) in counts {
                assert_eq!(snap.counters.get(name), (n > 0).then_some(&n), "{name}");
            }
            let serve_counters = snap.counters.keys().filter(|k| k.starts_with("serve."));
            assert_eq!(serve_counters.count(), counts.iter().filter(|(_, n)| *n > 0).count());
            assert_eq!(snap.histograms["serve.latency_us"].total, r.completed);
            assert!(snap.gauges["serve.energy.total_pj"] > 0.0);
        }
    }

    #[test]
    fn tel_sink_folds_counters_once_and_keeps_zero_counts() {
        let (ops, snap) = star_telemetry::with_scoped(|| {
            let mut tel = TelSink::new(true);
            tel.count("t.zero", 0);
            tel.count("t.sum", 2);
            tel.count("t.sum", 3);
            // Nothing reaches the registry before the flush.
            assert!(star_telemetry::snapshot().is_empty());
            tel.flush();
            tel.ops
        });
        // One logical recording per call, as `telemetry_ops` counts them.
        assert_eq!(ops, 3);
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.counters["t.zero"], 0);
        assert_eq!(snap.counters["t.sum"], 5);
    }

    #[test]
    #[should_panic(expected = "do not match")]
    fn scaled_run_rejects_another_fleets_models() {
        let cfg = ServeConfig::example();
        let mut q35 = cfg.clone();
        q35.service.format = (3, 5);
        let _ = simulate_scaled(&q35, &cfg.service_models(), None);
    }

    #[test]
    #[should_panic(expected = "fleet")]
    fn zero_fleet_rejected() {
        let mut cfg = ServeConfig::example();
        cfg.fleet = 0;
        let _ = simulate(&cfg);
    }

    #[test]
    fn health_monitoring_is_observation_only() {
        let cfg = ServeConfig::example();
        let plain = simulate(&cfg);
        let monitored = simulate_with(
            &cfg,
            &SimOptions { health: Some(HealthConfig::default()), ..SimOptions::default() },
        );
        // The acceptance invariant: the monitor never perturbs the
        // simulation — bitwise-equal reports.
        assert_eq!(plain, monitored.report);
        let health = monitored.health.expect("health requested");
        assert_eq!(health.instances.len(), cfg.fleet);

        // Ledger accounting identities against the event loop's own
        // counters: ledger invocations/requests == dispatched batches /
        // completed requests, and busy time reconciles with the
        // utilization vector.
        let inv: u64 = health.instances.iter().map(|i| i.ledger.invocations).sum();
        let req: u64 = health.instances.iter().map(|i| i.ledger.requests).sum();
        assert_eq!(inv, plain.batches);
        assert_eq!(req, plain.completed);
        for (i, u) in plain.utilization.iter().enumerate() {
            let ledger_busy = health.instances[i].ledger.busy_ns;
            assert!(
                (ledger_busy - u * plain.makespan_ns).abs() <= 1e-6 * ledger_busy.max(1.0),
                "instance {i}"
            );
        }
        let energy: f64 = health.instances.iter().map(|i| i.ledger.energy_pj).sum();
        assert!((energy - plain.total_energy_pj).abs() <= 1e-9 * energy.max(1.0));

        // The per-op accounting identity: ledger ops equal costed
        // invocations × ops/invocation, summed over the trace's batches.
        let traced = simulate_with(
            &cfg,
            &SimOptions {
                traced: true,
                health: Some(HealthConfig::default()),
                ..SimOptions::default()
            },
        );
        let trace = traced.trace.expect("trace requested");
        let health = traced.health.expect("health requested");
        let mut expected = 0u64;
        for b in &trace.batches {
            expected += crate::health::invocation_wear(b.class, b.size).cam_searches;
        }
        let cam: u64 = health.instances.iter().map(|i| i.ledger.cam_searches).sum();
        assert_eq!(cam, expected, "ledger writes == costed invocations x writes/invocation");
        assert!(!trace.health.is_empty(), "trace carries the health timeseries");
        assert_eq!(traced.report, plain, "traced + monitored still bitwise equal");
    }

    #[test]
    fn profiled_run_matches_unprofiled_report() {
        let cfg = ServeConfig::example();
        let plain = simulate(&cfg);
        let profiled = simulate_profiled(&cfg);
        assert_eq!(plain, profiled.report, "profiling never perturbs the simulation");
        let p = profiled.profile.expect("profile requested");

        // Work-counter accounting identities against the report.
        let w = &p.work;
        assert_eq!(w.events_arrive, plain.arrivals);
        assert_eq!(w.batches_formed, plain.batches);
        assert_eq!(w.batch_members, plain.completed);
        assert_eq!(w.expired_drops, plain.expired);
        assert_eq!(
            w.events_total,
            w.events_arrive
                + w.events_window_expire
                + w.events_instance_free
                + w.events_scale_check
        );
        assert_eq!(w.events_scale_check, 0, "no autoscaler configured");
        assert_eq!(w.dispatch_scans_fifo, w.dispatch_scans, "FIFO default owns every scan");
        assert_eq!(w.dispatch_scans_wfq + w.dispatch_scans_edf, 0);
        assert_eq!(w.events_instance_free, plain.batches, "one free event per invocation");
        assert_eq!(w.heap_pushes, w.heap_pops, "the heap drains completely");
        assert_eq!(w.heap_pushes, w.events_total - w.events_arrive, "arrivals bypass the heap");
        assert!(w.heap_peak <= (cfg.fleet + 1) as u64, "one completion per instance + a timer");
        assert_eq!(w.queue_depth_hist.total(), w.events_total);
        assert_eq!(w.backlog_hist.total(), w.events_total);
        assert!(w.heap_peak > 0);
        assert!(w.dispatch_rounds > 0);
        assert!(w.dispatch_scans >= w.batches_formed);
        assert!(w.telemetry_ops > 0);

        // Wall-clock attribution: machine-dependent values, but the call
        // counts are deterministic consequences of the event counts.
        assert_eq!(p.wall.stats(phase::ARRIVE).calls, w.events_arrive);
        assert_eq!(p.wall.stats(phase::INSTANCE_FREE).calls, w.events_instance_free);
        assert_eq!(p.wall.stats(phase::SAMPLE_HOOKS).calls, w.events_total);
        assert_eq!(p.wall.stats(phase::DISPATCH).calls, w.dispatch_rounds);
        assert_eq!(p.wall.stats(phase::BATCH_COST).calls, w.batches_formed);
        assert_eq!(p.wall.stats(phase::FINALIZE).calls, 1);
        assert_eq!(p.wall.stats(phase::OBSERVE).calls, 0, "no observer attached");
        assert!(p.wall_total_ns > 0);
        assert!(p.events_per_sec() > 0.0);
    }

    #[test]
    fn profiled_work_counters_replay_bitwise() {
        let cfg = ServeConfig::example();
        let a = simulate_profiled(&cfg);
        let b = simulate_profiled(&cfg);
        let (wa, wb) = (a.profile.expect("profile").work, b.profile.expect("profile").work);
        assert_eq!(wa, wb, "work counters are deterministic");
    }

    #[test]
    fn profiled_with_composes_with_trace_and_health() {
        let cfg = ServeConfig::example();
        let plain = simulate(&cfg);
        let full = simulate_with(
            &cfg,
            &SimOptions {
                traced: true,
                health: Some(HealthConfig::default()),
                profiled: true,
                ..SimOptions::default()
            },
        );
        assert_eq!(plain, full.report, "all three observers attached, still bitwise equal");
        let p = full.profile.expect("profile requested");
        // One observer call per dispatch, per finished batch and per
        // request terminal (every arrival reaches exactly one).
        let w = &p.work;
        let hooks = w.batches_formed + w.events_instance_free + plain.arrivals;
        assert_eq!(p.wall.stats(phase::OBSERVE).calls, hooks);
        // The work counters do not depend on which observers ride along.
        let solo = simulate_profiled(&cfg).profile.expect("profile");
        assert_eq!(p.work, solo.work);
        assert!(full.trace.is_some());
        assert!(full.health.is_some());
    }

    #[test]
    fn round_robin_placement_cycles_the_idle_set() {
        let mut cfg = ServeConfig::example();
        cfg.fleet = 3;
        cfg.control.placement = PlacementPolicy::RoundRobin;
        let class = cfg.mix.classes()[0];
        let mut sim = Sim::new(&cfg, None, &SimOptions::default());
        let picks: Vec<usize> = (0..6).map(|_| sim.place_instance(class, 1)).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2]);
        // A hole in the idle set is skipped, wrapping correctly.
        sim.idle.remove(&1);
        let picks: Vec<usize> = (0..4).map(|_| sim.place_instance(class, 1)).collect();
        assert_eq!(picks, [0, 2, 0, 2]);
    }

    #[test]
    fn round_robin_placement_reduces_ledger_skew() {
        // Light load on a wide fleet: lowest-index placement starves the
        // high instances, round-robin spreads the work.
        let mut cfg = ServeConfig::example();
        cfg.fleet = 4;
        cfg.arrival = ArrivalProcess::poisson(5_000.0);
        let monitored = |cfg: &ServeConfig| {
            let health = Some(HealthConfig::default());
            simulate_with(cfg, &SimOptions { health, ..SimOptions::default() })
        };
        let off = monitored(&cfg);
        cfg.control.placement = PlacementPolicy::RoundRobin;
        let on = monitored(&cfg);
        let (off_h, on_h) = (off.health.expect("health"), on.health.expect("health"));
        assert!(off_h.wear_skew > on_h.wear_skew, "{} vs {}", off_h.wear_skew, on_h.wear_skew);
        // Placement changes *which* instance runs a batch, never the
        // batching or timing decisions: identical totals and latency.
        let rows = |h: &crate::health::FleetHealthReport| -> u64 {
            h.instances.iter().map(|i| i.ledger.rows).sum()
        };
        assert_eq!(rows(&off_h), rows(&on_h));
        assert_eq!(off.report.completed, on.report.completed);
        assert_eq!(off.report.latency, on.report.latency);
        assert_eq!(off.report.goodput_rps, on.report.goodput_rps);
    }

    #[test]
    fn monitored_telemetry_publishes_health_gauges() {
        let cfg = ServeConfig::example();
        let opts = SimOptions { health: Some(HealthConfig::default()), ..SimOptions::default() };
        let (outcome, snap) = star_telemetry::with_scoped(|| simulate_with(&cfg, &opts));
        let health = outcome.health.expect("health");
        for i in 0..cfg.fleet {
            let reads = snap.gauges[&format!("serve.health.i{i}.reads")];
            assert_eq!(reads, health.instances[i].ledger.reads() as f64);
            assert!(snap.gauges.contains_key(&format!("serve.health.i{i}.temperature_k")));
            assert!(snap.gauges.contains_key(&format!("serve.health.i{i}.accuracy_margin")));
        }
        assert_eq!(snap.gauges["serve.health.wear_skew"], health.wear_skew);
    }

    #[test]
    fn flight_composes_with_all_observers() {
        let cfg = ServeConfig::example();
        let plain = simulate(&cfg);
        let observed = SimOptions {
            traced: true,
            health: Some(HealthConfig::default()),
            ..SimOptions::default()
        };
        let full = simulate_with(
            &cfg,
            &SimOptions {
                profiled: true,
                flight: Some(FlightConfig::default()),
                blamed: true,
                ..observed.clone()
            },
        );
        assert_eq!(plain, full.report, "all four observers attached, still bitwise equal");
        // The work counters do not depend on which observers ride along
        // (flight on_event runs inside SAMPLE_HOOKS, not a new phase).
        let solo = simulate_profiled(&cfg).profile.expect("profile");
        let p = full.profile.expect("profile requested");
        assert_eq!(p.work, solo.work);
        assert!(full.trace.is_some());
        assert!(full.health.is_some());
        // The trace bytes equal a flight-off run's with the same
        // observers attached.
        let traced = simulate_with(&cfg, &observed).trace.expect("trace");
        let full_trace = full.trace.expect("trace");
        assert_eq!(
            serde_json::to_string(&full_trace.to_object_json()).expect("trace json"),
            serde_json::to_string(&traced.to_object_json()).expect("trace json"),
        );
        // Flight outcome itself replays bitwise.
        let flight_only =
            SimOptions { flight: Some(FlightConfig::default()), ..SimOptions::default() };
        let again = simulate_with(&cfg, &flight_only).flight.expect("flight");
        assert_eq!(full.flight.expect("flight"), again);
    }

    #[test]
    fn flight_health_trigger_fires_on_the_alarm_event() {
        // Health samples each event before flight reads the alarm count,
        // so the trigger lands on the event whose sample raised the
        // first alarm (ambient 300 K is already past 299 K), not later.
        let health = HealthConfig { max_temperature_kelvin: 299.0, ..HealthConfig::default() };
        let flight = FlightConfig {
            burn: None,
            expiry_burst: None,
            queue_depth_threshold: None,
            ..FlightConfig::default()
        };
        let opts =
            SimOptions { health: Some(health), flight: Some(flight), ..SimOptions::default() };
        let out = simulate_with(&ServeConfig::example(), &opts);
        let first_alarm = out.health.expect("health requested").alarms[0].t_ns;
        let flight = out.flight.expect("flight requested");
        let incident = flight.incidents.first().expect("the health alarm trigger fired");
        let trigger = &incident.triggers[0];
        assert_eq!((trigger.kind, trigger.t_ns), (crate::TriggerKind::HealthAlarm, first_alarm));
    }

    #[test]
    fn flight_triggers_fire_under_overload() {
        // The tiny-queue overload config floods a 1-instance fleet, so
        // the default triggers (queue depth, burn, expiry burst) all
        // have material to fire on.
        let cfg = ServeConfig {
            fleet: 1,
            arrival: ArrivalProcess::poisson(120_000.0),
            max_queue: 16,
            deadline_ns: 1e6,
            ..ServeConfig::example()
        };
        let fc = FlightConfig { queue_depth_threshold: Some(8), ..FlightConfig::default() };
        let out = simulate_with(&cfg, &SimOptions { flight: Some(fc), ..SimOptions::default() });
        let flight = out.flight.expect("flight requested");
        assert!(flight.triggers_fired > 0, "overload must trip a trigger");
        assert_eq!(flight.incidents.len(), 1, "one incident budgeted");
        let dump = &flight.incidents[0];
        assert!(!dump.triggers.is_empty());
        assert!(dump.window_start_ns <= dump.triggers[0].t_ns);
        assert!(dump.triggers[0].t_ns <= dump.window_end_ns);
        // The report's waterfall reconciles: components sum to total.
        let w = &dump.report.waterfall;
        if w.completed > 0 {
            assert!(
                (w.component_sum_ms() - w.total_ms).abs() <= 1e-6 * w.total_ms.max(1e-9),
                "waterfall components sum to total latency"
            );
        }
        // Per-class terminals in the window never exceed the run totals.
        let good: u64 = dump.report.per_class.iter().map(|c| c.good).sum();
        let rejected: u64 = dump.report.per_class.iter().map(|c| c.rejected).sum();
        assert!(good <= out.report.good);
        assert!(rejected <= out.report.rejected);
    }
}
