//! Observer differential suite: the proof that every observer is
//! **invisible** and that what it records is **reproducible**.
//!
//! A serving run can carry five observers — trace, health, profile,
//! flight and blame, chosen by a [`SimOptions`]. None may change an
//! output byte, and each one's own output must replay byte for byte on
//! any `star-exec` worker. One config gallery drives every check:
//!
//! - every observer on vs off: report, lifecycle records, serialized
//!   trace bytes, health report and control report are bitwise equal;
//! - the flight recorder never perturbs the scoped-telemetry bytes;
//! - `par_map` on {1, 8} workers reproduces the inline runs for the
//!   fully observed, flight-dump and blame-table outputs;
//! - conservation: heap push/pop balance, the event-kind partition, the
//!   open-loop heap bound, flight ring and terminal-row conservation,
//!   and blame's bitwise recomposition and chain structure;
//! - the what-if identity intervention reproduces its baseline bitwise;
//! - proptests over random operating points for each of the above.

use proptest::prelude::*;
use star_exec::Executor;
use star_serve::{
    run_what_ifs, simulate, simulate_with, ArrivalProcess, AutoscaleConfig, BatchPolicy,
    BlameOutcome, ControlConfig, DequeuePolicy, FlightConfig, HealthConfig, ModelKind,
    PlacementPolicy, RequestClass, ServeConfig, ServiceModelConfig, SimOptions, SimOutcome, WhatIf,
    WorkloadMix,
};

/// Saturating mixed workload on one instance: completions (good and
/// late), expirations, and rejections all occur, so every event kind and
/// every terminal path is exercised.
fn stress_config() -> ServeConfig {
    ServeConfig {
        fleet: 1,
        policy: BatchPolicy::new(4, 50_000.0),
        arrival: ArrivalProcess::poisson(120_000.0),
        mix: WorkloadMix::new(vec![
            (RequestClass::new(ModelKind::Tiny, 16), 0.8),
            (RequestClass::new(ModelKind::Tiny, 32), 0.2),
        ]),
        horizon_ns: 2e7,
        seed: 99,
        max_queue: 16,
        deadline_ns: 1e6,
        service: ServiceModelConfig::default(),
        control: ControlConfig::default(),
    }
}

/// Bursty modulated arrivals: high/low dwell phases stress the
/// window-expire path.
fn mmpp_config() -> ServeConfig {
    let mut cfg = ServeConfig::example();
    cfg.arrival = ArrivalProcess::mmpp(4_000.0, 60_000.0, 2e6, 1e6);
    cfg.seed = 17;
    cfg
}

/// Closed-loop clients: arrivals are generated *during* the run (each
/// completion re-arms a client), so the arrival cursor stays empty and
/// the heap carries every arrival.
fn closed_loop_config() -> ServeConfig {
    let mut cfg = ServeConfig::example();
    cfg.arrival = ArrivalProcess::closed_loop(24, 250_000.0);
    cfg.horizon_ns = 2e7;
    cfg.seed = 5;
    cfg
}

/// Weighted-fair dequeue + the deterministic autoscaler + least-loaded
/// placement over the saturating stress mix: `ScaleCheck` events, the
/// WFQ virtual-time re-keying, and load-aware placement.
fn wfq_autoscale_config() -> ServeConfig {
    let mut cfg = stress_config();
    cfg.fleet = 2;
    cfg.control = ControlConfig {
        dequeue: DequeuePolicy::weighted_fair(vec![
            (RequestClass::new(ModelKind::Tiny, 16), 3.0),
            (RequestClass::new(ModelKind::Tiny, 32), 1.0),
        ]),
        placement: PlacementPolicy::LeastLoaded,
        autoscale: Some(AutoscaleConfig::new(1, 4)),
        instance_services: Vec::new(),
    };
    cfg
}

/// Earliest-deadline-first over a heterogeneous q5.3/q3.5 fleet with
/// energy-greedy placement on the bursty MMPP arrivals: per-class
/// deadline keys and per-instance cost sheets.
fn edf_hetero_config() -> ServeConfig {
    let mut cfg = mmpp_config();
    let q35 = ServiceModelConfig { format: (3, 5), ..ServiceModelConfig::default() };
    cfg.control = ControlConfig {
        dequeue: DequeuePolicy::earliest_deadline(vec![(
            RequestClass::new(ModelKind::Tiny, 16),
            5e5,
        )]),
        placement: PlacementPolicy::EnergyGreedy,
        autoscale: None,
        instance_services: vec![ServiceModelConfig::default(), q35],
    };
    cfg
}

/// One gallery row: a named config.
struct Case {
    name: &'static str,
    cfg: ServeConfig,
}

impl Case {
    fn run(&self, opts: &SimOptions) -> SimOutcome {
        simulate_with(&self.cfg, opts)
    }
}

/// Trace and health attached: the surfaces every other observer is
/// compared on.
fn observed() -> SimOptions {
    SimOptions { traced: true, health: Some(HealthConfig::default()), ..SimOptions::default() }
}

fn gallery() -> Vec<Case> {
    let case = |name, cfg| Case { name, cfg };
    // Round-robin placement over a wide saturated fleet: the wear-leveled
    // row of A9.
    let mut wear_leveled = stress_config();
    wear_leveled.fleet = 4;
    wear_leveled.control.placement = PlacementPolicy::RoundRobin;
    vec![
        case("example", ServeConfig::example()),
        case("stress", stress_config()),
        case("mmpp", mmpp_config()),
        case("closed_loop", closed_loop_config()),
        case("wfq_autoscale", wfq_autoscale_config()),
        case("edf_hetero", edf_hetero_config()),
        case("wear_leveled", wear_leveled),
    ]
}

/// A trigger config guaranteed to fire on the stress shape: the queue
/// depth threshold sits inside the 16-slot admission bound, and the
/// default burn / expiry-burst triggers see the saturating mix.
fn flight_config() -> FlightConfig {
    FlightConfig { queue_depth_threshold: Some(8), ..FlightConfig::default() }
}

fn trace_bytes(outcome: &SimOutcome) -> Option<String> {
    outcome.trace.as_ref().map(|t| serde_json::to_string(&t.to_object_json()).expect("serialize"))
}

/// Serializes a run's incident dumps (the flight byte-comparison surface).
fn dump_bytes(outcome: &SimOutcome) -> Option<Vec<String>> {
    outcome.flight.as_ref().map(|f| {
        f.incidents
            .iter()
            .map(|d| serde_json::to_string(&d.to_object_json()).expect("serialize"))
            .collect()
    })
}

fn blame_bytes(blame: &BlameOutcome) -> String {
    serde_json::to_string(&blame.to_object_json()).expect("serialize")
}

/// Asserts two outcomes are byte-identical on every surface both of
/// them carry. Report, records and control report are always compared;
/// health, work counters, flight outcome and incident dumps, and blame
/// tables are compared whenever both runs attached the observer that
/// produces them. Trace bytes are compared when both runs were traced
/// with the health monitor on in both or in neither, since a monitored
/// trace also carries the fleet-health timeseries.
fn assert_same(label: &str, a: &SimOutcome, b: &SimOutcome) {
    assert_eq!(a.report, b.report, "{label}: ServeReport diverged");
    assert_eq!(a.records, b.records, "{label}: lifecycle records diverged");
    assert_eq!(a.control, b.control, "{label}: control report diverged");
    if a.trace.is_some() && b.trace.is_some() && a.health.is_some() == b.health.is_some() {
        assert_eq!(trace_bytes(a), trace_bytes(b), "{label}: trace bytes diverged");
    }
    if a.health.is_some() && b.health.is_some() {
        assert_eq!(a.health, b.health, "{label}: health report diverged");
    }
    if let (Some(pa), Some(pb)) = (&a.profile, &b.profile) {
        assert_eq!(pa.work, pb.work, "{label}: work counters diverged");
    }
    if a.flight.is_some() && b.flight.is_some() {
        assert_eq!(a.flight, b.flight, "{label}: flight outcome diverged");
        assert_eq!(dump_bytes(a), dump_bytes(b), "{label}: dump bytes diverged");
    }
    if let (Some(ba), Some(bb)) = (&a.blame, &b.blame) {
        assert_eq!(blame_bytes(ba), blame_bytes(bb), "{label}: blame bytes diverged");
    }
}

#[test]
fn every_observer_is_invisible_across_the_gallery() {
    for case in gallery() {
        let observed = observed();
        let reference = case.run(&observed);
        assert!(reference.trace.is_some() && reference.health.is_some());
        assert_eq!(simulate(&case.cfg), reference.report, "{}: plain report", case.name);
        let rows = [
            ("nothing attached", SimOptions::default()),
            ("trace only", SimOptions { traced: true, ..SimOptions::default() }),
            ("health only", SimOptions { traced: false, ..observed.clone() }),
            ("+ profile", SimOptions { profiled: true, ..observed.clone() }),
            ("+ flight", SimOptions { flight: Some(flight_config()), ..observed.clone() }),
            ("+ blame", SimOptions { blamed: true, ..observed.clone() }),
            (
                "+ profile, flight and blame",
                SimOptions {
                    profiled: true,
                    flight: Some(flight_config()),
                    blamed: true,
                    ..observed.clone()
                },
            ),
        ];
        for (label, opts) in rows {
            let on = case.run(&opts);
            assert_eq!(on.profile.is_some(), opts.profiled, "{}: {label}", case.name);
            assert_eq!(on.flight.is_some(), opts.flight.is_some(), "{}: {label}", case.name);
            assert_eq!(on.blame.is_some(), opts.blamed, "{}: {label}", case.name);
            assert_same(&format!("{} with {label}", case.name), &reference, &on);
        }
    }
}

#[test]
fn recorder_never_perturbs_telemetry_bytes() {
    let cfg = stress_config();
    let (_, off) = star_telemetry::with_scoped(|| simulate(&cfg));
    let flight = SimOptions { flight: Some(flight_config()), ..SimOptions::default() };
    let (_, on) = star_telemetry::with_scoped(|| simulate_with(&cfg, &flight));
    let off_json = serde_json::to_string(&off.to_json()).expect("serialize");
    let on_json = serde_json::to_string(&on.to_json()).expect("serialize");
    assert_eq!(off_json, on_json, "telemetry bytes diverged");
}

#[test]
fn worker_count_never_changes_observer_output() {
    // A simulation runs on one thread, but sweeps run many at once on
    // `star-exec` workers. Each output below, run over the gallery on
    // one and on eight workers, must reproduce the inline runs.
    let cases = gallery();
    let outputs = [
        ("fully observed", SimOptions { profiled: true, ..observed() }),
        ("flight dump", SimOptions { flight: Some(flight_config()), ..SimOptions::default() }),
        ("blame table", SimOptions { blamed: true, ..SimOptions::default() }),
    ];
    for (output, opts) in outputs {
        let inline: Vec<SimOutcome> = cases.iter().map(|case| case.run(&opts)).collect();
        for threads in [1usize, 8] {
            let runs = Executor::new(threads).par_map(&cases, |_, case| case.run(&opts));
            for ((case, want), got) in cases.iter().zip(&inline).zip(&runs) {
                assert_same(&format!("{} {output} @ {threads} threads", case.name), want, got);
            }
        }
    }
}

#[test]
fn conservation_holds_across_the_gallery() {
    for case in gallery() {
        let name = case.name;
        let opts = SimOptions {
            profiled: true,
            flight: Some(flight_config()),
            blamed: true,
            ..SimOptions::default()
        };
        let outcome = case.run(&opts);
        let r = &outcome.report;

        // Event loop: every pushed event is popped, and the event-kind
        // partition sums to the total.
        let work = &outcome.profile.as_ref().expect("profile").work;
        assert_eq!(work.heap_pushes, work.heap_pops, "{name}: push/pop imbalance");
        if !matches!(case.cfg.arrival, ArrivalProcess::ClosedLoop(_)) {
            // Open-loop arrivals stay on their cursor, out of the heap.
            let bound =
                case.cfg.control.capacity(case.cfg.fleet) + case.cfg.mix.classes().len() + 1;
            assert!(work.heap_peak <= bound as u64, "{name}: heap peak");
        }
        assert_eq!(
            work.events_total,
            work.events_arrive
                + work.events_window_expire
                + work.events_instance_free
                + work.events_scale_check,
            "{name}: event partition broken"
        );

        // Flight: both rings conserve, and every arrival reaches exactly
        // one terminal row.
        let flight = outcome.flight.as_ref().expect("flight");
        assert_eq!(flight.events_seen, flight.events_retained + flight.events_evicted, "{name}");
        assert_eq!(
            flight.terminals_seen,
            flight.terminals_retained + flight.terminals_evicted,
            "{name}"
        );
        assert_eq!(flight.terminals_seen, r.completed + r.rejected + r.expired, "{name}");
        assert_eq!(flight.events_seen, work.events_total, "{name}");
        if name == "stress" {
            assert!(
                !flight.incidents.is_empty(),
                "{name}: the stress shape must produce an incident"
            );
        }

        // Blame: every request's components recompose to its latency
        // bitwise, the tables agree with the report, and every blocking
        // edge points back to an earlier batch on the same instance.
        let blame = outcome.blame.as_ref().expect("blame");
        assert_eq!(blame.requests.len(), outcome.records.len(), "{name}");
        for (b, rec) in blame.requests.iter().zip(&outcome.records) {
            assert_eq!(b.components_sum(), b.latency_ns, "{name}: req {}", b.id);
            assert_eq!(b.latency_ns, rec.latency_ns(), "{name}: req {}", b.id);
        }
        assert_eq!(blame.report.completed, r.completed, "{name}");
        assert_eq!(blame.report.rejected, r.rejected, "{name}");
        assert_eq!(blame.report.expired, r.expired, "{name}");
        assert_eq!(blame.report.p99_latency_ms, r.latency.p99_ms, "{name}");
        for b in &blame.batches {
            if b.blocker >= 0 {
                let p = &blame.batches[b.blocker as usize];
                assert!(p.id < b.id && p.instance == b.instance, "{name}: batch {}", b.id);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random operating points: attaching flight and blame on top of the
    /// trace and the profiler changes no report, record, trace byte or
    /// work counter, and the observed report equals the plain one.
    /// Failures shrink toward the smallest diverging grid point.
    #[test]
    fn random_grids_keep_every_observer_invisible(
        seed in any::<u64>(),
        rate in 1_000.0f64..80_000.0,
        fleet in 1usize..5,
        max_batch in 1usize..9,
    ) {
        let mut cfg = ServeConfig::example();
        cfg.seed = seed;
        cfg.arrival = ArrivalProcess::poisson(rate);
        cfg.fleet = fleet;
        cfg.policy = BatchPolicy::new(max_batch, 50_000.0);
        let observed = SimOptions { traced: true, profiled: true, ..SimOptions::default() };
        let off = simulate_with(&cfg, &observed);
        let on = simulate_with(
            &cfg,
            &SimOptions { flight: Some(flight_config()), blamed: true, ..observed },
        );
        prop_assert_eq!(&off.report, &simulate(&cfg));
        prop_assert_eq!(&off.report, &on.report);
        prop_assert_eq!(&off.records, &on.records);
        prop_assert_eq!(trace_bytes(&off), trace_bytes(&on));
        prop_assert_eq!(off.profile.expect("profile").work, on.profile.expect("profile").work);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random saturating points: recorder-on reports and records equal
    /// recorder-off bitwise, and the dumps replay byte for byte.
    #[test]
    fn random_grids_keep_the_recorder_invisible(
        seed in any::<u64>(),
        rate in 20_000.0f64..120_000.0,
    ) {
        let mut cfg = stress_config();
        cfg.seed = seed;
        cfg.arrival = ArrivalProcess::poisson(rate);
        let flight = SimOptions { flight: Some(flight_config()), ..SimOptions::default() };
        let off = simulate_with(&cfg, &SimOptions::default());
        let on = simulate_with(&cfg, &flight);
        prop_assert_eq!(&off.report, &on.report);
        prop_assert_eq!(&off.records, &on.records);
        prop_assert_eq!(dump_bytes(&on), dump_bytes(&simulate_with(&cfg, &flight)));
    }

    /// Terminal conservation: every arrival reaches exactly one terminal
    /// row, for any (seed, rate).
    #[test]
    fn terminal_rows_partition_arrivals(
        seed in any::<u64>(),
        rate in 1_000.0f64..120_000.0,
    ) {
        let mut cfg = stress_config();
        cfg.seed = seed;
        cfg.arrival = ArrivalProcess::poisson(rate);
        let out = simulate_with(
            &cfg,
            &SimOptions { flight: Some(FlightConfig::default()), ..SimOptions::default() },
        );
        let flight = out.flight.expect("flight");
        prop_assert_eq!(
            flight.terminals_seen,
            out.report.completed + out.report.rejected + out.report.expired
        );
        prop_assert_eq!(flight.events_seen, flight.events_retained + flight.events_evicted);
    }

    /// Conservation at random operating points: the eight blame
    /// components recompose to the latency bitwise for any (seed, rate,
    /// fleet, batch, window), holds stay inside the window, and the
    /// blamed report equals the plain one.
    #[test]
    fn random_grids_conserve_blame(
        seed in any::<u64>(),
        rate in 1_000.0f64..80_000.0,
        fleet in 1usize..5,
        max_batch in 1usize..9,
        window_us in 0.0f64..200.0,
    ) {
        let mut cfg = ServeConfig::example();
        cfg.seed = seed;
        cfg.arrival = ArrivalProcess::poisson(rate);
        cfg.fleet = fleet;
        cfg.policy = BatchPolicy::new(max_batch, window_us * 1e3);
        let blamed = simulate_with(&cfg, &SimOptions { blamed: true, ..SimOptions::default() });
        for b in &blamed.blame.as_ref().expect("blame").requests {
            prop_assert_eq!(b.components_sum(), b.latency_ns);
            prop_assert!(b.hold_ns <= cfg.policy.window_ns * (1.0 + 1e-12));
            prop_assert!(b.hold_ns >= 0.0 && b.busy_ns >= 0.0);
        }
        prop_assert_eq!(&blamed.report, &simulate(&cfg));
    }

    /// The identity intervention is the what-if engine's determinism
    /// witness: same config, same seed, same bytes — zero deltas.
    #[test]
    fn what_if_identity_is_bitwise_neutral(seed in any::<u64>()) {
        let mut cfg = ServeConfig::example();
        cfg.seed = seed;
        let report = run_what_ifs(&cfg, 1, &[WhatIf::Identity]);
        let id = &report.interventions[0];
        prop_assert_eq!(id.p99_ms, report.baseline.p99_ms);
        prop_assert_eq!(id.goodput_rps, report.baseline.goodput_rps);
        prop_assert_eq!(id.energy_per_request_nj, report.baseline.energy_per_request_nj);
        prop_assert_eq!(id.delta_p99_ms, 0.0);
        prop_assert_eq!(id.delta_goodput_rps, 0.0);
        prop_assert_eq!(id.delta_energy_nj, 0.0);
    }
}
