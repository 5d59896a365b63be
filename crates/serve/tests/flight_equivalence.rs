//! Flight-recorder differential suite: the proof that the incident
//! recorder is **invisible** and its dumps are **reproducible**.
//!
//! Two contracts, both byte-level:
//!
//! 1. *No perturbation*: with the recorder attached, the `ServeReport`,
//!    lifecycle records, serialized trace JSON, and scoped-telemetry
//!    snapshot are bitwise identical to the recorder-off run — the
//!    recorder consumes zero RNG draws and performs no event arithmetic.
//! 2. *Reproducible dumps*: the serialized incident dump (trigger
//!    records, captured window, root-cause report) is byte-identical
//!    across `STAR_SERVE_SHARDS` {1, 8}, run inline or on `star-exec`
//!    workers {1, 8} — an incident captured in production is
//!    bit-replayable on any topology.
//!
//! The config gallery reuses the shard-equivalence stress shapes: the
//! saturating mix exercises every terminal path (good, late, expired,
//! rejected) so the burn-rate and expiry-burst triggers have material to
//! fire on, and the closed-loop config covers in-loop arrival pushes.

use proptest::prelude::*;
use star_exec::Executor;
use star_serve::{
    simulate_flight, simulate_full, ArrivalProcess, BatchPolicy, ControlConfig, FlightConfig,
    HealthConfig, ModelKind, RequestClass, ServeConfig, ServiceModelConfig, SimOutcome,
    WorkloadMix,
};

/// Saturating mixed workload on one instance (the shard-equivalence
/// stress shape): completions, expirations, and rejections all occur.
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

/// Closed-loop clients: arrivals generated during the run.
fn closed_loop_config() -> ServeConfig {
    let mut cfg = ServeConfig::example();
    cfg.arrival = ArrivalProcess::closed_loop(24, 250_000.0);
    cfg.horizon_ns = 2e7;
    cfg.seed = 5;
    cfg
}

fn configs() -> Vec<(&'static str, ServeConfig)> {
    vec![
        ("example", ServeConfig::example()),
        ("stress", stress_config()),
        ("closed_loop", closed_loop_config()),
    ]
}

/// A trigger config guaranteed to fire on the stress shape: the queue
/// depth threshold sits inside the 16-slot admission bound, and the
/// default burn / expiry-burst triggers see the saturating mix.
fn flight_config() -> FlightConfig {
    FlightConfig { queue_depth_threshold: Some(8), ..FlightConfig::default() }
}

/// Serializes a run's incident dumps (the byte-comparison surface).
fn dump_bytes(outcome: &SimOutcome) -> Vec<String> {
    outcome
        .flight
        .as_ref()
        .expect("flight requested")
        .incidents
        .iter()
        .map(|d| serde_json::to_string(&d.to_object_json()).expect("serialize"))
        .collect()
}

fn trace_bytes(outcome: &SimOutcome) -> String {
    serde_json::to_string(&outcome.trace.as_ref().expect("trace").to_object_json())
        .expect("serialize")
}

#[test]
fn recorder_output_is_bitwise_invisible_across_the_gallery() {
    let fc = flight_config();
    let health = HealthConfig::default();
    for (name, cfg) in configs() {
        for shards in [1usize, 8] {
            let off = simulate_full(&cfg, shards, true, Some(&health), false, None, false);
            let on = simulate_full(&cfg, shards, true, Some(&health), false, Some(&fc), false);
            assert_eq!(off.report, on.report, "{name} @ {shards} shards: report diverged");
            assert_eq!(off.records, on.records, "{name} @ {shards} shards: records diverged");
            assert_eq!(
                trace_bytes(&off),
                trace_bytes(&on),
                "{name} @ {shards} shards: trace bytes diverged"
            );
            assert_eq!(off.health, on.health, "{name} @ {shards} shards: health diverged");
            assert!(off.flight.is_none());
            assert!(on.flight.is_some());
        }
    }
}

#[test]
fn recorder_never_perturbs_telemetry_bytes() {
    let fc = flight_config();
    let cfg = stress_config();
    let (_, off) =
        star_telemetry::with_scoped(|| simulate_full(&cfg, 1, false, None, false, None, false));
    let off_json = serde_json::to_string(&off.to_json()).expect("serialize");
    for shards in [1usize, 8] {
        let (_, on) = star_telemetry::with_scoped(|| {
            simulate_full(&cfg, shards, false, None, false, Some(&fc), false)
        });
        let on_json = serde_json::to_string(&on.to_json()).expect("serialize");
        assert_eq!(off_json, on_json, "telemetry bytes diverged at {shards} shards");
    }
}

#[test]
fn incident_dumps_are_byte_identical_across_shard_and_thread_grids() {
    let fc = flight_config();
    let gallery = configs();
    let dumps = |cfg: &ServeConfig, shards: usize| {
        dump_bytes(&simulate_full(cfg, shards, false, None, false, Some(&fc), false))
    };
    let inline: Vec<Vec<String>> = gallery.iter().map(|(_, cfg)| dumps(cfg, 1)).collect();
    for ((name, _), want) in gallery.iter().zip(&inline) {
        if *name == "stress" {
            assert!(!want.is_empty(), "{name}: the stress shape must produce an incident");
        }
    }
    for shards in [1usize, 8] {
        for threads in [1usize, 8] {
            let runs = Executor::new(threads).par_map(&gallery, |_, (_, cfg)| dumps(cfg, shards));
            for (((name, _), want), got) in gallery.iter().zip(&inline).zip(&runs) {
                assert_eq!(
                    want, got,
                    "{name} @ {shards} shards x {threads} threads: dump bytes diverged"
                );
            }
        }
    }
}

#[test]
fn flight_outcome_counters_are_grid_invariant() {
    let fc = flight_config();
    let cfg = stress_config();
    let flight = |shards: usize| {
        simulate_full(&cfg, shards, false, None, false, Some(&fc), false).flight.expect("flight")
    };
    let baseline = flight(1);
    assert_eq!(
        baseline.events_seen,
        baseline.events_retained + baseline.events_evicted,
        "event-ring conservation"
    );
    assert_eq!(
        baseline.terminals_seen,
        baseline.terminals_retained + baseline.terminals_evicted,
        "terminal-ring conservation"
    );
    for threads in [1usize, 8] {
        let runs = Executor::new(threads).par_map(&[8usize], |_, &shards| flight(shards));
        assert_eq!(baseline, runs[0], "@ 8 shards x {threads} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random operating points: recorder-on reports equal recorder-off
    /// bitwise, and dumps stay byte-identical across the shard grid.
    #[test]
    fn random_grids_keep_the_recorder_invisible(
        seed in any::<u64>(),
        rate in 20_000.0f64..120_000.0,
        shards in 2usize..9,
    ) {
        let mut cfg = stress_config();
        cfg.seed = seed;
        cfg.arrival = ArrivalProcess::poisson(rate);
        let fc = flight_config();
        let off = simulate_full(&cfg, 1, false, None, false, None, false);
        let on = simulate_full(&cfg, 1, false, None, false, Some(&fc), false);
        prop_assert_eq!(&off.report, &on.report);
        prop_assert_eq!(&off.records, &on.records);
        let sharded = simulate_full(&cfg, shards, false, None, false, Some(&fc), false);
        prop_assert_eq!(&on.report, &sharded.report);
        prop_assert_eq!(dump_bytes(&on), dump_bytes(&sharded));
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
        let out = simulate_flight(&cfg, &FlightConfig::default());
        let flight = out.flight.expect("flight");
        prop_assert_eq!(
            flight.terminals_seen,
            out.report.completed + out.report.rejected + out.report.expired
        );
        prop_assert_eq!(flight.events_seen, flight.events_retained + flight.events_evicted);
    }
}
