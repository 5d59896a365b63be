//! Blame differential suite: the proof that critical-path blame is
//! **observation-only** and its tables are deterministic.
//!
//! Three contracts, mirroring `flight_equivalence`:
//!
//! - **No perturbation**: blame-on runs produce bitwise-identical
//!   reports, lifecycle records, and trace JSON bytes to blame-off
//!   runs, across the shard-equivalence config gallery at shard
//!   counts {1, 8}.
//! - **Determinism of the tables themselves**: the serialized
//!   [`BlameOutcome`] is byte-identical across shard counts and
//!   executor worker counts.
//! - **Conservation**: every request's eight blame components
//!   recompose to its end-to-end latency **bitwise** (the Sterbenz
//!   residual discipline), pinned by proptest over random operating
//!   points; and the what-if identity intervention reproduces the
//!   baseline bitwise.

use proptest::prelude::*;
use star_exec::Executor;
use star_serve::{
    run_what_ifs, simulate_blamed_sharded, simulate_full, ArrivalProcess, AutoscaleConfig,
    BatchPolicy, BlameOutcome, ControlConfig, DequeuePolicy, ModelKind, PlacementPolicy,
    RequestClass, ServeConfig, ServiceModelConfig, WhatIf, WorkloadMix,
};

/// Saturating mixed workload on one instance (see `shard_equivalence`).
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

/// Bursty modulated arrivals.
fn mmpp_config() -> ServeConfig {
    let mut cfg = ServeConfig::example();
    cfg.arrival = ArrivalProcess::mmpp(4_000.0, 60_000.0, 2e6, 1e6);
    cfg.seed = 17;
    cfg
}

/// Closed-loop clients: arrivals generated during the run.
fn closed_loop_config() -> ServeConfig {
    let mut cfg = ServeConfig::example();
    cfg.arrival = ArrivalProcess::closed_loop(24, 250_000.0);
    cfg.horizon_ns = 2e7;
    cfg.seed = 5;
    cfg
}

/// WFQ dequeue + autoscaler + least-loaded placement.
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

/// EDF over a heterogeneous q5.3/q3.5 fleet with energy-greedy
/// placement.
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

fn configs() -> Vec<(&'static str, ServeConfig)> {
    vec![
        ("example", ServeConfig::example()),
        ("stress", stress_config()),
        ("mmpp", mmpp_config()),
        ("closed_loop", closed_loop_config()),
        ("wfq_autoscale", wfq_autoscale_config()),
        ("edf_hetero", edf_hetero_config()),
    ]
}

fn trace_bytes(outcome: &star_serve::SimOutcome) -> String {
    serde_json::to_string(&outcome.trace.as_ref().expect("trace").to_object_json())
        .expect("serialize")
}

fn blame_bytes(blame: &BlameOutcome) -> String {
    serde_json::to_string(&blame.to_object_json()).expect("serialize")
}

#[test]
fn blame_never_perturbs_report_trace_or_records() {
    for (name, cfg) in configs() {
        for shards in [1usize, 8] {
            let off = simulate_full(&cfg, shards, true, None, false, None, false);
            let on = simulate_full(&cfg, shards, true, None, false, None, true);
            assert_eq!(off.report, on.report, "{name} @ {shards}: report diverged");
            assert_eq!(off.records, on.records, "{name} @ {shards}: records diverged");
            assert_eq!(
                trace_bytes(&off),
                trace_bytes(&on),
                "{name} @ {shards}: trace bytes diverged"
            );
            assert!(off.blame.is_none() && on.blame.is_some());
        }
    }
}

#[test]
fn blame_tables_are_bitwise_shard_invariant() {
    for (name, cfg) in configs() {
        let serial = blame_bytes(simulate_blamed_sharded(&cfg, 1).blame.as_ref().expect("blame"));
        for shards in [2usize, 4, 8, 64] {
            let sharded =
                blame_bytes(simulate_blamed_sharded(&cfg, shards).blame.as_ref().expect("blame"));
            assert_eq!(serial, sharded, "{name} @ {shards}: blame bytes diverged");
        }
    }
}

#[test]
fn blame_tables_are_worker_count_invariant() {
    // The gallery's blamed runs on one and on eight `star-exec` workers
    // must reproduce the inline runs byte for byte.
    let gallery = configs();
    let blamed = |cfg: &ServeConfig| {
        let run = simulate_full(cfg, 8, false, None, false, None, true);
        blame_bytes(run.blame.as_ref().expect("blame"))
    };
    let inline: Vec<String> = gallery.iter().map(|(_, cfg)| blamed(cfg)).collect();
    for threads in [1usize, 8] {
        let runs = Executor::new(threads).par_map(&gallery, |_, (_, cfg)| blamed(cfg));
        for (((name, _), want), got) in gallery.iter().zip(&inline).zip(&runs) {
            assert_eq!(want, got, "{name} @ {threads} threads: blame bytes diverged");
        }
    }
}

#[test]
fn conservation_and_structure_hold_across_the_gallery() {
    for (name, cfg) in configs() {
        let outcome = simulate_blamed_sharded(&cfg, 1);
        let blame = outcome.blame.as_ref().expect("blame");
        assert_eq!(blame.requests.len(), outcome.records.len(), "{name}");
        for (b, rec) in blame.requests.iter().zip(&outcome.records) {
            assert_eq!(b.components_sum(), b.latency_ns, "{name}: req {}", b.id);
            assert_eq!(b.latency_ns, rec.latency_ns(), "{name}: req {}", b.id);
        }
        assert_eq!(blame.report.completed, outcome.report.completed, "{name}");
        assert_eq!(blame.report.rejected, outcome.report.rejected, "{name}");
        assert_eq!(blame.report.expired, outcome.report.expired, "{name}");
        assert_eq!(blame.report.p99_latency_ms, outcome.report.latency.p99_ms, "{name}");
        for b in &blame.batches {
            if b.blocker >= 0 {
                let p = &blame.batches[b.blocker as usize];
                assert!(p.id < b.id && p.instance == b.instance, "{name}: batch {}", b.id);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation at random operating points: the eight components
    /// recompose to the latency bitwise for any (seed, rate, fleet,
    /// batch, window), and the blame tables stay shard-invariant.
    #[test]
    fn random_grids_conserve_and_stay_shard_invariant(
        seed in any::<u64>(),
        rate in 1_000.0f64..80_000.0,
        fleet in 1usize..5,
        max_batch in 1usize..9,
        window_us in 0.0f64..200.0,
        shards in 2usize..9,
    ) {
        let mut cfg = ServeConfig::example();
        cfg.seed = seed;
        cfg.arrival = ArrivalProcess::poisson(rate);
        cfg.fleet = fleet;
        cfg.policy = BatchPolicy::new(max_batch, window_us * 1e3);
        let serial = simulate_blamed_sharded(&cfg, 1);
        let blame = serial.blame.as_ref().expect("blame");
        for b in &blame.requests {
            prop_assert_eq!(b.components_sum(), b.latency_ns);
            prop_assert!(b.hold_ns <= cfg.policy.window_ns * (1.0 + 1e-12));
            prop_assert!(b.hold_ns >= 0.0 && b.busy_ns >= 0.0);
        }
        let sharded = simulate_blamed_sharded(&cfg, shards);
        prop_assert_eq!(&serial.report, &sharded.report);
        prop_assert_eq!(
            blame_bytes(blame),
            blame_bytes(sharded.blame.as_ref().expect("blame"))
        );
    }

    /// The identity intervention is the engine's determinism witness:
    /// same config, same seed, same bytes — zero deltas.
    #[test]
    fn what_if_identity_is_bitwise_neutral(
        seed in any::<u64>(),
        shards in 1usize..9,
    ) {
        let mut cfg = ServeConfig::example();
        cfg.seed = seed;
        let report = run_what_ifs(&cfg, shards, &[WhatIf::Identity]);
        let id = &report.interventions[0];
        prop_assert_eq!(id.p99_ms, report.baseline.p99_ms);
        prop_assert_eq!(id.goodput_rps, report.baseline.goodput_rps);
        prop_assert_eq!(id.energy_per_request_nj, report.baseline.energy_per_request_nj);
        prop_assert_eq!(id.delta_p99_ms, 0.0);
        prop_assert_eq!(id.delta_goodput_rps, 0.0);
        prop_assert_eq!(id.delta_energy_nj, 0.0);
    }
}
