//! Shard-vs-serial differential suite: the proof that sharding the
//! event queue is **invisible**.
//!
//! The serving loop shards the *storage* of its event heap
//! (`STAR_SERVE_SHARDS`, [`star_serve::simulate_sharded`]) across
//! per-shard heaps behind a deterministic min-of-heads merge, and sweeps
//! run many simulations at once on `star-exec` workers. Neither may
//! change a single output byte: every report field, lifecycle record,
//! trace span, health ledger, telemetry point, and work counter must be
//! bitwise identical to the serial single-heap loop at any shard count
//! and on any worker.
//!
//! This file enforces that contract differentially:
//!
//! - a config gallery (saturating mixed workload, bursty MMPP,
//!   closed-loop, wear-leveled health) × shards {1, 2, 4, 8, 64},
//!   byte-comparing reports, records, serialized trace JSON, health
//!   reports, and work counters,
//! - executor-thread variance at fixed shard count (the gallery run on
//!   1 and 8 workers against inline runs),
//! - scoped-telemetry snapshot equality (gauges, counters, histograms
//!   — f64 sums included, which is why telemetry is *not* buffered
//!   per shard),
//! - proptests: random `(seed, rate, fleet, max_batch, shards)` grids
//!   stay bitwise equal, and the integer work-counter merge is
//!   fold-order invariant,
//! - conservation: per-run push/pop balance and the event-count
//!   identity hold at every shard count.

use proptest::prelude::*;
use star_exec::Executor;
use star_serve::{
    simulate, simulate_sharded, simulate_sharded_with, ArrivalProcess, AutoscaleConfig,
    BatchPolicy, ControlConfig, DequeuePolicy, HealthConfig, ModelKind, PlacementPolicy,
    RequestClass, ServeConfig, ServiceModelConfig, SimOutcome, WorkloadMix, MAX_SHARDS,
};

/// Saturating mixed workload on one instance: completions (good and
/// late), expirations, and rejections all occur, so every event kind and
/// every terminal path crosses shard boundaries.
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
/// window-expire path (timer events route by class, not request id).
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
/// placement, over the saturating stress mix: `ScaleCheck` events, the
/// WFQ virtual-time re-keying, and load-aware placement all cross shard
/// boundaries.
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
/// energy-greedy placement on the bursty MMPP arrivals — the per-class
/// deadline keys and per-instance cost sheets must survive sharding too.
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

/// Runs fully observed: traced + health-monitored + profiled, so the
/// comparison covers every output surface at once.
fn observed(cfg: &ServeConfig, shards: usize, health: &HealthConfig) -> SimOutcome {
    simulate_sharded_with(cfg, shards, true, Some(health), true)
}

/// Asserts two fully observed outcomes are byte-identical on every
/// surface: report, records, trace JSON bytes, health report, and
/// deterministic work counters.
fn assert_outcomes_identical(label: &str, a: &SimOutcome, b: &SimOutcome) {
    assert_eq!(a.report, b.report, "{label}: ServeReport diverged");
    assert_eq!(a.records, b.records, "{label}: lifecycle records diverged");
    let ta = serde_json::to_string(&a.trace.as_ref().expect("trace").to_object_json())
        .expect("serialize");
    let tb = serde_json::to_string(&b.trace.as_ref().expect("trace").to_object_json())
        .expect("serialize");
    assert_eq!(ta, tb, "{label}: trace JSON bytes diverged");
    assert_eq!(a.health, b.health, "{label}: health report diverged");
    let (wa, wb) =
        (&a.profile.as_ref().expect("profile").work, &b.profile.as_ref().expect("profile").work);
    assert_eq!(wa, wb, "{label}: work counters diverged");
    assert_eq!(a.control, b.control, "{label}: control report diverged");
}

#[test]
fn sharded_runs_match_serial_across_the_config_gallery() {
    let health = HealthConfig::default();
    for (name, cfg) in configs() {
        let serial = observed(&cfg, 1, &health);
        for shards in [2usize, 4, 8, MAX_SHARDS] {
            let sharded = observed(&cfg, shards, &health);
            assert_outcomes_identical(&format!("{name} @ {shards} shards"), &serial, &sharded);
        }
    }
}

#[test]
fn wear_leveling_health_runs_match_serial() {
    // Wear-leveling is the one observer allowed to influence placement;
    // its round-robin decisions must still be shard-count invariant.
    let health = HealthConfig { wear_leveling: true, ..HealthConfig::default() };
    let mut cfg = stress_config();
    cfg.fleet = 4;
    let serial = observed(&cfg, 1, &health);
    for shards in [2usize, 8] {
        let sharded = observed(&cfg, shards, &health);
        assert_outcomes_identical(&format!("wear_leveling @ {shards} shards"), &serial, &sharded);
    }
}

#[test]
fn worker_count_never_changes_sharded_output() {
    // A simulation runs on one thread, but sweeps run many at once on
    // `star-exec` workers. Running the gallery at a fixed shard count on
    // one and on eight workers must reproduce the inline runs.
    let health = HealthConfig::default();
    let gallery = configs();
    let inline: Vec<SimOutcome> =
        gallery.iter().map(|(_, cfg)| observed(cfg, 8, &health)).collect();
    for threads in [1usize, 8] {
        let runs =
            Executor::new(threads).par_map(&gallery, |_, (_, cfg)| observed(cfg, 8, &health));
        for (((name, _), want), got) in gallery.iter().zip(&inline).zip(&runs) {
            assert_outcomes_identical(&format!("{name} @ {threads} threads"), want, got);
        }
    }
}

#[test]
fn telemetry_snapshot_is_shard_invariant() {
    // Gauge and histogram sums are f64: regrouping them across shards
    // would drift in the last ulp. The sharded loop therefore records
    // telemetry in arrival order, exactly like the serial loop — the
    // scoped snapshots must serialize to identical bytes.
    let cfg = stress_config();
    let (_, serial) = star_telemetry::with_scoped(|| simulate_sharded(&cfg, 1));
    let js = serde_json::to_string(&serial.to_json()).expect("serialize");
    for shards in [2usize, 8] {
        let (_, sharded) = star_telemetry::with_scoped(|| simulate_sharded(&cfg, shards));
        let jd = serde_json::to_string(&sharded.to_json()).expect("serialize");
        assert_eq!(js, jd, "telemetry bytes diverged at {shards} shards");
    }
}

#[test]
fn plain_reports_match_the_unsharded_entry_point() {
    // The public `simulate` (env-default shards) and explicit shard
    // counts all answer with the same report.
    for (name, cfg) in configs() {
        let want = simulate(&cfg);
        for shards in [1usize, 3, 8] {
            assert_eq!(simulate_sharded(&cfg, shards), want, "{name} @ {shards} shards");
        }
    }
}

#[test]
fn conservation_holds_at_every_shard_count() {
    // Every pushed event is popped, and the event-kind partition sums to
    // the total — per run, at any shard count. (Per-shard push/pop
    // balance is additionally debug-asserted inside the loop itself and
    // unit-tested at the queue level in `shard::tests`.)
    for (name, cfg) in configs() {
        for shards in [1usize, 2, 8] {
            let work = simulate_sharded_with(&cfg, shards, false, None, true)
                .profile
                .expect("profile")
                .work;
            assert_eq!(work.heap_pushes, work.heap_pops, "{name} @ {shards}: push/pop imbalance");
            if !matches!(cfg.arrival, ArrivalProcess::ClosedLoop(_)) {
                // Open-loop arrivals stay on their cursor, out of the heap.
                let bound = cfg.control.capacity(cfg.fleet) + cfg.mix.classes().len() + 1;
                assert!(work.heap_peak <= bound as u64, "{name} @ {shards}: heap peak");
            }
            assert_eq!(
                work.events_total,
                work.events_arrive
                    + work.events_window_expire
                    + work.events_instance_free
                    + work.events_scale_check,
                "{name} @ {shards}: event partition broken"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random operating points: the sharded loop must reproduce the
    /// serial loop bitwise for any (seed, rate, fleet, batch, shards).
    /// Failures shrink toward the smallest diverging grid point.
    #[test]
    fn random_grids_are_bitwise_shard_invariant(
        seed in any::<u64>(),
        rate in 1_000.0f64..80_000.0,
        fleet in 1usize..5,
        max_batch in 1usize..9,
        shards in 2usize..9,
    ) {
        let mut cfg = ServeConfig::example();
        cfg.seed = seed;
        cfg.arrival = ArrivalProcess::poisson(rate);
        cfg.fleet = fleet;
        cfg.policy = BatchPolicy::new(max_batch, 50_000.0);
        let serial = simulate_sharded_with(&cfg, 1, true, None, true);
        let sharded = simulate_sharded_with(&cfg, shards, true, None, true);
        prop_assert_eq!(&serial.report, &sharded.report);
        prop_assert_eq!(&serial.records, &sharded.records);
        let ta = serde_json::to_string(&serial.trace.expect("trace").to_object_json())
            .expect("serialize");
        let tb = serde_json::to_string(&sharded.trace.expect("trace").to_object_json())
            .expect("serialize");
        prop_assert_eq!(ta, tb);
        prop_assert_eq!(
            serial.profile.expect("profile").work,
            sharded.profile.expect("profile").work
        );
    }

    /// The cross-shard work-counter merge is integer arithmetic, so any
    /// fold order over per-shard snapshots produces the same totals —
    /// forward, reverse, or a random-pivot tree fold.
    #[test]
    fn work_counter_merge_is_fold_order_invariant(
        seeds in prop::collection::vec(any::<u64>(), 2..6),
        pivot in any::<usize>(),
    ) {
        let snapshots: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let mut cfg = ServeConfig::example();
                cfg.seed = seed;
                simulate_sharded_with(&cfg, 1, false, None, true)
                    .profile
                    .expect("profile")
                    .work
            })
            .collect();
        let fold = |order: &[usize]| {
            let mut acc = snapshots[order[0]].clone();
            for &i in &order[1..] {
                acc.absorb(&snapshots[i]);
            }
            acc
        };
        let forward: Vec<usize> = (0..snapshots.len()).collect();
        let reverse: Vec<usize> = forward.iter().rev().copied().collect();
        prop_assert_eq!(fold(&forward), fold(&reverse));
        // Tree fold: absorb the two halves independently, then merge.
        let cut = 1 + pivot % (snapshots.len() - 1);
        let mut left = fold(&forward[..cut]);
        let right = fold(&forward[cut..]);
        left.absorb(&right);
        prop_assert_eq!(fold(&forward), left);
    }
}
