//! Integration tests for the serving trace: span-tree structural
//! invariants, request conservation, latency reconciliation, and
//! byte-determinism of the serialized trace.

use star_serve::{
    simulate, simulate_profiled, simulate_with, ArrivalProcess, BatchPolicy, ControlConfig,
    HealthConfig, ModelKind, RequestClass, RequestOutcome, ServeConfig, ServeTrace,
    ServiceModelConfig, SimOptions, SimOutcome, SloAnalysis, SloPolicy, WorkloadMix,
};
use star_telemetry::SPAN_EPS_NS;

/// A mixed, moderately loaded configuration that exercises every
/// terminal outcome: completions (good and late), expirations, and
/// rejections.
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

/// Runs `cfg` with the trace attached.
fn traced(cfg: &ServeConfig) -> SimOutcome {
    simulate_with(cfg, &SimOptions { traced: true, ..SimOptions::default() })
}

/// Runs `cfg` with the trace and the default health monitor attached.
fn traced_monitored(cfg: &ServeConfig) -> SimOutcome {
    let health = Some(HealthConfig::default());
    simulate_with(cfg, &SimOptions { traced: true, health, ..SimOptions::default() })
}

#[test]
fn every_span_tree_is_valid() {
    let outcome = traced(&stress_config());
    let trace = outcome.trace.expect("trace requested");
    trace.validate().expect("all request and batch span trees satisfy the invariants");
}

#[test]
fn root_span_conservation() {
    let outcome = traced(&stress_config());
    let trace = outcome.trace.expect("trace requested");
    let r = &outcome.report;
    // Exactly one closed root span per arrival …
    assert_eq!(trace.requests.len() as u64, r.arrivals);
    // … partitioned by outcome exactly as the report counts them.
    assert_eq!(trace.outcome_count(RequestOutcome::Good), r.good);
    assert_eq!(trace.outcome_count(RequestOutcome::Late), r.late);
    assert_eq!(trace.outcome_count(RequestOutcome::Expired), r.expired);
    assert_eq!(trace.outcome_count(RequestOutcome::Rejected), r.rejected);
    assert!(r.good > 0 && r.late + r.expired + r.rejected > 0, "config exercises failures");
    // Request ids are unique (no double-closed span).
    let mut ids: Vec<u64> = trace.requests.iter().map(|t| t.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), trace.requests.len());
    // One invocation span per dispatched batch, members summing to the
    // completed count.
    assert_eq!(trace.batches.len() as u64, r.batches);
    let batched: usize = trace.batches.iter().map(|b| b.size).sum();
    assert_eq!(batched as u64, r.completed);
}

#[test]
fn span_durations_reconcile_with_lifecycle_records() {
    let outcome = traced(&stress_config());
    let trace = outcome.trace.expect("trace requested");
    for rec in &outcome.records {
        let t = trace
            .requests
            .iter()
            .find(|t| t.id == rec.id)
            .expect("every completed record has a span tree");
        assert!(t.outcome.is_completed());
        // Root span == end-to-end latency, bit for bit (both are the
        // same event-time subtraction).
        assert_eq!(t.span.start_ns, rec.arrive_ns);
        assert_eq!(t.span.dur_ns, rec.latency_ns());
        // The lifecycle children tile the root: queue then invocation.
        let queue = t.span.find("queue").expect("queue child");
        let invoke = t.span.find("invocation").expect("invocation child");
        assert_eq!(queue.dur_ns, rec.queue_ns());
        assert!((invoke.start_ns - rec.dispatch_ns).abs() <= SPAN_EPS_NS);
        assert!((invoke.end_ns() - rec.finish_ns).abs() <= SPAN_EPS_NS);
        let child_sum: f64 = t.span.children.iter().map(|c| c.dur_ns).sum();
        assert!((child_sum - t.span.dur_ns).abs() <= SPAN_EPS_NS);
        // The five hardware phases tile the invocation.
        assert_eq!(invoke.children.len(), 5);
        let phase_sum: f64 = invoke.children.iter().map(|c| c.dur_ns).sum();
        assert!((phase_sum - invoke.dur_ns).abs() <= SPAN_EPS_NS);
    }
}

#[test]
fn same_seed_trace_json_is_byte_identical() {
    let cfg = stress_config();
    let a = traced(&cfg).trace.expect("trace");
    let b = traced(&cfg).trace.expect("trace");
    let ja = serde_json::to_string(&a.to_object_json()).expect("serialize");
    let jb = serde_json::to_string(&b.to_object_json()).expect("serialize");
    assert_eq!(ja, jb, "same-seed traces must serialize to identical bytes");
    // A different seed produces a different trace (the check is not
    // vacuous).
    let mut other = cfg;
    other.seed ^= 1;
    let jc = serde_json::to_string(&traced(&other).trace.expect("trace").to_object_json())
        .expect("serialize");
    assert_ne!(ja, jc);
}

#[test]
fn tracing_never_perturbs_the_simulation() {
    for seed in [1u64, 7, 42] {
        let mut cfg = stress_config();
        cfg.seed = seed;
        assert_eq!(simulate(&cfg), traced(&cfg).report, "seed {seed}");
    }
}

#[test]
fn slo_analysis_agrees_with_report() {
    let outcome = traced(&stress_config());
    let trace = outcome.trace.expect("trace");
    let r = &outcome.report;
    let a = SloAnalysis::from_trace(&trace, SloPolicy::default(), 10);
    assert_eq!(a.total, r.arrivals);
    assert_eq!(a.violations, r.late + r.expired + r.rejected);
    // The per-class breakdown recomputed from spans matches the event
    // loop's own accounting exactly.
    assert_eq!(a.per_class, r.per_class);
    // Exemplars are the slowest completions, sorted.
    for pair in a.exemplars.windows(2) {
        assert!(pair[0].latency_ms >= pair[1].latency_ms);
    }
    let slowest = r.latency.max_ms;
    assert!((a.exemplars[0].latency_ms - slowest).abs() < 1e-9);
}

#[test]
fn health_trace_round_trips_byte_identical() {
    // With the health monitor enabled, the serialized trace (now
    // carrying the fleet-health timeseries) must parse back and re-emit
    // to the *same bytes* — the invariant the CI legs additionally diff
    // across STAR_EXEC_THREADS={1,8} processes.
    let cfg = stress_config();
    let outcome = traced_monitored(&cfg);
    let trace = outcome.trace.expect("trace requested");
    assert!(!trace.health.is_empty(), "monitored run samples fleet health");
    for h in &trace.health {
        assert_eq!(h.instances.len(), cfg.fleet);
    }
    // Health samples are grid-ordered and strictly increasing in time.
    for pair in trace.health.windows(2) {
        assert!(pair[0].t_ns < pair[1].t_ns);
    }
    let obj = trace.to_object_json();
    let bytes = serde_json::to_string(&obj).expect("serialize");
    let back = ServeTrace::from_object_json(&obj).expect("parse");
    assert_eq!(back, trace, "parse is lossless");
    let re_emitted = serde_json::to_string(&back.to_object_json()).expect("serialize");
    assert_eq!(bytes, re_emitted, "emit ∘ parse ∘ emit is byte-identical");
    // Monitoring never perturbed the traced simulation either.
    assert_eq!(outcome.report, simulate(&cfg), "monitored trace run bitwise equals plain run");
    // Same-seed monitored traces are byte-stable across reruns.
    let again = traced_monitored(&cfg);
    let again_bytes =
        serde_json::to_string(&again.trace.expect("trace").to_object_json()).expect("serialize");
    assert_eq!(bytes, again_bytes);
}

#[test]
fn health_report_consistent_between_traced_and_untraced() {
    let cfg = stress_config();
    let health = Some(HealthConfig::default());
    let untraced = simulate_with(&cfg, &SimOptions { health, ..SimOptions::default() });
    let traced = traced_monitored(&cfg);
    assert_eq!(untraced.report, traced.report);
    assert_eq!(untraced.health, traced.health, "health report independent of tracing");
}

#[test]
fn profiling_never_perturbs_report_or_trace_bytes() {
    // The self-profiler's no-perturbation invariant, across seeds: a
    // profiled run's report is bitwise equal to the unprofiled run, and a
    // profiled *traced* run serializes its trace to the exact bytes the
    // plain traced run produces. (CI additionally diffs the golden
    // fixtures across STAR_EXEC_THREADS={1,8} processes.)
    for seed in [1u64, 7, 42, 99] {
        let mut cfg = stress_config();
        cfg.seed = seed;
        let plain = simulate(&cfg);
        let profiled = simulate_profiled(&cfg);
        assert_eq!(plain, profiled.report, "seed {seed}: profiled report diverged");
        assert!(profiled.profile.is_some());

        let trace_only = traced(&cfg);
        let traced_profiled = simulate_with(
            &cfg,
            &SimOptions { traced: true, profiled: true, ..SimOptions::default() },
        );
        assert_eq!(trace_only.report, traced_profiled.report, "seed {seed}");
        let ja = serde_json::to_string(&trace_only.trace.expect("trace").to_object_json())
            .expect("serialize");
        let jb = serde_json::to_string(&traced_profiled.trace.expect("trace").to_object_json())
            .expect("serialize");
        assert_eq!(ja, jb, "seed {seed}: profiling changed trace bytes");
    }
}

#[test]
fn profiled_work_counters_are_seed_stable_and_trace_independent() {
    // Deterministic work accounting: identical counters on replay, and
    // identical whether or not tracing / health monitoring ride along —
    // the counters measure the simulation, not its observers.
    let cfg = stress_config();
    let solo = simulate_profiled(&cfg).profile.expect("profile");
    let replay = simulate_profiled(&cfg).profile.expect("profile");
    assert_eq!(solo.work, replay.work, "replay must reproduce counters exactly");
    let all = SimOptions {
        traced: true,
        health: Some(HealthConfig::default()),
        profiled: true,
        ..SimOptions::default()
    };
    let observed = simulate_with(&cfg, &all).profile.expect("profile");
    assert_eq!(solo.work, observed.work, "observers must not change work counters");
    // JSON round-trip of the deterministic half is byte-stable (the
    // property the golden fixture in star-bench pins).
    let a = serde_json::to_string(&solo.work).expect("serialize");
    let b = serde_json::to_string(&replay.work).expect("serialize");
    assert_eq!(a, b);
}

#[test]
fn queue_and_busy_samples_bound_by_config() {
    let cfg = stress_config();
    let trace = traced(&cfg).trace.expect("trace");
    assert!(!trace.samples.is_empty());
    for pair in trace.samples.windows(2) {
        assert!(pair[0].t_ns < pair[1].t_ns, "one sample per distinct event time");
    }
    for s in &trace.samples {
        assert!(s.queued <= cfg.max_queue as u64);
        assert!(s.busy <= cfg.fleet as u64);
    }
    // The system was actually busy at some point.
    assert!(trace.samples.iter().any(|s| s.busy > 0));
    assert!(trace.samples.iter().any(|s| s.queued > 0));
}
