//! The tracked simulator-performance trajectory behind `BENCH_serve.json`.
//!
//! The serving simulator's speed is an engineering asset that scaling
//! work (fleet-of-hundreds sweeps, longer sequences) must not silently
//! squander. This module defines the schema and measurement
//! harness for the repo-root `BENCH_serve.json` file, which carries two
//! tracks mirroring [`star_serve::SimProfile`]'s dual-track design:
//!
//! 1. **Deterministic work budgets** — per-matrix-point
//!    [`star_serve::WorkCounters`] scalars. Machine-independent, so CI
//!    gates them hard: any counter growing more than
//!    [`WORK_BUDGET_TOLERANCE_PCT`] over its recorded budget fails the
//!    `bench_trajectory check` gate until the budget is deliberately
//!    bumped (with the PR explaining why the loop now does more work).
//! 2. **Wall-clock trajectory** — median run times per (point, variant)
//!    and profiled events/sec, appended by `bench_trajectory update`.
//!    Machine-dependent, so these are report-only: plotted, never gated.
//!
//! The matrix is `MATRIX_RATES × MATRIX_FLEETS` with the same Tiny/16
//! operating point as the `event_loop` Criterion bench, so event-loop
//! overhead (heap, queues, dispatch) dominates over hardware modeling
//! and the numbers track the loop itself.

use serde::{Deserialize, Serialize};
use star_serve::{FlightConfig, HealthConfig, SimOptions};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// File name of the tracked trajectory, at the repository root.
pub const BENCH_FILE: &str = "BENCH_serve.json";

/// Arrival rates of the benchmark matrix, requests/sec. 20 krps keeps
/// the Tiny/16 fleet comfortably below saturation, 40 krps is the
/// mid-load knee, and 80 krps saturates it so the queue and window
/// machinery is exercised.
pub const MATRIX_RATES: [f64; 3] = [20_000.0, 40_000.0, 80_000.0];

/// Fleet sizes of the benchmark matrix. Fleet 2 matches the Criterion
/// bench; fleet 8 scales the instance-free event traffic.
pub const MATRIX_FLEETS: [usize; 2] = [2, 8];

/// Allowed relative growth of any deterministic work counter over its
/// recorded budget before the `check` gate fails, in percent.
pub const WORK_BUDGET_TOLERANCE_PCT: f64 = 5.0;

/// Simulation variants measured for the wall-clock trajectory, in the
/// order they appear in reports. `flight` runs with the always-on
/// incident flight recorder attached (default [`star_serve::FlightConfig`]);
/// its budget is the recorder's ≤1.1×-untraced overhead contract. `blame`
/// runs with the critical-path blame recorder attached — observation-only
/// per-request wait decomposition folded into blame tables at the end of
/// the run — so the trajectory shows what exact latency attribution costs
/// next to the report-only path.
pub const VARIANTS: [&str; 6] = ["untraced", "traced", "health", "profiled", "flight", "blame"];

/// Absolute path of the tracked file: `$STAR_BENCH_FILE` if set, else
/// `BENCH_serve.json` at the repository root (resolved relative to this
/// crate's manifest, so the binary works from any working directory).
pub fn trajectory_file_path() -> PathBuf {
    std::env::var_os("STAR_BENCH_FILE").map(PathBuf::from).unwrap_or_else(|| {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../", "BENCH_serve.json"))
    })
}

/// One matrix configuration. Mirrors the `event_loop` Criterion bench
/// exactly (Tiny/16, batch-8 / 50 µs window, 50 ms horizon, seed 7) with
/// the fleet size parameterized.
pub fn matrix_config(rate_rps: f64, fleet: usize) -> star_serve::ServeConfig {
    use star_serve::{
        ArrivalProcess, BatchPolicy, ControlConfig, ModelKind, RequestClass, ServeConfig,
        ServiceModelConfig, WorkloadMix,
    };
    ServeConfig {
        fleet,
        policy: BatchPolicy::new(8, 50_000.0),
        arrival: ArrivalProcess::poisson(rate_rps),
        mix: WorkloadMix::single(RequestClass::new(ModelKind::Tiny, 16)),
        horizon_ns: 5e7,
        seed: 7,
        max_queue: 256,
        deadline_ns: 2e6,
        service: ServiceModelConfig::default(),
        control: ControlConfig::default(),
    }
}

/// The matrix points in deterministic order, as `(label, rate, fleet)`
/// with labels like `r20000_f2`.
pub fn matrix_points() -> Vec<(String, f64, usize)> {
    let mut points = Vec::new();
    for &rate in &MATRIX_RATES {
        for &fleet in &MATRIX_FLEETS {
            points.push((format!("r{}_f{fleet}", rate as u64), rate, fleet));
        }
    }
    points
}

/// One appended wall-clock measurement of the trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryEntry {
    /// Free-form label for the measurement (typically the PR or commit).
    pub label: String,
    /// Median run time in milliseconds, `variant → point → ms`.
    pub medians_ms: BTreeMap<String, BTreeMap<String, f64>>,
    /// Profiled events/sec per point (the headline simulator speed).
    pub events_per_sec: BTreeMap<String, f64>,
}

/// The schema of `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryFile {
    /// The bench the numbers come from (`serve_event_loop` matrix).
    pub bench: String,
    /// Unit of the trajectory medians (`ms`).
    pub unit: String,
    /// The gate tolerance the budgets were recorded under, percent.
    pub tolerance_pct: f64,
    /// Deterministic work-counter budgets, `point → counter → value`.
    /// These are exact measurements at the time of the last bump; the
    /// gate allows `tolerance_pct` growth over them.
    pub work_budgets: BTreeMap<String, BTreeMap<String, u64>>,
    /// Appended wall-clock measurements, oldest first.
    pub trajectory: Vec<TrajectoryEntry>,
}

/// Measures the deterministic work counters at every matrix point: the
/// profiler's 17 [`star_serve::WorkCounters`] scalars plus the flight
/// recorder's `flight_*` scalars from a recorder-attached run of the
/// same config (default [`star_serve::FlightConfig`]).
///
/// # Panics
///
/// Panics if a profiled run returns no profile or a flight run returns
/// no flight outcome (programming errors).
pub fn current_work_counters() -> BTreeMap<String, BTreeMap<String, u64>> {
    let flight_opts = SimOptions { flight: Some(FlightConfig::default()), ..SimOptions::default() };
    let mut out = BTreeMap::new();
    for (label, rate, fleet) in matrix_points() {
        let cfg = matrix_config(rate, fleet);
        let profile = star_serve::simulate_profiled(&cfg).profile.expect("profiled run");
        let mut scalars: BTreeMap<String, u64> =
            profile.work.scalars().into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        let flight = star_serve::simulate_with(&cfg, &flight_opts).flight.expect("flight outcome");
        scalars.extend(flight.scalars().into_iter().map(|(k, v)| (k.to_string(), v)));
        out.insert(label, scalars);
    }
    out
}

/// Compares measured counters against recorded budgets. Returns
/// `(failures, notes)`: failures are counters exceeding their budget by
/// more than `tolerance_pct` (or missing budget entries); notes flag
/// counters that shrank below the budget by more than the tolerance, a
/// prompt to ratchet the budget down.
pub fn check_budgets(
    budgets: &BTreeMap<String, BTreeMap<String, u64>>,
    current: &BTreeMap<String, BTreeMap<String, u64>>,
    tolerance_pct: f64,
) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    for (point, counters) in current {
        let Some(budget) = budgets.get(point) else {
            failures.push(format!("{point}: no recorded budget (run `bench_trajectory update`)"));
            continue;
        };
        for (name, &got) in counters {
            let Some(&want) = budget.get(name) else {
                failures.push(format!("{point}/{name}: counter has no budget"));
                continue;
            };
            let ceiling = want as f64 * (1.0 + tolerance_pct / 100.0);
            let floor = want as f64 * (1.0 - tolerance_pct / 100.0);
            if got as f64 > ceiling {
                failures.push(format!(
                    "{point}/{name}: {got} exceeds budget {want} by more than {tolerance_pct}% \
                     — justify and bump via `bench_trajectory update`"
                ));
            } else if (got as f64) < floor {
                notes.push(format!(
                    "{point}/{name}: {got} is >{tolerance_pct}% below budget {want} \
                     — consider ratcheting the budget down"
                ));
            }
        }
    }
    (failures, notes)
}

/// Median of `samples` (averaging the middle pair when even).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median_ms(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Runs the full wall-clock matrix: `iters` timed runs per (variant,
/// point), reduced to medians, plus profiled events/sec per point.
///
/// # Panics
///
/// Panics if a profiled run returns no profile (a programming error).
pub fn measure_trajectory(label: &str, iters: usize) -> TrajectoryEntry {
    let traced = SimOptions { traced: true, ..SimOptions::default() };
    let health = SimOptions { health: Some(HealthConfig::default()), ..SimOptions::default() };
    let flight = SimOptions { flight: Some(FlightConfig::default()), ..SimOptions::default() };
    let mut medians_ms: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    let mut events_per_sec = BTreeMap::new();
    for (point, rate, fleet) in matrix_points() {
        let cfg = matrix_config(rate, fleet);
        for variant in VARIANTS {
            let mut samples = Vec::with_capacity(iters);
            for _ in 0..iters {
                let t0 = Instant::now();
                match variant {
                    "untraced" => {
                        std::hint::black_box(star_serve::simulate(&cfg));
                    }
                    "traced" => {
                        std::hint::black_box(star_serve::simulate_with(&cfg, &traced));
                    }
                    "health" => {
                        std::hint::black_box(star_serve::simulate_with(&cfg, &health));
                    }
                    "flight" => {
                        std::hint::black_box(star_serve::simulate_with(&cfg, &flight));
                    }
                    "blame" => {
                        std::hint::black_box(star_serve::simulate_blamed(&cfg));
                    }
                    _ => {
                        std::hint::black_box(star_serve::simulate_profiled(&cfg));
                    }
                }
                samples.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            medians_ms
                .entry(variant.to_string())
                .or_default()
                .insert(point.clone(), median_ms(&mut samples));
        }
        let profile = star_serve::simulate_profiled(&cfg).profile.expect("profiled run");
        events_per_sec.insert(point.clone(), profile.events_per_sec());
    }
    TrajectoryEntry { label: label.to_string(), medians_ms, events_per_sec }
}

/// Loads the trajectory file.
///
/// # Errors
///
/// Returns an error when the file is missing or does not parse.
pub fn load_trajectory(path: &std::path::Path) -> std::io::Result<TrajectoryFile> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Writes the trajectory file, pretty-printed with a trailing newline.
///
/// # Errors
///
/// Returns any I/O error from the write.
pub fn save_trajectory(path: &std::path::Path, file: &TrajectoryFile) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(file)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(path, json + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_points_are_labeled_and_ordered() {
        let points = matrix_points();
        assert_eq!(points.len(), MATRIX_RATES.len() * MATRIX_FLEETS.len());
        assert_eq!(points[0].0, "r20000_f2");
        assert_eq!(points.last().expect("nonempty").0, "r80000_f8");
        let labels: std::collections::BTreeSet<&str> =
            points.iter().map(|(l, _, _)| l.as_str()).collect();
        assert_eq!(labels.len(), points.len(), "labels are unique");
    }

    #[test]
    fn matrix_config_mirrors_event_loop_bench() {
        let cfg = matrix_config(20_000.0, 2);
        assert_eq!(cfg.fleet, 2);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.max_queue, 256);
        assert_eq!(cfg.horizon_ns, 5e7);
    }

    #[test]
    fn budget_gate_passes_exact_and_fails_growth() {
        let mut budgets = BTreeMap::new();
        budgets.insert("p".to_string(), BTreeMap::from([("events_total".to_string(), 1000u64)]));
        // Exact match and within-tolerance growth both pass.
        let mut current = budgets.clone();
        let (failures, notes) = check_budgets(&budgets, &current, 5.0);
        assert!(failures.is_empty() && notes.is_empty());
        current.get_mut("p").expect("point").insert("events_total".to_string(), 1049);
        let (failures, _) = check_budgets(&budgets, &current, 5.0);
        assert!(failures.is_empty(), "{failures:?}");
        // >5% growth fails; >5% shrinkage only notes.
        current.get_mut("p").expect("point").insert("events_total".to_string(), 1051);
        let (failures, _) = check_budgets(&budgets, &current, 5.0);
        assert_eq!(failures.len(), 1, "{failures:?}");
        current.get_mut("p").expect("point").insert("events_total".to_string(), 900);
        let (failures, notes) = check_budgets(&budgets, &current, 5.0);
        assert!(failures.is_empty());
        assert_eq!(notes.len(), 1, "{notes:?}");
        // A point with no budget fails loudly.
        current.insert("q".to_string(), BTreeMap::new());
        let (failures, _) = check_budgets(&budgets, &current, 5.0);
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median_ms(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_ms(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn trajectory_file_round_trips_through_json() {
        let entry = TrajectoryEntry {
            label: "seed".to_string(),
            medians_ms: BTreeMap::from([(
                "untraced".to_string(),
                BTreeMap::from([("r20000_f2".to_string(), 1.25)]),
            )]),
            events_per_sec: BTreeMap::from([("r20000_f2".to_string(), 2.5e6)]),
        };
        let file = TrajectoryFile {
            bench: "serve_event_loop".to_string(),
            unit: "ms".to_string(),
            tolerance_pct: WORK_BUDGET_TOLERANCE_PCT,
            work_budgets: BTreeMap::from([(
                "r20000_f2".to_string(),
                BTreeMap::from([("events_total".to_string(), 1234u64)]),
            )]),
            trajectory: vec![entry],
        };
        let json = serde_json::to_string_pretty(&file).expect("serialize");
        let back: TrajectoryFile = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, file);
    }

    #[test]
    fn work_counters_cover_every_matrix_point_and_replay() {
        let a = current_work_counters();
        assert_eq!(a.len(), matrix_points().len());
        for (point, counters) in &a {
            assert!(counters.get("events_total").copied().unwrap_or(0) > 0, "{point}");
            assert_eq!(counters.len(), 23, "{point}: all scalar counters present");
            assert_eq!(
                counters.get("flight_events_seen"),
                counters.get("events_total"),
                "{point}: the recorder sees exactly the events the profiler counts"
            );
        }
        // Deterministic: a second measurement is identical.
        assert_eq!(a, current_work_counters());
        let (failures, notes) = check_budgets(&a, &a, WORK_BUDGET_TOLERANCE_PCT);
        assert!(failures.is_empty() && notes.is_empty());
    }
}
