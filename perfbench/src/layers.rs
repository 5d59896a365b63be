//! The traced run: per-layer timings, work counts and tracing overhead.
//!
//! A traced run measures every layer on every workload, in rounds while
//! another round fits before the deadline. Each round visits three
//! contexts:
//!
//! - **engine**: the nine heads through the STAR engine (the workload's
//!   own heads and engine on `attention_ideal` / `softmax_noisy`; the
//!   probe heads otherwise), the same probe heads through the other
//!   engine, a stage-by-stage replay, and a device read probe;
//! - **serve**: the workload's serving point on `serve_steady` and
//!   `whatif_a11`, a short `serve_steady` probe otherwise;
//! - **analysis**: the A11 blame + what-if point.
//!
//! Spans are recorded by this file around each call into a layer. Work
//! counts come from `star_telemetry::with_scoped` and the simulator's
//! `WorkCounters`; they must repeat exactly in every round.

use crate::check::{Checks, Digest};
use crate::replay::StageReplay;
use crate::stats::{fastest, median, Summary};
use crate::workloads::{
    a11_config, analysis, build_engines, build_model, check_analysis, check_replay, check_tile,
    dataset_index, heads, run_tile, serve_steady_config, time_reps, timed, Head, Workload,
    SERVE_HORIZON_NS,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use star_arch::{Accelerator, RramAccelerator};
use star_attention::{softmax_rows, Matrix};
use star_core::{StarSoftmax, StarSoftmaxConfig};
use star_device::{NoiseModel, RramCell, TechnologyParams};
use star_fixed::QFormat;
use star_serve::{
    run_what_ifs, simulate, simulate_blamed, simulate_profiled, simulate_sharded, ServeConfig,
    WhatIf,
};
use star_telemetry::{with_scoped, Snapshot};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rows of each seq-512 head in the probe heads.
const PROBE_ROWS_512: usize = 16;
/// Arrival horizon of the serve probe, ns.
const PROBE_HORIZON_NS: f64 = 2e8;
/// Leading rows of each head replayed stage by stage.
const REPLAY_ROWS: usize = 8;
/// Noisy cell reads in the device probe.
const DEVICE_READS: usize = 4096;
/// Shard count of the sharded comparison run.
const SHARDS: usize = 8;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("fixed.quantize_ns", "ns"),
    ("crossbar.camsub.find_max_us", "us"),
    ("crossbar.camsub.subtract_ns", "ns"),
    ("crossbar.cam.search_ns", "ns"),
    ("crossbar.lut.read_ns", "ns"),
    ("crossbar.vmm.multiply_us", "us"),
    ("core.fixed_divide_ns", "ns"),
    ("core.star.row_us.n64", "us"),
    ("core.star.row_us.n128", "us"),
    ("core.star.row_us.n512", "us"),
    ("attention.softmax_rows_ms", "ms"),
    ("attention.matmul_ms", "ms"),
    ("star.max_abs_err", "prob"),
    ("device.noise.read_ns", "ns"),
    ("star.faults.recovered_per_row", "ratio"),
    ("core.star.build_ms", "ms"),
    ("arch.star_with_ms", "ms"),
    ("arch.evaluate_us", "us"),
    ("serve.model_build_ms", "ms"),
    ("serve.batch_cost_ns", "ns"),
    ("serve.phase.arrive", "share"),
    ("serve.phase.dispatch", "share"),
    ("serve.phase.instance_free", "share"),
    ("serve.phase.window_expire", "share"),
    ("serve.phase.finalize", "share"),
    ("telemetry.registry_overhead", "ratio"),
    ("serve.sharded_ratio", "ratio"),
    ("serve.blame_overhead", "ratio"),
    ("serve.whatif_sim_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("crossbar.cam.searches", "count"),
    ("crossbar.camsub.max_searches", "count"),
    ("crossbar.camsub.subtracts", "count"),
    ("crossbar.lut.reads", "count"),
    ("crossbar.vmm.activations", "count"),
    ("device.rram.reads", "count"),
    ("device.noise.read_draws", "count"),
    ("star.softmax.elements", "count"),
    ("star.softmax.rows", "count"),
    ("serve.events_total", "count"),
    ("serve.heap_pushes", "count"),
    ("serve.heap_peak", "count"),
    ("serve.dispatch_rounds", "count"),
    ("serve.dispatch_scans", "count"),
    ("serve.batches_formed", "count"),
    ("serve.telemetry_ops", "count"),
];

/// Registry counters of the engine context reported as work counts.
const ENGINE_COUNTERS: [&str; 9] = [
    "crossbar.cam.searches",
    "crossbar.camsub.max_searches",
    "crossbar.camsub.subtracts",
    "crossbar.lut.reads",
    "crossbar.vmm.activations",
    "device.rram.reads",
    "device.noise.read_draws",
    "star.softmax.elements",
    "star.softmax.rows",
];

/// In-memory spans around calls into the layers.
#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    ns: f64,
}

impl Tracer {
    fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().map(|&(i, _)| i);
        self.spans.push(Span { name, parent, ns: 0.0 });
        self.open.push((self.spans.len() - 1, Instant::now()));
    }

    /// Closes the innermost span and returns its duration, s.
    fn exit(&mut self) -> f64 {
        let (i, start) = self.open.pop().expect("exit matches an enter");
        let ns = start.elapsed().as_nanos() as f64;
        self.spans[i].ns = ns;
        ns / 1e9
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.enter(name);
        let out = black_box(f());
        (out, self.exit())
    }

    /// Per span name: (count, total ns, self ns). Self time is the
    /// span's duration minus its children's.
    fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns;
            e.2 += s.ns - child;
        }
        out
    }
}

/// The inputs of a traced run.
struct Contexts {
    workload: Workload,
    /// The workload's own heads (softmax workloads only).
    full: Option<Vec<Head>>,
    probe: Vec<Head>,
    serve: ServeConfig,
    a11: ServeConfig,
}

impl Contexts {
    fn new(workload: Workload, seed: u64) -> Contexts {
        let softmax = matches!(workload, Workload::AttentionIdeal | Workload::SoftmaxNoisy);
        let serve = match workload {
            Workload::ServeSteady => serve_steady_config(seed, SERVE_HORIZON_NS),
            Workload::WhatifA11 => a11_config(seed),
            _ => serve_steady_config(seed, PROBE_HORIZON_NS),
        };
        Contexts {
            workload,
            full: softmax.then(|| heads(seed, None)),
            probe: heads(seed, Some(PROBE_ROWS_512)),
            serve,
            a11: a11_config(seed),
        }
    }

    fn primary(&self) -> &[Head] {
        self.full.as_deref().unwrap_or(&self.probe)
    }
}

/// Timing samples and per-unit quantities of one traced run.
#[derive(Default)]
struct Samples {
    values: BTreeMap<&'static str, Vec<f64>>,
    /// Wall time of the workload's own unit, untraced and traced, s.
    unit_untraced: Vec<f64>,
    unit_traced: Vec<f64>,
}

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_default().push(v);
    }
}

/// One engine pass over `heads`: every row checked against exact f64.
struct Pass {
    /// Softmax outputs, per head and tile.
    outputs: Vec<Vec<Matrix>>,
    max_err: f64,
    snapshot: Snapshot,
    /// Traced time of the seq-128 heads, s.
    seq128_s: f64,
}

fn engine_pass(
    tracer: &mut Tracer,
    samples: &mut Samples,
    checks: &mut Checks,
    heads: &[Head],
    noisy: bool,
    record: bool,
) -> Pass {
    let mut engines = build_engines(noisy);
    let mut outputs = Vec::with_capacity(heads.len());
    let mut max_err = 0.0f64;
    let mut digest = Digest::default();
    let mut seq128_s = 0.0;
    let ((), snapshot) = with_scoped(|| {
        tracer.enter("engine.pass");
        for head in heads {
            let engine = &mut engines[dataset_index(head.dataset)];
            let (mut soft_s, mut mm_s) = (0.0, 0.0);
            let mut ps = Vec::with_capacity(head.tiles.len());
            for tile in &head.tiles {
                let (p, s) =
                    tracer.span("attention.softmax_rows", || softmax_rows(engine, &tile.scores));
                let (out, m) =
                    tracer.span("attention.matmul", || p.matmul(&head.v).expect("shapes"));
                soft_s += s;
                mm_s += m;
                max_err = max_err.max(check_tile(checks, &mut digest, head, tile, (&p, &out)));
                ps.push(p);
            }
            outputs.push(ps);
            if record {
                let row_us = match head.seq {
                    64 => "core.star.row_us.n64",
                    128 => "core.star.row_us.n128",
                    _ => "core.star.row_us.n512",
                };
                samples.push(row_us, soft_s * 1e6 / head.rows() as f64);
                if head.seq == 128 {
                    samples.push("attention.softmax_rows_ms", soft_s * 1e3);
                    samples.push("attention.matmul_ms", mm_s * 1e3);
                    seq128_s += soft_s + mm_s;
                }
            }
        }
        let pass_s = tracer.exit();
        if record {
            samples.push("workload.pass_s", pass_s);
        }
    });
    Pass { outputs, max_err, snapshot, seq128_s }
}

/// The seq-128 heads of `heads` without spans or a scoped registry: the
/// untraced side of the softmax workloads' tracing overhead.
fn untraced_seq128(heads: &[Head], noisy: bool) -> f64 {
    let mut engines = build_engines(noisy);
    let t = Instant::now();
    for head in heads.iter().filter(|h| h.seq == 128) {
        let engine = &mut engines[dataset_index(head.dataset)];
        for tile in &head.tiles {
            black_box(run_tile(engine, tile, &head.v));
        }
    }
    t.elapsed().as_secs_f64()
}

/// Replays the leading rows of every head stage by stage on an ideal
/// engine's arrays and checks the result against `outputs` bitwise.
fn replay(samples: &mut Samples, checks: &mut Checks, heads: &[Head], outputs: &[Vec<Matrix>]) {
    let engines = build_engines(false);
    let mut replays: Vec<StageReplay> = engines.iter().map(StageReplay::new).collect();
    let mut stage_ns = [0.0; 7];
    let (mut elements, mut rows) = (0usize, 0usize);
    for (head, ps) in heads.iter().zip(outputs) {
        let replay = &mut replays[dataset_index(head.dataset)];
        let (tile, p) = (&head.tiles[0], &ps[0]);
        for r in 0..REPLAY_ROWS.min(tile.scores.rows()) {
            let got = replay.row(tile.scores.row(r), &mut stage_ns);
            check_replay(checks, head, r, &got, p.row(r));
            elements += got.len();
            rows += 1;
        }
    }
    let per_element = |stage: usize| stage_ns[stage] / elements as f64;
    samples.push("fixed.quantize_ns", per_element(0));
    samples.push("crossbar.camsub.find_max_us", per_element(1) * 128.0 / 1e3);
    samples.push("crossbar.camsub.subtract_ns", per_element(2));
    samples.push("crossbar.cam.search_ns", per_element(3));
    samples.push("crossbar.lut.read_ns", per_element(4));
    samples.push("crossbar.vmm.multiply_us", stage_ns[5] / rows as f64 / 1e3);
    samples.push("core.fixed_divide_ns", per_element(6));
}

/// Noisy cell reads: the device layer on its own.
fn device_probe(samples: &mut Samples, seed: u64) -> Snapshot {
    let tech = TechnologyParams::cmos32();
    let noise = NoiseModel::typical();
    let mut cell = RramCell::new(2, &tech);
    cell.program_ideal(1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (s, snap) = with_scoped(|| {
        let t = Instant::now();
        let mut acc = 0.0;
        for _ in 0..DEVICE_READS {
            acc += cell.read_current(black_box(0.2), &noise, &mut rng);
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    });
    samples.push("device.noise.read_ns", s * 1e9 / DEVICE_READS as f64);
    snap
}

fn builds(samples: &mut Samples, cfg: &ServeConfig) {
    let class = cfg.mix.classes()[0];
    let format = QFormat::MRPC;
    let ms = |v: Vec<f64>| fastest(&v).expect("timed") * 1e3;
    samples.push(
        "core.star.build_ms",
        ms(time_reps(5, || StarSoftmax::new(StarSoftmaxConfig::new(format)).expect("builds"))),
    );
    samples.push("arch.star_with_ms", ms(time_reps(5, || RramAccelerator::star_with(format, 10))));
    let acc = RramAccelerator::star_with(format, 10);
    let attention = class.config();
    samples.push("arch.evaluate_us", ms(time_reps(25, || acc.evaluate(&attention))) * 1e3);
    samples.push("serve.model_build_ms", ms(time_reps(5, || build_model(cfg))));
    let model = build_model(cfg);
    let t = Instant::now();
    let calls = 8 * 512;
    for i in 0..calls {
        black_box(model.batch_cost(class, 1 + i % 8));
    }
    samples.push("serve.batch_cost_ns", t.elapsed().as_secs_f64() * 1e9 / calls as f64);
}

/// The serve context: one profiled run for counts and phase shares,
/// then untraced, registry-off and sharded runs, all of which must
/// report identically.
fn serve_context(
    samples: &mut Samples,
    checks: &mut Checks,
    cfg: &ServeConfig,
    own_unit: bool,
) -> BTreeMap<&'static str, u64> {
    let t = Instant::now();
    let (profiled, _) = with_scoped(|| simulate_profiled(cfg));
    let traced_s = t.elapsed().as_secs_f64();
    let profile = profiled.profile.as_ref().expect("profiled run carries a profile");
    let total = profile.wall_total_ns as f64;
    for (name, phase) in [
        ("serve.phase.arrive", "arrive"),
        ("serve.phase.dispatch", "dispatch"),
        ("serve.phase.instance_free", "instance_free"),
        ("serve.phase.window_expire", "window_expire"),
        ("serve.phase.finalize", "finalize"),
    ] {
        let ns = profile.wall.entries().find(|(n, _)| *n == phase).map_or(0, |(_, s)| s.total_ns);
        samples.push(name, ns as f64 / total);
    }

    let (on, on_s) = timed(|| simulate(cfg));
    star_telemetry::set_enabled(false);
    let (off, off_s) = timed(|| simulate(cfg));
    star_telemetry::set_enabled(true);
    let (sharded, sharded_s) = timed(|| simulate_sharded(cfg, SHARDS));
    samples.push("telemetry.registry_overhead", on_s / off_s);
    samples.push("serve.sharded_ratio", sharded_s / on_s);
    if own_unit {
        samples.push("serve.unit_ns", on_s * 1e9);
        samples.unit_untraced.push(on_s);
        samples.unit_traced.push(traced_s);
    }
    for (label, report) in [("untraced", &on), ("registry-off", &off), ("sharded", &sharded)] {
        checks.check(*report == profiled.report, || {
            format!("{label} report differs from the profiled report")
        });
    }
    let r = &profiled.report;
    checks.check(r.arrivals == r.completed + r.rejected + r.expired, || {
        format!("serve: arrivals {} do not balance", r.arrivals)
    });
    let w = &profile.work;
    BTreeMap::from([
        ("serve.events_total", w.events_total),
        ("serve.heap_pushes", w.heap_pushes),
        ("serve.heap_peak", w.heap_peak),
        ("serve.dispatch_rounds", w.dispatch_rounds),
        ("serve.dispatch_scans", w.dispatch_scans),
        ("serve.batches_formed", w.batches_formed),
        ("serve.telemetry_ops", w.telemetry_ops),
    ])
}

/// The analysis context: blamed and what-if runs against a plain one.
fn analysis_context(samples: &mut Samples, checks: &mut Checks, cfg: &ServeConfig, own_unit: bool) {
    let menu = WhatIf::standard();
    let (base, base_s) = timed(|| simulate(cfg));
    let (blamed, blamed_s) = timed(|| simulate_blamed(cfg));
    let (what_if, what_if_s) = timed(|| run_what_ifs(cfg, 1, &menu));
    samples.push("serve.blame_overhead", blamed_s / base_s);
    samples.push("serve.whatif_sim_ms", what_if_s * 1e3 / (menu.len() + 1) as f64);
    checks.check(blamed.report == base, || "blame perturbed the serve report".to_string());
    check_analysis(checks, &blamed, &what_if);
    if own_unit {
        let t = Instant::now();
        let ((blamed, what_if), _) = with_scoped(|| analysis(cfg));
        samples.unit_traced.push(t.elapsed().as_secs_f64());
        samples.unit_untraced.push(blamed_s + what_if_s);
        samples.push("serve.unit_ns", (blamed_s + what_if_s) * 1e9);
        check_analysis(checks, &blamed, &what_if);
    }
}

fn counters(snap: &Snapshot, out: &mut BTreeMap<&'static str, u64>) {
    for name in ENGINE_COUNTERS {
        *out.entry(name).or_default() += snap.counters.get(name).copied().unwrap_or(0);
    }
}

fn ratio(snap: &Snapshot, num: &str, den: &str) -> f64 {
    let get = |n: &str| snap.counters.get(n).copied().unwrap_or(0) as f64;
    get(num) / get(den)
}

/// One round over the three contexts; returns its work counts and the
/// primary pass's counters (the workload's own unit on softmax
/// workloads).
fn round(
    ctx: &Contexts,
    tracer: &mut Tracer,
    samples: &mut Samples,
    checks: &mut Checks,
    seed: u64,
) -> (BTreeMap<&'static str, u64>, Snapshot) {
    let primary_noisy = ctx.workload == Workload::SoftmaxNoisy;
    let primary = engine_pass(tracer, samples, checks, ctx.primary(), primary_noisy, true);
    let secondary = engine_pass(tracer, samples, checks, &ctx.probe, !primary_noisy, false);
    let (ideal, noisy, ideal_heads) = if primary_noisy {
        (&secondary, &primary, ctx.probe.as_slice())
    } else {
        (&primary, &secondary, ctx.primary())
    };
    samples.push("star.max_abs_err", ideal.max_err);
    samples.push(
        "star.faults.recovered_per_row",
        ratio(&noisy.snapshot, "star.faults.recovered", "star.softmax.rows"),
    );
    if ctx.full.is_some() {
        samples.unit_traced.push(primary.seq128_s);
        samples.unit_untraced.push(untraced_seq128(ctx.primary(), primary_noisy));
    }
    tracer.enter("replay");
    replay(samples, checks, ideal_heads, &ideal.outputs);
    tracer.exit();
    let device = device_probe(samples, seed);
    let mut counts = BTreeMap::new();
    for snap in [&primary.snapshot, &secondary.snapshot, &device] {
        counters(snap, &mut counts);
    }

    tracer.enter("builds");
    builds(samples, &ctx.serve);
    tracer.exit();
    tracer.enter("serve");
    counts.extend(serve_context(
        samples,
        checks,
        &ctx.serve,
        ctx.workload == Workload::ServeSteady,
    ));
    tracer.exit();
    tracer.enter("analysis");
    analysis_context(samples, checks, &ctx.a11, ctx.workload == Workload::WhatifA11);
    tracer.exit();
    (counts, primary.snapshot)
}

/// What a traced run measured.
pub struct TracedOutcome {
    /// Per-layer metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub checks: Checks,
    pub lines: Vec<String>,
}

/// Work counts of one round, for the determinism test.
#[cfg(test)]
pub fn round_counts(workload: Workload, seed: u64) -> BTreeMap<&'static str, u64> {
    let ctx = Contexts::new(workload, seed);
    let mut checks = Checks::default();
    let (counts, _) =
        round(&ctx, &mut Tracer::default(), &mut Samples::default(), &mut checks, seed);
    assert_eq!(checks.failed, 0, "{:?}", checks.notes);
    counts
}

pub fn traced(workload: Workload, seed: u64, seconds: f64) -> TracedOutcome {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let ctx = Contexts::new(workload, seed);
    let mut tracer = Tracer::default();
    let mut samples = Samples::default();
    let mut checks = Checks::default();
    let mut first: Option<BTreeMap<&'static str, u64>> = None;
    let mut unit_counts = Snapshot::default();
    let mut rounds = 0;
    loop {
        let start = Instant::now();
        let (counts, primary) = round(&ctx, &mut tracer, &mut samples, &mut checks, seed);
        match &first {
            None => {
                first = Some(counts);
                unit_counts = primary;
            }
            Some(want) => checks.check(*want == counts, || {
                format!("round {rounds}: work counts differ from round 0")
            }),
        }
        rounds += 1;
        if Instant::now() + start.elapsed() > deadline {
            break;
        }
    }
    let counts = first.expect("at least one round");
    let overhead =
        samples.unit_traced.iter().sum::<f64>() / samples.unit_untraced.iter().sum::<f64>();
    samples.push("trace.overhead", overhead);

    let mut metrics = Vec::new();
    let mut lines = vec![format!(
        "traced run: {rounds} rounds; per layer: value (timings: fastest sample; ratios: \
         median), sample count, share of the workload's unit ({}; nested layers \
         overlap), quartiles",
        unit_label(workload)
    )];
    // Timings take the fastest sample, like the end-to-end metrics;
    // ratios, shares and errors take the median over rounds.
    let values: BTreeMap<&str, f64> = samples
        .values
        .iter()
        .map(|(k, v)| {
            let timing = k.ends_with("_ns") || k.ends_with("_us") || k.ends_with("_ms");
            let value = if timing { fastest(v) } else { median(v) };
            (*k, value.expect("sampled"))
        })
        .collect();
    let shares = shares(workload, &values, &unit_counts, &counts);
    for (name, unit) in PER_LAYER {
        let (value, n) = match (samples.values.get(name), counts.get(name)) {
            (Some(v), _) => (values[name], v.len()),
            (None, Some(&c)) => (c as f64, 1),
            (None, None) => unreachable!("per-layer metric {name} was never measured"),
        };
        let share = shares.get(name).map_or(String::from("-"), |s| format!("{:.1}%", s * 100.0));
        let spread = samples
            .values
            .get(name)
            .and_then(|v| Summary::of(v))
            .map_or(String::new(), |s| format!(" (q1 {:.4}, q3 {:.4})", s.q1, s.q3));
        lines.push(format!(
            "  {name:<34} {value:>16.4} {unit:<6} n={n:<3} share {share:>6}{spread}"
        ));
        metrics.push((name, value, unit));
    }
    lines.push("spans (count, total ms, self ms):".to_string());
    for (name, (count, total, own)) in tracer.self_times() {
        lines.push(format!("  {name:<26} {count:>6} {:>12.3} {:>12.3}", total / 1e6, own / 1e6));
    }
    TracedOutcome { metrics, checks, lines }
}

fn unit_label(workload: Workload) -> &'static str {
    match workload {
        Workload::AttentionIdeal | Workload::SoftmaxNoisy => "one pass over the nine heads",
        Workload::ServeSteady => "one untraced simulate",
        Workload::WhatifA11 => "one blame + what-if analysis",
    }
}

/// Each layer's share of the workload's unit: per-operation time × the
/// operations one unit performs ÷ the unit's wall time. Layers off the
/// unit's path have no share.
fn shares(
    workload: Workload,
    values: &BTreeMap<&str, f64>,
    unit: &Snapshot,
    counts: &BTreeMap<&str, u64>,
) -> BTreeMap<&'static str, f64> {
    let m = |k: &str| values.get(k).copied().unwrap_or(0.0);
    let c = |k: &str| unit.counters.get(k).copied().unwrap_or(0) as f64;
    let mut out = BTreeMap::new();
    match workload {
        Workload::AttentionIdeal | Workload::SoftmaxNoisy => {
            let unit_ns = m("workload.pass_s") * 1e9;
            let elements = c("star.softmax.elements");
            let rows = c("star.softmax.rows");
            let per_row_128 = |k: &str| m(k) * 1e3 / 128.0 * elements;
            for (name, ns) in [
                ("fixed.quantize_ns", m("fixed.quantize_ns") * elements),
                ("crossbar.camsub.find_max_us", per_row_128("crossbar.camsub.find_max_us")),
                ("crossbar.camsub.subtract_ns", m("crossbar.camsub.subtract_ns") * elements),
                ("crossbar.cam.search_ns", m("crossbar.cam.search_ns") * elements),
                ("crossbar.lut.read_ns", m("crossbar.lut.read_ns") * c("crossbar.lut.reads")),
                ("crossbar.vmm.multiply_us", m("crossbar.vmm.multiply_us") * 1e3 * rows),
                ("core.fixed_divide_ns", m("core.fixed_divide_ns") * elements),
                ("device.noise.read_ns", m("device.noise.read_ns") * c("device.noise.read_draws")),
            ] {
                out.insert(name, ns / unit_ns);
            }
        }
        Workload::ServeSteady => {
            let batches = counts.get("serve.batches_formed").copied().unwrap_or(0) as f64;
            let sim_ns = m("serve.unit_ns");
            out.insert("serve.batch_cost_ns", m("serve.batch_cost_ns") * batches / sim_ns);
            out.insert("serve.model_build_ms", m("serve.model_build_ms") * 1e6 / sim_ns);
            for name in [
                "serve.phase.arrive",
                "serve.phase.dispatch",
                "serve.phase.instance_free",
                "serve.phase.window_expire",
                "serve.phase.finalize",
            ] {
                out.insert(name, m(name));
            }
        }
        Workload::WhatifA11 => {
            let unit_ns = m("serve.unit_ns");
            let sims = (WhatIf::standard().len() + 2) as f64;
            out.insert("serve.model_build_ms", m("serve.model_build_ms") * 1e6 * sims / unit_ns);
            out.insert(
                "serve.whatif_sim_ms",
                m("serve.whatif_sim_ms") * 1e6 * (sims - 1.0) / unit_ns,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed: Vec<(&str, &str)> = doc
            .get("per_layer")
            .and_then(|v| v.as_array())
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect("string field");
                (field("name"), field("unit"))
            })
            .collect();
        assert_eq!(listed, PER_LAYER.to_vec());
    }

    #[test]
    fn spans_split_self_time_from_children() {
        let mut t = Tracer::default();
        t.enter("outer");
        t.span("inner", || std::thread::sleep(Duration::from_millis(2)));
        t.exit();
        let times = t.self_times();
        let (n, total, own) = times["outer"];
        let (_, inner, _) = times["inner"];
        assert_eq!(n, 1);
        assert!((total - own - inner).abs() < 1.0, "self = total - children");
        assert!(inner >= 2e6);
    }
}
