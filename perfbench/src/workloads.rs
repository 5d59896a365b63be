//! The four workloads: their inputs, set-up, timed unit and output checks.
//!
//! All four are offline batch jobs that report work finished per host
//! second at a fixed input size. Inputs are a pure function of the seed.

use crate::check::{check_row, Checks, Digest};
use crate::replay::StageReplay;
use crate::stats::{fastest, Summary};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use star_attention::{softmax_rows, ExactSoftmax, Matrix};
use star_core::{StarSoftmax, StarSoftmaxConfig};
use star_device::NoiseModel;
use star_serve::{
    run_what_ifs, simulate, simulate_blamed, simulate_profiled, ArrivalProcess, BatchPolicy,
    ControlConfig, ModelKind, RequestClass, ServeConfig, ServiceModel, ServiceModelConfig, WhatIf,
    WorkloadMix,
};
use star_workload::Dataset;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Score rows per tile.
pub const TILE_ROWS: usize = 8;
/// Sequence lengths of the BERT-base heads.
pub const SEQS: [usize; 3] = [64, 128, 512];
/// BERT-base head width.
pub const D_HEAD: usize = 64;
/// Chip seed of the noisy engines: with `NoiseModel::typical()` its
/// stuck cells land where the controller's fault recovery fires, while
/// every row stays inside the differential bounds.
pub const NOISY_CHIP: u64 = 2;
/// Arrival horizon of `serve_steady`, ns.
pub const SERVE_HORIZON_NS: f64 = 5e8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AttentionIdeal,
    SoftmaxNoisy,
    ServeSteady,
    WhatifA11,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AttentionIdeal,
        Workload::SoftmaxNoisy,
        Workload::ServeSteady,
        Workload::WhatifA11,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AttentionIdeal => "attention_ideal",
            Workload::SoftmaxNoisy => "softmax_noisy",
            Workload::ServeSteady => "serve_steady",
            Workload::WhatifA11 => "whatif_a11",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one unit of work is, for `work_per_s`.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::AttentionIdeal | Workload::SoftmaxNoisy => "softmax elements",
            Workload::ServeSteady => "simulated events",
            Workload::WhatifA11 => "blame + what-if analyses",
        }
    }
}

/// One attention head: a seeded V and its score rows in tiles of
/// [`TILE_ROWS`] rows, each with the exact f64 softmax of every row.
pub struct Head {
    pub dataset: Dataset,
    pub seq: usize,
    pub v: Matrix,
    pub tiles: Vec<Tile>,
}

/// Consecutive score rows of one head: the timed unit of the softmax
/// workloads. Rows are independent, so tiling changes no output bit.
pub struct Tile {
    pub first_row: usize,
    pub scores: Matrix,
    pub exact: Matrix,
}

impl Head {
    pub fn rows(&self) -> usize {
        self.tiles.iter().map(|t| t.scores.rows()).sum()
    }

    pub fn elements(&self) -> usize {
        self.rows() * self.seq
    }

    pub fn label(&self) -> String {
        format!("{}/n{}", self.dataset, self.seq)
    }
}

/// The nine heads (three datasets × [`SEQS`]), each `seq` rows long;
/// `rows_512` truncates the seq-512 heads to that many rows.
pub fn heads(seed: u64, rows_512: Option<usize>) -> Vec<Head> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut exact = ExactSoftmax::new();
    let mut out = Vec::new();
    for dataset in Dataset::ALL {
        for seq in SEQS {
            let rows = match rows_512 {
                Some(cap) if seq == 512 => cap,
                _ => seq,
            };
            let score_rows = dataset.profile().generate_rows(rows, seq, &mut rng);
            let v = Matrix::from_fn(seq, D_HEAD, |_, _| rng.gen_range(-1.0..1.0));
            let tiles = score_rows
                .chunks(TILE_ROWS)
                .enumerate()
                .map(|(i, chunk)| {
                    let scores = Matrix::from_rows(chunk).expect("generated rows share one length");
                    let exact = softmax_rows(&mut exact, &scores);
                    Tile { first_row: i * TILE_ROWS, scores, exact }
                })
                .collect();
            out.push(Head { dataset, seq, v, tiles });
        }
    }
    out
}

pub fn engine_config(dataset: Dataset, noisy: bool) -> StarSoftmaxConfig {
    let cfg = StarSoftmaxConfig::new(dataset.paper_format());
    if noisy {
        cfg.with_noise(NoiseModel::typical()).with_seed(NOISY_CHIP)
    } else {
        cfg
    }
}

/// One engine per dataset, in `Dataset::ALL` order.
pub fn build_engines(noisy: bool) -> Vec<StarSoftmax> {
    Dataset::ALL
        .into_iter()
        .map(|d| StarSoftmax::new(engine_config(d, noisy)).expect("paper formats build engines"))
        .collect()
}

pub fn dataset_index(dataset: Dataset) -> usize {
    Dataset::ALL.iter().position(|&d| d == dataset).expect("dataset is listed")
}

/// Runs one tile: softmax through the engine, then `P · V`.
pub fn run_tile(engine: &mut StarSoftmax, tile: &Tile, v: &Matrix) -> (Matrix, Matrix) {
    let p = softmax_rows(engine, &tile.scores);
    let out = p.matmul(v).expect("P is rows × seq and V is seq × d_head");
    (p, out)
}

/// The serving point of `serve_steady`: Tiny/16, fleet 2, batch 8 with a
/// 50 µs window, 80 krps Poisson, over [`SERVE_HORIZON_NS`].
pub fn serve_steady_config(seed: u64, horizon_ns: f64) -> ServeConfig {
    ServeConfig {
        fleet: 2,
        policy: BatchPolicy::new(8, 50_000.0),
        arrival: ArrivalProcess::poisson(80_000.0),
        mix: WorkloadMix::single(RequestClass::new(ModelKind::Tiny, 16)),
        horizon_ns,
        seed,
        max_queue: 256,
        deadline_ns: 2e6,
        service: ServiceModelConfig::default(),
        control: ControlConfig::default(),
    }
}

/// The A11 blame point: BERT-base/128, fleet 2, batch 8 with a 50 µs
/// window, 32 krps Poisson over 100 ms.
pub fn a11_config(seed: u64) -> ServeConfig {
    ServeConfig {
        fleet: 2,
        policy: BatchPolicy::new(8, 50_000.0),
        arrival: ArrivalProcess::poisson(32_000.0),
        mix: WorkloadMix::single(RequestClass::new(ModelKind::BertBase, 128)),
        horizon_ns: 1e8,
        seed,
        max_queue: 256,
        deadline_ns: 2e6,
        service: ServiceModelConfig::default(),
        control: ControlConfig::default(),
    }
}

pub fn build_model(cfg: &ServeConfig) -> ServiceModel {
    ServiceModel::new(cfg.service.clone(), &cfg.mix.classes())
}

/// Runs `f` once; returns its result and its wall time, s.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// Times `f` `reps` times, in seconds.
pub fn time_reps<R>(reps: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..reps).map(|_| timed(&mut f).1).collect()
}

/// What an untraced run measured.
pub struct Outcome {
    /// Work units finished per host second.
    pub work_per_s: f64,
    /// Set-up time samples, s.
    pub setup: Vec<f64>,
    /// Timed-unit samples, s.
    pub unit: Vec<f64>,
    /// Digest of one unit's outputs (identical across units).
    pub digest: Digest,
    pub checks: Checks,
    /// Report lines for the human-readable part of the output.
    pub lines: Vec<String>,
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    match workload {
        Workload::AttentionIdeal => run_softmax(false, seed, deadline),
        Workload::SoftmaxNoisy => run_softmax(true, seed, deadline),
        Workload::ServeSteady => run_serve(seed, deadline),
        Workload::WhatifA11 => run_whatif(seed, deadline),
    }
}

/// Folds one tile's outputs into `digest` and checks every row.
/// Returns the tile's max |Δp|.
pub fn check_tile(
    checks: &mut Checks,
    digest: &mut Digest,
    head: &Head,
    tile: &Tile,
    (p, out): (&Matrix, &Matrix),
) -> f64 {
    digest.f64s(p.as_slice());
    digest.f64s(out.as_slice());
    (0..p.rows()).fold(0.0, |worst, r| {
        let label = format!("{} row {}", head.label(), tile.first_row + r);
        worst.max(check_row(checks, &label, p.row(r), tile.exact.row(r)))
    })
}

/// Checks a stage replay against the engine's row, bit for bit.
pub fn check_replay(checks: &mut Checks, head: &Head, row: usize, got: &[f64], want: &[f64]) {
    let same =
        got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
    checks.check(same, || {
        format!("{} row {row}: stage replay differs from softmax_row", head.label())
    });
}

/// `attention_ideal` / `softmax_noisy`: passes over the nine heads until
/// the deadline, at least one whole pass. A pass visits the heads' tiles
/// round-robin, so each head's samples spread over the whole run, and
/// times one set-up after every round. Each pass runs on freshly built
/// engines, so every whole pass must reproduce the first one's outputs
/// bit for bit.
fn run_softmax(noisy: bool, seed: u64, deadline: Instant) -> Outcome {
    let heads = heads(seed, None);
    let rounds = heads.iter().map(|h| h.tiles.len()).max().expect("nine heads");
    let mut setup = Vec::new();
    let mut checks = Checks::default();
    let mut per_head: Vec<Vec<f64>> = vec![Vec::new(); heads.len()];
    let mut first: Option<Digest> = None;
    let mut max_err = 0.0f64;
    let (mut passes, mut faults) = (0u64, 0u64);
    'passes: loop {
        let mut engines = build_engines(noisy);
        let mut replays: Vec<StageReplay> = if noisy || passes > 0 {
            Vec::new()
        } else {
            engines.iter().map(StageReplay::new).collect()
        };
        let mut digests = vec![Digest::default(); heads.len()];
        for round in 0..rounds {
            for (k, head) in heads.iter().enumerate() {
                // Shorter heads cycle through their tiles again, so every
                // head gets as many samples as the longest one; only the
                // first visit of a tile feeds the digest.
                let tile = &head.tiles[round % head.tiles.len()];
                let d = dataset_index(head.dataset);
                let t = Instant::now();
                let (p, out) = run_tile(&mut engines[d], black_box(tile), &head.v);
                per_head[k].push(t.elapsed().as_secs_f64());
                let mut repeat = Digest::default();
                let digest = if round < head.tiles.len() { &mut digests[k] } else { &mut repeat };
                max_err = max_err.max(check_tile(&mut checks, digest, head, tile, (&p, &out)));
                if round >= head.tiles.len() {
                    continue;
                }
                if let Some(replay) = replays.get_mut(d) {
                    let got = replay.row(tile.scores.row(0), &mut [0.0; 7]);
                    check_replay(&mut checks, head, tile.first_row, &got, p.row(0));
                }
            }
            setup.push(timed(|| build_engines(noisy)).1);
            if passes > 0 && Instant::now() >= deadline {
                break 'passes;
            }
        }
        faults += engines.iter().map(StarSoftmax::fault_events).sum::<u64>();
        let mut digest = Digest::default();
        for d in &digests {
            digest.bytes(d.hex().as_bytes());
        }
        let want = *first.get_or_insert(digest);
        checks.check(digest == want, || format!("pass {passes} digest differs from pass 0"));
        passes += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    // A pass costs the fastest tile time of each head times its tiles.
    let elements: usize = heads.iter().map(Head::elements).sum();
    let pass_s: f64 = heads
        .iter()
        .zip(&per_head)
        .map(|(h, s)| fastest(s).expect("every head ran") * h.tiles.len() as f64)
        .sum();
    let mut lines = vec![format!(
        "heads: 3 datasets x seq {SEQS:?}, d_head {D_HEAD}, tiles of {TILE_ROWS} rows, \
         {elements} elements per pass, {passes} passes, {} engine",
        if noisy { "noisy (typical noise, chip 2)" } else { "ideal" }
    )];
    for (head, samples) in heads.iter().zip(&per_head) {
        let s = Summary::of(samples).expect("every head ran");
        lines.push(format!("  tile {:<10} {}", head.label(), s.render(1e3, "ms")));
    }
    lines.push(format!("elems_per_s {:.1}", elements as f64 / pass_s));
    lines.push(format!("max_abs_err {max_err:.6e}"));
    if noisy {
        lines.push(format!("fault recoveries {faults} over {passes} passes"));
        checks.check(faults > 0, || "the noisy chip never needed fault recovery".to_string());
    }
    Outcome {
        work_per_s: elements as f64 / pass_s,
        setup,
        unit: per_head.concat(),
        digest: first.expect("at least one pass"),
        checks,
        lines,
    }
}

fn report_digest(report: &star_serve::ServeReport) -> Digest {
    let mut d = Digest::default();
    d.bytes(serde_json::to_string(report).expect("reports serialize").as_bytes());
    d
}

/// `serve_steady`: untraced `simulate` at the steady serving point,
/// repeated until the deadline. Events come from one profiled run,
/// which is never timed.
fn run_serve(seed: u64, deadline: Instant) -> Outcome {
    let cfg = serve_steady_config(seed, SERVE_HORIZON_NS);
    let mut setup = Vec::new();
    let profiled = simulate_profiled(&cfg);
    let events =
        profiled.profile.as_ref().expect("profiled run carries a profile").work.events_total;
    let mut checks = Checks::default();
    let r = &profiled.report;
    checks.check(r.arrivals == r.completed + r.rejected + r.expired, || {
        format!(
            "arrivals {} != completed {} + rejected {} + expired {}",
            r.arrivals, r.completed, r.rejected, r.expired
        )
    });
    let digest = report_digest(r);
    let mut unit = Vec::new();
    loop {
        setup.push(timed(|| build_model(&cfg)).1);
        let t = Instant::now();
        let report = simulate(black_box(&cfg));
        unit.push(t.elapsed().as_secs_f64());
        checks.check(report == profiled.report, || {
            format!("simulate run {} differs from the profiled report", unit.len())
        });
        if Instant::now() >= deadline {
            break;
        }
    }
    let build_s = fastest(&setup).expect("set-up ran");
    let loop_s = fastest(&unit).expect("simulate ran") - build_s;
    let lines = vec![
        format!(
            "serve: Tiny/16, fleet 2, batch 8 / 50 us, 80 krps, horizon {:.1} s: \
             {} arrivals, {} completed, {events} events",
            SERVE_HORIZON_NS / 1e9,
            r.arrivals,
            r.completed
        ),
        format!("  simulate  {}", Summary::of(&unit).expect("ran").render(1e3, "ms")),
        format!("  model build (excluded from the loop) {:.4} ms", build_s * 1e3),
        format!("events_per_s {:.1}", events as f64 / loop_s),
    ];
    Outcome { work_per_s: events as f64 / loop_s, setup, unit, digest, checks, lines }
}

/// One full A11 analysis: a blamed run plus the standard what-if menu.
pub fn analysis(cfg: &ServeConfig) -> (star_serve::SimOutcome, star_serve::WhatIfReport) {
    (simulate_blamed(cfg), run_what_ifs(cfg, 1, &WhatIf::standard()))
}

/// Checks an analysis: every completed request's blame components
/// recompose its latency bitwise. Returns the digest of the blame and
/// ranked what-if tables.
pub fn check_analysis(
    checks: &mut Checks,
    blamed: &star_serve::SimOutcome,
    what_if: &star_serve::WhatIfReport,
) -> Digest {
    let blame = blamed.blame.as_ref().expect("blamed run carries blame tables");
    let broken = blame.requests.iter().filter(|b| b.components_sum() != b.latency_ns).count();
    checks.check(broken == 0 && !blame.requests.is_empty(), || {
        format!("{broken} of {} requests do not recompose bitwise", blame.requests.len())
    });
    let mut d = Digest::default();
    d.bytes(serde_json::to_string(&blame.report).expect("blame serializes").as_bytes());
    d.bytes(serde_json::to_string(what_if).expect("what-if serializes").as_bytes());
    d
}

/// `whatif_a11`: the full blame + what-if analysis, repeated until the
/// deadline; every repetition must rank the same table.
fn run_whatif(seed: u64, deadline: Instant) -> Outcome {
    let cfg = a11_config(seed);
    let mut setup = Vec::new();
    let mut checks = Checks::default();
    let mut unit = Vec::new();
    let mut first: Option<Digest> = None;
    let mut best = String::new();
    loop {
        setup.push(timed(|| build_model(&cfg)).1);
        let t = Instant::now();
        let (blamed, what_if) = analysis(black_box(&cfg));
        unit.push(t.elapsed().as_secs_f64());
        let digest = check_analysis(&mut checks, &blamed, &what_if);
        let want = *first.get_or_insert(digest);
        checks.check(digest == want, || format!("analysis {} ranks a different table", unit.len()));
        if best.is_empty() {
            best = what_if.best().map_or("none".to_string(), |w| w.label.clone());
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let analysis_s = fastest(&unit).expect("analysis ran");
    let lines = vec![
        format!(
            "whatif: BERT-base/128, fleet 2, batch 8 / 50 us, 32 krps, 100 ms; \
             blamed run + {} what-ifs, best `{best}`",
            WhatIf::standard().len()
        ),
        format!("  analysis  {}", Summary::of(&unit).expect("ran").render(1e3, "ms")),
        format!("analysis_s {analysis_s:.6}"),
    ];
    Outcome {
        work_per_s: 1.0 / analysis_s,
        setup,
        unit,
        digest: first.expect("at least one analysis"),
        checks,
        lines,
    }
}
