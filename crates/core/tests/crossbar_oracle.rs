//! The STAR engine against its crossbar oracle, bit for bit.
//!
//! `StarSoftmax` reads each stage that draws no random numbers — the
//! CAM/SUB max search, the noiseless subtract, the exp CAM search and the
//! LUT read — once per code from the arrays' cost-free peeks, and records
//! the per-operation costs in bulk. This suite holds it to the dataflow it
//! replaced. [`Oracle`] rebuilds an engine's four arrays from the public
//! crossbar API with the engine's own seed (so it samples the same stuck
//! cells and continues the same RNG stream), then runs every element
//! through `find_max`, `subtract` / `subtract_noisy`, `search`,
//! `read_row` and `multiply_with`, one call per operation.
//!
//! Two layers of checks, on an ideal chip, a heavily stuck-faulted chip
//! and a `typical()` noisy chip:
//!
//! - exhaustively, per paper format: every input code's search, every
//!   (x, max) code pair's subtract, and every magnitude's exp CAM row and
//!   LUT word agree between the pure peeks the engine's tables are filled
//!   from and the recording operations the oracle calls;
//! - per row (dataset rows, code sweeps and proptest rows): probabilities,
//!   `fault_events`, `measured_energy`, and the `crossbar.*` / `device.*`
//!   counters and gauges of a `with_scoped` snapshot.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use star_attention::RowSoftmax;
use star_core::{fixed_divide, StarSoftmax, StarSoftmaxConfig};
use star_crossbar::{CamCrossbar, CamSubCrossbar, LutCrossbar, Readout, VmmCrossbar};
use star_device::{Energy, NoiseModel};
use star_fixed::{encoding, Fixed, QFormat, Rounding};
use star_telemetry::{with_scoped, Snapshot};
use star_workload::{Dataset, ScoreTrace};
use std::collections::BTreeMap;

/// The per-element crossbar dataflow of one engine, on arrays of its own.
struct Oracle {
    config: StarSoftmaxConfig,
    cam_sub: CamSubCrossbar,
    exp_cam: CamCrossbar,
    lut: LutCrossbar,
    vmm: VmmCrossbar,
    counter_bits: u8,
    fault_events: u64,
    rng: ChaCha8Rng,
}

impl Oracle {
    /// Rebuilds `engine`'s arrays in its construction order from its seed,
    /// and programs them from its exponential code table.
    fn new(engine: &StarSoftmax) -> Oracle {
        let cfg = *engine.config();
        let fmt = cfg.format;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let cam_sub = CamSubCrossbar::new(fmt, &cfg.tech, cfg.noise, &mut rng);
        let magnitudes = fmt.num_magnitudes() as usize;
        let mag_bits = fmt.value_bits() as usize;
        let word = cfg.exp_word_bits;
        let mut exp_cam = CamCrossbar::new(magnitudes, mag_bits, &cfg.tech, cfg.noise, &mut rng);
        let mut lut = LutCrossbar::new(magnitudes, word as usize, &cfg.tech, cfg.noise, &mut rng);
        let readout = cfg.vmm_adc.map_or(Readout::Ideal, Readout::Adc);
        let mut vmm =
            VmmCrossbar::new(magnitudes, 1, word, readout, &cfg.tech, cfg.noise, &mut rng);
        for (m, &code) in engine.exp_codes().iter().enumerate() {
            lut.store_word(m, u64::from(code));
            let bits: Vec<bool> = (0..mag_bits).rev().map(|b| (m >> b) & 1 == 1).collect();
            exp_cam.store_row(m, &bits);
        }
        let weights: Vec<Vec<u32>> = engine.exp_codes().iter().map(|&c| vec![c]).collect();
        vmm.store_weights(&weights);
        Oracle {
            config: cfg,
            cam_sub,
            exp_cam,
            lut,
            vmm,
            counter_bits: (usize::BITS - cfg.max_row_len.leading_zeros()) as u8,
            fault_events: 0,
            rng,
        }
    }

    /// One row, one crossbar call per operation.
    fn softmax_row(&mut self, scores: &[f64]) -> Vec<f64> {
        let fmt = self.config.format;
        let xs: Vec<Fixed> =
            scores.iter().map(|&s| Fixed::from_f64(s, fmt, Rounding::Nearest)).collect();
        let max = match self.cam_sub.find_max(&xs) {
            Ok(found) => found.max,
            Err(_) => {
                self.fault_events += 1;
                xs.iter().copied().max().expect("non-empty")
            }
        };
        let noise = self.config.noise;
        let diffs: Vec<Fixed> = if noise.read_sigma > 0.0 {
            xs.iter().map(|&x| self.cam_sub.subtract_noisy(x, max, &noise, &mut self.rng)).collect()
        } else {
            xs.iter().map(|&x| self.cam_sub.subtract(x, max)).collect()
        };
        let mut histogram = vec![0u64; fmt.num_magnitudes() as usize];
        let codes: Vec<u64> = diffs
            .iter()
            .map(|&d| {
                let clamped = encoding::clamp_for_magnitude(d);
                let hits = self.exp_cam.search(&encoding::to_magnitude(clamped));
                let mut hot = hits.iter().enumerate().filter(|(_, &h)| h).map(|(i, _)| i);
                let row = match (hot.next(), hot.next()) {
                    (Some(r), None) => r,
                    _ => {
                        self.fault_events += 1;
                        clamped.magnitude_code() as usize
                    }
                };
                histogram[row] += 1;
                u64::from(self.lut.read_row(row) as u32)
            })
            .collect();
        let sum_raw = if noise.read_sigma > 0.0 {
            self.vmm.multiply_with(&histogram, self.counter_bits, &mut self.rng)[0]
        } else {
            self.vmm.multiply(&histogram, self.counter_bits)[0]
        };
        let sum = sum_raw.round().max(1.0) as u64;
        codes.iter().map(|&c| fixed_divide(c, sum, self.config.quotient_bits)).collect()
    }

    fn measured_energy(&self) -> Energy {
        self.cam_sub.measured_energy()
            + self.exp_cam.ledger().energy
            + self.lut.ledger().energy
            + self.vmm.ledger().energy
    }
}

/// The three chips: ideal, heavily stuck-faulted (noiseless reads, so
/// every stage is table-driven, with fault recovery firing), and a
/// mature process with read noise.
fn chips() -> [(&'static str, NoiseModel); 3] {
    [
        ("ideal", NoiseModel::ideal()),
        ("stuck", NoiseModel::new(0.0, 0.0, 0.02, 0.02)),
        ("typical", NoiseModel::typical()),
    ]
}

fn paper_points() -> [(Dataset, QFormat); 3] {
    [
        (Dataset::Cnews, QFormat::CNEWS),
        (Dataset::Mrpc, QFormat::MRPC),
        (Dataset::Cola, QFormat::COLA),
    ]
}

fn engine(format: QFormat, noise: NoiseModel, seed: u64) -> StarSoftmax {
    StarSoftmax::new(StarSoftmaxConfig::new(format).with_noise(noise).with_seed(seed))
        .expect("valid config")
}

/// The hardware-accounting part of a snapshot, with gauges as raw bits.
fn accounting(snap: &Snapshot) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let keep = |k: &String| k.starts_with("crossbar.") || k.starts_with("device.");
    let counters = snap.counters.iter().filter(|(k, _)| keep(k)).map(|(k, &v)| (k.clone(), v));
    let gauges = snap.gauges.iter().filter(|(k, _)| keep(k)).map(|(k, v)| (k.clone(), v.to_bits()));
    (counters.collect(), gauges.collect())
}

fn bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|v| v.to_bits()).collect()
}

/// Runs `rows` through a fresh engine and its oracle and asserts bitwise
/// agreement of every output, the fault count, the ledgers and the
/// telemetry.
fn assert_engine_matches_oracle(
    label: &str,
    format: QFormat,
    noise: NoiseModel,
    seed: u64,
    rows: &[Vec<f64>],
) {
    let mut star = engine(format, noise, seed);
    let mut oracle = Oracle::new(&star);
    let (fast, fast_snap) =
        with_scoped(|| rows.iter().map(|r| star.softmax_row(r)).collect::<Vec<_>>());
    let (slow, slow_snap) =
        with_scoped(|| rows.iter().map(|r| oracle.softmax_row(r)).collect::<Vec<_>>());
    for (i, (p, q)) in fast.iter().zip(&slow).enumerate() {
        assert_eq!(bits(p), bits(q), "{label}: row {i} probabilities differ");
    }
    assert_eq!(star.fault_events(), oracle.fault_events, "{label}: fault events");
    assert_eq!(
        star.measured_energy().value().to_bits(),
        oracle.measured_energy().value().to_bits(),
        "{label}: measured energy"
    );
    assert_eq!(accounting(&fast_snap), accounting(&slow_snap), "{label}: telemetry");
    assert_eq!(
        fast_snap.counters.get("crossbar.cam.searches"),
        Some(&(2 * rows.iter().map(Vec::len).sum::<usize>() as u64)),
        "{label}: every element still costs two searches"
    );
}

// ───────────────────── exhaustive, per paper format ─────────────────────

#[test]
fn every_input_code_search_agrees_with_its_peek() {
    for (_, format) in paper_points() {
        for (chip, noise) in chips() {
            let mut oracle = Oracle::new(&engine(format, noise, 0x57A5));
            let peek = oracle.cam_sub.clone();
            for raw in format.min_raw()..=format.max_raw() {
                let x = Fixed::from_raw(raw, format);
                let found = oracle.cam_sub.find_max(&[x]);
                let first = peek.first_match(x);
                match found {
                    Ok(f) => assert_eq!(Some(f.row), first, "{format}/{chip}: code {raw}"),
                    Err(_) => assert_eq!(None, first, "{format}/{chip}: code {raw}"),
                }
            }
        }
    }
}

#[test]
fn every_code_pair_subtract_agrees_with_effective_raws() {
    // The noiseless subtract only runs on chips without read noise.
    for (_, format) in paper_points() {
        for (chip, noise) in chips().into_iter().filter(|(_, n)| n.read_sigma == 0.0) {
            let mut oracle = Oracle::new(&engine(format, noise, 0x57A5));
            let peek = oracle.cam_sub.clone();
            let raws: Vec<i64> =
                (0..peek.geometry().rows()).map(|r| peek.effective_raw(r)).collect();
            for mr in format.min_raw()..=format.max_raw() {
                let max = Fixed::from_raw(mr, format);
                let vm = raws[peek.row_of(max)];
                for xr in format.min_raw()..=format.max_raw() {
                    let x = Fixed::from_raw(xr, format);
                    let table = Fixed::from_raw((raws[peek.row_of(x)] - vm).min(0), format);
                    let d = oracle.cam_sub.subtract(x, max);
                    assert_eq!(d, table, "{format}/{chip}: {xr} − {mr}");
                }
            }
        }
    }
}

#[test]
fn every_magnitude_exp_row_and_lut_word_agree_with_their_peeks() {
    for (_, format) in paper_points() {
        for (chip, noise) in chips() {
            let mut oracle = Oracle::new(&engine(format, noise, 0x57A5));
            let mag_bits = format.value_bits() as usize;
            for mag in 0..format.num_magnitudes() as usize {
                let key: Vec<bool> = (0..mag_bits).rev().map(|b| (mag >> b) & 1 == 1).collect();
                let clamped = Fixed::from_raw(-(mag as i64), format);
                assert_eq!(encoding::to_magnitude(clamped), key, "{format}: magnitude {mag} key");
                let peeked = oracle.exp_cam.matches(&key);
                assert_eq!(oracle.exp_cam.search(&key), peeked, "{format}/{chip}: magnitude {mag}");
                let peeked = oracle.lut.peek_row(mag);
                assert_eq!(oracle.lut.read_row(mag), peeked, "{format}/{chip}: LUT row {mag}");
            }
        }
    }
}

// ───────────────────────────── whole rows ─────────────────────────────

#[test]
fn dataset_rows_agree_on_every_chip() {
    for (dataset, format) in paper_points() {
        let trace = ScoreTrace::generate(dataset, 64, 48, 0xD1FF);
        for (chip, noise) in chips() {
            let label = format!("{dataset:?}/{chip}");
            assert_engine_matches_oracle(&label, format, noise, 0x57A5, &trace.rows);
        }
    }
}

#[test]
fn code_sweep_rows_agree_on_every_chip() {
    // One row holding every code of the format (so every code is searched,
    // and on an ideal chip every magnitude reaches the exp stage), then
    // descending 256-code windows below a spread of maxima (so the
    // subtract meets many maxima).
    for (_, format) in paper_points() {
        let res = format.resolution();
        let all: Vec<f64> = (format.min_raw()..=format.max_raw()).map(|r| r as f64 * res).collect();
        let mut rows = vec![all];
        let step = (format.num_codes() as i64 / 7).max(1) as usize;
        for top in (format.min_raw()..=format.max_raw()).rev().step_by(step) {
            let lo = (top - 255).max(format.min_raw());
            rows.push((lo..=top).rev().map(|r| r as f64 * res).collect());
        }
        for (chip, noise) in chips() {
            for seed in [0x57A5, 3] {
                let label = format!("{format}/{chip}/seed {seed}");
                assert_engine_matches_oracle(&label, format, noise, seed, &rows);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_rows_agree_with_the_oracle(
        point in 0usize..3,
        chip in 0usize..3,
        seed in 0u64..1_000_000,
        rows in prop::collection::vec(prop::collection::vec(-40.0f64..40.0, 1..64), 1..5),
    ) {
        let (_, format) = paper_points()[point];
        let (name, noise) = chips()[chip];
        let label = format!("{format}/{name}/seed {seed}");
        assert_engine_matches_oracle(&label, format, noise, seed, &rows);
    }
}
