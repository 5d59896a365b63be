//! Stage-by-stage replay of one STAR row on crossbars of its own.
//!
//! The replay rebuilds an ideal engine's four arrays from the public
//! crossbar API, programs them from `StarSoftmax::exp_codes()`, and runs
//! the engine's dataflow one stage at a time under its own timer:
//! quantize, CAM/SUB max search, CAM/SUB subtract, exp CAM search, LUT
//! read, VMM sum and divide. On an ideal engine the recomposed row must
//! equal `softmax_row` bit for bit.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use star_core::{fixed_divide, StarSoftmax};
use star_crossbar::{CamCrossbar, CamSubCrossbar, LutCrossbar, Readout, VmmCrossbar};
use star_fixed::{encoding, Fixed, QFormat, Rounding};
use std::time::Instant;

pub struct StageReplay {
    format: QFormat,
    cam_sub: CamSubCrossbar,
    exp_cam: CamCrossbar,
    lut: LutCrossbar,
    vmm: VmmCrossbar,
    counter_bits: u8,
    quotient_bits: u8,
}

impl StageReplay {
    /// Rebuilds the arrays of an ideal `engine` and programs them from
    /// its exponential code table.
    pub fn new(engine: &StarSoftmax) -> StageReplay {
        let cfg = engine.config();
        assert!(cfg.noise.is_ideal(), "the replay reproduces ideal engines only");
        let format = cfg.format;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let cam_sub = CamSubCrossbar::new(format, &cfg.tech, cfg.noise, &mut rng);
        let magnitudes = format.num_magnitudes() as usize;
        let mag_bits = format.value_bits() as usize;
        let word = cfg.exp_word_bits;
        let mut exp_cam = CamCrossbar::new(magnitudes, mag_bits, &cfg.tech, cfg.noise, &mut rng);
        let mut lut = LutCrossbar::new(magnitudes, word as usize, &cfg.tech, cfg.noise, &mut rng);
        let readout = cfg.vmm_adc.map_or(Readout::Ideal, Readout::Adc);
        let mut vmm =
            VmmCrossbar::new(magnitudes, 1, word, readout, &cfg.tech, cfg.noise, &mut rng);
        let codes = engine.exp_codes();
        for (m, &code) in codes.iter().enumerate() {
            lut.store_word(m, u64::from(code));
            let bits: Vec<bool> = (0..mag_bits).rev().map(|b| (m >> b) & 1 == 1).collect();
            exp_cam.store_row(m, &bits);
        }
        let weights: Vec<Vec<u32>> = codes.iter().map(|&c| vec![c]).collect();
        vmm.store_weights(&weights);
        StageReplay {
            format,
            cam_sub,
            exp_cam,
            lut,
            vmm,
            counter_bits: (usize::BITS - cfg.max_row_len.leading_zeros()) as u8,
            quotient_bits: cfg.quotient_bits,
        }
    }

    /// Replays one row, adding each stage's wall time (ns) into
    /// `stage_ns`, indexed in dataflow order: quantize, max search,
    /// subtract, exp CAM search, LUT read, VMM sum, divide.
    pub fn row(&mut self, scores: &[f64], stage_ns: &mut [f64; 7]) -> Vec<f64> {
        let mut clock = Instant::now();
        let mut lap = |stage: usize| {
            let now = Instant::now();
            stage_ns[stage] += (now - clock).as_nanos() as f64;
            clock = now;
        };
        let xs: Vec<Fixed> =
            scores.iter().map(|&s| Fixed::from_f64(s, self.format, Rounding::Nearest)).collect();
        lap(0);
        let max = self.cam_sub.find_max(&xs).expect("an ideal array always matches").max;
        lap(1);
        let diffs: Vec<Fixed> = xs.iter().map(|&x| self.cam_sub.subtract(x, max)).collect();
        lap(2);
        let rows: Vec<usize> = diffs
            .iter()
            .map(|&d| {
                let key = encoding::to_magnitude(encoding::clamp_for_magnitude(d));
                let hits = self.exp_cam.search(&key);
                let mut hot = hits.iter().enumerate().filter(|(_, &h)| h).map(|(i, _)| i);
                match (hot.next(), hot.next()) {
                    (Some(r), None) => r,
                    _ => panic!("an ideal exp CAM matches exactly one row"),
                }
            })
            .collect();
        lap(3);
        let codes: Vec<u64> = rows.iter().map(|&r| self.lut.read_row(r)).collect();
        lap(4);
        let mut histogram = vec![0u64; self.format.num_magnitudes() as usize];
        for &r in &rows {
            histogram[r] += 1;
        }
        let sum = self.vmm.multiply(&histogram, self.counter_bits)[0].round().max(1.0) as u64;
        lap(5);
        let out = codes.iter().map(|&c| fixed_divide(c, sum, self.quotient_bits)).collect();
        lap(6);
        out
    }
}
