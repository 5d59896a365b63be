//! The time-multiplexed CAM/SUB crossbar of Fig. 1.
//!
//! One array, two roles:
//!
//! 1. **CAM (max find):** every representable value is stored in
//!    **descending order** (row 0 holds the largest code). Each input `x_i`
//!    is searched; the per-input one-hot match vectors are OR-merged, and
//!    the *first* '1' in the merged vector — found by a priority encoder —
//!    is the row of `x_max`.
//! 2. **SUB (subtraction):** the match vector drives the wordlines with the
//!    `x_max` row driven negatively; each bitline then carries the current
//!    difference of the two stored bit patterns, and the weighted
//!    recombination of the bitline outputs is exactly `x_i − x_max`.

use crate::cam::CamCrossbar;
use crate::geometry::{Geometry, Ledger, OpCost};
use rand::Rng;
use serde::{Deserialize, Serialize};
use star_device::peripherals::PeripheralLibrary;
use star_device::{CostSheet, Latency, NoiseModel, TechnologyParams};
use star_fixed::{encoding, Fixed, QFormat};
use std::error::Error;
use std::fmt;

/// Error from a CAM max search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchError {
    /// The input vector was empty.
    EmptyInput,
    /// No stored row matched any input — only possible when stuck faults
    /// corrupt the array.
    NoMatch,
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::EmptyInput => write!(f, "cannot search an empty input vector"),
            SearchError::NoMatch => write!(f, "no CAM row matched any input (defective array)"),
        }
    }
}

impl Error for SearchError {}

/// Outcome of the max-find phase.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxSearchResult {
    /// The maximum value found (read back from the winning row).
    pub max: Fixed,
    /// The winning row index.
    pub row: usize,
    /// The OR-merged match vector across all inputs.
    pub merged: Vec<bool>,
    /// Per-input matched row (None if a defect prevented the match).
    pub per_input_rows: Vec<Option<usize>>,
}

/// The CAM/SUB crossbar: `2^total_bits` rows (512 for the paper's 9-bit
/// configuration) by `2·total_bits` physical columns (18).
///
/// # Examples
///
/// ```
/// use star_crossbar::CamSubCrossbar;
/// use star_device::{NoiseModel, TechnologyParams};
/// use star_fixed::{Fixed, QFormat, Rounding};
/// use rand::SeedableRng;
///
/// let fmt = QFormat::new(5, 3)?; // 9-bit values (sign + 5 + 3)
/// let tech = TechnologyParams::cmos32();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let mut xbar = CamSubCrossbar::new(fmt, &tech, NoiseModel::ideal(), &mut rng);
/// assert_eq!(xbar.geometry().rows(), 512);
/// assert_eq!(xbar.geometry().cols(), 18);
///
/// let xs: Vec<Fixed> = [1.5, -3.0, 4.25, 0.0]
///     .iter()
///     .map(|&v| Fixed::from_f64(v, fmt, Rounding::Nearest))
///     .collect();
/// let found = xbar.find_max(&xs).expect("ideal array always matches");
/// assert_eq!(found.max.to_f64(), 4.25);
/// let diff = xbar.subtract(xs[1], found.max);
/// assert_eq!(diff.to_f64(), -7.25);
/// # Ok::<(), star_fixed::FormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CamSubCrossbar {
    format: QFormat,
    cam: CamCrossbar,
    tech: TechnologyParams,
    ledger: Ledger,
}

impl CamSubCrossbar {
    /// Builds the array for a value format, programming every representable
    /// value in descending order.
    pub fn new<R: Rng + ?Sized>(
        format: QFormat,
        tech: &TechnologyParams,
        noise: NoiseModel,
        rng: &mut R,
    ) -> Self {
        let rows = format.num_codes() as usize;
        let word_bits = format.total_bits() as usize;
        let mut cam = CamCrossbar::new(rows, word_bits, tech, noise, rng);
        for row in 0..rows {
            let raw = format.max_raw() - row as i64;
            let bits = encoding::to_twos_complement(Fixed::from_raw(raw, format));
            cam.store_row(row, &bits);
        }
        CamSubCrossbar { format, cam, tech: *tech, ledger: Ledger::new() }
    }

    /// The value format the array is built for.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Array shape.
    pub fn geometry(&self) -> Geometry {
        self.cam.geometry()
    }

    /// Row index storing a value (descending order: row 0 = max code).
    pub fn row_of(&self, value: Fixed) -> usize {
        debug_assert_eq!(value.format(), self.format, "value format mismatch");
        (self.format.max_raw() - value.raw()) as usize
    }

    /// The nominal value stored at a row.
    pub fn value_of(&self, row: usize) -> Fixed {
        assert!(row < self.geometry().rows(), "row {row} out of range");
        Fixed::from_raw(self.format.max_raw() - row as i64, self.format)
    }

    /// CAM phase: finds the maximum of the inputs (Fig. 1 steps ①–③).
    ///
    /// Each input is searched (one cycle each), match vectors are OR-merged,
    /// and the first hot row wins. Inputs must already be quantized to the
    /// array's format.
    ///
    /// # Errors
    ///
    /// [`SearchError::EmptyInput`] for an empty slice;
    /// [`SearchError::NoMatch`] if stuck faults prevent every match.
    ///
    /// # Panics
    ///
    /// Panics (debug) if any input has a different format.
    pub fn find_max(&mut self, inputs: &[Fixed]) -> Result<MaxSearchResult, SearchError> {
        if inputs.is_empty() {
            return Err(SearchError::EmptyInput);
        }
        let rows = self.geometry().rows();
        let mut merged = vec![false; rows];
        let mut per_input_rows = Vec::with_capacity(inputs.len());
        for &x in inputs {
            debug_assert_eq!(x.format(), self.format, "input format mismatch");
            let hits = self.cam.matches(&encoding::to_twos_complement(x));
            for (m, &hit) in merged.iter_mut().zip(&hits) {
                *m |= hit;
            }
            per_input_rows.push(hits.iter().position(|&h| h));
        }
        self.record_max_search(inputs.len() as u64);
        let row = merged.iter().position(|&h| h).ok_or(SearchError::NoMatch)?;
        Ok(MaxSearchResult { max: self.value_of(row), row, merged, per_input_rows })
    }

    /// The first row a search for `x` matches, without recording its
    /// cost. The max search's winner is the smallest of these over its
    /// inputs (OR-merge then priority encode), and `None` for every input
    /// is [`SearchError::NoMatch`]. Pure: it draws no random numbers.
    pub fn first_match(&self, x: Fixed) -> Option<usize> {
        debug_assert_eq!(x.format(), self.format, "input format mismatch");
        self.cam.first_match(&encoding::to_twos_complement(x))
    }

    /// The raw code a row *effectively* stores, reading through any stuck
    /// faults — what the bitlines carry when the row is driven. The
    /// noiseless [`CamSubCrossbar::subtract`] of `x` and `max` is
    /// `(effective_raw(row_of(x)) − effective_raw(row_of(max))).min(0)`.
    pub fn effective_raw(&self, row: usize) -> i64 {
        encoding::from_twos_complement(&self.cam.effective_row(row), self.format).raw()
    }

    /// Records a max search over `n` inputs: `n` CAM searches and one
    /// OR-merge + priority encode, bit-identically to what
    /// [`CamSubCrossbar::find_max`] records.
    pub fn record_max_search(&mut self, n: u64) {
        self.cam.record_searches(n);
        let merge = self.merge_cost();
        self.ledger.record(merge);
        star_telemetry::count("crossbar.camsub.max_searches", 1);
        star_telemetry::add("crossbar.camsub.energy_pj", merge.energy.value());
    }

    /// SUB phase for one input (Fig. 1 steps ④–⑤): drives `x`'s row
    /// positively and `max`'s row negatively; the bitline difference
    /// currents recombine into `x − max`.
    ///
    /// The result saturates at the format's minimum (hardware clips — the
    /// downstream exponential of a fully saturated difference is ≈ 0
    /// anyway). Computed through the *effective* stored patterns, so stuck
    /// faults corrupt the result exactly as they would on silicon.
    pub fn subtract(&mut self, x: Fixed, max: Fixed) -> Fixed {
        debug_assert_eq!(x.format(), self.format);
        debug_assert_eq!(max.format(), self.format);
        let vx = self.effective_raw(self.row_of(x));
        let vm = self.effective_raw(self.row_of(max));
        self.record_subtracts(1);
        // Differences are ≤ 0 by construction.
        Fixed::from_raw((vx - vm).min(0), self.format)
    }

    /// Records the cost of `n` subtractions in the ledger and telemetry,
    /// bit-identically to `n` calls of [`CamSubCrossbar::subtract`].
    pub fn record_subtracts(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let sub = self.subtract_cost();
        self.ledger.record_n(sub, n);
        star_telemetry::count("crossbar.camsub.subtracts", n);
        let energy = sub.energy.value();
        star_telemetry::add_all("crossbar.camsub.energy_pj", (0..n).map(|_| energy));
    }

    /// Like [`CamSubCrossbar::subtract`], additionally applying per-bitline
    /// read noise from `noise` before the sense threshold.
    pub fn subtract_noisy<R: Rng + ?Sized>(
        &mut self,
        x: Fixed,
        max: Fixed,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> Fixed {
        // Per-column ternary sense: noise shifts the normalized differential
        // current; the ±0.5 thresholds absorb it unless it exceeds half a
        // unit current.
        let row_x = self.row_of(x);
        let row_m = self.row_of(max);
        let bits_x = self.cam.effective_row(row_x);
        let bits_m = self.cam.effective_row(row_m);
        let n = bits_x.len();
        let mut raw: i64 = 0;
        for j in 0..n {
            let ideal = i64::from(bits_x[j]) - i64::from(bits_m[j]);
            let sensed = noise.read(ideal as f64, rng);
            let digit = sensed.round().clamp(-1.0, 1.0) as i64;
            let weight = 1i64 << (n - 1 - j);
            raw += if j == 0 { -digit * weight } else { digit * weight };
        }
        self.record_subtracts(1);
        Fixed::from_raw(raw.min(0), self.format)
    }

    /// Full stage 1 of the softmax: max-find followed by per-input
    /// subtraction.
    ///
    /// # Errors
    ///
    /// Propagates [`SearchError`] from the max search.
    pub fn stage1(&mut self, inputs: &[Fixed]) -> Result<(Fixed, Vec<Fixed>), SearchError> {
        let found = self.find_max(inputs)?;
        let diffs = inputs.iter().map(|&x| self.subtract(x, found.max)).collect();
        Ok((found.max, diffs))
    }

    /// Cost of one CAM search cycle (per input).
    pub fn search_cost(&self) -> OpCost {
        self.cam.search_cost()
    }

    /// Cost of the OR-merge + priority-encode step after all searches.
    pub fn merge_cost(&self) -> OpCost {
        let rows = self.geometry().rows();
        let or = PeripheralLibrary::or_tree(rows);
        let pe = PeripheralLibrary::priority_encoder(rows);
        OpCost::new(
            or.energy_per_op() + pe.energy_per_op(),
            Latency::new(or.latency_per_op().value() + pe.latency_per_op().value()),
        )
    }

    /// Cost of one subtraction cycle (one array read + recombination add).
    pub fn subtract_cost(&self) -> OpCost {
        let cols = self.geometry().cols();
        let sa = PeripheralLibrary::sense_amp();
        let add = PeripheralLibrary::int_adder(self.format.total_bits());
        let cell = self.tech.cell_search_energy(self.tech.g_lrs()) * cols as f64;
        OpCost::new(
            cell + sa.energy_per_op() * cols as f64 + add.energy_per_op(),
            Latency::new(self.tech.cam_search_ns),
        )
    }

    /// Total cost of stage 1 over `n` inputs: `n` searches, one merge,
    /// `n` subtractions.
    pub fn stage1_cost(&self, n: usize) -> OpCost {
        self.search_cost()
            .repeat(n as u64)
            .then(self.merge_cost())
            .then(self.subtract_cost().repeat(n as u64))
    }

    /// Itemized area/power budget (CAM array + merge/encode periphery +
    /// recombination adder).
    pub fn cost_sheet(&self, name: &str, activity: f64) -> CostSheet {
        let rows = self.geometry().rows();
        let mut sheet = CostSheet::new(name);
        sheet.absorb(&self.cam.cost_sheet("cam", activity));
        let or = PeripheralLibrary::or_tree(rows);
        sheet.add("or-merge tree", or.area(), or.average_power(activity));
        let pe = PeripheralLibrary::priority_encoder(rows);
        sheet.add("priority encoder", pe.area(), pe.average_power(activity));
        let add = PeripheralLibrary::int_adder(self.format.total_bits());
        sheet.add("recombination adder", add.area(), add.average_power(activity));
        sheet
    }

    /// Mutable access to the underlying CAM for fault injection in tests.
    pub fn cam_mut(&mut self) -> &mut CamCrossbar {
        &mut self.cam
    }

    /// Running operation totals (merges + subtractions; per-search totals
    /// live on the inner CAM's ledger).
    pub fn ledger(&self) -> Ledger {
        self.ledger
    }

    /// Total dynamic energy recorded across the array and its inner CAM
    /// since the last reset.
    pub fn measured_energy(&self) -> star_device::Energy {
        self.ledger.energy + self.cam.ledger().energy
    }

    /// Resets both ledgers.
    pub fn reset_ledgers(&mut self) {
        self.ledger.reset();
        self.cam.reset_ledger();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use star_fixed::Rounding;

    fn xbar(fmt: QFormat) -> CamSubCrossbar {
        let tech = TechnologyParams::cmos32();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        CamSubCrossbar::new(fmt, &tech, NoiseModel::ideal(), &mut rng)
    }

    fn fx(v: f64, fmt: QFormat) -> Fixed {
        Fixed::from_f64(v, fmt, Rounding::Nearest)
    }

    #[test]
    fn paper_geometry_9bit() {
        let fmt = QFormat::new(5, 3).unwrap();
        let x = xbar(fmt);
        assert_eq!(x.geometry().rows(), 512);
        assert_eq!(x.geometry().cols(), 18);
    }

    #[test]
    fn descending_order() {
        let fmt = QFormat::new(3, 1).unwrap();
        let x = xbar(fmt);
        assert_eq!(x.value_of(0), Fixed::max(fmt));
        assert_eq!(x.value_of(x.geometry().rows() - 1), Fixed::min(fmt));
        for r in 1..x.geometry().rows() {
            assert!(x.value_of(r) < x.value_of(r - 1));
        }
    }

    #[test]
    fn row_of_round_trips() {
        let fmt = QFormat::new(4, 2).unwrap();
        let x = xbar(fmt);
        for raw in fmt.min_raw()..=fmt.max_raw() {
            let v = Fixed::from_raw(raw, fmt);
            assert_eq!(x.value_of(x.row_of(v)), v);
        }
    }

    #[test]
    fn find_max_matches_reference() {
        let fmt = QFormat::new(5, 2).unwrap();
        let mut x = xbar(fmt);
        let vals: Vec<Fixed> =
            [-3.5, 12.25, 0.0, -17.0, 12.0, 5.75].iter().map(|&v| fx(v, fmt)).collect();
        let found = x.find_max(&vals).unwrap();
        assert_eq!(found.max.to_f64(), 12.25);
        assert_eq!(found.row, x.row_of(fx(12.25, fmt)));
        // Every input matched its own row.
        for (i, r) in found.per_input_rows.iter().enumerate() {
            assert_eq!(*r, Some(x.row_of(vals[i])), "input {i}");
        }
    }

    #[test]
    fn find_max_with_duplicates() {
        let fmt = QFormat::new(4, 1).unwrap();
        let mut x = xbar(fmt);
        let vals = vec![fx(2.0, fmt), fx(2.0, fmt), fx(-1.0, fmt)];
        let found = x.find_max(&vals).unwrap();
        assert_eq!(found.max.to_f64(), 2.0);
        assert_eq!(found.merged.iter().filter(|&&h| h).count(), 2); // two distinct values
    }

    #[test]
    fn empty_input_is_error() {
        let fmt = QFormat::new(3, 1).unwrap();
        let mut x = xbar(fmt);
        assert_eq!(x.find_max(&[]), Err(SearchError::EmptyInput));
    }

    #[test]
    fn subtract_exact_in_range() {
        let fmt = QFormat::new(5, 2).unwrap();
        let mut x = xbar(fmt);
        let a = fx(3.25, fmt);
        let m = fx(10.5, fmt);
        assert_eq!(x.subtract(a, m).to_f64(), -7.25);
        assert_eq!(x.subtract(m, m).to_f64(), 0.0);
    }

    #[test]
    fn subtract_saturates_at_min() {
        let fmt = QFormat::new(3, 0).unwrap(); // range [-8, 7]
        let mut x = xbar(fmt);
        let lo = fx(-8.0, fmt);
        let hi = fx(7.0, fmt);
        // True difference -15 clips at the format minimum -8.
        assert_eq!(x.subtract(lo, hi).to_f64(), -8.0);
    }

    #[test]
    fn stage1_differences_nonpositive() {
        let fmt = QFormat::new(6, 3).unwrap();
        let mut x = xbar(fmt);
        let vals: Vec<Fixed> =
            [-8.0, 3.125, 7.0, 0.25, -0.125].iter().map(|&v| fx(v, fmt)).collect();
        let (max, diffs) = x.stage1(&vals).unwrap();
        assert_eq!(max.to_f64(), 7.0);
        for (i, d) in diffs.iter().enumerate() {
            assert!(d.to_f64() <= 0.0);
            assert_eq!(d.to_f64(), vals[i].to_f64() - 7.0, "input {i}");
        }
    }

    #[test]
    fn stuck_fault_can_corrupt_max() {
        let fmt = QFormat::new(3, 0).unwrap();
        let mut x = xbar(fmt);
        let v = fx(5.0, fmt);
        let row = x.row_of(v);
        // Force a mismatch on that value's row: 5.0 has sign bit 0, so the
        // search path for the MSB goes through the *true* cell; stick it on
        // and the matchline always discharges.
        x.cam_mut().inject_fault(row, 0, 0, star_device::StuckFault::StuckOn);
        let found = x.find_max(&[v, fx(1.0, fmt)]).unwrap();
        // 5.0's row no longer matches, so the (wrong) max is 1.0.
        assert_eq!(found.max.to_f64(), 1.0);
    }

    #[test]
    fn all_faulty_is_no_match() {
        let fmt = QFormat::new(2, 0).unwrap();
        let mut x = xbar(fmt);
        let v = fx(1.0, fmt);
        let row = x.row_of(v);
        // Both halves of the MSB pair stuck on: every search discharges.
        x.cam_mut().inject_fault(row, 0, 1, star_device::StuckFault::StuckOn);
        x.cam_mut().inject_fault(row, 0, 0, star_device::StuckFault::StuckOn);
        // Search only the now-unmatchable value.
        assert_eq!(x.find_max(&[v]), Err(SearchError::NoMatch));
    }

    #[test]
    fn noisy_subtract_small_noise_is_exact() {
        let fmt = QFormat::new(5, 2).unwrap();
        let mut x = xbar(fmt);
        let noise = NoiseModel::new(0.0, 0.05, 0.0, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..50 {
            let d = x.subtract_noisy(fx(1.25, fmt), fx(9.0, fmt), &noise, &mut rng);
            assert_eq!(d.to_f64(), -7.75); // 5 % noise < half sense margin
        }
    }

    #[test]
    fn costs_are_positive_and_compose() {
        let fmt = QFormat::new(6, 3).unwrap();
        let x = xbar(fmt);
        let c = x.stage1_cost(128);
        assert!(c.energy.value() > 0.0);
        // 128 searches + merge + 128 subtractions at 1 ns each ≥ 256 ns.
        assert!(c.latency.value() >= 256.0);
        let sheet = x.cost_sheet("cam/sub", 0.5);
        assert!(sheet.total_area().value() > 0.0);
        assert!(sheet.items().len() >= 6);
    }

    #[test]
    fn search_error_display() {
        assert!(SearchError::NoMatch.to_string().contains("defective"));
        assert!(SearchError::EmptyInput.to_string().contains("empty"));
    }
}
