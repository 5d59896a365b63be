//! Content-addressable (TCAM) crossbar array.

use crate::geometry::{Geometry, Ledger, OpCost};
use rand::Rng;
use star_device::peripherals::PeripheralLibrary;
use star_device::{
    Area, CostSheet, Energy, Latency, NoiseModel, RramCell, StuckFault, TechnologyParams,
};

/// An RRAM TCAM crossbar: each row stores a bit pattern as complementary
/// cell pairs; a search key drives all searchlines and every matchline
/// evaluates in parallel, producing a one-hot (or multi-hot) match vector.
///
/// This is the building block of both softmax stages: the CAM/SUB array of
/// Fig. 1 searches quantized scores against all representable values, and
/// the exponential stage CAM of Fig. 2 searches `|x_i − x_max|` magnitudes.
///
/// The electrical model is digital-with-defects: stuck cells (sampled from
/// the [`NoiseModel`] at build time) corrupt the stored pattern exactly the
/// way a real stuck device would (a stuck-on cell conducts on every search,
/// a stuck-off cell never discharges its line), while bounded read noise is
/// absorbed by the matchline sense margin and does not flip decisions.
///
/// # Examples
///
/// ```
/// use star_crossbar::CamCrossbar;
/// use star_device::{NoiseModel, TechnologyParams};
/// use rand::SeedableRng;
///
/// let tech = TechnologyParams::cmos32();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let mut cam = CamCrossbar::new(4, 3, &tech, NoiseModel::ideal(), &mut rng);
/// // Program every row (an erased row never discharges its matchline and
/// // would spuriously "match"; the softmax engine always fills the array).
/// for (row, word) in [0b000, 0b011, 0b101, 0b110].iter().enumerate() {
///     let bits: Vec<bool> = (0..3).rev().map(|b| (word >> b) & 1 == 1).collect();
///     cam.store_row(row, &bits);
/// }
/// assert_eq!(cam.search(&[true, false, true]), vec![false, false, true, false]);
/// ```
#[derive(Debug, Clone)]
pub struct CamCrossbar {
    geometry: Geometry,
    word_bits: usize,
    /// Cell pairs: `cells[row][2*bit]` is the true cell, `[2*bit+1]` the
    /// complement cell.
    cells: Vec<Vec<RramCell>>,
    tech: TechnologyParams,
    ledger: Ledger,
}

impl CamCrossbar {
    /// Builds an erased CAM of `rows` entries of `word_bits` bits each
    /// (2·`word_bits` physical columns). Stuck faults are sampled from
    /// `noise` per cell.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `word_bits` is zero.
    pub fn new<R: Rng + ?Sized>(
        rows: usize,
        word_bits: usize,
        tech: &TechnologyParams,
        noise: NoiseModel,
        rng: &mut R,
    ) -> Self {
        assert!(word_bits > 0, "CAM word width must be positive");
        let geometry = Geometry::new(rows, word_bits * 2);
        let cells = (0..rows)
            .map(|_| {
                (0..word_bits * 2)
                    .map(|_| {
                        let mut c = RramCell::new(2, tech);
                        c.set_fault(noise.sample_fault(rng));
                        c
                    })
                    .collect()
            })
            .collect();
        CamCrossbar { geometry, word_bits, cells, tech: *tech, ledger: Ledger::new() }
    }

    /// Array shape (rows × physical columns).
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Stored word width in bits.
    pub fn word_bits(&self) -> usize {
        self.word_bits
    }

    /// Programs a row with a bit pattern (complementary pair per bit),
    /// recording the row's `2 · word_bits` cell writes in one
    /// `device.rram.writes` count.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `bits.len() != word_bits`.
    pub fn store_row(&mut self, row: usize, bits: &[bool]) {
        assert!(row < self.geometry.rows(), "row {row} out of range");
        assert_eq!(bits.len(), self.word_bits, "pattern width mismatch");
        for (i, &b) in bits.iter().enumerate() {
            self.cells[row][2 * i].set_level(u16::from(b));
            self.cells[row][2 * i + 1].set_level(u16::from(!b));
        }
        star_telemetry::count("device.rram.writes", 2 * bits.len() as u64);
    }

    /// The pattern a row *effectively* stores, reading through any stuck
    /// faults on the true cells.
    pub fn effective_row(&self, row: usize) -> Vec<bool> {
        (0..self.word_bits).map(|i| self.cells[row][2 * i].stores_one()).collect()
    }

    /// Whether a row matches a key under the matchline discharge model:
    /// the line survives iff no cell on a discharge path conducts.
    ///
    /// Searching bit `1` places the complement cell on the discharge path;
    /// searching `0` places the true cell there. A stuck-on cell on the
    /// path forces a mismatch; a stuck-off cell can mask one.
    fn row_matches(&self, row: usize, key: &[bool]) -> bool {
        key.iter().enumerate().all(|(i, &k)| {
            let path_cell = if k { &self.cells[row][2 * i + 1] } else { &self.cells[row][2 * i] };
            !path_cell.stores_one()
        })
    }

    /// Searches the array: returns the per-row match vector.
    ///
    /// Equivalent to [`CamCrossbar::matches`] followed by
    /// [`CamCrossbar::record_searches`]`(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != word_bits`.
    pub fn search(&mut self, key: &[bool]) -> Vec<bool> {
        let result = self.matches(key);
        self.record_searches(1);
        result
    }

    /// The per-row match vector of a search, without recording its cost.
    ///
    /// A search is a pure function of the (possibly stuck-faulted) stored
    /// cells: it draws no random numbers, so a caller may evaluate it once
    /// per key and account for repeated searches with
    /// [`CamCrossbar::record_searches`].
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != word_bits`.
    pub fn matches(&self, key: &[bool]) -> Vec<bool> {
        assert_eq!(key.len(), self.word_bits, "search key width mismatch");
        (0..self.geometry.rows()).map(|r| self.row_matches(r, key)).collect()
    }

    /// The first (lowest-index) row a search for `key` matches, without
    /// recording its cost — the priority encoder's view of
    /// [`CamCrossbar::matches`].
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != word_bits`.
    pub fn first_match(&self, key: &[bool]) -> Option<usize> {
        assert_eq!(key.len(), self.word_bits, "search key width mismatch");
        (0..self.geometry.rows()).find(|&r| self.row_matches(r, key))
    }

    /// Records the cost of `n` searches in the ledger and telemetry,
    /// bit-identically to `n` calls of [`CamCrossbar::search`].
    pub fn record_searches(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let cost = self.search_cost();
        self.ledger.record_n(cost, n);
        star_telemetry::count("crossbar.cam.searches", n);
        let energy = cost.energy.value();
        star_telemetry::add_all("crossbar.cam.energy_pj", (0..n).map(|_| energy));
    }

    /// Energy/latency of one parallel search cycle.
    pub fn search_cost(&self) -> OpCost {
        let rows = self.geometry.rows();
        let cols = self.geometry.cols();
        let ml = PeripheralLibrary::matchline(cols);
        let sa = PeripheralLibrary::sense_amp();
        // Search-line drive: one driver toggle per physical column.
        let drive = star_device::DriverSpec::wordline32().energy_per_toggle() * cols as f64;
        // Roughly half the cells conduct during evaluation for one read
        // voltage pulse.
        let cell = self.tech.cell_search_energy(self.tech.g_lrs()) * (rows * cols) as f64 * 0.5;
        let energy: Energy =
            ml.energy_per_op() * rows as f64 + sa.energy_per_op() * rows as f64 + drive + cell;
        let latency = Latency::new(self.tech.cam_search_ns);
        OpCost::new(energy, latency)
    }

    /// Itemized area/power budget of the array (cells + matchline periphery
    /// + row sense amps + searchline drivers).
    pub fn cost_sheet(&self, name: &str, activity: f64) -> CostSheet {
        let rows = self.geometry.rows();
        let cols = self.geometry.cols();
        let mut sheet = CostSheet::new(name);
        sheet.add(
            "cell array",
            self.geometry.cell_array_area(&self.tech),
            self.array_read_power(activity),
        );
        let ml = PeripheralLibrary::matchline(cols);
        sheet.add(
            "matchline periphery",
            ml.area() * rows as f64,
            ml.average_power(activity) * rows as f64,
        );
        let sa = PeripheralLibrary::sense_amp();
        sheet.add(
            "row sense amps",
            sa.area() * rows as f64,
            sa.average_power(activity) * rows as f64,
        );
        let drv = star_device::DriverSpec::wordline32();
        sheet.add(
            "searchline drivers",
            drv.area() * cols as f64,
            Energy::new(drv.energy_per_toggle().value() * cols as f64).scale(activity)
                / Latency::new(self.tech.cam_search_ns),
        );
        sheet
    }

    /// Average cell-array read power at an activity factor.
    fn array_read_power(&self, activity: f64) -> star_device::Power {
        let per_search = self
            .tech
            .cell_search_energy(self.tech.g_lrs())
            .scale(self.geometry.cells() as f64 * 0.5);
        (per_search / Latency::new(self.tech.cam_search_ns)) * activity
    }

    /// Running operation totals.
    pub fn ledger(&self) -> Ledger {
        self.ledger
    }

    /// Resets the operation totals.
    pub fn reset_ledger(&mut self) {
        self.ledger.reset();
    }

    /// Injects a stuck fault into a specific cell (for failure-injection
    /// tests). `pair_half` 0 = true cell, 1 = complement cell.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn inject_fault(&mut self, row: usize, bit: usize, pair_half: usize, fault: StuckFault) {
        assert!(pair_half < 2, "pair half must be 0 or 1");
        self.cells[row][2 * bit + pair_half].set_fault(fault);
    }

    /// Total cell-array area.
    pub fn cell_area(&self) -> Area {
        self.geometry.cell_array_area(&self.tech)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cam(rows: usize, bits: usize) -> CamCrossbar {
        let tech = TechnologyParams::cmos32();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        CamCrossbar::new(rows, bits, &tech, NoiseModel::ideal(), &mut rng)
    }

    #[test]
    fn store_row_counts_both_cells_of_every_bit() {
        let mut c = cam(4, 3);
        let ((), snap) = star_telemetry::with_scoped(|| {
            c.store_row(0, &[true, false, true]);
            c.store_row(3, &[false, false, false]);
        });
        assert_eq!(snap.counters["device.rram.writes"], 2 * 2 * 3);
        assert_eq!(c.effective_row(0), vec![true, false, true]);
    }

    #[test]
    fn exact_match_is_one_hot() {
        let mut c = cam(8, 4);
        for r in 0..8 {
            let bits: Vec<bool> = (0..4).map(|b| (r >> b) & 1 == 1).collect();
            c.store_row(r, &bits);
        }
        for r in 0..8 {
            let key: Vec<bool> = (0..4).map(|b| (r >> b) & 1 == 1).collect();
            let m = c.search(&key);
            assert_eq!(m.iter().filter(|&&x| x).count(), 1, "row {r}");
            assert!(m[r]);
        }
    }

    #[test]
    fn duplicate_rows_multi_hot() {
        let mut c = cam(4, 3);
        let p = [true, true, false];
        let other = [false, false, true];
        c.store_row(0, &other);
        c.store_row(1, &p);
        c.store_row(2, &other);
        c.store_row(3, &p);
        let m = c.search(&p);
        assert_eq!(m, vec![false, true, false, true]);
    }

    #[test]
    fn no_match_when_absent() {
        let mut c = cam(4, 3);
        c.store_row(0, &[false, false, false]);
        c.store_row(1, &[true, true, true]);
        let m = c.search(&[true, false, true]);
        // Erased rows store all-zero true cells AND all-zero complement
        // cells, so they match nothing... except keys whose discharge paths
        // all land on erased cells. Rows 2,3 are fully erased (HRS both
        // halves) and therefore match any key under the discharge model —
        // real designs mask unused rows; we store explicit patterns in all
        // rows in the engine. Here only programmed rows matter.
        assert!(!m[0]);
        assert!(!m[1]);
    }

    #[test]
    fn erased_rows_match_everything() {
        // Documents the discharge-model behaviour tested above: an erased
        // row (all HRS) never discharges, so it "matches". The softmax
        // engine always programs every row.
        let mut c = cam(2, 2);
        let m = c.search(&[true, false]);
        assert_eq!(m, vec![true, true]);
    }

    #[test]
    fn stuck_on_forces_mismatch() {
        let mut c = cam(2, 2);
        c.store_row(0, &[true, false]);
        // Stuck-on complement cell of bit 0: searching 1 now discharges.
        c.inject_fault(0, 0, 1, StuckFault::StuckOn);
        let m = c.search(&[true, false]);
        assert!(!m[0]);
    }

    #[test]
    fn stuck_off_masks_mismatch() {
        let mut c = cam(2, 2);
        c.store_row(0, &[true, false]);
        // Search key [false, false] would normally discharge via the true
        // cell of bit 0; stick it off and the row falsely matches.
        c.inject_fault(0, 0, 0, StuckFault::StuckOff);
        let m = c.search(&[false, false]);
        assert!(m[0]);
    }

    #[test]
    fn peek_and_record_compose_to_search() {
        let mut c = cam(8, 3);
        for r in 0..8 {
            let bits: Vec<bool> = (0..3).map(|b| (r >> b) & 1 == 1).collect();
            c.store_row(r, &bits);
        }
        c.inject_fault(5, 1, 0, StuckFault::StuckOff);
        let mut bulk = c.clone();
        let keys: Vec<Vec<bool>> =
            (0..8).map(|r| (0..3).map(|b| (r >> b) & 1 == 1).collect()).collect();
        let ((), seq_snap) = star_telemetry::with_scoped(|| {
            for key in &keys {
                let hits = c.search(key);
                assert_eq!(c.first_match(key), hits.iter().position(|&h| h));
            }
        });
        let ((), bulk_snap) = star_telemetry::with_scoped(|| {
            for key in &keys {
                let _ = bulk.matches(key);
            }
            bulk.record_searches(keys.len() as u64);
            bulk.record_searches(0);
        });
        assert_eq!(seq_snap, bulk_snap);
        assert_eq!(c.ledger(), bulk.ledger());
    }

    #[test]
    fn search_cost_positive_and_scales() {
        let small = cam(16, 4).search_cost();
        let large = cam(512, 9).search_cost();
        assert!(large.energy.value() > small.energy.value());
        assert!(small.energy.value() > 0.0);
        assert_eq!(small.latency.value(), 1.0);
    }

    #[test]
    fn ledger_counts_searches() {
        let mut c = cam(4, 2);
        c.store_row(0, &[true, true]);
        c.search(&[true, true]);
        c.search(&[false, true]);
        assert_eq!(c.ledger().ops, 2);
        assert!(c.ledger().energy.value() > 0.0);
        c.reset_ledger();
        assert_eq!(c.ledger().ops, 0);
    }

    #[test]
    fn cost_sheet_has_all_components() {
        let c = cam(512, 9);
        let sheet = c.cost_sheet("cam", 0.5);
        assert_eq!(sheet.items().len(), 4);
        assert!(sheet.total_area().value() > 0.0);
        assert!(sheet.total_power().value() > 0.0);
        // The paper's headline: the cell array itself is tiny (tens of µm²).
        assert!(c.cell_area().value() < 100.0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn search_rejects_bad_width() {
        let mut c = cam(4, 3);
        c.search(&[true]);
    }
}
