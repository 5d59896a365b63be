//! Output checks and digests.
//!
//! Every check a workload makes is counted: `verify_fail_rate` is the
//! failed share of the checks attempted. The row bounds are the STAR
//! bounds of the cross-engine differential suite
//! (`crates/core/tests/differential.rs`).

/// Largest per-element |STAR − exact f64| probability allowed.
pub const ELEM_BOUND: f64 = 0.10;
/// Largest |Σp − 1| allowed for one STAR row.
pub const SUM_TOL: f64 = 0.02;

/// Tally of output checks, keeping the first few failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Failed share of the checks attempted (0 when none were made).
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Checks one STAR probability row against its exact f64 softmax:
/// every element within [`ELEM_BOUND`], finite and non-negative, and the
/// row sum within [`SUM_TOL`] of 1. Returns the row's max |Δp|.
pub fn check_row(checks: &mut Checks, label: &str, probs: &[f64], exact: &[f64]) -> f64 {
    let err = if probs.len() == exact.len() {
        probs.iter().zip(exact).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max)
    } else {
        f64::INFINITY
    };
    let sum: f64 = probs.iter().sum();
    let valid = probs.iter().all(|p| p.is_finite() && *p >= 0.0);
    checks.check(valid && err <= ELEM_BOUND && (sum - 1.0).abs() <= SUM_TOL, || {
        format!("{label}: max |dp| {err:.4e}, sum {sum:.6} (bounds {ELEM_BOUND}, 1 ± {SUM_TOL})")
    });
    err
}

/// FNV-1a over the bytes fed to it: a stable, dependency-free digest of
/// outputs, pinned per seed in `digests.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds the exact bit patterns of `xs`.
    pub fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(row: &[f64]) -> Vec<f64> {
        let m = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let e: Vec<f64> = row.iter().map(|x| (x - m).exp()).collect();
        let s: f64 = e.iter().sum();
        e.iter().map(|x| x / s).collect()
    }

    #[test]
    fn corrupted_row_raises_fail_rate() {
        let reference = exact(&[1.0, 2.0, 3.0, 4.0]);
        let mut checks = Checks::default();
        check_row(&mut checks, "clean", &reference, &reference);
        assert_eq!((checks.attempted, checks.failed), (1, 0));
        assert_eq!(checks.fail_rate(), 0.0);

        // One element pushed past the element bound.
        let mut shifted = reference.clone();
        shifted[3] -= 0.2;
        shifted[0] += 0.2;
        check_row(&mut checks, "shifted", &shifted, &reference);
        // A row that no longer sums to one.
        let scaled: Vec<f64> = reference.iter().map(|p| p * 1.05).collect();
        check_row(&mut checks, "scaled", &scaled, &reference);
        // A non-finite element.
        let mut nan = reference.clone();
        nan[1] = f64::NAN;
        check_row(&mut checks, "nan", &nan, &reference);
        // A truncated row.
        check_row(&mut checks, "short", &reference[..3], &reference);

        assert_eq!((checks.attempted, checks.failed), (5, 4));
        assert_eq!(checks.fail_rate(), 0.8);
        assert_eq!(checks.notes.len(), 4);
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        a.f64s(&[0.5, 0.25]);
        let mut b = Digest::default();
        b.f64s(&[0.5, f64::from_bits(0.25f64.to_bits() ^ 1)]);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.f64s(&[0.5, 0.25]);
        assert_eq!(a.hex(), c.hex());
    }
}
