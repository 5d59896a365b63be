//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the printed values with the standard library.

/// Median of the samples (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the exclusive method
/// (`statistics.quantiles(data, n=4)`). A single sample is its own
/// quartiles. `None` for an empty slice.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        1 => Some([sorted[0]; 3]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some([q(1), q(2), q(3)])
        }
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`. `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1])
}

/// Nearest rank of percentile `p` among `n` samples, robust to the
/// rounding of `p / 100 · n` (so p90 of 100 samples is rank 90).
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// The fastest sample: the time estimator behind every timing metric.
///
/// The shared host alternates between a fast mode and one up to ~1.8×
/// slower, for stretches from milliseconds to minutes, so a median
/// jumps between modes from run to run. Contention only ever adds time,
/// and units are interleaved over the whole run, so the fastest sample
/// tracks the code's own cost far more steadily. `None` for an empty
/// slice.
pub fn fastest(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().min_by(f64::total_cmp)
}

/// The highest of p99.9, p99 and p90 that has at least ten samples
/// beyond it, as `(p, value)`; `None` when even p90 lacks them.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
        .and_then(|p| percentile(samples, p).map(|v| (p, v)))
}

/// A timing summarised for the report: sample count, fastest sample,
/// median, quartiles and the deepest tail percentile the count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub fastest: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises a non-empty sample set; `None` when it is empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let [q1, _, q3] = quartiles(samples)?;
        Some(Summary {
            n: samples.len(),
            fastest: fastest(samples)?,
            median: median(samples)?,
            q1,
            q3,
            tail: tail(samples),
        })
    }

    /// One report line: `fastest, median (q1, q3, pNN) n=N`, scaled by
    /// `scale` into the display unit.
    pub fn render(&self, scale: f64, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(", p{p} {:.4}", v * scale),
            None => String::new(),
        };
        format!(
            "fastest {:.4} {unit}, median {:.4} (q1 {:.4}, q3 {:.4}{tail}) n={}",
            self.fastest * scale,
            self.median * scale,
            self.q1 * scale,
            self.q3 * scale,
            self.n
        )
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&few), None, "99 samples leave 9 beyond p90");
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
        let ten_thousand: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&ten_thousand), Some((99.9, 9990.0)));
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(fastest(&[]), None);
    }

    #[test]
    fn summary_carries_sample_count() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).expect("non-empty");
        assert_eq!(s.n, 4);
        assert_eq!(s.fastest, 1.0);
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
        assert_eq!(Summary::of(&[]), None);
    }
}
