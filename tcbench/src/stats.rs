//! Sample summaries.

use std::fmt::Write as _;

/// Percentiles the tail report may pick from, highest last.
const TAIL_LADDER: [f64; 5] = [90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples needed beyond a tail percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// The `p`-th percentile of `values`, interpolated with the same
/// "exclusive" rule as Python's `statistics.quantiles` (position
/// `p/100 * (n + 1)`, clamped to the sample range).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let pos = (p / 100.0 * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let below = sorted[lo - 1];
    match sorted.get(lo) {
        Some(&above) => below + frac * (above - below),
        None => below,
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND as f64 - 1e-9)
}

/// One metric: its name, unit and every sample taken in this run.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
    /// Reported value when it is not the sample median (a tail percentile).
    pub at_percentile: Option<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            name: name.into(),
            unit,
            samples,
            at_percentile: None,
        }
    }

    /// A metric measured once.
    pub fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric::new(name, unit, vec![value])
    }

    /// Reports the `p`-th percentile instead of the median.
    pub fn at(mut self, p: f64) -> Self {
        self.at_percentile = Some(p);
        self
    }

    /// The value the result line reports.
    pub fn value(&self) -> f64 {
        percentile(&self.samples, self.at_percentile.unwrap_or(50.0))
    }

    /// A human-readable line: value, count, median, quartiles and the
    /// highest percentile with enough samples beyond it.
    pub fn describe(&self) -> String {
        let s = &self.samples;
        let mut line = format!(
            "{:<40} {:>14} {:<9} n={:<4} median={} q1={} q3={}",
            self.name,
            fmt_num(self.value()),
            self.unit,
            s.len(),
            fmt_num(percentile(s, 50.0)),
            fmt_num(percentile(s, 25.0)),
            fmt_num(percentile(s, 75.0)),
        );
        if let Some(p) = tail_percentile(s.len()) {
            let _ = write!(line, " p{p}={}", fmt_num(percentile(s, p)));
        }
        line
    }
}

/// A number with all its digits.
pub fn fmt_num(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 25.0), 2.75);
        assert_eq!(percentile(&v, 50.0), 5.5);
        assert_eq!(percentile(&v, 75.0), 8.25);
        assert_eq!(percentile(&[4.0], 95.0), 4.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }
}
