//! Small statistics helpers for Monte Carlo summaries.

use std::fmt;

/// Magnitude from which [`Readable`] switches to scientific notation.
/// Below it a value keeps two decimals and fits a 10-wide table column
/// (`-999999.99`, `9999999.99`).
pub const FIXED_NOTATION_LIMIT: f64 = 1e7;

/// Displays a utility-scale number with two decimals (`{:.2}`), or as
/// `{:.3e}` once its magnitude reaches [`FIXED_NOTATION_LIMIT`], so an
/// accepted utility near `Application::MAX_TOTAL_UTILITY` prints as
/// `1.000e100` rather than a 100-digit number. Width and alignment apply
/// to the whole text.
///
/// # Example
///
/// ```
/// use ftqs_sim::stats::Readable;
///
/// assert_eq!(format!("{:>8}", Readable(40.0)), "   40.00");
/// assert_eq!(Readable(1e100).to_string(), "1.000e100");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Readable(pub f64);

impl fmt::Display for Readable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() < FIXED_NOTATION_LIMIT {
            f.pad(&format!("{:.2}", self.0))
        } else {
            f.pad(&format!("{:.3e}", self.0))
        }
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use ftqs_sim::stats::Accumulator;
///
/// let mut acc = Accumulator::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     acc.add(x);
/// }
/// assert_eq!(acc.mean(), 5.0);
/// assert!((acc.stddev() - 2.138089935299395).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Accumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Accumulator::default()
    }

    /// Adds one sample.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merges another accumulator (parallel reduction).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (Bessel-corrected; 0 with < 2 samples).
    #[must_use]
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Half-width of the ~95% confidence interval of the mean
    /// (1.96 · s/√n; 0 with < 2 samples).
    #[must_use]
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.stddev() / (self.n as f64).sqrt()
        }
    }
}

impl fmt::Display for Accumulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ± {} (n={})",
            Readable(self.mean()),
            Readable(self.ci95()),
            self.n
        )
    }
}

/// A Bernoulli counter: hits over trials, mergeable like [`Accumulator`].
///
/// Used by the robustness harness to pool hard-miss and degradation rates
/// across scenarios, applications and threads.
///
/// # Example
///
/// ```
/// use ftqs_sim::stats::Rate;
///
/// let mut r = Rate::new();
/// r.record(true);
/// r.record(false);
/// r.record(false);
/// assert_eq!(r.hits(), 1);
/// assert!((r.value() - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rate {
    hits: u64,
    total: u64,
}

impl Rate {
    /// An empty rate (0 trials; [`Rate::value`] reports 0).
    #[must_use]
    pub fn new() -> Self {
        Rate::default()
    }

    /// Records one trial.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        self.hits += u64::from(hit);
    }

    /// Merges another counter (parallel reduction).
    pub fn merge(&mut self, other: &Rate) {
        self.hits += other.hits;
        self.total += other.total;
    }

    /// Number of hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of trials.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Empirical rate in `[0, 1]` (0 when no trials were recorded).
    #[must_use]
    pub fn value(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ({:.2}%)",
            self.hits,
            self.total,
            100.0 * self.value()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_is_zeroed() {
        let acc = Accumulator::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.stddev(), 0.0);
        assert_eq!(acc.ci95(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut acc = Accumulator::new();
        acc.add(42.0);
        assert_eq!(acc.mean(), 42.0);
        assert_eq!(acc.stddev(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut seq = Accumulator::new();
        for &x in &xs {
            seq.add(x);
        }
        let mut a = Accumulator::new();
        let mut b = Accumulator::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-12);
        assert!((a.stddev() - seq.stddev()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Accumulator::new();
        a.add(1.0);
        a.add(3.0);
        let before = a;
        a.merge(&Accumulator::new());
        assert_eq!(a, before);
        let mut empty = Accumulator::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn display_is_compact() {
        let mut a = Accumulator::new();
        a.add(1.0);
        a.add(2.0);
        assert!(a.to_string().contains("n=2"));
    }

    #[test]
    fn rate_counts_and_merges() {
        let mut a = Rate::new();
        assert_eq!(a.value(), 0.0);
        a.record(true);
        a.record(false);
        let mut b = Rate::new();
        b.record(true);
        b.record(true);
        a.merge(&b);
        assert_eq!(a.hits(), 3);
        assert_eq!(a.total(), 4);
        assert!((a.value() - 0.75).abs() < 1e-12);
        assert!(a.to_string().contains("3/4"));
    }
}
