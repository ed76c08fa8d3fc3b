//! Statistics and signal-quality helpers for the evaluation harness.
//!
//! * Welford online mean/variance and normal-theory confidence intervals —
//!   Fig 6 of the paper plots a 90% CI over repeated runs.
//! * SNR in dB against a reference signal — §7.2 characterizes accuracy as
//!   SNR (SOI ≈ 290 dB, MKL ≈ 310 dB in double precision) and Fig 7 sweeps
//!   it; we also convert dB ↔ significant digits the way the paper does
//!   (20 dB ≈ one digit).

use crate::complex::Complex64;
use crate::kahan::KahanSum;

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Incorporate one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Normal-theory confidence interval around the mean.
    ///
    /// `level` ∈ {0.90, 0.95, 0.99}; Fig 6 uses 0.90 ("90% confidence
    /// interval based on normal distribution").
    pub fn confidence_interval(&self, level: f64) -> ConfidenceInterval {
        let z = z_for_level(level);
        let half = if self.n == 0 {
            0.0
        } else {
            z * self.stddev() / (self.n as f64).sqrt()
        };
        ConfidenceInterval {
            mean: self.mean(),
            lower: self.mean() - half,
            upper: self.mean() + half,
            level,
        }
    }
}

/// A symmetric normal-theory confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Sample mean.
    pub mean: f64,
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
    /// Confidence level used, e.g. 0.90.
    pub level: f64,
}

/// Two-sided standard-normal quantile for the common confidence levels.
fn z_for_level(level: f64) -> f64 {
    // Hard-coded standard values; the harness only ever asks for these.
    if (level - 0.90).abs() < 1e-9 {
        1.6448536269514722
    } else if (level - 0.95).abs() < 1e-9 {
        1.959963984540054
    } else if (level - 0.99).abs() < 1e-9 {
        2.5758293035489004
    } else {
        panic!("unsupported confidence level {level}; use 0.90/0.95/0.99")
    }
}

/// Signal-to-noise ratio in dB of `signal` against reference `reference`:
/// `10·log10(‖reference‖² / ‖signal − reference‖²)`.
///
/// Returns +∞ for an exact match.
pub fn snr_db(signal: &[Complex64], reference: &[Complex64]) -> f64 {
    assert_eq!(signal.len(), reference.len(), "length mismatch");
    let mut sig = KahanSum::new();
    let mut noise = KahanSum::new();
    for (&s, &r) in signal.iter().zip(reference) {
        sig.add(r.norm_sqr());
        noise.add((s - r).norm_sqr());
    }
    if noise.value() == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (sig.value() / noise.value()).log10()
    }
}

/// SNR in dB given reference stored as interleaved `(re, im)` f64 pairs
/// already widened from a higher-precision computation.
pub fn snr_db_vs_pairs(signal: &[Complex64], reference: &[(f64, f64)]) -> f64 {
    assert_eq!(signal.len(), reference.len(), "length mismatch");
    let mut sig = KahanSum::new();
    let mut noise = KahanSum::new();
    for (&s, &(rr, ri)) in signal.iter().zip(reference) {
        sig.add(rr * rr + ri * ri);
        let dr = s.re - rr;
        let di = s.im - ri;
        noise.add(dr * dr + di * di);
    }
    if noise.value() == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (sig.value() / noise.value()).log10()
    }
}

/// dB → significant decimal digits (paper: "20 dB (one digit)").
pub fn db_to_digits(db: f64) -> f64 {
    db / 20.0
}

/// Significant decimal digits → dB.
pub fn digits_to_db(digits: f64) -> f64 {
    digits * 20.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic data set is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_and_single_observation() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut s = RunningStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        let ci = s.confidence_interval(0.90);
        assert_eq!(ci.lower, 42.0);
        assert_eq!(ci.upper, 42.0);
    }

    #[test]
    fn confidence_interval_narrows_with_samples() {
        let mut small = RunningStats::new();
        let mut large = RunningStats::new();
        // Same deterministic alternating data, different sample counts.
        for i in 0..10 {
            small.push(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        for i in 0..1000 {
            large.push(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let ci_s = small.confidence_interval(0.90);
        let ci_l = large.confidence_interval(0.90);
        assert!(ci_l.upper - ci_l.lower < ci_s.upper - ci_s.lower);
    }

    #[test]
    #[should_panic(expected = "unsupported confidence level")]
    fn unsupported_level_panics() {
        let s = RunningStats::new();
        let _ = s.confidence_interval(0.5);
    }

    #[test]
    fn snr_of_exact_match_is_infinite() {
        let a = [c64(1.0, 2.0), c64(-3.0, 0.5)];
        assert_eq!(snr_db(&a, &a), f64::INFINITY);
    }

    #[test]
    fn snr_known_value() {
        // signal = ref + noise with |noise|²/|ref|² = 1e-4 → 40 dB.
        let reference = [c64(1.0, 0.0)];
        let signal = [c64(1.01, 0.0)];
        let snr = snr_db(&signal, &reference);
        assert!((snr - 40.0).abs() < 1e-9, "snr = {snr}");
    }

    #[test]
    fn db_digit_conversions() {
        assert_eq!(db_to_digits(290.0), 14.5);
        assert_eq!(digits_to_db(10.0), 200.0);
        assert!((db_to_digits(digits_to_db(7.3)) - 7.3).abs() < 1e-12);
    }

    #[test]
    fn snr_pairs_matches_complex_version() {
        let signal = [c64(1.0, 1.0), c64(2.0, -1.0)];
        let reference = [c64(1.0, 1.001), c64(2.002, -1.0)];
        let pairs: Vec<(f64, f64)> = reference.iter().map(|c| (c.re, c.im)).collect();
        let a = snr_db(&signal, &reference);
        let b = snr_db_vs_pairs(&signal, &pairs);
        assert!((a - b).abs() < 1e-12);
    }
}
