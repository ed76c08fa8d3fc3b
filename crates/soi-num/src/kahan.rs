//! Compensated summation.
//!
//! The SOI error analysis (§4) bounds the total error by
//! `O(κ(ε_fft + ε_alias + ε_trunc))`; sloppy reductions in the harness
//! would mask exactly the effects we are trying to measure, so all
//! accuracy-critical accumulations (naive DFTs, SNR computations,
//! quadrature) use Neumaier's improved Kahan summation.

use crate::complex::Complex64;

/// A Neumaier (improved Kahan) compensated accumulator for real values.
#[derive(Debug, Clone, Copy, Default)]
pub struct KahanSum {
    sum: f64,
    compensation: f64,
}

impl KahanSum {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a value.
    #[inline]
    pub fn add(&mut self, v: f64) {
        let t = self.sum + v;
        if self.sum.abs() >= v.abs() {
            self.compensation += (self.sum - t) + v;
        } else {
            self.compensation += (v - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

impl Extend<f64> for KahanSum {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

impl FromIterator<f64> for KahanSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// Compensated sum of an iterator of `f64`.
pub fn kahan_sum<I: IntoIterator<Item = f64>>(iter: I) -> f64 {
    iter.into_iter().collect::<KahanSum>().value()
}

/// A compensated accumulator for complex values (component-wise Neumaier).
#[derive(Debug, Clone, Copy, Default)]
pub struct KahanComplexSum {
    re: KahanSum,
    im: KahanSum,
}

impl KahanComplexSum {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a complex value.
    #[inline]
    pub fn add(&mut self, v: Complex64) {
        self.re.add(v.re);
        self.im.add(v.im);
    }

    /// The compensated total.
    #[inline]
    pub fn value(&self) -> Complex64 {
        Complex64 {
            re: self.re.value(),
            im: self.im.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn kahan_beats_naive_on_ill_conditioned_sum() {
        // 1 + 1e16 - 1e16 repeated: naive summation loses the ones.
        let mut k = KahanSum::new();
        let mut naive = 0.0f64;
        for _ in 0..1000 {
            for v in [1.0, 1e16, -1e16] {
                k.add(v);
                naive += v;
            }
        }
        assert_eq!(k.value(), 1000.0);
        // The naive sum genuinely fails here, which is why we need Kahan.
        assert_ne!(naive, 1000.0);
    }

    #[test]
    fn kahan_matches_exact_on_small_ints() {
        let vals: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(kahan_sum(vals), 5050.0);
    }

    #[test]
    fn complex_accumulator() {
        let mut k = KahanComplexSum::new();
        for i in 0..10 {
            k.add(c64(i as f64, -(i as f64)));
        }
        assert_eq!(k.value(), c64(45.0, -45.0));
    }

    #[test]
    fn from_iterator() {
        let s: KahanSum = [0.1f64; 10].into_iter().collect();
        assert!((s.value() - 1.0).abs() < 1e-16);
    }

    #[test]
    fn empty_sum_is_zero() {
        assert_eq!(KahanSum::new().value(), 0.0);
        assert_eq!(kahan_sum(std::iter::empty()), 0.0);
    }
}
