//! Naive `O(N²)` DFT — the correctness oracle.
//!
//! Every fast engine in this crate is validated against this module. The
//! accumulation is compensated (Neumaier) so the oracle's own rounding
//! error stays near one ulp even for large `N`, which matters when we
//! measure SNR differences of a few dB.

use crate::twiddle::Sign;
use soi_num::kahan::KahanComplexSum;
use soi_num::Complex64;

/// Naive forward DFT: `y_k = Σ_j x_j·exp(−2πi jk/N)`.
pub fn dft_naive(x: &[Complex64]) -> Vec<Complex64> {
    dft_naive_signed(x, Sign::Forward)
}

/// Naive DFT with an explicit direction.
pub fn dft_naive_signed(x: &[Complex64], sign: Sign) -> Vec<Complex64> {
    let n = x.len();
    let mut y = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = KahanComplexSum::new();
        for (j, &xj) in x.iter().enumerate() {
            // Index reduction keeps the twiddle angle accurate even when
            // j*k overflows usize ranges where sin/cos loses precision.
            let w = sign.root((j % n) * k % n, n);
            acc.add(xj * w);
        }
        y.push(acc.value());
    }
    y
}

/// Naive DFT of a single output bin `k` (useful for spot-checking huge
/// transforms without `O(N²)` total work).
pub fn dft_bin(x: &[Complex64], k: usize) -> Complex64 {
    let n = x.len();
    let mut acc = KahanComplexSum::new();
    for (j, &xj) in x.iter().enumerate() {
        let w = Sign::Forward.root(j * (k % n) % n, n);
        acc.add(xj * w);
    }
    acc.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_num::{c64, Complex64};

    #[test]
    fn dft_of_delta_is_flat() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        let y = dft_naive(&x);
        for v in y {
            assert!((v - Complex64::ONE).abs() < 1e-14);
        }
    }

    #[test]
    fn dft_of_constant_is_delta() {
        let x = vec![Complex64::ONE; 8];
        let y = dft_naive(&x);
        assert!((y[0] - c64(8.0, 0.0)).abs() < 1e-13);
        for v in &y[1..] {
            assert!(v.abs() < 1e-13);
        }
    }

    #[test]
    fn dft_of_single_tone() {
        // x_j = exp(2πi·3j/16) → y has a spike of height 16 at bin 13 for
        // the forward (negative exponent) convention? No: forward DFT of
        // exp(+2πi·3j/N) puts the spike at k = 3.
        let n = 16;
        let x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * 3.0 * j as f64 / n as f64))
            .collect();
        let y = dft_naive(&x);
        assert!((y[3] - c64(16.0, 0.0)).abs() < 1e-12);
        for (k, v) in y.iter().enumerate() {
            if k != 3 {
                assert!(v.abs() < 1e-12, "bin {k} = {v:?}");
            }
        }
    }

    #[test]
    fn parseval() {
        let x: Vec<Complex64> = (0..32)
            .map(|i| c64((i as f64).cos(), (i as f64 * 0.5).sin()))
            .collect();
        let y = dft_naive(&x);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum();
        assert!((ey - 32.0 * ex).abs() < 1e-10 * ey.abs());
    }

    #[test]
    fn dft_bin_matches_full_dft() {
        let x: Vec<Complex64> = (0..20)
            .map(|i| c64((i as f64 * 0.9).sin(), -(i as f64 * 0.2).cos()))
            .collect();
        let y = dft_naive(&x);
        for k in [0, 1, 7, 19] {
            assert!((dft_bin(&x, k) - y[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex64> = (0..16).map(|i| c64(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..16).map(|i| c64(0.0, -(i as f64))).collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let ya = dft_naive(&a);
        let yb = dft_naive(&b);
        let ysum = dft_naive(&sum);
        for k in 0..16 {
            assert!((ysum[k] - (ya[k] + yb[k])).abs() < 1e-11);
        }
    }

    #[test]
    fn empty_input() {
        let x: Vec<Complex64> = vec![];
        assert!(dft_naive(&x).is_empty());
    }
}
