//! Double-double reference FFT.
//!
//! §7.2 of the paper distinguishes a 290 dB SNR (SOI) from a 310 dB SNR
//! (MKL) — a one-digit difference sitting right at the f64 noise floor.
//! An f64 reference transform has the *same* ~310 dB error and cannot
//! resolve that gap, so reference spectra here are computed in
//! double-double (~31 digits) and only rounded at the very end.
//!
//! Power-of-two sizes use an iterative radix-2 decimation-in-time FFT with
//! bit-reversal (simplicity over speed — this is an oracle, not a kernel);
//! other sizes fall back to the naive `O(N²)` dd DFT.

use soi_num::dd::DdComplex;
use soi_num::Complex64;

/// Forward DFT of `x` computed in double-double, returned as dd pairs.
pub fn dd_fft_forward(x: &[DdComplex]) -> Vec<DdComplex> {
    let n = x.len();
    if n <= 1 {
        return x.to_vec();
    }
    if n.is_power_of_two() {
        let mut data = x.to_vec();
        fft_pow2_in_place(&mut data);
        data
    } else {
        dd_dft_naive(x)
    }
}

/// High-precision reference spectrum of an f64 complex signal, rounded to
/// f64 `(re, im)` pairs at the end. The rounding error is ≤ half an ulp
/// per component, far below anything being measured.
pub fn reference_spectrum(x: &[Complex64]) -> Vec<(f64, f64)> {
    let wide: Vec<DdComplex> = x.iter().map(|c| DdComplex::from_f64(c.re, c.im)).collect();
    dd_fft_forward(&wide).iter().map(|c| c.to_f64()).collect()
}

/// Naive `O(N²)` dd DFT (used directly for non-power-of-two sizes and as
/// the oracle for the fast dd path).
pub fn dd_dft_naive(x: &[DdComplex]) -> Vec<DdComplex> {
    let n = x.len();
    let mut y = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = DdComplex::ZERO;
        for (j, &xj) in x.iter().enumerate() {
            let w = DdComplex::root_of_unity(j * k % n, n);
            acc += xj * w;
        }
        y.push(acc);
    }
    y
}

/// Iterative radix-2 DIT with bit reversal, all arithmetic in dd.
fn fft_pow2_in_place(data: &mut [DdComplex]) {
    let n = data.len();
    let lg = n.trailing_zeros();
    // Bit-reversal permutation.
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - lg)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }
    // Precompute twiddles for the largest stage once; smaller stages use
    // strided reads of the same table: ω_len^k = ω_n^{k·(n/len)}.
    let half = n / 2;
    let table: Vec<DdComplex> = (0..half).map(|k| DdComplex::root_of_unity(k, n)).collect();
    let mut len = 2usize;
    while len <= n {
        let stride = n / len;
        let half_len = len / 2;
        for start in (0..n).step_by(len) {
            for k in 0..half_len {
                let w = table[k * stride];
                let a = data[start + k];
                let b = data[start + k + half_len] * w;
                data[start + k] = a + b;
                data[start + k + half_len] = a - b;
            }
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_num::c64;

    fn dd_signal(n: usize) -> Vec<DdComplex> {
        (0..n)
            .map(|i| DdComplex::from_f64((i as f64 * 0.7).sin(), (i as f64 * 1.1).cos()))
            .collect()
    }

    #[test]
    fn pow2_matches_dd_naive() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = dd_signal(n);
            let fast = dd_fft_forward(&x);
            let naive = dd_dft_naive(&x);
            for (f, w) in fast.iter().zip(&naive) {
                assert!(
                    (f.re - w.re).abs().hi < 1e-28 * n as f64,
                    "n={n} re mismatch"
                );
                assert!(
                    (f.im - w.im).abs().hi < 1e-28 * n as f64,
                    "n={n} im mismatch"
                );
            }
        }
    }

    #[test]
    fn non_pow2_uses_naive_and_matches_f64_engine_loosely() {
        let n = 12;
        let x = dd_signal(n);
        let dd = dd_fft_forward(&x);
        let xf: Vec<_> = x.iter().map(|c| c64(c.re.to_f64(), c.im.to_f64())).collect();
        let f = crate::dft::dft_naive(&xf);
        for (d, v) in dd.iter().zip(&f) {
            let (re, im) = d.to_f64();
            assert!((re - v.re).abs() < 1e-12);
            assert!((im - v.im).abs() < 1e-12);
        }
    }

    #[test]
    fn reference_spectrum_is_more_accurate_than_f64_fft() {
        // The dd reference and the f64 Stockham engine agree to f64
        // rounding levels, and the dd residual against the dd naive oracle
        // is dramatically smaller — i.e. the reference really carries
        // extra precision.
        let n = 256;
        let x: Vec<_> = (0..n)
            .map(|i| c64((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos()))
            .collect();
        let reference = reference_spectrum(&x);
        let fast = crate::fft_forward(&x);
        let snr = soi_num::stats::snr_db_vs_pairs(&fast, &reference);
        // An f64 FFT measured against a dd reference shows its true noise
        // floor: comfortably above 250 dB but finite.
        assert!(snr > 250.0, "snr = {snr}");
        assert!(snr < 400.0, "snr = {snr} suspiciously clean");
    }

    #[test]
    fn dd_parseval() {
        let n = 64;
        let x = dd_signal(n);
        let y = dd_fft_forward(&x);
        let ex: f64 = x
            .iter()
            .map(|v| (v.re * v.re + v.im * v.im).to_f64())
            .sum();
        let ey: f64 = y
            .iter()
            .map(|v| (v.re * v.re + v.im * v.im).to_f64())
            .sum();
        assert!((ey - n as f64 * ex).abs() < 1e-10 * ey);
    }

    #[test]
    fn empty_and_single() {
        assert!(dd_fft_forward(&[]).is_empty());
        let one = [DdComplex::from_f64(2.0, -3.0)];
        let y = dd_fft_forward(&one);
        assert_eq!(y[0].to_f64(), (2.0, -3.0));
    }
}
