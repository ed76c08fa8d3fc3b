//! Bluestein's chirp-z algorithm: an `O(N log N)` DFT for arbitrary `N`,
//! including large primes, via a cyclic convolution at a padded
//! power-of-two size.
//!
//! `y_k = b̄_k · Σ_j x_j b̄_j · b_{k−j}` with chirp `b_j = exp(iπ j²/N)`
//! (signs per direction). The convolution runs through the Stockham
//! engine at `m = next_pow2(2N−1)`.

use crate::codelet::{self, Codelet, Dispatch};
use crate::fourstep::RawFft;
use crate::plan::Planner;
use crate::simd;
use crate::twiddle::Sign;
use soi_num::{AlignedBuf, Complex64};
use std::sync::Arc;

/// A prepared arbitrary-size Bluestein transform.
#[derive(Debug, Clone)]
pub struct BluesteinFft {
    n: usize,
    m: usize,
    sign: Sign,
    /// Chirp `b_j = exp(∓iπ j²/n)`, j < n (cache-line aligned stream).
    chirp: AlignedBuf<Complex64>,
    /// Forward FFT (size m) of the zero-padded conjugate-chirp filter
    /// (cache-line aligned stream).
    filter_hat: AlignedBuf<Complex64>,
    /// Post-multiply chirp with the `1/m` convolution normalization
    /// folded in at plan time, so the output sweep is one complex
    /// product per point instead of scale-then-multiply.
    post_chirp: AlignedBuf<Complex64>,
    /// Size-`m` convolution engines (planner-cached Stockham plans; the
    /// padded size is a power of two by construction).
    fwd: Arc<RawFft>,
    inv: Arc<RawFft>,
}

impl BluesteinFft {
    /// Plan a transform of any positive size `n`.
    pub fn new(n: usize, sign: Sign) -> Self {
        Self::new_in(n, sign, &Planner::new())
    }

    /// Plan inside a [`Planner`], pulling the two size-`m` convolution
    /// engines from the planner's raw-engine cache — so many Bluestein
    /// plans sharing a padded size build the Stockham twiddles once.
    pub fn new_in(n: usize, sign: Sign, planner: &Planner) -> Self {
        assert!(n > 0);
        let m = (2 * n - 1).next_power_of_two();
        // b_j = exp(∓iπ j²/n) = ω_{2n}^{j²} with j² reduced mod 2n.
        let two_n = 2 * n;
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                let jj = ((j as u128 * j as u128) % two_n as u128) as usize;
                sign.root(jj, two_n)
            })
            .collect();
        let fwd = planner.raw(m, Sign::Forward);
        let inv = planner.raw(m, Sign::Inverse);
        // Filter h_j = conj(b_j) for |j| < n, wrapped cyclically at m.
        let mut h = vec![Complex64::ZERO; m];
        for j in 0..n {
            h[j] = chirp[j].conj();
            if j != 0 {
                h[m - j] = chirp[j].conj();
            }
        }
        fwd.execute(&mut h);
        let inv_m = 1.0 / m as f64;
        let post: Vec<Complex64> = chirp.iter().map(|c| c.scale(inv_m)).collect();
        Self {
            n,
            m,
            sign,
            chirp: AlignedBuf::from_slice(&chirp),
            filter_hat: AlignedBuf::from_slice(&h),
            post_chirp: AlignedBuf::from_slice(&post),
            fwd,
            inv,
        }
    }

    /// The butterfly codelets the inner convolution engines dispatch to.
    pub fn codelets(&self) -> Vec<Codelet> {
        let mut v = self.fwd.codelets();
        v.extend(self.inv.codelets());
        codelet::dedup(v)
    }

    /// The inner engines' codelets with their active dispatch.
    pub fn codelet_dispatch(&self) -> Vec<(Codelet, Dispatch)> {
        let mut v = self.fwd.codelet_dispatch();
        v.extend(self.inv.codelet_dispatch());
        codelet::dedup_dispatch(v)
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the empty transform.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Direction.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// Padded convolution size (power of two ≥ 2n−1).
    pub fn padded_len(&self) -> usize {
        self.m
    }

    /// In-place execute.
    pub fn execute(&self, data: &mut [Complex64]) {
        let mut scratch = AlignedBuf::zeroed(self.scratch_len());
        self.execute_with_scratch(data, &mut scratch);
    }

    /// Scratch elements [`Self::execute_with_scratch`] needs: the padded
    /// convolution buffer plus the Stockham ping-pong buffer, `2m` total.
    pub fn scratch_len(&self) -> usize {
        2 * self.m
    }

    /// In-place execute reusing caller scratch (`scratch.len()` must be at
    /// least [`Self::scratch_len`]); allocation-free. The padding region
    /// is re-zeroed on every call, so stale scratch contents are harmless.
    pub fn execute_with_scratch(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(data.len(), self.n);
        assert!(
            scratch.len() >= self.scratch_len(),
            "bluestein scratch too short: {} < {}",
            scratch.len(),
            self.scratch_len()
        );
        let (a, rest) = scratch.split_at_mut(self.m);
        let st = &mut rest[..self.m];
        // All three chirp sweeps run through the SIMD seam: the pre- and
        // post-multiplies as weighted products against the aligned chirp
        // streams (the 1/m normalization is baked into `post_chirp`), the
        // pointwise filter as an in-place weighted product.
        simd::weighted_product(&mut a[..self.n], data, &self.chirp);
        a[self.n..].fill(Complex64::ZERO);
        self.fwd.execute_with_scratch(a, st);
        simd::weighted_product_in(a, &self.filter_hat);
        self.inv.execute_with_scratch(a, st);
        simd::weighted_product(data, &a[..self.n], &self.post_chirp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft_naive, dft_naive_signed};
    use soi_num::{c64, complex::max_abs_diff, Complex64};

    fn test_signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * 0.83).sin() + 0.2, (i as f64 * 0.29).cos()))
            .collect()
    }

    #[test]
    fn matches_naive_on_primes() {
        for n in [2usize, 3, 5, 7, 11, 13, 97, 101, 257, 997] {
            let x = test_signal(n);
            let want = dft_naive(&x);
            let plan = BluesteinFft::new(n, Sign::Forward);
            let mut got = x.clone();
            plan.execute(&mut got);
            let err = max_abs_diff(&got, &want);
            assert!(err < 1e-8 * n as f64, "n={n} err={err}");
        }
    }

    #[test]
    fn matches_naive_on_composites_and_pow2() {
        for n in [1usize, 4, 6, 12, 64, 100, 1000] {
            let x = test_signal(n);
            let want = dft_naive(&x);
            let plan = BluesteinFft::new(n, Sign::Forward);
            let mut got = x.clone();
            plan.execute(&mut got);
            assert!(max_abs_diff(&got, &want) < 1e-8 * n.max(4) as f64, "n={n}");
        }
    }

    #[test]
    fn inverse_direction() {
        for n in [7usize, 31, 50] {
            let x = test_signal(n);
            let want = dft_naive_signed(&x, Sign::Inverse);
            let plan = BluesteinFft::new(n, Sign::Inverse);
            let mut got = x.clone();
            plan.execute(&mut got);
            assert!(max_abs_diff(&got, &want) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn roundtrip_prime() {
        let n = 61;
        let x = test_signal(n);
        let fwd = BluesteinFft::new(n, Sign::Forward);
        let inv = BluesteinFft::new(n, Sign::Inverse);
        let mut buf = x.clone();
        fwd.execute(&mut buf);
        inv.execute(&mut buf);
        let back: Vec<Complex64> = buf.iter().map(|&v| v / n as f64).collect();
        assert!(max_abs_diff(&back, &x) < 1e-12);
    }

    #[test]
    fn padded_length_is_sufficient_power_of_two() {
        let plan = BluesteinFft::new(1000, Sign::Forward);
        assert!(plan.padded_len().is_power_of_two());
        assert!(plan.padded_len() >= 1999);
    }

    #[test]
    fn large_prime_chirp_indices_do_not_lose_precision() {
        // j² overflows u64 ranges where naive f64 angle math degrades;
        // the u128 modular reduction must keep the transform accurate.
        let n = 4093; // prime
        let x = test_signal(n);
        let plan = BluesteinFft::new(n, Sign::Forward);
        let mut got = x.clone();
        plan.execute(&mut got);
        // Spot-check a few bins against the naive single-bin DFT.
        for k in [0usize, 1, 17, 2048, 4092] {
            let want = crate::dft::dft_bin(&x, k);
            assert!((got[k] - want).abs() < 1e-7, "bin {k}");
        }
    }
}
