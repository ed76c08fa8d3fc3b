//! A complete, from-scratch FFT library.
//!
//! This is the local-FFT substrate of the SOI reproduction: the paper uses
//! Intel MKL single- and multi-threaded FFTs as node-local building blocks
//! (Fig 2); we build the equivalent here so nothing is mocked.
//!
//! Contents:
//!
//! * [`plan`] — FFTW-style planner. [`Plan`] picks, per size:
//!   Stockham radix-8/4/2 for powers of two, general mixed-radix
//!   Cooley–Tukey for smooth sizes, a cache-blocked four-step (Bailey)
//!   decomposition for smooth sizes above the L2 threshold, and
//!   Bluestein's chirp-z for sizes with large prime factors. Plans are
//!   reusable and cheap to execute; [`Planner`] caches plans *and* the
//!   raw inner engines composite plans recurse into.
//! * [`codelet`] — butterfly-kernel introspection ([`codelet::Codelet`]),
//!   so tests can assert hot sizes never hit the generic `O(r²)` path.
//! * [`fourstep`] — the cache-blocked `F_n = (F_a ⊗ I_b)·T·(I_a ⊗ F_b)`
//!   engine and the [`fourstep::RawFft`] unnormalized engine wrapper.
//! * [`dft`] — naive `O(N²)` DFT with compensated accumulation (the
//!   correctness oracle for everything else).
//! * [`stockham`] — self-sorting power-of-two engine (no bit-reversal).
//! * [`mixed`] — recursive mixed-radix decimation-in-time with codelets for
//!   radices 2–5 and a generic prime fallback.
//! * [`bluestein`] — arbitrary-length transforms via chirp-z convolution.
//! * [`realfft`] — real-input FFT using the half-length complex trick.
//! * [`batch`] — batched transforms (the `I ⊗ F` Kronecker pattern of §6a),
//!   on the calling thread or row-parallel on a caller's worker pool.
//! * [`permute`] — stride permutations `P_perm^{ℓ,n}` (Definition in §5)
//!   and cache-blocked transposes.
//! * [`ddfft`] — a double-double radix-2 FFT used as the high-precision
//!   reference when certifying SNR numbers (§7.2).
//! * [`simd`] — runtime-dispatched AVX2+FMA butterfly kernels behind the
//!   same feature-detect seam as the conv kernel, with the `SOI_NO_SIMD`
//!   ablation knob and the portable fallback kept alive for non-x86.
//! * [`flops`] — the paper's operation-count conventions
//!   (GFLOPS = 5·N·log₂N / time).

pub mod batch;
pub mod bluestein;
pub mod codelet;
pub(crate) mod colfft;
pub mod ddfft;
pub mod dft;
pub mod flops;
pub mod fourstep;
pub mod mixed;
pub mod permute;
pub mod plan;
pub mod realfft;
pub mod simd;
pub mod stockham;
pub mod twiddle;

pub use plan::{CacheStats, Direction, Plan, Planner};

use soi_num::{Complex, Real};

/// One-shot forward FFT (unnormalized, DFT convention `e^{−2πi jk/N}`).
///
/// Convenience wrapper; for repeated transforms of one size build a
/// [`Plan`] once instead.
pub fn fft_forward<T: Real>(x: &[Complex<T>]) -> Vec<Complex<T>> {
    let plan = Plan::forward(x.len());
    let mut buf = x.to_vec();
    plan.execute(&mut buf);
    buf
}

/// One-shot inverse FFT, normalized by `1/N` so that
/// `ifft(fft(x)) == x`.
pub fn fft_inverse<T: Real>(x: &[Complex<T>]) -> Vec<Complex<T>> {
    let plan = Plan::inverse(x.len());
    let mut buf = x.to_vec();
    plan.execute(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_num::c64;

    #[test]
    fn one_shot_roundtrip() {
        let x: Vec<_> = (0..12)
            .map(|i| c64((i as f64).sin(), (i as f64).cos()))
            .collect();
        let y = fft_forward(&x);
        let back = fft_inverse(&y);
        assert!(soi_num::complex::max_abs_diff(&back, &x) < 1e-12);
    }
}
