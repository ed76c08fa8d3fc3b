//! The §8 exact factorization — the rediscovery of Edelman,
//! McCorquodale & Toledo's "future FFT" \[14\] inside the SOI framework.
//!
//! §8: "Consider ŵ that is 1 on [0, M−1] and zero outside (−1, M). With
//! no oversampling or truncation, our framework corresponds to an exact
//! factorization
//!
//! ```text
//! F_N = (I_P ⊗ F_M) · P_perm^{P,N} · (I_M ⊗ F_P) · W^(exact)
//! ```
//!
//! The entries of W^(exact) are …
//! c_{jk} = (1/M) Σ_{ℓ=0}^{M−1} ω^ℓ,   ω = e^{ι2π(j/M − k/N)}."
//!
//! `W^(exact)` is dense (the rectangular ŵ has an abruptly-changing edge,
//! so its time dual decays only like 1/t — the reason \[14\] needed the
//! fast multipole method and the reason the paper prefers smooth windows
//! and sparse approximation). Here it is materialized densely at small N
//! as executable evidence that the framework's claim is literally true:
//! the factorization reproduces `F_N` to rounding error, with **no**
//! approximation.

use soi_fft::batch::BatchFft;
use soi_fft::permute::stride_permute;
use soi_fft::plan::Planner;
use soi_num::kahan::KahanComplexSum;
use soi_num::Complex64;

/// Entry `c_{jk}` of the exact (unoversampled, untruncated) convolution
/// matrix: the geometric sum `(1/M)·Σ_{ℓ<M} e^{ι2πℓ(j/M − k/N)}`.
pub fn w_exact_entry(n: usize, p: usize, j: usize, k: usize) -> Complex64 {
    let m = n / p;
    let mut acc = KahanComplexSum::new();
    for l in 0..m {
        // exp(+ι2πℓ(j/M − k/N)) — computed via two exact roots to avoid
        // accumulating angle error.
        let a = Complex64::root_of_unity((l * j) % m, m).conj(); // e^{+2πi lj/M}
        let b = Complex64::root_of_unity((l * k) % n, n); // e^{−2πi lk/N}
        acc.add(a * b);
    }
    acc.value().scale(1.0 / m as f64)
}

/// Apply the full §8 exact factorization to `x` (for any `p | n` with
/// `p | n/p`): `(I_P ⊗ F_M)·P_perm^{P,N}·(I_M ⊗ F_P)·W^(exact)·x`.
///
/// `O(N²)` because `W^(exact)` is dense — this is a correctness exhibit,
/// not an algorithm (the paper's point exactly).
pub fn exact_factorization_dft(x: &[Complex64], p: usize) -> Vec<Complex64> {
    let n = x.len();
    assert!(p > 0 && n % p == 0, "p must divide n");
    let m = n / p;
    // v = W^(exact)·x, grouped as M groups of P lanes: the group structure
    // mirrors the production kernel: v[j·P + s] = Σ_k c_{j,k}·(Φ-folded x).
    // From §5's stacking, row (j, s) of the grouped W is row j of
    // C_s = C_0·(I_M ⊗ diag(ω^s)), i.e. v_j[s] = Σ_k c_{jk}·ω_P^{sk}·x_k
    // — but that ω_P^{sk} modulation is exactly what the subsequent
    // (I_M ⊗ F_P) performs. So here W's group j gathers the P decimated
    // partial sums: v_j[s] = Σ_{k ≡ s (mod P)} c_{j,k}·x_k.
    let mut v = vec![Complex64::ZERO; n];
    for j in 0..m {
        for s in 0..p {
            let mut acc = KahanComplexSum::new();
            let mut k = s;
            while k < n {
                acc.add(w_exact_entry(n, p, j, k) * x[k]);
                k += p;
            }
            v[j * p + s] = acc.value();
        }
    }
    // I_M ⊗ F_P (plans from the shared process-wide cache).
    let planner = Planner::global();
    BatchFft::with_plan(planner.forward(p)).execute(&mut v);
    // P_perm^{P,N}: group-major (j, s) → segment-major (s, j).
    let mut seg = vec![Complex64::ZERO; n];
    stride_permute(&v, &mut seg, m);
    // I_P ⊗ F_M.
    BatchFft::with_plan(planner.forward(m)).execute(&mut seg);
    seg
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_fft::dft::dft_naive;
    use soi_num::complex::max_abs_diff;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.81).sin(), (i as f64 * 0.29).cos() - 0.4))
            .collect()
    }

    #[test]
    fn exact_factorization_reproduces_the_dft_exactly() {
        // §8's claim, executed: no oversampling, no truncation, no
        // approximation — agreement to rounding error.
        for (n, p) in [(16usize, 2usize), (32, 4), (36, 3), (64, 8)] {
            let x = signal(n);
            let got = exact_factorization_dft(&x, p);
            let want = dft_naive(&x);
            let err = max_abs_diff(&got, &want);
            assert!(err < 1e-10 * n as f64, "n={n} p={p} err={err}");
        }
    }

    #[test]
    fn w_exact_rows_are_dense_unlike_the_smooth_window() {
        // The rectangular ŵ gives a 1/t-decaying dual: entries far from
        // the diagonal band are small but nowhere near zero — this is why
        // [14] needed FMM and why the paper smooths the window instead.
        let (n, p) = (64usize, 4usize);
        let j = 3;
        let near = w_exact_entry(n, p, j, j * p).abs();
        // Columns k ≡ 0 (mod P) vanish identically (ω^M = 1 there); pick a
        // non-resonant far column to see the slow 1/distance decay.
        let mid = w_exact_entry(n, p, j, (j * p + n / 2 + 1) % n).abs();
        assert!(mid > 1e-3, "mid-row entry {mid:e} should not vanish");
        assert!(near > mid, "band should still dominate");
    }

    #[test]
    fn w_exact_entry_closed_form_consistency() {
        // The geometric sum has the closed form
        // (1/M)·(1 − ω^M)/(1 − ω) for ω ≠ 1, and 1 for ω = 1.
        let (n, p) = (40usize, 4usize);
        let m = n / p;
        for (j, k) in [(0usize, 0usize), (2, 8), (5, 13), (9, 39)] {
            let got = w_exact_entry(n, p, j, k);
            let theta = 2.0 * std::f64::consts::PI * (j as f64 / m as f64 - k as f64 / n as f64);
            let w = Complex64::cis(theta);
            let want = if (w - Complex64::ONE).abs() < 1e-12 {
                Complex64::ONE
            } else {
                let num = Complex64::ONE - Complex64::cis(theta * m as f64);
                (num / (Complex64::ONE - w)).scale(1.0 / m as f64)
            };
            assert!((got - want).abs() < 1e-10, "j={j} k={k}: {got:?} vs {want:?}");
        }
    }
}
