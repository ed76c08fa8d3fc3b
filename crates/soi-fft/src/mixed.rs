//! General mixed-radix Cooley–Tukey FFT.
//!
//! Handles any `N` whose prime factors are modest (the planner routes huge
//! prime factors to Bluestein instead). The decomposition is the classical
//! recursive decimation-in-time: split into `r` interleaved subsequences,
//! transform each, then combine with an `r`-point butterfly per output
//! group. Radices 2, 3, 4, 5 and 7 have hand-written codelets (pairs of 2s
//! in the factorization are merged into radix-4 levels, halving the pass
//! count for even sizes); any other radix uses a generic `O(r²)` butterfly
//! with precomputed small-root tables. The 5/7 codelets exploit the
//! real/imaginary symmetry of the roots (`ω^{r−q} = conj(ω^q)`) to halve
//! the multiply count versus the dense butterfly.
//!
//! The SOI pipeline needs this generality: the batched `F_P` stage of
//! Eq. (6) runs at `P` = node count, which is frequently non-power-of-two,
//! and the `F_{M'}` stage runs at `M' = M·(1+β)` which for β = 1/4 carries
//! a factor of 5.

use crate::codelet::{self, Codelet, Dispatch};
use crate::simd;
use crate::stockham::StockhamFft;
use crate::twiddle::Sign;
use soi_num::{AlignedBuf, Complex64};

/// Factor `n` into non-decreasing primes.
pub fn factorize(mut n: usize) -> Vec<usize> {
    assert!(n > 0, "cannot factor zero");
    let mut out = Vec::new();
    for p in [2usize, 3, 5, 7] {
        while n % p == 0 {
            out.push(p);
            n /= p;
        }
    }
    let mut p = 11;
    while p * p <= n {
        while n % p == 0 {
            out.push(p);
            n /= p;
        }
        p += 2;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

/// Largest prime factor of `n` (1 for n = 1).
pub fn largest_prime_factor(n: usize) -> usize {
    factorize(n).last().copied().unwrap_or(1)
}

/// Split/dup twiddle streams for a SIMD-combined level: `q`-major blocks
/// of `2m`, `re[(q−1)·2m + 2k]` holding `tw[k·(r−1)+(q−1)].re`
/// duplicated ×2 — so the combine's vectorized `k` loop loads its
/// twiddle operands with plain unit-stride reads.
#[derive(Debug, Clone)]
struct LevelSimd {
    re: Vec<f64>,
    im: Vec<f64>,
}

/// Per-recursion-depth precomputed data.
#[derive(Debug, Clone)]
struct Level {
    /// Radix used at this depth.
    radix: usize,
    /// Subproblem size *after* the split (`size/radix`).
    m: usize,
    /// Combination twiddles `ω_size^{q·k}` laid out as
    /// `tw[k*(r-1) + (q-1)]` for `q in 1..r`, `k in 0..m`.
    tw: Vec<Complex64>,
    /// Dense roots of order `radix` (for the generic butterfly):
    /// `roots[j] = ω_radix^j`.
    roots: Vec<Complex64>,
    /// Dup'd twiddle streams when this level has a SIMD combine
    /// (radix 4 at any `m`, radix 5 and the generic primes `8 < r < 64`
    /// at `m ≥ 2`).
    simd: Option<LevelSimd>,
}

/// A prepared mixed-radix transform of arbitrary smooth size.
#[derive(Debug, Clone)]
pub struct MixedRadixFft {
    n: usize,
    sign: Sign,
    levels: Vec<Level>,
    /// Upper bound on radix, sizing the per-execute butterfly scratch.
    max_radix: usize,
    /// Stockham smooth ladder for `n = 2^k·5^j` on SIMD hosts: the
    /// streaming stage structure beats the strided DIT recursion by
    /// 2–3× at the pipeline's hot `M' = 2^k·5` sizes, so execution
    /// delegates wholesale when the shape fits.
    ladder: Option<StockhamFft>,
}

impl MixedRadixFft {
    /// Plan a transform of size `n` (any positive integer; cost is
    /// `O(N·Σrᵢ)`, so route large prime factors to Bluestein instead),
    /// with SIMD dispatch decided by [`simd::enabled`].
    pub fn new(n: usize, sign: Sign) -> Self {
        Self::with_simd(n, sign, simd::enabled())
    }

    /// Plan with an explicit SIMD request; `want` is intersected with
    /// host support (AVX2+FMA). Deliberately ignores `SOI_NO_SIMD` so
    /// property tests can compare both paths in one process. SIMD
    /// combines exist for the radix-4 and radix-5 levels (the hot ones
    /// at `M' = 2^k·5`); other radices stay portable.
    pub fn with_simd(n: usize, sign: Sign, want: bool) -> Self {
        assert!(n > 0);
        let simd_ok = want && simd::cpu_supported();
        let factors = factorize(n);
        // Merge pairs of 2s into radix-4 levels: one radix-4 combine does
        // the work of two radix-2 passes in a single trip over the data.
        let twos = factors.iter().filter(|&&p| p == 2).count();
        let mut radices: Vec<usize> = factors.iter().copied().filter(|&p| p != 2).collect();
        radices.extend(std::iter::repeat(4).take(twos / 2));
        if twos % 2 == 1 {
            radices.push(2);
        }
        radices.sort_unstable();
        // Process large radices first: DIT combine cost is r per element
        // per level either way, but putting big radices at the top means
        // their twiddle tables are built once for the largest size only.
        let mut levels = Vec::with_capacity(radices.len());
        let mut size = n;
        let mut max_radix = 1;
        for &r in radices.iter().rev() {
            let m = size / r;
            let mut tw = Vec::with_capacity(m * (r - 1));
            for k in 0..m {
                for q in 1..r {
                    tw.push(sign.root(q * k, size));
                }
            }
            let roots = (0..r).map(|j| sign.root(j, r)).collect();
            let lsimd = if simd_ok && (r == 4 || (r == 5 && m >= 2) || (r > 8 && r < 64 && m >= 2)) {
                let mut re = vec![0.0f64; (r - 1) * 2 * m];
                let mut im = vec![0.0f64; (r - 1) * 2 * m];
                for q in 0..r - 1 {
                    for k in 0..m {
                        let w = tw[k * (r - 1) + q];
                        re[q * 2 * m + 2 * k] = w.re;
                        re[q * 2 * m + 2 * k + 1] = w.re;
                        im[q * 2 * m + 2 * k] = w.im;
                        im[q * 2 * m + 2 * k + 1] = w.im;
                    }
                }
                Some(LevelSimd { re, im })
            } else {
                None
            };
            levels.push(Level {
                radix: r,
                m,
                tw,
                roots,
                simd: lsimd,
            });
            max_radix = max_radix.max(r);
            size = m;
        }
        Self {
            n,
            sign,
            levels,
            max_radix,
            ladder: StockhamFft::for_smooth(n, sign, want),
        }
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the empty (impossible) transform.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Direction.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The butterfly codelets this plan's levels dispatch to. Must mirror
    /// the radix `match` of the recursive executor (pinned by tests) —
    /// or, when the smooth ladder took over execution, the ladder's stage
    /// radices.
    pub fn codelets(&self) -> Vec<Codelet> {
        if let Some(l) = &self.ladder {
            return l.codelets();
        }
        codelet::dedup(
            self.levels
                .iter()
                .map(|l| Codelet::for_mixed_radix(l.radix))
                .collect(),
        )
    }

    /// Per-level codelets with the active dispatch: a level reports
    /// `Avx2Fma` exactly when its combine runs the vector kernel.
    pub fn codelet_dispatch(&self) -> Vec<(Codelet, Dispatch)> {
        if let Some(l) = &self.ladder {
            return l.codelet_dispatch();
        }
        codelet::dedup_dispatch(
            self.levels
                .iter()
                .map(|l| {
                    let d = if l.simd.is_some() {
                        Dispatch::Avx2Fma
                    } else {
                        Dispatch::Portable
                    };
                    (Codelet::for_mixed_radix(l.radix), d)
                })
                .collect(),
        )
    }

    /// Out-of-place execute reusing caller scratch (`scratch.len()` must
    /// be at least [`Self::scratch_len`]); `src` is left untouched. The
    /// DIT recursion is naturally out-of-place, so this runs the exact
    /// same arithmetic as [`Self::execute_with_scratch`] (which stages
    /// `data` through scratch first) — results are bitwise identical.
    pub fn process_with_scratch(
        &self,
        src: &[Complex64],
        dst: &mut [Complex64],
        scratch: &mut [Complex64],
    ) {
        assert_eq!(src.len(), self.n);
        assert_eq!(dst.len(), self.n);
        if let Some(l) = &self.ladder {
            return l.process_with_scratch(src, dst, &mut scratch[..self.n]);
        }
        let combine = &mut scratch[..2 * self.max_radix];
        self.rec(src, 1, dst, 0, combine);
    }

    /// In-place execute (internally out-of-place into scratch).
    pub fn execute(&self, data: &mut [Complex64]) {
        let mut scratch = AlignedBuf::zeroed(self.scratch_len());
        self.execute_with_scratch(data, &mut scratch);
    }

    /// Scratch elements [`Self::execute_with_scratch`] needs: a size-`n`
    /// staging copy of the input plus the per-level combine workspace.
    pub fn scratch_len(&self) -> usize {
        self.n + 2 * self.max_radix
    }

    /// In-place execute reusing caller scratch (`scratch.len()` must be at
    /// least [`Self::scratch_len`]); allocation-free. Stale scratch
    /// contents are harmless — every element read is written first.
    pub fn execute_with_scratch(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "data length mismatch");
        assert!(
            scratch.len() >= self.scratch_len(),
            "mixed-radix scratch too short: {} < {}",
            scratch.len(),
            self.scratch_len()
        );
        if let Some(l) = &self.ladder {
            return l.execute_with_scratch(data, &mut scratch[..self.n]);
        }
        let (src, combine) = scratch.split_at_mut(self.n);
        src.copy_from_slice(data);
        self.rec(src, 1, data, 0, &mut combine[..2 * self.max_radix]);
    }

    /// Transform `data` and write `out[k] = result[k]·weights[k]` — the
    /// projection+demodulation fusion. With the smooth ladder active this
    /// skips the copy-back entirely (the weighted write reads straight
    /// from the final ping-pong buffer); otherwise it falls back to
    /// execute-then-multiply. Both are bitwise equal to the unfused path.
    pub fn execute_fused_into(
        &self,
        data: &mut [Complex64],
        scratch: &mut [Complex64],
        out: &mut [Complex64],
        weights: &[Complex64],
    ) {
        if let Some(l) = &self.ladder {
            return l.execute_fused_into(data, &mut scratch[..self.n], out, weights);
        }
        self.execute_with_scratch(data, scratch);
        simd::weighted_product(out, data, weights);
    }

    /// Recursive DIT:
    /// `input` is viewed with stride `stride`; `output[0..size]` receives
    /// the transform, where `size = n / stride`… tracked via `depth`.
    fn rec(
        &self,
        input: &[Complex64],
        stride: usize,
        output: &mut [Complex64],
        depth: usize,
        scratch: &mut [Complex64],
    ) {
        if depth == self.levels.len() {
            debug_assert_eq!(output.len(), 1);
            output[0] = input[0];
            return;
        }
        let level = &self.levels[depth];
        let r = level.radix;
        let m = level.m;
        // Transform the r decimated subsequences.
        for q in 0..r {
            self.rec(
                &input[q * stride..],
                stride * r,
                &mut output[q * m..(q + 1) * m],
                depth + 1,
                scratch,
            );
        }
        // Combine: for each k, an r-point DFT across the subsequence
        // outputs, twiddled by ω_size^{qk}.
        if self.combine_simd(level, &mut output[..r * m]) {
            return;
        }
        let (t, rest) = scratch.split_at_mut(self.max_radix);
        match r {
            2 => {
                for k in 0..m {
                    let w = level.tw[k];
                    let a = output[k];
                    let b = output[m + k] * w;
                    output[k] = a + b;
                    output[m + k] = a - b;
                }
            }
            3 => {
                // y0 = a+u; y1 = a − u/2 ∓ i·(√3/2)·v; y2 = a − u/2 ± i(√3/2)v
                // with u = b+c, v = b−c. Sign from direction.
                let s3 = {
                    // Imaginary part of ω_3 for this direction.
                    level.roots[1].im
                };
                for k in 0..m {
                    let a = output[k];
                    let b = output[m + k] * level.tw[2 * k];
                    let c = output[2 * m + k] * level.tw[2 * k + 1];
                    let u = b + c;
                    let v = b - c;
                    let half_u = u.scale(0.5);
                    let iv = v.mul_i().scale(-s3); // ∓i·(√3/2)·v folded via root sign
                    output[k] = a + u;
                    output[m + k] = a - half_u - iv;
                    output[2 * m + k] = a - half_u + iv;
                }
            }
            4 => {
                let forward = self.sign == Sign::Forward;
                for k in 0..m {
                    let a = output[k];
                    let b = output[m + k] * level.tw[3 * k];
                    let c = output[2 * m + k] * level.tw[3 * k + 1];
                    let d = output[3 * m + k] * level.tw[3 * k + 2];
                    let apc = a + c;
                    let amc = a - c;
                    let bpd = b + d;
                    let jbmd = if forward {
                        (b - d).mul_i()
                    } else {
                        (b - d).mul_neg_i()
                    };
                    output[k] = apc + bpd;
                    output[m + k] = amc - jbmd;
                    output[2 * m + k] = apc - bpd;
                    output[3 * m + k] = amc + jbmd;
                }
            }
            5 => {
                // Rader-style symmetric radix-5: fold the conjugate-pair
                // symmetry ω^4 = conj(ω), ω^3 = conj(ω²) so each output
                // pair shares one real (cos) and one imaginary (sin)
                // combination. The direction sign is already folded into
                // `roots` (sin terms flip with it), so this single code
                // path serves both forward and inverse.
                let c1 = level.roots[1].re;
                let c2 = level.roots[2].re;
                let s1 = level.roots[1].im;
                let s2 = level.roots[2].im;
                for k in 0..m {
                    let a = output[k];
                    let b = output[m + k] * level.tw[4 * k];
                    let c = output[2 * m + k] * level.tw[4 * k + 1];
                    let d = output[3 * m + k] * level.tw[4 * k + 2];
                    let e = output[4 * m + k] * level.tw[4 * k + 3];
                    let t1 = b + e;
                    let t2 = c + d;
                    let t3 = b - e;
                    let t4 = c - d;
                    let m1 = a + t1.scale(c1) + t2.scale(c2);
                    let m2 = a + t1.scale(c2) + t2.scale(c1);
                    let w1 = (t3.scale(s1) + t4.scale(s2)).mul_i();
                    let w2 = (t3.scale(s2) - t4.scale(s1)).mul_i();
                    output[k] = a + t1 + t2;
                    output[m + k] = m1 + w1;
                    output[2 * m + k] = m2 + w2;
                    output[3 * m + k] = m2 - w2;
                    output[4 * m + k] = m1 - w1;
                }
            }
            7 => {
                // Same conjugate-pair folding for radix 7: three cos/sin
                // pairs (ω^6=conj ω, ω^5=conj ω², ω^4=conj ω³).
                let c1 = level.roots[1].re;
                let c2 = level.roots[2].re;
                let c3 = level.roots[3].re;
                let s1 = level.roots[1].im;
                let s2 = level.roots[2].im;
                let s3 = level.roots[3].im;
                for k in 0..m {
                    let a = output[k];
                    let b = output[m + k] * level.tw[6 * k];
                    let c = output[2 * m + k] * level.tw[6 * k + 1];
                    let d = output[3 * m + k] * level.tw[6 * k + 2];
                    let e = output[4 * m + k] * level.tw[6 * k + 3];
                    let f = output[5 * m + k] * level.tw[6 * k + 4];
                    let g = output[6 * m + k] * level.tw[6 * k + 5];
                    let u1 = b + g;
                    let v1 = b - g;
                    let u2 = c + f;
                    let v2 = c - f;
                    let u3 = d + e;
                    let v3 = d - e;
                    let re1 = a + u1.scale(c1) + u2.scale(c2) + u3.scale(c3);
                    let im1 = (v1.scale(s1) + v2.scale(s2) + v3.scale(s3)).mul_i();
                    let re2 = a + u1.scale(c2) + u2.scale(c3) + u3.scale(c1);
                    let im2 = (v1.scale(s2) - v2.scale(s3) - v3.scale(s1)).mul_i();
                    let re3 = a + u1.scale(c3) + u2.scale(c1) + u3.scale(c2);
                    let im3 = (v1.scale(s3) - v2.scale(s1) + v3.scale(s2)).mul_i();
                    output[k] = a + u1 + u2 + u3;
                    output[m + k] = re1 + im1;
                    output[2 * m + k] = re2 + im2;
                    output[3 * m + k] = re3 + im3;
                    output[4 * m + k] = re3 - im3;
                    output[5 * m + k] = re2 - im2;
                    output[6 * m + k] = re1 - im1;
                }
            }
            _ => {
                // Generic O(r²) butterfly.
                for k in 0..m {
                    t[0] = output[k];
                    for q in 1..r {
                        t[q] = output[q * m + k] * level.tw[k * (r - 1) + (q - 1)];
                    }
                    for k2 in 0..r {
                        let mut acc = t[0];
                        for (q, &tq) in t.iter().enumerate().take(r).skip(1) {
                            acc = tq.mul_add(level.roots[(q * k2) % r], acc);
                        }
                        output[k2 * m + k] = acc;
                    }
                }
            }
        }
        let _ = rest;
    }

    /// Run a level's combine through its SIMD kernel if it has one;
    /// returns `false` (caller falls through to the scalar combine)
    /// otherwise.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn combine_simd(&self, level: &Level, output: &mut [Complex64]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if let Some(ls) = &level.simd {
            // Safety: `simd` streams are only built when AVX2+FMA was
            // detected; the radix/m geometry each kernel needs is
            // enforced at construction.
            unsafe {
                match level.radix {
                    4 => simd::avx2::mixed_r4(
                        output,
                        level.m,
                        &ls.re,
                        &ls.im,
                        self.sign == Sign::Forward,
                    ),
                    5 => {
                        let roots = &level.roots;
                        simd::avx2::mixed_r5(
                            output,
                            level.m,
                            &ls.re,
                            &ls.im,
                            roots[1].re,
                            roots[2].re,
                            roots[1].im,
                            roots[2].im,
                        )
                    }
                    r if r > 8 => {
                        simd::avx2::mixed_generic(output, level.m, r, &ls.re, &ls.im, &level.roots)
                    }
                    r => unreachable!("no SIMD combine for radix {r}"),
                }
            }
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft_naive, dft_naive_signed};
    use soi_num::{c64, complex::max_abs_diff, Complex64};

    fn test_signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * 0.61).sin() - 0.3, (i as f64 * 1.9).cos() + 0.05))
            .collect()
    }

    #[test]
    fn factorization() {
        assert_eq!(factorize(1), Vec::<usize>::new());
        assert_eq!(factorize(2), vec![2]);
        assert_eq!(factorize(12), vec![2, 2, 3]);
        assert_eq!(factorize(360), vec![2, 2, 2, 3, 3, 5]);
        assert_eq!(factorize(97), vec![97]);
        assert_eq!(factorize(121), vec![11, 11]);
        assert_eq!(largest_prime_factor(1), 1);
        assert_eq!(largest_prime_factor(2 * 3 * 49), 7);
    }

    #[test]
    fn matches_naive_dft_many_sizes() {
        for n in [
            1usize, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 20, 21, 24, 25, 27, 30, 32, 36,
            45, 49, 60, 64, 77, 81, 100, 105, 120, 128, 144, 180, 240, 343,
        ] {
            let x = test_signal(n);
            let want = dft_naive(&x);
            let plan = MixedRadixFft::new(n, Sign::Forward);
            let mut got = x.clone();
            plan.execute(&mut got);
            let err = max_abs_diff(&got, &want);
            assert!(err < 1e-9 * (n.max(4) as f64), "n={n} err={err}");
        }
    }

    #[test]
    fn inverse_direction_matches_naive() {
        for n in [6usize, 15, 20, 27, 35, 128] {
            let x = test_signal(n);
            let want = dft_naive_signed(&x, Sign::Inverse);
            let plan = MixedRadixFft::new(n, Sign::Inverse);
            let mut got = x.clone();
            plan.execute(&mut got);
            assert!(max_abs_diff(&got, &want) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn handles_moderate_prime_radix() {
        // 13, 31: exercised through the generic butterfly.
        for n in [13usize, 31, 13 * 4, 31 * 3] {
            let x = test_signal(n);
            let want = dft_naive(&x);
            let plan = MixedRadixFft::new(n, Sign::Forward);
            let mut got = x.clone();
            plan.execute(&mut got);
            assert!(max_abs_diff(&got, &want) < 1e-8 * n as f64, "n={n}");
        }
    }

    #[test]
    fn dedicated_codelets_for_radix_5_and_7() {
        use crate::codelet::Codelet;
        // 280 = 2³·5·7: the pair of 2s merges into a radix-4 level, the
        // 5 and 7 run their hand-written butterflies — nothing generic.
        let plan = MixedRadixFft::new(280, Sign::Forward);
        let cs = plan.codelets();
        assert!(cs.contains(&Codelet::Radix4), "{cs:?}");
        assert!(cs.contains(&Codelet::Radix5), "{cs:?}");
        assert!(cs.contains(&Codelet::Radix7), "{cs:?}");
        assert!(cs.iter().all(|c| !c.is_generic()), "{cs:?}");
        // A leftover prime > 7 still reports the generic fallback.
        let cs = MixedRadixFft::new(11 * 4, Sign::Forward).codelets();
        assert!(cs.contains(&Codelet::Generic(11)), "{cs:?}");
    }

    #[test]
    fn radix5_and_radix7_match_naive_both_directions() {
        // Pure and mixed powers of the hand-written odd radices.
        for n in [5usize, 7, 25, 35, 49, 175, 245, 280] {
            let x = test_signal(n);
            for sign in [Sign::Forward, Sign::Inverse] {
                let want = dft_naive_signed(&x, sign);
                let plan = MixedRadixFft::new(n, sign);
                let mut got = x.clone();
                plan.execute(&mut got);
                let err = max_abs_diff(&got, &want);
                assert!(err < 1e-9 * n.max(4) as f64, "n={n} sign={sign:?} err={err}");
            }
        }
    }

    #[test]
    fn generic_level_simd_matches_portable() {
        // Prime outer levels 11/13/31 run the vectorized dense butterfly
        // on AVX2 hosts; pit it against the forced-portable plan.
        for n in [22usize, 44, 13 * 6, 31 * 4, 11 * 25] {
            let x = test_signal(n);
            for sign in [Sign::Forward, Sign::Inverse] {
                let fast = MixedRadixFft::with_simd(n, sign, true);
                let slow = MixedRadixFft::with_simd(n, sign, false);
                let mut a = x.clone();
                let mut b = x.clone();
                fast.execute(&mut a);
                slow.execute(&mut b);
                let err = max_abs_diff(&a, &b);
                assert!(err < 1e-10 * n as f64, "n={n} sign={sign:?} err={err}");
                // And both must still match the oracle.
                let want = dft_naive_signed(&x, sign);
                assert!(max_abs_diff(&a, &want) < 1e-8 * n as f64, "n={n}");
            }
        }
    }

    #[test]
    fn smooth_ladder_takes_over_pow2_times_5_sizes() {
        if !simd::cpu_supported() {
            return;
        }
        use crate::codelet::Codelet;
        // 1280 = 2^8·5: the ladder reports Stockham stage radices, all
        // vectorized, and execution matches the naive oracle.
        let plan = MixedRadixFft::with_simd(1280, Sign::Forward, true);
        let cs = plan.codelets();
        assert!(cs.contains(&Codelet::Radix5), "{cs:?}");
        assert!(cs.contains(&Codelet::Radix8), "{cs:?}");
        assert!(
            plan.codelet_dispatch().iter().all(|&(_, d)| d == Dispatch::Avx2Fma),
            "{:?}",
            plan.codelet_dispatch()
        );
        let x = test_signal(1280);
        let want = dft_naive(&x);
        let mut got = x.clone();
        plan.execute(&mut got);
        assert!(max_abs_diff(&got, &want) < 1e-9 * 1280.0);
        // Ladder path keeps the fused == unfused bitwise contract.
        let weights: Vec<Complex64> = (0..1000)
            .map(|k| c64((k as f64 * 0.13).cos() + 1.5, (k as f64 * 0.37).sin()))
            .collect();
        let mut d1 = x.clone();
        let mut s1 = vec![Complex64::ZERO; plan.scratch_len()];
        plan.execute_with_scratch(&mut d1, &mut s1);
        let mut d2 = x.clone();
        let mut s2 = vec![Complex64::ZERO; plan.scratch_len()];
        let mut out = vec![Complex64::ZERO; 1000];
        plan.execute_fused_into(&mut d2, &mut s2, &mut out, &weights);
        for k in 0..1000 {
            let want = d1[k] * weights[k];
            assert_eq!(out[k].re.to_bits(), want.re.to_bits(), "bin {k}");
            assert_eq!(out[k].im.to_bits(), want.im.to_bits(), "bin {k}");
        }
    }

    #[test]
    fn process_with_scratch_is_bitwise_in_place_execute() {
        for n in [40usize, 44, 360, 1280] {
            let x = test_signal(n);
            let plan = MixedRadixFft::new(n, Sign::Forward);
            let mut want = x.clone();
            let mut s1 = vec![Complex64::ZERO; plan.scratch_len()];
            plan.execute_with_scratch(&mut want, &mut s1);
            let mut got = vec![Complex64::ZERO; n];
            let mut s2 = vec![Complex64::ZERO; plan.scratch_len()];
            plan.process_with_scratch(&x, &mut got, &mut s2);
            for k in 0..n {
                assert_eq!(got[k].re.to_bits(), want[k].re.to_bits(), "n={n} k={k}");
                assert_eq!(got[k].im.to_bits(), want[k].im.to_bits(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn roundtrip_smooth_size() {
        let n = 540; // 2^2·3^3·5
        let x = test_signal(n);
        let fwd = MixedRadixFft::new(n, Sign::Forward);
        let inv = MixedRadixFft::new(n, Sign::Inverse);
        let mut buf = x.clone();
        fwd.execute(&mut buf);
        inv.execute(&mut buf);
        let back: Vec<Complex64> = buf.iter().map(|&v| v / n as f64).collect();
        assert!(max_abs_diff(&back, &x) < 1e-11);
    }
}
