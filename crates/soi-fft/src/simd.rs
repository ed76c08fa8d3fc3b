//! Runtime-dispatched SIMD butterfly kernels (AVX2 + FMA).
//!
//! This module is the single dispatch seam for every vectorized kernel in
//! the FFT engines, mirroring the convolution kernel's seam in
//! `soi-core/src/conv.rs`: engines decide **once, at plan construction**
//! whether to build SIMD twiddle streams — [`enabled`] combines
//! `is_x86_feature_detected!("avx2"/"fma")` with the `SOI_NO_SIMD`
//! ablation knob — and from then on every execute of that plan takes the
//! same code path. That is what keeps SIMD execution bitwise reproducible
//! run-to-run and bitwise identical across worker counts (the PR 2
//! determinism pins): dispatch is a function of the host CPU and process
//! environment, never of data, thread count, or timing.
//!
//! ## Operand layout (see DESIGN.md §13)
//!
//! Data stays in the interleaved `[re, im, re, im]` layout of
//! [`Complex64`] — one 256-bit register holds **2 complex doubles** — so
//! loads and stores are plain unit-stride `vmovupd`. Twiddles come in two
//! flavors:
//!
//! * **split/dup streams** (`re_dup`/`im_dup`: every factor duplicated
//!   `×2` into separate real and imaginary `f64` streams) where the
//!   twiddle *varies along* the vectorized axis — the mixed-radix `k`
//!   loops and the Stockham first stage. A 256-bit load then directly
//!   yields `[w_k.re, w_k.re, w_{k+1}.re, w_{k+1}.re]`, ready for the
//!   multiply, with no shuffle in the inner loop.
//! * **broadcast** (`_mm256_set1_pd`) where one twiddle covers the whole
//!   vectorized axis — the Stockham `q` loops, hoisted out per `p`.
//! * **in-register dup** (`movedup`/`permute_pd`) where the twiddle table
//!   is large and shared with the scalar path — the four-step twiddle
//!   pass — so the dup costs one shuffle instead of doubling the streamed
//!   bytes of an `n`-element table.
//!
//! A complex product `w·v` is two instructions after the dup:
//! `fmaddsub(w_re, v, w_im·swap(v))` — the deferred addsub reconciliation
//! trick, with the FMA giving the real part a single rounding.
//!
//! ## Determinism contract
//!
//! FMA contracts `a·b±c` into one rounding, so **SIMD butterflies cannot
//! be bitwise-equal to the portable ones** (which round the product and
//! the sum separately); property tests pin the two paths to tight ulp
//! bounds instead. The *weighted multiplies* of the fused
//! projection+demodulation epilogues are the exception: they use the
//! non-FMA form `addsub(w_re·v, w_im·swap(v))`, which performs exactly
//! the roundings of the scalar `Complex64::mul` in the same order — so
//! [`weighted_product`] is bitwise identical to the scalar multiply loop
//! and the `fused == unfused` bitwise pins hold with SIMD active.

use soi_num::Complex64;
use std::sync::OnceLock;

/// True when the `SOI_NO_SIMD` ablation knob disables vector dispatch
/// (any non-empty value other than `0`). Read once per process so the
/// dispatch decision cannot change mid-run.
pub fn no_simd_env() -> bool {
    static V: OnceLock<bool> = OnceLock::new();
    *V.get_or_init(|| {
        std::env::var("SOI_NO_SIMD")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// True when the host CPU can run the AVX2+FMA kernels.
pub fn cpu_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The process-wide dispatch decision: CPU support minus the
/// `SOI_NO_SIMD` ablation override. Engines consult this (plus their
/// own shape conditions) at plan-construction time.
pub fn enabled() -> bool {
    cpu_supported() && !no_simd_env()
}

/// Report string for benches/logs, matching the conv kernel's.
pub fn kernel_name() -> &'static str {
    if enabled() {
        "avx2+fma"
    } else {
        "portable"
    }
}

/// `out[k] = res[k] * w[k]` for `k < out.len()` — the weighted write of
/// every fused projection+demodulation epilogue and fallback multiply.
///
/// **Bitwise identical** to the scalar loop on every path: the AVX2 body
/// uses the non-FMA `addsub(w_re·v, w_im·swap(v))` form, whose per-lane
/// roundings are exactly those of `Complex64::mul` (FP addition is
/// commutative, so the imaginary lane's swapped operand order changes
/// nothing). That identity is what lets one helper serve both the fused
/// engines and the unfused reference paths that tests pin against each
/// other.
pub fn weighted_product(out: &mut [Complex64], res: &[Complex64], w: &[Complex64]) {
    let len = out.len();
    assert!(res.len() >= len && w.len() >= len, "weighted_product operands too short");
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA; all three operands hold
        // `len` elements.
        unsafe {
            avx2::weighted_product(out, &res[..len], &w[..len]);
        }
        return;
    }
    for (k, slot) in out.iter_mut().enumerate() {
        *slot = res[k] * w[k];
    }
}

/// `data[k] = data[k] * w[k]` — the in-place weighted multiply of
/// Bluestein's pointwise filter pass and the chirp sweeps. Same exact
/// (non-FMA) rounding contract as [`weighted_product`]: bitwise
/// identical to the scalar loop on every path.
pub fn weighted_product_in(data: &mut [Complex64], w: &[Complex64]) {
    let len = data.len();
    assert!(w.len() >= len, "weighted_product_in weights too short");
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA; both operands hold `len`
        // elements.
        unsafe {
            avx2::weighted_product_in(data, &w[..len]);
        }
        return;
    }
    for (k, slot) in data.iter_mut().enumerate() {
        *slot = *slot * w[k];
    }
}

/// The AVX2+FMA kernel bodies. Everything here is `unsafe fn` gated on
/// `#[target_feature(enable = "avx2", enable = "fma")]`; callers must
/// have checked [`cpu_supported`]. Helper intrinsic wrappers are
/// `#[inline(always)]` so they inherit the caller's feature context, the
/// same pattern as `soi-core/src/conv.rs`.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::Complex64;
    use core::arch::x86_64::*;

    /// Load 2 complex doubles.
    #[inline(always)]
    unsafe fn ld(p: *const Complex64) -> __m256d {
        _mm256_loadu_pd(p as *const f64)
    }

    /// Store 2 complex doubles.
    #[inline(always)]
    unsafe fn st(p: *mut Complex64, v: __m256d) {
        _mm256_storeu_pd(p as *mut f64, v)
    }

    /// Swap re/im within each complex lane: `[re,im,..] -> [im,re,..]`.
    #[inline(always)]
    unsafe fn swap_ri(v: __m256d) -> __m256d {
        _mm256_permute_pd(v, 0b0101)
    }

    /// Sign mask negating lanes 0 and 2 (the re slots).
    #[inline(always)]
    unsafe fn mask_neg_re() -> __m256d {
        _mm256_set_pd(0.0, -0.0, 0.0, -0.0)
    }

    /// Sign mask negating lanes 1 and 3 (the im slots).
    #[inline(always)]
    unsafe fn mask_neg_im() -> __m256d {
        _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
    }

    /// `±i · v` per complex lane: `mul_i` with [`mask_neg_re`],
    /// `mul_neg_i` with [`mask_neg_im`]. Pure permute+sign-flip — bitwise
    /// identical to the scalar rotations.
    #[inline(always)]
    unsafe fn jrot(v: __m256d, mask: __m256d) -> __m256d {
        _mm256_xor_pd(swap_ri(v), mask)
    }

    /// Complex multiply `w·v` with `w` pre-split into dup'd re/im
    /// operands: `fmaddsub(w_re, v, w_im·swap(v))`. One FMA rounding on
    /// each lane — fast, but *not* bitwise-equal to scalar.
    #[inline(always)]
    unsafe fn cmul_fma(v: __m256d, wre: __m256d, wim: __m256d) -> __m256d {
        _mm256_fmaddsub_pd(wre, v, _mm256_mul_pd(wim, swap_ri(v)))
    }

    /// Complex multiply `v·w` with the exact roundings of the scalar
    /// `Complex64::mul`: both products rounded, then addsub. Used by the
    /// fused-epilogue weighted writes so fused == unfused stays bitwise.
    #[inline(always)]
    unsafe fn cmul_exact(v: __m256d, wre: __m256d, wim: __m256d) -> __m256d {
        _mm256_addsub_pd(_mm256_mul_pd(wre, v), _mm256_mul_pd(wim, swap_ri(v)))
    }

    /// Duplicate the real parts of an interleaved pair: `[a.re, a.re,
    /// b.re, b.re]`.
    #[inline(always)]
    unsafe fn dup_re(w: __m256d) -> __m256d {
        _mm256_movedup_pd(w)
    }

    /// Duplicate the imaginary parts: `[a.im, a.im, b.im, b.im]`.
    #[inline(always)]
    unsafe fn dup_im(w: __m256d) -> __m256d {
        _mm256_permute_pd(w, 0b1111)
    }

    /// Radix-4 DIF butterfly core on 2-complex vectors; mirrors the
    /// scalar `stage_radix4` arithmetic exactly (up to FP associativity
    /// that both share). `jmask` selects the direction's ω₄ rotation.
    #[inline(always)]
    unsafe fn dft4(
        a: __m256d,
        b: __m256d,
        c: __m256d,
        d: __m256d,
        jmask: __m256d,
    ) -> (__m256d, __m256d, __m256d, __m256d) {
        let apc = _mm256_add_pd(a, c);
        let amc = _mm256_sub_pd(a, c);
        let bpd = _mm256_add_pd(b, d);
        let jbmd = jrot(_mm256_sub_pd(b, d), jmask);
        (
            _mm256_add_pd(apc, bpd),
            _mm256_sub_pd(amc, jbmd),
            _mm256_sub_pd(apc, bpd),
            _mm256_add_pd(amc, jbmd),
        )
    }

    /// `out[k] = res[k]·w[k]`, exact-rounding form (see
    /// [`super::weighted_product`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn weighted_product(out: &mut [Complex64], res: &[Complex64], w: &[Complex64]) {
        let len = out.len();
        let len2 = len & !1;
        let op = out.as_mut_ptr();
        let rp = res.as_ptr();
        let wp = w.as_ptr();
        let mut k = 0;
        while k < len2 {
            let v = ld(rp.add(k));
            let wv = ld(wp.add(k));
            st(op.add(k), cmul_exact(v, dup_re(wv), dup_im(wv)));
            k += 2;
        }
        if k < len {
            out[k] = res[k] * w[k];
        }
    }

    /// `data[k] = data[k]·w[k]`, exact-rounding form (see
    /// [`super::weighted_product_in`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn weighted_product_in(data: &mut [Complex64], w: &[Complex64]) {
        let len = data.len();
        let len2 = len & !1;
        let dp = data.as_mut_ptr();
        let wp = w.as_ptr();
        let mut k = 0;
        while k < len2 {
            let v = ld(dp.add(k));
            let wv = ld(wp.add(k));
            st(dp.add(k), cmul_exact(v, dup_re(wv), dup_im(wv)));
            k += 2;
        }
        if k < len {
            data[k] = data[k] * w[k];
        }
    }

    /// Batched in-place 8-point DFTs over `rows` contiguous rows of 8
    /// complex doubles — the `fft_p` stage of the SOI pipeline at
    /// `P = 8`, where per-row plan dispatch can't vectorize (each row is
    /// a single butterfly). Two rows run per iteration: column `c` of
    /// rows `(r, r+1)` forms one 256-bit vector via a split load, the
    /// radix-8 DIF butterfly runs vertically across the pair, and a
    /// single-stage size-8 transform has unit twiddles and natural-order
    /// output, so results store straight back. Each 128-bit half is
    /// independent, so a row's bits do not depend on its pairing — the
    /// across-worker-count determinism pins hold for any row split. An
    /// odd final row computes in the low half alone.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dft8_rows(data: &mut [Complex64], rows: usize, forward: bool) {
        debug_assert_eq!(data.len(), rows * 8);
        let jmask = if forward { mask_neg_re() } else { mask_neg_im() };
        let kmask = if forward { mask_neg_im() } else { mask_neg_re() };
        let rv = _mm256_set1_pd(0.5f64.sqrt());
        let base = data.as_mut_ptr() as *mut f64;
        let mut r = 0;
        while r < rows {
            let pair = r + 1 < rows;
            let lo = base.add(r * 16);
            let hi = if pair { base.add((r + 1) * 16) } else { lo };
            let a0 = _mm256_loadu2_m128d(hi, lo);
            let a1 = _mm256_loadu2_m128d(hi.add(2), lo.add(2));
            let a2 = _mm256_loadu2_m128d(hi.add(4), lo.add(4));
            let a3 = _mm256_loadu2_m128d(hi.add(6), lo.add(6));
            let a4 = _mm256_loadu2_m128d(hi.add(8), lo.add(8));
            let a5 = _mm256_loadu2_m128d(hi.add(10), lo.add(10));
            let a6 = _mm256_loadu2_m128d(hi.add(12), lo.add(12));
            let a7 = _mm256_loadu2_m128d(hi.add(14), lo.add(14));
            let s0 = _mm256_add_pd(a0, a4);
            let s1 = _mm256_add_pd(a1, a5);
            let s2 = _mm256_add_pd(a2, a6);
            let s3 = _mm256_add_pd(a3, a7);
            let d0 = _mm256_sub_pd(a0, a4);
            let d1 = _mm256_sub_pd(a1, a5);
            let d2 = _mm256_sub_pd(a2, a6);
            let d3 = _mm256_sub_pd(a3, a7);
            let (e0, e1, e2, e3) = dft4(s0, s1, s2, s3, jmask);
            let t1 = _mm256_mul_pd(_mm256_add_pd(d1, jrot(d1, kmask)), rv);
            let t2 = jrot(d2, kmask);
            let t3 = _mm256_mul_pd(_mm256_sub_pd(jrot(d3, kmask), d3), rv);
            let (o0, o1, o2, o3) = dft4(d0, t1, t2, t3, jmask);
            let v = [e0, o0, e1, o1, e2, o2, e3, o3];
            if pair {
                let mut c = 0;
                while c < 8 {
                    _mm256_storeu2_m128d(hi.add(c * 2), lo.add(c * 2), v[c]);
                    c += 1;
                }
            } else {
                let mut c = 0;
                while c < 8 {
                    _mm_storeu_pd(lo.add(c * 2), _mm256_castpd256_pd128(v[c]));
                    c += 1;
                }
            }
            r += 2;
        }
    }

    // ------------------------------------------------------------------
    // Stockham stages
    // ------------------------------------------------------------------

    /// Radix-2 Stockham stage vectorized over the stream index `q`
    /// (`s ≥ 2` and even — after the first stage `s` is always a
    /// multiple of 8). Twiddles are per-`p`, broadcast outside the `q`
    /// loop.
    ///
    /// `xld` is the distance between consecutive butterfly operands in
    /// `x`: `s` for the packed in-order layout (the plain Stockham
    /// ping-pong), or a larger row stride when the stage reads columns
    /// straight out of a row-major matrix (the four-step column pass).
    /// Writes are always packed at stride `s`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn stockham_q2(
        x: &[Complex64],
        y: &mut [Complex64],
        tw: &[Complex64],
        m: usize,
        s: usize,
        xld: usize,
    ) {
        debug_assert!(s >= 2 && s % 2 == 0);
        debug_assert!(xld >= s);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        for p in 0..m {
            let w = *tw.get_unchecked(p);
            let wre = _mm256_set1_pd(w.re);
            let wim = _mm256_set1_pd(w.im);
            let xa = xp.add(xld * p);
            let xb = xp.add(xld * (p + m));
            let y0 = yp.add(s * (2 * p));
            let y1 = yp.add(s * (2 * p + 1));
            let mut q = 0;
            while q < s {
                let a = ld(xa.add(q));
                let b = ld(xb.add(q));
                st(y0.add(q), _mm256_add_pd(a, b));
                st(y1.add(q), cmul_fma(_mm256_sub_pd(a, b), wre, wim));
                q += 2;
            }
        }
    }

    /// Radix-4 Stockham stage vectorized over `q` (`s` even). `xld` as
    /// in [`stockham_q2`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn stockham_q4(
        x: &[Complex64],
        y: &mut [Complex64],
        tw: &[Complex64],
        m: usize,
        s: usize,
        xld: usize,
        forward: bool,
    ) {
        debug_assert!(s >= 2 && s % 2 == 0);
        debug_assert!(xld >= s);
        let jmask = if forward { mask_neg_re() } else { mask_neg_im() };
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        for p in 0..m {
            let w1 = *tw.get_unchecked(p * 3);
            let w2 = *tw.get_unchecked(p * 3 + 1);
            let w3 = *tw.get_unchecked(p * 3 + 2);
            let w1re = _mm256_set1_pd(w1.re);
            let w1im = _mm256_set1_pd(w1.im);
            let w2re = _mm256_set1_pd(w2.re);
            let w2im = _mm256_set1_pd(w2.im);
            let w3re = _mm256_set1_pd(w3.re);
            let w3im = _mm256_set1_pd(w3.im);
            let xa = xp.add(xld * p);
            let xb = xp.add(xld * (p + m));
            let xc = xp.add(xld * (p + 2 * m));
            let xd = xp.add(xld * (p + 3 * m));
            let y0 = yp.add(s * (4 * p));
            let y1 = yp.add(s * (4 * p + 1));
            let y2 = yp.add(s * (4 * p + 2));
            let y3 = yp.add(s * (4 * p + 3));
            let mut q = 0;
            while q < s {
                let a = ld(xa.add(q));
                let b = ld(xb.add(q));
                let c = ld(xc.add(q));
                let d = ld(xd.add(q));
                let (e0, e1, e2, e3) = dft4(a, b, c, d, jmask);
                st(y0.add(q), e0);
                st(y1.add(q), cmul_fma(e1, w1re, w1im));
                st(y2.add(q), cmul_fma(e2, w2re, w2im));
                st(y3.add(q), cmul_fma(e3, w3re, w3im));
                q += 2;
            }
        }
    }

    /// Radix-8 Stockham stage vectorized over `q` (`s` even). The split
    /// is the same even/odd-of-4 DIF as the scalar kernel: sums feed one
    /// radix-4 butterfly, differences are rotated by ω₈ powers (two √½
    /// scalings and axis flips) and feed a second.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn stockham_q8(
        x: &[Complex64],
        y: &mut [Complex64],
        tw: &[Complex64],
        m: usize,
        s: usize,
        xld: usize,
        forward: bool,
    ) {
        debug_assert!(s >= 2 && s % 2 == 0);
        debug_assert!(xld >= s);
        let jmask = if forward { mask_neg_re() } else { mask_neg_im() };
        let kmask = if forward { mask_neg_im() } else { mask_neg_re() };
        let rv = _mm256_set1_pd(0.5f64.sqrt());
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        for p in 0..m {
            let t = &tw[p * 7..p * 7 + 7];
            // Broadcast the seven stage twiddles once per p; the register
            // allocator spills what it must to L1, which the `q` loop's
            // reloads hit for free.
            let tre: [__m256d; 7] = core::array::from_fn(|i| _mm256_set1_pd(t[i].re));
            let tim: [__m256d; 7] = core::array::from_fn(|i| _mm256_set1_pd(t[i].im));
            let xr: [*const Complex64; 8] = core::array::from_fn(|c| xp.add(xld * (p + c * m)));
            let yr: [*mut Complex64; 8] = core::array::from_fn(|j| yp.add(s * (8 * p + j)));
            let mut q = 0;
            while q < s {
                let a0 = ld(xr[0].add(q));
                let a1 = ld(xr[1].add(q));
                let a2 = ld(xr[2].add(q));
                let a3 = ld(xr[3].add(q));
                let a4 = ld(xr[4].add(q));
                let a5 = ld(xr[5].add(q));
                let a6 = ld(xr[6].add(q));
                let a7 = ld(xr[7].add(q));
                let s0 = _mm256_add_pd(a0, a4);
                let s1 = _mm256_add_pd(a1, a5);
                let s2 = _mm256_add_pd(a2, a6);
                let s3 = _mm256_add_pd(a3, a7);
                let d0 = _mm256_sub_pd(a0, a4);
                let d1 = _mm256_sub_pd(a1, a5);
                let d2 = _mm256_sub_pd(a2, a6);
                let d3 = _mm256_sub_pd(a3, a7);
                let (e0, e1, e2, e3) = dft4(s0, s1, s2, s3, jmask);
                let t1 = _mm256_mul_pd(_mm256_add_pd(d1, jrot(d1, kmask)), rv);
                let t2 = jrot(d2, kmask);
                let t3 = _mm256_mul_pd(_mm256_sub_pd(jrot(d3, kmask), d3), rv);
                let (o0, o1, o2, o3) = dft4(d0, t1, t2, t3, jmask);
                st(yr[0].add(q), e0);
                st(yr[1].add(q), cmul_fma(o0, tre[0], tim[0]));
                st(yr[2].add(q), cmul_fma(e1, tre[1], tim[1]));
                st(yr[3].add(q), cmul_fma(o1, tre[2], tim[2]));
                st(yr[4].add(q), cmul_fma(e2, tre[3], tim[3]));
                st(yr[5].add(q), cmul_fma(o2, tre[4], tim[4]));
                st(yr[6].add(q), cmul_fma(e3, tre[5], tim[5]));
                st(yr[7].add(q), cmul_fma(o3, tre[6], tim[6]));
                q += 2;
            }
        }
    }

    /// Radix-5 Stockham stage vectorized over `q` (`s` even), used by the
    /// four-step batched column pass for `a = 5^j·2^k` splits. Same
    /// butterfly-then-twiddle DIF shape as [`stockham_q4`]: the 5-point
    /// DFT in the conjugate-pair symmetric form of [`mixed_r5`]
    /// (`c1 = Re ω₅`, `c2 = Re ω₅²`, `s1 = Im ω₅`, `s2 = Im ω₅²`,
    /// direction-signed), then outputs 1..4 scaled by the four stage
    /// twiddles `tw[p·4 + j−1]`. `xld` as in [`stockham_q2`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn stockham_q5(
        x: &[Complex64],
        y: &mut [Complex64],
        tw: &[Complex64],
        m: usize,
        s: usize,
        xld: usize,
        c1: f64,
        c2: f64,
        s1: f64,
        s2: f64,
    ) {
        debug_assert!(s >= 2 && s % 2 == 0);
        debug_assert!(xld >= s);
        let imask = mask_neg_re(); // mul_i: negate re lanes after swap
        let c1b = _mm256_set1_pd(c1);
        let c2b = _mm256_set1_pd(c2);
        let s1b = _mm256_set1_pd(s1);
        let s2b = _mm256_set1_pd(s2);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        for p in 0..m {
            let t = &tw[p * 4..p * 4 + 4];
            let tre: [__m256d; 4] = core::array::from_fn(|i| _mm256_set1_pd(t[i].re));
            let tim: [__m256d; 4] = core::array::from_fn(|i| _mm256_set1_pd(t[i].im));
            let xr: [*const Complex64; 5] = core::array::from_fn(|c| xp.add(xld * (p + c * m)));
            let yr: [*mut Complex64; 5] = core::array::from_fn(|j| yp.add(s * (5 * p + j)));
            let mut q = 0;
            while q < s {
                let a = ld(xr[0].add(q));
                let b = ld(xr[1].add(q));
                let c = ld(xr[2].add(q));
                let d = ld(xr[3].add(q));
                let e = ld(xr[4].add(q));
                let t1 = _mm256_add_pd(b, e);
                let t2 = _mm256_add_pd(c, d);
                let t3 = _mm256_sub_pd(b, e);
                let t4 = _mm256_sub_pd(c, d);
                let m1 = _mm256_fmadd_pd(t2, c2b, _mm256_fmadd_pd(t1, c1b, a));
                let m2v = _mm256_fmadd_pd(t2, c1b, _mm256_fmadd_pd(t1, c2b, a));
                let w1 = jrot(_mm256_fmadd_pd(t4, s2b, _mm256_mul_pd(t3, s1b)), imask);
                let w2 = jrot(_mm256_fmsub_pd(t3, s2b, _mm256_mul_pd(t4, s1b)), imask);
                st(yr[0].add(q), _mm256_add_pd(_mm256_add_pd(a, t1), t2));
                st(yr[1].add(q), cmul_fma(_mm256_add_pd(m1, w1), tre[0], tim[0]));
                st(yr[2].add(q), cmul_fma(_mm256_add_pd(m2v, w2), tre[1], tim[1]));
                st(yr[3].add(q), cmul_fma(_mm256_sub_pd(m2v, w2), tre[2], tim[2]));
                st(yr[4].add(q), cmul_fma(_mm256_sub_pd(m1, w1), tre[3], tim[3]));
                q += 2;
            }
        }
    }

    /// The four-step column pass's fused twiddle scatter: write a
    /// finished `rows×w` tile back into `w` columns of the row-major
    /// `rows×ld` matrix `dst`, multiplying by the matching twiddle block
    /// on the way out. `dst` and `tw` are both indexed `[r·ld + q]`
    /// (caller pre-offsets both to the tile's first column), so every
    /// access is a contiguous `w`-element run — no transpose is needed
    /// because the tile already holds the batch in column order.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn twiddle_rows(
        tile: &[Complex64],
        tw: &[Complex64],
        dst: &mut [Complex64],
        rows: usize,
        w: usize,
        dld: usize,
    ) {
        debug_assert!(w >= 2 && w % 2 == 0);
        debug_assert!(tile.len() >= rows * w);
        let tp = tile.as_ptr();
        let wp = tw.as_ptr();
        let dp = dst.as_mut_ptr();
        for r in 0..rows {
            let src = tp.add(r * w);
            let twr = wp.add(r * dld);
            let out = dp.add(r * dld);
            let mut q = 0;
            while q < w {
                let v = ld(src.add(q));
                let t = ld(twr.add(q));
                st(out.add(q), cmul_fma(v, dup_re(t), dup_im(t)));
                q += 2;
            }
        }
    }

    /// First Stockham stage (`s == 1`, radix 8) vectorized over *pairs
    /// of `p`* — the stream axis has length 1, so the sub-vector index is
    /// the only axis left. Inputs `x[p + c·m]` are contiguous in `p`;
    /// twiddles come from the plan's split/dup streams (`re_dup[(c−1)·2m
    /// + 2p]`, each factor duplicated ×2) so one load yields the operand
    /// for a `[p, p+1]` pair. Outputs for one `p` land contiguously at
    /// `y[8p..8p+8]`, so the pair's 8 result vectors are re-interleaved
    /// with `permute2f128` into full-width stores. `m = n/8 ≥ 2` is a
    /// power of two, so there is no odd tail.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn stockham_first8(
        x: &[Complex64],
        y: &mut [Complex64],
        re_dup: &[f64],
        im_dup: &[f64],
        m: usize,
        forward: bool,
    ) {
        debug_assert!(m >= 2 && m % 2 == 0);
        debug_assert_eq!(re_dup.len(), 7 * 2 * m);
        let jmask = if forward { mask_neg_re() } else { mask_neg_im() };
        let kmask = if forward { mask_neg_im() } else { mask_neg_re() };
        let rv = _mm256_set1_pd(0.5f64.sqrt());
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let rp = re_dup.as_ptr();
        let ip = im_dup.as_ptr();
        let mut p = 0;
        while p < m {
            let a0 = ld(xp.add(p));
            let a1 = ld(xp.add(p + m));
            let a2 = ld(xp.add(p + 2 * m));
            let a3 = ld(xp.add(p + 3 * m));
            let a4 = ld(xp.add(p + 4 * m));
            let a5 = ld(xp.add(p + 5 * m));
            let a6 = ld(xp.add(p + 6 * m));
            let a7 = ld(xp.add(p + 7 * m));
            let s0 = _mm256_add_pd(a0, a4);
            let s1 = _mm256_add_pd(a1, a5);
            let s2 = _mm256_add_pd(a2, a6);
            let s3 = _mm256_add_pd(a3, a7);
            let d0 = _mm256_sub_pd(a0, a4);
            let d1 = _mm256_sub_pd(a1, a5);
            let d2 = _mm256_sub_pd(a2, a6);
            let d3 = _mm256_sub_pd(a3, a7);
            let (e0, e1, e2, e3) = dft4(s0, s1, s2, s3, jmask);
            let t1 = _mm256_mul_pd(_mm256_add_pd(d1, jrot(d1, kmask)), rv);
            let t2 = jrot(d2, kmask);
            let t3 = _mm256_mul_pd(_mm256_sub_pd(jrot(d3, kmask), d3), rv);
            let (o0, o1, o2, o3) = dft4(d0, t1, t2, t3, jmask);
            // v[j] = [out_p(j), out_{p+1}(j)]; twiddle c = j−1 streams.
            let tw = |c: usize| -> (__m256d, __m256d) {
                (
                    _mm256_loadu_pd(rp.add(c * 2 * m + 2 * p)),
                    _mm256_loadu_pd(ip.add(c * 2 * m + 2 * p)),
                )
            };
            let (r0, i0) = tw(0);
            let (r1, i1) = tw(1);
            let (r2, i2) = tw(2);
            let (r3, i3) = tw(3);
            let (r4, i4) = tw(4);
            let (r5, i5) = tw(5);
            let (r6, i6) = tw(6);
            let v = [
                e0,
                cmul_fma(o0, r0, i0),
                cmul_fma(e1, r1, i1),
                cmul_fma(o1, r2, i2),
                cmul_fma(e2, r3, i3),
                cmul_fma(o2, r4, i4),
                cmul_fma(e3, r5, i5),
                cmul_fma(o3, r6, i6),
            ];
            let out0 = yp.add(8 * p);
            let out1 = yp.add(8 * p + 8);
            let mut t = 0;
            while t < 8 {
                let lo = _mm256_permute2f128_pd(v[t], v[t + 1], 0x20);
                let hi = _mm256_permute2f128_pd(v[t], v[t + 1], 0x31);
                st(out0.add(t), lo);
                st(out1.add(t), hi);
                t += 2;
            }
            p += 2;
        }
    }

    // ------------------------------------------------------------------
    // Mixed-radix combines
    // ------------------------------------------------------------------

    /// Radix-4 DIT combine vectorized over `k` with split/dup twiddle
    /// streams (`q`-major: block `q−1` holds `re_dup[2m]` then the
    /// matching `im_dup[2m]`). `m == 1` (the leaf level, unit twiddles)
    /// runs an in-register 4-point butterfly; odd `m` finishes with one
    /// scalar column using the same formulas as the portable path.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn mixed_r4(
        out: &mut [Complex64],
        m: usize,
        re_dup: &[f64],
        im_dup: &[f64],
        forward: bool,
    ) {
        let jmask = if forward { mask_neg_re() } else { mask_neg_im() };
        let op = out.as_mut_ptr();
        if m == 1 {
            // [a, b] and [c, d]; sum/dif lanes regroup into
            // A = [a+c, a−c] and B = [b+d, b−d] across the 128-bit halves,
            // then D = [b+d, ∓i·(b−d)] makes the outputs A±D.
            let va = ld(op);
            let vc = ld(op.add(2));
            let sum = _mm256_add_pd(va, vc);
            let dif = _mm256_sub_pd(va, vc);
            let ab = _mm256_permute2f128_pd(sum, dif, 0x20); // [a+c, a−c]
            let bv = _mm256_permute2f128_pd(sum, dif, 0x31); // [b+d, b−d]
            // Lane pair 1 needs −jbmd = opposite rotation of (b−d).
            let kmask = if forward { mask_neg_im() } else { mask_neg_re() };
            let rot = jrot(bv, kmask);
            let dv = _mm256_blend_pd(bv, rot, 0b1100); // [b+d, −jbmd]
            st(op, _mm256_add_pd(ab, dv));
            st(op.add(2), _mm256_sub_pd(ab, dv));
            return;
        }
        debug_assert_eq!(re_dup.len(), 3 * 2 * m);
        let rp = re_dup.as_ptr();
        let ip = im_dup.as_ptr();
        let m2 = m & !1;
        let mut k = 0;
        while k < m2 {
            let a = ld(op.add(k));
            let b = cmul_fma(
                ld(op.add(m + k)),
                _mm256_loadu_pd(rp.add(2 * k)),
                _mm256_loadu_pd(ip.add(2 * k)),
            );
            let c = cmul_fma(
                ld(op.add(2 * m + k)),
                _mm256_loadu_pd(rp.add(2 * m + 2 * k)),
                _mm256_loadu_pd(ip.add(2 * m + 2 * k)),
            );
            let d = cmul_fma(
                ld(op.add(3 * m + k)),
                _mm256_loadu_pd(rp.add(4 * m + 2 * k)),
                _mm256_loadu_pd(ip.add(4 * m + 2 * k)),
            );
            let (y0, y1, y2, y3) = dft4(a, b, c, d, jmask);
            st(op.add(k), y0);
            st(op.add(m + k), y1);
            st(op.add(2 * m + k), y2);
            st(op.add(3 * m + k), y3);
            k += 2;
        }
        if k < m {
            // Scalar tail column, same formulas as the portable combine.
            let w = |q: usize| Complex64 {
                re: *rp.add(q * 2 * m + 2 * k),
                im: *ip.add(q * 2 * m + 2 * k),
            };
            let a = out[k];
            let b = out[m + k] * w(0);
            let c = out[2 * m + k] * w(1);
            let d = out[3 * m + k] * w(2);
            let apc = a + c;
            let amc = a - c;
            let bpd = b + d;
            let jbmd = if forward { (b - d).mul_i() } else { (b - d).mul_neg_i() };
            out[k] = apc + bpd;
            out[m + k] = amc - jbmd;
            out[2 * m + k] = apc - bpd;
            out[3 * m + k] = amc + jbmd;
        }
    }

    /// Radix-5 DIT combine vectorized over `k` (`m ≥ 2`), the
    /// conjugate-pair symmetric form of the portable codelet. The
    /// direction sign lives in `c1..s2` and the twiddle streams, so one
    /// body serves both signs; `·i` rotations are permute+sign-flip.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn mixed_r5(
        out: &mut [Complex64],
        m: usize,
        re_dup: &[f64],
        im_dup: &[f64],
        c1: f64,
        c2: f64,
        s1: f64,
        s2: f64,
    ) {
        debug_assert!(m >= 2);
        debug_assert_eq!(re_dup.len(), 4 * 2 * m);
        let imask = mask_neg_re(); // mul_i: negate re lanes after swap
        let c1b = _mm256_set1_pd(c1);
        let c2b = _mm256_set1_pd(c2);
        let s1b = _mm256_set1_pd(s1);
        let s2b = _mm256_set1_pd(s2);
        let op = out.as_mut_ptr();
        let rp = re_dup.as_ptr();
        let ip = im_dup.as_ptr();
        let m2 = m & !1;
        let mut k = 0;
        while k < m2 {
            let a = ld(op.add(k));
            let b = cmul_fma(
                ld(op.add(m + k)),
                _mm256_loadu_pd(rp.add(2 * k)),
                _mm256_loadu_pd(ip.add(2 * k)),
            );
            let c = cmul_fma(
                ld(op.add(2 * m + k)),
                _mm256_loadu_pd(rp.add(2 * m + 2 * k)),
                _mm256_loadu_pd(ip.add(2 * m + 2 * k)),
            );
            let d = cmul_fma(
                ld(op.add(3 * m + k)),
                _mm256_loadu_pd(rp.add(4 * m + 2 * k)),
                _mm256_loadu_pd(ip.add(4 * m + 2 * k)),
            );
            let e = cmul_fma(
                ld(op.add(4 * m + k)),
                _mm256_loadu_pd(rp.add(6 * m + 2 * k)),
                _mm256_loadu_pd(ip.add(6 * m + 2 * k)),
            );
            let t1 = _mm256_add_pd(b, e);
            let t2 = _mm256_add_pd(c, d);
            let t3 = _mm256_sub_pd(b, e);
            let t4 = _mm256_sub_pd(c, d);
            let m1 = _mm256_fmadd_pd(t2, c2b, _mm256_fmadd_pd(t1, c1b, a));
            let m2v = _mm256_fmadd_pd(t2, c1b, _mm256_fmadd_pd(t1, c2b, a));
            let w1 = jrot(_mm256_fmadd_pd(t4, s2b, _mm256_mul_pd(t3, s1b)), imask);
            let w2 = jrot(_mm256_fmsub_pd(t3, s2b, _mm256_mul_pd(t4, s1b)), imask);
            st(op.add(k), _mm256_add_pd(_mm256_add_pd(a, t1), t2));
            st(op.add(m + k), _mm256_add_pd(m1, w1));
            st(op.add(2 * m + k), _mm256_add_pd(m2v, w2));
            st(op.add(3 * m + k), _mm256_sub_pd(m2v, w2));
            st(op.add(4 * m + k), _mm256_sub_pd(m1, w1));
            k += 2;
        }
        if k < m {
            // Scalar tail column, mirroring the portable codelet.
            let w = |q: usize| Complex64 {
                re: *rp.add(q * 2 * m + 2 * k),
                im: *ip.add(q * 2 * m + 2 * k),
            };
            let a = out[k];
            let b = out[m + k] * w(0);
            let c = out[2 * m + k] * w(1);
            let d = out[3 * m + k] * w(2);
            let e = out[4 * m + k] * w(3);
            let t1 = b + e;
            let t2 = c + d;
            let t3 = b - e;
            let t4 = c - d;
            let m1 = a + t1.scale(c1) + t2.scale(c2);
            let m2s = a + t1.scale(c2) + t2.scale(c1);
            let w1 = (t3.scale(s1) + t4.scale(s2)).mul_i();
            let w2 = (t3.scale(s2) - t4.scale(s1)).mul_i();
            out[k] = a + t1 + t2;
            out[m + k] = m1 + w1;
            out[2 * m + k] = m2s + w2;
            out[3 * m + k] = m2s - w2;
            out[4 * m + k] = m1 - w1;
        }
    }

    /// Generic-radix DIT combine vectorized over `k` (`m ≥ 2`,
    /// `8 < r < 64`) — the outer prime levels (11, 13, …) of the
    /// mixed-radix engine. The `r` twiddled inputs for a `k`-pair are
    /// staged in registers, then each of the `r` outputs accumulates the
    /// dense `O(r²)` butterfly with broadcast roots and one FMA complex
    /// product per term. Same structure as the portable fallback, just
    /// two columns at a time.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn mixed_generic(
        out: &mut [Complex64],
        m: usize,
        r: usize,
        re_dup: &[f64],
        im_dup: &[f64],
        roots: &[Complex64],
    ) {
        debug_assert!(m >= 2 && r > 8 && r < 64);
        debug_assert_eq!(re_dup.len(), (r - 1) * 2 * m);
        debug_assert_eq!(roots.len(), r);
        let op = out.as_mut_ptr();
        let rp = re_dup.as_ptr();
        let ip = im_dup.as_ptr();
        let mut t = [_mm256_setzero_pd(); 64];
        let m2 = m & !1;
        let mut k = 0;
        while k < m2 {
            t[0] = ld(op.add(k));
            for q in 1..r {
                t[q] = cmul_fma(
                    ld(op.add(q * m + k)),
                    _mm256_loadu_pd(rp.add((q - 1) * 2 * m + 2 * k)),
                    _mm256_loadu_pd(ip.add((q - 1) * 2 * m + 2 * k)),
                );
            }
            for k2 in 0..r {
                let mut acc = t[0];
                for (q, &tq) in t.iter().enumerate().take(r).skip(1) {
                    let w = *roots.get_unchecked((q * k2) % r);
                    acc = _mm256_add_pd(
                        acc,
                        cmul_fma(tq, _mm256_set1_pd(w.re), _mm256_set1_pd(w.im)),
                    );
                }
                st(op.add(k2 * m + k), acc);
            }
            k += 2;
        }
        if k < m {
            // Scalar tail column, mirroring the portable butterfly.
            let mut ts = [Complex64::ZERO; 64];
            ts[0] = out[k];
            for q in 1..r {
                let w = Complex64 {
                    re: *rp.add((q - 1) * 2 * m + 2 * k),
                    im: *ip.add((q - 1) * 2 * m + 2 * k),
                };
                ts[q] = out[q * m + k] * w;
            }
            for k2 in 0..r {
                let mut acc = ts[0];
                for (q, &tq) in ts.iter().enumerate().take(r).skip(1) {
                    acc = tq.mul_add(roots[(q * k2) % r], acc);
                }
                out[k2 * m + k] = acc;
            }
        }
    }

    // ------------------------------------------------------------------
    // Four-step passes
    // ------------------------------------------------------------------

    /// Transpose block edge, matching `fourstep::BLOCK`.
    const BLOCK: usize = 32;

    /// Blocked complex transpose `dst[c·rows + r] = src[r·cols + c]`
    /// via 2×2 complex micro-tiles (`permute2f128` re-pairings), scalar
    /// odd edges.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn transpose(src: &[Complex64], dst: &mut [Complex64], rows: usize, cols: usize) {
        debug_assert_eq!(src.len(), rows * cols);
        debug_assert_eq!(dst.len(), rows * cols);
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let mut r0 = 0;
        while r0 < rows {
            let r1 = (r0 + BLOCK).min(rows);
            let mut c0 = 0;
            while c0 < cols {
                let c1 = (c0 + BLOCK).min(cols);
                let re = r0 + ((r1 - r0) & !1);
                let ce = c0 + ((c1 - c0) & !1);
                let mut r = r0;
                while r < re {
                    let row0 = sp.add(r * cols);
                    let row1 = sp.add((r + 1) * cols);
                    let mut c = c0;
                    while c < ce {
                        let va = ld(row0.add(c));
                        let vb = ld(row1.add(c));
                        st(dp.add(c * rows + r), _mm256_permute2f128_pd(va, vb, 0x20));
                        st(dp.add((c + 1) * rows + r), _mm256_permute2f128_pd(va, vb, 0x31));
                        c += 2;
                    }
                    while c < c1 {
                        *dp.add(c * rows + r) = *row0.add(c);
                        *dp.add(c * rows + r + 1) = *row1.add(c);
                        c += 1;
                    }
                    r += 2;
                }
                while r < r1 {
                    let row = sp.add(r * cols);
                    for c in c0..c1 {
                        *dp.add(c * rows + r) = *row.add(c);
                    }
                    r += 1;
                }
                c0 = c1;
            }
            r0 = r1;
        }
    }

    /// The four-step fused steps 3+4: `data[k1·b + j2] = buf[j2·a + k1] ·
    /// tw[j2·a + k1]` — twiddle multiplication riding the blocked
    /// transpose-back. The twiddle table stays in its interleaved shared
    /// layout; dup happens in-register (one shuffle per operand) so the
    /// streamed bytes of the size-`n` table don't double.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn twiddle_transpose(
        buf: &[Complex64],
        tw: &[Complex64],
        data: &mut [Complex64],
        a: usize,
        b: usize,
    ) {
        debug_assert_eq!(buf.len(), a * b);
        debug_assert_eq!(tw.len(), a * b);
        debug_assert_eq!(data.len(), a * b);
        let bp = buf.as_ptr();
        let tp = tw.as_ptr();
        let dp = data.as_mut_ptr();
        let mut c0 = 0;
        while c0 < a {
            let c1 = (c0 + BLOCK).min(a);
            let mut r0 = 0;
            while r0 < b {
                let r1 = (r0 + BLOCK).min(b);
                let re = r0 + ((r1 - r0) & !1);
                let ce = c0 + ((c1 - c0) & !1);
                let mut j2 = r0;
                while j2 < re {
                    let mut k1 = c0;
                    while k1 < ce {
                        let i0 = j2 * a + k1;
                        let va = ld(bp.add(i0));
                        let wa = ld(tp.add(i0));
                        let pa = cmul_fma(va, dup_re(wa), dup_im(wa));
                        let vb = ld(bp.add(i0 + a));
                        let wb = ld(tp.add(i0 + a));
                        let pb = cmul_fma(vb, dup_re(wb), dup_im(wb));
                        st(dp.add(k1 * b + j2), _mm256_permute2f128_pd(pa, pb, 0x20));
                        st(dp.add((k1 + 1) * b + j2), _mm256_permute2f128_pd(pa, pb, 0x31));
                        k1 += 2;
                    }
                    while k1 < c1 {
                        *dp.add(k1 * b + j2) = *bp.add(j2 * a + k1) * *tp.add(j2 * a + k1);
                        *dp.add(k1 * b + j2 + 1) = *bp.add((j2 + 1) * a + k1) * *tp.add((j2 + 1) * a + k1);
                        k1 += 1;
                    }
                    j2 += 2;
                }
                while j2 < r1 {
                    for k1 in c0..c1 {
                        *dp.add(k1 * b + j2) = *bp.add(j2 * a + k1) * *tp.add(j2 * a + k1);
                    }
                    j2 += 1;
                }
                r0 = r1;
            }
            c0 = c1;
        }
    }

    /// The four-step fused epilogue: blocked weighted transpose
    /// `out[k2·a + k1] = data[k1·b + k2] · w[k2·a + k1]` for output
    /// indices `< out.len()`. Uses the **exact** (non-FMA) complex
    /// multiply so the fused result stays bitwise equal to
    /// execute-then-multiply; the boundary region falls back to the
    /// scalar multiply, which is the same arithmetic.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn weighted_transpose(
        data: &[Complex64],
        w: &[Complex64],
        out: &mut [Complex64],
        a: usize,
        b: usize,
    ) {
        debug_assert_eq!(data.len(), a * b);
        let klim = out.len();
        debug_assert!(w.len() >= klim);
        let dp = data.as_ptr();
        let wp = w.as_ptr();
        let op = out.as_mut_ptr();
        let mut r0 = 0;
        while r0 < a {
            let r1 = (r0 + BLOCK).min(a);
            let mut c0 = 0;
            while c0 < b {
                let c1 = (c0 + BLOCK).min(b);
                let re = r0 + ((r1 - r0) & !1);
                let ce = c0 + ((c1 - c0) & !1);
                let mut k1 = r0;
                while k1 < re {
                    let row0 = dp.add(k1 * b);
                    let row1 = dp.add((k1 + 1) * b);
                    let mut k2 = c0;
                    // Vector tile valid while its largest output index
                    // (k2+1)·a + k1 + 1 is inside the projection.
                    while k2 < ce && (k2 + 1) * a + k1 + 1 < klim {
                        let va = ld(row0.add(k2));
                        let vb = ld(row1.add(k2));
                        let t0 = _mm256_permute2f128_pd(va, vb, 0x20);
                        let t1 = _mm256_permute2f128_pd(va, vb, 0x31);
                        let w0 = ld(wp.add(k2 * a + k1));
                        let w1 = ld(wp.add((k2 + 1) * a + k1));
                        st(op.add(k2 * a + k1), cmul_exact(t0, dup_re(w0), dup_im(w0)));
                        st(op.add((k2 + 1) * a + k1), cmul_exact(t1, dup_re(w1), dup_im(w1)));
                        k2 += 2;
                    }
                    while k2 < c1 {
                        let k = k2 * a + k1;
                        if k < klim {
                            *op.add(k) = *row0.add(k2) * *wp.add(k);
                        }
                        if k + 1 < klim {
                            *op.add(k + 1) = *row1.add(k2) * *wp.add(k + 1);
                        }
                        k2 += 1;
                    }
                    k1 += 2;
                }
                while k1 < r1 {
                    let row = dp.add(k1 * b);
                    for k2 in c0..c1 {
                        let k = k2 * a + k1;
                        if k < klim {
                            *op.add(k) = *row.add(k2) * *wp.add(k);
                        }
                    }
                    k1 += 1;
                }
                c0 = c1;
            }
            r0 = r1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_num::c64;

    #[test]
    fn kernel_name_is_consistent_with_enabled() {
        assert_eq!(kernel_name(), if enabled() { "avx2+fma" } else { "portable" });
        // enabled() can only be a restriction of cpu_supported().
        assert!(!enabled() || cpu_supported());
    }

    #[test]
    fn weighted_product_matches_scalar_bitwise() {
        // Covers the dispatched path on AVX2 hosts and the scalar path
        // elsewhere — both must equal the plain multiply loop bitwise,
        // including the odd-length tail.
        for n in [1usize, 2, 7, 64, 129] {
            let res: Vec<Complex64> = (0..n)
                .map(|i| c64((i as f64 * 0.7).sin() + 0.2, (i as f64 * 1.1).cos()))
                .collect();
            let w: Vec<Complex64> = (0..n)
                .map(|i| c64((i as f64 * 0.3).cos() - 1.1, (i as f64 * 0.9).sin()))
                .collect();
            let mut got = vec![Complex64::ZERO; n];
            weighted_product(&mut got, &res, &w);
            for k in 0..n {
                let want = res[k] * w[k];
                assert_eq!(got[k].re.to_bits(), want.re.to_bits(), "n={n} k={k}");
                assert_eq!(got[k].im.to_bits(), want.im.to_bits(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn weighted_product_in_matches_scalar_bitwise() {
        for n in [1usize, 2, 7, 64, 129] {
            let src: Vec<Complex64> = (0..n)
                .map(|i| c64((i as f64 * 0.7).sin() + 0.2, (i as f64 * 1.1).cos()))
                .collect();
            let w: Vec<Complex64> = (0..n)
                .map(|i| c64((i as f64 * 0.3).cos() - 1.1, (i as f64 * 0.9).sin()))
                .collect();
            let mut got = src.clone();
            weighted_product_in(&mut got, &w);
            for k in 0..n {
                let want = src[k] * w[k];
                assert_eq!(got[k].re.to_bits(), want.re.to_bits(), "n={n} k={k}");
                assert_eq!(got[k].im.to_bits(), want.im.to_bits(), "n={n} k={k}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn dft8_rows_matches_naive_dft() {
        if !cpu_supported() {
            return;
        }
        for rows in [1usize, 2, 3, 8, 17] {
            for forward in [true, false] {
                let src: Vec<Complex64> = (0..rows * 8)
                    .map(|i| c64((i as f64 * 0.47).sin() + 0.1, (i as f64 * 0.73).cos()))
                    .collect();
                let mut got = src.clone();
                unsafe { avx2::dft8_rows(&mut got, rows, forward) };
                for r in 0..rows {
                    let row = &src[r * 8..r * 8 + 8];
                    for k in 0..8 {
                        let mut want = Complex64::ZERO;
                        for j in 0..8 {
                            let ang = 2.0 * std::f64::consts::PI * (j * k % 8) as f64 / 8.0;
                            let (s, c) = if forward {
                                ((-ang).sin(), (-ang).cos())
                            } else {
                                (ang.sin(), ang.cos())
                            };
                            want = want + row[j] * c64(c, s);
                        }
                        let err = (got[r * 8 + k] - want).abs();
                        assert!(err < 1e-12, "rows={rows} fwd={forward} r={r} k={k} err={err}");
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn transpose_kernel_matches_scalar() {
        if !cpu_supported() {
            return;
        }
        for (rows, cols) in [(4usize, 6usize), (5, 7), (32, 32), (33, 65), (1, 9), (64, 10)] {
            let src: Vec<Complex64> = (0..rows * cols)
                .map(|i| c64(i as f64, -(i as f64) * 0.5))
                .collect();
            let mut got = vec![Complex64::ZERO; rows * cols];
            unsafe { avx2::transpose(&src, &mut got, rows, cols) };
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(got[c * rows + r], src[r * cols + c], "{rows}x{cols} ({r},{c})");
                }
            }
        }
    }
}
