//! The convolution kernel `v = W·x` — SOI's "extra" arithmetic (§6b).
//!
//! Per Fig 4, the per-node matrix has `M'` rows over `M + halo` columns,
//! structured as chunks of `μ` row-groups that share one window of `B`
//! input blocks; every scalar row is a length-`B` inner product with
//! stride-`P` taps, and lanes `s = 0..P` of a row-group read *contiguous*
//! input, which is what makes the kernel vectorizable.
//!
//! Three implementations:
//!
//! * [`convolve`] — the production entry point: chunked μ-row coefficient
//!   reuse + register tiling, dispatched at runtime to an AVX2+FMA inner
//!   kernel when the CPU has it. This mirrors the paper's loop
//!   interchange + unroll-and-jam + SIMD treatment that reached ~40% of
//!   machine peak (§7.4).
//! * [`convolve_portable`] — the same loop structure in safe, portable
//!   Rust; the fallback path and the SIMD ablation baseline.
//! * [`convolve_naive`] — the textbook 4-deep loop nest in the paper's
//!   pseudo-code order (lane-strided inner products, no reuse), kept as
//!   the ablation baseline for the `conv_kernel` bench.
//!
//! The segment/band extraction has its own row kernel, [`zoom_pooled`]:
//! one output per row instead of `P`, each a contiguous `BP`-tap dot
//! product against taps that carry the shift-theorem phase
//! ([`ZoomTaps`]), on the same dispatch seam and interleaved tap layout.

use crate::coeff::ConvCoefficients;
use crate::error::SoiError;
use crate::pipeline::nyquist_fold;
use soi_num::{AlignedBuf, Complex64};
use soi_pool::{part_range, SlicePtr, ThreadPool};

/// Parameters the kernels need (a small copy-friendly subset of
/// `SoiConfig`, so the kernels stay testable in isolation).
#[derive(Debug, Clone, Copy)]
pub struct ConvShape {
    /// Oversampling numerator μ.
    pub mu: usize,
    /// Oversampling denominator ν.
    pub nu: usize,
    /// Tap blocks read per output row. This is the **tap count**
    /// `B + 1`, one more than the designed support `B` (see
    /// `SoiConfig::taps` for why), not `B` itself.
    pub b: usize,
    /// Lanes per block P.
    pub p: usize,
}

impl ConvShape {
    /// Input elements required to produce `rows` output rows:
    /// `(rows·ν/μ + b − 1)·P` — the rows' own `rows·(ν/μ)·P` points plus
    /// the `(b − 1)·P = B·P` halo, with `b` the tap count from the field
    /// above.
    pub fn required_input(&self, rows: usize) -> usize {
        assert!(rows % self.mu == 0, "rows must be a multiple of mu");
        (rows / self.mu * self.nu + self.b - 1) * self.p
    }

    /// First input block read by output row `j` (rank-relative):
    /// `k₀(j) = ⌊jν/μ⌋`.
    #[inline]
    pub fn k0(&self, j: usize) -> usize {
        j * self.nu / self.mu
    }
}

/// Optimized convolution: fills `out` (`rows·P` values, row-major in
/// `(j, s)`) from `xext` (local input followed by the halo).
///
/// Dispatches once per call on runtime CPU features: an AVX2+FMA kernel
/// where the hardware has it (see [`kernel_name`]), otherwise the
/// portable register-tiled kernel. Both orders the reduction identically,
/// so each path is bitwise deterministic run-to-run and across worker
/// counts; the two paths differ from each other only by FMA rounding.
pub fn convolve(shape: ConvShape, coeffs: &ConvCoefficients, xext: &[Complex64], out: &mut [Complex64]) {
    let ConvShape { mu, p, .. } = shape;
    let rows = out.len() / p;
    assert_eq!(out.len(), rows * p, "out must be whole rows");
    assert!(rows % mu == 0, "rows {rows} must be a multiple of mu {mu}");
    assert!(
        xext.len() >= shape.required_input(rows),
        "xext too short: {} < {}",
        xext.len(),
        shape.required_input(rows)
    );
    #[cfg(target_arch = "x86_64")]
    if avx2::available() {
        // SAFETY: avx2+fma presence just checked; slice extents were
        // validated by the asserts above.
        unsafe { avx2::convolve(shape, coeffs, xext, out) };
        return;
    }
    convolve_portable(shape, coeffs, xext, out);
}

/// Name of the convolution inner kernel [`convolve`] dispatches to on
/// this machine (`"avx2+fma"` or `"portable"`); recorded by the kernel
/// bench so committed numbers say which path produced them. Honors the
/// `SOI_NO_SIMD` ablation knob, like the FFT engines' dispatch.
pub fn kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2::available() {
        return "avx2+fma";
    }
    "portable"
}

/// The portable (no target-feature) kernel: register-tiles four lanes ×
/// two tap blocks (2×4 unroll-and-jam), so eight complex accumulators
/// live in registers across the whole B-tap reduction (instead of a
/// load/modify/store of `out` per tap), with two independent FMA chains
/// per lane to cover the FMA latency — the §6b "keep partial sums of
/// inner products in registers while exploiting SIMD parallelism"
/// treatment, expressed in safe Rust. Public as the dispatch-free
/// reference for tests and the kernel-bench ablation.
pub fn convolve_portable(
    shape: ConvShape,
    coeffs: &ConvCoefficients,
    xext: &[Complex64],
    out: &mut [Complex64],
) {
    let ConvShape { mu, nu, b, p } = shape;
    let rows = out.len() / p;
    assert_eq!(out.len(), rows * p, "out must be whole rows");
    assert!(rows % mu == 0, "rows {rows} must be a multiple of mu {mu}");
    assert!(
        xext.len() >= shape.required_input(rows),
        "xext too short: {} < {}",
        xext.len(),
        shape.required_input(rows)
    );
    let chunks = rows / mu;
    for c in 0..chunks {
        for r in 0..mu {
            let j = c * mu + r;
            let k0 = c * nu + r * nu / mu;
            let out_row = &mut out[j * p..(j + 1) * p];
            let taps = &coeffs.coef[r * b * p..(r + 1) * b * p];
            let xin = &xext[k0 * p..];
            // 2×4 unroll-and-jam: four lanes × two tap blocks per
            // iteration. The eight accumulators give two independent FMA
            // chains per lane, hiding the complex-FMA latency that a
            // single chain per lane serializes on; banks are summed once
            // at the end (a fixed reassociation, identical for every
            // worker count).
            let mut s = 0;
            while s + 4 <= p {
                let (mut a0, mut a1, mut a2, mut a3) = (
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ZERO,
                );
                let (mut b0, mut b1, mut b2, mut b3) = (
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ZERO,
                );
                let mut blk = 0;
                while blk + 2 <= b {
                    let ci = blk * p + s;
                    let cj = ci + p;
                    let t = &taps[ci..ci + 4];
                    let x = &xin[ci..ci + 4];
                    let u = &taps[cj..cj + 4];
                    let z = &xin[cj..cj + 4];
                    a0 = t[0].mul_add(x[0], a0);
                    a1 = t[1].mul_add(x[1], a1);
                    a2 = t[2].mul_add(x[2], a2);
                    a3 = t[3].mul_add(x[3], a3);
                    b0 = u[0].mul_add(z[0], b0);
                    b1 = u[1].mul_add(z[1], b1);
                    b2 = u[2].mul_add(z[2], b2);
                    b3 = u[3].mul_add(z[3], b3);
                    blk += 2;
                }
                if blk < b {
                    let ci = blk * p + s;
                    let t = &taps[ci..ci + 4];
                    let x = &xin[ci..ci + 4];
                    a0 = t[0].mul_add(x[0], a0);
                    a1 = t[1].mul_add(x[1], a1);
                    a2 = t[2].mul_add(x[2], a2);
                    a3 = t[3].mul_add(x[3], a3);
                }
                out_row[s] = a0 + b0;
                out_row[s + 1] = a1 + b1;
                out_row[s + 2] = a2 + b2;
                out_row[s + 3] = a3 + b3;
                s += 4;
            }
            // Remainder lanes.
            while s < p {
                let mut acc = Complex64::ZERO;
                for blk in 0..b {
                    acc = taps[blk * p + s].mul_add(xin[blk * p + s], acc);
                }
                out_row[s] = acc;
                s += 1;
            }
        }
    }
}

/// AVX2+FMA inner kernel, selected at runtime by [`convolve`].
///
/// Lanes are processed two complex values per 256-bit register. The
/// complex multiply-accumulate is split into two plain FMA streams over
/// the interleaved taps of [`ConvCoefficients::coef`] — `m += t·x`
/// collects `[t.re·x.re, t.im·x.im]` and `n += t·swap(x)` collects
/// `[t.re·x.im, t.im·x.re]` per lane — with the reconciliation
/// `[Σt.re·x.re − Σt.im·x.im, Σt.re·x.im + Σt.im·x.re]` deferred to one
/// unpack pair and one `addsub` after the whole B-tap reduction (legal
/// because both distribute over the sums). The loop spends its shuffle
/// port only on `swap(x)`: per tap and lane-pair the cost is 2 loads +
/// 1 shuffle + 2 FMAs, from a 16-byte-per-tap table (18.5 KB at
/// Digits10, P = 8) that stays in L1 beside a row's input. The same
/// 2-tap × 4-lane jam as the portable kernel gives eight independent
/// FMA chains.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::ConvShape;
    use crate::coeff::ConvCoefficients;
    use soi_num::Complex64;
    use std::arch::x86_64::*;

    /// Runtime gate for the kernel: CPU features (cached atomics inside
    /// `std`) minus the process-wide `SOI_NO_SIMD` ablation override,
    /// sharing the FFT engines' dispatch seam so one knob disables every
    /// vector kernel in the workspace.
    #[inline]
    pub fn available() -> bool {
        soi_fft::simd::enabled()
    }

    /// Two consecutive complex taps × two complex values at flat offset
    /// `ci`, both interleaved `[re im re im]`: `m += t·x`,
    /// `n += t·swap(x)`.
    ///
    /// SAFETY: caller guarantees avx2+fma and that `ci + 2` taps and
    /// values are readable.
    #[inline(always)]
    unsafe fn tap_pair(
        m: &mut __m256d,
        n: &mut __m256d,
        taps: *const f64,
        xin: *const Complex64,
        ci: usize,
    ) {
        let x = _mm256_loadu_pd(xin.add(ci) as *const f64);
        let xsw = _mm256_permute_pd(x, 0b0101);
        let t = _mm256_loadu_pd(taps.add(2 * ci));
        *m = _mm256_fmadd_pd(t, x, *m);
        *n = _mm256_fmadd_pd(t, xsw, *n);
    }

    /// The two complex values a pair of [`tap_pair`] accumulators holds:
    /// `[m₀−m₁, n₀+n₁, m₂−m₃, n₂+n₃]`.
    ///
    /// SAFETY: caller guarantees avx2.
    #[inline(always)]
    unsafe fn reconcile(m: __m256d, n: __m256d) -> __m256d {
        _mm256_addsub_pd(_mm256_unpacklo_pd(m, n), _mm256_unpackhi_pd(m, n))
    }

    /// SAFETY: caller checked [`available`] and validated slice extents
    /// (the asserts in [`super::convolve`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn convolve(
        shape: ConvShape,
        coeffs: &ConvCoefficients,
        xext: &[Complex64],
        out: &mut [Complex64],
    ) {
        let ConvShape { mu, nu, b, p } = shape;
        let rows = out.len() / p;
        let chunks = rows / mu;
        let zero = _mm256_setzero_pd();
        for c in 0..chunks {
            for r in 0..mu {
                let j = c * mu + r;
                let k0 = c * nu + r * nu / mu;
                let out_row = &mut out[j * p..(j + 1) * p];
                let trow = r * b * p;
                let taps = coeffs.coef[trow..trow + b * p].as_ptr() as *const f64;
                let xrow = &xext[k0 * p..];
                let xin = xrow.as_ptr();
                let mut s = 0;
                while s + 4 <= p {
                    // 2 lane-pairs × 2 jammed tap banks = 8 FMA chains.
                    let (mut m0a, mut n0a, mut m1a, mut n1a) = (zero, zero, zero, zero);
                    let (mut m0b, mut n0b, mut m1b, mut n1b) = (zero, zero, zero, zero);
                    let mut blk = 0;
                    while blk + 2 <= b {
                        let ci = blk * p + s;
                        let cj = ci + p;
                        tap_pair(&mut m0a, &mut n0a, taps, xin, ci);
                        tap_pair(&mut m1a, &mut n1a, taps, xin, ci + 2);
                        tap_pair(&mut m0b, &mut n0b, taps, xin, cj);
                        tap_pair(&mut m1b, &mut n1b, taps, xin, cj + 2);
                        blk += 2;
                    }
                    if blk < b {
                        let ci = blk * p + s;
                        tap_pair(&mut m0a, &mut n0a, taps, xin, ci);
                        tap_pair(&mut m1a, &mut n1a, taps, xin, ci + 2);
                    }
                    let r0 = reconcile(_mm256_add_pd(m0a, m0b), _mm256_add_pd(n0a, n0b));
                    let r1 = reconcile(_mm256_add_pd(m1a, m1b), _mm256_add_pd(n1a, n1b));
                    _mm256_storeu_pd(out_row.as_mut_ptr().add(s) as *mut f64, r0);
                    _mm256_storeu_pd(out_row.as_mut_ptr().add(s + 2) as *mut f64, r1);
                    s += 4;
                }
                while s + 2 <= p {
                    let (mut m0, mut n0) = (zero, zero);
                    for blk in 0..b {
                        tap_pair(&mut m0, &mut n0, taps, xin, blk * p + s);
                    }
                    let r0 = reconcile(m0, n0);
                    _mm256_storeu_pd(out_row.as_mut_ptr().add(s) as *mut f64, r0);
                    s += 2;
                }
                // Odd trailing lane (P is even in every real config).
                while s < p {
                    let mut acc = Complex64::ZERO;
                    for blk in 0..b {
                        acc = coeffs.coef[trow + blk * p + s].mul_add(xrow[blk * p + s], acc);
                    }
                    out_row[s] = acc;
                    s += 1;
                }
            }
        }
    }

    /// One lane-quad × one tap of the real-input kernel: the four real
    /// samples are loaded once and duplicated across re/im slots
    /// (`[x0 x0 x1 x1]`, `[x2 x2 x3 x3]`), so one FMA against the
    /// *interleaved* complex tap register advances both components of two
    /// lanes — 2 FMAs per tap per 4 lanes, half the complex kernel's 4.
    ///
    /// SAFETY: caller guarantees avx2+fma and `ci + 4 ≤ b·p` for the row
    /// slices passed in.
    #[inline(always)]
    unsafe fn real_quad(
        a01: &mut __m256d,
        a23: &mut __m256d,
        taps: *const f64,
        xin: *const f64,
        ci: usize,
    ) {
        let x = _mm256_loadu_pd(xin.add(ci));
        let x01 = _mm256_permute4x64_pd(x, 0x50);
        let x23 = _mm256_permute4x64_pd(x, 0xFA);
        let t01 = _mm256_loadu_pd(taps.add(2 * ci));
        let t23 = _mm256_loadu_pd(taps.add(2 * ci + 4));
        *a01 = _mm256_fmadd_pd(t01, x01, *a01);
        *a23 = _mm256_fmadd_pd(t23, x23, *a23);
    }

    /// Real-input AVX2+FMA kernel, selected at runtime by
    /// [`super::convolve_real`]. Same chunk/jam structure as the complex
    /// kernel; no addsub reconciliation is needed because the interleaved
    /// accumulators already hold `[re im re im]`.
    ///
    /// SAFETY: caller checked [`available`] and validated slice extents.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn convolve_real(
        shape: ConvShape,
        coeffs: &ConvCoefficients,
        xext: &[f64],
        out: &mut [Complex64],
    ) {
        let ConvShape { mu, nu, b, p } = shape;
        let rows = out.len() / p;
        let chunks = rows / mu;
        let zero = _mm256_setzero_pd();
        for c in 0..chunks {
            for r in 0..mu {
                let j = c * mu + r;
                let k0 = c * nu + r * nu / mu;
                let out_row = &mut out[j * p..(j + 1) * p];
                let trow = r * b * p;
                let taps = coeffs.coef[trow..trow + b * p].as_ptr() as *const f64;
                let xrow = &xext[k0 * p..];
                let xin = xrow.as_ptr();
                let mut s = 0;
                while s + 4 <= p {
                    // 2 quad-registers × 2 jammed tap banks = 4 FMA chains.
                    let (mut a01, mut a23) = (zero, zero);
                    let (mut b01, mut b23) = (zero, zero);
                    let mut blk = 0;
                    while blk + 2 <= b {
                        let ci = blk * p + s;
                        real_quad(&mut a01, &mut a23, taps, xin, ci);
                        real_quad(&mut b01, &mut b23, taps, xin, ci + p);
                        blk += 2;
                    }
                    if blk < b {
                        real_quad(&mut a01, &mut a23, taps, xin, blk * p + s);
                    }
                    let r01 = _mm256_add_pd(a01, b01);
                    let r23 = _mm256_add_pd(a23, b23);
                    _mm256_storeu_pd(out_row.as_mut_ptr().add(s) as *mut f64, r01);
                    _mm256_storeu_pd(out_row.as_mut_ptr().add(s + 2) as *mut f64, r23);
                    s += 4;
                }
                // Trailing lanes (never hit in real configs: P is even
                // and ≥ 4 whenever the r2c path is admissible).
                while s < p {
                    let mut acc = Complex64::ZERO;
                    for blk in 0..b {
                        let t = coeffs.coef[trow + blk * p + s];
                        let xv = xrow[blk * p + s];
                        acc = Complex64::new(t.re.mul_add(xv, acc.re), t.im.mul_add(xv, acc.im));
                    }
                    out_row[s] = acc;
                    s += 1;
                }
            }
        }
    }

    /// One zoom row over complex samples: `Σ_t taps[t]·data[t]` with
    /// interleaved complex taps, [`tap_pair`] and [`reconcile`] as in the
    /// full kernel. Four tap-pairs per step give eight independent FMA
    /// chains; an odd trailing tap (odd `BP`) takes the scalar path.
    ///
    /// SAFETY: caller guarantees avx2+fma and that `taps` holds
    /// `2·data.len()` values.
    #[inline(always)]
    pub(super) unsafe fn complex_dot(taps: *const f64, data: &[Complex64]) -> Complex64 {
        let bp = data.len();
        let xin = data.as_ptr();
        let zero = _mm256_setzero_pd();
        let (mut m0, mut n0, mut m1, mut n1) = (zero, zero, zero, zero);
        let (mut m2, mut n2, mut m3, mut n3) = (zero, zero, zero, zero);
        let mut t = 0;
        while t + 8 <= bp {
            tap_pair(&mut m0, &mut n0, taps, xin, t);
            tap_pair(&mut m1, &mut n1, taps, xin, t + 2);
            tap_pair(&mut m2, &mut n2, taps, xin, t + 4);
            tap_pair(&mut m3, &mut n3, taps, xin, t + 6);
            t += 8;
        }
        while t + 2 <= bp {
            tap_pair(&mut m0, &mut n0, taps, xin, t);
            t += 2;
        }
        let m = _mm256_add_pd(_mm256_add_pd(m0, m1), _mm256_add_pd(m2, m3));
        let n = _mm256_add_pd(_mm256_add_pd(n0, n1), _mm256_add_pd(n2, n3));
        let mut acc = hsum_pairs(reconcile(m, n));
        if t < bp {
            let tap = Complex64::new(*taps.add(2 * t), *taps.add(2 * t + 1));
            acc = tap.mul_add(data[t], acc);
        }
        acc
    }

    /// One zoom row over real samples: `Σ_t taps[t]·data[t]` with
    /// interleaved complex taps, four samples per [`real_quad`], eight per
    /// step (four FMA chains); the `BP mod 4` trailing taps go scalar.
    ///
    /// SAFETY: caller guarantees avx2+fma and that `taps` holds
    /// `2·data.len()` values.
    #[inline(always)]
    pub(super) unsafe fn real_dot(taps: *const f64, data: &[f64]) -> Complex64 {
        let bp = data.len();
        let xin = data.as_ptr();
        let zero = _mm256_setzero_pd();
        let (mut a01, mut a23, mut b01, mut b23) = (zero, zero, zero, zero);
        let mut t = 0;
        while t + 8 <= bp {
            real_quad(&mut a01, &mut a23, taps, xin, t);
            real_quad(&mut b01, &mut b23, taps, xin, t + 4);
            t += 8;
        }
        if t + 4 <= bp {
            real_quad(&mut a01, &mut a23, taps, xin, t);
            t += 4;
        }
        let r = _mm256_add_pd(_mm256_add_pd(a01, b01), _mm256_add_pd(a23, b23));
        let mut acc = hsum_pairs(r);
        while t < bp {
            let (tr, ti) = (*taps.add(2 * t), *taps.add(2 * t + 1));
            acc = Complex64::new(acc.re + tr * data[t], acc.im + ti * data[t]);
            t += 1;
        }
        acc
    }

    /// `[a b c d] → (a + c, b + d)`: the two complex lanes of a register
    /// summed into one value.
    ///
    /// SAFETY: caller guarantees avx2.
    #[inline(always)]
    unsafe fn hsum_pairs(r: __m256d) -> Complex64 {
        let s = _mm_add_pd(_mm256_castpd256_pd128(r), _mm256_extractf128_pd(r, 1));
        Complex64::new(_mm_cvtsd_f64(s), _mm_cvtsd_f64(_mm_unpackhi_pd(s, s)))
    }

    /// [`super::zoom_rows`] compiled with AVX2+FMA, so the row dots above
    /// inline into it.
    ///
    /// SAFETY: caller checked [`available`]; the rest as
    /// [`super::zoom_rows`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn zoom_rows<T: super::Sample>(
        zt: &super::ZoomTaps,
        x: &[T],
        wrap: &[T],
        j0: usize,
        out: &mut [Complex64],
    ) {
        super::zoom_rows::<T, true>(zt, x, wrap, j0, out)
    }
}

/// Row-parallel [`convolve`] on a [`ThreadPool`]: the μ-row coefficient
/// chunks are split into balanced contiguous ranges, one per worker, and
/// each range runs the untouched register-tiled kernel rank-relative
/// (input offset `c₀·ν·P`, exactly like a block of the front end in
/// [`crate::front`]).
/// Chunk boundaries sit at μ-row granularity, so per-row arithmetic is
/// identical to serial and the output is bitwise equal for every worker
/// count.
pub fn convolve_pooled(
    shape: ConvShape,
    coeffs: &ConvCoefficients,
    xext: &[Complex64],
    out: &mut [Complex64],
    pool: &ThreadPool,
) {
    let ConvShape { mu, nu, p, .. } = shape;
    let rows = out.len() / p;
    assert_eq!(out.len(), rows * p, "out must be whole rows");
    assert!(rows % mu == 0, "rows {rows} must be a multiple of mu {mu}");
    assert!(
        xext.len() >= shape.required_input(rows),
        "xext too short: {} < {}",
        xext.len(),
        shape.required_input(rows)
    );
    let chunks = rows / mu;
    let parts = pool.threads().min(chunks).max(1);
    if parts == 1 {
        return convolve(shape, coeffs, xext, out);
    }
    let out_ptr = SlicePtr::new(out);
    pool.run(parts, |t| {
        let (c0, cl) = part_range(chunks, parts, t);
        // SAFETY: chunk row-ranges are disjoint across tasks; the borrow
        // ends at the `run` barrier.
        let sub = unsafe { out_ptr.slice(c0 * mu * p, cl * mu * p) };
        convolve(shape, coeffs, &xext[c0 * nu * p..], sub);
    });
}

/// Real-input convolution: fills `out` (`rows·P` complex values) from a
/// **real** extended input `xext` (local reals followed by the halo).
///
/// With `x` real, the complex multiply-accumulate per tap collapses to
/// two real FMAs — `acc.re += t.re·x`, `acc.im += t.im·x` — half the
/// arithmetic of the complex kernel, and the input stream halves in
/// bytes. Runtime dispatch mirrors [`convolve`]: an AVX2+FMA kernel
/// where available, the portable register-tiled kernel otherwise; each
/// path is bitwise deterministic run-to-run and across worker counts.
pub fn convolve_real(
    shape: ConvShape,
    coeffs: &ConvCoefficients,
    xext: &[f64],
    out: &mut [Complex64],
) {
    let ConvShape { mu, p, .. } = shape;
    let rows = out.len() / p;
    assert_eq!(out.len(), rows * p, "out must be whole rows");
    assert!(rows % mu == 0, "rows {rows} must be a multiple of mu {mu}");
    assert!(
        xext.len() >= shape.required_input(rows),
        "xext too short: {} < {}",
        xext.len(),
        shape.required_input(rows)
    );
    #[cfg(target_arch = "x86_64")]
    if avx2::available() {
        // SAFETY: avx2+fma presence just checked; slice extents were
        // validated by the asserts above.
        unsafe { avx2::convolve_real(shape, coeffs, xext, out) };
        return;
    }
    convolve_real_portable(shape, coeffs, xext, out);
}

/// Portable real-input kernel: the same chunked μ-row structure and 2×4
/// unroll-and-jam as [`convolve_portable`], with the per-tap work halved
/// to the two real products a real sample needs. Public as the
/// dispatch-free reference for tests and the kernel-bench ablation.
pub fn convolve_real_portable(
    shape: ConvShape,
    coeffs: &ConvCoefficients,
    xext: &[f64],
    out: &mut [Complex64],
) {
    let ConvShape { mu, nu, b, p } = shape;
    let rows = out.len() / p;
    assert_eq!(out.len(), rows * p, "out must be whole rows");
    assert!(rows % mu == 0, "rows {rows} must be a multiple of mu {mu}");
    assert!(
        xext.len() >= shape.required_input(rows),
        "xext too short: {} < {}",
        xext.len(),
        shape.required_input(rows)
    );
    let chunks = rows / mu;
    let fma = |t: Complex64, x: f64, acc: Complex64| {
        Complex64::new(acc.re + t.re * x, acc.im + t.im * x)
    };
    for c in 0..chunks {
        for r in 0..mu {
            let j = c * mu + r;
            let k0 = c * nu + r * nu / mu;
            let out_row = &mut out[j * p..(j + 1) * p];
            let taps = &coeffs.coef[r * b * p..(r + 1) * b * p];
            let xin = &xext[k0 * p..];
            let mut s = 0;
            while s + 4 <= p {
                let (mut a0, mut a1, mut a2, mut a3) = (
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ZERO,
                );
                let (mut b0, mut b1, mut b2, mut b3) = (
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ZERO,
                );
                let mut blk = 0;
                while blk + 2 <= b {
                    let ci = blk * p + s;
                    let cj = ci + p;
                    let t = &taps[ci..ci + 4];
                    let x = &xin[ci..ci + 4];
                    let u = &taps[cj..cj + 4];
                    let z = &xin[cj..cj + 4];
                    a0 = fma(t[0], x[0], a0);
                    a1 = fma(t[1], x[1], a1);
                    a2 = fma(t[2], x[2], a2);
                    a3 = fma(t[3], x[3], a3);
                    b0 = fma(u[0], z[0], b0);
                    b1 = fma(u[1], z[1], b1);
                    b2 = fma(u[2], z[2], b2);
                    b3 = fma(u[3], z[3], b3);
                    blk += 2;
                }
                if blk < b {
                    let ci = blk * p + s;
                    let t = &taps[ci..ci + 4];
                    let x = &xin[ci..ci + 4];
                    a0 = fma(t[0], x[0], a0);
                    a1 = fma(t[1], x[1], a1);
                    a2 = fma(t[2], x[2], a2);
                    a3 = fma(t[3], x[3], a3);
                }
                out_row[s] = a0 + b0;
                out_row[s + 1] = a1 + b1;
                out_row[s + 2] = a2 + b2;
                out_row[s + 3] = a3 + b3;
                s += 4;
            }
            while s < p {
                let mut acc = Complex64::ZERO;
                for blk in 0..b {
                    acc = fma(taps[blk * p + s], xin[blk * p + s], acc);
                }
                out_row[s] = acc;
                s += 1;
            }
        }
    }
}

/// Per-call tables of a zoom extraction: the `M` bins starting at bin
/// `k0` (a segment is the band at `k0 = s·M`).
///
/// By the shift theorem the band is segment 0 of `z_l = x_l·e^{−2πi·k0·l/N}`.
/// Row `j` of segment 0's convolution reads `BP` consecutive samples
/// starting on a block boundary, `l = kb·P + t` with `kb = ⌊jν/μ⌋`, so
/// the phase splits into a tap factor and a block factor:
///
/// ```text
/// e^{−2πi·k0·(kb·P + t)/N} = e^{−2πi·k0·t/N} · e^{−2πi·k0·kb/M}
/// ```
///
/// The tap factor is folded into the `μ·BP` coefficients once per call;
/// the block factor multiplies each row's dot product. It is exactly 1
/// when `M | k0`, and otherwise comes from a two-level root table, so no
/// modulated copy of `x` and no per-sample `sin`/`cos` exist.
#[derive(Debug)]
pub struct ZoomTaps {
    shape: ConvShape,
    n: usize,
    /// `c[r, t]·e^{−2πi·k0·t/N}`, laid out `[r·BP + t]` like
    /// `ConvCoefficients::coef`. Every row kernel reads this one table.
    taps: AlignedBuf<Complex64>,
    /// The block factor; `None` when it is exactly 1 (`M | k0`).
    block: Option<BlockRoots>,
}

impl ZoomTaps {
    /// Tables for the band starting at bin `k0 < n` of a length-`n`
    /// transform with kernel `shape` and coefficient tables `coeffs`.
    pub fn new(shape: ConvShape, coeffs: &ConvCoefficients, n: usize, k0: usize) -> Self {
        let bp = shape.b * shape.p;
        assert!(k0 < n, "band start {k0} out of range (N = {n})");
        assert_eq!(n % shape.p, 0, "P = {} must divide N = {n}", shape.p);
        assert_eq!(
            coeffs.coef.len(),
            shape.mu * bp,
            "coefficients do not match the shape"
        );
        let tap_phase: Vec<Complex64> = (0..bp)
            .map(|t| Complex64::root_of_unity(mul_mod(k0, t, n), n))
            .collect();
        let mut taps = AlignedBuf::<Complex64>::zeroed(coeffs.coef.len());
        for (q, c) in coeffs.coef.iter().enumerate() {
            taps[q] = *c * tap_phase[q % bp];
        }
        let m = n / shape.p;
        Self {
            shape,
            n,
            taps,
            block: (!k0.is_multiple_of(m)).then(|| BlockRoots::new(m, k0 % m)),
        }
    }

    /// Output rows `M' = N·μ/(ν·P)`: the length of the `F_{M'}` input.
    fn rows(&self) -> usize {
        self.n / self.shape.p / self.shape.nu * self.shape.mu
    }

    /// Taps per row, `BP`.
    fn bp(&self) -> usize {
        self.shape.b * self.shape.p
    }
}

/// `e^{−2πi·q/M}` for `q = step·kb mod M`, as `hi[q >> shift]·lo[q & mask]`
/// from two tables of about `√M` roots each.
#[derive(Debug)]
struct BlockRoots {
    m: usize,
    step: usize,
    shift: u32,
    lo: Vec<Complex64>,
    hi: Vec<Complex64>,
}

impl BlockRoots {
    fn new(m: usize, step: usize) -> Self {
        // Smallest power of two whose square covers m.
        let shift = (usize::BITS - (m - 1).leading_zeros()).div_ceil(2);
        let lo = (0..1usize << shift)
            .map(|i| Complex64::root_of_unity(i, m))
            .collect();
        let hi = (0..m.div_ceil(1 << shift))
            .map(|h| Complex64::root_of_unity(h << shift, m))
            .collect();
        Self {
            m,
            step,
            shift,
            lo,
            hi,
        }
    }

    #[inline]
    fn root(&self, q: usize) -> Complex64 {
        self.hi[q >> self.shift] * self.lo[q & ((1 << self.shift) - 1)]
    }
}

/// `a·b mod m` without overflow.
fn mul_mod(a: usize, b: usize, m: usize) -> usize {
    (a as u128 * b as u128 % m as u128) as usize
}

/// The zoom rows `out[j] = e^{−2πi·k0·kb/M}·Σ_t taps[j mod μ, t]·x[(kb·P + t) mod N]`
/// for all `M'` rows, ready for `F_{M'}` and the demodulation. Rows are
/// split across `pool` with [`part_range`]; each row is computed by the
/// same arithmetic whatever range it falls in, so the output is bitwise
/// equal for every worker count. Dispatches like [`convolve`] to an
/// AVX2+FMA row kernel or the portable one ([`kernel_name`]).
pub fn zoom_pooled<T: Sample>(zt: &ZoomTaps, x: &[T], out: &mut [Complex64], pool: &ThreadPool) {
    #[cfg(target_arch = "x86_64")]
    let simd = avx2::available();
    #[cfg(not(target_arch = "x86_64"))]
    let simd = false;
    zoom_with(zt, x, out, pool, simd)
}

/// [`zoom_pooled`] on one worker with the portable row kernel: the
/// dispatch-free reference for tests and the kernel-bench ablation.
pub fn zoom_portable<T: Sample>(zt: &ZoomTaps, x: &[T], out: &mut [Complex64]) {
    zoom_with(zt, x, out, &ThreadPool::serial(), false)
}

fn zoom_with<T: Sample>(
    zt: &ZoomTaps,
    x: &[T],
    out: &mut [Complex64],
    pool: &ThreadPool,
    simd: bool,
) {
    assert_eq!(x.len(), zt.n, "zoom input length");
    assert_eq!(out.len(), zt.rows(), "zoom output length");
    // Rows whose window crosses N read this copy of the samples around
    // the wrap point, so `x` itself is never copied.
    let n = x.len();
    let bp = zt.bp();
    let w0 = n.saturating_sub(bp);
    let wrap: Vec<T> = (0..2 * bp).map(|i| x[(w0 + i) % n]).collect();
    let run = |j0: usize, rows: &mut [Complex64]| {
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: `simd` is set only when `avx2::available()` held;
            // the lengths were asserted above.
            return unsafe { avx2::zoom_rows(zt, x, &wrap, j0, rows) };
        }
        // SAFETY: the portable row kernel needs no CPU feature; the
        // lengths were asserted above.
        unsafe { zoom_rows::<T, false>(zt, x, &wrap, j0, rows) }
    };
    let total = out.len();
    let parts = pool.threads().min(total).max(1);
    if parts == 1 {
        return run(0, out);
    }
    let out_ptr = SlicePtr::new(out);
    pool.run(parts, |t| {
        let (j0, jl) = part_range(total, parts, t);
        // SAFETY: row ranges are disjoint across tasks; the borrow ends
        // at the `run` barrier.
        run(j0, unsafe { out_ptr.slice(j0, jl) });
    });
}

/// An input sample: [`Complex64`], or real `f64` (two real multiply-adds
/// per tap instead of four). Complex and real input run one pipeline and
/// differ only in the kernels (the block convolution, [`convolve`] or
/// [`convolve_real`], and the zoom row dot product) and in the three
/// facts below. The trait is sealed.
pub trait Sample: row_dot::RowDot {
    /// Share of the complex convolution's flops the kernel performs: 1,
    /// or ½ for real input.
    const CONV_FLOP_SHARE: f64;

    /// Lanes of each `F_P` group worth keeping: all `p`, or `0..P/2` for
    /// real input, whose lane `P − s` is the conjugate mirror of lane `s`.
    ///
    /// # Errors
    /// [`SoiError::BadSize`] for real input with an odd `p`: the
    /// half-spectrum boundary must fall on a segment boundary.
    fn kept_lanes(p: usize) -> Result<usize, SoiError>;

    /// This slice's partial of the exact Nyquist bin `Σ_j x_j·(−1)^j`,
    /// the one bin kept lanes `0..P/2` cannot produce: none for complex
    /// input, [`nyquist_fold`] for real input.
    fn nyquist_partial(x: &[Self]) -> Option<f64>;
}

impl Sample for Complex64 {
    const CONV_FLOP_SHARE: f64 = 1.0;

    fn kept_lanes(p: usize) -> Result<usize, SoiError> {
        Ok(p)
    }

    fn nyquist_partial(_: &[Self]) -> Option<f64> {
        None
    }
}

impl Sample for f64 {
    const CONV_FLOP_SHARE: f64 = 0.5;

    fn kept_lanes(p: usize) -> Result<usize, SoiError> {
        if !p.is_multiple_of(2) {
            return Err(SoiError::BadSize(format!(
                "real-input transform needs an even segment count, got P = {p}"
            )));
        }
        Ok(p / 2)
    }

    fn nyquist_partial(x: &[Self]) -> Option<f64> {
        Some(nyquist_fold(x))
    }
}

mod row_dot {
    #[cfg(target_arch = "x86_64")]
    use super::avx2;
    use super::{banked_dot, ConvShape, ZoomTaps};
    use crate::coeff::ConvCoefficients;
    use soi_num::Complex64;

    pub trait RowDot: Copy + Default + Send + Sync {
        /// The block convolution over this sample type: `out` (whole
        /// μ-row chunks) from `xext`.
        fn convolve(
            shape: ConvShape,
            coeffs: &ConvCoefficients,
            xext: &[Self],
            out: &mut [Complex64],
        );

        /// `Σ_t taps[r, t]·data[t]` over the `BP` taps of row residue `r`.
        ///
        /// # Safety
        /// With `SIMD` the caller guarantees AVX2+FMA.
        unsafe fn dot<const SIMD: bool>(zt: &ZoomTaps, r: usize, data: &[Self]) -> Complex64;
    }

    impl RowDot for Complex64 {
        fn convolve(
            shape: ConvShape,
            coeffs: &ConvCoefficients,
            xext: &[Self],
            out: &mut [Complex64],
        ) {
            super::convolve(shape, coeffs, xext, out)
        }

        #[inline(always)]
        unsafe fn dot<const SIMD: bool>(zt: &ZoomTaps, r: usize, data: &[Self]) -> Complex64 {
            let bp = data.len();
            let taps = &zt.taps[r * bp..(r + 1) * bp];
            #[cfg(target_arch = "x86_64")]
            if SIMD {
                return avx2::complex_dot(taps.as_ptr() as *const f64, data);
            }
            banked_dot(taps, data, |t, d, acc| t.mul_add(d, acc))
        }
    }

    impl RowDot for f64 {
        fn convolve(
            shape: ConvShape,
            coeffs: &ConvCoefficients,
            xext: &[Self],
            out: &mut [Complex64],
        ) {
            super::convolve_real(shape, coeffs, xext, out)
        }

        #[inline(always)]
        unsafe fn dot<const SIMD: bool>(zt: &ZoomTaps, r: usize, data: &[Self]) -> Complex64 {
            let bp = data.len();
            let taps = &zt.taps[r * bp..(r + 1) * bp];
            #[cfg(target_arch = "x86_64")]
            if SIMD {
                return avx2::real_dot(taps.as_ptr() as *const f64, data);
            }
            banked_dot(taps, data, |t, d, acc| {
                Complex64::new(acc.re + t.re * d, acc.im + t.im * d)
            })
        }
    }
}

/// The portable row dot: four accumulator banks over the taps plus the
/// `BP mod 4` tail, summed in a fixed order.
#[inline(always)]
fn banked_dot<T: Copy>(
    taps: &[Complex64],
    data: &[T],
    fma: impl Fn(Complex64, T, Complex64) -> Complex64,
) -> Complex64 {
    let mut acc = [Complex64::ZERO; 4];
    let (tc, dc) = (taps.chunks_exact(4), data.chunks_exact(4));
    let mut tail = Complex64::ZERO;
    for (t, d) in tc.remainder().iter().zip(dc.remainder()) {
        tail = fma(*t, *d, tail);
    }
    for (t, d) in tc.zip(dc) {
        for i in 0..4 {
            acc[i] = fma(t[i], d[i], acc[i]);
        }
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

/// Zoom rows `j0..j0 + out.len()`. Row `j` reads `BP` samples from block
/// `kb = ⌊jν/μ⌋` on, straight out of `x`, or out of `wrap` (the `2·BP`
/// samples from `N − BP` on, circularly) when its window crosses `N`.
/// Row residue, block and block phase all advance by additions (`ν < μ`,
/// so `kb` steps by 0 or 1), which keeps each row's arithmetic
/// independent of where its range starts.
///
/// # Safety
/// As `RowDot::dot`; `x.len() = N`, `wrap` as described, and
/// `j0 + out.len() ≤ M'`.
#[inline(always)]
unsafe fn zoom_rows<T: Sample, const SIMD: bool>(
    zt: &ZoomTaps,
    x: &[T],
    wrap: &[T],
    j0: usize,
    out: &mut [Complex64],
) {
    let ConvShape { mu, nu, p, .. } = zt.shape;
    let n = x.len();
    let bp = zt.bp();
    let w0 = n.saturating_sub(bp);
    let (mut r, mut kb, mut frac) = (j0 % mu, j0 * nu / mu, j0 * nu % mu);
    // (roots, q = k0·kb mod M, e^{−2πi·q/M}) for the current block.
    let mut phase = zt.block.as_ref().map(|b| {
        let q = mul_mod(b.step, kb, b.m);
        (b, q, b.root(q))
    });
    for slot in out.iter_mut() {
        let base = kb * p;
        let data = if base + bp <= n {
            &x[base..base + bp]
        } else {
            &wrap[base - w0..base - w0 + bp]
        };
        let acc = T::dot::<SIMD>(zt, r, data);
        *slot = match phase {
            Some((_, _, w)) => acc * w,
            None => acc,
        };
        r += 1;
        if r == mu {
            r = 0;
        }
        frac += nu;
        if frac >= mu {
            frac -= mu;
            kb += 1;
            if let Some((b, q, w)) = phase.as_mut() {
                *q += b.step;
                if *q >= b.m {
                    *q -= b.m;
                }
                *w = b.root(*q);
            }
        }
    }
}

/// Naive reference kernel: the paper's pseudo-code loop order
/// (`loop_a` chunks → `loop_b` μ rows → `loop_c` B blocks → `loop_d`
/// P elements) evaluated one scalar inner product at a time, lane-major —
/// strided memory access and no coefficient reuse.
pub fn convolve_naive(
    shape: ConvShape,
    coeffs: &ConvCoefficients,
    xext: &[Complex64],
    out: &mut [Complex64],
) {
    let ConvShape { mu, nu, b, p } = shape;
    let rows = out.len() / p;
    assert!(rows % mu == 0, "rows {rows} must be a multiple of mu {mu}");
    for j in 0..rows {
        let r = j % mu;
        let k0 = j * nu / mu;
        for s in 0..p {
            let mut acc = Complex64::ZERO;
            for blk in 0..b {
                acc += coeffs.lane_row(r, blk)[s] * xext[(k0 + blk) * p + s];
            }
            out[j * p + s] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeff::{coefficient_direct, ConvCoefficients};
    use crate::params::SoiParams;
    use soi_num::{c64, complex::max_abs_diff};
    use soi_window::AccuracyPreset;

    fn setup() -> (crate::params::SoiConfig, ConvCoefficients, ConvShape) {
        let cfg = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10)
            .unwrap()
            .resolve();
        let coeffs = ConvCoefficients::new(&cfg);
        let shape = ConvShape {
            mu: cfg.mu,
            nu: cfg.nu,
            b: cfg.taps(),
            p: cfg.p,
        };
        (cfg, coeffs, shape)
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * 0.23).sin(), (i as f64 * 0.71).cos()))
            .collect()
    }

    #[test]
    fn required_input_matches_halo_formula() {
        let (cfg, _, shape) = setup();
        // Per rank (Fig 4): M'/P rows need M local points + B·P halo.
        let rows = cfg.rows_per_rank();
        assert_eq!(
            shape.required_input(rows),
            cfg.m + cfg.halo_len(),
            "per-rank input = M + halo"
        );
        // Whole problem on one process: N points + the same halo (wrap).
        assert_eq!(
            shape.required_input(cfg.m_prime),
            cfg.n + cfg.halo_len(),
            "single-process input = N + halo"
        );
    }

    #[test]
    fn optimized_matches_naive() {
        let (cfg, coeffs, shape) = setup();
        let rows = cfg.m_prime;
        let xext = signal(shape.required_input(rows));
        let mut a = vec![Complex64::ZERO; rows * cfg.p];
        let mut b = vec![Complex64::ZERO; rows * cfg.p];
        convolve(shape, &coeffs, &xext, &mut a);
        convolve_naive(shape, &coeffs, &xext, &mut b);
        assert!(max_abs_diff(&a, &b) < 1e-13);
    }

    #[test]
    fn kernel_matches_matrix_definition() {
        // v_j[s] must equal Σ_ℓ c_{j,ℓ}·x_ℓ over the support, with c from
        // the direct Eq. (4) oracle.
        let (cfg, coeffs, shape) = setup();
        let rows = cfg.mu * 4; // a few chunks is enough (and fast)
        let xext = signal(shape.required_input(rows));
        let mut v = vec![Complex64::ZERO; rows * cfg.p];
        convolve(shape, &coeffs, &xext, &mut v);
        for j in [0usize, 1, cfg.mu, cfg.mu * 2 + 3] {
            for s in [0usize, cfg.p - 1] {
                let k0 = shape.k0(j);
                let mut want = Complex64::ZERO;
                for blk in 0..shape.b {
                    let l = (k0 + blk) * cfg.p + s;
                    want += coefficient_direct(&cfg, j, l) * xext[l];
                }
                let got = v[j * cfg.p + s];
                assert!(
                    (got - want).abs() < 1e-12 * (1.0 + want.abs()),
                    "j={j} s={s}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn kernel_is_linear() {
        let (cfg, coeffs, shape) = setup();
        let rows = cfg.mu * 8;
        let len = shape.required_input(rows);
        let x1 = signal(len);
        let x2: Vec<Complex64> = signal(len).iter().map(|v| v.mul_i()).collect();
        let sum: Vec<Complex64> = x1.iter().zip(&x2).map(|(&a, &b)| a + b).collect();
        let mut v1 = vec![Complex64::ZERO; rows * cfg.p];
        let mut v2 = v1.clone();
        let mut vs = v1.clone();
        convolve(shape, &coeffs, &x1, &mut v1);
        convolve(shape, &coeffs, &x2, &mut v2);
        convolve(shape, &coeffs, &sum, &mut vs);
        for i in 0..vs.len() {
            assert!((vs[i] - (v1[i] + v2[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn dispatched_kernel_matches_portable_reference() {
        // Whatever `convolve` dispatches to on this machine must agree
        // with the portable kernel to FMA-rounding accuracy (and exactly
        // when the dispatch *is* the portable kernel). Odd P exercises
        // the SIMD kernel's scalar remainder lane.
        let (cfg, coeffs, shape) = setup();
        for p in [cfg.p, 2, 1] {
            let shape = ConvShape { p, ..shape };
            let rows = cfg.mu * 6;
            let xext = signal(shape.required_input(rows));
            let mut fast = vec![Complex64::ZERO; rows * p];
            let mut reference = vec![Complex64::ZERO; rows * p];
            // The coefficient table is laid out for cfg.p lanes; reusing
            // it with p < cfg.p just reads a prefix of each block, which
            // is fine for an agreement test.
            convolve(shape, &coeffs, &xext, &mut fast);
            convolve_portable(shape, &coeffs, &xext, &mut reference);
            let worst = max_abs_diff(&fast, &reference);
            assert!(worst < 1e-13, "p={p}: kernels diverged by {worst:e}");
            if kernel_name() == "portable" {
                assert_eq!(worst, 0.0, "portable dispatch must be exact");
            }
        }
    }

    #[test]
    fn dispatched_kernel_is_bitwise_reproducible() {
        // Same inputs → bitwise-same outputs, call after call: the
        // runtime dispatch may pick different kernels on different
        // machines, but never different paths within one process.
        let (cfg, coeffs, shape) = setup();
        let rows = cfg.mu * 8;
        let xext = signal(shape.required_input(rows));
        let mut a = vec![Complex64::ZERO; rows * cfg.p];
        let mut b = vec![Complex64::ZERO; rows * cfg.p];
        convolve(shape, &coeffs, &xext, &mut a);
        convolve(shape, &coeffs, &xext, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn pooled_convolve_is_bitwise_equal_to_serial() {
        let (cfg, coeffs, shape) = setup();
        let rows = cfg.m_prime;
        let xext = signal(shape.required_input(rows));
        let mut serial = vec![Complex64::ZERO; rows * cfg.p];
        convolve(shape, &coeffs, &xext, &mut serial);
        for workers in [1usize, 2, 4, 7] {
            let pool = ThreadPool::new(workers);
            let mut pooled = vec![Complex64::ZERO; rows * cfg.p];
            convolve_pooled(shape, &coeffs, &xext, &mut pooled, &pool);
            let same = serial
                .iter()
                .zip(&pooled)
                .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
            assert!(same, "workers={workers} drifted from serial");
        }
    }

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.23).sin() + 0.1).collect()
    }

    #[test]
    fn real_kernel_is_bitwise_the_complex_kernel_on_embedded_input() {
        // Embedding the real samples as (x, 0) and running the complex
        // kernel multiplies every tap imaginary part by an exact zero;
        // the real kernel just skips those products. Same chains, same
        // order — the halved-FMA kernel must agree bit for bit.
        let (cfg, coeffs, shape) = setup();
        let rows = cfg.mu * 8;
        let len = shape.required_input(rows);
        let xr = real_signal(len);
        let xc: Vec<Complex64> = xr.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        let mut real = vec![Complex64::ZERO; rows * cfg.p];
        let mut complex = vec![Complex64::ZERO; rows * cfg.p];
        convolve_real(shape, &coeffs, &xr, &mut real);
        convolve(shape, &coeffs, &xc, &mut complex);
        for (i, (a, b)) in real.iter().zip(&complex).enumerate() {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "elem {i}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "elem {i}");
        }
    }

    #[test]
    fn real_dispatched_kernel_matches_real_portable_reference() {
        let (cfg, coeffs, shape) = setup();
        let rows = cfg.mu * 6;
        let xext = real_signal(shape.required_input(rows));
        let mut fast = vec![Complex64::ZERO; rows * cfg.p];
        let mut reference = vec![Complex64::ZERO; rows * cfg.p];
        convolve_real(shape, &coeffs, &xext, &mut fast);
        convolve_real_portable(shape, &coeffs, &xext, &mut reference);
        let worst = max_abs_diff(&fast, &reference);
        assert!(worst < 1e-13, "real kernels diverged by {worst:e}");
        if kernel_name() == "portable" {
            assert_eq!(worst, 0.0, "portable dispatch must be exact");
        }
    }

    #[test]
    fn zoom_dispatched_kernel_matches_portable_reference() {
        // P = 5 makes BP odd, which reaches the scalar tail of both row
        // kernels; aligned and unaligned band starts cover both block
        // phase cases.
        for (n, p) in [(1usize << 12, 4usize), (10_000, 5)] {
            let cfg = SoiParams::with_preset(n, p, AccuracyPreset::Digits10)
                .unwrap()
                .resolve();
            let coeffs = ConvCoefficients::new(&cfg);
            let shape = ConvShape {
                mu: cfg.mu,
                nu: cfg.nu,
                b: cfg.taps(),
                p,
            };
            let x = signal(n);
            let xr = real_signal(n);
            for k0 in [0, cfg.m, 777, n - 1] {
                let zt = ZoomTaps::new(shape, &coeffs, n, k0);
                let what = format!("N={n} P={p} k0={k0}");
                assert_zoom_kernels_agree(&zt, &x, &format!("{what} complex"));
                assert_zoom_kernels_agree(&zt, &xr, &format!("{what} real"));
            }
        }
    }

    fn assert_zoom_kernels_agree<T: Sample>(zt: &ZoomTaps, x: &[T], what: &str) {
        let mut fast = vec![Complex64::ZERO; zt.rows()];
        let mut reference = vec![Complex64::ZERO; zt.rows()];
        zoom_pooled(zt, x, &mut fast, &ThreadPool::serial());
        zoom_portable(zt, x, &mut reference);
        let worst = max_abs_diff(&fast, &reference);
        assert!(worst < 1e-13, "{what}: kernels diverged by {worst:e}");
        if kernel_name() == "portable" {
            assert_eq!(worst, 0.0, "{what}: portable dispatch must be exact");
        }
    }

    #[test]
    #[should_panic(expected = "xext too short")]
    fn rejects_short_input() {
        let (cfg, coeffs, shape) = setup();
        let rows = cfg.mu * 2;
        let xext = signal(shape.required_input(rows) - 1);
        let mut out = vec![Complex64::ZERO; rows * cfg.p];
        convolve(shape, &coeffs, &xext, &mut out);
    }
}
