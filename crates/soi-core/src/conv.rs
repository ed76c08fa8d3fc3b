//! The convolution kernel `v = W·x` — SOI's "extra" arithmetic (§6b).
//!
//! Per Fig 4, the per-node matrix has `M'` rows over `M + halo` columns,
//! structured as chunks of `μ` row-groups that share one window of `B`
//! input blocks; every scalar row is a length-`B` inner product with
//! stride-`P` taps, and lanes `s = 0..P` of a row-group read *contiguous*
//! input, which is what makes the kernel vectorizable.
//!
//! Every coefficient is a real window tap times a row/lane phase,
//! `c[r,b,s] = Φ[r,s]·g[r,b,s]` ([`ConvCoefficients`]). So each lane
//! accumulates `Σ_b g·x` at one real multiply-add per sample component
//! and tap, and the finished sum takes one complex multiply by `Φ`.
//!
//! Three implementations:
//!
//! * [`convolve`] — the production entry point, dispatched at runtime to
//!   an AVX2+FMA inner kernel when the CPU has it. This mirrors the
//!   paper's loop interchange + unroll-and-jam + SIMD treatment that
//!   reached ~40% of machine peak (§7.4).
//! * [`convolve_portable`] — the same lane sums in safe, portable Rust;
//!   the fallback path and the SIMD ablation baseline.
//! * [`convolve_naive`] — the textbook 4-deep loop nest in the paper's
//!   pseudo-code order (lane-strided inner products with the complex
//!   coefficients `Φ·g`, no reuse), kept as the ablation baseline for the
//!   `conv_kernel` bench.
//!
//! [`convolve_real`] and [`convolve_real_portable`] are their real-input
//! twins. The segment/band extraction, [`zoom_pooled`], runs the same
//! lane sums over a phase-shifted window of the input and combines each
//! row's lanes into one output ([`ZoomTaps`]).

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

/// Row residue `r = j mod μ` and first input block `kb = ⌊jν/μ⌋` of rows
/// `j0, j0 + 1, …`, advanced by additions (`ν < μ`, so `kb` steps by 0 or
/// 1): no division per row, and a row's values do not depend on where
/// its range starts.
#[derive(Debug, Clone, Copy)]
struct RowWalk {
    mu: usize,
    nu: usize,
    r: usize,
    kb: usize,
    frac: usize,
}

impl RowWalk {
    fn new(shape: ConvShape, j0: usize) -> Self {
        let ConvShape { mu, nu, .. } = shape;
        Self {
            mu,
            nu,
            r: j0 % mu,
            kb: j0 * nu / mu,
            frac: j0 * nu % mu,
        }
    }

    #[inline(always)]
    fn advance(&mut self) {
        self.r += 1;
        if self.r == self.mu {
            self.r = 0;
        }
        self.frac += self.nu;
        if self.frac >= self.mu {
            self.frac -= self.mu;
            self.kb += 1;
        }
    }
}

/// The extents every convolution entry point asserts: `out` is whole
/// μ-row chunks, and `xext` covers their input.
fn check_extents(shape: ConvShape, xext_len: usize, out_len: usize) {
    let ConvShape { mu, p, .. } = shape;
    let rows = out_len / p;
    assert_eq!(out_len, rows * p, "out must be whole rows");
    assert!(rows % mu == 0, "rows {rows} must be a multiple of mu {mu}");
    assert!(
        xext_len >= shape.required_input(rows),
        "xext too short: {} < {}",
        xext_len,
        shape.required_input(rows)
    );
}

/// Optimized convolution: fills `out` (`rows·P` values, row-major in
/// `(j, s)`) from `xext` (local input followed by the halo).
///
/// Dispatches once per call on runtime CPU features: an AVX2+FMA kernel
/// where the hardware has it (see [`kernel_name`]), otherwise the
/// portable kernel. Both order each lane's reduction the same way (even
/// tap blocks, odd tap blocks, then their sum), so each path is bitwise
/// deterministic run-to-run and across worker counts; the two paths
/// differ from each other only by FMA rounding.
pub fn convolve(shape: ConvShape, coeffs: &ConvCoefficients, xext: &[Complex64], out: &mut [Complex64]) {
    check_extents(shape, xext.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if avx2::available() {
        // SAFETY: avx2+fma presence just checked; slice extents were
        // validated above.
        unsafe { avx2::convolve(shape, coeffs, xext, out) };
        return;
    }
    portable_rows(shape, coeffs, xext, out);
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

/// The portable (no target-feature) kernel: four lanes × two tap banks
/// per pass, so eight accumulators live in registers across the whole
/// tap reduction, the §6b "keep partial sums of inner products in
/// registers" treatment in safe Rust. Public as the dispatch-free
/// reference for tests and the kernel-bench ablation.
pub fn convolve_portable(
    shape: ConvShape,
    coeffs: &ConvCoefficients,
    xext: &[Complex64],
    out: &mut [Complex64],
) {
    check_extents(shape, xext.len(), out.len());
    portable_rows(shape, coeffs, xext, out);
}

/// The rows of [`convolve_portable`] and [`convolve_real_portable`]:
/// each lane's sum from [`portable_lanes`], times `Φ[r, s]`.
fn portable_rows<T: Sample>(
    shape: ConvShape,
    coeffs: &ConvCoefficients,
    xext: &[T],
    out: &mut [Complex64],
) {
    let ConvShape { b, p, .. } = shape;
    let bp = b * p;
    let mut walk = RowWalk::new(shape, 0);
    for out_row in out.chunks_exact_mut(p) {
        let (r, kb) = (walk.r, walk.kb);
        let phases = &coeffs.phases[r * p..(r + 1) * p];
        let xin = &xext[kb * p..kb * p + bp];
        portable_lanes(&coeffs.taps[r * bp..(r + 1) * bp], xin, b, p, |s, sum| {
            out_row[s] = sum * phases[s];
        });
        walk.advance();
    }
}

/// Each lane's `Σ_blk g[blk·P + s]·x[blk·P + s]` over one row's `b` tap
/// blocks, handed to `f` in lane order as a complex value (a real sum as
/// `(S, +0)`). Four lanes per pass, each summed in two banks (even tap
/// blocks, odd tap blocks, then their sum), then single lanes for
/// `P mod 4`: every lane is the same chain of plain multiply-adds
/// whichever group it falls in, for either sample type.
#[inline(always)]
fn portable_lanes<T: Sample>(
    taps: &[f64],
    x: &[T],
    b: usize,
    p: usize,
    mut f: impl FnMut(usize, Complex64),
) {
    let mut s = 0;
    while s + 4 <= p {
        for (i, v) in lane_sums::<T, 4>(taps, x, s, b, p).into_iter().enumerate() {
            f(s + i, v.widen());
        }
        s += 4;
    }
    while s < p {
        let [v] = lane_sums::<T, 1>(taps, x, s, b, p);
        f(s, v.widen());
        s += 1;
    }
}

/// The two-bank sums of `L` lanes from lane `s`, for [`portable_lanes`].
#[inline(always)]
fn lane_sums<T: Sample, const L: usize>(
    taps: &[f64],
    x: &[T],
    s: usize,
    b: usize,
    p: usize,
) -> [T; L] {
    let mut even = [T::default(); L];
    let mut odd = [T::default(); L];
    let mut blk = 0;
    while blk < b {
        let ci = blk * p + s;
        let (g, v) = (&taps[ci..ci + L], &x[ci..ci + L]);
        for i in 0..L {
            even[i] = even[i] + v[i] * g[i];
        }
        if blk + 1 < b {
            let cj = ci + p;
            let (g, v) = (&taps[cj..cj + L], &x[cj..cj + L]);
            for i in 0..L {
                odd[i] = odd[i] + v[i] * g[i];
            }
        }
        blk += 2;
    }
    std::array::from_fn(|i| even[i] + odd[i])
}

/// AVX2+FMA kernels, selected at runtime by [`convolve`],
/// [`convolve_real`] and [`zoom_pooled`].
///
/// Complex samples stay interleaved, two per 256-bit register, and meet
/// the duplicated taps ([`ConvCoefficients::taps_dup`], `[g g]` per
/// lane): per lane pair and tap, one load of `x`, one load of the tap and
/// one FMA, with no shuffle. Real samples go four per register against
/// the plain taps. Lanes are walked in octets (complex) or quads of two
/// interleaved rows (real), so eight FMA chains cover the FMA latency.
/// Each finished sum takes one complex multiply by its phase, in the
/// `fmaddsub` form of [`cmul`].
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{ConvShape, RowWalk, ZoomTaps};
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

    /// Two complex products `z·w`, as `fmaddsub(z, [w.re w.re],
    /// swap(z)·[w.im w.im])`: the real part `fma(z.re, w.re, −z.im·w.im)`,
    /// the imaginary part `fma(z.im, w.re, z.re·w.im)`.
    ///
    /// SAFETY: caller guarantees avx2+fma.
    #[inline(always)]
    unsafe fn cmul(z: __m256d, w: __m256d) -> __m256d {
        let zsw = _mm256_permute_pd(z, 0b0101);
        let wim = _mm256_permute_pd(w, 0b1111);
        _mm256_fmaddsub_pd(z, _mm256_movedup_pd(w), _mm256_mul_pd(zsw, wim))
    }

    /// [`cmul`] on one value, bit for bit.
    #[inline(always)]
    fn cmul1(z: Complex64, w: Complex64) -> Complex64 {
        Complex64::new(
            z.re.mul_add(w.re, -(z.im * w.im)),
            z.im.mul_add(w.re, z.re * w.im),
        )
    }

    /// What a row does with its finished lane sums.
    trait Epilogue {
        /// Lanes `s, s + 1`, as an interleaved complex pair.
        ///
        /// SAFETY: caller guarantees avx2+fma and `s + 2 ≤ P`.
        unsafe fn pair(&mut self, s: usize, v: __m256d);
        /// Lane `s` alone.
        ///
        /// SAFETY: caller guarantees `s < P`.
        unsafe fn lane(&mut self, s: usize, v: Complex64);
    }

    /// The convolution's epilogue: store `Φ[s]·sum` to lane `s` of a row.
    struct Store {
        dst: *mut f64,
        phases: *const f64,
    }

    impl Epilogue for Store {
        #[inline(always)]
        unsafe fn pair(&mut self, s: usize, v: __m256d) {
            let w = _mm256_loadu_pd(self.phases.add(2 * s));
            _mm256_storeu_pd(self.dst.add(2 * s), cmul(v, w));
        }

        #[inline(always)]
        unsafe fn lane(&mut self, s: usize, v: Complex64) {
            let w = Complex64::new(*self.phases.add(2 * s), *self.phases.add(2 * s + 1));
            let y = cmul1(v, w);
            *self.dst.add(2 * s) = y.re;
            *self.dst.add(2 * s + 1) = y.im;
        }
    }

    /// A zoom row's epilogue: add `Λ[s]·sum` over the lanes.
    struct Combine {
        phases: *const f64,
        acc: __m256d,
        tail: Complex64,
    }

    impl Epilogue for Combine {
        #[inline(always)]
        unsafe fn pair(&mut self, s: usize, v: __m256d) {
            let w = _mm256_loadu_pd(self.phases.add(2 * s));
            self.acc = _mm256_add_pd(self.acc, cmul(v, w));
        }

        #[inline(always)]
        unsafe fn lane(&mut self, s: usize, v: Complex64) {
            let w = Complex64::new(*self.phases.add(2 * s), *self.phases.add(2 * s + 1));
            self.tail = cmul1(v, w);
        }
    }

    /// The two-bank sums of `Q` lane pairs from lane `s` of one row over
    /// interleaved complex samples `x` and duplicated taps `tdup`: bank
    /// `even` over the even tap blocks, `odd` over the odd ones, then
    /// their sum.
    ///
    /// SAFETY: caller guarantees avx2+fma and that `tdup` and `x` hold the
    /// row's `2·b·p` values.
    #[inline(always)]
    unsafe fn pair_sums<const Q: usize>(
        tdup: *const f64,
        x: *const f64,
        s: usize,
        b: usize,
        p: usize,
    ) -> [__m256d; Q] {
        let mut even = [_mm256_setzero_pd(); Q];
        let mut odd = [_mm256_setzero_pd(); Q];
        let mut blk = 0;
        while blk + 2 <= b {
            let ci = 2 * (blk * p + s);
            let cj = ci + 2 * p;
            for q in 0..Q {
                let (i, j) = (ci + 4 * q, cj + 4 * q);
                even[q] = _mm256_fmadd_pd(_mm256_loadu_pd(tdup.add(i)), _mm256_loadu_pd(x.add(i)), even[q]);
                odd[q] = _mm256_fmadd_pd(_mm256_loadu_pd(tdup.add(j)), _mm256_loadu_pd(x.add(j)), odd[q]);
            }
            blk += 2;
        }
        if blk < b {
            let ci = 2 * (blk * p + s);
            for q in 0..Q {
                let i = ci + 4 * q;
                even[q] = _mm256_fmadd_pd(_mm256_loadu_pd(tdup.add(i)), _mm256_loadu_pd(x.add(i)), even[q]);
            }
        }
        for q in 0..Q {
            even[q] = _mm256_add_pd(even[q], odd[q]);
        }
        even
    }

    /// One row of complex lane sums: lane octets (four pairs × two banks,
    /// eight FMA chains), then a quad, a pair and a single lane for
    /// `P mod 8`, each lane summed in the chain of [`pair_sums`].
    ///
    /// SAFETY: as [`pair_sums`].
    #[inline(always)]
    unsafe fn complex_row(tdup: *const f64, x: *const f64, b: usize, p: usize, e: &mut impl Epilogue) {
        let mut s = 0;
        while s + 8 <= p {
            for (q, v) in pair_sums::<4>(tdup, x, s, b, p).into_iter().enumerate() {
                e.pair(s + 2 * q, v);
            }
            s += 8;
        }
        if s + 4 <= p {
            for (q, v) in pair_sums::<2>(tdup, x, s, b, p).into_iter().enumerate() {
                e.pair(s + 2 * q, v);
            }
            s += 4;
        }
        if s + 2 <= p {
            let [v] = pair_sums::<1>(tdup, x, s, b, p);
            e.pair(s, v);
            s += 2;
        }
        if s < p {
            let (mut even, mut odd) = (Complex64::ZERO, Complex64::ZERO);
            for blk in 0..b {
                let c = 2 * (blk * p + s);
                let (g, acc) = (*tdup.add(c), if blk % 2 == 0 { &mut even } else { &mut odd });
                acc.re = g.mul_add(*x.add(c), acc.re);
                acc.im = g.mul_add(*x.add(c + 1), acc.im);
            }
            e.lane(s, even + odd);
        }
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
        let ConvShape { b, p, .. } = shape;
        let bp = b * p;
        let mut walk = RowWalk::new(shape, 0);
        for out_row in out.chunks_exact_mut(p) {
            let (r, kb) = (walk.r, walk.kb);
            let tdup = &coeffs.taps_dup[2 * r * bp..2 * (r + 1) * bp];
            let xin = &xext[kb * p..kb * p + bp];
            let mut e = Store {
                dst: out_row.as_mut_ptr() as *mut f64,
                phases: coeffs.phases[r * p..(r + 1) * p].as_ptr() as *const f64,
            };
            complex_row(tdup.as_ptr(), xin.as_ptr() as *const f64, b, p, &mut e);
            walk.advance();
        }
    }

    /// One row of the real-input kernel: its plain taps, samples and
    /// epilogue.
    struct RealRow {
        taps: *const f64,
        x: *const f64,
        out: Store,
    }

    /// The two-bank sums of `Q` lane quads from lane `s`, for `R` rows at
    /// once (two rows of two quads: eight FMA chains).
    ///
    /// SAFETY: caller guarantees avx2+fma and that each row's `taps` and
    /// `x` hold `b·p` values.
    #[inline(always)]
    unsafe fn quad_sums<const R: usize, const Q: usize>(
        rows: &[RealRow; R],
        s: usize,
        b: usize,
        p: usize,
    ) -> [[__m256d; Q]; R] {
        let mut even = [[_mm256_setzero_pd(); Q]; R];
        let mut odd = [[_mm256_setzero_pd(); Q]; R];
        let mut blk = 0;
        while blk + 2 <= b {
            let ci = blk * p + s;
            let cj = ci + p;
            for (k, row) in rows.iter().enumerate() {
                for q in 0..Q {
                    let (i, j) = (ci + 4 * q, cj + 4 * q);
                    even[k][q] = _mm256_fmadd_pd(_mm256_loadu_pd(row.taps.add(i)), _mm256_loadu_pd(row.x.add(i)), even[k][q]);
                    odd[k][q] = _mm256_fmadd_pd(_mm256_loadu_pd(row.taps.add(j)), _mm256_loadu_pd(row.x.add(j)), odd[k][q]);
                }
            }
            blk += 2;
        }
        if blk < b {
            let ci = blk * p + s;
            for (k, row) in rows.iter().enumerate() {
                for q in 0..Q {
                    let i = ci + 4 * q;
                    even[k][q] = _mm256_fmadd_pd(_mm256_loadu_pd(row.taps.add(i)), _mm256_loadu_pd(row.x.add(i)), even[k][q]);
                }
            }
        }
        for k in 0..R {
            for q in 0..Q {
                even[k][q] = _mm256_add_pd(even[k][q], odd[k][q]);
            }
        }
        even
    }

    /// Four real lane sums `[S₀ S₁ S₂ S₃]` from lane `s`, handed to the
    /// epilogue as the complex pairs `[S₀ +0 S₁ +0]` and `[S₂ +0 S₃ +0]`:
    /// what the complex kernel's sums are on `(x, 0)`.
    ///
    /// SAFETY: caller guarantees avx2+fma and `s + 4 ≤ P`.
    #[inline(always)]
    unsafe fn real_quad(e: &mut Store, s: usize, v: __m256d) {
        let zero = _mm256_setzero_pd();
        let (lo, hi) = (_mm256_unpacklo_pd(v, zero), _mm256_unpackhi_pd(v, zero));
        e.pair(s, _mm256_permute2f128_pd(lo, hi, 0x20));
        e.pair(s + 2, _mm256_permute2f128_pd(lo, hi, 0x31));
    }

    /// `R` interleaved rows of the real-input kernel: lane octets, then a
    /// quad, then single lanes for `P mod 4`.
    ///
    /// SAFETY: as [`quad_sums`].
    #[inline(always)]
    unsafe fn real_rows<const R: usize>(rows: &mut [RealRow; R], b: usize, p: usize) {
        let mut s = 0;
        while s + 8 <= p {
            let v = quad_sums::<R, 2>(rows, s, b, p);
            for (row, [lo, hi]) in rows.iter_mut().zip(v) {
                real_quad(&mut row.out, s, lo);
                real_quad(&mut row.out, s + 4, hi);
            }
            s += 8;
        }
        if s + 4 <= p {
            let v = quad_sums::<R, 1>(rows, s, b, p);
            for (row, [v]) in rows.iter_mut().zip(v) {
                real_quad(&mut row.out, s, v);
            }
            s += 4;
        }
        while s < p {
            for row in rows.iter_mut() {
                let (mut even, mut odd) = (0.0f64, 0.0f64);
                for blk in 0..b {
                    let c = blk * p + s;
                    let acc = if blk % 2 == 0 { &mut even } else { &mut odd };
                    *acc = (*row.taps.add(c)).mul_add(*row.x.add(c), *acc);
                }
                row.out.lane(s, Complex64::new(even + odd, 0.0));
            }
            s += 1;
        }
    }

    /// Real-input AVX2+FMA kernel, selected at runtime by
    /// [`super::convolve_real`]. Walks the rows two at a time, so two
    /// rows' lane quads fill the eight FMA chains with the complex
    /// kernel's two tap banks; every lane is the chain the complex kernel
    /// runs on `(x, 0)`, and its sum enters the same [`cmul`] as
    /// `(S, +0)`, so the output is bitwise that kernel's.
    ///
    /// SAFETY: caller checked [`available`] and validated slice extents.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn convolve_real(
        shape: ConvShape,
        coeffs: &ConvCoefficients,
        xext: &[f64],
        out: &mut [Complex64],
    ) {
        let ConvShape { b, p, .. } = shape;
        let bp = b * p;
        let rows = out.len() / p;
        let mut walk = RowWalk::new(shape, 0);
        let mut row = |j: usize| {
            let (r, kb) = (walk.r, walk.kb);
            walk.advance();
            RealRow {
                taps: coeffs.taps[r * bp..(r + 1) * bp].as_ptr(),
                x: xext[kb * p..kb * p + bp].as_ptr(),
                out: Store {
                    dst: out[j * p..(j + 1) * p].as_mut_ptr() as *mut f64,
                    phases: coeffs.phases[r * p..(r + 1) * p].as_ptr() as *const f64,
                },
            }
        };
        let mut j = 0;
        while j + 2 <= rows {
            real_rows(&mut [row(j), row(j + 1)], b, p);
            j += 2;
        }
        if j < rows {
            real_rows(&mut [row(j)], b, p);
        }
    }

    /// One zoom row, `Σ_s Λ[s]·Σ_blk g·x` over a complex window: the
    /// complex convolution's lane sums, then the lanes' phased sum.
    ///
    /// SAFETY: caller guarantees avx2+fma, that `tdup` and `x` hold the
    /// row's `2·b·p` values and `lam` its `2·p`.
    #[inline(always)]
    pub(super) unsafe fn zoom_row(tdup: *const f64, lam: *const f64, x: *const f64, b: usize, p: usize) -> Complex64 {
        let mut e = Combine {
            phases: lam,
            acc: _mm256_setzero_pd(),
            tail: Complex64::ZERO,
        };
        complex_row(tdup, x, b, p, &mut e);
        let s = _mm_add_pd(_mm256_castpd256_pd128(e.acc), _mm256_extractf128_pd(e.acc, 1));
        Complex64::new(_mm_cvtsd_f64(s), _mm_cvtsd_f64(_mm_unpackhi_pd(s, s))) + e.tail
    }

    /// [`super::zoom_rows`] compiled with AVX2+FMA, so the row kernel
    /// inlines into it.
    ///
    /// SAFETY: caller checked [`available`]; the rest as
    /// [`super::zoom_rows`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn zoom_rows<T: super::Sample>(
        zt: &ZoomTaps,
        x: &[T],
        win: &mut [Complex64],
        j0: usize,
        out: &mut [Complex64],
    ) {
        super::zoom_rows::<T, true>(zt, x, win, j0, out)
    }
}

/// Row-parallel [`convolve`] on a [`ThreadPool`]: the μ-row coefficient
/// chunks are split into balanced contiguous ranges, one per worker, and
/// each range runs the untouched kernel rank-relative (input offset
/// `c₀·ν·P`, exactly like a block of the front end in [`crate::front`]).
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
    check_extents(shape, xext.len(), out.len());
    let chunks = out.len() / p / mu;
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
/// With `x` and the taps real, each lane's sum `Σ_b g·x` is real: one
/// real multiply-add per tap, half the complex kernel's, over half its
/// input bytes, then the same complex multiply by `Φ`. Runtime dispatch
/// mirrors [`convolve`]. Each lane is summed in the complex kernel's
/// chain and enters the phase multiply as `(S, +0)`, so in either
/// dispatch the output is bitwise the complex kernel's on `(x, 0)`, and
/// bitwise deterministic run-to-run and across worker counts.
pub fn convolve_real(
    shape: ConvShape,
    coeffs: &ConvCoefficients,
    xext: &[f64],
    out: &mut [Complex64],
) {
    check_extents(shape, xext.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if avx2::available() {
        // SAFETY: avx2+fma presence just checked; slice extents were
        // validated above.
        unsafe { avx2::convolve_real(shape, coeffs, xext, out) };
        return;
    }
    portable_rows(shape, coeffs, xext, out);
}

/// Portable real-input kernel: [`convolve_portable`]'s lane sums over
/// real samples. Public as the dispatch-free reference for tests and the
/// kernel-bench ablation.
pub fn convolve_real_portable(
    shape: ConvShape,
    coeffs: &ConvCoefficients,
    xext: &[f64],
    out: &mut [Complex64],
) {
    check_extents(shape, xext.len(), out.len());
    portable_rows(shape, coeffs, xext, out);
}

/// Per-call tables of a zoom extraction: the `M` bins starting at bin
/// `k0` (a segment is the band at `k0 = s·M`).
///
/// By the shift theorem the band is segment 0 of `z_l = x_l·e^{−2πi·k0·l/N}`.
/// Row `j` of segment 0's convolution reads the samples `l = K·P + s`,
/// `K = kb + b` for its tap blocks `b` from `kb = ⌊jν/μ⌋`, so with
/// `δ = k0 mod M` the phase splits into an input-block factor and a lane
/// factor:
///
/// ```text
/// e^{−2πi·k0·(K·P + s)/N} = e^{−2πi·δ·K/M} · e^{−2πi·k0·s/N}
/// ```
///
/// The lane factor joins the coefficient's own phase, `Λ[r,s] =
/// Φ[r,s]·e^{−2πi·k0·s/N}` (`μ·P` values per call), so row `j` is
/// `Σ_s Λ[r,s]·Σ_b g[r,b,s]·z[(kb + b)·P + s]` with the real taps `g`. The
/// block factor `ρ^K`, `ρ = e^{−2πi·δ/M}`, multiplies each input block
/// once as it enters the zoom's window of `z`: it is exactly 1 for a
/// segment (`M | k0`), and otherwise comes from a two-level root table,
/// so no per-sample `sin`/`cos` and no per-row factor exist.
#[derive(Debug)]
pub struct ZoomTaps<'a> {
    shape: ConvShape,
    n: usize,
    coeffs: &'a ConvCoefficients,
    /// `Λ[r, s]`, laid out `[r·P + s]` like `ConvCoefficients::phases`.
    phases: AlignedBuf<Complex64>,
    /// The block factor; `None` when it is exactly 1 (`M | k0`).
    block: Option<BlockRoots>,
}

impl<'a> ZoomTaps<'a> {
    /// Tables for the band starting at bin `k0 < n` of a length-`n`
    /// transform with kernel `shape` and coefficient tables `coeffs`.
    pub fn new(shape: ConvShape, coeffs: &'a ConvCoefficients, n: usize, k0: usize) -> Self {
        let ConvShape { mu, b, p, .. } = shape;
        assert!(k0 < n, "band start {k0} out of range (N = {n})");
        assert_eq!(n % p, 0, "P = {p} must divide N = {n}");
        assert_eq!(
            (coeffs.mu(), coeffs.b(), coeffs.p()),
            (mu, b, p),
            "coefficients do not match the shape"
        );
        let lane: Vec<Complex64> = (0..p)
            .map(|s| Complex64::root_of_unity(mul_mod(k0, s, n), n))
            .collect();
        let phases: Vec<Complex64> = coeffs
            .phases
            .iter()
            .enumerate()
            .map(|(q, &phi)| phi * lane[q % p])
            .collect();
        let m = n / p;
        Self {
            shape,
            n,
            coeffs,
            phases: AlignedBuf::from_slice(&phases),
            block: (!k0.is_multiple_of(m)).then(|| BlockRoots::new(m, k0 % m)),
        }
    }

    /// Output rows `M' = N·μ/(ν·P)`: the length of the `F_{M'}` input.
    fn rows(&self) -> usize {
        self.n / self.shape.p / self.shape.nu * self.shape.mu
    }
}

/// `e^{−2πi·q/M}` for `q = step·K mod M`, as `hi[q >> shift]·lo[q & mask]`
/// from two tables of about `√M` roots each.
#[derive(Debug)]
struct BlockRoots {
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

/// Bytes of each worker's zoom window (complex samples of the current
/// rows' input blocks).
const ZOOM_WINDOW_BYTES: usize = 64 << 10;

/// The zoom rows `out[j] = Σ_s Λ[r, s]·Σ_b g[r, b, s]·z[(kb + b)·P + s]`
/// for all `M'` rows, ready for `F_{M'}` and the demodulation. Rows are
/// split across `pool` with [`part_range`]; each row is computed by the
/// same arithmetic whatever range it falls in, so the output is bitwise
/// equal for every worker count. Complex and real input fill the same
/// complex window and share one row kernel, so a real `x` gives bitwise
/// the output of its `(x, 0)` embedding. Dispatches like [`convolve`]
/// ([`kernel_name`]).
pub fn zoom_pooled<T: Sample>(zt: &ZoomTaps, x: &[T], out: &mut [Complex64], pool: &ThreadPool) {
    #[cfg(target_arch = "x86_64")]
    let simd = avx2::available();
    #[cfg(not(target_arch = "x86_64"))]
    let simd = false;
    // SAFETY: `simd` is set only when `avx2::available()` held.
    unsafe { T::zoom(zt, x, out, pool, simd) }
}

/// [`zoom_pooled`] on one worker with the portable row kernel: the
/// dispatch-free reference for tests and the kernel-bench ablation.
pub fn zoom_portable<T: Sample>(zt: &ZoomTaps, x: &[T], out: &mut [Complex64]) {
    // SAFETY: the portable row kernel needs no CPU feature.
    unsafe { T::zoom(zt, x, out, &ThreadPool::serial(), false) }
}

/// The zoom body behind [`zoom_pooled`] and [`zoom_portable`]. They
/// reach it through the sealed `Kernels::zoom`, so it is compiled here,
/// once per sample type.
fn zoom_with<T: Sample>(
    zt: &ZoomTaps,
    x: &[T],
    out: &mut [Complex64],
    pool: &ThreadPool,
    simd: bool,
) {
    assert_eq!(x.len(), zt.n, "zoom input length");
    assert_eq!(out.len(), zt.rows(), "zoom output length");
    let ConvShape { b, p, .. } = zt.shape;
    let window = (ZOOM_WINDOW_BYTES / std::mem::size_of::<Complex64>() / p).max(2 * b) * p;
    let run = |j0: usize, rows: &mut [Complex64]| {
        let mut win = AlignedBuf::<Complex64>::zeroed(window);
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: `simd` is set only when `avx2::available()` held;
            // the lengths were asserted above.
            return unsafe { avx2::zoom_rows(zt, x, &mut win, j0, rows) };
        }
        // SAFETY: the portable row kernel needs no CPU feature; the
        // lengths were asserted above.
        unsafe { zoom_rows::<T, false>(zt, x, &mut win, j0, rows) }
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

/// Zoom rows `j0..j0 + out.len()`. Row `j` reads the `BP` window samples
/// from block `kb = ⌊jν/μ⌋` on. The window holds the input blocks
/// `[w0, w0 + held)` of `z`; it is topped up one block at a time as the
/// rows advance, each block `K` as `x[(K mod M)·P ..][..P]·ρ^K`, and slid
/// back to its start when full. A sample's value depends only on `K`,
/// and the block phase advances by exact integer additions, so each
/// row's arithmetic is the same whatever range it falls in.
///
/// # Safety
/// With `SIMD` the caller guarantees AVX2+FMA; `x.len() = N`,
/// `win.len()` is at least `b` blocks, and `j0 + out.len() ≤ M'`.
#[inline(always)]
unsafe fn zoom_rows<T: Sample, const SIMD: bool>(
    zt: &ZoomTaps,
    x: &[T],
    win: &mut [Complex64],
    j0: usize,
    out: &mut [Complex64],
) {
    let ConvShape { b, p, .. } = zt.shape;
    let m = zt.n / p;
    let cap = win.len() / p;
    let mut walk = RowWalk::new(zt.shape, j0);
    let (mut w0, mut held) = (walk.kb, 0);
    // The next block to load, mod M, and its phase index q = δ·K mod M.
    let mut next = walk.kb % m;
    let mut q = zt.block.as_ref().map_or(0, |br| mul_mod(br.step, next, m));
    for slot in out.iter_mut() {
        let kb = walk.kb;
        if kb + b - w0 > cap {
            win.copy_within((kb - w0) * p..held * p, 0);
            held -= kb - w0;
            w0 = kb;
        }
        while held < kb + b - w0 {
            let src = &x[next * p..(next + 1) * p];
            let dst = &mut win[held * p..(held + 1) * p];
            match &zt.block {
                None => {
                    for (d, v) in dst.iter_mut().zip(src) {
                        *d = v.widen();
                    }
                }
                Some(br) => {
                    let rho = br.root(q);
                    for (d, v) in dst.iter_mut().zip(src) {
                        *d = v.widen() * rho;
                    }
                    q += br.step;
                    if q >= m {
                        q -= m;
                    }
                }
            }
            held += 1;
            next += 1;
            if next == m {
                next = 0;
            }
        }
        let start = (kb - w0) * p;
        *slot = zoom_row::<SIMD>(zt, walk.r, &win[start..start + b * p]);
        walk.advance();
    }
}

/// One zoom row, `Σ_s Λ[r, s]·Σ_blk g[r, blk, s]·data[blk·P + s]`: the
/// convolution's complex lane sums, then the lanes' phased sum.
///
/// # Safety
/// With `SIMD` the caller guarantees AVX2+FMA; `data` holds the row's
/// `b·p` samples.
#[inline(always)]
unsafe fn zoom_row<const SIMD: bool>(zt: &ZoomTaps, r: usize, data: &[Complex64]) -> Complex64 {
    let ConvShape { b, p, .. } = zt.shape;
    let bp = b * p;
    let lam = &zt.phases[r * p..(r + 1) * p];
    #[cfg(target_arch = "x86_64")]
    if SIMD {
        let tdup = &zt.coeffs.taps_dup[2 * r * bp..2 * (r + 1) * bp];
        return avx2::zoom_row(
            tdup.as_ptr(),
            lam.as_ptr() as *const f64,
            data.as_ptr() as *const f64,
            b,
            p,
        );
    }
    let mut acc = Complex64::ZERO;
    portable_lanes(&zt.coeffs.taps[r * bp..(r + 1) * bp], data, b, p, |s, sum| {
        acc += sum * lam[s];
    });
    acc
}

/// An input sample: [`Complex64`], or real `f64` (one real multiply-add
/// per tap instead of two). Complex and real input run one pipeline and
/// differ only in the block convolution ([`convolve`] or
/// [`convolve_real`]), the zoom's window fill, and the three facts
/// below. The trait is sealed.
pub trait Sample: sealed::Kernels {
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

mod sealed {
    use super::{zoom_with, ConvShape, ZoomTaps};
    use crate::coeff::ConvCoefficients;
    use soi_num::Complex64;
    use soi_pool::ThreadPool;
    use std::ops::{Add, Mul};

    /// What differs between sample types, compiled here in soi-core.
    /// `x·g` with a real tap `g` and `+` are the portable lane sums'
    /// arithmetic.
    pub trait Kernels:
        Copy + Default + Send + Sync + Add<Output = Self> + Mul<f64, Output = Self>
    {
        /// The sample as a complex value: itself, or `(x, +0)`.
        fn widen(self) -> Complex64;

        /// The block convolution over this sample type: `out` (whole
        /// μ-row chunks) from `xext`.
        fn convolve(
            shape: ConvShape,
            coeffs: &ConvCoefficients,
            xext: &[Self],
            out: &mut [Complex64],
        );

        /// The zoom rows of `x` (`zoom_with` over this sample type). A
        /// method of a concrete impl is compiled here, in soi-core, so
        /// the zoom exists once per sample type instead of once per
        /// crate that calls the generic segment and band paths.
        ///
        /// # Safety
        /// With `simd` the caller guarantees AVX2+FMA.
        unsafe fn zoom(
            zt: &ZoomTaps,
            x: &[Self],
            out: &mut [Complex64],
            pool: &ThreadPool,
            simd: bool,
        );
    }

    impl Kernels for Complex64 {
        #[inline(always)]
        fn widen(self) -> Complex64 {
            self
        }

        fn convolve(
            shape: ConvShape,
            coeffs: &ConvCoefficients,
            xext: &[Self],
            out: &mut [Complex64],
        ) {
            super::convolve(shape, coeffs, xext, out)
        }

        unsafe fn zoom(
            zt: &ZoomTaps,
            x: &[Self],
            out: &mut [Complex64],
            pool: &ThreadPool,
            simd: bool,
        ) {
            zoom_with::<Self>(zt, x, out, pool, simd)
        }
    }

    impl Kernels for f64 {
        #[inline(always)]
        fn widen(self) -> Complex64 {
            Complex64::new(self, 0.0)
        }

        fn convolve(
            shape: ConvShape,
            coeffs: &ConvCoefficients,
            xext: &[Self],
            out: &mut [Complex64],
        ) {
            super::convolve_real(shape, coeffs, xext, out)
        }

        unsafe fn zoom(
            zt: &ZoomTaps,
            x: &[Self],
            out: &mut [Complex64],
            pool: &ThreadPool,
            simd: bool,
        ) {
            zoom_with::<Self>(zt, x, out, pool, simd)
        }
    }
}

/// Naive reference kernel: the paper's pseudo-code loop order
/// (`loop_a` chunks → `loop_b` μ rows → `loop_c` B blocks → `loop_d`
/// P elements) evaluated one scalar inner product at a time, lane-major,
/// with the complex coefficients `Φ·g` — strided memory access and no
/// coefficient reuse.
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
                acc += coeffs.coefficient(r, blk, s) * xext[(k0 + blk) * p + s];
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
    use soi_num::complex::{max_abs_diff, rel_l2_error};
    use soi_num::dd::DdComplex;
    use soi_num::c64;
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

    /// Geometries whose `P` reaches every lane path of the real kernel:
    /// one quad (4), a quad and the scalar tail (6), one octet (8) and two
    /// octets (16), each with its own coefficient table.
    fn real_kernel_setups() -> Vec<(crate::params::SoiConfig, ConvCoefficients, ConvShape)> {
        [(1usize << 12, 4usize), (9216, 6), (1 << 14, 8), (1 << 14, 16)]
            .into_iter()
            .map(|(n, p)| {
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
                (cfg, coeffs, shape)
            })
            .collect()
    }

    #[test]
    fn real_kernel_is_bitwise_the_complex_kernel_on_embedded_input() {
        // Embedding the real samples as (x, 0) and running the complex
        // kernel multiplies every tap imaginary part by an exact zero;
        // the real kernel just skips those products. Same chains, same
        // order — the halved-FMA kernel must agree bit for bit.
        for (cfg, coeffs, shape) in real_kernel_setups() {
            let rows = cfg.mu * 8;
            let len = shape.required_input(rows);
            let xr = real_signal(len);
            let xc: Vec<Complex64> = xr.iter().map(|&v| Complex64::new(v, 0.0)).collect();
            let mut real = vec![Complex64::ZERO; rows * cfg.p];
            let mut complex = vec![Complex64::ZERO; rows * cfg.p];
            convolve_real(shape, &coeffs, &xr, &mut real);
            convolve(shape, &coeffs, &xc, &mut complex);
            for (i, (a, b)) in real.iter().zip(&complex).enumerate() {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "P={} elem {i}", cfg.p);
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "P={} elem {i}", cfg.p);
            }
        }
    }

    #[test]
    fn real_dispatched_kernel_matches_real_portable_reference() {
        for (cfg, coeffs, shape) in real_kernel_setups() {
            let rows = cfg.mu * 6;
            let xext = real_signal(shape.required_input(rows));
            let mut fast = vec![Complex64::ZERO; rows * cfg.p];
            let mut reference = vec![Complex64::ZERO; rows * cfg.p];
            convolve_real(shape, &coeffs, &xext, &mut fast);
            convolve_real_portable(shape, &coeffs, &xext, &mut reference);
            let worst = max_abs_diff(&fast, &reference);
            assert!(worst < 1e-13, "P={}: real kernels diverged by {worst:e}", cfg.p);
            if kernel_name() == "portable" {
                assert_eq!(worst, 0.0, "P={}: portable dispatch must be exact", cfg.p);
            }
        }
    }

    #[test]
    fn zoom_dispatched_kernel_matches_portable_reference() {
        // P = 5 reaches the single-lane tail of both row kernels;
        // aligned and unaligned band starts cover both block phase
        // cases.
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

    /// Row `j`, lane `s` of the convolution of `x` (its `B+1` tap blocks
    /// from block `kb = ⌊jν/μ⌋`, indices mod `x.len()`), each sample
    /// first multiplied by `block(K)` for its input block `K`, from the
    /// factorized tables: `Σ_b g·(x·block)` and the product with `phase`
    /// accumulated in double-double, rounded once.
    fn compensated_lane(
        coeffs: &ConvCoefficients,
        shape: ConvShape,
        x: &[Complex64],
        j: usize,
        s: usize,
        block: &impl Fn(usize) -> DdComplex,
    ) -> DdComplex {
        let (r, kb, p) = (j % shape.mu, shape.k0(j), shape.p);
        let mut acc = DdComplex::from_f64(0.0, 0.0);
        for blk in 0..shape.b {
            let k = kb + blk;
            let v = x[(k * p + s) % x.len()];
            acc += DdComplex::from_f64(v.re, v.im) * block(k) * DdComplex::from_f64(coeffs.tap(r, blk, s), 0.0);
        }
        acc
    }

    fn dd(v: Complex64) -> DdComplex {
        DdComplex::from_f64(v.re, v.im)
    }

    fn rounded(v: DdComplex) -> Complex64 {
        let (re, im) = v.to_f64();
        Complex64::new(re, im)
    }

    #[test]
    fn every_convolution_entry_point_is_within_rounding_of_a_compensated_reference() {
        // Seeded white input, all M' rows: each kernel against the same
        // factorized taps summed in double-double. Taps whose phase is
        // cis(π·θ) at |π·θ| up to ~47 differ from these by up to ~9e-15
        // relative; the kernels' own rounding reads ~2e-16.
        let mut rng = soi_testkit::rng::TestRng::seed_from_u64(0xC0DE);
        for (n, p) in [(1usize << 14, 8usize), (10_000, 5)] {
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
            let rows = cfg.m_prime;
            let len = shape.required_input(rows);
            let xc = rng.complex_vec(len);
            let xr = rng.f64_vec(len, -1.0..1.0);
            let xrc: Vec<Complex64> = xr.iter().map(|&v| Complex64::new(v, 0.0)).collect();
            let one = |_: usize| DdComplex::from_f64(1.0, 0.0);
            let reference = |x: &[Complex64]| -> Vec<Complex64> {
                (0..rows * p)
                    .map(|i| {
                        let (j, s) = (i / p, i % p);
                        let sum = compensated_lane(&coeffs, shape, &x[..len], j, s, &one);
                        rounded(sum * dd(coeffs.phase(j % cfg.mu, s)))
                    })
                    .collect()
            };
            let (want_c, want_r) = (reference(&xc), reference(&xrc));
            let check = |got: &[Complex64], want: &[Complex64], what: &str| {
                let err = rel_l2_error(got, want);
                assert!(err <= 5e-16, "N={n} P={p} {what}: rel-L2 {err:e}");
            };
            let mut out = vec![Complex64::ZERO; rows * p];
            convolve(shape, &coeffs, &xc, &mut out);
            check(&out, &want_c, "convolve");
            convolve_portable(shape, &coeffs, &xc, &mut out);
            check(&out, &want_c, "convolve_portable");
            convolve_real(shape, &coeffs, &xr, &mut out);
            check(&out, &want_r, "convolve_real");
            convolve_real_portable(shape, &coeffs, &xr, &mut out);
            check(&out, &want_r, "convolve_real_portable");

            // The zoom over x (length N, read circularly): a segment and
            // an unaligned band.
            let x = &xc[..n];
            for k0 in [cfg.m, cfg.m + 13] {
                let zt = ZoomTaps::new(shape, &coeffs, n, k0);
                let rho = |k: usize| DdComplex::root_of_unity(mul_mod(k0 % cfg.m, k % cfg.m, cfg.m), cfg.m);
                let want: Vec<Complex64> = (0..rows)
                    .map(|j| {
                        let mut acc = DdComplex::from_f64(0.0, 0.0);
                        for s in 0..p {
                            let lam = dd(coeffs.phase(j % cfg.mu, s))
                                * DdComplex::root_of_unity(mul_mod(k0, s, n), n);
                            acc += compensated_lane(&coeffs, shape, x, j, s, &rho) * lam;
                        }
                        rounded(acc)
                    })
                    .collect();
                let mut got = vec![Complex64::ZERO; rows];
                zoom_pooled(&zt, x, &mut got, &ThreadPool::serial());
                check(&got, &want, &format!("zoom_pooled k0={k0}"));
                zoom_portable(&zt, x, &mut got);
                check(&got, &want, &format!("zoom_portable k0={k0}"));
            }
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
