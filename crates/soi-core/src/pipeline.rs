//! The complete SOI transform in a single address space.
//!
//! This is Eq. (6) executed end to end:
//!
//! ```text
//! y ≈ (I_P ⊗ Ŵ⁻¹·P_proj·F_{M'}) · P_perm^{P,N'} · (I_{M'} ⊗ F_P) · W · x
//! ```
//!
//! 1. `W·x` — the convolution ([`crate::conv`]), producing `M'` groups of
//!    `P` values from `x` plus a circular halo;
//! 2. `I_{M'} ⊗ F_P` — a batch of M' small FFTs over the groups;
//! 3. `P_perm^{P,N'}` — the stride permutation (distributed: the single
//!    all-to-all; here: a transpose);
//! 4. per segment: `F_{M'}`, project to the first `M` bins, demodulate.
//!
//! Stages 1–3 run block by block in L2 as one front end
//! ([`crate::front`]), so neither an extended copy of `x` nor the `N'`
//! convolution output is ever materialized.
//!
//! The distributed version in `soi-dist` runs the same four stages with
//! stage 3 as the one global exchange; this single-process form is the
//! correctness core and the per-node compute kernel.

use crate::coeff::ConvCoefficients;
use crate::conv::{zoom_pooled, ConvShape, Sample, ZoomTaps};
use crate::error::SoiError;
use crate::params::{SoiConfig, SoiParams};
use crate::workspace::{SoiRealWorkspace, SoiWorkspace};
use soi_fft::batch::BatchFft;
use soi_fft::plan::{Direction, Plan, Planner};
use soi_num::{AlignedBuf, Complex64};
use soi_pool::{part_range, SlicePtr, ThreadPool};
use std::sync::Arc;

/// A prepared single-process SOI FFT.
#[derive(Debug)]
pub struct SoiFft {
    cfg: SoiConfig,
    coeffs: ConvCoefficients,
    batch_p: BatchFft,
    plan_m: Arc<Plan>,
}

impl SoiFft {
    /// Build the transform: designs nothing (the window came with
    /// `params`), precomputes coefficient and demodulation tables and the
    /// two FFT plans. Both plans come from the process-wide
    /// [`Planner::global`] cache, so repeated constructions (and sibling
    /// transforms sharing `P` or `M'`) reuse one twiddle build.
    pub fn new(params: &SoiParams) -> Result<Self, SoiError> {
        let cfg = params.resolve();
        let coeffs = ConvCoefficients::new(&cfg);
        let planner = Planner::global();
        Ok(Self {
            cfg,
            coeffs,
            batch_p: BatchFft::with_plan(planner.plan(cfg.p, Direction::Forward)),
            plan_m: planner.plan(cfg.m_prime, Direction::Forward),
        })
    }

    /// The resolved configuration.
    pub fn config(&self) -> &SoiConfig {
        &self.cfg
    }

    /// The coefficient tables (exposed for the distributed driver and the
    /// benches).
    pub fn coefficients(&self) -> &ConvCoefficients {
        &self.coeffs
    }

    /// The prebuilt `F_{M'}` plan (shared with the distributed driver).
    pub fn plan_m(&self) -> &Plan {
        &self.plan_m
    }

    /// The prebuilt `I ⊗ F_P` batch executor.
    pub fn batch_p(&self) -> &BatchFft {
        &self.batch_p
    }

    /// Kernel shape for the convolution stage (`b` here is the *tap*
    /// block count `B+1`, see `SoiConfig::taps`).
    pub fn shape(&self) -> ConvShape {
        ConvShape {
            mu: self.cfg.mu,
            nu: self.cfg.nu,
            b: self.cfg.taps(),
            p: self.cfg.p,
        }
    }

    /// Full in-order forward DFT of `x` (length `N`), approximated to the
    /// window design's accuracy.
    ///
    /// Convenience wrapper: builds a one-shot serial [`SoiWorkspace`] and
    /// delegates to [`Self::transform_into`]. For repeated transforms or
    /// threaded execution, hold a workspace and call `transform_into`
    /// directly.
    pub fn transform(&self, x: &[Complex64]) -> Result<Vec<Complex64>, SoiError> {
        let mut ws = SoiWorkspace::new(self, 1);
        let mut y = vec![Complex64::ZERO; self.cfg.n];
        self.transform_into(x, &mut y, &mut ws)?;
        Ok(y)
    }

    /// The four-stage transform into a caller buffer, reusing `ws` for
    /// every intermediate: zero allocations in steady state, executed on
    /// `ws`'s worker pool.
    ///
    /// Determinism: every parallel stage assigns each output element to
    /// exactly one pure task with deterministic chunk boundaries
    /// ([`soi_pool::part_range`]), so the result is **bitwise identical**
    /// for every worker count, including fully serial.
    pub fn transform_into(
        &self,
        x: &[Complex64],
        y: &mut [Complex64],
        ws: &mut SoiWorkspace,
    ) -> Result<(), SoiError> {
        self.execute(x, y, ws)
    }

    /// Stages 1–4 for either input type: `y` receives the kept lanes'
    /// segments, then for real input the Nyquist bin.
    fn execute<T: Sample>(
        &self,
        x: &[T],
        y: &mut [Complex64],
        ws: &mut SoiWorkspace<T>,
    ) -> Result<(), SoiError> {
        let cfg = &self.cfg;
        let keep = T::kept_lanes(cfg.p)?;
        if x.len() != cfg.n {
            return Err(SoiError::BadInput {
                expected: cfg.n,
                got: x.len(),
            });
        }
        // Keeping half the lanes leaves the Nyquist bin to add: N/2 + 1.
        let bins = keep * cfg.m + usize::from(keep < cfg.p);
        if y.len() != bins {
            return Err(SoiError::BadInput {
                expected: bins,
                got: y.len(),
            });
        }
        ws.check(self)?;
        let SoiWorkspace {
            pool,
            seg,
            front,
            scratch,
            stride,
            trace,
            ..
        } = ws;
        // Stages 1–3, block by block: convolution, M' independent F_P,
        // and the stride permutation group-major (j,s) → segment-major
        // (s,j) of the kept lanes. In the distributed algorithm stage 3
        // is the all-to-all.
        let block = self.front_block_chunks();
        let halo = &x[..cfg.halo_len()];
        self.front_end_with(x, halo, seg, keep, front, block, pool, trace);
        trace.span_begin("fft_m", None);
        self.segments_into(seg, y, keep, pool, scratch, *stride);
        // The Nyquist bin is exact and costs O(N): y_{N/2} = Σ x_j(−1)^j.
        if let Some(nyquist) = T::nyquist_partial(x) {
            y[keep * cfg.m] = Complex64::new(nyquist, 0.0);
        }
        trace.span_end("fft_m", None);
        Ok(())
    }

    /// Stage 4 over the first `count` segments of `seg`: per segment,
    /// `F_{M'}` with the projection + Ŵ⁻¹ demodulation fused into the
    /// FFT's final output pass (`execute_fused_into` — bitwise identical
    /// to transform-then-multiply, but skips one full sweep over the `M'`
    /// points per segment), written to `y[s·M..(s+1)·M]`. Segments are
    /// independent, so they fan across the pool, one scratch stripe of
    /// `stride` per worker.
    fn segments_into(
        &self,
        seg: &mut [Complex64],
        y: &mut [Complex64],
        count: usize,
        pool: &ThreadPool,
        scratch: &mut [Complex64],
        stride: usize,
    ) {
        let cfg = &self.cfg;
        let parts = pool.threads().min(count).max(1);
        let scr_len = self.plan_m.scratch_len();
        if parts == 1 {
            for s in 0..count {
                let row = &mut seg[s * cfg.m_prime..(s + 1) * cfg.m_prime];
                let out = &mut y[s * cfg.m..(s + 1) * cfg.m];
                self.plan_m.execute_fused_into(
                    row,
                    &mut scratch[..scr_len],
                    out,
                    &self.coeffs.demod,
                );
            }
            return;
        }
        let seg_ptr = SlicePtr::new(seg);
        let y_ptr = SlicePtr::new(y);
        let scr_ptr = SlicePtr::new(scratch);
        pool.run(parts, |t| {
            let (s0, sl) = part_range(count, parts, t);
            // SAFETY: segment ranges are disjoint across tasks, each
            // task owns scratch stripe `t`, and all borrows end at the
            // `run` barrier.
            let scr = unsafe { scr_ptr.slice(t * stride, scr_len) };
            for s in s0..s0 + sl {
                let row = unsafe { seg_ptr.slice(s * cfg.m_prime, cfg.m_prime) };
                let out = unsafe { y_ptr.slice(s * cfg.m, cfg.m) };
                self.plan_m
                    .execute_fused_into(row, scr, out, &self.coeffs.demod);
            }
        });
    }

    /// Real-input (r2c) forward transform: the packed half-spectrum
    /// `y[0..=N/2]` of a real signal, `N/2 + 1` complex bins. The
    /// remaining bins are redundant by conjugate-even symmetry
    /// (`y[N−k] = conj(y[k])`). Convenience wrapper building a one-shot
    /// serial [`SoiRealWorkspace`]; hold a workspace and call
    /// [`Self::transform_real_into`] for repeated transforms.
    pub fn transform_real(&self, x: &[f64]) -> Result<Vec<Complex64>, SoiError> {
        let mut ws = SoiRealWorkspace::new(self, 1);
        let mut y = vec![Complex64::ZERO; self.cfg.n / 2 + 1];
        self.transform_real_into(x, &mut y, &mut ws)?;
        Ok(y)
    }

    /// The real-input four-stage transform into a caller buffer of
    /// `N/2 + 1` bins, reusing `ws` for every intermediate; zero
    /// allocations in steady state, executed on `ws`'s worker pool.
    ///
    /// Relative to [`Self::transform_into`] this path (a) runs the
    /// convolution on the real samples directly — two real FMAs per tap
    /// instead of four, half the input bytes; (b) packs only the
    /// non-redundant `P/2` segment lanes after `F_P` (for real `x`,
    /// lane `P−s` is the conjugate mirror of lane `s` bin-reversed, so
    /// segments `P/2..P` of the spectrum are determined by `0..P/2`);
    /// (c) runs `F_{M'}` + fused demodulation on those `P/2` segments
    /// only; and (d) fills the Nyquist bin with the exact alternating
    /// fold [`nyquist_fold`]. Segments `0..P/2` are computed by the
    /// byte-for-byte same arithmetic as the complex path on the embedded
    /// input, so bins `0..N/2` are bitwise identical to it, and the
    /// whole path is bitwise deterministic for every worker count.
    ///
    /// Requires an even segment count `P` (the half-spectrum boundary
    /// must fall on a segment boundary).
    pub fn transform_real_into(
        &self,
        x: &[f64],
        y: &mut [Complex64],
        ws: &mut SoiRealWorkspace,
    ) -> Result<(), SoiError> {
        self.execute(x, y, ws)
    }

    /// Inverse transform: recover `x` from a spectrum `y` such that
    /// `inverse(transform(x)) ≈ x`.
    ///
    /// Uses the conjugation identity `F_N⁻¹ y = conj(F_N conj(y))/N`, so
    /// the inverse inherits the forward path's single-all-to-all
    /// communication structure unchanged.
    pub fn inverse(&self, y: &[Complex64]) -> Result<Vec<Complex64>, SoiError> {
        let conj_y: Vec<Complex64> = y.iter().map(|v| v.conj()).collect();
        let z = self.transform(&conj_y)?;
        let scale = 1.0 / self.cfg.n as f64;
        Ok(z.into_iter().map(|v| v.conj().scale(scale)).collect())
    }

    /// Compute only segment `s` of the spectrum —
    /// `y_k for k ∈ [sM, (s+1)M)` — without touching the other segments,
    /// for complex or real input (for real input the segments `P/2..P`
    /// are redundant mirror bins, but still allowed).
    ///
    /// This is the Fig 1 story: by the DFT shift theorem of §5 the
    /// segment is segment 0 of the phase-shifted input, which one
    /// convolution against the *contiguous* `BP`-tap window, one `M'`-point
    /// FFT and the demodulation extract. It is the band at `k0 = sM`
    /// ([`Self::transform_band`]), bit for bit. Cost: `O(M'·BP + M' log M')`.
    ///
    /// Returns [`SoiError::BadSize`] unless `s < P`.
    pub fn transform_segment<T: Sample>(
        &self,
        x: &[T],
        s: usize,
    ) -> Result<Vec<Complex64>, SoiError> {
        self.transform_segment_pooled(x, s, &ThreadPool::serial())
    }

    /// [`Self::transform_segment`] executed on a worker pool: the row
    /// convolutions fan out across workers with deterministic chunking,
    /// so the result is bitwise identical to the serial path.
    pub fn transform_segment_pooled<T: Sample>(
        &self,
        x: &[T],
        s: usize,
        pool: &ThreadPool,
    ) -> Result<Vec<Complex64>, SoiError> {
        if s >= self.cfg.p {
            return Err(SoiError::BadSize(format!(
                "segment {s} out of range (P = {})",
                self.cfg.p
            )));
        }
        self.transform_band_pooled(x, s * self.cfg.m, pool)
    }

    /// Compute an *arbitrary* length-`M` band of the spectrum:
    /// `y_k for k ∈ [k0, k0+M)`, any `k0 < N`, for complex or real input —
    /// a "zoom FFT" built from the same machinery.
    ///
    /// The band is segment 0 of `x_l·e^{−2πi·k0·l/N}`. That phase is
    /// never applied to `x`: it folds into the taps and a per-block
    /// factor ([`ZoomTaps`]), so a band costs what a segment costs,
    /// `O(M'·BP + M' log M')`.
    ///
    /// Returns [`SoiError::BadSize`] unless `k0 < N`.
    pub fn transform_band<T: Sample>(
        &self,
        x: &[T],
        k0: usize,
    ) -> Result<Vec<Complex64>, SoiError> {
        self.transform_band_pooled(x, k0, &ThreadPool::serial())
    }

    /// [`Self::transform_band`] executed on a worker pool (same
    /// determinism guarantee as [`Self::transform_segment_pooled`]).
    ///
    /// The one segment/band path: the `M'` zoom rows ([`zoom_pooled`]),
    /// then one `F_{M'}` with the projection and demodulation fused into
    /// its output pass.
    pub fn transform_band_pooled<T: Sample>(
        &self,
        x: &[T],
        k0: usize,
        pool: &ThreadPool,
    ) -> Result<Vec<Complex64>, SoiError> {
        let cfg = &self.cfg;
        if x.len() != cfg.n {
            return Err(SoiError::BadInput {
                expected: cfg.n,
                got: x.len(),
            });
        }
        if k0 >= cfg.n {
            return Err(SoiError::BadSize(format!(
                "band start {k0} out of range (N = {})",
                cfg.n
            )));
        }
        let taps = ZoomTaps::new(self.shape(), &self.coeffs, cfg.n, k0);
        let mut xt = AlignedBuf::<Complex64>::zeroed(cfg.m_prime);
        zoom_pooled(&taps, x, &mut xt, pool);
        let mut scratch = AlignedBuf::<Complex64>::zeroed(self.plan_m.scratch_len());
        let mut out = vec![Complex64::ZERO; cfg.m];
        self.plan_m
            .execute_fused_into(&mut xt, &mut scratch, &mut out, &self.coeffs.demod);
        Ok(out)
    }
}

/// Deterministic alternating fold `Σ_j x_j·(−1)^j` — the exact Nyquist
/// bin of a real signal whose first sample sits at an **even** global
/// index. Four fixed accumulator banks over 8-sample chunks, summed in a
/// fixed tree: bitwise identical run-to-run and independent of worker
/// count (it is never threaded). The distributed driver folds each
/// rank's slice with this same function (rank slices start at even
/// offsets because `M` is even whenever `P` is) and combines the
/// partials with the deterministic all-reduce.
pub fn nyquist_fold(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = x.chunks_exact(8);
    for c in &mut chunks {
        acc[0] += c[0] - c[1];
        acc[1] += c[2] - c[3];
        acc[2] += c[4] - c[5];
        acc[3] += c[6] - c[7];
    }
    let mut tail = 0.0;
    let mut sign = 1.0;
    for &v in chunks.remainder() {
        tail += sign * v;
        sign = -sign;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::FrontArena;
    use soi_fft::fft_forward;
    use soi_num::complex::rel_l2_error;
    use soi_num::stats::snr_db;
    use soi_window::AccuracyPreset;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                Complex64::new(
                    (i as f64 * 0.37).sin() + 0.3 * (i as f64 * 1.9).cos(),
                    (i as f64 * 0.11).cos() - 0.2,
                )
            })
            .collect()
    }

    #[test]
    fn matches_exact_fft_at_ten_digits() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(1 << 12);
        let y = soi.transform(&x).unwrap();
        let exact = fft_forward(&x);
        let err = rel_l2_error(&y, &exact);
        // The paper's bound (§4): O(κ·(ε_fft + ε_alias + ε_trunc)).
        let bound = soi.config().predicted_error();
        assert!(err < bound * 10.0, "rel error {err:e} vs bound {bound:e}");
        // And not absurdly better than designed (sanity that we measured
        // something real).
        assert!(err > 1e-16);
    }

    #[test]
    fn matches_exact_fft_at_full_accuracy() {
        let params = SoiParams::full_accuracy(1 << 14, 4).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(1 << 14);
        let y = soi.transform(&x).unwrap();
        let exact = fft_forward(&x);
        let snr = snr_db(&y, &exact);
        // §7.2: full-accuracy SOI sits around 290 dB (≈ one digit below a
        // standard FFT). Against an f64 reference we should comfortably
        // clear 260 dB.
        assert!(snr > 260.0, "snr = {snr} dB");
    }

    #[test]
    fn non_power_of_two_p() {
        // P = 5 exercises mixed-radix F_P and odd segment counts
        // (N = 10000 keeps m divisible by ν·P = 20).
        let params = SoiParams::with_preset(10_000, 5, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(10_000);
        let y = soi.transform(&x).unwrap();
        let exact = fft_forward(&x);
        let err = rel_l2_error(&y, &exact);
        let bound = soi.config().predicted_error();
        assert!(err < bound * 10.0, "rel error {err:e} vs bound {bound:e}");
    }

    #[test]
    fn segment_api_agrees_with_full_transform() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(1 << 12);
        let full = soi.transform(&x).unwrap();
        let m = soi.config().m;
        for s in 0..4 {
            let seg = soi.transform_segment(&x, s).unwrap();
            let err = rel_l2_error(&seg, &full[s * m..(s + 1) * m]);
            assert!(err < 1e-10, "segment {s}: {err:e}");
        }
    }

    #[test]
    fn segment_matches_exact_spectrum_slice() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits11).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(1 << 12);
        let exact = fft_forward(&x);
        let m = soi.config().m;
        let seg = soi.transform_segment(&x, 2).unwrap();
        let err = rel_l2_error(&seg, &exact[2 * m..3 * m]);
        let bound = soi.config().predicted_error();
        assert!(err < bound * 10.0, "rel error {err:e} vs bound {bound:e}");
    }

    #[test]
    fn linearity_of_whole_transform() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let a = signal(1 << 12);
        let b: Vec<Complex64> = signal(1 << 12).iter().map(|v| v.mul_neg_i()).collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let ya = soi.transform(&a).unwrap();
        let yb = soi.transform(&b).unwrap();
        let ys = soi.transform(&sum).unwrap();
        for k in 0..ys.len() {
            assert!((ys[k] - (ya[k] + yb[k])).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_wrong_length() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(100);
        assert!(matches!(
            soi.transform(&x),
            Err(SoiError::BadInput { expected, got: 100 }) if expected == 1 << 12
        ));
    }

    #[test]
    fn impulse_response_matches_aliasing_theory_per_bin() {
        // DFT of δ₀ is all-ones — the worst case for periodization
        // aliasing, since every alias image is coherent. The §3 theory
        // predicts the *exact* per-bin error:
        //   ỹ_k = Σ_p ŵ(k+pM')  ⇒  y_k − 1 = Σ_{p≠0} ŵ(k+pM')/ŵ(k).
        // Verify measurement against that prediction bin by bin.
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let cfg = *soi.config();
        let mut x = vec![Complex64::ZERO; 1 << 12];
        x[0] = Complex64::ONE;
        let y = soi.transform(&x).unwrap();
        for k in (0..cfg.m).step_by(97).chain([0, 1, cfg.m - 1]) {
            let mut predicted = Complex64::ZERO;
            for p in [-2i64, -1, 1, 2] {
                predicted += crate::coeff::w_hat(&cfg, k as f64 + p as f64 * cfg.m_prime as f64);
            }
            let predicted = predicted * soi.coefficients().demod[k];
            // Each segment sees the same aliasing structure; check seg 0.
            let measured = y[k] - Complex64::ONE;
            let tol = 0.3 * predicted.abs() + 1e-12;
            assert!(
                (measured - predicted).abs() < tol,
                "bin {k}: measured {measured:?}, theory {predicted:?}"
            );
        }
    }

    #[test]
    fn band_api_matches_exact_spectrum_at_unaligned_offsets() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits11).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let cfg = *soi.config();
        let x = signal(1 << 12);
        let exact = fft_forward(&x);
        let bound = 10.0 * cfg.predicted_error();
        for k0 in [0usize, 1, 777, cfg.m + 13, cfg.n - cfg.m / 2] {
            let band = soi.transform_band(&x, k0).unwrap();
            for (i, v) in band.iter().enumerate().step_by(113) {
                let want = exact[(k0 + i) % cfg.n];
                assert!(
                    (*v - want).abs() < bound * (1.0 + want.abs()) * 20.0,
                    "k0={k0} bin {i}: {v:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn band_at_aligned_offset_equals_segment_api() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(1 << 12);
        let m = soi.config().m;
        for s in 0..4 {
            let a = soi.transform_band(&x, s * m).unwrap();
            let b = soi.transform_segment(&x, s).unwrap();
            assert_eq!(bits(&a), bits(&b), "segment {s}");
        }
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    /// The modulate-then-dot formula the zoom kernel replaced: a
    /// modulated, haloed copy of `x` (one `sin`/`cos` per sample), a
    /// scalar `BP`-tap dot product per row, then `F_{M'}` and the
    /// demodulation.
    fn zoom_oracle(soi: &SoiFft, x: &[Complex64], k0: usize) -> Vec<Complex64> {
        let cfg = *soi.config();
        let shape = soi.shape();
        let bp = shape.b * cfg.p;
        let mut xp: Vec<Complex64> = (0..cfg.n)
            .map(|l| x[l] * Complex64::root_of_unity(k0 * l % cfg.n, cfg.n))
            .collect();
        xp.extend_from_within(..cfg.halo_len());
        let mut xt: Vec<Complex64> = (0..cfg.m_prime)
            .map(|j| {
                let r = j % cfg.mu;
                let base = shape.k0(j) * cfg.p;
                let c = soi.coefficients();
                (0..bp).fold(Complex64::ZERO, |acc, t| {
                    c.coefficient(r, t / cfg.p, t % cfg.p).mul_add(xp[base + t], acc)
                })
            })
            .collect();
        let mut scratch = vec![Complex64::ZERO; soi.plan_m().scratch_len()];
        let mut out = vec![Complex64::ZERO; cfg.m];
        soi.plan_m()
            .execute_fused_into(&mut xt, &mut scratch, &mut out, &soi.coefficients().demod);
        out
    }

    #[test]
    fn zoom_matches_modulate_then_dot_oracle() {
        // Every segment and the band starts {0, 1, M−1, M+13, N−BP/2,
        // N−1}, complex and real input. P = 5 makes BP odd, which reaches
        // the row kernels' scalar tails. White input puts energy in every
        // segment, so rel-L2 measures rounding, not leakage.
        let mut rng = soi_testkit::rng::TestRng::seed_from_u64(0x200A);
        for (n, p) in [(1 << 12, 4), (1 << 14, 8), (10_000, 5)] {
            let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
            let soi = SoiFft::new(&params).unwrap();
            let cfg = *soi.config();
            let bp = cfg.taps() * p;
            if p == 5 {
                assert_eq!(bp % 2, 1, "BP = {bp} should be odd");
            }
            let x = rng.complex_vec(n);
            let xr = rng.f64_vec(n, -1.0..1.0);
            let xrc: Vec<Complex64> = xr.iter().map(|&v| Complex64::new(v, 0.0)).collect();
            let check = |got: Vec<Complex64>, want: Vec<Complex64>, what: String| {
                let err = rel_l2_error(&got, &want);
                assert!(err <= 1e-13, "N={n} P={p} {what}: rel-L2 {err:e}");
            };
            for s in 0..p {
                let k0 = s * cfg.m;
                check(
                    soi.transform_segment(&x, s).unwrap(),
                    zoom_oracle(&soi, &x, k0),
                    format!("segment {s}"),
                );
                check(
                    soi.transform_segment(&xr, s).unwrap(),
                    zoom_oracle(&soi, &xrc, k0),
                    format!("real segment {s}"),
                );
            }
            for k0 in [0, 1, cfg.m - 1, cfg.m + 13, n - bp / 2, n - 1] {
                check(
                    soi.transform_band(&x, k0).unwrap(),
                    zoom_oracle(&soi, &x, k0),
                    format!("band {k0}"),
                );
                check(
                    soi.transform_band(&xr, k0).unwrap(),
                    zoom_oracle(&soi, &xrc, k0),
                    format!("real band {k0}"),
                );
            }
        }
    }

    #[test]
    fn real_zoom_is_bitwise_the_complex_zoom() {
        // Real input fills the zoom's complex window with (x, 0)·ρ^K, the
        // product its complex embedding gets, and both run one row
        // kernel: every segment and band matches bit for bit.
        let mut rng = soi_testkit::rng::TestRng::seed_from_u64(0x200B);
        for (n, p) in [(1 << 12, 4), (1 << 14, 8), (10_000, 5)] {
            let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
            let soi = SoiFft::new(&params).unwrap();
            let cfg = *soi.config();
            let bp = cfg.taps() * p;
            let xr = rng.f64_vec(n, -1.0..1.0);
            let xrc: Vec<Complex64> = xr.iter().map(|&v| Complex64::new(v, 0.0)).collect();
            for s in 0..p {
                let real = soi.transform_segment(&xr, s).unwrap();
                let complex = soi.transform_segment(&xrc, s).unwrap();
                assert_eq!(bits(&real), bits(&complex), "N={n} P={p} segment {s}");
            }
            for k0 in [0, 1, cfg.m - 1, cfg.m + 13, n - bp / 2, n - 1] {
                let real = soi.transform_band(&xr, k0).unwrap();
                let complex = soi.transform_band(&xrc, k0).unwrap();
                assert_eq!(bits(&real), bits(&complex), "N={n} P={p} band {k0}");
            }
        }
    }

    #[test]
    fn segment_and_band_reject_out_of_range_arguments() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let (n, p) = (1 << 12, 4);
        let x = signal(n);
        let xr = real_signal(n);
        let pool = ThreadPool::new(2);
        for (s, k0) in [(p, n), (usize::MAX, usize::MAX)] {
            let results = [
                ("segment", soi.transform_segment(&x, s)),
                ("segment_pooled", soi.transform_segment_pooled(&x, s, &pool)),
                ("real_segment", soi.transform_segment(&xr, s)),
                (
                    "real_segment_pooled",
                    soi.transform_segment_pooled(&xr, s, &pool),
                ),
                ("band", soi.transform_band(&x, k0)),
                ("band_pooled", soi.transform_band_pooled(&x, k0, &pool)),
                ("real_band", soi.transform_band(&xr, k0)),
                (
                    "real_band_pooled",
                    soi.transform_band_pooled(&xr, k0, &pool),
                ),
            ];
            for (what, r) in results {
                assert!(
                    matches!(&r, Err(SoiError::BadSize(msg)) if msg.contains("out of range")),
                    "{what}({s}, {k0}): {r:?}"
                );
            }
        }
        assert!(matches!(
            soi.transform_band(&x[..100], 0),
            Err(SoiError::BadInput { expected, got: 100 }) if expected == n
        ));
    }

    #[test]
    fn inverse_roundtrip() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(1 << 12);
        let y = soi.transform(&x).unwrap();
        let back = soi.inverse(&y).unwrap();
        let err = rel_l2_error(&back, &x);
        let bound = soi.config().predicted_error();
        assert!(err < bound * 20.0, "roundtrip err {err:e} vs bound {bound:e}");
    }

    #[test]
    fn inverse_matches_exact_ifft() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let y = signal(1 << 12);
        let got = soi.inverse(&y).unwrap();
        let want = soi_fft::fft_inverse(&y);
        let err = rel_l2_error(&got, &want);
        let bound = soi.config().predicted_error();
        assert!(err < bound * 10.0, "err {err:e} vs bound {bound:e}");
    }

    /// The span contract of a traced call wrapped in a `call` span (what
    /// `perfbench`'s traced run checks): the stream validates, each of the
    /// five stage spans has a positive total, and they add up to no more
    /// than the call.
    fn assert_span_contract(events: &[soi_trace::Event], what: &str) {
        let set = soi_trace::TraceSet::from_streams(vec![events.to_vec()]);
        set.validate().unwrap_or_else(|e| panic!("{what}: {e}"));
        let totals = soi_trace::phase_totals(events);
        let names: Vec<&str> = totals.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["halo", "conv", "fft_p", "pack", "fft_m", "call"],
            "{what}"
        );
        let (call, stages) = totals.split_last().unwrap();
        assert!(stages.iter().all(|(_, ns)| *ns > 0), "{what}: {totals:?}");
        let sum: u64 = stages.iter().map(|(_, ns)| ns).sum();
        assert!(
            sum <= call.1,
            "{what}: stages {sum} ns exceed the call's {} ns",
            call.1
        );
    }

    /// N = 2^15, P = 8 runs four production front-end blocks, so the
    /// per-block spans repeat, and three workers split the blocks.
    const TRACED_N: usize = 1 << 15;

    #[test]
    fn tracing_is_transparent_and_emits_stage_spans() {
        let params = SoiParams::with_preset(TRACED_N, 8, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(TRACED_N);
        for workers in [1usize, 3] {
            let mut ws_plain = SoiWorkspace::new(&soi, workers);
            let mut y_plain = vec![Complex64::ZERO; TRACED_N];
            soi.transform_into(&x, &mut y_plain, &mut ws_plain).unwrap();

            let trace = soi_trace::Trace::recording(0);
            let mut ws_traced = SoiWorkspace::new(&soi, workers);
            ws_traced.set_trace(trace.clone());
            let mut y_traced = vec![Complex64::ZERO; TRACED_N];
            trace.span_begin("call", None);
            soi.transform_into(&x, &mut y_traced, &mut ws_traced)
                .unwrap();
            trace.span_end("call", None);

            // Tracing must not perturb the numerics: bitwise identity.
            assert_eq!(bits(&y_plain), bits(&y_traced), "workers={workers}");
            assert_span_contract(&trace.drain(), &format!("workers={workers}"));
            // The untraced workspace recorded nothing, and stays that way.
            assert!(ws_plain.trace().is_empty());
        }
    }

    /// The whole-array pipeline the blocked front end replaced, rebuilt
    /// from public pieces: `x` extended by its circular halo, one
    /// convolution over all `M'` rows, one `F_P` batch, the stride
    /// permutation, then per segment `F_{M'}` and the demodulation as a
    /// separate multiply loop. Keeps the first `keep` segments (`P/2` for
    /// real input); returns them before `F_{M'}` and as spectrum bins.
    fn whole_array_reference<T: Sample>(
        soi: &SoiFft,
        x: &[T],
        keep: usize,
    ) -> (Vec<Complex64>, Vec<Complex64>) {
        let cfg = *soi.config();
        let mut xext = x.to_vec();
        xext.extend_from_within(..cfg.halo_len());
        let mut v = vec![Complex64::ZERO; cfg.n_prime];
        T::convolve(soi.shape(), soi.coefficients(), &xext, &mut v);
        soi.batch_p().execute(&mut v);
        let mut seg = vec![Complex64::ZERO; cfg.n_prime];
        soi_fft::permute::stride_permute(&v, &mut seg, cfg.m_prime);
        seg.truncate(keep * cfg.m_prime);
        let lanes = seg.clone();
        let mut y = vec![Complex64::ZERO; keep * cfg.m];
        let mut scratch = vec![Complex64::ZERO; soi.plan_m().scratch_len()];
        for s in 0..keep {
            let row = &mut seg[s * cfg.m_prime..(s + 1) * cfg.m_prime];
            soi.plan_m().execute_with_scratch(row, &mut scratch);
            for k in 0..cfg.m {
                y[s * cfg.m + k] = row[k] * soi.coefficients().demod[k];
            }
        }
        (lanes, y)
    }

    /// Geometries for the reference tests: P ∈ {4, 5, 6, 8, 16}.
    const REFERENCE_GEOMETRIES: [(usize, usize); 5] = [
        (1 << 12, 4),
        (10_000, 5),
        (9216, 6),
        (1 << 14, 8),
        (1 << 14, 16),
    ];

    #[test]
    fn fused_stage4_is_bitwise_identical_to_unfused_reference() {
        // The production path runs the front end block by block and fuses
        // projection + demodulation into the final FFT pass; the
        // whole-array reference does neither. Demand bitwise identity (a
        // far stronger statement than the SNR bound, which it implies) for
        // complex and real input on every worker count.
        for (n, p) in REFERENCE_GEOMETRIES {
            let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
            let soi = SoiFft::new(&params).unwrap();
            let cfg = *soi.config();
            let x = signal(n);
            let xr = real_signal(n);
            let (_, want) = whole_array_reference(&soi, &x, p);
            let (_, want_real) = whole_array_reference(&soi, &xr, p / 2);
            for workers in [1usize, 2, 3, 7] {
                let mut ws = SoiWorkspace::new(&soi, workers);
                let mut y = vec![Complex64::ZERO; n];
                soi.transform_into(&x, &mut y, &mut ws).unwrap();
                assert_eq!(bits(&y), bits(&want), "N={n} P={p} workers={workers}");
                if p % 2 == 0 {
                    let mut ws = SoiRealWorkspace::new(&soi, workers);
                    let mut y = vec![Complex64::ZERO; n / 2 + 1];
                    soi.transform_real_into(&xr, &mut y, &mut ws).unwrap();
                    assert_eq!(
                        bits(&y[..cfg.n / 2]),
                        bits(&want_real),
                        "real N={n} P={p} workers={workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_front_end_is_bitwise_the_whole_array_reference() {
        // Small blocks reach the cases the production block size only
        // meets at large N: several blocks, a ragged last block, and a
        // block boundary inside the run of chunks whose window wraps past
        // the end of x.
        for (n, p) in REFERENCE_GEOMETRIES {
            let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
            let soi = SoiFft::new(&params).unwrap();
            let cfg = *soi.config();
            let chunks = n / (cfg.nu * p);
            // Chunk c reads samples [cνP, (cν + ν + B)·P): it wraps when
            // that runs past N.
            let first_wrap = (0..chunks)
                .find(|c| (c * cfg.nu + cfg.nu + cfg.b) * p > n)
                .unwrap();
            let wrapping = chunks - first_wrap;
            assert!(
                wrapping >= 3,
                "N={n} P={p}: only {wrapping} wrapping chunks"
            );
            let blocks = [wrapping - 1, 7, soi.front_block_chunks()];
            // The first block size puts a boundary strictly inside the
            // wrapping run; one of them leaves a ragged last block.
            let straddles = |k: usize| (first_wrap + 1..chunks).any(|c| c.is_multiple_of(k));
            assert!(straddles(blocks[0]), "N={n} P={p}: no straddling block");
            let ragged = |k: usize| chunks > k && !chunks.is_multiple_of(k);
            assert!(
                blocks.into_iter().any(ragged),
                "N={n} P={p}: no ragged block"
            );
            let x = signal(n);
            let xr = real_signal(n);
            let (want, _) = whole_array_reference(&soi, &x, p);
            let (want_real, _) = whole_array_reference(&soi, &xr, p / 2);
            for block in blocks {
                for workers in [1usize, 2, 3, 7] {
                    let pool = ThreadPool::new(workers);
                    let what = format!("N={n} P={p} block={block} workers={workers}");
                    let mut got = vec![Complex64::ZERO; cfg.n_prime];
                    let mut arena = FrontArena::new(&soi, n, 1);
                    let halo = &x[..cfg.halo_len()];
                    let trace = soi_trace::Trace::disabled();
                    soi.front_end_with(&x, halo, &mut got, p, &mut arena, block, &pool, &trace);
                    assert_eq!(bits(&got), bits(&want), "{what}");
                    let mut got = vec![Complex64::ZERO; p / 2 * cfg.m_prime];
                    let mut arena = FrontArena::new(&soi, n, 1);
                    let halo = &xr[..cfg.halo_len()];
                    soi.front_end_with(
                        &xr,
                        halo,
                        &mut got,
                        p / 2,
                        &mut arena,
                        block,
                        &pool,
                        &trace,
                    );
                    assert_eq!(bits(&got), bits(&want_real), "real {what}");
                }
            }
        }
    }

    #[test]
    fn fused_stage4_on_four_step_engine_matches_exact_fft() {
        // N = 2^16, P = 2 puts M' = 40960 above the four-step threshold,
        // so this exercises the genuinely fused cache-blocked path end to
        // end (the 2^12 tests run the mixed-radix fallback).
        let params = SoiParams::with_preset(1 << 16, 2, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        assert_eq!(soi.plan_m().engine_name(), "four-step");
        let x = signal(1 << 16);
        let y = soi.transform(&x).unwrap();
        let exact = fft_forward(&x);
        let err = rel_l2_error(&y, &exact);
        let bound = soi.config().predicted_error();
        assert!(err < bound * 10.0, "rel error {err:e} vs bound {bound:e}");
    }

    #[test]
    fn plan_m_dispatches_no_generic_butterfly() {
        // M' always carries the oversampling factor 5 (μ/ν = 5/4); the
        // paper's kernel story requires it to hit the hand-written
        // radix-5 codelet, never the O(r²) generic butterfly.
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let cs = soi.plan_m().codelets();
        assert!(
            cs.contains(&soi_fft::codelet::Codelet::Radix5),
            "M' = {} codelets: {cs:?}",
            soi.config().m_prime
        );
        assert!(cs.iter().all(|c| !c.is_generic()), "{cs:?}");
    }

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() + 0.3 * (i as f64 * 1.9).cos() - 0.1)
            .collect()
    }

    #[test]
    fn nyquist_fold_matches_naive_alternating_sum() {
        for n in [0usize, 1, 5, 8, 9, 16, 23, 1000] {
            let x = real_signal(n.max(1))[..n].to_vec();
            let naive: f64 = x
                .iter()
                .enumerate()
                .map(|(j, &v)| if j % 2 == 0 { v } else { -v })
                .sum();
            assert!(
                (nyquist_fold(&x) - naive).abs() < 1e-12 * (n.max(1) as f64),
                "n={n}"
            );
        }
    }

    #[test]
    fn real_transform_matches_exact_packed_rfft() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = real_signal(1 << 12);
        let y = soi.transform_real(&x).unwrap();
        assert_eq!(y.len(), (1 << 11) + 1);
        let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        let exact = fft_forward(&xc);
        let err = rel_l2_error(&y[..1 << 11], &exact[..1 << 11]);
        let bound = soi.config().predicted_error();
        assert!(err < bound * 10.0, "rel error {err:e} vs bound {bound:e}");
        // The Nyquist bin is the exact alternating fold, not an SOI
        // approximation — it should beat the bound outright.
        assert!((y[1 << 11] - exact[1 << 11]).abs() < 1e-9);
    }

    #[test]
    fn real_transform_is_bitwise_the_complex_transform_below_nyquist() {
        // Segments 0..P/2 of the r2c path run the byte-for-byte same
        // arithmetic as the complex path on the embedded input; demand
        // bitwise identity for every bin below Nyquist. On the AVX2 path
        // P = 4 runs the real kernel's lane quad, P = 8 its octet, and
        // P = 6 a quad plus the `P mod 4` scalar tail, at an N that is
        // not a power of two.
        for (n, p) in [(1 << 12, 4), (1 << 14, 8), (9216, 6)] {
            let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
            let soi = SoiFft::new(&params).unwrap();
            let x = real_signal(n);
            let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
            let yc = soi.transform(&xc).unwrap();
            let yr = soi.transform_real(&x).unwrap();
            let bits = |v: Complex64| (v.re.to_bits(), v.im.to_bits());
            for k in 0..n / 2 {
                assert_eq!(bits(yr[k]), bits(yc[k]), "(N, P) = ({n}, {p}), bin {k}");
            }
            // At Nyquist the r2c path is exact while the complex path is
            // the SOI approximation; they agree to the design bound.
            let bound = soi.config().predicted_error() * n as f64;
            assert!((yr[n / 2] - yc[n / 2]).abs() < bound, "(N, P) = ({n}, {p})");
        }
    }

    #[test]
    fn real_transform_satisfies_hermitian_symmetry() {
        // The packed half-spectrum must mirror the complex transform's
        // upper half: y[N−k] = conj(y[k]).
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits11).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let cfg = *soi.config();
        let x = real_signal(1 << 12);
        let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        let yc = soi.transform(&xc).unwrap();
        let yr = soi.transform_real(&x).unwrap();
        let bound = cfg.predicted_error() * cfg.n as f64;
        for k in (1..cfg.n / 2).step_by(97).chain([1, cfg.n / 2 - 1]) {
            let mirror = yc[cfg.n - k];
            assert!(
                (yr[k].conj() - mirror).abs() < bound,
                "bin {k}: {:?} vs conj {:?}",
                yr[k],
                mirror
            );
        }
        // DC and Nyquist are real for real input: the DC imaginary part
        // is pure SOI approximation error, the Nyquist bin exactly zero
        // by construction.
        assert!(yr[0].im.abs() < bound, "DC imag {:e}", yr[0].im);
        assert_eq!(yr[cfg.n / 2].im, 0.0);
    }

    #[test]
    fn real_transform_is_bitwise_deterministic_across_worker_counts() {
        // P = 8 exercises the batched register-resident F_8 kernel in
        // stage 2 alongside the pooled real conv and partial pack.
        let params = SoiParams::with_preset(1 << 14, 8, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = real_signal(1 << 14);
        let half = (1 << 13) + 1;
        let mut reference = vec![Complex64::ZERO; half];
        let mut ws1 = SoiRealWorkspace::new(&soi, 1);
        soi.transform_real_into(&x, &mut reference, &mut ws1)
            .unwrap();
        // Run-to-run on a reused workspace.
        let mut again = vec![Complex64::ZERO; half];
        soi.transform_real_into(&x, &mut again, &mut ws1).unwrap();
        for (a, b) in reference.iter().zip(&again) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        // Across worker counts.
        for workers in [2usize, 3, 4, 7] {
            let mut ws = SoiRealWorkspace::new(&soi, workers);
            let mut y = vec![Complex64::ZERO; half];
            soi.transform_real_into(&x, &mut y, &mut ws).unwrap();
            let same = reference
                .iter()
                .zip(&y)
                .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
            assert!(same, "workers={workers} drifted from serial");
        }
    }

    #[test]
    fn real_segment_and_band_agree_with_real_transform() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let cfg = *soi.config();
        let x = real_signal(1 << 12);
        let y = soi.transform_real(&x).unwrap();
        for s in 0..cfg.p / 2 {
            let seg = soi.transform_segment(&x, s).unwrap();
            let err = rel_l2_error(&seg, &y[s * cfg.m..(s + 1) * cfg.m]);
            assert!(err < 1e-10, "segment {s}: {err:e}");
        }
        // A mirror-half segment reproduces the conjugate bins.
        let seg = soi.transform_segment(&x, cfg.p - 1).unwrap();
        let bound = cfg.predicted_error() * cfg.n as f64;
        for i in (1..cfg.m).step_by(131) {
            let mirror = y[cfg.n - ((cfg.p - 1) * cfg.m + i)].conj();
            assert!((seg[i] - mirror).abs() < bound, "mirror bin {i}");
        }
        // Band at an aligned offset is the segment API, bit for bit.
        let band = soi.transform_band(&x, cfg.m).unwrap();
        let seg1 = soi.transform_segment(&x, 1).unwrap();
        assert_eq!(bits(&band), bits(&seg1));
    }

    #[test]
    fn real_transform_rejects_odd_p_and_bad_lengths() {
        let params = SoiParams::with_preset(10_000, 5, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = real_signal(10_000);
        assert!(matches!(
            soi.transform_real(&x),
            Err(SoiError::BadSize(msg)) if msg.contains("even")
        ));

        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        assert!(matches!(
            soi.transform_real(&real_signal(100)),
            Err(SoiError::BadInput { expected, got: 100 }) if expected == 1 << 12
        ));
        let mut ws = SoiRealWorkspace::new(&soi, 1);
        let mut y_short = vec![Complex64::ZERO; 1 << 11];
        assert!(matches!(
            soi.transform_real_into(&real_signal(1 << 12), &mut y_short, &mut ws),
            Err(SoiError::BadInput { expected, got }) if expected == (1 << 11) + 1 && got == 1 << 11
        ));
    }

    #[test]
    fn real_tracing_is_transparent_and_emits_stage_spans() {
        let params = SoiParams::with_preset(TRACED_N, 8, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = real_signal(TRACED_N);
        let half = TRACED_N / 2 + 1;
        for workers in [1usize, 3] {
            let mut ws_plain = SoiRealWorkspace::new(&soi, workers);
            let mut y_plain = vec![Complex64::ZERO; half];
            soi.transform_real_into(&x, &mut y_plain, &mut ws_plain)
                .unwrap();

            let trace = soi_trace::Trace::recording(0);
            let mut ws_traced = SoiRealWorkspace::new(&soi, workers);
            ws_traced.set_trace(trace.clone());
            let mut y_traced = vec![Complex64::ZERO; half];
            trace.span_begin("call", None);
            soi.transform_real_into(&x, &mut y_traced, &mut ws_traced)
                .unwrap();
            trace.span_end("call", None);

            assert_eq!(bits(&y_plain), bits(&y_traced), "workers={workers}");
            assert_span_contract(&trace.drain(), &format!("real workers={workers}"));
            assert!(ws_plain.trace().is_empty());
        }
    }

    #[test]
    fn pure_tone_lands_in_one_bin() {
        let n = 1 << 12;
        let params = SoiParams::with_preset(n, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let f = 1234;
        let x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * (f * j % n) as f64 / n as f64))
            .collect();
        let y = soi.transform(&x).unwrap();
        assert!((y[f] - Complex64::new(n as f64, 0.0)).abs() < 1e-6 * n as f64);
        let leak: f64 = y
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != f)
            .map(|(_, v)| v.abs())
            .fold(0.0, f64::max);
        assert!(leak < 1e-7 * n as f64, "max leak {leak:e}");
    }
}
