//! Cache-blocked four-step (Bailey) decomposition for large transforms.
//!
//! Above the L2 working-set threshold, one big `F_n` stops fitting in
//! cache and every butterfly pass becomes a strided memory-bound sweep.
//! Bailey's factorization `F_n = (F_a ⊗ I_b) · T · (I_a ⊗ F_b)` (here in
//! its transpose-based six-pass form) turns the transform into *rows*:
//! `b` independent `a`-point FFTs, a twiddle scaling `T`, then `a`
//! independent `b`-point FFTs, with blocked transposes in between so each
//! row transform runs on contiguous, L1/L2-resident data. With
//! `a ≈ b ≈ √n`, each inner transform of an `n = 2^20`-point FFT is only
//! `~2^10` points — a few KiB — so the memory system streams while the
//! butterflies hit cache.
//!
//! The inner row transforms are *raw* (unnormalized, [`Sign`]-keyed)
//! engines, not [`crate::Plan`]s: a plan would apply `1/len` per inverse
//! sub-transform and double-normalize the composite. [`RawFft`] is the
//! shared wrapper the planner also caches for Bluestein's inner
//! convolution FFTs.

use crate::codelet::{self, Codelet, Dispatch};
use crate::colfft::ColumnFft;
use crate::mixed::MixedRadixFft;
use crate::simd;
use crate::stockham::StockhamFft;
use crate::twiddle::Sign;
use soi_num::{AlignedBuf, Complex64};
use std::sync::Arc;

/// Transpose block edge (elements); 32 complex doubles = 512 B per row
/// segment, matching `permute::transpose`.
const BLOCK: usize = 32;

/// An unnormalized direction-keyed FFT engine: Stockham for powers of
/// two, mixed-radix otherwise. This is the building block composite
/// engines (four-step, Bluestein) recurse into, and what
/// [`crate::Planner`] caches so inner twiddle tables are shared.
#[derive(Debug, Clone)]
pub enum RawFft {
    /// Power-of-two Stockham engine.
    Stockham(StockhamFft),
    /// General smooth-size mixed-radix engine.
    Mixed(MixedRadixFft),
}

impl RawFft {
    /// Build the natural raw engine for `n` (callers route sizes with
    /// huge prime factors to Bluestein *before* reaching here; mixed
    /// still handles them, just in `O(r²)` per large factor).
    pub fn new(n: usize, sign: Sign) -> Self {
        Self::with_simd(n, sign, simd::enabled())
    }

    /// Build with an explicit SIMD request forwarded to the inner engine
    /// (see [`StockhamFft::with_simd`] / [`MixedRadixFft::with_simd`]).
    pub fn with_simd(n: usize, sign: Sign, want: bool) -> Self {
        if n.is_power_of_two() {
            RawFft::Stockham(StockhamFft::with_simd(n, sign, want))
        } else {
            RawFft::Mixed(MixedRadixFft::with_simd(n, sign, want))
        }
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        match self {
            RawFft::Stockham(e) => e.len(),
            RawFft::Mixed(e) => e.len(),
        }
    }

    /// True only for the empty transform.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Direction.
    pub fn sign(&self) -> Sign {
        match self {
            RawFft::Stockham(e) => e.sign(),
            RawFft::Mixed(e) => e.sign(),
        }
    }

    /// Scratch elements an allocation-free execute needs.
    pub fn scratch_len(&self) -> usize {
        match self {
            RawFft::Stockham(e) => e.len(),
            RawFft::Mixed(e) => e.scratch_len(),
        }
    }

    /// In-place unnormalized execute reusing caller scratch.
    pub fn execute_with_scratch(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        match self {
            RawFft::Stockham(e) => e.execute_with_scratch(data, &mut scratch[..e.len()]),
            RawFft::Mixed(e) => e.execute_with_scratch(data, scratch),
        }
    }

    /// In-place unnormalized execute, allocating scratch internally.
    pub fn execute(&self, data: &mut [Complex64]) {
        let mut scratch = AlignedBuf::zeroed(self.scratch_len());
        self.execute_with_scratch(data, &mut scratch);
    }

    /// Out-of-place unnormalized execute: transform `src` into `dst`
    /// leaving `src` untouched, with results bitwise identical to the
    /// in-place path (both engines run the exact same stage/combine
    /// arithmetic — only the buffer schedule differs). This is the row
    /// API the four-step uses to land `F_b` directly in the transpose
    /// buffer.
    pub fn process_with_scratch(
        &self,
        src: &[Complex64],
        dst: &mut [Complex64],
        scratch: &mut [Complex64],
    ) {
        match self {
            RawFft::Stockham(e) => e.process_with_scratch(src, dst, &mut scratch[..e.len()]),
            RawFft::Mixed(e) => e.process_with_scratch(src, dst, scratch),
        }
    }

    /// The butterfly codelets this engine dispatches to.
    pub fn codelets(&self) -> Vec<Codelet> {
        match self {
            RawFft::Stockham(e) => e.codelets(),
            RawFft::Mixed(e) => e.codelets(),
        }
    }

    /// The codelets with their active dispatch.
    pub fn codelet_dispatch(&self) -> Vec<(Codelet, Dispatch)> {
        match self {
            RawFft::Stockham(e) => e.codelet_dispatch(),
            RawFft::Mixed(e) => e.codelet_dispatch(),
        }
    }
}

/// A prepared four-step transform of composite size `n = a·b`.
#[derive(Debug, Clone)]
pub struct FourStepFft {
    n: usize,
    a: usize,
    b: usize,
    sign: Sign,
    /// Inter-step twiddles `ω_n^{j2·k1}` (direction-signed). Layout
    /// follows the active column-pass path: `tw[k1·b + j2]` (row-major,
    /// matching the matrix) when `col` is active so the fused scatter
    /// streams it unit-stride, else `tw[j2·a + k1]` to match the `b×a`
    /// buffer of the transpose-based path.
    tw: AlignedBuf<Complex64>,
    /// `a`-point row engine (applied `b` times on the transpose-based
    /// path; on the batched column path it only documents the codelets).
    fa: Arc<RawFft>,
    /// `b`-point row engine (applied `a` times).
    fb: Arc<RawFft>,
    /// Run the transpose / twiddle / fused-epilogue passes through the
    /// AVX2 kernels (decided once at construction, like the engines').
    simd: bool,
    /// Batched column-DFT fast path for the `F_a` side: replaces the
    /// first transpose, the `b` row transforms, and the twiddle pass
    /// with one strided read and one fused twiddled write. Built only
    /// under SIMD dispatch for `a = 5^j·2^k` splits.
    col: Option<ColumnFft>,
}

/// The near-square split: largest divisor of `n` that is ≤ √n. Returns 1
/// for primes (for which four-step degenerates and should not be used).
pub fn split(n: usize) -> usize {
    let mut best = 1;
    let mut d = 1;
    while d * d <= n {
        if n % d == 0 {
            best = d;
        }
        d += 1;
    }
    best
}

impl FourStepFft {
    /// Plan a four-step transform, building inner engines directly.
    ///
    /// # Panics
    /// Panics if `n` has no nontrivial near-square split (i.e. is 1 or
    /// prime) — the planner never routes such sizes here.
    pub fn new(n: usize, sign: Sign) -> Self {
        Self::with_simd(n, sign, simd::enabled())
    }

    /// Plan with an explicit SIMD request, forwarded to the inner row
    /// engines and governing this engine's own transpose/twiddle passes.
    pub fn with_simd(n: usize, sign: Sign, want: bool) -> Self {
        let a = split(n);
        assert!(a > 1, "four-step needs a composite size, got {n}");
        Self::with_engines_opts(
            n,
            sign,
            Arc::new(RawFft::with_simd(a, sign, want)),
            Arc::new(RawFft::with_simd(n / a, sign, want)),
            want,
        )
    }

    /// Plan with caller-provided (typically planner-cached) inner engines.
    /// The split is taken from the engines themselves — `fa.len()·fb.len()`
    /// must equal `n` with both sides nontrivial — so the planner is free
    /// to pick a better-than-near-square split.
    pub fn with_engines(n: usize, sign: Sign, fa: Arc<RawFft>, fb: Arc<RawFft>) -> Self {
        Self::with_engines_opts(n, sign, fa, fb, simd::enabled())
    }

    fn with_engines_opts(
        n: usize,
        sign: Sign,
        fa: Arc<RawFft>,
        fb: Arc<RawFft>,
        want: bool,
    ) -> Self {
        let a = fa.len();
        let b = fb.len();
        assert!(a > 1 && b > 1, "four-step needs a composite size, got {n}");
        assert_eq!(a * b, n, "inner engine sizes {a}·{b} != {n}");
        assert!(fa.sign() == sign && fb.sign() == sign, "inner engine sign mismatch");
        let simd = want && simd::cpu_supported();
        let col = if simd {
            ColumnFft::width_for(a, b).map(|w| ColumnFft::new(a, w, sign))
        } else {
            None
        };
        let mut tw = Vec::with_capacity(n);
        if col.is_some() {
            for k1 in 0..a {
                for j2 in 0..b {
                    tw.push(sign.root(j2 * k1, n));
                }
            }
        } else {
            for j2 in 0..b {
                for k1 in 0..a {
                    tw.push(sign.root(j2 * k1, n));
                }
            }
        }
        Self {
            n,
            a,
            b,
            sign,
            tw: AlignedBuf::from_slice(&tw),
            fa,
            fb,
            simd,
            col,
        }
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

    /// The `(a, b)` row split.
    pub fn dims(&self) -> (usize, usize) {
        (self.a, self.b)
    }

    /// The butterfly codelets the inner row engines dispatch to.
    pub fn codelets(&self) -> Vec<Codelet> {
        let mut v = self.fa.codelets();
        v.extend(self.fb.codelets());
        codelet::dedup(v)
    }

    /// The codelets the transform actually runs, with their dispatch.
    /// On the batched column path the `F_a` side executes through the
    /// column ladder's vector stage kernels, not `fa` — report
    /// those radices (all AVX2+FMA by construction) so introspection
    /// matches the code that runs.
    pub fn codelet_dispatch(&self) -> Vec<(Codelet, Dispatch)> {
        let mut v: Vec<(Codelet, Dispatch)> = if let Some(col) = &self.col {
            col.radices()
                .map(|r| {
                    let c = match r {
                        2 => Codelet::Radix2,
                        4 => Codelet::Radix4,
                        5 => Codelet::Radix5,
                        8 => Codelet::Radix8,
                        r => Codelet::Generic(r),
                    };
                    (c, Dispatch::Avx2Fma)
                })
                .collect()
        } else {
            self.fa.codelet_dispatch()
        };
        v.extend(self.fb.codelet_dispatch());
        codelet::dedup_dispatch(v)
    }

    /// Scratch elements [`Self::execute_with_scratch`] needs: the size-`n`
    /// transpose buffer, the column-pass ping-pong tiles when that path is
    /// active, plus the worst-case inner row scratch. Exact — no internal
    /// allocation happens when this much is provided.
    pub fn scratch_len(&self) -> usize {
        self.n
            + self.col.as_ref().map_or(0, |c| 2 * c.tile_len())
            + self.fa.scratch_len().max(self.fb.scratch_len())
    }

    /// In-place unnormalized execute reusing caller scratch
    /// (`scratch.len() >= self.scratch_len()`); allocation-free.
    pub fn execute_with_scratch(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        let in_buf = self.run_steps(data, scratch, true);
        debug_assert!(in_buf, "want_buf must stage the F_b rows in scratch");
        let (buf, _) = scratch.split_at_mut(self.n);
        // Final step: transpose a×b → b×a lands y[k1 + a·k2] in natural
        // order, streaming buf→data — the F_b rows were transformed
        // out-of-place into `buf`, so no copy-back pass remains.
        self.transpose_pass(buf, data, self.a, self.b);
    }

    /// Blocked transpose through the SIMD kernel when active, the scalar
    /// block loop otherwise (identical element moves either way).
    fn transpose_pass(&self, src: &[Complex64], dst: &mut [Complex64], rows: usize, cols: usize) {
        #[cfg(target_arch = "x86_64")]
        if self.simd {
            // Safety: `simd` implies AVX2+FMA detected.
            unsafe { simd::avx2::transpose(src, dst, rows, cols) };
            return;
        }
        transpose_blocked(src, dst, rows, cols);
    }

    /// Transform `data` and write `out[k] = result[k]·weights[k]` for
    /// `k < out.len()`, fusing the weighted (projection + demodulation)
    /// write into the final transpose pass — the copy-back and the
    /// separate read-modify-write sweep both disappear, and output rows
    /// beyond `out.len()` are never materialized. `data` is clobbered.
    ///
    /// Each output element is the fully-formed transform value multiplied
    /// by its weight, so the result is bitwise identical to
    /// [`Self::execute_with_scratch`] followed by the multiply loop.
    pub fn execute_fused_into(
        &self,
        data: &mut [Complex64],
        scratch: &mut [Complex64],
        out: &mut [Complex64],
        weights: &[Complex64],
    ) {
        assert!(out.len() <= self.n, "fused output longer than transform");
        assert!(weights.len() >= out.len(), "fused weights too short");
        let in_buf = self.run_steps(data, scratch, false);
        let (buf, _) = scratch.split_at_mut(self.n);
        let src: &[Complex64] = if in_buf { buf } else { data };
        // Fused final step: blocked transpose of the a×b result directly
        // into the weighted output. src[k1·b + k2] = y[k1 + a·k2], so
        // output index k = k2·a + k1.
        let (a, b) = (self.a, self.b);
        let klim = out.len();
        #[cfg(target_arch = "x86_64")]
        if self.simd {
            // Safety: `simd` implies AVX2+FMA detected. The kernel's
            // weighted multiply uses the exact-rounding form, so the fused
            // result stays bitwise equal to unfused+multiply.
            unsafe { simd::avx2::weighted_transpose(src, weights, out, a, b) };
            return;
        }
        for r0 in (0..a).step_by(BLOCK) {
            let r1 = (r0 + BLOCK).min(a);
            for c0 in (0..b).step_by(BLOCK) {
                let c1 = (c0 + BLOCK).min(b);
                for k1 in r0..r1 {
                    for k2 in c0..c1 {
                        let k = k2 * a + k1;
                        if k < klim {
                            out[k] = src[k1 * b + k2] * weights[k];
                        }
                    }
                }
            }
        }
    }

    /// Steps 1–5. Returns `true` when the `a×b` row-major result
    /// (`rows[k1][k2] = y[k1 + a·k2]`) landed in `scratch[..n]`, `false`
    /// when it is in `data`. `want_buf` asks both paths to run the F_b
    /// rows out-of-place into `scratch[..n]` (free — the engines' row
    /// transforms write dst directly), so the caller's final transpose
    /// can stream buf→data with no copy-back pass; fused callers read
    /// the result wherever it lies, so they pass `false` and F_b runs in
    /// place. The choice only moves bytes — the computed values are
    /// bitwise identical.
    fn run_steps(&self, data: &mut [Complex64], scratch: &mut [Complex64], want_buf: bool) -> bool {
        assert_eq!(data.len(), self.n, "data length mismatch");
        assert!(
            scratch.len() >= self.scratch_len(),
            "four-step scratch too short: {} < {}",
            scratch.len(),
            self.scratch_len()
        );
        let (a, b) = (self.a, self.b);
        if let Some(col) = &self.col {
            // Batched column path: steps 1–4 collapse into one in-place
            // sweep — each block of `w` columns is DFT'd through
            // cache-resident tiles and scattered back with the inter-step
            // twiddle fused into the store. No transpose materializes.
            let (buf, rest) = scratch.split_at_mut(self.n);
            let (tiles, inner) = rest.split_at_mut(2 * col.tile_len());
            let w = col.width();
            let mut c0 = 0;
            while c0 < b {
                col.run_block(data, b, c0, &self.tw, tiles);
                c0 += w;
            }
            // Step 5: a rows of F_b. When the caller wants the result in
            // `buf`, run each row transform out-of-place data→buf so the
            // caller's final transpose streams buf→data with no copy-back
            // and no staging copy either; otherwise transform in place.
            if want_buf {
                for k1 in 0..a {
                    self.fb.process_with_scratch(
                        &data[k1 * b..(k1 + 1) * b],
                        &mut buf[k1 * b..(k1 + 1) * b],
                        inner,
                    );
                }
                return true;
            }
            for k1 in 0..a {
                self.fb
                    .execute_with_scratch(&mut data[k1 * b..(k1 + 1) * b], inner);
            }
            return false;
        }
        let (buf, inner) = scratch.split_at_mut(self.n);
        // Step 1: transpose the a×b input to b×a so each length-a column
        // subsequence becomes a contiguous row.
        self.transpose_pass(data, buf, a, b);
        // Step 2: b rows of F_a.
        for j2 in 0..b {
            self.fa
                .execute_with_scratch(&mut buf[j2 * a..(j2 + 1) * a], inner);
        }
        // Steps 3+4 fused: twiddle by ω_n^{j2·k1} while transposing back
        // to a×b, so the scaling rides the pass that had to happen anyway.
        self.twiddle_pass(buf, data);
        // Step 5: a rows of F_b; row k1 becomes y[k1 + a·k2] over k2.
        // `buf` is dead after the twiddle pass, so when the caller wants
        // the rows there, F_b runs out-of-place data→buf and the final
        // transpose streams buf→data — the full-array copy-back this path
        // used to need is gone.
        if want_buf {
            for k1 in 0..a {
                self.fb.process_with_scratch(
                    &data[k1 * b..(k1 + 1) * b],
                    &mut buf[k1 * b..(k1 + 1) * b],
                    inner,
                );
            }
            return true;
        }
        for k1 in 0..a {
            self.fb
                .execute_with_scratch(&mut data[k1 * b..(k1 + 1) * b], inner);
        }
        false
    }

    /// Fused steps 3+4: `data[k1·b + j2] = buf[j2·a + k1] · tw[j2·a + k1]`.
    fn twiddle_pass(&self, buf: &[Complex64], data: &mut [Complex64]) {
        let (a, b) = (self.a, self.b);
        #[cfg(target_arch = "x86_64")]
        if self.simd {
            // Safety: `simd` implies AVX2+FMA detected.
            unsafe { simd::avx2::twiddle_transpose(buf, &self.tw, data, a, b) };
            return;
        }
        for c0 in (0..a).step_by(BLOCK) {
            let c1 = (c0 + BLOCK).min(a);
            for r0 in (0..b).step_by(BLOCK) {
                let r1 = (r0 + BLOCK).min(b);
                for j2 in r0..r1 {
                    for k1 in c0..c1 {
                        data[k1 * b + j2] = buf[j2 * a + k1] * self.tw[j2 * a + k1];
                    }
                }
            }
        }
    }

    /// In-place unnormalized execute, allocating scratch internally.
    pub fn execute(&self, data: &mut [Complex64]) {
        let mut scratch = AlignedBuf::zeroed(self.scratch_len());
        self.execute_with_scratch(data, &mut scratch);
    }
}

/// Blocked out-of-place transpose: `src` viewed `rows×cols` row-major,
/// `dst` receives the `cols×rows` transpose. (Local copy of
/// `permute::transpose` specialized to this module so the inner loops
/// stay monomorphized next to their callers.)
fn transpose_blocked<T: Copy>(src: &[T], dst: &mut [T], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for r0 in (0..rows).step_by(BLOCK) {
        let r1 = (r0 + BLOCK).min(rows);
        for c0 in (0..cols).step_by(BLOCK) {
            let c1 = (c0 + BLOCK).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_naive_signed;
    use soi_num::{c64, complex::max_abs_diff, Complex64};

    fn test_signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * 0.37).sin() + 0.1, (i as f64 * 1.1).cos() - 0.4))
            .collect()
    }

    #[test]
    fn split_is_largest_divisor_below_sqrt() {
        assert_eq!(split(1024), 32);
        assert_eq!(split(2048), 32); // 32·64
        assert_eq!(split(160), 10); // 10·16
        assert_eq!(split(163840), 320); // 320·512, the μ/ν = 5/4 M' shape
        assert_eq!(split(97), 1); // prime: no split
    }

    #[test]
    fn matches_naive_dft_both_directions() {
        for n in [16usize, 36, 160, 320, 1024, 2560] {
            let x = test_signal(n);
            for sign in [Sign::Forward, Sign::Inverse] {
                let want = dft_naive_signed(&x, sign);
                let plan = FourStepFft::new(n, sign);
                let mut got = x.clone();
                plan.execute(&mut got);
                let err = max_abs_diff(&got, &want);
                assert!(err < 1e-9 * n as f64, "n={n} sign={sign:?} err={err}");
            }
        }
    }

    #[test]
    fn matches_stockham_and_mixed_engines_exactly_sized_scratch() {
        for n in [4096usize, 40960] {
            let x = test_signal(n);
            let plan = FourStepFft::new(n, Sign::Forward);
            let mut got = x.clone();
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.execute_with_scratch(&mut got, &mut scratch);
            let mut want = x.clone();
            RawFft::new(n, Sign::Forward).execute(&mut want);
            assert!(
                max_abs_diff(&got, &want) < 1e-10 * n as f64,
                "n={n} vs direct engine"
            );
        }
    }

    #[test]
    fn fused_is_bitwise_equal_to_unfused_then_multiply() {
        let n = 2560; // non-pow2: mixed inner engines
        let x = test_signal(n);
        let weights: Vec<Complex64> = (0..n)
            .map(|i| c64((i as f64 * 0.13).cos(), (i as f64 * 0.17).sin()))
            .collect();
        let plan = FourStepFft::new(n, Sign::Forward);
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];

        let mut ref_data = x.clone();
        plan.execute_with_scratch(&mut ref_data, &mut scratch);
        // Project to a shorter output, as the SOI pipeline does (M < M').
        let out_len = n * 4 / 5;
        let want: Vec<Complex64> = (0..out_len).map(|k| ref_data[k] * weights[k]).collect();

        let mut data = x.clone();
        let mut out = vec![Complex64::ZERO; out_len];
        plan.execute_fused_into(&mut data, &mut scratch, &mut out, &weights);
        for k in 0..out_len {
            assert!(
                out[k].re == want[k].re && out[k].im == want[k].im,
                "bin {k} not bitwise equal"
            );
        }
    }

    #[test]
    fn codelets_report_inner_engines() {
        // 163840 = 320·512: Stockham pow2 side + mixed side with a
        // radix-5 level; the generic butterfly must not appear.
        let plan = FourStepFft::new(163840, Sign::Forward);
        let cods = plan.codelets();
        assert!(cods.contains(&Codelet::Radix5), "{cods:?}");
        assert!(cods.iter().all(|c| !c.is_generic()), "{cods:?}");
    }

    #[test]
    #[should_panic(expected = "composite")]
    fn rejects_prime_sizes() {
        let _ = FourStepFft::new(97, Sign::Forward);
    }
}
