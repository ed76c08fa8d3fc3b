//! Self-sorting Stockham FFT for power-of-two sizes.
//!
//! Decimation-in-frequency with radix-8 stages where the exponent allows
//! (radix-4/radix-2 cleanup for the remainder), so large sizes run fewer,
//! wider passes — each stage is a full streaming pass over the array, and
//! a radix-8 stage does the work of three radix-2 passes in one trip
//! through memory. Stockham's autosort formulation needs no bit-reversal
//! pass: each stage reads one buffer with stride `s` and writes the other
//! with the outputs of a butterfly adjacent, so every pass is a unit-stride
//! streaming pass — the property that makes it the engine of choice for the
//! node-local FFTs in Fig 2 of the paper.

use crate::codelet::{self, Codelet, Dispatch};
use crate::simd;
use crate::twiddle::{Sign, StageTwiddles};
use soi_num::{AlignedBuf, Complex64};

/// Split/dup twiddle streams for the SIMD first stage (`s == 1`,
/// radix 8), where the twiddle varies along the vectorized `p` axis:
/// `re[(c−1)·2m + 2p]` holds `tw[p·7 + (c−1)].re` duplicated ×2, so one
/// 256-bit load yields the operand for a `[p, p+1]` pair.
#[derive(Debug, Clone)]
struct StockhamSimd {
    first_re: AlignedBuf<f64>,
    first_im: AlignedBuf<f64>,
    /// Radix-5 butterfly constants `(Re ω₅, Re ω₅², Im ω₅, Im ω₅²)`,
    /// direction-signed — used by the smooth-ladder stages (see
    /// [`StockhamFft::for_smooth`]); zero-cost to carry for pure pow2.
    r5: (f64, f64, f64, f64),
}

/// A prepared power-of-two Stockham transform.
#[derive(Debug, Clone)]
pub struct StockhamFft {
    n: usize,
    sign: Sign,
    stages: Vec<StageTwiddles>,
    simd: Option<StockhamSimd>,
}

impl StockhamFft {
    /// Plan a transform of power-of-two size `n`, with SIMD dispatch
    /// decided by [`simd::enabled`] (CPU features minus `SOI_NO_SIMD`).
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is zero.
    pub fn new(n: usize, sign: Sign) -> Self {
        Self::with_simd(n, sign, simd::enabled())
    }

    /// Plan with an explicit SIMD request. `want` is intersected with
    /// what the host supports (AVX2+FMA, `n ≥ 16` so the first stage is
    /// a full radix-8 pass); it deliberately ignores the `SOI_NO_SIMD`
    /// env so property tests can pit both paths against each other in
    /// one process.
    pub fn with_simd(n: usize, sign: Sign, want: bool) -> Self {
        assert!(n.is_power_of_two() && n > 0, "Stockham requires a power of two, got {n}");
        let mut radices = Vec::new();
        let mut cur = n;
        while cur > 1 {
            let r = if cur % 8 == 0 {
                8
            } else if cur % 4 == 0 {
                4
            } else {
                2
            };
            radices.push(r);
            cur /= r;
        }
        Self::from_radices(n, sign, &radices, want)
    }

    /// Plan a SIMD smooth ladder for `n = 2^k · 5^j` (`j ≥ 1`,
    /// `n % 16 == 0`): the pow2 stages run first (radix 8 leading, so the
    /// vectorized first-stage kernel applies and every later stage
    /// streams an even `s`), the radix-5 stages close. Returns `None`
    /// when the shape doesn't fit or the host can't run the vector
    /// kernels — callers (the mixed-radix engine) fall back to their own
    /// path. Stockham's streaming structure beats the mixed-radix
    /// recursion by ~2–3× at these sizes, which is the whole point.
    pub(crate) fn for_smooth(n: usize, sign: Sign, want: bool) -> Option<Self> {
        if !(want && simd::cpu_supported()) {
            return None;
        }
        let mut pow2 = n;
        let mut fives = 0usize;
        while pow2 % 5 == 0 {
            pow2 /= 5;
            fives += 1;
        }
        // n % 16 == 0 makes the leading radix-8 stage's m = n/8 even (the
        // vectorized first-stage kernel pairs p's), and pow2 ≥ 16 keeps
        // the greedy pow2 schedule non-empty after the leading 8.
        if fives == 0 || !pow2.is_power_of_two() || n % 16 != 0 {
            return None;
        }
        let mut radices = vec![8usize];
        let mut rest = pow2 / 8;
        while rest > 1 {
            let r = if rest % 8 == 0 {
                8
            } else if rest % 4 == 0 {
                4
            } else {
                2
            };
            radices.push(r);
            rest /= r;
        }
        radices.extend(std::iter::repeat(5).take(fives));
        Some(Self::from_radices(n, sign, &radices, true))
    }

    /// Shared constructor: build the stage tables for an explicit radix
    /// schedule and decide SIMD dispatch. `want` is intersected with what
    /// the host supports (AVX2+FMA, a leading radix-8 stage with even
    /// `m` so the vector kernels cover every stage with no tails); it
    /// deliberately ignores the `SOI_NO_SIMD` env so property tests can
    /// pit both paths against each other in one process.
    fn from_radices(n: usize, sign: Sign, radices: &[usize], want: bool) -> Self {
        let mut stages = Vec::new();
        let mut cur = n;
        for &r in radices {
            stages.push(StageTwiddles::new(cur, r, sign));
            cur /= r;
        }
        debug_assert_eq!(cur, 1, "radix schedule must exhaust n");
        let simd_ok = want
            && simd::cpu_supported()
            && stages.first().map_or(false, |st| st.radix == 8 && st.m % 2 == 0);
        let simd = if simd_ok {
            let st0 = &stages[0];
            let m = st0.m;
            // Aligned streams: the kernel reads these 4 f64 (32 bytes)
            // at a time, and a mmap-served Vec would straddle lines.
            let mut first_re = AlignedBuf::<f64>::zeroed(7 * 2 * m);
            let mut first_im = AlignedBuf::<f64>::zeroed(7 * 2 * m);
            for c in 0..7 {
                for p in 0..m {
                    let w = st0.tw[p * 7 + c];
                    first_re[c * 2 * m + 2 * p] = w.re;
                    first_re[c * 2 * m + 2 * p + 1] = w.re;
                    first_im[c * 2 * m + 2 * p] = w.im;
                    first_im[c * 2 * m + 2 * p + 1] = w.im;
                }
            }
            let w1 = sign.root(1, 5);
            let w2 = sign.root(2, 5);
            Some(StockhamSimd {
                first_re,
                first_im,
                r5: (w1.re, w2.re, w1.im, w2.im),
            })
        } else {
            None
        };
        Self { n, sign, stages, simd }
    }

    /// The butterfly codelets this plan's stages dispatch to.
    pub fn codelets(&self) -> Vec<Codelet> {
        codelet::dedup(self.stage_codelets())
    }

    /// Per-stage codelets with the active dispatch. Every stage shares
    /// one dispatch: when the SIMD streams were built, every stage runs
    /// a vector kernel; otherwise all are portable.
    pub fn codelet_dispatch(&self) -> Vec<(Codelet, Dispatch)> {
        let d = self.dispatch();
        codelet::dedup_dispatch(self.stage_codelets().into_iter().map(|c| (c, d)).collect())
    }

    /// The dispatch this plan executes with.
    pub fn dispatch(&self) -> Dispatch {
        if self.simd.is_some() {
            Dispatch::Avx2Fma
        } else {
            Dispatch::Portable
        }
    }

    fn stage_codelets(&self) -> Vec<Codelet> {
        self.stages
            .iter()
            .map(|st| match st.radix {
                2 => Codelet::Radix2,
                4 => Codelet::Radix4,
                5 => Codelet::Radix5,
                8 => Codelet::Radix8,
                r => Codelet::Generic(r),
            })
            .collect()
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate size-1 transform.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Direction.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// Execute on `data` using caller-provided scratch of the same length.
    ///
    /// The result always ends up back in `data`; `scratch` contents are
    /// clobbered.
    pub fn execute_with_scratch(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        if self.run_stages(data, scratch) {
            return;
        }
        data.copy_from_slice(scratch);
    }

    /// Run every stage; returns `true` when the live result ended up in
    /// `data`, `false` when it is in `scratch` (odd stage count).
    fn run_stages(&self, data: &mut [Complex64], scratch: &mut [Complex64]) -> bool {
        assert_eq!(data.len(), self.n, "data length mismatch");
        assert_eq!(scratch.len(), self.n, "scratch length mismatch");
        if self.n == 1 {
            return true;
        }
        let mut s = 1usize; // stream count (number of interleaved sub-vectors)
        let mut in_data = true; // which buffer currently holds the live values
        for i in 0..self.stages.len() {
            if in_data {
                self.stage_into(i, s, data, scratch);
            } else {
                self.stage_into(i, s, scratch, data);
            }
            s *= self.stages[i].radix;
            in_data = !in_data;
        }
        in_data
    }

    /// Run stage `i` (stream count `s`) from `src` into `dst`, routed to
    /// the AVX2+FMA kernel when the constructor built the streams (so
    /// AVX2+FMA is present and the leading radix-8 stage has even `m`).
    fn stage_into(&self, i: usize, s: usize, src: &[Complex64], dst: &mut [Complex64]) {
        let st = &self.stages[i];
        #[cfg(target_arch = "x86_64")]
        if let Some(sd) = &self.simd {
            let tw = &st.tw;
            let forward = self.sign == Sign::Forward;
            let (c1, c2, s1, s2) = sd.r5;
            // Safety: constructor checked AVX2+FMA; stage geometry (even
            // m for stage 0, even s ≥ 8 afterwards) is guaranteed by both
            // the pow2 and the smooth-ladder schedules.
            unsafe {
                if i == 0 {
                    simd::avx2::stockham_first8(src, dst, &sd.first_re, &sd.first_im, st.m, forward);
                } else {
                    match st.radix {
                        2 => simd::avx2::stockham_q2(src, dst, tw, st.m, s, s),
                        4 => simd::avx2::stockham_q4(src, dst, tw, st.m, s, s, forward),
                        5 => simd::avx2::stockham_q5(src, dst, tw, st.m, s, s, c1, c2, s1, s2),
                        8 => simd::avx2::stockham_q8(src, dst, tw, st.m, s, s, forward),
                        r => unreachable!("unsupported Stockham radix {r}"),
                    }
                }
            }
            return;
        }
        match st.radix {
            2 => stage_radix2(src, dst, st, s),
            4 => stage_radix4(src, dst, st, s, self.sign),
            5 => stage_radix5(src, dst, st, s, self.sign),
            8 => stage_radix8(src, dst, st, s, self.sign),
            r => unreachable!("unsupported Stockham radix {r}"),
        }
    }

    /// Out-of-place execute: transform `src` into `dst` without touching
    /// `src` (`scratch.len() ≥ n`). Runs the exact same stage kernels in
    /// the same order as [`Self::execute_with_scratch`] — only the buffer
    /// schedule differs (the first stage targets whichever of `dst`/
    /// `scratch` makes the remaining ping-pong land in `dst`) — so the
    /// result is bitwise identical to the in-place path. This is the seam
    /// the four-step uses to land `F_b` rows directly in the transpose
    /// buffer instead of copying them there afterwards.
    pub fn process_with_scratch(
        &self,
        src: &[Complex64],
        dst: &mut [Complex64],
        scratch: &mut [Complex64],
    ) {
        assert_eq!(src.len(), self.n, "src length mismatch");
        assert_eq!(dst.len(), self.n, "dst length mismatch");
        assert!(scratch.len() >= self.n, "scratch too short");
        let nst = self.stages.len();
        if nst == 0 {
            dst.copy_from_slice(src);
            return;
        }
        let scratch = &mut scratch[..self.n];
        let mut s = 1usize;
        for i in 0..nst {
            // Stage i writes dst when the remaining stage count is odd,
            // so stage nst−1 always writes dst.
            let to_dst = (nst - i) % 2 == 1;
            match (i == 0, to_dst) {
                (true, true) => self.stage_into(0, s, src, dst),
                (true, false) => self.stage_into(0, s, src, scratch),
                (false, true) => self.stage_into(i, s, scratch, dst),
                (false, false) => self.stage_into(i, s, dst, scratch),
            }
            s *= self.stages[i].radix;
        }
    }

    /// Transform `data` and write `out[k] = result[k]·weights[k]` for
    /// `k < out.len()` — the projection + demodulation fusion of the SOI
    /// pipeline. The weighted write reads the result straight out of
    /// whichever ping-pong buffer the last stage produced, so the final
    /// copy-back pass of [`Self::execute_with_scratch`] is skipped
    /// entirely. `data` is clobbered (its contents after the call are one
    /// of the intermediate stages).
    ///
    /// Per-element arithmetic is identical to `execute_with_scratch`
    /// followed by the multiply, so the fused result is bitwise equal to
    /// the unfused one.
    pub fn execute_fused_into(
        &self,
        data: &mut [Complex64],
        scratch: &mut [Complex64],
        out: &mut [Complex64],
        weights: &[Complex64],
    ) {
        assert!(out.len() <= self.n, "fused output longer than transform");
        assert!(weights.len() >= out.len(), "fused weights too short");
        let res_in_data = self.run_stages(data, scratch);
        let res: &[Complex64] = if res_in_data { data } else { scratch };
        // Bitwise identical to the scalar multiply loop on every path
        // (see `simd::weighted_product`), preserving the fused==unfused
        // bitwise contract with SIMD active.
        simd::weighted_product(out, res, weights);
    }

    /// Execute in place, allocating scratch internally.
    pub fn execute(&self, data: &mut [Complex64]) {
        let mut scratch = AlignedBuf::zeroed(self.n);
        self.execute_with_scratch(data, &mut scratch);
    }
}

/// One radix-2 DIF Stockham stage: `n_cur = 2m` logical points in `s`
/// interleaved streams.
fn stage_radix2(x: &[Complex64], y: &mut [Complex64], st: &StageTwiddles, s: usize) {
    let m = st.m;
    for p in 0..m {
        let wp = st.tw[p];
        let xa = &x[s * p..s * p + s];
        let xb = &x[s * (p + m)..s * (p + m) + s];
        // Split dst into the two output runs for this p.
        for q in 0..s {
            let a = xa[q];
            let b = xb[q];
            y[q + s * (2 * p)] = a + b;
            y[q + s * (2 * p + 1)] = (a - b) * wp;
        }
    }
}

/// One radix-4 DIF Stockham stage.
fn stage_radix4(x: &[Complex64], y: &mut [Complex64], st: &StageTwiddles, s: usize, sign: Sign) {
    let m = st.m;
    let forward = sign == Sign::Forward;
    for p in 0..m {
        let w1 = st.tw[p * 3];
        let w2 = st.tw[p * 3 + 1];
        let w3 = st.tw[p * 3 + 2];
        for q in 0..s {
            let a = x[q + s * p];
            let b = x[q + s * (p + m)];
            let c = x[q + s * (p + 2 * m)];
            let d = x[q + s * (p + 3 * m)];
            let apc = a + c;
            let amc = a - c;
            let bpd = b + d;
            // ω_4 = −i forward, +i inverse; jbmd = ω_4·(b−d) up to sign
            // convention folded into the +/− below (OTFFT layout).
            let jbmd = if forward {
                (b - d).mul_i()
            } else {
                (b - d).mul_neg_i()
            };
            y[q + s * (4 * p)] = apc + bpd;
            y[q + s * (4 * p + 1)] = (amc - jbmd) * w1;
            y[q + s * (4 * p + 2)] = (apc - bpd) * w2;
            y[q + s * (4 * p + 3)] = (amc + jbmd) * w3;
        }
    }
}

/// One radix-5 DIF Stockham stage (smooth-ladder closer; mirrors the
/// real-symmetric half-complexity factorization of `stockham_q5`).
fn stage_radix5(x: &[Complex64], y: &mut [Complex64], st: &StageTwiddles, s: usize, sign: Sign) {
    let m = st.m;
    let w1 = sign.root(1, 5);
    let w2 = sign.root(2, 5);
    let (c1, c2, s1, s2) = (w1.re, w2.re, w1.im, w2.im);
    for p in 0..m {
        let tw = &st.tw[p * 4..p * 4 + 4];
        for q in 0..s {
            let a = x[q + s * p];
            let b = x[q + s * (p + m)];
            let c = x[q + s * (p + 2 * m)];
            let d = x[q + s * (p + 3 * m)];
            let e = x[q + s * (p + 4 * m)];
            let t1 = b + e;
            let t2 = c + d;
            let t3 = b - e;
            let t4 = c - d;
            let m1 = a + t1.scale(c1) + t2.scale(c2);
            let m2 = a + t1.scale(c2) + t2.scale(c1);
            let v1 = (t3.scale(s1) + t4.scale(s2)).mul_i();
            let v2 = (t3.scale(s2) - t4.scale(s1)).mul_i();
            y[q + s * (5 * p)] = a + t1 + t2;
            y[q + s * (5 * p + 1)] = (m1 + v1) * tw[0];
            y[q + s * (5 * p + 2)] = (m2 + v2) * tw[1];
            y[q + s * (5 * p + 3)] = (m2 - v2) * tw[2];
            y[q + s * (5 * p + 4)] = (m1 - v1) * tw[3];
        }
    }
}

/// One radix-8 DIF Stockham stage: three radix-2 passes' worth of work in
/// a single trip through memory. The split is the classical
/// even/odd-of-4 DIF: sums `s_t = a_t + a_{t+4}` feed a radix-4 butterfly
/// producing the even outputs, differences `d_t = a_t − a_{t+4}` are
/// rotated by the fixed eighth roots `ω_8^t` (costing only two √2/2
/// scalings and two axis flips) and feed a second radix-4 butterfly for
/// the odd outputs.
fn stage_radix8(x: &[Complex64], y: &mut [Complex64], st: &StageTwiddles, s: usize, sign: Sign) {
    let m = st.m;
    let forward = sign == Sign::Forward;
    // 1/√2 = cos(π/4): the real (and |imag|) part of ω_8.
    let r = 0.5f64.sqrt();
    // Four-point DIF butterfly shared by the even and odd halves;
    // mirrors stage_radix4's arithmetic exactly.
    let dft4 = |a: Complex64, b: Complex64, c: Complex64, d: Complex64| {
        let apc = a + c;
        let amc = a - c;
        let bpd = b + d;
        let jbmd = if forward {
            (b - d).mul_i()
        } else {
            (b - d).mul_neg_i()
        };
        (apc + bpd, amc - jbmd, apc - bpd, amc + jbmd)
    };
    for p in 0..m {
        let tw = &st.tw[p * 7..p * 7 + 7];
        for q in 0..s {
            let a0 = x[q + s * p];
            let a1 = x[q + s * (p + m)];
            let a2 = x[q + s * (p + 2 * m)];
            let a3 = x[q + s * (p + 3 * m)];
            let a4 = x[q + s * (p + 4 * m)];
            let a5 = x[q + s * (p + 5 * m)];
            let a6 = x[q + s * (p + 6 * m)];
            let a7 = x[q + s * (p + 7 * m)];
            let s0 = a0 + a4;
            let s1 = a1 + a5;
            let s2 = a2 + a6;
            let s3 = a3 + a7;
            let d0 = a0 - a4;
            let d1 = a1 - a5;
            let d2 = a2 - a6;
            let d3 = a3 - a7;
            let (e0, e1, e2, e3) = dft4(s0, s1, s2, s3);
            // Rotate the difference half by ω_8^t before its radix-4
            // combine; forward ω_8 = (1−i)/√2, inverse conjugated.
            let (t1, t2, t3) = if forward {
                (
                    (d1 + d1.mul_neg_i()).scale(r),
                    d2.mul_neg_i(),
                    (d3.mul_neg_i() - d3).scale(r),
                )
            } else {
                (
                    (d1 + d1.mul_i()).scale(r),
                    d2.mul_i(),
                    (d3.mul_i() - d3).scale(r),
                )
            };
            let (o0, o1, o2, o3) = dft4(d0, t1, t2, t3);
            y[q + s * (8 * p)] = e0;
            y[q + s * (8 * p + 1)] = o0 * tw[0];
            y[q + s * (8 * p + 2)] = e1 * tw[1];
            y[q + s * (8 * p + 3)] = o1 * tw[2];
            y[q + s * (8 * p + 4)] = e2 * tw[3];
            y[q + s * (8 * p + 5)] = o2 * tw[4];
            y[q + s * (8 * p + 6)] = e3 * tw[5];
            y[q + s * (8 * p + 7)] = o3 * tw[6];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft_naive, dft_naive_signed};
    use soi_num::{c64, complex::max_abs_diff, Complex64};

    fn test_signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * 0.7).sin() + 0.1, (i as f64 * 1.3).cos() - 0.2))
            .collect()
    }

    #[test]
    fn matches_naive_dft_all_pow2_sizes() {
        for lg in 0..=10 {
            let n = 1usize << lg;
            let x = test_signal(n);
            let want = dft_naive(&x);
            let plan = StockhamFft::new(n, Sign::Forward);
            let mut got = x.clone();
            plan.execute(&mut got);
            let err = max_abs_diff(&got, &want);
            assert!(err < 1e-9 * (n as f64), "n={n} err={err}");
        }
    }

    #[test]
    fn inverse_matches_naive() {
        for lg in [1, 3, 5, 8] {
            let n = 1usize << lg;
            let x = test_signal(n);
            let want = dft_naive_signed(&x, Sign::Inverse);
            let plan = StockhamFft::new(n, Sign::Inverse);
            let mut got = x.clone();
            plan.execute(&mut got);
            assert!(max_abs_diff(&got, &want) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn forward_then_inverse_is_identity_scaled() {
        let n = 256;
        let x = test_signal(n);
        let fwd = StockhamFft::new(n, Sign::Forward);
        let inv = StockhamFft::new(n, Sign::Inverse);
        let mut buf = x.clone();
        fwd.execute(&mut buf);
        inv.execute(&mut buf);
        let scaled: Vec<Complex64> = buf.iter().map(|&v| v / n as f64).collect();
        assert!(max_abs_diff(&scaled, &x) < 1e-12);
    }

    #[test]
    fn size_one_is_identity() {
        let plan = StockhamFft::new(1, Sign::Forward);
        let mut data = vec![c64(2.5, -1.5)];
        plan.execute(&mut data);
        assert_eq!(data[0], c64(2.5, -1.5));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        let _ = StockhamFft::new(12, Sign::Forward);
    }

    #[test]
    fn stage_selection_prefers_radix8() {
        use crate::codelet::Codelet;
        // 512 = 8³: pure radix-8 ladder.
        assert_eq!(
            StockhamFft::new(512, Sign::Forward).codelets(),
            vec![Codelet::Radix8]
        );
        // 256 = 8·8·4 and 1024 = 8·8·8·2: radix-8 stages plus one closer.
        assert_eq!(
            StockhamFft::new(256, Sign::Forward).codelets(),
            vec![Codelet::Radix4, Codelet::Radix8]
        );
        assert_eq!(
            StockhamFft::new(1024, Sign::Forward).codelets(),
            vec![Codelet::Radix2, Codelet::Radix8]
        );
        // Tiny sizes that never fit a radix-8 stage.
        assert_eq!(
            StockhamFft::new(4, Sign::Forward).codelets(),
            vec![Codelet::Radix4]
        );
        assert_eq!(
            StockhamFft::new(2, Sign::Forward).codelets(),
            vec![Codelet::Radix2]
        );
    }

    #[test]
    fn radix8_sizes_match_naive_both_directions() {
        // Sizes whose first stage is the radix-8 kernel, both signs
        // (the all-pow2 sweep above covers forward only up to 1024).
        for n in [8usize, 64, 512, 2048] {
            let x = test_signal(n);
            for sign in [Sign::Forward, Sign::Inverse] {
                let want = dft_naive_signed(&x, sign);
                let plan = StockhamFft::new(n, sign);
                let mut got = x.clone();
                plan.execute(&mut got);
                let err = max_abs_diff(&got, &want);
                assert!(err < 1e-9 * n as f64, "n={n} sign={sign:?} err={err}");
            }
        }
    }

    #[test]
    fn fused_output_is_bitwise_equal_to_unfused_then_multiply() {
        let n = 1024;
        let m = 600; // projection keeps fewer bins than the transform
        let x = test_signal(n);
        let weights: Vec<Complex64> = (0..m)
            .map(|k| c64((k as f64 * 0.13).cos() + 1.5, (k as f64 * 0.37).sin()))
            .collect();
        let plan = StockhamFft::new(n, Sign::Forward);
        let mut d1 = x.clone();
        let mut s1 = vec![Complex64::ZERO; n];
        plan.execute_with_scratch(&mut d1, &mut s1);
        let want: Vec<Complex64> = (0..m).map(|k| d1[k] * weights[k]).collect();
        let mut d2 = x.clone();
        let mut s2 = vec![Complex64::ZERO; n];
        let mut out = vec![Complex64::ZERO; m];
        plan.execute_fused_into(&mut d2, &mut s2, &mut out, &weights);
        for (k, (a, b)) in out.iter().zip(&want).enumerate() {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "bin {k}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "bin {k}");
        }
    }

    #[test]
    fn process_with_scratch_is_bitwise_the_in_place_execute() {
        for n in [1usize, 2, 8, 16, 256, 2048] {
            let x = test_signal(n);
            for sign in [Sign::Forward, Sign::Inverse] {
                let plan = StockhamFft::new(n, sign);
                let mut want = x.clone();
                let mut s1 = vec![Complex64::ZERO; n];
                plan.execute_with_scratch(&mut want, &mut s1);
                let mut got = vec![Complex64::ZERO; n];
                let mut s2 = vec![Complex64::ZERO; n];
                plan.process_with_scratch(&x, &mut got, &mut s2);
                for k in 0..n {
                    assert_eq!(got[k].re.to_bits(), want[k].re.to_bits(), "n={n} k={k}");
                    assert_eq!(got[k].im.to_bits(), want[k].im.to_bits(), "n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn smooth_ladder_matches_naive_dft() {
        if !simd::cpu_supported() {
            assert!(StockhamFft::for_smooth(80, Sign::Forward, true).is_none());
            return;
        }
        for n in [80usize, 400, 640, 1280, 2560] {
            for sign in [Sign::Forward, Sign::Inverse] {
                let plan = StockhamFft::for_smooth(n, sign, true)
                    .unwrap_or_else(|| panic!("no ladder for {n}"));
                let x = test_signal(n);
                let want = dft_naive_signed(&x, sign);
                let mut got = x.clone();
                plan.execute(&mut got);
                let err = max_abs_diff(&got, &want);
                assert!(err < 1e-9 * n as f64, "n={n} sign={sign:?} err={err}");
                // Out-of-place path agrees bitwise with in-place.
                let mut oop = vec![Complex64::ZERO; n];
                let mut sc = vec![Complex64::ZERO; n];
                plan.process_with_scratch(&x, &mut oop, &mut sc);
                for k in 0..n {
                    assert_eq!(oop[k].re.to_bits(), got[k].re.to_bits(), "n={n} k={k}");
                    assert_eq!(oop[k].im.to_bits(), got[k].im.to_bits(), "n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn smooth_ladder_rejects_unsupported_shapes() {
        // No factor of 5, not 16-divisible, or a non-5-smooth cofactor.
        for n in [64usize, 20, 40, 280, 48] {
            assert!(
                StockhamFft::for_smooth(n, Sign::Forward, true).is_none(),
                "n={n} should have no ladder"
            );
        }
    }

    #[test]
    fn smooth_ladder_reports_radix5_codelet() {
        if !simd::cpu_supported() {
            return;
        }
        let plan = StockhamFft::for_smooth(1280, Sign::Forward, true).unwrap();
        let cs = plan.codelets();
        assert!(cs.contains(&Codelet::Radix5), "{cs:?}");
        assert!(cs.iter().all(|c| !c.is_generic()), "{cs:?}");
        assert_eq!(plan.dispatch(), Dispatch::Avx2Fma);
    }

    #[test]
    fn parseval_large() {
        let n = 4096;
        let x = test_signal(n);
        let plan = StockhamFft::new(n, Sign::Forward);
        let mut y = x.clone();
        plan.execute(&mut y);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum();
        assert!((ey - n as f64 * ex).abs() < 1e-9 * ey);
    }
}
