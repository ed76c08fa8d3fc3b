//! Batched column DFTs for the four-step engine's SIMD fast path.
//!
//! The four-step decomposition needs `b` independent `a`-point DFTs down
//! the *columns* of the row-major `a×b` matrix. The classic formulation
//! materializes the columns with a full transpose pass; this module
//! removes that pass entirely by exploiting an identity of the Stockham
//! layout: a size-`a` Stockham ladder applied to `w` interleaved streams
//! is *the same kernel sequence* with every stride multiplied by `w`.
//! So a block of `w` adjacent columns — whose elements sit at
//! `data[i·b + c0 + q]`, i.e. contiguous `w`-runs per row — feeds the
//! ordinary stage kernels directly: the first stage reads the matrix
//! strided (`xld = b`), later stages ping-pong through two packed
//! `a·w` tiles that stay cache-resident, and the finished tile is
//! scattered back through [`crate::simd::avx2::twiddle_rows`] with the
//! four-step twiddle multiply fused into the store. Net memory traffic
//! for transpose + `F_a` rows + twiddle: one read and one write of the
//! matrix.
//!
//! Supported sizes are `a = 5^j·2^k` (radix-5 stages first, then the
//! 8/4/2 ladder) — exactly the splits the planner produces for the
//! paper's smooth `M' = 5·2^k` production sizes. Other factors fall
//! back to the transpose-based path in [`crate::fourstep`].

use crate::twiddle::{Sign, StageTwiddles};
use soi_num::Complex64;

/// Tile budget in complex elements (`a·w ≤ TILE_ELEMS`): two ping-pong
/// tiles of 2048 elements are 64 KiB — inside L2 with room for the
/// streamed rows, and small enough that stage passes stay cache-hot.
const TILE_ELEMS: usize = 2048;

/// A prepared batched column transform of size `a` over `w` streams.
///
/// Construction is host-gated by the caller (only built when the
/// four-step engine decided on SIMD dispatch), so `run_block` may assume
/// AVX2+FMA.
#[derive(Debug, Clone)]
pub(crate) struct ColumnFft {
    a: usize,
    w: usize,
    stages: Vec<StageTwiddles>,
    /// Radix-5 butterfly constants `(Re ω₅, Re ω₅², Im ω₅, Im ω₅²)`,
    /// direction-signed (also the direction oracle for the pow2 stages).
    r5: (f64, f64, f64, f64),
}

impl ColumnFft {
    /// `true` when `a` factors as `5^j·2^k` with `a ≥ 2` — the radix set
    /// the batched stage kernels cover.
    pub(crate) fn supports(a: usize) -> bool {
        let mut m = a;
        while m % 5 == 0 {
            m /= 5;
        }
        a >= 2 && m.is_power_of_two()
    }

    /// Pick the stream width for a split `(a, b)`: the largest power of
    /// two `w` dividing `b` with `a·w` inside the tile budget (and
    /// `w ≥ 2` so the vector kernels have a full lane pair). `None` when
    /// no such width exists — the caller keeps the transpose-based path.
    pub(crate) fn width_for(a: usize, b: usize) -> Option<usize> {
        if !Self::supports(a) {
            return None;
        }
        let cap = (TILE_ELEMS / a).max(2);
        let mut w = cap.next_power_of_two();
        if w > cap {
            w /= 2;
        }
        while w >= 2 && b % w != 0 {
            w /= 2;
        }
        (w >= 2).then_some(w)
    }

    /// Plan the batched ladder. `w` must come from [`Self::width_for`].
    pub(crate) fn new(a: usize, w: usize, sign: Sign) -> Self {
        assert!(Self::supports(a), "unsupported column size {a}");
        assert!(w >= 2 && w % 2 == 0);
        let mut stages = Vec::new();
        let mut cur = a;
        while cur > 1 {
            let r = if cur % 5 == 0 {
                5
            } else if cur % 8 == 0 {
                8
            } else if cur % 4 == 0 {
                4
            } else {
                2
            };
            stages.push(StageTwiddles::new(cur, r, sign));
            cur /= r;
        }
        let w1 = sign.root(1, 5);
        let w2 = sign.root(2, 5);
        Self {
            a,
            w,
            stages,
            r5: (w1.re, w2.re, w1.im, w2.im),
        }
    }

    /// Stream width (columns per block).
    pub(crate) fn width(&self) -> usize {
        self.w
    }

    /// Elements of one ping-pong tile; callers provide `2·tile_len()`
    /// scratch to [`Self::run_block`].
    pub(crate) fn tile_len(&self) -> usize {
        self.a * self.w
    }

    /// The stage radices of the ladder (for dispatch introspection).
    pub(crate) fn radices(&self) -> impl Iterator<Item = usize> + '_ {
        self.stages.iter().map(|st| st.radix)
    }

    /// Transform columns `[c0, c0+w)` of the row-major `a×ld` matrix in
    /// `data` (so `data.len() ≥ (a−1)·ld + c0 + w`), multiply each
    /// element by the matching entry of the row-major twiddle table `tw`
    /// (same `a×ld` shape), and store back in place. `tiles` is the
    /// `2·tile_len()` ping-pong scratch.
    ///
    /// # Panics
    /// Panics (via `unreachable!`) on non-x86_64 targets — construction
    /// is SIMD-gated, so this cannot be reached there.
    pub(crate) fn run_block(
        &self,
        data: &mut [Complex64],
        ld: usize,
        c0: usize,
        tw: &[Complex64],
        tiles: &mut [Complex64],
    ) {
        let (a, w) = (self.a, self.w);
        assert!(c0 + w <= ld);
        assert!(data.len() >= (a - 1) * ld + c0 + w);
        assert!(tw.len() >= (a - 1) * ld + c0 + w);
        assert!(tiles.len() >= 2 * a * w);
        #[cfg(not(target_arch = "x86_64"))]
        {
            unreachable!("ColumnFft is only constructed under SIMD dispatch");
        }
        #[cfg(target_arch = "x86_64")]
        {
            // Stage tables are direction-signed; recover the flag the
            // radix-4/8 kernels need from the first-root imaginary sign
            // (forward roots have Im ω₅ < 0).
            let forward = self.r5.2 <= 0.0;
            let (c1, c2, s1, s2) = self.r5;
            let mut s = w;
            let mut live = 0usize; // which tile holds the running result
            for (i, st) in self.stages.iter().enumerate() {
                let m = st.m;
                let (first, second) = tiles.split_at_mut(a * w);
                let second = &mut second[..a * w];
                let (src, dst, xld): (&[Complex64], &mut [Complex64], usize) = if i == 0 {
                    (&data[c0..], first, ld)
                } else if live == 0 {
                    (first, second, s)
                } else {
                    (second, first, s)
                };
                // Safety: construction is gated on AVX2+FMA dispatch;
                // `w` is even, so `s` and every later stride are even.
                unsafe {
                    match st.radix {
                        2 => crate::simd::avx2::stockham_q2(src, dst, &st.tw, m, s, xld),
                        4 => crate::simd::avx2::stockham_q4(src, dst, &st.tw, m, s, xld, forward),
                        5 => crate::simd::avx2::stockham_q5(
                            src, dst, &st.tw, m, s, xld, c1, c2, s1, s2,
                        ),
                        8 => crate::simd::avx2::stockham_q8(src, dst, &st.tw, m, s, xld, forward),
                        r => unreachable!("unsupported column radix {r}"),
                    }
                }
                live = if i == 0 { 0 } else { 1 - live };
                s *= st.radix;
            }
            let result = &tiles[live * (a * w)..][..a * w];
            // Safety: AVX2+FMA gated as above; `w` even; row `r` of the
            // scatter touches `data[r·ld + c0 ..][..w]`, in bounds by the
            // asserts at entry.
            unsafe {
                crate::simd::avx2::twiddle_rows(result, &tw[c0..], &mut data[c0..], a, w, ld);
            }
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::dft::dft_naive_signed;
    use soi_num::c64;

    fn col_signal(a: usize, w: usize) -> Vec<Complex64> {
        (0..a * w)
            .map(|i| c64((i as f64 * 0.61).sin() + 0.3, (i as f64 * 0.23).cos() - 0.1))
            .collect()
    }

    #[test]
    fn supports_recognizes_five_smooth_pow2() {
        for a in [2usize, 4, 5, 8, 10, 16, 20, 25, 32, 40, 80, 125, 320, 2048] {
            assert!(ColumnFft::supports(a), "{a}");
        }
        for a in [1usize, 3, 6, 7, 12, 15, 21, 24, 35, 60] {
            assert!(!ColumnFft::supports(a), "{a}");
        }
    }

    #[test]
    fn width_divides_b_and_fits_budget() {
        for (a, b) in [(5usize, 32768usize), (80, 2048), (320, 512), (32, 5120)] {
            let w = ColumnFft::width_for(a, b).unwrap();
            assert!(w >= 2 && b % w == 0 && a * w <= TILE_ELEMS, "a={a} b={b} w={w}");
        }
        assert_eq!(ColumnFft::width_for(6, 64), None); // unsupported radix
        assert_eq!(ColumnFft::width_for(4, 25), None); // no even divisor
    }

    #[test]
    fn batched_columns_match_naive_dft_times_twiddle() {
        if !crate::simd::cpu_supported() {
            return;
        }
        for &(a, ld) in &[(2usize, 8usize), (4, 8), (5, 8), (8, 16), (10, 8), (16, 8),
                          (20, 16), (25, 8), (40, 8), (64, 16), (80, 8), (320, 8)] {
            for sign in [Sign::Forward, Sign::Inverse] {
                let w = ColumnFft::width_for(a, ld).expect("width");
                let plan = ColumnFft::new(a, w, sign);
                let n = a * ld;
                let data0 = col_signal(a, ld);
                // Twiddle table in the four-step row-major layout.
                let tw: Vec<Complex64> = (0..a)
                    .flat_map(|k1| (0..ld).map(move |j2| (k1, j2)))
                    .map(|(k1, j2)| sign.root(k1 * j2, n))
                    .collect();
                let mut data = data0.clone();
                let mut tiles = vec![Complex64::ZERO; 2 * plan.tile_len()];
                let mut c0 = 0;
                while c0 < ld {
                    plan.run_block(&mut data, ld, c0, &tw, &mut tiles);
                    c0 += w;
                }
                for j2 in 0..ld {
                    let col: Vec<Complex64> =
                        (0..a).map(|j1| data0[j1 * ld + j2]).collect();
                    let want = dft_naive_signed(&col, sign);
                    for k1 in 0..a {
                        let scaled = want[k1] * sign.root(k1 * j2, n);
                        let got = data[k1 * ld + j2];
                        assert!(
                            (got - scaled).abs() < 1e-10 * (a as f64),
                            "a={a} {sign:?} col {j2} row {k1}: {got:?} vs {scaled:?}"
                        );
                    }
                }
            }
        }
    }
}
