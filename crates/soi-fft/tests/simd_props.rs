//! Property tests for the SIMD butterfly kernels.
//!
//! Two contracts, per DESIGN.md §13:
//!
//! 1. **SIMD-vs-portable agreement within ulp bounds.** FMA contracts
//!    `a·b±c` into one rounding, so the vector butterflies cannot be
//!    bitwise-equal to the portable ones; they must instead agree to a
//!    tolerance that scales like the FFT's own rounding growth,
//!    `O(ε·‖x‖·log₂ n)`. Sizes cover radix-5 tails, odd-`m` levels
//!    (non-multiple-of-lane remainders), the radix-8 first stage, and
//!    both directions.
//! 2. **Bitwise run-to-run reproducibility.** Every dispatched engine,
//!    executed twice on the same input (and via independently constructed
//!    plans), must produce bit-identical output — dispatch is decided at
//!    construction from CPU features alone, never per-run.
//!
//! The `with_simd` constructors deliberately ignore `SOI_NO_SIMD`, so
//! both paths can be pitted against each other in one process; on
//! non-AVX2 hosts the "SIMD" plan silently is the portable one and the
//! comparisons become trivial identities (still a valid run).

use soi_fft::fourstep::{FourStepFft, RawFft};
use soi_fft::mixed::MixedRadixFft;
use soi_fft::stockham::StockhamFft;
use soi_fft::twiddle::Sign;
use soi_fft::{Plan, Planner};
use soi_num::Complex64;
use soi_testkit::TestRng;

/// Max |simd − portable| normalized by ε·‖x‖₂·(log₂ n + 1): both paths
/// accumulate rounding like the FFT itself, so their difference does too.
fn ulp_gap(simd: &[Complex64], portable: &[Complex64], input: &[Complex64]) -> f64 {
    let norm: f64 = input.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
    let lg = (input.len().max(2) as f64).log2() + 1.0;
    let scale = f64::EPSILON * norm.max(1.0) * lg;
    simd.iter()
        .zip(portable)
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0f64, f64::max)
        / scale
}

/// Generous multiple of the normalized gap; observed gaps sit well below
/// 1, so 8 catches real divergence (wrong twiddle, lane swap) while
/// tolerating FMA rounding differences.
const TOL: f64 = 8.0;

fn signal(rng: &mut TestRng, n: usize) -> Vec<Complex64> {
    rng.complex_vec(n)
}

#[test]
fn stockham_simd_matches_portable_within_ulps() {
    let mut rng = TestRng::seed_from_u64(0x5705);
    for &n in &[16usize, 64, 256, 1024, 4096, 16384] {
        for sign in [Sign::Forward, Sign::Inverse] {
            let x = signal(&mut rng, n);
            let simd = StockhamFft::with_simd(n, sign, true);
            let portable = StockhamFft::with_simd(n, sign, false);
            let mut a = x.clone();
            simd.execute(&mut a);
            let mut b = x.clone();
            portable.execute(&mut b);
            let gap = ulp_gap(&a, &b, &x);
            assert!(gap < TOL, "stockham n={n} {sign:?}: gap {gap}");
        }
    }
}

#[test]
fn mixed_radix_simd_matches_portable_within_ulps() {
    let mut rng = TestRng::seed_from_u64(0x3141);
    // Covers: radix-5 with odd m (5·5=25, 175=5²·7), the m==1 radix-4
    // leaf (pure 4^k and 2^k·5 shapes), odd-m radix-4 levels (e.g. 20 =
    // 4·5 → r5 level m=4, r4 level m=... and 12 = 4·3), scalar radix-3/7
    // levels mixed in with vector levels, and both directions.
    for &n in &[5usize, 10, 12, 20, 25, 40, 80, 160, 175, 320, 1280, 2560] {
        for sign in [Sign::Forward, Sign::Inverse] {
            let x = signal(&mut rng, n);
            let simd = MixedRadixFft::with_simd(n, sign, true);
            let portable = MixedRadixFft::with_simd(n, sign, false);
            let mut a = x.clone();
            simd.execute(&mut a);
            let mut b = x.clone();
            portable.execute(&mut b);
            let gap = ulp_gap(&a, &b, &x);
            assert!(gap < TOL, "mixed n={n} {sign:?}: gap {gap}");
        }
    }
}

#[test]
fn four_step_simd_matches_portable_within_ulps() {
    let mut rng = TestRng::seed_from_u64(0xF0F0);
    for &n in &[1024usize, 2560, 40960, 163840] {
        for sign in [Sign::Forward, Sign::Inverse] {
            let x = signal(&mut rng, n);
            let simd = FourStepFft::with_simd(n, sign, true);
            let portable = FourStepFft::with_simd(n, sign, false);
            let mut a = x.clone();
            simd.execute(&mut a);
            let mut b = x.clone();
            portable.execute(&mut b);
            let gap = ulp_gap(&a, &b, &x);
            assert!(gap < TOL, "four-step n={n} {sign:?}: gap {gap}");
        }
    }
}

#[test]
fn simd_weighted_epilogue_stays_bitwise_on_random_shapes() {
    // The fused weighted write must be bitwise-identical to the scalar
    // multiply loop for arbitrary (including odd) projection lengths —
    // this is the exact-rounding cmul contract, not an ulp bound.
    let mut rng = TestRng::seed_from_u64(0xBEEF);
    for &n in &[64usize, 160, 1024, 2560] {
        let x = signal(&mut rng, n);
        for &frac in &[1usize, 3, 5] {
            let m = (n * frac / 5).max(1) - (frac % 2); // odd-ish lengths
            let weights = signal(&mut rng, m);
            let plan = StockhamFft::with_simd(n.next_power_of_two(), Sign::Forward, true);
            let n2 = plan.len();
            let mut data: Vec<Complex64> = x.iter().cloned().cycle().take(n2).collect();
            let mut scratch = vec![Complex64::ZERO; n2];
            let mut data2 = data.clone();
            let mut scratch2 = vec![Complex64::ZERO; n2];
            plan.execute_with_scratch(&mut data2, &mut scratch2);
            let m = m.min(n2);
            let want: Vec<Complex64> = (0..m).map(|k| data2[k] * weights[k]).collect();
            let mut out = vec![Complex64::ZERO; m];
            plan.execute_fused_into(&mut data, &mut scratch, &mut out, &weights);
            for k in 0..m {
                assert_eq!(out[k].re.to_bits(), want[k].re.to_bits(), "n={n2} m={m} k={k}");
                assert_eq!(out[k].im.to_bits(), want[k].im.to_bits(), "n={n2} m={m} k={k}");
            }
        }
    }
}

#[test]
fn every_dispatched_engine_is_bitwise_reproducible_run_to_run() {
    // Two executes of one plan AND two independently constructed plans
    // must agree bit-for-bit: dispatch is a pure function of the host,
    // so rebuilding a plan cannot change the arithmetic.
    let mut rng = TestRng::seed_from_u64(0xD15C);
    let sizes: &[usize] = &[256, 320, 1280, 40960, 65536, 163840, 997];
    for &n in sizes {
        let x = signal(&mut rng, n);
        let planner = Planner::new();
        let plan = planner.forward(n);
        let again = Plan::forward(n);
        let mut runs: Vec<Vec<Complex64>> = Vec::new();
        for p in [&*plan, &again, &*plan] {
            let mut d = x.clone();
            p.execute(&mut d);
            runs.push(d);
        }
        for r in &runs[1..] {
            for (k, (a, b)) in runs[0].iter().zip(r).enumerate() {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "{} n={n} bin {k}", plan.engine_name());
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "{} n={n} bin {k}", plan.engine_name());
            }
        }
    }
}

#[test]
fn raw_engines_bitwise_reproducible_including_simd_streams() {
    let mut rng = TestRng::seed_from_u64(0xAB1E);
    for &n in &[64usize, 320, 2048, 40960] {
        for sign in [Sign::Forward, Sign::Inverse] {
            let x = signal(&mut rng, n);
            let e1 = RawFft::new(n, sign);
            let e2 = RawFft::new(n, sign);
            let mut a = x.clone();
            e1.execute(&mut a);
            let mut b = x.clone();
            e2.execute(&mut b);
            let mut c = x.clone();
            e1.execute(&mut c);
            for k in 0..n {
                assert_eq!(a[k].re.to_bits(), b[k].re.to_bits(), "n={n} bin {k}");
                assert_eq!(a[k].re.to_bits(), c[k].re.to_bits(), "n={n} bin {k}");
                assert_eq!(a[k].im.to_bits(), b[k].im.to_bits(), "n={n} bin {k}");
                assert_eq!(a[k].im.to_bits(), c[k].im.to_bits(), "n={n} bin {k}");
            }
        }
    }
}

#[test]
fn dispatch_report_matches_simd_request() {
    // with_simd(true) on capable hardware reports Avx2Fma stages;
    // with_simd(false) always reports all-Portable.
    use soi_fft::codelet::Dispatch;
    let portable = StockhamFft::with_simd(1024, Sign::Forward, false);
    assert!(portable
        .codelet_dispatch()
        .iter()
        .all(|&(_, d)| d == Dispatch::Portable));
    let maybe_simd = StockhamFft::with_simd(1024, Sign::Forward, true);
    let expect_simd = soi_fft::simd::cpu_supported();
    assert!(maybe_simd
        .codelet_dispatch()
        .iter()
        .all(|&(_, d)| d.is_simd() == expect_simd));
    // Mixed: a radix-7 level stays portable even under SIMD dispatch.
    let m = MixedRadixFft::with_simd(280, Sign::Forward, true);
    let cd = m.codelet_dispatch();
    assert!(
        cd.iter()
            .any(|&(c, d)| c == soi_fft::codelet::Codelet::Radix7 && d == Dispatch::Portable),
        "{cd:?}"
    );
}
