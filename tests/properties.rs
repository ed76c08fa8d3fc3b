//! Property-based tests (soi-testkit harness) on the core invariants of
//! the stack.
//!
//! These complement the example-based unit tests inside each crate with
//! randomized coverage of the algebraic identities everything relies on:
//! DFT linearity/unitarity, Stockham-vs-oracle agreement at arbitrary
//! sizes, stride-permutation bijectivity, double-double arithmetic, and
//! SOI's agreement with the exact transform on random inputs.
//!
//! Each property runs a fixed number of cases from the testkit's fixed
//! default seed, so two consecutive runs exercise identical RNG streams.
//! On failure the harness prints the case seed and a
//! `SOI_TESTKIT_REPLAY=…` recipe to re-run exactly that input.

use soi::core::{SoiFft, SoiParams};
use soi::fft::{fft_forward, fft_inverse, Plan};
use soi::num::complex::{max_abs_diff, rel_l2_error};
use soi::num::dd::Dd;
use soi::num::Complex64;
use soi::window::AccuracyPreset;
use soi_testkit::{check, PropConfig};

#[test]
fn fft_roundtrip_arbitrary_sizes() {
    check("fft_roundtrip_arbitrary_sizes", PropConfig::cases(16), |rng| {
        let n = rng.usize_in(1..300);
        let x = rng.complex_vec(n);
        let back = fft_inverse(&fft_forward(&x));
        assert!(max_abs_diff(&back, &x) < 1e-10, "n={n}");
    });
}

#[test]
fn fft_is_linear() {
    check("fft_is_linear", PropConfig::cases(16), |rng| {
        let x = rng.complex_vec(64);
        let y = rng.complex_vec(64);
        let a = rng.f64_in(-2.0..2.0);
        let sum: Vec<Complex64> = x.iter().zip(&y).map(|(&u, &v)| u.scale(a) + v).collect();
        let lhs = fft_forward(&sum);
        let fx = fft_forward(&x);
        let fy = fft_forward(&y);
        for k in 0..64 {
            let want = fx[k].scale(a) + fy[k];
            assert!((lhs[k] - want).abs() < 1e-10, "bin {k}");
        }
    });
}

#[test]
fn parseval_holds() {
    check("parseval_holds", PropConfig::cases(16), |rng| {
        let x = rng.complex_vec(128);
        let y = fft_forward(&x);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum();
        assert!((ey - 128.0 * ex).abs() <= 1e-9 * (1.0 + ey.abs()));
    });
}

#[test]
fn shift_theorem_random_shift() {
    check("shift_theorem_random_shift", PropConfig::cases(16), |rng| {
        // The identity behind SOI's segment recovery (§5).
        let n = 96;
        let x = rng.complex_vec(n);
        let s = rng.usize_in(0..n);
        let shifted: Vec<Complex64> = (0..n).map(|j| x[(j + s) % n]).collect();
        let y = fft_forward(&x);
        let ys = fft_forward(&shifted);
        for k in (0..n).step_by(7) {
            let w = Complex64::root_of_unity(k * s % n, n).conj();
            assert!((ys[k] - y[k] * w).abs() < 1e-9, "bin {k} shift {s}");
        }
    });
}

#[test]
fn stride_permutation_is_a_bijection() {
    check("stride_permutation_is_a_bijection", PropConfig::cases(16), |rng| {
        let lg_l = rng.usize_in(1..5);
        let lg_rest = rng.usize_in(1..5);
        let l = 1usize << lg_l;
        let n = l << lg_rest;
        let v: Vec<u32> = (0..n as u32).collect();
        let mut w = vec![0u32; n];
        soi::fft::permute::stride_permute(&v, &mut w, l);
        let mut seen = vec![false; n];
        for &x in &w {
            assert!(!seen[x as usize], "duplicate {x} (l={l}, n={n})");
            seen[x as usize] = true;
        }
        // And inverse really inverts.
        let mut back = vec![0u32; n];
        soi::fft::permute::stride_unpermute(&w, &mut back, l);
        assert_eq!(back, v, "l={l}, n={n}");
    });
}

#[test]
fn dd_addition_is_exactly_associative_enough() {
    check(
        "dd_addition_is_exactly_associative_enough",
        PropConfig::cases(16),
        |rng| {
            // dd carries ~32 digits: (a+b)+c and (a+c)+b agree far beyond f64.
            let a = rng.f64_in(-1e8..1e8);
            let b = rng.f64_in(-1e-8..1e-8);
            let c = rng.f64_in(-1e8..1e8);
            let x = (Dd::from_f64(a) + Dd::from_f64(b)) + Dd::from_f64(c);
            let y = (Dd::from_f64(a) + Dd::from_f64(c)) + Dd::from_f64(b);
            assert!((x - y).abs().hi <= 1e-24 * (1.0 + a.abs() + c.abs()));
        },
    );
}

#[test]
fn dd_mul_matches_f64_to_f64_precision() {
    check(
        "dd_mul_matches_f64_to_f64_precision",
        PropConfig::cases(16),
        |rng| {
            let a = rng.f64_in(-1e6..1e6);
            let b = rng.f64_in(-1e6..1e6);
            let d = Dd::from_f64(a) * Dd::from_f64(b);
            // The dd product's leading word is the correctly rounded product.
            assert_eq!(d.hi, a * b);
        },
    );
}

// SOI transforms are heavier; fewer cases.

#[test]
fn soi_matches_exact_fft_on_random_input() {
    check(
        "soi_matches_exact_fft_on_random_input",
        PropConfig::cases(4),
        |rng| {
            let n = 1 << 11;
            let p = 4;
            let x = rng.complex_vec(n);
            let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
            let soi = SoiFft::new(&params).unwrap();
            let y = soi.transform(&x).unwrap();
            let exact = fft_forward(&x);
            let err = rel_l2_error(&y, &exact);
            assert!(err < 2e-7, "rel l2 error {err:e}");
        },
    );
}

#[test]
fn soi_segment_consistency_random_segment() {
    check(
        "soi_segment_consistency_random_segment",
        PropConfig::cases(4),
        |rng| {
            let n = 1 << 11;
            let p = 4;
            let x = rng.complex_vec(n);
            let s = rng.usize_in(0..p);
            let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
            let soi = SoiFft::new(&params).unwrap();
            let full = soi.transform(&x).unwrap();
            let seg = soi.transform_segment(&x, s).unwrap();
            let m = n / p;
            let err = rel_l2_error(&seg, &full[s * m..(s + 1) * m]);
            assert!(err < 1e-8, "segment {s} rel l2 error {err:e}");
        },
    );
}

#[test]
fn planner_covers_smooth_and_prime_sizes() {
    // Deterministic sweep across planner paths at moderate sizes.
    for n in [2usize, 30, 97, 128, 210, 512, 625, 1009] {
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let plan = Plan::forward(n);
        let mut got = x.clone();
        plan.execute(&mut got);
        let want = soi::fft::dft::dft_naive(&x);
        assert!(
            max_abs_diff(&got, &want) < 1e-8 * n as f64,
            "n={n} engine={}",
            plan.engine_name()
        );
    }
}

#[test]
fn property_suite_uses_identical_streams_run_to_run() {
    // The determinism contract the whole suite stands on: PropConfig with
    // the default seed derives the same case seeds every invocation.
    let a = PropConfig::cases(16);
    let b = PropConfig::cases(16);
    assert_eq!(a, b);
    for case in 0..16 {
        assert_eq!(a.case_seed(case), b.case_seed(case));
    }
}
