//! Special functions needed by the window-function machinery (§4 of the
//! paper): the error function pair `erf`/`erfc`, the normalized `sinc`, and
//! the Gaussian.
//!
//! The paper's two-parameter reference window has the closed forms
//! (footnote 5):
//!
//! * `Ĥ(u)` — a difference/sum of two `erf` terms (the Gaussian-smoothed
//!   rectangle, Eq. 2),
//! * `H(t)` — a `sinc` times a Gaussian.
//!
//! Accuracy matters here: window coefficients feed a 14.5-digit algorithm,
//! so `erf` is implemented to near machine precision (Taylor series for
//! small arguments, Lentz continued fraction for the tail), not with a
//! 7-digit textbook polynomial.
//!
//! Speed matters too: every `Ĥ(u)` costs two `erfc` calls, and the window
//! design search and each plan's demodulation table make hundreds of
//! thousands of them. [`erfc`] is therefore a table-driven Taylor
//! expansion (a few ns a call), checked against [`erfc_reference`] (the
//! series/continued-fraction code it replaced, about 200 ns a call) and
//! against correctly rounded values in `tests/erfc_accuracy.rs`.

use crate::dd::Dd;
use std::sync::OnceLock;

/// `2/sqrt(pi)`.
pub const FRAC_2_SQRT_PI: f64 = std::f64::consts::FRAC_2_SQRT_PI;
/// `sqrt(pi)`.
pub const SQRT_PI: f64 = 1.772_453_850_905_516_03;

/// The error function `erf(x) = 2/√π ∫₀ˣ e^(−t²) dt`.
///
/// Accurate to a few ulps over the whole real line.
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    let ax = x.abs();
    if ax < 1.0 {
        erf_series(x)
    } else {
        let e = erfc_cf(ax);
        let v = 1.0 - e;
        if x >= 0.0 {
            v
        } else {
            -v
        }
    }
}

/// Expansion points per unit of `erfc`'s argument. On this grid every
/// `x0²` is exact in `f64`, so the table carries no `e^(−x²)` rounding
/// from a rounded square.
const GRID: f64 = 32.0;
/// Grid index range: `x0 = k/32` for `k` in `-192..=864`, i.e. `[−6, 27]`.
/// Below −6 `erfc` rounds to 2; above 27 it is subnormal and
/// [`erfc_reference`] returns 0 there, so [`erfc`] does too.
const K_MIN: i32 = -192;
const K_MAX: i32 = 864;
/// Taylor coefficients per grid point. The step `h = x − x0` lies in
/// `(−1/32, 0]`; at `x0 = 27` the terms fall like `(2·x0·|h|)^m/m!`
/// with `2·x0·|h| < 1.69`, and the first one dropped is below 2⁻⁵⁵ of
/// the sum.
const TERMS: usize = 22;
const _: () = assert!(TERMS.is_multiple_of(2));

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Taylor series about `x0 = ⌈32x⌉/32`, the grid point at or just above
/// `x`: `erfc(x0 + h) = Σ_m c_m(x0)·h^m` for `h ∈ (−1/32, 0]`, with the
/// coefficients tabulated once per process (see `erfc_table`). Going
/// down from `x0` makes the leading terms positive: the sign of
/// `c_m·h^m` is that of `H_{m−1}(x0)`, positive past the polynomial's
/// largest zero near `√(2m)`, and the terms of other sign are too small
/// against `erfc(x)` to cancel. So the sum is as accurate as its
/// tabulated coefficients: within 2 ulp of the correctly rounded value on
/// 25,000 mpmath points over `[−6, 27]`, where [`erfc_reference`] is up
/// to 33 ulp off below `x = 6` and about 500 past `x = 12`. The oracle
/// test in `tests/erfc_accuracy.rs` holds it to 10 ulp, and to no worse
/// than [`erfc_reference`] band by band.
///
/// Relative accuracy holds in the tail, so `erfc(10) ≈ 2.1e-45` keeps
/// full digits (essential for evaluating window tails / ε^(trunc)).
/// `erfc(NaN)` is NaN; `erfc(x)` is 2 below −6 (where it rounds to 2)
/// and 0 above 27, as [`erfc_reference`] returns.
pub fn erfc(x: f64) -> f64 {
    let k = (x * GRID).ceil();
    // `!(a && b)` also routes NaN here.
    if !(k >= K_MIN as f64 && k <= K_MAX as f64) {
        return if x.is_nan() {
            x
        } else if x < 0.0 {
            2.0
        } else {
            0.0
        };
    }
    // Both exact: k/32 is a power-of-two scaling, and x − x0 is a
    // multiple of ulp(x) no larger than 1/32.
    let x0 = k / GRID;
    let h = x - x0;
    let c = &erfc_table()[(k as i32 - K_MIN) as usize];
    // Horner in h² on the even and the odd coefficients: two independent
    // chains of 10 steps instead of one of 21. Neither split sum cancels,
    // for the reason above.
    let h2 = h * h;
    let (mut even, mut odd) = (c[TERMS - 2], c[TERMS - 1]);
    for m in (0..TERMS / 2 - 1).rev() {
        even = c[2 * m] + h2 * even;
        odd = c[2 * m + 1] + h2 * odd;
    }
    even + h * odd
}

/// Taylor coefficients of `erfc` about each grid point `x0 = k/32`:
/// row `k − K_MIN` holds `c_m = erfc⁽ᵐ⁾(x0)/m!` for `m < TERMS`.
///
/// `c_0 = erfc(x0)` and `D = (2/√π)·e^(−x0²)` are evaluated in
/// double-double (see [`erfc_dd`]) and rounded once, so each is within
/// half an ulp. The derivatives come from the Hermite recurrence:
/// `erfc⁽ᵐ⁺¹⁾(x) = −(2/√π)·(−1)ᵐ·Hₘ(x)·e^(−x²)` with `H₀ = 1`,
/// `H₁ = 2x`, `Hₘ₊₁ = 2x·Hₘ − 2m·Hₘ₋₁`. In the scaled form
/// `qₘ = (−1)ᵐ·Hₘ(x0)/m!` that is `q₀ = 1`, `q₁ = −2x0`,
/// `qₘ₊₁ = −2(x0·qₘ + qₘ₋₁)/(m+1)`, and `c_{m+1} = −D·qₘ/(m+1)`.
fn erfc_table() -> &'static [[f64; TERMS]] {
    static TABLE: OnceLock<Vec<[f64; TERMS]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let pos = erfc_dd(K_MAX.max(-K_MIN) as usize);
        (K_MIN..=K_MAX)
            .map(|k| {
                let x0 = k as f64 / GRID;
                let (e0, d) = pos[k.unsigned_abs() as usize];
                let e0 = if k < 0 { Dd::from_f64(2.0) - e0 } else { e0 };
                let d = d.to_f64();
                let mut c = [0.0; TERMS];
                c[0] = e0.to_f64();
                let (mut q_prev, mut q) = (0.0, 1.0);
                for m in 0..TERMS - 1 {
                    c[m + 1] = -d * q / (m + 1) as f64;
                    let q_next = -2.0 * (x0 * q + q_prev) / (m + 1) as f64;
                    (q_prev, q) = (q, q_next);
                }
                c
            })
            .collect()
    })
}

/// `(erfc(x0), (2/√π)·e^(−x0²))` in double-double at `x0 = k/32` for
/// `k = 0..=k_max`.
///
/// * `e^(−k²/1024)` by the exact recurrence
///   `e^(−(k+1)²/1024) = e^(−k²/1024)·g^(2k+1)` with `g = e^(−1/1024)`
///   (a six-term Taylor sum): two double-double products per point, and
///   about 2⁻⁸⁵ relative error after the last one.
/// * `erfc(x0) = 1 − erf(x0)` by the Taylor series of `erf` below
///   `x0 = 3`, where its alternating terms cancel at most 23 of
///   double-double's 106 bits.
/// * From `x0 = 3` on, `erfc(x0) = e^(−x0²)/(√π·F)` with Laplace's
///   continued fraction `F = x0 + (1/2)/(x0 + (2/2)/(x0 + …))`, evaluated
///   from a fixed depth upward (stable: every partial value is positive).
///
/// [`erfc_reference`] is not used for the table: its forward Lentz loop is
/// up to 13 ulp off even at these exact arguments.
fn erfc_dd(k_max: usize) -> Vec<(Dd, Dd)> {
    let two_over_sqrt_pi = Dd::from_f64(2.0) / Dd::PI.sqrt();
    // g = e^(−1/1024): (1/1024)⁶/6! is below 2⁻¹⁰⁶.
    let step = Dd::from_f64(-1.0 / 1024.0);
    let (mut g, mut term) = (Dd::ONE, Dd::ONE);
    for j in 1..=6 {
        term = term * step / Dd::from_f64(j as f64);
        g += term;
    }
    let g2 = g * g;
    let (mut gauss, mut ratio) = (Dd::ONE, g);
    let mut out = Vec::with_capacity(k_max + 1);
    for k in 0..=k_max {
        let x0 = k as f64 / GRID;
        let d = two_over_sqrt_pi * gauss;
        let e0 = if x0 < 3.0 {
            // erf(x) = (2/√π)·Σ (−1)ⁿ x^(2n+1) / (n!·(2n+1)).
            let x2 = Dd::from_f64(-x0 * x0);
            let (mut t, mut sum) = (Dd::from_f64(x0), Dd::from_f64(x0));
            for n in 1..200 {
                t = t * x2 / Dd::from_f64(n as f64);
                let c = t / Dd::from_f64((2 * n + 1) as f64);
                sum += c;
                if c.hi.abs() < 1e-34 * sum.hi.abs() {
                    break;
                }
            }
            Dd::ONE - two_over_sqrt_pi * sum
        } else {
            // Deeper than 2⁻¹⁰⁸ needs at every x0 ≥ 3 (101 levels at 3,
            // 23 at 10, 13 at 27, found against 300-bit evaluations).
            let depth = (1100.0 / (x0 * x0)) as usize + 16;
            let x = Dd::from_f64(x0);
            let mut f = x;
            for j in (1..=depth).rev() {
                f = x + Dd::from_f64(j as f64 * 0.5) / f;
            }
            d.mul_pow2(0.5) / f
        };
        out.push((e0, d));
        gauss *= ratio;
        ratio *= g2;
    }
    out
}

/// The complementary error function by the series/continued-fraction
/// route that [`erfc`] replaced: `1 − erf` by Taylor series on `(−1, 1)`,
/// the Lentz continued fraction beyond. About 200 ns a call (1.4 µs near
/// `x = 1`, where the fraction converges slowly). Up to 33 ulp off below
/// `x = 6` and about 500 past `x = 12`, mostly because it rounds `x²`
/// before `e^(−x²)`. Kept as the baseline [`erfc`]'s accuracy test must
/// not fall behind.
pub fn erfc_reference(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x < -1.0 {
        2.0 - erfc_cf(-x)
    } else if x < 1.0 {
        1.0 - erf_series(x)
    } else {
        erfc_cf(x)
    }
}

/// Taylor series for `erf`, converges rapidly for |x| < 1.
fn erf_series(x: f64) -> f64 {
    // erf(x) = 2/sqrt(pi) * sum_{n>=0} (-1)^n x^(2n+1) / (n! (2n+1))
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    let mut n = 1u32;
    loop {
        term *= -x2 / n as f64;
        let contrib = term / (2 * n + 1) as f64;
        sum += contrib;
        if contrib.abs() <= sum.abs() * f64::EPSILON * 0.25 || n > 80 {
            break;
        }
        n += 1;
    }
    FRAC_2_SQRT_PI * sum
}

/// Modified Lentz continued fraction for `erfc(x)`, valid for `x ≥ 1`:
/// `erfc(x) = e^(−x²)/√π · 1/(x + (1/2)/(x + (2/2)/(x + (3/2)/(x + …))))`.
fn erfc_cf(x: f64) -> f64 {
    debug_assert!(x >= 1.0);
    if x > 27.0 {
        // e^{-x^2} underflows past ~27.2; the function is zero in f64.
        return 0.0;
    }
    const TINY: f64 = 1e-300;
    let mut f = x;
    let mut c = x;
    let mut d = 0.0f64;
    let mut k = 1u32;
    loop {
        let a = k as f64 / 2.0;
        // b = x for every level of this CF.
        d = x + a * d;
        if d == 0.0 {
            d = TINY;
        }
        c = x + a / c;
        if c == 0.0 {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < f64::EPSILON {
            break;
        }
        k += 1;
        if k > 300 {
            break;
        }
    }
    (-x * x).exp() / (SQRT_PI * f)
}

/// Normalized sinc: `sinc(x) = sin(πx)/(πx)`, `sinc(0) = 1`.
pub fn sinc(x: f64) -> f64 {
    let px = core::f64::consts::PI * x;
    if px.abs() < 1e-8 {
        // Two-term Taylor keeps full accuracy through the removable zero.
        1.0 - px * px / 6.0
    } else {
        px.sin() / px
    }
}

/// The Gaussian `exp(−σ t²)`.
#[inline]
pub fn gaussian(t: f64, sigma: f64) -> f64 {
    (-sigma * t * t).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference values from standard 30+ digit tables.
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.112462916018284892),
        (0.5, 0.520499877813046538),
        (1.0, 0.842700792949714869),
        (1.5, 0.966105146475310727),
        (2.0, 0.995322265018952734),
        (3.0, 0.999977909503001415),
        (4.0, 0.999999984582742100),
    ];

    const ERFC_TABLE: &[(f64, f64)] = &[
        (1.0, 0.157299207050285131),
        (2.0, 4.67773498104726584e-3),
        (3.0, 2.20904969985854414e-5),
        (5.0, 1.53745979442803485e-12),
        (8.0, 1.12242971729829270e-29),
        (10.0, 2.08848758376254492e-45),
    ];

    #[test]
    fn erf_matches_table() {
        for &(x, want) in ERF_TABLE {
            let got = erf(x);
            assert!(
                (got - want).abs() <= 4.0 * f64::EPSILON * want.abs().max(1e-300),
                "erf({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn erfc_matches_table_with_relative_accuracy() {
        for &(x, want) in ERFC_TABLE {
            let got = erfc(x);
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-13, "erfc({x}) = {got:e}, want {want:e}, rel {rel:e}");
        }
    }

    #[test]
    fn erf_is_odd_and_erfc_complements() {
        for i in 0..200 {
            let x = -5.0 + 0.05 * i as f64;
            assert!(
                (erf(x) + erf(-x)).abs() < 1e-15,
                "erf not odd at {x}"
            );
            assert!(
                (erf(x) + erfc(x) - 1.0).abs() < 4e-15,
                "erf+erfc != 1 at {x}: {}",
                erf(x) + erfc(x)
            );
        }
    }

    #[test]
    fn erf_limits() {
        assert!((erf(6.0) - 1.0).abs() < 1e-15);
        assert!((erf(-6.0) + 1.0).abs() < 1e-15);
        assert_eq!(erfc(30.0), 0.0);
        assert!((erfc(-30.0) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn erf_monotone_increasing() {
        let mut prev = erf(-8.0);
        for i in 1..=320 {
            let x = -8.0 + i as f64 * 0.05;
            let v = erf(x);
            assert!(v >= prev, "erf not monotone at {x}");
            prev = v;
        }
    }

    #[test]
    fn sinc_values() {
        assert_eq!(sinc(0.0), 1.0);
        for k in 1..10 {
            assert!(sinc(k as f64).abs() < 1e-15, "sinc({k}) should vanish");
        }
        assert!((sinc(0.5) - 2.0 / core::f64::consts::PI).abs() < 1e-15);
        // Continuity through the removable singularity.
        assert!((sinc(1e-9) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn gaussian_values() {
        assert_eq!(gaussian(0.0, 3.0), 1.0);
        assert!((gaussian(1.0, 2.0) - (-2.0f64).exp()).abs() < 1e-16);
        assert!(gaussian(10.0, 5.0) < 1e-200);
    }
}
