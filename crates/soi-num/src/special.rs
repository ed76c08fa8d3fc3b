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

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Computed directly in the tail so that `erfc(10) ≈ 2.1e-45` retains full
/// relative accuracy (essential for evaluating window tails / ε^(trunc)).
pub fn erfc(x: f64) -> f64 {
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
