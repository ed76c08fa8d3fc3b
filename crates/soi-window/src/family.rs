//! The window families: their frequency-domain reference shape `Ĥ(u)` and
//! time-domain dual `H(t)`.

use soi_num::special::{erfc, gaussian, sinc, SQRT_PI};

/// A reference window pair `(Ĥ, H)` normalized to the paper's convention:
/// `Ĥ` is (approximately) a unit plateau over `[−1/2, 1/2]` decaying
/// beyond, and `H(t) = ∫ Ĥ(u) e^{2πiut} du` is its (real, even) dual.
pub trait Window: Send + Sync + std::fmt::Debug {
    /// Frequency-domain reference window `Ĥ(u)`.
    fn h_hat(&self, u: f64) -> f64;
    /// Time-domain dual `H(t)` (inverse Fourier transform of `Ĥ`).
    fn h_time(&self, t: f64) -> f64;
    /// Short human-readable family name.
    fn name(&self) -> &'static str;
}

/// The paper's two-parameter `(τ, σ)` reference window (Eq. 2): a width-τ
/// rectangle convolved with a Gaussian `exp(−σu²)`,
///
/// ```text
/// Ĥ(u) = (1/τ) ∫_{−τ/2}^{τ/2} exp(−σ(u−t)²) dt
///      = (√π / (2τ√σ)) · [erf(√σ(τ/2−u)) + erf(√σ(τ/2+u))]
/// H(t) = sinc(τt) · √(π/σ) · exp(−π²t²/σ)
/// ```
///
/// (footnote 5: "Ĥ in terms of differences of two erfc functions and H in
/// terms of product of a sinc with a Gaussian").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoParamWindow {
    /// Rectangle (plateau) width τ.
    pub tau: f64,
    /// Gaussian sharpness σ (larger = sharper spectral falloff, slower
    /// time decay).
    pub sigma: f64,
}

impl TwoParamWindow {
    /// Construct; panics on non-positive parameters.
    pub fn new(tau: f64, sigma: f64) -> Self {
        assert!(tau > 0.0 && sigma > 0.0, "window parameters must be positive");
        Self { tau, sigma }
    }
}

impl Window for TwoParamWindow {
    fn h_hat(&self, u: f64) -> f64 {
        // Footnote 5: "Ĥ in terms of differences of two erfc functions".
        // erf(√σ(τ/2−u)) + erf(√σ(τ/2+u)) = erfc(√σ(u−τ/2)) − erfc(√σ(u+τ/2));
        // the erfc form keeps full *relative* accuracy in the tails, where
        // the erf form cancels catastrophically (this is what the window
        // quality metrics integrate).
        let rs = self.sigma.sqrt();
        let a = erfc(rs * (u - self.tau / 2.0));
        let b = erfc(rs * (u + self.tau / 2.0));
        SQRT_PI / (2.0 * self.tau * rs) * (a - b)
    }

    fn h_time(&self, t: f64) -> f64 {
        let pi = core::f64::consts::PI;
        sinc(self.tau * t) * (pi / self.sigma).sqrt() * gaussian(t, pi * pi / self.sigma)
    }

    fn name(&self) -> &'static str {
        "two-param(rect*gauss)"
    }
}

/// The one-parameter Gaussian window of §8: `Ĥ(u) = exp(−σ_u·u²)` with the
/// self-dual time form. The paper notes this family cannot exceed ≈10
/// digits at β = 1/4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianWindow {
    /// Spectral sharpness σ_u in `Ĥ(u) = exp(−σ_u u²)`.
    pub sigma: f64,
}

impl GaussianWindow {
    /// Construct; panics on non-positive σ.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        Self { sigma }
    }
}

impl Window for GaussianWindow {
    fn h_hat(&self, u: f64) -> f64 {
        gaussian(u, self.sigma)
    }

    fn h_time(&self, t: f64) -> f64 {
        // IFT of exp(−σu²) is √(π/σ)·exp(−π²t²/σ).
        let pi = core::f64::consts::PI;
        (pi / self.sigma).sqrt() * gaussian(t, pi * pi / self.sigma)
    }

    fn name(&self) -> &'static str {
        "gaussian"
    }
}

/// A compactly-supported window (§8: "Another kind of window functions ŵ,
/// those with compact support (cf. \[7\]), can eliminate aliasing error
/// completely … Theoretically, our DFT factorizations can be made exact
/// with these window functions").
///
/// `Ĥ` is 1 on the plateau `[−τ/2, τ/2]`, **exactly zero** outside
/// `[−u_max, u_max]`, and glued in between by the standard C^∞ bump
/// partition `f(1−s)/(f(s)+f(1−s))`, `f(x) = e^(−1/x)`. Being C^∞ but not
/// analytic, its time dual `H` decays faster than any polynomial yet
/// slower than the Gaussian-smoothed family — the locality/decay tradeoff
/// §8 calls "still a lively subject". With `u_max = 1/2 + β` the aliasing
/// error is *identically zero*; only truncation and κ remain.
///
/// `H(t)` has no closed form; it is evaluated as the cosine transform
/// `2∫₀^{u_max} Ĥ(u)·cos(2πut) du` by fixed-order Simpson with
/// oscillation-aware resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactBumpWindow {
    /// Flat-plateau width τ (`Ĥ = 1` on `[−τ/2, τ/2]`).
    pub tau: f64,
    /// Support edge: `Ĥ ≡ 0` for `|u| ≥ u_max`.
    pub u_max: f64,
}

impl CompactBumpWindow {
    /// Construct; panics unless `0 < τ/2 < u_max`.
    pub fn new(tau: f64, u_max: f64) -> Self {
        assert!(
            tau > 0.0 && u_max > tau / 2.0,
            "need 0 < tau/2 < u_max, got tau={tau}, u_max={u_max}"
        );
        Self { tau, u_max }
    }

    /// The window sized for oversampling rate β (support exactly fills the
    /// guard band, killing aliasing).
    pub fn for_beta(tau: f64, beta: f64) -> Self {
        Self::new(tau, 0.5 + beta)
    }
}

/// The C^∞ transition `f(1−s)/(f(s)+f(1−s))`, 1 at s=0, 0 at s=1.
fn bump_step(s: f64) -> f64 {
    if s <= 0.0 {
        return 1.0;
    }
    if s >= 1.0 {
        return 0.0;
    }
    let f = |x: f64| (-1.0 / x).exp();
    f(1.0 - s) / (f(s) + f(1.0 - s))
}

impl Window for CompactBumpWindow {
    fn h_hat(&self, u: f64) -> f64 {
        let a = u.abs();
        if a <= self.tau / 2.0 {
            1.0
        } else if a >= self.u_max {
            0.0
        } else {
            bump_step((a - self.tau / 2.0) / (self.u_max - self.tau / 2.0))
        }
    }

    fn h_time(&self, t: f64) -> f64 {
        // Even Ĥ ⇒ real cosine transform; Filon quadrature keeps the
        // error O(h⁴·Ĥ⁗) regardless of the oscillation rate 2πt.
        2.0 * soi_num::quad::filon_cos(
            |u| self.h_hat(u),
            0.0,
            self.u_max,
            2.0 * core::f64::consts::PI * t,
            256,
        )
    }

    fn name(&self) -> &'static str {
        "compact-bump"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_num::quad::integrate;

    #[test]
    fn two_param_closed_form_matches_defining_integral() {
        // Ĥ(u) = (1/τ)∫_{−τ/2}^{τ/2} e^{−σ(u−t)²} dt, checked by quadrature.
        let w = TwoParamWindow::new(0.8, 120.0);
        for u in [-0.6, -0.5, -0.25, 0.0, 0.3, 0.5, 0.55, 0.75] {
            let direct = integrate(
                |t| (-w.sigma * (u - t) * (u - t)).exp(),
                -w.tau / 2.0,
                w.tau / 2.0,
                1e-14,
            )
            .value
                / w.tau;
            let closed = w.h_hat(u);
            assert!(
                (direct - closed).abs() < 1e-12,
                "u={u}: {direct} vs {closed}"
            );
        }
    }

    #[test]
    fn h_hat_is_even_and_positive_near_passband() {
        let w = TwoParamWindow::new(0.85, 300.0);
        for u in [0.0, 0.1, 0.25, 0.5, 0.7] {
            assert!((w.h_hat(u) - w.h_hat(-u)).abs() < 1e-15);
            assert!(w.h_hat(u) > 0.0);
        }
    }

    #[test]
    fn h_time_is_even_and_peaks_at_zero() {
        let w = TwoParamWindow::new(0.85, 300.0);
        for t in [0.5, 1.0, 3.0, 10.0] {
            assert!((w.h_time(t) - w.h_time(-t)).abs() < 1e-15);
            assert!(w.h_time(0.0).abs() >= w.h_time(t).abs());
        }
    }

    #[test]
    fn fourier_pair_consistency() {
        // H(t) must equal ∫ Ĥ(u) e^{2πiut} du (real part; imaginary is 0
        // by evenness). Quadrature over the effective support of Ĥ.
        let w = TwoParamWindow::new(0.7, 80.0);
        for t in [0.0, 0.4, 1.0, 2.5] {
            let direct = integrate(
                |u| w.h_hat(u) * (2.0 * core::f64::consts::PI * u * t).cos(),
                -3.0,
                3.0,
                1e-13,
            )
            .value;
            let closed = w.h_time(t);
            assert!(
                (direct - closed).abs() < 1e-9,
                "t={t}: {direct} vs {closed}"
            );
        }
    }

    #[test]
    fn gaussian_fourier_pair_consistency() {
        let w = GaussianWindow::new(60.0);
        for t in [0.0, 0.3, 1.2] {
            let direct = integrate(
                |u| w.h_hat(u) * (2.0 * core::f64::consts::PI * u * t).cos(),
                -4.0,
                4.0,
                1e-13,
            )
            .value;
            assert!((direct - w.h_time(t)).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn sharper_sigma_decays_faster_in_frequency() {
        let sharp = TwoParamWindow::new(0.8, 800.0);
        let blunt = TwoParamWindow::new(0.8, 80.0);
        // Outside the plateau the sharper window must be far smaller.
        assert!(sharp.h_hat(0.9) < blunt.h_hat(0.9) * 1e-2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_params() {
        let _ = TwoParamWindow::new(-1.0, 10.0);
    }

    #[test]
    fn compact_window_is_exactly_zero_outside_support() {
        let w = CompactBumpWindow::for_beta(0.6, 0.25);
        assert_eq!(w.u_max, 0.75);
        assert_eq!(w.h_hat(0.75), 0.0);
        assert_eq!(w.h_hat(1.0), 0.0);
        assert_eq!(w.h_hat(-5.0), 0.0);
        assert_eq!(w.h_hat(0.0), 1.0);
        assert_eq!(w.h_hat(0.29), 1.0, "inside the plateau");
        let mid = w.h_hat(0.5);
        assert!(mid > 0.0 && mid < 1.0, "transition value {mid}");
    }

    #[test]
    fn compact_window_transition_is_smooth_and_monotone() {
        let w = CompactBumpWindow::new(0.5, 0.75);
        let mut prev = 1.0;
        for i in 0..=100 {
            let u = 0.25 + 0.5 * i as f64 / 100.0;
            let v = w.h_hat(u);
            assert!(v <= prev + 1e-12, "not monotone at u={u}");
            prev = v;
        }
    }

    #[test]
    fn compact_h_time_is_a_genuine_fourier_dual() {
        // Spot-check the numerical cosine transform against independent
        // adaptive quadrature.
        let w = CompactBumpWindow::new(0.6, 0.75);
        for t in [0.0, 0.7, 2.3, 9.0] {
            let direct = integrate(
                |u| w.h_hat(u) * (2.0 * core::f64::consts::PI * u * t).cos(),
                -0.75,
                0.75,
                1e-12,
            )
            .value;
            let got = w.h_time(t);
            assert!((got - direct).abs() < 1e-9, "t={t}: {got} vs {direct}");
        }
    }

    #[test]
    fn compact_h_time_decays_superpolynomially() {
        // C^∞ compact support ⇒ decay faster than any polynomial: compare
        // |H| at t and 2t against a cubic-decay yardstick.
        let w = CompactBumpWindow::new(0.6, 0.75);
        let h10: f64 = (10..14).map(|t| w.h_time(t as f64).abs()).sum();
        let h30: f64 = (30..34).map(|t| w.h_time(t as f64).abs()).sum();
        assert!(h30 < h10 / 27.0, "h10={h10:e} h30={h30:e} (slower than t^-3)");
    }

    #[test]
    fn compact_window_kills_aliasing_identically() {
        let w = CompactBumpWindow::for_beta(0.6, 0.25);
        let alias = crate::metrics::alias_error(&w, 0.25);
        assert_eq!(alias, 0.0, "compact support must zero the aliasing error");
    }
}
