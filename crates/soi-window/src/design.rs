//! Parameter search: find `(τ, σ, B)` achieving a target accuracy at a
//! given oversampling rate — the procedure §4 sketches ("a pair of (τ, σ)
//! parameters obtained in the fashion outlined in Section 4", §7.2).
//!
//! For each candidate support `B` (ascending), the search alternates two
//! monotone one-dimensional solves to a fixed point:
//!
//! 1. `σ` — largest value whose truncation error at `B` still meets the
//!    target (truncation grows with σ; larger σ means sharper spectral
//!    decay, so we take the largest feasible).
//! 2. `τ` — largest plateau whose aliasing error at `β` still meets the
//!    target (aliasing grows with τ; a wider plateau lowers κ, so we take
//!    the largest feasible).
//!
//! The first `B` whose fixed point also satisfies the κ cap wins —
//! minimizing the convolution cost `O(N'B)` subject to accuracy.

use crate::family::{GaussianWindow, TwoParamWindow, Window};
use crate::metrics::{alias_error, kappa, trunc_error};

/// A complete window design: family parameters, support, and achieved
/// quality numbers.
#[derive(Debug, Clone)]
pub struct WindowDesign<W> {
    /// The designed window.
    pub window: W,
    /// Convolution support in blocks (`B` of the paper).
    pub b: usize,
    /// Oversampling rate β the design targets.
    pub beta: f64,
    /// Achieved condition number.
    pub kappa: f64,
    /// Achieved aliasing error.
    pub alias: f64,
    /// Achieved truncation error.
    pub trunc: f64,
    /// The accuracy target the search was run with.
    pub target: f64,
}

impl<W: Window> WindowDesign<W> {
    /// Predicted relative accuracy: the paper's bound is
    /// `O(κ(ε_fft + ε_alias + ε_trunc))`; this reports
    /// `κ·(ε_alias + ε_trunc + ε_f64)` as an a-priori estimate.
    pub fn predicted_error(&self) -> f64 {
        self.kappa * (self.alias + self.trunc + f64::EPSILON)
    }
}

/// Errors from an infeasible design request.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignError {
    /// No support length up to the cap met the target with an acceptable κ.
    Infeasible {
        /// The accuracy target that could not be met.
        target: f64,
        /// Oversampling rate searched at.
        beta: f64,
    },
    /// Nonsensical inputs (non-positive target, negative β, …).
    BadRequest(String),
}

impl std::fmt::Display for DesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignError::Infeasible { target, beta } => write!(
                f,
                "no window design meets target {target:e} at beta {beta}"
            ),
            DesignError::BadRequest(msg) => write!(f, "bad design request: {msg}"),
        }
    }
}

impl std::error::Error for DesignError {}

/// Largest `x ∈ [lo, hi]` with `f(x) ≤ eps`, assuming `f` is increasing,
/// and `f(x)` there. Returns `lo` if even `f(lo) > eps` (caller checks
/// feasibility after). Three significant digits of `x` are plenty for
/// window parameters.
fn largest_feasible(mut f: impl FnMut(f64) -> f64, lo: f64, hi: f64, eps: f64) -> (f64, f64) {
    let f_hi = f(hi);
    if f_hi <= eps {
        return (hi, f_hi);
    }
    let f_lo = f(lo);
    if f_lo > eps {
        return (lo, f_lo);
    }
    let (mut lo, mut hi, mut f_lo) = (lo, hi, f_lo);
    for _ in 0..40 {
        if hi - lo <= 1e-3 * hi.abs() {
            break;
        }
        let mid = 0.5 * (lo + hi);
        let f_mid = f(mid);
        if f_mid <= eps {
            (lo, f_lo) = (mid, f_mid);
        } else {
            hi = mid;
        }
    }
    (lo, f_lo)
}

/// Search the two-parameter family for the cheapest design meeting
/// `target` relative accuracy at oversampling `beta`, with condition
/// number at most `kappa_max`.
pub fn design_two_param(
    beta: f64,
    target: f64,
    kappa_max: f64,
) -> Result<WindowDesign<TwoParamWindow>, DesignError> {
    // The searches are deterministic in their inputs and invoked all over
    // the test suite and harnesses — memoize globally.
    use std::sync::Mutex;
    use std::collections::HashMap;
    type Key = (u64, u64, u64);
    type CacheVal = Result<WindowDesign<TwoParamWindow>, DesignError>;
    static CACHE: Mutex<Option<HashMap<Key, CacheVal>>> = Mutex::new(None);
    let key = (beta.to_bits(), target.to_bits(), kappa_max.to_bits());
    if let Some(hit) = CACHE
        .lock()
        .expect("design cache poisoned")
        .get_or_insert_with(HashMap::new)
        .get(&key)
    {
        return hit.clone();
    }
    let result = design_two_param_uncached(beta, target, kappa_max);
    CACHE
        .lock()
        .expect("design cache poisoned")
        .get_or_insert_with(HashMap::new)
        .insert(key, result.clone());
    result
}

fn design_two_param_uncached(
    beta: f64,
    target: f64,
    kappa_max: f64,
) -> Result<WindowDesign<TwoParamWindow>, DesignError> {
    if !(target > 0.0 && target < 1.0) {
        return Err(DesignError::BadRequest(format!(
            "target must be in (0,1), got {target}"
        )));
    }
    if beta < 0.0 || beta > 2.0 {
        return Err(DesignError::BadRequest(format!(
            "beta must be in [0,2], got {beta}"
        )));
    }
    if kappa_max < 1.0 {
        return Err(DesignError::BadRequest(format!(
            "kappa_max must be ≥ 1, got {kappa_max}"
        )));
    }
    let max_b = 160;
    let mut b = 8;
    while b <= max_b {
        // Anchor: largest σ whose truncation at this B meets the target
        // for a typical plateau width (the sinc factor from τ speeds H's
        // decay, so candidates near/above this anchor can still pass the
        // per-candidate truncation check below).
        let (sigma_base, _) = largest_feasible(
            |s| trunc_error(&TwoParamWindow::new(0.7, s), b),
            1.0,
            1e6,
            target,
        );
        // κ(σ) at fixed B is U-shaped: small σ starves the plateau
        // (aliasing forces τ down), large σ buries Ĥ(±1/2) in the sharp
        // falloff. Sample the feasible σ range and keep the κ-minimizing
        // candidate.
        let mut best: Option<WindowDesign<TwoParamWindow>> = None;
        for i in 0..12 {
            // σ_base·1.6 down to σ_base·0.35, geometrically. The τ=0.7
            // anchor underestimates what a wide plateau's sinc factor
            // allows, so candidates above σ_base are worth probing; the
            // per-candidate truncation check below rejects overshoots.
            let sigma = sigma_base * 1.6 * (0.22f64).powf(i as f64 / 11.0);
            let (tau, al) = largest_feasible(
                |t| alias_error(&TwoParamWindow::new(t, sigma), beta),
                0.02,
                1.0 + beta,
                target,
            );
            let w = TwoParamWindow::new(tau, sigma);
            let tr = trunc_error(&w, b);
            if al > target || tr > target {
                continue;
            }
            let k = kappa(&w);
            if k > kappa_max {
                continue;
            }
            if best.as_ref().is_none_or(|d| k < d.kappa) {
                best = Some(WindowDesign {
                    window: w,
                    b,
                    beta,
                    kappa: k,
                    alias: al,
                    trunc: tr,
                    target,
                });
            }
        }
        if let Some(d) = best {
            return Ok(d);
        }
        b += if b < 40 { 4 } else { 8 };
    }
    Err(DesignError::Infeasible { target, beta })
}

/// Search the one-parameter Gaussian family (§8). Often infeasible at
/// tight targets/small β — exactly the paper's point.
pub fn design_gaussian(
    beta: f64,
    target: f64,
    kappa_max: f64,
) -> Result<WindowDesign<GaussianWindow>, DesignError> {
    use std::sync::Mutex;
    use std::collections::HashMap;
    type Key = (u64, u64, u64);
    type CacheVal = Result<WindowDesign<GaussianWindow>, DesignError>;
    static CACHE: Mutex<Option<HashMap<Key, CacheVal>>> = Mutex::new(None);
    let key = (beta.to_bits(), target.to_bits(), kappa_max.to_bits());
    if let Some(hit) = CACHE
        .lock()
        .expect("design cache poisoned")
        .get_or_insert_with(HashMap::new)
        .get(&key)
    {
        return hit.clone();
    }
    let result = design_gaussian_uncached(beta, target, kappa_max);
    CACHE
        .lock()
        .expect("design cache poisoned")
        .get_or_insert_with(HashMap::new)
        .insert(key, result.clone());
    result
}

fn design_gaussian_uncached(
    beta: f64,
    target: f64,
    kappa_max: f64,
) -> Result<WindowDesign<GaussianWindow>, DesignError> {
    if !(target > 0.0 && target < 1.0) {
        return Err(DesignError::BadRequest(format!(
            "target must be in (0,1), got {target}"
        )));
    }
    // One knob: κ = e^{σ/4} grows with σ while aliasing shrinks, so the
    // best design takes the SMALLEST σ that meets the aliasing target,
    // then buys truncation with B (which is free of κ).
    let al_at = |s: f64| alias_error(&GaussianWindow::new(s), beta);
    if al_at(1e6) > target {
        return Err(DesignError::Infeasible { target, beta });
    }
    // Bisect the decreasing aliasing curve for its crossing point.
    let (mut lo, mut hi) = (0.5f64, 1e6f64);
    if al_at(lo) > target {
        for _ in 0..60 {
            if hi - lo <= 1e-3 * hi {
                break;
            }
            let mid = 0.5 * (lo + hi);
            if al_at(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    } else {
        hi = lo;
    }
    let sigma = hi;
    let w = GaussianWindow::new(sigma);
    let k = kappa(&w);
    if k > kappa_max {
        return Err(DesignError::Infeasible { target, beta });
    }
    let al = alias_error(&w, beta);
    let max_b = 160;
    let mut b = 8;
    while b <= max_b {
        let tr = trunc_error(&w, b);
        if tr <= target {
            return Ok(WindowDesign {
                window: w,
                b,
                beta,
                kappa: k,
                alias: al,
                trunc: tr,
                target,
            });
        }
        b += if b < 40 { 4 } else { 8 };
    }
    Err(DesignError::Infeasible { target, beta })
}

/// Search the compact-support bump family (§8): `u_max = 1/2 + β` pins
/// aliasing to exactly zero, leaving one knob — the plateau width τ —
/// trading κ (wants τ large) against the dual's decay rate, i.e. B
/// (wants τ small, a wide transition band).
pub fn design_compact(
    beta: f64,
    target: f64,
    kappa_max: f64,
) -> Result<WindowDesign<crate::family::CompactBumpWindow>, DesignError> {
    use crate::family::CompactBumpWindow;
    use std::sync::Mutex;
    use std::collections::HashMap;
    type Key = (u64, u64, u64);
    type CacheVal = Result<WindowDesign<CompactBumpWindow>, DesignError>;
    static CACHE: Mutex<Option<HashMap<Key, CacheVal>>> = Mutex::new(None);
    let key = (beta.to_bits(), target.to_bits(), kappa_max.to_bits());
    if let Some(hit) = CACHE
        .lock()
        .expect("design cache poisoned")
        .get_or_insert_with(HashMap::new)
        .get(&key)
    {
        return hit.clone();
    }
    let result = design_compact_uncached(beta, target, kappa_max);
    CACHE
        .lock()
        .expect("design cache poisoned")
        .get_or_insert_with(HashMap::new)
        .insert(key, result.clone());
    result
}

fn design_compact_uncached(
    beta: f64,
    target: f64,
    kappa_max: f64,
) -> Result<WindowDesign<crate::family::CompactBumpWindow>, DesignError> {
    use crate::family::CompactBumpWindow;
    if !(target > 0.0 && target < 1.0) {
        return Err(DesignError::BadRequest(format!(
            "target must be in (0,1), got {target}"
        )));
    }
    if beta <= 0.0 {
        return Err(DesignError::BadRequest(
            "compact window needs beta > 0 (its support must exceed the passband)".into(),
        ));
    }
    let u_max = 0.5 + beta;
    let mut b = 8;
    while b <= 160 {
        let mut best: Option<WindowDesign<CompactBumpWindow>> = None;
        for i in [1usize, 2, 3, 5, 7] {
            let tau = 2.0 * u_max * i as f64 / 10.0; // plateau 10%..70% of support
            let w = CompactBumpWindow::new(tau, u_max);
            let tr = trunc_error(&w, b);
            if tr > target {
                continue;
            }
            let k = kappa(&w);
            if k > kappa_max {
                continue;
            }
            if best.as_ref().is_none_or(|d| k < d.kappa) {
                best = Some(WindowDesign {
                    window: w,
                    b,
                    beta,
                    kappa: k,
                    alias: 0.0,
                    trunc: tr,
                    target,
                });
            }
        }
        if let Some(d) = best {
            return Ok(d);
        }
        b += if b < 40 { 8 } else { 16 };
    }
    Err(DesignError::Infeasible { target, beta })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_design_has_zero_aliasing_by_construction() {
        let d = design_compact(0.25, 1e-6, 1000.0).expect("feasible");
        assert_eq!(d.alias, 0.0);
        assert!(d.trunc <= 1e-6);
        assert!(d.kappa <= 1000.0);
        assert_eq!(d.window.u_max, 0.75);
    }

    #[test]
    fn compact_needs_bigger_b_than_two_param() {
        // C∞-but-not-analytic decay (≈e^{−c√t}) loses decisively to the
        // Gaussian-smoothed family on support length — the §8
        // locality/decay tradeoff: zero aliasing is paid for in B.
        let compact = design_compact(0.25, 1e-6, 1000.0).unwrap();
        let smooth = design_two_param(0.25, 1e-6, 1000.0).unwrap();
        assert!(
            compact.b > 2 * smooth.b,
            "compact B {} vs two-param B {}",
            compact.b,
            smooth.b
        );
    }

    #[test]
    fn compact_rejects_zero_beta() {
        assert!(matches!(
            design_compact(0.0, 1e-8, 1000.0),
            Err(DesignError::BadRequest(_))
        ));
    }

    #[test]
    fn full_accuracy_design_at_quarter_oversampling() {
        // The paper's headline operating point: β = 1/4, ε ≈ roundoff,
        // B = 72. Our search should land in the same neighbourhood.
        let d = design_two_param(0.25, 1e-15, 1000.0).expect("feasible");
        assert!(
            (48..=96).contains(&d.b),
            "B = {} not near the paper's 72",
            d.b
        );
        assert!(d.kappa <= 1000.0);
        assert!(d.alias <= 1e-15);
        assert!(d.trunc <= 1e-15);
    }

    #[test]
    fn relaxed_accuracy_needs_smaller_b() {
        let full = design_two_param(0.25, 1e-15, 1000.0).unwrap();
        let ten_digits = design_two_param(0.25, 1e-10, 1000.0).unwrap();
        let six_digits = design_two_param(0.25, 1e-6, 1000.0).unwrap();
        assert!(
            ten_digits.b < full.b,
            "10-digit B {} !< full B {}",
            ten_digits.b,
            full.b
        );
        assert!(six_digits.b <= ten_digits.b);
    }

    #[test]
    fn larger_beta_needs_smaller_b() {
        let quarter = design_two_param(0.25, 1e-12, 1000.0).unwrap();
        let half = design_two_param(0.5, 1e-12, 1000.0).unwrap();
        assert!(half.b <= quarter.b, "{} vs {}", half.b, quarter.b);
    }

    #[test]
    fn gaussian_family_caps_out_as_the_paper_claims() {
        // §8: "the accuracy will be limited to 10 digits at best if β is
        // kept at 1/4" for the one-parameter Gaussian. The single knob σ
        // must fight for aliasing (wants σ large) and conditioning (wants
        // σ small, since κ = e^{σ/4}); the balance point sits near 10
        // digits: reaching ~1e-10 aliasing costs κ ≈ 3·10⁴, whose
        // κ·ε_f64 error floor is itself ≈ 1e-11.
        let full = design_gaussian(0.25, 1e-14, 1000.0);
        assert!(full.is_err(), "Gaussian should not reach 14 digits at β=1/4");
        // Even a generous κ budget cannot rescue full accuracy: meeting
        // 1e-14 aliasing costs κ near 10⁶, whose κ·ε_f64 floor alone is
        // ~10⁻¹⁰ — so "14 digits" is unreachable end-to-end either way.
        match design_gaussian(0.25, 1e-14, 1e6) {
            Err(_) => {}
            Ok(d) => assert!(
                d.kappa * f64::EPSILON > 1e-12,
                "a κ = {:.1e} design would actually deliver 14 digits",
                d.kappa
            ),
        }
        // ~10 digits is reachable, but only by paying a conditioning
        // penalty orders of magnitude beyond the two-parameter family's.
        let ten = design_gaussian(0.25, 1e-10, 1e6).expect("10 digits feasible");
        assert!(
            ten.kappa > 1e3,
            "Gaussian κ at 10 digits should be huge, got {:.1e}",
            ten.kappa
        );
        // The two-parameter family reaches the same target with a κ two
        // orders of magnitude smaller (κ ≤ 100 is routinely feasible).
        let two = design_two_param(0.25, 1e-10, 100.0).expect("two-param 10 digits");
        assert!(
            ten.kappa > 10.0 * two.kappa,
            "conditioning gap: gaussian {:.1e} vs two-param {:.1e}",
            ten.kappa,
            two.kappa
        );
        // But at β = 1 full accuracy becomes possible with moderate κ
        // (§8: "would require β be set to 1").
        let beta1 = design_gaussian(1.0, 1e-14, 1000.0);
        assert!(beta1.is_ok(), "Gaussian at β=1 should reach full accuracy");
    }

    #[test]
    fn bad_requests_rejected() {
        assert!(matches!(
            design_two_param(0.25, 0.0, 1000.0),
            Err(DesignError::BadRequest(_))
        ));
        assert!(matches!(
            design_two_param(-0.1, 1e-10, 1000.0),
            Err(DesignError::BadRequest(_))
        ));
        assert!(matches!(
            design_two_param(0.25, 1e-10, 0.5),
            Err(DesignError::BadRequest(_))
        ));
    }

    #[test]
    fn predicted_error_is_kappa_scaled() {
        let d = design_two_param(0.25, 1e-12, 1000.0).unwrap();
        assert!(d.predicted_error() >= d.kappa * f64::EPSILON);
        assert!(d.predicted_error() < 1e-8);
    }

    #[test]
    fn display_of_errors() {
        let e = DesignError::Infeasible {
            target: 1e-20,
            beta: 0.25,
        };
        assert!(e.to_string().contains("1e-20"));
    }
}
