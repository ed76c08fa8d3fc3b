//! Convolution coefficients and demodulation weights.
//!
//! ## Derivation (from §4–5 of the paper)
//!
//! The problem-size-specific window is configured from the reference
//! window by translation, dilation and phase shift:
//!
//! ```text
//! ŵ(u) = exp(iπ·BPu/N) · Ĥ((u − M/2)/M)           (§4)
//! ```
//!
//! With `N = MP` the phase simplifies to `exp(iπBu/M)`. Its inverse
//! Fourier transform (substituting `u = Mv + M/2`) is
//!
//! ```text
//! w(t) = M · exp(iπ·θ(t)) · H(θ(t)),    θ(t) = M·t + B/2,
//! ```
//!
//! so `w` is supported (to truncation accuracy) on `θ ∈ [−B/2, B/2]`, i.e.
//! `t ∈ [−B/M, 0]` — each convolution output reads `B` blocks of `P`
//! inputs starting at its own position.
//!
//! The matrix entries are `c_{j,ℓ} = (1/M') Σ_m w(j/M' − ℓ/N − m)`
//! (Eq. 4). Writing `ℓ = (k₀(j)+b)·P + s` with `k₀(j) = ⌊jν/μ⌋`:
//!
//! ```text
//! θ(j,b,s) = frac(jν/μ) + B/2 − b − s/P
//! c        = (ν/μ) · exp(iπθ) · H(θ)
//! ```
//!
//! which depends on `j` only through `j mod μ` — the `μPB` distinct
//! elements of Fig 4 ("The entire matrix has μPB distinct elements").
//!
//! ## Real taps and a row/lane phase
//!
//! `H` is real (every window family's time-domain dual is), and the
//! phase `e^{iπθ}` splits along `θ`'s three terms:
//!
//! ```text
//! e^{iπθ} = i^B · e^{iπ(frac(rν/μ) − s/P)} · (−1)^b
//! c[r,b,s] = Φ[r,s] · g[r,b,s],   g = (−1)^b·(ν/μ)·H(θ),   Φ = i^B·e^{iπ(frac(rν/μ) − s/P)}
//! ```
//!
//! so the tables hold `μ·(B+1)·P` real taps `g` and `μ·P` phases `Φ`. Each
//! convolution output `Σ_b c·x = Φ·Σ_b g·x` then costs one real
//! multiply-add per tap and sample component, plus one complex multiply.
//! `Φ` is evaluated at a reduced argument: `i^B` is an exact quarter
//! turn, and `π·(frac − s/P)` lies in `(−π, π)`.
//!
//! Demodulation divides bin `k` by `ŵ(k)` (§3: `y⁽⁰⁾ ≈ Ŵ⁻¹·P_proj·ỹ`).

use crate::params::SoiConfig;
use soi_num::{AlignedBuf, Complex64};
use soi_window::family::Window;

/// Precomputed tables for one SOI configuration.
#[derive(Debug, Clone)]
pub struct ConvCoefficients {
    /// Real window taps `g[r,b,s]`, laid out `[(r·(B+1) + b)·P + s]` for
    /// row residue `r < μ`, tap block `b ≤ B`, lane `s < P`. The portable
    /// kernels and the real-input AVX2 kernel read it.
    pub(crate) taps: AlignedBuf<f64>,
    /// `taps` with every value written twice (`[g₀ g₀ g₁ g₁ …]`), so one
    /// 256-bit load holds a lane pair's taps for both components of two
    /// complex samples. The complex AVX2 kernels read it (18.5 KB at
    /// Digits10, `P = 8`).
    pub(crate) taps_dup: AlignedBuf<f64>,
    /// Row/lane phases `Φ[r,s]`, laid out `[r·P + s]`.
    pub(crate) phases: AlignedBuf<Complex64>,
    /// Demodulation weights `1/ŵ(k)` for `k < M`.
    pub demod: AlignedBuf<Complex64>,
    mu: usize,
    b: usize,
    p: usize,
}

impl ConvCoefficients {
    /// Build the tables for a resolved configuration. The block loop runs
    /// over `taps = B+1` blocks so the designed support `[−B/2, B/2]` is
    /// fully covered for every row residue (see `SoiConfig::taps`).
    pub fn new(cfg: &SoiConfig) -> Self {
        let (mu, nu, b, p) = (cfg.mu, cfg.nu, cfg.b, cfg.p);
        let taps = cfg.taps();
        let scale = nu as f64 / mu as f64;
        let mut g = Vec::with_capacity(mu * taps * p);
        let mut phases = Vec::with_capacity(mu * p);
        for r in 0..mu {
            // frac(r·ν/μ) computed exactly in rationals.
            let num = r * nu % mu;
            let frac = num as f64 / mu as f64;
            for blk in 0..taps {
                for s in 0..p {
                    let theta = frac + b as f64 / 2.0 - blk as f64 - s as f64 / p as f64;
                    let h = cfg.window.h_time(theta) * scale;
                    g.push(if blk % 2 == 0 { h } else { -h });
                }
            }
            for s in 0..p {
                // frac − s/P = (num·P − s·μ)/(μ·P), one rounding.
                let reduced = (num * p) as f64 - (s * mu) as f64;
                let phi = Complex64::cis(std::f64::consts::PI * (reduced / (mu * p) as f64));
                phases.push(quarter_turns(phi, b));
            }
        }
        let dup: Vec<f64> = g.iter().flat_map(|&t| [t, t]).collect();
        let demod: Vec<Complex64> = (0..cfg.m).map(|k| w_hat(cfg, k as f64).inv()).collect();
        Self {
            taps: AlignedBuf::from_slice(&g),
            taps_dup: AlignedBuf::from_slice(&dup),
            phases: AlignedBuf::from_slice(&phases),
            demod: AlignedBuf::from_slice(&demod),
            mu,
            b: taps,
            p,
        }
    }

    /// The real tap `g[r, blk, s]`.
    #[inline]
    pub fn tap(&self, r: usize, blk: usize, s: usize) -> f64 {
        self.taps[(r * self.b + blk) * self.p + s]
    }

    /// The row/lane phase `Φ[r, s]`.
    #[inline]
    pub fn phase(&self, r: usize, s: usize) -> Complex64 {
        self.phases[r * self.p + s]
    }

    /// The matrix coefficient `c[r, blk, s] = Φ[r, s]·g[r, blk, s]` (Eq. 4),
    /// formed from the two tables.
    #[inline]
    pub fn coefficient(&self, r: usize, blk: usize, s: usize) -> Complex64 {
        self.phase(r, s).scale(self.tap(r, blk, s))
    }

    /// Number of distinct coefficients (`μPB`, the Fig 4 count).
    pub fn distinct(&self) -> usize {
        self.taps.len()
    }

    /// Total table memory in bytes (taps in both layouts, phases and
    /// demodulation).
    pub fn memory_bytes(&self) -> usize {
        (self.taps.len() + self.taps_dup.len()) * std::mem::size_of::<f64>()
            + (self.phases.len() + self.demod.len()) * std::mem::size_of::<Complex64>()
    }

    /// μ (row residues in the table).
    pub fn mu(&self) -> usize {
        self.mu
    }

    /// Tap blocks per row (`B+1`, see `SoiConfig::taps`).
    pub fn b(&self) -> usize {
        self.b
    }

    /// P (lanes per block).
    pub fn p(&self) -> usize {
        self.p
    }
}

/// `z·i^k`, exactly: a quarter turn is a swap and a sign change.
fn quarter_turns(z: Complex64, k: usize) -> Complex64 {
    match k % 4 {
        0 => z,
        1 => z.mul_i(),
        2 => -z,
        _ => z.mul_neg_i(),
    }
}

/// The problem-specific window `ŵ(u) = e^{iπBu/M}·Ĥ((u−M/2)/M)` (for real
/// `u`, typically a bin index).
pub fn w_hat(cfg: &SoiConfig, u: f64) -> Complex64 {
    let m = cfg.m as f64;
    let phase = std::f64::consts::PI * cfg.b as f64 * u / m;
    let mag = cfg.window.h_hat((u - m / 2.0) / m);
    Complex64::cis(phase).scale(mag)
}

/// The time-domain window `w(t) = M·e^{iπθ}·H(θ)`, `θ = Mt + B/2`.
pub fn w_time(cfg: &SoiConfig, t: f64) -> Complex64 {
    let theta = cfg.m as f64 * t + cfg.b as f64 / 2.0;
    Complex64::cis(std::f64::consts::PI * theta).scale(cfg.m as f64 * cfg.window.h_time(theta))
}

/// Oracle: the matrix entry `c_{j,ℓ}` by its definition (Eq. 4),
/// `(1/M') Σ_m w(j/M' − ℓ/N − m)` with the periodization shifts summed
/// explicitly. `O(1)` but slower than the table — used by tests.
pub fn coefficient_direct(cfg: &SoiConfig, j: usize, l: usize) -> Complex64 {
    let t0 = j as f64 / cfg.m_prime as f64 - l as f64 / cfg.n as f64;
    let mut acc = Complex64::ZERO;
    for m in -1..=1 {
        acc += w_time(cfg, t0 - m as f64);
    }
    acc.scale(1.0 / cfg.m_prime as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SoiParams;
    use soi_window::AccuracyPreset;

    fn small_cfg() -> SoiConfig {
        SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10)
            .unwrap()
            .resolve()
    }

    #[test]
    fn table_has_mu_p_b_distinct_elements() {
        let cfg = small_cfg();
        let c = ConvCoefficients::new(&cfg);
        // μ·P·taps distinct entries — Fig 4's μPB count plus the one
        // extra coverage block per row (SoiConfig::taps).
        assert_eq!(c.distinct(), cfg.mu * cfg.p * cfg.taps());
        assert_eq!(c.demod.len(), cfg.m);
        assert!(c.memory_bytes() > 0);
    }

    #[test]
    fn taps_dup_doubles_each_tap() {
        let cfg = small_cfg();
        let c = ConvCoefficients::new(&cfg);
        assert_eq!(c.taps_dup.len(), 2 * c.taps.len());
        for (q, t) in c.taps.iter().enumerate() {
            assert_eq!(c.taps_dup[2 * q].to_bits(), t.to_bits(), "{q}");
            assert_eq!(c.taps_dup[2 * q + 1].to_bits(), t.to_bits(), "{q}");
        }
        assert_eq!(c.phases.len(), cfg.mu * cfg.p);
        for ph in c.phases.iter() {
            assert!((ph.abs() - 1.0).abs() < 1e-15, "|Φ| = {}", ph.abs());
        }
    }

    #[test]
    fn table_matches_direct_definition() {
        // Every product Φ·g must equal c_{j,ℓ} from Eq. (4) for a j with
        // the right residue and its support blocks.
        let cfg = small_cfg();
        let c = ConvCoefficients::new(&cfg);
        for j in [0usize, 1, 2, 3, 4, 7, 11, cfg.mu * 3 + 2] {
            let r = j % cfg.mu;
            let k0 = j * cfg.nu / cfg.mu;
            for blk in [0usize, 1, cfg.b / 2, cfg.b - 1] {
                for s in [0usize, 1, cfg.p - 1] {
                    let l = (k0 + blk) * cfg.p + s;
                    if l >= cfg.n {
                        continue;
                    }
                    let want = coefficient_direct(&cfg, j, l);
                    let got = c.coefficient(r, blk, s);
                    assert!(
                        (got - want).abs() < 1e-15 + 1e-12 * want.abs(),
                        "j={j} blk={blk} s={s}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn periodicity_across_mu_rows() {
        // c_{j+μ, ℓ+νP} = c_{j,ℓ} (§4: "C0 is completely determined by its
        // first μ rows").
        let cfg = small_cfg();
        for j in 0..cfg.mu {
            for blk in [0usize, 2, cfg.b - 1] {
                let l = (j * cfg.nu / cfg.mu + blk) * cfg.p + 1;
                let a = coefficient_direct(&cfg, j, l);
                let b = coefficient_direct(&cfg, j + cfg.mu, l + cfg.nu * cfg.p);
                assert!((a - b).abs() < 1e-15 + 1e-12 * a.abs(), "j={j} blk={blk}");
            }
        }
    }

    #[test]
    fn coefficients_outside_support_are_negligible() {
        // c_{j,ℓ} for ℓ far from the support window must be ~ε_trunc.
        let cfg = small_cfg();
        let j = 10;
        let k0 = j * cfg.nu / cfg.mu;
        let peak = coefficient_direct(&cfg, j, k0 * cfg.p).abs();
        let far = coefficient_direct(&cfg, j, ((k0 + 2 * cfg.b) * cfg.p) % cfg.n).abs();
        assert!(
            far < peak * 1e-6,
            "support leak: far {far:e} vs peak {peak:e}"
        );
    }

    #[test]
    fn demod_is_reciprocal_of_w_hat() {
        let cfg = small_cfg();
        let c = ConvCoefficients::new(&cfg);
        for k in [0usize, 1, cfg.m / 2, cfg.m - 1] {
            let prod = c.demod[k] * w_hat(&cfg, k as f64);
            assert!((prod - Complex64::ONE).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn w_hat_magnitude_matches_reference_window() {
        let cfg = small_cfg();
        // |ŵ(k)| on [0, M−1] corresponds to |Ĥ| on ≈[−1/2, 1/2] (§4).
        let mid = w_hat(&cfg, cfg.m as f64 / 2.0).abs();
        assert!((mid - cfg.window.h_hat(0.0)).abs() < 1e-12);
        let edge = w_hat(&cfg, 0.0).abs();
        assert!((edge - cfg.window.h_hat(-0.5)).abs() < 1e-12);
        // Outside (−δ−1, M') the window is tiny.
        let outside = w_hat(&cfg, cfg.m_prime as f64 + 1.0).abs();
        assert!(outside < mid * 1e-8, "outside = {outside:e}");
    }

    #[test]
    fn w_time_support_is_b_blocks() {
        let cfg = small_cfg();
        // |w| at θ-center vs beyond the B/2 edge.
        let center = w_time(&cfg, -(cfg.b as f64) / (2.0 * cfg.m as f64)).abs();
        let beyond = w_time(&cfg, 2.0 * cfg.b as f64 / cfg.m as f64).abs();
        assert!(beyond < center * 1e-6, "beyond = {beyond:e} center = {center:e}");
    }
}
