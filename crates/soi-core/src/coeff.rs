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
//! Demodulation divides bin `k` by `ŵ(k)` (§3: `y⁽⁰⁾ ≈ Ŵ⁻¹·P_proj·ỹ`).

use crate::params::SoiConfig;
use soi_num::{AlignedBuf, Complex64};
use soi_window::family::Window;

/// Precomputed tables for one SOI configuration.
#[derive(Debug, Clone)]
pub struct ConvCoefficients {
    /// Distinct convolution coefficients, laid out `[(r·B + b)·P + s]` for
    /// row-residue `r < μ`, block `b < B`, lane `s < P` (μPB entries).
    /// The AVX2 kernels read it as interleaved `[re im re im]` pairs, so
    /// it is cache-line aligned.
    pub coef: AlignedBuf<Complex64>,
    /// The same taps as split planes for the real-input convolution: per
    /// row residue `r`, the `(B+1)·P` real parts, then the `(B+1)·P`
    /// imaginary parts, at `[r·2(B+1)P + part·(B+1)P + b·P + s]`.
    pub(crate) real_planes: AlignedBuf<f64>,
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
        let mut coef = Vec::with_capacity(mu * taps * p);
        for r in 0..mu {
            // frac(r·ν/μ) computed exactly in rationals.
            let frac = (r * nu % mu) as f64 / mu as f64;
            for blk in 0..taps {
                for s in 0..p {
                    let theta = frac + b as f64 / 2.0 - blk as f64 - s as f64 / p as f64;
                    let h = cfg.window.h_time(theta);
                    let phase = Complex64::cis(std::f64::consts::PI * theta);
                    coef.push(phase.scale(h * scale));
                }
            }
        }
        let mut real_planes = Vec::with_capacity(2 * coef.len());
        for row in coef.chunks_exact(taps * p) {
            real_planes.extend(row.iter().map(|c| c.re));
            real_planes.extend(row.iter().map(|c| c.im));
        }
        let demod: Vec<Complex64> = (0..cfg.m).map(|k| w_hat(cfg, k as f64).inv()).collect();
        Self {
            coef: AlignedBuf::from_slice(&coef),
            real_planes: AlignedBuf::from_slice(&real_planes),
            demod: AlignedBuf::from_slice(&demod),
            mu,
            b: taps,
            p,
        }
    }

    /// Coefficient row for residue `r`, block `b`: a `P`-lane slice.
    #[inline]
    pub fn lane_row(&self, r: usize, blk: usize) -> &[Complex64] {
        let start = (r * self.b + blk) * self.p;
        &self.coef[start..start + self.p]
    }

    /// Number of distinct coefficients (`μPB`, the Fig 4 count).
    pub fn distinct(&self) -> usize {
        self.coef.len()
    }

    /// Total table memory in bytes (coefficients in both layouts and
    /// demodulation).
    pub fn memory_bytes(&self) -> usize {
        (self.coef.len() + self.demod.len()) * std::mem::size_of::<Complex64>()
            + self.real_planes.len() * std::mem::size_of::<f64>()
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
    fn real_planes_split_each_residue_of_the_interleaved_table() {
        let cfg = small_cfg();
        let c = ConvCoefficients::new(&cfg);
        let bp = cfg.taps() * cfg.p;
        assert_eq!(c.real_planes.len(), 2 * c.coef.len());
        for (q, t) in c.coef.iter().enumerate() {
            let (r, i) = (q / bp, q % bp);
            assert_eq!(c.real_planes[2 * r * bp + i].to_bits(), t.re.to_bits(), "re {q}");
            assert_eq!(c.real_planes[(2 * r + 1) * bp + i].to_bits(), t.im.to_bits(), "im {q}");
        }
    }

    #[test]
    fn table_matches_direct_definition() {
        // Every table entry must equal c_{j,ℓ} from Eq. (4) for a j with
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
                    let got = c.lane_row(r, blk)[s];
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
