//! Named accuracy operating points.
//!
//! §7.2 runs SOI at full accuracy (SNR ≈ 290 dB, B = 72); Fig 7 then
//! trades accuracy for speed by relaxing the target, shrinking B. These
//! presets give the figure harnesses one switch for the whole sweep.

use crate::design::{design_two_param, DesignError, WindowDesign};
use crate::family::TwoParamWindow;

/// Accuracy operating points used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccuracyPreset {
    /// ≈14.5 digits / 290 dB — the paper's full-accuracy SOI (B = 72).
    Full,
    /// ≈13 digits / 260 dB.
    Digits13,
    /// ≈12 digits / 240 dB.
    Digits12,
    /// ≈11 digits / 220 dB.
    Digits11,
    /// ≈10 digits / 200 dB — the point where Fig 7 shows SOI beating MKL
    /// more than twofold.
    Digits10,
}

impl AccuracyPreset {
    /// All presets, tightest first (the Fig 7 sweep order).
    pub const ALL: [AccuracyPreset; 5] = [
        AccuracyPreset::Full,
        AccuracyPreset::Digits13,
        AccuracyPreset::Digits12,
        AccuracyPreset::Digits11,
        AccuracyPreset::Digits10,
    ];

    /// Relative-error target ε for the window design.
    pub fn target(self) -> f64 {
        match self {
            AccuracyPreset::Full => 1e-15,
            AccuracyPreset::Digits13 => 1e-13,
            AccuracyPreset::Digits12 => 1e-12,
            AccuracyPreset::Digits11 => 1e-11,
            AccuracyPreset::Digits10 => 1e-10,
        }
    }

    /// Nominal accuracy in decimal digits.
    pub fn digits(self) -> f64 {
        -self.target().log10()
    }

    /// Nominal SNR in dB (digits × 20).
    pub fn nominal_snr_db(self) -> f64 {
        self.digits() * 20.0
    }

    /// Display label matching the figure axes.
    pub fn label(self) -> &'static str {
        match self {
            AccuracyPreset::Full => "full (~14.5 digits)",
            AccuracyPreset::Digits13 => "13 digits",
            AccuracyPreset::Digits12 => "12 digits",
            AccuracyPreset::Digits11 => "11 digits",
            AccuracyPreset::Digits10 => "10 digits",
        }
    }

    /// Run the designer for this preset at oversampling `beta`.
    ///
    /// The κ cap is tighter than the paper's "moderate (for example, less
    /// than 10³)" ceiling: κ multiplies every error term, so keeping it
    /// below 10² costs a slightly larger B but keeps each preset's
    /// *end-to-end* accuracy at its nominal digit count.
    pub fn design(self, beta: f64) -> Result<WindowDesign<TwoParamWindow>, DesignError> {
        design_two_param(beta, self.target(), 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_design_successfully_at_quarter_beta() {
        for p in AccuracyPreset::ALL {
            let d = p.design(0.25).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert!(d.b >= 8, "{p:?}");
            assert!(d.kappa <= 1000.0, "{p:?}");
        }
    }

    #[test]
    fn b_decreases_monotonically_across_the_sweep() {
        let bs: Vec<usize> = AccuracyPreset::ALL
            .iter()
            .map(|p| p.design(0.25).unwrap().b)
            .collect();
        for w in bs.windows(2) {
            assert!(w[0] >= w[1], "B sequence not monotone: {bs:?}");
        }
        // Fig 7's performance gain comes from exactly this shrinkage.
        assert!(bs[0] > bs[4], "full B {} should exceed 10-digit B {}", bs[0], bs[4]);
    }

    /// Every preset's window at β = 1/4, bit for bit. A change to the
    /// kernels under the search (`erfc`, the quadratures) or to the search
    /// itself that moves a window fails here; a change that means to move
    /// the windows updates this table and says so.
    #[test]
    fn preset_designs_are_pinned_bitwise() {
        use AccuracyPreset::*;
        let pins = [
            (Full, 56, 0x3fea9fae147ae148, 0x406eb085f43dc5f2),
            (Digits13, 48, 0x3feb1aae147ae148, 0x406af3439f9dcf6c),
            (Digits12, 40, 0x3fe90c3d70a3d70a, 0x4064648a98636791),
            (Digits11, 36, 0x3fe8f88f5c28f5c2, 0x40623172a2d821d9),
            (Digits10, 28, 0x3fe5b9147ae147ae, 0x4059208f6e68f6d0),
        ];
        for (p, b, tau, sigma) in pins {
            let d = p.design(0.25).unwrap();
            assert_eq!(
                (d.b, d.window.tau.to_bits(), d.window.sigma.to_bits()),
                (b, tau, sigma),
                "{p:?}: B = {}, tau = {}, sigma = {}",
                d.b,
                d.window.tau,
                d.window.sigma
            );
        }
    }

    #[test]
    fn digit_and_db_labels_consistent() {
        assert_eq!(AccuracyPreset::Digits10.digits(), 10.0);
        assert_eq!(AccuracyPreset::Digits10.nominal_snr_db(), 200.0);
        assert_eq!(AccuracyPreset::Full.digits(), 15.0);
        assert!(AccuracyPreset::Full.label().contains("full"));
    }
}
