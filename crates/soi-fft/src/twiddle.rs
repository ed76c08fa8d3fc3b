//! Twiddle-factor tables.
//!
//! All engines in this crate share the convention that the *forward*
//! transform uses `ω_N = exp(−2πi/N)` (the paper's convention in §3) and
//! the inverse uses the conjugate. Tables are computed once per plan with
//! per-element `sin_cos` so no error accumulates across the table (no
//! repeated multiplication recurrences).

use soi_num::Complex64;

/// Transform direction. Determines the sign of the twiddle exponent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// `exp(−2πi/N)` — the forward DFT.
    Forward,
    /// `exp(+2πi/N)` — the inverse DFT (unnormalized).
    Inverse,
}

impl Sign {
    /// The twiddle `exp(∓2πi·k/n)` for this direction.
    #[inline]
    pub fn root(self, k: usize, n: usize) -> Complex64 {
        let w = Complex64::root_of_unity(k, n);
        match self {
            Sign::Forward => w,
            Sign::Inverse => w.conj(),
        }
    }

    /// Flip direction.
    #[inline]
    pub fn opposite(self) -> Sign {
        match self {
            Sign::Forward => Sign::Inverse,
            Sign::Inverse => Sign::Forward,
        }
    }
}

/// Per-stage twiddles for the Stockham engines: stage `s` of a radix-`r`
/// decimation-in-frequency pass over size `n` needs `ω_n^{p·c}` for
/// `p < n/r`, `c < r`.
#[derive(Debug, Clone)]
pub struct StageTwiddles {
    /// `tw[p*(r-1) + (c-1)] = ω_n^{p·c}` for `c in 1..r`.
    pub tw: Vec<Complex64>,
    /// Sub-transform count for this stage (`n/r`).
    pub m: usize,
    /// Radix of the stage.
    pub radix: usize,
}

impl StageTwiddles {
    /// Build the twiddles for one DIF stage of size `n`, radix `r`.
    pub fn new(n: usize, r: usize, sign: Sign) -> Self {
        assert!(n % r == 0, "stage size {n} not divisible by radix {r}");
        let m = n / r;
        let mut tw = Vec::with_capacity(m * (r - 1));
        for p in 0..m {
            for c in 1..r {
                tw.push(sign.root(p * c, n));
            }
        }
        Self { tw, m, radix: r }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_num::Complex64;

    #[test]
    fn stage_twiddles_layout() {
        let s = StageTwiddles::new(8, 2, Sign::Forward);
        assert_eq!(s.m, 4);
        assert_eq!(s.tw.len(), 4);
        for p in 0..4 {
            let want = Complex64::root_of_unity(p, 8);
            assert!((s.tw[p] - want).abs() < 1e-15);
        }
        let s4 = StageTwiddles::new(16, 4, Sign::Forward);
        assert_eq!(s4.m, 4);
        assert_eq!(s4.tw.len(), 12);
        // Entry (p=2, c=3) sits at 2*3 + 2 and equals ω_16^6.
        let want = Complex64::root_of_unity(6, 16);
        assert!((s4.tw[2 * 3 + 2] - want).abs() < 1e-15);
    }

    #[test]
    fn sign_opposite() {
        assert_eq!(Sign::Forward.opposite(), Sign::Inverse);
        assert_eq!(Sign::Inverse.opposite(), Sign::Forward);
    }
}
