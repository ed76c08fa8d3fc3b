//! Codelet introspection: which butterfly kernels a plan dispatches to.
//!
//! Every engine reports the list of butterfly codelets its execution
//! path runs through. The distinction that matters for performance (and
//! that tests assert on) is hand-written codelet vs the generic `O(r²)`
//! fallback butterfly: the paper's §7.4 tuning story only holds when the
//! dominant factors (2/4/8 for the power-of-two sizes, 5 and 7 for the
//! oversampled `M' = M·μ/ν` sizes) run dedicated kernels.

use std::fmt;

/// One butterfly kernel in an engine's dispatch table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Codelet {
    /// Hand-written radix-2 butterfly.
    Radix2,
    /// Hand-written radix-3 butterfly.
    Radix3,
    /// Hand-written radix-4 butterfly.
    Radix4,
    /// Hand-written radix-5 butterfly (real-symmetric half-complexity).
    Radix5,
    /// Hand-written radix-7 butterfly (real-symmetric half-complexity).
    Radix7,
    /// Hand-written radix-8 butterfly (Stockham stages).
    Radix8,
    /// The generic `O(r²)` dense butterfly for the contained radix.
    Generic(usize),
}

impl Codelet {
    /// The radix this codelet combines.
    pub fn radix(self) -> usize {
        match self {
            Codelet::Radix2 => 2,
            Codelet::Radix3 => 3,
            Codelet::Radix4 => 4,
            Codelet::Radix5 => 5,
            Codelet::Radix7 => 7,
            Codelet::Radix8 => 8,
            Codelet::Generic(r) => r,
        }
    }

    /// True for the dense fallback butterfly.
    pub fn is_generic(self) -> bool {
        matches!(self, Codelet::Generic(_))
    }

    /// The codelet a mixed-radix level of radix `r` dispatches to. Must
    /// mirror the `match` in `MixedRadixFft::rec` exactly (pinned by a
    /// test there).
    pub fn for_mixed_radix(r: usize) -> Codelet {
        match r {
            2 => Codelet::Radix2,
            3 => Codelet::Radix3,
            4 => Codelet::Radix4,
            5 => Codelet::Radix5,
            7 => Codelet::Radix7,
            r => Codelet::Generic(r),
        }
    }
}

impl fmt::Display for Codelet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Codelet::Generic(r) => write!(f, "generic({r})"),
            other => write!(f, "r{}", other.radix()),
        }
    }
}

/// Which implementation of a codelet an engine's execution path actually
/// runs: the runtime-dispatched SIMD kernel or the portable scalar one.
///
/// Dispatch is decided once at plan-construction time from the CPU
/// feature set (and the `SOI_NO_SIMD` ablation knob), so a given plan
/// reports — and executes — the same dispatch for its whole lifetime:
/// that is what makes SIMD execution bitwise reproducible run-to-run and
/// across worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dispatch {
    /// 256-bit AVX2 + FMA kernel (2 complex `f64` per register).
    Avx2Fma,
    /// Portable scalar kernel (the ablation / non-x86 fallback).
    Portable,
}

impl Dispatch {
    /// Short name, matching the conv kernel's report strings.
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Avx2Fma => "avx2+fma",
            Dispatch::Portable => "portable",
        }
    }

    /// True for any vectorized dispatch.
    pub fn is_simd(self) -> bool {
        self != Dispatch::Portable
    }
}

impl fmt::Display for Dispatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Deduplicate and sort a codelet list (helper for engines assembling
/// reports from per-stage radices).
pub fn dedup(mut v: Vec<Codelet>) -> Vec<Codelet> {
    v.sort();
    v.dedup();
    v
}

/// Deduplicate and sort a per-stage `(codelet, dispatch)` report. A
/// codelet can legitimately appear twice with different dispatches (e.g.
/// a radix-4 level vectorized at one depth and scalar at another), so
/// pairs — not codelets — are the dedup key.
pub fn dedup_dispatch(mut v: Vec<(Codelet, Dispatch)>) -> Vec<(Codelet, Dispatch)> {
    v.sort();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_roundtrip_and_generic_flag() {
        for (c, r) in [
            (Codelet::Radix2, 2),
            (Codelet::Radix3, 3),
            (Codelet::Radix4, 4),
            (Codelet::Radix5, 5),
            (Codelet::Radix7, 7),
            (Codelet::Radix8, 8),
            (Codelet::Generic(11), 11),
        ] {
            assert_eq!(c.radix(), r);
            assert_eq!(c.is_generic(), matches!(c, Codelet::Generic(_)));
        }
    }

    #[test]
    fn mixed_radix_dispatch_table() {
        assert_eq!(Codelet::for_mixed_radix(5), Codelet::Radix5);
        assert_eq!(Codelet::for_mixed_radix(7), Codelet::Radix7);
        assert_eq!(Codelet::for_mixed_radix(11), Codelet::Generic(11));
    }

    #[test]
    fn display_and_dedup() {
        assert_eq!(Codelet::Radix5.to_string(), "r5");
        assert_eq!(Codelet::Generic(13).to_string(), "generic(13)");
        let v = dedup(vec![Codelet::Radix4, Codelet::Radix2, Codelet::Radix4]);
        assert_eq!(v, vec![Codelet::Radix2, Codelet::Radix4]);
    }

    #[test]
    fn dispatch_names_and_dedup() {
        assert_eq!(Dispatch::Avx2Fma.name(), "avx2+fma");
        assert_eq!(Dispatch::Portable.to_string(), "portable");
        assert!(Dispatch::Avx2Fma.is_simd());
        assert!(!Dispatch::Portable.is_simd());
        // Same codelet under two dispatches survives the dedup; exact
        // duplicates collapse.
        let v = dedup_dispatch(vec![
            (Codelet::Radix4, Dispatch::Portable),
            (Codelet::Radix4, Dispatch::Avx2Fma),
            (Codelet::Radix4, Dispatch::Avx2Fma),
        ]);
        assert_eq!(
            v,
            vec![
                (Codelet::Radix4, Dispatch::Avx2Fma),
                (Codelet::Radix4, Dispatch::Portable),
            ]
        );
    }
}
