//! `erfc` against correctly rounded values.
//!
//! The oracle (`data/erfc_oracle.rs`) holds 513 points over [−6, 27.3]
//! with `erfc` evaluated by mpmath at 256 bits and rounded once to the
//! nearest double, as literal bit patterns; `scripts/erfc_oracle.py`
//! regenerates it. Most points are off the 1/32 grid that
//! `soi_num::special::erfc` expands about; the rest are the points just
//! above grid points (the longest Taylor step), the branch points ±1 and
//! ±6 of [`erfc_reference`], and the cut-off range 26.5–27.3 where `erfc`
//! falls through the subnormals to zero.

use soi_num::special::{erfc, erfc_reference};

include!("data/erfc_oracle.rs");

/// Below this the error is counted in ulps of `TINY`, i.e. absolutely:
/// values there are subnormal or nearly so, and both implementations
/// return 0 past 27.
const TINY: f64 = 1e-300;

/// `|got − want|` in units of the spacing of doubles at `want`
/// (at `TINY` for smaller values).
fn ulps(got: f64, want: f64) -> f64 {
    let a = want.abs().max(TINY);
    let ulp = f64::from_bits(a.to_bits() + 1) - a;
    (got - want).abs() / ulp
}

fn oracle() -> impl Iterator<Item = (f64, f64)> {
    ERFC_ORACLE
        .iter()
        .map(|&(x, y)| (f64::from_bits(x), f64::from_bits(y)))
}

/// The reference's branches and the band where it rounds `x²`: the
/// accuracy contract is checked band by band.
const BANDS: [(f64, f64); 5] = [
    (-6.0, -1.0),
    (-1.0, 1.0),
    (1.0, 6.0),
    (6.0, 12.0),
    (12.0, 27.0),
];

fn in_band(x: f64, (lo, hi): (f64, f64)) -> bool {
    // The last band is closed: 27 is the reference's last nonzero point.
    x >= lo && (x < hi || (hi == 27.0 && x == hi))
}

#[test]
fn oracle_covers_every_band_and_the_branch_points() {
    assert!(ERFC_ORACLE.len() >= 400, "{} points", ERFC_ORACLE.len());
    let off_grid = oracle().filter(|&(x, _)| (x * 32.0).fract() != 0.0).count();
    assert!(2 * off_grid > ERFC_ORACLE.len(), "{off_grid} off the grid");
    for band in BANDS {
        let n = oracle().filter(|&(x, _)| in_band(x, band)).count();
        assert!(n >= 80, "band {band:?} has {n} points");
    }
    for x in [-6.0, -1.0, 1.0, 6.0, 26.5, 27.0, 27.3] {
        assert!(
            oracle().any(|(p, _)| p == x),
            "oracle lacks the branch or cut-off point {x}"
        );
    }
}

#[test]
fn erfc_is_within_10_ulp_of_the_correctly_rounded_value() {
    let (mut worst, mut at) = (0.0f64, 0.0);
    for (x, want) in oracle() {
        let e = ulps(erfc(x), want);
        if e > worst {
            (worst, at) = (e, x);
        }
    }
    assert!(worst <= 10.0, "erfc is {worst} ulp off at x = {at}");
}

#[test]
fn erfc_is_no_worse_than_the_reference_on_any_band() {
    for band in BANDS {
        let (mut new, mut old) = (0.0f64, 0.0f64);
        for (x, want) in oracle().filter(|&(x, _)| in_band(x, band)) {
            new = new.max(ulps(erfc(x), want));
            old = old.max(ulps(erfc_reference(x), want));
        }
        assert!(
            new <= old,
            "on {band:?} erfc is up to {new} ulp off, erfc_reference {old}"
        );
    }
}

#[test]
fn nan_and_infinities_behave_as_before() {
    for f in [erfc, erfc_reference] {
        assert!(f(f64::NAN).is_nan());
        assert_eq!(f(f64::INFINITY), 0.0);
        assert_eq!(f(f64::NEG_INFINITY), 2.0);
    }
}
