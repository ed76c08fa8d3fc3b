//! Double-double ("dd") arithmetic: an unevaluated sum of two `f64`s giving
//! roughly 31 significant decimal digits.
//!
//! Why it exists here: the paper reports SOI's signal-to-noise ratio as
//! ≈290 dB versus ≈310 dB for standard double-precision FFTs (§7.2).
//! Certifying numbers that close to the f64 noise floor requires a
//! reference transform computed with substantially more precision than f64;
//! `soi-fft` builds a radix-2 reference FFT on top of this type.
//!
//! The algorithms are the classical error-free transformations (Dekker,
//! Knuth, Bailey/Hida/Li QD library): `two_sum`, `quick_two_sum`, and an
//! FMA-based `two_prod`.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Error-free sum: returns `(s, e)` with `s = fl(a+b)` and `a+b = s+e` exactly.
#[inline(always)]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Error-free sum assuming `|a| >= |b|` (cheaper than [`two_sum`]).
#[inline(always)]
pub fn quick_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let e = b - (s - a);
    (s, e)
}

/// Error-free product via FMA: `a*b = p + e` exactly.
#[inline(always)]
pub fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = f64::mul_add(a, b, -p);
    (p, e)
}

/// A double-double number `hi + lo` with `|lo| <= ulp(hi)/2`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dd {
    /// Leading component.
    pub hi: f64,
    /// Trailing correction.
    pub lo: f64,
}

impl Dd {
    /// Zero.
    pub const ZERO: Dd = Dd { hi: 0.0, lo: 0.0 };
    /// One.
    pub const ONE: Dd = Dd { hi: 1.0, lo: 0.0 };
    /// π to ~32 digits.
    pub const PI: Dd = Dd {
        hi: std::f64::consts::PI,
        lo: 1.224646799147353207e-16,
    };
    /// 2π to ~32 digits.
    pub const TWO_PI: Dd = Dd {
        hi: std::f64::consts::TAU,
        lo: 2.449293598294706414e-16,
    };
    /// π/2 to ~32 digits.
    pub const FRAC_PI_2: Dd = Dd {
        hi: std::f64::consts::FRAC_PI_2,
        lo: 6.123233995736766036e-17,
    };

    /// Construct from an exact `f64`.
    #[inline(always)]
    pub fn from_f64(v: f64) -> Dd {
        Dd { hi: v, lo: 0.0 }
    }

    /// Construct from (already normalized) parts.
    #[inline(always)]
    pub fn new(hi: f64, lo: f64) -> Dd {
        let (s, e) = quick_two_sum(hi, lo);
        Dd { hi: s, lo: e }
    }

    /// Round to nearest `f64`.
    #[inline(always)]
    pub fn to_f64(self) -> f64 {
        self.hi + self.lo
    }

    /// Exact ratio of two integers (each exactly representable in f64).
    pub fn from_ratio(num: i64, den: i64) -> Dd {
        Dd::from_f64(num as f64) / Dd::from_f64(den as f64)
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Dd {
        if self.hi < 0.0 || (self.hi == 0.0 && self.lo < 0.0) {
            -self
        } else {
            self
        }
    }

    /// Multiply by an exact power of two (error-free).
    #[inline]
    pub fn mul_pow2(self, k: f64) -> Dd {
        debug_assert!(k.abs().log2().fract() == 0.0, "k must be a power of two");
        Dd {
            hi: self.hi * k,
            lo: self.lo * k,
        }
    }

    /// Square root via one Newton step on the f64 estimate (Karp's trick).
    pub fn sqrt(self) -> Dd {
        if self.hi == 0.0 && self.lo == 0.0 {
            return Dd::ZERO;
        }
        assert!(self.hi > 0.0, "sqrt of negative dd");
        let x = 1.0 / self.hi.sqrt();
        let ax = self.hi * x;
        let ax_dd = Dd::from_f64(ax);
        let err = (self - ax_dd * ax_dd).hi;
        ax_dd + Dd::from_f64(err * (x * 0.5))
    }

    /// Nearest integer (as Dd); exact for values below 2^52.
    pub fn round(self) -> Dd {
        let r = self.hi.round();
        if (self.hi - r).abs() == 0.5 {
            // The low word decides which side of the tie we are on.
            if self.lo > 0.0 && r < self.hi {
                return Dd::from_f64(r + 1.0);
            }
            if self.lo < 0.0 && r > self.hi {
                return Dd::from_f64(r - 1.0);
            }
        }
        Dd::from_f64(r)
    }

    /// Sine, full dd accuracy for |self| ≲ a few thousand.
    pub fn sin(self) -> Dd {
        let (s, _) = self.sin_cos();
        s
    }

    /// Cosine, full dd accuracy for |self| ≲ a few thousand.
    pub fn cos(self) -> Dd {
        let (_, c) = self.sin_cos();
        c
    }

    /// Simultaneous sine and cosine with π/2 range reduction.
    pub fn sin_cos(self) -> (Dd, Dd) {
        // q = round(x / (π/2)); r = x − q·π/2 ∈ [−π/4, π/4].
        let q = (self / Dd::FRAC_PI_2).round();
        let r = self - q * Dd::FRAC_PI_2;
        let (sr, cr) = sin_cos_taylor(r);
        // Map the quadrant back.
        let qm = ((q.to_f64() as i64) % 4 + 4) % 4;
        match qm {
            0 => (sr, cr),
            1 => (cr, -sr),
            2 => (-sr, -cr),
            _ => (-cr, sr),
        }
    }
}

/// Taylor-series sin and cos for |x| ≤ π/4 (terms to ~1e-35).
fn sin_cos_taylor(x: Dd) -> (Dd, Dd) {
    let x2 = x * x;
    // sin
    let mut term = x;
    let mut sin = x;
    let mut k = 1i64;
    loop {
        term = term * x2 / Dd::from_f64(((2 * k) * (2 * k + 1)) as f64);
        term = -term;
        sin += term;
        if term.hi.abs() < 1e-36 || k > 30 {
            break;
        }
        k += 1;
    }
    // cos
    let mut term = Dd::ONE;
    let mut cos = Dd::ONE;
    let mut k = 1i64;
    loop {
        term = term * x2 / Dd::from_f64(((2 * k - 1) * (2 * k)) as f64);
        term = -term;
        cos += term;
        if term.hi.abs() < 1e-36 || k > 30 {
            break;
        }
        k += 1;
    }
    (sin, cos)
}

impl Add for Dd {
    type Output = Dd;
    #[inline]
    fn add(self, rhs: Dd) -> Dd {
        let (s1, s2) = two_sum(self.hi, rhs.hi);
        let (t1, t2) = two_sum(self.lo, rhs.lo);
        let (s1, s2b) = quick_two_sum(s1, s2 + t1);
        let (hi, lo) = quick_two_sum(s1, s2b + t2);
        Dd { hi, lo }
    }
}

impl Sub for Dd {
    type Output = Dd;
    #[inline]
    fn sub(self, rhs: Dd) -> Dd {
        self + (-rhs)
    }
}

impl Neg for Dd {
    type Output = Dd;
    #[inline(always)]
    fn neg(self) -> Dd {
        Dd {
            hi: -self.hi,
            lo: -self.lo,
        }
    }
}

impl Mul for Dd {
    type Output = Dd;
    #[inline]
    fn mul(self, rhs: Dd) -> Dd {
        let (p1, p2) = two_prod(self.hi, rhs.hi);
        let p2 = p2 + self.hi * rhs.lo + self.lo * rhs.hi;
        let (hi, lo) = quick_two_sum(p1, p2);
        Dd { hi, lo }
    }
}

impl Div for Dd {
    type Output = Dd;
    #[inline]
    fn div(self, rhs: Dd) -> Dd {
        // Long division with two correction steps.
        let q1 = self.hi / rhs.hi;
        let r = self - rhs * Dd::from_f64(q1);
        let q2 = r.hi / rhs.hi;
        let r = r - rhs * Dd::from_f64(q2);
        let q3 = r.hi / rhs.hi;
        let (hi, lo) = quick_two_sum(q1, q2);
        Dd { hi, lo } + Dd::from_f64(q3)
    }
}

impl AddAssign for Dd {
    #[inline]
    fn add_assign(&mut self, rhs: Dd) {
        *self = *self + rhs;
    }
}
impl SubAssign for Dd {
    #[inline]
    fn sub_assign(&mut self, rhs: Dd) {
        *self = *self - rhs;
    }
}
impl MulAssign for Dd {
    #[inline]
    fn mul_assign(&mut self, rhs: Dd) {
        *self = *self * rhs;
    }
}
impl DivAssign for Dd {
    #[inline]
    fn div_assign(&mut self, rhs: Dd) {
        *self = *self / rhs;
    }
}

impl PartialEq for Dd {
    fn eq(&self, other: &Dd) -> bool {
        self.hi == other.hi && self.lo == other.lo
    }
}

impl PartialOrd for Dd {
    fn partial_cmp(&self, other: &Dd) -> Option<Ordering> {
        match self.hi.partial_cmp(&other.hi) {
            Some(Ordering::Equal) => self.lo.partial_cmp(&other.lo),
            ord => ord,
        }
    }
}

impl fmt::Display for Dd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:e}{:+e}", self.hi, self.lo)
    }
}

/// A complex number with double-double components.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DdComplex {
    /// Real part.
    pub re: Dd,
    /// Imaginary part.
    pub im: Dd,
}

impl DdComplex {
    /// Zero.
    pub const ZERO: DdComplex = DdComplex {
        re: Dd::ZERO,
        im: Dd::ZERO,
    };

    /// Construct from parts.
    #[inline]
    pub fn new(re: Dd, im: Dd) -> DdComplex {
        DdComplex { re, im }
    }

    /// Widen an f64 complex pair.
    #[inline]
    pub fn from_f64(re: f64, im: f64) -> DdComplex {
        DdComplex {
            re: Dd::from_f64(re),
            im: Dd::from_f64(im),
        }
    }

    /// Round both parts to f64.
    #[inline]
    pub fn to_f64(self) -> (f64, f64) {
        (self.re.to_f64(), self.im.to_f64())
    }

    /// `exp(iθ)` at dd accuracy.
    pub fn cis(theta: Dd) -> DdComplex {
        let (s, c) = theta.sin_cos();
        DdComplex { re: c, im: s }
    }

    /// The DFT root `exp(−2πi k/n)` at dd accuracy.
    pub fn root_of_unity(k: usize, n: usize) -> DdComplex {
        let k = (k % n) as i64;
        let theta = -(Dd::TWO_PI * Dd::from_f64(k as f64) / Dd::from_f64(n as f64));
        DdComplex::cis(theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> DdComplex {
        DdComplex {
            re: self.re,
            im: -self.im,
        }
    }
}

impl Add for DdComplex {
    type Output = DdComplex;
    #[inline]
    fn add(self, rhs: DdComplex) -> DdComplex {
        DdComplex {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for DdComplex {
    type Output = DdComplex;
    #[inline]
    fn sub(self, rhs: DdComplex) -> DdComplex {
        DdComplex {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for DdComplex {
    type Output = DdComplex;
    #[inline]
    fn mul(self, rhs: DdComplex) -> DdComplex {
        DdComplex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl AddAssign for DdComplex {
    #[inline]
    fn add_assign(&mut self, rhs: DdComplex) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_is_error_free() {
        let (s, e) = two_sum(1e16, 1.0);
        assert_eq!(s, 1e16); // 1.0 is absorbed...
        assert_eq!(e, 1.0); // ...but recovered exactly in e.
    }

    #[test]
    fn two_prod_is_error_free() {
        let a = 1.0 + f64::EPSILON;
        let b = 1.0 + 2.0 * f64::EPSILON;
        let (p, e) = two_prod(a, b);
        // a*b = 1 + 3eps + 2eps^2; p misses the 2eps^2 term.
        assert_eq!(p, 1.0 + 3.0 * f64::EPSILON);
        assert_eq!(e, 2.0 * f64::EPSILON * f64::EPSILON);
    }

    #[test]
    fn dd_add_keeps_tiny_contributions() {
        let a = Dd::from_f64(1.0);
        let b = Dd::from_f64(1e-25);
        let c = a + b - a;
        assert!((c.to_f64() - 1e-25).abs() < 1e-40);
    }

    #[test]
    fn dd_mul_div_roundtrip() {
        let a = Dd::from_ratio(1, 3);
        let b = a * Dd::from_f64(3.0);
        assert!((b - Dd::ONE).abs().hi < 1e-31);
        let c = Dd::ONE / a;
        assert!((c - Dd::from_f64(3.0)).abs().hi < 1e-30);
    }

    #[test]
    fn dd_pi_identity() {
        // sin(π) should be ~1e-32, not ~1e-16.
        let s = Dd::PI.sin();
        assert!(s.hi.abs() < 1e-31, "sin(pi) = {}", s);
        let c = Dd::PI.cos();
        assert!((c + Dd::ONE).abs().hi < 1e-31, "cos(pi) = {}", c);
    }

    #[test]
    fn dd_sin_cos_pythagorean() {
        for i in 0..100 {
            let x = Dd::from_f64(i as f64 * 0.37 - 18.0);
            let (s, c) = x.sin_cos();
            let one = s * s + c * c;
            assert!(
                (one - Dd::ONE).abs().hi < 1e-30,
                "s²+c² != 1 at i={i}: {}",
                one
            );
        }
    }

    #[test]
    fn dd_sin_matches_f64_to_f64_accuracy() {
        for i in 1..50 {
            let x = i as f64 * 0.13;
            let got = Dd::from_f64(x).sin().to_f64();
            assert!(
                (got - x.sin()).abs() <= 4.0 * f64::EPSILON,
                "sin({x}): dd {got} vs f64 {}",
                x.sin()
            );
        }
    }

    #[test]
    fn dd_sqrt() {
        let two = Dd::from_f64(2.0);
        let r = two.sqrt();
        let back = r * r;
        assert!((back - two).abs().hi < 1e-31);
        assert_eq!(Dd::ZERO.sqrt(), Dd::ZERO);
    }

    #[test]
    fn dd_round() {
        assert_eq!(Dd::from_f64(2.4).round().to_f64(), 2.0);
        assert_eq!(Dd::from_f64(-2.6).round().to_f64(), -3.0);
        // Tie broken by the low word.
        let just_above_half = Dd::new(0.5, 1e-20);
        assert_eq!(just_above_half.round().to_f64(), 1.0);
    }

    #[test]
    fn ddcomplex_roots_of_unity_better_than_f64() {
        // The n-th power of the primitive root must return to 1 with dd
        // accuracy.
        let n = 1024;
        let w = DdComplex::root_of_unity(1, n);
        let mut p = DdComplex::new(Dd::ONE, Dd::ZERO);
        for _ in 0..n {
            p = p * w;
        }
        assert!((p.re - Dd::ONE).abs().hi < 1e-27);
        assert!(p.im.abs().hi < 1e-27);
    }

    #[test]
    fn dd_ordering() {
        assert!(Dd::from_f64(1.0) < Dd::from_f64(2.0));
        assert!(Dd::new(1.0, 1e-20) > Dd::from_f64(1.0));
        assert_eq!(Dd::from_f64(1.5), Dd::from_f64(1.5));
    }
}
