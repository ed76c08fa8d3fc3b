//! Minimal complex arithmetic.
//!
//! `Complex64` is `#[repr(C)]` with interleaved `(re, im)` layout — the
//! layout every FFT kernel in this workspace assumes, and the same layout
//! as C99 `complex`, FFTW, and MKL, so buffers could be shared with foreign
//! code.

use core::f64::consts::PI;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number with interleaved real/imaginary
/// parts.
#[derive(Copy, Clone, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor for [`Complex64`].
#[inline(always)]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// Zero.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Self = Self { re: 0.0, im: 1.0 };

    /// Construct from parts.
    #[inline(always)]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// `exp(i·theta) = cos(theta) + i·sin(theta)`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self { re: c, im: s }
    }

    /// The DFT root `exp(-2πi·k/n)` computed with a single `sin_cos`.
    ///
    /// This is the twiddle-factor convention used throughout the workspace
    /// (forward DFT has a negative exponent, matching the paper).
    #[inline]
    pub fn root_of_unity(k: usize, n: usize) -> Self {
        // Reduce k mod n first so the angle stays small and accurate.
        let k = k % n;
        let theta = -2.0 * PI * (k as f64) / (n as f64);
        Self::cis(theta)
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline(always)]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiply by the imaginary unit (a rotation by +90°, no multiplies).
    #[inline(always)]
    pub fn mul_i(self) -> Self {
        Self {
            re: -self.im,
            im: self.re,
        }
    }

    /// Multiply by −i (a rotation by −90°, no multiplies).
    #[inline(always)]
    pub fn mul_neg_i(self) -> Self {
        Self {
            re: self.im,
            im: -self.re,
        }
    }

    /// Scale by a real factor.
    #[inline(always)]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Reciprocal.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Multiply-accumulate `self * b + acc`.
    ///
    /// Deliberately written with plain mul/add rather than `f64::mul_add`:
    /// on targets without the FMA feature enabled (the x86-64 default),
    /// `mul_add` lowers to a *software* fma call that is orders of
    /// magnitude slower — with `-C target-cpu=native` LLVM still contracts
    /// these into hardware FMAs where profitable.
    #[inline(always)]
    pub fn mul_add(self, b: Self, acc: Self) -> Self {
        Self {
            re: acc.re + self.re * b.re - self.im * b.im,
            im: acc.im + self.re * b.im + self.im * b.re,
        }
    }

    /// True if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: f64) -> Self {
        Self {
            re: self.re / rhs,
            im: self.im / rhs,
        }
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline(always)]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self { re, im: 0.0 }
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}{:+?}i)", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}{:+}i)", self.re, self.im)
    }
}

/// Maximum elementwise absolute difference between two complex slices.
pub fn max_abs_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Relative L2 error `‖a − b‖₂ / ‖b‖₂` (b is the reference).
pub fn rel_l2_error(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        num += (x - y).norm_sqr();
        den += y.norm_sqr();
    }
    if den == 0.0 {
        num.sqrt()
    } else {
        (num / den).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        let a = c64(1.0, 2.0);
        let b = c64(3.0, -4.0);
        assert_eq!(a + b, c64(4.0, -2.0));
        assert_eq!(a - b, c64(-2.0, 6.0));
        assert_eq!(a * b, c64(11.0, 2.0));
        let q = (a / b) * b;
        assert!((q - a).abs() < 1e-14);
    }

    #[test]
    fn conj_and_norm() {
        let a = c64(3.0, 4.0);
        assert_eq!(a.conj(), c64(3.0, -4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
    }

    #[test]
    fn mul_i_is_rotation() {
        let a = c64(1.0, 0.0);
        assert_eq!(a.mul_i(), c64(0.0, 1.0));
        assert_eq!(a.mul_i().mul_i(), c64(-1.0, 0.0));
        assert_eq!(a.mul_neg_i(), c64(0.0, -1.0));
        let b = c64(2.5, -7.0);
        assert_eq!(b.mul_i(), b * Complex64::I);
    }

    #[test]
    fn roots_of_unity_cycle() {
        let n = 16;
        let w = Complex64::root_of_unity(1, n);
        let mut p = Complex64::ONE;
        for _ in 0..n {
            p = p * w;
        }
        assert!((p - Complex64::ONE).abs() < 1e-14);
    }

    #[test]
    fn root_of_unity_reduces_modulo_n() {
        let a = Complex64::root_of_unity(3, 8);
        let b = Complex64::root_of_unity(3 + 8 * 1000, 8);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn mul_add_matches_expanded_form() {
        let a = c64(1.25, -0.5);
        let b = c64(-2.0, 3.5);
        let acc = c64(0.1, 0.2);
        let got = a.mul_add(b, acc);
        let want = a * b + acc;
        assert!((got - want).abs() < 1e-14);
    }

    #[test]
    fn error_metrics() {
        let a = [c64(1.0, 0.0), c64(0.0, 1.0)];
        let b = [c64(1.0, 0.0), c64(0.0, 1.0)];
        assert_eq!(max_abs_diff(&a, &b), 0.0);
        assert_eq!(rel_l2_error(&a, &b), 0.0);
        let c = [c64(1.0, 0.0), c64(0.0, 2.0)];
        assert!(max_abs_diff(&a, &c) == 1.0);
        assert!(rel_l2_error(&c, &a) > 0.0);
    }
}
