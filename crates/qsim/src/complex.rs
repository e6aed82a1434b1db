//! Minimal complex-number arithmetic.
//!
//! The workspace deliberately avoids external numerics crates; this module
//! provides the small slice of complex arithmetic a statevector simulator
//! needs.
//!
//! The arithmetic operators are `#[inline]` so the kernel crates' lane-
//! blocked loops see the component formulas directly (cross-crate calls
//! would otherwise block autovectorization in non-LTO builds). The
//! formulas use plain IEEE multiplies and adds — Rust never contracts
//! them into FMAs behind the source — so results are bit-identical
//! across call sites, which the simulator's determinism contract
//! (identical amplitudes for any worker count) relies on.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
///
/// # Example
///
/// ```
/// use qsim::complex::C64;
///
/// let i = C64::I;
/// assert_eq!(i * i, -C64::ONE);
/// assert!((C64::from_polar(1.0, std::f64::consts::PI).re + 1.0).abs() < 1e-15);
/// ```
///
/// `repr(C)`: the layout is `re` then `im`, so a `[C64]` is interleaved
/// `f64` pairs that the kernels' AVX2 path loads two at a time.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Additive identity.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// Multiplicative identity.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Creates a real-valued complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// Creates `r·e^{iθ}`.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        C64 {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Creates `e^{iθ}` (unit phase).
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|²` (the Born-rule probability weight).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// `true` if both components are within `eps` of `other`'s.
    #[inline]
    pub fn approx_eq(self, other: C64, eps: f64) -> bool {
        (self.re - other.re).abs() <= eps && (self.im - other.im).abs() <= eps
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics (with a division-produced NaN/inf rather than an explicit
    /// panic) when `self` is zero; callers divide only by unitary-matrix
    /// entries that are nonzero by construction.
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        C64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        C64 {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> Self {
        C64::real(re)
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: C64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: C64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: f64) -> C64 {
        self.scale(rhs)
    }
}

impl Div for C64 {
    type Output = C64;
    // Division via the precomputed reciprocal; the `*` is intentional.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: C64) -> C64 {
        self * rhs.recip()
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, Add::add)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    const EPS: f64 = 1e-14;

    #[test]
    fn basic_arithmetic() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        assert_eq!(a + b, C64::new(4.0, 1.0));
        assert_eq!(a - b, C64::new(-2.0, 3.0));
        assert_eq!(a * b, C64::new(5.0, 5.0));
        assert_eq!(-a, C64::new(-1.0, -2.0));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(C64::I * C64::I, C64::new(-1.0, 0.0));
    }

    #[test]
    fn conjugate_and_norm() {
        let z = C64::new(3.0, 4.0);
        assert_eq!(z.conj(), C64::new(3.0, -4.0));
        assert!((z.norm_sqr() - 25.0).abs() < EPS);
        assert!((z.abs() - 5.0).abs() < EPS);
        assert!(((z * z.conj()).re - 25.0).abs() < EPS);
    }

    #[test]
    fn polar_and_cis() {
        let z = C64::cis(FRAC_PI_2);
        assert!(z.approx_eq(C64::I, EPS));
        let w = C64::from_polar(2.0, PI);
        assert!(w.approx_eq(C64::new(-2.0, 0.0), EPS));
        assert!((z.arg() - FRAC_PI_2).abs() < EPS);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = C64::new(1.5, -2.5);
        let b = C64::new(0.5, 0.25);
        let q = a / b;
        assert!((q * b).approx_eq(a, 1e-12));
        assert!((b * b.recip()).approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn sum_and_scale() {
        let total: C64 = [C64::ONE, C64::I, C64::new(1.0, 1.0)].into_iter().sum();
        assert_eq!(total, C64::new(2.0, 2.0));
        assert_eq!(C64::new(1.0, -2.0) * 3.0, C64::new(3.0, -6.0));
    }

    #[test]
    fn display_signs() {
        assert_eq!(C64::new(1.0, 2.0).to_string(), "1.000000+2.000000i");
        assert_eq!(C64::new(1.0, -2.0).to_string(), "1.000000-2.000000i");
    }
}
