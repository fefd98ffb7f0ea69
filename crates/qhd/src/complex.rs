//! Minimal complex arithmetic for the Schrödinger propagators.
//!
//! The simulators only need addition, multiplication, scaling, conjugation and
//! squared magnitude, so a tiny purpose-built type keeps the workspace free of
//! extra dependencies.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    pub fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    pub fn from_polar_unit(theta: f64) -> Self {
        let (sin, cos) = theta.sin_cos();
        Complex { re: cos, im: sin }
    }

    /// Multiplicative inverse `1/z = conj(z) / |z|²`.
    ///
    /// Used by the per-step Crank–Nicolson factorization to turn the Thomas
    /// forward sweep's per-row division into a multiplication by a precomputed
    /// reciprocal (one division per grid row per step instead of one per grid
    /// row per variable).
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex { re: self.re / d, im: -self.im / d }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex { re: self.re, im: -self.im }
    }

    /// Squared magnitude `|z|²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiplication by a real scalar.
    pub fn scale(self, s: f64) -> Self {
        Complex { re: self.re * s, im: self.im * s }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex { re: -self.re, im: -self.im }
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

/// Split-component complex multiply: `(ar + i·ai)·(br + i·bi)` as a
/// `(re, im)` pair of parts.
///
/// The batched mean-field kernels keep wavefunctions as split re/im `f64`
/// planes, so they multiply components directly instead of going through
/// [`Complex`]. This helper is the single definition of that expression —
/// `(ar·br − ai·bi, ar·bi + ai·br)` — in both builds of the kernels, the
/// plain one and the AVX2 one.
#[inline]
pub fn cmul_parts(ar: f64, ai: f64, br: f64, bi: f64) -> (f64, f64) {
    (ar * br - ai * bi, ar * bi + ai * br)
}

/// Squared L2 norm of a complex vector.
pub fn norm_sqr(v: &[Complex]) -> f64 {
    v.iter().map(|z| z.norm_sqr()).sum()
}

/// Normalises a complex vector to unit L2 norm in place. No-op for the zero vector.
pub fn normalize(v: &mut [Complex]) {
    let n = norm_sqr(v).sqrt();
    if n > 0.0 {
        for z in v.iter_mut() {
            *z = z.scale(1.0 / n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.5, 3.0);
        assert_eq!(a + b, Complex::new(0.5, 5.0));
        assert_eq!(a - b, Complex::new(1.5, -1.0));
        assert_eq!(a * Complex::ONE, a);
        assert_eq!(a * Complex::ZERO, Complex::ZERO);
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        // i * i = -1.
        assert_eq!(Complex::I * Complex::I, Complex::new(-1.0, 0.0));
        // Division is the inverse of multiplication.
        let q = (a * b) / b;
        assert!((q.re - a.re).abs() < 1e-12 && (q.im - a.im).abs() < 1e-12);
    }

    #[test]
    fn conjugate_and_norm() {
        let a = Complex::new(3.0, -4.0);
        assert_eq!(a.conj(), Complex::new(3.0, 4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a.scale(2.0), Complex::new(6.0, -8.0));
    }

    #[test]
    fn reciprocal_inverts_multiplication() {
        for z in [Complex::new(3.0, -4.0), Complex::new(-0.25, 1e3), Complex::ONE, Complex::I] {
            let p = z * z.recip();
            assert!((p.re - 1.0).abs() < 1e-12 && p.im.abs() < 1e-12, "z={z:?}");
        }
    }

    #[test]
    fn polar_unit_lies_on_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            let z = Complex::from_polar_unit(theta);
            assert!((z.norm_sqr() - 1.0).abs() < 1e-12);
        }
        assert_eq!(Complex::from_polar_unit(0.0), Complex::ONE);
    }

    #[test]
    fn vector_normalisation() {
        let mut v = vec![Complex::new(3.0, 0.0), Complex::new(0.0, 4.0)];
        assert_eq!(norm_sqr(&v), 25.0);
        normalize(&mut v);
        assert!((norm_sqr(&v) - 1.0).abs() < 1e-12);
        let mut zero = vec![Complex::ZERO; 3];
        normalize(&mut zero);
        assert_eq!(norm_sqr(&zero), 0.0);
    }

    #[test]
    fn from_real_and_add_assign() {
        let mut a = Complex::from(2.0);
        a += Complex::new(0.0, 1.0);
        assert_eq!(a, Complex::new(2.0, 1.0));
    }
}
