//! Arbitrary-precision signed integers.
//!
//! The consistency encodings of Fan & Libkin reduce XML specifications to
//! integer-linear feasibility problems.  Solving those exactly with the
//! simplex method requires exact rational arithmetic whose numerators and
//! denominators can grow well beyond machine words (pivoting multiplies
//! coefficients), and the Papadimitriou solution bound `n (m a)^{2m+1}` used
//! by the paper's big-constant encoding is astronomically large even for tiny
//! systems.  This module provides the minimal big-integer arithmetic the rest
//! of the crate needs: sign-magnitude representation with little-endian
//! `u64` limbs.
//!
//! It is the slow path of [`crate::rational::Rational`], which keeps values
//! that fit machine words inline and promotes to `BigInt` parts only when a
//! result overflows `i64`; exactness never depends on which path ran.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// Sign of a [`BigInt`]. Zero is always represented with [`Sign::Zero`] and an
/// empty magnitude so that every value has a unique representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }
}

/// An arbitrary-precision signed integer.
///
/// Invariants:
/// * `mag` has no trailing zero limbs;
/// * `mag.is_empty()` iff `sign == Sign::Zero`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    /// Little-endian magnitude limbs.
    mag: Vec<u64>,
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl BigInt {
    /// The integer zero.
    pub fn zero() -> BigInt {
        BigInt {
            sign: Sign::Zero,
            mag: Vec::new(),
        }
    }

    /// The integer one.
    pub fn one() -> BigInt {
        BigInt::from(1i64)
    }

    /// Returns `true` iff this integer is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Returns `true` iff this integer is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Positive
    }

    /// Returns `true` iff this integer is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// Returns `true` iff this integer equals one.
    pub fn is_one(&self) -> bool {
        self.sign == Sign::Positive && self.mag.len() == 1 && self.mag[0] == 1
    }

    /// The sign of the integer.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        let mut r = self.clone();
        if r.sign == Sign::Negative {
            r.sign = Sign::Positive;
        }
        r
    }

    fn from_mag(sign: Sign, mut mag: Vec<u64>) -> BigInt {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        if mag.is_empty() {
            BigInt::zero()
        } else {
            BigInt { sign, mag }
        }
    }

    /// Number of bits in the magnitude (0 for zero).
    pub fn bits(&self) -> u64 {
        match self.mag.last() {
            None => 0,
            Some(&top) => (self.mag.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    /// Converts to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => {
                if self.mag.len() > 1 {
                    return None;
                }
                i64::try_from(self.mag[0]).ok()
            }
            Sign::Negative => {
                if self.mag.len() > 1 {
                    return None;
                }
                let m = self.mag[0];
                if m == 1u64 << 63 {
                    Some(i64::MIN)
                } else {
                    i64::try_from(m).ok().map(|v| -v)
                }
            }
        }
    }

    /// Converts to `u64` if the value fits (non-negative and small enough).
    pub fn to_u64(&self) -> Option<u64> {
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive if self.mag.len() == 1 => Some(self.mag[0]),
            _ => None,
        }
    }

    /// Approximate conversion to `f64` (used only for reporting / branching
    /// heuristics, never for exact decisions).
    pub fn to_f64(&self) -> f64 {
        let mut v = 0.0f64;
        for &limb in self.mag.iter().rev() {
            v = v * 18446744073709551616.0 + limb as f64;
        }
        match self.sign {
            Sign::Negative => -v,
            _ => v,
        }
    }

    fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        Ordering::Equal
    }

    fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let x = long[i];
            let y = if i < short.len() { short[i] } else { 0 };
            let (s1, c1) = x.overflowing_add(y);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            out.push(carry);
        }
        out
    }

    /// Requires `a >= b` in magnitude.
    fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        debug_assert!(BigInt::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for i in 0..a.len() {
            let x = a[i];
            let y = if i < b.len() { b[i] } else { 0 };
            let (d1, b1) = x.overflowing_sub(y);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + (x as u128) * (y as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Shift the magnitude left by one bit.
    fn shl1_mag(mag: &mut Vec<u64>) {
        let mut carry = 0u64;
        for limb in mag.iter_mut() {
            let new_carry = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = new_carry;
        }
        if carry > 0 {
            mag.push(carry);
        }
    }

    /// Binary long division of magnitudes: returns `(quotient, remainder)`.
    fn divrem_mag(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
        assert!(!b.is_empty(), "division by zero");
        if BigInt::cmp_mag(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        // Single-limb divisor fast path.
        if b.len() == 1 {
            let d = b[0] as u128;
            let mut quot = vec![0u64; a.len()];
            let mut rem = 0u128;
            for i in (0..a.len()).rev() {
                let cur = (rem << 64) | a[i] as u128;
                quot[i] = (cur / d) as u64;
                rem = cur % d;
            }
            while quot.last() == Some(&0) {
                quot.pop();
            }
            let rem_vec = if rem == 0 {
                Vec::new()
            } else {
                vec![rem as u64]
            };
            return (quot, rem_vec);
        }
        // General case: bit-by-bit restoring division.
        let total_bits = (a.len() as u64) * 64;
        let mut quot = vec![0u64; a.len()];
        let mut rem: Vec<u64> = Vec::new();
        for bit in (0..total_bits).rev() {
            BigInt::shl1_mag(&mut rem);
            let limb = (bit / 64) as usize;
            let off = (bit % 64) as u32;
            if (a[limb] >> off) & 1 == 1 {
                if rem.is_empty() {
                    rem.push(1);
                } else {
                    rem[0] |= 1;
                }
            }
            if BigInt::cmp_mag(&rem, b) != Ordering::Less {
                rem = BigInt::sub_mag(&rem, b);
                quot[limb] |= 1u64 << off;
            }
        }
        while quot.last() == Some(&0) {
            quot.pop();
        }
        (quot, rem)
    }

    /// Truncated division with remainder: `self = q * other + r`, where `q`
    /// is truncated towards zero and `r` has the sign of `self`.
    pub fn divrem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "BigInt division by zero");
        if self.is_zero() {
            return (BigInt::zero(), BigInt::zero());
        }
        let (qm, rm) = BigInt::divrem_mag(&self.mag, &other.mag);
        let q_sign = if qm.is_empty() {
            Sign::Zero
        } else if self.sign == other.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        let r_sign = if rm.is_empty() { Sign::Zero } else { self.sign };
        (BigInt::from_mag(q_sign, qm), BigInt::from_mag(r_sign, rm))
    }

    /// Euclidean division: quotient rounded towards negative infinity.
    pub fn div_floor(&self, other: &BigInt) -> BigInt {
        let (q, r) = self.divrem(other);
        if r.is_zero() {
            return q;
        }
        // Truncation and floor differ when signs of operands differ.
        if (self.is_negative()) != (other.is_negative()) {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Euclidean division: quotient rounded towards positive infinity.
    pub fn div_ceil(&self, other: &BigInt) -> BigInt {
        let (q, r) = self.divrem(other);
        if r.is_zero() {
            return q;
        }
        if (self.is_negative()) == (other.is_negative()) {
            q + BigInt::one()
        } else {
            q
        }
    }

    /// Greatest common divisor (always non-negative).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let (_, r) = a.divrem(&b);
            a = b;
            b = r.abs();
        }
        a
    }

    /// `self` raised to the power `exp`.
    pub fn pow(&self, mut exp: u64) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        acc
    }

    /// Multiply by a machine-word constant in place (used by the decimal
    /// parser).
    fn mul_small(&mut self, m: u64) {
        if m == 0 || self.is_zero() {
            *self = BigInt::zero();
            return;
        }
        let mut carry = 0u128;
        for limb in self.mag.iter_mut() {
            let cur = (*limb as u128) * (m as u128) + carry;
            *limb = cur as u64;
            carry = cur >> 64;
        }
        while carry > 0 {
            self.mag.push(carry as u64);
            carry >>= 64;
        }
    }

    fn add_small(&mut self, a: u64) {
        if a == 0 {
            return;
        }
        if self.is_zero() {
            *self = BigInt::from(a);
            return;
        }
        debug_assert_eq!(self.sign, Sign::Positive);
        let mut carry = a;
        for limb in self.mag.iter_mut() {
            let (s, c) = limb.overflowing_add(carry);
            *limb = s;
            if !c {
                carry = 0;
                break;
            }
            carry = 1;
        }
        if carry > 0 {
            self.mag.push(carry);
        }
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> BigInt {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt {
                sign: Sign::Positive,
                mag: vec![v as u64],
            },
            Ordering::Less => BigInt {
                sign: Sign::Negative,
                mag: vec![v.unsigned_abs()],
            },
        }
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> BigInt {
        if v == 0 {
            BigInt::zero()
        } else {
            BigInt {
                sign: Sign::Positive,
                mag: vec![v],
            }
        }
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> BigInt {
        BigInt::from(v as i64)
    }
}

impl From<u32> for BigInt {
    fn from(v: u32) -> BigInt {
        BigInt::from(v as u64)
    }
}

impl From<usize> for BigInt {
    fn from(v: usize) -> BigInt {
        BigInt::from(v as u64)
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> BigInt {
        if v == 0 {
            return BigInt::zero();
        }
        let sign = if v > 0 {
            Sign::Positive
        } else {
            Sign::Negative
        };
        let m = v.unsigned_abs();
        let lo = m as u64;
        let hi = (m >> 64) as u64;
        BigInt::from_mag(sign, vec![lo, hi])
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        let rank = |s: Sign| match s {
            Sign::Negative => 0,
            Sign::Zero => 1,
            Sign::Positive => 2,
        };
        match rank(self.sign).cmp(&rank(other.sign)) {
            Ordering::Equal => {}
            o => return o,
        }
        match self.sign {
            Sign::Zero => Ordering::Equal,
            Sign::Positive => BigInt::cmp_mag(&self.mag, &other.mag),
            Sign::Negative => BigInt::cmp_mag(&other.mag, &self.mag),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        self.sign = self.sign.flip();
        self
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        -self.clone()
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, other: &BigInt) -> BigInt {
        match (self.sign, other.sign) {
            (Sign::Zero, _) => other.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_mag(a, BigInt::add_mag(&self.mag, &other.mag)),
            _ => {
                // Differing signs: subtract the smaller magnitude from the larger.
                match BigInt::cmp_mag(&self.mag, &other.mag) {
                    Ordering::Equal => BigInt::zero(),
                    Ordering::Greater => {
                        BigInt::from_mag(self.sign, BigInt::sub_mag(&self.mag, &other.mag))
                    }
                    Ordering::Less => {
                        BigInt::from_mag(other.sign, BigInt::sub_mag(&other.mag, &self.mag))
                    }
                }
            }
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, other: &BigInt) -> BigInt {
        self + &(-other.clone())
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, other: &BigInt) -> BigInt {
        if self.is_zero() || other.is_zero() {
            return BigInt::zero();
        }
        let sign = if self.sign == other.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        BigInt::from_mag(sign, BigInt::mul_mag(&self.mag, &other.mag))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, other: &BigInt) -> BigInt {
        self.divrem(other).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, other: &BigInt) -> BigInt {
        self.divrem(other).1
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, other: BigInt) -> BigInt {
                (&self).$method(&other)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, other: &BigInt) -> BigInt {
                (&self).$method(other)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, other: BigInt) -> BigInt {
                self.$method(&other)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);
forward_owned_binop!(Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, other: &BigInt) {
        *self = &*self + other;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, other: &BigInt) {
        *self = &*self - other;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, other: &BigInt) {
        *self = &*self * other;
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Convert by repeated division by 10^19 (largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let chunk = BigInt::from(CHUNK);
        let mut cur = self.abs();
        let mut parts: Vec<u64> = Vec::new();
        while !cur.is_zero() {
            let (q, r) = cur.divrem(&chunk);
            parts.push(r.to_u64().unwrap_or(0));
            cur = q;
        }
        if self.is_negative() {
            write!(f, "-")?;
        }
        let mut first = true;
        for &p in parts.iter().rev() {
            if first {
                write!(f, "{p}")?;
                first = false;
            } else {
                write!(f, "{p:019}")?;
            }
        }
        Ok(())
    }
}

/// Error returned when parsing a [`BigInt`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError {
    msg: String,
}

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid integer literal: {}", self.msg)
    }
}

impl std::error::Error for ParseBigIntError {}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (negative, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() {
            return Err(ParseBigIntError {
                msg: "empty".to_string(),
            });
        }
        let mut acc = BigInt::zero();
        for ch in digits.chars() {
            let d = ch.to_digit(10).ok_or_else(|| ParseBigIntError {
                msg: format!("bad digit {ch:?}"),
            })?;
            acc.mul_small(10);
            acc.add_small(u64::from(d));
        }
        if negative && !acc.is_zero() {
            acc.sign = Sign::Negative;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(v: i64) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigInt::zero().is_zero());
        assert!(BigInt::one().is_one());
        assert!(!BigInt::one().is_zero());
        assert_eq!(BigInt::zero().to_i64(), Some(0));
        assert_eq!(BigInt::from(0i64), BigInt::zero());
    }

    #[test]
    fn addition_small() {
        assert_eq!(&bi(2) + &bi(3), bi(5));
        assert_eq!(&bi(-2) + &bi(3), bi(1));
        assert_eq!(&bi(2) + &bi(-3), bi(-1));
        assert_eq!(&bi(-2) + &bi(-3), bi(-5));
        assert_eq!(&bi(7) + &bi(-7), bi(0));
    }

    #[test]
    fn subtraction_small() {
        assert_eq!(&bi(10) - &bi(4), bi(6));
        assert_eq!(&bi(4) - &bi(10), bi(-6));
        assert_eq!(&bi(-4) - &bi(-10), bi(6));
    }

    #[test]
    fn multiplication_small() {
        assert_eq!(&bi(6) * &bi(7), bi(42));
        assert_eq!(&bi(-6) * &bi(7), bi(-42));
        assert_eq!(&bi(-6) * &bi(-7), bi(42));
        assert_eq!(&bi(0) * &bi(7), bi(0));
    }

    #[test]
    fn carry_propagation() {
        let max = BigInt::from(u64::MAX);
        let sum = &max + &BigInt::one();
        assert_eq!(sum.to_string(), "18446744073709551616");
        let prod = &max * &max;
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        assert_eq!(prod.to_string(), "340282366920938463426481119284349108225");
    }

    #[test]
    fn division_small() {
        let (q, r) = bi(17).divrem(&bi(5));
        assert_eq!((q, r), (bi(3), bi(2)));
        let (q, r) = bi(-17).divrem(&bi(5));
        assert_eq!((q, r), (bi(-3), bi(-2)));
        let (q, r) = bi(17).divrem(&bi(-5));
        assert_eq!((q, r), (bi(-3), bi(2)));
        let (q, r) = bi(-17).divrem(&bi(-5));
        assert_eq!((q, r), (bi(3), bi(-2)));
    }

    #[test]
    fn division_large() {
        let a: BigInt = "123456789012345678901234567890".parse().unwrap();
        let b: BigInt = "9876543210987".parse().unwrap();
        let (q, r) = a.divrem(&b);
        // Verify a = q*b + r and 0 <= r < b.
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r >= BigInt::zero() && r < b);
    }

    #[test]
    fn floor_and_ceil_division() {
        assert_eq!(bi(7).div_floor(&bi(2)), bi(3));
        assert_eq!(bi(-7).div_floor(&bi(2)), bi(-4));
        assert_eq!(bi(7).div_ceil(&bi(2)), bi(4));
        assert_eq!(bi(-7).div_ceil(&bi(2)), bi(-3));
        assert_eq!(bi(8).div_floor(&bi(2)), bi(4));
        assert_eq!(bi(8).div_ceil(&bi(2)), bi(4));
    }

    #[test]
    fn gcd_values() {
        assert_eq!(bi(12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(-12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(0).gcd(&bi(5)), bi(5));
        assert_eq!(bi(5).gcd(&bi(0)), bi(5));
        assert_eq!(bi(7).gcd(&bi(13)), bi(1));
    }

    #[test]
    fn pow_values() {
        assert_eq!(bi(2).pow(10), bi(1024));
        assert_eq!(bi(10).pow(0), bi(1));
        assert_eq!(bi(3).pow(5), bi(243));
        assert_eq!(
            bi(2).pow(100).to_string(),
            "1267650600228229401496703205376"
        );
    }

    #[test]
    fn ordering() {
        assert!(bi(-5) < bi(-1));
        assert!(bi(-1) < bi(0));
        assert!(bi(0) < bi(1));
        assert!(bi(1) < bi(5));
        let big: BigInt = "99999999999999999999999".parse().unwrap();
        assert!(bi(i64::MAX) < big);
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "0",
            "1",
            "-1",
            "18446744073709551616",
            "-340282366920938463463374607431768211456",
            "12345678901234567890123456789012345678901234567890",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigInt>().is_err());
        assert!("12a3".parse::<BigInt>().is_err());
        assert!("--5".parse::<BigInt>().is_err());
    }

    #[test]
    fn to_i64_bounds() {
        assert_eq!(BigInt::from(i64::MAX).to_i64(), Some(i64::MAX));
        assert_eq!(BigInt::from(i64::MIN).to_i64(), Some(i64::MIN));
        let too_big = &BigInt::from(i64::MAX) + &BigInt::one();
        assert_eq!(too_big.to_i64(), None);
        let too_small = &BigInt::from(i64::MIN) - &BigInt::one();
        assert_eq!(too_small.to_i64(), None);
    }

    #[test]
    fn i128_conversion() {
        let v = BigInt::from(170141183460469231731687303715884105727i128);
        assert_eq!(v.to_string(), "170141183460469231731687303715884105727");
        let v = BigInt::from(-170141183460469231731687303715884105728i128);
        assert_eq!(v.to_string(), "-170141183460469231731687303715884105728");
    }

    #[test]
    fn bits_count() {
        assert_eq!(BigInt::zero().bits(), 0);
        assert_eq!(BigInt::one().bits(), 1);
        assert_eq!(bi(255).bits(), 8);
        assert_eq!(bi(256).bits(), 9);
        assert_eq!(BigInt::from(u64::MAX).bits(), 64);
        assert_eq!((&BigInt::from(u64::MAX) + &BigInt::one()).bits(), 65);
    }
}
