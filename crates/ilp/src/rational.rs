//! Exact rational numbers with an inline machine-word fast path.
//!
//! The simplex method over the cardinality systems of Fan & Libkin must be
//! exact: a wrong sign on a reduced cost or a wrongly-detected infeasibility
//! changes a "consistent" answer into "inconsistent".  Floating point cannot
//! give that guarantee, so all LP relaxations in this crate are solved over
//! `Rational`.
//!
//! Almost every number those relaxations meet is small: coefficients are 0,
//! ±1 or a content-model multiplicity, and a handful of pivots keeps them
//! that way.  A `Rational` therefore stores its numerator and denominator
//! inline as two `i64`s and computes with them in `i128` and machine-word
//! gcds.  A result that does not fit — the Papadimitriou big constant, a long
//! chain of pivots — is *promoted* to a pair of [`BigInt`]s and handled by
//! the limb arithmetic; a limb result that fits again is demoted.  The
//! representation is canonical (a value that fits inline is always inline),
//! so equality and hashing stay structural, and exactness is unchanged: the
//! inline form is an encoding of the same value, never an approximation.
//!
//! Promotions are counted per thread on the slow path only; the
//! branch-and-bound solver reports them in [`crate::SolveStats::promotions`].

use std::borrow::Cow;
use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::bignum::BigInt;

/// An exact rational number `num / den`.
///
/// Invariants: `den > 0`, `gcd(|num|, den) = 1`, and zero is `0/1`; the
/// value is held inline whenever both parts fit an `i64`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    repr: Repr,
}

/// The two encodings of a reduced `num / den`.  Canonical: `Big` only
/// when `num` or `den` lies outside `i64`, so derived `Eq`/`Hash` compare
/// values.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small(i64, i64),
    Big(Box<(BigInt, BigInt)>),
}

thread_local! {
    static PROMOTIONS: Cell<u64> = const { Cell::new(0) };
}

/// Returns the number of arithmetic results on this thread that needed limbs
/// since the last call, and resets the count.
///
/// Only results of arithmetic (`+ - * /`, negation, `abs`, `recip`) count;
/// building a large value with [`Rational::new`] or `From<BigInt>` does not.
pub(crate) fn take_promotions() -> u64 {
    PROMOTIONS.with(|p| p.replace(0))
}

fn note_promotion() {
    PROMOTIONS.with(|p| p.set(p.get() + 1));
}

/// The canonical value of a limb-arithmetic result, counted as a promotion
/// when it stays in limbs.
#[cold]
fn limb_result(num: BigInt, den: BigInt) -> Rational {
    let r = Rational::new(num, den);
    if matches!(r.repr, Repr::Big(_)) {
        note_promotion();
    }
    r
}

fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

impl Rational {
    /// An inline value; the caller guarantees the invariants.
    const fn small(num: i64, den: i64) -> Rational {
        Rational {
            repr: Repr::Small(num, den),
        }
    }

    /// A reduced `num / den` (`den > 0`) computed in `i128`: inline if it
    /// fits, otherwise promoted.
    fn reduced(num: i128, den: i128) -> Rational {
        match (i64::try_from(num), i64::try_from(den)) {
            (Ok(n), Ok(d)) => Rational::small(n, d),
            _ => Rational::from_reduced_limbs(BigInt::from(num), BigInt::from(den)),
        }
    }

    /// A reduced limb `num / den` (`den > 0`) produced by arithmetic:
    /// demoted if it fits, otherwise counted as a promotion.
    fn from_reduced_limbs(num: BigInt, den: BigInt) -> Rational {
        match (num.to_i64(), den.to_i64()) {
            (Some(n), Some(d)) => Rational::small(n, d),
            _ => {
                note_promotion();
                Rational {
                    repr: Repr::Big(Box::new((num, den))),
                }
            }
        }
    }

    /// The parts as limbs, borrowed when already promoted.
    fn parts(&self) -> (Cow<'_, BigInt>, Cow<'_, BigInt>) {
        match &self.repr {
            Repr::Small(n, d) => (Cow::Owned(BigInt::from(*n)), Cow::Owned(BigInt::from(*d))),
            Repr::Big(b) => (Cow::Borrowed(&b.0), Cow::Borrowed(&b.1)),
        }
    }

    /// The rational zero.
    pub const fn zero() -> Rational {
        Rational::small(0, 1)
    }

    /// The rational one.
    pub const fn one() -> Rational {
        Rational::small(1, 1)
    }

    /// Constructs `num / den`, normalising sign and reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Rational {
        assert!(!den.is_zero(), "rational with zero denominator");
        if let (Some(n), Some(d)) = (num.to_i64(), den.to_i64()) {
            // Both negations below are safe once `i64::MIN` is excluded.
            if n != i64::MIN && d != i64::MIN {
                if n == 0 {
                    return Rational::zero();
                }
                let (n, d) = if d < 0 { (-n, -d) } else { (n, d) };
                let g = gcd_u64(n.unsigned_abs(), d as u64) as i64;
                return Rational::small(n / g, d / g);
            }
        }
        let (mut num, mut den) = if den.is_negative() {
            (-num, -den)
        } else {
            (num, den)
        };
        if num.is_zero() {
            return Rational::zero();
        }
        let g = num.gcd(&den);
        if !g.is_one() {
            num = &num / &g;
            den = &den / &g;
        }
        match (num.to_i64(), den.to_i64()) {
            (Some(n), Some(d)) => Rational::small(n, d),
            _ => Rational {
                repr: Repr::Big(Box::new((num, den))),
            },
        }
    }

    /// Constructs the rational from an integer.
    pub fn from_int(v: impl Into<BigInt>) -> Rational {
        Rational::from(v.into())
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> BigInt {
        match &self.repr {
            Repr::Small(n, _) => BigInt::from(*n),
            Repr::Big(b) => b.0.clone(),
        }
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> BigInt {
        match &self.repr {
            Repr::Small(_, d) => BigInt::from(*d),
            Repr::Big(b) => b.1.clone(),
        }
    }

    /// Returns `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Small(0, _))
    }

    /// Returns `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        match &self.repr {
            Repr::Small(n, _) => *n > 0,
            Repr::Big(b) => b.0.is_positive(),
        }
    }

    /// Returns `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.repr {
            Repr::Small(n, _) => *n < 0,
            Repr::Big(b) => b.0.is_negative(),
        }
    }

    /// Returns `true` iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        match &self.repr {
            Repr::Small(_, d) => *d == 1,
            Repr::Big(b) => b.1.is_one(),
        }
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        match &self.repr {
            Repr::Small(n, d) => BigInt::from(n.div_euclid(*d)),
            Repr::Big(b) => b.0.div_floor(&b.1),
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        match &self.repr {
            // A non-zero remainder means `d >= 2`, so `q + 1` cannot overflow.
            Repr::Small(n, d) => {
                let q = n.div_euclid(*d);
                BigInt::from(if n.rem_euclid(*d) == 0 { q } else { q + 1 })
            }
            Repr::Big(b) => b.0.div_ceil(&b.1),
        }
    }

    /// Rounds towards zero.
    pub fn trunc(&self) -> BigInt {
        match &self.repr {
            Repr::Small(n, d) => BigInt::from(n / d),
            Repr::Big(b) => b.0.divrem(&b.1).0,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        if self.is_negative() {
            -self
        } else {
            self.clone()
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.repr {
            Repr::Small(n, d) if *n > 0 => Rational::small(*d, *n),
            Repr::Small(n, d) => Rational::reduced(-i128::from(*d), -i128::from(*n)),
            Repr::Big(b) if b.0.is_positive() => {
                Rational::from_reduced_limbs(b.1.clone(), b.0.clone())
            }
            Repr::Big(b) => Rational::from_reduced_limbs(-&b.1, -&b.0),
        }
    }

    /// Approximate `f64` value (for reporting only).
    pub fn to_f64(&self) -> f64 {
        match &self.repr {
            Repr::Small(n, d) => *n as f64 / *d as f64,
            Repr::Big(b) => b.0.to_f64() / b.1.to_f64(),
        }
    }

    /// If the value is an integer, returns it.
    pub fn to_integer(&self) -> Option<BigInt> {
        match &self.repr {
            Repr::Small(n, 1) => Some(BigInt::from(*n)),
            Repr::Small(..) => None,
            Repr::Big(b) => b.1.is_one().then(|| b.0.clone()),
        }
    }

    /// `self ± other`; `negate` selects subtraction.
    fn add_signed(&self, other: &Rational, negate: bool) -> Rational {
        if let (Repr::Small(a, b), Repr::Small(c, d)) = (&self.repr, &other.repr) {
            let (a, b, c, d) = (*a, *b, *c, *d);
            if b == 1 && d == 1 {
                let sum = if negate {
                    a.checked_sub(c)
                } else {
                    a.checked_add(c)
                };
                if let Some(s) = sum {
                    return Rational::small(s, 1);
                }
            }
            // Knuth's reduced addition: with g = gcd(b, d), only gcd(t, g)
            // can remain in t / (b/g · d).  All products stay below 2^127.
            let c = if negate {
                -i128::from(c)
            } else {
                i128::from(c)
            };
            let g = gcd_u64(b as u64, d as u64);
            let (b, d, g) = (i128::from(b), i128::from(d), i128::from(g));
            let t = i128::from(a) * (d / g) + c * (b / g);
            if t == 0 {
                return Rational::zero();
            }
            if g == 1 {
                return Rational::reduced(t, b * d);
            }
            let g2 = i128::from(gcd_u64(g as u64, (t.unsigned_abs() % g as u128) as u64));
            return Rational::reduced(t / g2, (b / g) * (d / g2));
        }
        let (a, b) = self.parts();
        let (c, d) = other.parts();
        let ad = &*a * &*d;
        let cb = &*c * &*b;
        let t = if negate { &ad - &cb } else { &ad + &cb };
        limb_result(t, &*b * &*d)
    }

    /// `self · other`, or `self / other` when `invert` is set (the caller
    /// rules out division by zero).
    fn mul_parts(&self, other: &Rational, invert: bool) -> Rational {
        if let (Repr::Small(a, b), Repr::Small(c, d)) = (&self.repr, &other.repr) {
            let (a, b) = (*a, *b);
            let (c, d) = if invert { (*d, *c) } else { (*c, *d) };
            if a == 0 || c == 0 {
                return Rational::zero();
            }
            if b == 1 && d == 1 {
                if let Some(p) = a.checked_mul(c) {
                    return Rational::small(p, 1);
                }
            }
            // Cross-cancel so the product is already in lowest terms.
            let g1 = gcd_u64(a.unsigned_abs(), d.unsigned_abs()) as i128;
            let g2 = gcd_u64(c.unsigned_abs(), b.unsigned_abs()) as i128;
            let num = (i128::from(a) / g1) * (i128::from(c) / g2);
            let den = (i128::from(b) / g2) * (i128::from(d) / g1);
            return if den < 0 {
                Rational::reduced(-num, -den)
            } else {
                Rational::reduced(num, den)
            };
        }
        let (a, b) = self.parts();
        let (c, d) = other.parts();
        if invert {
            limb_result(&*a * &*d, &*b * &*c)
        } else {
            limb_result(&*a * &*c, &*b * &*d)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::small(v, 1)
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        match v.to_i64() {
            Some(n) => Rational::small(n, 1),
            None => Rational {
                repr: Repr::Big(Box::new((v, BigInt::one()))),
            },
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b    (b, d > 0)
        if let (Repr::Small(a, b), Repr::Small(c, d)) = (&self.repr, &other.repr) {
            if b == d {
                return a.cmp(c);
            }
            return (i128::from(*a) * i128::from(*d)).cmp(&(i128::from(*c) * i128::from(*b)));
        }
        let (a, b) = self.parts();
        let (c, d) = other.parts();
        (&*a * &*d).cmp(&(&*c * &*b))
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        -&self
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match &self.repr {
            Repr::Small(n, d) => match n.checked_neg() {
                Some(m) => Rational::small(m, *d),
                None => Rational::reduced(-i128::from(*n), i128::from(*d)),
            },
            Repr::Big(b) => Rational::from_reduced_limbs(-&b.0, b.1.clone()),
        }
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, other: &Rational) -> Rational {
        self.add_signed(other, false)
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, other: &Rational) -> Rational {
        self.add_signed(other, true)
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, other: &Rational) -> Rational {
        self.mul_parts(other, false)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, other: &Rational) -> Rational {
        assert!(!other.is_zero(), "rational division by zero");
        self.mul_parts(other, true)
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, other: Rational) -> Rational {
                (&self).$method(&other)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, other: &Rational) -> Rational {
                (&self).$method(other)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, other: Rational) -> Rational {
                self.$method(&other)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, other: &Rational) {
        *self = &*self + other;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, other: &Rational) {
        *self = &*self - other;
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, other: &Rational) {
        *self = &*self * other;
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Small(n, 1) => write!(f, "{n}"),
            Repr::Small(n, d) => write!(f, "{n}/{d}"),
            Repr::Big(b) if b.1.is_one() => write!(f, "{}", b.0),
            Repr::Big(b) => write!(f, "{}/{}", b.0, b.1),
        }
    }
}

/// Error returned when parsing a [`Rational`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError {
    msg: String,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.msg)
    }
}

impl std::error::Error for ParseRationalError {}

impl FromStr for Rational {
    type Err = ParseRationalError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse().map_err(|e| ParseRationalError {
                msg: format!("{e}"),
            })?;
            let den: BigInt = d.trim().parse().map_err(|e| ParseRationalError {
                msg: format!("{e}"),
            })?;
            if den.is_zero() {
                return Err(ParseRationalError {
                    msg: "zero denominator".to_string(),
                });
            }
            Ok(Rational::new(num, den))
        } else {
            let num: BigInt = s.parse().map_err(|e| ParseRationalError {
                msg: format!("{e}"),
            })?;
            Ok(Rational::from(num))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(BigInt::from(n), BigInt::from(d))
    }

    #[test]
    fn normalisation() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 7), Rational::zero());
        assert!(r(3, -3).is_negative());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(BigInt::one(), BigInt::zero());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(&r(1, 2) + &r(1, 3), r(5, 6));
        assert_eq!(&r(1, 2) - &r(1, 3), r(1, 6));
        assert_eq!(&r(2, 3) * &r(3, 4), r(1, 2));
        assert_eq!(&r(2, 3) / &r(4, 3), r(1, 2));
        assert_eq!(-r(2, 3), r(-2, 3));
    }

    #[test]
    fn comparisons() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == Rational::one());
        assert!(r(5, 2) > Rational::from_int(2i64));
        assert!(r(5, 2) < Rational::from_int(3i64));
    }

    #[test]
    fn floor_ceil_trunc() {
        assert_eq!(r(7, 2).floor(), BigInt::from(3i64));
        assert_eq!(r(7, 2).ceil(), BigInt::from(4i64));
        assert_eq!(r(-7, 2).floor(), BigInt::from(-4i64));
        assert_eq!(r(-7, 2).ceil(), BigInt::from(-3i64));
        assert_eq!(r(-7, 2).trunc(), BigInt::from(-3i64));
        assert_eq!(r(4, 2).floor(), BigInt::from(2i64));
        assert_eq!(r(4, 2).ceil(), BigInt::from(2i64));
    }

    #[test]
    fn integrality() {
        assert!(r(4, 2).is_integer());
        assert!(!r(5, 2).is_integer());
        assert_eq!(r(4, 2).to_integer(), Some(BigInt::from(2i64)));
        assert_eq!(r(5, 2).to_integer(), None);
    }

    #[test]
    fn reciprocal() {
        assert_eq!(r(2, 3).recip(), r(3, 2));
        assert_eq!(r(-2, 3).recip(), r(-3, 2));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::zero().recip();
    }

    #[test]
    fn parse_and_display() {
        assert_eq!("3/4".parse::<Rational>().unwrap(), r(3, 4));
        assert_eq!("-3/4".parse::<Rational>().unwrap(), r(-3, 4));
        assert_eq!("6/4".parse::<Rational>().unwrap().to_string(), "3/2");
        assert_eq!("5".parse::<Rational>().unwrap(), Rational::from_int(5i64));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("x/2".parse::<Rational>().is_err());
    }

    #[test]
    fn overflow_promotes_and_fitting_results_demote() {
        take_promotions();
        let max = Rational::from(i64::MAX);
        let big = &max + &Rational::one();
        assert_eq!(big.numer(), &BigInt::from(i64::MAX) + &BigInt::one());
        assert_eq!(take_promotions(), 1);
        assert_eq!(&big - &Rational::one(), max);
        assert_eq!(take_promotions(), 0);
        // `-i64::MIN` does not fit either.
        assert_eq!(-Rational::from(i64::MIN), big);
        assert_eq!(r(1, i64::MIN).recip(), Rational::from(i64::MIN));
        assert_eq!(
            r(-1, i64::MIN),
            r(1, i64::MAX) * r(i64::MAX, i64::MIN).abs()
        );
        assert!(take_promotions() >= 2);
        // Building a large value is not arithmetic.
        let huge = Rational::from(&BigInt::from(i64::MAX) * &BigInt::from(4i64));
        assert!(huge > big);
        assert_eq!(take_promotions(), 0);
    }

    #[test]
    fn assign_operators() {
        let mut x = r(1, 2);
        x += &r(1, 2);
        assert_eq!(x, Rational::one());
        x -= &r(1, 4);
        assert_eq!(x, r(3, 4));
        x *= &r(4, 3);
        assert_eq!(x, Rational::one());
    }
}
