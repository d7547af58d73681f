//! Every `Rational` operation agrees with a limb-only reference computed
//! from `BigInt` parts, on operands drawn around the edges of the inline
//! `i64` representation (`i64::MIN`, `i64::MAX`, ±1, 0), and every result is
//! in canonical form.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xic_ilp::{BigInt, Rational};

/// An `i64` near one of the representation's edges, or anywhere.
fn edge_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        (0i64..4).prop_map(|k| i64::MAX - k),
        (0i64..4).prop_map(|k| i64::MIN + k),
        -2i64..3,
        (0u32..63).prop_map(|k| 1i64 << k),
        (0u32..63).prop_map(|k| -(1i64 << k)),
        i64::MIN..i64::MAX,
    ]
}

/// A non-zero edge `i64` (for denominators).
fn edge_nonzero() -> impl Strategy<Value = i64> {
    edge_i64().prop_map(|v| if v == 0 { 1 } else { v })
}

/// `num / den` reduced by the reference: positive denominator, lowest
/// terms, zero as `0/1`.
fn reference(num: BigInt, den: BigInt) -> (BigInt, BigInt) {
    assert!(!den.is_zero());
    let (num, den) = if den.is_negative() {
        (-num, -den)
    } else {
        (num, den)
    };
    if num.is_zero() {
        return (BigInt::zero(), BigInt::one());
    }
    let g = num.gcd(&den);
    (&num / &g, &den / &g)
}

fn hash_of(r: &Rational) -> u64 {
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

/// `r` has the reference parts, and equals (and hashes like) the value
/// rebuilt from those parts.
fn check(r: &Rational, (num, den): (BigInt, BigInt), what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(r.numer(), num.clone(), "{} numerator", what);
    prop_assert_eq!(r.denom(), den.clone(), "{} denominator", what);
    let rebuilt = Rational::new(num, den);
    prop_assert_eq!(&rebuilt, r, "{} canonical form", what);
    prop_assert_eq!(hash_of(&rebuilt), hash_of(r), "{} hash", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn ops_match_the_limb_reference(
        a in edge_i64(),
        b in edge_nonzero(),
        c in edge_i64(),
        d in edge_nonzero(),
    ) {
        let x = Rational::new(BigInt::from(a), BigInt::from(b));
        let y = Rational::new(BigInt::from(c), BigInt::from(d));
        let (xn, xd) = reference(BigInt::from(a), BigInt::from(b));
        let (yn, yd) = reference(BigInt::from(c), BigInt::from(d));
        check(&x, (xn.clone(), xd.clone()), "x")?;
        check(&y, (yn.clone(), yd.clone()), "y")?;

        check(&(&x + &y), reference(&(&xn * &yd) + &(&yn * &xd), &xd * &yd), "x + y")?;
        check(&(&x - &y), reference(&(&xn * &yd) - &(&yn * &xd), &xd * &yd), "x - y")?;
        check(&(&x * &y), reference(&xn * &yn, &xd * &yd), "x * y")?;
        if !yn.is_zero() {
            check(&(&x / &y), reference(&xn * &yd, &xd * &yn), "x / y")?;
            check(&y.recip(), reference(yd.clone(), yn.clone()), "recip y")?;
        }
        check(&-&x, reference(-xn.clone(), xd.clone()), "-x")?;
        check(&x.abs(), reference(xn.abs(), xd.clone()), "abs x")?;

        prop_assert_eq!(x.cmp(&y), (&xn * &yd).cmp(&(&yn * &xd)));
        prop_assert_eq!(x.floor(), xn.div_floor(&xd));
        prop_assert_eq!(x.ceil(), xn.div_ceil(&xd));
        prop_assert_eq!(x.trunc(), xn.divrem(&xd).0);
        prop_assert_eq!(x.is_integer(), xd.is_one());
        prop_assert_eq!(x.is_negative(), xn.is_negative());
        prop_assert_eq!(x.to_string().parse::<Rational>().unwrap(), x.clone());
    }

    /// Values that leave the inline form come back to it: a promoted
    /// intermediate demotes once the result fits again, so the round trip is
    /// structurally equal to where it started.
    #[test]
    fn promoted_intermediates_demote(
        a in edge_i64(),
        b in edge_nonzero(),
        c in edge_i64(),
        d in edge_nonzero(),
    ) {
        let x = Rational::new(BigInt::from(a), BigInt::from(b));
        let y = Rational::new(BigInt::from(c), BigInt::from(d));
        let back = &(&x + &y) - &y;
        prop_assert_eq!(&back, &x);
        prop_assert_eq!(hash_of(&back), hash_of(&x));
        if !y.is_zero() {
            let back = &(&x * &y) / &y;
            prop_assert_eq!(&back, &x);
            prop_assert_eq!(hash_of(&back), hash_of(&x));
        }
    }

    /// The same value built from limb parts scaled by a factor beyond `i64`
    /// reduces to the inline value (and its hash).
    #[test]
    fn scaled_limb_parts_reduce_to_the_inline_value(
        a in edge_i64(),
        b in edge_nonzero(),
        k in 1u32..80,
    ) {
        let x = Rational::new(BigInt::from(a), BigInt::from(b));
        let scale = BigInt::from(3i64).pow(u64::from(k));
        let scaled = Rational::new(&BigInt::from(a) * &scale, &BigInt::from(b) * &scale);
        prop_assert_eq!(&scaled, &x);
        prop_assert_eq!(hash_of(&scaled), hash_of(&x));
    }
}
