//! Solution-size bounds for integer programs.
//!
//! The paper's NP membership proofs (Theorem 4.1, Lemma 5.3) rely on
//! Papadimitriou's theorem: if an integer program `A x ≥ b` with `m` rows,
//! `n` columns and largest absolute constant `a` has a non-negative integer
//! solution, then it has one in which every component is at most
//! `n · (m · a)^{2m+1}`.  The paper also derives from this the constant `c`
//! used to rewrite the conditional constraints `x > 0 → y > 0` as `c·y ≥ x`.

use crate::bignum::BigInt;
use crate::linear::IntegerProgram;

/// Papadimitriou's bound `n (m a)^{2m+1}` for a system with `n` variables,
/// `m` constraints and maximum absolute integer constant `a`.
pub fn papadimitriou_bound(num_vars: usize, num_constraints: usize, max_abs: &BigInt) -> BigInt {
    let n = BigInt::from(num_vars.max(1));
    let m = BigInt::from(num_constraints.max(1));
    let a = if max_abs.is_zero() {
        BigInt::one()
    } else {
        max_abs.abs()
    };
    let base = &m * &a;
    let exp = 2 * (num_constraints as u64) + 1;
    &n * &base.pow(exp)
}

/// The bound for a concrete program, taking `a` from its scaled coefficients.
///
/// Conditional constraints are counted as one extra row each, matching the
/// paper's big-constant rewriting which adds one inequality per conditional.
pub fn program_bound<L>(program: &IntegerProgram<L>) -> BigInt {
    let m = program.num_constraints() + program.num_conditionals();
    papadimitriou_bound(program.num_vars(), m, &program.max_abs_coefficient())
}

/// The constant `c` of Theorem 4.1: a number whose binary representation has
/// `1 + ⌈log n + (2m+1)·log(m·a)⌉` ones, i.e. `2^k - 1` for that many bits.
/// Any integer solution, if one exists, is bounded by `c`, so `c·y ≥ x`
/// faithfully encodes `x > 0 → y > 0` over the solutions that matter.
pub fn big_constant(num_vars: usize, num_constraints: usize, max_abs: &BigInt) -> BigInt {
    // We take the slightly larger but simpler-to-compute value
    // 2^(bits(papadimitriou_bound)+1) - 1, which is >= the paper's c and
    // therefore equally sound.
    let bound = papadimitriou_bound(num_vars, num_constraints, max_abs);
    let bits = bound.bits() + 1;
    &BigInt::from(2i64).pow(bits) - &BigInt::one()
}

/// The big constant for a concrete program.
pub fn program_big_constant<L>(program: &IntegerProgram<L>) -> BigInt {
    let m = program.num_constraints() + program.num_conditionals();
    big_constant(program.num_vars(), m, &program.max_abs_coefficient())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{IntegerProgram, LinExpr};
    use crate::rational::Rational;

    #[test]
    fn bound_is_monotone_in_size() {
        let a = BigInt::from(3i64);
        let b1 = papadimitriou_bound(2, 2, &a);
        let b2 = papadimitriou_bound(4, 2, &a);
        let b3 = papadimitriou_bound(2, 4, &a);
        assert!(b2 > b1);
        assert!(b3 > b1);
    }

    #[test]
    fn bound_small_system() {
        // n = 2, m = 1, a = 2: 2 * (1*2)^3 = 16.
        assert_eq!(
            papadimitriou_bound(2, 1, &BigInt::from(2i64)),
            BigInt::from(16i64)
        );
    }

    #[test]
    fn bound_handles_zero_inputs() {
        let b = papadimitriou_bound(0, 0, &BigInt::zero());
        assert!(b >= BigInt::one());
    }

    #[test]
    fn big_constant_dominates_bound() {
        let a = BigInt::from(5i64);
        let bound = papadimitriou_bound(3, 2, &a);
        let c = big_constant(3, 2, &a);
        assert!(c >= bound);
    }

    #[test]
    fn program_bound_uses_coefficients() {
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let mut e = LinExpr::term(Rational::from_int(7i64), x);
        e.add_term(y, Rational::from_int(-2i64));
        p.add_eq(e, Rational::from_int(3i64), "row");
        let b = program_bound(&p);
        // n=2, m=1, a=7: 2*(7)^3 = 686.
        assert_eq!(b, BigInt::from(686i64));
        assert!(program_big_constant(&p) >= b);
    }
}
