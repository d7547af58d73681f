//! # xic-ilp — exact integer linear programming substrate
//!
//! Fan & Libkin's consistency analysis for XML keys and foreign keys works by
//! *coding DTDs and unary constraints with linear constraints on the
//! integers* (their Theorem 4.1) and then asking whether the resulting system
//! has a non-negative integer solution.  The paper leans on linear integer
//! programming as a black box; this crate is that black box, built from
//! scratch:
//!
//! * [`bignum::BigInt`] / [`rational::Rational`] — exact arbitrary-precision
//!   arithmetic, so feasibility answers are never a rounding artefact.
//!   Rationals that fit machine words are held inline and computed with
//!   `i128` products and machine-word gcds; a result that overflows is
//!   promoted to `BigInt` parts (and demoted again once it fits), so the
//!   common case allocates nothing and the big constants stay exact;
//! * [`linear::IntegerProgram`] — the modelling layer used by `xic-core` to
//!   materialise the cardinality systems Ψ_D, C_Σ, Ψ(D,Σ) and Ψ'(D,Σ);
//! * [`simplex`] — an exact two-phase primal simplex for LP relaxations;
//! * [`solver::IlpSolver`] — branch-and-bound integer feasibility with both
//!   treatments of the paper's conditional constraints `x > 0 → y > 0`
//!   (case-splitting and the big-constant rewriting).  Every solve first
//!   presolves the program: two-term aliases `a·x − a·y = 0` collapse into
//!   one column per class (union-find), one-term equalities fix their
//!   variable, rows left empty or duplicated are dropped and conditionals
//!   are renamed to class representatives or settled, to a fixpoint.  The
//!   search runs on what is left, weighing each column by its class size;
//!   its solution is lifted back to every original variable and verified
//!   against the original program;
//! * [`bounds`] — Papadimitriou's solution-size bound, which the paper uses
//!   to justify the big-constant encoding;
//! * [`enumerate`] — a brute-force oracle used for differential testing.
//!
//! The crate is deliberately self-contained (no external numeric or solver
//! dependencies) so that the whole reproduction builds offline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bignum;
pub mod bounds;
pub mod enumerate;
pub mod linear;
mod presolve;
pub mod rational;
pub mod simplex;
pub mod solver;

pub use bignum::BigInt;
pub use linear::{Assignment, CmpOp, IntegerProgram, LinExpr, VarId};
pub use rational::Rational;
pub use solver::{ConditionalMode, IlpSolver, SolveOutcome, SolveStats, SolverConfig};

#[cfg(test)]
mod integration_tests {
    use super::*;

    /// The cardinality argument from the paper's introduction: the teachers
    /// DTD forces |ext(subject)| = 2·|ext(teacher)| with |ext(teacher)| ≥ 1,
    /// while Σ1 forces |ext(subject)| ≤ |ext(teacher)|.  The combined system
    /// must be infeasible.
    #[test]
    fn teachers_cardinality_argument() {
        let mut p = IntegerProgram::new();
        let teacher = p.add_var("ext(teacher)");
        let subject = p.add_var("ext(subject)");
        p.add_ge(LinExpr::var(teacher), Rational::one(), "teacher+ nonempty");
        let mut two_teachers = LinExpr::term(Rational::from_int(2i64), teacher);
        two_teachers.add_term(subject, -Rational::one());
        p.add_eq(two_teachers, Rational::zero(), "2|teacher| = |subject|");
        let mut diff = LinExpr::var(subject);
        diff.add_term(teacher, -Rational::one());
        p.add_le(diff, Rational::zero(), "|subject| <= |teacher|");
        assert!(IlpSolver::new().solve(&p).is_infeasible());
    }

    /// Differential test on a fixed mixed system: the branch-and-bound solver
    /// and the brute-force enumerator agree on feasibility.
    #[test]
    fn solver_agrees_with_enumeration() {
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let z = p.add_var("z");
        let mut e1 = LinExpr::var(x);
        e1.add_term(y, Rational::from_int(2i64));
        p.add_eq(e1, Rational::from_int(5i64), "x+2y=5");
        let mut e2 = LinExpr::var(y);
        e2.add_term(z, Rational::from_int(3i64));
        p.add_le(e2, Rational::from_int(4i64), "y+3z<=4");
        p.add_conditional(x, z, "x→z");
        let bb = IlpSolver::new().solve(&p);
        let brute = enumerate::enumerate_feasible(&p, 6);
        assert_eq!(bb.is_feasible(), brute.is_some());
        if let Some(a) = bb.assignment() {
            assert!(p.is_satisfied_by(a));
        }
    }
}
