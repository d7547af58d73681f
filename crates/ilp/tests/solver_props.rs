//! The branch-and-bound solver agrees with brute-force enumeration on small
//! random programs, under both treatments of conditional constraints, and
//! the big-constant treatment stays exact when its constant leaves `i64`.

use proptest::prelude::*;
use xic_ilp::bounds::program_big_constant;
use xic_ilp::enumerate::enumerate_feasible;
use xic_ilp::{
    BigInt, CmpOp, ConditionalMode, IlpSolver, IntegerProgram, LinExpr, Rational, SolveOutcome,
    SolveStats, SolverConfig,
};

/// Every variable is bounded by this, so enumeration is a complete oracle.
const UPPER: i64 = 3;

/// One random row: a coefficient per variable, an operator and a
/// right-hand side.
type Row = (Vec<i64>, u8, i64);

fn build(num_vars: usize, rows: &[Row], conditionals: &[(usize, usize)]) -> IntegerProgram {
    let mut p = IntegerProgram::new();
    let vars: Vec<_> = (0..num_vars)
        .map(|j| p.add_var_bounded(format!("x{j}"), BigInt::zero(), Some(BigInt::from(UPPER))))
        .collect();
    for (i, (coeffs, op, rhs)) in rows.iter().enumerate() {
        let mut e = LinExpr::new();
        for (&v, &c) in vars.iter().zip(coeffs) {
            e.add_term(v, Rational::from(c));
        }
        let op = [CmpOp::Le, CmpOp::Ge, CmpOp::Eq][usize::from(*op)];
        p.add_constraint(e, op, Rational::from(*rhs), format!("row{i}"));
    }
    for (i, &(a, b)) in conditionals.iter().enumerate() {
        let (a, b) = (vars[a % num_vars], vars[b % num_vars]);
        if a != b {
            p.add_conditional(a, b, format!("cond{i}"));
        }
    }
    p
}

fn solve(p: &IntegerProgram, mode: ConditionalMode) -> (SolveOutcome, SolveStats) {
    IlpSolver::with_config(SolverConfig {
        conditional_mode: mode,
        ..SolverConfig::default()
    })
    .solve_with_stats(p)
}

/// Checks one mode's answer against the oracle's.
fn agrees(p: &IntegerProgram, outcome: &SolveOutcome, oracle_feasible: bool) -> bool {
    match outcome {
        SolveOutcome::Feasible(a) => oracle_feasible && p.is_satisfied_by(a),
        SolveOutcome::Infeasible => !oracle_feasible,
        SolveOutcome::Unknown(_) => false,
    }
}

fn exceeds_i64(c: &BigInt) -> bool {
    c.to_i64().is_none()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn solver_matches_enumeration_in_both_modes(
        num_vars in 2usize..5,
        rows in proptest::collection::vec(
            (proptest::collection::vec(-3i64..4, 4..5), 0u8..3, -3i64..7),
            1..7,
        ),
        conditionals in proptest::collection::vec((0usize..4, 0usize..4), 0..4),
    ) {
        let p = build(num_vars, &rows, &conditionals);
        let oracle = enumerate_feasible(&p, UPPER as u64).is_some();
        let (branch, _) = solve(&p, ConditionalMode::Branch);
        prop_assert!(agrees(&p, &branch, oracle), "branch {:?}, oracle {}\n{}", branch, oracle, p.render());
        let (big, stats) = solve(&p, ConditionalMode::BigConstant);
        prop_assert!(agrees(&p, &big, oracle), "big constant {:?}, oracle {}\n{}", big, oracle, p.render());
        // Once an LP relaxation is built (presolve may settle the program
        // first), a constant beyond `i64` enters the tableau in limbs.
        if stats.lp_calls > 0 && p.num_conditionals() > 0 && exceeds_i64(&program_big_constant(&p)) {
            prop_assert!(stats.promotions > 0, "c beyond i64 without promotions\n{}", p.render());
        }
    }
}

/// A program with enough rows that the Theorem 4.1 constant `c` exceeds
/// `i64::MAX`: the big-constant rewriting must promote and still agree with
/// case-splitting, on a feasible and an infeasible variant.
#[test]
fn big_constant_beyond_i64_agrees_with_branching() {
    // x0 + x1 + x2 = 3 (with x0 > 0 → x1 > 0 → x2 > 0) plus padding rows.
    let mut rows: Vec<Row> = vec![(vec![1, 1, 1], 2, 3), (vec![1, 0, 0], 1, 1)];
    rows.extend((0..8).map(|_| (vec![3, -3, 1], 0, 6)));
    let chain = [(0, 1), (1, 2)];
    let feasible = build(3, &rows, &chain);
    assert!(exceeds_i64(&program_big_constant(&feasible)));

    // x2 = 0 contradicts the chain once x0 ≥ 1.
    let mut rows_inf = rows.clone();
    rows_inf.push((vec![0, 0, 1], 2, 0));
    let infeasible = build(3, &rows_inf, &chain);

    for (p, expect) in [(&feasible, true), (&infeasible, false)] {
        let (branch, _) = solve(p, ConditionalMode::Branch);
        let (big, stats) = solve(p, ConditionalMode::BigConstant);
        assert_eq!(branch.is_feasible(), expect);
        assert_eq!(big.is_feasible(), expect);
        assert!(agrees(
            p,
            &big,
            enumerate_feasible(p, UPPER as u64).is_some()
        ));
        assert!(stats.promotions > 0, "{stats:?}");
    }
    // Case-splitting on the same program never leaves the inline form.
    assert_eq!(solve(&feasible, ConditionalMode::Branch).1.promotions, 0);
}
