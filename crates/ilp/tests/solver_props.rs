//! The branch-and-bound solver agrees with brute-force enumeration on small
//! random programs, under both treatments of conditional constraints, and
//! the big-constant treatment stays exact when its constant leaves `i64`.
//! Programs with planted aliases, singletons, duplicate rows and
//! conditionals across aliased variables exercise the presolve: its answer
//! and its lifted assignment are checked against the original program.

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
    build_with_lowers(&vec![0; num_vars], rows, conditionals)
}

/// Like [`build`], with variable `j` in `[lowers[j], UPPER]`.
fn build_with_lowers(
    lowers: &[i64],
    rows: &[Row],
    conditionals: &[(usize, usize)],
) -> IntegerProgram {
    let num_vars = lowers.len();
    let mut p = IntegerProgram::new();
    let vars: Vec<_> = lowers
        .iter()
        .enumerate()
        .map(|(j, &lower)| {
            p.add_var_bounded(
                format!("x{j}"),
                BigInt::from(lower),
                Some(BigInt::from(UPPER)),
            )
        })
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
        // Once an LP relaxation is built with a conditional that survived
        // presolve, a constant beyond `i64` enters the tableau in limbs.
        if stats.lp_calls > 0
            && stats.presolve_conditionals_kept > 0
            && exceeds_i64(&program_big_constant(&p))
        {
            prop_assert!(stats.promotions > 0, "c beyond i64 without promotions\n{}", p.render());
        }
    }
}

/// A row over `num_vars` variables with the given `(variable,
/// coefficient)` terms and zeros elsewhere.
fn sparse_row(num_vars: usize, terms: &[(usize, i64)], op: u8, rhs: i64) -> Row {
    let mut coeffs = vec![0; num_vars];
    for &(v, c) in terms {
        coeffs[v] += c;
    }
    (coeffs, op, rhs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn presolve_preserves_answers_on_planted_structure(
        num_vars in 2usize..6,
        rows in proptest::collection::vec(
            (proptest::collection::vec(-3i64..4, 5..6), 0u8..3, -3i64..7),
            0..4,
        ),
        aliases in proptest::collection::vec((0usize..5, 0usize..5, 1i64..3), 0..4),
        singletons in proptest::collection::vec((0usize..5, 1i64..3, 0i64..5), 0..2),
        duplicates in proptest::collection::vec(0usize..4, 0..3),
        variants in proptest::collection::vec((0usize..4, 0u8..3, -3i64..7), 0..2),
        lowers in proptest::collection::vec(0i64..3, 5..6),
        conditionals in proptest::collection::vec((0usize..5, 0usize..5), 0..3),
        linked in proptest::collection::vec(0u8..2, 4..5),
    ) {
        let n = num_vars;
        let mut all: Vec<Row> = rows.clone();
        let mut planted = 0;
        for &d in &duplicates {
            if let Some(row) = rows.get(d % rows.len().max(1)) {
                all.push(row.clone());
                planted += 1;
            }
        }
        // Same terms, another operator or right-hand side: not a duplicate.
        for &(d, op, rhs) in &variants {
            if let Some((coeffs, _, _)) = rows.get(d % rows.len().max(1)) {
                all.push((coeffs.clone(), op, rhs));
            }
        }
        // `k·x − k·y = 0`: an alias with a non-unit coefficient.
        for &(a, b, k) in &aliases {
            if a % n != b % n {
                all.push(sparse_row(n, &[(a % n, k), (b % n, -k)], 2, 0));
                planted += 1;
            }
        }
        // `a·x = r`: sometimes non-integer, sometimes beyond the bound.
        for &(x, a, r) in &singletons {
            all.push(sparse_row(n, &[(x % n, a)], 2, r));
            planted += 1;
        }
        // Conditionals between random variables and across aliased ones.
        let mut conds: Vec<(usize, usize)> = conditionals.clone();
        for (&(a, b, _), &link) in aliases.iter().zip(&linked) {
            if link == 1 {
                conds.push((b, (a + 1) % n));
            }
        }
        // Mostly zero lower bounds, so that aliases rarely clash outright.
        let lowers: Vec<i64> = lowers[..n].iter().map(|&l| if l == 2 { 1 } else { 0 }).collect();
        let p = build_with_lowers(&lowers, &all, &conds);
        let oracle = enumerate_feasible(&p, UPPER as u64).is_some();
        for mode in [ConditionalMode::Branch, ConditionalMode::BigConstant] {
            let (outcome, stats) = solve(&p, mode);
            prop_assert!(agrees(&p, &outcome, oracle), "{:?}: {:?}, oracle {}\n{}", mode, outcome, oracle, p.render());
            // Every planted row is an alias, a singleton or a copy, so a
            // presolve that got through the program removed each of them.
            if outcome.is_feasible() {
                prop_assert!(stats.presolve_rows_removed >= planted, "{:?} < {}\n{}", stats, planted, p.render());
            }
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
