//! Branch-and-bound integer feasibility solver.
//!
//! The consistency procedures of the paper reduce an XML specification to the
//! question "does this system of linear integer constraints (plus conditional
//! constraints `x > 0 → y > 0`) have a non-negative integer solution?".  This
//! module answers that question with a classic LP-relaxation branch-and-bound
//! search over the exact [`crate::simplex`] engine.
//!
//! Conditional constraints can be treated in two ways, mirroring the paper:
//!
//! * [`ConditionalMode::Branch`] — case analysis `(x = 0) ∨ (y ≥ 1)`, i.e.
//!   the subset enumeration of Theorem 4.1 organised as branching;
//! * [`ConditionalMode::BigConstant`] — the paper's single-system rewriting
//!   `c · y ≥ x` with `c` taken from the Papadimitriou bound.
//!
//! The solver prefers small solutions (it minimises the sum of all variables
//! at every LP relaxation), which keeps synthesized witness documents small.
//!
//! Every solve starts with a presolve (see `presolve.rs`).  In Ψ(D,Σ) most
//! rows are aliases `|ext(τ)| − x = 0` from the simple-DTD normal form, so
//! the presolve merges aliased variables into classes, fixes variables
//! pinned by one-term equalities, drops rows left empty or duplicated, and
//! renames or settles the conditionals, repeating to a fixpoint.  It proves
//! many inconsistent systems infeasible with no LP at all; the gcd test then
//! runs on the reduced rows, where aliasing can expose a parity clash.  The
//! search works on one column per surviving class, weighted by the class
//! size so the objective is still the original `Σ x_j`.  A candidate is
//! lifted back (each variable takes its class's value or its fixed
//! constant) and returned only if it satisfies the original program, so
//! callers always see a full-length assignment over the original
//! [`crate::VarId`]s.  The big-constant treatment keeps the constant `c` of
//! the original program.

use crate::bignum::BigInt;
use crate::bounds::program_big_constant;
use crate::linear::{Assignment, CmpOp, IntegerProgram};
use crate::presolve::{presolve, Row};
use crate::rational::{self, Rational};
use crate::simplex::{self, LpOutcome, LpProblem, LpRow};

/// How conditional constraints `x > 0 → y > 0` are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConditionalMode {
    /// Branch on `(x = 0) ∨ (y ≥ 1)` (default; usually much faster).
    Branch,
    /// Rewrite as `c · y ≥ x` with the Papadimitriou-derived big constant
    /// (the paper's Theorem 4.1 encoding, kept for fidelity and ablation).
    BigConstant,
}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum number of branch-and-bound nodes before giving up with
    /// [`SolveOutcome::Unknown`].
    pub max_nodes: usize,
    /// Treatment of conditional constraints.
    pub conditional_mode: ConditionalMode,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_nodes: 100_000,
            conditional_mode: ConditionalMode::Branch,
        }
    }
}

/// Result of an integer feasibility check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A satisfying integer assignment was found.
    Feasible(Assignment),
    /// The system has no non-negative integer solution.
    Infeasible,
    /// The search hit its resource limit before reaching a conclusion.
    Unknown(String),
}

impl SolveOutcome {
    /// Returns the assignment if feasible.
    pub fn assignment(&self) -> Option<&Assignment> {
        match self {
            SolveOutcome::Feasible(a) => Some(a),
            _ => None,
        }
    }

    /// Returns `true` iff the outcome is [`SolveOutcome::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, SolveOutcome::Feasible(_))
    }

    /// Returns `true` iff the outcome is [`SolveOutcome::Infeasible`].
    pub fn is_infeasible(&self) -> bool {
        matches!(self, SolveOutcome::Infeasible)
    }
}

/// Search statistics, reported alongside outcomes for the bench harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// LP relaxations solved.
    pub lp_calls: usize,
    /// Nodes pruned by LP infeasibility.
    pub pruned_infeasible: usize,
    /// Simplex pivots over all LP relaxations.
    pub pivots: usize,
    /// Arithmetic results that did not fit the inline rational form and were
    /// computed in limbs (see [`crate::rational`]).
    pub promotions: u64,
    /// Linear constraints the presolve removed (aliases, singletons, rows
    /// left empty and duplicates).
    pub presolve_rows_removed: usize,
    /// Variables the presolve removed (merged into a class, fixed, or
    /// mentioned by no remaining row).
    pub presolve_vars_removed: usize,
    /// Conditional constraints that survived the presolve and so reached the
    /// search (as case splits, or as big-constant rows).
    pub presolve_conditionals_kept: usize,
}

/// Branch-and-bound ILP feasibility solver.
#[derive(Debug, Clone, Default)]
pub struct IlpSolver {
    config: SolverConfig,
}

/// Per-column search-node state.
#[derive(Debug, Clone)]
struct Node {
    lower: Vec<BigInt>,
    upper: Vec<Option<BigInt>>,
}

impl IlpSolver {
    /// Creates a solver with the default configuration.
    pub fn new() -> IlpSolver {
        IlpSolver::default()
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> IlpSolver {
        IlpSolver { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Decides integer feasibility of `program`.
    pub fn solve<L>(&self, program: &IntegerProgram<L>) -> SolveOutcome {
        self.solve_with_stats(program).0
    }

    /// Decides integer feasibility and reports search statistics.
    pub fn solve_with_stats<L>(&self, program: &IntegerProgram<L>) -> (SolveOutcome, SolveStats) {
        let mut stats = SolveStats::default();
        rational::take_promotions();
        let outcome = self.search(program, &mut stats);
        stats.promotions = rational::take_promotions();
        (outcome, stats)
    }

    /// Presolve, then the branch-and-bound search over the reduced system;
    /// a solution is lifted and verified against `program` itself.
    fn search<L>(&self, program: &IntegerProgram<L>, stats: &mut SolveStats) -> SolveOutcome {
        let Ok(mut reduced) = presolve(program) else {
            return SolveOutcome::Infeasible;
        };
        stats.presolve_rows_removed = program.num_constraints() - reduced.rows.len();
        stats.presolve_vars_removed = program.num_vars() - reduced.num_cols();
        stats.presolve_conditionals_kept = reduced.conditionals.len();
        if gcd_infeasible(&reduced.rows) {
            return SolveOutcome::Infeasible;
        }
        let n = reduced.num_cols();
        if n == 0 {
            // Presolve settled every variable: no row or conditional is left.
            let lifted = reduced.lift(&[]);
            return if program.is_satisfied_by(&lifted) {
                SolveOutcome::Feasible(lifted)
            } else {
                SolveOutcome::Infeasible
            };
        }

        // The big-constant treatment turns each surviving conditional into
        // the row `c · consequent − antecedent ≥ 0`, with the paper's `c`
        // for the original program.
        let mut rows = std::mem::take(&mut reduced.rows);
        if self.config.conditional_mode == ConditionalMode::BigConstant
            && !reduced.conditionals.is_empty()
        {
            let c = Rational::from(program_big_constant(program));
            for &(antecedent, consequent) in &reduced.conditionals {
                let mut terms = vec![(consequent, c.clone()), (antecedent, -Rational::one())];
                terms.sort_by_key(|&(column, _)| column);
                rows.push(Row {
                    terms,
                    op: CmpOp::Ge,
                    rhs: Rational::zero(),
                });
            }
        }

        let root = Node {
            lower: reduced.lower.clone(),
            upper: reduced.upper.clone(),
        };

        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            if stats.nodes >= self.config.max_nodes {
                return SolveOutcome::Unknown(format!(
                    "node limit of {} reached after {} LP relaxations",
                    self.config.max_nodes, stats.lp_calls
                ));
            }
            stats.nodes += 1;

            // Quick bound sanity check.
            if node
                .lower
                .iter()
                .zip(&node.upper)
                .any(|(l, u)| matches!(u, Some(u) if u < l))
            {
                stats.pruned_infeasible += 1;
                continue;
            }

            // Solve the LP relaxation for this node.
            stats.lp_calls += 1;
            let lp = build_relaxation(n, &rows, &reduced.weight, &node);
            let (outcome, pivots) = simplex::solve_with_pivots(&lp);
            stats.pivots += pivots;
            let values = match outcome {
                LpOutcome::Infeasible => {
                    stats.pruned_infeasible += 1;
                    continue;
                }
                LpOutcome::Unbounded => {
                    // Feasibility objective (minimise a positive combination
                    // of variables bounded below) cannot be unbounded; treat
                    // defensively as a vertex at the lower bounds.
                    vec![Rational::zero(); n]
                }
                LpOutcome::Optimal { values, .. } => values,
            };
            // Translate shifted LP values back to column space.
            let abs_values: Vec<Rational> = values
                .iter()
                .enumerate()
                .map(|(j, v)| v + &Rational::from(node.lower[j].clone()))
                .collect();

            // Find a fractional variable to branch on.
            if let Some(j) = abs_values.iter().position(|v| !v.is_integer()) {
                let v = &abs_values[j];
                let floor = v.floor();
                let ceil = v.ceil();
                // Explore the "down" child first (prefer small solutions):
                // push "up" first so "down" is popped next.
                let mut up = node.clone();
                let new_lower = if ceil > up.lower[j] {
                    ceil
                } else {
                    up.lower[j].clone()
                };
                up.lower[j] = new_lower;
                stack.push(up);
                let mut down = node.clone();
                let new_upper = match &down.upper[j] {
                    Some(u) if *u < floor => u.clone(),
                    _ => floor,
                };
                down.upper[j] = Some(new_upper);
                stack.push(down);
                continue;
            }

            // All values integral: candidate assignment.
            let candidate: Vec<BigInt> = abs_values
                .iter()
                .map(|v| v.to_integer().expect("integral"))
                .collect();

            // Check conditionals (only relevant in Branch mode; in BigConstant
            // mode they hold by construction but we verify anyway).
            let violated = reduced
                .conditionals
                .iter()
                .find(|&&(a, c)| candidate[a].is_positive() && !candidate[c].is_positive());
            if let Some(&(antecedent, consequent)) = violated {
                // Case B: consequent >= 1.
                let mut pos = node.clone();
                if pos.lower[consequent] < BigInt::one() {
                    pos.lower[consequent] = BigInt::one();
                }
                stack.push(pos);
                // Case A: antecedent = 0.
                let mut zero = node.clone();
                zero.upper[antecedent] = Some(BigInt::zero());
                stack.push(zero);
                continue;
            }

            // Lift, and verify against the original program (defensive).
            let lifted = reduced.lift(&candidate);
            if program.is_satisfied_by(&lifted) {
                return SolveOutcome::Feasible(lifted);
            }
            // An integral LP vertex that fails verification indicates the node
            // constraints were weaker than the program (should not happen);
            // continue searching defensively.
        }

        SolveOutcome::Infeasible
    }
}

/// Builds the LP relaxation over `n` columns at a node, substituting
/// `x_j = lower_j + x'_j` so the LP variables are all non-negative, and
/// adding `x'_j <= upper_j - lower_j` rows for bounded variables.
fn build_relaxation(n: usize, rows: &[Row], weight: &[Rational], node: &Node) -> LpProblem {
    let mut lp_rows = Vec::with_capacity(rows.len() + n);
    for row in rows {
        let mut coeffs = vec![Rational::zero(); n];
        let mut shift = Rational::zero();
        for (j, c) in &row.terms {
            shift += &(c * &Rational::from(node.lower[*j].clone()));
            coeffs[*j] = c.clone();
        }
        lp_rows.push(LpRow {
            coeffs,
            op: row.op,
            rhs: &row.rhs - &shift,
        });
    }
    // Upper-bound rows.
    for j in 0..n {
        if let Some(u) = &node.upper[j] {
            let mut coeffs = vec![Rational::zero(); n];
            coeffs[j] = Rational::one();
            lp_rows.push(LpRow {
                coeffs,
                op: CmpOp::Le,
                rhs: Rational::from(u - &node.lower[j]),
            });
        }
    }

    LpProblem {
        num_vars: n,
        rows: lp_rows,
        // Prefer small solutions: each column stands for its whole class, so
        // weighing it by the class size minimises the original Σ x_j.
        objective: weight.to_vec(),
    }
}

/// Per-row gcd infeasibility test on equality rows whose coefficients and
/// right-hand side are integers: if `gcd(coefficients)` does not divide the
/// right-hand side, the row has no integer solution at all.  Run on the
/// presolved rows, it also catches parity clashes that aliasing exposes.
fn gcd_infeasible(rows: &[Row]) -> bool {
    rows.iter().any(|row| {
        if row.op != CmpOp::Eq
            || !row.rhs.is_integer()
            || row.terms.iter().any(|(_, coeff)| !coeff.is_integer())
        {
            return false;
        }
        let mut g = BigInt::zero();
        for (_, coeff) in &row.terms {
            g = g.gcd(&coeff.numer().abs());
        }
        if g.is_zero() {
            // An empty row: `0 = rhs`.
            return !row.rhs.is_zero();
        }
        !g.is_one() && !row.rhs.numer().divrem(&g).1.is_zero()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{LinExpr, VarId};

    fn int(v: i64) -> Rational {
        Rational::from_int(v)
    }

    #[test]
    fn feasible_simple_system() {
        // x + y = 3, x >= 1, y >= 1.
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let mut e = LinExpr::var(x);
        e.add_term(y, Rational::one());
        p.add_eq(e, int(3), "sum");
        p.add_ge(LinExpr::var(x), int(1), "x>=1");
        p.add_ge(LinExpr::var(y), int(1), "y>=1");
        let solver = IlpSolver::new();
        let outcome = solver.solve(&p);
        let a = outcome.assignment().expect("feasible");
        assert!(p.is_satisfied_by(a));
    }

    #[test]
    fn infeasible_by_lp() {
        // x <= 1 and x >= 2.
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        p.add_le(LinExpr::var(x), int(1), "le");
        p.add_ge(LinExpr::var(x), int(2), "ge");
        assert!(IlpSolver::new().solve(&p).is_infeasible());
    }

    #[test]
    fn infeasible_by_integrality() {
        // 2x = 3 is LP-feasible (x = 3/2) but integer-infeasible.
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        p.add_eq(LinExpr::term(int(2), x), int(3), "parity");
        assert!(IlpSolver::new().solve(&p).is_infeasible());
    }

    #[test]
    fn infeasible_parity_two_vars() {
        // 2x - 2y = 1: caught by the gcd presolve.
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let mut e = LinExpr::term(int(2), x);
        e.add_term(y, int(-2));
        p.add_eq(e, int(1), "parity");
        assert!(IlpSolver::new().solve(&p).is_infeasible());
    }

    #[test]
    fn branching_finds_integer_point() {
        // x + 2y = 5, x <= 3 => (x,y) in {(1,2),(3,1)}; LP vertex may be
        // fractional depending on the objective.
        let mut p = IntegerProgram::new();
        let x = p.add_var_bounded("x", BigInt::zero(), Some(BigInt::from(3i64)));
        let y = p.add_var("y");
        let mut e = LinExpr::var(x);
        e.add_term(y, int(2));
        p.add_eq(e, int(5), "sum");
        let a = IlpSolver::new().solve(&p);
        let a = a.assignment().expect("feasible");
        assert!(p.is_satisfied_by(a));
    }

    #[test]
    fn conditional_branching() {
        // x >= 2, x > 0 -> y > 0, y + x = 2 forces y = 0: infeasible.
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.add_ge(LinExpr::var(x), int(2), "x>=2");
        let mut e = LinExpr::var(x);
        e.add_term(y, Rational::one());
        p.add_eq(e, int(2), "x+y=2");
        p.add_conditional(x, y, "x→y");
        assert!(IlpSolver::new().solve(&p).is_infeasible());

        // Relax the equality to x + y = 3: now x=2, y=1 works.
        let mut p2 = IntegerProgram::new();
        let x = p2.add_var("x");
        let y = p2.add_var("y");
        p2.add_ge(LinExpr::var(x), int(2), "x>=2");
        let mut e = LinExpr::var(x);
        e.add_term(y, Rational::one());
        p2.add_eq(e, int(3), "x+y=3");
        p2.add_conditional(x, y, "x→y");
        let outcome = IlpSolver::new().solve(&p2);
        let a = outcome.assignment().expect("feasible");
        assert!(p2.is_satisfied_by(a));
    }

    #[test]
    fn conditional_big_constant_mode_agrees() {
        let build = || {
            let mut p = IntegerProgram::new();
            let x = p.add_var("x");
            let y = p.add_var("y");
            let z = p.add_var("z");
            p.add_ge(LinExpr::var(x), int(1), "x>=1");
            let mut e = LinExpr::var(y);
            e.add_term(z, Rational::one());
            p.add_le(e, int(4), "y+z<=4");
            p.add_conditional(x, y, "x→y");
            p.add_conditional(y, z, "y→z");
            p
        };
        let p = build();
        let branch = IlpSolver::new().solve(&p);
        let bigc = IlpSolver::with_config(SolverConfig {
            conditional_mode: ConditionalMode::BigConstant,
            ..SolverConfig::default()
        })
        .solve(&p);
        assert!(branch.is_feasible());
        assert!(bigc.is_feasible());
        assert!(p.is_satisfied_by(branch.assignment().unwrap()));
        assert!(p.is_satisfied_by(bigc.assignment().unwrap()));
    }

    #[test]
    fn prefers_small_solutions() {
        // x >= 1 with no other constraints: expect exactly 1.
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        p.add_ge(LinExpr::var(x), int(1), "x>=1");
        let outcome = IlpSolver::new().solve(&p);
        assert_eq!(outcome.assignment().unwrap().get(x), &BigInt::from(1i64));
    }

    #[test]
    fn node_limit_yields_unknown() {
        // With a zero node budget the solver must give up rather than guess,
        // even on a trivially feasible system.
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        p.add_ge(LinExpr::var(x), int(1), "x>=1");
        let solver = IlpSolver::with_config(SolverConfig {
            max_nodes: 0,
            ..Default::default()
        });
        match solver.solve(&p) {
            SolveOutcome::Unknown(_) => {}
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn empty_program_is_feasible() {
        let p = IntegerProgram::new();
        assert!(IlpSolver::new().solve(&p).is_feasible());
    }

    #[test]
    fn respects_variable_upper_bounds() {
        let mut p = IntegerProgram::new();
        let x = p.add_var_bounded("x", BigInt::zero(), Some(BigInt::from(2i64)));
        p.add_ge(LinExpr::var(x), int(3), "x>=3");
        assert!(IlpSolver::new().solve(&p).is_infeasible());
    }

    fn alias(p: &mut IntegerProgram, x: VarId, y: VarId) {
        let mut e = LinExpr::var(x);
        e.add_term(y, int(-1));
        p.add_eq(e, int(0), "alias");
    }

    #[test]
    fn aliasing_exposes_a_parity_clash_without_an_lp() {
        // x − y = 0 turns x + y + 2z = 3 into 2x + 2z = 3.
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let z = p.add_var("z");
        alias(&mut p, x, y);
        let mut e = LinExpr::var(x);
        e.add_term(y, int(1));
        e.add_term(z, int(2));
        p.add_eq(e, int(3), "sum");
        let (outcome, stats) = IlpSolver::new().solve_with_stats(&p);
        assert!(outcome.is_infeasible());
        assert_eq!(stats.lp_calls, 0, "{stats:?}");
    }

    #[test]
    fn non_integer_singleton_is_infeasible_without_an_lp() {
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        p.add_eq(LinExpr::term(int(2), x), int(3), "2x = 3");
        let (outcome, stats) = IlpSolver::new().solve_with_stats(&p);
        assert!(outcome.is_infeasible());
        assert_eq!(stats.lp_calls, 0);
    }

    #[test]
    fn aliases_fixed_to_different_values_are_infeasible() {
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        alias(&mut p, x, y);
        p.add_eq(LinExpr::var(x), int(1), "x = 1");
        p.add_eq(LinExpr::var(y), int(2), "y = 2");
        let (outcome, stats) = IlpSolver::new().solve_with_stats(&p);
        assert!(outcome.is_infeasible());
        assert_eq!(stats.lp_calls, 0);

        // The same clash through the class bounds: x ≤ 1 and y ≥ 2.
        let mut q = IntegerProgram::new();
        let x = q.add_var_bounded("x", BigInt::zero(), Some(BigInt::one()));
        let y = q.add_var_bounded("y", BigInt::from(2i64), None);
        alias(&mut q, x, y);
        let (outcome, stats) = IlpSolver::new().solve_with_stats(&q);
        assert!(outcome.is_infeasible());
        assert_eq!(stats.lp_calls, 0);
    }

    #[test]
    fn a_class_takes_its_members_tightest_bounds() {
        // x ≤ 3 and y ≥ 2, aliased: the class lies in [2, 3].
        let mut p = IntegerProgram::new();
        let x = p.add_var_bounded("x", BigInt::zero(), Some(BigInt::from(3i64)));
        let y = p.add_var_bounded("y", BigInt::from(2i64), None);
        alias(&mut p, x, y);
        let (outcome, stats) = IlpSolver::new().solve_with_stats(&p);
        let a = outcome.assignment().expect("feasible");
        assert_eq!(a.values(), &[2i64, 2].map(BigInt::from));
        assert_eq!(stats.lp_calls, 0);
    }

    #[test]
    fn conditional_within_one_class_is_dropped() {
        // x − y = 0 makes x > 0 → y > 0 hold by construction.
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        alias(&mut p, x, y);
        p.add_conditional(x, y, "x→y");
        p.add_ge(LinExpr::var(x), int(1), "x>=1");
        for mode in [ConditionalMode::Branch, ConditionalMode::BigConstant] {
            let (outcome, stats) = IlpSolver::with_config(SolverConfig {
                conditional_mode: mode,
                ..SolverConfig::default()
            })
            .solve_with_stats(&p);
            let a = outcome.assignment().expect("feasible");
            assert!(p.is_satisfied_by(a));
            assert_eq!((a.get(x), a.get(y)), (&BigInt::one(), &BigInt::one()));
            assert_eq!(stats.presolve_conditionals_kept, 0);
            assert_eq!(stats.presolve_rows_removed, 1);
            assert_eq!(stats.presolve_vars_removed, 1);
        }
    }

    #[test]
    fn positive_antecedent_forces_its_consequent() {
        // x = 2 with x > 0 → y > 0: y's lower bound becomes 1.
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let z = p.add_var("z");
        p.add_eq(LinExpr::var(x), int(2), "x = 2");
        p.add_conditional(x, y, "x→y");
        let mut e = LinExpr::var(y);
        e.add_term(z, int(1));
        p.add_le(e, int(4), "y+z<=4");
        let (outcome, stats) = IlpSolver::new().solve_with_stats(&p);
        let a = outcome.assignment().expect("feasible");
        assert!(p.is_satisfied_by(a));
        assert_eq!(a.get(y), &BigInt::one());
        assert_eq!(stats.presolve_conditionals_kept, 0);

        // ... which contradicts a consequent fixed at 0.
        p.add_eq(LinExpr::var(y), int(0), "y = 0");
        let (outcome, stats) = IlpSolver::new().solve_with_stats(&p);
        assert!(outcome.is_infeasible());
        assert_eq!(stats.lp_calls, 0);
    }

    #[test]
    fn zero_consequent_forces_its_antecedent_to_zero() {
        // y = 0 with x > 0 → y > 0 leaves x = 0, so x + z ≥ 1 needs z, even
        // though z's class {z, z1, z2} makes it three times dearer than x.
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let z = p.add_var("z");
        let z1 = p.add_var("z1");
        let z2 = p.add_var("z2");
        alias(&mut p, z, z1);
        alias(&mut p, z, z2);
        p.add_eq(LinExpr::var(y), int(0), "y = 0");
        p.add_conditional(x, y, "x→y");
        let mut e = LinExpr::var(x);
        e.add_term(z, int(1));
        p.add_ge(e, int(1), "x+z>=1");
        for mode in [ConditionalMode::Branch, ConditionalMode::BigConstant] {
            let (outcome, stats) = IlpSolver::with_config(SolverConfig {
                conditional_mode: mode,
                ..SolverConfig::default()
            })
            .solve_with_stats(&p);
            let a = outcome.assignment().expect("feasible");
            assert_eq!(a.values(), &[0i64, 0, 1, 1, 1].map(BigInt::from));
            assert_eq!(stats.presolve_conditionals_kept, 0);
        }
    }

    #[test]
    fn lifted_solution_keeps_the_original_objective() {
        // Three aliases of x plus y, with x + y ≥ 1: the class {x, x1, x2}
        // weighs 3, so the minimum puts the unit on y.
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        let x1 = p.add_var("x1");
        let x2 = p.add_var("x2");
        let y = p.add_var("y");
        alias(&mut p, x, x1);
        alias(&mut p, x1, x2);
        let mut e = LinExpr::var(x);
        e.add_term(y, int(1));
        p.add_ge(e, int(1), "x+y>=1");
        let (outcome, stats) = IlpSolver::new().solve_with_stats(&p);
        let a = outcome.assignment().expect("feasible");
        assert_eq!(a.values(), &[0i64, 0, 0, 1].map(BigInt::from));
        assert_eq!(stats.presolve_vars_removed, 2);
    }

    #[test]
    fn stats_reported() {
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        p.add_ge(LinExpr::var(x), int(1), "x>=1");
        let (outcome, stats) = IlpSolver::new().solve_with_stats(&p);
        assert!(outcome.is_feasible());
        assert!(stats.nodes >= 1);
        assert!(stats.lp_calls >= 1);
        // x >= 1 needs an artificial column, driven out by a phase-1 pivot.
        assert!(stats.pivots >= 1);
        assert_eq!(stats.promotions, 0);
    }
}
