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

use crate::bignum::BigInt;
use crate::bounds::program_big_constant;
use crate::linear::{Assignment, CmpOp, IntegerProgram, VarId};
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
    /// Optional global upper bound applied to every variable that has none.
    /// `None` leaves unbounded variables unbounded (the LP relaxation and the
    /// small-solution preference keep practical searches finite).
    pub global_upper_bound: Option<BigInt>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_nodes: 100_000,
            conditional_mode: ConditionalMode::Branch,
            global_upper_bound: None,
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
}

/// Branch-and-bound ILP feasibility solver.
#[derive(Debug, Clone, Default)]
pub struct IlpSolver {
    config: SolverConfig,
}

/// One synthesized relaxation row: terms, comparison, right-hand side.
type ExtraRow = (Vec<(VarId, Rational)>, CmpOp, Rational);

/// Per-variable search-node state.
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
    pub fn solve(&self, program: &IntegerProgram) -> SolveOutcome {
        self.solve_with_stats(program).0
    }

    /// Decides integer feasibility and reports search statistics.
    pub fn solve_with_stats(&self, program: &IntegerProgram) -> (SolveOutcome, SolveStats) {
        let mut stats = SolveStats::default();
        rational::take_promotions();
        let outcome = self.search(program, &mut stats);
        stats.promotions = rational::take_promotions();
        (outcome, stats)
    }

    /// The branch-and-bound search behind [`IlpSolver::solve_with_stats`].
    fn search(&self, program: &IntegerProgram, stats: &mut SolveStats) -> SolveOutcome {
        let n = program.num_vars();

        // Trivial case: no variables.
        if n == 0 {
            let empty = Assignment::zeros(0);
            let ok = program.constraints().iter().all(|c| c.holds(&empty))
                && program.conditionals().iter().all(|c| c.holds(&empty));
            return if ok {
                SolveOutcome::Feasible(empty)
            } else {
                SolveOutcome::Infeasible
            };
        }

        // Presolve: per-row gcd test on pure-integer equality rows.
        if gcd_infeasible(program) {
            return SolveOutcome::Infeasible;
        }

        // Extra rows for the big-constant treatment of conditionals.
        let mut extra_rows: Vec<ExtraRow> = Vec::new();
        if self.config.conditional_mode == ConditionalMode::BigConstant
            && program.num_conditionals() > 0
        {
            let c = Rational::from(program_big_constant(program));
            for cond in program.conditionals() {
                // c * consequent - antecedent >= 0
                extra_rows.push((
                    vec![
                        (cond.consequent, c.clone()),
                        (cond.antecedent, -Rational::one()),
                    ],
                    CmpOp::Ge,
                    Rational::zero(),
                ));
            }
        }

        // Root node bounds.
        let root = Node {
            lower: program.vars().iter().map(|v| v.lower.clone()).collect(),
            upper: program
                .vars()
                .iter()
                .map(|v| {
                    v.upper
                        .clone()
                        .or_else(|| self.config.global_upper_bound.clone())
                })
                .collect(),
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
            let lp = build_relaxation(program, &node, &extra_rows);
            let (outcome, pivots) = simplex::solve_with_pivots(&lp);
            stats.pivots += pivots;
            let values = match outcome {
                LpOutcome::Infeasible => {
                    stats.pruned_infeasible += 1;
                    continue;
                }
                LpOutcome::Unbounded => {
                    // Feasibility objective (minimise sum of non-negative
                    // variables) cannot be unbounded; treat defensively as a
                    // vertex at the lower bounds.
                    vec![Rational::zero(); n]
                }
                LpOutcome::Optimal { values, .. } => values,
            };
            // Translate shifted LP values back to original variable space.
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
            let candidate = Assignment::new(
                abs_values
                    .iter()
                    .map(|v| v.to_integer().expect("integral"))
                    .collect(),
            );

            // Check conditionals (only relevant in Branch mode; in BigConstant
            // mode they hold by construction but we verify anyway).
            let violated = program
                .conditionals()
                .iter()
                .position(|c| !c.holds(&candidate));
            if let Some(idx) = violated {
                let cond = &program.conditionals()[idx];
                // Case B: consequent >= 1.
                let mut pos = node.clone();
                if pos.lower[cond.consequent.index()] < BigInt::one() {
                    pos.lower[cond.consequent.index()] = BigInt::one();
                }
                stack.push(pos);
                // Case A: antecedent = 0.
                let mut zero = node.clone();
                zero.upper[cond.antecedent.index()] = Some(BigInt::zero());
                stack.push(zero);
                continue;
            }

            // Full verification against the original program (defensive).
            if program.is_satisfied_by(&candidate) {
                return SolveOutcome::Feasible(candidate);
            }
            // An integral LP vertex that fails verification indicates the node
            // constraints were weaker than the program (should not happen);
            // continue searching defensively.
        }

        SolveOutcome::Infeasible
    }
}

/// Builds the LP relaxation of `program` at a node, substituting
/// `x_j = lower_j + x'_j` so the LP variables are all non-negative, and
/// adding `x'_j <= upper_j - lower_j` rows for bounded variables.
fn build_relaxation(program: &IntegerProgram, node: &Node, extra_rows: &[ExtraRow]) -> LpProblem {
    let n = program.num_vars();
    let mut rows = Vec::with_capacity(program.num_constraints() + n + extra_rows.len());

    let mut push_row =
        |terms: &mut dyn Iterator<Item = (VarId, Rational)>, op: CmpOp, rhs: Rational| {
            let mut coeffs = vec![Rational::zero(); n];
            let mut shift = Rational::zero();
            for (v, c) in terms {
                shift += &(&c * &Rational::from(node.lower[v.index()].clone()));
                coeffs[v.index()] = &coeffs[v.index()] + &c;
            }
            rows.push(LpRow {
                coeffs,
                op,
                rhs: &rhs - &shift,
            });
        };

    for c in program.constraints() {
        push_row(
            &mut c.expr.terms().map(|(v, coeff)| (v, coeff.clone())),
            c.op,
            c.rhs.clone(),
        );
    }
    for (terms, op, rhs) in extra_rows {
        push_row(&mut terms.iter().cloned(), *op, rhs.clone());
    }
    // Upper-bound rows.
    for j in 0..n {
        if let Some(u) = &node.upper[j] {
            let coeffs: Vec<Rational> = (0..n)
                .map(|k| {
                    if k == j {
                        Rational::one()
                    } else {
                        Rational::zero()
                    }
                })
                .collect();
            let gap = u - &node.lower[j];
            rows.push(LpRow {
                coeffs,
                op: CmpOp::Le,
                rhs: Rational::from(gap),
            });
        }
    }

    LpProblem {
        num_vars: n,
        rows,
        // Prefer small solutions: minimise the sum of all (shifted) variables.
        objective: vec![Rational::one(); n],
    }
}

/// Per-row gcd infeasibility test on equality rows whose coefficients and
/// right-hand side are integers: if `gcd(coefficients)` does not divide the
/// right-hand side, the row has no integer solution at all.
fn gcd_infeasible(program: &IntegerProgram) -> bool {
    program.constraints().iter().any(|c| {
        if c.op != CmpOp::Eq
            || !c.rhs.is_integer()
            || c.expr.terms().any(|(_, coeff)| !coeff.is_integer())
        {
            return false;
        }
        let mut g = BigInt::zero();
        for (_, coeff) in c.expr.terms() {
            g = g.gcd(&coeff.numer().abs());
        }
        if g.is_zero() {
            // An empty row: `0 = rhs`.
            return !c.rhs.is_zero();
        }
        !g.is_one() && !c.rhs.numer().divrem(&g).1.is_zero()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinExpr;

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
