//! Exact two-phase primal simplex over rationals.
//!
//! This is the LP-relaxation engine underneath the branch-and-bound integer
//! solver.  It is a dense tableau implementation with Bland's anti-cycling
//! rule; all arithmetic is exact, so feasibility answers are never subject to
//! floating-point tolerance choices.  The tableaux of the cardinality systems
//! are mostly zeros, so pivots and price-outs skip zero cells rather than
//! multiply by them.

use crate::linear::CmpOp;
use crate::rational::Rational;

/// A single LP row `coeffs · x op rhs` over dense coefficients.
#[derive(Debug, Clone)]
pub struct LpRow {
    /// Dense coefficients, one per structural variable.
    pub coeffs: Vec<Rational>,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: Rational,
}

/// An LP over non-negative structural variables `x_j >= 0`.
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Number of structural variables.
    pub num_vars: usize,
    /// Constraint rows.
    pub rows: Vec<LpRow>,
    /// Objective coefficients (minimised). May be all zero for pure
    /// feasibility checks.
    pub objective: Vec<Rational>,
}

/// Result of solving an [`LpProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpOutcome {
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// An optimal vertex was found.
    Optimal {
        /// Optimal objective value.
        objective: Rational,
        /// Values of the structural variables at the optimum.
        values: Vec<Rational>,
    },
}

impl LpOutcome {
    /// Returns the structural solution if the outcome is optimal.
    pub fn values(&self) -> Option<&[Rational]> {
        match self {
            LpOutcome::Optimal { values, .. } => Some(values),
            _ => None,
        }
    }

    /// Returns `true` iff the LP has a feasible point.
    pub fn is_feasible(&self) -> bool {
        !matches!(self, LpOutcome::Infeasible)
    }
}

/// Dense simplex tableau.
struct Tableau {
    /// `rows x (cols + 1)`; the final column is the right-hand side.
    rows: Vec<Vec<Rational>>,
    /// Objective row (reduced costs); same width as `rows` entries.
    obj: Vec<Rational>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Total number of columns (excluding rhs).
    cols: usize,
    /// Pivots performed so far.
    pivots: usize,
    /// Scratch list of the pivot row's non-zero columns, reused across
    /// pivots.
    support: Vec<usize>,
}

impl Tableau {
    fn rhs(&self, r: usize) -> &Rational {
        &self.rows[r][self.cols]
    }

    /// Performs a pivot on `(row, col)`.
    ///
    /// Only the non-zero columns of the normalised pivot row can change the
    /// other rows, so they are collected once and the updates touch nothing
    /// else.
    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let mut pivot_row = std::mem::take(&mut self.rows[row]);
        let inv = pivot_row[col].recip();
        let mut support = std::mem::take(&mut self.support);
        support.clear();
        for (j, v) in pivot_row.iter_mut().enumerate() {
            if !v.is_zero() {
                *v = &*v * &inv;
                support.push(j);
            }
        }
        for row_vec in self.rows.iter_mut().chain(std::iter::once(&mut self.obj)) {
            // The taken pivot row is empty here and skipped like a zero factor.
            let Some(factor) = row_vec.get(col).filter(|f| !f.is_zero()).cloned() else {
                continue;
            };
            for &j in &support {
                row_vec[j] -= &(&factor * &pivot_row[j]);
            }
        }
        self.rows[row] = pivot_row;
        self.support = support;
        self.basis[row] = col;
    }

    /// Makes the objective row consistent with the current basis by
    /// subtracting each basic column's cost times its row, skipping zero
    /// cells.
    fn price_out(&mut self) {
        for (r, row) in self.rows.iter().enumerate() {
            let factor = self.obj[self.basis[r]].clone();
            if factor.is_zero() {
                continue;
            }
            for (j, v) in row.iter().enumerate() {
                if !v.is_zero() {
                    self.obj[j] -= &(&factor * v);
                }
            }
        }
    }

    /// Runs the simplex iteration loop with Bland's rule until optimality or
    /// unboundedness.  Columns marked in `banned` are never chosen as
    /// entering columns (used to keep artificial variables out of the basis
    /// in phase 2).
    fn run(&mut self, banned: &[bool]) -> SimplexStatus {
        loop {
            // Entering column: smallest index with negative reduced cost.
            let entering = (0..self.cols).find(|&j| !banned[j] && self.obj[j].is_negative());
            let Some(col) = entering else {
                return SimplexStatus::Optimal;
            };
            // Ratio test: smallest rhs/coeff over rows with coeff > 0, ties by
            // smallest basic variable (Bland).
            let mut best: Option<(usize, Rational)> = None;
            for r in 0..self.rows.len() {
                let coeff = &self.rows[r][col];
                if !coeff.is_positive() {
                    continue;
                }
                let ratio = self.rhs(r) / coeff;
                match &best {
                    None => best = Some((r, ratio)),
                    Some((br, bratio)) => {
                        if ratio < *bratio || (ratio == *bratio && self.basis[r] < self.basis[*br])
                        {
                            best = Some((r, ratio));
                        }
                    }
                }
            }
            match best {
                None => return SimplexStatus::Unbounded,
                Some((row, _)) => self.pivot(row, col),
            }
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum SimplexStatus {
    Optimal,
    Unbounded,
}

/// Solves an LP with the two-phase simplex method.
pub fn solve(problem: &LpProblem) -> LpOutcome {
    solve_with_pivots(problem).0
}

/// Solves an LP like [`solve`] and also reports the number of pivots.
pub(crate) fn solve_with_pivots(problem: &LpProblem) -> (LpOutcome, usize) {
    let n = problem.num_vars;
    let m = problem.rows.len();
    debug_assert!(problem.objective.len() == n || problem.objective.is_empty());

    // Count auxiliary columns: one slack per inequality, one artificial per
    // >=/= row (after normalising rhs >= 0).
    #[derive(Clone, Copy)]
    struct RowPlan {
        negate: bool,
        slack: Option<usize>,
        slack_sign: i32,
        artificial: Option<usize>,
    }
    let mut plans = Vec::with_capacity(m);
    let mut next_col = n;
    for row in &problem.rows {
        let negate = row.rhs.is_negative();
        let op = if negate {
            match row.op {
                CmpOp::Le => CmpOp::Ge,
                CmpOp::Ge => CmpOp::Le,
                CmpOp::Eq => CmpOp::Eq,
            }
        } else {
            row.op
        };
        let (slack, slack_sign, artificial) = match op {
            CmpOp::Le => {
                let s = next_col;
                next_col += 1;
                (Some(s), 1, None)
            }
            CmpOp::Ge => {
                let s = next_col;
                next_col += 1;
                let a = next_col;
                next_col += 1;
                (Some(s), -1, Some(a))
            }
            CmpOp::Eq => {
                let a = next_col;
                next_col += 1;
                (None, 0, Some(a))
            }
        };
        plans.push(RowPlan {
            negate,
            slack,
            slack_sign,
            artificial,
        });
    }
    let total_cols = next_col;

    // Build the tableau rows.
    let mut rows: Vec<Vec<Rational>> = Vec::with_capacity(m);
    let mut basis = Vec::with_capacity(m);
    let mut has_artificial = false;
    for (row, plan) in problem.rows.iter().zip(&plans) {
        let mut trow = vec![Rational::zero(); total_cols + 1];
        for (j, c) in row.coeffs.iter().enumerate() {
            trow[j] = if plan.negate { -c.clone() } else { c.clone() };
        }
        trow[total_cols] = if plan.negate {
            -row.rhs.clone()
        } else {
            row.rhs.clone()
        };
        if let Some(s) = plan.slack {
            trow[s] = if plan.slack_sign >= 0 {
                Rational::one()
            } else {
                -Rational::one()
            };
        }
        if let Some(a) = plan.artificial {
            trow[a] = Rational::one();
            basis.push(a);
            has_artificial = true;
        } else {
            basis.push(plan.slack.expect("<= rows always have a slack"));
        }
        rows.push(trow);
    }

    let mut tableau = Tableau {
        rows,
        obj: vec![Rational::zero(); total_cols + 1],
        basis,
        cols: total_cols,
        pivots: 0,
        support: Vec::new(),
    };

    let artificial_cols: Vec<bool> = {
        let mut v = vec![false; total_cols];
        for plan in &plans {
            if let Some(a) = plan.artificial {
                v[a] = true;
            }
        }
        v
    };
    let no_bans = vec![false; total_cols];

    // Phase 1: minimise the sum of artificial variables.
    if has_artificial {
        for plan in &plans {
            if let Some(a) = plan.artificial {
                tableau.obj[a] = Rational::one();
            }
        }
        // Make the objective row consistent with the starting basis (price out
        // the basic artificial columns).
        tableau.price_out();
        match tableau.run(&no_bans) {
            SimplexStatus::Unbounded => {
                // Phase-1 objective is bounded below by 0; unbounded cannot
                // happen, but treat it defensively as infeasible.
                return (LpOutcome::Infeasible, tableau.pivots);
            }
            SimplexStatus::Optimal => {}
        }
        // Phase-1 optimum is -obj[rhs].
        if tableau.obj[total_cols].is_negative() {
            return (LpOutcome::Infeasible, tableau.pivots);
        }
        // Drive artificial variables out of the basis where possible.
        for r in 0..m {
            if !artificial_cols[tableau.basis[r]] {
                continue;
            }
            // The artificial is basic at value 0; pivot in any non-artificial
            // column with a non-zero entry in this row.
            let col =
                (0..total_cols).find(|&j| !artificial_cols[j] && !tableau.rows[r][j].is_zero());
            if let Some(col) = col {
                tableau.pivot(r, col);
            }
            // If no such column exists, the row is redundant (all structural
            // coefficients are zero) and can stay with the artificial basic at
            // zero without affecting phase 2 (its row never changes because
            // all its non-artificial coefficients are zero).
        }
    }

    // Phase 2: minimise the real objective.
    for v in tableau.obj.iter_mut() {
        *v = Rational::zero();
    }
    if !problem.objective.is_empty() {
        for (j, c) in problem.objective.iter().enumerate() {
            tableau.obj[j] = c.clone();
        }
    }
    // Price out basic columns.
    tableau.price_out();
    // Artificial columns must never re-enter the basis in phase 2: they are
    // passed to `run` as banned entering columns (their basic values are
    // zero, so excluding them does not cut off any feasible point).
    let outcome = match tableau.run(&artificial_cols) {
        SimplexStatus::Unbounded => LpOutcome::Unbounded,
        SimplexStatus::Optimal => {
            let mut values = vec![Rational::zero(); n];
            for r in 0..m {
                let b = tableau.basis[r];
                if b < n {
                    values[b] = tableau.rhs(r).clone();
                }
            }
            let mut objective = Rational::zero();
            if !problem.objective.is_empty() {
                for (j, c) in problem.objective.iter().enumerate() {
                    objective += &(c * &values[j]);
                }
            }
            LpOutcome::Optimal { objective, values }
        }
    };
    (outcome, tableau.pivots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::BigInt;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    fn rr(n: i64, d: i64) -> Rational {
        Rational::new(BigInt::from(n), BigInt::from(d))
    }

    fn row(coeffs: &[i64], op: CmpOp, rhs: i64) -> LpRow {
        LpRow {
            coeffs: coeffs.iter().map(|&c| r(c)).collect(),
            op,
            rhs: r(rhs),
        }
    }

    #[test]
    fn simple_maximisation_as_minimisation() {
        // maximise x + y  s.t. x + 2y <= 4, 3x + y <= 6  ==> minimise -(x+y)
        let p = LpProblem {
            num_vars: 2,
            rows: vec![row(&[1, 2], CmpOp::Le, 4), row(&[3, 1], CmpOp::Le, 6)],
            objective: vec![r(-1), r(-1)],
        };
        match solve(&p) {
            LpOutcome::Optimal { objective, values } => {
                // Optimum at x = 8/5, y = 6/5, value 14/5.
                assert_eq!(objective, rr(-14, 5));
                assert_eq!(values[0], rr(8, 5));
                assert_eq!(values[1], rr(6, 5));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn feasibility_with_equalities() {
        // x + y = 3, x - y = 1  =>  x = 2, y = 1.
        let p = LpProblem {
            num_vars: 2,
            rows: vec![row(&[1, 1], CmpOp::Eq, 3), row(&[1, -1], CmpOp::Eq, 1)],
            objective: vec![],
        };
        match solve(&p) {
            LpOutcome::Optimal { values, .. } => {
                assert_eq!(values[0], r(2));
                assert_eq!(values[1], r(1));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn detects_infeasibility() {
        // x <= 1, x >= 2.
        let p = LpProblem {
            num_vars: 1,
            rows: vec![row(&[1], CmpOp::Le, 1), row(&[1], CmpOp::Ge, 2)],
            objective: vec![],
        };
        assert_eq!(solve(&p), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_infeasibility_with_equalities() {
        // x + y = 1, x + y = 2.
        let p = LpProblem {
            num_vars: 2,
            rows: vec![row(&[1, 1], CmpOp::Eq, 1), row(&[1, 1], CmpOp::Eq, 2)],
            objective: vec![],
        };
        assert_eq!(solve(&p), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        // minimise -x subject to x >= 1 (x unbounded above).
        let p = LpProblem {
            num_vars: 1,
            rows: vec![row(&[1], CmpOp::Ge, 1)],
            objective: vec![r(-1)],
        };
        assert_eq!(solve(&p), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        // -x <= -3  <=>  x >= 3; minimise x should give 3.
        let p = LpProblem {
            num_vars: 1,
            rows: vec![row(&[-1], CmpOp::Le, -3)],
            objective: vec![r(1)],
        };
        match solve(&p) {
            LpOutcome::Optimal { objective, values } => {
                assert_eq!(objective, r(3));
                assert_eq!(values[0], r(3));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate configuration; Bland's rule must terminate.
        let p = LpProblem {
            num_vars: 3,
            rows: vec![
                row(&[1, 1, 1], CmpOp::Le, 0),
                row(&[1, 0, 0], CmpOp::Le, 0),
                row(&[0, 1, 0], CmpOp::Le, 0),
            ],
            objective: vec![r(-1), r(-1), r(-1)],
        };
        match solve(&p) {
            LpOutcome::Optimal { objective, .. } => assert_eq!(objective, r(0)),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 2 stated twice plus x = 1.
        let p = LpProblem {
            num_vars: 2,
            rows: vec![
                row(&[1, 1], CmpOp::Eq, 2),
                row(&[1, 1], CmpOp::Eq, 2),
                row(&[1, 0], CmpOp::Eq, 1),
            ],
            objective: vec![],
        };
        match solve(&p) {
            LpOutcome::Optimal { values, .. } => {
                assert_eq!(values[0], r(1));
                assert_eq!(values[1], r(1));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn zero_rows_feasible() {
        let p = LpProblem {
            num_vars: 2,
            rows: vec![],
            objective: vec![r(1), r(1)],
        };
        match solve(&p) {
            LpOutcome::Optimal { objective, values } => {
                assert_eq!(objective, r(0));
                assert_eq!(values, vec![r(0), r(0)]);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn larger_lp() {
        // minimise x1 + 2 x2 + 3 x3
        // s.t. x1 + x2 >= 4, x2 + x3 >= 3, x1 + x3 = 5
        let p = LpProblem {
            num_vars: 3,
            rows: vec![
                row(&[1, 1, 0], CmpOp::Ge, 4),
                row(&[0, 1, 1], CmpOp::Ge, 3),
                row(&[1, 0, 1], CmpOp::Eq, 5),
            ],
            objective: vec![r(1), r(2), r(3)],
        };
        match solve(&p) {
            LpOutcome::Optimal { objective, values } => {
                // x1 = 5, x3 = 0, x2 = 3 gives 5 + 6 = 11; check optimality by
                // verifying constraints hold and objective equals 11.
                assert_eq!(objective, r(11));
                let x = &values;
                assert!(&x[0] + &x[1] >= r(4));
                assert!(&x[1] + &x[2] >= r(3));
                assert_eq!(&x[0] + &x[2], r(5));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }
}
