//! Presolve: collapse aliases and fixed variables before any LP is built.
//!
//! Ψ(D,Σ) is built from the simple-DTD normal form, and every production
//! except the union τ → τ₁|τ₂ contributes a pure alias `|ext(τ)| − x = 0`;
//! the per-type occurrence sums and the key rows add more.  Most rows the
//! simplex would pivot through are therefore not real constraints.
//! [`presolve`] removes them, repeating until nothing changes (each fixing
//! or merge can turn another row into a singleton or an alias):
//!
//! * **aliases** — a two-term equality `a·x − a·y = 0` merges the classes of
//!   `x` and `y` (union-find); a class takes the largest of its members'
//!   lower bounds and the smallest of their upper bounds;
//! * **singletons** — a one-term equality `a·x = r` fixes the class of `x` to
//!   `r/a`; a non-integer value, or one outside the class bounds, proves the
//!   program infeasible on the spot;
//! * **rows** — every row is rewritten over class representatives and
//!   constants; a row left empty is checked and dropped, and exact
//!   duplicates are dropped;
//! * **conditionals** `x > 0 → y > 0` — renamed to representatives; dropped
//!   when both ends are one class, when the antecedent is fixed at most 0 or
//!   the consequent fixed above 0; an antecedent fixed above 0 becomes the
//!   bound `y ≥ 1`, a consequent fixed at most 0 the bound `x ≤ 0`.
//!
//! The [`Reduced`] system has one column per class that still occurs in a
//! row or conditional; its objective weighs each column by its class size,
//! so minimising it minimises the original `Σ x_j`.  A class that occurs
//! nowhere takes its lower bound, which is where that objective puts it.
//! [`Reduced::lift`] maps a column solution back to every original
//! variable.  The substitutions are unimodular, so integer solutions of the
//! two systems correspond one to one.

use std::collections::HashSet;

use crate::bignum::BigInt;
use crate::linear::{Assignment, CmpOp, IntegerProgram};
use crate::rational::Rational;

/// A row `Σ coeff · x_col  op  rhs`, terms sorted by column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Row {
    /// `(column, coefficient)` pairs, sorted, no zero coefficients.
    pub terms: Vec<(usize, Rational)>,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: Rational,
}

impl Row {
    /// Whether the row holds when its left-hand side is 0.
    fn holds_at_zero(&self) -> bool {
        let zero = Rational::zero();
        match self.op {
            CmpOp::Le => zero <= self.rhs,
            CmpOp::Ge => zero >= self.rhs,
            CmpOp::Eq => zero == self.rhs,
        }
    }
}

/// Where an original variable's value comes from.
#[derive(Debug, Clone)]
enum Source {
    /// The value of a column of the reduced system.
    Column(usize),
    /// A constant settled by presolve.
    Value(BigInt),
}

/// The program left after presolve, over columns `0..num_cols()`.
#[derive(Debug, Clone)]
pub(crate) struct Reduced {
    /// Per-column lower bound.
    pub lower: Vec<BigInt>,
    /// Per-column upper bound.
    pub upper: Vec<Option<BigInt>>,
    /// Per-column objective weight: the size of the column's class.
    pub weight: Vec<Rational>,
    /// The rows that are still real constraints.
    pub rows: Vec<Row>,
    /// The surviving conditionals, as `(antecedent, consequent)` columns.
    pub conditionals: Vec<(usize, usize)>,
    /// One entry per original variable.
    sources: Vec<Source>,
}

impl Reduced {
    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.lower.len()
    }

    /// The full assignment to the original variables for column `values`.
    pub fn lift(&self, values: &[BigInt]) -> Assignment {
        Assignment::new(
            self.sources
                .iter()
                .map(|source| match source {
                    Source::Column(k) => values[*k].clone(),
                    Source::Value(v) => v.clone(),
                })
                .collect(),
        )
    }
}

/// Marks a program that presolve proved to have no integer solution.
pub(crate) struct Infeasible;

/// Union-find over the original variables, with each class's bounds and
/// fixed value kept at its representative.
struct Classes {
    parent: Vec<usize>,
    size: Vec<usize>,
    lower: Vec<BigInt>,
    upper: Vec<Option<BigInt>>,
    value: Vec<Option<BigInt>>,
}

impl Classes {
    fn new<L>(program: &IntegerProgram<L>) -> Result<Classes, Infeasible> {
        let n = program.num_vars();
        let classes = Classes {
            parent: (0..n).collect(),
            size: vec![1; n],
            lower: program.vars().iter().map(|v| v.lower.clone()).collect(),
            upper: program.vars().iter().map(|v| v.upper.clone()).collect(),
            value: vec![None; n],
        };
        if (0..n).any(|r| !classes.consistent(r)) {
            return Err(Infeasible);
        }
        Ok(classes)
    }

    fn find(&mut self, mut v: usize) -> usize {
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    /// Whether class `r`'s bounds admit a value, and admit its fixed one.
    fn consistent(&self, r: usize) -> bool {
        let (lower, upper) = (&self.lower[r], self.upper[r].as_ref());
        let admits = |v: &BigInt| v >= lower && upper.is_none_or(|u| v <= u);
        match &self.value[r] {
            Some(value) => admits(value),
            None => admits(lower),
        }
    }

    fn check(&self, r: usize) -> Result<(), Infeasible> {
        if self.consistent(r) {
            Ok(())
        } else {
            Err(Infeasible)
        }
    }

    /// Fixes class `r` to `value`.
    fn fix(&mut self, r: usize, value: BigInt) -> Result<(), Infeasible> {
        self.value[r] = Some(value);
        self.check(r)
    }

    /// Raises the lower bound of class `r` to at least `bound`.
    fn raise_lower(&mut self, r: usize, bound: BigInt) -> Result<(), Infeasible> {
        if bound > self.lower[r] {
            self.lower[r] = bound;
        }
        self.check(r)
    }

    /// Lowers the upper bound of class `r` to at most `bound`.
    fn cut_upper(&mut self, r: usize, bound: BigInt) -> Result<(), Infeasible> {
        if self.upper[r].as_ref().is_none_or(|u| bound < *u) {
            self.upper[r] = Some(bound);
        }
        self.check(r)
    }

    /// Merges the distinct, unfixed classes `a` and `b`; the smaller index
    /// stays the representative, so columns keep the original variable order.
    fn union(&mut self, a: usize, b: usize) -> Result<(), Infeasible> {
        let (keep, gone) = (a.min(b), a.max(b));
        debug_assert!(self.value[keep].is_none() && self.value[gone].is_none());
        self.parent[gone] = keep;
        self.size[keep] += self.size[gone];
        let lower = self.lower[gone].clone();
        self.raise_lower(keep, lower)?;
        match self.upper[gone].take() {
            Some(upper) => self.cut_upper(keep, upper),
            None => Ok(()),
        }
    }

    /// Rewrites `row` over representatives, moving fixed classes into the
    /// right-hand side and merging terms that now share a class.
    fn substitute(&mut self, row: &mut Row) {
        let mut rhs = std::mem::take(&mut row.rhs);
        let mut resorted = false;
        row.terms.retain_mut(|(v, coeff)| {
            let r = self.find(*v);
            resorted |= r != *v;
            *v = r;
            match &self.value[r] {
                Some(value) => {
                    rhs -= &(&*coeff * &Rational::from(value.clone()));
                    false
                }
                None => true,
            }
        });
        if resorted {
            row.terms.sort_by_key(|&(v, _)| v);
            row.terms.dedup_by(|(v, coeff), (kept, sum)| {
                let same = v == kept;
                if same {
                    *sum += coeff;
                }
                same
            });
            row.terms.retain(|(_, coeff)| !coeff.is_zero());
        }
        row.rhs = rhs;
    }
}

/// Runs the presolve.
pub(crate) fn presolve<L>(program: &IntegerProgram<L>) -> Result<Reduced, Infeasible> {
    let mut classes = Classes::new(program)?;
    let mut rows: Vec<Row> = program
        .constraints()
        .iter()
        .map(|c| Row {
            terms: c
                .expr
                .terms()
                .map(|(v, a)| (v.index(), a.clone()))
                .collect(),
            op: c.op,
            rhs: c.rhs.clone(),
        })
        .collect();
    let mut conditionals: Vec<(usize, usize)> = program
        .conditionals()
        .iter()
        .map(|c| (c.antecedent.index(), c.consequent.index()))
        .collect();

    loop {
        let mut changed = false;
        let mut kept = Vec::with_capacity(rows.len());
        for mut row in rows {
            classes.substitute(&mut row);
            match row.terms.as_slice() {
                [] if !row.holds_at_zero() => return Err(Infeasible),
                [] => {}
                [(x, a)] if row.op == CmpOp::Eq => {
                    let value = (&row.rhs / a).to_integer().ok_or(Infeasible)?;
                    classes.fix(*x, value)?;
                    changed = true;
                }
                [(x, a), (y, b)] if row.op == CmpOp::Eq && row.rhs.is_zero() && *a == -b => {
                    classes.union(*x, *y)?;
                    changed = true;
                }
                _ => kept.push(row),
            }
        }
        rows = kept;

        let mut kept = Vec::with_capacity(conditionals.len());
        for (a, c) in conditionals {
            let (a, c) = (classes.find(a), classes.find(c));
            let positive = |r: usize| classes.value[r].as_ref().map(BigInt::is_positive);
            match (positive(a), positive(c)) {
                _ if a == c => {}
                (Some(false), _) | (_, Some(true)) => {}
                (Some(true), _) => classes.raise_lower(c, BigInt::one())?,
                (_, Some(false)) => classes.cut_upper(a, BigInt::zero())?,
                (None, None) => kept.push((a, c)),
            }
        }
        conditionals = kept;

        if !changed {
            break;
        }
    }

    // Drop exact duplicates, keeping each first copy in place.
    let mut seen = HashSet::with_capacity(rows.len());
    let first: Vec<bool> = rows.iter().map(|row| seen.insert(row)).collect();
    drop(seen);
    let mut first = first.into_iter();
    rows.retain(|_| first.next().unwrap_or(true));
    let mut seen = HashSet::with_capacity(conditionals.len());
    conditionals.retain(|&pair| seen.insert(pair));

    // Columns: the representatives still mentioned, in variable order.
    let n = program.num_vars();
    let mut mentioned = vec![false; n];
    for &r in rows
        .iter()
        .flat_map(|row| row.terms.iter().map(|(v, _)| v))
        .chain(conditionals.iter().flat_map(|(a, c)| [a, c]))
    {
        mentioned[r] = true;
    }
    let mut reduced = Reduced {
        lower: Vec::new(),
        upper: Vec::new(),
        weight: Vec::new(),
        rows: Vec::new(),
        conditionals: Vec::new(),
        sources: Vec::with_capacity(n),
    };
    let mut column = vec![None; n];
    for r in (0..n).filter(|&r| mentioned[r]) {
        column[r] = Some(reduced.lower.len());
        reduced.lower.push(classes.lower[r].clone());
        reduced.upper.push(classes.upper[r].clone());
        reduced
            .weight
            .push(Rational::from(BigInt::from(classes.size[r])));
    }
    let col = |r: usize| column[r].expect("mentioned representative");
    for row in &mut rows {
        for (v, _) in &mut row.terms {
            *v = col(*v);
        }
    }
    reduced.conditionals = conditionals
        .iter()
        .map(|&(a, c)| (col(a), col(c)))
        .collect();
    reduced.rows = rows;
    for v in 0..n {
        let r = classes.find(v);
        reduced.sources.push(match (column[r], &classes.value[r]) {
            (Some(k), _) => Source::Column(k),
            (None, Some(value)) => Source::Value(value.clone()),
            (None, None) => Source::Value(classes.lower[r].clone()),
        });
    }
    Ok(reduced)
}
