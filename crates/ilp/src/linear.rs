//! Modelling layer: variables, linear expressions, constraints and integer
//! programs.
//!
//! The cardinality systems Ψ_D, C_Σ and Ψ(D,Σ) of the paper are built as
//! [`IntegerProgram`] values: every `|ext(τ)|` and `x^i_{τ,τ'}` becomes a
//! non-negative integer [`VarId`], the per-production equalities and the
//! constraint-derived (in)equalities become [`LinearConstraint`]s, and the
//! attribute-totality implications `|ext(τ)| > 0 → |ext(τ.l)| > 0` become
//! [`ConditionalConstraint`]s.
//!
//! Every variable, row and conditional carries a label of the program's
//! label type `L`.  The solver never reads it; it only names things in
//! [`IntegerProgram::render_with`] and [`IntegerProgram::violation_with`].
//! Stand-alone programs use text (`L = String`); `xic-core` uses small
//! `Copy` ids and renders them to text only when asked.

use std::fmt;

use crate::bignum::BigInt;
use crate::rational::Rational;

/// Identifier of a variable within one [`IntegerProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// Index into the program's variable table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single integer variable.
#[derive(Debug, Clone)]
pub struct Variable<L = String> {
    /// Name, used in diagnostics and the textual dump of the system (e.g.
    /// `ext(teacher)` or `occ1(subject,teach)`).
    pub name: L,
    /// Inclusive lower bound. All cardinality variables are non-negative.
    pub lower: BigInt,
    /// Optional inclusive upper bound.
    pub upper: Option<BigInt>,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmpOp::Le => write!(f, "<="),
            CmpOp::Ge => write!(f, ">="),
            CmpOp::Eq => write!(f, "="),
        }
    }
}

/// A linear expression `Σ c_i · x_i` with rational coefficients.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinExpr {
    /// Sorted by variable, with no zero coefficient.
    terms: Vec<(VarId, Rational)>,
}

impl LinExpr {
    /// The empty (zero) expression.
    pub fn new() -> LinExpr {
        LinExpr::default()
    }

    /// The expression consisting of a single variable with coefficient 1.
    pub fn var(v: VarId) -> LinExpr {
        let mut e = LinExpr::new();
        e.add_term(v, Rational::one());
        e
    }

    /// The expression `c · v`.
    pub fn term(c: impl Into<Rational>, v: VarId) -> LinExpr {
        let mut e = LinExpr::new();
        e.add_term(v, c.into());
        e
    }

    /// Adds `c · v` to the expression, merging with an existing term for `v`.
    pub fn add_term(&mut self, v: VarId, c: Rational) -> &mut Self {
        if c.is_zero() {
            return self;
        }
        if self.terms.last().is_none_or(|&(last, _)| last < v) {
            self.terms.push((v, c));
            return self;
        }
        match self.terms.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => {
                let sum = &self.terms[i].1 + &c;
                if sum.is_zero() {
                    self.terms.remove(i);
                } else {
                    self.terms[i].1 = sum;
                }
            }
            Err(i) => self.terms.insert(i, (v, c)),
        }
        self
    }

    /// Adds another expression to this one.
    pub fn add_expr(&mut self, other: &LinExpr) -> &mut Self {
        self.merge(other, false)
    }

    /// Subtracts another expression from this one.
    pub fn sub_expr(&mut self, other: &LinExpr) -> &mut Self {
        self.merge(other, true)
    }

    /// Adds `other` (or `−other`) in one pass over both sorted term lists.
    fn merge(&mut self, other: &LinExpr, negate: bool) -> &mut Self {
        if other.terms.is_empty() {
            return self;
        }
        let sign = |c: &Rational| if negate { -c.clone() } else { c.clone() };
        // Disjoint and after every term here (a row built variable by
        // variable): append in place.
        if self.terms.last().map(|&(v, _)| v) < other.terms.first().map(|&(w, _)| w) {
            self.terms
                .extend(other.terms.iter().map(|(w, c)| (*w, sign(c))));
            return self;
        }
        let mut merged = Vec::with_capacity(self.terms.len() + other.terms.len());
        let mut mine = std::mem::take(&mut self.terms).into_iter().peekable();
        let mut theirs = other.terms.iter().peekable();
        loop {
            match (mine.peek(), theirs.peek()) {
                (Some((v, _)), Some((w, _))) if v < w => merged.extend(mine.next()),
                (Some((v, _)), Some((w, c))) if v > w => {
                    merged.push((*w, sign(c)));
                    theirs.next();
                }
                (Some(_), Some((_, c))) => {
                    let (v, a) = mine.next().expect("peeked");
                    let sum = if negate { &a - c } else { &a + c };
                    if !sum.is_zero() {
                        merged.push((v, sum));
                    }
                    theirs.next();
                }
                (Some(_), None) => merged.extend(mine.by_ref()),
                (None, Some(_)) => merged.extend(theirs.by_ref().map(|(w, c)| (*w, sign(c)))),
                (None, None) => break,
            }
        }
        self.terms = merged;
        self
    }

    /// Multiplies every coefficient by `c`.
    pub fn scale(&mut self, c: &Rational) -> &mut Self {
        if c.is_zero() {
            self.terms.clear();
            return self;
        }
        for (_, coeff) in &mut self.terms {
            *coeff = &*coeff * c;
        }
        self
    }

    /// Iterates over the `(variable, coefficient)` terms.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, &Rational)> {
        self.terms.iter().map(|(v, c)| (*v, c))
    }

    /// Number of non-zero terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` iff the expression has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: VarId) -> Rational {
        match self.terms.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.terms[i].1.clone(),
            Err(_) => Rational::zero(),
        }
    }

    /// Evaluates the expression under an integer assignment.
    pub fn eval(&self, assignment: &Assignment) -> Rational {
        let mut acc = Rational::zero();
        for (v, c) in &self.terms {
            acc += &(c * &Rational::from(assignment.get(*v).clone()));
        }
        acc
    }

    /// Evaluates the expression under a rational assignment indexed by
    /// variable position.
    pub fn eval_rational(&self, values: &[Rational]) -> Rational {
        let mut acc = Rational::zero();
        for (v, c) in &self.terms {
            acc += &(c * &values[v.index()]);
        }
        acc
    }
}

/// A linear constraint `expr op rhs`.
#[derive(Debug, Clone)]
pub struct LinearConstraint<L = String> {
    /// Left-hand side.
    pub expr: LinExpr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side constant.
    pub rhs: Rational,
    /// Provenance label (which DTD rule / which XML constraint produced
    /// this row), used in diagnostics and explanations.
    pub label: L,
}

impl<L> LinearConstraint<L> {
    /// Checks whether the constraint holds under an integer assignment.
    pub fn holds(&self, assignment: &Assignment) -> bool {
        let lhs = self.expr.eval(assignment);
        match self.op {
            CmpOp::Le => lhs <= self.rhs,
            CmpOp::Ge => lhs >= self.rhs,
            CmpOp::Eq => lhs == self.rhs,
        }
    }
}

impl<L> fmt::Display for LinearConstraint<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.expr.terms() {
            if first {
                write!(f, "{c}·x{}", v.0)?;
                first = false;
            } else {
                write!(f, " + {c}·x{}", v.0)?;
            }
        }
        if first {
            write!(f, "0")?;
        }
        write!(f, " {} {}", self.op, self.rhs)
    }
}

/// A conditional constraint `antecedent > 0  →  consequent > 0`.
///
/// These are exactly the `|ext(τ)| > 0 → |ext(τ.l)| > 0` rows of Ψ(D,Σ); the
/// paper eliminates them either by case analysis over subsets or by the
/// big-constant rewriting `c · consequent ≥ antecedent`.  The solver supports
/// both treatments (see [`crate::solver::ConditionalMode`]).
#[derive(Debug, Clone)]
pub struct ConditionalConstraint<L = String> {
    /// The variable whose positivity triggers the implication.
    pub antecedent: VarId,
    /// The variable that must then be positive.
    pub consequent: VarId,
    /// Provenance label.
    pub label: L,
}

impl<L> ConditionalConstraint<L> {
    /// Checks whether the implication holds under an integer assignment.
    pub fn holds(&self, assignment: &Assignment) -> bool {
        !assignment.get(self.antecedent).is_positive()
            || assignment.get(self.consequent).is_positive()
    }
}

/// A complete integer program: variables, linear constraints and conditional
/// constraints, each labelled with an `L`.  All variables are
/// integer-valued.
#[derive(Debug, Clone)]
pub struct IntegerProgram<L = String> {
    vars: Vec<Variable<L>>,
    constraints: Vec<LinearConstraint<L>>,
    conditionals: Vec<ConditionalConstraint<L>>,
}

impl<L> Default for IntegerProgram<L> {
    fn default() -> Self {
        IntegerProgram {
            vars: Vec::new(),
            constraints: Vec::new(),
            conditionals: Vec::new(),
        }
    }
}

impl IntegerProgram {
    /// Creates an empty program with text labels.
    pub fn new() -> IntegerProgram {
        IntegerProgram::default()
    }
}

/// The first thing an assignment breaks, found by
/// [`IntegerProgram::first_violation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Violation {
    /// The assignment has the wrong number of values.
    Length,
    /// Variable `i` is below its lower bound.
    BelowLower(usize),
    /// Variable `i` is above its upper bound.
    AboveUpper(usize),
    /// Linear constraint `i` does not hold.
    Row(usize),
    /// Conditional constraint `i` does not hold.
    Conditional(usize),
}

impl<L> IntegerProgram<L> {
    /// Adds a fresh non-negative integer variable and returns its id.
    pub fn add_var(&mut self, name: impl Into<L>) -> VarId {
        self.add_var_bounded(name, BigInt::zero(), None)
    }

    /// Adds a fresh integer variable with the given bounds.
    pub fn add_var_bounded(
        &mut self,
        name: impl Into<L>,
        lower: BigInt,
        upper: Option<BigInt>,
    ) -> VarId {
        let id = VarId(u32::try_from(self.vars.len()).expect("too many variables"));
        self.vars.push(Variable {
            name: name.into(),
            lower,
            upper,
        });
        id
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of linear constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Number of conditional constraints.
    pub fn num_conditionals(&self) -> usize {
        self.conditionals.len()
    }

    /// The variable table.
    pub fn vars(&self) -> &[Variable<L>] {
        &self.vars
    }

    /// Mutable access to a variable (used by the solver to tighten bounds).
    pub fn var_mut(&mut self, v: VarId) -> &mut Variable<L> {
        &mut self.vars[v.index()]
    }

    /// The linear constraints.
    pub fn constraints(&self) -> &[LinearConstraint<L>] {
        &self.constraints
    }

    /// The conditional constraints.
    pub fn conditionals(&self) -> &[ConditionalConstraint<L>] {
        &self.conditionals
    }

    /// Adds a generic linear constraint.
    pub fn add_constraint(
        &mut self,
        expr: LinExpr,
        op: CmpOp,
        rhs: impl Into<Rational>,
        label: impl Into<L>,
    ) {
        self.constraints.push(LinearConstraint {
            expr,
            op,
            rhs: rhs.into(),
            label: label.into(),
        });
    }

    /// Adds `expr <= rhs`.
    pub fn add_le(&mut self, expr: LinExpr, rhs: impl Into<Rational>, label: impl Into<L>) {
        self.add_constraint(expr, CmpOp::Le, rhs, label);
    }

    /// Adds `expr >= rhs`.
    pub fn add_ge(&mut self, expr: LinExpr, rhs: impl Into<Rational>, label: impl Into<L>) {
        self.add_constraint(expr, CmpOp::Ge, rhs, label);
    }

    /// Adds `expr = rhs`.
    pub fn add_eq(&mut self, expr: LinExpr, rhs: impl Into<Rational>, label: impl Into<L>) {
        self.add_constraint(expr, CmpOp::Eq, rhs, label);
    }

    /// Adds the equality `lhs_var = rhs_expr`.
    pub fn add_var_eq_expr(&mut self, lhs: VarId, rhs: LinExpr, label: impl Into<L>) {
        let mut expr = LinExpr::var(lhs);
        expr.sub_expr(&rhs);
        self.add_eq(expr, Rational::zero(), label);
    }

    /// Adds the conditional constraint `antecedent > 0 → consequent > 0`.
    pub fn add_conditional(&mut self, antecedent: VarId, consequent: VarId, label: impl Into<L>) {
        self.conditionals.push(ConditionalConstraint {
            antecedent,
            consequent,
            label: label.into(),
        });
    }

    /// Checks whether a full integer assignment satisfies every bound, linear
    /// constraint and conditional constraint of the program.
    pub fn is_satisfied_by(&self, assignment: &Assignment) -> bool {
        self.first_violation(assignment).is_none()
    }

    /// The first bound, row or conditional the assignment breaks.
    fn first_violation(&self, assignment: &Assignment) -> Option<Violation> {
        if assignment.len() != self.vars.len() {
            return Some(Violation::Length);
        }
        for (i, (var, v)) in self.vars.iter().zip(assignment.values()).enumerate() {
            if *v < var.lower {
                return Some(Violation::BelowLower(i));
            }
            if var.upper.as_ref().is_some_and(|u| v > u) {
                return Some(Violation::AboveUpper(i));
            }
        }
        if let Some(i) = self.constraints.iter().position(|c| !c.holds(assignment)) {
            return Some(Violation::Row(i));
        }
        self.conditionals
            .iter()
            .position(|c| !c.holds(assignment))
            .map(Violation::Conditional)
    }

    /// Describes the first violated bound/constraint, naming it with
    /// `label`, or returns `None` if the assignment is feasible.
    pub fn violation_with<D: fmt::Display>(
        &self,
        assignment: &Assignment,
        label: impl Fn(&L) -> D,
    ) -> Option<String> {
        Some(match self.first_violation(assignment)? {
            Violation::Length => format!(
                "assignment has {} values but program has {} variables",
                assignment.len(),
                self.vars.len()
            ),
            Violation::BelowLower(i) => {
                let var = &self.vars[i];
                format!(
                    "{} = {} below lower bound {}",
                    label(&var.name),
                    assignment.values()[i],
                    var.lower
                )
            }
            Violation::AboveUpper(i) => {
                let var = &self.vars[i];
                let upper = var.upper.as_ref().expect("an upper bound was exceeded");
                format!(
                    "{} = {} above upper bound {}",
                    label(&var.name),
                    assignment.values()[i],
                    upper
                )
            }
            Violation::Row(i) => {
                let c = &self.constraints[i];
                format!("violated [{}]: {}", label(&c.label), c)
            }
            Violation::Conditional(i) => {
                let c = &self.conditionals[i];
                format!(
                    "violated conditional [{}]: x{} > 0 → x{} > 0",
                    label(&c.label),
                    c.antecedent.0,
                    c.consequent.0
                )
            }
        })
    }

    /// Largest absolute value among all integer coefficients and right-hand
    /// sides once the system is scaled to integer coefficients.  This is the
    /// `a` of the Papadimitriou bound.
    pub fn max_abs_coefficient(&self) -> BigInt {
        let mut a = BigInt::one();
        for c in &self.constraints {
            // Scale the row to integers: multiply by lcm of denominators.
            let mut lcm = BigInt::one();
            for (_, coeff) in c.expr.terms() {
                let d = coeff.denom();
                let g = lcm.gcd(&d);
                lcm = &(&lcm / &g) * &d;
            }
            let d = c.rhs.denom();
            let g = lcm.gcd(&d);
            lcm = &(&lcm / &g) * &d;
            for (_, coeff) in c.expr.terms() {
                let scaled = (coeff * &Rational::from(lcm.clone())).numer().abs();
                if scaled > a {
                    a = scaled;
                }
            }
            let scaled_rhs = (&c.rhs * &Rational::from(lcm.clone())).numer().abs();
            if scaled_rhs > a {
                a = scaled_rhs;
            }
        }
        a
    }

    /// Renders the program as a human-readable multi-line string, naming
    /// every variable, row and conditional with `label`.
    pub fn render_with<D: fmt::Display>(&self, label: impl Fn(&L) -> D) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "variables ({}):", self.vars.len());
        for (i, v) in self.vars.iter().enumerate() {
            let upper = v
                .upper
                .as_ref()
                .map(|u| u.to_string())
                .unwrap_or_else(|| "∞".into());
            let _ = writeln!(
                out,
                "  x{i} = {}  ∈ [{}, {}]",
                label(&v.name),
                v.lower,
                upper
            );
        }
        let _ = writeln!(out, "constraints ({}):", self.constraints.len());
        for c in &self.constraints {
            let _ = writeln!(out, "  {}    [{}]", c, label(&c.label));
        }
        if !self.conditionals.is_empty() {
            let _ = writeln!(out, "conditionals ({}):", self.conditionals.len());
            for c in &self.conditionals {
                let _ = writeln!(
                    out,
                    "  x{} > 0 → x{} > 0    [{}]",
                    c.antecedent.0,
                    c.consequent.0,
                    label(&c.label)
                );
            }
        }
        out
    }
}

impl<L: fmt::Display> IntegerProgram<L> {
    /// Describes the first violated bound/constraint, or returns `None` if
    /// the assignment is feasible.
    pub fn violation(&self, assignment: &Assignment) -> Option<String> {
        self.violation_with(assignment, L::to_string)
    }

    /// Renders the program as a human-readable multi-line string.
    pub fn render(&self) -> String {
        self.render_with(L::to_string)
    }
}

/// An integer assignment to all variables of a program, indexed by [`VarId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    values: Vec<BigInt>,
}

impl Assignment {
    /// Creates an assignment from a vector of values (indexed by variable).
    pub fn new(values: Vec<BigInt>) -> Assignment {
        Assignment { values }
    }

    /// An all-zero assignment over `n` variables.
    pub fn zeros(n: usize) -> Assignment {
        Assignment {
            values: vec![BigInt::zero(); n],
        }
    }

    /// Value of a variable.
    pub fn get(&self, v: VarId) -> &BigInt {
        &self.values[v.index()]
    }

    /// Sets the value of a variable.
    pub fn set(&mut self, v: VarId, value: BigInt) {
        self.values[v.index()] = value;
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` iff the assignment covers no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The underlying values, indexed by variable position.
    pub fn values(&self) -> &[BigInt] {
        &self.values
    }

    /// Convenience accessor returning the value as `u64` (cardinalities in
    /// practical witnesses always fit).
    pub fn get_u64(&self, v: VarId) -> Option<u64> {
        self.get(v).to_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(BigInt::from(n), BigInt::from(d))
    }

    #[test]
    fn expr_building_merges_terms() {
        let x = VarId(0);
        let y = VarId(1);
        let mut e = LinExpr::var(x);
        e.add_term(x, Rational::one());
        e.add_term(y, r(1, 2));
        assert_eq!(e.coeff(x), Rational::from_int(2i64));
        assert_eq!(e.coeff(y), r(1, 2));
        e.add_term(y, r(-1, 2));
        assert_eq!(e.len(), 1);
        assert!(e.coeff(y).is_zero());
    }

    #[test]
    fn expr_scale_and_combine() {
        let x = VarId(0);
        let y = VarId(1);
        let mut e = LinExpr::var(x);
        e.add_expr(&LinExpr::term(Rational::from_int(3i64), y));
        e.scale(&Rational::from_int(2i64));
        assert_eq!(e.coeff(x), Rational::from_int(2i64));
        assert_eq!(e.coeff(y), Rational::from_int(6i64));
        let mut f = e.clone();
        f.sub_expr(&e);
        assert!(f.is_empty());
    }

    #[test]
    fn merges_agree_with_term_by_term_sums() {
        // Interleaved, disjoint, appended and cancelling operands: every
        // coefficient of the one-pass merge is the sum (or difference) of
        // the operands' coefficients, and the terms stay sorted with no
        // zero coefficient.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..500 {
            let draw = |next: &mut dyn FnMut(u64) -> u64| {
                let mut e = LinExpr::new();
                for _ in 0..next(6) {
                    let v = VarId(next(12) as u32);
                    e.add_term(v, Rational::from_int(next(5) as i64 - 2));
                }
                e
            };
            let a = draw(&mut next);
            let b = draw(&mut next);
            for negate in [false, true] {
                let mut merged = a.clone();
                if negate {
                    merged.sub_expr(&b);
                } else {
                    merged.add_expr(&b);
                }
                for v in (0..12).map(VarId) {
                    let expected = if negate {
                        &a.coeff(v) - &b.coeff(v)
                    } else {
                        &a.coeff(v) + &b.coeff(v)
                    };
                    assert_eq!(merged.coeff(v), expected);
                }
                let terms: Vec<_> = merged.terms().collect();
                assert!(terms.windows(2).all(|w| w[0].0 < w[1].0));
                assert!(terms.iter().all(|(_, c)| !c.is_zero()));
            }
        }
    }

    #[test]
    fn constraint_holds() {
        let mut prog = IntegerProgram::new();
        let x = prog.add_var("x");
        let y = prog.add_var("y");
        let mut e = LinExpr::var(x);
        e.add_term(y, Rational::from_int(2i64));
        prog.add_le(e, Rational::from_int(10i64), "cap");
        let mut a = Assignment::zeros(2);
        a.set(x, BigInt::from(4i64));
        a.set(y, BigInt::from(3i64));
        assert!(prog.is_satisfied_by(&a));
        a.set(y, BigInt::from(4i64));
        assert!(!prog.is_satisfied_by(&a));
        assert!(prog.violation(&a).unwrap().contains("cap"));
    }

    #[test]
    fn conditional_holds() {
        let mut prog = IntegerProgram::new();
        let x = prog.add_var("x");
        let y = prog.add_var("y");
        prog.add_conditional(x, y, "x→y");
        let mut a = Assignment::zeros(2);
        assert!(prog.is_satisfied_by(&a));
        a.set(x, BigInt::from(1i64));
        assert!(!prog.is_satisfied_by(&a));
        a.set(y, BigInt::from(5i64));
        assert!(prog.is_satisfied_by(&a));
    }

    #[test]
    fn bounds_checked() {
        let mut prog = IntegerProgram::new();
        let x = prog.add_var_bounded("x", BigInt::from(1i64), Some(BigInt::from(3i64)));
        let mut a = Assignment::zeros(1);
        assert!(!prog.is_satisfied_by(&a));
        a.set(x, BigInt::from(3i64));
        assert!(prog.is_satisfied_by(&a));
        a.set(x, BigInt::from(4i64));
        assert!(!prog.is_satisfied_by(&a));
    }

    #[test]
    fn max_abs_coefficient_scales_rationals() {
        let mut prog = IntegerProgram::new();
        let x = prog.add_var("x");
        let y = prog.add_var("y");
        let mut e = LinExpr::term(r(1, 2), x);
        e.add_term(y, r(1, 3));
        prog.add_le(e, r(7, 1), "row");
        // Scaled by 6: 3x + 2y <= 42, so a = 42.
        assert_eq!(prog.max_abs_coefficient(), BigInt::from(42i64));
    }

    #[test]
    fn render_mentions_names() {
        let mut prog = IntegerProgram::new();
        let x = prog.add_var("ext(teacher)");
        prog.add_ge(LinExpr::var(x), Rational::one(), "nonempty");
        let s = prog.render();
        assert!(s.contains("ext(teacher)"));
        assert!(s.contains("nonempty"));
    }
}
