//! The cardinality systems Ψ_D, C_Σ, Ψ(D,Σ) and Ψ'(D,Σ).
//!
//! This is the heart of the paper's positive results (Theorem 4.1,
//! Corollary 4.9, Theorem 5.1): a DTD `D` and a set Σ of unary constraints
//! are compiled into a system of linear integer constraints such that the
//! system has a non-negative integer solution iff some XML tree conforms to
//! `D` and satisfies Σ.  The pieces are:
//!
//! * **Ψ_DN** — one variable `|ext(τ)|` per type of the simplified DTD and
//!   one occurrence variable `x^i_{τ1,τ}` per occurrence of `τ1` in the rule
//!   of `τ`, with the per-rule equalities and per-type occurrence sums;
//! * **C_Σ** — one variable `|ext(τ.l)|` per attribute slot, with
//!   `|ext(τ.l)| = |ext(τ)|` for keys, `≤` for inclusions, and
//!   `0 ≤ |ext(τ.l)| ≤ |ext(τ)|` always;
//! * the conditional constraints `|ext(τ)| > 0 → |ext(τ.l)| > 0` expressing
//!   that every element carries all its attributes;
//! * for negated keys (Corollary 4.9): `|ext(τ.l)| < |ext(τ)|`;
//! * for negated inclusion constraints (Theorem 5.1): *set-atom* variables
//!   `z_θ`, one per non-empty subset θ of the attribute slots mentioned by
//!   (positive or negative) inclusion constraints, constrained so that the
//!   `|ext(τ.l)|` values admit a set representation in which every negated
//!   inclusion has a witness value.

use std::fmt;

use xic_constraints::{Constraint, ConstraintSet};
use xic_dtd::{AttrId, Dtd, ElemId, SimpleDtd, SimpleId, SimpleRule};
use xic_ilp::{Assignment, CmpOp, IntegerProgram, LinExpr, Rational, VarId};

use crate::error::SpecError;

/// Options controlling system construction.
#[derive(Debug, Clone)]
pub struct SystemOptions {
    /// Maximum number of attribute slots admitted by the negated-inclusion
    /// (set-atom) encoding; the number of atom variables is `2^slots − 1`.
    pub max_atom_slots: usize,
}

impl Default for SystemOptions {
    fn default() -> Self {
        SystemOptions { max_atom_slots: 16 }
    }
}

/// An occurrence variable `x^i_{child,parent}`: the number of `child`
/// subelements appearing at position `i` of the rule of `parent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurrence {
    /// The child type.
    pub child: SimpleId,
    /// The parent type.
    pub parent: SimpleId,
    /// Position within the parent's rule (1 or 2).
    pub position: u8,
    /// The ILP variable carrying the count.
    pub var: VarId,
}

/// Where a variable, row or conditional of Ψ(D,Σ) comes from, as ids.
///
/// Building and solving the system never needs more; the text `xic
/// explain` prints is rendered from these ids on demand by
/// [`CardinalitySystem::render`] and [`CardinalitySystem::violation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Variable `|ext(τ)|` of a simple type.
    Ext(SimpleId),
    /// Variable `|ext(S)|`: the number of text nodes.
    Text,
    /// Variable counting the text child of a `#PCDATA` type.
    TextOcc(SimpleId),
    /// Occurrence variable `x^pos_{child,parent}`.
    Occ {
        /// The child type.
        child: SimpleId,
        /// The parent type.
        parent: SimpleId,
        /// Position within the parent's rule (1 or 2).
        pos: u8,
    },
    /// Variable `|ext(τ.l)|` of an attribute slot.
    Attr(ElemId, AttrId),
    /// Set-atom variable `z_θ`, θ a bitmask over the atom slots.
    Atom(u64),
    /// A row ψ_τ of a simple type's rule.
    Rule(SimpleId, RuleRow),
    /// The row `|ext(r)| = 1`.
    UniqueRoot,
    /// The row saying the root occurs under no parent.
    RootNotChild,
    /// The row `|ext(τ)| = Σ` occurrences of `τ`.
    Counts(SimpleId),
    /// The row `|ext(S)| = Σ` text occurrences.
    TextCounts,
    /// The row `|ext(τ.l)| ≤ |ext(τ)|`.
    AttrBound(ElemId, AttrId),
    /// The conditional `|ext(τ)| > 0 → |ext(τ.l)| > 0`.
    Totality(ElemId, AttrId),
    /// A row derived from constraint `index` of Σ.
    Sigma(u32, SigmaRow),
    /// The row making `|ext(τ.l)|` the size of its set-atom value set.
    ValueSet(ElemId, AttrId),
    /// Part of the `n`-th realizability cut added to the system.
    Cut(u32, CutPart),
}

/// Which row of a simple type's rule an [`Origin::Rule`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleRow {
    /// `τ → S`.
    TextChild,
    /// `τ → τ₁`.
    SingleChild,
    /// The first child of `τ → τ₁, τ₂`.
    FirstOfSequence,
    /// The second child of `τ → τ₁, τ₂`.
    SecondOfSequence,
    /// `τ → τ₁ | τ₂`.
    Union,
}

/// Which row a constraint of Σ contributed ([`Origin::Sigma`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigmaRow {
    /// `|ext(τ.l)| = |ext(τ)|`.
    Key,
    /// `|ext(τ1.l1)| ≤ |ext(τ2.l2)|`.
    Inclusion,
    /// The key on a foreign key's target.
    ForeignKeyTarget,
    /// `|ext(τ.l)| ≤ |ext(τ)| − 1` (Corollary 4.9).
    NegatedKey,
    /// An inclusion over set atoms: no atom has the source without the target.
    SetInclusion,
    /// A negated inclusion over set atoms: some atom does.
    NegatedInclusion,
}

/// Which part of a realizability cut an [`Origin::Cut`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutPart {
    /// The variable totalling the floating types' counts.
    TotalVar,
    /// The variable totalling the occurrences entering the floating set.
    IncomingVar,
    /// The row defining [`CutPart::TotalVar`].
    TotalRow,
    /// The row defining [`CutPart::IncomingVar`].
    IncomingRow,
    /// The conditional: a populated set must be entered from outside.
    Connectivity,
}

/// The compiled cardinality system Ψ(D,Σ) (or Ψ'(D,Σ) when Σ contains
/// negated inclusion constraints).
#[derive(Debug, Clone)]
pub struct CardinalitySystem {
    program: IntegerProgram<Origin>,
    simple: SimpleDtd,
    ext_vars: Vec<VarId>,
    text_var: VarId,
    /// Occurrences in parent order: those under simple type `τ` are
    /// `occurrences[occ_start[τ]..occ_start[τ + 1]]`.
    occurrences: Vec<Occurrence>,
    occ_start: Vec<usize>,
    text_occurrences: Vec<(SimpleId, VarId)>,
    /// `|ext(τ.l)|` variables: those of element type `τ` are
    /// `attr_vars[attr_start[τ]..attr_start[τ + 1]]`.
    attr_vars: Vec<(AttrId, VarId)>,
    attr_start: Vec<usize>,
    /// Attribute slots participating in the set-atom encoding, in index
    /// order (empty when Σ has no negated inclusion constraints).
    atom_slots: Vec<(ElemId, AttrId)>,
    /// Atom variables: `(bitmask over atom_slots, z_θ variable)`.
    atom_vars: Vec<(u64, VarId)>,
    /// The floating sets of the realizability cuts added so far.
    cuts: Vec<Vec<SimpleId>>,
}

/// The variable of slot `(ty, attr)` in per-type ranges of `(attribute,
/// variable)` pairs: those of `ty` are `vars[start[ty]..start[ty + 1]]`.
fn slot_var(vars: &[(AttrId, VarId)], start: &[usize], ty: ElemId, attr: AttrId) -> Option<VarId> {
    let (&lo, &hi) = (start.get(ty.index())?, start.get(ty.index() + 1)?);
    vars[lo..hi]
        .iter()
        .find(|&&(a, _)| a == attr)
        .map(|&(_, v)| v)
}

/// Group offsets for `n` groups: group `g` holds `start[g]..start[g + 1]`
/// of a sequence ordered by group, given each element's group.
fn group_offsets(n: usize, groups: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut start = vec![0; n + 1];
    for g in groups {
        start[g + 1] += 1;
    }
    for g in 0..n {
        start[g + 1] += start[g];
    }
    start
}

impl CardinalitySystem {
    /// Builds Ψ(D,Σ) / Ψ'(D,Σ) for a DTD and a set of **unary** constraints.
    ///
    /// Multi-attribute constraints are rejected with
    /// [`SpecError::UnsupportedClass`]; the undecidable general class is
    /// handled by [`crate::bounded`] instead.
    pub fn build(
        dtd: &Dtd,
        sigma: &ConstraintSet,
        options: &SystemOptions,
    ) -> Result<CardinalitySystem, SpecError> {
        sigma.validate(dtd)?;
        for c in sigma.iter() {
            if !c.is_unary() {
                return Err(SpecError::UnsupportedClass {
                    procedure: "CardinalitySystem::build".to_string(),
                    offending: c.render(dtd),
                });
            }
        }

        let simple = SimpleDtd::from_dtd(dtd);
        let mut program = IntegerProgram::default();

        // |ext(τ)| variables for every simple type, plus |ext(S)|.
        let ext_vars: Vec<VarId> = simple
            .types()
            .map(|ty| program.add_var(Origin::Ext(ty)))
            .collect();
        let text_var = program.add_var(Origin::Text);

        // Occurrence variables and the per-rule equalities ψ_τ.
        let mut occurrences = Vec::new();
        let mut text_occurrences = Vec::new();
        for ty in simple.types() {
            let ext_ty = ext_vars[ty.index()];
            let mut occurrence = |program: &mut IntegerProgram<Origin>, child, position| {
                let var = program.add_var(Origin::Occ {
                    child,
                    parent: ty,
                    pos: position,
                });
                occurrences.push(Occurrence {
                    child,
                    parent: ty,
                    position,
                    var,
                });
                var
            };
            match simple.rule(ty) {
                SimpleRule::Epsilon => {}
                SimpleRule::Text => {
                    let v = program.add_var(Origin::TextOcc(ty));
                    text_occurrences.push((ty, v));
                    program.add_var_eq_expr(
                        ext_ty,
                        LinExpr::var(v),
                        Origin::Rule(ty, RuleRow::TextChild),
                    );
                }
                SimpleRule::One(a) => {
                    let v = occurrence(&mut program, a, 1);
                    program.add_var_eq_expr(
                        ext_ty,
                        LinExpr::var(v),
                        Origin::Rule(ty, RuleRow::SingleChild),
                    );
                }
                SimpleRule::Seq(a, b) => {
                    let va = occurrence(&mut program, a, 1);
                    let vb = occurrence(&mut program, b, 2);
                    program.add_var_eq_expr(
                        ext_ty,
                        LinExpr::var(va),
                        Origin::Rule(ty, RuleRow::FirstOfSequence),
                    );
                    program.add_var_eq_expr(
                        ext_ty,
                        LinExpr::var(vb),
                        Origin::Rule(ty, RuleRow::SecondOfSequence),
                    );
                }
                SimpleRule::Alt(a, b) => {
                    let va = occurrence(&mut program, a, 1);
                    let vb = occurrence(&mut program, b, 2);
                    let mut sum = LinExpr::var(va);
                    sum.add_term(vb, Rational::one());
                    program.add_var_eq_expr(ext_ty, sum, Origin::Rule(ty, RuleRow::Union));
                }
            }
        }
        let occ_start = group_offsets(
            simple.num_types(),
            occurrences.iter().map(|occ| occ.parent.index()),
        );

        // |ext(r)| = 1.
        program.add_eq(
            LinExpr::var(ext_vars[simple.root().index()]),
            Rational::one(),
            Origin::UniqueRoot,
        );

        // Per-type occurrence sums: every non-root element is somebody's
        // child exactly once; the root is nobody's child.  One counting
        // sort groups the occurrence variables by child, each group in
        // variable order.
        let child_start = group_offsets(
            simple.num_types(),
            occurrences.iter().map(|occ| occ.child.index()),
        );
        let mut by_child = vec![VarId(0); occurrences.len()];
        let mut next = child_start.clone();
        for occ in &occurrences {
            by_child[next[occ.child.index()]] = occ.var;
            next[occ.child.index()] += 1;
        }
        for ty in simple.types() {
            let incoming = &by_child[child_start[ty.index()]..child_start[ty.index() + 1]];
            if ty == simple.root() {
                if !incoming.is_empty() {
                    let mut sum = LinExpr::new();
                    for &v in incoming {
                        sum.add_term(v, Rational::one());
                    }
                    program.add_eq(sum, Rational::zero(), Origin::RootNotChild);
                }
            } else {
                let mut expr = LinExpr::var(ext_vars[ty.index()]);
                for &v in incoming {
                    expr.add_term(v, -Rational::one());
                }
                program.add_eq(expr, Rational::zero(), Origin::Counts(ty));
            }
        }
        // |ext(S)| = Σ text occurrences.
        {
            let mut expr = LinExpr::var(text_var);
            for (_, v) in &text_occurrences {
                expr.add_term(*v, -Rational::one());
            }
            program.add_eq(expr, Rational::zero(), Origin::TextCounts);
        }

        // Attribute-count variables and the generic bounds
        // 0 ≤ |ext(τ.l)| ≤ |ext(τ)| plus the totality conditionals.
        let mut attr_vars = Vec::new();
        let mut attr_start = Vec::with_capacity(dtd.num_types() + 1);
        for ty in dtd.types() {
            attr_start.push(attr_vars.len());
            let ext_ty = ext_vars[simple.simple_of(ty).index()];
            for &attr in dtd.attrs_of(ty) {
                let v = program.add_var(Origin::Attr(ty, attr));
                attr_vars.push((attr, v));
                let mut le = LinExpr::var(v);
                le.add_term(ext_ty, -Rational::one());
                program.add_le(le, Rational::zero(), Origin::AttrBound(ty, attr));
                program.add_conditional(ext_ty, v, Origin::Totality(ty, attr));
            }
        }
        attr_start.push(attr_vars.len());
        let attr_var = |ty: ElemId, attr: AttrId| {
            slot_var(&attr_vars, &attr_start, ty, attr).expect("Σ was validated against the DTD")
        };

        // C_Σ: constraint-derived rows.
        for (index, c) in sigma.iter().enumerate() {
            let index = u32::try_from(index).expect("Σ has fewer than 2³² constraints");
            let origin = |row| Origin::Sigma(index, row);
            match c {
                Constraint::Key(k) => {
                    let ext_ty = ext_vars[simple.simple_of(k.ty).index()];
                    let mut eq = LinExpr::var(attr_var(k.ty, k.attrs[0]));
                    eq.add_term(ext_ty, -Rational::one());
                    program.add_eq(eq, Rational::zero(), origin(SigmaRow::Key));
                }
                Constraint::Inclusion(i) | Constraint::ForeignKey(i) => {
                    let from = attr_var(i.from_ty, i.from_attrs[0]);
                    let to = attr_var(i.to_ty, i.to_attrs[0]);
                    let mut le = LinExpr::var(from);
                    le.add_term(to, -Rational::one());
                    program.add_le(le, Rational::zero(), origin(SigmaRow::Inclusion));
                    if matches!(c, Constraint::ForeignKey(_)) {
                        let ext_ty = ext_vars[simple.simple_of(i.to_ty).index()];
                        let mut eq = LinExpr::var(to);
                        eq.add_term(ext_ty, -Rational::one());
                        program.add_eq(eq, Rational::zero(), origin(SigmaRow::ForeignKeyTarget));
                    }
                }
                Constraint::NotKey(k) => {
                    // |ext(τ.l)| ≤ |ext(τ)| − 1 (Corollary 4.9).
                    let ext_ty = ext_vars[simple.simple_of(k.ty).index()];
                    let mut le = LinExpr::var(attr_var(k.ty, k.attrs[0]));
                    le.add_term(ext_ty, -Rational::one());
                    program.add_le(le, Rational::from_int(-1i64), origin(SigmaRow::NegatedKey));
                }
                Constraint::NotInclusion(_) => {
                    // Handled below by the set-atom encoding.
                }
            }
        }

        // Set-atom encoding for negated inclusion constraints (Theorem 5.1).
        let mut atom_slots: Vec<(ElemId, AttrId)> = Vec::new();
        let mut atom_vars: Vec<(u64, VarId)> = Vec::new();
        let has_neg_inclusion = sigma
            .iter()
            .any(|c| matches!(c, Constraint::NotInclusion(_)));
        if has_neg_inclusion {
            // Collect every slot mentioned by a positive or negative
            // inclusion constraint.
            let push_slot = |slots: &mut Vec<(ElemId, AttrId)>, ty: ElemId, attr: AttrId| {
                if !slots.contains(&(ty, attr)) {
                    slots.push((ty, attr));
                }
            };
            for c in sigma.iter() {
                if let Some(i) = c.inclusion_part() {
                    push_slot(&mut atom_slots, i.from_ty, i.from_attrs[0]);
                    push_slot(&mut atom_slots, i.to_ty, i.to_attrs[0]);
                }
            }
            let n = atom_slots.len();
            if n > options.max_atom_slots {
                return Err(SpecError::TooManyAtomSlots {
                    slots: n,
                    limit: options.max_atom_slots,
                });
            }
            // One z_θ per non-empty subset of the slots.
            for mask in 1u64..(1u64 << n) {
                let v = program.add_var(Origin::Atom(mask));
                atom_vars.push((mask, v));
            }
            // |ext(τ_i.l_i)| = Σ_{θ ∋ i} z_θ.
            for (i, &(ty, attr)) in atom_slots.iter().enumerate() {
                let mut expr = LinExpr::var(attr_var(ty, attr));
                for &(mask, v) in &atom_vars {
                    if mask & (1 << i) != 0 {
                        expr.add_term(v, -Rational::one());
                    }
                }
                program.add_eq(expr, Rational::zero(), Origin::ValueSet(ty, attr));
            }
            // Positive inclusions force v_ij = 0; negations force v_ij ≥ 1.
            let slot_index = |slots: &[(ElemId, AttrId)], ty: ElemId, attr: AttrId| {
                slots
                    .iter()
                    .position(|&s| s == (ty, attr))
                    .expect("slot registered")
            };
            for (index, c) in sigma.iter().enumerate() {
                let Some(inc) = c.inclusion_part() else {
                    continue;
                };
                let i = slot_index(&atom_slots, inc.from_ty, inc.from_attrs[0]);
                let j = slot_index(&atom_slots, inc.to_ty, inc.to_attrs[0]);
                let mut v_ij = LinExpr::new();
                for &(mask, v) in &atom_vars {
                    if mask & (1 << i) != 0 && mask & (1 << j) == 0 {
                        v_ij.add_term(v, Rational::one());
                    }
                }
                let index = u32::try_from(index).expect("Σ has fewer than 2³² constraints");
                let origin = |row| Origin::Sigma(index, row);
                match c {
                    Constraint::Inclusion(_) | Constraint::ForeignKey(_) => {
                        program.add_constraint(
                            v_ij,
                            CmpOp::Eq,
                            Rational::zero(),
                            origin(SigmaRow::SetInclusion),
                        );
                    }
                    Constraint::NotInclusion(_) => {
                        program.add_ge(v_ij, Rational::one(), origin(SigmaRow::NegatedInclusion));
                    }
                    _ => {}
                }
            }
        }

        Ok(CardinalitySystem {
            program,
            simple,
            ext_vars,
            text_var,
            occurrences,
            occ_start,
            text_occurrences,
            attr_vars,
            attr_start,
            atom_slots,
            atom_vars,
            cuts: Vec::new(),
        })
    }

    /// The underlying integer program.
    pub fn program(&self) -> &IntegerProgram<Origin> {
        &self.program
    }

    /// The simplified DTD the system is defined over.
    pub fn simple(&self) -> &SimpleDtd {
        &self.simple
    }

    /// The `|ext(τ)|` variable of an original element type.
    pub fn ext_var(&self, ty: ElemId) -> VarId {
        self.ext_vars[self.simple.simple_of(ty).index()]
    }

    /// The `|ext(τ)|` variable of a simple type.
    pub fn ext_var_simple(&self, ty: SimpleId) -> VarId {
        self.ext_vars[ty.index()]
    }

    /// The `|ext(S)|` variable.
    pub fn text_var(&self) -> VarId {
        self.text_var
    }

    /// The `|ext(τ.l)|` variable of an attribute slot.
    pub fn attr_var(&self, ty: ElemId, attr: AttrId) -> Option<VarId> {
        slot_var(&self.attr_vars, &self.attr_start, ty, attr)
    }

    /// All occurrence variables, grouped by parent type.
    pub fn occurrences(&self) -> &[Occurrence] {
        &self.occurrences
    }

    /// The occurrence variables of the rule of `parent`.
    pub fn occurrences_under(&self, parent: SimpleId) -> &[Occurrence] {
        &self.occurrences[self.occ_start[parent.index()]..self.occ_start[parent.index() + 1]]
    }

    /// Text-occurrence variables per parent type.
    pub fn text_occurrences(&self) -> &[(SimpleId, VarId)] {
        &self.text_occurrences
    }

    /// The attribute slots of the set-atom encoding (Theorem 5.1).
    pub fn atom_slots(&self) -> &[(ElemId, AttrId)] {
        &self.atom_slots
    }

    /// The set-atom variables (bitmask over [`Self::atom_slots`], variable).
    pub fn atom_vars(&self) -> &[(u64, VarId)] {
        &self.atom_vars
    }

    /// Adds the connectivity cut for a floating set `S` of simple types
    /// (never containing the root): the universally valid implication
    /// `Σ_{τ∈S} |ext(τ)| > 0  →  Σ incoming occurrences into S > 0`,
    /// expressed with two fresh aggregate variables and one conditional.
    pub(crate) fn add_connectivity_cut(&mut self, floating: &[SimpleId]) {
        let mut in_set = vec![false; self.simple.num_types()];
        for &ty in floating {
            in_set[ty.index()] = true;
        }
        let n = u32::try_from(self.cuts.len()).expect("too many cuts");
        self.cuts.push(floating.to_vec());
        let program = &mut self.program;
        let total = program.add_var(Origin::Cut(n, CutPart::TotalVar));
        let mut total_expr = LinExpr::var(total);
        for &ty in floating {
            total_expr.add_term(self.ext_vars[ty.index()], -Rational::one());
        }
        program.add_eq(
            total_expr,
            Rational::zero(),
            Origin::Cut(n, CutPart::TotalRow),
        );
        // Incoming occurrences: child in S, parent outside S.
        let entering = program.add_var(Origin::Cut(n, CutPart::IncomingVar));
        let mut incoming_expr = LinExpr::var(entering);
        for occ in &self.occurrences {
            if in_set[occ.child.index()] && !in_set[occ.parent.index()] {
                incoming_expr.add_term(occ.var, -Rational::one());
            }
        }
        program.add_eq(
            incoming_expr,
            Rational::zero(),
            Origin::Cut(n, CutPart::IncomingRow),
        );
        program.add_conditional(total, entering, Origin::Cut(n, CutPart::Connectivity));
    }

    /// Renders the program with every variable, row and conditional named,
    /// as `xic explain` prints it.  `dtd` and `sigma` must be the ones the
    /// system was built from.
    pub fn render(&self, dtd: &Dtd, sigma: &ConstraintSet) -> String {
        self.program
            .render_with(|&origin| self.describe(origin, dtd, sigma))
    }

    /// Describes the first bound, row or conditional `assignment` violates,
    /// or returns `None` if it satisfies the program.  `dtd` and `sigma`
    /// must be the ones the system was built from.
    pub fn violation(
        &self,
        dtd: &Dtd,
        sigma: &ConstraintSet,
        assignment: &Assignment,
    ) -> Option<String> {
        self.program
            .violation_with(assignment, |&origin| self.describe(origin, dtd, sigma))
    }

    /// The text naming `origin`.  `dtd` and `sigma` must be the ones the
    /// system was built from.
    fn describe<'a>(
        &'a self,
        origin: Origin,
        dtd: &'a Dtd,
        sigma: &'a ConstraintSet,
    ) -> impl fmt::Display + 'a {
        Described {
            system: self,
            dtd,
            sigma,
            origin,
        }
    }
}

/// An [`Origin`] with the names it is rendered from.
struct Described<'a> {
    system: &'a CardinalitySystem,
    dtd: &'a Dtd,
    sigma: &'a ConstraintSet,
    origin: Origin,
}

impl fmt::Display for Described<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let simple = &self.system.simple;
        let ty = |ty: ElemId| self.dtd.type_name(ty);
        let attr = |attr: AttrId| self.dtd.attr_name(attr);
        match self.origin {
            Origin::Ext(t) => write!(f, "ext({})", simple.name(t)),
            Origin::Text => f.write_str("ext(S)"),
            Origin::TextOcc(t) => write!(f, "occ(S, {})", simple.name(t)),
            Origin::Occ { child, parent, pos } => {
                write!(
                    f,
                    "occ{pos}({}, {})",
                    simple.name(child),
                    simple.name(parent)
                )
            }
            Origin::Attr(t, a) => write!(f, "ext({}.{})", ty(t), attr(a)),
            Origin::Atom(mask) => write!(f, "z_{mask:b}"),
            Origin::Rule(t, row) => {
                let what = match row {
                    RuleRow::TextChild => "text child",
                    RuleRow::SingleChild => "single child",
                    RuleRow::FirstOfSequence => "first of sequence",
                    RuleRow::SecondOfSequence => "second of sequence",
                    RuleRow::Union => "union",
                };
                write!(f, "ψ_{}: {what}", simple.name(t))
            }
            Origin::UniqueRoot => f.write_str("unique root"),
            Origin::RootNotChild => f.write_str("the root never occurs as a child"),
            Origin::Counts(t) => write!(f, "ext({}) counts all its occurrences", simple.name(t)),
            Origin::TextCounts => f.write_str("ext(S) counts all text nodes"),
            Origin::AttrBound(t, a) => write!(f, "|ext({0}.{1})| ≤ |ext({0})|", ty(t), attr(a)),
            Origin::Totality(t, a) => {
                write!(f, "every {} element has an {} attribute", ty(t), attr(a))
            }
            Origin::Sigma(index, row) => {
                let what = match row {
                    SigmaRow::Key => "key",
                    SigmaRow::Inclusion => "inclusion",
                    SigmaRow::ForeignKeyTarget => "foreign-key target key",
                    SigmaRow::NegatedKey => "negated key",
                    SigmaRow::SetInclusion => "set inclusion",
                    SigmaRow::NegatedInclusion => "negated inclusion witness",
                };
                let c = &self.sigma.as_slice()[index as usize];
                write!(f, "{what}: {}", c.render(self.dtd))
            }
            Origin::ValueSet(t, a) => {
                write!(
                    f,
                    "|ext({}.{})| is the size of its value set",
                    ty(t),
                    attr(a)
                )
            }
            Origin::Cut(n, part) => {
                let set = self.system.cuts[n as usize]
                    .iter()
                    .map(|&t| simple.name(t))
                    .collect::<Vec<_>>()
                    .join(", ");
                match part {
                    CutPart::TotalVar => write!(f, "cut_total({set})"),
                    CutPart::IncomingVar => write!(f, "cut_incoming({set})"),
                    CutPart::TotalRow => write!(f, "cut: total of {{{set}}}"),
                    CutPart::IncomingRow => write!(f, "cut: occurrences entering {{{set}}}"),
                    CutPart::Connectivity => write!(
                        f,
                        "connectivity: a populated {{{set}}} must be entered from outside"
                    ),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_constraints::example_sigma1;
    use xic_dtd::{example_d1, example_d2};
    use xic_ilp::IlpSolver;

    #[test]
    fn d1_without_constraints_is_feasible() {
        let d1 = example_d1();
        let sys = CardinalitySystem::build(&d1, &ConstraintSet::new(), &SystemOptions::default())
            .unwrap();
        let outcome = IlpSolver::new().solve(sys.program());
        let a = outcome.assignment().expect("D1 alone is satisfiable");
        // The root count is 1 and teacher count ≥ 1 (teacher+).
        let teachers = d1.type_by_name("teachers").unwrap();
        let teacher = d1.type_by_name("teacher").unwrap();
        assert_eq!(a.get_u64(sys.ext_var(teachers)), Some(1));
        assert!(a.get_u64(sys.ext_var(teacher)).unwrap() >= 1);
    }

    #[test]
    fn d1_with_sigma1_is_infeasible() {
        // The paper's introductory example: Σ1 over D1 is inconsistent.
        let d1 = example_d1();
        let sigma1 = example_sigma1(&d1);
        let sys = CardinalitySystem::build(&d1, &sigma1, &SystemOptions::default()).unwrap();
        assert!(IlpSolver::new().solve(sys.program()).is_infeasible());
    }

    #[test]
    fn d2_is_infeasible_even_without_constraints() {
        let d2 = example_d2();
        let sys = CardinalitySystem::build(&d2, &ConstraintSet::new(), &SystemOptions::default())
            .unwrap();
        assert!(IlpSolver::new().solve(sys.program()).is_infeasible());
    }

    #[test]
    fn dropping_the_foreign_key_restores_consistency() {
        let d1 = example_d1();
        let teacher = d1.type_by_name("teacher").unwrap();
        let subject = d1.type_by_name("subject").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let taught_by = d1.attr_by_name("taught_by").unwrap();
        let sigma = ConstraintSet::from_vec(vec![
            Constraint::unary_key(teacher, name),
            Constraint::unary_foreign_key(subject, taught_by, teacher, name),
        ]);
        // Without the subject key, subjects may share taught_by values, so a
        // model exists.
        let sys = CardinalitySystem::build(&d1, &sigma, &SystemOptions::default()).unwrap();
        let outcome = IlpSolver::new().solve(sys.program());
        assert!(outcome.is_feasible());
        let a = outcome.assignment().unwrap();
        // The conditional constraints force at least one taught_by value.
        assert!(
            a.get_u64(sys.attr_var(subject, taught_by).unwrap())
                .unwrap()
                >= 1
        );
    }

    #[test]
    fn multiattribute_constraints_are_rejected() {
        let d3 = xic_dtd::example_d3();
        let sigma3 = xic_constraints::example_sigma3(&d3);
        let err = CardinalitySystem::build(&d3, &sigma3, &SystemOptions::default()).unwrap_err();
        assert!(matches!(err, SpecError::UnsupportedClass { .. }));
    }

    #[test]
    fn negated_key_forces_two_elements() {
        let d1 = example_d1();
        let teacher = d1.type_by_name("teacher").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let sigma = ConstraintSet::from_vec(vec![Constraint::not_unary_key(teacher, name)]);
        let sys = CardinalitySystem::build(&d1, &sigma, &SystemOptions::default()).unwrap();
        let outcome = IlpSolver::new().solve(sys.program());
        let a = outcome.assignment().expect("feasible");
        assert!(a.get_u64(sys.ext_var(teacher)).unwrap() >= 2);
    }

    #[test]
    fn negated_inclusion_uses_atoms() {
        let d1 = example_d1();
        let teacher = d1.type_by_name("teacher").unwrap();
        let subject = d1.type_by_name("subject").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let taught_by = d1.attr_by_name("taught_by").unwrap();
        let sigma = ConstraintSet::from_vec(vec![Constraint::not_unary_inclusion(
            subject, taught_by, teacher, name,
        )]);
        let sys = CardinalitySystem::build(&d1, &sigma, &SystemOptions::default()).unwrap();
        assert_eq!(sys.atom_slots().len(), 2);
        assert_eq!(sys.atom_vars().len(), 3);
        assert!(IlpSolver::new().solve(sys.program()).is_feasible());
    }

    #[test]
    fn atom_slot_limit_is_enforced() {
        let d1 = example_d1();
        let teacher = d1.type_by_name("teacher").unwrap();
        let subject = d1.type_by_name("subject").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let taught_by = d1.attr_by_name("taught_by").unwrap();
        let sigma = ConstraintSet::from_vec(vec![Constraint::not_unary_inclusion(
            subject, taught_by, teacher, name,
        )]);
        let err = CardinalitySystem::build(&d1, &sigma, &SystemOptions { max_atom_slots: 1 })
            .unwrap_err();
        assert!(matches!(
            err,
            SpecError::TooManyAtomSlots { slots: 2, limit: 1 }
        ));
    }

    #[test]
    fn violation_messages_name_their_rows() {
        // A solution of D1 alone satisfies every DTD row of Ψ(D1,Σ1), so
        // the first row it breaks comes from Σ1.
        let d1 = example_d1();
        let sigma1 = example_sigma1(&d1);
        let plain = CardinalitySystem::build(&d1, &ConstraintSet::new(), &SystemOptions::default())
            .unwrap();
        let outcome = IlpSolver::new().solve(plain.program());
        let a = outcome.assignment().expect("D1 alone is satisfiable");
        let sys = CardinalitySystem::build(&d1, &sigma1, &SystemOptions::default()).unwrap();
        assert_eq!(
            sys.violation(&d1, &sigma1, a).as_deref(),
            Some("violated [key: subject.taught_by → subject]: -1·x4 + 1·x22 = 0")
        );
        let mut zeros = xic_ilp::Assignment::zeros(sys.program().num_vars());
        assert_eq!(
            sys.violation(&d1, &sigma1, &zeros).as_deref(),
            Some("violated [unique root]: 1·x0 = 1")
        );
        zeros.set(sys.ext_var(d1.root()), xic_ilp::BigInt::from(-1i64));
        assert_eq!(
            sys.violation(&d1, &sigma1, &zeros).as_deref(),
            Some("ext(teachers) = -1 below lower bound 0")
        );
        // Without the name attribute the totality conditional breaks.
        let teacher = d1.type_by_name("teacher").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let mut nameless = a.clone();
        nameless.set(
            plain.attr_var(teacher, name).unwrap(),
            xic_ilp::BigInt::zero(),
        );
        let none = ConstraintSet::new();
        assert_eq!(
            plain.violation(&d1, &none, &nameless).as_deref(),
            Some(
                "violated conditional [every teacher element has an name attribute]: \
                 x1 > 0 → x21 > 0"
            )
        );
    }

    #[test]
    fn system_size_is_linear_in_the_spec() {
        let d1 = example_d1();
        let sigma1 = example_sigma1(&d1);
        let sys = CardinalitySystem::build(&d1, &sigma1, &SystemOptions::default()).unwrap();
        // A loose sanity bound: a handful of variables and rows per type.
        assert!(sys.program().num_vars() < 20 * d1.num_types());
        assert!(sys.program().num_constraints() < 20 * d1.num_types() + 10 * sigma1.len());
    }
}
