//! Constraint satisfaction over XML trees (the `T ⊨ φ` relation of
//! Section 2.2).
//!
//! Two notions of equality are used, exactly as in the paper: string-value
//! equality when comparing attribute values, node identity when comparing
//! elements.
//!
//! This module holds the [`Violation`] type every checker reports, the
//! one-shot entry points [`check_document`] / [`document_satisfies`] (which
//! run on [`crate::IncrementalIndex`], the workspace's one `T ⊨ Σ` index),
//! and [`SatisfactionChecker`], the independent string-valued reference
//! implementation the index is tested against.

use std::collections::{HashMap, HashSet};

use xic_dtd::{AttrId, Dtd, ElemId};
use xic_xml::{NodeId, XmlTree};

use crate::classes::ConstraintSet;
use crate::constraint::{Constraint, InclusionSpec, KeySpec};
use crate::incremental::IncrementalIndex;

/// The reason a constraint is violated by a document, with witness nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two distinct elements agree on the key attributes.
    KeyViolation {
        /// Rendered constraint.
        constraint: String,
        /// The two offending element nodes.
        witnesses: (NodeId, NodeId),
        /// The shared attribute-value tuple.
        values: Vec<String>,
    },
    /// An element's attribute tuple matches no target element.
    InclusionViolation {
        /// Rendered constraint.
        constraint: String,
        /// The dangling referencing element.
        witness: NodeId,
        /// Its attribute-value tuple.
        values: Vec<String>,
    },
    /// An element is missing one of the attributes the constraint mentions
    /// (can only happen on documents that do not conform to the DTD).
    MissingAttributes {
        /// Rendered constraint.
        constraint: String,
        /// The offending element.
        witness: NodeId,
    },
    /// A negated constraint holds nowhere in the document (i.e. the positive
    /// constraint is satisfied, contradicting the negation).
    NegationUnsatisfied {
        /// Rendered constraint.
        constraint: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::KeyViolation { constraint, witnesses, values } => write!(
                f,
                "key violation of `{constraint}`: nodes #{} and #{} share [{}]",
                witnesses.0.index(),
                witnesses.1.index(),
                values.join(", ")
            ),
            Violation::InclusionViolation { constraint, witness, values } => write!(
                f,
                "inclusion violation of `{constraint}`: node #{} references [{}] which no target provides",
                witness.index(),
                values.join(", ")
            ),
            Violation::MissingAttributes { constraint, witness } => write!(
                f,
                "node #{} is missing attributes mentioned by `{constraint}`",
                witness.index()
            ),
            Violation::NegationUnsatisfied { constraint } => {
                write!(f, "negated constraint `{constraint}` holds nowhere in the document")
            }
        }
    }
}

impl Violation {
    /// Rendered constraint the violation refers to.
    pub fn constraint(&self) -> &str {
        match self {
            Violation::KeyViolation { constraint, .. }
            | Violation::InclusionViolation { constraint, .. }
            | Violation::MissingAttributes { constraint, .. }
            | Violation::NegationUnsatisfied { constraint } => constraint,
        }
    }
}

/// The retained **reference** satisfaction checker: string-valued tuples,
/// lazily built per-(type, attribute-list) indexes.
///
/// The production path is [`crate::IncrementalIndex`], which interns values
/// and builds every index in one pass; this checker keeps the seed
/// algorithm alive as the independent differential-testing oracle
/// (`tests/satisfaction_agreement.rs`, `tests/session_agreement.rs`) and as
/// the ad-hoc single-constraint checker used by the bounded witness search.
/// Its caches hand out borrows — not clones — of their entries.
pub struct SatisfactionChecker<'a> {
    dtd: &'a Dtd,
    tree: &'a XmlTree,
    ext_cache: HashMap<ElemId, Vec<NodeId>>,
    tuple_cache: HashMap<(ElemId, Vec<AttrId>), HashSet<Vec<String>>>,
}

impl<'a> SatisfactionChecker<'a> {
    /// Creates a checker for one document.
    pub fn new(dtd: &'a Dtd, tree: &'a XmlTree) -> SatisfactionChecker<'a> {
        SatisfactionChecker {
            dtd,
            tree,
            ext_cache: HashMap::new(),
            tuple_cache: HashMap::new(),
        }
    }

    /// Checks a single constraint, returning its violation if any.
    pub fn check(&mut self, constraint: &Constraint) -> Option<Violation> {
        match constraint {
            Constraint::Key(k) => self.check_key(k, constraint),
            Constraint::Inclusion(i) => self.check_inclusion(i, constraint),
            Constraint::ForeignKey(i) => {
                let key = KeySpec::new(i.to_ty, i.to_attrs.clone());
                self.check_key(&key, constraint)
                    .or_else(|| self.check_inclusion(i, constraint))
            }
            Constraint::NotKey(k) => {
                if self.key_holds(k).is_some() {
                    // The key is violated somewhere, so its negation holds.
                    None
                } else {
                    Some(Violation::NegationUnsatisfied {
                        constraint: constraint.render(self.dtd),
                    })
                }
            }
            Constraint::NotInclusion(i) => {
                if self.inclusion_holds(i) {
                    Some(Violation::NegationUnsatisfied {
                        constraint: constraint.render(self.dtd),
                    })
                } else {
                    None
                }
            }
        }
    }

    /// `T ⊨ φ`.
    pub fn satisfies(&mut self, constraint: &Constraint) -> bool {
        self.check(constraint).is_none()
    }

    /// `T ⊨ Σ`: returns every violation.
    pub fn check_all(&mut self, sigma: &ConstraintSet) -> Vec<Violation> {
        sigma.iter().filter_map(|c| self.check(c)).collect()
    }

    /// `T ⊨ Σ` as a boolean.
    pub fn satisfies_all(&mut self, sigma: &ConstraintSet) -> bool {
        sigma.iter().all(|c| self.check(c).is_none())
    }

    /// Returns `None` if the key holds, or a violation describing the first
    /// pair of clashing elements.
    fn key_holds(&mut self, k: &KeySpec) -> Option<Violation> {
        let tree = self.tree;
        let nodes = ext_entry(&mut self.ext_cache, tree, k.ty);
        let mut seen: HashMap<Vec<String>, NodeId> = HashMap::new();
        for &n in nodes {
            let Some(values) = tree.attr_values(n, &k.attrs) else {
                // Elements missing an attribute cannot clash (the conjunction
                // of equalities in the key definition is vacuously false), so
                // they are skipped; validity against the DTD is checked
                // separately.
                continue;
            };
            if let Some(&prev) = seen.get(&values) {
                return Some(Violation::KeyViolation {
                    constraint: Constraint::Key(k.clone()).render(self.dtd),
                    witnesses: (prev, n),
                    values,
                });
            }
            seen.insert(values, n);
        }
        None
    }

    fn check_key(&mut self, k: &KeySpec, original: &Constraint) -> Option<Violation> {
        match self.key_holds(k) {
            Some(Violation::KeyViolation {
                witnesses, values, ..
            }) => Some(Violation::KeyViolation {
                constraint: original.render(self.dtd),
                witnesses,
                values,
            }),
            other => other,
        }
    }

    fn inclusion_holds(&mut self, i: &InclusionSpec) -> bool {
        self.first_inclusion_violation(i).is_none()
    }

    fn first_inclusion_violation(
        &mut self,
        i: &InclusionSpec,
    ) -> Option<(NodeId, Option<Vec<String>>)> {
        let tree = self.tree;
        // Split borrows: the target set borrows `tuple_cache`, the source
        // list borrows `ext_cache` — disjoint fields, no cloning.
        let targets = tuples_entry(
            &mut self.tuple_cache,
            &mut self.ext_cache,
            tree,
            i.to_ty,
            &i.to_attrs,
        );
        let sources = ext_entry(&mut self.ext_cache, tree, i.from_ty);
        for &n in sources {
            match tree.attr_values(n, &i.from_attrs) {
                None => return Some((n, None)),
                Some(values) => {
                    if !targets.contains(&values) {
                        return Some((n, Some(values)));
                    }
                }
            }
        }
        None
    }

    fn check_inclusion(&mut self, i: &InclusionSpec, original: &Constraint) -> Option<Violation> {
        match self.first_inclusion_violation(i) {
            None => None,
            Some((witness, None)) => Some(Violation::MissingAttributes {
                constraint: original.render(self.dtd),
                witness,
            }),
            Some((witness, Some(values))) => Some(Violation::InclusionViolation {
                constraint: original.render(self.dtd),
                witness,
                values,
            }),
        }
    }
}

/// The `ext(τ)` cache entry, computed on first use.  A free function over
/// the cache field so callers can keep borrowing the tree alongside it.
fn ext_entry<'c>(
    ext_cache: &'c mut HashMap<ElemId, Vec<NodeId>>,
    tree: &XmlTree,
    ty: ElemId,
) -> &'c [NodeId] {
    ext_cache
        .entry(ty)
        .or_insert_with(|| tree.ext(ty).collect())
}

/// The `(τ, X̄)` tuple-set cache entry, computed on first use.  The returned
/// borrow is tied to `tuple_cache` only, so the caller may re-borrow
/// `ext_cache` while holding it.
fn tuples_entry<'c>(
    tuple_cache: &'c mut HashMap<(ElemId, Vec<AttrId>), HashSet<Vec<String>>>,
    ext_cache: &mut HashMap<ElemId, Vec<NodeId>>,
    tree: &XmlTree,
    ty: ElemId,
    attrs: &[AttrId],
) -> &'c HashSet<Vec<String>> {
    match tuple_cache.entry((ty, attrs.to_vec())) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(e) => {
            let nodes = ext_entry(ext_cache, tree, ty);
            let set: HashSet<Vec<String>> = nodes
                .iter()
                .filter_map(|&n| tree.attr_values(n, attrs))
                .collect();
            e.insert(set)
        }
    }
}

/// One-shot check of a full constraint set against a document: builds an
/// [`IncrementalIndex`] for `(D, Σ)` over the tree and reads its verdict.
pub fn check_document(dtd: &Dtd, tree: &XmlTree, sigma: &ConstraintSet) -> Vec<Violation> {
    IncrementalIndex::build(dtd, sigma, tree).check_all(tree)
}

/// One-shot `T ⊨ Σ`.
pub fn document_satisfies(dtd: &Dtd, tree: &XmlTree, sigma: &ConstraintSet) -> bool {
    IncrementalIndex::build(dtd, sigma, tree).satisfies_all(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{example_sigma1, example_sigma3};
    use xic_dtd::{example_d1, example_d3};

    /// The Figure 1 tree: both teachers named "Joe", every subject taught_by
    /// "Joe".  It conforms to D1 but violates subject.taught_by → subject.
    fn figure1(dtd: &Dtd) -> XmlTree {
        let teachers = dtd.type_by_name("teachers").unwrap();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let teach = dtd.type_by_name("teach").unwrap();
        let research = dtd.type_by_name("research").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let taught_by = dtd.attr_by_name("taught_by").unwrap();
        let mut t = XmlTree::new(teachers);
        for teacher_name in ["Joe", "Joe"] {
            let te = t.add_element(t.root(), teacher);
            t.set_attr(te, name, teacher_name);
            let th = t.add_element(te, teach);
            for s in ["XML", "DB"] {
                let sn = t.add_element(th, subject);
                t.set_attr(sn, taught_by, teacher_name);
                t.add_text(sn, s);
            }
            let r = t.add_element(te, research);
            t.add_text(r, "Web DB");
        }
        t
    }

    #[test]
    fn figure1_violates_sigma1() {
        let d1 = example_d1();
        let t = figure1(&d1);
        let sigma1 = example_sigma1(&d1);
        let violations = check_document(&d1, &t, &sigma1);
        assert!(!violations.is_empty());
        // Both keys are violated (duplicate "Joe" teachers, duplicate
        // taught_by values among subjects).
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::KeyViolation { .. })));
        assert!(!document_satisfies(&d1, &t, &sigma1));
    }

    #[test]
    fn distinct_names_satisfy_keys_but_not_card() {
        let d1 = example_d1();
        let teacher = d1.type_by_name("teacher").unwrap();
        let subject = d1.type_by_name("subject").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let taught_by = d1.attr_by_name("taught_by").unwrap();
        // One teacher "Ann" teaching two subjects, each taught_by a distinct
        // value: the subject key holds, but the foreign key forces taught_by
        // values to be teacher names — only "Ann" exists, so one dangles.
        let teachers = d1.type_by_name("teachers").unwrap();
        let teach = d1.type_by_name("teach").unwrap();
        let research = d1.type_by_name("research").unwrap();
        let mut t = XmlTree::new(teachers);
        let te = t.add_element(t.root(), teacher);
        t.set_attr(te, name, "Ann");
        let th = t.add_element(te, teach);
        for (s, by) in [("XML", "Ann"), ("DB", "Bob")] {
            let sn = t.add_element(th, subject);
            t.set_attr(sn, taught_by, by);
            t.add_text(sn, s);
        }
        let r = t.add_element(te, research);
        t.add_text(r, "Web DB");

        let mut checker = SatisfactionChecker::new(&d1, &t);
        assert!(checker.satisfies(&Constraint::unary_key(teacher, name)));
        assert!(checker.satisfies(&Constraint::unary_key(subject, taught_by)));
        let fk = Constraint::unary_foreign_key(subject, taught_by, teacher, name);
        let v = checker.check(&fk).expect("dangling reference");
        assert!(
            matches!(v, Violation::InclusionViolation { values, .. } if values == vec!["Bob".to_string()])
        );
    }

    #[test]
    fn multiattribute_keys_on_d3() {
        let d3 = example_d3();
        let school = d3.type_by_name("school").unwrap();
        let course = d3.type_by_name("course").unwrap();
        let student = d3.type_by_name("student").unwrap();
        let enroll = d3.type_by_name("enroll").unwrap();
        let subject = d3.type_by_name("subject").unwrap();
        let name_ty = d3.type_by_name("name").unwrap();
        let dept = d3.attr_by_name("dept").unwrap();
        let course_no = d3.attr_by_name("course_no").unwrap();
        let student_id = d3.attr_by_name("student_id").unwrap();

        let mut t = XmlTree::new(school);
        // Two courses in different departments with the same course number:
        // fine for the multi-attribute key.
        for (d, n) in [("cs", "101"), ("math", "101")] {
            let c = t.add_element(t.root(), course);
            t.set_attr(c, dept, d);
            t.set_attr(c, course_no, n);
            let s = t.add_element(c, subject);
            t.add_text(s, "intro");
        }
        let st = t.add_element(t.root(), student);
        t.set_attr(st, student_id, "s1");
        let nm = t.add_element(st, name_ty);
        t.add_text(nm, "Ada");
        let en = t.add_element(t.root(), enroll);
        t.set_attr(en, student_id, "s1");
        t.set_attr(en, dept, "cs");
        t.set_attr(en, course_no, "101");
        t.add_text(en, "enrolled");

        let sigma3 = example_sigma3(&d3);
        let violations = check_document(&d3, &t, &sigma3);
        assert!(violations.is_empty(), "{violations:?}");

        // Now break the enroll foreign key by referencing a missing course.
        let mut t2 = t.clone();
        let en2 = t2.add_element(t2.root(), enroll);
        t2.set_attr(en2, student_id, "s1");
        t2.set_attr(en2, dept, "physics");
        t2.set_attr(en2, course_no, "999");
        t2.add_text(en2, "enrolled");
        let violations = check_document(&d3, &t2, &sigma3);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::InclusionViolation { .. })));
    }

    #[test]
    fn negated_constraints() {
        let d1 = example_d1();
        let t = figure1(&d1);
        let teacher = d1.type_by_name("teacher").unwrap();
        let subject = d1.type_by_name("subject").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let taught_by = d1.attr_by_name("taught_by").unwrap();
        let mut checker = SatisfactionChecker::new(&d1, &t);
        // Both "Joe" teachers clash, so the negated key holds.
        assert!(checker.satisfies(&Constraint::not_unary_key(teacher, name)));
        // Every taught_by value equals some teacher name, so the negated
        // inclusion does NOT hold.
        assert!(!checker.satisfies(&Constraint::not_unary_inclusion(
            subject, taught_by, teacher, name
        )));
        // And the positive inclusion does hold.
        assert!(checker.satisfies(&Constraint::unary_inclusion(
            subject, taught_by, teacher, name
        )));
    }

    #[test]
    fn empty_ext_satisfies_keys_and_inclusions() {
        let d3 = example_d3();
        let school = d3.type_by_name("school").unwrap();
        let t = XmlTree::new(school);
        let sigma3 = example_sigma3(&d3);
        // With no courses/students/enrolls, every key and inclusion holds
        // vacuously.
        assert!(document_satisfies(&d3, &t, &sigma3));
    }

    #[test]
    fn violation_reports_carry_witnesses() {
        let d1 = example_d1();
        let t = figure1(&d1);
        let sigma1 = example_sigma1(&d1);
        let violations = check_document(&d1, &t, &sigma1);
        for v in &violations {
            assert!(!v.constraint().is_empty());
            if let Violation::KeyViolation {
                witnesses, values, ..
            } = v
            {
                assert_ne!(witnesses.0, witnesses.1);
                assert!(!values.is_empty());
            }
        }
    }
}
