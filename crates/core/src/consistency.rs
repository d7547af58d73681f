//! The consistency problem: given a DTD `D` and a constraint set Σ, is there
//! an XML tree `T` with `T ⊨ D` and `T ⊨ Σ`?
//!
//! The dispatcher [`ConsistencyChecker::check`] routes a specification to the
//! strongest procedure the paper provides for its constraint class:
//!
//! | class | procedure | paper |
//! |---|---|---|
//! | no constraints | CFG emptiness, linear time | Thm 3.5(1) |
//! | keys only (`C_K`) | reduces to DTD satisfiability, linear time | Thm 3.5(2) |
//! | unary keys/FKs/ICs and their negations | cardinality system + ILP | Thm 4.1, Cor 4.9, Thm 5.1 |
//! | multi-attribute keys + foreign keys (`C_{K,FK}`) | **undecidable**; sound bounded search | Thm 3.1 |

use xic_constraints::{Constraint, ConstraintClass, ConstraintSet};
use xic_dtd::{analyze, Dtd};
use xic_ilp::{IlpSolver, SolveStats, SolverConfig};
use xic_xml::XmlTree;

use crate::bounded::{bounded_search, BoundedSearchConfig};
use crate::error::SpecError;
use crate::system::{CardinalitySystem, SystemOptions};
use crate::witness::{solve_and_witness, WitnessOutcome};

/// The verdict of a consistency check.
#[derive(Debug, Clone)]
pub enum ConsistencyOutcome {
    /// Some XML tree conforms to the DTD and satisfies Σ.  A witness tree is
    /// included whenever the procedure can synthesize one.
    Consistent {
        /// A synthesized witness document, if available.
        witness: Option<XmlTree>,
        /// Free-text explanation of how the verdict was reached.
        explanation: String,
    },
    /// No XML tree conforms to the DTD and satisfies Σ.
    Inconsistent {
        /// Free-text explanation (e.g. which cardinality argument failed).
        explanation: String,
    },
    /// The procedure could not decide within its resource bounds (this is the
    /// expected outcome for hard instances of the undecidable general class).
    Unknown {
        /// Why the procedure gave up.
        explanation: String,
    },
}

impl ConsistencyOutcome {
    /// `true` iff the verdict is [`ConsistencyOutcome::Consistent`].
    pub fn is_consistent(&self) -> bool {
        matches!(self, ConsistencyOutcome::Consistent { .. })
    }

    /// `true` iff the verdict is [`ConsistencyOutcome::Inconsistent`].
    pub fn is_inconsistent(&self) -> bool {
        matches!(self, ConsistencyOutcome::Inconsistent { .. })
    }

    /// `true` iff the verdict is [`ConsistencyOutcome::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, ConsistencyOutcome::Unknown { .. })
    }

    /// The witness document, if one was synthesized.
    pub fn witness(&self) -> Option<&XmlTree> {
        match self {
            ConsistencyOutcome::Consistent { witness, .. } => witness.as_ref(),
            _ => None,
        }
    }

    /// The explanation string.
    pub fn explanation(&self) -> &str {
        match self {
            ConsistencyOutcome::Consistent { explanation, .. }
            | ConsistencyOutcome::Inconsistent { explanation }
            | ConsistencyOutcome::Unknown { explanation } => explanation,
        }
    }
}

/// Configuration of the consistency checker.
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    /// ILP solver configuration (node limits, conditional treatment).
    pub solver: SolverConfig,
    /// Cardinality-system construction options.
    pub system: SystemOptions,
    /// Maximum number of realizability cuts before giving up on a witness.
    pub max_repair_rounds: usize,
    /// Whether to synthesize witness documents for consistent verdicts.
    pub synthesize_witness: bool,
    /// Bounded-search budget for the general (undecidable) class.
    pub bounded: BoundedSearchConfig,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            solver: SolverConfig::default(),
            system: SystemOptions::default(),
            max_repair_rounds: 32,
            synthesize_witness: true,
            bounded: BoundedSearchConfig::default(),
        }
    }
}

/// The consistency checker.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyChecker {
    config: CheckerConfig,
}

impl ConsistencyChecker {
    /// A checker with default configuration.
    pub fn new() -> ConsistencyChecker {
        ConsistencyChecker::default()
    }

    /// A checker with an explicit configuration.
    pub fn with_config(config: CheckerConfig) -> ConsistencyChecker {
        ConsistencyChecker { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &CheckerConfig {
        &self.config
    }

    /// Checks whether the DTD alone admits a valid tree (Theorem 3.5(1)).
    pub fn check_dtd_satisfiable(&self, dtd: &Dtd) -> bool {
        analyze(dtd).satisfiable()
    }

    /// Dispatches a specification to the right procedure for its class.
    pub fn check(&self, dtd: &Dtd, sigma: &ConstraintSet) -> Result<ConsistencyOutcome, SpecError> {
        sigma.validate(dtd)?;
        if sigma.is_empty() || sigma.in_class(ConstraintClass::KeysOnly) {
            return Ok(self.check_keys_only(dtd, sigma));
        }
        if sigma.in_class(ConstraintClass::UnaryKeyNegInclusionNeg) {
            return self.check_unary(dtd, sigma);
        }
        Ok(self.check_general(dtd, sigma))
    }

    /// Theorem 3.5(2): a set of keys (of any arity) is consistent over `D`
    /// iff `D` itself admits a valid tree.  Linear time.
    pub fn check_keys_only(&self, dtd: &Dtd, sigma: &ConstraintSet) -> ConsistencyOutcome {
        debug_assert!(sigma.iter().all(|c| matches!(c, Constraint::Key(_))));
        if !self.check_dtd_satisfiable(dtd) {
            return ConsistencyOutcome::Inconsistent {
                explanation: "the DTD admits no finite XML tree (its grammar generates no \
                              terminal tree), so no specification over it is consistent"
                    .to_string(),
            };
        }
        // A valid tree can always be re-valued so that every key holds
        // (make all attribute values pairwise distinct).  The witness comes
        // from the unary machinery, with each key τ[l₁, …, lₙ] → τ weakened
        // to τ.l₁ → τ: values of l₁ distinct per node already separate
        // every two τ nodes, so the original key holds as well.
        let witness = if self.config.synthesize_witness {
            let keyed: ConstraintSet = sigma
                .iter()
                .filter_map(|c| match c {
                    Constraint::Key(k) => Some(Constraint::unary_key(k.ty, k.attrs[0])),
                    _ => None,
                })
                .collect();
            CardinalitySystem::build(dtd, &keyed, &self.config.system)
                .ok()
                .and_then(|sys| {
                    match solve_and_witness(
                        dtd,
                        &keyed,
                        &sys,
                        &IlpSolver::with_config(self.config.solver.clone()),
                        self.config.max_repair_rounds,
                    ) {
                        WitnessOutcome::Tree(t) => Some(t),
                        _ => None,
                    }
                })
        } else {
            None
        };
        ConsistencyOutcome::Consistent {
            witness,
            explanation: "the DTD admits a valid tree, and any valid tree can be re-valued so \
                          that all keys hold (Theorem 3.5(2))"
                .to_string(),
        }
    }

    /// Theorem 4.1 / Corollary 4.9 / Theorem 5.1: consistency for unary keys,
    /// foreign keys, inclusion constraints and their negations, by reduction
    /// to integer linear programming.
    pub fn check_unary(
        &self,
        dtd: &Dtd,
        sigma: &ConstraintSet,
    ) -> Result<ConsistencyOutcome, SpecError> {
        let system = {
            let _span = xic_telemetry::global().span("core.system");
            CardinalitySystem::build(dtd, sigma, &self.config.system)?
        };
        Ok(self.check_unary_with_system(dtd, sigma, &system))
    }

    /// Same as [`Self::check_unary`], but over a cardinality system the
    /// caller built (and may reuse across many checks of the same
    /// specification — see the `xic-engine` crate).  `system` must have been
    /// built from exactly this `(dtd, sigma)` pair.
    pub fn check_unary_with_system(
        &self,
        dtd: &Dtd,
        sigma: &ConstraintSet,
        system: &CardinalitySystem,
    ) -> ConsistencyOutcome {
        let solver = IlpSolver::with_config(self.config.solver.clone());
        if !self.config.synthesize_witness {
            // Even without a witness, raw feasibility of Ψ(D,Σ) is not enough:
            // recursive DTDs admit "floating cycle" solutions that no tree
            // realizes, so we insist on a realizable count vector (adding
            // connectivity cuts as needed) before answering Consistent.
            let (outcome, stats) =
                crate::witness::solve_counts(system, &solver, self.config.max_repair_rounds);
            return match outcome {
                crate::witness::CountsOutcome::Realizable(_) => ConsistencyOutcome::Consistent {
                    witness: None,
                    explanation: explain_stats(
                        "the cardinality system Ψ(D,Σ) has a tree-realizable solution",
                        &stats,
                    ),
                },
                crate::witness::CountsOutcome::Infeasible => ConsistencyOutcome::Inconsistent {
                    explanation: explain_stats(
                        "the cardinality system Ψ(D,Σ) has no non-negative integer solution",
                        &stats,
                    ),
                },
                crate::witness::CountsOutcome::Unknown(reason) => ConsistencyOutcome::Unknown {
                    explanation: reason,
                },
            };
        }
        match solve_and_witness(dtd, sigma, system, &solver, self.config.max_repair_rounds) {
            WitnessOutcome::Tree(tree) => ConsistencyOutcome::Consistent {
                witness: Some(tree),
                explanation: "the cardinality system Ψ(D,Σ) is satisfiable and a witness \
                              document was synthesized from its solution"
                    .to_string(),
            },
            WitnessOutcome::Infeasible => ConsistencyOutcome::Inconsistent {
                explanation: "the cardinality system Ψ(D,Σ) has no non-negative integer \
                              solution: the DTD's counting requirements contradict the \
                              constraints"
                    .to_string(),
            },
            WitnessOutcome::Unknown(reason) => ConsistencyOutcome::Unknown {
                explanation: reason,
            },
        }
    }

    /// The general class `C_{K,FK}` (multi-attribute keys and foreign keys):
    /// consistency is undecidable (Theorem 3.1), so this is a *sound but
    /// incomplete* procedure: it can answer `Consistent` (with a concrete
    /// witness found by bounded search) or `Inconsistent` in special cases
    /// that reduce to the decidable fragments, and otherwise answers
    /// `Unknown`.
    pub fn check_general(&self, dtd: &Dtd, sigma: &ConstraintSet) -> ConsistencyOutcome {
        // Special case: the DTD alone is unsatisfiable.
        if !self.check_dtd_satisfiable(dtd) {
            return ConsistencyOutcome::Inconsistent {
                explanation: "the DTD admits no finite XML tree".to_string(),
            };
        }
        // Necessary condition: the unary projection of Σ (each multi-attribute
        // key/foreign key weakened to one of its attributes) must be
        // consistent; if even the weakening is inconsistent, so is Σ.
        let weakened: ConstraintSet = sigma
            .iter()
            .filter_map(|c| match c {
                Constraint::Key(k) => Some(Constraint::unary_key(k.ty, k.attrs[0])),
                Constraint::ForeignKey(i) => Some(Constraint::unary_foreign_key(
                    i.from_ty,
                    i.from_attrs[0],
                    i.to_ty,
                    i.to_attrs[0],
                )),
                _ => None,
            })
            .collect();
        let weakening_applies = sigma
            .iter()
            .all(|c| matches!(c, Constraint::Key(_) | Constraint::ForeignKey(_)));
        if weakening_applies {
            if let Ok(ConsistencyOutcome::Inconsistent { explanation }) =
                self.check_unary(dtd, &weakened)
            {
                return ConsistencyOutcome::Inconsistent {
                    explanation: format!(
                        "already the single-attribute weakening of Σ is inconsistent: {explanation}"
                    ),
                };
            }
        }
        // Sound positive side: bounded search for a concrete witness.
        match bounded_search(dtd, sigma, &self.config.bounded) {
            Some(tree) => ConsistencyOutcome::Consistent {
                witness: Some(tree),
                explanation: "bounded model search found a conforming document satisfying Σ"
                    .to_string(),
            },
            None => ConsistencyOutcome::Unknown {
                explanation: format!(
                    "consistency for multi-attribute keys and foreign keys is undecidable \
                     (Theorem 3.1); bounded search with {} candidate documents found no model",
                    self.config.bounded.attempts
                ),
            },
        }
    }
}

fn explain_stats(prefix: &str, stats: &SolveStats) -> String {
    format!(
        "{prefix} ({} branch-and-bound nodes, {} LP relaxations)",
        stats.nodes, stats.lp_calls
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_constraints::{example_sigma1, example_sigma3, Constraint};
    use xic_dtd::{example_d1, example_d2, example_d3};
    use xic_xml::validate;

    #[test]
    fn paper_example_sigma1_is_inconsistent() {
        let d1 = example_d1();
        let sigma1 = example_sigma1(&d1);
        let outcome = ConsistencyChecker::new().check(&d1, &sigma1).unwrap();
        assert!(outcome.is_inconsistent(), "{}", outcome.explanation());
    }

    #[test]
    fn d2_is_inconsistent_without_constraints() {
        let d2 = example_d2();
        let outcome = ConsistencyChecker::new()
            .check(&d2, &ConstraintSet::new())
            .unwrap();
        assert!(outcome.is_inconsistent());
    }

    #[test]
    fn d1_without_the_subject_key_is_consistent_with_witness() {
        let d1 = example_d1();
        let teacher = d1.type_by_name("teacher").unwrap();
        let subject = d1.type_by_name("subject").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let taught_by = d1.attr_by_name("taught_by").unwrap();
        let sigma = ConstraintSet::from_vec(vec![
            Constraint::unary_key(teacher, name),
            Constraint::unary_foreign_key(subject, taught_by, teacher, name),
        ]);
        let outcome = ConsistencyChecker::new().check(&d1, &sigma).unwrap();
        let witness = outcome.witness().expect("witness synthesized");
        assert!(validate(witness, &d1).is_empty());
        assert!(xic_constraints::document_satisfies(&d1, witness, &sigma));
    }

    #[test]
    fn keys_only_consistency_is_dtd_satisfiability() {
        let d1 = example_d1();
        let teacher = d1.type_by_name("teacher").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let sigma = ConstraintSet::from_vec(vec![Constraint::unary_key(teacher, name)]);
        let checker = ConsistencyChecker::new();
        assert!(checker.check(&d1, &sigma).unwrap().is_consistent());

        // Over the unsatisfiable D2 even the empty constraint set is
        // inconsistent because D2 has no valid tree at all.
        let d2 = example_d2();
        assert!(checker
            .check(&d2, &ConstraintSet::new())
            .unwrap()
            .is_inconsistent());
    }

    #[test]
    fn keys_only_witness_satisfies_multi_attribute_keys() {
        // r → t, t with t[a, b] → t: the witness must give the two t
        // elements different (a, b) pairs.
        use xic_dtd::ContentModel as CM;
        let mut b = xic_dtd::Dtd::builder();
        let r = b.elem("r");
        let t = b.elem("t");
        b.content(r, CM::seq(CM::Element(t), CM::Element(t)));
        let a = b.attr(t, "a");
        let bb = b.attr(t, "b");
        let dtd = b.build("r").unwrap();
        let sigma = ConstraintSet::from_vec(vec![Constraint::key(t, vec![a, bb])]);
        let outcome = ConsistencyChecker::new().check(&dtd, &sigma).unwrap();
        let witness = outcome.witness().expect("witness synthesized");
        assert!(validate(witness, &dtd).is_empty());
        let violations = xic_constraints::check_document(&dtd, witness, &sigma);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn multiattribute_school_spec_is_found_consistent_by_search() {
        let d3 = example_d3();
        let sigma3 = example_sigma3(&d3);
        let outcome = ConsistencyChecker::new().check(&d3, &sigma3).unwrap();
        // The school spec is consistent; bounded search should find a small
        // witness (the empty school already satisfies all keys/FKs).
        assert!(outcome.is_consistent(), "{}", outcome.explanation());
        if let Some(w) = outcome.witness() {
            assert!(validate(w, &d3).is_empty());
            assert!(xic_constraints::document_satisfies(&d3, w, &sigma3));
        }
    }

    #[test]
    fn general_class_weakening_detects_inconsistency() {
        // Make D1's Σ1 multi-attribute in form (single-attribute lists are
        // still unary, so craft a genuinely multi-attribute variant): give
        // subject a second attribute and use a 2-attribute key + FK whose
        // unary weakening is exactly Σ1 — the weakening argument applies.
        let mut b = xic_dtd::Dtd::builder();
        let teachers = b.elem("teachers");
        let teacher = b.elem("teacher");
        let teach = b.elem("teach");
        let research = b.elem("research");
        let subject = b.elem("subject");
        use xic_dtd::ContentModel as CM;
        b.content(teachers, CM::plus(CM::Element(teacher)));
        b.content(teacher, CM::seq(CM::Element(teach), CM::Element(research)));
        b.content(teach, CM::seq(CM::Element(subject), CM::Element(subject)));
        b.content(research, CM::Text);
        b.content(subject, CM::Text);
        let name = b.attr(teacher, "name");
        let name2 = b.attr(teacher, "dept");
        let taught_by = b.attr(subject, "taught_by");
        let taught_dept = b.attr(subject, "taught_dept");
        let dtd = b.build("teachers").unwrap();
        let sigma = ConstraintSet::from_vec(vec![
            Constraint::key(teacher, vec![name, name2]),
            Constraint::key(subject, vec![taught_by, taught_dept]),
            Constraint::foreign_key(
                subject,
                vec![taught_by, taught_dept],
                teacher,
                vec![name, name2],
            ),
        ]);
        let outcome = ConsistencyChecker::new().check(&dtd, &sigma).unwrap();
        assert!(outcome.is_inconsistent(), "{}", outcome.explanation());
    }

    #[test]
    fn floating_cycle_solutions_are_not_mistaken_for_consistency() {
        // r → (a | ε); a → b; b → a.  The a/b cycle has no escape, so no
        // finite tree contains an `a` element at all — yet the raw cardinality
        // system Ψ(D,Σ) has a solution that pumps the disconnected cycle.
        // Demanding ¬(a.k → a) forces ext(a) ≥ 2, which only the spurious
        // solution provides, so the checker must answer Inconsistent (in both
        // the witness-synthesizing and the counts-only configurations).
        use xic_dtd::ContentModel as CM;
        let mut b = xic_dtd::Dtd::builder();
        let r = b.elem("r");
        let a = b.elem("a");
        let bb = b.elem("b");
        b.content(r, CM::alt(CM::Element(a), CM::Epsilon));
        b.content(a, CM::Element(bb));
        b.content(bb, CM::Element(a));
        let k = b.attr(a, "k");
        let dtd = b.build("r").unwrap();
        let sigma = ConstraintSet::from_vec(vec![Constraint::not_unary_key(a, k)]);
        for synthesize_witness in [false, true] {
            let checker = ConsistencyChecker::with_config(CheckerConfig {
                synthesize_witness,
                ..Default::default()
            });
            let outcome = checker.check(&dtd, &sigma).unwrap();
            assert!(
                outcome.is_inconsistent(),
                "synthesize_witness={synthesize_witness}: {}",
                outcome.explanation()
            );
        }
    }

    #[test]
    fn recursive_cycle_with_escape_stays_consistent() {
        // r → (a | ε); a → (b | ε); b → a.  Now a chain r–a–b–a exists, so a
        // negated key on `a` is satisfiable by a genuine tree.
        use xic_dtd::ContentModel as CM;
        let mut b = xic_dtd::Dtd::builder();
        let r = b.elem("r");
        let a = b.elem("a");
        let bb = b.elem("b");
        b.content(r, CM::alt(CM::Element(a), CM::Epsilon));
        b.content(a, CM::alt(CM::Element(bb), CM::Epsilon));
        b.content(bb, CM::Element(a));
        let k = b.attr(a, "k");
        let dtd = b.build("r").unwrap();
        let sigma = ConstraintSet::from_vec(vec![Constraint::not_unary_key(a, k)]);
        for synthesize_witness in [false, true] {
            let checker = ConsistencyChecker::with_config(CheckerConfig {
                synthesize_witness,
                ..Default::default()
            });
            let outcome = checker.check(&dtd, &sigma).unwrap();
            assert!(
                outcome.is_consistent(),
                "synthesize_witness={synthesize_witness}: {}",
                outcome.explanation()
            );
            if let Some(w) = outcome.witness() {
                assert!(validate(w, &dtd).is_empty());
                assert!(xic_constraints::document_satisfies(&dtd, w, &sigma));
            }
        }
    }

    #[test]
    fn negated_specs_dispatch_to_unary_checker() {
        let d1 = example_d1();
        let teacher = d1.type_by_name("teacher").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        // name is a key AND not a key: inconsistent.
        let sigma = ConstraintSet::from_vec(vec![
            Constraint::unary_key(teacher, name),
            Constraint::not_unary_key(teacher, name),
        ]);
        let outcome = ConsistencyChecker::new().check(&d1, &sigma).unwrap();
        assert!(outcome.is_inconsistent());
    }
}
