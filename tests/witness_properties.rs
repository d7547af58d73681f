//! Property-based integration tests: the central soundness property of the
//! reproduction is that whenever the checker says "consistent" and produces
//! a witness, that witness really conforms to the DTD and satisfies Σ.

use proptest::prelude::*;
use xml_integrity_constraints::constraints::document_satisfies;
use xml_integrity_constraints::core::{CheckerConfig, ConsistencyChecker};
use xml_integrity_constraints::dtd::SimpleDtd;
use xml_integrity_constraints::gen::{
    random_binary_constraints, random_document, random_dtd, random_unary_constraints,
    ConstraintGenConfig, DocGenConfig, DtdGenConfig,
};
use xml_integrity_constraints::xml::validate;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random documents generated for a random DTD always validate.
    #[test]
    fn generated_documents_validate(seed in 0u64..500, types in 3usize..10) {
        let dtd = random_dtd(&DtdGenConfig { seed, num_types: types, ..Default::default() });
        let doc = random_document(&dtd, &DocGenConfig { seed, ..Default::default() })
            .expect("layered DTDs are satisfiable");
        prop_assert!(validate(&doc, &dtd).is_empty());
    }

    /// Simplification preserves per-type cardinalities of original types
    /// (Lemma 4.3), checked on random generated documents: counting nodes of
    /// original types in a valid document never involves synthetic types.
    #[test]
    fn simplification_keeps_original_types(seed in 0u64..500, types in 3usize..10) {
        let dtd = random_dtd(&DtdGenConfig { seed, num_types: types, ..Default::default() });
        let simple = SimpleDtd::from_dtd(&dtd);
        prop_assert!(simple.num_types() >= dtd.num_types());
        for ty in dtd.types() {
            prop_assert_eq!(simple.original(simple.simple_of(ty)), Some(ty));
        }
        // Satisfiability agrees between the two representations.
        prop_assert_eq!(simple.satisfiable(),
            xml_integrity_constraints::dtd::dtd_satisfiable(&dtd));
    }

    /// Whenever the unary checker reports Consistent, its witness satisfies
    /// both the DTD and Σ; and it never reports Unknown on these instances.
    #[test]
    fn consistent_verdicts_come_with_valid_witnesses(
        seed in 0u64..300,
        types in 3usize..8,
        keys in 0usize..4,
        fks in 0usize..4,
    ) {
        let dtd = random_dtd(&DtdGenConfig { seed, num_types: types, ..Default::default() });
        let sigma = random_unary_constraints(
            &dtd,
            &ConstraintGenConfig { keys, foreign_keys: fks, seed, ..Default::default() },
        );
        let checker = ConsistencyChecker::with_config(CheckerConfig::default());
        let outcome = checker.check(&dtd, &sigma).unwrap();
        prop_assert!(!outcome.is_unknown(), "unary instances must be decided: {}", outcome.explanation());
        if let Some(witness) = outcome.witness() {
            prop_assert!(validate(witness, &dtd).is_empty());
            prop_assert!(document_satisfies(&dtd, witness, &sigma));
        }
    }

    /// Keys-only Σs with multi-attribute keys are consistent exactly when
    /// the DTD is satisfiable (Theorem 3.5(2)), and their witnesses satisfy
    /// every key, not just its first attribute.
    #[test]
    fn multi_attribute_keys_only_witnesses_satisfy_sigma(
        seed in 0u64..300,
        types in 3usize..8,
        keys in 1usize..5,
        unary_keys in 0usize..3,
    ) {
        let dtd = random_dtd(&DtdGenConfig { seed, num_types: types, ..Default::default() });
        let mut sigma = random_binary_constraints(
            &dtd,
            &ConstraintGenConfig { keys, foreign_keys: 0, seed, ..Default::default() },
        );
        let unary = random_unary_constraints(
            &dtd,
            &ConstraintGenConfig { keys: unary_keys, foreign_keys: 0, seed, ..Default::default() },
        );
        for c in unary.iter() {
            sigma.push(c.clone());
        }
        let outcome = ConsistencyChecker::new().check(&dtd, &sigma).unwrap();
        prop_assert!(outcome.is_consistent(), "{}", outcome.explanation());
        let witness = outcome.witness().expect("keys-only verdicts carry a witness");
        prop_assert!(validate(witness, &dtd).is_empty());
        prop_assert!(document_satisfies(&dtd, witness, &sigma));
    }

    /// With negations in the mix the checker still decides, and witnesses are
    /// still genuine.
    #[test]
    fn negated_constraints_are_also_decided(
        seed in 0u64..200,
        types in 3usize..7,
        neg_keys in 0usize..3,
        neg_incs in 0usize..3,
    ) {
        let dtd = random_dtd(&DtdGenConfig { seed, num_types: types, ..Default::default() });
        let sigma = random_unary_constraints(
            &dtd,
            &ConstraintGenConfig {
                keys: 1,
                foreign_keys: 1,
                negated_keys: neg_keys,
                negated_inclusions: neg_incs,
                seed,
                ..Default::default()
            },
        );
        let checker = ConsistencyChecker::new();
        let outcome = checker.check(&dtd, &sigma).unwrap();
        prop_assert!(!outcome.is_unknown(), "{}", outcome.explanation());
        if let Some(witness) = outcome.witness() {
            prop_assert!(validate(witness, &dtd).is_empty());
            prop_assert!(document_satisfies(&dtd, witness, &sigma));
        }
    }
}
