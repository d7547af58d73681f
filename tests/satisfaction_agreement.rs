//! Differential testing of the one-shot `T ⊨ Σ` entry points against the
//! retained string-valued reference checker.
//!
//! Every satisfaction check in the workspace — one-shot, batch and session
//! alike — runs on `IncrementalIndex` (interned `ValueId` tuples, ordered
//! carrier sets).  The one-shot entry points (`check_document`,
//! `document_satisfies` and `CompiledSpec::check_document`) must be
//! observationally identical to the seed algorithm kept alive in
//! `SatisfactionChecker`: same violations, same witnesses, same order, same
//! rendered values — on every generated workload, not just the paper's
//! examples.  Generated Σs include 2-attribute keys, foreign keys,
//! inclusions and their negations, whose tuples take the index's boxed
//! multi-value key path rather than the inline unary one.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xml_integrity_constraints::constraints::{
    check_document, document_satisfies, ConstraintSet, IncrementalIndex, SatisfactionChecker,
};
use xml_integrity_constraints::engine::CompiledSpec;
use xml_integrity_constraints::gen::{
    random_binary_constraints, random_document, random_dtd, random_unary_constraints,
    ConstraintGenConfig, DocGenConfig, DtdGenConfig,
};
use xml_integrity_constraints::xml::{EditOp, NodeId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random DTDs, random unary constraint sets (including negations)
    /// and random conforming documents, the index-backed one-shot checks
    /// and the reference checker produce identical violation lists.
    #[test]
    fn one_shot_checks_agree_with_the_reference_checker(
        seed in 0u64..500,
        types in 2usize..8,
        keys in 0usize..4,
        fks in 0usize..4,
        inclusions in 0usize..3,
        neg_keys in 0usize..2,
        neg_inclusions in 0usize..2,
        value_pool in 1usize..6,
    ) {
        let dtd = random_dtd(&DtdGenConfig { seed, num_types: types, ..Default::default() });
        let sigma = random_unary_constraints(
            &dtd,
            &ConstraintGenConfig {
                keys,
                foreign_keys: fks,
                inclusions,
                negated_keys: neg_keys,
                negated_inclusions: neg_inclusions,
                seed,
                ..Default::default()
            },
        );
        // Small value pools force key clashes and dangling references, so
        // both violation and satisfaction branches are exercised.
        let Some(tree) = random_document(
            &dtd,
            &DocGenConfig { seed, value_pool, ..Default::default() },
        ) else {
            return Ok(()); // unsatisfiable DTD: nothing to compare
        };

        let reference = SatisfactionChecker::new(&dtd, &tree).check_all(&sigma);
        let fast = check_document(&dtd, &tree, &sigma);
        prop_assert_eq!(&fast, &reference);

        // The boolean view agrees with the violation list.
        prop_assert_eq!(document_satisfies(&dtd, &tree, &sigma), fast.is_empty());

        // Each constraint on its own: a one-constraint index reports exactly
        // what the reference checker reports for that constraint.
        for c in sigma.iter() {
            let single = ConstraintSet::from_vec(vec![c.clone()]);
            prop_assert_eq!(
                IncrementalIndex::build(&dtd, &single, &tree).check_all(&tree).pop(),
                SatisfactionChecker::new(&dtd, &tree).check(c)
            );
        }

        // The compiled-spec path shares the spec-level layout; Ψ(D,Σ)
        // construction can reject exotic generated specs, which leaves
        // nothing to compile.
        if let Ok(spec) = CompiledSpec::compile(dtd.clone(), sigma.clone()) {
            prop_assert_eq!(&spec.check_document(&tree), &reference);
        }
    }

    /// The same agreement for Σs mixing 2-attribute constraints of every
    /// kind with unary ones, on the cold build and then after each of a
    /// sequence of attribute rewrites inside the multi-attribute tuples
    /// (the index maintained under edits, the reference rebuilt).
    #[test]
    fn multi_attribute_checks_agree_with_the_reference_checker(
        seed in 0u64..500,
        types in 2usize..7,
        keys in 0usize..3,
        fks in 0usize..3,
        inclusions in 0usize..3,
        neg_keys in 0usize..2,
        neg_inclusions in 0usize..2,
        unary in 0usize..3,
        value_pool in 1usize..4,
        edits in 0usize..12,
    ) {
        let dtd = random_dtd(&DtdGenConfig { seed, num_types: types, ..Default::default() });
        let mut sigma = random_binary_constraints(
            &dtd,
            &ConstraintGenConfig {
                keys,
                foreign_keys: fks,
                inclusions,
                negated_keys: neg_keys,
                negated_inclusions: neg_inclusions,
                seed,
                ..Default::default()
            },
        );
        for c in random_unary_constraints(
            &dtd,
            &ConstraintGenConfig { keys: unary, foreign_keys: unary, seed, ..Default::default() },
        )
        .iter()
        {
            sigma.push(c.clone());
        }
        let Some(mut tree) = random_document(
            &dtd,
            &DocGenConfig { seed, value_pool, ..Default::default() },
        ) else {
            return Ok(());
        };

        let reference = SatisfactionChecker::new(&dtd, &tree).check_all(&sigma);
        prop_assert_eq!(&check_document(&dtd, &tree, &sigma), &reference);
        for c in sigma.iter() {
            let single = ConstraintSet::from_vec(vec![c.clone()]);
            prop_assert_eq!(
                IncrementalIndex::build(&dtd, &single, &tree).check_all(&tree).pop(),
                SatisfactionChecker::new(&dtd, &tree).check(c)
            );
        }
        if let Ok(spec) = CompiledSpec::compile(dtd.clone(), sigma.clone()) {
            prop_assert_eq!(&spec.check_document(&tree), &reference);
        }

        // Rewrites of one attribute of a constrained multi-attribute tuple:
        // the old tuple is rebuilt from the displaced value, the new one
        // read back, and both may collide with other elements' tuples.
        let targets: Vec<_> = sigma
            .iter()
            .filter_map(|c| c.key_part().map(|k| (k.ty, k.attrs)))
            .chain(sigma.iter().filter_map(|c| {
                c.inclusion_part().map(|i| (i.from_ty, i.from_attrs))
            }))
            .collect();
        let mut index = IncrementalIndex::build(&dtd, &sigma, &tree);
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..edits {
            if targets.is_empty() {
                break;
            }
            let (ty, attrs) = &targets[rng.gen_range(0..targets.len())];
            let carriers: Vec<NodeId> = tree.ext(*ty).collect();
            if carriers.is_empty() {
                continue;
            }
            let op = EditOp::SetAttr {
                element: carriers[rng.gen_range(0..carriers.len())],
                attr: attrs[rng.gen_range(0..attrs.len())],
                value: format!("val{}", rng.gen_range(0..value_pool)),
            };
            let effect = tree.apply_edit(&op).expect("live element, declared attribute");
            index.apply(&tree, &effect);
            prop_assert_eq!(
                index.check_all(&tree),
                SatisfactionChecker::new(&dtd, &tree).check_all(&sigma),
                "step {} after {:?}",
                step,
                op
            );
        }
    }

    /// Serializing and re-parsing a document (fresh pool, different interning
    /// order) never changes any verdict: ids are per-document symbols, and
    /// only string equality is observable.
    #[test]
    fn verdicts_survive_a_write_parse_round_trip(
        seed in 0u64..200,
        types in 2usize..6,
        keys in 1usize..4,
        fks in 0usize..3,
    ) {
        let dtd = random_dtd(&DtdGenConfig { seed, num_types: types, ..Default::default() });
        let sigma = random_unary_constraints(
            &dtd,
            &ConstraintGenConfig { keys, foreign_keys: fks, seed, ..Default::default() },
        );
        let Some(tree) = random_document(
            &dtd,
            &DocGenConfig { seed, value_pool: 3, ..Default::default() },
        ) else {
            return Ok(());
        };
        let text = xml_integrity_constraints::xml::write_document(&tree, &dtd);
        let reparsed = xml_integrity_constraints::xml::parse_document(&text, &dtd).unwrap();

        let direct = check_document(&dtd, &tree, &sigma);
        let round_tripped = check_document(&dtd, &reparsed, &sigma);
        // Node ids can shift across serialization (attribute nodes are
        // created in a different order), so compare the rendered constraints
        // and values, which is what users observe.
        let view = |vs: &[xml_integrity_constraints::constraints::Violation]| {
            vs.iter()
                .map(|v| v.constraint().to_string())
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(view(&direct), view(&round_tripped));
    }
}
