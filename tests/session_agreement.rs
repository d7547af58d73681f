//! Differential testing of a session's incremental re-validation of one
//! document against the independent reference checker.
//!
//! The contract of `xic_engine::CorpusSession` is *witness identity*: after
//! every prefix of an arbitrary edit sequence, the committed Σ verdict must
//! equal
//! what a from-scratch `SatisfactionChecker` pass over the edited tree
//! reports (a checker that shares no code with the index) — the same
//! violations in the same order with the same witness nodes and values (so
//! clash witnesses too, not just the boolean).  The edits themselves are
//! generated adaptively against the evolving document: attribute rewrites
//! (including no-op rewrites), element and text insertions under random live
//! parents, and subtree removals.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xml_integrity_constraints::constraints::{SatisfactionChecker, Violation};
use xml_integrity_constraints::engine::{CompiledSpec, CorpusSession};
use xml_integrity_constraints::gen::{
    fixed_dtd_growing_sigma, keys_only_family, primary_key_family, random_document, random_dtd,
    random_unary_constraints, ConstraintGenConfig, DocGenConfig, DtdGenConfig,
};
use xml_integrity_constraints::xml::{EditOp, NodeId, XmlTree};

/// The from-scratch oracle: the reference checker over the current tree.
fn rebuild(spec: &CompiledSpec, tree: &XmlTree) -> Vec<Violation> {
    SatisfactionChecker::new(spec.dtd(), tree).check_all(spec.sigma())
}

/// Commits a one-document session and returns the document's Σ
/// violations, with how many constraints the commit recomputed (the rest
/// were served from the per-constraint cache).
fn commit_verdict(session: &mut CorpusSession<'_>) -> (Vec<Violation>, u64) {
    let rechecked = |session: &CorpusSession<'_>| {
        session
            .registry()
            .snapshot()
            .counter("shard.rechecked")
            .unwrap_or(0)
    };
    let before = rechecked(session);
    session.commit();
    let violations = session.report().reports()[0].violations.clone();
    (violations, rechecked(session) - before)
}

/// Picks the next edit against the current document state: every op is
/// valid by construction (live nodes, non-root removals).
fn random_op(
    rng: &mut StdRng,
    dtd: &xml_integrity_constraints::dtd::Dtd,
    tree: &XmlTree,
) -> EditOp {
    let elements: Vec<NodeId> = tree.elements().collect();
    let pick = |rng: &mut StdRng, nodes: &[NodeId]| nodes[rng.gen_range(0..nodes.len())];
    // Attribute edits dominate (they are the constraint-relevant edits);
    // small value pools force clashes and dangling references both to appear
    // and to disappear again.
    for _ in 0..8 {
        match rng.gen_range(0u32..10) {
            0..=4 => {
                let candidates: Vec<NodeId> = elements
                    .iter()
                    .copied()
                    .filter(|&n| {
                        tree.element_type(n)
                            .is_some_and(|ty| !dtd.attrs_of(ty).is_empty())
                    })
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let element = pick(rng, &candidates);
                let ty = tree.element_type(element).unwrap();
                let attrs = dtd.attrs_of(ty);
                let attr = attrs[rng.gen_range(0..attrs.len())];
                return EditOp::SetAttr {
                    element,
                    attr,
                    value: format!("val{}", rng.gen_range(0..4u32)),
                };
            }
            5..=6 => {
                let types: Vec<_> = dtd.types().collect();
                return EditOp::AddElement {
                    parent: pick(rng, &elements),
                    ty: types[rng.gen_range(0..types.len())],
                };
            }
            7 => {
                return EditOp::AddText {
                    parent: pick(rng, &elements),
                    value: format!("text{}", rng.gen_range(0..100u32)),
                };
            }
            _ => {
                let removable: Vec<NodeId> = elements
                    .iter()
                    .copied()
                    .filter(|&n| n != tree.root())
                    .collect();
                if removable.is_empty() {
                    continue;
                }
                return EditOp::RemoveSubtree {
                    element: pick(rng, &removable),
                };
            }
        }
    }
    // Degenerate document (a bare root with no attributes): grow it.
    let types: Vec<_> = dtd.types().collect();
    EditOp::AddElement {
        parent: tree.root(),
        ty: types[0],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every prefix of a random edit sequence, the session verdict is
    /// witness-identical to a from-scratch reference check.
    #[test]
    fn session_agrees_with_rebuild_after_every_edit(
        seed in 0u64..400,
        types in 2usize..7,
        keys in 0usize..4,
        fks in 0usize..4,
        inclusions in 0usize..3,
        neg_keys in 0usize..2,
        neg_inclusions in 0usize..2,
        edits in 1usize..40,
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
        let Some(tree) = random_document(
            &dtd,
            &DocGenConfig { seed, value_pool: 3, ..Default::default() },
        ) else {
            return Ok(()); // unsatisfiable DTD: nothing to edit
        };
        let spec = match CompiledSpec::compile(dtd, sigma) {
            Ok(spec) => spec,
            // Ψ(D,Σ) construction can reject exotic generated specs; the
            // session needs only (D, Σ), so skip those instances.
            Err(_) => return Ok(()),
        };
        // A private registry, so the recheck and edit counters see only
        // this case.
        let mut session = CorpusSession::with_registry(&spec, Default::default());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        let doc = session.open("doc", tree).unwrap();

        // The opening verdict must already agree.
        let (violations, _) = commit_verdict(&mut session);
        let rebuilt = rebuild(&spec, session.tree(doc).unwrap());
        prop_assert_eq!(violations, rebuilt);

        for step in 0..edits {
            let op = random_op(&mut rng, spec.dtd(), session.tree(doc).unwrap());
            session.apply(doc, std::slice::from_ref(&op)).unwrap();
            let (violations, rechecked) = commit_verdict(&mut session);
            let rebuilt = rebuild(&spec, session.tree(doc).unwrap());
            prop_assert_eq!(
                violations,
                rebuilt,
                "diverged at step {} after {:?}",
                step,
                op
            );
            // The incremental path only recomputes touched constraints.
            prop_assert!(rechecked <= spec.sigma().len() as u64);
        }

        // Every edit was applied, and closing returns the edited tree with
        // verdicts still reproducible from scratch.
        let applied = session.registry().snapshot().counter("corpus.edits");
        prop_assert_eq!(applied, Some(edits as u64));
        let tree = session.close(doc).unwrap();
        let rebuilt = rebuild(&spec, &tree);
        let mut reopened = CorpusSession::new(&spec);
        reopened.open("doc", tree).unwrap();
        let (violations, _) = commit_verdict(&mut reopened);
        prop_assert_eq!(violations, rebuilt);
    }
}

/// The named `xic-gen` workload families drive the single-document
/// differential too, so the agreement suite covers generated DTD/Σ shapes
/// (primary-key-restricted, keys-only, fixed DTD under growing Σ) beyond
/// the uniform random sampler above.
#[test]
fn workload_families_agree_with_rebuild_after_every_edit() {
    let instances = primary_key_family(&[4, 6], 21)
        .into_iter()
        .chain(keys_only_family(&[4, 6], 22))
        .chain(fixed_dtd_growing_sigma(5, &[4, 8], 23));
    let mut driven = 0usize;
    for instance in instances {
        let label = instance.label.clone();
        let spec = match CompiledSpec::compile(instance.dtd, instance.sigma) {
            Ok(spec) => spec,
            Err(_) => continue, // Ψ(D,Σ) rejected the instance
        };
        let Some(tree) = random_document(
            spec.dtd(),
            &DocGenConfig {
                seed: 29,
                value_pool: 3,
                ..Default::default()
            },
        ) else {
            continue;
        };
        let mut session = CorpusSession::new(&spec);
        let doc = session.open(label.as_str(), tree).unwrap();
        let mut rng = StdRng::seed_from_u64(0xfeed ^ driven as u64);
        for step in 0..24 {
            let op = random_op(&mut rng, spec.dtd(), session.tree(doc).unwrap());
            session.apply(doc, std::slice::from_ref(&op)).unwrap();
            let (violations, _) = commit_verdict(&mut session);
            let rebuilt = rebuild(&spec, session.tree(doc).unwrap());
            assert_eq!(
                violations, rebuilt,
                "{label}: diverged at step {step} after {op:?}"
            );
        }
        driven += 1;
    }
    assert!(
        driven >= 4,
        "the workload families must actually exercise the differential (drove {driven})"
    );
}
