//! Differential testing of `CorpusSession` against cold `BatchEngine`
//! rebuilds.
//!
//! Two oracles hold after **every** commit of a random interleaved edit
//! sequence across 2–5 documents:
//!
//! 1. **Witness identity with a cold rebuild on the resident trees** —
//!    `CorpusSession::report()` must equal
//!    `BatchEngine::validate_trees(spec, current trees)`: same reports,
//!    same violations, same clash-witness node ids, same order.  This is
//!    the corpus generalization of `tests/session_agreement.rs`.
//! 2. **Semantic identity with a cold `validate_batch` over serialized
//!    sources** — writing every current tree out and re-validating the
//!    sources from scratch must agree on every document's verdict and on
//!    the Σ-ordered list of violated constraints.  Witness node ids (and
//!    witness-dependent detail) are *expected* to differ here: re-parsing
//!    renumbers an edited arena, and "the first witness" follows that
//!    order — which is exactly why the projection, and not the witness, is
//!    compared.
//!
//! On top of the verdicts, the **`BatchDelta` stream** is checked against
//! an independently maintained model: a delta must list exactly the
//! documents whose clean state flipped (or that entered the corpus), the
//! labels closed since the last commit, and a `rechecked_docs` equal to the
//! number of documents touched since the last commit.
//!
//! The generated specs come both from `random_dtd`/`random_unary_constraints`
//! (the proptest half) and from the named `xic-gen` workload families
//! (`primary_key_family`, `keys_only_family`, `fixed_dtd_growing_sigma`,
//! and catalogues whose root holds hundreds of records), so the suite is
//! not limited to hand-written fixtures.  A second proptest and a catalogue
//! family draw 2-attribute keys, foreign keys and inclusions
//! (`random_binary_constraints`), so attribute edits land inside
//! multi-attribute tuples as well as unary ones.  The edits include attributes
//! outside `R(τ)`, and removals in the middle of a wide child list, so the
//! incremental `T ⊨ D` behind each commit is held to the cold `validate`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xml_integrity_constraints::constraints::Violation;
use xml_integrity_constraints::dtd::Dtd;
use xml_integrity_constraints::engine::{
    BatchDoc, BatchEngine, BatchReport, CompiledSpec, CorpusSession, DocHandle,
};
use xml_integrity_constraints::gen::{
    catalogue_dtd, fixed_dtd_growing_sigma, keys_only_family, primary_key_family,
    random_binary_constraints, random_document, random_dtd, random_unary_constraints,
    ConstraintGenConfig, DocGenConfig, DtdGenConfig, SpecInstance,
};
use xml_integrity_constraints::xml::{write_document, EditOp, NodeId, XmlTree};

/// Picks the next edit against one document's current state: every op is
/// valid by construction (live nodes, non-root removals).
fn random_op(rng: &mut StdRng, dtd: &Dtd, tree: &XmlTree) -> EditOp {
    let elements: Vec<NodeId> = tree.elements().collect();
    let pick = |rng: &mut StdRng, nodes: &[NodeId]| nodes[rng.gen_range(0..nodes.len())];
    for _ in 0..8 {
        match rng.gen_range(0u32..11) {
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
            10 => {
                // Any attribute on any element: outside `R(τ)` it is an
                // `UnexpectedAttribute` error, inside a plain set.
                let attrs: Vec<_> = dtd.attrs().collect();
                if attrs.is_empty() {
                    continue;
                }
                return EditOp::SetAttr {
                    element: pick(rng, &elements),
                    attr: attrs[rng.gen_range(0..attrs.len())],
                    value: format!("val{}", rng.gen_range(0..4u32)),
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
    let types: Vec<_> = dtd.types().collect();
    EditOp::AddElement {
        parent: tree.root(),
        ty: types[0],
    }
}

/// The scan-order-free projection of a violation: the constraint it
/// violates.  Serializing and reparsing renumbers the arena, and the
/// checkers scan in ascending node-id order, so the *witness* (and with it
/// the reported tuple, and for inclusions even the missing-attribute /
/// dangling-tuple classification) may legitimately change across the
/// boundary — but *which constraints are violated* is order-independent,
/// and both paths report violations in Σ order.
fn projection(v: &Violation) -> &str {
    match v {
        Violation::KeyViolation { constraint, .. }
        | Violation::InclusionViolation { constraint, .. }
        | Violation::MissingAttributes { constraint, .. }
        | Violation::NegationUnsatisfied { constraint } => constraint,
    }
}

/// Cold oracle #1: a rebuild on the resident trees (witness-exact).
fn cold_tree_report(
    spec: &CompiledSpec,
    corpus: &CorpusSession,
    handles: &[DocHandle],
) -> BatchReport {
    let labeled: Vec<(String, &XmlTree)> = handles
        .iter()
        .map(|&h| {
            (
                corpus.label(h).unwrap().to_string(),
                corpus.tree(h).unwrap(),
            )
        })
        .collect();
    let borrowed: Vec<(&str, &XmlTree)> = labeled
        .iter()
        .map(|(label, tree)| (label.as_str(), *tree))
        .collect();
    BatchEngine::new(1).validate_trees(spec, &borrowed)
}

/// Cold oracle #2: serialize every tree and `validate_batch` the sources;
/// compare verdicts and violation projections (not node ids).
fn assert_serialized_rebuild_agrees(
    spec: &CompiledSpec,
    corpus: &CorpusSession,
    handles: &[DocHandle],
    resident: &BatchReport,
) {
    let docs: Vec<BatchDoc> = handles
        .iter()
        .map(|&h| {
            BatchDoc::new(
                corpus.label(h).unwrap(),
                write_document(corpus.tree(h).unwrap(), spec.dtd()),
            )
        })
        .collect();
    let cold = BatchEngine::new(1).validate_batch(spec, &docs);
    assert_eq!(cold.total(), resident.total());
    for (from_source, from_tree) in cold.reports().iter().zip(resident.reports()) {
        assert_eq!(from_source.label, from_tree.label);
        assert_eq!(from_source.parse_error, None, "writer output must reparse");
        assert_eq!(
            from_source.is_clean(),
            from_tree.is_clean(),
            "{}: serialized rebuild disagrees on the verdict",
            from_source.label
        );
        let a: Vec<_> = from_source.violations.iter().map(projection).collect();
        let b: Vec<_> = from_tree.violations.iter().map(projection).collect();
        assert_eq!(
            a, b,
            "{}: violation projections diverged",
            from_source.label
        );
    }
}

/// Drives `edits` interleaved random edits over an open corpus, committing
/// after every one and checking verdicts + delta contents against the cold
/// oracles and a report-replica model (the model a subscriber applying the
/// delta stream would maintain).  Returns how many commits changed some
/// document's report (so callers can assert the workload was non-trivial).
fn drive_and_check(
    spec: &CompiledSpec,
    corpus: &mut CorpusSession,
    handles: &[DocHandle],
    rng: &mut StdRng,
    edits: usize,
) -> usize {
    // Initial commit admits every opened document into the delta stream.
    let delta = corpus.commit();
    assert_eq!(delta.rechecked_docs, handles.len());
    assert_eq!(delta.changes.len(), handles.len());
    assert!(delta.changes.iter().all(|c| c.was_clean.is_none()));

    let mut resident = cold_tree_report(spec, corpus, handles);
    assert_eq!(&corpus.report(), &resident);
    // The subscriber's replica: last delivered report per document.
    let mut replica: Vec<_> = resident.reports().to_vec();
    let mut changed_commits = 0;

    for step in 0..edits {
        let victim = rng.gen_range(0..handles.len());
        let handle = handles[victim];
        let op = random_op(rng, spec.dtd(), corpus.tree(handle).unwrap());
        corpus.apply(handle, std::slice::from_ref(&op)).unwrap();
        let delta = corpus.commit();

        // Oracle #1: witness-exact equality with a resident-tree rebuild.
        resident = cold_tree_report(spec, corpus, handles);
        assert_eq!(
            &corpus.report(),
            &resident,
            "diverged at step {step} after {op:?}"
        );

        // The delta model: exactly one doc was rechecked; it appears in
        // `changes` iff its report differs from the last delivered one
        // (clean-state flips AND violating→violating content changes), so
        // applying the stream keeps the replica identical to report().
        assert_eq!(delta.rechecked_docs, 1, "step {step}");
        assert!(delta.closed.is_empty());
        let fresh = &resident.reports()[victim];
        if fresh == &replica[victim] {
            assert!(
                delta.is_empty(),
                "step {step}: report unchanged, delta must be empty"
            );
        } else {
            assert_eq!(delta.changes.len(), 1, "step {step}");
            let change = &delta.changes[0];
            assert_eq!(change.handle, handle);
            assert_eq!(change.was_clean, Some(replica[victim].is_clean()));
            assert_eq!(change.now_clean(), fresh.is_clean());
            assert_eq!(&change.report, fresh);
            replica[victim] = change.report.clone();
            changed_commits += 1;
        }
        // The replica reconstructed from deltas alone matches the truth.
        assert_eq!(replica.as_slice(), resident.reports(), "step {step}");
        assert_eq!(delta.total, handles.len());
        assert_eq!(
            delta.clean,
            replica.iter().filter(|r| r.is_clean()).count(),
            "step {step}"
        );
    }

    // Oracle #2 once per sequence (serialization is the expensive oracle).
    assert_serialized_rebuild_agrees(spec, corpus, handles, &resident);
    changed_commits
}

/// The generator settings of the random documents: a small value pool,
/// so keys clash.
fn small_docs() -> DocGenConfig {
    DocGenConfig {
        value_pool: 3,
        ..Default::default()
    }
}

/// Opens `count` random documents against the spec, or `None` when the DTD
/// admits no document.
fn open_random_docs(
    spec: &CompiledSpec,
    corpus: &mut CorpusSession,
    docs: &DocGenConfig,
    seed: u64,
    count: usize,
) -> Option<Vec<DocHandle>> {
    let mut handles = Vec::new();
    for i in 0..count {
        let tree = random_document(
            spec.dtd(),
            &DocGenConfig {
                seed: seed.wrapping_add(i as u64),
                ..docs.clone()
            },
        )?;
        handles.push(
            corpus
                .open(format!("doc-{i}.xml"), tree)
                .expect("unlimited corpus admits every tree"),
        );
    }
    Some(handles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After every commit of a random interleaved edit sequence across 2–5
    /// documents, corpus verdicts (witnesses included) and the delta stream
    /// agree with cold rebuilds.
    #[test]
    fn corpus_agrees_with_cold_rebuild_after_every_commit(
        seed in 0u64..400,
        types in 2usize..7,
        keys in 0usize..4,
        fks in 0usize..4,
        inclusions in 0usize..3,
        num_docs in 2usize..6,
        edits in 1usize..25,
    ) {
        let dtd = random_dtd(&DtdGenConfig { seed, num_types: types, ..Default::default() });
        let sigma = random_unary_constraints(
            &dtd,
            &ConstraintGenConfig {
                keys,
                foreign_keys: fks,
                inclusions,
                seed,
                ..Default::default()
            },
        );
        let spec = match CompiledSpec::compile(dtd, sigma) {
            Ok(spec) => spec,
            // Ψ(D,Σ) construction can reject exotic generated specs; the
            // corpus needs only (D, Σ), so skip those instances.
            Err(_) => return Ok(()),
        };
        let mut corpus = CorpusSession::new(&spec);
        let Some(handles) = open_random_docs(&spec, &mut corpus, &small_docs(), seed, num_docs) else {
            return Ok(()); // unsatisfiable DTD: nothing to open
        };
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        drive_and_check(&spec, &mut corpus, &handles, &mut rng, edits);

        // Closing a document surfaces in the next delta and the next report.
        let victim = handles[0];
        let label = corpus.label(victim).unwrap().to_string();
        corpus.close(victim).unwrap();
        let delta = corpus.commit();
        prop_assert_eq!(delta.closed.len(), 1);
        prop_assert_eq!(delta.closed[0].handle, victim);
        prop_assert_eq!(&delta.closed[0].label, &label);
        prop_assert_eq!(delta.total, handles.len() - 1);
        let survivors: Vec<DocHandle> = handles[1..].to_vec();
        let resident = cold_tree_report(&spec, &corpus, &survivors);
        prop_assert_eq!(corpus.report(), resident);
    }

    /// The same differential over Σs of 2-attribute constraints of every
    /// kind (plus one unary key and foreign key), so the random attribute
    /// edits rewrite one component of a multi-attribute tuple at a time.
    #[test]
    fn corpus_agrees_on_multi_attribute_tuples(
        seed in 0u64..400,
        types in 2usize..6,
        keys in 0usize..3,
        fks in 0usize..3,
        inclusions in 0usize..2,
        negations in 0usize..2,
        num_docs in 2usize..4,
        edits in 1usize..20,
    ) {
        let dtd = random_dtd(&DtdGenConfig { seed, num_types: types, ..Default::default() });
        let mut sigma = random_binary_constraints(
            &dtd,
            &ConstraintGenConfig {
                keys,
                foreign_keys: fks,
                inclusions,
                negated_keys: negations,
                negated_inclusions: negations,
                seed,
                ..Default::default()
            },
        );
        for c in random_unary_constraints(
            &dtd,
            &ConstraintGenConfig { keys: 1, foreign_keys: 1, seed, ..Default::default() },
        )
        .iter()
        {
            sigma.push(c.clone());
        }
        let Ok(spec) = CompiledSpec::compile(dtd, sigma) else {
            return Ok(());
        };
        let mut corpus = CorpusSession::new(&spec);
        let Some(handles) = open_random_docs(&spec, &mut corpus, &small_docs(), seed, num_docs) else {
            return Ok(());
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_2a77);
        drive_and_check(&spec, &mut corpus, &handles, &mut rng, edits);
    }
}

/// Catalogue specs of 2-attribute constraints over each kind's
/// `(id, ref)` pair, in both orders.
fn binary_catalogues() -> Vec<SpecInstance> {
    [3, 4]
        .into_iter()
        .map(|kinds| {
            let dtd = catalogue_dtd(kinds);
            let sigma = random_binary_constraints(
                &dtd,
                &ConstraintGenConfig {
                    keys: 2,
                    foreign_keys: 2,
                    inclusions: 1,
                    negated_keys: 1,
                    seed: kinds as u64,
                    ..Default::default()
                },
            );
            SpecInstance {
                label: format!("binary_catalogue/{kinds}"),
                dtd,
                sigma,
            }
        })
        .collect()
}

/// Catalogue specs whose documents hold 300–500 records under the root:
/// a child list wider than four automaton checkpoint spans.
fn wide_catalogues() -> Vec<SpecInstance> {
    [3, 4]
        .into_iter()
        .map(|kinds| {
            let dtd = catalogue_dtd(kinds);
            let sigma = random_unary_constraints(
                &dtd,
                &ConstraintGenConfig {
                    keys: 2,
                    foreign_keys: 2,
                    inclusions: 1,
                    seed: kinds as u64,
                    ..Default::default()
                },
            );
            SpecInstance {
                label: format!("catalogue/{kinds}"),
                dtd,
                sigma,
            }
        })
        .collect()
}

/// The named `xic-gen` workload families drive the same differential, so
/// the agreement suite covers generated DTD/Σ shapes beyond the uniform
/// random sampler: primary-key-restricted specs over random DTDs, keys-only
/// specs, a fixed DTD under a growing Σ, and wide catalogue documents.
#[test]
fn workload_families_agree_with_cold_rebuilds() {
    let wide_docs = DocGenConfig {
        star_fanout: 120,
        max_elements: 2_000,
        ..small_docs()
    };
    let families: Vec<(&str, Vec<SpecInstance>, DocGenConfig)> = vec![
        ("primary_key", primary_key_family(&[4, 6], 11), small_docs()),
        ("keys_only", keys_only_family(&[4, 6], 12), small_docs()),
        (
            "fixed_dtd",
            fixed_dtd_growing_sigma(5, &[4, 8], 13),
            small_docs(),
        ),
        ("wide", wide_catalogues(), wide_docs),
        ("binary", binary_catalogues(), small_docs()),
    ];
    let mut driven = 0usize;
    let mut widest = 0usize;
    for (family, instances, docs) in families {
        for instance in instances {
            let label = format!("{family}/{}", instance.label);
            let spec = match CompiledSpec::compile(instance.dtd, instance.sigma) {
                Ok(spec) => spec,
                Err(_) => continue, // Ψ(D,Σ) rejected the instance
            };
            let mut corpus = CorpusSession::new(&spec);
            let Some(handles) = open_random_docs(&spec, &mut corpus, &docs, 17, 3) else {
                continue;
            };
            for &h in &handles {
                let tree = corpus.tree(h).unwrap();
                widest = widest.max(tree.children(tree.root()).len());
            }
            let mut rng = StdRng::seed_from_u64(0xc0ffee ^ driven as u64);
            drive_and_check(&spec, &mut corpus, &handles, &mut rng, 20);
            driven += 1;
            let _ = label;
        }
    }
    assert!(
        driven >= 4,
        "the workload families must actually exercise the differential (drove {driven})"
    );
    assert!(
        widest > 256,
        "no document with a wide root (widest {widest})"
    );
}
