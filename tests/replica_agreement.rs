//! Replica-differential suite: a [`CorpusReplica`] fed nothing but
//! exported [`BatchDelta`]s must agree with the live [`CorpusSession`]
//! **after every commit** — same `report()`, witnesses included — and must
//! survive a close → re-open through the session's persisted corpus log
//! (the replica recovers from the log's `commit` records and continues
//! consuming the stream where it left off).  No document is ever re-shipped or re-parsed on the replica side:
//! the delta stream is the entire transport.
//!
//! The drive comes from the named `xic-gen` workload families and from a
//! proptest over random specifications, mirroring
//! `tests/corpus_agreement.rs` so the replica inherits the same coverage
//! the delta stream itself was proven under.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xml_integrity_constraints::dtd::Dtd;
use xml_integrity_constraints::engine::{CompiledSpec, CorpusReplica, CorpusSession, DocHandle};
use xml_integrity_constraints::gen::{
    fixed_dtd_growing_sigma, inconsistent_fanout_family, keys_only_family, negation_family,
    primary_key_family, random_document, random_dtd, random_unary_constraints,
    unary_consistency_family, ConstraintGenConfig, DocGenConfig, DtdGenConfig, SpecInstance,
};
use xml_integrity_constraints::xml::{EditOp, NodeId, XmlTree};

/// Picks the next edit against the document's current state: every op is
/// valid by construction (live nodes, non-root removals).
fn random_op(rng: &mut StdRng, dtd: &Dtd, tree: &XmlTree) -> EditOp {
    let elements: Vec<NodeId> = tree.elements().collect();
    let pick = |rng: &mut StdRng, nodes: &[NodeId]| nodes[rng.gen_range(0..nodes.len())];
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
    let types: Vec<_> = dtd.types().collect();
    EditOp::AddElement {
        parent: tree.root(),
        ty: types[0],
    }
}

fn temp_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "xic-replica-{}-{:?}-{tag}.xicj",
        std::process::id(),
        std::thread::current().id()
    ));
    path
}

/// Ships everything the replica has not seen yet: flush the live session
/// to its corpus log, export, apply to the replica.  This is one
/// replication round — and the equality it must preserve.
fn sync_and_check(
    corpus: &mut CorpusSession,
    replica: &mut CorpusReplica,
    log: &PathBuf,
    context: &str,
) {
    corpus.persist_to(log).expect("append to the corpus log");
    let fresh = corpus
        .export_deltas(replica.last_seq())
        .expect("retained window");
    replica.apply_deltas(fresh).expect("deltas apply in order");
    assert_eq!(replica.last_seq(), corpus.last_seq(), "{context}");
    assert_eq!(
        replica.report(),
        corpus.report(),
        "{context}: replica diverged from the live session"
    );
}

/// Opens `count` random documents, or `None` when the DTD admits none.
fn open_random_docs(
    spec: &CompiledSpec,
    corpus: &mut CorpusSession,
    seed: u64,
    count: usize,
) -> Option<Vec<DocHandle>> {
    let mut handles = Vec::new();
    for i in 0..count {
        let tree = random_document(
            spec.dtd(),
            &DocGenConfig {
                seed: seed.wrapping_add(i as u64),
                value_pool: 3,
                max_elements: 40,
                ..Default::default()
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

/// Drives `edits` random edits (committing and replicating after every
/// one), closing the replica and recovering it from the log every few
/// commits, closing a live document at the end.  Returns `false` when the
/// generated spec or DTD was unusable.
fn drive_replicated(spec: &CompiledSpec, seed: u64, edits: usize, tag: &str) -> bool {
    let mut corpus = CorpusSession::new(spec);
    let Some(handles) = open_random_docs(spec, &mut corpus, seed, 3) else {
        return false;
    };
    let log = temp_path(tag);
    fs::remove_file(&log).ok();
    let mut replica = CorpusReplica::new(spec.id());
    corpus.commit();
    sync_and_check(&mut corpus, &mut replica, &log, "open");

    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x517c_c1b7));
    for step in 0..edits {
        let handle = handles[rng.gen_range(0..handles.len())];
        let op = random_op(&mut rng, spec.dtd(), corpus.tree(handle).unwrap());
        corpus.apply(handle, std::slice::from_ref(&op)).unwrap();
        corpus.commit();
        sync_and_check(&mut corpus, &mut replica, &log, &format!("step {step}"));

        if step % 4 == 3 {
            // Close → re-open of the replica: recover from the durable log
            // alone and keep consuming the stream where it left off.
            let last = replica.last_seq();
            drop(replica);
            let (recovered, truncated) =
                CorpusReplica::recover_from(&log, spec.id()).expect("replica recovers");
            assert!(!truncated);
            assert_eq!(recovered.last_seq(), last);
            replica = recovered;
            assert_eq!(
                replica.report(),
                corpus.report(),
                "step {step}: recovered replica diverged"
            );
        }
    }

    // A close travels the same stream.
    corpus.close(handles[0]).unwrap();
    corpus.commit();
    sync_and_check(&mut corpus, &mut replica, &log, "close");
    let (recovered, _) = CorpusReplica::recover_from(&log, spec.id()).expect("final recover");
    assert_eq!(recovered.report(), corpus.report());
    // The same log restores the live session itself.
    let mut restored = CorpusSession::new(spec);
    restored.recover_from(&log).expect("session recovers");
    assert_eq!(restored.report(), corpus.report());
    fs::remove_file(&log).ok();
    true
}

/// Every document-bearing `xic-gen` workload family drives the replica
/// differential.
#[test]
fn workload_families_agree_with_delta_fed_replicas() {
    let families: Vec<(&str, Vec<SpecInstance>)> = vec![
        ("chain", unary_consistency_family(&[3])),
        ("fanout", inconsistent_fanout_family(&[2])),
        ("primary_key", primary_key_family(&[4, 6], 11)),
        ("keys_only", keys_only_family(&[4, 6], 12)),
        ("fixed_dtd", fixed_dtd_growing_sigma(5, &[4, 8], 13)),
        ("negation", negation_family(&[3], 14)),
    ];
    let mut driven = 0usize;
    for (family, instances) in families {
        for instance in instances {
            let spec = match CompiledSpec::compile(instance.dtd, instance.sigma) {
                Ok(spec) => spec,
                Err(_) => continue, // Ψ(D,Σ) rejected the instance
            };
            if drive_replicated(&spec, 17 + driven as u64, 12, family) {
                driven += 1;
            }
        }
    }
    assert!(
        driven >= 6,
        "the workload families must actually exercise the replica differential (drove {driven})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random specs and interleaved edit sequences: after every commit the
    /// delta-fed replica reconstructs `report()` exactly, including across
    /// close → re-open from the persisted log.
    #[test]
    fn replicas_reconstruct_reports_after_every_commit(
        seed in 0u64..400,
        types in 2usize..7,
        keys in 0usize..4,
        fks in 0usize..4,
        inclusions in 0usize..3,
        edits in 1usize..16,
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
            Err(_) => return Ok(()),
        };
        drive_replicated(&spec, seed, edits, "prop");
    }
}
