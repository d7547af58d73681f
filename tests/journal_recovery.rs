//! Crash-injection differential suite for the durable edit journals.
//!
//! The contract under test (see `xic_engine::journal`): for a persisted
//! session log, **truncation or corruption at any byte offset** yields
//! either
//!
//! * a recovered document that is witness-identical — same violations,
//!   same witness node ids, node-for-node the same arena — to a live
//!   session that replayed the same durable prefix of the edit history, or
//! * a structured [`JournalError`],
//!
//! and **never** a panic or a wrong verdict.  The oracle is the live
//! session itself: it records its verdict and a slot-for-slot arena
//! snapshot after every edit, and every recovery outcome is compared
//! against the state at the prefix the log actually preserved.
//!
//! The suite drives the contract two ways: a proptest over random
//! specifications and edit sequences (truncating at *every* byte boundary
//! and flipping *every* byte), and the named `xic-gen` workload families.
//! A separate test proves recovery still round-trips node-for-node after
//! `EditJournal` compaction dropped the in-memory prefix.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xml_integrity_constraints::constraints::Violation;
use xml_integrity_constraints::dtd::Dtd;
use xml_integrity_constraints::engine::journal::JournalError;
use xml_integrity_constraints::engine::{CompiledSpec, CorpusSession, DocHandle, SessionError};
use xml_integrity_constraints::gen::{
    fixed_dtd_growing_sigma, inconsistent_fanout_family, keys_only_family, negation_family,
    primary_key_family, random_document, random_dtd, random_unary_constraints,
    unary_consistency_family, ConstraintGenConfig, DocGenConfig, DtdGenConfig, SpecInstance,
};
use xml_integrity_constraints::xml::{EditOp, NodeId, TreeSnapshot, XmlTree};

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
    // Tests in this binary run on parallel threads; the thread id keeps
    // their scratch logs from colliding.
    path.push(format!(
        "xic-journal-recovery-{}-{:?}-{tag}.xicj",
        std::process::id(),
        std::thread::current().id()
    ));
    path
}

/// Commits and returns the Σ violations of `doc`, the session's only
/// document.
fn committed_violations(session: &mut CorpusSession<'_>, doc: DocHandle) -> Vec<Violation> {
    session.commit();
    assert_eq!(session.handles().collect::<Vec<_>>(), [doc]);
    session.report().reports()[0].violations.clone()
}

/// The live session's state after a prefix of the edit history: the
/// verdict (witnesses included) and the slot-for-slot arena.
struct PrefixState {
    violations: Vec<Violation>,
    arena: TreeSnapshot,
}

/// Drives `edits` random edits through a live session, persisting the log
/// (with a mid-history persist + compact to exercise the append path) and
/// recording the oracle state after every prefix.  Returns the log bytes
/// and the per-prefix oracle.
fn build_persisted_history(
    spec: &CompiledSpec,
    tree: XmlTree,
    rng: &mut StdRng,
    edits: usize,
    tag: &str,
) -> (Vec<u8>, Vec<PrefixState>) {
    let path = temp_path(tag);
    fs::remove_file(&path).ok();
    let mut session = CorpusSession::new(spec);
    let doc = session.open("doc", tree).unwrap();
    // Base record first: it folds 0 edits, so log prefix r ⇔ history
    // prefix r.
    session.persist_to(doc, &path).expect("fresh persist");
    let mut states = vec![PrefixState {
        violations: committed_violations(&mut session, doc),
        arena: session.tree(doc).unwrap().snapshot(),
    }];
    for i in 0..edits {
        let op = random_op(rng, spec.dtd(), session.tree(doc).unwrap());
        session.apply(doc, std::slice::from_ref(&op)).unwrap();
        states.push(PrefixState {
            violations: committed_violations(&mut session, doc),
            arena: session.tree(doc).unwrap().snapshot(),
        });
        if i == edits / 2 {
            // Mid-history persist + compaction: the tail of the log is
            // appended across two calls and the in-memory journal loses
            // its durable prefix — recovery must not notice.
            session.persist_to(doc, &path).expect("mid persist");
            session.compact(doc).expect("compact");
        }
    }
    session.persist_to(doc, &path).expect("final persist");
    let bytes = fs::read(&path).expect("log readable");
    fs::remove_file(&path).ok();
    (bytes, states)
}

/// Recover-or-reject at one mutated log image: recovery must either fail
/// structurally or be witness-identical to the oracle prefix it reports.
fn assert_recover_or_reject(
    spec: &CompiledSpec,
    image: &[u8],
    states: &[PrefixState],
    context: &str,
) {
    let path = temp_path("probe");
    fs::write(&path, image).expect("write probe image");
    let mut session = CorpusSession::new(spec);
    match session.recover_from("probe", &path) {
        Err(_) => {} // structured rejection: always allowed
        Ok(recovery) => {
            assert_eq!(
                recovery.base_edits, 0,
                "{context}: the base record folds no edits in this harness"
            );
            let r = recovery.ops_replayed as usize;
            assert!(
                r < states.len(),
                "{context}: recovered {r} ops, history only has {}",
                states.len() - 1
            );
            let oracle = &states[r];
            assert_eq!(
                committed_violations(&mut session, recovery.handle),
                oracle.violations,
                "{context}: recovered prefix {r} disagrees with the live session"
            );
            assert_eq!(
                session.tree(recovery.handle).unwrap().snapshot(),
                oracle.arena,
                "{context}: recovered arena differs node-for-node at prefix {r}"
            );
        }
    }
    fs::remove_file(&path).ok();
}

/// Truncates at every byte boundary and flips every byte (with the given
/// mask); each image must recover-or-reject.
fn crash_inject_everywhere(spec: &CompiledSpec, bytes: &[u8], states: &[PrefixState], mask: u8) {
    // The intact log recovers the full history.
    assert_recover_or_reject(spec, bytes, states, "intact");
    {
        let path = temp_path("full");
        fs::write(&path, bytes).unwrap();
        let mut session = CorpusSession::new(spec);
        let recovery = session
            .recover_from("full", &path)
            .expect("intact log recovers");
        assert_eq!(recovery.ops_replayed as usize, states.len() - 1);
        assert!(!recovery.truncated_tail);
        fs::remove_file(&path).ok();
    }
    // Kill at every byte prefix.
    for cut in 0..bytes.len() {
        assert_recover_or_reject(spec, &bytes[..cut], states, &format!("truncate@{cut}"));
    }
    // Corrupt every byte.
    let mut image = bytes.to_vec();
    for offset in 0..image.len() {
        image[offset] ^= mask;
        assert_recover_or_reject(spec, &image, states, &format!("flip@{offset}"));
        image[offset] ^= mask;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random specs, random documents, random edit sequences: persist →
    /// kill at arbitrary byte prefix (and flip arbitrary bytes) → recover
    /// yields a durable prefix witness-identical to the live session, or a
    /// structured error.  Never a panic, never a wrong verdict.
    #[test]
    fn crash_injection_recovers_or_rejects(
        seed in 0u64..400,
        types in 2usize..6,
        keys in 0usize..3,
        fks in 0usize..3,
        edits in 1usize..10,
        mask in 1u32..256,
    ) {
        let dtd = random_dtd(&DtdGenConfig { seed, num_types: types, ..Default::default() });
        let sigma = random_unary_constraints(
            &dtd,
            &ConstraintGenConfig { keys, foreign_keys: fks, seed, ..Default::default() },
        );
        let spec = match CompiledSpec::compile(dtd, sigma) {
            Ok(spec) => spec,
            Err(_) => return Ok(()), // Ψ(D,Σ) rejected the generated spec
        };
        let Some(tree) = random_document(
            spec.dtd(),
            &DocGenConfig { seed, max_elements: 16, value_pool: 3, ..Default::default() },
        ) else {
            return Ok(()); // unsatisfiable DTD
        };
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        let (bytes, states) = build_persisted_history(&spec, tree, &mut rng, edits, "prop");
        crash_inject_everywhere(&spec, &bytes, &states, mask as u8);
    }
}

/// The same crash-injection contract driven from every document-bearing
/// `xic-gen` workload family, so the suite is not limited to the uniform
/// random sampler.
#[test]
fn workload_families_survive_crash_injection() {
    let families: Vec<(&str, Vec<SpecInstance>)> = vec![
        ("chain", unary_consistency_family(&[3])),
        ("fanout", inconsistent_fanout_family(&[2])),
        ("primary_key", primary_key_family(&[5], 11)),
        ("keys_only", keys_only_family(&[5], 12)),
        ("fixed_dtd", fixed_dtd_growing_sigma(4, &[4], 13)),
        ("negation", negation_family(&[3], 14)),
    ];
    let mut driven = 0usize;
    for (family, instances) in families {
        for instance in instances {
            let spec = match CompiledSpec::compile(instance.dtd, instance.sigma) {
                Ok(spec) => spec,
                Err(_) => continue,
            };
            let Some(tree) = random_document(
                spec.dtd(),
                &DocGenConfig {
                    seed: 21,
                    max_elements: 10,
                    value_pool: 3,
                    ..Default::default()
                },
            ) else {
                continue;
            };
            let mut rng = StdRng::seed_from_u64(0xfeed ^ driven as u64);
            let (bytes, states) = build_persisted_history(&spec, tree, &mut rng, 5, family);
            crash_inject_everywhere(&spec, &bytes, &states, 0x41);
            driven += 1;
        }
    }
    assert!(
        driven >= 5,
        "the workload families must actually exercise crash injection (drove {driven})"
    );
}

/// Satellite: `EditJournal::compact` drops durable entries without losing
/// recoverability — after persist → compact → edit → persist, recovery
/// reproduces the live document node-for-node, and a torn tail written
/// over the compacted log is repaired by the next persist.
#[test]
fn recovery_after_compaction_round_trips_node_for_node() {
    let spec = CompiledSpec::from_sources(
        "<!ELEMENT school (teacher*)>\n\
         <!ELEMENT teacher (note*)>\n\
         <!ELEMENT note (#PCDATA)>\n\
         <!ATTLIST teacher name CDATA #REQUIRED>",
        Some("school"),
        "teacher.name -> teacher",
    )
    .unwrap();
    let path = temp_path("compaction");
    fs::remove_file(&path).ok();
    let mut rng = StdRng::seed_from_u64(7);

    let tree = spec
        .parse_document("<school><teacher name=\"Joe\"/><teacher name=\"Ann\"/></school>")
        .unwrap();
    let mut session = CorpusSession::new(&spec);
    let doc = session.open("doc", tree).unwrap();
    session.persist_to(doc, &path).unwrap();
    for round in 0..4 {
        for _ in 0..6 {
            let op = random_op(&mut rng, spec.dtd(), session.tree(doc).unwrap());
            session.apply(doc, std::slice::from_ref(&op)).unwrap();
        }
        session.persist_to(doc, &path).unwrap();
        let dropped = session.compact(doc).unwrap();
        assert!(dropped > 0, "round {round} persisted entries to drop");
        assert!(session.journal(doc).unwrap().is_empty());
        assert_eq!(
            session.journal(doc).unwrap().total_recorded(),
            6 * (round + 1)
        );

        // Recovery from the log reproduces the live document exactly even
        // though the in-memory journal no longer holds the history.
        let mut recovered = CorpusSession::new(&spec);
        let recovery = recovered.recover_from("doc", &path).unwrap();
        assert_eq!(recovery.total_edits(), 6 * (round + 1));
        assert_eq!(
            recovered.tree(recovery.handle).unwrap().snapshot(),
            session.tree(doc).unwrap().snapshot(),
            "round {round}"
        );
        assert_eq!(
            committed_violations(&mut recovered, recovery.handle),
            committed_violations(&mut session, doc),
            "round {round}"
        );
    }

    // A crash mid-append leaves a torn tail; the next persist repairs it
    // and recovery still reaches the live state.
    let mut bytes = fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0xAB; 9]); // half a frame of garbage
    fs::write(&path, &bytes).unwrap();
    let op = random_op(&mut rng, spec.dtd(), session.tree(doc).unwrap());
    session.apply(doc, std::slice::from_ref(&op)).unwrap();
    let receipt = session.persist_to(doc, &path).unwrap();
    assert!(receipt.repaired_torn_tail);
    let mut recovered = CorpusSession::new(&spec);
    let recovery = recovered.recover_from("doc", &path).unwrap();
    assert_eq!(recovery.total_edits(), 25);
    assert_eq!(
        recovered.tree(recovery.handle).unwrap().snapshot(),
        session.tree(doc).unwrap().snapshot()
    );

    // Compacting past the log is refused: the history would exist nowhere.
    let mut rogue = CorpusSession::new(&spec);
    let tree = spec.parse_document("<school/>").unwrap();
    let rogue_doc = rogue.open("rogue", tree).unwrap();
    let rogue_path = temp_path("rogue");
    fs::remove_file(&rogue_path).ok();
    rogue.persist_to(rogue_doc, &rogue_path).unwrap();
    let root = rogue.tree(rogue_doc).unwrap().root();
    let teacher = spec.dtd().type_by_name("teacher").unwrap();
    rogue
        .apply(
            rogue_doc,
            &[EditOp::AddElement {
                parent: root,
                ty: teacher,
            }],
        )
        .unwrap();
    // Not persisted yet, so nothing is droppable…
    assert_eq!(rogue.compact(rogue_doc).unwrap(), 0);
    rogue.persist_to(rogue_doc, &rogue_path).unwrap();
    rogue.compact(rogue_doc).unwrap();
    // …and a log that was rewound below the compaction watermark is
    // rejected with the structured error, not silently rewritten.
    let full = fs::read(&rogue_path).unwrap();
    let base_only = &full[..full.len() - 1];
    fs::write(&rogue_path, base_only).unwrap();
    let another = random_op(&mut rng, spec.dtd(), rogue.tree(rogue_doc).unwrap());
    rogue
        .apply(rogue_doc, std::slice::from_ref(&another))
        .unwrap();
    let err = rogue.persist_to(rogue_doc, &rogue_path).unwrap_err();
    assert!(
        matches!(err, SessionError::Journal(JournalError::Compacted { .. })),
        "expected Compacted, got {err:?}"
    );

    fs::remove_file(&path).ok();
    fs::remove_file(&rogue_path).ok();
}
