//! Crash-injection differential suite for the corpus log.
//!
//! The contract under test (see `xic_engine::journal`): for a persisted
//! corpus log, **truncation or corruption at any byte offset** yields
//! either
//!
//! * a recovered session that is witness-identical — same reports, same
//!   handles and labels, same `last_seq`, node-for-node the same arenas —
//!   to the live session at the persist the log preserved, or
//! * a structured [`JournalError`],
//!
//! and **never** a panic or a wrong verdict.  The oracle is the live
//! session itself: it records its documents and their cold-rebuilt report
//! at every persist, and every recovery that ends on a persist boundary is
//! compared against that state.  A recovery that ends inside a persist (a
//! crash tore it after some records landed) must still be a consistent
//! session: its next commit continues the stream a replica recovered from
//! the same bytes holds, and its report is a cold rebuild of its own trees.
//!
//! The suite drives the contract two ways: a proptest over random
//! specifications and session histories (opens, edits, commits and closes,
//! persisted at random points; truncating at *every* byte boundary and
//! flipping *every* byte), and the named `xic-gen` workload families.  A
//! separate test proves recovery still round-trips node-for-node when
//! only the log holds the edit history.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xml_integrity_constraints::dtd::Dtd;
use xml_integrity_constraints::engine::journal::{inspect_log, read_log, JournalError, LogRecord};
use xml_integrity_constraints::engine::{
    BatchReport, CompiledSpec, CorpusReplica, CorpusSession, SessionError,
};
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

/// The open documents of a session, in open order: raw handle, label and
/// slot-for-slot arena.
type Docs = Vec<(u64, String, TreeSnapshot)>;

fn docs_of(session: &CorpusSession<'_>) -> Docs {
    session
        .handles()
        .map(|h| {
            (
                h.raw(),
                session.label(h).unwrap().to_string(),
                session.tree(h).unwrap().snapshot(),
            )
        })
        .collect()
}

/// `T ⊨ (D, Σ)` of every document, from scratch: a fresh session opening
/// the same trees under the same labels, in the same order.
fn cold_report(spec: &CompiledSpec, docs: &Docs) -> BatchReport {
    let mut cold = CorpusSession::new(spec);
    for (_, label, snapshot) in docs {
        cold.open(label.clone(), XmlTree::from_snapshot(snapshot).unwrap())
            .unwrap();
    }
    cold.commit();
    cold.report()
}

/// The live session's state at one persist.
struct Checkpoint {
    durable_bytes: u64,
    last_seq: u64,
    docs: Docs,
    report: BatchReport,
}

/// The live session's state as one persist left it.
fn checkpoint(spec: &CompiledSpec, session: &CorpusSession<'_>, durable_bytes: u64) -> Checkpoint {
    let docs = docs_of(session);
    Checkpoint {
        durable_bytes,
        last_seq: session.last_seq(),
        report: cold_report(spec, &docs),
        docs,
    }
}

/// Drives a random session history — opens, edits, commits and closes —
/// persisting after roughly half the steps (so persists carry one record
/// or many) and recording the oracle state at every persist.  Returns the
/// log bytes and the checkpoints.
fn build_persisted_history(
    spec: &CompiledSpec,
    rng: &mut StdRng,
    steps: usize,
    tag: &str,
) -> Option<(Vec<u8>, Vec<Checkpoint>)> {
    let path = temp_path(tag);
    fs::remove_file(&path).ok();
    let mut session = CorpusSession::new(spec);
    let mut opened = 0u64;
    let mut open_one = |session: &mut CorpusSession<'_>, rng: &mut StdRng| {
        let tree = random_document(
            spec.dtd(),
            &DocGenConfig {
                seed: rng.gen_range(0..1_000),
                max_elements: 10,
                value_pool: 3,
                ..Default::default()
            },
        )?;
        opened += 1;
        session.open(format!("doc-{opened}"), tree).unwrap();
        Some(())
    };
    open_one(&mut session, rng)?;
    open_one(&mut session, rng)?;
    let mut checkpoints = Vec::new();
    let mut persist = |session: &mut CorpusSession<'_>| {
        let receipt = session.persist_to(&path).expect("persist");
        checkpoints.push(checkpoint(spec, session, receipt.durable_bytes));
    };
    persist(&mut session);
    for _ in 0..steps {
        let handles: Vec<_> = session.handles().collect();
        match rng.gen_range(0u32..10) {
            0..=4 if !handles.is_empty() => {
                let doc = handles[rng.gen_range(0..handles.len())];
                let op = random_op(rng, spec.dtd(), session.tree(doc).unwrap());
                session.apply(doc, std::slice::from_ref(&op)).unwrap();
            }
            5 if handles.len() > 1 => {
                session
                    .close(handles[rng.gen_range(0..handles.len())])
                    .unwrap();
            }
            6 => {
                open_one(&mut session, rng);
            }
            _ => {
                session.commit();
            }
        }
        if rng.gen_bool(0.5) {
            persist(&mut session);
        }
    }
    persist(&mut session);
    let bytes = fs::read(&path).expect("log readable");
    fs::remove_file(&path).ok();
    Some((bytes, checkpoints))
}

/// Recover-or-reject at one mutated log image.  A recovery must be a
/// consistent session, and exactly the oracle's when it ends on a persist.
fn assert_recover_or_reject(
    spec: &CompiledSpec,
    image: &[u8],
    checkpoints: &[Checkpoint],
    context: &str,
) {
    let path = temp_path("probe");
    fs::write(&path, image).expect("write probe image");
    let mut session = CorpusSession::new(spec);
    if let Ok(recovery) = session.recover_from(&path) {
        let durable = read_log(&path, spec.id()).unwrap().durable_bytes;
        let docs = docs_of(&session);
        if let Some(oracle) = checkpoints.iter().find(|c| c.durable_bytes == durable) {
            assert_eq!(recovery.last_seq, oracle.last_seq, "{context}");
            assert_eq!(
                docs, oracle.docs,
                "{context}: recovered documents differ node-for-node"
            );
        }
        // The recovered session continues the logged stream...
        let delta = session.commit();
        let (mut replica, _) =
            CorpusReplica::recover_from(&path, spec.id()).expect("the same bytes recover");
        replica
            .apply_delta(&delta)
            .unwrap_or_else(|e| panic!("{context}: next delta breaks the stream: {e}"));
        let report = session.report();
        assert_eq!(replica.report(), report, "{context}");
        // ...with verdicts that are a cold rebuild of its own trees.
        assert_eq!(report, cold_report(spec, &docs), "{context}");
        if let Some(oracle) = checkpoints.iter().find(|c| c.durable_bytes == durable) {
            assert_eq!(report, oracle.report, "{context}: wrong verdict");
        }
    }
    fs::remove_file(&path).ok();
}

/// Truncates at every byte boundary and flips every byte (with the given
/// mask); each image must recover-or-reject.
fn crash_inject_everywhere(
    spec: &CompiledSpec,
    bytes: &[u8],
    checkpoints: &[Checkpoint],
    mask: u8,
) {
    // The intact log recovers the final persist.
    {
        let path = temp_path("full");
        fs::write(&path, bytes).unwrap();
        let mut session = CorpusSession::new(spec);
        let recovery = session.recover_from(&path).expect("intact log recovers");
        assert!(!recovery.truncated_tail);
        let last = checkpoints.last().unwrap();
        assert_eq!(last.durable_bytes, bytes.len() as u64);
        assert_eq!(docs_of(&session), last.docs);
        fs::remove_file(&path).ok();
    }
    assert_recover_or_reject(spec, bytes, checkpoints, "intact");
    // Every record boundary — inside a persist or between two — is a state
    // the log recovers to: a crash loses only the torn suffix.
    {
        let path = temp_path("boundaries");
        fs::write(&path, bytes).unwrap();
        let boundaries: Vec<u64> = inspect_log(&path, None)
            .unwrap()
            .records
            .iter()
            .map(|r| r.offset)
            .collect();
        for cut in boundaries {
            fs::write(&path, &bytes[..cut as usize]).unwrap();
            CorpusSession::new(spec)
                .recover_from(&path)
                .unwrap_or_else(|e| panic!("record boundary @{cut} must recover: {e}"));
        }
        fs::remove_file(&path).ok();
    }
    // Kill at every byte prefix.
    for cut in 0..bytes.len() {
        assert_recover_or_reject(spec, &bytes[..cut], checkpoints, &format!("truncate@{cut}"));
    }
    // Corrupt every byte.
    let mut image = bytes.to_vec();
    for offset in 0..image.len() {
        image[offset] ^= mask;
        assert_recover_or_reject(spec, &image, checkpoints, &format!("flip@{offset}"));
        image[offset] ^= mask;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random specs, random documents, random session histories: persist →
    /// kill at arbitrary byte prefix (and flip arbitrary bytes) → recover
    /// yields a durable prefix witness-identical to the live session, or a
    /// structured error.  Never a panic, never a wrong verdict.
    #[test]
    fn crash_injection_recovers_or_rejects(
        seed in 0u64..400,
        types in 2usize..6,
        keys in 0usize..3,
        fks in 0usize..3,
        steps in 1usize..10,
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
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        let Some((bytes, checkpoints)) = build_persisted_history(&spec, &mut rng, steps, "prop")
        else {
            return Ok(()); // unsatisfiable DTD
        };
        crash_inject_everywhere(&spec, &bytes, &checkpoints, mask as u8);
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
            let mut rng = StdRng::seed_from_u64(0xfeed ^ driven as u64);
            let Some((bytes, checkpoints)) = build_persisted_history(&spec, &mut rng, 6, family)
            else {
                continue;
            };
            crash_inject_everywhere(&spec, &bytes, &checkpoints, 0x41);
            driven += 1;
        }
    }
    assert!(
        driven >= 5,
        "the workload families must actually exercise crash injection (drove {driven})"
    );
}

/// One persist carrying several commits: every edit is logged before the
/// first commit that saw it — also the edits of a document closed before
/// the persist, and of one opened and closed between two persists — so a
/// log cut after any record, say right after the first new `commit`,
/// recovers instead of re-checking a tree that lacks the edit.
#[test]
fn edits_land_before_the_first_commit_that_saw_them() {
    let spec = CompiledSpec::from_sources(
        "<!ELEMENT school (teacher*)>\n\
         <!ELEMENT teacher EMPTY>\n\
         <!ATTLIST teacher name CDATA #REQUIRED>",
        Some("school"),
        "teacher.name -> teacher",
    )
    .unwrap();
    let name = spec.dtd().attr_by_name("name").unwrap();
    let set = |element: u32, value: &str| EditOp::SetAttr {
        element: NodeId(element),
        attr: name,
        value: value.into(),
    };
    let source = "<school><teacher name=\"Joe\"/><teacher name=\"Ann\"/></school>";
    for close_a in [false, true] {
        let path = temp_path(if close_a { "close-a" } else { "edit-a" });
        fs::remove_file(&path).ok();
        let mut session = CorpusSession::new(&spec);
        let a = session.open_source("a.xml", source).unwrap();
        session.open_source("b.xml", source).unwrap();
        let receipt = session.persist_to(&path).unwrap();
        let mut checkpoints = vec![checkpoint(&spec, &session, receipt.durable_bytes)];

        // A's verdict flips, a commit sees it; a document the log never
        // held is opened, reported and closed on the way.
        session.apply(a, &[set(3, "Joe")]).unwrap();
        let c = session.open_source("c.xml", source).unwrap();
        assert!(!session.commit().changes.is_empty());
        session.apply(c, &[set(3, "Joe")]).unwrap();
        session.commit();
        session.close(c).unwrap();
        if close_a {
            session.close(a).unwrap();
        } else {
            session.apply(a, &[set(3, "Eve")]).unwrap();
        }
        session.commit();
        let receipt = session.persist_to(&path).unwrap();
        assert_eq!(receipt.commits_written, 3);
        checkpoints.push(checkpoint(&spec, &session, receipt.durable_bytes));

        let bytes = fs::read(&path).unwrap();
        fs::remove_file(&path).ok();
        crash_inject_everywhere(&spec, &bytes, &checkpoints, 0x41);
    }
}

/// Satellite: a session keeps no edit the log already holds, without
/// losing recoverability — after persist → edit → persist,
/// recovery reproduces the live document node-for-node, a torn tail
/// written over the log is repaired by the next persist, and a log rewound
/// below what the session made durable is refused.
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
    session.persist_to(&path).unwrap();
    for round in 0..4 {
        for _ in 0..6 {
            let op = random_op(&mut rng, spec.dtd(), session.tree(doc).unwrap());
            session.apply(doc, std::slice::from_ref(&op)).unwrap();
        }
        if round % 2 == 1 {
            session.commit();
        }
        let receipt = session.persist_to(&path).unwrap();
        assert!(receipt.records_written >= 6, "round {round}");
        let log = read_log(&path, spec.id()).unwrap();
        let applies = (log.records.iter())
            .filter(|r| matches!(r, LogRecord::Apply { .. }))
            .count();
        assert_eq!(applies, 6 * (round + 1), "round {round}");

        // Recovery from the log reproduces the live document exactly,
        // though the session holds none of the history in memory.
        let mut recovered = CorpusSession::new(&spec);
        let recovery = recovered.recover_from(&path).unwrap();
        assert_eq!(recovery.ops_replayed, 6 * (round + 1) as u64);
        assert_eq!(
            recovered.tree(doc).unwrap().snapshot(),
            session.tree(doc).unwrap().snapshot(),
            "round {round}"
        );
        recovered.commit();
        let mut live = CorpusSession::new(&spec);
        live.open(
            "doc",
            XmlTree::from_snapshot(&session.tree(doc).unwrap().snapshot()).unwrap(),
        )
        .unwrap();
        live.commit();
        assert_eq!(recovered.report(), live.report(), "round {round}");
    }

    // A crash mid-append leaves a torn tail; the next persist repairs it
    // and recovery still reaches the live state.
    let mut bytes = fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0xAB; 9]); // half a frame of garbage
    fs::write(&path, &bytes).unwrap();
    let op = random_op(&mut rng, spec.dtd(), session.tree(doc).unwrap());
    session.apply(doc, std::slice::from_ref(&op)).unwrap();
    let receipt = session.persist_to(&path).unwrap();
    assert!(receipt.repaired_torn_tail);
    let mut recovered = CorpusSession::new(&spec);
    let recovery = recovered.recover_from(&path).unwrap();
    assert_eq!(recovery.ops_replayed, 25);
    assert_eq!(
        recovered.tree(doc).unwrap().snapshot(),
        session.tree(doc).unwrap().snapshot()
    );

    // A log rewound below what the session made durable is refused with
    // the structured error, not silently rewritten: the folded edits would
    // exist nowhere.
    let full = fs::read(&path).unwrap();
    fs::write(&path, &full[..full.len() - 1]).unwrap();
    let another = random_op(&mut rng, spec.dtd(), session.tree(doc).unwrap());
    session.apply(doc, std::slice::from_ref(&another)).unwrap();
    let err = session.persist_to(&path).unwrap_err();
    assert!(
        matches!(err, SessionError::Journal(JournalError::Diverged { .. })),
        "expected Diverged, got {err:?}"
    );
    fs::remove_file(&path).ok();
}

/// Pruning the delta history never outruns the log: a session bound to a
/// log keeps every commit the log lacks, so persist → commit → prune to
/// the last commit → persist still writes those commits, and the log
/// recovers to the live report.
#[test]
fn pruning_past_the_log_keeps_persist_working() {
    let spec = CompiledSpec::from_sources(
        "<!ELEMENT school (teacher*)>\n\
         <!ELEMENT teacher EMPTY>\n\
         <!ATTLIST teacher name CDATA #REQUIRED>",
        Some("school"),
        "teacher.name -> teacher",
    )
    .unwrap();
    let path = temp_path("prune");
    fs::remove_file(&path).ok();
    let mut session = CorpusSession::new(&spec);
    let doc = session
        .open_source(
            "doc",
            "<school><teacher name=\"Joe\"/><teacher name=\"Ann\"/></school>",
        )
        .unwrap();
    session.commit();
    session.persist_to(&path).unwrap();

    let first = session.tree(doc).unwrap().elements().nth(1).unwrap();
    let name = spec.dtd().attr_by_name("name").unwrap();
    for value in ["Ann", "Joe"] {
        let op = EditOp::SetAttr {
            element: first,
            attr: name,
            value: value.to_string(),
        };
        session.apply(doc, &[op]).unwrap();
        session.commit();
    }
    // Only the commit the log already holds can go.
    assert_eq!(session.prune_deltas(session.last_seq()), 1);
    let receipt = session.persist_to(&path).unwrap();
    assert_eq!((receipt.records_written, receipt.commits_written), (4, 2));
    // Once logged, the rest of the history can go too.
    assert_eq!(session.prune_deltas(session.last_seq()), 2);
    assert_eq!(session.persist_to(&path).unwrap().records_written, 0);

    let mut recovered = CorpusSession::new(&spec);
    let recovery = recovered.recover_from(&path).unwrap();
    fs::remove_file(&path).ok();
    assert_eq!((recovery.dirty, recovery.last_seq), (0, 3));
    assert_eq!(recovered.report(), session.report());
}
