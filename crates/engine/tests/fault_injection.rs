//! Injected-fault testing of the resilience stack (`--features faults`).
//!
//! Every test here arms one or more of the engine's named failpoints (see
//! `xic_telemetry::faults`) and asserts the recover-or-reject contract:
//! after any injected fault the engine either absorbed it (transparent
//! retry), contained it (one quarantined document, everything else
//! unaffected), or rejected it with a structured error — **never a wrong
//! verdict and never a process abort**.
//!
//! The failpoint table is process-global and the production names
//! (`batch.doc`, `corpus.apply`, `journal.*`, …) are hit by every engine
//! call, so these tests serialize on one mutex: a failpoint armed by a
//! parallel test must never leak into another scenario.

#![cfg(feature = "faults")]

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use proptest::prelude::*;
use xic_engine::{
    BatchDoc, BatchEngine, CompiledSpec, CorpusReplica, CorpusSession, DocFault, Engine,
    SessionError,
};
use xic_telemetry::faults::{self, FaultMode};
use xic_xml::{EditOp, NodeId};

const SCHOOL_DTD: &str = "<!ELEMENT school (teacher*)>\n\
     <!ELEMENT teacher EMPTY>\n\
     <!ATTLIST teacher name CDATA #REQUIRED>";

const CLEAN_DOC: &str = "<school><teacher name=\"Joe\"/></school>";

fn school_spec() -> CompiledSpec {
    CompiledSpec::from_sources(SCHOOL_DTD, Some("school"), "teacher.name -> teacher").unwrap()
}

/// Serializes fault-armed tests and clears the global failpoint table on
/// entry, so a scenario never sees a failpoint armed by its predecessor
/// (even one that failed mid-test).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    faults::reset();
    guard
}

/// Runs `f` with the default panic hook silenced: the contained panics
/// these tests inject would otherwise spray backtraces over the output.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(prev);
    result
}

/// A per-test temp path (removed at the start so reruns start clean).
fn temp_log(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("xic-fault-{}-{name}.xicj", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// In a document opened from [`CLEAN_DOC`], node 1 is the only `teacher`
/// element.
fn set_name(spec: &CompiledSpec, value: &str) -> EditOp {
    EditOp::SetAttr {
        element: NodeId(1),
        attr: spec.dtd().attr_by_name("name").unwrap(),
        value: value.to_string(),
    }
}

/// The PR's acceptance scenario: a batch with one injected panicking
/// document completes with that document Faulted and every other report
/// byte-identical to a fault-free run.
#[test]
fn batch_panic_quarantines_one_doc_and_leaves_others_byte_identical() {
    let _guard = serial();
    let spec = school_spec();
    let docs = vec![
        BatchDoc::new("clean.xml", CLEAN_DOC),
        BatchDoc::new(
            "dup.xml",
            "<school><teacher name=\"Joe\"/><teacher name=\"Joe\"/></school>",
        ),
        BatchDoc::new("broken.xml", "<school><teacher name=\"Joe\"/>"),
        BatchDoc::new("clean2.xml", "<school><teacher name=\"Ann\"/></school>"),
    ];
    // One worker: documents are processed in submission order, so Nth(2)
    // deterministically fells `dup.xml` and nothing else.
    let engine = BatchEngine::new(1);
    let baseline = engine.validate_batch(&spec, &docs);
    assert_eq!(baseline.panicked_count(), 0);

    faults::configure("batch.doc", FaultMode::Nth(2));
    let faulted = quiet_panics(|| engine.validate_batch(&spec, &docs));
    faults::disarm("batch.doc");

    assert_eq!(faulted.total(), baseline.total());
    assert_eq!(faulted.panicked_count(), 1);
    let bad = &faulted.reports()[1];
    assert!(bad.is_panicked(), "{bad:?}");
    assert!(
        bad.fault
            .as_ref()
            .unwrap()
            .cause()
            .contains("injected fault: batch.doc"),
        "{bad:?}"
    );
    for i in [0, 2, 3] {
        assert_eq!(
            faulted.reports()[i],
            baseline.reports()[i],
            "report {i} must be byte-identical to the fault-free run"
        );
    }
}

#[test]
fn corpus_apply_panic_quarantines_one_doc_and_recover_from_restores_it() {
    let _guard = serial();
    let spec = school_spec();
    let path = temp_log("apply-panic");
    let name = spec.dtd().attr_by_name("name").unwrap();
    let mut corpus = CorpusSession::new(&spec);
    let mut replica = CorpusReplica::new(spec.id());
    let h = corpus.open_source("a.xml", CLEAN_DOC).unwrap();
    let other = corpus.open_source("b.xml", CLEAN_DOC).unwrap();
    corpus.apply(h, &[set_name(&spec, "Ann")]).unwrap();
    corpus.persist_to(&path).unwrap();
    replica.apply_delta(&corpus.commit()).unwrap();

    faults::configure("corpus.apply", FaultMode::Nth(1));
    let err = quiet_panics(|| corpus.apply(h, &[set_name(&spec, "Bob")])).unwrap_err();
    faults::disarm("corpus.apply");
    assert!(matches!(err, SessionError::Poisoned { .. }), "{err}");

    // Quarantine holds on its own — no failpoint needed to refuse edits —
    // and the other document goes on untouched.
    let again = corpus.apply(h, &[set_name(&spec, "Eve")]).unwrap_err();
    assert!(matches!(again, SessionError::Poisoned { .. }), "{again}");
    corpus.apply(other, &[set_name(&spec, "Zoe")]).unwrap();

    // The next commit reports the fault for that document only — never a
    // verdict from its possibly inconsistent index.
    let delta = corpus.commit();
    let faulted: Vec<_> = delta
        .changes
        .iter()
        .filter(|c| c.report.fault.is_some())
        .collect();
    assert_eq!(faulted.len(), 1, "{delta:?}");
    assert_eq!(faulted[0].handle, h);
    let Some(DocFault::Panic { cause }) = &faulted[0].report.fault else {
        panic!("expected a panic fault, got {:?}", faulted[0].report);
    };
    assert!(cause.contains("injected fault: corpus.apply"), "{cause}");
    let report = corpus.report();
    assert_eq!(report.panicked_count(), 1);
    assert!(report.reports()[1].is_clean());

    // A replica fed the delta stream agrees with the session's report.
    replica.apply_delta(&delta).unwrap();
    assert_eq!(replica.report(), report);

    // Persist, then recover a fresh session: the log restores exactly the
    // recorded history — "Ann" landed before the panic, the poisoned batch
    // ("Bob") never reached the log — and the other document's edit.
    corpus.persist_to(&path).unwrap();
    let mut restored = CorpusSession::new(&spec);
    let recovery = restored.recover_from(&path).unwrap();
    assert_eq!((recovery.docs, recovery.last_seq), (2, 2));
    assert_eq!(recovery.dirty, 1, "the faulted document comes back dirty");
    assert_eq!(
        restored.tree(h).unwrap().attr_value(NodeId(1), name),
        Some("Ann")
    );
    assert_eq!(
        restored.tree(other).unwrap().attr_value(NodeId(1), name),
        Some("Zoe")
    );
    let healed = restored.commit();
    assert_eq!(healed.changes.len(), 1);
    assert_eq!(healed.changes[0].handle, h);
    assert_eq!(restored.report().panicked_count(), 0);
    replica.apply_delta(&healed).unwrap();
    assert_eq!(replica.report(), restored.report());

    // And the restored document accepts edits again.
    restored.apply(h, &[set_name(&spec, "Bob")]).unwrap();
    assert_eq!(
        restored.tree(h).unwrap().attr_value(NodeId(1), name),
        Some("Bob")
    );

    // A quarantined document the log never held has no state to restore,
    // but it blocks nothing: the persist makes every commit durable, and
    // the recovered session holds that document as closed — the next
    // commit announces it.
    let fresh_path = temp_log("apply-panic-unlogged");
    let mut unlogged = CorpusSession::new(&spec);
    let doc = unlogged.open_source("c.xml", CLEAN_DOC).unwrap();
    let kept = unlogged.open_source("d.xml", CLEAN_DOC).unwrap();
    unlogged.commit();
    faults::configure("corpus.apply", FaultMode::Nth(1));
    let _ = quiet_panics(|| unlogged.apply(doc, &[set_name(&spec, "Bob")]));
    faults::disarm("corpus.apply");
    unlogged.apply(kept, &[set_name(&spec, "Ann")]).unwrap();
    unlogged.commit();
    let receipt = unlogged.persist_to(&fresh_path).unwrap();
    assert_eq!(receipt.commits_written, 2);
    let mut restored = CorpusSession::new(&spec);
    let recovery = restored.recover_from(&fresh_path).unwrap();
    assert_eq!((recovery.docs, recovery.last_seq), (1, 2));
    assert_eq!(
        restored.tree(kept).unwrap().attr_value(NodeId(1), name),
        Some("Ann")
    );
    let (mut replica, _) = CorpusReplica::recover_from(&fresh_path, spec.id()).unwrap();
    let next = restored.commit();
    assert_eq!(next.closed.len(), 1);
    assert_eq!(next.closed[0].handle, doc);
    replica.apply_delta(&next).unwrap();
    assert_eq!(replica.report(), restored.report());
    // The announced close reaches the log like any other.
    restored.persist_to(&fresh_path).unwrap();
    let mut again = CorpusSession::new(&spec);
    assert_eq!(again.recover_from(&fresh_path).unwrap().last_seq, 3);
    assert_eq!(again.num_docs(), 1);
    let _ = std::fs::remove_file(&fresh_path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corpus_recheck_panic_retries_then_quarantines_then_heals() {
    let _guard = serial();
    let spec = school_spec();
    let mut corpus = CorpusSession::new(&spec);
    let h = corpus.open_source("a.xml", CLEAN_DOC).unwrap();
    corpus.commit();

    // One transient panic: the recheck retries after an index rebuild and
    // the commit still produces a verdict.
    corpus.apply(h, &[set_name(&spec, "Ann")]).unwrap();
    faults::configure("corpus.recheck", FaultMode::Nth(1));
    quiet_panics(|| corpus.commit());
    faults::disarm("corpus.recheck");
    let report = corpus.report();
    assert_eq!(
        report.panicked_count(),
        0,
        "one panic must be absorbed by the retry"
    );
    assert!(report.reports()[0].is_clean());

    // A persistent panic (the retry fires too) quarantines the document
    // instead of taking the commit down.
    corpus.apply(h, &[set_name(&spec, "Bob")]).unwrap();
    faults::configure(
        "corpus.recheck",
        FaultMode::Probability {
            seed: 1,
            permille: 1000,
        },
    );
    let delta = quiet_panics(|| corpus.commit());
    faults::disarm("corpus.recheck");
    let change = delta
        .changes
        .iter()
        .find(|c| c.handle == h)
        .expect("the fault is a reported transition");
    assert!(
        matches!(change.report.fault, Some(DocFault::Panic { .. })),
        "{:?}",
        change.report
    );

    // Once the panic source is gone, the next commit heals the verdict.
    corpus.apply(h, &[set_name(&spec, "Eve")]).unwrap();
    let delta = corpus.commit();
    let change = delta.changes.iter().find(|c| c.handle == h).unwrap();
    assert!(change.report.fault.is_none(), "{:?}", change.report);
    assert!(corpus.report().reports()[0].is_clean());
}

#[test]
fn transient_journal_io_faults_are_retried_to_success() {
    let _guard = serial();
    let spec = school_spec();
    let path = temp_log("retry");
    let mut session = CorpusSession::new(&spec);
    let h = session.open_source("a.xml", CLEAN_DOC).unwrap();

    // Fresh write and its sync each absorb one transient fault.
    faults::configure("journal.write", FaultMode::Nth(1));
    faults::configure("journal.sync", FaultMode::Nth(1));
    session
        .persist_to(&path)
        .expect("one Interrupted per stage is retried");
    assert_eq!(faults::fired("journal.write"), 1);
    assert_eq!(faults::fired("journal.sync"), 1);

    // So does the append path.
    session.apply(h, &[set_name(&spec, "Ann")]).unwrap();
    faults::configure("journal.append", FaultMode::Nth(1));
    session
        .persist_to(&path)
        .expect("append retries transient faults");
    assert_eq!(faults::fired("journal.append"), 1);
    faults::reset();

    // The log the retries produced recovers into the exact live state.
    let mut replica = CorpusSession::new(&spec);
    replica.recover_from(&path).unwrap();
    let name = spec.dtd().attr_by_name("name").unwrap();
    assert_eq!(
        replica.tree(h).unwrap().attr_value(NodeId(1), name),
        Some("Ann")
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn snapshot_encode_fault_is_a_structured_error_and_the_path_survives() {
    let _guard = serial();
    let spec = school_spec();
    let path = temp_log("snap");
    let mut session = CorpusSession::new(&spec);
    session.open_source("a.xml", CLEAN_DOC).unwrap();

    faults::configure("journal.snapshot_encode", FaultMode::Nth(1));
    let err = session.persist_to(&path).unwrap_err();
    faults::reset();
    assert!(
        err.to_string()
            .contains("injected fault: journal.snapshot_encode"),
        "{err}"
    );
    // The fault fired before any byte landed, so the path is still fresh
    // and the retry persists (and recovers) normally.
    session.persist_to(&path).unwrap();
    let mut replica = CorpusSession::new(&spec);
    assert!(replica.recover_from(&path).is_ok());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exhausted_io_retries_reject_and_keep_the_durable_prefix() {
    let _guard = serial();
    let spec = school_spec();
    let path = temp_log("exhaust");
    let mut session = CorpusSession::new(&spec);
    let h = session.open_source("a.xml", CLEAN_DOC).unwrap();
    session.persist_to(&path).unwrap();

    // Every retry attempt faults: the persist surfaces a structured error.
    session.apply(h, &[set_name(&spec, "Ann")]).unwrap();
    faults::configure(
        "journal.append",
        FaultMode::Probability {
            seed: 7,
            permille: 1000,
        },
    );
    let err = session.persist_to(&path).unwrap_err();
    faults::reset();
    assert!(
        err.to_string().contains("injected fault: journal.append"),
        "{err}"
    );

    // The durable prefix is unharmed: recovery yields the pre-edit state.
    let name = spec.dtd().attr_by_name("name").unwrap();
    let mut replica = CorpusSession::new(&spec);
    replica.recover_from(&path).unwrap();
    assert_eq!(
        replica.tree(h).unwrap().attr_value(NodeId(1), name),
        Some("Joe")
    );

    // And a later, fault-free persist catches the log up.
    session.persist_to(&path).unwrap();
    let mut replica = CorpusSession::new(&spec);
    replica.recover_from(&path).unwrap();
    assert_eq!(
        replica.tree(h).unwrap().attr_value(NodeId(1), name),
        Some("Ann")
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cache_insert_fault_degrades_to_a_miss_not_a_wrong_verdict() {
    let _guard = serial();
    let spec = school_spec();
    let engine = Engine::new();

    faults::configure(
        "cache.insert",
        FaultMode::Probability {
            seed: 3,
            permille: 1000,
        },
    );
    let first = engine.consistency(&spec);
    let second = engine.consistency(&spec);
    faults::disarm("cache.insert");
    // Skipped inserts cost misses, never answers.
    assert_eq!(second.decision(), first.decision());
    let stats = engine.cache().stats();
    assert_eq!(stats.entries, 0, "every insert was degraded to a no-op");
    assert_eq!(stats.misses, 2);

    // With the failpoint cleared the cache resumes filling.
    let third = engine.consistency(&spec);
    assert_eq!(third.decision(), first.decision());
    assert_eq!(engine.cache().stats().entries, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seeded probability faults across every journal failpoint, against a
    /// growing edit history: each persist attempt either succeeds or
    /// rejects with a structured error, and a subsequent fault-free
    /// persist + recovery always reproduces the exact live state — never
    /// a wrong verdict.
    #[test]
    fn journal_faults_recover_or_reject(
        seed in 0u64..10_000,
        permille in 0u32..1001,
        edits in 1usize..6,
    ) {
        let _guard = serial();
        let spec = school_spec();
        let path = temp_log(&format!("prop-{seed}-{permille}-{edits}"));
        let mut session = CorpusSession::new(&spec);
        let h = session.open_source("a.xml", CLEAN_DOC).unwrap();

        for i in 0..edits {
            let value = format!("v{seed}-{i}");
            session.apply(h, &[set_name(&spec, &value)]).unwrap();
            for point in [
                "journal.write",
                "journal.append",
                "journal.sync",
                "journal.snapshot_encode",
            ] {
                faults::configure(
                    point,
                    FaultMode::Probability { seed: seed.wrapping_add(i as u64), permille },
                );
            }
            // Faulted attempt: success or structured rejection, never a
            // panic (a panic would fail the test on its own).
            let _ = session.persist_to(&path);
            faults::reset();

            // Fault-free persist must always complete from whatever state
            // the faulted attempt left behind, and recovery must replay
            // the live document exactly.
            session.persist_to(&path).unwrap();
            let mut replica = CorpusSession::new(&spec);
            replica.recover_from(&path).unwrap();
            prop_assert_eq!(
                replica.tree(h).unwrap().snapshot(),
                session.tree(h).unwrap().snapshot()
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
