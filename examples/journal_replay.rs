//! Journal persistence & replication: crash-recover an edited session from
//! its delta log, and keep a validation replica in sync from `BatchDelta`s
//! alone.
//!
//! The scenario: a registrar's editing session crashes mid-shift — the
//! process dies, the document and its edit history must not.  Meanwhile a
//! reporting replica on another box wants the corpus verdicts live,
//! without ever being shipped a document.  Both rest on the same
//! append-only log format (`xic_engine::journal`): base snapshot + edit
//! ops for one document, one `BatchDelta` per commit for a corpus.
//!
//! Run with: `cargo run --example journal_replay`

use xml_integrity_constraints::engine::journal::{append_delta_log, read_delta_log};
use xml_integrity_constraints::engine::{CompiledSpec, CorpusReplica, CorpusSession};
use xml_integrity_constraints::xml::EditOp;

const DTD: &str = r#"
    <!ELEMENT department (course*, enroll*)>
    <!ELEMENT course EMPTY>
    <!ELEMENT enroll EMPTY>
    <!ATTLIST course code CDATA #REQUIRED>
    <!ATTLIST enroll course CDATA #REQUIRED>
"#;

const SIGMA: &str = "
    course.code -> course
    enroll.course ref course.code
";

fn main() {
    let spec = CompiledSpec::from_sources(DTD, Some("department"), SIGMA).expect("spec compiles");
    let code = spec.dtd().attr_by_name("code").unwrap();
    let course = spec.dtd().type_by_name("course").unwrap();
    let dir = std::env::temp_dir();
    let session_log = dir.join(format!("xic-example-session-{}.xicj", std::process::id()));
    let delta_log = dir.join(format!("xic-example-deltas-{}.xicj", std::process::id()));
    std::fs::remove_file(&session_log).ok();
    std::fs::remove_file(&delta_log).ok();

    // --- Part 1: crash recovery of an edited document. -------------------
    let mut session = CorpusSession::new(&spec);
    let doc = session
        .open_source(
            "registrar.xml",
            r#"<department><course code="db101"/></department>"#,
        )
        .unwrap();
    session
        .persist_to(doc, &session_log)
        .expect("base persisted");

    // Edit: add a course, give it a clashing code — then persist the ops.
    let root = session.tree(doc).unwrap().root();
    session
        .apply(
            doc,
            &[EditOp::AddElement {
                parent: root,
                ty: course,
            }],
        )
        .unwrap();
    let added = session.tree(doc).unwrap().ext(course).nth(1).unwrap();
    session
        .apply(
            doc,
            &[EditOp::SetAttr {
                element: added,
                attr: code,
                value: "db101".into(),
            }],
        )
        .unwrap();
    session.commit();
    println!(
        "live session clean? {}",
        session.report().reports()[0].is_clean()
    );
    session.persist_to(doc, &session_log).expect("ops appended");
    // The durable prefix is on disk: the in-memory journal can shrink.
    let dropped = session.compact(doc).unwrap();
    println!("compacted {dropped} journal entries (log holds the history)");

    // 💥 The process dies here.  A fresh session recovers from the log:
    // base snapshot + op replay, witness-identical to the session we lost.
    drop(session);
    let mut recovered = CorpusSession::new(&spec);
    let recovery = recovered
        .recover_from("registrar.xml", &session_log)
        .expect("recovers");
    recovered.commit();
    println!(
        "recovered {} base edits + {} replayed ops; clean? {}",
        recovery.base_edits,
        recovery.ops_replayed,
        recovered.report().reports()[0].is_clean()
    );

    // --- Part 2: a replica fed nothing but deltas. -----------------------
    let mut corpus = CorpusSession::new(&spec);
    let mut replica = CorpusReplica::new(spec.id());
    corpus
        .open_source(
            "math.xml",
            r#"<department><course code="db101"/><enroll course="db101"/></department>"#,
        )
        .unwrap();
    corpus
        .open_source("cs.xml", r#"<department><course code="cs1"/></department>"#)
        .unwrap();
    corpus.commit();

    // Ship the new deltas: append to the durable log, apply to the replica.
    let fresh = corpus.export_deltas(replica.last_seq()).unwrap();
    append_delta_log(&delta_log, spec.id(), fresh).unwrap();
    replica.apply_deltas(fresh).unwrap();
    assert_eq!(replica.report(), corpus.report());
    println!(
        "replica mirrors {} documents after commit {}",
        replica.num_docs(),
        replica.last_seq()
    );

    // An edit flips math.xml to violating; the replica follows the delta.
    let math = corpus.handle_by_label("math.xml").unwrap();
    let enroll_node = corpus.tree(math).unwrap().elements().nth(2).unwrap();
    let enroll_course = spec.dtd().attr_by_name("course").unwrap();
    corpus
        .apply(
            math,
            &[EditOp::SetAttr {
                element: enroll_node,
                attr: enroll_course,
                value: "missing".into(),
            }],
        )
        .unwrap();
    corpus.commit();
    let fresh = corpus.export_deltas(replica.last_seq()).unwrap();
    append_delta_log(&delta_log, spec.id(), fresh).unwrap();
    replica.apply_deltas(fresh).unwrap();
    assert_eq!(replica.report(), corpus.report());
    println!(
        "after commit {}: {}/{} clean on the replica — no document was ever shipped",
        replica.last_seq(),
        replica.report().clean_count(),
        replica.report().total()
    );

    // The replica itself restarts: recover from the delta log alone.
    drop(replica);
    let (reborn, truncated) = CorpusReplica::recover_from(&delta_log, spec.id()).unwrap();
    assert!(!truncated);
    assert_eq!(reborn.report(), corpus.report());
    println!(
        "replica recovered from {} ({} commits) and still agrees",
        delta_log.display(),
        reborn.last_seq()
    );
    let log = read_delta_log(&delta_log, spec.id()).unwrap();
    println!(
        "the log is self-describing: {} deltas, {} durable bytes",
        log.deltas.len(),
        log.durable_bytes
    );

    std::fs::remove_file(&session_log).ok();
    std::fs::remove_file(&delta_log).ok();
}
