//! Journal persistence & replication: crash-recover an edited session from
//! its corpus log, and keep a validation replica in sync from the same
//! log's `BatchDelta`s alone.
//!
//! The scenario: a registrar's editing session crashes mid-shift — the
//! process dies, the documents and their edit history must not.  Meanwhile
//! a reporting replica on another box wants the corpus verdicts live,
//! without ever being shipped a document.  Both rest on the same
//! append-only corpus log (`xic_engine::journal`): `open` snapshots and
//! `apply` ops rebuild the session, and one `commit` record per commit
//! feeds the replica.
//!
//! Run with: `cargo run --example journal_replay`

use xml_integrity_constraints::engine::journal::read_log;
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
    let log = std::env::temp_dir().join(format!("xic-example-corpus-{}.xicj", std::process::id()));
    std::fs::remove_file(&log).ok();

    // --- Part 1: a live session, persisted as it goes. ---------------------
    let mut session = CorpusSession::new(&spec);
    let mut replica = CorpusReplica::new(spec.id());
    let registrar = session
        .open_source(
            "registrar.xml",
            r#"<department><course code="db101"/></department>"#,
        )
        .unwrap();
    session
        .open_source(
            "cs.xml",
            r#"<department><course code="cs1"/><enroll course="cs1"/></department>"#,
        )
        .unwrap();
    session.commit();
    let receipt = session.persist_to(&log).expect("log created");
    println!(
        "logged {} records ({} commit) in {} bytes",
        receipt.records_written, receipt.commits_written, receipt.durable_bytes
    );

    // The replica never sees a document: it follows the commits alone.
    replica
        .apply_deltas(session.export_deltas(replica.last_seq()).unwrap())
        .unwrap();
    assert_eq!(replica.report(), session.report());

    // Edit: add a course, give it a clashing code, commit — then one more
    // edit that no commit has seen yet, and persist everything.
    let root = session.tree(registrar).unwrap().root();
    session
        .apply(
            registrar,
            &[EditOp::AddElement {
                parent: root,
                ty: course,
            }],
        )
        .unwrap();
    let added = session.tree(registrar).unwrap().ext(course).nth(1).unwrap();
    let clash = |value: &str| EditOp::SetAttr {
        element: added,
        attr: code,
        value: value.into(),
    };
    session.apply(registrar, &[clash("db101")]).unwrap();
    session.commit();
    println!(
        "live session: registrar.xml clean? {}",
        session.report().reports()[0].is_clean()
    );
    session.apply(registrar, &[clash("db102")]).unwrap();
    let receipt = session.persist_to(&log).expect("appended");
    println!(
        "appended {} records ({} commit); the log now holds {}",
        receipt.records_written, receipt.commits_written, receipt.total_records
    );
    replica
        .apply_deltas(session.export_deltas(replica.last_seq()).unwrap())
        .unwrap();

    // 💥 The process dies here.  A fresh session recovers from the log: the
    // same documents, handles and commit history — live and editable, with
    // the uncommitted edit waiting for the next commit.
    drop(session);
    let mut recovered = CorpusSession::new(&spec);
    let recovery = recovered.recover_from(&log).expect("recovers");
    println!(
        "recovered {} documents ({} dirty) at commit {}, {} ops replayed",
        recovery.docs, recovery.dirty, recovery.last_seq, recovery.ops_replayed
    );
    let delta = recovered.commit();
    println!(
        "next commit {}: registrar.xml clean again? {}",
        delta.seq,
        recovered.report().reports()[0].is_clean()
    );
    recovered
        .persist_to(&log)
        .expect("the recovered session appends");

    // --- Part 2: the replica restarts from the commit records alone. -------
    replica.apply_delta(&delta).unwrap();
    assert_eq!(replica.report(), recovered.report());
    drop(replica);
    let (reborn, truncated) = CorpusReplica::recover_from(&log, spec.id()).unwrap();
    assert!(!truncated);
    assert_eq!(reborn.report(), recovered.report());
    println!(
        "replica recovered from {} ({} commits): {}/{} clean — no document was ever shipped",
        log.display(),
        reborn.last_seq(),
        reborn.report().clean_count(),
        reborn.report().total()
    );
    let corpus_log = read_log(&log, spec.id()).unwrap();
    println!(
        "the log is self-describing: {} records, {} of them commits, {} durable bytes",
        corpus_log.records.len(),
        corpus_log.commits().count(),
        corpus_log.durable_bytes
    );

    std::fs::remove_file(&log).ok();
}
