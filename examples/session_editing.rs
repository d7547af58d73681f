//! Editing a live document and re-validating it incrementally.
//!
//! The repair loop the paper's checking problem runs inside in practice:
//! load a document once, then alternate edits and re-checks until the data
//! is clean.  A [`CorpusSession`] keeps the satisfaction indexes exact
//! under every edit, so each commit re-checks `T ⊨ (D, Σ)` for the edited
//! document at O(edit) cost for Σ instead of a rebuild — and its metrics
//! report how many constraints it actually had to re-examine.
//!
//! Run with: `cargo run --example session_editing`

use xml_integrity_constraints::engine::{CompiledSpec, CorpusSession};
use xml_integrity_constraints::xml::EditOp;

const DTD: &str = r#"
    <!ELEMENT school (course*, enroll*)>
    <!ELEMENT course EMPTY>
    <!ELEMENT enroll EMPTY>
    <!ATTLIST course code CDATA #REQUIRED>
    <!ATTLIST enroll course CDATA #REQUIRED>
"#;

const SIGMA: &str = "
    course.code -> course
    enroll.course ref course.code
";

const DOC: &str = r#"<school>
    <course code="db101"/>
    <course code="db101"/>
    <enroll course="ml305"/>
</school>"#;

/// Commits and prints the document's report; returns whether it is clean
/// and how many constraints the commit recomputed.
fn commit_and_show(session: &mut CorpusSession<'_>) -> (bool, u64) {
    let rechecked = |session: &CorpusSession<'_>| {
        session
            .registry()
            .snapshot()
            .counter("shard.rechecked")
            .unwrap_or(0)
    };
    let before = rechecked(session);
    session.commit();
    let report = session.report();
    let doc = &report.reports()[0];
    for error in &doc.validation_errors {
        println!("  structural error: {error}");
    }
    for v in &doc.violations {
        println!("  violation: {v}");
    }
    (doc.is_clean(), rechecked(session) - before)
}

fn main() {
    let spec = CompiledSpec::from_sources(DTD, Some("school"), SIGMA).expect("spec compiles");
    let course = spec.dtd().type_by_name("course").unwrap();
    let code = spec.dtd().attr_by_name("code").unwrap();

    // A private registry, so the recheck counter sees only this session.
    let mut session = CorpusSession::with_registry(&spec, Default::default());
    let doc = session
        .open_source("school.xml", DOC)
        .expect("document parses");

    // Two problems: a duplicate course code, and an enrolment referencing a
    // course that does not exist.
    println!("== initial document ==");
    commit_and_show(&mut session);

    // Repair 1: rename the duplicate course.  Only the constraints whose
    // slots mention course.code are re-checked.
    let dup = session.tree(doc).unwrap().ext(course).nth(1).unwrap();
    session
        .apply(
            doc,
            &[EditOp::SetAttr {
                element: dup,
                attr: code,
                value: "ml305".into(),
            }],
        )
        .unwrap();
    println!("\n== after renaming the duplicate course to ml305 ==");
    let (clean, rechecked) = commit_and_show(&mut session);
    println!(
        "  re-checked {rechecked} of {} constraints",
        spec.sigma().len()
    );
    assert!(clean, "one edit fixed both problems");

    // Break it again: removing the ml305 course re-dangles the enrolment.
    let ml305 = session.tree(doc).unwrap().ext(course).nth(1).unwrap();
    session
        .apply(doc, &[EditOp::RemoveSubtree { element: ml305 }])
        .unwrap();
    println!("\n== after removing the ml305 course ==");
    let (clean, _) = commit_and_show(&mut session);
    assert!(!clean);

    // The session counted every edit; the edited tree survives it.
    let edits = session.registry().snapshot().counter("corpus.edits");
    println!(
        "\n{} edits applied; closing returns the edited tree",
        edits.unwrap_or(0)
    );
    let tree = session.close(doc).unwrap();
    println!("final document: {} live nodes", tree.num_nodes());
}
