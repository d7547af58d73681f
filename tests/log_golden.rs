//! Pins the exact bytes [`CorpusSession::persist_to`] writes for one fixed
//! session script.  The script reaches every placement rule of the corpus
//! log (see `xic_engine::journal`):
//!
//! * a document edited across commits before any persist, whose `open`
//!   snapshot is therefore first logged after those commits;
//! * `apply` records of logged documents, including the applied prefix of
//!   a batch whose last op is rejected;
//! * the close of a logged document with edits the log does not hold yet;
//! * the close of a document a commit announced but no persist logged;
//! * a document opened between persists and edited across two commits,
//!   whose snapshot lands between those commits;
//! * several persists with commits between them, and a persist with
//!   nothing to write.
//!
//! A change to how a session queues what the log lacks must leave these
//! bytes alone; a deliberate change to the format regenerates
//! `tests/golden/session.xicj` from this script.

use std::fs;
use std::path::PathBuf;

use xml_integrity_constraints::engine::{CompiledSpec, CorpusSession, DocHandle};
use xml_integrity_constraints::xml::{EditOp, NodeId};

const GOLDEN: &[u8] = include_bytes!("golden/session.xicj");

fn spec() -> CompiledSpec {
    CompiledSpec::from_sources(
        "<!ELEMENT school (teacher*)>\n\
         <!ELEMENT teacher (note*)>\n\
         <!ELEMENT note (#PCDATA)>\n\
         <!ATTLIST teacher name CDATA #REQUIRED>",
        Some("school"),
        "teacher.name -> teacher",
    )
    .unwrap()
}

fn temp_path() -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("xic-log-golden-{}.xicj", std::process::id()));
    path
}

/// The `n`th teacher element of `doc`.
fn teacher(session: &CorpusSession<'_>, doc: DocHandle, n: usize) -> NodeId {
    let ty = session.spec().dtd().type_by_name("teacher").unwrap();
    session.tree(doc).unwrap().ext(ty).nth(n).unwrap()
}

fn set_name(session: &CorpusSession<'_>, doc: DocHandle, n: usize, value: &str) -> EditOp {
    EditOp::SetAttr {
        element: teacher(session, doc, n),
        attr: session.spec().dtd().attr_by_name("name").unwrap(),
        value: value.to_string(),
    }
}

fn add_teacher(session: &CorpusSession<'_>, doc: DocHandle) -> EditOp {
    EditOp::AddElement {
        parent: session.tree(doc).unwrap().root(),
        ty: session.spec().dtd().type_by_name("teacher").unwrap(),
    }
}

#[test]
fn persisted_log_bytes_are_pinned() {
    let spec = spec();
    let path = temp_path();
    fs::remove_file(&path).ok();
    let source = "<school><teacher name=\"Joe\"/><teacher name=\"Ann\"/></school>";
    let mut s = CorpusSession::new(&spec);

    // `a` is edited across two commits before the first persist logs it.
    let a = s.open_source("a.xml", source).unwrap();
    s.commit();
    s.apply(a, &[set_name(&s, a, 0, "Eve")]).unwrap();
    s.commit();
    s.apply(a, &[add_teacher(&s, a)]).unwrap();
    let b = s.open_source("b.xml", source).unwrap();
    let first = s.persist_to(&path).unwrap();
    assert_eq!((first.records_written, first.commits_written), (4, 2));

    // Logged documents: `b` keeps the applied prefix of a rejected batch.
    let root = s.tree(b).unwrap().root();
    let batch = [
        set_name(&s, b, 1, "Joe"),
        add_teacher(&s, b),
        EditOp::RemoveSubtree { element: root },
    ];
    s.apply(b, &batch).unwrap_err();
    s.apply(a, &[set_name(&s, a, 2, "Ann")]).unwrap();
    s.commit();
    // `c` is announced by a commit, then closed before any persist logs it.
    let c = s.open_source("c.xml", source).unwrap();
    s.commit();
    // `b` is closed with an edit the log does not hold yet.
    s.apply(b, &[set_name(&s, b, 2, "Kim")]).unwrap();
    s.close(b).unwrap();
    s.close(c).unwrap();
    s.apply(
        a,
        &[EditOp::AddElement {
            parent: teacher(&s, a, 1),
            ty: spec.dtd().type_by_name("note").unwrap(),
        }],
    )
    .unwrap();
    s.commit();
    let second = s.persist_to(&path).unwrap();
    assert_eq!((second.records_written, second.commits_written), (10, 3));

    // `d` opens between persists and is edited across two commits.
    let d = s.open_source("d.xml", source).unwrap();
    s.commit();
    s.apply(d, &[set_name(&s, d, 1, "Joe")]).unwrap();
    s.commit();
    let third = s.persist_to(&path).unwrap();
    assert_eq!((third.records_written, third.commits_written), (3, 2));
    assert_eq!(s.persist_to(&path).unwrap().records_written, 0);

    let bytes = fs::read(&path).unwrap();
    fs::remove_file(&path).ok();
    assert_eq!(bytes.len(), GOLDEN.len(), "log length moved");
    let first_diff = bytes.iter().zip(GOLDEN).position(|(x, y)| x != y);
    assert_eq!(first_diff, None, "log bytes moved");

    // The pinned log recovers to the live session.
    fs::write(&path, GOLDEN).unwrap();
    let mut recovered = CorpusSession::new(&spec);
    let recovery = recovered.recover_from(&path).unwrap();
    fs::remove_file(&path).ok();
    assert_eq!(
        (recovery.docs, recovery.dirty, recovery.last_seq),
        (2, 0, 7)
    );
    assert_eq!(recovered.report(), s.report());
}
