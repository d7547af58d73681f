//! Edge cases of the edit layer, driven through a corpus session:
//! close/re-open with op replay, tombstoned-subtree reads after
//! `RemoveSubtree`, and every `EditError` variant surfacing through
//! `CorpusSession::apply`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xml_integrity_constraints::constraints::Violation;
use xml_integrity_constraints::engine::{CompiledSpec, CorpusSession, SessionError};
use xml_integrity_constraints::xml::{write_document, EditError, EditOp, NodeId};

fn school_spec() -> CompiledSpec {
    CompiledSpec::from_sources(
        "<!ELEMENT school (teacher*)>\n\
         <!ELEMENT teacher (note*)>\n\
         <!ELEMENT note (#PCDATA)>\n\
         <!ATTLIST teacher name CDATA #REQUIRED>\n\
         <!ATTLIST teacher dept CDATA #IMPLIED>",
        Some("school"),
        "teacher.name -> teacher",
    )
    .unwrap()
}

/// Commits a one-document session and returns the document's Σ violations.
fn committed_violations(session: &mut CorpusSession<'_>) -> Vec<Violation> {
    session.commit();
    session.report().reports()[0].violations.clone()
}

/// Close → re-open with op replay: applying the same ops, in
/// order, to a copy of the pristine tree reproduces the edited document
/// node-for-node (the arena allocates deterministically), and the replayed
/// session's verdict — witnesses included — matches the original's.
#[test]
fn journal_replay_reproduces_the_edited_document() {
    let spec = school_spec();
    let dtd = spec.dtd();
    let teacher = dtd.type_by_name("teacher").unwrap();
    let note = dtd.type_by_name("note").unwrap();
    let name = dtd.attr_by_name("name").unwrap();
    let dept = dtd.attr_by_name("dept").unwrap();

    let pristine = spec
        .parse_document(
            "<school><teacher name=\"Joe\"/><teacher name=\"Ann\"><note>hi</note></teacher></school>",
        )
        .unwrap();

    // A mixed random edit history: adds, attribute writes (some displacing,
    // some fresh), text, and removals.
    let mut session = CorpusSession::new(&spec);
    let doc = session.open("doc", pristine.clone()).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let mut applied = Vec::new();
    for step in 0..40 {
        let tree = session.tree(doc).unwrap();
        let elements: Vec<NodeId> = tree.elements().collect();
        let pick = elements[rng.gen_range(0..elements.len())];
        let op = match rng.gen_range(0u32..8) {
            0..=2 => {
                let candidates: Vec<NodeId> = elements
                    .iter()
                    .copied()
                    .filter(|&n| tree.element_type(n) == Some(teacher))
                    .collect();
                if candidates.is_empty() {
                    EditOp::AddElement {
                        parent: tree.root(),
                        ty: teacher,
                    }
                } else {
                    let element = candidates[rng.gen_range(0..candidates.len())];
                    let attr = if rng.gen_bool(0.7) { name } else { dept };
                    EditOp::SetAttr {
                        element,
                        attr,
                        value: format!("v{}", rng.gen_range(0..3u32)),
                    }
                }
            }
            3..=4 => EditOp::AddElement {
                parent: tree.root(),
                ty: teacher,
            },
            5 => {
                let parents: Vec<NodeId> = elements
                    .iter()
                    .copied()
                    .filter(|&n| tree.element_type(n) == Some(teacher))
                    .collect();
                match parents.first() {
                    Some(&p) => EditOp::AddElement {
                        parent: p,
                        ty: note,
                    },
                    None => EditOp::AddText {
                        parent: tree.root(),
                        value: format!("t{step}"),
                    },
                }
            }
            6 => EditOp::AddText {
                parent: pick,
                value: format!("t{step}"),
            },
            _ => {
                let removable: Vec<NodeId> = elements
                    .iter()
                    .copied()
                    .filter(|&n| n != tree.root())
                    .collect();
                match removable.first() {
                    Some(&r) => EditOp::RemoveSubtree { element: r },
                    None => EditOp::AddElement {
                        parent: tree.root(),
                        ty: teacher,
                    },
                }
            }
        };
        session.apply(doc, std::slice::from_ref(&op)).unwrap();
        applied.push(op);
    }

    let final_violations = committed_violations(&mut session);
    let edited = session.close(doc).unwrap();

    // Replay the ops onto the pristine copy in a fresh session.
    let mut replayed = CorpusSession::new(&spec);
    let doc = replayed.open("doc", pristine).unwrap();
    for op in &applied {
        replayed.apply(doc, std::slice::from_ref(op)).unwrap();
    }
    assert_eq!(committed_violations(&mut replayed), final_violations);
    // The same ops rebuilt the same arena slot for slot.
    assert_eq!(replayed.tree(doc).unwrap().snapshot(), edited.snapshot());
    let replica = replayed.close(doc).unwrap();
    assert_eq!(replica.num_nodes(), edited.num_nodes());
    assert_eq!(
        write_document(&replica, spec.dtd()),
        write_document(&edited, spec.dtd())
    );
}

/// Tombstoned subtrees stay readable after `RemoveSubtree` — the retraction
/// contract the incremental index depends on — while every live-view
/// accessor excludes them.
#[test]
fn tombstoned_subtree_values_stay_readable() {
    let spec = school_spec();
    let dtd = spec.dtd();
    let teacher = dtd.type_by_name("teacher").unwrap();
    let name = dtd.attr_by_name("name").unwrap();

    let mut session = CorpusSession::new(&spec);
    let doc = session
        .open_source(
            "doc",
            "<school><teacher name=\"Joe\"><note>keep me</note></teacher>\
             <teacher name=\"Ann\"/></school>",
        )
        .unwrap();
    let tree = session.tree(doc).unwrap();
    let joe = tree.ext(teacher).next().unwrap();
    let joe_note = tree
        .children(joe)
        .iter()
        .copied()
        .find(|&n| tree.element_type(n).is_some())
        .unwrap();
    let note_text = tree.children(joe_note)[0];

    session
        .apply(doc, &[EditOp::RemoveSubtree { element: joe }])
        .unwrap();
    let tree = session.tree(doc).unwrap();

    // The whole removed subtree is detached but its values are tombstoned,
    // not erased: attribute and text reads still resolve.
    for node in [joe, joe_note, note_text] {
        assert!(tree.contains(node));
        assert!(tree.is_detached(node));
    }
    assert_eq!(tree.attr_value(joe, name), Some("Joe"));
    assert_eq!(tree.value(note_text), Some("keep me"));

    // Live views exclude the tombstones…
    assert_eq!(tree.ext_count(teacher), 1);
    assert!(tree.elements().all(|n| n != joe && n != joe_note));
    // …and the verdict matches: Ann is the only teacher left.
    assert!(committed_violations(&mut session).is_empty());
}

/// Every [`EditError`] variant surfaces through `CorpusSession::apply`, wrapped
/// in a [`SessionError::Edit`] that reports the applied prefix.
#[test]
fn every_edit_error_variant_surfaces_through_apply() {
    let spec = school_spec();
    let dtd = spec.dtd();
    let teacher = dtd.type_by_name("teacher").unwrap();
    let name = dtd.attr_by_name("name").unwrap();

    let mut session = CorpusSession::new(&spec);
    let doc = session
        .open_source(
            "doc",
            "<school><teacher name=\"Joe\"><note>x</note></teacher></school>",
        )
        .unwrap();
    let tree = session.tree(doc).unwrap();
    let root = tree.root();
    let joe = tree.ext(teacher).next().unwrap();
    let note_el = tree
        .children(joe)
        .iter()
        .copied()
        .find(|&n| tree.element_type(n).is_some())
        .unwrap();
    let text_node = tree.children(note_el)[0];
    let bogus = NodeId(u32::MAX);

    // UnknownNode: the arena has never seen this id.
    let err = session
        .apply(
            doc,
            &[EditOp::SetAttr {
                element: bogus,
                attr: name,
                value: "X".into(),
            }],
        )
        .unwrap_err();
    assert_eq!(
        err,
        SessionError::Edit {
            index: 0,
            error: EditError::UnknownNode(bogus)
        }
    );

    // NotAnElement: text nodes take no attributes, children or removals.
    for op in [
        EditOp::SetAttr {
            element: text_node,
            attr: name,
            value: "X".into(),
        },
        EditOp::AddElement {
            parent: text_node,
            ty: teacher,
        },
        EditOp::AddText {
            parent: text_node,
            value: "y".into(),
        },
        EditOp::RemoveSubtree { element: text_node },
    ] {
        let err = session.apply(doc, std::slice::from_ref(&op)).unwrap_err();
        assert_eq!(
            err,
            SessionError::Edit {
                index: 0,
                error: EditError::NotAnElement(text_node)
            },
            "{op:?}"
        );
    }

    // RemoveRoot, reported mid-batch with the applied prefix count.
    let err = session
        .apply(
            doc,
            &[
                EditOp::AddElement {
                    parent: root,
                    ty: teacher,
                },
                EditOp::RemoveSubtree { element: root },
            ],
        )
        .unwrap_err();
    assert_eq!(
        err,
        SessionError::Edit {
            index: 1,
            error: EditError::RemoveRoot
        }
    );
    assert_eq!(err.to_string(), "edit op #1 rejected (the document root cannot be removed); the 1 earlier ops of the batch were applied");

    // Detached: any edit aimed at a tombstone.
    session
        .apply(doc, &[EditOp::RemoveSubtree { element: joe }])
        .unwrap();
    for op in [
        EditOp::SetAttr {
            element: joe,
            attr: name,
            value: "X".into(),
        },
        EditOp::AddElement {
            parent: joe,
            ty: teacher,
        },
        EditOp::RemoveSubtree { element: joe },
    ] {
        let err = session.apply(doc, std::slice::from_ref(&op)).unwrap_err();
        assert_eq!(
            err,
            SessionError::Edit {
                index: 0,
                error: EditError::Detached(joe)
            },
            "{op:?}"
        );
    }

    // UnknownHandle rounds out the session-level errors.
    let tree = session.close(doc).unwrap();
    drop(tree);
    assert_eq!(
        session.apply(doc, &[]),
        Err(SessionError::UnknownHandle(doc))
    );

    // Only the *applied* prefix of a rejected batch joins the queue the
    // next commit drains: the rejected op never does.
    session.commit();
    let doc = session
        .open_source("doc", "<school><teacher name=\"Joe\"/></school>")
        .unwrap();
    let root = session.tree(doc).unwrap().root();
    let _ = session
        .apply(
            doc,
            &[
                EditOp::AddElement {
                    parent: root,
                    ty: teacher,
                },
                EditOp::RemoveSubtree { element: root },
            ],
        )
        .unwrap_err();
    assert_eq!(session.queued_ops(), 1);
}
