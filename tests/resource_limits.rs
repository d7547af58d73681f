//! Exact limit enforcement across the `xic-gen` generator families.
//!
//! The resource-governance contract (see `xic_engine::Limits`) promises
//! boundaries, not heuristics: a bound set to precisely a document's
//! measured cost admits it, a bound one below rejects it with a structured
//! error that names the violated limit — never a panic, never an
//! off-by-one, never a partially applied batch.  This suite *measures*
//! each generated document (rendered bytes, node count, element nesting
//! depth) and then probes every boundary at exactly-N and N−1:
//!
//! * the parser budget ([`xic_xml::ParseBudget`]) over proptest-drawn
//!   random DTDs and documents,
//! * [`CorpusSession::open_source`] over the named workload families,
//! * edit admission ([`CorpusSession::apply`]) for the node, depth and
//!   queued-op bounds, asserting rejection is all-or-nothing with the
//!   batch echoed back,
//! * [`CorpusSession`] dirty-document backpressure,
//! * [`CorpusSession::recover_from`], admitted exactly like an open.

use proptest::prelude::*;
use xml_integrity_constraints::engine::{
    CompiledSpec, CorpusSession, LimitKind, Limits, SessionError,
};
use xml_integrity_constraints::gen::{
    fixed_dtd_growing_sigma, inconsistent_fanout_family, keys_only_family, negation_family,
    primary_key_family, random_document, random_dtd, random_unary_constraints,
    unary_consistency_family, ConstraintGenConfig, DocGenConfig, DtdGenConfig, SpecInstance,
};
use xml_integrity_constraints::xml::{
    parse_document_budgeted, write_document, EditOp, ParseBudget, ParseError, ParseLimit, XmlTree,
};

/// Element nesting depth of the document: the maximum, over all elements,
/// of the parent-chain length (root = 1).  This is exactly the quantity
/// the parser's `max_depth` bound meters.
fn element_depth(tree: &XmlTree) -> usize {
    tree.elements()
        .map(|node| {
            let mut depth = 1;
            let mut cursor = node;
            while let Some(parent) = tree.parent(cursor) {
                depth += 1;
                cursor = parent;
            }
            depth
        })
        .max()
        .expect("a document always has a root element")
}

/// Asserts the parser budget boundary is exact for one measured document:
/// the budget at precisely (bytes, nodes, depth) admits it, and each bound
/// lowered by one rejects it naming that limit, with the observed value
/// the first one past the bound.
fn assert_parse_boundary(source: &str, dtd: &xml_integrity_constraints::dtd::Dtd) {
    let exact = parse_document_budgeted(source, dtd, &ParseBudget::UNLIMITED)
        .expect("an unlimited budget admits every well-formed document");
    let bytes = source.len();
    let nodes = exact.num_nodes();
    let depth = element_depth(&exact);

    let admitted = parse_document_budgeted(
        source,
        dtd,
        &ParseBudget {
            max_bytes: Some(bytes),
            max_nodes: Some(nodes),
            max_depth: Some(depth),
        },
    )
    .expect("a budget of exactly the measured cost admits the document");
    assert_eq!(admitted.num_nodes(), nodes, "admission must not truncate");

    for (budget, limit, observed) in [
        (
            ParseBudget {
                max_bytes: Some(bytes - 1),
                ..ParseBudget::UNLIMITED
            },
            ParseLimit::Bytes,
            bytes,
        ),
        (
            ParseBudget {
                max_nodes: Some(nodes - 1),
                ..ParseBudget::UNLIMITED
            },
            ParseLimit::Nodes,
            nodes,
        ),
        (
            ParseBudget {
                max_depth: Some(depth - 1),
                ..ParseBudget::UNLIMITED
            },
            ParseLimit::Depth,
            depth,
        ),
    ] {
        // A one-element document has depth 1; `max_depth: 0` still rejects
        // it (the root trips the bound), so no case is skipped.
        let err = parse_document_budgeted(source, dtd, &budget)
            .expect_err("a budget one below the measured cost must reject");
        match err {
            ParseError::Budget(b) => {
                assert_eq!(b.limit, limit, "wrong limit named: {b}");
                assert_eq!(
                    b.observed, observed,
                    "observed must be the first value past the bound: {b}"
                );
            }
            ParseError::Xml(e) => panic!("budget rejection must be structured, got XML error {e}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parser-budget boundaries are exact for random DTDs and documents.
    #[test]
    fn parse_budget_boundaries_are_exact(seed in 0u64..5_000, doc_seed in 0u64..5_000) {
        let dtd = random_dtd(&DtdGenConfig {
            seed,
            num_types: 5,
            ..Default::default()
        });
        let Some(tree) = random_document(
            &dtd,
            &DocGenConfig {
                seed: doc_seed,
                max_elements: 24,
                value_pool: 4,
                ..Default::default()
            },
        ) else {
            // Some random DTDs admit no finite document; nothing to meter.
            return Ok(());
        };
        let source = write_document(&tree, &dtd);
        assert_parse_boundary(&source, &dtd);
    }

    /// Edit admission boundaries are exact, and rejection is all-or-nothing:
    /// the document is untouched and the whole batch comes back in the echo.
    #[test]
    fn edit_admission_boundaries_are_exact(extra in 1usize..8) {
        let spec = school_spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();

        // `max_doc_nodes`: each AddElement costs one node.
        let mut session = CorpusSession::new(&spec);
        let doc = session.open_source("doc", "<school><teacher name=\"Joe\"/></school>").unwrap();
        let before = session.tree(doc).unwrap().num_nodes();
        let root = session.tree(doc).unwrap().root();
        let ops: Vec<EditOp> = (0..extra)
            .map(|_| EditOp::AddElement { parent: root, ty: teacher })
            .collect();

        let mut tight = CorpusSession::with_limits(&spec, Limits {
            max_doc_nodes: Some(before + extra - 1),
            ..Limits::UNLIMITED
        });
        let doc = tight.open_source("doc", "<school><teacher name=\"Joe\"/></school>").unwrap();
        let err = tight.apply(doc, &ops).expect_err("one node over the bound must reject");
        let SessionError::Resource(r) = err else {
            panic!("expected a structured resource rejection, got {err}");
        };
        prop_assert_eq!(r.limit, LimitKind::DocNodes);
        prop_assert_eq!(r.observed, (before + extra) as u64);
        prop_assert_eq!(r.rejected.len(), ops.len(), "the whole batch is echoed back");
        prop_assert_eq!(
            tight.tree(doc).unwrap().num_nodes(),
            before,
            "rejection must leave the document untouched"
        );
        // Exactly at the bound the same batch is admitted whole.
        tight.apply(doc, &ops).expect_err("still one over; widen first");
        let mut exact = CorpusSession::with_limits(&spec, Limits {
            max_doc_nodes: Some(before + extra),
            ..Limits::UNLIMITED
        });
        let doc = exact.open_source("doc", "<school><teacher name=\"Joe\"/></school>").unwrap();
        exact.apply(doc, &ops).expect("exactly at the bound admits the batch");
        prop_assert_eq!(exact.tree(doc).unwrap().num_nodes(), before + extra);

        // `max_queued_ops`: bounds the batch length itself.
        let mut queued = CorpusSession::with_limits(&spec, Limits {
            max_queued_ops: Some(ops.len() - 1),
            ..Limits::UNLIMITED
        });
        let doc = queued.open_source("doc", "<school><teacher name=\"Joe\"/></school>").unwrap();
        let err = queued.apply(doc, &ops).expect_err("batch longer than the queue bound");
        let SessionError::Resource(r) = err else {
            panic!("expected a structured resource rejection, got {err}");
        };
        prop_assert_eq!(r.limit, LimitKind::QueuedOps);
        prop_assert_eq!(r.rejected.len(), ops.len());
        let mut queued_ok = CorpusSession::with_limits(&spec, Limits {
            max_queued_ops: Some(ops.len()),
            ..Limits::UNLIMITED
        });
        let doc = queued_ok.open_source("doc", "<school><teacher name=\"Joe\"/></school>").unwrap();
        queued_ok.apply(doc, &ops).expect("a batch of exactly the bound is admitted");
    }
}

fn school_spec() -> CompiledSpec {
    CompiledSpec::from_sources(
        "<!ELEMENT school (teacher*)>\n\
         <!ELEMENT teacher EMPTY>\n\
         <!ATTLIST teacher name CDATA #IMPLIED>",
        Some("school"),
        "",
    )
    .expect("the school spec compiles")
}

/// The named workload families, through the session's open door: the
/// measured cost admits, one below rejects as [`SessionError::Resource`]
/// naming the violated limit.
#[test]
fn session_open_boundaries_hold_across_workload_families() {
    let families: Vec<(&str, Vec<SpecInstance>)> = vec![
        ("chain", unary_consistency_family(&[3])),
        ("fanout", inconsistent_fanout_family(&[2])),
        ("primary_key", primary_key_family(&[5], 11)),
        ("keys_only", keys_only_family(&[5], 12)),
        ("fixed_dtd", fixed_dtd_growing_sigma(4, &[4], 13)),
        ("negation", negation_family(&[3], 14)),
    ];
    let mut probed = 0usize;
    for (family, instances) in families {
        for instance in instances {
            let Ok(spec) = CompiledSpec::compile(instance.dtd, instance.sigma) else {
                continue;
            };
            let Some(tree) = random_document(
                spec.dtd(),
                &DocGenConfig {
                    seed: 33,
                    max_elements: 12,
                    value_pool: 3,
                    ..Default::default()
                },
            ) else {
                continue;
            };
            let source = write_document(&tree, spec.dtd());
            assert_parse_boundary(&source, spec.dtd());

            let bytes = source.len();
            let nodes = tree.num_nodes();
            let depth = element_depth(&tree);
            let exact = Limits {
                max_doc_bytes: Some(bytes),
                max_doc_nodes: Some(nodes),
                max_depth: Some(depth),
                ..Limits::UNLIMITED
            };
            CorpusSession::with_limits(&spec, exact)
                .open_source(family, &source)
                .unwrap_or_else(|e| panic!("{family}: exact limits must admit: {e}"));

            for (limits, kind) in [
                (
                    Limits {
                        max_doc_bytes: Some(bytes - 1),
                        ..Limits::UNLIMITED
                    },
                    LimitKind::DocBytes,
                ),
                (
                    Limits {
                        max_doc_nodes: Some(nodes - 1),
                        ..Limits::UNLIMITED
                    },
                    LimitKind::DocNodes,
                ),
                (
                    Limits {
                        max_depth: Some(depth - 1),
                        ..Limits::UNLIMITED
                    },
                    LimitKind::NestingDepth,
                ),
            ] {
                let err = CorpusSession::with_limits(&spec, limits)
                    .open_source(family, &source)
                    .expect_err("one below the measured cost must reject");
                let SessionError::Resource(r) = err else {
                    panic!("{family}: expected a resource rejection, got {err}");
                };
                assert_eq!(r.limit, kind, "{family}: wrong limit named");
            }
            probed += 1;
        }
    }
    assert!(
        probed >= 5,
        "the workload families must actually probe boundaries (probed {probed})"
    );
}

/// Random unary constraint sets don't change admission: limits meter the
/// document, not the specification.
#[test]
fn constraints_do_not_perturb_admission_boundaries() {
    let dtd = random_dtd(&DtdGenConfig {
        seed: 7,
        num_types: 6,
        ..Default::default()
    });
    let sigma = random_unary_constraints(
        &dtd,
        &ConstraintGenConfig {
            keys: 2,
            foreign_keys: 2,
            seed: 7,
            ..Default::default()
        },
    );
    let Ok(spec) = CompiledSpec::compile(dtd, sigma) else {
        return;
    };
    let Some(tree) = random_document(
        spec.dtd(),
        &DocGenConfig {
            seed: 7,
            max_elements: 16,
            value_pool: 3,
            ..Default::default()
        },
    ) else {
        return;
    };
    let source = write_document(&tree, spec.dtd());
    let nodes = tree.num_nodes();
    CorpusSession::with_limits(
        &spec,
        Limits {
            max_doc_nodes: Some(nodes),
            ..Limits::UNLIMITED
        },
    )
    .open_source("doc", &source)
    .expect("the node boundary is the document's, not the spec's");
    let err = CorpusSession::with_limits(
        &spec,
        Limits {
            max_doc_nodes: Some(nodes - 1),
            ..Limits::UNLIMITED
        },
    )
    .open_source("doc", &source)
    .expect_err("one node below must reject regardless of Σ");
    assert!(
        matches!(err, SessionError::Resource(ref r) if r.limit == LimitKind::DocNodes),
        "expected a DocNodes rejection, got {err}"
    );
}

/// Corpus dirty-document backpressure is exact: `max_dirty_docs` admits
/// exactly that many opens, and the next one is shed with a structured
/// rejection pointing at the commit that would drain the set.
#[test]
fn corpus_dirty_doc_backpressure_is_exact() {
    let spec = school_spec();
    let cap = 3usize;
    let mut corpus = CorpusSession::with_limits(
        &spec,
        Limits {
            max_dirty_docs: Some(cap),
            ..Limits::UNLIMITED
        },
    );
    for i in 0..cap {
        corpus
            .open_source(format!("doc-{i}"), "<school/>")
            .expect("opens up to the cap are admitted");
    }
    let err = corpus
        .open_source("doc-overflow", "<school/>")
        .expect_err("the open past the cap is shed");
    let SessionError::Resource(r) = err else {
        panic!("expected a structured resource rejection, got {err}");
    };
    assert_eq!(r.limit, LimitKind::DirtyDocs);
    assert_eq!(r.limit_value, cap as u64);
    assert_eq!(r.observed, (cap + 1) as u64);

    // Committing drains the dirty set; the shed document is admitted on retry.
    corpus
        .try_commit()
        .expect("an unlimited-deadline commit runs");
    corpus
        .open_source("doc-overflow", "<school/>")
        .expect("after the commit drains the set, the retry is admitted");
}

/// Recovery is an open: the dirty-set bound (on the documents the log
/// leaves dirty) and `max_doc_nodes` (metered on the replayed tree) admit at
/// exactly the recovered session's cost and reject one below as
/// [`SessionError::Resource`] — opening nothing.
#[test]
fn recovery_admission_boundaries_are_exact() {
    let spec = school_spec();
    let teacher = spec.dtd().type_by_name("teacher").unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("xic-resource-limits-{}.xicj", std::process::id()));
    std::fs::remove_file(&path).ok();

    // A logged document that grew past its snapshot: the bound must meter
    // the replayed tree, not the logged snapshot.  A second document opened
    // after the last commit leaves two documents dirty.
    let mut live = CorpusSession::new(&spec);
    let doc = live
        .open_source("doc", "<school><teacher name=\"Joe\"/></school>")
        .unwrap();
    live.persist_to(&path).unwrap();
    let root = live.tree(doc).unwrap().root();
    let add = EditOp::AddElement {
        parent: root,
        ty: teacher,
    };
    live.apply(doc, &[add.clone(), add]).unwrap();
    live.open_source("other", "<school/>").unwrap();
    live.persist_to(&path).unwrap();
    let nodes = live.tree(doc).unwrap().num_nodes();

    let limited = |limits: Limits| CorpusSession::with_limits(&spec, limits);
    let mut exact = limited(Limits {
        max_doc_nodes: Some(nodes),
        ..Limits::UNLIMITED
    });
    let recovery = exact
        .recover_from(&path)
        .expect("exactly at the bound admits the recovery");
    assert_eq!(exact.tree(doc).unwrap().num_nodes(), nodes);
    assert_eq!((recovery.docs, recovery.dirty), (2, 2));

    let mut tight = limited(Limits {
        max_doc_nodes: Some(nodes - 1),
        ..Limits::UNLIMITED
    });
    let err = tight
        .recover_from(&path)
        .expect_err("one node below must reject");
    let SessionError::Resource(r) = err else {
        panic!("expected a structured resource rejection, got {err}");
    };
    assert_eq!(r.limit, LimitKind::DocNodes);
    assert_eq!(r.observed, nodes as u64);
    assert_eq!(tight.num_docs(), 0, "a rejected recovery opens nothing");
    assert_eq!(tight.commit().total, 0);

    // The dirty-set bound: one slot short of the documents the log leaves
    // dirty sheds the recovery; exactly enough admits it.
    let mut full = limited(Limits {
        max_dirty_docs: Some(1),
        ..Limits::UNLIMITED
    });
    let err = full
        .recover_from(&path)
        .expect_err("a dirty set one short must reject");
    let SessionError::Resource(r) = err else {
        panic!("expected a structured resource rejection, got {err}");
    };
    assert_eq!(r.limit, LimitKind::DirtyDocs);
    assert_eq!(r.observed, 2);
    assert_eq!(full.num_docs(), 0, "a rejected recovery opens nothing");
    let mut roomy = limited(Limits {
        max_dirty_docs: Some(2),
        ..Limits::UNLIMITED
    });
    roomy
        .recover_from(&path)
        .expect("a dirty set exactly as large as the log's admits the recovery");
    assert_eq!(roomy.num_docs(), 2);
    std::fs::remove_file(&path).ok();
}
