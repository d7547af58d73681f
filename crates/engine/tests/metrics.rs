//! End-to-end metrics coverage: sessions, corpora, the decision procedures
//! and the journal all record into a shared registry, and [`EngineMetrics`]
//! snapshots cover the full instrument inventory.
//!
//! Everything here runs on **private** registries (or asserts only
//! monotone facts about the global one), so the suite stays correct under
//! `cargo test` thread interleaving.

#![cfg(not(feature = "telemetry-off"))]

use std::sync::Arc;

use xic_engine::{BatchDoc, BatchEngine, CompiledSpec, CorpusSession, EngineMetrics, Transition};
use xic_telemetry::MetricsRegistry;
use xic_xml::EditOp;

fn spec() -> CompiledSpec {
    CompiledSpec::from_sources(
        "<!ELEMENT school (teacher*)>\n\
         <!ELEMENT teacher EMPTY>\n\
         <!ATTLIST teacher name CDATA #REQUIRED>",
        Some("school"),
        "teacher.name -> teacher",
    )
    .unwrap()
}

const CLEAN: &str = "<school><teacher name=\"Joe\"/><teacher name=\"Ann\"/></school>";
const DUP: &str = "<school><teacher name=\"Joe\"/><teacher name=\"Joe\"/></school>";

#[test]
fn corpus_session_records_commit_metrics_on_its_registry() {
    let spec = spec();
    let registry = Arc::new(MetricsRegistry::new());
    let mut corpus = CorpusSession::with_registry(&spec, Arc::clone(&registry));

    let a = corpus.open_source("a", CLEAN).unwrap();
    let _b = corpus.open_source("b", DUP).unwrap();
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.gauge("corpus.open_docs"), Some(2));
    assert_eq!(snapshot.gauge("corpus.dirty_docs"), Some(2));

    let delta = corpus.commit();
    // Both documents opened; one violates the key.
    let summary = delta.summary();
    assert_eq!(summary.docs_changed, 2);
    assert_eq!(summary.opened, 2);
    assert_eq!(summary.violations_now, 1);
    assert_eq!(
        delta.changes[0].transition(),
        Transition::OpenedClean,
        "doc a opened clean"
    );
    assert_eq!(delta.changes[1].transition(), Transition::OpenedViolating);

    // Rename Ann -> Joe: a flips clean -> violating.
    let tree = corpus.tree(a).unwrap();
    let teacher = tree.elements().nth(2).expect("two teacher elements");
    let attr = spec.dtd().attr_by_name("name").unwrap();
    corpus
        .apply(
            a,
            &[EditOp::SetAttr {
                element: teacher,
                attr,
                value: "Joe".into(),
            }],
        )
        .unwrap();
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("corpus.nodes_revalidated"), Some(0));
    assert_eq!(snapshot.counter("corpus.edits"), Some(1));
    assert_eq!(snapshot.gauge("corpus.queued_ops"), Some(1));
    assert_eq!(snapshot.gauge("corpus.dirty_docs"), Some(1));

    let delta = corpus.commit();
    assert_eq!(delta.changes[0].transition(), Transition::ToViolating);
    assert!(delta.changes[0].transition().is_flip());
    assert_eq!(delta.summary().flips(), 1);

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("corpus.commits"), Some(2));
    // First commit surfaced one violating doc, the second another.
    assert_eq!(snapshot.counter("corpus.violations_added"), Some(2));
    assert_eq!(snapshot.counter("corpus.violations_removed"), Some(0));
    // The single SetAttr re-checked one element's structure, not the tree.
    assert_eq!(snapshot.counter("corpus.nodes_revalidated"), Some(1));
    assert_eq!(snapshot.gauge("corpus.dirty_docs"), Some(0));
    assert_eq!(snapshot.gauge("corpus.queued_ops"), Some(0));
    let commit_ns = snapshot.histogram("corpus.commit_ns").unwrap();
    assert_eq!(commit_ns.count, 2);
    let recheck = snapshot.histogram("corpus.recheck_ns").unwrap();
    assert_eq!(recheck.count, 3, "two opens + one re-check");
    let delta_changes = snapshot.histogram("corpus.delta_changes").unwrap();
    assert_eq!(delta_changes.count, 2);
}

#[test]
fn violation_counters_count_each_constraint_that_flips() {
    let spec = CompiledSpec::from_sources(
        "<!ELEMENT school (teacher*)>\n\
         <!ELEMENT teacher EMPTY>\n\
         <!ATTLIST teacher name CDATA #REQUIRED>\n\
         <!ATTLIST teacher room CDATA #REQUIRED>",
        Some("school"),
        "teacher.name -> teacher\nteacher.room -> teacher",
    )
    .unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let mut corpus = CorpusSession::with_registry(&spec, Arc::clone(&registry));
    let doc = corpus
        .open_source(
            "a",
            "<school><teacher name=\"Joe\" room=\"1\"/>\
             <teacher name=\"Joe\" room=\"2\"/></school>",
        )
        .unwrap();
    corpus.commit();
    let counters = |registry: &MetricsRegistry| {
        let snapshot = registry.snapshot();
        (
            snapshot.counter("corpus.violations_added"),
            snapshot.counter("corpus.violations_removed"),
        )
    };
    assert_eq!(counters(&registry), (Some(1), Some(0)), "the name key");

    // One commit fixes the name key and breaks the room key: the report
    // still holds one violation, but one was removed and one added.
    let second = corpus.tree(doc).unwrap().elements().nth(2).unwrap();
    let attr = |name: &str| spec.dtd().attr_by_name(name).unwrap();
    corpus
        .apply(
            doc,
            &[
                EditOp::SetAttr {
                    element: second,
                    attr: attr("name"),
                    value: "Ann".into(),
                },
                EditOp::SetAttr {
                    element: second,
                    attr: attr("room"),
                    value: "1".into(),
                },
            ],
        )
        .unwrap();
    let delta = corpus.commit();
    assert_eq!(delta.changes[0].transition(), Transition::StillViolating);
    assert_eq!(delta.changes[0].report.violations.len(), 1);
    assert_eq!(counters(&registry), (Some(2), Some(1)));
}

#[test]
fn journal_persist_and_read_record_global_counters() {
    // The journal records on the process-global registry (journals are
    // process-wide resources), so assert monotone deltas, not absolutes.
    let spec = spec();
    let registry = EngineMetrics::global_registry();
    let before = registry.snapshot();
    let bytes_before = before.counter("journal.bytes_written").unwrap_or(0);
    let appended_before = before.counter("journal.records_appended").unwrap_or(0);
    let read_before = before.counter("journal.records_read").unwrap_or(0);
    let persists = |snapshot: &xic_telemetry::RegistrySnapshot| {
        snapshot
            .histogram("journal.persist_ns")
            .map_or(0, |h| h.count)
    };
    let persists_before = persists(&before);

    let mut session = xic_engine::CorpusSession::new(&spec);
    session.open_source("a.xml", CLEAN).unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("xic-metrics-test-{}.xicj", std::process::id()));
    std::fs::remove_file(&path).ok();
    session.persist_to(&path).unwrap();
    xic_engine::read_log(&path, spec.id()).unwrap();
    std::fs::remove_file(&path).ok();

    let after = registry.snapshot();
    assert!(after.counter("journal.bytes_written").unwrap() > bytes_before);
    assert!(after.counter("journal.records_appended").unwrap() > appended_before);
    assert!(after.counter("journal.records_read").unwrap() > read_before);
    if registry.timing_enabled() {
        assert!(persists(&after) > persists_before);
    }
}

#[test]
fn batch_engine_counts_documents_globally() {
    let spec = spec();
    let registry = EngineMetrics::global_registry();
    let before = registry.snapshot().counter("batch.docs").unwrap_or(0);
    let docs = vec![BatchDoc::new("a", CLEAN), BatchDoc::new("b", DUP)];
    let report = BatchEngine::new(2).validate_batch(&spec, &docs);
    assert_eq!(report.clean_count(), 1);
    let after = registry.snapshot().counter("batch.docs").unwrap();
    assert!(after >= before + 2);
}

#[test]
fn parsing_counts_source_bytes_globally() {
    // The parser records on the process-global registry, and other tests
    // parse concurrently, so assert monotone deltas only.
    let spec = spec();
    let registry = EngineMetrics::global_registry();
    let counters = |name: &str| registry.snapshot().counter(name).unwrap_or(0);
    let (bytes_before, docs_before) = (counters("parse.bytes"), counters("parse.docs"));
    spec.parse_document(DUP).unwrap();
    assert!(counters("parse.bytes") >= bytes_before + DUP.len() as u64);
    assert!(counters("parse.docs") > docs_before);
    // A rejected document was still read: its bytes count too.
    assert!(spec.parse_document("<school>").is_err());
    assert!(counters("parse.bytes") >= bytes_before + (DUP.len() + "<school>".len()) as u64);
}

#[test]
fn deciding_d1_sigma1_records_presolve_and_decision_spans_globally() {
    // The ILP solver publishes on the process-global registry, and other
    // tests solve concurrently, so assert monotone deltas only.
    let registry = EngineMetrics::global_registry();
    let before = registry.snapshot();
    let removed = |snapshot: &xic_telemetry::RegistrySnapshot| {
        snapshot.counter("ilp.presolve_rows_removed").unwrap_or(0)
    };
    let spans = |snapshot: &xic_telemetry::RegistrySnapshot, name: &str| {
        snapshot.histogram(name).map_or(0, |h| h.count)
    };

    let d1 = xic_dtd::example_d1();
    let sigma1 = xic_constraints::example_sigma1(&d1);
    let outcome = xic_core::ConsistencyChecker::new()
        .check(&d1, &sigma1)
        .unwrap();
    assert!(outcome.is_inconsistent(), "{}", outcome.explanation());

    let after = registry.snapshot();
    assert!(removed(&after) > removed(&before));
    if registry.timing_enabled() {
        assert!(spans(&after, "span.core.system") > spans(&before, "span.core.system"));
        assert!(spans(&after, "span.core.witness") > spans(&before, "span.core.witness"));
    }
}

#[test]
fn capture_covers_the_full_inventory_even_when_idle() {
    let registry = MetricsRegistry::new();
    let metrics = EngineMetrics::capture(&registry);
    for name in [
        "compile.specs",
        "corpus.commits",
        "journal.bytes_written",
        "batch.docs",
        "parse.bytes",
        "ilp.bb_nodes",
        "ilp.lp_calls",
        "ilp.pivots",
        "ilp.presolve_rows_removed",
        "ilp.presolve_vars_removed",
        "ilp.promotions",
    ] {
        assert_eq!(metrics.snapshot.counter(name), Some(0), "{name}");
    }
    for name in ["corpus.commit_ns", "journal.persist_ns", "corpus.apply_ns"] {
        assert!(metrics.snapshot.histogram(name).is_some(), "{name}");
    }
    let text = metrics.render_text();
    assert!(text.contains("journal.persist_ns"));
}
