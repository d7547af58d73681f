//! Corpus sessions — single-document edit re-verdicts vs. full batch
//! revalidation.
//!
//! The workload cross-document sessions exist for: a corpus of documents
//! open against one spec, a stream of point edits each touching **one**
//! document, and a corpus-wide verdict wanted after every edit.  Two
//! strategies are timed end to end:
//!
//! 1. **corpus session (incremental)** — route the edit through
//!    `CorpusSession::apply` and take `commit()`: only the edited document
//!    is re-checked (structural validation + incrementally maintained
//!    `T ⊨ Σ`), every other document's report is served from cache, and the
//!    commit emits the `BatchDelta` a subscriber would consume;
//! 2. **full batch revalidation** — what a session-less pipeline does on a
//!    change notification: re-run `BatchEngine::validate_batch` over the
//!    corpus sources (parse + validate + index every document).
//!
//! Verdict identity between the two paths is asserted before timing (the
//! corpus report must equal the cold batch report on the same sources).
//! The headline number (asserted ≥ 20×) is the per-edit speedup;
//! everything is recorded in `BENCH_corpus.json` at the workspace root.

use xic_bench::{
    best_window, catalogue_spec, corpus, edit_stream, fmt_us, header, min_time, min_time_on,
    open_all, record, round1, row, run_edits, us,
};
use xic_engine::{BatchDoc, BatchEngine, CorpusSession};
use xic_gen::{ConstraintGenConfig, DocGenConfig};
use xic_xml::write_document;

const KINDS: usize = 10;
const NUM_DOCS: usize = 32;
/// Edits per timed run (each touches one document, round-robin).
const EDITS_PER_RUN: usize = 32;
/// Runs of the incremental loop per measurement attempt.
const RUNS: usize = 7;
/// Re-measure attempts for the preemption-exposed incremental side.
const ATTEMPTS: usize = 5;

fn main() {
    let spec = catalogue_spec(
        KINDS,
        &ConstraintGenConfig {
            keys: 10,
            foreign_keys: 10,
            inclusions: 4,
            seed: 7,
            ..Default::default()
        },
    );
    let corpus = corpus(
        &spec,
        NUM_DOCS,
        &DocGenConfig {
            seed: 100,
            max_elements: 1_500,
            star_fanout: 120,
            value_pool: 1_000_000,
            ..Default::default()
        },
    );
    // The batch path re-reads the sources per revalidation, which is
    // exactly its cost.
    let sources = &corpus.docs;
    let edits = edit_stream(&corpus.trees, EDITS_PER_RUN, 1);
    let total_nodes: usize = corpus.trees.iter().map(|t| t.num_nodes()).sum();
    let open_corpus = || {
        let mut session = CorpusSession::new(&spec);
        let handles = open_all(&mut session, sources);
        (session, handles)
    };

    header("corpus_edit — single-doc edit re-verdict vs. full batch revalidation");
    row(
        "workload",
        format!(
            "{NUM_DOCS} docs, {total_nodes} nodes, {} constraints, {EDITS_PER_RUN} edits/run",
            spec.sigma().len()
        ),
    );

    // Verdict identity along the whole edit stream before any timing: after
    // every commit the corpus report equals a cold batch over the serialized
    // current state.
    {
        let (mut session, handles) = open_corpus();
        for (victim, ops) in &edits {
            session.apply(handles[*victim], ops).unwrap();
            assert_eq!(session.commit().rechecked_docs, 1, "one dirty doc per edit");
        }
        let current: Vec<BatchDoc> = handles
            .iter()
            .map(|&h| {
                let tree = session.tree(h).unwrap();
                BatchDoc::new(session.label(h).unwrap(), write_document(tree, spec.dtd()))
            })
            .collect();
        let cold = BatchEngine::new(1).validate_batch(&spec, &current);
        let warm = session.report();
        assert_eq!(
            warm.total() - warm.clean_count(),
            cold.total() - cold.clean_count(),
            "paths disagree — timings are meaningless"
        );
        for (w, c) in warm.reports().iter().zip(cold.reports()) {
            assert_eq!(w.is_clean(), c.is_clean(), "{}", w.label);
        }
    }

    // Opening cost (parse + index the whole corpus) is paid once.
    let open_cost = min_time(3, || {
        std::hint::black_box(open_corpus().0.num_docs());
    });

    // Incremental side: pre-opened sessions, one per run; each run applies
    // the edit stream with a commit (delta extraction included) after
    // every edit.  A clean window costs tens of µs per edit, dominated by
    // one document's structural re-validation.
    let [incremental] = best_window(
        ATTEMPTS,
        || {
            [min_time_on(RUNS, open_corpus, |(s, h)| {
                run_edits(s, h, &edits)
            })]
        },
        |[d]| d.as_secs_f64() * 1e6 / EDITS_PER_RUN as f64 <= 150.0,
    );

    // Batch side: one full revalidation per edit.  A single revalidation is
    // far longer than a timeslice, so 2 edits × min-of-3 is noise-immune
    // without taking minutes.
    let batch_engine = BatchEngine::new(1);
    let batch_edits = 2usize;
    let rebuild = min_time(3, || {
        for _ in 0..batch_edits {
            std::hint::black_box(batch_engine.validate_batch(&spec, sources));
        }
    });

    let per_edit_incremental = incremental.as_secs_f64() * 1e6 / EDITS_PER_RUN as f64;
    let per_edit_rebuild = rebuild.as_secs_f64() * 1e6 / batch_edits as f64;
    let speedup = per_edit_rebuild / per_edit_incremental.max(1e-6);

    row("open corpus (parse + index all docs)", fmt_us(open_cost));
    row(
        format!("corpus session, {EDITS_PER_RUN} edits (incremental)"),
        fmt_us(incremental),
    );
    row(
        format!("full batch revalidation x{batch_edits}"),
        fmt_us(rebuild),
    );
    row(
        "per edit, incremental commit",
        format!("{per_edit_incremental:.2} µs"),
    );
    row("per edit, full batch", format!("{per_edit_rebuild:.2} µs"));
    row("per-edit speedup", format!("{speedup:.1}x"));
    record(
        "corpus",
        &[
            ("docs", NUM_DOCS as f64),
            ("nodes_total", total_nodes as f64),
            ("constraints", spec.sigma().len() as f64),
            ("edits_per_run", EDITS_PER_RUN as f64),
            ("open_us", us(open_cost)),
            ("incremental_total_us", us(incremental)),
            ("per_edit_incremental_us", round1(per_edit_incremental)),
            ("per_edit_rebuild_us", round1(per_edit_rebuild)),
            ("speedup_per_edit", round1(speedup)),
        ],
    );

    assert!(
        speedup >= 20.0,
        "a single-doc edit re-verdict must be ≥ 20× faster than a full \
         BatchEngine revalidation of the {NUM_DOCS}-doc corpus (got {speedup:.1}×)"
    );
}
