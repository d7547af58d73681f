//! Document persistence — replay-from-log vs. re-parse-and-revalidate.
//!
//! The workload journal persistence exists for: a validation peer holds a
//! document open (recovered once from its corpus log into a
//! `CorpusSession`) and a stream of point edits arrives as `apply` records.  Two
//! ways to track the primary, both answering the full `T ⊨ (D, Σ)`:
//!
//! 1. **replay from the log (incremental)** — apply each op through the
//!    session and commit, maintaining the incremental indexes: the
//!    document is never re-parsed and `T ⊨ Σ` costs O(edit);
//! 2. **re-ship + re-parse + re-validate** — what a log-less replica does
//!    on every change notification: receive the full serialized document,
//!    parse it and run the one-shot `T ⊨ D` and `T ⊨ Σ` checks:
//!    O(document) per update.
//!
//! Verdict identity between the two paths is asserted along the whole edit
//! stream before timing.  The headline number (asserted ≥ 10×) is the
//! per-update speedup of log replay; the one-shot costs — persisting a log
//! and cold-recovering a session from it — are recorded alongside in
//! `BENCH_persist.json` at the workspace root.

use xic_bench::{
    best_window, catalogue_spec, corpus, edit_stream, fmt_us, header, min_time, min_time_on,
    record, round1, row, run_edits, us,
};
use xic_engine::{CompiledSpec, CorpusSession};
use xic_gen::{ConstraintGenConfig, DocGenConfig};
use xic_xml::{write_document, XmlTree};

const KINDS: usize = 10;
/// Edits per timed run.
const EDITS_PER_RUN: usize = 48;
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
    let config = DocGenConfig {
        seed: 42,
        max_elements: 12_000,
        star_fanout: 160,
        value_pool: 1_000_000,
        ..Default::default()
    };
    let tree = corpus(&spec, 1, &config).trees.remove(0);
    // The deterministic edit stream: rewrite one attribute per update.
    let edits = edit_stream(std::slice::from_ref(&tree), EDITS_PER_RUN, 1);

    let mut log = std::env::temp_dir();
    log.push(format!("xic-bench-persist-{}.xicj", std::process::id()));
    std::fs::remove_file(&log).ok();

    header("persist — replay-from-log vs. re-parse-and-revalidate");
    row(
        "workload",
        format!(
            "{} nodes, {} constraints, {EDITS_PER_RUN} edits/run",
            tree.num_nodes(),
            spec.sigma().len()
        ),
    );

    // Verdict identity along the whole stream before any timing: the
    // incremental replica and the re-parse path agree on every update.
    let mut session = CorpusSession::new(&spec);
    let doc = session.open("doc", tree.clone()).unwrap();
    for (_, ops) in &edits {
        session.apply(doc, ops).unwrap();
        session.commit();
        let report = session.report();
        let live = &report.reports()[0];
        let source = write_document(session.tree(doc).unwrap(), spec.dtd());
        assert_eq!(
            (live.validation_errors.len(), live.violations.len()),
            reparse_and_check(&spec, &source),
            "paths disagree — timings are meaningless"
        );
    }

    // One-shot costs: persist the opened document, then cold-recover it.
    // A session is bound to the one log it writes, so every timed persist
    // starts from its own freshly opened session.
    let opened = || {
        let mut s = CorpusSession::new(&spec);
        s.open("doc", tree.clone()).unwrap();
        s
    };
    let persist = min_time_on(3, opened, |s| {
        std::fs::remove_file(&log).ok();
        std::hint::black_box(s.persist_to(&log).expect("persist"));
    });
    let recover = min_time(3, || {
        let mut fresh = CorpusSession::new(&spec);
        fresh.recover_from(&log).expect("recover");
        std::hint::black_box(fresh.commit());
    });

    // Incremental side: a recovered replica session applying the op
    // stream (index maintenance + commit per update).
    let recovered = || {
        let mut s = CorpusSession::new(&spec);
        s.recover_from(&log).expect("recover");
        s.commit();
        let handle = s.handles().next().expect("the logged document");
        (s, [handle])
    };
    let [replay] = best_window(
        ATTEMPTS,
        || {
            [min_time_on(RUNS, recovered, |(s, h)| {
                run_edits(s, h, &edits)
            })]
        },
        |[d]| d.as_secs_f64() * 1e6 / EDITS_PER_RUN as f64 <= 150.0,
    );

    // Re-parse side: every update re-ships the serialized document, which
    // the replica parses and re-checks from scratch.  A single iteration
    // is far longer than a timeslice, so min-of-3 over 2 updates is
    // noise-immune without taking minutes.
    let current_source = write_document(session.tree(doc).unwrap(), spec.dtd());
    let reparse_updates = 2usize;
    let reparse = min_time(3, || {
        for _ in 0..reparse_updates {
            std::hint::black_box(reparse_and_check(&spec, &current_source));
        }
    });

    let per_update_replay = replay.as_secs_f64() * 1e6 / EDITS_PER_RUN as f64;
    let per_update_reparse = reparse.as_secs_f64() * 1e6 / reparse_updates as f64;
    let speedup = per_update_reparse / per_update_replay.max(1e-6);

    row("persist corpus log (snapshot + write)", fmt_us(persist));
    row("cold recover (read + rebuild + verdict)", fmt_us(recover));
    row(
        format!("replay {EDITS_PER_RUN} updates from ops (incremental)"),
        fmt_us(replay),
    );
    row(
        format!("re-parse + re-validate x{reparse_updates}"),
        fmt_us(reparse),
    );
    row(
        "per update, log replay",
        format!("{per_update_replay:.2} µs"),
    );
    row(
        "per update, re-parse",
        format!("{per_update_reparse:.2} µs"),
    );
    row("per-update speedup", format!("{speedup:.1}x"));
    record(
        "persist",
        &[
            ("nodes", session.tree(doc).unwrap().num_nodes() as f64),
            ("constraints", spec.sigma().len() as f64),
            ("edits_per_run", EDITS_PER_RUN as f64),
            ("persist_us", us(persist)),
            ("recover_us", us(recover)),
            ("replay_total_us", us(replay)),
            ("per_update_replay_us", round1(per_update_replay)),
            ("per_update_reparse_us", round1(per_update_reparse)),
            ("speedup_per_update", round1(speedup)),
        ],
    );
    std::fs::remove_file(&log).ok();

    assert!(
        speedup >= 10.0,
        "replaying an update from the op log must be ≥ 10× faster than \
         re-shipping + re-parsing + re-validating the document (got {speedup:.1}×)"
    );
}

/// The log-less replica's update: parse the shipped source, then the
/// one-shot `T ⊨ D` and `T ⊨ Σ` checks.  Returns (structural errors,
/// Σ violations).
fn reparse_and_check(spec: &CompiledSpec, source: &str) -> (usize, usize) {
    let reparsed: XmlTree = spec.parse_document(source).expect("writer output reparses");
    let structural = spec.validator().validate(&reparsed).len();
    (structural, spec.check_document(&reparsed).len())
}
