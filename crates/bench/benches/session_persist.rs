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
//! `BENCH_persist.json` at the workspace root.  This is a min-of-runs
//! harness, not a statistical benchmark: the incremental side runs well
//! under a scheduler timeslice.

use std::time::Duration;

use xic_bench::{fmt_us, min_time};
use xic_engine::{CompiledSpec, CorpusSession};
use xic_gen::{
    catalogue_dtd, random_document, random_unary_constraints, ConstraintGenConfig, DocGenConfig,
};
use xic_xml::{write_document, EditOp, NodeId, XmlTree};

const KINDS: usize = 10;
/// Edits per timed run.
const EDITS_PER_RUN: usize = 48;
/// Runs of the incremental loop per measurement attempt.
const RUNS: usize = 7;
/// Re-measure attempts for the preemption-exposed incremental side.
const ATTEMPTS: usize = 5;

fn main() {
    let dtd = catalogue_dtd(KINDS);
    let sigma = random_unary_constraints(
        &dtd,
        &ConstraintGenConfig {
            keys: 10,
            foreign_keys: 10,
            inclusions: 4,
            seed: 7,
            ..Default::default()
        },
    );
    let spec = CompiledSpec::compile(dtd, sigma).expect("generated spec compiles");

    let tree = random_document(
        spec.dtd(),
        &DocGenConfig {
            seed: 42,
            max_elements: 12_000,
            star_fanout: 160,
            value_pool: 1_000_000,
            ..Default::default()
        },
    )
    .expect("catalogue DTD is satisfiable");

    // The deterministic edit stream: rewrite one attribute per update.
    let editable: Vec<NodeId> = tree
        .elements()
        .filter(|&n| !tree.attributes(n).is_empty())
        .collect();
    let ops: Vec<EditOp> = (0..EDITS_PER_RUN)
        .map(|i| {
            let element = editable[(i * 997) % editable.len()];
            let (attr, _) = tree.attributes(element)[0];
            EditOp::SetAttr {
                element,
                attr,
                value: format!("edited-{i}"),
            }
        })
        .collect();

    let mut log = std::env::temp_dir();
    log.push(format!("xic-bench-persist-{}.xicj", std::process::id()));
    std::fs::remove_file(&log).ok();

    println!();
    println!("persist — replay-from-log vs. re-parse-and-revalidate");
    println!("--------------------------------------------------------------");
    println!(
        "{:<44} {} nodes, {} constraints, {} edits/run",
        "workload",
        tree.num_nodes(),
        spec.sigma().len(),
        EDITS_PER_RUN,
    );

    // Verdict identity along the whole stream before any timing: the
    // incremental replica and the re-parse path agree on every update.
    {
        let mut session = CorpusSession::new(&spec);
        let doc = session.open("doc", tree.clone()).unwrap();
        for op in &ops {
            session.apply(doc, std::slice::from_ref(op)).unwrap();
            session.commit();
            let report = session.report();
            let live = &report.reports()[0];
            let source = write_document(session.tree(doc).unwrap(), spec.dtd());
            let cold = reparse_and_check(&spec, &source);
            assert_eq!(
                (live.validation_errors.len(), live.violations.len()),
                (cold.0, cold.1),
                "paths disagree — timings are meaningless"
            );
        }
    }

    // One-shot costs: persist the opened document, then cold-recover it.
    // A session is bound to the one log it writes, so every timed persist
    // starts from its own freshly opened session.
    let mut unpersisted: Vec<CorpusSession<'_>> = (0..3)
        .map(|_| {
            let mut s = CorpusSession::new(&spec);
            s.open("doc", tree.clone()).unwrap();
            s
        })
        .collect();
    let mut persisted = Vec::new();
    let persist = min_time(3, || {
        std::fs::remove_file(&log).ok();
        let mut s = unpersisted.pop().expect("one prepared session per run");
        std::hint::black_box(s.persist_to(&log).expect("persist"));
        persisted.push(s);
    });
    drop(persisted);
    let recover = min_time(3, || {
        let mut fresh = CorpusSession::new(&spec);
        fresh.recover_from(&log).expect("recover");
        std::hint::black_box(fresh.commit());
    });
    let mut session = CorpusSession::new(&spec);
    let doc = session.open("doc", tree.clone()).unwrap();

    // Incremental side: a recovered replica session applying the op
    // stream (index maintenance + commit per update).
    let measure_replay = || {
        let mut prepared: Vec<(CorpusSession<'_>, _)> = (0..RUNS)
            .map(|_| {
                let mut s = CorpusSession::new(&spec);
                s.recover_from(&log).expect("recover");
                s.commit();
                let handle = s.handles().next().expect("the logged document");
                (s, handle)
            })
            .collect();
        let mut edited = Vec::new();
        let best = min_time(RUNS, || {
            let (mut s, handle) = prepared.pop().expect("one prepared session per run");
            for op in &ops {
                s.apply(handle, std::slice::from_ref(op)).unwrap();
                std::hint::black_box(s.commit());
            }
            edited.push(s);
        });
        drop(edited);
        best
    };
    let mut replay = measure_replay();
    for _ in 1..ATTEMPTS {
        if replay.as_secs_f64() * 1e6 / EDITS_PER_RUN as f64 <= 150.0 {
            break; // a clean scheduler window
        }
        replay = replay.min(measure_replay());
    }

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

    let per_update_replay = replay.as_secs_f64() / EDITS_PER_RUN as f64;
    let per_update_reparse = reparse.as_secs_f64() / reparse_updates as f64;
    let speedup = per_update_reparse / per_update_replay.max(1e-12);

    println!(
        "{:<44} {:>12}",
        "persist corpus log (snapshot + write)",
        fmt_us(persist)
    );
    println!(
        "{:<44} {:>12}",
        "cold recover (read + rebuild + verdict)",
        fmt_us(recover)
    );
    println!(
        "{:<44} {:>12}",
        format!("replay {EDITS_PER_RUN} updates from ops (incremental)"),
        fmt_us(replay)
    );
    println!(
        "{:<44} {:>12}",
        format!("re-parse + re-validate x{reparse_updates}"),
        fmt_us(reparse)
    );
    println!(
        "{:<44} {:>9.2} µs",
        "per update, log replay",
        per_update_replay * 1e6
    );
    println!(
        "{:<44} {:>9.2} µs",
        "per update, re-parse",
        per_update_reparse * 1e6
    );
    println!("{:<44} {:>11.1}x", "per-update speedup", speedup);

    let json = render_json(&[
        ("nodes", session.tree(doc).unwrap().num_nodes() as f64),
        ("constraints", spec.sigma().len() as f64),
        ("edits_per_run", EDITS_PER_RUN as f64),
        ("persist_us", us(persist)),
        ("recover_us", us(recover)),
        ("replay_total_us", us(replay)),
        (
            "per_update_replay_us",
            (per_update_replay * 1e7).round() / 10.0,
        ),
        (
            "per_update_reparse_us",
            (per_update_reparse * 1e7).round() / 10.0,
        ),
        ("speedup_per_update", (speedup * 10.0).round() / 10.0),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_persist.json");
    std::fs::write(out, &json).expect("write BENCH_persist.json");
    println!("{:<44} {:>12}", "recorded", "BENCH_persist.json");
    println!("--------------------------------------------------------------");
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

fn us(d: Duration) -> f64 {
    (d.as_secs_f64() * 1e6 * 10.0).round() / 10.0
}

/// Tiny flat-object JSON rendering (the workspace is dependency-free).
fn render_json(fields: &[(&str, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        out.push_str(&format!("  \"{key}\": {value}"));
        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}
