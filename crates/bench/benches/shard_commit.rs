//! Shard-fanned commits — shard-scoped sessions vs. one monolithic session.
//!
//! The workload shard plans exist for: a specification whose touch-graph
//! splits into many independent components (here one unary key per
//! catalogue kind, so every constraint is its own shard), a corpus of
//! documents open against it, and a commit stream a coordinator wants to
//! fan out one-shard-per-worker.  Two strategies run the same script:
//!
//! 1. **monolithic** — one `CorpusSession` re-evaluates every constraint:
//!    all of Σ per document at open, and every dirtied constraint per edit;
//! 2. **shard-scoped** — a session narrowed with
//!    `CorpusSession::scope_to_shards(&[0])`, the per-worker half of a
//!    fanned-out commit: in-scope constraints are re-evaluated, the rest
//!    are skipped (counted in `shard.skipped`) and never surface in its
//!    reports.
//!
//! Verdict identity is asserted before timing: the scoped session's report
//! must equal `project_report(monolithic_report, plan, 0)` exactly.  The
//! headline number is the reduction in the global
//! `incremental.constraints_rechecked` counter — the scoped arm must
//! recheck strictly fewer constraints (≈ 1/shards of the monolithic arm on
//! this plan).  Everything is recorded in `BENCH_shard.json` at the
//! workspace root.

use xic_bench::{
    corpus, fmt_us, header, key_edit_stream, keyed_catalogue_spec, min_time, rechecked_now, record,
    round1, row, run_edits, us,
};
use xic_engine::{project_report, CorpusSession};
use xic_gen::DocGenConfig;

const KINDS: usize = 12;
const NUM_DOCS: usize = 16;
/// Edits per run; edit `i` touches the key attribute of kind `i mod KINDS`,
/// so exactly one edit in `KINDS` lands in shard 0's scope.
const EDITS_PER_RUN: usize = 48;
/// Timed repetitions (minimum taken; the counter deltas come from a single
/// extra untimed run of each arm).
const RUNS: usize = 3;

fn main() {
    let spec = keyed_catalogue_spec(KINDS);
    let plan = spec.shard_plan();
    let trees = corpus(
        &spec,
        NUM_DOCS,
        &DocGenConfig {
            seed: 300,
            max_elements: 400,
            star_fanout: 40,
            value_pool: 50,
            ..Default::default()
        },
    )
    .trees;
    let total_nodes: usize = trees.iter().map(|t| t.num_nodes()).sum();
    // Attribute rewrites never renumber nodes, so one stream computed on
    // the pristine trees serves every run.
    let edits = key_edit_stream(&spec, &trees, EDITS_PER_RUN);

    let run_arm = |scoped: bool| -> (CorpusSession<'_>, u64) {
        let before = rechecked_now();
        let mut session = CorpusSession::new(&spec);
        if scoped {
            session.scope_to_shards(&[0]);
        }
        let handles: Vec<_> = trees
            .iter()
            .enumerate()
            .map(|(i, t)| session.open(format!("doc-{i}"), t.clone()).expect("opens"))
            .collect();
        session.commit();
        run_edits(&mut session, &handles, &edits);
        (session, rechecked_now() - before)
    };

    // Verdict identity before timing: the scoped session reports exactly
    // the shard-0 projection of the monolithic report.
    let (monolithic_session, monolithic_rechecked) = run_arm(false);
    let (scoped_session, scoped_rechecked) = run_arm(true);
    assert_eq!(
        scoped_session.report(),
        project_report(&monolithic_session.report(), plan, 0),
        "scoped session diverged from the projection — numbers are meaningless"
    );
    drop((monolithic_session, scoped_session));

    let monolithic_time = min_time(RUNS, || {
        std::hint::black_box(run_arm(false).0.num_docs());
    });
    let scoped_time = min_time(RUNS, || {
        std::hint::black_box(run_arm(true).0.num_docs());
    });

    let reduction = monolithic_rechecked as f64 / scoped_rechecked.max(1) as f64;

    header("shard_commit — shard-scoped sessions vs. one monolithic session");
    row(
        "workload",
        format!(
            "{} shards, {NUM_DOCS} docs, {total_nodes} nodes, {} edits",
            plan.num_shards(),
            edits.len()
        ),
    );
    row("constraints rechecked, monolithic", monolithic_rechecked);
    row("constraints rechecked, shard-0 scoped", scoped_rechecked);
    row("recheck reduction", format!("{reduction:.1}x"));
    row("wall time, monolithic", fmt_us(monolithic_time));
    row("wall time, shard-0 scoped", fmt_us(scoped_time));
    record(
        "shard",
        &[
            ("shards", plan.num_shards() as f64),
            ("docs", NUM_DOCS as f64),
            ("nodes_total", total_nodes as f64),
            ("edits", edits.len() as f64),
            ("monolithic_rechecked", monolithic_rechecked as f64),
            ("scoped_rechecked", scoped_rechecked as f64),
            ("recheck_reduction", round1(reduction)),
            ("monolithic_us", us(monolithic_time)),
            ("scoped_us", us(scoped_time)),
        ],
    );

    assert!(
        scoped_rechecked < monolithic_rechecked,
        "a shard-scoped session must recheck strictly fewer constraints \
         (monolithic {monolithic_rechecked}, scoped {scoped_rechecked})"
    );
    assert!(
        reduction >= 2.0,
        "on a {KINDS}-singleton-shard plan the scoped arm should recheck \
         several times fewer constraints (got {reduction:.1}x)"
    );
}
