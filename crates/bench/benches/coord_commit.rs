//! Coordinated commits — a multi-process `xic-coord` fan-out vs. one
//! monolithic session.
//!
//! The same 12-singleton-shard workload as `shard_commit` (one unary key
//! per catalogue kind), spread over four `xic serve` worker processes by a
//! [`Coordinator`].  Both arms run the identical open + edit + commit
//! script; before timing, the coordinator's merged report is asserted
//! equal to the monolithic session's.  Two numbers matter:
//!
//! 1. **per-process constraints rechecked** — each worker's
//!    `incremental.constraints_rechecked` counter (read over the wire via
//!    worker stats) against the monolithic session's: every worker must
//!    recheck strictly fewer constraints, since it evaluates only its
//!    shard group;
//! 2. **cross-process commit ack latency** — wall time per routed
//!    apply+commit round (coordinator: route, fan out, merge, ack) against
//!    the in-process monolithic commit.
//!
//! Everything is recorded in `BENCH_coord.json` at the workspace root.

use std::path::PathBuf;

use xic_bench::{
    corpus, fmt_us, header, key_edit_stream, keyed_catalogue_spec, min_time, open_all,
    rechecked_now, record, round1, row, run_edits, us,
};
use xic_coord::{CoordConfig, Coordinator};
use xic_engine::CorpusSession;
use xic_gen::DocGenConfig;

const KINDS: usize = 12;
const WORKERS: usize = 4;
const NUM_DOCS: usize = 8;
/// Edits per run; edit `i` touches the key attribute of kind `i mod KINDS`,
/// so the stream cycles through every shard (and so every worker).
const EDITS_PER_RUN: usize = 36;
/// Timed repetitions (minimum taken; the counter deltas come from a single
/// untimed attribution pass of each arm).
const RUNS: usize = 3;

fn main() {
    let spec = keyed_catalogue_spec(KINDS);
    let plan = spec.shard_plan();
    // The coordinator and its workers compile the spec from files holding
    // its rendering; the `SpecId` is the content hash, so every party
    // agrees on it.
    let scratch = std::env::temp_dir().join(format!("xic-coord-bench-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let dtd_path = scratch.join("spec.dtd");
    let sigma_path = scratch.join("spec.sigma");
    std::fs::write(&dtd_path, spec.dtd().render()).expect("write dtd");
    std::fs::write(&sigma_path, spec.sigma().render(spec.dtd())).expect("write sigma");

    // Documents as wire bytes, plus the parsed trees every party's arena
    // will hold (node ids picked below are valid everywhere).
    let corpus = corpus(
        &spec,
        NUM_DOCS,
        &DocGenConfig {
            seed: 300,
            max_elements: 200,
            star_fanout: 20,
            value_pool: 50,
            ..Default::default()
        },
    );
    let total_nodes: usize = corpus.trees.iter().map(|t| t.num_nodes()).sum();
    let edits = key_edit_stream(&spec, &corpus.trees, EDITS_PER_RUN);

    // --- Coordinator arm. -------------------------------------------------
    let mut coordinator = Coordinator::launch(CoordConfig {
        xic_bin: xic_bin(),
        dtd: dtd_path,
        root: Some(spec.dtd().type_name(spec.dtd().root()).to_string()),
        constraints: Some(sigma_path),
        workers: WORKERS,
        scratch: scratch.clone(),
        session: "bench".to_string(),
        max_restarts: 1,
    })
    .expect("coordinator launches");
    assert_eq!(coordinator.num_groups(), WORKERS);

    let rechecked_of = |coordinator: &mut Coordinator| -> Vec<u64> {
        (0..WORKERS)
            .map(|g| {
                let stats = coordinator.worker_stats(g).expect("worker stats");
                stats
                    .counter("incremental.constraints_rechecked")
                    .unwrap_or(0)
            })
            .collect()
    };
    let run_coordinated = |coordinator: &mut Coordinator, handles: &[u64]| {
        for (victim, ops) in &edits {
            coordinator
                .apply(handles[*victim], ops)
                .expect("routed apply");
            std::hint::black_box(coordinator.commit().expect("fanned-out commit"));
        }
    };

    // Attribution pass: per-worker counters around the full script.
    let before = rechecked_of(&mut coordinator);
    let handles: Vec<u64> = corpus
        .docs
        .iter()
        .map(|d| coordinator.open_doc(&d.label, &d.content).expect("opens"))
        .collect();
    coordinator.commit().expect("base commit");
    run_coordinated(&mut coordinator, &handles);
    let per_worker: Vec<u64> = rechecked_of(&mut coordinator)
        .iter()
        .zip(&before)
        .map(|(after, before)| after - before)
        .collect();

    // --- Monolithic arm, same script. -------------------------------------
    let mono_before = rechecked_now();
    let mut mono = CorpusSession::new(&spec);
    let mono_handles = open_all(&mut mono, &corpus.docs);
    run_edits(&mut mono, &mono_handles, &edits);
    let mono_rechecked = rechecked_now() - mono_before;

    // Verdict identity before timing: the merged multi-process report is
    // the monolithic report, or the numbers compare different computations.
    assert_eq!(
        coordinator.report(),
        mono.report(),
        "coordinator diverged from the monolithic session"
    );

    // Timed passes (the stream is idempotent, so re-running it leaves
    // both corpora unchanged).
    let coord_time = min_time(RUNS, || run_coordinated(&mut coordinator, &handles));
    let mono_time = min_time(RUNS, || run_edits(&mut mono, &mono_handles, &edits));
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);

    let max_worker = *per_worker.iter().max().unwrap();
    let sum_workers: u64 = per_worker.iter().sum();
    let reduction = mono_rechecked as f64 / max_worker.max(1) as f64;
    let coord_ack_us = us(coord_time) / edits.len() as f64;
    let mono_ack_us = us(mono_time) / edits.len() as f64;

    header("coord_commit — multi-process fan-out vs. one monolithic session");
    row(
        "workload",
        format!(
            "{} shards, {WORKERS} workers, {NUM_DOCS} docs, {total_nodes} nodes, {} edits",
            plan.num_shards(),
            edits.len()
        ),
    );
    row("constraints rechecked, monolithic", mono_rechecked);
    for (g, rechecked) in per_worker.iter().enumerate() {
        row(format!("constraints rechecked, worker {g}"), rechecked);
    }
    row("constraints rechecked, busiest worker", max_worker);
    row("per-process recheck reduction", format!("{reduction:.1}x"));
    row(
        "commit ack latency, coordinator",
        format!("{coord_ack_us:.1}us"),
    );
    row(
        "commit ack latency, monolithic",
        format!("{mono_ack_us:.1}us"),
    );
    row("wall time, coordinator", fmt_us(coord_time));
    row("wall time, monolithic", fmt_us(mono_time));

    let fields: Vec<(String, f64)> = [
        ("shards", plan.num_shards() as f64),
        ("workers", WORKERS as f64),
        ("docs", NUM_DOCS as f64),
        ("nodes_total", total_nodes as f64),
        ("edits", edits.len() as f64),
        ("monolithic_rechecked", mono_rechecked as f64),
        ("workers_rechecked_sum", sum_workers as f64),
        ("workers_rechecked_max", max_worker as f64),
        ("per_process_reduction", round1(reduction)),
        ("coord_ack_us", round1(coord_ack_us)),
        ("mono_ack_us", round1(mono_ack_us)),
        ("coord_run_us", us(coord_time)),
        ("mono_run_us", us(mono_time)),
    ]
    .into_iter()
    .map(|(key, value)| (key.to_string(), value))
    .chain(
        per_worker
            .iter()
            .enumerate()
            .map(|(g, &n)| (format!("worker{g}_rechecked"), n as f64)),
    )
    .collect();
    record("coord", &fields);

    for (g, &rechecked) in per_worker.iter().enumerate() {
        assert!(
            rechecked < mono_rechecked,
            "worker {g} rechecked {rechecked} constraints, not fewer than \
             the monolithic arm's {mono_rechecked}"
        );
    }
    assert!(
        reduction >= 2.0,
        "with {KINDS} shards over {WORKERS} processes the busiest worker \
         should recheck several times fewer constraints (got {reduction:.1}x)"
    );
}

/// The `xic` binary the coordinator spawns shard workers from: `XIC_BIN`
/// when set, otherwise the sibling of this bench executable's
/// `target/{debug,release}` directory.
fn xic_bin() -> PathBuf {
    if let Ok(path) = std::env::var("XIC_BIN") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("bench executable path");
    for dir in exe.ancestors().skip(1) {
        let candidate = dir.join(format!("xic{}", std::env::consts::EXE_SUFFIX));
        if candidate.is_file() {
            return candidate;
        }
    }
    panic!("cannot locate the `xic` binary; build `xic-cli` or set XIC_BIN");
}
