//! Resilience overhead — governed vs. unlimited corpus commits.
//!
//! The budget: the resource-governance machinery threaded through
//! the corpus edit loop (admission checks in `CorpusSession::apply`, the
//! deadline probe in `commit`, the panic containment around each
//! re-check, and every compiled-out failpoint) must cost **≤ 3%** when
//! limits are *configured but never tripped* — governance is supposed to
//! be free until it fires.  Two arms run the identical workload (the
//! `corpus_edit` shape: one spec, a corpus of open documents, a stream of
//! attribute edits, a commit after every batch):
//!
//! 1. **governed** — `CorpusSession::with_limits` with every bound set
//!    generously above what the workload uses (bytes, nodes, depth,
//!    queued ops, dirty docs, a one-hour deadline): every admission point
//!    evaluates its comparisons, none rejects;
//! 2. **unlimited** — `Limits::UNLIMITED`: the admission fast path
//!    (`is_unlimited`) short-circuits everything.
//!
//! `overhead = (t_governed − t_unlimited) / t_unlimited`, asserted ≤ 3%
//! (the CI `fault-injection` job runs this binary).  Failpoints are
//! compile-time no-ops in this build (the `faults` feature is off), so
//! the measured gap isolates the limit checks themselves; the `--features
//! faults` control arm asserts the same budget but records nothing.  Measurement
//! discipline follows `telemetry_overhead`: minimum over runs on a
//! preemption-prone shared container, interleaved re-measure attempts
//! until the arms land in a clean window.

use std::time::Duration;

use xic_bench::{
    best_window, catalogue_spec, corpus, edit_stream, fmt_us, header, min_time_on, open_all,
    overhead, record, round1, row, run_edits, us,
};
use xic_engine::{CorpusSession, Limits};
use xic_gen::{ConstraintGenConfig, DocGenConfig};

const KINDS: usize = 10;
const NUM_DOCS: usize = 16;
/// Edit batches per timed run; each batch is `OPS_PER_BATCH` ops on one
/// document followed by a commit (admission runs per batch, the deadline
/// probe per commit, so this is governance's natural unit).
const BATCHES_PER_RUN: usize = 32;
const OPS_PER_BATCH: usize = 8;
/// Runs of the edit loop per measurement attempt (minimum taken).
const RUNS: usize = 7;
/// Re-measure attempts until the arms land in a clean window.
const ATTEMPTS: usize = 7;

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
    let batches = edit_stream(&corpus.trees, BATCHES_PER_RUN, OPS_PER_BATCH);

    // Every bound sits far above what the workload touches, so the
    // governed arm pays for the checks and never for a rejection.
    let governed_limits = Limits {
        max_doc_bytes: Some(64 << 20),
        max_doc_nodes: Some(1 << 20),
        max_depth: Some(256),
        max_queued_ops: Some(1 << 16),
        max_dirty_docs: Some(NUM_DOCS * 4),
        deadline: Some(Duration::from_secs(3_600)),
    };

    header("resilience_overhead — governed vs. unlimited corpus commits");
    row(
        "workload",
        format!(
            "{NUM_DOCS} docs, {} constraints, {BATCHES_PER_RUN} batches x {OPS_PER_BATCH} ops",
            spec.sigma().len()
        ),
    );

    // One arm: minimum time over RUNS of the full edit loop on pre-opened
    // corpora governed by `limits`.
    let measure = |limits: Limits| {
        let open = || {
            let mut session = CorpusSession::with_limits(&spec, limits);
            let handles = open_all(&mut session, &corpus.docs);
            (session, handles)
        };
        min_time_on(RUNS, open, |(s, h)| run_edits(s, h, &batches))
    };

    // The early-out threshold sits well under the 3% assertion so a noisy
    // first window keeps re-measuring instead of squeaking by.
    let [t_governed, t_unlimited] = best_window(
        ATTEMPTS,
        || [measure(governed_limits), measure(Limits::UNLIMITED)],
        |[governed, unlimited]| overhead(governed, unlimited) <= 0.015,
    );
    let overhead = overhead(t_governed, t_unlimited);

    let per_batch = |d: Duration| d.as_secs_f64() * 1e6 / BATCHES_PER_RUN as f64;
    row(
        format!("edit loop, governed  ({RUNS}-run min)"),
        fmt_us(t_governed),
    );
    row(
        format!("edit loop, unlimited ({RUNS}-run min)"),
        fmt_us(t_unlimited),
    );
    row(
        "per batch+commit, governed",
        format!("{:.2} µs", per_batch(t_governed)),
    );
    row(
        "per batch+commit, unlimited",
        format!("{:.2} µs", per_batch(t_unlimited)),
    );
    row("overhead", format!("{:.2} %", overhead * 100.0));
    record(
        "resilience",
        &[
            ("docs", NUM_DOCS as f64),
            ("batches_per_run", BATCHES_PER_RUN as f64),
            ("ops_per_batch", OPS_PER_BATCH as f64),
            ("governed_us", us(t_governed)),
            ("unlimited_us", us(t_unlimited)),
            ("overhead_pct", round1(overhead * 100.0)),
            (
                "faults_build",
                f64::from(u8::from(cfg!(feature = "faults"))),
            ),
        ],
    );

    assert!(
        overhead <= 0.03,
        "governed commits must stay within 3% of the unlimited baseline \
         (got {:.2}% over {BATCHES_PER_RUN} batches)",
        overhead * 100.0
    );
}
