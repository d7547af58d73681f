//! Telemetry overhead — instrumented vs. timing-disabled corpus commits.
//!
//! The budget: the metrics and span instrumentation threaded
//! through `CorpusSession::apply`/`commit` must cost **≤ 5%** on the
//! corpus edit loop.  Two arms run the identical workload (the
//! `corpus_edit` shape: one spec, a corpus of open documents, a stream of
//! attribute edits, a commit after every batch):
//!
//! 1. **timing on** — a fresh registry with its runtime timing gate at the
//!    default (enabled): every apply/commit/re-check latency is clocked
//!    into histograms, counters and gauges move;
//! 2. **timing off** — `MetricsRegistry::set_timing(false)`: one relaxed
//!    load short-circuits every clock, which is the documented cheap mode
//!    (counters still move).
//!
//! `overhead = (t_on − t_off) / t_off`, asserted ≤ 5% (the CI
//! `metrics-overhead` job runs this binary).  Building with
//! `--features telemetry-off` compiles every instrument away entirely —
//! the control arm proving the runtime gate is already within noise of
//! the no-op build; it asserts the same budget but records nothing.
//! Measurement discipline follows `corpus_edit`: minimum over runs on a
//! preemption-prone shared container, with re-measure attempts until the
//! two arms land in a clean window.

use std::sync::Arc;

use xic_bench::{
    best_window, catalogue_spec, corpus, edit_stream, fmt_us, header, min_time_on, open_all,
    overhead, record, round1, row, run_edits, us,
};
use xic_engine::CorpusSession;
use xic_gen::{ConstraintGenConfig, DocGenConfig};
use xic_telemetry::MetricsRegistry;

const KINDS: usize = 10;
const NUM_DOCS: usize = 16;
/// Edit batches per timed run; each batch is `OPS_PER_BATCH` ops on one
/// document followed by a commit (the apply path times per batch, so this
/// is the instrumentation's natural unit).
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

    header("telemetry_overhead — instrumented vs. timing-disabled corpus commits");
    row(
        "workload",
        format!(
            "{NUM_DOCS} docs, {} constraints, {BATCHES_PER_RUN} batches x {OPS_PER_BATCH} ops",
            spec.sigma().len()
        ),
    );

    // One arm: minimum time over RUNS of the full edit loop on pre-opened
    // corpora recording into a fresh registry with `timing` on or off.
    let measure = |timing: bool| {
        let registry = Arc::new(MetricsRegistry::new());
        registry.set_timing(timing);
        let open = || {
            let mut session = CorpusSession::with_registry(&spec, Arc::clone(&registry));
            let handles = open_all(&mut session, &corpus.docs);
            (session, handles)
        };
        min_time_on(RUNS, open, |(s, h)| run_edits(s, h, &batches))
    };

    // The early-out threshold sits well under the 5% assertion so a noisy
    // first window keeps re-measuring instead of squeaking by.
    let [t_on, t_off] = best_window(
        ATTEMPTS,
        || [measure(true), measure(false)],
        |[on, off]| overhead(on, off) <= 0.02,
    );
    let overhead = overhead(t_on, t_off);

    let per_batch = |d: std::time::Duration| d.as_secs_f64() * 1e6 / BATCHES_PER_RUN as f64;
    row(
        format!("edit loop, timing on  ({RUNS}-run min)"),
        fmt_us(t_on),
    );
    row(
        format!("edit loop, timing off ({RUNS}-run min)"),
        fmt_us(t_off),
    );
    row(
        "per batch+commit, timing on",
        format!("{:.2} µs", per_batch(t_on)),
    );
    row(
        "per batch+commit, timing off",
        format!("{:.2} µs", per_batch(t_off)),
    );
    row("overhead", format!("{:.2} %", overhead * 100.0));
    let telemetry_off_build = cfg!(feature = "telemetry-off");
    if telemetry_off_build {
        row("build", "telemetry-off (no-op control arm)");
    }
    record(
        "telemetry",
        &[
            ("docs", NUM_DOCS as f64),
            ("batches_per_run", BATCHES_PER_RUN as f64),
            ("ops_per_batch", OPS_PER_BATCH as f64),
            ("timing_on_us", us(t_on)),
            ("timing_off_us", us(t_off)),
            ("overhead_pct", round1(overhead * 100.0)),
            (
                "telemetry_off_build",
                f64::from(u8::from(telemetry_off_build)),
            ),
        ],
    );

    assert!(
        overhead <= 0.05,
        "instrumented commits must stay within 5% of the timing-disabled \
         baseline (got {:.2}% over {BATCHES_PER_RUN} batches)",
        overhead * 100.0
    );
}
