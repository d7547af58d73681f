//! # xicbench — one benchmark for the system's three paths
//!
//! `xicbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in a closed loop (one caller, each request waits for
//! its reply), checks every output against an oracle outside the timed
//! sections, and prints one JSON result line last on stdout.
//!
//! * `ingest` — cold document path: batch validation, then a corpus open.
//! * `edit`   — incremental document path: single-document edit commits.
//! * `decide` — the paper's decision procedures (Ψ(D,Σ), ILP, witness).
//! * `serve`  — the serving path: coordinator, wire, workers, merge.
//!
//! With `--trace 0` the result carries the end-to-end metrics
//! ([`END_TO_END`]); with `--trace 1` the run first repeats the untraced
//! loop for half the time, then records spans for the other half and
//! reports the per-layer metrics ([`PER_LAYER`]).  See `README.md` in this
//! directory for what each metric means on each workload.

pub mod json;
pub mod pace;
pub mod stats;
pub mod trace;

mod decide;
mod edit;
mod ingest;
mod inputs;
mod serve;

use std::path::Path;
use std::time::Duration;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["ingest", "edit", "decide", "serve"];

/// End-to-end metrics (`--trace 0`), with units.  Every workload reports
/// every one; README.md maps each to the workload's operation.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_ref_s", "1/ref_s"),
    ("op_p50_ref_us", "ref_us"),
    ("op_tail_ref_us", "ref_us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), with units.  A workload reports 0 for
/// a layer it never calls.
pub const PER_LAYER: &[(&str, &str)] = &[
    // ingest
    ("xmltree.parse_mb_per_s", "MB/s"),
    ("xmltree.validate_us_per_doc", "us"),
    ("constraints.docindex_build_us_per_doc", "us"),
    ("engine.batch.self_us_per_doc", "us"),
    ("engine.batch.mb_per_s", "MB/s"),
    ("constraints.incremental_build_us_per_doc", "us"),
    ("engine.corpus.open_self_us_per_doc", "us"),
    ("engine.corpus.open_us_per_doc.first", "us"),
    ("engine.corpus.open_us_per_doc.last", "us"),
    ("engine.corpus.open_docs_per_s", "1/s"),
    ("parse.docs", "count"),
    ("index.builds", "count"),
    ("incremental.builds", "count"),
    // edit
    ("engine.corpus.apply_us", "us"),
    ("engine.corpus.commit_us.p50", "us"),
    ("engine.corpus.commit_us.p99", "us"),
    ("engine.corpus.recheck_us", "us"),
    ("xmltree.validate_us_per_commit", "us"),
    ("engine.corpus.commit_self_us", "us"),
    ("incremental.constraints_rechecked_per_commit", "count"),
    ("corpus.delta_changes_per_commit", "count"),
    // decide
    ("core.system_us", "us"),
    ("ilp.solve_ms", "ms"),
    ("core.witness_ms", "ms"),
    ("ilp.bb_nodes", "count"),
    ("ilp.lp_calls", "count"),
    ("ilp.pruned_infeasible", "count"),
    // serve
    ("coord.apply_us", "us"),
    ("coord.commit_us", "us"),
    ("server.request_us.w0", "us"),
    ("server.request_us.w1", "us"),
    ("server.requests_per_commit", "count"),
    ("shard.skip_frac", "ratio"),
    ("engine.wire.delta_bytes_per_commit", "bytes"),
    ("engine.wire.codec_us", "us"),
    ("engine.merge_us", "us"),
    ("coord.commit_residual_us", "us"),
    ("coord.restarts", "count"),
    // every workload
    ("unattributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

/// Where the traced run writes its spans, under the working directory.
const SPANS_DIR: &str = ".xicbench-out";

/// At most this many spans go to the spans file (about 10 MB); every
/// recorded span still counts in the per-layer rows.
const SPANS_WRITTEN: usize = 100_000;

/// Input sizes: `Full` is what the benchmark measures; `Tiny` keeps every
/// code path and gate but shrinks inputs so the tests run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub size: Size,
    /// Test hook: perturb every oracle before comparing, so the gates must
    /// report a failure.
    pub corrupt_oracle: bool,
}

impl Config {
    /// How long the untraced and the traced loops run.  A traced run
    /// splits its time: the untraced half is the overhead baseline.
    pub fn phases(&self) -> (Duration, Duration) {
        let total = Duration::from_secs(self.seconds);
        if self.trace {
            (total / 2, total / 2)
        } else {
            (total, Duration::ZERO)
        }
    }
}

/// Operation latencies of one loop, as measured and scaled to the
/// reference speed (see [`pace`]).
#[derive(Debug, Default)]
pub struct Samples {
    pub raw_us: Vec<f64>,
    pub ref_us: Vec<f64>,
}

impl Samples {
    /// Records one latency measured while the pacer's factor was `factor`.
    pub fn push(&mut self, raw_us: f64, factor: f64) {
        self.raw_us.push(raw_us);
        self.ref_us.push(raw_us * factor);
    }

    pub fn len(&self) -> usize {
        self.raw_us.len()
    }

    pub fn is_empty(&self) -> bool {
        self.raw_us.is_empty()
    }

    /// Total reference seconds of operation time.
    pub fn ref_busy_s(&self) -> f64 {
        self.ref_us.iter().sum::<f64>() / 1e6
    }
}

/// What a workload hands back to the runner.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted plus gates checked.
    pub attempted: u64,
    /// Operations that errored or failed a verdict check, plus failed gates.
    pub failed: u64,
    /// One line per failure, for stderr.
    pub failures: Vec<String>,
    /// Metric values by name (units come from the tables above).
    pub metrics: Vec<(&'static str, f64)>,
    /// The input shape: name and JSON-encoded value.
    pub shape: Vec<(&'static str, String)>,
    /// Per-layer self time per operation (µs) and share of the traced wall.
    pub layers: Vec<(String, f64, f64)>,
    /// Peak RSS once set-up and warm-up are done (see [`Outcome::warmed_up`]).
    warm_rss_mb: Option<f64>,
}

impl Outcome {
    /// Records one gate: counts it as attempted, and as failed with
    /// `detail` unless it `held`.
    pub fn gate(&mut self, held: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !held {
            self.failed += 1;
            self.failures.push(detail());
        }
    }

    /// Marks the end of set-up and warm-up.  `peak_rss_mb` is the peak up
    /// to here: growth during the timed loop scales with how many
    /// operations the host's speed allowed, so it goes to the shape line.
    pub fn warmed_up(&mut self) {
        self.warm_rss_mb = Some(stats::peak_rss_mb());
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn shape(&mut self, name: &'static str, value: impl ToString) {
        self.shape.push((name, value.to_string()));
    }

    pub fn shape_str(&mut self, name: &'static str, value: &str) {
        self.shape.push((name, json::quote(value)));
    }

    /// The end-to-end metrics of a closed loop: `ops` operations completed
    /// in `ref_busy_s` reference seconds of operation time, the median and
    /// `tail` quantile of their latencies, peak memory and the set-up time.
    /// The raw (unscaled) latency quantiles go to the shape line.
    pub fn end_to_end(
        &mut self,
        samples: &Samples,
        ops: usize,
        ref_busy_s: f64,
        setup_ref_s: f64,
        tail: f64,
        pacer: &pace::Pacer,
    ) {
        self.metric("ops_per_ref_s", ops as f64 / ref_busy_s.max(1e-12));
        self.metric("op_p50_ref_us", stats::quantile_of(&samples.ref_us, 0.5));
        self.metric("op_tail_ref_us", stats::quantile_of(&samples.ref_us, tail));
        let peak = stats::peak_rss_mb();
        let warm = self.warm_rss_mb.unwrap_or(peak);
        self.metric("peak_rss_mb", warm);
        self.metric("setup_s", setup_ref_s);
        self.shape("rss_growth_in_loop_mb", peak - warm);
        self.shape("samples", samples.raw_us.len());
        self.shape("tail_quantile", tail);
        self.shape("raw_op_p50_us", stats::quantile_of(&samples.raw_us, 0.5));
        self.shape("raw_op_tail_us", stats::quantile_of(&samples.raw_us, tail));
        self.shape("speed_factor", pacer.median_factor());
    }

    /// The per-layer rows every traced workload reports: self time per
    /// operation for each span name, the unattributed share, and the
    /// tracing overhead against the untraced half of the run.
    pub fn trace_rows(
        &mut self,
        cfg: &Config,
        spans: &[trace::SpanRec],
        traced_ops: usize,
        untraced_mean_us: f64,
    ) {
        let wall = trace::op_wall_ns(spans).max(1);
        let ops = traced_ops.max(1) as f64;
        let rows = trace::self_times(spans);
        for (&name, &self_ns) in &rows {
            self.layers.push((
                name.to_string(),
                stats::us(self_ns) / ops,
                self_ns as f64 / wall as f64,
            ));
        }
        let unattributed = rows.get("unattributed").copied().unwrap_or(0);
        self.metric("unattributed_frac", unattributed as f64 / wall as f64);
        let traced_mean_us = stats::us(wall) / ops;
        self.metric(
            "trace_overhead_frac",
            traced_mean_us / untraced_mean_us.max(1e-9) - 1.0,
        );
        let path = Path::new(SPANS_DIR).join(format!("{}.spans.jsonl", cfg.workload));
        match trace::write_jsonl(spans, &path, SPANS_WRITTEN) {
            Ok(written) => {
                self.shape_str("spans_file", &path.display().to_string());
                self.shape("spans_written", written);
            }
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        self.shape("spans_recorded", spans.len());
        self.shape("traced_ops", traced_ops);
    }
}

fn usage() -> String {
    format!(
        "usage: xicbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> \
         [--size full|tiny]",
        WORKLOADS.join("|")
    )
}

/// Parses the benchmark's command line.
pub fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        size: Size::Full,
        corrupt_oracle: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-oracle" {
            cfg.corrupt_oracle = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = number()?.max(1),
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--size" => {
                cfg.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size takes full or tiny, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload `{}`\n{}", cfg.workload, usage()));
    }
    Ok(cfg)
}

/// Runs one workload and prints its shape, layer and result lines.
/// Returns the process exit code: 0 only when every gate held.
pub fn run(cfg: &Config) -> i32 {
    let outcome = match cfg.workload.as_str() {
        "ingest" => ingest::run(cfg),
        "edit" => edit::run(cfg),
        "decide" => decide::run(cfg),
        "serve" => serve::run(cfg),
        _ => unreachable!("parse_args checked the workload"),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("xicbench {}: {error}", cfg.workload);
            return 2;
        }
    };
    for failure in &outcome.failures {
        eprintln!("xicbench {}: FAILED: {failure}", cfg.workload);
    }

    let mut shape = vec![
        ("workload", json::quote(&cfg.workload)),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", cfg.trace.to_string()),
        (
            "size",
            json::quote(if cfg.size == Size::Full {
                "full"
            } else {
                "tiny"
            }),
        ),
    ];
    shape.append(&mut outcome.shape);
    let shape: Vec<String> = shape
        .iter()
        .map(|(k, v)| format!("{}: {v}", json::quote(k)))
        .collect();
    println!("{{\"shape\": {{{}}}}}", shape.join(", "));
    if !outcome.layers.is_empty() {
        let rows: Vec<String> = outcome
            .layers
            .iter()
            .map(|(name, us_per_op, share)| {
                format!(
                    "{}: {{\"self_us_per_op\": {us_per_op}, \"share\": {share}}}",
                    json::quote(name)
                )
            })
            .collect();
        println!("{{\"layers\": {{{}}}}}", rows.join(", "));
    }

    let correct = outcome.failed == 0;
    let metrics = if correct {
        let table = if cfg.trace { PER_LAYER } else { END_TO_END };
        let mut rows = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = outcome
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            if !value.is_finite() {
                eprintln!("xicbench {}: metric {name} is not finite", cfg.workload);
                return 2;
            }
            rows.push(format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit)
            ));
        }
        rows.join(", ")
    } else {
        String::new()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        0
    } else {
        1
    }
}
