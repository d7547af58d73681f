//! `ingest` — the cold document path, at a corpus size where the corpus
//! open's super-linear cost shows.
//!
//! One round validates every document once through
//! `BatchEngine::validate_batch` (the default `xic batch` width), then
//! opens every document into a fresh `CorpusSession` and commits.  The
//! operation is one ingested document: `ops_per_s` counts documents per
//! second of round time (both halves), and the latency samples are the
//! per-document `open_source` calls.  The first round only warms up (its
//! page faults are not counted).  Gate: each round's batch report equals
//! its corpus report.

use std::sync::Arc;
use std::time::{Duration, Instant};

use xic_engine::{BatchDoc, BatchEngine, BatchReport, CompiledSpec, CorpusSession, DocReport};
use xic_telemetry::{Counter, Histogram};
use xic_xml::XmlTree;

use crate::inputs::{catalogue_doc, corpus_spec, total_bytes};
use crate::pace::Pacer;
use crate::stats::{self, setup_median};
use crate::{trace, Config, Outcome, Samples, Size};

/// The program's own instruments this workload reads (global registry).
struct Instruments {
    parse_ns: Arc<Histogram>,
    parse_docs: Arc<Counter>,
    index_ns: Arc<Histogram>,
    index_builds: Arc<Counter>,
    incremental_ns: Arc<Histogram>,
    incremental_builds: Arc<Counter>,
    batch_doc_ns: Arc<Histogram>,
    recheck_ns: Arc<Histogram>,
}

impl Instruments {
    fn resolve() -> Instruments {
        let g = xic_telemetry::global();
        Instruments {
            parse_ns: g.histogram("parse.doc_ns"),
            parse_docs: g.counter("parse.docs"),
            index_ns: g.histogram("index.build_ns"),
            index_builds: g.counter("index.builds"),
            incremental_ns: g.histogram("incremental.build_ns"),
            incremental_builds: g.counter("incremental.builds"),
            batch_doc_ns: g.histogram("batch.doc_ns"),
            recheck_ns: g.histogram("corpus.recheck_ns"),
        }
    }
}

/// Per-round measurements.
#[derive(Default)]
struct Round {
    opens: Samples,
    batch_ns: u64,
    corpus_ns: u64,
    total_ns: u64,
    /// The round's operation time in reference seconds.
    ref_s: f64,
    // Traced rounds only: the program's counter deltas.
    parse_ns: u64,
    parse_docs: u64,
    index_ns: u64,
    index_builds: u64,
    incremental_ns: u64,
    incremental_builds: u64,
    validate_ns: u64,
}

struct Ingest<'a> {
    spec: &'a CompiledSpec,
    docs: &'a [BatchDoc],
    engine: BatchEngine,
    instr: Instruments,
    /// Parsed copies of the documents, for the traced run's `T ⊨ D` probe.
    probe_trees: Vec<XmlTree>,
    corrupt_oracle: bool,
}

impl Ingest<'_> {
    fn round(&self, traced: bool, out: &mut Outcome, pacer: &mut Pacer) -> Round {
        let mut r = Round::default();
        let i = &self.instr;
        let factor = pacer.tick();
        let op = trace::span("bench.ingest_round");

        let (parse0, index0, busy0) = (i.parse_ns.sum(), i.index_ns.sum(), i.batch_doc_ns.sum());
        let (docs0, builds0, incr_builds0) = (
            i.parse_docs.get(),
            i.index_builds.get(),
            i.incremental_builds.get(),
        );
        let call = trace::span("engine.batch");
        let t = Instant::now();
        let batch = self.engine.validate_batch(self.spec, self.docs);
        r.batch_ns = t.elapsed().as_nanos() as u64;
        r.ref_s = r.batch_ns as f64 / 1e9 * factor;
        let batch_id = call.close();
        let (batch_parse, batch_index, batch_busy) = (
            i.parse_ns.sum() - parse0,
            i.index_ns.sum() - index0,
            i.batch_doc_ns.sum() - busy0,
        );

        let mut corpus = CorpusSession::new(self.spec);
        let mut opened = 0;
        for doc in self.docs {
            let factor = pacer.tick();
            let (p0, b0) = (i.parse_ns.sum(), i.incremental_ns.sum());
            let call = trace::span("engine.corpus.open");
            let t = Instant::now();
            let result = corpus.open_source(&doc.label, &doc.content);
            let open_ns = t.elapsed().as_nanos() as u64;
            r.opens.push(open_ns as f64 / 1e3, factor);
            r.corpus_ns += open_ns;
            r.ref_s += open_ns as f64 / 1e9 * factor;
            let id = call.close();
            if traced {
                let (dp, db) = (i.parse_ns.sum() - p0, i.incremental_ns.sum() - b0);
                trace::derive(id, "xmltree.parse", dp);
                trace::derive(id, "constraints.incremental_build", db);
                r.parse_ns += dp;
                r.incremental_ns += db;
            }
            out.attempted += 1;
            match result {
                Ok(_) => opened += 1,
                Err(e) => {
                    out.failed += 1;
                    out.failures.push(format!("open {}: {e}", doc.label));
                }
            }
        }
        let factor = pacer.tick();
        let recheck0 = i.recheck_ns.sum();
        let call = trace::span("engine.corpus.commit");
        let t = Instant::now();
        corpus.commit();
        let commit_ns = t.elapsed().as_nanos() as u64;
        let commit_id = call.close();
        let recheck = i.recheck_ns.sum() - recheck0;
        r.corpus_ns += commit_ns;
        r.ref_s += commit_ns as f64 / 1e9 * factor;
        r.total_ns = r.batch_ns + r.corpus_ns;
        drop(op);

        if traced {
            r.parse_ns += batch_parse;
            r.index_ns = batch_index;
            r.parse_docs = i.parse_docs.get() - docs0;
            r.index_builds = i.index_builds.get() - builds0;
            r.incremental_builds = i.incremental_builds.get() - incr_builds0;
            // Probe: structural validation of every document, timed alone.
            let probe = trace::span("probe.validate");
            let validator = self.spec.validator();
            let t = Instant::now();
            for tree in &self.probe_trees {
                std::hint::black_box(validator.validate(tree));
            }
            r.validate_ns = t.elapsed().as_nanos() as u64;
            drop(probe);
            // The batch spreads documents over worker threads: attribute
            // its wall time in proportion to the busy time of each part.
            let scale = (r.batch_ns as f64 / batch_busy.max(1) as f64).min(1.0);
            let share = |ns: u64| (ns as f64 * scale) as u64;
            trace::derive(batch_id, "xmltree.parse", share(batch_parse));
            trace::derive(batch_id, "xmltree.validate", share(r.validate_ns));
            trace::derive(batch_id, "constraints.docindex_build", share(batch_index));
            // The commit re-checks every new document: `T ⊨ D` plus the
            // incremental index's `T ⊨ Σ`.
            let validate = r.validate_ns.min(recheck);
            trace::derive(commit_id, "xmltree.validate", validate);
            trace::derive(
                commit_id,
                "constraints.incremental_check",
                recheck - validate,
            );
        }

        // Gate, untimed: the corpus report is the batch report.
        let corpus_report = corpus.report();
        let oracle = oracle_reports(batch, self.corrupt_oracle);
        out.gate(
            opened == self.docs.len() && corpus_report.reports() == oracle.as_slice(),
            || "ingest: corpus report differs from the batch report".to_string(),
        );
        r
    }
}

/// The oracle's per-document reports, as the gates compare them.  With
/// `corrupt` set (a test hook) one invented structural error is added:
/// what a broken oracle would hand the gate.
pub(crate) fn oracle_reports(report: BatchReport, corrupt: bool) -> Vec<DocReport> {
    let mut reports = report.reports().to_vec();
    if let (true, Some(first)) = (corrupt, reports.first_mut()) {
        first
            .validation_errors
            .push("corrupted oracle (test hook)".to_string());
    }
    reports
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (num_docs, fanout) = match cfg.size {
        Size::Full => (128, 120),
        Size::Tiny => (8, 4),
    };
    let (dtd, sigma) = corpus_spec();
    let docs: Vec<BatchDoc> = (0..num_docs)
        .map(|i| catalogue_doc(&dtd, cfg.seed, i, fanout))
        .collect();
    let bytes = total_bytes(&docs);

    let mut pacer = Pacer::new(!cfg.trace, false).map_err(|e| format!("pacer: {e}"))?;
    let (setup_s, spec) = setup_median(&mut pacer, || {
        CompiledSpec::compile(dtd.clone(), sigma.clone()).expect("corpus spec compiles")
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let probe_trees = docs
        .iter()
        .map(|d| spec.parse_document(&d.content))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("generated document does not parse: {e}"))?;
    let ingest = Ingest {
        spec: &spec,
        docs: &docs,
        engine: BatchEngine::new(threads),
        instr: Instruments::resolve(),
        probe_trees,
        corrupt_oracle: cfg.corrupt_oracle,
    };

    let mut out = Outcome::default();
    let nodes: usize = ingest.probe_trees.iter().map(XmlTree::num_nodes).sum();
    out.shape("docs", num_docs);
    out.shape("bytes", bytes);
    out.shape("nodes", nodes);
    out.shape("constraints", spec.sigma().len());
    out.shape("batch_threads", threads);
    out.shape("first_open_counted", false);

    // Warm-up round: allocator and page-cache state settle; not counted.
    ingest.round(false, &mut out, &mut pacer);
    out.warmed_up();

    let (untraced, traced) = cfg.phases();
    let rounds = run_rounds(&ingest, untraced, false, &mut out, &mut pacer);

    if !cfg.trace {
        let mut opens = Samples::default();
        for r in &rounds {
            opens.raw_us.extend(&r.opens.raw_us);
            opens.ref_us.extend(&r.opens.ref_us);
        }
        let busy = rounds.iter().map(|r| r.ref_s).sum::<f64>();
        out.end_to_end(&opens, num_docs * rounds.len(), busy, setup_s, 0.99, &pacer);
        out.shape("rounds", rounds.len());
        return Ok(out);
    }

    let untraced_mean_us =
        stats::us(rounds.iter().map(|r| r.total_ns).sum::<u64>()) / rounds.len() as f64;
    trace::start();
    let traced_rounds = run_rounds(&ingest, traced, true, &mut out, &mut pacer);
    let spans = trace::finish();

    let n = traced_rounds.len() as f64;
    let docs_total = n * num_docs as f64;
    let sum = |f: fn(&Round) -> u64| traced_rounds.iter().map(f).sum::<u64>();
    let self_ns = |name: &str| trace::self_durations(&spans, name).iter().sum::<u64>();
    out.metric(
        "xmltree.parse_mb_per_s",
        (2 * bytes) as f64 * n / 1e6 / (sum(|r| r.parse_ns) as f64 / 1e9).max(1e-12),
    );
    out.metric(
        "xmltree.validate_us_per_doc",
        stats::us(sum(|r| r.validate_ns)) / docs_total,
    );
    out.metric(
        "constraints.docindex_build_us_per_doc",
        stats::us(sum(|r| r.index_ns)) / docs_total,
    );
    out.metric(
        "engine.batch.self_us_per_doc",
        stats::us(self_ns("engine.batch")) / docs_total,
    );
    out.metric(
        "engine.batch.mb_per_s",
        bytes as f64 * n / 1e6 / (sum(|r| r.batch_ns) as f64 / 1e9),
    );
    out.metric(
        "constraints.incremental_build_us_per_doc",
        stats::us(sum(|r| r.incremental_ns)) / docs_total,
    );
    out.metric(
        "engine.corpus.open_self_us_per_doc",
        stats::us(self_ns("engine.corpus.open")) / docs_total,
    );
    let quarter = (num_docs / 4).max(1);
    let open_quarter = |range: std::ops::Range<usize>| {
        let samples: Vec<f64> = traced_rounds
            .iter()
            .flat_map(|r| r.opens.raw_us[range.clone()].to_vec())
            .collect();
        stats::mean(&samples)
    };
    out.metric(
        "engine.corpus.open_us_per_doc.first",
        open_quarter(0..quarter),
    );
    out.metric(
        "engine.corpus.open_us_per_doc.last",
        open_quarter(num_docs - quarter..num_docs),
    );
    out.metric(
        "engine.corpus.open_docs_per_s",
        docs_total / (sum(|r| r.corpus_ns) as f64 / 1e9),
    );
    out.metric("parse.docs", sum(|r| r.parse_docs) as f64 / n);
    out.metric("index.builds", sum(|r| r.index_builds) as f64 / n);
    out.metric(
        "incremental.builds",
        sum(|r| r.incremental_builds) as f64 / n,
    );
    out.trace_rows(cfg, &spans, traced_rounds.len(), untraced_mean_us);
    out.shape("rounds", rounds.len() + traced_rounds.len());
    Ok(out)
}

/// Runs rounds until `phase` has passed (at least one).
fn run_rounds(
    ingest: &Ingest<'_>,
    phase: Duration,
    traced: bool,
    out: &mut Outcome,
    pacer: &mut Pacer,
) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds = vec![ingest.round(traced, out, pacer)];
    while start.elapsed() < phase {
        rounds.push(ingest.round(traced, out, pacer));
    }
    rounds
}
