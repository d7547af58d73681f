//! `edit` — the incremental document path on a resident corpus.
//!
//! 32 documents of skewed size (most about 2.4k nodes, three about 20k)
//! stay open in one `CorpusSession`.  Each operation is one
//! single-document edit batch plus `commit()`: 80% `SetAttr` on an
//! attribute Σ constrains, with values from a 16-value pool so violation
//! sets keep changing, and 20% structural edits that alternately append a
//! record to a document and remove it again, so sizes stay steady.  The
//! skew puts any O(document) commit cost into the p99, while O(edit) costs
//! show in the p50.  Gate: the final corpus report equals
//! `BatchEngine::validate_trees` on the final trees, witnesses included.

use std::sync::Arc;
use std::time::{Duration, Instant};

use xic_dtd::{AttrId, ElemId};
use xic_engine::{BatchDoc, BatchEngine, CompiledSpec, CorpusSession, DocHandle};
use xic_telemetry::Histogram;
use xic_xml::{EditOp, NodeId};

use crate::ingest::oracle_reports;
use crate::inputs::{catalogue_doc, constrained_slots, corpus_spec, total_bytes};
use crate::pace::Pacer;
use crate::stats::{self, setup_median, Rng};
use crate::{trace, Config, Outcome, Samples, Size};

/// Values `SetAttr` draws from: few enough that keys collide and
/// references resolve.
const VALUE_POOL: usize = 16;

struct Doc {
    handle: DocHandle,
    /// Constrained attribute slots of the document's original records.
    slots: Vec<(NodeId, AttrId)>,
    /// A record this workload appended and will remove next.
    appended: Option<NodeId>,
}

struct Editor<'s> {
    corpus: CorpusSession<'s>,
    docs: Vec<Doc>,
    rng: Rng,
    /// The catalogue's last kind: appending one at the root's end keeps
    /// the root's content model satisfied.
    last_kind: ElemId,
    ops: u64,
    failures: Vec<String>,
    /// The program's own recheck timer (global registry).
    recheck_ns: Arc<Histogram>,
}

/// Traced-phase measurements.
#[derive(Default)]
struct Probe {
    recheck_ns: u64,
    validate_ns: u64,
    delta_changes: u64,
}

impl Editor<'_> {
    /// One edit batch and its commit; returns the latency in µs.
    fn op(&mut self, traced: bool, probe: &mut Probe) -> f64 {
        let d = self.rng.below(self.docs.len());
        let ops = if self.rng.below(5) > 0 || self.docs[d].slots.is_empty() {
            let slots = &self.docs[d].slots;
            let (element, attr) = slots[self.rng.below(slots.len().max(1))];
            vec![EditOp::SetAttr {
                element,
                attr,
                value: format!("k{}", self.rng.below(VALUE_POOL)),
            }]
        } else {
            match self.docs[d].appended.take() {
                Some(element) => vec![EditOp::RemoveSubtree { element }],
                None => vec![EditOp::AddElement {
                    parent: self.root(d),
                    ty: self.last_kind,
                }],
            }
        };
        let handle = self.docs[d].handle;
        let recheck0 = self.recheck_ns.sum();

        let op = trace::span("bench.edit");
        let start = Instant::now();
        let call = trace::span("engine.corpus.apply");
        let applied = self.corpus.apply(handle, &ops);
        drop(call);
        let call = trace::span("engine.corpus.commit");
        let delta = self.corpus.commit();
        let commit_id = call.close();
        let latency_us = start.elapsed().as_nanos() as f64 / 1e3;
        drop(op);

        self.ops += 1;
        if self.ops.is_multiple_of(1024) {
            // A long-lived corpus drops deltas its subscribers consumed.
            self.corpus.prune_deltas(self.corpus.last_seq());
        }
        if let Err(e) = applied {
            self.failures.push(format!("edit {ops:?} on {handle}: {e}"));
        }
        if matches!(ops[0], EditOp::AddElement { .. }) {
            let tree = self.corpus.tree(handle).expect("open document");
            self.docs[d].appended = tree.children(tree.root()).last().copied();
        }
        if traced {
            let recheck = self.recheck_ns.sum() - recheck0;
            // Probe: structural validation of the committed document again.
            let probe_span = trace::span("probe.validate");
            let tree = self.corpus.tree(handle).expect("open document");
            let t = Instant::now();
            std::hint::black_box(self.corpus.spec().validator().validate(tree));
            let validate = (t.elapsed().as_nanos() as u64).min(recheck);
            drop(probe_span);
            trace::derive(commit_id, "xmltree.validate", validate);
            trace::derive(
                commit_id,
                "constraints.incremental_recheck",
                recheck - validate,
            );
            probe.recheck_ns += recheck;
            probe.validate_ns += validate;
            probe.delta_changes += delta.changes.len() as u64;
        }
        latency_us
    }

    fn root(&self, d: usize) -> NodeId {
        self.corpus
            .tree(self.docs[d].handle)
            .expect("open document")
            .root()
    }

    fn run_for(
        &mut self,
        phase: Duration,
        traced: bool,
        probe: &mut Probe,
        pacer: &mut Pacer,
    ) -> Samples {
        let start = Instant::now();
        let mut samples = Samples::default();
        while samples.is_empty() || start.elapsed() < phase {
            let factor = pacer.tick();
            samples.push(self.op(traced, probe), factor);
        }
        samples
    }
}

fn open_corpus<'s>(
    spec: &'s CompiledSpec,
    docs: &[BatchDoc],
) -> (CorpusSession<'s>, Vec<DocHandle>) {
    let mut corpus = CorpusSession::new(spec);
    let handles = docs
        .iter()
        .map(|d| {
            corpus
                .open_source(&d.label, &d.content)
                .expect("generated documents parse")
        })
        .collect();
    corpus.commit();
    (corpus, handles)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (num_docs, small, large, num_large) = match cfg.size {
        Size::Full => (32, 120, 1000, 3),
        Size::Tiny => (6, 3, 12, 1),
    };
    let (dtd, sigma) = corpus_spec();
    // The large documents sit at fixed, evenly spaced places in open order:
    // the corpus value pool a document's open copies grows with everything
    // opened before it, so their places set the corpus's memory.
    let spacing = num_docs / (num_large + 1);
    let docs: Vec<BatchDoc> = (0..num_docs)
        .map(|i| {
            let is_large = i % spacing == spacing - 1 && i / spacing < num_large;
            catalogue_doc(&dtd, cfg.seed, i, if is_large { large } else { small })
        })
        .collect();
    let rng = Rng::new(Rng::derive(cfg.seed, u64::MAX));

    // Set-up: spec compile plus the corpus open, repeated for a median.
    let mut pacer = Pacer::new(!cfg.trace, false).map_err(|e| format!("pacer: {e}"))?;
    let (setup_s, ()) = setup_median(&mut pacer, || {
        let spec = CompiledSpec::compile(dtd.clone(), sigma.clone()).expect("corpus spec compiles");
        std::hint::black_box(open_corpus(&spec, &docs).0.num_docs());
    });
    let spec = CompiledSpec::compile(dtd.clone(), sigma.clone()).expect("corpus spec compiles");
    let (corpus, handles) = open_corpus(&spec, &docs);
    let last_kind = spec.dtd().types().last().expect("the catalogue has kinds");
    let mut nodes = Vec::new();
    let doc_state: Vec<Doc> = handles
        .iter()
        .map(|&handle| {
            let tree = corpus.tree(handle).expect("open document");
            nodes.push(tree.num_nodes());
            Doc {
                handle,
                slots: constrained_slots(tree, spec.sigma()),
                appended: None,
            }
        })
        .collect();
    let mut editor = Editor {
        corpus,
        docs: doc_state,
        rng,
        last_kind,
        ops: 0,
        failures: Vec::new(),
        recheck_ns: xic_telemetry::global().histogram("corpus.recheck_ns"),
    };

    let mut out = Outcome::default();
    out.shape("docs", num_docs);
    out.shape("bytes", total_bytes(&docs));
    out.shape("nodes", nodes.iter().sum::<usize>());
    out.shape("nodes_max_doc", nodes.iter().max().copied().unwrap_or(0));
    out.shape("nodes_median_doc", {
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    });
    out.shape("constraints", spec.sigma().len());

    let mut probe = Probe::default();
    editor.run_for(Duration::from_millis(300), false, &mut probe, &mut pacer);
    out.warmed_up();
    let (untraced, traced) = cfg.phases();
    let samples = editor.run_for(untraced, false, &mut probe, &mut pacer);

    if cfg.trace {
        let rechecked = xic_telemetry::global().counter("incremental.constraints_rechecked");
        let rechecked0 = rechecked.get();
        trace::start();
        let traced_samples = editor.run_for(traced, true, &mut probe, &mut pacer);
        let spans = trace::finish();
        let commits = traced_samples.len() as f64;
        let us_of = |name: &str, q: f64| {
            let samples: Vec<f64> = trace::durations(&spans, name)
                .into_iter()
                .map(stats::us)
                .collect();
            stats::quantile_of(&samples, q)
        };
        out.metric("engine.corpus.apply_us", us_of("engine.corpus.apply", 0.5));
        out.metric(
            "engine.corpus.commit_us.p50",
            us_of("engine.corpus.commit", 0.5),
        );
        out.metric(
            "engine.corpus.commit_us.p99",
            us_of("engine.corpus.commit", 0.99),
        );
        out.metric(
            "engine.corpus.recheck_us",
            stats::us(probe.recheck_ns) / commits,
        );
        out.metric(
            "xmltree.validate_us_per_commit",
            stats::us(probe.validate_ns) / commits,
        );
        let commit_self: u64 = trace::self_durations(&spans, "engine.corpus.commit")
            .iter()
            .sum();
        out.metric(
            "engine.corpus.commit_self_us",
            stats::us(commit_self) / commits,
        );
        out.metric(
            "incremental.constraints_rechecked_per_commit",
            (rechecked.get() - rechecked0) as f64 / commits,
        );
        out.metric(
            "corpus.delta_changes_per_commit",
            probe.delta_changes as f64 / commits,
        );
        out.trace_rows(
            cfg,
            &spans,
            traced_samples.len(),
            stats::mean(&samples.raw_us),
        );
    } else {
        let busy = samples.ref_busy_s();
        out.end_to_end(&samples, samples.len(), busy, setup_s, 0.99, &pacer);
    }

    // Gates, untimed: every edit applied, and the incrementally maintained
    // report is a cold batch validation of the final trees.
    out.attempted += editor.ops;
    out.failed += editor.failures.len() as u64;
    out.failures.append(&mut editor.failures);
    let corpus = &editor.corpus;
    let trees: Vec<(&str, &xic_xml::XmlTree)> = handles
        .iter()
        .map(|&h| {
            (
                corpus.label(h).expect("open document"),
                corpus.tree(h).expect("open document"),
            )
        })
        .collect();
    let cold = BatchEngine::new(1).validate_trees(&spec, &trees);
    let cold = oracle_reports(cold, cfg.corrupt_oracle);
    let warm = corpus.report();
    out.gate(warm.reports() == cold.as_slice(), || {
        format!(
            "edit: corpus report ({} clean of {}) differs from validate_trees",
            warm.clean_count(),
            warm.total(),
        )
    });
    out.shape("edits", editor.ops);
    Ok(out)
}
