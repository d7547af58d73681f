//! Parallel batch validation of documents against one compiled spec.
//!
//! A `std::thread` worker pool pulls `(index, document)` jobs from a shared
//! channel, validates each document against the spec's precompiled automata
//! and `T ⊨ Σ` index layout, and sends `(index, report)` results back.
//! Reports are re-assembled **by input index**, so the aggregate report —
//! including its rendered form — is byte-identical whatever the thread
//! count or completion order.
//!
//! **Fault containment.**  Per-document work runs under
//! [`std::panic::catch_unwind`]: a document whose validation panics is
//! quarantined as a [`DocFault::Panic`] report while every other document
//! still validates normally — one poisoned input can no longer take down
//! the batch (the job-channel mutex is recovered from poisoning, and no
//! slot is ever `unwrap`ed).  Documents turned away by [`crate::Limits`]
//! (parse budget, batch deadline) come back as [`DocFault::Resource`]
//! reports; both kinds are distinguished from ordinary violations in
//! [`BatchReport`] so callers can map them to distinct exit codes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread;
use std::time::Instant;

use xic_constraints::Violation;
use xic_telemetry::{Counter, Histogram};
use xic_xml::budget::ParseError;
use xic_xml::XmlTree;

use crate::limits::{LimitKind, Limits, ResourceError};
use crate::spec::CompiledSpec;

/// Global-registry batch instruments, resolved once: per-document pipeline
/// latency (`batch.doc_ns`), total documents processed (`batch.docs`), and
/// per-worker throughput (`batch.worker_docs` — one sample per worker per
/// batch, so its quantiles show how evenly the job channel spread the load).
fn instruments() -> &'static (Arc<Counter>, Arc<Histogram>, Arc<Histogram>) {
    static INSTRUMENTS: OnceLock<(Arc<Counter>, Arc<Histogram>, Arc<Histogram>)> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        let registry = xic_telemetry::global();
        (
            registry.counter("batch.docs"),
            registry.histogram("batch.doc_ns"),
            registry.histogram("batch.worker_docs"),
        )
    })
}

/// Resilience instruments (global registry), resolved once: contained
/// panics and batches degraded by at least one of them.
pub(crate) fn resilience_instruments() -> &'static (Arc<Counter>, Arc<Counter>) {
    static INSTRUMENTS: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        let registry = xic_telemetry::global();
        (
            registry.counter("resilience.panics_contained"),
            registry.counter("resilience.degraded_batches"),
        )
    })
}

/// Renders a `catch_unwind` payload: panics raised with a string message
/// keep it, anything else is labeled opaquely.
pub(crate) fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One document submitted to a batch: a label (typically its path) and its
/// XML source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchDoc {
    /// Display label used in reports.
    pub label: String,
    /// XML source text.
    pub content: String,
}

impl BatchDoc {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, content: impl Into<String>) -> BatchDoc {
        BatchDoc {
            label: label.into(),
            content: content.into(),
        }
    }
}

/// Why a document produced no verdict: its work was quarantined or turned
/// away, as opposed to it being checked and found violating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocFault {
    /// Validation (or, in a [`crate::CorpusSession`], an edit) panicked;
    /// the panic was contained and the document quarantined.  Other
    /// documents are unaffected.
    Panic {
        /// The panic message (or an opaque label for non-string payloads).
        cause: String,
    },
    /// A [`Limits`] bound rejected the document before (or instead of)
    /// validating it — shed load and retry.
    Resource {
        /// The rendered [`ResourceError`], naming the violated limit.
        cause: String,
    },
}

impl DocFault {
    /// The underlying cause text.
    pub fn cause(&self) -> &str {
        match self {
            DocFault::Panic { cause } | DocFault::Resource { cause } => cause,
        }
    }

    /// Stable one-word classification: `"panic"` or `"resource"`.
    pub fn kind(&self) -> &'static str {
        match self {
            DocFault::Panic { .. } => "panic",
            DocFault::Resource { .. } => "resource",
        }
    }
}

/// Everything found wrong with one document (empty vectors, no parse error
/// and no fault mean the document conforms to the DTD and satisfies Σ).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocReport {
    /// Position of the document in the submitted batch.
    pub index: usize,
    /// The document's label.
    pub label: String,
    /// Parse failure, if the source is not well-formed for this DTD.
    pub parse_error: Option<String>,
    /// Rendered `T ⊨ D` violations.
    pub validation_errors: Vec<String>,
    /// `T ⊨ Σ` violations, with structured witnesses (render with
    /// `Display`, or consume the witness nodes/values directly — the CLI's
    /// `--format json` does the latter).
    pub violations: Vec<Violation>,
    /// Set when the document has **no verdict**: its validation panicked
    /// and was contained, or a resource limit turned it away.  Mutually
    /// exclusive with the verdict fields above.
    pub fault: Option<DocFault>,
}

impl DocReport {
    /// A verdict-less report for a quarantined or rejected document.
    pub fn faulted(index: usize, label: impl Into<String>, fault: DocFault) -> DocReport {
        DocReport {
            index,
            label: label.into(),
            parse_error: None,
            validation_errors: Vec::new(),
            violations: Vec::new(),
            fault: Some(fault),
        }
    }

    /// `true` iff the document parsed, validates and satisfies Σ.
    pub fn is_clean(&self) -> bool {
        self.parse_error.is_none()
            && self.validation_errors.is_empty()
            && self.violations.is_empty()
            && self.fault.is_none()
    }

    /// `true` iff the document was quarantined by a contained panic.
    pub fn is_panicked(&self) -> bool {
        matches!(self.fault, Some(DocFault::Panic { .. }))
    }

    /// `true` iff the document was turned away by a resource limit.
    pub fn is_resource_rejected(&self) -> bool {
        matches!(self.fault, Some(DocFault::Resource { .. }))
    }
}

/// The aggregate of a batch run, ordered by input index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    reports: Vec<DocReport>,
}

impl BatchReport {
    /// Assembles a report from already-ordered per-document reports (used
    /// by [`crate::CorpusSession::report`] to materialize snapshots).
    pub(crate) fn from_reports(reports: Vec<DocReport>) -> BatchReport {
        BatchReport { reports }
    }

    /// Per-document reports, ordered by input index.
    pub fn reports(&self) -> &[DocReport] {
        &self.reports
    }

    /// Number of documents in the batch.
    pub fn total(&self) -> usize {
        self.reports.len()
    }

    /// Number of clean documents.
    pub fn clean_count(&self) -> usize {
        self.reports.iter().filter(|r| r.is_clean()).count()
    }

    /// Number of documents quarantined by a contained panic.
    pub fn panicked_count(&self) -> usize {
        self.reports.iter().filter(|r| r.is_panicked()).count()
    }

    /// Number of documents turned away by a resource limit.
    pub fn resource_rejected_count(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.is_resource_rejected())
            .count()
    }

    /// Deterministic plain-text rendering (identical across thread counts).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            if r.is_clean() {
                out.push_str(&format!("[{}] {}: ok\n", r.index, r.label));
                continue;
            }
            out.push_str(&format!("[{}] {}:\n", r.index, r.label));
            if let Some(fault) = &r.fault {
                match fault {
                    DocFault::Panic { cause } => {
                        out.push_str(&format!("    faulted: {cause}\n"));
                    }
                    DocFault::Resource { cause } => {
                        out.push_str(&format!("    resource-rejected: {cause}\n"));
                    }
                }
            }
            if let Some(err) = &r.parse_error {
                out.push_str(&format!("    parse error: {err}\n"));
            }
            for e in &r.validation_errors {
                out.push_str(&format!("    invalid: {e}\n"));
            }
            for v in &r.violations {
                out.push_str(&format!("    violation: {v}\n"));
            }
        }
        out.push_str(&format!(
            "{}/{} documents clean\n",
            self.clean_count(),
            self.total()
        ));
        out
    }
}

/// A fixed-size worker pool for batch validation.
#[derive(Debug, Clone)]
pub struct BatchEngine {
    threads: usize,
    /// Whether `threads` was an explicit caller request (as opposed to the
    /// default width derived from the hardware).  Only derived widths are
    /// allowed to degrade on single-threaded hosts — an explicit
    /// `--threads N` is honored as configured.
    explicit: bool,
    limits: Limits,
}

impl Default for BatchEngine {
    fn default() -> Self {
        let threads = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        BatchEngine {
            threads: threads.max(1),
            explicit: false,
            limits: Limits::UNLIMITED,
        }
    }
}

impl BatchEngine {
    /// A pool of `threads` workers (minimum 1; 1 means fully sequential),
    /// with no resource limits.
    pub fn new(threads: usize) -> BatchEngine {
        BatchEngine::with_limits(threads, Limits::UNLIMITED)
    }

    /// A pool that enforces `limits`: per-document parse budgets reject
    /// oversized documents as [`DocFault::Resource`] reports, and
    /// [`Limits::deadline`] stops starting new documents once the batch has
    /// run past it (documents already finished keep their verdicts).
    pub fn with_limits(threads: usize, limits: Limits) -> BatchEngine {
        BatchEngine {
            threads: threads.max(1),
            explicit: true,
            limits,
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured resource limits ([`Limits::UNLIMITED`] by default).
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// The worker count actually used.  A *default* width on a single
    /// hardware thread degrades to the sequential path (the pool is pure
    /// overhead there — timeslicing costs ~30% with no parallelism to win),
    /// but an explicit [`BatchEngine::new`] / `--threads N` request is
    /// honored exactly as configured: the caller who asked for a width gets
    /// that width, single-core host or not.
    pub fn effective_threads(&self) -> usize {
        if self.explicit {
            return self.threads;
        }
        match thread::available_parallelism() {
            Ok(n) if n.get() == 1 => 1,
            _ => self.threads,
        }
    }

    /// Validates already-parsed trees against the spec: `T ⊨ D` with the
    /// precompiled automata, `T ⊨ Σ` through
    /// [`CompiledSpec::check_document`] — the cold half of
    /// [`BatchEngine::validate_batch`] without the parse.  Runs
    /// sequentially (resident trees have no parse cost to amortize over
    /// workers) and reports in input order, so it doubles as the
    /// witness-exact rebuild oracle the corpus-session differential tests
    /// compare against: node ids come from the trees themselves, not from a
    /// reparse that would renumber them.
    pub fn validate_trees(&self, spec: &CompiledSpec, docs: &[(&str, &XmlTree)]) -> BatchReport {
        let validator = spec.validator();
        let reports = docs
            .iter()
            .enumerate()
            .map(|(index, (label, tree))| DocReport {
                index,
                label: (*label).to_string(),
                parse_error: None,
                validation_errors: validator
                    .validate(tree)
                    .iter()
                    .map(|e| e.to_string())
                    .collect(),
                violations: spec.check_document(tree),
                fault: None,
            })
            .collect();
        BatchReport { reports }
    }

    /// Validates every document against the spec: parse (interning values),
    /// `T ⊨ D` with the precompiled automata, `T ⊨ Σ` through
    /// [`CompiledSpec::check_document`] (one
    /// [`xic_constraints::IncrementalIndex`] build over the spec's shared
    /// layout).  Each parsed tree interns its own values into a pool of its
    /// own, so documents share no state and their cost does not grow with
    /// the batch.
    pub fn validate_batch(&self, spec: &CompiledSpec, docs: &[BatchDoc]) -> BatchReport {
        // One clock read per batch; individual documents only compare
        // against it when a deadline is actually configured.
        let started = self.limits.deadline.map(|_| Instant::now());

        let reports = if self.effective_threads() == 1 || docs.len() <= 1 {
            let reports: Vec<DocReport> = docs
                .iter()
                .enumerate()
                .map(|(i, d)| self.process_one(spec, i, d, started))
                .collect();
            if !docs.is_empty() {
                instruments().2.record(docs.len() as u64);
            }
            reports
        } else {
            self.validate_parallel(spec, docs, started)
        };

        if reports.iter().any(DocReport::is_panicked) {
            resilience_instruments().1.inc();
        }
        BatchReport { reports }
    }

    /// The worker-pool path of [`BatchEngine::validate_batch`].
    fn validate_parallel(
        &self,
        spec: &CompiledSpec,
        docs: &[BatchDoc],
        started: Option<Instant>,
    ) -> Vec<DocReport> {
        let (job_tx, job_rx) = mpsc::channel::<(usize, &BatchDoc)>();
        let (result_tx, result_rx) = mpsc::channel::<DocReport>();
        for job in docs.iter().enumerate() {
            job_tx.send(job).expect("job channel open");
        }
        drop(job_tx);
        let job_rx = Mutex::new(job_rx);

        let mut reports: Vec<Option<DocReport>> = vec![None; docs.len()];
        thread::scope(|scope| {
            for _ in 0..self.threads.min(docs.len()) {
                let job_rx = &job_rx;
                let result_tx = result_tx.clone();
                scope.spawn(move || {
                    let mut processed: u64 = 0;
                    loop {
                        // Hold the receiver lock only for the pop, not the
                        // work.  Per-document panics are contained below, so
                        // the lock cannot poison while held; recover anyway
                        // rather than propagate — the receiver has no
                        // invariant a panic could have broken.
                        let job = job_rx
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .try_recv();
                        match job {
                            Ok((index, doc)) => {
                                let report = self.process_one(spec, index, doc, started);
                                processed += 1;
                                if result_tx.send(report).is_err() {
                                    break;
                                }
                            }
                            Err(_) => break,
                        }
                    }
                    if processed > 0 {
                        instruments().2.record(processed);
                    }
                });
            }
            drop(result_tx);
            for report in result_rx {
                let slot = report.index;
                reports[slot] = Some(report);
            }
        });

        reports
            .into_iter()
            .enumerate()
            .map(|(slot, r)| {
                // Every job produces a report (even contained panics), so
                // an empty slot can only mean a worker died outside the
                // containment envelope.  Quarantine the document instead of
                // unwrapping away the whole batch.
                r.unwrap_or_else(|| {
                    resilience_instruments().0.inc();
                    DocReport::faulted(
                        slot,
                        docs[slot].label.clone(),
                        DocFault::Panic {
                            cause: "worker produced no report".to_string(),
                        },
                    )
                })
            })
            .collect()
    }

    /// One document through limits, containment and the pipeline: deadline
    /// check first (rejected documents are never started), then the
    /// per-document work under `catch_unwind`.
    fn process_one(
        &self,
        spec: &CompiledSpec,
        index: usize,
        doc: &BatchDoc,
        started: Option<Instant>,
    ) -> DocReport {
        if let (Some(start), Some(deadline)) = (started, self.limits.deadline) {
            // `>=` so a zero deadline deterministically rejects everything.
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                let err = ResourceError::new(
                    LimitKind::Deadline,
                    deadline.as_millis() as u64,
                    elapsed.as_millis() as u64,
                    format!("batch: document `{}` not started", doc.label),
                );
                return DocReport::faulted(
                    index,
                    doc.label.clone(),
                    DocFault::Resource {
                        cause: err.to_string(),
                    },
                );
            }
        }
        match catch_unwind(AssertUnwindSafe(|| {
            if xic_telemetry::faults::hit("batch.doc") {
                panic!("injected fault: batch.doc");
            }
            process_doc(spec, index, doc, &self.limits)
        })) {
            Ok(result) => result,
            Err(payload) => {
                resilience_instruments().0.inc();
                DocReport::faulted(
                    index,
                    doc.label.clone(),
                    DocFault::Panic {
                        cause: panic_cause(payload),
                    },
                )
            }
        }
    }
}

/// The per-document pipeline shared by the sequential and parallel paths.
fn process_doc(spec: &CompiledSpec, index: usize, doc: &BatchDoc, limits: &Limits) -> DocReport {
    let (docs, doc_ns, _) = instruments();
    let timer = xic_telemetry::global().start_timer();
    let result = process_doc_uninstrumented(spec, index, doc, limits);
    docs.inc();
    if let Some(start) = timer {
        doc_ns.record_elapsed(start);
    }
    result
}

fn process_doc_uninstrumented(
    spec: &CompiledSpec,
    index: usize,
    doc: &BatchDoc,
    limits: &Limits,
) -> DocReport {
    let label = doc.label.clone();
    let budget = limits.parse_budget();
    let tree = match spec.parse_document_budgeted(&doc.content, &budget) {
        Ok(tree) => tree,
        Err(ParseError::Xml(err)) => {
            return DocReport {
                index,
                label,
                parse_error: Some(err.to_string()),
                validation_errors: Vec::new(),
                violations: Vec::new(),
                fault: None,
            }
        }
        Err(ParseError::Budget(b)) => {
            let err = ResourceError::from_budget(b, label.clone());
            return DocReport::faulted(
                index,
                label,
                DocFault::Resource {
                    cause: err.to_string(),
                },
            );
        }
    };
    let validation_errors = spec
        .validator()
        .validate(&tree)
        .iter()
        .map(|e| e.to_string())
        .collect();
    let violations = spec.check_document(&tree);
    DocReport {
        index,
        label,
        parse_error: None,
        validation_errors,
        violations,
        fault: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CompiledSpec;

    fn school_spec() -> CompiledSpec {
        CompiledSpec::from_sources(
            "<!ELEMENT school (teacher*)>\n\
             <!ELEMENT teacher EMPTY>\n\
             <!ATTLIST teacher name CDATA #REQUIRED>",
            Some("school"),
            "teacher.name -> teacher",
        )
        .unwrap()
    }

    fn docs() -> Vec<BatchDoc> {
        vec![
            BatchDoc::new("ok", "<school><teacher name=\"Joe\"/></school>"),
            BatchDoc::new(
                "dup-key",
                "<school><teacher name=\"Joe\"/><teacher name=\"Joe\"/></school>",
            ),
            BatchDoc::new("broken", "<school><teacher name=\"Joe\"/>"),
            BatchDoc::new("wrong-shape", "<school><school></school></school>"),
        ]
    }

    #[test]
    fn sequential_reports_are_ordered_and_classified() {
        let spec = school_spec();
        let report = BatchEngine::new(1).validate_batch(&spec, &docs());
        assert_eq!(report.total(), 4);
        assert!(report.reports()[0].is_clean());
        assert!(!report.reports()[1].violations.is_empty());
        assert!(report.reports()[2].parse_error.is_some());
        assert!(!report.reports()[3].is_clean());
        assert_eq!(report.clean_count(), 1);
        let indices: Vec<usize> = report.reports().iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
    }

    #[test]
    fn parallel_report_is_byte_identical_to_sequential() {
        let spec = school_spec();
        let docs = docs();
        let sequential = BatchEngine::new(1).validate_batch(&spec, &docs);
        for threads in [2, 4, 8] {
            let parallel = BatchEngine::new(threads).validate_batch(&spec, &docs);
            assert_eq!(parallel, sequential);
            assert_eq!(parallel.render(), sequential.render());
        }
    }

    #[test]
    fn single_core_degrades_only_the_default_width() {
        let spec = school_spec();
        let docs = docs();
        // An explicit width is honored verbatim — a 1-core host must not
        // silently discard `BatchEngine::new(8)`.
        let engine = BatchEngine::new(8);
        assert_eq!(engine.threads(), 8);
        assert_eq!(engine.effective_threads(), 8);
        // Only the hardware-derived default degrades to sequential when the
        // host is known to be single-threaded.
        let derived = BatchEngine::default();
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if hardware == 1 {
            assert_eq!(derived.effective_threads(), 1);
        } else {
            assert_eq!(derived.effective_threads(), derived.threads());
        }
        // The verdict reports are identical whichever path runs.
        let sequential = BatchEngine::new(1).validate_batch(&spec, &docs);
        let scheduled = engine.validate_batch(&spec, &docs);
        assert_eq!(scheduled, sequential);
        assert_eq!(scheduled.render(), sequential.render());
    }

    #[test]
    fn validate_trees_is_the_parse_free_half_of_validate_batch() {
        let spec = school_spec();
        // The parseable documents of the standard batch, pre-parsed.
        let sources = [
            ("ok", "<school><teacher name=\"Joe\"/></school>"),
            (
                "dup-key",
                "<school><teacher name=\"Joe\"/><teacher name=\"Joe\"/></school>",
            ),
        ];
        let trees: Vec<(&str, xic_xml::XmlTree)> = sources
            .iter()
            .map(|(label, src)| (*label, spec.parse_document(src).unwrap()))
            .collect();
        let borrowed: Vec<(&str, &XmlTree)> =
            trees.iter().map(|(label, tree)| (*label, tree)).collect();
        let from_trees = BatchEngine::new(1).validate_trees(&spec, &borrowed);
        let from_sources = BatchEngine::new(1).validate_batch(
            &spec,
            &sources.map(|(label, src)| BatchDoc::new(label, src)),
        );
        assert_eq!(from_trees, from_sources);
    }

    #[test]
    fn empty_batch_is_fine() {
        let spec = school_spec();
        let report = BatchEngine::new(4).validate_batch(&spec, &[]);
        assert_eq!(report.total(), 0);
        assert_eq!(report.render(), "0/0 documents clean\n");
    }

    #[test]
    fn node_limit_rejects_as_resource_fault_not_parse_error() {
        let spec = school_spec();
        let engine = BatchEngine::with_limits(
            1,
            crate::Limits {
                max_doc_nodes: Some(1),
                ..crate::Limits::UNLIMITED
            },
        );
        let report = engine.validate_batch(&spec, &docs());
        // Every document of the standard batch grows past one node mid-parse
        // (`broken`'s budget trips before its syntax error is even reached) —
        // all are rejected, none panic, verdicts are never wrong.
        for r in report.reports() {
            assert!(r.is_resource_rejected(), "{:?}", r);
            assert!(r.fault.as_ref().unwrap().cause().contains("max_doc_nodes"));
            assert!(r.parse_error.is_none());
        }
        assert_eq!(report.resource_rejected_count(), report.total());
        assert_eq!(report.panicked_count(), 0);
        let rendered = report.render();
        assert!(rendered.contains("resource-rejected"), "{rendered}");
    }

    #[test]
    fn deadline_zero_rejects_every_document_unstarted() {
        let spec = school_spec();
        let engine = BatchEngine::with_limits(
            1,
            crate::Limits {
                deadline: Some(std::time::Duration::ZERO),
                ..crate::Limits::UNLIMITED
            },
        );
        let report = engine.validate_batch(&spec, &docs());
        assert_eq!(report.resource_rejected_count(), report.total());
        for r in report.reports() {
            assert!(r.fault.as_ref().unwrap().cause().contains("deadline_ms"));
        }
    }

    #[test]
    fn faulted_reports_render_distinctly_and_are_not_clean() {
        let report = DocReport::faulted(
            3,
            "poisoned-doc",
            DocFault::Panic {
                cause: "index out of bounds".to_string(),
            },
        );
        assert!(!report.is_clean());
        assert!(report.is_panicked());
        assert!(!report.is_resource_rejected());
        assert_eq!(report.fault.as_ref().unwrap().kind(), "panic");
        let batch = BatchReport::from_reports(vec![report]);
        assert!(batch.render().contains("faulted: index out of bounds"));
        assert_eq!(batch.panicked_count(), 1);
    }
}
