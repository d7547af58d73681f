//! Corpus-scale sessions: many open documents, one spec, O(edited
//! documents) re-verdicts.
//!
//! A [`CorpusSession`] is the one session type: every document it holds is
//! judged by the paper's full verdict `T ⊨ (D, Σ)` — structural
//! conformance plus constraint satisfaction — on every path (the CLI,
//! `xic serve`, the coordinator).  Re-validating a corpus after a change
//! costs O(edited documents), not a cold
//! [`crate::BatchEngine::validate_batch`] of everything:
//!
//! * **one spec, many documents** — every open document shares the
//!   [`CompiledSpec`]'s precompiled automata and its spec-level
//!   [`xic_constraints::IncrementalLayout`] (opening a document derives no
//!   layout, it clones an `Arc`);
//! * **one value pool per document** — each open tree owns the
//!   [`xic_xml::ValuePool`] of its own values and nothing else.  The
//!   paper's constraints compare values only inside one tree, so ids never
//!   need to agree across documents, and opening a document costs the same
//!   whether the corpus holds one document or thousands;
//! * **per-document dirty tracking** — edits route through
//!   [`CorpusSession::apply`] per [`DocHandle`] as typed [`EditOp`]s (the
//!   session hands out only `&XmlTree`, so no mutation bypasses index
//!   maintenance) and mark only that document dirty;
//!   [`CorpusSession::commit`] re-checks *exactly the dirty documents*
//!   and serves every clean document's report from cache.  The commit
//!   itself is O(dirty documents) too: corpus-wide counters are
//!   maintained incrementally, and open-order positions are only
//!   renumbered after a close;
//! * **O(edit) re-checks** — within a dirty document, structural `T ⊨ D`
//!   is kept per element ([`StructuralIndex`]) and `T ⊨ Σ` per constraint
//!   ([`IncrementalIndex`]); a commit re-runs only the checks its edits
//!   invalidated, and touches the document's report only when an error or
//!   a verdict changed;
//! * **delta stream** — each commit returns a [`BatchDelta`]: the documents
//!   whose *report changed* — newly opened, flipped clean ↔ violating, or
//!   still violating with a different violation/error set — each with its
//!   full fresh [`crate::DocReport`] (structured [`Violation`] witnesses
//!   included), plus the documents closed since the last commit, under a
//!   monotone sequence number.  Subscribers that apply the delta stream to
//!   a replica of the last [`CorpusSession::report`] reconstruct the
//!   current report exactly — `tests/corpus_agreement.rs` proves both
//!   halves against cold [`crate::BatchEngine`] rebuilds;
//! * **one durable log** — [`CorpusSession::persist_to`] appends to the
//!   session's corpus log ([`crate::journal`]) everything it does not hold
//!   yet — `open`, `apply`, `close` and `commit` records.  Between persists
//!   the session queues only the records the log will need: an edit of a
//!   logged document as its `apply` record, the close of a document the
//!   log or a commit knows.  A document no log holds keeps none of its
//!   edits, since its first `open` snapshot folds them all.
//!   [`CorpusSession::recover_from`] rebuilds a live, editable session
//!   from that log (under the same limits as an open);
//! * **panic containment** — a panic inside [`CorpusSession::apply`] or
//!   inside a commit's re-check quarantines one document (its report
//!   carries a [`DocFault::Panic`], never a wrong verdict); every other
//!   document goes on untouched.
//!
//! The `corpus_edit` bench (`BENCH_corpus.json`) records the headline
//! number: a single-document edit re-verdict is ≥ 20× faster than a full
//! `BatchEngine` revalidation of the corpus.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use xic_constraints::{IncrementalIndex, ShardPlan, VerdictChange, Violation};
use xic_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use xic_xml::budget::ParseError;
use xic_xml::{EditError, EditOp, StructuralIndex, Validator, XmlError, XmlTree};

use crate::batch::{BatchReport, DocFault, DocReport};
use crate::journal::{
    self, diverged, CorpusReplica, JournalError, LogCursor, LogRecord, PersistReceipt,
};
use crate::limits::{self, LimitKind, Limits, ResourceError};
use crate::spec::CompiledSpec;

/// Identifier of a document opened in a [`CorpusSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocHandle(u64);

impl DocHandle {
    /// Reconstructs a handle from its raw number — the identity
    /// [`BatchDelta`]s and corpus logs carry, by which a
    /// [`crate::CorpusReplica`] keys the *originating* session's documents.
    pub fn from_raw(raw: u64) -> DocHandle {
        DocHandle(raw)
    }

    /// The raw handle number (stable for the lifetime of the session, and
    /// the identity [`BatchDelta`] records persist).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DocHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc-{}", self.0)
    }
}

/// Why a session operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The handle names no open document (closed, or from another session).
    UnknownHandle(DocHandle),
    /// An edit op was rejected; the `index` ops of the batch preceding it
    /// were applied (the indexes remain exact for the partially edited
    /// document — commit to see its state).
    Edit {
        /// Position of the rejected op in the submitted batch (equivalently:
        /// how many earlier ops of the batch were applied).
        index: usize,
        /// The underlying rejection.
        error: EditError,
    },
    /// A document source could not be parsed (`open_source`).
    Parse(XmlError),
    /// A [`Limits`] bound turned the request away.  Unlike
    /// [`SessionError::Edit`], rejection is all-or-nothing: **no op was
    /// applied** and no document was opened — an edit batch comes back
    /// whole in the error's `rejected` echo, so the caller can shed load
    /// and retry after a commit.
    Resource(ResourceError),
    /// The document is quarantined: an earlier edit panicked mid-apply and
    /// was contained, so its in-memory indexes may be inconsistent.  Edits
    /// are refused and commits report a [`DocFault::Panic`]; a session
    /// recovered from the log ([`CorpusSession::recover_from`]) restores
    /// the document as it stood before the panicking batch — or holds it as
    /// closed when the log never held it.
    Poisoned {
        /// The quarantined document.
        handle: DocHandle,
        /// The contained panic's message.
        cause: String,
    },
    /// A durable-log operation ([`CorpusSession::persist_to`] /
    /// [`CorpusSession::recover_from`]) failed.
    Journal(JournalError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownHandle(h) => write!(f, "unknown document handle {h}"),
            SessionError::Edit { index, error } => write!(
                f,
                "edit op #{index} rejected ({error}); the {index} earlier ops of the batch were applied"
            ),
            SessionError::Parse(err) => write!(f, "parse error: {err}"),
            SessionError::Resource(err) => err.fmt(f),
            SessionError::Poisoned { handle, cause } => write!(
                f,
                "document {handle} is quarantined after a contained panic ({cause}); \
                 close it and recover it from its log"
            ),
            SessionError::Journal(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<JournalError> for SessionError {
    fn from(err: JournalError) -> SessionError {
        SessionError::Journal(err)
    }
}

/// What [`CorpusSession::recover_from`] reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// Documents the recovered session holds open.
    pub docs: usize,
    /// Of those, the documents that came back dirty: opened or edited
    /// after the last logged commit (or carrying a contained fault).
    pub dirty: usize,
    /// Logged `apply` records replayed onto the logged snapshots.
    pub ops_replayed: u64,
    /// The last logged commit, now the session's [`CorpusSession::last_seq`].
    pub last_seq: u64,
    /// Whether a torn tail (a partially written final record) was dropped.
    pub truncated_tail: bool,
}

/// Applies a batch of ops to one document: each op is validated, applied
/// and folded into both incremental indexes before the next op runs, and
/// `applied` counts the ops done so — a panic mid-batch leaves the count
/// of the ops before it.  On rejection the applied prefix stays (the
/// error's `index` reports its length) and the indexes remain exact.
fn apply_ops(doc: &mut CorpusDoc, ops: &[EditOp], applied: &mut usize) -> Result<(), SessionError> {
    for (i, op) in ops.iter().enumerate() {
        let effect = doc
            .tree
            .apply_edit(op)
            .map_err(|error| SessionError::Edit { index: i, error })?;
        doc.index.apply(&doc.tree, &effect);
        doc.structure.apply(&doc.tree, &effect);
        *applied = i + 1;
    }
    Ok(())
}

/// Brings one document's structural errors (`T ⊨ D`) and Σ verdicts
/// (`T ⊨ Σ`, restricted to the scoped shards' constraints under a scope) up
/// to date with its edits.  Appends the Σ verdicts that changed to
/// `verdicts`, and returns whether the structural errors may have changed.
fn refresh(
    validator: &Validator<'_>,
    doc: &mut CorpusDoc,
    scope: Option<&ShardScope>,
    verdicts: &mut Vec<VerdictChange>,
) -> bool {
    let structure = doc.structure.refresh(validator, &doc.tree);
    let keep = |i: usize| scope.is_none_or(|s| s.keep[i]);
    doc.index.refresh_where(&doc.tree, keep, verdicts);
    structure
}

/// A document's structural errors, rendered as its report carries them.
fn rendered_errors(structure: &StructuralIndex) -> Vec<String> {
    structure.errors().map(|e| e.to_string()).collect()
}

/// Constraints violated in `after` but not in `before`, and the reverse
/// (as multisets of constraints: Σ may repeat one).
fn violation_churn(before: &[Violation], after: &[Violation]) -> (u64, u64) {
    let mut balance: BTreeMap<&str, i64> = BTreeMap::new();
    for v in before {
        *balance.entry(v.constraint()).or_default() -= 1;
    }
    for v in after {
        *balance.entry(v.constraint()).or_default() += 1;
    }
    balance.values().fold((0, 0), |(added, removed), &b| {
        (added + b.max(0) as u64, removed + (-b).max(0) as u64)
    })
}

/// One document's entry in a [`BatchDelta`]: its state transition and the
/// full fresh report (structured [`Violation`] witnesses included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocChange {
    /// The document's handle — the stable identity to key a replica on
    /// (labels need not be unique).
    pub handle: DocHandle,
    /// Its clean state at the previous commit — `None` for documents opened
    /// since then.
    pub was_clean: Option<bool>,
    /// The fresh report (label, structural errors, Σ violations).
    pub report: DocReport,
    /// The shards (per the spec's [`ShardPlan`]) whose projected view of
    /// this document can differ from the previous commit: the shards of the
    /// constraints the triggering edits dirtied.  Opens, structural-error
    /// or fault churn, and panic-rebuilt rechecks are *broadcast* — tagged
    /// with every shard — because their effect is shard-independent.
    /// Sorted ascending.
    pub shards: Vec<u32>,
}

impl DocChange {
    /// Whether the document is clean after this change.
    pub fn now_clean(&self) -> bool {
        self.report.is_clean()
    }

    /// The clean-state transition this change reports.
    pub fn transition(&self) -> Transition {
        match (self.was_clean, self.now_clean()) {
            (None, true) => Transition::OpenedClean,
            (None, false) => Transition::OpenedViolating,
            (Some(true), false) => Transition::ToViolating,
            (Some(false), true) => Transition::ToClean,
            (Some(true), true) => Transition::StillClean,
            (Some(false), false) => Transition::StillViolating,
        }
    }
}

/// The clean-state transition of one [`DocChange`] — the classification the
/// CLI's delta stream, `xic journal inspect` and the metrics layer all
/// share (each used to hand-roll its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Opened since the last commit, clean.
    OpenedClean,
    /// Opened since the last commit, violating.
    OpenedViolating,
    /// Was clean, now violating.
    ToViolating,
    /// Was violating, now clean.
    ToClean,
    /// Clean before and after (cannot appear in a committed delta: a clean
    /// report has nothing to observably change).
    StillClean,
    /// Violating before and after, but the violation/error set changed.
    StillViolating,
}

impl Transition {
    /// Whether the document flipped between clean and violating.
    pub fn is_flip(self) -> bool {
        matches!(self, Transition::ToViolating | Transition::ToClean)
    }

    /// The human-readable label the CLI delta stream prints.
    pub fn label(self) -> &'static str {
        match self {
            Transition::OpenedClean => "opened clean",
            Transition::OpenedViolating => "opened violating",
            Transition::ToViolating => "clean -> violating",
            Transition::ToClean => "violating -> clean",
            Transition::StillClean => "still clean",
            Transition::StillViolating => "still violating (changed)",
        }
    }
}

/// A document closed since the previous commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedDoc {
    /// The closed document's (now dead) handle — the stable identity, since
    /// labels need not be unique.
    pub handle: DocHandle,
    /// Its label.
    pub label: String,
}

/// The diff a [`CorpusSession::commit`] emits: what changed since the
/// previous commit, plus corpus-level counters.  The sequence of deltas is
/// the subscription stream — applying them in `seq` order to a copy of an
/// earlier [`CorpusSession::report`] reproduces the current one (replace
/// the report of every change, drop every closed handle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchDelta {
    /// Monotone commit number (the first commit of a session is `1`).
    pub seq: u64,
    /// Documents whose report changed — opened, flipped clean ↔ violating,
    /// or re-checked to a different violation/error set — in open order.
    pub changes: Vec<DocChange>,
    /// Documents closed since the previous commit, in close order.
    pub closed: Vec<ClosedDoc>,
    /// How many documents this commit actually re-checked (the dirty set).
    pub rechecked_docs: usize,
    /// Open documents after the commit.
    pub total: usize,
    /// Clean documents after the commit.
    pub clean: usize,
    /// The union of the changes' shard tags, plus every shard when any
    /// document closed (a close is shard-independent).  A subscriber
    /// filtered to shard `k` needs this delta exactly when `k` appears
    /// here.  Sorted ascending; empty for an empty delta.
    pub shards: Vec<u32>,
}

impl BatchDelta {
    /// Whether nothing observable changed (no report changes, opens or
    /// closes).
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty() && self.closed.is_empty()
    }

    /// Whether a subscriber filtered to `shard` needs this delta.
    pub fn touches_shard(&self, shard: u32) -> bool {
        self.shards.contains(&shard)
    }

    /// The shard-`k` projection of this delta: changes tagged with `shard`,
    /// each report's Σ violations restricted to `shard`'s constraints
    /// (structural errors and faults are shard-independent and kept whole),
    /// closes kept whole.  `None` when the delta does not touch `shard` —
    /// a filtered subscriber simply never receives it.  Applying every
    /// projected delta of a stream to a shard-filtered
    /// [`crate::CorpusReplica`] reconstructs the shard projection of the
    /// session's report exactly.
    pub fn project(&self, plan: &ShardPlan, shard: u32) -> Option<BatchDelta> {
        if !self.touches_shard(shard) {
            return None;
        }
        let changes = self
            .changes
            .iter()
            .filter(|c| c.shards.contains(&shard))
            .map(|c| DocChange {
                handle: c.handle,
                was_clean: c.was_clean,
                report: project_doc_report(&c.report, plan, shard),
                shards: vec![shard],
            })
            .collect();
        Some(BatchDelta {
            seq: self.seq,
            changes,
            closed: self.closed.clone(),
            rechecked_docs: self.rechecked_docs,
            total: self.total,
            clean: self.clean,
            shards: vec![shard],
        })
    }

    /// Tallies the delta's changes by [`Transition`] — the one aggregation
    /// the metrics layer, `xic journal inspect` and the CLI delta stream
    /// share.
    pub fn summary(&self) -> DeltaSummary {
        let mut summary = DeltaSummary {
            docs_changed: self.changes.len(),
            closed: self.closed.len(),
            rechecked: self.rechecked_docs,
            ..DeltaSummary::default()
        };
        for change in &self.changes {
            match change.transition() {
                Transition::OpenedClean | Transition::OpenedViolating => summary.opened += 1,
                Transition::ToViolating => summary.to_violating += 1,
                Transition::ToClean => summary.to_clean += 1,
                Transition::StillClean | Transition::StillViolating => summary.churned += 1,
            }
            summary.violations_now += change.report.violations.len();
        }
        summary
    }
}

/// The shard-`k` projection of one document report: Σ violations restricted
/// to `shard`'s constraints (looked up through the rendered constraint each
/// [`Violation`] carries); everything shard-independent — label, position,
/// structural errors, faults — kept whole.
pub fn project_doc_report(report: &DocReport, plan: &ShardPlan, shard: u32) -> DocReport {
    DocReport {
        index: report.index,
        label: report.label.clone(),
        parse_error: report.parse_error.clone(),
        validation_errors: report.validation_errors.clone(),
        violations: report
            .violations
            .iter()
            .filter(|v| plan.shard_of_rendered(v.constraint()) == Some(shard))
            .cloned()
            .collect(),
        fault: report.fault.clone(),
    }
}

/// The shard-`k` projection of a full corpus report: every document kept
/// (document membership is shard-independent), each report projected by
/// [`project_doc_report`].  The oracle side of the shard-filtered-replica
/// agreement tests.
pub fn project_report(report: &BatchReport, plan: &ShardPlan, shard: u32) -> BatchReport {
    BatchReport::from_reports(
        report
            .reports()
            .iter()
            .map(|r| project_doc_report(r, plan, shard))
            .collect(),
    )
}

/// Per-delta tallies from [`BatchDelta::summary`].
///
/// Everything here is derived from the delta alone, so a replica holding
/// only the stream computes the same numbers.  Exact violations
/// added/removed counts (which need the *previous* verdicts of a
/// still-violating document) are emitted by [`CorpusSession::commit`] as the
/// `corpus.violations_added` / `corpus.violations_removed` counters: one
/// per constraint that became violated, or stopped being violated (a
/// violation that only changed its witness counts in neither).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaSummary {
    /// Documents whose report changed.
    pub docs_changed: usize,
    /// Changed documents that were opened since the previous commit.
    pub opened: usize,
    /// Documents that flipped clean → violating.
    pub to_violating: usize,
    /// Documents that flipped violating → clean.
    pub to_clean: usize,
    /// Documents that changed without flipping (traded one violation or
    /// error set for another).
    pub churned: usize,
    /// Documents closed since the previous commit.
    pub closed: usize,
    /// Documents the commit re-checked (the dirty set).
    pub rechecked: usize,
    /// Σ violations outstanding across the changed documents' fresh
    /// reports.
    pub violations_now: usize,
}

impl DeltaSummary {
    /// Total clean ↔ violating flips.
    pub fn flips(&self) -> usize {
        self.to_violating + self.to_clean
    }
}

/// Registry-backed corpus instruments, resolved once per session.  The
/// `corpus.dirty_docs` and `corpus.queued_ops` gauges are the backpressure
/// surface: a service wrapping [`CorpusSession`] bounds admission with one
/// comparison against an already-exported metric.
#[derive(Debug)]
struct CorpusInstruments {
    registry: Arc<MetricsRegistry>,
    edits: Arc<Counter>,
    commits: Arc<Counter>,
    violations_added: Arc<Counter>,
    violations_removed: Arc<Counter>,
    apply_ns: Arc<Histogram>,
    commit_ns: Arc<Histogram>,
    recheck_ns: Arc<Histogram>,
    delta_changes: Arc<Histogram>,
    dirty_docs: Arc<Gauge>,
    queued_ops: Arc<Gauge>,
    open_docs: Arc<Gauge>,
    /// Dirty constraints actually recomputed by commits (in scope).
    shard_rechecked: Arc<Counter>,
    /// Dirty constraints dropped by a shard scope instead of recomputed.
    shard_skipped: Arc<Counter>,
    /// Shard tags emitted on committed deltas (fan-out width).
    shard_deltas: Arc<Counter>,
    /// Element checks re-run by commits' incremental `T ⊨ D`.
    nodes_revalidated: Arc<Counter>,
    /// Distinct shards touched per commit.
    shard_touched: Arc<Histogram>,
}

impl CorpusInstruments {
    fn on(registry: Arc<MetricsRegistry>) -> CorpusInstruments {
        CorpusInstruments {
            edits: registry.counter("corpus.edits"),
            commits: registry.counter("corpus.commits"),
            violations_added: registry.counter("corpus.violations_added"),
            violations_removed: registry.counter("corpus.violations_removed"),
            apply_ns: registry.histogram("corpus.apply_ns"),
            commit_ns: registry.histogram("corpus.commit_ns"),
            recheck_ns: registry.histogram("corpus.recheck_ns"),
            delta_changes: registry.histogram("corpus.delta_changes"),
            dirty_docs: registry.gauge("corpus.dirty_docs"),
            queued_ops: registry.gauge("corpus.queued_ops"),
            open_docs: registry.gauge("corpus.open_docs"),
            shard_rechecked: registry.counter("shard.rechecked"),
            shard_skipped: registry.counter("shard.skipped"),
            shard_deltas: registry.counter("shard.deltas"),
            nodes_revalidated: registry.counter("corpus.nodes_revalidated"),
            shard_touched: registry.histogram("shard.touched"),
            registry,
        }
    }
}

#[derive(Debug)]
struct CorpusDoc {
    label: String,
    tree: XmlTree,
    index: IncrementalIndex,
    /// Per-element structural errors; built together with `index` (at
    /// open, recovery and a panic rebuild), by the first commit after.
    structure: StructuralIndex,
    /// Position in open order (recomputed only after a close).
    position: usize,
    /// Report as of the last commit; `None` before the first commit that
    /// sees this document.
    report: Option<DocReport>,
    /// Clean state at the last commit; `None` until then.
    committed_clean: Option<bool>,
    /// The commit from which on the current tree has been reported; `None`
    /// while it holds edits (or is an open) no commit has re-checked.
    seen: Option<u64>,
    /// Whether the session's log holds the document (an `open` record).
    logged: bool,
    /// The cause of a panic inside [`CorpusSession::apply`]: the tree/index
    /// pair may be inconsistent, so edits are refused, commits report a
    /// [`DocFault::Panic`], and the panicking batch is never logged.
    poisoned: Option<String>,
}

impl CorpusDoc {
    /// Refuses work on a quarantined document.
    fn check_poisoned(&self, handle: DocHandle) -> Result<(), SessionError> {
        match &self.poisoned {
            Some(cause) => Err(SessionError::Poisoned {
                handle,
                cause: cause.clone(),
            }),
            None => Ok(()),
        }
    }
}

/// The dirty-set bound every admission shares: opens, edits of a clean
/// document and recovery all add one document to the dirty set.
fn admit_dirty(limits: &Limits, projected: usize, context: &str) -> Result<(), ResourceError> {
    match limits.max_dirty_docs {
        Some(max) if projected > max => Err(ResourceError::new(
            LimitKind::DirtyDocs,
            max as u64,
            projected as u64,
            format!("{context}: commit to drain the dirty set"),
        )),
        _ => Ok(()),
    }
}

/// How a [`CorpusSession`] holds its spec: borrowed (`CorpusSession::new(&spec)`),
/// or shared through an `Arc`, which gives a `CorpusSession<'static>` that a
/// registry owning the same `Arc` can keep.
#[derive(Debug, Clone)]
pub enum SpecRef<'s> {
    /// A spec the caller owns.
    Borrowed(&'s CompiledSpec),
    /// A spec the session co-owns.
    Shared(Arc<CompiledSpec>),
}

impl std::ops::Deref for SpecRef<'_> {
    type Target = CompiledSpec;
    fn deref(&self) -> &CompiledSpec {
        match self {
            SpecRef::Borrowed(spec) => spec,
            SpecRef::Shared(spec) => spec,
        }
    }
}

impl<'s> From<&'s CompiledSpec> for SpecRef<'s> {
    fn from(spec: &'s CompiledSpec) -> SpecRef<'s> {
        SpecRef::Borrowed(spec)
    }
}

impl<'s> From<&'s Arc<CompiledSpec>> for SpecRef<'s> {
    fn from(spec: &'s Arc<CompiledSpec>) -> SpecRef<'s> {
        SpecRef::Borrowed(spec)
    }
}

impl From<Arc<CompiledSpec>> for SpecRef<'static> {
    fn from(spec: Arc<CompiledSpec>) -> SpecRef<'static> {
        SpecRef::Shared(spec)
    }
}

// A server's connection threads take turns on a session that owns its spec.
const _: fn() = assert_send::<CorpusSession<'static>>;
fn assert_send<T: Send>() {}

/// A corpus-level validation session: many open documents validated against
/// one [`CompiledSpec`], sharing one incremental layout (each document keeps
/// its own value pool), with per-document dirty tracking and [`BatchDelta`]
/// diff commits.
///
/// ```
/// use xic_engine::{CompiledSpec, CorpusSession};
/// use xic_xml::EditOp;
///
/// let spec = CompiledSpec::from_sources(
///     "<!ELEMENT school (teacher*)>\n\
///      <!ELEMENT teacher EMPTY>\n\
///      <!ATTLIST teacher name CDATA #REQUIRED>",
///     Some("school"),
///     "teacher.name -> teacher",
/// )
/// .unwrap();
///
/// let mut corpus = CorpusSession::new(&spec);
/// let a = corpus
///     .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
///     .unwrap();
/// let b = corpus
///     .open_source("b.xml", "<school><teacher name=\"Ann\"/></school>")
///     .unwrap();
/// let delta = corpus.commit();
/// assert_eq!((delta.total, delta.clean), (2, 2));
///
/// // One edit dirties one document; the next commit re-checks only it.
/// let ann = corpus.tree(b).unwrap().elements().nth(1).unwrap();
/// let name = spec.dtd().attr_by_name("name").unwrap();
/// corpus
///     .apply(b, &[EditOp::SetAttr { element: ann, attr: name, value: "Joe".into() }])
///     .unwrap();
/// let delta = corpus.commit();
/// assert_eq!(delta.rechecked_docs, 1);
/// assert!(delta.is_empty(), "b is still clean on its own — no change to report");
/// # let _ = a;
/// ```
#[derive(Debug)]
pub struct CorpusSession<'s> {
    spec: SpecRef<'s>,
    /// Open documents in handle (= open) order.
    docs: BTreeMap<u64, CorpusDoc>,
    /// Handles dirtied (opened or edited) since the last commit, in order.
    dirty: Vec<u64>,
    /// Documents closed since the last commit, in close order.
    closed: Vec<ClosedDoc>,
    /// Number of open documents whose *committed* state is clean.
    clean_docs: usize,
    /// Whether a close invalidated the cached open-order positions.
    positions_stale: bool,
    next_handle: u64,
    commits: u64,
    /// Committed deltas retained for [`CorpusSession::export_deltas`]
    /// (contiguous; `history[0].seq == history_base`).
    history: Vec<BatchDelta>,
    /// Sequence number of the oldest retained delta (1 until
    /// [`CorpusSession::prune_deltas`] drops a prefix).
    history_base: u64,
    instr: CorpusInstruments,
    limits: Limits,
    /// Edits admitted since the last commit (the queue a
    /// [`Limits::max_queued_ops`] bound compares against).
    queued_ops: usize,
    /// Progress a deadline-aborted [`CorpusSession::try_commit`] already
    /// made: re-checked changes waiting for the commit that will announce
    /// them (work done is never redone, and never half-announced).
    staged_changes: Vec<DocChange>,
    /// Documents re-checked by aborted commit attempts since the last
    /// announced delta.
    staged_rechecked: usize,
    /// When set, commits recompute only the constraints of the scoped
    /// shards and reports carry the shard projection (see
    /// [`CorpusSession::scope_to_shards`]).
    shard_scope: Option<ShardScope>,
    /// The end of the session's corpus log, once a persist or a recovery
    /// bound the session to one.
    log: Option<LogCursor>,
    /// The last commit the log holds.
    logged_seq: u64,
    /// The `apply` records of logged documents' edits and the `close`
    /// records the log lacks, in call order, each tagged with the number
    /// of commits before its call.
    pending: Vec<(u64, LogRecord)>,
}

/// A fixed shard scope: per-constraint keep mask derived from the spec's
/// [`ShardPlan`] once at [`CorpusSession::scope_to_shards`] time.
#[derive(Debug)]
struct ShardScope {
    keep: Vec<bool>,
}

impl<'s> CorpusSession<'s> {
    /// An empty corpus over the given compiled specification, recording its
    /// metrics (`corpus.*` instruments, including the `corpus.dirty_docs`
    /// and `corpus.queued_ops` backpressure gauges) on the process-global
    /// registry.
    pub fn new(spec: impl Into<SpecRef<'s>>) -> CorpusSession<'s> {
        CorpusSession::with_registry(spec, Arc::clone(xic_telemetry::global()))
    }

    /// A corpus recording its metrics on an explicit registry (per-tenant
    /// isolation, or a private registry in tests).
    pub fn with_registry(
        spec: impl Into<SpecRef<'s>>,
        registry: Arc<MetricsRegistry>,
    ) -> CorpusSession<'s> {
        CorpusSession {
            spec: spec.into(),
            docs: BTreeMap::new(),
            dirty: Vec::new(),
            closed: Vec::new(),
            clean_docs: 0,
            positions_stale: false,
            next_handle: 0,
            commits: 0,
            history: Vec::new(),
            history_base: 1,
            instr: CorpusInstruments::on(registry),
            limits: Limits::UNLIMITED,
            queued_ops: 0,
            staged_changes: Vec::new(),
            staged_rechecked: 0,
            shard_scope: None,
            log: None,
            logged_seq: 0,
            pending: Vec::new(),
        }
    }

    /// A corpus that enforces [`Limits`] at admission: oversized sources
    /// and trees are refused at open, edit batches that would blow a bound
    /// are rejected whole by [`CorpusSession::apply`], and
    /// [`CorpusSession::try_commit`] honors the soft deadline.
    pub fn with_limits(spec: impl Into<SpecRef<'s>>, limits: Limits) -> CorpusSession<'s> {
        let mut corpus = CorpusSession::new(spec);
        corpus.limits = limits;
        corpus
    }

    /// A corpus with both an explicit registry and admission limits — the
    /// validation service's per-tenant constructor ([`Limits`] govern
    /// admission, the registry isolates the tenant's instruments).
    pub fn with_registry_and_limits(
        spec: impl Into<SpecRef<'s>>,
        limits: Limits,
        registry: Arc<MetricsRegistry>,
    ) -> CorpusSession<'s> {
        let mut corpus = CorpusSession::with_registry(spec, registry);
        corpus.limits = limits;
        corpus
    }

    /// Restricts this session to a subset of the spec's shards: commits
    /// recompute only the dirty constraints of the scoped shards (the
    /// observable saving in `incremental.constraints_rechecked` and
    /// `shard.rechecked`) and out-of-scope constraints never surface in
    /// reports or deltas — the session's [`CorpusSession::report`] is the
    /// shard projection of an unscoped session's, exactly.  This is the
    /// per-shard worker of a fanned-out commit: run one scoped session per
    /// shard group and each re-evaluates only the shards its touch-set
    /// intersects.
    ///
    /// # Panics
    /// Panics if any document was already opened (out-of-scope verdicts
    /// cached before the scope was set would go stale silently) or a shard
    /// id is out of range for the spec's [`ShardPlan`].
    pub fn scope_to_shards(&mut self, shards: &[u32]) {
        assert!(
            self.docs.is_empty() && self.commits == 0 && self.closed.is_empty(),
            "scope_to_shards must run before any document opens"
        );
        let plan = self.spec.shard_plan();
        let mut in_scope = vec![false; plan.num_shards()];
        for &s in shards {
            assert!(
                (s as usize) < plan.num_shards(),
                "shard {s} out of range: the plan has {} shards",
                plan.num_shards()
            );
            in_scope[s as usize] = true;
        }
        let keep = (0..plan.num_checks())
            .map(|i| in_scope[plan.shard_of_check(i) as usize])
            .collect();
        self.shard_scope = Some(ShardScope { keep });
    }

    /// The resource bounds this corpus enforces.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// The registry this corpus's instruments record into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.instr.registry
    }

    /// The specification the corpus validates against.
    pub fn spec(&self) -> &CompiledSpec {
        &self.spec
    }

    /// Number of open documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Open handles in open order.
    pub fn handles(&self) -> impl Iterator<Item = DocHandle> + '_ {
        self.docs.keys().map(|&raw| DocHandle::from_raw(raw))
    }

    /// Parses XML source against the spec's DTD and opens it under `label`.
    ///
    /// Under [`Limits`], admission is checked before the parse spends
    /// anything (a full dirty set rejects immediately) and the parse itself
    /// is budgeted — byte, node and depth bounds reject as
    /// [`SessionError::Resource`].
    pub fn open_source(
        &mut self,
        label: impl Into<String>,
        source: &str,
    ) -> Result<DocHandle, SessionError> {
        let label = label.into();
        let context = format!("open `{label}`");
        admit_dirty(&self.limits, self.dirty.len() + 1, &context)
            .map_err(SessionError::Resource)?;
        let budget = self.limits.parse_budget();
        let tree = match self.spec.parse_document_budgeted(source, &budget) {
            Ok(tree) => tree,
            Err(ParseError::Xml(err)) => return Err(SessionError::Parse(err)),
            Err(ParseError::Budget(b)) => {
                return Err(SessionError::Resource(ResourceError::from_budget(
                    b, context,
                )))
            }
        };
        Ok(self.admit(label, tree))
    }

    /// Opens a pre-built tree under `label`, as it is.  Under [`Limits`]
    /// the tree is bounded the same way a parsed source is: admission and
    /// node count are checked before anything is indexed.
    pub fn open(
        &mut self,
        label: impl Into<String>,
        tree: XmlTree,
    ) -> Result<DocHandle, SessionError> {
        let label = label.into();
        let context = format!("open `{label}`");
        admit_dirty(&self.limits, self.dirty.len() + 1, &context)
            .map_err(SessionError::Resource)?;
        self.check_doc_nodes(&tree, context)?;
        Ok(self.admit(label, tree))
    }

    /// The [`Limits::max_doc_nodes`] bound on a tree that did not come
    /// through the budgeted parser.
    fn check_doc_nodes(&self, tree: &XmlTree, context: String) -> Result<(), SessionError> {
        match self.limits.max_doc_nodes {
            Some(max) if tree.num_nodes() > max => Err(SessionError::Resource(ResourceError::new(
                LimitKind::DocNodes,
                max as u64,
                tree.num_nodes() as u64,
                context,
            ))),
            _ => Ok(()),
        }
    }

    fn admit(&mut self, label: String, tree: XmlTree) -> DocHandle {
        let layout = std::sync::Arc::clone(self.spec.incremental_layout());
        let index = IncrementalIndex::with_layout(layout, &tree);
        let handle = DocHandle::from_raw(self.next_handle);
        self.next_handle += 1;
        // Handles grow monotonically, so the newcomer is last in open order.
        let position = self.docs.len();
        self.docs.insert(
            handle.raw(),
            CorpusDoc {
                label,
                tree,
                index,
                structure: StructuralIndex::new(),
                position,
                report: None,
                committed_clean: None,
                seen: None,
                logged: false,
                poisoned: None,
            },
        );
        self.dirty.push(handle.raw());
        self.instr.dirty_docs.set(self.dirty.len() as i64);
        self.instr.open_docs.set(self.docs.len() as i64);
        handle
    }

    /// Read-only access to an open document's tree.
    pub fn tree(&self, handle: DocHandle) -> Result<&XmlTree, SessionError> {
        self.docs
            .get(&handle.raw())
            .map(|d| &d.tree)
            .ok_or(SessionError::UnknownHandle(handle))
    }

    /// An open document's label.
    pub fn label(&self, handle: DocHandle) -> Result<&str, SessionError> {
        self.docs
            .get(&handle.raw())
            .map(|d| d.label.as_str())
            .ok_or(SessionError::UnknownHandle(handle))
    }

    /// The handle of the open document labelled `label`, if any (first
    /// match in open order; labels need not be unique — handles are the
    /// stable identity).
    pub fn handle_by_label(&self, label: &str) -> Option<DocHandle> {
        self.docs
            .iter()
            .find(|(_, d)| d.label == label)
            .map(|(&raw, _)| DocHandle::from_raw(raw))
    }

    /// Applies a batch of edits to one document; the document joins the
    /// dirty set and is re-checked at the next [`CorpusSession::commit`].
    /// Rejected ops leave the earlier ops of the batch applied (the error
    /// reports how many) with indexes still exact.
    ///
    /// [`Limits`] rejections ([`SessionError::Resource`]) are different:
    /// they are checked **before** any op is applied, so the batch comes
    /// back whole in the error's echo and the document is untouched —
    /// commit to drain the queue, then retry.
    ///
    /// A panic *inside* the edit loop is contained here: the document is
    /// quarantined ([`SessionError::Poisoned`], now and on every later
    /// `apply`), the next commit reports it as a [`DocFault::Panic`], and
    /// every other document goes on untouched.  A session recovered from
    /// the log ([`CorpusSession::recover_from`]) restores it as it stood
    /// before the panicking batch.
    pub fn apply(&mut self, handle: DocHandle, ops: &[EditOp]) -> Result<(), SessionError> {
        let limits = self.limits;
        let queued = self.queued_ops;
        let doc = self
            .docs
            .get_mut(&handle.raw())
            .ok_or(SessionError::UnknownHandle(handle))?;
        doc.check_poisoned(handle)?;
        let newly_dirty = !self.dirty.contains(&handle.raw());
        let context = format!("{handle} (`{}`)", doc.label);
        if newly_dirty {
            admit_dirty(&limits, self.dirty.len() + 1, &context)
                .map_err(|e| SessionError::Resource(e.with_rejected(limits::echo_ops(ops))))?;
        }
        limits::admit_ops(&limits, &doc.tree, queued, ops, &context)
            .map_err(SessionError::Resource)?;
        if newly_dirty {
            self.dirty.push(handle.raw());
            self.instr.dirty_docs.set(self.dirty.len() as i64);
        }
        // Timed per batch, not per op: one clock pair amortized over the
        // whole edit slice keeps instrumentation inside the overhead budget.
        let timer = self.instr.registry.start_timer();
        let mut applied = 0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if xic_telemetry::faults::hit("corpus.apply") {
                panic!("injected fault: corpus.apply");
            }
            apply_ops(doc, ops, &mut applied)
        }))
        .unwrap_or_else(|payload| {
            // Contained panic mid-edit: quarantine the document.  Only
            // fully applied ops count.
            crate::batch::resilience_instruments().0.inc();
            let cause = crate::batch::panic_cause(payload);
            doc.poisoned = Some(cause.clone());
            Err(SessionError::Poisoned { handle, cause })
        });
        if applied > 0 {
            doc.seen = None;
            // A logged document's edits reach the log as `apply` records in
            // call order; the batch of a contained panic never does.
            if doc.logged && doc.poisoned.is_none() {
                for op in &ops[..applied] {
                    let record = LogRecord::Apply {
                        handle,
                        op: op.clone(),
                    };
                    self.pending.push((self.commits, record));
                }
            }
        }
        self.instr.edits.add(applied as u64);
        self.queued_ops += applied;
        self.instr.queued_ops.add(applied as i64);
        if let Some(t) = timer {
            self.instr.apply_ns.record_elapsed(t);
        }
        outcome
    }

    /// Closes a document, handing its (edited) tree back.  The close is
    /// reported in the next commit's [`BatchDelta::closed`] — unless no
    /// commit ever announced the document, in which case it never entered
    /// the delta stream and leaves it without a trace.
    pub fn close(&mut self, handle: DocHandle) -> Result<XmlTree, SessionError> {
        let doc = self
            .docs
            .remove(&handle.raw())
            .ok_or(SessionError::UnknownHandle(handle))?;
        self.dirty.retain(|&raw| raw != handle.raw());
        if doc.committed_clean == Some(true) {
            self.clean_docs -= 1;
        }
        self.positions_stale = true;
        // A re-check an aborted commit staged for the document dies with
        // it; if that re-check was its first, no commit announced it yet.
        let staged = self.staged_changes.iter().position(|c| c.handle == handle);
        let staged_open = staged.is_some_and(|i| self.staged_changes.remove(i).was_clean.is_none());
        let closed = ClosedDoc {
            handle,
            label: doc.label,
        };
        let announced = doc.report.is_some() && !staged_open;
        if announced || doc.logged {
            let record = LogRecord::Close(closed.clone());
            self.pending.push((self.commits, record));
        }
        if announced {
            self.closed.push(closed);
        }
        self.instr.dirty_docs.set(self.dirty.len() as i64);
        self.instr.open_docs.set(self.docs.len() as i64);
        Ok(doc.tree)
    }

    /// Re-checks exactly the dirty documents and returns the diff against
    /// the previous commit.  Clean documents cost nothing — their reports
    /// are cached from the commit that produced them, the corpus-wide
    /// counters are maintained incrementally, and open-order positions are
    /// renumbered only when a close shifted them.
    ///
    /// Within a dirty document the re-check is O(edit) on both halves of
    /// the verdict.  Structural `T ⊨ D` re-runs only the element checks
    /// its edits invalidated (a [`StructuralIndex`]; the
    /// `corpus.nodes_revalidated` counter reports how many), and `T ⊨ Σ`
    /// recomputes only the constraints they dirtied, reporting which
    /// verdicts changed.  The document's report is patched — and the
    /// structural errors re-rendered, or the violation list rebuilt — only
    /// when one of them changed; otherwise it is neither cloned nor
    /// compared.  The first commit after an open (or a recovery) runs the
    /// full check once.
    ///
    /// Ignores [`Limits::deadline`] — a plain `commit` always runs the
    /// dirty set to completion.  Use [`CorpusSession::try_commit`] for the
    /// deadline-honoring variant.
    pub fn commit(&mut self) -> BatchDelta {
        self.commit_inner(None)
            .expect("an unbounded commit cannot be rejected")
    }

    /// Like [`CorpusSession::commit`], but honoring [`Limits::deadline`]:
    /// if re-checking would run past the soft deadline, the commit stops
    /// *between* documents (work is never cut off mid-document) and returns
    /// a [`ResourceError`] naming how far it got.  Progress is staged, not
    /// lost — re-checked documents stay done, un-checked ones stay dirty,
    /// and no delta is announced (the sequence number does not advance), so
    /// the next `try_commit` resumes where this one stopped and announces
    /// one combined delta.
    pub fn try_commit(&mut self) -> Result<BatchDelta, ResourceError> {
        let deadline = self.limits.deadline.map(|budget| (Instant::now(), budget));
        self.commit_inner(deadline)
    }

    fn commit_inner(
        &mut self,
        deadline: Option<(Instant, std::time::Duration)>,
    ) -> Result<BatchDelta, ResourceError> {
        let commit_timer = self.instr.registry.start_timer();
        let dirty = std::mem::take(&mut self.dirty);
        let closed = std::mem::take(&mut self.closed);

        if self.positions_stale {
            for (position, doc) in self.docs.values_mut().enumerate() {
                doc.position = position;
            }
            self.positions_stale = false;
        }

        let validator = self.spec.validator();
        // Resume from progress a deadline-aborted attempt staged.
        let mut changes = std::mem::take(&mut self.staged_changes);
        let mut rechecked_docs = std::mem::take(&mut self.staged_rechecked);
        let mut violations_added = 0u64;
        let mut violations_removed = 0u64;
        let mut verdicts = Vec::new();
        for (i, &raw) in dirty.iter().enumerate() {
            if let Some((started, budget)) = deadline {
                // `>=` so a zero deadline deterministically stops at once.
                let elapsed = started.elapsed();
                if elapsed >= budget {
                    // Stop between documents: stage the finished rechecks,
                    // restore the unprocessed dirty tail and the closes,
                    // announce nothing.
                    self.staged_changes = changes;
                    self.staged_rechecked = rechecked_docs;
                    self.dirty = dirty[i..].to_vec();
                    self.closed = closed;
                    self.instr.dirty_docs.set(self.dirty.len() as i64);
                    self.instr.violations_added.add(violations_added);
                    self.instr.violations_removed.add(violations_removed);
                    if let Some(t) = commit_timer {
                        self.instr.commit_ns.record_elapsed(t);
                    }
                    return Err(ResourceError::new(
                        LimitKind::Deadline,
                        budget.as_millis() as u64,
                        elapsed.as_millis() as u64,
                        format!(
                            "commit: {i} of {} dirty documents re-checked this attempt; {} remain",
                            dirty.len(),
                            dirty.len() - i
                        ),
                    ));
                }
            }
            rechecked_docs += 1;
            let Some(doc) = self.docs.get_mut(&raw) else {
                // Dirtied, then closed before the commit (close() retains
                // the dirty list, but guard against future reorderings).
                continue;
            };
            // Which shards the pending edits can affect — snapshotted
            // *before* the recheck drains the constraint dirty set.
            let plan = self.spec.shard_plan();
            let dirty_checks = doc.index.pending();
            let mut dirty_shards: Vec<u32> = doc
                .index
                .dirty_checks()
                .iter()
                .map(|&i| plan.shard_of_check(i))
                .collect();
            dirty_shards.sort_unstable();
            dirty_shards.dedup();
            // The two indexes are built together, so a structural index
            // no commit built yet means the Σ verdict delta below is not
            // relative to `report`.
            let first_check = !doc.structure.is_built();
            verdicts.clear();
            let (touched, fault, rebuilt) = if let Some(cause) = &doc.poisoned {
                // Quarantined by a panic in `apply`: its index may be
                // inconsistent, so it reports the fault, never a verdict.
                let fault = DocFault::Panic {
                    cause: cause.clone(),
                };
                (true, Some(fault), true)
            } else {
                let recheck_timer = self.instr.registry.start_timer();
                let scope = self.shard_scope.as_ref();
                let outcome =
                    Self::recheck_contained(&self.spec, &validator, doc, scope, &mut verdicts);
                if let Some(t) = recheck_timer {
                    self.instr.recheck_ns.record_elapsed(t);
                }
                // Scoped commits recompute only in-scope dirty constraints;
                // the rest were dropped, not rechecked.
                let kept = doc.index.rechecked();
                self.instr.shard_rechecked.add(kept as u64);
                self.instr
                    .shard_skipped
                    .add(dirty_checks.saturating_sub(kept) as u64);
                self.instr
                    .nodes_revalidated
                    .add(doc.structure.revalidated() as u64);
                match outcome {
                    Ok((touched, rebuilt)) => (touched, None, rebuilt),
                    Err(fault) => (true, Some(fault), true),
                }
            };
            // Patch the report only where something may have changed:
            // each recomputed half is kept only if it differs.
            let previous = doc.report.take();
            let exact =
                first_check || rebuilt || previous.as_ref().is_none_or(|p| p.fault.is_some());
            let (validation_errors, violations) = match fault {
                Some(_) => (Some(Vec::new()), Some(Vec::new())),
                None => (
                    (exact || touched).then(|| rendered_errors(&doc.structure)),
                    (exact || !verdicts.is_empty())
                        .then(|| doc.index.violations().cloned().collect()),
                ),
            };
            let validation_errors = validation_errors
                .filter(|e| previous.as_ref().is_none_or(|p| &p.validation_errors != e));
            let violations =
                violations.filter(|v| previous.as_ref().is_none_or(|p| &p.violations != v));
            let fault_changed = previous.as_ref().is_none_or(|p| p.fault != fault);
            let changed = validation_errors.is_some() || violations.is_some() || fault_changed;
            // Exact per-commit violation churn: per-constraint verdict
            // transitions, or — when the verdicts were recomputed from
            // scratch — the difference to the previous report.
            if exact || fault.is_some() {
                if let Some(fresh) = &violations {
                    let before = previous.as_ref().map_or(&[][..], |p| &p.violations);
                    let (added, removed) = violation_churn(before, fresh);
                    violations_added += added;
                    violations_removed += removed;
                }
            } else {
                for v in verdicts.iter().filter(|v| v.was_violated != v.now_violated) {
                    if v.now_violated {
                        violations_added += 1;
                    } else {
                        violations_removed += 1;
                    }
                }
            }
            let was_clean = doc.committed_clean;
            if !changed {
                doc.report = previous;
                continue;
            }
            // Shard tag: opens, structural/fault churn and panic-rebuilt
            // rechecks are shard-independent, so they broadcast; a pure
            // Σ-violation change can only have happened in a dirty shard
            // (clean shards served their cached verdicts).
            let broadcast =
                was_clean.is_none() || rebuilt || validation_errors.is_some() || fault_changed;
            let (old_errors, old_violations) =
                previous.map_or_else(Default::default, |p| (p.validation_errors, p.violations));
            let fresh = DocReport {
                index: doc.position,
                label: doc.label.clone(),
                parse_error: None,
                validation_errors: validation_errors.unwrap_or(old_errors),
                violations: violations.unwrap_or(old_violations),
                fault,
            };
            let now_clean = fresh.is_clean();
            match (was_clean, now_clean) {
                (Some(true), false) => self.clean_docs -= 1,
                (Some(false), true) | (None, true) => self.clean_docs += 1,
                _ => {}
            }
            doc.committed_clean = Some(now_clean);
            doc.report = Some(fresh.clone());
            changes.push(DocChange {
                handle: DocHandle::from_raw(raw),
                was_clean,
                report: fresh,
                shards: if broadcast {
                    plan.all_shards().collect()
                } else {
                    dirty_shards
                },
            });
        }
        // The dirty list is in dirtying order (staged changes from an
        // aborted attempt may precede newer handles); the stream contract
        // is open order.
        changes.sort_by_key(|c| c.handle);

        self.commits += 1;
        // Every document re-checked by this commit (or staged for it by an
        // aborted attempt) is now seen in full.
        for raw in dirty
            .iter()
            .copied()
            .chain(changes.iter().map(|c| c.handle.raw()))
        {
            if let Some(doc) = self.docs.get_mut(&raw) {
                doc.seen = Some(self.commits);
            }
        }
        // Delta tag: the union of the change tags, widened to every shard
        // when a close rides along (closes are shard-independent and every
        // filtered subscriber must drop the document).
        let mut delta_shards: BTreeSet<u32> = changes
            .iter()
            .flat_map(|c| c.shards.iter().copied())
            .collect();
        if !closed.is_empty() {
            delta_shards.extend(self.spec.shard_plan().all_shards());
        }
        let delta = BatchDelta {
            seq: self.commits,
            changes,
            closed,
            rechecked_docs,
            total: self.docs.len(),
            clean: self.clean_docs,
            shards: delta_shards.into_iter().collect(),
        };
        self.instr.shard_deltas.add(delta.shards.len() as u64);
        self.instr.shard_touched.record(delta.shards.len() as u64);
        self.history.push(delta.clone());
        self.instr.commits.inc();
        self.instr.violations_added.add(violations_added);
        self.instr.violations_removed.add(violations_removed);
        self.instr.delta_changes.record(delta.changes.len() as u64);
        // The commit drained the dirty set and its queued edits.
        self.queued_ops = 0;
        self.instr.dirty_docs.set(0);
        self.instr.queued_ops.set(0);
        self.instr.open_docs.set(self.docs.len() as i64);
        if let Some(t) = commit_timer {
            self.instr.commit_ns.record_elapsed(t);
        }
        Ok(delta)
    }

    /// One document's re-check, panic-contained.  A panic (the
    /// `corpus.recheck` failpoint, or a genuine bug in re-evaluation)
    /// quarantines nothing corpus-wide: both incremental indexes — the
    /// stateful, possibly mid-update part — are rebuilt from the tree and
    /// the check retried once; if even the rebuilt indexes panic, the
    /// document's report carries a [`DocFault::Panic`] instead of a verdict
    /// (never a wrong one) and every other document proceeds.
    ///
    /// On success, returns whether the structural errors may have changed
    /// and whether the rebuild path ran: a rebuilt index recomputed *every*
    /// constraint, so the change must be broadcast to all shards rather
    /// than tagged with the edit's dirty set.
    fn recheck_contained(
        spec: &CompiledSpec,
        validator: &Validator<'_>,
        doc: &mut CorpusDoc,
        scope: Option<&ShardScope>,
        verdicts: &mut Vec<VerdictChange>,
    ) -> Result<(bool, bool), DocFault> {
        fn run(
            validator: &Validator<'_>,
            doc: &mut CorpusDoc,
            scope: Option<&ShardScope>,
            verdicts: &mut Vec<VerdictChange>,
        ) -> bool {
            // Inside `run` so the injected fault exercises both attempts:
            // Nth(1) tests the transparent retry, an always-firing
            // probability tests the quarantine path.
            if xic_telemetry::faults::hit("corpus.recheck") {
                panic!("injected fault: corpus.recheck");
            }
            refresh(validator, doc, scope, verdicts)
        }
        let payload = match catch_unwind(AssertUnwindSafe(|| run(validator, doc, scope, verdicts)))
        {
            Ok(touched) => return Ok((touched, false)),
            Err(payload) => payload,
        };
        crate::batch::resilience_instruments().0.inc();
        let cause = crate::batch::panic_cause(payload);
        doc.index = IncrementalIndex::with_layout(Arc::clone(spec.incremental_layout()), &doc.tree);
        doc.structure = StructuralIndex::new();
        verdicts.clear();
        match catch_unwind(AssertUnwindSafe(|| run(validator, doc, scope, verdicts))) {
            Ok(touched) => Ok((touched, true)),
            Err(payload) => {
                crate::batch::resilience_instruments().0.inc();
                let retry_cause = crate::batch::panic_cause(payload);
                // The next commit rebuilds whatever the retry half-built.
                doc.structure = StructuralIndex::new();
                Err(DocFault::Panic {
                    cause: format!(
                        "{cause}; retry after index rebuild also panicked: {retry_cause}"
                    ),
                })
            }
        }
    }

    /// Appends to the session's corpus log at `path` everything it does not
    /// hold yet, in call order (see [`crate::journal`] for the format): an
    /// `open` snapshot of each new document, the `apply` and `close`
    /// records of the calls the session queued since the last persist, and
    /// the `commit` records.  Every record boundary is thus a session state
    /// the log recovers to.  The first persist creates the log (rewriting a
    /// torn first write); later ones append after truncating any torn tail,
    /// and the session is bound to that one path.  A successful persist
    /// empties the session's queue of records the log lacks; a failed one
    /// keeps it for the next attempt.
    ///
    /// A quarantined document contributes nothing past its state before the
    /// panicking batch.  One the log never held has no such state: it is
    /// left out, and a session recovered from the log holds it as closed.
    pub fn persist_to(&mut self, path: impl AsRef<Path>) -> Result<PersistReceipt, SessionError> {
        let path = path.as_ref();
        if let Some(cursor) = self.log.as_ref().filter(|c| c.path != path) {
            return Err(diverged(format!(
                "this session logs to {}, not {}",
                cursor.path.display(),
                path.display()
            ))
            .into());
        }
        let commits = self.export_deltas(self.logged_seq)?;
        // Each new document's `open` goes before the commit that first saw
        // its tree, as every call goes before the commit that followed it.
        let mut opens: Vec<(u64, u64)> = (self.docs.iter())
            .filter(|(_, d)| !d.logged && d.poisoned.is_none())
            .map(|(&raw, d)| (d.seen.map_or(self.commits, |seq| seq - 1), raw))
            .collect();
        opens.sort_unstable();
        let mut opens = opens.into_iter().peekable();
        let mut calls = self.pending.iter().peekable();
        let mut records = Vec::new();
        for after in self.logged_seq..=self.commits {
            while let Some((_, raw)) = opens.next_if(|&(at, _)| at <= after) {
                let doc = &self.docs[&raw];
                records.push(LogRecord::Open {
                    handle: DocHandle::from_raw(raw),
                    label: doc.label.clone(),
                    snapshot: doc.tree.snapshot(),
                });
            }
            while let Some((_, record)) = calls.next_if(|&&(at, _)| at <= after) {
                records.push(record.clone());
            }
            if let Some(delta) = commits.get((after - self.logged_seq) as usize) {
                records.push(LogRecord::Commit(delta.clone()));
            }
        }
        if records.is_empty() {
            let (total_records, durable_bytes) =
                (self.log.as_ref()).map_or((0, 0), |c| (c.records, c.durable_bytes));
            return Ok(PersistReceipt {
                total_records,
                durable_bytes,
                ..PersistReceipt::default()
            });
        }
        let (receipt, cursor) =
            journal::append_log(path, self.spec.id(), self.log.as_ref(), &records)?;
        for doc in self.docs.values_mut() {
            doc.logged |= doc.poisoned.is_none();
        }
        self.pending.clear();
        self.log = Some(cursor);
        self.logged_seq = self.commits;
        Ok(receipt)
    }

    /// Rebuilds this session from the corpus log at `path`, written by
    /// [`CorpusSession::persist_to`], and binds the session to it: later
    /// persists append there.  The session must be fresh — no document,
    /// commit or log yet — but may be limited, scoped or registry-bound.
    ///
    /// Trees come from the `open` snapshots and replayed `apply` records;
    /// handles, labels, [`CorpusSession::last_seq`] and the retained delta
    /// history from the `commit` records, and new handles never reuse a
    /// logged one.  A document opened or edited after the last logged
    /// commit (or whose last report is a contained fault) comes back dirty;
    /// every other one is re-checked now and must reproduce its logged
    /// report, or the recovery fails with [`JournalError::Diverged`].  A
    /// document a commit reported but the log holds no tree for comes back
    /// closed: the next commit announces it.
    ///
    /// A torn final record (a crash mid-append) is dropped; anything else
    /// structurally unsound is rejected as [`SessionError::Journal`] (see
    /// [`crate::journal`]'s recover-or-reject contract).  Under [`Limits`]
    /// every document is admitted like [`CorpusSession::open`]: the
    /// dirty-set bound on the documents that come back dirty, then
    /// [`Limits::max_doc_nodes`].  A rejected recovery opens nothing.
    pub fn recover_from(&mut self, path: impl AsRef<Path>) -> Result<Recovery, SessionError> {
        let path = path.as_ref();
        if self.next_handle > 0 || self.commits > 0 || self.log.is_some() {
            Err(diverged(
                "recover_from needs a fresh session: this one already opened, committed or logged"
                    .to_string(),
            ))?;
        }
        let log = journal::read_log(path, self.spec.id())?;
        let cursor = LogCursor {
            path: path.to_path_buf(),
            durable_bytes: log.durable_bytes,
            records: log.records.len() as u64,
        };
        let truncated_tail = log.truncated;
        // Each logged document's label, tree, and its last `open` or
        // `apply` record; the last `commit` record; every closed handle.
        let mut docs: BTreeMap<u64, (String, XmlTree, u64)> = BTreeMap::new();
        let mut last_commit = 0;
        let mut gone = BTreeSet::new();
        // Closes of reported documents logged since the last commit.
        let mut closed: Vec<ClosedDoc> = Vec::new();
        let mut replica = CorpusReplica::new(self.spec.id());
        let mut history = Vec::new();
        let (mut next_handle, mut ops_replayed) = (0, 0);
        for (seq, record) in (1..).zip(log.records) {
            record.check_ids(seq, self.spec.dtd())?;
            match record {
                LogRecord::Open {
                    handle,
                    label,
                    snapshot,
                } => {
                    let tree = XmlTree::from_snapshot(&snapshot).map_err(JournalError::from)?;
                    next_handle = next_handle.max(handle.raw() + 1);
                    let doc = (label, tree, seq);
                    if gone.contains(&handle.raw()) || docs.insert(handle.raw(), doc).is_some() {
                        Err(diverged(format!("record #{seq} reopens {handle}")))?;
                    }
                }
                LogRecord::Apply { handle, op } => {
                    let Some((_, tree, touched)) = docs.get_mut(&handle.raw()) else {
                        let detail = format!("record #{seq} edits {handle}, which is not open");
                        return Err(diverged(detail).into());
                    };
                    tree.apply_edit(&op)
                        .map_err(|error| JournalError::Replay { seq, error })?;
                    *touched = seq;
                    ops_replayed += 1;
                }
                LogRecord::Close(close) => {
                    let raw = close.handle.raw();
                    next_handle = next_handle.max(raw + 1);
                    let reported = replica.docs.contains_key(&raw);
                    if !gone.insert(raw) || (docs.remove(&raw).is_none() && !reported) {
                        Err(diverged(format!(
                            "record #{seq} closes {}, which is not open",
                            close.handle
                        )))?;
                    }
                    // A document no commit reported leaves silently.
                    if reported {
                        closed.push(close);
                    }
                }
                LogRecord::Commit(delta) => {
                    replica.apply_delta(&delta)?;
                    // A commit announces exactly the closes logged since the
                    // previous one.
                    if delta.closed != closed {
                        Err(diverged(format!(
                            "commit {} announces other closes",
                            delta.seq
                        )))?;
                    }
                    closed.clear();
                    for change in &delta.changes {
                        next_handle = next_handle.max(change.handle.raw() + 1);
                    }
                    last_commit = seq;
                    history.push(delta);
                }
            }
        }
        let last_seq = replica.last_seq();
        // A reported document without a logged tree was closed or
        // quarantined before the log held it: it comes back closed, and
        // the log gets the close the next commit announces.
        let mut pending = Vec::new();
        for (&raw, report) in &replica.docs {
            if !docs.contains_key(&raw) && !gone.contains(&raw) {
                let close = ClosedDoc {
                    handle: DocHandle::from_raw(raw),
                    label: report.label.clone(),
                };
                closed.push(close.clone());
                pending.push((last_seq, LogRecord::Close(close)));
            }
        }

        // Admit every document like the open that first brought it in, and
        // re-check each one the last commit saw against its logged report.
        let validator = self.spec.validator();
        let mut restored = BTreeMap::new();
        let mut dirty = Vec::new();
        for (position, (raw, (label, tree, touched))) in docs.into_iter().enumerate() {
            let context = format!("recover `{label}`");
            let report = replica.docs.get(&raw).map(|logged| DocReport {
                index: position,
                ..logged.clone()
            });
            let is_dirty =
                touched > last_commit || report.as_ref().is_none_or(|r| r.fault.is_some());
            if is_dirty {
                admit_dirty(&self.limits, dirty.len() + 1, &context)
                    .map_err(SessionError::Resource)?;
                dirty.push(raw);
            }
            self.check_doc_nodes(&tree, context)?;
            let layout = Arc::clone(self.spec.incremental_layout());
            let mut doc = CorpusDoc {
                index: IncrementalIndex::with_layout(layout, &tree),
                label,
                tree,
                structure: StructuralIndex::new(),
                position,
                committed_clean: report.as_ref().map(DocReport::is_clean),
                report,
                seen: (!is_dirty).then_some(last_seq),
                logged: true,
                poisoned: None,
            };
            if !is_dirty {
                let scope = self.shard_scope.as_ref();
                refresh(&validator, &mut doc, scope, &mut Vec::new());
                let fresh = DocReport {
                    index: position,
                    label: doc.label.clone(),
                    parse_error: None,
                    validation_errors: rendered_errors(&doc.structure),
                    violations: doc.index.violations().cloned().collect(),
                    fault: None,
                };
                if doc.report.as_ref() != Some(&fresh) {
                    let handle = DocHandle::from_raw(raw);
                    Err(diverged(format!(
                        "{handle} does not re-check to its logged report"
                    )))?;
                }
            }
            restored.insert(raw, doc);
        }

        let recovery = Recovery {
            docs: restored.len(),
            dirty: dirty.len(),
            ops_replayed,
            last_seq,
            truncated_tail,
        };
        self.clean_docs = restored
            .values()
            .filter(|d| d.committed_clean == Some(true))
            .count();
        self.docs = restored;
        self.dirty = dirty;
        self.closed = closed;
        self.next_handle = next_handle;
        self.commits = last_seq;
        self.history = history;
        self.log = Some(cursor);
        self.logged_seq = last_seq;
        self.pending = pending;
        self.instr.dirty_docs.set(self.dirty.len() as i64);
        self.instr.open_docs.set(self.docs.len() as i64);
        Ok(recovery)
    }

    /// The last committed sequence number (0 before the first commit).
    pub fn last_seq(&self) -> u64 {
        self.commits
    }

    /// Ops applied since the last commit (what the
    /// [`Limits::max_queued_ops`] backpressure bound compares against).
    pub fn queued_ops(&self) -> usize {
        self.queued_ops
    }

    /// The committed deltas with sequence numbers above `after_seq`, in
    /// order — the export surface of replication: ship these to a
    /// [`crate::CorpusReplica`] and it reconstructs
    /// [`CorpusSession::report`] exactly, with no document ever re-shipped
    /// ([`CorpusSession::persist_to`] logs the same deltas as `commit`
    /// records).
    /// Fails with [`JournalError::PrunedDeltas`] when the requested window
    /// was already dropped by [`CorpusSession::prune_deltas`].
    pub fn export_deltas(&self, after_seq: u64) -> Result<&[BatchDelta], JournalError> {
        if after_seq + 1 < self.history_base {
            return Err(JournalError::PrunedDeltas {
                first_retained: self.history_base,
            });
        }
        let skip = (after_seq + 1 - self.history_base) as usize;
        Ok(&self.history[skip.min(self.history.len())..])
    }

    /// Drops retained deltas with sequence numbers `<= up_to_seq` (once
    /// every subscriber has durably consumed them), bounding the history a
    /// long-lived corpus keeps in memory.  Returns how many were dropped.
    ///
    /// A session bound to a log ([`CorpusSession::persist_to`],
    /// [`CorpusSession::recover_from`]) is itself such a subscriber: it
    /// keeps every delta the log does not hold yet, whatever `up_to_seq`
    /// asks, so its next persist can still write them as `commit` records.
    pub fn prune_deltas(&mut self, up_to_seq: u64) -> usize {
        let up_to_seq = match self.log {
            Some(_) => up_to_seq.min(self.logged_seq),
            None => up_to_seq,
        };
        let droppable = (up_to_seq + 1).saturating_sub(self.history_base) as usize;
        let drop = droppable.min(self.history.len());
        self.history.drain(..drop);
        self.history_base += drop as u64;
        // Calls before a dropped commit the log lacks can never be logged.
        let stale = (self.pending).partition_point(|&(at, _)| at + 1 < self.history_base);
        self.pending.drain(..stale);
        drop
    }

    /// Materializes the full corpus report, ordered like a
    /// [`crate::BatchEngine::validate_batch`] run over the open documents in
    /// open order — and *identical* to one on the current trees
    /// (`tests/corpus_agreement.rs` holds it to that).  O(corpus): use the
    /// [`BatchDelta`] stream for change tracking and this for snapshots.
    ///
    /// # Panics
    /// Panics if a document was opened or edited after the last commit
    /// (commit first — a snapshot of half-applied edits would be stale).
    pub fn report(&self) -> BatchReport {
        assert!(
            self.dirty.is_empty() && self.staged_changes.is_empty(),
            "report() requires a commit after every open/edit (and after a deadline-aborted try_commit)"
        );
        let reports = self
            .docs
            .values()
            .enumerate()
            .map(|(position, doc)| {
                let mut report = doc
                    .report
                    .clone()
                    .expect("committed documents always carry a report");
                report.index = position;
                report
            })
            .collect();
        BatchReport::from_reports(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchDoc, BatchEngine};
    use xic_constraints::SatisfactionChecker;
    use xic_xml::write_document;

    fn spec() -> CompiledSpec {
        CompiledSpec::from_sources(
            "<!ELEMENT school (teacher*)>\n\
             <!ELEMENT teacher EMPTY>\n\
             <!ATTLIST teacher name CDATA #REQUIRED>",
            Some("school"),
            "teacher.name -> teacher",
        )
        .unwrap()
    }

    #[test]
    fn commits_recheck_only_dirty_docs_and_flips_stream_out() {
        let spec = spec();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let mut corpus = CorpusSession::new(&spec);
        let a = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        let b = corpus
            .open_source("b.xml", "<school><teacher name=\"Ann\"/></school>")
            .unwrap();

        // First commit checks both (both newly opened ⇒ both in the delta).
        let delta = corpus.commit();
        assert_eq!(delta.seq, 1);
        assert_eq!(delta.rechecked_docs, 2);
        assert_eq!(delta.changes.len(), 2);
        assert!(delta
            .changes
            .iter()
            .all(|c| c.was_clean.is_none() && c.now_clean()));
        assert_eq!((delta.total, delta.clean), (2, 2));

        // Break b's key: one dirty doc, one flip.
        let ann = corpus.tree(b).unwrap().elements().nth(1).unwrap();
        corpus
            .apply(
                b,
                &[
                    EditOp::AddElement {
                        parent: corpus.tree(b).unwrap().root(),
                        ty: spec.dtd().type_by_name("teacher").unwrap(),
                    },
                    EditOp::SetAttr {
                        element: ann,
                        attr: name,
                        value: "Dup".into(),
                    },
                ],
            )
            .unwrap();
        let added = corpus.tree(b).unwrap().elements().nth(2).unwrap();
        corpus
            .apply(
                b,
                &[EditOp::SetAttr {
                    element: added,
                    attr: name,
                    value: "Dup".into(),
                }],
            )
            .unwrap();
        let delta = corpus.commit();
        assert_eq!(delta.rechecked_docs, 1);
        assert_eq!(delta.changes.len(), 1);
        let change = &delta.changes[0];
        assert_eq!(change.handle, b);
        assert_eq!(change.was_clean, Some(true));
        assert!(!change.now_clean());
        assert!(matches!(
            change.report.violations[0],
            Violation::KeyViolation { .. }
        ));
        assert_eq!((delta.total, delta.clean), (2, 1));

        // Nothing dirty ⇒ empty delta, zero rechecks.
        let delta = corpus.commit();
        assert!(delta.is_empty());
        assert_eq!(delta.rechecked_docs, 0);

        // Close b: handle + label show up once, in the next delta only.
        corpus.close(b).unwrap();
        let delta = corpus.commit();
        assert_eq!(
            delta.closed,
            vec![ClosedDoc {
                handle: b,
                label: "b.xml".to_string()
            }]
        );
        assert_eq!((delta.total, delta.clean), (1, 1));
        assert!(corpus.tree(b).is_err());
        let _ = a;
    }

    /// A violating document that trades one violation for another stays
    /// violating — and still enters the delta stream, because its report
    /// changed.
    #[test]
    fn violation_content_changes_reach_the_stream() {
        let spec = spec();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let mut corpus = CorpusSession::new(&spec);
        let a = corpus
            .open_source(
                "a.xml",
                "<school><teacher name=\"X\"/><teacher name=\"X\"/>\
                 <teacher name=\"Y\"/><teacher name=\"Y\"/></school>",
            )
            .unwrap();
        corpus.commit();

        // Heal the X clash; the Y clash remains: clean state is unchanged
        // (violating → violating) but the witness values moved X → Y.
        let first_x = corpus.tree(a).unwrap().elements().nth(1).unwrap();
        corpus
            .apply(
                a,
                &[EditOp::SetAttr {
                    element: first_x,
                    attr: name,
                    value: "Z".into(),
                }],
            )
            .unwrap();
        let delta = corpus.commit();
        assert_eq!(delta.changes.len(), 1);
        let change = &delta.changes[0];
        assert_eq!(change.was_clean, Some(false));
        assert!(!change.now_clean());
        assert!(matches!(
            &change.report.violations[0],
            Violation::KeyViolation { values, .. } if values == &vec!["Y".to_string()]
        ));
        // The stream now reconstructs report(): same report object.
        assert_eq!(&change.report, &corpus.report().reports()[0]);

        // A no-op rewrite (same value) leaves the report unchanged: the doc
        // is rechecked but nothing enters the stream.
        let first = corpus.tree(a).unwrap().elements().nth(1).unwrap();
        corpus
            .apply(
                a,
                &[EditOp::SetAttr {
                    element: first,
                    attr: name,
                    value: "Z".into(),
                }],
            )
            .unwrap();
        let delta = corpus.commit();
        assert_eq!(delta.rechecked_docs, 1);
        assert!(delta.is_empty());
    }

    #[test]
    fn report_matches_a_cold_batch_engine_run() {
        let spec = spec();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let mut corpus = CorpusSession::new(&spec);
        let docs = [
            ("ok.xml", "<school><teacher name=\"Joe\"/></school>"),
            (
                "dup.xml",
                "<school><teacher name=\"A\"/><teacher name=\"A\"/></school>",
            ),
        ];
        let mut handles = Vec::new();
        for (label, src) in docs {
            handles.push(corpus.open_source(label, src).unwrap());
        }
        corpus.commit();
        let joe = corpus.tree(handles[0]).unwrap().elements().nth(1).unwrap();
        corpus
            .apply(
                handles[0],
                &[EditOp::SetAttr {
                    element: joe,
                    attr: name,
                    value: "Renamed".into(),
                }],
            )
            .unwrap();
        corpus.commit();

        // Serialize the *current* trees and run the cold path.
        let batch_docs: Vec<BatchDoc> = handles
            .iter()
            .map(|&h| {
                BatchDoc::new(
                    corpus.label(h).unwrap(),
                    write_document(corpus.tree(h).unwrap(), spec.dtd()),
                )
            })
            .collect();
        let cold = BatchEngine::new(1).validate_batch(&spec, &batch_docs);
        assert_eq!(corpus.report(), cold);
    }

    #[test]
    fn errors_name_the_handle_and_partial_batches_stay_applied() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let mut corpus = CorpusSession::new(&spec);
        let a = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        let root = corpus.tree(a).unwrap().root();
        let err = corpus
            .apply(
                a,
                &[
                    EditOp::AddElement {
                        parent: root,
                        ty: teacher,
                    },
                    EditOp::RemoveSubtree { element: root },
                ],
            )
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::Edit {
                index: 1,
                error: EditError::RemoveRoot
            }
        );
        // The applied prefix is visible; commit re-checks the partially
        // edited doc exactly.
        assert_eq!(corpus.tree(a).unwrap().ext_count(teacher), 2);
        let delta = corpus.commit();
        assert_eq!(delta.rechecked_docs, 1);

        let dead = corpus.close(a).unwrap();
        assert_eq!(dead.ext_count(teacher), 2);
        assert_eq!(
            corpus.apply(a, &[]),
            Err(SessionError::UnknownHandle(a)),
            "closed handles are rejected"
        );
    }

    #[test]
    fn exported_deltas_feed_a_replica_and_prune_bounds_history() {
        use crate::journal::{CorpusReplica, JournalError};
        let spec = spec();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let mut corpus = CorpusSession::new(&spec);
        let mut replica = CorpusReplica::new(spec.id());
        let a = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        let b = corpus
            .open_source("b.xml", "<school><teacher name=\"Ann\"/></school>")
            .unwrap();
        corpus.commit();
        replica
            .apply_deltas(corpus.export_deltas(replica.last_seq()).unwrap())
            .unwrap();
        assert_eq!(replica.report(), corpus.report());

        // Edit + close; the replica follows from deltas alone.
        let joe = corpus.tree(a).unwrap().elements().nth(1).unwrap();
        corpus
            .apply(
                a,
                &[EditOp::SetAttr {
                    element: joe,
                    attr: name,
                    value: "Ann".into(),
                }],
            )
            .unwrap();
        corpus.commit();
        corpus.close(b).unwrap();
        corpus.commit();
        replica
            .apply_deltas(corpus.export_deltas(replica.last_seq()).unwrap())
            .unwrap();
        assert_eq!(replica.last_seq(), 3);
        assert_eq!(replica.report(), corpus.report());
        assert_eq!(replica.num_docs(), 1);

        // Pruning consumed deltas bounds the retained history; asking for
        // the pruned window is a structured error, newer windows still work.
        assert_eq!(corpus.prune_deltas(2), 2);
        assert_eq!(corpus.export_deltas(2).unwrap().len(), 1);
        assert_eq!(
            corpus.export_deltas(0).unwrap_err(),
            JournalError::PrunedDeltas { first_retained: 3 }
        );
        assert_eq!(corpus.prune_deltas(100), 1);
        assert_eq!(corpus.export_deltas(3).unwrap().len(), 0);
    }

    #[test]
    fn dirty_set_bound_sheds_opens_and_edits_until_a_commit() {
        let spec = spec();
        let mut corpus = CorpusSession::with_limits(
            &spec,
            Limits {
                max_dirty_docs: Some(1),
                ..Limits::UNLIMITED
            },
        );
        let a = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        // The dirty set is full: a second open is shed before parsing.
        let err = corpus
            .open_source("b.xml", "<school><teacher name=\"Ann\"/></school>")
            .unwrap_err();
        let SessionError::Resource(resource) = err else {
            panic!("expected a resource rejection");
        };
        assert_eq!(resource.limit, LimitKind::DirtyDocs);
        corpus.commit();
        let b = corpus
            .open_source("b.xml", "<school><teacher name=\"Ann\"/></school>")
            .unwrap();
        corpus.commit();

        // Editing dirties: with b dirty, dirtying a is rejected whole.
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let add_to = |corpus: &CorpusSession<'_>, h| EditOp::AddElement {
            parent: corpus.tree(h).unwrap().root(),
            ty: teacher,
        };
        corpus.apply(b, &[add_to(&corpus, b)]).unwrap();
        let op = add_to(&corpus, a);
        let err = corpus.apply(a, std::slice::from_ref(&op)).unwrap_err();
        let SessionError::Resource(resource) = err else {
            panic!("expected a resource rejection");
        };
        assert_eq!(resource.limit, LimitKind::DirtyDocs);
        assert_eq!(resource.rejected.len(), 1);
        assert_eq!(resource.rejected[0].op, op);
        // Nothing was applied to a; a re-apply after a commit succeeds.
        assert_eq!(corpus.tree(a).unwrap().ext_count(teacher), 1);
        corpus.commit();
        corpus.apply(a, &[op]).unwrap();
        corpus.commit();
    }

    #[test]
    fn queued_op_bound_rejects_batches_whole_and_drains_at_commit() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let mut corpus = CorpusSession::with_limits(
            &spec,
            Limits {
                max_queued_ops: Some(2),
                ..Limits::UNLIMITED
            },
        );
        let a = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        let root = corpus.tree(a).unwrap().root();
        let op = EditOp::AddElement {
            parent: root,
            ty: teacher,
        };
        let err = corpus.apply(a, &vec![op.clone(); 3]).unwrap_err();
        let SessionError::Resource(resource) = err else {
            panic!("expected a resource rejection");
        };
        assert_eq!(resource.limit, LimitKind::QueuedOps);
        assert_eq!(resource.rejected.len(), 3);
        assert_eq!(corpus.tree(a).unwrap().ext_count(teacher), 1);

        // Two fit; the third is over quota until a commit drains the queue.
        corpus.apply(a, &vec![op.clone(); 2]).unwrap();
        let err = corpus.apply(a, std::slice::from_ref(&op)).unwrap_err();
        assert!(matches!(err, SessionError::Resource(_)));
        corpus.commit();
        corpus.apply(a, &[op]).unwrap();
        corpus.commit();
        assert_eq!(corpus.tree(a).unwrap().ext_count(teacher), 4);
    }

    #[test]
    fn zero_deadline_aborts_try_commit_and_plain_commit_resumes() {
        let spec = spec();
        let mut corpus = CorpusSession::with_limits(
            &spec,
            Limits {
                deadline: Some(std::time::Duration::ZERO),
                ..Limits::UNLIMITED
            },
        );
        corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        corpus
            .open_source("b.xml", "<school><teacher name=\"Ann\"/></school>")
            .unwrap();
        let err = corpus.try_commit().unwrap_err();
        assert_eq!(err.limit, LimitKind::Deadline);
        assert!(err.context.contains("dirty documents"), "{}", err.context);
        // Nothing was announced: no delta, no sequence advance.
        assert_eq!(corpus.last_seq(), 0);
        // A plain commit ignores the deadline, finishes the staged work and
        // announces one combined delta.
        let delta = corpus.commit();
        assert_eq!(delta.seq, 1);
        assert_eq!(delta.rechecked_docs, 2);
        assert_eq!(delta.changes.len(), 2);
        assert_eq!((delta.total, delta.clean), (2, 2));
        assert_eq!(corpus.report().total(), 2);
    }

    #[test]
    fn document_pool_holds_only_its_own_values() {
        let spec = spec();
        for n in [2usize, 16] {
            let mut corpus = CorpusSession::new(&spec);
            // Document i carries i + 1 distinct names, none shared with
            // any other document.
            let handles: Vec<DocHandle> = (0..n)
                .map(|i| {
                    let teachers: String = (0..=i)
                        .map(|j| format!("<teacher name=\"d{i}t{j}\"/>"))
                        .collect();
                    let source = format!("<school>{teachers}</school>");
                    corpus.open_source(format!("{i}.xml"), &source).unwrap()
                })
                .collect();
            for (i, handle) in handles.into_iter().enumerate() {
                let tree = corpus.tree(handle).unwrap();
                assert_eq!(tree.pool().len(), i + 1, "n = {n}");
            }
        }
    }

    /// The committed Σ violations of a one-document corpus.
    fn committed_violations(corpus: &mut CorpusSession<'_>) -> Vec<Violation> {
        corpus.commit();
        corpus.report().reports()[0].violations.clone()
    }

    fn temp_log(tag: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("xic-corpus-{tag}-{}.xicj", std::process::id()));
        std::fs::remove_file(&path).ok();
        path
    }

    #[test]
    fn edits_flow_through_and_verdicts_match_rebuild() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let mut corpus = CorpusSession::with_registry(&spec, Default::default());
        let doc = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        assert!(committed_violations(&mut corpus).is_empty());

        let root = corpus.tree(doc).unwrap().root();
        corpus
            .apply(
                doc,
                &[EditOp::AddElement {
                    parent: root,
                    ty: teacher,
                }],
            )
            .unwrap();
        // The new teacher has no name yet: keys skip attribute-less
        // elements, so Σ still holds (the DTD's #REQUIRED name does not).
        assert!(committed_violations(&mut corpus).is_empty());
        let added = corpus.tree(doc).unwrap().ext(teacher).nth(1).unwrap();
        corpus
            .apply(
                doc,
                &[EditOp::SetAttr {
                    element: added,
                    attr: name,
                    value: "Joe".into(),
                }],
            )
            .unwrap();
        let violations = committed_violations(&mut corpus);
        assert!(!violations.is_empty());
        assert_eq!(corpus.registry().counter("corpus.edits").get(), 2);

        // Witness identity with a from-scratch reference check.
        let tree = corpus.tree(doc).unwrap();
        let rebuilt = SatisfactionChecker::new(spec.dtd(), tree).check_all(spec.sigma());
        assert_eq!(violations, rebuilt);

        // Closing hands the edited tree back; the handle dies.
        let tree = corpus.close(doc).unwrap();
        assert_eq!(tree.ext_count(teacher), 2);
        assert_eq!(
            corpus.tree(doc).err(),
            Some(SessionError::UnknownHandle(doc))
        );
    }

    #[test]
    fn persist_recover_round_trip() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let path = temp_log("persist");

        let mut corpus = CorpusSession::new(&spec);
        let doc = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        // The first persist logs the document as an `open` snapshot.
        let receipt = corpus.persist_to(&path).unwrap();
        assert_eq!((receipt.records_written, receipt.total_records), (1, 1));

        // Edits of a logged document are logged as `apply` records.
        let root = corpus.tree(doc).unwrap().root();
        let add = EditOp::AddElement {
            parent: root,
            ty: teacher,
        };
        corpus.apply(doc, &[add.clone(), add]).unwrap();
        let receipt = corpus.persist_to(&path).unwrap();
        assert_eq!(receipt.records_written, 2);

        // A commit, then an edit no commit has seen: both are logged.
        corpus.commit();
        let second = corpus.tree(doc).unwrap().ext(teacher).nth(1).unwrap();
        corpus
            .apply(
                doc,
                &[EditOp::SetAttr {
                    element: second,
                    attr: name,
                    value: "Joe".into(),
                }],
            )
            .unwrap();
        let receipt = corpus.persist_to(&path).unwrap();
        assert_eq!((receipt.records_written, receipt.commits_written), (2, 1));
        assert_eq!(receipt.total_records, 5);
        // Nothing new: no write at all.
        assert_eq!(corpus.persist_to(&path).unwrap().records_written, 0);
        let live = committed_violations(&mut corpus);
        assert!(!live.is_empty());

        // Recovery replays the log onto the snapshot: the edited document
        // comes back dirty, and its next commit reaches the same verdict on
        // node-for-node the same arena.
        let mut recovered = CorpusSession::new(&spec);
        let recovery = recovered.recover_from(&path).unwrap();
        assert_eq!(
            recovery,
            Recovery {
                docs: 1,
                dirty: 1,
                ops_replayed: 3,
                last_seq: 1,
                truncated_tail: false,
            }
        );
        assert_eq!(recovered.handles().collect::<Vec<_>>(), [doc]);
        assert_eq!(recovered.label(doc).unwrap(), "a.xml");
        assert_eq!(committed_violations(&mut recovered), live);
        assert_eq!(recovered.last_seq(), 2);
        assert_eq!(
            recovered.tree(doc).unwrap().snapshot(),
            corpus.tree(doc).unwrap().snapshot()
        );

        // The recovered session keeps appending to the same log, and a
        // second recovery sees a clean document at the new commit.
        let third = recovered.tree(doc).unwrap().ext(teacher).nth(2).unwrap();
        recovered
            .apply(
                doc,
                &[EditOp::SetAttr {
                    element: third,
                    attr: name,
                    value: "Ann".into(),
                }],
            )
            .unwrap();
        recovered.commit();
        let receipt = recovered.persist_to(&path).unwrap();
        assert_eq!((receipt.records_written, receipt.total_records), (3, 8));
        let mut again = CorpusSession::new(&spec);
        let recovery = again.recover_from(&path).unwrap();
        assert_eq!((recovery.dirty, recovery.last_seq), (0, 3));
        assert_eq!(again.report(), recovered.report());
        // New handles never reuse a logged one.
        let next = again.open_source("b.xml", "<school/>").unwrap();
        assert_eq!(next.raw(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persisting_a_foreign_log_is_rejected() {
        let spec = spec();
        let path = temp_log("foreign");
        let other = temp_log("foreign-other");

        let mut corpus = CorpusSession::new(&spec);
        corpus
            .open_source("a.xml", "<school><teacher name=\"A\"/></school>")
            .unwrap();
        corpus.persist_to(&path).unwrap();
        let diverged = |err: SessionError| {
            assert!(
                matches!(err, SessionError::Journal(JournalError::Diverged { .. })),
                "{err:?}"
            )
        };
        // A session is bound to its one log.
        diverged(corpus.persist_to(&other).unwrap_err());
        // Another session never appends to a log it did not write or
        // recover from.
        let mut stranger = CorpusSession::new(&spec);
        stranger.open_source("b.xml", "<school/>").unwrap();
        diverged(stranger.persist_to(&path).unwrap_err());
        // Recovery needs a fresh session.
        diverged(stranger.recover_from(&path).unwrap_err());
        assert_eq!(stranger.num_docs(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// A deadline-aborted commit, a close no commit has announced yet, and
    /// a logged document closed before any commit saw it: a session
    /// recovered from a persist taken in that state announces the same next
    /// delta as the session that never stopped.
    #[test]
    fn recovery_resumes_a_half_finished_commit() {
        let spec = spec();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let path = temp_log("half-finished");
        let zero = Limits {
            deadline: Some(std::time::Duration::ZERO),
            ..Limits::UNLIMITED
        };
        let mut live = CorpusSession::with_limits(&spec, zero);
        let sources = [
            ("a.xml", "<school><teacher name=\"A\"/></school>"),
            ("b.xml", "<school><teacher name=\"B\"/></school>"),
            ("c.xml", "<school><teacher name=\"C\"/></school>"),
        ];
        let handles: Vec<DocHandle> = sources
            .iter()
            .map(|(label, source)| live.open_source(*label, source).unwrap())
            .collect();
        live.commit();
        let gone = live.open_source("gone.xml", "<school/>").unwrap();
        live.persist_to(&path).unwrap();
        live.close(gone).unwrap();
        live.close(handles[2]).unwrap();
        for (i, &doc) in handles[..2].iter().enumerate() {
            live.apply(
                doc,
                &[EditOp::SetAttr {
                    element: xic_xml::NodeId(1),
                    attr: name,
                    value: format!("dup{i}"),
                }],
            )
            .unwrap();
        }
        // A zero deadline re-checks nothing and announces nothing.
        assert!(live.try_commit().is_err());
        live.persist_to(&path).unwrap();

        let mut recovered = CorpusSession::new(&spec);
        let recovery = recovered.recover_from(&path).unwrap();
        assert_eq!(
            (recovery.docs, recovery.dirty, recovery.last_seq),
            (2, 2, 1)
        );
        let (expected, got) = (live.commit(), recovered.commit());
        assert_eq!(
            (&got.changes, &got.closed, got.total, got.clean),
            (
                &expected.changes,
                &expected.closed,
                expected.total,
                expected.clean
            )
        );
        assert_eq!(got.closed.len(), 1, "only the announced document's close");
        assert_eq!(recovered.report(), live.report());
        std::fs::remove_file(&path).ok();
    }

    /// A document opened and closed between two commits never entered the
    /// delta stream, so its close is not announced either.
    #[test]
    fn closing_an_uncommitted_document_leaves_no_trace() {
        let spec = spec();
        let mut corpus = CorpusSession::new(&spec);
        let a = corpus.open_source("a.xml", "<school/>").unwrap();
        corpus.close(a).unwrap();
        let delta = corpus.commit();
        assert!(delta.is_empty(), "{delta:?}");
        let mut replica = CorpusReplica::new(spec.id());
        replica.apply_delta(&delta).unwrap();
    }

    #[test]
    fn limits_reject_batches_whole_with_an_echo() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let mut corpus = CorpusSession::with_limits(
            &spec,
            Limits {
                max_doc_nodes: Some(3),
                ..Limits::UNLIMITED
            },
        );
        // school + teacher + its name attribute = 3 arena nodes: at the cap.
        let doc = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        let root = corpus.tree(doc).unwrap().root();
        let ops = vec![
            EditOp::AddElement {
                parent: root,
                ty: teacher,
            };
            2
        ];
        let err = corpus.apply(doc, &ops).unwrap_err();
        let SessionError::Resource(resource) = err else {
            panic!("expected a resource rejection, got {err:?}");
        };
        assert_eq!(resource.limit, LimitKind::DocNodes);
        // All-or-nothing: the whole batch is echoed back and nothing was
        // applied — unlike Edit errors, which keep the applied prefix.
        assert_eq!(resource.rejected.len(), 2);
        assert_eq!(resource.rejected[0].op, ops[0]);
        assert_eq!(corpus.tree(doc).unwrap().ext_count(teacher), 1);
        assert_eq!(corpus.queued_ops(), 0);
    }

    #[test]
    fn open_source_enforces_the_parse_budget() {
        let spec = spec();
        let mut corpus = CorpusSession::with_limits(
            &spec,
            Limits {
                max_doc_bytes: Some(8),
                ..Limits::UNLIMITED
            },
        );
        let err = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap_err();
        assert!(
            matches!(err, SessionError::Resource(_)),
            "oversized source must reject as a resource error, got {err:?}"
        );
        assert_eq!(corpus.num_docs(), 0);
    }
}
