//! Long-lived validation sessions: the edit-and-recheck front end.
//!
//! The one-shot surface (`CompiledSpec::check_document`) answers `T ⊨ Σ`
//! for a document it will never see again.  Edit-heavy workloads — document
//! repair loops, collaborative editors, write-access-control checking —
//! re-validate the *same* document after every small change, and a rebuild
//! per edit costs O(document) each time.
//!
//! A [`Session`] owns one [`CompiledSpec`] reference and any number of open
//! documents, each addressed by a [`DocHandle`].  Mutation goes exclusively
//! through [`Session::apply`] as typed [`EditOp`]s: the session routes every
//! edit through [`xic_xml::XmlTree::apply_edit`], feeds the resulting
//! [`xic_xml::EditEffect`] to the document's
//! [`xic_constraints::IncrementalIndex`], journals it, and returns a fresh
//! [`SessionVerdict`].  Because the session hands out only `&XmlTree`, raw
//! `&mut` mutation can no longer bypass index maintenance.
//!
//! Verdicts are **witness-identical** to a from-scratch check by the
//! independent reference checker (asserted by `tests/session_agreement.rs`),
//! at O(edit) maintenance cost instead of O(rebuild) — the `session_edit`
//! bench records the gap.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use xic_constraints::{IncrementalIndex, Violation};
use xic_telemetry::{Counter, Histogram, MetricsRegistry};
use xic_xml::budget::ParseError;
use xic_xml::snapshot::TreeSnapshot;
use xic_xml::{EditError, EditJournal, EditOp, XmlError, XmlTree};

use crate::journal::{self, JournalError, PersistReceipt};
use crate::limits::{self, Limits, ResourceError};
use crate::spec::CompiledSpec;

/// Registry-backed per-edit instruments, resolved once per session (name
/// lookups take a read lock; [`Session::apply`] should not).
#[derive(Debug)]
pub(crate) struct SessionInstruments {
    pub(crate) registry: Arc<MetricsRegistry>,
    edits: Arc<Counter>,
    apply_ns: Arc<Histogram>,
    check_ns: Arc<Histogram>,
}

impl SessionInstruments {
    pub(crate) fn on(registry: Arc<MetricsRegistry>) -> SessionInstruments {
        SessionInstruments {
            edits: registry.counter("session.edits"),
            apply_ns: registry.histogram("session.apply_ns"),
            check_ns: registry.histogram("session.check_ns"),
            registry,
        }
    }
}

/// Identifier of a document opened in a [`Session`] or a
/// [`crate::CorpusSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocHandle(u64);

impl DocHandle {
    /// Crate-internal constructor (live handles are only minted by
    /// sessions).
    pub(crate) fn new(raw: u64) -> DocHandle {
        DocHandle(raw)
    }

    /// Reconstructs a handle from its raw number.  Sessions mint live
    /// handles themselves; this exists for the replication layer — a
    /// [`crate::CorpusReplica`] fed a persisted delta log must key its
    /// replica documents by the *originating* session's handles.
    pub fn from_raw(raw: u64) -> DocHandle {
        DocHandle(raw)
    }

    /// The raw handle number (stable for the lifetime of the session, and
    /// the identity [`crate::BatchDelta`] records persist).
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
    /// document — ask for a verdict to see its state).
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
    /// applied** — the batch comes back whole in the error's `rejected`
    /// echo, so the caller can shed load and retry after a commit.
    Resource(ResourceError),
    /// The document is quarantined: an earlier edit panicked mid-apply and
    /// was contained, so its in-memory indexes may be inconsistent.  Every
    /// verdict-producing call is refused until [`Session::recover`]
    /// rebuilds the document from its journal.
    Poisoned {
        /// The quarantined document.
        handle: DocHandle,
        /// The contained panic's message.
        cause: String,
    },
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
                "document {handle} is quarantined after a contained panic ({cause}); recover() it"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// The outcome of re-checking one session document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionVerdict {
    violations: Vec<Violation>,
    rechecked: usize,
    edits_applied: u64,
}

impl SessionVerdict {
    /// `T ⊨ Σ`?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Every violation, in Σ order — identical to what a from-scratch
    /// [`xic_constraints::SatisfactionChecker`] pass would report.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// How many of Σ's constraints this verdict had to recompute (the rest
    /// were served from the per-constraint cache): the observable dirty-set
    /// size.
    pub fn rechecked(&self) -> usize {
        self.rechecked
    }

    /// Total edits applied to the document since it was opened.
    pub fn edits_applied(&self) -> u64 {
        self.edits_applied
    }
}

/// Applies a batch of ops to one `(tree, index, journal)` triple: each op
/// is validated, applied, folded into the incremental indexes and journaled
/// before the next op runs.  On rejection the applied prefix stays (the
/// error's `index` reports its length) and the indexes remain exact.  The
/// one edit loop shared by [`Session`] and [`crate::CorpusSession`].
pub(crate) fn apply_ops(
    tree: &mut XmlTree,
    index: &mut IncrementalIndex,
    journal: &mut EditJournal,
    ops: &[EditOp],
) -> Result<(), SessionError> {
    for (i, op) in ops.iter().enumerate() {
        let effect = tree
            .apply_edit(op)
            .map_err(|error| SessionError::Edit { index: i, error })?;
        index.apply(tree, &effect);
        journal.record(op.clone(), effect);
    }
    Ok(())
}

#[derive(Debug)]
struct SessionDoc {
    tree: XmlTree,
    index: IncrementalIndex,
    journal: EditJournal,
    edits_applied: u64,
    /// Edits known durable in a log (`Session::persist_to` raises it); the
    /// compaction watermark for [`xic_xml::EditJournal::compact`].
    durable_edits: u64,
    /// The tree as of the journal's fold point: [`Session::recover`]
    /// replays `journal` on top of this to rebuild the document after a
    /// contained panic.  [`Session::compact`] advances it in lockstep with
    /// the journal so base + entries always reconstructs the live tree.
    base: TreeSnapshot,
    /// `Some(cause)` after a contained panic mid-apply: the tree/index pair
    /// may be inconsistent, so edits and verdicts are refused until
    /// [`Session::recover`] clears the flag.
    poisoned: Option<String>,
}

impl SessionDoc {
    fn new(tree: XmlTree, index: IncrementalIndex) -> SessionDoc {
        let base = tree.snapshot();
        SessionDoc {
            tree,
            index,
            journal: EditJournal::new(),
            edits_applied: 0,
            durable_edits: 0,
            base,
            poisoned: None,
        }
    }
}

/// What `Session::recover_from` reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// The handle of the recovered document.
    pub handle: DocHandle,
    /// Edits that were already folded into the log's base snapshot.
    pub base_edits: u64,
    /// Logged ops replayed on top of the base.
    pub ops_replayed: u64,
    /// Whether a torn tail (a partially written final record) was dropped.
    pub truncated_tail: bool,
}

impl Recovery {
    /// Total edits the recovered document accounts for.
    pub fn total_edits(&self) -> u64 {
        self.base_edits + self.ops_replayed
    }
}

/// A long-lived validation session over one compiled specification.
///
/// ```
/// use xic_engine::{CompiledSpec, Session};
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
/// let mut session = Session::new(&spec);
/// let doc = session
///     .open_source("<school><teacher name=\"Joe\"/><teacher name=\"Ann\"/></school>")
///     .unwrap();
/// assert!(session.verdict(doc).unwrap().is_clean());
///
/// // Renaming Ann to Joe breaks the key — only the touched constraint is
/// // re-checked, not the whole document.
/// let ann = session.tree(doc).unwrap().elements().nth(2).unwrap();
/// let verdict = session
///     .apply(
///         doc,
///         &[EditOp::SetAttr { element: ann, attr: spec.dtd().attr_by_name("name").unwrap(), value: "Joe".into() }],
///     )
///     .unwrap();
/// assert!(!verdict.is_clean());
/// ```
#[derive(Debug)]
pub struct Session<'s> {
    spec: &'s CompiledSpec,
    docs: HashMap<u64, SessionDoc>,
    next_handle: u64,
    instr: SessionInstruments,
    limits: Limits,
}

impl<'s> Session<'s> {
    /// A session over the given compiled specification, recording its
    /// per-edit metrics (`session.edits`, `session.apply_ns`,
    /// `session.check_ns`) on the process-global registry.
    pub fn new(spec: &'s CompiledSpec) -> Session<'s> {
        Session::with_registry(spec, Arc::clone(xic_telemetry::global()))
    }

    /// A session recording its metrics on an explicit registry (per-tenant
    /// isolation, or a private registry in tests).
    pub fn with_registry(spec: &'s CompiledSpec, registry: Arc<MetricsRegistry>) -> Session<'s> {
        Session {
            spec,
            docs: HashMap::new(),
            next_handle: 0,
            instr: SessionInstruments::on(registry),
            limits: Limits::UNLIMITED,
        }
    }

    /// A session that enforces [`Limits`]: oversized sources are refused at
    /// [`Session::open_source`] and edit batches that would blow a bound
    /// are rejected whole by [`Session::apply`] (as
    /// [`SessionError::Resource`], with the batch echoed back).
    pub fn with_limits(spec: &'s CompiledSpec, limits: Limits) -> Session<'s> {
        let mut session = Session::new(spec);
        session.limits = limits;
        session
    }

    /// The resource bounds this session enforces.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// The registry this session's instruments record into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.instr.registry
    }

    /// The specification the session validates against.
    pub fn spec(&self) -> &CompiledSpec {
        self.spec
    }

    /// Number of open documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Opens a document, taking ownership of the tree (mutation from here
    /// on goes through [`Session::apply`] only).  Populates the incremental
    /// indexes in one pass over the tree; the slot/watcher/touch-map layout
    /// is **not** derived here — it lives on the [`CompiledSpec`]
    /// ([`CompiledSpec::incremental_layout`], computed once per spec), so
    /// opening costs one `Arc` clone plus the document pass.
    pub fn open(&mut self, tree: XmlTree) -> DocHandle {
        let layout = std::sync::Arc::clone(self.spec.incremental_layout());
        let index = IncrementalIndex::with_layout(layout, &tree);
        let handle = DocHandle(self.next_handle);
        self.next_handle += 1;
        self.docs.insert(handle.0, SessionDoc::new(tree, index));
        handle
    }

    /// Parses XML source against the spec's DTD and opens the document.
    /// Under [`Limits`] the parse itself is budgeted: byte, node and depth
    /// bounds reject the source ([`SessionError::Resource`]) before a large
    /// document can occupy memory.
    pub fn open_source(&mut self, source: &str) -> Result<DocHandle, SessionError> {
        let budget = self.limits.parse_budget();
        let tree = self
            .spec
            .parse_document_budgeted(source, &budget)
            .map_err(|err| match err {
                ParseError::Xml(e) => SessionError::Parse(e),
                ParseError::Budget(b) => {
                    SessionError::Resource(ResourceError::from_budget(b, "open_source"))
                }
            })?;
        Ok(self.open(tree))
    }

    /// Read-only access to an open document's tree.
    pub fn tree(&self, handle: DocHandle) -> Result<&XmlTree, SessionError> {
        self.docs
            .get(&handle.0)
            .map(|d| &d.tree)
            .ok_or(SessionError::UnknownHandle(handle))
    }

    /// The document's complete edit history since it was opened.
    pub fn journal(&self, handle: DocHandle) -> Result<&EditJournal, SessionError> {
        self.docs
            .get(&handle.0)
            .map(|d| &d.journal)
            .ok_or(SessionError::UnknownHandle(handle))
    }

    /// Applies a batch of edits to one document and returns the fresh
    /// verdict.  Each op is validated, applied to the tree, folded into the
    /// incremental indexes and journaled before the next op runs; if an op
    /// is rejected, the earlier ops of the batch stay applied (the error
    /// reports how many) and the indexes remain exact.
    ///
    /// Two further rejection modes never touch the document at all: a
    /// [`Limits`] bound turns the whole batch away as
    /// [`SessionError::Resource`] (the batch comes back in the error's
    /// echo), and a quarantined document ([`SessionError::Poisoned`]) is
    /// refused until [`Session::recover`] runs.  A panic *inside* the edit
    /// loop is contained here: the document is quarantined instead of the
    /// process dying, and the journal keeps exactly the fully-recorded ops
    /// — so recovery replays a consistent history.
    pub fn apply(
        &mut self,
        handle: DocHandle,
        ops: &[EditOp],
    ) -> Result<SessionVerdict, SessionError> {
        let limits = self.limits;
        let doc = self
            .docs
            .get_mut(&handle.0)
            .ok_or(SessionError::UnknownHandle(handle))?;
        if let Some(cause) = &doc.poisoned {
            return Err(SessionError::Poisoned {
                handle,
                cause: cause.clone(),
            });
        }
        limits::admit_ops(&limits, &doc.tree, 0, ops, &handle.to_string())
            .map_err(SessionError::Resource)?;
        // Timed per batch, not per op: one clock pair amortized over the
        // whole edit slice keeps instrumentation inside the overhead budget.
        let timer = self.instr.registry.start_timer();
        let recorded_before = doc.journal.total_recorded();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if xic_telemetry::faults::hit("session.apply") {
                panic!("injected fault: session.apply");
            }
            apply_ops(&mut doc.tree, &mut doc.index, &mut doc.journal, ops)
        }));
        let outcome = match caught {
            Ok(outcome) => outcome,
            Err(payload) => {
                // Contained panic mid-edit: quarantine the document.  Only
                // fully-recorded ops count as applied — the journal is the
                // consistent history recovery replays.
                let cause = crate::batch::panic_cause(payload);
                crate::batch::resilience_instruments().0.inc();
                doc.poisoned = Some(cause.clone());
                let recorded = doc.journal.total_recorded() - recorded_before;
                doc.edits_applied += recorded;
                self.instr.edits.add(recorded);
                return Err(SessionError::Poisoned { handle, cause });
            }
        };
        let applied = match &outcome {
            Ok(()) => ops.len() as u64,
            Err(SessionError::Edit { index, .. }) => *index as u64,
            Err(_) => unreachable!("apply_ops only raises Edit errors"),
        };
        doc.edits_applied += applied;
        self.instr.edits.add(applied);
        if let Some(t) = timer {
            self.instr.apply_ns.record_elapsed(t);
        }
        outcome?;
        Ok(Self::verdict_of(&self.instr, doc))
    }

    /// Whether a document is quarantined after a contained panic (see
    /// [`SessionError::Poisoned`]).
    pub fn is_poisoned(&self, handle: DocHandle) -> Result<bool, SessionError> {
        self.docs
            .get(&handle.0)
            .map(|d| d.poisoned.is_some())
            .ok_or(SessionError::UnknownHandle(handle))
    }

    /// Rebuilds a quarantined document from its recovery base plus the
    /// journal — the fully-recorded, known-consistent history — clearing
    /// the poison flag and returning a fresh verdict.  Safe (and a cheap
    /// no-op semantically) on healthy documents too: the rebuilt state is
    /// identical to the live one.
    pub fn recover(&mut self, handle: DocHandle) -> Result<SessionVerdict, SessionError> {
        let layout = Arc::clone(self.spec.incremental_layout());
        let doc = self
            .docs
            .get_mut(&handle.0)
            .ok_or(SessionError::UnknownHandle(handle))?;
        let mut tree = XmlTree::from_snapshot(&doc.base)
            .expect("session base snapshots are self-made and reconstruct exactly");
        for (op, _) in doc.journal.entries() {
            tree.apply_edit(op)
                .expect("journaled ops replay deterministically onto their base");
        }
        doc.index = IncrementalIndex::with_layout(layout, &tree);
        doc.tree = tree;
        doc.poisoned = None;
        doc.edits_applied = doc.journal.total_recorded();
        Ok(Self::verdict_of(&self.instr, doc))
    }

    /// The current verdict of one document (recomputing only constraints
    /// left dirty by edits since the last verdict).
    pub fn verdict(&mut self, handle: DocHandle) -> Result<SessionVerdict, SessionError> {
        let doc = self
            .docs
            .get_mut(&handle.0)
            .ok_or(SessionError::UnknownHandle(handle))?;
        Ok(Self::verdict_of(&self.instr, doc))
    }

    fn verdict_of(instr: &SessionInstruments, doc: &mut SessionDoc) -> SessionVerdict {
        let timer = instr.registry.start_timer();
        let violations = doc.index.check_all(&doc.tree);
        if let Some(t) = timer {
            instr.check_ns.record_elapsed(t);
        }
        SessionVerdict {
            violations,
            rechecked: doc.index.rechecked(),
            edits_applied: doc.edits_applied,
        }
    }

    /// Persists one document to an append-only delta log at `path` (see
    /// [`crate::journal`] for the format).
    ///
    /// The first persist writes the log header plus a **base record** — a
    /// slot-for-slot snapshot of the current tree, folding every edit
    /// recorded so far.  Later persists to the same path append exactly the
    /// journal entries the log lacks (after verifying the shared history
    /// matches op-for-op), truncating a torn tail left by an earlier crash
    /// first.  After a successful persist every recorded edit is durable,
    /// so [`Session::compact`] may drop the in-memory prefix.
    pub fn persist_to(
        &mut self,
        handle: DocHandle,
        path: impl AsRef<Path>,
    ) -> Result<PersistReceipt, JournalError> {
        let doc = self
            .docs
            .get_mut(&handle.0)
            .ok_or(JournalError::UnknownHandle { handle: handle.0 })?;
        let receipt =
            journal::persist_session_doc(path.as_ref(), self.spec.id(), &doc.tree, &doc.journal)?;
        doc.durable_edits = doc.journal.total_recorded();
        Ok(receipt)
    }

    /// Recovers a document from a log written by [`Session::persist_to`]
    /// and opens it in this session.
    ///
    /// A partially written final record (a crash mid-append) is a **torn
    /// tail**: it is dropped and the last durable prefix is recovered —
    /// verdicts are then witness-identical to a live session that replayed
    /// the same prefix (`tests/journal_recovery.rs` proves this under
    /// truncation and corruption at every byte boundary).  Anything
    /// structurally unsound — wrong spec, damaged non-final records,
    /// undecodable payloads, snapshots or ops violating tree/DTD
    /// invariants — is rejected with a structured [`JournalError`]; wrong
    /// verdicts are never produced.
    pub fn recover_from(&mut self, path: impl AsRef<Path>) -> Result<Recovery, JournalError> {
        let log = journal::read_session_log(path, self.spec.id())?;
        journal::validate_log_against_dtd(&log, self.spec.dtd())?;
        let tree = XmlTree::from_snapshot(&log.base)?;
        let layout = std::sync::Arc::clone(self.spec.incremental_layout());
        let index = IncrementalIndex::with_layout(layout, &tree);
        let mut doc = SessionDoc::new(tree, index);
        doc.journal = EditJournal::with_folded(log.base_edits);
        doc.edits_applied = log.base_edits;
        for (i, op) in log.ops.iter().enumerate() {
            let effect = doc
                .tree
                .apply_edit(op)
                .map_err(|error| JournalError::Replay {
                    op_index: log.base_edits + i as u64,
                    error,
                })?;
            doc.index.apply(&doc.tree, &effect);
            doc.journal.record(op.clone(), effect);
            doc.edits_applied += 1;
        }
        doc.durable_edits = log.total_edits();
        let handle = DocHandle(self.next_handle);
        self.next_handle += 1;
        self.docs.insert(handle.0, doc);
        Ok(Recovery {
            handle,
            base_edits: log.base_edits,
            ops_replayed: log.ops.len() as u64,
            truncated_tail: log.truncated,
        })
    }

    /// Drops the journal entries already durable in a log (the prefix a
    /// [`Session::persist_to`] covered), bounding the in-memory journal of
    /// a long-lived session.  Returns how many entries were dropped.
    /// Recovery still round-trips node-for-node afterwards: the log, not
    /// the in-memory journal, is the full history.
    /// Before dropping entries, the in-memory recovery base is advanced to
    /// the same watermark (the dropped prefix is folded into it) so
    /// [`Session::recover`] keeps working after compaction.
    pub fn compact(&mut self, handle: DocHandle) -> Result<usize, SessionError> {
        let doc = self
            .docs
            .get_mut(&handle.0)
            .ok_or(SessionError::UnknownHandle(handle))?;
        let folded = doc.journal.folded();
        if doc.durable_edits > folded {
            let to_fold = (doc.durable_edits - folded) as usize;
            let mut base = XmlTree::from_snapshot(&doc.base)
                .expect("session base snapshots are self-made and reconstruct exactly");
            for (op, _) in doc.journal.entries().iter().take(to_fold) {
                base.apply_edit(op)
                    .expect("journaled ops replay deterministically onto their base");
            }
            doc.base = base.snapshot();
        }
        Ok(doc.journal.compact(doc.durable_edits))
    }

    /// Edits of this document known durable in a log (the compaction
    /// watermark).
    pub fn durable_edits(&self, handle: DocHandle) -> Result<u64, SessionError> {
        self.docs
            .get(&handle.0)
            .map(|d| d.durable_edits)
            .ok_or(SessionError::UnknownHandle(handle))
    }

    /// Closes a document, handing its (edited) tree back to the caller.
    pub fn close(&mut self, handle: DocHandle) -> Result<XmlTree, SessionError> {
        self.docs
            .remove(&handle.0)
            .map(|d| d.tree)
            .ok_or(SessionError::UnknownHandle(handle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_constraints::SatisfactionChecker;

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
    fn edits_flow_through_and_verdicts_match_rebuild() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let mut session = Session::new(&spec);
        let doc = session
            .open_source("<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        assert!(session.verdict(doc).unwrap().is_clean());

        let root = session.tree(doc).unwrap().root();
        let verdict = session
            .apply(
                doc,
                &[EditOp::AddElement {
                    parent: root,
                    ty: teacher,
                }],
            )
            .unwrap();
        // The new teacher has no name yet: keys skip attribute-less
        // elements, so the document is still clean.
        assert!(verdict.is_clean());
        let added = session.tree(doc).unwrap().ext(teacher).nth(1).unwrap();
        let verdict = session
            .apply(
                doc,
                &[EditOp::SetAttr {
                    element: added,
                    attr: name,
                    value: "Joe".into(),
                }],
            )
            .unwrap();
        assert!(!verdict.is_clean());
        assert_eq!(verdict.edits_applied(), 2);

        // Witness identity with a from-scratch reference check.
        let tree = session.tree(doc).unwrap();
        let rebuilt = SatisfactionChecker::new(spec.dtd(), tree).check_all(spec.sigma());
        assert_eq!(verdict.violations(), rebuilt.as_slice());

        // Closing hands the edited tree back; the handle dies.
        let tree = session.close(doc).unwrap();
        assert_eq!(tree.ext_count(teacher), 2);
        assert_eq!(session.verdict(doc), Err(SessionError::UnknownHandle(doc)));
    }

    #[test]
    fn rejected_ops_report_the_applied_prefix() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let mut session = Session::new(&spec);
        let doc = session
            .open_source("<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        let root = session.tree(doc).unwrap().root();
        let err = session
            .apply(
                doc,
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
                error: xic_xml::EditError::RemoveRoot
            }
        );
        // The applied prefix is visible and the indexes stayed exact.
        assert_eq!(session.tree(doc).unwrap().ext_count(teacher), 2);
        assert!(session.verdict(doc).unwrap().is_clean());
    }

    #[test]
    fn persist_recover_compact_round_trip() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("xic-session-persist-{}.xicj", std::process::id()));
        std::fs::remove_file(&path).ok();

        let mut session = Session::new(&spec);
        let doc = session
            .open_source("<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        // First persist folds the (edit-free) document into the base.
        let receipt = session.persist_to(doc, &path).unwrap();
        assert_eq!(receipt.total_records, 1);

        // Edit, persist (appends two op records), compact, edit, persist.
        let root = session.tree(doc).unwrap().root();
        session
            .apply(
                doc,
                &[
                    EditOp::AddElement {
                        parent: root,
                        ty: teacher,
                    },
                    EditOp::AddElement {
                        parent: root,
                        ty: teacher,
                    },
                ],
            )
            .unwrap();
        let receipt = session.persist_to(doc, &path).unwrap();
        assert_eq!(receipt.records_written, 2);
        assert_eq!(session.durable_edits(doc).unwrap(), 2);
        assert_eq!(session.compact(doc).unwrap(), 2);
        assert!(session.journal(doc).unwrap().is_empty());
        let second = session.tree(doc).unwrap().ext(teacher).nth(1).unwrap();
        session
            .apply(
                doc,
                &[EditOp::SetAttr {
                    element: second,
                    attr: name,
                    value: "Joe".into(),
                }],
            )
            .unwrap();
        let receipt = session.persist_to(doc, &path).unwrap();
        assert_eq!(receipt.records_written, 1);
        assert_eq!(receipt.total_records, 4);
        let live = session.verdict(doc).unwrap();
        assert!(!live.is_clean());

        // Recovery replays the log onto the base snapshot: same verdict,
        // same witnesses, node-for-node the same arena.
        let mut recovered = Session::new(&spec);
        let recovery = recovered.recover_from(&path).unwrap();
        assert_eq!(recovery.base_edits, 0);
        assert_eq!(recovery.ops_replayed, 3);
        assert!(!recovery.truncated_tail);
        let verdict = recovered.verdict(recovery.handle).unwrap();
        assert_eq!(verdict.violations(), live.violations());
        assert_eq!(verdict.edits_applied(), 3);
        assert_eq!(
            recovered.tree(recovery.handle).unwrap().snapshot(),
            session.tree(doc).unwrap().snapshot()
        );

        // The recovered session keeps appending to the same log.
        let third = recovered
            .tree(recovery.handle)
            .unwrap()
            .ext(teacher)
            .nth(2)
            .unwrap();
        recovered
            .apply(
                recovery.handle,
                &[EditOp::SetAttr {
                    element: third,
                    attr: name,
                    value: "Ann".into(),
                }],
            )
            .unwrap();
        let receipt = recovered.persist_to(recovery.handle, &path).unwrap();
        assert_eq!(receipt.records_written, 1);
        assert_eq!(receipt.total_records, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persisting_a_foreign_log_is_rejected() {
        let spec = spec();
        let mut path = std::env::temp_dir();
        path.push(format!("xic-session-foreign-{}.xicj", std::process::id()));
        std::fs::remove_file(&path).ok();

        let mut session = Session::new(&spec);
        let a = session
            .open_source("<school><teacher name=\"A\"/></school>")
            .unwrap();
        let b = session
            .open_source("<school><teacher name=\"B\"/></school>")
            .unwrap();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let name = spec.dtd().attr_by_name("name").unwrap();
        session.persist_to(a, &path).unwrap();
        // Both documents get one identical op, then their histories fork.
        for doc in [a, b] {
            let root = session.tree(doc).unwrap().root();
            session
                .apply(
                    doc,
                    &[EditOp::AddElement {
                        parent: root,
                        ty: teacher,
                    }],
                )
                .unwrap();
        }
        let a_first = session.tree(a).unwrap().ext(teacher).next().unwrap();
        session
            .apply(
                a,
                &[EditOp::SetAttr {
                    element: a_first,
                    attr: name,
                    value: "Renamed".into(),
                }],
            )
            .unwrap();
        let b_first = session.tree(b).unwrap().ext(teacher).next().unwrap();
        session
            .apply(b, &[EditOp::RemoveSubtree { element: b_first }])
            .unwrap();
        session.persist_to(a, &path).unwrap();
        // a's log now holds two ops; b's second op differs in the overlap,
        // so appending b's history to a's log is refused.
        let err = session.persist_to(b, &path).unwrap_err();
        assert!(
            matches!(err, crate::journal::JournalError::Diverged { .. }),
            "{err:?}"
        );
        // A log that is *ahead* of the session is refused too.
        let mut rewound = Session::new(&spec);
        let fresh = rewound
            .open_source("<school><teacher name=\"A\"/></school>")
            .unwrap();
        let err = rewound.persist_to(fresh, &path).unwrap_err();
        assert!(
            matches!(err, crate::journal::JournalError::Diverged { .. }),
            "{err:?}"
        );
        // Unknown handles surface structurally.
        let mut other = Session::new(&spec);
        assert_eq!(
            other.persist_to(DocHandle::from_raw(9), &path).unwrap_err(),
            crate::journal::JournalError::UnknownHandle { handle: 9 }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn limits_reject_batches_whole_with_an_echo() {
        use crate::limits::LimitKind;
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let mut session = Session::with_limits(
            &spec,
            Limits {
                max_doc_nodes: Some(3),
                ..Limits::UNLIMITED
            },
        );
        // school + teacher + its name attribute = 3 arena nodes: at the cap.
        let doc = session
            .open_source("<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        let root = session.tree(doc).unwrap().root();
        let ops = vec![
            EditOp::AddElement {
                parent: root,
                ty: teacher,
            };
            2
        ];
        let err = session.apply(doc, &ops).unwrap_err();
        let SessionError::Resource(resource) = err else {
            panic!("expected a resource rejection, got {err:?}");
        };
        assert_eq!(resource.limit, LimitKind::DocNodes);
        // All-or-nothing: the whole batch is echoed back and nothing was
        // applied — unlike Edit errors, which keep the applied prefix.
        assert_eq!(resource.rejected.len(), 2);
        assert_eq!(resource.rejected[0].op, ops[0]);
        assert_eq!(session.tree(doc).unwrap().ext_count(teacher), 1);
        assert_eq!(session.verdict(doc).unwrap().edits_applied(), 0);
    }

    #[test]
    fn open_source_enforces_the_parse_budget() {
        let spec = spec();
        let mut session = Session::with_limits(
            &spec,
            Limits {
                max_doc_bytes: Some(8),
                ..Limits::UNLIMITED
            },
        );
        let err = session
            .open_source("<school><teacher name=\"Joe\"/></school>")
            .unwrap_err();
        assert!(
            matches!(err, SessionError::Resource(_)),
            "oversized source must reject as a resource error, got {err:?}"
        );
        assert_eq!(session.num_docs(), 0);
    }

    #[test]
    fn recover_rebuilds_the_live_state_even_after_compaction() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("xic-session-recover-{}.xicj", std::process::id()));
        std::fs::remove_file(&path).ok();

        let mut session = Session::new(&spec);
        let doc = session
            .open_source("<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        let root = session.tree(doc).unwrap().root();
        session
            .apply(
                doc,
                &[
                    EditOp::AddElement {
                        parent: root,
                        ty: teacher,
                    },
                    EditOp::AddElement {
                        parent: root,
                        ty: teacher,
                    },
                ],
            )
            .unwrap();
        // Compact away the durable prefix, then keep editing: recover()
        // must fold base + remaining journal back to the live tree.
        session.persist_to(doc, &path).unwrap();
        assert_eq!(session.compact(doc).unwrap(), 2);
        let second = session.tree(doc).unwrap().ext(teacher).nth(1).unwrap();
        session
            .apply(
                doc,
                &[EditOp::SetAttr {
                    element: second,
                    attr: name,
                    value: "Joe".into(),
                }],
            )
            .unwrap();
        let live_snapshot = session.tree(doc).unwrap().snapshot();
        let live = session.verdict(doc).unwrap();
        assert!(!session.is_poisoned(doc).unwrap());
        let verdict = session.recover(doc).unwrap();
        assert_eq!(verdict.violations(), live.violations());
        assert_eq!(verdict.edits_applied(), 3);
        assert_eq!(session.tree(doc).unwrap().snapshot(), live_snapshot);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn one_shot_check_agrees_with_the_reference_checker() {
        let spec = spec();
        let tree = spec
            .parse_document("<school><teacher name=\"A\"/><teacher name=\"A\"/></school>")
            .unwrap();
        let reference = SatisfactionChecker::new(spec.dtd(), &tree).check_all(spec.sigma());
        assert!(!reference.is_empty());
        assert_eq!(spec.check_document(&tree), reference);
    }
}
