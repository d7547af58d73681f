//! Resource governance: budgets, backpressure and structured rejection.
//!
//! A [`Limits`] value is the contract between the engine and a caller that
//! cannot afford unbounded work: every admission point — parsing
//! ([`crate::CompiledSpec::parse_document_budgeted`]), edits
//! ([`crate::CorpusSession::apply`]), document admission (open and
//! recovery) and commit ([`crate::CorpusSession`]) — checks its bounds **before** doing the work
//! and answers an over-budget request with a structured [`ResourceError`],
//! never a panic and never a partial application.  The error carries the
//! violated limit by name, both sides of the comparison, and a
//! [`RejectedOp`] echo of the operations that were turned away, so a caller
//! can shed load, split the batch, or retry after a commit.
//!
//! The default ([`Limits::UNLIMITED`]) checks nothing and costs a handful
//! of `Option` tests per admission — see the `resilience_overhead` bench,
//! which holds that tax (with every failpoint disabled) to ≤ 3% of corpus
//! commit latency.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use xic_telemetry::Counter;
use xic_xml::budget::{BudgetExceeded, ParseBudget, ParseLimit};
use xic_xml::{EditOp, NodeId, XmlTree};

/// Upper bounds on what the engine will accept.  `None` means unlimited.
///
/// The document-facing fields (`max_doc_bytes`, `max_doc_nodes`,
/// `max_depth`) are enforced by the parser (via [`Limits::parse_budget`])
/// and again on edits that grow a document; the queue-facing fields bound
/// a [`crate::CorpusSession`]'s admission; `deadline` soft-bounds a commit
/// or batch — work already done is kept, work not yet started is rejected
/// (commits resume where they stopped on the next call).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Limits {
    /// Maximum document source length in bytes, checked before parsing.
    pub max_doc_bytes: Option<usize>,
    /// Maximum nodes (elements, attributes, text) per document, checked at
    /// parse and on node-creating edits.
    pub max_doc_nodes: Option<usize>,
    /// Maximum element nesting depth (root = 1), checked at parse and on
    /// child-creating edits.
    pub max_depth: Option<usize>,
    /// Maximum uncommitted edit ops queued in a [`crate::CorpusSession`]
    /// (across all dirty documents); also bounds a single
    /// [`crate::CorpusSession::apply`] batch.
    pub max_queued_ops: Option<usize>,
    /// Maximum dirty (edited-but-uncommitted) documents in a
    /// [`crate::CorpusSession`]; opening or editing past it is rejected
    /// until a commit drains the set.
    pub max_dirty_docs: Option<usize>,
    /// Soft deadline for one commit or batch run.  Work is never cut off
    /// mid-document; the first document that would *start* past the
    /// deadline is where processing stops.
    pub deadline: Option<Duration>,
}

impl Limits {
    /// The no-op contract: every field unlimited.
    pub const UNLIMITED: Limits = Limits {
        max_doc_bytes: None,
        max_doc_nodes: None,
        max_depth: None,
        max_queued_ops: None,
        max_dirty_docs: None,
        deadline: None,
    };

    /// Whether every field is unlimited (the default).
    pub fn is_unlimited(&self) -> bool {
        *self == Limits::UNLIMITED
    }

    /// The parser-facing slice of these limits.
    pub fn parse_budget(&self) -> ParseBudget {
        ParseBudget {
            max_bytes: self.max_doc_bytes,
            max_nodes: self.max_doc_nodes,
            max_depth: self.max_depth,
        }
    }
}

/// Which [`Limits`] field a rejected request violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitKind {
    /// [`Limits::max_doc_bytes`].
    DocBytes,
    /// [`Limits::max_doc_nodes`].
    DocNodes,
    /// [`Limits::max_depth`].
    NestingDepth,
    /// [`Limits::max_queued_ops`].
    QueuedOps,
    /// [`Limits::max_dirty_docs`].
    DirtyDocs,
    /// [`Limits::deadline`].
    Deadline,
}

impl LimitKind {
    /// Stable machine-readable name, shared with the CLI flags and the
    /// README limits table.
    pub fn name(self) -> &'static str {
        match self {
            LimitKind::DocBytes => "max_doc_bytes",
            LimitKind::DocNodes => "max_doc_nodes",
            LimitKind::NestingDepth => "max_depth",
            LimitKind::QueuedOps => "max_queued_ops",
            LimitKind::DirtyDocs => "max_dirty_docs",
            LimitKind::Deadline => "deadline_ms",
        }
    }
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<ParseLimit> for LimitKind {
    fn from(limit: ParseLimit) -> LimitKind {
        match limit {
            ParseLimit::Bytes => LimitKind::DocBytes,
            ParseLimit::Nodes => LimitKind::DocNodes,
            ParseLimit::Depth => LimitKind::NestingDepth,
        }
    }
}

/// One edit operation turned away by an over-budget admission, echoed back
/// so the caller can retry it after shedding load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedOp {
    /// Position of the op in the submitted batch.
    pub index: usize,
    /// The op itself, unapplied.
    pub op: EditOp,
}

/// A request was rejected because it would exceed a [`Limits`] bound.
///
/// Rejection is all-or-nothing: when an edit batch trips a limit, **no op
/// of the batch has been applied** (unlike [`xic_xml::EditError`], which
/// reports a failure after applying the preceding prefix) — the batch comes
/// back whole in `rejected` and the document is untouched, so "reject and
/// retry later" is always safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceError {
    /// The violated limit.
    pub limit: LimitKind,
    /// The configured bound (milliseconds for [`LimitKind::Deadline`]).
    pub limit_value: u64,
    /// The observed value that tripped the bound.
    pub observed: u64,
    /// Human-readable site of the rejection (document label, "commit", …).
    pub context: String,
    /// The ops that were turned away, unapplied (empty for non-edit
    /// rejections such as parse budgets and deadlines).
    pub rejected: Vec<RejectedOp>,
}

impl ResourceError {
    /// Builds a rejection and records it in the global
    /// `resilience.rejections` counters (aggregate + per-limit).
    pub(crate) fn new(
        limit: LimitKind,
        limit_value: u64,
        observed: u64,
        context: impl Into<String>,
    ) -> ResourceError {
        note_rejection(limit);
        ResourceError {
            limit,
            limit_value,
            observed,
            context: context.into(),
            rejected: Vec::new(),
        }
    }

    /// Attaches the echoed, unapplied ops.
    pub(crate) fn with_rejected(mut self, rejected: Vec<RejectedOp>) -> ResourceError {
        self.rejected = rejected;
        self
    }

    /// Converts a parser budget rejection, keeping the limit name.
    pub(crate) fn from_budget(b: BudgetExceeded, context: impl Into<String>) -> ResourceError {
        ResourceError::new(
            b.limit.into(),
            b.limit_value as u64,
            b.observed as u64,
            context,
        )
    }
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resource limit exceeded: {} = {}, observed {} ({})",
            self.limit.name(),
            self.limit_value,
            self.observed,
            self.context
        )?;
        if !self.rejected.is_empty() {
            write!(f, "; {} op(s) rejected unapplied", self.rejected.len())?;
        }
        Ok(())
    }
}

impl std::error::Error for ResourceError {}

/// Process-wide aggregate rejection counter, resolved once.
fn rejections_counter() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| xic_telemetry::global().counter("resilience.rejections"))
}

/// Records a rejection: aggregate + per-limit counters.  Rejections are the
/// cold path, so the per-limit name lookup takes the registry lock.
fn note_rejection(limit: LimitKind) {
    rejections_counter().inc();
    xic_telemetry::global()
        .counter(&format!("resilience.rejections.{}", limit.name()))
        .inc();
}

/// Element nesting depth of `node` (root = 1), by walking the parent chain.
pub(crate) fn depth_of(tree: &XmlTree, node: NodeId) -> usize {
    let mut depth = 1;
    let mut cursor = node;
    while let Some(parent) = tree.parent(cursor) {
        depth += 1;
        cursor = parent;
    }
    depth
}

/// Echoes a whole batch back as [`RejectedOp`]s.
pub(crate) fn echo_ops(ops: &[EditOp]) -> Vec<RejectedOp> {
    ops.iter()
        .enumerate()
        .map(|(index, op)| RejectedOp {
            index,
            op: op.clone(),
        })
        .collect()
}

/// Pre-admission check for one edit batch against one document: queued-op,
/// node and depth limits, evaluated **before** any op is applied so a
/// rejection leaves the document untouched.
///
/// Node accounting is evaluated against the current tree: `AddElement` and
/// `AddText` count one node each, `SetAttr` counts one when it would create
/// the attribute (updates are free), `RemoveSubtree` counts zero (removal
/// only shrinks).  Depth is checked per child-creating op against its
/// target parent's current depth.
pub(crate) fn admit_ops(
    limits: &Limits,
    tree: &XmlTree,
    queued: usize,
    ops: &[EditOp],
    context: &str,
) -> Result<(), ResourceError> {
    if limits.is_unlimited() {
        return Ok(());
    }
    if let Some(max) = limits.max_queued_ops {
        let total = queued + ops.len();
        if total > max {
            return Err(ResourceError::new(
                LimitKind::QueuedOps,
                max as u64,
                total as u64,
                context,
            )
            .with_rejected(echo_ops(ops)));
        }
    }
    if let Some(max) = limits.max_doc_nodes {
        let mut projected = tree.num_nodes();
        for op in ops {
            projected += match op {
                EditOp::AddElement { .. } | EditOp::AddText { .. } => 1,
                EditOp::SetAttr { element, attr, .. } => usize::from(
                    tree.contains(*element) && tree.attr_value(*element, *attr).is_none(),
                ),
                EditOp::RemoveSubtree { .. } => 0,
            };
        }
        if projected > max {
            return Err(ResourceError::new(
                LimitKind::DocNodes,
                max as u64,
                projected as u64,
                context,
            )
            .with_rejected(echo_ops(ops)));
        }
    }
    if let Some(max) = limits.max_depth {
        for op in ops {
            let parent = match op {
                EditOp::AddElement { parent, .. } | EditOp::AddText { parent, .. } => *parent,
                _ => continue,
            };
            // Unknown parents are left for apply_edit's EditError to report.
            if !tree.contains(parent) || tree.is_detached(parent) {
                continue;
            }
            let child_depth = depth_of(tree, parent) + 1;
            if child_depth > max {
                return Err(ResourceError::new(
                    LimitKind::NestingDepth,
                    max as u64,
                    child_depth as u64,
                    context,
                )
                .with_rejected(echo_ops(ops)));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_default_and_checks_nothing() {
        assert_eq!(Limits::default(), Limits::UNLIMITED);
        assert!(Limits::default().is_unlimited());
        let budget = Limits::UNLIMITED.parse_budget();
        assert_eq!(budget, ParseBudget::UNLIMITED);
    }

    #[test]
    fn limit_kinds_have_stable_names() {
        assert_eq!(LimitKind::DocNodes.name(), "max_doc_nodes");
        assert_eq!(LimitKind::from(ParseLimit::Depth).name(), "max_depth");
        assert_eq!(LimitKind::Deadline.name(), "deadline_ms");
    }

    #[test]
    fn display_names_the_violated_limit() {
        let err = ResourceError::new(LimitKind::QueuedOps, 8, 12, "doc-3");
        let text = err.to_string();
        assert!(text.contains("max_queued_ops"), "{text}");
        assert!(text.contains("12"), "{text}");
        assert!(text.contains("doc-3"), "{text}");
    }
}
