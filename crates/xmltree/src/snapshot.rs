//! Arena snapshots of [`XmlTree`](crate::XmlTree) — the serialization hook
//! of the durable corpus log.
//!
//! A delta log persists a session document as *base snapshot + edit ops*
//! (see `xic-engine::journal`).  The base cannot be stored as XML source:
//! re-parsing renumbers the arena (tombstones are not serialized, and a
//! hand-built tree interleaves attribute nodes differently from a parsed
//! one), and the logged [`crate::EditOp`]s address nodes by [`NodeId`] —
//! replaying them onto a renumbered arena would edit the wrong nodes and
//! report wrong verdicts.  A [`TreeSnapshot`] therefore captures the arena
//! *slot-for-slot*: every node's label, parent, value, detached flag and
//! ordered child/attribute lists, so
//! [`XmlTree::from_snapshot`](crate::XmlTree::from_snapshot) rebuilds a
//! tree on which journal replay is id-exact.
//!
//! `XmlTree::from_snapshot` validates the snapshot before trusting it
//! (persistence formats are hostile inputs): out-of-range references,
//! label/value mismatches, orphaned or multiply-referenced live nodes and
//! unreachable live subtrees are all rejected with a structured
//! [`SnapshotError`], never a panic or a silently wrong tree.

use std::fmt;

use crate::tree::{NodeId, NodeLabel};
use xic_dtd::AttrId;

/// One arena slot of a [`crate::XmlTree`], values resolved to strings (pool
/// symbols are tree-local and are re-interned on reconstruction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// The node's label (element type, attribute, or text).
    pub label: NodeLabel,
    /// The parent slot (`None` exactly for the root).
    pub parent: Option<NodeId>,
    /// The string value (`Some` exactly for attribute and text nodes).
    pub value: Option<String>,
    /// Whether the node is a tombstone (removed from the document but kept
    /// in the arena so ids stay stable and old values stay readable).
    pub detached: bool,
    /// Ordered subelement/text children (the `ele` function).
    pub children: Vec<NodeId>,
    /// Attribute children, identified by attribute id (the `att` function).
    pub attrs: Vec<(AttrId, NodeId)>,
}

/// A slot-for-slot dump of an [`crate::XmlTree`] arena.
///
/// [`crate::XmlTree::snapshot`] produces one; [`crate::XmlTree::from_snapshot`]
/// rebuilds a tree whose arena — node ids, orders, tombstones — is
/// indistinguishable from the original, which is what makes journaled edit
/// ops replayable onto it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeSnapshot {
    /// Every arena slot, in id order (index `i` is `NodeId(i)`).
    pub nodes: Vec<NodeSnapshot>,
    /// The root slot.
    pub root: NodeId,
}

impl TreeSnapshot {
    /// Number of arena slots (live and tombstoned).
    pub fn num_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live (not detached) nodes.
    pub fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| !n.detached).count()
    }
}

/// Why a [`TreeSnapshot`] was rejected by [`crate::XmlTree::from_snapshot`].
///
/// Snapshots come from persistence formats, so every structural invariant
/// the arena normally maintains by construction is re-checked here; the
/// error names the offending slot where one exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// The offending arena slot, when the failure is local to one node.
    pub node: Option<NodeId>,
    /// What was wrong.
    pub detail: String,
}

impl SnapshotError {
    pub(crate) fn at(node: NodeId, detail: impl Into<String>) -> SnapshotError {
        SnapshotError {
            node: Some(node),
            detail: detail.into(),
        }
    }

    pub(crate) fn global(detail: impl Into<String>) -> SnapshotError {
        SnapshotError {
            node: None,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(
                f,
                "invalid tree snapshot at node #{}: {}",
                n.index(),
                self.detail
            ),
            None => write!(f, "invalid tree snapshot: {}", self.detail),
        }
    }
}

impl std::error::Error for SnapshotError {}
