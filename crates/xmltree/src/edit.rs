//! Typed point edits over [`XmlTree`] — the write surface of the engine's
//! corpus sessions.
//!
//! A long-lived validation session cannot let callers mutate a tree through
//! raw `&mut XmlTree` methods: every index built over the document would be
//! silently invalidated.  Instead, mutations are expressed as [`EditOp`]
//! values and applied through [`XmlTree::apply_edit`], which validates the
//! operation and returns an [`EditEffect`] — a *delta record* carrying
//! exactly the before/after facts an incremental index needs (the displaced
//! attribute value, the removed element list, …).  Sessions keep the ops
//! of every applied edit in an [`EditJournal`].
//!
//! Edits are point edits in the sense of the paper's checking problem: they
//! change `att`/`ele`/`val` at one node (or remove one subtree), never the
//! interpretation of the constraints, so re-checking `T ⊨ Σ` after an edit
//! only has to look at the slots the edit touched.

use std::fmt;

use xic_dtd::{AttrId, ElemId};

use crate::pool::ValueId;
use crate::tree::{NodeId, XmlTree};

/// One point edit of an XML tree.
///
/// Values are carried as strings (the surface type of `val`); interning
/// happens on application, against the tree's own pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    /// Set (or add) attribute `attr` of element `element` to `value`.
    SetAttr {
        /// The element whose attribute changes.
        element: NodeId,
        /// The attribute.
        attr: AttrId,
        /// The new string value.
        value: String,
    },
    /// Append a new element of type `ty` under `parent`.
    AddElement {
        /// The parent element.
        parent: NodeId,
        /// The element type of the new child.
        ty: ElemId,
    },
    /// Append a new text child under `parent`.
    AddText {
        /// The parent element.
        parent: NodeId,
        /// The text value.
        value: String,
    },
    /// Remove the whole subtree rooted at `element` (which must not be the
    /// document root).
    RemoveSubtree {
        /// The root of the subtree to remove.
        element: NodeId,
    },
}

/// The recorded consequence of one applied [`EditOp`]: everything an
/// incremental index needs to update itself without re-reading the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditEffect {
    /// An attribute value was set; `old` is the displaced interned value
    /// (`None` when the attribute is new on this element).
    AttrSet {
        /// The element whose attribute changed.
        element: NodeId,
        /// The element's type.
        ty: ElemId,
        /// The attribute.
        attr: AttrId,
        /// The previous interned value, if the attribute existed.
        old: Option<ValueId>,
        /// The new interned value.
        new: ValueId,
    },
    /// A fresh element was appended (it starts with no attributes).
    ElementAdded {
        /// The new element.
        element: NodeId,
        /// Its element type.
        ty: ElemId,
        /// Its parent.
        parent: NodeId,
    },
    /// A text node was appended (invisible to attribute-based constraints).
    TextAdded {
        /// The new text node.
        node: NodeId,
        /// Its parent element.
        parent: NodeId,
    },
    /// A subtree was removed; `elements` lists every removed element with
    /// its type, in ascending id order.  The tombstoned nodes keep their
    /// attribute values readable for retraction.
    SubtreeRemoved {
        /// The root of the removed subtree.
        root: NodeId,
        /// Every removed element node, with its type.
        elements: Vec<(NodeId, ElemId)>,
        /// The element the root was removed from: its child word changed.
        parent: NodeId,
        /// The root's former position among `parent`'s children — where
        /// the child word changed.  Later children moved down by one.
        position: usize,
    },
}

/// Why an [`EditOp`] was rejected (the tree is unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditError {
    /// The named node does not exist in the tree.
    UnknownNode(NodeId),
    /// The named node exists but is not an element.
    NotAnElement(NodeId),
    /// The named node was already removed by an earlier edit.
    Detached(NodeId),
    /// The document root cannot be removed.
    RemoveRoot,
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownNode(n) => write!(f, "node #{} does not exist", n.index()),
            EditError::NotAnElement(n) => write!(f, "node #{} is not an element", n.index()),
            EditError::Detached(n) => write!(f, "node #{} was already removed", n.index()),
            EditError::RemoveRoot => write!(f, "the document root cannot be removed"),
        }
    }
}

impl std::error::Error for EditError {}

/// The ordered log of edits applied to one document.
///
/// The journal holds the document's edit history since it was opened,
/// minus any prefix explicitly [`EditJournal::compact`]ed away *after it
/// became durable elsewhere* (logged as `apply` records, or folded into a
/// logged snapshot).  It stores the submitted [`EditOp`]s only — the
/// [`EditEffect`] of each application goes to the incremental index that
/// consumes it and is not kept.  Ops make the journal replayable: applying
/// [`EditJournal::ops`] in order to a copy of the original tree reproduces
/// the edited tree node-for-node (the arena allocates ids
/// deterministically), which is what crash recovery from a persisted log
/// and shipping a log to another replica (cf. distributed XML design) both
/// rest on.
#[derive(Debug, Clone, Default)]
pub struct EditJournal {
    ops: Vec<EditOp>,
    /// Edits recorded before `ops[0]` that were compacted away: they are
    /// durable in a log or folded into a logged snapshot, so the global
    /// index of `ops[i]` is `folded + i`.
    folded: u64,
}

impl EditJournal {
    /// An empty journal.
    pub fn new() -> EditJournal {
        EditJournal::default()
    }

    /// Appends one applied edit.
    pub fn record(&mut self, op: EditOp) {
        self.ops.push(op);
    }

    /// Drops every retained op whose global index is below `durable_total`
    /// — i.e. the edits already logged or folded into a logged snapshot —
    /// and returns how many were dropped.  A persisting session calls this
    /// so the in-memory journal holds only the not-yet-durable suffix
    /// instead of growing without bound; recovery still round-trips
    /// node-for-node because the log retains the full history.
    pub fn compact(&mut self, durable_total: u64) -> usize {
        let droppable = durable_total.saturating_sub(self.folded);
        let drop = (droppable.min(self.ops.len() as u64)) as usize;
        self.ops.drain(..drop);
        self.folded += drop as u64;
        drop
    }

    /// Edits dropped by [`EditJournal::compact`] (they precede
    /// [`EditJournal::ops`] in the global numbering).
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// Total edits ever recorded: the compacted prefix plus the retained
    /// ops.
    pub fn total_recorded(&self) -> u64 {
        self.folded + self.ops.len() as u64
    }

    /// Number of retained (not compacted) edits.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the journal retains no edits.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The retained ops, oldest first (op `i` has global index
    /// [`EditJournal::folded`]` + i`) — the replayable log.
    pub fn ops(&self) -> &[EditOp] {
        &self.ops
    }
}

impl XmlTree {
    /// Requires `node` to be a live element, classifying the failure.
    fn expect_live_element(&self, node: NodeId) -> Result<ElemId, EditError> {
        if !self.contains(node) {
            return Err(EditError::UnknownNode(node));
        }
        if self.is_detached(node) {
            return Err(EditError::Detached(node));
        }
        self.element_type(node).ok_or(EditError::NotAnElement(node))
    }

    /// Validates and applies one [`EditOp`], returning the [`EditEffect`]
    /// describing what changed.  On error the tree is untouched.
    ///
    /// This is the only mutation entry point the engine's sessions use: the
    /// effect captures the displaced state (old attribute value, removed
    /// element list), so index maintenance never has to diff the tree.
    pub fn apply_edit(&mut self, op: &EditOp) -> Result<EditEffect, EditError> {
        match op {
            EditOp::SetAttr {
                element,
                attr,
                value,
            } => {
                let ty = self.expect_live_element(*element)?;
                let old = self.attr_value_id(*element, *attr);
                self.set_attr(*element, *attr, value);
                let new = self
                    .attr_value_id(*element, *attr)
                    .expect("attribute was just set");
                Ok(EditEffect::AttrSet {
                    element: *element,
                    ty,
                    attr: *attr,
                    old,
                    new,
                })
            }
            EditOp::AddElement { parent, ty } => {
                self.expect_live_element(*parent)?;
                let element = self.add_element(*parent, *ty);
                Ok(EditEffect::ElementAdded {
                    element,
                    ty: *ty,
                    parent: *parent,
                })
            }
            EditOp::AddText { parent, value } => {
                self.expect_live_element(*parent)?;
                let node = self.add_text(*parent, value);
                Ok(EditEffect::TextAdded {
                    node,
                    parent: *parent,
                })
            }
            EditOp::RemoveSubtree { element } => {
                self.expect_live_element(*element)?;
                if *element == self.root() {
                    return Err(EditError::RemoveRoot);
                }
                let (position, elements) = self
                    .unlink_subtree(*element)
                    .expect("validated live non-root element");
                let parent = self.parent(*element).expect("non-root");
                Ok(EditEffect::SubtreeRemoved {
                    root: *element,
                    elements,
                    parent,
                    position,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_dtd::example_d1;

    #[test]
    fn effects_capture_displaced_state() {
        let dtd = example_d1();
        let teachers = dtd.type_by_name("teachers").unwrap();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let mut t = XmlTree::new(teachers);
        let mut journal = EditJournal::new();

        let add_op = EditOp::AddElement {
            parent: t.root(),
            ty: teacher,
        };
        let added = t.apply_edit(&add_op).unwrap();
        let EditEffect::ElementAdded { element, .. } = added else {
            panic!("expected ElementAdded, got {added:?}");
        };
        journal.record(add_op);

        let first = t
            .apply_edit(&EditOp::SetAttr {
                element,
                attr: name,
                value: "Joe".into(),
            })
            .unwrap();
        assert!(
            matches!(first, EditEffect::AttrSet { old: None, .. }),
            "{first:?}"
        );
        let second = t
            .apply_edit(&EditOp::SetAttr {
                element,
                attr: name,
                value: "Sue".into(),
            })
            .unwrap();
        let EditEffect::AttrSet {
            old: Some(old),
            new,
            ..
        } = second
        else {
            panic!("expected displaced value, got {second:?}");
        };
        assert_eq!(t.resolve(old), "Joe");
        assert_eq!(t.resolve(new), "Sue");

        let remove_op = EditOp::RemoveSubtree { element };
        let removed = t.apply_edit(&remove_op).unwrap();
        assert!(
            matches!(&removed, EditEffect::SubtreeRemoved { elements, .. }
                if elements == &vec![(element, teacher)])
        );
        journal.record(remove_op);
        assert_eq!(journal.len(), 2);
        assert!(matches!(journal.ops()[0], EditOp::AddElement { .. }));
        assert!(matches!(journal.ops()[1], EditOp::RemoveSubtree { .. }));
    }

    #[test]
    fn compaction_drops_only_the_durable_prefix() {
        let dtd = example_d1();
        let teachers = dtd.type_by_name("teachers").unwrap();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let mut t = XmlTree::new(teachers);
        let mut journal = EditJournal::new();
        for _ in 0..4 {
            let op = EditOp::AddElement {
                parent: t.root(),
                ty: teacher,
            };
            t.apply_edit(&op).unwrap();
            journal.record(op);
        }
        assert_eq!(journal.total_recorded(), 4);

        // Only the durable prefix can go; the rest stays addressable.
        assert_eq!(journal.compact(2), 2);
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.folded(), 2);
        assert_eq!(journal.total_recorded(), 4);
        // Compacting below what is already folded is a no-op.
        assert_eq!(journal.compact(1), 0);
        // A durable watermark beyond the recorded history drains everything
        // recorded, and no more.
        assert_eq!(journal.compact(100), 2);
        assert_eq!(journal.folded(), 4);
        assert!(journal.is_empty());
        assert_eq!(journal.total_recorded(), 4);
    }

    #[test]
    fn invalid_ops_are_rejected_and_change_nothing() {
        let dtd = example_d1();
        let teachers = dtd.type_by_name("teachers").unwrap();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let mut t = XmlTree::new(teachers);
        let child = t.add_element(t.root(), teacher);
        let text = t.add_text(child, "hello");
        let nodes_before = t.num_nodes();

        assert_eq!(
            t.apply_edit(&EditOp::RemoveSubtree { element: t.root() }),
            Err(EditError::RemoveRoot)
        );
        assert_eq!(
            t.apply_edit(&EditOp::AddElement {
                parent: text,
                ty: teacher
            }),
            Err(EditError::NotAnElement(text))
        );
        assert_eq!(
            t.apply_edit(&EditOp::AddElement {
                parent: NodeId(9999),
                ty: teacher
            }),
            Err(EditError::UnknownNode(NodeId(9999)))
        );
        t.apply_edit(&EditOp::RemoveSubtree { element: child })
            .unwrap();
        assert_eq!(
            t.apply_edit(&EditOp::AddElement {
                parent: child,
                ty: teacher
            }),
            Err(EditError::Detached(child))
        );
        assert_eq!(t.num_nodes(), nodes_before - 2);
    }
}
