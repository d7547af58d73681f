//! Typed point edits over [`XmlTree`] — the write surface of the engine's
//! corpus sessions.
//!
//! A long-lived validation session cannot let callers mutate a tree through
//! raw `&mut XmlTree` methods: every index built over the document would be
//! silently invalidated.  Instead, mutations are expressed as [`EditOp`]
//! values and applied through [`XmlTree::apply_edit`], which validates the
//! operation and returns an [`EditEffect`] — a *delta record* carrying
//! exactly the before/after facts an incremental index needs (the displaced
//! attribute value, the removed element list, …).  An op is also the unit
//! of replay: applying the same ops in order to a copy of the original
//! tree reproduces the edited tree node-for-node (the arena allocates ids
//! deterministically), which is what the engine's corpus log rests on.
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

        let added = t
            .apply_edit(&EditOp::AddElement {
                parent: t.root(),
                ty: teacher,
            })
            .unwrap();
        let EditEffect::ElementAdded { element, .. } = added else {
            panic!("expected ElementAdded, got {added:?}");
        };

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

        let removed = t.apply_edit(&EditOp::RemoveSubtree { element }).unwrap();
        assert!(
            matches!(&removed, EditEffect::SubtreeRemoved { elements, .. }
                if elements == &vec![(element, teacher)])
        );
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
