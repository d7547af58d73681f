//! The XML tree model of Definition 2.2.
//!
//! An XML tree is `T = (V, lab, ele, att, val, root)`:
//!
//! * `V` — nodes (here an arena indexed by [`NodeId`]);
//! * `lab` — labels each node with an element type, an attribute, or `S`;
//! * `ele` — the ordered list of subelements/text children of an element;
//! * `att` — the attribute nodes of an element, identified by attribute name;
//! * `val` — string values of attribute and text nodes;
//! * `root` — the unique root node.
//!
//! The structure is DTD-aware in the sense that labels are the interned
//! [`ElemId`] / [`AttrId`] identifiers of a [`Dtd`]; the tree itself does not
//! enforce validity — that is the job of [`mod@crate::validate`].

use std::collections::{HashMap, HashSet};

use xic_dtd::{AttrId, Dtd, ElemId};

use crate::pool::{ValueId, ValuePool};
use crate::snapshot::{NodeSnapshot, SnapshotError, TreeSnapshot};

/// Identifier of a node within an [`XmlTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the tree's node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Label of a node: element type, attribute, or text (`S`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeLabel {
    /// An element node of the given type.
    Element(ElemId),
    /// An attribute node.
    Attribute(AttrId),
    /// A text node (the string type `S`).
    Text,
}

/// A single arena slot of the tree: label, parent, value and tombstone
/// flag.  Only element nodes have child and attribute lists; those live in
/// the tree's side table ([`ElementLists`]) at index `lists`, so an
/// attribute or text node carries no list headers at all.
#[derive(Debug, Clone)]
struct Node {
    label: NodeLabel,
    parent: Option<NodeId>,
    /// Interned string value; `Some` exactly for attribute and text nodes.
    value: Option<ValueId>,
    /// For an element node, the index of its [`ElementLists`] entry;
    /// unused (0) for attribute and text nodes.
    lists: u32,
    /// Whether the node has been removed from the document.  The arena slot
    /// is kept (ids stay stable and the node's values stay readable, which
    /// incremental index maintenance relies on), but detached nodes are
    /// invisible to every document-level accessor.
    detached: bool,
}

/// The child and attribute lists of one element node.
#[derive(Debug, Clone)]
struct ElementLists {
    /// The element the lists belong to.  Entries are pushed as elements
    /// are created, so the table lists the tree's elements in ascending id
    /// order, and [`XmlTree::elements`] walks it instead of the arena.
    node: NodeId,
    /// Ordered subelement / text children (the `ele` function).
    children: Vec<NodeId>,
    /// Attribute children, identified by attribute id (the `att` function).
    attrs: Vec<(AttrId, NodeId)>,
}

/// An XML tree (Definition 2.2).
///
/// The arena is a vector of 32-byte node slots indexed by [`NodeId`];
/// element nodes additionally own one entry of a side table holding their
/// ordered children and their attributes.  Attribute and text values are
/// interned in the tree's [`ValuePool`]: nodes store dense [`ValueId`]
/// symbols, and the string-value equality the paper's constraints are built
/// on becomes integer equality.  The string accessors ([`XmlTree::value`],
/// [`XmlTree::attr_value`], …) resolve through the pool, so the external
/// API is unchanged.
#[derive(Debug, Clone)]
pub struct XmlTree {
    nodes: Vec<Node>,
    /// One entry per element node, in creation order.
    lists: Vec<ElementLists>,
    root: NodeId,
    pool: ValuePool,
    /// Number of nodes that are not detached (arena slots of removed
    /// subtrees are tombstoned, not reclaimed).
    live: usize,
}

impl XmlTree {
    /// Creates a tree consisting of a single root element of type `root_type`,
    /// with an empty value pool of its own.
    pub fn new(root_type: ElemId) -> XmlTree {
        XmlTree::with_capacity(root_type, 1, 1, ValuePool::new())
    }

    /// [`XmlTree::new`] with room for `nodes` arena slots and `elements`
    /// element list entries before either grows, over the given (empty)
    /// pool.
    pub(crate) fn with_capacity(
        root_type: ElemId,
        nodes: usize,
        elements: usize,
        pool: ValuePool,
    ) -> XmlTree {
        debug_assert!(pool.is_empty());
        let mut tree = XmlTree {
            nodes: Vec::with_capacity(nodes.max(1)),
            lists: Vec::with_capacity(elements.max(1)),
            root: NodeId(0),
            pool,
            live: 0,
        };
        tree.push_node(NodeLabel::Element(root_type), None, None);
        tree
    }

    /// Appends a live arena slot (and, for an element, its empty list
    /// entry) and returns its id.  Linking it into the parent is the
    /// caller's job.
    fn push_node(
        &mut self,
        label: NodeLabel,
        parent: Option<NodeId>,
        value: Option<ValueId>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let mut lists = 0;
        if let NodeLabel::Element(_) = label {
            lists = self.lists.len() as u32;
            self.lists.push(ElementLists {
                node: id,
                children: Vec::new(),
                attrs: Vec::new(),
            });
        }
        self.nodes.push(Node {
            label,
            parent,
            value,
            lists,
            detached: false,
        });
        self.live += 1;
        id
    }

    /// The list entry of an element node; `None` for attribute and text
    /// nodes, which have neither children nor attributes.
    fn lists(&self, node: NodeId) -> Option<&ElementLists> {
        let slot = &self.nodes[node.index()];
        match slot.label {
            NodeLabel::Element(_) => Some(&self.lists[slot.lists as usize]),
            _ => None,
        }
    }

    /// Panics unless `node` is an element node: attribute and text nodes
    /// have neither children nor attributes.
    fn assert_element(&self, node: NodeId) {
        assert!(
            matches!(self.label(node), NodeLabel::Element(_)),
            "only element nodes have children and attributes"
        );
    }

    /// The list entry of an element node, for linking a new child in.
    ///
    /// # Panics
    /// Panics if `node` is an attribute or text node.
    fn lists_mut(&mut self, node: NodeId) -> &mut ElementLists {
        self.assert_element(node);
        let index = self.nodes[node.index()].lists as usize;
        &mut self.lists[index]
    }

    /// The tree's own value pool: the values its parse and edits interned,
    /// and no other document's.
    pub fn pool(&self) -> &ValuePool {
        &self.pool
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of live nodes (elements, attributes and text nodes;
    /// detached subtrees are not counted).
    pub fn num_nodes(&self) -> usize {
        self.live
    }

    /// Whether the id names a node of this tree (live or detached).
    pub fn contains(&self, node: NodeId) -> bool {
        node.index() < self.nodes.len()
    }

    /// Whether the node has been removed from the document by
    /// [`XmlTree::remove_subtree`].  Detached nodes keep their label, value
    /// and attributes readable (index maintenance needs the old state) but
    /// no longer appear in [`XmlTree::elements`] or any extension.
    pub fn is_detached(&self, node: NodeId) -> bool {
        self.nodes[node.index()].detached
    }

    /// Label of a node.
    pub fn label(&self, node: NodeId) -> NodeLabel {
        self.nodes[node.index()].label
    }

    /// Element type of a node, if it is an element.
    pub fn element_type(&self, node: NodeId) -> Option<ElemId> {
        match self.label(node) {
            NodeLabel::Element(e) => Some(e),
            _ => None,
        }
    }

    /// Parent of a node (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.index()].parent
    }

    /// String value of a node (`Some` for attribute and text nodes).
    pub fn value(&self, node: NodeId) -> Option<&str> {
        self.nodes[node.index()]
            .value
            .map(|id| self.pool.resolve(id))
    }

    /// Interned value of a node (`Some` for attribute and text nodes).
    pub fn value_id(&self, node: NodeId) -> Option<ValueId> {
        self.nodes[node.index()].value
    }

    /// Resolves an interned value back to its string.
    pub fn resolve(&self, id: ValueId) -> &str {
        self.pool.resolve(id)
    }

    /// Ordered subelement/text children of an element (the `ele` function).
    /// Empty for attribute and text nodes.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        self.lists(node).map_or(&[], |l| &l.children)
    }

    /// Attribute nodes of an element (the `att` function).
    /// Empty for attribute and text nodes.
    pub fn attributes(&self, node: NodeId) -> &[(AttrId, NodeId)] {
        self.lists(node).map_or(&[], |l| &l.attrs)
    }

    /// The value of attribute `attr` of element `node` (the `x.l` notation).
    pub fn attr_value(&self, node: NodeId, attr: AttrId) -> Option<&str> {
        self.attr_value_id(node, attr)
            .map(|id| self.pool.resolve(id))
    }

    /// The interned value of attribute `attr` of element `node`.
    pub fn attr_value_id(&self, node: NodeId, attr: AttrId) -> Option<ValueId> {
        self.attributes(node)
            .iter()
            .find(|(a, _)| *a == attr)
            .and_then(|(_, n)| self.value_id(*n))
    }

    /// The list of attribute values `x[X]` for a list of attributes `X`.
    /// Returns `None` if any attribute is missing.
    pub fn attr_values(&self, node: NodeId, attrs: &[AttrId]) -> Option<Vec<String>> {
        attrs
            .iter()
            .map(|&a| self.attr_value(node, a).map(str::to_string))
            .collect()
    }

    /// Fills `out` with the interned tuple `x[X]`, clearing it first.
    /// Returns `false` (leaving `out` in an unspecified state) if any
    /// attribute is missing.  This is the zero-allocation probe the
    /// constraint indexes are built on: `out` is a caller-owned scratch
    /// buffer reused across nodes.
    pub fn attr_value_ids(&self, node: NodeId, attrs: &[AttrId], out: &mut Vec<ValueId>) -> bool {
        out.clear();
        for &a in attrs {
            match self.attr_value_id(node, a) {
                Some(id) => out.push(id),
                None => return false,
            }
        }
        true
    }

    /// Adds an element child of type `ty` under `parent` and returns its id.
    ///
    /// # Panics
    /// Panics if `parent` is not an element node.
    pub fn add_element(&mut self, parent: NodeId, ty: ElemId) -> NodeId {
        self.assert_element(parent);
        let id = self.push_node(NodeLabel::Element(ty), Some(parent), None);
        self.lists_mut(parent).children.push(id);
        id
    }

    /// Adds a text child with the given value under `parent`.
    ///
    /// # Panics
    /// Panics if `parent` is not an element node.
    pub fn add_text(&mut self, parent: NodeId, value: impl AsRef<str>) -> NodeId {
        self.assert_element(parent);
        let value = self.pool.intern(value.as_ref());
        let id = self.push_node(NodeLabel::Text, Some(parent), Some(value));
        self.lists_mut(parent).children.push(id);
        id
    }

    /// Sets (or replaces) attribute `attr` of element `node` to `value`,
    /// returning the attribute node id.
    ///
    /// # Panics
    /// Panics if `node` is not an element node.
    pub fn set_attr(&mut self, node: NodeId, attr: AttrId, value: impl AsRef<str>) -> NodeId {
        let existing = self
            .lists_mut(node)
            .attrs
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|&(_, n)| n);
        let value = self.pool.intern(value.as_ref());
        if let Some(existing) = existing {
            self.nodes[existing.index()].value = Some(value);
            return existing;
        }
        let id = self.push_node(NodeLabel::Attribute(attr), Some(node), Some(value));
        self.lists_mut(node).attrs.push((attr, id));
        id
    }

    /// Removes the subtree rooted at `element` from the document: the node
    /// is unlinked from its parent and every node below it (elements, text
    /// and attribute nodes) is tombstoned.  Returns the removed **element**
    /// nodes with their types, in ascending id order — exactly the list an
    /// incremental index needs to retract.
    ///
    /// Returns `None` — and changes nothing — if `element` is not a live,
    /// non-root element node.  Detached nodes keep their labels, values and
    /// attribute lists readable so that retraction can still ask for the
    /// tuples the removed elements used to carry.
    pub fn remove_subtree(&mut self, element: NodeId) -> Option<Vec<(NodeId, ElemId)>> {
        self.unlink_subtree(element).map(|(_, removed)| removed)
    }

    /// [`XmlTree::remove_subtree`], also returning the removed root's
    /// former position among its parent's children.
    pub(crate) fn unlink_subtree(
        &mut self,
        element: NodeId,
    ) -> Option<(usize, Vec<(NodeId, ElemId)>)> {
        if !self.contains(element)
            || self.is_detached(element)
            || element == self.root
            || self.element_type(element).is_none()
        {
            return None;
        }
        let parent = self.nodes[element.index()].parent.expect("non-root");
        let siblings = &mut self.lists_mut(parent).children;
        let pos = siblings.iter().position(|&c| c == element)?;
        siblings.remove(pos);

        let mut removed = Vec::new();
        let mut stack = vec![element];
        while let Some(n) = stack.pop() {
            let node = &mut self.nodes[n.index()];
            debug_assert!(!node.detached, "subtrees never share nodes");
            node.detached = true;
            self.live -= 1;
            let NodeLabel::Element(ty) = node.label else {
                continue;
            };
            removed.push((n, ty));
            let lists = &self.lists[node.lists as usize];
            stack.extend(lists.children.iter().copied());
            for &(_, attr_node) in &lists.attrs {
                self.nodes[attr_node.index()].detached = true;
                self.live -= 1;
            }
        }
        removed.sort();
        Some((pos, removed))
    }

    /// Iterates over all live element nodes in ascending id (creation)
    /// order.  For a parsed or top-down-built document this *is* document
    /// pre-order; after edits insert under earlier parents the two can
    /// diverge, and id order is the canonical traversal every checker in
    /// the workspace uses — witnesses are "first" in this order.
    ///
    /// Walks the element side table, so attribute and text slots cost
    /// nothing.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.lists
            .iter()
            .map(|lists| lists.node)
            .filter(move |&n| !self.is_detached(n))
    }

    /// `ext(τ)`: the element nodes of type `ty`, in the order of
    /// [`XmlTree::elements`].
    ///
    /// Returns a lazy iterator — callers that need a materialized list
    /// `collect()` it themselves; most probes (`first`, `any`, counting)
    /// never allocate.
    pub fn ext(&self, ty: ElemId) -> impl Iterator<Item = NodeId> + '_ {
        self.elements()
            .filter(move |&n| self.element_type(n) == Some(ty))
    }

    /// `|ext(τ)|` without materialising the node list.
    pub fn ext_count(&self, ty: ElemId) -> usize {
        self.ext(ty).count()
    }

    /// `ext(τ.l)`: the set of `l`-attribute values over all `τ` elements,
    /// as interned [`ValueId`] symbols (string-value equality is id equality
    /// within one tree; resolve through [`XmlTree::resolve`] at the edges).
    pub fn ext_attr(&self, ty: ElemId, attr: AttrId) -> HashSet<ValueId> {
        self.ext(ty)
            .filter_map(|n| self.attr_value_id(n, attr))
            .collect()
    }

    /// Concatenated text content of an element's direct text children,
    /// folded into one string in a single pass (no intermediate `Vec`).
    pub fn text_of(&self, node: NodeId) -> String {
        self.children(node)
            .iter()
            .filter_map(|&c| match self.label(c) {
                NodeLabel::Text => self.value(c),
                _ => None,
            })
            .fold(String::new(), |mut acc, piece| {
                acc.push_str(piece);
                acc
            })
    }

    /// Per-type element counts (used by the Lemma 4.3 preservation tests).
    /// One walk over the arena, matching each node's label exactly once;
    /// detached nodes are skipped, so the counts agree with [`XmlTree::ext`].
    pub fn type_histogram(&self) -> HashMap<ElemId, usize> {
        let mut hist = HashMap::new();
        for node in &self.nodes {
            if node.detached {
                continue;
            }
            if let NodeLabel::Element(ty) = node.label {
                *hist.entry(ty).or_insert(0) += 1;
            }
        }
        hist
    }

    /// Dumps the arena slot-for-slot into a [`TreeSnapshot`] — the
    /// serialization hook of the durable corpus log.  The snapshot keeps
    /// tombstones, child/attribute orders and (implicitly, by position) node
    /// ids, so a tree rebuilt by [`XmlTree::from_snapshot`] replays logged
    /// [`crate::EditOp`]s id-exactly.  Values are resolved to strings: pool
    /// symbols are tree-local and re-interned on reconstruction.
    pub fn snapshot(&self) -> TreeSnapshot {
        let nodes = (0..self.nodes.len() as u32)
            .map(NodeId)
            .map(|id| {
                let node = &self.nodes[id.index()];
                NodeSnapshot {
                    label: node.label,
                    parent: node.parent,
                    value: node.value.map(|v| self.pool.resolve(v).to_string()),
                    detached: node.detached,
                    children: self.children(id).to_vec(),
                    attrs: self.attributes(id).to_vec(),
                }
            })
            .collect();
        TreeSnapshot {
            nodes,
            root: self.root,
        }
    }

    /// Rebuilds a tree from a [`TreeSnapshot`], re-validating every arena
    /// invariant first — snapshots arrive from persistence formats and must
    /// be treated as hostile.  On success the arena (ids, orders,
    /// tombstones, values) is indistinguishable from the snapshotted one;
    /// on any inconsistency a structured [`SnapshotError`] is returned and
    /// nothing is built.  Values are interned into a fresh pool (symbol
    /// numbering may differ from the original tree's; string values, which
    /// are what constraints compare at the edges, are identical).
    pub fn from_snapshot(snapshot: &TreeSnapshot) -> Result<XmlTree, SnapshotError> {
        let n = snapshot.nodes.len();
        if n == 0 {
            return Err(SnapshotError::global("empty arena"));
        }
        if n > u32::MAX as usize {
            return Err(SnapshotError::global("arena exceeds u32 ids"));
        }
        let in_range = |id: NodeId| (id.index() < n).then_some(id);
        let slot = |id: NodeId| &snapshot.nodes[id.index()];

        // Root invariants.
        let root = in_range(snapshot.root)
            .ok_or_else(|| SnapshotError::global("root slot out of range"))?;
        let root_node = slot(root);
        if !matches!(root_node.label, NodeLabel::Element(_)) {
            return Err(SnapshotError::at(root, "root is not an element"));
        }
        if root_node.parent.is_some() {
            return Err(SnapshotError::at(root, "root has a parent"));
        }
        if root_node.detached {
            return Err(SnapshotError::at(root, "root is detached"));
        }

        // Per-slot invariants: reference ranges, label/value coherence,
        // leaf-ness of attribute and text nodes.
        for (i, node) in snapshot.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            let is_element = matches!(node.label, NodeLabel::Element(_));
            if node.value.is_some() == is_element {
                return Err(SnapshotError::at(
                    id,
                    "value present iff the node is an attribute or text node",
                ));
            }
            if !is_element && (!node.children.is_empty() || !node.attrs.is_empty()) {
                return Err(SnapshotError::at(id, "non-element node with children"));
            }
            if id != root && node.parent.is_none() {
                return Err(SnapshotError::at(id, "non-root node without a parent"));
            }
            if let Some(p) = node.parent {
                if in_range(p).is_none() {
                    return Err(SnapshotError::at(id, "parent out of range"));
                }
            }
            for &c in node
                .children
                .iter()
                .chain(node.attrs.iter().map(|(_, c)| c))
            {
                if in_range(c).is_none() {
                    return Err(SnapshotError::at(id, "child reference out of range"));
                }
            }
        }

        // Live-structure invariants: children/attrs of live nodes are live,
        // parent-consistent, correctly labelled, and referenced exactly
        // once; every live node is reachable from the root.  Together these
        // rule out cycles and shared subtrees, which edit replay (and
        // `remove_subtree`'s stack walk in particular) relies on.
        let live = snapshot.nodes.iter().filter(|s| !s.detached).count();
        let mut referenced = vec![false; n];
        let mut visited = 0usize;
        let mut stack = vec![root];
        referenced[root.index()] = true;
        while let Some(id) = stack.pop() {
            visited += 1;
            let node = slot(id);
            for &c in &node.children {
                let child = slot(c);
                if child.detached {
                    return Err(SnapshotError::at(id, "live node lists a detached child"));
                }
                if child.parent != Some(id) {
                    return Err(SnapshotError::at(c, "child does not name its parent"));
                }
                if matches!(child.label, NodeLabel::Attribute(_)) {
                    return Err(SnapshotError::at(id, "attribute node in the child list"));
                }
                if std::mem::replace(&mut referenced[c.index()], true) {
                    return Err(SnapshotError::at(c, "node referenced twice"));
                }
                stack.push(c);
            }
            for &(attr, a) in &node.attrs {
                let attr_node = slot(a);
                if attr_node.detached {
                    return Err(SnapshotError::at(
                        id,
                        "live node lists a detached attribute",
                    ));
                }
                if attr_node.parent != Some(id) {
                    return Err(SnapshotError::at(a, "attribute does not name its parent"));
                }
                if attr_node.label != NodeLabel::Attribute(attr) {
                    return Err(SnapshotError::at(a, "attribute label mismatch"));
                }
                if std::mem::replace(&mut referenced[a.index()], true) {
                    return Err(SnapshotError::at(a, "node referenced twice"));
                }
                // Attribute nodes are leaves (checked above), nothing to push.
                visited += 1;
            }
        }
        if visited != live {
            return Err(SnapshotError::global(format!(
                "{live} live nodes but {visited} reachable from the root"
            )));
        }

        // All invariants hold: rebuild the arena slot-for-slot.
        let mut pool = ValuePool::new();
        let mut lists = Vec::new();
        let nodes = snapshot
            .nodes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut node = Node {
                    label: s.label,
                    parent: s.parent,
                    value: s.value.as_deref().map(|v| pool.intern(v)),
                    lists: 0,
                    detached: s.detached,
                };
                if let NodeLabel::Element(_) = s.label {
                    node.lists = lists.len() as u32;
                    lists.push(ElementLists {
                        node: NodeId(i as u32),
                        children: s.children.clone(),
                        attrs: s.attrs.clone(),
                    });
                }
                node
            })
            .collect();
        Ok(XmlTree {
            nodes,
            lists,
            root,
            pool,
            live,
        })
    }

    /// Renders a node path like `teachers/teacher[2]` for diagnostics.
    pub fn path_of(&self, dtd: &Dtd, node: NodeId) -> String {
        let mut segments = Vec::new();
        let mut current = Some(node);
        while let Some(n) = current {
            let seg = match self.label(n) {
                NodeLabel::Element(e) => {
                    let name = dtd.type_name(e).to_string();
                    match self.parent(n) {
                        Some(p) => {
                            let index = self
                                .children(p)
                                .iter()
                                .filter(|&&c| self.element_type(c) == Some(e))
                                .position(|&c| c == n)
                                .unwrap_or(0);
                            format!("{name}[{}]", index + 1)
                        }
                        None => name,
                    }
                }
                NodeLabel::Attribute(a) => format!("@{}", dtd.attr_name(a)),
                NodeLabel::Text => "#text".to_string(),
            };
            segments.push(seg);
            current = self.parent(n);
        }
        segments.reverse();
        segments.join("/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_dtd::example_d1;

    /// Builds the Figure 1 tree of the paper: one teachers root, two
    /// teachers ("Joe" appears twice), each teaching two subjects.
    fn figure1_tree(dtd: &Dtd) -> XmlTree {
        let teachers = dtd.type_by_name("teachers").unwrap();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let teach = dtd.type_by_name("teach").unwrap();
        let research = dtd.type_by_name("research").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let taught_by = dtd.attr_by_name("taught_by").unwrap();

        let mut t = XmlTree::new(teachers);
        for _ in 0..2 {
            let te = t.add_element(t.root(), teacher);
            t.set_attr(te, name, "Joe");
            let th = t.add_element(te, teach);
            for subj_name in ["XML", "DB"] {
                let s = t.add_element(th, subject);
                t.set_attr(s, taught_by, "Joe");
                t.add_text(s, subj_name);
            }
            let r = t.add_element(te, research);
            t.add_text(r, "Web DB");
        }
        t
    }

    #[test]
    fn leaf_nodes_stay_small() {
        // Attribute and text nodes carry no list headers: one arena slot
        // is label, parent, value, list index and tombstone flag.
        assert!(std::mem::size_of::<Node>() <= 32);
    }

    #[test]
    fn leaves_have_no_children_or_attributes() {
        let dtd = example_d1();
        let t = figure1_tree(&dtd);
        let subject = dtd.type_by_name("subject").unwrap();
        let s = t.ext(subject).next().unwrap();
        for &(_, attr_node) in t.attributes(s) {
            assert!(t.children(attr_node).is_empty());
            assert!(t.attributes(attr_node).is_empty());
        }
        let text = t.children(s)[0];
        assert_eq!(t.label(text), NodeLabel::Text);
        assert!(t.children(text).is_empty());
        assert!(t.attributes(text).is_empty());
    }

    #[test]
    #[should_panic(expected = "only element nodes")]
    fn adding_under_a_text_node_panics() {
        let dtd = example_d1();
        let research = dtd.type_by_name("research").unwrap();
        let mut t = XmlTree::new(research);
        let text = t.add_text(t.root(), "Web DB");
        t.add_text(text, "nested");
    }

    #[test]
    fn construction_and_navigation() {
        let dtd = example_d1();
        let t = figure1_tree(&dtd);
        let teacher = dtd.type_by_name("teacher").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        assert_eq!(t.ext_count(teacher), 2);
        assert_eq!(t.ext_count(subject), 4);
        assert_eq!(t.children(t.root()).len(), 2);
        let first_teacher = t.children(t.root())[0];
        assert_eq!(t.parent(first_teacher), Some(t.root()));
        assert_eq!(t.element_type(first_teacher), Some(teacher));
    }

    #[test]
    fn attribute_access() {
        let dtd = example_d1();
        let t = figure1_tree(&dtd);
        let teacher = dtd.type_by_name("teacher").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let first = t.ext(teacher).next().unwrap();
        assert_eq!(t.attr_value(first, name), Some("Joe"));
        assert_eq!(t.attr_values(first, &[name]), Some(vec!["Joe".to_string()]));
        // ext(teacher.name) collapses duplicates: both teachers are "Joe".
        assert_eq!(t.ext_attr(teacher, name).len(), 1);
    }

    #[test]
    fn missing_attribute_is_none() {
        let dtd = example_d1();
        let teachers = dtd.type_by_name("teachers").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let t = XmlTree::new(teachers);
        assert_eq!(t.attr_value(t.root(), name), None);
        assert_eq!(t.attr_values(t.root(), &[name]), None);
    }

    #[test]
    fn set_attr_overwrites() {
        let dtd = example_d1();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let mut t = XmlTree::new(teacher);
        let a1 = t.set_attr(t.root(), name, "Joe");
        let a2 = t.set_attr(t.root(), name, "Sue");
        assert_eq!(a1, a2);
        assert_eq!(t.attr_value(t.root(), name), Some("Sue"));
        assert_eq!(t.attributes(t.root()).len(), 1);
    }

    #[test]
    fn text_content() {
        let dtd = example_d1();
        let research = dtd.type_by_name("research").unwrap();
        let mut t = XmlTree::new(research);
        t.add_text(t.root(), "Web ");
        t.add_text(t.root(), "DB");
        assert_eq!(t.text_of(t.root()), "Web DB");
    }

    #[test]
    fn values_are_interned_once() {
        let dtd = example_d1();
        let t = figure1_tree(&dtd);
        let teacher = dtd.type_by_name("teacher").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let taught_by = dtd.attr_by_name("taught_by").unwrap();
        // "Joe" appears on two teachers and four subjects but is one symbol.
        let teachers: Vec<NodeId> = t.ext(teacher).collect();
        let joe = t.attr_value_id(teachers[0], name).unwrap();
        assert_eq!(t.attr_value_id(teachers[1], name), Some(joe));
        for s in t.ext(subject) {
            assert_eq!(t.attr_value_id(s, taught_by), Some(joe));
        }
        assert_eq!(t.resolve(joe), "Joe");
        assert_eq!(t.pool().get("Joe"), Some(joe));
        // Distinct values: Joe, XML, DB, Web DB.
        assert_eq!(t.pool().len(), 4);
        // Tuple probing through the scratch-buffer API.
        let mut scratch = Vec::new();
        assert!(t.attr_value_ids(teachers[0], &[name], &mut scratch));
        assert_eq!(scratch, vec![joe]);
        assert!(!t.attr_value_ids(t.root(), &[name], &mut scratch));
    }

    #[test]
    fn remove_subtree_detaches_and_keeps_tombstones_readable() {
        let dtd = example_d1();
        let mut t = figure1_tree(&dtd);
        let teacher = dtd.type_by_name("teacher").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let before = t.num_nodes();
        let victim = t.ext(teacher).next().unwrap();
        let removed = t.remove_subtree(victim).unwrap();
        // One teacher, one teach, two subjects, one research element removed.
        assert_eq!(removed.len(), 5);
        assert!(removed.contains(&(victim, teacher)));
        assert_eq!(t.ext_count(teacher), 1);
        assert_eq!(t.ext_count(subject), 2);
        // 5 elements + 3 text nodes + 3 attribute nodes are gone.
        assert_eq!(t.num_nodes(), before - 11);
        // The histogram agrees with the extensions.
        assert_eq!(t.type_histogram()[&teacher], 1);
        assert_eq!(t.type_histogram()[&subject], 2);
        // The tombstone keeps its label and values readable…
        assert!(t.is_detached(victim));
        assert_eq!(t.attr_value(victim, name), Some("Joe"));
        // …but is invisible to extensions, and cannot be removed twice.
        assert!(t.ext(teacher).all(|n| n != victim));
        assert!(t.remove_subtree(victim).is_none());
        // The root can never be removed.
        assert!(t.remove_subtree(t.root()).is_none());
    }

    #[test]
    fn snapshot_round_trips_slot_for_slot() {
        let dtd = example_d1();
        let mut t = figure1_tree(&dtd);
        let teacher = dtd.type_by_name("teacher").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        // Tombstones and post-edit state must survive the round trip too.
        let victim = t.ext(teacher).next().unwrap();
        t.remove_subtree(victim).unwrap();
        let survivor = t.ext(teacher).next().unwrap();
        t.set_attr(survivor, name, "Sue");

        let snap = t.snapshot();
        assert_eq!(snap.num_slots(), 23);
        assert_eq!(snap.live_nodes(), t.num_nodes());
        let rebuilt = XmlTree::from_snapshot(&snap).unwrap();
        // The rebuilt arena is indistinguishable: same snapshot again.
        assert_eq!(rebuilt.snapshot(), snap);
        assert_eq!(rebuilt.num_nodes(), t.num_nodes());
        assert_eq!(rebuilt.root(), t.root());
        assert!(rebuilt.is_detached(victim));
        assert_eq!(rebuilt.attr_value(victim, name), Some("Joe"));
        // Fresh allocations continue from the same slot, so edit replay
        // stays id-exact.
        let mut a = t.clone();
        let mut b = rebuilt;
        assert_eq!(
            a.add_element(a.root(), teacher),
            b.add_element(b.root(), teacher)
        );
    }

    /// The live element slots of the arena, in ascending id order: the
    /// order `elements()` promises, recomputed the slow way.
    fn live_element_slots(t: &XmlTree) -> Vec<NodeId> {
        (0..t.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| t.element_type(n).is_some() && !t.is_detached(n))
            .collect()
    }

    #[test]
    fn elements_stay_in_ascending_id_order_through_edits_and_snapshots() {
        let dtd = example_d1();
        let mut t = figure1_tree(&dtd);
        let teacher = dtd.type_by_name("teacher").unwrap();
        let research = dtd.type_by_name("research").unwrap();
        // An element added under an earlier parent comes last in id order
        // though not in document order.
        let first_teacher = t.ext(teacher).next().unwrap();
        let late = t.add_element(first_teacher, research);
        // A middle subtree: the first teacher's `teach` and its subjects.
        let middle = t.children(first_teacher)[0];
        assert_eq!(t.remove_subtree(middle).unwrap().len(), 3);

        let expected = live_element_slots(&t);
        assert!(expected.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t.elements().collect::<Vec<_>>(), expected);
        assert_eq!(t.elements().last(), Some(late));
        assert_eq!(t.ext(research).last(), Some(late));
        assert!(t.elements().all(|n| n != middle));

        let mut rebuilt = XmlTree::from_snapshot(&t.snapshot()).unwrap();
        assert_eq!(rebuilt.elements().collect::<Vec<_>>(), expected);
        let later = rebuilt.add_element(rebuilt.root(), teacher);
        assert_eq!(rebuilt.elements().last(), Some(later));
        assert_eq!(
            rebuilt.elements().collect::<Vec<_>>(),
            live_element_slots(&rebuilt)
        );
    }

    #[test]
    fn hostile_snapshots_are_rejected_structurally() {
        let dtd = example_d1();
        let t = figure1_tree(&dtd);
        let good = t.snapshot();

        // Empty arena.
        let empty = TreeSnapshot {
            nodes: vec![],
            root: NodeId(0),
        };
        assert!(XmlTree::from_snapshot(&empty).is_err());

        // Out-of-range child reference.
        let mut bad = good.clone();
        bad.nodes[0].children.push(NodeId(9999));
        assert!(XmlTree::from_snapshot(&bad).is_err());

        // A cycle: two nodes referencing each other cannot be reachable
        // and parent-consistent at once.
        let mut bad = good.clone();
        let a = bad.nodes[0].children[0];
        bad.nodes[a.index()].children.push(NodeId(0));
        assert!(XmlTree::from_snapshot(&bad).is_err());

        // Value on an element / missing value on text.
        let mut bad = good.clone();
        bad.nodes[0].value = Some("x".into());
        assert!(XmlTree::from_snapshot(&bad).is_err());

        // Detached root.
        let mut bad = good.clone();
        bad.nodes[0].detached = true;
        assert!(XmlTree::from_snapshot(&bad).is_err());

        // A live node referenced twice (shared subtree).
        let mut bad = good;
        let shared = bad.nodes[0].children[0];
        bad.nodes[0].children.push(shared);
        assert!(XmlTree::from_snapshot(&bad).is_err());
    }

    #[test]
    fn histogram_and_paths() {
        let dtd = example_d1();
        let t = figure1_tree(&dtd);
        let hist = t.type_histogram();
        let subject = dtd.type_by_name("subject").unwrap();
        assert_eq!(hist[&subject], 4);
        let second_subject = t.ext(subject).nth(1).unwrap();
        let path = t.path_of(&dtd, second_subject);
        assert!(
            path.starts_with("teachers/teacher[1]/teach[1]/subject[2]"),
            "{path}"
        );
    }
}
