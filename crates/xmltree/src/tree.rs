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
use std::ops::Range;

use xic_dtd::{AttrId, Dtd, ElemId};

use crate::pool::{ValueId, ValuePool};
use crate::snapshot::{NodeSnapshot, SnapshotError, TreeSnapshot};

/// Identifier of a node within an [`XmlTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the tree's node arena.
    #[inline]
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

/// The `parent` field of the root's slot.
const NO_PARENT: u32 = u32::MAX;

/// The least room a full list gets when an append moves it to the end of
/// its flat vector.
const MIN_ROOM: u32 = 4;

/// A single arena slot of the tree: label, parent, and one `u32` whose
/// meaning the label decides.  An element's `slot` indexes its [`Element`]
/// entry (lists and tombstone flag); an attribute or text node's `slot` is
/// its [`ValueId`].  No node needs both.
#[derive(Debug, Clone, Copy)]
struct Node {
    label: NodeLabel,
    /// The parent's id, or [`NO_PARENT`] for the root.
    parent: u32,
    slot: u32,
}

/// One element's list inside a tree-wide vector: `len` entries in use at
/// `start`, in a block of `cap` entries that the list owns.  The default is
/// an empty list with no room.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Span {
    /// Appends `list` to the end of `items` as a list with no spare room.
    fn packed<T: Copy>(items: &mut Vec<T>, list: &[T]) -> Span {
        let start = to_u32(items.len());
        items.extend_from_slice(list);
        let len = to_u32(list.len());
        Span {
            start,
            len,
            cap: len,
        }
    }

    /// The list's entries as a range of its vector.
    #[inline]
    fn range(self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }

    /// Appends `item` to this list of `items`.  The item goes in place when
    /// the block has spare room, or when the block ends the vector (which
    /// then grows by one).  Otherwise the list moves to the end of the
    /// vector with room for twice its length, so a list that keeps growing
    /// moves O(log n) times and appends stay amortized O(1).  An empty list
    /// without room restarts at the vector's end and leaves nothing behind.
    fn push<T: Copy>(&mut self, items: &mut Vec<T>, item: T) {
        if self.len == self.cap {
            if self.len == 0 {
                self.start = to_u32(items.len());
            } else if self.start as usize + self.cap as usize != items.len() {
                let start = items.len();
                self.cap = self.len.saturating_mul(2).max(MIN_ROOM);
                items.extend_from_within(self.range());
                items.resize(start + self.cap as usize, item);
                self.start = to_u32(start);
            }
        }
        let at = self.start as usize + self.len as usize;
        if self.len < self.cap {
            items[at] = item;
        } else {
            items.push(item);
            self.cap += 1;
        }
        self.len += 1;
    }

    /// Removes the entry at `pos`, closing the gap; the block keeps its
    /// room.
    fn remove<T: Copy>(&mut self, items: &mut [T], pos: usize) {
        let range = self.range();
        items.copy_within(range.start + pos + 1..range.end, range.start + pos);
        self.len -= 1;
    }
}

/// Narrows a vector index to the `u32` the node slots store.
fn to_u32(index: usize) -> u32 {
    u32::try_from(index).expect("tree vectors stay within u32 indexes")
}

/// The side-table entry of one element node: its child and attribute lists
/// and its tombstone flag.
#[derive(Debug, Clone)]
struct Element {
    /// The element the entry belongs to.  Entries are pushed as elements
    /// are created, so the table lists the tree's elements in ascending id
    /// order, and [`XmlTree::elements`] walks it instead of the arena.
    node: NodeId,
    /// Ordered subelement / text children (the `ele` function), a list of
    /// the tree's `children` vector.
    children: Span,
    /// Attribute children, identified by attribute id (the `att` function),
    /// a list of the tree's `attrs` vector.
    attrs: Span,
    /// Whether the element has been removed from the document.  The arena
    /// slots are kept (ids stay stable and the values stay readable, which
    /// incremental index maintenance relies on), but detached nodes are
    /// invisible to every document-level accessor.  Only
    /// [`XmlTree::remove_subtree`] detaches, and always a whole subtree, so
    /// an attribute or text node reads its tombstone from its parent's
    /// entry.
    detached: bool,
}

/// An XML tree (Definition 2.2).
///
/// The arena is a vector of 16-byte node slots indexed by [`NodeId`].  Each
/// element node also has an entry in a side table, and its ordered
/// children and its attributes are ranges of two tree-wide vectors, so a
/// tree is a fixed number of heap blocks whatever its size.  Attribute and
/// text values are interned in the tree's [`ValuePool`]: nodes store dense
/// [`ValueId`] symbols, and the string-value equality the paper's
/// constraints are built on becomes integer equality.  The string accessors
/// ([`XmlTree::value`], [`XmlTree::attr_value`], …) resolve through the
/// pool, so the external API is unchanged.
///
/// An edit that grows a list appends in place when it can, and otherwise
/// moves the list to the end of its vector, abandoning the old block;
/// [`XmlTree::from_snapshot`] rebuilds both vectors without gaps.
#[derive(Debug, Clone)]
pub struct XmlTree {
    nodes: Vec<Node>,
    /// One entry per element node, in creation order.
    entries: Vec<Element>,
    /// Every element's child list.
    children: Vec<NodeId>,
    /// Every element's attribute list.
    attrs: Vec<(AttrId, NodeId)>,
    root: NodeId,
    pool: ValuePool,
    /// Number of nodes that are not detached (arena slots of removed
    /// subtrees are tombstoned, not reclaimed).
    live: u32,
}

impl XmlTree {
    /// Creates a tree consisting of a single root element of type `root_type`,
    /// with an empty value pool of its own.
    pub fn new(root_type: ElemId) -> XmlTree {
        XmlTree::with_capacity(root_type, [1, 1, 0, 0], ValuePool::new())
    }

    /// [`XmlTree::new`] with room for `[nodes, elements, children,
    /// attributes]` before the arena, the side table or either list vector
    /// grows, over the given (empty) pool.
    pub(crate) fn with_capacity(root_type: ElemId, room: [usize; 4], pool: ValuePool) -> XmlTree {
        debug_assert!(pool.is_empty());
        let [nodes, elements, children, attrs] = room;
        let mut tree = XmlTree {
            nodes: Vec::with_capacity(nodes.max(1)),
            entries: Vec::with_capacity(elements.max(1)),
            children: Vec::with_capacity(children),
            attrs: Vec::with_capacity(attrs),
            root: NodeId(0),
            pool,
            live: 0,
        };
        tree.new_element(None, root_type);
        tree
    }

    /// Appends an element slot and its entry under `parent` (`None` for the
    /// root) and returns its id.  Linking it into the parent's child list is
    /// the caller's job.  An element created under a removed element is
    /// removed too.
    pub(crate) fn new_element(&mut self, parent: Option<NodeId>, ty: ElemId) -> NodeId {
        let id = NodeId(to_u32(self.nodes.len()));
        let detached = parent.is_some_and(|p| self.entries[self.entry_index(p)].detached);
        self.nodes.push(Node {
            label: NodeLabel::Element(ty),
            parent: parent.map_or(NO_PARENT, |p| p.0),
            slot: to_u32(self.entries.len()),
        });
        self.entries.push(Element {
            node: id,
            children: Span::default(),
            attrs: Span::default(),
            detached,
        });
        self.live += u32::from(!detached);
        id
    }

    /// Appends a text slot with the given value under element `parent`,
    /// not yet linked into its child list.
    pub(crate) fn new_text(&mut self, parent: NodeId, value: &str) -> NodeId {
        let value = self.pool.intern(value);
        self.new_leaf(NodeLabel::Text, parent, value)
    }

    /// Appends an attribute or text slot under element `parent`.
    fn new_leaf(&mut self, label: NodeLabel, parent: NodeId, value: ValueId) -> NodeId {
        let id = NodeId(to_u32(self.nodes.len()));
        let detached = self.entries[self.entry_index(parent)].detached;
        self.nodes.push(Node {
            label,
            parent: parent.0,
            slot: value.0,
        });
        self.live += u32::from(!detached);
        id
    }

    /// Sets the (empty) child list of `parent` to `children`, copied to the
    /// end of the child vector with no spare room: the parser links each
    /// element's children this way at its end tag.
    pub(crate) fn link_children(&mut self, parent: NodeId, children: &[NodeId]) {
        let entry = self.entry_index(parent);
        debug_assert_eq!(self.entries[entry].children.len, 0);
        self.entries[entry].children = Span::packed(&mut self.children, children);
    }

    /// The side-table index of an element node.
    ///
    /// # Panics
    /// Panics if `node` is an attribute or text node: those have neither
    /// children nor attributes.
    fn entry_index(&self, node: NodeId) -> usize {
        let slot = &self.nodes[node.index()];
        assert!(
            matches!(slot.label, NodeLabel::Element(_)),
            "only element nodes have children and attributes"
        );
        slot.slot as usize
    }

    /// The entry of an element node; `None` for attribute and text nodes,
    /// which have neither children nor attributes.
    #[inline]
    fn entry(&self, node: NodeId) -> Option<&Element> {
        let slot = &self.nodes[node.index()];
        match slot.label {
            NodeLabel::Element(_) => Some(&self.entries[slot.slot as usize]),
            _ => None,
        }
    }

    /// The tree's own value pool: the values its parse and edits interned,
    /// and no other document's.
    pub fn pool(&self) -> &ValuePool {
        &self.pool
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of live nodes (elements, attributes and text nodes;
    /// detached subtrees are not counted).
    pub fn num_nodes(&self) -> usize {
        self.live as usize
    }

    /// Whether the id names a node of this tree (live or detached).
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        node.index() < self.nodes.len()
    }

    /// Whether the node has been removed from the document by
    /// [`XmlTree::remove_subtree`].  Detached nodes keep their label, value
    /// and attributes readable (index maintenance needs the old state) but
    /// no longer appear in [`XmlTree::elements`] or any extension.
    #[inline]
    pub fn is_detached(&self, node: NodeId) -> bool {
        let slot = &self.nodes[node.index()];
        let entry = match slot.label {
            NodeLabel::Element(_) => slot.slot,
            // A leaf's parent is always an element.
            _ => self.nodes[slot.parent as usize].slot,
        };
        self.entries[entry as usize].detached
    }

    /// Label of a node.
    #[inline]
    pub fn label(&self, node: NodeId) -> NodeLabel {
        self.nodes[node.index()].label
    }

    /// Element type of a node, if it is an element.
    #[inline]
    pub fn element_type(&self, node: NodeId) -> Option<ElemId> {
        match self.label(node) {
            NodeLabel::Element(e) => Some(e),
            _ => None,
        }
    }

    /// Parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let parent = self.nodes[node.index()].parent;
        (parent != NO_PARENT).then_some(NodeId(parent))
    }

    /// String value of a node (`Some` for attribute and text nodes).
    pub fn value(&self, node: NodeId) -> Option<&str> {
        self.value_id(node).map(|id| self.pool.resolve(id))
    }

    /// Interned value of a node (`Some` for attribute and text nodes).
    #[inline]
    pub fn value_id(&self, node: NodeId) -> Option<ValueId> {
        let slot = &self.nodes[node.index()];
        match slot.label {
            NodeLabel::Element(_) => None,
            _ => Some(ValueId(slot.slot)),
        }
    }

    /// Resolves an interned value back to its string.
    pub fn resolve(&self, id: ValueId) -> &str {
        self.pool.resolve(id)
    }

    /// Ordered subelement/text children of an element (the `ele` function).
    /// Empty for attribute and text nodes.
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        self.entry(node)
            .map_or(&[], |e| &self.children[e.children.range()])
    }

    /// Attribute nodes of an element (the `att` function).
    /// Empty for attribute and text nodes.
    #[inline]
    pub fn attributes(&self, node: NodeId) -> &[(AttrId, NodeId)] {
        self.entry(node)
            .map_or(&[], |e| &self.attrs[e.attrs.range()])
    }

    /// The value of attribute `attr` of element `node` (the `x.l` notation).
    pub fn attr_value(&self, node: NodeId, attr: AttrId) -> Option<&str> {
        self.attr_value_id(node, attr)
            .map(|id| self.pool.resolve(id))
    }

    /// The interned value of attribute `attr` of element `node`.
    #[inline]
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
    #[inline]
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
        let entry = self.entry_index(parent);
        let id = self.new_element(Some(parent), ty);
        self.entries[entry].children.push(&mut self.children, id);
        id
    }

    /// Adds a text child with the given value under `parent`.
    ///
    /// # Panics
    /// Panics if `parent` is not an element node.
    pub fn add_text(&mut self, parent: NodeId, value: impl AsRef<str>) -> NodeId {
        let entry = self.entry_index(parent);
        let id = self.new_text(parent, value.as_ref());
        self.entries[entry].children.push(&mut self.children, id);
        id
    }

    /// Sets (or replaces) attribute `attr` of element `node` to `value`,
    /// returning the attribute node id.
    ///
    /// # Panics
    /// Panics if `node` is not an element node.
    pub fn set_attr(&mut self, node: NodeId, attr: AttrId, value: impl AsRef<str>) -> NodeId {
        let entry = self.entry_index(node);
        let existing = self.attrs[self.entries[entry].attrs.range()]
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|&(_, n)| n);
        let value = self.pool.intern(value.as_ref());
        if let Some(existing) = existing {
            self.nodes[existing.index()].slot = value.0;
            return existing;
        }
        let id = self.new_leaf(NodeLabel::Attribute(attr), node, value);
        self.entries[entry].attrs.push(&mut self.attrs, (attr, id));
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
        let parent = self.parent(element).expect("non-root");
        let siblings = &mut self.entries[self.nodes[parent.index()].slot as usize].children;
        let pos = self.children[siblings.range()]
            .iter()
            .position(|&c| c == element)?;
        siblings.remove(&mut self.children, pos);

        let mut removed = Vec::new();
        let mut stack = vec![element];
        while let Some(n) = stack.pop() {
            let node = self.nodes[n.index()];
            let NodeLabel::Element(ty) = node.label else {
                // A text child: its tombstone is its parent's.
                self.live -= 1;
                continue;
            };
            let entry = &mut self.entries[node.slot as usize];
            debug_assert!(!entry.detached, "subtrees never share nodes");
            entry.detached = true;
            self.live -= 1 + entry.attrs.len;
            removed.push((n, ty));
            stack.extend_from_slice(&self.children[entry.children.range()]);
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
        self.entries
            .iter()
            .filter(|entry| !entry.detached)
            .map(|entry| entry.node)
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
    /// One walk over [`XmlTree::elements`], so the counts agree with
    /// [`XmlTree::ext`] and attribute and text slots cost nothing.
    pub fn type_histogram(&self) -> HashMap<ElemId, usize> {
        let mut hist = HashMap::new();
        for ty in self.elements().filter_map(|n| self.element_type(n)) {
            *hist.entry(ty).or_insert(0) += 1;
        }
        hist
    }

    /// Dumps the arena slot-for-slot into a [`TreeSnapshot`] — the
    /// serialization hook of the durable corpus log.  The snapshot keeps
    /// tombstones, child/attribute orders and (implicitly, by position) node
    /// ids, so a tree rebuilt by [`XmlTree::from_snapshot`] replays logged
    /// [`crate::EditOp`]s id-exactly.  Values are resolved to strings: pool
    /// symbols are tree-local and re-interned on reconstruction.  The room
    /// and abandoned blocks of the list vectors are not part of it.
    pub fn snapshot(&self) -> TreeSnapshot {
        let nodes = (0..self.nodes.len() as u32)
            .map(NodeId)
            .map(|id| NodeSnapshot {
                label: self.label(id),
                parent: self.parent(id),
                value: self.value(id).map(str::to_string),
                detached: self.is_detached(id),
                children: self.children(id).to_vec(),
                attrs: self.attributes(id).to_vec(),
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
    /// tombstones, values) is indistinguishable from the snapshotted one,
    /// and every list is packed into its vector without room or gaps; on
    /// any inconsistency a structured [`SnapshotError`] is returned and
    /// nothing is built.  Values are interned into a fresh pool (symbol
    /// numbering may differ from the original tree's; string values, which
    /// are what constraints compare at the edges, are identical).
    pub fn from_snapshot(snapshot: &TreeSnapshot) -> Result<XmlTree, SnapshotError> {
        let n = snapshot.nodes.len();
        if n == 0 {
            return Err(SnapshotError::global("empty arena"));
        }
        if n >= NO_PARENT as usize {
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
        // leaf-ness of attribute and text nodes, element parents, and a
        // leaf's tombstone agreeing with its element's (the tree stores
        // only the element's).
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
                let parent = in_range(p)
                    .map(slot)
                    .ok_or_else(|| SnapshotError::at(id, "parent out of range"))?;
                if !matches!(parent.label, NodeLabel::Element(_)) {
                    return Err(SnapshotError::at(id, "parent is not an element"));
                }
                if !is_element && node.detached != parent.detached {
                    return Err(SnapshotError::at(
                        id,
                        "leaf detached flag differs from its element's",
                    ));
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

        // All invariants hold: rebuild the arena slot-for-slot, packing
        // every list into its vector in element order.
        let elements = snapshot
            .nodes
            .iter()
            .filter(|s| matches!(s.label, NodeLabel::Element(_)))
            .count();
        let (children, attrs) = snapshot.nodes.iter().fold((0, 0), |(c, a), s| {
            (c + s.children.len(), a + s.attrs.len())
        });
        let mut tree = XmlTree {
            nodes: Vec::with_capacity(n),
            entries: Vec::with_capacity(elements),
            children: Vec::with_capacity(children),
            attrs: Vec::with_capacity(attrs),
            root,
            pool: ValuePool::new(),
            live: to_u32(live),
        };
        for (i, s) in snapshot.nodes.iter().enumerate() {
            let slot = match &s.value {
                Some(value) => tree.pool.intern(value).0,
                None => {
                    tree.entries.push(Element {
                        node: NodeId(i as u32),
                        children: Span::packed(&mut tree.children, &s.children),
                        attrs: Span::packed(&mut tree.attrs, &s.attrs),
                        detached: s.detached,
                    });
                    to_u32(tree.entries.len() - 1)
                }
            };
            tree.nodes.push(Node {
                label: s.label,
                parent: s.parent.map_or(NO_PARENT, |p| p.0),
                slot,
            });
        }
        Ok(tree)
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
        // One arena slot is label, parent, and a value or entry index.
        assert!(std::mem::size_of::<Node>() <= 16);
    }

    #[test]
    fn element_entries_stay_small() {
        // Node id, two list ranges and the tombstone flag.
        assert!(std::mem::size_of::<Element>() <= 32);
    }

    /// Entries in use across every element's child and attribute lists.
    fn live_list_entries(t: &XmlTree) -> (usize, usize) {
        t.entries.iter().fold((0, 0), |(c, a), e| {
            (c + e.children.len as usize, a + e.attrs.len as usize)
        })
    }

    #[test]
    fn alternating_appends_keep_the_flat_vectors_bounded() {
        let dtd = example_d1();
        let teachers = dtd.type_by_name("teachers").unwrap();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let mut t = XmlTree::new(teachers);
        let wide: Vec<NodeId> = (0..4000)
            .map(|_| t.add_element(t.root(), teacher))
            .collect();
        // Attributes set after the fact: each empty list restarts at the
        // vector's end, so none leaves a block behind.
        for &w in &wide {
            t.set_attr(w, name, "Joe");
        }
        assert_eq!(t.attrs.len(), wide.len());
        // Two lists that keep displacing each other from the vector's end.
        let parents = [wide[1000], wide[3000]];
        let mut expected = [Vec::new(), Vec::new()];
        for i in 0..10_000 {
            let side = i % 2;
            expected[side].push(t.add_text(parents[side], "x"));
        }
        for side in 0..2 {
            assert_eq!(t.children(parents[side]), &expected[side][..]);
        }
        assert_eq!(t.children(t.root()), &wide[..]);
        let (children, attrs) = live_list_entries(&t);
        assert_eq!(children, 4000 + 10_000);
        let block = MIN_ROOM as usize * t.entries.len();
        assert!(
            t.children.len() <= 2 * children + block,
            "{} child slots for {children} children",
            t.children.len()
        );
        assert!(t.attrs.len() <= 2 * attrs + block);
    }

    #[test]
    fn removal_from_a_moved_list_closes_the_gap_and_keeps_the_room() {
        let dtd = example_d1();
        let teachers = dtd.type_by_name("teachers").unwrap();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let teach = dtd.type_by_name("teach").unwrap();
        let mut t = XmlTree::new(teachers);
        let a = t.add_element(t.root(), teacher);
        let b = t.add_element(t.root(), teacher);
        let mut kids = Vec::new();
        for _ in 0..6 {
            kids.push(t.add_element(a, teach));
            t.add_element(b, teach);
        }
        let moved = t.entries[t.nodes[a.index()].slot as usize].children;
        assert!(moved.cap > moved.len, "the list was moved with room");
        let victim = kids.remove(2);
        assert_eq!(t.remove_subtree(victim), Some(vec![(victim, teach)]));
        assert_eq!(t.children(a), &kids[..]);
        assert_eq!(t.parent(victim), Some(a));
        // The next append reuses the freed slot in place.
        let slots = t.children.len();
        kids.push(t.add_element(a, teach));
        assert_eq!(t.children(a), &kids[..]);
        assert_eq!(t.children.len(), slots);
        assert_eq!(t.elements().collect::<Vec<_>>(), live_element_slots(&t));
    }

    #[test]
    fn snapshot_round_trip_compacts_the_flat_vectors() {
        let dtd = example_d1();
        let mut t = figure1_tree(&dtd);
        let teacher = dtd.type_by_name("teacher").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        let taught_by = dtd.attr_by_name("taught_by").unwrap();
        // Grow lists out of place, then remove a subtree.
        let teachers: Vec<NodeId> = t.ext(teacher).collect();
        for _ in 0..5 {
            for &te in &teachers {
                let s = t.add_element(te, subject);
                t.set_attr(s, taught_by, "Sue");
            }
        }
        t.remove_subtree(t.children(teachers[1])[2]).unwrap();
        let (children, attrs) = live_list_entries(&t);
        assert!(t.children.len() > children);

        let snap = t.snapshot();
        let rebuilt = XmlTree::from_snapshot(&snap).unwrap();
        assert_eq!(rebuilt.snapshot(), snap);
        assert_eq!(live_list_entries(&rebuilt), (children, attrs));
        assert_eq!(rebuilt.children.len(), children);
        assert_eq!(rebuilt.attrs.len(), attrs);
        assert!(rebuilt
            .entries
            .iter()
            .all(|e| e.children.cap == e.children.len && e.attrs.cap == e.attrs.len));
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
        let mut bad = good.clone();
        let shared = bad.nodes[0].children[0];
        bad.nodes[0].children.push(shared);
        assert!(XmlTree::from_snapshot(&bad).is_err());

        // A detached text node under a live element, unlisted: the live
        // structure is intact, but the tree keeps one tombstone per
        // element and could not represent it.
        let mut bad = good.clone();
        let text = (0..bad.nodes.len())
            .map(|i| NodeId(i as u32))
            .find(|&id| bad.nodes[id.index()].label == NodeLabel::Text)
            .unwrap();
        let parent = bad.nodes[text.index()].parent.unwrap();
        bad.nodes[text.index()].detached = true;
        bad.nodes[parent.index()].children.retain(|&c| c != text);
        let err = XmlTree::from_snapshot(&bad).unwrap_err();
        assert_eq!(err.node, Some(text));
        assert!(err.detail.contains("detached"), "{err}");

        // A detached node whose parent is a text node.
        let mut bad = good;
        let teacher = bad.nodes[0].children[0];
        bad.nodes[teacher.index()].parent = Some(text);
        bad.nodes[teacher.index()].detached = true;
        bad.nodes[0].children.retain(|&c| c != teacher);
        let err = XmlTree::from_snapshot(&bad).unwrap_err();
        assert_eq!(err.node, Some(teacher));
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
