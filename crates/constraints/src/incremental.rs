//! `IncrementalIndex` — the workspace's `T ⊨ Σ` index, maintained under
//! point edits in O(edit).
//!
//! Every satisfaction check runs on this index: one-shot checks
//! ([`crate::check_document`]) build it and read the verdict once, batch
//! validation builds one per document over a shared layout, and long-lived
//! sessions keep it exact under [`xic_xml::EditEffect`] deltas at a cost
//! proportional to the edit instead of rebuilding in O(document).
//!
//! The machinery splits along a `(D, Σ)` / `T` boundary:
//!
//! * [`IncrementalLayout`] is the **document-independent** half: one **slot**
//!   per distinct `(τ, X̄)` a constraint mentions, the source descriptors and
//!   watcher lists of every inclusion constraint, and the `(type, attribute)`
//!   touch maps that drive dirty tracking.  It depends only on the
//!   specification, so corpus-scale consumers (`xic-engine`'s
//!   `CompiledSpec`) derive it **once** and share it — behind an `Arc` —
//!   across every open document;
//! * [`IncrementalIndex`] is the **per-document** half: for each slot, the
//!   refcounted tuple → carrier map `{x[X̄] ↦ {elements carrying it}}` as
//!   ordered carrier sets — presence of a tuple is "carrier set non-empty",
//!   which doubles as the inclusion target multiset; per key slot, a
//!   **clash-witness order** (every tuple with ≥ 2 carriers indexed by its
//!   second-smallest carrier, so "the first key clash" in
//!   [`xic_xml::XmlTree::elements`] order — the exact witness a
//!   document-order scan reports — is a single `first_key_value`
//!   lookup); per inclusion constraint, the **source states** (sources
//!   bucketed by tuple, plus ordered sets of sources with missing attributes
//!   and of *dangling* sources whose tuple is absent from the target slot —
//!   target slots notify their watching inclusions on present ↔ absent
//!   transitions, so dangling sets stay exact without rescanning); and a
//!   **dirty set** over the constraints of Σ: an edit marks only the
//!   constraints whose slots mention the touched `(type, attribute)`, and
//!   verdict extraction re-renders violations for those while reusing the
//!   cached answer for everything else.
//!
//! Values are interned ([`xic_xml::ValuePool`]), so tuples are short
//! integer slices hashed with a multiply-rotate hasher; violations resolve
//! their witness tuples back to strings only when they are rendered.  The
//! common shapes cost no allocation of their own: a unary tuple key is
//! stored inline (`TupleKey`), and a set of one element — a tuple with a
//! single carrier, which is every tuple of a satisfied key — is stored
//! inline too (`NodeSet`).
//!
//! The invariant, enforced by `tests/satisfaction_agreement.rs`,
//! `tests/session_agreement.rs` and `tests/corpus_agreement.rs`, is
//! *witness identity*: after any edit sequence,
//! [`IncrementalIndex::check_all`] equals the independent reference
//! checker's [`crate::SatisfactionChecker::check_all`] on the edited tree —
//! same violations, same witnesses, same order.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, OnceLock};

use xic_dtd::{AttrId, Dtd, ElemId};
use xic_telemetry::{Counter, Histogram};
use xic_xml::{EditEffect, NodeId, ValueId, XmlTree};

use crate::classes::ConstraintSet;
use crate::constraint::{Constraint, InclusionSpec};
use crate::satisfy::Violation;

/// A multiply-rotate hasher (FxHash-style) for the interned-tuple maps.
///
/// Tuple keys are short slices of `u32` symbols drawn from a dense pool, so
/// the DoS-resistant SipHash default is pure overhead on this hot path; a
/// two-instruction mix per word is both faster and well distributed here.
#[derive(Debug, Default, Clone)]
struct TupleHasher {
    hash: u64,
}

impl TupleHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for TupleHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type TupleMap<V> = HashMap<TupleKey, V, BuildHasherDefault<TupleHasher>>;

/// An interned tuple `x[X̄]` as a map key: inline for a unary tuple, boxed
/// otherwise.  It borrows as the slice it spells and hashes and compares
/// exactly like that slice, so maps keyed by it are probed with a plain
/// `&[ValueId]` and a lookup never builds a key.
#[derive(Debug)]
enum TupleKey {
    One(ValueId),
    Many(Box<[ValueId]>),
}

impl TupleKey {
    fn as_slice(&self) -> &[ValueId] {
        match self {
            TupleKey::One(value) => std::slice::from_ref(value),
            TupleKey::Many(values) => values,
        }
    }
}

impl From<&[ValueId]> for TupleKey {
    fn from(tuple: &[ValueId]) -> TupleKey {
        match tuple {
            [value] => TupleKey::One(*value),
            _ => TupleKey::Many(tuple.into()),
        }
    }
}

impl Borrow<[ValueId]> for TupleKey {
    fn borrow(&self) -> &[ValueId] {
        self.as_slice()
    }
}

impl PartialEq for TupleKey {
    fn eq(&self, other: &TupleKey) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TupleKey {}

impl Hash for TupleKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// An ordered set of elements, inline while it holds at most one.
///
/// Carrier sets are the common case: under a satisfied key every tuple has
/// exactly one carrier, and most inclusion sources share their tuple with
/// no other source.  A set falls back to a `BTreeSet` from its second
/// element on, and returns to the inline form when it shrinks to one.
#[derive(Debug, Default)]
enum NodeSet {
    #[default]
    Empty,
    One(NodeId),
    Many(BTreeSet<NodeId>),
}

impl NodeSet {
    fn insert(&mut self, node: NodeId) {
        match self {
            NodeSet::Empty => *self = NodeSet::One(node),
            NodeSet::One(only) if *only != node => {
                *self = NodeSet::Many(BTreeSet::from([*only, node]));
            }
            NodeSet::One(_) => {}
            NodeSet::Many(set) => {
                set.insert(node);
            }
        }
    }

    fn remove(&mut self, node: NodeId) {
        match self {
            NodeSet::One(only) if *only == node => *self = NodeSet::Empty,
            NodeSet::Many(set) => {
                set.remove(&node);
                if set.len() == 1 {
                    *self = NodeSet::One(*set.first().expect("one element left"));
                }
            }
            _ => {}
        }
    }

    fn is_empty(&self) -> bool {
        matches!(self, NodeSet::Empty)
    }

    fn len(&self) -> usize {
        match self {
            NodeSet::Empty => 0,
            NodeSet::One(_) => 1,
            NodeSet::Many(set) => set.len(),
        }
    }

    /// The smallest element.
    fn first(&self) -> Option<NodeId> {
        match self {
            NodeSet::Empty => None,
            NodeSet::One(only) => Some(*only),
            NodeSet::Many(set) => set.first().copied(),
        }
    }

    /// The second-smallest element: a tuple's clash witness.
    fn second(&self) -> Option<NodeId> {
        match self {
            NodeSet::Many(set) => set.iter().nth(1).copied(),
            _ => None,
        }
    }

    /// The elements in ascending order.
    fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (only, many) = match self {
            NodeSet::Empty => (None, None),
            NodeSet::One(only) => (Some(*only), None),
            NodeSet::Many(set) => (None, Some(set.iter().copied())),
        };
        only.into_iter().chain(many.into_iter().flatten())
    }
}

/// Process-wide incremental-index instruments (builds, build latency,
/// constraints recomputed by verdict extraction), resolved once.
fn instruments() -> &'static (Arc<Counter>, Arc<Histogram>, Arc<Counter>) {
    static INSTRUMENTS: OnceLock<(Arc<Counter>, Arc<Histogram>, Arc<Counter>)> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        let telemetry = xic_telemetry::global();
        (
            telemetry.counter("incremental.builds"),
            telemetry.histogram("incremental.build_ns"),
            telemetry.counter("incremental.constraints_rechecked"),
        )
    })
}

/// The document-independent descriptor of one `(τ, X̄)` slot.
#[derive(Debug)]
struct SlotSpec {
    ty: ElemId,
    attrs: Vec<AttrId>,
    /// Whether any key constraint reads this slot's clashes (pure inclusion
    /// targets skip clash bookkeeping).
    track_clash: bool,
    /// Indices into the source table to notify on tuple present ↔ absent
    /// flips.
    watchers: Vec<usize>,
}

/// The document-independent descriptor of one inclusion constraint's source
/// side `τ1[X̄] ⊆ τ2[Ȳ]`.
#[derive(Debug)]
struct SourceSpec {
    from_ty: ElemId,
    from_attrs: Vec<AttrId>,
    /// The slot holding the target tuple multiset.
    target: usize,
}

/// How one constraint of Σ reads the maintained state.
#[derive(Debug, Clone, Copy)]
enum Check {
    Key { slot: usize },
    NotKey { slot: usize },
    Inclusion { source: usize },
    NotInclusion { source: usize },
    ForeignKey { slot: usize, source: usize },
}

/// The `(D, Σ)`-only layout of an [`IncrementalIndex`]: slot and source
/// descriptors, watcher lists, and the `(type, attribute)` touch maps that
/// drive constraint dirty tracking.
///
/// Deriving the layout walks Σ once and the document never; it is therefore
/// computed **per specification**, not per document.  `xic-engine` stores
/// one on every `CompiledSpec`, and every document checked or opened against
/// that spec shares it through [`IncrementalIndex::with_layout`].
#[derive(Debug)]
pub struct IncrementalLayout {
    checks: Vec<(Check, String)>,
    slots: Vec<SlotSpec>,
    sources: Vec<SourceSpec>,
    /// Slot indices to update when an element of the type appears/vanishes,
    /// indexed by [`ElemId::index`] (every type of the DTD has an entry).
    slots_of_ty: Vec<Vec<usize>>,
    /// Source indices to update, indexed the same way.
    sources_of_ty: Vec<Vec<usize>>,
    /// Constraints whose verdict can change when the type's extension does.
    checks_of_ty: HashMap<ElemId, Vec<usize>>,
    /// Constraints whose verdict can change when `(τ, l)` values do.
    checks_of_attr: HashMap<(ElemId, AttrId), Vec<usize>>,
}

impl IncrementalLayout {
    /// Lays out slots, source descriptors, watcher lists and touch maps for
    /// Σ.  Pure in `(D, Σ)`: no document is consulted.
    pub fn new(dtd: &Dtd, sigma: &ConstraintSet) -> IncrementalLayout {
        let mut slots: Vec<SlotSpec> = Vec::new();
        let mut sources: Vec<SourceSpec> = Vec::new();
        let mut checks: Vec<(Check, String)> = Vec::new();

        for c in sigma.iter() {
            let rendered = c.render(dtd);
            let check = match c {
                Constraint::Key(k) => Check::Key {
                    slot: slot_index(&mut slots, k.ty, &k.attrs, true),
                },
                Constraint::NotKey(k) => Check::NotKey {
                    slot: slot_index(&mut slots, k.ty, &k.attrs, true),
                },
                Constraint::Inclusion(i) => Check::Inclusion {
                    source: source_index(&mut sources, &mut slots, i),
                },
                Constraint::NotInclusion(i) => Check::NotInclusion {
                    source: source_index(&mut sources, &mut slots, i),
                },
                Constraint::ForeignKey(i) => Check::ForeignKey {
                    slot: slot_index(&mut slots, i.to_ty, &i.to_attrs, true),
                    source: source_index(&mut sources, &mut slots, i),
                },
            };
            checks.push((check, rendered));
        }

        // Register watchers now that source targets are final.
        for (qi, src) in sources.iter().enumerate() {
            let watchers = &mut slots[src.target].watchers;
            if !watchers.contains(&qi) {
                watchers.push(qi);
            }
        }

        let mut slots_of_ty: Vec<Vec<usize>> = vec![Vec::new(); dtd.num_types()];
        for (i, s) in slots.iter().enumerate() {
            slots_of_ty[s.ty.index()].push(i);
        }
        let mut sources_of_ty: Vec<Vec<usize>> = vec![Vec::new(); dtd.num_types()];
        for (i, s) in sources.iter().enumerate() {
            sources_of_ty[s.from_ty.index()].push(i);
        }

        // Touch maps: which constraints can change verdict when a type's
        // extension changes, or when a (type, attribute) value changes.
        let mut checks_of_ty: HashMap<ElemId, Vec<usize>> = HashMap::new();
        let mut checks_of_attr: HashMap<(ElemId, AttrId), Vec<usize>> = HashMap::new();
        let touch = |map: &mut HashMap<ElemId, Vec<usize>>,
                     attr_map: &mut HashMap<(ElemId, AttrId), Vec<usize>>,
                     idx: usize,
                     ty: ElemId,
                     attrs: &[AttrId]| {
            let list = map.entry(ty).or_default();
            if !list.contains(&idx) {
                list.push(idx);
            }
            for &a in attrs {
                let list = attr_map.entry((ty, a)).or_default();
                if !list.contains(&idx) {
                    list.push(idx);
                }
            }
        };
        for (idx, c) in sigma.iter().enumerate() {
            match c {
                Constraint::Key(k) | Constraint::NotKey(k) => {
                    touch(&mut checks_of_ty, &mut checks_of_attr, idx, k.ty, &k.attrs);
                }
                Constraint::Inclusion(i)
                | Constraint::NotInclusion(i)
                | Constraint::ForeignKey(i) => {
                    touch(
                        &mut checks_of_ty,
                        &mut checks_of_attr,
                        idx,
                        i.from_ty,
                        &i.from_attrs,
                    );
                    touch(
                        &mut checks_of_ty,
                        &mut checks_of_attr,
                        idx,
                        i.to_ty,
                        &i.to_attrs,
                    );
                }
            }
        }

        IncrementalLayout {
            checks,
            slots,
            sources,
            slots_of_ty,
            sources_of_ty,
            checks_of_ty,
            checks_of_attr,
        }
    }

    /// The slots an element of type `ty` carries a tuple in.
    fn slots_of(&self, ty: ElemId) -> &[usize] {
        self.slots_of_ty.get(ty.index()).map_or(&[], Vec::as_slice)
    }

    /// The inclusion sources an element of type `ty` is filed in.
    fn sources_of(&self, ty: ElemId) -> &[usize] {
        self.sources_of_ty
            .get(ty.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Number of constraints in Σ (one cached verdict each).
    pub fn num_checks(&self) -> usize {
        self.checks.len()
    }

    /// Number of distinct `(τ, X̄)` slots the layout maintains.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of inclusion source states.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// The constraints whose verdict can change when the extension of `ty`
    /// does (elements of the type appearing or vanishing) — exactly the set
    /// [`IncrementalIndex`] marks dirty for an `ElementAdded` /
    /// `SubtreeRemoved` effect on the type.  Routing layers (a coordinator
    /// fanning edit batches out to shard workers) use this to predict a
    /// batch's dirty set without owning an index.
    pub fn checks_touched_by_ty(&self, ty: ElemId) -> &[usize] {
        self.checks_of_ty.get(&ty).map_or(&[], Vec::as_slice)
    }

    /// The constraints whose verdict can change when `(ty, attr)` values do
    /// — the set an `AttrSet` effect marks dirty (an `AttrSet` whose new
    /// value equals the old marks nothing).
    pub fn checks_touched_by_attr(&self, ty: ElemId, attr: AttrId) -> &[usize] {
        self.checks_of_attr
            .get(&(ty, attr))
            .map_or(&[], Vec::as_slice)
    }
}

/// The connected components of the layout's touch-graph: two constraints
/// share a shard exactly when a chain of shared `(type, attribute)` touches
/// links them, so an edit can flip verdicts in at most the shards its
/// touch-set intersects.  Derived once per specification from the
/// [`IncrementalLayout`] touch maps — pure in `(D, Σ)`, like the layout.
///
/// Shard ids are canonical: shards are numbered by the first constraint
/// (in Σ order) they contain, so the same Σ always yields the same plan
/// regardless of map iteration order.
#[derive(Debug)]
pub struct ShardPlan {
    shard_of_check: Vec<u32>,
    checks_of_shard: Vec<Vec<usize>>,
    /// Rendered constraint → shard, for projecting reports whose violations
    /// carry only the rendered form.  Identical renders name identical
    /// slots, so the keying is unambiguous.
    shard_of_rendered: HashMap<String, u32>,
    /// Rendered constraint → first Σ index carrying that render, for
    /// re-interleaving per-shard violation slices back into global Σ order
    /// (verdict extraction emits at most one violation per constraint, in
    /// Σ order, so a stable sort on this key reproduces the monolithic
    /// ordering exactly).
    order_of_rendered: HashMap<String, usize>,
}

/// Union-find root with path halving.
fn uf_find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

impl ShardPlan {
    /// Computes the touch-graph components of `layout`.  Every
    /// `checks_of_ty` / `checks_of_attr` bucket is a clique in the touch
    /// graph (all its constraints react to the same touch), so unioning
    /// along buckets yields exactly the connected components.
    pub fn of_layout(layout: &IncrementalLayout) -> ShardPlan {
        let n = layout.checks.len();
        let mut parent: Vec<usize> = (0..n).collect();
        let buckets = layout
            .checks_of_ty
            .values()
            .chain(layout.checks_of_attr.values());
        for bucket in buckets {
            let Some(&first) = bucket.first() else {
                continue;
            };
            for &other in &bucket[1..] {
                let a = uf_find(&mut parent, first);
                let b = uf_find(&mut parent, other);
                if a != b {
                    parent[b] = a;
                }
            }
        }
        let mut id_of_root: HashMap<usize, u32> = HashMap::new();
        let mut shard_of_check = Vec::with_capacity(n);
        let mut checks_of_shard: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let root = uf_find(&mut parent, i);
            let id = *id_of_root.entry(root).or_insert_with(|| {
                checks_of_shard.push(Vec::new());
                (checks_of_shard.len() - 1) as u32
            });
            shard_of_check.push(id);
            checks_of_shard[id as usize].push(i);
        }
        let shard_of_rendered = layout
            .checks
            .iter()
            .enumerate()
            .map(|(i, (_, rendered))| (rendered.clone(), shard_of_check[i]))
            .collect();
        let mut order_of_rendered: HashMap<String, usize> = HashMap::new();
        for (i, (_, rendered)) in layout.checks.iter().enumerate() {
            order_of_rendered.entry(rendered.clone()).or_insert(i);
        }
        ShardPlan {
            shard_of_check,
            checks_of_shard,
            shard_of_rendered,
            order_of_rendered,
        }
    }

    /// Number of touch-graph components (shards).  Zero for an empty Σ.
    pub fn num_shards(&self) -> usize {
        self.checks_of_shard.len()
    }

    /// Number of constraints the plan partitions.
    pub fn num_checks(&self) -> usize {
        self.shard_of_check.len()
    }

    /// The shard holding constraint `idx` (Σ order).
    pub fn shard_of_check(&self, idx: usize) -> u32 {
        self.shard_of_check[idx]
    }

    /// The constraint indices of shard `shard`, in Σ order.
    pub fn checks_of_shard(&self, shard: u32) -> &[usize] {
        &self.checks_of_shard[shard as usize]
    }

    /// The shard of a rendered constraint, as carried by a
    /// [`Violation`] — `None` when Σ contains no such constraint.
    pub fn shard_of_rendered(&self, rendered: &str) -> Option<u32> {
        self.shard_of_rendered.get(rendered).copied()
    }

    /// Every shard id, in canonical order.
    pub fn all_shards(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.checks_of_shard.len() as u32
    }

    /// The Σ position of a rendered constraint (first occurrence for
    /// duplicate renders — duplicates share a shard, so slices keep their
    /// relative order under a stable sort on this key).  `None` when Σ
    /// contains no such constraint.  The merge key for recombining
    /// per-shard violation slices into the monolithic report order.
    pub fn order_of_rendered(&self, rendered: &str) -> Option<usize> {
        self.order_of_rendered.get(rendered).copied()
    }
}

/// One constraint whose cached verdict an
/// [`IncrementalIndex::refresh_where`] changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictChange {
    /// The constraint's position in Σ (its check index).
    pub check: usize,
    /// Whether it was violated before the extraction.
    pub was_violated: bool,
    /// Whether it is violated now.  Equal to `was_violated` when only the
    /// witness changed.
    pub now_violated: bool,
}

/// Per-document mutable state of one slot (the spec half lives in
/// [`IncrementalLayout`]).
#[derive(Debug, Default)]
struct SlotData {
    /// Every tuple present in the document, with the ordered set of
    /// elements carrying it (the "multiset" view: multiplicity = set size).
    /// Absent tuples have no entry, so no set here is empty; a tuple with
    /// one carrier costs its map entry and nothing else.
    carriers: TupleMap<NodeSet>,
    /// Second-smallest carrier → tuple, for every tuple with ≥ 2 carriers.
    /// Each element carries exactly one tuple per slot, so the keys are
    /// unique; the first entry is the traversal-order first clash (the
    /// ascending-id order of [`xic_xml::XmlTree::elements`], which every
    /// checker in the workspace scans in).
    clashes: BTreeMap<NodeId, TupleKey>,
}

/// Per-document mutable state of one inclusion source.
#[derive(Debug, Default)]
struct SourceData {
    /// Live sources bucketed by their tuple (no bucket is empty).
    by_tuple: TupleMap<NodeSet>,
    /// Sources missing one of `from_attrs` (a violation of its own kind).
    missing: NodeSet,
    /// Sources whose tuple is absent from the target slot.
    dangling: NodeSet,
}

/// The set filed under `tuple` in `map`, created empty if absent.  A
/// unary key is built inline, so `entry`'s one probe is the whole cost; a
/// wider tuple is boxed only the first time it is filed.
fn set_of<'m>(map: &'m mut TupleMap<NodeSet>, tuple: &[ValueId]) -> &'m mut NodeSet {
    if let [value] = tuple {
        return map.entry(TupleKey::One(*value)).or_default();
    }
    if !map.contains_key(tuple) {
        map.insert(TupleKey::from(tuple), NodeSet::Empty);
    }
    map.get_mut(tuple).expect("filed above")
}

/// Incrementally maintained satisfaction indexes for one `(Σ, T)` pair.
///
/// Built once with [`IncrementalIndex::build`] (standalone) or
/// [`IncrementalIndex::with_layout`] (sharing a precomputed spec-level
/// [`IncrementalLayout`]); kept exact by feeding every [`EditEffect`] the
/// tree produces to [`IncrementalIndex::apply`] — *immediately* after the
/// edit, against the already-mutated tree (removed subtrees stay readable as
/// tombstones, which retraction relies on).
/// [`IncrementalIndex::check_all`] then reproduces the full-rebuild verdict
/// from cached per-constraint answers, recomputing only the dirty ones.
#[derive(Debug)]
pub struct IncrementalIndex {
    layout: Arc<IncrementalLayout>,
    slots: Vec<SlotData>,
    sources: Vec<SourceData>,
    dirty_flags: Vec<bool>,
    dirty: Vec<usize>,
    cache: Vec<Option<Violation>>,
    /// How many constraints the last [`IncrementalIndex::check_all`] had to
    /// recompute (the rest came from cache) — the observable O(edit) claim.
    rechecked: usize,
}

impl IncrementalIndex {
    /// Standalone build: derives a fresh layout for `(D, Σ)`, then populates
    /// it from `tree`.  One-shot and single-document callers use this;
    /// callers checking many documents against one spec derive the layout
    /// once and use [`IncrementalIndex::with_layout`].
    pub fn build(dtd: &Dtd, sigma: &ConstraintSet, tree: &XmlTree) -> IncrementalIndex {
        IncrementalIndex::with_layout(Arc::new(IncrementalLayout::new(dtd, sigma)), tree)
    }

    /// Populates per-document state over a shared, precomputed layout in
    /// traversal order — every slot first, then every inclusion source
    /// (every constraint starts dirty, so the first verdict is computed, not
    /// assumed).  No layout derivation happens here: the `Arc` is the only
    /// thing cloned.  Each tuple map is sized up front from the extension
    /// of its element type, counted in one pass over the tree, so filing
    /// the document's tuples never rehashes.
    pub fn with_layout(layout: Arc<IncrementalLayout>, tree: &XmlTree) -> IncrementalIndex {
        let (builds, build_ns, _) = instruments();
        let timer = xic_telemetry::global().start_timer();
        let index = IncrementalIndex::with_layout_uninstrumented(layout, tree);
        builds.inc();
        if let Some(t) = timer {
            build_ns.record_elapsed(t);
        }
        index
    }

    fn with_layout_uninstrumented(
        layout: Arc<IncrementalLayout>,
        tree: &XmlTree,
    ) -> IncrementalIndex {
        let n = layout.checks.len();
        let mut ext = vec![0usize; layout.slots_of_ty.len()];
        for node in tree.elements() {
            if let Some(count) = tree
                .element_type(node)
                .and_then(|ty| ext.get_mut(ty.index()))
            {
                *count += 1;
            }
        }
        let sized = |ty: ElemId| {
            TupleMap::with_capacity_and_hasher(
                ext.get(ty.index()).copied().unwrap_or(0),
                Default::default(),
            )
        };
        let mut index = IncrementalIndex {
            slots: layout
                .slots
                .iter()
                .map(|spec| SlotData {
                    carriers: sized(spec.ty),
                    ..SlotData::default()
                })
                .collect(),
            sources: layout
                .sources
                .iter()
                .map(|spec| SourceData {
                    by_tuple: sized(spec.from_ty),
                    ..SourceData::default()
                })
                .collect(),
            layout,
            dirty_flags: vec![true; n],
            dirty: (0..n).collect(),
            cache: vec![None; n],
            rechecked: 0,
        };
        let layout = Arc::clone(&index.layout);
        let mut tuple: Vec<ValueId> = Vec::new();
        // Every slot's carriers first: elements arrive in ascending id
        // order, so a tuple's second carrier is the one that brings its set
        // to two, and no presence notification can fire while no source is
        // filed yet.
        for node in tree.elements() {
            let Some(ty) = tree.element_type(node) else {
                continue;
            };
            for &si in layout.slots_of(ty) {
                let spec = &layout.slots[si];
                if !tree.attr_value_ids(node, &spec.attrs, &mut tuple) {
                    continue;
                }
                let slot = &mut index.slots[si];
                let set = set_of(&mut slot.carriers, &tuple);
                set.insert(node);
                if spec.track_clash && set.len() == 2 {
                    slot.clashes.insert(node, TupleKey::from(tuple.as_slice()));
                }
            }
        }
        // Then every source, against the now-complete target slots.
        if !layout.sources.is_empty() {
            for node in tree.elements() {
                let Some(ty) = tree.element_type(node) else {
                    continue;
                };
                for &qi in layout.sources_of(ty) {
                    let spec = &layout.sources[qi];
                    let src = &mut index.sources[qi];
                    if !tree.attr_value_ids(node, &spec.from_attrs, &mut tuple) {
                        src.missing.insert(node);
                        continue;
                    }
                    if !index.slots[spec.target]
                        .carriers
                        .contains_key(tuple.as_slice())
                    {
                        src.dangling.insert(node);
                    }
                    set_of(&mut src.by_tuple, &tuple).insert(node);
                }
            }
        }
        index
    }

    /// The shared spec-level layout this index populates.
    pub fn layout(&self) -> &Arc<IncrementalLayout> {
        &self.layout
    }

    /// How many constraints the last verdict extraction recomputed.
    pub fn rechecked(&self) -> usize {
        self.rechecked
    }

    /// Number of constraints currently marked dirty.
    pub fn pending(&self) -> usize {
        self.dirty.len()
    }

    /// The constraint indices currently marked dirty, in marking order.
    /// Shard-aware callers map these through a [`ShardPlan`] *before*
    /// verdict extraction (which drains the set) to learn which shards the
    /// pending edits can affect.
    pub fn dirty_checks(&self) -> &[usize] {
        &self.dirty
    }

    // ------------------------------------------------------------------
    // Edit application
    // ------------------------------------------------------------------

    /// Folds one applied edit into the maintained state.  Must be called
    /// with the tree the effect was produced on, *after* the edit.
    pub fn apply(&mut self, tree: &XmlTree, effect: &EditEffect) {
        // The immutable layout is read alongside the mutable per-document
        // state throughout; an Arc clone (one refcount bump) decouples the
        // two borrows without moving anything.
        let layout = Arc::clone(&self.layout);
        match effect {
            EditEffect::AttrSet {
                element,
                ty,
                attr,
                old,
                new,
            } => {
                if *old == Some(*new) {
                    return;
                }
                self.mark_dirty_attr(&layout, *ty, *attr);
                for si in layout.slots_of(*ty) {
                    let spec = &layout.slots[*si];
                    if !spec.attrs.contains(attr) {
                        continue;
                    }
                    let old_tuple = tuple_with_displaced(tree, *element, &spec.attrs, *attr, *old);
                    let new_tuple = tuple_of(tree, *element, &spec.attrs);
                    if old_tuple == new_tuple {
                        continue;
                    }
                    if let Some(t) = old_tuple {
                        self.remove_carrier(&layout, *si, &t, *element);
                    }
                    if let Some(t) = new_tuple {
                        self.add_carrier(&layout, *si, &t, *element);
                    }
                }
                for qi in layout.sources_of(*ty) {
                    let spec = &layout.sources[*qi];
                    if !spec.from_attrs.contains(attr) {
                        continue;
                    }
                    let old_tuple =
                        tuple_with_displaced(tree, *element, &spec.from_attrs, *attr, *old);
                    let new_tuple = tuple_of(tree, *element, &spec.from_attrs);
                    if old_tuple == new_tuple {
                        continue;
                    }
                    self.remove_source(&layout, *qi, old_tuple.as_deref(), *element);
                    self.add_source(&layout, *qi, new_tuple.as_deref(), *element);
                }
            }
            EditEffect::ElementAdded { element, ty, .. } => {
                self.mark_dirty_ty(&layout, *ty);
                self.insert_element(tree, *element, *ty);
            }
            EditEffect::TextAdded { .. } => {
                // Text values are invisible to attribute-based constraints.
            }
            EditEffect::SubtreeRemoved { elements, .. } => {
                for &(node, ty) in elements {
                    self.mark_dirty_ty(&layout, ty);
                    self.retract_element(tree, node, ty);
                }
            }
        }
    }

    fn insert_element(&mut self, tree: &XmlTree, node: NodeId, ty: ElemId) {
        let layout = Arc::clone(&self.layout);
        for si in layout.slots_of(ty) {
            if let Some(t) = tuple_of(tree, node, &layout.slots[*si].attrs) {
                self.add_carrier(&layout, *si, &t, node);
            }
        }
        for qi in layout.sources_of(ty) {
            let t = tuple_of(tree, node, &layout.sources[*qi].from_attrs);
            self.add_source(&layout, *qi, t.as_deref(), node);
        }
    }

    /// Retracts a removed element; its attribute values are read from the
    /// tombstoned arena slot, which [`XmlTree::remove_subtree`] preserves.
    fn retract_element(&mut self, tree: &XmlTree, node: NodeId, ty: ElemId) {
        let layout = Arc::clone(&self.layout);
        for si in layout.slots_of(ty) {
            if let Some(t) = tuple_of(tree, node, &layout.slots[*si].attrs) {
                self.remove_carrier(&layout, *si, &t, node);
            }
        }
        for qi in layout.sources_of(ty) {
            let t = tuple_of(tree, node, &layout.sources[*qi].from_attrs);
            self.remove_source(&layout, *qi, t.as_deref(), node);
        }
    }

    fn add_carrier(
        &mut self,
        layout: &IncrementalLayout,
        si: usize,
        tuple: &[ValueId],
        node: NodeId,
    ) {
        let became_present;
        {
            let slot = &mut self.slots[si];
            let set = set_of(&mut slot.carriers, tuple);
            became_present = set.is_empty();
            let old_second = set.second();
            set.insert(node);
            let new_second = set.second();
            if layout.slots[si].track_clash && old_second != new_second {
                if let Some(s) = old_second {
                    slot.clashes.remove(&s);
                }
                if let Some(s) = new_second {
                    slot.clashes.insert(s, TupleKey::from(tuple));
                }
            }
        }
        if became_present {
            self.notify_presence(layout, si, tuple, true);
        }
    }

    fn remove_carrier(
        &mut self,
        layout: &IncrementalLayout,
        si: usize,
        tuple: &[ValueId],
        node: NodeId,
    ) {
        let became_absent;
        {
            let slot = &mut self.slots[si];
            let Some(set) = slot.carriers.get_mut(tuple) else {
                debug_assert!(false, "removing a carrier that was never added");
                return;
            };
            let old_second = set.second();
            set.remove(node);
            let new_second = set.second();
            if layout.slots[si].track_clash && old_second != new_second {
                if let Some(s) = old_second {
                    slot.clashes.remove(&s);
                }
                if let Some(s) = new_second {
                    slot.clashes.insert(s, TupleKey::from(tuple));
                }
            }
            became_absent = set.is_empty();
            if became_absent {
                slot.carriers.remove(tuple);
            }
        }
        if became_absent {
            self.notify_presence(layout, si, tuple, false);
        }
    }

    /// Re-files the sources carrying `tuple` when its target-slot presence
    /// flips (the 0 ↔ 1 multiset transitions the dangling sets hinge on).
    fn notify_presence(
        &mut self,
        layout: &IncrementalLayout,
        si: usize,
        tuple: &[ValueId],
        present: bool,
    ) {
        for &qi in &layout.slots[si].watchers {
            let SourceData {
                by_tuple, dangling, ..
            } = &mut self.sources[qi];
            if let Some(nodes) = by_tuple.get(tuple) {
                for n in nodes.iter() {
                    if present {
                        dangling.remove(n);
                    } else {
                        dangling.insert(n);
                    }
                }
            }
        }
    }

    fn add_source(
        &mut self,
        layout: &IncrementalLayout,
        qi: usize,
        tuple: Option<&[ValueId]>,
        node: NodeId,
    ) {
        match tuple {
            None => {
                self.sources[qi].missing.insert(node);
            }
            Some(t) => {
                let target = layout.sources[qi].target;
                let present = self.slots[target].carriers.contains_key(t);
                let src = &mut self.sources[qi];
                set_of(&mut src.by_tuple, t).insert(node);
                if !present {
                    src.dangling.insert(node);
                }
            }
        }
    }

    fn remove_source(
        &mut self,
        _layout: &IncrementalLayout,
        qi: usize,
        tuple: Option<&[ValueId]>,
        node: NodeId,
    ) {
        let src = &mut self.sources[qi];
        match tuple {
            None => {
                src.missing.remove(node);
            }
            Some(t) => {
                if let Some(set) = src.by_tuple.get_mut(t) {
                    set.remove(node);
                    if set.is_empty() {
                        src.by_tuple.remove(t);
                    }
                }
                src.dangling.remove(node);
            }
        }
    }

    fn mark_dirty_ty(&mut self, layout: &IncrementalLayout, ty: ElemId) {
        if let Some(list) = layout.checks_of_ty.get(&ty) {
            for &i in list {
                if !self.dirty_flags[i] {
                    self.dirty_flags[i] = true;
                    self.dirty.push(i);
                }
            }
        }
    }

    fn mark_dirty_attr(&mut self, layout: &IncrementalLayout, ty: ElemId, attr: AttrId) {
        if let Some(list) = layout.checks_of_attr.get(&(ty, attr)) {
            for &i in list {
                if !self.dirty_flags[i] {
                    self.dirty_flags[i] = true;
                    self.dirty.push(i);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Verdict extraction
    // ------------------------------------------------------------------

    /// `T ⊨ Σ`: every violation, in Σ order — identical (violations,
    /// witnesses and all) to a from-scratch
    /// [`crate::SatisfactionChecker`] pass over the current tree.  Only
    /// dirty constraints are recomputed.
    pub fn check_all(&mut self, tree: &XmlTree) -> Vec<Violation> {
        self.refresh_where(tree, |_| true, &mut Vec::new());
        self.violations().cloned().collect()
    }

    /// Verdict extraction as a delta: dirty constraints satisfying `keep`
    /// are recomputed (and counted as rechecked), and each whose cached
    /// violation changed is appended to `changes`; the rest are *dropped*
    /// — their cached verdict is cleared, not refreshed — so out-of-scope
    /// constraints never surface in [`IncrementalIndex::violations`].
    /// Only meaningful when the scope is fixed for the index's lifetime (a
    /// dropped verdict is not recoverable without re-dirtying).  Nothing
    /// is cloned: a caller holding the previous violation list patches it
    /// only when `changes` is non-empty.
    pub fn refresh_where(
        &mut self,
        tree: &XmlTree,
        mut keep: impl FnMut(usize) -> bool,
        changes: &mut Vec<VerdictChange>,
    ) {
        let dirty = std::mem::take(&mut self.dirty);
        self.rechecked = 0;
        for i in dirty {
            self.dirty_flags[i] = false;
            let fresh = if keep(i) {
                self.rechecked += 1;
                self.violation_of(i, tree)
            } else {
                None
            };
            if fresh != self.cache[i] {
                changes.push(VerdictChange {
                    check: i,
                    was_violated: self.cache[i].is_some(),
                    now_violated: fresh.is_some(),
                });
                self.cache[i] = fresh;
            }
        }
        instruments().2.add(self.rechecked as u64);
    }

    /// The cached violations, in Σ order, as of the last extraction.
    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.cache.iter().flatten()
    }

    /// `T ⊨ Σ` as a boolean.
    pub fn satisfies_all(&mut self, tree: &XmlTree) -> bool {
        self.check_all(tree).is_empty()
    }

    fn violation_of(&self, idx: usize, tree: &XmlTree) -> Option<Violation> {
        let (check, rendered) = &self.layout.checks[idx];
        match *check {
            Check::Key { slot } => self.key_violation(slot, rendered, tree),
            Check::NotKey { slot } => match self.key_clash(slot) {
                Some(_) => None,
                None => Some(Violation::NegationUnsatisfied {
                    constraint: rendered.clone(),
                }),
            },
            Check::Inclusion { source } => self.inclusion_violation(source, rendered, tree),
            Check::NotInclusion { source } => {
                if self.first_bad_source(source).is_none() {
                    Some(Violation::NegationUnsatisfied {
                        constraint: rendered.clone(),
                    })
                } else {
                    None
                }
            }
            Check::ForeignKey { slot, source } => self
                .key_violation(slot, rendered, tree)
                .or_else(|| self.inclusion_violation(source, rendered, tree)),
        }
    }

    /// The first clash of a key slot: `(first carrier, second occurrence,
    /// shared tuple)`, exactly as a full document-order scan reports it.
    fn key_clash(&self, si: usize) -> Option<(NodeId, NodeId, &[ValueId])> {
        let slot = &self.slots[si];
        debug_assert!(
            self.layout.slots[si].track_clash,
            "clash read on a non-key slot"
        );
        let (&second, tuple) = slot.clashes.first_key_value()?;
        let tuple = tuple.as_slice();
        let first = slot
            .carriers
            .get(tuple)
            .and_then(NodeSet::first)
            .expect("clash entries always name live tuples");
        Some((first, second, tuple))
    }

    fn key_violation(&self, si: usize, rendered: &str, tree: &XmlTree) -> Option<Violation> {
        self.key_clash(si)
            .map(|(first, second, tuple)| Violation::KeyViolation {
                constraint: rendered.to_string(),
                witnesses: (first, second),
                values: resolve_tuple(tree, tuple),
            })
    }

    /// The traversal-order first violating source: missing attributes or
    /// dangling tuple, whichever node comes first.
    fn first_bad_source(&self, qi: usize) -> Option<(NodeId, bool)> {
        let src = &self.sources[qi];
        let missing = src.missing.first();
        let dangling = src.dangling.first();
        match (missing, dangling) {
            (None, None) => None,
            (Some(m), None) => Some((m, true)),
            (None, Some(d)) => Some((d, false)),
            (Some(m), Some(d)) => {
                if m < d {
                    Some((m, true))
                } else {
                    Some((d, false))
                }
            }
        }
    }

    fn inclusion_violation(&self, qi: usize, rendered: &str, tree: &XmlTree) -> Option<Violation> {
        let (witness, is_missing) = self.first_bad_source(qi)?;
        if is_missing {
            return Some(Violation::MissingAttributes {
                constraint: rendered.to_string(),
                witness,
            });
        }
        let tuple = tuple_of(tree, witness, &self.layout.sources[qi].from_attrs)
            .expect("dangling sources carry a full tuple");
        Some(Violation::InclusionViolation {
            constraint: rendered.to_string(),
            witness,
            values: resolve_tuple(tree, &tuple),
        })
    }
}

/// Registers (or reuses) the slot for `(τ, X̄)`; `clash` upgrades it to a
/// key slot (clash bookkeeping on top of the carrier map).
fn slot_index(slots: &mut Vec<SlotSpec>, ty: ElemId, attrs: &[AttrId], clash: bool) -> usize {
    if let Some(i) = slots.iter().position(|s| s.ty == ty && s.attrs == attrs) {
        slots[i].track_clash |= clash;
        return i;
    }
    slots.push(SlotSpec {
        ty,
        attrs: attrs.to_vec(),
        track_clash: clash,
        watchers: Vec::new(),
    });
    slots.len() - 1
}

/// Registers (or reuses) the source descriptor of an inclusion constraint;
/// the target slot is a key slot for foreign keys (its carrier map doubles
/// as the target multiset) and a plain slot otherwise.
fn source_index(
    sources: &mut Vec<SourceSpec>,
    slots: &mut Vec<SlotSpec>,
    i: &InclusionSpec,
) -> usize {
    let target = slot_index(slots, i.to_ty, &i.to_attrs, false);
    if let Some(q) = sources
        .iter()
        .position(|s| s.from_ty == i.from_ty && s.from_attrs == i.from_attrs && s.target == target)
    {
        return q;
    }
    sources.push(SourceSpec {
        from_ty: i.from_ty,
        from_attrs: i.from_attrs.clone(),
        target,
    });
    sources.len() - 1
}

/// The interned tuple `x[X̄]`, or `None` if any attribute is missing.
fn tuple_of(tree: &XmlTree, node: NodeId, attrs: &[AttrId]) -> Option<Vec<ValueId>> {
    attrs.iter().map(|&a| tree.attr_value_id(node, a)).collect()
}

/// The tuple the element carried *before* a `SetAttr` on `changed`: the
/// current values everywhere except `changed`, which reads the displaced
/// value (`None` if the attribute did not exist).
fn tuple_with_displaced(
    tree: &XmlTree,
    node: NodeId,
    attrs: &[AttrId],
    changed: AttrId,
    displaced: Option<ValueId>,
) -> Option<Vec<ValueId>> {
    attrs
        .iter()
        .map(|&a| {
            if a == changed {
                displaced
            } else {
                tree.attr_value_id(node, a)
            }
        })
        .collect()
}

fn resolve_tuple(tree: &XmlTree, tuple: &[ValueId]) -> Vec<String> {
    tuple
        .iter()
        .map(|&id| tree.resolve(id).to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{example_sigma1, example_sigma3};
    use crate::satisfy::SatisfactionChecker;
    use xic_dtd::{example_d1, example_d3};
    use xic_xml::EditOp;

    /// The independent from-scratch oracle.
    fn rebuild(dtd: &Dtd, sigma: &ConstraintSet, tree: &XmlTree) -> Vec<Violation> {
        SatisfactionChecker::new(dtd, tree).check_all(sigma)
    }

    /// The Figure 1 tree: both teachers named "Joe", every subject
    /// taught_by "Joe".  It conforms to D1 but violates Σ1.
    fn figure1(dtd: &Dtd) -> XmlTree {
        let teachers = dtd.type_by_name("teachers").unwrap();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let teach = dtd.type_by_name("teach").unwrap();
        let research = dtd.type_by_name("research").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let taught_by = dtd.attr_by_name("taught_by").unwrap();
        let mut t = XmlTree::new(teachers);
        for teacher_name in ["Joe", "Joe"] {
            let te = t.add_element(t.root(), teacher);
            t.set_attr(te, name, teacher_name);
            let th = t.add_element(te, teach);
            for s in ["XML", "DB"] {
                let sn = t.add_element(th, subject);
                t.set_attr(sn, taught_by, teacher_name);
                t.add_text(sn, s);
            }
            let r = t.add_element(te, research);
            t.add_text(r, "Web DB");
        }
        t
    }

    #[test]
    fn node_set_moves_between_inline_and_ordered_forms() {
        let (a, b, c) = (NodeId(3), NodeId(7), NodeId(5));
        let mut set = NodeSet::default();
        assert!(set.is_empty());
        assert_eq!((set.len(), set.first(), set.second()), (0, None, None));
        set.remove(a);
        assert!(set.is_empty());

        set.insert(b);
        set.insert(b);
        assert!(matches!(set, NodeSet::One(n) if n == b));
        assert_eq!((set.len(), set.first(), set.second()), (1, Some(b), None));
        set.remove(a);
        assert!(matches!(set, NodeSet::One(n) if n == b));

        set.insert(a);
        assert!(matches!(set, NodeSet::Many(_)));
        assert_eq!(
            (set.len(), set.first(), set.second()),
            (2, Some(a), Some(b))
        );
        set.insert(c);
        set.insert(c);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![a, c, b]);
        assert_eq!(set.second(), Some(c));

        set.remove(c);
        set.remove(c);
        assert_eq!((set.len(), set.second()), (2, Some(b)));
        set.remove(a);
        assert!(matches!(set, NodeSet::One(n) if n == b));
        assert_eq!((set.len(), set.first(), set.second()), (1, Some(b), None));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![b]);

        set.remove(b);
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
    }

    #[test]
    fn tuple_keys_are_found_by_slice_lookups() {
        let (x, y) = (ValueId(4), ValueId(9));
        let mut map: TupleMap<u32> = TupleMap::default();
        map.insert(TupleKey::from(&[x][..]), 1);
        map.insert(TupleKey::from(&[x, y][..]), 2);
        map.insert(TupleKey::from(&[][..]), 0);
        assert!(matches!(TupleKey::from(&[x][..]), TupleKey::One(v) if v == x));
        assert!(matches!(TupleKey::from(&[x, y][..]), TupleKey::Many(_)));
        assert_eq!(map.get(&[x][..]), Some(&1));
        assert_eq!(map.get(&[x, y][..]), Some(&2));
        assert_eq!(map.get(&[][..]), Some(&0));
        assert_eq!(map.get(&[y][..]), None);
        assert_eq!(map.get(&[y, x][..]), None);
        // The same tuple spelled either way is one key.
        assert_eq!(TupleKey::One(x), TupleKey::Many(Box::new([x])));
        let mut many: TupleMap<NodeSet> = TupleMap::default();
        set_of(&mut many, &[x, y]).insert(NodeId(1));
        set_of(&mut many, &[x, y]).insert(NodeId(2));
        set_of(&mut many, &[y]).insert(NodeId(3));
        assert_eq!(many.len(), 2);
        assert_eq!(many[&[x, y][..]].len(), 2);
        assert_eq!(many[&[y][..]].first(), Some(NodeId(3)));
    }

    #[test]
    fn cold_build_agrees_with_the_reference_checker_on_the_paper_example() {
        let d1 = example_d1();
        let t = figure1(&d1);
        let sigma1 = example_sigma1(&d1);
        let fast = IncrementalIndex::build(&d1, &sigma1, &t).check_all(&t);
        assert_eq!(fast, rebuild(&d1, &sigma1, &t));
        assert!(!fast.is_empty());
    }

    #[test]
    fn cold_build_agrees_on_multiattribute_slots_of_d3() {
        let d3 = example_d3();
        let school = d3.type_by_name("school").unwrap();
        let enroll = d3.type_by_name("enroll").unwrap();
        let dept = d3.attr_by_name("dept").unwrap();
        let course_no = d3.attr_by_name("course_no").unwrap();
        let student_id = d3.attr_by_name("student_id").unwrap();
        let mut t = XmlTree::new(school);
        let en = t.add_element(t.root(), enroll);
        t.set_attr(en, student_id, "s1");
        t.set_attr(en, dept, "physics");
        t.set_attr(en, course_no, "999");
        t.add_text(en, "enrolled");
        let sigma3 = example_sigma3(&d3);
        let fast = IncrementalIndex::build(&d3, &sigma3, &t).check_all(&t);
        assert_eq!(fast, rebuild(&d3, &sigma3, &t));
        assert!(fast
            .iter()
            .any(|v| matches!(v, Violation::InclusionViolation { .. })));
    }

    #[test]
    fn empty_document_satisfies_everything() {
        let d3 = example_d3();
        let school = d3.type_by_name("school").unwrap();
        let t = XmlTree::new(school);
        let sigma3 = example_sigma3(&d3);
        let mut index = IncrementalIndex::build(&d3, &sigma3, &t);
        assert!(index.satisfies_all(&t));
        assert!(index.check_all(&t).is_empty());
    }

    /// Drives one op through tree + index and asserts verdict identity with
    /// a from-scratch rebuild.
    fn step(
        dtd: &Dtd,
        sigma: &ConstraintSet,
        tree: &mut XmlTree,
        index: &mut IncrementalIndex,
        op: &EditOp,
    ) -> Vec<Violation> {
        let effect = tree.apply_edit(op).expect("valid op");
        index.apply(tree, &effect);
        let fast = index.check_all(tree);
        assert_eq!(fast, rebuild(dtd, sigma, tree), "after {op:?}");
        fast
    }

    /// Like [`step`], but returns the node the op created.
    fn step_add(
        dtd: &Dtd,
        sigma: &ConstraintSet,
        tree: &mut XmlTree,
        index: &mut IncrementalIndex,
        parent: NodeId,
        ty: ElemId,
    ) -> NodeId {
        let effect = tree
            .apply_edit(&EditOp::AddElement { parent, ty })
            .expect("valid op");
        let EditEffect::ElementAdded { element, .. } = effect else {
            unreachable!()
        };
        index.apply(tree, &effect);
        assert_eq!(index.check_all(tree), rebuild(dtd, sigma, tree));
        element
    }

    #[test]
    fn shard_plan_splits_touch_graph_components() {
        let d1 = example_d1();
        let teacher = d1.type_by_name("teacher").unwrap();
        let subject = d1.type_by_name("subject").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let taught_by = d1.attr_by_name("taught_by").unwrap();
        use crate::constraint::Constraint;

        // The foreign key bridges both key slots: one component.
        let sigma1 = example_sigma1(&d1);
        let layout = IncrementalLayout::new(&d1, &sigma1);
        let plan = ShardPlan::of_layout(&layout);
        assert_eq!(plan.num_shards(), 1);
        assert_eq!(plan.num_checks(), 3);
        assert_eq!(plan.checks_of_shard(0), &[0, 1, 2]);

        // Without the bridge the two keys touch disjoint slots: two
        // components, numbered in Σ order.
        let split = ConstraintSet::from_vec(vec![
            Constraint::unary_key(teacher, name),
            Constraint::unary_key(subject, taught_by),
        ]);
        let layout = IncrementalLayout::new(&d1, &split);
        let plan = ShardPlan::of_layout(&layout);
        assert_eq!(plan.num_shards(), 2);
        assert_eq!(plan.shard_of_check(0), 0);
        assert_eq!(plan.shard_of_check(1), 1);
        let rendered = split.as_slice()[1].render(&d1);
        assert_eq!(plan.shard_of_rendered(&rendered), Some(1));
        assert_eq!(plan.shard_of_rendered("no such constraint"), None);
        assert_eq!(plan.all_shards().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn scoped_check_drops_out_of_scope_verdicts_and_counts_kept_only() {
        let d1 = example_d1();
        let teacher = d1.type_by_name("teacher").unwrap();
        let subject = d1.type_by_name("subject").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let taught_by = d1.attr_by_name("taught_by").unwrap();
        use crate::constraint::Constraint;
        let sigma = ConstraintSet::from_vec(vec![
            Constraint::unary_key(teacher, name),
            Constraint::unary_key(subject, taught_by),
        ]);

        // Two teachers with the same name and two subjects taught by the
        // same teacher: both keys are violated.
        let teachers = d1.type_by_name("teachers").unwrap();
        let mut tree = XmlTree::new(teachers);
        let root = tree.root();
        for _ in 0..2 {
            let t = tree
                .apply_edit(&EditOp::AddElement {
                    parent: root,
                    ty: teacher,
                })
                .map(|e| match e {
                    EditEffect::ElementAdded { element, .. } => element,
                    _ => unreachable!(),
                })
                .unwrap();
            tree.apply_edit(&EditOp::SetAttr {
                element: t,
                attr: name,
                value: "dupe".into(),
            })
            .unwrap();
            let s = tree
                .apply_edit(&EditOp::AddElement {
                    parent: t,
                    ty: subject,
                })
                .map(|e| match e {
                    EditEffect::ElementAdded { element, .. } => element,
                    _ => unreachable!(),
                })
                .unwrap();
            tree.apply_edit(&EditOp::SetAttr {
                element: s,
                attr: taught_by,
                value: "dupe".into(),
            })
            .unwrap();
        }

        let mut full = IncrementalIndex::build(&d1, &sigma, &tree);
        let all = full.check_all(&tree);
        assert_eq!(all.len(), 2);
        assert_eq!(full.rechecked(), 2);

        // Scoped to constraint 0 only: one recheck, and the out-of-scope
        // subject-key violation never surfaces.
        let mut scoped = IncrementalIndex::build(&d1, &sigma, &tree);
        let mut changes = Vec::new();
        scoped.refresh_where(&tree, |i| i == 0, &mut changes);
        assert_eq!(scoped.rechecked(), 1);
        let kept: Vec<Violation> = scoped.violations().cloned().collect();
        assert_eq!(kept, vec![all[0].clone()]);
        // The delta names the one verdict that appeared.
        assert_eq!(
            changes,
            vec![VerdictChange {
                check: 0,
                was_violated: false,
                now_violated: true,
            }]
        );
    }

    #[test]
    fn edits_track_the_paper_example() {
        let d1 = example_d1();
        let sigma1 = example_sigma1(&d1);
        let teachers = d1.type_by_name("teachers").unwrap();
        let teacher = d1.type_by_name("teacher").unwrap();
        let teach = d1.type_by_name("teach").unwrap();
        let subject = d1.type_by_name("subject").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let taught_by = d1.attr_by_name("taught_by").unwrap();

        let mut tree = XmlTree::new(teachers);
        let mut index = IncrementalIndex::build(&d1, &sigma1, &tree);
        assert_eq!(index.check_all(&tree), rebuild(&d1, &sigma1, &tree));

        // Grow two teachers that clash on name, watching every prefix.
        let mut last = Vec::new();
        let mut teacher_nodes = Vec::new();
        for n in ["Joe", "Joe"] {
            let root = tree.root();
            let element = step_add(&d1, &sigma1, &mut tree, &mut index, root, teacher);
            teacher_nodes.push(element);
            last = step(
                &d1,
                &sigma1,
                &mut tree,
                &mut index,
                &EditOp::SetAttr {
                    element,
                    attr: name,
                    value: n.into(),
                },
            );
        }
        assert!(last
            .iter()
            .any(|v| matches!(v, Violation::KeyViolation { .. })));

        // Renaming the second teacher clears the key clash.
        let last = step(
            &d1,
            &sigma1,
            &mut tree,
            &mut index,
            &EditOp::SetAttr {
                element: teacher_nodes[1],
                attr: name,
                value: "Ann".into(),
            },
        );
        assert!(!last.iter().any(
            |v| matches!(v, Violation::KeyViolation { constraint, .. } if constraint.contains("teacher.name"))
        ));

        // A subject taught by nobody dangles; pointing it at Ann heals it;
        // removing Ann's subtree re-breaks it.
        let th = step_add(&d1, &sigma1, &mut tree, &mut index, teacher_nodes[0], teach);
        step(
            &d1,
            &sigma1,
            &mut tree,
            &mut index,
            &EditOp::AddText {
                parent: th,
                value: "x".into(),
            },
        );
        let sub = step_add(&d1, &sigma1, &mut tree, &mut index, th, subject);
        let last = step(
            &d1,
            &sigma1,
            &mut tree,
            &mut index,
            &EditOp::SetAttr {
                element: sub,
                attr: taught_by,
                value: "Bob".into(),
            },
        );
        assert!(last
            .iter()
            .any(|v| matches!(v, Violation::InclusionViolation { .. })));
        step(
            &d1,
            &sigma1,
            &mut tree,
            &mut index,
            &EditOp::SetAttr {
                element: sub,
                attr: taught_by,
                value: "Ann".into(),
            },
        );
        let last = step(
            &d1,
            &sigma1,
            &mut tree,
            &mut index,
            &EditOp::RemoveSubtree {
                element: teacher_nodes[1],
            },
        );
        assert!(last
            .iter()
            .any(|v| matches!(v, Violation::InclusionViolation { values, .. } if values == &vec!["Ann".to_string()])));
    }

    /// Multi-attribute slots: rewriting ONE attribute of a composite tuple
    /// goes through `tuple_with_displaced` (old tuple = displaced value +
    /// unchanged neighbours) — every step is checked against a rebuild.
    #[test]
    fn multiattribute_edits_agree_with_rebuild() {
        let d3 = example_d3();
        let sigma3 = example_sigma3(&d3);
        let school = d3.type_by_name("school").unwrap();
        let course = d3.type_by_name("course").unwrap();
        let enroll = d3.type_by_name("enroll").unwrap();
        let dept = d3.attr_by_name("dept").unwrap();
        let course_no = d3.attr_by_name("course_no").unwrap();
        let student_id = d3.attr_by_name("student_id").unwrap();

        let mut tree = XmlTree::new(school);
        let mut index = IncrementalIndex::build(&d3, &sigma3, &tree);
        assert_eq!(index.check_all(&tree), rebuild(&d3, &sigma3, &tree));

        // Two courses sharing a course number in different departments: the
        // composite key (dept, course_no) holds.
        let mut courses = Vec::new();
        for (d, n) in [("cs", "101"), ("math", "101")] {
            let root = tree.root();
            let c = step_add(&d3, &sigma3, &mut tree, &mut index, root, course);
            courses.push(c);
            for (attr, value) in [(dept, d), (course_no, n)] {
                step(
                    &d3,
                    &sigma3,
                    &mut tree,
                    &mut index,
                    &EditOp::SetAttr {
                        element: c,
                        attr,
                        value: value.into(),
                    },
                );
            }
        }
        // Rewriting ONE component (math → cs) collides the whole tuple.
        let last = step(
            &d3,
            &sigma3,
            &mut tree,
            &mut index,
            &EditOp::SetAttr {
                element: courses[1],
                attr: dept,
                value: "cs".into(),
            },
        );
        assert!(last
            .iter()
            .any(|v| matches!(v, Violation::KeyViolation { values, .. }
                if values == &vec!["cs".to_string(), "101".to_string()])));

        // An enrolment referencing (cs, 101) through the composite foreign
        // key: healthy, until the referenced component is renamed away.
        let root = tree.root();
        let en = step_add(&d3, &sigma3, &mut tree, &mut index, root, enroll);
        for (attr, value) in [(student_id, "s1"), (dept, "cs"), (course_no, "101")] {
            step(
                &d3,
                &sigma3,
                &mut tree,
                &mut index,
                &EditOp::SetAttr {
                    element: en,
                    attr,
                    value: value.into(),
                },
            );
        }
        for (i, c) in courses.iter().enumerate() {
            let last = step(
                &d3,
                &sigma3,
                &mut tree,
                &mut index,
                &EditOp::SetAttr {
                    element: *c,
                    attr: course_no,
                    value: format!("90{i}"),
                },
            );
            if i == courses.len() - 1 {
                assert!(last
                    .iter()
                    .any(|v| matches!(v, Violation::InclusionViolation { .. })));
            }
        }
    }

    #[test]
    fn dirty_set_is_proportional_to_the_edit() {
        let d1 = example_d1();
        let sigma1 = example_sigma1(&d1);
        let teachers = d1.type_by_name("teachers").unwrap();
        let teacher = d1.type_by_name("teacher").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let mut tree = XmlTree::new(teachers);
        let te = tree.add_element(tree.root(), teacher);
        tree.set_attr(te, name, "Joe");
        let mut index = IncrementalIndex::build(&d1, &sigma1, &tree);
        index.check_all(&tree);
        assert_eq!(index.rechecked(), sigma1.len());

        // teacher.name touches the teacher key and the foreign key's target
        // side, but not the subject key.
        let effect = tree
            .apply_edit(&EditOp::SetAttr {
                element: te,
                attr: name,
                value: "Ann".into(),
            })
            .unwrap();
        index.apply(&tree, &effect);
        assert!(index.pending() < sigma1.len());
        index.check_all(&tree);
        assert!(index.rechecked() < sigma1.len());

        // A clean verdict re-read recomputes nothing.
        index.check_all(&tree);
        assert_eq!(index.rechecked(), 0);
    }

    /// One layout, many documents: indexes populated through a shared
    /// [`IncrementalLayout`] are verdict-identical to standalone builds, and
    /// the layout is derived exactly once (same `Arc` across documents).
    #[test]
    fn one_layout_serves_many_documents() {
        let d1 = example_d1();
        let sigma1 = example_sigma1(&d1);
        let teachers = d1.type_by_name("teachers").unwrap();
        let teacher = d1.type_by_name("teacher").unwrap();
        let name = d1.attr_by_name("name").unwrap();

        let layout = Arc::new(IncrementalLayout::new(&d1, &sigma1));
        assert_eq!(layout.num_checks(), sigma1.len());
        assert!(layout.num_slots() > 0);

        for names in [&["Joe", "Ann"][..], &["Joe", "Joe"][..], &[][..]] {
            let mut tree = XmlTree::new(teachers);
            for n in names {
                let te = tree.add_element(tree.root(), teacher);
                tree.set_attr(te, name, n);
            }
            let mut shared = IncrementalIndex::with_layout(Arc::clone(&layout), &tree);
            let mut standalone = IncrementalIndex::build(&d1, &sigma1, &tree);
            assert_eq!(shared.check_all(&tree), standalone.check_all(&tree));
            assert_eq!(shared.check_all(&tree), rebuild(&d1, &sigma1, &tree));
            assert!(Arc::ptr_eq(shared.layout(), &layout));
        }
        // Two docs open at once still share the one layout allocation.
        assert_eq!(Arc::strong_count(&layout), 1);
    }
}
