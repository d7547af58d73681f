//! Interned string values.
//!
//! The constraint language of the paper compares attribute and text values
//! only by string equality (Section 2.2: "string value equality"), so the
//! tree never needs to *operate* on value characters — it only needs a
//! symbol that two equal strings share.  A [`ValuePool`] interns each
//! distinct string once and hands out dense `u32` [`ValueId`]s; the tree
//! stores ids, and key / inclusion checking becomes hashing and comparing
//! integer tuples instead of heap-allocated string vectors.
//!
//! Each [`crate::XmlTree`] owns one pool holding only its own values.  The
//! paper's constraints compare values inside one tree, and `T ⊨ D` and
//! `T ⊨ Σ` are per-document, so ids never need to agree across documents
//! and no pool is shared between trees.  Pools are append-only: interning
//! never invalidates previously issued ids, so edits keep every id stable.

use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of an interned string within a [`ValuePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub u32);

impl ValueId {
    /// Index into the pool's value table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only string interner: each distinct string is stored once and
/// addressed by a dense [`ValueId`].
///
/// The backing storage is `Arc<str>` so the lookup table and the id table
/// share one allocation per distinct string.
#[derive(Debug, Clone, Default)]
pub struct ValuePool {
    values: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, ValueId>,
}

impl ValuePool {
    /// An empty pool.
    pub fn new() -> ValuePool {
        ValuePool::default()
    }

    /// Interns a string, returning the id it already has or a fresh one.
    pub fn intern(&mut self, value: &str) -> ValueId {
        if let Some(&id) = self.lookup.get(value) {
            return id;
        }
        let id = ValueId(self.values.len() as u32);
        let stored: Arc<str> = Arc::from(value);
        self.values.push(Arc::clone(&stored));
        self.lookup.insert(stored, id);
        id
    }

    /// The id of an already-interned string, if any (no insertion).
    pub fn get(&self, value: &str) -> Option<ValueId> {
        self.lookup.get(value).copied()
    }

    /// The string an id stands for.
    ///
    /// # Panics
    /// Panics if the id was issued by a different (or later state of a) pool
    /// and is out of range.
    pub fn resolve(&self, id: ValueId) -> &str {
        &self.values[id.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(id, value)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &str)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ValueId(i as u32), v.as_ref()))
    }
}

impl PartialEq for ValuePool {
    fn eq(&self, other: &ValuePool) -> bool {
        self.values == other.values
    }
}

impl Eq for ValuePool {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_reintern_is_identity() {
        let mut pool = ValuePool::new();
        for value in ["Joe", "", "Joe", "Sue", "val0", "", "val0"] {
            let id = pool.intern(value);
            let resolved = pool.resolve(id).to_string();
            assert_eq!(resolved, value);
            assert_eq!(pool.intern(&resolved), id, "re-interning {value:?}");
        }
    }

    #[test]
    fn duplicates_share_one_id() {
        let mut pool = ValuePool::new();
        let a = pool.intern("x");
        let b = pool.intern("y");
        let c = pool.intern("x");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn empty_string_is_a_value_like_any_other() {
        let mut pool = ValuePool::new();
        assert!(pool.is_empty());
        let id = pool.intern("");
        assert_eq!(pool.resolve(id), "");
        assert_eq!(pool.get(""), Some(id));
        assert_eq!(pool.len(), 1);
        assert!(!pool.is_empty());
    }

    #[test]
    fn get_does_not_insert() {
        let mut pool = ValuePool::new();
        assert_eq!(pool.get("missing"), None);
        assert_eq!(pool.len(), 0);
        pool.intern("present");
        assert_eq!(pool.get("missing"), None);
        assert!(pool.get("present").is_some());
    }

    #[test]
    fn ids_are_dense_and_ordered_by_first_occurrence() {
        let mut pool = ValuePool::new();
        let ids: Vec<ValueId> = ["a", "b", "a", "c"]
            .iter()
            .map(|v| pool.intern(v))
            .collect();
        assert_eq!(ids, vec![ValueId(0), ValueId(1), ValueId(0), ValueId(2)]);
        let collected: Vec<(ValueId, String)> =
            pool.iter().map(|(i, v)| (i, v.to_string())).collect();
        assert_eq!(
            collected,
            vec![
                (ValueId(0), "a".to_string()),
                (ValueId(1), "b".to_string()),
                (ValueId(2), "c".to_string()),
            ]
        );
    }
}
