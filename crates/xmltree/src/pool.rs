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
//! Storage is one byte arena: every distinct value is appended to a single
//! `String`, and an id is an index into a table of end offsets.  Interning a
//! new value therefore costs no allocation of its own (the arena and the
//! tables grow geometrically), and lookup goes through an open-addressing
//! table of ids keyed by a hash stored per id, so growing the table never
//! re-hashes a string.  Values reach the pool from network clients, so
//! they are hashed with the standard library's keyed SipHash
//! ([`RandomState`]): a client cannot precompute colliding values.
//!
//! Each [`crate::XmlTree`] owns one pool holding only its own values.  The
//! paper's constraints compare values inside one tree, and `T ⊨ D` and
//! `T ⊨ Σ` are per-document, so ids never need to agree across documents
//! and no pool is shared between trees.  Pools are append-only: interning
//! never invalidates previously issued ids, so edits keep every id stable.

use std::hash::{BuildHasher, RandomState};

/// Identifier of an interned string within a [`ValuePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub u32);

impl ValueId {
    /// Index into the pool's value table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The lookup table's marker for an unused slot.
const EMPTY: u32 = u32::MAX;

/// An append-only string interner: each distinct string is stored once and
/// addressed by a dense [`ValueId`], in first-occurrence order.
///
/// Value `i` is `bytes[ends[i - 1]..ends[i]]` (`ends[-1]` reading as 0).
/// The lookup table holds ids at their hash's probe position (linear
/// probing, power-of-two size, at most three quarters full).
#[derive(Debug, Clone, Default)]
pub struct ValuePool {
    bytes: String,
    ends: Vec<usize>,
    hashes: Vec<u64>,
    table: Vec<u32>,
    hasher: RandomState,
}

impl ValuePool {
    /// An empty pool.
    pub fn new() -> ValuePool {
        ValuePool::default()
    }

    /// An empty pool with room for `values` distinct values totalling
    /// `bytes` bytes before any table grows.
    pub(crate) fn with_capacity(values: usize, bytes: usize) -> ValuePool {
        let mut pool = ValuePool {
            bytes: String::with_capacity(bytes),
            ends: Vec::with_capacity(values),
            hashes: Vec::with_capacity(values),
            ..ValuePool::default()
        };
        if values > 0 {
            pool.table = vec![EMPTY; table_size(values)];
        }
        pool
    }

    /// Interns a string, returning the id it already has or a fresh one.
    pub fn intern(&mut self, value: &str) -> ValueId {
        let hash = self.hasher.hash_one(value);
        if let Some(id) = self.find(value, hash) {
            return id;
        }
        let id = ValueId(self.ends.len() as u32);
        self.bytes.push_str(value);
        self.ends.push(self.bytes.len());
        self.hashes.push(hash);
        if table_size(self.ends.len()) > self.table.len() {
            self.grow();
        } else {
            let slot = self.probe(hash, |_| false);
            self.table[slot] = id.0;
        }
        id
    }

    /// The id of an already-interned string, if any (no insertion).
    pub fn get(&self, value: &str) -> Option<ValueId> {
        self.find(value, self.hasher.hash_one(value))
    }

    /// The string an id stands for.
    ///
    /// # Panics
    /// Panics if the id was issued by a different (or later state of a) pool
    /// and is out of range.
    pub fn resolve(&self, id: ValueId) -> &str {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(id, value)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &str)> + '_ {
        (0..self.ends.len() as u32).map(|i| (ValueId(i), self.resolve(ValueId(i))))
    }

    fn find(&self, value: &str, hash: u64) -> Option<ValueId> {
        if self.table.is_empty() {
            return None;
        }
        let slot = self.probe(hash, |id| {
            self.hashes[id.index()] == hash && self.resolve(id) == value
        });
        match self.table[slot] {
            EMPTY => None,
            id => Some(ValueId(id)),
        }
    }

    /// The probe sequence of `hash`, walked to the first slot that is empty
    /// or holds an id `matches` accepts.  The table is never full, so the
    /// walk ends.
    fn probe(&self, hash: u64, matches: impl Fn(ValueId) -> bool) -> usize {
        let mask = self.table.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.table[slot] {
                EMPTY => return slot,
                id if matches(ValueId(id)) => return slot,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Rebuilds the lookup table at the size the current id count needs,
    /// placing every id by its stored hash.
    fn grow(&mut self) {
        self.table = vec![EMPTY; table_size(self.ends.len())];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let slot = self.probe(hash, |_| false);
            self.table[slot] = id as u32;
        }
    }
}

/// The lookup-table size for `values` ids: a power of two at least 4/3 of
/// the count, so the table stays at most three quarters full.
fn table_size(values: usize) -> usize {
    (values.saturating_add(values / 3) + 1)
        .next_power_of_two()
        .max(8)
}

impl PartialEq for ValuePool {
    /// Two pools are equal when they hold the same values under the same
    /// ids: the arena and its offsets together spell out that sequence.
    fn eq(&self, other: &ValuePool) -> bool {
        self.ends == other.ends && self.bytes == other.bytes
    }
}

impl Eq for ValuePool {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

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

    #[test]
    fn adjacent_values_do_not_run_together() {
        // "ab" + "c" and "a" + "bc" share an arena spelling; the offsets
        // keep them apart, in lookup and in equality.
        let mut left = ValuePool::new();
        left.intern("ab");
        left.intern("c");
        let mut right = ValuePool::new();
        right.intern("a");
        right.intern("bc");
        assert_ne!(left, right);
        assert_eq!(left.get("abc"), None);
        assert_eq!(left.get("a"), None);
        assert_eq!(right.get("ab"), None);
    }

    #[test]
    fn a_reserved_pool_behaves_like_a_fresh_one() {
        let mut reserved = ValuePool::with_capacity(3, 8);
        let mut fresh = ValuePool::new();
        for value in ["x", "yy", "x", "zzz", "w", "v", "yy"] {
            assert_eq!(reserved.intern(value), fresh.intern(value));
        }
        assert_eq!(reserved, fresh);
        assert_eq!(ValuePool::with_capacity(0, 0).get(""), None);
    }

    /// Builds a value from alphabet indices: ASCII, a multi-byte character
    /// and a wide one, so values cross char boundaries and the 8-byte mark.
    fn spell(letters: &[usize]) -> String {
        const ALPHABET: [char; 5] = ['a', 'b', 'é', '✓', '𝄞'];
        letters
            .iter()
            .map(|&i| ALPHABET[i % ALPHABET.len()])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Against a `HashMap` + `Vec` reference model: `intern` returns the
        /// model's first-occurrence id, `get`, `resolve`, `iter` and `len`
        /// agree after every step, and two pools fed the same sequence are
        /// equal.  Sequences run to 600 interns over short spellings (so
        /// duplicates are frequent) and cross several table growths.
        #[test]
        fn pool_matches_a_reference_model(
            words in proptest::collection::vec(
                proptest::collection::vec(0usize..5, 0..12),
                1..600,
            ),
            reserve in 0usize..64,
        ) {
            let mut pool = ValuePool::with_capacity(reserve, reserve * 4);
            let mut ids: HashMap<String, ValueId> = HashMap::new();
            let mut values: Vec<String> = Vec::new();
            for letters in &words {
                let value = spell(letters);
                prop_assert_eq!(pool.get(&value), ids.get(&value).copied());
                let expected = *ids.entry(value.clone()).or_insert_with(|| {
                    values.push(value.clone());
                    ValueId(values.len() as u32 - 1)
                });
                prop_assert_eq!(pool.intern(&value), expected);
                prop_assert_eq!(pool.get(&value), Some(expected));
                prop_assert_eq!(pool.resolve(expected), value.as_str());
                prop_assert_eq!(pool.len(), values.len());
            }
            let listed: Vec<(ValueId, String)> =
                pool.iter().map(|(id, v)| (id, v.to_string())).collect();
            let modelled: Vec<(ValueId, String)> = values
                .iter()
                .enumerate()
                .map(|(i, v)| (ValueId(i as u32), v.clone()))
                .collect();
            prop_assert_eq!(listed, modelled);
            // Absent values stay absent: a spelling longer than any word.
            prop_assert_eq!(pool.get(&spell(&[0; 13])), None);
            // Equality is the value sequence, whatever the reservation.
            let mut again = ValuePool::new();
            for letters in &words {
                again.intern(&spell(letters));
            }
            prop_assert_eq!(&again, &pool);
            prop_assert_eq!(&pool.clone(), &pool);
            if values.len() > 1 {
                let mut shorter = ValuePool::new();
                for v in &values[..values.len() - 1] {
                    shorter.intern(v);
                }
                prop_assert_ne!(&shorter, &pool);
            }
        }
    }
}
