//! The compiled name tables behind [`Dtd::type_by_name`] and
//! [`Dtd::attr_by_name`].
//!
//! [`Dtd::type_by_name`]: crate::Dtd::type_by_name
//! [`Dtd::attr_by_name`]: crate::Dtd::attr_by_name

/// An open-addressing table from the names of one DTD namespace (element
/// types or attributes) to their indices in that namespace's name list.
///
/// The table is compiled once, when the DTD is built, and is never written
/// again: a document only probes it.  A name is placed by an unkeyed hash
/// of its bytes and confirmed by a byte comparison; collisions probe
/// linearly, and the table is at most half full, so every probe ends at an
/// empty slot after a short run.  Keyed hashing (the standard library's
/// SipHash) protects a table whose *stored* keys an adversary chooses;
/// here the stored keys are the trusted DTD's own names, fixed before any
/// document arrives, so a hostile document can only pick names to look up
/// and cannot lengthen any probe run.  The unkeyed hash is safe, and on
/// the short names DTDs declare it costs a fraction of SipHash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NameTable {
    slots: Box<[Slot]>,
    /// `64 - log2(slots.len())`: a hash's top bits pick its home slot.
    shift: u32,
}

/// One slot: the index of the name it holds ([`EMPTY`] for none), with the
/// name's length and [`Word`] cached beside it, so a probe confirms a name
/// of up to eight bytes without reading the name list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    word: u64,
    len: u32,
    index: u32,
}

const EMPTY: u32 = u32::MAX;

impl NameTable {
    /// Compiles the table of `names`, which must be distinct.
    pub(crate) fn new(names: &[String]) -> NameTable {
        let capacity = (names.len() * 2).next_power_of_two().max(2);
        let empty = Slot {
            word: 0,
            len: 0,
            index: EMPTY,
        };
        let mut table = NameTable {
            slots: vec![empty; capacity].into_boxed_slice(),
            shift: 64 - capacity.trailing_zeros(),
        };
        let mask = capacity - 1;
        for (index, name) in names.iter().enumerate() {
            let word = Word::of(name.as_bytes());
            let mut slot = table.home(&word);
            while table.slots[slot].index != EMPTY {
                slot = (slot + 1) & mask;
            }
            table.slots[slot] = Slot {
                word: word.bits,
                // A name too long for `u32` keeps `u32::MAX`, which only a
                // probe of that length (far above eight) can match, and such
                // a probe compares the bytes in full.
                len: u32::try_from(name.len()).unwrap_or(u32::MAX),
                index: index as u32,
            };
        }
        table
    }

    /// The index of `name` in `names` (the list the table was compiled
    /// from), or `None` if it is not there.
    #[inline]
    pub(crate) fn get(&self, names: &[String], name: &str) -> Option<u32> {
        let bytes = name.as_bytes();
        let word = Word::of(bytes);
        let mask = self.slots.len() - 1;
        let mut slot = self.home(&word);
        loop {
            let Slot {
                word: bits,
                len,
                index,
            } = self.slots[slot];
            if index == EMPTY {
                return None;
            }
            // Length and word fix every byte of a name of up to eight
            // bytes; a longer one is compared in full.
            if len as usize == bytes.len()
                && bits == word.bits
                && (bytes.len() <= 8 || names[index as usize].as_bytes() == bytes)
            {
                return Some(index);
            }
            slot = (slot + 1) & mask;
        }
    }

    #[inline]
    fn home(&self, word: &Word) -> usize {
        (word.hash >> self.shift) as usize
    }
}

/// A name read a word at a time.
struct Word {
    /// Up to eight of the name's bytes, read so that together with the
    /// length they determine every byte of a name of up to eight bytes: the
    /// first and last four (overlapping below eight), or the first, middle
    /// and last byte of a name shorter than four.
    bits: u64,
    /// The unkeyed hash of the whole name: `bits`, the length and every
    /// further eight-byte chunk, each folded in with one multiply.
    hash: u64,
}

impl Word {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    #[inline]
    fn of(bytes: &[u8]) -> Word {
        let n = bytes.len();
        let bits = if n >= 4 {
            let first = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            let last = u32::from_le_bytes([bytes[n - 4], bytes[n - 3], bytes[n - 2], bytes[n - 1]]);
            u64::from(first) | u64::from(last) << 32
        } else if n > 0 {
            u64::from(bytes[0]) | u64::from(bytes[n / 2]) << 8 | u64::from(bytes[n - 1]) << 16
        } else {
            0
        };
        let mut hash = (bits ^ n as u64).wrapping_mul(Self::K);
        if n > 8 {
            for chunk in bytes[4..n - 4].chunks(8) {
                let mut padded = [0u8; 8];
                padded[..chunk.len()].copy_from_slice(chunk);
                hash = (hash.rotate_left(29) ^ u64::from_le_bytes(padded)).wrapping_mul(Self::K);
            }
        }
        Word { bits, hash }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use proptest::prelude::*;

    use crate::{example_d1, example_d3, Dtd};

    /// Every declared name resolves to its own id, in both namespaces.
    fn assert_declared_names_resolve(dtd: &Dtd) {
        for ty in dtd.types() {
            assert_eq!(dtd.type_by_name(dtd.type_name(ty)), Some(ty));
        }
        for attr in dtd.attrs() {
            assert_eq!(dtd.attr_by_name(dtd.attr_name(attr)), Some(attr));
        }
    }

    /// Names that are not declared but look like declared ones: the same
    /// length, the same first byte, a proper prefix, an extension.
    fn near_misses(declared: &[&str]) -> Vec<String> {
        let mut probes = vec![String::new()];
        for name in declared {
            let mut last_changed = name.to_string();
            let last = last_changed.pop().unwrap();
            probes.push(format!(
                "{last_changed}{}",
                if last == 'z' { 'y' } else { 'z' }
            ));
            probes.push(last_changed);
            probes.push(format!("{name}x"));
            probes.push(format!("{}{}", &name[..1], "q".repeat(name.len() - 1)));
            probes.push(name.to_uppercase());
        }
        probes.retain(|p| !declared.contains(&p.as_str()));
        probes
    }

    #[test]
    fn paper_dtds_resolve_every_declared_name() {
        for dtd in [example_d1(), example_d3()] {
            assert_declared_names_resolve(&dtd);
        }
    }

    #[test]
    fn undeclared_look_alikes_resolve_to_none() {
        for dtd in [example_d1(), example_d3()] {
            let types: Vec<&str> = dtd.types().map(|t| dtd.type_name(t)).collect();
            let attrs: Vec<&str> = dtd.attrs().map(|a| dtd.attr_name(a)).collect();
            for probe in near_misses(&types) {
                assert_eq!(dtd.type_by_name(&probe), None, "type {probe:?}");
            }
            for probe in near_misses(&attrs) {
                assert_eq!(dtd.attr_by_name(&probe), None, "attribute {probe:?}");
            }
        }
    }

    /// Names over a three-letter alphabet, so random sets share lengths,
    /// first bytes and prefixes often.
    fn arb_name() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u8..3, 0..5)
            .prop_map(|bytes| bytes.into_iter().map(|b| char::from(b'a' + b)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Both tables agree with a `HashMap` model on every declared name
        /// and on random probes.
        #[test]
        fn tables_agree_with_a_hash_map(
            types in proptest::collection::vec(arb_name(), 0..24),
            attrs in proptest::collection::vec(arb_name(), 0..24),
            probes in proptest::collection::vec(arb_name(), 0..32),
        ) {
            let mut b = Dtd::builder();
            let root = b.elem("root");
            let mut type_model = HashMap::from([("root".to_string(), root)]);
            for name in &types {
                let id = b.elem(name);
                type_model.entry(name.clone()).or_insert(id);
            }
            let mut attr_model = HashMap::new();
            for name in &attrs {
                let id = b.attr(root, name);
                attr_model.entry(name.clone()).or_insert(id);
            }
            let dtd = b.build("root").unwrap();
            prop_assert_eq!(dtd.num_types(), type_model.len());
            prop_assert_eq!(dtd.num_attrs(), attr_model.len());
            let names: HashSet<&String> =
                type_model.keys().chain(attr_model.keys()).chain(&probes).collect();
            for name in names {
                prop_assert_eq!(dtd.type_by_name(name), type_model.get(name).copied());
                prop_assert_eq!(dtd.attr_by_name(name), attr_model.get(name).copied());
            }
            for (name, &id) in &type_model {
                prop_assert_eq!(dtd.type_name(id), name.as_str());
            }
            for (name, &id) in &attr_model {
                prop_assert_eq!(dtd.attr_name(id), name.as_str());
            }
        }
    }
}
