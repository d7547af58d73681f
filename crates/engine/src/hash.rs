//! Content hashing for spec identities.
//!
//! FNV-1a (64-bit) over canonical renderings: fast, dependency-free and
//! stable across processes — unlike `std::collections`' `DefaultHasher`,
//! whose output is explicitly not guaranteed between runs.  A [`SpecId`]
//! travels in every wire hello and names the spec a corpus log was written
//! against, so it must not change between processes.
//!
//! [`SpecId`]: crate::SpecId

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// Offset basis for the second, independent 64-bit stream (an arbitrary
/// odd constant far from the FNV basis); two streams give spec identities
/// 128 bits of accidental-collision resistance.  None of this is
/// cryptographic — adversarially chosen colliding specs are out of scope.
const OFFSET2: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn step(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(PRIME)
}

fn fold_parts(offset: u64, parts: &[&str]) -> u64 {
    parts.iter().fold(offset, |h, part| {
        // 0xFF never occurs in UTF-8, so it cleanly separates segments.
        step(part.bytes().fold(h, step), 0xFF)
    })
}

/// A 128-bit identity of several segments: FNV-1a with an unambiguous
/// separator, so that `("ab", "c")` and `("a", "bc")` hash differently,
/// paired with a second stream from an independent offset basis.
pub fn fnv1a_parts_wide(parts: &[&str]) -> (u64, u64) {
    (fold_parts(OFFSET, parts), fold_parts(OFFSET2, parts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors, each followed by the separator.
        assert_eq!(fnv1a_parts_wide(&[]), (OFFSET, OFFSET2));
        let (a, _) = fnv1a_parts_wide(&["a"]);
        assert_eq!(a, step(0xaf63_dc4c_8601_ec8c, 0xFF));
        let (foobar, _) = fnv1a_parts_wide(&["foobar"]);
        assert_eq!(foobar, step(0x8594_4171_f739_67e8, 0xFF));
    }

    #[test]
    fn wide_streams_are_independent() {
        let (a, b) = fnv1a_parts_wide(&["x", "y"]);
        assert_ne!(a, b);
    }

    #[test]
    fn parts_are_unambiguous() {
        let wide = fnv1a_parts_wide;
        assert_ne!(wide(&["ab", "c"]), wide(&["a", "bc"]));
        assert_ne!(wide(&["ab"]), wide(&["ab", ""]));
        assert_eq!(wide(&["x", "y"]), wide(&["x", "y"]));
    }
}
