//! FNV-1a, the workspace's one content hash: trace checksums and
//! fingerprints, sweep and service keys, result digests and fault-plan
//! label draws all chain through [`fnv1a`].

/// FNV-1a over `bytes`, chained from `seed` (`0` selects the standard
/// offset basis).
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = if seed == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        seed
    };
    for &b in bytes {
        h = fnv1a_byte(h, b);
    }
    h
}

/// One FNV-1a step: folds `byte` into the running hash `h`. Feeding a
/// stream through it byte by byte, from a [`fnv1a`] result, hashes as one
/// [`fnv1a`] call over the whole stream would.
#[inline]
pub fn fnv1a_byte(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_the_offset_basis_and_hashing_chains() {
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(fnv1a(0, b""), 0xcbf2_9ce4_8422_2325);
        // And hashing is chainable.
        assert_eq!(fnv1a(fnv1a(0, b"ab"), b"c"), fnv1a(0, b"abc"));
        assert_eq!(fnv1a_byte(fnv1a(0, b"ab"), b'c'), fnv1a(0, b"abc"));
    }
}
