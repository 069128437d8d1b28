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
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    }
}
