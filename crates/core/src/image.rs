//! The final data-memory image of a run: every 8-byte word the program
//! stored to, keyed by its aligned byte address, with its final value.
//!
//! This is the architectural-state oracle used by the differential fuzzer —
//! two schedules of the same program must agree on it exactly. The
//! simulator builds it once, after the run, from the written words of each
//! SM's functional memory in SM-id order. Sorting is stable and
//! deduplication keeps the *last* entry per address, so the result is
//! identical to inserting the log into an ordered map in order — a later
//! SM's value for the same word wins.

/// A finalized store image: `(address, last value)` pairs sorted by address.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryImage {
    entries: Vec<(u64, u64)>,
}

impl MemoryImage {
    /// Builds an image from an `(address, value)` log in order (later
    /// entries for the same address win).
    pub fn from_log(mut log: Vec<(u64, u64)>) -> MemoryImage {
        log.sort_by_key(|&(addr, _)| addr);
        let mut entries: Vec<(u64, u64)> = Vec::with_capacity(log.len());
        for (addr, value) in log {
            match entries.last_mut() {
                Some(last) if last.0 == addr => last.1 = value,
                _ => entries.push((addr, value)),
            }
        }
        MemoryImage { entries }
    }

    /// The last value stored to `addr`, if the program stored there.
    pub fn get(&self, addr: u64) -> Option<u64> {
        self.entries
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Iterates `(address, value)` pairs in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of distinct stored addresses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the program performed no stores.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn later_stores_win() {
        let img = MemoryImage::from_log(vec![(0x10, 1), (0x20, 2), (0x10, 3)]);
        assert_eq!(img.get(0x10), Some(3));
        assert_eq!(img.get(0x20), Some(2));
        assert_eq!(img.get(0x30), None);
        assert_eq!(img.len(), 2);
    }

    #[test]
    fn iteration_is_address_sorted() {
        let img = MemoryImage::from_log(vec![(9, 1), (3, 2), (7, 3), (3, 4)]);
        let got: Vec<_> = img.iter().collect();
        assert_eq!(got, vec![(3, 4), (7, 3), (9, 1)]);
    }

    #[test]
    fn matches_ordered_map_insertion() {
        // The defining property: identical to BTreeMap insertion order.
        let log = vec![(5u64, 10u64), (1, 20), (5, 30), (2, 40), (1, 50)];
        let mut map = std::collections::BTreeMap::new();
        for &(a, v) in &log {
            map.insert(a, v);
        }
        let img = MemoryImage::from_log(log);
        assert_eq!(
            img.iter().collect::<Vec<_>>(),
            map.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_image() {
        let img = MemoryImage::from_log(Vec::new());
        assert!(img.is_empty());
        assert_eq!(img.iter().count(), 0);
    }
}
