//! Functional data-memory values.
//!
//! Timing comes from caches and the latency stub; *values* come from here.
//! Unwritten locations read as a deterministic 64-bit hash of the (seed,
//! word-address) pair, so loaded values are reproducible across runs without
//! materializing gigabytes of backing store. Stores overlay the hash.
//!
//! The overlay is paged: written words live in 512-word (4 KiB) pages held
//! in a small open-addressed page table, with a per-page bitmap recording
//! which words were explicitly written. Loads and stores — the hottest
//! memory operations in the simulator — therefore cost one probe into a
//! usually single-entry table plus an array index, instead of a `HashMap`
//! lookup per word. Read semantics are bit-for-bit those of the original
//! word-granular overlay: a word reads as its last stored value if the
//! write bit is set, else as `splitmix64(word ^ seed)`.

use subwarp_prng::splitmix64;

/// Words per overlay page (so a page covers 4 KiB of address space).
const PAGE_WORDS: usize = 512;
const PAGE_SHIFT: u32 = 9;
const BITMAP_WORDS: usize = PAGE_WORDS / 64;

#[derive(Debug, Clone)]
struct Page {
    /// Word-address >> PAGE_SHIFT of the addresses this page covers.
    page_no: u64,
    /// Bit `i` set iff word `i` of this page was explicitly written.
    written: [u64; BITMAP_WORDS],
    values: Box<[u64; PAGE_WORDS]>,
}

impl Page {
    fn new(page_no: u64) -> Page {
        Page {
            page_no,
            written: [0; BITMAP_WORDS],
            values: Box::new([0; PAGE_WORDS]),
        }
    }

    #[inline]
    fn is_written(&self, idx: usize) -> bool {
        self.written[idx / 64] >> (idx % 64) & 1 != 0
    }
}

/// Word-granular (8-byte) functional memory with hash-default contents.
#[derive(Debug, Clone)]
pub struct DataMemory {
    seed: u64,
    /// Open-addressed page table (linear probing, power-of-two capacity).
    slots: Vec<Option<Page>>,
    n_pages: usize,
    n_written: usize,
}

impl Default for DataMemory {
    fn default() -> Self {
        DataMemory::new(0)
    }
}

impl DataMemory {
    /// A memory whose unwritten contents are derived from `seed`.
    pub fn new(seed: u64) -> DataMemory {
        DataMemory {
            seed,
            slots: Vec::new(),
            n_pages: 0,
            n_written: 0,
        }
    }

    #[inline]
    fn word(addr: u64) -> u64 {
        addr >> 3
    }

    #[inline]
    fn find(&self, page_no: u64) -> Option<&Page> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = splitmix64(&mut { page_no }) as usize & mask;
        loop {
            match &self.slots[i] {
                Some(p) if p.page_no == page_no => return Some(p),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }

    fn find_or_insert(&mut self, page_no: u64) -> &mut Page {
        if self.slots.is_empty() || self.n_pages * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = splitmix64(&mut { page_no }) as usize & mask;
        loop {
            match &self.slots[i] {
                Some(p) if p.page_no == page_no => break,
                Some(_) => i = (i + 1) & mask,
                None => {
                    self.slots[i] = Some(Page::new(page_no));
                    self.n_pages += 1;
                    break;
                }
            }
        }
        self.slots[i].as_mut().unwrap()
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![None; cap]);
        let mask = cap - 1;
        for page in old.into_iter().flatten() {
            let mut i = splitmix64(&mut { page.page_no }) as usize & mask;
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(page);
        }
    }

    /// Reads the 64-bit word containing `addr`.
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        let w = Self::word(addr);
        let idx = (w & (PAGE_WORDS as u64 - 1)) as usize;
        match self.find(w >> PAGE_SHIFT) {
            Some(p) if p.is_written(idx) => p.values[idx],
            _ => splitmix64(&mut (w ^ self.seed)),
        }
    }

    /// Reads `addr` as a small positive float in `(0, 2)`, handy as shading
    /// input that never overflows generated float pipelines.
    pub fn read_f32(&self, addr: u64) -> f32 {
        let bits = self.read(addr) as u32;
        1.0 + (bits >> 9) as f32 / (1u32 << 23) as f32 - 0.5
    }

    /// Writes the 64-bit word containing `addr`.
    pub fn write(&mut self, addr: u64, value: u64) {
        let w = Self::word(addr);
        let idx = (w & (PAGE_WORDS as u64 - 1)) as usize;
        let page = self.find_or_insert(w >> PAGE_SHIFT);
        let newly_written = !page.is_written(idx);
        page.written[idx / 64] |= 1 << (idx % 64);
        page.values[idx] = value;
        if newly_written {
            self.n_written += 1;
        }
    }

    /// Number of words explicitly written.
    pub fn written_words(&self) -> usize {
        self.n_written
    }

    /// Visits every explicitly written `(word_address, value)` pair, in
    /// unspecified order.
    fn for_each_written(&self, mut f: impl FnMut(u64, u64)) {
        for page in self.slots.iter().flatten() {
            let base = page.page_no << PAGE_SHIFT;
            for idx in 0..PAGE_WORDS {
                if page.is_written(idx) {
                    f(base | idx as u64, page.values[idx]);
                }
            }
        }
    }
}

impl PartialEq for DataMemory {
    /// Two memories are equal when they have the same seed and the same set
    /// of explicitly written `(word, value)` pairs — the same observable
    /// contents, matching the original `HashMap`-overlay equality.
    fn eq(&self, other: &Self) -> bool {
        if self.seed != other.seed || self.n_written != other.n_written {
            return false;
        }
        let mut equal = true;
        self.for_each_written(|word, value| {
            if equal {
                let addr = word << 3;
                let idx = (word & (PAGE_WORDS as u64 - 1)) as usize;
                let other_written = other
                    .find(word >> PAGE_SHIFT)
                    .is_some_and(|p| p.is_written(idx));
                if !other_written || other.read(addr) != value {
                    equal = false;
                }
            }
        });
        equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_deterministic_per_seed() {
        let a = DataMemory::new(1);
        let b = DataMemory::new(1);
        let c = DataMemory::new(2);
        assert_eq!(a.read(0x1000), b.read(0x1000));
        assert_ne!(a.read(0x1000), c.read(0x1000));
    }

    #[test]
    fn writes_overlay_hash_values() {
        let mut m = DataMemory::new(7);
        let before = m.read(0x40);
        m.write(0x40, 123);
        assert_eq!(m.read(0x40), 123);
        assert_ne!(m.read(0x40), before);
        assert_eq!(m.written_words(), 1);
    }

    #[test]
    fn word_granularity_aliases_within_8_bytes() {
        let mut m = DataMemory::new(0);
        m.write(0x100, 55);
        assert_eq!(m.read(0x107), 55, "same word");
        assert_ne!(m.read(0x108), 55, "next word keeps hash value");
    }

    #[test]
    fn f32_reads_are_tame() {
        let m = DataMemory::new(42);
        for i in 0..1000 {
            let v = m.read_f32(i * 8);
            assert!((0.5..1.5).contains(&v), "value {v} out of range");
        }
    }

    #[test]
    fn distinct_addresses_rarely_collide() {
        let m = DataMemory::new(3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(m.read(i * 8));
        }
        assert!(seen.len() > 9_990);
    }

    #[test]
    fn rewriting_a_word_counts_once() {
        let mut m = DataMemory::new(0);
        m.write(0x10, 1);
        m.write(0x10, 2);
        assert_eq!(m.read(0x10), 2);
        assert_eq!(m.written_words(), 1);
    }

    #[test]
    fn writing_the_hash_value_still_counts_as_written() {
        let mut m = DataMemory::new(9);
        let hash = m.read(0x200);
        m.write(0x200, hash);
        assert_eq!(m.read(0x200), hash);
        assert_eq!(m.written_words(), 1);
    }

    #[test]
    fn many_scattered_pages() {
        // Forces several page-table growths and cross-page probing.
        let mut m = DataMemory::new(5);
        for i in 0..200u64 {
            m.write(i * 0x10_0000, i);
        }
        for i in 0..200u64 {
            assert_eq!(m.read(i * 0x10_0000), i);
        }
        assert_eq!(m.written_words(), 200);
    }

    #[test]
    fn equality_tracks_observable_contents() {
        let mut a = DataMemory::new(1);
        let mut b = DataMemory::new(1);
        assert_eq!(a, b);
        a.write(0x40, 9);
        assert_ne!(a, b);
        b.write(0x40, 9);
        assert_eq!(a, b);
        b.write(0x48, 1);
        assert_ne!(a, b);
        assert_ne!(DataMemory::new(1), DataMemory::new(2));
    }
}
