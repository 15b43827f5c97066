//! Tag-only cache models: a banked set-associative cache with true LRU
//! stacks (L1) and a sectored variant (L2).
//!
//! Both caches store full line addresses rather than split tags — the
//! model is timing-only, so there is no data array, and keeping the
//! whole line address makes the LRU stacks directly inspectable in
//! tests. Every set's stack lives in one flat array of `ways` slots
//! per set plus a per-set fill count, so a lookup touches one
//! contiguous run of memory and a promotion is a single in-place
//! rotation.

/// Finds the entry of the LRU stack `set` that satisfies `hit` and
/// promotes it to most-recently-used (slot 0), returning it.
fn find_and_promote<T>(set: &mut [T], hit: impl Fn(&T) -> bool) -> Option<&mut T> {
    let pos = set.iter().position(hit)?;
    set[..=pos].rotate_right(1);
    Some(&mut set[0])
}

/// Pushes `item` onto the front of a set's stack (`slots` is the
/// set's full `ways`-slot region, `len` its fill count), returning
/// the least-recently-used item if the set was full.
fn push_front<T: Copy>(slots: &mut [T], len: &mut u32, item: T) -> Option<T> {
    let n = *len as usize;
    let evicted = if n == slots.len() {
        Some(slots[n - 1])
    } else {
        *len += 1;
        None
    };
    let keep = (*len as usize) - 1;
    slots.copy_within(..keep, 1);
    slots[0] = item;
    evicted
}

/// A banked, set-associative, tag-only cache with LRU replacement.
///
/// Banks partition the line address space by the low line bits, so
/// total capacity is `banks * sets * ways` lines. Each set is an
/// explicit LRU stack: index 0 is the most recently used way.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// `ways` slots per set, most-recent first; only the first
    /// `lens[set]` of each set are resident.
    slots: Vec<u64>,
    lens: Vec<u32>,
    ways: usize,
    bank_mask: u64,
    bank_shift: u32,
    set_mask: u64,
    sets_per_bank: u64,
}

impl SetAssocCache {
    /// Creates an empty cache. `sets` and `banks` must be powers of two
    /// and `ways >= 1` (validated by the caller's config).
    #[must_use]
    pub fn new(sets: u32, ways: u32, banks: u32) -> Self {
        let n = (sets * banks) as usize;
        SetAssocCache {
            slots: vec![0; n * ways as usize],
            lens: vec![0; n],
            ways: ways as usize,
            bank_mask: u64::from(banks - 1),
            bank_shift: banks.trailing_zeros(),
            set_mask: u64::from(sets - 1),
            sets_per_bank: u64::from(sets),
        }
    }

    fn set_index(&self, line: u64) -> usize {
        let bank = line & self.bank_mask;
        let set = (line >> self.bank_shift) & self.set_mask;
        (bank * self.sets_per_bank + set) as usize
    }

    fn stack_mut(&mut self, idx: usize) -> &mut [u64] {
        let base = idx * self.ways;
        &mut self.slots[base..base + self.lens[idx] as usize]
    }

    /// Looks up `line`; on a hit, promotes it to most-recently-used.
    pub fn probe_and_touch(&mut self, line: u64) -> bool {
        let idx = self.set_index(line);
        find_and_promote(self.stack_mut(idx), |&l| l == line).is_some()
    }

    /// Installs `line` as most-recently-used, returning the evicted
    /// line if the set was full. Installing a resident line just
    /// promotes it.
    pub fn install(&mut self, line: u64) -> Option<u64> {
        let idx = self.set_index(line);
        if find_and_promote(self.stack_mut(idx), |&l| l == line).is_some() {
            return None;
        }
        let base = idx * self.ways;
        push_front(
            &mut self.slots[base..base + self.ways],
            &mut self.lens[idx],
            line,
        )
    }

    /// Whether `line` is resident, without touching LRU state.
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        self.stack_of(line).contains(&line)
    }

    /// The LRU stack of the set holding `line`, most-recent first
    /// (exposed for property tests).
    #[must_use]
    pub fn stack_of(&self, line: u64) -> &[u64] {
        let idx = self.set_index(line);
        let base = idx * self.ways;
        &self.slots[base..base + self.lens[idx] as usize]
    }
}

/// One sectored line: a tag plus a valid bit per sector.
#[derive(Debug, Clone, Copy, Default)]
struct SectorLine {
    tag: u64,
    valid: u64,
}

/// A set-associative sectored cache: one tag covers `sectors`
/// consecutive L1 lines, each validated independently. LRU is kept per
/// set over tags, like [`SetAssocCache`].
#[derive(Debug, Clone)]
pub struct SectoredCache {
    /// `ways` slots per set, most-recent first; only the first
    /// `lens[set]` of each set are resident.
    slots: Vec<SectorLine>,
    lens: Vec<u32>,
    ways: usize,
    set_mask: u64,
}

impl SectoredCache {
    /// Creates an empty sectored cache. `sets` must be a power of two.
    #[must_use]
    pub fn new(sets: u32, ways: u32) -> Self {
        SectoredCache {
            slots: vec![SectorLine::default(); (sets * ways) as usize],
            lens: vec![0; sets as usize],
            ways: ways as usize,
            set_mask: u64::from(sets - 1),
        }
    }

    fn set_index(&self, tag: u64) -> usize {
        (tag & self.set_mask) as usize
    }

    fn stack(&self, idx: usize) -> &[SectorLine] {
        let base = idx * self.ways;
        &self.slots[base..base + self.lens[idx] as usize]
    }

    fn stack_mut(&mut self, idx: usize) -> &mut [SectorLine] {
        let base = idx * self.ways;
        &mut self.slots[base..base + self.lens[idx] as usize]
    }

    /// Looks up sector `sector` of line `tag`; a hit needs both a tag
    /// match and a valid sector, and promotes the line to MRU.
    pub fn probe_and_touch(&mut self, tag: u64, sector: u32) -> bool {
        let bit = 1u64 << sector;
        let idx = self.set_index(tag);
        find_and_promote(self.stack_mut(idx), |l| l.tag == tag && l.valid & bit != 0).is_some()
    }

    /// Installs sector `sector` of line `tag` as MRU. A tag miss claims
    /// a fresh line (evicting the LRU line's tag if the set is full,
    /// returned with its surviving sector mask); a tag hit just sets
    /// the sector bit.
    pub fn install(&mut self, tag: u64, sector: u32) -> Option<(u64, u64)> {
        let bit = 1u64 << sector;
        let idx = self.set_index(tag);
        if let Some(l) = find_and_promote(self.stack_mut(idx), |l| l.tag == tag) {
            l.valid |= bit;
            return None;
        }
        let base = idx * self.ways;
        push_front(
            &mut self.slots[base..base + self.ways],
            &mut self.lens[idx],
            SectorLine { tag, valid: bit },
        )
        .map(|l| (l.tag, l.valid))
    }

    /// Whether sector `sector` of line `tag` is resident and valid,
    /// without touching LRU state.
    #[must_use]
    pub fn contains(&self, tag: u64, sector: u32) -> bool {
        self.stack(self.set_index(tag))
            .iter()
            .any(|l| l.tag == tag && l.valid & (1u64 << sector) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_stack_property_holds_under_seeded_access_stream() {
        // Reference model: per set, a list of lines in recency order.
        // The cache must evict exactly the least-recent resident line.
        let mut cache = SetAssocCache::new(4, 3, 1);
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut reference: std::collections::HashMap<usize, Vec<u64>> =
            std::collections::HashMap::new();
        for _ in 0..10_000 {
            // SplitMix64 step (self-contained to keep the crate dep-free).
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let line = (z ^ (z >> 31)) % 32;
            let set = (line & 3) as usize;
            let stack = reference.entry(set).or_default();

            let expect_hit = stack.contains(&line);
            assert_eq!(cache.probe_and_touch(line), expect_hit, "probe({line})");
            if expect_hit {
                let pos = stack.iter().position(|&l| l == line).unwrap();
                stack.remove(pos);
                stack.insert(0, line);
            } else {
                let evicted = cache.install(line);
                stack.insert(0, line);
                let expect_evicted = if stack.len() > 3 { stack.pop() } else { None };
                assert_eq!(evicted, expect_evicted, "evict on install({line})");
            }
            assert_eq!(cache.stack_of(line), &stack[..], "LRU stack of set {set}");
        }
    }

    #[test]
    fn banks_partition_the_line_space() {
        let mut cache = SetAssocCache::new(2, 1, 2);
        // Lines 0 and 1 go to different banks: neither evicts the other
        // even with a single way per set.
        cache.install(0);
        cache.install(1);
        assert!(cache.contains(0));
        assert!(cache.contains(1));
        // Line 8 aliases line 0 (same bank 0, same set) and evicts it.
        assert_eq!(cache.install(8), Some(0));
        assert!(!cache.contains(0));
    }

    #[test]
    fn sectored_hits_need_tag_and_sector() {
        let mut l2 = SectoredCache::new(4, 2);
        assert!(!l2.probe_and_touch(7, 0));
        l2.install(7, 0);
        assert!(l2.probe_and_touch(7, 0));
        // Same tag, different sector: miss until installed.
        assert!(!l2.probe_and_touch(7, 1));
        assert_eq!(l2.install(7, 1), None, "tag hit fills a sector in place");
        assert!(l2.probe_and_touch(7, 1));
        assert!(l2.contains(7, 0));
    }

    #[test]
    fn sectored_eviction_drops_all_sectors_of_the_lru_tag() {
        let mut l2 = SectoredCache::new(1, 2);
        l2.install(10, 0);
        l2.install(10, 1);
        l2.install(20, 0);
        // Tag 30 evicts tag 10 (LRU), taking both its sectors with it.
        let evicted = l2.install(30, 3);
        assert_eq!(evicted, Some((10, 0b11)));
        assert!(!l2.contains(10, 0));
        assert!(!l2.contains(10, 1));
        assert!(l2.contains(20, 0));
        assert!(l2.contains(30, 3));
    }
}
