//! The OS page cache, LRU lists and reverse mapping.
//!
//! The page cache maps `(file, page)` to the frame caching it. The LRU is
//! a second-chance clock (the paper notes Linux uses a clock variant,
//! §VI-C) over *OS-known* pages only: under HWDP, a hardware-handled page
//! is **not** in these structures until `kpted` synchronizes it — exactly
//! the paper's deferred-metadata design — and therefore cannot be chosen
//! for eviction until then.

use std::collections::VecDeque;

use crate::fs::FileId;
use hwdp_mem::addr::{Pfn, Vpn};

/// Empty page slot: the page is not cached.
const NO_FRAME: u32 = u32::MAX;
/// Reverse-map entry of a cached page that no VPN maps.
const NO_VPN: u64 = u64::MAX;

/// A reclaim victim chosen by the clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// File identity of the evicted page.
    pub file: FileId,
    /// Page index within the file.
    pub page: u64,
    /// Frame being reclaimed.
    pub pfn: Pfn,
    /// Mapped VPN whose PTE must be rewritten (and TLB entry shot down).
    pub vpn: Option<Vpn>,
}

/// The page cache + clock LRU + reverse map.
///
/// Dense layout: `slots[file][page]` holds the caching frame as a `u32`
/// ([`NO_FRAME`] when uncached), so a lookup is two indexed loads and
/// the cache costs 4 bytes per file page it has seen. The reverse map is
/// stored per frame (single process ⇒ at most one mapping per cached
/// page, and a frame caches at most one page).
#[derive(Debug, Default)]
pub struct PageCache {
    /// Per-file page slots, grown on demand to the highest cached page.
    slots: Vec<Vec<u32>>,
    /// `rmap[pfn]` is the VPN mapping the page cached in frame `pfn`, or
    /// [`NO_VPN`]; meaningful only while that frame is cached.
    rmap: Vec<u64>,
    len: usize,
    /// Clock order; entries may be stale (their page no longer cached)
    /// and are skipped lazily.
    clock: VecDeque<(u32, u64)>,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PageCache::default()
    }

    /// Number of OS-known cached pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries on the clock, stale ones included (a sweep inspects at
    /// most twice this many).
    pub fn clock_len(&self) -> usize {
        self.clock.len()
    }

    fn slot(&self, file: u32, page: u64) -> Option<u32> {
        let frame = *self.slots.get(file as usize)?.get(usize::try_from(page).ok()?)?;
        (frame != NO_FRAME).then_some(frame)
    }

    /// Looks up the frame caching `(file, page)`.
    pub fn lookup(&self, file: FileId, page: u64) -> Option<Pfn> {
        self.slot(file.0, page).map(|f| Pfn(u64::from(f)))
    }

    fn rmap_of(&self, frame: u32) -> Option<Vpn> {
        self.rmap.get(frame as usize).filter(|&&v| v != NO_VPN).map(|&v| Vpn(v))
    }

    /// The reverse mapping of `(file, page)`, if mapped.
    pub fn rmap(&self, file: FileId, page: u64) -> Option<Vpn> {
        self.slot(file.0, page).and_then(|f| self.rmap_of(f))
    }

    /// Inserts a page (OSDP fault completion, or `kpted` syncing a
    /// hardware-handled page). Pages enter at the clock's tail (most
    /// recently used end).
    ///
    /// # Panics
    ///
    /// Panics if the page is already tracked (double insert indicates an
    /// aliasing bug — the very thing the PMSHR exists to prevent, §V).
    pub fn insert(&mut self, file: FileId, page: u64, pfn: Pfn, vpn: Option<Vpn>) {
        assert!(pfn.0 < u64::from(NO_FRAME), "frame {pfn:?} exceeds the u32 frame index");
        let frame = pfn.0 as u32;
        let (f, p) = (file.0 as usize, page as usize);
        if f >= self.slots.len() {
            self.slots.resize_with(f + 1, Default::default);
        }
        let slots = &mut self.slots[f];
        if p >= slots.len() {
            slots.resize(p + 1, NO_FRAME);
        }
        assert!(slots[p] == NO_FRAME, "page ({file:?},{page}) already cached: alias!");
        slots[p] = frame;
        if frame as usize >= self.rmap.len() {
            self.rmap.resize(frame as usize + 1, NO_VPN);
        }
        self.rmap[frame as usize] = vpn.map_or(NO_VPN, |v| v.0);
        self.len += 1;
        self.clock.push_back((file.0, page));
    }

    /// Uncaches `(file, page)`, returning its frame.
    fn take(&mut self, file: u32, page: u64) -> Option<u32> {
        let slot = self.slots.get_mut(file as usize)?.get_mut(usize::try_from(page).ok()?)?;
        let frame = std::mem::replace(slot, NO_FRAME);
        if frame == NO_FRAME {
            return None;
        }
        self.len -= 1;
        Some(frame)
    }

    /// Removes a page (munmap teardown or explicit invalidation). The
    /// clock entry is dropped lazily.
    pub fn remove(&mut self, file: FileId, page: u64) -> Option<Pfn> {
        self.take(file.0, page).map(|f| Pfn(u64::from(f)))
    }

    /// Read-only iteration over every cached page in deterministic
    /// `(file, page)` order: `(file, page, pfn, mapped vpn)`. Exists for
    /// the hwdp-audit cache ↔ frame-pool cross-check, which must be
    /// observation-only (no clock rotation, no LRU touches).
    pub fn iter(&self) -> impl Iterator<Item = (FileId, u64, Pfn, Option<Vpn>)> + '_ {
        self.slots.iter().enumerate().flat_map(move |(f, slots)| {
            slots.iter().enumerate().filter(|(_, &frame)| frame != NO_FRAME).map(
                move |(p, &frame)| {
                    (FileId(f as u32), p as u64, Pfn(u64::from(frame)), self.rmap_of(frame))
                },
            )
        })
    }

    /// Runs the second-chance clock to select up to `n` victims, appending
    /// them to `out` (a caller-owned buffer, so steady-state reclaim
    /// allocates nothing). `referenced(file, page, vpn)` reports whether
    /// the page was touched since the last sweep (its PTE accessed bit) —
    /// if so the page gets a second chance and rotates to the tail; the
    /// callback should clear the accessed bit.
    pub fn select_victims(
        &mut self,
        n: usize,
        mut referenced: impl FnMut(FileId, u64, Option<Vpn>) -> bool,
        out: &mut Vec<Victim>,
    ) {
        let mut taken = 0;
        // Bound the sweep: each live page is inspected at most twice per
        // call (first pass may grant a second chance).
        let mut budget = self.clock.len() * 2;
        while taken < n && budget > 0 {
            let Some(key) = self.clock.pop_front() else { break };
            budget -= 1;
            let Some(frame) = self.slot(key.0, key.1) else {
                continue; // stale entry
            };
            let (file, page, vpn) = (FileId(key.0), key.1, self.rmap_of(frame));
            if referenced(file, page, vpn) {
                self.clock.push_back(key);
                continue;
            }
            self.take(key.0, key.1);
            out.push(Victim { file, page, pfn: Pfn(u64::from(frame)), vpn });
            taken += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(id: u32) -> FileId {
        FileId(id)
    }

    fn select(
        pc: &mut PageCache,
        n: usize,
        referenced: impl FnMut(FileId, u64, Option<Vpn>) -> bool,
    ) -> Vec<Victim> {
        let mut out = Vec::new();
        pc.select_victims(n, referenced, &mut out);
        out
    }

    #[test]
    fn insert_lookup_remove() {
        let mut pc = PageCache::new();
        pc.insert(f(1), 5, Pfn(50), Some(Vpn(500)));
        assert_eq!(pc.lookup(f(1), 5), Some(Pfn(50)));
        assert_eq!(pc.rmap(f(1), 5), Some(Vpn(500)));
        assert_eq!(pc.len(), 1);
        assert_eq!(pc.remove(f(1), 5), Some(Pfn(50)));
        assert_eq!(pc.lookup(f(1), 5), None);
        assert!(pc.is_empty());
    }

    #[test]
    #[should_panic(expected = "alias")]
    fn double_insert_panics() {
        let mut pc = PageCache::new();
        pc.insert(f(1), 5, Pfn(50), None);
        pc.insert(f(1), 5, Pfn(51), None);
    }

    #[test]
    fn clock_evicts_oldest_unreferenced_first() {
        let mut pc = PageCache::new();
        for p in 0..4 {
            pc.insert(f(0), p, Pfn(p), None);
        }
        let victims = select(&mut pc, 2, |_, _, _| false);
        let pages: Vec<u64> = victims.iter().map(|v| v.page).collect();
        assert_eq!(pages, vec![0, 1], "FIFO order when nothing is referenced");
        assert_eq!(pc.len(), 2);
    }

    #[test]
    fn second_chance_for_referenced_pages() {
        let mut pc = PageCache::new();
        for p in 0..3 {
            pc.insert(f(0), p, Pfn(p), None);
        }
        // Page 0 is referenced on first inspection; pages 1, 2 are not.
        let mut first_pass_for_0 = true;
        let victims = select(&mut pc, 2, |_, page, _| {
            if page == 0 && first_pass_for_0 {
                first_pass_for_0 = false;
                true
            } else {
                false
            }
        });
        let pages: Vec<u64> = victims.iter().map(|v| v.page).collect();
        assert_eq!(pages, vec![1, 2], "page 0 got its second chance");
        assert_eq!(pc.lookup(f(0), 0), Some(Pfn(0)), "survivor still cached");
    }

    #[test]
    fn victims_carry_reverse_mapping() {
        let mut pc = PageCache::new();
        pc.insert(f(2), 9, Pfn(99), Some(Vpn(0x900)));
        let victims = select(&mut pc, 1, |_, _, _| false);
        assert_eq!(
            victims,
            vec![Victim { file: f(2), page: 9, pfn: Pfn(99), vpn: Some(Vpn(0x900)) }]
        );
    }

    #[test]
    fn everything_referenced_yields_no_victims() {
        let mut pc = PageCache::new();
        for p in 0..3 {
            pc.insert(f(0), p, Pfn(p), None);
        }
        let victims = select(&mut pc, 3, |_, _, _| true);
        assert!(victims.is_empty(), "sweep budget prevents livelock");
        assert_eq!(pc.len(), 3);
    }

    #[test]
    fn iter_is_deterministic_and_observation_only() {
        let mut pc = PageCache::new();
        pc.insert(f(2), 9, Pfn(99), Some(Vpn(0x900)));
        pc.insert(f(1), 3, Pfn(13), None);
        let all: Vec<_> = pc.iter().collect();
        assert_eq!(
            all,
            vec![(f(1), 3, Pfn(13), None), (f(2), 9, Pfn(99), Some(Vpn(0x900)))],
            "sorted by (file, page), not insertion order"
        );
        // Iteration must not rotate the clock: the oldest insert is still
        // the first victim.
        let victims = select(&mut pc, 1, |_, _, _| false);
        assert_eq!(victims[0].page, 9);
    }

    #[test]
    fn victims_append_to_the_callers_buffer() {
        let mut pc = PageCache::new();
        for p in 0..3 {
            pc.insert(f(0), p, Pfn(p), None);
        }
        let mut out = vec![Victim { file: f(9), page: 9, pfn: Pfn(9), vpn: None }];
        pc.select_victims(2, |_, _, _| false, &mut out);
        let pages: Vec<u64> = out.iter().map(|v| v.page).collect();
        assert_eq!(pages, vec![9, 0, 1], "earlier contents kept, n counts new victims only");
    }

    #[test]
    fn reinserted_page_keeps_its_old_clock_position() {
        // Removal leaves the clock entry behind; reinsertion makes it live
        // again, so the page is found at its *old* position first.
        let mut pc = PageCache::new();
        pc.insert(f(0), 0, Pfn(0), Some(Vpn(10)));
        pc.insert(f(0), 1, Pfn(1), None);
        assert_eq!(pc.remove(f(0), 0), Some(Pfn(0)));
        pc.insert(f(0), 0, Pfn(2), Some(Vpn(12)));
        let victims = select(&mut pc, 1, |_, _, _| false);
        assert_eq!(victims, vec![Victim { file: f(0), page: 0, pfn: Pfn(2), vpn: Some(Vpn(12)) }]);
        assert_eq!(pc.len(), 1);
    }

    #[test]
    fn stale_clock_entries_skipped() {
        let mut pc = PageCache::new();
        pc.insert(f(0), 0, Pfn(0), None);
        pc.insert(f(0), 1, Pfn(1), None);
        pc.remove(f(0), 0); // clock entry for (0,0) is now stale
        let victims = select(&mut pc, 1, |_, _, _| false);
        assert_eq!(victims[0].page, 1);
    }
}
