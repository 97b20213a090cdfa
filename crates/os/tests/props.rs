//! Property-based tests of the OS model: extent-allocation disjointness,
//! page-cache/clock invariants, and reclaim consistency.

use std::collections::{BTreeMap, VecDeque};

use hwdp_mem::addr::{DeviceId, Pfn, SocketId, Vpn};
use hwdp_mem::pte::PteClass;
use hwdp_os::fs::{FileId, MiniFs};
use hwdp_os::kernel::Os;
use hwdp_os::page_cache::{PageCache, Victim};
use hwdp_os::vma::MmapFlags;
use proptest::prelude::*;

/// The page cache as it was first written: a `BTreeMap` keyed by
/// `(file, page)` beside the same lazily-pruned clock. The dense
/// [`PageCache`] must be observationally identical to it.
#[derive(Default)]
struct RefCache {
    map: BTreeMap<(u32, u64), (Pfn, Option<Vpn>)>,
    clock: VecDeque<(u32, u64)>,
}

impl RefCache {
    fn insert(&mut self, file: FileId, page: u64, pfn: Pfn, vpn: Option<Vpn>) {
        assert!(self.map.insert((file.0, page), (pfn, vpn)).is_none());
        self.clock.push_back((file.0, page));
    }

    fn remove(&mut self, file: FileId, page: u64) -> Option<Pfn> {
        self.map.remove(&(file.0, page)).map(|(pfn, _)| pfn)
    }

    fn select_victims(
        &mut self,
        n: usize,
        mut referenced: impl FnMut(FileId, u64, Option<Vpn>) -> bool,
    ) -> Vec<Victim> {
        let mut victims = Vec::new();
        let mut budget = self.clock.len() * 2;
        while victims.len() < n && budget > 0 {
            let Some(key) = self.clock.pop_front() else { break };
            budget -= 1;
            let Some(&(pfn, vpn)) = self.map.get(&key) else { continue };
            if referenced(FileId(key.0), key.1, vpn) {
                self.clock.push_back(key);
                continue;
            }
            self.map.remove(&key);
            victims.push(Victim { file: FileId(key.0), page: key.1, pfn, vpn });
        }
        victims
    }
}

/// A `referenced` predicate whose k-th answer depends only on `seed`,
/// `k` and the page asked about, so two caches that ask the same
/// questions in the same order get the same answers.
fn predicate(seed: u64) -> impl FnMut(FileId, u64, Option<Vpn>) -> bool {
    let mut k = 0u64;
    move |file, page, vpn| {
        k += 1;
        let mut x = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= u64::from(file.0) << 40 ^ page << 8 ^ vpn.map_or(0, |v| v.0);
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (x >> 61) < 3 // referenced with probability 3/8
    }
}

proptest! {
    /// Files never share blocks, whatever their sizes.
    #[test]
    fn fs_extents_disjoint(sizes in prop::collection::vec(1u64..64u64, 1..20)) {
        let mut fs = MiniFs::new();
        fs.register_device(SocketId(0), DeviceId(0), 4096);
        let mut seen = std::collections::HashSet::new();
        for (i, &pages) in sizes.iter().enumerate() {
            let f = fs.create(&format!("f{i}"), SocketId(0), DeviceId(0), 1, pages);
            for p in 0..pages {
                prop_assert!(seen.insert(fs.lba_of(f, p).0), "block reused across files");
            }
        }
    }

    /// Remapping pages always yields fresh, never-seen blocks and updates
    /// the mapping.
    #[test]
    fn fs_remap_unique(pages in 1u64..32, remaps in prop::collection::vec(0u64..32u64, 1..40)) {
        let mut fs = MiniFs::new();
        fs.register_device(SocketId(0), DeviceId(0), 4096);
        let f = fs.create("f", SocketId(0), DeviceId(0), 1, pages);
        let mut issued: std::collections::HashSet<u64> = (0..pages).map(|p| fs.lba_of(f, p).0).collect();
        for r in remaps {
            let page = r % pages;
            let (old, new, _) = fs.remap_page(f, page);
            prop_assert_ne!(old, new);
            prop_assert!(issued.insert(new.0), "remap produced a reused block");
            prop_assert_eq!(fs.lba_of(f, page), new);
        }
    }

    /// The clock never evicts a page that the referenced-callback vouched
    /// for in the same sweep, and every victim was actually cached.
    #[test]
    fn clock_respects_references(n in 1usize..40, protected in prop::collection::hash_set(0u64..40u64, 0..10)) {
        let mut pc = PageCache::new();
        for p in 0..n as u64 {
            pc.insert(hwdp_os::fs::FileId(0), p, Pfn(p), None);
        }
        let mut victims = Vec::new();
        pc.select_victims(n, |_, page, _| protected.contains(&page), &mut victims);
        for v in &victims {
            prop_assert!(!protected.contains(&v.page), "protected page evicted");
        }
        // Protected pages (within range) are still cached.
        for &p in protected.iter().filter(|&&p| (p as usize) < n) {
            prop_assert!(pc.lookup(hwdp_os::fs::FileId(0), p).is_some());
        }
    }

    /// The dense page cache agrees with the `BTreeMap` reference under
    /// random insert / remove / remove-then-reinsert / clock sweeps with a
    /// random `referenced` predicate: same victims in the same order, and
    /// the same `iter`, `lookup`, `rmap`, `len` and clock length after
    /// every call.
    #[test]
    fn page_cache_matches_btreemap_reference(
        ops in prop::collection::vec((0u8..10, 0u32..3, 0u64..24, any::<u64>()), 1..300)
    ) {
        let mut pc = PageCache::new();
        let mut model = RefCache::default();
        // Frames are unique among cached pages, as the frame pool makes them.
        let mut free: Vec<Pfn> = (0..48).rev().map(Pfn).collect();
        let mut out = Vec::new();
        for (kind, file, page, seed) in ops {
            let f = FileId(file);
            match kind {
                0..=4 => {
                    if model.map.contains_key(&(file, page)) {
                        continue;
                    }
                    let Some(pfn) = free.pop() else { continue };
                    let vpn = (seed % 3 != 0).then_some(Vpn(seed >> 12));
                    pc.insert(f, page, pfn, vpn);
                    model.insert(f, page, pfn, vpn);
                }
                5 | 6 => {
                    let got = pc.remove(f, page);
                    prop_assert_eq!(got, model.remove(f, page));
                    free.extend(got);
                    // Remove-then-reinsert of the same key: the stale clock
                    // entry becomes live again in both.
                    if kind == 6 {
                        if let Some(pfn) = free.pop() {
                            pc.insert(f, page, pfn, None);
                            model.insert(f, page, pfn, None);
                        }
                    }
                }
                _ => {
                    let n = (seed % 8) as usize;
                    let start = out.len();
                    pc.select_victims(n, predicate(seed), &mut out);
                    let want = model.select_victims(n, predicate(seed));
                    prop_assert_eq!(&out[start..], &want[..]);
                    free.extend(want.iter().map(|v| v.pfn));
                }
            }
            prop_assert_eq!(pc.len(), model.map.len());
            prop_assert_eq!(pc.is_empty(), model.map.is_empty());
            prop_assert_eq!(pc.clock_len(), model.clock.len());
            let listed: Vec<_> = pc.iter().collect();
            let expected: Vec<_> =
                model.map.iter().map(|(&(f, p), &(pfn, vpn))| (FileId(f), p, pfn, vpn)).collect();
            prop_assert_eq!(listed, expected);
            for f in 0..4 {
                for p in 0..26 {
                    let entry = model.map.get(&(f, p));
                    prop_assert_eq!(pc.lookup(FileId(f), p), entry.map(|e| e.0));
                    prop_assert_eq!(pc.rmap(FileId(f), p), entry.and_then(|e| e.1));
                }
            }
        }
    }

    /// Under random map/reclaim churn the kernel never double-frees and
    /// the page table never disagrees with the cache: a cached page's PTE
    /// is present at the recorded frame.
    #[test]
    fn kernel_cache_pte_agreement(accesses in prop::collection::vec(0u64..96u64, 1..120)) {
        let mut os = Os::new(64);
        os.fs.register_device(SocketId(0), DeviceId(0), 1024);
        let f = os.fs.create("data", SocketId(0), DeviceId(0), 1, 96);
        let (_, vma) = os.mmap(f, MmapFlags::fast());
        for page in accesses {
            let vpn = vma.base.add(page);
            let pte = os.page_table.pte(vpn);
            match pte.class() {
                PteClass::LbaAugmented => {
                    // Simulate a hardware miss completing.
                    let (pfn, _evictions) = os.alloc_frame().unwrap();
                    let walk = os.page_table.walk(vpn).unwrap();
                    os.page_table.smu_complete(&walk, pfn);
                }
                PteClass::Resident | PteClass::ResidentNeedsSync => {}
                PteClass::NotPresentOsHandled => {
                    // Evicted earlier by the normal-path rewrite — fine.
                }
            }
            // Occasionally sync metadata.
            if page % 7 == 0 {
                os.kpted_scan();
            }
        }
        os.kpted_scan();
        // Invariant: every cached page's PTE points at the cached frame.
        let mut checked = 0;
        for page in 0..96u64 {
            if let Some(pfn) = os.cache.lookup(f, page) {
                let vpn = vma.base.add(page);
                prop_assert_eq!(os.page_table.pte(vpn).pfn(), Some(pfn));
                checked += 1;
            }
        }
        prop_assert!(checked <= 64, "cannot cache more pages than frames");
    }
}
