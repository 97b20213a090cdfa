//! Property-based tests of the paging substrate: page-table consistency
//! under random operation sequences, TLB coherence, and page-data
//! round-trips.

use hwdp_mem::addr::{BlockRef, DeviceId, Lba, PageData, Pfn, SocketId, Vpn, HEAD_LEN, PAGE_SIZE};
use hwdp_mem::page_table::PageTable;
use hwdp_mem::pte::{Pte, PteClass, PteFlags};
use hwdp_mem::tlb::Tlb;
use proptest::prelude::*;

fn blk(l: u64) -> BlockRef {
    BlockRef::new(SocketId(0), DeviceId(0), Lba(l % (1 << 41)))
}

/// The per-byte pattern expansion `PageData::read` replaced: one
/// SplitMix64 per byte, keeping byte `offset % 8` of the lane.
fn reference_pattern_byte(seed: u64, offset: usize) -> u8 {
    let lane = (offset / 8) as u64;
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.to_le_bytes()[offset % 8]
}

/// FNV-1a over `bytes`, walked byte by byte.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over the reference bytes: what `PageData::checksum` returned
/// when patterns were expanded byte by byte.
fn reference_checksum(seed: u64) -> u64 {
    let bytes: Vec<u8> = (0..PAGE_SIZE).map(|o| reference_pattern_byte(seed, o)).collect();
    fnv(&bytes)
}

/// A page in each representation, and its bytes.
fn start_page(kind: usize, seed: u64) -> (PageData, [u8; PAGE_SIZE]) {
    let page = match kind {
        0 => PageData::Zero,
        1 => PageData::Pattern(seed),
        2 => {
            let mut head = [0u8; HEAD_LEN];
            head.copy_from_slice(&seed.to_le_bytes().repeat(3));
            PageData::Head(head)
        }
        _ => {
            let mut p = PageData::Pattern(seed);
            p.materialize();
            p
        }
    };
    let mut bytes = [0u8; PAGE_SIZE];
    page.read(0, &mut bytes);
    (page, bytes)
}

/// One access of a random page program, drawn raw: `((write, kind),
/// offset, len, fill)`. See [`shape`].
fn access() -> impl Strategy<Value = ((bool, u8), usize, usize, u8)> {
    ((any::<bool>(), 0u8..3), 0usize..PAGE_SIZE, 0usize..PAGE_SIZE + 1, any::<u8>())
}

/// The in-page `(offset, len)` of a raw access of `kind`: 0 anywhere in
/// the page, 1 within the first `2 * HEAD_LEN` bytes, 2 ending exactly at
/// byte `HEAD_LEN` or `HEAD_LEN + 1` (either side of the inline rule).
fn shape(kind: u8, offset: usize, len: usize) -> (usize, usize) {
    match kind {
        0 => (offset, len.min(PAGE_SIZE - offset)),
        1 => (offset % (HEAD_LEN + 1), len % (HEAD_LEN + 1)),
        _ => {
            let end = HEAD_LEN + len % 2;
            let offset = offset % (end + 1);
            (offset, end - offset)
        }
    }
}

proptest! {
    /// Any sequence of writes and reads, at any offset and length, on a
    /// page that starts in any representation, reads back exactly what a
    /// plain 4 KiB byte array holds, checksums the same, and is `Head`
    /// exactly when it started `Zero`/`Head` and every write (at least
    /// one, for a `Zero` start) ended at or before byte `HEAD_LEN`.
    #[test]
    fn page_program_matches_byte_array(
        kind in 0usize..4,
        seed: u64,
        program in prop::collection::vec(access(), 0..12),
    ) {
        let (mut page, mut model) = start_page(kind, seed);
        let mut inline = kind == 2;
        let mut inline_possible = kind == 0 || kind == 2;
        for (i, &((write, kind), offset, len, fill)) in program.iter().enumerate() {
            let (offset, len) = shape(kind, offset, len);
            if write {
                let data: Vec<u8> = (0..len).map(|j| fill.wrapping_add(j as u8)).collect();
                page.write(offset, &data);
                model[offset..offset + len].copy_from_slice(&data);
                inline_possible &= offset + len <= HEAD_LEN;
                inline = inline_possible;
            } else {
                let mut got = vec![0u8; len];
                page.read(offset, &mut got);
                prop_assert_eq!(&got[..], &model[offset..offset + len], "step {}", i);
            }
        }
        prop_assert_eq!(matches!(page, PageData::Head(_)), inline, "{:?}", page);
        let mut all = [0u8; PAGE_SIZE];
        page.read(0, &mut all);
        prop_assert_eq!(&all[..], &model[..]);
        prop_assert_eq!(page.checksum(), fnv(&model));
        prop_assert_eq!(&page.clone().materialize()[..], &model[..]);
    }

    /// Lane-wise pattern reads equal the per-byte reference at any offset
    /// and length, and the checksum is unchanged.
    #[test]
    fn pattern_read_matches_per_byte_reference(seed: u64, offset in 0usize..4096, len in 0usize..4097) {
        let len = len.min(4096 - offset);
        let page = PageData::Pattern(seed);
        let mut got = vec![0u8; len];
        page.read(offset, &mut got);
        let want: Vec<u8> = (offset..offset + len).map(|o| reference_pattern_byte(seed, o)).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(page.checksum(), reference_checksum(seed));
    }

    /// For any set of hardware-completed pages, one kpted scan finds each
    /// exactly once and a second scan finds none.
    #[test]
    fn scan_finds_each_completed_page_once(vpns in prop::collection::hash_set(0u64..1u64 << 27, 1..60)) {
        let mut pt = PageTable::new();
        for &v in &vpns {
            pt.set_pte(Vpn(v), Pte::lba_augmented(blk(v), PteFlags::user_data()));
            let walk = pt.walk(Vpn(v)).expect("populated");
            pt.smu_complete(&walk, Pfn(v + 1));
        }
        let mut found = Vec::new();
        pt.scan_needs_sync(|vpn, pte| {
            found.push(vpn.0);
            pte.clear_lba_bit()
        });
        found.sort_unstable();
        let mut expect: Vec<u64> = vpns.iter().copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(found, expect);
        let again = pt.scan_needs_sync(|_, pte| pte);
        prop_assert_eq!(again.ptes_synced, 0);
    }

    /// set_pte / pte round-trips for arbitrary VPNs and PTE values, and
    /// never disturbs neighbours.
    #[test]
    fn set_get_isolated(pairs in prop::collection::btree_map(0u64..1u64 << 27, 0u64..1u64 << 40, 1..50)) {
        let mut pt = PageTable::new();
        for (&v, &pfn) in &pairs {
            pt.set_pte(Vpn(v), Pte::present(Pfn(pfn), PteFlags::user_data()));
        }
        for (&v, &pfn) in &pairs {
            prop_assert_eq!(pt.pte(Vpn(v)).pfn(), Some(Pfn(pfn)));
        }
        // A VPN not in the map is empty (probe a few derived ones).
        for &v in pairs.keys().take(5) {
            let probe = v ^ (1 << 26) | 1;
            if !pairs.contains_key(&probe) {
                prop_assert_eq!(pt.pte(Vpn(probe)), Pte::EMPTY);
            }
        }
    }

    /// The full lifecycle (augment → hw-complete → sync → evict) ends in
    /// the LbaAugmented state with the eviction block, for any inputs.
    #[test]
    fn lifecycle_ends_augmented(v in 0u64..1u64 << 27, pfn in 0u64..1u64 << 40, l1 in 0u64..1u64 << 41, l2 in 0u64..1u64 << 41) {
        let mut pt = PageTable::new();
        pt.set_pte(Vpn(v), Pte::lba_augmented(blk(l1), PteFlags::user_data()));
        let walk = pt.walk(Vpn(v)).expect("populated");
        pt.smu_complete(&walk, Pfn(pfn));
        pt.scan_needs_sync(|_, pte| pte.clear_lba_bit());
        pt.update_pte(Vpn(v), |p| p.evict_to(blk(l2)));
        let pte = pt.pte(Vpn(v));
        prop_assert_eq!(pte.class(), PteClass::LbaAugmented);
        prop_assert_eq!(pte.block(), Some(blk(l2)));
    }

    /// TLB: after any interleaving of fills and invalidates, a lookup
    /// returns exactly the last fill not followed by an invalidate.
    #[test]
    fn tlb_reflects_last_operation(ops in prop::collection::vec((0u64..64u64, 0u64..1000u64, prop::bool::ANY), 1..100)) {
        let mut tlb = Tlb::new(256, 4); // large enough to avoid capacity evictions
        let mut model = std::collections::HashMap::new();
        for (vpn, pfn, invalidate) in ops {
            if invalidate {
                tlb.invalidate(Vpn(vpn));
                model.remove(&vpn);
            } else {
                tlb.fill(Vpn(vpn), Pfn(pfn));
                model.insert(vpn, pfn);
            }
        }
        for (&vpn, &pfn) in &model {
            prop_assert_eq!(tlb.lookup(Vpn(vpn)), Some(Pfn(pfn)));
        }
    }

    /// PageData read/write round-trips at arbitrary offsets across all
    /// representations.
    #[test]
    fn page_data_roundtrip(seed: u64, offset in 0usize..4080, bytes in prop::collection::vec(any::<u8>(), 1..16)) {
        for base in [PageData::Zero, PageData::Pattern(seed)] {
            let mut page = base.clone();
            let len = bytes.len().min(4096 - offset);
            page.write(offset, &bytes[..len]);
            let mut back = vec![0u8; len];
            page.read(offset, &mut back);
            prop_assert_eq!(&back[..], &bytes[..len]);
            // Bytes before the write are unchanged.
            if offset > 0 {
                let mut orig = vec![0u8; offset];
                let mut now = vec![0u8; offset];
                base.read(0, &mut orig);
                page.read(0, &mut now);
                prop_assert_eq!(orig, now);
            }
        }
    }

    /// Checksums are representation-independent and sensitive to content.
    #[test]
    fn checksum_consistency(seed: u64, offset in 0usize..4088) {
        let pat = PageData::Pattern(seed);
        let mut materialized = PageData::Pattern(seed);
        materialized.materialize();
        prop_assert_eq!(pat.checksum(), materialized.checksum());
        let mut changed = pat.clone();
        let mut b = [0u8; 1];
        changed.read(offset, &mut b);
        changed.write(offset, &[b[0] ^ 0xFF]);
        prop_assert_ne!(changed.checksum(), pat.checksum());
    }
}
