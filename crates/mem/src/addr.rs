//! Address-space newtypes and page contents.
//!
//! Everything is 4 KiB-page based, matching the paper (a single NVMe
//! command reads a 4 KiB block without a PRP list, §V).

use std::fmt;
use std::rc::Rc;

/// Page size in bytes (4 KiB, the paper's only first-class page size).
pub const PAGE_SIZE: usize = 4096;
/// log2(PAGE_SIZE).
pub const PAGE_SHIFT: u32 = 12;

/// A virtual address within a simulated process address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// The virtual page containing this address.
    pub const fn vpn(self) -> Vpn {
        Vpn(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the page.
    pub const fn page_offset(self) -> usize {
        (self.0 & (PAGE_SIZE as u64 - 1)) as usize
    }

    /// Raw address value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

/// A virtual page number (address >> 12). 36 significant bits are used
/// (48-bit canonical virtual addresses).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

impl Vpn {
    /// First byte of the page.
    pub const fn base(self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }

    /// The page `n` pages after this one.
    pub const fn add(self, n: u64) -> Vpn {
        Vpn(self.0 + n)
    }

    /// x86-64 page-table indices for this VPN: `(pgd, pud, pmd, pt)`,
    /// 9 bits each.
    pub const fn indices(self) -> (usize, usize, usize, usize) {
        let v = self.0;
        (
            ((v >> 27) & 0x1FF) as usize,
            ((v >> 18) & 0x1FF) as usize,
            ((v >> 9) & 0x1FF) as usize,
            (v & 0x1FF) as usize,
        )
    }
}

impl fmt::Debug for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

/// A physical (simulated-DRAM) address. Used chiefly as the PMSHR key: the
/// physical address of a PTE uniquely identifies a virtual page (§III-C).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

/// A physical frame number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pfn(pub u64);

impl Pfn {
    /// First byte of the frame.
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }
}

impl fmt::Debug for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{:#x}", self.0)
    }
}

/// Socket ID selecting the home SMU for a page miss (3 bits, up to 8
/// sockets — §III-B).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct SocketId(pub u8);

/// Device ID selecting a block device / NVMe namespace within a socket
/// (3 bits, up to 8 devices per socket — §III-B).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct DeviceId(pub u8);

/// A logical block address on a block device (41 bits, up to 1 PB of 512-B
/// blocks per the paper's layout; we address 4 KiB blocks directly).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lba(pub u64);

impl Lba {
    /// Maximum encodable LBA (41 bits).
    pub const MAX: Lba = Lba((1 << 41) - 1);

    /// The reserved constant marking a never-written anonymous page
    /// (paper §V: "reserve a pre-defined constant for the LBA field to
    /// mark the first access and make SMU bypass I/O processing").
    /// An SMU meeting this LBA delivers a zeroed page without any device
    /// I/O.
    pub const ANON_ZERO: Lba = Lba::MAX;
}

impl fmt::Debug for Lba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lba:{:#x}", self.0)
    }
}

/// The unique storage-block triple an LBA-augmented PTE points at:
/// `<SID, device ID, LBA>` identifies one block in the whole system.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct BlockRef {
    /// Home socket (selects the SMU that handles the miss).
    pub socket: SocketId,
    /// Device within the socket.
    pub device: DeviceId,
    /// Block on the device.
    pub lba: Lba,
}

impl BlockRef {
    /// Creates a block reference.
    ///
    /// # Panics
    ///
    /// Panics if the socket or device exceed 3 bits, or the LBA exceeds
    /// 41 bits (they would not fit the PTE payload).
    pub fn new(socket: SocketId, device: DeviceId, lba: Lba) -> Self {
        assert!(socket.0 < 8, "socket id must fit 3 bits");
        assert!(device.0 < 8, "device id must fit 3 bits");
        assert!(lba.0 <= Lba::MAX.0, "lba must fit 41 bits");
        BlockRef { socket, device, lba }
    }
}

/// Bytes a [`PageData::Head`] page holds inline: one MiniDB record header
/// (24 bytes), which also covers an 8-byte scratch counter.
pub const HEAD_LEN: usize = 24;

/// Contents of a 4 KiB page or storage block.
///
/// Real byte buffers are only materialized when a workload actually writes
/// distinct data past the first [`HEAD_LEN`] bytes; read-only synthetic
/// datasets (e.g. FIO's pre-generated file) use the O(1)
/// [`PageData::Pattern`] representation, whose bytes are a pure function
/// of the seed, and pages whose only non-zero bytes are a small header
/// (MiniDB records, scratch counters) stay [`PageData::Head`]. This keeps
/// multi-GiB-ratio simulations cheap while still letting integration tests
/// verify every byte.
///
/// The representation rule: a write keeps a `Zero` or `Head` page inline
/// when it ends at or before byte [`HEAD_LEN`]; any other write
/// materializes `Bytes`. Reads, [`PageData::materialize`] and
/// [`PageData::checksum`] see every representation as its 4096 bytes.
///
/// `Bytes` buffers are shared copy-on-write: cloning a page (a block-store
/// read, a DMA fill, a writeback snapshot) bumps a reference count, and
/// the first write through any holder copies the 4 KiB buffer before
/// changing it, so no other holder ever observes the write.
#[derive(Clone, PartialEq, Eq)]
pub enum PageData {
    /// All zeroes (fresh anonymous page / unwritten block).
    Zero,
    /// Deterministic pseudo-random contents generated from a seed.
    Pattern(u64),
    /// The first [`HEAD_LEN`] bytes, held inline; every later byte is zero.
    Head([u8; HEAD_LEN]),
    /// Explicit bytes, shared copy-on-write.
    Bytes(Rc<[u8; PAGE_SIZE]>),
}

impl Default for PageData {
    fn default() -> Self {
        PageData::Zero
    }
}

impl fmt::Debug for PageData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageData::Zero => write!(f, "PageData::Zero"),
            PageData::Pattern(s) => write!(f, "PageData::Pattern({s:#x})"),
            PageData::Head(h) => write!(f, "PageData::Head({h:02x?})"),
            PageData::Bytes(_) => write!(f, "PageData::Bytes(..)"),
        }
    }
}

/// The 8-byte lane `lane` of a pattern page (SplitMix64 of the seed and
/// lane index); byte `offset` of the page is byte `offset % 8` of lane
/// `offset / 8`, little-endian.
fn pattern_lane(seed: u64, lane: u64) -> [u8; 8] {
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.to_le_bytes()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME^n` (wrapping): FNV-1a over `n` zero bytes multiplies the
/// hash by exactly this, since XOR with zero is the identity.
const fn fnv_prime_pow(n: usize) -> u64 {
    let mut acc = 1u64;
    let mut i = 0;
    while i < n {
        acc = acc.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    acc
}

/// FNV-1a state after a whole zero page.
const FNV_ZERO_PAGE: u64 = FNV_OFFSET.wrapping_mul(fnv_prime_pow(PAGE_SIZE));
/// The zero tail after a `Head` page's inline bytes.
const FNV_ZERO_TAIL: u64 = fnv_prime_pow(PAGE_SIZE - HEAD_LEN);

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl PageData {
    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + buf.len()` exceeds [`PAGE_SIZE`].
    pub fn read(&self, offset: usize, buf: &mut [u8]) {
        assert!(offset + buf.len() <= PAGE_SIZE, "read beyond page");
        match self {
            PageData::Zero => buf.fill(0),
            PageData::Pattern(seed) => {
                // One SplitMix64 per lane touched; the first and last
                // lanes may be partial.
                let mut done = 0;
                while done < buf.len() {
                    let at = offset + done;
                    let lane = pattern_lane(*seed, (at / 8) as u64);
                    let skip = at % 8;
                    let n = (8 - skip).min(buf.len() - done);
                    buf[done..done + n].copy_from_slice(&lane[skip..skip + n]);
                    done += n;
                }
            }
            PageData::Head(head) => {
                let inline = head.get(offset..).unwrap_or_default();
                let n = inline.len().min(buf.len());
                buf[..n].copy_from_slice(&inline[..n]);
                buf[n..].fill(0);
            }
            PageData::Bytes(bytes) => buf.copy_from_slice(&bytes[offset..offset + buf.len()]),
        }
    }

    /// Writes `data` at `offset`. A `Zero` or `Head` page stays inline
    /// when the write ends at or before byte [`HEAD_LEN`]; anything else
    /// materializes a byte buffer.
    ///
    /// # Panics
    ///
    /// Panics if `offset + data.len()` exceeds [`PAGE_SIZE`].
    pub fn write(&mut self, offset: usize, data: &[u8]) {
        let end = offset + data.len();
        assert!(end <= PAGE_SIZE, "write beyond page");
        if end <= HEAD_LEN {
            if let PageData::Zero = self {
                *self = PageData::Head([0; HEAD_LEN]);
            }
            if let PageData::Head(head) = self {
                head[offset..end].copy_from_slice(data);
                return;
            }
        }
        self.materialize()[offset..end].copy_from_slice(data);
    }

    /// Converts to an explicit byte buffer this page holds alone (copying
    /// a shared one first) and returns it mutably.
    pub fn materialize(&mut self) -> &mut [u8; PAGE_SIZE] {
        if !matches!(self, PageData::Bytes(_)) {
            let mut bytes = [0u8; PAGE_SIZE];
            self.read(0, &mut bytes);
            *self = PageData::Bytes(Rc::new(bytes));
        }
        match self {
            PageData::Bytes(b) => Rc::make_mut(b),
            _ => unreachable!("just materialized"),
        }
    }

    /// A cheap 64-bit checksum of the page contents: FNV-1a over its 4096
    /// bytes, consistent across representations. `Zero` and the zero tail
    /// of `Head` are closed-form; `Pattern` walks its lanes directly.
    pub fn checksum(&self) -> u64 {
        match self {
            PageData::Zero => FNV_ZERO_PAGE,
            PageData::Head(head) => fnv_bytes(FNV_OFFSET, head).wrapping_mul(FNV_ZERO_TAIL),
            PageData::Pattern(seed) => (0..(PAGE_SIZE / 8) as u64)
                .fold(FNV_OFFSET, |h, lane| fnv_bytes(h, &pattern_lane(*seed, lane))),
            PageData::Bytes(bytes) => fnv_bytes(FNV_OFFSET, &bytes[..]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_and_offset_split() {
        let a = VirtAddr(0x1234_5678);
        assert_eq!(a.vpn(), Vpn(0x12345));
        assert_eq!(a.page_offset(), 0x678);
        assert_eq!(a.vpn().base(), VirtAddr(0x1234_5000));
    }

    #[test]
    fn vpn_indices_roundtrip() {
        let vpn = Vpn(0o123_456_701_234); // arbitrary 36-bit value
        let (pgd, pud, pmd, pt) = vpn.indices();
        let rebuilt =
            ((pgd as u64) << 27) | ((pud as u64) << 18) | ((pmd as u64) << 9) | pt as u64;
        assert_eq!(rebuilt, vpn.0);
        assert!(pgd < 512 && pud < 512 && pmd < 512 && pt < 512);
    }

    #[test]
    fn pfn_base() {
        assert_eq!(Pfn(3).base(), PhysAddr(3 * 4096));
    }

    #[test]
    fn block_ref_validates_fields() {
        let b = BlockRef::new(SocketId(7), DeviceId(7), Lba::MAX);
        assert_eq!(b.socket.0, 7);
    }

    #[test]
    #[should_panic(expected = "3 bits")]
    fn block_ref_rejects_wide_socket() {
        let _ = BlockRef::new(SocketId(8), DeviceId(0), Lba(0));
    }

    #[test]
    #[should_panic(expected = "41 bits")]
    fn block_ref_rejects_wide_lba() {
        let _ = BlockRef::new(SocketId(0), DeviceId(0), Lba(1 << 41));
    }

    #[test]
    fn zero_page_reads_zero() {
        let p = PageData::Zero;
        let mut buf = [0xFFu8; 16];
        p.read(100, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn pattern_is_deterministic_and_nonzero() {
        let p = PageData::Pattern(42);
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        p.read(64, &mut a);
        p.read(64, &mut b);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x != 0));
        // Different seeds give different bytes.
        let q = PageData::Pattern(43);
        q.read(64, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn write_materializes_and_preserves_rest() {
        let mut p = PageData::Pattern(7);
        let mut before = [0u8; 8];
        p.read(0, &mut before);
        p.write(100, b"hello");
        let mut after = [0u8; 8];
        p.read(0, &mut after);
        assert_eq!(before, after, "untouched bytes preserved");
        let mut h = [0u8; 5];
        p.read(100, &mut h);
        assert_eq!(&h, b"hello");
    }

    #[test]
    fn checksum_consistent_across_representations() {
        let pat = PageData::Pattern(99);
        let mut mat = PageData::Pattern(99);
        mat.materialize();
        assert_eq!(pat.checksum(), mat.checksum());
        assert_ne!(pat.checksum(), PageData::Zero.checksum());
    }

    /// The per-byte expansion the lane-wise `read` replaced: one
    /// SplitMix64 per byte, keeping byte `offset % 8` of the lane.
    fn reference_pattern_byte(seed: u64, offset: usize) -> u8 {
        let lane = (offset / 8) as u64;
        let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        z.to_le_bytes()[offset % 8]
    }

    #[test]
    fn lane_wise_pattern_read_matches_per_byte_reference() {
        // Every start offset within two lanes and every length up to three
        // lanes, at the start, middle and end of the page.
        for seed in [0, 42, u64::MAX] {
            let p = PageData::Pattern(seed);
            for base in [0, 2048, PAGE_SIZE - 40] {
                for skip in 0..16 {
                    for len in 0..=24 {
                        let offset = base + skip;
                        if offset + len > PAGE_SIZE {
                            continue;
                        }
                        let mut got = vec![0u8; len];
                        p.read(offset, &mut got);
                        let want: Vec<u8> = (offset..offset + len)
                            .map(|o| reference_pattern_byte(seed, o))
                            .collect();
                        assert_eq!(got, want, "seed {seed} offset {offset} len {len}");
                    }
                }
            }
            let mut page = [0u8; PAGE_SIZE];
            p.read(0, &mut page);
            for (o, b) in page.iter().enumerate() {
                assert_eq!(*b, reference_pattern_byte(seed, o), "seed {seed} offset {o}");
            }
        }
    }

    #[test]
    fn checksums_are_pinned() {
        // Values produced by the per-byte expansion; the lane-wise read
        // must not move them (they feed the chaos content digest).
        assert_eq!(PageData::Pattern(0).checksum(), 0x8bc1_c2a9_8661_647b);
        assert_eq!(PageData::Pattern(42).checksum(), 0x564d_d338_8cb4_8700);
        assert_eq!(PageData::Pattern(u64::MAX).checksum(), 0x8b78_d660_c558_6ca5);
        assert_eq!(PageData::Zero.checksum(), 0xb93a_0c83_ce3b_6325);
    }

    #[test]
    fn shared_bytes_are_copy_on_write() {
        // The write runs past the inline head, so it materializes `Bytes`.
        let mut a = PageData::Zero;
        a.write(HEAD_LEN, b"original");
        let mut b = a.clone();
        let PageData::Bytes(rc) = &a else { panic!("write materializes") };
        assert_eq!(Rc::strong_count(rc), 2, "a clone shares the buffer");
        b.write(HEAD_LEN, b"changed!");
        let (mut x, mut y) = ([0u8; 8], [0u8; 8]);
        a.read(HEAD_LEN, &mut x);
        b.read(HEAD_LEN, &mut y);
        assert_eq!(&x, b"original", "the writer copied before writing");
        assert_eq!(&y, b"changed!");
    }

    #[test]
    fn head_writes_stay_inline_and_clones_are_independent() {
        let mut a = PageData::Zero;
        a.write(0, b"original");
        a.write(HEAD_LEN - 4, b"tail");
        assert!(matches!(a, PageData::Head(_)), "a write ending by byte 24 stays inline");
        let mut b = a.clone();
        b.write(0, b"changed!");
        let (mut x, mut y) = ([0u8; HEAD_LEN + 8], [0u8; HEAD_LEN + 8]);
        a.read(0, &mut x);
        b.read(0, &mut y);
        assert_eq!(&x[..8], b"original", "the clone's write did not reach the source");
        assert_eq!(&y[..8], b"changed!");
        assert_eq!(&x[HEAD_LEN - 4..HEAD_LEN], b"tail");
        assert_eq!(&x[HEAD_LEN..], &[0u8; 8], "bytes past the head read zero");
        let mut far = [0xFFu8; 16];
        a.read(100, &mut far);
        assert_eq!(far, [0u8; 16]);
        let mut mat = a.clone();
        mat.materialize();
        assert_eq!(a.checksum(), mat.checksum());
        a.write(HEAD_LEN - 1, b"xy");
        assert!(matches!(a, PageData::Bytes(_)), "a write past byte 24 materializes");
        assert_eq!(&a.materialize()[..4], b"orig");
    }

    /// FNV-1a over the page's bytes as `read` returns them: the byte walk
    /// the closed-form `checksum` replaced.
    fn reference_checksum(page: &PageData) -> u64 {
        let mut bytes = [0u8; PAGE_SIZE];
        page.read(0, &mut bytes);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    #[test]
    fn closed_form_checksum_matches_byte_walk() {
        let mut head = PageData::Zero;
        head.write(0, &[0xA5; HEAD_LEN]);
        let mut zero_head = PageData::Zero;
        zero_head.write(3, &[0; 5]);
        let mut bytes = PageData::Pattern(5);
        bytes.write(4000, b"bytes");
        for page in [
            PageData::Zero,
            PageData::Pattern(0),
            PageData::Pattern(42),
            PageData::Pattern(u64::MAX),
            head,
            zero_head,
            bytes,
        ] {
            assert_eq!(page.checksum(), reference_checksum(&page), "{page:?}");
        }
    }

    #[test]
    fn checksum_detects_single_byte_change() {
        let mut a = PageData::Zero;
        let base = a.checksum();
        a.write(4095, &[1]);
        assert_ne!(a.checksum(), base);
    }

    #[test]
    #[should_panic(expected = "beyond page")]
    fn read_past_end_panics() {
        let p = PageData::Zero;
        let mut buf = [0u8; 8];
        p.read(PAGE_SIZE - 4, &mut buf);
    }
}
