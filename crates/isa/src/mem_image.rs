//! Sparse byte-addressable data memory.
//!
//! [`MemoryImage`] is the functional data memory shared by the golden
//! interpreter and the pipeline models' architectural state. It is a
//! sparse page map: reads of never-written addresses return zero and do
//! not allocate, so wrong-path or wild loads cannot blow up the footprint.
//!
//! The page map is tuned for the simulator's hot loop: pages live in a
//! dense slot vector behind a `page number -> slot` index with a cheap
//! multiplicative hasher, accesses that fit inside one page take a
//! single lookup (not one per byte), and a one-entry last-page cache —
//! refreshed by every `&mut` access — short-circuits the index for the
//! common run of touches to the same page. Accesses that straddle a
//! page boundary (including address-space wraparound past `u64::MAX`)
//! fall back to a byte-wise slow path with wrapping address arithmetic.
//!
//! Pages are copy-on-write. Every machine and the reference interpreter
//! start from a clone of one workload's initial image, and a run writes
//! few of its pages, so a clone copies only the page index and shares
//! every page by reference count. The first write to a page that
//! another image still holds copies that page into this image.
//! Comparing two images skips the pages they share, which is every
//! page neither run wrote.
//!
//! Copies and new pages come from a short per-thread list of pages that
//! dropped images held alone, so a model built and dropped per short run
//! reuses the same few pages rather than faulting fresh ones in.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Bytes per backing page.
const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// One backing page; images share a page until one of them writes it.
type Page = [u8; PAGE_SIZE];

/// Sentinel slot marking the last-page cache as empty.
const NO_SLOT: u32 = u32::MAX;

/// Most spare pages a thread keeps (1 MiB); past it a dropped image's
/// pages are freed. Small on purpose: what the list holds stays live
/// heap between runs. A traced benchmark run's peak RSS read 43.7 MB
/// with this cap, 52.8 MB with 2048 pages and 51.6 MB with no list
/// (45.1 MB when every clone copied its pages), the last two from where
/// glibc placed the short-lived buffers around the pages.
const SPARE_PAGES: usize = 256;

thread_local! {
    /// Pages of dropped images that no other image held, for the
    /// thread's next copy or new page. Their bytes are stale until
    /// taken: [`fresh_page`] zeroes or overwrites every byte.
    static SPARE: RefCell<Vec<Arc<Page>>> = const { RefCell::new(Vec::new()) };
}

/// A page no other image holds, filled with `src`'s bytes, or zeros
/// without one: a spare page when the thread has one, else a new
/// allocation.
fn fresh_page(src: Option<&Page>) -> Arc<Page> {
    let spare = SPARE.try_with(|s| s.borrow_mut().pop()).ok().flatten();
    match (spare, src) {
        (Some(mut page), src) => {
            let bytes = Arc::get_mut(&mut page).expect("a spare page is unshared");
            match src {
                Some(src) => bytes.copy_from_slice(src),
                None => bytes.fill(0),
            }
            page
        }
        (None, Some(src)) => Arc::new(*src),
        (None, None) => Arc::new([0; PAGE_SIZE]),
    }
}

/// Multiplicative (Fibonacci) hasher for page numbers. Page keys are
/// single `u64`s with low entropy in the high bits, so a multiply by
/// the golden-ratio constant plus an xor-shift disperses them far more
/// cheaply than the default SipHash.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let x = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }
}

type PageIndex = HashMap<u64, u32, BuildHasherDefault<PageHasher>>;

/// Sparse, byte-addressable 64-bit memory with copy-on-write pages.
///
/// Cloning copies the page index and shares every page; each image
/// copies a shared page the first time it writes it, so writes through
/// a clone never reach the image it was cloned from.
///
/// # Examples
///
/// ```
/// use ff_isa::MemoryImage;
///
/// let mut mem = MemoryImage::new();
/// mem.write_u64(0x1000, 42);
/// assert_eq!(mem.read_u64(0x1000), 42);
/// // Unwritten memory reads as zero.
/// assert_eq!(mem.read_u64(0xdead_beef), 0);
///
/// // A clone shares the page until one of the two writes it.
/// let mut copy = mem.clone();
/// copy.write_u64(0x1000, 7);
/// assert_eq!((mem.read_u64(0x1000), copy.read_u64(0x1000)), (42, 7));
/// ```
#[derive(Debug, Clone)]
pub struct MemoryImage {
    /// Page number -> slot in `pages`. Pages are never deallocated, so
    /// slots are stable for the lifetime of the image.
    slots: PageIndex,
    /// Page contents, shared with clones until written. No `Weak`
    /// reference to a page is ever made, so a strong count of one means
    /// this image holds the page alone.
    pages: Vec<Arc<Page>>,
    /// Last-touched `(page number, slot)`; `NO_SLOT` when empty. Only
    /// `&mut self` accessors refresh it, which keeps the type `Sync`
    /// for the parallel sweep engine.
    last_page: u64,
    last_slot: u32,
}

impl Default for MemoryImage {
    fn default() -> Self {
        Self::new()
    }
}

/// Two images are equal when the same set of pages is resident with the
/// same contents; the last-page cache is a lookup accelerator, not
/// state. A page both images share is equal without reading it.
impl PartialEq for MemoryImage {
    fn eq(&self, other: &Self) -> bool {
        self.slots.len() == other.slots.len()
            && self.slots.iter().all(|(&page, &slot)| {
                other.slots.get(&page).is_some_and(|&o| {
                    let (a, b) = (&self.pages[slot as usize], &other.pages[o as usize]);
                    Arc::ptr_eq(a, b) || a == b
                })
            })
    }
}

impl Drop for MemoryImage {
    /// Keeps the pages this image held alone, up to 256 (`SPARE_PAGES`), for
    /// the thread's next copies and new pages.
    fn drop(&mut self) {
        // Past the thread's exit the pages are simply freed.
        let _ = SPARE.try_with(|s| {
            let mut s = s.borrow_mut();
            for page in self.pages.drain(..) {
                if s.len() == SPARE_PAGES {
                    break;
                }
                if Arc::strong_count(&page) == 1 {
                    s.push(page);
                }
            }
        });
    }
}

impl MemoryImage {
    /// Creates an empty memory; every address reads as zero.
    #[must_use]
    pub fn new() -> Self {
        Self { slots: PageIndex::default(), pages: Vec::new(), last_page: 0, last_slot: NO_SLOT }
    }

    /// Number of resident (written) pages; useful for footprint assertions
    /// in tests.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The slot holding `page`, if resident. Consults the last-page
    /// cache but cannot refresh it (`&self`).
    #[inline]
    fn slot_of(&self, page: u64) -> Option<u32> {
        if self.last_slot != NO_SLOT && self.last_page == page {
            return Some(self.last_slot);
        }
        self.slots.get(&page).copied()
    }

    /// Like [`Self::slot_of`], refreshing the last-page cache on an
    /// index hit.
    #[inline]
    fn slot_of_mut(&mut self, page: u64) -> Option<u32> {
        if self.last_slot != NO_SLOT && self.last_page == page {
            return Some(self.last_slot);
        }
        let slot = self.slots.get(&page).copied();
        if let Some(s) = slot {
            self.last_page = page;
            self.last_slot = s;
        }
        slot
    }

    /// The slot holding `page`, allocating a zeroed page if absent, and
    /// refreshing the last-page cache either way.
    #[inline]
    fn slot_or_alloc(&mut self, page: u64) -> u32 {
        if self.last_slot != NO_SLOT && self.last_page == page {
            return self.last_slot;
        }
        let next = self.pages.len() as u32;
        let slot = *self.slots.entry(page).or_insert(next);
        if slot == next {
            self.pages.push(fresh_page(None));
        }
        self.last_page = page;
        self.last_slot = slot;
        slot
    }

    /// The writable bytes of the page in `slot`, first copying the page
    /// if another image still holds it.
    #[inline]
    fn page_mut(&mut self, slot: u32) -> &mut Page {
        let page = &mut self.pages[slot as usize];
        if Arc::strong_count(page) != 1 {
            *page = fresh_page(Some(&**page));
        }
        Arc::get_mut(page).expect("a page this image holds alone")
    }

    /// Reads a single byte.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.slot_of(addr >> PAGE_SHIFT) {
            Some(slot) => self.pages[slot as usize][(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes a single byte, allocating the containing page if needed.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let slot = self.slot_or_alloc(addr >> PAGE_SHIFT);
        self.page_mut(slot)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `size` bytes (1..=8) little-endian, zero-extended to 64 bits.
    ///
    /// Accesses contained in one page take a single page lookup;
    /// page-straddling accesses (including wraparound past `u64::MAX`,
    /// which continues byte-wise at address 0) fall back to the
    /// byte-wise slow path.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0 or greater than 8.
    #[must_use]
    pub fn read(&self, addr: u64, size: u64) -> u64 {
        assert!((1..=8).contains(&size), "access size {size} out of range");
        let off = (addr & PAGE_MASK) as usize;
        let size_b = size as usize;
        if off + size_b <= PAGE_SIZE {
            let mut buf = [0u8; 8];
            if let Some(slot) = self.slot_of(addr >> PAGE_SHIFT) {
                buf[..size_b].copy_from_slice(&self.pages[slot as usize][off..off + size_b]);
            }
            return u64::from_le_bytes(buf);
        }
        self.read_straddle(addr, size)
    }

    /// Reads like [`Self::read`], additionally refreshing the last-page
    /// cache so runs of accesses to the same page skip the page index.
    /// The pipeline models and the interpreter, which own their memory,
    /// use this on the load path.
    #[must_use]
    pub fn load(&mut self, addr: u64, size: u64) -> u64 {
        assert!((1..=8).contains(&size), "access size {size} out of range");
        let off = (addr & PAGE_MASK) as usize;
        let size_b = size as usize;
        if off + size_b <= PAGE_SIZE {
            let mut buf = [0u8; 8];
            if let Some(slot) = self.slot_of_mut(addr >> PAGE_SHIFT) {
                buf[..size_b].copy_from_slice(&self.pages[slot as usize][off..off + size_b]);
            }
            return u64::from_le_bytes(buf);
        }
        self.read_straddle(addr, size)
    }

    /// Byte-wise slow path for page-straddling reads; wrapping address
    /// arithmetic makes an access that runs past `u64::MAX` continue at
    /// address 0, mirroring the historical byte-loop semantics.
    #[cold]
    fn read_straddle(&self, addr: u64, size: u64) -> u64 {
        let mut value = 0u64;
        for i in 0..size {
            value |= u64::from(self.read_u8(addr.wrapping_add(i))) << (8 * i);
        }
        value
    }

    /// Writes the low `size` bytes (1..=8) of `value` little-endian.
    ///
    /// Same fast/slow-path split as [`Self::read`]: one page lookup
    /// when the access fits in a page, byte-wise with wraparound when
    /// it straddles.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0 or greater than 8.
    pub fn write(&mut self, addr: u64, size: u64, value: u64) {
        assert!((1..=8).contains(&size), "access size {size} out of range");
        let off = (addr & PAGE_MASK) as usize;
        let size_b = size as usize;
        if off + size_b <= PAGE_SIZE {
            let slot = self.slot_or_alloc(addr >> PAGE_SHIFT);
            let bytes = value.to_le_bytes();
            self.page_mut(slot)[off..off + size_b].copy_from_slice(&bytes[..size_b]);
            return;
        }
        self.write_straddle(addr, size, value);
    }

    /// Byte-wise slow path for page-straddling writes.
    #[cold]
    fn write_straddle(&mut self, addr: u64, size: u64, value: u64) {
        for i in 0..size {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Reads an 8-byte little-endian word.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr, 8)
    }

    /// Writes an 8-byte little-endian word.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, 8, value);
    }

    /// Reads an 8-byte IEEE-754 double.
    #[must_use]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an 8-byte IEEE-754 double.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Writes 64-bit words starting at `addr` (8-byte stride, wrapping
    /// past `u64::MAX` like [`Self::write`]).
    ///
    /// Looks up each page and checks that this image holds it alone once
    /// per page, not once per word; a word straddling a page boundary
    /// takes [`Self::write_u64`].
    pub fn write_u64s(&mut self, addr: u64, values: impl IntoIterator<Item = u64>) {
        let mut values = values.into_iter().peekable();
        let mut addr = addr;
        while values.peek().is_some() {
            let off = (addr & PAGE_MASK) as usize;
            let written = if off + 8 > PAGE_SIZE {
                self.write_u64(addr, values.next().expect("peeked"));
                1
            } else {
                let slot = self.slot_or_alloc(addr >> PAGE_SHIFT);
                let page = self.page_mut(slot);
                let mut n = 0;
                for (word, v) in page[off..].chunks_exact_mut(8).zip(&mut values) {
                    word.copy_from_slice(&v.to_le_bytes());
                    n += 1;
                }
                n
            };
            addr = addr.wrapping_add(8 * written);
        }
    }

    /// Writes doubles starting at `addr` (8-byte stride), as
    /// [`Self::write_u64s`] writes their bits.
    pub fn write_f64s(&mut self, addr: u64, values: impl IntoIterator<Item = f64>) {
        self.write_u64s(addr, values.into_iter().map(f64::to_bits));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn unwritten_memory_reads_zero_without_allocating() {
        let mem = MemoryImage::new();
        assert_eq!(mem.read(0, 8), 0);
        assert_eq!(mem.read(u64::MAX - 7, 8), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn read_write_round_trip_all_sizes() {
        let mut mem = MemoryImage::new();
        for size in 1..=8u64 {
            let v = 0x1122_3344_5566_7788u64;
            mem.write(0x2000, size, v);
            let mask = if size == 8 { u64::MAX } else { (1 << (8 * size)) - 1 };
            assert_eq!(mem.read(0x2000, size), v & mask, "size {size}");
            assert_eq!(mem.load(0x2000, size), v & mask, "load size {size}");
        }
    }

    #[test]
    fn writes_are_little_endian() {
        let mut mem = MemoryImage::new();
        mem.write(0x100, 4, 0xAABB_CCDD);
        assert_eq!(mem.read_u8(0x100), 0xDD);
        assert_eq!(mem.read_u8(0x103), 0xAA);
    }

    #[test]
    fn page_crossing_access_round_trips() {
        let mut mem = MemoryImage::new();
        let addr = (1 << PAGE_SHIFT) - 3; // straddles the first page boundary
        mem.write_u64(addr, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(addr), 0x0102_0304_0506_0708);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn every_straddling_offset_round_trips() {
        // Each access size at each offset that makes it cross the page
        // boundary, interleaved with neighbor checks: the fast path and
        // the byte-wise slow path must agree byte for byte.
        for size in 2..=8u64 {
            for back in 1..size {
                let mut mem = MemoryImage::new();
                let addr = (1u64 << PAGE_SHIFT) - back;
                let v = 0xA1B2_C3D4_E5F6_0718u64;
                let mask = if size == 8 { u64::MAX } else { (1 << (8 * size)) - 1 };
                mem.write(addr, size, v);
                assert_eq!(mem.read(addr, size), v & mask, "size {size} back {back}");
                assert_eq!(mem.resident_pages(), 2, "size {size} back {back}");
                // Bytes outside the access stay zero.
                assert_eq!(mem.read_u8(addr - 1), 0);
                assert_eq!(mem.read_u8(addr.wrapping_add(size)), 0);
            }
        }
    }

    #[test]
    fn access_at_top_of_address_space_round_trips() {
        // u64::MAX - 7: the 8-byte access ends exactly at the last byte
        // of the address space — in one page, no wraparound.
        let mut mem = MemoryImage::new();
        mem.write_u64(u64::MAX - 7, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(mem.read_u64(u64::MAX - 7), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(mem.resident_pages(), 1);
    }

    #[test]
    fn access_wrapping_past_address_space_end_wraps_to_zero() {
        // u64::MAX - 3: the 8-byte access covers the last four bytes of
        // the address space and wraps to bytes 0..=3 of address 0,
        // matching the byte-loop semantics (wrapping_add per byte).
        let mut mem = MemoryImage::new();
        mem.write_u64(u64::MAX - 3, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(u64::MAX - 3), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u8(0), 0x04);
        assert_eq!(mem.read_u8(3), 0x01);
        assert_eq!(mem.read_u8(u64::MAX), 0x05);
        assert_eq!(mem.resident_pages(), 2);
        // The wrapped prefix is readable as its own access at 0.
        assert_eq!(mem.read(0, 4), 0x0102_0304);
    }

    #[test]
    fn partial_write_preserves_neighbors() {
        let mut mem = MemoryImage::new();
        mem.write_u64(0x40, u64::MAX);
        mem.write(0x42, 2, 0);
        assert_eq!(mem.read_u64(0x40), 0xFFFF_FFFF_0000_FFFF);
    }

    #[test]
    fn f64_round_trips() {
        let mut mem = MemoryImage::new();
        mem.write_f64(0x80, -3.25);
        assert_eq!(mem.read_f64(0x80), -3.25);
    }

    #[test]
    fn bulk_writers_use_word_stride() {
        let mut mem = MemoryImage::new();
        mem.write_u64s(0x0, [1, 2, 3]);
        assert_eq!(mem.read_u64(8), 2);
        mem.write_f64s(0x100, [1.5, 2.5]);
        assert_eq!(mem.read_f64(0x108), 2.5);
    }

    #[test]
    fn equality_ignores_lookup_caches_and_slot_order() {
        // Same logical contents written in different page orders must
        // compare equal even though the slot vectors differ.
        let mut a = MemoryImage::new();
        a.write_u64(0x0000, 7);
        a.write_u64(0x1000, 9);
        let mut b = MemoryImage::new();
        b.write_u64(0x1000, 9);
        b.write_u64(0x0000, 7);
        assert_eq!(a, b);
        b.write_u8(0x1FFF, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn clone_preserves_contents() {
        let mut mem = MemoryImage::new();
        mem.write_u64(0x3000, 0x55AA);
        let copy = mem.clone();
        assert_eq!(copy.read_u64(0x3000), 0x55AA);
        assert_eq!(copy, mem);
    }

    #[test]
    fn default_is_the_empty_image() {
        // The last-page cache of a default image starts empty, so page 0
        // is not mistaken for a resident page.
        let mut mem = MemoryImage::default();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.load(0, 8), 0);
        assert_eq!(mem, MemoryImage::new());
    }

    #[test]
    fn clone_shares_pages_until_written() {
        let mut src = MemoryImage::new();
        src.write_u64s(0, (0..1024).map(|i| i + 1)); // pages 0 and 1
        let mut copy = src.clone();
        assert!(src.pages.iter().zip(&copy.pages).all(|(a, b)| Arc::ptr_eq(a, b)));
        copy.write_u8(0x1008, 0xEE);
        assert_eq!(src.read_u64(0x1008), 514, "the source keeps its page");
        assert_eq!(copy.read_u64(0x1008) & 0xFF, 0xEE);
        assert!(Arc::ptr_eq(&src.pages[0], &copy.pages[0]), "an unwritten page stays shared");
        assert!(!Arc::ptr_eq(&src.pages[1], &copy.pages[1]));
        assert_eq!(Arc::strong_count(&src.pages[1]), 1);
        assert_ne!(src, copy);
        copy.write_u8(0x1008, 514u64 as u8);
        assert_eq!(src, copy, "equal contents compare equal once unshared");
    }

    fn spare_count() -> usize {
        SPARE.with(|s| s.borrow().len())
    }

    #[test]
    fn spare_pages_start_zeroed_or_as_the_page_they_copy() {
        // Two pages of nonzero bytes, dropped: the thread keeps them.
        let stale = || {
            let mut m = MemoryImage::new();
            m.write_u64s(0, (0..1024u64).map(|i| !i));
            m
        };
        drop(stale());
        let spares = spare_count();
        assert!(spares >= 2, "a dropped image's own pages are kept");

        let mut fresh = MemoryImage::new();
        fresh.write_u8(0x5001, 1);
        assert_eq!(spare_count(), spares - 1, "the new page is a spare one");
        for addr in 0x5000..0x6000 {
            assert_eq!(fresh.read_u8(addr), u8::from(addr == 0x5001), "byte {addr:#x}");
        }

        let mut src = MemoryImage::new();
        src.write_u64s(0x9000, (0..512u64).map(|i| i * 0x0101_0101 + 3));
        let mut copy = src.clone();
        drop(stale());
        let spares = spare_count();
        copy.write_u8(0x9010, 0xEE);
        assert_eq!(spare_count(), spares - 1, "the copy is a spare page");
        for addr in 0x9000..0xA000 {
            let want = if addr == 0x9010 { 0xEE } else { src.read_u8(addr) };
            assert_eq!(copy.read_u8(addr), want, "byte {addr:#x}");
        }
    }

    #[test]
    fn spare_list_is_capped() {
        let mut big = MemoryImage::new();
        big.write_u64s(0, 0..(SPARE_PAGES as u64 + 8) * 512);
        drop(big);
        assert_eq!(spare_count(), SPARE_PAGES);
    }

    #[test]
    fn bulk_writes_straddle_pages_word_by_word() {
        // Unaligned: every page end falls inside a word.
        let mut mem = MemoryImage::new();
        let words: Vec<u64> = (0..1100u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        mem.write_u64s(0xFFD, words.iter().copied());
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(mem.read_u64(0xFFD + 8 * i as u64), w, "word {i}");
        }
        assert_eq!(mem.read_u8(0xFFC), 0);
        assert_eq!(mem.read_u8(0xFFD + 8 * 1100), 0);
        assert_eq!(mem.resident_pages(), 4);
        // Nothing to write allocates nothing.
        mem.write_u64s(0x10_0000, []);
        assert_eq!(mem.resident_pages(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_size_access_panics() {
        let mem = MemoryImage::new();
        let _ = mem.read(0, 0);
    }

    /// A byte-map model of one image: unwritten bytes read as zero.
    #[derive(Clone, Default)]
    struct Model(BTreeMap<u64, u8>);

    impl Model {
        fn write(&mut self, addr: u64, size: u64, value: u64) {
            for i in 0..size {
                self.0.insert(addr.wrapping_add(i), (value >> (8 * i)) as u8);
            }
        }

        fn pages(&self) -> BTreeSet<u64> {
            self.0.keys().map(|a| a >> PAGE_SHIFT).collect()
        }

        fn read(&self, addr: u64, size: u64) -> u64 {
            (0..size).fold(0, |v, i| {
                v | u64::from(self.0.get(&addr.wrapping_add(i)).copied().unwrap_or(0)) << (8 * i)
            })
        }
    }

    /// An address near a page end or start of four low pages, anywhere
    /// in them, or at the top of the address space.
    fn pick_addr(sel: u64) -> u64 {
        let near = (sel >> 8) % 16;
        if (sel >> 40).is_multiple_of(16) {
            return u64::MAX - near;
        }
        let off = match sel % 3 {
            0 => PAGE_MASK - near,
            1 => near,
            _ => (sel >> 20) & PAGE_MASK,
        };
        (((sel >> 16) % 4) << PAGE_SHIFT) + off
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn clones_and_writes_match_a_byte_map(
            ops in prop::collection::vec(
                (0u8..12, any::<usize>(), any::<u64>(), 1u64..=8, any::<u64>()),
                1..60,
            ),
        ) {
            let mut images = vec![(MemoryImage::new(), Model::default())];
            for (kind, target, sel, size, value) in ops {
                let t = target % images.len();
                let addr = pick_addr(sel);
                match kind {
                    0..=5 => {
                        images[t].0.write(addr, size, value);
                        images[t].1.write(addr, size, value);
                    }
                    6 | 7 => {
                        // Over a page of words from an unaligned or aligned
                        // start: page ends fall between or inside words.
                        let n = value % 640;
                        let words = (0..n).map(|i| value.rotate_left(i as u32) ^ i);
                        images[t].0.write_u64s(addr, words.clone());
                        for (i, w) in words.enumerate() {
                            images[t].1.write(addr.wrapping_add(8 * i as u64), 8, w);
                        }
                    }
                    8 | 9 => {
                        let copy = images[t].clone();
                        images.push(copy);
                    }
                    10 if images.len() > 1 => {
                        images.swap_remove(t);
                    }
                    _ => {
                        let (img, model) = &mut images[t];
                        prop_assert_eq!(img.load(addr, size), model.read(addr, size));
                    }
                }
            }
            for (img, model) in &images {
                for &addr in model.0.keys() {
                    prop_assert_eq!(img.read_u8(addr), model.0[&addr], "byte {:#x}", addr);
                }
                for sel in 0..64u64 {
                    let addr = pick_addr(sel.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    prop_assert_eq!(img.read(addr, 8), model.read(addr, 8), "word {:#x}", addr);
                }
            }
            // Equal exactly when the same pages are resident with the
            // same bytes.
            let keys: Vec<_> = images
                .iter()
                .map(|(_, m)| (m.pages(), m.0.iter().filter(|(_, &v)| v != 0).collect::<Vec<_>>()))
                .collect();
            for (i, (a, _)) in images.iter().enumerate() {
                prop_assert_eq!(a.resident_pages(), keys[i].0.len());
                for (j, (b, _)) in images.iter().enumerate() {
                    prop_assert_eq!(a == b, keys[i] == keys[j], "images {} and {}", i, j);
                }
            }
        }
    }
}
