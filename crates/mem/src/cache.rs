//! Set-associative cache tag arrays.
//!
//! The simulator tracks hit/miss behaviour only: data itself lives in
//! the functional `ff_isa::MemoryImage`, and this timing model charges
//! nothing for evicting a written line, so lines carry no dirty bit.
//! Tags update at access time ("fill on access") while the latency of a
//! miss is charged by the pipeline's timing model — the standard split
//! for cycle-level simulators of this class.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

/// Error from [`CacheGeometry::validate`] / [`Cache::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// A field was zero or line size was not a power of two.
    Malformed,
    /// `size_bytes` is not divisible by `ways * line_bytes`.
    NotDivisible,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::Malformed => {
                write!(f, "geometry fields must be nonzero and line size a power of two")
            }
            GeometryError::NotDivisible => {
                write!(f, "cache size must divide evenly into sets of `ways` lines")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

impl CacheGeometry {
    /// Creates a geometry.
    #[must_use]
    pub const fn new(size_bytes: u64, ways: u64, line_bytes: u64) -> Self {
        CacheGeometry { size_bytes, ways, line_bytes }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] when fields are zero, the line size is
    /// not a power of two, or capacity does not divide into whole sets.
    pub fn validate(&self) -> Result<(), GeometryError> {
        if self.size_bytes == 0
            || self.ways == 0
            || self.line_bytes == 0
            || !self.line_bytes.is_power_of_two()
        {
            return Err(GeometryError::Malformed);
        }
        if !self.size_bytes.is_multiple_of(self.ways * self.line_bytes) {
            return Err(GeometryError::NotDivisible);
        }
        Ok(())
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// The line-aligned address containing `addr`.
    #[must_use]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Way {
    valid: bool,
    tag: u64,
    /// LRU stamp: larger is more recent.
    lru: u64,
}

/// Most spare tag arrays a thread keeps. Past it the oldest is freed.
const SPARE_ARRAYS: usize = 4;

/// Smallest tag array kept for reuse, in bytes: glibc's default mmap
/// threshold. An array that large is mapped on its own (until a free
/// raises the threshold), so keeping it pins nothing in the heap. At
/// Table 1 only the L3's (288 KiB) qualifies. Smaller arrays come from
/// the heap: keeping those pinned blocks between the large short-lived
/// buffers of a traced run (its peak RSS read 52 rather than 45 MB,
/// depending on the executable's path length), and allocating them
/// afresh faults no pages in.
const SPARE_MIN_BYTES: usize = 128 * 1024;

thread_local! {
    /// Reset tag arrays of dropped caches, for the next cache of the
    /// same size this thread builds. The differential oracle and the
    /// benchmark build a model per short run; allocating and freeing
    /// the L3 array each time made a run's cost follow glibc's heap
    /// (whether a free trimmed the heap top, so that the next
    /// construction faulted its pages in again) more than the simulator.
    static SPARE: RefCell<Vec<Vec<Way>>> = const { RefCell::new(Vec::new()) };
}

/// A tag array of `n` empty ways: a spare one of that length when the
/// thread has one, else a new allocation.
fn empty_ways(n: usize) -> Vec<Way> {
    let spare = SPARE
        .try_with(|s| {
            let mut s = s.borrow_mut();
            let i = s.iter().position(|v| v.len() == n)?;
            Some(s.swap_remove(i))
        })
        .ok()
        .flatten();
    match spare {
        Some(ways) => {
            debug_assert!(ways.iter().all(|w| *w == Way::default()), "a spare array is reset");
            ways
        }
        None => vec![Way::default(); n],
    }
}

/// One level of set-associative, write-allocate cache with LRU
/// replacement (tag state only).
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// `line_bytes.trailing_zeros()` — the line size is validated to be a
    /// power of two, so address-to-line is a shift, never a division.
    line_shift: u32,
    /// Set count, computed once at construction.
    n_sets: u64,
    /// Ways per set as a `usize`, for slice indexing.
    n_ways: usize,
    /// `(mask, shift)` replacing the `% sets` / `/ sets` pair when the set
    /// count is a power of two (true of every stock geometry); `None`
    /// falls back to division so odd geometries behave identically.
    set_pow2: Option<(u64, u32)>,
    sets: Vec<Way>,
    clock: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if the geometry is inconsistent.
    pub fn new(geometry: CacheGeometry) -> Result<Self, GeometryError> {
        geometry.validate()?;
        let n_sets = geometry.sets();
        let n = (n_sets * geometry.ways) as usize;
        let set_pow2 = n_sets.is_power_of_two().then(|| (n_sets - 1, n_sets.trailing_zeros()));
        Ok(Cache {
            geometry,
            line_shift: geometry.line_bytes.trailing_zeros(),
            n_sets,
            n_ways: geometry.ways as usize,
            set_pow2,
            sets: empty_ways(n),
            clock: 0,
        })
    }

    /// The cache's geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Splits `addr` into `(set, tag)` — shifts and masks on the hot
    /// path, division only for non-power-of-two set counts.
    #[inline]
    fn locate(&self, addr: u64) -> (u64, u64) {
        let line = addr >> self.line_shift;
        match self.set_pow2 {
            Some((mask, shift)) => (line & mask, line >> shift),
            None => (line % self.n_sets, line / self.n_sets),
        }
    }

    /// Probes for `addr` without modifying state.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let base = set as usize * self.n_ways;
        self.sets[base..base + self.n_ways].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Accesses `addr`, filling on miss and touching LRU. Returns whether
    /// the line was present.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let (set, tag) = self.locate(addr);
        let base = set as usize * self.n_ways;
        let ways = &mut self.sets[base..base + self.n_ways];

        if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = self.clock;
            return true;
        }

        // Choose victim: first invalid way, else least-recently-used.
        let victim = ways.iter().position(|w| !w.valid).unwrap_or_else(|| {
            ways.iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("nonzero ways")
        });
        ways[victim] = Way { valid: true, tag, lru: self.clock };
        false
    }

    /// Invalidates the line containing `addr` if present. Returns whether
    /// a line was invalidated.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let base = set as usize * self.n_ways;
        for w in &mut self.sets[base..base + self.n_ways] {
            if w.valid && w.tag == tag {
                w.valid = false;
                return true;
            }
        }
        false
    }
}

impl Drop for Cache {
    /// Resets a large tag array and keeps it for the thread's next cache.
    fn drop(&mut self) {
        if self.sets.len() * std::mem::size_of::<Way>() < SPARE_MIN_BYTES {
            return;
        }
        let mut ways = std::mem::take(&mut self.sets);
        ways.fill(Way::default());
        // Past the thread's exit the array is simply freed.
        let _ = SPARE.try_with(|s| {
            let mut s = s.borrow_mut();
            if s.len() == SPARE_ARRAYS {
                s.remove(0);
            }
            s.push(ways);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheGeometry::new(512, 2, 64)).unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheGeometry::new(0, 1, 64).validate().is_err());
        assert!(CacheGeometry::new(512, 2, 60).validate().is_err());
        assert!(CacheGeometry::new(500, 2, 64).validate().is_err());
        assert!(CacheGeometry::new(512, 2, 64).validate().is_ok());
        assert_eq!(CacheGeometry::new(512, 2, 64).sets(), 4);
    }

    #[test]
    fn line_of_masks_low_bits() {
        let g = CacheGeometry::new(512, 2, 64);
        assert_eq!(g.line_of(0x7F), 0x40);
        assert_eq!(g.line_of(0x40), 0x40);
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103F), "same 64B line");
        assert!(!c.access(0x1040), "next line");
    }

    #[test]
    fn lru_evicts_least_recent_way() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 lines * 64B = 256B).
        let (a, b, d) = (0x0000, 0x0100, 0x0200);
        c.access(a);
        c.access(b);
        c.access(a); // refresh a
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(0x80);
        assert!(c.invalidate(0x80));
        assert!(!c.probe(0x80));
        assert!(!c.invalidate(0x80));
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = small();
        let (a, b, d) = (0x0000, 0x0100, 0x0200);
        c.access(a);
        c.access(b);
        // A probe neither refreshes `a`'s LRU stamp nor fills a line.
        assert!(c.probe(a));
        assert!(!c.probe(0x4000));
        c.access(d); // evicts a, still the least recent
        assert!(!c.probe(a));
        assert!(c.probe(b));
        assert!(!c.access(0x4000), "the probed line was not filled");
    }

    #[test]
    fn non_power_of_two_set_count_uses_division_fallback() {
        // 6 sets x 2 ways x 64B = 768B: a legal geometry whose set count
        // is not a power of two, exercising the division path in locate().
        let mut c = Cache::new(CacheGeometry::new(768, 2, 64)).unwrap();
        assert_eq!(c.geometry().sets(), 6);
        // Set stride = 6 lines * 64B = 384B; three lines mapping to set 0.
        let (a, b, d) = (0u64, 384, 768);
        c.access(a);
        c.access(b);
        assert!(!c.access(d)); // evicts a (LRU)
        assert!(!c.probe(a));
        assert!(c.probe(b));
        assert!(c.probe(d));
        // The neighbouring line is in set 1 and evicts nothing of set 0.
        assert!(!c.access(64));
        assert!(c.probe(b) && c.probe(d));
    }

    #[test]
    fn tag_zero_line_in_set_zero_is_not_the_empty_way() {
        // Address 0 has tag 0 in set 0, the tag an empty way carries too:
        // only `valid` tells the two apart.
        let mut c = small();
        assert!(!c.probe(0x0), "a fresh cache holds nothing at address 0");
        assert!(!c.access(0x0));
        assert!(c.probe(0x3F));
        assert!(c.access(0x0));
        // Two more lines of set 0 evict it.
        assert!(!c.access(0x0100));
        assert!(!c.access(0x0200));
        assert!(!c.probe(0x0));
        // Invalidated, the line is gone and its way is free again.
        assert!(!c.access(0x0));
        assert!(c.invalidate(0x0));
        assert!(!c.probe(0x0));
        assert!(c.probe(0x0200), "invalidating 0 leaves its set-mate resident");
    }

    #[test]
    fn a_cache_built_after_a_drop_starts_empty() {
        // 8192 ways: large enough that the dropped cache's tag array is
        // handed on, and it must come back with no valid or stale way.
        let geometry = CacheGeometry::new(512 * 1024, 8, 64);
        let bytes = (geometry.sets() * geometry.ways) as usize * std::mem::size_of::<Way>();
        assert!(bytes >= SPARE_MIN_BYTES);
        let mut c = Cache::new(geometry).unwrap();
        for addr in (0..1 << 20).step_by(64) {
            c.access(addr);
        }
        assert!(c.invalidate((1 << 20) - 64), "an invalid way with stale fields");
        drop(c);
        let mut d = Cache::new(geometry).unwrap();
        assert!((0..1 << 20).step_by(64).all(|addr| !d.probe(addr)));
        // One capacity's worth of new lines misses 8192 times and fills
        // every way.
        let mut lines = ((1 << 24)..(1 << 24) + (512 << 10)).step_by(64);
        assert_eq!(lines.clone().filter(|&addr| !d.access(addr)).count(), 8192);
        assert!(lines.all(|addr| d.probe(addr)), "every new line is resident");
    }
}
