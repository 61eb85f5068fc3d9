//! The host-memory parameter store.
//!
//! This is the "complete set of parameters in host memory" that Frugal's
//! controller manages and exposes to all training processes through shared
//! memory (paper §3.2). Commodity GPUs read it directly with UVA load/store
//! instructions — i.e., concurrently with the flushing threads writing it.
//! The P²F algorithm guarantees those accesses never race on the same row
//! (that is precisely its synchronous-consistency invariant), which is what
//! makes the unsafe shared access here sound.
//!
//! Because that guarantee comes from an algorithm, not the type system, the
//! store offers a **checked mode**: a per-row seqlock version counter that
//! detects any read racing a write of the same row. The consistency tests
//! run engines in checked mode and assert zero races; the failure-injection
//! tests break the P²F wait condition on purpose and assert the counter
//! trips.

use frugal_data::hash::{counter_row, fmix64};
use frugal_data::par::fill_chunks;
use frugal_data::Key;
use frugal_telemetry::{Counter, Telemetry};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

fn mix(a: u64, b: u64) -> u64 {
    fmix64(
        a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
    )
}

/// The counter-hash base of row `key`: element `d` hashes
/// `row_base + d·0xBF58_476D_1CE4_E5B9` ([`counter_row`]).
fn row_base(seed: u64, key: Key) -> u64 {
    mix(seed, key).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Deterministic initial value of element `d` of embedding row `key`,
/// uniform in `[-0.05, 0.05]`. Every engine (and the serial reference)
/// initializes rows identically without coordination.
pub fn initial_value(seed: u64, key: Key, d: usize) -> f32 {
    let h = mix(mix(seed, key), d as u64);
    ((h as f64 / u64::MAX as f64) as f32 - 0.5) * 0.1
}

/// Writes row `key`'s initial values ([`initial_value`]) into `row`, whose
/// length is the row's width.
#[inline(always)]
fn initial_row(seed: u64, key: Key, row: &mut [f32]) {
    counter_row(row_base(seed, key), row);
    row.iter_mut().for_each(|v| *v *= 0.1);
}

/// Writes the initial values of rows `first_key..`, `dim` wide, into
/// `out`, a whole row at a time. Compiled for the baseline instruction set
/// and, inlined, into [`initial_rows_avx2`]; each element is the same IEEE
/// arithmetic in both.
#[inline(always)]
fn initial_rows(seed: u64, first_key: Key, dim: usize, out: &mut [f32]) {
    for (key, row) in (first_key..).zip(out.chunks_exact_mut(dim)) {
        initial_row(seed, key, row);
    }
}

/// [`initial_rows`] with four 64-bit lanes a vector: without them the
/// row kernel's 64-bit multiplies are no faster than the scalar loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn initial_rows_avx2(seed: u64, first_key: Key, dim: usize, out: &mut [f32]) {
    initial_rows(seed, first_key, dim, out)
}

/// [`initial_rows`] for the widest instruction set this CPU has.
fn initial_rows_dispatch(seed: u64, first_key: Key, dim: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `initial_rows_avx2` needs AVX2 and nothing else, and the
        // check above found it on the running CPU.
        return unsafe { initial_rows_avx2(seed, first_key, dim, out) };
    }
    initial_rows(seed, first_key, dim, out)
}

/// The size of a transparent huge page on x86-64 Linux (and on aarch64
/// with 4 KB base pages).
const HUGE_PAGE: usize = 2 << 20;

/// The whole huge pages inside the `len` bytes at `addr`, as
/// `(first address, length)`: the range rounded in to [`HUGE_PAGE`]
/// boundaries at both ends, or `None` when no whole huge page fits.
fn huge_page_interior(addr: usize, len: usize) -> Option<(usize, usize)> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = (addr + len) / HUGE_PAGE * HUGE_PAGE;
    (start < end).then(|| (start, end - start))
}

/// Asks the kernel to back the whole huge pages inside `data` with
/// transparent huge pages (`madvise(MADV_HUGEPAGE)`), before anything
/// touches them: the fill then faults the table in 2 MB at a time, not
/// 4 KB, and every scattered row access after it walks a shorter page
/// table. A hint that changes no byte; a kernel that refuses it leaves the
/// table on ordinary pages. Returns whether the kernel took it.
#[cfg(target_os = "linux")]
fn advise_huge_pages(data: &mut [f32]) -> bool {
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    const MADV_HUGEPAGE: i32 = 14;
    let Some((start, len)) = huge_page_interior(data.as_ptr() as usize, size_of_val(data)) else {
        return false;
    };
    // SAFETY: `start..start + len` lies inside `data`, which this borrow
    // holds exclusively, and the advice changes no byte of it.
    unsafe { madvise(start as *mut std::ffi::c_void, len, MADV_HUGEPAGE) == 0 }
}

/// Without transparent huge pages there is nothing to ask for.
#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_data: &mut [f32]) -> bool {
    false
}

/// The initial values of rows `0..n_keys`, `dim` wide, built on every core
/// ([`fill_chunks`]) into zeroed memory the store then owns as is, on huge
/// pages where the kernel grants them ([`advise_huge_pages`]). A row is a
/// function of its key alone, so no split of the rows changes a bit.
fn initial_table(seed: u64, n_keys: u64, dim: usize) -> Box<[UnsafeCell<f32>]> {
    let mut data = vec![0.0f32; n_keys as usize * dim].into_boxed_slice();
    advise_huge_pages(&mut data);
    fill_chunks(&mut data, dim, |start, rows| {
        initial_rows_dispatch(seed, (start / dim) as Key, dim, rows)
    });
    // SAFETY: `UnsafeCell<f32>` is `repr(transparent)` over `f32`, so the
    // two slices have one layout and the allocation passes whole from the
    // old box to the new one.
    unsafe { Box::from_raw(Box::into_raw(data) as *mut [UnsafeCell<f32>]) }
}

/// How many rows ahead of the one being read or written a batch loop asks
/// for ([`HostStore::prefetch_ahead`]): far enough to cover a DRAM miss with
/// a few rows' worth of copy or optimizer arithmetic, near enough that the
/// lines are still in L1/L2 when their turn comes.
const PREFETCH_ROWS_AHEAD: usize = 8;

/// Asks the memory system for every cache line `items` touches, ahead of
/// their use: the host store's rows ([`HostStore::prefetch_ahead`]) and the
/// GPU cache's hit rows and state (`GpuCache::find`).
///
/// A hint with no architectural effect: it reads and writes nothing, so it
/// is safe on any slice, shared or not.
#[inline]
pub(crate) fn prefetch<T>(items: &[T]) {
    #[cfg(target_arch = "x86_64")]
    if !items.is_empty() {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        /// Bytes per cache line.
        const LINE: usize = 64;
        let first = items.as_ptr().cast::<i8>();
        let lines = (first as usize % LINE + size_of_val(items)).div_ceil(LINE);
        let first = first.wrapping_sub(first as usize % LINE);
        for line in 0..lines {
            // SAFETY: a prefetch does not dereference its address and
            // cannot fault, wherever it points; SSE is part of the x86-64
            // baseline.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(line * LINE)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = items;
}

/// The complete parameter set in host memory.
///
/// # Examples
///
/// ```
/// use frugal_embed::HostStore;
///
/// let store = HostStore::new(1_000, 8, 42);
/// let mut row = vec![0.0; 8];
/// store.read_row(3, &mut row);
/// assert!(row.iter().all(|v| v.abs() <= 0.05));
/// ```
pub struct HostStore {
    data: Box<[UnsafeCell<f32>]>,
    dim: usize,
    n_keys: u64,
    /// Per-row seqlock versions (checked mode only). Odd = write in flight.
    versions: Option<Box<[AtomicU64]>>,
    races: AtomicUsize,
    seed: u64,
    /// Telemetry counters `store.row_reads` / `store.row_writes`
    /// (None unless [`HostStore::attach_row_counters`] was called).
    row_reads: Option<Arc<Counter>>,
    row_writes: Option<Arc<Counter>>,
}

// SAFETY: concurrent access discipline is provided by the P²F algorithm
// (no two threads touch the same row at the same time unless the caller
// violates the protocol); checked mode exists to *detect* violations.
unsafe impl Sync for HostStore {}
unsafe impl Send for HostStore {}

impl std::fmt::Debug for HostStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostStore")
            .field("n_keys", &self.n_keys)
            .field("dim", &self.dim)
            .field("checked", &self.versions.is_some())
            .field("races", &self.race_count())
            .finish()
    }
}

impl HostStore {
    /// Creates a store of `n_keys` rows of `dim` f32 each, deterministically
    /// initialized from `seed`. No race checking (production mode).
    ///
    /// # Panics
    ///
    /// Panics if `n_keys == 0` or `dim == 0`.
    pub fn new(n_keys: u64, dim: usize, seed: u64) -> Self {
        Self::build(n_keys, dim, seed, false)
    }

    /// Like [`HostStore::new`] but with per-row race detection enabled.
    pub fn new_checked(n_keys: u64, dim: usize, seed: u64) -> Self {
        Self::build(n_keys, dim, seed, true)
    }

    fn build(n_keys: u64, dim: usize, seed: u64, checked: bool) -> Self {
        assert!(n_keys > 0, "store needs at least one key");
        assert!(dim > 0, "embedding dimension must be positive");
        let data = initial_table(seed, n_keys, dim);
        let versions = checked.then(|| {
            let mut v = Vec::with_capacity(n_keys as usize);
            v.resize_with(n_keys as usize, || AtomicU64::new(0));
            v.into_boxed_slice()
        });
        HostStore {
            data,
            dim,
            n_keys,
            versions,
            races: AtomicUsize::new(0),
            seed,
            row_reads: None,
            row_writes: None,
        }
    }

    /// Attaches row-traffic counters (`store.row_reads`,
    /// `store.row_writes`) resolved on `telemetry`. Must be called before
    /// the store is shared across threads; a disabled telemetry handle
    /// leaves the counters off (one branch per row access).
    pub fn attach_row_counters(&mut self, telemetry: &Telemetry) {
        if let Some(reg) = telemetry.registry() {
            self.row_reads = Some(reg.counter("store.row_reads"));
            self.row_writes = Some(reg.counter("store.row_writes"));
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn n_keys(&self) -> u64 {
        self.n_keys
    }

    /// The initialization seed (lets caches materialize identical rows).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of read/write races detected so far (checked mode only;
    /// always 0 otherwise).
    pub fn race_count(&self) -> usize {
        self.races.load(Ordering::Acquire)
    }

    fn row_ptr(&self, key: Key) -> *mut f32 {
        assert!(key < self.n_keys, "key {key} out of range {}", self.n_keys);
        self.data[key as usize * self.dim].get()
    }

    /// For a loop over `items`, a batch whose keys are all known up front,
    /// about to work on `items[i]`: asks the memory system for the row of
    /// the item a fixed number of places further on, so the batch's DRAM
    /// misses overlap instead of each one waiting out the one before — the
    /// table is hundreds of megabytes and a batch's rows are scattered all
    /// over it. Returns that item's key, for the caller to ask for the
    /// key's other rows (its optimizer state) the same way.
    #[inline]
    pub fn prefetch_ahead<T>(
        &self,
        items: &[T],
        i: usize,
        key_of: impl Fn(&T) -> Key,
    ) -> Option<Key> {
        let key = key_of(items.get(i + PREFETCH_ROWS_AHEAD)?);
        self.prefetch_row(key);
        Some(key)
    }

    /// Asks the memory system for row `key` ahead of its use; does nothing
    /// for a key out of range.
    ///
    /// A hint with no architectural effect: it reads and writes nothing, so
    /// it needs none of the protocol's guarantees about the row.
    #[inline]
    fn prefetch_row(&self, key: Key) {
        if key < self.n_keys {
            let start = key as usize * self.dim;
            prefetch(&self.data[start..start + self.dim]);
        }
    }

    /// Copies row `key` into `out` (the UVA zero-copy read path).
    ///
    /// In checked mode, a read that races a concurrent [`Self::write_row`]
    /// of the same row increments the race counter.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range or `out.len() != dim`.
    pub fn read_row(&self, key: Key, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "output length != dim");
        let ptr = self.row_ptr(key);
        if let Some(c) = &self.row_reads {
            c.incr();
        }
        match &self.versions {
            None => {
                // SAFETY: P²F guarantees no concurrent writer to this row.
                unsafe { std::ptr::copy_nonoverlapping(ptr, out.as_mut_ptr(), self.dim) };
            }
            Some(vers) => {
                let ver = &vers[key as usize];
                let v1 = ver.load(Ordering::Acquire);
                // SAFETY: the copy itself may race; we detect it below and
                // the data is plain f32 (no invalid bit patterns exist).
                unsafe { std::ptr::copy_nonoverlapping(ptr, out.as_mut_ptr(), self.dim) };
                let v2 = ver.load(Ordering::Acquire);
                if v1 % 2 == 1 || v1 != v2 {
                    self.races.fetch_add(1, Ordering::AcqRel);
                }
            }
        }
    }

    /// Applies `f` to row `key` in place (the flush-apply path).
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn write_row(&self, key: Key, f: impl FnOnce(&mut [f32])) {
        let ptr = self.row_ptr(key);
        if let Some(c) = &self.row_writes {
            c.incr();
        }
        match &self.versions {
            None => {
                // SAFETY: P²F guarantees this row has no concurrent readers
                // or writers while an update is pending on it.
                let row = unsafe { std::slice::from_raw_parts_mut(ptr, self.dim) };
                f(row);
            }
            Some(vers) => {
                let ver = &vers[key as usize];
                let before = ver.fetch_add(1, Ordering::AcqRel);
                if before % 2 == 1 {
                    // Concurrent writer on the same row.
                    self.races.fetch_add(1, Ordering::AcqRel);
                }
                // SAFETY: as above; races are detected, not prevented.
                let row = unsafe { std::slice::from_raw_parts_mut(ptr, self.dim) };
                f(row);
                ver.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Reads a whole row into a fresh vector (convenience for tests).
    pub fn row_vec(&self, key: Key) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        self.read_row(key, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn prefetch_is_a_hint_for_any_key_and_any_row_width() {
        // Widths below, at and across a cache line; first, last and
        // out-of-range keys: nothing faults, nothing changes.
        for dim in [1, 16, 17, 32, 100] {
            let store = HostStore::new_checked(10, dim, 3);
            let before: Vec<_> = (0..10).map(|k| store.row_vec(k)).collect();
            for key in [0, 9, 10, u64::MAX] {
                store.prefetch_row(key);
            }
            let after: Vec<_> = (0..10).map(|k| store.row_vec(k)).collect();
            assert_eq!(before, after);
            assert_eq!(store.race_count(), 0);
        }
    }

    #[test]
    fn deterministic_initialization() {
        let a = HostStore::new(100, 4, 7);
        let b = HostStore::new(100, 4, 7);
        let c = HostStore::new(100, 4, 8);
        assert_eq!(a.row_vec(42), b.row_vec(42));
        assert_ne!(a.row_vec(42), c.row_vec(42));
        assert_eq!(a.seed(), 7);
    }

    #[test]
    fn initial_value_is_the_splitmix_formula_and_fills_whole_rows() {
        // The formula every engine, checkpoint and test has initialized
        // rows with; the counter-hash row kernel must reproduce it.
        fn splitmix(a: u64, b: u64) -> u64 {
            let mut z = a
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let dim = 33;
        for seed in [0u64, 7, 42, u64::MAX] {
            for key in [0u64, 1, 4, 1 << 40, u64::MAX] {
                let mut row = vec![0.0; dim];
                initial_row(seed, key, &mut row);
                for (d, &v) in row.iter().enumerate() {
                    let h = splitmix(splitmix(seed, key), d as u64);
                    let old = ((h as f64 / u64::MAX as f64) as f32 - 0.5) * 0.1;
                    assert_eq!(v.to_bits(), old.to_bits(), "seed {seed} key {key} d {d}");
                    assert_eq!(initial_value(seed, key, d).to_bits(), old.to_bits());
                }
            }
        }

        // Whole tables: every build equals `initial_value` element by
        // element, whichever instruction set fills the rows and however
        // they are split into chunks: `workers` chunks filled at once, chunk
        // `w` holding rows `w·n/workers ..`, as `fill_chunks` splits them.
        type Kernel = fn(u64, Key, usize, &mut [f32]);
        fn split_build(kernel: Kernel, workers: u64, seed: u64, n: u64, dim: usize) -> Vec<f32> {
            let mut data = vec![0.0f32; n as usize * dim];
            let workers = workers.min(n);
            std::thread::scope(|scope| {
                let mut rest = &mut data[..];
                for w in 0..workers {
                    let (from, to) = (w * n / workers, (w + 1) * n / workers);
                    let (chunk, tail) = rest.split_at_mut((to - from) as usize * dim);
                    scope.spawn(move || kernel(seed, from, dim, chunk));
                    rest = tail;
                }
                assert!(rest.is_empty());
            });
            data
        }
        let seed = 7;
        for n in [1u64, 2, 4097, 65_537, 1_000_003] {
            for dim in [1, 3, 32, 33] {
                let stores = [
                    HostStore::new(n, dim, seed),
                    HostStore::new_checked(n, dim, seed),
                ];
                if n as usize * dim > 1 << 22 {
                    // A table this size takes over a second a build in the
                    // dev profile, so here only the stores are built, and
                    // only the rows a misplaced chunk edge would shift are
                    // read: the first, the last, and both sides of every
                    // edge of a split into 2 to 7 chunks ...
                    let mut edges = vec![0, n - 1];
                    for workers in 2..=7 {
                        edges.extend(
                            (1..workers).flat_map(|w| [w * n / workers - 1, w * n / workers]),
                        );
                    }
                    for store in &stores {
                        // ... and both sides of every 2 MB boundary of the
                        // store's allocation, where the huge-page advice
                        // splits it. (The smaller tables below, several of
                        // them advised, are compared whole.)
                        let mut keys = edges.clone();
                        let base = store.data.as_ptr() as usize;
                        let end = base + n as usize * dim * size_of::<f32>();
                        let mut boundary = (base + 1).next_multiple_of(HUGE_PAGE);
                        while boundary < end {
                            let element = (boundary - base) / size_of::<f32>();
                            keys.extend([(element - 1) / dim, element / dim].map(|k| k as Key));
                            boundary += HUGE_PAGE;
                        }
                        for &key in &keys {
                            let want: Vec<u32> = (0..dim)
                                .map(|d| initial_value(seed, key, d).to_bits())
                                .collect();
                            let got: Vec<u32> =
                                store.row_vec(key).iter().map(|v| v.to_bits()).collect();
                            assert_eq!(got, want, "n {n} dim {dim} key {key}: {store:?}");
                        }
                    }
                    continue;
                }
                // No value is NaN, so `==` on two tables is equality of bits
                // except for the sign of a zero, checked where `want` has one.
                let (mut want, mut zeros) = (Vec::with_capacity(n as usize * dim), Vec::new());
                for key in 0..n {
                    for d in 0..dim {
                        let v = initial_value(seed, key, d);
                        if v == 0.0 {
                            zeros.push(want.len());
                        }
                        want.push(v);
                    }
                }
                let same = |got: &[f32]| {
                    got == want && zeros.iter().all(|&i| got[i].to_bits() == want[i].to_bits())
                };
                for (path, kernel) in [
                    ("baseline", initial_rows as Kernel),
                    ("dispatched", initial_rows_dispatch),
                ] {
                    for workers in [1, 3] {
                        let got = split_build(kernel, workers, seed, n, dim);
                        assert!(same(&got), "n {n} dim {dim}: {path} on {workers} workers");
                    }
                }
                for store in &stores {
                    let mut got = vec![0.0; want.len()];
                    for (key, row) in (0..n).zip(got.chunks_exact_mut(dim)) {
                        store.read_row(key, row);
                    }
                    assert!(same(&got), "n {n} dim {dim}: {store:?}");
                }
            }
        }
    }

    #[test]
    fn the_huge_page_interior_rounds_in_to_whole_huge_pages() {
        const H: usize = HUGE_PAGE;
        // Empty, aligned or not.
        assert_eq!(huge_page_interior(4 * H, 0), None);
        assert_eq!(huge_page_interior(4 * H + 16, 0), None);
        // Shorter than a huge page, from a boundary or across one.
        assert_eq!(huge_page_interior(4 * H, H - 4), None);
        assert_eq!(huge_page_interior(5 * H - 64, H - 4), None);
        // A whole huge page's length that crosses a boundary holds none.
        assert_eq!(huge_page_interior(4 * H + 16, H), None);
        // Unaligned at both ends: rounded in at both.
        assert_eq!(huge_page_interior(3 * H + 16, 5 * H), Some((4 * H, 4 * H)));
        // Aligned at both ends: all of it.
        assert_eq!(huge_page_interior(2 * H, 3 * H), Some((2 * H, 3 * H)));
        assert_eq!(huge_page_interior(2 * H, H), Some((2 * H, H)));
    }

    /// The `VmFlags` of the mapping of this process that holds `addr`, read
    /// from `/proc/self/smaps`; `None` where the file cannot be read.
    fn vm_flags_at(addr: usize) -> Option<Vec<String>> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
        let mut holds = false;
        for line in smaps.lines() {
            let first = line.split_whitespace().next().unwrap_or("");
            if let Some((lo, hi)) = first.split_once('-') {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    holds = (lo..hi).contains(&addr);
                    continue;
                }
            }
            if let Some(flags) = line.strip_prefix("VmFlags:").filter(|_| holds) {
                return Some(flags.split_whitespace().map(str::to_owned).collect());
            }
        }
        None
    }

    #[test]
    fn the_table_is_advised_onto_huge_pages() {
        // 8 MB of rows: at least three whole huge pages wherever they land.
        let (n, dim) = (65_536, 32);
        let store = HostStore::new(n, dim, 7);
        let bytes = n as usize * dim * size_of::<f32>();
        let (first, _) = huge_page_interior(store.data.as_ptr() as usize, bytes).unwrap();
        // Read before anything else is advised, so nothing else can have
        // put the flag there.
        let flags = vm_flags_at(first);
        // Whether this kernel takes the advice at all, asked of a separate
        // buffer: where it refuses (no transparent huge pages), the table
        // stays on ordinary pages and there is nothing to see.
        let mut probe = vec![0.0f32; 6 << 20 >> 2];
        if !advise_huge_pages(&mut probe) {
            return;
        }
        let flags = flags.expect("/proc/self/smaps lists the table's mapping");
        assert!(
            flags.iter().any(|f| f == "hg"),
            "the table's mapping at {first:#x} is not advised: VmFlags {flags:?}"
        );
    }

    #[test]
    fn initial_values_bounded() {
        let s = HostStore::new(50, 16, 3);
        for k in 0..50 {
            for v in s.row_vec(k) {
                assert!(v.abs() <= 0.05, "init {v} out of range");
            }
        }
    }

    #[test]
    fn write_then_read_roundtrips() {
        let s = HostStore::new(10, 4, 0);
        s.write_row(3, |row| {
            for (i, v) in row.iter_mut().enumerate() {
                *v = i as f32;
            }
        });
        assert_eq!(s.row_vec(3), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_rejects_bad_key() {
        let s = HostStore::new(10, 4, 0);
        let mut out = vec![0.0; 4];
        s.read_row(10, &mut out);
    }

    #[test]
    #[should_panic(expected = "output length != dim")]
    fn read_rejects_bad_dim() {
        let s = HostStore::new(10, 4, 0);
        let mut out = vec![0.0; 3];
        s.read_row(0, &mut out);
    }

    #[test]
    fn unchecked_mode_reports_zero_races() {
        let s = HostStore::new(10, 4, 0);
        s.write_row(0, |r| r[0] = 1.0);
        assert_eq!(s.race_count(), 0);
    }

    #[test]
    fn checked_mode_detects_injected_race() {
        // Hammer one row from a writer and a reader simultaneously; the
        // seqlock must observe at least one overlap.
        let s = Arc::new(HostStore::new_checked(4, 256, 0));
        let start = Arc::new(std::sync::Barrier::new(2));
        let w = {
            let (s, start) = (Arc::clone(&s), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                let mut i = 0u64;
                // Keep writing until a race is observed (bounded).
                while s.race_count() == 0 && i < 3_000_000 {
                    s.write_row(1, |row| row[0] = i as f32);
                    i += 1;
                }
            })
        };
        let r = {
            let (s, start) = (Arc::clone(&s), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                let mut buf = vec![0.0; 256];
                let mut i = 0u64;
                while s.race_count() == 0 && i < 3_000_000 {
                    s.read_row(1, &mut buf);
                    i += 1;
                }
            })
        };
        w.join().unwrap();
        r.join().unwrap();
        assert!(s.race_count() > 0, "seqlock failed to observe the race");
    }

    #[test]
    fn checked_mode_quiet_when_disjoint() {
        let s = Arc::new(HostStore::new_checked(64, 8, 0));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut buf = vec![0.0; 8];
                    for i in 0..10_000u64 {
                        let key = t * 16 + (i % 16);
                        s.write_row(key, |row| row[0] += 1.0);
                        s.read_row(key, &mut buf);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.race_count(), 0);
    }

    #[test]
    fn debug_shows_mode() {
        let s = HostStore::new_checked(4, 2, 0);
        let d = format!("{s:?}");
        assert!(d.contains("checked: true"));
    }
}
