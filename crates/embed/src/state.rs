//! Dense, preallocated, lock-free optimizer state.
//!
//! Stateful update rules (Adagrad here; Adam would fit the same shape) keep
//! one state row per embedding row. The original implementation held them
//! in sharded `Mutex<HashMap<Key, Vec<f32>>>`, paying a lock acquisition, a
//! hash lookup, and a possible allocation on every flushed row. But the
//! state table has exactly the same access discipline as [`HostStore`]: the
//! P²F algorithm serializes flushes per key (a flusher's claim takes a
//! key's pending writes exclusively, and no new flush of that key can start
//! until the claim is applied and the in-flight marker cleared), so no two
//! threads ever touch the same state row concurrently. That makes a flat
//! `UnsafeCell` table sound for the flush-apply path — no locks, no
//! hashing, one predictable offset per key.
//!
//! As with the host store the guarantee comes from an algorithm, not the
//! type system, so the table mirrors [`HostStore`]'s **checked mode**: a
//! per-row seqlock version counter that counts overlapping updates. The
//! engine's consistency tests run checked and assert zero races; the
//! race-injection tests here hammer one row from two threads and assert
//! the counter trips.
//!
//! [`HostStore`]: crate::HostStore

use frugal_data::Key;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Flat per-key optimizer state, `n_keys` rows of `dim` f32, zeros at start.
///
/// # Examples
///
/// ```
/// use frugal_embed::DenseStateTable;
///
/// let table = DenseStateTable::new(100, 4);
/// assert_eq!(table.snapshot(7), None); // untouched rows have no state
/// table.update(7, |acc| acc[0] = 1.5);
/// assert_eq!(table.snapshot(7), Some(vec![1.5, 0.0, 0.0, 0.0]));
/// ```
pub struct DenseStateTable {
    data: Box<[UnsafeCell<f32>]>,
    dim: usize,
    n_keys: u64,
    /// Whether each row has ever been updated. Lets [`Self::snapshot`]
    /// distinguish "no state yet" from "state happens to be zero",
    /// preserving the sparse-map semantics engines rely on when seeding
    /// cache-side optimizers.
    touched: Box<[AtomicU8]>,
    /// Per-row seqlock versions (checked mode only). Odd = update in flight.
    versions: Option<Box<[AtomicU64]>>,
    races: AtomicUsize,
}

// SAFETY: concurrent access discipline is provided by the P²F algorithm —
// a key's state row is only ever touched by the flusher that exclusively
// claimed that key's pending writes, and claims on one key never overlap.
// Checked mode exists to *detect* protocol violations, not prevent them.
unsafe impl Sync for DenseStateTable {}
unsafe impl Send for DenseStateTable {}

impl std::fmt::Debug for DenseStateTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseStateTable")
            .field("n_keys", &self.n_keys)
            .field("dim", &self.dim)
            .field("checked", &self.versions.is_some())
            .field("races", &self.race_count())
            .finish()
    }
}

impl DenseStateTable {
    /// Creates a zeroed table of `n_keys` rows of `dim` f32 each. No race
    /// checking (production mode).
    ///
    /// # Panics
    ///
    /// Panics if `n_keys == 0` or `dim == 0`.
    pub fn new(n_keys: u64, dim: usize) -> Self {
        Self::build(n_keys, dim, false)
    }

    /// Like [`DenseStateTable::new`] but with per-row race detection.
    pub fn new_checked(n_keys: u64, dim: usize) -> Self {
        Self::build(n_keys, dim, true)
    }

    fn build(n_keys: u64, dim: usize, checked: bool) -> Self {
        assert!(n_keys > 0, "state table needs at least one key");
        assert!(dim > 0, "state dimension must be positive");
        let len = n_keys as usize * dim;
        let mut data = Vec::with_capacity(len);
        data.resize_with(len, || UnsafeCell::new(0.0f32));
        let mut touched = Vec::with_capacity(n_keys as usize);
        touched.resize_with(n_keys as usize, || AtomicU8::new(0));
        let versions = checked.then(|| {
            let mut v = Vec::with_capacity(n_keys as usize);
            v.resize_with(n_keys as usize, || AtomicU64::new(0));
            v.into_boxed_slice()
        });
        DenseStateTable {
            data: data.into_boxed_slice(),
            dim,
            n_keys,
            touched: touched.into_boxed_slice(),
            versions,
            races: AtomicUsize::new(0),
        }
    }

    /// Asks the memory system for `key`'s state row ahead of its update
    /// (a batch loop's companion to
    /// [`HostStore::prefetch_ahead`](crate::HostStore::prefetch_ahead));
    /// does nothing for a key out of range.
    #[inline]
    pub fn prefetch(&self, key: Key) {
        if key < self.n_keys {
            let start = key as usize * self.dim;
            crate::store::prefetch(&self.data[start..start + self.dim]);
        }
    }

    /// State dimension (equals the embedding dimension for Adagrad).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows in the table.
    pub fn n_keys(&self) -> u64 {
        self.n_keys
    }

    /// Number of rows that have been updated at least once.
    pub fn rows(&self) -> usize {
        self.touched
            .iter()
            .filter(|t| t.load(Ordering::Relaxed) != 0)
            .count()
    }

    /// Number of overlapping-update races detected so far (checked mode
    /// only; always 0 otherwise).
    pub fn race_count(&self) -> usize {
        self.races.load(Ordering::Acquire)
    }

    fn row_ptr(&self, key: Key) -> *mut f32 {
        assert!(key < self.n_keys, "key {key} out of range {}", self.n_keys);
        self.data[key as usize * self.dim].get()
    }

    /// Applies `f` to the state row of `key` in place and marks it touched.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn update(&self, key: Key, f: impl FnOnce(&mut [f32])) {
        let ptr = self.row_ptr(key);
        self.touched[key as usize].store(1, Ordering::Release);
        match &self.versions {
            None => {
                // SAFETY: P²F guarantees no concurrent access to this row.
                let row = unsafe { std::slice::from_raw_parts_mut(ptr, self.dim) };
                f(row);
            }
            Some(vers) => {
                let ver = &vers[key as usize];
                let before = ver.fetch_add(1, Ordering::AcqRel);
                if before % 2 == 1 {
                    // Concurrent updater on the same row.
                    self.races.fetch_add(1, Ordering::AcqRel);
                }
                // SAFETY: as above; races are detected, not prevented.
                let row = unsafe { std::slice::from_raw_parts_mut(ptr, self.dim) };
                f(row);
                ver.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Copies the state row of `key` into `dst` without allocating and
    /// returns whether the row was ever updated; an untouched row leaves
    /// `dst` zero-filled (its state *is* all zeros) and returns `false`.
    ///
    /// Races with a concurrent [`Self::update`] of the same row are
    /// detected in checked mode, matching the host store's read path.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range or `dst.len() != dim`.
    pub fn snapshot_into(&self, key: Key, dst: &mut [f32]) -> bool {
        let ptr = self.row_ptr(key);
        assert_eq!(dst.len(), self.dim, "state row length != dim");
        if self.touched[key as usize].load(Ordering::Acquire) == 0 {
            dst.fill(0.0);
            return false;
        }
        match &self.versions {
            None => {
                // SAFETY: P²F guarantees no concurrent updater to this row.
                unsafe { std::ptr::copy_nonoverlapping(ptr, dst.as_mut_ptr(), self.dim) };
            }
            Some(vers) => {
                let ver = &vers[key as usize];
                let v1 = ver.load(Ordering::Acquire);
                // SAFETY: the copy may race; we detect it below and the
                // data is plain f32 (no invalid bit patterns exist).
                unsafe { std::ptr::copy_nonoverlapping(ptr, dst.as_mut_ptr(), self.dim) };
                let v2 = ver.load(Ordering::Acquire);
                if v1 % 2 == 1 || v1 != v2 {
                    self.races.fetch_add(1, Ordering::AcqRel);
                }
            }
        }
        true
    }

    /// A copy of the state row of `key`, or `None` if it was never updated
    /// (the allocating form of [`Self::snapshot_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn snapshot(&self, key: Key) -> Option<Vec<f32>> {
        let mut out = vec![0.0; self.dim];
        self.snapshot_into(key, &mut out).then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn untouched_rows_have_no_snapshot() {
        let t = DenseStateTable::new(10, 4);
        assert_eq!(t.snapshot(0), None);
        assert_eq!(t.rows(), 0);
    }

    #[test]
    fn update_then_snapshot_roundtrips() {
        let t = DenseStateTable::new(10, 3);
        t.update(4, |acc| {
            acc[0] = 1.0;
            acc[2] = 2.0;
        });
        assert_eq!(t.snapshot(4), Some(vec![1.0, 0.0, 2.0]));
        assert_eq!(t.rows(), 1);
    }

    #[test]
    fn touched_zero_row_still_snapshots() {
        // A row updated to all-zeros must report Some(zeros), not None —
        // the map-based implementation distinguished these too.
        let t = DenseStateTable::new(4, 2);
        t.update(1, |_| {});
        assert_eq!(t.snapshot(1), Some(vec![0.0, 0.0]));
    }

    #[test]
    fn snapshot_into_zeroes_untouched_and_copies_touched() {
        let t = DenseStateTable::new(4, 2);
        let mut dst = [7.0f32, 7.0];
        assert!(!t.snapshot_into(0, &mut dst), "untouched row");
        assert_eq!(dst, [0.0, 0.0], "untouched row must zero dst");
        // Touched but all-zero: still reported as touched.
        t.update(1, |_| {});
        dst = [7.0, 7.0];
        assert!(t.snapshot_into(1, &mut dst));
        assert_eq!(dst, [0.0, 0.0]);
        t.update(2, |acc| acc.copy_from_slice(&[1.5, -2.0]));
        assert!(t.snapshot_into(2, &mut dst));
        assert_eq!(dst, [1.5, -2.0]);
    }

    #[test]
    fn checked_snapshot_into_counts_a_read_under_an_open_update() {
        // Deterministic overlap: read the row while its update is still
        // open (version odd) — exactly what a fill racing a flush would see.
        let t = DenseStateTable::new_checked(4, 2);
        let mut dst = [0.0f32; 2];
        t.update(1, |_| {
            t.snapshot_into(1, &mut dst);
        });
        assert_eq!(t.race_count(), 1, "seqlock missed the overlapping read");
        // A quiescent read is clean.
        assert!(t.snapshot_into(1, &mut dst));
        assert_eq!(t.race_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_rejects_bad_key() {
        let t = DenseStateTable::new(4, 2);
        t.update(4, |_| {});
    }

    #[test]
    fn unchecked_mode_reports_zero_races() {
        let t = DenseStateTable::new(4, 2);
        t.update(0, |acc| acc[0] = 1.0);
        assert_eq!(t.race_count(), 0);
    }

    #[test]
    fn checked_mode_detects_injected_race() {
        // Two threads hammer the same row; the seqlock must observe an
        // overlap (bounded so a miss fails rather than hangs).
        let t = Arc::new(DenseStateTable::new_checked(4, 256));
        let start = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (t, start) = (Arc::clone(&t), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let mut i = 0u64;
                    while t.race_count() == 0 && i < 3_000_000 {
                        t.update(1, |acc| acc[0] += 1.0);
                        i += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(t.race_count() > 0, "seqlock failed to observe the race");
    }

    #[test]
    fn checked_mode_quiet_when_disjoint() {
        let t = Arc::new(DenseStateTable::new_checked(64, 8));
        let handles: Vec<_> = (0..4u64)
            .map(|th| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        let key = th * 16 + (i % 16);
                        t.update(key, |acc| acc[0] += 1.0);
                        let _ = t.snapshot(key);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.race_count(), 0);
    }

    #[test]
    fn debug_shows_mode() {
        let t = DenseStateTable::new_checked(4, 2);
        let d = format!("{t:?}");
        assert!(d.contains("checked: true"));
    }
}
