//! Deterministic per-key gradient aggregation.
//!
//! Within one synchronous step, several samples (possibly on several GPUs)
//! can touch the same embedding row. Synchronous training sums their
//! gradients before the optimizer applies them. Floating-point addition is
//! not associative, so to let a multi-threaded engine reproduce the serial
//! reference *bitwise*, gradients must be summed in a canonical order:
//! sample order within a GPU, GPU index order across GPUs.
//!
//! Accumulators live in one flat arena (`data`) indexed by a key → slot
//! map, so an aggregator can be [`cleared`](GradAggregator::clear) and
//! reused step after step without re-allocating. A caller that wants the
//! sums as shared rows, reusing last step's, folds into them directly with
//! an [`ArcFold`].

use crate::kernels;
use frugal_data::{Key, KeyHashMap};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Sums `(key, grad)` entries per key straight into a list of shared rows:
/// [`GradAggregator::add`] over the entries followed by
/// [`GradAggregator::drain_arcs`], bit for bit, with no arena in between.
/// This is the decentralized reduce's fold — each gradient row is written
/// once, into the `Arc` it leaves the reduce in.
///
/// Feed the entries with [`ArcFold::add`] and end with
/// [`ArcFold::finish`]. The destination keeps `drain_arcs`'s recycling
/// rule: its rows are overwritten in place where nobody else holds them,
/// replaced where someone does, and the list is cut to the folded keys.
/// The key → position map keeps its allocation from fold to fold.
///
/// # Examples
///
/// ```
/// use frugal_embed::ArcFold;
///
/// let mut out = Vec::new();
/// let mut fold = ArcFold::default();
/// fold.add(&mut out, 7, &[1.0, 2.0]);
/// fold.add(&mut out, 3, &[4.0, 4.0]);
/// fold.add(&mut out, 7, &[0.5, 0.5]);
/// fold.finish(&mut out);
/// assert_eq!((out[0].0, &out[0].1[..]), (7, &[1.5, 2.5][..]));
/// assert_eq!(out[1].0, 3);
/// ```
#[derive(Debug, Default)]
pub struct ArcFold {
    /// Key → position in the destination of the fold in progress; its
    /// length is the number of keys folded so far.
    index: KeyHashMap<usize>,
}

impl ArcFold {
    /// Adds `grad` to `key`'s row of `out`: the first arrival of `key`
    /// takes the next position, whose row it writes as `0.0 + grad` — the
    /// sum [`GradAggregator::add`] forms from its zeroed accumulator, so a
    /// `-0.0` element lands as `+0.0` just the same.
    ///
    /// # Panics
    ///
    /// Panics if `grad`'s length differs from an earlier arrival of `key`.
    pub fn add(&mut self, out: &mut Vec<(Key, Arc<[f32]>)>, key: Key, grad: &[f32]) {
        let next = self.index.len();
        match self.index.entry(key) {
            Entry::Occupied(e) => {
                let row = Arc::get_mut(&mut out[*e.get()].1)
                    .expect("a row written by this fold is held by the fold alone");
                kernels::add(row, grad);
            }
            Entry::Vacant(e) => {
                e.insert(next);
                let Some(dst) = out.get_mut(next) else {
                    out.push((key, zero_plus(grad)));
                    return;
                };
                dst.0 = key;
                match Arc::get_mut(&mut dst.1) {
                    Some(row) if row.len() == grad.len() => {
                        for (x, &g) in row.iter_mut().zip(grad) {
                            *x = 0.0 + g;
                        }
                    }
                    _ => dst.1 = zero_plus(grad),
                }
            }
        }
    }

    /// Ends the fold: `out` is cut to the folded keys, in first-arrival
    /// order, and the fold is ready for the next one.
    pub fn finish(&mut self, out: &mut Vec<(Key, Arc<[f32]>)>) {
        out.truncate(self.index.len());
        self.index.clear();
    }
}

/// A fresh row holding `0.0 + grad` (see [`ArcFold::add`]).
fn zero_plus(grad: &[f32]) -> Arc<[f32]> {
    grad.iter().map(|&g| 0.0 + g).collect()
}

/// Accumulates per-key gradients in arrival order.
///
/// # Examples
///
/// ```
/// use frugal_embed::GradAggregator;
///
/// let mut agg = GradAggregator::new(2);
/// agg.add(7, &[1.0, 2.0]);
/// agg.add(7, &[0.5, 0.5]);
/// let grads = agg.into_sorted();
/// assert_eq!(grads, vec![(7, vec![1.5, 2.5])]);
/// ```
#[derive(Debug, Clone)]
pub struct GradAggregator {
    dim: usize,
    /// Key → slot index into `order`/`data` (fast deterministic hasher —
    /// one probe per sample on the aggregation hot path).
    index: KeyHashMap<usize>,
    order: Vec<Key>,
    /// Slot `i`'s accumulator is `data[i * dim..(i + 1) * dim]`.
    data: Vec<f32>,
}

impl GradAggregator {
    /// Creates an aggregator for `dim`-wide gradients.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        GradAggregator {
            dim,
            index: KeyHashMap::default(),
            order: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Width of the gradients this aggregator accumulates.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Empties the aggregator but keeps every allocation (map table, order
    /// list, arena) for reuse on the next step.
    pub fn clear(&mut self) {
        self.index.clear();
        self.order.clear();
        self.data.clear();
    }

    /// `key`'s slot, minted on first touch — one hash probe either way.
    fn slot(&mut self, key: Key) -> usize {
        let next = self.order.len();
        match self.index.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                e.insert(next);
                self.order.push(key);
                self.data.resize(self.data.len() + self.dim, 0.0);
                next
            }
        }
    }

    /// Adds `grad` to the accumulator of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != dim`.
    pub fn add(&mut self, key: Key, grad: &[f32]) {
        assert_eq!(grad.len(), self.dim, "gradient length != dim");
        let i = self.slot(key);
        kernels::add(&mut self.data[i * self.dim..(i + 1) * self.dim], grad);
    }

    /// Number of distinct keys accumulated.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if nothing was accumulated.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates the accumulated `(key, grad)` pairs in *first-arrival*
    /// order without draining. This is the read side of the decentralized
    /// sharded reduce: every trainer scans the per-GPU aggregators in GPU
    /// index order and folds only the keys its shard owns, so the per-key
    /// summation order stays identical to the serial leader merge.
    pub fn entries(&self) -> impl Iterator<Item = (Key, &[f32])> + '_ {
        let dim = self.dim;
        self.order
            .iter()
            .enumerate()
            .map(move |(i, &k)| (k, &self.data[i * dim..(i + 1) * dim]))
    }

    /// Drains into `(key, grad)` pairs in *first-arrival* order — the
    /// canonical order for deterministic downstream application.
    pub fn into_arrival_order(self) -> Vec<(Key, Vec<f32>)> {
        let dim = self.dim;
        self.order
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, self.data[i * dim..(i + 1) * dim].to_vec()))
            .collect()
    }

    /// Drains into `(key, grad)` pairs sorted by key (for tests and merges).
    pub fn into_sorted(self) -> Vec<(Key, Vec<f32>)> {
        let mut v = self.into_arrival_order();
        v.sort_by_key(|&(k, _)| k);
        v
    }

    /// Drains the accumulated gradients into shared rows: `out` becomes
    /// the `(key, Arc(grad))` pairs in first-arrival order, and the
    /// aggregator is cleared for reuse. The same shared gradient travels to
    /// the g-entry W set and the owner GPU's cache update, so nothing is
    /// cloned downstream.
    ///
    /// What `out` held is replaced, and its rows are recycled: a row nobody
    /// else holds any more (`Arc::get_mut`) is overwritten in place, so a
    /// caller that hands back last step's rows allocates only for the rows
    /// a consumer still shares and for growth past the old length. An empty
    /// `out` allocates one `Arc` per row. [`ArcFold`] forms the same rows
    /// without the aggregator's arena in between.
    pub fn drain_arcs(&mut self, out: &mut Vec<(Key, Arc<[f32]>)>) {
        let dim = self.dim;
        out.truncate(self.order.len());
        let mut fresh = self.order.iter().zip(self.data.chunks_exact(dim));
        for (dst, (&key, grad)) in out.iter_mut().zip(&mut fresh) {
            dst.0 = key;
            match Arc::get_mut(&mut dst.1) {
                Some(row) if row.len() == dim => row.copy_from_slice(grad),
                _ => dst.1 = Arc::from(grad),
            }
        }
        out.extend(fresh.map(|(&key, grad)| (key, Arc::from(grad))));
        self.clear();
    }

    /// Folds `other`'s accumulators into `self` (first-arrival order within
    /// `other`) and clears `other`, keeping both allocations alive. This is
    /// the reusable form of [`GradAggregator::merge`] for per-GPU aggregates
    /// folded in GPU index order.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    fn merge_from(&mut self, other: &mut GradAggregator) {
        assert_eq!(self.dim, other.dim, "dim mismatch");
        for (&k, grad) in other.order.iter().zip(other.data.chunks_exact(self.dim)) {
            self.add(k, grad);
        }
        other.clear();
    }

    /// Merges `other` into `self` (used to fold per-GPU aggregates in GPU
    /// index order).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn merge(&mut self, mut other: GradAggregator) {
        self.merge_from(&mut other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_key() {
        let mut agg = GradAggregator::new(2);
        agg.add(1, &[1.0, 1.0]);
        agg.add(2, &[2.0, 2.0]);
        agg.add(1, &[3.0, 3.0]);
        assert_eq!(agg.len(), 2);
        let out = agg.into_sorted();
        assert_eq!(out[0], (1, vec![4.0, 4.0]));
        assert_eq!(out[1], (2, vec![2.0, 2.0]));
    }

    #[test]
    fn arrival_order_is_first_touch() {
        let mut agg = GradAggregator::new(1);
        agg.add(9, &[1.0]);
        agg.add(3, &[1.0]);
        agg.add(9, &[1.0]);
        let keys: Vec<Key> = agg
            .into_arrival_order()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec![9, 3]);
    }

    #[test]
    fn merge_folds_in_order() {
        let mut a = GradAggregator::new(1);
        a.add(1, &[1.0]);
        let mut b = GradAggregator::new(1);
        b.add(1, &[2.0]);
        b.add(2, &[5.0]);
        a.merge(b);
        assert_eq!(a.into_sorted(), vec![(1, vec![3.0]), (2, vec![5.0])]);
    }

    #[test]
    fn merge_from_drains_other_and_reuses() {
        let mut a = GradAggregator::new(2);
        let mut b = GradAggregator::new(2);
        b.add(4, &[1.0, 2.0]);
        a.merge_from(&mut b);
        assert!(b.is_empty(), "source drained");
        // The drained source is reusable and independent.
        b.add(5, &[9.0, 9.0]);
        a.merge_from(&mut b);
        assert_eq!(
            a.into_sorted(),
            vec![(4, vec![1.0, 2.0]), (5, vec![9.0, 9.0])]
        );
    }

    #[test]
    fn drain_arcs_preserves_arrival_order_and_clears() {
        let mut agg = GradAggregator::new(1);
        agg.add(9, &[1.0]);
        agg.add(3, &[2.0]);
        agg.add(9, &[0.5]);
        let mut out = Vec::new();
        agg.drain_arcs(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].0, &out[0].1[..]), (9, &[1.5f32][..]));
        assert_eq!((out[1].0, &out[1].1[..]), (3, &[2.0f32][..]));
        assert!(agg.is_empty());
        // Cleared aggregator accumulates from zero again.
        agg.add(9, &[4.0]);
        assert_eq!(agg.into_sorted(), vec![(9, vec![4.0])]);
    }

    /// A two-row aggregator over keys `a`, `b` whose values carry `tag`.
    fn two_rows(a: Key, b: Key, tag: f32) -> GradAggregator {
        let mut agg = GradAggregator::new(2);
        agg.add(a, &[tag, 1.0]);
        agg.add(b, &[tag, 2.0]);
        agg
    }

    #[test]
    fn drain_arcs_overwrites_unique_rows_in_place() {
        let mut out = Vec::new();
        two_rows(9, 3, 1.0).drain_arcs(&mut out);
        let rows: Vec<*const f32> = out.iter().map(|(_, r)| r.as_ptr()).collect();
        // Nobody else holds the rows: the next drain reuses both.
        two_rows(4, 9, 2.0).drain_arcs(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].0, &out[0].1[..]), (4, &[2.0f32, 1.0][..]));
        assert_eq!((out[1].0, &out[1].1[..]), (9, &[2.0f32, 2.0][..]));
        let reused: Vec<*const f32> = out.iter().map(|(_, r)| r.as_ptr()).collect();
        assert_eq!(reused, rows, "unique rows must be recycled, not replaced");
    }

    #[test]
    fn drain_arcs_replaces_shared_rows_and_leaves_the_holder_its_values() {
        let mut out = Vec::new();
        two_rows(9, 3, 1.0).drain_arcs(&mut out);
        // A consumer (the W set, a flusher's claim) still holds row 0.
        let held = Arc::clone(&out[0].1);
        let free_row = out[1].1.as_ptr();
        two_rows(9, 3, 2.0).drain_arcs(&mut out);
        assert_eq!(&held[..], &[1.0, 1.0], "the holder's row was overwritten");
        assert_eq!(&out[0].1[..], &[2.0, 1.0]);
        assert!(
            !Arc::ptr_eq(&held, &out[0].1),
            "a shared row must be replaced"
        );
        assert_eq!(out[1].1.as_ptr(), free_row, "its unshared neighbour is not");
        // Once the holder lets go, the replacement is recycled like any row.
        drop(held);
        let replacement = out[0].1.as_ptr();
        two_rows(9, 3, 3.0).drain_arcs(&mut out);
        assert_eq!(out[0].1.as_ptr(), replacement);
    }

    #[test]
    fn drain_arcs_fits_the_destination_to_the_drained_rows() {
        let three = |tag: f32| {
            let mut agg = two_rows(1, 2, tag);
            agg.add(7, &[tag, 3.0]);
            agg
        };
        let keys = |out: &[(Key, Arc<[f32]>)]| out.iter().map(|(k, _)| *k).collect::<Vec<_>>();
        // Shorter destination: the first rows are recycled, the tail grows.
        let mut out = Vec::new();
        two_rows(5, 6, 1.0).drain_arcs(&mut out);
        let first = out[0].1.as_ptr();
        three(2.0).drain_arcs(&mut out);
        assert_eq!(keys(&out), vec![1, 2, 7]);
        assert_eq!(out[0].1.as_ptr(), first);
        assert_eq!(&out[2].1[..], &[2.0, 3.0]);
        // Longer destination: truncated to the drained rows, nothing stale.
        two_rows(8, 9, 3.0).drain_arcs(&mut out);
        assert_eq!(keys(&out), vec![8, 9]);
        assert_eq!(out[0].1.as_ptr(), first);
        assert_eq!(&out[1].1[..], &[3.0, 2.0]);
        // Draining nothing empties it.
        GradAggregator::new(2).drain_arcs(&mut out);
        assert!(out.is_empty());
        // A row of another width is never written through.
        let mut narrow: Vec<(Key, Arc<[f32]>)> = vec![(0, Arc::from(&[0.0f32][..]))];
        two_rows(1, 2, 4.0).drain_arcs(&mut narrow);
        assert_eq!(&narrow[0].1[..], &[4.0, 1.0]);
    }

    /// Stream `g`'s deposited entries at step `step`: overlapping keys,
    /// values far enough apart that f32 summation order shows in the bits,
    /// and a `-0.0` element in every row of stream 0. (Raw entries: an
    /// aggregator's own sums could never hold a `-0.0`.)
    fn deposit(g: usize, step: u64) -> Vec<(Key, [f32; 3])> {
        let keys: &[Key] = match (g, step % 2) {
            (0, 0) => &[4, 9, 2, 10, 6],
            (0, _) => &[6, 8, 4, 10, 12, 14],
            (1, 0) => &[2, 5, 4],
            (1, _) => &[4, 3, 8],
            (_, 0) => &[6, 4, 7],
            _ => &[8],
        };
        keys.iter()
            .map(|&key| {
                let v = 10f32.powi(g as i32 * 3 - 3) * (1.0 + key as f32 * 1e-3 + step as f32);
                let zero = if g == 0 { -0.0 } else { 1.0 / v };
                (key, [v, zero, -v])
            })
            .collect()
    }

    /// The reduce, both ways: `add` over the owned (even) keys of the
    /// deposits in stream order then `drain_arcs`, and the fold.
    fn reduce_both(
        step: u64,
        aggregated: &mut Vec<(Key, Arc<[f32]>)>,
        folded: &mut Vec<(Key, Arc<[f32]>)>,
    ) {
        let mut agg = GradAggregator::new(3);
        let mut fold = ArcFold::default();
        for (key, grad) in (0..3).flat_map(|g| deposit(g, step)) {
            if key % 2 == 0 {
                let grad = &grad[..];
                agg.add(key, grad);
                fold.add(folded, key, grad);
            }
        }
        agg.drain_arcs(aggregated);
        fold.finish(folded);
    }

    fn row_bits(out: &[(Key, Arc<[f32]>)]) -> Vec<(Key, Vec<u32>)> {
        out.iter()
            .map(|(k, g)| (*k, g.iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    #[test]
    fn fold_is_add_then_drain_arcs_bit_for_bit() {
        let (mut aggregated, mut folded) = (Vec::new(), Vec::new());
        reduce_both(0, &mut aggregated, &mut folded);
        assert_eq!(row_bits(&folded), row_bits(&aggregated));
        // Key 10's only gradient has a `-0.0` element: the sum from a
        // zeroed accumulator is `+0.0`, and so is the fold's.
        assert_eq!(folded[2].0, 10);
        assert_eq!(folded[2].1[1].to_bits(), 0.0f32.to_bits());
        // Key 9 is not owned: only even keys, in first-arrival order.
        assert_eq!(
            folded.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            [4, 2, 10, 6]
        );

        // A consumer (a pending flush) still holds row 1; the rest are free.
        let held = Arc::clone(&folded[1].1);
        let held_bits: Vec<u32> = held.iter().map(|x| x.to_bits()).collect();
        let rows: Vec<*const f32> = folded.iter().map(|(_, r)| r.as_ptr()).collect();
        let held_agg = Arc::clone(&aggregated[1].1);
        // The next step folds more keys than the slot holds: it grows.
        reduce_both(1, &mut aggregated, &mut folded);
        assert_eq!(row_bits(&folded), row_bits(&aggregated));
        assert_eq!(folded.len(), 6);
        assert_eq!(
            folded[0].1.as_ptr(),
            rows[0],
            "an unshared row must be recycled"
        );
        assert_eq!(
            folded[2].1.as_ptr(),
            rows[2],
            "an unshared row must be recycled"
        );
        assert!(
            !Arc::ptr_eq(&folded[1].1, &held),
            "a shared row must be replaced"
        );
        assert_eq!(
            held.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            held_bits
        );
        drop((held, held_agg));

        // And back: the slot is cut to the folded keys, nothing stale.
        reduce_both(2, &mut aggregated, &mut folded);
        assert_eq!(row_bits(&folded), row_bits(&aggregated));
        assert_eq!(folded.len(), 4);
        assert_eq!(folded[0].1.as_ptr(), rows[0]);
    }

    #[test]
    fn clear_resets_accumulators() {
        let mut agg = GradAggregator::new(1);
        agg.add(1, &[1.0]);
        agg.clear();
        assert!(agg.is_empty());
        agg.add(1, &[2.0]);
        assert_eq!(agg.into_sorted(), vec![(1, vec![2.0])]);
    }

    #[test]
    #[should_panic(expected = "gradient length != dim")]
    fn rejects_bad_dim() {
        let mut agg = GradAggregator::new(2);
        agg.add(1, &[1.0]);
    }

    #[test]
    fn empty_behaviour() {
        let agg = GradAggregator::new(3);
        assert!(agg.is_empty());
        assert!(agg.into_sorted().is_empty());
    }

    /// Trainer `g`'s step aggregator: overlapping keys with magnitudes
    /// spread far enough apart that f32 summation order is observable.
    fn trainer_agg(g: usize) -> GradAggregator {
        let mut agg = GradAggregator::new(2);
        for &key in &[1u64, 2, 9] {
            let v = (g as f32 + 1.0) * 1e4 + key as f32 * 1e-3;
            agg.add(key, &[v, 1.0 / v]);
        }
        agg
    }

    fn merged_bits(gpu_order: &[usize]) -> Vec<(Key, Vec<u32>)> {
        let mut merged = GradAggregator::new(2);
        for &g in gpu_order {
            merged.merge(trainer_agg(g));
        }
        merged
            .into_sorted()
            .into_iter()
            .map(|(k, v)| (k, v.iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    /// The decentralized reduce's core bit-equality argument: trainers may
    /// *arrive* at the barrier in any order, but the merge always folds the
    /// per-GPU aggregators in GPU index order, so the merged f32 bits are
    /// invariant. The guard assertion shows the test has teeth — these
    /// values really are order-sensitive, so folding in arrival order
    /// would diverge.
    #[test]
    fn merge_is_invariant_under_trainer_arrival_order() {
        let canonical = merged_bits(&[0, 1, 2, 3]);
        // Order sensitivity guard: an out-of-index-order fold changes bits.
        assert_ne!(
            canonical,
            merged_bits(&[3, 2, 1, 0]),
            "values not order-sensitive; the invariance below would be vacuous"
        );
        // Arrival permutations all reduce through the same index-order
        // fold: deposit order must leave no trace in the bits.
        for arrival in [[1usize, 0, 3, 2], [3, 0, 1, 2], [2, 3, 0, 1]] {
            let mut slots: Vec<Option<GradAggregator>> = (0..4).map(|_| None).collect();
            for g in arrival {
                slots[g] = Some(trainer_agg(g)); // "deposit at barrier A"
            }
            let mut merged = GradAggregator::new(2);
            for slot in &mut slots {
                merged.merge_from(slot.as_mut().expect("all deposited"));
            }
            let bits: Vec<(Key, Vec<u32>)> = merged
                .into_sorted()
                .into_iter()
                .map(|(k, v)| (k, v.iter().map(|x| x.to_bits()).collect()))
                .collect();
            assert_eq!(bits, canonical, "arrival {arrival:?} changed merged bits");
        }
    }
}
