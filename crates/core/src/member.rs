//! A member's cache decisions (paper §3.2's training process, DESIGN §8),
//! made here for both the engine's trainers and the key-stream walk.
//!
//! Member `t` looks its owned keys up in its own cache, reads the rest from
//! the host and fills its owned misses ([`query`], [`fill`]); its owned rows
//! then take their synchronous update ([`apply`]); a transition drops or
//! trims its cache ([`transition`]). The trainer passes closures that move
//! rows and optimizer state; the walk, whose slots hold one placeholder
//! float, passes no-ops. The cache sees the same calls either way.
//!
//! [`query`] and [`apply`] run in two passes over their keys. The first
//! resolves every lookup in order ([`GpuCache::find`]), so the policy sees
//! the `on_hit`/`on_miss` sequence of a one-pass loop, and prefetches each
//! hit's row and state as it resolves; the second copies or updates the
//! hit rows. Nothing fills between the passes, so every resolved slot
//! still holds its key. The staging is one reused [`Lookups`].

use crate::config::FrugalConfig;
use crate::plan::StepPlan;
use crate::ShardMap;
use frugal_data::Key;
use frugal_embed::{GpuCache, InsertOutcome, Sharding, Slot};

/// A member's lookup staging, cleared and refilled by every [`query`] and
/// [`apply`], never reallocated once it has grown to a step's size.
#[derive(Debug, Default)]
pub(crate) struct Lookups {
    /// [`query`]'s misses, `(i, key)` with `i` the key's position in
    /// [`StepPlan::unique`], in plan order.
    pub(crate) missing: Vec<(usize, Key)>,
    /// The hits resolved by the first pass, `(position, slot)`, in order.
    hits: Vec<(u32, Slot)>,
}

/// Builds a member's cache: slots of a `dim`-float row and `state_width`
/// floats of optimizer state, capacity, policy and hot threshold set by
/// `cfg` and the key space (sized for the full cohort). It is carried across
/// segments while the member stays (see [`transition`]).
pub(crate) fn member_cache(
    cfg: &FrugalConfig,
    n_keys: u64,
    dim: usize,
    state_width: usize,
) -> GpuCache {
    let sharding = Sharding::new(cfg.n_gpus());
    let cap = sharding.cache_capacity(n_keys, cfg.cache_ratio);
    let mut cache = GpuCache::new(cap, dim, cfg.cache_policy).with_state_width(state_width);
    cache.set_hot_threshold(sharding.hot_threshold(n_keys, cfg.cache_ratio));
    cache
}

/// The cache query over one stream's `plan`: each unique key `t` owns is
/// looked up, a served one handed to `hit(i, row)` (`i` its position in
/// [`StepPlan::unique`]); every other key is collected into
/// `lookups.missing` as `(i, key)`.
///
/// Two passes: the first resolves every lookup in plan order, prefetching
/// each hit's row; the second hands the rows out. No fill runs between
/// them, so every slot still holds its key's row.
pub(crate) fn query(
    cache: &mut GpuCache,
    smap: &ShardMap,
    t: usize,
    plan: &StepPlan,
    lookups: &mut Lookups,
    mut hit: impl FnMut(usize, &[f32]),
) {
    let Lookups { missing, hits } = lookups;
    missing.clear();
    hits.clear();
    for (i, &key) in plan.unique().iter().enumerate() {
        if smap.owns_key(t, key) {
            if let Some(slot) = cache.find(&key) {
                hits.push((i as u32, slot));
                continue;
            }
        }
        missing.push((i, key));
    }
    for &(i, slot) in hits.iter() {
        hit(i as usize, cache.row(slot));
    }
}

/// Reads each of [`query`]'s `missing`, in order, through `read(rows, m,
/// i, key)` (`m` its position), then, if `t` owns it, fills it through
/// `write(rows, i, key, row, state)`, which writes the slot in full. `rows`
/// is the caller's row staging. Returns the fills the cache accepted. A
/// plan's keys are distinct, so no row filled here is queried again.
pub(crate) fn fill<R: ?Sized>(
    cache: &mut GpuCache,
    smap: &ShardMap,
    t: usize,
    missing: &[(usize, Key)],
    rows: &mut R,
    mut read: impl FnMut(&mut R, usize, usize, Key),
    mut write: impl FnMut(&R, usize, Key, &mut [f32], &mut [f32]),
) -> usize {
    let mut fills = 0;
    for (m, &(i, key)) in missing.iter().enumerate() {
        read(rows, m, i, key);
        if smap.owns_key(t, key) {
            let rows = &*rows;
            fills += usize::from(fill_row(cache, key, |row, state| {
                write(rows, i, key, row, state)
            }));
        }
    }
    fills
}

/// Fills `key`'s slot through `fill` if the policy takes it (one admission
/// check, inside the cache); true if it did.
pub(crate) fn fill_row(
    cache: &mut GpuCache,
    key: Key,
    fill: impl FnOnce(&mut [f32], &mut [f32]),
) -> bool {
    cache.fill_with_state(key, fill) != InsertOutcome::Rejected
}

/// The synchronous apply's lookups: each of `rows`, in first arrival
/// across streams, is looked up again by `key_of` (moving LRU recency and
/// frequency counts) and a cached one updated by `update(row, state, item)`.
///
/// Two passes, as in [`query`]: every lookup resolves in order, prefetching
/// the hit's row and state, before the first update touches one.
pub(crate) fn apply<T>(
    cache: &mut GpuCache,
    lookups: &mut Lookups,
    rows: &[T],
    key_of: impl Fn(&T) -> Key,
    mut update: impl FnMut(&mut [f32], &mut [f32], &T),
) {
    let hits = &mut lookups.hits;
    hits.clear();
    for (i, item) in rows.iter().enumerate() {
        if let Some(slot) = cache.find(&key_of(item)) {
            hits.push((i as u32, slot));
        }
    }
    for &(i, slot) in hits.iter() {
        let (row, state) = cache.slot_mut(slot);
        update(row, state, &rows[i as usize]);
    }
}

/// The transition's cache rule under the `next` map: a leaver's cache is
/// dropped (a rejoin starts cold; the host store is authoritative). A
/// survivor evicts the keys `next` takes from it, since a later epoch may
/// hand them back and a stale copy would miss the interim updates, unless
/// `skip_quiesce` (failure injection) keeps them.
pub(crate) fn transition<'a>(
    caches: impl IntoIterator<Item = &'a mut Option<GpuCache>>,
    next: &ShardMap,
    skip_quiesce: bool,
) {
    for (t, slot) in caches.into_iter().enumerate() {
        if !next.is_member(t) {
            *slot = None;
        } else if let (Some(cache), false) = (slot.as_mut(), skip_quiesce) {
            cache.retain(|k| next.owns_key(t, k));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanScratch;
    use frugal_embed::CachePolicy;

    const DIM: usize = 2;
    const UNIVERSE: u64 = 40;

    /// Row `key`'s host value at `step`.
    fn host_row(key: Key, step: u64) -> [f32; DIM] {
        [key as f32 + 0.25, step as f32 * 0.5 - key as f32]
    }

    fn sgd_and_square(row: &mut [f32], state: &mut [f32], grad: f32) {
        row.iter_mut().for_each(|v| *v -= 0.1 * grad);
        state[0] += grad * grad;
    }

    #[test]
    fn two_pass_lookups_decide_and_write_like_one_pass() {
        // Member 0 of two owns about half the keys, about ten of a step's
        // twenty unique keys. Against that, four or eight slots: fills
        // evict rows their own step hit, and rows the step before touched
        // survive.
        let smap = ShardMap::initial(2, 8);
        for (policy, slots) in [(CachePolicy::Lru, 8), (CachePolicy::FrequencyAware, 4)] {
            let new_cache = || GpuCache::new(slots, DIM, policy).with_state_width(1);
            let (mut two, mut one) = (new_cache(), new_cache());
            let (mut lookups, mut urows) = (Lookups::default(), Vec::new());
            let (mut plan, mut plan_scratch) = (StepPlan::default(), PlanScratch::default());
            let mut x = 11u64;
            let mut evicted_hits = 0;
            for step in 0..200u64 {
                let keys: Vec<Key> = (0..24)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (x >> 33) % UNIVERSE
                    })
                    .collect();
                plan.rebuild(keys, &mut plan_scratch);
                let at = format!("{policy:?} step {step}");

                // The member pass: query, fill, apply.
                let mut hits_two = Vec::new();
                urows.resize(plan.unique().len() * DIM, 0.0);
                query(&mut two, &smap, 0, &plan, &mut lookups, |i, row| {
                    hits_two.push((i, row.iter().map(|v| v.to_bits()).collect::<Vec<_>>()))
                });
                let fills_two = fill(
                    &mut two,
                    &smap,
                    0,
                    &lookups.missing,
                    &mut urows,
                    |urows, _, i, key| {
                        urows[i * DIM..(i + 1) * DIM].copy_from_slice(&host_row(key, step))
                    },
                    |urows, i, _, row, state| {
                        row.copy_from_slice(&urows[i * DIM..(i + 1) * DIM]);
                        state.fill(1.0);
                    },
                );
                let owned: Vec<(Key, f32)> = plan
                    .unique()
                    .iter()
                    .filter(|&&k| smap.owns_key(0, k))
                    .map(|&k| (k, (k % 7) as f32 - 3.0))
                    .collect();
                apply(
                    &mut two,
                    &mut lookups,
                    &owned,
                    |&(k, _)| k,
                    |row, state, &(_, g)| sgd_and_square(row, state, g),
                );

                // The reference: one pass, each row touched as it resolves.
                let (mut hits_one, mut fills_one, mut missing) = (Vec::new(), 0, Vec::new());
                for (i, &key) in plan.unique().iter().enumerate() {
                    let row = smap.owns_key(0, key).then(|| one.get(&key)).flatten();
                    match row {
                        Some(row) => hits_one.push((i, row.iter().map(|v| v.to_bits()).collect())),
                        None => missing.push(key),
                    }
                }
                for &key in missing.iter().filter(|&&k| smap.owns_key(0, k)) {
                    let outcome = one.fill_with_state(key, |row, state| {
                        row.copy_from_slice(&host_row(key, step));
                        state.fill(1.0);
                    });
                    fills_one += usize::from(outcome != InsertOutcome::Rejected);
                    if let InsertOutcome::Evicted(gone) = outcome {
                        evicted_hits +=
                            usize::from(hits_one.iter().any(|&(i, _)| plan.unique()[i] == gone));
                    }
                }
                for &(key, g) in &owned {
                    if let Some((row, state)) = one.get_with_state(&key) {
                        sgd_and_square(row, state, g);
                    }
                }

                assert_eq!(hits_two, hits_one, "{at}: hits");
                assert_eq!(fills_two, fills_one, "{at}: fills");
                for key in 0..UNIVERSE {
                    assert_eq!(
                        two.contains(&key),
                        one.contains(&key),
                        "{at}: key {key} resident"
                    );
                }
            }
            assert!(
                evicted_hits > 0,
                "{policy:?}: fills must evict rows hit in their step"
            );
            for key in 0..UNIVERSE {
                let bits = |c: &mut GpuCache| {
                    c.get_with_state(&key).map(|(row, state)| {
                        row.iter()
                            .chain(&*state)
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>()
                    })
                };
                assert_eq!(bits(&mut two), bits(&mut one), "{policy:?}: key {key} bits");
            }
        }
    }
}
