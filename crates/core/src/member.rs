//! A member's cache decisions (paper §3.2's training process, DESIGN §8),
//! made here for both the engine's trainers and the key-stream walk.
//!
//! Member `t` looks its owned keys up in its own cache, reads the rest from
//! the host and fills its owned misses ([`query`], [`fill`]); its owned rows
//! then take their synchronous update ([`apply`]); a transition drops or
//! trims its cache ([`transition`]). The trainer passes closures that move
//! rows and optimizer state; the walk, whose slots hold one placeholder
//! float, passes no-ops. The cache sees the same calls either way.

use crate::config::FrugalConfig;
use crate::plan::StepPlan;
use crate::ShardMap;
use frugal_data::Key;
use frugal_embed::{GpuCache, InsertOutcome, Sharding};

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
/// [`StepPlan::unique`]); every other key is collected into the cleared
/// `missing` as `(i, key)`.
pub(crate) fn query(
    cache: &mut GpuCache,
    smap: &ShardMap,
    t: usize,
    plan: &StepPlan,
    missing: &mut Vec<(usize, Key)>,
    mut hit: impl FnMut(usize, &[f32]),
) {
    missing.clear();
    for (i, &key) in plan.unique().iter().enumerate() {
        if smap.owns_key(t, key) {
            if let Some(row) = cache.get(&key) {
                hit(i, row);
                continue;
            }
        }
        missing.push((i, key));
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

/// The synchronous apply's lookups: each `(key, payload)` of `rows`, in
/// first arrival across streams, is looked up again (moving LRU recency and
/// frequency counts) and a cached one updated by `update(row, state, payload)`.
pub(crate) fn apply<P>(
    cache: &mut GpuCache,
    rows: impl IntoIterator<Item = (Key, P)>,
    mut update: impl FnMut(&mut [f32], &mut [f32], P),
) {
    for (key, payload) in rows {
        if let Some((row, state)) = cache.get_with_state(&key) {
            update(row, state, payload);
        }
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
