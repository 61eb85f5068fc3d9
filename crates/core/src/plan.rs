//! The step plan: one (step, stream) batch, deduplicated once, and grouped
//! by g-entry shard once where read registration needs it. The engine's
//! sample ring publishes plans `L` steps early (paper §3.2) and the
//! key-stream walk builds them with the same [`StepPlan::rebuild`]; the
//! cache query ([`crate::member`]), scatter, aggregation and count records
//! read the dedup, and lookahead read registration the grouping, which only
//! the ring of a read-registering strategy builds
//! ([`StepPlan::group_by_shard`]).
//! Shard ids do not depend on the shard-map epoch, so an elastic
//! transition never invalidates a plan.

use crate::gentry::GEntryStore;
use crate::ShardMap;
use frugal_data::{Key, KeyHashMap};

const SHARDS: usize = GEntryStore::n_shards();

/// One (step, stream) batch, deduplicated and, on request, grouped by shard.
#[derive(Debug, Clone, Default)]
pub(crate) struct StepPlan {
    /// The sampled keys, in instance order.
    keys: Vec<Key>,
    /// The distinct keys, in first-occurrence order.
    unique: Vec<Key>,
    /// Instance `i` is `unique[index[i]]`.
    index: Vec<u32>,
    /// `unique` grouped by [`GEntryStore::shard_of`]: shards ascending,
    /// first-occurrence order inside each shard.
    by_shard: Vec<Key>,
    /// Shard `sid`'s keys are `by_shard[offsets[sid]..offsets[sid + 1]]`;
    /// empty until the batch is grouped.
    offsets: Vec<u32>,
}

/// The dedup table a plan's builder reuses from batch to batch.
#[derive(Debug, Default)]
pub(crate) struct PlanScratch(KeyHashMap<u32>);

impl StepPlan {
    /// Makes this plan `keys`' plan, in place: every buffer but the key
    /// list keeps its capacity, and nothing of the previous batch stays.
    pub(crate) fn rebuild(&mut self, keys: Vec<Key>, scratch: &mut PlanScratch) {
        assert!(
            keys.len() <= u32::MAX as usize,
            "batch too long for u32 indices"
        );
        let slot_of = &mut scratch.0;
        slot_of.clear();
        self.unique.clear();
        self.index.clear();
        for &key in &keys {
            let next = self.unique.len() as u32;
            let u = *slot_of.entry(key).or_insert(next);
            if u == next {
                self.unique.push(key);
            }
            self.index.push(u);
        }
        self.keys = keys;
        self.offsets.clear();
    }

    /// Groups the plan's distinct keys by shard, for [`StepPlan::shard`]
    /// and [`StepPlan::owned`]. Only a strategy that registers reads asks
    /// for them, so [`StepPlan::rebuild`] leaves them out.
    pub(crate) fn group_by_shard(&mut self) {
        let ends =
            GEntryStore::group_by_shard(self.unique.iter().copied(), |&k| k, &mut self.by_shard);
        self.offsets.clear();
        self.offsets.push(0);
        self.offsets.extend(ends.iter().map(|&end| end as u32));
    }

    /// The sampled keys, in instance order.
    pub(crate) fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// The distinct keys, in first-occurrence order.
    pub(crate) fn unique(&self) -> &[Key] {
        &self.unique
    }

    /// Per instance, its key's position in [`StepPlan::unique`].
    pub(crate) fn index(&self) -> &[u32] {
        &self.index
    }

    /// The distinct keys of g-entry shard `sid`, in first-occurrence order.
    /// The plan must have been grouped ([`StepPlan::group_by_shard`]) since
    /// its last rebuild.
    pub(crate) fn shard(&self, sid: usize) -> &[Key] {
        debug_assert_eq!(self.offsets.len(), SHARDS + 1, "plan not grouped by shard");
        &self.by_shard[self.offsets[sid] as usize..self.offsets[sid + 1] as usize]
    }

    /// The shard slices member `t` owns under `smap`, shards ascending.
    pub(crate) fn owned<'a>(
        &'a self,
        smap: &'a ShardMap,
        t: usize,
    ) -> impl Iterator<Item = &'a [Key]> + 'a {
        debug_assert_eq!(smap.n_shards(), SHARDS);
        (0..SHARDS)
            .filter(move |&sid| smap.owner_of_shard(sid) == t)
            .map(|sid| self.shard(sid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use frugal_data::{KeyDistribution, SyntheticTrace};

    fn plan_of(keys: &[Key]) -> StepPlan {
        let mut plan = StepPlan::default();
        plan.rebuild(keys.to_vec(), &mut PlanScratch::default());
        plan.group_by_shard();
        plan
    }

    /// Every property of a plan, against references built the slow way.
    fn assert_plan_of(plan: &StepPlan, keys: &[Key]) {
        let mut unique = Vec::new();
        for &k in keys {
            if !unique.contains(&k) {
                unique.push(k);
            }
        }
        assert_eq!(plan.keys(), keys);
        assert_eq!(plan.unique(), unique.as_slice());
        assert_eq!(plan.index().len(), keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(plan.unique()[plan.index()[i] as usize], k, "instance {i}");
        }
        let mut joined = Vec::new();
        for sid in 0..SHARDS {
            let slice = plan.shard(sid);
            let expected: Vec<Key> = unique
                .iter()
                .copied()
                .filter(|&k| GEntryStore::shard_of(k) == sid)
                .collect();
            assert_eq!(slice, expected.as_slice(), "shard {sid}");
            joined.extend_from_slice(slice);
        }
        // The slices, in ascending shard id, hold each unique key once.
        joined.sort_unstable();
        unique.sort_unstable();
        assert_eq!(joined, unique);
    }

    /// Batches of every shape: lengths 0, 1, 7 and 1 024, all distinct,
    /// all equal, and Zipf-like (repeats of a few hot keys).
    fn batches() -> Vec<Vec<Key>> {
        let mut out = Vec::new();
        let zipf = SyntheticTrace::new(5_000, KeyDistribution::Zipf(1.2), 1_024, 1, 3).unwrap();
        for len in [0usize, 1, 7, 1_024] {
            out.push((0..len as Key).map(|k| k * 37 + 5).collect());
            out.push(vec![42; len]);
            out.push(zipf.keys(0, 0)[..len].to_vec());
        }
        out
    }

    #[test]
    fn a_plan_is_its_batch_deduplicated_indexed_and_grouped_by_shard() {
        for keys in batches() {
            assert_plan_of(&plan_of(&keys), &keys);
        }
    }

    #[test]
    fn zipf_batches_repeat_keys_across_shards() {
        // The Zipf-like batch exercises the index: it has repeats, and its
        // distinct keys fall in more than one shard.
        let keys = batches().pop().unwrap();
        let plan = plan_of(&keys);
        assert!(plan.unique().len() < keys.len() / 2);
        assert!(
            (0..SHARDS)
                .filter(|&sid| !plan.shard(sid).is_empty())
                .count()
                > 1
        );
    }

    #[test]
    fn a_rebuilt_plan_equals_a_fresh_one() {
        // From a longer batch to a shorter one and back: no stale key,
        // index or shard offset survives a rebuild.
        let all = batches();
        let mut scratch = PlanScratch::default();
        let mut plan = StepPlan::default();
        for keys in all.iter().rev().chain(&all) {
            plan.rebuild(keys.clone(), &mut scratch);
            plan.group_by_shard();
            assert_plan_of(&plan, keys);
            let fresh = plan_of(keys);
            assert_eq!(plan.unique(), fresh.unique());
            assert_eq!(plan.index(), fresh.index());
            assert_eq!(plan.by_shard, fresh.by_shard);
            assert_eq!(plan.offsets, fresh.offsets);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "plan not grouped by shard")]
    fn a_rebuild_drops_the_previous_batch_s_grouping() {
        let mut plan = plan_of(&[1, 2, 3]);
        plan.rebuild(vec![4, 5], &mut PlanScratch::default());
        plan.shard(0);
    }

    #[test]
    fn owned_slices_partition_the_unique_keys_among_members() {
        let keys = batches().pop().unwrap();
        let plan = plan_of(&keys);
        let smap = ShardMap::initial(3, SHARDS);
        let mut covered = 0;
        for t in 0..3 {
            for slice in plan.owned(&smap, t) {
                assert!(slice.iter().all(|&k| smap.owns_key(t, k)));
                covered += slice.len();
            }
        }
        assert_eq!(covered, plan.unique().len());
    }
}
