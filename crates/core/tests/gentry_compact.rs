//! Property test: the compact g-entry representation (bitset read window +
//! overflow side map + write slab) agrees with plain `BTreeSet`/`Vec`
//! semantics over arbitrary register/drain sequences.
//!
//! The reference model is the layout the store shipped with before the
//! compact rewrite: one `BTreeSet<u64>` R set and one `Vec<u64>` W set per
//! key, priorities recomputed from scratch. The compact store must match
//! it on every observable after every operation — priorities, pending
//! counts, invariant checks, claim outcomes, and drained step sequences —
//! including step patterns whose read span exceeds the 64-step window
//! (forcing window slides and overflow spills the engine never triggers).
//!
//! A second, delete-heavy property crowds one shard's table and claims
//! entries away in arbitrary order: deletion closes its hole by backward
//! shift, and after every claim each surviving key must still be findable
//! (no probe run cut by the hole) with its own R/W state attached.
//!
//! A third drives twin stores through one random sequence of registrations
//! and claims — one through the engine's forms (registration from an
//! iterator over a shard-grouped permutation, whole-batch claim of a batch
//! grouped by shard in arrival order), one through the slice and one-key
//! forms over the old `(shard, key, priority)`-sorted order — and requires
//! the same claims, priorities and counts from both. Unit tests pin the
//! grouping helper itself: a stable permutation, one run per shard.

use frugal_core::{GEntryStore, PqOpScratch, PriorityPolicy};
use frugal_pq::{TwoLevelPq, INFINITE};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

const MAX_STEP: u64 = 2_000;

/// The pre-rewrite semantics, kept deliberately naive.
#[derive(Default)]
struct ModelEntry {
    r: BTreeSet<u64>,
    /// Steps of pending writes, in arrival (= step) order.
    w: Vec<u64>,
}

struct Model {
    entries: HashMap<u64, ModelEntry>,
    policy: PriorityPolicy,
}

impl Model {
    fn new(policy: PriorityPolicy) -> Self {
        Model {
            entries: HashMap::new(),
            policy,
        }
    }

    fn priority(&self, key: u64) -> Option<u64> {
        let e = self.entries.get(&key)?;
        Some(if e.w.is_empty() {
            INFINITE
        } else {
            match self.policy {
                PriorityPolicy::EarliestRead => e.r.first().copied().unwrap_or(INFINITE),
                PriorityPolicy::ArrivalOrder => e.w[0],
            }
        })
    }

    fn add_read(&mut self, key: u64, step: u64) {
        self.entries.entry(key).or_default().r.insert(step);
    }

    fn add_write(&mut self, key: u64, step: u64) {
        let e = self.entries.entry(key).or_default();
        e.r.remove(&step);
        e.w.push(step);
    }

    /// Claim with the same stale-validation rule as the store; returns the
    /// drained write steps.
    fn take_writes(&mut self, key: u64, bucket_priority: u64) -> Option<Vec<u64>> {
        let p = self.priority(key)?;
        let e = self.entries.get_mut(&key)?;
        if e.w.is_empty() || p != bucket_priority {
            return None;
        }
        let drained = std::mem::take(&mut e.w);
        if e.r.is_empty() {
            self.entries.remove(&key);
        }
        Some(drained)
    }

    fn pending_keys(&self) -> usize {
        self.entries.values().filter(|e| !e.w.is_empty()).count()
    }

    fn invariant_holds(&self, key: u64, step: u64) -> bool {
        match self.entries.get(&key) {
            None => true,
            Some(e) => e.w.is_empty() || !e.r.contains(&step),
        }
    }
}

/// One generated operation: `(kind, key index, step)`. A small key set
/// (reused indices) and a wide step range maximize collisions of both.
type Op = (u64, u64, u64);

/// Claims `key` at bucket priority `at` on both sides: they must agree on
/// acceptance (a stale claim is refused) and on the drained write steps.
fn claim_both(store: &GEntryStore, model: &mut Model, key: u64, at: u64) -> Result<(), String> {
    let got = store
        .take_writes(key, at)
        .map(|w| w.iter().map(|&(s, _)| s).collect::<Vec<_>>());
    let want = model.take_writes(key, at);
    if got != want {
        return Err(format!(
            "take_writes({key}, {at}) diverged: store {got:?}, model {want:?}"
        ));
    }
    Ok(())
}

fn check_agreement(policy: PriorityPolicy, ops: &[Op]) -> Result<(), String> {
    let store = GEntryStore::with_policy(policy);
    let pq = TwoLevelPq::new(MAX_STEP);
    let mut model = Model::new(policy);
    // Keys straddle several shards and collide within shard 0 (0 and 64).
    let keys: [u64; 8] = [0, 1, 2, 64, 65, 7, 128, 500];
    let grad: Arc<[f32]> = vec![1.0].into();

    for &(kind, key_idx, step) in ops {
        let key = keys[(key_idx % 8) as usize];
        let step = step % MAX_STEP;
        match kind % 4 {
            0 => {
                store.add_read(key, step, &pq);
                model.add_read(key, step);
            }
            1 => {
                store.add_write(key, step, Arc::clone(&grad), &pq);
                model.add_write(key, step);
            }
            2 => {
                // Claim at the entry's current priority (a valid dequeue)
                // or at a perturbed one (a stale dequeue) — both sides must
                // agree on acceptance and on the drained steps.
                let at = match store.priority_of(key) {
                    Some(p) if !step.is_multiple_of(3) => p,
                    _ => step,
                };
                claim_both(&store, &mut model, key, at)?;
            }
            _ => {
                if store.invariant_holds(key, step) != model.invariant_holds(key, step) {
                    return Err(format!("invariant_holds({key}, {step}) diverged"));
                }
            }
        }
        if store.priority_of(key) != model.priority(key) {
            return Err(format!(
                "priority_of({key}) diverged after op ({kind}, {step}): store {:?}, model {:?}",
                store.priority_of(key),
                model.priority(key)
            ));
        }
        if store.has_pending_writes(key)
            != model
                .priority(key)
                .is_some_and(|_| model.entries.get(&key).is_some_and(|e| !e.w.is_empty()))
        {
            return Err(format!("has_pending_writes({key}) diverged"));
        }
    }
    if store.pending_keys() != model.pending_keys() {
        return Err(format!(
            "pending_keys diverged: store {}, model {}",
            store.pending_keys(),
            model.pending_keys()
        ));
    }
    if store.len() != model.entries.len() {
        return Err(format!(
            "len diverged: store {}, model {}",
            store.len(),
            model.entries.len()
        ));
    }
    Ok(())
}

/// Crowds shard 0 (every key ≡ 0 mod 64, so all collide in one small
/// table) and deletes by claim in arbitrary order. `kind`: 0 = write with
/// no read (a claim then deletes the entry), 1 = read + write (a claim
/// leaves the entry alive, out of the queue), 2–4 = claim.
fn check_delete_heavy(ops: &[Op]) -> Result<(), String> {
    let policy = PriorityPolicy::EarliestRead;
    let store = GEntryStore::with_policy(policy);
    let pq = TwoLevelPq::new(MAX_STEP);
    let mut model = Model::new(policy);
    let grad: Arc<[f32]> = vec![1.0].into();
    for &(kind, key_idx, step) in ops {
        let key = key_idx * 64;
        match kind {
            0 => {
                store.add_write(key, step, Arc::clone(&grad), &pq);
                model.add_write(key, step);
            }
            1 => {
                store.add_read(key, step + 1, &pq);
                model.add_read(key, step + 1);
                store.add_write(key, step, Arc::clone(&grad), &pq);
                model.add_write(key, step);
            }
            _ => {
                let Some(at) = model.priority(key) else {
                    continue;
                };
                claim_both(&store, &mut model, key, at)?;
                // The claim may have deleted `key` and shifted its probe
                // run: every survivor is still found, with its own state.
                for (&k, e) in &model.entries {
                    if store.priority_of(k) != model.priority(k) {
                        return Err(format!(
                            "after claiming {key}: priority_of({k}) is {:?}, model {:?}",
                            store.priority_of(k),
                            model.priority(k)
                        ));
                    }
                    if store.has_pending_writes(k) == e.w.is_empty() {
                        return Err(format!("after claiming {key}: W set of {k} diverged"));
                    }
                }
                if store.priority_of(key).is_some() != model.entries.contains_key(&key) {
                    return Err(format!("claimed key {key}: liveness diverged"));
                }
            }
        }
        if store.len() != model.entries.len() {
            return Err(format!(
                "len diverged: store {}, model {}",
                store.len(),
                model.entries.len()
            ));
        }
    }
    if store.pending_keys() != model.pending_keys() {
        return Err("pending_keys diverged".to_owned());
    }
    Ok(())
}

/// A random step of the twin-store property: `kind` 0 registers the
/// writes of step `at` for the keys picked by `mask`, 1 its reads, 2–3
/// claims the picked keys (each at its current priority, or at `at` — a
/// stale pair — where `stale` has the key's bit set; bit `12 + i` adds a
/// second pair of the key at its current priority). `at` also picks the
/// arrival order: a rotation, reversed or not.
type TwinOp = (u64, u64, u64, u64);

/// `items` in a scrambled arrival order picked by `at`.
fn arrival_order<T>(mut items: Vec<T>, at: u64) -> Vec<T> {
    if !items.is_empty() {
        let n = items.len();
        items.rotate_left(at as usize % n);
    }
    if at / 16 % 2 == 1 {
        items.reverse();
    }
    items
}

/// Per claimed key, its drained `(step, Δ bits)` pairs in order.
type Claimed = BTreeMap<u64, Vec<(u64, u32)>>;

fn claimed(claims: &[(u64, usize, usize)], writes: &[(u64, Arc<[f32]>)]) -> Claimed {
    claims
        .iter()
        .map(|&(key, start, end)| {
            let rows = writes[start..end].iter().map(|(s, g)| (*s, g[0].to_bits()));
            (key, rows.collect())
        })
        .collect()
}

/// Twin stores, one random sequence. `batched` registers the engine's
/// way — [`GEntryStore::add_writes_iter`] over a shard-grouped permutation
/// of the rows, one `Arc` handed over per row — and claims the engine's
/// way: the batch grouped by shard with [`GEntryStore::group_by_shard`],
/// arrival order kept inside a shard, one `take_writes_batch`. `keyed`
/// registers by the slice form and claims one key at a time with
/// `take_writes_into`, over the batch sorted by `(shard, key, priority)` —
/// the order the flusher used to sort into. They must agree on every claim
/// (the same keys, the same drained `(step, Δ)` rows, the same number of
/// stale pairs refused), on every priority and `read_next` count, and on
/// `pending_keys`.
fn check_batched_forms_agree(policy: PriorityPolicy, ops: &[TwinOp]) -> Result<(), String> {
    // Shards 0 (0, 64, 128, 192), 1 (1, 65, 129) and five loners.
    let keys: [u64; 12] = [0, 64, 128, 192, 1, 65, 129, 2, 7, 500, 63, 1000];
    let picked = |mask: u64| {
        keys.iter()
            .enumerate()
            .filter(move |(i, _)| mask >> i & 1 == 1)
    };
    let (batched, keyed) = (
        GEntryStore::with_policy(policy),
        GEntryStore::with_policy(policy),
    );
    let (pq_b, pq_k) = (TwoLevelPq::new(MAX_STEP), TwoLevelPq::new(MAX_STEP));
    let mut scratch = PqOpScratch::default();
    let mut order: Vec<u32> = Vec::new();
    let mut grouped: Vec<(u64, u64)> = Vec::new();
    // Step order, as the engine registers: arrival-order priorities assume it.
    let mut step = 0u64;
    for &(kind, mask, stale, at) in ops {
        match kind {
            0 => {
                let grad: Arc<[f32]> = vec![step as f32].into();
                let items: Vec<(u64, Arc<[f32]>)> = arrival_order(
                    picked(mask).map(|(_, &k)| (k, Arc::clone(&grad))).collect(),
                    at,
                );
                let mut sorted = items.clone();
                sorted.sort_by_key(|&(k, _)| GEntryStore::shard_of(k));
                let rn_k = keyed.add_writes_batch(step, &sorted, &pq_k, &mut scratch);
                drop(sorted);
                GEntryStore::group_by_shard(
                    0..items.len() as u32,
                    |&i| items[i as usize].0,
                    &mut order,
                );
                let holders = Arc::strong_count(&grad);
                let rows = order.iter().map(|&i| {
                    let (key, grad) = &items[i as usize];
                    (*key, Arc::clone(grad))
                });
                let rn_b = batched.add_writes_iter(step, rows, &pq_b, &mut scratch);
                if Arc::strong_count(&grad) != holders + items.len() {
                    return Err(
                        "the iterator form must keep exactly the rows it is handed".to_owned()
                    );
                }
                if rn_b != rn_k {
                    return Err(format!(
                        "read_next diverged at step {step}: {rn_b} vs {rn_k}"
                    ));
                }
                step += 1;
            }
            1 => {
                let read_step = step + at % 12;
                let mut reads: Vec<u64> = picked(mask).map(|(_, &k)| k).collect();
                reads.sort_by_key(|&k| GEntryStore::shard_of(k));
                batched.add_reads_batch(read_step, &reads, &pq_b, &mut scratch);
                keyed.add_reads_batch(read_step, &reads, &pq_k, &mut scratch);
            }
            _ => {
                let mut pairs: Vec<(u64, u64)> = Vec::new();
                for (i, &k) in picked(mask) {
                    let current = keyed.priority_of(k);
                    pairs.push(match current {
                        Some(p) if stale >> i & 1 == 0 => (k, p),
                        _ => (k, at % 12),
                    });
                    if let Some(p) = current.filter(|_| stale >> (12 + i) & 1 == 1) {
                        pairs.push((k, p));
                    }
                }
                let arrival = arrival_order(pairs, at);
                GEntryStore::group_by_shard(arrival.iter().copied(), |&(k, _)| k, &mut grouped);
                let (mut writes_b, mut claims_b) = (Vec::new(), Vec::new());
                batched.take_writes_batch(&grouped, &mut writes_b, &mut claims_b);
                // The old flusher's order, claimed key by key.
                let mut sorted = arrival.clone();
                sorted.sort_unstable_by_key(|&(k, p)| (GEntryStore::shard_of(k), k, p));
                let (mut writes_k, mut claims_k) = (Vec::new(), Vec::new());
                for &(key, p) in &sorted {
                    let start = writes_k.len();
                    let n = keyed.take_writes_into(key, p, &mut writes_k);
                    if n > 0 {
                        claims_k.push((key, start, start + n));
                    }
                }
                let (got, want) = (claimed(&claims_b, &writes_b), claimed(&claims_k, &writes_k));
                if got != want || claims_b.len() != claims_k.len() {
                    return Err(format!(
                        "claim of {grouped:?} (sorted: {sorted:?}) diverged: grouped {got:?}, \
                         sorted {want:?}"
                    ));
                }
            }
        }
        for &k in &keys {
            if batched.priority_of(k) != keyed.priority_of(k) {
                return Err(format!("priority_of({k}) diverged after {kind}"));
            }
        }
        // Single-threaded, so quiescent after every call: the counts are exact.
        let pending = keys
            .iter()
            .filter(|&&k| keyed.has_pending_writes(k))
            .count();
        if batched.pending_keys() != pending || keyed.pending_keys() != pending {
            return Err(format!(
                "pending_keys: batched {}, keyed {}, entries with writes {pending}",
                batched.pending_keys(),
                keyed.pending_keys()
            ));
        }
        if batched.len() != keyed.len() {
            return Err("live g-entry counts diverged".to_owned());
        }
    }
    Ok(())
}

/// The store's footprint at CriteoTB scale is argued from this shape: a
/// mid-training lookahead window over a million keys, every key carrying a
/// registered read inside an 11-step window and one in 64 also a pending
/// write (all sharing one gradient allocation, so only store metadata is
/// counted). `resident_bytes` is analytic — table capacities, the write slab
/// and the overflow map — so the figure is exact; a layout change that moves
/// it edits the constant here and DESIGN §14.1 with it.
#[test]
fn a_million_key_window_stays_under_32_bytes_a_key() {
    const KEYS: u64 = 1_000_000;
    let store = GEntryStore::new();
    let pq = TwoLevelPq::new(1024);
    let grad: Arc<[f32]> = vec![0.0f32; 32].into();
    for k in 0..KEYS {
        store.add_read(k, k % 11, &pq);
        if k % 64 == 0 {
            store.add_write(k, k % 11, Arc::clone(&grad), &pq);
        }
    }
    assert_eq!(store.len(), KEYS as usize);
    assert_eq!(store.resident_bytes(), 31_362_264);
    // The budget binds whoever edits the figure above.
    assert!(store.resident_bytes() < 32 * KEYS as usize);
}

/// `group_by_shard` on `keys` (tagged with their input positions): a
/// permutation of the input, each shard one contiguous run, shards in
/// ascending order, and the input order kept inside a run.
fn check_grouping(keys: &[u64]) -> Result<(), String> {
    let tagged: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
    let mut out = vec![(7, 7); 3]; // stale contents are replaced
    GEntryStore::group_by_shard(tagged.iter().copied(), |&(k, _)| k, &mut out);
    let mut positions: Vec<usize> = out.iter().map(|&(_, i)| i).collect();
    if out.iter().any(|&(k, i)| keys[i] != k) {
        return Err(format!("{out:?} does not carry its items unchanged"));
    }
    positions.sort_unstable();
    if positions != (0..keys.len()).collect::<Vec<_>>() {
        return Err(format!("{out:?} is not a permutation of {keys:?}"));
    }
    for w in out.windows(2) {
        let (a, b) = (GEntryStore::shard_of(w[0].0), GEntryStore::shard_of(w[1].0));
        if a > b || (a == b && w[0].1 > w[1].1) {
            return Err(format!("{out:?}: shards out of order or a run not stable"));
        }
    }
    Ok(())
}

#[test]
fn grouping_keeps_arrival_order_inside_each_shard() {
    let batch = [
        (65u64, 'a'),
        (2, 'b'),
        (1, 'c'),
        (129, 'd'),
        (66, 'e'),
        (0, 'f'),
    ];
    let mut out = Vec::new();
    GEntryStore::group_by_shard(batch.iter().copied(), |&(k, _)| k, &mut out);
    assert_eq!(
        out,
        [
            (0, 'f'),
            (65, 'a'),
            (1, 'c'),
            (129, 'd'),
            (2, 'b'),
            (66, 'e')
        ]
    );
    GEntryStore::group_by_shard(std::iter::empty(), |&(k, _): &(u64, char)| k, &mut out);
    assert!(out.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn grouping_is_a_stable_permutation_with_one_run_per_shard(
        keys in proptest::collection::vec(0u64..1024, 0..300),
    ) {
        if let Err(msg) = check_grouping(&keys) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn grouped_claim_and_iterator_registration_match_the_keyed_sorted_forms(
        ops in proptest::collection::vec((0u64..4, 0u64..4096, 0u64..1 << 24, 0u64..MAX_STEP), 0..120),
        arrival in any::<bool>(),
    ) {
        let policy = if arrival {
            PriorityPolicy::ArrivalOrder
        } else {
            PriorityPolicy::EarliestRead
        };
        if let Err(msg) = check_batched_forms_agree(policy, &ops) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn compact_store_matches_btreeset_semantics_earliest_read(
        ops in proptest::collection::vec((0u64..4, 0u64..8, 0u64..MAX_STEP), 0..200)
    ) {
        if let Err(msg) = check_agreement(PriorityPolicy::EarliestRead, &ops) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn compact_store_matches_btreeset_semantics_arrival_order(
        ops in proptest::collection::vec((0u64..4, 0u64..8, 0u64..MAX_STEP), 0..200)
    ) {
        if let Err(msg) = check_agreement(PriorityPolicy::ArrivalOrder, &ops) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn delete_heavy_churn_keeps_every_survivor_findable(
        ops in proptest::collection::vec((0u64..5, 0u64..48, 0u64..40), 0..400)
    ) {
        if let Err(msg) = check_delete_heavy(&ops) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn batch_write_count_matches_model(
        ops in proptest::collection::vec((0u64..2, 0u64..8, 0u64..20), 0..100),
        step in 0u64..20,
    ) {
        // `add_writes_batch` reports how many rows left registration at
        // priority `step + 1`; the model recomputes that from scratch.
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(MAX_STEP);
        let mut scratch = PqOpScratch::default();
        let mut model = Model::new(PriorityPolicy::EarliestRead);
        let keys: [u64; 8] = [0, 1, 2, 64, 65, 7, 128, 500];
        let grad: Arc<[f32]> = vec![1.0].into();
        for &(kind, key_idx, at) in &ops {
            let key = keys[(key_idx % 8) as usize];
            if kind == 0 {
                store.add_read(key, at, &pq);
                model.add_read(key, at);
            } else {
                store.add_write(key, at, Arc::clone(&grad), &pq);
                model.add_write(key, at);
            }
        }
        // Shard-grouped, as the engine's registration buckets are.
        let mut batch = keys.to_vec();
        batch.sort_by_key(|&k| GEntryStore::shard_of(k));
        let items: Vec<(u64, Arc<[f32]>)> =
            batch.iter().map(|&k| (k, Arc::clone(&grad))).collect();
        let got = store.add_writes_batch(step, &items, &pq, &mut scratch);
        let mut want = 0u64;
        for &k in &batch {
            model.add_write(k, step);
            want += u64::from(model.priority(k) == Some(step + 1));
        }
        prop_assert_eq!(got, want);
    }
}
