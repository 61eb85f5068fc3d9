//! Property test: the compact g-entry representation (bitset read window +
//! write slab) agrees with plain `BTreeSet`/`Vec` semantics over the
//! register/drain sequences the engine produces.
//!
//! The reference model is the layout the store shipped with before the
//! compact rewrite: one `BTreeSet<u64>` R set and one `Vec<u64>` W set per
//! key, priorities recomputed from scratch. The compact store must match
//! it on every observable after every operation — priorities, pending
//! counts, invariant checks, claim outcomes, and drained step sequences.
//! Registration follows the engine's order ([`EngineOrder`]) at a lookahead
//! up to the full [`READ_WINDOW`]: each key's reads arrive in step order
//! and its live reads lie within `L` steps of each other, so the windows
//! slide over consumed steps; claims, valid and stale, interleave anywhere.
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

use frugal_core::{GEntryStore, PqOpScratch, PriorityPolicy, READ_WINDOW};
use frugal_pq::{PriorityQueue, TwoLevelPq, INFINITE};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
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

    fn read(&mut self, key: u64, step: u64) {
        self.entries.entry(key).or_default().r.insert(step);
    }

    fn write(&mut self, key: u64, step: u64) {
        let e = self.entries.entry(key).or_default();
        e.r.remove(&step);
        e.w.push(step);
    }

    /// Claim with the same stale-validation rule as the store; returns the
    /// drained write steps.
    fn claim(&mut self, key: u64, bucket_priority: u64) -> Option<Vec<u64>> {
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

/// One step of the engine's registration order, with the keys it covers.
enum Action {
    /// The reads of a step, registered `L` steps ahead of it.
    Reads(u64, Vec<u64>),
    /// The writes of a step: exactly the keys its batch read.
    Writes(u64, Vec<u64>),
}

/// The order in which the engine registers a stream of batches: the reads
/// of steps `0..L` (the bootstrap), then for each step `s` its writes and
/// the reads of step `s + L`. Each key's reads therefore arrive in step
/// order, and the live ones lie within `L` steps of each other.
struct EngineOrder {
    lookahead: u64,
    /// Batches read but not yet written, oldest (= step `next_write`) first.
    batches: VecDeque<Vec<u64>>,
    next_write: u64,
    next_read: u64,
}

impl EngineOrder {
    fn new(lookahead: u64) -> Self {
        assert!((1..=READ_WINDOW).contains(&lookahead));
        EngineOrder {
            lookahead,
            batches: VecDeque::new(),
            next_write: 0,
            next_read: 0,
        }
    }

    /// The next registration. `batch` becomes the batch of the step whose
    /// reads are due, if any; a write takes the batch its step read.
    fn next(&mut self, batch: Vec<u64>) -> Action {
        if self.next_read < self.next_write + self.lookahead {
            let step = self.next_read;
            self.next_read += 1;
            self.batches.push_back(batch.clone());
            Action::Reads(step, batch)
        } else {
            let step = self.next_write;
            self.next_write += 1;
            Action::Writes(
                step,
                self.batches.pop_front().expect("reads precede writes"),
            )
        }
    }
}

/// `keys` picked by the bits of `mask`, grouped by shard.
fn batch_of(keys: &[u64], mask: u64) -> Vec<u64> {
    let picked = keys.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1);
    let mut out = Vec::new();
    GEntryStore::group_by_shard(picked.map(|(_, &k)| k), |&k| k, &mut out);
    out
}

/// Applies `action` to the store (batch forms) and to the model. For the
/// writes of step `s`, the store's count of rows that step `s + 1` reads
/// must match the model's.
fn register(
    store: &GEntryStore,
    pq: &dyn PriorityQueue,
    model: &mut Model,
    action: &Action,
) -> Result<(), String> {
    let mut scratch = PqOpScratch::default();
    match action {
        Action::Reads(step, keys) => {
            store.add_reads_batch(*step, keys, pq, &mut scratch);
            for &k in keys {
                model.read(k, *step);
            }
            Ok(())
        }
        Action::Writes(step, keys) => {
            let grad: Arc<[f32]> = vec![1.0].into();
            let items: Vec<(u64, Arc<[f32]>)> =
                keys.iter().map(|&k| (k, Arc::clone(&grad))).collect();
            let got = store.add_writes_batch(*step, &items, pq, &mut scratch);
            let mut want = 0;
            for &k in keys {
                model.write(k, *step);
                want += u64::from(model.priority(k) == Some(step + 1));
            }
            if got != want {
                return Err(format!(
                    "read_next at step {step}: store {got}, model {want}"
                ));
            }
            Ok(())
        }
    }
}

/// Claims `pairs` on both sides — one `take_writes_batch` of the batch
/// grouped by shard against the model's one-by-one claims in the same
/// order: they must agree on acceptance (a stale pair is refused) and on
/// the drained write steps.
fn claim_both(store: &GEntryStore, model: &mut Model, pairs: &[(u64, u64)]) -> Result<(), String> {
    let mut grouped = Vec::new();
    GEntryStore::group_by_shard(pairs.iter().copied(), |&(k, _)| k, &mut grouped);
    let (mut writes, mut claims) = (Vec::new(), Vec::new());
    store.take_writes_batch(&grouped, &mut writes, &mut claims);
    let got: Vec<(u64, Vec<u64>)> = claims
        .iter()
        .map(|&(k, start, end)| (k, writes[start..end].iter().map(|&(s, _)| s).collect()))
        .collect();
    let want: Vec<(u64, Vec<u64>)> = grouped
        .iter()
        .filter_map(|&(k, p)| model.claim(k, p).map(|w| (k, w)))
        .collect();
    if got != want {
        return Err(format!(
            "claim of {grouped:?} diverged: store {got:?}, model {want:?}"
        ));
    }
    Ok(())
}

/// One generated operation: `(kind, key mask, x)`. Kinds 0–1 take the
/// engine's next registration (`mask` picks the batch of a step whose reads
/// are due); 2 claims the picked keys, each at its current priority or —
/// where bit `i` of `x` is set — at a stale `x % 64`; 3 checks invariant (2)
/// for every key at `x % (L + 1)` steps past the next write.
type Op = (u64, u64, u64);

fn check_agreement(policy: PriorityPolicy, lookahead: u64, ops: &[Op]) -> Result<(), String> {
    let store = GEntryStore::with_policy(policy);
    let pq = TwoLevelPq::new(MAX_STEP);
    let mut model = Model::new(policy);
    let mut order = EngineOrder::new(lookahead);
    // Keys straddle several shards and collide within shard 0 (0 and 64).
    let keys: [u64; 8] = [0, 1, 2, 64, 65, 7, 128, 500];

    for &(kind, mask, x) in ops {
        match kind % 4 {
            0 | 1 => {
                register(&store, &pq, &mut model, &order.next(batch_of(&keys, mask)))?;
            }
            2 => {
                let pairs: Vec<(u64, u64)> = batch_of(&keys, mask)
                    .into_iter()
                    .map(|k| {
                        let i = keys.iter().position(|&key| key == k).unwrap();
                        match store.priority_of(k) {
                            Some(p) if x >> i & 1 == 0 => (k, p),
                            _ => (k, x % 64),
                        }
                    })
                    .collect();
                claim_both(&store, &mut model, &pairs)?;
            }
            _ => {
                let step = order.next_write + x % (lookahead + 1);
                for &key in &keys {
                    if store.invariant_holds(key, step) != model.invariant_holds(key, step) {
                        return Err(format!("invariant_holds({key}, {step}) diverged"));
                    }
                }
            }
        }
        for &key in &keys {
            if store.priority_of(key) != model.priority(key) {
                return Err(format!(
                    "priority_of({key}) diverged after op ({kind}, {mask}, {x}): store {:?}, \
                     model {:?}",
                    store.priority_of(key),
                    model.priority(key)
                ));
            }
            let model_pending = model.entries.get(&key).is_some_and(|e| !e.w.is_empty());
            if store.has_pending_writes(key) != model_pending {
                return Err(format!("has_pending_writes({key}) diverged"));
            }
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
/// table) and deletes by claim in arbitrary order. `kind` 0 takes the
/// engine's next registration (`mask` picks the batch among 48 keys); 1–4
/// claim key `x % 48` at its current priority, which deletes the entry if
/// no read of it is left.
fn check_delete_heavy(lookahead: u64, ops: &[Op]) -> Result<(), String> {
    let policy = PriorityPolicy::EarliestRead;
    let store = GEntryStore::with_policy(policy);
    let pq = TwoLevelPq::new(MAX_STEP);
    let mut model = Model::new(policy);
    let mut order = EngineOrder::new(lookahead);
    let keys: Vec<u64> = (0..48).map(|i| i * 64).collect();
    for &(kind, mask, x) in ops {
        if kind == 0 {
            register(&store, &pq, &mut model, &order.next(batch_of(&keys, mask)))?;
        } else {
            let key = keys[(x % 48) as usize];
            let Some(at) = model.priority(key) else {
                continue;
            };
            claim_both(&store, &mut model, &[(key, at)])?;
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

/// A random step of the twin-store property: `kind` 0–1 takes the
/// engine's next registration (`mask` picks the batch of a step whose reads
/// are due), 2–3 claims the picked keys (each at its current priority, or
/// at `at % 12` — a stale pair — where `stale` has the key's bit set; bit
/// `12 + i` adds a second pair of the key at its current priority). `at`
/// also picks the arrival order of writes and claims: a rotation, reversed
/// or not.
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

/// Twin stores, one random sequence in the engine's registration order.
/// `batched` registers the engine's way — [`GEntryStore::add_writes_iter`]
/// over a shard-grouped permutation of the rows, one `Arc` handed over per
/// row — and claims the engine's way: the batch grouped by shard with
/// [`GEntryStore::group_by_shard`], arrival order kept inside a shard, one
/// `take_writes_batch`. `keyed` registers by the slice form and claims one
/// key at a time with `take_writes_into`, over the batch sorted by
/// `(shard, key, priority)` — the order the flusher used to sort into. They must agree on every claim
/// (the same keys, the same drained `(step, Δ)` rows, the same number of
/// stale pairs refused), on every priority and `read_next` count, and on
/// `pending_keys`.
fn check_batched_forms_agree(
    policy: PriorityPolicy,
    lookahead: u64,
    ops: &[TwinOp],
) -> Result<(), String> {
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
    let mut engine = EngineOrder::new(lookahead);
    for &(kind, mask, stale, at) in ops {
        let action = (kind < 2).then(|| engine.next(batch_of(&keys, mask)));
        match action {
            Some(Action::Reads(step, reads)) => {
                batched.add_reads_batch(step, &reads, &pq_b, &mut scratch);
                keyed.add_reads_batch(step, &reads, &pq_k, &mut scratch);
            }
            Some(Action::Writes(step, written)) => {
                let grad: Arc<[f32]> = vec![step as f32].into();
                let items: Vec<(u64, Arc<[f32]>)> = arrival_order(
                    written.iter().map(|&k| (k, Arc::clone(&grad))).collect(),
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
            }
            None => {
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
/// counted). `resident_bytes` is analytic — table capacities and the write
/// slab — so the figure is exact; a layout change that moves it edits the
/// constant here and DESIGN §14.1 with it.
#[test]
fn a_million_key_window_stays_under_32_bytes_a_key() {
    const KEYS: u64 = 1_000_000;
    let store = GEntryStore::new();
    let pq = TwoLevelPq::new(1024);
    let grad: Arc<[f32]> = vec![0.0f32; 32].into();
    let mut scratch = PqOpScratch::default();
    let mut batch = Vec::new();
    // Key `k` is read at step `k % 11`; one key in 64 is also written at
    // that step, which consumes its read.
    for step in 0..11 {
        GEntryStore::group_by_shard((step..KEYS).step_by(11), |&k| k, &mut batch);
        store.add_reads_batch(step, &batch, &pq, &mut scratch);
    }
    for step in 0..11 {
        let written = (step..KEYS).step_by(11).filter(|k| k % 64 == 0);
        GEntryStore::group_by_shard(written, |&k| k, &mut batch);
        let rows = batch.iter().map(|&k| (k, Arc::clone(&grad)));
        store.add_writes_iter(step, rows, &pq, &mut scratch);
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

/// Lookaheads up to the read window's width, the widest in half the cases.
fn lookahead() -> impl Strategy<Value = u64> {
    (1..2 * READ_WINDOW).prop_map(|l| l.min(READ_WINDOW))
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
        ops in proptest::collection::vec((0u64..4, 0u64..4096, 0u64..1 << 24, 0u64..MAX_STEP), 0..200),
        lookahead in lookahead(),
        arrival in any::<bool>(),
    ) {
        let policy = if arrival {
            PriorityPolicy::ArrivalOrder
        } else {
            PriorityPolicy::EarliestRead
        };
        if let Err(msg) = check_batched_forms_agree(policy, lookahead, &ops) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn compact_store_matches_btreeset_semantics_earliest_read(
        ops in proptest::collection::vec((0u64..4, 0u64..256, any::<u64>()), 0..300),
        lookahead in lookahead(),
    ) {
        if let Err(msg) = check_agreement(PriorityPolicy::EarliestRead, lookahead, &ops) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn compact_store_matches_btreeset_semantics_arrival_order(
        ops in proptest::collection::vec((0u64..4, 0u64..256, any::<u64>()), 0..300),
        lookahead in lookahead(),
    ) {
        if let Err(msg) = check_agreement(PriorityPolicy::ArrivalOrder, lookahead, &ops) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn delete_heavy_churn_keeps_every_survivor_findable(
        ops in proptest::collection::vec((0u64..5, 0u64..1 << 48, 0u64..48), 0..400),
        lookahead in 1u64..4,
    ) {
        if let Err(msg) = check_delete_heavy(lookahead, &ops) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn batch_write_count_matches_model(
        masks in proptest::collection::vec(0u64..256, 0..100),
        lookahead in lookahead(),
    ) {
        // `add_writes_batch` reports how many rows left registration at
        // priority `step + 1`; `register` checks that against the model,
        // which recomputes it from scratch, at every step's writes.
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(MAX_STEP);
        let mut model = Model::new(PriorityPolicy::EarliestRead);
        let mut order = EngineOrder::new(lookahead);
        let keys: [u64; 8] = [0, 1, 2, 64, 65, 7, 128, 500];
        for mask in masks {
            let action = order.next(batch_of(&keys, mask));
            if let Err(msg) = register(&store, &pq, &mut model, &action) {
                prop_assert!(false, "{}", msg);
            }
        }
    }
}
