//! The flush-apply entry point shared by every flush strategy.
//!
//! Background flushing threads (P²F and FIFO) and the write-through leader
//! all funnel through these two helpers, so pending updates meet the host
//! store and the shared optimizer rule in exactly one place. Per-key update
//! order is what bit-equality rests on: both helpers replay each row's
//! updates in the order given, and callers guarantee that order is the
//! serial schedule's (step order for claims, canonical arrival order for a
//! step's merged list).
//!
//! Both know their whole batch of keys before they touch the first row, and
//! the rows are scattered over a table far larger than any cache — so both
//! ask for each row a few places ahead of writing it
//! ([`HostStore::prefetch_ahead`]) and the batch's misses overlap.

use crate::rule::UpdateRule;
use crate::store::HostStore;
use frugal_data::Key;
use std::sync::Arc;

/// One claimed key's `(key, start, end)` range into the flat `(step, Δ)`
/// slab a flusher drained from the g-entry store — the strategy's batch
/// view of pending work.
pub type FlushClaim = (Key, usize, usize);

/// Applies a flusher batch: for each claim, replays its `(step, Δ)` slice
/// of `writes` onto the host row through `rule`, in slice (= step) order.
/// Returns the number of rows written.
///
/// Safe without per-row locking because the caller's protocol (the P²F
/// claim + in-flight marker) guarantees at most one flusher holds any key's
/// pending writes at a time.
pub fn apply_claims(
    store: &HostStore,
    rule: &dyn UpdateRule,
    claims: &[FlushClaim],
    writes: &[(u64, Arc<[f32]>)],
) -> u64 {
    for (i, &(key, start, end)) in claims.iter().enumerate() {
        store.prefetch_ahead(claims, i, |&(key, ..)| key);
        store.write_row(key, |row| {
            for (_step, grad) in &writes[start..end] {
                rule.apply(key, row, grad);
            }
        });
    }
    claims.len() as u64
}

/// Applies a step's merged update list synchronously, one row per `(key,
/// Δ)`, in the order given (canonical arrival order) — the write-through
/// leader's path. Routing it through the same `rule` as the background
/// flushers keeps stateful optimizers' `copy_state` correct in every
/// mode.
pub fn apply_updates(store: &HostStore, rule: &dyn UpdateRule, updates: &[(Key, Arc<[f32]>)]) {
    for (i, (key, grad)) in updates.iter().enumerate() {
        store.prefetch_ahead(updates, i, |&(key, _)| key);
        store.write_row(*key, |row| rule.apply(*key, row, grad));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::SgdRule;

    #[test]
    fn claims_replay_slices_in_order() {
        let store = HostStore::new(4, 2, 1);
        let rule = SgdRule::new(1.0);
        let before0 = store.row_vec(0);
        let before3 = store.row_vec(3);
        let writes: Vec<(u64, Arc<[f32]>)> = vec![
            (0, vec![1.0, 0.0].into()),
            (2, vec![0.0, 1.0].into()),
            (1, vec![0.5, 0.5].into()),
        ];
        // Key 0 claims the first two writes, key 3 the last.
        let n = apply_claims(&store, &rule, &[(0, 0, 2), (3, 2, 3)], &writes);
        assert_eq!(n, 2);
        let after0 = store.row_vec(0);
        assert_eq!(after0[0], before0[0] - 1.0);
        assert_eq!(after0[1], before0[1] - 1.0);
        let after3 = store.row_vec(3);
        assert_eq!(after3[0], before3[0] - 0.5);
        // Untouched rows stay put.
        assert_eq!(store.row_vec(1), {
            let s2 = HostStore::new(4, 2, 1);
            s2.row_vec(1)
        });
    }

    #[test]
    fn updates_apply_one_row_each() {
        let store = HostStore::new(4, 2, 1);
        let rule = SgdRule::new(0.5);
        let before = store.row_vec(2);
        apply_updates(&store, &rule, &[(2, vec![2.0, -2.0].into())]);
        let after = store.row_vec(2);
        assert_eq!(after[0], before[0] - 1.0);
        assert_eq!(after[1], before[1] + 1.0);
    }
}
