//! Concurrent update rules applied by flushing threads.
//!
//! Unlike [`frugal_tensor::RowOptimizer`] (single-threaded, `&mut self`),
//! flushing threads share one rule across threads, so the trait here takes
//! `&self` and implementations manage their own interior state. Stateful
//! rules keep that state in a [`DenseStateTable`] — lock-free, preallocated,
//! and sound for the same reason [`crate::HostStore`] is: P²F serializes
//! flushes per key. The elementwise math lives in [`crate::kernels`] so the
//! flush-apply inner loops auto-vectorize.

use crate::kernels;
use crate::state::DenseStateTable;
use frugal_data::Key;

/// A thread-safe per-row update rule.
///
/// The rule is one kernel, [`UpdateRule::step`], run on a row and *a* state
/// row: the host path ([`UpdateRule::apply`]) runs it on the rule's own
/// per-key state, an owner cache runs it on the state slot it keeps next to
/// the cached row (seeded by [`UpdateRule::copy_state`] at fill time). Both
/// copies see the same per-key gradient sequence through the same kernel,
/// so they stay bit-identical by construction.
pub trait UpdateRule: Send + Sync + std::fmt::Debug {
    /// Floats of per-row optimizer state for rows of `dim` floats (0 for
    /// stateless rules, which then take empty state slices everywhere).
    fn state_width(&self, _dim: usize) -> usize {
        0
    }

    /// The update kernel: applies `grad` to `row` in place, advancing
    /// `state` (`state_width(row.len())` floats). Pure — touches nothing
    /// but its arguments.
    ///
    /// # Panics
    ///
    /// Implementations may panic if lengths differ.
    fn step(&self, row: &mut [f32], state: &mut [f32], grad: &[f32]);

    /// Applies `grad` to the host copy of `key`'s row in place:
    /// [`UpdateRule::step`] on the rule's own state row for `key`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if lengths differ.
    fn apply(&self, key: Key, row: &mut [f32], grad: &[f32]);

    /// The base learning rate.
    fn learning_rate(&self) -> f32;

    /// Copies the host path's state row for `key` into `dst`
    /// (`state_width` floats) without allocating; a key the host path never
    /// updated yields zeros. Engines seed a cached row's state slot with
    /// this when the row is (re)filled, so the cached copy keeps evolving
    /// exactly like the host copy.
    fn copy_state(&self, _key: Key, _dst: &mut [f32]) {}

    /// An owned copy of the per-row optimizer state for `key`, if any —
    /// the allocating form of [`UpdateRule::copy_state`], for seeding a
    /// `frugal_tensor::RowOptimizer` replica.
    fn state_snapshot(&self, _key: Key) -> Option<Vec<f32>> {
        None
    }

    /// Number of racing state accesses detected (rules built in checked
    /// mode only; always 0 otherwise). Consistency tests fold this into
    /// the run's race count alongside the host store's.
    fn race_count(&self) -> usize {
        0
    }
}

/// Stateless SGD — deterministic regardless of which flushing thread
/// applies which update, which the bit-equality tests rely on.
#[derive(Debug, Clone, Copy)]
pub struct SgdRule {
    lr: f32,
}

impl SgdRule {
    /// Creates SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be > 0");
        SgdRule { lr }
    }
}

impl UpdateRule for SgdRule {
    fn step(&self, row: &mut [f32], _state: &mut [f32], grad: &[f32]) {
        kernels::sgd_step(row, grad, self.lr);
    }

    fn apply(&self, _key: Key, row: &mut [f32], grad: &[f32]) {
        self.step(row, &mut [], grad);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Adagrad with dense lock-free per-row state — the production-style sparse
/// optimizer. Per-key serialization is guaranteed upstream by P²F (only one
/// pending flush per key at a time), so the state table needs no locks at
/// all; see [`DenseStateTable`] for the soundness argument and checked mode.
#[derive(Debug)]
pub struct AdagradRule {
    lr: f32,
    eps: f32,
    state: DenseStateTable,
}

impl AdagradRule {
    /// Creates Adagrad with learning rate `lr` and preallocated state for
    /// `n_keys` rows of `dim` f32 each.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive, or if `n_keys == 0` or
    /// `dim == 0`.
    pub fn new(lr: f32, n_keys: u64, dim: usize) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be > 0");
        AdagradRule {
            lr,
            eps: 1e-8,
            state: DenseStateTable::new(n_keys, dim),
        }
    }

    /// Like [`AdagradRule::new`] but with race-detecting state (see
    /// [`DenseStateTable::new_checked`]).
    pub fn new_checked(lr: f32, n_keys: u64, dim: usize) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be > 0");
        AdagradRule {
            lr,
            eps: 1e-8,
            state: DenseStateTable::new_checked(n_keys, dim),
        }
    }

    /// Number of rows with accumulated state (for tests).
    pub fn state_rows(&self) -> usize {
        self.state.rows()
    }
}

impl UpdateRule for AdagradRule {
    fn state_width(&self, dim: usize) -> usize {
        dim
    }

    fn step(&self, row: &mut [f32], state: &mut [f32], grad: &[f32]) {
        kernels::adagrad_step(row, state, grad, self.lr, self.eps);
    }

    fn apply(&self, key: Key, row: &mut [f32], grad: &[f32]) {
        self.state.update(key, |acc| self.step(row, acc, grad));
    }

    fn copy_state(&self, key: Key, dst: &mut [f32]) {
        self.state.snapshot_into(key, dst);
    }

    fn state_snapshot(&self, key: Key) -> Option<Vec<f32>> {
        self.state.snapshot(key)
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn race_count(&self) -> usize {
        self.state.race_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sgd_matches_formula() {
        let rule = SgdRule::new(0.1);
        let mut row = vec![1.0f32, -1.0];
        rule.apply(9, &mut row, &[2.0, 2.0]);
        assert_eq!(row, vec![0.8, -1.2]);
        assert_eq!(rule.learning_rate(), 0.1);
    }

    #[test]
    fn adagrad_decays_step_size() {
        let rule = AdagradRule::new(1.0, 16, 1);
        let mut row = vec![0.0f32];
        rule.apply(5, &mut row, &[1.0]);
        let s1 = -row[0];
        let prev = row[0];
        rule.apply(5, &mut row, &[1.0]);
        let s2 = prev - row[0];
        assert!(s1 > s2);
        assert_eq!(rule.state_rows(), 1);
    }

    #[test]
    fn adagrad_matches_serial_optimizer_bitwise() {
        // The shared rule and frugal_tensor's single-threaded Adagrad use
        // the identical formula; the kernel routing must not change a bit.
        use frugal_tensor::RowOptimizer;
        let rule = AdagradRule::new(0.5, 4, 8);
        let mut serial = frugal_tensor::Adagrad::new(0.5);
        let mut row_a: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let mut row_b = row_a.clone();
        for step in 0..10 {
            let grad: Vec<f32> = (0..8).map(|i| (i + step) as f32 * 0.01 - 0.03).collect();
            rule.apply(2, &mut row_a, &grad);
            serial.update_row(2, &mut row_b, &grad);
            assert_eq!(row_a, row_b, "diverged at step {step}");
        }
    }

    #[test]
    fn adagrad_state_snapshot_seeds_serial_optimizer() {
        // Snapshot the shared state mid-stream, seed a fresh serial
        // optimizer with it, and verify both continue identically — the
        // engine does exactly this when (re)filling a cache row.
        use frugal_tensor::RowOptimizer;
        let rule = AdagradRule::new(0.5, 4, 4);
        let mut row = vec![0.2f32, -0.1, 0.4, 0.0];
        rule.apply(1, &mut row, &[0.3, -0.2, 0.1, 0.5]);
        let snap = rule.state_snapshot(1).expect("state after apply");

        let mut serial = frugal_tensor::Adagrad::new(0.5);
        serial.seed_state(1, snap);
        let mut row_b = row.clone();
        rule.apply(1, &mut row, &[0.1, 0.1, -0.4, 0.2]);
        serial.update_row(1, &mut row_b, &[0.1, 0.1, -0.4, 0.2]);
        assert_eq!(row, row_b);
    }

    #[test]
    fn adagrad_step_on_copied_state_tracks_apply_bitwise() {
        // What an owner cache does: copy the host state at fill time, then
        // run the same kernel on its own (row, state) pair while the host
        // path applies the same gradients to its copy.
        let rule = AdagradRule::new(0.5, 4, 4);
        assert_eq!(rule.state_width(4), 4);
        let mut host = vec![0.2f32, -0.1, 0.4, 0.0];
        rule.apply(1, &mut host, &[0.3, -0.2, 0.1, 0.5]);
        let mut cached = host.clone();
        let mut state = vec![9.0f32; 4];
        rule.copy_state(1, &mut state);
        assert_eq!(Some(state.clone()), rule.state_snapshot(1));
        for g in [[0.1f32, 0.1, -0.4, 0.2], [0.0, -0.3, 0.2, 0.7]] {
            rule.apply(1, &mut host, &g);
            rule.step(&mut cached, &mut state, &g);
            assert_eq!(host, cached);
        }
        assert_eq!(Some(state), rule.state_snapshot(1));
        // A never-updated key copies as zeros.
        let mut fresh = vec![9.0f32; 4];
        rule.copy_state(3, &mut fresh);
        assert_eq!(fresh, vec![0.0; 4]);
    }

    #[test]
    fn sgd_is_stateless() {
        let rule = SgdRule::new(0.1);
        assert_eq!(rule.state_width(8), 0);
        let mut row = vec![1.0f32, -1.0];
        rule.copy_state(0, &mut []);
        rule.step(&mut row, &mut [], &[2.0, 2.0]);
        assert_eq!(row, vec![0.8, -1.2]);
    }

    #[test]
    fn adagrad_snapshot_none_for_untouched_key() {
        let rule = AdagradRule::new(0.5, 8, 4);
        assert_eq!(rule.state_snapshot(3), None);
    }

    #[test]
    fn adagrad_concurrent_different_keys() {
        let rule = Arc::new(AdagradRule::new_checked(0.5, 4_000, 4));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let rule = Arc::clone(&rule);
                std::thread::spawn(move || {
                    let mut row = vec![0.0f32; 4];
                    for i in 0..1_000 {
                        rule.apply(t * 1_000 + i, &mut row, &[0.1, 0.1, 0.1, 0.1]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rule.state_rows(), 4_000);
        assert_eq!(rule.race_count(), 0);
    }

    #[test]
    fn adagrad_checked_detects_same_key_race() {
        // Violate the P²F discipline on purpose: two threads apply to the
        // same key concurrently. Checked mode must observe the overlap.
        let rule = Arc::new(AdagradRule::new_checked(0.5, 4, 256));
        let start = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (rule, start) = (Arc::clone(&rule), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let mut row = vec![0.0f32; 256];
                    let grad = vec![0.01f32; 256];
                    let mut i = 0u64;
                    while rule.race_count() == 0 && i < 2_000_000 {
                        rule.apply(1, &mut row, &grad);
                        i += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(rule.race_count() > 0, "checked mode missed the race");
    }

    #[test]
    #[should_panic(expected = "learning rate must be > 0")]
    fn rejects_nan_lr() {
        let _ = SgdRule::new(f32::NAN);
    }
}
