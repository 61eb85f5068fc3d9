//! The background flushing pool: coordination primitives and the per-thread
//! drain loop (paper §3.2, component 4).
//!
//! A flusher works a batch at a time and pays its synchronisation per batch,
//! not per row: one marker raise at the lowest queued priority
//! ([`GEntryStore::mark_lowest`](crate::GEntryStore::mark_lowest)), one
//! claim that takes each g-entry shard's share of the lowest buckets and
//! claims it in one hold of that shard's lock
//! ([`GEntryStore::claim_marked`](crate::GEntryStore::claim_marked)), one
//! apply that lands the claimed rows in claim order with the rows a few
//! places ahead already requested from memory, one marker clear, at most
//! one wake. Nothing on the way is sorted or grouped: the queue already
//! lives in the shards, and the apply needs no order at all — the
//! prefetch, not an address-order walk, hides its memory latency.

use super::RunShared;
use crate::gentry::PendingWrites;
use crate::wait::InflightTable;
use frugal_embed::FlushClaim;
use frugal_telemetry::{LaneKind, LedgerPhase};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long an idle flusher parks on the flush condvar before re-polling.
/// Wakes are notify-driven (a trainer about to give up its core signals the
/// condvar, see [`FlushCoord`]), and a notify that lands between a
/// flusher's empty pass and its park is not lost (see [`FlushCoord::park`]),
/// so this timeout is a safety net, not the drain cadence — at 100 µs the
/// idle re-poll churn of a several-flusher pool was itself a measurable CPU
/// tax on oversubscribed hosts (hundreds of wake-poll cycles per step), so
/// the net is deliberately loose.
const FLUSHER_PARK: Duration = Duration::from_millis(1);

/// How long a blocked trainer parks between wait-condition re-checks.
const TRAINER_PARK: Duration = Duration::from_micros(50);

/// The flusher pool's coordination surface: the condvar trainers and
/// flushers park on, the shutdown latch the drain protocol uses, and the
/// in-flight markers the wait condition scans.
///
/// The condvar is shared deliberately — flushers wake on fresh
/// registrations, trainers (and the transition drain) on applied rows, and
/// both events funnel through [`FlushCoord::notify_all`].
///
/// # Who wakes the flushers
///
/// Only a thread about to stop running: a member that arrives at barrier C
/// and will wait for a sibling (the barrier's `wait_then` hook), a member
/// about to block in the stall wait, and the drain and shutdown paths; a
/// cohort of one, which never waits at C, at the end of its registration.
/// A woken flusher tends to run on its waker's core; woken by a member that
/// keeps working, it would take that member's core while the sibling idles
/// at C. One exception: the C-leader, past C, when the queue already holds
/// entries the next step's wait would block on — a stall wait, and its
/// wake, would otherwise follow for certain.
#[derive(Debug)]
pub(crate) struct FlushCoord {
    mutex: Mutex<()>,
    cv: Condvar,
    /// Threads parked (or committing to park) on `cv`: a notify with none
    /// skips the condvar and its futex syscall.
    sleepers: AtomicUsize,
    /// Notifications issued so far: a flusher parks only if none arrived
    /// since it read this before its empty pass.
    notified: AtomicU64,
    shutdown: AtomicBool,
    /// Per-flusher in-flight markers checked by the wait condition (see
    /// [`InflightTable`]): a claim removes an entry from the queue before
    /// its row write completes, so the queue's top alone cannot cover it.
    pub(crate) inflight: InflightTable,
}

impl FlushCoord {
    pub(crate) fn new(n_flushers: usize) -> Self {
        FlushCoord {
            mutex: Mutex::new(()),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            notified: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            inflight: InflightTable::new(n_flushers),
        }
    }

    /// Wakes every parked flusher and every blocked waiter; returns whether
    /// anyone was asleep to wake. The caller has already made its change
    /// (rows queued or applied, the shutdown latch raised) visible.
    pub(crate) fn notify_all(&self) -> bool {
        self.notified.fetch_add(1, Ordering::Relaxed);
        // Pairs with the fence in `sleep`: either this load sees the
        // sleeper counted, or the sleeper's re-check sees the caller's
        // change (and the count above) and it never waits.
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) == 0 {
            return false;
        }
        // Taking the mutex orders the notify after any sleeper that is
        // past its re-check but not yet inside `cv.wait_for`.
        drop(self.mutex.lock());
        self.cv.notify_all();
        true
    }

    /// Raises the shutdown latch and wakes parked flushers so the drain
    /// protocol can finish.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.notify_all();
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// The notification count, read by a flusher before a pass: see
    /// [`Self::park`].
    pub(crate) fn notifications(&self) -> u64 {
        self.notified.load(Ordering::Relaxed)
    }

    /// Parks an idle flusher until a notification (or the bounded timeout),
    /// unless one already arrived since it read `seen` from
    /// [`Self::notifications`] before its empty pass: a notify that lands
    /// between the pass and this wait finds no sleeper to signal, and would
    /// otherwise be lost for a whole timeout. Returns the nanoseconds spent
    /// parked. Spinning here instead would burn a core per idle flusher and
    /// divert CPU from trainers (the paper's Fig 17 effect).
    pub(crate) fn park(&self, seen: u64) -> u64 {
        let t = Instant::now();
        self.sleep(FLUSHER_PARK, || {
            self.is_shutdown() || self.notified.load(Ordering::Relaxed) != seen
        });
        t.elapsed().as_nanos() as u64
    }

    /// Blocks the caller until `done()` holds. Applied rows notify, so each
    /// bounded wait normally ends early.
    pub(crate) fn wait_until(&self, done: impl Fn() -> bool) {
        while !done() {
            self.sleep(TRAINER_PARK, &done);
        }
    }

    /// Parks for at most `timeout` unless `ready()` holds once the caller
    /// is counted as a sleeper.
    fn sleep(&self, timeout: Duration, ready: impl Fn() -> bool) {
        let mut guard = self.mutex.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if !ready() {
            self.cv.wait_for(&mut guard, timeout);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One background flushing thread.
///
/// The apply path is allocation-free after warm-up: claims drain into two
/// reused scratches (`writes` + `claims`) via
/// [`crate::gentry::GEntryStore::claim_marked`], and the claimed ranges
/// then replay, in that same order, through [`frugal_embed::apply_claims`]
/// — the same optimizer/store path the write-through trainers' sharded
/// apply uses. Each key's rows replay in step order; the order *across*
/// keys is free (rows are independent).
///
/// Claim-all-then-apply-all is safe under the in-flight marker: the
/// marker is raised at the lowest queued priority *before* anything is
/// extracted, lowered before any bucket below it is, and stays up until
/// every row is applied, so a trainer admitted at step `s` has `s <`
/// marker `≤` every claimed key's priority (its next-read step under P²F,
/// its write step under FIFO) — step `s` reads none of the
/// claimed-but-unapplied rows.
pub(crate) fn flusher_loop(shared: &RunShared<'_>, slot: usize) {
    let rec = shared
        .cfg
        .telemetry
        .recorder(format!("flusher-{slot}"), LaneKind::Flusher);
    // Reusable claim scratch: the batch's claimed (step, Δ) pairs, flat,
    // plus each claimed key's range into them.
    let mut writes: PendingWrites = Vec::new();
    let mut claims: Vec<FlushClaim> = Vec::with_capacity(shared.cfg.flush_batch);
    let guard = shared.flush.inflight.guard(slot);
    loop {
        claims.clear();
        let seen = shared.flush.notifications();
        let t_deq = Instant::now();
        // Before anything, the read horizon: a deferred entry claimed now
        // may have its next read registered while it is still in flight.
        // Then the marker, raised *before* any entry leaves the queue, so
        // there is no instant at which a pending flush is visible to
        // neither the queue's top nor the marker scan. (Publishing after
        // extraction — the engine's old order — left exactly that window;
        // the schedule explorer found a trainer slipping through it. See
        // DESIGN.md §8 race 3.)
        shared.flush.inflight.open(slot);
        if !shared.gstore.mark_lowest(guard) {
            shared.flush.inflight.clear(slot);
            if shared.flush.is_shutdown() && shared.gstore.pending_keys() == 0 {
                return;
            }
            let parked = shared.flush.park(seen);
            shared.metrics.flusher_parked_ns.add(parked);
            continue;
        }
        // Only non-empty passes are recorded: thousands of idle polls
        // would swamp the trace ring. Flushers do not track the trainer
        // step; they book to the ledger's cursor.
        let deq_ns = t_deq.elapsed().as_nanos() as u64;
        shared.metrics.flush_dequeue_ns.add(deq_ns);
        rec.record(
            rec.current_step(),
            LedgerPhase::FlushDequeue,
            t_deq,
            deq_ns,
            &[],
        );
        // Claim phase, timed apart from the apply: the extraction contends
        // with registering trainers on the shard locks, so folding it into
        // the apply window made `flush_apply_ns_row` look like the kernels
        // slowed down at 8 trainers when it was really queue bookkeeping.
        let t_claim = Instant::now();
        let taken =
            shared
                .gstore
                .claim_marked(shared.cfg.flush_batch, guard, &mut writes, &mut claims);
        let claim_ns = t_claim.elapsed().as_nanos() as u64;
        shared.metrics.flush_claim_ns.add(claim_ns);
        rec.record(
            rec.current_step(),
            LedgerPhase::FlushClaim,
            t_claim,
            claim_ns,
            &[("taken", taken as u64), ("claimed", claims.len() as u64)],
        );
        // Pure apply: optimizer step + host-store write, in claim order.
        let t_apply = Instant::now();
        let applied =
            frugal_embed::apply_claims(shared.store, shared.rule.as_ref(), &claims, &writes);
        // Let go of the applied rows now, not at the next batch (which may
        // be a park away): the owner's reduce two steps on overwrites in
        // place every row it finds unshared (`ArcFold`).
        writes.clear();
        // Booked before the marker clear below, so in the trace this
        // batch's span ends before any wait it releases does.
        if applied > 0 {
            let apply_ns = t_apply.elapsed().as_nanos() as u64;
            shared.metrics.flush_apply_ns.add(apply_ns);
            shared.metrics.flush_rows.add(applied);
            shared.metrics.flush_batch_rows.record(applied);
            rec.record(
                rec.current_step(),
                LedgerPhase::FlushApply,
                t_apply,
                apply_ns,
                &[("rows", applied)],
            );
        }
        shared.flush.inflight.clear(slot);
        if applied > 0 {
            // One consolidated wake, and it must come *after*
            // `inflight.clear`: a trainer's wait condition checks the queue
            // top and then the in-flight markers, so a wake issued while
            // this slot's marker is still up could be consumed, re-observe
            // the stale marker, and leave the trainer waiting out a full
            // park timeout. After the clear, both the queue and the marker
            // reflect the applied rows, so one notify_all suffices.
            shared.flush.notify_all();
        }
        if shared.cfg.flush_throttle_us > 0 {
            std::thread::sleep(Duration::from_micros(shared.cfg.flush_throttle_us));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn notify_without_a_sleeper_skips_the_condvar() {
        let coord = FlushCoord::new(1);
        assert!(!coord.notify_all());
        // A wait that is already satisfied never counts itself asleep.
        coord.wait_until(|| true);
        assert!(!coord.notify_all());
    }

    #[test]
    fn parked_waiter_is_woken_by_the_notify() {
        // `wait_until` and `park` both wait in `sleep`. This waiter's own
        // timeout is longer than the test allows, so only the notify can
        // end its wait in time.
        let coord = Arc::new(FlushCoord::new(1));
        let done = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (coord, done) = (Arc::clone(&coord), Arc::clone(&done));
            std::thread::spawn(move || {
                coord.sleep(Duration::from_secs(60), || done.load(Ordering::Acquire));
            })
        };
        let t0 = Instant::now();
        while coord.sleepers.load(Ordering::SeqCst) == 0 {
            assert!(t0.elapsed() < Duration::from_secs(20), "never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        done.store(true, Ordering::Release);
        assert!(coord.notify_all(), "the parked waiter was not counted");
        waiter.join().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(40),
            "woken by its timeout"
        );
        assert_eq!(coord.sleepers.load(Ordering::SeqCst), 0);
    }
}
