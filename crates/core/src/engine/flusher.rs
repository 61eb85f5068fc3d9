//! The background flushing pool: coordination primitives and the per-thread
//! drain loop (paper §3.2, component 4).
//!
//! A flusher works a batch at a time and pays its synchronisation per batch,
//! not per row: one guarded dequeue (the queue settles its counters once per
//! bucket), one claim in which each g-entry shard's lock is taken once for
//! all of the batch's keys in that shard
//! ([`GEntryStore::take_writes_batch`](crate::GEntryStore::take_writes_batch)),
//! one apply that lands the claimed rows in claim order with the rows a few
//! places ahead already requested from memory, one marker clear, at most
//! one wake. Nothing on the way is sorted: one counting pass groups the
//! batch by shard ([`GEntryStore::group_by_shard`]), and the apply needs no
//! order at all — the prefetch, not an address-order walk, hides its
//! memory latency.

use super::RunShared;
use crate::gentry::{GEntryStore, PendingWrites};
use crate::wait::InflightTable;
use frugal_embed::FlushClaim;
use frugal_telemetry::{LaneKind, LedgerPhase};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long an idle flusher parks on the flush condvar before re-polling.
/// Bounded so shutdown and missed notifications (a registration that lands
/// between the empty dequeue and the park) cannot stall the drain. Wakes
/// are notify-driven (a trainer about to give up its core signals the
/// condvar, see [`FlushCoord`]), so this timeout is a safety net, not the
/// drain cadence — at 100 µs the idle re-poll churn of a several-flusher
/// pool was itself a measurable CPU tax on oversubscribed hosts (hundreds
/// of wake-poll cycles per step), so the net is deliberately loose.
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
/// at C. Raising the scan bound wakes nobody: it makes no queued entry
/// visible (see [`super::strategy::Strategy::upper_bound_after`]).
#[derive(Debug)]
pub(crate) struct FlushCoord {
    mutex: Mutex<()>,
    cv: Condvar,
    /// Threads parked (or committing to park) on `cv`: a notify with none
    /// skips the condvar and its futex syscall.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    /// Per-flusher in-flight markers checked by the wait condition (see
    /// [`InflightTable`]): dequeuing removes an entry from the queue before
    /// its row write completes, so the queue's `top_priority` alone cannot
    /// cover it.
    pub(crate) inflight: InflightTable,
}

impl FlushCoord {
    pub(crate) fn new(n_flushers: usize) -> Self {
        FlushCoord {
            mutex: Mutex::new(()),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            inflight: InflightTable::new(n_flushers),
        }
    }

    /// Wakes every parked flusher and every blocked waiter; returns whether
    /// anyone was asleep to wake. The caller has already made its change
    /// (rows queued or applied, the shutdown latch raised) visible.
    pub(crate) fn notify_all(&self) -> bool {
        // Pairs with the fence in `sleep`: either this load sees the
        // sleeper counted, or the sleeper's re-check sees the caller's
        // change and it never waits.
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

    /// Parks an idle flusher until a notification (or the bounded timeout —
    /// the safety net against a notify that lands between its empty dequeue
    /// and this wait). Returns the nanoseconds spent parked. Spinning here
    /// instead would burn a core per idle flusher and divert CPU from
    /// trainers (the paper's Fig 17 effect).
    pub(crate) fn park(&self) -> u64 {
        let t = Instant::now();
        self.sleep(FLUSHER_PARK, || self.is_shutdown());
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
/// The apply path is allocation-free after warm-up: the dequeued batch is
/// grouped by g-entry shard into a reused scratch (`grouped`, one lock
/// acquisition per shard it touches), and claims drain into two more
/// (`writes` + `claims`) via
/// [`crate::gentry::GEntryStore::take_writes_batch`]. The claimed ranges
/// then replay, in that same order, through
/// [`frugal_embed::apply_claims`] — the same optimizer/store path the
/// write-through trainers' sharded apply uses. Each key's rows replay in
/// step order; the order *across* keys is free (rows are independent).
///
/// Claim-all-then-apply-all is safe under the in-flight marker: the guarded
/// dequeue publishes the batch's minimum priority *before* extraction and
/// the marker stays up until every row is applied, so a trainer admitted at
/// step `s` has `s <` marker `≤` every batch key's priority (its next-read
/// step under P²F, its write step under FIFO) — step `s` reads none of the
/// claimed-but-unapplied rows.
pub(crate) fn flusher_loop(shared: &RunShared<'_>, slot: usize) {
    let rec = shared
        .cfg
        .telemetry
        .recorder(format!("flusher-{slot}"), LaneKind::Flusher);
    let mut out = Vec::with_capacity(shared.cfg.flush_batch);
    let mut grouped = Vec::with_capacity(shared.cfg.flush_batch);
    // Reusable claim scratch: the batch's claimed (step, Δ) pairs, flat,
    // plus each claimed key's range into them.
    let mut writes: PendingWrites = Vec::new();
    let mut claims: Vec<FlushClaim> = Vec::with_capacity(shared.cfg.flush_batch);
    loop {
        out.clear();
        let t_deq = Instant::now();
        // Guarded dequeue: the in-flight marker is published *before* each
        // entry leaves the queue, so there is no instant at which a pending
        // flush is visible to neither `top_priority` nor the marker scan.
        // (Publishing after `dequeue_batch` returned — the engine's old
        // order — left exactly that window; the schedule explorer found a
        // trainer slipping through it. See DESIGN.md §8 race 3.)
        // Before that, the read horizon: a deferred entry claimed now may
        // have its next read registered while it is still in flight.
        shared.flush.inflight.open(slot);
        shared.pq.dequeue_batch_guarded(
            shared.cfg.flush_batch,
            &mut out,
            shared.flush.inflight.guard(slot),
        );
        if out.is_empty() {
            shared.flush.inflight.clear(slot);
            if shared.flush.is_shutdown() && shared.gstore.pending_keys() == 0 {
                return;
            }
            let parked = shared.flush.park();
            shared.metrics.flusher_parked_ns.add(parked);
            continue;
        }
        // Only non-empty dequeues are recorded: thousands of idle polls
        // would swamp the trace ring. Flushers do not track the trainer
        // step; they book to the ledger's cursor.
        let deq_ns = t_deq.elapsed().as_nanos() as u64;
        shared.metrics.flush_dequeue_ns.add(deq_ns);
        rec.record(
            rec.current_step(),
            LedgerPhase::FlushDequeue,
            t_deq,
            deq_ns,
            &[("batch", out.len() as u64)],
        );
        // Claim phase, timed apart from the apply: the shard grouping and
        // the g-entry extraction contend with registering trainers on the
        // shard locks, so folding them into the apply window made
        // `flush_apply_ns_row` look like the kernels slowed down at 8
        // trainers when it was really lock/queue bookkeeping.
        let t_claim = Instant::now();
        GEntryStore::group_by_shard(out.iter().copied(), |&(key, _)| key, &mut grouped);
        claims.clear();
        shared
            .gstore
            .take_writes_batch(&grouped, &mut writes, &mut claims);
        let claim_ns = t_claim.elapsed().as_nanos() as u64;
        shared.metrics.flush_claim_ns.add(claim_ns);
        rec.record(
            rec.current_step(),
            LedgerPhase::FlushClaim,
            t_claim,
            claim_ns,
            &[("claimed", claims.len() as u64)],
        );
        // Pure apply: optimizer step + host-store write, in claim order.
        let t_apply = Instant::now();
        let applied =
            frugal_embed::apply_claims(shared.store, shared.rule.as_ref(), &claims, &writes);
        // Let go of the applied rows now, not at the next batch (which may
        // be a park away): the owner's next reduce overwrites in place
        // every row it finds unshared (`ArcFold`).
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
