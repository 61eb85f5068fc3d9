//! A spin-then-yield-then-park step barrier.
//!
//! The step protocol crosses a barrier twice per step, so at 8–16 trainers
//! the barrier itself is hot-path state. The ledger's phase attribution at
//! 8 trainers put `std::sync::Barrier` — a mutex + condvar pair — at the
//! top of the BarrierA lane: every crossing serializes all trainers through
//! one futex, and the wake-up convoy (kernel wakes waiters one by one, each
//! re-acquiring the mutex) grows linearly with the trainer count.
//!
//! [`SpinBarrier`] replaces it with two atomics and no locks on the fast
//! path: arrivals `fetch_add` a counter; the last arriver resets the
//! counter and bumps a generation word, releasing the whole cohort with a
//! single store that every spinner observes in parallel. A waiter spends
//! its [`SpinBudget`] on `spin_loop` hints, then a handful of `yield_now`
//! calls, then *parks* on a mutex + condvar slow path; the releaser touches
//! the condvar only when someone actually sleeps.
//!
//! # How long to spin
//!
//! Parking is what an oversubscribed host needs (more engine threads than
//! cores — the CI runner, or 16 trainers on an 8-core commodity box): seven
//! trainers cycling through `yield_now` against one preempted straggler
//! turn the run queue into a yield storm that starves the very thread
//! everyone is waiting for, so there a waiter concedes after
//! [`SPIN_PAUSES`] + [`YIELD_BUDGET`] (≈ 25 µs) and sleeps.
//!
//! It is the wrong trade when the cohort owns its cores. Measured on the
//! benchmark's `sync` workload (two trainers on two cores, nothing else
//! runnable, three crossings a step at the time): the crossings cost a mean
//! of 17–21, 14–17 and 10–13 µs a step at medians of 10, 9 and 4.5 µs, but
//! with a p99 of 146–167 µs and maxima of 1–3 ms at barrier A. The arrival
//! spread of a ≈ 500 µs step is routinely wider than 25 µs, so the early
//! trainer parked in most steps, and the tail is the futex wake-up of a
//! halted vCPU — paid although no other thread could have used the core.
//! [`SpinBudget::derive`] therefore compares the engine's thread count with
//! the host's cores: a cohort that fits spins for [`SPIN_FOR`], long enough
//! to cover a step's whole arrival spread, and still falls through to the
//! yield/park path behind a wedged or descheduled sibling.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// `spin_loop` iterations an oversubscribed cohort's waiter spends before
/// conceding the core. Long enough to cover the same-quantum arrival spread
/// of a healthy cohort, short enough that a preempted straggler costs
/// yields, not ms.
const SPIN_PAUSES: u32 = 64;

/// How long a waiter spins when every engine thread has a core of its own:
/// several step periods, so only a sibling that lost its core (or died) is
/// ever waited for asleep.
const SPIN_FOR: Duration = Duration::from_micros(1500);

/// A timed spin reads the clock once per this many `spin_loop` iterations.
const CLOCK_STRIDE: u32 = 32;

/// How many `yield_now` calls to attempt after the spin budget before
/// parking on the condvar. A couple of reschedules is enough to let a
/// same-core straggler run; beyond that, yielding just churns the
/// scheduler while the straggler is doing real (multi-ms) work.
const YIELD_BUDGET: u32 = 16;

/// What a waiter may spend spinning before it yields and parks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinBudget {
    /// This many `spin_loop` iterations.
    Pauses(u32),
    /// `spin_loop` iterations until this much time has passed.
    For(Duration),
}

impl SpinBudget {
    /// The budget for an engine of `engine_threads` runnable threads
    /// (members, plus flushers under the proactive modes) on a host with
    /// `cores`: see the module docs.
    pub fn derive(engine_threads: usize, cores: usize) -> Self {
        if engine_threads <= cores {
            SpinBudget::For(SPIN_FOR)
        } else {
            SpinBudget::Pauses(SPIN_PAUSES)
        }
    }
}

/// Result of one barrier crossing; mirrors `std::sync::BarrierWaitResult`
/// so call sites read identically.
pub struct WaitOutcome {
    leader: bool,
}

impl WaitOutcome {
    /// True for exactly one thread per crossing — the step leader that
    /// merges aggregates / composes phases / runs bookkeeping.
    pub fn is_leader(&self) -> bool {
        self.leader
    }
}

/// A reusable step barrier for `n` threads (see module docs).
#[derive(Debug)]
pub struct SpinBarrier {
    /// Threads that have arrived at the current crossing.
    arrived: AtomicUsize,
    /// Completed crossings. Bumped by the releasing thread; spinners wait
    /// for it to move past the value they read on arrival.
    generation: AtomicU64,
    /// Threads currently parked (or committing to park) on `cv`.
    sleepers: AtomicUsize,
    /// Park slow path. The mutex guards nothing but the condvar protocol;
    /// the barrier state itself stays in the atomics above.
    park: Mutex<()>,
    cv: Condvar,
    n: usize,
    spin: SpinBudget,
}

impl SpinBarrier {
    /// A barrier releasing cohorts of `n` threads (`n >= 1`) that belong
    /// to an engine of `engine_threads` threads; the spin budget follows
    /// from whether those fit the host's cores ([`SpinBudget::derive`]).
    pub fn new(n: usize, engine_threads: usize) -> Self {
        // An unknown core count reads as one core: park early.
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        Self::with_budget(n, SpinBudget::derive(engine_threads, cores))
    }

    /// A barrier releasing cohorts of `n` threads (`n >= 1`) whose waiters
    /// spin for `spin`, whatever the host.
    fn with_budget(n: usize, spin: SpinBudget) -> Self {
        assert!(n >= 1, "barrier needs at least one thread");
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            park: Mutex::new(()),
            cv: Condvar::new(),
            n,
            spin,
        }
    }

    /// Blocks until all `n` threads have called `wait`; the last arriver
    /// is the leader and releases the cohort.
    pub fn wait(&self) -> WaitOutcome {
        self.wait_then(|| {})
    }

    /// [`Self::wait`], running `about_to_wait` in every arriver that will
    /// wait for a sibling — all but the leader — right after it is counted
    /// and before it spins. The engine wakes the flushers from here, so
    /// the kernel hands them the core a waiter is about to give up rather
    /// than one a sibling is still working on.
    pub(crate) fn wait_then(&self, about_to_wait: impl FnOnce()) -> WaitOutcome {
        // The generation read must precede the arrival increment: once we
        // are counted, the leader may release (and start the next
        // crossing) at any moment, and we must be comparing against the
        // generation of *our* crossing, not the next one.
        let gen = self.generation.load(Ordering::Acquire);
        let prior = self.arrived.fetch_add(1, Ordering::AcqRel);
        if prior + 1 == self.n {
            // Last arriver: reset for the next crossing, then release.
            // The reset must happen before the generation store — the
            // Release/Acquire pair on `generation` is what makes the
            // reset visible to the cohort before anyone re-arrives.
            self.arrived.store(0, Ordering::Relaxed);
            // SeqCst pairs with the SeqCst sleepers increment in the
            // waiter: either the waiter's increment is ordered before this
            // store (then we observe sleepers > 0 below and notify), or it
            // is ordered after (then the waiter's generation re-check
            // under the mutex sees the new value and it never sleeps).
            self.generation.store(gen + 1, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                // Taking the mutex orders the notify after any waiter that
                // is past its re-check but not yet inside `cv.wait`.
                drop(self.park.lock().unwrap());
                self.cv.notify_all();
            }
            return WaitOutcome { leader: true };
        }
        about_to_wait();
        let mut spins = 0u32;
        let mut yields = 0u32;
        // A timed budget's end, fixed at the first clock read.
        let mut spin_until = None;
        while self.generation.load(Ordering::Acquire) == gen {
            let spin = yields == 0
                && match self.spin {
                    SpinBudget::Pauses(n) => spins < n,
                    SpinBudget::For(d) => {
                        !spins.is_multiple_of(CLOCK_STRIDE) || {
                            let now = Instant::now();
                            now < *spin_until.get_or_insert(now + d)
                        }
                    }
                };
            if spin {
                spins = spins.wrapping_add(1);
                std::hint::spin_loop();
            } else if yields < YIELD_BUDGET {
                yields += 1;
                std::thread::yield_now();
            } else {
                self.park_until_released(gen);
                break;
            }
        }
        WaitOutcome { leader: false }
    }

    /// Condvar slow path: sleep until the generation moves past `gen`.
    #[cold]
    fn park_until_released(&self, gen: u64) {
        let mut guard = self.park.lock().unwrap();
        // SeqCst increment pairs with the releaser's SeqCst generation
        // store + sleepers load (see `wait`); the generation re-check
        // under the mutex closes the window between our last spin and the
        // increment becoming visible.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == gen {
            guard = self.cv.wait(guard).unwrap();
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// The oversubscribed budget, forced: these tests must reach the yield
    /// and park paths on any host.
    fn parks_early(n: usize) -> SpinBarrier {
        SpinBarrier::with_budget(n, SpinBudget::Pauses(SPIN_PAUSES))
    }

    #[test]
    fn budget_follows_threads_versus_cores() {
        // Fits its cores: a timed spin. One thread too many: 64 + 16 + park.
        assert_eq!(SpinBudget::derive(2, 2), SpinBudget::For(SPIN_FOR));
        assert_eq!(SpinBudget::derive(1, 8), SpinBudget::For(SPIN_FOR));
        assert_eq!(SpinBudget::derive(3, 2), SpinBudget::Pauses(SPIN_PAUSES));
        assert_eq!(SpinBudget::derive(2, 1), SpinBudget::Pauses(SPIN_PAUSES));
        // The engine's constructor derives from this host.
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(SpinBarrier::new(2, cores).spin, SpinBudget::For(SPIN_FOR));
        assert_eq!(
            SpinBarrier::new(2, cores + 1).spin,
            SpinBudget::Pauses(SPIN_PAUSES)
        );
    }

    #[test]
    fn timed_spinner_parks_behind_a_straggler_and_is_woken() {
        // A cohort that fits its cores still must not spin forever behind a
        // sibling that lost its core: past the timed budget the waiter
        // yields, parks, and the late arrival wakes it. The straggler
        // arrives only once it has *seen* the waiter asleep.
        let barrier = Arc::new(SpinBarrier::with_budget(2, SpinBudget::For(SPIN_FOR)));
        let b2 = Arc::clone(&barrier);
        let early = std::thread::spawn(move || b2.wait().is_leader());
        let t0 = Instant::now();
        while barrier.sleepers.load(Ordering::SeqCst) == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "waiter never parked"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(barrier.wait().is_leader());
        assert!(!early.join().unwrap());
    }

    #[test]
    fn single_thread_is_always_leader() {
        let b = parks_early(1);
        for _ in 0..3 {
            assert!(b.wait().is_leader());
        }
    }

    #[test]
    fn exactly_one_leader_per_crossing() {
        let n = 8;
        let rounds = 200;
        let barrier = Arc::new(parks_early(n));
        let leaders = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let leaders = Arc::clone(&leaders);
                std::thread::spawn(move || {
                    for _ in 0..rounds {
                        if barrier.wait().is_leader() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::Relaxed), rounds);
    }

    #[test]
    fn wait_hook_runs_in_every_arriver_but_the_leader() {
        let rounds = 1_000;
        for n in 1..=3 {
            let barrier = Arc::new(parks_early(n));
            let hooks: Arc<Vec<AtomicUsize>> =
                Arc::new((0..rounds).map(|_| AtomicUsize::new(0)).collect());
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let barrier = Arc::clone(&barrier);
                    let hooks = Arc::clone(&hooks);
                    std::thread::spawn(move || {
                        for hook in hooks.iter() {
                            let mut ran = false;
                            let leader = barrier.wait_then(|| ran = true).is_leader();
                            assert!(!(leader && ran), "the hook ran in the leader");
                            if ran {
                                hook.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            for (r, hook) in hooks.iter().enumerate() {
                assert_eq!(hook.load(Ordering::Relaxed), n - 1, "n = {n}, crossing {r}");
            }
        }
    }

    #[test]
    fn no_thread_escapes_early() {
        // Each round, every thread increments a shared counter before the
        // barrier; after the crossing the counter must show the full
        // cohort. 8 threads on any host (including 1-core CI) exercises
        // the yield and park fallbacks.
        let n = 8;
        let rounds = 100;
        let barrier = Arc::new(parks_early(n));
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for r in 0..rounds {
                        counter.fetch_add(1, Ordering::AcqRel);
                        barrier.wait();
                        let seen = counter.load(Ordering::Acquire);
                        assert!(
                            seen >= (r + 1) * n,
                            "crossed with only {seen} of {} arrivals",
                            (r + 1) * n
                        );
                        barrier.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), n * rounds);
    }

    #[test]
    fn parked_waiters_are_woken() {
        // Force the park path deterministically: one thread arrives early
        // and must sleep through the straggler's multi-ms delay; the
        // crossing still completes and releases it.
        let barrier = Arc::new(parks_early(2));
        let b2 = Arc::clone(&barrier);
        let early = std::thread::spawn(move || {
            for _ in 0..20 {
                b2.wait();
            }
        });
        for _ in 0..20 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            barrier.wait();
        }
        early.join().unwrap();
    }
}
