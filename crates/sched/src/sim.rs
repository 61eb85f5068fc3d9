//! The deterministic cooperative scheduler: virtual threads, yield points,
//! and single-schedule execution.
//!
//! A *virtual thread* is a real OS thread that only runs while it holds the
//! execution token. The token moves at **yield points**: instrumented
//! shared-memory transitions inside the code under test (see
//! [`yield_point`]) plus the implicit yields at thread start and exit. The
//! controlling thread hands the token to one runnable thread at a time, in
//! an order fully determined by the seed, so one seed ⇒ one interleaving.
//!
//! Because at most one virtual thread executes between yield points, the
//! harness serializes the execution it explores — data races are exhibited
//! as *orderings* of the instrumented transitions rather than as physical
//! simultaneity. That is exactly the granularity at which the P²F
//! structures' invariants live (every cross-thread protocol step in
//! `LockFreeSet` / `TwoLevelPq` / the wait condition carries a hook).

use crate::rng::SplitMix64;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};

/// One executed yield point of a run: which virtual thread passed which
/// instrumentation label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Index of the virtual thread (registration order).
    pub thread: usize,
    /// Name given to [`SimBuilder::thread`].
    pub thread_name: &'static str,
    /// The yield point's label.
    pub label: &'static str,
}

/// A panic captured from a virtual thread or a quiescent check.
#[derive(Debug, Clone)]
pub struct ThreadFailure {
    /// The virtual thread's (or check's) name.
    pub thread_name: &'static str,
    /// The panic payload rendered as text.
    pub message: String,
}

/// Everything observed while executing one schedule.
#[derive(Debug)]
pub struct RunOutcome {
    /// The seed that produced this schedule.
    pub seed: u64,
    /// Number of yield points executed.
    pub steps: u64,
    /// The interleaving, one event per yield point.
    pub trace: Vec<TraceEvent>,
    /// Panics from virtual threads and quiescent checks, in detection order.
    pub failures: Vec<ThreadFailure>,
    /// True if the run hit [`SimConfig::max_steps`] and was aborted into
    /// free-running mode (treated as a livelock, not a violation).
    pub budget_exceeded: bool,
}

impl RunOutcome {
    /// True if any virtual thread or check panicked.
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Renders the interleaving as one line per yield point.
    pub fn format_trace(&self) -> String {
        let mut s = String::new();
        for (i, ev) in self.trace.iter().enumerate() {
            s.push_str(&format!(
                "  #{i:<4} {:<12} @ {}\n",
                ev.thread_name, ev.label
            ));
        }
        s
    }
}

/// Scheduling policy for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Uniform random choice among runnable threads at every yield point.
    Random,
    /// PCT-style priority scheduling (Burckhardt et al.): threads get
    /// distinct random priorities; the highest-priority runnable thread
    /// always runs; at `depth - 1` seed-chosen step indices the running
    /// thread's priority drops below all others. Finds any bug of ordering
    /// depth ≤ `depth` with probability ≥ 1/(n·k^(depth-1)) per schedule,
    /// where `n` is the thread count and `k` the program length.
    Pct {
        /// Bug depth to target (number of ordering constraints + 1).
        depth: usize,
        /// Estimate of the scenario's yield-point count `k`; priority
        /// change points are sampled uniformly from `0..steps`. Over- or
        /// under-estimating degrades the detection probability but never
        /// correctness or determinism.
        steps: u64,
    },
}

/// Per-run limits and policy.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Yield-point budget: a schedule still alive after this many yields is
    /// aborted (free-run to completion) and reported as budget-exceeded.
    pub max_steps: u64,
    /// Scheduling policy.
    pub policy: Policy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_steps: 20_000,
            policy: Policy::Random,
        }
    }
}

type ThreadBody = Box<dyn FnOnce() + Send>;
type CheckBody = Box<dyn FnOnce()>;

/// Registers the virtual threads and quiescent checks of one scenario run.
///
/// Scenario state is shared between closures with `Arc`s; every run builds
/// a fresh scenario, so runs are independent.
#[derive(Default)]
pub struct SimBuilder {
    threads: Vec<(&'static str, ThreadBody)>,
    checks: Vec<(&'static str, CheckBody)>,
}

impl std::fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("threads", &self.threads.len())
            .field("checks", &self.checks.len())
            .finish()
    }
}

impl SimBuilder {
    /// Adds a virtual thread running `body` under the scheduler.
    pub fn thread(&mut self, name: &'static str, body: impl FnOnce() + Send + 'static) {
        self.threads.push((name, Box::new(body)));
    }

    /// Adds a check executed on the controller thread after every virtual
    /// thread has finished (quiescence). Panics are recorded as failures of
    /// the run, exactly like virtual-thread panics.
    pub fn check(&mut self, name: &'static str, check: impl FnOnce() + 'static) {
        self.checks.push((name, Box::new(check)));
    }
}

// ---------------------------------------------------------------------------
// Shared scheduler state.

struct SimState {
    /// Which virtual thread holds the execution token (`None`: controller).
    current: Option<usize>,
    alive: Vec<bool>,
    steps: u64,
    trace: Vec<TraceEvent>,
    failures: Vec<ThreadFailure>,
    /// When set, yield points stop blocking and all threads run freely to
    /// completion (budget exhaustion or early-stop teardown).
    free_run: bool,
    /// The thread that ceded the token at a [`spin_point`], until the
    /// controller has told the policy about it.
    spinner: Option<usize>,
}

struct SimShared {
    state: Mutex<SimState>,
    cv: Condvar,
    names: Vec<&'static str>,
}

impl SimShared {
    fn lock(&self) -> MutexGuard<'_, SimState> {
        // A virtual thread can only panic *outside* this lock (user code
        // runs between yield points), but be robust anyway.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Handle a virtual thread keeps in TLS while it participates in a run.
#[derive(Clone)]
struct VthreadHandle {
    id: usize,
    shared: Arc<SimShared>,
}

thread_local! {
    static CURRENT_VTHREAD: RefCell<Option<VthreadHandle>> = const { RefCell::new(None) };
}

/// Panic payload used to unwind a virtual thread during teardown (budget
/// exhausted, or another thread already failed). Never recorded as a
/// failure. Unwinding is the only way to stop a thread that free-runs
/// through an instrumented loop.
struct BudgetAbort;

/// Installed once per process: silences the default "thread panicked"
/// stderr report for panics raised *inside a virtual thread* — the harness
/// captures and reports those itself — and delegates everything else to
/// the pre-existing hook. Installing once and never removing keeps this
/// safe under parallel test execution.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_vthread = CURRENT_VTHREAD
                .try_with(|c| c.borrow().is_some())
                .unwrap_or(false);
            if !in_vthread {
                prev(info);
            }
        }));
    });
}

/// The instrumentation hook: cedes control to the scheduler when called
/// from a virtual thread, and is a cheap no-op (one TLS load) otherwise.
///
/// Instrumented crates call this behind their `sched` feature at every
/// shared-memory transition that participates in a cross-thread protocol;
/// `label` names the transition in traces.
pub fn yield_point(label: &'static str) {
    let handle = CURRENT_VTHREAD.with(|c| c.borrow().clone());
    if let Some(h) = handle {
        h.yield_at(label, false);
    }
}

/// A [`yield_point`] on the back-edge of a spin-wait: the caller cannot make
/// progress until some *other* thread does.
///
/// The random walk treats it as any other yield point. PCT demotes the
/// caller below every other thread (the usual treatment of yields in
/// priority-based schedulers): otherwise a top-priority spinner runs alone
/// until a change point happens to land on it, and most schedules that reach
/// the wait burn their step budget there instead of exploring what follows.
pub fn spin_point(label: &'static str) {
    let handle = CURRENT_VTHREAD.with(|c| c.borrow().clone());
    if let Some(h) = handle {
        h.yield_at(label, true);
    }
}

impl VthreadHandle {
    fn yield_at(&self, label: &'static str, spinning: bool) {
        let mut st = self.shared.lock();
        if st.free_run {
            drop(st);
            std::panic::panic_any(BudgetAbort);
        }
        st.steps += 1;
        if spinning {
            st.spinner = Some(self.id);
        }
        st.trace.push(TraceEvent {
            thread: self.id,
            thread_name: self.shared.names[self.id],
            label,
        });
        st.current = None;
        self.shared.cv.notify_all();
        while st.current != Some(self.id) {
            if st.free_run {
                drop(st);
                std::panic::panic_any(BudgetAbort);
            }
            st = self.shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks until the scheduler grants the first step. Returns false if
    /// the run was torn down before this thread ever ran.
    fn wait_first_grant(&self) -> bool {
        let mut st = self.shared.lock();
        loop {
            if st.current == Some(self.id) {
                return true;
            }
            if st.free_run {
                return false;
            }
            st = self.shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn finish(&self, panic: Option<String>) {
        let mut st = self.shared.lock();
        st.alive[self.id] = false;
        if let Some(message) = panic {
            st.failures.push(ThreadFailure {
                thread_name: self.shared.names[self.id],
                message,
            });
        }
        if st.current == Some(self.id) {
            st.current = None;
        }
        self.shared.cv.notify_all();
    }
}

fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Policies.

/// Initial PCT priorities start here; demotions count down from it. Far
/// above any step budget, so spin demotions never run out of room.
const PCT_PRIORITY_FLOOR: u64 = 1 << 32;

enum PolicyState {
    Random,
    Pct {
        /// Current priority per thread; higher runs first.
        prio: Vec<u64>,
        /// Step indices (sorted descending) at which the running thread's
        /// priority is demoted below all others.
        change_points: Vec<u64>,
        /// Counter handing out ever-lower priorities on demotion.
        next_low: u64,
    },
}

impl PolicyState {
    fn new(policy: Policy, n_threads: usize, rng: &mut SplitMix64) -> Self {
        match policy {
            Policy::Random => PolicyState::Random,
            Policy::Pct { depth, steps } => {
                // Distinct random priorities via a seeded shuffle of
                // FLOOR..FLOOR + n, leaving everything below for demotions.
                let mut prio: Vec<u64> = (0..n_threads as u64)
                    .map(|i| PCT_PRIORITY_FLOOR + i)
                    .collect();
                for i in (1..prio.len()).rev() {
                    prio.swap(i, rng.next_below(i + 1));
                }
                let mut change_points: Vec<u64> = (0..depth.saturating_sub(1))
                    .map(|_| rng.next_u64() % steps.max(1))
                    .collect();
                change_points.sort_unstable_by(|a, b| b.cmp(a));
                PolicyState::Pct {
                    prio,
                    change_points,
                    next_low: PCT_PRIORITY_FLOOR,
                }
            }
        }
    }

    /// Thread `t` yielded at a [`spin_point`]: under PCT it drops strictly
    /// below every priority handed out so far.
    fn note_spin(&mut self, t: usize) {
        if let PolicyState::Pct { prio, next_low, .. } = self {
            *next_low = next_low.saturating_sub(1);
            prio[t] = *next_low;
        }
    }

    fn pick(&mut self, runnable: &[usize], step: u64, rng: &mut SplitMix64) -> usize {
        match self {
            PolicyState::Random => runnable[rng.next_below(runnable.len())],
            PolicyState::Pct {
                prio,
                change_points,
                next_low,
            } => {
                let pick = *runnable
                    .iter()
                    .max_by_key(|&&t| prio[t])
                    .expect("runnable is non-empty");
                // (while, not if: duplicate sampled change points collapse
                // into one demotion at this step.)
                while change_points.last() == Some(&step) {
                    change_points.pop();
                    // Demote the thread that would run, strictly below
                    // every priority handed out so far.
                    *next_low = next_low.saturating_sub(1);
                    prio[pick] = *next_low;
                }
                pick
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Single-schedule execution.

/// Executes one schedule of the scenario built by `build`, fully determined
/// by `seed`. See [`crate::explore()`] for driving many seeds.
pub fn run_schedule(seed: u64, cfg: &SimConfig, build: impl FnOnce(&mut SimBuilder)) -> RunOutcome {
    let mut builder = SimBuilder::default();
    build(&mut builder);
    let n = builder.threads.len();
    assert!(n > 0, "a scenario needs at least one virtual thread");
    install_quiet_panic_hook();

    let names: Vec<&'static str> = builder.threads.iter().map(|(n, _)| *n).collect();
    let shared = Arc::new(SimShared {
        state: Mutex::new(SimState {
            current: None,
            alive: vec![true; n],
            steps: 0,
            trace: Vec::new(),
            failures: Vec::new(),
            free_run: false,
            spinner: None,
        }),
        cv: Condvar::new(),
        names,
    });

    let mut rng = SplitMix64::new(seed ^ 0xD1B5_4A32_D192_ED03);
    let mut policy = PolicyState::new(cfg.policy, n, &mut rng);

    let joins: Vec<_> = builder
        .threads
        .into_iter()
        .enumerate()
        .map(|(id, (_, body))| {
            let handle = VthreadHandle {
                id,
                shared: Arc::clone(&shared),
            };
            std::thread::spawn(move || {
                CURRENT_VTHREAD.with(|c| *c.borrow_mut() = Some(handle.clone()));
                let panic = if handle.wait_first_grant() {
                    match catch_unwind(AssertUnwindSafe(body)) {
                        Ok(()) => None,
                        // Teardown unwind, not a violation.
                        Err(p) if p.is::<BudgetAbort>() => None,
                        Err(p) => Some(payload_to_string(p)),
                    }
                } else {
                    None
                };
                CURRENT_VTHREAD.with(|c| *c.borrow_mut() = None);
                handle.finish(panic);
            })
        })
        .collect();

    let mut budget_exceeded = false;
    {
        let mut st = shared.lock();
        loop {
            while st.current.is_some() {
                st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            // Stop scheduling as soon as a thread failed: remaining threads
            // free-run to completion so the run can be torn down.
            if !st.failures.is_empty() || st.steps >= cfg.max_steps {
                budget_exceeded = st.failures.is_empty();
                st.free_run = true;
                shared.cv.notify_all();
                break;
            }
            if let Some(t) = st.spinner.take() {
                policy.note_spin(t);
            }
            let runnable: Vec<usize> = (0..n).filter(|&t| st.alive[t]).collect();
            if runnable.is_empty() {
                break;
            }
            let pick = policy.pick(&runnable, st.steps, &mut rng);
            st.current = Some(pick);
            shared.cv.notify_all();
        }
    }
    for j in joins {
        let _ = j.join();
    }

    // Quiescence: run the checks on this thread, recording panics.
    let mut st = shared.lock();
    let mut failures = std::mem::take(&mut st.failures);
    let steps = st.steps;
    let trace = std::mem::take(&mut st.trace);
    drop(st);
    if failures.is_empty() && !budget_exceeded {
        for (name, check) in builder.checks {
            if let Err(p) = catch_unwind(AssertUnwindSafe(check)) {
                failures.push(ThreadFailure {
                    thread_name: name,
                    message: payload_to_string(p),
                });
                break;
            }
        }
    }

    RunOutcome {
        seed,
        steps,
        trace,
        failures,
        budget_exceeded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn two_step_scenario(log: &Arc<Mutex<Vec<&'static str>>>, sim: &mut SimBuilder) {
        for name in ["t0", "t1"] {
            let log = Arc::clone(log);
            sim.thread(name, move || {
                log.lock().unwrap().push(name);
                yield_point("mid");
                log.lock().unwrap().push(name);
            });
        }
    }

    #[test]
    fn same_seed_same_trace() {
        for seed in 0..32 {
            let log_a = Arc::new(Mutex::new(Vec::new()));
            let a = run_schedule(seed, &SimConfig::default(), |sim| {
                two_step_scenario(&log_a, sim)
            });
            let log_b = Arc::new(Mutex::new(Vec::new()));
            let b = run_schedule(seed, &SimConfig::default(), |sim| {
                two_step_scenario(&log_b, sim)
            });
            assert_eq!(a.trace, b.trace, "seed {seed}");
            assert_eq!(*log_a.lock().unwrap(), *log_b.lock().unwrap());
        }
    }

    #[test]
    fn different_seeds_reach_different_interleavings() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64 {
            let log = Arc::new(Mutex::new(Vec::new()));
            run_schedule(seed, &SimConfig::default(), |sim| {
                two_step_scenario(&log, sim)
            });
            seen.insert(log.lock().unwrap().clone());
        }
        // 2 threads × 1 yield each: several distinct interleavings exist
        // and random exploration must reach more than one.
        assert!(seen.len() > 1, "exploration stuck on one interleaving");
    }

    #[test]
    fn virtual_thread_panic_is_captured() {
        let out = run_schedule(0, &SimConfig::default(), |sim| {
            sim.thread("bad", || panic!("boom {}", 42));
            sim.thread("good", || yield_point("ok"));
        });
        assert!(out.failed());
        assert_eq!(out.failures[0].thread_name, "bad");
        assert!(out.failures[0].message.contains("boom 42"));
    }

    #[test]
    fn quiescent_check_runs_after_threads() {
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        let c2 = Arc::clone(&counter);
        let out = run_schedule(1, &SimConfig::default(), move |sim| {
            let c = Arc::clone(&c);
            sim.thread("inc", move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
            let c = Arc::clone(&c2);
            sim.check("saw increment", move || {
                assert_eq!(c.load(Ordering::SeqCst), 1);
            });
        });
        assert!(!out.failed(), "{:?}", out.failures);
    }

    #[test]
    fn budget_exhaustion_aborts_cleanly() {
        let out = run_schedule(
            3,
            &SimConfig {
                max_steps: 50,
                policy: Policy::Random,
            },
            |sim| {
                sim.thread("spinner", || loop {
                    yield_point("spin");
                });
            },
        );
        assert!(out.budget_exceeded);
        assert!(!out.failed());
    }

    #[test]
    fn pct_policy_is_deterministic() {
        let cfg = SimConfig {
            max_steps: 1_000,
            policy: Policy::Pct { depth: 3, steps: 8 },
        };
        let log_a = Arc::new(Mutex::new(Vec::new()));
        let a = run_schedule(9, &cfg, |sim| two_step_scenario(&log_a, sim));
        let log_b = Arc::new(Mutex::new(Vec::new()));
        let b = run_schedule(9, &cfg, |sim| two_step_scenario(&log_b, sim));
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn pct_spinner_steps_aside_for_the_thread_it_waits_on() {
        // Whatever priorities the seed deals, a thread spinning at a
        // `spin_point` must not starve the one that releases it.
        let cfg = SimConfig {
            max_steps: 64,
            policy: Policy::Pct { depth: 1, steps: 8 },
        };
        for seed in 0..32 {
            let flag = Arc::new(AtomicU64::new(0));
            let out = run_schedule(seed, &cfg, |sim| {
                let f = Arc::clone(&flag);
                sim.thread("waiter", move || {
                    while f.load(Ordering::SeqCst) == 0 {
                        spin_point("wait");
                    }
                });
                let f = Arc::clone(&flag);
                sim.thread("setter", move || {
                    yield_point("before set");
                    f.store(1, Ordering::SeqCst);
                });
            });
            assert!(!out.budget_exceeded, "seed {seed} livelocked");
            assert!(out.steps <= 6, "seed {seed}: {} steps", out.steps);
        }
    }

    #[test]
    fn trace_formats_with_labels() {
        let out = run_schedule(0, &SimConfig::default(), |sim| {
            sim.thread("only", || yield_point("landmark"));
        });
        let s = out.format_trace();
        assert!(s.contains("only") && s.contains("landmark"));
    }

    #[test]
    fn yield_point_outside_simulation_is_noop() {
        yield_point("not in a run"); // must not block or panic
    }
}
