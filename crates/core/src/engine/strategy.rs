//! The flush-strategy table: how a run moves pending updates to host
//! memory, one row of constants per [`FlushMode`].
//!
//! The paper's central claim (§3.3, and the Exp ablations) is that
//! *priority-based* proactive flushing — not proactive flushing per se —
//! is what keeps the wait condition cheap. The three modes run the same
//! engine and differ only in these decisions:
//!
//! | decision                    | `P2f`                  | `WriteThrough`      | `Fifo`                |
//! |-----------------------------|------------------------|---------------------|-----------------------|
//! | background flushers         | yes                    | no                  | yes                   |
//! | lookahead read registration | yes                    | no                  | no                    |
//! | enqueue priority            | earliest future read   | —                   | write step            |
//! | step `s` waits while        | pending floor ≤ `s`    | never               | pending floor ≤ `s−1` |
//! | sharded synchronous apply   | —                      | owner's update slot | —                     |
//! | modeled stall rows          | written now, read next | all rows (sync)     | all written rows      |
//!
//! (Background flushers are [`FlushMode::proactive`]; the synchronous
//! apply and the stall pricing are one `match` each, in the trainer loop
//! and, after the run, in [`crate::price::price_run`].)
//!
//! All three preserve synchronous consistency (bit-equality with the
//! serial oracle): write-through flushes everything inside the barrier,
//! P²F guarantees every row read at step `s` is flushed before `s` starts
//! (Equation 1 priorities + the strict `PQ.top() > s` wait), and FIFO
//! guarantees the superset — *every* write from steps `< s` is flushed
//! before `s` starts, because priorities are write steps and the wait
//! threshold is `s − 1`. What FIFO gives up is selectivity: cold rows
//! nobody is about to read gate the next step anyway, which is exactly
//! the stall the priority ablation shows.

use crate::config::FlushMode;
use crate::gentry::PriorityPolicy;

/// One flush mode's constants, consulted by the engine at the step
/// barriers. See the module docs for the per-mode contract table.
#[derive(Debug)]
pub(crate) struct Strategy {
    /// True when the sample-queue prefetch registers lookahead reads.
    /// Only P²F needs them: its priorities are read-driven. FIFO priorities
    /// are write steps, so reads would be dead weight on the hot path.
    pub(crate) registers_reads: bool,
    /// How the g-entry store derives queue priorities from R/W sets.
    pub(crate) priority_policy: PriorityPolicy,
    /// Step `s` blocks while any pending flush (queued or in flight) has
    /// priority ≤ `s − wait_lag`; `None` never waits.
    wait_lag: Option<u64>,
}

/// The table, in [`FlushMode`] declaration order.
const TABLE: [Strategy; 3] = [
    // P2f — §3.3: start step s only when PQ.top() > s (strictly).
    Strategy {
        registers_reads: true,
        priority_policy: PriorityPolicy::EarliestRead,
        wait_lag: Some(0),
    },
    // WriteThrough — nothing is ever registered, so the policy is unused.
    Strategy {
        registers_reads: false,
        priority_policy: PriorityPolicy::EarliestRead,
        wait_lag: None,
    },
    // Fifo — priorities are write steps: step s is safe once every write
    // from steps < s has been flushed.
    Strategy {
        registers_reads: false,
        priority_policy: PriorityPolicy::ArrivalOrder,
        wait_lag: Some(1),
    },
];

impl Strategy {
    /// The table row of `mode`.
    pub(crate) fn of(mode: FlushMode) -> &'static Strategy {
        &TABLE[mode as usize]
    }

    /// The wait-condition threshold for step `s`: block while any pending
    /// flush has priority ≤ the threshold. `None` means step `s` never
    /// waits (write-through always; FIFO at step 0, which nothing
    /// precedes).
    pub(crate) fn wait_threshold(&self, s: u64) -> Option<u64> {
        self.wait_lag.and_then(|lag| s.checked_sub(lag))
    }

    /// The queue's initial scan upper bound (largest finite priority that
    /// can exist before step 0 completes), if the mode queues anything:
    /// under P²F the prefetched reads of steps `0..L` plus step-0 writes
    /// read at ≤ `L + 1` by the time the bound next rises, under FIFO
    /// step-0 writes alone.
    pub(crate) fn initial_upper_bound(&self, lookahead: u64) -> Option<u64> {
        self.wait_lag.map(|_| {
            if self.registers_reads {
                lookahead + 1
            } else {
                0
            }
        })
    }

    /// The scan upper bound to publish after step `s`'s registration, if
    /// any (scan-range compression, §3.4): read-driven priorities reach the
    /// prefetch horizon, write-step priorities never exceed the next step.
    ///
    /// A raised bound never unblocks a parked flusher: step `s` registers
    /// finite priorities of at most `s + L` under P²F and exactly `s` under
    /// FIFO, and the bound published after step `s − 1` already covers
    /// them, so the raise makes no queued entry visible.
    pub(crate) fn upper_bound_after(&self, s: u64, lookahead: u64) -> Option<u64> {
        let ahead = if self.registers_reads { lookahead } else { 0 };
        self.wait_lag.map(|_| s + 1 + ahead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2f_contract() {
        let s = Strategy::of(FlushMode::P2f);
        assert!(s.registers_reads);
        assert_eq!(s.priority_policy, PriorityPolicy::EarliestRead);
        assert_eq!(s.wait_threshold(0), Some(0));
        assert_eq!(s.wait_threshold(7), Some(7));
        assert_eq!(s.initial_upper_bound(10), Some(11));
        assert_eq!(s.upper_bound_after(4, 10), Some(15));
    }

    #[test]
    fn write_through_contract() {
        let s = Strategy::of(FlushMode::WriteThrough);
        assert!(!s.registers_reads);
        assert_eq!(s.wait_threshold(5), None, "never waits");
        assert_eq!(s.initial_upper_bound(10), None);
        assert_eq!(s.upper_bound_after(5, 10), None);
    }

    #[test]
    fn fifo_contract() {
        let s = Strategy::of(FlushMode::Fifo);
        assert!(!s.registers_reads);
        assert_eq!(s.priority_policy, PriorityPolicy::ArrivalOrder);
        assert_eq!(s.wait_threshold(0), None, "nothing precedes step 0");
        assert_eq!(s.wait_threshold(5), Some(4), "all writes < 5 must land");
        assert_eq!(s.initial_upper_bound(10), Some(0));
        assert_eq!(s.upper_bound_after(4, 10), Some(5));
    }
}
