//! Engine-owned in-flight retry state.
//!
//! Before the predictor API was split into read and write paths, every
//! predictor kept its own map from task sequence to the allocation of the
//! most recent attempt, so that a retry could escalate from it. Sizey's map
//! evicted entries only on *success*: a task that exhausted its attempt
//! budget leaked one entry forever — unbounded memory for any long-running
//! service. The fix is structural, not local: per-attempt retry state now
//! lives in exactly one place, this ledger, owned by the replay engine,
//! with an explicit lifecycle that evicts on success **and** on terminal
//! failure. Predictors receive the retry baseline through
//! [`AttemptContext`](crate::predictor::AttemptContext) and cannot leak it.
//!
//! The sequential [`replay_workflow`](crate::replay::replay_workflow) loop
//! does not even need the ledger — its retry baseline is a stack local that
//! dies with the per-instance loop. The multi-tenant event loop (behind
//! [`schedule_workflows`](crate::scheduler::schedule_workflows) and
//! [`schedule_workflows_streaming`](crate::scheduler::schedule_workflows_streaming))
//! interleaves attempts of many tasks, so it keys the ledger by (tenant,
//! instance); a debug assertion at the end of every run and the
//! property/regression suites check that it drains to empty, even when every
//! task terminally fails.

use std::collections::HashMap;

/// The replay engine's map from in-flight task to the allocation its most
/// recent failed attempt ran with.
///
/// Entries exist only while a task is *between* a failed attempt and its
/// retry; they are evicted when the task succeeds or exhausts its attempt
/// budget, so `len()` is bounded by the number of tasks currently awaiting
/// a retry — never by the total number of tasks replayed.
#[derive(Debug, Clone, Default)]
pub struct RetryLedger<K: std::hash::Hash + Eq + Copy> {
    last_allocation: HashMap<K, f64>,
    peak_entries: usize,
}

impl<K: std::hash::Hash + Eq + Copy> RetryLedger<K> {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        RetryLedger {
            last_allocation: HashMap::new(),
            peak_entries: 0,
        }
    }

    /// Records that task `key`'s most recent attempt failed after running
    /// with `allocation_bytes`; the next retry escalates from this value.
    pub fn record_failure(&mut self, key: K, allocation_bytes: f64) {
        self.last_allocation.insert(key, allocation_bytes);
        self.peak_entries = self.peak_entries.max(self.last_allocation.len());
    }

    /// The allocation of `key`'s most recent failed attempt, if a retry is
    /// pending.
    pub fn last_allocation(&self, key: K) -> Option<f64> {
        self.last_allocation.get(&key).copied()
    }

    /// Evicts `key` because its task reached a terminal state — success
    /// **or** an exhausted attempt budget. Idempotent: evicting a task that
    /// never failed (or was already evicted) is a no-op.
    pub fn finish(&mut self, key: K) {
        self.last_allocation.remove(&key);
    }

    /// Number of tasks currently awaiting a retry.
    pub fn len(&self) -> usize {
        self.last_allocation.len()
    }

    /// True when no task is awaiting a retry.
    pub fn is_empty(&self) -> bool {
        self.last_allocation.is_empty()
    }

    /// High-water mark of simultaneously tracked retries.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_then_success_round_trip() {
        let mut ledger: RetryLedger<u64> = RetryLedger::new();
        assert!(ledger.is_empty());
        ledger.record_failure(7, 4e9);
        assert_eq!(ledger.last_allocation(7), Some(4e9));
        ledger.record_failure(7, 8e9);
        assert_eq!(ledger.last_allocation(7), Some(8e9));
        assert_eq!(ledger.len(), 1);
        ledger.finish(7);
        assert!(ledger.is_empty());
        assert_eq!(ledger.last_allocation(7), None);
    }

    /// Regression for the pre-split leak: eviction must happen on *terminal
    /// failure* too, not only on success. A ledger driven through many tasks
    /// that all exhaust their attempt budgets ends empty.
    #[test]
    fn terminally_failed_tasks_are_evicted() {
        let mut ledger: RetryLedger<u64> = RetryLedger::new();
        for task in 0..1000u64 {
            for attempt in 1..=3u32 {
                ledger.record_failure(task, attempt as f64 * 1e9);
            }
            // Attempt budget exhausted: the task will never succeed, and the
            // engine retires it.
            ledger.finish(task);
        }
        assert!(ledger.is_empty(), "terminal failures must not leak entries");
        assert_eq!(ledger.peak_entries(), 1);
    }

    #[test]
    fn peak_tracks_concurrent_retries() {
        let mut ledger: RetryLedger<(usize, usize)> = RetryLedger::new();
        for i in 0..5 {
            ledger.record_failure((0, i), 1e9);
        }
        assert_eq!(ledger.peak_entries(), 5);
        for i in 0..5 {
            ledger.finish((0, i));
        }
        assert!(ledger.is_empty());
        assert_eq!(ledger.peak_entries(), 5, "peak is a high-water mark");
    }

    #[test]
    fn finish_is_idempotent_and_safe_for_unknown_keys() {
        let mut ledger: RetryLedger<u64> = RetryLedger::new();
        ledger.finish(42);
        ledger.record_failure(1, 2e9);
        ledger.finish(1);
        ledger.finish(1);
        assert!(ledger.is_empty());
    }
}
