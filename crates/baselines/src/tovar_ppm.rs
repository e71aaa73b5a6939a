//! The Tovar-PPM baseline.
//!
//! Tovar et al. (TPDS 2018, "A job sizing strategy for high-throughput
//! scientific workflows") size tasks from the empirical probability
//! distribution of historical peak memory values: the first allocation is the
//! candidate value (among the observed peaks) that minimises the expected
//! cost, where the cost of a sufficient allocation is its surplus and the
//! cost of an insufficient allocation is the wasted attempt plus a
//! conservative re-run at the machine maximum. If the first allocation fails,
//! the node's maximum memory is allocated (the authors' conservative failure
//! handling).
//!
//! The expected cost of every candidate is maintained incrementally: each
//! key keeps one running cost sum per candidate, so `observe` is O(n) in the
//! key's history and `predict` is O(1) (see [`crate::history::History`]).

use crate::history::{submission_key, History, Observation};
use sizey_provenance::TaskRecord;
use sizey_sim::{AttemptContext, MemoryPredictor, Prediction, TaskSubmission};

/// Default node memory used for the conservative retry (the evaluation
/// cluster's 128 GB nodes); override via [`TovarPpmConfig`] when simulating a
/// different cluster.
pub const NODE_MEMORY_BYTES: f64 = 128e9;

/// Configuration of [`TovarPpm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TovarPpmConfig {
    /// Memory allocated after a failed first attempt (the node maximum).
    pub node_memory_bytes: f64,
    /// Minimum number of historical observations before the probabilistic
    /// sizing is used; below this the preset is used.
    pub min_history: usize,
    /// Relative head-room added on top of the selected candidate peak so that
    /// a recurrence of exactly the largest observed value still fits.
    pub headroom: f64,
}

impl Default for TovarPpmConfig {
    fn default() -> Self {
        TovarPpmConfig {
            node_memory_bytes: NODE_MEMORY_BYTES,
            min_history: 2,
            headroom: 0.02,
        }
    }
}

impl TovarPpmConfig {
    /// The allocation candidate `peak` stands for: the peak plus head-room.
    fn candidate(&self, peak: f64) -> f64 {
        peak * (1.0 + self.headroom)
    }

    /// Cost of allocating `alloc` for a task that peaks at `peak`.
    fn cost(&self, alloc: f64, peak: f64) -> f64 {
        if alloc >= peak {
            alloc - peak
        } else {
            // Failed attempt wastes the allocation, and the retry at the
            // machine maximum wastes the surplus there.
            alloc + (self.node_memory_bytes - peak)
        }
    }
}

/// A key's expected-cost bookkeeping: `sums[i]` is the summed cost of the
/// candidate from the `i`-th observed peak over every observed peak, in
/// observation order, and `best` the resulting first allocation.
#[derive(Debug, Default, Clone)]
struct PeakCosts {
    sums: Vec<f64>,
    best: Option<f64>,
}

impl PeakCosts {
    /// Folds the key's newest peak (the last of `observations`) in: it adds
    /// its cost term to every older candidate's sum — the next step of that
    /// sum's left-to-right fold — and sums its own candidate's cost over all
    /// peaks, then re-selects the candidate with the least expected cost.
    fn observe(&mut self, observations: &[Observation], config: &TovarPpmConfig) {
        let Some((newest, _)) = observations.split_last() else {
            return;
        };
        for (sum, o) in self.sums.iter_mut().zip(observations) {
            *sum += config.cost(config.candidate(o.peak_bytes), newest.peak_bytes);
        }
        let alloc = config.candidate(newest.peak_bytes);
        self.sums.push(
            observations
                .iter()
                .map(|o| config.cost(alloc, o.peak_bytes))
                .sum::<f64>(),
        );

        self.best = None;
        if observations.len() < config.min_history {
            return;
        }
        let n = observations.len() as f64;
        let mut best_cost = f64::INFINITY;
        for (&sum, o) in self.sums.iter().zip(observations) {
            let cost = sum / n;
            if cost < best_cost {
                best_cost = cost;
                self.best = Some(config.candidate(o.peak_bytes));
            }
        }
    }
}

/// Peak-probability based first-allocation strategy with conservative retry.
#[derive(Debug, Default, Clone)]
pub struct TovarPpm {
    config: TovarPpmConfig,
    history: History<PeakCosts>,
}

impl TovarPpm {
    /// Creates the predictor with default configuration.
    pub fn new() -> Self {
        TovarPpm::default()
    }

    /// Creates the predictor with a custom configuration.
    pub fn with_config(config: TovarPpmConfig) -> Self {
        TovarPpm {
            config,
            history: History::default(),
        }
    }

    /// The first allocation with the least expected cost, or `None` without
    /// enough history.
    fn estimate(&self, task: &TaskSubmission) -> Option<f64> {
        self.history.state(&submission_key(task))?.best
    }

    /// Expected cost of allocating `alloc` given the empirical peak sample.
    #[cfg(test)]
    fn expected_cost(&self, alloc: f64, peaks: &[f64]) -> f64 {
        let n = peaks.len() as f64;
        peaks
            .iter()
            .map(|&peak| self.config.cost(alloc, peak))
            .sum::<f64>()
            / n
    }

    /// Every candidate's expected cost for the submitted task's key, in
    /// observation order: `(incremental, from scratch)`.
    #[cfg(test)]
    pub(crate) fn expected_costs(&self, task: &TaskSubmission) -> Vec<(f64, f64)> {
        let key = submission_key(task);
        let peaks = self.history.peaks(&key);
        let n = peaks.len() as f64;
        let sums = self.history.state(&key).map_or(&[][..], |c| &c.sums[..]);
        sums.iter()
            .zip(&peaks)
            .map(|(sum, &peak)| {
                let alloc = peak * (1.0 + self.config.headroom);
                (sum / n, self.expected_cost(alloc, &peaks))
            })
            .collect()
    }

    /// The from-scratch estimate: every candidate's expected cost over the
    /// whole sample at every predict (the reference for the incremental
    /// bookkeeping).
    #[cfg(test)]
    pub(crate) fn estimate_from_scratch(&self, task: &TaskSubmission) -> Option<f64> {
        let peaks = self.history.peaks(&submission_key(task));
        if peaks.len() < self.config.min_history {
            return None;
        }
        let mut best = None;
        let mut best_cost = f64::INFINITY;
        for &candidate in &peaks {
            let alloc = candidate * (1.0 + self.config.headroom);
            let cost = self.expected_cost(alloc, &peaks);
            if cost < best_cost {
                best_cost = cost;
                best = Some(alloc);
            }
        }
        best
    }
}

impl MemoryPredictor for TovarPpm {
    fn name(&self) -> String {
        "Tovar-PPM".to_string()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        if ctx.attempt > 0 {
            // Conservative failure handling: jump straight to the node
            // maximum.
            return Prediction {
                allocation_bytes: self.config.node_memory_bytes,
                raw_estimate_bytes: None,
                selected_model: None,
            };
        }
        let raw = self.estimate(task);
        Prediction {
            allocation_bytes: raw.unwrap_or(task.preset_memory_bytes),
            raw_estimate_bytes: raw,
            selected_model: None,
        }
    }

    fn observe(&mut self, record: &TaskRecord) {
        if let Some((observations, costs)) = self.history.observe(record) {
            costs.observe(observations, &self.config);
        }
    }
}

crate::history::impl_history_checkpoint!(TovarPpm);

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_provenance::{MachineId, TaskOutcome, TaskTypeId};

    fn submission() -> TaskSubmission {
        TaskSubmission {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 0,
            input_bytes: 1e9,
            preset_memory_bytes: 12e9,
        }
    }

    fn success(peak: f64) -> TaskRecord {
        TaskRecord {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 0,
            input_bytes: 1e9,
            peak_memory_bytes: peak,
            allocated_memory_bytes: peak * 2.0,
            runtime_seconds: 60.0,
            concurrent_tasks: 0,
            queue_delay_seconds: 0.0,
            outcome: TaskOutcome::Succeeded,
        }
    }

    #[test]
    fn preset_before_history_and_node_max_on_retry() {
        let p = TovarPpm::new();
        assert_eq!(
            p.predict(&submission(), AttemptContext::first())
                .allocation_bytes,
            12e9
        );
        assert_eq!(
            p.predict(&submission(), AttemptContext::retry(1, 12e9))
                .allocation_bytes,
            NODE_MEMORY_BYTES
        );
    }

    #[test]
    fn tight_distribution_selects_near_the_maximum_peak() {
        let mut p = TovarPpm::new();
        for peak in [4.0e9, 4.1e9, 4.2e9, 4.05e9, 4.15e9] {
            p.observe(&success(peak));
        }
        let alloc = p
            .predict(&submission(), AttemptContext::first())
            .allocation_bytes;
        // With a tight distribution the expected-cost minimiser covers all
        // observed peaks (failures are expensive).
        assert!(alloc >= 4.2e9, "alloc = {alloc}");
        assert!(alloc < 5.0e9, "alloc = {alloc}");
    }

    #[test]
    fn rare_huge_outlier_may_be_left_uncovered() {
        let cfg = TovarPpmConfig {
            node_memory_bytes: 16e9,
            ..TovarPpmConfig::default()
        };
        let mut p = TovarPpm::with_config(cfg);
        // 99 small peaks at ~1 GB and one at 15 GB: covering the outlier
        // would waste ~14 GB on every task, which costs more than one retry.
        for _ in 0..99 {
            p.observe(&success(1e9));
        }
        p.observe(&success(15e9));
        let alloc = p
            .predict(&submission(), AttemptContext::first())
            .allocation_bytes;
        assert!(alloc < 5e9, "alloc = {alloc}");
    }

    #[test]
    fn expected_cost_matches_manual_computation() {
        let p = TovarPpm::new();
        let peaks = [1.0, 3.0];
        // alloc = 2: covers first (cost 1), misses second
        // (cost 2 + node - 3).
        let node = NODE_MEMORY_BYTES;
        let expected = (1.0 + (2.0 + node - 3.0)) / 2.0;
        assert!((p.expected_cost(2.0, &peaks) - expected).abs() < 1e-6);
    }

    #[test]
    fn exact_cost_ties_keep_the_first_observed_candidate() {
        // With 16 GB nodes and no head-room, peaks 1 GB and 9 GB have equal
        // expected costs: (0 + 1 + 16 - 9) / 2 == (9 - 1 + 0) / 2 == 4 GB.
        let cfg = TovarPpmConfig {
            node_memory_bytes: 16e9,
            headroom: 0.0,
            ..TovarPpmConfig::default()
        };
        for (peaks, first) in [([1e9, 9e9], 1e9), ([9e9, 1e9], 9e9)] {
            let mut p = TovarPpm::with_config(cfg);
            for peak in peaks {
                p.observe(&success(peak));
            }
            let costs = p.expected_costs(&submission());
            assert_eq!(costs[0], (4e9, 4e9));
            assert_eq!(costs[1], (4e9, 4e9));
            let raw = p
                .predict(&submission(), AttemptContext::first())
                .raw_estimate_bytes;
            assert_eq!(raw, Some(first));
            assert_eq!(raw, p.estimate_from_scratch(&submission()));
        }
    }

    #[test]
    fn failed_records_are_ignored_for_the_distribution() {
        let mut p = TovarPpm::new();
        let mut failed = success(100e9);
        failed.outcome = TaskOutcome::FailedOutOfMemory;
        p.observe(&failed);
        p.observe(&success(2e9));
        // Only one successful observation < min_history → preset.
        assert_eq!(
            p.predict(&submission(), AttemptContext::first())
                .allocation_bytes,
            12e9
        );
    }
}
