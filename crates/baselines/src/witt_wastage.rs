//! The Witt-Wastage baseline.
//!
//! Witt et al. (HPCS 2019, "Learning low-wastage memory allocations for
//! scientific workflows at IceCube") fit linear allocation functions that
//! minimise *wastage* rather than prediction error: several candidate
//! regression lines (the base fit shifted towards higher quantiles of the
//! residual distribution) are evaluated on the historical data with a wastage
//! cost model — over-allocation costs its surplus, under-allocation costs the
//! failed attempt plus a conservative retry — and the line with the lowest
//! cost is used. A failed attempt doubles the allocation.
//!
//! The regression and the winning shift are refreshed in `observe` from a
//! running fit (see [`crate::history::History`]), so `predict` is O(1).

use crate::history::{fitted_peak, submission_key, History, LinearState, Observation};
use sizey_ml::metrics::percentile_sorted;
use sizey_provenance::TaskRecord;
use sizey_sim::{AttemptContext, MemoryPredictor, Prediction, TaskSubmission};

/// Configuration of [`WittWastage`].
#[derive(Debug, Clone, PartialEq)]
pub struct WittWastageConfig {
    /// Residual quantiles tried as intercept shifts for the candidate lines.
    pub candidate_quantiles: Vec<f64>,
    /// Minimum number of historical observations before the model is used.
    pub min_history: usize,
    /// Penalty factor applied to an under-allocation: the wasted work of the
    /// failed attempt is approximated as `penalty × actual peak`.
    pub failure_penalty: f64,
}

impl Default for WittWastageConfig {
    fn default() -> Self {
        WittWastageConfig {
            candidate_quantiles: vec![50.0, 75.0, 90.0, 95.0, 99.0, 100.0],
            min_history: 3,
            // The original method optimises the memory-time wasted by the
            // attempt itself (a failed attempt wastes its allocation); the
            // retry cost is not part of its objective, which is why it trades
            // more task failures for tighter allocations (Fig. 8c).
            failure_penalty: 0.0,
        }
    }
}

impl WittWastageConfig {
    /// Wastage cost of allocating `alloc` for a task that actually peaks at
    /// `peak`: surplus when sufficient, failed work plus a full re-run at the
    /// actual peak when insufficient.
    fn wastage_cost(&self, alloc: f64, peak: f64) -> f64 {
        if alloc >= peak {
            alloc - peak
        } else {
            alloc + self.failure_penalty * peak
        }
    }

    /// The candidate shift with the least historical wastage for a line
    /// with `coefficients`: the residual quantiles (sorted once for all
    /// candidates), floored at zero, each costed over the whole history in
    /// observation order.
    fn best_shift(&self, observations: &[Observation], coefficients: &[f64]) -> f64 {
        let base_predictions: Vec<f64> = observations
            .iter()
            .map(|o| fitted_peak(coefficients, o.input_bytes))
            .collect();
        let mut residuals: Vec<f64> = observations
            .iter()
            .zip(&base_predictions)
            .map(|(o, p)| o.peak_bytes - p)
            .collect();
        residuals.sort_by(|a, b| a.total_cmp(b));

        let mut best_shift = 0.0;
        let mut best_cost = f64::INFINITY;
        for &q in &self.candidate_quantiles {
            let shift = percentile_sorted(&residuals, q).max(0.0);
            let cost: f64 = observations
                .iter()
                .zip(&base_predictions)
                .map(|(o, p)| self.wastage_cost(p + shift, o.peak_bytes))
                .sum();
            if cost < best_cost {
                best_cost = cost;
                best_shift = shift;
            }
        }
        best_shift
    }
}

/// Low-wastage linear allocation model.
#[derive(Debug, Default, Clone)]
pub struct WittWastage {
    config: WittWastageConfig,
    history: History<LinearState>,
}

impl WittWastage {
    /// Creates the predictor with default configuration.
    pub fn new() -> Self {
        WittWastage::default()
    }

    /// Creates the predictor with a custom configuration.
    pub fn with_config(config: WittWastageConfig) -> Self {
        WittWastage {
            config,
            history: History::default(),
        }
    }

    /// The least-wastage shifted line's estimate for the submitted input,
    /// or `None` when there is not enough history.
    fn estimate(&self, task: &TaskSubmission) -> Option<f64> {
        self.history
            .state(&submission_key(task))?
            .allocation(task.input_bytes)
    }

    /// The from-scratch estimate: fits the base regression and evaluates
    /// every candidate shift at every predict (the reference for the running
    /// fit).
    #[cfg(test)]
    pub(crate) fn estimate_from_scratch(&self, task: &TaskSubmission) -> Option<f64> {
        use sizey_ml::dataset::Dataset;
        use sizey_ml::linear::LinearRegression;
        use sizey_ml::metrics::percentile;
        use sizey_ml::model::Regressor;

        let observations = self.history.get(&submission_key(task));
        if observations.len() < self.config.min_history {
            return None;
        }
        let xs: Vec<f64> = observations.iter().map(|o| o.input_bytes).collect();
        let ys: Vec<f64> = observations.iter().map(|o| o.peak_bytes).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut model = LinearRegression::with_defaults();
        model.fit(&data).ok()?;

        let base_predictions: Vec<f64> = observations
            .iter()
            .map(|o| model.predict(&[o.input_bytes]).unwrap_or(o.peak_bytes))
            .collect();
        let residuals: Vec<f64> = observations
            .iter()
            .zip(base_predictions.iter())
            .map(|(o, p)| o.peak_bytes - p)
            .collect();

        let mut best_shift = 0.0;
        let mut best_cost = f64::INFINITY;
        for &q in &self.config.candidate_quantiles {
            let shift = percentile(&residuals, q).max(0.0);
            let cost: f64 = observations
                .iter()
                .zip(base_predictions.iter())
                .map(|(o, p)| self.config.wastage_cost(p + shift, o.peak_bytes))
                .sum();
            if cost < best_cost {
                best_cost = cost;
                best_shift = shift;
            }
        }

        let prediction = model.predict(&[task.input_bytes]).ok()? + best_shift;
        Some(prediction.max(128e6))
    }
}

impl MemoryPredictor for WittWastage {
    fn name(&self) -> String {
        "Witt-Wastage".to_string()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        let raw = self.estimate(task);
        let base = raw.unwrap_or(task.preset_memory_bytes);
        Prediction {
            allocation_bytes: base * 2.0_f64.powi(ctx.attempt as i32),
            raw_estimate_bytes: raw,
            selected_model: None,
        }
    }

    fn observe(&mut self, record: &TaskRecord) {
        let Some((observations, fit)) = self.history.observe(record) else {
            return;
        };
        fit.observe(observations, self.config.min_history, |coefficients| {
            self.config.best_shift(observations, coefficients)
        });
    }
}

crate::history::impl_history_checkpoint!(WittWastage);

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_provenance::{MachineId, TaskMachineKey, TaskOutcome, TaskTypeId};

    fn submission(input: f64) -> TaskSubmission {
        TaskSubmission {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 0,
            input_bytes: input,
            preset_memory_bytes: 30e9,
        }
    }

    fn success(input: f64, peak: f64) -> TaskRecord {
        TaskRecord {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 0,
            input_bytes: input,
            peak_memory_bytes: peak,
            allocated_memory_bytes: peak * 2.0,
            runtime_seconds: 60.0,
            concurrent_tasks: 0,
            queue_delay_seconds: 0.0,
            outcome: TaskOutcome::Succeeded,
        }
    }

    #[test]
    fn falls_back_to_preset_without_history() {
        let p = WittWastage::new();
        assert_eq!(
            p.predict(&submission(1e9), AttemptContext::first())
                .allocation_bytes,
            30e9
        );
    }

    #[test]
    fn wastage_cost_penalises_underallocation() {
        let p = WittWastage::new();
        assert_eq!(p.config.wastage_cost(5.0, 3.0), 2.0);
        // With the default penalty of 0 a failed attempt costs its own
        // allocation.
        assert_eq!(p.config.wastage_cost(2.0, 3.0), 2.0);
        let strict = WittWastage::with_config(WittWastageConfig {
            failure_penalty: 1.0,
            ..WittWastageConfig::default()
        });
        assert_eq!(strict.config.wastage_cost(2.0, 3.0), 5.0);
    }

    #[test]
    fn learns_linear_data_with_small_overallocation() {
        let mut p = WittWastage::new();
        for i in 1..=30 {
            let input = i as f64 * 1e9;
            // peak = input + 1 GB with +-0.5 GB alternating noise
            let noise = if i % 2 == 0 { 0.5e9 } else { -0.5e9 };
            p.observe(&success(input, input + 1e9 + noise));
        }
        let alloc = p
            .predict(&submission(15e9), AttemptContext::first())
            .allocation_bytes;
        // Estimate should cover the upper envelope (~16.5 GB) but stay far
        // below the 30 GB preset.
        assert!(alloc >= 15.5e9, "alloc = {alloc}");
        assert!(alloc < 20e9, "alloc = {alloc}");
    }

    #[test]
    fn shift_covers_heavy_upper_tail() {
        let mut p = WittWastage::new();
        // Mostly small peaks, occasionally double: the cheapest line must
        // still cover the expensive failures.
        for i in 1..=40 {
            let input = 1e9;
            let peak = if i % 5 == 0 { 8e9 } else { 4e9 };
            p.observe(&success(input, peak));
        }
        let alloc = p
            .predict(&submission(1e9), AttemptContext::first())
            .allocation_bytes;
        assert!(alloc >= 4e9, "must at least cover the common case: {alloc}");
    }

    #[test]
    fn doubles_on_retry_and_records_history() {
        let mut p = WittWastage::new();
        for i in 1..=5 {
            p.observe(&success(i as f64 * 1e9, 2.0 * i as f64 * 1e9));
        }
        let key = TaskMachineKey::new("t", "m");
        assert_eq!(p.history.count(&key), 5);
        let base = p
            .predict(&submission(3e9), AttemptContext::first())
            .allocation_bytes;
        let doubled = p
            .predict(&submission(3e9), AttemptContext::retry(1, base))
            .allocation_bytes;
        assert!((doubled - 2.0 * base).abs() < 1e-3);
    }

    /// Every way today's from-scratch fit fails leaves the task on its
    /// preset, for as long as the failure stays in the key's history: a
    /// non-finite input or peak is rejected by the fit's validation, and an
    /// input whose square overflows poisons the normal equations so the
    /// solve's coefficients come out non-finite.
    #[test]
    fn failed_fits_fall_back_to_the_preset_like_a_from_scratch_fit() {
        for (input, peak) in [(f64::NAN, 4e9), (4e9, f64::INFINITY), (1e200, 4e9)] {
            let mut p = WittWastage::new();
            let task = submission(5e9);
            let check = |p: &WittWastage, fits: bool| {
                let pred = p.predict(&task, AttemptContext::first());
                assert_eq!(
                    pred.raw_estimate_bytes.map(f64::to_bits),
                    p.estimate_from_scratch(&task).map(f64::to_bits)
                );
                assert_eq!(pred.raw_estimate_bytes.is_some(), fits, "{input} {peak}");
                if !fits {
                    assert_eq!(pred.allocation_bytes, task.preset_memory_bytes);
                }
            };
            for i in 1..=4 {
                p.observe(&success(i as f64 * 1e9, i as f64 * 2e9));
            }
            check(&p, true);
            p.observe(&success(input, peak));
            check(&p, false);
            for i in 1..=3 {
                p.observe(&success(i as f64 * 1e9, i as f64 * 2e9));
                check(&p, false);
            }
        }
    }
}
