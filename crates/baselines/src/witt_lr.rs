//! The Witt-LR baseline.
//!
//! The second method of Witt et al. (HPCS 2019): a per-task-type linear
//! regression of peak memory on input size, offset by the observed difference
//! between actual and predicted peaks so that underestimation becomes
//! unlikely. Before enough history exists, the user preset is used; a failed
//! attempt doubles the previous allocation.
//!
//! The regression and its offset are refreshed in `observe` from a running
//! fit (see [`crate::history::History`]), so `predict` is O(1).

use crate::history::{fitted_peak, submission_key, History, LinearState};
use sizey_ml::metrics::std_dev;
use sizey_provenance::TaskRecord;
use sizey_sim::{AttemptContext, MemoryPredictor, Prediction, TaskSubmission};

/// Configuration of [`WittLr`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WittLrConfig {
    /// Minimum number of historical observations before the regression is
    /// trusted; below this the preset is used.
    pub min_history: usize,
    /// Multiplier on the residual standard deviation added as the safety
    /// offset.
    pub offset_sigmas: f64,
}

impl Default for WittLrConfig {
    fn default() -> Self {
        WittLrConfig {
            min_history: 3,
            offset_sigmas: 1.0,
        }
    }
}

/// Linear-regression-with-offset peak memory predictor.
#[derive(Debug, Default, Clone)]
pub struct WittLr {
    config: WittLrConfig,
    history: History<LinearState>,
}

impl WittLr {
    /// Creates the predictor with default configuration.
    pub fn new() -> Self {
        WittLr::default()
    }

    /// Creates the predictor with a custom configuration.
    pub fn with_config(config: WittLrConfig) -> Self {
        WittLr {
            config,
            history: History::default(),
        }
    }

    /// The offset regression's prediction for the submitted input size, or
    /// `None` when there is not enough history.
    fn estimate(&self, task: &TaskSubmission) -> Option<f64> {
        self.history
            .state(&submission_key(task))?
            .allocation(task.input_bytes)
    }

    /// The from-scratch estimate: fits the regression on the current history
    /// at every predict (the reference for the running fit).
    #[cfg(test)]
    pub(crate) fn estimate_from_scratch(&self, task: &TaskSubmission) -> Option<f64> {
        use sizey_ml::dataset::Dataset;
        use sizey_ml::linear::LinearRegression;
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
        let prediction = model.predict(&[task.input_bytes]).ok()?;
        let residuals: Vec<f64> = observations
            .iter()
            .filter_map(|o| {
                model
                    .predict(&[o.input_bytes])
                    .ok()
                    .map(|p| o.peak_bytes - p)
            })
            .collect();
        let offset = std_dev(&residuals) * self.config.offset_sigmas;
        Some((prediction + offset).max(128e6))
    }
}

impl MemoryPredictor for WittLr {
    fn name(&self) -> String {
        "Witt-LR".to_string()
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
        // Offset: the spread of the residuals on the training data.
        fit.observe(observations, self.config.min_history, |coefficients| {
            let residuals: Vec<f64> = observations
                .iter()
                .map(|o| o.peak_bytes - fitted_peak(coefficients, o.input_bytes))
                .collect();
            std_dev(&residuals) * self.config.offset_sigmas
        });
    }
}

crate::history::impl_history_checkpoint!(WittLr);

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_provenance::{MachineId, TaskOutcome, TaskTypeId};

    fn submission(input: f64) -> TaskSubmission {
        TaskSubmission {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 0,
            input_bytes: input,
            preset_memory_bytes: 20e9,
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
    fn uses_preset_before_enough_history() {
        let mut p = WittLr::new();
        p.observe(&success(1e9, 2e9));
        let pred = p.predict(&submission(1e9), AttemptContext::first());
        assert_eq!(pred.allocation_bytes, 20e9);
        assert!(pred.raw_estimate_bytes.is_none());
    }

    #[test]
    fn learns_linear_relationship() {
        let mut p = WittLr::new();
        // peak = 2 * input + 1 GB, noiseless.
        for i in 1..=10 {
            let input = i as f64 * 1e9;
            p.observe(&success(input, 2.0 * input + 1e9));
        }
        let pred = p.predict(&submission(20e9), AttemptContext::first());
        // Noiseless data => zero residual spread => no offset.
        assert!(
            (pred.allocation_bytes - 41e9).abs() < 0.5e9,
            "{}",
            pred.allocation_bytes
        );
    }

    #[test]
    fn offset_grows_with_noise() {
        let mut noisy = WittLr::new();
        let mut clean = WittLr::new();
        for i in 1..=20 {
            let input = i as f64 * 1e9;
            clean.observe(&success(input, input + 1e9));
            let noise = if i % 2 == 0 { 2e9 } else { -2e9 };
            noisy.observe(&success(input, input + 1e9 + noise));
        }
        let clean_alloc = clean
            .predict(&submission(10.5e9), AttemptContext::first())
            .allocation_bytes;
        let noisy_alloc = noisy
            .predict(&submission(10.5e9), AttemptContext::first())
            .allocation_bytes;
        assert!(
            noisy_alloc > clean_alloc + 1e9,
            "noisy {noisy_alloc} should exceed clean {clean_alloc}"
        );
    }

    #[test]
    fn doubles_on_retry() {
        let mut p = WittLr::new();
        for i in 1..=5 {
            p.observe(&success(i as f64 * 1e9, i as f64 * 1e9));
        }
        let base = p
            .predict(&submission(3e9), AttemptContext::first())
            .allocation_bytes;
        let retried = p
            .predict(&submission(3e9), AttemptContext::retry(2, base * 2.0))
            .allocation_bytes;
        assert!((retried - base * 4.0).abs() < 1e-3);
    }

    /// Every way today's from-scratch fit fails leaves the task on its
    /// preset, for as long as the failure stays in the key's history: a
    /// non-finite input or peak is rejected by the fit's validation, and an
    /// input whose square overflows poisons the normal equations so the
    /// solve's coefficients come out non-finite.
    #[test]
    fn failed_fits_fall_back_to_the_preset_like_a_from_scratch_fit() {
        for (input, peak) in [(f64::NAN, 4e9), (4e9, f64::INFINITY), (1e200, 4e9)] {
            let mut p = WittLr::new();
            let task = submission(5e9);
            let check = |p: &WittLr, fits: bool| {
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
