//! Shared per-(task type, machine) history bookkeeping used by all baseline
//! methods.

use sizey_ml::linear::{evaluate, LinearConfig, NormalEquations};
use sizey_provenance::{KeyQuery, KeyRef, TaskMachineKey, TaskOutcome, TaskRecord};
use sizey_sim::TaskSubmission;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Observation history of successful executions, grouped per
/// (task type, machine) combination, with per-key derived state `S`.
///
/// Alongside the per-key indices, the history keeps a **journal** of every
/// record passed to [`History::observe`] (including failed attempts, which
/// contribute nothing to the indices) in observation order. The journal is
/// the event source backing the snapshot/restore lifecycle
/// ([`sizey_sim::lifecycle`]): all baseline state is a deterministic function
/// of it, so replaying it through a fresh predictor reconstructs the learned
/// state bit for bit.
///
/// Each baseline keeps the model it serves as derived per-key state `S`,
/// updated by its `observe` as every successful observation arrives, so
/// `predict` only reads it. That state is a pure function of the journal
/// (each key's successful records, in observation order) and is bit-identical
/// to refitting the key from scratch at every predict. For a key with `n`
/// successful observations:
///
/// | Baseline        | Derived state                           | observe    | predict |
/// |-----------------|-----------------------------------------|------------|---------|
/// | Tovar-PPM       | expected-cost sum per candidate, argmin | O(n)       | O(1)    |
/// | Witt-Wastage    | running normal equations, shifted line  | O(n log n) | O(1)    |
/// | Witt-LR         | running normal equations, offset line   | O(n)       | O(1)    |
/// | Witt-Percentile | peaks sorted on insert                  | O(n)       | O(1)    |
///
/// Witt-Wastage's observe sorts the key's residuals once for all candidate
/// quantiles; Witt-Percentile's insert is a binary search plus a shift. Every
/// lookup is by key (clone-free, through [`KeyRef`]); the per-key map is never
/// iterated.
///
/// The journal grows with every observation — a deliberate trade-off: the
/// baselines now mirror the provenance-database model the paper attaches to
/// the workflow system (Sizey's `ProvenanceStore` retains exactly the same
/// records), and retaining the full record is what makes any moment's state
/// checkpointable without a second serialisation of derived structures. A
/// deployment that needs bounded memory and no checkpoints can periodically
/// swap the predictor for a fresh one restored from a truncated journal.
#[derive(Debug, Clone)]
pub struct History<S = ()> {
    keys: BTreeMap<TaskMachineKey, KeyHistory<S>>,
    /// Reference-counted so snapshots share the records instead of
    /// deep-cloning the journal a second time.
    journal: Vec<Arc<TaskRecord>>,
}

/// One key's successful observations and the state derived from them.
#[derive(Debug, Clone)]
struct KeyHistory<S> {
    observations: Vec<Observation>,
    state: S,
}

/// One successful task execution as seen by a baseline method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Input size in bytes.
    pub input_bytes: f64,
    /// Measured peak memory in bytes.
    pub peak_bytes: f64,
}

impl<S> Default for History<S> {
    fn default() -> Self {
        History {
            keys: BTreeMap::new(),
            journal: Vec::new(),
        }
    }
}

impl History {
    /// Creates an empty history without derived state.
    pub fn new() -> Self {
        History::default()
    }
}

impl<S: Default> History<S> {
    /// Records a finished attempt. Only successful executions carry a true
    /// peak measurement and enter the per-key indices; failed attempts are
    /// ignored there (failure handling is the responsibility of each
    /// method), but every record enters the journal so snapshots stay a
    /// faithful event log.
    ///
    /// For a successful record, returns the key's observations (this one
    /// last) and its derived state, for the caller to fold the new
    /// observation into.
    pub fn observe(&mut self, record: &TaskRecord) -> Option<(&[Observation], &mut S)> {
        self.journal.push(Arc::new(record.clone()));
        if record.outcome != TaskOutcome::Succeeded {
            return None;
        }
        let probe = KeyRef {
            task_type: record.task_type.as_str(),
            machine: record.machine.as_str(),
        };
        if !self.keys.contains_key(&probe as &dyn KeyQuery) {
            let fresh = KeyHistory {
                observations: Vec::new(),
                state: S::default(),
            };
            self.keys.insert(record.key(), fresh);
        }
        let key = self.keys.get_mut(&probe as &dyn KeyQuery)?;
        key.observations.push(Observation {
            input_bytes: record.input_bytes,
            peak_bytes: record.peak_memory_bytes,
        });
        Some((&key.observations, &mut key.state))
    }
}

impl<S> History<S> {
    /// Every record ever observed, in observation order — the event source
    /// for the snapshot/restore lifecycle.
    pub fn journal(&self) -> &[Arc<TaskRecord>] {
        &self.journal
    }

    /// True when nothing has been observed yet (fresh instance).
    pub fn is_fresh(&self) -> bool {
        self.journal.is_empty()
    }

    /// All successful observations for a key, in arrival order.
    pub fn get(&self, key: &dyn KeyQuery) -> &[Observation] {
        self.keys
            .get(key)
            .map_or(&[], |k| k.observations.as_slice())
    }

    /// The derived state of a key, if it has any successful observation.
    pub(crate) fn state(&self, key: &dyn KeyQuery) -> Option<&S> {
        self.keys.get(key).map(|k| &k.state)
    }

    /// Number of successful observations for a key.
    pub fn count(&self, key: &dyn KeyQuery) -> usize {
        self.get(key).len()
    }

    /// The peak memory values for a key.
    pub fn peaks(&self, key: &dyn KeyQuery) -> Vec<f64> {
        self.get(key).iter().map(|o| o.peak_bytes).collect()
    }

    /// The maximum observed peak for a key, if any.
    pub fn max_peak(&self, key: &dyn KeyQuery) -> Option<f64> {
        self.get(key)
            .iter()
            .map(|o| o.peak_bytes)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// The clone-free lookup key of a submitted task.
pub(crate) fn submission_key(task: &TaskSubmission) -> KeyRef<'_> {
    KeyRef {
        task_type: task.task_type.as_str(),
        machine: task.machine.as_str(),
    }
}

/// Smallest first allocation the linear baselines hand out: a non-positive
/// estimate (from extrapolating a downward-sloping fit) would make their
/// doubling-based failure handling useless.
const MIN_LINEAR_ALLOCATION: f64 = 128e6;

/// A key's linear allocation model, shared by Witt-LR and Witt-Wastage:
/// least squares of peak memory on input size plus a shift derived from the
/// residuals (Witt-LR's offset, Witt-Wastage's least-wastage quantile).
///
/// The normal equations take one row per successful observation, in
/// observation order — the rows, order and arithmetic of
/// `LinearRegression::fit` over the key's whole history — so each solve is
/// bit-identical to refitting from scratch. The failure cases match too:
/// once a non-finite input or peak enters the key's history, the from-scratch
/// fit rejects it for good, and a failed solve (singular after the ridge
/// escalation, or non-finite coefficients) leaves the key without a line
/// until a later observation makes it solvable.
#[derive(Debug, Clone)]
pub(crate) struct LinearState {
    equations: NormalEquations,
    /// False once the key's history holds a non-finite input or peak.
    finite: bool,
    line: Option<ShiftedLine>,
}

#[derive(Debug, Clone)]
struct ShiftedLine {
    coefficients: Vec<f64>,
    shift: f64,
}

impl Default for LinearState {
    fn default() -> Self {
        LinearState {
            equations: NormalEquations::new(1, LinearConfig::default()),
            finite: true,
            line: None,
        }
    }
}

impl LinearState {
    /// Folds the key's newest observation (the last of `observations`) into
    /// the fit and re-derives the line. With at least `min_history`
    /// observations and a successful solve, `shift` receives the solved
    /// coefficients and returns the line's shift.
    pub(crate) fn observe(
        &mut self,
        observations: &[Observation],
        min_history: usize,
        shift: impl FnOnce(&[f64]) -> f64,
    ) {
        if let Some(o) = observations.last() {
            if self.finite && o.input_bytes.is_finite() && o.peak_bytes.is_finite() {
                self.equations.add(&[o.input_bytes], o.peak_bytes);
            } else {
                self.finite = false;
            }
        }
        self.line = None;
        if !self.finite || observations.len() < min_history {
            return;
        }
        if let Ok(coefficients) = self.equations.solve() {
            let shift = shift(&coefficients);
            self.line = Some(ShiftedLine {
                coefficients,
                shift,
            });
        }
    }

    /// The shifted line's allocation for `input_bytes`, floored at 128 MB;
    /// `None` without a line or for a non-finite input.
    pub(crate) fn allocation(&self, input_bytes: f64) -> Option<f64> {
        let line = self.line.as_ref()?;
        if !input_bytes.is_finite() {
            return None;
        }
        Some((fitted_peak(&line.coefficients, input_bytes) + line.shift).max(MIN_LINEAR_ALLOCATION))
    }
}

/// The fitted line's peak for `input_bytes` (`LinearRegression::predict`'s
/// arithmetic).
pub(crate) fn fitted_peak(coefficients: &[f64], input_bytes: f64) -> f64 {
    evaluate(coefficients, true, &[input_bytes])
}

/// Implements [`sizey_sim::lifecycle::CheckpointPredictor`] for a baseline
/// whose entire learned state lives in a `history: History` field: the
/// snapshot is the history's journal, and restore replays it through
/// `observe` on a fresh instance. Baselines keep no predict-path counters,
/// so any counter in the state is rejected as foreign.
macro_rules! impl_history_checkpoint {
    ($ty:ty) => {
        impl sizey_sim::lifecycle::CheckpointPredictor for $ty {
            fn snapshot(&self) -> sizey_sim::lifecycle::PredictorState {
                sizey_sim::lifecycle::PredictorState {
                    journal: self.history.journal().to_vec(),
                    counters: Vec::new(),
                }
            }

            fn restore(
                &mut self,
                state: &sizey_sim::lifecycle::PredictorState,
            ) -> Result<(), sizey_sim::lifecycle::StateError> {
                if !self.history.is_fresh() {
                    return Err(sizey_sim::lifecycle::StateError::NotFresh {
                        observed: self.history.journal().len(),
                    });
                }
                if let Some((name, _)) = state.counters.first() {
                    return Err(sizey_sim::lifecycle::StateError::UnknownCounter {
                        name: name.clone(),
                    });
                }
                for record in &state.journal {
                    sizey_sim::MemoryPredictor::observe(self, record);
                }
                Ok(())
            }
        }
    };
}

pub(crate) use impl_history_checkpoint;

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_provenance::{MachineId, TaskTypeId};

    fn record(peak: f64, outcome: TaskOutcome) -> TaskRecord {
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
            outcome,
        }
    }

    #[test]
    fn only_successful_records_are_stored() {
        let mut h = History::new();
        h.observe(&record(1e9, TaskOutcome::Succeeded));
        h.observe(&record(9e9, TaskOutcome::FailedOutOfMemory));
        let key = TaskMachineKey::new("t", "m");
        assert_eq!(h.count(&key), 1);
        assert_eq!(h.peaks(&key), vec![1e9]);
        assert_eq!(h.max_peak(&key), Some(1e9));
    }

    #[test]
    fn unknown_key_is_empty() {
        let h = History::new();
        let key = TaskMachineKey::new("unknown", "m");
        assert!(h.get(&key).is_empty());
        assert_eq!(h.count(&key), 0);
        assert_eq!(h.max_peak(&key), None);
    }

    #[test]
    fn journal_keeps_every_record_in_order() {
        let mut h = History::new();
        assert!(h.is_fresh());
        h.observe(&record(1e9, TaskOutcome::Succeeded));
        h.observe(&record(9e9, TaskOutcome::FailedOutOfMemory));
        h.observe(&record(2e9, TaskOutcome::Succeeded));
        assert!(!h.is_fresh());
        assert_eq!(h.journal().len(), 3, "failures enter the journal too");
        assert_eq!(h.journal()[1].outcome, TaskOutcome::FailedOutOfMemory);
        // Replaying the journal into a fresh history reproduces the indices.
        let mut replayed = History::new();
        for r in h.journal() {
            replayed.observe(r);
        }
        let key = TaskMachineKey::new("t", "m");
        assert_eq!(replayed.peaks(&key), h.peaks(&key));
    }

    #[test]
    fn observations_preserve_order() {
        let mut h = History::new();
        for i in 1..=5 {
            h.observe(&record(i as f64 * 1e9, TaskOutcome::Succeeded));
        }
        let key = TaskMachineKey::new("t", "m");
        let peaks = h.peaks(&key);
        assert_eq!(peaks, vec![1e9, 2e9, 3e9, 4e9, 5e9]);
        assert_eq!(h.max_peak(&key), Some(5e9));
    }
}
