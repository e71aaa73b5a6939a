//! Differential property suite: every baseline's incrementally maintained
//! estimate must be bit-identical (`f64::to_bits`) to the from-scratch
//! estimate it replaces, after every observation, for every key.
//!
//! Histories mix several keys and draw values from small pools as well as
//! continuous ranges, so they contain duplicate peaks, exact expected-cost
//! ties, zero-variance inputs (key 0 always runs on the same input),
//! interleaved failed records, lengths around `min_history`, and the odd
//! zero, non-finite or overflowing value. Under the alternative Tovar-PPM
//! configuration (16 GB nodes, no head-room) pool peaks 8 GB apart have
//! exactly equal expected costs, so the first-minimum tie rule is exercised.

use crate::{
    TovarPpm, TovarPpmConfig, WittLr, WittLrConfig, WittPercentile, WittPercentileConfig,
    WittWastage, WittWastageConfig,
};
use proptest::prelude::*;
use sizey_provenance::{MachineId, TaskOutcome, TaskRecord, TaskTypeId};
use sizey_sim::{AttemptContext, MemoryPredictor, TaskSubmission};

/// Keys that receive observations; one more key is only ever queried.
const KEYS: usize = 3;

fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        12 => (1u32..10).prop_map(|k| k as f64 * 1e9),
        12 => 1e8f64..5e10,
        2 => Just(0.0),
        1 => prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(-1e9),
            Just(1e200),
        ],
    ]
}

/// `(key, input, peak, failed)`; one record in five fails.
fn history() -> impl Strategy<Value = Vec<(usize, f64, f64, bool)>> {
    prop::collection::vec(
        (0usize..KEYS, value(), value(), 0u32..5).prop_map(|(key, input, peak, roll)| {
            let input = if key == 0 { 3e9 } else { input };
            (key, input, peak, roll == 0)
        }),
        0..40,
    )
}

fn record(key: usize, input: f64, peak: f64, failed: bool) -> TaskRecord {
    TaskRecord {
        workflow: "wf".into(),
        task_type: TaskTypeId::new(format!("t{key}")),
        machine: MachineId::new("m"),
        sequence: 0,
        input_bytes: input,
        peak_memory_bytes: peak,
        allocated_memory_bytes: peak,
        runtime_seconds: 60.0,
        concurrent_tasks: 0,
        queue_delay_seconds: 0.0,
        outcome: if failed {
            TaskOutcome::FailedOutOfMemory
        } else {
            TaskOutcome::Succeeded
        },
    }
}

fn queries(last_input: f64) -> Vec<TaskSubmission> {
    let mut out = Vec::new();
    for key in 0..=KEYS {
        for input in [1e9, 7.5e9, last_input, f64::NAN] {
            out.push(TaskSubmission {
                workflow: "wf".into(),
                task_type: TaskTypeId::new(format!("t{key}")),
                machine: MachineId::new("m"),
                sequence: 0,
                input_bytes: input,
                preset_memory_bytes: 12e9,
            });
        }
    }
    out
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Bits of an intermediate cost, with every NaN folded into one: when two
/// NaNs meet in an addition, which payload survives depends on code
/// generation, not on the operation order. A NaN cost never wins the argmin,
/// so the estimates themselves are still compared bit for bit.
fn cost_bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_estimates_match_from_scratch_bitwise(
        events in history(),
        min_history in 0usize..6,
        variant in 0u32..2,
    ) {
        let alt = variant == 1;
        let mut lr = WittLr::with_config(WittLrConfig {
            min_history,
            offset_sigmas: if alt { 2.5 } else { 1.0 },
        });
        let mut ww = WittWastage::with_config(WittWastageConfig {
            min_history,
            failure_penalty: if alt { 1.0 } else { 0.0 },
            ..WittWastageConfig::default()
        });
        let mut tovar = TovarPpm::with_config(TovarPpmConfig {
            min_history,
            headroom: if alt { 0.0 } else { 0.02 },
            node_memory_bytes: if alt { 16e9 } else { 128e9 },
        });
        let mut pct = WittPercentile::with_config(WittPercentileConfig {
            percentile: if alt { 50.0 } else { 95.0 },
            min_history,
        });
        for (step, &(key, input, peak, failed)) in events.iter().enumerate() {
            let r = record(key, input, peak, failed);
            lr.observe(&r);
            ww.observe(&r);
            tovar.observe(&r);
            pct.observe(&r);
            for task in queries(input) {
                let first = AttemptContext::first();
                prop_assert_eq!(
                    bits(lr.predict(&task, first).raw_estimate_bytes),
                    bits(lr.estimate_from_scratch(&task)),
                    "Witt-LR, step {}, {:?}",
                    step,
                    task
                );
                prop_assert_eq!(
                    bits(ww.predict(&task, first).raw_estimate_bytes),
                    bits(ww.estimate_from_scratch(&task)),
                    "Witt-Wastage, step {}, {:?}",
                    step,
                    task
                );
                prop_assert_eq!(
                    bits(tovar.predict(&task, first).raw_estimate_bytes),
                    bits(tovar.estimate_from_scratch(&task)),
                    "Tovar-PPM, step {}, {:?}",
                    step,
                    task
                );
                for (incremental, scratch) in tovar.expected_costs(&task) {
                    prop_assert_eq!(cost_bits(incremental), cost_bits(scratch), "Tovar-PPM cost");
                }
                prop_assert_eq!(
                    bits(pct.predict(&task, first).raw_estimate_bytes),
                    Some(pct.base_estimate_from_scratch(&task).to_bits()),
                    "Witt-Percentile, step {}, {:?}",
                    step,
                    task
                );
            }
        }
    }
}
