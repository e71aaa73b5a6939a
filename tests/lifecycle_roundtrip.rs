//! Property tests for the predictor snapshot/restore lifecycle: a predictor
//! restored from a [`PredictorState`] checkpoint must be **bit-identical**
//! to the uninterrupted original — same predictions (exact `f64` equality),
//! same state — for any workload, seed and mid-workflow cut point, and the
//! text codec must round-trip states losslessly.

use proptest::prelude::*;
use sizey_suite::prelude::*;

fn small_workload(name: &str, seed: u64) -> Vec<TaskInstance> {
    let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
    generate_workflow(
        &spec,
        &GeneratorConfig {
            scale: 0.01,
            seed,
            min_instances: 8,
            interleave: true,
            drift: None,
        },
    )
}

/// Drives one instance through a predictor the way the replay engine does —
/// predict, retry on (simulated) OOM up to three attempts, observe the
/// outcome — and returns every prediction made. Failures exercise the
/// journal's failed-record path.
fn drive(predictor: &mut dyn CheckpointPredictor, inst: &TaskInstance) -> Vec<Prediction> {
    drive_with(predictor, inst, |_| {})
}

/// [`drive`], additionally offering every observed record to `on_record`
/// just before the predictor sees it — the hook the compaction tests use to
/// append the post-checkpoint journal tail.
fn drive_with(
    predictor: &mut dyn CheckpointPredictor,
    inst: &TaskInstance,
    mut on_record: impl FnMut(&TaskRecord),
) -> Vec<Prediction> {
    let submission = TaskSubmission {
        workflow: inst.workflow.clone(),
        task_type: inst.task_type.clone(),
        machine: inst.machine.clone(),
        sequence: inst.sequence,
        input_bytes: inst.input_bytes,
        preset_memory_bytes: inst.preset_memory_bytes,
    };
    let mut predictions = Vec::new();
    let mut last_allocation: Option<f64> = None;
    for attempt in 0..3u32 {
        let ctx = AttemptContext {
            attempt,
            last_allocation_bytes: last_allocation,
        };
        let prediction = predictor.predict(&submission, ctx);
        let allocation = prediction.allocation_bytes.max(128e6);
        predictions.push(prediction);
        let success = allocation >= inst.true_peak_bytes;
        let record = TaskRecord {
            workflow: inst.workflow.clone(),
            task_type: inst.task_type.clone(),
            machine: inst.machine.clone(),
            sequence: inst.sequence,
            input_bytes: inst.input_bytes,
            peak_memory_bytes: if success {
                inst.true_peak_bytes
            } else {
                allocation
            },
            allocated_memory_bytes: allocation,
            runtime_seconds: inst.base_runtime_seconds,
            concurrent_tasks: 1,
            queue_delay_seconds: 0.0,
            outcome: if success {
                TaskOutcome::Succeeded
            } else {
                TaskOutcome::FailedOutOfMemory
            },
        };
        on_record(&record);
        predictor.observe(&record);
        last_allocation = Some(allocation);
        if success {
            break;
        }
    }
    predictions
}

/// Checkpoints `spec`'s predictor mid-workflow at `cut` and asserts the
/// restored copy stays in lockstep with the uninterrupted original for the
/// rest of the workload — predictions equal bit for bit, final snapshots
/// equal.
fn assert_checkpoint_is_bit_identical(
    method: &MethodSpec,
    instances: &[TaskInstance],
    cut: usize,
) -> Result<(), TestCaseError> {
    let mut original = method.build();
    for inst in &instances[..cut] {
        drive(original.as_mut(), inst);
    }
    let state = original.snapshot();

    // The codec is part of the contract: restore from the *serialised* form.
    let text = state.to_state_string();
    let parsed = PredictorState::from_state_string(&text)
        .map_err(|e| TestCaseError::fail(format!("codec failed: {e}")))?;
    prop_assert_eq!(&parsed, &state, "text codec round-trip changed the state");

    let mut restored = method
        .restore(&parsed)
        .map_err(|e| TestCaseError::fail(format!("restore failed: {e}")))?;
    prop_assert_eq!(
        restored.snapshot(),
        state,
        "restored predictor does not reproduce the checkpoint"
    );

    for inst in &instances[cut..] {
        let a = drive(original.as_mut(), inst);
        let b = drive(restored.as_mut(), inst);
        prop_assert_eq!(
            a,
            b,
            "post-restore predictions diverged for {}/{}",
            inst.task_type.as_str(),
            inst.sequence
        );
    }
    prop_assert_eq!(
        original.snapshot(),
        restored.snapshot(),
        "final states diverged after lockstep continuation"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sizey: model pools, offset histories and diagnostics all survive a
    /// mid-workflow checkpoint bit for bit.
    #[test]
    fn sizey_mid_workflow_checkpoint_is_bit_identical(
        seed in 0u64..3000,
        wf_idx in 0usize..6,
        cut_permille in 0usize..1000,
    ) {
        let name = sizey_workflows::WORKFLOW_NAMES[wf_idx];
        let instances = small_workload(name, seed);
        let cut = cut_permille * instances.len() / 1000;
        assert_checkpoint_is_bit_identical(
            &MethodSpec::sizey_defaults(),
            &instances,
            cut,
        )?;
    }

    /// Same property for every learned baseline. The checkpoint is the
    /// shared `History` journal, but each baseline derives its own per-key
    /// state from it on `observe` (cost sums, running fits, sorted peaks),
    /// so restore must rebuild each of them by replaying the journal.
    #[test]
    fn baseline_mid_workflow_checkpoint_is_bit_identical(
        seed in 0u64..3000,
        wf_idx in 0usize..6,
        cut_permille in 0usize..1000,
    ) {
        let name = sizey_workflows::WORKFLOW_NAMES[wf_idx];
        let instances = small_workload(name, seed);
        let cut = cut_permille * instances.len() / 1000;
        for method in [
            MethodSpec::WittWastage(Default::default()),
            MethodSpec::WittLr(Default::default()),
            MethodSpec::TovarPpm(Default::default()),
            MethodSpec::WittPercentile(Default::default()),
        ] {
            assert_checkpoint_is_bit_identical(&method, &instances, cut)?;
        }
    }

    /// Satellite regression: `since_full_retrain` is learned state — a
    /// restored predictor must reconstruct every pool's retrain counter from
    /// the journal replay, or its next periodic full retrain fires at the
    /// wrong observation and predictions drift from the original thereafter.
    #[test]
    fn since_full_retrain_counters_survive_snapshot_restore(
        seed in 0u64..3000,
        wf_idx in 0usize..6,
    ) {
        let name = sizey_workflows::WORKFLOW_NAMES[wf_idx];
        let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
        let instances = generate_workflow(
            &spec,
            &GeneratorConfig {
                scale: 0.01,
                seed,
                min_instances: 30,
                interleave: true,
                drift: None,
            },
        );
        let mut original = SizeyPredictor::with_defaults();
        for inst in &instances {
            drive(&mut original, inst);
        }
        let counters = original.since_full_retrain();
        prop_assert!(!counters.is_empty());
        let state = original.snapshot();
        let mut restored = SizeyPredictor::with_defaults();
        restored
            .restore(&state)
            .map_err(|e| TestCaseError::fail(format!("restore failed: {e}")))?;
        prop_assert_eq!(restored.since_full_retrain(), counters);
    }

    /// Satellite: journal compaction. For **every** predictor class in the
    /// default suite, restoring from a mid-workflow base checkpoint plus the
    /// journal tail observed afterwards is bit-identical to restoring from
    /// the full journal — same resolved state (for journaling predictors),
    /// same lockstep predictions, same final snapshots.
    #[test]
    fn compacted_checkpoint_restore_is_bit_identical(
        seed in 0u64..3000,
        wf_idx in 0usize..6,
        cut_permille in 0usize..1000,
        method_idx in 0usize..6,
    ) {
        let suite = MethodSpec::default_suite();
        let method = &suite[method_idx];
        let name = sizey_workflows::WORKFLOW_NAMES[wf_idx];
        let instances = small_workload(name, seed);
        let cut = cut_permille * instances.len() / 1000;

        let mut original = method.build();
        for inst in &instances[..cut] {
            drive(original.as_mut(), inst);
        }
        let mut compacted = CompactedCheckpoint::new(original.snapshot());
        for inst in &instances[cut..] {
            drive_with(original.as_mut(), inst, |record| {
                compacted.append(std::sync::Arc::new(record.clone()));
            });
        }
        let full = original.snapshot();
        compacted.seal_counters(full.counters.clone());

        // Journaling predictors: base + tail resolves to the exact full
        // state. (The stateless preset baseline journals nothing, so its
        // resolved tail is deliberately richer than its empty snapshot.)
        if method.id() != "preset" {
            prop_assert_eq!(
                compacted.resolve(),
                full.clone(),
                "base + tail did not resolve to the full journal"
            );
        }

        let mut from_full = method
            .restore(&full)
            .map_err(|e| TestCaseError::fail(format!("full restore failed: {e}")))?;
        let mut from_compacted = method.build();
        compacted
            .restore_into(from_compacted.as_mut())
            .map_err(|e| TestCaseError::fail(format!("compacted restore failed: {e}")))?;
        prop_assert_eq!(
            from_compacted.snapshot(),
            from_full.snapshot(),
            "restored snapshots diverged"
        );

        // Lockstep continuation: both restored predictors must keep making
        // identical predictions on further work.
        for inst in instances.iter().take(24) {
            let a = drive(from_full.as_mut(), inst);
            let b = drive(from_compacted.as_mut(), inst);
            prop_assert_eq!(a, b, "post-restore predictions diverged");
        }
        prop_assert_eq!(from_full.snapshot(), from_compacted.snapshot());
    }

    /// The serialised text form itself round-trips losslessly for states
    /// with arbitrary finite floats in the journal.
    #[test]
    fn state_codec_round_trips_arbitrary_records(
        peaks in proptest::collection::vec(1e6f64..1e12, 1..20),
        counter in 0u64..1000,
    ) {
        let journal: Vec<std::sync::Arc<TaskRecord>> = peaks
            .iter()
            .enumerate()
            .map(|(i, peak)| std::sync::Arc::new(TaskRecord {
                workflow: "wf".to_string(),
                task_type: TaskTypeId::new("t"),
                machine: MachineId::new("m"),
                sequence: i as u64,
                input_bytes: peak / 3.0,
                peak_memory_bytes: *peak,
                allocated_memory_bytes: peak * 1.37,
                runtime_seconds: peak % 977.0,
                concurrent_tasks: (i % 7) as u32,
                queue_delay_seconds: peak % 13.0,
                outcome: if i % 4 == 0 {
                    TaskOutcome::FailedOutOfMemory
                } else {
                    TaskOutcome::Succeeded
                },
            }))
            .collect();
        let state = PredictorState {
            journal,
            counters: vec![("offset-selected.std-dev".to_string(), counter)],
        };
        let parsed = PredictorState::from_state_string(&state.to_state_string()).unwrap();
        prop_assert_eq!(parsed, state);
    }
}
