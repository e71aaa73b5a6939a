//! Differential property tests pinning the streaming replay pipeline
//! **bit-identical** to the materialised one: iterator-based workload
//! generation and the single-workflow streaming replay must reproduce the
//! materialised generator's instances and `replay_workflow`'s report
//! exactly — same attempt events, same aggregates (exact `f64` equality) and
//! the same learned predictor state — for any workload and seed.
//!
//! The multi-tenant scheduler has a single event loop
//! (`schedule_workflows` adapts `schedule_workflows_streaming`), so it has
//! no second engine to compare against here; its output is pinned across
//! commits by the golden digests in `lint_fix_equivalence.rs`.

use proptest::prelude::*;
use sizey_sim::AttemptEvent;
use sizey_suite::prelude::*;

fn workload(wf_idx: usize, seed: u64) -> (WorkflowSpec, GeneratorConfig) {
    let name = sizey_workflows::WORKFLOW_NAMES[wf_idx % 6];
    let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
    let config = GeneratorConfig {
        scale: 0.01,
        seed,
        min_instances: 10,
        interleave: true,
        drift: None,
    };
    (spec, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The streaming generator yields exactly the instances the materialised
    /// generator produces, in the same order.
    #[test]
    fn stream_workflow_matches_materialised_generation(
        seed in 0u64..5000,
        wf_idx in 0usize..6,
    ) {
        let (spec, config) = workload(wf_idx, seed);
        let materialised = generate_workflow(&spec, &config);
        let streamed: Vec<TaskInstance> = stream_workflow(&spec, &config).collect();
        prop_assert_eq!(streamed, materialised);
    }

    /// The single-workflow streaming replay reproduces the materialised
    /// report exactly: same attempt events, same aggregates, and the two
    /// online-learning predictors end in bit-identical state.
    #[test]
    fn streaming_replay_matches_materialised_report(
        seed in 0u64..5000,
        wf_idx in 0usize..6,
    ) {
        let (spec, config) = workload(wf_idx, seed);
        let sim = SimulationConfig::default();

        let instances = generate_workflow(&spec, &config);
        let mut materialised_predictor = SizeyPredictor::with_defaults();
        let report = replay_workflow(&spec.name, &instances, &mut materialised_predictor, &sim);

        let mut streaming_predictor = SizeyPredictor::with_defaults();
        let mut events: Vec<AttemptEvent> = Vec::new();
        let aggregates = replay_workflow_streaming(
            &spec.name,
            stream_workflow(&spec, &config),
            &mut streaming_predictor,
            &sim,
            &mut events,
        );

        prop_assert_eq!(&aggregates, &ReplayAggregates::from_report(&report));
        prop_assert_eq!(events, report.events);
        prop_assert_eq!(
            streaming_predictor.snapshot(),
            materialised_predictor.snapshot(),
            "learned state diverged between the engines"
        );
    }
}
