//! Bit-equality pin for the mechanical fixes the `cargo xtask lint` rules
//! forced through the tree (PR 8): `partial_cmp` → `total_cmp` conversions,
//! the `HashMap` → `BTreeMap` migration of Sizey's pool index, and the
//! allocation-free predict-path rework (scratch-buffer gating/offset/model
//! kernels).
//!
//! The other equivalence suites (`perf_equivalence`, `streaming_equivalence`,
//! `concurrent_equivalence`) compare two *current* engines against each
//! other, so a numeric change that hits both sides equally slips through
//! them. This suite pins replay output across **commits**: the golden
//! digests below were computed on the tree immediately before the lint
//! fixes landed (`GOLDEN_PRINT=1 cargo test --release --test
//! lint_fix_equivalence -- --nocapture` prints the current values), so any
//! bit-level drift introduced by a "mechanical" migration fails loudly.
//!
//! The digest is FNV-1a over the exact bit patterns (`f64::to_bits`) of
//! every attempt event and aggregate the scenarios produce — if a single
//! allocation, estimate, queue delay or model-selection string changes
//! anywhere, the digest changes.

use sizey_core::select_dynamic_offset;
use sizey_suite::prelude::*;

/// FNV-1a, 64 bit: simple, dependency-free, stable across platforms.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf29ce484222325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bytes(&mut self, s: &[u8]) {
        for &byte in s {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.f64(v);
            }
            None => self.u64(0),
        }
    }
}

fn digest_report(d: &mut Digest, report: &ReplayReport) {
    d.bytes(report.method.as_bytes());
    d.bytes(report.workflow.as_bytes());
    d.u64(report.instances as u64);
    d.u64(report.unfinished_instances as u64);
    d.f64(report.makespan_seconds);
    d.u64(report.events.len() as u64);
    for e in &report.events {
        d.bytes(e.task_type.as_str().as_bytes());
        d.u64(e.sequence);
        d.u64(e.attempt as u64);
        d.f64(e.allocated_bytes);
        d.f64(e.true_peak_bytes);
        d.f64(e.duration_seconds);
        d.u64(e.success as u64);
        d.f64(e.wastage_gbh);
        d.opt_f64(e.raw_estimate_bytes);
        match &e.selected_model {
            Some(m) => {
                d.u64(1);
                d.bytes(m.as_bytes());
            }
            None => d.u64(0),
        }
        d.f64(e.submit_time_seconds);
        d.f64(e.queue_delay_seconds);
    }
}

/// Compares a freshly computed digest against its golden value, or prints it
/// when `GOLDEN_PRINT` is set (used to capture the pre-change goldens).
fn check(name: &str, digest: Digest, golden: u64) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN {name} = 0x{:016x}", digest.0);
        return;
    }
    assert_eq!(
        digest.0, golden,
        "{name}: replay output diverged from the pre-lint-fix tree \
         (got 0x{:016x}, expected 0x{golden:016x})",
        digest.0
    );
}

/// Single-tenant serial replays across two workflow profiles: exercises the
/// full Sizey predict path (gating, RAQ, offsets, all four model classes)
/// plus the `total_cmp` conversions in the accounting sorts.
#[test]
fn serial_replay_output_is_pinned() {
    let mut d = Digest::new();
    for (name, scale, seed) in [("iwd", 0.06, 17), ("chipseq", 0.05, 3)] {
        let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
        let instances = generate_workflow(&spec, &GeneratorConfig::scaled(scale, seed));
        let sim = SimulationConfig::default();
        let mut sizey = SizeyPredictor::with_defaults();
        let report = replay_workflow(&spec.name, &instances, &mut sizey, &sim);
        digest_report(&mut d, &report);
        // The model-selection shares run through the descending share sort
        // (one of the partial_cmp → total_cmp conversions).
        for (model, share) in report.model_selection_share() {
            d.bytes(model.as_bytes());
            d.f64(share);
        }
        // Offset-selection diagnostics pin the dynamic-offset rework.
        let mut selections: Vec<(&'static str, usize)> = sizey
            .offset_selections()
            .into_iter()
            .map(|(s, n)| (s.name(), n))
            .collect();
        selections.sort();
        for (strategy, count) in selections {
            d.bytes(strategy.as_bytes());
            d.u64(count as u64);
        }
    }
    check("serial_replay", d, GOLDEN_SERIAL_REPLAY);
}

/// Multi-tenant event-driven scheduling under BestFit and Backfill:
/// exercises the event-heap ordering (`total_cmp` in `queue.rs`), the
/// scheduler's retry ledger, and the BTreeMap pool-index migration under
/// interleaved multi-pool traffic.
#[test]
fn scheduled_multi_tenant_output_is_pinned() {
    let mut d = Digest::new();
    for policy in [
        SchedulePolicy::FirstFit,
        SchedulePolicy::BestFit,
        SchedulePolicy::Backfill,
    ] {
        let config = SimulationConfig::default().with_policy(policy);
        let tenants: Vec<WorkflowTenant> = [("mag", 0.03, 9u64, 0.0), ("rnaseq", 0.04, 5, 120.0)]
            .into_iter()
            .map(|(name, scale, seed, offset)| {
                let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
                let instances = generate_workflow(&spec, &GeneratorConfig::scaled(scale, seed));
                WorkflowTenant::new(
                    spec.name.clone(),
                    instances,
                    Box::new(SizeyPredictor::with_defaults()),
                )
                .with_arrival_offset(offset)
            })
            .collect();
        let multi = schedule_workflows(tenants, &config);
        d.f64(multi.makespan_seconds);
        d.u64(multi.stats.dispatched_attempts as u64);
        d.f64(multi.stats.total_queue_delay_seconds);
        d.f64(multi.stats.max_queue_delay_seconds);
        d.u64(multi.stats.peak_running_tasks as u64);
        d.f64(multi.stats.peak_allocated_bytes);
        d.u64(multi.stats.peak_inflight_retries as u64);
        d.u64(multi.stats.leaked_inflight_retries as u64);
        for report in &multi.reports {
            digest_report(&mut d, report);
        }
    }
    check("scheduled_multi_tenant", d, GOLDEN_SCHEDULED);
}

/// Multi-tenant scheduling under fault injection: the two Sizey tenants of
/// [`scheduled_multi_tenant_output_is_pinned`] on a smaller cluster with a
/// spot pool, hit by a crash storm, a preemption of the spot pool and a
/// task-kill burst, under every policy. Pins the materialised reports, the
/// full scheduler telemetry (including the requeue counters) and the
/// streaming entry point's aggregates for the same workload, so fault
/// handling cannot drift across commits.
#[test]
fn scheduled_faults_output_is_pinned() {
    let plan = FaultPlan::default()
        .with_storm(CrashStorm {
            time_seconds: 300.0,
            nodes: 2,
            down_seconds: 600.0,
            seed: 7,
        })
        .with_pool_preemption(PoolPreemption {
            pool: 1,
            time_seconds: 900.0,
            return_after_seconds: 1200.0,
        })
        .with_task_kills(TaskKillBurst {
            time_seconds: 1500.0,
            tasks: 3,
        });
    let tenants = || -> Vec<WorkflowTenant> {
        [("mag", 0.03, 9u64, 0.0), ("rnaseq", 0.04, 5, 120.0)]
            .into_iter()
            .map(|(name, scale, seed, offset)| {
                let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
                let instances = generate_workflow(&spec, &GeneratorConfig::scaled(scale, seed));
                WorkflowTenant::new(
                    spec.name.clone(),
                    instances,
                    Box::new(SizeyPredictor::with_defaults()),
                )
                .with_arrival_offset(offset)
            })
            .collect()
    };
    let mut d = Digest::new();
    for policy in SchedulePolicy::ALL {
        let config = SimulationConfig::default()
            .with_nodes(4, 64e9, 8)
            .with_extra_pool(NodePoolSpec {
                count: 2,
                memory_bytes: 128e9,
                slots: 8,
            })
            .with_policy(policy)
            .with_faults(plan.clone());

        let multi = schedule_workflows(tenants(), &config);
        let stats = &multi.stats;
        assert!(stats.crash_lost_attempts > 0, "{policy:?}: storm must kill");
        assert!(
            stats.preempted_attempts > 0,
            "{policy:?}: preemption must kill"
        );
        assert!(
            stats.requeued_attempts > stats.crash_lost_attempts + stats.preempted_attempts,
            "{policy:?}: task-kill burst must kill"
        );
        d.f64(multi.makespan_seconds);
        d.u64(stats.dispatched_attempts as u64);
        d.f64(stats.total_queue_delay_seconds);
        d.f64(stats.max_queue_delay_seconds);
        d.u64(stats.peak_running_tasks as u64);
        d.f64(stats.peak_allocated_bytes);
        d.u64(stats.peak_pending_tasks as u64);
        d.u64(stats.forced_placements as u64);
        d.u64(stats.peak_inflight_retries as u64);
        d.u64(stats.leaked_inflight_retries as u64);
        d.u64(stats.requeued_attempts as u64);
        d.u64(stats.crash_lost_attempts as u64);
        d.u64(stats.preempted_attempts as u64);
        for report in &multi.reports {
            digest_report(&mut d, report);
        }

        let streaming = schedule_workflows_streaming(
            tenants().into_iter().map(StreamingTenant::from).collect(),
            &config,
            &mut NullSink,
            &mut NullRecordSink,
        );
        d.f64(streaming.makespan_seconds);
        d.u64(streaming.peak_inflight_instances as u64);
        d.u64(streaming.leaked_inflight_instances as u64);
        for report in &streaming.reports {
            let a = &report.aggregates;
            d.bytes(report.workflow.as_bytes());
            d.bytes(report.method.as_bytes());
            d.u64(a.attempts);
            d.u64(a.failures);
            d.f64(a.total_wastage_gbh);
            d.f64(a.total_duration_seconds);
            d.f64(a.total_queue_delay_seconds);
            d.f64(a.max_queue_delay_seconds);
            d.u64(a.instances as u64);
            d.u64(a.unfinished_instances as u64);
            d.f64(a.makespan_seconds);
            for (task_type, failures) in &a.failures_by_task_type {
                d.bytes(task_type.as_str().as_bytes());
                d.u64(*failures as u64);
            }
            for (task_type, wastage) in &a.wastage_by_task_type {
                d.bytes(task_type.as_str().as_bytes());
                d.f64(*wastage);
            }
            for (model, count) in &a.model_selections {
                d.bytes(model.as_bytes());
                d.u64(*count as u64);
            }
            d.u64(a.model_selection_total as u64);
        }
    }
    check("scheduled_faults", d, GOLDEN_SCHEDULED_FAULTS);
}

/// Kernel-level pin of the reworked predict-path pieces: offset strategies
/// and their dynamic selection, gating, percentile/median, and the
/// occupancy-model heap ordering — on synthetic fixtures independent of the
/// replay engines.
#[test]
fn predict_path_kernels_are_pinned() {
    let mut d = Digest::new();

    // Offset strategies over a history with under- and over-predictions of
    // varying magnitude (windows shorter and longer than the median buffer).
    let mut history: Vec<(f64, f64)> = Vec::new();
    let mut x = 1.0_f64;
    for i in 0..60 {
        x = (x * 1.3 + i as f64).rem_euclid(97.0);
        let pred = 1e9 + x * 1e8;
        let actual = pred + ((i % 7) as f64 - 3.0) * 2.5e8;
        history.push((pred, actual.max(1e6)));
        let window = &history[history.len().saturating_sub(40)..];
        for strategy in OffsetStrategy::ALL {
            d.f64(strategy.offset(window));
        }
        let (strategy, offset) = select_dynamic_offset(window);
        d.bytes(strategy.name().as_bytes());
        d.f64(offset);
    }

    // The occupancy replay engine (RunningTask heap ordering).
    let spec = sizey_workflows::workflow_by_name("eager").expect("known workflow");
    let instances = generate_workflow(&spec, &GeneratorConfig::scaled(0.05, 11));
    let mut sizey = SizeyPredictor::with_defaults();
    let occupancy = replay_workflow_occupancy(
        &spec.name,
        &instances,
        &mut sizey,
        &SimulationConfig::unbounded(),
    );
    digest_report(&mut d, &occupancy);

    check("predict_path_kernels", d, GOLDEN_KERNELS);
}

/// Replays every learned baseline through `replay_workflow` and digests one
/// report per method. Feeding each method one fresh instance per workflow
/// keeps the per-key histories long (hundreds of observations on `mag`), so
/// the pin covers the baselines' derived per-key state well past warm-up.
fn baseline_digests(workflows: &[(WorkflowSpec, f64)], seed: u64) -> [(&'static str, u64); 4] {
    type Build = fn() -> Box<dyn MemoryPredictor>;
    let methods: [(&'static str, Build); 4] = [
        ("witt_wastage", || Box::new(WittWastage::new())),
        ("witt_lr", || Box::new(WittLr::new())),
        ("tovar_ppm", || Box::new(TovarPpm::new())),
        ("witt_percentile", || Box::new(WittPercentile::new())),
    ];
    let sim = SimulationConfig::default();
    let inputs: Vec<(String, Vec<TaskInstance>)> = workflows
        .iter()
        .map(|(spec, scale)| {
            let config = GeneratorConfig::scaled(*scale, seed);
            (spec.name.clone(), generate_workflow(spec, &config))
        })
        .collect();
    methods.map(|(name, build)| {
        let mut d = Digest::new();
        for (workflow, instances) in &inputs {
            let mut method = build();
            let report = replay_workflow(workflow, instances, method.as_mut(), &sim);
            digest_report(&mut d, &report);
        }
        (name, d.0)
    })
}

fn check_baselines(prefix: &str, digests: [(&'static str, u64); 4], goldens: [u64; 4]) {
    for ((name, digest), golden) in digests.into_iter().zip(goldens) {
        check(&format!("{prefix}_{name}"), Digest(digest), golden);
    }
}

/// Witt-Wastage, Witt-LR, Tovar-PPM and Witt-Percentile on two workflows at
/// a debug-friendly scale where the busiest keys still reach hundreds of
/// observations. Pins every allocation the baselines make, so moving their
/// derived state between `predict` and `observe` cannot drift.
#[test]
fn baseline_replay_output_is_pinned() {
    let workflows = ["mag", "chipseq"]
        .map(|name| (sizey_workflows::workflow_by_name(name).expect("known"), 0.2));
    check_baselines(
        "baseline_replay",
        baseline_digests(&workflows, 42),
        GOLDEN_BASELINES,
    );
}

/// Paper-scale twin of [`baseline_replay_output_is_pinned`]: all six
/// workflows at scale 1.0, seed 42, the setting of the paper's evaluation.
/// Ignored by default to keep the debug suite fast; CI runs it in release
/// with `--include-ignored`.
#[test]
#[ignore]
fn baseline_replay_output_is_pinned_at_paper_scale() {
    let workflows: Vec<(WorkflowSpec, f64)> = all_workflows()
        .into_iter()
        .map(|spec| (spec, 1.0))
        .collect();
    check_baselines(
        "baseline_paper",
        baseline_digests(&workflows, 42),
        GOLDEN_BASELINES_PAPER,
    );
}

// Golden digests captured on the tree immediately before the PR-8 lint
// fixes (see module docs for the capture command).
const GOLDEN_SERIAL_REPLAY: u64 = 0xfbaee312f934df2d;
const GOLDEN_SCHEDULED: u64 = 0x861adc7d669c1355;
const GOLDEN_KERNELS: u64 = 0xfebf2add138eba3e;
// Captured on the tree immediately before `schedule_workflows` became an
// adapter over the streaming engine's event loop.
const GOLDEN_SCHEDULED_FAULTS: u64 = 0x531fb28a33e43a2d;
// Captured on the tree immediately before the baselines' derived state moved
// from `predict` into `observe`, in the order Witt-Wastage, Witt-LR,
// Tovar-PPM, Witt-Percentile.
const GOLDEN_BASELINES: [u64; 4] = [
    0x081ef0602b9a6735,
    0xb541d415805e23eb,
    0x8cd631d93307b1ff,
    0xb2fff4b546232e39,
];
const GOLDEN_BASELINES_PAPER: [u64; 4] = [
    0x87f5fc9ed6000995,
    0xdb838db8f93ff32a,
    0xb0ee0a8d511732c0,
    0xd3cc036cb38b388a,
];
