//! `paper`: the paper's evaluation. All six workflows × the six-method
//! default suite at scale 1.0, each cell replayed through `replay_workflow`
//! on the default 8 × 128 GB cluster, one cell after another on one thread
//! (the forest's own fit threads aside). Learning-heavy; carries the
//! sizing-quality guard (Sizey's wastage and failed attempts).

use crate::stats::{coverage, median, percentile, self_time, sorted, MIN_COVERAGE};
use crate::trace::{process_cpu_s, CallLog, Method, SharedLog, Timed};
use crate::{alloc, run_passes, Args, Measured, Report};
use sizey_bench::MethodSpec;
use sizey_sim::{replay_workflow, SimulationConfig};
use sizey_workflows::{all_workflows, generate_workflow, GeneratorConfig, TaskInstance};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// `MethodSpec::id` of every baseline in the default suite.
pub const BASELINE_IDS: [&str; 5] = [
    "witt-wastage",
    "witt-lr",
    "tovar-ppm",
    "witt-percentile",
    "preset",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

type Workloads = Vec<(String, Vec<TaskInstance>)>;

/// One replay of every cell.
struct Pass {
    wall_s: f64,
    /// Process CPU time of the pass (all threads).
    cpu_s: f64,
    /// Sum of the `replay_workflow` call durations.
    engine_s: f64,
    attempts: u64,
    sizey_wastage_gbh: f64,
    sizey_failed: u64,
    peak_heap_mb: f64,
    makespan_s: f64,
    queue_delay_s: f64,
    /// Allocations that were not finite and positive.
    bad_allocations: u64,
    /// Cells whose finished + unfinished instances differ from the input.
    lost_instances: u64,
    /// Traced passes only: the call log of each method, by id.
    logs: BTreeMap<&'static str, CallLog>,
}

fn pass(workloads: &Workloads, methods: &[MethodSpec], traced: bool) -> Pass {
    let sim = SimulationConfig::default();
    let shared: Vec<SharedLog> = methods.iter().map(|_| SharedLog::default()).collect();
    let mut out = Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        engine_s: 0.0,
        attempts: 0,
        sizey_wastage_gbh: 0.0,
        sizey_failed: 0,
        peak_heap_mb: 0.0,
        makespan_s: 0.0,
        queue_delay_s: 0.0,
        bad_allocations: 0,
        lost_instances: 0,
        logs: BTreeMap::new(),
    };
    alloc::reset_peak();
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    for (method, log) in methods.iter().zip(&shared) {
        for (name, instances) in workloads {
            let cell = Instant::now();
            let report = if traced {
                let inner = match method.build_sizey() {
                    Some(sizey) => Method::Sizey(Box::new(sizey)),
                    None => Method::Other(method.build()),
                };
                let mut timed = Timed::new(inner, Arc::clone(log));
                replay_workflow(name, instances, &mut timed, &sim)
            } else {
                let mut predictor = method.build();
                replay_workflow(name, instances, predictor.as_mut(), &sim)
            };
            out.engine_s += cell.elapsed().as_secs_f64();
            out.attempts += report.events.len() as u64;
            out.makespan_s += report.makespan_seconds;
            out.queue_delay_s += report.total_queue_delay_seconds();
            out.bad_allocations += report
                .events
                .iter()
                .filter(|e| !(e.allocated_bytes.is_finite() && e.allocated_bytes > 0.0))
                .count() as u64;
            if report.finished_instances() + report.unfinished_instances != instances.len() {
                out.lost_instances += 1;
            }
            if matches!(method, MethodSpec::Sizey(_)) {
                out.sizey_wastage_gbh += report.total_wastage_gbh();
                out.sizey_failed += report.total_failures() as u64;
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu0;
    out.peak_heap_mb = alloc::peak_mb();
    if traced {
        for (method, log) in methods.iter().zip(shared) {
            let log = Arc::try_unwrap(log)
                .ok()
                .and_then(|m| m.into_inner().ok())
                .expect("every timed predictor was dropped");
            out.logs.insert(method.id(), log);
        }
    }
    out
}

fn end_to_end(report: &mut Report, passes: &[Pass]) {
    let rate = |secs: fn(&Pass) -> f64| {
        median(
            &passes
                .iter()
                .map(|p| p.attempts as f64 / secs(p))
                .collect::<Vec<_>>(),
        )
    };
    let heaps: Vec<f64> = passes.iter().map(|p| p.peak_heap_mb).collect();
    report.metric("attempts_per_cpu_s", rate(|p| p.cpu_s), "1/s");
    report.metric("attempts_per_s", rate(|p| p.wall_s), "1/s");
    report.metric("wastage_gbh", passes[0].sizey_wastage_gbh, "GBh");
    report.metric(
        "sim.failed_attempts",
        passes[0].sizey_failed as f64,
        "count",
    );
    report.metric("peak_heap_mb", median(&heaps), "MB");
}

fn check_pass(report: &mut Report, label: &str, p: &Pass) {
    report.check(
        &format!("{label}.allocations_finite_positive"),
        p.bad_allocations == 0,
        format!("{} bad of {} attempts", p.bad_allocations, p.attempts),
    );
    report.check(
        &format!("{label}.instances_conserved"),
        p.lost_instances == 0,
        format!("{} cells lost instances", p.lost_instances),
    );
    report.attempted += p.attempts;
    report.failed += p.bad_allocations;
}

/// Checks that `other` produced bit-identical quality results to `first`.
fn check_same(report: &mut Report, name: &str, first: &Pass, other: &Pass) {
    report.check(
        name,
        first.sizey_wastage_gbh.to_bits() == other.sizey_wastage_gbh.to_bits()
            && first.sizey_failed == other.sizey_failed
            && first.attempts == other.attempts,
        format!(
            "wastage {} vs {}, failed {} vs {}",
            first.sizey_wastage_gbh,
            other.sizey_wastage_gbh,
            first.sizey_failed,
            other.sizey_failed
        ),
    );
}

fn per_layer(report: &mut Report, traced: &Pass, overhead_s: f64) {
    let sizey = &traced.logs["sizey"];
    let sorted_us = |ns: &[u64]| sorted(&ns.iter().map(|&n| n as f64 / 1000.0).collect::<Vec<_>>());
    let predict_us = sorted_us(&sizey.predict_ns);
    let observe_us = sorted_us(&sizey.observe_ns);
    report.timing("core.predict", &predict_us);
    report.timing("core.observe", &observe_us);
    let train_s = sizey.train_ns as f64 / 1e9;
    let core_s = sizey.predict_s() + sizey.observe_s();
    report.metric("core.predict_s", sizey.predict_s(), "s");
    report.latency("core.predict_p99_us", percentile(&predict_us, 99.0));
    report.metric("core.observe_s", sizey.observe_s(), "s");
    report.latency("core.observe_p50_us", percentile(&observe_us, 50.0));
    report.latency("core.observe_p99_us", percentile(&observe_us, 99.0));
    report.metric("core.full_retrains", sizey.full_retrains as f64, "count");
    report.metric(
        "core.full_retrain_s",
        sizey.full_retrain_ns as f64 / 1e9,
        "s",
    );
    report.metric("ml.train_s", train_s, "s");

    let mut baselines_s = 0.0;
    for id in BASELINE_IDS {
        let log = &traced.logs[id];
        report.metric(format!("baselines.{id}.predict_s"), log.predict_s(), "s");
        report.metric(format!("baselines.{id}.observe_s"), log.observe_s(), "s");
        baselines_s += log.predict_s() + log.observe_s();
    }
    let bad: u64 = traced.logs.values().map(|l| l.bad_predictions).sum();
    report.check(
        "traced.predictions_finite_positive",
        bad == 0,
        format!("{bad} predictions not finite and positive"),
    );

    let sim_self = self_time(traced.engine_s, &[core_s, baselines_s]);
    report.metric("sim.self_s", sim_self, "s");
    report.metric("sim.dispatched_attempts", traced.attempts as f64, "count");
    report.metric(
        "sim.us_per_attempt",
        sim_self / traced.attempts as f64 * 1e6,
        "us",
    );
    report.metric("sim.makespan_s", traced.makespan_s, "s");
    report.metric(
        "sim.mean_queue_delay_s",
        traced.queue_delay_s / traced.attempts as f64,
        "s",
    );

    let core_self = self_time(core_s, &[train_s]);
    let covered = coverage(&[core_self, train_s, baselines_s, sim_self], traced.wall_s);
    report.metric("trace.coverage", covered, "share");
    report.metric("trace.overhead_s", overhead_s, "s");
    report.check(
        "traced.layer_coverage",
        covered >= MIN_COVERAGE,
        format!(
            "layers cover {:.1}% of {:.3} s",
            covered * 100.0,
            traced.wall_s
        ),
    );
    println!(
        "layers (traced pass, {:.3} s): core {:.3} s, ml {:.3} s, baselines {:.3} s, sim {:.3} s",
        traced.wall_s, core_self, train_s, baselines_s, sim_self
    );
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) {
    let generator = GeneratorConfig::scaled(1.0, args.seed);
    let specs = all_workflows();
    let mut workloads: Workloads = Vec::new();
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let cpu0 = process_cpu_s();
        workloads = specs
            .iter()
            .map(|spec| (spec.name.clone(), generate_workflow(spec, &generator)))
            .collect();
        setups.push(process_cpu_s() - cpu0);
    }
    report.setup(&setups);
    report.metric("workflows.generate_s", median(&setups), "s");
    let instances: usize = workloads.iter().map(|(_, i)| i.len()).sum();
    println!("paper: {instances} instances over 6 workflows, 6 methods, scale 1.0");

    let methods = MethodSpec::default_suite();
    let runs = run_passes(args, |traced| pass(&workloads, &methods, traced));
    for p in &runs.untraced {
        check_pass(report, "untraced", p);
        check_same(report, "untraced_repeats", &runs.untraced[0], p);
    }
    for p in &runs.traced {
        check_pass(report, "traced", p);
        check_same(report, "traced_equals_untraced", &runs.untraced[0], p);
    }
    end_to_end(report, &runs.untraced);
    if let Some(traced) = runs.median_traced() {
        per_layer(report, traced, runs.overhead_cpu_s());
    }
}

impl Measured for Pass {
    fn wall_s(&self) -> f64 {
        self.wall_s
    }

    fn cpu_s(&self) -> f64 {
        self.cpu_s
    }
}
