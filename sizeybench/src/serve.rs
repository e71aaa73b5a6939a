//! `serve`: online serving. `AsyncService` over two Sizey shards (history
//! window 64, deferred retrains, Shed admission) with pre-seeded tenants.
//! One generator thread runs an open-loop arrival schedule up a fixed
//! ladder of rates spanning the knee and issues one observe per five
//! predicts. Every request is timed from when it was due, so a stall
//! counts against every request it delays. Exercises `service` and Sizey's
//! snapshot predicts beside deferred retrains; bypasses `sim` and
//! `workflows`.

use crate::stats::{coverage, percentile, sorted, sustained_rate, LevelOutcome, MIN_COVERAGE};
use crate::trace::process_cpu_s;
use crate::{alloc, Args, Report};
use sizey_core::{
    AdmissionPolicy, AsyncService, AsyncSizey, ConcurrentPredictor, ServiceConfig, ServiceStats,
    SizeyConfig, SizeyPredictor,
};
use sizey_provenance::{MachineId, TaskOutcome, TaskRecord, TaskTypeId};
use sizey_sim::{AttemptContext, TaskSubmission};
use std::time::{Duration, Instant};

/// Nominal arrival rates of the ladder, predicts per second.
pub const LADDER: [u64; 5] = [5_000, 10_000, 20_000, 30_000, 40_000];
/// The rate at which `serve.predict_p50_us` / `_p99_us` are read.
const NOMINAL_RATE: u64 = 10_000;
/// Per-rate metrics of the traced run: name suffix and unit.
pub const PER_RATE: [(&str, &str); 9] = [
    ("predict_call_p99_us", "us"),
    ("observe_submit_p99_us", "us"),
    ("generator_late_max_ms", "ms"),
    ("batches", "count"),
    ("snapshots_published", "count"),
    ("retrains_installed", "count"),
    ("retrain_backlog", "count"),
    ("queue_depth_max", "count"),
    ("flush_ms", "ms"),
];
/// Latency limit from due time for the sustained-rate rule.
const LIMIT_US: f64 = 10_000.0;
const SHARDS: usize = 2;
const TENANTS: usize = 2000;
const SEED_RECORDS: u64 = 4;
const HISTORY_WINDOW: usize = 64;
const OBSERVE_EVERY: u64 = 5;
/// Input sizes a tenant's tasks draw from, GB.
const INPUT_SIZES_GB: u64 = 8;
/// Runtime attributed to every served task for `wastage_gbh`, seconds.
const TASK_RUNTIME_S: f64 = 60.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Traced runs sample the shard queue depths once per this many requests.
const DEPTH_SAMPLE_EVERY: u64 = 64;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 4096,
        batch_max: 128,
        batch_window: Duration::from_micros(100),
        admission: AdmissionPolicy::Shed,
        deferred_retrains: true,
        retrain_cap_per_batch: 2,
    }
}

/// SplitMix64: the workload's seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A tenant: a distinct (task type, machine) key with a linear
/// input → peak-memory relation drawn from the seed.
struct Tenant {
    task_type: TaskTypeId,
    machine: MachineId,
    bytes_per_input_byte: f64,
    base_bytes: f64,
}

impl Tenant {
    fn peak_bytes(&self, input_gb: u64) -> f64 {
        self.bytes_per_input_byte * input_gb as f64 * 1e9 + self.base_bytes
    }

    fn submission(&self, sequence: u64, input_gb: u64) -> TaskSubmission {
        TaskSubmission {
            workflow: "serve".into(),
            task_type: self.task_type.clone(),
            machine: self.machine.clone(),
            sequence,
            input_bytes: input_gb as f64 * 1e9,
            preset_memory_bytes: 64e9,
        }
    }

    fn record(&self, sequence: u64, input_gb: u64) -> TaskRecord {
        let peak = self.peak_bytes(input_gb);
        TaskRecord {
            workflow: "serve".into(),
            task_type: self.task_type.clone(),
            machine: self.machine.clone(),
            sequence,
            input_bytes: input_gb as f64 * 1e9,
            peak_memory_bytes: peak,
            allocated_memory_bytes: peak * 1.25,
            runtime_seconds: TASK_RUNTIME_S,
            concurrent_tasks: 1,
            queue_delay_seconds: 0.0,
            outcome: TaskOutcome::Succeeded,
        }
    }
}

fn tenants(rng: &mut Rng) -> Vec<Tenant> {
    (0..TENANTS)
        .map(|i| Tenant {
            task_type: TaskTypeId::new(format!("tenant-{i:04}")),
            machine: MachineId::new(format!("node-{:02}", i % 16)),
            bytes_per_input_byte: 1.0 + 2.0 * rng.unit(),
            base_bytes: 2e8 + 8e8 * rng.unit(),
        })
        .collect()
}

/// Builds the seeded service: every tenant's pool sees `SEED_RECORDS`
/// records before the service starts.
fn build_service(tenants: &[Tenant], sequence: &mut u64) -> AsyncSizey {
    let config = SizeyConfig::default().with_history_window(HISTORY_WINDOW);
    let inner = ConcurrentPredictor::new(SHARDS, |_| SizeyPredictor::new(config.clone()));
    let seeds: Vec<TaskRecord> = tenants
        .iter()
        .flat_map(|t| (0..SEED_RECORDS).map(move |i| (t, i)))
        .map(|(t, i)| {
            *sequence += 1;
            t.record(*sequence, 1 + (i * 3) % INPUT_SIZES_GB)
        })
        .collect();
    inner.observe_batch(&seeds);
    AsyncService::new(inner, service_config())
}

/// One ladder level as measured.
#[derive(Default)]
struct Level {
    rate: u64,
    wall_s: f64,
    due_latency_us: Vec<f64>,
    predict_call_us: Vec<f64>,
    observe_submit_us: Vec<f64>,
    late_max_ms: f64,
    /// How late the level's last request was issued: the backlog the
    /// generator ended the level with.
    late_last_ms: f64,
    /// Time the generator slept waiting for due times.
    idle_s: f64,
    /// Time inside `predict` and `observe` calls (traced only).
    calls_s: f64,
    flush_ms: f64,
    queue_depth_max: usize,
    submitted: u64,
    refused: u64,
    bad_predictions: u64,
    stats: ServiceStats,
}

impl Level {
    /// Requests served: predicts answered within the latency limit plus
    /// observes accepted (and, after the flush, applied). A late or refused
    /// request is not served.
    fn served(&self) -> u64 {
        let in_time = self
            .due_latency_us
            .iter()
            .filter(|&&l| l <= LIMIT_US)
            .count() as u64;
        in_time + self.submitted - self.refused
    }

    fn outcome(&self) -> LevelOutcome {
        LevelOutcome {
            rate_per_s: self.rate as f64,
            p99_from_due_us: percentile(&sorted(&self.due_latency_us), 99.0),
            refused: self.refused,
            generator_kept_up: self.late_last_ms * 1000.0 <= LIMIT_US,
        }
    }
}

fn delta(before: &ServiceStats, after: &ServiceStats) -> ServiceStats {
    ServiceStats {
        predicts: after.predicts - before.predicts,
        submitted: after.submitted - before.submitted,
        accepted: after.accepted - before.accepted,
        shed: after.shed - before.shed,
        observed: after.observed - before.observed,
        batches: after.batches - before.batches,
        snapshots_published: after.snapshots_published - before.snapshots_published,
        retrains_installed: after.retrains_installed - before.retrains_installed,
        retrain_backlog: after.retrain_backlog,
    }
}

/// Runs one open-loop level: request `k` is due `k / rate` seconds after
/// the level starts, whether or not earlier requests have returned.
fn run_level(
    service: &AsyncSizey,
    tenants: &[Tenant],
    rng: &mut Rng,
    sequence: &mut u64,
    rate: u64,
    seconds: f64,
    traced: bool,
) -> Level {
    let requests = (rate as f64 * seconds).round() as u64;
    let mut level = Level {
        rate,
        due_latency_us: Vec::with_capacity(requests as usize),
        ..Level::default()
    };
    let before = service.stats();
    let start = Instant::now();
    for k in 0..requests {
        let due = start + Duration::from_secs_f64(k as f64 / rate as f64);
        let now = Instant::now();
        level.late_last_ms = 0.0;
        if due > now {
            std::thread::sleep(due - now);
            level.idle_s += now.elapsed().as_secs_f64();
        } else {
            level.late_last_ms = (now - due).as_secs_f64() * 1e3;
            level.late_max_ms = level.late_max_ms.max(level.late_last_ms);
        }
        let tenant = &tenants[(rng.next() % TENANTS as u64) as usize];
        let input_gb = 1 + rng.next() % INPUT_SIZES_GB;
        *sequence += 1;
        let task = tenant.submission(*sequence, input_gb);

        let call = traced.then(Instant::now);
        let prediction = service.predict(&task, AttemptContext::first());
        let answered = Instant::now();
        level
            .due_latency_us
            .push((answered - due).as_secs_f64() * 1e6);
        let alloc = prediction.allocation_bytes;
        level.bad_predictions += u64::from(!(alloc.is_finite() && alloc > 0.0));
        if let Some(call) = call {
            let us = (answered - call).as_secs_f64() * 1e6;
            level.predict_call_us.push(us);
            level.calls_s += us / 1e6;
        }

        if k % OBSERVE_EVERY == 0 {
            let record = tenant.record(*sequence, input_gb);
            let call = traced.then(Instant::now);
            let accepted = service.observe(&record);
            if let Some(call) = call {
                let us = call.elapsed().as_secs_f64() * 1e6;
                level.observe_submit_us.push(us);
                level.calls_s += us / 1e6;
            }
            level.submitted += 1;
            level.refused += u64::from(!accepted);
        }
        if traced && k % DEPTH_SAMPLE_EVERY == 0 {
            let depth = service.queue_depths().into_iter().max().unwrap_or(0);
            level.queue_depth_max = level.queue_depth_max.max(depth);
        }
    }
    level.wall_s = start.elapsed().as_secs_f64();
    let flush = Instant::now();
    service.flush();
    level.flush_ms = flush.elapsed().as_secs_f64() * 1e3;
    level.stats = delta(&before, &service.stats());
    level
}

/// Sizing quality of the served models once the ladder is over.
#[derive(Default)]
struct Probe {
    /// Over-allocation × task runtime over every tenant at every input
    /// size, GBh.
    wastage_gbh: f64,
    /// Allocations below the true peak: tasks that would fail.
    under_allocated: u64,
    bad_predictions: u64,
}

fn probe(service: &AsyncSizey, tenants: &[Tenant], sequence: &mut u64) -> Probe {
    let mut out = Probe::default();
    for tenant in tenants {
        for input_gb in 1..=INPUT_SIZES_GB {
            *sequence += 1;
            let task = tenant.submission(*sequence, input_gb);
            let alloc = service
                .predict(&task, AttemptContext::first())
                .allocation_bytes;
            out.bad_predictions += u64::from(!(alloc.is_finite() && alloc > 0.0));
            let peak = tenant.peak_bytes(input_gb);
            if alloc >= peak {
                out.wastage_gbh += (alloc - peak) / 1e9 * TASK_RUNTIME_S / 3600.0;
            } else {
                out.under_allocated += 1;
            }
        }
    }
    out
}

struct Ladder {
    levels: Vec<Level>,
    /// Wall time of the ladder, flushes between levels included.
    wall_s: f64,
    /// Process CPU time of the ladder: generator and shard workers.
    cpu_s: f64,
    probe: Probe,
    peak_heap_mb: f64,
    final_stats: ServiceStats,
    flushed_stats: ServiceStats,
}

impl Ladder {
    fn top(&self) -> &Level {
        self.levels.last().expect("ladder has levels")
    }

    fn nominal(&self) -> &Level {
        self.levels
            .iter()
            .find(|l| l.rate == NOMINAL_RATE)
            .expect("ladder contains the nominal rate")
    }
}

fn ladder(
    service: AsyncSizey,
    tenants: &[Tenant],
    args: &Args,
    traced: bool,
    mut sequence: u64,
) -> Ladder {
    let mut rng = Rng(!args.seed);
    let level_s = args.seconds / LADDER.len() as f64;
    alloc::reset_peak();
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let levels: Vec<Level> = LADDER
        .iter()
        .map(|&rate| {
            run_level(
                &service,
                tenants,
                &mut rng,
                &mut sequence,
                rate,
                level_s,
                traced,
            )
        })
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let peak_heap_mb = alloc::peak_mb();
    let probe = probe(&service, tenants, &mut sequence);
    let flushed_stats = service.stats();
    let final_stats = service.shutdown();
    Ladder {
        levels,
        wall_s,
        cpu_s,
        probe,
        peak_heap_mb,
        final_stats,
        flushed_stats,
    }
}

fn check_ladder(report: &mut Report, label: &str, l: &Ladder) {
    let s = &l.flushed_stats;
    report.check(
        &format!("{label}.accepted_plus_shed_is_submitted"),
        s.accepted + s.shed == s.submitted,
        format!("{} + {} vs {}", s.accepted, s.shed, s.submitted),
    );
    report.check(
        &format!("{label}.observed_equals_accepted_after_flush"),
        s.observed == s.accepted && l.final_stats.observed == l.final_stats.accepted,
        format!("{} observed of {} accepted", s.observed, s.accepted),
    );
    let submitted: u64 = l.levels.iter().map(|v| v.submitted).sum();
    let refused: u64 = l.levels.iter().map(|v| v.refused).sum();
    report.check(
        &format!("{label}.generator_counts_match_service"),
        submitted == s.submitted && refused == s.shed,
        format!("{submitted} submitted / {refused} refused seen by the generator"),
    );
    let bad = l.probe.bad_predictions + l.levels.iter().map(|v| v.bad_predictions).sum::<u64>();
    report.check(
        &format!("{label}.predictions_finite_positive"),
        bad == 0,
        format!("{bad} predictions not finite and positive"),
    );
    report.attempted += s.predicts + s.submitted;
    report.failed += bad;
}

fn end_to_end(report: &mut Report, l: &Ladder) {
    // The ladder's time includes the flush after each level, so a backlog
    // left to drain costs throughput.
    let served = l.levels.iter().map(Level::served).sum::<u64>() as f64;
    report.metric("attempts_per_cpu_s", served / l.cpu_s, "1/s");
    report.metric("attempts_per_s", served / l.wall_s, "1/s");
    report.metric("wastage_gbh", l.probe.wastage_gbh, "GBh");
    println!(
        "serve: after the ladder {} of {} probe allocations are below the true peak",
        l.probe.under_allocated,
        TENANTS as u64 * INPUT_SIZES_GB
    );
    report.metric("peak_heap_mb", l.peak_heap_mb, "MB");
    let nominal = sorted(&l.nominal().due_latency_us);
    report.latency("serve.predict_p50_us", percentile(&nominal, 50.0));
    report.latency("serve.predict_p99_us", percentile(&nominal, 99.0));
    let outcomes: Vec<LevelOutcome> = l.levels.iter().map(Level::outcome).collect();
    report.metric(
        "serve.sustained_rate_per_s",
        sustained_rate(&outcomes, LIMIT_US),
        "1/s",
    );
    let top = l.top();
    report.metric(
        "serve.shed_share",
        top.refused as f64 / top.submitted.max(1) as f64,
        "share",
    );
    for level in &l.levels {
        let o = level.outcome();
        report.timing(
            &format!("serve.r{}.predict_from_due", level.rate),
            &sorted(&level.due_latency_us),
        );
        println!(
            "serve level {}/s: {:.3} s, p99 from due {:.1} us, late max {:.3} ms \
             (last {:.3} ms), {} of {} observes refused",
            level.rate,
            level.wall_s,
            o.p99_from_due_us,
            level.late_max_ms,
            level.late_last_ms,
            level.refused,
            level.submitted,
        );
    }
}

fn per_layer(report: &mut Report, l: &Ladder, overhead_s: f64) {
    let mut calls_s = 0.0;
    let mut flush_s = 0.0;
    let mut idle_s = 0.0;
    for level in &l.levels {
        let r = level.rate;
        let predict = sorted(&level.predict_call_us);
        let observe = sorted(&level.observe_submit_us);
        report.timing(&format!("service.r{r}.predict_call"), &predict);
        report.timing(&format!("service.r{r}.observe_submit"), &observe);
        report.latency(
            format!("service.r{r}.predict_call_p99_us"),
            percentile(&predict, 99.0),
        );
        report.latency(
            format!("service.r{r}.observe_submit_p99_us"),
            percentile(&observe, 99.0),
        );
        report.metric(
            format!("service.r{r}.generator_late_max_ms"),
            level.late_max_ms,
            "ms",
        );
        report.metric(
            format!("service.r{r}.batches"),
            level.stats.batches as f64,
            "count",
        );
        report.metric(
            format!("service.r{r}.snapshots_published"),
            level.stats.snapshots_published as f64,
            "count",
        );
        report.metric(
            format!("service.r{r}.retrains_installed"),
            level.stats.retrains_installed as f64,
            "count",
        );
        report.metric(
            format!("service.r{r}.retrain_backlog"),
            level.stats.retrain_backlog as f64,
            "count",
        );
        report.metric(
            format!("service.r{r}.queue_depth_max"),
            level.queue_depth_max as f64,
            "count",
        );
        report.metric(format!("service.r{r}.flush_ms"), level.flush_ms, "ms");
        calls_s += level.calls_s;
        flush_s += level.flush_ms / 1e3;
        idle_s += level.idle_s;
    }
    // The generator's wall: calls into the service, flushes between levels
    // and sleeping until the next request is due (open-loop idle time).
    let wall_s = l.wall_s;
    let covered = coverage(&[calls_s, flush_s, idle_s], wall_s);
    report.metric("trace.coverage", covered, "share");
    report.metric("trace.overhead_s", overhead_s, "s");
    report.check(
        "traced.layer_coverage",
        covered >= MIN_COVERAGE,
        format!("layers cover {:.1}% of {:.3} s", covered * 100.0, wall_s),
    );
    println!(
        "layers (traced ladder, {wall_s:.3} s): service calls {calls_s:.3} s, \
         flush {flush_s:.3} s, generator idle {idle_s:.3} s"
    );
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) {
    let mut rng = Rng(args.seed);
    let tenants = tenants(&mut rng);
    let mut sequence = 0u64;
    let mut setups = Vec::new();
    let mut timed_build = |sequence: &mut u64| {
        let cpu0 = process_cpu_s();
        let service = build_service(&tenants, sequence);
        setups.push(process_cpu_s() - cpu0);
        service
    };
    for _ in 1..SETUPS {
        timed_build(&mut sequence).shutdown();
    }
    let service = timed_build(&mut sequence);
    println!(
        "serve: {TENANTS} tenants, {SHARDS} shards, ladder {LADDER:?}/s, \
         {:.2} s per level, 1 observe per {OBSERVE_EVERY} predicts",
        args.seconds / LADDER.len() as f64
    );
    let untraced = ladder(service, &tenants, args, false, sequence);
    check_ladder(report, "untraced", &untraced);
    end_to_end(report, &untraced);
    if args.trace {
        let service = timed_build(&mut sequence);
        let traced = ladder(service, &tenants, args, true, sequence);
        check_ladder(report, "traced", &traced);
        per_layer(report, &traced, traced.cpu_s - untraced.cpu_s);
    }
    report.setup(&setups);
}
