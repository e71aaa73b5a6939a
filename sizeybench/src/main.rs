//! The repository benchmark. One command runs one workload, prints every
//! metric by name with its unit, checks the program's outputs and ends with
//! a one-line JSON result:
//!
//! ```text
//! cargo run --release --manifest-path sizeybench/Cargo.toml -- \
//!     --workload paper|serve --seed 42 --seconds 30 --trace 0|1
//! ```
//!
//! `--trace 0` measures untraced and reports the end-to-end metrics.
//! `--trace 1` runs untraced and traced passes side by side, reports the
//! per-layer metrics of the traced pass and the tracing overhead, and checks
//! that tracing did not change the results. The process exits non-zero when
//! any correctness check fails. See `README.md` for the workloads and the
//! layer → end-to-end map.

mod alloc;
mod paper;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// End-to-end metrics every workload reports: name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("attempts_per_cpu_s", "1/s"),
    ("wastage_gbh", "GBh"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics every workload reports under `--trace 1`; a layer a
/// workload does not exercise reads 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("timer.now_ns", "ns"),
        ("trace.coverage", "share"),
        ("trace.overhead_s", "s"),
        ("workflows.generate_s", "s"),
        ("sim.self_s", "s"),
        ("sim.us_per_attempt", "us"),
        ("sim.dispatched_attempts", "count"),
        ("sim.failed_attempts", "count"),
        ("sim.makespan_s", "s"),
        ("sim.mean_queue_delay_s", "s"),
        ("core.predict_s", "s"),
        ("core.predict_p99_us", "us"),
        ("core.observe_s", "s"),
        ("core.observe_p50_us", "us"),
        ("core.observe_p99_us", "us"),
        ("core.full_retrains", "count"),
        ("core.full_retrain_s", "s"),
        ("ml.train_s", "s"),
        ("serve.predict_p50_us", "us"),
        ("serve.predict_p99_us", "us"),
        ("serve.sustained_rate_per_s", "1/s"),
        ("serve.shed_share", "share"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for id in paper::BASELINE_IDS {
        out.push((format!("baselines.{id}.predict_s"), "s"));
        out.push((format!("baselines.{id}.observe_s"), "s"));
    }
    for rate in serve::LADDER {
        for (name, unit) in serve::PER_RATE {
            out.push((format!("service.r{rate}.{name}"), unit));
        }
    }
    out
}

/// Command-line arguments.
pub struct Args {
    /// `paper` or `serve`.
    pub workload: String,
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// How long one run measures.
    pub seconds: f64,
    /// Whether to run the traced pass.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !["paper", "serve"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be paper or serve, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Everything one run measured and checked.
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    checks: Vec<(String, bool, String)>,
    unresolved: Vec<String>,
    clock_ns: f64,
    /// Operations the run performed (replayed attempts, service requests).
    pub attempted: u64,
    /// Operations that returned a wrong result.
    pub failed: u64,
}

impl Report {
    fn new(clock_ns: f64) -> Self {
        Report {
            metrics: BTreeMap::new(),
            checks: Vec::new(),
            unresolved: Vec::new(),
            clock_ns,
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Records a per-call latency percentile in microseconds, marking it
    /// unresolved when it is below twice the cost of reading the clock.
    pub fn latency(&mut self, name: impl Into<String>, value_us: f64) {
        let name = name.into();
        if value_us * 1000.0 < 2.0 * self.clock_ns {
            self.unresolved.push(name.clone());
        }
        self.metric(name, value_us, "us");
    }

    /// Prints a timing series as the benchmark summarises timings: its
    /// median and the highest percentile with at least ten samples beyond
    /// it, with the sample count.
    pub fn timing(&self, name: &str, sorted_us: &[f64]) {
        let n = sorted_us.len();
        match stats::tail_percentile(n) {
            Some(p) => println!(
                "timing {name}: n={n} p50={:.3} us p{p}={:.3} us",
                stats::percentile(sorted_us, 50.0),
                stats::percentile(sorted_us, p)
            ),
            None => println!("timing {name}: n={n}, too few samples for a percentile"),
        }
    }

    /// Records `setup_s` as the median of the set-up times of one run.
    pub fn setup(&mut self, samples: &[f64]) {
        let shown: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
        println!(
            "setup: {} set-ups, seconds [{}]",
            samples.len(),
            shown.join(", ")
        );
        self.metric("setup_s", stats::median(samples), "s");
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
            && self.metrics.values().all(|(v, _)| v.is_finite())
    }

    fn print(&self) {
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            println!("check {name}: {verdict} ({detail})");
        }
        for (name, (value, unit)) in &self.metrics {
            let mark = if self.unresolved.contains(name) {
                "  [unresolved: below 2x clock cost]"
            } else {
                ""
            };
            println!("metric {name} = {value} {unit}{mark}");
        }
    }

    fn json(&self, trace: bool) -> String {
        let names: Vec<(String, &str)> = if trace {
            per_layer_metrics()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let mut body = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some((v, _)) if v.is_finite() => *v,
                Some(_) => 0.0,
                None if trace => 0.0,
                None => panic!("workload did not report end-to-end metric {name}"),
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// One measured pass over a workload's fixed amount of work.
pub trait Measured {
    /// Wall time of the pass.
    fn wall_s(&self) -> f64;
    /// Process CPU time of the pass, all threads.
    fn cpu_s(&self) -> f64;
}

/// The passes of one run.
pub struct Runs<P> {
    /// Untraced passes: the end-to-end metrics come from these.
    pub untraced: Vec<P>,
    /// Traced passes (`--trace 1` only): the per-layer metrics.
    pub traced: Vec<P>,
}

impl<P: Measured> Runs<P> {
    /// The traced pass with the median wall time, if any ran.
    pub fn median_traced(&self) -> Option<&P> {
        let mut passes: Vec<&P> = self.traced.iter().collect();
        passes.sort_by(|a, b| a.wall_s().total_cmp(&b.wall_s()));
        passes.get(passes.len() / 2).copied()
    }

    /// Tracing overhead: median CPU seconds of a traced pass minus those of
    /// an untraced one.
    pub fn overhead_cpu_s(&self) -> f64 {
        let cpu = |passes: &[P]| stats::median(&passes.iter().map(P::cpu_s).collect::<Vec<_>>());
        cpu(&self.traced) - cpu(&self.untraced)
    }
}

/// Runs passes for about `args.seconds`: untraced ones, or under
/// `--trace 1` an untraced and a traced pass in turn. A further round
/// starts only while at least half of the previous one still fits; there
/// is always one.
pub fn run_passes<P: Measured>(args: &Args, mut pass: impl FnMut(bool) -> P) -> Runs<P> {
    let start = Instant::now();
    let mut runs = Runs {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    let mut logged = |traced: bool| {
        let p = pass(traced);
        let kind = if traced { "traced" } else { "untraced" };
        println!(
            "pass ({kind}): wall {:.3} s, cpu {:.3} s",
            p.wall_s(),
            p.cpu_s()
        );
        p
    };
    loop {
        let round = Instant::now();
        runs.untraced.push(logged(false));
        if args.trace {
            runs.traced.push(logged(true));
        }
        let last = round.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last / 2.0 >= args.seconds {
            return runs;
        }
    }
}

/// The commit of the checkout, read from `.git` without leaving it.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sizeybench: {message}");
            std::process::exit(2);
        }
    };
    let clock_ns = trace::clock_cost_ns();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "stamp workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\" commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("SIZEYBENCH_RUSTC"),
        git_commit()
    );
    println!("timer: back-to-back Instant::now() costs {clock_ns:.1} ns");

    let mut report = Report::new(clock_ns);
    report.metric("timer.now_ns", clock_ns, "ns");
    match args.workload.as_str() {
        "paper" => paper::run(&args, &mut report),
        _ => serve::run(&args, &mut report),
    }
    report.print();
    let correct = report.correct();
    println!("{}", report.json(args.trace));
    if !correct {
        std::process::exit(1);
    }
}
