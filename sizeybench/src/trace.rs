//! Bench-side tracing: spans timed from outside around the public calls
//! into each layer. Nothing here changes what the program computes; the
//! traced run's results are checked bit-equal to the untraced run's.

use sizey_core::SizeyPredictor;
use sizey_provenance::{TaskOutcome, TaskRecord};
use sizey_sim::{AttemptContext, MemoryPredictor, Prediction, TaskSubmission};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cost of one `Instant::now()` call in nanoseconds: the median over
/// batches of back-to-back calls.
pub fn clock_cost_ns() -> f64 {
    const CALLS: u32 = 100_000;
    let mut batches: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS {
                black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// What the spans around one method's predictor calls recorded.
#[derive(Debug, Default)]
pub struct CallLog {
    /// Duration of every `predict` call, nanoseconds.
    pub predict_ns: Vec<u64>,
    /// Duration of every `observe` call, nanoseconds.
    pub observe_ns: Vec<u64>,
    /// Full model-pool retrains (Sizey only).
    pub full_retrains: u64,
    /// Time of the observes during which a full retrain ran, nanoseconds.
    pub full_retrain_ns: u64,
    /// Model training time Sizey reported for its observes, nanoseconds.
    pub train_ns: u64,
    /// Predictions that were not finite and positive.
    pub bad_predictions: u64,
}

impl CallLog {
    fn merge(&mut self, other: &mut CallLog) {
        self.predict_ns.append(&mut other.predict_ns);
        self.observe_ns.append(&mut other.observe_ns);
        self.full_retrains += other.full_retrains;
        self.full_retrain_ns += other.full_retrain_ns;
        self.train_ns += other.train_ns;
        self.bad_predictions += other.bad_predictions;
    }

    /// Seconds spent inside `predict`.
    pub fn predict_s(&self) -> f64 {
        self.predict_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Seconds spent inside `observe`.
    pub fn observe_s(&self) -> f64 {
        self.observe_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// A shared log the predictor wrappers fold into when they are dropped.
pub type SharedLog = Arc<Mutex<CallLog>>;

/// The predictor inside a [`Timed`] wrapper. Sizey is kept concrete so the
/// wrapper can read its retrain counter and training times.
pub enum Method {
    /// Sizey: `core` (and `ml` for model fits).
    Sizey(Box<SizeyPredictor>),
    /// Any baseline: `baselines`.
    Other(Box<dyn MemoryPredictor>),
}

/// Times every call into the wrapped predictor. The log lives in the
/// wrapper and is folded into the shared one on drop, so the engine may
/// own the wrapper.
pub struct Timed {
    method: Method,
    log: RefCell<CallLog>,
    shared: SharedLog,
}

impl Timed {
    /// Wraps `method`, folding into `shared` when dropped.
    pub fn new(method: Method, shared: SharedLog) -> Self {
        Timed {
            method,
            log: RefCell::new(CallLog::default()),
            shared,
        }
    }
}

impl MemoryPredictor for Timed {
    fn name(&self) -> String {
        match &self.method {
            Method::Sizey(p) => p.name(),
            Method::Other(p) => p.name(),
        }
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        let start = Instant::now();
        let prediction = match &self.method {
            Method::Sizey(p) => p.predict(task, ctx),
            Method::Other(p) => p.predict(task, ctx),
        };
        let elapsed = nanos_since(start);
        let mut log = self.log.borrow_mut();
        log.predict_ns.push(elapsed);
        let alloc = prediction.allocation_bytes;
        if !(alloc.is_finite() && alloc > 0.0) {
            log.bad_predictions += 1;
        }
        prediction
    }

    fn observe(&mut self, record: &TaskRecord) {
        let log = self.log.get_mut();
        match &mut self.method {
            Method::Sizey(p) => {
                let retrains = p.total_full_retrains();
                let start = Instant::now();
                p.observe(record);
                let elapsed = nanos_since(start);
                log.observe_ns.push(elapsed);
                let retrained = p.total_full_retrains() - retrains;
                if retrained > 0 {
                    log.full_retrains += retrained;
                    log.full_retrain_ns += elapsed;
                }
                if matches!(record.outcome, TaskOutcome::Succeeded) {
                    if let Some(fit) = p.training_times().last() {
                        log.train_ns += fit.as_nanos() as u64;
                    }
                }
            }
            Method::Other(p) => {
                let start = Instant::now();
                p.observe(record);
                log.observe_ns.push(nanos_since(start));
            }
        }
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        if let Ok(mut shared) = self.shared.lock() {
            shared.merge(self.log.get_mut());
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("process CPU time is read through the 64-bit Linux `clock_gettime` ABI");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `Timespec`) through the valid,
    // exclusive pointer passed here and reads nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
