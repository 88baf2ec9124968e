//! A wall-clock end-to-end benchmark of pash-rs.
//!
//! Two workloads drive the public entry points users call:
//! `pash::run` per script for the batch workload (`nlp-threads`),
//! and an in-process
//! `pash::daemon::serve` under a closed loop of
//! `runtime::service::Client`s for `pashd-mixed`. Every output is
//! byte-compared against a reference computed through
//! `pash_coreutils::run_command` alone ([`refseq`]).
//!
//! A traced run times calls into each layer's public functions from
//! this crate's own code ([`trace`]) and reports the per-layer
//! metrics of [`metrics::PER_LAYER`]; the program itself is not
//! instrumented. See `README.md` beside this crate.

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use pash::coreutils::Registry;
use pash::runtime::supervise::SupervisorSettings;

pub mod batch;
pub mod layers;
pub mod metrics;
pub mod provenance;
pub mod refseq;
pub mod service;
pub mod stats;
pub mod trace;

use metrics::Metrics;

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Unix-for-NLP family on the `threads` backend.
    NlpThreads,
    /// A mixed request stream against an in-process `pashd`.
    PashdMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::NlpThreads, Workload::PashdMixed];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NlpThreads => "nlp-threads",
            Workload::PashdMixed => "pashd-mixed",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes and durations of one run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase runs, seconds.
    pub seconds: f64,
    /// Whether this is a traced run (per-layer metrics).
    pub trace: bool,
    /// Bytes per book for the batch workload.
    pub book_bytes: usize,
    /// Bytes per book seeded into `pashd`.
    pub service_book_bytes: usize,
    /// How many times set-up runs; `setup_s` is the median.
    pub setup_reps: usize,
    /// Where spans and scratch files go.
    pub out_dir: PathBuf,
}

impl Params {
    /// The sizes the benchmark is calibrated at.
    pub fn standard(seed: u64, seconds: f64, trace: bool) -> Params {
        Params {
            seed,
            seconds,
            trace,
            book_bytes: 1 << 20,
            service_book_bytes: 64 << 10,
            setup_reps: 3,
            out_dir: PathBuf::from(".bench_out"),
        }
    }
}

/// Shared, read-only state of a run.
pub struct Ctx {
    /// The standard command registry.
    pub registry: Registry,
    /// Cores available to this process (`nproc`).
    pub nproc: usize,
    /// Supervisor settings for every backend; its counters report
    /// retries, fallbacks and deadline kills.
    pub supervisor: SupervisorSettings,
}

impl Ctx {
    /// A context with the standard registry and default supervisor.
    pub fn new() -> Ctx {
        Ctx {
            registry: Registry::standard(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            supervisor: SupervisorSettings::default(),
        }
    }

    /// Copies the supervisor counters into `m`.
    pub fn supervisor_metrics(&self, m: &mut Metrics) {
        let c = &self.supervisor.counters;
        m.insert("supervise.retries", c.retries() as f64);
        m.insert("supervise.fallbacks", c.fallbacks() as f64);
        m.insert("supervise.deadline_kills", c.deadline_kills() as f64);
    }
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx::new()
    }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: Metrics,
    /// Operations attempted (script runs or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or gave wrong output.
    pub failed: u64,
    /// One line per failed operation: script or request name, reason.
    pub failures: Vec<String>,
    /// Extra JSON fields for the record line (without braces).
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    /// Records one operation's result.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Fraction of attempted operations that failed.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs `setup` `reps` times and returns the last result with the
/// median set-up time.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> io::Result<T>,
) -> io::Result<(T, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous result first so its memory and processes
        // are gone before the next set-up is timed.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

/// The process's peak resident set (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload.
pub fn run(workload: Workload, p: &Params, ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = match workload {
        Workload::NlpThreads => batch::run(p, ctx)?,
        Workload::PashdMixed => service::run(p, ctx)?,
    };
    ctx.supervisor_metrics(&mut out.metrics);
    out.metrics.insert("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// Derives an independent 64-bit seed for stream `k` of `seed`.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
