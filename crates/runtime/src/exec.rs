//! The threaded plan executor.
//!
//! Runs a compiled [`ExecutionPlan`] in-process: one OS thread per
//! plan node, bounded [`crate::pipe`]s for edges. This engine is the
//! correctness vehicle of the reproduction — the parallel output must
//! be byte-identical to the sequential output, which the integration
//! suite checks for every benchmark script.
//!
//! The executor never inspects the compiler's DFG: everything it
//! needs (edge endpoint kinds, stream-argument roles, stdin routing,
//! output producers, guard structure) arrives resolved in the plan.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pash_core::compile::PashConfig;
use pash_core::plan::{
    fold_statuses, Arg, Backend, ExecutionPlan, PlanNode, PlanNodeId, PlanOp, RegionPlan, SplitMode,
};

use pash_coreutils::fs::Fs;
use pash_coreutils::{CmdIo, Registry, SIGPIPE_STATUS};

use crate::agg::run_aggregator;
use crate::drive::{drive, RegionRunner};
use crate::edge::MemEdges;
use crate::fault::{ArmedFault, ExecError, FaultKind};
use crate::frame::{write_frame, FrameReader};
use crate::pipe::{MultiReader, DEFAULT_PIPE_CAPACITY};
use crate::profile::{CountingReader, CountingWriter, ProfileStore, RegionProfile};
use crate::relay::{run_relay, RelayMode};
use crate::split::{split_general, split_round_robin};
use crate::supervise::SupervisorSettings;

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Pipe capacity in bytes (the kernel pipe buffer analogue).
    pub pipe_capacity: usize,
    /// Bounded-relay buffer, in 8 KiB chunks (the "blocking eager").
    pub blocking_relay_chunks: usize,
    /// Maximum number of independent regions in flight at once. The
    /// default of 1 executes steps strictly in plan order; larger
    /// values let non-conflicting regions (per
    /// [`ExecutionPlan::parallel_waves`]) overlap.
    pub max_inflight: usize,
    /// The execution supervisor: retries, region deadlines, fault
    /// injection, sequential fallback (see [`crate::supervise`]).
    pub supervisor: SupervisorSettings,
    /// When set, successful region attempts record per-node
    /// bytes-in/bytes-out and busy-time here (the adaptive
    /// optimizer's measurement plane; see [`crate::profile`]). `None`
    /// (the default) skips all instrumentation.
    pub profile: Option<Arc<ProfileStore>>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            pipe_capacity: DEFAULT_PIPE_CAPACITY,
            blocking_relay_chunks: 8,
            max_inflight: 1,
            supervisor: SupervisorSettings::default(),
            profile: None,
        }
    }
}

/// Locks a mutex, tolerating poison: a panicking node thread must not
/// cascade into every other thread that shares the status table.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Result of executing one region plan.
#[derive(Debug)]
pub struct RegionOutput {
    /// Bytes the region wrote to its stdout edge(s).
    pub stdout: Vec<u8>,
    /// Exit status per node, in completion order.
    pub statuses: Vec<(PlanNodeId, i32)>,
    /// The region's overall status: the [`fold_statuses`] fold over
    /// the region's [`RegionPlan::status_sources`] — the commands
    /// whose exit codes the sequential pipeline would have reported.
    /// For a sequential region this is exactly the final producer's
    /// status; for a parallelized one it reproduces the sequential
    /// verdict (e.g. a `grep` miss stays status 1 at any width).
    pub status: i32,
}

impl RegionOutput {
    /// The region's overall status (see the `status` field).
    pub fn status(&self) -> i32 {
        self.status
    }
}

/// A filesystem overlay that exposes in-flight streams as paths.
///
/// Stream-role arguments in a node's argv are rewritten to
/// `pash://stream/k`; the command opens them like files, each exactly
/// once.
struct StreamFs {
    base: Arc<dyn Fs>,
    streams: Mutex<HashMap<String, Box<dyn Read + Send>>>,
}

impl StreamFs {
    fn path_for(k: usize) -> String {
        format!("pash://stream/{k}")
    }
}

impl Fs for StreamFs {
    fn open(&self, path: &str) -> io::Result<Box<dyn Read + Send>> {
        if path.starts_with("pash://stream/") {
            return self
                .streams
                .lock()
                .expect("stream table lock")
                .remove(path)
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("stream {path} already consumed"),
                    )
                });
        }
        self.base.open(path)
    }

    fn create(&self, path: &str) -> io::Result<Box<dyn Write + Send>> {
        self.base.create(path)
    }

    fn size(&self, path: &str) -> io::Result<u64> {
        self.base.size(path)
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        self.base.list(dir)
    }
}

/// Executes one region plan.
///
/// `stdin` feeds the region's primary boundary pipe input (if any).
/// This is a single unsupervised attempt; retries, deadlines, and
/// fallback live in the program driver (`drive.rs`).
pub fn run_region(
    r: &RegionPlan,
    registry: &Registry,
    fs: Arc<dyn Fs>,
    stdin: Vec<u8>,
    cfg: &ExecConfig,
) -> io::Result<RegionOutput> {
    run_region_attempt(r, registry, fs, stdin, cfg, None, None).map_err(io::Error::from)
}

/// One attempt at a region, with optional fault injection and an
/// optional deadline (taken from `settings`).
///
/// The deadline is enforced by a watchdog thread: on expiry it poisons
/// every in-memory pipe (unblocking parked readers and writers with
/// `TimedOut`) and cancels any injected stall, so wedged node threads
/// unwind promptly instead of hanging the scope. The thread-backend
/// analogue of SIGKILL-after-grace. With a fault and no settings this
/// is also the remote worker's entry point: the coordinator owns
/// retries, deadlines and the fallback ladder, so a worker runs one
/// faithful (or faithfully faulted) attempt and reports the outcome.
pub(crate) fn run_region_attempt(
    r: &RegionPlan,
    registry: &Registry,
    fs: Arc<dyn Fs>,
    stdin: Vec<u8>,
    cfg: &ExecConfig,
    fault: Option<&ArmedFault>,
    settings: Option<&SupervisorSettings>,
) -> Result<RegionOutput, ExecError> {
    r.validate()
        .map_err(|e| ExecError::fatal("plan", io::Error::new(io::ErrorKind::InvalidInput, e)))?;
    let mut edges = MemEdges::wire_with(r, &fs, stdin, cfg.pipe_capacity, fault)
        .map_err(|e| ExecError::classify("edge wiring", e))?;
    let stdout_buf = edges.stdout_handle();
    let monitors = edges.take_monitors();
    let deadline = settings.and_then(|s| s.region_deadline);
    let deadline_hit = Arc::new(AtomicBool::new(false));
    let remaining = Arc::new(AtomicUsize::new(r.nodes.len()));
    let profile = cfg.profile.as_ref().map(|_| RegionProfile::for_region(r));

    // Spawn one thread per node in plan (topological) order — order is
    // not semantically required (pipes synchronize) but makes teardown
    // deterministic in tests.
    let statuses: Arc<Mutex<Vec<(PlanNodeId, i32)>>> = Arc::new(Mutex::new(Vec::new()));
    let hard_error: Arc<Mutex<Option<ExecError>>> = Arc::new(Mutex::new(None));
    std::thread::scope(|scope| {
        if let Some(limit) = deadline {
            let remaining = remaining.clone();
            let deadline_hit = deadline_hit.clone();
            let monitors = &monitors;
            let cancel = fault.map(|a| a.cancel.clone());
            scope.spawn(move || {
                let end = Instant::now() + limit;
                loop {
                    if remaining.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    let now = Instant::now();
                    if now >= end {
                        deadline_hit.store(true, Ordering::Release);
                        if let Some(c) = &cancel {
                            c.cancel();
                        }
                        for m in monitors {
                            m.poison();
                        }
                        return;
                    }
                    std::thread::sleep((end - now).min(Duration::from_millis(5)));
                }
            });
        }
        for (id, node) in r.nodes.iter().enumerate() {
            let mut ins = edges.take_inputs(node);
            let mut outs = edges.take_outputs(node);
            if let Some(p) = &profile {
                ins = ins
                    .into_iter()
                    .map(|r| Box::new(CountingReader::new(r, p.clone(), id)) as _)
                    .collect();
                outs = outs
                    .into_iter()
                    .map(|w| Box::new(CountingWriter::new(w, p.clone(), id)) as _)
                    .collect();
            }
            let profile = profile.clone();
            let registry = registry.clone();
            let fs = fs.clone();
            let statuses = statuses.clone();
            let hard_error = hard_error.clone();
            let remaining = remaining.clone();
            let ecfg = cfg.clone();
            let spawn_fault = fault
                .filter(|a| {
                    a.node == Some(id)
                        && matches!(a.kind, FaultKind::SpawnFail | FaultKind::SpawnDelay)
                })
                .cloned();
            scope.spawn(move || {
                let res = (|| {
                    if let Some(a) = &spawn_fault {
                        match a.kind {
                            FaultKind::SpawnFail => {
                                // Dropping ins/outs closes the node's
                                // edges, so neighbours tear down.
                                return Err(io::Error::new(
                                    io::ErrorKind::Interrupted,
                                    "injected spawn failure",
                                ));
                            }
                            FaultKind::SpawnDelay => std::thread::sleep(a.delay),
                            _ => {}
                        }
                    }
                    let started = Instant::now();
                    let res = run_node(node, ins, outs, &registry, fs, &ecfg);
                    if let Some(p) = &profile {
                        p.add_busy(id, started.elapsed());
                    }
                    res
                })();
                match res {
                    Ok(s) => lock(&statuses).push((id, s)),
                    Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                        // SIGPIPE-style death: normal early-exit
                        // teardown, not an error.
                        lock(&statuses).push((id, SIGPIPE_STATUS));
                    }
                    Err(e) => {
                        lock(&statuses).push((id, 127));
                        lock(&hard_error).get_or_insert(ExecError::classify("node", e).at_node(id));
                    }
                }
                remaining.fetch_sub(1, Ordering::AcqRel);
            });
        }
    });
    if deadline_hit.load(Ordering::Acquire) {
        if let Some(s) = settings {
            s.note_deadline_kill();
        }
        return Err(ExecError::transient(
            "region deadline",
            io::Error::new(io::ErrorKind::TimedOut, "region deadline exceeded"),
        ));
    }
    if let Some(e) = lock(&hard_error).take() {
        return Err(e);
    }
    // The attempt completed without infrastructure failure: its byte
    // counts and timings describe a full run, so fold them into the
    // store. (Failed attempts would under-report bytes.)
    if let (Some(store), Some(p)) = (&cfg.profile, &profile) {
        store.record(p);
    }
    let stdout = std::mem::take(&mut *lock(&stdout_buf));
    let statuses = std::mem::take(&mut *lock(&statuses));
    // The sequential pipeline's verdict: fold the statuses of the
    // real commands behind the output (the emitted script does the
    // same with its `pash_spids` wait loop).
    let status_of = |id: PlanNodeId| {
        statuses
            .iter()
            .rev()
            .find(|(n, _)| *n == id)
            .map(|(_, s)| *s)
            .unwrap_or(0)
    };
    let source_statuses: Vec<i32> = r.status_sources().into_iter().map(status_of).collect();
    let status = fold_statuses(&source_statuses);
    Ok(RegionOutput {
        stdout,
        statuses,
        status,
    })
}

/// Executes one node's work on the current thread.
fn run_node(
    node: &PlanNode,
    mut ins: Vec<Box<dyn Read + Send>>,
    mut outs: Vec<Box<dyn Write + Send>>,
    registry: &Registry,
    fs: Arc<dyn Fs>,
    cfg: &ExecConfig,
) -> io::Result<i32> {
    match &node.op {
        PlanOp::Exec { argv, framed } => {
            // Stream-role args become virtual stream paths; the
            // remaining inputs feed stdin in plan order.
            let mut slots: Vec<Option<Box<dyn Read + Send>>> = ins.drain(..).map(Some).collect();
            let mut stream_table: HashMap<String, Box<dyn Read + Send>> = HashMap::new();
            let mut final_argv: Vec<String> = Vec::with_capacity(argv.len());
            for a in argv {
                match a {
                    Arg::Lit(w) => final_argv.push(w.clone()),
                    Arg::Stream(k) => {
                        if let Some(r) = slots.get_mut(*k).and_then(|s| s.take()) {
                            stream_table.insert(StreamFs::path_for(*k), r);
                        }
                        final_argv.push(StreamFs::path_for(*k));
                    }
                }
            }
            let stdin_sources: Vec<Box<dyn Read + Send>> = node
                .stdin_inputs
                .iter()
                .filter_map(|&k| slots.get_mut(k).and_then(|s| s.take()))
                .collect();
            let (name, args) = final_argv
                .split_first()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty argv"))?;
            let args = args.to_vec();
            let cmd = registry.get(name).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("{name}: not found"))
            })?;
            let stream_fs = Arc::new(StreamFs {
                base: fs,
                streams: Mutex::new(stream_table),
            });
            let mut stderr = io::sink();
            let mut out = outs.pop().expect("command has one output");
            if *framed {
                // Framed worker: run the command once per tagged
                // block, re-emitting its output under the same tag so
                // order survives to the reorderer. The node's status
                // folds the per-block statuses exactly like the
                // region-level fold (so e.g. `grep` reports a miss
                // only if every block missed).
                let mut frames = FrameReader::new(MultiReader::new(stdin_sources));
                let mut statuses = Vec::new();
                while let Some((tag, payload)) = frames.next_frame()? {
                    let mut stdin = io::Cursor::new(payload);
                    let mut buf = Vec::new();
                    let mut cio = CmdIo {
                        stdin: &mut stdin,
                        stdout: &mut buf,
                        stderr: &mut stderr,
                        fs: stream_fs.clone(),
                        registry,
                    };
                    statuses.push(cmd.run(&args, &mut cio)?);
                    write_frame(&mut out, tag, &buf)?;
                }
                if statuses.is_empty() {
                    // No blocks reached this worker: run once on
                    // empty input for the status, emit nothing.
                    let mut stdin = io::empty();
                    let mut sink = Vec::new();
                    let mut cio = CmdIo {
                        stdin: &mut stdin,
                        stdout: &mut sink,
                        stderr: &mut stderr,
                        fs: stream_fs,
                        registry,
                    };
                    statuses.push(cmd.run(&args, &mut cio)?);
                }
                out.flush()?;
                return Ok(fold_statuses(&statuses));
            }
            let mut stdin = io::BufReader::new(MultiReader::new(stdin_sources));
            let mut cio = CmdIo {
                stdin: &mut stdin,
                stdout: &mut out,
                stderr: &mut stderr,
                fs: stream_fs,
                registry,
            };
            let status = cmd.run(&args, &mut cio)?;
            // Flush the edge buffer while errors can still be
            // reported; the drop-time flush swallows them.
            out.flush()?;
            Ok(status)
        }
        PlanOp::Cat => {
            let mut out = outs.pop().expect("cat has one output");
            for mut r in ins {
                let mut buf = [0u8; 64 * 1024];
                loop {
                    let n = r.read(&mut buf)?;
                    if n == 0 {
                        break;
                    }
                    out.write_all(&buf[..n])?;
                }
            }
            out.flush()?;
            Ok(0)
        }
        PlanOp::Relay { blocking } => {
            let input = ins.pop().expect("relay has one input");
            let mut out = outs.pop().expect("relay has one output");
            let mode = if *blocking {
                RelayMode::Blocking(cfg.blocking_relay_chunks)
            } else {
                RelayMode::Full
            };
            run_relay(input, &mut out, mode)?;
            out.flush()?;
            Ok(0)
        }
        PlanOp::Split { mode } => {
            // The sized variant needs a file-backed input; on a pipe
            // the general and sized splitters behave identically for
            // correctness (the performance difference is the
            // simulator's concern). Round-robin deals tagged blocks.
            let input = ins.pop().expect("split has one input");
            let mut r = io::BufReader::new(input);
            match mode {
                SplitMode::RoundRobin { framed } => split_round_robin(&mut r, &mut outs, *framed)?,
                SplitMode::General | SplitMode::Sized => split_general(&mut r, &mut outs)?,
            }
            for out in outs.iter_mut() {
                // Same discipline as the split itself: a chunk whose
                // consumer is gone is abandoned, not fatal.
                match out.flush() {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(0)
        }
        PlanOp::Aggregate { argv } => {
            let mut out = outs.pop().expect("aggregate has one output");
            let status = run_aggregator(argv, ins, &mut out, registry, fs)?;
            out.flush()?;
            Ok(status)
        }
    }
}

/// Result of executing a whole plan.
#[derive(Debug)]
pub struct ProgramOutput {
    /// Bytes written to stdout across all regions.
    pub stdout: Vec<u8>,
    /// Status of the last executed step.
    pub status: i32,
}

/// Executes a plan step by step.
///
/// `Shell` steps are supported only when they are no-ops for the data
/// path (assignments, comments): the front-end already folded their
/// effect into the compile-time environment and lowering marked them
/// `data_noop`. Anything else is an error — the hermetic executor
/// does not run arbitrary shell.
pub fn run_program(
    plan: &ExecutionPlan,
    registry: &Registry,
    fs: Arc<dyn Fs>,
    stdin: Vec<u8>,
    cfg: &ExecConfig,
) -> io::Result<ProgramOutput> {
    run_program_with_fallback(plan, None, registry, fs, stdin, cfg)
}

/// [`run_program`] with an optional sequential fallback plan: the same
/// program compiled at width 1, used by the supervisor when a region
/// exhausts its retries (see the program driver, `drive.rs`).
pub fn run_program_with_fallback(
    plan: &ExecutionPlan,
    fallback: Option<&ExecutionPlan>,
    registry: &Registry,
    fs: Arc<dyn Fs>,
    stdin: Vec<u8>,
    cfg: &ExecConfig,
) -> io::Result<ProgramOutput> {
    let runner = ThreadRunner { registry, fs, cfg };
    drive(
        plan,
        fallback,
        stdin,
        cfg.max_inflight,
        &cfg.supervisor,
        &runner,
    )
}

/// The `threads` backend's [`RegionRunner`]: each attempt is one
/// [`run_region_attempt`] on node threads.
pub(crate) struct ThreadRunner<'a> {
    pub(crate) registry: &'a Registry,
    pub(crate) fs: Arc<dyn Fs>,
    pub(crate) cfg: &'a ExecConfig,
}

impl RegionRunner for ThreadRunner<'_> {
    fn attempt(
        &self,
        r: &RegionPlan,
        feed: &[u8],
        _index: u32,
        fault: Option<&ArmedFault>,
        sup: &SupervisorSettings,
    ) -> Result<RegionOutput, ExecError> {
        let fs = self.fs.clone();
        run_region_attempt(
            r,
            self.registry,
            fs,
            feed.to_vec(),
            self.cfg,
            fault,
            Some(sup),
        )
    }

    fn reference(&self, r: &RegionPlan, feed: &[u8]) -> Result<RegionOutput, ExecError> {
        let fs = self.fs.clone();
        run_region_attempt(r, self.registry, fs, feed.to_vec(), self.cfg, None, None)
    }
}

/// The in-process threaded execution backend.
pub struct ThreadedBackend<'a> {
    /// Command implementations.
    pub registry: &'a Registry,
    /// Filesystem the plan reads and writes.
    pub fs: Arc<dyn Fs>,
    /// Bytes fed to the first region's boundary stdin.
    pub stdin: Vec<u8>,
    /// Executor tuning.
    pub cfg: ExecConfig,
}

impl Backend for ThreadedBackend<'_> {
    type Output = ProgramOutput;

    fn name(&self) -> &'static str {
        "threads"
    }

    fn run(&mut self, plan: &ExecutionPlan) -> io::Result<ProgramOutput> {
        run_program(
            plan,
            self.registry,
            self.fs.clone(),
            self.stdin.clone(),
            &self.cfg,
        )
    }
}

/// Compiles and runs a script against a filesystem; returns stdout.
///
/// This is the one-call API used by tests, examples, and benchmarks.
/// Compilation goes through the memoized
/// [`pash_core::compile::compile_cached`], so repeated runs of the
/// same script and configuration reuse the lowered plan.
pub fn run_script(
    src: &str,
    pash_cfg: &PashConfig,
    registry: &Registry,
    fs: Arc<dyn Fs>,
    stdin: Vec<u8>,
    exec_cfg: &ExecConfig,
) -> io::Result<ProgramOutput> {
    let compiled = pash_core::compile::compile_cached(src, pash_cfg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    // The sequential fallback plan: the same source at width 1. Only
    // compiled when the supervisor could use it; compile_cached makes
    // repeat runs free.
    let fallback = if exec_cfg.supervisor.fallback && pash_cfg.width != 1 {
        pash_core::compile::compile_cached(src, &pash_cfg.sequential()).ok()
    } else {
        None
    };
    run_program_with_fallback(
        &compiled.plan,
        fallback.as_deref().map(|c| &c.plan),
        registry,
        fs,
        stdin,
        exec_cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pash_coreutils::fs::MemFs;

    fn fixture() -> (Registry, Arc<MemFs>) {
        let fs = Arc::new(MemFs::new());
        fs.add(
            "in.txt",
            b"Banana\napple\nCherry\napple\nbanana\nAPPLE\n".to_vec(),
        );
        (Registry::standard(), fs)
    }

    fn run(src: &str, width: usize) -> String {
        let (reg, fs) = fixture();
        let cfg = PashConfig {
            width,
            ..Default::default()
        };
        let out = run_script(
            src,
            &cfg,
            &reg,
            fs.clone(),
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        String::from_utf8(out.stdout).expect("utf8")
    }

    #[test]
    fn sequential_pipeline() {
        let out = run("cat in.txt | tr A-Z a-z | sort", 1);
        assert_eq!(out, "apple\napple\napple\nbanana\nbanana\ncherry\n");
    }

    #[test]
    fn profiling_hooks_record_bytes_and_derive_rates() {
        let (reg, fs) = fixture();
        let store = Arc::new(ProfileStore::in_memory());
        let ecfg = ExecConfig {
            profile: Some(store.clone()),
            ..Default::default()
        };
        let cfg = PashConfig {
            width: 2,
            ..Default::default()
        };
        let out = run_script(
            "cat in.txt | tr A-Z a-z | sort > s.txt",
            &cfg,
            &reg,
            fs.clone(),
            Vec::new(),
            &ecfg,
        )
        .expect("run");
        assert_eq!(out.status, 0);
        assert!(store.regions() >= 1, "region profile recorded");
        let rates = store.rates();
        let tr = rates.get("tr").expect("tr observed");
        assert!(tr.mb_per_s > 0.0 && tr.weight > 0.0);
        // tr is byte-preserving: measured ratio must be ~1.
        assert!((tr.out_ratio - 1.0).abs() < 0.01, "{tr:?}");
        // Profiling must not change the output.
        let plain = run("cat in.txt | tr A-Z a-z | sort", 1);
        let (reg2, fs2) = fixture();
        let profiled = run_script(
            "cat in.txt | tr A-Z a-z | sort",
            &cfg,
            &reg2,
            fs2,
            Vec::new(),
            &ecfg,
        )
        .expect("run");
        assert_eq!(String::from_utf8(profiled.stdout).expect("utf8"), plain);
    }

    #[test]
    fn parallel_matches_sequential_stateless() {
        let seq = run("cat in.txt | tr A-Z a-z | grep an", 1);
        for width in [2, 4, 8] {
            assert_eq!(run("cat in.txt | tr A-Z a-z | grep an", width), seq);
        }
    }

    #[test]
    fn parallel_matches_sequential_sort() {
        let seq = run("cat in.txt | tr A-Z a-z | sort", 1);
        for width in [2, 3, 8] {
            assert_eq!(run("cat in.txt | tr A-Z a-z | sort", width), seq);
        }
    }

    #[test]
    fn parallel_uniq_count() {
        let seq = run("cat in.txt | tr A-Z a-z | sort | uniq -c", 1);
        assert_eq!(run("cat in.txt | tr A-Z a-z | sort | uniq -c", 4), seq);
        assert!(seq.contains("3 apple"));
    }

    #[test]
    fn head_early_exit_terminates() {
        // The §5.2 dangling-FIFO scenario: head exits after one line;
        // upstream must die of broken pipes, not deadlock.
        let out = run("cat in.txt | sort -rn | head -n 1", 4);
        assert_eq!(out.lines().count(), 1);
    }

    #[test]
    fn file_output_lands_in_fs() {
        let (reg, fs) = fixture();
        let cfg = PashConfig {
            width: 4,
            ..Default::default()
        };
        run_script(
            "cat in.txt | tr A-Z a-z | sort > sorted.txt",
            &cfg,
            &reg,
            fs.clone(),
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        let out = fs.read("sorted.txt").expect("output file");
        assert_eq!(out, b"apple\napple\napple\nbanana\nbanana\ncherry\n");
    }

    #[test]
    fn comm_with_static_dictionary() {
        let (reg, fs) = fixture();
        fs.add("dict.txt", b"apple\nbanana\n".to_vec());
        fs.add("words.txt", b"apple\ncherry\nzebra\n".to_vec());
        let cfg = PashConfig {
            width: 3,
            ..Default::default()
        };
        let out = run_script(
            "cat words.txt | comm -13 dict.txt -",
            &cfg,
            &reg,
            fs,
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        assert_eq!(out.stdout, b"cherry\nzebra\n");
    }

    #[test]
    fn guards_respect_status() {
        let (reg, fs) = fixture();
        let cfg = PashConfig {
            width: 1,
            ..Default::default()
        };
        // grep finds nothing (status 1) so the second region is
        // skipped.
        let out = run_script(
            "grep zzz in.txt > miss.txt && cat in.txt",
            &cfg,
            &reg,
            fs.clone(),
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        assert!(out.stdout.is_empty());
        // With `||` it runs.
        let out = run_script(
            "grep zzz in.txt > miss.txt || cat in.txt",
            &cfg,
            &reg,
            fs,
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        assert!(!out.stdout.is_empty());
    }

    #[test]
    fn stdin_feeds_first_region() {
        let (reg, fs) = fixture();
        let cfg = PashConfig {
            width: 1,
            ..Default::default()
        };
        let out = run_script(
            "tr a-z A-Z",
            &cfg,
            &reg,
            fs,
            b"hello\n".to_vec(),
            &ExecConfig::default(),
        )
        .expect("run");
        assert_eq!(out.stdout, b"HELLO\n");
    }

    #[test]
    fn assignments_are_noops_in_process() {
        let (reg, fs) = fixture();
        let cfg = PashConfig {
            width: 2,
            ..Default::default()
        };
        let out = run_script(
            "f=in.txt\ncat $f | tr A-Z a-z | grep apple",
            &cfg,
            &reg,
            fs,
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        assert_eq!(out.stdout, b"apple\napple\napple\n");
    }

    #[test]
    fn dynamic_shell_step_is_unsupported() {
        let (reg, fs) = fixture();
        let cfg = PashConfig::default();
        let res = run_script(
            "grep $UNDEFINED in.txt",
            &cfg,
            &reg,
            fs,
            Vec::new(),
            &ExecConfig::default(),
        );
        assert!(res.is_err());
    }

    #[test]
    fn missing_input_file_is_error() {
        let (reg, fs) = fixture();
        let cfg = PashConfig::default();
        let res = run_script(
            "cat nonexistent.txt | sort",
            &cfg,
            &reg,
            fs,
            Vec::new(),
            &ExecConfig::default(),
        );
        assert!(res.is_err());
    }

    #[test]
    fn tiny_pipes_still_correct() {
        // Squeeze everything through 32-byte pipes: heavy blocking,
        // same bytes.
        let (reg, fs) = fixture();
        let cfg = PashConfig {
            width: 4,
            ..Default::default()
        };
        let out = run_script(
            "cat in.txt | tr A-Z a-z | sort | uniq -c",
            &cfg,
            &reg,
            fs,
            Vec::new(),
            &ExecConfig {
                pipe_capacity: 32,
                ..Default::default()
            },
        )
        .expect("run");
        let s = String::from_utf8(out.stdout).expect("utf8");
        assert!(s.contains("3 apple"));
    }

    fn run_rr(src: &str, width: usize) -> String {
        let (reg, fs) = fixture();
        let out = run_script(
            src,
            &PashConfig::round_robin(width),
            &reg,
            fs.clone(),
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        String::from_utf8(out.stdout).expect("utf8")
    }

    #[test]
    fn round_robin_matches_sequential_stateless() {
        let seq = run("cat in.txt | tr A-Z a-z | grep an", 1);
        for width in [2, 4, 8] {
            assert_eq!(run_rr("cat in.txt | tr A-Z a-z | grep an", width), seq);
        }
    }

    #[test]
    fn round_robin_matches_sequential_wc() {
        // Commutative aggregator: blocks flow raw, no reorder needed.
        let seq = run("cat in.txt | tr A-Z a-z | wc -l", 1);
        for width in [2, 4, 8] {
            assert_eq!(run_rr("cat in.txt | tr A-Z a-z | wc -l", width), seq);
        }
    }

    #[test]
    fn round_robin_order_sensitive_still_correct() {
        // sort falls back to segment splitting under the RR policy;
        // output must stay identical either way.
        let seq = run("cat in.txt | tr A-Z a-z | sort | uniq -c", 1);
        for width in [2, 4] {
            assert_eq!(
                run_rr("cat in.txt | tr A-Z a-z | sort | uniq -c", width),
                seq
            );
        }
    }

    #[test]
    fn round_robin_grep_miss_gates_guard() {
        // Satellite: a guarded miss must behave identically at any
        // width — the folded statuses keep the region status at 1.
        let (reg, fs) = fixture();
        for width in [1, 4] {
            let out = run_script(
                "cat in.txt | grep zzz > miss.txt && cat in.txt",
                &PashConfig::round_robin(width),
                &reg,
                fs.clone(),
                Vec::new(),
                &ExecConfig::default(),
            )
            .expect("run");
            assert!(out.stdout.is_empty(), "width {width}");
            assert_eq!(out.status, 1, "width {width}");
        }
    }

    #[test]
    fn parallel_regions_match_sequential() {
        // Two independent file-to-file pipelines form one wave; with
        // max_inflight > 1 they run concurrently, same results.
        let src = "grep apple in.txt > a.txt\ngrep -c an in.txt > b.txt";
        let cfg = PashConfig {
            width: 2,
            ..Default::default()
        };
        let mut runs = Vec::new();
        for max_inflight in [1usize, 4] {
            let (reg, fs) = fixture();
            let out = run_script(
                src,
                &cfg,
                &reg,
                fs.clone(),
                Vec::new(),
                &ExecConfig {
                    max_inflight,
                    ..Default::default()
                },
            )
            .expect("run");
            runs.push((
                out.status,
                fs.read("a.txt").expect("a.txt"),
                fs.read("b.txt").expect("b.txt"),
            ));
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0].1, b"apple\napple\n");
    }

    #[test]
    fn guard_still_sequences_under_inflight() {
        // `&&` after a miss must skip even when waves overlap.
        let (reg, fs) = fixture();
        let out = run_script(
            "grep zzz in.txt > miss.txt && cat in.txt",
            &PashConfig::default(),
            &reg,
            fs,
            Vec::new(),
            &ExecConfig {
                max_inflight: 8,
                ..Default::default()
            },
        )
        .expect("run");
        assert!(out.stdout.is_empty());
        assert_eq!(out.status, 1);
    }

    #[test]
    fn threaded_backend_trait_runs_plans() {
        let (reg, fs) = fixture();
        let compiled = pash_core::compile::compile(
            "cat in.txt | tr A-Z a-z | sort",
            &PashConfig {
                width: 3,
                ..Default::default()
            },
        )
        .expect("compile");
        let mut be = ThreadedBackend {
            registry: &reg,
            fs,
            stdin: Vec::new(),
            cfg: ExecConfig::default(),
        };
        assert_eq!(be.name(), "threads");
        let out = be.run(&compiled.plan).expect("run");
        assert_eq!(out.stdout, b"apple\napple\napple\nbanana\nbanana\ncherry\n");
    }
}
