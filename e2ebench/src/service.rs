//! `pashd-mixed`: an in-process `pashd` with a fresh on-disk cache,
//! driven by a closed loop of `nproc` client connections (callers of
//! `pashd` wait for each reply before sending the next request).
//!
//! The request stream is a fixed seeded mix:
//!
//! * warm repeats of the NLP scripts at width `nproc` (tier-1 reads);
//! * cold unique variants — a ranked word count with a per-request
//!   `head -n` — each a full compile plus plan-cache writes to disk;
//! * adaptive `width: 0` requests (optimizer plus simulator).
//!
//! The shares of the mix (70% warm, 15% cold, 15% adaptive) are
//! assumed, not taken from a measured or published request trace;
//! they set where the blended percentiles fall, so the record line
//! also reports each kind's median latency on its own.
//!
//! Every daemon tags the scripts it is sent with a comment of its own,
//! so its set-up compiles cold even though the compile memo is shared
//! by the whole process.
//!
//! Per-request fixed costs dominate here; the books are small.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pash::core::compile::PashConfig;
use pash::core::dfg::transform::SplitPolicy;
use pash::coreutils::fs::{Fs, MemFs};
use pash::coreutils::run_command;
use pash::daemon::DaemonConfig;
use pash::runtime::service::{CacheTier, Client, DiskPlanCache, RunRequest, RunResponse};
use pash::runtime::{ProfileStore, RegionProfile};

use crate::batch::{self, check, compile_traced, Script};
use crate::layers;
use crate::metrics::Metrics;
use crate::refseq::{run_reference, Reference};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{derive_seed, timed_setup, Ctx, Outcome, Params};

/// Requests per pass: `wall_s` is the median time the loop takes to
/// complete one block of this many consecutive requests.
pub const PASS_REQUESTS: usize = 100;

/// Share of requests, in percent: warm repeats, then cold variants;
/// the rest are adaptive. An assumed mix (see the module docs).
const WARM_PCT: u64 = 70;
const COLD_PCT: u64 = 15;

/// The script the cold variants are made from; variant `k` appends
/// `| head -n <COLD_BASE_N + k>`.
const COLD_PREFIX: &str =
    "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn";
const COLD_BASE_N: usize = 1000;

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Warm script `i` at width `nproc`.
    Warm(usize),
    /// Cold variant `k`.
    Cold(usize),
    /// Adaptive (`width: 0`) script `i`.
    Adaptive(usize),
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Warm(_) => "request.warm",
            Kind::Cold(_) => "request.cold",
            Kind::Adaptive(_) => "request.adaptive",
        }
    }

    fn label(self) -> &'static str {
        match self {
            Kind::Warm(_) => "warm",
            Kind::Cold(_) => "cold",
            Kind::Adaptive(_) => "adaptive",
        }
    }
}

/// The `i`-th request of the mix for `seed`.
pub fn mix(seed: u64, i: usize, scripts: usize) -> Kind {
    let r = derive_seed(seed, 1_000_000 + i as u64);
    let pick = ((r >> 8) % scripts as u64) as usize;
    match r % 100 {
        x if x < WARM_PCT => Kind::Warm(pick),
        x if x < WARM_PCT + COLD_PCT => Kind::Cold(i),
        _ => Kind::Adaptive(pick),
    }
}

fn cold_script(k: usize) -> String {
    format!("{COLD_PREFIX} | head -n {} > out.txt", COLD_BASE_N + k)
}

/// A running daemon and what was seeded into it.
pub struct Service {
    socket: PathBuf,
    cache_dir: PathBuf,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
    /// A comment appended to every script this daemon is sent: the
    /// process-wide compile memo keys on the script text, so no
    /// earlier daemon of the process has compiled these.
    tag: String,
    /// The warm and adaptive scripts.
    pub scripts: Vec<Script>,
    /// Their references.
    pub refs: Vec<Reference>,
    /// The cold variants' prefix output (`head -n` applies per
    /// variant).
    pub cold_prefix: Vec<u8>,
    /// The seeded books.
    pub inputs: MemFs,
    /// Sequential reference time, seconds.
    pub seq_s: f64,
}

impl Service {
    /// Stops the daemon and waits for it.
    pub fn stop(&mut self) -> io::Result<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let asked = Client::connect(&self.socket).and_then(|mut c| c.shutdown());
        let served = thread
            .join()
            .map_err(|_| io::Error::other("pashd thread panicked"))?;
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        asked.and(served)
    }

    /// The reference for a request; a cold variant's is `head -n` of
    /// [`Self::cold_prefix`].
    fn expected(
        &self,
        kind: Kind,
        registry: &pash::coreutils::Registry,
    ) -> io::Result<Cow<'_, Reference>> {
        match kind {
            Kind::Warm(i) | Kind::Adaptive(i) => Ok(Cow::Borrowed(&self.refs[i])),
            Kind::Cold(k) => {
                let n = (COLD_BASE_N + k).to_string();
                let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
                let out = run_command(registry, fs, &["head", "-n", &n], &self.cold_prefix)?;
                Ok(Cow::Owned(Reference {
                    files: BTreeMap::from([("out.txt".to_string(), out.stdout)]),
                    ..Reference::default()
                }))
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A socket path short enough for `sun_path`: relative to the working
/// directory when the temp dir lies below it.
fn socket_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir();
    let rel = std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok().map(Path::to_path_buf));
    rel.unwrap_or(dir).join(name)
}

fn request(kind: Kind, s: &Service, ctx: &Ctx) -> RunRequest {
    let (script, width) = match kind {
        Kind::Warm(i) => (s.scripts[i].src.clone(), ctx.nproc as u32),
        Kind::Cold(k) => (cold_script(k), ctx.nproc as u32),
        Kind::Adaptive(i) => (s.scripts[i].src.clone(), 0),
    };
    RunRequest {
        script: script + &s.tag,
        backend: "threads".to_string(),
        width,
        split: SplitPolicy::Off,
        stdin: Vec::new(),
    }
}

/// Checks one response against its reference.
fn verdict(
    kind: Kind,
    i: usize,
    resp: &io::Result<RunResponse>,
    s: &Service,
    ctx: &Ctx,
) -> Result<(), String> {
    let name = format!("request {i} ({})", kind.label());
    let r = resp.as_ref().map_err(|e| format!("{name}: {e}"))?;
    if r.status != 0 {
        return Err(format!("{name}: exit status {}", r.status));
    }
    let want = s
        .expected(kind, &ctx.registry)
        .map_err(|e| format!("{name}: reference: {e}"))?;
    check(&name, &want, &r.stdout, |p| {
        r.files.iter().find(|(f, _)| f == p).map(|(_, b)| b.clone())
    })
}

/// Starts a daemon with a fresh cache directory, seeds the books and
/// primes the warm and adaptive scripts once each.
pub fn start(p: &Params, ctx: &Ctx) -> io::Result<Service> {
    let scripts = batch::scripts();
    let inputs = MemFs::new();
    let text = pash::workloads::text_corpus;
    inputs.add(
        "in.txt",
        text(derive_seed(p.seed, 11), p.service_book_bytes),
    );
    inputs.add(
        "in2.txt",
        text(derive_seed(p.seed, 12), p.service_book_bytes),
    );
    let t0 = Instant::now();
    let refs = scripts
        .iter()
        .map(|s| run_reference(&s.src, &inputs, &ctx.registry))
        .collect::<io::Result<Vec<_>>>()?;
    let cold_prefix = run_reference(COLD_PREFIX, &inputs, &ctx.registry)?.stdout;
    let seq_s = t0.elapsed().as_secs_f64();

    // Each daemon of the process gets its own socket and cache.
    static DAEMONS: AtomicUsize = AtomicUsize::new(0);
    let n = DAEMONS.fetch_add(1, Ordering::Relaxed);
    let socket = socket_path(&format!("pashd-{n}.sock"));
    let cache_dir = std::env::temp_dir().join(format!("pashd-cache-{n}"));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cfg = DaemonConfig {
        socket: socket.clone(),
        cache_dir: Some(cache_dir.clone()),
        max_concurrent_runs: ctx.nproc,
        supervisor: ctx.supervisor.clone(),
        workers: Vec::new(),
    };
    let thread = std::thread::spawn(move || pash::daemon::serve(cfg));
    let s = Service {
        socket,
        cache_dir,
        thread: Some(thread),
        tag: format!("\n# e2ebench daemon {n}\n"),
        scripts,
        refs,
        cold_prefix,
        inputs,
        seq_s,
    };
    let mut client = connect(&s)?;
    for (path, bytes) in s.inputs.entries() {
        client.put_file(&path, bytes.as_ref().clone())?;
    }
    for i in 0..s.scripts.len() {
        for kind in [Kind::Warm(i), Kind::Adaptive(i)] {
            let resp = client.run(request(kind, &s, ctx));
            verdict(kind, usize::MAX, &resp, &s, ctx).map_err(io::Error::other)?;
        }
    }
    drop(client);
    Ok(s)
}

fn connect(s: &Service) -> io::Result<Client> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(&s.socket) {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// One completed request, as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the mix.
    pub index: usize,
    /// Which kind of request.
    pub kind: Kind,
    /// Sent, seconds since the loop started.
    pub sent: f64,
    /// Reply received, seconds since the loop started.
    pub done: f64,
    /// The daemon's cache tier, compile and total time, when it
    /// answered with a run.
    pub reply: Option<(CacheTier, u64, u64)>,
}

/// A completed request and whether its reply matched the reference.
type Answered = (Sample, Result<(), String>);

/// What one closed loop measured.
pub struct LoopRun {
    /// Correct replies, in mix order.
    pub samples: Vec<Sample>,
    /// When the loop started; sample times count from here.
    pub started: Instant,
    /// How long the loop ran, seconds.
    pub elapsed: f64,
}

/// Runs the closed loop for `seconds`, starting at mix position
/// `first`.
pub fn closed_loop(
    s: &Service,
    p: &Params,
    ctx: &Ctx,
    first: usize,
    seconds: f64,
    out: &mut Outcome,
) -> io::Result<LoopRun> {
    let next = AtomicUsize::new(first);
    let t0 = Instant::now();
    let results: Vec<io::Result<Vec<Answered>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..ctx.nproc.max(1))
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut client = connect(s)?;
                    let mut mine = Vec::new();
                    while t0.elapsed().as_secs_f64() < seconds {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let kind = mix(p.seed, index, s.scripts.len());
                        let req = request(kind, s, ctx);
                        let sent = t0.elapsed().as_secs_f64();
                        let resp = client.run(req);
                        let done = t0.elapsed().as_secs_f64();
                        let v = verdict(kind, index, &resp, s, ctx);
                        let reply = resp
                            .ok()
                            .map(|r| (r.tier, r.compile_micros, r.total_micros));
                        mine.push((
                            Sample {
                                index,
                                kind,
                                sent,
                                done,
                                reply,
                            },
                            v,
                        ));
                    }
                    Ok(mine)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client thread panicked")))
            })
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for r in results {
        for (sample, v) in r? {
            let ok = v.is_ok();
            out.op(v);
            if ok {
                samples.push(sample);
            }
        }
    }
    samples.sort_by_key(|x| x.index);
    Ok(LoopRun {
        samples,
        started: t0,
        elapsed,
    })
}

/// Median time to complete each full block of [`PASS_REQUESTS`]
/// consecutive requests; a run too short for one block reports its
/// loop time scaled to a block.
fn pass_wall(samples: &[Sample], first: usize, elapsed: f64) -> f64 {
    let mut blocks: BTreeMap<usize, Vec<&Sample>> = BTreeMap::new();
    for x in samples {
        blocks
            .entry((x.index - first) / PASS_REQUESTS)
            .or_default()
            .push(x);
    }
    let walls: Vec<f64> = blocks
        .values()
        .filter(|b| b.len() == PASS_REQUESTS)
        .map(|b| {
            let start = b.iter().map(|x| x.sent).fold(f64::INFINITY, f64::min);
            let end = b.iter().map(|x| x.done).fold(0.0, f64::max);
            end - start
        })
        .collect();
    if walls.is_empty() {
        return elapsed * PASS_REQUESTS as f64 / samples.len().max(1) as f64;
    }
    median(&walls)
}

/// Runs `pashd-mixed`.
pub fn run(p: &Params, ctx: &Ctx) -> io::Result<Outcome> {
    let (mut s, setup_s) = timed_setup(p.setup_reps, || start(p, ctx))?;
    let mut out = Outcome::default();
    out.metrics.insert("setup_s", setup_s);
    let seconds = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let LoopRun {
        samples, elapsed, ..
    } = closed_loop(&s, p, ctx, 0, seconds, &mut out)?;
    let lat: Vec<f64> = samples.iter().map(|x| (x.done - x.sent) * 1e3).collect();
    let m = &mut out.metrics;
    m.insert("wall_s", pass_wall(&samples, 0, elapsed));
    m.insert("latency_p50_ms", median(&lat));
    m.insert("latency_p90_ms", percentile(&lat, 0.9));
    m.insert("throughput_rps", samples.len() as f64 / elapsed);
    let by_kind = |k: &str| {
        median(
            &samples
                .iter()
                .filter(|x| x.kind.label() == k)
                .map(|x| (x.done - x.sent) * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    out.detail.push((
        "latency_p50_ms_by_kind".into(),
        format!(
            "{{\"warm\": {}, \"cold\": {}, \"adaptive\": {}}}",
            by_kind("warm"),
            by_kind("cold"),
            by_kind("adaptive")
        ),
    ));
    out.detail
        .push(("requests".into(), samples.len().to_string()));
    if p.trace {
        let first = samples.iter().map(|x| x.index + 1).max().unwrap_or(0);
        traced(&s, p, ctx, first, &mut out)?;
    }
    s.stop()?;
    Ok(out)
}

/// The traced half: a second closed loop whose replies are broken
/// down by the daemon's own timings, plus the service layers timed
/// from here.
fn traced(s: &Service, p: &Params, ctx: &Ctx, first: usize, out: &mut Outcome) -> io::Result<()> {
    let mut t = Tracer::default();
    let run = closed_loop(s, p, ctx, first, p.seconds / 2.0, out)?;
    let at = |secs: f64| run.started + Duration::from_secs_f64(secs);
    for x in &run.samples {
        t.record(x.kind.span(), at(x.sent), at(x.done), x.index as u64);
    }
    let samples = run.samples;
    let mut wire = Vec::new();
    let mut exec = Vec::new();
    let mut cold = Vec::new();
    let mut mem = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for x in &samples {
        let Some((tier, compile_us, total_us)) = x.reply else {
            continue;
        };
        let client_us = (x.done - x.sent) * 1e6;
        wire.push(client_us - total_us as f64);
        exec.push(total_us.saturating_sub(compile_us) as f64);
        match tier {
            CacheTier::Cold => {
                misses += 1;
                cold.push(compile_us as f64);
            }
            CacheTier::Memory => {
                hits += 1;
                mem.push(compile_us as f64);
            }
            CacheTier::Disk => {}
        }
    }
    let m = &mut out.metrics;
    m.insert("service.wire_us", median(&wire));
    m.insert("service.exec_us", median(&exec));
    m.insert("service.compile_cold_us", median(&cold));
    m.insert("service.compile_mem_us", median(&mem));
    m.insert("service.tier1_hits", hits as f64);
    m.insert("service.cold_misses", misses as f64);
    // The loop carries no tracing: its spans are built from the
    // samples after it ends, so tracing costs the requests nothing.
    m.insert("trace.overhead_ratio", 1.0);
    let metrics_json = connect(s)?.metrics()?;
    m.insert(
        "service.errors",
        json_number(&metrics_json, "errors").unwrap_or(0.0),
    );

    // The compiler's layers on the scripts the mix compiles.
    let cfg = PashConfig {
        width: ctx.nproc,
        ..Default::default()
    };
    let mut compiled = s.scripts.clone();
    compiled.extend((0..8).map(|k| Script {
        name: format!("cold-{k}"),
        src: cold_script(1_000_000 + k),
    }));
    for (i, sc) in compiled.iter().enumerate() {
        compile_traced(&mut t, i as u64, &sc.src, &cfg)?;
    }
    let selfs = t.self_times();
    for (span, metric) in [
        ("parser.parse", "parser.parse_us"),
        ("frontend.translate", "frontend.translate_us"),
        ("transform.parallelize", "transform.parallelize_us"),
        ("plan.lower", "plan.lower_us"),
        ("backend.emit", "backend.emit_us"),
    ] {
        let v: Vec<f64> = t
            .spans()
            .iter()
            .zip(&selfs)
            .filter(|(x, _)| x.name == span)
            .map(|(_, d)| d * 1e6)
            .collect();
        m.insert(metric, median(&v));
    }
    std::fs::create_dir_all(&p.out_dir)?;
    t.write_json(&p.out_dir.join(format!("spans-pashd-seed{}.json", p.seed)))?;
    layers::compile_costs(&compiled, &cfg, m)?;
    let plans: Vec<_> = compiled
        .iter()
        .map(|sc| pash::compile(&sc.src, &cfg).map(|c| c.plan))
        .collect::<Result<_, _>>()
        .map_err(|e| io::Error::other(e.to_string()))?;
    m.insert(
        "plan.nodes",
        plans
            .iter()
            .map(|pl| pl.regions().map(|r| r.nodes.len()).sum::<usize>())
            .sum::<usize>() as f64,
    );
    layers::coreutils(&s.refs, s.seq_s, 0.0, m);
    layers::grep_rate(&s.inputs.read("in.txt")?, ctx, m)?;
    let profiles = ProfileStore::open(&s.cache_dir.join("profiles"))?;
    layers::optimizer(&s.scripts, &profiles, &layers::sizes(&s.inputs, &s.refs), m)?;
    service_layers(s, &plans, m)
}

/// MemFs snapshots, the disk plan cache and the disk profile store,
/// timed on the mix's own files and plans in a scratch directory.
fn service_layers(
    s: &Service,
    plans: &[pash::core::plan::ExecutionPlan],
    m: &mut Metrics,
) -> io::Result<()> {
    let snaps: Vec<f64> = (0..101)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(s.inputs.snapshot());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.insert("service.snapshot_us", median(&snaps));

    let dir = std::env::temp_dir().join("plancache-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DiskPlanCache::open(&dir)?;
    let mut store = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        let t0 = Instant::now();
        cache.store(&format!("probe-{i}"), plan, None)?;
        store.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    // A fresh handle has an empty memo, so loads read the files.
    let cache = DiskPlanCache::open(&dir)?;
    let mut load = Vec::new();
    for i in 0..plans.len() {
        let t0 = Instant::now();
        let hit = cache.load(&format!("probe-{i}"), false);
        load.push(t0.elapsed().as_secs_f64() * 1e6);
        if hit.is_none() {
            return Err(io::Error::other("plan cache probe missed its own entry"));
        }
    }
    m.insert("plancache.store_us", median(&store));
    m.insert("plancache.load_us", median(&load));

    let profiles = ProfileStore::open(&dir.join("profiles"))?;
    let mut record = Vec::new();
    for r in plans.iter().flat_map(|p| p.regions()) {
        let prof = RegionProfile::for_region(r);
        for id in 0..prof.len() {
            prof.add_in(id, 4096);
            prof.add_out(id, 4096);
            prof.add_busy(id, Duration::from_micros(100));
        }
        let t0 = Instant::now();
        profiles.record(&prof);
        record.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    m.insert("profile.record_us", median(&record));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The number after `"key":` in a flat JSON object.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
