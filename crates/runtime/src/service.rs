//! The `pashd` service substrate: wire protocol, two-tier plan-cache
//! plumbing, admission control, and the metrics surface.
//!
//! PaSh's compilation pass is pure overhead on every invocation; a
//! long-running service amortizes it across *requests*. This module
//! holds everything the daemon needs that is not policy:
//!
//! * a small length-prefixed protocol over a Unix-domain socket
//!   ([`Request`] / [`Response`], [`Client`]) carrying script source,
//!   configuration, backend name, and stdin bytes one way and
//!   stdout/status (plus written files) the other;
//! * [`DiskPlanCache`] — the on-disk tier behind the in-memory
//!   `compile_cached` LRU, storing `ExecutionPlan::dump()` text keyed
//!   by plan fingerprint with atomic rename writes and
//!   corruption-tolerant reads, so warm requests skip parse+lower even
//!   across daemon restarts;
//! * [`Semaphore`] — the `max_concurrent_runs` admission gate (the
//!   service-level analogue of the process backend's `max_inflight`
//!   region throttle);
//! * [`ServiceMetrics`] — per-tier compile hit/miss counters, queue
//!   depth, a request-latency histogram, and requests served,
//!   queryable over the socket;
//! * [`serve`] — the accept loop, one thread per connection, wiring
//!   admission and metrics around a caller-supplied request handler
//!   (the `pash` facade supplies the handler, since only it can reach
//!   every backend).
//!
//! The actual compile-and-run policy lives in `pash::daemon`; keeping
//! it out of this crate avoids a dependency cycle (the facade depends
//! on the runtime, not vice versa).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use pash_core::dfg::transform::SplitPolicy;
use pash_core::plan::ExecutionPlan;

use crate::profile::{evict_lru_by_mtime, write_atomic};

/// Largest frame either side accepts (64 MiB). Scripts, configs, and
/// benchmark corpora are far smaller; a length beyond this is a
/// protocol error or corruption, rejected before allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// A compile-and-run request's parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRequest {
    /// The shell script source.
    pub script: String,
    /// Backend selection name (`shell`, `threads`, `processes`, `sim`).
    pub backend: String,
    /// Parallelism width; `0` asks the daemon to choose per region
    /// from its measured profiles (adaptive).
    pub width: u32,
    /// Split-node policy (ignored for adaptive requests).
    pub split: SplitPolicy,
    /// Bytes fed to the program's stdin.
    pub stdin: Vec<u8>,
}

/// One protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Compile (through the plan caches) and run a script.
    Run(RunRequest),
    /// Seed a file into the daemon's template filesystem. Every run
    /// executes against a fresh snapshot of the template, so seeded
    /// corpora are shared while runs stay isolated.
    PutFile {
        /// Path within the template filesystem.
        path: String,
        /// File contents.
        bytes: Vec<u8>,
    },
    /// Fetch the metrics surface as JSON.
    Metrics,
    /// Stop the daemon (acknowledged before the listener closes).
    Shutdown,
}

/// Which cache tier satisfied a run's compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Nothing cached: the full front-end ran.
    Cold,
    /// Tier 1: the in-memory `compile_cached` LRU.
    Memory,
    /// Tier 2: the on-disk plan cache (parse of a stored dump).
    Disk,
}

impl CacheTier {
    fn to_u8(self) -> u8 {
        match self {
            CacheTier::Cold => 0,
            CacheTier::Memory => 1,
            CacheTier::Disk => 2,
        }
    }

    fn from_u8(v: u8) -> io::Result<CacheTier> {
        match v {
            0 => Ok(CacheTier::Cold),
            1 => Ok(CacheTier::Memory),
            2 => Ok(CacheTier::Disk),
            other => Err(bad_data(format!("bad cache tier {other}"))),
        }
    }
}

/// A successful run's reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResponse {
    /// The program's exit status.
    pub status: i32,
    /// Which cache tier served the compilation.
    pub tier: CacheTier,
    /// Time spent obtaining the plan (compile or cache read), µs.
    pub compile_micros: u64,
    /// End-to-end request latency as observed by the server, µs.
    pub total_micros: u64,
    /// The program's stdout bytes (for the `shell` and `sim` backends,
    /// the rendered artifact).
    pub stdout: Vec<u8>,
    /// Files the run created or modified relative to the template
    /// filesystem, so `> out.txt`-style results reach the client.
    pub files: Vec<(String, Vec<u8>)>,
}

/// One protocol response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request failed; human-readable reason.
    Error(String),
    /// A [`Request::Run`] completed (the *program's* status may still
    /// be nonzero — that is a result, not an error).
    Run(RunResponse),
    /// Text payload (metrics JSON).
    Text(String),
    /// Acknowledgement with no payload.
    Ack,
}

// --- codec ----------------------------------------------------------

pub(crate) fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A cursor over a decoded frame.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes left in the frame (bounds untrusted element counts).
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(bad_data("truncated frame".to_string()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(bad_data(format!("field length {len} out of range")));
        }
        Ok(self.take(len)?.to_vec())
    }

    pub(crate) fn string(&mut self) -> io::Result<String> {
        String::from_utf8(self.bytes()?).map_err(|_| bad_data("non-UTF-8 string".to_string()))
    }

    pub(crate) fn done(&self) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(bad_data("trailing bytes in frame".to_string()));
        }
        Ok(())
    }
}

fn split_to_u8(s: SplitPolicy) -> u8 {
    match s {
        SplitPolicy::Off => 0,
        SplitPolicy::General => 1,
        SplitPolicy::Sized => 2,
        SplitPolicy::RoundRobin => 3,
    }
}

fn split_from_u8(v: u8) -> io::Result<SplitPolicy> {
    match v {
        0 => Ok(SplitPolicy::Off),
        1 => Ok(SplitPolicy::General),
        2 => Ok(SplitPolicy::Sized),
        3 => Ok(SplitPolicy::RoundRobin),
        other => Err(bad_data(format!("bad split policy {other}"))),
    }
}

/// Writes one length-prefixed frame.
pub(crate) fn write_frame(w: &mut dyn Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame; `None` at clean end-of-stream.
pub(crate) fn read_frame(r: &mut dyn Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut len[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(bad_data("truncated frame length".to_string()));
        }
        got += n;
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(bad_data(format!("frame length {len} out of range")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Encodes and writes one request.
pub fn write_request(w: &mut dyn Write, req: &Request) -> io::Result<()> {
    let mut p = Vec::new();
    match req {
        Request::Run(r) => {
            p.push(1);
            put_str(&mut p, &r.script);
            put_str(&mut p, &r.backend);
            put_u32(&mut p, r.width);
            p.push(split_to_u8(r.split));
            put_bytes(&mut p, &r.stdin);
        }
        Request::PutFile { path, bytes } => {
            p.push(2);
            put_str(&mut p, path);
            put_bytes(&mut p, bytes);
        }
        Request::Metrics => p.push(3),
        Request::Shutdown => p.push(4),
    }
    write_frame(w, &p)
}

/// Reads and decodes one request; `None` at clean end-of-stream.
pub fn read_request(r: &mut dyn Read) -> io::Result<Option<Request>> {
    let Some(frame) = read_frame(r)? else {
        return Ok(None);
    };
    let mut c = Cursor {
        buf: &frame,
        pos: 0,
    };
    let req = match c.u8()? {
        1 => Request::Run(RunRequest {
            script: c.string()?,
            backend: c.string()?,
            width: c.u32()?,
            split: split_from_u8(c.u8()?)?,
            stdin: c.bytes()?,
        }),
        2 => Request::PutFile {
            path: c.string()?,
            bytes: c.bytes()?,
        },
        3 => Request::Metrics,
        4 => Request::Shutdown,
        other => return Err(bad_data(format!("bad request op {other}"))),
    };
    c.done()?;
    Ok(Some(req))
}

/// Encodes and writes one response.
pub fn write_response(w: &mut dyn Write, resp: &Response) -> io::Result<()> {
    let mut p = Vec::new();
    match resp {
        Response::Error(msg) => {
            p.push(0);
            put_str(&mut p, msg);
        }
        Response::Run(r) => {
            p.push(1);
            put_u32(&mut p, r.status as u32);
            p.push(r.tier.to_u8());
            put_u64(&mut p, r.compile_micros);
            put_u64(&mut p, r.total_micros);
            put_bytes(&mut p, &r.stdout);
            put_u32(&mut p, r.files.len() as u32);
            for (path, bytes) in &r.files {
                put_str(&mut p, path);
                put_bytes(&mut p, bytes);
            }
        }
        Response::Text(s) => {
            p.push(2);
            put_str(&mut p, s);
        }
        Response::Ack => p.push(3),
    }
    write_frame(w, &p)
}

/// Reads and decodes one response.
pub fn read_response(r: &mut dyn Read) -> io::Result<Response> {
    let frame = read_frame(r)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
    })?;
    let mut c = Cursor {
        buf: &frame,
        pos: 0,
    };
    let resp = match c.u8()? {
        0 => Response::Error(c.string()?),
        1 => {
            let status = c.u32()? as i32;
            let tier = CacheTier::from_u8(c.u8()?)?;
            let compile_micros = c.u64()?;
            let total_micros = c.u64()?;
            let stdout = c.bytes()?;
            let nfiles = c.u32()? as usize;
            // Each file needs at least two length prefixes (8 bytes),
            // so a count the remaining frame cannot hold is corruption
            // — reject before allocating for it.
            if nfiles > c.remaining() / 8 {
                return Err(bad_data(format!("file count {nfiles} out of range")));
            }
            let mut files = Vec::with_capacity(nfiles);
            for _ in 0..nfiles {
                files.push((c.string()?, c.bytes()?));
            }
            Response::Run(RunResponse {
                status,
                tier,
                compile_micros,
                total_micros,
                stdout,
                files,
            })
        }
        2 => Response::Text(c.string()?),
        3 => Response::Ack,
        other => return Err(bad_data(format!("bad response tag {other}"))),
    };
    c.done()?;
    Ok(resp)
}

// --- client ---------------------------------------------------------

/// A blocking protocol client over a Unix-domain socket.
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to a daemon's socket.
    pub fn connect(path: &Path) -> io::Result<Client> {
        Ok(Client {
            stream: UnixStream::connect(path)?,
        })
    }

    fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        write_request(&mut self.stream, req)?;
        read_response(&mut self.stream)
    }

    /// Compiles and runs a script on the daemon.
    pub fn run(&mut self, req: RunRequest) -> io::Result<RunResponse> {
        match self.round_trip(&Request::Run(req))? {
            Response::Run(r) => Ok(r),
            Response::Error(msg) => Err(io::Error::other(msg)),
            other => Err(bad_data(format!("unexpected response {other:?}"))),
        }
    }

    /// Seeds a file into the daemon's template filesystem.
    pub fn put_file(&mut self, path: &str, bytes: Vec<u8>) -> io::Result<()> {
        match self.round_trip(&Request::PutFile {
            path: path.to_string(),
            bytes,
        })? {
            Response::Ack => Ok(()),
            Response::Error(msg) => Err(io::Error::other(msg)),
            other => Err(bad_data(format!("unexpected response {other:?}"))),
        }
    }

    /// Fetches the metrics surface as JSON.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.round_trip(&Request::Metrics)? {
            Response::Text(s) => Ok(s),
            Response::Error(msg) => Err(io::Error::other(msg)),
            other => Err(bad_data(format!("unexpected response {other:?}"))),
        }
    }

    /// Asks the daemon to stop (returns once acknowledged).
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Ack => Ok(()),
            Response::Error(msg) => Err(io::Error::other(msg)),
            other => Err(bad_data(format!("unexpected response {other:?}"))),
        }
    }
}

// --- admission ------------------------------------------------------

/// A counting semaphore: the `max_concurrent_runs` admission gate.
///
/// The execution backends already bound *intra-run* parallelism with
/// `max_inflight` (regions per wave); this is the same idea one level
/// up — runs admitted concurrently — so a burst of requests queues at
/// the door instead of oversubscribing the machine.
pub struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    /// A semaphore with `n` permits (clamped to ≥ 1).
    pub fn new(n: usize) -> Semaphore {
        Semaphore {
            permits: Mutex::new(n.max(1)),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a permit is available; the guard releases on drop.
    pub fn acquire(&self) -> SemaphoreGuard<'_> {
        let mut permits = self.permits.lock().expect("semaphore lock");
        while *permits == 0 {
            permits = self.cv.wait(permits).expect("semaphore wait");
        }
        *permits -= 1;
        SemaphoreGuard { sem: self }
    }
}

/// A held semaphore permit.
pub struct SemaphoreGuard<'a> {
    sem: &'a Semaphore,
}

impl Drop for SemaphoreGuard<'_> {
    fn drop(&mut self) {
        *self.sem.permits.lock().expect("semaphore lock") += 1;
        self.sem.cv.notify_one();
    }
}

// --- metrics --------------------------------------------------------

/// Log₂-bucketed latency histogram over microseconds.
struct LatencyHistogram {
    /// `buckets[i]` counts samples with `us < 2^(i+1)` (and `≥ 2^i`
    /// for `i > 0`).
    buckets: [AtomicU64; 40],
    max_us: AtomicU64,
}

impl LatencyHistogram {
    fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max_us: AtomicU64::new(0),
        }
    }

    fn record(&self, us: u64) {
        let idx = (64 - us.leading_zeros() as usize).saturating_sub(1).min(39);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// The upper bound (µs) of the bucket holding quantile `q`.
    fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                return 1u64 << (i + 1);
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// The daemon's metrics surface: compile hit/miss per cache tier,
/// admission-queue depth, request-latency histogram, requests served.
/// Queryable over the socket as JSON ([`Request::Metrics`]).
pub struct ServiceMetrics {
    /// Requests of any kind served.
    pub requests: AtomicU64,
    /// Run requests served.
    pub runs: AtomicU64,
    /// Compilations served by the in-memory `compile_cached` LRU.
    pub tier1_hits: AtomicU64,
    /// Compilations served by the on-disk plan cache.
    pub tier2_hits: AtomicU64,
    /// Compilations that ran the full front-end.
    pub compile_misses: AtomicU64,
    /// Requests answered with an error.
    pub errors: AtomicU64,
    /// Runs currently waiting for an admission permit (gauge).
    pub queue_depth: AtomicU64,
    /// Runs currently holding an admission permit (gauge).
    pub inflight: AtomicU64,
    /// Runs that went through the profile-guided optimizer
    /// (`width == 0` requests).
    pub adaptive_runs: AtomicU64,
    /// Profile-store lookups that found measured rates for at least
    /// one of the script's commands (mirrors [`ProfileStore::hits`]).
    pub profile_hits: AtomicU64,
    /// Profile-store lookups that found nothing (cold priors used).
    pub profile_misses: AtomicU64,
    /// Width the optimizer chose for the most recent adaptive run.
    pub last_chosen_width: AtomicU64,
    /// Split policy of that run, in the wire codec's encoding
    /// (`split_to_u8`).
    pub last_chosen_split: AtomicU64,
    latency: LatencyHistogram,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics {
            requests: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            tier1_hits: AtomicU64::new(0),
            tier2_hits: AtomicU64::new(0),
            compile_misses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            adaptive_runs: AtomicU64::new(0),
            profile_hits: AtomicU64::new(0),
            profile_misses: AtomicU64::new(0),
            last_chosen_width: AtomicU64::new(0),
            last_chosen_split: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        }
    }
}

impl ServiceMetrics {
    /// Records one run's end-to-end latency.
    pub fn record_latency(&self, us: u64) {
        self.latency.record(us);
    }

    /// Records the optimizer's decision for an adaptive run.
    pub fn record_choice(&self, width: usize, split: SplitPolicy) {
        self.adaptive_runs.fetch_add(1, Ordering::Relaxed);
        self.last_chosen_width
            .store(width as u64, Ordering::Relaxed);
        self.last_chosen_split
            .store(split_to_u8(split) as u64, Ordering::Relaxed);
    }

    /// Renders the surface as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let split = match split_from_u8(g(&self.last_chosen_split) as u8) {
            Ok(SplitPolicy::General) => "general",
            Ok(SplitPolicy::Sized) => "sized",
            Ok(SplitPolicy::RoundRobin) => "round-robin",
            Ok(SplitPolicy::Off) | Err(_) => "off",
        };
        format!(
            "{{\"requests_served\":{},\"run_requests\":{},\"tier1_hits\":{},\
             \"tier2_hits\":{},\"compile_misses\":{},\"errors\":{},\
             \"queue_depth\":{},\"inflight\":{},\"adaptive_runs\":{},\
             \"profile_hits\":{},\"profile_misses\":{},\
             \"last_chosen_width\":{},\"last_chosen_split\":\"{}\",\
             \"latency\":{{\"count\":{},\
             \"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}}}",
            g(&self.requests),
            g(&self.runs),
            g(&self.tier1_hits),
            g(&self.tier2_hits),
            g(&self.compile_misses),
            g(&self.errors),
            g(&self.queue_depth),
            g(&self.inflight),
            g(&self.adaptive_runs),
            g(&self.profile_hits),
            g(&self.profile_misses),
            g(&self.last_chosen_width),
            split,
            self.latency.count(),
            self.latency.quantile(0.50),
            self.latency.quantile(0.90),
            self.latency.quantile(0.99),
            self.latency.max_us.load(Ordering::Relaxed),
        )
    }
}

// --- disk plan cache ------------------------------------------------

/// FNV-1a over a byte string (the key-file naming hash).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The on-disk plan-cache tier.
///
/// Layout under the cache root:
///
/// * `plans/<fingerprint-hex>.plan` — an `ExecutionPlan::dump()`,
///   content-addressed by [`ExecutionPlan::fingerprint`];
/// * `keys/<fnv1a(request-key)-hex>.key` — maps a request key (the
///   same `"{cfg.cache_key()}\0{src}"` string `compile_cached` uses)
///   to its main-plan fingerprint plus the width-1 fallback-plan
///   fingerprint (or `-`), with the full key stored for collision
///   verification.
///
/// Writes go to a unique temp sibling and `rename(2)` into place
/// ([`crate::profile::write_atomic`]), so readers never observe a
/// half-written entry. Reads are
/// corruption-tolerant: any parse failure, fingerprint mismatch, or
/// key collision is a silent miss — the caller recompiles and
/// rewrites, never trusts damaged bytes. A small in-memory memo of
/// parsed plans keeps warm hits from re-reading the files.
pub struct DiskPlanCache {
    root: PathBuf,
    /// Parsed-plan memo keyed by request key (bounded; cleared when
    /// it outgrows [`Self::MEMO_CAP`]).
    memo: Mutex<HashMap<String, (Arc<ExecutionPlan>, Option<Arc<ExecutionPlan>>)>>,
    /// On-disk footprint bound; least-recently-written entries are
    /// evicted after each store once the tree exceeds this.
    max_bytes: u64,
}

impl DiskPlanCache {
    const MEMO_CAP: usize = 512;

    /// Default on-disk footprint bound (plan dumps are a few KiB each,
    /// so this holds thousands of entries).
    pub const DEFAULT_MAX_BYTES: u64 = 16 * 1024 * 1024;

    /// Opens (creating if needed) a cache rooted at `root`.
    pub fn open(root: &Path) -> io::Result<DiskPlanCache> {
        std::fs::create_dir_all(root.join("plans"))?;
        std::fs::create_dir_all(root.join("keys"))?;
        Ok(DiskPlanCache {
            root: root.to_path_buf(),
            memo: Mutex::new(HashMap::new()),
            max_bytes: Self::DEFAULT_MAX_BYTES,
        })
    }

    /// Overrides the on-disk footprint bound.
    pub fn with_disk_cap(mut self, max_bytes: u64) -> DiskPlanCache {
        self.max_bytes = max_bytes;
        self
    }

    fn key_path(&self, key: &str) -> PathBuf {
        self.root
            .join("keys")
            .join(format!("{:016x}.key", fnv1a(key.as_bytes())))
    }

    fn plan_path(&self, fingerprint: u64) -> PathBuf {
        self.root
            .join("plans")
            .join(format!("{fingerprint:016x}.plan"))
    }

    /// Stores a compilation under `key`. Plan files are
    /// content-addressed, so re-storing an existing plan is a no-op
    /// write of identical bytes.
    pub fn store(
        &self,
        key: &str,
        plan: &ExecutionPlan,
        fallback: Option<&ExecutionPlan>,
    ) -> io::Result<()> {
        let fp = plan.fingerprint();
        write_atomic(&self.plan_path(fp), plan.dump().as_bytes())?;
        let fb = match fallback {
            Some(f) => {
                let fbp = f.fingerprint();
                write_atomic(&self.plan_path(fbp), f.dump().as_bytes())?;
                format!("{fbp:016x}")
            }
            None => "-".to_string(),
        };
        let entry = format!("pash-key v1\nplan {fp:016x}\nfallback {fb}\nkey {key:?}\n");
        write_atomic(&self.key_path(key), entry.as_bytes())?;
        // Bound the on-disk footprint, sweeping only this cache's own
        // subtrees (the daemon nests its profile store under the same
        // root). Eviction may orphan a key file whose plan was removed
        // (or vice versa); `load` treats either as a plain miss, so a
        // failed or partial sweep is harmless.
        for sub in ["plans", "keys"] {
            let _ = evict_lru_by_mtime(&self.root.join(sub), self.max_bytes / 2);
        }
        Ok(())
    }

    /// Reads and re-verifies one plan file by fingerprint.
    fn load_plan(&self, fingerprint: u64) -> Option<Arc<ExecutionPlan>> {
        let text = std::fs::read_to_string(self.plan_path(fingerprint)).ok()?;
        let plan = ExecutionPlan::parse_dump(&text).ok()?;
        // The stored dump must hash to its own file name: a flipped
        // byte that still parses is rejected here.
        if plan.fingerprint() != fingerprint {
            return None;
        }
        Some(Arc::new(plan))
    }

    /// Looks `key` up; `None` is a miss (including every corruption
    /// case). `require_fallback` demands the entry carry a fallback
    /// plan (callers that will run under a fallback-enabled supervisor
    /// must not warm-start without one).
    pub fn load(
        &self,
        key: &str,
        require_fallback: bool,
    ) -> Option<(Arc<ExecutionPlan>, Option<Arc<ExecutionPlan>>)> {
        if let Some((plan, fb)) = self.memo.lock().expect("plan memo lock").get(key) {
            if !require_fallback || fb.is_some() {
                return Some((plan.clone(), fb.clone()));
            }
        }
        let text = std::fs::read_to_string(self.key_path(key)).ok()?;
        let mut lines = text.lines();
        if lines.next() != Some("pash-key v1") {
            return None;
        }
        let fp = u64::from_str_radix(lines.next()?.strip_prefix("plan ")?, 16).ok()?;
        let fb_field = lines.next()?.strip_prefix("fallback ")?;
        let stored_key = lines.next()?.strip_prefix("key ")?;
        // Hash collision (or truncated key line): verify the full key.
        if stored_key != format!("{key:?}") {
            return None;
        }
        let fallback_fp = match fb_field {
            "-" => None,
            hex => Some(u64::from_str_radix(hex, 16).ok()?),
        };
        if require_fallback && fallback_fp.is_none() {
            return None;
        }
        let plan = self.load_plan(fp)?;
        let fallback = match fallback_fp {
            Some(fbfp) => Some(self.load_plan(fbfp)?),
            None => None,
        };
        let mut memo = self.memo.lock().expect("plan memo lock");
        if memo.len() >= Self::MEMO_CAP {
            memo.clear();
        }
        memo.insert(key.to_string(), (plan.clone(), fallback.clone()));
        Some((plan, fallback))
    }
}

// --- server ---------------------------------------------------------

/// Server-side knobs.
pub struct ServiceSettings {
    /// Admission-control width: how many runs may execute at once.
    pub max_concurrent_runs: usize,
    /// How long shutdown waits for in-flight requests to finish
    /// writing their responses before force-closing connections. The
    /// drain guarantees no client whose request was already being
    /// served sees a torn (half-written) response.
    pub drain_deadline: std::time::Duration,
}

impl Default for ServiceSettings {
    fn default() -> Self {
        ServiceSettings {
            max_concurrent_runs: 2,
            drain_deadline: std::time::Duration::from_secs(5),
        }
    }
}

/// The request handler the embedding crate supplies: it sees `Run` and
/// `PutFile` requests (`Metrics` and `Shutdown` are handled by the
/// server). For `Run`, `tier`/`compile_micros` in the returned
/// [`RunResponse`] report cache behaviour; the server fills
/// `total_micros` and the latency histogram.
pub type Handler = dyn Fn(Request) -> Response + Send + Sync;

/// Binds a Unix-domain socket at `path`, replacing a stale socket file
/// if one is present.
pub fn bind(path: &Path) -> io::Result<UnixListener> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    UnixListener::bind(path)
}

/// The live-connection registry shutdown drains: each entry is a
/// handle to the connection's socket plus its busy flag (set while a
/// request is being served and its response written).
type ConnRegistry = Arc<Mutex<HashMap<u64, (UnixStream, Arc<AtomicBool>)>>>;

/// The accept loop: one thread per connection, requests served in
/// order per connection, `Run` requests gated by the admission
/// semaphore and timed into the latency histogram.
///
/// Returns after a [`Request::Shutdown`] is acknowledged and every
/// connection has drained: in-flight requests get up to
/// [`ServiceSettings::drain_deadline`] to finish writing their
/// responses, then remaining connections are force-closed (waking
/// readers blocked on idle clients) and the threads joined — so a
/// client whose request was already being served never sees a torn
/// response. The socket file is removed on the way out.
pub fn serve(
    listener: UnixListener,
    socket_path: &Path,
    metrics: Arc<ServiceMetrics>,
    settings: ServiceSettings,
    handler: Arc<Handler>,
) -> io::Result<()> {
    let running = Arc::new(AtomicBool::new(true));
    let admission = Arc::new(Semaphore::new(settings.max_concurrent_runs));
    let conns: ConnRegistry = Arc::new(Mutex::new(HashMap::new()));
    let mut workers = Vec::new();
    let mut next_id: u64 = 0;
    while running.load(Ordering::SeqCst) {
        let (stream, _) = match listener.accept() {
            Ok(s) => s,
            Err(e) => {
                if running.load(Ordering::SeqCst) {
                    return Err(e);
                }
                break;
            }
        };
        if !running.load(Ordering::SeqCst) {
            break;
        }
        let id = next_id;
        next_id += 1;
        let busy = Arc::new(AtomicBool::new(false));
        if let Ok(handle) = stream.try_clone() {
            conns
                .lock()
                .expect("conn registry lock")
                .insert(id, (handle, busy.clone()));
        }
        let metrics = metrics.clone();
        let handler = handler.clone();
        let admission = admission.clone();
        let running = running.clone();
        let conns = conns.clone();
        let wake_path = socket_path.to_path_buf();
        workers.push(std::thread::spawn(move || {
            serve_connection(
                stream, &metrics, &handler, &admission, &running, &wake_path, &busy,
            );
            conns.lock().expect("conn registry lock").remove(&id);
        }));
    }
    // Drain: wait (bounded) for busy connections to finish their
    // response writes, then force-close whatever is left so readers
    // blocked on idle clients wake up and the joins below terminate.
    let deadline = Instant::now() + settings.drain_deadline;
    loop {
        let any_busy = conns
            .lock()
            .expect("conn registry lock")
            .values()
            .any(|(_, busy)| busy.load(Ordering::SeqCst));
        if !any_busy || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    for (_, (stream, _)) in conns.lock().expect("conn registry lock").drain() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_file(socket_path);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn serve_connection(
    mut stream: UnixStream,
    metrics: &ServiceMetrics,
    handler: &Arc<Handler>,
    admission: &Semaphore,
    running: &AtomicBool,
    wake_path: &Path,
    busy: &AtomicBool,
) {
    loop {
        let req = match read_request(&mut stream) {
            Ok(Some(req)) => req,
            Ok(None) | Err(_) => return,
        };
        busy.store(true, Ordering::SeqCst);
        metrics.requests.fetch_add(1, Ordering::Relaxed);
        let resp = match req {
            Request::Metrics => Response::Text(metrics.to_json()),
            Request::Shutdown => {
                let _ = write_response(&mut stream, &Response::Ack);
                busy.store(false, Ordering::SeqCst);
                running.store(false, Ordering::SeqCst);
                // Unblock the accept loop (a failed connect means the
                // listener is already past accept).
                let _ = UnixStream::connect(wake_path);
                return;
            }
            Request::Run(_) => {
                metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                let permit = admission.acquire();
                metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                metrics.inflight.fetch_add(1, Ordering::Relaxed);
                let start = Instant::now();
                let resp = handler(req);
                let us = start.elapsed().as_micros() as u64;
                metrics.inflight.fetch_sub(1, Ordering::Relaxed);
                drop(permit);
                metrics.runs.fetch_add(1, Ordering::Relaxed);
                metrics.record_latency(us);
                match resp {
                    Response::Run(mut r) => {
                        r.total_micros = us;
                        match r.tier {
                            CacheTier::Cold => &metrics.compile_misses,
                            CacheTier::Memory => &metrics.tier1_hits,
                            CacheTier::Disk => &metrics.tier2_hits,
                        }
                        .fetch_add(1, Ordering::Relaxed);
                        Response::Run(r)
                    }
                    other => other,
                }
            }
            other => handler(other),
        };
        if matches!(resp, Response::Error(_)) {
            metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        let wrote = write_response(&mut stream, &resp);
        busy.store(false, Ordering::SeqCst);
        // A drain in progress: this response is complete, and the
        // connection closes cleanly instead of reading another
        // request the dying daemon could not honour.
        if wrote.is_err() || !running.load(Ordering::SeqCst) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_codec_round_trips() {
        let reqs = [
            Request::Run(RunRequest {
                script: "cat in.txt | sort".to_string(),
                backend: "threads".to_string(),
                width: 8,
                split: SplitPolicy::RoundRobin,
                stdin: b"line\n".to_vec(),
            }),
            Request::PutFile {
                path: "in.txt".to_string(),
                bytes: vec![0, 1, 2, 255],
            },
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in reqs {
            let mut buf = Vec::new();
            write_request(&mut buf, &req).expect("encode");
            let got = read_request(&mut io::Cursor::new(buf))
                .expect("decode")
                .expect("some");
            assert_eq!(got, req);
        }
        assert_eq!(
            read_request(&mut io::Cursor::new(Vec::new())).expect("eof"),
            None
        );
    }

    #[test]
    fn response_codec_round_trips() {
        let resps = [
            Response::Error("nope".to_string()),
            Response::Run(RunResponse {
                status: -13,
                tier: CacheTier::Disk,
                compile_micros: 42,
                total_micros: 99,
                stdout: b"out".to_vec(),
                files: vec![("out.txt".to_string(), b"data".to_vec())],
            }),
            Response::Text("{}".to_string()),
            Response::Ack,
        ];
        for resp in resps {
            let mut buf = Vec::new();
            write_response(&mut buf, &resp).expect("encode");
            let got = read_response(&mut io::Cursor::new(buf)).expect("decode");
            assert_eq!(got, resp);
        }
    }

    #[test]
    fn corrupt_frames_are_invalid_data() {
        // Oversized frame length.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_request(&mut io::Cursor::new(buf)).expect_err("oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncated payload.
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::PutFile {
                path: "p".to_string(),
                bytes: vec![1; 64],
            },
        )
        .expect("encode");
        buf.truncate(buf.len() - 10);
        assert!(read_request(&mut io::Cursor::new(buf)).is_err());
        // Bad op byte.
        let mut buf = Vec::new();
        write_frame(&mut buf, &[99]).expect("frame");
        let err = read_request(&mut io::Cursor::new(buf)).expect_err("bad op");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Arbitrary garbage fed to the decoders: a structured
        // io::Error or a clean EOF, never a panic — and transparently
        // never a hang, since decoding is a pure function of the
        // bytes. Random payloads can legitimately decode (op byte 3 =
        // Metrics), so only the error *kind* is constrained.
        #[test]
        fn prop_decoders_survive_garbage(
            data in proptest::collection::vec(0u8..255, 0..2048),
        ) {
            for result in [
                read_request(&mut io::Cursor::new(data.clone())).map(|_| ()),
                read_response(&mut io::Cursor::new(data.clone())).map(|_| ()),
            ] {
                if let Err(e) = result {
                    prop_assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ),
                        "unstructured error: {e:?}"
                    );
                }
            }
        }

        // A valid request truncated at every possible point: byte-
        // identical round-trip when whole, clean EOF when cut at zero,
        // a structured error anywhere in between — never a panic and
        // never a partial decode passed off as success.
        #[test]
        fn prop_truncated_requests_error_cleanly(
            script in "[a-z |.><&;-]{0,64}",
            stdin in proptest::collection::vec(0u8..255, 0..256),
            cut_frac in 0.0f64..1.0,
        ) {
            let req = Request::Run(RunRequest {
                script,
                backend: "threads".to_string(),
                width: 4,
                split: SplitPolicy::RoundRobin,
                stdin,
            });
            let mut buf = Vec::new();
            write_request(&mut buf, &req).expect("encode");
            let whole = read_request(&mut io::Cursor::new(buf.clone()))
                .expect("decode")
                .expect("some");
            prop_assert_eq!(&whole, &req);
            let cut = ((buf.len() as f64) * cut_frac) as usize;
            if cut < buf.len() {
                match read_request(&mut io::Cursor::new(buf[..cut].to_vec())) {
                    Ok(None) => prop_assert_eq!(cut, 0, "partial frame decoded as EOF"),
                    Ok(Some(_)) => prop_assert!(false, "truncated frame decoded"),
                    Err(e) => prop_assert!(matches!(
                        e.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    )),
                }
            }
        }

        // Oversized length prefixes are rejected before allocation,
        // whatever follows them.
        #[test]
        fn prop_oversized_frames_are_rejected(
            extra in 1u64..u32::MAX as u64 - MAX_FRAME as u64,
            tail in proptest::collection::vec(0u8..255, 0..64),
        ) {
            let len = (MAX_FRAME as u64 + extra) as u32;
            let mut buf = len.to_le_bytes().to_vec();
            buf.extend_from_slice(&tail);
            let err = read_request(&mut io::Cursor::new(buf)).expect_err("oversized");
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }

        // A run-response frame whose claimed file count exceeds what
        // the frame could physically hold is rejected up front (no
        // attacker-sized allocation).
        #[test]
        fn prop_inflated_file_counts_are_rejected(nfiles in 1u32..u32::MAX) {
            let mut p = Vec::new();
            p.push(1u8); // Response::Run
            put_u32(&mut p, 0); // status
            p.push(0); // tier
            put_u64(&mut p, 0);
            put_u64(&mut p, 0);
            put_bytes(&mut p, b""); // stdout
            put_u32(&mut p, nfiles);
            let mut buf = Vec::new();
            write_frame(&mut buf, &p).expect("frame");
            let err = read_response(&mut io::Cursor::new(buf)).expect_err("inflated");
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn semaphore_bounds_concurrency() {
        use std::sync::atomic::AtomicUsize;
        let sem = Arc::new(Semaphore::new(2));
        let inflight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (sem, inflight, peak) = (sem.clone(), inflight.clone(), peak.clone());
            handles.push(std::thread::spawn(move || {
                let _g = sem.acquire();
                let now = inflight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(5));
                inflight.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().expect("join");
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "admission exceeded");
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        let h = LatencyHistogram::new();
        for us in [3u64, 10, 100, 1000, 10_000, 10_000, 10_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 7);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(p99 >= 10_000);
        assert_eq!(h.max_us.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn metrics_render_each_recorded_split_policy() {
        let m = ServiceMetrics::default();
        for (policy, name) in [
            (SplitPolicy::Off, "off"),
            (SplitPolicy::General, "general"),
            (SplitPolicy::Sized, "sized"),
            (SplitPolicy::RoundRobin, "round-robin"),
        ] {
            m.record_choice(4, policy);
            // One encoding: the wire codec's.
            assert_eq!(
                m.last_chosen_split.load(Ordering::Relaxed),
                split_to_u8(policy) as u64
            );
            let json = m.to_json();
            assert!(
                json.contains(&format!("\"last_chosen_split\":\"{name}\"")),
                "{policy:?} rendered as {json}"
            );
        }
    }

    fn tiny_plan(text: &str) -> ExecutionPlan {
        ExecutionPlan {
            steps: vec![pash_core::plan::PlanStep::Shell {
                text: text.to_string(),
                data_noop: false,
            }],
        }
    }

    #[test]
    fn disk_cache_round_trips_and_tolerates_corruption() {
        let root = std::env::temp_dir().join(format!("pash-dpc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = DiskPlanCache::open(&root).expect("open");
        let plan = tiny_plan("echo hi");
        let fb = tiny_plan("echo fallback");
        cache.store("k1", &plan, Some(&fb)).expect("store");
        let (got, got_fb) = cache.load("k1", true).expect("hit");
        assert_eq!(got.dump(), plan.dump());
        assert_eq!(got_fb.expect("fallback").dump(), fb.dump());
        assert!(cache.load("absent", false).is_none());
        // A second cache instance (fresh memo) reads from disk.
        let cache2 = DiskPlanCache::open(&root).expect("open");
        assert!(cache2.load("k1", false).is_some());
        // Truncate the plan file: the fresh instance must miss, not
        // return a damaged plan.
        let fp = plan.fingerprint();
        let pp = cache2.plan_path(fp);
        let bytes = std::fs::read(&pp).expect("read plan");
        std::fs::write(&pp, &bytes[..bytes.len() / 2]).expect("truncate");
        let cache3 = DiskPlanCache::open(&root).expect("open");
        assert!(
            cache3.load("k1", false).is_none(),
            "corrupt entry must miss"
        );
        // Re-storing heals the entry.
        cache3.store("k1", &plan, None).expect("restore");
        assert!(cache3.load("k1", false).is_some());
        assert!(
            cache3.load("k1", true).is_none(),
            "entry without fallback must miss when fallback is required"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_cache_same_key_stores_race_cleanly() {
        // Threads of one daemon storing the same key at once: every
        // store succeeds, and every load (from disk, via a fresh
        // instance) either misses or returns a whole stored entry.
        let root = std::env::temp_dir().join(format!("pash-dpc-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = DiskPlanCache::open(&root).expect("open");
        let plan = tiny_plan(&"echo a long enough plan text ".repeat(64));
        let fb = tiny_plan(&"echo the fallback ".repeat(64));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        cache.store("k", &plan, Some(&fb)).expect("store");
                        let reader = DiskPlanCache::open(&root).expect("open");
                        if let Some((got, got_fb)) = reader.load("k", true) {
                            assert_eq!(got.dump(), plan.dump());
                            assert_eq!(got_fb.expect("fallback").dump(), fb.dump());
                        }
                    }
                });
            }
        });
        let reader = DiskPlanCache::open(&root).expect("open");
        assert!(reader.load("k", true).is_some(), "final entry loads");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_cache_rejects_key_collisions() {
        let root = std::env::temp_dir().join(format!("pash-dpc-coll-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = DiskPlanCache::open(&root).expect("open");
        let plan = tiny_plan("echo hi");
        cache.store("honest", &plan, None).expect("store");
        // Forge a different key whose file we overwrite in place: the
        // stored full key no longer matches, so the lookup must miss.
        let forged = cache.key_path("honest");
        let text = std::fs::read_to_string(&forged).expect("read key");
        let tampered = text.replace("\"honest\"", "\"tampered\"");
        std::fs::write(&forged, tampered).expect("tamper");
        assert!(cache.load("honest", false).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_cache_evicts_oldest_entries_past_cap() {
        let root = std::env::temp_dir().join(format!("pash-dpc-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // A cap small enough that a handful of entries overflow it.
        let cache = DiskPlanCache::open(&root).expect("open").with_disk_cap(512);
        let now = std::time::SystemTime::now();
        let mut seen = std::collections::HashSet::new();
        for i in 0..8u64 {
            let plan = tiny_plan(&format!("echo entry-{i} with some padding text"));
            cache.store(&format!("k{i}"), &plan, None).expect("store");
            // Backdate each entry's files once, in store order, so the
            // mtime-LRU sweep sees an unambiguous write sequence.
            for dir in ["plans", "keys"] {
                for f in std::fs::read_dir(root.join(dir)).expect("ls") {
                    let path = f.expect("entry").path();
                    if seen.insert(path.clone()) {
                        let _ = std::fs::File::options()
                            .write(true)
                            .open(&path)
                            .and_then(|h| {
                                h.set_modified(now - std::time::Duration::from_secs(100 - i))
                            });
                    }
                }
            }
        }
        let tree_size: u64 = ["plans", "keys"]
            .iter()
            .flat_map(|d| std::fs::read_dir(root.join(d)).expect("ls"))
            .map(|f| f.expect("entry").metadata().expect("meta").len())
            .sum();
        assert!(tree_size <= 512, "cap not enforced: {tree_size}");
        // Early entries were evicted; the newest still loads (a fresh
        // instance, so the hit comes from disk, not the memo).
        let fresh = DiskPlanCache::open(&root).expect("open");
        assert!(fresh.load("k0", false).is_none(), "oldest should be gone");
        assert!(fresh.load("k7", false).is_some(), "newest should survive");
        let _ = std::fs::remove_dir_all(&root);
    }
}
