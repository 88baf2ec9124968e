//! `pashd` — the persistent compile-and-run daemon.
//!
//! The runtime's [`crate::runtime::service`] module supplies the
//! mechanism (protocol, admission, metrics, disk cache); this module
//! supplies the policy: how a [`RunRequest`] becomes a compiled
//! [`RunHandle`] through the two cache tiers and how a run executes in
//! isolation.
//!
//! **Cache tiers.** A request's key is the same
//! `"{cfg.cache_key()}\0{src}"` string the in-memory memo uses.
//! Lookup order:
//!
//! 1. *tier 1* — [`compile_cache_peek`] against the process-wide
//!    `compile_cached` LRU (full front-end artifacts);
//! 2. *tier 2* — [`DiskPlanCache::load`], which re-parses a stored
//!    `ExecutionPlan::dump()`; this survives daemon restarts, so a
//!    fresh process warm-starts from disk without re-running
//!    parse+lower;
//! 3. *miss* — compile through `compile_cached` (populating tier 1)
//!    and write the dump(s) to tier 2.
//!
//! **Isolation.** The daemon owns a *template* [`MemFs`] seeded over
//! the socket (`PutFile`). Every run executes against
//! [`MemFs::snapshot`] of the template — `Arc`-shared contents,
//! independent tree — so concurrent runs never observe each other's
//! writes. Files a run created or modified (detected by `Arc` pointer
//! identity, no byte comparisons) are returned in the response.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::core::compile::{compile_cache_peek, compile_cached, PashConfig};
use crate::core::optimize::{optimize, OptimizerConfig};
use crate::coreutils::fs::MemFs;
use crate::coreutils::Registry;
use crate::runtime::profile::{node_label, ProfileStore};
use crate::runtime::service::{
    self, CacheTier, DiskPlanCache, Request, Response, RunRequest, RunResponse, ServiceMetrics,
    ServiceSettings,
};
use crate::runtime::supervise::SupervisorSettings;
use crate::sim::{CostModel, InputSizes, SimPricer};
use crate::{wants_fallback, BackendOutput, RunEnv, RunError, RunHandle};

/// Daemon construction parameters.
pub struct DaemonConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// On-disk plan-cache root; `None` runs with tier 1 only.
    pub cache_dir: Option<PathBuf>,
    /// Admission-control width (runs executing at once).
    pub max_concurrent_runs: usize,
    /// Supervisor settings applied to every run (retries, deadlines,
    /// fault injection, sequential fallback). Daemon-level rather than
    /// per-request: recovery policy belongs to the operator, not the
    /// client.
    pub supervisor: SupervisorSettings,
    /// `pash-worker` sockets for requests selecting the `remote`
    /// backend. Daemon-level for the same reason the supervisor is:
    /// placement is operator topology, not client input.
    pub workers: Vec<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            socket: PathBuf::from("pashd.sock"),
            cache_dir: None,
            max_concurrent_runs: 2,
            supervisor: SupervisorSettings::default(),
            workers: Vec::new(),
        }
    }
}

/// The daemon's shared state: the compile tiers and the template
/// filesystem. One instance serves every connection.
pub struct Daemon {
    template: MemFs,
    registry: Registry,
    disk: Option<DiskPlanCache>,
    supervisor: SupervisorSettings,
    workers: Vec<PathBuf>,
    metrics: Arc<ServiceMetrics>,
    /// Measured per-command rates, recorded by every run and consulted
    /// by adaptive (`width == 0`) requests. Disk-backed beside the plan
    /// cache so profiles survive restarts.
    profile: Arc<ProfileStore>,
}

impl Daemon {
    /// Builds daemon state (opening the disk cache if configured).
    pub fn new(cfg: &DaemonConfig) -> io::Result<Daemon> {
        let disk = match &cfg.cache_dir {
            Some(dir) => Some(DiskPlanCache::open(dir)?),
            None => None,
        };
        let profile = match &cfg.cache_dir {
            Some(dir) => ProfileStore::open(&dir.join("profiles"))?,
            None => ProfileStore::in_memory(),
        };
        Ok(Daemon {
            template: MemFs::new(),
            registry: Registry::standard(),
            disk,
            supervisor: cfg.supervisor.clone(),
            workers: cfg.workers.clone(),
            metrics: Arc::new(ServiceMetrics::default()),
            profile: Arc::new(profile),
        })
    }

    /// The metrics surface (shared with the server loop).
    pub fn metrics(&self) -> Arc<ServiceMetrics> {
        self.metrics.clone()
    }

    /// Dispatches one decoded request (the server handles `Metrics`
    /// and `Shutdown` itself).
    pub fn handle(&self, req: Request) -> Response {
        match req {
            Request::Run(r) => self.handle_run(r),
            Request::PutFile { path, bytes } => {
                self.template.add(path, bytes);
                Response::Ack
            }
            Request::Metrics | Request::Shutdown => {
                Response::Error("request op is server-handled".to_string())
            }
        }
    }

    /// Resolves a script through the cache tiers to a runnable handle.
    fn lookup(
        &self,
        script: &str,
        cfg: &PashConfig,
        want_fallback: bool,
    ) -> Result<(RunHandle, CacheTier), RunError> {
        if let Some(compiled) = compile_cache_peek(script, cfg) {
            // The width-1 fallback rides the same memo; after the cold
            // request compiled it, this is a second tier-1 hit.
            let fb = if want_fallback {
                compile_cached(script, &cfg.sequential()).ok()
            } else {
                None
            };
            return Ok((RunHandle::from_compiled(compiled, fb), CacheTier::Memory));
        }
        let key = format!("{}\u{0}{script}", cfg.cache_key());
        if let Some(disk) = &self.disk {
            if let Some((plan, fb)) = disk.load(&key, want_fallback) {
                return Ok((RunHandle::from_plans(plan, fb), CacheTier::Disk));
            }
        }
        let handle = RunHandle::compile(script, cfg, want_fallback)?;
        if let Some(disk) = &self.disk {
            // Best-effort: a full disk degrades to tier-1-only, it
            // does not fail the request.
            let _ = disk.store(&key, handle.plan(), handle.fallback_plan());
        }
        Ok((handle, CacheTier::Cold))
    }

    /// Chooses a per-region configuration for an adaptive
    /// (`width == 0`) request: measured command rates from the profile
    /// store calibrate the simulator's cost model, and the optimizer
    /// prices each candidate shape through it.
    fn adaptive_config(&self, script: &str, sizes: &InputSizes) -> Result<PashConfig, RunError> {
        // The sequential compile (memoized) names the script's
        // commands; the profile lookup is scoped to them so the
        // hit/miss counters reflect *this* script's coverage.
        let narrow = compile_cached(
            script,
            &PashConfig {
                width: 1,
                ..Default::default()
            },
        )
        .map_err(RunError::Compile)?;
        let mut commands: Vec<String> = Vec::new();
        for region in narrow.plan.regions() {
            for node in &region.nodes {
                let label = node_label(&node.op);
                if !label.starts_with('<') && !commands.contains(&label) {
                    commands.push(label);
                }
            }
        }
        let rates = self.profile.rates_for(&commands);
        let pricer = SimPricer::new(CostModel::calibrated(rates), sizes.clone());
        let opt = optimize(
            script,
            &PashConfig::default(),
            &pricer,
            &OptimizerConfig::default(),
        )
        .map_err(RunError::Compile)?;
        self.metrics
            .record_choice(opt.chosen_width(), opt.chosen_split());
        let m = |a: &std::sync::atomic::AtomicU64, v: u64| {
            a.store(v, std::sync::atomic::Ordering::Relaxed)
        };
        m(&self.metrics.profile_hits, self.profile.hits());
        m(&self.metrics.profile_misses, self.profile.misses());
        Ok(opt.config)
    }

    fn handle_run(&self, req: RunRequest) -> Response {
        let snapshot = Arc::new(self.template.snapshot());
        let mut sizes = InputSizes::new();
        for (path, bytes) in snapshot.entries() {
            sizes.insert(path, bytes.len() as f64);
        }
        let env = RunEnv {
            registry: self.registry.clone(),
            fs: snapshot,
            stdin: req.stdin,
            workers: self.workers.clone(),
            exec: crate::runtime::exec::ExecConfig {
                supervisor: self.supervisor.clone(),
                profile: Some(self.profile.clone()),
                ..Default::default()
            },
            proc: crate::ProcSettings {
                supervisor: self.supervisor.clone(),
                profile: Some(self.profile.clone()),
                ..Default::default()
            },
            sizes,
            stdin_bytes: 0.0,
            cost: crate::sim::CostModel::default(),
            sim: crate::sim::SimConfig::default(),
            emit: crate::core::backend::EmitConfig::default(),
        };
        let t0 = Instant::now();
        let cfg = if req.width == 0 {
            match self.adaptive_config(&req.script, &env.sizes) {
                Ok(cfg) => cfg,
                Err(e) => return Response::Error(e.to_string()),
            }
        } else {
            PashConfig {
                width: req.width as usize,
                split: req.split,
                ..Default::default()
            }
        };
        let want_fallback = cfg.width != 1 && wants_fallback(&req.backend, &env);
        let (handle, tier) = match self.lookup(&req.script, &cfg, want_fallback) {
            Ok(x) => x,
            Err(e) => return Response::Error(e.to_string()),
        };
        let compile_micros = t0.elapsed().as_micros() as u64;
        let out = match handle.execute(&req.backend, &env) {
            Ok(o) => o,
            Err(e) => return Response::Error(e.to_string()),
        };
        let (stdout, status) = match out {
            BackendOutput::Execution(o) => (o.stdout, o.status),
            BackendOutput::Script(s) => (s.into_bytes(), 0),
            BackendOutput::Simulation(r) => (format!("{:.6}\n", r.seconds).into_bytes(), 0),
        };
        Response::Run(RunResponse {
            status,
            tier,
            compile_micros,
            total_micros: 0, // filled by the server loop
            stdout,
            files: changed_files(&self.template, &env.fs),
        })
    }
}

/// Files in `run` that `template` lacks or holds different contents
/// for — by `Arc` pointer identity, so unchanged corpus files cost
/// nothing per request.
fn changed_files(template: &MemFs, run: &MemFs) -> Vec<(String, Vec<u8>)> {
    let base: std::collections::HashMap<String, Arc<Vec<u8>>> =
        template.entries().into_iter().collect();
    run.entries()
        .into_iter()
        .filter(|(path, contents)| {
            base.get(path)
                .is_none_or(|orig| !Arc::ptr_eq(orig, contents))
        })
        .map(|(path, contents)| (path, contents.as_ref().clone()))
        .collect()
}

/// Binds the socket and serves until a `Shutdown` request. This is the
/// blocking entry point both the `pashd` binary and in-process tests
/// use.
pub fn serve(cfg: DaemonConfig) -> io::Result<()> {
    let daemon = Arc::new(Daemon::new(&cfg)?);
    let metrics = daemon.metrics();
    let listener = service::bind(&cfg.socket)?;
    let handler_daemon = daemon.clone();
    service::serve(
        listener,
        &cfg.socket,
        metrics,
        ServiceSettings {
            max_concurrent_runs: cfg.max_concurrent_runs,
            ..Default::default()
        },
        Arc::new(move |req| handler_daemon.handle(req)),
    )
}
