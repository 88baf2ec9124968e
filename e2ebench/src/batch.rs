//! The batch workload, `nlp-threads`: every script of the
//! Unix-for-NLP family once per pass through `pash::run` on `threads`
//! (the in-process data plane: exec, pipes, split, aggregators, the
//! commands and the regex engine), outputs byte-compared with the
//! reference. A traced run also runs each script on `processes`
//! (children over FIFOs, fileseg helpers, the MemFs↔directory bridge).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pash::core::annot::stdlib::AnnotationLibrary;
use pash::core::backend::{emit_program, EmitConfig};
use pash::core::compile::PashConfig;
use pash::core::dfg::transform::{parallelize, TransformConfig};
use pash::core::frontend::{translate, FrontendOptions};
use pash::core::plan::{lower, ExecutionPlan, PlanStep};
use pash::coreutils::fs::MemFs;
use pash::runtime::exec::{run_program, run_region, ExecConfig};
use pash::runtime::proc::{locate_bin, run_plan, ProcConfig};
use pash::runtime::ProfileStore;
use pash::{BackendOutput, ProcSettings, RunEnv};

use crate::layers;
use crate::refseq::{run_reference, Reference};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{derive_seed, timed_setup, Ctx, Outcome, Params};

/// The execution backend a pass runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// In-process threads.
    Threads,
    /// Child processes over FIFOs.
    Processes,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Processes => "processes",
        }
    }
}

/// One benchmark script.
#[derive(Debug, Clone)]
pub struct Script {
    /// Name within its family.
    pub name: String,
    /// Shell source.
    pub src: String,
}

/// The Unix-for-NLP scripts.
pub fn scripts() -> Vec<Script> {
    pash::workloads::nlp::scripts()
        .into_iter()
        .map(|s| Script {
            name: s.name.to_string(),
            src: s.script.to_string(),
        })
        .collect()
}

/// The workload's two books, generated from `seed`.
pub fn inputs(seed: u64, book_bytes: usize) -> MemFs {
    let fs = MemFs::new();
    let text = pash::workloads::text_corpus;
    fs.add("in.txt", text(derive_seed(seed, 1), book_bytes));
    fs.add("in2.txt", text(derive_seed(seed, 2), book_bytes));
    fs
}

/// Everything a batch run needs before it measures.
pub struct Setup {
    /// The NLP scripts.
    pub scripts: Vec<Script>,
    /// Input files (each run gets a snapshot).
    pub inputs: MemFs,
    /// Reference result per script.
    pub refs: Vec<Reference>,
    /// Sequential reference time over all scripts, seconds.
    pub seq_s: f64,
    /// `pashc` and `pash-rt`, for `processes`.
    pub bins: (PathBuf, PathBuf),
}

/// Generates the inputs, computes the references and locates the
/// multi-call binaries.
pub fn setup(seed: u64, book_bytes: usize, ctx: &Ctx) -> io::Result<Setup> {
    let scripts = scripts();
    let inputs = inputs(seed, book_bytes);
    let t0 = Instant::now();
    let refs = scripts
        .iter()
        .map(|s| {
            run_reference(&s.src, &inputs, &ctx.registry)
                .map_err(|e| io::Error::other(format!("{}: reference: {e}", s.name)))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let seq_s = t0.elapsed().as_secs_f64();
    let bins = (
        locate_bin("pashc", "PASHC")?,
        locate_bin("pash-rt", "PASH_RT")?,
    );
    Ok(Setup {
        scripts,
        inputs,
        refs,
        seq_s,
        bins,
    })
}

/// Compares a run's stdout and files with the reference.
pub fn check(
    name: &str,
    reference: &Reference,
    stdout: &[u8],
    file: impl Fn(&str) -> Option<Vec<u8>>,
) -> Result<(), String> {
    if stdout != reference.stdout.as_slice() {
        return Err(format!("{name}: stdout differs from the reference"));
    }
    for (path, want) in &reference.files {
        match file(path) {
            Some(got) if got == *want => {}
            Some(got) => {
                return Err(format!(
                    "{name}: {path} differs from the reference ({} vs {} bytes)",
                    got.len(),
                    want.len()
                ))
            }
            None => return Err(format!("{name}: {path} missing")),
        }
    }
    Ok(())
}

fn config(ctx: &Ctx) -> PashConfig {
    PashConfig {
        width: ctx.nproc,
        ..Default::default()
    }
}

fn exec_config(ctx: &Ctx, profile: Option<Arc<ProfileStore>>) -> ExecConfig {
    ExecConfig {
        supervisor: ctx.supervisor.clone(),
        profile,
        ..Default::default()
    }
}

fn proc_config(ctx: &Ctx, s: &Setup) -> ProcConfig {
    let (pashc, pash_rt) = s.bins.clone();
    ProcConfig {
        pashc,
        pash_rt,
        scratch: None,
        kill_grace: std::time::Duration::from_secs(2),
        max_inflight: ctx.nproc,
        supervisor: ctx.supervisor.clone(),
        profile: None,
    }
}

fn run_env(backend: Backend, ctx: &Ctx, s: &Setup) -> RunEnv {
    let mut env = RunEnv {
        registry: ctx.registry.clone(),
        fs: Arc::new(s.inputs.snapshot()),
        exec: exec_config(ctx, None),
        ..RunEnv::default()
    };
    if backend == Backend::Processes {
        let (pashc, pash_rt) = s.bins.clone();
        env.proc = ProcSettings {
            pashc: Some(pashc),
            pash_rt: Some(pash_rt),
            max_inflight: ctx.nproc,
            supervisor: ctx.supervisor.clone(),
            ..Default::default()
        };
    }
    env
}

/// Runs script `i` once through `pash::run`: its run time in seconds
/// and whether its outputs matched the reference.
fn run_one(backend: Backend, ctx: &Ctx, s: &Setup, i: usize) -> (f64, Result<(), String>) {
    let (script, reference) = (&s.scripts[i], &s.refs[i]);
    let env = run_env(backend, ctx, s);
    let t0 = Instant::now();
    let result = pash::run(&script.src, &config(ctx), backend.name(), &env);
    let dt = t0.elapsed().as_secs_f64();
    let verdict = match result {
        Ok(BackendOutput::Execution(o)) => {
            check(&script.name, reference, &o.stdout, |p| env.fs.read(p).ok())
        }
        Ok(other) => Err(format!(
            "{}: unexpected backend output {other:?}",
            script.name
        )),
        Err(e) => Err(format!("{}: {e}", script.name)),
    };
    (dt, verdict)
}

/// Runs passes — every script once on `backend` — until `seconds`
/// have elapsed (at least one). Returns each pass's per-script run
/// times, `None` for a failed run.
pub fn passes(
    backend: Backend,
    ctx: &Ctx,
    s: &Setup,
    seconds: f64,
    out: &mut Outcome,
) -> Vec<Vec<Option<f64>>> {
    let t0 = Instant::now();
    let mut all = Vec::new();
    while all.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let pass = (0..s.scripts.len())
            .map(|i| {
                let (dt, verdict) = run_one(backend, ctx, s, i);
                let ok = verdict.is_ok();
                out.op(verdict);
                ok.then_some(dt)
            })
            .collect();
        all.push(pass);
    }
    all
}

/// Per-script medians as a JSON object.
fn scripts_json(s: &Setup, per_script: &[f64]) -> String {
    let body: Vec<String> = s
        .scripts
        .iter()
        .zip(per_script)
        .map(|(sc, t)| format!("\"{}\": {t}", sc.name))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Runs `nlp-threads`.
pub fn run(p: &Params, ctx: &Ctx) -> io::Result<Outcome> {
    let (s, setup_s) = timed_setup(p.setup_reps, || setup(p.seed, p.book_bytes, ctx))?;
    let mut out = Outcome::default();
    out.metrics.insert("setup_s", setup_s);
    if p.trace {
        traced(p, ctx, &s, &mut out)?;
        return Ok(out);
    }
    let all = passes(Backend::Threads, ctx, &s, p.seconds, &mut out);
    // Each fully correct pass's wall time, for the record line.
    let walls: Vec<f64> = all
        .iter()
        .filter_map(|pass| pass.iter().copied().sum::<Option<f64>>())
        .collect();
    // A script's latency is its median run time over the passes. The
    // percentiles are taken across scripts, so each is a middle order
    // statistic of one script's runs rather than the edge of one; and
    // a typical pass is one in which every script takes its median
    // time, which a slow moment in one pass does not move.
    let per_script: Vec<f64> = (0..s.scripts.len())
        .map(|i| median(&all.iter().filter_map(|pass| pass[i]).collect::<Vec<_>>()))
        .collect();
    let wall: f64 = per_script.iter().sum();
    let lat_ms: Vec<f64> = per_script.iter().map(|t| t * 1e3).collect();
    let m = &mut out.metrics;
    m.insert("wall_s", wall);
    m.insert("latency_p50_ms", quantile(&lat_ms, 0.5));
    m.insert("latency_p90_ms", quantile(&lat_ms, 0.9));
    // The reciprocal of `wall_s` scaled by the script count: the same
    // measurement, reported because every workload reports every
    // end-to-end metric.
    m.insert("throughput_rps", s.scripts.len() as f64 / wall);
    out.detail
        .push(("scripts".into(), scripts_json(&s, &per_script)));
    out.detail.push(("passes".into(), all.len().to_string()));
    out.detail
        .push(("pass_walls_s".into(), format!("{walls:?}")));
    Ok(out)
}

/// The compiler's layers, called one by one as
/// `pash::core::compile::compile` does, each in its own span.
pub fn compile_traced(
    t: &mut Tracer,
    id: u64,
    src: &str,
    cfg: &PashConfig,
) -> io::Result<ExecutionPlan> {
    let err = |e: &dyn std::fmt::Display| io::Error::other(format!("compile: {e}"));
    t.span("compile", id, |t| {
        let prog = t
            .span("parser.parse", id, |_| pash::parser::parse(src))
            .map_err(|e| err(&e))?;
        let mut tp = t
            .span("frontend.translate", id, |_| {
                translate(
                    &prog,
                    AnnotationLibrary::standard(),
                    &FrontendOptions {
                        env: cfg.env.clone(),
                        unroll_for: cfg.unroll_for,
                    },
                )
            })
            .map_err(|e| err(&e))?;
        t.span("transform.parallelize", id, |_| {
            let tcfg = TransformConfig {
                width: cfg.width,
                split: cfg.split,
                eager: cfg.eager,
                agg_tree: cfg.agg_tree,
            };
            for g in tp.regions_mut() {
                parallelize(g, &tcfg);
                g.validate()?;
            }
            Ok::<_, pash::core::Error>(())
        })
        .map_err(|e| err(&e))?;
        let plan = t.span("plan.lower", id, |_| lower(&tp));
        let script = t.span("backend.emit", id, |_| {
            emit_program(&plan, &EmitConfig::default())
        });
        black_box(script);
        Ok(plan)
    })
}

/// The program walk of `exec::run_program`, one `run_region` call per
/// region, each in its own span.
fn exec_traced(
    t: &mut Tracer,
    id: u64,
    plan: &ExecutionPlan,
    ctx: &Ctx,
    fs: &Arc<MemFs>,
) -> io::Result<Vec<u8>> {
    let cfg = exec_config(ctx, None);
    t.span("exec.program", id, |t| {
        let mut stdout = Vec::new();
        let mut status = 0;
        let mut skip = false;
        for step in &plan.steps {
            match step {
                PlanStep::Guard(g) => skip = !g.admits(status),
                _ if std::mem::take(&mut skip) => {}
                PlanStep::Region(r) => {
                    let o = t.span("exec.region", id, |_| {
                        run_region(r, &ctx.registry, fs.clone(), Vec::new(), &cfg)
                    })?;
                    status = o.status();
                    stdout.extend_from_slice(&o.stdout);
                }
                PlanStep::Shell {
                    data_noop: true, ..
                } => status = 0,
                PlanStep::Shell { text, .. } => {
                    return Err(io::Error::other(format!("shell step `{text}`")))
                }
            }
        }
        Ok(stdout)
    })
}

/// A fresh directory holding the inputs, as `pash::run` materializes
/// them for `processes`.
fn materialize(inputs: &MemFs, dir: &Path) -> io::Result<()> {
    for (path, bytes) in inputs.entries() {
        let target = dir.join(&path);
        if let Some(parent) = target.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(target, bytes.as_slice())?;
    }
    Ok(())
}

/// Child processes the `processes` backend spawns for `plan`: one per
/// node plus one `fileseg` helper per segment input.
pub fn children(plan: &ExecutionPlan) -> usize {
    plan.regions()
        .map(|r| {
            r.nodes.len()
                + r.edges
                    .iter()
                    .filter(|e| {
                        matches!(e.kind, pash::core::plan::EndpointKind::InputSegment { .. })
                    })
                    .count()
        })
        .sum()
}

/// One traced pass of script `i`: the layers `pash::run` goes
/// through, called from here. Returns whether the output matched.
pub fn traced_script(
    backend: Backend,
    t: &mut Tracer,
    i: usize,
    ctx: &Ctx,
    s: &Setup,
    root: &Path,
) -> Result<(), String> {
    let script = &s.scripts[i];
    let id = i as u64;
    let cfg = config(ctx);
    let name = &script.name;
    t.span("script", id, |t| match backend {
        Backend::Threads => {
            let fs = Arc::new(s.inputs.snapshot());
            let plan =
                compile_traced(t, id, &script.src, &cfg).map_err(|e| format!("{name}: {e}"))?;
            let stdout = exec_traced(t, id, &plan, ctx, &fs).map_err(|e| format!("{name}: {e}"))?;
            check(name, &s.refs[i], &stdout, |p| fs.read(p).ok())
        }
        Backend::Processes => {
            let plan =
                compile_traced(t, id, &script.src, &cfg).map_err(|e| format!("{name}: {e}"))?;
            let dir = root.join(format!("s{i}"));
            t.span("proc.materialize", id, |_| materialize(&s.inputs, &dir))
                .map_err(|e| format!("{name}: materialize: {e}"))?;
            let pcfg = proc_config(ctx, s);
            let o = t
                .span("proc.run_plan", id, |_| {
                    run_plan(&plan, &pcfg, &dir, Vec::new())
                })
                .map_err(|e| format!("{name}: {e}"))?;
            let files: BTreeMap<String, Vec<u8>> = t.span("proc.read_back", id, |_| {
                let files = s.refs[i]
                    .files
                    .keys()
                    .filter_map(|p| std::fs::read(dir.join(p)).ok().map(|b| (p.clone(), b)))
                    .collect();
                let _ = std::fs::remove_dir_all(&dir);
                files
            });
            check(name, &s.refs[i], &o.stdout, |p| files.get(p).cloned())
        }
    })
}

/// What traced passes measured.
struct TracedPasses {
    /// Spans of the layer-by-layer runs.
    tracer: Tracer,
    /// Each script's `pash::run` times.
    untraced: Vec<Vec<f64>>,
    /// Each pass's `pash::run` wall time.
    untraced_walls: Vec<f64>,
    /// Each pass's layer-by-layer wall time.
    walls: Vec<f64>,
    /// CPU seconds used during the `pash::run` calls, children included.
    cpu: f64,
}

/// Passes in which every script runs once through `pash::run` and
/// once layer by layer with spans, until `seconds` have elapsed (at
/// least one).
fn traced_passes(
    backend: Backend,
    ctx: &Ctx,
    s: &Setup,
    seconds: f64,
    out: &mut Outcome,
) -> io::Result<TracedPasses> {
    let root = std::env::temp_dir().join("traced");
    std::fs::create_dir_all(&root)?;
    let mut tp = TracedPasses {
        tracer: Tracer::default(),
        untraced: vec![Vec::new(); s.scripts.len()],
        untraced_walls: Vec::new(),
        walls: Vec::new(),
        cpu: 0.0,
    };
    let t0 = Instant::now();
    while tp.walls.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let before = tp.tracer.ledger("script").wall;
        let mut pass_wall = 0.0;
        for i in 0..s.scripts.len() {
            let cpu0 = layers::cpu_seconds();
            let (dt, verdict) = run_one(backend, ctx, s, i);
            tp.cpu += layers::cpu_seconds() - cpu0;
            tp.untraced[i].push(dt);
            pass_wall += dt;
            out.op(verdict);
            out.op(traced_script(backend, &mut tp.tracer, i, ctx, s, &root));
        }
        tp.untraced_walls.push(pass_wall);
        tp.walls.push(tp.tracer.ledger("script").wall - before);
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(tp)
}

/// The process layer: `proc::run_plan` on a materialized root, what
/// `pash::run` spends beyond it (the MemFs bridge), and the children
/// spawned per pass.
fn proc_metrics(tp: &TracedPasses, plans: &[ExecutionPlan], m: &mut crate::metrics::Metrics) {
    let n = tp.walls.len() as f64;
    let ledger = tp.tracer.ledger("script");
    let run_plan_s = ledger.parts.get("proc.run_plan").copied().unwrap_or(0.0) / n;
    m.insert("proc.run_plan_s", run_plan_s);
    m.insert(
        "proc.fs_bridge_s",
        tp.untraced_walls.iter().sum::<f64>() / n - run_plan_s,
    );
    m.insert(
        "proc.children",
        plans.iter().map(children).sum::<usize>() as f64,
    );
}

/// A traced run: traced passes on `threads`, then the per-layer
/// measurements, then one traced pass on `processes` for the process
/// layer.
fn traced(p: &Params, ctx: &Ctx, s: &Setup, out: &mut Outcome) -> io::Result<()> {
    let tp = traced_passes(Backend::Threads, ctx, s, p.seconds, out)?;
    std::fs::create_dir_all(&p.out_dir)?;
    tp.tracer.write_json(&p.out_dir.join(format!(
        "spans-{}-seed{}.json",
        Backend::Threads.name(),
        p.seed
    )))?;
    let t = &tp.tracer;
    let walls = &tp.walls;
    let untraced_walls = &tp.untraced_walls;
    let cpu = tp.cpu;
    let npasses = walls.len();
    let untraced_wall = median(untraced_walls);
    let per_script: Vec<f64> = tp.untraced.iter().map(|v| median(v)).collect();
    out.detail
        .push(("scripts".into(), scripts_json(s, &per_script)));
    out.detail.push(("passes".into(), npasses.to_string()));

    let ledger = t.ledger("script");
    let n = npasses as f64;
    let per_pass = |name: &str| ledger.parts.get(name).copied().unwrap_or(0.0) / n;
    let nscripts = s.scripts.len() as f64;
    let m = &mut out.metrics;
    for (span, metric) in [
        ("parser.parse", "parser.parse_us"),
        ("frontend.translate", "frontend.translate_us"),
        ("transform.parallelize", "transform.parallelize_us"),
        ("plan.lower", "plan.lower_us"),
        ("backend.emit", "backend.emit_us"),
    ] {
        m.insert(metric, per_pass(span) / nscripts * 1e6);
    }
    let untraced_mean = untraced_walls.iter().sum::<f64>() / n;
    m.insert(
        "exec.cpu_util",
        cpu / (untraced_mean * n * ctx.nproc as f64),
    );
    m.insert("trace.residual_s", ledger.residual / n);
    m.insert("trace.overhead_ratio", median(walls) / untraced_wall);
    out.detail
        .push(("ledger".into(), layers::ledger_json(&ledger, n)));

    let cfg = config(ctx);
    let plans: Vec<ExecutionPlan> = s
        .scripts
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
    layers::compile_costs(&s.scripts, &cfg, m)?;
    layers::coreutils(&s.refs, s.seq_s, untraced_wall, m);
    let input = s.inputs.read("in.txt")?;
    layers::dataplane(&input, ctx, m);
    layers::grep_rate(&input, ctx, m)?;
    let sizes = layers::sizes(&s.inputs, &s.refs);
    // `pash::run` on threads is a memoized compile plus `run_program`;
    // what it spends beyond the regions themselves is the program
    // driver's.
    m.insert("exec.program_s", untraced_mean);
    m.insert("exec.region_s", per_pass("exec.region"));
    m.insert("exec.driver_s", untraced_mean - per_pass("exec.region"));
    // One more pass with a profile store attached, for node busy time
    // and bytes moved.
    let store = Arc::new(ProfileStore::in_memory());
    let ecfg = exec_config(ctx, Some(store.clone()));
    for ((plan, sc), reference) in plans.iter().zip(&s.scripts).zip(&s.refs) {
        let fs = Arc::new(s.inputs.snapshot());
        let verdict = run_program(plan, &ctx.registry, fs.clone(), Vec::new(), &ecfg)
            .map_err(|e| format!("{}: {e}", sc.name))
            .and_then(|o| check(&sc.name, reference, &o.stdout, |p| fs.read(p).ok()));
        out.op(verdict);
    }
    let m = &mut out.metrics;
    layers::profile_totals(&store, &plans, m);
    layers::optimizer(&s.scripts, &store, &sizes, m)?;
    layers::sim_error(&s.scripts, &cfg, &sizes, ctx, &per_script, m)?;
    // The process layer, on the same scripts: one traced pass on
    // `processes`.
    let pp = traced_passes(Backend::Processes, ctx, s, 0.0, out)?;
    proc_metrics(&pp, &plans, &mut out.metrics);
    Ok(())
}
