//! Per-layer measurements taken from the benchmark's own code: each
//! times calls into one layer's public functions, on the workload's
//! own inputs.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pash::core::compile::{compile_cached, PashConfig};
use pash::core::optimize::{optimize, OptimizerConfig};
use pash::core::plan::ExecutionPlan;
use pash::coreutils::fs::{Fs, MemFs};
use pash::coreutils::run_command;
use pash::runtime::pipe::DEFAULT_PIPE_CAPACITY;
use pash::runtime::ProfileStore;
use pash::sim::{simulate_compiled, CostModel, InputSizes, SimConfig, SimPricer};
use pash_bench::dataplane::{sorted_chunks, time_agg_merge, time_pipe_transfer, time_split};
use pash_bench::rsplitbench::time_rsplit;
use pash_bench::suites::oneliners::COMPLEX_PATTERN;

use crate::batch::Script;
use crate::metrics::{num, Metrics};
use crate::refseq::Reference;
use crate::stats::median;
use crate::trace::Ledger;
use crate::Ctx;

/// Repetitions of each data-plane microbenchmark.
const REPS: usize = 5;

fn median_of(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    median(&(0..reps).map(|_| f().as_secs_f64()).collect::<Vec<_>>())
}

fn mb_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds.max(1e-12)
}

/// The ledger as a JSON object: per-pass wall, parts and residual.
pub fn ledger_json(l: &Ledger, passes: f64) -> String {
    let parts: Vec<String> = l
        .parts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(v / passes)))
        .collect();
    format!(
        "{{\"wall_s\": {}, \"parts_s\": {{{}}}, \"residual_s\": {}}}",
        num(l.wall / passes),
        parts.join(", "),
        num(l.residual / passes)
    )
}

/// `compile.cold_us` (a full `pash::compile`) and
/// `compile.memo_hit_us` (a `compile_cached` hit), medians over the
/// scripts.
pub fn compile_costs(scripts: &[Script], cfg: &PashConfig, m: &mut Metrics) -> io::Result<()> {
    let mut cold = Vec::new();
    let mut hit = Vec::new();
    for s in scripts {
        let t0 = Instant::now();
        let c = pash::compile(&s.src, cfg).map_err(|e| io::Error::other(e.to_string()))?;
        cold.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(c);
        compile_cached(&s.src, cfg).map_err(|e| io::Error::other(e.to_string()))?;
        let t0 = Instant::now();
        let c = compile_cached(&s.src, cfg).map_err(|e| io::Error::other(e.to_string()))?;
        hit.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(c);
    }
    m.insert("compile.cold_us", median(&cold));
    m.insert("compile.memo_hit_us", median(&hit));
    Ok(())
}

/// The reference run's costs: `coreutils.seq_s`, `cmd.<name>_s`, and
/// `exec.speedup_vs_seq` against the measured pass wall time.
pub fn coreutils(refs: &[Reference], seq_s: f64, wall_s: f64, m: &mut Metrics) {
    let mut per: BTreeMap<&str, f64> = BTreeMap::new();
    for r in refs {
        for (cmd, d) in &r.per_command {
            *per.entry(cmd.as_str()).or_default() += d.as_secs_f64();
        }
    }
    m.insert("coreutils.seq_s", seq_s);
    for (cmd, metric) in [
        ("sort", "cmd.sort_s"),
        ("uniq", "cmd.uniq_s"),
        ("tr", "cmd.tr_s"),
        ("grep", "cmd.grep_s"),
        ("rev", "cmd.rev_s"),
        ("comm", "cmd.comm_s"),
        ("sed", "cmd.sed_s"),
        ("bigrams-aux", "cmd.bigrams-aux_s"),
    ] {
        m.insert(metric, per.get(cmd).copied().unwrap_or(0.0));
    }
    if wall_s > 0.0 {
        m.insert("exec.speedup_vs_seq", seq_s / wall_s);
    }
}

/// Pipe, split and aggregator throughput on the workload's input and
/// its `nproc` sorted partials.
pub fn dataplane(input: &[u8], ctx: &Ctx, m: &mut Metrics) {
    let k = ctx.nproc.max(2);
    let pipe_s = median_of(REPS, || {
        time_pipe_transfer(DEFAULT_PIPE_CAPACITY, input.len())
    });
    m.insert("pipe.mb_s", mb_s(input.len(), pipe_s));
    let split_s = median_of(REPS, || time_split(input, k));
    m.insert("split.general_mb_s", mb_s(input.len(), split_s));
    let rr_s = median_of(REPS, || time_rsplit(input, k, true));
    m.insert("split.rr_mb_s", mb_s(input.len(), rr_s));
    let chunks = sorted_chunks(input, k);
    let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
    m.insert(
        "agg.s",
        median_of(REPS, || time_agg_merge(&ctx.registry, &fs, &chunks)),
    );
}

/// `grep` with the Tab. 2 Grep pattern over the lower-cased input.
pub fn grep_rate(input: &[u8], ctx: &Ctx, m: &mut Metrics) -> io::Result<()> {
    let lower = input.to_ascii_lowercase();
    let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
    let mut times = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let out = run_command(
            &ctx.registry,
            fs.clone(),
            &["grep", COMPLEX_PATTERN],
            &lower,
        )?;
        times.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    m.insert("regex.grep_mb_s", mb_s(lower.len(), median(&times)));
    Ok(())
}

/// Sizes of every input and every file the references wrote, for the
/// simulator.
pub fn sizes(inputs: &MemFs, refs: &[Reference]) -> InputSizes {
    let mut sizes = InputSizes::new();
    for (path, bytes) in inputs.entries() {
        sizes.insert(path, bytes.len() as f64);
    }
    for r in refs {
        for (path, bytes) in &r.files {
            let e = sizes.entry(path.clone()).or_insert(0.0);
            *e = e.max(bytes.len() as f64);
        }
    }
    sizes
}

/// User plus system CPU seconds this process and its reaped children
/// have used so far.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime, stime,
    // cutime and cstime are fields 14 to 17 of the whole line, in
    // clock ticks (100/s).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<f64>() / 100.0
}

/// Node busy time and bytes moved, from the profile the exec layer
/// recorded for `plans`.
pub fn profile_totals(store: &ProfileStore, plans: &[ExecutionPlan], m: &mut Metrics) {
    let mut busy = 0.0;
    let mut bytes = 0.0;
    for r in plans.iter().flat_map(|p| p.regions()) {
        if let Some(rs) = store.region_stats(r.fingerprint()) {
            busy += rs.nodes.iter().map(|n| n.busy_s).sum::<f64>();
            bytes += rs.nodes.iter().map(|n| n.bytes_out).sum::<f64>();
        }
    }
    m.insert("exec.node_busy_s", busy);
    m.insert("exec.edge_bytes", bytes);
}

/// The adaptive optimizer as `pashd` calls it: time per script and
/// the mean widest chosen width.
pub fn optimizer(
    scripts: &[Script],
    store: &ProfileStore,
    sizes: &InputSizes,
    m: &mut Metrics,
) -> io::Result<()> {
    let mut times = Vec::new();
    let mut widths = Vec::new();
    for s in scripts {
        let pricer = SimPricer::new(CostModel::calibrated(store.rates()), sizes.clone());
        let t0 = Instant::now();
        let opt = optimize(
            &s.src,
            &PashConfig::default(),
            &pricer,
            &OptimizerConfig::default(),
        )
        .map_err(|e| io::Error::other(e.to_string()))?;
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        widths.push(opt.chosen_width() as f64);
    }
    m.insert("optimizer.optimize_us", median(&times));
    m.insert(
        "optimizer.chosen_width",
        widths.iter().sum::<f64>() / widths.len().max(1) as f64,
    );
    Ok(())
}

/// The simulator's relative error against the measured per-script
/// times, on a model of this host (`cores = nproc`); median over
/// scripts.
pub fn sim_error(
    scripts: &[Script],
    cfg: &PashConfig,
    sizes: &InputSizes,
    ctx: &Ctx,
    measured: &[f64],
    m: &mut Metrics,
) -> io::Result<()> {
    let sim = SimConfig {
        cores: ctx.nproc as f64,
        ..SimConfig::default()
    };
    let mut errs = Vec::new();
    for (s, &meas) in scripts.iter().zip(measured) {
        let pred = simulate_compiled(&s.src, cfg, sizes, &CostModel::default(), &sim)
            .map_err(|e| io::Error::other(e.to_string()))?
            .seconds;
        if meas > 0.0 {
            errs.push((pred - meas).abs() / meas);
        }
    }
    m.insert("sim.pred_err", median(&errs));
    Ok(())
}
