//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a record line (provenance, every metric by name with its
//! unit, `error_rate`, per-script detail), then the result line: one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when any output was wrong or any operation
//! failed, 2 on bad arguments or a failed set-up, 3 when the run has
//! not finished after twice `--seconds` plus 110 s.

use std::path::PathBuf;
use std::process::ExitCode;

use pash_e2ebench::metrics::{esc, metrics_json, result_line};
use pash_e2ebench::{provenance, run, Ctx, Params, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <nlp-threads|pashd-mixed> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("missing or invalid arguments");
    };

    // Children, FIFOs and materialized directories go under the
    // working directory, never the system temp dir.
    let tmp = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        return usage(&format!("cannot create {}: {e}", tmp.display()));
    }
    let tmp = std::fs::canonicalize(&tmp).unwrap_or(tmp);
    std::env::set_var("TMPDIR", &tmp);

    // A run that wedges (a lost reply, a stuck child) must still end,
    // in bounded time and without a result line.
    let limit = std::time::Duration::from_secs_f64(2.0 * seconds + 110.0);
    let wedged_tmp = tmp.clone();
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("e2ebench: no result after {limit:?}; giving up");
        let _ = std::fs::remove_dir_all(&wedged_tmp);
        std::process::exit(3);
    });

    let ctx = Ctx::new();
    let params = Params::standard(seed, seconds, trace);
    let result = run(workload, &params, &ctx);
    let _ = std::fs::remove_dir_all(&tmp);
    // The parent goes too once no other run is using it.
    let _ = std::fs::remove_dir(".bench_tmp");
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    for f in &out.failures {
        eprintln!("e2ebench: wrong or failed: {f}");
    }
    let mut all = out.metrics.clone();
    all.insert("error_rate", out.error_rate());
    let names: Vec<&str> = all.keys().copied().collect();
    let detail: String = out
        .detail
        .iter()
        .map(|(k, v)| format!(", \"{}\": {v}", esc(k)))
        .collect();
    println!(
        "{{\"record\": {{\"workload\": \"{}\", \"trace\": {trace}, \"seconds\": {seconds}, \
         \"provenance\": {}, \"error_rate\": {}, \"metrics\": {}{detail}}}}}",
        workload.name(),
        provenance::json(ctx.nproc, seed),
        out.error_rate(),
        metrics_json(&all, names.into_iter()),
    );
    let correct = out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &out.metrics, trace)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
