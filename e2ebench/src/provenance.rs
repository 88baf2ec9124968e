//! Where a result was measured: host, toolchain, commit and seed.
//! Results from different hosts are not comparable; `compare.py`
//! refuses to compare them.

use std::path::Path;
use std::process::Command;

use crate::metrics::esc;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit under test: `$PASH_BENCH_COMMIT`, else `git rev-parse
/// HEAD` when run inside a git checkout, else `unknown`.
fn commit() -> String {
    if let Ok(c) = std::env::var("PASH_BENCH_COMMIT") {
        return c;
    }
    if Path::new(".git").exists() {
        if let Some(c) = command_line("git", &["rev-parse", "HEAD"]) {
            return c;
        }
    }
    "unknown".to_string()
}

/// The provenance fields as a JSON object.
pub fn json(nproc: usize, seed: u64) -> String {
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"seed\": {seed}}}",
        esc(&cpu_model()),
        esc(&rustc),
        esc(&commit())
    )
}
