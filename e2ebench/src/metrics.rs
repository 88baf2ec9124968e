//! The metric catalogue (names and units, as `BENCHMARK.json` lists
//! them) and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed with tracing off: `(name, unit)`.
///
/// Every workload reports every one of them. An operation is one
/// script run (`pash::run`) on `nlp-threads` and one request on
/// `pashd-mixed`; a pass is every script once, or one block of
/// [`crate::service::PASS_REQUESTS`] requests. `throughput_rps` is
/// operations per pass divided by `wall_s` on `nlp-threads` and
/// close to it on `pashd-mixed`: the two are one measurement, not two.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`. A layer
/// a workload does not exercise reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parser.parse_us", "us"),
    ("frontend.translate_us", "us"),
    ("transform.parallelize_us", "us"),
    ("plan.lower_us", "us"),
    ("backend.emit_us", "us"),
    ("compile.cold_us", "us"),
    ("compile.memo_hit_us", "us"),
    ("plan.nodes", "count"),
    ("optimizer.optimize_us", "us"),
    ("optimizer.chosen_width", "count"),
    ("sim.pred_err", "ratio"),
    ("exec.program_s", "s"),
    ("exec.region_s", "s"),
    ("exec.driver_s", "s"),
    ("exec.node_busy_s", "s"),
    ("exec.edge_bytes", "bytes"),
    ("exec.cpu_util", "ratio"),
    ("pipe.mb_s", "MB/s"),
    ("split.general_mb_s", "MB/s"),
    ("split.rr_mb_s", "MB/s"),
    ("agg.s", "s"),
    ("coreutils.seq_s", "s"),
    ("cmd.sort_s", "s"),
    ("cmd.uniq_s", "s"),
    ("cmd.tr_s", "s"),
    ("cmd.grep_s", "s"),
    ("cmd.rev_s", "s"),
    ("cmd.comm_s", "s"),
    ("cmd.sed_s", "s"),
    ("cmd.bigrams-aux_s", "s"),
    ("regex.grep_mb_s", "MB/s"),
    ("exec.speedup_vs_seq", "ratio"),
    ("proc.run_plan_s", "s"),
    ("proc.fs_bridge_s", "s"),
    ("proc.children", "count"),
    ("service.wire_us", "us"),
    ("service.compile_cold_us", "us"),
    ("service.compile_mem_us", "us"),
    ("service.exec_us", "us"),
    ("service.tier1_hits", "count"),
    ("service.cold_misses", "count"),
    ("service.errors", "count"),
    ("service.snapshot_us", "us"),
    ("plancache.store_us", "us"),
    ("plancache.load_us", "us"),
    ("profile.record_us", "us"),
    ("supervise.retries", "count"),
    ("supervise.fallbacks", "count"),
    ("supervise.deadline_kills", "count"),
    ("trace.residual_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The unit of a catalogued metric (`error_rate`, reported beside the
/// result, is a ratio).
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("ratio", |(_, u)| u)
}

/// `{"name": {"value": v, "unit": u}, ...}` over `names`, 0 for a
/// name `m` lacks.
pub fn metrics_json<'a>(m: &Metrics, names: impl Iterator<Item = &'a str>) -> String {
    let body: Vec<String> = names
        .map(|n| {
            let v = m.get(n).copied().unwrap_or(0.0);
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(v),
                unit(n)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite JSON number with all its digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The final result line: with `trace` off every end-to-end metric,
/// with it on every per-layer metric.
pub fn result_line(correct: bool, attempted: u64, failed: u64, m: &Metrics, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(m, table.iter().map(|(n, _)| *n))
    )
}

/// Escapes `s` for a JSON string body.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*n), "{n} listed twice");
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn result_line_lists_exactly_the_table() {
        let mut m = Metrics::new();
        m.insert("wall_s", 1.5);
        m.insert("not_listed", 2.0);
        let line = result_line(true, 3, 0, &m, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("not_listed"));
        for (n, _) in END_TO_END {
            assert!(line.contains(&format!("\"{n}\"")));
        }
    }
}
