//! The benchmark's own tests, at a tiny size: every workload runs
//! (untraced and traced), a corrupted output is caught, every `pashd`
//! set-up compiles cold, the ledger's parts plus its residual equal
//! the wall time, and the result line and `BENCHMARK.json` parse and
//! agree with the metric catalogue.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Once;

use pash_e2ebench::batch::{self, Backend};
use pash_e2ebench::metrics::{result_line, END_TO_END, PER_LAYER};
use pash_e2ebench::trace::Tracer;
use pash_e2ebench::{run, service, Ctx, Outcome, Params, Workload};

/// Points the temp dir (FIFOs, materialized roots, sockets) into the
/// target directory once, before any test reads the environment.
fn init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-tests");
        std::fs::create_dir_all(&dir).expect("test temp dir");
        std::env::set_var("TMPDIR", &dir);
    });
}

fn tiny(seed: u64, trace: bool) -> Params {
    Params {
        seed,
        seconds: 0.2,
        trace,
        book_bytes: 48 << 10,
        service_book_bytes: 8 << 10,
        setup_reps: 1,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-out"),
    }
}

fn assert_clean(w: Workload, out: &Outcome) {
    assert!(out.attempted > 0, "{}: nothing attempted", w.name());
    assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.failures);
}

/// Each `pashd-mixed` set-up pays its own cold compiles, although the
/// compile memo outlives every daemon of the process.
#[test]
fn every_daemon_set_up_compiles_cold() {
    init();
    let ctx = Ctx::new();
    let p = tiny(11, false);
    let mut first = service::start(&p, &ctx).expect("daemon starts");
    first.stop().expect("daemon stops");
    let before = pash::core::compile::cache_stats().misses;
    let mut second = service::start(&p, &ctx).expect("daemon starts");
    let misses = pash::core::compile::cache_stats().misses - before;
    second.stop().expect("daemon stops");
    assert!(
        misses >= second.scripts.len() as u64,
        "second set-up missed the memo {misses} times"
    );
}

#[test]
fn every_workload_runs_untraced() {
    init();
    let ctx = Ctx::new();
    for w in Workload::ALL {
        let out = run(w, &tiny(7, false), &ctx).expect("workload runs");
        assert_clean(w, &out);
        for (name, _) in END_TO_END {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            assert!(v > 0.0 && v.is_finite(), "{}: {name} = {v}", w.name());
        }
    }
}

#[test]
fn every_workload_runs_traced() {
    init();
    let ctx = Ctx::new();
    for w in Workload::ALL {
        let out = run(w, &tiny(8, true), &ctx).expect("traced workload runs");
        assert_clean(w, &out);
        for name in [
            "parser.parse_us",
            "compile.cold_us",
            "plan.nodes",
            "regex.grep_mb_s",
        ] {
            assert!(
                out.metrics.get(name).copied().unwrap_or(0.0) > 0.0,
                "{}: {name}",
                w.name()
            );
        }
        let layers: &[&str] = match w {
            Workload::NlpThreads => &["exec.region_s", "proc.run_plan_s", "sim.pred_err"],
            Workload::PashdMixed => &["service.compile_cold_us", "plancache.store_us"],
        };
        for layer in layers {
            let v = out.metrics.get(layer).copied().unwrap_or(0.0);
            assert!(v > 0.0, "{}: {layer}", w.name());
        }
        assert!(
            out.metrics
                .get("trace.overhead_ratio")
                .copied()
                .unwrap_or(0.0)
                > 0.0
        );
    }
}

#[test]
fn corrupted_outputs_are_caught_by_name() {
    init();
    let ctx = Ctx::new();
    let mut s = batch::setup(9, 32 << 10, &ctx).expect("setup");
    let victim = s.scripts[1].name.clone();
    let out_txt = s.refs[1].files.get_mut("out.txt").expect("writes out.txt");
    out_txt[0] ^= 0x20;
    for backend in [Backend::Threads, Backend::Processes] {
        let mut out = Outcome::default();
        batch::passes(backend, &ctx, &s, 0.0, &mut out);
        assert_eq!(out.failed, 1, "{backend:?}: {:?}", out.failures);
        assert!(out.failures[0].starts_with(&victim), "{:?}", out.failures);
    }

    let p = tiny(9, false);
    let mut s = service::start(&p, &ctx).expect("daemon starts");
    s.refs[0].files.get_mut("out.txt").expect("writes out.txt")[0] ^= 0x20;
    let mut out = Outcome::default();
    service::closed_loop(&s, &p, &ctx, 0, 0.3, &mut out).expect("loop");
    let warm0 = (0..out.attempted as usize)
        .filter(|&i| {
            matches!(
                service::mix(p.seed, i, s.scripts.len()),
                service::Kind::Warm(0) | service::Kind::Adaptive(0)
            )
        })
        .count() as u64;
    assert!(warm0 > 0, "the mix never sent script 0");
    assert_eq!(out.failed, warm0, "{:?}", out.failures);
    s.stop().expect("daemon stops");
}

#[test]
fn ledger_parts_plus_residual_equal_wall() {
    init();
    let ctx = Ctx::new();
    let s = batch::setup(10, 32 << 10, &ctx).expect("setup");
    for backend in [Backend::Threads, Backend::Processes] {
        let root = std::env::temp_dir().join(format!("ledger-{backend:?}"));
        std::fs::create_dir_all(&root).expect("root");
        let mut t = Tracer::default();
        for i in 0..s.scripts.len() {
            batch::traced_script(backend, &mut t, i, &ctx, &s, &root).expect("script matches");
        }
        let l = t.ledger("script");
        assert!(l.wall > 0.0);
        assert!((l.accounted() + l.residual - l.wall).abs() < 1e-9 * l.wall.max(1.0));
        assert!(l.residual >= 0.0 && l.residual < 0.05 * l.wall, "{l:?}");
        let exec = if backend == Backend::Threads {
            "exec.region"
        } else {
            "proc.run_plan"
        };
        for part in ["parser.parse", "frontend.translate", "plan.lower", exec] {
            assert!(
                l.parts.get(part).copied().unwrap_or(0.0) > 0.0,
                "{part} missing"
            );
        }
    }
}

// --- a small JSON reader, enough to check what the benchmark writes ---

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }
}

fn parse_json(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                    assert_eq!(self.s[self.i - 1], b',');
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                    assert_eq!(self.s[self.i - 1], b',');
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                    }
                    out.push(self.s[self.i] as char);
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

#[test]
fn result_line_parses_with_exactly_the_contract_keys() {
    let mut m = pash_e2ebench::metrics::Metrics::new();
    for (i, (name, _)) in END_TO_END.iter().chain(PER_LAYER).enumerate() {
        m.insert(name, 0.125 * (i + 1) as f64);
    }
    for trace in [false, true] {
        let v = parse_json(&result_line(true, 12, 0, &m, trace));
        let Json::Obj(top) = &v else {
            panic!("not an object")
        };
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(v.get("correct"), &Json::Bool(true));
        assert_eq!(v.get("attempted"), &Json::Num(12.0));
        let Json::Obj(metrics) = v.get("metrics") else {
            panic!("metrics")
        };
        let table = if trace { PER_LAYER } else { END_TO_END };
        assert_eq!(metrics.len(), table.len());
        for (name, unit) in table {
            let entry = &metrics[*name];
            assert_eq!(entry.get("unit"), &Json::Str(unit.to_string()));
            assert!(matches!(entry.get("value"), Json::Num(x) if *x > 0.0));
        }
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let v = parse_json(&text);
    let names = |key: &str| -> Vec<(String, String)> {
        let Json::Arr(items) = v.get(key) else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Json::Str(n), Json::Str(u)) => (n.clone(), u.clone()),
                other => panic!("bad metric {other:?}"),
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(END_TO_END));
    assert_eq!(names("per_layer"), own(PER_LAYER));
    let Json::Arr(workloads) = v.get("workloads") else {
        panic!("workloads")
    };
    for w in workloads {
        let Json::Str(name) = w.get("name") else {
            panic!("workload name")
        };
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}
