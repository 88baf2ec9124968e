//! Reference outputs from a path independent of the pash compiler and
//! runtime: each statement's stages run one after another through
//! `pash_coreutils::run_command` (via `pash_bench::baseline`) over an
//! in-memory filesystem, with the shell plumbing the benchmark scripts
//! use — `|`, `<`, `>`, `&` and newlines — interpreted here.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pash::coreutils::fs::{Fs, MemFs};
use pash::coreutils::Registry;
use pash_bench::baseline::run_pipeline_seq;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Word(String),
    Pipe,
    /// `&` or a newline: both end a statement; backgrounded
    /// statements run in order, which is the order their outputs are
    /// consumed in by the benchmark scripts.
    End,
    In,
    Out,
}

fn tokenize(src: &str) -> io::Result<Vec<Tok>> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidInput, format!("refseq: {m}"));
    let mut toks = Vec::new();
    let mut word: Option<String> = None;
    let mut chars = src.chars();
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                let w = word.get_or_insert_with(String::new);
                loop {
                    match chars.next() {
                        Some('\'') => break,
                        Some(q) => w.push(q),
                        None => return Err(bad("unterminated quote")),
                    }
                }
            }
            '\\' => match chars.next() {
                Some('\n') => {}
                Some(e) => word.get_or_insert_with(String::new).push(e),
                None => return Err(bad("trailing backslash")),
            },
            ' ' | '\t' | '\n' | '|' | '&' | '<' | '>' => {
                if let Some(w) = word.take() {
                    toks.push(Tok::Word(w));
                }
                match c {
                    '|' => toks.push(Tok::Pipe),
                    '&' | '\n' => toks.push(Tok::End),
                    '<' => toks.push(Tok::In),
                    '>' => toks.push(Tok::Out),
                    _ => {}
                }
            }
            '"' | '$' | '`' | ';' | '(' | ')' => {
                return Err(bad(&format!("unsupported shell syntax `{c}`")))
            }
            other => word.get_or_insert_with(String::new).push(other),
        }
    }
    if let Some(w) = word.take() {
        toks.push(Tok::Word(w));
    }
    Ok(toks)
}

/// One pipeline statement: stages plus the statement's redirections.
#[derive(Debug, Default, PartialEq, Eq)]
struct Statement {
    stages: Vec<Vec<String>>,
    input: Option<String>,
    output: Option<String>,
}

fn statements(src: &str) -> io::Result<Vec<Statement>> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidInput, format!("refseq: {m}"));
    let mut out = Vec::new();
    let mut cur = Statement::default();
    let mut stage: Vec<String> = Vec::new();
    let mut toks = tokenize(src)?.into_iter();
    while let Some(t) = toks.next() {
        match t {
            Tok::Word(w) => stage.push(w),
            Tok::In | Tok::Out => {
                let Some(Tok::Word(path)) = toks.next() else {
                    return Err(bad("redirection without a file"));
                };
                let slot = if t == Tok::In {
                    &mut cur.input
                } else {
                    &mut cur.output
                };
                *slot = Some(path);
            }
            Tok::Pipe | Tok::End => {
                if !stage.is_empty() {
                    cur.stages.push(std::mem::take(&mut stage));
                }
                if t == Tok::End && !cur.stages.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
        }
    }
    if !stage.is_empty() {
        cur.stages.push(stage);
    }
    if !cur.stages.is_empty() {
        out.push(cur);
    }
    Ok(out)
}

/// What one reference execution produced and what it cost.
#[derive(Debug, Default, Clone)]
pub struct Reference {
    /// Bytes the script wrote to its standard output.
    pub stdout: Vec<u8>,
    /// Every file the script wrote, by path.
    pub files: BTreeMap<String, Vec<u8>>,
    /// Wall time spent in each command, by command name.
    pub per_command: BTreeMap<String, Duration>,
}

/// Runs `src` sequentially against a snapshot of `inputs`, one stage
/// at a time through `run_pipeline_seq`.
pub fn run_reference(src: &str, inputs: &MemFs, registry: &Registry) -> io::Result<Reference> {
    let fs = Arc::new(inputs.snapshot());
    let dyn_fs: Arc<dyn Fs> = fs.clone();
    let mut reference = Reference::default();
    for st in statements(src)? {
        let mut data = match &st.input {
            Some(path) => fs.read(path)?,
            None => Vec::new(),
        };
        for argv in &st.stages {
            let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
            let t0 = Instant::now();
            data = run_pipeline_seq(std::slice::from_ref(&argv), &data, registry, dyn_fs.clone())?;
            *reference
                .per_command
                .entry(argv[0].to_string())
                .or_default() += t0.elapsed();
        }
        match &st.output {
            Some(path) => {
                fs.add(path.clone(), data.clone());
                reference.files.insert(path.clone(), data);
            }
            None => reference.stdout.extend_from_slice(&data),
        }
    }
    Ok(reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_statements_stages_and_redirections() {
        let sts = statements(
            "tr A-Z a-z < in.txt | sort > t1.txt & cut -d ' ' -f 1 in2.txt > s.txt\n\
             grep '(a|b)+' t1.txt",
        )
        .expect("parse");
        assert_eq!(sts.len(), 3);
        assert_eq!(sts[0].input.as_deref(), Some("in.txt"));
        assert_eq!(sts[0].output.as_deref(), Some("t1.txt"));
        assert_eq!(sts[0].stages, vec![vec!["tr", "A-Z", "a-z"], vec!["sort"]]);
        assert_eq!(
            sts[1].stages[0],
            vec!["cut", "-d", " ", "-f", "1", "in2.txt"]
        );
        assert_eq!(sts[2].stages[0], vec!["grep", "(a|b)+", "t1.txt"]);
        assert_eq!(sts[2].output, None);
    }

    #[test]
    fn quoted_backslash_stays_literal() {
        let sts = statements("cat in.txt | tr -cs A-Za-z '\\n'").expect("parse");
        assert_eq!(sts[0].stages[1], vec!["tr", "-cs", "A-Za-z", "\\n"]);
    }

    #[test]
    fn rejects_syntax_it_does_not_interpret() {
        assert!(statements("echo $HOME").is_err());
        assert!(statements("echo 'open").is_err());
    }

    #[test]
    fn runs_a_two_statement_script() {
        let fs = MemFs::new();
        fs.add("in.txt", b"b\na\nB\n".to_vec());
        let r = run_reference(
            "cat in.txt | tr A-Z a-z | sort > w.txt\nuniq -c w.txt > out.txt",
            &fs,
            &Registry::standard(),
        )
        .expect("reference");
        assert_eq!(r.files["w.txt"], b"a\nb\nb\n");
        assert_eq!(r.files["out.txt"], b"      1 a\n      2 b\n");
        assert!(r.per_command.contains_key("sort"));
        assert!(r.stdout.is_empty());
    }
}
