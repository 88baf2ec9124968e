//! The program driver: one step walk for the `threads`, `processes`
//! and `remote` backends.
//!
//! [`drive`] owns the guard state, routes the program's stdin to the
//! first region that reads it, overlaps independent regions
//! ([`ExecutionPlan::parallel_waves`]) and runs each region under the
//! supervisor's recovery ladder ([`supervise_ladder`]). A backend
//! supplies only a [`RegionRunner`].

use std::io;

use pash_core::plan::{ExecutionPlan, PlanStep, RegionPlan};

use crate::exec::{ProgramOutput, RegionOutput};
use crate::fault::{ArmedFault, ExecError};
use crate::supervise::{supervise_ladder, SupervisorSettings};

/// The per-backend half of program execution.
pub(crate) trait RegionRunner: Sync {
    /// One attempt at region `r` fed `feed` on its primary stdin.
    /// `index` counts this region's attempts from 0; `fault` is the
    /// fault the supervisor armed for it, if any; `sup` supplies the
    /// region deadline and counts deadline kills.
    fn attempt(
        &self,
        r: &RegionPlan,
        feed: &[u8],
        index: u32,
        fault: Option<&ArmedFault>,
        sup: &SupervisorSettings,
    ) -> Result<RegionOutput, ExecError>;

    /// A clean run of `r`: no injected fault, no deadline. On the
    /// width-1 fallback region this is the sequential reference run.
    fn reference(&self, r: &RegionPlan, feed: &[u8]) -> Result<RegionOutput, ExecError>;

    /// For runners whose attempts leave the machine: the local runner
    /// whose clean [`RegionRunner::reference`] run on the full-width
    /// region is the ladder's middle rung. A runner with a local rung
    /// also arms the remote fault kinds.
    fn local(&self) -> Option<&dyn RegionRunner> {
        None
    }

    /// Runs a shell step that is not a data no-op; returns its stdout
    /// and exit status. Hermetic backends cannot.
    fn shell(&self, text: &str) -> io::Result<(Vec<u8>, i32)> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("this backend cannot execute shell step `{text}`"),
        ))
    }
}

/// Executes `plan` with `runner`, step by step.
///
/// `fallback` is the same program compiled at width 1: when a region
/// exhausts its retries, the aligned fallback region re-executes it
/// through [`RegionRunner::reference`], so a fault can cost time but
/// never change the output. A fallback whose step skeleton, guards or
/// shell text differ from `plan` is not a re-execution of the same
/// program and is ignored.
pub(crate) fn drive<R: RegionRunner + ?Sized>(
    plan: &ExecutionPlan,
    fallback: Option<&ExecutionPlan>,
    stdin: Vec<u8>,
    max_inflight: usize,
    supervisor: &SupervisorSettings,
    runner: &R,
) -> io::Result<ProgramOutput> {
    let mut d = Driver {
        plan,
        fallback: fallback.filter(|f| plans_align(plan, f)),
        // One flaky region cannot starve another run's retries.
        sup: supervisor.fresh_run(),
        runner,
        stdin: Some(stdin),
        out: ProgramOutput {
            stdout: Vec::new(),
            status: 0,
        },
        skip_next: false,
    };
    let waves = if max_inflight > 1 {
        plan.parallel_waves()
    } else {
        (0..plan.steps.len()).map(|i| vec![i]).collect()
    };
    for wave in waves {
        if wave.len() > 1 && !d.skip_next {
            for chunk in wave.chunks(max_inflight) {
                d.regions(chunk)?;
            }
        } else {
            for &i in &wave {
                d.step(i)?;
            }
        }
    }
    Ok(d.out)
}

/// Two plans compiled from the same source at different widths have
/// the same step skeleton, guards and shell text (lowering maps source
/// steps 1:1 regardless of width).
fn plans_align(a: &ExecutionPlan, b: &ExecutionPlan) -> bool {
    a.steps.len() == b.steps.len()
        && a.steps.iter().zip(&b.steps).all(|(x, y)| match (x, y) {
            (PlanStep::Region(_), PlanStep::Region(_)) => true,
            (PlanStep::Guard(g), PlanStep::Guard(h)) => g == h,
            (PlanStep::Shell { text: t, .. }, PlanStep::Shell { text: u, .. }) => t == u,
            _ => false,
        })
}

/// The walk's mutable state.
struct Driver<'a, R: ?Sized> {
    plan: &'a ExecutionPlan,
    fallback: Option<&'a ExecutionPlan>,
    sup: SupervisorSettings,
    runner: &'a R,
    stdin: Option<Vec<u8>>,
    out: ProgramOutput,
    skip_next: bool,
}

impl<R: RegionRunner + ?Sized> Driver<'_, R> {
    /// Executes step `i` on its own.
    fn step(&mut self, i: usize) -> io::Result<()> {
        let plan = self.plan;
        match &plan.steps[i] {
            PlanStep::Guard(cond) => self.skip_next = !cond.admits(self.out.status),
            _ if std::mem::take(&mut self.skip_next) => {}
            PlanStep::Region(_) => self.regions(&[i])?,
            // Folded into the compile-time environment already.
            PlanStep::Shell {
                data_noop: true, ..
            } => self.out.status = 0,
            PlanStep::Shell { text, .. } => {
                let (stdout, status) = self.runner.shell(text)?;
                self.out.stdout.extend_from_slice(&stdout);
                self.out.status = status;
            }
        }
        Ok(())
    }

    /// Runs the region steps `steps` (mutually independent when more
    /// than one) concurrently, then applies their outputs and statuses
    /// in step order.
    fn regions(&mut self, steps: &[usize]) -> io::Result<()> {
        let (plan, fallback) = (self.plan, self.fallback);
        let mut jobs = Vec::with_capacity(steps.len());
        for &i in steps {
            let PlanStep::Region(r) = &plan.steps[i] else {
                // The wave builder only groups regions.
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "non-region step in a parallel wave",
                ));
            };
            let fb = match fallback.map(|f| &f.steps[i]) {
                Some(PlanStep::Region(fr)) => Some(fr),
                _ => None,
            };
            // Only a region that consumes stdin takes the bytes; the
            // emitted script keeps real stdin on a saved fd, so a later
            // reader still sees it.
            let feed = if r.reads_stdin() {
                self.stdin.take().unwrap_or_default()
            } else {
                Vec::new()
            };
            jobs.push((r, fb, feed));
        }
        let (sup, runner) = (&self.sup, self.runner);
        let results: Vec<_> = match &jobs[..] {
            [(r, fb, feed)] => vec![supervised(r, *fb, feed, sup, runner)],
            _ => std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .iter()
                    .map(|(r, fb, feed)| scope.spawn(move || supervised(r, *fb, feed, sup, runner)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("region thread"))
                    .collect()
            }),
        };
        for res in results {
            let out = res.map_err(io::Error::from)?;
            self.out.status = out.status;
            self.out.stdout.extend_from_slice(&out.stdout);
        }
        Ok(())
    }
}

/// Runs region `r` under the recovery ladder: supervised attempts,
/// then the runner's local rung (if any), then the aligned fallback
/// region's reference run.
fn supervised<R: RegionRunner + ?Sized>(
    r: &RegionPlan,
    fallback: Option<&RegionPlan>,
    feed: &[u8],
    sup: &SupervisorSettings,
    runner: &R,
) -> Result<RegionOutput, ExecError> {
    let local = runner.local();
    supervise_ladder(
        r,
        sup,
        local.is_some(),
        |i, armed| runner.attempt(r, feed, i, armed.as_ref(), sup),
        local.map(|l| move || l.reference(r, feed)),
        fallback.map(|fb| move || runner.reference(fb, feed)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    use pash_core::compile::{compile, PashConfig};

    /// A runner that executes nothing: a region's output is its
    /// [`label`], its status comes from `status`, and every call is
    /// recorded.
    #[derive(Default)]
    struct Fake {
        status: Vec<(&'static str, i32)>,
        /// Attempts still to fail (transiently) before any succeeds.
        failures: AtomicU32,
        /// Makes concurrent attempts meet, then finish out of order.
        rendezvous: Option<Rendezvous>,
        attempts: Mutex<Vec<(String, Vec<u8>)>>,
        references: AtomicUsize,
    }

    /// The file a region reads, else the file it writes.
    fn label(r: &RegionPlan) -> String {
        let files = r.reads_files();
        if files.is_empty() {
            r.writes_files().join(",")
        } else {
            files.join(",")
        }
    }

    /// For regions reading `a.txt`, `b.txt`, … (steps 0, 1, …) run in
    /// chunks of `width`: each attempt waits until its whole chunk has
    /// arrived, then until every later step of the chunk has finished,
    /// so a chunk finishes in reverse step order. A driver that runs a
    /// chunk one region at a time times out here and finishes in step
    /// order instead.
    struct Rendezvous {
        width: usize,
        /// Arrivals per chunk, and steps in the order they finished.
        state: Mutex<(Vec<usize>, Vec<usize>)>,
        cv: Condvar,
    }

    impl Rendezvous {
        fn new(width: usize) -> Rendezvous {
            Rendezvous {
                width,
                state: Mutex::new((vec![0; 8], Vec::new())),
                cv: Condvar::new(),
            }
        }

        fn meet(&self, step: usize) {
            let chunk = step / self.width;
            let later = step + 1..(chunk + 1) * self.width;
            let patience = Duration::from_secs(10);
            let mut st = self.state.lock().unwrap();
            st.0[chunk] += 1;
            self.cv.notify_all();
            st = self
                .cv
                .wait_timeout_while(st, patience, |st| st.0[chunk] < self.width)
                .unwrap()
                .0;
            st = self
                .cv
                .wait_timeout_while(st, patience, |st| later.clone().any(|j| !st.1.contains(&j)))
                .unwrap()
                .0;
            st.1.push(step);
            self.cv.notify_all();
        }
    }

    impl Fake {
        fn output(&self, r: &RegionPlan) -> RegionOutput {
            let name = label(r);
            let status = self
                .status
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |s| s.1);
            RegionOutput {
                stdout: format!("{name}\n").into_bytes(),
                statuses: Vec::new(),
                status,
            }
        }

        fn attempted(&self) -> Vec<String> {
            let calls = self.attempts.lock().unwrap();
            calls.iter().map(|(name, _)| name.clone()).collect()
        }
    }

    impl RegionRunner for Fake {
        fn attempt(
            &self,
            r: &RegionPlan,
            feed: &[u8],
            _index: u32,
            _fault: Option<&ArmedFault>,
            _sup: &SupervisorSettings,
        ) -> Result<RegionOutput, ExecError> {
            if let Some(rv) = &self.rendezvous {
                rv.meet(usize::from(label(r).as_bytes()[0] - b'a'));
            }
            self.attempts
                .lock()
                .unwrap()
                .push((label(r), feed.to_vec()));
            let failing = self
                .failures
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if failing {
                return Err(ExecError::transient(
                    "fake",
                    io::Error::new(io::ErrorKind::Interrupted, "injected"),
                ));
            }
            Ok(self.output(r))
        }

        fn reference(&self, r: &RegionPlan, _feed: &[u8]) -> Result<RegionOutput, ExecError> {
            self.references.fetch_add(1, Ordering::SeqCst);
            Ok(self.output(r))
        }
    }

    fn plan(src: &str) -> ExecutionPlan {
        compile(src, &PashConfig::default()).expect("compile").plan
    }

    fn quick() -> SupervisorSettings {
        SupervisorSettings {
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        }
    }

    fn run(p: &ExecutionPlan, fake: &Fake, max_inflight: usize) -> io::Result<ProgramOutput> {
        drive(p, None, b"input".to_vec(), max_inflight, &quick(), fake)
    }

    #[test]
    fn failed_guard_skips_exactly_the_next_step() {
        let fake = Fake {
            status: vec![("a.txt", 1)],
            ..Default::default()
        };
        let out = run(&plan("cat a.txt && cat b.txt\ncat c.txt"), &fake, 1).expect("run");
        assert_eq!(out.stdout, b"a.txt\nc.txt\n");
        assert_eq!(out.status, 0);
        assert_eq!(fake.attempted(), ["a.txt", "c.txt"]);

        let fake = Fake {
            status: vec![("a.txt", 1)],
            ..Default::default()
        };
        let out = run(&plan("cat a.txt || cat b.txt\ncat c.txt"), &fake, 1).expect("run");
        assert_eq!(out.stdout, b"a.txt\nb.txt\nc.txt\n");
        // A skipped step leaves the status of the step before it.
        let out = run(&plan("cat a.txt && cat b.txt"), &fake, 4).expect("run");
        assert_eq!((out.stdout, out.status), (b"a.txt\n".to_vec(), 1));
    }

    #[test]
    fn stdin_reaches_only_the_first_region_that_reads_it() {
        let p = plan("cat c.txt > c.out\ntr a-z A-Z > t1\ncat d.txt > d.out\ntr a-z A-Z > t2");
        for max_inflight in [1, 4] {
            let fake = Fake::default();
            run(&p, &fake, max_inflight).expect("run");
            let mut calls = fake.attempts.lock().unwrap().clone();
            calls.sort();
            let feeds: Vec<(&str, &[u8])> = calls
                .iter()
                .map(|(n, f)| (n.as_str(), f.as_slice()))
                .collect();
            assert_eq!(
                feeds,
                [
                    ("c.txt", &b""[..]),
                    ("d.txt", b""),
                    ("t1", b"input"),
                    ("t2", b"")
                ],
                "max_inflight {max_inflight}"
            );
        }
    }

    #[test]
    fn wave_results_apply_in_step_order() {
        let p = plan("cat a.txt > a.out\ncat b.txt > b.out\ncat c.txt > c.out\ncat d.txt > d.out");
        assert_eq!(p.parallel_waves(), [vec![0, 1, 2, 3]], "one wave of four");
        let finish_order = [
            (1, vec![0, 1, 2, 3]),
            (2, vec![1, 0, 3, 2]),
            (4, vec![3, 2, 1, 0]),
        ];
        for (max_inflight, finished) in finish_order {
            let fake = Fake {
                status: vec![("b.txt", 5), ("d.txt", 3)],
                rendezvous: Some(Rendezvous::new(max_inflight)),
                ..Default::default()
            };
            let out = run(&p, &fake, max_inflight).expect("run");
            let rv = fake.rendezvous.as_ref().expect("rendezvous");
            assert_eq!(
                rv.state.lock().unwrap().1,
                finished,
                "chunks of {max_inflight} overlap"
            );
            assert_eq!(out.stdout, b"a.txt\nb.txt\nc.txt\nd.txt\n");
            assert_eq!(out.status, 3, "the last step's status wins");
        }
    }

    #[test]
    fn misaligned_fallback_is_never_invoked() {
        let sup = SupervisorSettings {
            max_retries: 0,
            ..quick()
        };
        let cases = [
            ("cat a.txt && cat b.txt", "cat a.txt || cat b.txt"),
            ("x=1\ncat a.txt", "y=1\ncat a.txt"),
            ("cat a.txt\ncat b.txt", "cat a.txt"),
        ];
        for (src, other) in cases {
            let (p, fb) = (plan(src), plan(other));
            let fake = Fake {
                failures: AtomicU32::new(u32::MAX),
                ..Default::default()
            };
            let res = drive(&p, Some(&fb), Vec::new(), 1, &sup, &fake);
            assert!(res.is_err(), "`{src}` must fail without a fallback");
            assert_eq!(fake.references.load(Ordering::SeqCst), 0, "`{other}`");
            // The same program as its own fallback is aligned.
            let res = drive(&p, Some(&p), Vec::new(), 1, &sup, &fake);
            assert!(res.is_ok(), "`{src}` falls back to itself");
            assert!(fake.references.load(Ordering::SeqCst) >= 1);
        }
    }

    #[test]
    fn each_run_gets_a_fresh_retry_budget() {
        // A budget of one retry per run, already installed: were it
        // shared across runs, the second run's retry would be refused
        // and the region would fall back instead.
        let sup = SupervisorSettings {
            retry_budget: 1,
            ..quick()
        }
        .fresh_run();
        let p = plan("cat a.txt");
        let PlanStep::Region(r) = &p.steps[0] else {
            panic!("one region");
        };
        assert!(r.replayable);
        let fake = Fake::default();
        for _ in 0..2 {
            fake.failures.store(1, Ordering::SeqCst);
            drive(&p, Some(&p), Vec::new(), 1, &sup, &fake).expect("run");
        }
        assert_eq!(sup.counters.retries(), 2);
        assert_eq!(sup.counters.fallbacks(), 0);
        assert_eq!(fake.references.load(Ordering::SeqCst), 0);
    }
}
