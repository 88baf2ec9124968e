//! The execution supervisor: retries, deadlines, and graceful
//! fallback to the sequential baseline.
//!
//! Every backend executes a region as one *attempt* closure returning
//! [`ExecError`] on failure. [`supervise_ladder`] wraps that closure
//! in the recovery state machine (the program driver,
//! `drive.rs`, is its caller):
//!
//! ```text
//!            ┌────────────┐ transient error,
//!            │  attempt   │ region replayable,
//!       ┌───▶│ (injected  │ retries left
//!       │    │   fault?)  │──────────────┐
//!       │    └─────┬──────┘              │ backoff
//!       │          │ ok                  │ (2^i × base)
//!       │          ▼                     │
//!       │      success                   │
//!       └────────────────────────────────┘
//!                  │ transient error, retries spent
//!                  ▼
//!            ┌────────────┐
//!            │  fallback  │  width-1 sequential re-execution,
//!            │ (width 1,  │  injection disabled — its output IS
//!            │  no fault) │  the definition of correct
//!            └─────┬──────┘
//!                  │ fatal error at any point: give up — the
//!                  ▼ sequential run would fail identically
//!                error
//! ```
//!
//! Retrying is sound because attempts are *replayable*: a region's
//! outputs (stdout buffer, output files) are applied from scratch on
//! every attempt — nothing downstream observes a failed attempt —
//! and the plan marks regions whose commands are pure
//! ([`RegionPlan::replayable`]). Non-replayable regions go straight
//! to the error.
//!
//! Counters record which recovery path ran, so tests can assert "this
//! sweep case exercised a retry / a deadline kill / the fallback"
//! instead of trusting the output alone.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pash_core::plan::RegionPlan;

use crate::fault::{splitmix64, ArmedFault, ExecError, FaultPlan};

/// Recovery counters, shared across a program run (and its clones).
#[derive(Debug, Default)]
pub struct SupervisorCounters {
    retries: AtomicU64,
    deadline_kills: AtomicU64,
    fallbacks: AtomicU64,
    injected: AtomicU64,
    reroutes: AtomicU64,
    local_fallbacks: AtomicU64,
}

impl SupervisorCounters {
    /// Region attempts re-run after a transient failure.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Attempts killed by the region deadline.
    pub fn deadline_kills(&self) -> u64 {
        self.deadline_kills.load(Ordering::Relaxed)
    }

    /// Regions re-executed through the sequential fallback.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Faults armed and delivered into attempts.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Remote retries that landed on a different worker than the
    /// failed attempt (see `runtime::remote`).
    pub fn reroutes(&self) -> u64 {
        self.reroutes.load(Ordering::Relaxed)
    }

    /// Regions that degraded from the remote backend to the local one
    /// (the middle rung of the recovery ladder).
    pub fn local_fallbacks(&self) -> u64 {
        self.local_fallbacks.load(Ordering::Relaxed)
    }
}

/// Supervisor knobs. Cloning shares the counters, the fault plan's
/// budget, and the per-run retry budget, so per-region clones report
/// into — and draw from — one place.
#[derive(Debug, Clone)]
pub struct SupervisorSettings {
    /// Retries after the first failed attempt of a replayable region.
    pub max_retries: u32,
    /// Backoff before retry `i` is `backoff_base × 2^(i-1)`, scaled
    /// by the seeded jitter factor (see [`jittered_backoff`]).
    pub backoff_base: Duration,
    /// Wall-clock budget per region attempt; `None` disables the
    /// watchdog (the default — deadlines are opt-in because a fair
    /// deadline depends on input size).
    pub region_deadline: Option<Duration>,
    /// Whether exhausted retries degrade to the sequential fallback
    /// (when the caller can provide one).
    pub fallback: bool,
    /// The fault to inject, if any (test plane).
    pub fault: Option<FaultPlan>,
    /// Shared recovery counters.
    pub counters: Arc<SupervisorCounters>,
    /// Seeds the deterministic backoff jitter; mixed with the region
    /// fingerprint and attempt index so k regions retrying a
    /// shared-cause fault spread out instead of resynchronizing.
    pub jitter_seed: u64,
    /// Total retries one program run may spend across all its regions
    /// (`u32::MAX` = unbounded, the default). Installed per run by
    /// [`SupervisorSettings::fresh_run`]; once spent, further
    /// transient failures go straight down the fallback ladder.
    pub retry_budget: u32,
    /// The live per-run budget cell
    /// [`SupervisorSettings::fresh_run`] installs; clones share it.
    /// (Public only so struct-literal update syntax keeps working;
    /// treat as supervisor-internal.)
    pub run_budget: Arc<AtomicU32>,
}

impl Default for SupervisorSettings {
    fn default() -> Self {
        SupervisorSettings {
            max_retries: 2,
            backoff_base: Duration::from_millis(25),
            region_deadline: None,
            fallback: true,
            fault: None,
            counters: Arc::new(SupervisorCounters::default()),
            jitter_seed: 0,
            retry_budget: u32::MAX,
            run_budget: Arc::new(AtomicU32::new(u32::MAX)),
        }
    }
}

impl SupervisorSettings {
    /// Counts one deadline kill (backends call this when their
    /// watchdog fires; the supervisor itself cannot see inside an
    /// attempt).
    pub fn note_deadline_kill(&self) {
        self.counters.deadline_kills.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one remote reroute (a retry placed on a different
    /// worker than the failed attempt; see `runtime::remote`).
    pub fn note_reroute(&self) {
        self.counters.reroutes.fetch_add(1, Ordering::Relaxed);
    }

    /// A per-run copy with a fresh retry-budget cell holding
    /// `retry_budget` units. Program drivers call this once at run
    /// start; the per-region clones they hand out then share the
    /// cell, so the budget bounds the whole run's retries, not each
    /// region's.
    pub fn fresh_run(&self) -> SupervisorSettings {
        SupervisorSettings {
            run_budget: Arc::new(AtomicU32::new(self.retry_budget)),
            ..self.clone()
        }
    }

    /// Claims one retry from the per-run budget (`u32::MAX` is
    /// sticky-unbounded). `false` when the budget is spent.
    fn claim_retry(&self) -> bool {
        let mut cur = self.run_budget.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return false;
            }
            let next = if cur == u32::MAX { cur } else { cur - 1 };
            match self.run_budget.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(v) => cur = v,
            }
        }
    }
}

/// The backoff before retry `attempt` (1-based): the exponential
/// `base × 2^(attempt-1)`, scaled by a deterministic jitter factor in
/// `[0.5, 1.0)` drawn from `seed` — so the same (seed, attempt)
/// always backs off identically, while different regions/runs spread
/// out instead of retrying in lockstep.
pub fn jittered_backoff(base: Duration, attempt: u32, seed: u64) -> Duration {
    let exp = base.saturating_mul(1 << (attempt - 1).min(16));
    let h = splitmix64(seed.wrapping_add(attempt as u64));
    // nanos × (2^16 + (h mod 2^16)) / 2^17 ∈ [nanos/2, nanos).
    let num = (1u128 << 16) + (h & 0xFFFF) as u128;
    let nanos = (exp.as_nanos().saturating_mul(num)) >> 17;
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
}

/// Runs one region under the recovery ladder:
///
/// ```text
/// attempt (placed per attempt index, rerouted on retry when remote)
///   → retries with jittered backoff, bounded by the run budget
///     → local re-execution (remote only; clean, no injection)
///       → width-1 sequential fallback
/// ```
///
/// `attempt` executes the region once; it receives the attempt index
/// (the remote runner uses it for per-attempt worker placement) and
/// the armed fault, if any — `remote` arms the remote-only kinds via
/// [`FaultPlan::arm_remote`], otherwise [`FaultPlan::arm`] picks a
/// local one. It is invoked up to `1 + max_retries` times for
/// replayable regions. `local` re-runs the region on the local
/// backend; `fallback` — when provided and enabled — runs the region's
/// width-1 sequential form with injection disabled, the last resort
/// that restores the `sh` baseline byte-for-byte. Fatal errors abort
/// the ladder at any rung.
pub fn supervise_ladder<T>(
    r: &RegionPlan,
    settings: &SupervisorSettings,
    remote: bool,
    mut attempt: impl FnMut(u32, Option<ArmedFault>) -> Result<T, ExecError>,
    local: Option<impl FnOnce() -> Result<T, ExecError>>,
    fallback: Option<impl FnOnce() -> Result<T, ExecError>>,
) -> Result<T, ExecError> {
    let attempts = if r.replayable {
        1 + settings.max_retries
    } else {
        1
    };
    let jitter = settings.jitter_seed ^ r.fingerprint();
    let mut last: Option<ExecError> = None;
    for i in 0..attempts {
        if i > 0 {
            if !settings.claim_retry() {
                break;
            }
            settings.counters.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(jittered_backoff(settings.backoff_base, i, jitter));
        }
        let armed =
            settings
                .fault
                .as_ref()
                .and_then(|f| if remote { f.arm_remote(r) } else { f.arm(r) });
        if armed.is_some() {
            settings.counters.injected.fetch_add(1, Ordering::Relaxed);
        }
        match attempt(i, armed) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() => last = Some(e),
            // Fatal: the sequential run would fail identically;
            // neither retry nor fallback can help.
            Err(e) => return Err(e),
        }
    }
    let last = last.expect("at least one attempt ran");
    if !(settings.fallback && r.replayable) {
        return Err(last);
    }
    // Middle rung: the local backend, clean (no injection, no
    // deadline) — remote infrastructure trouble does not condemn a
    // run to width 1.
    if let Some(run_local) = local {
        settings
            .counters
            .local_fallbacks
            .fetch_add(1, Ordering::Relaxed);
        match run_local() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() => {}
            Err(e) => return Err(e),
        }
    }
    // Last rung: width-1 sequential re-execution, injection disabled
    // — its output IS the definition of correct.
    if let Some(run_fallback) = fallback {
        settings.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
        return run_fallback();
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultClass;
    use std::io;

    fn replayable_region() -> RegionPlan {
        RegionPlan {
            replayable: true,
            ..Default::default()
        }
    }

    const NONE: Option<fn() -> Result<i32, ExecError>> = None;

    fn transient() -> ExecError {
        ExecError::transient("node", io::Error::new(io::ErrorKind::Interrupted, "boom"))
    }

    #[test]
    fn first_success_needs_no_recovery() {
        let s = SupervisorSettings::default();
        let out = supervise_ladder(
            &replayable_region(),
            &s,
            false,
            |_, _| Ok::<_, ExecError>(7),
            NONE,
            NONE,
        )
        .expect("ok");
        assert_eq!(out, 7);
        assert_eq!(s.counters.retries(), 0);
        assert_eq!(s.counters.fallbacks(), 0);
    }

    #[test]
    fn transient_failure_retries_then_succeeds() {
        let s = SupervisorSettings {
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        };
        let mut calls = 0;
        let out = supervise_ladder(
            &replayable_region(),
            &s,
            false,
            |_, _| {
                calls += 1;
                if calls < 3 {
                    Err(transient())
                } else {
                    Ok(42)
                }
            },
            NONE,
            NONE,
        )
        .expect("ok");
        assert_eq!(out, 42);
        assert_eq!(s.counters.retries(), 2);
        assert_eq!(s.counters.fallbacks(), 0);
    }

    #[test]
    fn exhausted_retries_fall_back() {
        let s = SupervisorSettings {
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        };
        let out = supervise_ladder(
            &replayable_region(),
            &s,
            false,
            |_, _| Err::<i32, _>(transient()),
            NONE,
            Some(|| Ok(99)),
        )
        .expect("fallback");
        assert_eq!(out, 99);
        assert_eq!(s.counters.retries(), 1);
        assert_eq!(s.counters.fallbacks(), 1);
    }

    #[test]
    fn fatal_errors_do_not_retry_or_fall_back() {
        let s = SupervisorSettings {
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        };
        let mut calls = 0;
        let err = supervise_ladder(
            &replayable_region(),
            &s,
            false,
            |_, _| {
                calls += 1;
                Err::<i32, _>(ExecError::fatal(
                    "node",
                    io::Error::new(io::ErrorKind::NotFound, "no such file"),
                ))
            },
            NONE,
            Some(|| Ok(1)),
        )
        .expect_err("fatal");
        assert_eq!(calls, 1);
        assert_eq!(err.class, FaultClass::Fatal);
        assert_eq!(s.counters.fallbacks(), 0);
    }

    #[test]
    fn jitter_is_deterministic_and_banded() {
        let base = Duration::from_millis(40);
        for attempt in 1..=4u32 {
            let exp = base.saturating_mul(1 << (attempt - 1));
            for seed in 0..32u64 {
                let a = jittered_backoff(base, attempt, seed);
                let b = jittered_backoff(base, attempt, seed);
                assert_eq!(a, b, "same (seed, attempt) must back off identically");
                assert!(
                    a >= exp / 2 && a < exp,
                    "{a:?} outside [{exp:?}/2, {exp:?})"
                );
            }
        }
        // Different seeds actually spread out (not all identical).
        let spread: std::collections::HashSet<Duration> =
            (0..32u64).map(|s| jittered_backoff(base, 1, s)).collect();
        assert!(spread.len() > 8, "only {} distinct backoffs", spread.len());
    }

    #[test]
    fn run_retry_budget_bounds_total_retries() {
        // Budget 1, two failing replayable regions: exactly one retry
        // is spent across the run, then both regions fall back.
        let s = SupervisorSettings {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            retry_budget: 1,
            ..Default::default()
        }
        .fresh_run();
        for _ in 0..2 {
            let out = supervise_ladder(
                &replayable_region(),
                &s,
                false,
                |_, _| Err::<i32, _>(transient()),
                NONE,
                Some(|| Ok(5)),
            )
            .expect("fallback");
            assert_eq!(out, 5);
        }
        assert_eq!(s.counters.retries(), 1, "budget caps retries run-wide");
        assert_eq!(s.counters.fallbacks(), 2);
        // fresh_run reinstalls the budget for the next run.
        let s2 = s.fresh_run();
        supervise_ladder(
            &replayable_region(),
            &s2,
            false,
            |_, _| Err::<i32, _>(transient()),
            NONE,
            Some(|| Ok(5)),
        )
        .expect("fallback");
        assert_eq!(s2.counters.retries(), 2);
    }

    #[test]
    fn remote_ladder_degrades_remote_to_local_to_sequential() {
        let s = SupervisorSettings {
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        };
        // Local rung succeeds: sequential fallback untouched.
        let out = supervise_ladder(
            &replayable_region(),
            &s,
            true,
            |_, _| Err::<i32, _>(transient()),
            Some(|| Ok(11)),
            Some(|| Ok(99)),
        )
        .expect("local rung");
        assert_eq!(out, 11);
        assert_eq!(s.counters.local_fallbacks(), 1);
        assert_eq!(s.counters.fallbacks(), 0);
        // Local rung also transient: the sequential rung finishes it.
        let out = supervise_ladder(
            &replayable_region(),
            &s,
            true,
            |_, _| Err::<i32, _>(transient()),
            Some(|| Err::<i32, _>(transient())),
            Some(|| Ok(99)),
        )
        .expect("sequential rung");
        assert_eq!(out, 99);
        assert_eq!(s.counters.local_fallbacks(), 2);
        assert_eq!(s.counters.fallbacks(), 1);
        // Attempt indices arrive in order (placement input).
        let mut seen = Vec::new();
        let _ = supervise_ladder(
            &replayable_region(),
            &s,
            true,
            |i, _| {
                seen.push(i);
                Err::<i32, _>(transient())
            },
            NONE,
            Some(|| Ok(0)),
        );
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn non_replayable_regions_fail_on_first_transient() {
        let s = SupervisorSettings {
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        };
        let r = RegionPlan::default(); // replayable: false
        let mut calls = 0;
        supervise_ladder(
            &r,
            &s,
            false,
            |_, _| {
                calls += 1;
                Err::<i32, _>(transient())
            },
            NONE,
            Some(|| Ok(1)),
        )
        .expect_err("no retry");
        assert_eq!(calls, 1);
        assert_eq!(s.counters.retries(), 0);
        assert_eq!(s.counters.fallbacks(), 0);
    }
}
