//! The engine's flight recorder: one [`RouteAttempt`] per served
//! request, kept in a bounded [`benes_obs::FlightRecorder`] ring.
//!
//! Counters answer "how often"; the flight recorder answers **"what
//! happened to the job that failed"**. Each record carries the
//! permutation fingerprint, the ladder of decisions the worker walked
//! (cache lookup, tier planned, execution verdicts, every
//! fault-reroute rung), per-phase timings, and — for failures — the
//! complete per-stage [`RouteTrace`] of the failing plan over the
//! fabric as the worker saw it, faults included. `benes-cli obs
//! flightrec` renders the dump.

use benes_core::render::render_trace;
use benes_core::trace::RouteTrace;

use crate::engine::EngineError;
use crate::plan::Tier;

/// One rung of the decision ladder a worker walked while serving a
/// request, in the order it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LadderStep {
    /// The plan cache held a plan for this permutation.
    CacheHit,
    /// No cached plan; a fresh one must be made.
    CacheMiss,
    /// A cached explicit-settings plan was cleared against the fault
    /// registry by the O(|faults|) agreement check, no replay needed.
    StaticValidated,
    /// The cached plan failed validation and was evicted.
    CacheEvicted,
    /// A fresh plan was produced at this tier.
    Planned(Tier),
    /// The plan was executed and verified (`ok`) or misrouted (`!ok`).
    Executed {
        /// Whether the realized routing matched the request.
        ok: bool,
    },
    /// Execution failed with faults registered: the reroute ladder
    /// starts.
    FaultDetected,
    /// The registry emptied mid-flight; the original plan was retried.
    Healed,
    /// A fault-avoiding plan was produced and executed (`ok` reports
    /// the verified outcome).
    Replanned {
        /// Whether the avoiding plan's routing verified.
        ok: bool,
    },
    /// The planner proved no agreeing set-up exists for this fault set.
    Unavoidable,
    /// The bounded retry budget ran out (registry kept changing).
    RetryExhausted,
    /// The job panicked inside the worker; later rungs never ran.
    Panicked,
    /// The request's deadline had already passed at dequeue: it was
    /// shed without ever being planned or executed.
    DeadlineShed,
    /// The order's circuit breaker was open: the request was shed
    /// before planning.
    BreakerShed,
    /// The breaker was half-open and this request was admitted as the
    /// probe; its outcome decides whether the breaker re-closes.
    BreakerProbe,
    /// The chaos injector forced this request to fail (deterministic
    /// fault-burst testing; never fires unless chaos is armed).
    ChaosInjected,
    /// The request was canceled by `Engine::drain` or engine teardown
    /// before a worker served it.
    Canceled,
}

impl std::fmt::Display for LadderStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::CacheHit => write!(f, "cache-hit"),
            Self::CacheMiss => write!(f, "cache-miss"),
            Self::StaticValidated => write!(f, "static-validated"),
            Self::CacheEvicted => write!(f, "cache-evicted"),
            Self::Planned(tier) => write!(f, "planned({})", tier.name()),
            Self::Executed { ok: true } => write!(f, "executed(ok)"),
            Self::Executed { ok: false } => write!(f, "executed(misrouted)"),
            Self::FaultDetected => write!(f, "fault-detected"),
            Self::Healed => write!(f, "healed"),
            Self::Replanned { ok: true } => write!(f, "replanned(ok)"),
            Self::Replanned { ok: false } => write!(f, "replanned(failed)"),
            Self::Unavoidable => write!(f, "unavoidable"),
            Self::RetryExhausted => write!(f, "retry-exhausted"),
            Self::Panicked => write!(f, "panicked"),
            Self::DeadlineShed => write!(f, "deadline-shed"),
            Self::BreakerShed => write!(f, "breaker-shed"),
            Self::BreakerProbe => write!(f, "breaker-probe"),
            Self::ChaosInjected => write!(f, "chaos-injected"),
            Self::Canceled => write!(f, "canceled"),
        }
    }
}

/// Wall-clock nanoseconds spent in each phase of one route attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseNanos {
    /// Cache lookup plus (for hits) validation or replay.
    pub cache: u64,
    /// Fresh tier planning: zero-set-up routing passes that failed to
    /// classify the request, plus set-up.
    pub plan: u64,
    /// Executing and verifying the fresh plan (on a healthy fabric, for
    /// a zero-set-up request, the classifying pass that served it).
    pub execute: u64,
    /// The whole fault-reroute ladder, when it ran.
    pub reroute: u64,
    /// Submit → completion, queue wait included.
    pub total: u64,
}

/// One complete route attempt, as stored in the flight-recorder ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteAttempt {
    /// The request's 64-bit permutation fingerprint (the plan-cache
    /// key).
    pub fingerprint: u64,
    /// The permutation length (number of terminals requested).
    pub len: usize,
    /// The tenant namespace the request was tagged with, if any (set
    /// by the wire service; in-process submissions leave it `None`).
    pub tenant: Option<u64>,
    /// The final outcome; `None` only while the attempt is in flight.
    pub result: Option<Result<Tier, EngineError>>,
    /// Every decision rung, in order.
    pub ladder: Vec<LadderStep>,
    /// Per-phase wall-clock timings.
    pub phases: PhaseNanos,
    /// For failed attempts: the full per-stage trace of the failing
    /// plan over the fabric the worker executed on (faults applied).
    pub trace: Option<RouteTrace>,
}

impl RouteAttempt {
    /// A fresh in-flight record for the request with `fingerprint` and
    /// `len` terminals.
    #[must_use]
    pub fn new(fingerprint: u64, len: usize) -> Self {
        Self {
            fingerprint,
            len,
            tenant: None,
            result: None,
            ladder: Vec::new(),
            phases: PhaseNanos::default(),
            trace: None,
        }
    }

    /// Appends one ladder rung.
    pub fn step(&mut self, step: LadderStep) {
        self.ladder.push(step);
    }

    /// Whether the attempt ended in failure (in-flight counts as not
    /// failed).
    #[must_use]
    pub fn is_failure(&self) -> bool {
        matches!(self.result, Some(Err(_)))
    }

    /// A human-readable multi-line rendering: outcome, ladder, phase
    /// timings, and the full route trace for failures.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "route attempt: fingerprint {:#018x}, {} terminals",
            self.fingerprint, self.len
        ));
        if let Some(t) = self.tenant {
            out.push_str(&format!(", tenant {t}"));
        }
        out.push('\n');
        match &self.result {
            Some(Ok(tier)) => {
                out.push_str(&format!("  outcome: served by tier {}\n", tier.name()));
            }
            Some(Err(e)) => out.push_str(&format!("  outcome: FAILED — {e}\n")),
            None => out.push_str("  outcome: in flight\n"),
        }
        out.push_str("  ladder:  ");
        if self.ladder.is_empty() {
            out.push_str("(empty)");
        }
        for (i, step) in self.ladder.iter().enumerate() {
            if i > 0 {
                out.push_str(" -> ");
            }
            out.push_str(&step.to_string());
        }
        out.push('\n');
        out.push_str(&format!(
            "  phases (ns): cache {} / plan {} / execute {} / reroute {} / total {}\n",
            self.phases.cache,
            self.phases.plan,
            self.phases.execute,
            self.phases.reroute,
            self.phases.total
        ));
        if let Some(trace) = &self.trace {
            out.push_str("  failing-plan trace:\n");
            for line in render_trace(trace).lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_covers_outcome_ladder_and_phases() {
        let mut a = RouteAttempt::new(0xdead_beef, 8);
        a.step(LadderStep::CacheMiss);
        a.step(LadderStep::Planned(Tier::Waksman));
        a.step(LadderStep::Executed { ok: false });
        a.step(LadderStep::FaultDetected);
        a.step(LadderStep::Unavoidable);
        a.result = Some(Err(EngineError::Unroutable));
        a.phases = PhaseNanos { cache: 1, plan: 2, execute: 3, reroute: 4, total: 10 };
        assert!(a.is_failure());
        let text = a.render();
        assert!(text.contains("FAILED"));
        assert!(text.contains("cache-miss -> planned(waksman) -> executed(misrouted)"));
        assert!(text.contains("fault-detected -> unavoidable"));
        assert!(text.contains("total 10"));
    }

    #[test]
    fn successful_attempt_renders_its_tier() {
        let mut a = RouteAttempt::new(1, 16);
        a.step(LadderStep::CacheHit);
        a.result = Some(Ok(Tier::Cached));
        assert!(!a.is_failure());
        assert!(a.render().contains("served by tier cached"));
    }

    #[test]
    fn every_ladder_step_has_a_distinct_rendering() {
        let steps = [
            LadderStep::CacheHit,
            LadderStep::CacheMiss,
            LadderStep::StaticValidated,
            LadderStep::CacheEvicted,
            LadderStep::Planned(Tier::Factored),
            LadderStep::Executed { ok: true },
            LadderStep::Executed { ok: false },
            LadderStep::FaultDetected,
            LadderStep::Healed,
            LadderStep::Replanned { ok: true },
            LadderStep::Replanned { ok: false },
            LadderStep::Unavoidable,
            LadderStep::RetryExhausted,
            LadderStep::Panicked,
            LadderStep::DeadlineShed,
            LadderStep::BreakerShed,
            LadderStep::BreakerProbe,
            LadderStep::ChaosInjected,
            LadderStep::Canceled,
        ];
        let rendered: Vec<String> = steps.iter().map(ToString::to_string).collect();
        for (i, a) in rendered.iter().enumerate() {
            for b in &rendered[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
