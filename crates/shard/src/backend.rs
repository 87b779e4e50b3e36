//! The backend abstraction the coordinator scatters onto.
//!
//! PR 6's coordinator talked to a `Vec<Engine>` directly; this module
//! generalizes one shard into a [`Backend`]: *any* fault domain that
//! accepts a routing unit and guarantees it a terminal outcome.
//! Two implementations exist — [`LocalShard`] wraps an in-process
//! [`Engine`]; `RemoteShard` (see [`crate::remote`]) speaks the
//! benes-serve wire protocol to a separate process. The coordinator's
//! scatter/gather, degraded-mode accounting and fault-domain isolation
//! are identical over both, which is exactly the point: a dead
//! *process* degrades a permutation the same element-exact way a dark
//! in-process engine does.

use std::time::Instant;

use benes_engine::{Engine, EngineConfig, SubmitOpts, Ticket};
use benes_perm::Permutation;

/// One backend's lifecycle + resilience ledger.
///
/// The lifecycle half carries PR 6's conservation invariant per
/// backend (`completed + failed + shed + canceled == submitted`); the
/// resilience half counts what the remote transport had to do to get
/// there (always zero for a local backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendLedger {
    /// `"local"` or `"remote"` — the backend flavor, for labels.
    pub kind: &'static str,
    /// Units accepted by [`Backend::submit`].
    pub submitted: u64,
    /// Units routed and verified.
    pub completed: u64,
    /// Units terminally failed (including transport exhaustion).
    pub failed: u64,
    /// Units shed (deadline passed, breaker open).
    pub shed: u64,
    /// Units canceled by drain or teardown.
    pub canceled: u64,
    /// Re-sends of a unit after a transport failure or timeout.
    pub retries: u64,
    /// Units moved from an unreachable/breaker-open primary to the
    /// designated spare.
    pub failovers: u64,
    /// Duplicate sends racing the primary's tail latency on the spare.
    pub hedges: u64,
    /// Connections re-established after the first.
    pub reconnects: u64,
    /// The most recent health verdict (heartbeat probe for remote
    /// backends, always `true` for local ones).
    pub healthy: bool,
}

impl BackendLedger {
    /// A zeroed ledger for one backend flavor.
    #[must_use]
    pub fn zeroed(kind: &'static str, healthy: bool) -> Self {
        Self { kind, healthy, ..Self::default() }
    }

    /// The conservation invariant, exact at quiescence.
    #[must_use]
    pub fn conserves_requests(&self) -> bool {
        self.completed + self.failed + self.shed + self.canceled == self.submitted
    }
}

/// What one backend did with a drain request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendDrain {
    /// In-flight units resolved as canceled by the drain.
    pub canceled: u64,
    /// Whether the deadline passed before the backend acknowledged.
    pub timed_out: bool,
    /// Whether the backend could not be reached at all (remote only —
    /// a dead shard must not hang the fleet drain).
    pub unreachable: bool,
}

/// One routing fault domain the coordinator can scatter onto.
///
/// Implementations must guarantee that every submitted unit reaches a
/// terminal state (the returned [`Ticket`] always resolves) and that
/// the [`BackendLedger`] conserves at quiescence.
pub trait Backend: Send + Sync {
    /// A short human label (`engine#2`, `remote 127.0.0.1:9200`, …).
    fn describe(&self) -> String;

    /// Submits one routing unit. Never blocks on the unit itself;
    /// rejection or unavailability surface as an already-terminal
    /// ticket, not an error. A local shard hands out its engine's
    /// ticket; a remote shard's I/O thread answers through
    /// [`Ticket::channel`], with a latency that includes queueing, the
    /// wire, retries and failover.
    fn submit(&self, perm: Permutation, deadline: Option<Instant>) -> Ticket;

    /// This backend's lifecycle + resilience ledger.
    fn ledger(&self) -> BackendLedger;

    /// Drains the backend: in-flight units resolve (served or
    /// canceled) and the backend stops accepting work. Must return by
    /// `deadline` even when the backend is unreachable.
    fn drain(&self, deadline: Instant) -> BackendDrain;

    /// The in-process engine behind this backend, when there is one
    /// (fault injection and chaos arming need it; remote backends
    /// return `None`).
    fn engine(&self) -> Option<&Engine> {
        None
    }

    /// The backend's current health verdict.
    fn healthy(&self) -> bool {
        self.ledger().healthy
    }
}

/// The in-process backend: one [`Engine`], PR 6 semantics unchanged.
#[derive(Debug)]
pub struct LocalShard {
    engine: Engine,
}

impl LocalShard {
    /// Builds one engine shard from its own copy of `config`.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        Self { engine: Engine::new(config) }
    }
}

impl Backend for LocalShard {
    fn describe(&self) -> String {
        "local engine".to_string()
    }

    fn submit(&self, perm: Permutation, deadline: Option<Instant>) -> Ticket {
        // submit_opts resolves rejected admissions to canceled tickets
        // itself, so this never blocks gather.
        self.engine.submit_opts(perm, SubmitOpts { deadline, tenant: None })
    }

    fn ledger(&self) -> BackendLedger {
        let s = self.engine.stats();
        BackendLedger {
            submitted: s.submitted,
            completed: s.completed,
            failed: s.failed,
            shed: s.shed,
            canceled: s.canceled,
            ..BackendLedger::zeroed("local", true)
        }
    }

    fn drain(&self, deadline: Instant) -> BackendDrain {
        let report = self.engine.drain(deadline);
        BackendDrain {
            canceled: report.canceled,
            timed_out: report.timed_out,
            unreachable: false,
        }
    }

    fn engine(&self) -> Option<&Engine> {
        Some(&self.engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_shard_routes_and_conserves() {
        let shard = LocalShard::new(EngineConfig { workers: 2, ..EngineConfig::default() });
        let perm = benes_perm::Permutation::identity(8);
        let reply = shard.submit(perm, None).wait();
        assert!(reply.result.is_ok());
        let ledger = shard.ledger();
        assert_eq!(ledger.kind, "local");
        assert_eq!(ledger.submitted, 1);
        assert_eq!(ledger.completed, 1);
        assert!(ledger.conserves_requests());
        assert!(shard.healthy());
        assert!(shard.engine().is_some());
    }
}
