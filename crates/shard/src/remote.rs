//! The remote shard backend: one benes-serve process reached over the
//! wire protocol, wrapped in a full resilience layer.
//!
//! One background I/O thread owns the connections and all transport
//! state; [`RemoteShard::submit`] just enqueues a unit and hands back
//! a reply channel, so scatter never blocks on the network. The
//! resilience ladder, from cheapest to most drastic:
//!
//! 1. **Pipelining** — units are sent as they arrive and matched to
//!    replies by request id, so one slow unit never stalls the rest.
//! 2. **Timeouts** — connects are bounded by
//!    [`RemoteConfig::connect_timeout`]; a unit with no reply after
//!    [`RemoteConfig::request_timeout`] condemns its connection.
//! 3. **Retries** — a unit whose connection failed is re-sent, up to
//!    [`RemoteConfig::attempts`] transport attempts per endpoint,
//!    with reconnects paced by exponential backoff plus deterministic
//!    splitmix64 jitter (the `engine/breaker.rs` discipline).
//! 4. **Circuit breaker** — each endpoint keeps a
//!    [`benes_engine::Breaker`]: consecutive transport failures trip
//!    it open, after which units shed (or fail over) immediately
//!    instead of queueing behind a dead socket; a half-open probe
//!    re-closes it when the endpoint recovers.
//! 5. **Failover** — when the primary is unreachable or breaker-open,
//!    units move to the designated spare endpoint (counted in
//!    `benes_fleet_failovers_total`).
//! 6. **Hedging** — optionally, a unit still unanswered after
//!    [`RemoteConfig::hedge`] is *also* sent on the spare; the first
//!    reply wins and the loser is discarded by request-id matching.
//!
//! A separate prober thread heartbeats the primary with `Stats`
//! frames and publishes the verdict as the per-shard health gauge.
//!
//! Every unit reaches exactly one terminal state — completed, failed,
//! shed, or canceled — so the coordinator's conservation invariant
//! holds per remote shard exactly as it does per local engine.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use benes_engine::workload::Rng64;
use benes_engine::{Admission, Breaker, BreakerConfig, EngineError, Tier};
use benes_perm::Permutation;
use benes_serve::proto::{tier_from_code, Frame, Status};
use benes_serve::{Client, RecvError};

use crate::backend::{Backend, BackendDrain, BackendLedger, UnitReply, UnitTicket};

/// Tuning knobs for one [`RemoteShard`].
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// The primary benes-serve endpoint (`host:port`).
    pub addr: String,
    /// Optional spare endpoint for failover and hedging.
    pub spare: Option<String>,
    /// The tenant id this shard's units bill against on the server.
    pub tenant: u64,
    /// Bound on each TCP connect attempt.
    pub connect_timeout: Duration,
    /// A unit with no reply after this long condemns its connection
    /// (and is retried or failed over).
    pub request_timeout: Duration,
    /// Transport attempts per unit per endpoint (first send included).
    pub attempts: u32,
    /// The per-endpoint circuit breaker over transport failures.
    pub breaker: BreakerConfig,
    /// Base pause before a reconnect attempt; doubles per consecutive
    /// failure up to [`RemoteConfig::reconnect_max`], plus up to 25%
    /// deterministic splitmix64 jitter.
    pub reconnect_base: Duration,
    /// Cap on the reconnect backoff.
    pub reconnect_max: Duration,
    /// Seed for the reconnect jitter (xor-ed with the shard index).
    pub jitter_seed: u64,
    /// When set, a unit unanswered by the primary for this long is
    /// also sent on the spare (tail-latency hedging).
    pub hedge: Option<Duration>,
    /// How often the prober heartbeats the primary with a `Stats`
    /// frame.
    pub probe_interval: Duration,
}

impl RemoteConfig {
    /// A config for `addr` with production-shaped defaults: 1s
    /// connect/2s request timeouts, 3 transport attempts, a 3-failure
    /// breaker, no spare, no hedging.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            spare: None,
            tenant: 0,
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(2),
            attempts: 3,
            breaker: BreakerConfig {
                failure_threshold: 3,
                base_backoff: Duration::from_millis(20),
                max_backoff: Duration::from_secs(1),
                jitter_seed: 0xf1ee_75eed,
            },
            reconnect_base: Duration::from_millis(10),
            reconnect_max: Duration::from_millis(500),
            jitter_seed: 0x5eed_0f1e,
            hedge: None,
            probe_interval: Duration::from_millis(100),
        }
    }
}

/// Monotonic transport counters shared between the I/O thread, the
/// prober, and ledger snapshots. Increments are statement-position
/// relaxed bumps read at quiescence — the same discipline as the
/// engine's stats recorder.
#[derive(Debug, Default)]
struct Shared {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    canceled: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    hedges: AtomicU64,
    reconnects: AtomicU64,
    healthy: AtomicBool,
    stop: AtomicBool,
}

impl Shared {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn account(&self, result: &Result<Tier, EngineError>) {
        match result {
            Ok(_) => Self::bump(&self.completed),
            Err(EngineError::DeadlineExceeded | EngineError::BreakerOpen) => {
                Self::bump(&self.shed);
            }
            Err(EngineError::Canceled) => Self::bump(&self.canceled),
            Err(_) => Self::bump(&self.failed),
        }
    }
}

/// A unit's reply channel. [`UnitTx::send`] books the reply in the
/// ledger; a unit dropped unanswered (still queued when the I/O thread
/// exits after a drain, or refused because it already has) is booked as
/// canceled, and its ticket resolves `Canceled` through the disconnect.
/// Either way every submitted unit reaches exactly one terminal state.
struct UnitTx {
    tx: Option<mpsc::Sender<UnitReply>>,
    shared: Arc<Shared>,
}

impl UnitTx {
    fn send(mut self, reply: UnitReply) {
        self.shared.account(&reply.result);
        if let Some(tx) = self.tx.take() {
            // analyze:allow(discarded-result): the caller may have dropped its ticket
            let _ = tx.send(reply);
        }
    }
}

impl Drop for UnitTx {
    fn drop(&mut self) {
        if self.tx.is_some() {
            Shared::bump(&self.shared.canceled);
        }
    }
}

/// A job for the I/O thread.
enum Job {
    Unit { perm: Permutation, deadline: Option<Instant>, tx: UnitTx },
    Drain { deadline: Instant, tx: mpsc::Sender<BackendDrain> },
}

/// One benes-serve process as a coordinator [`Backend`].
#[derive(Debug)]
pub struct RemoteShard {
    addr: String,
    jobs: mpsc::Sender<Job>,
    shared: Arc<Shared>,
    io: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl RemoteShard {
    /// Spawns the I/O and prober threads for one remote shard. The
    /// shard index seeds the jitter so a fleet's backoffs decorrelate
    /// deterministically.
    #[must_use]
    pub fn new(config: RemoteConfig, shard: usize) -> Self {
        let shared = Arc::new(Shared::default());
        // Optimistic until the first probe lands: a fleet that has not
        // been probed yet should not report dead shards.
        shared.healthy.store(true, Ordering::Release);
        let (jobs_tx, jobs_rx) = mpsc::channel();
        let addr = config.addr.clone();
        let io = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            std::thread::spawn(move || IoThread::new(config, shard, shared).run(&jobs_rx))
        };
        let prober = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            std::thread::spawn(move || probe_loop(&config, &shared))
        };
        Self { addr, jobs: jobs_tx, shared, io: Some(io), prober: Some(prober) }
    }
}

impl Backend for RemoteShard {
    fn describe(&self) -> String {
        format!("remote {}", self.addr)
    }

    fn submit(&self, perm: Permutation, deadline: Option<Instant>) -> UnitTicket {
        Shared::bump(&self.shared.submitted);
        let (tx, rx) = mpsc::channel();
        let tx = UnitTx { tx: Some(tx), shared: Arc::clone(&self.shared) };
        match self.jobs.send(Job::Unit { perm, deadline, tx }) {
            Ok(()) => UnitTicket::remote(rx),
            // The I/O thread is gone (drained or torn down): terminal
            // immediately, and the refused job books itself canceled.
            Err(_) => UnitTicket::ready(Err(EngineError::Canceled), Duration::ZERO),
        }
    }

    fn ledger(&self) -> BackendLedger {
        let s = &self.shared;
        BackendLedger {
            kind: "remote",
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            canceled: s.canceled.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            failovers: s.failovers.load(Ordering::Relaxed),
            hedges: s.hedges.load(Ordering::Relaxed),
            reconnects: s.reconnects.load(Ordering::Relaxed),
            healthy: s.healthy.load(Ordering::Acquire),
        }
    }

    fn drain(&self, deadline: Instant) -> BackendDrain {
        let (tx, rx) = mpsc::channel();
        if self.jobs.send(Job::Drain { deadline, tx }).is_err() {
            // Already drained or torn down: nothing in flight.
            return BackendDrain { canceled: 0, timed_out: false, unreachable: false };
        }
        let budget = deadline.saturating_duration_since(Instant::now());
        // Headroom over the I/O thread's own deadline handling so a
        // well-behaved drain is reported as such.
        rx.recv_timeout(budget + Duration::from_secs(1)).unwrap_or(BackendDrain {
            canceled: 0,
            timed_out: true,
            unreachable: true,
        })
    }

    fn healthy(&self) -> bool {
        self.shared.healthy.load(Ordering::Acquire)
    }
}

impl Drop for RemoteShard {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(io) = self.io.take() {
            // analyze:allow(discarded-result): a panicked I/O thread leaves nothing to join
            let _ = io.join();
        }
        if let Some(prober) = self.prober.take() {
            // analyze:allow(discarded-result): a panicked prober leaves nothing to join
            let _ = prober.join();
        }
    }
}

/// Heartbeats the primary with `Stats` frames and publishes the
/// verdict. A fresh connection per probe means the heartbeat also
/// exercises connectability — exactly what failover cares about.
fn probe_loop(config: &RemoteConfig, shared: &Shared) {
    while !shared.stop.load(Ordering::Acquire) {
        let verdict = probe_once(config);
        shared.healthy.store(verdict, Ordering::Release);
        // Sleep in small slices so teardown never waits a full
        // interval.
        let until = Instant::now() + config.probe_interval;
        while Instant::now() < until {
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn probe_once(config: &RemoteConfig) -> bool {
    let Ok(mut client) = Client::connect_timeout(&config.addr, config.connect_timeout)
    else {
        return false;
    };
    if client.set_read_timeout(Some(config.request_timeout)).is_err() {
        return false;
    }
    if client.send(&Frame::Stats).is_err() {
        return false;
    }
    matches!(client.recv(), Ok(Frame::StatsReply { .. }))
}

/// Endpoint index: primary first, spare second.
const PRIMARY: usize = 0;
const SPARE: usize = 1;

/// One endpoint's connection + pacing state.
struct Endpoint {
    addr: Option<String>,
    conn: Option<Client>,
    breaker: Breaker,
    /// The next breaker verdict to report carries the probe flag.
    probe_pending: bool,
    /// Consecutive connect failures (drives the reconnect backoff).
    connect_streak: u32,
    not_before: Instant,
    jitter: Rng64,
    /// Units queued for (re)send on this endpoint.
    sendq: VecDeque<u64>,
    /// Outstanding request ids on the **current** connection.
    inflight: u64,
}

impl Endpoint {
    fn exists(&self) -> bool {
        self.addr.is_some()
    }
}

/// One unit in flight inside the I/O thread.
struct Pending {
    perm: Permutation,
    deadline: Option<Instant>,
    reply: UnitTx,
    started: Instant,
    /// Transport attempts left on the current owner endpoint.
    attempts_left: u32,
    /// Current owner endpoint.
    owner: usize,
    failed_over: bool,
    hedged: bool,
    /// Outstanding request id per endpoint.
    req: [Option<u64>; 2],
    sent_at: Option<Instant>,
    /// A losing (non-Ok) reply parked while a hedge twin is still out.
    fallback: Option<UnitReply>,
}

struct IoThread {
    cfg: RemoteConfig,
    shared: Arc<Shared>,
    endpoints: [Endpoint; 2],
    units: HashMap<u64, Pending>,
    by_req: HashMap<u64, u64>,
    next_unit: u64,
    next_req: u64,
}

impl IoThread {
    fn new(cfg: RemoteConfig, shard: usize, shared: Arc<Shared>) -> Self {
        let endpoint = |addr: Option<String>, index: usize| {
            let order = u32::try_from(shard * 2 + index).unwrap_or(u32::MAX);
            Endpoint {
                addr,
                conn: None,
                breaker: Breaker::new(cfg.breaker.clone(), order),
                probe_pending: false,
                connect_streak: 0,
                not_before: Instant::now(),
                jitter: Rng64::new(
                    cfg.jitter_seed ^ (shard as u64) ^ ((index as u64) << 32),
                ),
                sendq: VecDeque::new(),
                inflight: 0,
            }
        };
        let endpoints =
            [endpoint(Some(cfg.addr.clone()), PRIMARY), endpoint(cfg.spare.clone(), SPARE)];
        Self {
            cfg,
            shared,
            endpoints,
            units: HashMap::new(),
            by_req: HashMap::new(),
            next_unit: 0,
            next_req: 0,
        }
    }

    fn run(mut self, jobs: &mpsc::Receiver<Job>) {
        loop {
            if self.shared.stop.load(Ordering::Acquire) {
                self.cancel_all();
                return;
            }
            match self.ingest(jobs) {
                Ingest::Continue => {}
                Ingest::Drained | Ingest::Disconnected => {
                    self.cancel_all();
                    return;
                }
            }
            for e in [PRIMARY, SPARE] {
                self.pump_sends(e);
            }
            for e in [PRIMARY, SPARE] {
                self.pump_recvs(e);
            }
            self.scan_time();
            // Units queued but nothing on the wire means every viable
            // endpoint is inside its reconnect backoff: sleep a tick
            // instead of spinning on the gate.
            if !self.units.is_empty() && self.endpoints.iter().all(|ep| ep.inflight == 0) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Pulls jobs from the channel; blocks briefly when fully idle so
    /// the loop does not spin.
    fn ingest(&mut self, jobs: &mpsc::Receiver<Job>) -> Ingest {
        let idle = self.units.is_empty();
        let first = if idle {
            match jobs.recv_timeout(Duration::from_millis(10)) {
                Ok(job) => Some(job),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => return Ingest::Disconnected,
            }
        } else {
            None
        };
        let mut take = |job: Job| -> Option<Ingest> {
            match job {
                Job::Unit { perm, deadline, tx } => {
                    self.admit_unit(perm, deadline, tx);
                    None
                }
                Job::Drain { deadline, tx } => {
                    self.drain(deadline, &tx);
                    Some(Ingest::Drained)
                }
            }
        };
        if let Some(job) = first {
            if let Some(outcome) = take(job) {
                return outcome;
            }
        }
        loop {
            match jobs.try_recv() {
                Ok(job) => {
                    if let Some(outcome) = take(job) {
                        return outcome;
                    }
                }
                Err(mpsc::TryRecvError::Empty) => return Ingest::Continue,
                Err(mpsc::TryRecvError::Disconnected) => return Ingest::Disconnected,
            }
        }
    }

    /// Places a fresh unit on an endpoint, applying the breaker's
    /// admission verdict: an open primary fails over immediately, and
    /// with nowhere to go the unit sheds the way an engine breaker
    /// sheds — typed, instant, conserved.
    fn admit_unit(&mut self, perm: Permutation, deadline: Option<Instant>, reply: UnitTx) {
        let id = self.next_unit;
        self.next_unit += 1;
        let now = Instant::now();
        let mut unit = Pending {
            perm,
            deadline,
            reply,
            started: now,
            attempts_left: self.cfg.attempts.max(1),
            owner: PRIMARY,
            failed_over: false,
            hedged: false,
            req: [None, None],
            sent_at: None,
            fallback: None,
        };
        match self.admit_on(PRIMARY, now) {
            Some(()) => {
                self.units.insert(id, unit);
                self.endpoints[PRIMARY].sendq.push_back(id);
            }
            None => {
                if self.endpoints[SPARE].exists() && self.admit_on(SPARE, now).is_some() {
                    Shared::bump(&self.shared.failovers);
                    unit.owner = SPARE;
                    unit.failed_over = true;
                    self.units.insert(id, unit);
                    self.endpoints[SPARE].sendq.push_back(id);
                } else {
                    unit.reply.send(UnitReply {
                        result: Err(EngineError::BreakerOpen),
                        latency: now.saturating_duration_since(unit.started),
                    });
                }
            }
        }
    }

    /// The breaker's admission verdict for endpoint `e`: `Some(())`
    /// serves (marking the probe slot when half-open), `None` sheds.
    fn admit_on(&mut self, e: usize, now: Instant) -> Option<()> {
        match self.endpoints[e].breaker.admit(now) {
            Admission::Serve => Some(()),
            Admission::Probe => {
                self.endpoints[e].probe_pending = true;
                Some(())
            }
            Admission::Shed => None,
        }
    }

    /// Sends every queued unit on endpoint `e` that the connection and
    /// pacing allow.
    fn pump_sends(&mut self, e: usize) {
        if self.endpoints[e].sendq.is_empty() {
            return;
        }
        let now = Instant::now();
        if self.endpoints[e].conn.is_none()
            && (now < self.endpoints[e].not_before || !self.connect(e, now))
        {
            return;
        }
        while let Some(id) = self.endpoints[e].sendq.pop_front() {
            let Some(unit) = self.units.get_mut(&id) else { continue };
            if let Some(dl) = unit.deadline {
                if now >= dl {
                    self.resolve(id, Err(EngineError::DeadlineExceeded));
                    continue;
                }
            }
            let req_id = self.next_req;
            self.next_req += 1;
            let unit = self.units.get_mut(&id).expect("checked above");
            let deadline_ms = unit
                .deadline
                .map(|dl| {
                    let ms = dl.saturating_duration_since(now).as_millis();
                    u32::try_from(ms).unwrap_or(u32::MAX).max(1)
                })
                .unwrap_or(0);
            let frame = Frame::Route {
                req_id,
                tenant: self.cfg.tenant,
                deadline_ms,
                destinations: unit.perm.destinations().to_vec(),
            };
            unit.req[e] = Some(req_id);
            if unit.owner == e {
                unit.sent_at = Some(now);
            }
            self.by_req.insert(req_id, id);
            self.endpoints[e].inflight += 1;
            let conn = self.endpoints[e].conn.as_mut().expect("connected above");
            if conn.send(&frame).is_err() {
                self.endpoint_failed(e, now);
                return;
            }
        }
    }

    /// Drains every reply currently available on endpoint `e`.
    fn pump_recvs(&mut self, e: usize) {
        if self.endpoints[e].inflight == 0 {
            return;
        }
        loop {
            let Some(conn) = self.endpoints[e].conn.as_mut() else { return };
            // analyze:allow(discarded-result): a failing setsockopt surfaces as a recv error
            let _ = conn.set_read_timeout(Some(Duration::from_millis(1)));
            match conn.recv() {
                Ok(Frame::RouteReply { req_id, status, tier, .. }) => {
                    if self.endpoints[e].probe_pending {
                        self.endpoints[e].probe_pending = false;
                        // analyze:allow(discarded-result): re-close edge is implicit in state()
                        let _ = self.endpoints[e].breaker.on_success(true);
                    } else {
                        // analyze:allow(discarded-result): non-probe successes cannot re-close
                        let _ = self.endpoints[e].breaker.on_success(false);
                    }
                    self.endpoints[e].connect_streak = 0;
                    self.endpoints[e].inflight =
                        self.endpoints[e].inflight.saturating_sub(1);
                    self.reply_arrived(e, req_id, status, tier);
                }
                Ok(_) => {} // stats or error frames: not unit-scoped
                Err(RecvError::Timeout) => return,
                Err(_) => {
                    self.endpoint_failed(e, Instant::now());
                    return;
                }
            }
        }
    }

    /// Routes one wire reply to its unit (stale request ids — hedge
    /// losers, expired deadlines — are discarded here).
    fn reply_arrived(&mut self, e: usize, req_id: u64, status: Status, tier: Option<u8>) {
        let Some(id) = self.by_req.remove(&req_id) else { return };
        let Some(unit) = self.units.get_mut(&id) else { return };
        unit.req[e] = None;
        let twin_out = unit.req[1 - e].is_some();
        let result = match status {
            Status::Ok => tier.and_then(tier_from_code).ok_or(EngineError::Unavailable),
            Status::Shed => Err(EngineError::DeadlineExceeded),
            Status::BreakerOpen => Err(EngineError::BreakerOpen),
            Status::Draining => Err(EngineError::Canceled),
            // Overload or server-side fabric failure: candidates for
            // failover rather than immediate resolution.
            Status::Rejected | Status::QuotaExceeded | Status::Failed => {
                Err(EngineError::FaultDetected)
            }
            Status::PlanError | Status::BadRequest => Err(EngineError::Unavailable),
        };
        let retryable = matches!(
            status,
            Status::Rejected | Status::QuotaExceeded | Status::Failed | Status::BreakerOpen
        );
        if result.is_ok() {
            self.resolve(id, result);
            return;
        }
        // A failure with a hedge twin still out: park it and let the
        // twin decide.
        if twin_out {
            let unit = self.units.get_mut(&id).expect("still pending");
            unit.fallback = Some(UnitReply { result, latency: unit.started.elapsed() });
            return;
        }
        // Primary said "overloaded/broken" and the spare is untried:
        // fail the unit over instead of surfacing the failure.
        if retryable
            && e == PRIMARY
            && !self.units[&id].failed_over
            && self.endpoints[SPARE].exists()
            && self.admit_on(SPARE, Instant::now()).is_some()
        {
            Shared::bump(&self.shared.failovers);
            let unit = self.units.get_mut(&id).expect("still pending");
            unit.owner = SPARE;
            unit.failed_over = true;
            unit.attempts_left = self.cfg.attempts.max(1);
            unit.sent_at = None;
            self.endpoints[SPARE].sendq.push_back(id);
            return;
        }
        self.resolve(id, result);
    }

    /// Establishes endpoint `e`'s connection, reporting the verdict to
    /// the breaker and pacing the next attempt on failure.
    fn connect(&mut self, e: usize, now: Instant) -> bool {
        let Some(addr) = self.endpoints[e].addr.clone() else { return false };
        match Client::connect_timeout(&addr, self.cfg.connect_timeout) {
            Ok(conn) => {
                // Streak > 0 means a previous connection (or connect
                // attempt) failed: this one is a *re*connect.
                if self.endpoints[e].connect_streak > 0 {
                    Shared::bump(&self.shared.reconnects);
                }
                self.endpoints[e].conn = Some(conn);
                self.endpoints[e].connect_streak = 0;
                self.endpoints[e].inflight = 0;
                true
            }
            Err(_) => {
                self.endpoint_failed(e, now);
                false
            }
        }
    }

    /// One transport failure on endpoint `e`: drop the connection,
    /// advance the breaker, pace the next connect, and charge every
    /// unit that was riding this endpoint one attempt.
    fn endpoint_failed(&mut self, e: usize, now: Instant) {
        self.endpoints[e].conn = None;
        self.endpoints[e].inflight = 0;
        let probe = std::mem::take(&mut self.endpoints[e].probe_pending);
        // analyze:allow(discarded-result): the open edge is observable via state()
        let _ = self.endpoints[e].breaker.on_failure(probe, now);
        let streak = self.endpoints[e].connect_streak.saturating_add(1);
        self.endpoints[e].connect_streak = streak;
        let exp = streak.saturating_sub(1).min(16);
        let backoff = (self.cfg.reconnect_base.as_nanos() << exp)
            .min(self.cfg.reconnect_max.as_nanos());
        let backoff = u64::try_from(backoff).unwrap_or(u64::MAX);
        let jitter = self.endpoints[e].jitter.below(backoff / 4 + 1);
        self.endpoints[e].not_before =
            now + Duration::from_nanos(backoff.saturating_add(jitter));

        // Every unit with a request outstanding here, plus everything
        // still queued, just lost an attempt.
        let affected: Vec<u64> = self
            .units
            .iter()
            .filter(|(_, u)| u.req[e].is_some())
            .map(|(id, _)| *id)
            .chain(self.endpoints[e].sendq.drain(..))
            .collect();
        for id in affected {
            self.charge_attempt(id, e);
        }
    }

    /// Charges unit `id` one failed transport attempt on endpoint `e`:
    /// retry, fail over, or resolve.
    fn charge_attempt(&mut self, id: u64, e: usize) {
        let Some(unit) = self.units.get_mut(&id) else { return };
        if let Some(req) = unit.req[e].take() {
            self.by_req.remove(&req);
        }
        let unit = self.units.get_mut(&id).expect("still pending");
        // A hedged unit whose other copy is still in flight just rides
        // the twin: no attempt charged, no failure surfaced.
        if unit.req[1 - e].is_some() {
            unit.owner = 1 - e;
            unit.sent_at = Some(Instant::now());
            return;
        }
        if unit.owner != e {
            // The failure hit an endpoint the unit no longer rides.
            return;
        }
        unit.attempts_left = unit.attempts_left.saturating_sub(1);
        if unit.attempts_left > 0 {
            Shared::bump(&self.shared.retries);
            unit.sent_at = None;
            self.endpoints[e].sendq.push_back(id);
            return;
        }
        if e == PRIMARY && !unit.failed_over && self.endpoints[SPARE].exists() {
            Shared::bump(&self.shared.failovers);
            unit.owner = SPARE;
            unit.failed_over = true;
            unit.attempts_left = self.cfg.attempts.max(1);
            unit.sent_at = None;
            self.endpoints[SPARE].sendq.push_back(id);
            return;
        }
        self.resolve(id, Err(EngineError::Unavailable));
    }

    /// Deadline, request-timeout and hedge scans.
    fn scan_time(&mut self) {
        let now = Instant::now();
        // Local deadlines: a unit whose deadline passed resolves shed,
        // no matter what the wire is doing.
        let expired: Vec<u64> = self
            .units
            .iter()
            .filter(|(_, u)| u.deadline.is_some_and(|dl| now >= dl))
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            self.resolve(id, Err(EngineError::DeadlineExceeded));
        }
        // Request timeouts: a silent connection is a dead connection.
        for e in [PRIMARY, SPARE] {
            let stuck = self.units.values().any(|u| {
                u.req[e].is_some()
                    && u.sent_at.is_some_and(|at| {
                        now.saturating_duration_since(at) >= self.cfg.request_timeout
                    })
            });
            if stuck && self.endpoints[e].conn.is_some() {
                self.endpoint_failed(e, now);
            }
        }
        // Hedging: units still waiting on the primary past the hedge
        // delay get a twin on the spare.
        let Some(hedge) = self.cfg.hedge else { return };
        if !self.endpoints[SPARE].exists() {
            return;
        }
        let candidates: Vec<u64> = self
            .units
            .iter()
            .filter(|(_, u)| {
                !u.hedged
                    && u.owner == PRIMARY
                    && u.req[PRIMARY].is_some()
                    && u.req[SPARE].is_none()
                    && u.sent_at
                        .is_some_and(|at| now.saturating_duration_since(at) >= hedge)
            })
            .map(|(id, _)| *id)
            .collect();
        for id in candidates {
            if self.admit_on(SPARE, now).is_none() {
                break;
            }
            Shared::bump(&self.shared.hedges);
            let unit = self.units.get_mut(&id).expect("candidate is pending");
            unit.hedged = true;
            self.endpoints[SPARE].sendq.push_back(id);
        }
    }

    /// Resolves unit `id` with `result` (preferring a parked hedge
    /// fallback only if `result` itself is a failure), removing every
    /// outstanding request id.
    fn resolve(&mut self, id: u64, result: Result<Tier, EngineError>) {
        let Some(unit) = self.units.remove(&id) else { return };
        for req in unit.req.into_iter().flatten() {
            self.by_req.remove(&req);
        }
        for e in [PRIMARY, SPARE] {
            self.endpoints[e].sendq.retain(|queued| *queued != id);
        }
        let result = match (&result, unit.fallback) {
            // The twin already failed and this arm failed too: either
            // order, the parked arm cannot improve an Ok.
            (Err(_), Some(parked)) => parked.result,
            _ => result,
        };
        unit.reply.send(UnitReply { result, latency: unit.started.elapsed() });
    }

    /// Terminal cancel of everything pending (teardown path).
    fn cancel_all(&mut self) {
        let ids: Vec<u64> = self.units.keys().copied().collect();
        for id in ids {
            self.resolve(id, Err(EngineError::Canceled));
        }
    }

    /// Fleet drain: best-effort `Drain` frame to the primary, wait for
    /// its `StatsReply` ack, then cancel everything still pending.
    fn drain(&mut self, deadline: Instant, tx: &mpsc::Sender<BackendDrain>) {
        let mut unreachable = false;
        let mut timed_out = false;
        let now = Instant::now();
        if self.endpoints[PRIMARY].conn.is_none() {
            // One bounded connect attempt — a dead shard must not hang
            // the fleet drain.
            if let Some(addr) = self.endpoints[PRIMARY].addr.clone() {
                match Client::connect_timeout(&addr, self.cfg.connect_timeout) {
                    Ok(conn) => self.endpoints[PRIMARY].conn = Some(conn),
                    Err(_) => unreachable = true,
                }
            }
            // Keep `now` honest even though connect_timeout bounds it.
            timed_out = Instant::now() > deadline && !unreachable;
        }
        if let Some(conn) = self.endpoints[PRIMARY].conn.as_mut() {
            if conn.send(&Frame::Drain).is_err() {
                unreachable = true;
            } else {
                // Wait for the StatsReply ack, discarding in-flight
                // RouteReplies (their units cancel below either way).
                loop {
                    let budget = deadline.saturating_duration_since(Instant::now());
                    if budget.is_zero() {
                        timed_out = true;
                        break;
                    }
                    // analyze:allow(discarded-result): a failing setsockopt surfaces as a recv error
                    let _ =
                        conn.set_read_timeout(Some(budget.min(Duration::from_millis(50))));
                    match conn.recv() {
                        Ok(Frame::StatsReply { .. }) => break,
                        Ok(_) => {}
                        Err(RecvError::Timeout) => {
                            if Instant::now() >= deadline {
                                timed_out = true;
                                break;
                            }
                        }
                        Err(_) => {
                            unreachable = true;
                            break;
                        }
                    }
                }
            }
        }
        let canceled = u64::try_from(self.units.len()).unwrap_or(u64::MAX);
        self.cancel_all();
        // analyze:allow(discarded-result): the drain caller may have timed out and gone
        let _ = tx.send(BackendDrain { canceled, timed_out, unreachable });
        let _ = now;
    }
}

/// Why [`IoThread::ingest`] returned.
enum Ingest {
    Continue,
    Drained,
    Disconnected,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_unit_reply_channel_books_exactly_one_terminal_state() {
        // A unit still queued when the I/O thread exits is dropped with
        // the job channel: it must reach the ledger as canceled and its
        // ticket must resolve, or the shard stops conserving requests.
        let shared = Arc::new(Shared::default());
        let (tx, rx) = mpsc::channel();
        drop(UnitTx { tx: Some(tx), shared: Arc::clone(&shared) });
        assert_eq!(UnitTicket::remote(rx).wait().result, Err(EngineError::Canceled));
        assert_eq!(shared.canceled.load(Ordering::Relaxed), 1);

        // An answered unit is booked once, by its reply.
        let (tx, rx) = mpsc::channel();
        UnitTx { tx: Some(tx), shared: Arc::clone(&shared) }
            .send(UnitReply { result: Ok(Tier::Waksman), latency: Duration::ZERO });
        assert_eq!(UnitTicket::remote(rx).wait().result, Ok(Tier::Waksman));
        assert_eq!(shared.completed.load(Ordering::Relaxed), 1);
        assert_eq!(shared.canceled.load(Ordering::Relaxed), 1);
    }
}
