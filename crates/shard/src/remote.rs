//! The remote shard backend: one benes-serve process reached over the
//! wire protocol, wrapped in a full resilience layer.
//!
//! One background I/O thread owns the connections and all transport
//! state; [`RemoteShard::submit`] just enqueues a unit and hands back
//! a ticket, so scatter never blocks on the network. The I/O thread
//! blocks on one channel fed by callers and by a reader thread per
//! connection, until the earliest timer it owns. The resilience
//! ladder, from cheapest to most drastic:
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
//! frames every [`RemoteConfig::probe_interval`] and publishes the
//! verdict as the per-shard health gauge.
//!
//! Every unit reaches exactly one terminal state — completed, failed,
//! shed, or canceled — so the coordinator's conservation invariant
//! holds per remote shard exactly as it does per local engine.

use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use benes_engine::workload::Rng64;
use benes_engine::{
    Admission, Breaker, BreakerConfig, EngineError, RequestOutcome, Ticket, Tier,
};
use benes_perm::Permutation;
use benes_serve::proto::{tier_from_code, Frame, Status};
use benes_serve::{Client, RecvError};

use crate::backend::{Backend, BackendDrain, BackendLedger};

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
/// canceled and its ticket resolves `Canceled`. Either way every
/// submitted unit reaches exactly one terminal state.
struct UnitTx {
    tx: Option<mpsc::Sender<RequestOutcome>>,
    shared: Arc<Shared>,
}

impl UnitTx {
    fn send(mut self, reply: RequestOutcome) {
        self.shared.account(&reply.result);
        if let Some(tx) = self.tx.take() {
            // analyze:allow(discarded-result): the caller may have dropped its ticket
            let _ = tx.send(reply);
        }
    }
}

impl Drop for UnitTx {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            Shared::bump(&self.shared.canceled);
            // analyze:allow(discarded-result): the caller may have dropped its ticket
            let _ = tx.send(RequestOutcome {
                result: Err(EngineError::Canceled),
                latency: Duration::ZERO,
            });
        }
    }
}

/// Everything that wakes the I/O thread.
enum Event {
    Unit { perm: Permutation, deadline: Option<Instant>, tx: UnitTx },
    // One frame read off endpoint `ep`'s connection number `conn`.
    Reply { ep: usize, conn: u64, frame: Frame },
    // That connection's reader stopped: EOF, socket or wire error.
    Lost { ep: usize, conn: u64 },
    // Cancel every pending unit and exit; a drain hears how many.
    Stop(Option<mpsc::Sender<u64>>),
}

/// One benes-serve process as a coordinator [`Backend`].
#[derive(Debug)]
pub struct RemoteShard {
    addr: String,
    events: mpsc::Sender<Event>,
    shared: Arc<Shared>,
    connect_timeout: Duration,
    io: Option<JoinHandle<()>>,
    /// Dropping it stops the prober.
    stop_prober: Option<mpsc::Sender<()>>,
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
        let (events, events_rx) = mpsc::channel();
        let addr = config.addr.clone();
        let io = {
            let io =
                IoThread::new(config.clone(), shard, Arc::clone(&shared), events.clone());
            std::thread::spawn(move || io.run(&events_rx))
        };
        let (stop_prober, stop) = mpsc::channel();
        let prober = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            std::thread::spawn(move || probe_loop(&config, &shared, &stop))
        };
        Self {
            addr,
            events,
            shared,
            connect_timeout: config.connect_timeout,
            io: Some(io),
            stop_prober: Some(stop_prober),
            prober: Some(prober),
        }
    }
}

impl Backend for RemoteShard {
    fn describe(&self) -> String {
        format!("remote {}", self.addr)
    }

    fn submit(&self, perm: Permutation, deadline: Option<Instant>) -> Ticket {
        Shared::bump(&self.shared.submitted);
        let (tx, ticket) = Ticket::channel();
        let tx = UnitTx { tx: Some(tx), shared: Arc::clone(&self.shared) };
        // If the I/O thread is gone (drained or torn down), the refused
        // unit drops here and resolves its ticket canceled.
        // analyze:allow(discarded-result): the refused unit answers itself
        let _ = self.events.send(Event::Unit { perm, deadline, tx });
        ticket
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
        if self.events.send(Event::Stop(Some(tx))).is_err() {
            // Already drained or torn down: nothing in flight.
            return BackendDrain::default();
        }
        // The I/O thread may be inside a bounded connect to each endpoint
        // when the drain arrives.
        let Ok(canceled) = rx.recv_timeout(2 * self.connect_timeout) else {
            return BackendDrain { canceled: 0, timed_out: true, unreachable: true };
        };
        // Then the server drains, asked over a fresh connection as the
        // prober asks for stats; a dead shard fails the bounded connect.
        let ack = Client::connect_timeout(&self.addr, self.connect_timeout)
            .and_then(|mut c| c.send(&Frame::Drain).map(|()| c))
            .map_err(RecvError::Io)
            .and_then(|mut c| {
                // A zero read timeout is refused: the deadline has passed.
                let left = deadline.saturating_duration_since(Instant::now());
                c.set_read_timeout(Some(left)).map_err(|_| RecvError::Timeout)?;
                c.recv()
            });
        let timed_out = matches!(ack, Err(RecvError::Timeout));
        let unreachable = !timed_out && !matches!(ack, Ok(Frame::StatsReply { .. }));
        BackendDrain { canceled, timed_out, unreachable }
    }

    fn healthy(&self) -> bool {
        self.shared.healthy.load(Ordering::Acquire)
    }
}

impl Drop for RemoteShard {
    fn drop(&mut self) {
        // analyze:allow(discarded-result): an exited I/O thread needs no stop
        let _ = self.events.send(Event::Stop(None));
        self.stop_prober.take();
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
/// Between probes it waits on `stop`, which disconnects the moment the
/// shard is dropped, so teardown never waits out an interval.
fn probe_loop(config: &RemoteConfig, shared: &Shared, stop: &mpsc::Receiver<()>) {
    loop {
        shared.healthy.store(probe_once(config), Ordering::Release);
        if stop.recv_timeout(config.probe_interval) != Err(mpsc::RecvTimeoutError::Timeout)
        {
            return;
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
    /// The write half; a reader thread owns the read half.
    conn: Option<Client>,
    /// The number of the current (or next) connection; bumped at each
    /// hang-up, so events from a dropped connection are stale.
    conn_id: u64,
    breaker: Breaker,
    /// The next breaker verdict to report carries the probe flag.
    probe_pending: bool,
    /// Consecutive connect failures (drives the reconnect backoff).
    connect_streak: u32,
    not_before: Instant,
    jitter: Rng64,
    /// Units queued for (re)send on this endpoint.
    sendq: VecDeque<u64>,
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
    fallback: Option<RequestOutcome>,
}

impl Pending {
    /// The unit's timers: its deadline, its request timeout while a
    /// request is out, and its hedge instant while it can be hedged.
    fn timers(&self, cfg: &RemoteConfig, spare: bool) -> [Option<Instant>; 3] {
        let hedgeable = spare
            && !self.hedged
            && self.owner == PRIMARY
            && self.req[PRIMARY].is_some()
            && self.req[SPARE].is_none();
        let waiting = self.req.iter().any(Option::is_some);
        [
            self.deadline,
            self.sent_at.filter(|_| waiting).map(|at| at + cfg.request_timeout),
            self.sent_at.filter(|_| hedgeable).zip(cfg.hedge).map(|(at, h)| at + h),
        ]
    }
}

struct IoThread {
    cfg: RemoteConfig,
    shared: Arc<Shared>,
    /// Handed to each connection's reader thread.
    events: mpsc::Sender<Event>,
    endpoints: [Endpoint; 2],
    units: HashMap<u64, Pending>,
    by_req: HashMap<u64, u64>,
    next_unit: u64,
    next_req: u64,
}

impl IoThread {
    fn new(
        cfg: RemoteConfig,
        shard: usize,
        shared: Arc<Shared>,
        events: mpsc::Sender<Event>,
    ) -> Self {
        let endpoint = |addr: Option<String>, index: usize| {
            let order = u32::try_from(shard * 2 + index).unwrap_or(u32::MAX);
            Endpoint {
                addr,
                conn: None,
                conn_id: 0,
                breaker: Breaker::new(cfg.breaker.clone(), order),
                probe_pending: false,
                connect_streak: 0,
                not_before: Instant::now(),
                jitter: Rng64::new(
                    cfg.jitter_seed ^ (shard as u64) ^ ((index as u64) << 32),
                ),
                sendq: VecDeque::new(),
            }
        };
        let endpoints =
            [endpoint(Some(cfg.addr.clone()), PRIMARY), endpoint(cfg.spare.clone(), SPARE)];
        Self {
            cfg,
            shared,
            events,
            endpoints,
            units: HashMap::new(),
            by_req: HashMap::new(),
            next_unit: 0,
            next_req: 0,
        }
    }

    fn run(mut self, events: &mpsc::Receiver<Event>) {
        loop {
            // Block until an event or the earliest timer.
            let mut next = match self.next_wake() {
                None => events.recv().ok(),
                Some(at) => {
                    events.recv_timeout(at.saturating_duration_since(Instant::now())).ok()
                }
            };
            while let Some(event) = next {
                match event {
                    Event::Unit { perm, deadline, tx } => {
                        self.admit_unit(perm, deadline, tx)
                    }
                    Event::Stop(drain) => {
                        let canceled = u64::try_from(self.units.len()).unwrap_or(u64::MAX);
                        self.cancel_all();
                        if let Some(tx) = drain {
                            // analyze:allow(discarded-result): the drain caller may have timed out and gone
                            let _ = tx.send(canceled);
                        }
                        return;
                    }
                    Event::Reply { ep, conn, frame }
                        if self.endpoints[ep].conn_id == conn =>
                    {
                        self.reply_frame(ep, frame);
                    }
                    Event::Lost { ep, conn } if self.endpoints[ep].conn_id == conn => {
                        self.endpoint_failed(ep, Instant::now());
                    }
                    Event::Reply { .. } | Event::Lost { .. } => {} // a replaced connection
                }
                next = events.try_recv().ok();
            }
            self.scan_time();
            for e in [PRIMARY, SPARE] {
                self.pump_sends(e);
            }
        }
    }

    /// The earliest timer the I/O thread must wake for: a unit timer,
    /// or the end of a reconnect backoff with units waiting. A timer
    /// already past (a connect may have blocked across it) wakes the
    /// thread at once, except a due hedge: the spare's breaker refused
    /// it, and it waits for the next event.
    fn next_wake(&self) -> Option<Instant> {
        let now = Instant::now();
        let spare = self.endpoints[SPARE].addr.is_some();
        let units = self.units.values().flat_map(|u| {
            let [deadline, timeout, hedge] = u.timers(&self.cfg, spare);
            [deadline, timeout, hedge.filter(|at| *at > now)]
        });
        let backoffs =
            self.endpoints.iter().filter(|ep| ep.conn.is_none() && !ep.sendq.is_empty());
        units.flatten().chain(backoffs.map(|ep| ep.not_before)).min()
    }

    /// Places a fresh unit on an endpoint, applying the breaker's
    /// admission verdict: an open primary fails over immediately, and
    /// with nowhere to go the unit sheds the way an engine breaker
    /// sheds — typed, instant, conserved.
    fn admit_unit(&mut self, perm: Permutation, deadline: Option<Instant>, reply: UnitTx) {
        let id = self.next_unit;
        self.next_unit += 1;
        let now = Instant::now();
        let unit = Pending {
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
        let primary = self.admit_on(PRIMARY, now);
        let spare =
            !primary && self.endpoints[SPARE].addr.is_some() && self.admit_on(SPARE, now);
        if !primary && !spare {
            let latency = now.saturating_duration_since(unit.started);
            unit.reply
                .send(RequestOutcome { result: Err(EngineError::BreakerOpen), latency });
            return;
        }
        self.units.insert(id, unit);
        if primary {
            self.endpoints[PRIMARY].sendq.push_back(id);
        } else {
            self.fail_over(id);
        }
    }

    /// Moves pending unit `id` to the spare with a fresh attempt budget.
    fn fail_over(&mut self, id: u64) {
        Shared::bump(&self.shared.failovers);
        let unit = self.units.get_mut(&id).expect("failing over a pending unit");
        unit.owner = SPARE;
        unit.failed_over = true;
        unit.attempts_left = self.cfg.attempts.max(1);
        unit.sent_at = None;
        self.endpoints[SPARE].sendq.push_back(id);
    }

    /// The breaker's admission verdict for endpoint `e`: `true` serves
    /// (marking the probe slot when half-open), `false` sheds.
    fn admit_on(&mut self, e: usize, now: Instant) -> bool {
        let verdict = self.endpoints[e].breaker.admit(now);
        self.endpoints[e].probe_pending |= verdict == Admission::Probe;
        verdict != Admission::Shed
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
            let conn = self.endpoints[e].conn.as_mut().expect("connected above");
            if conn.send(&frame).is_err() {
                self.endpoint_failed(e, now);
                return;
            }
        }
    }

    /// One frame from endpoint `e`'s current connection; only route
    /// replies are unit-scoped.
    fn reply_frame(&mut self, e: usize, frame: Frame) {
        let Frame::RouteReply { req_id, status, tier, .. } = frame else { return };
        let probe = std::mem::take(&mut self.endpoints[e].probe_pending);
        // analyze:allow(discarded-result): the re-close edge is implicit in state()
        let _ = self.endpoints[e].breaker.on_success(probe);
        self.endpoints[e].connect_streak = 0;
        self.reply_arrived(e, req_id, status, tier);
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
            unit.fallback =
                Some(RequestOutcome { result, latency: unit.started.elapsed() });
            return;
        }
        // Primary said "overloaded/broken" and the spare is untried:
        // fail the unit over instead of surfacing the failure.
        if retryable
            && e == PRIMARY
            && !self.units[&id].failed_over
            && self.endpoints[SPARE].addr.is_some()
            && self.admit_on(SPARE, Instant::now())
        {
            self.fail_over(id);
            return;
        }
        self.resolve(id, result);
    }

    /// Establishes endpoint `e`'s connection, reporting the verdict to
    /// the breaker and pacing the next attempt on failure.
    fn connect(&mut self, e: usize, now: Instant) -> bool {
        match self.dial(e) {
            Ok(()) => {
                // Streak > 0 means a previous connection (or connect
                // attempt) failed: this one is a *re*connect.
                if self.endpoints[e].connect_streak > 0 {
                    Shared::bump(&self.shared.reconnects);
                }
                self.endpoints[e].connect_streak = 0;
                true
            }
            Err(_) => {
                self.endpoint_failed(e, now);
                false
            }
        }
    }

    /// Opens a connection to endpoint `e` (bounded by the connect
    /// timeout) and starts the reader thread that feeds its frames to
    /// the I/O thread's channel.
    fn dial(&mut self, e: usize) -> std::io::Result<()> {
        let addr = self.endpoints[e].addr.clone().ok_or(ErrorKind::NotConnected)?;
        let conn = Client::connect_timeout(&addr, self.cfg.connect_timeout)?;
        let (id, events, mut reader) =
            (self.endpoints[e].conn_id, self.events.clone(), conn.clone());
        let read = move || loop {
            let (event, last) = match reader.recv() {
                Ok(frame) => (Event::Reply { ep: e, conn: id, frame }, false),
                Err(_) => (Event::Lost { ep: e, conn: id }, true),
            };
            if events.send(event).is_err() || last {
                return;
            }
        };
        std::thread::Builder::new().name(format!("benes-remote-{e}-{id}")).spawn(read)?;
        self.endpoints[e].conn = Some(conn);
        Ok(())
    }

    /// One transport failure on endpoint `e`: drop the connection,
    /// advance the breaker, pace the next connect, and charge every
    /// unit that was riding this endpoint one attempt.
    fn endpoint_failed(&mut self, e: usize, now: Instant) {
        // The shutdown also ends the reader thread's blocking read.
        if let Some(conn) = self.endpoints[e].conn.take() {
            conn.kill();
        }
        self.endpoints[e].conn_id += 1;
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
            // Not the unit's endpoint, and nothing is out on its own.
            // Unless it waits there for a resend, its twin already failed
            // and parked the fallback it resolves with.
            if !self.endpoints[1 - e].sendq.contains(&id) {
                self.resolve(id, Err(EngineError::Unavailable));
            }
            return;
        }
        unit.attempts_left = unit.attempts_left.saturating_sub(1);
        if unit.attempts_left > 0 {
            Shared::bump(&self.shared.retries);
            unit.sent_at = None;
            self.endpoints[e].sendq.push_back(id);
            return;
        }
        if e == PRIMARY && !unit.failed_over && self.endpoints[SPARE].addr.is_some() {
            self.fail_over(id);
            return;
        }
        self.resolve(id, Err(EngineError::Unavailable));
    }

    /// Fires every unit timer that is due: an expired deadline sheds
    /// the unit, a request timeout condemns the silent connection, and
    /// a hedge delay sends a twin on the spare.
    fn scan_time(&mut self) {
        let now = Instant::now();
        let spare = self.endpoints[SPARE].addr.is_some();
        let due = |at: Option<Instant>| at.is_some_and(|at| at <= now);
        let (mut expired, mut stuck, mut hedges) = (Vec::new(), [false; 2], Vec::new());
        for (id, u) in &self.units {
            let [deadline, timeout, hedge] = u.timers(&self.cfg, spare);
            if due(deadline) {
                expired.push(*id);
                continue;
            }
            if due(timeout) {
                stuck = [0, 1].map(|e| stuck[e] || u.req[e].is_some());
            }
            if due(hedge) {
                hedges.push(*id);
            }
        }
        // A deadline resolves the unit shed, whatever the wire is doing.
        for id in expired {
            self.resolve(id, Err(EngineError::DeadlineExceeded));
        }
        // A silent connection is a dead connection.
        for e in [PRIMARY, SPARE] {
            if stuck[e] && self.endpoints[e].conn.is_some() {
                self.endpoint_failed(e, now);
            }
        }
        for id in hedges {
            // A failed primary may have moved the unit on meanwhile.
            let Some(unit) = self.units.get(&id) else { continue };
            if !due(unit.timers(&self.cfg, spare)[2]) {
                continue;
            }
            if !self.admit_on(SPARE, now) {
                break;
            }
            Shared::bump(&self.shared.hedges);
            self.units.get_mut(&id).expect("checked above").hedged = true;
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
        unit.reply.send(RequestOutcome { result, latency: unit.started.elapsed() });
    }

    /// Terminal cancel of everything pending (teardown path).
    fn cancel_all(&mut self) {
        let ids: Vec<u64> = self.units.keys().copied().collect();
        for id in ids {
            self.resolve(id, Err(EngineError::Canceled));
        }
    }
}

impl Drop for IoThread {
    /// However the I/O thread exits, its connections close, which ends
    /// their reader threads.
    fn drop(&mut self) {
        self.endpoints.iter_mut().filter_map(|ep| ep.conn.take()).for_each(Client::kill);
    }
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
        let (tx, ticket) = Ticket::channel();
        drop(UnitTx { tx: Some(tx), shared: Arc::clone(&shared) });
        assert_eq!(ticket.wait().result, Err(EngineError::Canceled));
        assert_eq!(shared.canceled.load(Ordering::Relaxed), 1);

        // An answered unit is booked once, by its reply.
        let (tx, ticket) = Ticket::channel();
        UnitTx { tx: Some(tx), shared: Arc::clone(&shared) }
            .send(RequestOutcome { result: Ok(Tier::Waksman), latency: Duration::ZERO });
        assert_eq!(ticket.wait().result, Ok(Tier::Waksman));
        assert_eq!(shared.completed.load(Ordering::Relaxed), 1);
        assert_eq!(shared.canceled.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_unit_submitted_after_the_io_thread_exits_resolves_canceled() {
        // Nothing listens on port 1: the drain finds the shard
        // unreachable and the I/O thread exits. A later unit is refused
        // (or stranded in the dead channel) and must still resolve.
        let shard = RemoteShard::new(RemoteConfig::new("127.0.0.1:1"), 0);
        assert!(shard.drain(Instant::now() + Duration::from_secs(5)).unreachable);
        let perm = Permutation::identity(8);
        assert_eq!(shard.submit(perm, None).wait().result, Err(EngineError::Canceled));
        let ledger = shard.ledger();
        assert_eq!((ledger.submitted, ledger.canceled), (1, 1));
        assert!(ledger.conserves_requests());
    }

    /// A stand-in benes-serve on loopback: it answers a connection's
    /// `n`th Route frame (counting from 1) with the status `reply(n)`
    /// names, after the pause it names, and never when it names none.
    fn fake_server(reply: fn(usize) -> Option<(Duration, Status)>) -> std::net::SocketAddr {
        use benes_serve::proto::decode;
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for mut stream in listener.incoming().map_while(Result::ok) {
                std::thread::spawn(move || {
                    let (mut buf, mut chunk, mut routes) = (Vec::new(), [0u8; 4096], 0);
                    while let Ok(n @ 1..) = stream.read(&mut chunk) {
                        buf.extend_from_slice(&chunk[..n]);
                        while let Ok(Some((frame, used))) = decode(&buf) {
                            buf.drain(..used);
                            let Frame::Route { req_id, .. } = frame else { continue };
                            routes += 1;
                            let Some((pause, status)) = reply(routes) else { continue };
                            std::thread::sleep(pause);
                            let tier = None;
                            let frame =
                                Frame::RouteReply { req_id, status, tier, latency_ns: 0 };
                            stream.write_all(&frame.to_bytes()).unwrap();
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn a_request_timeout_that_passes_during_a_blocked_connect_still_fires() {
        use std::net::{TcpListener, TcpStream};
        // The spare is a listener with a full backlog: a connect to it
        // blocks for the whole connect timeout.
        let spare = TcpListener::bind("127.0.0.1:0").unwrap();
        let spare_addr = spare.local_addr().unwrap();
        let held: Vec<TcpStream> = (0..1024)
            .map_while(|_| {
                TcpStream::connect_timeout(&spare_addr, Duration::from_millis(100)).ok()
            })
            .collect();
        assert!(held.len() < 1024, "the spare's backlog never filled");
        // The primary never answers a connection's first Route frame and
        // answers the second `Rejected`, which fails that unit over to
        // the spare.
        let primary =
            fake_server(|n| (n == 2).then_some((Duration::ZERO, Status::Rejected)));
        let mut config = RemoteConfig::new(primary.to_string());
        config.spare = Some(spare_addr.to_string());
        config.attempts = 1;
        config.connect_timeout = Duration::from_millis(600);
        config.request_timeout = Duration::from_millis(200);
        let shard = RemoteShard::new(config, 0);
        let perm = Permutation::identity(8);
        let mut silent = shard.submit(perm.clone(), None);
        let rejected = shard.submit(perm, None);
        assert_eq!(rejected.wait().result, Err(EngineError::Unavailable));
        // The silent unit's request timeout passed while the I/O thread
        // was blocked dialling the spare for the rejected one.
        let resolved = silent.wait_timeout(Duration::from_secs(10));
        assert!(resolved.is_some(), "a request timeout that came due mid-connect was lost");
        drop(held);
    }

    #[test]
    fn a_hedged_unit_whose_spare_goes_silent_resolves_with_the_primary_failure() {
        // The primary answers every unit `Rejected`, but only after the
        // hedge went out; the spare never answers. The primary's failure
        // is parked while the twin is out, then the spare's request
        // times out: the unit must resolve with the parked failure.
        let primary = fake_server(|_| Some((Duration::from_millis(150), Status::Rejected)));
        let mut config = RemoteConfig::new(primary.to_string());
        config.spare = Some(fake_server(|_| None).to_string());
        config.attempts = 1;
        config.hedge = Some(Duration::from_millis(50));
        config.request_timeout = Duration::from_millis(300);
        let shard = RemoteShard::new(config, 0);
        let mut unit = shard.submit(Permutation::identity(8), None);
        let outcome = unit.wait_timeout(Duration::from_secs(5));
        assert_eq!(outcome.map(|o| o.result), Some(Err(EngineError::FaultDetected)));
        assert_eq!(shard.ledger().hedges, 1);
    }
}
