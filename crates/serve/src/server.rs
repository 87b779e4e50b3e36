//! The benes-serve server: blocking `std::net` connection handling
//! driven by completion events, per-tenant DRR fair scheduling in
//! front of the engine's bounded admission, and graceful drain wired
//! to [`Engine::drain`].
//!
//! # Connection lifecycle
//!
//! A blocking acceptor deals connections round-robin to `threads`
//! handler threads; each connection is owned by one handler for its
//! whole life. Its one socket is shared by a writer thread (so a
//! client that stops reading stalls only its own writer) and a reader
//! thread (blocking `read`, frame decode). A handler blocks on one
//! event channel fed by those readers and by engine completions
//! registered at submit ([`Engine::try_submit_then`]). Route frames go
//! through the tenant scheduler into the engine (an over-quota tenant
//! is refused on the spot; a full engine queue parks the backlog until
//! the next completion anywhere in the server). Nothing polls: the only
//! timed waits are the drain grace and [`ServeConfig::read_timeout`],
//! after which an idle connection with nothing in flight is reaped.
//!
//! Malformed input gets one [`Frame::ErrorReply`] and the connection is
//! closed: a byte stream that lied once cannot be resynchronized.
//!
//! # Drain
//!
//! A [`Frame::Drain`] (honoured only with [`ServeConfig::allow_drain`])
//! or [`Server::shutdown`] flips the stop flag and wakes every thread:
//! handlers refuse new Route frames with [`Status::Draining`], finish
//! their backlog and in-flight requests and let their writers flush
//! (bounded by the drain grace), and exit; then the engine drains —
//! every admitted request reaches a terminal state, so per-tenant
//! conservation holds through shutdown.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use benes_engine::{
    DrainReport, Engine, EngineConfig, EngineError, RequestOutcome, SubmitError,
    SubmitOpts, Tier,
};
use benes_perm::Permutation;

use crate::client::{Client, RecvError};
use crate::proto::{tier_code, Frame, Status, TenantRow, WireError};
use crate::tenant::DrrScheduler;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Handler threads the connections are dealt to (thread-per-core:
    /// defaults to the machine's available parallelism).
    pub threads: usize,
    /// The engine the server fronts. The default bounds the queue
    /// (`max_queue_depth`) — unbounded admission would turn a flood
    /// into unbounded memory instead of `Rejected` replies.
    pub engine: EngineConfig,
    /// Reap a connection idle this long with nothing in flight.
    pub read_timeout: Duration,
    /// Max requests a tenant may have queued (per handler thread)
    /// before new ones are refused with [`Status::QuotaExceeded`].
    pub quota: usize,
    /// DRR quantum in cost units (one unit per destination word).
    pub quantum: u32,
    /// Whether a [`Frame::Drain`] from a client may stop the server.
    pub allow_drain: bool,
    /// How long a draining handler waits for its in-flight tickets
    /// before abandoning them to [`Engine::drain`]'s cancel sweep.
    pub drain_grace: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self {
            threads,
            engine: EngineConfig { max_queue_depth: Some(4096), ..EngineConfig::default() },
            read_timeout: Duration::from_secs(10),
            quota: 1024,
            quantum: 64,
            allow_drain: false,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// Monotonic counters the server keeps about itself (the engine's own
/// stats cover everything past admission).
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections accepted over the server's lifetime.
    pub accepted: AtomicU64,
    /// Connections closed (any reason: EOF, error, reap, drain).
    pub closed: AtomicU64,
    /// Protocol errors answered with an `ErrorReply` + close.
    pub protocol_errors: AtomicU64,
    /// Route replies written (every terminal the client heard about).
    pub replies: AtomicU64,
    /// Connections reaped by the read timeout.
    pub timed_out: AtomicU64,
}

impl ServerCounters {
    /// Renders the counters as an exposition fragment, ready to be
    /// merged into the engine's own via [`Exposition::extend`].
    ///
    /// [`Exposition::extend`]: benes_obs::expo::Exposition::extend
    #[must_use]
    pub fn exposition(&self) -> benes_obs::expo::Exposition {
        use benes_obs::expo::{Exposition, MetricKind, Sample};
        let mut e = Exposition::new();
        e.describe(
            "benes_serve_conns_total",
            MetricKind::Counter,
            "Wire-server connections by lifecycle state.",
        );
        e.describe(
            "benes_serve_replies_total",
            MetricKind::Counter,
            "Route replies written to clients.",
        );
        e.describe(
            "benes_serve_protocol_errors_total",
            MetricKind::Counter,
            "Connections closed after a wire-protocol error.",
        );
        for (state, counter) in [
            ("accepted", &self.accepted),
            ("closed", &self.closed),
            ("timed_out", &self.timed_out),
        ] {
            e.push(
                Sample::new(
                    "benes_serve_conns_total",
                    counter.load(Ordering::Relaxed) as f64,
                )
                .label("state", state),
            );
        }
        e.push(Sample::new(
            "benes_serve_replies_total",
            self.replies.load(Ordering::Relaxed) as f64,
        ));
        e.push(Sample::new(
            "benes_serve_protocol_errors_total",
            self.protocol_errors.load(Ordering::Relaxed) as f64,
        ));
        e
    }
}

/// A running benes-serve instance. Dropping the handle does **not**
/// stop the server; call [`Server::shutdown`] or [`Server::wait`].
pub struct Server {
    engine: Arc<Engine>,
    addr: SocketAddr,
    hub: Arc<Hub>,
    counters: Arc<ServerCounters>,
    /// The handler threads, then the acceptor.
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and spawns the
    /// acceptor and handler threads.
    ///
    /// # Errors
    ///
    /// Any I/O error from binding or configuring the listener.
    pub fn start(addr: &str, config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(Engine::new(config.engine.clone()));
        let counters = Arc::new(ServerCounters::default());
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..config.threads.max(1)).map(|_| mpsc::channel()).unzip();
        let (closed, closes) = mpsc::sync_channel(1);
        let hub = Arc::new(Hub {
            stop: AtomicBool::new(false),
            parked: senders.iter().map(|_| AtomicBool::new(false)).collect(),
            handlers: senders,
            closed,
            addr,
        });
        let mut threads: Vec<JoinHandle<()>> = receivers
            .into_iter()
            .enumerate()
            .map(|(index, events)| {
                let (writers, writers_done) = mpsc::channel();
                let handler = Handler {
                    index,
                    hub: Arc::clone(&hub),
                    engine: Arc::clone(&engine),
                    counters: Arc::clone(&counters),
                    sched: DrrScheduler::new(config.quantum, config.quota),
                    config: config.clone(),
                    events,
                    writers,
                    writers_done,
                    conns: HashMap::new(),
                    drain_started: None,
                };
                std::thread::Builder::new()
                    .name(format!("benes-serve-{index}"))
                    .spawn(move || handler.run())
                    .expect("spawn serve handler")
            })
            .collect();
        let acceptor = {
            let hub = Arc::clone(&hub);
            std::thread::Builder::new()
                .name("benes-serve-accept".into())
                .spawn(move || accept_loop(&listener, &hub, &closes))
                .expect("spawn serve acceptor")
        };
        threads.push(acceptor);
        Ok(Self { engine, addr, hub, counters, threads })
    }

    /// The address the server is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the server (for stats and tests).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// A cloned handle to the engine, outliving this `Server` value
    /// (e.g. for a metrics thread while the server blocks in
    /// [`Server::wait`]).
    #[must_use]
    pub fn engine_arc(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// The server's own counters.
    #[must_use]
    pub fn counters(&self) -> &ServerCounters {
        &self.counters
    }

    /// A cloned handle to the counters, outliving this `Server` value
    /// (companion to [`Server::engine_arc`] for metrics threads).
    #[must_use]
    pub fn counters_arc(&self) -> Arc<ServerCounters> {
        Arc::clone(&self.counters)
    }

    /// Whether the stop flag is set (drain requested or shutdown
    /// begun).
    #[must_use]
    pub fn is_stopping(&self) -> bool {
        self.hub.stopping()
    }

    /// Blocks until the server stops (a client Drain under
    /// `allow_drain`), then drains the engine. Returns the engine's
    /// drain report.
    pub fn wait(mut self) -> DrainReport {
        self.join_threads();
        self.engine.drain(Instant::now() + Duration::from_secs(5))
    }

    /// Stops the server: handlers finish their in-flight work (bounded
    /// by the drain grace), then the engine drains until `deadline`.
    pub fn shutdown(mut self, deadline: Instant) -> DrainReport {
        self.hub.stop();
        self.join_threads();
        self.engine.drain(deadline)
    }

    fn join_threads(&mut self) {
        for t in self.threads.drain(..) {
            // A panicked handler already lost its connections; the
            // engine drain still resolves every request.
            // analyze:allow(discarded-result): handler panic leaves nothing to join
            let _ = t.join();
        }
    }
}

/// What the server's threads share: the stop flag, every handler's
/// event channel, which handlers wait for engine queue space, and the
/// acceptor's wakes.
struct Hub {
    stop: AtomicBool,
    handlers: Vec<mpsc::Sender<Event>>,
    /// `parked[h]`: handler `h` holds scheduler backlog behind a full
    /// engine queue and waits for a completion to free a slot.
    parked: Vec<AtomicBool>,
    /// A one-slot wake for an acceptor out of descriptors: a
    /// connection closed (or the server is stopping).
    closed: mpsc::SyncSender<()>,
    /// The listener's address (a self-connect wakes the acceptor).
    addr: SocketAddr,
}

impl Hub {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Flips the stop flag (once) and wakes every blocked thread: each
    /// handler with a `Stop` event, the acceptor with a self-connect
    /// (or, out of descriptors, a close wake).
    fn stop(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        for handler in &self.handlers {
            // analyze:allow(discarded-result): an exited handler needs no wake
            let _ = handler.send(Event::Stop);
        }
        self.wake_acceptor();
        // analyze:allow(discarded-result): a refused connect means the acceptor is gone
        let _ = TcpStream::connect(loopback(self.addr));
    }

    /// Fills the acceptor's close-wake slot; a wake already there
    /// covers this one.
    fn wake_acceptor(&self) {
        // analyze:allow(discarded-result): a full slot already holds a wake
        let _ = self.closed.try_send(());
    }

    /// Posts one engine outcome to the handler that owns its
    /// connection. Every completion follows a worker's dequeue, which
    /// freed a queue slot, so it also wakes every parked handler.
    fn complete(&self, handler: usize, conn: u64, req_id: u64, outcome: RequestOutcome) {
        // analyze:allow(discarded-result): an exited handler abandoned this reply
        let _ = self.handlers[handler].send(Event::Done { conn, req_id, outcome });
        for (h, parked) in self.parked.iter().enumerate() {
            if parked.load(Ordering::SeqCst) && parked.swap(false, Ordering::SeqCst) {
                // analyze:allow(discarded-result): an exited handler needs no wake
                let _ = self.handlers[h].send(Event::Space);
            }
        }
    }
}

/// `addr` with an unspecified IP replaced by loopback: where a thread
/// connects to wake an acceptor blocked on `addr`.
pub(crate) fn loopback(addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, addr.port()).into(),
        IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, addr.port()).into(),
        _ => addr,
    }
}

/// Everything that wakes a handler.
enum Event {
    // A new connection, dealt to this handler.
    Accepted { conn: u64, stream: TcpStream },
    Frame { conn: u64, frame: Frame },
    // The reader saw no bytes for the read timeout.
    Idle { conn: u64 },
    // The reader stopped: EOF or socket error (`None`), or bytes that
    // do not decode.
    ReadEnd { conn: u64, err: Option<WireError> },
    // The engine resolved one request.
    Done { conn: u64, req_id: u64, outcome: RequestOutcome },
    // Engine queue space freed up.
    Space,
    Stop,
}

/// Blocks in `accept` and deals each connection to a handler,
/// round-robin. Exits on the first wake after the stop flag flips.
fn accept_loop(listener: &TcpListener, hub: &Hub, closes: &mpsc::Receiver<()>) {
    for (conn, stream) in (0u64..).zip(listener.incoming()) {
        if hub.stopping() {
            return;
        }
        match stream {
            Ok(stream) => {
                let handler = &hub.handlers[(conn % hub.handlers.len() as u64) as usize];
                // analyze:allow(discarded-result): an exited handler closes the conn by dropping it
                let _ = handler.send(Event::Accepted { conn, stream });
            }
            // A connection reset in the backlog costs only itself.
            Err(e) if e.kind() == ErrorKind::ConnectionAborted => {}
            // Anything else (out of descriptors, most likely) lasts
            // until a connection closes: wait for one, or for stop.
            Err(_) => {
                // analyze:allow(discarded-result): the hub keeps the sender alive
                let _ = closes.recv();
            }
        }
    }
}

/// One request decoded off a connection, waiting for an engine slot.
struct Pending {
    conn: u64,
    req_id: u64,
    deadline: Option<Instant>,
    perm: Permutation,
}

/// One client connection, owned by exactly one handler thread.
struct Conn {
    /// A handle on the socket, to cut the writer off after the drain
    /// grace; dropped before `writer`, so the writer holds the last.
    sock: Client,
    writer: mpsc::Sender<Vec<Frame>>,
    /// Replies since the last hand-off to the writer.
    wbuf: Vec<Frame>,
    /// Requests in the scheduler or in the engine.
    outstanding: usize,
    /// When a reply was last encoded (`None`: never).
    last_reply: Option<Instant>,
    /// Read side finished (EOF or error): close once quiescent.
    read_closed: bool,
    /// Protocol violation or reaped: close at the next hand-off.
    closing: bool,
}

impl Conn {
    fn push_frame(&mut self, frame: Frame) {
        self.wbuf.push(frame);
        self.last_reply = Some(Instant::now());
    }

    /// A terminal reply to one Route frame.
    fn reply(&mut self, counters: &ServerCounters, req_id: u64, status: Status) {
        self.push_frame(Frame::RouteReply { req_id, status, tier: None, latency_ns: 0 });
        counters.replies.fetch_add(1, Ordering::Relaxed);
    }
}

/// Maps an engine outcome to its wire status + tier code.
fn classify(result: &Result<Tier, EngineError>) -> (Status, Option<u8>) {
    match result {
        Ok(tier) => (Status::Ok, Some(tier_code(*tier))),
        Err(EngineError::DeadlineExceeded) => (Status::Shed, None),
        Err(EngineError::BreakerOpen) => (Status::BreakerOpen, None),
        Err(EngineError::Canceled) => (Status::Draining, None),
        Err(EngineError::Plan(_)) => (Status::PlanError, None),
        Err(_) => (Status::Failed, None),
    }
}

/// The per-tenant ledger rows for a StatsReply, from a live snapshot.
fn stats_rows(engine: &Engine) -> Vec<TenantRow> {
    engine
        .stats()
        .tenants
        .iter()
        .map(|(tenant, t)| TenantRow {
            tenant: *tenant,
            submitted: t.submitted,
            completed: t.completed,
            failed: t.failed,
            shed: t.shed,
            canceled: t.canceled,
            rejected: t.rejected,
        })
        .collect()
}

/// One handler thread: its connections, its tenant scheduler, and the
/// event channel it blocks on.
struct Handler {
    index: usize,
    hub: Arc<Hub>,
    engine: Arc<Engine>,
    counters: Arc<ServerCounters>,
    config: ServeConfig,
    events: mpsc::Receiver<Event>,
    /// A clone rides in every connection's writer thread: once all are
    /// dropped, `writers_done` disconnects.
    writers: mpsc::Sender<()>,
    writers_done: mpsc::Receiver<()>,
    conns: HashMap<u64, Conn>,
    sched: DrrScheduler<Pending>,
    drain_started: Option<Instant>,
}

impl Handler {
    fn run(mut self) {
        loop {
            // Block for the next event; once draining, no longer than
            // the grace.
            let mut next = match self.drain_started {
                None => self.events.recv().ok(),
                Some(started) => {
                    let left = (started + self.config.drain_grace)
                        .saturating_duration_since(Instant::now());
                    self.events.recv_timeout(left).ok()
                }
            };
            // Take the whole batch before acting on it.
            while let Some(event) = next {
                self.on_event(event);
                next = self.events.try_recv().ok();
            }
            self.pump();
            self.hand_off();
            if let Some(started) = self.drain_started {
                let idle = self.sched.is_empty()
                    && self.conns.values().all(|c| c.outstanding == 0);
                if idle || started.elapsed() >= self.config.drain_grace {
                    self.finish(started);
                    return;
                }
            }
        }
    }

    fn on_event(&mut self, event: Event) {
        match event {
            // Too late once stopping: dropping the stream closes it.
            Event::Accepted { conn, stream } if !self.hub.stopping() => {
                self.open(conn, stream)
            }
            Event::Accepted { .. } | Event::Space => {}
            Event::Frame { conn, frame } => self.on_frame(conn, frame),
            Event::Idle { conn } => {
                let Some(c) = self.conns.get_mut(&conn) else { return };
                let quiet =
                    c.last_reply.is_none_or(|at| at.elapsed() >= self.config.read_timeout);
                if !self.hub.stopping() && !c.closing && c.outstanding == 0 && quiet {
                    self.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                    c.closing = true;
                }
            }
            Event::ReadEnd { conn, err } => {
                let Some(c) = self.conns.get_mut(&conn) else { return };
                match err {
                    Some(err) => wire_error(&self.counters, c, &err),
                    None => c.read_closed = true,
                }
            }
            Event::Done { conn, req_id, outcome } => {
                let Some(c) = self.conns.get_mut(&conn) else { return };
                c.outstanding = c.outstanding.saturating_sub(1);
                let (status, tier) = classify(&outcome.result);
                let latency_ns =
                    u64::try_from(outcome.latency.as_nanos()).unwrap_or(u64::MAX);
                c.push_frame(Frame::RouteReply { req_id, status, tier, latency_ns });
                self.counters.replies.fetch_add(1, Ordering::Relaxed);
            }
            Event::Stop => {
                self.drain_started.get_or_insert_with(Instant::now);
            }
        }
    }

    /// Takes connection `id` on. Its writer thread sends the replies
    /// [`Handler::hand_off`] passes it (a client that stops reading
    /// stalls only that thread) and runs a scoped reader that posts
    /// every frame here. Once the connection closes, the writer shuts
    /// the socket down, which ends the reader's blocking read.
    fn open(&mut self, id: u64, stream: TcpStream) {
        // Frames are small and latency-sensitive.
        // analyze:allow(discarded-result): nodelay is advisory
        let _ = stream.set_nodelay(true);
        // analyze:allow(discarded-result): a zero timeout is refused, which disables reaping
        let _ = stream.set_read_timeout(Some(self.config.read_timeout));
        let (sock, (writer, batches)) =
            (Client::from_stream(stream), mpsc::channel::<Vec<Frame>>());
        let (mut client, mut reader, alive) =
            (sock.clone(), sock.clone(), self.writers.clone());
        let (hub, events) = (Arc::clone(&self.hub), self.hub.handlers[self.index].clone());
        let spawn = |name: String| std::thread::Builder::new().name(name);
        let write = move || {
            std::thread::scope(|s| {
                let read = || loop {
                    let (event, last) = match reader.recv() {
                        Ok(frame) => (Event::Frame { conn: id, frame }, false),
                        Err(RecvError::Timeout) => (Event::Idle { conn: id }, false),
                        Err(RecvError::Wire(err)) => {
                            (Event::ReadEnd { conn: id, err: Some(err) }, true)
                        }
                        Err(_) => (Event::ReadEnd { conn: id, err: None }, true),
                    };
                    if events.send(event).is_err() || last {
                        return;
                    }
                };
                if spawn(format!("benes-serve-r{id}")).spawn_scoped(s, read).is_err() {
                    // analyze:allow(discarded-result): an exited handler awaits no frames
                    let _ = events.send(Event::ReadEnd { conn: id, err: None });
                }
                // After a write error (the reader hears the peer is gone
                // too) drain on: this thread must drop the last handle.
                let mut open = true;
                for frames in batches {
                    open = open && client.send_all(&frames).is_ok();
                }
                client.kill();
            });
            drop((reader, alive));
            hub.wake_acceptor();
        };
        if spawn(format!("benes-serve-w{id}")).spawn(write).is_ok() {
            self.counters.accepted.fetch_add(1, Ordering::Relaxed);
            let conn = Conn {
                sock,
                writer,
                wbuf: Vec::new(),
                outstanding: 0,
                last_reply: None,
                read_closed: false,
                closing: false,
            };
            self.conns.insert(id, conn);
        }
    }

    /// Processes one decoded frame from connection `id`.
    fn on_frame(&mut self, id: u64, frame: Frame) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.closing {
            return;
        }
        match frame {
            Frame::Route { req_id, tenant, deadline_ms, destinations } => {
                if self.hub.stopping() {
                    conn.reply(&self.counters, req_id, Status::Draining);
                    return;
                }
                let cost = u32::try_from(destinations.len()).unwrap_or(u32::MAX);
                let Ok(perm) = Permutation::from_destinations(destinations) else {
                    conn.reply(&self.counters, req_id, Status::BadRequest);
                    return;
                };
                let deadline = (deadline_ms > 0).then(|| {
                    Instant::now() + Duration::from_millis(u64::from(deadline_ms))
                });
                let pending = Pending { conn: id, req_id, deadline, perm };
                match self.sched.enqueue(tenant, cost, pending) {
                    Ok(()) => conn.outstanding += 1,
                    Err((_, refused)) => {
                        conn.reply(&self.counters, refused.req_id, Status::QuotaExceeded);
                    }
                }
            }
            Frame::Stats => {
                conn.push_frame(Frame::StatsReply { rows: stats_rows(&self.engine) });
            }
            Frame::Drain => {
                if self.config.allow_drain {
                    conn.push_frame(Frame::StatsReply { rows: stats_rows(&self.engine) });
                    self.hub.stop();
                } else {
                    conn.push_frame(Frame::ErrorReply {
                        req_id: 0,
                        code: Status::BadRequest,
                        message: "drain not allowed (start the server with --allow-drain)"
                            .into(),
                    });
                }
            }
            // Server-to-client frames arriving at the server are protocol
            // violations.
            Frame::RouteReply { .. }
            | Frame::StatsReply { .. }
            | Frame::ErrorReply { .. } => {
                let err = WireError::Malformed("client sent a server-only frame");
                wire_error(&self.counters, conn, &err);
            }
        }
    }

    /// Feeds the scheduler into the engine until it pushes back.
    fn pump(&mut self) {
        let mut parked = false;
        while let Some((tenant, cost, pending)) = self.sched.dequeue() {
            let opts = SubmitOpts { deadline: pending.deadline, tenant: Some(tenant) };
            let (hub, handler) = (Arc::clone(&self.hub), self.index);
            let (conn, req_id) = (pending.conn, pending.req_id);
            let on_done = move |outcome| hub.complete(handler, conn, req_id, outcome);
            // A request whose connection is gone still runs: the
            // engine books the tenant's terminal state either way, so
            // conservation survives killed connections.
            match self.engine.try_submit_then(pending.perm.clone(), opts, on_done) {
                Ok(()) => {}
                Err(SubmitError::QueueFull { .. }) => {
                    self.sched.requeue_front(tenant, cost, pending);
                    if parked {
                        break;
                    }
                    // Park, then retry once: either the retry finds the
                    // slot a completion freed, or every job filling the
                    // queue completes after the flag is up and wakes us.
                    self.hub.parked[self.index].store(true, Ordering::SeqCst);
                    parked = true;
                }
                Err(_) => {
                    // Engine shutting down: everything still queued is
                    // refused as Draining.
                    let refused = std::iter::once(pending)
                        .chain(self.sched.drain_all().into_iter().map(|(_, p)| p));
                    for p in refused {
                        if let Some(c) = self.conns.get_mut(&p.conn) {
                            c.outstanding = c.outstanding.saturating_sub(1);
                            c.reply(&self.counters, p.req_id, Status::Draining);
                        }
                    }
                    break;
                }
            }
        }
    }

    /// Hands every connection's encoded replies to its writer, then
    /// closes poisoned and reaped connections, and EOF'd ones with
    /// nothing outstanding (dropping the sender lets the writer finish
    /// and shut the socket down).
    fn hand_off(&mut self) {
        let counters = &self.counters;
        self.conns.retain(|_, c| {
            if !c.wbuf.is_empty() {
                // analyze:allow(discarded-result): a dead writer means the peer is gone
                let _ = c.writer.send(std::mem::take(&mut c.wbuf));
            }
            let close = c.closing || (c.read_closed && c.outstanding == 0);
            if close {
                counters.closed.fetch_add(1, Ordering::Relaxed);
            }
            !close
        });
    }

    /// Drain exit: closes every connection and waits (within the
    /// grace) for the writers to flush; cuts off whatever is left.
    fn finish(self, started: Instant) {
        let Handler { conns, writers, writers_done, counters, config, .. } = self;
        drop(writers);
        counters.closed.fetch_add(conns.len() as u64, Ordering::Relaxed);
        // Dropping a connection's sender lets its writer flush and exit.
        let socks: Vec<Client> = conns.into_values().map(|c| c.sock).collect();
        let left = (started + config.drain_grace).saturating_duration_since(Instant::now());
        if writers_done.recv_timeout(left) == Err(mpsc::RecvTimeoutError::Timeout) {
            socks.into_iter().for_each(Client::kill);
        }
    }
}

/// Answers a protocol violation with one `ErrorReply` and closes the
/// connection once the reply is handed to its writer.
fn wire_error(counters: &ServerCounters, conn: &mut Conn, err: &WireError) {
    counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
    conn.push_frame(Frame::ErrorReply {
        req_id: 0,
        code: Status::BadRequest,
        message: err.to_string(),
    });
    conn.closing = true;
}
