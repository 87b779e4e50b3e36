//! `serve-open`: an in-process wire server on loopback, driven open
//! loop over two connections (one tenant each) at a fixed offered
//! rate. Each request is timed on the client from its scheduled send
//! time to the moment its reply is decoded, so a stall also charges
//! the requests queued behind it.
//!
//! The generator is one pacing thread that writes both connections on
//! the schedule and one reader per connection. The readers sit blocked
//! in `read` between replies: std has no readiness polling across
//! sockets, and a socket read timeout is too coarse to pace sends.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use benes_engine::EngineConfig;
use benes_perm::Permutation;
use benes_serve::proto::decode;
use benes_serve::{Client, Frame, ServeConfig, Server, Status, TenantRow};

use crate::inputs::{self, CACHE_CAPACITY};
use crate::measure::{nanos, process_cpu, rss_peak_mib, timed, Samples};
use crate::replay::{fill_engine_stats, StepCosts, CACHE_SHARDS};
use crate::report::{Outcome, Pass, Span};
use crate::SETUP_REPS;

/// Offered rate, ops/s: about a quarter of the pipelined capacity
/// (~15k ops/s on a 2-core VM). At half capacity the p50 and CPU per
/// op also spread with the host's load; at a quarter only the p99 does.
const RATE: f64 = 4000.0;
const CONNS: usize = 2;
const HANDLER_THREADS: usize = 2;
const WORKERS: usize = 2;
/// Closed-loop requests per connection during set-up.
const WARM_PER_CONN: usize = 256;
/// How long readers wait for the last replies after the schedule ends.
const DRAIN: Duration = Duration::from_secs(5);
const REPLAY: usize = 2048;

fn config() -> ServeConfig {
    ServeConfig {
        threads: HANDLER_THREADS,
        engine: EngineConfig {
            workers: WORKERS,
            cache_capacity: CACHE_CAPACITY,
            cache_shards: CACHE_SHARDS,
            max_queue_depth: Some(4096),
            ..EngineConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn tenant(conn: usize) -> u64 {
    conn as u64 + 1
}

fn route_frame(req_id: u64, conn: usize, perm: &Permutation) -> Frame {
    Frame::Route {
        req_id,
        tenant: tenant(conn),
        deadline_ms: 0,
        destinations: perm.destinations().to_vec(),
    }
}

/// One decoded reply, as the reader saw it.
struct Reply {
    /// Op index (request `i` of the pass).
    op: usize,
    /// Scheduled send → reply decoded, ns.
    latency: u64,
    /// Actual send → reply decoded, ns.
    since_send: u64,
    /// Engine-reported submit → terminal, ns.
    engine: u64,
    /// Client-side decode of this reply, ns.
    decode: u64,
    status: Status,
}

/// What one open-loop pass produced beyond the end-to-end pass.
struct OpenLoop {
    pass: Pass,
    replies: Vec<Reply>,
    /// Actual send − scheduled send, per sent op, ns.
    lag: Vec<u64>,
    schedule: Duration,
    inflight_max: usize,
}

/// Reads replies on one connection until every request it was sent is
/// answered (or the drain deadline passes).
#[allow(clippy::too_many_arguments)]
fn read_replies(
    mut stream: TcpStream,
    conn: usize,
    ops: usize,
    start: Instant,
    interval_ns: f64,
    sent_at: &[AtomicU64],
    pacer_done: &AtomicUsize,
    received: &AtomicUsize,
    base_id: u64,
) -> (Vec<Reply>, Vec<String>) {
    stream.set_read_timeout(Some(Duration::from_millis(50))).expect("set read timeout");
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut scratch = vec![0u8; 1 << 16];
    let mut answered = vec![false; ops];
    let mut replies = Vec::new();
    let mut errors = Vec::new();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let done_sending = pacer_done.load(Ordering::Acquire);
        if done_sending > 0 {
            let mine = (0..done_sending - 1).filter(|i| i % CONNS == conn).count();
            if replies.len() >= mine {
                break;
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() >= deadline {
                errors.push(format!(
                    "conn {conn}: {} of {mine} requests never answered",
                    mine - replies.len()
                ));
                break;
            }
        }
        match stream.read(&mut scratch) {
            Ok(0) => {
                errors.push(format!("conn {conn}: server closed the connection"));
                break;
            }
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => {
                errors.push(format!("conn {conn}: read failed: {e}"));
                break;
            }
        }
        let mut used = 0;
        loop {
            let t0 = Instant::now();
            let frame = match decode(&buf[used..]) {
                Ok(Some((frame, n))) => {
                    used += n;
                    frame
                }
                Ok(None) => break,
                Err(e) => {
                    errors.push(format!("conn {conn}: undecodable reply: {e}"));
                    return (replies, errors);
                }
            };
            let decoded = Instant::now();
            let Frame::RouteReply { req_id, status, latency_ns, .. } = frame else {
                errors.push(format!("conn {conn}: unexpected frame {frame:?}"));
                continue;
            };
            let op = req_id.wrapping_sub(base_id) as usize;
            let sent = sent_at.get(op).map_or(0, |s| s.load(Ordering::Acquire));
            if op >= ops || op % CONNS != conn || sent == 0 || answered[op] {
                errors.push(format!("conn {conn}: reply for unknown req_id {req_id:#x}"));
                continue;
            }
            answered[op] = true;
            received.fetch_add(1, Ordering::AcqRel);
            let since_start = nanos(decoded - start);
            replies.push(Reply {
                op,
                latency: since_start.saturating_sub((op as f64 * interval_ns) as u64),
                since_send: since_start.saturating_sub(sent - 1),
                engine: latency_ns,
                decode: nanos(decoded - t0),
                status,
            });
        }
        buf.drain(..used);
    }
    (replies, errors)
}

/// Sends requests at `RATE` per second for `seconds`, alternating
/// connections, and collects every reply.
fn open_loop(
    conns: &mut [TcpStream],
    stream: &[Permutation],
    first: usize,
    seconds: f64,
    base_id: u64,
) -> OpenLoop {
    let ops = (RATE * seconds).ceil() as usize;
    let interval_ns = 1e9 / RATE;
    let sent_at: Vec<AtomicU64> = (0..ops).map(|_| AtomicU64::new(0)).collect();
    let pacer_done = AtomicUsize::new(0);
    let received = AtomicUsize::new(0);
    let readers: Vec<TcpStream> =
        conns.iter().map(|c| c.try_clone().expect("clone connection")).collect();
    let cpu0 = process_cpu();
    let start = Instant::now();

    let (lag, inflight_max, results) = std::thread::scope(|s| {
        let (sent_at, pacer_done, received) = (&sent_at, &pacer_done, &received);
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(c, r)| {
                s.spawn(move || {
                    read_replies(
                        r,
                        c,
                        ops,
                        start,
                        interval_ns,
                        sent_at,
                        pacer_done,
                        received,
                        base_id,
                    )
                })
            })
            .collect();

        let mut lag = Vec::with_capacity(ops);
        let mut inflight_max = 0;
        let mut bytes = Vec::with_capacity(2048);
        for (i, slot) in sent_at.iter().enumerate() {
            let due = start + Duration::from_nanos((i as f64 * interval_ns) as u64);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let conn = i % CONNS;
            bytes.clear();
            route_frame(base_id + i as u64, conn, &stream[(first + i) % stream.len()])
                .encode(&mut bytes);
            // Published before the write: the reply can beat the
            // write's return.
            let sent = Instant::now();
            slot.store(nanos(sent - start) + 1, Ordering::Release);
            if conns[conn].write_all(&bytes).is_err() {
                break;
            }
            lag.push(nanos(sent.saturating_duration_since(due)));
            inflight_max = inflight_max.max(i + 1 - received.load(Ordering::Acquire));
        }
        pacer_done.store(lag.len() + 1, Ordering::Release);
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (lag, inflight_max, results)
    });

    let sent = lag.len();
    let mut pass = Pass { attempted: ops as u64, ..Pass::default() };
    let mut replies = Vec::new();
    for (r, errors) in results {
        replies.extend(r);
        pass.errors.extend(errors);
    }
    if sent < ops {
        pass.errors.push(format!("only {sent} of {ops} requests could be sent"));
    }
    // Never answered (or never sent) counts as failed, as do non-Ok replies.
    pass.failed = (ops - replies.len()) as u64;
    for r in &replies {
        if r.status == Status::Ok {
            pass.ok((r.op as f64 * interval_ns) as u64, r.latency);
        } else {
            pass.fail(|| format!("op {}: status {}", r.op, r.status.name()));
        }
    }
    let last = replies.iter().map(|r| r.latency + (r.op as f64 * interval_ns) as u64).max();
    pass.window = Duration::from_nanos(last.unwrap_or(1));
    pass.cpu = process_cpu() - cpu0;
    // The generator's buffers are sized by the schedule, not by how
    // fast the server answers, so nothing is subtracted.
    pass.rss_peak_mib = rss_peak_mib();
    OpenLoop {
        pass,
        replies,
        lag,
        schedule: Duration::from_nanos((ops as f64 * interval_ns) as u64),
        inflight_max,
    }
}

/// One request per round trip on `conn`, for warm-up.
fn closed_loop_warm(conn: &mut TcpStream, c: usize, stream: &[Permutation]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut bytes = Vec::new();
    let mut buf = Vec::new();
    let mut scratch = vec![0u8; 4096];
    for (i, perm) in stream.iter().enumerate().filter(|(i, _)| i % CONNS == c) {
        bytes.clear();
        route_frame(i as u64, c, perm).encode(&mut bytes);
        conn.write_all(&bytes).expect("write warm-up request");
        let reply = loop {
            if let Some((frame, n)) = decode(&buf).expect("decodable warm-up reply") {
                buf.drain(..n);
                break frame;
            }
            let n = conn.read(&mut scratch).expect("read warm-up reply");
            assert!(n > 0, "server closed a warm-up connection");
            buf.extend_from_slice(&scratch[..n]);
        };
        if !matches!(reply, Frame::RouteReply { req_id, status: Status::Ok, .. } if req_id == i as u64)
        {
            errors.push(format!("warm-up request {i}: unexpected reply {reply:?}"));
        }
    }
    errors
}

/// The per-tenant ledgers once every one conserves (or after 5 s).
fn settled_rows(addr: std::net::SocketAddr) -> (Vec<TenantRow>, bool) {
    let mut client = Client::connect(addr).expect("connect for stats");
    client.set_read_timeout(Some(Duration::from_secs(5))).expect("set read timeout");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        client.send(&Frame::Stats).expect("send stats");
        let Ok(Frame::StatsReply { rows }) = client.recv() else {
            return (Vec::new(), false);
        };
        let conserved = rows.iter().all(TenantRow::conserves_requests);
        if conserved || Instant::now() >= deadline {
            return (rows, conserved);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let stream = inputs::serve_inputs(seed);
    let mut out = Outcome {
        params: vec![
            ("n", inputs::ORDER.to_string()),
            ("stream", stream.len().to_string()),
            ("offered_ops_s", RATE.to_string()),
            ("conns", CONNS.to_string()),
            ("tenants", CONNS.to_string()),
            ("handler_threads", HANDLER_THREADS.to_string()),
            ("workers", WORKERS.to_string()),
            ("cache_capacity", CACHE_CAPACITY.to_string()),
            ("loop", "open".to_string()),
        ],
        ..Outcome::default()
    };

    // Set-up: start the server, connect, and warm up closed loop.
    let warm = &stream[..WARM_PER_CONN * CONNS];
    let build = || {
        let server = Server::start("127.0.0.1:0", config()).expect("start the server");
        let mut conns: Vec<TcpStream> = (0..CONNS)
            .map(|_| {
                let s = TcpStream::connect(server.local_addr()).expect("connect");
                s.set_nodelay(true).expect("set nodelay");
                s
            })
            .collect();
        let errors = std::thread::scope(|s| {
            let hs: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| s.spawn(move || closed_loop_warm(conn, c, warm)))
                .collect();
            hs.into_iter()
                .flat_map(|h| h.join().expect("warm-up thread panicked"))
                .collect()
        });
        ((server, conns), errors)
    };
    let stop = |(server, conns): (Server, Vec<TcpStream>)| {
        drop(conns);
        server.shutdown(Instant::now() + Duration::from_secs(2));
    };
    let (server, mut conns) = out.set_up(build);
    let (baseline, _) = settled_rows(server.local_addr());

    let first = warm.len();
    let pass_id = |p: u64| p << 40;
    if !traced {
        let run = open_loop(&mut conns, &stream, first, seconds, pass_id(1));
        out.passes.push(run.pass);
    } else {
        let plain = open_loop(&mut conns, &stream, first, seconds / 2.0, pass_id(1));
        let before = server.engine().stats();
        let next = first + plain.lag.len();
        let run = open_loop(&mut conns, &stream, next, seconds / 2.0, pass_id(2));
        let after = server.engine().stats();
        let l = &mut out.layers;
        l.set_us("gen.lag_p99_us", &Samples::new(run.lag.clone()), 0.99);
        l.set("gen.offered_ops_s", run.lag.len() as f64 / run.schedule.as_secs_f64());
        let col = |f: fn(&Reply) -> u64| Samples::new(run.replies.iter().map(f).collect());
        l.set_us("serve.engine_p50_us", &col(|r| r.engine), 0.5);
        let overhead = col(|r| r.since_send.saturating_sub(r.engine));
        l.set_us("serve.overhead_p50_us", &overhead, 0.5);
        l.set_us("serve.overhead_p99_us", &overhead, 0.99);
        l.set("serve.inflight_max", run.inflight_max as f64);
        for status in Status::ALL {
            let count = run.replies.iter().filter(|r| r.status == status).count();
            l.set(status_metric(status), count as f64);
        }
        // Per op: scheduled → decoded, minus generator lag, engine time
        // and client decode; what remains is the server's wire path.
        let lag_of = |op: usize| run.lag.get(op).copied().unwrap_or(0);
        let unattributed = Samples::new(
            run.replies
                .iter()
                .map(|r| r.latency.saturating_sub(lag_of(r.op) + r.engine + r.decode))
                .collect(),
        );
        l.set_us("trace.unattributed_p50_us", &unattributed, 0.5);
        let ratio =
            run.pass.latency_quantile(0.5) / plain.pass.latency_quantile(0.5).max(1.0);
        l.set("trace.overhead_ratio", ratio);

        let sample: Vec<&Permutation> =
            (0..REPLAY).map(|i| &stream[(next + i) % stream.len()]).collect();
        StepCosts::replay(sample.iter().copied()).fill(l);
        fill_engine_stats(l, &[before], &[after]);
        let (mut enc, mut dec) = (Vec::new(), Vec::new());
        let mut bytes = Vec::with_capacity(2048);
        for (i, perm) in sample.iter().enumerate() {
            let frame = route_frame(i as u64, i % CONNS, perm);
            bytes.clear();
            enc.push(timed(|| frame.encode(&mut bytes)).1);
            let (decoded, t) = timed(|| decode(&bytes));
            assert!(
                matches!(decoded, Ok(Some((ref f, _))) if *f == frame),
                "frame round trip"
            );
            dec.push(t);
        }
        l.set_ns("serve.encode_p50_ns", &Samples::new(enc), 0.5);
        l.set_ns("serve.decode_p50_ns", &Samples::new(dec), 0.5);
        out.passes.push(plain.pass);
        out.passes.push(run.pass);
        for r in &run.replies {
            let (op, due) = (r.op as u64, (r.op as f64 * 1e9 / RATE) as u64);
            let decoded = due + r.latency;
            for (name, start_ns, dur_ns) in [
                ("op", due, r.latency),
                ("gen.lag", due, lag_of(r.op)),
                (
                    "engine.reported",
                    (decoded - r.decode).saturating_sub(r.engine),
                    r.engine,
                ),
                ("client.decode", decoded - r.decode, r.decode),
            ] {
                out.spans.push(Span { op, name, start_ns, dur_ns });
            }
        }
    }
    let protocol_errors = server.counters().protocol_errors.load(Ordering::Relaxed);
    if traced {
        out.layers.set("serve.protocol_errors", protocol_errors as f64);
    }
    if protocol_errors > 0 {
        out.errors.push(format!("{protocol_errors} protocol errors on the server"));
    }

    // Ledgers: every tenant conserves, and its completions over the
    // timed passes equal the Ok replies its connection received.
    let (rows, conserved) = settled_rows(server.local_addr());
    if !conserved {
        out.errors.push(format!("tenant ledgers do not conserve: {rows:?}"));
    }
    let ok_replies = out.passes.iter().map(|p| p.latency_ns.len() as u64).sum::<u64>();
    let completed = |rows: &[TenantRow]| rows.iter().map(|r| r.completed).sum::<u64>();
    if completed(&rows) - completed(&baseline) != ok_replies {
        out.errors.push(format!(
            "server completed {} requests in the timed passes but the client saw {ok_replies} Ok replies",
            completed(&rows) - completed(&baseline)
        ));
    }
    stop((server, conns));
    for _ in 1..SETUP_REPS {
        stop(out.set_up(build));
    }
    out
}

fn status_metric(s: Status) -> &'static str {
    match s {
        Status::Ok => "serve.status.ok",
        Status::Shed => "serve.status.shed",
        Status::Rejected => "serve.status.rejected",
        Status::QuotaExceeded => "serve.status.quota_exceeded",
        Status::BreakerOpen => "serve.status.breaker_open",
        Status::PlanError => "serve.status.plan_error",
        Status::Failed => "serve.status.failed",
        Status::Draining => "serve.status.draining",
        Status::BadRequest => "serve.status.bad_request",
    }
}
