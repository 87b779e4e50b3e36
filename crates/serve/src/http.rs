//! A minimal pooled HTTP/1.0 server for metrics expositions.
//!
//! This replaces the single-threaded blocking scrape loop the
//! observability example used to hand-roll, which had two wedges:
//! a client that connected and sent nothing stalled every later scrape
//! forever (blocking `read_line`, no read timeout, one connection at a
//! time), and the handler asserted on workload outcomes before even
//! routing the request path. Here every connection is served by a
//! small handler pool with a per-connection **read timeout**: a silent
//! connection times out and is dropped without ever delaying another
//! scrape, and the route handler is a plain closure — policy (what a
//! 404 does, what runs per scrape) stays with the caller.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::server::loopback;

/// One HTTP response, produced by the route handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status line text, e.g. `"200 OK"` or `"404 Not Found"`.
    pub status: String,
    /// The `Content-Type` header value.
    pub content_type: String,
    /// The response body.
    pub body: String,
}

impl HttpResponse {
    /// A `200 OK` with the given content type.
    #[must_use]
    pub fn ok(content_type: &str, body: String) -> Self {
        Self { status: "200 OK".into(), content_type: content_type.into(), body }
    }

    /// A `404 Not Found` with a plain-text hint.
    #[must_use]
    pub fn not_found(hint: &str) -> Self {
        Self {
            status: "404 Not Found".into(),
            content_type: "text/plain".into(),
            body: hint.to_string(),
        }
    }
}

/// Tuning for [`serve_http`].
#[derive(Debug, Clone)]
pub struct HttpOptions {
    /// Handler pool size (concurrent scrapes served).
    pub threads: usize,
    /// Per-connection read timeout: a connection that sends no request
    /// line within this window is dropped.
    pub read_timeout: Duration,
    /// Stop after this many *served* responses (`None`: run forever).
    /// Timed-out or malformed connections do not count.
    pub max_requests: Option<u64>,
}

impl Default for HttpOptions {
    fn default() -> Self {
        Self { threads: 4, read_timeout: Duration::from_secs(2), max_requests: None }
    }
}

/// Serves `GET` requests on `listener` with `opts.threads` handler
/// threads, each blocking in `accept` on it and routing each request's
/// path through `handler`. Returns once `opts.max_requests` responses
/// have been served (never when `None`): the handler that serves the
/// last one wakes the others' accepts with loopback connects. Returns
/// the number served.
///
/// The request path (everything after the method, before the HTTP
/// version) is passed to `handler` verbatim; the handler's response is
/// written back HTTP/1.0-style with `Connection: close`.
pub fn serve_http<F>(listener: TcpListener, opts: HttpOptions, handler: F) -> u64
where
    F: Fn(&str) -> HttpResponse + Send + Sync + 'static,
{
    let served = AtomicU64::new(0);
    let done =
        || opts.max_requests.is_some_and(|max| served.load(Ordering::Acquire) >= max);
    let (threads, wake) = (opts.threads.max(1), listener.local_addr().ok().map(loopback));
    // A one-slot wake for a handler whose accept failed (out of
    // descriptors, most likely): another handler closed a connection.
    let (closed, closes) = sync_channel::<()>(1);
    let closes = Mutex::new(closes);
    // A listener handed over in nonblocking mode would turn the
    // blocking accepts into spins.
    if done() || listener.set_nonblocking(false).is_err() {
        return 0;
    }
    let serve = || {
        while !done() {
            match listener.accept() {
                Ok((stream, _)) if !done() => {
                    let answered = handle_conn(stream, opts.read_timeout, &handler);
                    let n = served.fetch_add(u64::from(answered), Ordering::AcqRel);
                    if answered && Some(n + 1) == opts.max_requests {
                        for addr in std::iter::repeat_n(wake, threads - 1).flatten() {
                            // analyze:allow(discarded-result): a refused connect means the accepts are gone
                            let _ = TcpStream::connect(addr);
                        }
                    }
                }
                // Accepted after the last allowed response: a wake.
                Ok(_) => {}
                // A connection reset in the backlog costs only itself.
                Err(e) if e.kind() == ErrorKind::ConnectionAborted => {}
                Err(_) => {
                    // analyze:allow(discarded-result): this handler keeps a sender alive
                    let _ = closes.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    continue;
                }
            }
            // analyze:allow(discarded-result): a full slot already holds a wake
            let _ = closed.try_send(());
        }
        // Passes the wake on to a handler still waiting for one.
        // analyze:allow(discarded-result): a full slot already holds a wake
        let _ = closed.try_send(());
    };
    std::thread::scope(|s| {
        for i in 0..threads {
            let thread = std::thread::Builder::new().name(format!("benes-http-{i}"));
            thread.spawn_scoped(s, serve).expect("spawn http handler");
        }
    });
    served.load(Ordering::Relaxed)
}

/// Serves one connection: reads the request line under the timeout,
/// routes the path, writes the response. `true` iff a response was
/// written.
fn handle_conn<F>(mut stream: TcpStream, read_timeout: Duration, handler: &F) -> bool
where
    F: Fn(&str) -> HttpResponse + ?Sized,
{
    // The whole point: a silent connection must release this handler
    // thread after `read_timeout`, not hold it forever.
    if stream.set_read_timeout(Some(read_timeout)).is_err() {
        return false;
    }
    let mut line = String::new();
    if BufReader::new(&mut stream).read_line(&mut line).is_err() || line.is_empty() {
        return false;
    }
    let Some(path) = line.split_whitespace().nth(1) else {
        return false;
    };
    let resp = handler(path);
    let payload = format!(
        "HTTP/1.0 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        resp.status,
        resp.content_type,
        resp.body.len(),
        resp.body
    );
    // A scraper hanging up mid-response is its problem, not ours.
    // analyze:allow(discarded-result): peer may disconnect early
    let _ = stream.write_all(payload.as_bytes());
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpStream;

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read response");
        out
    }

    #[test]
    fn routes_and_counts_served_responses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            serve_http(
                listener,
                HttpOptions { max_requests: Some(2), ..HttpOptions::default() },
                |path| match path {
                    "/ping" => HttpResponse::ok("text/plain", "pong".into()),
                    other => HttpResponse::not_found(&format!("no {other}")),
                },
            )
        });
        let ok = get(addr, "/ping");
        assert!(ok.starts_with("HTTP/1.0 200 OK"), "{ok}");
        assert!(ok.ends_with("pong"), "{ok}");
        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404 Not Found"), "{missing}");
        assert_eq!(t.join().unwrap(), 2);
    }

    #[test]
    fn silent_connection_does_not_stall_other_scrapes() {
        // Regression for the obs_service wedge: a client that connects
        // and sends nothing used to block the single-threaded accept
        // loop forever. With the pool + read timeout, scrapes keep
        // flowing while the silent connection idles and is dropped.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            serve_http(
                listener,
                HttpOptions {
                    threads: 2,
                    read_timeout: Duration::from_millis(200),
                    max_requests: Some(3),
                },
                |_| HttpResponse::ok("text/plain", "metrics".into()),
            )
        });
        // Hold a silent connection open for the whole test.
        let silent = TcpStream::connect(addr).expect("silent connect");
        for _ in 0..3 {
            let resp = get(addr, "/metrics");
            assert!(resp.starts_with("HTTP/1.0 200 OK"), "{resp}");
        }
        assert_eq!(t.join().unwrap(), 3, "silent conn never counted as served");
        drop(silent);
    }
}
