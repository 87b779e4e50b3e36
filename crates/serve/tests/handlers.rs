//! Cross-handler wakeups. Handlers block on their event channels with
//! no timer to fall back on, so a handler whose scheduler backlog sits
//! behind a full engine queue, with nothing of its own in flight, must
//! be woken by another handler's completions freeing the slot.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use benes_engine::EngineConfig;
use benes_serve::proto::{Frame, Status};
use benes_serve::server::{ServeConfig, Server};
use benes_serve::Client;

#[test]
fn parked_handler_resumes_when_another_handler_frees_queue_space() {
    // Two handlers contend for a one-slot engine queue: every request
    // of either one spends time parked behind `QueueFull`.
    let config = ServeConfig {
        threads: 2,
        engine: EngineConfig {
            workers: 1,
            max_queue_depth: Some(1),
            ..EngineConfig::default()
        },
        read_timeout: Duration::from_secs(30),
        quota: 1024,
        quantum: 64,
        allow_drain: false,
        drain_grace: Duration::from_secs(5),
    };
    let server = Server::start("127.0.0.1:0", config).expect("start");
    // Connections are dealt to handlers round-robin, so these two
    // pipelining connections land on different handlers.
    let mut conns: Vec<(u64, Client)> = (1..=2)
        .map(|tenant| {
            let client = Client::connect(server.local_addr()).expect("connect");
            client.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            (tenant, client)
        })
        .collect();
    const K: u64 = 200;
    for (tenant, client) in &mut conns {
        let frames: Vec<Frame> = (0..K)
            .map(|i| Frame::Route {
                req_id: i,
                tenant: *tenant,
                deadline_ms: 0,
                destinations: (0..8u32).map(|d| (d + i as u32) % 8).collect(),
            })
            .collect();
        client.send_all(&frames).expect("pipeline");
    }
    for (tenant, client) in &mut conns {
        let mut answered = HashSet::new();
        for _ in 0..K {
            match client.recv() {
                Ok(Frame::RouteReply { req_id, status: Status::Ok, .. }) => {
                    assert!(answered.insert(req_id), "tenant {tenant}: req {req_id} twice");
                }
                Ok(other) => panic!("tenant {tenant}: unexpected {other:?}"),
                Err(e) => panic!(
                    "tenant {tenant}: {} of {K} answered, then {e} (a lost wakeup)",
                    answered.len()
                ),
            }
        }
    }
    // Every request was admitted exactly once and every ledger
    // conserves. The engine's `rejected` count is each `QueueFull` the
    // handlers requeued behind, so it shows they really did park.
    let (_, client) = &mut conns[0];
    client.send(&Frame::Stats).expect("stats");
    let Ok(Frame::StatsReply { rows }) = client.recv() else {
        panic!("expected StatsReply")
    };
    let mut parked = 0;
    for tenant in 1..=2 {
        let row = rows.iter().find(|r| r.tenant == tenant).expect("tenant row");
        assert!(row.conserves_requests(), "{row:?}");
        assert_eq!((row.submitted, row.completed), (K, K), "{row:?}");
        parked += row.rejected;
    }
    assert!(parked > 0, "the one-slot queue never filled: the test proves nothing");
    drop(conns);
    server.shutdown(Instant::now() + Duration::from_secs(5));
}
