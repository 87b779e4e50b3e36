//! `fleet-rounds`: a shard coordinator over two remote shards, each a
//! wire server on loopback, driven by one closed-loop caller routing
//! fresh `2^12` permutations (192 units of `2^6` per round).

use std::time::{Duration, Instant};

use benes_engine::{EngineConfig, EngineStats};
use benes_perm::Permutation;
use benes_serve::{ServeConfig, Server};
use benes_shard::{Backend, RemoteConfig, RemoteShard, ShardConfig, ShardCoordinator};

use crate::inputs::{self, CACHE_CAPACITY, FLEET_ORDER};
use crate::measure::{nanos, process_cpu, rss_peak_mib, timed, Samples};
use crate::replay::{fill_engine_stats, StepCosts, CACHE_SHARDS};
use crate::report::{Outcome, Pass, Span};
use crate::SETUP_REPS;

const SHARDS: usize = 2;
const HANDLER_THREADS: usize = 1;
const WORKERS: usize = 1;
/// Rounds routed during set-up (connects happen on the first).
const WARM_ROUNDS: usize = 4;
/// Traced rounds whose decomposition and recombination are replayed.
const REPLAY_ROUNDS: usize = 64;
/// Traced rounds whose units are replayed through the step functions.
const REPLAY_UNIT_ROUNDS: usize = 8;

struct Fleet {
    coord: ShardCoordinator,
    servers: Vec<Server>,
}

impl Fleet {
    fn start() -> Self {
        let config = ServeConfig {
            threads: HANDLER_THREADS,
            engine: EngineConfig {
                workers: WORKERS,
                cache_capacity: CACHE_CAPACITY,
                cache_shards: CACHE_SHARDS,
                max_queue_depth: Some(4096),
                ..EngineConfig::default()
            },
            ..ServeConfig::default()
        };
        let servers: Vec<Server> = (0..SHARDS)
            .map(|_| {
                Server::start("127.0.0.1:0", config.clone()).expect("start a shard server")
            })
            .collect();
        let backends: Vec<Box<dyn Backend>> = servers
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut rc = RemoteConfig::new(s.local_addr().to_string());
                rc.tenant = i as u64 + 1;
                Box::new(RemoteShard::new(rc, i)) as Box<dyn Backend>
            })
            .collect();
        let coord = ShardCoordinator::with_backends(ShardConfig::default(), backends);
        Self { coord, servers }
    }

    fn stop(self) {
        // Close the coordinator's connections before the servers stop.
        drop(self.coord);
        for s in self.servers {
            s.shutdown(Instant::now() + Duration::from_secs(2));
        }
    }

    fn engine_stats(&self) -> Vec<EngineStats> {
        self.servers.iter().map(|s| s.engine().stats()).collect()
    }
}

/// Per traced round: its input index, start (ns into the pass), wall
/// time, and unit latencies.
struct RoundTrace {
    input: usize,
    start: u64,
    wall: u64,
    units: Vec<u64>,
}

fn rounds(
    fleet: &Fleet,
    inputs: &[Permutation],
    first: usize,
    until: Option<Instant>,
    count: usize,
    traced: bool,
) -> (Pass, Vec<RoundTrace>) {
    let cpu0 = process_cpu();
    let start = Instant::now();
    let mut pass = Pass::default();
    let mut trace = Vec::new();
    for k in 0.. {
        let done = match until {
            Some(t) => Instant::now() >= t,
            None => k >= count,
        };
        if done {
            break;
        }
        let input = (first + k) % inputs.len();
        let pi = &inputs[input];
        pass.attempted += 1;
        let t0 = Instant::now();
        let routed = fleet.coord.route(pi);
        let wall = nanos(t0.elapsed());
        match routed {
            Ok(out) if out.verified => {
                pass.ok(nanos(t0 - start), wall);
                if traced {
                    let units = out.units.iter().map(|u| nanos(u.latency)).collect();
                    let start = nanos(t0 - start);
                    trace.push(RoundTrace { input, start, wall, units });
                }
            }
            Ok(out) => pass.fail(|| format!("round {k}: not verified: {}", out.summary())),
            Err(e) => pass.fail(|| format!("round {k}: {e}")),
        }
    }
    pass.window = start.elapsed();
    pass.cpu = process_cpu() - cpu0;
    pass.rss_peak_mib = rss_peak_mib();
    (pass, trace)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let inputs = inputs::fleet_inputs(seed);
    let mut out = Outcome {
        params: vec![
            ("n", FLEET_ORDER.to_string()),
            ("shards", SHARDS.to_string()),
            ("pool", inputs.len().to_string()),
            ("handler_threads_per_shard", HANDLER_THREADS.to_string()),
            ("workers_per_shard", WORKERS.to_string()),
            ("callers", "1".to_string()),
            ("loop", "closed".to_string()),
        ],
        ..Outcome::default()
    };

    // Set-up: start the servers and the coordinator, then route the
    // warm-up rounds (the first one connects).
    let build = || {
        let fleet = Fleet::start();
        let (warm, _) = rounds(&fleet, &inputs, 0, None, WARM_ROUNDS, false);
        (fleet, warm.errors)
    };
    let fleet = out.set_up(build);

    if !traced {
        let until = Instant::now() + Duration::from_secs_f64(seconds);
        out.passes.push(rounds(&fleet, &inputs, WARM_ROUNDS, Some(until), 0, false).0);
    } else {
        let half = Duration::from_secs_f64(seconds / 2.0);
        let (plain, _) =
            rounds(&fleet, &inputs, WARM_ROUNDS, Some(Instant::now() + half), 0, false);
        let next = WARM_ROUNDS + plain.attempted as usize;
        let before = fleet.engine_stats();
        let (pass, trace) =
            rounds(&fleet, &inputs, next, Some(Instant::now() + half), 0, true);
        let after = fleet.engine_stats();
        let l = &mut out.layers;

        let (mut dec, mut rec, mut sg, mut unattributed) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for r in trace.iter().take(REPLAY_ROUNDS) {
            let pi = &inputs[r.input];
            let (d, td) = timed(|| fleet.coord.decompose_for(pi));
            let d = d.expect("power-of-two permutations decompose");
            let (ok, tr) = timed(|| d.recombines_to(pi));
            assert!(ok, "a fresh decomposition recombines to its permutation");
            let slowest = r.units.iter().copied().max().unwrap_or(0);
            dec.push(td);
            rec.push(tr);
            sg.push(r.wall.saturating_sub(td + tr));
            unattributed.push(r.wall.saturating_sub(td + tr + slowest));
        }
        l.set_us("shard.decompose_p50_us", &Samples::new(dec), 0.5);
        l.set_us("shard.recombine_verify_p50_us", &Samples::new(rec), 0.5);
        l.set_us("shard.scatter_gather_p50_us", &Samples::new(sg), 0.5);
        l.set_us("trace.unattributed_p50_us", &Samples::new(unattributed), 0.5);
        let units =
            Samples::new(trace.iter().flat_map(|r| r.units.iter().copied()).collect());
        l.set_us("shard.unit_p50_us", &units, 0.5);
        l.set_us("shard.unit_p99_us", &units, 0.99);
        let slowest = trace.iter().map(|r| r.units.iter().copied().max().unwrap_or(0));
        l.set_us("shard.slowest_unit_p50_us", &Samples::new(slowest.collect()), 0.5);
        let mut service = after[0].service.clone();
        for s in &after[1..] {
            service.merge(&s.service);
        }
        l.set("shard.remote_service_p50_us", service.quantile(0.5) as f64 / 1e3);
        let ratio = pass.latency_quantile(0.5) / plain.latency_quantile(0.5).max(1.0);
        l.set("trace.overhead_ratio", ratio);

        let units: Vec<Permutation> = trace
            .iter()
            .take(REPLAY_UNIT_ROUNDS)
            .flat_map(|r| {
                let d = fleet.coord.decompose_for(&inputs[r.input]).expect("decomposes");
                d.stage1()
                    .iter()
                    .chain(d.between())
                    .chain(d.stage3())
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        StepCosts::replay(&units).fill(l);
        fill_engine_stats(l, &before, &after);
        out.passes.push(plain);
        out.passes.push(pass);
        for (k, r) in trace.iter().enumerate() {
            let op = k as u64;
            out.spans.push(Span { op, name: "round", start_ns: r.start, dur_ns: r.wall });
            for &u in &r.units {
                out.spans.push(Span {
                    op,
                    name: "shard.unit",
                    start_ns: r.start,
                    dur_ns: u,
                });
            }
        }
    }

    let fs = fleet.coord.fleet_stats();
    if !fs.conserves_requests() {
        out.errors.push(format!("fleet ledgers do not conserve:\n{}", fs.report()));
    }
    if traced {
        let l = &mut out.layers;
        l.set("shard.retries", fs.retries() as f64);
        l.set("shard.failovers", fs.failovers() as f64);
        l.set("shard.hedges", fs.hedges() as f64);
        l.set("shard.reconnects", fs.reconnects() as f64);
        let protocol_errors: u64 = fleet
            .servers
            .iter()
            .map(|s| {
                s.counters().protocol_errors.load(std::sync::atomic::Ordering::Relaxed)
            })
            .sum();
        l.set("serve.protocol_errors", protocol_errors as f64);
    }
    fleet.stop();
    for _ in 1..SETUP_REPS {
        out.set_up(build).stop();
    }
    out
}
