//! `engine-selfroute` and `engine-setup`: an in-process engine driven
//! by a closed loop of callers, each submitting its next request only
//! after the previous one resolved.

use std::time::{Duration, Instant};

use benes_engine::{Engine, EngineConfig, Tier};
use benes_perm::Permutation;

use crate::inputs::{self, Workload, CACHE_CAPACITY};
use crate::measure::{nanos, process_cpu, rss_peak_mib, Samples};
use crate::replay::{fill_engine_stats, StepCosts, CACHE_SHARDS};
use crate::report::{Outcome, Pass, Span};
use crate::SETUP_REPS;

const WORKERS: usize = 2;
const CALLERS: usize = 2;
/// Requests replayed through the step functions in a traced run.
const REPLAY: usize = 2048;

/// A workload's requests: op `i` routes `pool[order(i)]`.
struct Requests {
    pool: Vec<Permutation>,
    /// Pool index per op (cycled); empty means op `i` is `pool[i % len]`.
    draws: Vec<u32>,
    /// Warm-up ops run during set-up.
    warm_ops: usize,
}

impl Requests {
    fn get(&self, i: usize) -> &Permutation {
        if self.draws.is_empty() {
            &self.pool[i % self.pool.len()]
        } else {
            &self.pool[self.draws[i % self.draws.len()] as usize]
        }
    }
}

fn config() -> EngineConfig {
    EngineConfig {
        workers: WORKERS,
        cache_capacity: CACHE_CAPACITY,
        cache_shards: CACHE_SHARDS,
        ..EngineConfig::default()
    }
}

/// A traced op: start (ns into the pass), round trip, engine-reported
/// latency, and serving tier.
struct TracedOp {
    op: usize,
    start: u64,
    rtt: u64,
    engine: u64,
    tier: Tier,
}

/// What one caller saw.
#[derive(Default)]
struct CallerLog {
    pass: Pass,
    /// Per ok op: (issued, µs into the pass; round trip, ns). Compact
    /// and reserved up front, so the harness's own memory does not
    /// grow with throughput during the pass.
    samples: Vec<(u32, u32)>,
    end: Option<Instant>,
    traced: Vec<TracedOp>,
}

/// Ops per second one caller is assumed never to exceed, for sizing
/// its sample buffer (reserved address space; only pages written
/// become resident).
const MAX_CALLER_RATE: f64 = 250_000.0;

/// Runs ops `first + CALLERS·k + c` until `until` (or `ops` ops in
/// total) from `CALLERS` closed-loop callers. Returns the merged pass
/// and the traced records.
fn closed_loop(
    engine: &Engine,
    req: &Requests,
    first: usize,
    until: Option<Instant>,
    ops: usize,
    traced: bool,
) -> (Pass, Vec<TracedOp>) {
    let start = Instant::now();
    let cpu0 = process_cpu();
    let per_caller = match until {
        Some(t) => (t - start).as_secs_f64() * MAX_CALLER_RATE,
        None => (ops / CALLERS + 1) as f64,
    } as usize;
    let logs: Vec<CallerLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|c| {
                s.spawn(move || {
                    let mut log = CallerLog {
                        samples: Vec::with_capacity(per_caller),
                        ..CallerLog::default()
                    };
                    let mut k = 0;
                    loop {
                        let i = first + CALLERS * k + c;
                        let done = match until {
                            Some(t) => Instant::now() >= t,
                            None => CALLERS * k + c >= ops,
                        };
                        if done {
                            break;
                        }
                        k += 1;
                        let perm = req.get(i).clone();
                        let t0 = Instant::now();
                        let outcome = engine.submit(perm).wait();
                        let rtt = nanos(t0.elapsed());
                        log.pass.attempted += 1;
                        match outcome.result {
                            Ok(tier) => {
                                let at_us = (t0 - start).as_micros();
                                log.samples.push((
                                    u32::try_from(at_us).unwrap_or(u32::MAX),
                                    u32::try_from(rtt).unwrap_or(u32::MAX),
                                ));
                                if traced {
                                    log.traced.push(TracedOp {
                                        op: i,
                                        start: nanos(t0 - start),
                                        rtt,
                                        engine: nanos(outcome.latency),
                                        tier,
                                    });
                                }
                            }
                            Err(e) => log.pass.fail(|| format!("op {i}: engine error {e}")),
                        }
                    }
                    log.end = Some(Instant::now());
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect()
    });
    let end = logs.iter().filter_map(|l| l.end).max().unwrap_or(start);
    let cpu = process_cpu() - cpu0;
    // Peak RSS up to now, less the sample buffers the callers filled.
    let sample_bytes: usize =
        logs.iter().map(|l| l.samples.len() * std::mem::size_of::<(u32, u32)>()).sum();
    let rss_peak_mib = rss_peak_mib() - sample_bytes as f64 / (1024.0 * 1024.0);
    let mut pass = Pass { window: end - start, cpu, rss_peak_mib, ..Pass::default() };
    let mut traced_ops = Vec::new();
    for log in logs {
        pass.attempted += log.pass.attempted;
        pass.failed += log.pass.failed;
        for (at_us, rtt) in log.samples {
            pass.ok(u64::from(at_us) * 1000, u64::from(rtt));
        }
        pass.errors.extend(log.pass.errors);
        traced_ops.extend(log.traced);
    }
    (pass, traced_ops)
}

pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let req = match w {
        Workload::EngineSelfroute => Requests {
            pool: inputs::selfroute_inputs(seed),
            draws: Vec::new(),
            warm_ops: 2000,
        },
        _ => {
            let (pool, draws) = inputs::setup_inputs(seed);
            // Fill the cache: `pool` uniform draws touch ~63% of the pool,
            // about twice the cache capacity.
            Requests { pool, draws, warm_ops: inputs::SETUP_POOL }
        }
    };
    let mut out = Outcome {
        params: vec![
            ("n", inputs::ORDER.to_string()),
            ("pool", req.pool.len().to_string()),
            ("workers", WORKERS.to_string()),
            ("callers", CALLERS.to_string()),
            ("cache_capacity", CACHE_CAPACITY.to_string()),
            ("loop", "closed".to_string()),
        ],
        ..Outcome::default()
    };

    // Set-up: build the engine and run the warm-up ops.
    let build = || {
        let engine = Engine::new(config());
        let (warm, _) = closed_loop(&engine, &req, 0, None, req.warm_ops, false);
        (engine, warm.errors)
    };
    let engine = out.set_up(build);

    let first = req.warm_ops;
    if !traced {
        let until = Instant::now() + Duration::from_secs_f64(seconds);
        let (pass, _) = closed_loop(&engine, &req, first, Some(until), 0, false);
        out.passes.push(pass);
    } else {
        let half = Duration::from_secs_f64(seconds / 2.0);
        let (plain, _) =
            closed_loop(&engine, &req, first, Some(Instant::now() + half), 0, false);
        let before = engine.stats();
        let (pass, ops) = closed_loop(
            &engine,
            &req,
            first + plain.attempted as usize,
            Some(Instant::now() + half),
            0,
            true,
        );
        let after = engine.stats();
        let costs = StepCosts::replay((0..REPLAY).map(|i| req.get(first + i)));
        costs.fill(&mut out.layers);
        fill_engine_stats(&mut out.layers, &[before], &[after]);

        let l = &mut out.layers;
        let wake: Vec<u64> = ops.iter().map(|o| o.rtt.saturating_sub(o.engine)).collect();
        l.set_us("engine.wake_p50_us", &Samples::new(wake), 0.5);
        let unattributed: Vec<u64> =
            ops.iter().map(|o| o.rtt.saturating_sub(costs.path_p50_ns(o.tier))).collect();
        l.set_us("trace.unattributed_p50_us", &Samples::new(unattributed), 0.5);
        let ratio = pass.latency_quantile(0.5) / plain.latency_quantile(0.5).max(1.0);
        l.set("trace.overhead_ratio", ratio);
        out.passes.push(plain);
        out.passes.push(pass);
        for o in &ops {
            let op = o.op as u64;
            out.spans.push(Span { op, name: "op", start_ns: o.start, dur_ns: o.rtt });
            out.spans.push(Span {
                op,
                name: "engine.reported",
                start_ns: (o.start + o.rtt).saturating_sub(o.engine),
                dur_ns: o.engine,
            });
        }
    }

    let stats = engine.stats();
    if !stats.conserves_requests() {
        out.errors.push(format!(
            "engine ledger does not conserve: submitted {} completed {} failed {}",
            stats.submitted, stats.completed, stats.failed
        ));
    }
    drop(engine);
    for _ in 1..SETUP_REPS {
        drop(out.set_up(build));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use benes_engine::{Plan, PlanCache};
    use std::sync::Arc;

    /// `engine-setup`'s draws against a cache of the engine's shape:
    /// after the set-up warm-up, about a third of the lookups hit.
    #[test]
    fn setup_hit_ratio_stays_in_band() {
        let (pool, draws) = inputs::setup_inputs(3);
        let cache = PlanCache::new(CACHE_CAPACITY, CACHE_SHARDS);
        let mut hits = 0;
        let measured = 4 * inputs::SETUP_POOL;
        for (i, &d) in draws.iter().take(inputs::SETUP_POOL + measured).enumerate() {
            let perm = &pool[d as usize];
            let hit = cache.get(perm).is_some();
            if !hit {
                cache.insert(perm, Arc::new(Plan::SelfRoute));
            }
            if i >= inputs::SETUP_POOL {
                hits += usize::from(hit);
            }
        }
        let ratio = hits as f64 / measured as f64;
        assert!((0.28..=0.40).contains(&ratio), "hit ratio {ratio} outside [0.28, 0.40]");
    }
}
