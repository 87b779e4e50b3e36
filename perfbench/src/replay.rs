//! Per-call step costs. The engine's internal steps are out of the
//! harness's reach, so a traced run replays the workload's own inputs
//! through the public step functions and times each call. This gives
//! cost per call per input class; it does not describe the order in
//! which a worker runs the steps.

use std::collections::HashMap;
use std::sync::Arc;

use benes_core::{class_f, waksman, Benes};
use benes_engine::plan::{execute, plan, Fallback};
use benes_engine::{EngineStats, PlanCache, Tier};
use benes_perm::omega::is_omega;
use benes_perm::Permutation;

use crate::inputs::CACHE_CAPACITY;
use crate::measure::{timed, Samples};
use crate::report::Layers;

/// Cache shard count the engines run with (the engine default).
pub const CACHE_SHARDS: usize = 8;

/// Raw per-call timings, nanoseconds.
#[derive(Default)]
pub struct StepCosts {
    fingerprint: Vec<u64>,
    is_omega: Vec<u64>,
    is_in_f: Vec<u64>,
    self_route: Vec<u64>,
    self_route_omega: Vec<u64>,
    self_route_ok: usize,
    waksman: Vec<u64>,
    realized: Vec<u64>,
    plan: Vec<u64>,
    execute: Vec<u64>,
    cache_get: Vec<u64>,
    /// Per replayed request, the engine work on its path (fingerprint,
    /// cache lookup, plan and execute, or replay of a cached plan),
    /// grouped by the tier the engine would serve it with.
    path_by_tier: HashMap<Tier, Vec<u64>>,
}

impl StepCosts {
    /// Replays `inputs` in request order through every step function,
    /// mirroring the engine's cache with a cache of the same shape.
    pub fn replay<'a>(inputs: impl IntoIterator<Item = &'a Permutation>) -> Self {
        let cache = PlanCache::new(CACHE_CAPACITY, CACHE_SHARDS);
        let mut nets: HashMap<u32, Benes> = HashMap::new();
        let mut c = Self::default();
        for d in inputs {
            let n = d.log2_len().expect("workload permutations have power-of-two length");
            let net = nets.entry(n).or_insert_with(|| Benes::new(n));

            let (_, fp) = timed(|| d.fingerprint());
            c.fingerprint.push(fp);
            c.is_omega.push(timed(|| is_omega(d)).1);
            c.is_in_f.push(timed(|| class_f::is_in_f(d)).1);
            let (routed, t) = timed(|| net.self_route_fast(d).map(|o| o.is_success()));
            c.self_route.push(t);
            c.self_route_ok += usize::from(routed == Ok(true));
            c.self_route_omega.push(timed(|| net.self_route_omega_fast(d)).1);
            let (settings, t) = timed(|| waksman::setup(d));
            c.waksman.push(t);
            let settings = settings.expect("order within the supported range");
            c.realized.push(timed(|| net.realized_permutation(&settings)).1);

            let (cached, get) = timed(|| cache.get(d));
            c.cache_get.push(get);
            let (tier, work) = match cached {
                Some(p) => {
                    let (ok, t) = timed(|| execute(net, d, &p));
                    assert!(ok, "a cached plan must replay its permutation");
                    c.execute.push(t);
                    (Tier::Cached, t)
                }
                None => {
                    let (fresh, tp) = timed(|| plan(d, Fallback::Waksman));
                    let fresh = fresh.expect("workload permutations plan");
                    let (ok, te) = timed(|| execute(net, d, &fresh));
                    assert!(ok, "a fresh plan must realize its permutation");
                    c.plan.push(tp);
                    c.execute.push(te);
                    let tier = fresh.tier();
                    if fresh.is_cacheable() {
                        cache.insert(d, Arc::new(fresh));
                    }
                    (tier, tp + te)
                }
            };
            c.path_by_tier.entry(tier).or_default().push(fp + get + work);
        }
        c
    }

    /// Median engine work on the path of a request the engine served
    /// with `tier` (0 if the replay never took that path).
    pub fn path_p50_ns(&self, tier: Tier) -> u64 {
        self.path_by_tier.get(&tier).map_or(0, |v| Samples::new(v.clone()).quantile(0.5))
    }

    /// Writes the per-call medians and the self-route success ratio.
    pub fn fill(&self, layers: &mut Layers) {
        let p50 = |v: &Vec<u64>| Samples::new(v.clone());
        layers.set_ns("perm.fingerprint_p50_ns", &p50(&self.fingerprint), 0.5);
        layers.set_ns("perm.is_omega_p50_ns", &p50(&self.is_omega), 0.5);
        layers.set_ns("core.is_in_f_p50_ns", &p50(&self.is_in_f), 0.5);
        layers.set_ns("core.self_route_fast_p50_ns", &p50(&self.self_route), 0.5);
        layers.set_ns(
            "core.self_route_omega_fast_p50_ns",
            &p50(&self.self_route_omega),
            0.5,
        );
        layers.set(
            "core.selfroute_success_ratio",
            self.self_route_ok as f64 / self.self_route.len().max(1) as f64,
        );
        layers.set_ns("core.waksman_setup_p50_ns", &p50(&self.waksman), 0.5);
        layers.set_ns("core.realized_permutation_p50_ns", &p50(&self.realized), 0.5);
        layers.set_ns("engine.plan_p50_ns", &p50(&self.plan), 0.5);
        layers.set_ns("engine.execute_p50_ns", &p50(&self.execute), 0.5);
        layers.set_ns("engine.cache_get_p50_ns", &p50(&self.cache_get), 0.5);
    }
}

/// Writes the engine-side layers from a stats snapshot pair: tier mix
/// and cache hit ratio over the traced pass (`before` → `after`), and
/// the queue-wait / service split from the engine's own histograms.
///
/// The histograms are the only source the engine exposes for the
/// wait/service split; their quantiles are bucket upper bounds (within
/// ~6% above the exact value), unlike every other percentile here.
pub fn fill_engine_stats(
    layers: &mut Layers,
    before: &[EngineStats],
    after: &[EngineStats],
) {
    let sum = |v: &[EngineStats], f: fn(&EngineStats) -> u64| v.iter().map(f).sum::<u64>();
    let delta = |f: fn(&EngineStats) -> u64| sum(after, f) - sum(before, f);
    let done = delta(|s| s.completed).max(1) as f64;
    layers.set("engine.tier_share.cached", delta(|s| s.cached) as f64 / done);
    layers.set("engine.tier_share.self-route", delta(|s| s.self_route) as f64 / done);
    layers.set("engine.tier_share.omega-bit", delta(|s| s.omega_bit) as f64 / done);
    layers.set("engine.tier_share.waksman", delta(|s| s.waksman) as f64 / done);
    let hits = delta(|s| s.cache_hits);
    let lookups = hits + delta(|s| s.cache_misses);
    layers.set("engine.cache_hit_ratio", hits as f64 / lookups.max(1) as f64);

    let mut wait = after[0].queue_wait.clone();
    let mut service = after[0].service.clone();
    for s in &after[1..] {
        wait.merge(&s.queue_wait);
        service.merge(&s.service);
    }
    layers.set("engine.queue_wait_p50_us", wait.quantile(0.5) as f64 / 1e3);
    layers.set("engine.queue_wait_p99_us", wait.quantile(0.99) as f64 / 1e3);
    layers.set("engine.service_p50_us", service.quantile(0.5) as f64 / 1e3);
    layers.set("engine.service_p99_us", service.quantile(0.99) as f64 / 1e3);
}
