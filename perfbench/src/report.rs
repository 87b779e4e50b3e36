//! What one run measured, and how it is printed: human-readable lines
//! first, then the single JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::measure::Samples;

/// Every per-layer metric the traced run prints, with its unit. A
/// metric a workload does not set is a layer it never calls: it is
/// reported as 0 and marked not applicable in the human-readable output.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p99_us", "us"),
    ("failed_ratio", "ratio"),
    ("gen.lag_p99_us", "us"),
    ("gen.offered_ops_s", "ops/s"),
    ("perm.fingerprint_p50_ns", "ns"),
    ("perm.is_omega_p50_ns", "ns"),
    ("core.is_in_f_p50_ns", "ns"),
    ("core.self_route_fast_p50_ns", "ns"),
    ("core.self_route_omega_fast_p50_ns", "ns"),
    ("core.selfroute_success_ratio", "ratio"),
    ("core.waksman_setup_p50_ns", "ns"),
    ("core.realized_permutation_p50_ns", "ns"),
    ("engine.plan_p50_ns", "ns"),
    ("engine.execute_p50_ns", "ns"),
    ("engine.cache_get_p50_ns", "ns"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.tier_share.cached", "ratio"),
    ("engine.tier_share.self-route", "ratio"),
    ("engine.tier_share.omega-bit", "ratio"),
    ("engine.tier_share.waksman", "ratio"),
    ("engine.queue_wait_p50_us", "us"),
    ("engine.queue_wait_p99_us", "us"),
    ("engine.service_p50_us", "us"),
    ("engine.service_p99_us", "us"),
    ("engine.wake_p50_us", "us"),
    ("serve.encode_p50_ns", "ns"),
    ("serve.decode_p50_ns", "ns"),
    ("serve.engine_p50_us", "us"),
    ("serve.overhead_p50_us", "us"),
    ("serve.overhead_p99_us", "us"),
    ("serve.inflight_max", "count"),
    ("serve.status.ok", "count"),
    ("serve.status.shed", "count"),
    ("serve.status.rejected", "count"),
    ("serve.status.quota_exceeded", "count"),
    ("serve.status.breaker_open", "count"),
    ("serve.status.plan_error", "count"),
    ("serve.status.failed", "count"),
    ("serve.status.draining", "count"),
    ("serve.status.bad_request", "count"),
    ("serve.protocol_errors", "count"),
    ("shard.decompose_p50_us", "us"),
    ("shard.recombine_verify_p50_us", "us"),
    ("shard.scatter_gather_p50_us", "us"),
    ("shard.unit_p50_us", "us"),
    ("shard.unit_p99_us", "us"),
    ("shard.slowest_unit_p50_us", "us"),
    ("shard.remote_service_p50_us", "us"),
    ("shard.retries", "count"),
    ("shard.failovers", "count"),
    ("shard.hedges", "count"),
    ("shard.reconnects", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_p50_us", "us"),
];

/// Per-layer values a workload measured; names must come from
/// [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "per-layer metric {name} is not declared in PER_LAYER"
        );
        self.0.insert(name, value);
    }

    /// Sets a nanosecond sample set's `q`-quantile, in microseconds.
    pub fn set_us(&mut self, name: &'static str, samples: &Samples, q: f64) {
        self.set(name, samples.quantile(q) as f64 / 1e3);
    }

    /// Sets a nanosecond sample set's quantile, in nanoseconds.
    pub fn set_ns(&mut self, name: &'static str, samples: &Samples, q: f64) {
        self.set(name, samples.quantile(q) as f64);
    }
}

/// One timed pass: raw per-op latencies plus what the window cost.
#[derive(Debug, Default)]
pub struct Pass {
    /// Ops issued in the timed window.
    pub attempted: u64,
    /// Ops that failed, were refused, returned a wrong output, or were
    /// never answered.
    pub failed: u64,
    /// Per-op latency of every successful op, in nanoseconds.
    pub latency_ns: Vec<u64>,
    /// When each successful op was issued (or, open loop, scheduled),
    /// ns into the pass; parallel to `latency_ns`.
    pub issued_ns: Vec<u64>,
    /// First op start → last op completion.
    pub window: Duration,
    /// Process CPU (user + sys) spent over the window.
    pub cpu: Duration,
    /// Peak RSS (`VmHWM`) at the end of the window, in MiB, less any
    /// harness buffer that grows with the number of ops completed.
    pub rss_peak_mib: f64,
    /// One line per failed op or broken invariant (first few kept).
    pub errors: Vec<String>,
}

/// Most time windows a pass's percentiles are taken over.
const MAX_WINDOWS: usize = 40;
/// Fewest samples per window: a p99 keeps ten samples beyond it.
const MIN_WINDOW_SAMPLES: usize = 1000;

impl Pass {
    /// Records a successful op.
    pub fn ok(&mut self, issued_ns: u64, latency_ns: u64) {
        self.issued_ns.push(issued_ns);
        self.latency_ns.push(latency_ns);
    }

    /// How many equal time windows the pass is cut into: as many as
    /// hold `MIN_WINDOW_SAMPLES` each on average, at most `MAX_WINDOWS`.
    pub fn windows(&self) -> usize {
        (self.latency_ns.len() / MIN_WINDOW_SAMPLES).clamp(1, MAX_WINDOWS)
    }

    /// The latency `q`-quantile in ns: the pass is cut into equal
    /// windows by issue time, each window's exact quantile is taken
    /// from its raw samples, and the median over windows is reported,
    /// so one stall of the shared machine moves one window, not the
    /// figure.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let w = self.windows();
        let span = self.issued_ns.iter().max().map_or(1, |m| m + 1);
        let mut buckets = vec![Vec::new(); w];
        for (&at, &lat) in self.issued_ns.iter().zip(&self.latency_ns) {
            let i = (u128::from(at) * w as u128 / u128::from(span)) as usize;
            buckets[i].push(lat);
        }
        let per_window: Vec<f64> = buckets
            .into_iter()
            .filter(|b| !b.is_empty())
            .map(|b| Samples::new(b).quantile(q) as f64)
            .collect();
        crate::measure::median(&per_window)
    }

    /// Records a failure, keeping the first few descriptions.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what());
        }
    }
}

/// One interval the harness timed around a call into the program (or,
/// for `engine.reported`, the interval the program reported), relative
/// to the start of its pass.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Writes `spans` as tab-separated lines to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "op\tspan\tstart_ns\tdur_ns")?;
    for s in spans {
        writeln!(w, "{}\t{}\t{}\t{}", s.op, s.name, s.start_ns, s.dur_ns)?;
    }
    w.flush()
}

/// Everything one benchmark invocation produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload parameters, recorded with the result.
    pub params: Vec<(&'static str, String)>,
    /// Each set-up repetition, seconds; `setup_s` is their median.
    pub setups: Vec<f64>,
    /// Timed passes (one untraced; a traced run adds a traced one).
    pub passes: Vec<Pass>,
    /// Invariant violations found after the passes (ledgers, stats).
    pub errors: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
    /// The traced pass's spans, kept in memory until the run ends.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Times one set-up: `build` constructs the instance and warms it
    /// up, returning it with a line per wrong warm-up output.
    pub fn set_up<T>(&mut self, build: impl FnOnce() -> (T, Vec<String>)) -> T {
        let start = std::time::Instant::now();
        let (built, errors) = build();
        self.setups.push(start.elapsed().as_secs_f64());
        self.errors.extend(errors);
        built
    }
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite, got {v}");
    format!("{v}")
}

/// Prints the run's human-readable lines and its final JSON line, and
/// returns whether every output was correct.
pub fn print(workload: &str, seed: u64, seconds: f64, traced: bool, out: &Outcome) -> bool {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let attempted: u64 = out.passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = out.passes.iter().map(|p| p.failed).sum();
    let errors: Vec<&String> =
        out.passes.iter().flat_map(|p| &p.errors).chain(&out.errors).collect();
    let correct = failed == 0 && errors.is_empty() && attempted > 0;

    let params: Vec<String> =
        out.params.iter().map(|(k, v)| format!("\"{k}\":\"{v}\"")).collect();
    let setups: Vec<String> = out.setups.iter().map(|s| json_number(*s)).collect();
    println!(
        "{{\"run\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\
         \"trace\":{},\"nproc\":{nproc},\"params\":{{{}}},\"setup_reps_s\":[{}]}}}}",
        u8::from(traced),
        params.join(","),
        setups.join(","),
    );
    for e in &errors {
        eprintln!("perfbench: {workload}: {e}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if traced {
        for (name, unit) in PER_LAYER {
            let set = out.layers.0.get(name).copied();
            let value = set.unwrap_or(0.0);
            let na = if set.is_none() { "  (not applicable)" } else { "" };
            println!("{name:<36} {value:>14.3} {unit}{na}");
            metrics.push((name, value, unit));
        }
    } else {
        // The end-to-end figures are the untraced pass's.
        let pass = &out.passes[0];
        let whole = Samples::new(pass.latency_ns.clone());
        let ok_ops = whole.len() as f64;
        let windows = pass.windows();
        println!(
            "latency samples {ok_ops} (ok ops) in {windows} windows of ~{} each; \
             whole-pass p50 {:.3} us, p99 {:.3} us with {} beyond",
            whole.len() / windows,
            whole.quantile(0.5) as f64 / 1e3,
            whole.quantile(0.99) as f64 / 1e3,
            whole.beyond(0.99)
        );
        if whole.len() / windows < MIN_WINDOW_SAMPLES {
            println!("warning: fewer than 10 samples beyond p99; latency_p99_us is thin");
        }
        let rows = [
            ("throughput_ops_s", ok_ops / pass.window.as_secs_f64().max(1e-9), "ops/s"),
            ("latency_p50_us", pass.latency_quantile(0.5) / 1e3, "us"),
            ("cpu_us_per_op", pass.cpu.as_secs_f64() * 1e6 / ok_ops.max(1.0), "us"),
            ("rss_peak_mib", pass.rss_peak_mib, "MiB"),
            ("setup_s", crate::measure::median(&out.setups), "s"),
        ];
        // Printed, not gated: a spell of CPU taken by neighbours on a
        // shared host moves the p99 of a whole run 2-3x (see README).
        let failed_ratio = pass.failed as f64 / pass.attempted.max(1) as f64;
        println!("{:<36} {failed_ratio:>14.6} ratio", "failed_ratio");
        let p99 = pass.latency_quantile(0.99) / 1e3;
        println!("{:<36} {p99:>14.6} us", "latency_p99_us");
        for (name, value, unit) in rows {
            println!("{name:<36} {value:>14.6} {unit}");
            metrics.push((name, value, unit));
        }
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
            assert!(
                PER_LAYER[..i].iter().all(|(n, _)| n != name),
                "{name} is declared twice"
            );
            let decl = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        assert_eq!(spec.matches("\"better\"").count(), PER_LAYER.len() + 5);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_layer_names_are_refused() {
        Layers::default().set("engine.no_such_metric", 1.0);
    }
}

#[cfg(test)]
mod window_tests {
    use super::*;

    #[test]
    fn windowed_quantile_is_the_median_over_windows() {
        let mut pass = Pass::default();
        // 10 windows of 1000 ops; window w has latencies w*1000+1 ..= w*1000+1000.
        for i in 0..10_000u64 {
            pass.ok(i, i + 1);
        }
        assert_eq!(pass.windows(), 10);
        // Per-window p50s are 500, 1500, …, 9500; their median is 5000.
        assert_eq!(pass.latency_quantile(0.5), 5000.0);
        let mut long = Pass::default();
        for i in 0..100_000u64 {
            long.ok(i, 1);
        }
        assert_eq!(long.windows(), MAX_WINDOWS);

        // A stall confined to one window leaves the median unmoved.
        let mut stalled = Pass::default();
        for i in 0..10_000u64 {
            stalled.ok(i, if i < 1000 { 1_000_000 } else { 7 });
        }
        assert_eq!(stalled.latency_quantile(0.99), 7.0);

        // Too few samples for two windows: one window, the exact value.
        let mut small = Pass::default();
        for i in 0..100u64 {
            small.ok(i, 100 - i);
        }
        assert_eq!(small.windows(), 1);
        assert_eq!(small.latency_quantile(0.99), 99.0);
    }
}
