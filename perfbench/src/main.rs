//! The benes benchmark: end-to-end metrics of the engine, the wire
//! service and the shard fleet, and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `engine-selfroute`, `engine-setup`, `serve-open`,
//! `fleet-rounds` (see `perfbench/README.md`). The last stdout line is
//! the JSON result; the process exits nonzero if any output was wrong.

mod engine_wl;
mod fleet_wl;
mod inputs;
mod measure;
mod replay;
mod report;
mod serve_wl;

use inputs::Workload;

/// Set-up repetitions per run; `setup_s` is their median. The first
/// builds the instance the timed passes use; the rest run after the
/// passes, so their allocations cannot raise the peak RSS the passes
/// report.
pub const SETUP_REPS: usize = 5;
/// Where a traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds =
                    Some(value.parse::<f64>().map_err(|_| bad("a number of seconds"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            Workload::ALL.map(Workload::name).join("|")
        );
        std::process::exit(2);
    });
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    let mut out = match args.workload {
        w @ (Workload::EngineSelfroute | Workload::EngineSetup) => {
            engine_wl::run(w, seed, seconds, traced)
        }
        Workload::ServeOpen => serve_wl::run(seed, seconds, traced),
        Workload::FleetRounds => fleet_wl::run(seed, seconds, traced),
    };
    if traced {
        let failed: u64 = out.passes.iter().map(|p| p.failed).sum();
        let attempted: u64 = out.passes.iter().map(|p| p.attempted).sum();
        out.layers.set("failed_ratio", failed as f64 / attempted.max(1) as f64);
        // The traced run's first half is untraced: its p99 is the
        // end-to-end definition over half the time.
        out.layers.set("latency_p99_us", out.passes[0].latency_quantile(0.99) / 1e3);
        let path = std::path::PathBuf::from(TRACE_DIR)
            .join(format!("{}-seed{seed}.tsv", args.workload.name()));
        if let Err(e) = report::write_spans(&path, &out.spans) {
            out.errors.push(format!("writing spans to {}: {e}", path.display()));
        }
        println!("{} spans written to {}", out.spans.len(), path.display());
    }
    if !report::print(args.workload.name(), seed, seconds, traced, &out) {
        std::process::exit(1);
    }
}
