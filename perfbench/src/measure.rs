//! Exact statistics over raw samples, and the process-wide CPU and
//! memory readings the end-to-end metrics need.

use std::time::{Duration, Instant};

/// A sorted set of raw samples (nanoseconds, counts, …) with exact
/// nearest-rank percentiles.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    /// Sorts `values` once; every percentile afterwards is a lookup.
    pub fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        Self { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `q`-quantile: the sample of 1-based rank
    /// `⌈q·n⌉` (rank 1 for `q = 0`). Returns 0 when there are no
    /// samples.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// How many samples lie strictly above the `q`-quantile's rank —
    /// the tail a percentile claim rests on.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.sorted.len();
        if n == 0 {
            return 0;
        }
        n - ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
    }
}

/// The median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nanoseconds in `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Times one call of `f`, returning its result and the nanoseconds it
/// took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, nanos(start.elapsed()))
}

/// Linux `USER_HZ`: `/proc` reports CPU time in these ticks. It is 100
/// on every architecture Linux supports for userspace ABI purposes.
const USER_HZ: u64 = 100;

/// User plus system CPU time of the whole process (every thread,
/// in-process servers included), from `/proc/self/stat`.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis start at field 3 (state).
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> u64 { fields[n - 3].parse().expect("numeric stat field") };
    let ticks = field(14) + field(15);
    Duration::from_millis(ticks * 1000 / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of the process so far, in MiB.
pub fn rss_peak_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let hundred = Samples::new((1..=100).rev().collect());
        assert_eq!(hundred.quantile(0.5), 50);
        assert_eq!(hundred.quantile(0.99), 99);
        assert_eq!(hundred.quantile(1.0), 100);
        assert_eq!(hundred.quantile(0.0), 1);
        assert_eq!(hundred.beyond(0.99), 1);

        let thousand = Samples::new((1..=1000).collect());
        assert_eq!(thousand.quantile(0.99), 990);
        assert_eq!(thousand.beyond(0.99), 10);

        let odd = Samples::new(vec![7, 3, 9, 1, 5]);
        assert_eq!(odd.quantile(0.5), 5);
        assert_eq!(odd.quantile(0.2), 1);
        assert_eq!(odd.quantile(0.21), 3);

        let one = Samples::new(vec![42]);
        assert_eq!((one.quantile(0.5), one.quantile(0.99)), (42, 42));
        assert_eq!(Samples::default().quantile(0.5), 0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_readings_are_positive() {
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu() > Duration::ZERO);
        assert!(rss_peak_mib() > 0.0);
    }
}
