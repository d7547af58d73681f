//! # xic-bench — the benchmark harness
//!
//! One Criterion bench target per experiment E2–E12 (the workloads of
//! [`xic_gen::workloads`]), plus `figure5_table` which regenerates the
//! paper's Figure 5 as a table of measured verdicts and timings.  The benches are deliberately configured
//! with small sample counts so that `cargo bench --workspace` completes in
//! minutes while still exposing the scaling *shape* that stands in for the
//! paper's complexity claims.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Runs a closure once and returns its wall-clock duration together with its
/// result (used by the non-Criterion `figure5_table` harness).
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed(), value)
}

/// Runs a closure `runs` times and returns the median duration.
pub fn median_time(runs: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Runs a closure `runs` times and returns the **minimum** duration.
///
/// On a shared single-core box (this container routinely sees load > 1 from
/// neighbours), a short timed section that straddles a preemption balloons
/// by tens of milliseconds; the median of a handful of runs is then
/// dominated by scheduler luck.  The minimum is the run the scheduler left
/// alone, i.e. the actual cost of the code — use it for sections much
/// shorter than a timeslice.
pub fn min_time(runs: usize, mut f: impl FnMut()) -> Duration {
    (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("at least one run")
}

/// Formats a duration in microseconds with three significant digits.
pub fn fmt_us(d: Duration) -> String {
    format!("{:.1} µs", d.as_secs_f64() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers_work() {
        let (d, v) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        let m = median_time(3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(fmt_us(m).contains("µs"));
        // min_time runs the closure exactly `runs` times.
        let mut n = 0u64;
        let _ = min_time(5, || n = std::hint::black_box(n + 1));
        assert_eq!(n, 5);
    }
}
