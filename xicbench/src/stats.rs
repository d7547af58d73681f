//! Sample statistics, a seeded generator, set-up timing and peak memory.

use std::time::Instant;

use crate::pace::Pacer;

/// The `q`-quantile (0..=1) of sorted samples, interpolating linearly
/// between the two nearest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts a copy of `samples` and returns its `q`-quantile.
pub fn quantile_of(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, q)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups a run times at least, for the median.
const SETUP_REPS: usize = 5;

/// Runs `setup` at least [`SETUP_REPS`] times, and again while the total
/// stays under a quarter second, and returns the median time in reference
/// seconds with the last result.  Each run is scaled by the mean of the
/// pacer's factors just before and just after it.
pub fn setup_median<T>(pacer: &mut Pacer, mut setup: impl FnMut() -> T) -> (f64, T) {
    let began = Instant::now();
    let mut times = Vec::new();
    let mut last;
    loop {
        let before = pacer.settle();
        let start = Instant::now();
        last = setup();
        let elapsed = start.elapsed().as_secs_f64();
        let factor = (before + pacer.settle()) / 2.0;
        times.push(elapsed * factor);
        if times.len() >= SETUP_REPS && (began.elapsed().as_secs_f64() > 0.25 || times.len() >= 64)
        {
            break;
        }
        drop(last);
    }
    (quantile_of(&times, 0.5), last)
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A sub-seed for input `index`, independent of draws made so far.
    pub fn derive(seed: u64, index: u64) -> u64 {
        Rng::new(seed ^ index.wrapping_mul(0xd134_2543_de82_ef95)).next_u64()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sorted, 0.5), 2.5);
        assert_eq!(quantile(&sorted, 1.0), 4.0);
        assert_eq!(quantile_of(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::derive(1, 0), Rng::derive(1, 1));
        assert!(peak_rss_mb() > 0.0);
    }
}
