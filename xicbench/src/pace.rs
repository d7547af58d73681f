//! Reference-speed normalisation.
//!
//! On a shared host the same code runs up to half again slower for
//! seconds at a time: other tenants contend for the core, its caches and
//! memory bandwidth.  Thread CPU time swings exactly as much as wall time,
//! so no clock choice removes it.  The end-to-end metrics therefore scale
//! every latency to a reference speed: between operations the benchmark
//! times a fixed calibration kernel (hashing, ordered inserts, sorting and
//! formatting — the kind of work the engine does; plus socket round trips
//! for a workload whose operations cross processes), at most once every
//! 25 ms, and multiplies each operation's latency by the kernel's nominal
//! time over its recent median.
//! A change to the program moves the scaled numbers exactly as much as the
//! raw ones; a slower host phase moves both sides of the ratio.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::{quantile_of, Rng};

/// The kernel's nominal time: scaled latencies are microseconds on a
/// machine where one kernel run takes this long.
const REF_NS: f64 = 400_000.0;

/// Calibrate at most this often; each calibration costs one kernel run.
const EVERY: Duration = Duration::from_millis(25);

/// Kernel runs the speed estimate takes its median over.
const WINDOW: usize = 5;

/// The calibration kernel: fixed work, returns its own duration.
fn kernel_ns() -> u64 {
    let start = Instant::now();
    let mut rng = Rng::new(0x5eed);
    let keys: Vec<u64> = (0..2048).map(|_| rng.next_u64()).collect();
    let mut hashed: HashMap<u64, usize> = HashMap::with_capacity(keys.len());
    let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
    let mut text = String::new();
    for (i, &k) in keys.iter().enumerate() {
        hashed.insert(k, i);
        ordered.insert(k >> 9, k);
        if i % 4 == 0 {
            let _ = write!(text, "v{k:x};");
        }
    }
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let hits = sorted.iter().filter(|k| hashed.contains_key(k)).count();
    let range: u64 = ordered.range(1 << 40..1 << 50).map(|(_, v)| v & 1).sum();
    std::hint::black_box((hits, range, text.len()));
    start.elapsed().as_nanos() as u64
}

/// Round trips per loopback calibration, and their nominal time each.
const ROUND_TRIPS: usize = 64;
const ROUND_TRIP_REF_NS: f64 = 20_000.0;

/// An echo thread across a socket pair: the loopback half of the kernel
/// for workloads whose operations cross processes, since their speed also
/// rides on wake-ups and the other core.
#[derive(Debug)]
struct Echo {
    stream: UnixStream,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    fn start() -> std::io::Result<Echo> {
        let (near, mut far) = UnixStream::pair()?;
        let thread = std::thread::spawn(move || {
            let mut buf = [0u8; 64];
            while far.read_exact(&mut buf).is_ok() && far.write_all(&buf).is_ok() {}
        });
        Ok(Echo {
            stream: near,
            thread: Some(thread),
        })
    }

    fn round_trips_ns(&mut self) -> u64 {
        let start = Instant::now();
        let mut buf = [7u8; 64];
        for _ in 0..ROUND_TRIPS {
            self.stream
                .write_all(&buf)
                .and_then(|()| self.stream.read_exact(&mut buf))
                .expect("echo thread answers until the pacer drops");
        }
        start.elapsed().as_nanos() as u64
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Tracks the host's current speed against the kernel's nominal time.
#[derive(Debug)]
pub struct Pacer {
    /// Off for traced runs, whose per-layer times stay raw: the factor is
    /// then 1 and no kernel runs inside a traced operation.
    enabled: bool,
    last: Instant,
    recent: VecDeque<f64>,
    factor: f64,
    factors: Vec<f64>,
    /// The loopback part of the kernel, when the workload crosses processes.
    echo: Option<Echo>,
}

impl Pacer {
    /// A pacer timing the CPU kernel (`loopback` adds socket round trips
    /// to an echo thread); `enabled: false` gives factor 1 throughout.
    pub fn new(enabled: bool, loopback: bool) -> std::io::Result<Pacer> {
        let mut pacer = Pacer {
            enabled,
            last: Instant::now(),
            recent: VecDeque::with_capacity(WINDOW),
            factor: 1.0,
            factors: Vec::new(),
            echo: if enabled && loopback {
                Some(Echo::start()?)
            } else {
                None
            },
        };
        for _ in 0..WINDOW {
            if enabled {
                pacer.calibrate();
            }
        }
        Ok(pacer)
    }

    /// Call between operations: re-calibrates when [`EVERY`] has passed,
    /// and returns the factor that scales a latency measured now to the
    /// reference speed.
    pub fn tick(&mut self) -> f64 {
        if self.enabled && self.last.elapsed() >= EVERY {
            self.calibrate();
        }
        self.factor
    }

    /// Re-calibrates a few times now and returns the fresh factor: for
    /// operations long enough (set-ups) that the speed may change within
    /// one, bracket them with this.
    pub fn settle(&mut self) -> f64 {
        if self.enabled {
            for _ in 0..3 {
                self.calibrate();
            }
        }
        self.factor
    }

    fn calibrate(&mut self) {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        let mut ns = kernel_ns();
        let mut nominal = REF_NS;
        if let Some(echo) = &mut self.echo {
            ns += echo.round_trips_ns();
            nominal += ROUND_TRIPS as f64 * ROUND_TRIP_REF_NS;
        }
        self.recent.push_back(ns as f64);
        let samples: Vec<f64> = self.recent.iter().copied().collect();
        self.factor = nominal / quantile_of(&samples, 0.5);
        self.factors.push(self.factor);
        self.last = Instant::now();
    }

    /// The median factor over the run so far (recorded in the shape line).
    pub fn median_factor(&self) -> f64 {
        if self.factors.is_empty() {
            1.0
        } else {
            quantile_of(&self.factors, 0.5)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_stable_between_calibrations() {
        for loopback in [false, true] {
            let mut pacer = Pacer::new(true, loopback).unwrap();
            let f = pacer.tick();
            assert!(f > 0.0 && f.is_finite());
            assert!(pacer.median_factor() > 0.0);
        }
        let mut off = Pacer::new(false, true).unwrap();
        assert_eq!(off.tick(), 1.0);
        assert_eq!(off.median_factor(), 1.0);
    }
}
