//! Deterministic named failpoints for injected-fault testing.
//!
//! A failpoint is a named site in the engine (journal writes, batch
//! workers, commit rechecks) that asks this module "should I fail
//! now?" via [`hit`].  In ordinary builds the answer is a compile-time
//! `false`: the whole module collapses to no-ops unless the `faults` cargo
//! feature is enabled, so production binaries carry no branch, no lock and
//! no table lookup — the same kill-switch idiom as the `off` feature on the
//! metrics side.
//!
//! With the feature on, tests arm individual failpoints with [`configure`]:
//!
//! * [`FaultMode::Nth`] fires exactly once, on the n-th call — the tool for
//!   "the 3rd journal append fails" scenarios with byte-exact expectations.
//! * [`FaultMode::Probability`] fires pseudo-randomly from a caller-supplied
//!   seed (an xorshift64 stream, no global RNG state), so a proptest case
//!   that shrinks to a failing seed replays the identical fault sequence.
//!
//! What a fired failpoint *does* is decided at the call site: journal sites
//! surface an [`std::io::ErrorKind::Interrupted`] error (exercising the
//! retry path), batch sites panic (exercising containment).  This module
//! only answers the yes/no question and counts the answers — every fire
//! also bumps the `resilience.faults_injected` counter on the global
//! metrics registry so fault runs are visible in `--metrics` output.

#[cfg(feature = "faults")]
use std::collections::HashMap;
#[cfg(feature = "faults")]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "faults")]
use std::sync::{Mutex, OnceLock, PoisonError};

/// When an armed failpoint fires, relative to the calls made against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Fire exactly once, on the n-th call (1-based) to [`hit`] after
    /// arming; every other call reports no fault.
    Nth(u64),
    /// Fire each call independently with probability `permille`/1000,
    /// drawn from a deterministic xorshift64 stream seeded by `seed`.
    /// The same seed always yields the same fire/no-fire sequence.
    Probability {
        /// Seed of the per-failpoint pseudo-random stream (0 is remapped
        /// to a fixed non-zero constant; xorshift has no zero state).
        seed: u64,
        /// Fire probability in thousandths (0 = never, 1000 = always).
        permille: u32,
    },
}

/// Whether failpoints are compiled in (`faults` cargo feature).
///
/// Useful for tests and benches that want to assert they are running the
/// arm they think they are.
#[inline]
pub const fn enabled() -> bool {
    cfg!(feature = "faults")
}

#[cfg(feature = "faults")]
struct FaultState {
    mode: FaultMode,
    calls: u64,
    fired: u64,
    rng: u64,
}

#[cfg(feature = "faults")]
fn table() -> &'static Mutex<HashMap<String, FaultState>> {
    static TABLE: OnceLock<Mutex<HashMap<String, FaultState>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

#[cfg(feature = "faults")]
static INJECTED: AtomicU64 = AtomicU64::new(0);

/// Arms the named failpoint, replacing any previous configuration and
/// resetting its call/fire counters.  No-op without the `faults` feature.
pub fn configure(name: &str, mode: FaultMode) {
    #[cfg(feature = "faults")]
    {
        let seed = match mode {
            // A zero seed would freeze the xorshift stream; remap it.
            FaultMode::Probability { seed: 0, .. } => 0x9E37_79B9_7F4A_7C15,
            FaultMode::Probability { seed, .. } => seed,
            FaultMode::Nth(_) => 0,
        };
        let mut table = table().lock().unwrap_or_else(PoisonError::into_inner);
        table.insert(
            name.to_owned(),
            FaultState {
                mode,
                calls: 0,
                fired: 0,
                rng: seed,
            },
        );
    }
    #[cfg(not(feature = "faults"))]
    {
        let _ = (name, mode);
    }
}

/// Disarms the named failpoint; subsequent [`hit`] calls report no fault.
/// No-op without the `faults` feature.
pub fn disarm(name: &str) {
    #[cfg(feature = "faults")]
    {
        let mut table = table().lock().unwrap_or_else(PoisonError::into_inner);
        table.remove(name);
    }
    #[cfg(not(feature = "faults"))]
    let _ = name;
}

/// Disarms every failpoint.  Tests call this between cases so an armed
/// probability stream cannot leak across scenarios.  No-op without the
/// `faults` feature.
pub fn reset() {
    #[cfg(feature = "faults")]
    {
        let mut table = table().lock().unwrap_or_else(PoisonError::into_inner);
        table.clear();
    }
}

/// Asks whether the named failpoint fires on this call.
///
/// Unarmed (or feature-off) failpoints always answer `false`.  Armed ones
/// advance their call counter / pseudo-random stream deterministically;
/// every `true` answer is counted (see [`injected`] and the
/// `resilience.faults_injected` global counter).
#[inline]
pub fn hit(name: &str) -> bool {
    #[cfg(feature = "faults")]
    {
        hit_armed(name)
    }
    #[cfg(not(feature = "faults"))]
    {
        let _ = name;
        false
    }
}

#[cfg(feature = "faults")]
fn hit_armed(name: &str) -> bool {
    let mut table = table().lock().unwrap_or_else(PoisonError::into_inner);
    let Some(state) = table.get_mut(name) else {
        return false;
    };
    state.calls += 1;
    let fire = match state.mode {
        FaultMode::Nth(n) => state.calls == n,
        FaultMode::Probability { permille, .. } => {
            // xorshift64: deterministic, allocation-free, per-failpoint.
            state.rng ^= state.rng << 13;
            state.rng ^= state.rng >> 7;
            state.rng ^= state.rng << 17;
            state.rng % 1000 < u64::from(permille)
        }
    };
    if fire {
        state.fired += 1;
        INJECTED.fetch_add(1, Ordering::Relaxed);
        drop(table); // never hold the fault table across the registry lock
        crate::global().counter("resilience.faults_injected").add(1);
    }
    fire
}

/// Total faults injected process-wide since start (or last [`reset_counts`]).
/// Always 0 without the `faults` feature.
pub fn injected() -> u64 {
    #[cfg(feature = "faults")]
    {
        INJECTED.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "faults"))]
    {
        0
    }
}

/// How many times the named failpoint has fired since it was armed.
/// Always 0 without the `faults` feature.
pub fn fired(name: &str) -> u64 {
    #[cfg(feature = "faults")]
    {
        let table = table().lock().unwrap_or_else(PoisonError::into_inner);
        table.get(name).map_or(0, |s| s.fired)
    }
    #[cfg(not(feature = "faults"))]
    {
        let _ = name;
        0
    }
}

/// Resets the process-wide injected-fault total (the per-failpoint counters
/// reset when a failpoint is re-[`configure`]d).  No-op without the
/// `faults` feature.
pub fn reset_counts() {
    #[cfg(feature = "faults")]
    INJECTED.store(0, Ordering::Relaxed);
}

#[cfg(all(test, feature = "faults"))]
mod tests {
    use super::*;

    #[test]
    fn nth_fires_exactly_once() {
        configure("test.nth", FaultMode::Nth(3));
        let fires: Vec<bool> = (0..6).map(|_| hit("test.nth")).collect();
        assert_eq!(fires, vec![false, false, true, false, false, false]);
        assert_eq!(fired("test.nth"), 1);
        disarm("test.nth");
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        configure(
            "test.prob",
            FaultMode::Probability {
                seed: 42,
                permille: 250,
            },
        );
        let first: Vec<bool> = (0..64).map(|_| hit("test.prob")).collect();
        configure(
            "test.prob",
            FaultMode::Probability {
                seed: 42,
                permille: 250,
            },
        );
        let second: Vec<bool> = (0..64).map(|_| hit("test.prob")).collect();
        assert_eq!(first, second);
        assert!(
            first.iter().any(|&f| f),
            "permille 250 over 64 draws should fire"
        );
        assert!(
            !first.iter().all(|&f| f),
            "permille 250 should not always fire"
        );
        disarm("test.prob");
    }

    #[test]
    fn unarmed_failpoints_never_fire() {
        assert!(!hit("test.never_armed"));
        assert_eq!(fired("test.never_armed"), 0);
    }

    #[test]
    fn zero_seed_is_remapped() {
        configure(
            "test.zero",
            FaultMode::Probability {
                seed: 0,
                permille: 500,
            },
        );
        let fires: Vec<bool> = (0..64).map(|_| hit("test.zero")).collect();
        assert!(
            fires.iter().any(|&f| f),
            "zero seed must not freeze the stream"
        );
        disarm("test.zero");
    }
}
