//! # xic-telemetry — metrics and structured tracing for the engine stack
//!
//! A zero-dependency (std-only, like the rest of the workspace) telemetry
//! layer shared by every crate in the engine: a thread-safe
//! [`MetricsRegistry`] owning named [`Counter`]s, [`Gauge`]s and
//! log-bucketed latency [`Histogram`]s (p50/p90/p99/max), plus a lightweight
//! span API ([`Span::enter`]) whose timed, labeled, optionally nested scopes
//! feed an in-memory ring-buffer trace dumpable as a JSON timeline.
//!
//! Design points, in decreasing order of importance:
//!
//! * **Hot-path cost is one relaxed atomic op.** Counters and gauges are
//!   single atomics; a histogram record is three atomic adds and one
//!   `fetch_max` into a fixed 65-bucket log₂ table — no allocation, no
//!   locking, no floating point.  Instrument handles (`Arc<Counter>` etc.)
//!   are resolved by name once at component construction and then used
//!   lock-free.
//! * **Clock sampling is gated at runtime.** Everything that would call
//!   [`std::time::Instant::now`] goes through
//!   [`MetricsRegistry::start_timer`], which
//!   returns `None` when timing is disabled
//!   ([`MetricsRegistry::set_timing`]) — so latency instrumentation costs a
//!   single relaxed load when switched off.  Counters and gauges are *not*
//!   gated: they are cheap and the engine's statistics APIs
//!   (`VerdictCache::stats`) are defined in terms of them.
//! * **A compile-time kill switch.** Building with the `off` feature turns
//!   every instrument into a no-op (counters included) and every snapshot
//!   empty; it exists solely as the control arm of the overhead benchmark.
//!
//! ```
//! use xic_telemetry::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let edits = registry.counter("corpus.edits");
//! edits.add(3);
//!
//! let commit_ns = registry.histogram("corpus.commit_ns");
//! if let Some(timer) = registry.start_timer() {
//!     // ... the work being measured ...
//!     commit_ns.record_elapsed(timer);
//! }
//!
//! {
//!     let _span = registry.span("compile.glushkov");
//!     // ... the compile phase runs inside the span ...
//! }
//!
//! let snapshot = registry.snapshot();
//! if registry.timing_enabled() {
//!     // In an ordinary build; under the `off` control-arm feature every
//!     // instrument is a no-op and the snapshot is empty.
//!     assert_eq!(snapshot.counter("corpus.edits"), Some(3));
//!     assert_eq!(snapshot.histograms.len(), 2); // commit_ns + span.compile.glushkov
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod faults;
mod metrics;
mod span;

pub use metrics::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, MetricsRegistry,
    RegistrySnapshot,
};
pub use span::{Span, TraceEvent};

use std::sync::{Arc, OnceLock};

/// The process-wide registry: deep layers (parser timing, index builds,
/// journal I/O) that have no component to hang a registry handle on record
/// here, and the CLI's `--metrics` / `xic stats` surfaces snapshot it.
///
/// Components that want isolation (unit tests, multi-tenant services)
/// construct their own [`MetricsRegistry`] instead; nothing in this crate
/// forces the global.
pub fn global() -> &'static Arc<MetricsRegistry> {
    static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_shared() {
        global().counter("test.global").add(2);
        global().counter("test.global").add(3);
        #[cfg(not(feature = "off"))]
        assert_eq!(global().counter("test.global").get(), 5);
        #[cfg(feature = "off")]
        assert_eq!(global().counter("test.global").get(), 0);
    }
}
