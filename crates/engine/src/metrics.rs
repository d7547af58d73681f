//! Engine-wide metrics snapshots — the `--metrics` / `xic stats` surface.
//!
//! The engine's components record into [`MetricsRegistry`] instruments as
//! they run (see the instrument inventory on [`register_baseline`]).  This
//! module is the read side: [`EngineMetrics::capture`] freezes a registry
//! into a plain-data snapshot that renders as text here and as JSON in the
//! CLI (`crates/cli/src/json.rs` owns the writer — this crate stays
//! serializer-free).

use std::sync::Arc;

use xic_telemetry::{MetricsRegistry, RegistrySnapshot};

/// Every aggregate instrument the engine records, registered up front.
///
/// Instruments normally spring into existence on first use, which is right
/// for per-spec breakdowns but wrong for a metrics *report*: a `--metrics`
/// block from a run that never touched the verdict cache should still show
/// `cache.hits 0`, not omit the cache section.  Calling this once against a
/// registry pins the canonical engine instruments at zero so every snapshot
/// covers the full inventory.
pub fn register_baseline(registry: &MetricsRegistry) {
    for counter in [
        "batch.docs",
        "cache.evictions",
        "cache.hits",
        "cache.inserts",
        "cache.misses",
        "compile.specs",
        "corpus.commits",
        "corpus.edits",
        "corpus.nodes_revalidated",
        "corpus.violations_added",
        "corpus.violations_removed",
        "ilp.bb_nodes",
        "ilp.lp_calls",
        "ilp.pivots",
        "ilp.presolve_rows_removed",
        "ilp.presolve_vars_removed",
        "ilp.promotions",
        "incremental.builds",
        "incremental.constraints_rechecked",
        "journal.bytes_written",
        "journal.crc_failures",
        "journal.records_appended",
        "journal.records_read",
        "journal.torn_repairs",
        "parse.bytes",
        "parse.docs",
        "resilience.degraded_batches",
        "resilience.faults_injected",
        "resilience.io_retries",
        "resilience.panics_contained",
        "resilience.rejections",
        "shard.deltas",
        "shard.rechecked",
        "shard.skipped",
    ] {
        registry.counter(counter);
    }
    for gauge in [
        "cache.entries",
        "corpus.dirty_docs",
        "corpus.open_docs",
        "corpus.queued_ops",
        "shard.plan_shards",
    ] {
        registry.gauge(gauge);
    }
    for histogram in [
        "batch.doc_ns",
        "batch.worker_docs",
        "cache.insert_ns",
        "corpus.apply_ns",
        "corpus.commit_ns",
        "corpus.delta_changes",
        "corpus.recheck_ns",
        "incremental.build_ns",
        "journal.persist_ns",
        "parse.doc_ns",
        "shard.touched",
    ] {
        registry.histogram(histogram);
    }
}

/// A frozen, plain-data view of an engine registry: every counter, gauge
/// and histogram summary, sorted by name.  Constructed by
/// [`EngineMetrics::capture`]; rendered as text here or as JSON by the CLI.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// The instrument snapshot.
    pub snapshot: RegistrySnapshot,
}

impl EngineMetrics {
    /// Captures a snapshot of `registry`, baseline-registering the engine's
    /// canonical instruments first so the report always covers the full
    /// inventory (see [`register_baseline`]).
    pub fn capture(registry: &MetricsRegistry) -> EngineMetrics {
        register_baseline(registry);
        EngineMetrics {
            snapshot: registry.snapshot(),
        }
    }

    /// Captures the process-global registry — the one default-constructed
    /// sessions, corpora and the deep layers (parser, indexes, journal)
    /// record into.
    pub fn capture_global() -> EngineMetrics {
        EngineMetrics::capture(xic_telemetry::global())
    }

    /// The registry most engine components share by default.
    pub fn global_registry() -> &'static Arc<MetricsRegistry> {
        xic_telemetry::global()
    }

    /// Pretty-prints the snapshot as aligned text (the `xic stats` body).
    pub fn render_text(&self) -> String {
        self.snapshot.render_text()
    }
}

#[cfg(all(test, not(feature = "telemetry-off")))]
mod tests {
    use super::*;

    #[test]
    fn baseline_makes_snapshots_total() {
        let registry = MetricsRegistry::new();
        let metrics = EngineMetrics::capture(&registry);
        for name in [
            "cache.hits",
            "journal.bytes_written",
            "corpus.commits",
            "resilience.rejections",
            "resilience.panics_contained",
            "shard.rechecked",
            "shard.skipped",
        ] {
            assert_eq!(metrics.snapshot.counter(name), Some(0), "{name}");
        }
        for name in [
            "corpus.dirty_docs",
            "corpus.queued_ops",
            "shard.plan_shards",
        ] {
            assert_eq!(metrics.snapshot.gauge(name), Some(0), "{name}");
        }
        let commit = metrics.snapshot.histogram("corpus.commit_ns").unwrap();
        assert_eq!(commit.count, 0);
        // Sorted by name, so the text render is stable.
        let names: Vec<&str> = metrics
            .snapshot
            .counters
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert!(metrics.render_text().contains("cache.hits"));
    }
}
