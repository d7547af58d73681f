//! # xic-coord — multi-process sharded validation
//!
//! PR 9 landed every single-process ingredient of distributed validation:
//! the touch-graph [`xic_constraints::ShardPlan`], shard-tagged
//! [`xic_engine::BatchDelta`]s, scoped sessions
//! ([`xic_engine::CorpusSession::scope_to_shards`]) and shard-filtered wire
//! sync.  This crate is the multi-process half: a [`Coordinator`] that
//! reads a [`xic_engine::CompiledSpec`]'s shard plan, spawns one
//! `xic serve` child per shard *group* (`workers` processes over K shards,
//! shard *s* on group `s % workers`), and exposes the same client-facing
//! session surface — open / apply / close / commit — as a single server.
//!
//! **Routing.** Every edit batch is applied to a coordinator-side mirror
//! tree first; the resulting [`xic_xml::EditEffect`]s map to dirty shards
//! through the spec's incremental layout (the exact marks each worker's
//! index makes), and only the groups owning those shards take part in the
//! next commit.  Group 0 is the *structural authority* and takes part in
//! every one — structural `T ⊨ D` validation depends on attributes and
//! text, so no edit may bypass it.  A round with an open is broadcast.
//! Opens, applies and closes go into one **routing log**, each request
//! encoded once, and every group receives the log in log order up to its
//! own `delivered` mark: a group a batch cannot affect just lags and
//! catches up at its next commit, so every worker applies the same
//! per-document op sequence (identical arenas, identical `NodeId`s).
//! A commit is one **wave**: each participant gets its undelivered
//! entries and the commit in one write, all participants before any reply
//! is read, so the workers validate in parallel.
//!
//! **Merging.** Each worker runs its session scoped to its shards, so its
//! commit deltas are wire-v2 projected frames; the
//! [`xic_engine::ReportMerger`] recombines them — Σ violations unioned by
//! shard partition, structural errors and faults taken from the authority
//! once (broadcast copies deduplicated), per-document clean state and
//! corpus totals recomputed — into merged [`xic_engine::BatchDelta`]s and
//! reports equal to a monolithic [`xic_engine::CorpusSession`]'s, held to
//! that by the `coord_agreement` differential suite.
//!
//! **Supervision.** The routing log is the resync source.  A worker whose
//! transport dies is killed, respawned (fresh `--addr-file` handshake) and
//! replayed the log entries it had answered, with its commits at the same
//! points — identical bytes, deterministic sessions — before the rest of
//! its wave is re-sent; the restart budget (`max_restarts`) exhausted, the
//! coordinator rejects with [`CoordError::WorkerLost`] instead of
//! acknowledging a partial verdict (recover-or-reject).  The `coord.*`
//! instruments (see [`register_baseline`]) count waves, frames sent,
//! restarts and replayed entries, and gauge the log's size.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod coordinator;
mod worker;

pub use coordinator::{CoordConfig, Coordinator};

use std::fmt;

use xic_engine::WireFault;
use xic_telemetry::MetricsRegistry;

/// Registers every `coord.*` instrument on `registry`, so a snapshot taken
/// before any coordinator runs still lists them at zero.
pub fn register_baseline(registry: &MetricsRegistry) {
    for counter in [
        "coord.waves",
        "coord.frames_sent",
        "coord.replayed_entries",
        "coord.restarts",
    ] {
        registry.counter(counter);
    }
    registry.gauge("coord.log_bytes");
}

/// Everything that can go wrong coordinating shard workers.  The
/// [`CoordError::exit_code`] mapping preserves the CLI taxonomy: `2`
/// protocol/document, `3` resource, `4` contained fault or a lost worker.
#[derive(Debug)]
pub enum CoordError {
    /// A file or process operation failed.
    Io {
        /// What was being accessed.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The spec files did not compile.
    Spec(String),
    /// A document was rejected (parse failure, unknown handle, bad edit).
    Document(String),
    /// A worker answered with a structured fault record; its code carries
    /// the exit taxonomy unchanged.
    Fault(WireFault),
    /// A worker answered, but not with what the protocol (or determinism)
    /// requires — e.g. a resync replay diverging from the original run.
    Protocol(String),
    /// A shard worker could not be spawned or never completed the
    /// `--addr-file` handshake.
    WorkerSpawn(String),
    /// A worker crashed more times than the restart budget allows; the
    /// coordinator rejects rather than risk a wrong or partial verdict.
    WorkerLost {
        /// The shard group whose worker is gone.
        group: usize,
        /// Restarts attempted before giving up.
        attempts: usize,
        /// The last transport failure observed.
        cause: String,
    },
}

impl CoordError {
    /// The process exit code this error maps to, mirroring the CLI
    /// taxonomy (`2` error, `3` resource rejection, `4` contained fault).
    pub fn exit_code(&self) -> i32 {
        match self {
            CoordError::Fault(fault) => i32::from(fault.code),
            CoordError::WorkerLost { .. } => 4,
            _ => 2,
        }
    }
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::Io { context, source } => {
                write!(f, "cannot access `{context}`: {source}")
            }
            CoordError::Spec(msg) => write!(f, "specification error: {msg}"),
            CoordError::Document(msg) => write!(f, "document error: {msg}"),
            CoordError::Fault(fault) => write!(f, "worker fault: {fault}"),
            CoordError::Protocol(msg) => write!(f, "coordination protocol error: {msg}"),
            CoordError::WorkerSpawn(msg) => write!(f, "worker spawn failed: {msg}"),
            CoordError::WorkerLost {
                group,
                attempts,
                cause,
            } => write!(
                f,
                "shard worker {group} lost after {attempts} restart(s): {cause}"
            ),
        }
    }
}

impl std::error::Error for CoordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoordError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
