//! # xic-server — the long-running validation service
//!
//! A std-only TCP (and Unix-socket) server hosting one [`xic_engine::Engine`]
//! with its shared verdict cache and a registry of named
//! [`xic_engine::CorpusSession`]s, speaking the delta-log wire protocol of
//! [`xic_engine::wire`]: length-framed PR 5 journal records in both
//! directions.  Clients ship edit-op batches up; the server ships
//! [`xic_engine::BatchDelta`] records down, and a stock
//! [`xic_engine::CorpusReplica`] consumes them to reconstruct
//! `CorpusSession::report()` exactly.
//!
//! The workspace is network-free by design, so there is no async runtime:
//! accept loops on non-blocking listeners feed a bounded worker pool of
//! `std::thread`s.  Every named session sits behind its own mutex, and the
//! connection thread serving a request locks it and runs the request
//! itself, so one slow session never blocks another and the worker pool
//! bounds how many requests wait on one session.  A request that panics
//! outside the engine's containment poisons the lock: later requests on
//! the session answer a code-2 `session` fault until a client reconnects.
//!
//! Resource governance and fault containment extend to the wire: admission
//! limits ([`xic_engine::Limits`]) and the session-count bound reject with
//! **structured error records** (code 3, `resource:*`), contained faults
//! answer with code 4 (`fault:*`) — never a dropped connection.
//! Graceful drain and idle eviction flush every session's corpus log to
//! the state directory, and a restarted server recovers each session from
//! its log — live and editable — the first time a client names it.
//!
//! ```no_run
//! use std::sync::Arc;
//! use xic_engine::CompiledSpec;
//! use xic_server::{Client, Server, ServerConfig};
//!
//! let spec = Arc::new(
//!     CompiledSpec::from_sources(
//!         "<!ELEMENT school (teacher*)>\n\
//!          <!ELEMENT teacher EMPTY>\n\
//!          <!ATTLIST teacher name CDATA #REQUIRED>",
//!         Some("school"),
//!         "teacher.name -> teacher",
//!     )
//!     .unwrap(),
//! );
//! let server = Server::start(
//!     Arc::clone(&spec),
//!     ServerConfig {
//!         tcp: Some("127.0.0.1:0".parse().unwrap()),
//!         ..ServerConfig::default()
//!     },
//! )
//! .unwrap();
//! let addr = server.tcp_addr().unwrap();
//! let mut client = Client::connect_tcp(addr, spec.id(), "tenant-a").unwrap();
//! let doc = client.open_doc("d0", "<school/>").unwrap();
//! let delta = client.commit().unwrap();
//! assert_eq!(delta.seq, 1);
//! let _ = doc;
//! server.stop();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
mod serve;

pub use client::{Client, ClientError};
pub use serve::{Server, ServerConfig, ServerReport};

use xic_engine::wire::WireFault;
use xic_telemetry::MetricsRegistry;

/// A connected TCP or Unix-socket byte stream.
pub(crate) trait Stream: std::io::Read + std::io::Write + Send + Sync {}
impl<T: std::io::Read + std::io::Write + Send + Sync> Stream for T {}

/// Registers every `server.*` instrument on `registry` so snapshots taken
/// before traffic arrives still render the full set at zero.
pub fn register_baseline(registry: &MetricsRegistry) {
    registry.counter("server.connections");
    registry.counter("server.requests");
    registry.counter("server.errors");
    registry.counter("server.torn_connections");
    registry.counter("server.rejected_admissions");
    registry.counter("server.evicted_sessions");
    registry.counter("server.drained_sessions");
    registry.gauge("server.sessions");
    registry.histogram("server.request_ns");
    registry.histogram("server.queue_ns");
    registry.counter("shard.syncs");
}

/// Validates a session name for use as both a registry key and a delta-log
/// file stem: 1–64 characters from `[A-Za-z0-9._-]`, not starting with a
/// dot (no hidden files, no `..`).
pub(crate) fn validate_session_name(name: &str) -> Result<(), WireFault> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(WireFault::new(
            2,
            "protocol",
            format!(
                "invalid session name {name:?}: expected 1-64 characters of [A-Za-z0-9._-], \
                 not starting with '.'"
            ),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::validate_session_name;

    #[test]
    fn session_names_are_validated() {
        for good in ["a", "tenant-1", "A_b.c-9", &"x".repeat(64)] {
            assert!(validate_session_name(good).is_ok(), "{good:?}");
        }
        for bad in ["", ".hidden", "..", "a/b", "a b", "é", &"x".repeat(65)] {
            assert!(validate_session_name(bad).is_err(), "{bad:?}");
        }
    }
}
