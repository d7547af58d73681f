//! # xml-integrity-constraints — facade crate
//!
//! Re-exports the public API of the workspace crates that make up the
//! reproduction of Fan & Libkin, *On XML Integrity Constraints in the
//! Presence of DTDs* (PODS 2001 / JACM 2002).  See the README for a tour and
//! `examples/` for runnable end-to-end scenarios.

#![forbid(unsafe_code)]

pub use xic_constraints as constraints;
pub use xic_core as core;
pub use xic_dtd as dtd;
pub use xic_engine as engine;
pub use xic_gen as gen;
pub use xic_ilp as ilp;
pub use xic_relational as relational;
pub use xic_server as server;
pub use xic_xml as xml;

// The production entry points, re-exported flat for discoverability.
pub use xic_engine::{
    BatchDelta, BatchDoc, BatchEngine, CompiledSpec, CorpusReplica, CorpusSession, DocHandle,
    Engine, JournalError, Recovery, SessionError, VerdictCache,
};
pub use xic_xml::EditOp;
