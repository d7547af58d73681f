//! # xic-engine — compile-once / check-many front end for the reproduction
//!
//! The decision procedures of Fan & Libkin are defined over a *fixed*
//! specification `(D, Σ)`, but real workloads check many documents and many
//! implication queries against few specifications.  This crate is the
//! production entry point that exploits that shape:
//!
//! * [`CompiledSpec`] — parses and validates a `(DTD, Σ)` pair **once**,
//!   precomputing the [`xic_dtd::SimpleDtd`] rewriting, the per-element
//!   Glushkov automata, the constraint-class classification, the layout of
//!   the `T ⊨ Σ` index ([`xic_constraints::IncrementalLayout`]), and (for
//!   the decidable unary classes) the cardinality system Ψ(D,Σ) — all
//!   behind a cheap content-hash [`SpecId`] — and decides consistency
//!   ([`CompiledSpec::check_consistency`]) and implication
//!   ([`CompiledSpec::check_implication`]) over those artifacts;
//! * [`BatchEngine`] — a `std::thread` worker pool that validates N
//!   documents against one compiled spec in parallel and aggregates
//!   per-document reports deterministically (ordered by input index, so a
//!   multi-threaded run renders byte-identically to a sequential one);
//! * [`CorpusSession`] — the one session type: open documents once,
//!   mutate them through typed [`xic_xml::EditOp`]s, and commit for a
//!   fresh `T ⊨ (D, Σ)` verdict of exactly the edited documents at
//!   O(edit) cost — the incremental indexes
//!   ([`xic_constraints::IncrementalIndex`]) are maintained under each
//!   edit instead of rebuilt, with witnesses identical to a full rebuild,
//!   and their layout is derived once per spec
//!   ([`xic_constraints::IncrementalLayout`], stored on the
//!   [`CompiledSpec`]), not once per document.  Each commit emits a
//!   [`BatchDelta`] diff stream (clean ↔ violating flips with structured
//!   witnesses) for subscribers;
//! * [`journal`] — the corpus log: one versioned binary log of `open`,
//!   `apply`, `close` and `commit` records with CRC'd, torn-tail-tolerant
//!   framing; [`CorpusSession::persist_to`] appends to it and
//!   [`CorpusSession::recover_from`] rebuilds a live, editable session
//!   from it, [`CorpusReplica`] replicas reconstruct corpus verdicts from
//!   its [`BatchDelta`]s alone, and the `xic journal` CLI surface sits on
//!   top;
//! * [`metrics`] — the observability surface: every layer above records
//!   counters, gauges and latency histograms into a
//!   [`xic_telemetry::MetricsRegistry`] (the process-global one by default;
//!   any registry via the `with_registry` constructors), and
//!   [`EngineMetrics`] freezes a registry into the snapshot behind the
//!   CLI's `--metrics` flag and `xic stats`.
//!
//! ```
//! use xic_engine::{BatchDoc, BatchEngine, CompiledSpec};
//!
//! let spec = CompiledSpec::from_sources(
//!     "<!ELEMENT school (teacher*)>\n\
//!      <!ELEMENT teacher EMPTY>\n\
//!      <!ATTLIST teacher name CDATA #REQUIRED>",
//!     Some("school"),
//!     "teacher.name -> teacher",
//! )
//! .unwrap();
//!
//! assert!(spec.check_consistency().is_consistent());
//!
//! let docs = vec![BatchDoc::new(
//!     "doc-0",
//!     "<school><teacher name=\"Joe\"/><teacher name=\"Ann\"/></school>",
//! )];
//! let report = BatchEngine::new(2).validate_batch(&spec, &docs);
//! assert!(report.reports()[0].is_clean());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod corpus;
pub mod hash;
pub mod journal;
pub mod limits;
pub mod merge;
pub mod metrics;
pub mod spec;
pub mod wire;

pub use batch::{BatchDoc, BatchEngine, BatchReport, DocFault, DocReport};
pub use corpus::{
    project_doc_report, project_report, BatchDelta, ClosedDoc, CorpusSession, DeltaSummary,
    DocChange, DocHandle, Recovery, SessionError, SpecRef, Transition,
};
pub use hash::fnv1a_parts_wide;
pub use journal::{
    inspect_log, read_log, CorpusLog, CorpusReplica, JournalError, LogRecord, LogSummary,
    PersistReceipt, RecordSummary,
};
pub use limits::{LimitKind, Limits, RejectedOp, ResourceError};
pub use merge::ReportMerger;
pub use metrics::{register_baseline, EngineMetrics};
pub use spec::{CompileError, CompiledSpec, ParseSpecIdError, SpecId};
pub use wire::{Request, Response, WireError, WireFault};
pub use xic_constraints::ShardPlan;
