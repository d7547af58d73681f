//! The corpus log: one versioned, append-only binary log per
//! [`crate::CorpusSession`], and the replica that reads its commits.
//!
//! An in-memory session dies with its process.  Its log holds the session
//! calls that shaped it — `open`, `apply`, `close` and `commit` records —
//! keyed by the content-hash [`SpecId`], so that
//!
//! * [`crate::CorpusSession::persist_to`] appends everything the log does
//!   not hold yet, and [`crate::CorpusSession::recover_from`] rebuilds a
//!   live, editable session from it (a restarted or evicted `xic serve`
//!   session comes back this way) — a partially written final record is a
//!   **torn tail**, truncated on read rather than reported as an error;
//! * a [`CorpusReplica`] reconstructs the session's verdicts from the
//!   `commit` records alone, without a document ever being re-shipped or
//!   re-parsed — the on-ramp to distributed validation in the sense of
//!   Abiteboul et al., *Distributed XML Design*;
//! * `xic journal record | replay | inspect` exposes the same log on the
//!   command line, with the `xic batch --session` script syntax as its
//!   human-readable twin.
//!
//! # Format
//!
//! ```text
//! header  := "XICJ" version:u16 reserved:u16 spec-id:u64 u64      (24 bytes, LE)
//! record  := len:u32 seq:u64 tag:u8 payload:[u8; len] crc32:u32
//! payload := open   (tag 1): handle:u64 label:str snapshot
//!          | apply  (tag 2): handle:u64 op
//!          | commit (tag 3): delta                (the wire's delta payload)
//!          | close  (tag 4): handle:u64 label:str
//! ```
//!
//! `seq` starts at 1 and is contiguous; `crc32` (IEEE) covers `seq`, `tag`
//! and the payload.  Records follow the order of the session calls they
//! make durable, so a document is dirty at the end of the log exactly when
//! its `open` or one of its `apply` records comes after the last `commit`:
//!
//! * an `open` carries a slot-for-slot [`TreeSnapshot`] of the document as
//!   of the persist that first logs it, folding every edit so far.  It
//!   stands just before the first commit that re-checked that state, or
//!   after every commit when none has yet — so its place records whether
//!   the snapshot holds edits no commit has seen.  A commit may therefore
//!   report a document before its `open`: a log cut in between recovers
//!   the document as closed (see below);
//! * each later edit of a logged document is one `apply` record, before
//!   the first commit that saw it;
//! * a `close` precedes the commit that announces it (or ends the log while
//!   no commit has); it is logged for documents the log or a commit knows;
//! * a `commit` carries the [`BatchDelta`] itself.
//!
//! A document some commit reported but the log holds no tree for — closed,
//! or quarantined, before it was ever logged — recovers as a close the
//! next commit announces.
//!
//! # Failure policy (the contract the crash-injection suite enforces)
//!
//! Reads **never panic and never return wrong data**: every anomaly is
//! either *recovered* (a torn final record — truncation mid-write — is
//! dropped, yielding the last durable prefix) or *rejected* with a
//! structured [`JournalError`] (bad magic, version or spec, a CRC failure
//! before the final record, an out-of-sequence record, an undecodable
//! payload, a snapshot violating tree invariants, commits that contradict
//! each other, or a document whose re-checked verdict differs from the one
//! its last commit logged).  `tests/journal_recovery.rs` truncates and
//! corrupts logs at every byte boundary and holds recovery to exactly this
//! contract.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use xic_constraints::Violation;
use xic_dtd::{AttrId, Dtd, ElemId};
use xic_telemetry::{Counter, Histogram};
use xic_xml::{EditError, EditOp, NodeId, NodeLabel, NodeSnapshot, SnapshotError, TreeSnapshot};

use crate::batch::{BatchReport, DocReport};
use crate::corpus::{BatchDelta, ClosedDoc, DocChange, DocHandle};
use crate::spec::SpecId;

/// Global-registry journal instruments, resolved once (registry name
/// lookups take a read lock; the persist path should not pay it per call).
struct JournalInstruments {
    bytes_written: Arc<Counter>,
    records_appended: Arc<Counter>,
    records_read: Arc<Counter>,
    torn_repairs: Arc<Counter>,
    crc_failures: Arc<Counter>,
    persist_ns: Arc<Histogram>,
}

fn instruments() -> &'static JournalInstruments {
    static INSTRUMENTS: OnceLock<JournalInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        let registry = xic_telemetry::global();
        JournalInstruments {
            bytes_written: registry.counter("journal.bytes_written"),
            records_appended: registry.counter("journal.records_appended"),
            records_read: registry.counter("journal.records_read"),
            torn_repairs: registry.counter("journal.torn_repairs"),
            crc_failures: registry.counter("journal.crc_failures"),
            persist_ns: registry.histogram("journal.persist_ns"),
        }
    })
}

/// The four magic bytes every journal file starts with.
pub const MAGIC: [u8; 4] = *b"XICJ";

/// The format version this build reads and writes.  Version 3 is the one
/// corpus log of `open` / `apply` / `close` / `commit` records; readers
/// strictly reject other versions, so older logs must be re-recorded.
pub const FORMAT_VERSION: u16 = 3;

/// Header length in bytes: magic, version, reserved, spec id.
pub const HEADER_LEN: usize = 4 + 2 + 2 + 16;

/// Per-record framing overhead: length, sequence number, tag, CRC.
pub(crate) const FRAME_LEN: usize = 4 + 8 + 1 + 4;

const TAG_OPEN: u8 = 1;
const TAG_APPLY: u8 = 2;
/// The `commit` record tag; the wire ships deltas under the same tag and
/// payload.
pub(crate) const TAG_DELTA: u8 = 3;
const TAG_CLOSE: u8 = 4;

/// Why a journal operation failed.  Every variant is a *structured
/// rejection*: readers never panic on hostile bytes and never hand back
/// silently wrong data (see the module docs for the recover-or-reject
/// contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io {
        /// The file involved.
        path: String,
        /// The OS error rendering.
        detail: String,
    },
    /// The file is not a journal (too short for a header, or bad magic).
    NotAJournal {
        /// The file involved.
        path: String,
        /// What was wrong with the header.
        detail: String,
    },
    /// The journal was written by an incompatible format version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The journal belongs to a different compiled specification.
    SpecMismatch {
        /// The spec the caller is validating against.
        expected: SpecId,
        /// The spec the log was recorded under.
        found: SpecId,
    },
    /// A non-final record failed its CRC or sequence check: the log is
    /// damaged beyond the torn-tail case and no suffix can be trusted.
    Corrupt {
        /// The sequence number the damaged record should have carried.
        seq: u64,
        /// Byte offset of the damaged record.
        offset: u64,
        /// What failed.
        detail: String,
    },
    /// A CRC-valid record's payload did not decode (wrong tag layout,
    /// truncated fields, invalid UTF-8, trailing bytes).
    Malformed {
        /// The record's sequence number.
        seq: u64,
        /// What failed to decode.
        detail: String,
    },
    /// A logged snapshot violated a tree invariant.
    Snapshot(SnapshotError),
    /// The log references element types or attributes the specification's
    /// DTD does not declare.
    ForeignIds {
        /// The record's sequence number.
        seq: u64,
        /// The offending reference.
        detail: String,
    },
    /// Replaying a logged op onto its document was rejected — the log's
    /// history is not a valid edit sequence for its own snapshot.
    Replay {
        /// Sequence number of the rejected `apply` record.
        seq: u64,
        /// The underlying rejection.
        error: EditError,
    },
    /// The log and the session disagree: a record names a document the log
    /// does not hold, a recovered verdict differs from the logged one, or
    /// the session would append to a log it did not write.
    Diverged {
        /// What diverged.
        detail: String,
    },
    /// A delta arrived out of sequence (the replica would silently drift).
    DeltaGap {
        /// The sequence number the replica expected next.
        expected: u64,
        /// The sequence number that arrived.
        found: u64,
    },
    /// A delta contradicted the replica's state (wrong `was_clean`, a close
    /// for an unknown document, or counters that do not add up).
    DeltaMismatch {
        /// The delta's sequence number.
        seq: u64,
        /// The contradiction.
        detail: String,
    },
    /// The requested deltas were pruned from the session's retained
    /// history.
    PrunedDeltas {
        /// The oldest sequence number still retained.
        first_retained: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, detail } => write!(f, "{path}: {detail}"),
            JournalError::NotAJournal { path, detail } => {
                write!(f, "{path}: not a journal ({detail})")
            }
            JournalError::UnsupportedVersion { found } => {
                write!(f, "unsupported journal format version {found} (this build reads {FORMAT_VERSION})")
            }
            JournalError::SpecMismatch { expected, found } => {
                write!(f, "journal belongs to {found}, not {expected}")
            }
            JournalError::Corrupt {
                seq,
                offset,
                detail,
            } => {
                write!(f, "corrupt record #{seq} at byte {offset}: {detail}")
            }
            JournalError::Malformed { seq, detail } => {
                write!(f, "record #{seq} does not decode: {detail}")
            }
            JournalError::Snapshot(err) => write!(f, "{err}"),
            JournalError::ForeignIds { seq, detail } => {
                write!(
                    f,
                    "record #{seq} references ids outside the spec's DTD: {detail}"
                )
            }
            JournalError::Replay { seq, error } => {
                write!(f, "logged op #{seq} does not replay: {error}")
            }
            JournalError::Diverged { detail } => {
                write!(f, "log and session histories diverge: {detail}")
            }
            JournalError::DeltaGap { expected, found } => {
                write!(
                    f,
                    "delta sequence gap: expected commit {expected}, got {found}"
                )
            }
            JournalError::DeltaMismatch { seq, detail } => {
                write!(f, "delta {seq} contradicts the replica: {detail}")
            }
            JournalError::PrunedDeltas { first_retained } => write!(
                f,
                "requested deltas were pruned; the oldest retained commit is {first_retained}"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<SnapshotError> for JournalError {
    fn from(err: SnapshotError) -> JournalError {
        JournalError::Snapshot(err)
    }
}

fn io_err(path: &Path, err: std::io::Error) -> JournalError {
    JournalError::Io {
        path: path.display().to_string(),
        detail: err.to_string(),
    }
}

pub(crate) fn diverged(detail: String) -> JournalError {
    JournalError::Diverged { detail }
}

// ---------------------------------------------------------------------------
// Hardened write path: short writes surfaced, transient errors retried with
// bounded backoff, data synced before a write is reported durable.  The
// `journal.write` / `journal.append` / `journal.sync` failpoints inject
// transient `Interrupted` faults here (see `xic_telemetry::faults`).

/// Process-wide transient-IO retry counter (`resilience.io_retries`),
/// resolved once.
fn io_retries_counter() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| xic_telemetry::global().counter("resilience.io_retries"))
}

/// Raises an injected transient fault (`ErrorKind::Interrupted`) when the
/// named failpoint is armed; compiled to `Ok(())` without the `faults`
/// feature.
fn fault_io(name: &'static str) -> std::io::Result<()> {
    if xic_telemetry::faults::hit(name) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            format!("injected fault: {name}"),
        ));
    }
    Ok(())
}

/// Retries a transient-failure-prone IO step with bounded backoff
/// (1/2/4 ms between the four attempts), counting each retry in
/// `resilience.io_retries`.  Only `Interrupted` is considered transient;
/// everything else surfaces immediately.  The closure must be safe to
/// re-run after a failure (nothing partially applied), which each caller
/// guarantees by retrying *stages*, not whole multi-stage writes.
fn retry_interrupted<T>(mut attempt: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    const BACKOFF_MS: [u64; 4] = [0, 1, 2, 4];
    for (i, backoff) in BACKOFF_MS.iter().enumerate() {
        if *backoff > 0 {
            std::thread::sleep(std::time::Duration::from_millis(*backoff));
        }
        match attempt() {
            Ok(value) => return Ok(value),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted && i + 1 < BACKOFF_MS.len() => {
                io_retries_counter().inc();
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("the final attempt either returned its value or its error")
}

/// `write_all` with explicit accounting: a `write` accepting zero bytes
/// mid-buffer surfaces as a `WriteZero` error naming how far the write
/// got (so the caller's `JournalError::Io` says "short write", not
/// nothing), and `Interrupted` is retried in place.
fn write_all_checked(file: &mut fs::File, mut buf: &[u8]) -> std::io::Result<()> {
    let total = buf.len();
    while !buf.is_empty() {
        match file.write(buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    format!(
                        "short write: only {} of {total} bytes accepted",
                        total - buf.len()
                    ),
                ))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                io_retries_counter().inc();
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One durable write: the buffer lands fully (short writes surfaced),
/// then `sync_data` pushes it to the platter before the write is reported
/// durable.  `point` is the failpoint name injected before the first byte
/// (`journal.write` for fresh files, `journal.append` for appends); the
/// sync stage carries its own `journal.sync` failpoint.  Each stage
/// retries transient failures independently, so a retry never re-appends
/// bytes that already landed.
fn write_and_sync(file: &mut fs::File, buf: &[u8], point: &'static str) -> std::io::Result<()> {
    retry_interrupted(|| fault_io(point))?;
    write_all_checked(file, buf)?;
    file.flush()?;
    retry_interrupted(|| {
        fault_io("journal.sync")?;
        file.sync_data()
    })
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — the per-record integrity check.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3) over a sequence of byte slices.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Little-endian encoders and decoders for the record payloads.

#[derive(Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }
    fn strs(&mut self, vs: &[String]) {
        self.u32(vs.len() as u32);
        for v in vs {
            self.str(v);
        }
    }
}

pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!("payload exhausted ({n} bytes wanted)"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    pub(crate) fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in string".to_string())
    }
    fn strs(&mut self) -> Result<Vec<String>, String> {
        let n = self.u32()?;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.str()?);
        }
        Ok(out)
    }
    pub(crate) fn finish(self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after the payload",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

const NO_PARENT: u32 = u32::MAX;

fn enc_snapshot(enc: &mut Enc, snap: &TreeSnapshot) {
    enc.u32(snap.root.0);
    enc.u32(snap.nodes.len() as u32);
    for node in &snap.nodes {
        match node.label {
            NodeLabel::Element(ty) => {
                enc.u8(0);
                enc.u32(ty.0);
            }
            NodeLabel::Attribute(attr) => {
                enc.u8(1);
                enc.u32(attr.0);
            }
            NodeLabel::Text => enc.u8(2),
        }
        enc.u32(node.parent.map_or(NO_PARENT, |p| p.0));
        let mut flags = 0u8;
        if node.detached {
            flags |= 1;
        }
        if node.value.is_some() {
            flags |= 2;
        }
        enc.u8(flags);
        if let Some(value) = &node.value {
            enc.str(value);
        }
        enc.u32(node.children.len() as u32);
        for c in &node.children {
            enc.u32(c.0);
        }
        enc.u32(node.attrs.len() as u32);
        for (attr, n) in &node.attrs {
            enc.u32(attr.0);
            enc.u32(n.0);
        }
    }
}

fn dec_snapshot(dec: &mut Dec<'_>) -> Result<TreeSnapshot, String> {
    let root = NodeId(dec.u32()?);
    let count = dec.u32()?;
    let mut nodes = Vec::new();
    for _ in 0..count {
        let label = match dec.u8()? {
            0 => NodeLabel::Element(ElemId(dec.u32()?)),
            1 => NodeLabel::Attribute(AttrId(dec.u32()?)),
            2 => NodeLabel::Text,
            other => return Err(format!("unknown node-label kind {other}")),
        };
        let parent = match dec.u32()? {
            NO_PARENT => None,
            p => Some(NodeId(p)),
        };
        let flags = dec.u8()?;
        if flags & !3 != 0 {
            return Err(format!("unknown node flags {flags:#x}"));
        }
        let value = if flags & 2 != 0 {
            Some(dec.str()?)
        } else {
            None
        };
        let num_children = dec.u32()?;
        let mut children = Vec::new();
        for _ in 0..num_children {
            children.push(NodeId(dec.u32()?));
        }
        let num_attrs = dec.u32()?;
        let mut attrs = Vec::new();
        for _ in 0..num_attrs {
            let attr = AttrId(dec.u32()?);
            attrs.push((attr, NodeId(dec.u32()?)));
        }
        nodes.push(NodeSnapshot {
            label,
            parent,
            value,
            detached: flags & 1 != 0,
            children,
            attrs,
        });
    }
    Ok(TreeSnapshot { nodes, root })
}

pub(crate) fn enc_op(enc: &mut Enc, op: &EditOp) {
    match op {
        EditOp::SetAttr {
            element,
            attr,
            value,
        } => {
            enc.u8(1);
            enc.u32(element.0);
            enc.u32(attr.0);
            enc.str(value);
        }
        EditOp::AddElement { parent, ty } => {
            enc.u8(2);
            enc.u32(parent.0);
            enc.u32(ty.0);
        }
        EditOp::AddText { parent, value } => {
            enc.u8(3);
            enc.u32(parent.0);
            enc.str(value);
        }
        EditOp::RemoveSubtree { element } => {
            enc.u8(4);
            enc.u32(element.0);
        }
    }
}

pub(crate) fn dec_op(dec: &mut Dec<'_>) -> Result<EditOp, String> {
    Ok(match dec.u8()? {
        1 => EditOp::SetAttr {
            element: NodeId(dec.u32()?),
            attr: AttrId(dec.u32()?),
            value: dec.str()?,
        },
        2 => EditOp::AddElement {
            parent: NodeId(dec.u32()?),
            ty: ElemId(dec.u32()?),
        },
        3 => EditOp::AddText {
            parent: NodeId(dec.u32()?),
            value: dec.str()?,
        },
        4 => EditOp::RemoveSubtree {
            element: NodeId(dec.u32()?),
        },
        other => return Err(format!("unknown edit-op tag {other}")),
    })
}

fn enc_violation(enc: &mut Enc, v: &Violation) {
    match v {
        Violation::KeyViolation {
            constraint,
            witnesses,
            values,
        } => {
            enc.u8(1);
            enc.str(constraint);
            enc.u32(witnesses.0 .0);
            enc.u32(witnesses.1 .0);
            enc.strs(values);
        }
        Violation::InclusionViolation {
            constraint,
            witness,
            values,
        } => {
            enc.u8(2);
            enc.str(constraint);
            enc.u32(witness.0);
            enc.strs(values);
        }
        Violation::MissingAttributes {
            constraint,
            witness,
        } => {
            enc.u8(3);
            enc.str(constraint);
            enc.u32(witness.0);
        }
        Violation::NegationUnsatisfied { constraint } => {
            enc.u8(4);
            enc.str(constraint);
        }
    }
}

fn dec_violation(dec: &mut Dec<'_>) -> Result<Violation, String> {
    Ok(match dec.u8()? {
        1 => Violation::KeyViolation {
            constraint: dec.str()?,
            witnesses: (NodeId(dec.u32()?), NodeId(dec.u32()?)),
            values: dec.strs()?,
        },
        2 => Violation::InclusionViolation {
            constraint: dec.str()?,
            witness: NodeId(dec.u32()?),
            values: dec.strs()?,
        },
        3 => Violation::MissingAttributes {
            constraint: dec.str()?,
            witness: NodeId(dec.u32()?),
        },
        4 => Violation::NegationUnsatisfied {
            constraint: dec.str()?,
        },
        other => return Err(format!("unknown violation tag {other}")),
    })
}

fn enc_doc_report(enc: &mut Enc, r: &DocReport) {
    enc.u64(r.index as u64);
    enc.str(&r.label);
    match &r.parse_error {
        None => enc.u8(0),
        Some(e) => {
            enc.u8(1);
            enc.str(e);
        }
    }
    enc.strs(&r.validation_errors);
    enc.u32(r.violations.len() as u32);
    for v in &r.violations {
        enc_violation(enc, v);
    }
    match &r.fault {
        None => enc.u8(0),
        Some(crate::DocFault::Panic { cause }) => {
            enc.u8(1);
            enc.str(cause);
        }
        Some(crate::DocFault::Resource { cause }) => {
            enc.u8(2);
            enc.str(cause);
        }
    }
}

fn dec_doc_report(dec: &mut Dec<'_>) -> Result<DocReport, String> {
    let index = dec.u64()? as usize;
    let label = dec.str()?;
    let parse_error = match dec.u8()? {
        0 => None,
        1 => Some(dec.str()?),
        other => return Err(format!("unknown parse-error flag {other}")),
    };
    let validation_errors = dec.strs()?;
    let num_violations = dec.u32()?;
    let mut violations = Vec::new();
    for _ in 0..num_violations {
        violations.push(dec_violation(dec)?);
    }
    let fault = match dec.u8()? {
        0 => None,
        1 => Some(crate::DocFault::Panic { cause: dec.str()? }),
        2 => Some(crate::DocFault::Resource { cause: dec.str()? }),
        other => return Err(format!("unknown fault flag {other}")),
    };
    Ok(DocReport {
        index,
        label,
        parse_error,
        validation_errors,
        violations,
        fault,
    })
}

fn enc_shards(enc: &mut Enc, shards: &[u32]) {
    enc.u32(shards.len() as u32);
    for &s in shards {
        enc.u32(s);
    }
}

fn dec_shards(dec: &mut Dec<'_>) -> Result<Vec<u32>, String> {
    let n = dec.u32()?;
    let mut shards = Vec::new();
    for _ in 0..n {
        shards.push(dec.u32()?);
    }
    Ok(shards)
}

pub(crate) fn enc_delta(enc: &mut Enc, delta: &BatchDelta) {
    enc.u64(delta.seq);
    enc.u64(delta.rechecked_docs as u64);
    enc.u64(delta.total as u64);
    enc.u64(delta.clean as u64);
    enc_shards(enc, &delta.shards);
    enc.u32(delta.closed.len() as u32);
    for closed in &delta.closed {
        enc.u64(closed.handle.raw());
        enc.str(&closed.label);
    }
    enc.u32(delta.changes.len() as u32);
    for change in &delta.changes {
        enc.u64(change.handle.raw());
        enc.u8(match change.was_clean {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
        enc_shards(enc, &change.shards);
        enc_doc_report(enc, &change.report);
    }
}

pub(crate) fn dec_delta(dec: &mut Dec<'_>) -> Result<BatchDelta, String> {
    let seq = dec.u64()?;
    let rechecked_docs = dec.u64()? as usize;
    let total = dec.u64()? as usize;
    let clean = dec.u64()? as usize;
    let shards = dec_shards(dec)?;
    let num_closed = dec.u32()?;
    let mut closed = Vec::new();
    for _ in 0..num_closed {
        closed.push(ClosedDoc {
            handle: DocHandle::from_raw(dec.u64()?),
            label: dec.str()?,
        });
    }
    let num_changes = dec.u32()?;
    let mut changes = Vec::new();
    for _ in 0..num_changes {
        let handle = DocHandle::from_raw(dec.u64()?);
        let was_clean = match dec.u8()? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            other => return Err(format!("unknown was-clean flag {other}")),
        };
        let change_shards = dec_shards(dec)?;
        changes.push(DocChange {
            handle,
            was_clean,
            report: dec_doc_report(dec)?,
            shards: change_shards,
        });
    }
    Ok(BatchDelta {
        seq,
        changes,
        closed,
        rechecked_docs,
        total,
        clean,
        shards,
    })
}

// ---------------------------------------------------------------------------
// Raw framing: header + CRC'd records with torn-tail recovery.

/// One CRC-valid record as framed on disk.
#[derive(Debug, Clone)]
struct RawRecord {
    seq: u64,
    tag: u8,
    payload: Vec<u8>,
    offset: u64,
}

#[derive(Debug)]
struct RawLog {
    spec: SpecId,
    records: Vec<RawRecord>,
    /// Bytes covered by the header plus the valid records: appends resume
    /// here, dropping any torn tail.
    durable_bytes: u64,
    /// Total bytes in the file (`> durable_bytes` when a tail was torn).
    file_bytes: u64,
    /// Mid-log damage found in lossy mode (strict mode errors instead).
    corrupt: Option<JournalError>,
}

fn write_header(buf: &mut Vec<u8>, spec: SpecId) {
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(&spec.0.to_le_bytes());
    buf.extend_from_slice(&spec.1.to_le_bytes());
}

pub(crate) fn frame_record(buf: &mut Vec<u8>, seq: u64, tag: u8, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let seq_bytes = seq.to_le_bytes();
    buf.extend_from_slice(&seq_bytes);
    buf.push(tag);
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&crc32(&[&seq_bytes, &[tag], payload]).to_le_bytes());
}

/// Checks a header's magic, version and reserved bytes, returning its spec.
fn parse_header(bytes: &[u8], path: &Path) -> Result<SpecId, JournalError> {
    let not_a_journal = |detail: &str| JournalError::NotAJournal {
        path: path.display().to_string(),
        detail: detail.to_string(),
    };
    if bytes.len() < HEADER_LEN {
        return Err(not_a_journal("shorter than the header"));
    }
    if bytes[..4] != MAGIC {
        return Err(not_a_journal("bad magic"));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(JournalError::UnsupportedVersion { found: version });
    }
    if bytes[6..8] != [0, 0] {
        return Err(not_a_journal("reserved header bytes are not zero"));
    }
    Ok(SpecId(
        u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
        u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
    ))
}

/// Parses header and records; `lossy` reports mid-log corruption in the
/// result instead of failing (for `inspect`).
fn read_raw(path: &Path, lossy: bool) -> Result<RawLog, JournalError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    let spec = parse_header(&bytes, path)?;

    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    let mut expected_seq = 1u64;
    let mut corrupt = None;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_LEN {
            break; // torn tail: not even a frame
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if (len as u64) > (remaining - FRAME_LEN) as u64 {
            break; // torn tail: the record extends past EOF
        }
        let seq = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        let tag = bytes[pos + 12];
        let payload = &bytes[pos + 13..pos + 13 + len];
        let stored = u32::from_le_bytes(
            bytes[pos + 13 + len..pos + FRAME_LEN + len]
                .try_into()
                .unwrap(),
        );
        let computed = crc32(&[&bytes[pos + 4..pos + 12], &[tag], payload]);
        let end = pos + FRAME_LEN + len;
        let damage = if computed != stored {
            instruments().crc_failures.inc();
            Some("CRC mismatch".to_string())
        } else if seq != expected_seq {
            Some(format!("sequence {seq} where {expected_seq} was expected"))
        } else {
            None
        };
        if let Some(detail) = damage {
            if end == bytes.len() && detail == "CRC mismatch" {
                // The final record failed its CRC: indistinguishable from a
                // partially overwritten tail — truncate, don't reject.
                break;
            }
            let err = JournalError::Corrupt {
                seq: expected_seq,
                offset: pos as u64,
                detail,
            };
            if lossy {
                corrupt = Some(err);
                break;
            }
            return Err(err);
        }
        records.push(RawRecord {
            seq,
            tag,
            payload: payload.to_vec(),
            offset: pos as u64,
        });
        pos = end;
        expected_seq += 1;
    }

    Ok(RawLog {
        spec,
        records,
        durable_bytes: pos as u64,
        file_bytes: bytes.len() as u64,
        corrupt,
    })
}

fn expect_spec(found: SpecId, expected: SpecId) -> Result<(), JournalError> {
    if found != expected {
        return Err(JournalError::SpecMismatch { expected, found });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Records: the corpus log's vocabulary.

/// One record of a corpus log.  Each mirrors the [`crate::CorpusSession`]
/// call it makes durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A document entering the log, as its tree stood at the persist that
    /// first logged it (every edit so far folded into the snapshot).
    Open {
        /// The document's session handle.
        handle: DocHandle,
        /// Its label.
        label: String,
        /// The slot-for-slot tree.
        snapshot: TreeSnapshot,
    },
    /// One edit of a logged document.
    Apply {
        /// The edited document.
        handle: DocHandle,
        /// The edit.
        op: EditOp,
    },
    /// A close that no logged commit has announced yet.
    Close(ClosedDoc),
    /// One commit's delta.
    Commit(BatchDelta),
}

impl LogRecord {
    /// Encodes the payload, returning the record's tag.
    fn encode(&self, enc: &mut Enc) -> u8 {
        match self {
            LogRecord::Open {
                handle,
                label,
                snapshot,
            } => {
                enc.u64(handle.raw());
                enc.str(label);
                enc_snapshot(enc, snapshot);
                TAG_OPEN
            }
            LogRecord::Apply { handle, op } => {
                enc.u64(handle.raw());
                enc_op(enc, op);
                TAG_APPLY
            }
            LogRecord::Close(closed) => {
                enc.u64(closed.handle.raw());
                enc.str(&closed.label);
                TAG_CLOSE
            }
            LogRecord::Commit(delta) => {
                enc_delta(enc, delta);
                TAG_DELTA
            }
        }
    }

    fn decode(record: &RawRecord) -> Result<LogRecord, JournalError> {
        let mut dec = Dec::new(&record.payload);
        let decoded = (|| {
            Ok(match record.tag {
                TAG_OPEN => LogRecord::Open {
                    handle: DocHandle::from_raw(dec.u64()?),
                    label: dec.str()?,
                    snapshot: dec_snapshot(&mut dec)?,
                },
                TAG_APPLY => LogRecord::Apply {
                    handle: DocHandle::from_raw(dec.u64()?),
                    op: dec_op(&mut dec)?,
                },
                TAG_CLOSE => LogRecord::Close(ClosedDoc {
                    handle: DocHandle::from_raw(dec.u64()?),
                    label: dec.str()?,
                }),
                TAG_DELTA => LogRecord::Commit(dec_delta(&mut dec)?),
                other => return Err(format!("unknown record tag {other}")),
            })
        })();
        let malformed = |detail| JournalError::Malformed {
            seq: record.seq,
            detail,
        };
        let decoded = decoded.map_err(malformed)?;
        dec.finish().map_err(malformed)?;
        Ok(decoded)
    }

    /// Rejects snapshots and ops that reference element types or attributes
    /// the DTD does not declare (a hostile log could otherwise make witness
    /// rendering or structural validation index out of bounds).
    pub(crate) fn check_ids(&self, seq: u64, dtd: &Dtd) -> Result<(), JournalError> {
        let types = dtd.num_types() as u32;
        let attrs = dtd.num_attrs() as u32;
        let bad = match self {
            LogRecord::Open { snapshot, .. } => {
                snapshot.nodes.iter().enumerate().find_map(|(i, node)| {
                    match node.label {
                        NodeLabel::Element(ty) if ty.0 >= types => {
                            return Some(format!("node #{i} has element type {}", ty.0))
                        }
                        NodeLabel::Attribute(attr) if attr.0 >= attrs => {
                            return Some(format!("node #{i} has attribute {}", attr.0))
                        }
                        _ => {}
                    }
                    node.attrs
                        .iter()
                        .find(|(a, _)| a.0 >= attrs)
                        .map(|(attr, _)| format!("node #{i} lists attribute {}", attr.0))
                })
            }
            LogRecord::Apply { op, .. } => match op {
                EditOp::SetAttr { attr, .. } if attr.0 >= attrs => {
                    Some(format!("attribute {}", attr.0))
                }
                EditOp::AddElement { ty, .. } if ty.0 >= types => {
                    Some(format!("element type {}", ty.0))
                }
                _ => None,
            },
            LogRecord::Close(_) | LogRecord::Commit(_) => None,
        };
        match bad {
            Some(detail) => Err(JournalError::ForeignIds { seq, detail }),
            None => Ok(()),
        }
    }
}

/// A decoded corpus log: its durable records, oldest first (record `i`
/// carries sequence number `i + 1`).
#[derive(Debug, Clone)]
pub struct CorpusLog {
    /// The durable records.
    pub records: Vec<LogRecord>,
    /// Whether a torn tail was dropped while reading.
    pub truncated: bool,
    /// Bytes covered by the durable prefix (header + valid records).
    pub durable_bytes: u64,
}

impl CorpusLog {
    /// The logged commits' deltas, in commit order.
    pub fn commits(&self) -> impl Iterator<Item = &BatchDelta> {
        self.records.iter().filter_map(|record| match record {
            LogRecord::Commit(delta) => Some(delta),
            _ => None,
        })
    }
}

/// Reads a corpus log, dropping a torn tail and rejecting anything
/// structurally unsound (see the module's recover-or-reject contract).
pub fn read_log(path: impl AsRef<Path>, expected: SpecId) -> Result<CorpusLog, JournalError> {
    let raw = read_raw(path.as_ref(), false)?;
    expect_spec(raw.spec, expected)?;
    instruments().records_read.add(raw.records.len() as u64);
    Ok(CorpusLog {
        records: raw
            .records
            .iter()
            .map(LogRecord::decode)
            .collect::<Result<_, _>>()?,
        truncated: raw.durable_bytes < raw.file_bytes,
        durable_bytes: raw.durable_bytes,
    })
}

// ---------------------------------------------------------------------------
// The one write path.

/// The outcome of a persist: what was written and where the log now ends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PersistReceipt {
    /// Records appended by this call.
    pub records_written: usize,
    /// `commit` records among them.
    pub commits_written: usize,
    /// Records in the log after the call.
    pub total_records: u64,
    /// Bytes in the log after the call.
    pub durable_bytes: u64,
    /// Whether bytes past the durable prefix — a torn tail, or an append
    /// that failed before it was acknowledged — were truncated first.
    pub repaired_torn_tail: bool,
}

/// Where a session's log ends: the durable prefix its writer appends to.
#[derive(Debug, Clone)]
pub(crate) struct LogCursor {
    pub(crate) path: PathBuf,
    /// Bytes of the header plus every durable record.
    pub(crate) durable_bytes: u64,
    /// Durable records (the next record carries one more).
    pub(crate) records: u64,
}

/// Appends `records` to the log at `path` — the one function every log
/// write goes through — and returns the receipt with the log's new end.
///
/// Without a `cursor` the path must hold nothing durable: it is missing,
/// empty, a strict prefix of this writer's header, or that header with no
/// complete record (a crash tore the first write).  The log is then written
/// from scratch; without this, one crash during the first persist would
/// brick the path forever.  With a `cursor` the file must begin with this
/// spec's header and reach the cursor; anything past it — a torn tail, or
/// the bytes of an append that failed before it was acknowledged — is
/// truncated before the append.  Anything else (another spec's log, a
/// non-journal file, a log this writer never held) is an error, never
/// clobbered.
pub(crate) fn append_log(
    path: &Path,
    spec: SpecId,
    cursor: Option<&LogCursor>,
    records: &[LogRecord],
) -> Result<(PersistReceipt, LogCursor), JournalError> {
    let timer = xic_telemetry::global().start_timer();
    let (start, first_seq, repaired) = match cursor {
        None => (0, 0, check_fresh(path, spec)?),
        Some(c) => (c.durable_bytes, c.records, check_cursor(path, spec, c)?),
    };
    let mut buf = Vec::new();
    if cursor.is_none() {
        write_header(&mut buf, spec);
    }
    let mut seq = first_seq;
    for record in records {
        if matches!(record, LogRecord::Open { .. })
            && xic_telemetry::faults::hit("journal.snapshot_encode")
        {
            return Err(JournalError::Io {
                path: path.display().to_string(),
                detail: "injected fault: journal.snapshot_encode".to_string(),
            });
        }
        seq += 1;
        let mut enc = Enc::default();
        let tag = record.encode(&mut enc);
        frame_record(&mut buf, seq, tag, &enc.buf);
    }
    if cursor.is_none() {
        let create = || write_and_sync(&mut fs::File::create(path)?, &buf, "journal.write");
        create().map_err(|e| io_err(path, e))?;
    } else {
        let append = || {
            let mut file = OpenOptions::new().write(true).open(path)?;
            file.set_len(start)?;
            file.seek(std::io::SeekFrom::End(0))?;
            write_and_sync(&mut file, &buf, "journal.append")
        };
        append().map_err(|e| io_err(path, e))?;
    }

    let instr = instruments();
    instr.records_appended.add(records.len() as u64);
    instr.bytes_written.add(buf.len() as u64);
    if repaired {
        instr.torn_repairs.inc();
    }
    if let Some(started) = timer {
        instr.persist_ns.record_elapsed(started);
    }
    let durable_bytes = start + buf.len() as u64;
    let receipt = PersistReceipt {
        records_written: records.len(),
        commits_written: records
            .iter()
            .filter(|r| matches!(r, LogRecord::Commit(_)))
            .count(),
        total_records: seq,
        durable_bytes,
        repaired_torn_tail: repaired,
    };
    let cursor = LogCursor {
        path: path.to_path_buf(),
        durable_bytes,
        records: seq,
    };
    Ok((receipt, cursor))
}

/// Checks that `path` holds nothing durable (see [`append_log`]); returns
/// whether a torn first write is about to be overwritten.
fn check_fresh(path: &Path, spec: SpecId) -> Result<bool, JournalError> {
    // A missing file reads as empty: fresh.
    let existing = fs::read(path).unwrap_or_default();
    if existing.len() < HEADER_LEN {
        let mut header = Vec::new();
        write_header(&mut header, spec);
        if header.starts_with(&existing) {
            return Ok(!existing.is_empty());
        }
        return Err(JournalError::NotAJournal {
            path: path.display().to_string(),
            detail: "shorter than the header".to_string(),
        });
    }
    let raw = read_raw(path, false)?;
    expect_spec(raw.spec, spec)?;
    if !raw.records.is_empty() {
        return Err(diverged(format!(
            "{} already holds {} records this session did not write; recover from it instead",
            path.display(),
            raw.records.len()
        )));
    }
    Ok(raw.file_bytes > HEADER_LEN as u64)
}

/// Checks that `path` is this spec's log and reaches `cursor`; returns
/// whether bytes past the cursor are about to be truncated.
fn check_cursor(path: &Path, spec: SpecId, cursor: &LogCursor) -> Result<bool, JournalError> {
    let mut file = fs::File::open(path).map_err(|e| io_err(path, e))?;
    let len = file.metadata().map_err(|e| io_err(path, e))?.len();
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header).map_err(|e| io_err(path, e))?;
    expect_spec(parse_header(&header, path)?, spec)?;
    if len < cursor.durable_bytes {
        return Err(diverged(format!(
            "{} holds {len} bytes, but this session already made {} durable there",
            path.display(),
            cursor.durable_bytes
        )));
    }
    Ok(len > cursor.durable_bytes)
}

// ---------------------------------------------------------------------------
// The replica: verdicts from deltas alone.

/// A validation replica fed nothing but [`BatchDelta`]s.
///
/// The replica holds the last delivered [`DocReport`] per document handle
/// and applies each commit's delta — report replacements and closes — under
/// strict sequence checking, so its [`CorpusReplica::report`] is exactly
/// the originating `CorpusSession::report()` after the same commit
/// (`tests/replica_agreement.rs` asserts the equality after every commit).
/// Documents are never re-shipped and never re-parsed: the delta stream is
/// sufficient, which is what makes the log a replication transport.
#[derive(Debug, Clone)]
pub struct CorpusReplica {
    spec: SpecId,
    last_seq: u64,
    pub(crate) docs: BTreeMap<u64, DocReport>,
    /// Clean documents, maintained incrementally (validation compares it
    /// to every delta's `clean` counter without a corpus-wide recount).
    /// For a shard-filtered replica this counts documents clean *in the
    /// shard projection* (the delta's global counter is not comparable).
    clean_docs: usize,
    /// `Some(k)`: a shard-filtered replica fed only shard-`k` projected
    /// deltas.  Sequence numbers are then checked monotone instead of
    /// contiguous (untagged commits are legitimately never delivered), and
    /// the global `was_clean` / `total` / `clean` probes — unknowable from
    /// a projected stream — are skipped; per-delta structural probes
    /// (duplicate changes, unknown closes) still hold.
    shard: Option<u32>,
}

impl CorpusReplica {
    /// An empty replica for the given specification, expecting the delta
    /// stream from commit 1.
    pub fn new(spec: SpecId) -> CorpusReplica {
        CorpusReplica {
            spec,
            last_seq: 0,
            docs: BTreeMap::new(),
            clean_docs: 0,
            shard: None,
        }
    }

    /// An empty shard-filtered replica: feed it the shard-`k` projections
    /// ([`BatchDelta::project`], or a server sync with a shard filter) of
    /// the deltas that touch shard `k`, in order, and its
    /// [`CorpusReplica::report`] reconstructs the shard-`k` projection of
    /// the session's report exactly — same documents (opens and closes are
    /// broadcast to every shard), each report restricted to the shard's
    /// constraints.
    pub fn new_sharded(spec: SpecId, shard: u32) -> CorpusReplica {
        CorpusReplica {
            shard: Some(shard),
            ..CorpusReplica::new(spec)
        }
    }

    /// The shard this replica is filtered to, if any.
    pub fn shard(&self) -> Option<u32> {
        self.shard
    }

    /// The specification the replica mirrors.
    pub fn spec(&self) -> SpecId {
        self.spec
    }

    /// The last commit applied (0 before the first).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The mirrored documents in handle (= open) order, with their last
    /// delivered reports.
    pub fn docs(&self) -> impl Iterator<Item = (DocHandle, &DocReport)> {
        self.docs
            .iter()
            .map(|(&raw, report)| (DocHandle::from_raw(raw), report))
    }

    /// Number of open documents in the mirrored corpus.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Number of clean documents in the mirrored corpus.
    pub fn clean_count(&self) -> usize {
        self.clean_docs
    }

    /// Applies one commit's delta.  The delta must be the next in sequence
    /// and must be consistent with the replica's state — a stale
    /// `was_clean`, a close for an unknown handle, or counters that do not
    /// add up are rejected ([`JournalError::DeltaGap`] /
    /// [`JournalError::DeltaMismatch`]) before anything is mutated, so a
    /// failed apply leaves the replica unchanged.
    pub fn apply_delta(&mut self, delta: &BatchDelta) -> Result<(), JournalError> {
        let filtered = self.shard.is_some();
        if filtered {
            // A filtered stream skips untagged commits: monotone, not
            // contiguous.
            if delta.seq <= self.last_seq {
                return Err(JournalError::DeltaGap {
                    expected: self.last_seq + 1,
                    found: delta.seq,
                });
            }
        } else if delta.seq != self.last_seq + 1 {
            return Err(JournalError::DeltaGap {
                expected: self.last_seq + 1,
                found: delta.seq,
            });
        }
        let mismatch = |detail: String| JournalError::DeltaMismatch {
            seq: delta.seq,
            detail,
        };
        if let Some(shard) = self.shard {
            if !delta.touches_shard(shard) {
                return Err(mismatch(format!(
                    "delta is not tagged with subscribed shard {shard}"
                )));
            }
        }
        // Validate everything against the current state — and compute the
        // post-delta counters arithmetically from read-only probes — before
        // mutating anything, so a rejection leaves the replica untouched
        // without deep-cloning the whole docs map per delta.
        let mut total = self.docs.len();
        let mut clean = self.clean_docs;
        for (i, change) in delta.changes.iter().enumerate() {
            if delta.changes[..i].iter().any(|c| c.handle == change.handle) {
                return Err(mismatch(format!("{} changed twice", change.handle)));
            }
            let previous = self.docs.get(&change.handle.raw()).map(DocReport::is_clean);
            // `was_clean` reports *global* cleanliness; a shard projection
            // holds only the shard's view, so the probe is unscoped-only.
            if !filtered && change.was_clean != previous {
                return Err(mismatch(format!(
                    "{} arrived with was_clean {:?} but the replica holds {:?}",
                    change.handle, change.was_clean, previous
                )));
            }
            if previous.is_none() {
                total += 1;
            }
            clean = clean - usize::from(previous == Some(true)) + usize::from(change.now_clean());
        }
        for (i, closed) in delta.closed.iter().enumerate() {
            if delta.closed[..i].iter().any(|c| c.handle == closed.handle) {
                return Err(mismatch(format!("{} closed twice", closed.handle)));
            }
            let Some(report) = self.docs.get(&closed.handle.raw()) else {
                return Err(mismatch(format!("close for unknown {}", closed.handle)));
            };
            if delta.changes.iter().any(|c| c.handle == closed.handle) {
                return Err(mismatch(format!(
                    "{} both changed and closed",
                    closed.handle
                )));
            }
            total -= 1;
            clean -= usize::from(report.is_clean());
        }
        // The projected stream's counters are the session's global ones;
        // only an unfiltered replica can hold the delta to them.
        if !filtered && total != delta.total {
            return Err(mismatch(format!(
                "delta says {} open documents, the replica derives {total}",
                delta.total
            )));
        }
        if !filtered && clean != delta.clean {
            return Err(mismatch(format!(
                "delta says {} clean documents, the replica derives {clean}",
                delta.clean
            )));
        }
        // Everything checks out: apply in place, O(changes + closes).
        for change in &delta.changes {
            self.docs.insert(change.handle.raw(), change.report.clone());
        }
        for closed in &delta.closed {
            self.docs.remove(&closed.handle.raw());
        }
        self.clean_docs = clean;
        self.last_seq = delta.seq;
        Ok(())
    }

    /// Applies a run of deltas in order; returns how many were applied.
    /// The first rejection aborts (the replica keeps the prefix).
    pub fn apply_deltas<'a>(
        &mut self,
        deltas: impl IntoIterator<Item = &'a BatchDelta>,
    ) -> Result<usize, JournalError> {
        let mut applied = 0;
        for delta in deltas {
            self.apply_delta(delta)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// The mirrored corpus report: per-document reports in handle (= open)
    /// order with positions renumbered — exactly
    /// `CorpusSession::report()` after the last applied commit.
    pub fn report(&self) -> BatchReport {
        let reports = self
            .docs
            .values()
            .enumerate()
            .map(|(position, report)| {
                let mut report = report.clone();
                report.index = position;
                report
            })
            .collect();
        BatchReport::from_reports(reports)
    }

    /// Rebuilds a replica from a corpus log's `commit` records alone (a
    /// torn tail yields the last durable commit; the second component
    /// reports whether one was dropped).  This is how a replica closes and
    /// re-opens without the primary re-sending anything.
    pub fn recover_from(
        path: impl AsRef<Path>,
        expected: SpecId,
    ) -> Result<(CorpusReplica, bool), JournalError> {
        let log = read_log(path, expected)?;
        let mut replica = CorpusReplica::new(expected);
        replica.apply_deltas(log.commits())?;
        Ok((replica, log.truncated))
    }
}

// ---------------------------------------------------------------------------
// Inspection: the self-describing half.

/// One record as rendered by [`inspect_log`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSummary {
    /// The record's sequence number.
    pub seq: u64,
    /// Byte offset of the record in the file.
    pub offset: u64,
    /// The record type (`open`, `apply`, `close`, `commit`, or `tag N` for
    /// unknown).
    pub kind: String,
    /// Payload size in bytes.
    pub bytes: usize,
    /// A one-line human rendering: ops use the `xic batch --session`
    /// script syntax — the log's human-readable twin.
    pub detail: String,
}

/// What [`inspect_log`] reports about a journal file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogSummary {
    /// The specification the log was recorded under.
    pub spec: SpecId,
    /// Per-record summaries of the durable prefix.
    pub records: Vec<RecordSummary>,
    /// Bytes covered by the durable prefix.
    pub durable_bytes: u64,
    /// Bytes past the durable prefix (non-zero exactly for a torn tail).
    pub torn_bytes: u64,
    /// Mid-log damage, rendered (inspection is lossy: the valid prefix is
    /// still summarized).
    pub corrupt: Option<String>,
}

/// Renders one op in the session-script syntax, addressing the document by
/// `label`.
fn render_op(label: &str, op: &EditOp, dtd: Option<&Dtd>) -> String {
    let attr_name = |attr: AttrId| match dtd {
        Some(dtd) if attr.index() < dtd.num_attrs() => dtd.attr_name(attr).to_string(),
        _ => format!("@{}", attr.0),
    };
    let type_name = |ty: ElemId| match dtd {
        Some(dtd) if ty.index() < dtd.num_types() => dtd.type_name(ty).to_string(),
        _ => format!("#{}", ty.0),
    };
    match op {
        EditOp::SetAttr {
            element,
            attr,
            value,
        } => format!("set {label} {} {} {value}", element.0, attr_name(*attr)),
        EditOp::AddElement { parent, ty } => {
            format!("add {label} {} {}", parent.0, type_name(*ty))
        }
        EditOp::AddText { parent, value } => format!("text {label} {} {value}", parent.0),
        EditOp::RemoveSubtree { element } => format!("remove {label} {}", element.0),
    }
}

/// Summarizes a journal file without needing the compiled specification:
/// header facts, per-record details (ops rendered in the session-script
/// syntax under the label their `open` record gave, resolved through `dtd`
/// when one is supplied), torn-tail and corruption status.  Damage after
/// the header is *reported*, not fatal — the durable prefix is still
/// summarized.
pub fn inspect_log(path: impl AsRef<Path>, dtd: Option<&Dtd>) -> Result<LogSummary, JournalError> {
    let raw = read_raw(path.as_ref(), true)?;
    let mut labels: BTreeMap<DocHandle, String> = BTreeMap::new();
    let mut records = Vec::with_capacity(raw.records.len());
    for record in &raw.records {
        let kind = match record.tag {
            TAG_OPEN => "open".to_string(),
            TAG_APPLY => "apply".to_string(),
            TAG_CLOSE => "close".to_string(),
            TAG_DELTA => "commit".to_string(),
            other => format!("tag {other}"),
        };
        let detail = match LogRecord::decode(record) {
            Err(e) => format!("undecodable: {e}"),
            Ok(LogRecord::Open {
                handle,
                label,
                snapshot,
            }) => {
                let detail = format!(
                    "open {label} as {handle}: {} slots ({} live)",
                    snapshot.num_slots(),
                    snapshot.live_nodes(),
                );
                labels.insert(handle, label);
                detail
            }
            Ok(LogRecord::Apply { handle, op }) => {
                let label = labels
                    .get(&handle)
                    .cloned()
                    .unwrap_or_else(|| handle.to_string());
                render_op(&label, &op, dtd)
            }
            Ok(LogRecord::Close(closed)) => format!("close {} ({})", closed.label, closed.handle),
            Ok(LogRecord::Commit(delta)) => {
                let s = delta.summary();
                format!(
                    "commit {}: {} changes ({} flips), {} closed, {} rechecked, \
                     {}/{} clean, {} violations",
                    delta.seq,
                    s.docs_changed,
                    s.flips(),
                    s.closed,
                    s.rechecked,
                    delta.clean,
                    delta.total,
                    s.violations_now
                )
            }
        };
        records.push(RecordSummary {
            seq: record.seq,
            offset: record.offset,
            kind,
            bytes: record.payload.len(),
            detail,
        });
    }
    Ok(LogSummary {
        spec: raw.spec,
        records,
        durable_bytes: raw.durable_bytes,
        torn_bytes: raw.file_bytes - raw.durable_bytes,
        corrupt: raw.corrupt.map(|e| e.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CompiledSpec;

    fn spec() -> CompiledSpec {
        CompiledSpec::from_sources(
            "<!ELEMENT school (teacher*)>\n\
             <!ELEMENT teacher EMPTY>\n\
             <!ATTLIST teacher name CDATA #REQUIRED>",
            Some("school"),
            "teacher.name -> teacher",
        )
        .unwrap()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("xic-journal-test-{}-{name}", std::process::id()));
        fs::remove_file(&path).ok();
        path
    }

    fn empty_commit(seq: u64) -> LogRecord {
        LogRecord::Commit(BatchDelta {
            seq,
            changes: vec![],
            closed: vec![],
            rechecked_docs: 0,
            total: 0,
            clean: 0,
            shards: vec![],
        })
    }

    fn round_trip(record: &LogRecord) -> LogRecord {
        let mut enc = Enc::default();
        let tag = record.encode(&mut enc);
        LogRecord::decode(&RawRecord {
            seq: 1,
            tag,
            payload: enc.buf,
            offset: 0,
        })
        .unwrap()
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn ops_and_snapshots_round_trip_through_the_codec() {
        let spec = spec();
        let tree = spec
            .parse_document("<school><teacher name=\"Jo&amp;e\"/></school>")
            .unwrap();
        let ops = vec![
            EditOp::SetAttr {
                element: NodeId(1),
                attr: AttrId(0),
                value: "weird \u{1F600} value\n".into(),
            },
            EditOp::AddElement {
                parent: NodeId(0),
                ty: ElemId(1),
            },
            EditOp::AddText {
                parent: NodeId(0),
                value: String::new(),
            },
            EditOp::RemoveSubtree { element: NodeId(1) },
        ];
        let handle = DocHandle::from_raw(4);
        for op in ops {
            let apply = LogRecord::Apply { handle, op };
            assert_eq!(round_trip(&apply), apply);
        }
        let open = LogRecord::Open {
            handle,
            label: "a \"quoted\" label".into(),
            snapshot: tree.snapshot(),
        };
        assert_eq!(round_trip(&open), open);
        let close = LogRecord::Close(ClosedDoc {
            handle,
            label: "gone.xml".into(),
        });
        assert_eq!(round_trip(&close), close);
        // Trailing bytes and unknown tags are malformed, not misread.
        let mut enc = Enc::default();
        close.encode(&mut enc);
        enc.u8(0);
        let raw = |tag, payload| RawRecord {
            seq: 9,
            tag,
            payload,
            offset: 0,
        };
        assert!(matches!(
            LogRecord::decode(&raw(TAG_CLOSE, enc.buf.clone())),
            Err(JournalError::Malformed { seq: 9, .. })
        ));
        assert!(matches!(
            LogRecord::decode(&raw(9, enc.buf)),
            Err(JournalError::Malformed { seq: 9, .. })
        ));
    }

    #[test]
    fn deltas_round_trip_through_the_codec() {
        let delta = BatchDelta {
            seq: 3,
            changes: vec![DocChange {
                handle: DocHandle::from_raw(7),
                was_clean: Some(false),
                report: DocReport {
                    index: 2,
                    label: "a \"quoted\" label".into(),
                    parse_error: Some("boom".into()),
                    fault: Some(crate::DocFault::Panic {
                        cause: "contained".into(),
                    }),
                    validation_errors: vec!["bad".into()],
                    violations: vec![
                        Violation::KeyViolation {
                            constraint: "k".into(),
                            witnesses: (NodeId(1), NodeId(5)),
                            values: vec!["x".into(), String::new()],
                        },
                        Violation::InclusionViolation {
                            constraint: "i".into(),
                            witness: NodeId(9),
                            values: vec![],
                        },
                        Violation::MissingAttributes {
                            constraint: "m".into(),
                            witness: NodeId(0),
                        },
                        Violation::NegationUnsatisfied {
                            constraint: "n".into(),
                        },
                    ],
                },
                shards: vec![0, 3],
            }],
            closed: vec![ClosedDoc {
                handle: DocHandle::from_raw(2),
                label: "gone.xml".into(),
            }],
            rechecked_docs: 1,
            total: 4,
            clean: 2,
            shards: vec![0, 1, 2, 3],
        };
        let mut enc = Enc::default();
        enc_delta(&mut enc, &delta);
        let mut dec = Dec::new(&enc.buf);
        assert_eq!(dec_delta(&mut dec).unwrap(), delta);
        dec.finish().unwrap();
        let commit = LogRecord::Commit(delta);
        assert_eq!(round_trip(&commit), commit);
    }

    #[test]
    fn torn_tails_are_truncated_and_mid_log_damage_is_rejected() {
        let spec = spec();
        let path = temp_path("torn.xicj");
        let commits: Vec<LogRecord> = (1..=3).map(empty_commit).collect();
        append_log(&path, spec.id(), None, &commits).unwrap();
        let full = fs::read(&path).unwrap();
        assert_eq!(read_log(&path, spec.id()).unwrap().records, commits);

        // Truncating inside the last record recovers the first two.
        fs::write(&path, &full[..full.len() - 2]).unwrap();
        let log = read_log(&path, spec.id()).unwrap();
        assert!(log.truncated);
        assert_eq!(log.commits().count(), 2);

        // Flipping a byte inside the *first* record (bytes follow it) is
        // mid-log damage: rejected, not silently recovered.
        let mut damaged = full.clone();
        damaged[HEADER_LEN + FRAME_LEN - 2] ^= 0xFF;
        fs::write(&path, &damaged).unwrap();
        assert!(matches!(
            read_log(&path, spec.id()),
            Err(JournalError::Corrupt { .. })
        ));

        // A wrong spec id is rejected before any record is trusted.
        fs::write(&path, &full).unwrap();
        assert!(matches!(
            read_log(&path, SpecId(1, 2)),
            Err(JournalError::SpecMismatch { .. })
        ));

        // Older formats are rejected, not misread.
        let mut v2 = full.clone();
        v2[4..6].copy_from_slice(&2u16.to_le_bytes());
        fs::write(&path, &v2).unwrap();
        assert_eq!(
            read_log(&path, spec.id()).unwrap_err(),
            JournalError::UnsupportedVersion { found: 2 }
        );

        // Garbage is not a journal.
        fs::write(&path, b"definitely not a journal").unwrap();
        assert!(matches!(
            read_log(&path, spec.id()),
            Err(JournalError::NotAJournal { .. })
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn a_crash_during_the_first_persist_does_not_brick_the_log() {
        let spec = spec();
        let school = spec.dtd().type_by_name("school").unwrap();
        let open = [LogRecord::Open {
            handle: DocHandle::from_raw(0),
            label: "doc".into(),
            snapshot: xic_xml::XmlTree::new(school).snapshot(),
        }];
        let path = temp_path("torn-first.xicj");

        // Baseline: what a clean first persist writes.
        append_log(&path, spec.id(), None, &open).unwrap();
        let full = fs::read(&path).unwrap();

        // A crash can cut the first write anywhere — mid-header or
        // mid-record.  The next persist must rewrite from scratch (nothing
        // was durable), not fail forever.
        for cut in [
            0usize,
            2,
            HEADER_LEN - 1,
            HEADER_LEN,
            HEADER_LEN + 5,
            full.len() - 1,
        ] {
            fs::write(&path, &full[..cut]).unwrap();
            let (receipt, cursor) = append_log(&path, spec.id(), None, &open)
                .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(receipt.total_records, 1, "cut at {cut}");
            assert_eq!(cursor.durable_bytes, full.len() as u64, "cut at {cut}");
            // A bare header (or nothing at all) needed no repair; any
            // other partial write did.
            assert_eq!(
                receipt.repaired_torn_tail,
                cut != 0 && cut != HEADER_LEN,
                "cut at {cut}"
            );
            assert_eq!(fs::read(&path).unwrap(), full, "cut at {cut}");
        }

        // A file that is NOT a torn prefix of our header is someone else's
        // data: never clobbered.
        fs::write(&path, b"README").unwrap();
        assert!(matches!(
            append_log(&path, spec.id(), None, &open),
            Err(JournalError::NotAJournal { .. })
        ));
        // Same for a complete header of a different spec.
        let mut foreign = Vec::new();
        write_header(&mut foreign, SpecId(1, 2));
        fs::write(&path, &foreign).unwrap();
        assert!(matches!(
            append_log(&path, spec.id(), None, &open),
            Err(JournalError::SpecMismatch { .. })
        ));
        // And for a log with durable records this writer does not hold.
        fs::write(&path, &full).unwrap();
        assert!(matches!(
            append_log(&path, spec.id(), None, &open),
            Err(JournalError::Diverged { .. })
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn appends_resume_at_the_cursor_and_truncate_what_was_never_acknowledged() {
        let spec = spec();
        let path = temp_path("append.xicj");
        let (_, cursor) = append_log(&path, spec.id(), None, &[empty_commit(1)]).unwrap();
        let durable = fs::read(&path).unwrap();

        // Bytes past the cursor (an append that failed before it was
        // acknowledged, or a torn tail) are dropped before the next append.
        let mut dangling = durable.clone();
        dangling.extend_from_slice(&[0xAB; 9]);
        fs::write(&path, &dangling).unwrap();
        let (receipt, cursor) =
            append_log(&path, spec.id(), Some(&cursor), &[empty_commit(2)]).unwrap();
        assert!(receipt.repaired_torn_tail);
        assert_eq!((receipt.records_written, receipt.commits_written), (1, 1));
        assert_eq!(receipt.total_records, 2);
        assert_eq!(cursor.records, 2);
        let log = read_log(&path, spec.id()).unwrap();
        assert!(!log.truncated);
        assert_eq!(log.commits().map(|d| d.seq).collect::<Vec<_>>(), vec![1, 2]);

        // A log rewound below what this writer made durable is refused:
        // the difference would exist nowhere.
        fs::write(&path, &durable).unwrap();
        assert!(matches!(
            append_log(&path, spec.id(), Some(&cursor), &[empty_commit(3)]),
            Err(JournalError::Diverged { .. })
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn replica_enforces_sequence_and_consistency() {
        let spec = spec();
        let mut replica = CorpusReplica::new(spec.id());
        let report = DocReport {
            index: 0,
            label: "a.xml".into(),
            parse_error: None,
            validation_errors: vec![],
            violations: vec![],
            fault: None,
        };
        let open = BatchDelta {
            seq: 1,
            changes: vec![DocChange {
                handle: DocHandle::from_raw(0),
                was_clean: None,
                report: report.clone(),
                shards: vec![0],
            }],
            closed: vec![],
            rechecked_docs: 1,
            total: 1,
            clean: 1,
            shards: vec![0],
        };
        // Out-of-order delivery is a gap.
        let skipped = BatchDelta {
            seq: 2,
            ..open.clone()
        };
        assert_eq!(
            replica.apply_delta(&skipped).unwrap_err(),
            JournalError::DeltaGap {
                expected: 1,
                found: 2
            }
        );
        replica.apply_delta(&open).unwrap();
        assert_eq!(replica.num_docs(), 1);
        assert_eq!(replica.report().reports()[0], report);

        // A stale was_clean contradicts the replica and leaves it unchanged.
        let stale = BatchDelta {
            seq: 2,
            changes: vec![DocChange {
                handle: DocHandle::from_raw(0),
                was_clean: None,
                report,
                shards: vec![0],
            }],
            closed: vec![],
            rechecked_docs: 1,
            total: 1,
            clean: 1,
            shards: vec![0],
        };
        assert!(matches!(
            replica.apply_delta(&stale).unwrap_err(),
            JournalError::DeltaMismatch { seq: 2, .. }
        ));
        assert_eq!(replica.last_seq(), 1);

        // A close removes the document.
        let close = BatchDelta {
            seq: 2,
            changes: vec![],
            closed: vec![ClosedDoc {
                handle: DocHandle::from_raw(0),
                label: "a.xml".into(),
            }],
            rechecked_docs: 0,
            total: 0,
            clean: 0,
            shards: vec![0],
        };
        replica.apply_delta(&close).unwrap();
        assert_eq!(replica.num_docs(), 0);
    }

    #[test]
    fn inspect_is_lossy_and_self_describing() {
        let spec = spec();
        let path = temp_path("inspect.xicj");
        let handle = DocHandle::from_raw(0);
        let school = spec.dtd().type_by_name("school").unwrap();
        let set = |handle| LogRecord::Apply {
            handle,
            op: EditOp::SetAttr {
                element: NodeId(3),
                attr: AttrId(0),
                value: "Joe".into(),
            },
        };
        let records = [
            empty_commit(1),
            LogRecord::Open {
                handle,
                label: "a.xml".into(),
                snapshot: xic_xml::XmlTree::new(school).snapshot(),
            },
            set(handle),
            set(DocHandle::from_raw(5)),
            LogRecord::Close(ClosedDoc {
                handle,
                label: "a.xml".into(),
            }),
        ];
        append_log(&path, spec.id(), None, &records).unwrap();
        let summary = inspect_log(&path, None).unwrap();
        assert_eq!(summary.spec, spec.id());
        assert_eq!(summary.torn_bytes, 0);
        assert!(summary.corrupt.is_none());
        let kinds: Vec<&str> = summary.records.iter().map(|r| r.kind.as_str()).collect();
        assert_eq!(kinds, ["commit", "open", "apply", "apply", "close"]);
        assert!(summary.records[0].detail.contains("commit 1"));
        assert!(summary.records[1].detail.contains("open a.xml as doc-0"));
        // Script-twin rendering of ops under the label their open gave
        // (a handle the log never opened renders as itself).
        assert_eq!(summary.records[2].detail, "set a.xml 3 @0 Joe");
        assert_eq!(summary.records[3].detail, "set doc-5 3 @0 Joe");
        assert_eq!(summary.records[4].detail, "close a.xml (doc-0)");
        let with_dtd = inspect_log(&path, Some(spec.dtd())).unwrap();
        assert_eq!(with_dtd.records[2].detail, "set a.xml 3 name Joe");
        fs::remove_file(&path).ok();
    }
}
