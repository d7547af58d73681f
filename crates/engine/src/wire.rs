//! The validation-service wire protocol: length-framed journal records
//! over a byte stream.
//!
//! `xic serve` and its clients speak the PR 5 journal format on the wire:
//! every message is one record framed exactly like an on-disk journal
//! record — `len:u32 | seq:u64 | tag:u8 | payload | crc32:u32`, little
//! endian, CRC over `seq + tag + payload` — so the delta stream a server
//! ships down is byte-for-byte the `commit` record a [`crate::journal`]
//! corpus log holds, and a stock [`crate::CorpusReplica`] consumes it unchanged.
//! Requests and responses extend the tag space above the journal's own
//! tags (which stay reserved), and a versioned hello carries the journal
//! format version plus the content-hash [`SpecId`] so a client and server
//! can negotiate "you already have this spec" before any document moves.
//!
//! Reading is torn-tail-tolerant in the journal tradition: a connection
//! that dies **between** frames is a clean end of stream
//! ([`read_frame`] returns `None`), a connection that dies **inside** a
//! frame surfaces as [`WireError::Torn`] and the half-received record is
//! never decoded — the receiving side's state is always "every fully
//! framed record, nothing more".

use std::fmt;
use std::io::{self, Read, Write};

use xic_telemetry::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, RegistrySnapshot};
use xic_xml::EditOp;

use crate::corpus::BatchDelta;
use crate::journal::{
    crc32, dec_delta, dec_op, enc_delta, enc_op, frame_record, Dec, Enc, FORMAT_VERSION, MAGIC,
    TAG_DELTA,
};
use crate::spec::SpecId;

/// Version of the request/response vocabulary layered over the journal
/// framing.  Negotiated (alongside [`FORMAT_VERSION`]) in the hello.
/// Version 2 added the optional shard filter to [`Request::Sync`];
/// version 3 dropped the replica flag from the hello ack (a restarted
/// session is always live).
pub const WIRE_VERSION: u16 = 3;

/// Upper bound on a single frame's payload, enforced before allocation on
/// the read side (a hostile or corrupt length prefix must not OOM the
/// server).  Document sources and delta payloads are bounded well below
/// this by [`crate::Limits`] admission.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

// Request tags (client → server).  The journal's own record tags (1–4)
// stay reserved so a delta record is unambiguous in either direction.
const REQ_HELLO: u8 = 0x10;
/// The tag of an [`Request::OpenDoc`] frame.
pub const REQ_OPEN: u8 = 0x11;
/// The tag of an [`Request::Apply`] frame.
pub const REQ_APPLY: u8 = 0x12;
const REQ_COMMIT: u8 = 0x13;
const REQ_SYNC: u8 = 0x14;
const REQ_CLOSE: u8 = 0x15;
const REQ_STATS: u8 = 0x16;
const REQ_SHUTDOWN: u8 = 0x17;

// Response tags (server → client).  A delta response reuses the journal's
// `TAG_DELTA` with the identical payload encoding.
const RESP_HELLO: u8 = 0x20;
const RESP_OPENED: u8 = 0x21;
const RESP_APPLIED: u8 = 0x22;
const RESP_DELTA_END: u8 = 0x23;
const RESP_CLOSED: u8 = 0x24;
const RESP_STATS: u8 = 0x25;
const RESP_SHUTTING_DOWN: u8 = 0x26;
const RESP_ERROR: u8 = 0x2F;

/// Everything that can go wrong while reading or decoding wire frames.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(io::Error),
    /// A read timed out before a frame began (the idle-poll tick of a
    /// server worker; not an error for the connection).
    Idle,
    /// The connection ended in the middle of a frame: the partial record
    /// was discarded, state is the last fully framed record.
    Torn,
    /// A length prefix exceeded [`MAX_FRAME_BYTES`].
    TooLarge {
        /// The claimed payload length.
        len: usize,
    },
    /// A frame's CRC did not match its contents.
    Corrupt {
        /// The sequence number carried by the damaged frame.
        seq: u64,
    },
    /// A frame decoded structurally but its payload was malformed.
    Malformed {
        /// The frame tag.
        tag: u8,
        /// What was wrong.
        detail: String,
    },
    /// A frame carried a tag this side does not understand.
    UnknownTag {
        /// The unknown tag byte.
        tag: u8,
    },
    /// A request frame's sequence number did not advance past the previous
    /// one on the same connection.  Request streams are strictly
    /// monotonic; a replayed or rewound `seq` is a protocol fault, never
    /// silently accepted.  (Response streams are exempt: delta frames
    /// carry their commit's own sequence number by design.)
    NonMonotonicSeq {
        /// The offending frame's sequence number.
        seq: u64,
        /// The highest sequence number seen before it.
        last: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Idle => write!(f, "idle (no frame began before the read timeout)"),
            WireError::Torn => write!(f, "connection ended mid-frame (partial record discarded)"),
            WireError::TooLarge { len } => write!(
                f,
                "frame payload of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"
            ),
            WireError::Corrupt { seq } => write!(f, "frame {seq} failed its CRC check"),
            WireError::Malformed { tag, detail } => {
                write!(f, "malformed frame (tag {tag:#04x}): {detail}")
            }
            WireError::UnknownTag { tag } => write!(f, "unknown frame tag {tag:#04x}"),
            WireError::NonMonotonicSeq { seq, last } => write!(
                f,
                "request sequence {seq} does not advance past {last} (request streams are strictly monotonic)"
            ),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// A structured error record: the server's resilience taxonomy on the
/// wire.  Resource rejections and contained faults are *answers*, not
/// dropped connections — the `code` mirrors the CLI exit-code taxonomy
/// (`2` protocol/document, `3` resource-rejected, `4` contained fault),
/// `kind` is a stable machine tag (e.g. `resource:max_doc_nodes`,
/// `fault:poisoned`) and `detail` is the human-readable rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFault {
    /// Exit-code-taxonomy class of the failure.
    pub code: u8,
    /// Stable machine-readable tag (`resource:<limit>`, `fault:<cause>`,
    /// `protocol`, `document`, `journal`, `session`, …).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

impl WireFault {
    /// Builds a fault record.
    pub fn new(code: u8, kind: impl Into<String>, detail: impl Into<String>) -> WireFault {
        WireFault {
            code,
            kind: kind.into(),
            detail: detail.into(),
        }
    }

    /// The CLI exit code this fault maps to.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.code)
    }
}

impl fmt::Display for WireFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.detail)
    }
}

/// The hello acknowledgment: the negotiation result a client acts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// The server's journal format version.
    pub format: u16,
    /// The server's wire vocabulary version.
    pub wire: u16,
    /// The server's compiled-spec identity.
    pub spec: SpecId,
    /// Whether the server already has the spec the client announced (the
    /// "you already have this spec" negotiation: when `true` no spec
    /// source ever needs to move).
    pub spec_known: bool,
    /// The named session's last committed sequence number (0 for a fresh
    /// session) — where a reconnecting replica should sync from.
    pub last_seq: u64,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The versioned hello opening every connection: format + wire
    /// versions, the client's spec identity, and the named session to
    /// attach to.
    Hello {
        /// The client's journal format version.
        format: u16,
        /// The client's wire vocabulary version.
        wire: u16,
        /// The client's compiled-spec identity.
        spec: SpecId,
        /// The named corpus session to attach to (created on first use).
        session: String,
    },
    /// Parse `source` against the session's spec and open it as `label`.
    OpenDoc {
        /// The document label (unique within the session).
        label: String,
        /// The XML source text.
        source: String,
    },
    /// Apply an edit batch to one open document.  The whole batch rides
    /// in one frame, so it is applied all-or-nothing: a torn connection
    /// can never leave half a batch behind.
    Apply {
        /// The document handle (as returned by open).
        handle: u64,
        /// The edits, in order.
        ops: Vec<EditOp>,
    },
    /// Commit the session: re-check dirty documents, answer with the new
    /// delta record.
    Commit,
    /// Stream every retained delta with sequence number above `after_seq`
    /// (a replica catching up), terminated by a delta-end record.
    Sync {
        /// The last sequence number the client already holds.
        after_seq: u64,
        /// When set, only deltas tagged with this shard are streamed, each
        /// projected down to the shard's constraints — the subscription a
        /// shard-filtered [`crate::CorpusReplica`] consumes.  Requires the
        /// server to run with sharded sync enabled.
        shard: Option<u32>,
    },
    /// Close one open document.
    CloseDoc {
        /// The document handle.
        handle: u64,
    },
    /// Snapshot the server's metrics registry.
    Stats,
    /// Gracefully drain the server: persist every dirty session's delta
    /// log and stop.
    Shutdown,
}

impl Request {
    /// A hello for the current protocol versions.
    pub fn hello(spec: SpecId, session: impl Into<String>) -> Request {
        Request::Hello {
            format: FORMAT_VERSION,
            wire: WIRE_VERSION,
            spec,
            session: session.into(),
        }
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Hello acknowledgment.
    Hello(HelloAck),
    /// A document was opened.
    Opened {
        /// The handle addressing the document in later requests.
        handle: u64,
    },
    /// An edit batch was admitted (queued for the next commit).
    Applied {
        /// Ops queued in the session since its last commit.
        queued_ops: u64,
    },
    /// One commit's delta — the payload is byte-identical to the
    /// journal's on-disk delta record, consumable by a stock
    /// [`crate::CorpusReplica`].
    Delta(BatchDelta),
    /// End of a delta stream (after a sync).
    DeltaEnd {
        /// Number of delta records that preceded this marker.
        count: u64,
    },
    /// A document was closed.
    Closed {
        /// The closed document's label.
        label: String,
    },
    /// The server's metrics registry, frozen — the same snapshot
    /// `xic stats` renders locally.
    Stats(RegistrySnapshot),
    /// The server accepted a shutdown and is draining.
    ShuttingDown {
        /// Sessions that will be drained.
        sessions: u64,
    },
    /// A structured error record (see [`WireFault`]).
    Error(WireFault),
}

/// One CRC-valid frame as read off the stream.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The sender's sequence number (delta frames carry the commit seq).
    pub seq: u64,
    /// The record tag.
    pub tag: u8,
    /// The record payload.
    pub payload: Vec<u8>,
}

enum Fill {
    /// The buffer was filled completely.
    Full,
    /// Clean end of stream before the first byte.
    Empty,
    /// End of stream after some bytes — a torn frame.
    Partial,
}

fn fill_buf(r: &mut impl Read, buf: &mut [u8]) -> Result<Fill, WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Ok(if got == 0 { Fill::Empty } else { Fill::Partial });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if got == 0 {
                    // Nothing consumed: an idle poll tick, not damage.
                    return Err(WireError::Idle);
                }
                // Mid-frame: the sender is slow, keep waiting for the rest.
                continue;
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(Fill::Full)
}

/// Appends one frame in the journal record layout to `buf`, without any
/// I/O: a pipelining client frames several requests into one buffer and
/// sends them with one write.
pub fn frame_into(buf: &mut Vec<u8>, seq: u64, tag: u8, payload: &[u8]) {
    frame_record(buf, seq, tag, payload);
}

/// Writes one frame in the journal record layout.
pub fn write_frame(w: &mut impl Write, seq: u64, tag: u8, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(payload.len() + 17);
    frame_record(&mut buf, seq, tag, payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` is a clean end of stream at a frame
/// boundary, [`WireError::Torn`] an end of stream inside a frame, and
/// [`WireError::Idle`] a read timeout before any byte of a frame arrived.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut prefix = [0u8; 13];
    match fill_buf(r, &mut prefix)? {
        Fill::Empty => return Ok(None),
        Fill::Partial => return Err(WireError::Torn),
        Fill::Full => {}
    }
    let len = u32::from_le_bytes(prefix[0..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge { len });
    }
    let seq = u64::from_le_bytes(prefix[4..12].try_into().unwrap());
    let tag = prefix[12];
    let mut rest = vec![0u8; len + 4];
    match fill_buf(r, &mut rest) {
        Ok(Fill::Full) => {}
        Ok(_) => return Err(WireError::Torn),
        // A timeout after the prefix is still mid-frame.
        Err(WireError::Idle) => return Err(WireError::Torn),
        Err(e) => return Err(e),
    }
    let (payload, crc_bytes) = rest.split_at(len);
    let crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc != crc32(&[&prefix[4..12], &[tag], payload]) {
        return Err(WireError::Corrupt { seq });
    }
    Ok(Some(Frame {
        seq,
        tag,
        payload: payload.to_vec(),
    }))
}

fn malformed(tag: u8, detail: impl Into<String>) -> WireError {
    WireError::Malformed {
        tag,
        detail: detail.into(),
    }
}

fn enc_spec(enc: &mut Enc, spec: SpecId) {
    enc.u64(spec.0);
    enc.u64(spec.1);
}

fn dec_spec(dec: &mut Dec<'_>) -> Result<SpecId, String> {
    Ok(SpecId(dec.u64()?, dec.u64()?))
}

/// Encodes a request into `(tag, payload)`: encode once, then frame the
/// payload per send with [`frame_into`] (a resend reuses the bytes).
pub fn encode_request(req: &Request) -> (u8, Vec<u8>) {
    let mut enc = Enc::default();
    let tag = match req {
        Request::Hello {
            format,
            wire,
            spec,
            session,
        } => {
            enc.buf.extend_from_slice(&MAGIC);
            enc.u32(u32::from(*format));
            enc.u32(u32::from(*wire));
            enc_spec(&mut enc, *spec);
            enc.str(session);
            REQ_HELLO
        }
        Request::OpenDoc { label, source } => {
            enc.str(label);
            enc.str(source);
            REQ_OPEN
        }
        Request::Apply { handle, ops } => {
            enc.u64(*handle);
            enc.u32(ops.len() as u32);
            for op in ops {
                enc_op(&mut enc, op);
            }
            REQ_APPLY
        }
        Request::Commit => REQ_COMMIT,
        Request::Sync { after_seq, shard } => {
            enc.u64(*after_seq);
            match shard {
                None => enc.u8(0),
                Some(s) => {
                    enc.u8(1);
                    enc.u32(*s);
                }
            }
            REQ_SYNC
        }
        Request::CloseDoc { handle } => {
            enc.u64(*handle);
            REQ_CLOSE
        }
        Request::Stats => REQ_STATS,
        Request::Shutdown => REQ_SHUTDOWN,
    };
    (tag, enc.buf)
}

/// Decodes a request frame.
fn decode_request(frame: &Frame) -> Result<Request, WireError> {
    let tag = frame.tag;
    let mut dec = Dec::new(&frame.payload);
    let wrap = |e: String| malformed(tag, e);
    let req = match tag {
        REQ_HELLO => {
            let magic: [u8; 4] = frame
                .payload
                .get(0..4)
                .and_then(|m| m.try_into().ok())
                .ok_or_else(|| malformed(tag, "hello shorter than its magic"))?;
            if magic != MAGIC {
                return Err(malformed(tag, "hello does not begin with the XICJ magic"));
            }
            let mut dec = Dec::new(&frame.payload[4..]);
            let format = dec.u32().map_err(wrap)? as u16;
            let wire = dec.u32().map_err(wrap)? as u16;
            let spec = dec_spec(&mut dec).map_err(wrap)?;
            let session = dec.str().map_err(wrap)?;
            dec.finish().map_err(wrap)?;
            return Ok(Request::Hello {
                format,
                wire,
                spec,
                session,
            });
        }
        REQ_OPEN => Request::OpenDoc {
            label: dec.str().map_err(wrap)?,
            source: dec.str().map_err(wrap)?,
        },
        REQ_APPLY => {
            let handle = dec.u64().map_err(wrap)?;
            let count = dec.u32().map_err(wrap)?;
            let mut ops = Vec::new();
            for _ in 0..count {
                ops.push(dec_op(&mut dec).map_err(wrap)?);
            }
            Request::Apply { handle, ops }
        }
        REQ_COMMIT => Request::Commit,
        REQ_SYNC => {
            let after_seq = dec.u64().map_err(wrap)?;
            let shard = match dec.u8().map_err(wrap)? {
                0 => None,
                1 => Some(dec.u32().map_err(wrap)?),
                other => return Err(malformed(tag, format!("bad shard-filter flag {other}"))),
            };
            Request::Sync { after_seq, shard }
        }
        REQ_CLOSE => Request::CloseDoc {
            handle: dec.u64().map_err(wrap)?,
        },
        REQ_STATS => Request::Stats,
        REQ_SHUTDOWN => Request::Shutdown,
        other => return Err(WireError::UnknownTag { tag: other }),
    };
    dec.finish().map_err(wrap)?;
    Ok(req)
}

fn enc_snapshot(enc: &mut Enc, snapshot: &RegistrySnapshot) {
    enc.u32(snapshot.counters.len() as u32);
    for c in &snapshot.counters {
        enc.str(&c.name);
        enc.u64(c.value);
    }
    enc.u32(snapshot.gauges.len() as u32);
    for g in &snapshot.gauges {
        enc.str(&g.name);
        enc.u64(g.value as u64);
    }
    enc.u32(snapshot.histograms.len() as u32);
    for h in &snapshot.histograms {
        enc.str(&h.name);
        enc.u64(h.count);
        enc.u64(h.sum);
        enc.u64(h.p50);
        enc.u64(h.p90);
        enc.u64(h.p99);
        enc.u64(h.max);
    }
}

fn dec_snapshot(dec: &mut Dec<'_>) -> Result<RegistrySnapshot, String> {
    let mut snapshot = RegistrySnapshot::default();
    for _ in 0..dec.u32()? {
        snapshot.counters.push(CounterSnapshot {
            name: dec.str()?,
            value: dec.u64()?,
        });
    }
    for _ in 0..dec.u32()? {
        snapshot.gauges.push(GaugeSnapshot {
            name: dec.str()?,
            value: dec.u64()? as i64,
        });
    }
    for _ in 0..dec.u32()? {
        snapshot.histograms.push(HistogramSnapshot {
            name: dec.str()?,
            count: dec.u64()?,
            sum: dec.u64()?,
            p50: dec.u64()?,
            p90: dec.u64()?,
            p99: dec.u64()?,
            max: dec.u64()?,
        });
    }
    Ok(snapshot)
}

/// Encodes a response into `(tag, payload)`.  A delta response encodes as
/// the journal's own delta record.
fn encode_response(resp: &Response) -> (u8, Vec<u8>) {
    let mut enc = Enc::default();
    let tag = match resp {
        Response::Hello(ack) => {
            enc.buf.extend_from_slice(&MAGIC);
            enc.u32(u32::from(ack.format));
            enc.u32(u32::from(ack.wire));
            enc_spec(&mut enc, ack.spec);
            enc.u8(u8::from(ack.spec_known));
            enc.u64(ack.last_seq);
            RESP_HELLO
        }
        Response::Opened { handle } => {
            enc.u64(*handle);
            RESP_OPENED
        }
        Response::Applied { queued_ops } => {
            enc.u64(*queued_ops);
            RESP_APPLIED
        }
        Response::Delta(delta) => {
            enc_delta(&mut enc, delta);
            TAG_DELTA
        }
        Response::DeltaEnd { count } => {
            enc.u64(*count);
            RESP_DELTA_END
        }
        Response::Closed { label } => {
            enc.str(label);
            RESP_CLOSED
        }
        Response::Stats(snapshot) => {
            enc_snapshot(&mut enc, snapshot);
            RESP_STATS
        }
        Response::ShuttingDown { sessions } => {
            enc.u64(*sessions);
            RESP_SHUTTING_DOWN
        }
        Response::Error(fault) => {
            enc.u8(fault.code);
            enc.str(&fault.kind);
            enc.str(&fault.detail);
            RESP_ERROR
        }
    };
    (tag, enc.buf)
}

/// Decodes a response frame.
fn decode_response(frame: &Frame) -> Result<Response, WireError> {
    let tag = frame.tag;
    let mut dec = Dec::new(&frame.payload);
    let wrap = |e: String| malformed(tag, e);
    let resp = match tag {
        RESP_HELLO => {
            let magic: [u8; 4] = frame
                .payload
                .get(0..4)
                .and_then(|m| m.try_into().ok())
                .ok_or_else(|| malformed(tag, "hello ack shorter than its magic"))?;
            if magic != MAGIC {
                return Err(malformed(tag, "hello ack does not begin with the magic"));
            }
            let mut dec = Dec::new(&frame.payload[4..]);
            let format = dec.u32().map_err(wrap)? as u16;
            let wire = dec.u32().map_err(wrap)? as u16;
            let spec = dec_spec(&mut dec).map_err(wrap)?;
            let spec_known = dec.u8().map_err(wrap)? != 0;
            let last_seq = dec.u64().map_err(wrap)?;
            dec.finish().map_err(wrap)?;
            return Ok(Response::Hello(HelloAck {
                format,
                wire,
                spec,
                spec_known,
                last_seq,
            }));
        }
        RESP_OPENED => Response::Opened {
            handle: dec.u64().map_err(wrap)?,
        },
        RESP_APPLIED => Response::Applied {
            queued_ops: dec.u64().map_err(wrap)?,
        },
        TAG_DELTA => Response::Delta(dec_delta(&mut dec).map_err(wrap)?),
        RESP_DELTA_END => Response::DeltaEnd {
            count: dec.u64().map_err(wrap)?,
        },
        RESP_CLOSED => Response::Closed {
            label: dec.str().map_err(wrap)?,
        },
        RESP_STATS => Response::Stats(dec_snapshot(&mut dec).map_err(wrap)?),
        RESP_SHUTTING_DOWN => Response::ShuttingDown {
            sessions: dec.u64().map_err(wrap)?,
        },
        RESP_ERROR => Response::Error(WireFault {
            code: dec.u8().map_err(wrap)?,
            kind: dec.str().map_err(wrap)?,
            detail: dec.str().map_err(wrap)?,
        }),
        other => return Err(WireError::UnknownTag { tag: other }),
    };
    dec.finish().map_err(wrap)?;
    Ok(resp)
}

/// Writes one request frame.
pub fn write_request(w: &mut impl Write, seq: u64, req: &Request) -> io::Result<()> {
    let (tag, payload) = encode_request(req);
    write_frame(w, seq, tag, &payload)
}

/// Reads one request frame (`Ok(None)`: clean end of stream).
pub fn read_request(r: &mut impl Read) -> Result<Option<(u64, Request)>, WireError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(frame) => Ok(Some((frame.seq, decode_request(&frame)?))),
    }
}

/// Reads one request frame while enforcing a strictly monotonic request
/// sequence.  `last` holds the highest sequence accepted so far on this
/// connection (`0` for a fresh one) and is advanced on every accepted
/// frame.  A frame whose sequence does not advance past `last` — a replay,
/// a rewind, or a hostile zero — is rejected with
/// [`WireError::NonMonotonicSeq`] *before* its payload is decoded.
pub fn read_request_monotonic(
    r: &mut impl Read,
    last: &mut u64,
) -> Result<Option<(u64, Request)>, WireError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(frame) => {
            if frame.seq <= *last {
                return Err(WireError::NonMonotonicSeq {
                    seq: frame.seq,
                    last: *last,
                });
            }
            *last = frame.seq;
            Ok(Some((frame.seq, decode_request(&frame)?)))
        }
    }
}

/// Writes one response frame.  Delta responses carry the commit's own
/// sequence number; everything else echoes the request's.
pub fn write_response(w: &mut impl Write, seq: u64, resp: &Response) -> io::Result<()> {
    let (tag, payload) = encode_response(resp);
    let seq = match resp {
        Response::Delta(delta) => delta.seq,
        _ => seq,
    };
    write_frame(w, seq, tag, &payload)
}

/// Reads one response frame (`Ok(None)`: clean end of stream).
pub fn read_response(r: &mut impl Read) -> Result<Option<(u64, Response)>, WireError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(frame) => Ok(Some((frame.seq, decode_response(&frame)?))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_xml::NodeId;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        write_request(&mut buf, 7, &req).unwrap();
        let mut cursor = &buf[..];
        let (seq, back) = read_request(&mut cursor).unwrap().expect("one frame");
        assert_eq!(seq, 7);
        assert_eq!(back, req);
        assert!(read_request(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    fn roundtrip_response(resp: Response) {
        let mut buf = Vec::new();
        write_response(&mut buf, 9, &resp).unwrap();
        let mut cursor = &buf[..];
        let (_, back) = read_response(&mut cursor).unwrap().expect("one frame");
        assert_eq!(back, resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::hello(SpecId(1, u64::MAX), "tenant-a"));
        roundtrip_request(Request::OpenDoc {
            label: "doc-1.xml".into(),
            source: "<db/>".into(),
        });
        roundtrip_request(Request::Apply {
            handle: 3,
            ops: vec![
                EditOp::AddText {
                    parent: NodeId(0),
                    value: "hi".into(),
                },
                EditOp::RemoveSubtree { element: NodeId(4) },
            ],
        });
        roundtrip_request(Request::Commit);
        roundtrip_request(Request::Sync {
            after_seq: 12,
            shard: None,
        });
        roundtrip_request(Request::Sync {
            after_seq: 0,
            shard: Some(3),
        });
        roundtrip_request(Request::CloseDoc { handle: 1 });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Hello(HelloAck {
            format: FORMAT_VERSION,
            wire: WIRE_VERSION,
            spec: SpecId(5, 6),
            spec_known: true,
            last_seq: 9,
        }));
        roundtrip_response(Response::Opened { handle: 2 });
        roundtrip_response(Response::Applied { queued_ops: 4 });
        roundtrip_response(Response::Delta(BatchDelta {
            seq: 3,
            changes: Vec::new(),
            closed: Vec::new(),
            rechecked_docs: 0,
            total: 2,
            clean: 2,
            shards: vec![0, 2],
        }));
        roundtrip_response(Response::DeltaEnd { count: 3 });
        roundtrip_response(Response::Closed {
            label: "doc-1.xml".into(),
        });
        roundtrip_response(Response::ShuttingDown { sessions: 2 });
        roundtrip_response(Response::Error(WireFault::new(
            3,
            "resource:max_doc_nodes",
            "rejected",
        )));
    }

    #[test]
    fn stats_snapshot_roundtrips() {
        let registry = xic_telemetry::MetricsRegistry::new();
        registry.counter("server.requests").add(4);
        registry.gauge("server.active_sessions").set(-2);
        registry.histogram("server.request_ns").record(1500);
        let snapshot = registry.snapshot();
        let mut buf = Vec::new();
        write_response(&mut buf, 1, &Response::Stats(snapshot.clone())).unwrap();
        let (_, back) = read_response(&mut &buf[..]).unwrap().expect("one frame");
        match back {
            Response::Stats(s) => {
                assert_eq!(s.counters, snapshot.counters);
                assert_eq!(s.gauges, snapshot.gauges);
                assert_eq!(s.histograms, snapshot.histograms);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn torn_and_corrupt_frames_are_distinguished() {
        let mut buf = Vec::new();
        write_request(&mut buf, 1, &Request::Commit).unwrap();
        // Every strict prefix (except the empty one) is torn, never decoded.
        for cut in 1..buf.len() {
            let mut cursor = &buf[..cut];
            assert!(
                matches!(read_request(&mut cursor), Err(WireError::Torn)),
                "prefix of {cut} bytes must be torn"
            );
        }
        // Clean EOF at the boundary.
        assert!(read_request(&mut &buf[..0]).unwrap().is_none());
        // A flipped payload/CRC byte is corrupt, not torn.
        let mut damaged = buf.clone();
        let last = damaged.len() - 1;
        damaged[last] ^= 0x40;
        assert!(matches!(
            read_request(&mut &damaged[..]),
            Err(WireError::Corrupt { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(REQ_COMMIT);
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(WireError::TooLarge { .. })
        ));
    }

    #[test]
    fn monotonic_reader_rejects_replayed_and_zero_sequences() {
        let mut buf = Vec::new();
        write_request(&mut buf, 1, &Request::Commit).unwrap();
        write_request(&mut buf, 2, &Request::Commit).unwrap();
        let mut cursor = &buf[..];
        let mut last = 0;
        assert!(read_request_monotonic(&mut cursor, &mut last)
            .unwrap()
            .is_some());
        assert!(read_request_monotonic(&mut cursor, &mut last)
            .unwrap()
            .is_some());
        assert_eq!(last, 2);

        // A replay of an already-seen sequence is rejected.
        let mut replay = Vec::new();
        write_request(&mut replay, 2, &Request::Commit).unwrap();
        assert!(matches!(
            read_request_monotonic(&mut &replay[..], &mut last),
            Err(WireError::NonMonotonicSeq { seq: 2, last: 2 })
        ));
        // And so is a hostile zero on a fresh connection.
        let mut zero = Vec::new();
        write_request(&mut zero, 0, &Request::Commit).unwrap();
        let mut fresh = 0;
        assert!(matches!(
            read_request_monotonic(&mut &zero[..], &mut fresh),
            Err(WireError::NonMonotonicSeq { seq: 0, last: 0 })
        ));
    }

    mod hostile_prefixes {
        use super::*;
        use proptest::prelude::*;

        /// Length prefixes around the interesting boundaries: small,
        /// straddling [`MAX_FRAME_BYTES`], and absurd.
        fn arb_len() -> BoxedStrategy<u32> {
            let cap = MAX_FRAME_BYTES as u32;
            prop_oneof![
                (0u32..1024).boxed(),
                (cap - 512..cap + 512).boxed(),
                (cap..u32::MAX).boxed(),
                Just(u32::MAX).boxed(),
            ]
            .boxed()
        }

        fn arb_seq() -> BoxedStrategy<u64> {
            prop_oneof![
                (0u64..8).boxed(),
                (0u64..u64::MAX).boxed(),
                Just(u64::MAX).boxed(),
            ]
            .boxed()
        }

        proptest! {
            /// Any claimed payload length above the cap is refused before
            /// a buffer of that size is ever allocated; anything at or
            /// below it reaches the torn-tail stage instead (the body
            /// never arrived), so a hostile prefix can neither OOM nor
            /// smuggle a decode.
            #[test]
            fn length_prefix_never_allocates_past_the_cap(
                len in arb_len(),
                seq in arb_seq(),
                tag in 0u8..255,
            ) {
                let mut buf = Vec::new();
                buf.extend_from_slice(&len.to_le_bytes());
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.push(tag);
                let result = read_frame(&mut &buf[..]);
                if len as usize > MAX_FRAME_BYTES {
                    prop_assert!(
                        matches!(result, Err(WireError::TooLarge { len: l }) if l == len as usize)
                    );
                } else {
                    prop_assert!(matches!(result, Err(WireError::Torn)));
                }
            }

            /// Whatever sequence numbers a hostile client stamps on its
            /// frames, the monotonic reader accepts a frame only when its
            /// seq strictly advances, `last` never moves backwards, and
            /// the first violation kills the stream.
            #[test]
            fn monotonic_gate_holds_for_arbitrary_seq_streams(
                seqs in proptest::collection::vec(arb_seq(), 1..8),
            ) {
                let mut buf = Vec::new();
                for &seq in &seqs {
                    write_request(&mut buf, seq, &Request::Commit).unwrap();
                }
                let mut cursor = &buf[..];
                let mut last = 0u64;
                let mut accepted = Vec::new();
                loop {
                    let before = last;
                    match read_request_monotonic(&mut cursor, &mut last) {
                        Ok(None) => break,
                        Ok(Some((seq, _))) => {
                            prop_assert!(seq > before);
                            prop_assert_eq!(last, seq);
                            accepted.push(seq);
                        }
                        Err(WireError::NonMonotonicSeq { seq, last: l }) => {
                            prop_assert!(seq <= l);
                            prop_assert_eq!(last, before);
                            // The gate stops at the first violation: the
                            // connection is dead from here.
                            break;
                        }
                        Err(e) => panic!("unexpected wire error: {e}"),
                    }
                }
                prop_assert!(accepted.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}
