//! The blocking client: a thin typed wrapper over one connection,
//! pairing each request with its response and surfacing the server's
//! structured error records as [`ClientError::Fault`].

use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;

use xic_engine::wire::{
    frame_into, read_response, write_request, HelloAck, Request, Response, WireError, WireFault,
};
use xic_engine::{BatchDelta, CorpusReplica, SpecId};
use xic_telemetry::RegistrySnapshot;
use xic_xml::EditOp;

use crate::Stream;

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// A frame could not be read or decoded.
    Wire(WireError),
    /// The server answered with a structured error record.  Its `code`
    /// mirrors the CLI exit taxonomy (2 protocol/document, 3 resource,
    /// 4 contained fault).
    Fault(WireFault),
    /// The server answered with the wrong response kind, or a delta could
    /// not be applied to the local replica.
    Protocol(String),
    /// The server closed the connection before answering.
    Closed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Fault(fault) => write!(f, "server error: {fault}"),
            ClientError::Protocol(detail) => write!(f, "protocol error: {detail}"),
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl ClientError {
    /// The server-side fault record, when this error carries one.
    pub fn fault(&self) -> Option<&WireFault> {
        match self {
            ClientError::Fault(fault) => Some(fault),
            _ => None,
        }
    }
}

/// A blocking connection to an `xic serve` instance, attached to one named
/// session by the hello handshake.
pub struct Client {
    conn: Box<dyn Stream>,
    hello: HelloAck,
    seq: u64,
}

impl Client {
    /// Connects over TCP and performs the hello handshake for `session`.
    pub fn connect_tcp(
        addr: SocketAddr,
        spec: SpecId,
        session: &str,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Client::handshake(Box::new(stream), spec, session)
    }

    /// Connects over a Unix socket and performs the hello handshake.
    #[cfg(unix)]
    pub fn connect_unix(
        path: impl AsRef<Path>,
        spec: SpecId,
        session: &str,
    ) -> Result<Client, ClientError> {
        let stream = UnixStream::connect(path)?;
        Client::handshake(Box::new(stream), spec, session)
    }

    fn handshake(
        mut conn: Box<dyn Stream>,
        spec: SpecId,
        session: &str,
    ) -> Result<Client, ClientError> {
        write_request(&mut conn, 1, &Request::hello(spec, session))?;
        match read_response(&mut conn)? {
            Some((_, Response::Hello(hello))) => Ok(Client {
                conn,
                hello,
                seq: 1,
            }),
            Some((_, Response::Error(fault))) => Err(ClientError::Fault(fault)),
            Some((_, other)) => Err(ClientError::Protocol(format!(
                "expected a hello ack, got {other:?}"
            ))),
            None => Err(ClientError::Closed),
        }
    }

    /// The negotiation result: versions, spec identity and the session's
    /// last committed sequence number.
    pub fn hello(&self) -> &HelloAck {
        &self.hello
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.seq += 1;
        write_request(&mut self.conn, self.seq, req)?;
        self.receive()
    }

    /// Appends an encoded request (see [`xic_engine::wire::encode_request`])
    /// to `frames` as this connection's next request, without sending it.
    /// Pipelining: frame several requests, [`Client::send`] them in one
    /// write, then [`Client::receive`] one reply per request, in order.
    pub fn frame(&mut self, frames: &mut Vec<u8>, tag: u8, payload: &[u8]) {
        self.seq += 1;
        frame_into(frames, self.seq, tag, payload);
    }

    /// Writes a buffer of [`Client::frame`]d requests in one write.
    pub fn send(&mut self, frames: &[u8]) -> Result<(), ClientError> {
        self.conn.write_all(frames)?;
        self.conn.flush()?;
        Ok(())
    }

    /// Reads the reply to the oldest unanswered request; an error record
    /// surfaces as [`ClientError::Fault`].
    pub fn receive(&mut self) -> Result<Response, ClientError> {
        match read_response(&mut self.conn)? {
            Some((_, Response::Error(fault))) => Err(ClientError::Fault(fault)),
            Some((_, resp)) => Ok(resp),
            None => Err(ClientError::Closed),
        }
    }

    fn unexpected<T>(got: Response) -> Result<T, ClientError> {
        Err(ClientError::Protocol(format!(
            "unexpected response {got:?}"
        )))
    }

    /// Opens `source` under `label` in the attached session, returning the
    /// document handle.
    pub fn open_doc(&mut self, label: &str, source: &str) -> Result<u64, ClientError> {
        match self.call(&Request::OpenDoc {
            label: label.to_owned(),
            source: source.to_owned(),
        })? {
            Response::Opened { handle } => Ok(handle),
            other => Client::unexpected(other),
        }
    }

    /// Applies an edit batch (all-or-nothing) to one open document,
    /// returning the session's queued-op depth.
    pub fn apply(&mut self, handle: u64, ops: &[EditOp]) -> Result<u64, ClientError> {
        match self.call(&Request::Apply {
            handle,
            ops: ops.to_vec(),
        })? {
            Response::Applied { queued_ops } => Ok(queued_ops),
            other => Client::unexpected(other),
        }
    }

    /// Commits the session and returns the new delta.  Once this returns,
    /// the commit is acknowledged: a graceful server drain persists it.
    pub fn commit(&mut self) -> Result<BatchDelta, ClientError> {
        match self.call(&Request::Commit)? {
            Response::Delta(delta) => Ok(delta),
            other => Client::unexpected(other),
        }
    }

    /// Fetches every retained delta with sequence number above
    /// `after_seq`, in order.
    pub fn sync(&mut self, after_seq: u64) -> Result<Vec<BatchDelta>, ClientError> {
        self.sync_inner(after_seq, None)
    }

    /// Fetches the shard-filtered delta stream above `after_seq`: only
    /// deltas tagged with `shard`, each projected down to that shard's
    /// constraints.  Requires the server to run with `--shards`.
    pub fn sync_shard(
        &mut self,
        after_seq: u64,
        shard: u32,
    ) -> Result<Vec<BatchDelta>, ClientError> {
        self.sync_inner(after_seq, Some(shard))
    }

    fn sync_inner(
        &mut self,
        after_seq: u64,
        shard: Option<u32>,
    ) -> Result<Vec<BatchDelta>, ClientError> {
        self.seq += 1;
        write_request(
            &mut self.conn,
            self.seq,
            &Request::Sync { after_seq, shard },
        )?;
        let mut deltas = Vec::new();
        loop {
            match self.receive()? {
                Response::Delta(delta) => deltas.push(delta),
                Response::DeltaEnd { count } => {
                    if count as usize != deltas.len() {
                        return Err(ClientError::Protocol(format!(
                            "delta stream announced {count} records but carried {}",
                            deltas.len()
                        )));
                    }
                    return Ok(deltas);
                }
                other => return Client::unexpected(other),
            }
        }
    }

    /// Syncs `replica` up to the session's head, returning how many deltas
    /// were applied.  The replica afterwards reconstructs the session's
    /// `report()` exactly — or, for a shard-filtered replica
    /// ([`CorpusReplica::new_sharded`]), the shard projection of it: the
    /// subscription automatically requests only that shard's deltas.
    pub fn sync_replica(&mut self, replica: &mut CorpusReplica) -> Result<usize, ClientError> {
        let deltas = self.sync_inner(replica.last_seq(), replica.shard())?;
        for delta in &deltas {
            replica
                .apply_delta(delta)
                .map_err(|e| ClientError::Protocol(format!("replica rejected delta: {e}")))?;
        }
        Ok(deltas.len())
    }

    /// Closes one open document, returning its label.
    pub fn close_doc(&mut self, handle: u64) -> Result<String, ClientError> {
        match self.call(&Request::CloseDoc { handle })? {
            Response::Closed { label } => Ok(label),
            other => Client::unexpected(other),
        }
    }

    /// Snapshots the server's metrics registry — the same shape
    /// `xic stats` renders locally.
    pub fn stats(&mut self) -> Result<RegistrySnapshot, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(snapshot) => Ok(snapshot),
            other => Client::unexpected(other),
        }
    }

    /// Asks the server to drain and stop, returning the number of sessions
    /// it will persist.  The connection is closed by the server afterward.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown { sessions } => Ok(sessions),
            other => Client::unexpected(other),
        }
    }
}
