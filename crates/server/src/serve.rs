//! The server proper: non-blocking accept loops feeding a bounded worker
//! pool, the named-session registry, the janitor (idle eviction), and the
//! graceful drain that flushes every session's corpus log.

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xic_engine::wire::{
    read_request_monotonic, write_response, Request, Response, WireError, WireFault, WIRE_VERSION,
};
use xic_engine::{journal, CompiledSpec, Engine, Limits};
use xic_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::actor::{self, Cmd, Offer, SessionHandle};
use crate::validate_session_name;

/// How long to run the service and under what bounds.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP listen address (`127.0.0.1:0` picks a free port).
    pub tcp: Option<SocketAddr>,
    /// Unix-socket listen path (removed on stop; stale files are replaced).
    pub unix: Option<PathBuf>,
    /// Admission limits threaded into every live session.
    pub limits: Limits,
    /// Maximum number of named sessions; further hellos are rejected with
    /// a code-3 `resource:max_sessions` record.
    pub max_sessions: usize,
    /// Bound of each session's command channel; a full channel answers
    /// code-3 `resource:session_backlog` instead of queueing unboundedly.
    pub session_backlog: usize,
    /// Bound of the accepted-connection queue feeding the worker pool.
    pub conn_backlog: usize,
    /// Worker threads (= concurrently served connections).
    pub workers: usize,
    /// Sessions idle longer than this are drained and evicted by the
    /// janitor. `None` disables eviction.
    pub idle_timeout: Option<Duration>,
    /// Where sessions flush their corpus logs (`<name>.xicj`) when drained
    /// or evicted; a session whose log exists there is recovered from it —
    /// live and editable — when a client first names it.  `None` disables
    /// persistence.
    pub state_dir: Option<PathBuf>,
    /// Whether shard-filtered sync subscriptions are served (`xic serve
    /// --shards`).  When disabled, a sync carrying a shard filter is
    /// answered with a structured code-2 `protocol:shards-disabled`
    /// record instead of a projected stream.
    pub shards: bool,
    /// When set, every live session is scoped to these shards with
    /// [`xic_engine::CorpusSession::scope_to_shards`] (`xic serve
    /// --scope-shards 0,3`): commits recompute only the scoped constraints
    /// and reports carry the shard projection — the per-worker half of a
    /// fanned-out commit, hosted by `xic-coord`.  Validated against the
    /// spec's shard plan at [`Server::start`].
    pub scope: Option<Vec<u32>>,
    /// The metrics registry (`None`: the process-global one).
    pub registry: Option<Arc<MetricsRegistry>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            tcp: None,
            unix: None,
            limits: Limits::UNLIMITED,
            max_sessions: 16,
            session_backlog: 32,
            conn_backlog: 64,
            workers: 4,
            idle_timeout: None,
            state_dir: None,
            shards: false,
            scope: None,
            registry: None,
        }
    }
}

/// What a stopped server reports back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerReport {
    /// Sessions drained at shutdown.
    pub drained_sessions: usize,
    /// Commits persisted to the state directory during the final drain.
    pub persisted_deltas: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

struct Instruments {
    connections: Arc<Counter>,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    torn: Arc<Counter>,
    rejected: Arc<Counter>,
    evictions: Arc<Counter>,
    drains: Arc<Counter>,
    sessions: Arc<Gauge>,
    request_ns: Arc<Histogram>,
    shard_syncs: Arc<Counter>,
}

impl Instruments {
    fn on(registry: &MetricsRegistry) -> Instruments {
        Instruments {
            connections: registry.counter("server.connections"),
            requests: registry.counter("server.requests"),
            errors: registry.counter("server.errors"),
            torn: registry.counter("server.torn_connections"),
            rejected: registry.counter("server.rejected_admissions"),
            evictions: registry.counter("server.evicted_sessions"),
            drains: registry.counter("server.drained_sessions"),
            sessions: registry.gauge("server.sessions"),
            request_ns: registry.histogram("server.request_ns"),
            shard_syncs: registry.counter("shard.syncs"),
        }
    }
}

/// One accepted connection, transport-erased.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// One connection's byte stream as the request loop sees it: requests are
/// read through a buffer, and replies collect in `out` until the next read
/// would wait on the socket.  A pipelined batch of requests is so answered
/// in one write, and no reply is ever held back while the server waits for
/// the client.
struct Link {
    conn: BufReader<Conn>,
    out: Vec<u8>,
}

impl Link {
    /// Writes the collected replies.
    fn send(&mut self) -> io::Result<()> {
        if !self.out.is_empty() {
            self.conn.get_mut().write_all(&self.out)?;
            self.out.clear();
        }
        Ok(())
    }
}

impl Read for Link {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.conn.buffer().is_empty() {
            self.send()?;
        }
        self.conn.read(buf)
    }
}

impl Write for Link {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.extend_from_slice(buf);
        // A long reply (a sync of the whole history) streams out.
        if self.out.len() >= 1 << 16 {
            self.send()?;
        }
        Ok(buf.len())
    }

    /// Replies are sent before the next read waits, not per frame.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct Shared {
    spec: Arc<CompiledSpec>,
    // Holds the service-wide verdict cache: consistency of the hosted spec
    // is memoized here once at startup, and `stats` snapshots include its
    // cache counters.
    #[allow(dead_code)]
    engine: Engine,
    config: ServerConfig,
    registry: Arc<MetricsRegistry>,
    sessions: RwLock<HashMap<String, Arc<SessionHandle>>>,
    /// Serializes the slow steps of one session name — recovering it from
    /// its log, draining it into the log — without blocking the registry:
    /// a name hashes to one stripe.
    name_locks: [Mutex<()>; 16],
    shutdown: AtomicBool,
    instr: Instruments,
}

impl Shared {
    fn is_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The lock serializing recovery and drain of the session `name`.
    fn lock_name(&self, name: &str) -> std::sync::MutexGuard<'_, ()> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        std::hash::Hash::hash(name, &mut hasher);
        let stripe = std::hash::Hasher::finish(&hasher) as usize % self.name_locks.len();
        self.name_locks[stripe].lock().unwrap()
    }
}

/// The running service.  Dropping it without [`Server::stop`] aborts the
/// threads without a drain; call `stop` (or let a wire `shutdown` land and
/// call [`Server::wait`]) for the graceful path.
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Binds the configured listeners and starts the accept loops, worker
    /// pool and janitor.  Sessions with a corpus log in the state directory
    /// are recovered lazily, when a client first names them.  Fails when no
    /// listener is configured or a bind fails.
    pub fn start(spec: Arc<CompiledSpec>, config: ServerConfig) -> io::Result<Server> {
        if config.tcp.is_none() && config.unix.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "server config names no listener (neither tcp nor unix)",
            ));
        }
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Arc::clone(xic_telemetry::global()));
        crate::register_baseline(&registry);
        xic_engine::register_baseline(&registry);
        let engine = Engine::with_registry(1024, Arc::clone(&registry));
        // Refuse to serve a spec whose constraints are unsatisfiable: every
        // session would report violations forever.  The verdict lands in
        // the shared cache either way.
        let verdict = engine.consistency(&spec);
        if verdict.decision() == Some(false) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("refusing to serve an inconsistent spec: {}", spec.id()),
            ));
        }

        // Validate the shard scope up front: `scope_to_shards` panics on an
        // out-of-range id, and it would do so inside a session actor thread
        // long after startup succeeded.
        if let Some(scope) = &config.scope {
            let num_shards = spec.shard_plan().num_shards();
            if let Some(&bad) = scope.iter().find(|&&s| (s as usize) >= num_shards) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "scope shard {bad} out of range: the spec's plan has {num_shards} shards"
                    ),
                ));
            }
        }

        // The drain path persists into the state directory; creating it up
        // front means a missing directory can never silently swallow a
        // session's corpus log at shutdown.
        if let Some(dir) = &config.state_dir {
            std::fs::create_dir_all(dir)?;
        }

        let instr = Instruments::on(&registry);
        instr.sessions.set(0);
        let shared = Arc::new(Shared {
            spec,
            engine,
            config,
            registry,
            sessions: RwLock::new(HashMap::new()),
            name_locks: Default::default(),
            shutdown: AtomicBool::new(false),
            instr,
        });

        let mut threads = Vec::new();
        let (conn_tx, conn_rx) = sync_channel::<Conn>(shared.config.conn_backlog.max(1));
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let mut tcp_addr = None;
        if let Some(addr) = shared.config.tcp {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            threads.push(spawn_named("xic-accept-tcp", {
                let shared = Arc::clone(&shared);
                let conn_tx = conn_tx.clone();
                move || accept_tcp(listener, &shared, &conn_tx)
            })?);
        }
        let mut unix_path = None;
        #[cfg(unix)]
        if let Some(path) = shared.config.unix.clone() {
            // A stale socket file from a crashed run would fail the bind.
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)?;
            listener.set_nonblocking(true)?;
            unix_path = Some(path);
            threads.push(spawn_named("xic-accept-unix", {
                let shared = Arc::clone(&shared);
                let conn_tx = conn_tx.clone();
                move || accept_unix(listener, &shared, &conn_tx)
            })?);
        }
        #[cfg(not(unix))]
        {
            unix_path = None;
        }
        drop(conn_tx);

        for i in 0..shared.config.workers.max(1) {
            threads.push(spawn_named(&format!("xic-worker-{i}"), {
                let shared = Arc::clone(&shared);
                let conn_rx = Arc::clone(&conn_rx);
                move || worker(&shared, &conn_rx)
            })?);
        }
        if shared.config.idle_timeout.is_some() {
            threads.push(spawn_named("xic-janitor", {
                let shared = Arc::clone(&shared);
                move || janitor(&shared)
            })?);
        }

        Ok(Server {
            shared,
            threads,
            tcp_addr,
            unix_path,
        })
    }

    /// The bound TCP address (the actual port when configured with port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix-socket path.
    pub fn unix_path(&self) -> Option<&std::path::Path> {
        self.unix_path.as_deref()
    }

    /// Whether a shutdown (wire or local) has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_down()
    }

    /// Requests shutdown and runs the graceful drain: stop accepting, let
    /// workers finish their connections, flush every session's corpus log,
    /// join every thread.
    pub fn stop(self) -> ServerReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.wait()
    }

    /// Blocks until the server shuts down (a wire `shutdown` request, or a
    /// prior local request), then drains.  The terminal mode of
    /// `xic serve`.
    pub fn wait(self) -> ServerReport {
        for t in self.threads {
            let _ = t.join();
        }
        let mut drained = 0;
        let mut persisted = 0;
        let sessions: Vec<(String, Arc<SessionHandle>)> =
            self.shared.sessions.write().unwrap().drain().collect();
        for (_, handle) in sessions {
            if let Some(n) = handle.drain() {
                drained += 1;
                persisted += n;
                self.shared.instr.drains.inc();
            }
        }
        self.shared.instr.sessions.set(0);
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        ServerReport {
            drained_sessions: drained,
            persisted_deltas: persisted,
            connections: self
                .shared
                .registry
                .snapshot()
                .counter("server.connections")
                .unwrap_or(0),
        }
    }
}

fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name.to_owned()).spawn(f)
}

fn accept_tcp(listener: TcpListener, shared: &Shared, conn_tx: &SyncSender<Conn>) {
    loop {
        if shared.is_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                // Replies go out as soon as the server would wait for the
                // client; with Nagle on, a reply written while an earlier
                // one is unacknowledged waits for the peer's delayed ACK.
                let _ = stream.set_nodelay(true);
                if conn_tx.send(Conn::Tcp(stream)).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

#[cfg(unix)]
fn accept_unix(listener: UnixListener, shared: &Shared, conn_tx: &SyncSender<Conn>) {
    loop {
        if shared.is_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                if conn_tx.send(Conn::Unix(stream)).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn worker(shared: &Shared, conn_rx: &Arc<Mutex<Receiver<Conn>>>) {
    loop {
        let next = {
            let rx = conn_rx.lock().unwrap();
            rx.recv_timeout(Duration::from_millis(100))
        };
        match next {
            Ok(conn) => serve_conn(conn, shared),
            Err(RecvTimeoutError::Timeout) => {
                if shared.is_down() {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn janitor(shared: &Shared) {
    let Some(idle) = shared.config.idle_timeout else {
        return;
    };
    let tick = (idle / 4).max(Duration::from_millis(50));
    loop {
        std::thread::sleep(tick);
        if shared.is_down() {
            return;
        }
        let stale: Vec<String> = {
            let sessions = shared.sessions.read().unwrap();
            sessions
                .iter()
                .filter(|(_, h)| h.evictable(idle))
                .map(|(name, _)| name.clone())
                .collect()
        };
        for name in stale {
            // The drain runs under the name's lock, so a request recreating
            // the session recovers from the flushed log, never from the one
            // the drain is extending.
            let _name = shared.lock_name(&name);
            // Re-check under the write lock: between the scan and here a
            // worker may have started a request (bumping `last_used` and
            // the in-flight count via `begin_request`), and draining the
            // actor then would strand that request's reply.
            let evicted = {
                let mut sessions = shared.sessions.write().unwrap();
                match sessions.get(&name) {
                    Some(h) if h.evictable(idle) => sessions.remove(&name),
                    _ => None,
                }
            };
            if let Some(handle) = evicted {
                // Drain flushes the corpus log (when configured) before the
                // actor exits, so eviction never loses history.
                let _ = handle.drain();
                shared.instr.evictions.inc();
            }
        }
        let len = shared.sessions.read().unwrap().len();
        shared.instr.sessions.set(len as i64);
    }
}

/// Sends a command to a session actor and awaits the rendezvous reply,
/// translating backpressure and eviction into wire faults.
fn dispatch<T>(
    handle: &SessionHandle,
    make: impl FnOnce(SyncSender<Result<T, WireFault>>) -> Cmd,
) -> Result<T, WireFault> {
    // Held across offer → reply so the janitor cannot drain the actor out
    // from under a request it has already admitted.
    let _in_flight = handle.begin_request();
    let (reply, rx) = sync_channel(1);
    match handle.offer(make(reply)) {
        Offer::Sent => {}
        Offer::Backpressure => {
            return Err(WireFault::new(
                3,
                "resource:session_backlog",
                "session command channel is full; retry after in-flight requests finish",
            ));
        }
        Offer::Gone => {
            return Err(WireFault::new(
                2,
                "session",
                "session was evicted or drained; reconnect to start a fresh one",
            ));
        }
    }
    rx.recv().map_err(|_| {
        WireFault::new(
            2,
            "session",
            "session actor stopped before answering; reconnect",
        )
    })?
}

fn session_meta(handle: &SessionHandle) -> Result<u64, WireFault> {
    let _in_flight = handle.begin_request();
    let (reply, rx) = sync_channel(1);
    match handle.offer(Cmd::Meta { reply }) {
        Offer::Sent => rx
            .recv()
            .map_err(|_| WireFault::new(2, "session", "session actor stopped during the hello")),
        _ => Err(WireFault::new(
            2,
            "session",
            "session unavailable during the hello; retry",
        )),
    }
}

/// The running session `name`; else the one its corpus log holds,
/// recovered; else, when `create`, a fresh one.  `Ok(None)` when there is
/// neither and `create` is off.
fn find_session(
    shared: &Shared,
    name: &str,
    create: bool,
) -> Result<Option<Arc<SessionHandle>>, WireFault> {
    let running = || shared.sessions.read().unwrap().get(name).cloned();
    if let Some(handle) = running() {
        return Ok(Some(handle));
    }
    // Under the name's lock, outside the registry's: recovery replays the
    // whole log, and other sessions' requests must not wait for it.
    let _name = shared.lock_name(name);
    if let Some(handle) = running() {
        return Ok(Some(handle));
    }
    let has_log =
        (shared.config.state_dir.as_ref()).is_some_and(|dir| actor::log_path(dir, name).exists());
    if !create && !has_log {
        return Ok(None);
    }
    let refusal = |running: usize| {
        if shared.is_down() {
            return Some(WireFault::new(
                2,
                "session",
                "server is shutting down; no new sessions",
            ));
        }
        if running < shared.config.max_sessions {
            return None;
        }
        shared.instr.rejected.inc();
        Some(WireFault::new(
            3,
            "resource:max_sessions",
            format!(
                "session limit of {} reached; close or evict a session first",
                shared.config.max_sessions
            ),
        ))
    };
    if let Some(fault) = refusal(shared.sessions.read().unwrap().len()) {
        return Err(fault);
    }
    let handle = Arc::new(actor::spawn_live(
        name.to_owned(),
        Arc::clone(&shared.spec),
        shared.config.limits,
        Arc::clone(&shared.registry),
        shared.config.session_backlog,
        shared.config.state_dir.clone(),
        shared.config.scope.clone(),
    )?);
    let mut sessions = shared.sessions.write().unwrap();
    // Another name may have taken the last slot, or shutdown begun, while
    // this one recovered: stop the new actor again.
    if let Some(fault) = refusal(sessions.len()) {
        drop(sessions);
        let _ = handle.drain();
        return Err(fault);
    }
    sessions.insert(name.to_owned(), Arc::clone(&handle));
    shared.instr.sessions.set(sessions.len() as i64);
    Ok(Some(handle))
}

/// Reads one request, honoring the idle poll: `Ok(None)` means the
/// connection is over (clean close, torn frame, I/O error, or shutdown).
/// `last_seq` threads the connection's strictly monotonic request
/// sequence: a replayed or rewound frame is answered with a structured
/// `protocol:seq` fault and the connection is closed.
fn next_request(conn: &mut Link, shared: &Shared, last_seq: &mut u64) -> Option<(u64, Request)> {
    loop {
        match read_request_monotonic(conn, last_seq) {
            Ok(Some(framed)) => return Some(framed),
            Ok(None) => return None,
            Err(WireError::Idle) => {
                if shared.is_down() {
                    return None;
                }
            }
            Err(WireError::Torn) => {
                shared.instr.torn.inc();
                return None;
            }
            Err(WireError::Io(_)) => return None,
            Err(err @ WireError::NonMonotonicSeq { .. }) => {
                shared.instr.errors.inc();
                let fault = WireFault::new(2, "protocol:seq", err.to_string());
                let _ = write_response(conn, 0, &Response::Error(fault));
                return None;
            }
            Err(err) => {
                // Corrupt, malformed, oversized or unknown frames get a
                // structured protocol error before the close.
                shared.instr.errors.inc();
                let fault = WireFault::new(2, "protocol", err.to_string());
                let _ = write_response(conn, 0, &Response::Error(fault));
                return None;
            }
        }
    }
}

fn serve_conn(conn: Conn, shared: &Shared) {
    shared.instr.connections.inc();
    if conn
        .set_read_timeout(Some(Duration::from_millis(250)))
        .is_err()
    {
        return;
    }
    let mut link = Link {
        conn: BufReader::new(conn),
        out: Vec::new(),
    };
    serve_link(&mut link, shared);
    let _ = link.send();
}

fn serve_link(conn: &mut Link, shared: &Shared) {
    // --- Hello: version + spec negotiation, session attach. ---
    let mut last_req_seq = 0u64;
    let Some((seq, req)) = next_request(conn, shared, &mut last_req_seq) else {
        return;
    };
    let Request::Hello {
        format,
        wire,
        spec,
        session: session_name,
    } = req
    else {
        shared.instr.errors.inc();
        let fault = WireFault::new(2, "protocol", "first request must be a hello");
        let _ = write_response(conn, seq, &Response::Error(fault));
        return;
    };
    let handshake = || -> Result<(), WireFault> {
        if format != journal::FORMAT_VERSION || wire != WIRE_VERSION {
            return Err(WireFault::new(
                2,
                "protocol",
                format!(
                    "version mismatch: client speaks format {format} / wire {wire}, \
                     server speaks format {} / wire {WIRE_VERSION}",
                    journal::FORMAT_VERSION
                ),
            ));
        }
        if spec != shared.spec.id() {
            return Err(WireFault::new(
                2,
                "spec-mismatch",
                format!(
                    "client spec {spec} does not match served spec {}; \
                     recompile against the server's (DTD, Sigma)",
                    shared.spec.id()
                ),
            ));
        }
        validate_session_name(&session_name)
    };
    if let Err(fault) = handshake() {
        shared.instr.errors.inc();
        let _ = write_response(conn, seq, &Response::Error(fault));
        return;
    }
    // Sessions are created lazily on the first session-touching request,
    // so a stats-only or shutdown-only connection never mints an empty
    // one.  A session with a corpus log is recovered at the hello, so the
    // ack reports its durable position; otherwise a fresh session is at 0.
    let mut session = None;
    let mut attach = || {
        session = find_session(shared, &session_name, false)?;
        session.as_deref().map_or(Ok(0), session_meta)
    };
    let ack = match attach() {
        Ok(last_seq) => Response::Hello(xic_engine::wire::HelloAck {
            format: journal::FORMAT_VERSION,
            wire: WIRE_VERSION,
            spec: shared.spec.id(),
            spec_known: true,
            last_seq,
        }),
        Err(fault) => {
            shared.instr.errors.inc();
            let _ = write_response(conn, seq, &Response::Error(fault));
            return;
        }
    };
    if write_response(conn, seq, &ack).is_err() {
        return;
    }

    // --- Request loop. ---
    while let Some((seq, req)) = next_request(conn, shared, &mut last_req_seq) {
        shared.instr.requests.inc();
        let start = Instant::now();
        let ok = handle_request(conn, shared, &session_name, &mut session, seq, req);
        shared.instr.request_ns.record_elapsed(start);
        // Re-check the flag even after a served request: a client that
        // streams back-to-back requests never lets the read hit its idle
        // tick, and shutdown must not wait on it.
        if !ok || shared.is_down() {
            return;
        }
    }
}

/// Serves one request; `false` ends the connection.
fn handle_request(
    conn: &mut Link,
    shared: &Shared,
    session_name: &str,
    session: &mut Option<Arc<SessionHandle>>,
    seq: u64,
    req: Request,
) -> bool {
    let respond = |conn: &mut Link, resp: &Response| {
        if matches!(resp, Response::Error(_)) {
            shared.instr.errors.inc();
        }
        write_response(conn, seq, resp).is_ok()
    };
    // Lazily attaches (creating on first use) the connection's session.
    let attach = |session: &mut Option<Arc<SessionHandle>>| match session {
        Some(handle) => Ok(Arc::clone(handle)),
        None => {
            let handle = find_session(shared, session_name, true)?.expect("created on demand");
            *session = Some(Arc::clone(&handle));
            Ok(handle)
        }
    };
    match req {
        Request::Hello { .. } => {
            let fault = WireFault::new(2, "protocol", "unexpected second hello");
            respond(conn, &Response::Error(fault))
        }
        Request::OpenDoc { label, source } => {
            let resp = match attach(session).and_then(|s| {
                dispatch(&s, |reply| Cmd::Open {
                    label,
                    source,
                    reply,
                })
            }) {
                Ok(handle) => Response::Opened { handle },
                Err(fault) => Response::Error(fault),
            };
            respond(conn, &resp)
        }
        Request::Apply { handle, ops } => {
            let resp = match attach(session)
                .and_then(|s| dispatch(&s, |reply| Cmd::Apply { handle, ops, reply }))
            {
                Ok(queued_ops) => Response::Applied { queued_ops },
                Err(fault) => Response::Error(fault),
            };
            respond(conn, &resp)
        }
        Request::Commit => {
            let resp =
                match attach(session).and_then(|s| dispatch(&s, |reply| Cmd::Commit { reply })) {
                    Ok(delta) => Response::Delta(delta),
                    Err(fault) => Response::Error(fault),
                };
            respond(conn, &resp)
        }
        Request::Sync { after_seq, shard } => {
            if let Some(shard) = shard {
                if !shared.config.shards {
                    let fault = WireFault::new(
                        2,
                        "protocol:shards-disabled",
                        "this server does not serve shard-filtered sync (start it with --shards)",
                    );
                    return respond(conn, &Response::Error(fault));
                }
                let plan = shared.spec.shard_plan();
                if shard as usize >= plan.num_shards() {
                    let fault = WireFault::new(
                        2,
                        "protocol:shard-range",
                        format!(
                            "shard {shard} out of range: the spec's touch graph has {} shard(s)",
                            plan.num_shards()
                        ),
                    );
                    return respond(conn, &Response::Error(fault));
                }
            }
            match attach(session).and_then(|s| dispatch(&s, |reply| Cmd::Sync { after_seq, reply }))
            {
                Ok(deltas) => {
                    // A shard subscription sees only deltas tagged with its
                    // shard, each projected down to the shard's constraints
                    // — monotone but non-contiguous sequence numbers, which
                    // a shard-filtered replica accepts by design.
                    let deltas: Vec<_> = match shard {
                        None => deltas,
                        Some(shard) => {
                            shared.instr.shard_syncs.inc();
                            let plan = shared.spec.shard_plan();
                            deltas
                                .iter()
                                .filter_map(|d| d.project(plan, shard))
                                .collect()
                        }
                    };
                    let count = deltas.len() as u64;
                    for delta in deltas {
                        if !respond(conn, &Response::Delta(delta)) {
                            return false;
                        }
                    }
                    respond(conn, &Response::DeltaEnd { count })
                }
                Err(fault) => respond(conn, &Response::Error(fault)),
            }
        }
        Request::CloseDoc { handle } => {
            let resp = match attach(session)
                .and_then(|s| dispatch(&s, |reply| Cmd::Close { handle, reply }))
            {
                Ok(label) => Response::Closed { label },
                Err(fault) => Response::Error(fault),
            };
            respond(conn, &resp)
        }
        Request::Stats => respond(conn, &Response::Stats(shared.registry.snapshot())),
        Request::Shutdown => {
            let sessions = shared.sessions.read().unwrap().len() as u64;
            shared.shutdown.store(true, Ordering::SeqCst);
            respond(conn, &Response::ShuttingDown { sessions });
            false
        }
    }
}
