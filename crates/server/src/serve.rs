//! The server proper: non-blocking accept loops feeding a bounded worker
//! pool, the named-session registry, the janitor (idle eviction), and the
//! graceful drain that flushes every session's corpus log.

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xic_engine::wire::{
    read_request_monotonic, write_response, Request, Response, WireError, WireFault, WIRE_VERSION,
};
use xic_engine::{
    journal, BatchDelta, CompiledSpec, CorpusSession, DocHandle, Engine, Limits, ResourceError,
    SessionError,
};
use xic_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::{validate_session_name, Stream};

/// How long a connection's read waits before it re-checks for shutdown.
const READ_POLL: Duration = Duration::from_millis(250);

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

/// One accepted connection, transport-erased, its read timeout set.
type Conn = Box<dyn Stream>;

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

/// The registry's entry for one named session: its [`CorpusSession`] —
/// fresh, or recovered from the session's corpus log — behind a mutex.
/// The connection thread serving a request locks it and runs the request
/// itself; the janitor's eviction and the shutdown drain take the same
/// lock, so a session is never drained under a running request.
struct SessionHandle {
    /// `None` once drained.  A request that panics outside the engine's
    /// own containment poisons the lock, which stops the session too.
    session: Mutex<Option<CorpusSession<'static>>>,
    /// When the last request completed, written under the session lock:
    /// the janitor's re-check under that lock sees every request that ran
    /// since its scan.
    last_used: Mutex<Instant>,
    /// The session's corpus log, when the server has a state directory.
    log: Option<PathBuf>,
    /// How long requests wait for the session lock (`server.queue_ns`).
    queue_ns: Arc<Histogram>,
}

/// What [`SessionHandle::drain`] did.
#[derive(Debug, PartialEq, Eq)]
enum Drain {
    /// A request ran since the session went idle; it stays.
    Busy,
    /// Already stopped (drained or poisoned), or its log could not be
    /// written: nothing was made durable.
    Stopped,
    /// Flushed and stopped, making this many commits durable.
    Flushed(u64),
}

/// Where a session's corpus log lives in the state directory.
fn log_path(state_dir: &Path, name: &str) -> PathBuf {
    state_dir.join(format!("{name}.xicj"))
}

impl SessionHandle {
    /// The session `name`, recovered from its log in the state directory
    /// when that exists, so a restarted or evicted session comes back
    /// editable.  Fails when the log does not recover.
    fn open(shared: &Shared, name: &str) -> Result<SessionHandle, WireFault> {
        let config = &shared.config;
        let log = config.state_dir.as_deref().map(|dir| log_path(dir, name));
        let (spec, registry) = (Arc::clone(&shared.spec), Arc::clone(&shared.registry));
        let mut session = CorpusSession::with_registry_and_limits(spec, config.limits, registry);
        if let Some(shards) = &config.scope {
            // Validated against the shard plan at `Server::start`.
            session.scope_to_shards(shards);
        }
        if let Some(path) = log.as_deref().filter(|path| path.exists()) {
            session
                .recover_from(path)
                .map_err(|e| WireFault::new(2, "journal", format!("{}: {e}", path.display())))?;
        }
        Ok(SessionHandle {
            session: Mutex::new(Some(session)),
            last_used: Mutex::new(Instant::now()),
            log,
            queue_ns: shared.registry.histogram("server.queue_ns"),
        })
    }

    /// Runs one request on the session under its lock; `None` when the
    /// session is stopped (drained or poisoned).
    fn run<T>(&self, f: impl FnOnce(&mut CorpusSession<'static>) -> T) -> Option<T> {
        let waited = Instant::now();
        let mut session = self.session.lock().ok()?;
        self.queue_ns.record_elapsed(waited);
        let out = f(session.as_mut()?);
        *self.last_used.lock().unwrap() = Instant::now();
        Some(out)
    }

    fn idle_for(&self) -> Duration {
        self.last_used.lock().unwrap().elapsed()
    }

    /// Flushes the session into its corpus log and stops it, under the
    /// session lock.  With `idle` (the janitor), only when the session is
    /// still idle past it once the lock is held.  A drain is a flush:
    /// every document, edit, close and commit the log lacks — acknowledged
    /// or merely queued for the next commit — lands in it.
    fn drain(&self, idle: Option<Duration>) -> Drain {
        let Ok(mut session) = self.session.lock() else {
            return Drain::Stopped;
        };
        if idle.is_some_and(|idle| self.idle_for() <= idle) {
            return Drain::Busy;
        }
        let Some(mut session) = session.take() else {
            return Drain::Stopped;
        };
        let Some(path) = &self.log else {
            return Drain::Flushed(0);
        };
        match session.persist_to(path) {
            Ok(receipt) => Drain::Flushed(receipt.commits_written as u64),
            Err(e) => {
                eprintln!("xic-server: corpus log not flushed: {e}");
                Drain::Stopped
            }
        }
    }
}

struct Shared {
    spec: Arc<CompiledSpec>,
    config: ServerConfig,
    registry: Arc<MetricsRegistry>,
    sessions: RwLock<HashMap<String, Arc<SessionHandle>>>,
    /// Serializes the slow steps of one session name — recovering it from
    /// its log, draining it into the log — without blocking the registry:
    /// a name hashes to one stripe.  Lock order: name stripe, then session
    /// lock, then registry lock; a request never holds its session lock
    /// while it takes a registry lock.
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

    /// Drops `handle`, found stopped, from the registry if it is still
    /// there, so the next hello recovers `name` from its log.  Waits on the
    /// name's lock, so a drain in progress finishes first.
    fn forget(&self, name: &str, handle: &Arc<SessionHandle>) {
        let _name = self.lock_name(name);
        let mut sessions = self.sessions.write().unwrap();
        if sessions.get(name).is_some_and(|h| Arc::ptr_eq(h, handle)) {
            sessions.remove(name);
            self.instr.sessions.set(sessions.len() as i64);
        }
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
        // Refuse to serve a spec whose constraints are unsatisfiable: every
        // session would report violations forever.  The verdict cache's
        // instruments stay in the registry for `stats`.
        let verdict = Engine::with_registry(1024, Arc::clone(&registry)).consistency(&spec);
        if verdict.decision() == Some(false) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("refusing to serve an inconsistent spec: {}", spec.id()),
            ));
        }

        // Validate the shard scope up front: `scope_to_shards` panics on an
        // out-of-range id, and it would do so on a connection thread long
        // after startup succeeded.
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
                move || {
                    accept_loop(&shared, &conn_tx, || {
                        let (stream, _) = listener.accept()?;
                        stream.set_nonblocking(false)?;
                        // Replies go out as soon as the server would wait for
                        // the client; with Nagle on, a reply written while an
                        // earlier one is unacknowledged waits for the peer's
                        // delayed ACK.
                        stream.set_nodelay(true)?;
                        stream.set_read_timeout(Some(READ_POLL))?;
                        Ok(Box::new(stream))
                    })
                }
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
                move || {
                    accept_loop(&shared, &conn_tx, || {
                        let (stream, _) = listener.accept()?;
                        stream.set_nonblocking(false)?;
                        stream.set_read_timeout(Some(READ_POLL))?;
                        Ok(Box::new(stream))
                    })
                }
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
        let sessions: Vec<_> = self.shared.sessions.write().unwrap().drain().collect();
        for (_, handle) in sessions {
            // A poisoned session is skipped: its state cannot be trusted.
            if let Drain::Flushed(n) = handle.drain(None) {
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

/// Hands each connection `accept` yields to the worker pool until
/// shutdown; `accept` fails with `WouldBlock` while no client waits.
fn accept_loop(shared: &Shared, conn_tx: &SyncSender<Conn>, accept: impl Fn() -> io::Result<Conn>) {
    while !shared.is_down() {
        match accept() {
            Ok(conn) => {
                if conn_tx.send(conn).is_err() {
                    return;
                }
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
            // A panic outside the engine's containment ends its connection
            // (poisoning the session it held), not the worker.
            Ok(conn) => {
                let _ = std::panic::catch_unwind(AssertUnwindSafe(|| serve_conn(conn, shared)));
            }
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
                .filter(|(_, h)| h.idle_for() > idle)
                .map(|(name, _)| name.clone())
                .collect()
        };
        for name in stale {
            evict(shared, &name, idle);
        }
        let len = shared.sessions.read().unwrap().len();
        shared.instr.sessions.set(len as i64);
    }
}

/// Drains and drops the session `name` if it is still idle past `idle`
/// once its lock is held, and says whether it did.  The drain runs under
/// the name's lock, so a hello recreating the session recovers from the
/// flushed log, never from the one the drain is extending.  A poisoned
/// session is dropped without a drain.
fn evict(shared: &Shared, name: &str, idle: Duration) -> bool {
    let _name = shared.lock_name(name);
    let Some(handle) = shared.sessions.read().unwrap().get(name).cloned() else {
        return false;
    };
    if handle.drain(Some(idle)) == Drain::Busy {
        return false;
    }
    shared.sessions.write().unwrap().remove(name);
    shared.instr.evictions.inc();
    true
}

fn resource_fault(e: &ResourceError) -> WireFault {
    WireFault::new(3, format!("resource:{}", e.limit.name()), e.to_string())
}

/// Maps a session error onto the wire taxonomy: resource rejections are
/// code 3, contained faults code 4, everything else a code-2 document
/// error.  The connection stays up in every case.
fn session_fault(e: SessionError) -> WireFault {
    match &e {
        SessionError::Resource(r) => resource_fault(r),
        SessionError::Poisoned { .. } => WireFault::new(4, "fault:poisoned", e.to_string()),
        _ => WireFault::new(2, "document", e.to_string()),
    }
}

/// Runs one request on the connection's session under its lock, attaching
/// the session first (creating it on first use).  A stopped session
/// answers the code-2 `session` fault and leaves the registry.
fn on_session<T>(
    shared: &Shared,
    name: &str,
    slot: &mut Option<Arc<SessionHandle>>,
    f: impl FnOnce(&mut CorpusSession<'static>) -> Result<T, WireFault>,
) -> Result<T, WireFault> {
    if slot.is_none() {
        *slot = find_session(shared, name, true)?;
    }
    let handle = slot.as_ref().expect("created on demand");
    handle.run(f).unwrap_or_else(|| {
        shared.forget(name, handle);
        let detail = "session stopped (evicted, drained or poisoned); reconnect";
        Err(WireFault::new(2, "session", detail))
    })
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
        (shared.config.state_dir.as_ref()).is_some_and(|dir| log_path(dir, name).exists());
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
    let handle = Arc::new(SessionHandle::open(shared, name)?);
    let mut sessions = shared.sessions.write().unwrap();
    // Another name may have taken the last slot, or shutdown begun, while
    // this one recovered: the new session is dropped again.
    if let Some(fault) = refusal(sessions.len()) {
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
    // A session found stopped (a drain won the race for its lock) is
    // forgotten — after the drain finishes — and looked up again, so the
    // hello recovers the flushed log and never attaches a drained handle.
    let mut session = None;
    let mut attach = || loop {
        session = find_session(shared, &session_name, false)?;
        let Some(handle) = &session else {
            return Ok(0);
        };
        match handle.run(|s| s.last_seq()) {
            Some(last_seq) => return Ok(last_seq),
            None => shared.forget(&session_name, handle),
        }
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
    let answer = |conn: &mut Link, result: Result<Response, WireFault>| {
        respond(conn, &result.unwrap_or_else(Response::Error))
    };
    match req {
        Request::Hello { .. } => {
            let fault = WireFault::new(2, "protocol", "unexpected second hello");
            respond(conn, &Response::Error(fault))
        }
        Request::OpenDoc { label, source } => {
            let opened = on_session(shared, session_name, session, |s| {
                let handle = s.open_source(&label, &source).map_err(session_fault)?;
                Ok(Response::Opened {
                    handle: handle.raw(),
                })
            });
            answer(conn, opened)
        }
        Request::Apply { handle, ops } => {
            let applied = on_session(shared, session_name, session, |s| {
                s.apply(DocHandle::from_raw(handle), &ops)
                    .map_err(session_fault)?;
                Ok(Response::Applied {
                    queued_ops: s.queued_ops() as u64,
                })
            });
            answer(conn, applied)
        }
        Request::Commit => {
            let committed = on_session(shared, session_name, session, |s| {
                s.try_commit()
                    .map(Response::Delta)
                    .map_err(|e| resource_fault(&e))
            });
            answer(conn, committed)
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
            // A shard subscription sees only deltas tagged with its shard,
            // each projected down to the shard's constraints — monotone but
            // non-contiguous sequence numbers, which a shard-filtered
            // replica accepts by design.
            let exported = on_session(shared, session_name, session, |s| {
                let deltas = s
                    .export_deltas(after_seq)
                    .map_err(|e| WireFault::new(2, "journal", e.to_string()))?;
                Ok(match shard {
                    None => deltas.to_vec(),
                    Some(shard) => {
                        let plan = shared.spec.shard_plan();
                        deltas
                            .iter()
                            .filter_map(|d| d.project(plan, shard))
                            .collect::<Vec<BatchDelta>>()
                    }
                })
            });
            match exported {
                Ok(deltas) => {
                    if shard.is_some() {
                        shared.instr.shard_syncs.inc();
                    }
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
            let closed = on_session(shared, session_name, session, |s| {
                let handle = DocHandle::from_raw(handle);
                let label = s.label(handle).map_err(session_fault)?.to_owned();
                s.close(handle).map_err(session_fault)?;
                Ok(Response::Closed { label })
            });
            answer(conn, closed)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, ClientError};
    use std::sync::mpsc::channel;
    use xic_xml::{EditOp, NodeId};

    const SOURCE: &str = "<school><teacher name=\"Joe\"/></school>";

    /// A server on a fresh state directory, with a worker for every
    /// connection a test holds open.
    fn start(tag: &str, idle_timeout: Option<Duration>) -> Server {
        let state_dir =
            std::env::temp_dir().join(format!("xic-server-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&state_dir).ok();
        let config = ServerConfig {
            tcp: Some("127.0.0.1:0".parse().unwrap()),
            state_dir: Some(state_dir),
            idle_timeout,
            workers: 5,
            registry: Some(Arc::new(MetricsRegistry::new())),
            ..ServerConfig::default()
        };
        let spec = CompiledSpec::from_sources(
            "<!ELEMENT school (teacher*)>\n<!ELEMENT teacher EMPTY>\n\
             <!ATTLIST teacher name CDATA #REQUIRED>",
            Some("school"),
            "teacher.name -> teacher",
        );
        Server::start(Arc::new(spec.unwrap()), config).unwrap()
    }

    fn stop(server: Server) -> ServerReport {
        let state_dir = server.shared.config.state_dir.clone().unwrap();
        let report = server.stop();
        std::fs::remove_dir_all(state_dir).ok();
        report
    }

    fn connect(server: &Server, session: &str) -> Client {
        let (addr, spec) = (server.tcp_addr().unwrap(), server.shared.spec.id());
        Client::connect_tcp(addr, spec, session).unwrap()
    }

    fn rename(server: &Server, value: &str) -> [EditOp; 1] {
        let attr = server.shared.spec.dtd().attr_by_name("name").unwrap();
        let value = value.into();
        [EditOp::SetAttr {
            element: NodeId(1),
            attr,
            value,
        }]
    }

    /// Opens a document on session `s` and acknowledges two commits.
    fn two_commits(server: &Server) -> (Client, u64, Vec<BatchDelta>) {
        let mut client = connect(server, "s");
        let doc = client.open_doc("a.xml", SOURCE).unwrap();
        let first = client.commit().unwrap();
        client.apply(doc, &rename(server, "Ann")).unwrap();
        let acked = vec![first, client.commit().unwrap()];
        (client, doc, acked)
    }

    fn is_stopped(err: ClientError) -> bool {
        err.fault()
            .is_some_and(|f| (f.code, f.kind.as_str()) == (2, "session"))
    }

    /// A session whose request is running is never drained, even when its
    /// `last_used` is already past the idle timeout: the drain waits for
    /// the lock, and the re-check under it sees the completion.
    #[test]
    fn eviction_race_running_request_is_never_drained() {
        let server = start("running", None);
        let _client = two_commits(&server);
        let handle = Arc::clone(&server.shared.sessions.read().unwrap()["s"]);
        let idle = Duration::from_millis(10);
        let (started, finish) = (channel(), channel::<()>());
        let request = std::thread::spawn({
            let handle = Arc::clone(&handle);
            move || {
                handle.run(|s| {
                    started.0.send(()).unwrap();
                    finish.1.recv().unwrap();
                    s.last_seq()
                })
            }
        });
        started.1.recv().unwrap();
        let rewind = || *handle.last_used.lock().unwrap() = Instant::now() - idle * 100;
        rewind();
        let janitor = std::thread::spawn({
            let handle = Arc::clone(&handle);
            move || handle.drain(Some(idle))
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!janitor.is_finished(), "the drain waits for the request");
        finish.0.send(()).unwrap();
        assert_eq!(request.join().unwrap(), Some(2));
        assert_eq!(janitor.join().unwrap(), Drain::Busy);
        assert!(
            handle.idle_for() < idle * 100,
            "completion restarts the clock"
        );

        // Only idleness after the last completed request drains.
        rewind();
        assert_eq!(handle.drain(Some(idle)), Drain::Flushed(2));
        assert_eq!(handle.run(|s| s.last_seq()), None);
        stop(server);
    }

    /// A request whose connection attached the session before the janitor
    /// drained it answers the code-2 `session` fault — every time, never a
    /// panic or a hang — and a reconnect sees every acknowledged commit,
    /// recovered from the flushed log.
    #[test]
    fn eviction_race_losing_request_gets_a_session_fault() {
        let server = start("lose", None);
        let (mut client, doc, acked) = two_commits(&server);
        assert!(evict(&server.shared, "s", Duration::ZERO));
        assert!(is_stopped(
            client.apply(doc, &rename(&server, "Zoe")).unwrap_err()
        ));
        assert!(is_stopped(client.commit().unwrap_err()));

        let mut client = connect(&server, "s");
        assert_eq!(client.hello().last_seq, 2);
        assert_eq!(client.sync(0).unwrap(), acked);
        client.apply(doc, &rename(&server, "Zoe")).unwrap();
        assert_eq!(client.commit().unwrap().seq, 3);
        stop(server);
    }

    /// A hello that arrives while a drain runs waits for it and recovers
    /// the flushed state; it never attaches the drained handle.
    #[test]
    fn eviction_race_hello_during_drain_recovers_the_log() {
        let server = start("hello", None);
        let (_, _, acked) = two_commits(&server);

        // The janitor's steps, paused between the drain and the registry
        // update: the name's lock is held and the handle still registered.
        let shared = &server.shared;
        let name_lock = shared.lock_name("s");
        let handle = Arc::clone(&shared.sessions.read().unwrap()["s"]);
        assert_eq!(handle.drain(None), Drain::Flushed(2));
        let (addr, spec) = (server.tcp_addr().unwrap(), shared.spec.id());
        let hello = std::thread::spawn(move || Client::connect_tcp(addr, spec, "s"));
        std::thread::sleep(Duration::from_millis(100));
        assert!(!hello.is_finished(), "the hello waits for the drain");
        shared.sessions.write().unwrap().remove("s");
        drop(name_lock);

        let mut client = hello.join().unwrap().unwrap();
        assert_eq!(client.hello().last_seq, 2);
        assert_eq!(client.sync(0).unwrap(), acked);
        stop(server);
    }

    /// The janitor racing live traffic: a request either succeeds or
    /// answers the code-2 `session` fault, and every reconnect sees exactly
    /// the acknowledged commits.
    #[test]
    fn eviction_race_under_load_loses_no_acknowledged_commit() {
        let server = start("load", Some(Duration::from_millis(50)));
        let mut client = connect(&server, "s");
        let doc = client.open_doc("a.xml", SOURCE).unwrap();
        let mut acked = 0;
        for i in 0..40u64 {
            // Pauses of 30–130 ms straddle the 50 ms timeout and the
            // janitor's 50 ms tick.
            std::thread::sleep(Duration::from_millis(30 + (i * 7919) % 101));
            let edit = rename(&server, &format!("t{i}"));
            match client.apply(doc, &edit).and_then(|_| client.commit()) {
                Ok(delta) => {
                    acked += 1;
                    assert_eq!(delta.seq, acked);
                }
                Err(err) => {
                    assert!(is_stopped(err));
                    client = connect(&server, "s");
                    assert_eq!(client.hello().last_seq, acked);
                }
            }
        }
        assert!(server.shared.instr.evictions.get() > 0);
        let seqs: Vec<u64> = client.sync(0).unwrap().iter().map(|d| d.seq).collect();
        assert_eq!(seqs, (1..=acked).collect::<Vec<_>>());
        stop(server);
    }

    /// A request that panics outside the engine's containment poisons its
    /// session: every later request on it answers the code-2 `session`
    /// fault, the janitor and the shutdown drain skip it, and the other
    /// sessions keep serving.
    #[test]
    fn poisoned_session_answers_a_fault_and_others_keep_serving() {
        let server = start("poison", None);
        let mut clients: Vec<Client> = ["a", "b", "c", "d"]
            .map(|name| {
                let mut client = connect(&server, name);
                client.open_doc("a.xml", SOURCE).unwrap();
                client
            })
            .into();
        for name in ["a", "c", "d"] {
            let handle = Arc::clone(&server.shared.sessions.read().unwrap()[name]);
            let run = std::thread::spawn(move || handle.run(|_| panic!("a request panicked")));
            assert!(run.join().is_err());
        }

        assert!(is_stopped(clients[0].commit().unwrap_err()));
        assert!(is_stopped(clients[0].commit().unwrap_err()));
        assert_eq!(clients[1].commit().unwrap().seq, 1, "b keeps serving");
        assert!(evict(&server.shared, "c", Duration::ZERO));
        assert_eq!(connect(&server, "a").hello().last_seq, 0, "a starts over");
        assert_eq!(clients[1].commit().unwrap().seq, 2, "b keeps serving");
        drop(clients);
        assert_eq!(stop(server).drained_sessions, 1, "d is skipped");
    }
}
