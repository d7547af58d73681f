//! Shard-worker child processes: spawn `xic serve` scoped to a shard
//! group, listening on a Unix socket in the scratch directory, and connect
//! a wire client to it once it answers.  Where there are no Unix sockets,
//! the worker listens on an ephemeral loopback port instead and announces
//! it through the `--addr-file` handshake.

#[cfg(not(unix))]
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use xic_engine::SpecId;
use xic_server::{Client, ClientError};

use crate::CoordError;

/// How long a freshly spawned `xic serve` gets to bind its listener and
/// answer the hello before the spawn is declared dead.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(20);

/// The longest path a Unix socket address holds: Linux's 108-byte
/// `sun_path`, less the terminating NUL.
#[cfg(unix)]
const MAX_SOCKET_PATH: usize = 107;

/// The inputs a (re)spawn needs; owned by the coordinator so a crashed
/// worker can be relaunched with the same spec arguments at any time.
#[derive(Debug, Clone)]
pub(crate) struct WorkerSpec {
    /// The `xic` binary to exec.
    pub xic_bin: PathBuf,
    /// `--dtd` file path handed to the child verbatim.
    pub dtd: PathBuf,
    /// `--root` override, when one was given.
    pub root: Option<String>,
    /// `--constraints` file path, when constraints exist.
    pub constraints: Option<PathBuf>,
    /// Scratch directory for the workers' sockets.
    pub scratch: PathBuf,
    /// The session name every worker hosts.
    pub session: String,
    /// The compiled spec's identity, asserted by the wire handshake.
    pub spec_id: SpecId,
}

/// One shard-group worker: the child process plus the connected client.
pub(crate) struct Worker {
    /// The child `xic serve` process.
    pub child: Child,
    /// The connected wire client.
    pub client: Client,
    /// The child's socket file (its address file where there are no Unix
    /// sockets).
    pub socket: PathBuf,
    /// How many times this worker has been restarted after a crash.
    pub restarts: usize,
    /// How many routing-log entries this worker has answered.
    pub delivered: usize,
    /// `delivered` at each of its commits, so a replay commits at the
    /// same points.
    pub commits: Vec<u32>,
}

impl Worker {
    /// Kills the child outright and removes its socket file — the
    /// crash-injection hook the chaos tests use, and the cleanup path on
    /// drop/teardown.  The server removes its socket only when it stops
    /// gracefully, so a killed one would leave the file behind.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.kill();
    }
}

fn io_err(context: &str, source: std::io::Error) -> CoordError {
    CoordError::Io {
        context: context.to_string(),
        source,
    }
}

/// Spawns one `xic serve` child scoped to `shards` and connects to it.
/// `generation` makes the socket path unique per (group, respawn), so a
/// stale file from a killed child can never be mistaken for the new one.
pub(crate) fn spawn_worker(
    spec: &WorkerSpec,
    group: usize,
    shards: &[u32],
    generation: usize,
) -> Result<Worker, CoordError> {
    std::fs::create_dir_all(&spec.scratch)
        .map_err(|e| io_err(&spec.scratch.display().to_string(), e))?;

    let mut command = Command::new(&spec.xic_bin);
    command
        .arg("serve")
        .arg("--dtd")
        .arg(&spec.dtd)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let socket = listen_on(&mut command, spec, group, generation)?;
    if let Some(root) = &spec.root {
        command.arg("--root").arg(root);
    }
    if let Some(constraints) = &spec.constraints {
        command.arg("--constraints").arg(constraints);
    }
    if !shards.is_empty() {
        let list = shards
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",");
        command.arg("--scope-shards").arg(list);
    }

    let mut child = command
        .spawn()
        .map_err(|e| io_err(&spec.xic_bin.display().to_string(), e))?;

    match connect(spec, &socket, &mut child) {
        Ok(client) => Ok(Worker {
            child,
            client,
            socket,
            restarts: 0,
            delivered: 0,
            commits: Vec::new(),
        }),
        Err(err) => {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&socket);
            Err(err)
        }
    }
}

/// Points the child at its socket, `coord-worker-{group}-gen{generation}.sock`
/// in the scratch directory, and returns the path.  A path too long for a
/// socket address fails here, before anything is spawned.
#[cfg(unix)]
fn listen_on(
    command: &mut Command,
    spec: &WorkerSpec,
    group: usize,
    generation: usize,
) -> Result<PathBuf, CoordError> {
    let socket = spec
        .scratch
        .join(format!("coord-worker-{group}-gen{generation}.sock"));
    let len = socket.as_os_str().len();
    if len > MAX_SOCKET_PATH {
        return Err(CoordError::WorkerSpawn(format!(
            "socket path {} is {len} bytes, longer than the {MAX_SOCKET_PATH} a Unix socket \
             address holds; use a shorter scratch directory",
            socket.display()
        )));
    }
    command.arg("--socket").arg(&socket);
    Ok(socket)
}

/// Without Unix sockets the child listens on an ephemeral loopback port
/// and writes it to `coord-worker-{group}-gen{generation}.addr`.
#[cfg(not(unix))]
fn listen_on(
    command: &mut Command,
    spec: &WorkerSpec,
    group: usize,
    generation: usize,
) -> Result<PathBuf, CoordError> {
    let addr_file = spec
        .scratch
        .join(format!("coord-worker-{group}-gen{generation}.addr"));
    let _ = std::fs::remove_file(&addr_file);
    command
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--addr-file")
        .arg(&addr_file);
    Ok(addr_file)
}

/// Dials the worker's socket and runs the hello handshake.
#[cfg(unix)]
fn dial(spec: &WorkerSpec, socket: &Path) -> Result<Client, ClientError> {
    Client::connect_unix(socket, spec.spec_id, &spec.session)
}

/// Reads the worker's address file and dials it.  The write is a single
/// small `fs::write`, so a partial read fails to parse and the poll
/// retries.
#[cfg(not(unix))]
fn dial(spec: &WorkerSpec, addr_file: &Path) -> Result<Client, ClientError> {
    let addr = std::fs::read_to_string(addr_file)?
        .trim()
        .parse::<SocketAddr>()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Client::connect_tcp(addr, spec.spec_id, &spec.session)
}

/// Polls until the freshly spawned worker answers the hello.  An I/O
/// error means it is not listening yet (it compiles the spec first); a
/// fault or a wrong answer is final, as is the child exiting or
/// [`SPAWN_TIMEOUT`] passing.
fn connect(spec: &WorkerSpec, socket: &Path, child: &mut Child) -> Result<Client, CoordError> {
    let start = Instant::now();
    loop {
        match dial(spec, socket) {
            Ok(client) => return Ok(client),
            Err(ClientError::Io(_)) => {}
            Err(err) => {
                return Err(CoordError::WorkerSpawn(format!(
                    "shard worker at {} refused the handshake: {err}",
                    socket.display()
                )))
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(CoordError::WorkerSpawn(format!(
                "shard worker exited during startup with {status}"
            )));
        }
        if start.elapsed() > SPAWN_TIMEOUT {
            return Err(CoordError::WorkerSpawn(format!(
                "shard worker at {} did not answer within {SPAWN_TIMEOUT:?}",
                socket.display()
            )));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}
