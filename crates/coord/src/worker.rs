//! Shard-worker child processes: spawn `xic serve` scoped to a shard
//! group, discover its ephemeral port through the `--addr-file`
//! handshake, and connect a wire client to it.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use xic_engine::SpecId;
use xic_server::Client;

use crate::CoordError;

/// How long a freshly spawned `xic serve` gets to bind its listener and
/// write the address file before the spawn is declared dead.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(20);

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
    /// Scratch directory for address files.
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
    /// How many times this worker has been restarted after a crash.
    pub restarts: usize,
    /// How many routing-log entries this worker has answered.
    pub delivered: usize,
    /// `delivered` at each of its commits, so a replay commits at the
    /// same points.
    pub commits: Vec<u32>,
}

impl Worker {
    /// Kills the child outright — the crash-injection hook the chaos tests
    /// use, and the cleanup path on drop/teardown.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
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

/// Spawns one `xic serve` child scoped to `shards`, waits for the
/// `--addr-file` handshake, and connects.  `generation` makes the address
/// file unique per (group, respawn), so a stale file from a killed child
/// can never be mistaken for the new one.
pub(crate) fn spawn_worker(
    spec: &WorkerSpec,
    group: usize,
    shards: &[u32],
    generation: usize,
) -> Result<Worker, CoordError> {
    let addr_file = spec
        .scratch
        .join(format!("coord-worker-{group}-gen{generation}.addr"));
    let _ = std::fs::remove_file(&addr_file);
    std::fs::create_dir_all(&spec.scratch)
        .map_err(|e| io_err(&spec.scratch.display().to_string(), e))?;

    let mut command = Command::new(&spec.xic_bin);
    command
        .arg("serve")
        .arg("--dtd")
        .arg(&spec.dtd)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--addr-file")
        .arg(&addr_file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
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

    let addr = match await_addr(&addr_file, &mut child) {
        Ok(addr) => addr,
        Err(err) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(err);
        }
    };

    match connect(addr, spec) {
        Ok(client) => Ok(Worker {
            child,
            client,
            restarts: 0,
            delivered: 0,
            commits: Vec::new(),
        }),
        Err(err) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(err)
        }
    }
}

/// Polls the address file until the child has written a parseable socket
/// address (the write is a single small `fs::write`, so a partial read
/// fails to parse and the poll retries).
fn await_addr(addr_file: &Path, child: &mut Child) -> Result<SocketAddr, CoordError> {
    let start = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(addr_file) {
            if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                return Ok(addr);
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(CoordError::WorkerSpawn(format!(
                "shard worker exited during startup with {status}"
            )));
        }
        if start.elapsed() > SPAWN_TIMEOUT {
            return Err(CoordError::WorkerSpawn(format!(
                "shard worker wrote no address to {} within {SPAWN_TIMEOUT:?}",
                addr_file.display()
            )));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Connects to a freshly announced worker.  The server binds before it
/// writes the address file, so one attempt normally suffices; a short
/// retry loop absorbs scheduler hiccups on loaded machines.
fn connect(addr: SocketAddr, spec: &WorkerSpec) -> Result<Client, CoordError> {
    let start = Instant::now();
    loop {
        match Client::connect_tcp(addr, spec.spec_id, &spec.session) {
            Ok(client) => return Ok(client),
            Err(err) => {
                if start.elapsed() > SPAWN_TIMEOUT {
                    return Err(CoordError::WorkerSpawn(format!(
                        "cannot connect to shard worker at {addr}: {err}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}
