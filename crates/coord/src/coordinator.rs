//! The coordinator: route edit batches to shard-group workers, fan out
//! commits, merge the projected verdicts (see crate docs for the model).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

use xic_constraints::{IncrementalLayout, ShardPlan};
use xic_engine::wire::{encode_request, read_response, write_response};
use xic_engine::{
    BatchDelta, BatchReport, CompiledSpec, DocHandle, Engine, ReportMerger, Request, Response,
};
use xic_server::{Client, ClientError};
use xic_telemetry::RegistrySnapshot;
use xic_xml::{EditEffect, EditOp, XmlTree};

use crate::worker::{spawn_worker, Worker, WorkerSpec};
use crate::CoordError;

/// How a [`Coordinator`] is launched: the spec files every worker compiles
/// (identity is the content hash, so coordinator and children agree on the
/// wire `SpecId` by construction), the process fan-out, and the
/// crash-restart budget.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// The `xic` binary to spawn shard workers from.
    pub xic_bin: PathBuf,
    /// The DTD file (passed to children verbatim).
    pub dtd: PathBuf,
    /// Root element override (`--root`).
    pub root: Option<String>,
    /// The constraint file; `None` means an empty Σ (one unscoped worker).
    pub constraints: Option<PathBuf>,
    /// Worker processes to spread the shard plan over (clamped to the
    /// number of shards; at least one process always runs).
    pub workers: usize,
    /// Scratch directory for the `--addr-file` handshake.
    pub scratch: PathBuf,
    /// The session name hosted on every worker.
    pub session: String,
    /// Per-worker crash-restart budget: a worker that fails more than this
    /// many times makes the coordinator reject (never a partial verdict).
    pub max_restarts: usize,
}

/// At most this many log entries are unanswered on one worker connection;
/// a commit rides after them.  Open, apply and close replies are small,
/// fixed-shape frames, so a full window of replies fits in the socket
/// buffers: the worker never blocks on a reply while the coordinator is
/// still writing, and neither side can wait on the other.
const MAX_IN_FLIGHT: usize = 256;

/// One routed request (an open, an apply or a close): its wire tag, where
/// its payload ends in the log's bytes, and what its reply must be.
struct Entry {
    tag: u8,
    end: usize,
    kind: Kind,
}

/// What an entry's reply must be; an open's must mint the given handle.
#[derive(Clone, Copy)]
enum Kind {
    Open(u64),
    Apply,
    Close,
}

/// The coordinator's own copy of one open document: the tree it routes
/// against (edits are applied here first, and their [`EditEffect`]s mapped
/// to dirty shards through the spec's incremental layout).
#[derive(Debug)]
struct MirrorDoc {
    tree: XmlTree,
    label: String,
}

/// Per-commit-round routing state, reset by [`Coordinator::commit`].
#[derive(Debug, Default)]
struct Round {
    /// An open happened: the round is broadcast (every group commits).
    broadcast: bool,
    /// Documents opened or edited since the last commit (minus closes) —
    /// the monolithic session's dirty set, for `rechecked_docs`.
    dirty_docs: BTreeSet<u64>,
    /// Shards each document's edits dirtied since the last commit — the
    /// tag a non-broadcast merged change carries.
    dirty_shards: BTreeMap<u64, Vec<u32>>,
    /// Groups that received an apply this round (they must commit).
    participants: BTreeSet<usize>,
}

/// Multi-process sharded validation with a single-session face: documents
/// open, edit batches apply, commits fan out to one `xic serve` child per
/// shard group and the projected per-shard deltas merge back into
/// [`BatchDelta`]s and reports identical to a monolithic
/// [`xic_engine::CorpusSession`] over the same traffic.
pub struct Coordinator {
    spec: CompiledSpec,
    worker_spec: WorkerSpec,
    max_restarts: usize,
    /// Shards per group; `groups.len()` == number of workers.
    groups: Vec<Vec<u32>>,
    workers: Vec<Worker>,
    /// The routing log: every open, apply and close, in order.  Each group
    /// receives it up to its `delivered` mark; it is also the resync source.
    log: Vec<Entry>,
    /// The log entries' payloads, back to back, each encoded once.
    log_bytes: Vec<u8>,
    docs: BTreeMap<u64, MirrorDoc>,
    merger: ReportMerger,
    round: Round,
    /// The merged deltas not yet decoded, as wire frames back to back.
    deltas: Vec<u8>,
    /// The merged delta stream decoded so far, in `seq` order.
    decoded: Vec<BatchDelta>,
    /// Monotonic spawn counter (unique address files across respawns).
    generation: usize,
}

impl Coordinator {
    /// Compiles the spec from the configured files, partitions its
    /// [`ShardPlan`] over `config.workers` groups (shard *s* goes to group
    /// `s % groups`), and spawns one scoped `xic serve` child per group.
    /// Group 0 is the *structural authority*: it receives every edit batch
    /// (structural `T ⊨ D` validation depends on attributes, so no batch
    /// may bypass it) and the merge takes structural errors and faults
    /// from its frames alone.
    pub fn launch(config: CoordConfig) -> Result<Coordinator, CoordError> {
        let read = |path: &PathBuf| {
            std::fs::read_to_string(path).map_err(|source| CoordError::Io {
                context: path.display().to_string(),
                source,
            })
        };
        let dtd_src = read(&config.dtd)?;
        let sigma_src = match &config.constraints {
            Some(path) => read(path)?,
            None => String::new(),
        };
        let spec = CompiledSpec::from_sources(&dtd_src, config.root.as_deref(), &sigma_src)
            .map_err(|e| CoordError::Spec(e.to_string()))?;

        // Shard workers are `xic serve` processes, and the server refuses
        // to host an inconsistent spec (every session would report
        // violations forever).  Check up front so the refusal is one clean
        // spec error instead of N identical worker-spawn failures.
        if Engine::new().consistency(&spec).decision() == Some(false) {
            return Err(CoordError::Spec(format!(
                "refusing to coordinate an inconsistent spec: {}",
                spec.id()
            )));
        }

        let num_shards = spec.shard_plan().num_shards();
        let group_count = config.workers.max(1).min(num_shards.max(1));
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); group_count];
        for shard in spec.shard_plan().all_shards() {
            groups[shard as usize % group_count].push(shard);
        }

        let worker_spec = WorkerSpec {
            xic_bin: config.xic_bin,
            dtd: config.dtd,
            root: config.root,
            constraints: config.constraints,
            scratch: config.scratch,
            session: config.session,
            spec_id: spec.id(),
        };

        // The workers start in parallel: each compiles the spec before it
        // listens.  On an error every started worker is dropped, and so
        // reaped.
        let spec_ref = &worker_spec;
        let workers = std::thread::scope(|scope| {
            let spawns: Vec<_> = groups
                .iter()
                .enumerate()
                .map(|(group, shards)| {
                    scope.spawn(move || spawn_worker(spec_ref, group, shards, group + 1))
                })
                .collect();
            spawns
                .into_iter()
                .map(|spawn| spawn.join().expect("a worker spawn thread panicked"))
                .collect::<Vec<_>>()
        });
        let workers = workers.into_iter().collect::<Result<Vec<_>, _>>()?;

        let merger = ReportMerger::new(Arc::clone(spec.shard_plan()));
        crate::register_baseline(xic_telemetry::global());
        Ok(Coordinator {
            spec,
            worker_spec,
            max_restarts: config.max_restarts,
            groups,
            workers,
            log: Vec::new(),
            log_bytes: Vec::new(),
            docs: BTreeMap::new(),
            merger,
            round: Round::default(),
            deltas: Vec::new(),
            decoded: Vec::new(),
            generation: group_count,
        })
    }

    /// The compiled spec the coordinator routes against.
    pub fn spec(&self) -> &CompiledSpec {
        &self.spec
    }

    /// Number of shard-group workers.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The shards group `group` owns.
    pub fn group_shards(&self, group: usize) -> &[u32] {
        &self.groups[group]
    }

    /// Opens a document: group 0 is caught up on the log and opens it at
    /// once, minting the corpus-wide handle it returns; the other groups
    /// open it from the log at the next commit, which is broadcast (a new
    /// document is checked against every shard) and checks that each of
    /// them minted the same handle.
    pub fn open_doc(&mut self, label: &str, source: &str) -> Result<u64, CoordError> {
        let tree = self
            .spec
            .parse_document(source)
            .map_err(|e| CoordError::Document(format!("open `{label}`: {e}")))?;

        // Group 0 takes the log in order: every earlier entry first, then
        // this open, at once.
        self.wave(&[0], false)?;
        let handle = self.call_worker(0, |client| client.open_doc(label, source))?;
        self.push(
            Kind::Open(handle),
            &Request::OpenDoc {
                label: label.to_owned(),
                source: source.to_owned(),
            },
        );
        self.workers[0].delivered = self.log.len();

        self.docs.insert(
            handle,
            MirrorDoc {
                tree,
                label: label.to_owned(),
            },
        );
        self.merger.open(DocHandle::from_raw(handle), label);
        self.round.broadcast = true;
        self.round.dirty_docs.insert(handle);
        Ok(handle)
    }

    /// Applies an edit batch, with no I/O: the ops run on the
    /// coordinator's mirror tree, their effects map to dirty shards through
    /// the incremental layout (exactly the marks each worker's index will
    /// make), and the batch is appended to the routing log.  The groups
    /// owning those shards, plus the structural authority, take part in
    /// the next commit; the others receive the batch at their next one.
    /// Only the mirror's rejection surfaces here; a worker's surfaces at
    /// [`Coordinator::commit`].
    pub fn apply(&mut self, handle: u64, ops: &[EditOp]) -> Result<(), CoordError> {
        let layout = Arc::clone(self.spec.incremental_layout());
        let plan = Arc::clone(self.spec.shard_plan());
        let doc = self.docs.get_mut(&handle).ok_or_else(|| {
            CoordError::Document(format!("apply: no open document with handle {handle}"))
        })?;

        let mut batch_shards: BTreeSet<u32> = BTreeSet::new();
        let mut failed: Option<(usize, String)> = None;
        let mut applied = 0;
        for (index, op) in ops.iter().enumerate() {
            match doc.tree.apply_edit(op) {
                Ok(effect) => {
                    shards_of_effect(&layout, &plan, &effect, &mut batch_shards);
                    applied = index + 1;
                }
                Err(e) => {
                    // Mirror the monolithic session: the prefix before the
                    // failing op stays applied, the rest is dropped.
                    failed = Some((index, e.to_string()));
                    break;
                }
            }
        }
        let delivered_ops = &ops[..applied];

        // The monolithic session marks the document dirty before applying
        // the batch, so even a fully rejected batch triggers a recheck —
        // the (possibly empty) applied prefix is delivered the same way.
        self.round.dirty_docs.insert(handle);
        self.round
            .dirty_shards
            .entry(handle)
            .or_default()
            .extend(batch_shards.iter().copied());

        let groups = self.groups.len();
        self.round.participants.insert(0);
        self.round
            .participants
            .extend(batch_shards.iter().map(|&s| s as usize % groups));
        self.push(
            Kind::Apply,
            &Request::Apply {
                handle,
                ops: delivered_ops.to_vec(),
            },
        );

        match failed {
            Some((index, message)) => Err(CoordError::Document(format!(
                "apply to handle {handle}: op {index} rejected: {message}"
            ))),
            None => Ok(()),
        }
    }

    /// Closes a document, with no I/O: the close is appended to the
    /// routing log (every group receives it at its next wave) and the
    /// mirror's label is returned; the close is announced by the next
    /// merged delta, and a worker's error surfaces at
    /// [`Coordinator::commit`].
    pub fn close_doc(&mut self, handle: u64) -> Result<String, CoordError> {
        let doc = self.docs.remove(&handle).ok_or_else(|| {
            CoordError::Document(format!("close: no open document with handle {handle}"))
        })?;
        self.push(Kind::Close, &Request::CloseDoc { handle });
        self.merger.close(DocHandle::from_raw(handle));
        self.round.dirty_docs.remove(&handle);
        self.round.dirty_shards.remove(&handle);
        Ok(doc.label)
    }

    /// Commits the round in one wave: every participating group's worker
    /// gets its undelivered log entries and the commit in one write, all
    /// before any reply is read, so the workers validate in parallel.
    /// Their projected [`xic_engine::DocChange`] frames are absorbed, and
    /// the merged [`BatchDelta`] — equal to what one monolithic session
    /// would have announced — is minted and recorded.
    ///
    /// Participants are the groups whose shards the round's edits dirtied
    /// plus the structural authority; a round containing an open is
    /// broadcast (a new document is checked against every shard).  A
    /// worker whose transport dies is restarted, replayed from the routing
    /// log and sent the rest of its wave; with its restart budget
    /// exhausted the commit is rejected — never partially merged.  Worker
    /// faults from this round's applies and closes surface here: the
    /// deltas that did arrive are absorbed, the first error is returned,
    /// and the round stays open for the next commit to mint.
    pub fn commit(&mut self) -> Result<BatchDelta, CoordError> {
        let participants: Vec<usize> = if self.round.broadcast {
            (0..self.groups.len()).collect()
        } else {
            self.round.participants.iter().copied().collect()
        };
        self.wave(&participants, true)?;

        let round = std::mem::take(&mut self.round);
        let merged = Response::Delta(
            self.merger
                .commit(round.dirty_docs.len(), &round.dirty_shards),
        );
        write_response(&mut self.deltas, 0, &merged).expect("writing to memory cannot fail");
        let Response::Delta(merged) = merged else {
            unreachable!("built as a delta")
        };
        Ok(merged)
    }

    /// The merged corpus report — shaped exactly like the monolithic
    /// [`xic_engine::CorpusSession::report`].
    pub fn report(&self) -> BatchReport {
        self.merger.report()
    }

    /// The merged delta stream so far, in `seq` order (replayable through
    /// a stock [`xic_engine::CorpusReplica`]).  The stream is kept in its
    /// wire encoding until this decodes it.
    pub fn deltas(&mut self) -> &[BatchDelta] {
        let mut frames = &self.deltas[..];
        while !frames.is_empty() {
            let Ok(Some((_, Response::Delta(delta)))) = read_response(&mut frames) else {
                unreachable!("the coordinator encoded every merged delta itself")
            };
            self.decoded.push(delta);
        }
        self.deltas.clear();
        &self.decoded
    }

    /// The last merged sequence number.
    pub fn last_seq(&self) -> u64 {
        self.merger.last_seq()
    }

    /// Open documents.
    pub fn num_docs(&self) -> usize {
        self.merger.num_docs()
    }

    /// Snapshots one worker's metrics registry (the bench reads each
    /// worker's `incremental.constraints_rechecked` from here).
    pub fn worker_stats(&mut self, group: usize) -> Result<RegistrySnapshot, CoordError> {
        self.call_worker(group, Client::stats)
    }

    /// How many times worker `group` has been restarted.
    pub fn worker_restarts(&self, group: usize) -> usize {
        self.workers[group].restarts
    }

    /// Crash-injection hook for the chaos tests: kills worker `group`'s
    /// process outright, without telling the coordinator.  The next call
    /// that needs the worker finds a dead connection and runs the
    /// restart-and-resync path.
    pub fn kill_worker(&mut self, group: usize) {
        self.workers[group].kill();
    }

    /// Gracefully shuts every worker down (wire shutdown, then reap).
    pub fn shutdown(mut self) {
        for worker in &mut self.workers {
            let _ = worker.client.shutdown();
            worker.kill();
        }
    }

    // ------------------------------------------------------------------
    // The routing log, waves, supervision, resync
    // ------------------------------------------------------------------

    /// Appends one request to the routing log, encoded once.
    fn push(&mut self, kind: Kind, request: &Request) {
        let (tag, payload) = encode_request(request);
        self.log_bytes.extend_from_slice(&payload);
        let end = self.log_bytes.len();
        self.log.push(Entry { tag, end, kind });
        xic_telemetry::global()
            .gauge("coord.log_bytes")
            .set(end as i64);
    }

    /// One wave: each group in `groups` is written its undelivered log
    /// entries, plus the commit when `commit`, in one write — every group
    /// before any reply is read.  Then each group's replies are read in
    /// order.  Every group's wave is finished, so every connection stays
    /// in step, before the first error is returned.
    fn wave(&mut self, groups: &[usize], commit: bool) -> Result<(), CoordError> {
        count("coord.waves", 1);
        let sent: Vec<_> = groups
            .iter()
            .map(|&group| self.send_window(group, commit))
            .collect();
        let mut first = None;
        for (&group, sent) in groups.iter().zip(sent) {
            if let Err(e) = self.finish_wave(group, commit, sent) {
                first.get_or_insert(e);
            }
        }
        first.map_or(Ok(()), Err)
    }

    /// Writes `group`'s next window: up to [`MAX_IN_FLIGHT`] undelivered
    /// entries, and the commit once they reach the end of the log.
    /// Returns the window's end.
    fn send_window(&mut self, group: usize, commit: bool) -> Result<usize, ClientError> {
        let worker = &mut self.workers[group];
        let end = self.log.len().min(worker.delivered + MAX_IN_FLIGHT);
        let commit = commit && end == self.log.len();
        let window = worker.delivered..end;
        write_window(
            &mut worker.client,
            &self.log,
            &self.log_bytes,
            window,
            commit,
        )?;
        Ok(end)
    }

    /// Reads `group`'s replies and sends the rest of its wave, window by
    /// window.  A transport failure restarts the worker (replaying what
    /// it had answered) and re-sends the rest.  Faults and protocol
    /// surprises do not stop the reading; the first one is returned.
    fn finish_wave(
        &mut self,
        group: usize,
        commit: bool,
        mut sent: Result<usize, ClientError>,
    ) -> Result<(), CoordError> {
        let mut fault = None;
        loop {
            match sent.and_then(|end| self.read_window(group, end, commit, &mut fault)) {
                Ok(end) if end == self.log.len() => return fault.map_or(Ok(()), Err),
                Ok(_) => {}
                Err(transport) => self.restart_worker(group, &transport.to_string())?,
            }
            sent = self.send_window(group, commit);
        }
    }

    /// Reads the replies to one window.  Each entry's reply advances the
    /// worker's `delivered` mark (a faulted entry counts as delivered);
    /// the commit's delta records a commit point and is absorbed.
    fn read_window(
        &mut self,
        group: usize,
        end: usize,
        commit: bool,
        fault: &mut Option<CoordError>,
    ) -> Result<usize, ClientError> {
        let worker = &mut self.workers[group];
        let commit = commit && end == self.log.len();
        for step in (worker.delivered..end)
            .map(Some)
            .chain(commit.then_some(None))
        {
            let checked = match worker.client.receive() {
                Ok(reply) => check_reply(step.map(|i| self.log[i].kind), reply)
                    .map_err(|detail| CoordError::Protocol(format!("worker {group}: {detail}"))),
                Err(ClientError::Fault(f)) => Err(CoordError::Fault(f)),
                Err(transport) => return Err(transport),
            };
            match checked {
                Ok(Some(delta)) => {
                    let point = u32::try_from(worker.delivered)
                        .expect("a routing log holds fewer than 2^32 entries");
                    worker.commits.push(point);
                    for change in &delta.changes {
                        self.merger.absorb(&self.groups[group], group == 0, change);
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    fault.get_or_insert(e);
                }
            }
            worker.delivered += usize::from(step.is_some());
        }
        Ok(end)
    }

    /// Runs one wire call against worker `group`, restarting and resyncing
    /// it on transport failure.  Structured server faults and protocol
    /// surprises are not crashes: they propagate (taxonomy intact) without
    /// burning restart budget.
    fn call_worker<T>(
        &mut self,
        group: usize,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, CoordError> {
        loop {
            match op(&mut self.workers[group].client) {
                Ok(value) => return Ok(value),
                Err(ClientError::Fault(fault)) => return Err(CoordError::Fault(fault)),
                Err(ClientError::Protocol(detail)) => {
                    return Err(CoordError::Protocol(format!("worker {group}: {detail}")))
                }
                Err(transport) => self.restart_worker(group, &transport.to_string())?,
            }
        }
    }

    /// Restarts a crashed worker and replays the log entries it had
    /// answered, with its commits at the same points, so its session
    /// state matches what the dead process held.
    fn restart_worker(&mut self, group: usize, cause: &str) -> Result<(), CoordError> {
        loop {
            let attempts = self.workers[group].restarts + 1;
            if attempts > self.max_restarts {
                return Err(CoordError::WorkerLost {
                    group,
                    attempts: self.workers[group].restarts,
                    cause: cause.to_string(),
                });
            }
            self.workers[group].restarts = attempts;
            count("coord.restarts", 1);
            self.workers[group].kill();
            self.generation += 1;
            let mut fresh = spawn_worker(
                &self.worker_spec,
                group,
                &self.groups[group],
                self.generation,
            )?;
            // `fresh` takes the dead process and its client, and reaps them.
            std::mem::swap(&mut self.workers[group].child, &mut fresh.child);
            std::mem::swap(&mut self.workers[group].client, &mut fresh.client);
            match self.replay(group) {
                Ok(()) => return Ok(()),
                // The respawned worker died during replay too: another
                // crash, another unit of restart budget.
                Err(ReplayFailure::Transport) => continue,
                Err(ReplayFailure::Diverged(detail)) => {
                    return Err(CoordError::Protocol(format!(
                        "worker {group} resync diverged: {detail}"
                    )))
                }
            }
        }
    }

    /// Replays `log[..delivered]` onto a respawned worker: the stored
    /// bytes, in windows, with a commit at each recorded point.  Every
    /// request was answered once before, so a fault or a different reply
    /// now means the replay diverged.  The replayed commits' deltas were
    /// merged when first acknowledged, and are dropped.
    fn replay(&mut self, group: usize) -> Result<(), ReplayFailure> {
        let worker = &mut self.workers[group];
        count("coord.replayed_entries", worker.delivered as u64);
        let points = worker.commits.iter().map(|&point| (point as usize, true));
        let mut start = 0;
        for (end, commit) in points.chain(std::iter::once((worker.delivered, false))) {
            loop {
                let stop = end.min(start + MAX_IN_FLIGHT);
                let commit = commit && stop == end;
                write_window(
                    &mut worker.client,
                    &self.log,
                    &self.log_bytes,
                    start..stop,
                    commit,
                )
                .map_err(|_| ReplayFailure::Transport)?;
                for step in (start..stop).map(Some).chain(commit.then_some(None)) {
                    let kind = step.map(|i| self.log[i].kind);
                    match worker.client.receive() {
                        Ok(reply) => {
                            check_reply(kind, reply).map_err(ReplayFailure::Diverged)?;
                        }
                        Err(ClientError::Fault(fault)) => {
                            let what = step.map_or("commit".to_string(), |i| format!("entry {i}"));
                            return Err(ReplayFailure::Diverged(format!(
                                "{what} re-faulted: {fault}"
                            )));
                        }
                        Err(_) => return Err(ReplayFailure::Transport),
                    }
                }
                start = stop;
                if start == end {
                    break;
                }
            }
        }
        Ok(())
    }
}

/// Why a replay against a freshly respawned worker failed.
enum ReplayFailure {
    /// The transport died again — another crash.
    Transport,
    /// The worker answered, but differently from the original run: the
    /// resync cannot be trusted, so the coordinator rejects.
    Diverged(String),
}

/// Adds `n` to the global `coord.*` counter `name`.
fn count(name: &str, n: u64) {
    xic_telemetry::global().counter(name).add(n);
}

/// Frames log entries `window`, then a commit when `commit`, and sends
/// them in one write.
fn write_window(
    client: &mut Client,
    log: &[Entry],
    bytes: &[u8],
    window: Range<usize>,
    commit: bool,
) -> Result<(), ClientError> {
    count(
        "coord.frames_sent",
        (window.len() + usize::from(commit)) as u64,
    );
    let mut frames = Vec::new();
    let mut start = window.start.checked_sub(1).map_or(0, |i| log[i].end);
    for entry in &log[window] {
        client.frame(&mut frames, entry.tag, &bytes[start..entry.end]);
        start = entry.end;
    }
    if commit {
        let (tag, payload) = encode_request(&Request::Commit);
        client.frame(&mut frames, tag, &payload);
    }
    client.send(&frames)
}

/// Checks one reply against what it answers: an entry of `kind`, or the
/// commit (`None`), whose delta is returned.
fn check_reply(kind: Option<Kind>, reply: Response) -> Result<Option<BatchDelta>, String> {
    match (kind, reply) {
        (Some(Kind::Open(expected)), Response::Opened { handle }) if handle != expected => Err(
            format!("minted handle {handle} for an open every other worker minted {expected} for"),
        ),
        (Some(Kind::Open(_)), Response::Opened { .. })
        | (Some(Kind::Apply), Response::Applied { .. })
        | (Some(Kind::Close), Response::Closed { .. }) => Ok(None),
        (None, Response::Delta(delta)) => Ok(Some(delta)),
        (_, other) => Err(format!("unexpected response {other:?}")),
    }
}

/// Maps one applied edit's effect to the shards it dirties — exactly the
/// marks [`xic_constraints::IncrementalIndex::apply`] makes: an attribute
/// write that displaces an identical value is a no-op, element insertion
/// and removal dirty by type, text is invisible.
fn shards_of_effect(
    layout: &IncrementalLayout,
    plan: &ShardPlan,
    effect: &EditEffect,
    out: &mut BTreeSet<u32>,
) {
    match effect {
        EditEffect::AttrSet {
            ty, attr, old, new, ..
        } => {
            if *old == Some(*new) {
                return;
            }
            for &check in layout.checks_touched_by_attr(*ty, *attr) {
                out.insert(plan.shard_of_check(check));
            }
        }
        EditEffect::ElementAdded { ty, .. } => {
            for &check in layout.checks_touched_by_ty(*ty) {
                out.insert(plan.shard_of_check(check));
            }
        }
        EditEffect::TextAdded { .. } => {}
        EditEffect::SubtreeRemoved { elements, .. } => {
            for &(_, ty) in elements {
                for &check in layout.checks_touched_by_ty(ty) {
                    out.insert(plan.shard_of_check(check));
                }
            }
        }
    }
}
