//! Session actors: one thread per named session, owning its
//! [`CorpusSession`] — fresh, or recovered from the session's corpus log
//! after a restart or an eviction — and fed over a bounded command channel.
//!
//! The actor is the concurrency boundary of the service: a
//! `CorpusSession` borrows its `CompiledSpec` and is single-threaded by
//! construction, so the thread closure takes an `Arc<CompiledSpec>` and
//! builds the session *inside* — every connection talks to it through
//! [`Cmd`] messages, and a slow commit on one session never blocks
//! another session's channel.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xic_engine::wire::WireFault;
use xic_engine::{
    BatchDelta, CompiledSpec, CorpusSession, DocHandle, JournalError, Limits, ResourceError,
    SessionError,
};
use xic_telemetry::{Histogram, MetricsRegistry};
use xic_xml::EditOp;

/// A command sent from a connection worker to a session actor.  Every
/// variant carries a rendezvous reply channel (`sync_channel(1)`), so a
/// worker holds at most one command in flight.
pub(crate) enum Cmd {
    /// Parse and open a document under a label.
    Open {
        label: String,
        source: String,
        reply: SyncSender<Result<u64, WireFault>>,
    },
    /// Apply an edit batch, all-or-nothing, answering the queued-op depth.
    Apply {
        handle: u64,
        ops: Vec<EditOp>,
        reply: SyncSender<Result<u64, WireFault>>,
    },
    /// Commit: re-check dirty documents, answer the new delta.
    Commit {
        reply: SyncSender<Result<BatchDelta, WireFault>>,
    },
    /// Export every retained delta above `after_seq`.
    Sync {
        after_seq: u64,
        reply: SyncSender<Result<Vec<BatchDelta>, WireFault>>,
    },
    /// Close one document, answering its label.
    Close {
        handle: u64,
        reply: SyncSender<Result<String, WireFault>>,
    },
    /// The session's last committed sequence number, for the hello ack.
    Meta { reply: SyncSender<u64> },
    /// Flush the corpus log (when a state dir is configured) and stop the
    /// actor, answering the number of commits made durable.
    Drain {
        reply: SyncSender<Result<u64, WireFault>>,
    },
}

/// The registry-side handle to a running actor.  Each command travels
/// with the instant it was enqueued, so the actor can record how long it
/// waited (`server.queue_ns`).
pub(crate) struct SessionHandle {
    tx: SyncSender<(Instant, Cmd)>,
    last_used: Mutex<Instant>,
    /// Worker requests currently between offer and reply.  The janitor
    /// must never drain a session a worker is mid-conversation with: at
    /// exactly `idle_timeout` of wall-clock idleness a request can already
    /// be in the channel, and eviction then would answer it with a dead
    /// reply channel.  Guarded by [`SessionHandle::begin_request`].
    in_flight: AtomicUsize,
    join: Mutex<Option<JoinHandle<()>>>,
}

/// RAII marker for one worker request against a session: holds the
/// in-flight count up across offer → reply, and re-bumps `last_used` on
/// drop so idleness is measured from request *completion*, not admission.
pub(crate) struct InFlight<'h> {
    handle: &'h SessionHandle,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        *self.handle.last_used.lock().unwrap() = Instant::now();
        self.handle.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Outcome of offering a command to a session's bounded channel.
pub(crate) enum Offer {
    /// The command was accepted.
    Sent,
    /// The channel is full — per-session backpressure (code 3 on the wire).
    Backpressure,
    /// The actor is gone (evicted or drained).
    Gone,
}

impl SessionHandle {
    /// Offers `cmd` without blocking; full channels surface as
    /// backpressure rather than head-of-line blocking across sessions.
    pub(crate) fn offer(&self, cmd: Cmd) -> Offer {
        *self.last_used.lock().unwrap() = Instant::now();
        match self.tx.try_send((Instant::now(), cmd)) {
            Ok(()) => Offer::Sent,
            Err(TrySendError::Full(_)) => Offer::Backpressure,
            Err(TrySendError::Disconnected(_)) => Offer::Gone,
        }
    }

    /// Seconds-scale idleness for the janitor's eviction scan.
    pub(crate) fn idle_for(&self) -> Duration {
        self.last_used.lock().unwrap().elapsed()
    }

    /// Marks the start of one worker request (bumping `last_used` so the
    /// janitor's idleness clock restarts *before* the command is offered).
    /// Hold the returned guard until the reply has been received.
    pub(crate) fn begin_request(&self) -> InFlight<'_> {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        *self.last_used.lock().unwrap() = Instant::now();
        InFlight { handle: self }
    }

    /// Whether the janitor may drain this session: idle past `idle` with
    /// no worker request in flight.  The in-flight check closes the
    /// boundary race where a session idle exactly `idle_timeout` has a
    /// request already admitted to its channel.
    pub(crate) fn evictable(&self, idle: Duration) -> bool {
        self.in_flight.load(Ordering::SeqCst) == 0 && self.idle_for() > idle
    }

    /// Asks the actor to drain (persist + stop) and joins its thread.
    /// Returns the number of commits persisted, or `None` when the actor
    /// was already gone or its log could not be written.
    pub(crate) fn drain(&self) -> Option<u64> {
        let (reply, rx) = sync_channel(1);
        let persisted = match self.tx.send((Instant::now(), Cmd::Drain { reply })) {
            Ok(()) => rx.recv().ok().and_then(|r| r.ok()),
            Err(_) => None,
        };
        if let Some(join) = self.join.lock().unwrap().take() {
            let _ = join.join();
        }
        persisted
    }
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

fn journal_fault(e: JournalError) -> WireFault {
    WireFault::new(2, "journal", e.to_string())
}

/// Where a session's corpus log lives in the state directory.
pub(crate) fn log_path(state_dir: &std::path::Path, name: &str) -> PathBuf {
    state_dir.join(format!("{name}.xicj"))
}

/// Spawns a session actor.  The thread owns the spec `Arc` and builds the
/// `CorpusSession` against it — recovering it from `<state_dir>/<name>.xicj`
/// when that log exists, so a restarted or evicted session comes back
/// editable — and `backlog` bounds the command channel.  Fails (and stops
/// the thread) when the log exists but does not recover.
pub(crate) fn spawn_live(
    name: String,
    spec: Arc<CompiledSpec>,
    limits: Limits,
    registry: Arc<MetricsRegistry>,
    backlog: usize,
    state_dir: Option<PathBuf>,
    scope: Option<Vec<u32>>,
) -> Result<SessionHandle, WireFault> {
    let (tx, rx) = sync_channel(backlog.max(1));
    let (ready_tx, ready_rx) = sync_channel(1);
    let join = std::thread::Builder::new()
        .name(format!("xic-session-{name}"))
        .spawn(move || {
            let log = state_dir.map(|dir| log_path(&dir, &name));
            let queue_ns = registry.histogram("server.queue_ns");
            let mut session = CorpusSession::with_registry_and_limits(&spec, limits, registry);
            if let Some(shards) = scope {
                // Validated against the plan at `Server::start`; scoping
                // before any document opens is guaranteed because the
                // session is brand new.
                session.scope_to_shards(&shards);
            }
            let recovered = match &log {
                Some(path) if path.exists() => session
                    .recover_from(path)
                    .map(|_| ())
                    .map_err(|e| WireFault::new(2, "journal", format!("{}: {e}", path.display()))),
                _ => Ok(()),
            };
            let ok = recovered.is_ok();
            let _ = ready_tx.send(recovered);
            if ok {
                run_live(session, rx, log.as_deref(), &queue_ns);
            }
        })
        .expect("spawn session actor");
    let ready = ready_rx.recv().unwrap_or_else(|_| {
        Err(WireFault::new(
            2,
            "session",
            "session actor stopped while starting",
        ))
    });
    if let Err(fault) = ready {
        let _ = join.join();
        return Err(fault);
    }
    Ok(SessionHandle {
        tx,
        last_used: Mutex::new(Instant::now()),
        in_flight: AtomicUsize::new(0),
        join: Mutex::new(Some(join)),
    })
}

fn run_live(
    mut session: CorpusSession<'_>,
    rx: Receiver<(Instant, Cmd)>,
    log: Option<&std::path::Path>,
    queue_ns: &Histogram,
) {
    while let Ok((enqueued, cmd)) = rx.recv() {
        queue_ns.record_elapsed(enqueued);
        match cmd {
            Cmd::Open {
                label,
                source,
                reply,
            } => {
                let result = session
                    .open_source(&label, &source)
                    .map(|h| h.raw())
                    .map_err(session_fault);
                let _ = reply.send(result);
            }
            Cmd::Apply { handle, ops, reply } => {
                let result = session
                    .apply(DocHandle::from_raw(handle), &ops)
                    .map(|()| session.queued_ops() as u64)
                    .map_err(session_fault);
                let _ = reply.send(result);
            }
            Cmd::Commit { reply } => {
                let result = session.try_commit().map_err(|e| resource_fault(&e));
                let _ = reply.send(result);
            }
            Cmd::Sync { after_seq, reply } => {
                let result = session
                    .export_deltas(after_seq)
                    .map(<[BatchDelta]>::to_vec)
                    .map_err(journal_fault);
                let _ = reply.send(result);
            }
            Cmd::Close { handle, reply } => {
                let handle = DocHandle::from_raw(handle);
                let result = session
                    .label(handle)
                    .map(str::to_owned)
                    .and_then(|label| session.close(handle).map(|_| label))
                    .map_err(session_fault);
                let _ = reply.send(result);
            }
            Cmd::Meta { reply } => {
                let _ = reply.send(session.last_seq());
            }
            Cmd::Drain { reply } => {
                // A drain is a flush: every document, edit, close and
                // commit the log lacks — acknowledged or merely queued for
                // the next commit — lands in it.
                let result = match log {
                    Some(path) => session
                        .persist_to(path)
                        .map(|receipt| receipt.commits_written as u64)
                        .map_err(session_fault),
                    None => Ok(0),
                };
                if let Err(fault) = &result {
                    eprintln!("xic-server: corpus log not flushed: {fault}");
                }
                let _ = reply.send(result);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_engine::CompiledSpec;

    fn live_handle() -> SessionHandle {
        let spec = Arc::new(
            CompiledSpec::from_sources(
                "<!ELEMENT school (teacher*)>\n\
                 <!ELEMENT teacher EMPTY>\n\
                 <!ATTLIST teacher name CDATA #REQUIRED>",
                Some("school"),
                "teacher.name -> teacher",
            )
            .unwrap(),
        );
        spawn_live(
            "t".into(),
            spec,
            Limits::UNLIMITED,
            Arc::new(MetricsRegistry::new()),
            4,
            None,
            None,
        )
        .expect("a session without a log always starts")
    }

    fn rewind_last_used(handle: &SessionHandle, by: Duration) {
        *handle.last_used.lock().unwrap() = Instant::now() - by;
    }

    /// The janitor/worker boundary race: a session idle exactly
    /// `idle_timeout` must not be drainable while a worker has a request
    /// between offer and reply.  `begin_request` closes the window, and
    /// dropping the guard restarts the idleness clock from completion.
    #[test]
    fn in_flight_requests_block_eviction_at_the_idle_boundary() {
        let handle = live_handle();
        let idle = Duration::from_millis(10);
        rewind_last_used(&handle, idle * 100);
        assert!(handle.evictable(idle), "genuinely idle sessions evict");

        // A worker starting a request closes the eviction window...
        let guard = handle.begin_request();
        assert!(!handle.evictable(idle));
        // ...even if the wall clock runs past the timeout mid-request.
        rewind_last_used(&handle, idle * 100);
        assert!(
            !handle.evictable(idle),
            "a session with a request in flight must never be drained"
        );

        // Completion restarts the idleness clock, so the session is not
        // instantly stale the moment the reply lands.
        drop(guard);
        assert!(!handle.evictable(idle));

        // Only genuine idleness after the last completed request evicts.
        rewind_last_used(&handle, idle * 100);
        assert!(handle.evictable(idle));
        let _ = handle.drain();
    }

    /// Overlapping workers: the session stays pinned until the *last*
    /// in-flight request completes.
    #[test]
    fn eviction_waits_for_every_overlapping_request() {
        let handle = live_handle();
        let idle = Duration::from_millis(10);
        let first = handle.begin_request();
        let second = handle.begin_request();
        rewind_last_used(&handle, idle * 100);
        drop(first);
        rewind_last_used(&handle, idle * 100);
        assert!(!handle.evictable(idle), "second request still in flight");
        drop(second);
        rewind_last_used(&handle, idle * 100);
        assert!(handle.evictable(idle));
        let _ = handle.drain();
    }
}
