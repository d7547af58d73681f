//! Chaos suite: shard workers are killed at the nastiest moments — between
//! routed applies and the commit, mid-round on the structural authority,
//! repeatedly — and the coordinator must either *recover* (respawn the
//! worker, replay it from the routing log, re-ask, and produce a merged verdict
//! byte-identical to the monolithic oracle's) or *reject* (restart budget
//! exhausted → [`CoordError::WorkerLost`], exit code 4) — never
//! acknowledge a wrong or partial verdict.

use std::path::{Path, PathBuf};

use xic_coord::{CoordConfig, CoordError, Coordinator};
use xic_engine::{CompiledSpec, CorpusReplica, CorpusSession};
use xic_telemetry::global;
use xic_xml::EditOp;

/// Two independent unary keys on unrelated element types: the touch graph
/// splits them into two shards, so a two-worker coordinator gives each
/// worker one shard (group 0 doubling as the structural authority).
const DTD: &str = "<!ELEMENT r (a*, b*)>\n\
                   <!ELEMENT a EMPTY>\n\
                   <!ATTLIST a id CDATA #REQUIRED>\n\
                   <!ELEMENT b EMPTY>\n\
                   <!ATTLIST b id CDATA #REQUIRED>\n";
const SIGMA: &str = "a[id] -> a\nb[id] -> b\n";
const DOC: &str = "<r><a id=\"a1\"/><a id=\"a2\"/><b id=\"b1\"/><b id=\"b2\"/></r>";

fn xic_bin() -> PathBuf {
    if let Ok(path) = std::env::var("XIC_BIN") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("test executable path");
    for dir in exe.ancestors().skip(1) {
        let candidate = dir.join(format!("xic{}", std::env::consts::EXE_SUFFIX));
        if candidate.is_file() {
            return candidate;
        }
    }
    panic!("cannot locate the `xic` binary; build `xic-cli` or set XIC_BIN");
}

fn launch(scratch: &Path, max_restarts: usize) -> Coordinator {
    try_launch(scratch, max_restarts).expect("coordinator launches")
}

fn try_launch(scratch: &Path, max_restarts: usize) -> Result<Coordinator, CoordError> {
    std::fs::create_dir_all(scratch).expect("scratch dir");
    let dtd_path = scratch.join("spec.dtd");
    let sigma_path = scratch.join("spec.sigma");
    std::fs::write(&dtd_path, DTD).expect("write dtd");
    std::fs::write(&sigma_path, SIGMA).expect("write sigma");
    Coordinator::launch(CoordConfig {
        xic_bin: xic_bin(),
        dtd: dtd_path,
        root: Some("r".to_string()),
        constraints: Some(sigma_path),
        workers: 2,
        scratch: scratch.to_path_buf(),
        session: "chaos".to_string(),
        max_restarts,
    })
}

/// The worker sockets in `scratch` (address files where there are no
/// Unix sockets).
fn sockets(scratch: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(scratch)
        .expect("scratch dir lists")
        .map(|entry| entry.expect("scratch entry").path())
        .filter(|path| {
            path.file_name()
                .is_some_and(|name| name.to_string_lossy().starts_with("coord-worker-"))
        })
        .collect()
}

fn spec() -> CompiledSpec {
    CompiledSpec::from_sources(DTD, Some("r"), SIGMA).expect("spec compiles")
}

/// `SetAttr` ops that drive `a[id]` (shard of one group) and `b[id]` (the
/// other) in and out of collision, as `(a_ops, b_ops)` batches per round.
fn edit_rounds(spec: &CompiledSpec) -> Vec<Vec<EditOp>> {
    let tree = spec.parse_document(DOC).expect("doc parses");
    let elems: Vec<_> = tree.elements().collect();
    let mut a_nodes = Vec::new();
    let mut b_nodes = Vec::new();
    for &node in &elems {
        let ty = tree.element_type(node).unwrap();
        match spec.dtd().type_name(ty) {
            "a" => a_nodes.push(node),
            "b" => b_nodes.push(node),
            _ => {}
        }
    }
    let attr_of = |node| spec.dtd().attrs_of(tree.element_type(node).unwrap())[0];
    let set = |node, value: &str| EditOp::SetAttr {
        element: node,
        attr: attr_of(node),
        value: value.to_string(),
    };
    vec![
        // Round 1: collide the `a` key only (routes to one group + authority).
        vec![set(a_nodes[1], "a1")],
        // Round 2: collide `b`, clear `a` (routes everywhere).
        vec![set(b_nodes[1], "b1"), set(a_nodes[1], "a9")],
        // Round 3: clear `b` (back to clean).
        vec![set(b_nodes[1], "b9")],
    ]
}

/// Runs the scripted rounds against a monolithic oracle, returning the
/// delta stream and final report to hold the chaos runs to.
fn oracle_run(spec: &CompiledSpec) -> (Vec<xic_engine::BatchDelta>, xic_engine::BatchReport) {
    let mut session = CorpusSession::new(spec);
    let handle = session.open_source("doc", DOC).expect("oracle opens");
    let mut deltas = vec![session.commit()];
    for ops in edit_rounds(spec) {
        session.apply(handle, &ops).expect("oracle applies");
        deltas.push(session.commit());
    }
    (deltas, session.report())
}

/// Kill one worker before each commit (rotating through the groups, so
/// both the structural authority and a plain shard worker die mid-round):
/// every merged delta must still equal the monolithic oracle's, and the
/// restarted workers must have been replayed from the routing log.
#[test]
fn killed_workers_recover_and_agree() {
    let spec = spec();
    let (oracle_deltas, oracle_report) = oracle_run(&spec);

    let scratch = std::env::temp_dir().join(format!("xic-coord-chaos-{}", std::process::id()));
    let mut coordinator = launch(&scratch, 4);
    assert_eq!(coordinator.num_groups(), 2, "two shards over two workers");

    let handle = coordinator.open_doc("doc", DOC).expect("coord opens");
    assert_eq!(coordinator.commit().expect("open commit"), oracle_deltas[0]);

    for (round, ops) in edit_rounds(&spec).into_iter().enumerate() {
        // The apply is routed first; the kill lands between routing and
        // commit, so the commit call itself finds the dead worker.
        coordinator.apply(handle, &ops).expect("coord applies");
        let victim = round % coordinator.num_groups();
        coordinator.kill_worker(victim);
        let merged = coordinator.commit().expect("commit recovers");
        assert_eq!(
            merged,
            oracle_deltas[round + 1],
            "round {round}: merged delta diverged after killing worker {victim}"
        );
    }

    assert_eq!(
        coordinator.report(),
        oracle_report,
        "post-chaos report diverged"
    );
    assert!(
        coordinator.worker_restarts(0) >= 1,
        "the killed authority was never restarted"
    );
    assert!(
        coordinator.worker_restarts(1) >= 1,
        "the killed shard worker was never restarted"
    );

    // The merged stream is still a pristine journal: a stock replica
    // replays it to the oracle's report.
    let mut replica = CorpusReplica::new(spec.id());
    for delta in coordinator.deltas() {
        replica
            .apply_delta(delta)
            .expect("replica accepts merged deltas");
    }
    assert_eq!(replica.report(), oracle_report);

    // Every kill removed its socket: only the live workers' remain.
    assert_eq!(
        sockets(&scratch).len(),
        coordinator.num_groups(),
        "sockets of dead generations left behind: {:?}",
        sockets(&scratch)
    );

    coordinator.shutdown();
    assert_eq!(sockets(&scratch), Vec::<PathBuf>::new());
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A scratch directory nested too deep for a Unix socket address fails
/// the launch at once, naming the socket path, instead of waiting out the
/// spawn timeout on a worker that can never bind.
#[cfg(unix)]
#[test]
fn a_socket_path_too_long_fails_the_launch_at_once() {
    use std::time::{Duration, Instant};

    let root = std::env::temp_dir().join(format!("xic-coord-deep-{}", std::process::id()));
    let scratch = root.join("d".repeat(120));
    let started = Instant::now();
    let Err(err) = try_launch(&scratch, 0) else {
        panic!("a socket path longer than a socket address must not launch");
    };
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "took {:?}",
        started.elapsed()
    );
    let CoordError::WorkerSpawn(message) = &err else {
        panic!("expected a worker-spawn error, got: {err}");
    };
    assert!(
        message.contains(&scratch.display().to_string()),
        "the error names no socket path: {message}"
    );
    assert_eq!(err.exit_code(), 2);
    let _ = std::fs::remove_dir_all(&root);
}

/// A worker killed *between* commits (idle) is just as recoverable: the
/// next commit's wave finds the dead transport and replays the worker
/// before anything is acknowledged.
#[test]
fn killed_idle_worker_recovers_on_next_delivery() {
    let spec = spec();
    let (oracle_deltas, oracle_report) = oracle_run(&spec);

    let scratch = std::env::temp_dir().join(format!("xic-coord-idle-{}", std::process::id()));
    let mut coordinator = launch(&scratch, 2);
    let handle = coordinator.open_doc("doc", DOC).expect("coord opens");
    assert_eq!(coordinator.commit().expect("open commit"), oracle_deltas[0]);

    // Kill while idle; the next commit (round 1 routes to the authority
    // plus one shard group) walks into the corpse.
    coordinator.kill_worker(0);
    for (round, ops) in edit_rounds(&spec).into_iter().enumerate() {
        coordinator.apply(handle, &ops).expect("coord applies");
        let merged = coordinator.commit().expect("commit recovers");
        assert_eq!(merged, oracle_deltas[round + 1], "round {round} diverged");
    }
    assert_eq!(coordinator.report(), oracle_report);
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Restart budget zero: the first crash is fatal.  The coordinator answers
/// [`CoordError::WorkerLost`] (exit code 4 — the contained-fault lane of
/// the CLI taxonomy), acknowledges nothing for the doomed round, and the
/// previously acknowledged merged stream stays valid.
#[test]
fn exhausted_restart_budget_rejects_instead_of_guessing() {
    let spec = spec();
    let (oracle_deltas, _) = oracle_run(&spec);

    let scratch = std::env::temp_dir().join(format!("xic-coord-budget-{}", std::process::id()));
    let mut coordinator = launch(&scratch, 0);
    let handle = coordinator.open_doc("doc", DOC).expect("coord opens");
    let first = coordinator.commit().expect("open commit");
    assert_eq!(first, oracle_deltas[0]);
    let acknowledged = coordinator.deltas().to_vec();

    coordinator.kill_worker(1);
    let rounds = edit_rounds(&spec);
    // Round 2 routes to both groups, so the commit's wave cannot avoid
    // the dead worker; the apply does no I/O and cannot notice it.
    coordinator
        .apply(handle, &rounds[1])
        .expect("apply only routes");
    let err = coordinator
        .commit()
        .expect_err("a dead worker with no restart budget cannot yield a verdict");
    assert!(
        matches!(err, CoordError::WorkerLost { group: 1, .. }),
        "expected WorkerLost for group 1, got: {err}"
    );
    assert_eq!(
        err.exit_code(),
        4,
        "lost workers keep the contained-fault exit code"
    );

    // Nothing was acknowledged for the failed round, and what *was*
    // acknowledged is still a consistent, replayable prefix.
    assert_eq!(coordinator.deltas(), acknowledged.as_slice());
    let mut replica = CorpusReplica::new(spec.id());
    for delta in coordinator.deltas() {
        replica
            .apply_delta(delta)
            .expect("acknowledged prefix replays");
    }
    assert_eq!(replica.report(), coordinator.report());

    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}

/// `SetAttr` on the id of the `index`-th `name` element of [`DOC`].
fn setter(spec: &CompiledSpec) -> impl Fn(&str, usize, &str) -> EditOp + '_ {
    let tree = spec.parse_document(DOC).expect("doc parses");
    move |name, index, value| {
        let element = tree
            .elements()
            .filter(|&n| spec.dtd().type_name(tree.element_type(n).unwrap()) == name)
            .nth(index)
            .expect("DOC has the element");
        EditOp::SetAttr {
            element,
            attr: spec.dtd().attrs_of(tree.element_type(element).unwrap())[0],
            value: value.to_string(),
        }
    }
}

/// A worker that lagged for several rounds — no edit touched its shard,
/// so it received nothing after the open's commit — is killed.  The round
/// that finally routes to it restarts it, replays what it had answered
/// and sends it the whole backlog: every merged delta still equals the
/// oracle's, and the kill shows in `coord.restarts` and
/// `coord.replayed_entries`.
#[test]
fn killed_lagging_worker_replays_and_catches_up() {
    let spec = spec();
    let set = setter(&spec);
    let mut oracle = CorpusSession::new(&spec);
    let mono = oracle.open_source("doc", DOC).expect("oracle opens");

    let scratch = std::env::temp_dir().join(format!("xic-coord-lag-{}", std::process::id()));
    let mut coordinator = launch(&scratch, 2);
    let handle = coordinator.open_doc("doc", DOC).expect("coord opens");
    assert_eq!(coordinator.commit().expect("open commit"), oracle.commit());

    // Four rounds on `a` only: group 1 (the `b` shard) takes no part and
    // lags; the fifth round touches `b` and routes to it.
    let mut rounds: Vec<Vec<EditOp>> = ["a1", "a9", "a1", "a9"]
        .iter()
        .map(|value| vec![set("a", 1, value)])
        .collect();
    rounds.push(vec![set("b", 1, "b1")]);
    let restarts = global().counter("coord.restarts").get();
    let replayed = global().counter("coord.replayed_entries").get();
    for (round, ops) in rounds.iter().enumerate() {
        if round == 4 {
            coordinator.kill_worker(1);
        }
        coordinator.apply(handle, ops).expect("coord applies");
        oracle.apply(mono, ops).expect("oracle applies");
        let merged = coordinator.commit().expect("commit recovers");
        assert_eq!(merged, oracle.commit(), "round {round} diverged");
    }
    assert_eq!(coordinator.report(), oracle.report());
    assert_eq!(coordinator.worker_restarts(0), 0);
    assert_eq!(coordinator.worker_restarts(1), 1);
    assert!(global().counter("coord.restarts").get() > restarts);
    assert!(global().counter("coord.replayed_entries").get() > replayed);

    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Ten thousand single-op batches, then one commit: the wave sends the
/// worker its backlog in windows of at most 256 entries, reading each
/// window's replies before writing the next (so neither side can block
/// the other on full socket buffers), and the commit after the last.
#[test]
fn a_long_backlog_commits_in_bounded_windows() {
    let spec = spec();
    let set = setter(&spec);
    let mut oracle = CorpusSession::new(&spec);
    let mono = oracle.open_source("doc", DOC).expect("oracle opens");

    let scratch = std::env::temp_dir().join(format!("xic-coord-long-{}", std::process::id()));
    let mut coordinator = launch(&scratch, 1);
    let handle = coordinator.open_doc("doc", DOC).expect("coord opens");
    assert_eq!(coordinator.commit().expect("open commit"), oracle.commit());

    for i in 0..10_000 {
        let name = if i % 2 == 0 { "a" } else { "b" };
        let ops = [set(name, i % 2, &format!("{name}{}", i % 3))];
        coordinator.apply(handle, &ops).expect("coord applies");
        oracle.apply(mono, &ops).expect("oracle applies");
    }
    assert_eq!(coordinator.commit().expect("long commit"), oracle.commit());
    assert_eq!(coordinator.report(), oracle.report());

    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Workers start in parallel; one that cannot start fails the launch with
/// a code-2 error instead of a coordinator missing a shard group.
#[test]
fn a_worker_that_cannot_start_fails_the_launch() {
    let scratch = std::env::temp_dir().join(format!("xic-coord-nobin-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let dtd_path = scratch.join("spec.dtd");
    let sigma_path = scratch.join("spec.sigma");
    std::fs::write(&dtd_path, DTD).expect("write dtd");
    std::fs::write(&sigma_path, SIGMA).expect("write sigma");
    let Err(err) = Coordinator::launch(CoordConfig {
        xic_bin: scratch.join("no-such-xic"),
        dtd: dtd_path,
        root: Some("r".to_string()),
        constraints: Some(sigma_path),
        workers: 2,
        scratch: scratch.clone(),
        session: "nobin".to_string(),
        max_restarts: 0,
    }) else {
        panic!("a coordinator without workers must not launch");
    };
    assert!(matches!(err, CoordError::Io { .. }), "got: {err}");
    assert_eq!(err.exit_code(), 2);
    let _ = std::fs::remove_dir_all(&scratch);
}
