//! End-to-end suite for the validation service: concurrent clients editing
//! disjoint documents of one named session must see replica reports
//! byte-identical to a single-process `CorpusSession` oracle; a torn
//! connection must never apply half a batch; a session restarted or
//! evicted and recovered from its corpus log must go on exactly like an
//! oracle that never stopped; and resource rejections must arrive as
//! structured error records on a connection that stays usable.

use std::fs;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xml_integrity_constraints::dtd::Dtd;
use xml_integrity_constraints::engine::wire::{self, Request};
use xml_integrity_constraints::engine::{BatchDelta, CompiledSpec, DocHandle, Limits, SpecId};
use xml_integrity_constraints::server::{Client, Server, ServerConfig};
use xml_integrity_constraints::xml::{EditOp, NodeId, XmlTree};
use xml_integrity_constraints::{CorpusReplica, CorpusSession};

fn spec() -> Arc<CompiledSpec> {
    Arc::new(
        CompiledSpec::from_sources(
            "<!ELEMENT school (teacher*)>\n\
             <!ELEMENT teacher EMPTY>\n\
             <!ATTLIST teacher name CDATA #REQUIRED>",
            Some("school"),
            "teacher.name -> teacher",
        )
        .expect("fixture spec compiles"),
    )
}

fn doc_source(i: usize) -> String {
    format!("<school><teacher name=\"t{i}a\"/><teacher name=\"t{i}b\"/></school>")
}

fn temp_dir(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("xic-service-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&path).ok();
    fs::create_dir_all(&path).expect("create state dir");
    path
}

fn tcp_server(config: ServerConfig) -> (Arc<CompiledSpec>, Server) {
    let spec = spec();
    let server = Server::start(
        Arc::clone(&spec),
        ServerConfig {
            tcp: Some("127.0.0.1:0".parse().unwrap()),
            ..config
        },
    )
    .expect("server starts");
    (spec, server)
}

/// A valid random edit against the document's current state (mirrors the
/// generator of `tests/replica_agreement.rs`).
fn random_op(rng: &mut StdRng, dtd: &Dtd, tree: &XmlTree) -> EditOp {
    let elements: Vec<NodeId> = tree.elements().collect();
    let pick = |rng: &mut StdRng, nodes: &[NodeId]| nodes[rng.gen_range(0..nodes.len())];
    for _ in 0..8 {
        match rng.gen_range(0u32..10) {
            0..=5 => {
                let candidates: Vec<NodeId> = elements
                    .iter()
                    .copied()
                    .filter(|&n| {
                        tree.element_type(n)
                            .is_some_and(|ty| !dtd.attrs_of(ty).is_empty())
                    })
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let element = pick(rng, &candidates);
                let ty = tree.element_type(element).unwrap();
                let attrs = dtd.attrs_of(ty);
                return EditOp::SetAttr {
                    element,
                    attr: attrs[rng.gen_range(0..attrs.len())],
                    value: format!("val{}", rng.gen_range(0..3u32)),
                };
            }
            6..=7 => {
                let types: Vec<_> = dtd.types().collect();
                return EditOp::AddElement {
                    parent: pick(rng, &elements),
                    ty: types[rng.gen_range(0..types.len())],
                };
            }
            8 => {
                return EditOp::AddText {
                    parent: pick(rng, &elements),
                    value: format!("text{}", rng.gen_range(0..50u32)),
                };
            }
            _ => {
                let removable: Vec<NodeId> = elements
                    .iter()
                    .copied()
                    .filter(|&n| n != tree.root())
                    .collect();
                if removable.is_empty() {
                    continue;
                }
                return EditOp::RemoveSubtree {
                    element: pick(rng, &removable),
                };
            }
        }
    }
    let types: Vec<_> = dtd.types().collect();
    EditOp::AddElement {
        parent: tree.root(),
        ty: types[0],
    }
}

/// Precomputes a random edit script for one document: `rounds` batches,
/// each valid against the state the previous batches left behind.  The
/// same script drives the wire client and the in-process oracle.
fn edit_script(spec: &CompiledSpec, source: &str, seed: u64, rounds: usize) -> Vec<Vec<EditOp>> {
    let mut shadow = spec.parse_document(source).expect("fixture doc parses");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batches = Vec::new();
    for _ in 0..rounds {
        let mut batch = Vec::new();
        for _ in 0..rng.gen_range(1..4usize) {
            let op = random_op(&mut rng, spec.dtd(), &shadow);
            shadow.apply_edit(&op).expect("generated op is valid");
            batch.push(op);
        }
        batches.push(batch);
    }
    batches
}

/// ≥3 concurrent clients editing disjoint documents of one named session:
/// every client-side replica reconstructs a report byte-identical to the
/// single-process oracle fed the same scripts.
#[test]
fn concurrent_clients_agree_with_oracle() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 6;
    let (spec, server) = tcp_server(ServerConfig::default());
    let addr = server.tcp_addr().unwrap();

    // Deterministic handle numbering: open every document from one setup
    // connection before any concurrent edits.
    let mut setup = Client::connect_tcp(addr, spec.id(), "shared").expect("connect");
    assert!(setup.hello().spec_known);
    assert_eq!(setup.hello().last_seq, 0);
    let mut handles = Vec::new();
    for i in 0..CLIENTS {
        handles.push(
            setup
                .open_doc(&format!("doc-{i}.xml"), &doc_source(i))
                .expect("open"),
        );
    }
    let scripts: Vec<Vec<Vec<EditOp>>> = (0..CLIENTS)
        .map(|i| edit_script(&spec, &doc_source(i), 0x5eed + i as u64, ROUNDS))
        .collect();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let spec = Arc::clone(&spec);
            let script = scripts[i].clone();
            let handle = handles[i];
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_tcp(addr, spec.id(), "shared").expect("worker connect");
                let mut acked = 0u64;
                for batch in &script {
                    client.apply(handle, batch).expect("apply");
                    let delta = client.commit().expect("commit");
                    acked = delta.seq;
                }
                acked
            })
        })
        .collect();
    let mut max_acked = 0;
    for worker in workers {
        max_acked = max_acked.max(worker.join().expect("worker thread"));
    }
    assert_eq!(max_acked, (CLIENTS * ROUNDS) as u64, "one delta per commit");

    // The oracle replays the same scripts in a plain CorpusSession.
    let mut oracle = CorpusSession::new(&spec);
    let mut oracle_handles = Vec::new();
    for (i, &wire_handle) in handles.iter().enumerate() {
        let h = oracle
            .open_source(format!("doc-{i}.xml"), &doc_source(i))
            .expect("oracle open");
        assert_eq!(h.raw(), wire_handle, "handle numbering agrees");
        oracle_handles.push(h);
    }
    for (i, script) in scripts.iter().enumerate() {
        for batch in script {
            oracle
                .apply(oracle_handles[i], batch)
                .expect("oracle apply");
        }
    }
    oracle.commit();

    // Every client reconstructs the oracle's report from the delta stream
    // alone, byte for byte.
    for _ in 0..3 {
        let mut client = Client::connect_tcp(addr, spec.id(), "shared").expect("reader connect");
        assert_eq!(client.hello().last_seq, max_acked);
        let mut replica = CorpusReplica::new(spec.id());
        client.sync_replica(&mut replica).expect("sync");
        assert_eq!(replica.last_seq(), max_acked);
        assert_eq!(replica.report(), oracle.report());
        assert_eq!(replica.report().render(), oracle.report().render());
    }
    server.stop();
}

/// A connection killed mid-frame never applies any part of the batch: the
/// session equals the last fully framed record.
#[test]
fn torn_connection_applies_nothing() {
    let (spec, server) = tcp_server(ServerConfig::default());
    let addr = server.tcp_addr().unwrap();

    let mut client = Client::connect_tcp(addr, spec.id(), "torn").expect("connect");
    let handle = client.open_doc("doc.xml", &doc_source(0)).expect("open");
    let first = client.commit().expect("commit");
    assert_eq!(first.seq, 1);

    // A raw connection: full hello, then an apply batch cut off mid-frame.
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    wire::write_request(&mut raw, 1, &Request::hello(spec.id(), "torn")).unwrap();
    let (_, hello) = wire::read_response(&mut raw).unwrap().expect("hello ack");
    assert!(matches!(hello, wire::Response::Hello(_)));
    let mut framed = Vec::new();
    wire::write_request(
        &mut framed,
        2,
        &Request::Apply {
            handle,
            ops: vec![
                EditOp::SetAttr {
                    element: NodeId(1),
                    attr: spec.dtd().attr_by_name("name").unwrap(),
                    value: "torn-away".into(),
                },
                EditOp::RemoveSubtree { element: NodeId(2) },
            ],
        },
    )
    .unwrap();
    raw.write_all(&framed[..framed.len() - 9]).unwrap();
    drop(raw);

    // Give the worker a moment to hit the torn tail, then verify nothing
    // of the half-framed batch reached the session.
    std::thread::sleep(Duration::from_millis(300));
    let delta = client.commit().expect("commit after torn peer");
    assert_eq!(delta.seq, 2);
    assert!(
        delta.changes.is_empty(),
        "torn batch must not dirty any document"
    );
    let stats = client.stats().expect("stats");
    assert!(
        stats.counter("server.torn_connections").unwrap_or(0) >= 1,
        "the torn connection must be counted"
    );

    let mut replica = CorpusReplica::new(spec.id());
    client.sync_replica(&mut replica).expect("sync");
    let mut oracle = CorpusSession::new(&spec);
    oracle.open_source("doc.xml", &doc_source(0)).unwrap();
    oracle.commit();
    oracle.commit();
    assert_eq!(replica.report().render(), oracle.report().render());
    server.stop();
}

/// Asserts that the wire session's next delta equals the oracle's, field
/// for field (the re-check count may differ: a recovered session re-checks
/// every document the log left dirty).
fn assert_same_delta(wire: &BatchDelta, oracle: &BatchDelta, context: &str) {
    assert_eq!(wire.seq, oracle.seq, "{context}");
    assert_eq!(wire.changes, oracle.changes, "{context}");
    assert_eq!(wire.closed, oracle.closed, "{context}");
    assert_eq!(
        (wire.total, wire.clean),
        (oracle.total, oracle.clean),
        "{context}"
    );
}

/// Graceful drain persists every acknowledged commit; a server restarted
/// over the same state dir recovers the session from its corpus log —
/// live, so it serves the same stream and then accepts edits and commits
/// whose deltas equal those of an oracle that never stopped.
#[test]
fn restart_from_drained_logs_serves_identical_reports() {
    let state_dir = temp_dir("restart");
    let (spec, server) = tcp_server(ServerConfig {
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    });
    let addr = server.tcp_addr().unwrap();
    let mut oracle = CorpusSession::new(&spec);

    let mut client = Client::connect_tcp(addr, spec.id(), "durable").expect("connect");
    let handle = client.open_doc("doc.xml", &doc_source(0)).expect("open");
    let oracle_doc = oracle.open_source("doc.xml", &doc_source(0)).unwrap();
    assert_eq!(oracle_doc.raw(), handle);
    let script = edit_script(&spec, &doc_source(0), 0xd00d, 8);
    let (before_restart, after_restart) = script.split_at(5);
    let mut acked = 0;
    for batch in before_restart {
        client.apply(handle, batch).expect("apply");
        oracle.apply(oracle_doc, batch).unwrap();
        let delta = client.commit().expect("commit");
        assert_same_delta(&delta, &oracle.commit(), "before the restart");
        acked = delta.seq;
    }
    // A second document left open but uncommitted at the drain.
    let pending = client
        .open_doc("pending.xml", &doc_source(1))
        .expect("open");
    oracle.open_source("pending.xml", &doc_source(1)).unwrap();
    let mut before = CorpusReplica::new(spec.id());
    client.sync_replica(&mut before).expect("sync");
    assert_eq!(client.shutdown().expect("shutdown"), 1);
    let report = server.wait();
    assert_eq!(report.drained_sessions, 1);
    assert_eq!(report.persisted_deltas, acked);
    assert!(state_dir.join("durable.xicj").is_file());

    // Restart over the same state dir: the session comes back live,
    // serving the same stream.
    let server = Server::start(
        Arc::clone(&spec),
        ServerConfig {
            tcp: Some("127.0.0.1:0".parse().unwrap()),
            state_dir: Some(state_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("restart");
    let addr = server.tcp_addr().unwrap();
    let mut client = Client::connect_tcp(addr, spec.id(), "durable").expect("reconnect");
    assert_eq!(client.hello().last_seq, acked);
    let mut after = CorpusReplica::new(spec.id());
    client.sync_replica(&mut after).expect("sync after restart");
    assert_eq!(after.last_seq(), before.last_seq());
    assert_eq!(after.report(), before.report());
    assert_eq!(after.report().render(), before.report().render());

    // ...and editable: every later delta equals the uninterrupted
    // oracle's, the pending document's open included.
    for (i, batch) in after_restart.iter().enumerate() {
        client.apply(handle, batch).expect("apply after restart");
        oracle.apply(oracle_doc, batch).unwrap();
        let delta = client.commit().expect("commit after restart");
        assert_same_delta(
            &delta,
            &oracle.commit(),
            &format!("commit {i} after the restart"),
        );
    }
    client.close_doc(pending).expect("close after restart");
    oracle.close(DocHandle::from_raw(pending)).unwrap();
    let fresh = client
        .open_doc("fresh.xml", &doc_source(2))
        .expect("open after restart");
    let oracle_fresh = oracle.open_source("fresh.xml", &doc_source(2)).unwrap();
    assert_eq!(fresh, oracle_fresh.raw(), "handles are never reused");
    let delta = client.commit().expect("commit after restart");
    assert_same_delta(&delta, &oracle.commit(), "close + open after the restart");
    let mut replica = CorpusReplica::new(spec.id());
    client.sync_replica(&mut replica).expect("sync");
    assert_eq!(replica.report(), oracle.report());
    server.stop();
    fs::remove_dir_all(&state_dir).ok();
}

/// An evicted session is recovered from its corpus log when a client names
/// it again — its history is extended, never truncated — and a restart
/// after further commits still matches an oracle that never stopped.
#[test]
fn evicted_session_resumes_from_its_log() {
    let state_dir = temp_dir("evict");
    let config = ServerConfig {
        state_dir: Some(state_dir.clone()),
        idle_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    };
    let (spec, server) = tcp_server(config.clone());
    let addr = server.tcp_addr().unwrap();
    let mut oracle = CorpusSession::new(&spec);
    let script = edit_script(&spec, &doc_source(0), 0xe71c, 3);

    let mut client = Client::connect_tcp(addr, spec.id(), "idle").expect("connect");
    let handle = client.open_doc("doc.xml", &doc_source(0)).expect("open");
    let doc = oracle.open_source("doc.xml", &doc_source(0)).unwrap();
    for batch in &script[..2] {
        client.apply(handle, batch).expect("apply");
        oracle.apply(doc, batch).unwrap();
        assert_same_delta(
            &client.commit().expect("commit"),
            &oracle.commit(),
            "before",
        );
    }
    drop(client);

    // Only this test evicts, so the process-wide counter is its own.  The
    // observer names a session without a log, so its hello creates none.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut observer = Client::connect_tcp(addr, spec.id(), "observer").expect("observe");
        let stats = observer.stats().expect("stats");
        if stats.counter("server.evicted_sessions") == Some(1) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the session was never evicted"
        );
        drop(observer);
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut client = Client::connect_tcp(addr, spec.id(), "idle").expect("reconnect");
    assert_eq!(
        client.hello().last_seq,
        2,
        "the evicted session's history survives"
    );
    client
        .apply(handle, &script[2])
        .expect("apply after eviction");
    oracle.apply(doc, &script[2]).unwrap();
    let delta = client.commit().expect("commit after eviction");
    assert_same_delta(&delta, &oracle.commit(), "after the eviction");
    client.shutdown().expect("shutdown");
    server.wait();

    let server = Server::start(
        Arc::clone(&spec),
        ServerConfig {
            tcp: Some("127.0.0.1:0".parse().unwrap()),
            ..config
        },
    )
    .expect("restart");
    let mut client =
        Client::connect_tcp(server.tcp_addr().unwrap(), spec.id(), "idle").expect("reconnect");
    assert_eq!(client.hello().last_seq, 3);
    let mut replica = CorpusReplica::new(spec.id());
    client.sync_replica(&mut replica).expect("sync");
    assert_eq!(replica.report(), oracle.report());
    assert_eq!(replica.report().render(), oracle.report().render());
    server.stop();
    fs::remove_dir_all(&state_dir).ok();
}

/// Shutdown under load: whatever a client saw acknowledged is in the
/// drained log, always.
#[test]
fn shutdown_under_load_loses_no_acknowledged_commit() {
    let state_dir = temp_dir("drain-load");
    let (spec, server) = tcp_server(ServerConfig {
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    });
    let addr = server.tcp_addr().unwrap();

    let writer = {
        let spec = Arc::clone(&spec);
        std::thread::spawn(move || {
            let mut client = Client::connect_tcp(addr, spec.id(), "loaded").expect("connect");
            let handle = client.open_doc("doc.xml", &doc_source(0)).expect("open");
            let name = spec.dtd().attr_by_name("name").unwrap();
            let mut acked = 0u64;
            for i in 0.. {
                let op = EditOp::SetAttr {
                    element: NodeId(1),
                    attr: name,
                    value: format!("v{i}"),
                };
                if client.apply(handle, &[op]).is_err() {
                    break;
                }
                match client.commit() {
                    Ok(delta) => acked = delta.seq,
                    Err(_) => break,
                }
            }
            acked
        })
    };
    std::thread::sleep(Duration::from_millis(150));
    let mut stopper = Client::connect_tcp(addr, spec.id(), "loaded").expect("stopper");
    stopper.shutdown().expect("shutdown accepted");
    let acked = writer.join().expect("writer thread");
    let report = server.wait();
    assert!(acked >= 1, "the writer must land at least one commit");
    assert!(report.persisted_deltas >= acked);

    let server = Server::start(
        Arc::clone(&spec),
        ServerConfig {
            tcp: Some("127.0.0.1:0".parse().unwrap()),
            state_dir: Some(state_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("restart");
    let mut client =
        Client::connect_tcp(server.tcp_addr().unwrap(), spec.id(), "loaded").expect("reconnect");
    assert!(
        client.hello().last_seq >= acked,
        "no acknowledged commit lost"
    );
    let deltas = client.sync(0).expect("sync");
    assert_eq!(deltas.len() as u64, client.hello().last_seq);
    for (i, delta) in deltas.iter().enumerate() {
        assert_eq!(delta.seq, i as u64 + 1, "delta stream is gap-free");
    }
    server.stop();
    fs::remove_dir_all(&state_dir).ok();
}

/// Resource rejections arrive as code-3 `resource:*` records and the
/// connection stays usable afterwards.
#[test]
fn resource_rejection_is_structured_not_a_dropped_connection() {
    let (spec, server) = tcp_server(ServerConfig {
        limits: Limits {
            max_doc_nodes: Some(4),
            ..Limits::UNLIMITED
        },
        ..ServerConfig::default()
    });
    let addr = server.tcp_addr().unwrap();
    let mut client = Client::connect_tcp(addr, spec.id(), "limited").expect("connect");

    let big = "<school>".to_owned() + &"<teacher name=\"x\"/>".repeat(10) + "</school>";
    let err = client.open_doc("big.xml", &big).unwrap_err();
    let fault = err.fault().expect("structured record").clone();
    assert_eq!(fault.code, 3, "resource rejections map to exit code 3");
    assert_eq!(fault.kind, "resource:max_doc_nodes");

    // Same connection, admissible document: still serving.
    let handle = client
        .open_doc("small.xml", "<school><teacher name=\"y\"/></school>")
        .expect("connection survived the rejection");
    assert_eq!(client.commit().expect("commit").seq, 1);
    client.close_doc(handle).expect("close");
    server.stop();
}

/// A hello with the wrong spec hash is refused with a `spec-mismatch`
/// record, not a silent close.
#[test]
fn spec_mismatch_hello_is_refused() {
    let (spec, server) = tcp_server(ServerConfig::default());
    let addr = server.tcp_addr().unwrap();
    let wrong = SpecId(spec.id().0 ^ 1, spec.id().1);
    let Err(err) = Client::connect_tcp(addr, wrong, "s") else {
        panic!("a mismatched spec hash must be refused");
    };
    let fault = err.fault().expect("structured record");
    assert_eq!(fault.code, 2);
    assert_eq!(fault.kind, "spec-mismatch");
    server.stop();
}

/// A reply of many frames must not stall on the client's delayed ACK:
/// accepted TCP sockets run with `TCP_NODELAY`, so a sync of 8 deltas over
/// loopback takes well under a millisecond, not the tens of milliseconds
/// a Nagle stall costs.
#[test]
fn tcp_sync_of_many_deltas_does_not_stall() {
    let (spec, server) = tcp_server(ServerConfig::default());
    let addr = server.tcp_addr().unwrap();
    let mut client = Client::connect_tcp(addr, spec.id(), "nodelay").expect("connect");
    for i in 0..8 {
        client
            .open_doc(&format!("d{i}"), &doc_source(i))
            .expect("open");
        client.commit().expect("commit");
    }
    let mut times: Vec<Duration> = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            assert_eq!(client.sync(0).expect("sync").len(), 8);
            start.elapsed()
        })
        .collect();
    times.sort();
    assert!(
        times[2] < Duration::from_millis(10),
        "median TCP sync of 8 deltas took {:?} (all: {times:?})",
        times[2]
    );
    server.stop();
}

/// The Unix-socket transport speaks the identical protocol.
#[cfg(unix)]
#[test]
fn unix_socket_roundtrip() {
    let dir = temp_dir("unix");
    let sock = dir.join("xic.sock");
    let spec = spec();
    let server = Server::start(
        Arc::clone(&spec),
        ServerConfig {
            unix: Some(sock.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("unix server");
    let mut client = Client::connect_unix(&sock, spec.id(), "uds").expect("connect");
    client.open_doc("doc.xml", &doc_source(0)).expect("open");
    assert_eq!(client.commit().expect("commit").seq, 1);
    let mut replica = CorpusReplica::new(spec.id());
    client.sync_replica(&mut replica).expect("sync");
    assert_eq!(replica.report().total(), 1);
    server.stop();
    assert!(!sock.exists(), "socket file removed on stop");
    fs::remove_dir_all(&dir).ok();
}
