//! Validation service — framed loopback edit/commit throughput vs. the
//! in-process corpus session it wraps.
//!
//! The workload the service exists for: a corpus of documents open in one
//! named server session, a stream of point edits arriving over the wire,
//! and an acknowledged `BatchDelta` wanted per commit.  Two arms drive the
//! *same* deterministic edit stream:
//!
//! 1. **wire (framed loopback)** — `Client::apply` + `Client::commit`
//!    against an `xic-server` on 127.0.0.1: every edit pays request
//!    framing, a TCP round trip, the session actor's channel hop, and the
//!    delta response encode/decode;
//! 2. **in-process** — `CorpusSession::apply` + `commit()` on a local
//!    session, the floor the service is built on.
//!
//! Verdict identity is asserted before the numbers are trusted: after both
//! arms run, a replica synced over the wire must reproduce the local
//! session's report exactly.  Like the other session benches this is not a
//! statistical benchmark — the minimum over runs is the honest cost on
//! this shared container.  Results land in `BENCH_service.json`.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::Arc;

use xic_bench::{
    catalogue_spec, corpus, edit_stream, fmt_us, header, min_time, open_all, record, round1, row,
    run_edits, us,
};
use xic_engine::{CorpusReplica, CorpusSession};
use xic_gen::{ConstraintGenConfig, DocGenConfig};
use xic_server::{Client, Server, ServerConfig};

const KINDS: usize = 8;
const NUM_DOCS: usize = 16;
/// Edits per timed run (each `apply` is followed by a `commit`).
const EDITS_PER_RUN: usize = 48;
/// Runs per arm; the minimum is reported.
const RUNS: usize = 5;

fn main() {
    let spec = Arc::new(catalogue_spec(
        KINDS,
        &ConstraintGenConfig {
            keys: 8,
            foreign_keys: 8,
            inclusions: 2,
            seed: 11,
            ..Default::default()
        },
    ));
    let corpus = corpus(
        &spec,
        NUM_DOCS,
        &DocGenConfig {
            seed: 300,
            max_elements: 600,
            star_fanout: 60,
            value_pool: 1_000_000,
            ..Default::default()
        },
    );
    // Node ids are deterministic per source, so the same ops are valid
    // against the server session that opens identical sources in the same
    // order.  The SetAttr stream is idempotent per run, so re-running it
    // leaves the corpus in the same final state every time.
    let edits = edit_stream(&corpus.trees, EDITS_PER_RUN, 1);
    let total_nodes: usize = corpus.trees.iter().map(|t| t.num_nodes()).sum();

    header("service_throughput — framed loopback edit/commit vs. in-process session");
    row(
        "workload",
        format!(
            "{NUM_DOCS} docs, {total_nodes} nodes, {} constraints, {EDITS_PER_RUN} edits/run",
            spec.sigma().len()
        ),
    );

    // --- Wire arm. --------------------------------------------------------
    let server = Server::start(
        Arc::clone(&spec),
        ServerConfig {
            tcp: Some(SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.tcp_addr().unwrap();
    let mut client = Client::connect_tcp(addr, spec.id(), "bench").expect("client connects");
    let handles: Vec<u64> = corpus
        .docs
        .iter()
        .map(|d| client.open_doc(&d.label, &d.content).expect("opens"))
        .collect();
    client.commit().expect("base commit");
    let wire = min_time(RUNS, || {
        for (victim, ops) in &edits {
            client
                .apply(handles[*victim], ops)
                .expect("apply over the wire");
            std::hint::black_box(client.commit().expect("commit over the wire"));
        }
    });

    // --- In-process arm, same stream. --------------------------------------
    let mut local = CorpusSession::new(&spec);
    let local_handles = open_all(&mut local, &corpus.docs);
    let in_process = min_time(RUNS, || run_edits(&mut local, &local_handles, &edits));

    // Verdict identity: a replica synced over the wire reproduces the
    // local session's report exactly — otherwise the timings compare
    // different computations.
    let mut replica = CorpusReplica::new(spec.id());
    client.sync_replica(&mut replica).expect("replica syncs");
    assert_eq!(
        replica.report(),
        local.report(),
        "wire and in-process arms disagree — timings are meaningless"
    );

    client.shutdown().expect("graceful shutdown");
    server.wait();

    let per_commit_wire = wire.as_secs_f64() * 1e6 / EDITS_PER_RUN as f64;
    let per_commit_local = in_process.as_secs_f64() * 1e6 / EDITS_PER_RUN as f64;
    let overhead = per_commit_wire / per_commit_local.max(1e-6);
    let wire_eps = EDITS_PER_RUN as f64 / wire.as_secs_f64();

    row(
        format!("wire loopback, {EDITS_PER_RUN} edit+commit"),
        fmt_us(wire),
    );
    row(
        format!("in-process session, {EDITS_PER_RUN} edit+commit"),
        fmt_us(in_process),
    );
    row(
        "per acknowledged commit, wire",
        format!("{per_commit_wire:.2} µs"),
    );
    row(
        "per commit, in-process",
        format!("{per_commit_local:.2} µs"),
    );
    row("wire overhead per commit", format!("{overhead:.2}x"));
    row(
        "framed loopback throughput",
        format!("{wire_eps:.0} commits/s"),
    );
    record(
        "service",
        &[
            ("docs", NUM_DOCS as f64),
            ("nodes_total", total_nodes as f64),
            ("constraints", spec.sigma().len() as f64),
            ("edits_per_run", EDITS_PER_RUN as f64),
            ("wire_total_us", us(wire)),
            ("in_process_total_us", us(in_process)),
            ("per_commit_wire_us", round1(per_commit_wire)),
            ("per_commit_in_process_us", round1(per_commit_local)),
            ("wire_overhead_x", (overhead * 100.0).round() / 100.0),
            ("wire_commits_per_sec", wire_eps.round()),
        ],
    );
}
