//! Edge cases of the wire-v2 shard-filtered sync subscription: empty
//! filter results, out-of-range shard ids, degenerate one-shard plans,
//! and shard replicas fed streams the filter dropped entirely.  Every
//! case must answer with either a well-formed (possibly empty) projected
//! stream or a structured code-2 protocol fault — never a torn connection
//! or a wrong report.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::Arc;

use xic_engine::{project_report, CompiledSpec, CorpusReplica};
use xic_server::{Client, ClientError, Server, ServerConfig};
use xic_xml::EditOp;

/// Two independent unary keys → a two-shard plan.
const DTD2: &str = "<!ELEMENT r (a*, b*)>\n\
                    <!ELEMENT a EMPTY>\n\
                    <!ATTLIST a id CDATA #REQUIRED>\n\
                    <!ELEMENT b EMPTY>\n\
                    <!ATTLIST b id CDATA #REQUIRED>\n";
const SIGMA2: &str = "a[id] -> a\nb[id] -> b\n";
const DOC2: &str = "<r><a id=\"a1\"/><a id=\"a2\"/><b id=\"b1\"/><b id=\"b2\"/></r>";

/// One key → a one-shard plan.
const SIGMA1: &str = "a[id] -> a\n";

fn serve(spec: &Arc<CompiledSpec>) -> (Server, Client) {
    let server = Server::start(
        Arc::clone(spec),
        ServerConfig {
            tcp: Some(SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let client = Client::connect_tcp(server.tcp_addr().unwrap(), spec.id(), "edges")
        .expect("client connects");
    (server, client)
}

/// `SetAttr` on the first `a` element of the served document.
fn edit_a(spec: &CompiledSpec, value: &str) -> (u64, EditOp) {
    let tree = spec.parse_document(DOC2).expect("doc parses");
    let node = tree
        .elements()
        .find(|&n| spec.dtd().type_name(tree.element_type(n).unwrap()) == "a")
        .expect("an `a` element");
    let attr = spec.dtd().attrs_of(tree.element_type(node).unwrap())[0];
    (
        0,
        EditOp::SetAttr {
            element: node,
            attr,
            value: value.to_string(),
        },
    )
}

/// A sync whose filter drops every retained delta answers an empty,
/// well-formed stream — `DeltaEnd { count: 0 }`, not a fault, not a hang.
#[test]
fn empty_filter_result_is_a_well_formed_stream() {
    let spec = Arc::new(CompiledSpec::from_sources(DTD2, Some("r"), SIGMA2).unwrap());
    let (server, mut client) = serve(&spec);

    let handle = client.open_doc("doc", DOC2).expect("opens");
    let open_delta = client.commit().expect("open commit");
    assert_eq!(
        open_delta.shards.len(),
        spec.shard_plan().num_shards(),
        "an open broadcasts to every shard"
    );

    // An edit to `a` touches only `a[id]`'s shard; the other shard's
    // subscription sees nothing past the open.
    let (_, op) = edit_a(&spec, "a2");
    client.apply(handle, &[op]).expect("applies");
    let edit_delta = client.commit().expect("edit commit");
    assert_eq!(edit_delta.shards.len(), 1, "narrow edit touches one shard");
    let touched = edit_delta.shards[0];
    let untouched = 1 - touched;

    let tail = client
        .sync_shard(open_delta.seq, untouched)
        .expect("filtered sync succeeds");
    assert!(
        tail.is_empty(),
        "the untouched shard's tail must be empty, got {} delta(s)",
        tail.len()
    );
    // The connection survives: the same client keeps working.
    assert!(client.sync(0).expect("full sync").len() >= 2);
    drop(client);
    server.stop();
}

/// A shard id past the plan is a structured code-2 `protocol:shard-range`
/// fault, and the connection stays usable afterwards.
#[test]
fn out_of_range_shard_is_a_structured_fault() {
    let spec = Arc::new(CompiledSpec::from_sources(DTD2, Some("r"), SIGMA2).unwrap());
    let (server, mut client) = serve(&spec);
    client.open_doc("doc", DOC2).expect("opens");
    client.commit().expect("commits");

    let num_shards = spec.shard_plan().num_shards() as u32;
    match client.sync_shard(0, num_shards) {
        Err(ClientError::Fault(fault)) => {
            assert_eq!(
                fault.code, 2,
                "shard-range faults are code-2 protocol errors"
            );
            assert_eq!(fault.kind, "protocol:shard-range");
        }
        other => panic!("expected a shard-range fault, got {other:?}"),
    }
    // Well-formed requests still work on the same connection.
    assert_eq!(client.sync(0).expect("full sync").len(), 1);
    drop(client);
    server.stop();
}

/// On a one-shard plan the filter is total: the shard-0 subscription
/// carries every delta and a sharded replica reconstructs the (trivial)
/// projection, which *is* the full report.
#[test]
fn one_shard_plan_filter_is_total() {
    let spec = Arc::new(CompiledSpec::from_sources(DTD2, Some("r"), SIGMA1).unwrap());
    assert_eq!(spec.shard_plan().num_shards(), 1);
    let (server, mut client) = serve(&spec);

    let handle = client.open_doc("doc", DOC2).expect("opens");
    client.commit().expect("open commit");
    let (_, op) = edit_a(&spec, "a2"); // collide the key
    client.apply(handle, &[op]).expect("applies");
    client.commit().expect("edit commit");

    let mut full = CorpusReplica::new(spec.id());
    client.sync_replica(&mut full).expect("full replica syncs");
    let mut sharded = CorpusReplica::new_sharded(spec.id(), 0);
    client
        .sync_replica(&mut sharded)
        .expect("sharded replica syncs");

    let report = full.report();
    assert_eq!(
        sharded.report(),
        project_report(&report, spec.shard_plan(), 0),
        "one-shard projection diverged"
    );
    assert_eq!(
        sharded.report(),
        report,
        "a one-shard projection must be the full report"
    );
    drop(client);
    server.stop();
}

/// A sharded replica whose subscription never delivers anything (every
/// delta filtered out) reports an empty, clean corpus — not an error.
#[test]
fn all_filtered_out_stream_reports_clean() {
    let spec = Arc::new(CompiledSpec::from_sources(DTD2, Some("r"), SIGMA2).unwrap());
    let (server, mut client) = serve(&spec);

    // No commits yet: both subscriptions are empty.
    for shard in 0..spec.shard_plan().num_shards() as u32 {
        let mut replica = CorpusReplica::new_sharded(spec.id(), shard);
        let applied = client
            .sync_replica(&mut replica)
            .expect("empty sync succeeds");
        assert_eq!(applied, 0);
        let report = replica.report();
        assert_eq!(report.reports().len(), 0, "no documents");
        assert_eq!(
            report.clean_count(),
            report.total(),
            "an empty corpus is clean, not an error"
        );
    }

    // After real traffic, a replica that joins at the head and only ever
    // receives filtered-out tails stays clean and consistent too.
    let handle = client.open_doc("doc", DOC2).expect("opens");
    let open_delta = client.commit().expect("open commit");
    let (_, op) = edit_a(&spec, "a2");
    client.apply(handle, &[op]).expect("applies");
    let edit_delta = client.commit().expect("edit commit");
    let untouched = 1 - edit_delta.shards[0];

    let mut late = CorpusReplica::new_sharded(spec.id(), untouched);
    late.apply_delta(
        &open_delta
            .project(spec.shard_plan(), untouched)
            .expect("opens broadcast, so the projection exists"),
    )
    .expect("projected open applies");
    let tail = client
        .sync_shard(open_delta.seq, untouched)
        .expect("tail sync");
    assert!(tail.is_empty());
    let late_report = late.report();
    assert_eq!(
        late_report.clean_count(),
        late_report.total(),
        "untouched shard stays clean"
    );
    drop(client);
    server.stop();
}
