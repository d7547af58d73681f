//! The validation service, end to end in one process: an `xic-server`
//! hosting a compiled spec over loopback TCP, a writer client driving
//! edits through the delta-log wire protocol, a reader client mirroring
//! the session with a `CorpusReplica` — and a restart that recovers the
//! drained session from its corpus log, live and editable.
//!
//! Everything on the wire is a journal record: the deltas a client
//! receives are byte-identical to the `commit` records a corpus log holds
//! on disk, so the stock replica consumes either source.
//!
//! Run with: `cargo run --example service_roundtrip`

use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::Arc;

use xml_integrity_constraints::engine::{CompiledSpec, CorpusReplica};
use xml_integrity_constraints::server::{Client, Server, ServerConfig};
use xml_integrity_constraints::xml::EditOp;

const DTD: &str = r#"
    <!ELEMENT department (course*, enroll*)>
    <!ELEMENT course EMPTY>
    <!ELEMENT enroll EMPTY>
    <!ATTLIST course code CDATA #REQUIRED>
    <!ATTLIST enroll course CDATA #REQUIRED>
"#;

const SIGMA: &str = "
    course.code -> course
    enroll.course ref course.code
";

fn main() {
    let spec = Arc::new(
        CompiledSpec::from_sources(DTD, Some("department"), SIGMA).expect("spec compiles"),
    );
    let spec_id = spec.id();
    let state_dir =
        std::env::temp_dir().join(format!("xic-example-service-{}", std::process::id()));
    std::fs::create_dir_all(&state_dir).unwrap();

    // --- A server, a writer, a reader. -----------------------------------
    let server = Server::start(
        Arc::clone(&spec),
        ServerConfig {
            tcp: Some(SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)),
            state_dir: Some(state_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.tcp_addr().unwrap();
    println!("service listening on {addr} (spec {spec_id})");

    let source = r#"<department><course code="db101"/><enroll course="db101"/></department>"#;
    let mut writer = Client::connect_tcp(addr, spec_id, "registrar").expect("writer connects");
    let handle = writer.open_doc("math.xml", source).unwrap();
    let delta = writer.commit().unwrap();
    println!(
        "commit {}: {}/{} documents clean",
        delta.seq, delta.clean, delta.total
    );

    // An edit dangles the foreign key; the acknowledged delta carries the
    // violation to every subscriber.  Node ids are deterministic per
    // source, so a local parse of the same document names the server's
    // nodes exactly.
    let course_attr = spec.dtd().attr_by_name("course").unwrap();
    let enroll_node = spec
        .parse_document(source)
        .unwrap()
        .elements()
        .nth(2)
        .unwrap();
    writer
        .apply(
            handle,
            &[EditOp::SetAttr {
                element: enroll_node,
                attr: course_attr,
                value: "missing".into(),
            }],
        )
        .unwrap();
    let delta = writer.commit().unwrap();
    println!(
        "commit {}: {}/{} documents clean",
        delta.seq, delta.clean, delta.total
    );

    // The reader never sees a document — only deltas — yet reconstructs
    // the session's full report.
    let mut reader = Client::connect_tcp(addr, spec_id, "registrar").expect("reader connects");
    let mut replica = CorpusReplica::new(spec_id);
    let applied = reader.sync_replica(&mut replica).unwrap();
    println!(
        "reader synced {applied} deltas: {}/{} clean on the replica",
        replica.report().clean_count(),
        replica.report().total()
    );
    let before_restart = replica.report();

    // --- Graceful drain: acknowledged history goes to disk. ---------------
    let mut admin = Client::connect_tcp(addr, spec_id, "registrar").expect("admin connects");
    let draining = admin.shutdown().unwrap();
    let report = server.wait();
    println!(
        "shutdown drained {draining} session(s): {} commits persisted to {}",
        report.persisted_deltas,
        state_dir.display()
    );

    // --- Restart: the session comes back from its log, still editable. ----
    let server = Server::start(
        Arc::clone(&spec),
        ServerConfig {
            tcp: Some(SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)),
            state_dir: Some(state_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server restarts");
    let addr = server.tcp_addr().unwrap();
    let mut reader = Client::connect_tcp(addr, spec_id, "registrar").expect("reader reconnects");
    let mut recovered = CorpusReplica::new(spec_id);
    reader.sync_replica(&mut recovered).unwrap();
    assert_eq!(recovered.report(), before_restart);
    println!(
        "restarted service resumes at commit {}: {}/{} clean",
        reader.hello().last_seq,
        recovered.report().clean_count(),
        recovered.report().total()
    );

    // The recovered session takes edits: heal the dangling foreign key.
    let mut writer = Client::connect_tcp(addr, spec_id, "registrar").expect("writer reconnects");
    writer
        .apply(
            handle,
            &[EditOp::SetAttr {
                element: enroll_node,
                attr: course_attr,
                value: "db101".into(),
            }],
        )
        .unwrap();
    let delta = writer.commit().unwrap();
    println!(
        "commit {} after the restart: {}/{} documents clean",
        delta.seq, delta.clean, delta.total
    );

    reader.shutdown().unwrap();
    server.wait();
    std::fs::remove_dir_all(&state_dir).ok();
}
