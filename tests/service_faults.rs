//! The validation service under an injected panic (`--features faults`):
//! a contained panic in `apply` quarantines a document the session's
//! corpus log never held, yet the drain at shutdown still makes every
//! acknowledged commit durable, and a restarted server resumes the
//! session with the same `last_seq` and reports.
//!
//! The failpoint table is process-global, so this scenario has its own
//! test binary: no parallel test can hit the armed failpoint.
//!
//! ```text
//! cargo test --release --features faults --test service_faults
//! ```

#![cfg(feature = "faults")]

use std::fs;
use std::sync::Arc;

use xic_telemetry::faults::{self, FaultMode};
use xml_integrity_constraints::engine::CompiledSpec;
use xml_integrity_constraints::server::{Client, Server, ServerConfig};
use xml_integrity_constraints::xml::{EditOp, NodeId};
use xml_integrity_constraints::CorpusReplica;

#[test]
fn quarantined_document_does_not_cost_acknowledged_commits() {
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
    let state_dir = std::env::temp_dir().join(format!("xic-service-faults-{}", std::process::id()));
    fs::remove_dir_all(&state_dir).ok();
    let config = ServerConfig {
        tcp: Some("127.0.0.1:0".parse().unwrap()),
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    };
    let set_name = |value: &str| EditOp::SetAttr {
        element: NodeId(1),
        attr: spec.dtd().attr_by_name("name").unwrap(),
        value: value.into(),
    };
    let source = "<school><teacher name=\"Joe\"/></school>";

    let server = Server::start(Arc::clone(&spec), config.clone()).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap(), spec.id(), "s").unwrap();
    let faulty = client.open_doc("a.xml", source).unwrap();
    let kept = client.open_doc("b.xml", source).unwrap();
    client.commit().unwrap();

    // No drain has run, so the log holds nothing of this session yet.
    std::panic::set_hook(Box::new(|_| {}));
    faults::configure("corpus.apply", FaultMode::Nth(1));
    let refused = client.apply(faulty, &[set_name("Ann")]);
    faults::disarm("corpus.apply");
    let _ = std::panic::take_hook();
    assert!(refused.is_err(), "the injected panic is contained");
    client.apply(kept, &[set_name("Zoe")]).unwrap();
    let delta = client.commit().unwrap();
    assert!(delta.changes.iter().any(|c| c.report.fault.is_some()));
    let mut before = CorpusReplica::new(spec.id());
    client.sync_replica(&mut before).unwrap();
    client.shutdown().unwrap();
    let report = server.wait();
    assert_eq!(report.persisted_deltas, 2, "every acknowledged commit");

    let server = Server::start(Arc::clone(&spec), config).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap(), spec.id(), "s").unwrap();
    assert_eq!(client.hello().last_seq, 2);
    let mut after = CorpusReplica::new(spec.id());
    client.sync_replica(&mut after).unwrap();
    assert_eq!(after.report(), before.report());

    // The quarantined document had no logged state: the resumed session
    // holds it as closed and announces that; the other one edits on.
    client.apply(kept, &[set_name("Eve")]).unwrap();
    let delta = client.commit().unwrap();
    assert_eq!(delta.seq, 3);
    assert_eq!(delta.closed.len(), 1);
    assert_eq!(delta.closed[0].handle.raw(), faulty);
    assert_eq!((delta.total, delta.clean), (1, 1));
    server.stop();
    fs::remove_dir_all(&state_dir).ok();
}
