//! CLI round trips for `xic journal`: a recorded log re-ingested by
//! `xic journal replay` must reproduce the same JSON delta stream as the
//! original `xic batch --session` run — byte for byte — and `inspect` must
//! describe any log without the compiled specification.

use std::fs;
use std::path::PathBuf;

use xic_cli::{run, JsonValue};

const SCHOOL_DTD: &str = "<!ELEMENT school (teacher*)>\n\
    <!ELEMENT teacher EMPTY>\n\
    <!ATTLIST teacher name CDATA #REQUIRED>";

/// Writes a temp file with a unique name and returns its path.
fn temp_file(name: &str, contents: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "xic-journal-cli-{}-{:?}-{name}",
        std::process::id(),
        std::thread::current().id()
    ));
    fs::write(&path, contents).unwrap();
    path
}

struct Fixture {
    dtd: PathBuf,
    sigma: PathBuf,
    manifest: PathBuf,
    script: PathBuf,
    log: PathBuf,
}

/// A session script that opens, breaks, heals and closes documents across
/// three commits — enough to exercise every delta shape.
fn fixture() -> Fixture {
    let dtd = temp_file("spec.dtd", SCHOOL_DTD);
    let sigma = temp_file("spec.xic", "teacher.name -> teacher");
    let a = temp_file("a.xml", "<school><teacher name=\"Joe\"/></school>");
    let b = temp_file("b.xml", "<school><teacher name=\"Ann\"/></school>");
    let manifest = temp_file(
        "manifest.txt",
        &format!("{}\n", a.file_name().unwrap().to_str().unwrap()),
    );
    let a_label = a.file_name().unwrap().to_str().unwrap();
    let b_name = b.file_name().unwrap().to_str().unwrap();
    let script = temp_file(
        "script.txt",
        &format!(
            "open b {b_name}\n\
             commit\n\
             add {a_label} 0 teacher\n\
             set {a_label} 3 name Joe\n\
             commit\n\
             set {a_label} 3 name Sue\n\
             close b\n"
        ),
    );
    let mut log = std::env::temp_dir();
    log.push(format!(
        "xic-journal-cli-{}-{:?}-run.xicj",
        std::process::id(),
        std::thread::current().id()
    ));
    fs::remove_file(&log).ok();
    Fixture {
        dtd,
        sigma,
        manifest,
        script,
        log,
    }
}

fn parse_json(report: &str) -> JsonValue {
    JsonValue::parse(report.trim()).expect("valid JSON report")
}

#[test]
fn record_then_replay_reproduces_the_batch_session_delta_stream() {
    let f = fixture();
    let common = [
        "--dtd",
        f.dtd.to_str().unwrap(),
        "--constraints",
        f.sigma.to_str().unwrap(),
    ];

    // The original run: batch --session.
    let mut batch_args = vec!["batch"];
    batch_args.extend_from_slice(&common);
    batch_args.extend_from_slice(&[
        "--manifest",
        f.manifest.to_str().unwrap(),
        "--session",
        f.script.to_str().unwrap(),
        "--format",
        "json",
    ]);
    let (batch_report, batch_code) = run(batch_args);
    assert_eq!(batch_code, 0, "{batch_report}");
    let batch_json = parse_json(&batch_report);

    // Record the same script into a binary corpus log.
    let mut record_args = vec!["journal", "record"];
    record_args.extend_from_slice(&common);
    record_args.extend_from_slice(&[
        "--manifest",
        f.manifest.to_str().unwrap(),
        "--script",
        f.script.to_str().unwrap(),
        "--log",
        f.log.to_str().unwrap(),
        "--format",
        "json",
    ]);
    let (record_report, record_code) = run(record_args);
    assert_eq!(record_code, 0, "{record_report}");
    let record_json = parse_json(&record_report);
    assert_eq!(
        record_json.get("command").and_then(JsonValue::as_str),
        Some("journal-record")
    );
    assert!(f.log.exists(), "the corpus log was written");

    // Replay the log's commits through a replica: no script, no documents
    // — only the log and the spec.
    let mut replay_args = vec!["journal", "replay"];
    replay_args.extend_from_slice(&common);
    replay_args.extend_from_slice(&["--log", f.log.to_str().unwrap(), "--format", "json"]);
    let (replay_report, replay_code) = run(replay_args.clone());
    assert_eq!(replay_code, 0, "{replay_report}");
    let replay_json = parse_json(&replay_report);
    assert_eq!(
        replay_json.get("command").and_then(JsonValue::as_str),
        Some("journal-replay")
    );
    assert_eq!(
        replay_json.get("truncated"),
        Some(&JsonValue::Bool(false)),
        "a complete log is machine-readably marked un-truncated"
    );

    // The delta stream is identical across all three commands — byte for
    // byte, structured witnesses included — and the replayed final reports
    // match the original run's.
    let deltas = |json: &JsonValue| json.get("deltas").expect("deltas array").render();
    let reports = |json: &JsonValue| json.get("reports").expect("reports array").render();
    assert_eq!(deltas(&batch_json), deltas(&record_json));
    assert_eq!(deltas(&batch_json), deltas(&replay_json));
    assert_eq!(reports(&batch_json), reports(&record_json));
    assert_eq!(reports(&batch_json), reports(&replay_json));
    assert_eq!(batch_json.get("total"), replay_json.get("total"));
    assert_eq!(batch_json.get("clean"), replay_json.get("clean"));

    // A torn tail (crash mid-append) drops only the final record — here
    // the final commit: replay still succeeds on the durable prefix.
    let full = fs::read(&f.log).unwrap();
    fs::write(&f.log, &full[..full.len() - 2]).unwrap();
    let (torn_report, torn_code) = run(replay_args);
    assert!(torn_code <= 1, "{torn_report}");
    let torn_json = parse_json(&torn_report);
    assert_eq!(
        torn_json.get("truncated"),
        Some(&JsonValue::Bool(true)),
        "JSON consumers must see that a commit was torn off"
    );
    let torn_deltas = torn_json
        .get("deltas")
        .and_then(JsonValue::as_array)
        .unwrap();
    let full_deltas = batch_json
        .get("deltas")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(torn_deltas.len(), full_deltas.len() - 1);
    assert_eq!(
        JsonValue::Array(torn_deltas.to_vec()).render(),
        JsonValue::Array(full_deltas[..torn_deltas.len()].to_vec()).render(),
        "the durable prefix replays unchanged"
    );
    fs::remove_file(&f.log).ok();
}

#[test]
fn replay_rejects_the_wrong_spec_and_garbage_logs() {
    let f = fixture();
    let (report, code) = run([
        "journal",
        "record",
        "--dtd",
        f.dtd.to_str().unwrap(),
        "--constraints",
        f.sigma.to_str().unwrap(),
        "--manifest",
        f.manifest.to_str().unwrap(),
        "--script",
        f.script.to_str().unwrap(),
        "--log",
        f.log.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{report}");

    // Same DTD, different Σ ⇒ different SpecId ⇒ structured rejection.
    let other_sigma = temp_file("other.xic", "");
    let (report, code) = run([
        "journal",
        "replay",
        "--dtd",
        f.dtd.to_str().unwrap(),
        "--constraints",
        other_sigma.to_str().unwrap(),
        "--log",
        f.log.to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "{report}");
    assert!(report.contains("journal error"), "{report}");
    assert!(report.contains("belongs to"), "{report}");

    // Garbage is not a journal.
    let garbage = temp_file("garbage.xicj", "not a journal at all");
    let (report, code) = run([
        "journal",
        "replay",
        "--dtd",
        f.dtd.to_str().unwrap(),
        "--constraints",
        f.sigma.to_str().unwrap(),
        "--log",
        garbage.to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "{report}");
    assert!(report.contains("not a journal"), "{report}");

    // Usage errors name the missing pieces.
    let (report, code) = run(["journal"]);
    assert_eq!(code, 2);
    assert!(report.contains("record, replay or inspect"), "{report}");
    let (report, code) = run(["journal", "frobnicate"]);
    assert_eq!(code, 2);
    assert!(report.contains("frobnicate"), "{report}");
    fs::remove_file(&f.log).ok();
}

#[test]
fn inspect_describes_every_record_kind() {
    let f = fixture();
    let (report, code) = run([
        "journal",
        "record",
        "--dtd",
        f.dtd.to_str().unwrap(),
        "--constraints",
        f.sigma.to_str().unwrap(),
        "--manifest",
        f.manifest.to_str().unwrap(),
        "--script",
        f.script.to_str().unwrap(),
        "--log",
        f.log.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{report}");
    // Recording never clobbers an existing log.
    let (report, code) = run([
        "journal",
        "record",
        "--dtd",
        f.dtd.to_str().unwrap(),
        "--constraints",
        f.sigma.to_str().unwrap(),
        "--script",
        f.script.to_str().unwrap(),
        "--log",
        f.log.to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "{report}");

    // Inspect needs no spec at all.
    let (report, code) = run(["journal", "inspect", "--log", f.log.to_str().unwrap()]);
    assert_eq!(code, 0, "{report}");
    assert!(report.contains("(format v3)"), "{report}");
    assert!(!report.contains("kind:"), "{report}");
    assert!(report.contains("spec: spec-"), "{report}");
    assert!(report.contains("commit 1"), "{report}");
    assert!(report.contains(" open "), "{report}");
    assert!(report.contains(" close "), "{report}");

    // Edits render in the script syntax — the human-readable twin — under
    // the label their `open` record gave, resolving names through --dtd.
    let session_log = {
        use xic_engine::{CompiledSpec, CorpusSession};
        use xic_xml::EditOp;
        let spec =
            CompiledSpec::from_sources(SCHOOL_DTD, Some("school"), "teacher.name -> teacher")
                .unwrap();
        let mut session = CorpusSession::new(&spec);
        let doc = session
            .open_source("doc", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let teacher = session.tree(doc).unwrap().elements().nth(1).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!(
            "xic-journal-cli-{}-{:?}-session.xicj",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_file(&path).ok();
        session.persist_to(&path).unwrap();
        for value in ["Sue", "Ann"] {
            session
                .apply(
                    doc,
                    &[EditOp::SetAttr {
                        element: teacher,
                        attr: name,
                        value: value.into(),
                    }],
                )
                .unwrap();
            session.persist_to(&path).unwrap();
        }
        path
    };
    let (report, code) = run([
        "journal",
        "inspect",
        "--log",
        session_log.to_str().unwrap(),
        "--dtd",
        f.dtd.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{report}");
    assert!(report.contains("open doc as doc-0"), "{report}");
    assert!(report.contains("set doc 1 name Ann"), "{report}");

    // JSON inspection round-trips through the CLI's own parser.
    let (json_report, code) = run([
        "journal",
        "inspect",
        "--log",
        session_log.to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert_eq!(code, 0, "{json_report}");
    let parsed = parse_json(&json_report);
    assert_eq!(JsonValue::parse(&parsed.render()).unwrap(), parsed);
    assert_eq!(parsed.get("kind"), None);
    let records = parsed.get("records").and_then(JsonValue::as_array).unwrap();
    assert_eq!(records.len(), 3);
    assert_eq!(
        records[0].get("kind").and_then(JsonValue::as_str),
        Some("open")
    );
    // Without a DTD the op renders with raw ids.
    assert_eq!(
        records[2].get("detail").and_then(JsonValue::as_str),
        Some("set doc 1 @0 Ann")
    );
    assert_eq!(parsed.get("torn_bytes"), Some(&JsonValue::Number(0.0)));
    assert_eq!(parsed.get("corrupt"), Some(&JsonValue::Null));

    // Mid-log corruption is reported (exit 1) but the prefix still prints.
    let mut bytes = fs::read(&f.log).unwrap();
    let flip = 24 + 20; // inside the first record's payload
    bytes[flip] ^= 0xFF;
    fs::write(&f.log, &bytes).unwrap();
    let (report, code) = run(["journal", "inspect", "--log", f.log.to_str().unwrap()]);
    assert_eq!(code, 1, "{report}");
    assert!(report.contains("CORRUPT"), "{report}");
    fs::remove_file(&f.log).ok();
    fs::remove_file(&session_log).ok();
}
