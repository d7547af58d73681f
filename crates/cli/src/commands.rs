//! The CLI subcommands.
//!
//! Every command is a plain function from parsed inputs to a
//! [`CommandOutcome`]; `main` only does I/O, so the whole front end is
//! testable without spawning processes.

use std::collections::HashMap;
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use xic_constraints::{
    check_document, parse_constraint, parse_constraint_set, ConstraintClass, ConstraintSet,
};
use xic_coord::{CoordConfig, CoordError, Coordinator};
use xic_core::{
    diagnose as diagnose_spec, CardinalitySystem, CheckerConfig, ConsistencyChecker,
    ConsistencyOutcome, Diagnosis, ImplicationChecker, SystemOptions,
};
use xic_dtd::{analyze, parse_dtd, Dtd};
use xic_engine::journal::{inspect_log, read_log, FORMAT_VERSION};
use xic_engine::{
    BatchDelta, BatchDoc, BatchEngine, BatchReport, CompiledSpec, CorpusReplica, CorpusSession,
    DocHandle, EngineMetrics, Limits, SessionError, SpecId,
};
use xic_server::{Client, ClientError, Server, ServerConfig};
use xic_telemetry::RegistrySnapshot;
use xic_xml::{
    parse_document_budgeted, validate, write_document, EditOp, NodeId, ParseError, XmlTree,
};

use crate::args::ParsedArgs;
use crate::error::CliError;
use crate::json::JsonValue;
use crate::report::{delta_json, doc_report_json, violation_json};

/// The report format selected by `--format` (plain text by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReportFormat {
    Text,
    Json,
}

fn report_format(args: &ParsedArgs) -> Result<ReportFormat, CliError> {
    match args.get("format") {
        // `--json` is an alias of `--format json`; an explicit `--format`
        // wins when both are given.
        None => Ok(if args.has_flag("json") {
            ReportFormat::Json
        } else {
            ReportFormat::Text
        }),
        Some("text") => Ok(ReportFormat::Text),
        Some("json") => Ok(ReportFormat::Json),
        Some(other) => Err(CliError::Usage(format!(
            "option `--format` expects `text` or `json`, got `{other}`"
        ))),
    }
}

/// The result of running a subcommand: a human-readable report plus the
/// process exit code (`0` positive verdict, `1` negative verdict, `2`
/// unknown / error).
#[derive(Debug, Clone)]
pub struct CommandOutcome {
    /// The report to print on stdout.
    pub report: String,
    /// The process exit code.
    pub exit_code: i32,
}

impl CommandOutcome {
    fn new(report: String, exit_code: i32) -> CommandOutcome {
        CommandOutcome { report, exit_code }
    }
}

/// Loads and parses a DTD file; `--root` overrides the root element type.
pub fn load_dtd(path: &str, root: Option<&str>) -> Result<Dtd, CliError> {
    let text = read_file(path)?;
    parse_dtd(&text, root).map_err(|e| CliError::Dtd(format!("{path}: {e}")))
}

/// Loads and parses a constraint file over an already-parsed DTD.
pub fn load_constraints(path: &str, dtd: &Dtd) -> Result<ConstraintSet, CliError> {
    let text = read_file(path)?;
    parse_constraint_set(&text, dtd).map_err(|e| CliError::Constraints(format!("{path}: {e}")))
}

fn read_file(path: &str) -> Result<String, CliError> {
    fs::read_to_string(Path::new(path)).map_err(|source| CliError::Io {
        path: path.to_string(),
        source,
    })
}

/// The resource limits selected by `--max-nodes`, `--max-depth` and
/// `--deadline-ms` (all unlimited by default).  Shared by `validate`,
/// `batch` and `journal record`.
fn limits_from_args(args: &ParsedArgs) -> Result<Limits, CliError> {
    Ok(Limits {
        max_doc_nodes: args.get_usize("max-nodes")?,
        max_depth: args.get_usize("max-depth")?,
        deadline: args
            .get_usize("deadline-ms")?
            .map(|ms| Duration::from_millis(ms as u64)),
        ..Limits::UNLIMITED
    })
}

/// Maps a session/corpus error onto the CLI taxonomy: resource rejections
/// exit 3, contained faults (poisoned documents) exit 4, everything else is
/// a document error (exit 2).
fn session_error(context: &str, e: &SessionError) -> CliError {
    match e {
        SessionError::Resource(r) => CliError::Resource(format!("{context}: {r}")),
        SessionError::Poisoned { .. } => CliError::Fault(format!("{context}: {e}")),
        _ => CliError::Document(format!("{context}: {e}")),
    }
}

/// Maps a wire client error onto the same CLI taxonomy: the server's
/// structured fault records carry the exit code on the wire (3 resource,
/// 4 contained fault, 2 everything else), transport failures are I/O
/// errors, and protocol surprises are document errors.
fn client_error(context: &str, e: ClientError) -> CliError {
    match e {
        ClientError::Fault(fault) => match fault.exit_code() {
            3 => CliError::Resource(format!("{context}: {fault}")),
            4 => CliError::Fault(format!("{context}: {fault}")),
            _ => CliError::Document(format!("{context}: {fault}")),
        },
        ClientError::Io(source) => CliError::Io {
            path: context.to_string(),
            source,
        },
        other => CliError::Document(format!("{context}: {other}")),
    }
}

/// Maps a coordinator error onto the CLI taxonomy, preserving the exit
/// code the coordinator derived (worker faults keep their wire code; a
/// lost worker is a contained fault, exit 4 — recover-or-reject).
fn coord_error(context: &str, e: CoordError) -> CliError {
    match e.exit_code() {
        3 => CliError::Resource(format!("{context}: {e}")),
        4 => CliError::Fault(format!("{context}: {e}")),
        _ => match e {
            CoordError::Io {
                context: path,
                source,
            } => CliError::Io { path, source },
            other => CliError::Document(format!("{context}: {other}")),
        },
    }
}

/// Parses a document under the CLI resource limits, mapping a tripped
/// budget to [`CliError::Resource`] (exit 3) rather than a document error.
fn parse_limited(text: &str, dtd: &Dtd, limits: &Limits, path: &str) -> Result<XmlTree, CliError> {
    parse_document_budgeted(text, dtd, &limits.parse_budget()).map_err(|err| match err {
        ParseError::Xml(e) => CliError::Document(format!("{path}: {e}")),
        ParseError::Budget(b) => CliError::Resource(format!("{path}: {b}")),
    })
}

fn checker_config(args: &ParsedArgs) -> CheckerConfig {
    CheckerConfig {
        synthesize_witness: !args.has_flag("no-witness"),
        ..Default::default()
    }
}

fn spec_inputs(args: &ParsedArgs) -> Result<(Dtd, ConstraintSet), CliError> {
    let dtd = load_dtd(args.require("dtd")?, args.get("root"))?;
    let sigma = match args.get("constraints") {
        Some(path) => load_constraints(path, &dtd)?,
        None => ConstraintSet::new(),
    };
    Ok((dtd, sigma))
}

/// Renders a frozen metrics registry as the JSON `metrics` member: one
/// object each for counters, gauges and histograms (histograms as
/// `{count, sum, max, p50, p90, p99}` summaries, latency values in
/// nanoseconds as recorded).
fn snapshot_json(snapshot: &RegistrySnapshot) -> JsonValue {
    let counters = JsonValue::Object(
        snapshot
            .counters
            .iter()
            .map(|c| (c.name.clone(), JsonValue::Number(c.value as f64)))
            .collect(),
    );
    let gauges = JsonValue::Object(
        snapshot
            .gauges
            .iter()
            .map(|g| (g.name.clone(), JsonValue::Number(g.value as f64)))
            .collect(),
    );
    let histograms = JsonValue::Object(
        snapshot
            .histograms
            .iter()
            .map(|h| {
                (
                    h.name.clone(),
                    JsonValue::object(vec![
                        ("count", JsonValue::Number(h.count as f64)),
                        ("sum", JsonValue::Number(h.sum as f64)),
                        ("max", JsonValue::Number(h.max as f64)),
                        ("p50", JsonValue::Number(h.p50 as f64)),
                        ("p90", JsonValue::Number(h.p90 as f64)),
                        ("p99", JsonValue::Number(h.p99 as f64)),
                    ]),
                )
            })
            .collect(),
    );
    JsonValue::object(vec![
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ])
}

/// The `--metrics` JSON block: the process-global engine registry, frozen.
fn metrics_json() -> JsonValue {
    snapshot_json(&EngineMetrics::capture_global().snapshot)
}

/// The `--metrics` text block: a `metrics:` header plus the aligned
/// instrument table, indented two spaces.
fn metrics_text() -> String {
    let mut block = String::from("metrics:\n");
    for line in EngineMetrics::capture_global().render_text().lines() {
        block.push_str("  ");
        block.push_str(line);
        block.push('\n');
    }
    block
}

/// `xic check` — static consistency analysis of a specification.
pub fn check(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    let (dtd, sigma) = spec_inputs(args)?;
    let checker = ConsistencyChecker::with_config(checker_config(args));
    let outcome = checker
        .check(&dtd, &sigma)
        .map_err(|e| CliError::Spec(e.to_string()))?;

    let mut report = String::new();
    report.push_str(&format!(
        "specification: {} element types, {} attributes, {} constraints\n",
        dtd.num_types(),
        dtd.num_attrs(),
        sigma.len()
    ));
    if let Some(class) = sigma.smallest_class() {
        report.push_str(&format!("constraint class: {}\n", class.paper_name()));
    }
    let (verdict, code) = match &outcome {
        ConsistencyOutcome::Consistent { .. } => ("CONSISTENT", 0),
        ConsistencyOutcome::Inconsistent { .. } => ("INCONSISTENT", 1),
        ConsistencyOutcome::Unknown { .. } => ("UNKNOWN", 2),
    };
    report.push_str(&format!("verdict: {verdict}\n"));
    report.push_str(&format!("reason: {}\n", outcome.explanation()));
    if let Some(witness) = outcome.witness() {
        if let Some(out_path) = args.get("witness-out") {
            let doc = write_document(witness, &dtd);
            fs::write(out_path, &doc).map_err(|source| CliError::Io {
                path: out_path.to_string(),
                source,
            })?;
            report.push_str(&format!("witness document written to {out_path}\n"));
        } else if !args.has_flag("quiet") {
            report.push_str("witness document:\n");
            report.push_str(&write_document(witness, &dtd));
            if !report.ends_with('\n') {
                report.push('\n');
            }
        }
    }
    Ok(CommandOutcome::new(report, code))
}

/// `xic implies` — does the specification imply the queried constraint?
pub fn implies(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    let (dtd, sigma) = spec_inputs(args)?;
    let query = args.require("query")?;
    let phi = parse_constraint(query, &dtd)
        .map_err(|e| CliError::Constraints(format!("--query: {e}")))?;
    let checker = ImplicationChecker::with_config(checker_config(args));
    let outcome = checker
        .implies(&dtd, &sigma, &phi)
        .map_err(|e| CliError::Spec(e.to_string()))?;

    let mut report = String::new();
    report.push_str(&format!("query: {}\n", phi.render(&dtd)));
    let code = if outcome.is_implied() {
        report.push_str("verdict: IMPLIED\n");
        0
    } else if outcome.is_not_implied() {
        report.push_str("verdict: NOT IMPLIED\n");
        1
    } else {
        report.push_str("verdict: UNKNOWN\n");
        2
    };
    report.push_str(&format!("reason: {}\n", outcome.explanation()));
    if let Some(counterexample) = outcome.counterexample() {
        if !args.has_flag("quiet") {
            report.push_str("counterexample document:\n");
            report.push_str(&write_document(counterexample, &dtd));
            if !report.ends_with('\n') {
                report.push('\n');
            }
        }
    }
    Ok(CommandOutcome::new(report, code))
}

/// `xic validate` — dynamic validation of a document against DTD and Σ.
pub fn validate_doc(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    let format = report_format(args)?;
    let (dtd, sigma) = spec_inputs(args)?;
    let limits = limits_from_args(args)?;
    let doc_path = args.require("doc")?;
    let text = read_file(doc_path)?;
    let tree = parse_limited(&text, &dtd, &limits, doc_path)?;

    let structural = validate(&tree, &dtd);
    let violations = check_document(&dtd, &tree, &sigma);
    if format == ReportFormat::Json {
        let ok = structural.is_empty() && violations.is_empty();
        let mut fields = vec![
            ("command", JsonValue::string("validate")),
            ("doc", JsonValue::string(doc_path)),
            ("nodes", JsonValue::int(tree.num_nodes())),
            ("elements", JsonValue::int(tree.elements().count())),
            (
                "structure_errors",
                JsonValue::strings(structural.iter().map(|e| e.to_string())),
            ),
            (
                "violations",
                JsonValue::Array(violations.iter().map(violation_json).collect()),
            ),
            ("clean", JsonValue::Bool(ok)),
        ];
        if args.has_flag("metrics") {
            fields.push(("metrics", metrics_json()));
        }
        let json = JsonValue::object(fields);
        let mut report = json.render();
        report.push('\n');
        return Ok(CommandOutcome::new(report, if ok { 0 } else { 1 }));
    }

    let mut report = String::new();
    report.push_str(&format!(
        "document: {} nodes ({} elements)\n",
        tree.num_nodes(),
        tree.elements().count()
    ));
    if structural.is_empty() {
        report.push_str("structure: conforms to the DTD\n");
    } else {
        for e in &structural {
            report.push_str(&format!("structure error: {e}\n"));
        }
    }
    if violations.is_empty() {
        report.push_str("constraints: all satisfied\n");
    } else {
        for v in &violations {
            report.push_str(&format!("constraint violation: {}\n", v.constraint()));
        }
        // The paper's motivation for static checks: tell data problems apart
        // from meaningless specifications.
        let checker = ConsistencyChecker::with_config(CheckerConfig {
            synthesize_witness: false,
            ..Default::default()
        });
        if let Ok(outcome) = checker.check(&dtd, &sigma) {
            if outcome.is_inconsistent() {
                report.push_str(
                    "note: the specification itself is inconsistent — no document can ever \
                     satisfy it; fix the specification, not the data\n",
                );
            } else if outcome.is_consistent() {
                report.push_str(
                    "note: the specification is consistent, so these are data problems\n",
                );
            }
        }
    }
    if args.has_flag("metrics") {
        report.push_str(&metrics_text());
    }
    let ok = structural.is_empty() && violations.is_empty();
    Ok(CommandOutcome::new(report, if ok { 0 } else { 1 }))
}

/// `xic diagnose` — explain an inconsistent specification by extracting a
/// minimal inconsistent core of its constraints.
pub fn diagnose(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    let (dtd, sigma) = spec_inputs(args)?;
    let config = CheckerConfig {
        synthesize_witness: false,
        ..Default::default()
    };
    let diagnosis =
        diagnose_spec(&dtd, &sigma, &config).map_err(|e| CliError::Spec(e.to_string()))?;
    let code = match &diagnosis {
        Diagnosis::Consistent => 0,
        Diagnosis::DtdUnsatisfiable | Diagnosis::Core { .. } => 1,
        Diagnosis::Unknown { .. } => 2,
    };
    let mut report = diagnosis.render(&dtd);
    if !report.ends_with('\n') {
        report.push('\n');
    }
    Ok(CommandOutcome::new(report, code))
}

/// `xic classify` — report the constraint class and applicable procedures.
pub fn classify(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    let (dtd, sigma) = spec_inputs(args)?;
    sigma
        .validate(&dtd)
        .map_err(|e| CliError::Spec(format!("{e:?}")))?;
    let mut report = String::new();
    report.push_str(&format!("constraints ({}):\n", sigma.len()));
    for c in sigma.iter() {
        report.push_str(&format!("  {}\n", c.render(&dtd)));
    }
    match sigma.smallest_class() {
        Some(class) => {
            report.push_str(&format!("class: {}\n", class.paper_name()));
            let (consistency, implication) = complexity_of(class);
            report.push_str(&format!("consistency: {consistency}\n"));
            report.push_str(&format!("implication: {implication}\n"));
        }
        None => report.push_str("class: (empty constraint set)\n"),
    }
    report.push_str(&format!(
        "primary-key restriction: {}\n",
        if sigma.satisfies_primary_key_restriction() {
            "satisfied"
        } else {
            "violated"
        }
    ));
    Ok(CommandOutcome::new(report, 0))
}

/// The paper's Figure 5 row for a constraint class.
fn complexity_of(class: ConstraintClass) -> (&'static str, &'static str) {
    match class {
        ConstraintClass::KeysOnly => ("decidable in linear time (Theorem 3.5)", {
            "decidable in linear time (Theorem 3.5)"
        }),
        ConstraintClass::UnaryKeyForeignKey => (
            "NP-complete (Theorem 4.7); decided exactly via integer programming",
            "coNP-complete (Theorem 4.10); decided exactly via integer programming",
        ),
        ConstraintClass::UnaryKeyInclusion => (
            "NP-complete (Theorem 4.1/4.7); decided exactly via integer programming",
            "coNP-complete (Theorem 5.4); decided exactly via integer programming",
        ),
        ConstraintClass::UnaryKeyNegInclusion => {
            ("NP-complete (Corollary 4.9)", "coNP-complete (Theorem 5.4)")
        }
        ConstraintClass::UnaryKeyNegInclusionNeg => {
            ("NP-complete (Theorem 5.1)", "coNP-complete (Theorem 5.4)")
        }
        ConstraintClass::MultiKeyForeignKey => (
            "undecidable (Theorem 3.1); sound bounded search only",
            "undecidable (Corollary 3.4); sound bounded search only",
        ),
    }
}

/// `xic explain` — print the DTD analysis and the cardinality system.
pub fn explain(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    let (dtd, sigma) = spec_inputs(args)?;
    let mut report = String::new();
    report.push_str("== DTD ==\n");
    report.push_str(&dtd.render());
    if !report.ends_with('\n') {
        report.push('\n');
    }
    let analysis = analyze(&dtd);
    report.push_str(&format!(
        "satisfiable: {}\n",
        if analysis.satisfiable() {
            "yes"
        } else {
            "no — no finite document conforms"
        }
    ));
    for ty in dtd.types() {
        report.push_str(&format!(
            "  {}: occurs {}\n",
            dtd.type_name(ty),
            if analysis.can_occur_twice(ty) {
                "any number of times"
            } else if analysis.can_occur(ty) {
                "at most once"
            } else {
                "never"
            }
        ));
    }
    report.push_str("\n== cardinality system Ψ(D,Σ) ==\n");
    if sigma.iter().all(|c| c.is_unary()) {
        match CardinalitySystem::build(&dtd, &sigma, &SystemOptions::default()) {
            Ok(system) => {
                report.push_str(&format!(
                    "{} variables, {} linear constraints, {} conditionals\n",
                    system.program().num_vars(),
                    system.program().num_constraints(),
                    system.program().num_conditionals()
                ));
                report.push_str(&system.render(&dtd, &sigma));
            }
            Err(e) => report.push_str(&format!("not available: {e}\n")),
        }
    } else {
        report.push_str(
            "not available: the specification contains multi-attribute constraints, for which \
             consistency is undecidable (Theorem 3.1)\n",
        );
    }
    if !report.ends_with('\n') {
        report.push('\n');
    }
    Ok(CommandOutcome::new(report, 0))
}

/// `xic batch` — validate every document named by a manifest file against
/// one compiled specification, in parallel.
///
/// The manifest lists one document path per line (blank lines and `#`
/// comments are skipped); relative paths resolve against the manifest's
/// directory.  The specification is compiled once ([`CompiledSpec`]) and the
/// documents are spread over a worker pool (`--threads`, default: the
/// machine's parallelism).  The per-document report is ordered by manifest
/// position regardless of the thread count.
pub fn batch(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    let format = report_format(args)?;
    let (dtd, sigma) = spec_inputs(args)?;
    let limits = limits_from_args(args)?;
    let spec = CompiledSpec::compile_with(dtd, sigma, checker_config(args))
        .map_err(|e| CliError::Spec(e.to_string()))?;

    let docs = match args.get("manifest") {
        Some(path) => load_manifest(path)?,
        None => {
            // `--session` scripts can open their own documents; plain
            // batch runs need the manifest.
            if args.get("session").is_none() {
                args.require("manifest")?;
            }
            Vec::new()
        }
    };

    if let Some(script_path) = args.get("session") {
        return batch_session(
            &spec,
            docs,
            script_path,
            limits,
            format,
            args.has_flag("quiet"),
            args.has_flag("metrics"),
        );
    }

    let threads = match args.get_usize("threads")? {
        Some(threads) => threads,
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    let engine = BatchEngine::with_limits(threads, limits);
    let report_data = engine.validate_batch(&spec, &docs);
    let code = batch_exit_code(&report_data);

    if format == ReportFormat::Json {
        let reports: Vec<JsonValue> = report_data.reports().iter().map(doc_report_json).collect();
        let mut fields = vec![
            ("command", JsonValue::string("batch")),
            ("spec", JsonValue::string(spec.id().to_string())),
            ("total", JsonValue::int(report_data.total())),
            ("clean", JsonValue::int(report_data.clean_count())),
            ("reports", JsonValue::Array(reports)),
        ];
        if args.has_flag("metrics") {
            fields.push(("metrics", metrics_json()));
        }
        let json = JsonValue::object(fields);
        let mut report = json.render();
        report.push('\n');
        return Ok(CommandOutcome::new(report, code));
    }

    let mut report = String::new();
    report.push_str(&format!(
        "spec {}: {} constraints over {} element types\n",
        spec.id(),
        spec.sigma().len(),
        spec.dtd().num_types()
    ));
    if !args.has_flag("quiet") {
        report.push_str(&report_data.render());
    } else {
        report.push_str(&format!(
            "{}/{} documents clean\n",
            report_data.clean_count(),
            report_data.total()
        ));
    }
    if args.has_flag("metrics") {
        report.push_str(&metrics_text());
    }
    Ok(CommandOutcome::new(report, code))
}

/// The batch exit code, most severe condition first: a contained panic
/// (`4`) outranks a resource rejection (`3`), which outranks a plain
/// validation failure (`1`).
fn batch_exit_code(report: &BatchReport) -> i32 {
    if report.panicked_count() > 0 {
        4
    } else if report.resource_rejected_count() > 0 {
        3
    } else if report.clean_count() == report.total() {
        0
    } else {
        1
    }
}

/// Reads a batch manifest: one document path per line, blank lines and `#`
/// comments skipped, relative paths resolved against the manifest's
/// directory.
fn load_manifest(manifest_path: &str) -> Result<Vec<BatchDoc>, CliError> {
    let manifest = read_file(manifest_path)?;
    let base = Path::new(manifest_path)
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default();
    let mut docs = Vec::new();
    for line in manifest.lines() {
        let entry = line.trim();
        if entry.is_empty() || entry.starts_with('#') {
            continue;
        }
        let path = base.join(entry);
        let content = read_file(&path.to_string_lossy())?;
        docs.push(BatchDoc::new(entry, content));
    }
    Ok(docs)
}

/// The session surface the shared `--script` grammar drives: a local
/// [`CorpusSession`] (`xic batch --session`, `xic journal record`), a wire
/// [`Client`] (`xic connect`) or a multi-process [`Coordinator`]
/// (`xic coord`) — one grammar, one runner, three transports.
trait ScriptTarget {
    /// How the target addresses an open document.
    type Handle: Copy;
    /// The documents open before the script runs, by label: those a
    /// resumed remote session's commits announced.  Local targets start
    /// empty.
    fn open_docs(&mut self) -> Result<Vec<(String, Self::Handle)>, CliError> {
        Ok(Vec::new())
    }
    fn open_doc(&mut self, ctx: &str, label: &str, source: &str) -> Result<Self::Handle, CliError>;
    fn apply(&mut self, ctx: &str, handle: Self::Handle, op: &EditOp) -> Result<(), CliError>;
    fn close_doc(&mut self, ctx: &str, handle: Self::Handle) -> Result<(), CliError>;
    fn commit(&mut self, ctx: &str) -> Result<BatchDelta, CliError>;
}

impl ScriptTarget for CorpusSession<'_> {
    type Handle = DocHandle;

    fn open_doc(&mut self, _ctx: &str, label: &str, source: &str) -> Result<DocHandle, CliError> {
        // A local open error names the document, not the script line.
        CorpusSession::open_source(self, label, source).map_err(|e| session_error(label, &e))
    }

    fn apply(&mut self, ctx: &str, handle: DocHandle, op: &EditOp) -> Result<(), CliError> {
        CorpusSession::apply(self, handle, std::slice::from_ref(op))
            .map_err(|e| session_error(ctx, &e))
    }

    fn close_doc(&mut self, _ctx: &str, handle: DocHandle) -> Result<(), CliError> {
        CorpusSession::close(self, handle)
            .map(|_| ())
            .map_err(|e| CliError::Document(e.to_string()))
    }

    fn commit(&mut self, ctx: &str) -> Result<BatchDelta, CliError> {
        // `try_commit` honors the session deadline; an aborted commit keeps
        // its progress staged, but a script cannot retry on its own, so the
        // rejection surfaces as exit 3.
        self.try_commit()
            .map_err(|e| CliError::Resource(format!("{ctx}: {e}")))
    }
}

impl ScriptTarget for Client {
    type Handle = u64;

    fn open_docs(&mut self) -> Result<Vec<(String, u64)>, CliError> {
        let mut replica = CorpusReplica::new(self.hello().spec);
        self.sync_replica(&mut replica)
            .map_err(|e| client_error("sync", e))?;
        Ok(replica
            .docs()
            .map(|(handle, report)| (report.label.clone(), handle.raw()))
            .collect())
    }

    fn open_doc(&mut self, ctx: &str, label: &str, source: &str) -> Result<u64, CliError> {
        Client::open_doc(self, label, source).map_err(|e| client_error(ctx, e))
    }

    fn apply(&mut self, ctx: &str, handle: u64, op: &EditOp) -> Result<(), CliError> {
        Client::apply(self, handle, std::slice::from_ref(op))
            .map(|_| ())
            .map_err(|e| client_error(ctx, e))
    }

    fn close_doc(&mut self, ctx: &str, handle: u64) -> Result<(), CliError> {
        Client::close_doc(self, handle)
            .map(|_| ())
            .map_err(|e| client_error(ctx, e))
    }

    fn commit(&mut self, ctx: &str) -> Result<BatchDelta, CliError> {
        Client::commit(self).map_err(|e| client_error(ctx, e))
    }
}

impl ScriptTarget for Coordinator {
    type Handle = u64;

    fn open_doc(&mut self, ctx: &str, label: &str, source: &str) -> Result<u64, CliError> {
        Coordinator::open_doc(self, label, source).map_err(|e| coord_error(ctx, e))
    }

    fn apply(&mut self, ctx: &str, handle: u64, op: &EditOp) -> Result<(), CliError> {
        Coordinator::apply(self, handle, std::slice::from_ref(op)).map_err(|e| coord_error(ctx, e))
    }

    fn close_doc(&mut self, ctx: &str, handle: u64) -> Result<(), CliError> {
        Coordinator::close_doc(self, handle)
            .map(|_| ())
            .map_err(|e| coord_error(ctx, e))
    }

    fn commit(&mut self, ctx: &str) -> Result<BatchDelta, CliError> {
        Coordinator::commit(self).map_err(|e| coord_error(ctx, e))
    }
}

/// Drives an edit script against a [`ScriptTarget`]: the one runner behind
/// `xic batch --session`, `xic journal record`, `xic connect --script` and
/// `xic coord --script`, so the same script produces the same delta stream
/// on every transport.
///
/// The manifest documents `docs` (if any) are opened first, under their
/// manifest labels; the script then issues one directive per line (blank
/// lines and `#` comments skipped; `<node>` is a node id as printed in JSON
/// witnesses):
///
/// ```text
/// open   <label> <path>            # parse a document and open it
/// set    <label> <node> <attr> <value…>
/// add    <label> <parent-node> <element-type>
/// text   <label> <parent-node> <value…>
/// remove <label> <node>
/// close  <label>
/// commit                           # emit the delta since the last commit
/// ```
///
/// Every `commit` emits one delta (only edited documents are re-checked); a
/// trailing commit is implied if the script ends with uncommitted actions.
/// This script syntax is the human-readable twin of the binary journal:
/// `xic journal record` turns a run of it into a corpus log, and
/// `xic journal inspect` renders its `apply` records back in the same
/// syntax.
fn run_script<T: ScriptTarget>(
    spec: &CompiledSpec,
    target: &mut T,
    docs: Vec<BatchDoc>,
    script_path: &str,
) -> Result<Vec<BatchDelta>, CliError> {
    let script = read_file(script_path)?;
    let base = Path::new(script_path)
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default();

    let mut handles: HashMap<String, T::Handle> = target.open_docs()?.into_iter().collect();
    for doc in docs {
        let handle = target.open_doc(&doc.label, &doc.label, &doc.content)?;
        handles.insert(doc.label, handle);
    }
    let mut pending = !handles.is_empty();
    let mut deltas: Vec<BatchDelta> = Vec::new();

    for (lineno, line) in script.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: String| CliError::Usage(format!("{script_path}:{}: {msg}", lineno + 1));
        let ctx = format!("{script_path}:{}", lineno + 1);
        let mut words = line.split_whitespace();
        let directive = words.next().expect("non-empty line has a first word");
        match directive {
            "commit" => {
                let delta = target.commit(&ctx)?;
                deltas.push(delta);
                pending = false;
                continue;
            }
            "open" => {
                let label = words
                    .next()
                    .ok_or_else(|| err("`open` expects a label".into()))?;
                let path = words
                    .next()
                    .ok_or_else(|| err("`open` expects a path".into()))?;
                let content = read_file(&base.join(path).to_string_lossy())?;
                let handle = target.open_doc(&ctx, label, &content)?;
                handles.insert(label.to_string(), handle);
                pending = true;
                continue;
            }
            _ => {}
        }
        // Everything else targets an open document by label.
        let label = words
            .next()
            .ok_or_else(|| err(format!("`{directive}` expects a document label")))?;
        let &handle = handles
            .get(label)
            .ok_or_else(|| err(format!("no open document labelled `{label}`")))?;
        let mut node_arg = |what: &str| -> Result<NodeId, CliError> {
            let word = words
                .next()
                .ok_or_else(|| err(format!("`{directive}` expects a {what} node id")))?;
            word.parse::<u32>()
                .map(NodeId)
                .map_err(|_| err(format!("`{word}` is not a node id")))
        };
        let op = match directive {
            "set" => {
                let element = node_arg("target")?;
                let attr_name = words
                    .next()
                    .ok_or_else(|| err("`set` expects an attribute name".into()))?;
                let attr = spec
                    .dtd()
                    .attr_by_name(attr_name)
                    .ok_or_else(|| err(format!("unknown attribute `{attr_name}`")))?;
                let value = words.collect::<Vec<_>>().join(" ");
                EditOp::SetAttr {
                    element,
                    attr,
                    value,
                }
            }
            "add" => {
                let parent = node_arg("parent")?;
                let ty_name = words
                    .next()
                    .ok_or_else(|| err("`add` expects an element type".into()))?;
                let ty = spec
                    .dtd()
                    .type_by_name(ty_name)
                    .ok_or_else(|| err(format!("unknown element type `{ty_name}`")))?;
                EditOp::AddElement { parent, ty }
            }
            "text" => EditOp::AddText {
                parent: node_arg("parent")?,
                value: words.collect::<Vec<_>>().join(" "),
            },
            "remove" => EditOp::RemoveSubtree {
                element: node_arg("target")?,
            },
            "close" => {
                target.close_doc(&ctx, handle)?;
                handles.remove(label);
                pending = true;
                continue;
            }
            other => return Err(err(format!("unknown directive `{other}`"))),
        };
        target.apply(&format!("{ctx}: {label}"), handle, &op)?;
        pending = true;
    }
    if pending {
        let delta = target.commit(&format!("{script_path}: final commit"))?;
        deltas.push(delta);
    }
    Ok(deltas)
}
/// How a delta stream should be presented: the command identity, extra
/// JSON fields, and text-mode options (see [`render_delta_stream`]).
struct DeltaStreamView<'a> {
    command: &'a str,
    headline: &'a str,
    extra: &'a [(&'a str, JsonValue)],
    notes: &'a [String],
    format: ReportFormat,
    quiet: bool,
    /// Append the engine metrics block (`--metrics`).
    metrics: bool,
}

/// Renders a delta stream plus final reports — the shared output shape of
/// `xic batch --session`, `xic journal record` and `xic journal replay`.
/// The `deltas` and `reports` JSON arrays are rendered identically across
/// the three commands, so a recorded log replayed from disk reproduces the
/// original delta stream byte for byte.
fn render_delta_stream(
    view: &DeltaStreamView<'_>,
    spec: &CompiledSpec,
    deltas: &[BatchDelta],
    final_report: &xic_engine::BatchReport,
) -> CommandOutcome {
    let &DeltaStreamView {
        command,
        headline,
        extra,
        notes,
        format,
        quiet,
        metrics,
    } = view;
    // Same severity ladder as one-shot batch: contained faults (4) outrank
    // resource rejections (3) outrank validation failures (1).
    let code = batch_exit_code(final_report);

    if format == ReportFormat::Json {
        let mut fields = vec![
            ("command", JsonValue::string(command)),
            ("spec", JsonValue::string(spec.id().to_string())),
        ];
        for (key, value) in extra {
            fields.push((key, value.clone()));
        }
        fields.extend([
            (
                "deltas",
                JsonValue::Array(deltas.iter().map(delta_json).collect()),
            ),
            ("total", JsonValue::int(final_report.total())),
            ("clean", JsonValue::int(final_report.clean_count())),
            (
                "reports",
                JsonValue::Array(final_report.reports().iter().map(doc_report_json).collect()),
            ),
        ]);
        if metrics {
            fields.push(("metrics", metrics_json()));
        }
        let json = JsonValue::object(fields);
        let mut report = json.render();
        report.push('\n');
        return CommandOutcome::new(report, code);
    }

    let mut report = String::new();
    report.push_str(&format!(
        "spec {}: {headline} over {} commits\n",
        spec.id(),
        deltas.len()
    ));
    for note in notes {
        report.push_str(&format!("note: {note}\n"));
    }
    for delta in deltas {
        report.push_str(&format!(
            "commit {}: {}/{} documents clean ({} rechecked)\n",
            delta.seq, delta.clean, delta.total, delta.rechecked_docs
        ));
        for change in &delta.changes {
            report.push_str(&format!(
                "  ~ [{}] {}: {}\n",
                change.report.index,
                change.report.label,
                change.transition().label()
            ));
            if !quiet {
                for e in &change.report.validation_errors {
                    report.push_str(&format!("      invalid: {e}\n"));
                }
                for v in &change.report.violations {
                    report.push_str(&format!("      violation: {v}\n"));
                }
            }
        }
        for closed in &delta.closed {
            report.push_str(&format!(
                "  - closed {} ({})\n",
                closed.label, closed.handle
            ));
        }
    }
    report.push_str(&format!(
        "final: {}/{} documents clean\n",
        final_report.clean_count(),
        final_report.total()
    ));
    if metrics {
        report.push_str(&metrics_text());
    }
    CommandOutcome::new(report, code)
}

/// `xic batch --session SCRIPT` — replay an edit script over a corpus
/// session and report the [`BatchDelta`] of every commit (see
/// [`run_script`] for the directive syntax).  With `--format json`
/// the outcome is one object carrying the `deltas` stream and the final
/// per-document `reports`.
#[allow(clippy::too_many_arguments)]
fn batch_session(
    spec: &CompiledSpec,
    docs: Vec<BatchDoc>,
    script_path: &str,
    limits: Limits,
    format: ReportFormat,
    quiet: bool,
    metrics: bool,
) -> Result<CommandOutcome, CliError> {
    let mut corpus = CorpusSession::with_limits(spec, limits);
    let deltas = run_script(spec, &mut corpus, docs, script_path)?;
    let final_report = corpus.report();
    Ok(render_delta_stream(
        &DeltaStreamView {
            command: "batch-session",
            headline: "corpus session",
            extra: &[("script", JsonValue::string(script_path))],
            notes: &[],
            format,
            quiet,
            metrics,
        },
        spec,
        &deltas,
        &final_report,
    ))
}

/// `xic journal <record|replay|inspect>` — the durable-journal surface.
///
/// * `record` runs a session script (the `xic batch --session` directive
///   syntax — the human-readable twin of the binary log) and persists the
///   session to `--log` as a corpus log ([`CorpusSession::persist_to`]);
/// * `replay` feeds a recorded log's `commit` records to a
///   [`CorpusReplica`] and reproduces the original delta stream and final
///   reports — from the log alone, no document is re-shipped or re-parsed
///   (a torn tail from a crash is truncated and the durable prefix
///   replayed);
/// * `inspect` prints the self-describing header and per-record summary of
///   any journal file (`open` / `apply` / `close` / `commit` records, ops
///   rendered back in the script syntax; pass `--dtd` to resolve attribute
///   and element names).
pub fn journal(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    match args.positional.first().map(String::as_str) {
        Some("record") => journal_record(args),
        Some("replay") => journal_replay(args),
        Some("inspect") => journal_inspect(args),
        Some(other) => Err(CliError::Usage(format!(
            "unknown journal action `{other}` (expected record, replay or inspect)"
        ))),
        None => Err(CliError::Usage(
            "`journal` expects an action: record, replay or inspect".to_string(),
        )),
    }
}

fn journal_record(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    let format = report_format(args)?;
    let (dtd, sigma) = spec_inputs(args)?;
    let spec = CompiledSpec::compile_with(dtd, sigma, checker_config(args))
        .map_err(|e| CliError::Spec(e.to_string()))?;
    let docs = match args.get("manifest") {
        Some(path) => load_manifest(path)?,
        None => Vec::new(),
    };
    let script_path = args.require("script")?;
    let log_path = args.require("log")?;
    let mut corpus = CorpusSession::with_limits(&spec, limits_from_args(args)?);
    let deltas = run_script(&spec, &mut corpus, docs, script_path)?;
    let receipt = corpus
        .persist_to(log_path)
        .map_err(|e| CliError::Journal(format!("{log_path}: {e}")))?;
    let final_report = corpus.report();
    Ok(render_delta_stream(
        &DeltaStreamView {
            command: "journal-record",
            headline: "journal record",
            extra: &[
                ("script", JsonValue::string(script_path)),
                ("log", JsonValue::string(log_path)),
            ],
            notes: &[format!(
                "recorded {} records, {} of them commits ({} bytes), to {log_path}",
                receipt.records_written, receipt.commits_written, receipt.durable_bytes
            )],
            format,
            quiet: args.has_flag("quiet"),
            metrics: args.has_flag("metrics"),
        },
        &spec,
        &deltas,
        &final_report,
    ))
}

fn journal_replay(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    let format = report_format(args)?;
    let (dtd, sigma) = spec_inputs(args)?;
    let spec = CompiledSpec::compile_with(dtd, sigma, checker_config(args))
        .map_err(|e| CliError::Spec(e.to_string()))?;
    let log_path = args.require("log")?;
    let log =
        read_log(log_path, spec.id()).map_err(|e| CliError::Journal(format!("{log_path}: {e}")))?;
    let deltas: Vec<BatchDelta> = log.commits().cloned().collect();
    let mut replica = CorpusReplica::new(spec.id());
    replica
        .apply_deltas(&deltas)
        .map_err(|e| CliError::Journal(format!("{log_path}: {e}")))?;
    let final_report = replica.report();
    let mut notes = Vec::new();
    if log.truncated {
        notes.push(format!(
            "torn trailing record dropped; replayed the durable prefix ({} commits)",
            deltas.len()
        ));
    }
    Ok(render_delta_stream(
        &DeltaStreamView {
            command: "journal-replay",
            headline: "journal replay",
            // `truncated` is machine-readable: JSON consumers must be able
            // to tell a crash-truncated durable prefix from a complete log.
            extra: &[
                ("log", JsonValue::string(log_path)),
                ("truncated", JsonValue::Bool(log.truncated)),
            ],
            notes: &notes,
            format,
            quiet: args.has_flag("quiet"),
            metrics: args.has_flag("metrics"),
        },
        &spec,
        &deltas,
        &final_report,
    ))
}

fn journal_inspect(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    let format = report_format(args)?;
    let log_path = args.require("log")?;
    let dtd = match args.get("dtd") {
        Some(path) => Some(load_dtd(path, args.get("root"))?),
        None => None,
    };
    let summary = inspect_log(log_path, dtd.as_ref())
        .map_err(|e| CliError::Journal(format!("{log_path}: {e}")))?;
    let damaged = summary.corrupt.is_some();

    if format == ReportFormat::Json {
        let records: Vec<JsonValue> = summary
            .records
            .iter()
            .map(|r| {
                JsonValue::object(vec![
                    ("seq", JsonValue::int(r.seq as usize)),
                    ("offset", JsonValue::int(r.offset as usize)),
                    ("kind", JsonValue::string(r.kind.clone())),
                    ("bytes", JsonValue::int(r.bytes)),
                    ("detail", JsonValue::string(r.detail.clone())),
                ])
            })
            .collect();
        let mut fields = vec![
            ("command", JsonValue::string("journal-inspect")),
            ("log", JsonValue::string(log_path)),
            ("spec", JsonValue::string(summary.spec.to_string())),
            ("records", JsonValue::Array(records)),
            (
                "durable_bytes",
                JsonValue::int(summary.durable_bytes as usize),
            ),
            ("torn_bytes", JsonValue::int(summary.torn_bytes as usize)),
            (
                "corrupt",
                summary
                    .corrupt
                    .as_ref()
                    .map(|c| JsonValue::string(c.clone()))
                    .unwrap_or(JsonValue::Null),
            ),
        ];
        if args.has_flag("metrics") {
            fields.push(("metrics", metrics_json()));
        }
        let json = JsonValue::object(fields);
        let mut report = json.render();
        report.push('\n');
        return Ok(CommandOutcome::new(report, i32::from(damaged)));
    }

    let mut report = String::new();
    report.push_str(&format!("journal: {log_path} (format v{FORMAT_VERSION})\n"));
    report.push_str(&format!("spec: {}\n", summary.spec));
    report.push_str(&format!(
        "records: {} ({} durable bytes)\n",
        summary.records.len(),
        summary.durable_bytes
    ));
    for record in &summary.records {
        report.push_str(&format!(
            "  #{:<4} @{:<8} {:<7} {:>6} B  {}\n",
            record.seq, record.offset, record.kind, record.bytes, record.detail
        ));
    }
    if summary.torn_bytes > 0 {
        report.push_str(&format!(
            "torn tail: {} trailing bytes are not a complete record (recovery truncates them)\n",
            summary.torn_bytes
        ));
    }
    if let Some(corrupt) = &summary.corrupt {
        report.push_str(&format!("CORRUPT: {corrupt}\n"));
    }
    if args.has_flag("metrics") {
        report.push_str(&metrics_text());
    }
    Ok(CommandOutcome::new(report, i32::from(damaged)))
}

/// `xic stats` — compile the specification, decide its consistency once
/// (optionally validating `--doc` too) and print the engine's metrics
/// registry: every counter, gauge and latency histogram, followed by the
/// compile-phase trace timeline.
pub fn stats(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    let format = report_format(args)?;
    let (dtd, sigma) = spec_inputs(args)?;
    let registry = EngineMetrics::global_registry();
    xic_coord::register_baseline(registry);
    let spec = CompiledSpec::compile_with(dtd, sigma, checker_config(args))
        .map_err(|e| CliError::Spec(e.to_string()))?;
    let outcome = spec.check_consistency();
    if let Some(doc_path) = args.get("doc") {
        let text = read_file(doc_path)?;
        let tree = spec
            .parse_document(&text)
            .map_err(|e| CliError::Document(format!("{doc_path}: {e}")))?;
        let _ = spec.check_document(&tree);
    }

    let metrics = EngineMetrics::capture(registry);
    if format == ReportFormat::Json {
        let json = JsonValue::object(vec![
            ("command", JsonValue::string("stats")),
            ("spec", JsonValue::string(spec.id().to_string())),
            (
                "consistent",
                if outcome.is_unknown() {
                    JsonValue::Null
                } else {
                    JsonValue::Bool(outcome.is_consistent())
                },
            ),
            ("metrics", snapshot_json(&metrics.snapshot)),
        ]);
        let mut report = json.render();
        report.push('\n');
        return Ok(CommandOutcome::new(report, 0));
    }

    let mut report = String::new();
    report.push_str(&format!(
        "spec {}: {} constraints over {} element types\n",
        spec.id(),
        spec.sigma().len(),
        spec.dtd().num_types()
    ));
    report.push_str(&metrics_text());
    let events = registry.trace_events();
    if !events.is_empty() && !args.has_flag("quiet") {
        report.push_str("trace (most recent spans):\n");
        for event in events.iter().rev().take(32).rev() {
            report.push_str(&format!(
                "  {:>10}ns  {}{} ({}ns)\n",
                event.start_ns,
                "  ".repeat(event.depth as usize),
                event.name,
                event.dur_ns
            ));
        }
    }
    Ok(CommandOutcome::new(report, 0))
}

/// `xic serve` — host the compiled spec as a long-running validation
/// service behind a TCP (`--listen`) and/or Unix-socket (`--socket`)
/// listener, then block until a wire `--shutdown` drains it.  The bound
/// address is printed (and optionally written to `--addr-file`) *before*
/// blocking, so scripts can start the server with port 0 and discover the
/// port.
pub fn serve(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    if args.get("workers").is_some() {
        let msg = "serve has no --workers (that is coord's); use --max-connections";
        return Err(CliError::Usage(msg.into()));
    }
    let (dtd, sigma) = spec_inputs(args)?;
    let spec = CompiledSpec::compile_with(dtd, sigma, checker_config(args))
        .map_err(|e| CliError::Spec(e.to_string()))?;

    let tcp = match args.get("listen") {
        Some(s) => Some(s.parse::<SocketAddr>().map_err(|_| {
            CliError::Usage(format!("option `--listen` expects IP:PORT, got `{s}`"))
        })?),
        None => None,
    };
    let unix = args.get("socket").map(PathBuf::from);
    if tcp.is_none() && unix.is_none() {
        return Err(CliError::Usage(
            "serve needs --listen and/or --socket".into(),
        ));
    }

    let mut config = ServerConfig {
        tcp,
        unix,
        limits: limits_from_args(args)?,
        state_dir: args.get("state-dir").map(PathBuf::from),
        ..ServerConfig::default()
    };
    if let Some(n) = args.get_usize("max-sessions")? {
        config.max_sessions = n;
    }
    if let Some(n) = args.get_usize("max-connections")? {
        config.max_connections = n.max(1);
    }
    if let Some(ms) = args.get_usize("idle-ms")? {
        config.idle_timeout = Some(Duration::from_millis(ms as u64));
    }
    if let Some(list) = args.get("scope-shards") {
        let mut scope = Vec::new();
        for part in list.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            scope.push(part.parse::<u32>().map_err(|_| {
                CliError::Usage(format!(
                    "option `--scope-shards` expects comma-separated shard ids, got `{part}`"
                ))
            })?);
        }
        config.scope = Some(scope);
    }

    let server = Server::start(Arc::new(spec), config).map_err(|source| CliError::Io {
        path: "serve".to_string(),
        source,
    })?;

    // The banner goes to stdout immediately rather than into the outcome
    // report: `wait()` blocks until shutdown, and launcher scripts need the
    // bound address first.
    use std::io::Write as _;
    if let Some(addr) = server.tcp_addr() {
        if let Some(path) = args.get("addr-file") {
            fs::write(path, addr.to_string()).map_err(|source| CliError::Io {
                path: path.to_string(),
                source,
            })?;
        }
        println!("listening on {addr}");
    }
    if let Some(path) = server.unix_path() {
        println!("listening on {}", path.display());
    }
    std::io::stdout().flush().ok();

    let report = server.wait();
    Ok(CommandOutcome::new(
        format!(
            "server stopped: {} session(s) drained, {} delta(s) persisted, {} connection(s) served\n",
            report.drained_sessions, report.persisted_deltas, report.connections
        ),
        0,
    ))
}

/// The endpoint named on the command line, for error context.
fn endpoint_label(args: &ParsedArgs) -> String {
    args.get("addr")
        .or_else(|| args.get("socket"))
        .unwrap_or("server")
        .to_string()
}

/// Dials the service named by `--addr` (TCP) or `--socket` (Unix) and runs
/// the hello handshake for `session`.
fn dial(args: &ParsedArgs, spec: SpecId, session: &str) -> Result<Client, CliError> {
    if let Some(path) = args.get("socket") {
        #[cfg(unix)]
        return Client::connect_unix(path, spec, session).map_err(|e| client_error(path, e));
        #[cfg(not(unix))]
        return Err(CliError::Usage(format!(
            "--socket is not supported on this platform ({path})"
        )));
    }
    match args.get("addr") {
        Some(addr) => {
            let sockaddr = addr.parse::<SocketAddr>().map_err(|_| {
                CliError::Usage(format!("option `--addr` expects IP:PORT, got `{addr}`"))
            })?;
            Client::connect_tcp(sockaddr, spec, session).map_err(|e| client_error(addr, e))
        }
        None => Err(CliError::Usage("connect needs --addr or --socket".into())),
    }
}

/// `xic connect` — talk to a running service.  Exactly one of four actions
/// runs per invocation: `--shutdown` drains the server, `--stats` prints
/// its metrics registry, `--script` drives an edit script against the
/// attached `--session` and prints the replica-reconstructed delta stream,
/// and with no action flag the handshake result is reported (a ping).
pub fn connect(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    let format = report_format(args)?;
    let session = args.get("session").unwrap_or("default");

    // The spec identity to negotiate: `--spec-id`, or the hash of the
    // locally compiled spec (which `--script` mode needs anyway, to resolve
    // attribute and element-type names).
    let local_spec = match args.get("dtd") {
        Some(_) => {
            let (dtd, sigma) = spec_inputs(args)?;
            Some(
                CompiledSpec::compile_with(dtd, sigma, checker_config(args))
                    .map_err(|e| CliError::Spec(e.to_string()))?,
            )
        }
        None => None,
    };
    let spec_id = match args.get("spec-id") {
        Some(hex) => hex
            .parse::<SpecId>()
            .map_err(|e| CliError::Usage(format!("option `--spec-id`: {e}")))?,
        None => match &local_spec {
            Some(spec) => spec.id(),
            None => {
                return Err(CliError::Usage(
                    "connect needs --spec-id or --dtd to identify the spec".into(),
                ))
            }
        },
    };

    let mut client = dial(args, spec_id, session)?;
    let target = endpoint_label(args);

    if args.has_flag("shutdown") {
        let sessions = client.shutdown().map_err(|e| client_error(&target, e))?;
        if format == ReportFormat::Json {
            let json = JsonValue::object(vec![
                ("command", JsonValue::string("connect")),
                ("action", JsonValue::string("shutdown")),
                ("spec", JsonValue::string(spec_id.to_string())),
                ("sessions", JsonValue::int(sessions as usize)),
            ]);
            let mut report = json.render();
            report.push('\n');
            return Ok(CommandOutcome::new(report, 0));
        }
        return Ok(CommandOutcome::new(
            format!("server shutting down: draining {sessions} session(s)\n"),
            0,
        ));
    }

    if args.has_flag("stats") {
        let snapshot = client.stats().map_err(|e| client_error(&target, e))?;
        if format == ReportFormat::Json {
            let json = JsonValue::object(vec![
                ("command", JsonValue::string("connect")),
                ("action", JsonValue::string("stats")),
                ("spec", JsonValue::string(spec_id.to_string())),
                ("metrics", snapshot_json(&snapshot)),
            ]);
            let mut report = json.render();
            report.push('\n');
            return Ok(CommandOutcome::new(report, 0));
        }
        let mut report = format!("server {target} (spec {spec_id}):\nmetrics:\n");
        for line in snapshot.render_text().lines() {
            report.push_str("  ");
            report.push_str(line);
            report.push('\n');
        }
        return Ok(CommandOutcome::new(report, 0));
    }

    if let Some(script_path) = args.get("script") {
        let spec = local_spec.as_ref().ok_or_else(|| {
            CliError::Usage(
                "connect --script needs --dtd (and --constraints) to resolve attribute and element names"
                    .into(),
            )
        })?;
        let deltas = run_script(spec, &mut client, Vec::new(), script_path)?;
        // `--shard K` subscribes the local replica to one touch-graph
        // component: it receives and applies only shard-K deltas and
        // reconstructs the shard projection of the session's report.
        let shard = args.get_usize("shard")?.map(|k| k as u32);
        let mut replica = match shard {
            Some(k) => CorpusReplica::new_sharded(spec_id, k),
            None => CorpusReplica::new(spec_id),
        };
        let synced = client
            .sync_replica(&mut replica)
            .map_err(|e| client_error(script_path, e))?;
        let final_report = replica.report();
        let headline = match shard {
            Some(k) => format!("remote session `{session}` (shard {k} subscription)"),
            None => format!("remote session `{session}`"),
        };
        let mut notes = match shard {
            Some(k) => vec![format!(
                "replica synced {synced} shard-{k} delta(s) from the server"
            )],
            None => vec![format!("replica synced {synced} delta(s) from the server")],
        };
        let resumed_at = client.hello().last_seq;
        if resumed_at > 0 {
            notes.insert(0, format!("resumed the session at commit {resumed_at}"));
        }
        let extra = [
            ("session", JsonValue::string(session)),
            ("synced", JsonValue::int(synced)),
        ];
        return Ok(render_delta_stream(
            &DeltaStreamView {
                command: "connect",
                headline: &headline,
                extra: &extra,
                notes: &notes,
                format,
                quiet: args.has_flag("quiet"),
                metrics: args.has_flag("metrics"),
            },
            spec,
            &deltas,
            &final_report,
        ));
    }

    // No action flag: report the handshake result.
    let hello = client.hello();
    if format == ReportFormat::Json {
        let json = JsonValue::object(vec![
            ("command", JsonValue::string("connect")),
            ("action", JsonValue::string("ping")),
            ("spec", JsonValue::string(spec_id.to_string())),
            ("session", JsonValue::string(session)),
            ("last_seq", JsonValue::int(hello.last_seq as usize)),
        ]);
        let mut report = json.render();
        report.push('\n');
        return Ok(CommandOutcome::new(report, 0));
    }
    Ok(CommandOutcome::new(
        format!(
            "session `{session}` at {target}: last committed seq {}\n",
            hello.last_seq
        ),
        0,
    ))
}

/// The coordinator's scratch directory (its workers' sockets), removed
/// on every exit path.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// `xic coord` — multi-process sharded validation: spawn one scoped
/// `xic serve` child per shard group, drive the shared `--script` grammar
/// through the routing/merge layer, and print the merged delta stream —
/// the same output a monolithic session (`xic batch --session`) or a
/// single server (`xic connect --script`) produces for the same script.
/// The merged stream is replayed through a stock replica before
/// rendering, so what is printed is what any subscriber reconstructs.
pub fn coord(args: &ParsedArgs) -> Result<CommandOutcome, CliError> {
    let format = report_format(args)?;
    let script_path = args
        .get("script")
        .ok_or_else(|| CliError::Usage("coord needs --script".into()))?;
    // Compile locally first: the script needs name resolution, and a bad
    // spec should fail readably before any child process spawns.
    let (dtd, sigma) = spec_inputs(args)?;
    let spec = CompiledSpec::compile_with(dtd, sigma, checker_config(args))
        .map_err(|e| CliError::Spec(e.to_string()))?;

    let xic_bin = std::env::current_exe().map_err(|source| CliError::Io {
        path: "current executable".to_string(),
        source,
    })?;
    // Declared before the coordinator, so it is dropped after it: the
    // workers are reaped before their directory goes.
    let scratch =
        ScratchDir(std::env::temp_dir().join(format!("xic-coord-{}", std::process::id())));
    let config = CoordConfig {
        xic_bin,
        dtd: PathBuf::from(args.require("dtd")?),
        root: args.get("root").map(String::from),
        constraints: args.get("constraints").map(PathBuf::from),
        workers: args.get_usize("workers")?.unwrap_or(2).max(1),
        scratch: scratch.0.clone(),
        session: args.get("session").unwrap_or("coord").to_string(),
        max_restarts: args.get_usize("max-restarts")?.unwrap_or(2),
    };
    let mut coordinator = Coordinator::launch(config).map_err(|e| coord_error("coord", e))?;
    let num_groups = coordinator.num_groups();
    let num_shards = spec.shard_plan().num_shards();

    let deltas = run_script(&spec, &mut coordinator, Vec::new(), script_path)?;

    // The merged stream must satisfy every replica invariant: replay it
    // through a stock subscriber and render that reconstruction.
    let mut replica = CorpusReplica::new(spec.id());
    for delta in coordinator.deltas() {
        replica
            .apply_delta(delta)
            .map_err(|e| CliError::Journal(format!("merged delta rejected by replica: {e}")))?;
    }
    let final_report = replica.report();
    coordinator.shutdown();

    let headline =
        format!("coordinated session: {num_groups} shard worker(s) over {num_shards} shard(s)");
    let notes = vec![format!(
        "routed across {num_groups} worker process(es); merged deltas replayed through a stock replica"
    )];
    let extra = [
        ("workers", JsonValue::int(num_groups)),
        ("shards", JsonValue::int(num_shards)),
    ];
    Ok(render_delta_stream(
        &DeltaStreamView {
            command: "coord",
            headline: &headline,
            extra: &extra,
            notes: &notes,
            format,
            quiet: args.has_flag("quiet"),
            metrics: args.has_flag("metrics"),
        },
        &spec,
        &deltas,
        &final_report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::ARG_SPEC as SPEC;

    /// Writes a temp file with a unique name and returns its path.
    fn temp_file(name: &str, contents: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("xic-cli-test-{}-{}", std::process::id(), name));
        fs::write(&path, contents).unwrap();
        path
    }

    const TEACHERS_DTD: &str = r#"
        <!ELEMENT teachers (teacher+)>
        <!ELEMENT teacher (teach, research)>
        <!ELEMENT teach (subject, subject)>
        <!ELEMENT research (#PCDATA)>
        <!ELEMENT subject (#PCDATA)>
        <!ATTLIST teacher name CDATA #REQUIRED>
        <!ATTLIST subject taught_by CDATA #REQUIRED>
    "#;

    const SIGMA1: &str = "
        teacher.name -> teacher
        subject.taught_by -> subject
        subject.taught_by ref teacher.name
    ";

    const SIGMA_CONSISTENT: &str = "
        teacher.name -> teacher
        subject.taught_by ref teacher.name
    ";

    fn run(
        f: fn(&ParsedArgs) -> Result<CommandOutcome, CliError>,
        args: &[&str],
    ) -> CommandOutcome {
        let parsed = ParsedArgs::parse(args.iter().copied(), &SPEC).unwrap();
        f(&parsed).unwrap()
    }

    #[test]
    fn check_reports_the_paper_inconsistency() {
        let dtd = temp_file("d1.dtd", TEACHERS_DTD);
        let sigma = temp_file("sigma1.xic", SIGMA1);
        let out = run(
            check,
            &[
                "check",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
            ],
        );
        assert_eq!(out.exit_code, 1, "{}", out.report);
        assert!(out.report.contains("INCONSISTENT"), "{}", out.report);
    }

    #[test]
    fn check_emits_a_witness_for_consistent_specs() {
        let dtd = temp_file("d1b.dtd", TEACHERS_DTD);
        let sigma = temp_file("sigma_ok.xic", SIGMA_CONSISTENT);
        let out = run(
            check,
            &[
                "check",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
            ],
        );
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(out.report.contains("CONSISTENT"), "{}", out.report);
        assert!(out.report.contains("<teachers"), "{}", out.report);
    }

    #[test]
    fn check_without_constraints_is_dtd_satisfiability() {
        let dtd = temp_file("d2.dtd", "<!ELEMENT db (foo)>\n<!ELEMENT foo (foo)>");
        let out = run(check, &["check", "--dtd", dtd.to_str().unwrap()]);
        assert_eq!(out.exit_code, 1, "{}", out.report);
        assert!(out.report.contains("INCONSISTENT"));
    }

    #[test]
    fn implies_answers_both_ways() {
        let dtd = temp_file("d1c.dtd", TEACHERS_DTD);
        let sigma = temp_file("sigma_ok2.xic", SIGMA_CONSISTENT);
        // The inclusion component of the foreign key is implied.
        let out = run(
            implies,
            &[
                "implies",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
                "--query",
                "subject.taught_by subset teacher.name",
            ],
        );
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(out.report.contains("IMPLIED"));
        // The subject key is not implied; a counterexample is printed.
        let out = run(
            implies,
            &[
                "implies",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
                "--query",
                "subject.taught_by -> subject",
            ],
        );
        assert_eq!(out.exit_code, 1, "{}", out.report);
        assert!(out.report.contains("NOT IMPLIED"));
        assert!(out.report.contains("counterexample"), "{}", out.report);
    }

    #[test]
    fn validate_separates_data_problems_from_spec_problems() {
        let dtd = temp_file("lib.dtd", TEACHERS_DTD);
        let sigma = temp_file("sigma_ok3.xic", SIGMA_CONSISTENT);
        let doc = temp_file(
            "doc.xml",
            r#"<teachers>
                 <teacher name="Joe"><teach>
                   <subject taught_by="Joe">XML</subject>
                   <subject taught_by="Ann">DB</subject>
                 </teach><research>Web DB</research></teacher>
               </teachers>"#,
        );
        let out = run(
            validate_doc,
            &[
                "validate",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
                "--doc",
                doc.to_str().unwrap(),
            ],
        );
        // taught_by="Ann" dangles, so the foreign key is violated — but the
        // spec itself is consistent, so the report blames the data.
        assert_eq!(out.exit_code, 1, "{}", out.report);
        assert!(
            out.report.contains("constraint violation"),
            "{}",
            out.report
        );
        assert!(out.report.contains("data problems"), "{}", out.report);
    }

    #[test]
    fn diagnose_extracts_the_minimal_core_of_sigma1() {
        let dtd = temp_file("d1f.dtd", TEACHERS_DTD);
        let sigma = temp_file("sigma1d.xic", SIGMA1);
        let out = run(
            diagnose,
            &[
                "diagnose",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
            ],
        );
        assert_eq!(out.exit_code, 1, "{}", out.report);
        assert!(
            out.report.contains("minimal inconsistent core"),
            "{}",
            out.report
        );
        assert!(
            out.report.contains("subject.taught_by → subject"),
            "{}",
            out.report
        );
        // The teacher key is reported as not involved.
        assert!(out.report.contains("not involved"), "{}", out.report);
    }

    #[test]
    fn diagnose_on_a_consistent_spec_exits_zero() {
        let dtd = temp_file("d1g.dtd", TEACHERS_DTD);
        let sigma = temp_file("sigma_ok4.xic", SIGMA_CONSISTENT);
        let out = run(
            diagnose,
            &[
                "diagnose",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
            ],
        );
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(out.report.contains("consistent"), "{}", out.report);
    }

    #[test]
    fn classify_names_the_class_and_complexity() {
        let dtd = temp_file("d1d.dtd", TEACHERS_DTD);
        let sigma = temp_file("sigma1b.xic", SIGMA1);
        let out = run(
            classify,
            &[
                "classify",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
            ],
        );
        assert_eq!(out.exit_code, 0);
        assert!(out.report.contains("NP-complete"), "{}", out.report);
        assert!(
            out.report.contains("primary-key restriction"),
            "{}",
            out.report
        );
    }

    #[test]
    fn explain_prints_the_cardinality_system() {
        let dtd = temp_file("d1e.dtd", TEACHERS_DTD);
        let sigma = temp_file("sigma1c.xic", SIGMA1);
        let out = run(
            explain,
            &[
                "explain",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
            ],
        );
        assert_eq!(out.exit_code, 0);
        assert!(out.report.contains("cardinality system"), "{}", out.report);
        assert!(out.report.contains("ext(teacher)"), "{}", out.report);
    }

    #[test]
    fn validate_json_round_trips_with_witnesses() {
        use crate::json::JsonValue;
        let dtd = temp_file("json.dtd", TEACHERS_DTD);
        let sigma = temp_file("json.xic", SIGMA1);
        // Duplicate names ("quoted \"Joe\"" exercises string escaping) break
        // the teacher key.
        let doc = temp_file(
            "json-doc.xml",
            r#"<teachers>
                 <teacher name='quoted "Joe"'><teach>
                   <subject taught_by='quoted "Joe"'>XML</subject>
                   <subject taught_by='quoted "Joe"'>DB</subject>
                 </teach><research>Web DB</research></teacher>
                 <teacher name='quoted "Joe"'><teach>
                   <subject taught_by='quoted "Joe"'>A</subject>
                   <subject taught_by='quoted "Joe"'>B</subject>
                 </teach><research>DB</research></teacher>
               </teachers>"#,
        );
        let out = run(
            validate_doc,
            &[
                "validate",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
                "--doc",
                doc.to_str().unwrap(),
                "--format",
                "json",
            ],
        );
        assert_eq!(out.exit_code, 1, "{}", out.report);

        // The report parses back, and re-rendering the parsed value parses
        // to the same structure (full round-trip through our own parser).
        let parsed = JsonValue::parse(out.report.trim()).expect("valid JSON");
        let reparsed = JsonValue::parse(&parsed.render()).unwrap();
        assert_eq!(parsed, reparsed);

        assert_eq!(
            parsed.get("command").and_then(JsonValue::as_str),
            Some("validate")
        );
        assert_eq!(parsed.get("clean"), Some(&JsonValue::Bool(false)));
        let violations = parsed
            .get("violations")
            .and_then(JsonValue::as_array)
            .expect("violations array");
        assert!(!violations.is_empty());
        // Key violations carry both witness node ids and the escaped value.
        let key = violations
            .iter()
            .find(|v| v.get("kind").and_then(JsonValue::as_str) == Some("key_violation"))
            .expect("a key violation");
        assert_eq!(
            key.get("witnesses")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(2)
        );
        let values = key.get("values").and_then(JsonValue::as_array).unwrap();
        assert_eq!(values[0].as_str(), Some("quoted \"Joe\""));
    }

    #[test]
    fn validate_rejects_unknown_formats() {
        let dtd = temp_file("badfmt.dtd", TEACHERS_DTD);
        let parsed = ParsedArgs::parse(
            [
                "validate",
                "--dtd",
                dtd.to_str().unwrap(),
                "--doc",
                "x.xml",
                "--format",
                "yaml",
            ],
            &SPEC,
        )
        .unwrap();
        let err = validate_doc(&parsed).unwrap_err();
        assert!(err.to_string().contains("yaml"), "{err}");
    }

    #[test]
    fn batch_json_round_trips() {
        use crate::json::JsonValue;
        let dtd = temp_file("jbatch.dtd", SCHOOL_DTD);
        let sigma = temp_file("jbatch.xic", "teacher.name -> teacher");
        let ok = temp_file("jbatch-ok.xml", "<school><teacher name=\"Joe\"/></school>");
        let dup = temp_file(
            "jbatch-dup.xml",
            "<school><teacher name=\"Joe\"/><teacher name=\"Joe\"/></school>",
        );
        let manifest = temp_file(
            "jbatch-manifest.txt",
            &format!(
                "{}\n{}\n",
                ok.file_name().unwrap().to_str().unwrap(),
                dup.file_name().unwrap().to_str().unwrap()
            ),
        );
        let out = run(
            batch,
            &[
                "batch",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
                "--manifest",
                manifest.to_str().unwrap(),
                "--format",
                "json",
            ],
        );
        assert_eq!(out.exit_code, 1, "{}", out.report);
        let parsed = JsonValue::parse(out.report.trim()).expect("valid JSON");
        assert_eq!(JsonValue::parse(&parsed.render()).unwrap(), parsed);
        assert_eq!(parsed.get("total"), Some(&JsonValue::Number(2.0)));
        assert_eq!(parsed.get("clean"), Some(&JsonValue::Number(1.0)));
        let reports = parsed.get("reports").and_then(JsonValue::as_array).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].get("clean"), Some(&JsonValue::Bool(true)));
        assert_eq!(reports[1].get("clean"), Some(&JsonValue::Bool(false)));
        assert_eq!(reports[1].get("parse_error"), Some(&JsonValue::Null));
        // Batch violations are structured like validate's: kind + witnesses.
        let violations = reports[1]
            .get("violations")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert!(!violations.is_empty());
        assert_eq!(
            violations[0].get("kind").and_then(JsonValue::as_str),
            Some("key_violation")
        );
        assert_eq!(
            violations[0]
                .get("witnesses")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(2)
        );
    }

    #[test]
    fn batch_session_replays_edits_and_streams_deltas() {
        let dtd = temp_file("sess.dtd", SCHOOL_DTD);
        let sigma = temp_file("sess.xic", "teacher.name -> teacher");
        let a = temp_file("sess-a.xml", "<school><teacher name=\"Joe\"/></school>");
        let b = temp_file("sess-b.xml", "<school><teacher name=\"Ann\"/></school>");
        let manifest = temp_file(
            "sess-manifest.txt",
            &format!("{}\n", a.file_name().unwrap().to_str().unwrap()),
        );
        let a_label = a.file_name().unwrap().to_str().unwrap();
        let b_name = b.file_name().unwrap().to_str().unwrap();
        // Open b, break a's key (duplicate name on a fresh teacher), commit;
        // heal it again; close b and commit once more.
        let script = temp_file(
            "sess-script.txt",
            &format!(
                "# corpus edit script\n\
                 open b {b_name}\n\
                 commit\n\
                 add {a_label} 0 teacher\n\
                 set {a_label} 3 name Joe\n\
                 commit\n\
                 set {a_label} 3 name Sue\n\
                 close b\n"
            ),
        );
        let out = run(
            batch,
            &[
                "batch",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
                "--manifest",
                manifest.to_str().unwrap(),
                "--session",
                script.to_str().unwrap(),
            ],
        );
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(out.report.contains("commit 1: 2/2"), "{}", out.report);
        assert!(out.report.contains("clean -> violating"), "{}", out.report);
        assert!(out.report.contains("violating -> clean"), "{}", out.report);
        assert!(out.report.contains("- closed b"), "{}", out.report);
        assert!(
            out.report.contains("final: 1/1 documents clean"),
            "{}",
            out.report
        );

        // The JSON form round-trips and carries the delta stream.
        let json_out = run(
            batch,
            &[
                "batch",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
                "--manifest",
                manifest.to_str().unwrap(),
                "--session",
                script.to_str().unwrap(),
                "--format",
                "json",
            ],
        );
        assert_eq!(json_out.exit_code, 0, "{}", json_out.report);
        let parsed = JsonValue::parse(json_out.report.trim()).expect("valid JSON");
        assert_eq!(JsonValue::parse(&parsed.render()).unwrap(), parsed);
        assert_eq!(
            parsed.get("command").and_then(JsonValue::as_str),
            Some("batch-session")
        );
        let deltas = parsed.get("deltas").and_then(JsonValue::as_array).unwrap();
        assert_eq!(deltas.len(), 3);
        // Commit 2 re-checked exactly the one edited document and reported
        // the flip with a structured key-violation witness.
        assert_eq!(deltas[1].get("rechecked"), Some(&JsonValue::Number(1.0)));
        let changes = deltas[1]
            .get("changes")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].get("was_clean"), Some(&JsonValue::Bool(true)));
        assert_eq!(changes[0].get("clean"), Some(&JsonValue::Bool(false)));
        let violations = changes[0]
            .get("report")
            .and_then(|r| r.get("violations"))
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(
            violations[0].get("kind").and_then(JsonValue::as_str),
            Some("key_violation")
        );
        // The trailing uncommitted edits imply a final commit with the close.
        let closed = deltas[2]
            .get("closed")
            .and_then(JsonValue::as_array)
            .unwrap();
        // Closed docs are identified by label AND stable handle (labels
        // need not be unique), as are change entries.
        assert_eq!(
            closed[0].get("label").and_then(JsonValue::as_str),
            Some("b")
        );
        assert_eq!(
            closed[0].get("doc").and_then(JsonValue::as_str),
            Some("doc-1")
        );
        assert_eq!(
            changes[0].get("doc").and_then(JsonValue::as_str),
            Some("doc-0")
        );
    }

    #[test]
    fn batch_session_metrics_block_covers_compile_commit_and_journal() {
        let dtd = temp_file("metr.dtd", SCHOOL_DTD);
        let sigma = temp_file("metr.xic", "teacher.name -> teacher");
        let a = temp_file("metr-a.xml", "<school><teacher name=\"Joe\"/></school>");
        let a_name = a.file_name().unwrap().to_str().unwrap();
        let script = temp_file(
            "metr-script.txt",
            &format!(
                "open a {a_name}\n\
                 commit\n\
                 set a 1 name Sue\n\
                 commit\n"
            ),
        );
        let out = run(
            batch,
            &[
                "batch",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
                "--session",
                script.to_str().unwrap(),
                "--metrics",
                "--format",
                "json",
            ],
        );
        assert_eq!(out.exit_code, 0, "{}", out.report);
        let parsed = JsonValue::parse(out.report.trim()).expect("valid JSON");
        let metrics = parsed.get("metrics").expect("metrics block present");
        let counters = metrics.get("counters").expect("counters object");
        // The baseline pins the full inventory: compile, solver,
        // corpus-commit and journal instruments all appear even if this run
        // left some at 0.
        for name in [
            "compile.specs",
            "ilp.lp_calls",
            "corpus.commits",
            "corpus.edits",
            "journal.bytes_written",
            "journal.records_appended",
        ] {
            assert!(counters.get(name).is_some(), "missing counter {name}");
        }
        // This run committed twice and applied one edit — on the shared
        // global registry those counters are at least that.
        let commits = match counters.get("corpus.commits") {
            Some(JsonValue::Number(n)) => *n,
            other => panic!("corpus.commits not a number: {other:?}"),
        };
        assert!(commits >= 2.0, "corpus.commits = {commits}");
        let histograms = metrics.get("histograms").expect("histograms object");
        for name in [
            "corpus.commit_ns",
            "incremental.build_ns",
            "journal.persist_ns",
        ] {
            assert!(histograms.get(name).is_some(), "missing histogram {name}");
        }
        let commit_ns = histograms.get("corpus.commit_ns").unwrap();
        let count = match commit_ns.get("count") {
            Some(JsonValue::Number(n)) => *n,
            other => panic!("corpus.commit_ns.count not a number: {other:?}"),
        };
        assert!(count >= 2.0, "corpus.commit_ns.count = {count}");
        let gauges = metrics.get("gauges").expect("gauges object");
        assert!(gauges.get("corpus.dirty_docs").is_some());
        assert!(gauges.get("corpus.queued_ops").is_some());

        // The text form appends a readable block with the same content.
        let text_out = run(
            batch,
            &[
                "batch",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
                "--session",
                script.to_str().unwrap(),
                "--metrics",
            ],
        );
        assert!(text_out.report.contains("metrics:"), "{}", text_out.report);
        assert!(
            text_out.report.contains("corpus.commits"),
            "{}",
            text_out.report
        );
        // Without the flag, output is unchanged — no metrics block.
        let plain = run(
            batch,
            &[
                "batch",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
                "--session",
                script.to_str().unwrap(),
            ],
        );
        assert!(!plain.report.contains("metrics:"), "{}", plain.report);
    }

    #[test]
    fn stats_prints_the_instrument_inventory_and_compile_traffic() {
        let dtd = temp_file("stats.dtd", SCHOOL_DTD);
        let sigma = temp_file("stats.xic", "teacher.name -> teacher");
        let out = run(
            stats,
            &[
                "stats",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
            ],
        );
        assert_eq!(out.exit_code, 0, "{}", out.report);
        for needle in [
            "metrics:",
            "ilp.lp_calls",
            "compile.specs",
            "corpus.nodes_revalidated",
            "ilp.presolve_rows_removed",
            "ilp.presolve_vars_removed",
            "span.compile",
        ] {
            assert!(
                out.report.contains(needle),
                "missing {needle}: {}",
                out.report
            );
        }

        let json_out = run(
            stats,
            &[
                "stats",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
                "--format",
                "json",
            ],
        );
        assert_eq!(json_out.exit_code, 0, "{}", json_out.report);
        let parsed = JsonValue::parse(json_out.report.trim()).expect("valid JSON");
        assert_eq!(
            parsed.get("command").and_then(JsonValue::as_str),
            Some("stats")
        );
        assert_eq!(parsed.get("consistent"), Some(&JsonValue::Bool(true)));
        let counters = parsed
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .expect("counters");
        let specs = match counters.get("compile.specs") {
            Some(JsonValue::Number(n)) => *n,
            other => panic!("compile.specs not a number: {other:?}"),
        };
        assert!(specs >= 1.0, "compile.specs = {specs}");
    }

    #[test]
    fn batch_session_scripts_report_errors_with_line_numbers() {
        let dtd = temp_file("sesserr.dtd", SCHOOL_DTD);
        let script = temp_file("sesserr-script.txt", "frobnicate doc-0 1\n");
        let parsed = ParsedArgs::parse(
            [
                "batch",
                "--dtd",
                dtd.to_str().unwrap(),
                "--session",
                script.to_str().unwrap(),
            ],
            &SPEC,
        )
        .unwrap();
        let err = batch(&parsed).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(":1:"), "{msg}");
        assert!(msg.contains("no open document"), "{msg}");

        // Unknown directives on an open document, unknown attributes, and
        // bad node ids all name the line.
        let doc = temp_file("sesserr-doc.xml", "<school/>");
        let doc_name = doc.file_name().unwrap().to_str().unwrap();
        for (line, needle) in [
            (
                format!("open d {doc_name}\nfrobnicate d 0"),
                "unknown directive",
            ),
            (
                format!("open d {doc_name}\nset d 0 bogus x"),
                "unknown attribute",
            ),
            (
                format!("open d {doc_name}\nset d zero name x"),
                "not a node id",
            ),
            (
                format!("open d {doc_name}\nadd d 0 bogus"),
                "unknown element type",
            ),
        ] {
            let script = temp_file("sesserr-script2.txt", &line);
            let parsed = ParsedArgs::parse(
                [
                    "batch",
                    "--dtd",
                    dtd.to_str().unwrap(),
                    "--session",
                    script.to_str().unwrap(),
                ],
                &SPEC,
            )
            .unwrap();
            let err = batch(&parsed).unwrap_err().to_string();
            assert!(err.contains(":2:"), "{err}");
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn serve_rejects_the_coordinators_workers_option() {
        let args = [
            "serve",
            "--dtd",
            "x.dtd",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
        ];
        let parsed = ParsedArgs::parse(args, &SPEC).unwrap();
        let err = serve(&parsed).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--max-connections"), "{err}");
    }

    #[test]
    fn missing_files_are_reported_as_io_errors() {
        let parsed = ParsedArgs::parse(["check", "--dtd", "/nonexistent/spec.dtd"], &SPEC).unwrap();
        let err = check(&parsed).unwrap_err();
        assert!(matches!(err, CliError::Io { .. }), "{err}");
    }

    const SCHOOL_DTD: &str = "<!ELEMENT school (teacher*)>\n\
        <!ELEMENT teacher EMPTY>\n\
        <!ATTLIST teacher name CDATA #REQUIRED>";

    /// `xic coord` removes its scratch directory, where its workers'
    /// sockets live, whether the script succeeds or fails once the
    /// workers are up.  The binary runs as a child process, so the
    /// directory's name (it carries the process id) is known.
    #[test]
    fn coord_removes_its_scratch_directory() {
        let exe = std::env::current_exe().expect("test executable path");
        let xic = exe
            .ancestors()
            .skip(1)
            .map(|dir| dir.join(format!("xic{}", std::env::consts::EXE_SUFFIX)))
            .find(|path| path.is_file())
            .expect("cannot locate the `xic` binary; build `xic-cli`");
        let dtd = temp_file("coord.dtd", SCHOOL_DTD);
        let sigma = temp_file("coord.xic", "teacher.name -> teacher");
        let doc = temp_file("coord-a.xml", "<school><teacher name=\"Joe\"/></school>");
        let doc_name = doc.file_name().unwrap().to_str().unwrap();
        for (name, script, code) in [
            ("ok", format!("open a {doc_name}\ncommit\n"), 0),
            (
                "bad",
                format!("open a {doc_name}\ncommit\nfrobnicate a 0\n"),
                2,
            ),
        ] {
            let script = temp_file(&format!("coord-{name}.txt"), &script);
            let child = std::process::Command::new(&xic)
                .args(["coord", "--dtd", dtd.to_str().unwrap()])
                .args(["--constraints", sigma.to_str().unwrap()])
                .args(["--script", script.to_str().unwrap()])
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("xic coord starts");
            let scratch = std::env::temp_dir().join(format!("xic-coord-{}", child.id()));
            let out = child.wait_with_output().expect("xic coord runs");
            assert_eq!(
                out.status.code(),
                Some(code),
                "{name}: {}{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                !scratch.exists(),
                "{name}: {} left behind",
                scratch.display()
            );
        }
    }

    #[test]
    fn batch_validates_a_manifest_and_orders_reports() {
        let dtd = temp_file("batch.dtd", SCHOOL_DTD);
        let sigma = temp_file("batch.xic", "teacher.name -> teacher");
        let ok = temp_file("batch-ok.xml", "<school><teacher name=\"Joe\"/></school>");
        let dup = temp_file(
            "batch-dup.xml",
            "<school><teacher name=\"Joe\"/><teacher name=\"Joe\"/></school>",
        );
        // The manifest lives in the temp dir, so bare filenames resolve there.
        let manifest = temp_file(
            "batch-manifest.txt",
            &format!(
                "# corpus\n{}\n\n{}\n",
                ok.file_name().unwrap().to_str().unwrap(),
                dup.file_name().unwrap().to_str().unwrap()
            ),
        );

        let out = run(
            batch,
            &[
                "batch",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
                "--manifest",
                manifest.to_str().unwrap(),
                "--threads",
                "4",
            ],
        );
        assert_eq!(out.exit_code, 1, "{}", out.report);
        assert!(out.report.contains("1/2 documents clean"), "{}", out.report);
        assert!(out.report.contains("key violation"), "{}", out.report);

        // The rendered per-document section is identical across thread counts.
        let sequential = run(
            batch,
            &[
                "batch",
                "--dtd",
                dtd.to_str().unwrap(),
                "--constraints",
                sigma.to_str().unwrap(),
                "--manifest",
                manifest.to_str().unwrap(),
                "--threads",
                "1",
            ],
        );
        assert_eq!(sequential.report, out.report);
        assert_eq!(sequential.exit_code, out.exit_code);
    }

    #[test]
    fn validate_max_nodes_rejects_with_exit_three() {
        let dtd = temp_file("lim.dtd", SCHOOL_DTD);
        let doc = temp_file(
            "lim-doc.xml",
            "<school><teacher name=\"Joe\"/><teacher name=\"Ann\"/></school>",
        );
        let parsed = ParsedArgs::parse(
            [
                "validate",
                "--dtd",
                dtd.to_str().unwrap(),
                "--doc",
                doc.to_str().unwrap(),
                "--max-nodes",
                "2",
            ],
            &SPEC,
        )
        .unwrap();
        let err = validate_doc(&parsed).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(err.to_string().contains("max_doc_nodes"), "{err}");
        // Under a generous bound the same document validates normally.
        let parsed = ParsedArgs::parse(
            [
                "validate",
                "--dtd",
                dtd.to_str().unwrap(),
                "--doc",
                doc.to_str().unwrap(),
                "--max-nodes",
                "100",
                "--max-depth",
                "16",
            ],
            &SPEC,
        )
        .unwrap();
        let out = validate_doc(&parsed).unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.report);
    }

    #[test]
    fn batch_max_nodes_marks_documents_rejected_and_exits_three() {
        let dtd = temp_file("blim.dtd", SCHOOL_DTD);
        let small = temp_file("blim-ok.xml", "<school/>");
        let big = temp_file(
            "blim-big.xml",
            "<school><teacher name=\"Joe\"/><teacher name=\"Ann\"/></school>",
        );
        let manifest = temp_file(
            "blim-manifest.txt",
            &format!(
                "{}\n{}\n",
                small.file_name().unwrap().to_str().unwrap(),
                big.file_name().unwrap().to_str().unwrap()
            ),
        );
        let out = run(
            batch,
            &[
                "batch",
                "--dtd",
                dtd.to_str().unwrap(),
                "--manifest",
                manifest.to_str().unwrap(),
                "--max-nodes",
                "2",
                "--threads",
                "1",
            ],
        );
        // The oversized document is a structured resource rejection (exit
        // 3), not a parse error; the small document keeps its verdict.
        assert_eq!(out.exit_code, 3, "{}", out.report);
        assert!(out.report.contains("max_doc_nodes"), "{}", out.report);
        assert!(out.report.contains("1/2"), "{}", out.report);
    }

    #[test]
    fn session_deadline_zero_rejects_the_commit_with_exit_three() {
        let dtd = temp_file("dl.dtd", SCHOOL_DTD);
        let doc = temp_file("dl-doc.xml", "<school><teacher name=\"Joe\"/></school>");
        let doc_name = doc.file_name().unwrap().to_str().unwrap();
        let script = temp_file(
            "dl-script.txt",
            &format!("open d {doc_name}\nset d 1 name Sue\ncommit\n"),
        );
        let parsed = ParsedArgs::parse(
            [
                "batch",
                "--dtd",
                dtd.to_str().unwrap(),
                "--session",
                script.to_str().unwrap(),
                "--deadline-ms",
                "0",
            ],
            &SPEC,
        )
        .unwrap();
        let err = batch(&parsed).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(err.to_string().contains("deadline_ms"), "{err}");
    }

    #[test]
    fn serve_and_connect_roundtrip_over_loopback() {
        let dtd = temp_file("srv.dtd", SCHOOL_DTD);
        let doc = temp_file("srv-doc.xml", "<school><teacher name=\"Joe\"/></school>");
        let doc_name = doc.file_name().unwrap().to_str().unwrap();
        let script = temp_file(
            "srv-script.txt",
            &format!("open d1 {doc_name}\ncommit\nset d1 1 name Sue\ncommit\n"),
        );
        let addr_file = {
            let mut p = std::env::temp_dir();
            p.push(format!("xic-cli-test-{}-srv.addr", std::process::id()));
            let _ = fs::remove_file(&p);
            p
        };

        let serve_args: Vec<String> = [
            "serve",
            "--dtd",
            dtd.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--max-connections",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || {
            let parsed = ParsedArgs::parse(serve_args, &SPEC).unwrap();
            serve(&parsed).unwrap()
        });

        // The server writes its bound address before accepting; poll for it.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let addr = loop {
            if let Ok(addr) = fs::read_to_string(&addr_file) {
                if addr.contains(':') {
                    break addr;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server never wrote its address file"
            );
            std::thread::sleep(Duration::from_millis(10));
        };

        // Drive the script against the default session and read the
        // replica-reconstructed report back.
        let out = run(
            connect,
            &[
                "connect",
                "--dtd",
                dtd.to_str().unwrap(),
                "--addr",
                &addr,
                "--script",
                script.to_str().unwrap(),
            ],
        );
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(out.report.contains("over 2 commits"), "{}", out.report);
        assert!(
            out.report.contains("final: 1/1 documents clean"),
            "{}",
            out.report
        );

        // A fresh connection's handshake reports the committed history.
        let out = run(
            connect,
            &["connect", "--dtd", dtd.to_str().unwrap(), "--addr", &addr],
        );
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(
            out.report.contains("last committed seq 2"),
            "{}",
            out.report
        );

        // `--stats --json` surfaces the server's own instruments.
        let out = run(
            connect,
            &[
                "connect",
                "--dtd",
                dtd.to_str().unwrap(),
                "--addr",
                &addr,
                "--stats",
                "--json",
            ],
        );
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(out.report.starts_with('{'), "{}", out.report);
        assert!(out.report.contains("server.requests"), "{}", out.report);

        // Shutdown drains the server and unblocks the serving thread.
        let out = run(
            connect,
            &[
                "connect",
                "--dtd",
                dtd.to_str().unwrap(),
                "--addr",
                &addr,
                "--shutdown",
            ],
        );
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(out.report.contains("shutting down"), "{}", out.report);

        let out = server.join().expect("serve thread panicked");
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(out.report.contains("server stopped"), "{}", out.report);
        let _ = fs::remove_file(&addr_file);
    }

    #[test]
    fn serve_and_connect_validate_their_arguments() {
        let dtd = temp_file("srv-usage.dtd", SCHOOL_DTD);
        let parsed = ParsedArgs::parse(["serve", "--dtd", dtd.to_str().unwrap()], &SPEC).unwrap();
        let err = serve(&parsed).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("--listen"), "{err}");

        let parsed = ParsedArgs::parse(["connect", "--dtd", dtd.to_str().unwrap()], &SPEC).unwrap();
        let err = connect(&parsed).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("--addr or --socket"), "{err}");

        let parsed = ParsedArgs::parse(
            ["connect", "--addr", "127.0.0.1:1", "--spec-id", "nonsense"],
            &SPEC,
        )
        .unwrap();
        let err = connect(&parsed).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("--spec-id"), "{err}");
    }

    #[test]
    fn json_flag_is_an_alias_of_format_json() {
        let dtd = temp_file("jsonflag.dtd", SCHOOL_DTD);
        let out = run(stats, &["stats", "--dtd", dtd.to_str().unwrap(), "--json"]);
        assert_eq!(out.exit_code, 0, "{}", out.report);
        assert!(out.report.starts_with('{'), "{}", out.report);
        assert!(
            out.report.contains("\"command\":\"stats\""),
            "{}",
            out.report
        );
    }
}
