//! # xic-cli — command-line analyzer for XML specifications
//!
//! A thin front end over the workspace crates: it parses a DTD file and a
//! constraint file (in the [`xic_constraints::parser`] surface syntax) and
//! runs the paper's decision procedures from the shell.
//!
//! ```text
//! xic check    --dtd school.dtd --constraints school.xic
//! xic implies  --dtd school.dtd --constraints school.xic --query "enroll.student_id subset student.student_id"
//! xic validate --dtd school.dtd --constraints school.xic --doc enrolments.xml
//! xic classify --dtd school.dtd --constraints school.xic
//! xic explain  --dtd school.dtd --constraints school.xic
//! xic batch    --dtd school.dtd --constraints school.xic --manifest docs.txt --threads 8
//! xic journal record  --dtd school.dtd --constraints school.xic --script edits.txt --log run.xicj
//! xic journal replay  --dtd school.dtd --constraints school.xic --log run.xicj
//! xic journal inspect --log run.xicj --dtd school.dtd
//! ```
//!
//! Exit codes are script-friendly: `0` for a positive verdict (consistent /
//! implied / valid), `1` for a negative verdict, `2` for unknown verdicts and
//! errors, `3` when a resource limit (`--max-nodes`, `--max-depth`,
//! `--deadline-ms`) rejected the work, and `4` when an internal fault was
//! contained (an isolated per-document panic or a poisoned session).
//!
//! All the work is done by library functions in [`commands`]; `main` only
//! forwards `std::env::args` and prints, so the front end is fully covered by
//! in-process tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod error;
pub mod json;
pub mod report;

pub use args::{ArgSpec, ParsedArgs};
pub use commands::{
    batch, check, classify, connect, coord, diagnose, explain, implies, journal, serve, stats,
    validate_doc, CommandOutcome,
};
pub use error::CliError;
pub use json::JsonValue;
pub use report::{
    delta_from_json, delta_json, doc_change_from_json, doc_report_from_json, doc_report_json,
    violation_from_json, violation_json,
};

/// The options accepted by every subcommand (unknown ones are rejected with
/// a usage error naming the offending option).
pub const ARG_SPEC: ArgSpec = ArgSpec {
    valued: &[
        "dtd",
        "root",
        "constraints",
        "doc",
        "query",
        "witness-out",
        "manifest",
        "threads",
        "format",
        "session",
        "script",
        "log",
        "max-nodes",
        "max-depth",
        "deadline-ms",
        "listen",
        "socket",
        "addr",
        "state-dir",
        "max-sessions",
        "idle-ms",
        "max-connections",
        "workers",
        "spec-id",
        "addr-file",
        "shard",
        "scope-shards",
        "max-restarts",
    ],
    flags: &[
        "quiet",
        "no-witness",
        "help",
        "metrics",
        "json",
        "stats",
        "shutdown",
    ],
};

/// The usage text printed by `xic help` and on usage errors.
pub const USAGE: &str = "\
xic — static analysis for XML specifications (DTDs + keys and foreign keys)

USAGE:
    xic <COMMAND> [OPTIONS]

COMMANDS:
    check      decide whether any document can conform to the DTD and satisfy the constraints
    implies    decide whether the specification implies a further constraint (--query)
    validate   validate a document (--doc) against the DTD and the constraints
    batch      validate every document in a manifest (--manifest) in parallel
    journal    the durable corpus log: record a session script to a binary log
               (record), rebuild verdicts from its commits on a replica
               (replay), or print a log's self-describing contents (inspect)
    diagnose   explain an inconsistent specification (minimal inconsistent core)
    classify   report the constraint class and the complexity of its analyses
    explain    print the DTD analysis and the cardinality system Ψ(D,Σ)
    stats      compile the spec, run a consistency check and print the
               engine's metrics registry: counters, gauges, latency
               histograms and the compile-phase trace timeline (--json for
               machine output)
    serve      run the validation service: host the compiled spec behind a
               TCP (--listen) and/or Unix-socket (--socket) listener speaking
               the delta-log wire protocol; named corpus sessions, one
               thread per connection, graceful drain to --state-dir on
               shutdown
    connect    talk to a running service (--addr or --socket): drive a
               --script against a named --session and print the replica's
               report, or fetch --stats / request --shutdown
    coord      multi-process sharded validation: partition the spec's shard
               plan over --workers N child `xic serve` processes, route each
               edit batch only to the shard groups it dirties, and merge the
               projected per-shard verdicts into one monolithic report
               (--script uses the connect/session directive syntax)
    help       print this message

OPTIONS:
    --dtd FILE            the DTD file (required by every command)
    --root NAME           override the root element type (default: first declared element)
    --constraints FILE    the constraint file (one constraint per line; optional)
    --doc FILE            the XML document to validate (validate only)
    --query CONSTRAINT    the constraint to test for implication (implies only)
    --manifest FILE       file listing one document path per line (batch only)
    --session FILE        replay an edit script over a corpus session instead of a
                          one-shot batch: open/set/add/text/remove/close/commit
                          directives, one per line; every commit re-checks only the
                          edited documents and reports the delta (batch only)
    --script FILE         the edit script to record (journal record only; same
                          directive syntax as --session — the human-readable twin
                          of the binary log)
    --log FILE            the journal file to write (journal record) or read
                          (journal replay / inspect)
    --threads N           worker threads for batch validation (default: all cores)
    --format FORMAT       report format: text (default) or json, with structured
                          verdicts and violation witnesses (validate/batch only)
    --witness-out FILE    write the witness document to FILE instead of stdout (check only)
    --no-witness          skip witness synthesis (faster; check/implies only)
    --metrics             append the engine metrics block to the report: solver,
                          session/corpus commit and journal instruments (validate,
                          batch and journal; included in --format json output)
    --max-nodes N         reject any document whose parsed tree (elements,
                          attributes, text nodes) would exceed N nodes, and any
                          edit that would grow it past N (validate/batch/journal)
    --max-depth N         reject element nesting deeper than N (root = 1) at
                          parse and on child-creating edits (validate/batch/journal)
    --deadline-ms N       soft time budget: batch stops starting new documents
                          and commits stop re-checking further dirty documents
                          once N ms have elapsed; finished work is kept
                          (batch/journal record; admission limits for serve)
    --quiet               do not print witness or counterexample documents
    --json                machine-readable output (alias of --format json;
                          stats and connect --stats)
    --listen ADDR         serve: TCP listen address (port 0 picks a free port)
    --socket PATH         serve: Unix-socket listen path; connect: dial it
    --addr ADDR           connect: TCP address of a running service
    --addr-file FILE      serve: write the bound TCP address to FILE (for
                          scripts using --listen with port 0)
    --state-dir DIR       serve: flush every session's corpus log here on drain
                          and eviction, and recover sessions from their logs
    --max-sessions N      serve: reject further named sessions past N (code 3)
    --idle-ms N           serve: drain and evict sessions idle longer than N ms
    --max-connections N   serve: connections served at once, one thread each
                          (default 64); a client past N is refused (code 3)
    --shard K             connect: subscribe the replica to shard K only —
                          receives and applies just shard-K deltas, and prints
                          the shard-projected report
    --scope-shards LIST   serve: scope every live session to the comma-separated
                          shard ids (a coordinator's shard-group worker); Σ
                          violations outside the scope never surface
    --workers N           coord: child `xic serve` processes (default 2)
    --max-restarts N      coord: per-worker crash-restart budget before the
                          coordinator rejects instead of recovering (default 2)
    --session NAME        connect: the named server session to attach to
    --spec-id HEX         connect: expected spec identity (defaults to the
                          hash of the locally compiled --dtd/--constraints)
    --stats               connect: print the server's metrics registry
    --shutdown            connect: ask the server to drain and stop

EXIT CODES:
    0  consistent / implied / valid
    1  inconsistent / not implied / invalid
    2  unknown verdict, usage error, or I/O error
    3  rejected by a resource limit (--max-nodes / --max-depth / --deadline-ms)
    4  an internal fault was contained (isolated panic or poisoned session)
";

/// Runs the tool on an argument list (excluding the program name) and returns
/// the report and exit code.  This is the function `main` calls and tests
/// drive directly.
pub fn run<I, S>(raw_args: I) -> (String, i32)
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let parsed = match ParsedArgs::parse(raw_args, &ARG_SPEC) {
        Ok(p) => p,
        Err(e) => return (format!("{e}\n\n{USAGE}"), 2),
    };
    if parsed.has_flag("help") {
        return (USAGE.to_string(), 0);
    }
    let command = match parsed.command.as_deref() {
        Some(c) => c,
        None => return (USAGE.to_string(), 2),
    };
    let result = match command {
        "check" => commands::check(&parsed),
        "implies" => commands::implies(&parsed),
        "validate" => commands::validate_doc(&parsed),
        "batch" => commands::batch(&parsed),
        "journal" => commands::journal(&parsed),
        "diagnose" => commands::diagnose(&parsed),
        "classify" => commands::classify(&parsed),
        "explain" => commands::explain(&parsed),
        "stats" => commands::stats(&parsed),
        "serve" => commands::serve(&parsed),
        "connect" => commands::connect(&parsed),
        "coord" => commands::coord(&parsed),
        "help" | "--help" | "-h" => return (USAGE.to_string(), 0),
        other => return (format!("unknown command `{other}`\n\n{USAGE}"), 2),
    };
    match result {
        Ok(outcome) => (outcome.report, outcome.exit_code),
        Err(e) => (format!("error: {e}\n"), e.exit_code()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_is_printed_for_help_command_and_no_command() {
        let (report, code) = run(["help"]);
        assert_eq!(code, 0);
        assert!(report.contains("USAGE"));
        let (report, code) = run(Vec::<String>::new());
        assert_eq!(code, 2);
        assert!(report.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        let (report, code) = run(["frobnicate"]);
        assert_eq!(code, 2);
        assert!(report.contains("unknown command"));
    }

    #[test]
    fn usage_errors_name_the_offending_option() {
        let (report, code) = run(["check", "--bogus"]);
        assert_eq!(code, 2);
        assert!(report.contains("--bogus"));
    }

    #[test]
    fn io_errors_surface_as_exit_code_two() {
        let (report, code) = run(["check", "--dtd", "/definitely/not/here.dtd"]);
        assert_eq!(code, 2);
        assert!(report.contains("cannot access"));
    }
}
