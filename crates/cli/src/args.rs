//! Minimal command-line argument parsing.
//!
//! The tool needs only subcommands, `--name value` options and boolean
//! `--flag`s, so a small hand-rolled parser keeps the dependency set to the
//! workspace crates.

use std::collections::{HashMap, HashSet};

use crate::error::CliError;

/// Parsed command line: a subcommand, named options and boolean flags.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    /// The subcommand (first non-option argument), if any.
    pub command: Option<String>,
    /// `--name value` options.
    pub options: HashMap<String, String>,
    /// `--flag` switches.
    pub flags: HashSet<String>,
    /// Remaining positional arguments after the subcommand.
    pub positional: Vec<String>,
}

/// Which options and flags a subcommand accepts.
#[derive(Debug, Clone)]
pub struct ArgSpec {
    /// Options that take a value (`--dtd FILE`).
    pub valued: &'static [&'static str],
    /// Boolean flags (`--quiet`).
    pub flags: &'static [&'static str],
}

impl ParsedArgs {
    /// Parses raw arguments (excluding the program name) against a spec.
    pub fn parse<I, S>(args: I, spec: &ArgSpec) -> Result<ParsedArgs, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = ParsedArgs::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                // `--name=value` form.
                if let Some((name, value)) = name.split_once('=') {
                    if !spec.valued.contains(&name) {
                        return Err(CliError::Usage(format!("unknown option `--{name}`")));
                    }
                    out.options.insert(name.to_string(), value.to_string());
                    continue;
                }
                if spec.flags.contains(&name) {
                    out.flags.insert(name.to_string());
                } else if spec.valued.contains(&name) {
                    let value = iter.next().ok_or_else(|| {
                        CliError::Usage(format!("option `--{name}` expects a value"))
                    })?;
                    out.options.insert(name.to_string(), value);
                } else {
                    return Err(CliError::Usage(format!("unknown option `--{name}`")));
                }
            } else if out.command.is_none() {
                out.command = Some(arg);
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// The value of a required option.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.options
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing required option `--{name}`")))
    }

    /// The value of an optional option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Whether a flag was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// Parses an optional numeric option.
    pub fn get_usize(&self, name: &str) -> Result<Option<usize>, CliError> {
        match self.options.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<usize>()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("option `--{name}` expects a number"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: ArgSpec = ArgSpec {
        valued: &["dtd", "constraints", "query", "limit"],
        flags: &["quiet", "witness"],
    };

    #[test]
    fn parses_command_options_and_flags() {
        let parsed = ParsedArgs::parse(
            [
                "check",
                "--dtd",
                "a.dtd",
                "--quiet",
                "--constraints=b.xic",
                "extra",
            ],
            &SPEC,
        )
        .unwrap();
        assert_eq!(parsed.command.as_deref(), Some("check"));
        assert_eq!(parsed.require("dtd").unwrap(), "a.dtd");
        assert_eq!(parsed.get("constraints"), Some("b.xic"));
        assert!(parsed.has_flag("quiet"));
        assert!(!parsed.has_flag("witness"));
        assert_eq!(parsed.positional, vec!["extra".to_string()]);
    }

    #[test]
    fn unknown_option_is_rejected() {
        let err = ParsedArgs::parse(["check", "--bogus"], &SPEC).unwrap_err();
        assert!(err.to_string().contains("--bogus"));
    }

    #[test]
    fn missing_value_is_rejected() {
        let err = ParsedArgs::parse(["check", "--dtd"], &SPEC).unwrap_err();
        assert!(err.to_string().contains("expects a value"));
    }

    #[test]
    fn missing_required_option_is_reported() {
        let parsed = ParsedArgs::parse(["check"], &SPEC).unwrap();
        assert!(parsed.require("dtd").is_err());
    }

    #[test]
    fn numeric_options_are_validated() {
        let parsed = ParsedArgs::parse(["check", "--limit", "12"], &SPEC).unwrap();
        assert_eq!(parsed.get_usize("limit").unwrap(), Some(12));
        let parsed = ParsedArgs::parse(["check", "--limit", "twelve"], &SPEC).unwrap();
        assert!(parsed.get_usize("limit").is_err());
    }
}
