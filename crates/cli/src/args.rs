//! Dependency-free `--flag value` argument parsing.

use crate::CliError;
use std::collections::BTreeMap;

/// Parsed arguments: `--key value` options and bare `--switch` flags.
#[derive(Debug, Default)]
pub struct Args {
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Flags that take no value, per subcommand surface.
const SWITCHES: &[&str] = &["correlated", "histograms", "json", "cold-check"];

impl Args {
    /// Parse an argument list against the flag names (without `--`) the
    /// command accepts.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] on non-flag tokens, flags outside `accepted`,
    /// repeated flags or a trailing flag with no value.
    pub fn parse(argv: &[String], accepted: &[&str]) -> Result<Self, CliError> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            let Some(name) = token.strip_prefix("--") else {
                return Err(CliError::Usage(format!("unexpected argument `{token}`")));
            };
            if !accepted.contains(&name) {
                return Err(CliError::Usage(format!(
                    "unknown flag `--{name}` (accepted: --{})",
                    accepted.join(", --")
                )));
            }
            if SWITCHES.contains(&name) {
                args.switches.push(name.to_string());
                i += 1;
                continue;
            }
            let Some(value) = argv.get(i + 1) else {
                return Err(CliError::Usage(format!("flag `--{name}` needs a value")));
            };
            if args
                .options
                .insert(name.to_string(), value.clone())
                .is_some()
            {
                return Err(CliError::Usage(format!("flag `--{name}` given twice")));
            }
            i += 2;
        }
        Ok(args)
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when absent.
    pub fn required(&self, name: &str) -> Result<&str, CliError> {
        self.options
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing required flag `--{name}`")))
    }

    /// An optional string option.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// An optional parsed option with a default.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when present but unparsable.
    pub fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.options.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::Usage(format!("cannot parse `--{name} {raw}`"))),
        }
    }

    /// Is a bare switch present?
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    const FLAGS: &[&str] = &["size", "out", "seed", "bins", "correlated", "histograms"];

    #[test]
    fn options_and_switches() {
        let a = Args::parse(
            &argv(&["--size", "100", "--correlated", "--out", "x.csv"]),
            FLAGS,
        )
        .unwrap();
        assert_eq!(a.required("size").unwrap(), "100");
        assert_eq!(a.required("out").unwrap(), "x.csv");
        assert!(a.switch("correlated"));
        assert!(!a.switch("histograms"));
        assert_eq!(a.parsed_or("size", 0usize).unwrap(), 100);
        assert_eq!(a.parsed_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Args::parse(&argv(&["positional"]), FLAGS).is_err());
        assert!(Args::parse(&argv(&["--size"]), FLAGS).is_err());
        assert!(Args::parse(&argv(&["--size", "1", "--size", "2"]), FLAGS).is_err());
        // Not accepted, as an option and as a switch.
        let err = Args::parse(&argv(&["--sise", "1"]), FLAGS).unwrap_err();
        assert!(err.to_string().contains("unknown flag `--sise`"), "{err}");
        assert!(Args::parse(&argv(&["--json"]), FLAGS).is_err());
    }

    #[test]
    fn missing_required_reported() {
        let a = Args::parse(&argv(&[]), FLAGS).unwrap();
        let err = a.required("workers").unwrap_err();
        assert!(err.to_string().contains("--workers"));
    }

    #[test]
    fn parse_failure_reported() {
        let a = Args::parse(&argv(&["--bins", "lots"]), FLAGS).unwrap();
        assert!(a.parsed_or("bins", 10usize).is_err());
    }
}
