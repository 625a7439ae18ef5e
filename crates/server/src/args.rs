//! Tiny `--flag VALUE` parser for the `pscc-server` binary: every
//! missing or unparsable value renders one uniform error, flags may
//! appear anywhere relative to positionals, and whatever is left after
//! the known flags are consumed is returned as the positional arguments
//! (which the binary refuses).
//!
//! ```
//! use pscc_server::args::Args;
//! let mut args = Args::from_vec(vec![
//!     "--data-dir".into(), "/tmp/d".into(), "graph.txt".into(),
//! ]);
//! assert_eq!(args.path("--data-dir").unwrap(), Some("/tmp/d".into()));
//! assert_eq!(args.finish(), vec!["graph.txt".to_string()]);
//! ```

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// A flag-parse failure. Binaries print it and exit nonzero; the
/// [`fmt::Display`] form is the single source of truth for wording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// `--flag` appeared as the last argument, with no value after it.
    MissingValue(String),
    /// `--flag VALUE` appeared but `VALUE` failed to parse.
    InvalidValue { flag: String, value: String, expected: &'static str },
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgsError::InvalidValue { flag, value, expected } => {
                write!(f, "{flag} {value:?}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for ArgsError {}

/// The remaining, not-yet-consumed argument vector. Each accessor
/// removes what it matched, so the order of accessor calls never
/// changes what a flag means and [`finish`](Args::finish) returns pure
/// positionals.
pub struct Args {
    argv: Vec<String>,
}

impl Args {
    /// The process's arguments, minus the program name.
    pub fn from_env() -> Args {
        Args { argv: std::env::args().skip(1).collect() }
    }

    /// An explicit argument vector (tests, or pre-filtered argv).
    pub fn from_vec(argv: Vec<String>) -> Args {
        Args { argv }
    }

    /// Consume `--flag VALUE`, returning the raw value string. `None`
    /// when the flag is absent; [`ArgsError::MissingValue`] when the
    /// flag is present with nothing after it.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, ArgsError> {
        let Some(i) = self.argv.iter().position(|a| a == name) else {
            return Ok(None);
        };
        self.argv.remove(i);
        if i >= self.argv.len() {
            return Err(ArgsError::MissingValue(name.to_string()));
        }
        Ok(Some(self.argv.remove(i)))
    }

    /// Consume `--flag DIR` as a [`PathBuf`].
    pub fn path(&mut self, name: &str) -> Result<Option<PathBuf>, ArgsError> {
        Ok(self.value(name)?.map(PathBuf::from))
    }

    /// Consume `--flag VALUE` and parse it (`usize`, `u64`, socket
    /// addresses — anything [`FromStr`]), with a uniform error naming
    /// `expected` on failure.
    pub fn parsed<T: FromStr>(
        &mut self,
        name: &str,
        expected: &'static str,
    ) -> Result<Option<T>, ArgsError> {
        match self.value(name)? {
            None => Ok(None),
            Some(raw) => match raw.parse() {
                Ok(v) => Ok(Some(v)),
                Err(_) => {
                    Err(ArgsError::InvalidValue { flag: name.to_string(), value: raw, expected })
                }
            },
        }
    }

    /// Everything not consumed by the flag accessors, in original order
    /// — the positional arguments.
    pub fn finish(self) -> Vec<String> {
        self.argv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_values_and_positionals() {
        let mut a = Args::from_vec(
            ["g.txt", "--data-dir", "/d", "u.txt", "--n", "42"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(a.path("--data-dir").unwrap(), Some(PathBuf::from("/d")));
        assert_eq!(a.parsed::<usize>("--n", "a count").unwrap(), Some(42));
        assert_eq!(a.value("--absent").unwrap(), None);
        assert_eq!(a.finish(), vec!["g.txt".to_string(), "u.txt".to_string()]);
    }

    #[test]
    fn missing_value_is_uniform() {
        let mut a = Args::from_vec(vec!["--data-dir".to_string()]);
        let err = a.path("--data-dir").unwrap_err();
        assert_eq!(err.to_string(), "--data-dir needs a value");
    }

    #[test]
    fn invalid_value_names_expectation() {
        let mut a = Args::from_vec(vec!["--n".to_string(), "many".to_string()]);
        let err = a.parsed::<usize>("--n", "a count").unwrap_err();
        assert_eq!(err.to_string(), "--n \"many\": expected a count");
    }
}
