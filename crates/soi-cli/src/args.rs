//! A small dependency-free argument parser for the `soi` binary.
//!
//! Grammar: `soi <subcommand> [--key value | --flag]...`. Values parse on
//! demand with typed accessors; unknown keys are rejected up front so
//! typos fail loudly rather than silently using defaults.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// First positional token.
    pub command: String,
    options: BTreeMap<String, String>,
}

/// Errors produced while parsing or accessing arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// `--key` without a value.
    MissingValue(String),
    /// A token that is neither the subcommand nor a `--key`.
    UnexpectedToken(String),
    /// `--key` not in the allowed set for this subcommand.
    UnknownOption(String),
    /// Value failed to parse as the requested type.
    BadValue {
        /// Offending option.
        key: String,
        /// Raw value.
        value: String,
        /// Target type name.
        wanted: &'static str,
    },
    /// Structurally valid values that violate a cross-option constraint
    /// (divisibility, alignment).
    Misaligned(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no subcommand given (try `soi help`)"),
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::UnexpectedToken(t) => write!(f, "unexpected argument `{t}`"),
            ArgError::UnknownOption(k) => write!(f, "unknown option --{k}"),
            ArgError::BadValue { key, value, wanted } => {
                write!(f, "--{key} {value}: expected {wanted}")
            }
            ArgError::Misaligned(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse raw tokens (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut it = tokens.into_iter().peekable();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(ArgError::UnexpectedToken(command));
        }
        let mut options = BTreeMap::new();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| ArgError::UnexpectedToken(tok.clone()))?
                .to_string();
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap(),
                _ => return Err(ArgError::MissingValue(key)),
            };
            options.insert(key, value);
        }
        Ok(Args { command, options })
    }

    /// Reject any option not in `allowed`.
    pub fn restrict(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.options.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError::UnknownOption(k.clone()));
            }
        }
        Ok(())
    }

    /// Raw string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Typed option with default.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        wanted: &'static str,
    ) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.clone(),
                wanted,
            }),
        }
    }

    /// usize option.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        self.get_parsed(key, default, "an integer")
    }

    /// usize option that must be at least 1 (sizes, counts, rank totals).
    /// Every subcommand funnels its size-like options through here so
    /// `--n 0`, `--nodes 0`, `--ranks 0`, … all fail with the same shape
    /// of message.
    pub fn get_positive(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        let v = self.get_usize(key, default)?;
        if v == 0 {
            return Err(ArgError::BadValue {
                key: key.to_string(),
                value: "0".into(),
                wanted: "a positive integer",
            });
        }
        Ok(v)
    }

    /// f64 option.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        self.get_parsed(key, default, "a number")
    }
}

/// The problem geometry shared by every subcommand that runs a
/// distributed transform (`transform`, `launch`, `worker`): total size
/// `--n`, SOI segment count `--p`, accuracy `--digits`, per-rank
/// `--threads`. Parsed and validated in one place so zero and
/// misalignment errors read identically everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobGeometry {
    /// Total transform size N.
    pub n: usize,
    /// SOI segment count P (must divide N).
    pub p: usize,
    /// Decimal digits of accuracy requested (saturating: every count
    /// above 13 selects the full-accuracy preset anyway).
    pub digits: u32,
    /// Compute threads per rank.
    pub threads: usize,
}

impl JobGeometry {
    /// Parse `--n/--p/--digits/--threads` with the given size defaults.
    pub fn from_args(a: &Args, default_n: usize, default_p: usize) -> Result<Self, ArgError> {
        let n = a.get_positive("n", default_n)?;
        let p = a.get_positive("p", default_p)?;
        let digits = u32::try_from(a.get_usize("digits", 15)?).unwrap_or(u32::MAX);
        let threads = a.get_positive("threads", 1)?;
        if n % p != 0 {
            return Err(ArgError::Misaligned(format!(
                "--p {p} does not divide --n {n}"
            )));
        }
        Ok(JobGeometry { n, p, digits, threads })
    }

    /// Validate a rank count against the geometry: `R` must divide `P`
    /// (each rank owns whole segments) — the same check every launcher
    /// and worker performs before any process spawns or socket opens.
    pub fn check_ranks(&self, key: &str, ranks: usize) -> Result<(), ArgError> {
        if self.p % ranks != 0 {
            return Err(ArgError::Misaligned(format!(
                "--{key} {ranks} does not divide --p {}",
                self.p
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommand_and_options() {
        let a = Args::parse(toks("transform --n 1024 --p 8")).unwrap();
        assert_eq!(a.command, "transform");
        assert_eq!(a.get_usize("n", 0).unwrap(), 1024);
        assert_eq!(a.get_usize("p", 0).unwrap(), 8);
        assert_eq!(a.get_usize("missing", 7).unwrap(), 7);
    }

    #[test]
    fn rejects_missing_command() {
        assert_eq!(Args::parse(toks("")), Err(ArgError::MissingCommand));
        assert!(matches!(
            Args::parse(toks("--n 4")),
            Err(ArgError::UnexpectedToken(_))
        ));
    }

    #[test]
    fn rejects_dangling_key() {
        assert_eq!(
            Args::parse(toks("design --beta")),
            Err(ArgError::MissingValue("beta".into()))
        );
    }

    #[test]
    fn rejects_positional_garbage() {
        assert!(matches!(
            Args::parse(toks("transform 1024")),
            Err(ArgError::UnexpectedToken(_))
        ));
    }

    #[test]
    fn restrict_flags_unknown_options() {
        let a = Args::parse(toks("design --beta 0.25 --digits 10")).unwrap();
        assert!(a.restrict(&["beta", "digits"]).is_ok());
        assert_eq!(
            a.restrict(&["beta"]),
            Err(ArgError::UnknownOption("digits".into()))
        );
    }

    #[test]
    fn typed_accessors_report_bad_values() {
        let a = Args::parse(toks("x --n abc")).unwrap();
        assert!(matches!(
            a.get_usize("n", 0),
            Err(ArgError::BadValue { .. })
        ));
        let a = Args::parse(toks("x --beta 0.25")).unwrap();
        assert_eq!(a.get_f64("beta", 0.0).unwrap(), 0.25);
    }

    #[test]
    fn positive_accessor_rejects_zero_uniformly() {
        let a = Args::parse(toks("x --n 0 --nodes 0 --ranks 7")).unwrap();
        for key in ["n", "nodes"] {
            let e = a.get_positive(key, 4).unwrap_err();
            assert!(
                e.to_string().contains("positive integer"),
                "--{key}: {e}"
            );
        }
        assert_eq!(a.get_positive("ranks", 4).unwrap(), 7);
        assert_eq!(a.get_positive("absent", 4).unwrap(), 4);
    }

    #[test]
    fn job_geometry_validates_shape() {
        let a = Args::parse(toks("x --n 4096 --p 8 --threads 2")).unwrap();
        let g = JobGeometry::from_args(&a, 1 << 16, 8).unwrap();
        assert_eq!((g.n, g.p, g.digits, g.threads), (4096, 8, 15, 2));
        g.check_ranks("ranks", 4).unwrap();
        assert!(g.check_ranks("ranks", 3).unwrap_err().to_string().contains("divide"));

        let a = Args::parse(toks("x --n 1000 --p 3")).unwrap();
        let e = JobGeometry::from_args(&a, 1 << 16, 8).unwrap_err();
        assert!(e.to_string().contains("does not divide"), "{e}");

        let a = Args::parse(toks("x --threads 0")).unwrap();
        assert!(JobGeometry::from_args(&a, 4096, 4).is_err());
    }

    #[test]
    fn error_display() {
        assert!(ArgError::MissingCommand.to_string().contains("subcommand"));
        assert!(ArgError::UnknownOption("zap".into())
            .to_string()
            .contains("--zap"));
    }
}
