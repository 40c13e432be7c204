//! Shared parsing of `ATLAS_*` environment knobs.
//!
//! Every crate in the workspace that reads configuration from the
//! environment — the bench harness (`atlas_bench::config`), the resident
//! service (`atlas_serve::config`) — goes through these helpers, so a
//! knob means the same thing and fails the same way everywhere.  The one
//! error style: an unset or empty value means the caller's default,
//! because a CI matrix that exports an empty string must not change
//! behavior; a set value that does not parse is an error naming the
//! variable and the value, because `ATLAS_THREADS=abc` silently running
//! on the default would measure something nobody asked for.
//!
//! Command-line flags fail the same way: [`Cli`] is the one flag parser
//! of the bench and serve binaries, and its errors name the flag and the
//! rejected value (`--threads "abc" is not a valid usize`), followed by
//! the binary's usage line and exit status 1.

use std::env::VarError;
use std::path::PathBuf;
use std::str::FromStr;

/// The phase-one sampling budget per class cluster when `ATLAS_SAMPLES`
/// is unset — shared by the bench harness and the resident service, so a
/// service and a batch run in the same shell see the same budget.
pub const DEFAULT_SAMPLES: usize = 4_000;

/// Parses an environment variable: `Ok(None)` when unset or empty, an
/// error naming the variable and the value when it does not parse.
pub fn env_parse<T: std::str::FromStr>(var: &str) -> Result<Option<T>, String> {
    env_parse_with(var, |s| s.parse().ok())
}

/// [`env_parse`] with a custom parser (e.g. [`parse_u64`]).
pub fn env_parse_with<T>(
    var: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match std::env::var(var) {
        Err(VarError::NotPresent) => Ok(None),
        Err(VarError::NotUnicode(raw)) => Err(format!("{var}={raw:?} is not valid UTF-8")),
        Ok(raw) => parse_knob(var, &raw, parse),
    }
}

/// Parses one knob value read from `var`: `Ok(None)` for the empty
/// string, an error naming the variable and the value when `parse`
/// rejects it.
fn parse_knob<T>(
    var: &str,
    raw: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    if raw.is_empty() {
        return Ok(None);
    }
    parse(raw).map(Some).ok_or_else(|| {
        format!(
            "{var}={raw:?} is not a valid {}",
            std::any::type_name::<T>()
        )
    })
}

/// A non-empty environment variable, verbatim.
pub fn env_string(var: &str) -> Option<String> {
    std::env::var(var).ok().filter(|s| !s.is_empty())
}

/// A non-empty environment variable as a path.
pub fn env_path(var: &str) -> Option<PathBuf> {
    env_string(var).map(PathBuf::from)
}

/// A boolean knob: `1`, `true`, `yes`, `on` (case-insensitive, trimmed)
/// enable it; everything else — including unset — disables it.
pub fn env_flag(var: &str) -> bool {
    std::env::var(var)
        .map(|s| {
            matches!(
                s.trim().to_ascii_lowercase().as_str(),
                "1" | "true" | "yes" | "on"
            )
        })
        .unwrap_or(false)
}

/// Parses a decimal or `0x`-prefixed hex u64 — the seed spelling used by
/// `ATLAS_FLEET_SEED` and the fingerprints in reports.
pub fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// A cursor over command-line arguments: yields each flag in turn and
/// takes the flag's value.  It works on plain strings and returns errors
/// instead of exiting; [`Cli`] is the exiting wrapper the binaries use.
///
/// A value that is missing, or that is itself a `--flag`, is an error: a
/// forgotten value must not swallow the next flag.  A repeated flag is
/// simply seen twice, so the caller's last assignment wins.
#[derive(Debug)]
struct ArgCursor {
    args: std::vec::IntoIter<String>,
    flag: String,
}

impl ArgCursor {
    /// A cursor over `args` (without the program name).
    fn new(args: impl IntoIterator<Item = String>) -> ArgCursor {
        let args: Vec<String> = args.into_iter().collect();
        ArgCursor {
            args: args.into_iter(),
            flag: String::new(),
        }
    }

    /// The next flag, or `None` when the arguments are exhausted.
    fn next_flag(&mut self) -> Option<String> {
        self.flag = self.args.next()?;
        Some(self.flag.clone())
    }

    /// The current flag's value, verbatim.
    fn string(&mut self) -> Result<String, String> {
        match self.args.next() {
            None => Err(format!("{} needs a value", self.flag)),
            Some(next) if next.starts_with("--") => Err(format!(
                "{} needs a value, found the flag {next:?}",
                self.flag
            )),
            Some(value) => Ok(value),
        }
    }

    /// The current flag's value as a path.
    fn path(&mut self) -> Result<PathBuf, String> {
        self.string().map(PathBuf::from)
    }

    /// The current flag's value parsed as `T`; an error names the flag
    /// and the value when it does not parse.
    fn value<T: FromStr>(&mut self) -> Result<T, String> {
        let raw = self.string()?;
        raw.parse().map_err(|_| {
            format!(
                "{} {raw:?} is not a valid {}",
                self.flag,
                std::any::type_name::<T>()
            )
        })
    }

    /// The error for a flag the caller does not know.
    fn unknown(&self) -> String {
        format!("unknown argument {:?}", self.flag)
    }
}

/// A binary's own command line: a flag cursor over the process arguments
/// whose errors print `NAME: ERROR` and the usage line to standard error
/// and exit with status 1.  A value that is missing, or that is itself a
/// `--flag`, is an error; a repeated flag is seen twice, so the last
/// assignment wins.
#[derive(Debug)]
pub struct Cli {
    cursor: ArgCursor,
    name: &'static str,
    usage: &'static str,
}

impl Cli {
    /// The process's arguments.  `usage` is the synopsis printed after
    /// `usage: ` on every error.
    pub fn new(name: &'static str, usage: &'static str) -> Cli {
        Cli {
            cursor: ArgCursor::new(std::env::args().skip(1)),
            name,
            usage,
        }
    }

    /// Calls `on_flag` with each flag in turn; the callback takes the
    /// flag's value through the [`Cli`] it is handed.
    pub fn parse(&mut self, mut on_flag: impl FnMut(&str, &mut Cli)) {
        while let Some(flag) = self.cursor.next_flag() {
            on_flag(&flag, self);
        }
    }

    /// The current flag's value, verbatim.
    pub fn string(&mut self) -> String {
        self.cursor.string().unwrap_or_else(|e| self.fail(&e))
    }

    /// The current flag's value as a path.
    pub fn path(&mut self) -> PathBuf {
        self.cursor.path().unwrap_or_else(|e| self.fail(&e))
    }

    /// The current flag's value parsed as `T`.
    pub fn value<T: FromStr>(&mut self) -> T {
        self.cursor.value().unwrap_or_else(|e| self.fail(&e))
    }

    /// Rejects the current flag as unknown.
    pub fn unknown(&self) -> ! {
        self.fail(&self.cursor.unknown())
    }

    /// Prints `message` and the usage line, then exits with status 1.
    pub fn fail(&self, message: &str) -> ! {
        eprintln!("{}: {message}\nusage: {}", self.name, self.usage);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_variables_fall_back() {
        assert_eq!(env_parse::<usize>("ATLAS_NO_SUCH_KNOB"), Ok(None));
        assert_eq!(env_string("ATLAS_NO_SUCH_KNOB"), None);
        assert!(env_path("ATLAS_NO_SUCH_KNOB").is_none());
        assert!(!env_flag("ATLAS_NO_SUCH_KNOB"));
    }

    #[test]
    fn numeric_knobs_parse_and_garbage_is_rejected() {
        let parse = |raw: &str| parse_knob("ATLAS_THREADS", raw, |s| s.parse::<usize>().ok());
        assert_eq!(parse(""), Ok(None));
        assert_eq!(parse("0"), Ok(Some(0)));
        assert_eq!(parse("12"), Ok(Some(12)));
        for garbage in ["abc", "-1", " 4", "4 ", "1.5", "0x10"] {
            let err = parse(garbage).unwrap_err();
            assert!(err.contains("ATLAS_THREADS"), "{err}");
            assert!(err.contains(&format!("{garbage:?}")), "{err}");
        }
        // A custom parser rejects loudly the same way.
        let seed = |raw: &str| parse_knob("ATLAS_FLEET_SEED", raw, parse_u64);
        assert_eq!(seed("0x5EED"), Ok(Some(0x5EED)));
        assert!(seed("seed")
            .unwrap_err()
            .contains("ATLAS_FLEET_SEED=\"seed\""));
    }

    fn cursor(args: &[&str]) -> ArgCursor {
        ArgCursor::new(args.iter().map(|s| s.to_string()))
    }

    /// A binary-style flag loop over plain strings: `--threads N`,
    /// `--store PATH`, `--trace`.
    fn parse_flags(args: &[&str]) -> Result<(usize, Option<PathBuf>, bool), String> {
        let (mut threads, mut store, mut trace) = (0, None, false);
        let mut args = cursor(args);
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--threads" => threads = args.value()?,
                "--store" => store = Some(args.path()?),
                "--trace" => trace = true,
                _ => return Err(args.unknown()),
            }
        }
        Ok((threads, store, trace))
    }

    #[test]
    fn flags_take_values_and_reject_malformed_ones() {
        assert_eq!(parse_flags(&[]), Ok((0, None, false)));
        assert_eq!(
            parse_flags(&["--trace", "--threads", "4", "--store", "s"]),
            Ok((4, Some(PathBuf::from("s")), true))
        );
        // A repeated flag: the last one wins.
        assert_eq!(
            parse_flags(&["--threads", "2", "--threads", "3"]),
            Ok((3, None, false))
        );
        // A missing value at the end.
        assert_eq!(
            parse_flags(&["--trace", "--threads"]),
            Err("--threads needs a value".to_string())
        );
        // A value that is the next flag is not taken as the value.
        assert_eq!(
            parse_flags(&["--store", "--trace"]),
            Err("--store needs a value, found the flag \"--trace\"".to_string())
        );
        // An unparsable number names the flag and the value.
        assert_eq!(
            parse_flags(&["--threads", "abc"]),
            Err("--threads \"abc\" is not a valid usize".to_string())
        );
        assert!(parse_flags(&["--threads", "-1"])
            .unwrap_err()
            .contains("\"-1\""));
        // An unknown flag, and a stray positional argument.
        assert_eq!(
            parse_flags(&["--thread", "4"]),
            Err("unknown argument \"--thread\"".to_string())
        );
        assert_eq!(
            parse_flags(&["4"]),
            Err("unknown argument \"4\"".to_string())
        );
    }

    #[test]
    fn seeds_parse_in_both_spellings() {
        assert_eq!(parse_u64("24301"), Some(24301));
        assert_eq!(parse_u64("0x5EED"), Some(0x5EED));
        assert_eq!(parse_u64(" 0X5eed "), Some(0x5EED));
        assert_eq!(parse_u64("nope"), None);
        assert_eq!(parse_u64("0xzz"), None);
    }
}
