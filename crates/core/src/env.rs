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

use std::env::VarError;
use std::path::PathBuf;

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

    #[test]
    fn seeds_parse_in_both_spellings() {
        assert_eq!(parse_u64("24301"), Some(24301));
        assert_eq!(parse_u64("0x5EED"), Some(0x5EED));
        assert_eq!(parse_u64(" 0X5eed "), Some(0x5EED));
        assert_eq!(parse_u64("nope"), None);
        assert_eq!(parse_u64("0xzz"), None);
    }
}
