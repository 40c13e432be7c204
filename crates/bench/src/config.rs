//! The one place environment knobs are parsed.
//!
//! Every binary and module of the harness reads its budgets through these
//! helpers, so a knob means the same thing everywhere:
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `ATLAS_SAMPLES` | phase-one sampling budget per class cluster | 4000 |
//! | `ATLAS_APPS` | generated benchmark app count | 46 |
//! | `ATLAS_THREADS` | total worker-thread budget (0 = one per core) | 0 |
//! | `ATLAS_BATCH_SEED` | base seed of the generated app suite (decimal) | `0xA71A5` |
//! | `ATLAS_BATCH_MAX_PATTERNS` | most access patterns per generated app | 12 |
//! | `ATLAS_BATCH_SIZE_FACTOR` | filler-code multiplier on generated-app sizes | 1 |
//! | `ATLAS_STORE` | persistent store directory (batch: flat layout) | unset |
//! | `ATLAS_FLEET_STORE` | fingerprint-sharded fleet store root | unset |
//! | `ATLAS_FLEET_SEED` | base seed of the synthetic fleet libraries | `0x5EED` |
//! | `ATLAS_FLEET_LIBS` | comma-separated fleet library names | registry default |
//! | `ATLAS_INCR_STORE` | closure-sharded incremental-leg store root | `target/atlas-incr` |
//! | `ATLAS_ENGINE` | oracle execution engine (`bytecode` / `tree-walk`) | `bytecode` |
//! | `ATLAS_ORACLE_WORDS` | oracle-leg workload: most distinct witnesses | 64 |
//! | `ATLAS_ORACLE_ROUNDS` | oracle-leg executions per witness per engine | 200 |
//! | `ATLAS_SERVE_EDITS` | serve-leg edit-stream length | 1000 |
//! | `ATLAS_SERVE_SESSIONS` | serve-leg concurrent sessions | 1 |
//! | `ATLAS_VM_PROFILE` | per-opcode VM execution counts in oracle legs | off |
//! | `ATLAS_TRACE` | record span events (`1`/`true`/`yes`/`on`) | off |
//! | `ATLAS_TRACE_OUT` | Chrome trace-event JSON output path | unset |
//!
//! The resident-service daemon reads its own `ATLAS_SERVE_*` family
//! (store root, shard budget, queue capacity, flush schedule, frame
//! bound) in `atlas_serve::config`; the serve leg combines those with the
//! shared budgets above.
//!
//! An unset or empty knob takes its default — a CI matrix that exports
//! an empty string must not change behavior.  A set value that does not
//! parse exits the process with status 1, naming the variable and the
//! value: `ATLAS_THREADS=abc` silently running on automatic threads, or
//! a misspelled `ATLAS_ENGINE=tree-walk` silently running the bytecode
//! engine (which would turn every cross-engine comparison into a
//! comparison of bytecode with itself), measures something nobody asked
//! for.  The primitive parsers live in [`atlas_core::env`], shared with
//! the serve daemon's knob table; this module only adds the knob *names*
//! and their defaults.

pub use atlas_core::env::env_path;
use atlas_core::env::{env_flag, env_parse, env_parse_with, parse_u64, DEFAULT_SAMPLES};
use std::path::PathBuf;

/// The value of a parse, or — for a malformed knob — exit status 1 with
/// the error on standard error.
pub(crate) fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// Reads a numeric knob: `None` when unset or empty.  A value that does
/// not parse exits the process with status 1 (see the [module
/// docs](self)).
pub fn env_knob<T: std::str::FromStr>(var: &str) -> Option<T> {
    or_exit(env_parse(var))
}

/// Reads the per-cluster sampling budget from `ATLAS_SAMPLES` (default
/// [`DEFAULT_SAMPLES`], shared with the resident service).
pub fn sample_budget() -> usize {
    env_knob("ATLAS_SAMPLES").unwrap_or(DEFAULT_SAMPLES)
}

/// Reads the global worker-thread budget from `ATLAS_THREADS` (default 0 =
/// one per available core).  The thread count never changes results, only
/// wall-clock; in fleet runs it bounds the *total* worker count across the
/// outer scheduler and every engine (see `atlas_core::ThreadBudget`).
pub fn thread_budget() -> usize {
    env_knob("ATLAS_THREADS").unwrap_or(0)
}

/// Reads the app count from `ATLAS_APPS` (default 46).
pub fn app_count() -> usize {
    env_knob("ATLAS_APPS").unwrap_or(46)
}

/// Reads the batch pipeline's flat store directory from `ATLAS_STORE`.
pub fn store_dir() -> Option<PathBuf> {
    env_path("ATLAS_STORE")
}

/// Reads the fleet pipeline's sharded store root from `ATLAS_FLEET_STORE`.
pub fn fleet_store_root() -> Option<PathBuf> {
    env_path("ATLAS_FLEET_STORE")
}

/// Reads the synthetic-library base seed from `ATLAS_FLEET_SEED` —
/// decimal or `0x`-prefixed hex, matching how the default (`0x5EED`) and
/// the fingerprints in reports are written.
pub fn fleet_seed() -> u64 {
    or_exit(env_parse_with("ATLAS_FLEET_SEED", parse_u64)).unwrap_or(0x5EED)
}

/// The spellings [`parse_oracle_engine`] accepts, as listed in its error.
const ENGINE_SPELLINGS: &str = "bytecode, vm, tree-walk, treewalk, tree";

/// Parses an `ATLAS_ENGINE` value.  Empty selects the default engine;
/// anything [`atlas_core::OracleEngine::parse`] does not recognise is an
/// error naming the variable and the accepted spellings.
pub fn parse_oracle_engine(raw: &str) -> Result<atlas_core::OracleEngine, String> {
    if raw.is_empty() {
        return Ok(atlas_core::OracleEngine::default());
    }
    atlas_core::OracleEngine::parse(raw).ok_or_else(|| {
        format!("ATLAS_ENGINE={raw:?} is not an engine (accepted: {ENGINE_SPELLINGS})")
    })
}

/// Reads the oracle execution engine from `ATLAS_ENGINE` (`bytecode` /
/// `tree-walk`; default bytecode when unset or empty).  Engine choice can
/// never change results — the two engines are observationally identical
/// (see `atlas_interp::vm`) — only throughput; the knob exists for the
/// differential pipelines and for measuring one engine against the other.
/// An unrecognised value exits the process with status 1 (see
/// [`parse_oracle_engine`]).
pub fn oracle_engine() -> atlas_core::OracleEngine {
    let raw = std::env::var_os("ATLAS_ENGINE").unwrap_or_default();
    or_exit(parse_oracle_engine(&raw.to_string_lossy()))
}

/// Whether `ATLAS_VM_PROFILE` asks the oracle legs for per-opcode
/// dynamic execution counts (`1`/`true`/`yes`/`on`,
/// case-insensitive).  Profiling never changes results — the counters
/// ride a dedicated untimed pass outside the measured slices — it only
/// adds a `profile` section to the `atlas-oracle/1` report.
pub fn vm_profile_enabled() -> bool {
    env_flag("ATLAS_VM_PROFILE")
}

/// Whether `ATLAS_TRACE` asks for span recording (`1`/`true`/`yes`/`on`,
/// case-insensitive).  Tracing never changes results — the recorder
/// observes the pipelines from outside every verdict and artifact path —
/// only adds the event stream behind `ATLAS_TRACE_OUT`.
pub fn trace_enabled() -> bool {
    env_flag("ATLAS_TRACE")
}

/// Reads the Chrome trace-event sink path from `ATLAS_TRACE_OUT`.
pub fn trace_out() -> Option<PathBuf> {
    env_path("ATLAS_TRACE_OUT")
}

/// Builds the recorder a pipeline leg should run under: span tracing when
/// [`trace_enabled`], bare metrics otherwise.  Metrics stay cheap enough
/// to keep on for every run — the report legs fold them into their JSON.
pub fn recorder_from_env() -> atlas_obs::Recorder {
    if trace_enabled() {
        atlas_obs::Recorder::tracing()
    } else {
        atlas_obs::Recorder::metrics()
    }
}

/// Writes the Chrome trace sink to `out` — or, when `out` is `None`, to
/// the path named by `ATLAS_TRACE_OUT` (a no-op when neither is set).
/// Logs (not fails) on I/O errors — a missing trace must never turn a
/// green benchmark red.
pub fn export_trace(recorder: &atlas_obs::Recorder, out: Option<PathBuf>) {
    let Some(path) = out.or_else(trace_out) else {
        return;
    };
    match atlas_obs::write_chrome_trace(recorder, &path) {
        Ok(()) => eprintln!("trace: wrote {}", path.display()),
        Err(e) => eprintln!("trace: failed to write {}: {e}", path.display()),
    }
}

/// Parses a comma-separated library-name list (the `ATLAS_FLEET_LIBS` /
/// `fleet --libraries` syntax): names are trimmed, empty segments dropped.
pub fn parse_library_list(raw: &str) -> Vec<String> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Reads the fleet library selection from `ATLAS_FLEET_LIBS`
/// (comma-separated registry names); `None` means the registry default.
pub fn fleet_libraries() -> Option<Vec<String>> {
    let raw = std::env::var("ATLAS_FLEET_LIBS").ok()?;
    let names = parse_library_list(&raw);
    if names.is_empty() {
        None
    } else {
        Some(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_historical() {
        // The suite must not depend on ambient ATLAS_* values; these
        // helpers are exercised against explicitly absent variables.
        assert_eq!(env_knob::<usize>("ATLAS_DOES_NOT_EXIST"), None);
        assert!(env_path("ATLAS_DOES_NOT_EXIST").is_none());
    }

    #[test]
    fn engine_spellings_parse_and_misspellings_are_rejected() {
        use atlas_core::OracleEngine;
        assert_eq!(parse_oracle_engine(""), Ok(OracleEngine::Bytecode));
        for spelling in ENGINE_SPELLINGS.split(", ") {
            assert!(parse_oracle_engine(spelling).is_ok(), "{spelling}");
        }
        assert_eq!(parse_oracle_engine("vm"), Ok(OracleEngine::Bytecode));
        assert_eq!(parse_oracle_engine("tree-walk"), Ok(OracleEngine::TreeWalk));
        for typo in ["Tree-Walk", "tree_walk", "bytcode", " tree-walk"] {
            let err = parse_oracle_engine(typo).unwrap_err();
            assert!(err.contains("ATLAS_ENGINE"), "{err}");
            assert!(err.contains(ENGINE_SPELLINGS), "{err}");
        }
    }
}
