//! The batch evaluation pipeline: cold + warm-started inference, the full
//! app suite under all three specification variants, one JSON report.
//!
//! ```sh
//! cargo run --release -p atlas-bench --bin batch > report.json
//! # cross-process warm start via the persistent store:
//! ATLAS_STORE=target/atlas-store cargo run --release -p atlas-bench --bin batch
//! ATLAS_STORE=target/atlas-store cargo run --release -p atlas-bench --bin batch -- --expect-warm
//! ```
//!
//! The human summary goes to stderr, the JSON document to stdout.  Budgets
//! come from the usual knobs (`ATLAS_SAMPLES`, `ATLAS_APPS`,
//! `ATLAS_THREADS`) plus the suite-shape knobs `ATLAS_BATCH_SEED`,
//! `ATLAS_BATCH_MAX_PATTERNS`, and `ATLAS_BATCH_SIZE_FACTOR`.
//!
//! Flags:
//!
//! * `--threads N` — engine worker threads, overriding `ATLAS_THREADS`
//!   (0 = one per core); CI matrices pass this instead of mutating the
//!   environment.
//! * `--store PATH` — persistent store directory, overriding `ATLAS_STORE`.
//! * `--trace` — record span events (overriding `ATLAS_TRACE`); never
//!   changes results.
//! * `--trace-out PATH` — write the run's Chrome trace-event JSON to
//!   `PATH` (implies `--trace`; overrides `ATLAS_TRACE_OUT`).
//! * `--expect-warm` — assert the cross-process warm-start invariants after
//!   the run: the store had a cache, the reload hit rate is nonzero, the
//!   first leg re-executed nothing, and the inferred spec set is
//!   byte-identical to the previous process's export.  Exits `1` when any
//!   of that fails, so CI smoke steps can rely on it.

use atlas_bench::Json;
use atlas_core::env::Cli;
use std::path::PathBuf;

const USAGE: &str =
    "batch [--threads N] [--store PATH] [--trace] [--trace-out PATH] [--expect-warm]";

fn main() {
    let mut config = atlas_bench::BatchConfig::from_env();
    let mut expect_warm = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut cli = Cli::new("batch", USAGE);
    cli.parse(|flag, cli| match flag {
        "--threads" => config.threads = cli.value(),
        "--store" => config.store = Some(cli.path()),
        "--trace" => config.trace = true,
        "--trace-out" => {
            config.trace = true;
            trace_out = Some(cli.path());
        }
        "--expect-warm" => expect_warm = true,
        _ => cli.unknown(),
    });
    if expect_warm && config.store.is_none() {
        cli.fail("--expect-warm needs a store (--store or ATLAS_STORE)");
    }
    eprintln!(
        "batch: {} samples/cluster, {} apps, threads={}{}",
        config.samples,
        config.app_config.count,
        config.threads,
        match &config.store {
            Some(dir) => format!(", store={}", dir.display()),
            None => String::new(),
        }
    );
    let report = match atlas_bench::run_batch(&config) {
        Ok(report) => report,
        Err(e) => {
            // Store trouble (unwritable directory, corrupt artifact) is an
            // operational error with a position, not a crash.
            eprintln!("batch: store error: {e}");
            std::process::exit(1);
        }
    };
    eprint!("{}", report.summary);
    print!("{}", report.json.render());
    atlas_bench::export_trace(&report.recorder, trace_out);
    if expect_warm {
        verify_warm_start(&report.json);
    }
}

/// The `--expect-warm` contract: everything a cross-process warm start
/// promises, checked from the report itself.  Failure messages name the
/// store files involved, so a cold store is diagnosable from the CI log
/// alone.
fn verify_warm_start(report: &Json) {
    let store = report.get("store").unwrap_or(&Json::Null);
    let inference = report.get("inference").unwrap_or(&Json::Null);
    let cache_file = store
        .get("cache_file")
        .and_then(Json::as_str)
        .unwrap_or("<no store configured>");
    let spec_file = store
        .get("spec_file")
        .and_then(Json::as_str)
        .unwrap_or("<no store configured>");
    let mut failures = Vec::new();
    if store.get("warm_started_from_disk").and_then(Json::as_bool) != Some(true) {
        failures.push(format!(
            "the store held no cache to warm-start from (expected {cache_file})"
        ));
    }
    match store.get("reload_hit_rate").and_then(Json::as_f64) {
        Some(rate) if rate > 0.0 => {}
        rate => failures.push(format!(
            "reload hit rate from {cache_file} is not positive: {rate:?}"
        )),
    }
    if store.get("cross_process_identical").and_then(Json::as_bool) != Some(true) {
        failures.push(format!(
            "inferred spec set differs from the previous process's export at {spec_file}"
        ));
    }
    match inference.get("cold_executions").and_then(Json::as_int) {
        Some(0) => {}
        n => failures.push(format!(
            "first leg re-executed unit tests despite {cache_file}: {n:?}"
        )),
    }
    atlas_bench::enforce_contract(
        "batch",
        "--expect-warm",
        &failures,
        "cross-process warm start verified (identical specs, 0 re-executions)",
    );
}
