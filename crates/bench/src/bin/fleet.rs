//! The multi-library fleet pipeline: concurrent inference over a registry
//! of library variants with per-library sharded stores, one JSON report.
//!
//! ```sh
//! cargo run --release -p atlas-bench --bin fleet > report.json
//! # sharded cross-process warm start:
//! ATLAS_FLEET_STORE=target/atlas-fleet cargo run --release -p atlas-bench --bin fleet
//! ATLAS_FLEET_STORE=target/atlas-fleet cargo run --release -p atlas-bench --bin fleet -- --expect-warm
//! ```
//!
//! The human summary goes to stderr, the `atlas-fleet/1` JSON document to
//! stdout.  Budgets come from the usual knobs (`ATLAS_SAMPLES`,
//! `ATLAS_THREADS`) plus `ATLAS_FLEET_STORE` (sharded store root),
//! `ATLAS_FLEET_SEED` (synthetic-library seed), and `ATLAS_FLEET_LIBS`
//! (comma-separated member names).
//!
//! Flags:
//!
//! * `--list` — print the registry and exit.
//! * `--libraries A,B,...` — fleet members, overriding `ATLAS_FLEET_LIBS`.
//! * `--threads N` — global worker budget, overriding `ATLAS_THREADS`
//!   (0 = one per core); bounds outer workers × per-library threads.
//! * `--samples N` — per-cluster sampling budget, overriding
//!   `ATLAS_SAMPLES`.
//! * `--store ROOT` — sharded store root, overriding `ATLAS_FLEET_STORE`.
//! * `--normalized-out PATH` — additionally write the timing-stripped
//!   report (see `atlas_bench::fleet::normalized`); two same-seed runs
//!   against the same store state produce byte-identical files, which CI
//!   `cmp`s.
//! * `--trace` — record span events (overriding `ATLAS_TRACE`); never
//!   changes results.
//! * `--trace-out PATH` — write the run's Chrome trace-event JSON to
//!   `PATH` (implies `--trace`; overrides `ATLAS_TRACE_OUT`).
//! * `--expect-warm` — assert that *every* library warm-started from its
//!   shard with zero re-executions and a byte-identical spec export; exits
//!   `1` otherwise.

use atlas_bench::config::parse_library_list;
use atlas_bench::fleet::{self, FleetConfig};
use atlas_bench::Json;
use atlas_core::env::Cli;
use std::path::PathBuf;

const USAGE: &str = "fleet [--list] [--libraries A,B,...] [--threads N] [--samples N] \
                     [--store ROOT] [--normalized-out PATH] [--trace] [--trace-out PATH] \
                     [--expect-warm]";

fn main() {
    let mut config = FleetConfig::from_env();
    let mut expect_warm = false;
    let mut normalized_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut cli = Cli::new("fleet", USAGE);
    cli.parse(|flag, cli| match flag {
        "--list" => {
            for name in fleet::registry_names() {
                println!("{name}");
            }
            std::process::exit(0);
        }
        "--libraries" => config.libraries = parse_library_list(&cli.string()),
        "--threads" => config.threads = cli.value(),
        "--samples" => config.samples = cli.value(),
        "--store" => config.store_root = Some(cli.path()),
        "--normalized-out" => normalized_out = Some(cli.path()),
        "--trace" => config.trace = true,
        "--trace-out" => {
            config.trace = true;
            trace_out = Some(cli.path());
        }
        "--expect-warm" => expect_warm = true,
        _ => cli.unknown(),
    });
    if expect_warm && config.store_root.is_none() {
        cli.fail("--expect-warm needs a store (--store or ATLAS_FLEET_STORE)");
    }
    eprintln!(
        "fleet: {} [{}], {} samples/cluster, threads={}{}",
        config.libraries.len(),
        config.libraries.join(", "),
        config.samples,
        config.threads,
        match &config.store_root {
            Some(root) => format!(", store={}", root.display()),
            None => String::new(),
        }
    );
    let report = match fleet::run_fleet(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fleet: {e}");
            std::process::exit(1);
        }
    };
    eprint!("{}", report.summary);
    print!("{}", report.json.render());
    atlas_bench::export_trace(&report.recorder, trace_out);
    if let Some(path) = &normalized_out {
        let norm = fleet::normalized(&report.json).render();
        if let Err(e) = std::fs::write(path, &norm) {
            eprintln!("fleet: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("fleet: normalized report written to {}", path.display());
    }
    if expect_warm {
        verify_warm_start(&report.json);
    }
}

/// The `--expect-warm` contract: every fleet member warm-started from its
/// shard, re-executed nothing, and reproduced its spec export byte for
/// byte.
fn verify_warm_start(report: &Json) {
    let mut failures = Vec::new();
    let empty = Vec::new();
    let libraries = report
        .get("libraries")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    if libraries.is_empty() {
        failures.push("the report lists no libraries".to_string());
    }
    for row in libraries {
        let name = row.get("name").and_then(Json::as_str).unwrap_or("?");
        let store = row.get("store").unwrap_or(&Json::Null);
        // Name the shard directory in every failure, so the CI log alone
        // says which store location was cold.
        let shard = store
            .get("shard")
            .and_then(Json::as_str)
            .unwrap_or("<no shard configured>");
        if store.get("warm_started_from_disk").and_then(Json::as_bool) != Some(true) {
            failures.push(format!(
                "{name}: shard {shard} held no cache to warm-start from"
            ));
        }
        match store.get("reload_hit_rate").and_then(Json::as_f64) {
            Some(rate) if rate > 0.0 => {}
            rate => failures.push(format!(
                "{name}: reload hit rate from shard {shard} is not positive: {rate:?}"
            )),
        }
        if store.get("specs_identical").and_then(Json::as_bool) != Some(true) {
            failures.push(format!(
                "{name}: inferred spec set differs from the export in shard {shard}"
            ));
        }
        match row.get("executions").and_then(Json::as_int) {
            Some(0) => {}
            n => failures.push(format!(
                "{name}: re-executed unit tests despite shard {shard}: {n:?}"
            )),
        }
    }
    let verified = format!(
        "cross-process warm start verified for {} shard(s) (identical specs, 0 re-executions)",
        libraries.len()
    );
    atlas_bench::enforce_contract("fleet", "--expect-warm", &failures, &verified);
}
