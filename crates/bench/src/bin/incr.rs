//! The incremental-inference pipeline: seed a closure-sharded store cold,
//! apply one deterministic library edit, re-analyze incrementally, and
//! compare against the cold baseline.  One `atlas-incr/1` JSON report.
//!
//! ```sh
//! cargo run --release -p atlas-bench --bin incr > report.json
//! # the CI smoke gate:
//! ATLAS_INCR_STORE=target/atlas-incr cargo run --release -p atlas-bench --bin incr -- \
//!     --mutation body-edit --target TreeMap.put --expect-incremental
//! ```
//!
//! The human summary goes to stderr, the JSON document to stdout.  Budgets
//! come from the usual knobs (`ATLAS_SAMPLES`, `ATLAS_THREADS`) plus
//! `ATLAS_INCR_STORE` for the store root.
//!
//! Flags:
//!
//! * `--library NAME` — registry name of the library under edit (default
//!   `javalib`).
//! * `--samples N` / `--threads N` — budgets, overriding the environment.
//! * `--store ROOT` — closure-sharded store root, overriding
//!   `ATLAS_INCR_STORE`.
//! * `--mutation KIND` — `rename-local` | `body-edit` | `add-method` |
//!   `signature-change` (default `body-edit`).
//! * `--target NAME` — explicit `Class.method` (or class, for add-method).
//! * `--seed N` — mutation seed.
//! * `--trace` — record span events (overriding `ATLAS_TRACE`); never
//!   changes results.
//! * `--trace-out PATH` — write the run's Chrome trace-event JSON to
//!   `PATH` (implies `--trace`; overrides `ATLAS_TRACE_OUT`).
//! * `--expect-incremental` — assert the incremental contract: fewer than
//!   all clusters dirty, no forced re-runs, byte-identical splice, and
//!   fewer re-executions than the cold baseline.  Exits `1` otherwise.

use atlas_bench::{IncrConfig, Json};
use atlas_core::env::Cli;
use atlas_ir::MutationKind;
use std::path::PathBuf;

const USAGE: &str = "incremental [--library NAME] [--samples N] [--threads N] [--store ROOT] \
                     [--mutation KIND] [--target NAME] [--seed N] [--trace] [--trace-out PATH] \
                     [--expect-incremental]";

fn parse_kind(raw: &str) -> Option<MutationKind> {
    match raw {
        "rename-local" => Some(MutationKind::RenameLocal),
        "body-edit" => Some(MutationKind::BodyEdit),
        "add-method" => Some(MutationKind::AddMethod),
        "signature-change" => Some(MutationKind::SignatureChange),
        _ => None,
    }
}

fn main() {
    let mut config = IncrConfig::from_env();
    let mut expect_incremental = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut cli = Cli::new("incremental", USAGE);
    cli.parse(|flag, cli| match flag {
        "--library" => config.library = cli.string(),
        "--samples" => config.samples = cli.value(),
        "--threads" => config.threads = cli.value(),
        "--store" => config.store = cli.path(),
        "--mutation" => {
            let raw = cli.string();
            config.mutation = parse_kind(&raw)
                .unwrap_or_else(|| cli.fail(&format!("unknown mutation kind '{raw}'")));
        }
        "--target" => config.target = Some(cli.string()),
        "--seed" => config.seed = cli.value(),
        "--trace" => config.trace = true,
        "--trace-out" => {
            config.trace = true;
            trace_out = Some(cli.path());
        }
        "--expect-incremental" => expect_incremental = true,
        _ => cli.unknown(),
    });
    eprintln!(
        "incremental: {} ({} samples/cluster, threads={}, mutation={}, store={})",
        config.library,
        config.samples,
        config.threads,
        config.mutation,
        config.store.display()
    );
    let report = match atlas_bench::run_incremental(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("incremental: {e}");
            std::process::exit(1);
        }
    };
    eprint!("{}", report.summary);
    print!("{}", report.json.render());
    atlas_bench::export_trace(&report.recorder, trace_out);
    if expect_incremental {
        verify_incremental(&report.json, &config);
    }
}

/// The `--expect-incremental` contract, checked from the report itself.
/// Failure messages name the store root, so a cold/missing shard is
/// diagnosable from the CI log alone.
fn verify_incremental(report: &Json, config: &IncrConfig) {
    let store = config.store.display();
    let clusters = report.get("clusters").unwrap_or(&Json::Null);
    let executions = report.get("executions").unwrap_or(&Json::Null);
    let mut failures = Vec::new();
    let total = clusters.get("total").and_then(Json::as_int).unwrap_or(0);
    let dirty = clusters.get("dirty").and_then(Json::as_int).unwrap_or(-1);
    let clean = clusters.get("clean").and_then(Json::as_int).unwrap_or(0);
    if !(0 < dirty && dirty < total) {
        failures.push(format!(
            "the edit must dirty some but not all clusters (dirty {dirty} of {total})"
        ));
    }
    if clean == 0 {
        failures.push(format!(
            "no cluster spliced from the store at {store} — was it seeded cold?"
        ));
    }
    match clusters.get("forced_dirty").and_then(Json::as_int) {
        Some(0) => {}
        n => failures.push(format!(
            "clean clusters re-ran because their shard under {store} was missing: {n:?}"
        )),
    }
    if report.get("splice_identical").and_then(Json::as_bool) != Some(true) {
        failures.push(format!(
            "spliced artifacts from {store} are not byte-identical to the cold baseline"
        ));
    }
    let cold = executions
        .get("cold_new")
        .and_then(Json::as_int)
        .unwrap_or(0);
    let incr = executions
        .get("incremental")
        .and_then(Json::as_int)
        .unwrap_or(i64::MAX);
    if incr >= cold {
        failures.push(format!(
            "incremental re-executed as much as cold ({incr} vs {cold})"
        ));
    }
    let verified = format!(
        "contract verified ({dirty}/{total} clusters dirty, \
         {incr} vs {cold} executions, byte-identical splice from {store})"
    );
    atlas_bench::enforce_contract("incremental", "--expect-incremental", &failures, &verified);
}
