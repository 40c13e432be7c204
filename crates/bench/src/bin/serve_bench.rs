//! The resident-service pipeline: spawn an in-process `atlas-serve`
//! daemon, replay a deterministic mutation-generator edit stream, and
//! byte-compare the daemon's final artifact against a cold batch run.
//! One `atlas-serve/1` JSON report.
//!
//! ```sh
//! cargo run --release -p atlas-bench --bin serve_bench > report.json
//! # the CI smoke gate:
//! ATLAS_SERVE_STORE=target/atlas-serve-ci cargo run --release -p atlas-bench --bin serve_bench -- \
//!     --library javalib-lang --edits 1000 --expect-throughput 5
//! ```
//!
//! The human summary goes to stderr, the JSON document to stdout.  Budgets
//! come from the usual knobs (`ATLAS_SAMPLES`, `ATLAS_THREADS`) plus the
//! `ATLAS_SERVE_*` family for the daemon (see `atlas_serve::config`) and
//! `ATLAS_SERVE_EDITS` for the stream length.
//!
//! Flags:
//!
//! * `--library NAME` — registry name of the library under service
//!   (default `javalib`).
//! * `--samples N` / `--threads N` — budgets, overriding the environment.
//! * `--store ROOT` — closure-sharded store root, overriding
//!   `ATLAS_SERVE_STORE`.
//! * `--edits N` — edit-stream length (default 1000; per session when
//!   `--sessions` > 1).
//! * `--sessions N` — concurrent sessions (default 1).  With more than
//!   one, the run switches to the multi-session leg: `N` named sessions
//!   on one daemon, each replayed from its own client thread, each
//!   byte-compared against its own cold baseline, one `atlas-serve/2`
//!   report with aggregate throughput.
//! * `--workers N` — daemon worker-pool width (0 = auto from the thread
//!   budget).
//! * `--shards N` — hot-shard LRU budget.
//! * `--queue N` — request-queue capacity.
//! * `--flush-every N` — write-behind schedule (`0` = every edit).
//! * `--seed N` — base mutation seed.
//! * `--trace` — record daemon span events (overriding `ATLAS_TRACE`);
//!   never changes results.
//! * `--trace-out PATH` — write the daemon's Chrome trace-event JSON to
//!   `PATH` (implies `--trace`; overrides `ATLAS_TRACE_OUT`).
//! * `--expect-throughput N` — assert the service contract: the final
//!   artifact byte-identical to the cold baseline, fingerprints matching,
//!   and at least `N` edits per second sustained.  Exits `1` otherwise.

use atlas_bench::{Json, ServeBenchConfig};
use atlas_core::env::Cli;
use std::path::PathBuf;

const USAGE: &str = "serve_bench [--library NAME] [--samples N] [--threads N] [--store ROOT] \
                     [--edits N] [--sessions N] [--workers N] [--shards N] [--queue N] \
                     [--flush-every N] [--seed N] [--trace] [--trace-out PATH] \
                     [--expect-throughput N]";

fn main() {
    let mut config = ServeBenchConfig::from_env();
    let mut expect_throughput: Option<f64> = None;
    let mut trace_out: Option<PathBuf> = None;
    Cli::new("serve_bench", USAGE).parse(|flag, cli| match flag {
        "--library" => config.serve.library = cli.string(),
        "--samples" => config.serve.samples = cli.value(),
        "--threads" => config.serve.threads = cli.value(),
        "--store" => config.serve.store = cli.path(),
        "--edits" => config.edits = cli.value(),
        "--sessions" => config.sessions = cli.value(),
        "--workers" => config.serve.workers = cli.value(),
        "--shards" => config.serve.shard_budget = cli.value(),
        "--queue" => config.serve.queue_capacity = cli.value(),
        "--flush-every" => config.serve.flush_every = cli.value(),
        "--seed" => config.seed = cli.value(),
        "--trace" => config.serve.trace = true,
        "--trace-out" => {
            config.serve.trace = true;
            trace_out = Some(cli.path());
        }
        "--expect-throughput" => expect_throughput = Some(cli.value()),
        _ => cli.unknown(),
    });
    eprintln!(
        "serve_bench: {} ({} samples/cluster, threads={}, workers={}, sessions={}, edits={}, store={})",
        config.serve.library,
        config.serve.samples,
        config.serve.threads,
        config.serve.workers,
        config.sessions,
        config.edits,
        config.serve.store.display()
    );
    let run = if config.sessions > 1 {
        atlas_bench::run_serve_multi_bench(&config)
    } else {
        atlas_bench::run_serve_bench(&config)
    };
    let report = match run {
        Ok(report) => report,
        Err(e) => {
            eprintln!("serve_bench: {e}");
            std::process::exit(1);
        }
    };
    eprint!("{}", report.summary);
    print!("{}", report.json.render());
    atlas_bench::export_trace(&report.recorder, trace_out);
    if let Some(min_throughput) = expect_throughput {
        verify_serve(&report.json, &config, min_throughput);
    }
}

/// The `--expect-throughput` contract, checked from the report itself.
/// Failure messages name the store root, so a wedged or diverged daemon is
/// diagnosable from the CI log alone.
fn verify_serve(report: &Json, config: &ServeBenchConfig, min_throughput: f64) {
    let store = config.serve.store.display();
    let mut failures = Vec::new();
    let equivalence = report.get("equivalence").unwrap_or(&Json::Null);
    if equivalence.get("identical").and_then(Json::as_bool) != Some(true) {
        failures.push(format!(
            "the daemon's final artifact over {store} is not byte-identical to the cold baseline"
        ));
    }
    if equivalence
        .get("fingerprints_match")
        .and_then(Json::as_bool)
        != Some(true)
    {
        failures.push(
            "the daemon's final library fingerprint diverged from the replayed content".to_string(),
        );
    }
    let edits = report.get("edits").unwrap_or(&Json::Null);
    let accepted = edits.get("accepted").and_then(Json::as_int).unwrap_or(0);
    if accepted == 0 {
        failures.push("the daemon accepted no edits at all".to_string());
    }
    let throughput = report
        .get("throughput_edits_per_sec")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if throughput < min_throughput {
        failures.push(format!(
            "throughput {throughput:.2} edits/s is below the {min_throughput:.2} floor"
        ));
    }
    let p99 = report
        .get("latency_ms")
        .and_then(|l| l.get("p99"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let verified = format!(
        "contract verified ({accepted} edits accepted, \
         {throughput:.1} edits/s, p99 {p99:.2}ms, byte-identical to cold batch)"
    );
    atlas_bench::enforce_contract("serve_bench", "--expect-throughput", &failures, &verified);
}
