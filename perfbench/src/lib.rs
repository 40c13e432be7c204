//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <batch-javalib|serve-javalib|edit-synth128>
//!           --seed <n> --seconds <s> --trace <0|1> [--expect-digest 0x..]
//! ```
//!
//! `--trace 0` runs the workload untraced for about `--seconds` and
//! reports the end-to-end metrics; `--trace 1` replays one fixed slice of
//! the workload through the layer driver and reports the per-layer
//! metrics.  Either way the outputs are checked, and the last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 exactly when every check passed.  Scratch stores
//! live under `.perfbench-work/` in the working directory and are
//! removed before exit.

pub mod batch;
pub mod edit;
pub mod layers;
pub mod serve;
pub mod synth;
pub mod util;
pub mod witness;

use std::time::Instant;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("infer_cold_s", "s"),
    ("infer_warm_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units.  A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("learn.sample.self_ms", "ms"),
    ("learn.sample.draws", "count"),
    ("learn.sample.positives", "count"),
    ("learn.oracle.queries", "count"),
    ("learn.oracle.executions", "count"),
    ("learn.oracle.exec_ms", "ms"),
    ("learn.cache.hit_rate", "ratio"),
    ("learn.cache.warm_hits", "count"),
    ("learn.cache.entries", "count"),
    ("learn.cache.clone_ms", "ms"),
    ("learn.rpni.self_ms", "ms"),
    ("learn.rpni.max_cluster_ms", "ms"),
    ("learn.rpni.merges_tried", "count"),
    ("learn.rpni.merges_accepted", "count"),
    ("learn.rpni.words_checked", "count"),
    ("synth.witness_us", "us"),
    ("interp.lower_us", "us"),
    ("interp.vm_us", "us"),
    ("interp.vm.execs_per_s", "1/s"),
    ("interp.compile_ms", "ms"),
    ("core.engine.build_ms", "ms"),
    ("core.engine.cluster_ms", "ms"),
    ("core.engine.critical_path_ms", "ms"),
    ("core.incr.dirty_clusters", "count"),
    ("core.incr.clean_clusters", "count"),
    ("core.incr.forced_dirty", "count"),
    ("core.incr.splice_ms", "ms"),
    ("core.incr.provenance_ms", "ms"),
    ("apps.mutate_ms", "ms"),
    ("ir.interface_ms", "ms"),
    ("ir.depgraph_ms", "ms"),
    ("store.spec_encode_ms", "ms"),
    ("store.artifact_bytes", "bytes"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.daemon_overhead_ms", "ms"),
    ("serve.shards.hits", "count"),
    ("serve.shards.misses", "count"),
    ("serve.shards.evictions", "count"),
    ("serve.shards.pin_overflows", "count"),
    ("serve.flush_ms", "ms"),
    ("pointsto.extract_ms", "ms"),
    ("pointsto.solve_ms", "ms"),
    ("flow.find_ms", "ms"),
    ("pointsto.edges", "count"),
    ("flow.flows", "count"),
    ("obs.coverage", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

pub const WORKLOADS: &[&str] = &["batch-javalib", "serve-javalib", "edit-synth128"];

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Replaces the recorded inference digest `batch-javalib` checks
    /// against (the self-tests use it to prove a mismatch fails).
    pub expect_digest: Option<String>,
}

/// Parses the command line (without the program name).
pub fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        expect_digest: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--expect-digest" => args.expect_digest = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not '{}'",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Decides whether a time-bounded loop starts another lap: always the
/// first, and later ones only if a lap as long as the last still fits.
pub struct Stop {
    start: Instant,
    seconds: f64,
    last_lap: Option<f64>,
    lap_start: Instant,
}

impl Stop {
    pub fn new(seconds: f64) -> Stop {
        Stop {
            start: Instant::now(),
            seconds,
            last_lap: None,
            lap_start: Instant::now(),
        }
    }

    pub fn another(&mut self) -> bool {
        self.lap_start = Instant::now();
        match self.last_lap {
            None => true,
            Some(lap) => self.start.elapsed().as_secs_f64() + lap <= self.seconds,
        }
    }

    pub fn lap(&mut self) {
        self.last_lap = Some(self.lap_start.elapsed().as_secs_f64());
    }
}
