//! The benchmark's command-line entry point; see the library docs.

use atlas_perfbench::layers::Layers;
use atlas_perfbench::util::{self, Outcome};
use atlas_perfbench::{batch, parse_args, serve, synth, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work =
        PathBuf::from(".perfbench-work").join(format!("{}-{}", args.workload, std::process::id()));
    // Start from a clean page cache: write-back of an earlier run's (or
    // any other process's) files must not land inside this run's timings.
    util::sync_disks();
    let mut out = Outcome::default();
    let metrics: &[(&str, &str)] = if args.trace {
        let mut lt = match args.workload.as_str() {
            "batch-javalib" => batch::trace(&args, &mut out),
            "serve-javalib" => serve::trace(&args, &work, &mut out),
            _ => synth::trace(&args, &work, &mut out),
        };
        for error in std::mem::take(&mut lt.errors) {
            out.fail(error);
        }
        lt.finish_cache();
        lt.values.insert("obs.coverage", lt.coverage());
        for &(name, _) in PER_LAYER {
            out.set(name, lt.values.get(name).copied().unwrap_or(0.0));
        }
        let unknown: Vec<_> = lt
            .values
            .keys()
            .filter(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
            .collect();
        if !unknown.is_empty() {
            out.fail(format!("unlisted per-layer metrics {unknown:?}"));
        }
        print_self_times(&lt);
        PER_LAYER
    } else {
        match args.workload.as_str() {
            "batch-javalib" => batch::run(&args, &mut out),
            "serve-javalib" => serve::run(&args, &work, &mut out),
            _ => synth::run(&args, &work, &mut out),
        }
        out.set("peak_rss_mb", util::peak_rss_mb());
        END_TO_END
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench-work");
    // Leave the disk quiet for whatever runs next.
    util::sync_disks();

    let mut fields = Vec::new();
    for &(name, unit) in metrics {
        let value = out.metrics.get(name).copied().unwrap_or(f64::NAN);
        let value = if value.is_finite() {
            value
        } else {
            out.fail(format!("metric {name} was not measured"));
            0.0
        };
        eprintln!("perfbench: {name:>32} {value:>14.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// Prints the traced run's self-time table to standard error.
fn print_self_times(lt: &Layers) {
    eprintln!(
        "perfbench: self time by layer (ms), product wall {:.1} ms",
        lt.wall_ms
    );
    for (bucket, ms) in &lt.self_ms {
        eprintln!(
            "perfbench: {bucket:>16} {ms:>12.2} {:>6.1}%",
            100.0 * ms / lt.wall_ms
        );
    }
}
