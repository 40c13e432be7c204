//! `edit-synth128`: the daemon's per-edit call sequence (see
//! [`crate::edit`]) driven single-threaded over a generated synthetic
//! library of 128 classes, one cluster per class.  The daemon itself only
//! serves registry libraries, so this workload calls the public
//! functions directly, with the daemon's shard budget and flush schedule.
//!
//! The run is a sequence of fixed-length episodes, each a fresh session
//! seeded from the start-up shards; every episode ends with the check
//! that the session's artifact equals a cold run over its final library.
//! The read (`read_*`) is rendering the session's current spec document,
//! which is what a `specs` response carries.

use atlas_apps::{generate_library, SynthLibConfig};
use atlas_core::Recorder;
use atlas_serve::HotShards;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::edit::{self, cold_and_warm, mutation, Base, EditParams, SHARD_BUDGET};
use crate::layers::Layers;
use crate::util::{median, mix, report_laps, timed, Lap, Outcome};
use crate::{Args, Stop};

const CLASSES: usize = 128;
const LIBRARY_SEED: u64 = 0x5EED;
const SAMPLES: usize = 120;
/// Edits per episode.
const EPISODE_EDITS: usize = 250;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Edits in the traced run.
const TRACE_EDITS: usize = EPISODE_EDITS;

/// The library under edit.  It is part of the workload's definition, so
/// its generator seed is fixed; the run seed drives the edit streams.
fn library() -> atlas_apps::SyntheticLibrary {
    generate_library(&SynthLibConfig {
        name: "synth128".to_string(),
        seed: LIBRARY_SEED,
        classes: CLASSES,
        ..SynthLibConfig::default()
    })
}

/// Set-up: generate the library and boot into a fresh store at `root`
/// (a cold inference of every cluster).
fn setup(root: &Path) -> Result<(EditParams, Base), String> {
    let lib = library();
    let recorder = Recorder::metrics();
    let params = EditParams {
        clusters: lib.clusters,
        samples: SAMPLES,
        threads: 1,
        hot: Arc::new(Mutex::new(
            HotShards::new(root, SHARD_BUDGET).with_recorder(recorder.clone()),
        )),
        recorder,
    };
    let base = edit::boot(lib.program, &params, 1)?;
    Ok((params, base))
}

/// One episode of `edits` edits (each followed by a read) in a fresh
/// session at `dir`.  Returns per-edit and per-read latencies and the
/// session's final rendered artifact and warm-cache size.
struct Episode {
    edit_ms: Vec<f64>,
    read_ms: Vec<f64>,
    artifact: String,
    program: atlas_ir::Program,
}

fn episode(
    params: &EditParams,
    base: &Base,
    dir: &Path,
    stream: u64,
    edits: usize,
    mut lt: Option<&mut Layers>,
    out: &mut Outcome,
) -> Option<Episode> {
    let mut state = match edit::open(base, params, dir.to_path_buf()) {
        Ok(state) => state,
        Err(e) => {
            out.fail(format!("open failed: {e}"));
            return None;
        }
    };
    let mut edit_ms = Vec::with_capacity(edits);
    let mut read_ms = Vec::with_capacity(edits);
    for i in 0..edits {
        let t = Instant::now();
        let result = edit::apply(&mut state, params, &mutation(stream, i), lt.as_deref_mut());
        edit_ms.push(crate::util::ms_since(t));
        if let Err(e) = result {
            out.fail(e);
            continue;
        }
        out.check(true, String::new);
        if lt.is_none() {
            let (doc, ms) = timed(|| state.specs_doc.render());
            read_ms.push(ms);
            out.check(!doc.is_empty(), || "empty spec document".to_string());
        }
    }
    if let Some(lt) = lt {
        lt.values
            .insert("learn.cache.entries", state.warm.len() as f64);
    }
    let artifact = state.specs_doc.render();
    if let Err(e) = edit::close(&state, params) {
        out.fail(format!("close failed: {e}"));
    }
    Some(Episode {
        edit_ms,
        read_ms,
        artifact,
        program: state.program,
    })
}

/// Checks an episode's artifact against a cold run (and its warm twin)
/// over the episode's final library; returns their wall times.
fn check(run: &Episode, params: &EditParams, out: &mut Outcome) -> Option<(f64, f64)> {
    match cold_and_warm(&run.program, &params.config(1)) {
        Ok(cw) => {
            out.check(run.artifact == cw.cold, || {
                "the session's artifact differs from a cold run over its final library".to_string()
            });
            out.check(cw.warm == cw.cold && cw.warm_executions == 0, || {
                "the warm re-run differs from the cold run".to_string()
            });
            Some((cw.cold_s, cw.warm_s))
        }
        Err(e) => {
            out.fail(format!("cold reference failed: {e}"));
            None
        }
    }
}

/// The untraced workload: episodes until the time is up.
pub fn run(args: &Args, work: &Path, out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut kept = None;
    let root = work.join("synth");
    for _ in 0..SETUPS {
        // Every set-up boots into an empty store.
        drop(kept.take());
        let _ = std::fs::remove_dir_all(&root);
        let (result, ms) = timed(|| setup(&root));
        setups.push(ms / 1e3);
        match result {
            Ok(pair) => kept = Some(pair),
            Err(e) => return out.fail(format!("set-up failed: {e}")),
        }
    }
    let (params, base) = kept.expect("at least one set-up");
    let mut stop = Stop::new(args.seconds);
    let (mut laps, mut cold_s, mut warm_s) = (vec![], vec![], vec![]);
    let mut e = 0u64;
    while stop.another() {
        let dir = root.join("sessions").join(format!("e{e}"));
        let stream = mix(args.seed, &[1, e]);
        if let Some(run) = episode(&params, &base, &dir, stream, EPISODE_EDITS, None, out) {
            if let Some((c, w)) = check(&run, &params, out) {
                cold_s.push(c);
                warm_s.push(w);
            }
            laps.push(Lap {
                wall_ms: run.edit_ms.iter().chain(&run.read_ms).sum(),
                op_ms: run.edit_ms,
                read_ms: run.read_ms,
            });
        }
        e += 1;
        stop.lap();
    }
    eprintln!("perfbench: edit-synth128 ran {e} episode(s) of {EPISODE_EDITS} edits");
    out.set("setup_s", median(&setups));
    out.set("infer_cold_s", median(&cold_s));
    out.set("infer_warm_s", median(&warm_s));
    report_laps(&laps, out);
}

/// The traced run: one untraced episode, then the same stream through
/// the layer driver in a fresh session, byte-compared.
pub fn trace(args: &Args, work: &Path, out: &mut Outcome) -> Layers {
    let mut lt = Layers::default();
    let root = work.join("synth-trace");
    let (params, base) = match setup(&root) {
        Ok(pair) => pair,
        Err(e) => {
            out.fail(format!("set-up failed: {e}"));
            return lt;
        }
    };
    let stream = mix(args.seed, &[1, 0]);
    let untraced = episode(
        &params,
        &base,
        &root.join("sessions/untraced"),
        stream,
        TRACE_EDITS,
        None,
        out,
    );
    let before = params.hot.lock().expect("hot shard lock").stats();
    let traced = episode(
        &params,
        &base,
        &root.join("sessions/traced"),
        stream,
        TRACE_EDITS,
        Some(&mut lt),
        out,
    );
    let after = params.hot.lock().expect("hot shard lock").stats();
    if let (Some(untraced), Some(traced)) = (untraced, traced) {
        out.check(traced.artifact == untraced.artifact, || {
            "the traced session's artifact differs from the untraced one".to_string()
        });
        check(&untraced, &params, out);
        let untraced_ms: f64 = untraced.edit_ms.iter().sum();
        lt.values
            .insert("obs.trace_overhead", lt.wall_ms / untraced_ms);
    }
    lt.values
        .insert("serve.shards.hits", (after.hits - before.hits) as f64);
    lt.values
        .insert("serve.shards.misses", (after.misses - before.misses) as f64);
    lt.values.insert(
        "serve.shards.evictions",
        (after.evictions - before.evictions) as f64,
    );
    lt.values.insert(
        "serve.shards.pin_overflows",
        (after.pin_overflows - before.pin_overflows) as f64,
    );
    crate::witness::measure(&base.program, &mut lt);
    lt
}
