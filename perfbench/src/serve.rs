//! `serve-javalib`: an in-process `atlas-serve` daemon on javalib at 120
//! samples per cluster, booted from an empty store, hosting two sessions.
//! Each session is driven by its own closed-loop client (one thread,
//! waiting for every reply) replaying the mutation-generator rotation,
//! with a `specs` read after every edit.
//!
//! The run is a sequence of episodes: open two fresh sessions, replay a
//! fixed-length stream into each, then check each session's final
//! artifact against a cold `Engine::run` over the client's replayed
//! program (and a warm re-run from that cold run's verdicts), and close
//! the sessions.  Fixed-length episodes keep the per-session warm cache,
//! which grows with stream length, the same size in every run.

use atlas_apps::mutate_library;
use atlas_core::AtlasConfig;
use atlas_ir::hash::library_fingerprint;
use atlas_ir::{ClassId, LibraryInterface, Program};
use atlas_serve::{EditRequest, Envelope, HotShards, Request, ServeConfig, ServeHandle, Service};
use atlas_store::{hex64_string, Json};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::edit::{self, cold_and_warm, mutation, EditParams, SHARD_BUDGET};
use crate::layers::Layers;
use crate::util::{median, mix, ms_since, report_laps, timed, Lap, Outcome};
use crate::{Args, Stop};

const LIBRARY: &str = "javalib";
const SAMPLES: usize = 120;
/// The daemon's thread budget (`nproc`) and worker pool: two sessions
/// run concurrently, one engine thread each.
const THREADS: usize = 2;
const WORKERS: usize = 2;
const SESSIONS: usize = 2;
/// Edits per session per episode.
const EPISODE_EDITS: usize = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

struct Daemon {
    store: PathBuf,
    service: Service,
    handle: ServeHandle,
    program: Program,
    clusters: Vec<Vec<ClassId>>,
}

impl Daemon {
    /// The reference runs' configuration: the daemon's budget, single
    /// threaded so the reference timing has no scheduling noise.
    fn config(&self) -> AtlasConfig {
        AtlasConfig {
            samples_per_cluster: SAMPLES,
            clusters: self.clusters.clone(),
            num_threads: 1,
            ..AtlasConfig::default()
        }
    }

    /// Shuts the daemon down and deletes its store.
    fn shutdown(mut self) {
        let _ = self.handle.request(Envelope::of(Request::Shutdown));
        self.service.join();
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// Set-up: the client's copy of the library, daemon boot with its cold
/// seed inference over an empty store, and the first episode's sessions.
fn setup(store: &Path, out: &mut Outcome) -> Result<Daemon, String> {
    let lib = atlas_apps::build_library(LIBRARY, ServeConfig::default().synth_seed)
        .map_err(|e| e.to_string())?;
    let config = ServeConfig::new()
        .with_library(LIBRARY)
        .with_samples(SAMPLES)
        .with_threads(THREADS)
        .with_workers(WORKERS)
        .with_store(store.to_path_buf());
    let service = Service::spawn(config).map_err(|e| e.to_string())?;
    let handle = service.handle();
    let daemon = Daemon {
        store: store.to_path_buf(),
        service,
        handle,
        program: lib.program,
        clusters: lib.clusters,
    };
    for s in 0..SESSIONS {
        open(&daemon.handle, &session_name(0, s), out);
    }
    Ok(daemon)
}

fn session_name(episode: u64, s: usize) -> String {
    format!("e{episode}s{s}")
}

fn open(handle: &ServeHandle, name: &str, out: &mut Outcome) {
    let response = handle.request(Envelope::of(Request::Open).in_session(name));
    out.check(response.outcome.is_ok(), || format!("open {name} failed"));
}

/// One client's stream: per-request latencies, the library fingerprint
/// each edit reported, and the final `specs` artifact.
struct Stream {
    edit_ms: Vec<f64>,
    read_ms: Vec<f64>,
    fingerprints: Vec<Option<Json>>,
    artifact: String,
    errors: Vec<String>,
}

/// Replays `edits` edits into session `name`, each followed by a `specs`
/// read that must report the fingerprint the edit reported.
fn client(handle: &ServeHandle, name: &str, base: u64, edits: usize) -> Stream {
    let mut stream = Stream {
        edit_ms: Vec::with_capacity(edits),
        read_ms: Vec::with_capacity(edits),
        fingerprints: Vec::with_capacity(edits),
        artifact: String::new(),
        errors: Vec::new(),
    };
    for i in 0..edits {
        let m = mutation(base, i);
        let request = Envelope::with_id(
            i as i64,
            Request::Edit(EditRequest {
                kind: m.kind,
                seed: m.seed,
                target: None,
            }),
        )
        .in_session(name);
        let (response, ms) = timed(|| handle.request(request));
        stream.edit_ms.push(ms);
        let fingerprint = match response.outcome {
            Ok(result) => result.get("library_fingerprint").cloned(),
            Err(e) => {
                stream
                    .errors
                    .push(format!("{name} edit {i}: {}", e.message));
                None
            }
        };
        let request = Envelope::with_id(i as i64, Request::Specs).in_session(name);
        let (response, ms) = timed(|| handle.request(request));
        stream.read_ms.push(ms);
        match response.outcome {
            Ok(result)
                if fingerprint.is_some()
                    && result.get("library_fingerprint") == fingerprint.as_ref() =>
            {
                if i + 1 == edits {
                    stream.artifact = result.get("artifact").map(Json::render).unwrap_or_default();
                }
            }
            Ok(_) => stream
                .errors
                .push(format!("{name} read {i}: stale or missing fingerprint")),
            Err(e) => stream
                .errors
                .push(format!("{name} read {i}: {}", e.message)),
        }
        stream.fingerprints.push(fingerprint);
    }
    stream
}

/// Replays a client's stream locally (after the timed replay, so the
/// client threads stay closed-loop): every edit must apply and yield the
/// fingerprint the daemon reported.  Returns the final program.
fn replay_locally(
    d: &Daemon,
    name: &str,
    base: u64,
    stream: &Stream,
    out: &mut Outcome,
) -> Program {
    let mut program = d.program.clone();
    for (i, served) in stream.fingerprints.iter().enumerate() {
        match mutate_library(&program, &mutation(base, i)) {
            Ok(mutated) => program = mutated.program,
            Err(e) => {
                out.fail(format!("{name} edit {i}: locally ineligible: {e}"));
                continue;
            }
        }
        let interface = LibraryInterface::from_program(&program);
        let local = Json::str(hex64_string(library_fingerprint(&program, &interface)));
        out.check(served.as_ref() == Some(&local), || {
            format!("{name} edit {i}: served fingerprint differs from the local replay")
        });
    }
    program
}

/// One episode: concurrent client streams into fresh sessions, then the
/// local replays, the cold/warm reference checks and close.  Returns the
/// streams, the replay's wall time in ms and the cold/warm wall times in
/// seconds.
fn episode(
    d: &Daemon,
    seed: u64,
    e: u64,
    edits: usize,
    out: &mut Outcome,
) -> (Vec<Stream>, f64, Vec<(f64, f64)>) {
    let names: Vec<String> = (0..SESSIONS).map(|s| session_name(e, s)).collect();
    let bases: Vec<u64> = (0..SESSIONS)
        .map(|s| mix(seed, &[1, e, s as u64]))
        .collect();
    if e > 0 {
        names.iter().for_each(|name| open(&d.handle, name, out));
    }
    let t = Instant::now();
    let streams: Vec<Stream> = std::thread::scope(|scope| {
        let threads: Vec<_> = names
            .iter()
            .zip(&bases)
            .map(|(name, &base)| {
                let handle = d.handle.clone();
                scope.spawn(move || client(&handle, name, base, edits))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    let replay_ms = ms_since(t);
    let mut infer = Vec::new();
    for ((name, &base), stream) in names.iter().zip(&bases).zip(&streams) {
        out.attempted += 2 * edits as u64 - stream.errors.len() as u64;
        for error in &stream.errors {
            out.fail(error.clone());
        }
        let program = replay_locally(d, name, base, stream, out);
        match cold_and_warm(&program, &d.config()) {
            Ok(cw) => {
                out.check(stream.artifact == cw.cold, || {
                    format!("{name}: the served artifact differs from a cold run over the replayed program")
                });
                out.check(cw.warm == cw.cold && cw.warm_executions == 0, || {
                    format!("{name}: the warm re-run differs from the cold run")
                });
                infer.push((cw.cold_s, cw.warm_s));
            }
            Err(err) => out.fail(format!("{name}: cold reference failed: {err}")),
        }
        let response = d
            .handle
            .request(Envelope::of(Request::Close).in_session(name));
        out.check(response.outcome.is_ok(), || format!("close {name} failed"));
        // A closed session's shards are never read again.  Deleting them
        // before write-back keeps the run's disk traffic, and the disk
        // throttling it would provoke, out of later episodes' timings.
        let _ = std::fs::remove_dir_all(d.store.join("sessions").join(name));
    }
    (streams, replay_ms, infer)
}

/// The untraced workload: episodes until the time is up.
pub fn run(args: &Args, work: &Path, out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            Daemon::shutdown(previous);
        }
        let (d, ms) = timed(|| setup(&work.join(format!("serve-setup{k}")), out));
        setups.push(ms / 1e3);
        match d {
            Ok(d) => daemon = Some(d),
            Err(e) => return out.fail(format!("daemon set-up failed: {e}")),
        }
    }
    let d = daemon.expect("at least one set-up");
    let mut stop = Stop::new(args.seconds);
    let (mut laps, mut cold_s, mut warm_s) = (vec![], vec![], vec![]);
    let mut e = 0u64;
    while stop.another() {
        let (streams, wall_ms, infer) = episode(&d, args.seed, e, EPISODE_EDITS, out);
        let mut lap = Lap {
            wall_ms,
            ..Lap::default()
        };
        for stream in streams {
            lap.op_ms.extend(stream.edit_ms);
            lap.read_ms.extend(stream.read_ms);
        }
        laps.push(lap);
        for (c, w) in infer {
            cold_s.push(c);
            warm_s.push(w);
        }
        e += 1;
        stop.lap();
    }
    eprintln!("perfbench: serve-javalib ran {e} episode(s) of {SESSIONS}x{EPISODE_EDITS} edits");
    d.shutdown();
    out.set("setup_s", median(&setups));
    out.set("infer_cold_s", median(&cold_s));
    out.set("infer_warm_s", median(&warm_s));
    report_laps(&laps, out);
}

/// Edits per session in the traced run.
const TRACE_EDITS: usize = EPISODE_EDITS;

/// The traced run: one untraced episode through the daemon, then the
/// layer driver's replay of both sessions' streams (concurrently, one
/// engine thread each, over one shared hot shard cache), byte-compared
/// session by session.
pub fn trace(args: &Args, work: &Path, out: &mut Outcome) -> Layers {
    let mut lt = Layers::default();
    let d = match setup(&work.join("serve-trace"), out) {
        Ok(d) => d,
        Err(e) => {
            out.fail(format!("daemon set-up failed: {e}"));
            return lt;
        }
    };
    let (streams, untraced_ms, _) = episode(&d, args.seed, 0, TRACE_EDITS, out);
    match d.handle.request(Envelope::of(Request::Stats)).outcome {
        Ok(stats) => read_daemon_stats(&stats, &mut lt),
        Err(e) => out.fail(format!("stats failed: {}", e.message)),
    }
    let program = d.program.clone();
    let clusters = d.clusters.clone();
    d.shutdown();

    let root = work.join("serve-driver");
    let params = EditParams {
        clusters,
        samples: SAMPLES,
        threads: THREADS / WORKERS,
        hot: Arc::new(Mutex::new(HotShards::new(&root, SHARD_BUDGET))),
        recorder: atlas_core::Recorder::metrics(),
    };
    let base = match edit::boot(program, &params, THREADS) {
        Ok(base) => base,
        Err(e) => {
            out.fail(format!("driver boot failed: {e}"));
            return lt;
        }
    };
    // Per session: its layers, each edit's product time, its artifact.
    let results: Vec<(Layers, Vec<f64>, Result<String, String>)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..SESSIONS)
            .map(|s| {
                let (params, base) = (&params, &base);
                let dir: PathBuf = root.join("sessions").join(session_name(0, s));
                let stream_base = mix(args.seed, &[1, 0, s as u64]);
                scope.spawn(move || {
                    let mut lt = Layers::default();
                    let mut product = Vec::new();
                    let result = edit::open(base, params, dir).and_then(|mut state| {
                        for i in 0..TRACE_EDITS {
                            product.push(edit::apply(
                                &mut state,
                                params,
                                &mutation(stream_base, i),
                                Some(&mut lt),
                            )?);
                        }
                        lt.values
                            .insert("learn.cache.entries", state.warm.len() as f64);
                        Ok(state.specs_doc.render())
                    });
                    (lt, product, result)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("driver thread"))
            .collect()
    });
    let mut overhead = Vec::new();
    let mut traced_ms: f64 = 0.0;
    for ((thread_lt, product, result), stream) in results.into_iter().zip(&streams) {
        traced_ms = traced_ms.max(thread_lt.wall_ms);
        match result {
            Ok(doc) => out.check(doc == stream.artifact, || {
                "a traced session's artifact differs from the served one".to_string()
            }),
            Err(e) => out.fail(format!("traced replay failed: {e}")),
        }
        overhead.extend(
            stream
                .edit_ms
                .iter()
                .zip(&product)
                .map(|(client, driver)| client - driver),
        );
        lt.merge(thread_lt);
    }
    lt.values
        .insert("serve.daemon_overhead_ms", median(&overhead));
    lt.values
        .insert("obs.trace_overhead", traced_ms / untraced_ms);
    crate::witness::measure(&base.program, &mut lt);
    lt
}

/// Queue wait and shard-cache counters from the daemon's `stats` op.
fn read_daemon_stats(stats: &Json, lt: &mut Layers) {
    let wait = stats
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("serve.queue_wait_ns"));
    let ns = |key: &str| {
        wait.and_then(|w| w.get(key))
            .and_then(Json::as_int)
            .unwrap_or(0) as f64
    };
    lt.values.insert("serve.queue_wait_p50_ms", ns("p50") / 1e6);
    lt.values.insert("serve.queue_wait_p99_ms", ns("p99") / 1e6);
    let shards = stats.get("shards");
    let count = |key: &str| {
        shards
            .and_then(|s| s.get(key))
            .and_then(Json::as_int)
            .unwrap_or(0) as f64
    };
    lt.values.insert("serve.shards.hits", count("hits"));
    lt.values.insert("serve.shards.misses", count("misses"));
    lt.values
        .insert("serve.shards.evictions", count("evictions"));
    lt.values
        .insert("serve.shards.pin_overflows", count("pin_overflows"));
}
