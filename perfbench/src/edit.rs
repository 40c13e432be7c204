//! The resident service's edit path, driven through public functions:
//! daemon start-up (cold seed inference into a hot shard cache), session
//! namespaces seeded from the start-up shard bytes, and one edit as the
//! exact call sequence of the daemon's `apply_edit` — `mutate_library` →
//! `LibraryInterface::from_program` → `Engine::new(..).warm_start(..)` →
//! `incremental_session` → `run_with_shards` on the hot shards →
//! `run_provenance` → `spec_artifact().encode()`, with the daemon's
//! write-behind flush schedule.
//!
//! Untraced, [`apply`] only makes those calls.  Traced, it also times
//! each one, charges it to its layer and runs the probes that split the
//! calls it cannot enter (see [`crate::layers`]).

use atlas_apps::{mutate_library, MutationConfig};
use atlas_core::{AtlasConfig, ClusterDisposition, Engine, Recorder, RunProvenance, VerdictCache};
use atlas_interp::CompiledProgram;
use atlas_ir::{ClassId, DepGraph, LibraryInterface, MutationKind, Program};
use atlas_serve::{HotShards, SharedShards, EXTRACTION};
use atlas_store::{atomic_write, shard_entry, Json};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::layers::{replay_cluster, split_phases, Layers};
use crate::util::{ms_since, timed};

/// The daemon's default hot-shard budget.
pub const SHARD_BUDGET: usize = 64;
/// The daemon's default write-behind schedule: flush every 8 edits.
pub const FLUSH_EVERY: usize = 8;
/// The mutation-generator rotation every edit stream replays.
pub const EDIT_KINDS: [MutationKind; 4] = [
    MutationKind::BodyEdit,
    MutationKind::RenameLocal,
    MutationKind::AddMethod,
    MutationKind::SignatureChange,
];

/// The `i`-th edit of a stream whose edits are seeded from `base`.
pub fn mutation(base: u64, i: usize) -> MutationConfig {
    MutationConfig::new(EDIT_KINDS[i % EDIT_KINDS.len()], base + i as u64)
}

/// What every edit of a workload shares: the clusters, budgets, hot
/// shard cache and observability handle.
pub struct EditParams {
    pub clusters: Vec<Vec<ClassId>>,
    pub samples: usize,
    pub threads: usize,
    pub hot: Arc<Mutex<HotShards>>,
    pub recorder: Recorder,
}

impl EditParams {
    /// The engine configuration of one inference over the library.
    pub fn config(&self, threads: usize) -> AtlasConfig {
        AtlasConfig {
            samples_per_cluster: self.samples,
            clusters: self.clusters.clone(),
            num_threads: threads,
            ..AtlasConfig::default()
        }
    }
}

/// The post-start-up state every session is seeded from.
pub struct Base {
    pub program: Program,
    pub provenance: RunProvenance,
    pub warm: VerdictCache,
    pub specs_doc: Json,
    /// Raw shard file bytes after the start-up flush, per closure.
    seeds: Vec<(u64, Option<String>, Option<String>)>,
}

/// Daemon start-up: one incremental session of `program` against its own
/// provenance in the store's root namespace, so a cold store runs every
/// cluster and seeds itself; then flush and capture the shard bytes.
/// Start-up has the machine to itself, so it runs on `threads` engine
/// threads rather than an edit's share.
pub fn boot(program: Program, params: &EditParams, threads: usize) -> Result<Base, String> {
    let mut hot = params.hot.lock().expect("hot shard lock");
    let interface = LibraryInterface::from_program(&program);
    let engine = Engine::new(&program, &interface, params.config(threads))
        .with_recorder(params.recorder.clone());
    let provenance = engine.run_provenance();
    let mut session = engine.incremental_session(&provenance);
    let outcome = session
        .run_with_shards(&mut *hot, EXTRACTION)
        .map_err(|e| e.to_string())?;
    let specs_doc = outcome
        .spec_artifact(&program)
        .encode(&program)
        .map_err(|e| e.0)?;
    let warm = session.into_cache();
    drop(engine);
    hot.flush().map_err(|e| e.to_string())?;
    let seeds = provenance
        .clusters
        .iter()
        .map(|c| {
            let entry = shard_entry(hot.root(), c.closure);
            (
                c.closure,
                std::fs::read_to_string(&entry.cache).ok(),
                std::fs::read_to_string(&entry.specs).ok(),
            )
        })
        .collect();
    Ok(Base {
        program,
        provenance,
        warm,
        specs_doc,
        seeds,
    })
}

/// One open session: the library after its edits, the diff basis, the
/// rolling warm cache, the current specs document and its namespace.
pub struct EditState {
    pub program: Program,
    pub provenance: RunProvenance,
    pub warm: VerdictCache,
    pub specs_doc: Json,
    pub ns: usize,
    edits_since_flush: usize,
}

/// Opens a session over a fresh namespace at `dir`, seeded with the base
/// shard bytes — what the daemon's `open` does.
pub fn open(base: &Base, params: &EditParams, dir: PathBuf) -> Result<EditState, String> {
    let ns = params
        .hot
        .lock()
        .expect("hot shard lock")
        .add_namespace(dir.clone());
    for (closure, cache, specs) in &base.seeds {
        let entry = shard_entry(&dir, *closure);
        if let Some(text) = cache {
            atomic_write(&entry.cache, text).map_err(|e| e.to_string())?;
        }
        if let Some(text) = specs {
            atomic_write(&entry.specs, text).map_err(|e| e.to_string())?;
        }
    }
    Ok(EditState {
        program: base.program.clone(),
        provenance: base.provenance.clone(),
        warm: base.warm.warm_clone(),
        specs_doc: base.specs_doc.clone(),
        ns,
        edits_since_flush: 0,
    })
}

/// Flushes and retires a session's namespace — what the daemon's `close`
/// does.
pub fn close(state: &EditState, params: &EditParams) -> Result<(), String> {
    let mut hot = params.hot.lock().expect("hot shard lock");
    hot.flush_namespace(state.ns).map_err(|e| e.to_string())?;
    hot.retire_namespace(state.ns);
    Ok(())
}

/// Applies one edit to `state`.  Returns the product path's wall time in
/// milliseconds (probes excluded).  With `lt`, every call is charged to
/// its layer; without, the calls are made exactly the same way.
pub fn apply(
    state: &mut EditState,
    params: &EditParams,
    edit: &MutationConfig,
    mut lt: Option<&mut Layers>,
) -> Result<f64, String> {
    let t_edit = Instant::now();
    let mut probe_ms = 0.0;
    let (mutated, mutate_ms) = timed(|| mutate_library(&state.program, edit));
    let new_program = mutated
        .map_err(|e| format!("edit {:?}/{} rejected: {e}", edit.kind, edit.seed))?
        .program;
    let (new_interface, iface_ms) = timed(|| LibraryInterface::from_program(&new_program));
    let (warm, clone_ms) = timed(|| state.warm.warm_clone());
    let (engine, new_ms) = timed(|| {
        Engine::new(&new_program, &new_interface, params.config(params.threads))
            .with_recorder(params.recorder.clone())
    });
    let (engine, warm_start_ms) = timed(|| engine.warm_start(warm));
    let (mut session, incr_ms) = timed(|| engine.incremental_session(&state.provenance));
    let mut shards = SharedShards::new(Arc::clone(&params.hot), state.ns);
    let (outcome, run_ms) = timed(|| session.run_with_shards(&mut shards, EXTRACTION));
    let outcome = outcome.map_err(|e| e.to_string())?;

    if let Some(lt) = lt.as_deref_mut() {
        let t_probe = Instant::now();
        // Probes: the depgraph and the collected-cache copy inside
        // `incremental_session`; the compilation and the dirty clusters
        // inside `run_with_shards`.
        let (_, depgraph_ms) = timed(|| DepGraph::build(&new_program));
        let (_, collected_ms) = timed(|| engine.warm_cache().warm_clone());
        let jobs = engine.cluster_jobs();
        let mut compute_ms = 0.0;
        let mut compile_ms = 0.0;
        let compiled = engine.compiled_program();
        for cluster in &outcome.clusters {
            let ClusterDisposition::Reran(rerun) = &cluster.disposition else {
                continue;
            };
            if compile_ms == 0.0 {
                compile_ms = timed(|| CompiledProgram::compile(&new_program)).1;
            }
            let t = Instant::now();
            let replay = replay_cluster(
                &engine,
                &jobs[cluster.index],
                engine.warm_cache(),
                &compiled,
                lt,
            );
            compute_ms += ms_since(t);
            match replay {
                Some(replay) if replay.fsa == rerun.fsa => {
                    split_phases(&engine, &replay, lt);
                }
                _ => lt.errors.push(format!(
                    "edit {:?}/{}: the replay of cluster {} did not reproduce its automaton",
                    edit.kind, edit.seed, cluster.index
                )),
            }
        }
        let bytes = outcome
            .spec_artifact(&new_program)
            .encode(&new_program)
            .map(|doc| doc.render().len())
            .unwrap_or(0);
        probe_ms += ms_since(t_probe);

        lt.time("apps", "apps.mutate_ms", mutate_ms);
        lt.time("ir", "ir.interface_ms", iface_ms);
        lt.time("ir", "ir.depgraph_ms", depgraph_ms);
        lt.time(
            "learn.cache",
            "learn.cache.clone_ms",
            clone_ms + warm_start_ms + collected_ms,
        );
        let build_ms = new_ms + incr_ms - collected_ms;
        lt.add("core.engine.build_ms", build_ms);
        lt.charge("core", build_ms - depgraph_ms);
        lt.time("interp", "interp.compile_ms", compile_ms);
        lt.time(
            "core",
            "core.incr.splice_ms",
            run_ms - compute_ms - compile_ms,
        );
        lt.add("core.incr.dirty_clusters", outcome.dirty_clusters as f64);
        lt.add("core.incr.clean_clusters", outcome.clean_clusters as f64);
        lt.add("core.incr.forced_dirty", outcome.forced_dirty as f64);
        lt.add("store.artifact_bytes", bytes as f64);
    }

    let (new_provenance, prov_ms) = timed(|| engine.run_provenance());
    let (specs_doc, encode_ms) = timed(|| outcome.spec_artifact(&new_program).encode(&new_program));
    let specs_doc = specs_doc.map_err(|e| e.0)?;
    let t_finish = Instant::now();
    let collected = session.into_cache();
    drop(engine);
    drop(new_interface);
    state.program = new_program;
    state.provenance = new_provenance;
    state.warm = collected;
    state.specs_doc = specs_doc;
    state.edits_since_flush += 1;
    let finish_ms = ms_since(t_finish);
    let mut flush_ms = 0.0;
    if state.edits_since_flush >= FLUSH_EVERY {
        let (written, ms) = timed(|| {
            params
                .hot
                .lock()
                .expect("hot shard lock")
                .flush_namespace(state.ns)
        });
        written.map_err(|e| e.to_string())?;
        state.edits_since_flush = 0;
        flush_ms = ms;
    }
    let product_ms = ms_since(t_edit) - probe_ms;
    if let Some(lt) = lt {
        lt.time("core", "core.incr.provenance_ms", prov_ms);
        lt.time("store", "store.spec_encode_ms", encode_ms);
        lt.charge("core", finish_ms);
        lt.time("serve", "serve.flush_ms", flush_ms);
        lt.wall_ms += product_ms;
    }
    Ok(product_ms)
}

/// A cold full inference of `program` and a warm re-run from its verdict
/// cache: the rendered artifacts of both, their wall times in seconds and
/// the warm run's unit-test executions.  This is the reference an
/// incremental result must equal byte for byte.
pub struct ColdWarm {
    pub cold: String,
    pub warm: String,
    pub cold_s: f64,
    pub warm_s: f64,
    pub warm_executions: usize,
}

/// Runs [`ColdWarm`] for `program` under `config`.
pub fn cold_and_warm(program: &Program, config: &AtlasConfig) -> Result<ColdWarm, String> {
    let interface = LibraryInterface::from_program(program);
    let render = |outcome: &atlas_core::InferenceOutcome| {
        outcome
            .spec_artifact(program, &interface, EXTRACTION.0, EXTRACTION.1)
            .encode(program)
            .map(|doc| doc.render())
            .map_err(|e| e.0)
    };
    let t = Instant::now();
    let engine = Engine::new(program, &interface, config.clone());
    let mut session = engine.session();
    let cold = session.run();
    let cache = session.into_cache();
    let cold_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm = Engine::new(program, &interface, config.clone())
        .warm_start(cache)
        .run();
    let warm_s = t.elapsed().as_secs_f64();
    Ok(ColdWarm {
        cold: render(&cold)?,
        warm: render(&warm)?,
        cold_s,
        warm_s,
        warm_executions: warm.oracle_executions,
    })
}
