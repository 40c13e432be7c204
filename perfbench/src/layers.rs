//! The traced layer driver's bookkeeping and its cluster-level replay.
//!
//! The driver times calls into each crate's public functions from here —
//! nothing inside the program is instrumented.  Every timed product call
//! is charged to exactly one *self-time bucket* (a layer), so the buckets
//! add up to the product path's wall time; `obs.coverage` is that sum
//! divided by the wall time.  Work the driver does only to split a call
//! it cannot enter (a *probe*) is timed apart and never counted in the
//! wall.
//!
//! Phase 1 and phase 2 run inside one oracle, so their sampler/RPNI and
//! unit-test shares are split by a probe: the cluster is re-run against
//! an oracle that already holds every verdict of the product run.  That
//! re-run executes nothing, learns the same automaton (checked), and its
//! phase times are the sampler's and RPNI's self time; the product run's
//! phase times minus the probe's are the oracle's unit-test time.

use atlas_core::{ClusterJob, Engine, VerdictCache};
use atlas_interp::CompiledProgram;
use atlas_ir::LibraryInterface;
use atlas_learn::{
    infer_fsa, sample_positive_examples, Oracle, OracleConfig, SampleResult, SamplerConfig,
};
use atlas_spec::Fsa;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::util::{ms_since, timed};

/// Per-layer metrics that merge by maximum rather than by sum.
const MAX_METRICS: &[&str] = &["learn.rpni.max_cluster_ms", "core.engine.critical_path_ms"];

/// Accumulated per-layer values, self-time buckets and product wall time.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Per-layer metric values by metric name (summed, or maximised for
    /// [`MAX_METRICS`]).
    pub values: BTreeMap<&'static str, f64>,
    /// Self time in milliseconds per layer bucket.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Wall time of the product path the buckets must cover, ms.
    pub wall_ms: f64,
    /// Probe failures (an automaton the warm re-run did not reproduce).
    pub errors: Vec<String>,
}

impl Layers {
    /// Adds `v` to metric `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if MAX_METRICS.contains(&name) {
            let slot = self.values.entry(name).or_insert(0.0);
            *slot = slot.max(v);
        } else {
            *self.values.entry(name).or_insert(0.0) += v;
        }
    }

    /// Charges `ms` of self time to layer `bucket`.
    pub fn charge(&mut self, bucket: &'static str, ms: f64) {
        *self.self_ms.entry(bucket).or_insert(0.0) += ms;
    }

    /// Charges `ms` to `bucket` and adds it to metric `name`.
    pub fn time(&mut self, bucket: &'static str, name: &'static str, ms: f64) {
        self.charge(bucket, ms);
        self.add(name, ms);
    }

    /// Folds another driver's layers into this one.
    pub fn merge(&mut self, other: Layers) {
        for (name, v) in other.values {
            self.add(name, v);
        }
        for (bucket, ms) in other.self_ms {
            self.charge(bucket, ms);
        }
        self.wall_ms += other.wall_ms;
        self.errors.extend(other.errors);
    }

    /// Attributed self time over product wall time.
    pub fn coverage(&self) -> f64 {
        self.self_ms.values().sum::<f64>() / self.wall_ms
    }

    /// Turns the raw cache counters into the reported hit rate.
    pub fn finish_cache(&mut self) {
        let lookups = self.values.remove("learn.cache.lookups").unwrap_or(0.0);
        let hits = self.values.remove("learn.cache.hits").unwrap_or(0.0);
        let rate = if lookups > 0.0 { hits / lookups } else { 0.0 };
        self.values.insert("learn.cache.hit_rate", rate);
    }
}

/// What the replay of one cluster job produced.
pub struct ClusterReplay {
    pub index: usize,
    pub fsa: Fsa,
    /// The cluster oracle's verdict cache after the run.
    pub cache: VerdictCache,
    restricted: LibraryInterface,
    oracle_config: OracleConfig,
    sampler_config: SamplerConfig,
    p1_ms: f64,
    p2_ms: f64,
    executions: usize,
}

/// Replays one cluster job exactly as the engine runs it (interface
/// restriction, oracle over a warm copy of `warm`, phase 1, phase 2),
/// timing every call.  Phase times are recorded raw; [`split_phases`]
/// attributes them once the probe has run.  `None` for a cluster whose
/// restricted interface is empty, which the engine skips too.
pub fn replay_cluster(
    engine: &Engine<'_>,
    job: &ClusterJob,
    warm: &VerdictCache,
    compiled: &Arc<CompiledProgram>,
    lt: &mut Layers,
) -> Option<ClusterReplay> {
    let config = engine.config();
    let t_cluster = Instant::now();
    let (restricted, restrict_ms) = timed(|| engine.interface().restrict_to_classes(&job.classes));
    lt.charge("core", restrict_ms);
    if restricted.slots().is_empty() {
        return None;
    }
    let oracle_config = OracleConfig {
        strategy: config.init,
        limits: config.limits,
        fingerprint: Some(job.closure),
        engine: config.engine,
        ..OracleConfig::default()
    };
    let (cache, clone_ms) = timed(|| warm.warm_clone());
    lt.time("learn.cache", "learn.cache.clone_ms", clone_ms);
    let (mut oracle, setup_ms) = timed(|| {
        let mut oracle = Oracle::with_cache(
            engine.program(),
            engine.interface(),
            oracle_config.clone(),
            cache,
        );
        oracle.set_compiled_program(Arc::clone(compiled));
        oracle
    });
    lt.charge("core", setup_ms);
    let mut sampler_config = config.sampler.clone();
    sampler_config.seed = job.seed;

    let (samples, p1_ms): (SampleResult, f64) = timed(|| {
        sample_positive_examples(
            &restricted,
            &mut oracle,
            config.sampling,
            config.samples_per_cluster,
            &sampler_config,
        )
    });
    let p1_queries = oracle.stats().queries;
    let (rpni, p2_ms) = timed(|| infer_fsa(&samples.positives, &mut oracle, &config.rpni));
    let stats = oracle.stats();
    let cache_stats = oracle.cache_stats();
    let (cache, into_ms) = timed(|| oracle.into_cache());
    lt.charge("core", into_ms);

    lt.add("learn.sample.draws", samples.num_samples as f64);
    lt.add("learn.sample.positives", samples.positives.len() as f64);
    lt.add("learn.oracle.queries", stats.queries as f64);
    lt.add("learn.oracle.executions", stats.executions as f64);
    lt.add("learn.cache.lookups", cache_stats.lookups as f64);
    lt.add("learn.cache.hits", cache_stats.hits as f64);
    lt.add("learn.cache.warm_hits", cache_stats.warm_hits as f64);
    lt.add(
        "learn.rpni.merges_tried",
        (rpni.merges_accepted + rpni.merges_rejected) as f64,
    );
    lt.add("learn.rpni.merges_accepted", rpni.merges_accepted as f64);
    lt.add(
        "learn.rpni.words_checked",
        (stats.queries - p1_queries) as f64,
    );
    let cluster_ms = ms_since(t_cluster);
    lt.add("core.engine.cluster_ms", cluster_ms);
    lt.add("core.engine.critical_path_ms", cluster_ms);
    Some(ClusterReplay {
        index: job.index,
        fsa: rpni.fsa,
        cache,
        restricted,
        oracle_config,
        sampler_config,
        p1_ms,
        p2_ms,
        executions: stats.executions,
    })
}

/// Splits a replayed cluster's phase times into sampler, RPNI and oracle
/// self time.  A cluster that executed unit tests is probed (re-run
/// against its own complete verdict cache); one that executed nothing
/// already ran at probe conditions.  Returns the probe's wall time, which
/// the caller keeps out of the product wall.
pub fn split_phases(engine: &Engine<'_>, replay: &ClusterReplay, lt: &mut Layers) -> f64 {
    let (sample_ms, rpni_ms, probe_ms) = if replay.executions == 0 {
        (replay.p1_ms, replay.p2_ms, 0.0)
    } else {
        let t_probe = Instant::now();
        let config = engine.config();
        let mut oracle = Oracle::with_cache(
            engine.program(),
            engine.interface(),
            replay.oracle_config.clone(),
            replay.cache.warm_clone(),
        );
        oracle.set_compiled_program(engine.compiled_program());
        let (samples, p1w) = timed(|| {
            sample_positive_examples(
                &replay.restricted,
                &mut oracle,
                config.sampling,
                config.samples_per_cluster,
                &replay.sampler_config,
            )
        });
        let (rpni, p2w) = timed(|| infer_fsa(&samples.positives, &mut oracle, &config.rpni));
        if rpni.fsa != replay.fsa || oracle.stats().executions != 0 {
            lt.errors.push(format!(
                "cluster {}: the warm probe did not reproduce the automaton without executions",
                replay.index
            ));
        }
        (p1w, p2w, ms_since(t_probe))
    };
    let exec_ms = (replay.p1_ms - sample_ms) + (replay.p2_ms - rpni_ms);
    lt.time("learn.sample", "learn.sample.self_ms", sample_ms);
    lt.time("learn.rpni", "learn.rpni.self_ms", rpni_ms);
    lt.add("learn.rpni.max_cluster_ms", rpni_ms);
    lt.time("learn.oracle", "learn.oracle.exec_ms", exec_ms);
    probe_ms
}

/// Replays every job over `threads` workers (the engine's work queue:
/// an atomic cursor, results slotted in job order) and then probes each
/// replayed cluster.  Returns the per-job replays, the layers (whose
/// wall time is the summed worker busy time: the coverage denominator of
/// a parallel section) and the product replay's elapsed time in
/// milliseconds, probes excluded.
pub fn replay_clusters(
    engine: &Engine<'_>,
    jobs: &[ClusterJob],
    warm: &VerdictCache,
    threads: usize,
) -> (Vec<Option<ClusterReplay>>, Layers, f64) {
    let compiled = engine.compiled_program();
    let t_product = Instant::now();
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<ClusterReplay>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    let merged = Mutex::new(Layers::default());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut lt = Layers::default();
                let t = Instant::now();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let run = replay_cluster(engine, job, warm, &compiled, &mut lt);
                    slots.lock().expect("slot lock")[i] = run;
                }
                lt.wall_ms += ms_since(t);
                merged.lock().expect("layer lock").merge(lt);
            });
        }
    });
    let product_ms = ms_since(t_product);
    let slots = slots.into_inner().expect("slot lock");
    let mut lt = merged.into_inner().expect("layer lock");
    // Probes after the product replay, on the same number of workers.
    let cursor = AtomicUsize::new(0);
    let probed = Mutex::new(Layers::default());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut local = Layers::default();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(i) else { break };
                    if let Some(replay) = slot {
                        split_phases(engine, replay, &mut local);
                    }
                }
                probed.lock().expect("layer lock").merge(local);
            });
        }
    });
    lt.merge(probed.into_inner().expect("layer lock"));
    (slots, lt, product_ms)
}
