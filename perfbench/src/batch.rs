//! `batch-javalib`: the offline analyst job over the full javalib.
//!
//! Each round runs one cold inference (11 clusters, 4,000 samples per
//! cluster, 2 engine threads), a second pass warm-started from the first
//! pass's verdict cache, and the taint client over a 46-app suite under
//! the inferred, handwritten and ground-truth spec sets.  Round 0 analyses
//! the harness's reference suite, whose totals are recorded; later rounds
//! analyse suites generated from the run seed.
//!
//! The client operation (`op_*`) is one app analysed under one spec set:
//! points-to extraction, solving and flow search.  The read (`read_*`) is
//! fetching that spec set as code fragments for the app.

use atlas_apps::{generate_suite, AppConfig, GeneratedApp};
use atlas_core::{AtlasConfig, Engine, InferenceOutcome, SpecArtifact, SpecCluster, VerdictCache};
use atlas_ir::{DepGraph, LibraryInterface, MethodId, Program, Stmt};
use atlas_javalib::{
    android_model_specs, class_ids, ground_truth_specs, handwritten_specs, library_program,
    CLASS_CLUSTERS, SINK_METHODS, SOURCE_METHODS,
};
use atlas_pointsto::{ExtractionOptions, Graph, Solver};
use atlas_serve::EXTRACTION;
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use crate::layers::{replay_clusters, Layers};
use crate::util::{digest, median, mix, ms_since, report_laps, timed, Lap, Outcome};
use crate::{Args, Stop};

/// Phase-one samples per cluster: the harness default.
const SAMPLES: usize = 4_000;
/// Engine threads: the host's `nproc`.
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// The reference suite's seed: the harness's batch suite.
const REFERENCE_SUITE: u64 = 0xBA7C4;

/// Digest of the inferred spec artifact (`atlas-spec/1`, extraction
/// bounds 8/64) of a cold run at the configuration above.
pub const RECORDED_DIGEST: &str = "0xa74a3c92b0b3bc7a";

/// Reference-suite totals per spec set: (flows, true positives, false
/// positives, false negatives) against the suite's constructed leaks.
const RECORDED_TOTALS: [(usize, usize, usize, usize); 3] =
    [(89, 73, 16, 112), (109, 76, 33, 109), (291, 185, 106, 0)];

/// The three spec sets every app is analysed under.
#[derive(Clone, Copy, Debug)]
enum SpecSet {
    Inferred,
    Handwritten,
    GroundTruth,
}

const SPEC_SETS: [SpecSet; 3] = [
    SpecSet::Inferred,
    SpecSet::Handwritten,
    SpecSet::GroundTruth,
];

/// The batch harness's suite shape with the given seed.
fn suite_config(seed: u64) -> AppConfig {
    AppConfig {
        count: 46,
        seed,
        min_patterns: 2,
        max_patterns: 16,
        leak_rate: 0.55,
        benign_sink_rate: 0.25,
        size_factor: 2,
    }
}

struct Lib {
    program: Program,
    interface: LibraryInterface,
    config: AtlasConfig,
}

/// Set-up: the library, its interface and clusters, and the reference
/// suite.
fn setup() -> (Lib, Vec<GeneratedApp>) {
    let program = library_program();
    let interface = LibraryInterface::from_program(&program);
    let clusters = CLASS_CLUSTERS
        .iter()
        .map(|names| class_ids(&program, names))
        .filter(|ids| !ids.is_empty())
        .collect();
    let config = AtlasConfig {
        samples_per_cluster: SAMPLES,
        clusters,
        num_threads: THREADS,
        ..AtlasConfig::default()
    };
    let suite = generate_suite(&suite_config(REFERENCE_SUITE));
    (
        Lib {
            program,
            interface,
            config,
        },
        suite,
    )
}

fn render(lib: &Lib, artifact: SpecArtifact) -> String {
    artifact
        .encode(&lib.program)
        .map(|doc| doc.render())
        .unwrap_or_else(|e| format!("unencodable artifact: {}", e.0))
}

fn render_outcome(lib: &Lib, outcome: &InferenceOutcome) -> String {
    render(
        lib,
        outcome.spec_artifact(&lib.program, &lib.interface, EXTRACTION.0, EXTRACTION.1),
    )
}

/// Fetches one spec set for one app as extraction options.
fn read_specs(app: &GeneratedApp, set: SpecSet, inferred: &InferenceOutcome) -> ExtractionOptions {
    let program = &app.program;
    let to_map = |bodies: std::collections::BTreeMap<MethodId, Vec<Stmt>>| -> HashMap<_, _> {
        bodies.into_iter().collect()
    };
    let mut overrides = match set {
        SpecSet::Inferred => inferred.fragments(program).to_overrides(),
        SpecSet::Handwritten => to_map(handwritten_specs(program)),
        SpecSet::GroundTruth => to_map(ground_truth_specs(program)),
    };
    // The flow client's own source-method models join the library specs
    // (the ground truth already models them).
    if !matches!(set, SpecSet::GroundTruth) {
        for (m, body) in android_model_specs(program) {
            overrides.entry(m).or_insert(body);
        }
    }
    ExtractionOptions::with_specs(overrides)
}

/// Per-spec-set flow and confusion totals over a suite.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
struct Totals {
    flows: usize,
    tp: usize,
    fp: usize,
    fn_: usize,
}

/// Timings of one taint pass.
#[derive(Default)]
struct Taint {
    read_ms: Vec<f64>,
    op_ms: Vec<f64>,
    wall_ms: f64,
    totals: [Totals; 3],
}

/// Analyses every app of `suite` under every spec set.  Ground truth must
/// find every constructed leak of every app.
fn taint(
    suite: &[GeneratedApp],
    inferred: &InferenceOutcome,
    out: &mut Outcome,
    mut lt: Option<&mut Layers>,
) -> Taint {
    let mut run = Taint::default();
    let t_wall = Instant::now();
    for app in suite {
        let program = &app.program;
        for (k, &set) in SPEC_SETS.iter().enumerate() {
            let (options, read_ms) = timed(|| read_specs(app, set, inferred));
            let (graph, extract_ms) = timed(|| Graph::extract(program, &options));
            let (result, solve_ms) = timed(|| Solver::new().solve(&graph));
            let (flows, find_ms) = timed(|| {
                let sources = atlas_flow::source_methods(program, SOURCE_METHODS);
                let sinks = atlas_flow::sink_methods(program, SINK_METHODS);
                atlas_flow::find_flows(program, &graph, &result, &sources, &sinks)
            });
            run.read_ms.push(read_ms);
            run.op_ms.push(extract_ms + solve_ms + find_ms);
            let found: BTreeSet<(String, String)> = flows
                .flows
                .iter()
                .map(|f| {
                    (
                        program.qualified_name(f.source),
                        program.qualified_name(f.sink),
                    )
                })
                .collect();
            let tp = found.intersection(&app.leaky_pairs).count();
            let totals = &mut run.totals[k];
            totals.flows += flows.len();
            totals.tp += tp;
            totals.fp += found.len() - tp;
            totals.fn_ += app.leaky_pairs.len() - tp;
            out.check(true, String::new);
            if matches!(set, SpecSet::GroundTruth) {
                out.check(tp == app.leaky_pairs.len(), || {
                    format!("{}: ground truth missed a constructed leak", app.name)
                });
            }
            if let Some(lt) = lt.as_deref_mut() {
                lt.charge("spec", read_ms);
                lt.time("pointsto", "pointsto.extract_ms", extract_ms);
                lt.time("pointsto", "pointsto.solve_ms", solve_ms);
                lt.time("flow", "flow.find_ms", find_ms);
                lt.add("pointsto.edges", graph.num_edges() as f64);
                lt.add("flow.flows", flows.len() as f64);
                lt.wall_ms += read_ms + extract_ms + solve_ms + find_ms;
            }
        }
    }
    run.wall_ms = ms_since(t_wall);
    run
}

/// Checks the reference suite's totals against the recorded ones.
fn check_reference(totals: &[Totals; 3], out: &mut Outcome) {
    for (k, set) in SPEC_SETS.iter().enumerate() {
        let (flows, tp, fp, fn_) = RECORDED_TOTALS[k];
        let want = Totals { flows, tp, fp, fn_ };
        out.check(totals[k] == want, || {
            format!(
                "reference suite under {set:?}: got {:?}, recorded {want:?}",
                totals[k]
            )
        });
    }
}

/// One cold pass, its warm-started twin, and the checks between them.
/// Returns the cold outcome and both wall times in seconds.
fn infer(lib: &Lib, expect: &str, out: &mut Outcome) -> (InferenceOutcome, f64, f64, String) {
    let t = Instant::now();
    let engine = Engine::new(&lib.program, &lib.interface, lib.config.clone());
    let mut session = engine.session();
    let cold = session.run();
    let cache = session.into_cache();
    let cold_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm = Engine::new(&lib.program, &lib.interface, lib.config.clone())
        .warm_start(cache)
        .run();
    let warm_s = t.elapsed().as_secs_f64();
    let cold_doc = render_outcome(lib, &cold);
    let got = digest(cold_doc.as_bytes());
    out.check(got == expect, || {
        format!("inferred spec artifact digest {got}, expected {expect}")
    });
    out.check(render_outcome(lib, &warm) == cold_doc, || {
        "the warm pass's artifact differs from the cold pass's".to_string()
    });
    out.check(warm.oracle_executions == 0, || {
        format!(
            "the warm pass executed {} unit tests",
            warm.oracle_executions
        )
    });
    (cold, cold_s, warm_s, cold_doc)
}

/// The untraced workload: rounds until the time is up.
pub fn run(args: &Args, out: &mut Outcome) {
    let expect = args.expect_digest.as_deref().unwrap_or(RECORDED_DIGEST);
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let (kept_now, s) = timed(setup);
        setups.push(s / 1e3);
        kept = Some(kept_now);
    }
    let (lib, reference) = kept.expect("at least one set-up");
    let mut stop = Stop::new(args.seconds);
    let (mut cold_s, mut warm_s, mut laps) = (Vec::new(), Vec::new(), Vec::new());
    let mut round = 0u64;
    while stop.another() {
        let (cold, c, w, _) = infer(&lib, expect, out);
        cold_s.push(c);
        warm_s.push(w);
        let suite = if round == 0 {
            None
        } else {
            Some(generate_suite(&suite_config(mix(args.seed, &[round]))))
        };
        let pass = taint(suite.as_deref().unwrap_or(&reference), &cold, out, None);
        if round == 0 {
            check_reference(&pass.totals, out);
        }
        laps.push(Lap {
            op_ms: pass.op_ms,
            read_ms: pass.read_ms,
            wall_ms: pass.wall_ms,
        });
        round += 1;
        stop.lap();
    }
    eprintln!("perfbench: batch-javalib ran {round} round(s); cold passes {cold_s:.3?} s");
    out.set("setup_s", median(&setups));
    out.set("infer_cold_s", median(&cold_s));
    out.set("infer_warm_s", median(&warm_s));
    report_laps(&laps, out);
}

/// The traced run: one untraced round over the reference suite, then the
/// layer driver's replay of the same round, byte-compared.
pub fn trace(args: &Args, out: &mut Outcome) -> Layers {
    let expect = args.expect_digest.as_deref().unwrap_or(RECORDED_DIGEST);
    let (lib, suite) = setup();
    let t = Instant::now();
    let (cold, _, _, untraced_doc) = infer(&lib, expect, out);
    let pass = taint(&suite, &cold, out, None);
    check_reference(&pass.totals, out);
    let untraced_ms = ms_since(t);

    let mut lt = Layers::default();
    let mut elapsed_ms = 0.0;
    // Cold pass, then the warm pass from the cold pass's verdicts.
    let (collected, doc, ms) = driver_pass(&lib, VerdictCache::new(), &mut lt);
    elapsed_ms += ms;
    out.check(doc == untraced_doc, || {
        "the traced cold pass's artifact differs from the untraced one".to_string()
    });
    let (collected, doc, ms) = driver_pass(&lib, collected, &mut lt);
    elapsed_ms += ms;
    out.check(doc == untraced_doc, || {
        "the traced warm pass's artifact differs from the untraced one".to_string()
    });
    lt.values
        .insert("learn.cache.entries", collected.len() as f64);
    lt.values.insert("store.artifact_bytes", doc.len() as f64);
    let pass = taint(&suite, &cold, out, Some(&mut lt));
    elapsed_ms += pass.wall_ms;
    check_reference(&pass.totals, out);
    lt.values
        .insert("obs.trace_overhead", elapsed_ms / untraced_ms);
    crate::witness::measure(&lib.program, &mut lt);
    lt
}

/// One inference pass through the layer driver, warm-started from
/// `warm`: engine build, compilation, the cluster replay on the engine's
/// thread count, the in-order cache merge and the artifact encode.
/// Returns the merged cache, the rendered artifact and the product wall
/// time in milliseconds.
fn driver_pass(lib: &Lib, warm: VerdictCache, lt: &mut Layers) -> (VerdictCache, String, f64) {
    let mut elapsed = 0.0;
    let (engine, new_ms) = timed(|| Engine::new(&lib.program, &lib.interface, lib.config.clone()));
    let (engine, warm_start_ms) = timed(|| engine.warm_start(warm));
    let (jobs, jobs_ms) = timed(|| engine.cluster_jobs());
    let (_, depgraph_ms) = timed(|| DepGraph::build(&lib.program));
    let (_, compile_ms) = timed(|| engine.compiled_program());
    let (mut collected, collect_clone_ms) = timed(|| engine.warm_cache().warm_clone());
    lt.add("core.engine.build_ms", new_ms + jobs_ms);
    lt.charge("core", new_ms + jobs_ms - depgraph_ms);
    lt.time("ir", "ir.depgraph_ms", depgraph_ms);
    lt.time("interp", "interp.compile_ms", compile_ms);
    lt.time(
        "learn.cache",
        "learn.cache.clone_ms",
        warm_start_ms + collect_clone_ms,
    );
    let sequential = new_ms + warm_start_ms + jobs_ms + compile_ms + collect_clone_ms;
    lt.wall_ms += sequential;
    elapsed += sequential;

    let (replays, cluster_lt, product_ms) =
        replay_clusters(&engine, &jobs, engine.warm_cache(), THREADS);
    elapsed += product_ms;
    lt.merge(cluster_lt);

    let t = Instant::now();
    let mut clusters = Vec::new();
    for replay in replays.into_iter().flatten() {
        clusters.push(SpecCluster {
            classes: jobs[replay.index]
                .classes
                .iter()
                .map(|&id| lib.program.class(id).name().to_string())
                .collect(),
            specs: replay.fsa.accepted_specs(EXTRACTION.0, EXTRACTION.1),
            fsa: replay.fsa,
        });
        collected.merge(replay.cache);
    }
    let merge_ms = ms_since(t);
    lt.charge("core", merge_ms);
    let artifact = SpecArtifact {
        fingerprint: atlas_core::library_fingerprint(&lib.program, &lib.interface),
        extraction: EXTRACTION,
        clusters,
    };
    let (doc, encode_ms) = timed(|| render(lib, artifact));
    lt.time("store", "store.spec_encode_ms", encode_ms);
    lt.wall_ms += merge_ms + encode_ms;
    elapsed += merge_ms + encode_ms;
    (collected, doc, elapsed)
}
