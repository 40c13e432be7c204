//! Pins phase one's exact output for fixed seeds.
//!
//! Each case samples one javalib cluster with the default sampler
//! configuration (4 steps, learning rate 1/2) and a given seed, and
//! records what the run produced: an FNV-1a digest of the positives in
//! discovery order, the draw and acceptance counts, and the oracle's
//! query, execution and positive counts.  Any change to the sampler that
//! alters a single RNG call, weight or drawn word moves at least one of
//! these figures.  The constants were recorded from the original
//! map-based sampler; an optimisation of the sampler must keep them.

use atlas_ir::hash::Fnv;
use atlas_ir::{LibraryInterface, Program, SlotKind};
use atlas_learn::{
    sample_positive_examples, Oracle, OracleConfig, SampleResult, SamplerConfig, SamplingStrategy,
};

const SAMPLES: usize = 4_000;

/// What one pinned case produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    digest: u64,
    num_samples: usize,
    num_positive_samples: usize,
    queries: usize,
    executions: usize,
    oracle_positives: usize,
}

/// `(strategy, cluster, seed, pinned output)`.
const PINS: &[(SamplingStrategy, &[&str], u64, Pin)] = &[
    (
        SamplingStrategy::Mcts,
        &["ArrayList", "ArrayListIterator"],
        0x1,
        Pin {
            digest: 0x9b0c2ada4913adf1,
            num_samples: 4000,
            num_positive_samples: 0,
            queries: 787,
            executions: 763,
            oracle_positives: 0,
        },
    ),
    (
        SamplingStrategy::Mcts,
        &["ArrayList", "ArrayListIterator"],
        0x7,
        Pin {
            digest: 0x9b0c2ada4913adf1,
            num_samples: 4000,
            num_positive_samples: 0,
            queries: 729,
            executions: 706,
            oracle_positives: 0,
        },
    ),
    (
        SamplingStrategy::Mcts,
        &["ArrayList", "ArrayListIterator"],
        0x41544c53,
        Pin {
            digest: 0x9b0c2ada4913adf1,
            num_samples: 4000,
            num_positive_samples: 0,
            queries: 760,
            executions: 744,
            oracle_positives: 0,
        },
    ),
    (
        SamplingStrategy::Mcts,
        &["LinkedList"],
        0x1,
        Pin {
            digest: 0x27b6710a0ec5cf75,
            num_samples: 4000,
            num_positive_samples: 21,
            queries: 1114,
            executions: 1084,
            oracle_positives: 21,
        },
    ),
    (
        SamplingStrategy::Mcts,
        &["LinkedList"],
        0x7,
        Pin {
            digest: 0x68cf75fd940985c5,
            num_samples: 4000,
            num_positive_samples: 28,
            queries: 1170,
            executions: 1132,
            oracle_positives: 28,
        },
    ),
    (
        SamplingStrategy::Mcts,
        &["LinkedList"],
        0x41544c53,
        Pin {
            digest: 0x6dad7f4267de9174,
            num_samples: 4000,
            num_positive_samples: 34,
            queries: 1176,
            executions: 1147,
            oracle_positives: 34,
        },
    ),
    (
        SamplingStrategy::Mcts,
        &["HashMap"],
        0x1,
        Pin {
            digest: 0x9b0c2ada4913adf1,
            num_samples: 4000,
            num_positive_samples: 0,
            queries: 672,
            executions: 660,
            oracle_positives: 0,
        },
    ),
    (
        SamplingStrategy::Mcts,
        &["HashMap"],
        0x7,
        Pin {
            digest: 0x9b0c2ada4913adf1,
            num_samples: 4000,
            num_positive_samples: 0,
            queries: 723,
            executions: 697,
            oracle_positives: 0,
        },
    ),
    (
        SamplingStrategy::Mcts,
        &["HashMap"],
        0x41544c53,
        Pin {
            digest: 0xb8b120e228d4c23c,
            num_samples: 4000,
            num_positive_samples: 1,
            queries: 713,
            executions: 689,
            oracle_positives: 1,
        },
    ),
    (
        SamplingStrategy::Random,
        &["ArrayList", "ArrayListIterator"],
        0x1,
        Pin {
            digest: 0x9b0c2ada4913adf1,
            num_samples: 4000,
            num_positive_samples: 0,
            queries: 868,
            executions: 826,
            oracle_positives: 0,
        },
    ),
    (
        SamplingStrategy::Random,
        &["ArrayList", "ArrayListIterator"],
        0x7,
        Pin {
            digest: 0x9b0c2ada4913adf1,
            num_samples: 4000,
            num_positive_samples: 0,
            queries: 833,
            executions: 790,
            oracle_positives: 0,
        },
    ),
    (
        SamplingStrategy::Random,
        &["ArrayList", "ArrayListIterator"],
        0x41544c53,
        Pin {
            digest: 0x9b0c2ada4913adf1,
            num_samples: 4000,
            num_positive_samples: 0,
            queries: 853,
            executions: 804,
            oracle_positives: 0,
        },
    ),
    (
        SamplingStrategy::Random,
        &["LinkedList"],
        0x1,
        Pin {
            digest: 0x4961c868d506bb2d,
            num_samples: 4000,
            num_positive_samples: 32,
            queries: 1306,
            executions: 1247,
            oracle_positives: 32,
        },
    ),
    (
        SamplingStrategy::Random,
        &["LinkedList"],
        0x7,
        Pin {
            digest: 0x3cda7c977951cea1,
            num_samples: 4000,
            num_positive_samples: 36,
            queries: 1289,
            executions: 1232,
            oracle_positives: 36,
        },
    ),
    (
        SamplingStrategy::Random,
        &["LinkedList"],
        0x41544c53,
        Pin {
            digest: 0xad9b27fff0b36d0e,
            num_samples: 4000,
            num_positive_samples: 31,
            queries: 1328,
            executions: 1271,
            oracle_positives: 31,
        },
    ),
    (
        SamplingStrategy::Random,
        &["HashMap"],
        0x1,
        Pin {
            digest: 0x9b0c2ada4913adf1,
            num_samples: 4000,
            num_positive_samples: 0,
            queries: 848,
            executions: 791,
            oracle_positives: 0,
        },
    ),
    (
        SamplingStrategy::Random,
        &["HashMap"],
        0x7,
        Pin {
            digest: 0xc42c35283a772f3c,
            num_samples: 4000,
            num_positive_samples: 1,
            queries: 875,
            executions: 812,
            oracle_positives: 1,
        },
    ),
    (
        SamplingStrategy::Random,
        &["HashMap"],
        0x41544c53,
        Pin {
            digest: 0x9b0c2ada4913adf1,
            num_samples: 4000,
            num_positive_samples: 0,
            queries: 807,
            executions: 746,
            oracle_positives: 0,
        },
    ),
];

/// FNV-1a over the positives in discovery order: every symbol's method
/// index and slot kind, with a terminator per word.
fn digest(result: &SampleResult) -> u64 {
    let mut h = Fnv::new(0x5350_494e);
    for spec in &result.positives {
        for slot in spec.symbols() {
            h.write_u64(u64::from(slot.method.index()));
            h.write_u64(match slot.kind {
                SlotKind::Receiver => 0,
                SlotKind::Param(i) => 1 + u64::from(i),
                SlotKind::Return => u64::MAX,
            });
        }
        h.write(&[0xff]);
    }
    h.finish()
}

fn run_case(
    program: &Program,
    interface: &LibraryInterface,
    strategy: SamplingStrategy,
    cluster: &[&str],
    seed: u64,
) -> Pin {
    let classes = atlas_javalib::class_ids(program, cluster);
    assert_eq!(classes.len(), cluster.len(), "unknown class in {cluster:?}");
    let restricted = interface.restrict_to_classes(&classes);
    let mut oracle = Oracle::new(program, interface, OracleConfig::default());
    let config = SamplerConfig {
        seed,
        ..SamplerConfig::default()
    };
    let result = sample_positive_examples(&restricted, &mut oracle, strategy, SAMPLES, &config);
    let stats = oracle.stats();
    Pin {
        digest: digest(&result),
        num_samples: result.num_samples,
        num_positive_samples: result.num_positive_samples,
        queries: stats.queries,
        executions: stats.executions,
        oracle_positives: stats.positives,
    }
}

#[test]
fn sampler_output_is_pinned_for_fixed_seeds() {
    let program = atlas_javalib::library_program();
    let interface = atlas_javalib::library_interface(&program);
    let clusters: [&[&str]; 3] = [
        &["ArrayList", "ArrayListIterator"],
        &["LinkedList"],
        &["HashMap"],
    ];
    let mut actual = Vec::new();
    for strategy in [SamplingStrategy::Mcts, SamplingStrategy::Random] {
        for cluster in clusters {
            for seed in [1, 7, 0x4154_4c53] {
                let pin = run_case(&program, &interface, strategy, cluster, seed);
                actual.push((strategy, cluster, seed, pin));
            }
        }
    }
    let mismatched = actual.len() != PINS.len()
        || actual
            .iter()
            .zip(PINS)
            .any(|(a, p)| a.0 != p.0 || a.1 != p.1 || a.2 != p.2 || a.3 != p.3);
    if mismatched {
        // Print the whole table in source form, so an intended change of
        // output is one paste away from re-pinned.
        let mut table = String::new();
        for (strategy, cluster, seed, pin) in &actual {
            table.push_str(&format!(
                "    (SamplingStrategy::{strategy:?}, &{cluster:?}, {seed:#x}, Pin {{ digest: {:#018x}, \
                 num_samples: {}, num_positive_samples: {}, queries: {}, executions: {}, \
                 oracle_positives: {} }}),\n",
                pin.digest,
                pin.num_samples,
                pin.num_positive_samples,
                pin.queries,
                pin.executions,
                pin.oracle_positives
            ));
        }
        panic!("sampler output differs from the pinned table; actual:\n{table}");
    }
}
