//! Phase one: sampling candidate path specifications (Section 5.2).
//!
//! Candidates are built one symbol at a time.  At each step the set of
//! admissible next symbols `T(s)` enforces the path-specification
//! constraints (entry/exit symbols of the same method, no consecutive
//! returns across steps, termination only after a return).  Two sampling
//! strategies choose among the admissible symbols: uniformly at random, or
//! by Monte-Carlo tree search with a softmax over learned scores.
//!
//! `T(s)` depends only on the parity of `|s|`, the last symbol of `s` and
//! whether `s` has reached the length cap, so every admissible list is
//! built once per call (`ChoiceTables`).  The MCTS scores live in a
//! prefix trie (`ScoreTrie`) whose nodes hold one score, softmax weight
//! and child per admissible choice, so a draw neither allocates nor
//! hashes.  Every draw makes the same RNG calls and computes bit-equal
//! weights as a map keyed by (prefix, choice) would, so a seed yields the
//! same words.

use crate::oracle::Oracle;
use atlas_ir::{ClassId, LibraryInterface, MethodId, ParamSlot};
use atlas_spec::PathSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

/// Which sampler to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Uniform random choice at every step.
    Random,
    /// Monte-Carlo tree search: softmax over per-prefix scores that are
    /// reinforced when a sampled candidate is accepted by the oracle.
    Mcts,
}

/// Configuration of the sampler.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Maximum number of method occurrences (steps) per candidate.
    pub max_steps: usize,
    /// RNG seed (sampling is fully deterministic given the seed).
    pub seed: u64,
    /// MCTS learning rate `α` (the paper uses 1/2).
    pub learning_rate: f64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            max_steps: 4,
            seed: 0x41544c53,
            learning_rate: 0.5,
        }
    }
}

/// The outcome of a sampling run.
#[derive(Debug, Clone, Default)]
pub struct SampleResult {
    /// Distinct positive examples, in order of first discovery.
    pub positives: Vec<PathSpec>,
    /// Number of candidates drawn (including duplicates and abandoned ones).
    pub num_samples: usize,
    /// Number of samples accepted by the oracle (counting duplicates).
    pub num_positive_samples: usize,
    /// Number of choices made over all draws (symbols and terminations).
    pub steps: usize,
    /// Number of nodes in the MCTS score trie: one per reinforced prefix
    /// (always 0 for [`SamplingStrategy::Random`]).
    pub score_nodes: usize,
}

impl SampleResult {
    /// The positive rate over all samples.
    pub fn positive_rate(&self) -> f64 {
        if self.num_samples == 0 {
            0.0
        } else {
            self.num_positive_samples as f64 / self.num_samples as f64
        }
    }
}

/// A choice made at one sampling step: either the next symbol (a slot id,
/// see [`ChoiceTables`]) or termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Choice {
    Symbol(u32),
    Stop,
}

/// Samples `num_samples` candidates and returns the positive examples found.
pub fn sample_positive_examples(
    interface: &LibraryInterface,
    oracle: &mut Oracle<'_>,
    strategy: SamplingStrategy,
    num_samples: usize,
    config: &SamplerConfig,
) -> SampleResult {
    sample_with(
        interface,
        |word| oracle.check_word(word),
        strategy,
        num_samples,
        config,
    )
}

/// The sampler proper, with the oracle abstracted to a verdict function so
/// that tests can drive it with synthetic verdicts.
fn sample_with(
    interface: &LibraryInterface,
    mut verdict: impl FnMut(&[ParamSlot]) -> bool,
    strategy: SamplingStrategy,
    num_samples: usize,
    config: &SamplerConfig,
) -> SampleResult {
    let mut result = SampleResult::default();
    if interface.slots().is_empty() {
        return result;
    }
    let tables = ChoiceTables::new(interface, config.max_steps * 2);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut seen: BTreeSet<Vec<ParamSlot>> = BTreeSet::new();
    let mut trie = ScoreTrie::default();
    // Buffers reused across draws: the word as slot ids and as slots, and
    // the index of each choice within its admissible list.
    let mut draw = Draw::default();

    for _ in 0..num_samples {
        result.num_samples += 1;
        let completed = draw.run(&tables, &trie, strategy, &mut rng);
        result.steps += draw.path.len();
        if !completed {
            continue;
        }
        let accepted = verdict(&draw.symbols);
        if strategy == SamplingStrategy::Mcts {
            trie.reinforce(&tables, &draw, accepted, config.learning_rate);
        }
        if accepted {
            result.num_positive_samples += 1;
            if !seen.contains(draw.symbols.as_slice()) {
                seen.insert(draw.symbols.clone());
                if let Ok(spec) = PathSpec::new(draw.symbols.clone()) {
                    result.positives.push(spec);
                }
            }
        }
    }
    result.score_nodes = trie.num_nodes();
    result
}

/// The admissible-choice lists of one interface, built once per sampling
/// call.  A slot's id is its position in the interface, whose slots are
/// distinct (one per method and reference variable).
///
/// A *state* is everything `T(s)` and the prior of its choices depend on:
/// the parity of `|s|`, the last symbol of `s` (for the prior, only its
/// class) and whether `s` reached the length cap.  Each state owns one
/// slice of `choices`, in the order the map-based sampler enumerated
/// `T(s)`, and the matching slice of `prior_weights`.
struct ChoiceTables {
    /// The interface's slots, by id.
    slots: Vec<ParamSlot>,
    /// Dense index of each slot's declaring class.
    class: Vec<u32>,
    /// Number of distinct classes in `class`.
    num_classes: usize,
    /// All states' lists back to back.
    choices: Vec<Choice>,
    /// `exp(prior)` of each entry of `choices`: the softmax weight of a
    /// choice that was never reinforced.
    prior_weights: Vec<f64>,
    /// `(start, end)` into `choices` and `prior_weights`, per state.
    ranges: Vec<(u32, u32)>,
    /// The left-to-right sum of each state's prior weights.
    prior_totals: Vec<f64>,
    /// The length cap `2 · max_steps`.
    max_len: usize,
}

/// No admissible choice: the draw is abandoned.
const EMPTY_STATE: usize = 0;
/// The empty word: every slot, with no previous call to favour.
const ROOT_STATE: usize = 1;
/// After a return at the cap: termination only.
const STOP_STATE: usize = 2;
/// The first of the per-class and per-slot states (see
/// [`ChoiceTables::admissible`]).
const FIRST_INDEXED_STATE: usize = 3;

impl ChoiceTables {
    fn new(interface: &LibraryInterface, max_len: usize) -> ChoiceTables {
        let slots = interface.slots().to_vec();
        let class_of: HashMap<MethodId, ClassId> = interface
            .methods()
            .iter()
            .map(|sig| (sig.method, sig.class))
            .collect();
        let mut class_ids: HashMap<Option<ClassId>, u32> = HashMap::new();
        let class: Vec<u32> = slots
            .iter()
            .map(|s| {
                let next = class_ids.len() as u32;
                *class_ids
                    .entry(class_of.get(&s.method).copied())
                    .or_insert(next)
            })
            .collect();
        let mut by_method: HashMap<MethodId, Vec<u32>> = HashMap::new();
        for (id, slot) in slots.iter().enumerate() {
            by_method.entry(slot.method).or_default().push(id as u32);
        }

        let mut tables = ChoiceTables {
            slots,
            class,
            num_classes: class_ids.len(),
            choices: Vec::new(),
            prior_weights: Vec::new(),
            ranges: Vec::new(),
            prior_totals: Vec::new(),
            max_len,
        };
        let ids = 0..tables.slots.len() as u32;
        let all: Vec<Choice> = ids.clone().map(Choice::Symbol).collect();
        let inputs: Vec<Choice> = std::iter::once(Choice::Stop)
            .chain(
                ids.filter(|&id| tables.slots[id as usize].is_input())
                    .map(Choice::Symbol),
            )
            .collect();
        tables.push_state(&[], None);
        tables.push_state(&all, None);
        tables.push_state(&[Choice::Stop], None);
        // Below the cap, after an exit symbol of class `c` that is not a
        // return: continuation with any symbol.
        for c in 0..tables.num_classes as u32 {
            tables.push_state(&all, Some(c));
        }
        // Below the cap, after a return of class `c`: the word is a valid
        // specification, so termination is allowed, and continuation only
        // with input symbols (no consecutive returns).
        for c in 0..tables.num_classes as u32 {
            tables.push_state(&inputs, Some(c));
        }
        // After the entry symbol `z`: the exit symbol belongs to the same
        // method; the degenerate choice w_i = z_i carries no points-to
        // information.
        for z in 0..tables.slots.len() as u32 {
            let same_method = &by_method[&tables.slots[z as usize].method];
            let others: Vec<Choice> = same_method
                .iter()
                .filter(|&&id| id != z)
                .map(|&id| Choice::Symbol(id))
                .collect();
            tables.push_state(&others, Some(tables.class[z as usize]));
        }
        tables
    }

    /// Appends a state: its choices and their prior weights given the
    /// class of the previous call.
    fn push_state(&mut self, list: &[Choice], previous: Option<u32>) {
        let start = self.choices.len() as u32;
        for &choice in list {
            let weight = self.prior(choice, previous).exp();
            self.choices.push(choice);
            self.prior_weights.push(weight);
        }
        let end = self.choices.len() as u32;
        self.ranges.push((start, end));
        let total: f64 = self.prior_weights[start as usize..].iter().sum();
        self.prior_totals.push(total);
    }

    /// The structural prior of an unvisited choice: continuations within
    /// the class of the previous call score higher, and termination gets a
    /// small positive score.
    fn prior(&self, choice: Choice, previous: Option<u32>) -> f64 {
        match (choice, previous) {
            (Choice::Stop, _) => 0.75,
            (Choice::Symbol(s), Some(c)) => {
                if self.class[s as usize] == c {
                    1.5
                } else {
                    0.0
                }
            }
            (Choice::Symbol(_), None) => 0.0,
        }
    }

    /// The state of a partial word of length `len` whose last symbol is
    /// `last`.
    fn admissible(&self, len: usize, last: Option<u32>) -> usize {
        let below_cap = len < self.max_len;
        let classes = self.num_classes;
        match last {
            None if below_cap => ROOT_STATE,
            None => EMPTY_STATE,
            Some(z) if len % 2 == 1 => FIRST_INDEXED_STATE + 2 * classes + z as usize,
            Some(w) if self.slots[w as usize].is_return() => {
                if below_cap {
                    FIRST_INDEXED_STATE + classes + self.class[w as usize] as usize
                } else {
                    STOP_STATE
                }
            }
            Some(w) if below_cap => FIRST_INDEXED_STATE + self.class[w as usize] as usize,
            Some(_) => EMPTY_STATE,
        }
    }

    /// The admissible choices of `state`.
    fn choices(&self, state: usize) -> &[Choice] {
        let (start, end) = self.ranges[state];
        &self.choices[start as usize..end as usize]
    }

    /// The prior weights of `state`'s choices.
    fn prior_weights(&self, state: usize) -> &[f64] {
        let (start, end) = self.ranges[state];
        &self.prior_weights[start as usize..end as usize]
    }
}

/// Sentinel for "no node" in [`ScoreTrie`].
const NO_NODE: u32 = u32::MAX;

/// MCTS scores keyed by (prefix, choice), as a prefix trie.  Node `n`
/// stands for one reinforced prefix `s` and owns the entries
/// `span[n].0 .. span[n].1` of `scores`, `weights` and `children`, one per
/// admissible choice of `s` in list order.  A `NaN` score means "never
/// reinforced"; its weight is then the prior weight.  `NO_NODE` means no
/// word extending the prefix by that choice was reinforced yet.
#[derive(Default)]
struct ScoreTrie {
    span: Vec<(u32, u32)>,
    scores: Vec<f64>,
    /// `exp` of the score, or the prior weight while the score is `NaN`.
    weights: Vec<f64>,
    children: Vec<u32>,
}

impl ScoreTrie {
    fn num_nodes(&self) -> usize {
        self.span.len()
    }

    /// The root (empty prefix), or `NO_NODE` before the first reinforcement.
    fn root(&self) -> u32 {
        if self.span.is_empty() {
            NO_NODE
        } else {
            0
        }
    }

    fn add_node(&mut self, tables: &ChoiceTables, state: usize) -> u32 {
        let id = self.span.len() as u32;
        let priors = tables.prior_weights(state);
        let start = self.scores.len();
        self.span
            .push((start as u32, (start + priors.len()) as u32));
        self.scores.resize(start + priors.len(), f64::NAN);
        self.weights.extend_from_slice(priors);
        self.children.resize(start + priors.len(), NO_NODE);
        id
    }

    /// The softmax weights of `node`'s choices.
    fn weights(&self, node: u32) -> &[f64] {
        let (start, end) = self.span[node as usize];
        &self.weights[start as usize..end as usize]
    }

    /// The child of `node` along choice `k`.
    fn child(&self, node: u32, k: usize) -> u32 {
        if node == NO_NODE {
            NO_NODE
        } else {
            self.children[self.span[node as usize].0 as usize + k]
        }
    }

    /// Reinforces the score of every (prefix, choice) of a completed draw
    /// with the oracle outcome, creating the nodes of new prefixes.
    fn reinforce(&mut self, tables: &ChoiceTables, draw: &Draw, accepted: bool, alpha: f64) {
        let outcome = if accepted { 1.0 } else { 0.0 };
        let mut node = match self.root() {
            NO_NODE => self.add_node(tables, tables.admissible(0, None)),
            root => root,
        };
        for (depth, &k) in draw.path.iter().enumerate() {
            let at = self.span[node as usize].0 as usize + k as usize;
            let old = self.scores[at];
            let old = if old.is_nan() { 0.0 } else { old };
            let score = (1.0 - alpha) * old + alpha * outcome;
            self.scores[at] = score;
            self.weights[at] = score.exp();
            if depth + 1 == draw.path.len() {
                // The last choice is the termination.
                break;
            }
            node = match self.children[at] {
                NO_NODE => {
                    let state = tables.admissible(depth + 1, Some(draw.word[depth]));
                    let child = self.add_node(tables, state);
                    self.children[at] = child;
                    child
                }
                child => child,
            };
        }
    }
}

/// One draw's buffers, reused across draws.
#[derive(Default)]
struct Draw {
    /// The word as slot ids.
    word: Vec<u32>,
    /// The word as slots (what the verdict sees).
    symbols: Vec<ParamSlot>,
    /// The index of each choice within its admissible list.
    path: Vec<u32>,
}

impl Draw {
    /// Samples a single candidate word; `false` if the draw had to be
    /// abandoned (length cap reached without a valid termination point).
    fn run(
        &mut self,
        tables: &ChoiceTables,
        trie: &ScoreTrie,
        strategy: SamplingStrategy,
        rng: &mut StdRng,
    ) -> bool {
        self.word.clear();
        self.symbols.clear();
        self.path.clear();
        let mut node = trie.root();
        loop {
            let state = tables.admissible(self.word.len(), self.word.last().copied());
            let choices = tables.choices(state);
            if choices.is_empty() {
                return false;
            }
            let k = match strategy {
                SamplingStrategy::Random => rng.gen_range(0..choices.len()),
                // Inside the trie the node's weights mix learned scores and
                // priors; past its frontier every choice is unvisited.
                SamplingStrategy::Mcts if node == NO_NODE => {
                    softmax_choice(tables.prior_weights(state), tables.prior_totals[state], rng)
                }
                SamplingStrategy::Mcts => {
                    let weights = trie.weights(node);
                    softmax_choice(weights, weights.iter().sum(), rng)
                }
            };
            self.path.push(k as u32);
            match choices[k] {
                Choice::Stop => return true,
                Choice::Symbol(id) => {
                    self.word.push(id);
                    self.symbols.push(tables.slots[id as usize]);
                }
            }
            if self.word.len() > tables.max_len {
                return false;
            }
            node = trie.child(node, k);
        }
    }
}

/// Softmax selection: the index picked by one uniform draw over `total`,
/// the left-to-right sum of `weights` (each `exp` of a score or prior).
fn softmax_choice(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
    let mut pick = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    for (i, w) in weights.iter().enumerate() {
        if pick < *w {
            return i;
        }
        pick -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Oracle, OracleConfig};
    use atlas_ir::builder::ProgramBuilder;
    use atlas_ir::{Program, SlotKind, Type};
    use proptest::prelude::*;

    fn box_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut obj = pb.class("Object");
        obj.library(true);
        let mut init = obj.constructor();
        init.this();
        init.finish();
        obj.build();
        let mut c = pb.class("Box");
        c.library(true);
        c.field("f", Type::object());
        let mut init = c.constructor();
        init.this();
        init.finish();
        let mut set = c.method("set");
        let this = set.this();
        let ob = set.param("ob", Type::object());
        set.store(this, "f", ob);
        set.finish();
        let mut get = c.method("get");
        get.returns(Type::object());
        let this = get.this();
        let r = get.local("r", Type::object());
        get.load(r, this, "f");
        get.ret(Some(r));
        get.finish();
        c.build();
        pb.build()
    }

    /// Reference copy of the original map-based sampler: it allocates each
    /// prefix and hashes a `(prefix, choice)` key per admissible choice.
    /// [`sample_with`] must query exactly the same words.
    mod reference {
        use super::*;

        type Prefix = Vec<ParamSlot>;
        type Scores = HashMap<(Prefix, RefChoice), f64>;

        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        enum RefChoice {
            Symbol(ParamSlot),
            Stop,
        }

        /// The sampling run, and the number of distinct prefixes with a
        /// score (the trie's node count).
        pub(super) fn sample(
            interface: &LibraryInterface,
            mut verdict: impl FnMut(&[ParamSlot]) -> bool,
            strategy: SamplingStrategy,
            num_samples: usize,
            config: &SamplerConfig,
        ) -> (SampleResult, usize) {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let mut result = SampleResult::default();
            let mut seen: BTreeSet<Vec<ParamSlot>> = BTreeSet::new();
            let mut scores: Scores = HashMap::new();
            let slots_by_method: HashMap<MethodId, Vec<ParamSlot>> = {
                let mut map: HashMap<MethodId, Vec<ParamSlot>> = HashMap::new();
                for &slot in interface.slots() {
                    map.entry(slot.method).or_default().push(slot);
                }
                map
            };
            let all_slots: Vec<ParamSlot> = interface.slots().to_vec();
            let input_slots: Vec<ParamSlot> =
                all_slots.iter().copied().filter(|s| s.is_input()).collect();
            if all_slots.is_empty() {
                return (result, 0);
            }
            let class_of: HashMap<MethodId, ClassId> = interface
                .methods()
                .iter()
                .map(|sig| (sig.method, sig.class))
                .collect();
            for _ in 0..num_samples {
                result.num_samples += 1;
                let Some(word) = sample_one(
                    &all_slots,
                    &input_slots,
                    &slots_by_method,
                    &class_of,
                    strategy,
                    config,
                    &scores,
                    &mut rng,
                ) else {
                    continue;
                };
                let accepted = verdict(&word);
                if strategy == SamplingStrategy::Mcts {
                    reinforce(&mut scores, &word, accepted, config.learning_rate);
                }
                if accepted {
                    result.num_positive_samples += 1;
                    if seen.insert(word.clone()) {
                        if let Ok(spec) = PathSpec::new(word) {
                            result.positives.push(spec);
                        }
                    }
                }
            }
            let prefixes: BTreeSet<&Prefix> = scores.keys().map(|(p, _)| p).collect();
            let nodes = prefixes.len();
            (result, nodes)
        }

        #[allow(clippy::too_many_arguments)]
        fn sample_one(
            all_slots: &[ParamSlot],
            input_slots: &[ParamSlot],
            slots_by_method: &HashMap<MethodId, Vec<ParamSlot>>,
            class_of: &HashMap<MethodId, ClassId>,
            strategy: SamplingStrategy,
            config: &SamplerConfig,
            scores: &Scores,
            rng: &mut StdRng,
        ) -> Option<Vec<ParamSlot>> {
            let mut word: Vec<ParamSlot> = Vec::new();
            let max_len = config.max_steps * 2;
            loop {
                let choices: Vec<RefChoice> =
                    admissible_choices(&word, all_slots, input_slots, slots_by_method, max_len);
                if choices.is_empty() {
                    return None;
                }
                let choice = match strategy {
                    SamplingStrategy::Random => choices[rng.gen_range(0..choices.len())],
                    SamplingStrategy::Mcts => {
                        softmax_choice(&choices, &word, scores, class_of, rng)
                    }
                };
                match choice {
                    RefChoice::Stop => return Some(word),
                    RefChoice::Symbol(slot) => word.push(slot),
                }
                if word.len() > max_len {
                    return None;
                }
            }
        }

        fn admissible_choices(
            word: &[ParamSlot],
            all_slots: &[ParamSlot],
            input_slots: &[ParamSlot],
            slots_by_method: &HashMap<MethodId, Vec<ParamSlot>>,
            max_len: usize,
        ) -> Vec<RefChoice> {
            let mut out = Vec::new();
            if word.len() % 2 == 1 {
                let z = word[word.len() - 1];
                if let Some(slots) = slots_by_method.get(&z.method) {
                    out.extend(
                        slots
                            .iter()
                            .filter(|&&s| s != z)
                            .map(|&s| RefChoice::Symbol(s)),
                    );
                }
                return out;
            }
            if word.is_empty() {
                if word.len() < max_len {
                    out.extend(all_slots.iter().map(|&s| RefChoice::Symbol(s)));
                }
                return out;
            }
            let w = word[word.len() - 1];
            if w.is_return() {
                out.push(RefChoice::Stop);
                if word.len() < max_len {
                    out.extend(input_slots.iter().map(|&s| RefChoice::Symbol(s)));
                }
            } else if word.len() < max_len {
                out.extend(all_slots.iter().map(|&s| RefChoice::Symbol(s)));
            }
            out
        }

        fn softmax_choice(
            choices: &[RefChoice],
            word: &[ParamSlot],
            scores: &Scores,
            class_of: &HashMap<MethodId, ClassId>,
            rng: &mut StdRng,
        ) -> RefChoice {
            let prior = |c: &RefChoice| -> f64 {
                match (c, word.last()) {
                    (RefChoice::Stop, _) => 0.75,
                    (RefChoice::Symbol(s), Some(prev)) => {
                        if class_of.get(&s.method) == class_of.get(&prev.method) {
                            1.5
                        } else {
                            0.0
                        }
                    }
                    (RefChoice::Symbol(_), None) => 0.0,
                }
            };
            let weights: Vec<f64> = choices
                .iter()
                .map(|c| {
                    scores
                        .get(&(word.to_vec(), *c))
                        .copied()
                        .unwrap_or_else(|| prior(c))
                        .exp()
                })
                .collect();
            let total: f64 = weights.iter().sum();
            let mut pick = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
            for (c, w) in choices.iter().zip(&weights) {
                if pick < *w {
                    return *c;
                }
                pick -= w;
            }
            *choices.last().expect("choices non-empty")
        }

        fn reinforce(scores: &mut Scores, word: &[ParamSlot], accepted: bool, alpha: f64) {
            let outcome = if accepted { 1.0 } else { 0.0 };
            for i in 0..=word.len() {
                let prefix = word[..i.min(word.len())].to_vec();
                let choice = if i == word.len() {
                    RefChoice::Stop
                } else {
                    RefChoice::Symbol(word[i])
                };
                let entry = scores.entry((prefix, choice)).or_insert(0.0);
                *entry = (1.0 - alpha) * *entry + alpha * outcome;
                if i == word.len() {
                    break;
                }
            }
        }
    }

    /// A synthetic verdict: a salted FNV-style hash of the word, accepted
    /// when it falls below `accept` out of 8.
    fn hashed_verdict(word: &[ParamSlot], salt: u64, accept: u64) -> bool {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt;
        for slot in word {
            let kind = match slot.kind {
                SlotKind::Receiver => 0,
                SlotKind::Param(i) => 1 + u64::from(i),
                SlotKind::Return => 0xffff,
            };
            for v in [u64::from(slot.method.index()), kind] {
                h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        (h >> 32) % 8 < accept
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The trie sampler and the map-based reference, fed the same
        /// synthetic verdicts, query the same words in the same order and
        /// return the same result; the trie has one node per scored prefix.
        #[test]
        fn trie_sampler_queries_the_same_words_as_the_map_sampler(
            picks in proptest::collection::vec(any::<prop::sample::Index>(), 1..4),
            mcts in any::<bool>(),
            max_steps in 0usize..=4,
            seed in any::<u64>(),
            alpha_1024 in 0u32..=1024,
            salt in any::<u64>(),
            accept in 0u64..=8,
            num_samples in 0usize..400,
        ) {
            let program = atlas_javalib::library_program();
            let interface = atlas_javalib::library_interface(&program);
            let classes: Vec<ClassId> = {
                let all: BTreeSet<ClassId> =
                    interface.methods().iter().map(|sig| sig.class).collect();
                let all: Vec<ClassId> = all.into_iter().collect();
                picks.iter().map(|i| all[i.index(all.len())]).collect()
            };
            let cluster = interface.restrict_to_classes(&classes);
            let strategy = if mcts { SamplingStrategy::Mcts } else { SamplingStrategy::Random };
            let config = SamplerConfig {
                max_steps,
                seed,
                learning_rate: f64::from(alpha_1024) / 1024.0,
            };
            let mut queried = Vec::new();
            let result = sample_with(
                &cluster,
                |w| {
                    queried.push(w.to_vec());
                    hashed_verdict(w, salt, accept)
                },
                strategy,
                num_samples,
                &config,
            );
            let mut expected_queried = Vec::new();
            let (expected, prefixes) = reference::sample(
                &cluster,
                |w| {
                    expected_queried.push(w.to_vec());
                    hashed_verdict(w, salt, accept)
                },
                strategy,
                num_samples,
                &config,
            );
            prop_assert_eq!(queried, expected_queried);
            prop_assert_eq!(result.num_samples, expected.num_samples);
            prop_assert_eq!(result.num_positive_samples, expected.num_positive_samples);
            prop_assert_eq!(result.positives, expected.positives);
            prop_assert_eq!(result.score_nodes, prefixes);
        }
    }

    #[test]
    fn random_sampling_finds_the_box_spec() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let mut oracle = Oracle::new(&p, &iface, OracleConfig::default());
        let config = SamplerConfig {
            max_steps: 2,
            seed: 7,
            ..SamplerConfig::default()
        };
        let result =
            sample_positive_examples(&iface, &mut oracle, SamplingStrategy::Random, 400, &config);
        assert_eq!(result.num_samples, 400);
        assert!(result.num_positive_samples > 0);
        assert!(!result.positives.is_empty());
        // The s_box specification must be among the positives.
        let set = p.method_qualified("Box.set").unwrap();
        let get = p.method_qualified("Box.get").unwrap();
        let sbox = vec![
            ParamSlot::param(set, 0),
            ParamSlot::receiver(set),
            ParamSlot::receiver(get),
            ParamSlot::ret(get),
        ];
        assert!(
            result
                .positives
                .iter()
                .any(|s| s.symbols() == sbox.as_slice()),
            "positives: {:?}",
            result.positives.len()
        );
        assert!(result.positive_rate() > 0.0);
    }

    #[test]
    fn mcts_finds_at_least_as_many_positives_as_random() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let config = SamplerConfig {
            max_steps: 2,
            seed: 11,
            ..SamplerConfig::default()
        };
        let mut oracle_r = Oracle::new(&p, &iface, OracleConfig::default());
        let random = sample_positive_examples(
            &iface,
            &mut oracle_r,
            SamplingStrategy::Random,
            3_000,
            &config,
        );
        let mut oracle_m = Oracle::new(&p, &iface, OracleConfig::default());
        let mcts = sample_positive_examples(
            &iface,
            &mut oracle_m,
            SamplingStrategy::Mcts,
            3_000,
            &config,
        );
        // MCTS re-samples rewarding prefixes, so over a few thousand draws it
        // hits positives far more often than uniform sampling.
        assert!(
            mcts.num_positive_samples >= random.num_positive_samples,
            "mcts {} vs random {}",
            mcts.num_positive_samples,
            random.num_positive_samples
        );
        // Both find the same distinct specification(s).
        assert!(!mcts.positives.is_empty());
        assert!(mcts.positives.len() >= random.positives.len());
    }

    #[test]
    fn sampling_with_empty_interface_is_a_noop() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let empty = iface.restrict_to_classes(&[]);
        let mut oracle = Oracle::new(&p, &iface, OracleConfig::default());
        let result = sample_positive_examples(
            &empty,
            &mut oracle,
            SamplingStrategy::Random,
            10,
            &SamplerConfig::default(),
        );
        assert_eq!(result.num_samples, 0);
        assert!(result.positives.is_empty());
        assert_eq!(result.positive_rate(), 0.0);
    }

    #[test]
    fn sampling_is_deterministic_given_a_seed() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let config = SamplerConfig {
            max_steps: 2,
            seed: 42,
            ..SamplerConfig::default()
        };
        let mut o1 = Oracle::new(&p, &iface, OracleConfig::default());
        let r1 = sample_positive_examples(&iface, &mut o1, SamplingStrategy::Random, 200, &config);
        let mut o2 = Oracle::new(&p, &iface, OracleConfig::default());
        let r2 = sample_positive_examples(&iface, &mut o2, SamplingStrategy::Random, 200, &config);
        assert_eq!(r1.num_positive_samples, r2.num_positive_samples);
        assert_eq!(r1.positives, r2.positives);
    }
}
