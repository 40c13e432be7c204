//! Nondeterministic finite automata over the path-specification alphabet
//! `V_path`, as used by the language-inference phase (Section 5.3).
//!
//! The automaton starts life as the *prefix-tree acceptor* of the positive
//! examples found in phase one; the RPNI-style learner then repeatedly
//! [`Fsa::merge`]s pairs of states, using bounded enumeration of the newly
//! accepted words ([`Fsa::words_added_by`]) to query the oracle.

use crate::path_spec::PathSpec;
use atlas_ir::ParamSlot;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::ops::Range;

/// Id of an automaton state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

/// A nondeterministic finite automaton over `V_path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fsa {
    /// transitions[q] maps a symbol to the set of successor states.
    transitions: Vec<BTreeMap<ParamSlot, BTreeSet<StateId>>>,
    init: StateId,
    accepting: BTreeSet<StateId>,
}

impl Fsa {
    /// The automaton accepting the empty language.
    pub fn empty() -> Fsa {
        Fsa {
            transitions: vec![BTreeMap::new()],
            init: StateId(0),
            accepting: BTreeSet::new(),
        }
    }

    /// Builds the prefix-tree acceptor of the given words: the automaton
    /// whose transition graph is the prefix tree of the words, whose start
    /// state is the root, and whose accept states are the word endpoints.
    pub fn prefix_tree<W: AsRef<[ParamSlot]>>(words: &[W]) -> Fsa {
        let mut fsa = Fsa::empty();
        for word in words {
            let mut state = fsa.init;
            for &sym in word.as_ref() {
                let next = match fsa.transitions[state.0 as usize].get(&sym) {
                    Some(set) if !set.is_empty() => *set.iter().next().expect("non-empty"),
                    _ => {
                        let new_state = fsa.add_state();
                        fsa.add_transition(state, sym, new_state);
                        new_state
                    }
                };
                state = next;
            }
            fsa.accepting.insert(state);
        }
        fsa
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(self.transitions.len() as u32);
        self.transitions.push(BTreeMap::new());
        id
    }

    /// Adds a transition `from --sym--> to`.
    pub fn add_transition(&mut self, from: StateId, sym: ParamSlot, to: StateId) {
        self.transitions[from.0 as usize]
            .entry(sym)
            .or_default()
            .insert(to);
    }

    /// Marks a state as accepting.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        if accepting {
            self.accepting.insert(state);
        } else {
            self.accepting.remove(&state);
        }
    }

    /// The initial state.
    pub fn init(&self) -> StateId {
        self.init
    }

    /// Whether the state is accepting.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting.contains(&state)
    }

    /// Total number of allocated states (including unreachable ones left
    /// behind by merges).
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// All states, in id order.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.transitions.len() as u32).map(StateId)
    }

    /// Number of states reachable from the initial state.
    pub fn num_reachable_states(&self) -> usize {
        self.reachable().len()
    }

    /// The set of states reachable from the initial state.
    pub fn reachable(&self) -> BTreeSet<StateId> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(self.init);
        queue.push_back(self.init);
        while let Some(q) = queue.pop_front() {
            for targets in self.transitions[q.0 as usize].values() {
                for &t in targets {
                    if seen.insert(t) {
                        queue.push_back(t);
                    }
                }
            }
        }
        seen
    }

    /// All transitions `(from, symbol, to)`, in a deterministic order.
    pub fn transitions(&self) -> Vec<(StateId, ParamSlot, StateId)> {
        let mut out = Vec::new();
        for (from, map) in self.transitions.iter().enumerate() {
            for (&sym, targets) in map {
                for &to in targets {
                    out.push((StateId(from as u32), sym, to));
                }
            }
        }
        out
    }

    /// Outgoing transitions of a state.
    pub fn transitions_from(&self, state: StateId) -> Vec<(ParamSlot, StateId)> {
        self.transitions[state.0 as usize]
            .iter()
            .flat_map(|(&sym, targets)| targets.iter().map(move |&t| (sym, t)))
            .collect()
    }

    /// Whether the automaton accepts the word.
    pub fn accepts(&self, word: &[ParamSlot]) -> bool {
        let mut current: BTreeSet<StateId> = BTreeSet::new();
        current.insert(self.init);
        for sym in word {
            let mut next = BTreeSet::new();
            for &q in &current {
                if let Some(targets) = self.transitions[q.0 as usize].get(sym) {
                    next.extend(targets.iter().copied());
                }
            }
            if next.is_empty() {
                return false;
            }
            current = next;
        }
        current.iter().any(|q| self.accepting.contains(q))
    }

    /// The `Merge(M, q, p)` operation of Section 5.3: redirects all of `q`'s
    /// incoming and outgoing transitions to `p`, transfers `q`'s accepting
    /// status, and leaves `q` isolated (equivalent to removing it).
    ///
    /// # Panics
    /// Panics if `q` is the initial state or `q == p`.
    pub fn merge(&self, q: StateId, p: StateId) -> Fsa {
        assert_ne!(q, self.init, "cannot merge away the initial state");
        assert_ne!(q, p, "cannot merge a state with itself");
        let mut out = self.clone();
        // Outgoing transitions of q move to p.
        let q_out = std::mem::take(&mut out.transitions[q.0 as usize]);
        for (sym, targets) in q_out {
            for to in targets {
                let to = if to == q { p } else { to };
                out.transitions[p.0 as usize]
                    .entry(sym)
                    .or_default()
                    .insert(to);
            }
        }
        // Incoming transitions into q are redirected to p.
        for map in out.transitions.iter_mut() {
            for targets in map.values_mut() {
                if targets.remove(&q) {
                    targets.insert(p);
                }
            }
        }
        if out.accepting.remove(&q) {
            out.accepting.insert(p);
        }
        out
    }

    /// Enumerates accepted non-empty words of length at most `max_len`,
    /// stopping after `limit` words.  Enumeration order is breadth-first
    /// (by length, then by symbol order), so shorter words come first.
    pub fn enumerate_words(&self, max_len: usize, limit: usize) -> Vec<Vec<ParamSlot>> {
        self.enumerate_against(&Fsa::empty(), max_len, limit, limit)
    }

    /// The words (up to `max_len`, at most `limit`) accepted by `self` but
    /// not by `other` — the set `M_diff` queried against the oracle when
    /// deciding whether to accept a merge.
    ///
    /// The bound is on enumeration as well as on output: of the first
    /// `4 * limit` words [`Fsa::enumerate_words`] would return, the first
    /// `limit` that `other` rejects, in the same order.
    pub fn words_added_by(&self, other: &Fsa, max_len: usize, limit: usize) -> Vec<Vec<ParamSlot>> {
        self.enumerate_against(other, max_len, limit.saturating_mul(4), limit)
    }

    /// Enumerates the *valid path specifications* accepted by the automaton
    /// (up to `max_len` symbols, at most `limit`).
    pub fn accepted_specs(&self, max_len: usize, limit: usize) -> Vec<PathSpec> {
        self.enumerate_words(max_len, limit * 2)
            .into_iter()
            .filter_map(|w| PathSpec::new(w).ok())
            .take(limit)
            .collect()
    }

    /// The one bounded enumerator: walks the non-empty words `self`
    /// accepts, up to `max_len` symbols, breadth-first, stops after `cap`
    /// of them, and returns the first `limit` that `other` rejects.
    ///
    /// The search runs over the product of the two subset constructions:
    /// a node is a state set of `self` and the state set of `other` reached
    /// on the same word, each interned to an id whose successor list is
    /// computed once.  Words live in an arena of parent pointers and are
    /// spelled out only when returned.  A node none of whose `self` states
    /// can reach acceptance within the remaining length is never queued:
    /// no word through it is accepted, so dropping it changes neither
    /// which words are counted against `cap` nor their order.
    fn enumerate_against(
        &self,
        other: &Fsa,
        max_len: usize,
        cap: usize,
        limit: usize,
    ) -> Vec<Vec<ParamSlot>> {
        struct Node {
            mine: u32,
            theirs: u32,
            /// Arena index of the word (0 is the empty word).
            word: u32,
            len: usize,
        }
        let mut mine = SubsetTable::new(self, max_len);
        let mut theirs = SubsetTable::new(other, 0);
        // arena[i - 1] = (parent, last symbol) of word i.
        let mut arena: Vec<(u32, ParamSlot)> = Vec::new();
        let mut queue = VecDeque::from([Node {
            mine: mine.intern(vec![self.init]),
            theirs: theirs.intern(vec![other.init]),
            word: 0,
            len: 0,
        }]);
        let mut out = Vec::new();
        let mut accepted = 0;
        while let Some(node) = queue.pop_front() {
            if accepted >= cap || out.len() >= limit {
                break;
            }
            if node.len > 0 && mine.is_accepting(node.mine) {
                accepted += 1;
                if !theirs.is_accepting(node.theirs) {
                    out.push(spell(&arena, node.word, node.len));
                }
            }
            if node.len >= max_len {
                continue;
            }
            let remaining = max_len - node.len - 1;
            for edge in mine.successors(node.mine) {
                let (sym, next) = mine.edges[edge];
                if mine.distance(next) > remaining {
                    continue;
                }
                let theirs_next = theirs.step(node.theirs, sym);
                arena.push((node.word, sym));
                queue.push_back(Node {
                    mine: next,
                    theirs: theirs_next,
                    word: arena.len() as u32,
                    len: node.len + 1,
                });
            }
        }
        out
    }

    /// Each state's distance in symbols to an accepting state: 0 for an
    /// accepting state, `u32::MAX` when none is within `horizon` symbols.
    fn distances_to_accepting(&self, horizon: usize) -> Vec<u32> {
        let n = self.transitions.len();
        let mut dist = vec![u32::MAX; n];
        let mut frontier: Vec<u32> = self.accepting.iter().map(|q| q.0).collect();
        for &q in &frontier {
            dist[q as usize] = 0;
        }
        if horizon == 0 || frontier.is_empty() {
            return dist;
        }
        // Predecessor lists in compressed form: preds[start[q]..start[q + 1]].
        let mut start = vec![0usize; n + 1];
        for targets in self.transitions.iter().flat_map(|m| m.values()) {
            for t in targets {
                start[t.0 as usize + 1] += 1;
            }
        }
        for q in 0..n {
            start[q + 1] += start[q];
        }
        let mut fill = start.clone();
        let mut preds = vec![0u32; start[n]];
        for (from, map) in self.transitions.iter().enumerate() {
            for t in map.values().flatten() {
                preds[fill[t.0 as usize]] = from as u32;
                fill[t.0 as usize] += 1;
            }
        }
        let mut d = 0;
        while !frontier.is_empty() && d < horizon {
            d += 1;
            let mut next = Vec::new();
            for q in frontier {
                for &p in &preds[start[q as usize]..start[q as usize + 1]] {
                    if dist[p as usize] == u32::MAX {
                        dist[p as usize] = d as u32;
                        next.push(p);
                    }
                }
            }
            frontier = next;
        }
        dist
    }
}

/// Spells out word `word` of the parent-pointer arena (`len` symbols).
fn spell(arena: &[(u32, ParamSlot)], mut word: u32, len: usize) -> Vec<ParamSlot> {
    let mut out = Vec::with_capacity(len);
    while word != 0 {
        let (parent, sym) = arena[word as usize - 1];
        out.push(sym);
        word = parent;
    }
    out.reverse();
    out
}

/// The state sets of one automaton met during an enumeration (the subset
/// construction, built on demand).  Each set is interned to a dense id with
/// its distance to acceptance and, once asked for, its successor list.
struct SubsetTable<'a> {
    fsa: &'a Fsa,
    /// Per-state distance to acceptance, up to the table's horizon.
    state_distance: Vec<u32>,
    ids: HashMap<Box<[StateId]>, u32>,
    /// Per set: its states.
    members: Vec<Box<[StateId]>>,
    /// Per set: the least distance to acceptance of its states.
    distance: Vec<u32>,
    /// Per set, once expanded: the range of `edges` holding its
    /// successor list, sorted by symbol.
    successor_edges: Vec<Option<Range<usize>>>,
    /// Successor lists: (symbol, id of the set reached on it).
    edges: Vec<(ParamSlot, u32)>,
}

impl<'a> SubsetTable<'a> {
    /// An empty table over `fsa` that knows distances to acceptance up to
    /// `horizon` symbols (0: only whether a set accepts).
    fn new(fsa: &'a Fsa, horizon: usize) -> SubsetTable<'a> {
        SubsetTable {
            fsa,
            state_distance: fsa.distances_to_accepting(horizon),
            ids: HashMap::new(),
            members: Vec::new(),
            distance: Vec::new(),
            successor_edges: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// The id of a sorted, duplicate-free state set.
    fn intern(&mut self, states: Vec<StateId>) -> u32 {
        let states = states.into_boxed_slice();
        if let Some(&id) = self.ids.get(&states) {
            return id;
        }
        let id = self.members.len() as u32;
        let distance = states
            .iter()
            .map(|q| self.state_distance[q.0 as usize])
            .min()
            .unwrap_or(u32::MAX);
        self.ids.insert(states.clone(), id);
        self.members.push(states);
        self.distance.push(distance);
        self.successor_edges.push(None);
        id
    }

    /// The least number of symbols after which some word from the set is
    /// accepted (`usize::MAX` beyond the horizon).
    fn distance(&self, set: u32) -> usize {
        match self.distance[set as usize] {
            u32::MAX => usize::MAX,
            d => d as usize,
        }
    }

    fn is_accepting(&self, set: u32) -> bool {
        self.distance[set as usize] == 0
    }

    /// The range of `edges` holding the set's successors, computing them on
    /// first use.
    fn successors(&mut self, set: u32) -> Range<usize> {
        if let Some(range) = &self.successor_edges[set as usize] {
            return range.clone();
        }
        let fsa = self.fsa;
        let mut pairs: Vec<(ParamSlot, StateId)> = self.members[set as usize]
            .iter()
            .flat_map(|q| &fsa.transitions[q.0 as usize])
            .flat_map(|(&sym, targets)| targets.iter().map(move |&t| (sym, t)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut list = Vec::new();
        for group in pairs.chunk_by(|a, b| a.0 == b.0) {
            let next = self.intern(group.iter().map(|&(_, t)| t).collect());
            list.push((group[0].0, next));
        }
        let range = self.edges.len()..self.edges.len() + list.len();
        self.edges.extend(list);
        self.successor_edges[set as usize] = Some(range.clone());
        range
    }

    /// The set reached from `set` on `sym` (possibly the empty set).
    fn step(&mut self, set: u32, sym: ParamSlot) -> u32 {
        let range = self.successors(set);
        match self.edges[range.clone()].binary_search_by_key(&sym, |&(s, _)| s) {
            Ok(i) => self.edges[range.start + i].1,
            Err(_) => self.intern(Vec::new()),
        }
    }
}

impl Default for Fsa {
    fn default() -> Self {
        Fsa::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_ir::MethodId;

    fn slot(m: u32, kind: u8) -> ParamSlot {
        let method = MethodId::from_index(m);
        match kind {
            0 => ParamSlot::receiver(method),
            1 => ParamSlot::param(method, 0),
            _ => ParamSlot::ret(method),
        }
    }

    /// The Box clone-chain example: ob this_set (this_clone r_clone)* this_get r_get.
    fn clone_chain_word(n_clones: usize) -> Vec<ParamSlot> {
        let mut w = vec![slot(0, 1), slot(0, 0)];
        for _ in 0..n_clones {
            w.push(slot(2, 0));
            w.push(slot(2, 2));
        }
        w.push(slot(1, 0));
        w.push(slot(1, 2));
        w
    }

    #[test]
    fn prefix_tree_accepts_exactly_its_words() {
        let words = vec![clone_chain_word(0), clone_chain_word(1)];
        let fsa = Fsa::prefix_tree(&words);
        assert!(fsa.accepts(&clone_chain_word(0)));
        assert!(fsa.accepts(&clone_chain_word(1)));
        assert!(!fsa.accepts(&clone_chain_word(2)));
        assert!(!fsa.accepts(&[]));
        // Prefix tree of a 4-word and a 6-word sharing a 2-symbol prefix:
        // 1 root + 2 shared + 2 + 4 = 9 states.
        assert_eq!(fsa.num_states(), 9);
        assert_eq!(fsa.num_reachable_states(), 9);
        // enumerate_words returns both, shortest first.
        let words = fsa.enumerate_words(10, 100);
        assert_eq!(words.len(), 2);
        assert_eq!(words[0].len(), 4);
    }

    #[test]
    fn merge_generalizes_to_a_loop() {
        // Single positive example with one clone, as in Section 5.3's worked
        // example; merging the post-clone state with the post-set state
        // yields the starred language.
        let word = clone_chain_word(1);
        let fsa = Fsa::prefix_tree(std::slice::from_ref(&word));
        // States along the chain: 0 -ob-> 1 -this_set-> 2 -this_clone-> 3
        // -r_clone-> 4 -this_get-> 5 -r_get-> 6.
        let merged = fsa.merge(StateId(4), StateId(2));
        assert!(merged.accepts(&clone_chain_word(0)));
        assert!(merged.accepts(&clone_chain_word(1)));
        assert!(merged.accepts(&clone_chain_word(5)));
        assert!(!merged.accepts(&clone_chain_word(1)[..4]));
        // The original did not accept the 0- and 2-clone variants.
        assert!(!fsa.accepts(&clone_chain_word(0)));
        // words_added_by reports the newly accepted members (bounded).
        let added = merged.words_added_by(&fsa, 8, 50);
        assert!(added.contains(&clone_chain_word(0)));
        assert!(added.contains(&clone_chain_word(2)[..8].to_vec()) || !added.is_empty());
        // Reachable states shrink after the merge.
        assert!(merged.num_reachable_states() < fsa.num_reachable_states());
    }

    #[test]
    fn accepted_specs_filters_invalid_words() {
        // A word ending in a non-return symbol is not a valid path spec.
        let bad = vec![slot(0, 1), slot(0, 0)];
        let good = clone_chain_word(0);
        let fsa = Fsa::prefix_tree(&[bad, good.clone()]);
        let specs = fsa.accepted_specs(10, 10);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].symbols(), good.as_slice());
    }

    #[test]
    fn manual_construction_and_queries() {
        let mut fsa = Fsa::empty();
        assert!(!fsa.accepts(&[]));
        let a = fsa.add_state();
        fsa.add_transition(fsa.init(), slot(0, 1), a);
        fsa.set_accepting(a, true);
        assert!(fsa.accepts(&[slot(0, 1)]));
        assert!(fsa.is_accepting(a));
        fsa.set_accepting(a, false);
        assert!(!fsa.accepts(&[slot(0, 1)]));
        fsa.set_accepting(a, true);
        assert_eq!(fsa.transitions(), vec![(fsa.init(), slot(0, 1), a)]);
        assert_eq!(fsa.transitions_from(fsa.init()).len(), 1);
        assert!(fsa.transitions_from(a).is_empty());
        assert_eq!(Fsa::default(), Fsa::empty());
    }

    #[test]
    #[should_panic(expected = "initial state")]
    fn merging_init_panics() {
        let fsa = Fsa::prefix_tree(&[clone_chain_word(0)]);
        let _ = fsa.merge(StateId(0), StateId(1));
    }

    #[test]
    fn self_loop_via_merge_handles_q_to_q_edges() {
        // word a b where both symbols go through distinct states; merging the
        // middle state into init must rewrite q→q self-edges correctly.
        let w = vec![slot(0, 1), slot(0, 2)];
        let fsa = Fsa::prefix_tree(std::slice::from_ref(&w));
        let merged = fsa.merge(StateId(1), StateId(2));
        // Language must still contain something reachable; no panic and the
        // accepting state is preserved.
        assert!(merged.num_states() == fsa.num_states());
        assert!(merged.transitions().len() >= 2);
    }
}
