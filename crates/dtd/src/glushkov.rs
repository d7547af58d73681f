//! Glushkov position automaton for content models.
//!
//! Validation of an XML tree against a DTD (Definition 2.2) requires testing
//! whether the label sequence of an element's children belongs to the regular
//! language of its content model.  The Glushkov construction yields an
//! ε-free NFA whose states are the occurrences of symbols in the expression.
//! Matching runs the NFA over bitsets of positions (one `u64` word per 64
//! positions): each symbol ORs the follow sets of the active positions and
//! masks by the positions carrying the symbol, so a word of length `k` costs
//! `O(k · a · ⌈p/64⌉)` for `a` active positions — `a` is 1 for the
//! deterministic content models XML requires.
//!
//! The same run is exposed one symbol at a time ([`Glushkov::start`],
//! [`Glushkov::step`], [`Glushkov::accepting`]), so a caller can store the
//! state reached after a prefix of a word and resume from it.

use crate::content::{ChildSymbol, ContentModel};
use crate::dtd::ElemId;

/// A compiled Glushkov automaton for a single content model.
#[derive(Debug, Clone)]
pub struct Glushkov {
    /// Symbol carried by each position.
    positions: Vec<ChildSymbol>,
    /// Positions reachable as the first symbol of a word.
    first: Vec<usize>,
    /// `follow[p]` = positions that may immediately follow position `p`.
    follow: Vec<Vec<usize>>,
    /// Whether the empty word is accepted.
    nullable: bool,
    /// `u64` words per state bitset.  A state holds the positions a run
    /// has reached, plus one extra bit, `positions.len()`, for the start
    /// state (no symbol read yet).
    words: usize,
    /// States that end a word, as a bitset: the positions that can end
    /// one, and the start bit when the empty word is accepted.
    last_bits: Vec<u64>,
    /// `follow[p]` as a bitset, at `follow_bits[p * words..]`; the row of
    /// the start bit is `first`.
    follow_bits: Vec<u64>,
    /// The distinct symbols of the expression.
    symbols: Vec<ChildSymbol>,
    /// The positions carrying `symbols[k]`, at `symbol_bits[k * words..]`.
    symbol_bits: Vec<u64>,
}

/// A bitset over `words * 64` positions with the given members.
fn bitset(words: usize, members: impl IntoIterator<Item = usize>) -> Vec<u64> {
    let mut bits = vec![0u64; words];
    for p in members {
        bits[p / 64] |= 1 << (p % 64);
    }
    bits
}

struct BuildState {
    positions: Vec<ChildSymbol>,
    follow: Vec<Vec<usize>>,
}

/// Local result of the recursive construction.
struct Piece {
    nullable: bool,
    first: Vec<usize>,
    last: Vec<usize>,
}

impl Glushkov {
    /// Compiles a content model into its position automaton.
    pub fn new(model: &ContentModel) -> Glushkov {
        let desugared = model.desugar();
        let mut st = BuildState {
            positions: Vec::new(),
            follow: Vec::new(),
        };
        let piece = build(&desugared, &mut st);
        let n = st.positions.len();
        let words = (n + 1).div_ceil(64);
        let mut symbols: Vec<ChildSymbol> = Vec::new();
        for &s in &st.positions {
            if !symbols.contains(&s) {
                symbols.push(s);
            }
        }
        let symbol_bits = symbols
            .iter()
            .flat_map(|&s| bitset(words, (0..n).filter(|&p| st.positions[p] == s)))
            .collect();
        let start_ends = piece.nullable.then_some(n);
        Glushkov {
            last_bits: bitset(words, piece.last.iter().copied().chain(start_ends)),
            follow_bits: st
                .follow
                .iter()
                .chain([&piece.first])
                .flat_map(|f| bitset(words, f.iter().copied()))
                .collect(),
            words,
            symbols,
            symbol_bits,
            positions: st.positions,
            first: piece.first,
            follow: st.follow,
            nullable: piece.nullable,
        }
    }

    /// Number of positions (size of the automaton).
    pub fn num_positions(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` iff the automaton accepts the empty word.
    pub fn accepts_empty(&self) -> bool {
        self.nullable
    }

    /// Tests whether a word over the child alphabet is in the language.
    pub fn matches(&self, word: &[ChildSymbol]) -> bool {
        self.matches_with(word.iter().copied(), &mut Vec::new())
    }

    /// [`Glushkov::matches`] over a streamed word, with caller-owned
    /// scratch space: a validator checking every element of a tree
    /// allocates nothing per element.
    pub fn matches_with(
        &self,
        word: impl IntoIterator<Item = ChildSymbol>,
        scratch: &mut Vec<u64>,
    ) -> bool {
        let words = self.words;
        scratch.clear();
        scratch.resize(2 * words, 0);
        let (current, next) = scratch.split_at_mut(words);
        let mut word = word.into_iter();
        let Some(symbol) = word.next() else {
            return self.nullable;
        };
        // The start state's one follow row is `first`: copy, then mask.
        current.copy_from_slice(self.follow_row(self.positions.len()));
        if !self.mask(current, symbol) {
            return false;
        }
        for symbol in word {
            if !self.step(current, symbol, next) {
                return false;
            }
            current.swap_with_slice(next);
        }
        self.accepting(current)
    }

    /// `u64` words in one run state (the length [`Glushkov::step`] reads
    /// and writes).
    pub fn state_words(&self) -> usize {
        self.words
    }

    /// Writes the start state, before any symbol is read, into `out`.
    pub fn start(&self, out: &mut Vec<u64>) {
        let s = self.positions.len();
        out.clear();
        out.resize(self.words, 0);
        out[s / 64] |= 1 << (s % 64);
    }

    /// One transition: writes into `out` the state reached from `from` by
    /// reading `symbol`, and returns whether any run survives (`false`
    /// means `out` is the dead state, from which no word is accepted).
    /// Both slices are [`Glushkov::state_words`] long.
    #[inline]
    pub fn step(&self, from: &[u64], symbol: ChildSymbol, out: &mut [u64]) -> bool {
        out.fill(0);
        for (i, &active) in from.iter().enumerate() {
            let mut active = active;
            while active != 0 {
                let p = i * 64 + active.trailing_zeros() as usize;
                active &= active - 1;
                for (o, f) in out.iter_mut().zip(self.follow_row(p)) {
                    *o |= f;
                }
            }
        }
        self.mask(out, symbol)
    }

    /// `follow[p]` as a bitset (`first` for the start bit).
    #[inline]
    fn follow_row(&self, p: usize) -> &[u64] {
        &self.follow_bits[p * self.words..(p + 1) * self.words]
    }

    /// Keeps only the positions of `states` that carry `symbol`; returns
    /// whether any remain.
    #[inline]
    fn mask(&self, states: &mut [u64], symbol: ChildSymbol) -> bool {
        let Some(k) = self.symbols.iter().position(|&s| s == symbol) else {
            states.fill(0);
            return false;
        };
        let carriers = &self.symbol_bits[k * self.words..(k + 1) * self.words];
        let mut any = false;
        for (s, c) in states.iter_mut().zip(carriers) {
            *s &= c;
            any |= *s != 0;
        }
        any
    }

    /// Whether a run that reached `state` has read a word of the language.
    #[inline]
    pub fn accepting(&self, state: &[u64]) -> bool {
        state.iter().zip(&self.last_bits).any(|(s, l)| s & l != 0)
    }

    /// Convenience wrapper: matches a sequence of element-type children with
    /// no text nodes.
    pub fn matches_elements(&self, children: &[ElemId]) -> bool {
        let word: Vec<ChildSymbol> = children.iter().map(|&e| ChildSymbol::Element(e)).collect();
        self.matches(&word)
    }

    /// Produces *some* accepted word, if the language is non-empty, choosing
    /// the shortest-first expansion.  Used by the random document generator
    /// as a fallback and in tests.
    pub fn sample_word(&self, max_len: usize) -> Option<Vec<ChildSymbol>> {
        if self.nullable {
            return Some(Vec::new());
        }
        // Breadth-first search over (position) states tracking one path.
        use std::collections::VecDeque;
        let mut queue: VecDeque<(usize, Vec<ChildSymbol>)> = VecDeque::new();
        let mut seen = vec![false; self.positions.len()];
        for &p in &self.first {
            if !seen[p] {
                seen[p] = true;
                queue.push_back((p, vec![self.positions[p]]));
            }
        }
        while let Some((p, word)) = queue.pop_front() {
            if self.last_bits[p / 64] & (1 << (p % 64)) != 0 {
                return Some(word);
            }
            if word.len() >= max_len {
                continue;
            }
            for &q in &self.follow[p] {
                if !seen[q] {
                    seen[q] = true;
                    let mut next = word.clone();
                    next.push(self.positions[q]);
                    queue.push_back((q, next));
                }
            }
        }
        None
    }
}

fn build(model: &ContentModel, st: &mut BuildState) -> Piece {
    match model {
        ContentModel::Epsilon => Piece {
            nullable: true,
            first: vec![],
            last: vec![],
        },
        ContentModel::Text => leaf(ChildSymbol::Text, st),
        ContentModel::Element(e) => leaf(ChildSymbol::Element(*e), st),
        ContentModel::Seq(a, b) => {
            let pa = build(a, st);
            let pb = build(b, st);
            for &p in &pa.last {
                st.follow[p].extend_from_slice(&pb.first);
            }
            let mut first = pa.first.clone();
            if pa.nullable {
                first.extend_from_slice(&pb.first);
            }
            let mut last = pb.last.clone();
            if pb.nullable {
                last.extend_from_slice(&pa.last);
            }
            Piece {
                nullable: pa.nullable && pb.nullable,
                first,
                last,
            }
        }
        ContentModel::Alt(a, b) => {
            let pa = build(a, st);
            let pb = build(b, st);
            let mut first = pa.first;
            first.extend(pb.first);
            let mut last = pa.last;
            last.extend(pb.last);
            Piece {
                nullable: pa.nullable || pb.nullable,
                first,
                last,
            }
        }
        ContentModel::Star(a) => {
            let pa = build(a, st);
            for &p in &pa.last {
                let firsts = pa.first.clone();
                st.follow[p].extend(firsts);
            }
            Piece {
                nullable: true,
                first: pa.first,
                last: pa.last,
            }
        }
        // `desugar` removes these before compilation, but handle them anyway
        // so `Glushkov::new(model)` is total.
        ContentModel::Plus(a) => {
            let pa = build(a, st);
            for &p in &pa.last {
                let firsts = pa.first.clone();
                st.follow[p].extend(firsts);
            }
            Piece {
                nullable: pa.nullable,
                first: pa.first,
                last: pa.last,
            }
        }
        ContentModel::Opt(a) => {
            let pa = build(a, st);
            Piece {
                nullable: true,
                first: pa.first,
                last: pa.last,
            }
        }
    }
}

fn leaf(symbol: ChildSymbol, st: &mut BuildState) -> Piece {
    let p = st.positions.len();
    st.positions.push(symbol);
    st.follow.push(Vec::new());
    Piece {
        nullable: false,
        first: vec![p],
        last: vec![p],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> ContentModel {
        ContentModel::Element(ElemId(i))
    }

    fn ce(i: u32) -> ChildSymbol {
        ChildSymbol::Element(ElemId(i))
    }

    #[test]
    fn single_element() {
        let g = Glushkov::new(&e(0));
        assert!(g.matches(&[ce(0)]));
        assert!(!g.matches(&[]));
        assert!(!g.matches(&[ce(1)]));
        assert!(!g.matches(&[ce(0), ce(0)]));
    }

    #[test]
    fn sequence_and_union() {
        // (a, b) | c
        let g = Glushkov::new(&ContentModel::alt(ContentModel::seq(e(0), e(1)), e(2)));
        assert!(g.matches(&[ce(0), ce(1)]));
        assert!(g.matches(&[ce(2)]));
        assert!(!g.matches(&[ce(0)]));
        assert!(!g.matches(&[ce(0), ce(2)]));
        assert!(!g.matches(&[]));
    }

    #[test]
    fn star_and_plus() {
        let star = Glushkov::new(&ContentModel::star(e(0)));
        assert!(star.matches(&[]));
        assert!(star.matches(&[ce(0)]));
        assert!(star.matches(&[ce(0), ce(0), ce(0)]));
        assert!(!star.matches(&[ce(1)]));

        let plus = Glushkov::new(&ContentModel::plus(e(0)));
        assert!(!plus.matches(&[]));
        assert!(plus.matches(&[ce(0)]));
        assert!(plus.matches(&[ce(0), ce(0)]));
    }

    /// Over 64 positions the state bitsets span several words; an
    /// ambiguous model keeps several positions active across them.
    #[test]
    fn models_past_one_bitset_word_agree_with_derivatives() {
        use crate::deriv::DerivativeMatcher;
        // (a0, a1, a2, a0, …: 70 positions), ((a0, a1) | (a0, a2))*
        let prefix = (1..70).fold(e(0), |m, i| ContentModel::seq(m, e(i % 3)));
        let ambiguous = ContentModel::star(ContentModel::alt(
            ContentModel::seq(e(0), e(1)),
            ContentModel::seq(e(0), e(2)),
        ));
        let model = ContentModel::seq(prefix, ambiguous);
        let g = Glushkov::new(&model);
        assert_eq!(g.num_positions(), 74);
        let d = DerivativeMatcher::new(&model);
        let exact: Vec<ChildSymbol> = (0..70).map(|i| ce(i % 3)).collect();
        for tail in [
            vec![],
            vec![ce(0)],
            vec![ce(0), ce(1)],
            vec![ce(0), ce(2), ce(0), ce(1)],
            vec![ce(0), ce(0)],
            vec![ce(1)],
        ] {
            let word: Vec<ChildSymbol> = exact.iter().copied().chain(tail).collect();
            assert_eq!(g.matches(&word), d.matches(&word), "{word:?}");
            assert_eq!(g.matches(&word[1..]), d.matches(&word[1..]), "{word:?}");
        }
        assert!(g.matches(&exact));
    }

    /// A run stored after any prefix and resumed one symbol at a time
    /// decides every word the way `matches` does.
    #[test]
    fn stepping_from_a_stored_state_agrees_with_matches() {
        // (a, (b | c)*, a?) | ε
        let model = ContentModel::alt(
            ContentModel::seq(
                e(0),
                ContentModel::seq(
                    ContentModel::star(ContentModel::alt(e(1), e(2))),
                    ContentModel::opt(e(0)),
                ),
            ),
            ContentModel::Epsilon,
        );
        let g = Glushkov::new(&model);
        let words = [
            vec![],
            vec![ce(0)],
            vec![ce(0), ce(1), ce(2), ce(0)],
            vec![ce(0), ce(0), ce(1)],
            vec![ce(1)],
            vec![ce(0), ce(3)],
        ];
        let mut state = Vec::new();
        let mut next = vec![0; g.state_words()];
        for word in &words {
            for split in 0..=word.len() {
                g.start(&mut state);
                let mut alive = true;
                for &symbol in &word[..split] {
                    alive &= g.step(&state, symbol, &mut next);
                    state.copy_from_slice(&next);
                }
                // Resume from the state reached after the prefix.
                for &symbol in &word[split..] {
                    alive &= g.step(&state, symbol, &mut next);
                    state.copy_from_slice(&next);
                }
                assert_eq!(alive && g.accepting(&state), g.matches(word), "{word:?}");
                assert!(
                    alive || !g.accepting(&state),
                    "the dead state accepts nothing"
                );
            }
        }
        g.start(&mut state);
        assert!(g.accepting(&state), "the empty word");
    }

    #[test]
    fn optional_and_text() {
        // (a?, S)
        let g = Glushkov::new(&ContentModel::seq(
            ContentModel::opt(e(0)),
            ContentModel::Text,
        ));
        assert!(g.matches(&[ChildSymbol::Text]));
        assert!(g.matches(&[ce(0), ChildSymbol::Text]));
        assert!(!g.matches(&[ce(0)]));
    }

    #[test]
    fn teachers_content() {
        // teacher+ from D1.
        let g = Glushkov::new(&ContentModel::plus(e(1)));
        assert!(!g.matches(&[]));
        assert!(g.matches(&[ce(1), ce(1)]));
        // (subject, subject) from D1.
        let teach = Glushkov::new(&ContentModel::seq(e(4), e(4)));
        assert!(teach.matches(&[ce(4), ce(4)]));
        assert!(!teach.matches(&[ce(4)]));
        assert!(!teach.matches(&[ce(4), ce(4), ce(4)]));
    }

    #[test]
    fn nested_star_of_union() {
        // (a | b)* accepts any interleaving.
        let g = Glushkov::new(&ContentModel::star(ContentModel::alt(e(0), e(1))));
        assert!(g.matches(&[]));
        assert!(g.matches(&[ce(0), ce(1), ce(1), ce(0)]));
        assert!(!g.matches(&[ce(0), ce(2)]));
    }

    #[test]
    fn sample_word_is_accepted() {
        let cm = ContentModel::seq(
            ContentModel::star(e(0)),
            ContentModel::seq(e(1), ContentModel::opt(e(2))),
        );
        let g = Glushkov::new(&cm);
        let w = g.sample_word(8).expect("language nonempty");
        assert!(g.matches(&w));
    }

    #[test]
    fn matches_elements_helper() {
        let g = Glushkov::new(&ContentModel::seq(e(0), e(1)));
        assert!(g.matches_elements(&[ElemId(0), ElemId(1)]));
        assert!(!g.matches_elements(&[ElemId(1), ElemId(0)]));
    }
}
