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
    /// `u64` words per position bitset.
    words: usize,
    /// `first` as a bitset.
    first_bits: Vec<u64>,
    /// Positions that can end a word, as a bitset.
    last_bits: Vec<u64>,
    /// `follow[p]` as a bitset, at `follow_bits[p * words..]`.
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
        let words = n.div_ceil(64).max(1);
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
        Glushkov {
            first_bits: bitset(words, piece.first.iter().copied()),
            last_bits: bitset(words, piece.last.iter().copied()),
            follow_bits: st
                .follow
                .iter()
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
        current.copy_from_slice(&self.first_bits);
        let mut word = word.into_iter();
        let Some(symbol) = word.next() else {
            return self.nullable;
        };
        if !self.step_mask(current, symbol) {
            return false;
        }
        for symbol in word {
            next.fill(0);
            for (i, &active) in current.iter().enumerate() {
                let mut active = active;
                while active != 0 {
                    let p = i * 64 + active.trailing_zeros() as usize;
                    active &= active - 1;
                    let follow = &self.follow_bits[p * words..(p + 1) * words];
                    for (n, f) in next.iter_mut().zip(follow) {
                        *n |= f;
                    }
                }
            }
            if !self.step_mask(next, symbol) {
                return false;
            }
            current.swap_with_slice(next);
        }
        current.iter().zip(&self.last_bits).any(|(c, l)| c & l != 0)
    }

    /// Keeps only the positions of `states` that carry `symbol`; returns
    /// whether any remain.
    fn step_mask(&self, states: &mut [u64], symbol: ChildSymbol) -> bool {
        let Some(k) = self.symbols.iter().position(|&s| s == symbol) else {
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
