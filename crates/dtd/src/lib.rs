//! # xic-dtd — DTDs, content models and their structural analyses
//!
//! This crate implements Definition 2.1 of Fan & Libkin: a DTD
//! `D = (E, A, P, R, r)` with regular-expression content models, together
//! with everything the rest of the reproduction needs from DTDs:
//!
//! * [`content::ContentModel`] — the regular expressions `α ::= S | τ | ε |
//!   α|α | α,α | α*` (plus the `+`/`?` sugar of real DTDs);
//! * [`dtd::Dtd`] / [`dtd::DtdBuilder`] — the formalism itself, with the
//!   paper's running examples [`dtd::example_d1`], [`dtd::example_d2`] and
//!   [`dtd::example_d3`] as ready-made fixtures;
//! * [`glushkov::Glushkov`] and [`deriv::DerivativeMatcher`] — two
//!   independent membership tests for content-model languages (used by
//!   document validation and cross-checked against each other);
//! * [`simplify::SimpleDtd`] — the Section 4.1 rewriting into simple DTDs on
//!   which the cardinality encoding Ψ_D is defined;
//! * [`analysis`] — the linear-time analyses of Theorem 3.5(1) and Lemma 3.6
//!   (DTD satisfiability, "can τ occur", "can τ occur twice");
//! * [`parser::parse_dtd`] — a parser for `<!ELEMENT …>` / `<!ATTLIST …>`
//!   syntax.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod content;
pub mod deriv;
pub mod dtd;
pub mod error;
pub mod glushkov;
mod names;
pub mod parser;
pub mod simplify;

pub use analysis::{analyze, dtd_satisfiable, DtdAnalysis};
pub use content::{ChildSymbol, ContentModel};
pub use deriv::DerivativeMatcher;
pub use dtd::{example_d1, example_d2, example_d3, AttrId, Dtd, DtdBuilder, ElemId};
pub use error::DtdError;
pub use glushkov::Glushkov;
pub use parser::parse_dtd;
pub use simplify::{SimpleDtd, SimpleId, SimpleRule};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy producing arbitrary content models over a small alphabet.
    fn arb_model(depth: u32) -> impl Strategy<Value = ContentModel> {
        let leaf = prop_oneof![
            Just(ContentModel::Epsilon),
            Just(ContentModel::Text),
            (0u32..4).prop_map(|i| ContentModel::Element(ElemId(i))),
        ];
        leaf.prop_recursive(depth, 64, 4, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| ContentModel::seq(a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| ContentModel::alt(a, b)),
                inner.clone().prop_map(ContentModel::star),
                inner.clone().prop_map(ContentModel::plus),
                inner.prop_map(ContentModel::opt),
            ]
        })
    }

    fn arb_word() -> impl Strategy<Value = Vec<ChildSymbol>> {
        proptest::collection::vec(
            prop_oneof![
                (0u32..4).prop_map(|i| ChildSymbol::Element(ElemId(i))),
                Just(ChildSymbol::Text),
            ],
            0..6,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The Glushkov automaton and the Brzozowski-derivative matcher are
        /// independent implementations of the same language membership test;
        /// they must always agree.
        #[test]
        fn glushkov_agrees_with_derivatives(model in arb_model(3), word in arb_word()) {
            let g = Glushkov::new(&model);
            let d = DerivativeMatcher::new(&model);
            prop_assert_eq!(g.matches(&word), d.matches(&word));
        }

        /// Nullability reported by the content model matches acceptance of
        /// the empty word by both matchers.
        #[test]
        fn nullable_matches_empty_word(model in arb_model(3)) {
            let g = Glushkov::new(&model);
            let d = DerivativeMatcher::new(&model);
            let desugared = model.desugar();
            prop_assert_eq!(g.accepts_empty(), desugared.nullable());
            prop_assert_eq!(d.accepts_empty(), desugared.nullable());
        }

        /// A word sampled from the Glushkov automaton is always accepted.
        #[test]
        fn sampled_words_are_members(model in arb_model(3)) {
            let g = Glushkov::new(&model);
            if let Some(w) = g.sample_word(16) {
                prop_assert!(g.matches(&w));
                prop_assert!(DerivativeMatcher::new(&model).matches(&w));
            }
        }

        /// Desugaring preserves the language (checked against sampled words).
        #[test]
        fn desugaring_preserves_membership(model in arb_model(3), word in arb_word()) {
            let original = Glushkov::new(&model);
            let desugared = Glushkov::new(&model.desugar());
            prop_assert_eq!(original.matches(&word), desugared.matches(&word));
        }
    }
}
