//! # xic-constraints — XML integrity constraint languages and satisfaction
//!
//! Implements Section 2.2 of Fan & Libkin: keys `τ[X] → τ`, inclusion
//! constraints `τ1[X] ⊆ τ2[Y]`, foreign keys, their unary restrictions and
//! the negations used by the extended classes, together with the
//! satisfaction relation `T ⊨ φ` over `xic-xml` trees.
//!
//! * [`constraint`] — the constraint AST, validation against a DTD and
//!   rendering in the paper's notation;
//! * [`classes`] — the constraint classes (`C_{K,FK}`, `C^Unary_{K,FK}`,
//!   `C^Unary_{K¬,IC}`, `C^Unary_{K¬,IC¬}`, keys-only `C_K`), the
//!   primary-key restriction, and the paper's example sets Σ1 / Σ3;
//! * [`satisfy`] — the satisfaction relation: the [`Violation`] report
//!   type, the one-shot [`check_document`] / [`document_satisfies`] entry
//!   points, and the retained string-valued reference checker
//!   [`SatisfactionChecker`] (the independent test oracle);
//! * [`incremental`] — [`incremental::IncrementalIndex`], the one `T ⊨ Σ`
//!   index behind every check: interned-value tuples built in one pass and
//!   maintained in O(edit) under typed tree edits (refcounted slot carrier
//!   maps, clash-witness ordering, inclusion target multisets, constraint
//!   dirty-sets), over a spec-level [`incremental::IncrementalLayout`]
//!   shared across every document checked against one `(D, Σ)`;
//! * [`parser`] — a plain-text surface syntax (`teacher.name -> teacher`,
//!   `subject.taught_by ⊆ teacher.name`, …) so constraint sets can live in
//!   files next to their DTDs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classes;
pub mod constraint;
pub mod incremental;
pub mod parser;
pub mod satisfy;

pub use classes::{example_sigma1, example_sigma3, ConstraintClass, ConstraintSet};
pub use constraint::{Constraint, ConstraintError, InclusionSpec, KeySpec};
pub use incremental::{IncrementalIndex, IncrementalLayout, ShardPlan, VerdictChange};
pub use parser::{parse_constraint, parse_constraint_set, ParseError};
pub use satisfy::{check_document, document_satisfies, SatisfactionChecker, Violation};
