//! # xic-xml — the XML tree model, parser, serializer and validator
//!
//! Implements Definition 2.2 of Fan & Libkin: node-labelled XML trees
//! `T = (V, lab, ele, att, val, root)` over a DTD's element types and
//! attributes, together with the surrounding machinery a user of the
//! reproduction needs:
//!
//! * [`tree::XmlTree`] — an arena-based tree with the paper's `ext(τ)` /
//!   `ext(τ.l)` / `x[X]` accessors;
//! * [`pool::ValuePool`] — the string interner behind the tree, one byte
//!   arena plus an id table: each tree owns one, and its attribute and
//!   text values are stored as dense [`pool::ValueId`] symbols, so the
//!   string-value equality of Section 2.2 is integer equality;
//! * [`edit`] — typed point edits ([`edit::EditOp`]) applied through
//!   [`tree::XmlTree::apply_edit`], which returns delta records
//!   ([`edit::EditEffect`]) that incremental indexes consume; replaying
//!   the same ops rebuilds the edited tree id-exactly, so the ops
//!   themselves are what a durable log records;
//! * [`snapshot`] — slot-for-slot arena snapshots ([`snapshot::TreeSnapshot`])
//!   that rebuild a tree id-exactly ([`tree::XmlTree::from_snapshot`]), the
//!   serialization hook a durable log persists base documents with;
//! * [`parser::parse_document`] / [`writer::write_document`] — a DTD-aware
//!   XML parser and serializer (from scratch, no external XML crates);
//! * [`mod@validate`] — the `T ⊨ D` validity test of Definition 2.2, with
//!   detailed per-node error reporting;
//! * [`structural::StructuralIndex`] — the same errors kept per element and
//!   re-checked after an edit only where the edit's [`edit::EditEffect`]
//!   can have changed them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod edit;
pub mod error;
pub mod parser;
pub mod pool;
pub mod snapshot;
pub mod structural;
pub mod tree;
pub mod validate;
pub mod writer;

pub use budget::{BudgetExceeded, ParseBudget, ParseError, ParseLimit};
pub use edit::{EditEffect, EditError, EditOp};
pub use error::XmlError;
pub use parser::{parse_document, parse_document_budgeted};
pub use pool::{ValueId, ValuePool};
pub use snapshot::{NodeSnapshot, SnapshotError, TreeSnapshot};
pub use structural::StructuralIndex;
pub use tree::{NodeId, NodeLabel, XmlTree};
pub use validate::{compile_automata, is_valid, validate, ValidationError, Validator};
pub use writer::{write_document, write_document_with, WriteOptions};
