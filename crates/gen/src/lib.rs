//! # xic-gen — workload generators for tests and benchmarks
//!
//! The paper's evaluation is a complexity landscape, not a measurement table,
//! so reproducing it means measuring the implemented procedures on families
//! of specifications whose size can be dialled up.  This crate provides those
//! families:
//!
//! * [`dtd_gen`] — random and structured DTD generators (flat catalogues,
//!   chains, stars of unions, recursive list shapes);
//! * [`constraint_gen`] — random constraint sets of each class over a DTD,
//!   unary ones and 2-attribute ones;
//! * [`doc_gen`] — random documents conforming to a DTD (used to exercise
//!   validation and satisfaction checking at scale);
//! * [`workloads`] — the named spec families of the paper's Figure 5,
//!   which the `decide` workload of the repository benchmark (`xicbench
//!   --workload decide`) decides, and the differential suites reuse.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod constraint_gen;
pub mod doc_gen;
pub mod dtd_gen;
pub mod workloads;

pub use constraint_gen::{
    random_binary_constraints, random_unary_constraints, ConstraintGenConfig,
};
pub use doc_gen::{random_document, DocGenConfig};
pub use dtd_gen::fanout_dtd;
pub use dtd_gen::{catalogue_dtd, random_dtd, recursive_list_dtd, DtdGenConfig};
pub use workloads::{
    fixed_dtd_growing_sigma, hard_lip_family, inconsistent_fanout_family, keys_only_family,
    negation_family, primary_key_family, unary_consistency_family, SpecInstance,
};
