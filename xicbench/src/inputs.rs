//! Inputs shared by the document workloads: the `corpus_edit` spec and
//! seeded catalogue documents.

use std::collections::{BTreeMap, BTreeSet};

use xic_constraints::{Constraint, ConstraintSet};
use xic_dtd::{AttrId, Dtd, ElemId};
use xic_engine::BatchDoc;
use xic_gen::{
    catalogue_dtd, random_document, random_unary_constraints, ConstraintGenConfig, DocGenConfig,
};
use xic_xml::{write_document, NodeId, XmlTree};

use crate::stats::Rng;

/// The `corpus_edit` spec: 10 catalogue kinds, 10 unary keys, 10 foreign
/// keys and 4 inclusion constraints.  Fixed, so every seed checks the same
/// Σ and only the documents vary.
pub fn corpus_spec() -> (Dtd, ConstraintSet) {
    let dtd = catalogue_dtd(10);
    let sigma = random_unary_constraints(
        &dtd,
        &ConstraintGenConfig {
            keys: 10,
            foreign_keys: 10,
            inclusions: 4,
            seed: 7,
            ..Default::default()
        },
    );
    (dtd, sigma)
}

/// Candidate documents drawn per corpus slot; the one nearest the nominal
/// size is kept, so every seed measures documents of the same size.
const CANDIDATES: u64 = 4;

/// One serialized catalogue document, `index` of the corpus drawn from
/// `seed`.  Each kind repeats up to `fanout` times; of a few candidates the
/// one with nearest `kinds × fanout / 2` records is kept, so a document has
/// about `2 × kinds × fanout` nodes (element, two attributes and text per
/// record) whatever the seed.
pub fn catalogue_doc(dtd: &Dtd, seed: u64, index: usize, fanout: usize) -> BatchDoc {
    let kinds = dtd.types().count().saturating_sub(1);
    let nominal = (kinds * fanout / 2) as i64;
    let tree = (0..CANDIDATES)
        .map(|candidate| {
            random_document(
                dtd,
                &DocGenConfig {
                    seed: Rng::derive(seed, index as u64 * CANDIDATES + candidate),
                    max_elements: 100 * fanout,
                    star_fanout: fanout,
                    value_pool: 1_000_000,
                    ..Default::default()
                },
            )
            .expect("catalogue DTD is satisfiable")
        })
        .min_by_key(|tree| (tree.elements().count() as i64 - nominal).abs())
        .expect("at least one candidate");
    BatchDoc::new(format!("doc-{index}.xml"), write_document(&tree, dtd))
}

/// Every `(element, attribute)` of `tree` that a constraint of `sigma`
/// mentions: the slots whose edits change verdicts.
pub fn constrained_slots(tree: &XmlTree, sigma: &ConstraintSet) -> Vec<(NodeId, AttrId)> {
    let mut by_type: BTreeMap<ElemId, BTreeSet<AttrId>> = BTreeMap::new();
    for constraint in sigma.iter() {
        match constraint {
            Constraint::Key(k) | Constraint::NotKey(k) => {
                by_type.entry(k.ty).or_default().extend(&k.attrs);
            }
            Constraint::Inclusion(i) | Constraint::ForeignKey(i) | Constraint::NotInclusion(i) => {
                by_type.entry(i.from_ty).or_default().extend(&i.from_attrs);
                by_type.entry(i.to_ty).or_default().extend(&i.to_attrs);
            }
        }
    }
    let mut slots = Vec::new();
    for element in tree.elements() {
        let Some(attrs) = tree.element_type(element).and_then(|ty| by_type.get(&ty)) else {
            continue;
        };
        slots.extend(attrs.iter().map(|&attr| (element, attr)));
    }
    slots
}

/// Total bytes of a set of sources.
pub fn total_bytes(docs: &[BatchDoc]) -> usize {
    docs.iter().map(|d| d.content.len()).sum()
}
