//! Bounded model search for the general (undecidable) constraint class.
//!
//! Theorem 3.1 shows that consistency for multi-attribute keys and foreign
//! keys is undecidable, so no complete procedure exists.  What the library
//! offers instead is a *sound* semi-procedure: generate candidate documents
//! that conform to the DTD (guided random expansion), then repair attribute
//! values towards Σ (copying referenced tuples for foreign keys, perturbing
//! clashing tuples for keys); if a candidate ends up satisfying Σ it is a
//! genuine witness of consistency.  Failure to find one proves nothing —
//! exactly the asymmetry the undecidability result predicts.

use std::sync::Arc;

use xic_constraints::{ConstraintSet, IncrementalIndex, IncrementalLayout, Violation};
use xic_dtd::{analyze, AttrId, ContentModel, Dtd, DtdAnalysis, ElemId};
use xic_xml::{EditOp, NodeId, XmlTree};

/// Configuration of the bounded search.
#[derive(Debug, Clone)]
pub struct BoundedSearchConfig {
    /// Number of candidate documents to try.
    pub attempts: usize,
    /// Soft cap on element count per candidate.
    pub max_elements: usize,
    /// Maximum expansion depth before forcing minimal expansions.
    pub max_depth: usize,
    /// Number of value-repair rounds per candidate.
    pub repair_rounds: usize,
    /// Seed for the deterministic pseudo-random generator.
    pub seed: u64,
}

impl Default for BoundedSearchConfig {
    fn default() -> Self {
        BoundedSearchConfig {
            attempts: 64,
            max_elements: 200,
            max_depth: 12,
            repair_rounds: 16,
            seed: 0x5eed_cafe_f00d_0001,
        }
    }
}

/// A tiny deterministic xorshift PRNG so that `xic-core` stays free of
/// external dependencies and searches are reproducible.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next() % n as u64) as usize
        }
    }
}

/// Searches for a document conforming to `dtd` and satisfying `sigma`.
/// Returns the first witness found, or `None` if the budget is exhausted.
pub fn bounded_search(
    dtd: &Dtd,
    sigma: &ConstraintSet,
    config: &BoundedSearchConfig,
) -> Option<XmlTree> {
    let analysis = analyze(dtd);
    if !analysis.satisfiable() {
        return None;
    }
    let layout = Arc::new(IncrementalLayout::new(dtd, sigma));
    let mut rng = XorShift::new(config.seed);
    for attempt in 0..config.attempts {
        // Early attempts stay tiny (the empty-ish document often suffices,
        // e.g. when every constrained type is under a star); later attempts
        // grow richer.
        let richness = attempt % 4;
        let mut tree = generate_candidate(dtd, &analysis, &mut rng, config, richness);
        if assign_and_repair(dtd, sigma, &layout, &mut tree, &mut rng, config) {
            return Some(tree);
        }
    }
    None
}

/// Generates one random document conforming to the DTD.
fn generate_candidate(
    dtd: &Dtd,
    analysis: &DtdAnalysis,
    rng: &mut XorShift,
    config: &BoundedSearchConfig,
    richness: usize,
) -> XmlTree {
    let mut tree = XmlTree::new(dtd.root());
    let mut elements = 1usize;
    let root = tree.root();
    expand_element(
        dtd,
        analysis,
        rng,
        config,
        richness,
        &mut tree,
        root,
        dtd.root(),
        0,
        &mut elements,
    );
    tree
}

#[allow(clippy::too_many_arguments)]
fn expand_element(
    dtd: &Dtd,
    analysis: &DtdAnalysis,
    rng: &mut XorShift,
    config: &BoundedSearchConfig,
    richness: usize,
    tree: &mut XmlTree,
    node: NodeId,
    ty: ElemId,
    depth: usize,
    elements: &mut usize,
) {
    let minimal = depth >= config.max_depth || *elements >= config.max_elements;
    let word = sample_word(dtd.content(ty), analysis, rng, minimal, richness);
    for symbol in word {
        match symbol {
            Sampled::Text => {
                tree.add_text(node, "text");
            }
            Sampled::Element(child_ty) => {
                *elements += 1;
                let child = tree.add_element(node, child_ty);
                expand_element(
                    dtd,
                    analysis,
                    rng,
                    config,
                    richness,
                    tree,
                    child,
                    child_ty,
                    depth + 1,
                    elements,
                );
            }
        }
    }
}

enum Sampled {
    Element(ElemId),
    Text,
}

/// Samples a word from the language of a content model, restricted to
/// productive element types.  When `minimal` is set, stars/optionals collapse
/// and unions pick a productive branch, bounding the expansion.
fn sample_word(
    model: &ContentModel,
    analysis: &DtdAnalysis,
    rng: &mut XorShift,
    minimal: bool,
    richness: usize,
) -> Vec<Sampled> {
    let mut out = Vec::new();
    sample_into(model, analysis, rng, minimal, richness, &mut out);
    out
}

fn sample_into(
    model: &ContentModel,
    analysis: &DtdAnalysis,
    rng: &mut XorShift,
    minimal: bool,
    richness: usize,
    out: &mut Vec<Sampled>,
) {
    match model {
        ContentModel::Epsilon => {}
        ContentModel::Text => out.push(Sampled::Text),
        ContentModel::Element(e) => out.push(Sampled::Element(*e)),
        ContentModel::Seq(a, b) => {
            sample_into(a, analysis, rng, minimal, richness, out);
            sample_into(b, analysis, rng, minimal, richness, out);
        }
        ContentModel::Alt(a, b) => {
            let a_ok = branch_productive(a, analysis);
            let b_ok = branch_productive(b, analysis);
            let pick_a = match (a_ok, b_ok) {
                (true, false) => true,
                (false, true) => false,
                // Both viable (or neither — then it hardly matters): random.
                _ => rng.below(2) == 0,
            };
            if pick_a {
                sample_into(a, analysis, rng, minimal, richness, out);
            } else {
                sample_into(b, analysis, rng, minimal, richness, out);
            }
        }
        ContentModel::Star(a) => {
            let reps = if minimal || !branch_productive(a, analysis) {
                0
            } else {
                rng.below(richness + 2)
            };
            for _ in 0..reps {
                sample_into(a, analysis, rng, minimal, richness, out);
            }
        }
        ContentModel::Plus(a) => {
            let reps = if minimal {
                1
            } else {
                1 + rng.below(richness + 1)
            };
            for _ in 0..reps {
                sample_into(a, analysis, rng, minimal, richness, out);
            }
        }
        ContentModel::Opt(a) => {
            let take = !minimal && branch_productive(a, analysis) && rng.below(2) == 0;
            if take {
                sample_into(a, analysis, rng, minimal, richness, out);
            }
        }
    }
}

/// Whether every element type required by the model's cheapest word is
/// productive (so expanding it cannot get stuck).
fn branch_productive(model: &ContentModel, analysis: &DtdAnalysis) -> bool {
    match model {
        ContentModel::Epsilon | ContentModel::Text => true,
        ContentModel::Element(e) => analysis.productive(*e),
        ContentModel::Seq(a, b) => branch_productive(a, analysis) && branch_productive(b, analysis),
        ContentModel::Alt(a, b) => branch_productive(a, analysis) || branch_productive(b, analysis),
        ContentModel::Star(_) | ContentModel::Opt(_) => true,
        ContentModel::Plus(a) => branch_productive(a, analysis),
    }
}

/// A candidate under repair: the tree and its `T ⊨ Σ` index, which every
/// repair is fed to as it lands.
struct Candidate<'t> {
    tree: &'t mut XmlTree,
    index: IncrementalIndex,
}

impl Candidate<'_> {
    fn set_attr(&mut self, element: NodeId, attr: AttrId, value: String) {
        let op = EditOp::SetAttr {
            element,
            attr,
            value,
        };
        let effect = self.tree.apply_edit(&op).expect("a live element");
        self.index.apply(self.tree, &effect);
    }
}

/// Assigns attribute values and runs a few repair rounds towards Σ, then
/// says whether the candidate satisfies Σ.
fn assign_and_repair(
    dtd: &Dtd,
    sigma: &ConstraintSet,
    layout: &Arc<IncrementalLayout>,
    tree: &mut XmlTree,
    rng: &mut XorShift,
    config: &BoundedSearchConfig,
) -> bool {
    // Initial assignment: small shared pool, so foreign keys often hold by
    // accident and keys get repaired below.
    let elements: Vec<NodeId> = tree.elements().collect();
    for &node in &elements {
        let Some(ty) = tree.element_type(node) else {
            continue;
        };
        for &attr in dtd.attrs_of(ty) {
            let v = format!("p{}", rng.below(3));
            tree.set_attr(node, attr, v);
        }
    }
    let index = IncrementalIndex::with_layout(Arc::clone(layout), tree);
    let mut candidate = Candidate { tree, index };
    for round in 0..config.repair_rounds {
        let violations = candidate.index.check_all(candidate.tree);
        if violations.is_empty() {
            return true;
        }
        for violation in violations {
            match violation {
                Violation::KeyViolation { witnesses, .. } => {
                    // Perturb the second clashing element with fresh values.
                    let node = witnesses.1;
                    if let Some(ty) = candidate.tree.element_type(node) {
                        for &attr in dtd.attrs_of(ty) {
                            let v = format!("k{}_{}", round, rng.next() % 1_000);
                            candidate.set_attr(node, attr, v);
                        }
                    }
                }
                Violation::InclusionViolation { witness, .. }
                | Violation::MissingAttributes { witness, .. } => {
                    repair_inclusion(sigma, &mut candidate, rng, witness);
                }
                Violation::NegationUnsatisfied { .. } => {
                    // Negations are not part of C_{K,FK}; nothing to repair.
                }
            }
        }
    }
    candidate.index.satisfies_all(candidate.tree)
}

/// Points a dangling foreign-key source at some existing target tuple.
fn repair_inclusion(
    sigma: &ConstraintSet,
    candidate: &mut Candidate<'_>,
    rng: &mut XorShift,
    witness: NodeId,
) {
    let Some(source_ty) = candidate.tree.element_type(witness) else {
        return;
    };
    for c in sigma.iter() {
        let Some(inc) = c.inclusion_part() else {
            continue;
        };
        if inc.from_ty != source_ty {
            continue;
        }
        let targets: Vec<_> = candidate.tree.ext(inc.to_ty).collect();
        if targets.is_empty() {
            continue;
        }
        let pick = targets[rng.below(targets.len())];
        if let Some(values) = candidate.tree.attr_values(pick, &inc.to_attrs) {
            for (attr, value) in inc.from_attrs.iter().zip(values) {
                candidate.set_attr(witness, *attr, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_constraints::{document_satisfies, example_sigma3};
    use xic_dtd::{example_d1, example_d2, example_d3};
    use xic_xml::validate;

    #[test]
    fn finds_witness_for_the_school_spec() {
        let d3 = example_d3();
        let sigma3 = example_sigma3(&d3);
        let tree = bounded_search(&d3, &sigma3, &BoundedSearchConfig::default())
            .expect("the school spec is consistent");
        assert!(validate(&tree, &d3).is_empty());
        assert!(document_satisfies(&d3, &tree, &sigma3));
    }

    #[test]
    fn unsatisfiable_dtd_yields_none() {
        let d2 = example_d2();
        assert!(
            bounded_search(&d2, &ConstraintSet::new(), &BoundedSearchConfig::default()).is_none()
        );
    }

    #[test]
    fn inconsistent_unary_spec_is_never_witnessed() {
        // Σ1 over D1 is inconsistent, so the search must come up empty.
        let d1 = example_d1();
        let sigma1 = xic_constraints::example_sigma1(&d1);
        let config = BoundedSearchConfig {
            attempts: 16,
            ..Default::default()
        };
        assert!(bounded_search(&d1, &sigma1, &config).is_none());
    }

    #[test]
    fn candidates_conform_to_the_dtd() {
        let d1 = example_d1();
        let analysis = analyze(&d1);
        let mut rng = XorShift::new(7);
        for richness in 0..4 {
            let tree = generate_candidate(
                &d1,
                &analysis,
                &mut rng,
                &BoundedSearchConfig::default(),
                richness,
            );
            // Structure is valid; attributes are filled in later, so only
            // check structural errors here.
            let structural: Vec<_> = validate(&tree, &d1)
                .into_iter()
                .filter(|e| !matches!(e, xic_xml::ValidationError::MissingAttribute { .. }))
                .collect();
            assert!(structural.is_empty(), "{structural:?}");
        }
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let d3 = example_d3();
        let sigma3 = example_sigma3(&d3);
        let config = BoundedSearchConfig::default();
        let a = bounded_search(&d3, &sigma3, &config).map(|t| t.num_nodes());
        let b = bounded_search(&d3, &sigma3, &config).map(|t| t.num_nodes());
        assert_eq!(a, b);
    }
}
