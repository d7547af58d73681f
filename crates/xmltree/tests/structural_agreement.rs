//! Differential test of incremental `T ⊨ D`: after every random edit, a
//! [`StructuralIndex`] fed the edits' effects holds exactly the errors a
//! full [`Validator::validate`] of the edited tree reports, in the same
//! order.
//!
//! The trees start with a root wider than four checkpoint spans, so
//! removals in the middle of its child list resume stored automaton runs,
//! and with many records lacking a required attribute, so removing a
//! record moves the positional paths (`rec[7]` → `rec[6]`) of later
//! records' errors.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xic_dtd::{ContentModel, Dtd};
use xic_xml::structural::CHECKPOINT_SPAN;
use xic_xml::{EditOp, NodeId, StructuralIndex, ValidationError, Validator, XmlTree};

/// `list → ((rec | note), (rec | note))*, tail?`, `rec → (part*, S?)` with
/// a required `id`, `part → EMPTY` with a required `ref`, `note → S`,
/// `tail → EMPTY`.  The root's word is valid only at even length, so every
/// automaton state records the parity of the prefix read: a checkpoint
/// that a removal should have invalidated gives the wrong verdict.
fn dtd() -> Dtd {
    let mut b = Dtd::builder();
    let list = b.elem("list");
    let rec = b.elem("rec");
    let part = b.elem("part");
    let note = b.elem("note");
    let tail = b.elem("tail");
    let item = || ContentModel::alt(ContentModel::Element(rec), ContentModel::Element(note));
    b.content(
        list,
        ContentModel::seq(
            ContentModel::star(ContentModel::seq(item(), item())),
            ContentModel::opt(ContentModel::Element(tail)),
        ),
    );
    b.content(
        rec,
        ContentModel::seq(
            ContentModel::star(ContentModel::Element(part)),
            ContentModel::opt(ContentModel::Text),
        ),
    );
    b.content(part, ContentModel::Epsilon);
    b.content(note, ContentModel::Text);
    b.content(tail, ContentModel::Epsilon);
    b.attr(rec, "id");
    b.attr(part, "ref");
    b.build("list").unwrap()
}

/// A root with `width` children; a third of the records lack their `id`,
/// and some records hold parts.
fn wide_tree(dtd: &Dtd, rng: &mut StdRng, width: usize) -> XmlTree {
    let rec = dtd.type_by_name("rec").unwrap();
    let part = dtd.type_by_name("part").unwrap();
    let note = dtd.type_by_name("note").unwrap();
    let id = dtd.attr_by_name("id").unwrap();
    let reference = dtd.attr_by_name("ref").unwrap();
    let mut tree = XmlTree::new(dtd.root());
    let root = tree.root();
    for i in 0..width {
        if rng.gen_range(0u32..5) == 0 {
            let n = tree.add_element(root, note);
            tree.add_text(n, "n");
            continue;
        }
        let r = tree.add_element(root, rec);
        if rng.gen_range(0u32..3) > 0 {
            tree.set_attr(r, id, format!("r{i}"));
        }
        for _ in 0..rng.gen_range(0u32..3) {
            let p = tree.add_element(r, part);
            if rng.gen_bool(0.7) {
                tree.set_attr(p, reference, "x");
            }
        }
    }
    tree
}

/// One valid op against the current tree: attribute sets (in and outside
/// `R(τ)`), appends anywhere, and removals, most of them of the root's
/// children.
fn random_op(rng: &mut StdRng, dtd: &Dtd, tree: &XmlTree) -> EditOp {
    let elements: Vec<NodeId> = tree.elements().collect();
    let root_children: Vec<NodeId> = tree
        .children(tree.root())
        .iter()
        .copied()
        .filter(|&c| tree.element_type(c).is_some())
        .collect();
    let pick = |rng: &mut StdRng, nodes: &[NodeId]| nodes[rng.gen_range(0..nodes.len())];
    match rng.gen_range(0u32..12) {
        0..=2 => {
            let attrs: Vec<_> = dtd.attrs().collect();
            EditOp::SetAttr {
                element: pick(rng, &elements),
                attr: attrs[rng.gen_range(0..attrs.len())],
                value: "v".into(),
            }
        }
        3..=4 => {
            let types: Vec<_> = dtd.types().collect();
            EditOp::AddElement {
                parent: pick(rng, &elements),
                ty: types[rng.gen_range(0..types.len())],
            }
        }
        5 => EditOp::AddText {
            parent: pick(rng, &elements),
            value: "t".into(),
        },
        6..=9 if !root_children.is_empty() => EditOp::RemoveSubtree {
            element: pick(rng, &root_children),
        },
        _ if elements.len() > 1 => EditOp::RemoveSubtree {
            element: pick(rng, &elements[1..]),
        },
        _ => EditOp::AddText {
            parent: tree.root(),
            value: "t".into(),
        },
    }
}

/// What a run exercised.
#[derive(Debug, Default)]
struct Coverage {
    /// Removals under a parent wider than four checkpoint spans, away from
    /// both ends of its child list.
    mid_removals: usize,
    /// Removals after which a later same-type sibling's error has a new
    /// path.
    shifted_errors: usize,
}

/// Applies `edits` random ops in batches of `batch`, refreshing after each
/// batch, and checks the index against a full validate every time.
fn drive(seed: u64, extra: usize, batch: usize, edits: usize) -> Coverage {
    let dtd = dtd();
    let validator = Validator::new(&dtd);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree = wide_tree(&dtd, &mut rng, 4 * CHECKPOINT_SPAN + extra);
    let mut index = StructuralIndex::new();
    assert!(index.refresh(&validator, &tree));
    let mut previous: Vec<ValidationError> = index.errors().cloned().collect();
    assert_eq!(previous, validator.validate(&tree));
    let mut coverage = Coverage::default();
    let mut step = 0;
    while step < edits {
        for _ in 0..batch {
            let op = random_op(&mut rng, &dtd, &tree);
            if let EditOp::RemoveSubtree { element } = op {
                let parent = tree.parent(element).unwrap();
                let siblings = tree.children(parent);
                let at = siblings.iter().position(|&c| c == element).unwrap();
                if siblings.len() > 4 * CHECKPOINT_SPAN
                    && at >= CHECKPOINT_SPAN
                    && at + CHECKPOINT_SPAN < siblings.len()
                {
                    coverage.mid_removals += 1;
                }
                let ty = tree.element_type(element);
                let before = validator.validate(&tree);
                let effect = tree.apply_edit(&op).unwrap();
                index.apply(&tree, &effect);
                // The later same-type siblings, under their new paths.
                let moved: Vec<String> = tree.children(parent)[at..]
                    .iter()
                    .filter(|&&c| tree.element_type(c) == ty)
                    .map(|&c| tree.path_of(&dtd, c))
                    .collect();
                let renamed = validator.validate(&tree).into_iter().any(|e| {
                    let text = e.to_string();
                    !before.contains(&e)
                        && moved.iter().any(|path| {
                            text.strip_prefix(path.as_str())
                                .is_some_and(|rest| rest.starts_with([':', '/']))
                        })
                });
                coverage.shifted_errors += usize::from(renamed);
            } else {
                let effect = tree.apply_edit(&op).unwrap();
                index.apply(&tree, &effect);
            }
            step += 1;
        }
        let changed = index.refresh(&validator, &tree);
        let incremental: Vec<ValidationError> = index.errors().cloned().collect();
        assert_eq!(
            incremental,
            validator.validate(&tree),
            "seed {seed}, after {step} edits"
        );
        if !changed {
            assert_eq!(incremental, previous, "an unchanged refresh moved errors");
        }
        previous = incremental;
    }
    coverage
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_errors_equal_a_full_validate_after_every_edit(
        seed in 0u64..10_000,
        extra in 1usize..150,
        batch in 1usize..4,
        edits in 20usize..80,
    ) {
        drive(seed, extra, batch, edits);
    }
}

/// The random runs do reach the two cases the checkpoints and the path
/// re-rendering exist for.
#[test]
fn runs_cover_mid_list_removals_and_shifted_paths() {
    let mut total = Coverage::default();
    for seed in 0..4 {
        let coverage = drive(seed, 40, 2, 60);
        total.mid_removals += coverage.mid_removals;
        total.shifted_errors += coverage.shifted_errors;
    }
    assert!(total.mid_removals > 0, "{total:?}");
    assert!(total.shifted_errors > 0, "{total:?}");
}
