//! Incremental `T ⊨ D`: per-element structural errors kept exact under
//! edits.
//!
//! Definition 2.2 makes `T ⊨ D` a conjunction of conditions local to one
//! element: its child word is in `L(P(τ))`, its attributes are exactly
//! `R(τ)`, and its text children carry values.  A [`StructuralIndex`] keeps
//! each element's errors under its [`NodeId`] and re-checks, after an edit,
//! only the conditions the edit can have changed — the way
//! `xic_constraints::IncrementalIndex` re-checks only the constraints an
//! edit touched:
//!
//! * [`EditEffect::AttrSet`] re-checks that element's attribute set;
//! * [`EditEffect::ElementAdded`] checks the new element, and
//!   [`EditEffect::TextAdded`] the new text node, and both re-check the
//!   parent's child word;
//! * [`EditEffect::SubtreeRemoved`] retracts the removed elements' errors and
//!   re-checks the parent's child word.  Paths are positional
//!   (`kind3[7]`), so when a later sibling of the same type moved down, the
//!   cached errors under the parent are re-rendered too.
//!
//! A wide parent's child word is not re-run from its first symbol: the
//! automaton state after every [`CHECKPOINT_SPAN`]th child is stored (built
//! the first time an edit changes that word), and a re-check resumes from
//! the last checkpoint at or before the edited position.
//!
//! [`StructuralIndex::errors`] flattens the map in [`Validator::validate`]
//! order (the root-label error, then ascending element ids), so the two
//! agree error for error; [`Validator::validate`] stays the one full-tree
//! check, and builds the index.

use std::collections::{BTreeMap, HashMap};

use xic_dtd::Glushkov;

use crate::edit::EditEffect;
use crate::tree::{NodeId, XmlTree};
use crate::validate::{child_symbol, ElementErrors, ValidationError, Validator};

/// Children between two stored automaton states of a wide parent's child
/// word; parents with at most this many children re-run their word whole.
pub const CHECKPOINT_SPAN: usize = 64;

/// The checks an edit left stale on one element.
#[derive(Debug, Default)]
struct Stale {
    /// A new element: every check.
    all: bool,
    /// The child word.
    word: bool,
    /// The attribute set.
    attrs: bool,
    /// Text children appended since the last refresh, in child order.
    texts: Vec<NodeId>,
}

/// A wide parent's child-word run: `states[j * w..(j + 1) * w]` is the
/// automaton state before child `j * CHECKPOINT_SPAN`, for `j < valid`.
#[derive(Debug, Default)]
struct Checkpoints {
    states: Vec<u64>,
    valid: usize,
}

/// One document's structural errors (`T ⊨ D`), kept per element and
/// maintained by feeding it every [`EditEffect`] the tree produces.
///
/// Built lazily: the first [`StructuralIndex::refresh`] runs the full
/// check; edits before it need no bookkeeping.
#[derive(Debug, Default)]
pub struct StructuralIndex {
    /// Whether the full check ran.
    built: bool,
    /// The root-label error, first in [`Validator::validate`] order.
    root: Option<ValidationError>,
    /// Every element with at least one error.
    elements: BTreeMap<NodeId, ElementErrors>,
    /// Checks to re-run at the next refresh.
    stale: BTreeMap<NodeId, Stale>,
    /// Parents whose later children moved to a new positional path.
    shifted: Vec<NodeId>,
    /// Stored child-word runs of wide parents.
    runs: HashMap<NodeId, Checkpoints>,
    /// Whether an edit retracted cached errors since the last refresh.
    retracted: bool,
    /// Elements the last refresh re-checked.
    revalidated: usize,
    scratch: Vec<u64>,
}

impl StructuralIndex {
    /// An index that runs the full check at its first refresh.
    pub fn new() -> StructuralIndex {
        StructuralIndex::default()
    }

    /// Whether a [`StructuralIndex::refresh`] ran the full check yet.
    pub fn is_built(&self) -> bool {
        self.built
    }

    /// Records one applied edit.  Must be called with the tree the effect
    /// was produced on, *after* the edit.
    pub fn apply(&mut self, tree: &XmlTree, effect: &EditEffect) {
        if !self.built {
            return;
        }
        match effect {
            EditEffect::AttrSet { element, .. } => {
                self.stale.entry(*element).or_default().attrs = true;
            }
            EditEffect::ElementAdded {
                element, parent, ..
            } => {
                self.stale.entry(*element).or_default().all = true;
                self.word_changed(*parent, tree.children(*parent).len() - 1);
            }
            EditEffect::TextAdded { node, parent } => {
                self.stale.entry(*parent).or_default().texts.push(*node);
                self.word_changed(*parent, tree.children(*parent).len() - 1);
            }
            EditEffect::SubtreeRemoved {
                root,
                elements,
                parent,
                position,
            } => {
                for (node, _) in elements {
                    self.retracted |= self.elements.remove(node).is_some();
                    self.stale.remove(node);
                    self.runs.remove(node);
                }
                self.word_changed(*parent, *position);
                let ty = tree.element_type(*root);
                let moved = tree.children(*parent)[*position..]
                    .iter()
                    .any(|&c| tree.element_type(c) == ty);
                if moved && !self.shifted.contains(parent) {
                    self.shifted.push(*parent);
                }
            }
        }
    }

    /// `parent`'s child word changed at `position`: re-check it, and drop
    /// the stored states past that position.
    fn word_changed(&mut self, parent: NodeId, position: usize) {
        self.stale.entry(parent).or_default().word = true;
        if let Some(run) = self.runs.get_mut(&parent) {
            run.valid = run.valid.min(position / CHECKPOINT_SPAN + 1);
        }
    }

    /// Re-runs the checks the recorded edits left stale (the full check on
    /// the first call) and returns whether [`StructuralIndex::errors`] may
    /// have changed; `false` means it certainly did not.
    pub fn refresh(&mut self, validator: &Validator<'_>, tree: &XmlTree) -> bool {
        self.revalidated = 0;
        if !self.built {
            self.root = validator.root_error(tree);
            let elements = &mut self.elements;
            validator.walk(tree, |node, errors| {
                elements.insert(node, errors);
            });
            self.built = true;
            return true;
        }
        let mut changed = std::mem::take(&mut self.retracted);
        for (node, stale) in std::mem::take(&mut self.stale) {
            self.revalidated += 1;
            let ty = tree
                .element_type(node)
                .expect("stale entries name live elements");
            let mut errors = self.elements.remove(&node).unwrap_or_default();
            if stale.all || stale.word {
                let mut word = Vec::new();
                validator.check_value(tree, node, &mut word);
                let automaton = validator.automaton(ty);
                if !self.accepts(automaton, tree, node) {
                    word.push(validator.word_mismatch(tree, node, ty));
                }
                changed |= replace(&mut errors.word, word);
            }
            if stale.all || stale.attrs {
                let mut attrs = Vec::new();
                validator.check_attrs(tree, node, ty, &mut attrs);
                changed |= replace(&mut errors.attrs, attrs);
            }
            if stale.all {
                let mut texts = Vec::new();
                for &child in tree.children(node) {
                    validator.check_text(tree, child, &mut texts);
                }
                changed |= replace(&mut errors.texts, texts);
            } else {
                let before = errors.texts.len();
                for child in stale.texts {
                    validator.check_text(tree, child, &mut errors.texts);
                }
                changed |= errors.texts.len() != before;
            }
            if !errors.is_empty() {
                self.elements.insert(node, errors);
            }
        }
        let shifted = std::mem::take(&mut self.shifted);
        if !shifted.is_empty() {
            changed |= self.rerender_under(validator, tree, &shifted);
        }
        changed
    }

    /// Whether `node`'s child word is in the language of `automaton`,
    /// resuming a wide parent's run from its last valid checkpoint.
    fn accepts(&mut self, automaton: &Glushkov, tree: &XmlTree, node: NodeId) -> bool {
        let children = tree.children(node);
        let scratch = &mut self.scratch;
        if children.len() <= CHECKPOINT_SPAN {
            self.runs.remove(&node);
            let word = children.iter().map(|&c| child_symbol(tree, c));
            return automaton.matches_with(word, scratch);
        }
        let w = automaton.state_words();
        let run = self.runs.entry(node).or_default();
        if run.valid == 0 {
            automaton.start(&mut run.states);
            run.valid = 1;
        }
        run.states.truncate(run.valid * w);
        let resume = (run.valid - 1) * CHECKPOINT_SPAN;
        scratch.clear();
        scratch.extend_from_slice(&run.states[(run.valid - 1) * w..]);
        scratch.resize(2 * w, 0);
        let (current, next) = scratch.split_at_mut(w);
        for (i, &child) in children.iter().enumerate().skip(resume) {
            if i > resume && i % CHECKPOINT_SPAN == 0 {
                run.states.extend_from_slice(current);
                run.valid += 1;
            }
            if !automaton.step(current, child_symbol(tree, child), next) {
                return false;
            }
            current.swap_with_slice(next);
        }
        automaton.accepting(current)
    }

    /// Re-renders the paths of the cached errors below any of `parents`;
    /// returns whether one changed.
    fn rerender_under(
        &mut self,
        validator: &Validator<'_>,
        tree: &XmlTree,
        parents: &[NodeId],
    ) -> bool {
        let below = |node: NodeId| {
            let mut current = tree.parent(node);
            while let Some(p) = current {
                if parents.contains(&p) {
                    return true;
                }
                current = tree.parent(p);
            }
            false
        };
        let mut changed = false;
        for (&node, errors) in self.elements.iter_mut().filter(|(&n, _)| below(n)) {
            let path = tree.path_of(validator.dtd(), node);
            for error in errors.word.iter_mut().chain(&mut errors.attrs) {
                changed |= set_path(error, &path);
            }
            for (text, error) in &mut errors.texts {
                changed |= set_path(error, &tree.path_of(validator.dtd(), *text));
            }
        }
        changed
    }

    /// Elements the last [`StructuralIndex::refresh`] re-checked (0 for
    /// the full check of a first refresh).
    pub fn revalidated(&self) -> usize {
        self.revalidated
    }

    /// The document's structural errors as of the last refresh, in
    /// [`Validator::validate`] order.
    pub fn errors(&self) -> impl Iterator<Item = &ValidationError> {
        self.root
            .iter()
            .chain(self.elements.values().flat_map(ElementErrors::iter))
    }
}

/// Stores `fresh` in `slot`; returns whether it differs from what was there.
fn replace<T: PartialEq>(slot: &mut Vec<T>, fresh: Vec<T>) -> bool {
    let changed = *slot != fresh;
    *slot = fresh;
    changed
}

/// Points `error` at `path`; returns whether that changed it.
fn set_path(error: &mut ValidationError, path: &str) -> bool {
    match error.path_mut() {
        Some(current) if current != path => {
            path.clone_into(current);
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::EditOp;
    use xic_dtd::{example_d1, ContentModel, Dtd};

    fn check(index: &mut StructuralIndex, validator: &Validator<'_>, tree: &XmlTree) {
        index.refresh(validator, tree);
        let incremental: Vec<ValidationError> = index.errors().cloned().collect();
        assert_eq!(incremental, validator.validate(tree));
    }

    fn apply(index: &mut StructuralIndex, tree: &mut XmlTree, op: EditOp) -> EditEffect {
        let effect = tree.apply_edit(&op).unwrap();
        index.apply(tree, &effect);
        effect
    }

    #[test]
    fn edits_track_the_full_check_on_the_paper_dtd() {
        let dtd = example_d1();
        let validator = Validator::new(&dtd);
        let teachers = dtd.type_by_name("teachers").unwrap();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let taught_by = dtd.attr_by_name("taught_by").unwrap();
        let mut tree = XmlTree::new(teachers);
        let mut index = StructuralIndex::new();
        check(&mut index, &validator, &tree);
        assert_eq!(index.errors().count(), 1, "teacher+ needs a teacher");

        let root = tree.root();
        let mut added = Vec::new();
        for _ in 0..3 {
            let effect = apply(
                &mut index,
                &mut tree,
                EditOp::AddElement {
                    parent: root,
                    ty: teacher,
                },
            );
            let EditEffect::ElementAdded { element, .. } = effect else {
                unreachable!()
            };
            added.push(element);
        }
        check(&mut index, &validator, &tree);
        assert_eq!(index.revalidated(), 4, "three new teachers and the root");

        // An attribute outside R(teacher), then the required one.
        apply(
            &mut index,
            &mut tree,
            EditOp::SetAttr {
                element: added[2],
                attr: taught_by,
                value: "x".into(),
            },
        );
        check(&mut index, &validator, &tree);
        assert_eq!(index.revalidated(), 1);
        apply(
            &mut index,
            &mut tree,
            EditOp::SetAttr {
                element: added[2],
                attr: name,
                value: "Joe".into(),
            },
        );
        apply(
            &mut index,
            &mut tree,
            EditOp::AddText {
                parent: added[2],
                value: "stray".into(),
            },
        );
        apply(
            &mut index,
            &mut tree,
            EditOp::AddElement {
                parent: added[2],
                ty: subject,
            },
        );
        check(&mut index, &validator, &tree);

        // Removing the first teacher renames teacher[3] to teacher[2].
        apply(
            &mut index,
            &mut tree,
            EditOp::RemoveSubtree { element: added[0] },
        );
        check(&mut index, &validator, &tree);
        assert!(index.errors().any(|e| e.to_string().contains("teacher[2]")));
    }

    /// `root → ((a | b), (a | b))*` with `a → b*`: wide words of a
    /// two-letter alphabet, valid at even length only — a stale checkpoint
    /// carries the wrong parity.
    fn wide_dtd() -> Dtd {
        let mut b = Dtd::builder();
        let root = b.elem("root");
        let a = b.elem("a");
        let leaf = b.elem("b");
        let item = || ContentModel::alt(ContentModel::Element(a), ContentModel::Element(leaf));
        b.content(root, ContentModel::star(ContentModel::seq(item(), item())));
        b.content(a, ContentModel::star(ContentModel::Element(leaf)));
        b.content(leaf, ContentModel::Epsilon);
        b.build("root").unwrap()
    }

    #[test]
    fn checkpointed_runs_agree_under_mid_word_removals() {
        let dtd = wide_dtd();
        let validator = Validator::new(&dtd);
        let a = dtd.type_by_name("a").unwrap();
        let leaf = dtd.type_by_name("b").unwrap();
        let mut tree = XmlTree::new(dtd.root());
        let root = tree.root();
        let mut index = StructuralIndex::new();
        check(&mut index, &validator, &tree);
        for i in 0..5 * CHECKPOINT_SPAN {
            let ty = if i % 7 == 0 { a } else { leaf };
            apply(
                &mut index,
                &mut tree,
                EditOp::AddElement { parent: root, ty },
            );
        }
        check(&mut index, &validator, &tree);
        // A text child breaks the root's word mid-way; removals before and
        // after it move the mismatch through several checkpoint spans.
        apply(
            &mut index,
            &mut tree,
            EditOp::AddText {
                parent: root,
                value: "t".into(),
            },
        );
        check(&mut index, &validator, &tree);
        for position in [3 * CHECKPOINT_SPAN + 5, 70, 0, CHECKPOINT_SPAN, 200] {
            let element = tree.children(root)[position];
            if tree.element_type(element).is_none() {
                continue;
            }
            apply(&mut index, &mut tree, EditOp::RemoveSubtree { element });
            check(&mut index, &validator, &tree);
        }
        // An error under an `a` that a removal moves down: its path shifts.
        let second_a = tree
            .children(root)
            .iter()
            .copied()
            .filter(|&c| tree.element_type(c) == Some(a))
            .nth(1)
            .unwrap();
        apply(
            &mut index,
            &mut tree,
            EditOp::AddText {
                parent: second_a,
                value: "x".into(),
            },
        );
        check(&mut index, &validator, &tree);
        let first_a = tree
            .children(root)
            .iter()
            .copied()
            .find(|&c| tree.element_type(c) == Some(a))
            .unwrap();
        apply(
            &mut index,
            &mut tree,
            EditOp::RemoveSubtree { element: first_a },
        );
        check(&mut index, &validator, &tree);
        assert!(index
            .errors()
            .any(|e| e.to_string().starts_with("root/a[1]:")));
    }
}
