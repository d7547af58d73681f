//! Validation of XML trees against DTDs (the `T ⊨ D` relation of
//! Definition 2.2).

use xic_dtd::{ChildSymbol, Dtd, ElemId, Glushkov};

use crate::tree::{NodeId, NodeLabel, XmlTree};

/// A single validation violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The root element is not labelled with the DTD's root type.
    WrongRootType {
        /// Expected root type name.
        expected: String,
        /// Actual root type name.
        found: String,
    },
    /// The ordered children of an element do not match its content model.
    ContentModelMismatch {
        /// Path of the offending element.
        path: String,
        /// Element type name.
        element_type: String,
        /// The content model, rendered.
        expected: String,
        /// The children label word, rendered.
        found: String,
    },
    /// A required attribute is missing.
    MissingAttribute {
        /// Path of the offending element.
        path: String,
        /// Attribute name.
        attribute: String,
    },
    /// An attribute not in `R(τ)` is present.
    UnexpectedAttribute {
        /// Path of the offending element.
        path: String,
        /// Attribute name.
        attribute: String,
    },
    /// An attribute or text node is missing its string value, or an element
    /// node carries one.
    ValueShape {
        /// Path of the offending node.
        path: String,
        /// Description of the problem.
        message: String,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::WrongRootType { expected, found } => {
                write!(
                    f,
                    "root element is `{found}` but the DTD root is `{expected}`"
                )
            }
            ValidationError::ContentModelMismatch {
                path,
                element_type,
                expected,
                found,
            } => {
                write!(
                    f,
                    "{path}: children of `{element_type}` are [{found}] which does not match {expected}"
                )
            }
            ValidationError::MissingAttribute { path, attribute } => {
                write!(f, "{path}: missing required attribute `{attribute}`")
            }
            ValidationError::UnexpectedAttribute { path, attribute } => {
                write!(
                    f,
                    "{path}: attribute `{attribute}` is not defined for this element type"
                )
            }
            ValidationError::ValueShape { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl ValidationError {
    /// The path the error names, if it names one (every kind but
    /// [`ValidationError::WrongRootType`]).
    pub(crate) fn path_mut(&mut self) -> Option<&mut String> {
        match self {
            ValidationError::WrongRootType { .. } => None,
            ValidationError::ContentModelMismatch { path, .. }
            | ValidationError::MissingAttribute { path, .. }
            | ValidationError::UnexpectedAttribute { path, .. }
            | ValidationError::ValueShape { path, .. } => Some(path),
        }
    }
}

/// One element's errors, split by the condition that produced them — the
/// three checks an incremental re-check can run on their own.  Flattened in
/// field order, they are the element's errors in [`Validator::validate`]
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ElementErrors {
    /// The element's own value shape, then its child word against
    /// `L(P(τ))`.
    pub(crate) word: Vec<ValidationError>,
    /// Its attribute set against `R(τ)`.
    pub(crate) attrs: Vec<ValidationError>,
    /// Its text children's shape, each error with the text node it names.
    pub(crate) texts: Vec<(NodeId, ValidationError)>,
}

impl ElementErrors {
    pub(crate) fn is_empty(&self) -> bool {
        self.word.is_empty() && self.attrs.is_empty() && self.texts.is_empty()
    }

    /// The errors in [`Validator::validate`] order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ValidationError> {
        self.word
            .iter()
            .chain(&self.attrs)
            .chain(self.texts.iter().map(|(_, e)| e))
    }
}

/// A compiled validator: one Glushkov automaton per element type.
///
/// The automata can be owned (built by [`Validator::new`]) or borrowed from a
/// caller that compiled them once and validates many documents (see
/// [`Validator::from_automata`]).
#[derive(Debug)]
pub struct Validator<'d> {
    dtd: &'d Dtd,
    automata: Automata<'d>,
}

#[derive(Debug)]
enum Automata<'d> {
    Owned(Vec<Glushkov>),
    Borrowed(&'d [Glushkov]),
}

impl Automata<'_> {
    fn get(&self, ty: ElemId) -> &Glushkov {
        match self {
            Automata::Owned(automata) => &automata[ty.index()],
            Automata::Borrowed(automata) => &automata[ty.index()],
        }
    }
}

/// Builds the Glushkov automata of every content model of a DTD, indexed by
/// [`ElemId::index`] — the per-spec compilation step that
/// [`Validator::new`] runs implicitly and that batch engines want to run
/// exactly once.
pub fn compile_automata(dtd: &Dtd) -> Vec<Glushkov> {
    dtd.types()
        .map(|ty| Glushkov::new(dtd.content(ty)))
        .collect()
}

/// The symbol a child contributes to its parent's child word.
pub(crate) fn child_symbol(tree: &XmlTree, child: NodeId) -> ChildSymbol {
    match tree.label(child) {
        NodeLabel::Element(e) => ChildSymbol::Element(e),
        _ => ChildSymbol::Text,
    }
}

impl<'d> Validator<'d> {
    /// Compiles the content models of a DTD.
    pub fn new(dtd: &'d Dtd) -> Validator<'d> {
        Validator {
            dtd,
            automata: Automata::Owned(compile_automata(dtd)),
        }
    }

    /// Wraps automata compiled once elsewhere (see [`compile_automata`]);
    /// `automata` must cover every element type of `dtd`.
    pub fn from_automata(dtd: &'d Dtd, automata: &'d [Glushkov]) -> Validator<'d> {
        Validator {
            dtd,
            automata: Automata::Borrowed(automata),
        }
    }

    /// Validates a whole tree, collecting every violation.
    pub fn validate(&self, tree: &XmlTree) -> Vec<ValidationError> {
        let mut errors: Vec<ValidationError> = self.root_error(tree).into_iter().collect();
        self.walk(tree, |_, element| {
            errors.extend(element.word);
            errors.extend(element.attrs);
            errors.extend(element.texts.into_iter().map(|(_, e)| e));
        });
        errors
    }

    /// Returns `true` iff the tree is valid with respect to the DTD.
    pub fn is_valid(&self, tree: &XmlTree) -> bool {
        self.validate(tree).is_empty()
    }

    /// The one full-tree walk behind [`Validator::validate`] and the
    /// [`crate::StructuralIndex`] build: hands the errors of every live
    /// element that has some to `each`, in ascending id order.  The
    /// per-element checks it calls are `#[inline(always)]`: they run on
    /// every element of every validated document.
    pub(crate) fn walk(&self, tree: &XmlTree, mut each: impl FnMut(NodeId, ElementErrors)) {
        let mut scratch = Vec::new();
        let mut errors = ElementErrors::default();
        for node in tree.elements() {
            let Some(ty) = tree.element_type(node) else {
                continue;
            };
            self.check_value(tree, node, &mut errors.word);
            let word = tree.children(node).iter().map(|&c| child_symbol(tree, c));
            if !self.automaton(ty).matches_with(word, &mut scratch) {
                errors.word.push(self.word_mismatch(tree, node, ty));
            }
            self.check_attrs(tree, node, ty, &mut errors.attrs);
            for &child in tree.children(node) {
                self.check_text(tree, child, &mut errors.texts);
            }
            if !errors.is_empty() {
                each(node, std::mem::take(&mut errors));
            }
        }
    }

    /// The root label must be the DTD's root type.
    pub(crate) fn root_error(&self, tree: &XmlTree) -> Option<ValidationError> {
        let found = match tree.label(tree.root()) {
            NodeLabel::Element(e) if e == self.dtd.root() => return None,
            NodeLabel::Element(e) => self.dtd.type_name(e).to_string(),
            _ => "#text".to_string(),
        };
        Some(ValidationError::WrongRootType {
            expected: self.dtd.type_name(self.dtd.root()).to_string(),
            found,
        })
    }

    /// The compiled content model of `ty`.
    pub(crate) fn automaton(&self, ty: ElemId) -> &Glushkov {
        self.automata.get(ty)
    }

    /// The DTD the validator checks against.
    pub(crate) fn dtd(&self) -> &'d Dtd {
        self.dtd
    }

    /// Elements carry no value.
    #[inline(always)]
    pub(crate) fn check_value(
        &self,
        tree: &XmlTree,
        node: NodeId,
        errors: &mut Vec<ValidationError>,
    ) {
        if tree.value_id(node).is_some() {
            errors.push(ValidationError::ValueShape {
                path: tree.path_of(self.dtd, node),
                message: "element node has a string value".to_string(),
            });
        }
    }

    /// The error of an element whose child word is not in `L(P(τ))`.
    pub(crate) fn word_mismatch(
        &self,
        tree: &XmlTree,
        node: NodeId,
        ty: ElemId,
    ) -> ValidationError {
        let found = tree
            .children(node)
            .iter()
            .map(|&c| match child_symbol(tree, c) {
                ChildSymbol::Element(e) => self.dtd.type_name(e).to_string(),
                ChildSymbol::Text => "S".to_string(),
            })
            .collect::<Vec<_>>()
            .join(", ");
        ValidationError::ContentModelMismatch {
            path: tree.path_of(self.dtd, node),
            element_type: self.dtd.type_name(ty).to_string(),
            expected: self
                .dtd
                .content(ty)
                .render(&|e| self.dtd.type_name(e).to_string()),
            found,
        }
    }

    /// The attribute set must be exactly `R(τ)`, every attribute with a
    /// value.
    #[inline(always)]
    pub(crate) fn check_attrs(
        &self,
        tree: &XmlTree,
        node: NodeId,
        ty: ElemId,
        errors: &mut Vec<ValidationError>,
    ) {
        let path = || tree.path_of(self.dtd, node);
        for &required in self.dtd.attrs_of(ty) {
            if tree.attr_value_id(node, required).is_none() {
                errors.push(ValidationError::MissingAttribute {
                    path: path(),
                    attribute: self.dtd.attr_name(required).to_string(),
                });
            }
        }
        for &(attr, attr_node) in tree.attributes(node) {
            if !self.dtd.has_attr(ty, attr) {
                errors.push(ValidationError::UnexpectedAttribute {
                    path: path(),
                    attribute: self.dtd.attr_name(attr).to_string(),
                });
            }
            if tree.value_id(attr_node).is_none() {
                errors.push(ValidationError::ValueShape {
                    path: path(),
                    message: format!(
                        "attribute `{}` has no string value",
                        self.dtd.attr_name(attr)
                    ),
                });
            }
        }
    }

    /// A text child must carry a value and no children of its own (other
    /// children pass).
    #[inline(always)]
    pub(crate) fn check_text(
        &self,
        tree: &XmlTree,
        child: NodeId,
        errors: &mut Vec<(NodeId, ValidationError)>,
    ) {
        if !matches!(tree.label(child), NodeLabel::Text) {
            return;
        }
        if tree.value_id(child).is_none() {
            errors.push((
                child,
                ValidationError::ValueShape {
                    path: tree.path_of(self.dtd, child),
                    message: "text node has no string value".to_string(),
                },
            ));
        }
        if !tree.children(child).is_empty() {
            errors.push((
                child,
                ValidationError::ValueShape {
                    path: tree.path_of(self.dtd, child),
                    message: "text node has children".to_string(),
                },
            ));
        }
    }
}

/// One-shot validation helper.
pub fn validate(tree: &XmlTree, dtd: &Dtd) -> Vec<ValidationError> {
    Validator::new(dtd).validate(tree)
}

/// One-shot validity test (`T ⊨ D`).
pub fn is_valid(tree: &XmlTree, dtd: &Dtd) -> bool {
    validate(tree, dtd).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_dtd::example_d1;

    fn d1_tree(dtd: &Dtd) -> XmlTree {
        let teachers = dtd.type_by_name("teachers").unwrap();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let teach = dtd.type_by_name("teach").unwrap();
        let research = dtd.type_by_name("research").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let taught_by = dtd.attr_by_name("taught_by").unwrap();
        let mut t = XmlTree::new(teachers);
        let te = t.add_element(t.root(), teacher);
        t.set_attr(te, name, "Joe");
        let th = t.add_element(te, teach);
        for s_name in ["XML", "DB"] {
            let s = t.add_element(th, subject);
            t.set_attr(s, taught_by, "Joe");
            t.add_text(s, s_name);
        }
        let r = t.add_element(te, research);
        t.add_text(r, "Web DB");
        t
    }

    #[test]
    fn figure1_style_tree_is_valid() {
        let dtd = example_d1();
        let t = d1_tree(&dtd);
        let errors = validate(&t, &dtd);
        assert!(errors.is_empty(), "{errors:?}");
        assert!(is_valid(&t, &dtd));
    }

    #[test]
    fn missing_attribute_is_reported() {
        let dtd = example_d1();
        let mut t = d1_tree(&dtd);
        // Add an extra subject without taught_by under teach.
        let teach = dtd.type_by_name("teach").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        let teach_node = t.ext(teach).next().unwrap();
        t.add_element(teach_node, subject);
        let errors = validate(&t, &dtd);
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::MissingAttribute { attribute, .. } if attribute == "taught_by")));
        // The teach element now has three subject children: also a content
        // model mismatch.
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::ContentModelMismatch { .. })));
    }

    #[test]
    fn wrong_root_is_reported() {
        let dtd = example_d1();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let t = XmlTree::new(teacher);
        let errors = validate(&t, &dtd);
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::WrongRootType { .. })));
    }

    #[test]
    fn unexpected_attribute_is_reported() {
        let dtd = example_d1();
        let mut t = d1_tree(&dtd);
        let teach = dtd.type_by_name("teach").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let teach_node = t.ext(teach).next().unwrap();
        t.set_attr(teach_node, name, "oops");
        let errors = validate(&t, &dtd);
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::UnexpectedAttribute { attribute, .. } if attribute == "name")));
    }

    #[test]
    fn empty_teachers_violates_plus() {
        let dtd = example_d1();
        let teachers = dtd.type_by_name("teachers").unwrap();
        let t = XmlTree::new(teachers);
        // teachers requires at least one teacher child.
        let errors = validate(&t, &dtd);
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::ContentModelMismatch { .. })));
    }

    #[test]
    fn error_messages_are_informative() {
        let dtd = example_d1();
        let teachers = dtd.type_by_name("teachers").unwrap();
        let t = XmlTree::new(teachers);
        let errors = validate(&t, &dtd);
        let msg = errors[0].to_string();
        assert!(msg.contains("teachers"), "{msg}");
    }

    #[test]
    fn validator_is_reusable() {
        let dtd = example_d1();
        let v = Validator::new(&dtd);
        let t1 = d1_tree(&dtd);
        let t2 = d1_tree(&dtd);
        assert!(v.is_valid(&t1));
        assert!(v.is_valid(&t2));
    }
}
