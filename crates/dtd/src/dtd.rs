//! The DTD formalism of Definition 2.1: `D = (E, A, P, R, r)`.

use std::collections::HashMap;
use std::fmt;

use crate::content::ContentModel;
use crate::error::DtdError;
use crate::names::NameTable;

/// Identifier of an element type within a [`Dtd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ElemId(pub u32);

impl ElemId {
    /// Index into the DTD's element-type table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an attribute within a [`Dtd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u32);

impl AttrId {
    /// Index into the DTD's attribute table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A DTD `D = (E, A, P, R, r)`:
///
/// * `E` — the element types (interned, addressed by [`ElemId`]);
/// * `A` — the attributes (interned, addressed by [`AttrId`]);
/// * `P` — a content model per element type;
/// * `R` — the set of attributes defined for each element type;
/// * `r` — the root element type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dtd {
    type_names: Vec<String>,
    attr_names: Vec<String>,
    content: Vec<ContentModel>,
    attrs_of: Vec<Vec<AttrId>>,
    root: ElemId,
    /// Compiled lookup tables over `type_names` and `attr_names`.
    type_table: NameTable,
    attr_table: NameTable,
}

impl Dtd {
    /// Starts building a DTD.
    pub fn builder() -> DtdBuilder {
        DtdBuilder::new()
    }

    /// The root element type.
    pub fn root(&self) -> ElemId {
        self.root
    }

    /// Number of element types.
    pub fn num_types(&self) -> usize {
        self.type_names.len()
    }

    /// Number of attributes.
    pub fn num_attrs(&self) -> usize {
        self.attr_names.len()
    }

    /// Iterates over all element type ids.
    pub fn types(&self) -> impl Iterator<Item = ElemId> {
        (0..self.type_names.len() as u32).map(ElemId)
    }

    /// Iterates over all attribute ids.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> {
        (0..self.attr_names.len() as u32).map(AttrId)
    }

    /// Name of an element type.
    pub fn type_name(&self, id: ElemId) -> &str {
        &self.type_names[id.index()]
    }

    /// Name of an attribute.
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attr_names[id.index()]
    }

    /// Looks up an element type by name.
    pub fn type_by_name(&self, name: &str) -> Option<ElemId> {
        self.type_table.get(&self.type_names, name).map(ElemId)
    }

    /// Looks up an attribute by name.
    pub fn attr_by_name(&self, name: &str) -> Option<AttrId> {
        self.attr_table.get(&self.attr_names, name).map(AttrId)
    }

    /// Content model `P(τ)` of an element type.
    pub fn content(&self, id: ElemId) -> &ContentModel {
        &self.content[id.index()]
    }

    /// Attributes `R(τ)` defined for an element type.
    pub fn attrs_of(&self, id: ElemId) -> &[AttrId] {
        &self.attrs_of[id.index()]
    }

    /// Returns `true` iff attribute `attr` is defined for element type `ty`.
    pub fn has_attr(&self, ty: ElemId, attr: AttrId) -> bool {
        self.attrs_of[ty.index()].contains(&attr)
    }

    /// Total size of the DTD (element types + attribute occurrences + content
    /// model nodes); the `|D|` used in the paper's complexity statements.
    pub fn size(&self) -> usize {
        self.type_names.len()
            + self.attrs_of.iter().map(Vec::len).sum::<usize>()
            + self.content.iter().map(ContentModel::size).sum::<usize>()
    }

    /// Renders the DTD in `<!ELEMENT …>` / `<!ATTLIST …>` syntax.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for ty in self.types() {
            let body = match self.content(ty) {
                ContentModel::Epsilon => "EMPTY".to_string(),
                ContentModel::Text => "(#PCDATA)".to_string(),
                cm => {
                    let rendered = cm.render(&|e| self.type_name(e).to_string());
                    if rendered.starts_with('(') {
                        rendered
                    } else {
                        format!("({rendered})")
                    }
                }
            };
            let _ = writeln!(out, "<!ELEMENT {} {}>", self.type_name(ty), body);
            if !self.attrs_of(ty).is_empty() {
                let _ = write!(out, "<!ATTLIST {}", self.type_name(ty));
                for &a in self.attrs_of(ty) {
                    let _ = write!(out, " {} CDATA #REQUIRED", self.attr_name(a));
                }
                let _ = writeln!(out, ">");
            }
        }
        out
    }
}

impl fmt::Display for Dtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Incremental builder for [`Dtd`] values.
///
/// ```
/// use xic_dtd::{Dtd, ContentModel};
///
/// let mut b = Dtd::builder();
/// let teachers = b.elem("teachers");
/// let teacher = b.elem("teacher");
/// b.content(teachers, ContentModel::plus(ContentModel::Element(teacher)));
/// b.content(teacher, ContentModel::Text);
/// b.attr(teacher, "name");
/// let dtd = b.build("teachers").unwrap();
/// assert_eq!(dtd.num_types(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct DtdBuilder {
    type_names: Vec<String>,
    attr_names: Vec<String>,
    content: Vec<Option<ContentModel>>,
    attrs_of: Vec<Vec<AttrId>>,
    type_index: HashMap<String, ElemId>,
    attr_index: HashMap<String, AttrId>,
}

impl DtdBuilder {
    /// Creates an empty builder.
    pub fn new() -> DtdBuilder {
        DtdBuilder::default()
    }

    /// Declares (or returns the existing) element type with the given name.
    pub fn elem(&mut self, name: &str) -> ElemId {
        if let Some(&id) = self.type_index.get(name) {
            return id;
        }
        let id = ElemId(self.type_names.len() as u32);
        self.type_names.push(name.to_string());
        self.content.push(None);
        self.attrs_of.push(Vec::new());
        self.type_index.insert(name.to_string(), id);
        id
    }

    /// Sets the content model of an element type (defaults to `EMPTY`).
    pub fn content(&mut self, ty: ElemId, model: ContentModel) -> &mut Self {
        self.content[ty.index()] = Some(model);
        self
    }

    /// Declares an attribute `name` for element type `ty`, returning its id.
    /// The same attribute name used on different element types shares one
    /// [`AttrId`], matching the paper where `A` is a single set of attributes.
    pub fn attr(&mut self, ty: ElemId, name: &str) -> AttrId {
        let id = match self.attr_index.get(name) {
            Some(&id) => id,
            None => {
                let id = AttrId(self.attr_names.len() as u32);
                self.attr_names.push(name.to_string());
                self.attr_index.insert(name.to_string(), id);
                id
            }
        };
        if !self.attrs_of[ty.index()].contains(&id) {
            self.attrs_of[ty.index()].push(id);
        }
        id
    }

    /// Finalises the DTD with the given root element type name.
    pub fn build(self, root: &str) -> Result<Dtd, DtdError> {
        let root_id = *self
            .type_index
            .get(root)
            .ok_or_else(|| DtdError::UnknownType(root.to_string()))?;
        // Every element type referenced in a content model must be declared
        // (the builder API guarantees this by construction since ElemIds can
        // only come from `elem`), and every content model must be present.
        let mut content = Vec::with_capacity(self.content.len());
        for (i, cm) in self.content.into_iter().enumerate() {
            match cm {
                Some(cm) => {
                    let mut used = Vec::new();
                    cm.collect_element_types(&mut used);
                    for e in used {
                        if e.index() >= self.type_names.len() {
                            return Err(DtdError::UnknownType(format!("#{}", e.0)));
                        }
                    }
                    content.push(cm);
                }
                None => {
                    // Undeclared content defaults to EMPTY, mirroring the
                    // paper's convention of omitting string-typed elements.
                    let _ = i;
                    content.push(ContentModel::Epsilon);
                }
            }
        }
        Ok(Dtd {
            type_table: NameTable::new(&self.type_names),
            attr_table: NameTable::new(&self.attr_names),
            type_names: self.type_names,
            attr_names: self.attr_names,
            content,
            attrs_of: self.attrs_of,
            root: root_id,
        })
    }
}

/// Builds the teachers DTD `D1` from Section 1 of the paper.
///
/// ```text
/// <!ELEMENT teachers (teacher+)>
/// <!ELEMENT teacher (teach, research)>
/// <!ELEMENT teach (subject, subject)>
/// teacher has attribute name; subject has attribute taught_by.
/// ```
pub fn example_d1() -> Dtd {
    let mut b = Dtd::builder();
    let teachers = b.elem("teachers");
    let teacher = b.elem("teacher");
    let teach = b.elem("teach");
    let research = b.elem("research");
    let subject = b.elem("subject");
    b.content(teachers, ContentModel::plus(ContentModel::Element(teacher)));
    b.content(
        teacher,
        ContentModel::seq(
            ContentModel::Element(teach),
            ContentModel::Element(research),
        ),
    );
    b.content(
        teach,
        ContentModel::seq(
            ContentModel::Element(subject),
            ContentModel::Element(subject),
        ),
    );
    b.content(research, ContentModel::Text);
    b.content(subject, ContentModel::Text);
    b.attr(teacher, "name");
    b.attr(subject, "taught_by");
    b.build("teachers").expect("D1 is well-formed")
}

/// Builds the non-satisfiable DTD `D2` from Section 1 of the paper:
/// `<!ELEMENT db (foo)> <!ELEMENT foo (foo)>` has no finite valid tree.
#[allow(clippy::disallowed_names)] // `foo` is the paper's own element name
pub fn example_d2() -> Dtd {
    let mut b = Dtd::builder();
    let db = b.elem("db");
    let foo = b.elem("foo");
    b.content(db, ContentModel::Element(foo));
    b.content(foo, ContentModel::Element(foo));
    b.build("db").expect("D2 is well-formed")
}

/// Builds the school DTD `D3` from Section 2.2 of the paper.
pub fn example_d3() -> Dtd {
    let mut b = Dtd::builder();
    let school = b.elem("school");
    let course = b.elem("course");
    let student = b.elem("student");
    let enroll = b.elem("enroll");
    let name = b.elem("name");
    let subject = b.elem("subject");
    b.content(
        school,
        ContentModel::seq_all([
            ContentModel::star(ContentModel::Element(course)),
            ContentModel::star(ContentModel::Element(student)),
            ContentModel::star(ContentModel::Element(enroll)),
        ]),
    );
    b.content(course, ContentModel::Element(subject));
    b.content(student, ContentModel::Element(name));
    b.content(enroll, ContentModel::Text);
    b.content(name, ContentModel::Text);
    b.content(subject, ContentModel::Text);
    b.attr(course, "dept");
    b.attr(course, "course_no");
    b.attr(student, "student_id");
    b.attr(enroll, "student_id");
    b.attr(enroll, "dept");
    b.attr(enroll, "course_no");
    b.build("school").expect("D3 is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_interns_names() {
        let mut b = Dtd::builder();
        let a = b.elem("a");
        let a2 = b.elem("a");
        assert_eq!(a, a2);
        let x = b.attr(a, "x");
        let x2 = b.attr(a, "x");
        assert_eq!(x, x2);
        let dtd = b.build("a").unwrap();
        assert_eq!(dtd.num_types(), 1);
        assert_eq!(dtd.num_attrs(), 1);
        assert_eq!(dtd.attrs_of(a), &[x]);
        assert!(dtd.has_attr(a, x));
    }

    #[test]
    fn build_rejects_unknown_root() {
        let mut b = Dtd::builder();
        b.elem("a");
        assert!(matches!(b.build("nope"), Err(DtdError::UnknownType(_))));
    }

    #[test]
    fn missing_content_defaults_to_empty() {
        let mut b = Dtd::builder();
        let a = b.elem("a");
        let dtd = b.build("a").unwrap();
        assert_eq!(dtd.content(a), &ContentModel::Epsilon);
    }

    #[test]
    fn d1_shape() {
        let d1 = example_d1();
        assert_eq!(d1.num_types(), 5);
        assert_eq!(d1.num_attrs(), 2);
        let teacher = d1.type_by_name("teacher").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        assert!(d1.has_attr(teacher, name));
        assert_eq!(d1.type_name(d1.root()), "teachers");
        let rendered = d1.render();
        assert!(rendered.contains("<!ELEMENT teachers"));
        assert!(rendered.contains("<!ATTLIST teacher name CDATA #REQUIRED>"));
    }

    #[test]
    fn d3_attribute_sharing() {
        let d3 = example_d3();
        // student_id is shared between student and enroll.
        let student = d3.type_by_name("student").unwrap();
        let enroll = d3.type_by_name("enroll").unwrap();
        let sid = d3.attr_by_name("student_id").unwrap();
        assert!(d3.has_attr(student, sid));
        assert!(d3.has_attr(enroll, sid));
        // A3 = {student_id, course_no, dept} in the paper.
        assert_eq!(d3.num_attrs(), 3);
    }

    #[test]
    fn size_accounts_for_content() {
        let d2 = example_d2();
        assert!(d2.size() >= 4);
    }
}
