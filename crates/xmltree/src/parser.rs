//! A small XML document parser producing [`XmlTree`] values.
//!
//! The parser covers the fragment of XML corresponding to the paper's data
//! model: elements, single-valued string attributes, text content, comments
//! and processing-instruction/XML-declaration skipping.  Namespaces, CDATA
//! sections, entity definitions and references (beyond the five predefined
//! ones) are out of scope.  Element and attribute names are resolved against
//! a [`Dtd`] so the resulting tree is directly usable by the validator and
//! the constraint checker.
//!
//! Names, attribute values and character data are borrowed as slices of the
//! input and interned straight into the new tree's own value pool; a value
//! is copied to a temporary buffer only when it contains an entity
//! reference (`&`).  The node arena and the pool are reserved up front
//! from the input length, capped by the node budget, so a typical
//! document parses without regrowing either.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use xic_dtd::Dtd;
use xic_telemetry::{Counter, Histogram};

use crate::budget::{BudgetExceeded, ParseBudget, ParseError, ParseLimit};
use crate::error::XmlError;
use crate::pool::ValuePool;
use crate::tree::{NodeId, XmlTree};

/// Process-wide parse instruments, resolved once (registry name lookups
/// take a read lock; the hot path should not).
struct Instruments {
    docs: Arc<Counter>,
    bytes: Arc<Counter>,
    doc_ns: Arc<Histogram>,
}

fn instruments() -> &'static Instruments {
    static INSTRUMENTS: OnceLock<Instruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        let telemetry = xic_telemetry::global();
        Instruments {
            docs: telemetry.counter("parse.docs"),
            bytes: telemetry.counter("parse.bytes"),
            doc_ns: telemetry.histogram("parse.doc_ns"),
        }
    })
}

/// The arena and pool sizes reserved before parsing, estimated from the
/// input length for markup-dense documents (about 12 source bytes per
/// node, one element per four nodes, a distinct value per two nodes and
/// value text filling half the source).  A document that needs more grows
/// as usual; one that needs less wastes a bounded multiple of its length.
/// The node count is capped by [`ParseBudget::max_nodes`], so a document
/// the budget rejects never reserves more than the budget admits.
struct Reservation {
    nodes: usize,
    elements: usize,
    values: usize,
    value_bytes: usize,
}

impl Reservation {
    const BYTES_PER_NODE: usize = 12;

    fn for_input(len: usize, budget: &ParseBudget) -> Reservation {
        let nodes = (len / Self::BYTES_PER_NODE).min(budget.max_nodes.unwrap_or(usize::MAX));
        Reservation {
            nodes,
            elements: nodes / 4,
            values: nodes / 2,
            value_bytes: nodes * Self::BYTES_PER_NODE / 2,
        }
    }
}

/// Parses an XML document against a DTD.
///
/// Whitespace-only text between elements is discarded (it is never
/// meaningful in the paper's model); all other text is kept verbatim after
/// entity expansion, minus leading and trailing XML whitespace.
pub fn parse_document(input: &str, dtd: &Dtd) -> Result<XmlTree, XmlError> {
    parse_document_budgeted(input, dtd, &ParseBudget::UNLIMITED).map_err(|err| match err {
        ParseError::Xml(e) => e,
        // Statically dead: an unlimited budget never trips.  Mapped to a
        // syntax error rather than a panic so the contract "parsing never
        // panics" holds unconditionally.
        ParseError::Budget(b) => XmlError::Syntax {
            offset: 0,
            message: b.to_string(),
        },
    })
}

/// Parses a document under a [`ParseBudget`]: input size is checked before
/// parsing, node count and nesting depth as the tree grows, so a hostile
/// document costs at most its budget before rejection.
pub fn parse_document_budgeted(
    input: &str,
    dtd: &Dtd,
    budget: &ParseBudget,
) -> Result<XmlTree, ParseError> {
    let instruments = instruments();
    let timer = xic_telemetry::global().start_timer();
    let mut p = Parser {
        input,
        pos: 0,
        dtd,
        budget,
    };
    let parsed = (|| {
        if let Some(max) = budget.max_bytes {
            if input.len() > max {
                return Err(BudgetExceeded {
                    limit: ParseLimit::Bytes,
                    limit_value: max,
                    observed: input.len(),
                }
                .into());
            }
        }
        p.skip_prolog()?;
        let tree = p.parse_root()?;
        p.skip_misc();
        if !p.eof() {
            return Err(p.error("trailing content after the root element").into());
        }
        Ok(tree)
    })();
    instruments.docs.inc();
    instruments.bytes.add(input.len() as u64);
    if let Some(t) = timer {
        instruments.doc_ns.record_elapsed(t);
    }
    parsed
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    dtd: &'a Dtd,
    budget: &'a ParseBudget,
}

impl<'a> Parser<'a> {
    fn eof(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    /// Advances the cursor to the next `delimiter` byte and returns the
    /// input it passed over, or moves to the end of input and returns
    /// `None` if there is no such byte.  The delimiter is ASCII, and an
    /// ASCII byte is never part of a multi-byte UTF-8 sequence, so the
    /// slice ends on char boundaries.
    fn scan_to(&mut self, delimiter: u8) -> Option<&'a str> {
        let start = self.pos;
        let rest = &self.input.as_bytes()[start..];
        match rest.iter().position(|&b| b == delimiter) {
            Some(len) => {
                self.pos = start + len;
                Some(&self.input[start..self.pos])
            }
            None => {
                self.pos = self.input.len();
                None
            }
        }
    }

    fn error(&self, message: &str) -> XmlError {
        XmlError::Syntax {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, needle: &str) -> Result<(), XmlError> {
        match find(self.input.as_bytes(), self.pos, needle.as_bytes()) {
            Some(end) => {
                self.pos = end + needle.len();
                Ok(())
            }
            None => Err(self.error(&format!("unterminated construct, expected `{needle}`"))),
        }
    }

    /// Skips the XML declaration, DOCTYPE, comments and PIs before the root.
    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                // Skip a possibly-bracketed internal subset.
                let mut depth = 0usize;
                while let Some(b) = self.peek() {
                    self.pos += 1;
                    match b {
                        b'[' => depth += 1,
                        b']' => depth = depth.saturating_sub(1),
                        b'>' if depth == 0 => break,
                        _ => {}
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                if self.skip_until("-->").is_err() {
                    return;
                }
            } else if self.starts_with("<?") {
                if self.skip_until("?>").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        // Name bytes are ASCII, so both ends are char boundaries.
        Ok(&self.input[start..self.pos])
    }

    fn parse_root(&mut self) -> Result<XmlTree, ParseError> {
        self.skip_ws();
        if self.peek() != Some(b'<') {
            return Err(self.error("expected the root element").into());
        }
        self.pos += 1;
        let name = self.name()?;
        let ty = self
            .dtd
            .type_by_name(name)
            .ok_or_else(|| XmlError::UnknownElement(name.to_string()))?;
        self.check_depth(1)?;
        let reserve = Reservation::for_input(self.input.len(), self.budget);
        let mut tree = XmlTree::with_capacity(
            ty,
            reserve.nodes,
            reserve.elements,
            ValuePool::with_capacity(reserve.values, reserve.value_bytes),
        );
        let root = tree.root();
        self.check_nodes(&tree)?;
        let self_closing = self.parse_attributes(&mut tree, root, name)?;
        // Attributes are arena nodes too; re-check after parsing them.
        self.check_nodes(&tree)?;
        if !self_closing {
            self.parse_children(&mut tree, root, name)?;
        }
        Ok(tree)
    }

    /// Budget check: element nesting depth (the root element is depth 1).
    fn check_depth(&self, depth: usize) -> Result<(), BudgetExceeded> {
        match self.budget.max_depth {
            Some(max) if depth > max => Err(BudgetExceeded {
                limit: ParseLimit::Depth,
                limit_value: max,
                observed: depth,
            }),
            _ => Ok(()),
        }
    }

    /// Budget check: live tree nodes, called after every node creation.
    fn check_nodes(&self, tree: &XmlTree) -> Result<(), BudgetExceeded> {
        match self.budget.max_nodes {
            Some(max) if tree.num_nodes() > max => Err(BudgetExceeded {
                limit: ParseLimit::Nodes,
                limit_value: max,
                observed: tree.num_nodes(),
            }),
            _ => Ok(()),
        }
    }

    /// Takes the character data from the cursor up to the next `<` and adds
    /// it as a text node unless it is only whitespace, then re-checks the
    /// node budget (comments and PIs can split one element's text into
    /// arbitrarily many nodes, so text creation must count too).  Text that
    /// runs to the end of input is left for the caller's "unterminated
    /// element" error.
    fn text(&mut self, tree: &mut XmlTree, parent: NodeId) -> Result<(), BudgetExceeded> {
        let Some(text) = self.scan_to(b'<') else {
            return Ok(());
        };
        let text = text.trim_ascii();
        if text.is_empty() {
            return Ok(());
        }
        tree.add_text(parent, unescape(text));
        self.check_nodes(tree)
    }

    /// Parses attributes of the current element; returns `true` if the
    /// element was self-closing (`/>`).
    fn parse_attributes(
        &mut self,
        tree: &mut XmlTree,
        node: NodeId,
        elem_name: &str,
    ) -> Result<bool, XmlError> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(false);
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() == Some(b'>') {
                        self.pos += 1;
                        return Ok(true);
                    }
                    return Err(self.error("expected `>` after `/`"));
                }
                Some(_) => {
                    let attr_name = self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.error("expected `=` after attribute name"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let value = self.quoted()?;
                    let attr = self.dtd.attr_by_name(attr_name).ok_or_else(|| {
                        XmlError::UnknownAttribute {
                            element: elem_name.to_string(),
                            attribute: attr_name.to_string(),
                        }
                    })?;
                    tree.set_attr(node, attr, unescape(value));
                }
                None => return Err(self.error("unterminated start tag")),
            }
        }
    }

    fn quoted(&mut self) -> Result<&'a str, XmlError> {
        let quote = self
            .peek()
            .ok_or_else(|| self.error("expected a quoted value"))?;
        if quote != b'"' && quote != b'\'' {
            return Err(self.error("expected a quoted value"));
        }
        self.pos += 1;
        let value = self
            .scan_to(quote)
            .ok_or_else(|| self.error("unterminated attribute value"))?;
        self.pos += 1;
        Ok(value)
    }

    /// Parses the content (children and text) of an already-opened element
    /// and everything nested below it.
    ///
    /// Iterative on an explicit frame stack — one heap frame per open
    /// element instead of one call-stack frame — so nesting depth is
    /// bounded only by [`ParseBudget::max_depth`] policy (or the heap),
    /// never by stack overflow.  A 100k-deep document parses fine; see the
    /// `deeply_nested_document_parses_without_recursion` regression test.
    fn parse_children(
        &mut self,
        tree: &mut XmlTree,
        parent: NodeId,
        parent_name: &'a str,
    ) -> Result<(), ParseError> {
        // One open element: its node and its tag name (for end-tag
        // matching).
        let mut stack: Vec<(NodeId, &'a str)> = vec![(parent, parent_name)];
        while let Some(&(node, open_name)) = stack.last() {
            if self.eof() {
                return Err(self
                    .error(&format!("unterminated element `{open_name}`"))
                    .into());
            }
            if self.peek() != Some(b'<') {
                self.text(tree, node)?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("</") {
                self.pos += 2;
                let name = self.name()?;
                if name != open_name {
                    return Err(self
                        .error(&format!(
                            "mismatched end tag: expected `</{open_name}>`, found `</{name}>`"
                        ))
                        .into());
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.error("expected `>` in end tag").into());
                }
                self.pos += 1;
                stack.pop();
            } else {
                self.pos += 1;
                let name = self.name()?;
                let ty = self
                    .dtd
                    .type_by_name(name)
                    .ok_or_else(|| XmlError::UnknownElement(name.to_string()))?;
                // The child sits one level below the current frame whether
                // or not it self-closes, so depth is checked before it is
                // even allocated.
                self.check_depth(stack.len() + 1)?;
                let child = tree.add_element(node, ty);
                self.check_nodes(tree)?;
                let self_closing = self.parse_attributes(tree, child, name)?;
                // Attributes are arena nodes too; re-check after parsing them.
                self.check_nodes(tree)?;
                if !self_closing {
                    stack.push((child, name));
                }
            }
        }
        Ok(())
    }
}

fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Expands the five predefined XML entities; any other `&` is kept as is.
/// Borrows the input when it contains no `&` at all.
fn unescape(s: &str) -> Cow<'_, str> {
    const ENTITIES: [(&str, char); 5] = [
        ("&lt;", '<'),
        ("&gt;", '>'),
        ("&quot;", '"'),
        ("&apos;", '\''),
        ("&amp;", '&'),
    ];
    let Some(first) = s.find('&') else {
        return Cow::Borrowed(s);
    };
    let mut out = String::with_capacity(s.len());
    out.push_str(&s[..first]);
    let mut rest = &s[first..];
    while let Some(at) = rest.find('&') {
        out.push_str(&rest[..at]);
        rest = &rest[at..];
        let (len, ch) = ENTITIES
            .iter()
            .find(|(entity, _)| rest.starts_with(entity))
            .map_or((1, '&'), |&(entity, ch)| (entity.len(), ch));
        out.push(ch);
        rest = &rest[len..];
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::is_valid;
    use xic_dtd::example_d1;

    const DOC: &str = r#"<?xml version="1.0"?>
<!-- the Figure 1 document -->
<teachers>
  <teacher name="Joe">
    <teach>
      <subject taught_by="Joe">XML</subject>
      <subject taught_by="Joe">DB</subject>
    </teach>
    <research>Web DB</research>
  </teacher>
</teachers>"#;

    #[test]
    fn parses_the_figure1_document() {
        let dtd = example_d1();
        let tree = parse_document(DOC, &dtd).unwrap();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        let taught_by = dtd.attr_by_name("taught_by").unwrap();
        assert_eq!(tree.ext_count(teacher), 1);
        assert_eq!(tree.ext_count(subject), 2);
        let s = tree.ext(subject).next().unwrap();
        assert_eq!(tree.attr_value(s, taught_by), Some("Joe"));
        assert_eq!(tree.text_of(s), "XML");
        assert!(is_valid(&tree, &dtd));
    }

    #[test]
    fn self_closing_elements() {
        let mut b = xic_dtd::Dtd::builder();
        let r = b.elem("r");
        let item = b.elem("item");
        b.content(
            r,
            xic_dtd::ContentModel::star(xic_dtd::ContentModel::Element(item)),
        );
        b.attr(item, "id");
        let dtd = b.build("r").unwrap();
        let tree = parse_document(r#"<r><item id="1"/><item id="2"/></r>"#, &dtd).unwrap();
        assert_eq!(tree.ext_count(item), 2);
        assert!(is_valid(&tree, &dtd));
    }

    #[test]
    fn unknown_element_is_an_error() {
        let dtd = example_d1();
        let err = parse_document("<bogus/>", &dtd).unwrap_err();
        assert!(matches!(err, XmlError::UnknownElement(name) if name == "bogus"));
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let dtd = example_d1();
        let err = parse_document(r#"<teachers id="1"/>"#, &dtd).unwrap_err();
        assert!(matches!(err, XmlError::UnknownAttribute { .. }));
    }

    #[test]
    fn mismatched_tags_are_an_error() {
        let dtd = example_d1();
        let err = parse_document("<teachers><teacher></teachers></teacher>", &dtd).unwrap_err();
        assert!(matches!(err, XmlError::Syntax { .. }));
    }

    #[test]
    fn entities_are_expanded() {
        let dtd = text_dtd();
        let tree = parse_document(r#"<r label="a &amp; b">x &lt; y</r>"#, &dtd).unwrap();
        let label = dtd.attr_by_name("label").unwrap();
        assert_eq!(tree.attr_value(tree.root(), label), Some("a & b"));
        assert_eq!(tree.text_of(tree.root()), "x < y");
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let dtd = example_d1();
        let err = parse_document("<teachers></teachers><teachers/>", &dtd).unwrap_err();
        assert!(matches!(err, XmlError::Syntax { .. }));
    }

    /// A DTD with one text element `r` carrying one attribute `label`.
    fn text_dtd() -> xic_dtd::Dtd {
        let mut b = xic_dtd::Dtd::builder();
        let r = b.elem("r");
        b.content(r, xic_dtd::ContentModel::Text);
        b.attr(r, "label");
        b.build("r").unwrap()
    }

    #[test]
    fn non_ascii_text_and_attributes_are_kept_verbatim() {
        let dtd = text_dtd();
        let label = dtd.attr_by_name("label").unwrap();
        let text = "\u{a0}Café — 東京 😀\u{a0}";
        let value = "Zoë\u{a0}&\u{a0}Ñandú";
        let doc = format!("<r label=\"Zoë\u{a0}&amp;\u{a0}Ñandú\">\n  {text}\n</r>");
        let tree = parse_document(&doc, &dtd).unwrap();
        // XML whitespace around the text is trimmed; a no-break space is
        // not XML whitespace and stays.
        assert_eq!(tree.text_of(tree.root()), text);
        assert_eq!(tree.attr_value(tree.root(), label), Some(value));
        // And the values survive a write/parse round trip.
        let reparsed = parse_document(&crate::writer::write_document(&tree, &dtd), &dtd).unwrap();
        assert_eq!(reparsed.text_of(reparsed.root()), text);
        assert_eq!(reparsed.attr_value(reparsed.root(), label), Some(value));
    }

    #[test]
    fn unescape_borrows_unless_an_entity_is_present() {
        assert!(matches!(unescape("plain é"), Cow::Borrowed("plain é")));
        assert_eq!(
            unescape("&lt;&gt;&quot;&apos;&amp;lt; & &bogus; é&amp;"),
            "<>\"'&lt; & &bogus; é&"
        );
    }

    /// A DTD with one recursive element `<!ELEMENT n (n*)>`.
    fn recursive_dtd() -> xic_dtd::Dtd {
        let mut b = xic_dtd::Dtd::builder();
        let n = b.elem("n");
        b.content(
            n,
            xic_dtd::ContentModel::star(xic_dtd::ContentModel::Element(n)),
        );
        b.build("n").unwrap()
    }

    #[test]
    fn deeply_nested_document_parses_without_recursion() {
        // 100k-deep nesting: the recursive parser this replaced overflowed
        // the call stack here; the explicit frame stack must not.
        const DEPTH: usize = 100_000;
        let doc = format!("{}{}", "<n>".repeat(DEPTH), "</n>".repeat(DEPTH));
        let dtd = recursive_dtd();
        let tree = parse_document(&doc, &dtd).unwrap();
        assert_eq!(tree.num_nodes(), DEPTH);
    }

    #[test]
    fn depth_budget_rejects_deep_documents() {
        use crate::budget::{ParseBudget, ParseError, ParseLimit};
        let dtd = recursive_dtd();
        let doc = format!("{}{}", "<n>".repeat(64), "</n>".repeat(64));
        let budget = ParseBudget {
            max_depth: Some(16),
            ..ParseBudget::UNLIMITED
        };
        let err = parse_document_budgeted(&doc, &dtd, &budget).unwrap_err();
        match err {
            ParseError::Budget(b) => {
                assert_eq!(b.limit, ParseLimit::Depth);
                assert_eq!(b.limit_value, 16);
                assert_eq!(b.observed, 17);
            }
            other => panic!("expected a depth budget rejection, got {other:?}"),
        }
        // At the exact bound the document is accepted.
        let exact = ParseBudget {
            max_depth: Some(64),
            ..ParseBudget::UNLIMITED
        };
        assert!(parse_document_budgeted(&doc, &dtd, &exact).is_ok());
    }

    #[test]
    fn node_budget_is_exact() {
        use crate::budget::{ParseBudget, ParseError, ParseLimit};
        let dtd = example_d1();
        let tree = parse_document(DOC, &dtd).unwrap();
        let n = tree.num_nodes();
        let accept = ParseBudget {
            max_nodes: Some(n),
            ..ParseBudget::UNLIMITED
        };
        assert!(parse_document_budgeted(DOC, &dtd, &accept).is_ok());
        let reject = ParseBudget {
            max_nodes: Some(n - 1),
            ..ParseBudget::UNLIMITED
        };
        let err = parse_document_budgeted(DOC, &dtd, &reject).unwrap_err();
        assert!(
            matches!(err, ParseError::Budget(b) if b.limit == ParseLimit::Nodes),
            "expected a node budget rejection, got {err:?}"
        );
    }

    #[test]
    fn reservation_scales_with_input_and_stops_at_the_node_budget() {
        use crate::budget::ParseBudget;
        let open = Reservation::for_input(1 << 20, &ParseBudget::UNLIMITED);
        assert_eq!(open.nodes, (1 << 20) / Reservation::BYTES_PER_NODE);
        assert!(open.elements <= open.nodes && open.values <= open.nodes);
        assert!(open.value_bytes <= 1 << 20);
        let capped = Reservation::for_input(
            1 << 20,
            &ParseBudget {
                max_nodes: Some(10),
                ..ParseBudget::UNLIMITED
            },
        );
        assert_eq!(capped.nodes, 10);
        assert!(capped.elements <= 10 && capped.values <= 10);
        assert!(capped.value_bytes <= 10 * Reservation::BYTES_PER_NODE);
        let empty = Reservation::for_input(0, &ParseBudget::UNLIMITED);
        assert_eq!(
            (empty.nodes, empty.elements, empty.values, empty.value_bytes),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn byte_budget_rejects_before_parsing() {
        use crate::budget::{ParseBudget, ParseError, ParseLimit};
        let dtd = example_d1();
        let budget = ParseBudget {
            max_bytes: Some(8),
            ..ParseBudget::UNLIMITED
        };
        let err = parse_document_budgeted(DOC, &dtd, &budget).unwrap_err();
        match err {
            ParseError::Budget(b) => {
                assert_eq!(b.limit, ParseLimit::Bytes);
                assert_eq!(b.observed, DOC.len());
                assert_eq!(b.limit.name(), "max_doc_bytes");
            }
            other => panic!("expected a byte budget rejection, got {other:?}"),
        }
    }

    #[test]
    fn doctype_and_comments_are_skipped() {
        let dtd = example_d1();
        let doc = r#"<!DOCTYPE teachers [ <!ELEMENT teachers (teacher+)> ]>
            <!-- prolog comment -->
            <teachers></teachers>"#;
        let tree = parse_document(doc, &dtd).unwrap();
        assert_eq!(tree.num_nodes(), 1);
    }
}
