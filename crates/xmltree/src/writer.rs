//! Serialisation of [`XmlTree`] values back to XML text.

use xic_dtd::Dtd;

use crate::tree::{NodeId, NodeLabel, XmlTree};

/// Serialisation options.
#[derive(Debug, Clone)]
pub struct WriteOptions {
    /// Indentation string per nesting level (empty for compact output).
    pub indent: String,
    /// Whether to emit an XML declaration.
    pub declaration: bool,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            indent: "  ".to_string(),
            declaration: true,
        }
    }
}

/// Serialises a tree to text with default options.
pub fn write_document(tree: &XmlTree, dtd: &Dtd) -> String {
    write_document_with(tree, dtd, &WriteOptions::default())
}

/// Serialises a tree to text.
pub fn write_document_with(tree: &XmlTree, dtd: &Dtd, options: &WriteOptions) -> String {
    let mut out = String::new();
    if options.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    }
    write_element(tree, dtd, tree.root(), 0, options, &mut out);
    out
}

fn write_element(
    tree: &XmlTree,
    dtd: &Dtd,
    node: NodeId,
    depth: usize,
    options: &WriteOptions,
    out: &mut String,
) {
    let NodeLabel::Element(ty) = tree.label(node) else {
        return;
    };
    let pretty = !options.indent.is_empty();
    if pretty {
        for _ in 0..depth {
            out.push_str(&options.indent);
        }
    }
    out.push('<');
    out.push_str(dtd.type_name(ty));
    for &(attr, attr_node) in tree.attributes(node) {
        out.push(' ');
        out.push_str(dtd.attr_name(attr));
        out.push_str("=\"");
        out.push_str(&escape(tree.value(attr_node).unwrap_or("")));
        out.push('"');
    }
    let children = tree.children(node);
    if children.is_empty() {
        out.push_str("/>");
        if pretty {
            out.push('\n');
        }
        return;
    }
    out.push('>');
    // Two adjacent text siblings are kept apart by an empty comment: the
    // parser ends a text node at a comment, so a reparse yields two nodes
    // again instead of one merged one.
    let is_text = |i: usize| matches!(tree.label(children[i]), NodeLabel::Text);
    let follows_text = |i: usize| i > 0 && is_text(i - 1);
    // If the element has only text children, keep them inline.
    if (0..children.len()).all(is_text) {
        for (i, &c) in children.iter().enumerate() {
            if follows_text(i) {
                out.push_str(TEXT_SEPARATOR);
            }
            out.push_str(&escape(tree.value(c).unwrap_or("")));
        }
    } else {
        if pretty {
            out.push('\n');
        }
        for (i, &c) in children.iter().enumerate() {
            match tree.label(c) {
                NodeLabel::Element(_) => {
                    write_element(tree, dtd, c, depth + 1, options, out);
                }
                NodeLabel::Text => {
                    if pretty {
                        for _ in 0..=depth {
                            out.push_str(&options.indent);
                        }
                    }
                    if follows_text(i) {
                        out.push_str(TEXT_SEPARATOR);
                    }
                    out.push_str(&escape(tree.value(c).unwrap_or("")));
                    if pretty {
                        out.push('\n');
                    }
                }
                NodeLabel::Attribute(_) => {}
            }
        }
        if pretty {
            for _ in 0..depth {
                out.push_str(&options.indent);
            }
        }
    }
    out.push_str("</");
    out.push_str(dtd.type_name(ty));
    out.push('>');
    if pretty {
        out.push('\n');
    }
}

/// Written between two adjacent text siblings (see [`write_element`]).
const TEXT_SEPARATOR: &str = "<!---->";

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;
    use xic_dtd::example_d1;

    fn sample(dtd: &Dtd) -> XmlTree {
        let teachers = dtd.type_by_name("teachers").unwrap();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let teach = dtd.type_by_name("teach").unwrap();
        let research = dtd.type_by_name("research").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let taught_by = dtd.attr_by_name("taught_by").unwrap();
        let mut t = XmlTree::new(teachers);
        let te = t.add_element(t.root(), teacher);
        t.set_attr(te, name, "Joe & Sue");
        let th = t.add_element(te, teach);
        for s_name in ["X<ML", "DB"] {
            let s = t.add_element(th, subject);
            t.set_attr(s, taught_by, "Joe & Sue");
            t.add_text(s, s_name);
        }
        let r = t.add_element(te, research);
        t.add_text(r, "Web DB");
        t
    }

    #[test]
    fn round_trip_through_text() {
        let dtd = example_d1();
        let tree = sample(&dtd);
        let text = write_document(&tree, &dtd);
        let reparsed = parse_document(&text, &dtd).unwrap();
        assert_eq!(reparsed.num_nodes(), tree.num_nodes());
        let subject = dtd.type_by_name("subject").unwrap();
        let taught_by = dtd.attr_by_name("taught_by").unwrap();
        // ext(τ.l) is a set of per-tree interned symbols; resolve both sides
        // to strings before comparing across the two pools.
        let resolved = |t: &crate::tree::XmlTree| {
            t.ext_attr(subject, taught_by)
                .into_iter()
                .map(|id| t.resolve(id).to_string())
                .collect::<std::collections::HashSet<_>>()
        };
        assert_eq!(resolved(&reparsed), resolved(&tree));
        assert_eq!(
            reparsed.text_of(reparsed.ext(subject).next().unwrap()),
            "X<ML"
        );
    }

    #[test]
    fn compact_output_has_no_newlines() {
        let dtd = example_d1();
        let tree = sample(&dtd);
        let text = write_document_with(
            &tree,
            &dtd,
            &WriteOptions {
                indent: String::new(),
                declaration: false,
            },
        );
        assert!(!text.contains('\n'));
        assert!(text.starts_with("<teachers>"));
    }

    #[test]
    fn empty_elements_are_self_closed() {
        let mut b = xic_dtd::Dtd::builder();
        let r = b.elem("r");
        b.content(r, xic_dtd::ContentModel::Epsilon);
        let dtd = b.build("r").unwrap();
        let tree = XmlTree::new(r);
        let text = write_document_with(
            &tree,
            &dtd,
            &WriteOptions {
                indent: String::new(),
                declaration: false,
            },
        );
        assert_eq!(text, "<r/>");
    }

    #[test]
    fn adjacent_texts_round_trip_node_for_node() {
        let dtd = example_d1();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let research = dtd.type_by_name("research").unwrap();
        // Two adjacent texts alone (the inline branch), and two adjacent
        // texts next to an element (the mixed branch).
        let mut t = XmlTree::new(dtd.type_by_name("teachers").unwrap());
        let te = t.add_element(t.root(), teacher);
        let r = t.add_element(te, research);
        t.add_text(r, "Web");
        t.add_text(r, "DB");
        t.add_text(te, "one");
        t.add_text(te, "two");
        let texts = |t: &XmlTree, node: NodeId| -> Vec<String> {
            t.children(node)
                .iter()
                .filter_map(|&c| match t.label(c) {
                    NodeLabel::Text => t.value(c).map(str::to_string),
                    _ => None,
                })
                .collect()
        };
        for indent in ["", "  "] {
            let options = WriteOptions {
                indent: indent.to_string(),
                declaration: false,
            };
            let text = write_document_with(&t, &dtd, &options);
            let back = parse_document(&text, &dtd).unwrap();
            assert_eq!(back.num_nodes(), t.num_nodes(), "{text}");
            let back_te = back.children(back.root())[0];
            let back_r = back.children(back_te)[0];
            assert_eq!(texts(&back, back_r), ["Web", "DB"], "{text}");
            assert_eq!(texts(&back, back_te), ["one", "two"], "{text}");
            // Node for node: the serialization of the reparse is identical.
            assert_eq!(write_document_with(&back, &dtd, &options), text);
        }
    }

    #[test]
    fn declaration_toggle() {
        let dtd = example_d1();
        let tree = sample(&dtd);
        assert!(write_document(&tree, &dtd).starts_with("<?xml"));
    }
}
