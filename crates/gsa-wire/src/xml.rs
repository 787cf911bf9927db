//! A small XML document model, writer and parser.
//!
//! This is deliberately a subset of XML 1.0 — exactly what the gsalert
//! protocols need: elements, attributes, character data, comments, the five
//! predefined entities, and self-closing tags. It does not support
//! namespaces-as-semantics (prefixes are kept as part of names, as the
//! original Greenstone messaging effectively does), DTDs, CDATA sections or
//! processing instructions other than a leading XML declaration.

use crate::binary::{ByteCount, MAX_DEPTH};
use crate::payload::Payload;
use std::error::Error;
use std::fmt;

/// A node inside an element: either a child element or a run of text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// A child element.
    Element(XmlElement),
    /// Character data (already unescaped).
    Text(String),
}

/// An XML element: name, attributes and child nodes.
///
/// Attributes preserve insertion order, which keeps serialized messages
/// deterministic.
///
/// # Examples
///
/// ```
/// use gsa_wire::XmlElement;
///
/// let el = XmlElement::new("event")
///     .with_attr("kind", "collection-rebuilt")
///     .with_child(XmlElement::new("origin").with_text("Hamilton.D"));
/// assert_eq!(el.attr("kind"), Some("collection-rebuilt"));
/// assert_eq!(el.child("origin").unwrap().text(), "Hamilton.D");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlElement {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<XmlNode>,
}

impl XmlElement {
    /// Creates an empty element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        XmlElement {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The tag name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pre-allocates room for `additional` more child nodes; codecs that
    /// know the child count up front use this to avoid regrowing the
    /// node vector while encoding.
    #[inline]
    pub fn reserve_children(&mut self, additional: usize) {
        self.children.reserve(additional);
    }

    /// Sets an attribute, replacing an existing one of the same name.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attrs.push((name, value));
        }
    }

    /// Builder-style [`XmlElement::set_attr`].
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Looks up an attribute value by name.
    #[inline]
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Iterates over `(name, value)` attribute pairs in document order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Appends a child element.
    #[inline]
    pub fn push_child(&mut self, child: XmlElement) {
        self.children.push(XmlNode::Element(child));
    }

    /// Builder-style [`XmlElement::push_child`].
    pub fn with_child(mut self, child: XmlElement) -> Self {
        self.push_child(child);
        self
    }

    /// Appends a text node.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(XmlNode::Text(text.into()));
    }

    /// Builder-style [`XmlElement::push_text`].
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.push_text(text);
        self
    }

    /// All child nodes in document order.
    #[inline]
    pub fn nodes(&self) -> &[XmlNode] {
        &self.children
    }

    /// Iterates over child *elements* only.
    pub fn elements(&self) -> impl Iterator<Item = &XmlElement> {
        self.children.iter().filter_map(|n| match n {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        })
    }

    /// The first child element with the given tag name.
    pub fn child(&self, name: &str) -> Option<&XmlElement> {
        self.elements().find(|e| e.name == name)
    }

    /// All child elements with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> {
        self.elements().filter(move |e| e.name == name)
    }

    /// The concatenated text content of this element (direct text children
    /// only, not recursive).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for node in &self.children {
            if let XmlNode::Text(t) = node {
                out.push_str(t);
            }
        }
        out
    }

    /// Convenience: the text of the first child element named `name`.
    pub fn child_text(&self, name: &str) -> Option<String> {
        self.child(name).map(XmlElement::text)
    }

    /// Serializes this element (and subtree) to a compact XML string.
    pub fn to_xml_string(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    /// Serializes with an `<?xml ...?>` declaration, as sent on the wire.
    pub fn to_document_string(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut impl Sink) {
        out.put("<");
        out.put(&self.name);
        for (n, v) in &self.attrs {
            out.put(" ");
            out.put(n);
            out.put("=\"");
            escape_into(v, true, out);
            out.put("\"");
        }
        if self.children.is_empty() {
            out.put("/>");
            return;
        }
        out.put(">");
        for node in &self.children {
            match node {
                XmlNode::Element(e) => e.write_into(out),
                XmlNode::Text(t) => escape_into(t, false, out),
            }
        }
        out.put("</");
        out.put(&self.name);
        out.put(">");
    }

    /// The size in bytes of the serialized form; used by the simulator's
    /// bandwidth accounting. Runs the serialiser into a byte counter, so
    /// it is exact by construction and builds no string.
    pub fn wire_size(&self) -> usize {
        let mut count = ByteCount(0);
        self.write_into(&mut count);
        count.0
    }
}

/// Where the serialiser writes: a string, or a counter of the bytes a
/// string would have received.
trait Sink {
    fn put(&mut self, s: &str);
}

impl Sink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

impl Sink for ByteCount {
    fn put(&mut self, s: &str) {
        self.0 += s.len();
    }
}

impl fmt::Display for XmlElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml_string())
    }
}

fn escape_into(s: &str, in_attr: bool, out: &mut impl Sink) {
    // The escaped characters are ASCII, so slicing around them stays on
    // character boundaries.
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'&' => "&amp;",
            b'"' if in_attr => "&quot;",
            _ => continue,
        };
        out.put(&s[plain..i]);
        out.put(entity);
        plain = i + 1;
    }
    out.put(&s[plain..]);
}

/// Where a message puts its XML form: into the element under
/// construction ([`XmlElement`]) or into a count of the bytes the writer
/// would emit for that element ([`XmlLen`]). A message describes its
/// element once, as calls on this trait, and is both encoded and sized
/// by that description.
pub trait XmlPut: Sized {
    /// Adds the attribute `name="value"`.
    fn attr(&mut self, name: &str, value: &str);

    /// Adds an attribute ahead of those already put (`gds:summary`
    /// writes its `wildcard` flag before the sender and version).
    fn attr_first(&mut self, name: &str, value: &str) {
        self.attr(name, value);
    }

    /// Adds an unsigned number, in decimal, as the attribute `name`.
    fn num_attr(&mut self, name: &str, value: u64) {
        self.attr(name, &value.to_string());
    }

    /// Adds a text node.
    fn text(&mut self, text: &str);

    /// Adds the child element `name`, filled by `fill`.
    fn child(&mut self, name: &str, fill: impl FnOnce(&mut Self));

    /// Adds a payload's element as a child; its length is the one the
    /// payload memoises, so sizing a carrier never walks the payload.
    fn payload(&mut self, payload: &Payload);
}

impl XmlPut for XmlElement {
    fn attr(&mut self, name: &str, value: &str) {
        self.set_attr(name, value);
    }

    fn attr_first(&mut self, name: &str, value: &str) {
        self.attrs.insert(0, (name.to_owned(), value.to_owned()));
    }

    fn text(&mut self, text: &str) {
        self.push_text(text);
    }

    fn child(&mut self, name: &str, fill: impl FnOnce(&mut Self)) {
        let mut child = XmlElement::new(name);
        fill(&mut child);
        self.push_child(child);
    }

    fn payload(&mut self, payload: &Payload) {
        self.push_child(payload.to_xml_element());
    }
}

/// The [`XmlPut`] that counts: the bytes of the attributes and of the
/// child nodes put so far. The writer is compact — no whitespace, no
/// declaration — so an element's size is exactly the sum of its parts.
#[derive(Debug, Default)]
pub struct XmlLen {
    attrs: usize,
    content: usize,
    nodes: usize,
}

impl XmlLen {
    /// The serialized size of the element called `name` holding what was
    /// put: `<name attrs/>`, or `<name attrs>content</name>` once it has
    /// a child node (an empty text node is one).
    #[inline]
    pub fn element(&self, name: &str) -> usize {
        match self.nodes {
            0 => name.len() + 3 + self.attrs,
            _ => 2 * name.len() + 5 + self.attrs + self.content,
        }
    }
}

impl XmlPut for XmlLen {
    #[inline]
    fn attr(&mut self, name: &str, value: &str) {
        let mut count = ByteCount(name.len() + 4);
        escape_into(value, true, &mut count);
        self.attrs += count.0;
    }

    #[inline]
    fn num_attr(&mut self, name: &str, value: u64) {
        // Digits need no escaping, and no string to count them.
        self.attrs += name.len() + 4 + value.checked_ilog10().map_or(1, |d| d as usize + 1);
    }

    fn text(&mut self, text: &str) {
        let mut count = ByteCount(0);
        escape_into(text, false, &mut count);
        self.content += count.0;
        self.nodes += 1;
    }

    fn child(&mut self, name: &str, fill: impl FnOnce(&mut Self)) {
        let mut child = XmlLen::default();
        fill(&mut child);
        self.content += child.element(name);
        self.nodes += 1;
    }

    #[inline]
    fn payload(&mut self, payload: &Payload) {
        self.content += payload.xml_size();
        self.nodes += 1;
    }
}

/// An error produced while parsing an XML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    message: String,
    /// Byte offset into the input at which the error was detected.
    offset: usize,
}

impl WireError {
    fn new(message: impl Into<String>, offset: usize) -> Self {
        WireError {
            message: message.into(),
            offset,
        }
    }

    /// Byte offset into the input at which the error was detected.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Creates an error describing a malformed message at the codec layer
    /// (well-formed XML whose content is not a valid protocol message).
    pub fn malformed(message: impl Into<String>) -> Self {
        WireError::new(message, 0)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Error for WireError {}

/// Parses a complete XML document into its root element.
///
/// Accepts an optional leading `<?xml ...?>` declaration, comments and
/// whitespace around the root element.
///
/// # Errors
///
/// Returns [`WireError`] when the input is not well-formed in the supported
/// subset (mismatched tags, bad attribute syntax, trailing garbage, unknown
/// entities, ...) or nests elements deeper than [`MAX_DEPTH`].
pub fn parse_document(input: &str) -> Result<XmlElement, WireError> {
    let mut parser = Parser {
        input: input.as_bytes(),
        pos: 0,
    };
    parser.skip_prolog()?;
    let root = parser.parse_element(0)?;
    parser.skip_misc()?;
    if parser.pos != parser.input.len() {
        return Err(WireError::new("trailing content after root element", parser.pos));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_prolog(&mut self) -> Result<(), WireError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            match self.input[self.pos..]
                .windows(2)
                .position(|w| w == b"?>")
            {
                Some(rel) => self.bump(rel + 2),
                None => return Err(WireError::new("unterminated XML declaration", self.pos)),
            }
        }
        self.skip_misc()
    }

    /// Skips whitespace and comments between markup.
    fn skip_misc(&mut self) -> Result<(), WireError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_comment()?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_comment(&mut self) -> Result<(), WireError> {
        debug_assert!(self.starts_with("<!--"));
        let start = self.pos;
        self.bump(4);
        match self.input[self.pos..].windows(3).position(|w| w == b"-->") {
            Some(rel) => {
                self.bump(rel + 3);
                Ok(())
            }
            None => Err(WireError::new("unterminated comment", start)),
        }
    }

    fn parse_name(&mut self) -> Result<String, WireError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ok = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(WireError::new("expected a name", self.pos));
        }
        // Names are restricted to ASCII above, so this is always valid UTF-8.
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    /// Parses the element at the cursor, which `depth` open elements
    /// enclose.
    fn parse_element(&mut self, depth: usize) -> Result<XmlElement, WireError> {
        if self.peek() != Some(b'<') {
            return Err(WireError::new("expected '<'", self.pos));
        }
        if depth == MAX_DEPTH {
            let message = format!("elements nested deeper than {MAX_DEPTH} levels");
            return Err(WireError::new(message, self.pos));
        }
        self.bump(1);
        let name = self.parse_name()?;
        let mut element = XmlElement::new(name);

        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    if !self.starts_with("/>") {
                        return Err(WireError::new("expected '/>'", self.pos));
                    }
                    self.bump(2);
                    return Ok(element);
                }
                Some(b'>') => {
                    self.bump(1);
                    break;
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(WireError::new("expected '=' after attribute name", self.pos));
                    }
                    self.bump(1);
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(WireError::new("expected quoted attribute value", self.pos)),
                    };
                    self.bump(1);
                    let value_start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == quote {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(WireError::new("unterminated attribute value", value_start));
                    }
                    let raw = &self.input[value_start..self.pos];
                    self.bump(1);
                    let value = unescape(raw, value_start)?;
                    element.set_attr(attr_name, value);
                }
                None => return Err(WireError::new("unexpected end of input in tag", self.pos)),
            }
        }

        // Content.
        loop {
            if self.starts_with("<!--") {
                self.skip_comment()?;
                continue;
            }
            if self.starts_with("</") {
                self.bump(2);
                let close = self.parse_name()?;
                if close != element.name {
                    return Err(WireError::new(
                        format!("mismatched closing tag </{}> for <{}>", close, element.name),
                        self.pos,
                    ));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(WireError::new("expected '>' after closing tag name", self.pos));
                }
                self.bump(1);
                return Ok(element);
            }
            match self.peek() {
                Some(b'<') => {
                    let child = self.parse_element(depth + 1)?;
                    element.push_child(child);
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let text = unescape(&self.input[start..self.pos], start)?;
                    // Pure inter-element whitespace is not significant for
                    // protocol messages; drop it so pretty-printed and
                    // compact forms parse identically.
                    if !text.trim().is_empty() {
                        element.push_text(text);
                    }
                }
                None => {
                    return Err(WireError::new(
                        format!("unexpected end of input inside <{}>", element.name),
                        self.pos,
                    ))
                }
            }
        }
    }
}

fn unescape(raw: &[u8], offset: usize) -> Result<String, WireError> {
    let s = std::str::from_utf8(raw)
        .map_err(|_| WireError::new("invalid UTF-8 in content", offset))?;
    if !s.contains('&') {
        return Ok(s.to_owned());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let end = rest
            .find(';')
            .ok_or_else(|| WireError::new("unterminated entity", offset))?;
        match &rest[..=end] {
            "&lt;" => out.push('<'),
            "&gt;" => out.push('>'),
            "&amp;" => out.push('&'),
            "&quot;" => out.push('"'),
            "&apos;" => out.push('\''),
            other => {
                return Err(WireError::new(format!("unknown entity {other}"), offset));
            }
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_special_characters() {
        let el = XmlElement::new("t")
            .with_attr("a", "x\"<&")
            .with_text("a<b&c>d");
        let s = el.to_xml_string();
        assert_eq!(s, "<t a=\"x&quot;&lt;&amp;\">a&lt;b&amp;c&gt;d</t>");
    }

    #[test]
    fn round_trip_with_escapes() {
        let el = XmlElement::new("t")
            .with_attr("a", "x\"<&'")
            .with_text("a<b&c>d");
        let back = parse_document(&el.to_document_string()).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn self_closing_tags() {
        let el = parse_document("<empty a='1'/>").unwrap();
        assert_eq!(el.name(), "empty");
        assert_eq!(el.attr("a"), Some("1"));
        assert!(el.nodes().is_empty());
        assert_eq!(el.to_xml_string(), "<empty a=\"1\"/>");
    }

    #[test]
    fn nested_structure() {
        let doc = "<a><b x='1'><c>hi</c></b><b x='2'/></a>";
        let el = parse_document(doc).unwrap();
        let bs: Vec<_> = el.children_named("b").collect();
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0].child_text("c"), Some("hi".into()));
        assert_eq!(bs[1].attr("x"), Some("2"));
    }

    #[test]
    fn comments_and_declaration_are_skipped() {
        let doc = "<?xml version=\"1.0\"?><!-- hi --><a><!-- inner -->x</a><!-- post -->";
        let el = parse_document(doc).unwrap();
        assert_eq!(el.text(), "x");
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let el = parse_document("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(el.nodes().len(), 2);
    }

    #[test]
    fn mismatched_tags_error() {
        let err = parse_document("<a><b></a></b>").unwrap_err();
        assert!(err.to_string().contains("mismatched"));
    }

    #[test]
    fn trailing_garbage_errors() {
        assert!(parse_document("<a/>junk").is_err());
    }

    #[test]
    fn unknown_entity_errors() {
        assert!(parse_document("<a>&bogus;</a>").is_err());
    }

    #[test]
    fn unterminated_inputs_error() {
        assert!(parse_document("<a>").is_err());
        assert!(parse_document("<a b=>").is_err());
        assert!(parse_document("<a b='x>").is_err());
        assert!(parse_document("<!-- never closed").is_err());
        assert!(parse_document("<?xml never closed").is_err());
    }

    #[test]
    fn set_attr_replaces() {
        let mut el = XmlElement::new("t");
        el.set_attr("k", "1");
        el.set_attr("k", "2");
        assert_eq!(el.attr("k"), Some("2"));
        assert_eq!(el.attrs().count(), 1);
    }

    #[test]
    fn apostrophe_attribute_quotes() {
        let el = parse_document("<a k='va\"lue'/>").unwrap();
        assert_eq!(el.attr("k"), Some("va\"lue"));
    }

    #[test]
    fn wire_size_matches_serialized_length() {
        let el = XmlElement::new("t").with_text("abc");
        assert_eq!(el.wire_size(), el.to_xml_string().len());
    }

    /// The same description run into both sinks: the counter says what
    /// the tree serialises to, escapes, empty text nodes and empty
    /// elements included.
    #[test]
    fn part_sizes_add_up_to_the_element_size() {
        fn describe(out: &mut impl XmlPut) {
            let value = "a<b>&\"c\" d\u{e9}";
            out.num_attr("id", u64::MAX);
            out.attr("origin", value);
            out.attr_first("flag", "true");
            out.child("target", |el| el.text(value));
            out.child("target", |el| el.text(""));
            out.child("empty", |_| {});
            out.child("nested", |el| el.child("leaf", |leaf| leaf.num_attr("n", 0)));
            out.text("tail & all");
        }
        let mut tree = XmlElement::new("gds:x");
        describe(&mut tree);
        let mut len = XmlLen::default();
        describe(&mut len);
        let text = tree.to_xml_string();
        assert!(text.starts_with("<gds:x flag=\"true\" id=\"18446744073709551615\" origin="));
        assert!(text.contains("<target></target><empty/><nested><leaf n=\"0\"/></nested>"));
        assert_eq!(len.element("gds:x"), text.len());
        assert_eq!(XmlLen::default().element("e"), "<e/>".len());
        for v in [0, 9, 10, 99, 100, 12_345] {
            let mut tree = XmlElement::new("e");
            tree.num_attr("seq", v);
            let mut len = XmlLen::default();
            len.num_attr("seq", v);
            assert_eq!(len.element("e"), tree.wire_size(), "seq = {v}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| "<a>".repeat(depth) + &"</a>".repeat(depth);
        assert!(parse_document(&nest(MAX_DEPTH)).is_ok());
        let err = parse_document(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
    }

    #[test]
    fn error_offset_is_reported() {
        let err = parse_document("junk").unwrap_err();
        assert_eq!(err.offset(), 0);
    }
}
