//! Attributes, micro-level values and predicates.

use gsa_store::Query;
use gsa_types::{CollectionId, DocSummary, Event};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// The attribute side of a predicate: which part of an event (or of a
/// document inside an event) the value is matched against.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProfileAttr {
    /// The host part of the event's originating collection.
    Host,
    /// The originating collection (`host.name` notation).
    Collection,
    /// The event kind (`collection-rebuilt`, `documents-added`, ...).
    Kind,
    /// A document's id.
    DocId,
    /// A document's text excerpt.
    Text,
    /// A document metadata key (e.g. `dc.Title`).
    Meta(String),
}

impl ProfileAttr {
    /// The textual name used by the profile syntax and wire format.
    pub fn name(&self) -> &str {
        match self {
            ProfileAttr::Host => "host",
            ProfileAttr::Collection => "collection",
            ProfileAttr::Kind => "kind",
            ProfileAttr::DocId => "doc",
            ProfileAttr::Text => "text",
            ProfileAttr::Meta(key) => key,
        }
    }

    /// Parses an attribute name (anything unreserved is a metadata key).
    pub fn parse(name: &str) -> ProfileAttr {
        match name {
            "host" => ProfileAttr::Host,
            "collection" => ProfileAttr::Collection,
            "kind" => ProfileAttr::Kind,
            "doc" => ProfileAttr::DocId,
            "text" => ProfileAttr::Text,
            other => ProfileAttr::Meta(other.to_string()),
        }
    }

    /// Whether this attribute reads from the per-document payload (rather
    /// than the event envelope).
    pub fn is_doc_attr(&self) -> bool {
        matches!(
            self,
            ProfileAttr::DocId | ProfileAttr::Text | ProfileAttr::Meta(_)
        )
    }

    /// Visits the attribute's values in the given (event, document)
    /// context until `accept` returns `true`, and returns whether it did.
    /// Document attributes have no values without a document; metadata
    /// may have several. Nothing is collected on the way — only
    /// `collection` has to compose its `host.name` string.
    pub fn any_value(
        &self,
        event: &Event,
        doc: Option<&DocSummary>,
        mut accept: impl FnMut(&str) -> bool,
    ) -> bool {
        match self {
            ProfileAttr::Host => accept(event.origin.host().as_str()),
            ProfileAttr::Collection => accept(&event.origin.to_string()),
            ProfileAttr::Kind => accept(event.kind.as_str()),
            ProfileAttr::DocId => doc.is_some_and(|d| accept(d.doc.as_str())),
            ProfileAttr::Text => doc.is_some_and(|d| accept(&d.excerpt)),
            ProfileAttr::Meta(key) => {
                doc.is_some_and(|d| d.metadata.all(key).iter().any(|v| accept(v)))
            }
        }
    }
}

impl fmt::Display for ProfileAttr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A wildcard pattern: literal segments separated by `*` (which matches
/// any, possibly empty, substring). Matching is case-insensitive.
///
/// # Examples
///
/// ```
/// use gsa_profile::Wildcard;
/// let w = Wildcard::new("digital*lib*");
/// assert!(w.matches("Digital Libraries"));
/// assert!(!w.matches("library digital")); // order matters
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Wildcard {
    pattern: String,
}

impl Wildcard {
    /// Creates a pattern. `*` is the only metacharacter.
    pub fn new(pattern: impl Into<String>) -> Self {
        let mut pattern = pattern.into();
        // ASCII lowercases in place, as `to_lowercase` would.
        if pattern.is_ascii() {
            pattern.make_ascii_lowercase();
        } else {
            pattern = pattern.to_lowercase();
        }
        Wildcard { pattern }
    }

    /// The (lowercased) pattern text.
    pub fn as_str(&self) -> &str {
        &self.pattern
    }

    /// The literal segments between the `*`s, in order (lowercased; some
    /// may be empty). A value the pattern [`matches`](Self::matches)
    /// contains every one of them once lowercased, which is what lets a
    /// filter index key a pattern on a piece of a segment.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.pattern.split('*')
    }

    /// Tests `value` against the pattern (case-insensitive).
    ///
    /// ASCII inputs (the overwhelmingly common case for hosts, ids and
    /// titles) are matched byte-wise with ASCII case folding and no
    /// allocation; anything else falls back to the unicode path.
    pub fn matches(&self, value: &str) -> bool {
        if self.pattern.is_ascii() && value.is_ascii() {
            self.matches_ascii(value.as_bytes())
        } else {
            self.matches_unicode(&value.to_lowercase())
        }
    }

    /// Allocation-free matcher; `self.pattern` is lowercase already, the
    /// value is folded byte by byte.
    fn matches_ascii(&self, value: &[u8]) -> bool {
        let pat = self.pattern.as_bytes();
        let Some(star) = pat.iter().position(|&b| b == b'*') else {
            return eq_ignore_ascii(value, pat);
        };
        let first = &pat[..star];
        let mut rest_pat = &pat[star + 1..];
        if value.len() < first.len() || !eq_ignore_ascii(&value[..first.len()], first) {
            return false;
        }
        let mut rest = &value[first.len()..];
        // Middle segments are consumed greedily left-to-right; the final
        // segment must anchor at the end of the value.
        loop {
            match rest_pat.iter().position(|&b| b == b'*') {
                Some(star) => {
                    let seg = &rest_pat[..star];
                    rest_pat = &rest_pat[star + 1..];
                    if seg.is_empty() {
                        continue;
                    }
                    match find_ignore_ascii(rest, seg) {
                        Some(idx) => rest = &rest[idx + seg.len()..],
                        None => return false,
                    }
                }
                None => {
                    return rest.len() >= rest_pat.len()
                        && eq_ignore_ascii(&rest[rest.len() - rest_pat.len()..], rest_pat);
                }
            }
        }
    }

    fn matches_unicode(&self, value: &str) -> bool {
        let mut segments = self.pattern.split('*');
        let Some(first) = segments.next() else {
            return value.is_empty();
        };
        if !value.starts_with(first) {
            return false;
        }
        let mut rest = &value[first.len()..];
        let mut pending: Vec<&str> = segments.collect();
        let Some(last) = pending.pop() else {
            // No '*' at all: exact match required.
            return rest.is_empty();
        };
        for seg in pending {
            if seg.is_empty() {
                continue;
            }
            match rest.find(seg) {
                Some(idx) => rest = &rest[idx + seg.len()..],
                None => return false,
            }
        }
        rest.ends_with(last)
    }
}

/// Case-folding equality against an already-lowercase needle.
fn eq_ignore_ascii(value: &[u8], lower: &[u8]) -> bool {
    value.len() == lower.len()
        && value
            .iter()
            .zip(lower)
            .all(|(&v, &p)| v.to_ascii_lowercase() == p)
}

/// Case-folding substring search against an already-lowercase needle.
fn find_ignore_ascii(haystack: &[u8], lower: &[u8]) -> Option<usize> {
    if haystack.len() < lower.len() {
        return None;
    }
    (0..=haystack.len() - lower.len())
        .find(|&i| eq_ignore_ascii(&haystack[i..i + lower.len()], lower))
}

impl fmt::Display for Wildcard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pattern)
    }
}

/// The micro-level value of a predicate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// Exact (case-sensitive) equality — the case the equality-preferred
    /// filter algorithm indexes in hash tables.
    Equals(String),
    /// Membership in an ID list.
    OneOf(BTreeSet<String>),
    /// A wildcard pattern.
    Like(Wildcard),
    /// A retrieval query evaluated with the collection's own search
    /// semantics (tokenized Boolean/prefix matching).
    Matches(Query),
}

impl AttrValue {
    /// Tests one attribute value against this micro-level value.
    pub fn accepts(&self, value: &str) -> bool {
        match self {
            AttrValue::Equals(expected) => value == expected,
            AttrValue::OneOf(set) => set.contains(value),
            AttrValue::Like(pattern) => pattern.matches(value),
            AttrValue::Matches(query) => query.matches_text(value),
        }
    }
}

/// A value as the profile syntax quotes it: between double quotes, with
/// a backslash before each `"` and `\\`, which the lexer reads back.
struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        let mut rest = self.0;
        while let Some(at) = rest.find(['"', '\\']) {
            write!(f, "{}\\{}", &rest[..at], &rest[at..=at])?;
            rest = &rest[at + 1..];
        }
        write!(f, "{rest}\"")
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Equals(v) => write!(f, "= {}", Quoted(v)),
            AttrValue::OneOf(vs) => {
                write!(f, "in [")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", Quoted(v))?;
                }
                write!(f, "]")
            }
            AttrValue::Like(w) => write!(f, "~ {}", Quoted(w.as_str())),
            AttrValue::Matches(q) => write!(f, "? ({q})"),
        }
    }
}

/// One attribute-value pair of the macro level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// The attribute.
    pub attr: ProfileAttr,
    /// The micro-level value.
    pub value: AttrValue,
}

impl Predicate {
    /// Creates a predicate.
    pub fn new(attr: ProfileAttr, value: AttrValue) -> Self {
        Predicate { attr, value }
    }

    /// Equality shorthand.
    pub fn equals(attr: ProfileAttr, value: impl Into<String>) -> Self {
        Predicate::new(attr, AttrValue::Equals(value.into()))
    }

    /// Evaluates the predicate in an (event, document) context. A
    /// multi-valued attribute (metadata) matches when *any* value is
    /// accepted.
    pub fn matches(&self, event: &Event, doc: Option<&DocSummary>) -> bool {
        if self.attr == ProfileAttr::Collection {
            // Exact collection names are compared against the origin's
            // parts in place; only patterns and queries need the string.
            match &self.value {
                AttrValue::Equals(v) => return names_collection(v, &event.origin),
                AttrValue::OneOf(set) => {
                    return set.iter().any(|v| names_collection(v, &event.origin))
                }
                AttrValue::Like(_) | AttrValue::Matches(_) => {}
            }
        }
        self.attr.any_value(event, doc, |v| self.value.accepts(v))
    }
}

/// Whether `value` is `origin` in `host.name` notation.
fn names_collection(value: &str, origin: &CollectionId) -> bool {
    value
        .strip_prefix(origin.host().as_str())
        .and_then(|rest| rest.strip_prefix('.'))
        .is_some_and(|name| name == origin.name().as_str())
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.attr, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_types::{keys, CollectionId, EventId, EventKind, MetadataRecord, SimTime};

    fn event() -> Event {
        let md: MetadataRecord = [(keys::TITLE, "Digital Libraries"), (keys::SUBJECT, "alerting")]
            .into_iter()
            .collect();
        Event::new(
            EventId::new("London", 1),
            CollectionId::new("London", "E"),
            EventKind::DocumentsAdded,
            SimTime::ZERO,
        )
        .with_docs(vec![DocSummary::new("HASH1")
            .with_metadata(md)
            .with_excerpt("new digital library content")])
    }

    fn doc(e: &Event) -> &DocSummary {
        &e.docs[0]
    }

    #[test]
    fn wildcard_basics() {
        assert!(Wildcard::new("abc").matches("ABC"));
        assert!(!Wildcard::new("abc").matches("abcd"));
        assert!(Wildcard::new("abc*").matches("abcd"));
        assert!(Wildcard::new("*bcd").matches("abcd"));
        assert!(Wildcard::new("a*d").matches("abcd"));
        assert!(Wildcard::new("*").matches(""));
        assert!(Wildcard::new("*").matches("anything"));
        assert!(!Wildcard::new("a*c*e").matches("ace-but-no"));
        assert!(Wildcard::new("a*c*e").matches("abcde"));
    }

    #[test]
    fn wildcard_ascii_and_unicode_paths_agree() {
        let patterns = ["", "*", "a*c*e", "abc", "*bcd", "a*d", "ab*", "*a*a", "a**b"];
        let values = ["", "a", "abc", "ABCD", "abcde", "ace-but-no", "aa", "ab"];
        for p in patterns {
            let w = Wildcard::new(p);
            for v in values {
                assert_eq!(
                    w.matches_ascii(v.as_bytes()),
                    w.matches_unicode(&v.to_lowercase()),
                    "pattern {p:?} value {v:?}"
                );
            }
        }
    }

    #[test]
    fn wildcard_non_ascii_falls_back_to_unicode() {
        assert!(Wildcard::new("über*").matches("ÜBERMENSCH"));
        assert!(!Wildcard::new("über*").matches("unter"));
        assert!(Wildcard::new("*straße").matches("Hauptstraße"));
    }

    #[test]
    fn wildcard_ordering_matters() {
        let w = Wildcard::new("*lib*dig*");
        assert!(w.matches("library of digital things"));
        assert!(!w.matches("digital library"));
    }

    #[test]
    fn host_predicate() {
        let e = event();
        let p = Predicate::equals(ProfileAttr::Host, "London");
        assert!(p.matches(&e, Some(doc(&e))));
        assert!(p.matches(&e, None)); // host is an event attribute
        let p = Predicate::equals(ProfileAttr::Host, "Hamilton");
        assert!(!p.matches(&e, None));
    }

    #[test]
    fn collection_predicate_uses_dotted_notation() {
        let e = event();
        let p = Predicate::equals(ProfileAttr::Collection, "London.E");
        assert!(p.matches(&e, None));
        let p = Predicate::new(
            ProfileAttr::Collection,
            AttrValue::Like(Wildcard::new("london.*")),
        );
        assert!(p.matches(&e, None));
    }

    #[test]
    fn collection_names_are_compared_part_by_part() {
        // Exactly `host.name`: no prefix, no suffix, dots in either part.
        let dotted = Event::new(
            EventId::new("a.b", 1),
            CollectionId::new("a.b", "c.d"),
            EventKind::CollectionRebuilt,
            SimTime::ZERO,
        );
        let names = |v: &str| Predicate::equals(ProfileAttr::Collection, v).matches(&dotted, None);
        assert!(names("a.b.c.d"));
        for other in ["a.b.c", "a.b.c.d.e", "a.bc.d", "a.b", "a.b.", ".c.d", ""] {
            assert!(!names(other), "{other:?}");
        }
        let set: BTreeSet<String> = ["x.y".to_string(), "a.b.c.d".to_string()].into();
        let p = Predicate::new(ProfileAttr::Collection, AttrValue::OneOf(set));
        assert!(p.matches(&dotted, None));
        assert!(!p.matches(&event(), None));
    }

    #[test]
    fn any_value_visits_every_value_until_accepted() {
        let mut md = MetadataRecord::new();
        md.add(keys::SUBJECT, "a");
        md.add(keys::SUBJECT, "b");
        let e = event().with_docs(vec![DocSummary::new("d").with_metadata(md)]);
        let subject = ProfileAttr::Meta(keys::SUBJECT.into());
        let mut seen = Vec::new();
        assert!(!subject.any_value(&e, Some(doc(&e)), |v| {
            seen.push(v.to_string());
            false
        }));
        assert_eq!(seen, ["a", "b"]);
        assert!(subject.any_value(&e, Some(doc(&e)), |v| v == "a"));
        assert!(!subject.any_value(&e, None, |_| true));
        assert!(ProfileAttr::Collection.any_value(&e, None, |v| v == "London.E"));
    }

    #[test]
    fn wildcard_segments_are_the_lowercased_literals() {
        let segments = |p: &str| Wildcard::new(p).segments().map(str::to_string).collect::<Vec<_>>();
        assert_eq!(segments("Digital*LIB*"), ["digital", "lib", ""]);
        assert_eq!(segments("abc"), ["abc"]);
        assert_eq!(segments("*"), ["", ""]);
    }

    #[test]
    fn kind_predicate() {
        let e = event();
        let p = Predicate::equals(ProfileAttr::Kind, "documents-added");
        assert!(p.matches(&e, None));
    }

    #[test]
    fn doc_predicates_need_a_doc() {
        let e = event();
        let p = Predicate::equals(ProfileAttr::DocId, "HASH1");
        assert!(p.matches(&e, Some(doc(&e))));
        assert!(!p.matches(&e, None));
    }

    #[test]
    fn metadata_predicate_is_any_value() {
        let e = event();
        let p = Predicate::equals(ProfileAttr::Meta(keys::SUBJECT.into()), "alerting");
        assert!(p.matches(&e, Some(doc(&e))));
        let p = Predicate::equals(ProfileAttr::Meta(keys::SUBJECT.into()), "nothing");
        assert!(!p.matches(&e, Some(doc(&e))));
    }

    #[test]
    fn id_list_predicate() {
        let e = event();
        let set: BTreeSet<String> = ["HASH1".to_string(), "HASH9".to_string()].into();
        let p = Predicate::new(ProfileAttr::DocId, AttrValue::OneOf(set));
        assert!(p.matches(&e, Some(doc(&e))));
    }

    #[test]
    fn query_predicate_over_text() {
        let e = event();
        let q = Query::parse("digital AND librar*").unwrap();
        let p = Predicate::new(ProfileAttr::Text, AttrValue::Matches(q));
        assert!(p.matches(&e, Some(doc(&e))));
        let q = Query::parse("nonexistent").unwrap();
        let p = Predicate::new(ProfileAttr::Text, AttrValue::Matches(q));
        assert!(!p.matches(&e, Some(doc(&e))));
    }

    #[test]
    fn attr_parse_round_trips() {
        for name in ["host", "collection", "kind", "doc", "text", "dc.Title"] {
            assert_eq!(ProfileAttr::parse(name).name(), name);
        }
    }

    #[test]
    fn doc_attr_classification() {
        assert!(ProfileAttr::DocId.is_doc_attr());
        assert!(ProfileAttr::Text.is_doc_attr());
        assert!(ProfileAttr::Meta("x".into()).is_doc_attr());
        assert!(!ProfileAttr::Host.is_doc_attr());
        assert!(!ProfileAttr::Collection.is_doc_attr());
        assert!(!ProfileAttr::Kind.is_doc_attr());
    }

    #[test]
    fn display_forms() {
        let p = Predicate::equals(ProfileAttr::Host, "London");
        assert_eq!(p.to_string(), "host = \"London\"");
        let set: BTreeSet<String> = ["a".to_string()].into();
        let p = Predicate::new(ProfileAttr::DocId, AttrValue::OneOf(set));
        assert_eq!(p.to_string(), "doc in [\"a\"]");
        let p = Predicate::new(ProfileAttr::Text, AttrValue::Like(Wildcard::new("x*")));
        assert_eq!(p.to_string(), "text ~ \"x*\"");
    }
}
