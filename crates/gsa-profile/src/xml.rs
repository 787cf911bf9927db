//! XML encoding of profile expressions.
//!
//! Used when auxiliary profiles travel between servers over the GS
//! protocol (Section 4.2) and for persisting subscriptions.

use crate::attr::{AttrValue, Predicate, ProfileAttr, Wildcard};
use crate::expr::ProfileExpr;
use gsa_store::Query;
use gsa_wire::{WireError, XmlElement};
use std::collections::BTreeSet;

/// Encodes a profile expression as an XML element.
pub fn expr_to_xml(expr: &ProfileExpr) -> XmlElement {
    match expr {
        ProfileExpr::Pred(p) => pred_to_xml(p),
        ProfileExpr::And(es) => {
            let mut el = XmlElement::new("and");
            for e in es {
                el.push_child(expr_to_xml(e));
            }
            el
        }
        ProfileExpr::Or(es) => {
            let mut el = XmlElement::new("or");
            for e in es {
                el.push_child(expr_to_xml(e));
            }
            el
        }
        ProfileExpr::Not(e) => XmlElement::new("not").with_child(expr_to_xml(e)),
    }
}

fn pred_to_xml(p: &Predicate) -> XmlElement {
    let mut el = XmlElement::new("pred").with_attr("attr", p.attr.name());
    match &p.value {
        AttrValue::Equals(v) => {
            el.set_attr("op", "equals");
            el.set_attr("value", v);
        }
        AttrValue::OneOf(set) => {
            el.set_attr("op", "one-of");
            for v in set {
                el.push_child(XmlElement::new("id").with_text(v));
            }
        }
        AttrValue::Like(w) => {
            el.set_attr("op", "like");
            el.set_attr("value", w.as_str());
        }
        AttrValue::Matches(q) => {
            el.set_attr("op", "query");
            el.set_attr("value", q.to_string());
        }
    }
    el
}

/// Decodes a profile expression from the element produced by
/// [`expr_to_xml`].
///
/// # Errors
///
/// Returns [`WireError`] on unknown tags, operators or malformed values.
pub fn expr_from_xml(el: &XmlElement) -> Result<ProfileExpr, WireError> {
    match el.name() {
        "pred" => Ok(ProfileExpr::Pred(pred_from_xml(el)?)),
        "and" => {
            let mut parts = Vec::new();
            for c in el.elements() {
                parts.push(expr_from_xml(c)?);
            }
            if parts.is_empty() {
                return Err(WireError::malformed("<and> without children"));
            }
            Ok(ProfileExpr::And(parts))
        }
        "or" => {
            let mut parts = Vec::new();
            for c in el.elements() {
                parts.push(expr_from_xml(c)?);
            }
            if parts.is_empty() {
                return Err(WireError::malformed("<or> without children"));
            }
            Ok(ProfileExpr::Or(parts))
        }
        "not" => {
            let inner = el
                .elements()
                .next()
                .ok_or_else(|| WireError::malformed("<not> without child"))?;
            Ok(ProfileExpr::Not(Box::new(expr_from_xml(inner)?)))
        }
        other => Err(WireError::malformed(format!(
            "unknown profile element <{other}>"
        ))),
    }
}

fn pred_from_xml(el: &XmlElement) -> Result<Predicate, WireError> {
    let attr = ProfileAttr::parse(
        el.attr("attr")
            .ok_or_else(|| WireError::malformed("<pred> without attr"))?,
    );
    let op = el
        .attr("op")
        .ok_or_else(|| WireError::malformed("<pred> without op"))?;
    let value = match op {
        "equals" => AttrValue::Equals(
            el.attr("value")
                .ok_or_else(|| WireError::malformed("equals without value"))?
                .to_string(),
        ),
        "one-of" => {
            let set: BTreeSet<String> = el.children_named("id").map(|i| i.text()).collect();
            AttrValue::OneOf(set)
        }
        "like" => AttrValue::Like(Wildcard::new(
            el.attr("value")
                .ok_or_else(|| WireError::malformed("like without value"))?,
        )),
        "query" => {
            let text = el
                .attr("value")
                .ok_or_else(|| WireError::malformed("query without value"))?;
            let q = Query::parse(text)
                .map_err(|e| WireError::malformed(format!("bad query: {e}")))?;
            AttrValue::Matches(q)
        }
        other => return Err(WireError::malformed(format!("unknown op {other}"))),
    };
    Ok(Predicate::new(attr, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_profile;
    use gsa_types::{CollectionId, DocSummary, Event, EventId, EventKind, SimTime};

    fn round_trip(text: &str) {
        let expr = parse_profile(text).unwrap();
        let el = expr_to_xml(&expr);
        // Through actual wire text.
        let parsed = gsa_wire::parse_document(&el.to_document_string()).unwrap();
        let back = expr_from_xml(&parsed).unwrap();
        assert_eq!(back, expr, "profile {text}");
    }

    #[test]
    fn all_value_kinds_round_trip() {
        round_trip(r#"host = "London""#);
        round_trip(r#"doc in ["HASH1", "HASH2", "HASH3"]"#);
        round_trip(r#"text ~ "digi*tal""#);
        round_trip("text ? (digital AND librar* OR NOT spam)");
    }

    /// A query value crosses the wire as the text it prints: a word
    /// whose folding holds a character the query lexer splits on (`İ`
    /// folds to `i` + U+0307) still matches the same document at the far
    /// end of an auxiliary-profile hop.
    #[test]
    fn a_query_word_that_folds_apart_still_matches_across_the_wire() {
        let expr = parse_profile("text ? (İx)").unwrap();
        let wire = gsa_wire::parse_document(&expr_to_xml(&expr).to_document_string()).unwrap();
        let back = expr_from_xml(&wire).unwrap();
        let event = Event::new(
            EventId::new("London", 1),
            CollectionId::new("London", "E"),
            EventKind::DocumentsAdded,
            SimTime::ZERO,
        )
        .with_docs(vec![DocSummary::new("d1").with_excerpt("İx")]);
        assert!(expr.matches_event(&event));
        assert!(back.matches_event(&event), "{back}");
        round_trip("text ? (İx)");
    }

    #[test]
    fn boolean_structure_round_trips() {
        round_trip(r#"host = "a" AND (kind = "b" OR NOT dc.Title ~ "x*")"#);
        round_trip(r#"NOT (host = "a" AND host = "b")"#);
    }

    #[test]
    fn unknown_elements_error() {
        assert!(expr_from_xml(&XmlElement::new("bogus")).is_err());
        assert!(expr_from_xml(&XmlElement::new("and")).is_err());
        assert!(expr_from_xml(&XmlElement::new("not")).is_err());
    }

    #[test]
    fn malformed_pred_errors() {
        assert!(expr_from_xml(&XmlElement::new("pred")).is_err());
        let el = XmlElement::new("pred").with_attr("attr", "host");
        assert!(expr_from_xml(&el).is_err());
        let el = XmlElement::new("pred")
            .with_attr("attr", "host")
            .with_attr("op", "equals");
        assert!(expr_from_xml(&el).is_err());
        let el = XmlElement::new("pred")
            .with_attr("attr", "host")
            .with_attr("op", "frobnicate")
            .with_attr("value", "x");
        assert!(expr_from_xml(&el).is_err());
        let el = XmlElement::new("pred")
            .with_attr("attr", "text")
            .with_attr("op", "query")
            .with_attr("value", "AND AND");
        assert!(expr_from_xml(&el).is_err());
    }

    #[test]
    fn empty_id_list_round_trips() {
        let expr = ProfileExpr::Pred(Predicate::new(
            ProfileAttr::DocId,
            AttrValue::OneOf(BTreeSet::new()),
        ));
        let back = expr_from_xml(&expr_to_xml(&expr)).unwrap();
        assert_eq!(back, expr);
    }
}
