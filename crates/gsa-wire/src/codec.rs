//! Conversions between the `gsa-types` data model and XML elements.
//!
//! Protocol crates compose these building blocks into their own message
//! bodies; keeping the codecs here means the event format is identical on
//! the GDS and GS protocols, as in the paper.

use crate::xml::{WireError, XmlElement, XmlPut};
use gsa_types::{
    CollectionId, DocSummary, Event, EventId, EventKind, MetaKey, MetadataRecord, SimTime,
};

/// Encodes a metadata record as
/// `<metadata><meta name="..." value="..."/>...</metadata>`.
///
/// Values travel as attributes, not text nodes: XML parsers treat
/// whitespace-only text as insignificant, while attribute values preserve
/// every character.
pub fn metadata_to_xml(md: &MetadataRecord) -> XmlElement {
    let mut el = XmlElement::new("metadata");
    el.reserve_children(md.total_values());
    put_metas(md, &mut el);
    el
}

/// Puts a metadata record, as [`metadata_to_xml`] encodes it, as the
/// next child of the element under description.
pub fn put_metadata(md: &MetadataRecord, out: &mut impl XmlPut) {
    out.child("metadata", |el| put_metas(md, el));
}

fn put_metas(md: &MetadataRecord, out: &mut impl XmlPut) {
    for (k, v) in md.iter_flat() {
        out.child("meta", |meta| {
            meta.attr("name", k.as_str());
            meta.attr("value", v);
        });
    }
}

/// Decodes a metadata record from the element produced by
/// [`metadata_to_xml`].
///
/// # Errors
///
/// Returns [`WireError`] when the element is not a `<metadata>` element or
/// any `<meta>` child lacks a `name` attribute.
pub fn metadata_from_xml(el: &XmlElement) -> Result<MetadataRecord, WireError> {
    if el.name() != "metadata" {
        return Err(WireError::malformed(format!(
            "expected <metadata>, found <{}>",
            el.name()
        )));
    }
    let mut md = MetadataRecord::new();
    for meta in el.children_named("meta") {
        let name = meta
            .attr("name")
            .ok_or_else(|| WireError::malformed("<meta> without name attribute"))?;
        // The value attribute is canonical; text content is accepted for
        // hand-written documents.
        let value = meta
            .attr("value")
            .map(str::to_string)
            .unwrap_or_else(|| meta.text());
        md.add(MetaKey::new(name), value);
    }
    Ok(md)
}

/// Encodes a document summary as a `<document>` element.
pub fn doc_summary_to_xml(doc: &DocSummary) -> XmlElement {
    let mut el = XmlElement::new("document").with_attr("id", doc.doc.as_str());
    el.reserve_children(2);
    el.push_child(metadata_to_xml(&doc.metadata));
    if !doc.excerpt.is_empty() {
        el.push_child(XmlElement::new("excerpt").with_attr("value", &doc.excerpt));
    }
    el
}

/// Decodes a document summary from the element produced by
/// [`doc_summary_to_xml`].
///
/// # Errors
///
/// Returns [`WireError`] on a missing `id` attribute or malformed metadata.
pub fn doc_summary_from_xml(el: &XmlElement) -> Result<DocSummary, WireError> {
    if el.name() != "document" {
        return Err(WireError::malformed(format!(
            "expected <document>, found <{}>",
            el.name()
        )));
    }
    let id = el
        .attr("id")
        .ok_or_else(|| WireError::malformed("<document> without id attribute"))?;
    let metadata = match el.child("metadata") {
        Some(md) => metadata_from_xml(md)?,
        None => MetadataRecord::new(),
    };
    let excerpt = el
        .child("excerpt")
        .map(|e| e.attr("value").map(str::to_string).unwrap_or_else(|| e.text()))
        .unwrap_or_default();
    Ok(DocSummary::new(id)
        .with_metadata(metadata)
        .with_excerpt(excerpt))
}

/// Encodes a collection id as text content of the given tag.
pub fn collection_to_xml(tag: &str, id: &CollectionId) -> XmlElement {
    XmlElement::new(tag).with_text(id.to_string())
}

/// Decodes a collection id from an element's text content.
///
/// # Errors
///
/// Returns [`WireError`] when the text is not `host.name`.
pub fn collection_from_text(text: &str) -> Result<CollectionId, WireError> {
    CollectionId::parse(text)
        .ok_or_else(|| WireError::malformed(format!("invalid collection id `{text}`")))
}

/// Encodes an event as an `<event>` element (the GDS broadcast payload).
pub fn event_to_xml(event: &Event) -> XmlElement {
    let mut el = XmlElement::new("event")
        .with_attr("host", event.id.host().as_str())
        .with_attr("seq", event.id.seq().to_string())
        .with_attr("root-host", event.root.host().as_str())
        .with_attr("root-seq", event.root.seq().to_string())
        .with_attr("kind", event.kind.as_str())
        .with_attr("issued-us", event.issued_at.as_micros().to_string());
    el.reserve_children(1 + event.provenance.len() + event.docs.len());
    el.push_child(collection_to_xml("origin", &event.origin));
    for p in &event.provenance {
        el.push_child(collection_to_xml("provenance", p));
    }
    for d in &event.docs {
        el.push_child(doc_summary_to_xml(d));
    }
    el
}

/// Decodes an event from the element produced by [`event_to_xml`].
///
/// # Errors
///
/// Returns [`WireError`] when required attributes or children are missing
/// or unparseable.
pub fn event_from_xml(el: &XmlElement) -> Result<Event, WireError> {
    if el.name() != "event" {
        return Err(WireError::malformed(format!(
            "expected <event>, found <{}>",
            el.name()
        )));
    }
    let host = el
        .attr("host")
        .ok_or_else(|| WireError::malformed("<event> without host"))?;
    let seq = el
        .attr("seq")
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| WireError::malformed("<event> without valid seq"))?;
    let kind = el
        .attr("kind")
        .and_then(EventKind::parse)
        .ok_or_else(|| WireError::malformed("<event> without valid kind"))?;
    let issued_at = el
        .attr("issued-us")
        .and_then(|s| s.parse::<u64>().ok())
        .map(SimTime::from_micros)
        .ok_or_else(|| WireError::malformed("<event> without valid issued-us"))?;
    let origin = collection_from_text(
        &el.child_text("origin")
            .ok_or_else(|| WireError::malformed("<event> without origin"))?,
    )?;
    let mut provenance = Vec::new();
    for p in el.children_named("provenance") {
        provenance.push(collection_from_text(&p.text())?);
    }
    let mut docs = Vec::new();
    for d in el.children_named("document") {
        docs.push(doc_summary_from_xml(d)?);
    }
    let mut event = Event::new(EventId::new(host, seq), origin, kind, issued_at).with_docs(docs);
    event.provenance = provenance;
    // Fresh events default root == id; rewritten events carry it along.
    if let (Some(rh), Some(rs)) = (
        el.attr("root-host"),
        el.attr("root-seq").and_then(|s| s.parse::<u64>().ok()),
    ) {
        event.root = EventId::new(rh, rs);
    }
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_types::keys;

    fn sample_event() -> Event {
        let md: MetadataRecord = [(keys::TITLE, "T"), (keys::SUBJECT, "s1"), (keys::SUBJECT, "s2")]
            .into_iter()
            .collect();
        let mut e = Event::new(
            EventId::new("London", 3),
            CollectionId::new("London", "E"),
            EventKind::DocumentsAdded,
            SimTime::from_micros(1234),
        )
        .with_docs(vec![
            DocSummary::new("HASH1").with_metadata(md).with_excerpt("hello world"),
            DocSummary::new("HASH2"),
        ]);
        e.provenance = vec![CollectionId::new("Paris", "Z")];
        e
    }

    #[test]
    fn event_round_trips() {
        let e = sample_event();
        let back = event_from_xml(&event_to_xml(&e)).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn event_round_trips_through_wire_text() {
        let e = sample_event();
        let text = event_to_xml(&e).to_document_string();
        let parsed = crate::parse_document(&text).unwrap();
        assert_eq!(event_from_xml(&parsed).unwrap(), e);
    }

    #[test]
    fn metadata_round_trips_multivalues() {
        let md: MetadataRecord = [(keys::SUBJECT, "a"), (keys::SUBJECT, "b")]
            .into_iter()
            .collect();
        let back = metadata_from_xml(&metadata_to_xml(&md)).unwrap();
        assert_eq!(back, md);
    }

    #[test]
    fn empty_metadata_round_trips() {
        let md = MetadataRecord::new();
        assert_eq!(metadata_from_xml(&metadata_to_xml(&md)).unwrap(), md);
    }

    #[test]
    fn event_from_wrong_element_errors() {
        assert!(event_from_xml(&XmlElement::new("nope")).is_err());
    }

    #[test]
    fn event_missing_attributes_errors() {
        let el = XmlElement::new("event");
        assert!(event_from_xml(&el).is_err());
        let el = XmlElement::new("event")
            .with_attr("host", "h")
            .with_attr("seq", "nope");
        assert!(event_from_xml(&el).is_err());
        let el = XmlElement::new("event")
            .with_attr("host", "h")
            .with_attr("seq", "1")
            .with_attr("kind", "weird");
        assert!(event_from_xml(&el).is_err());
    }

    #[test]
    fn event_invalid_origin_errors() {
        let el = XmlElement::new("event")
            .with_attr("host", "h")
            .with_attr("seq", "1")
            .with_attr("kind", "documents-added")
            .with_attr("issued-us", "0")
            .with_child(XmlElement::new("origin").with_text("nodot"));
        assert!(event_from_xml(&el).is_err());
    }

    #[test]
    fn doc_summary_without_metadata_defaults_empty() {
        let el = XmlElement::new("document").with_attr("id", "X");
        let d = doc_summary_from_xml(&el).unwrap();
        assert!(d.metadata.is_empty());
        assert!(d.excerpt.is_empty());
    }

    #[test]
    fn doc_summary_missing_id_errors() {
        assert!(doc_summary_from_xml(&XmlElement::new("document")).is_err());
    }

    #[test]
    fn collection_from_text_errors_on_garbage() {
        assert!(collection_from_text("no-dot-here").is_err());
        assert!(collection_from_text("").is_err());
    }
}
