//! Zero-materialisation attribute probes over frozen payload bytes.
//!
//! [`EventProbe`] scans the v2 native-event encoding *in place*: every
//! string it exposes is a borrowed `&str` slice of the frozen buffer, so
//! a delivery-time pre-filter can ask "could any profile match this
//! event?" without allocating an [`Event`](gsa_types::Event), a
//! metadata record, or an XML tree. Only the attributes the filter
//! index keys on are surfaced — origin host/name, event kind, and per
//! document the id, the flat metadata pairs and the excerpt.
//!
//! The probe is deliberately *partial*: payloads that took the generic
//! XML fallback encoding (tag [`PAYLOAD_XML`](crate::binary)) yield
//! `Ok(None)` from [`EventProbe::from_payload`] and callers fall back
//! to the full decode, exactly as before the probe existed. Malformed
//! bytes error out and callers likewise fall back, so the probe can
//! never change *what* is delivered — only how much work a non-match
//! costs.
//!
//! # Examples
//!
//! ```
//! use gsa_types::{CollectionId, Event, EventId, EventKind, SimTime};
//! use gsa_wire::codec::event_to_xml;
//! use gsa_wire::probe::EventProbe;
//! use gsa_wire::Payload;
//!
//! let event = Event::new(
//!     EventId::new("Hamilton", 1),
//!     CollectionId::new("Hamilton", "D"),
//!     EventKind::CollectionRebuilt,
//!     SimTime::from_millis(5),
//! );
//! let mut payload = Payload::from(event_to_xml(&event));
//! payload.freeze();
//! let probe = EventProbe::from_payload(payload.frozen().unwrap())?.unwrap();
//! assert_eq!(probe.origin_host(), "Hamilton");
//! assert_eq!(probe.origin_name(), "D");
//! assert_eq!(probe.kind(), EventKind::CollectionRebuilt);
//! # Ok::<(), gsa_wire::WireError>(())
//! ```

use crate::binary::{BinReader, PAYLOAD_EVENT, PAYLOAD_XML};
use crate::xml::WireError;
use gsa_types::EventKind;

/// A borrowed, forward-only view of one encoded event.
///
/// Header fields (origin, kind) are parsed eagerly by
/// [`from_payload`](EventProbe::from_payload); documents are surfaced
/// one at a time by [`next_doc`](EventProbe::next_doc) so a pre-filter
/// can stop at the first candidate document.
#[derive(Debug, Clone)]
pub struct EventProbe<'a> {
    origin_host: &'a str,
    origin_name: &'a str,
    kind: EventKind,
    docs_remaining: usize,
    r: BinReader<'a>,
}

impl<'a> EventProbe<'a> {
    /// Opens a probe over payload bytes produced by
    /// [`payload_bytes_from_xml`](crate::binary::payload_bytes_from_xml).
    ///
    /// Returns `Ok(None)` when the payload took the generic XML fallback
    /// encoding — such bodies are not necessarily events and callers
    /// must decode them the ordinary way.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, invalid UTF-8 in a header
    /// string, an unknown payload tag, reference flag or event kind.
    pub fn from_payload(bytes: &'a [u8]) -> Result<Option<EventProbe<'a>>, WireError> {
        let mut r = BinReader::new(bytes);
        match r.read_u8()? {
            PAYLOAD_XML => Ok(None),
            PAYLOAD_EVENT => {
                let id_host = r.read_str()?;
                r.read_varint()?; // event id seq
                r.read_ref(|r| r.skip_string().and_then(|()| r.read_varint()))?; // root id
                let origin_host = r.read_ref(BinReader::read_str)?.unwrap_or(id_host);
                let origin_name = r.read_str()?;
                let kind_idx = r.read_varint()? as usize;
                let kind = *EventKind::ALL
                    .get(kind_idx)
                    .ok_or_else(|| WireError::malformed(format!("unknown event kind {kind_idx}")))?;
                r.read_varint()?; // issued_at
                let provenance = r.read_varint()? as usize;
                for _ in 0..provenance {
                    r.skip_string()?;
                    r.skip_string()?;
                }
                let docs_remaining = r.read_varint()? as usize;
                Ok(Some(EventProbe {
                    origin_host,
                    origin_name,
                    kind,
                    docs_remaining,
                    r,
                }))
            }
            other => Err(WireError::malformed(format!("unknown payload tag {other}"))),
        }
    }

    /// The origin collection's host name.
    pub fn origin_host(&self) -> &'a str {
        self.origin_host
    }

    /// The origin collection's name (without the host prefix).
    pub fn origin_name(&self) -> &'a str {
        self.origin_name
    }

    /// What happened to the collection.
    pub fn kind(&self) -> EventKind {
        self.kind
    }

    /// Documents not yet yielded by [`next_doc`](EventProbe::next_doc).
    pub fn remaining_docs(&self) -> usize {
        self.docs_remaining
    }

    /// Advances to the next document summary, validating its bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, invalid UTF-8 or an unknown
    /// key code anywhere in the document (metadata included — iterating
    /// the returned [`DocProbe::metadata`] cannot fail afterwards).
    pub fn next_doc(&mut self) -> Result<Option<DocProbe<'a>>, WireError> {
        if self.docs_remaining == 0 {
            return Ok(None);
        }
        self.docs_remaining -= 1;
        let id = self.r.read_str()?;
        let pairs = self.r.read_varint()? as usize;
        let meta = MetaProbe {
            r: self.r.clone(),
            remaining: pairs,
        };
        for _ in 0..pairs {
            // Validate now so metadata iteration is infallible.
            self.r.read_key()?;
            self.r.read_str()?;
        }
        let excerpt = self.r.read_str()?;
        Ok(Some(DocProbe { id, excerpt, meta }))
    }
}

/// One document summary viewed in place: id, excerpt, metadata pairs.
#[derive(Debug, Clone)]
pub struct DocProbe<'a> {
    id: &'a str,
    excerpt: &'a str,
    meta: MetaProbe<'a>,
}

impl<'a> DocProbe<'a> {
    /// The collection-local document id.
    pub fn id(&self) -> &'a str {
        self.id
    }

    /// The document excerpt ("" when none was encoded).
    pub fn excerpt(&self) -> &'a str {
        self.excerpt
    }

    /// The flat metadata pairs, in encoding order (multi-valued keys
    /// contribute one pair per value). Re-iterable: each call restarts
    /// from the first pair.
    pub fn metadata(&self) -> MetaProbe<'a> {
        self.meta.clone()
    }
}

/// An iterator over a document's `(key, value)` metadata pairs, borrowed
/// from the frozen buffer. The pairs were validated when the enclosing
/// [`EventProbe::next_doc`] succeeded, so iteration is infallible.
#[derive(Debug, Clone)]
pub struct MetaProbe<'a> {
    r: BinReader<'a>,
    remaining: usize,
}

impl<'a> Iterator for MetaProbe<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let k = self.r.read_key().ok()?;
        let v = self.r.read_str().ok()?;
        Some((k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for MetaProbe<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::payload_bytes_from_xml;
    use crate::codec::event_to_xml;
    use crate::xml::XmlElement;
    use gsa_types::{keys, CollectionId, DocSummary, Event, EventId, MetadataRecord, SimTime};

    fn sample_event() -> Event {
        let md: MetadataRecord = [(keys::TITLE, "Digital Libraries"), (keys::CREATOR, "Hinze")]
            .into_iter()
            .collect();
        let mut event = Event::new(
            EventId::new("Hamilton", 42),
            CollectionId::new("Hamilton", "D"),
            EventKind::DocumentsAdded,
            SimTime::from_millis(1234),
        );
        event.docs = vec![
            DocSummary::new("doc-1").with_metadata(md).with_excerpt("…an excerpt…"),
            DocSummary::new("doc-2"),
        ];
        event.provenance = vec![CollectionId::new("London", "E")];
        event
    }

    fn frozen(event: &Event) -> Vec<u8> {
        payload_bytes_from_xml(&event_to_xml(event))
    }

    #[test]
    fn probe_sees_exactly_what_the_decoder_sees() {
        let event = sample_event();
        let bytes = frozen(&event);
        let mut probe = EventProbe::from_payload(&bytes).unwrap().unwrap();
        assert_eq!(probe.origin_host(), "Hamilton");
        assert_eq!(probe.origin_name(), "D");
        assert_eq!(probe.kind(), EventKind::DocumentsAdded);
        assert_eq!(probe.remaining_docs(), 2);

        let doc = probe.next_doc().unwrap().unwrap();
        assert_eq!(doc.id(), "doc-1");
        assert_eq!(doc.excerpt(), "…an excerpt…");
        let pairs: Vec<_> = doc.metadata().collect();
        let expected: Vec<_> = event.docs[0]
            .metadata
            .iter_flat()
            .map(|(k, v)| (k.as_str(), v))
            .collect();
        assert_eq!(pairs, expected);
        // Metadata is re-iterable.
        assert_eq!(doc.metadata().count(), expected.len());

        let doc2 = probe.next_doc().unwrap().unwrap();
        assert_eq!(doc2.id(), "doc-2");
        assert_eq!(doc2.excerpt(), "");
        assert_eq!(doc2.metadata().len(), 0);
        assert!(probe.next_doc().unwrap().is_none());
        assert_eq!(probe.remaining_docs(), 0);
    }

    #[test]
    fn docless_event_probes_with_zero_docs() {
        let event = Event::new(
            EventId::new("h", 1),
            CollectionId::new("h", "c"),
            EventKind::CollectionDeleted,
            SimTime::ZERO,
        );
        let bytes = frozen(&event);
        let mut probe = EventProbe::from_payload(&bytes).unwrap().unwrap();
        assert_eq!(probe.remaining_docs(), 0);
        assert!(probe.next_doc().unwrap().is_none());
    }

    #[test]
    fn xml_fallback_payloads_yield_none() {
        let bytes = payload_bytes_from_xml(&XmlElement::new("announcement").with_text("hi"));
        assert!(EventProbe::from_payload(&bytes).unwrap().is_none());
    }

    #[test]
    fn malformed_bytes_error() {
        assert!(EventProbe::from_payload(&[]).is_err(), "empty buffer");
        assert!(EventProbe::from_payload(&[9]).is_err(), "unknown tag");
        let bytes = frozen(&sample_event());
        // Truncating inside a document surfaces at next_doc, not earlier.
        let cut = &bytes[..bytes.len() - 4];
        let mut probe = EventProbe::from_payload(cut).unwrap().unwrap();
        assert!(probe.next_doc().is_ok(), "first doc is intact");
        assert!(probe.next_doc().is_err(), "second doc is truncated");
        // Truncating inside the header surfaces at open.
        assert!(EventProbe::from_payload(&bytes[..4]).is_err());
    }

    #[test]
    fn probe_header_agrees_with_full_decode_for_all_kinds() {
        for kind in EventKind::ALL {
            let event = Event::new(
                EventId::new("host", 7),
                CollectionId::new("host", "coll"),
                kind,
                SimTime::from_millis(3),
            );
            let bytes = frozen(&event);
            let probe = EventProbe::from_payload(&bytes).unwrap().unwrap();
            assert_eq!(probe.kind(), kind);
        }
    }
}
