//! Message payloads: encode once, size in O(1), decode lazily.
//!
//! A [`Payload`] carries an event (or an arbitrary XML body) in up to
//! three representations:
//!
//! * the publisher's [`Event`] behind an [`Arc`] — only ever an *encode
//!   source*: the v2 bytes and the v1 tree are both derived from it,
//! * an XML element tree — the v1 text wire's view,
//! * frozen v2 binary bytes ([`FrozenBytes`]) — the encode-once buffer.
//!
//! At least one is always present. The source and the XML view live in
//! one allocation shared by every clone, so cloning a payload is two
//! refcount bumps and whatever one clone materialises — the tree, its
//! serialised length — every other clone finds already there. That is
//! what lets `GdsNode::flood` hand the same bytes to every edge and
//! lets every hop of a flood charge the payload's size without walking
//! it. [`Payload::freeze`] fills in the binary bytes once;
//! [`Payload::decode_event`] is the lazy-decode exit: it reads the
//! frozen bytes (v2) or the tree (v1), exactly what a peer across a
//! real wire would hold — never the publisher's event.

use crate::binary::{
    event_binary_size, event_to_binary, payload_bytes_from_event, payload_bytes_from_xml,
    payload_event_from_bytes, payload_xml_from_bytes, write_varint, BinReader, ByteSink,
    FrozenBytes, PAYLOAD_EVENT,
};
use crate::codec::{event_from_xml, event_to_xml};
use crate::message::Field;
use crate::xml::{WireError, XmlElement, XmlPut};
use gsa_types::Event;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A message payload holding a source event, an XML tree, frozen binary
/// bytes, or several of them.
///
/// # Examples
///
/// ```
/// use gsa_wire::{Payload, XmlElement};
///
/// let mut payload = Payload::from(XmlElement::new("note").with_text("hi"));
/// payload.freeze();
/// let cheap_copy = payload.clone(); // refcount bump, no re-encode
/// assert_eq!(cheap_copy.to_xml_element().name(), "note");
/// ```
#[derive(Clone)]
pub struct Payload {
    shared: Arc<Shared>,
    bin: Option<FrozenBytes>,
}

/// What every clone of a payload shares: where it came from, and the
/// XML view once somebody needed it.
struct Shared {
    /// The publisher's event, for payloads built by
    /// [`Payload::from_event`].
    event: Option<Arc<Event>>,
    /// The XML tree: given (`From<XmlElement>`), or derived on first use
    /// from the event or by thawing the frozen bytes.
    xml: OnceLock<XmlElement>,
    /// `xml`'s serialised length, counted once.
    xml_len: OnceLock<usize>,
}

impl Payload {
    /// Wraps an event for publishing. Nothing is encoded yet: the v2
    /// bytes are written straight from the event when the payload is
    /// frozen or sent, the XML tree only if a v1 edge or a v1 receiver
    /// asks for it.
    pub fn from_event(event: Arc<Event>) -> Self {
        Payload::new(Some(event), OnceLock::new(), None)
    }

    fn new(event: Option<Arc<Event>>, xml: OnceLock<XmlElement>, bin: Option<FrozenBytes>) -> Self {
        Payload {
            shared: Arc::new(Shared {
                event,
                xml,
                xml_len: OnceLock::new(),
            }),
            bin,
        }
    }

    /// Wraps frozen binary bytes received off a v2 edge. The XML tree
    /// is only reconstructed if a text encode asks for it.
    pub fn from_frozen(bin: FrozenBytes) -> Self {
        Payload::new(None, OnceLock::new(), Some(bin))
    }

    /// Ensures the binary representation exists, encoding it from the
    /// source exactly once. Subsequent clones share the bytes.
    pub fn freeze(&mut self) {
        if self.bin.is_none() {
            let bytes = match &self.shared.event {
                Some(event) => payload_bytes_from_event(event),
                None => payload_bytes_from_xml(self.xml_element()),
            };
            self.bin = Some(FrozenBytes::new(bytes));
        }
    }

    /// The frozen binary bytes, when already materialised.
    pub fn frozen(&self) -> Option<&FrozenBytes> {
        self.bin.as_ref()
    }

    /// Returns `true` once [`freeze`](Self::freeze) has run (or the
    /// payload arrived as binary).
    pub fn is_frozen(&self) -> bool {
        self.bin.is_some()
    }

    /// Appends the payload as varint length + bytes (the v2 encoding).
    /// Frozen bytes go to the sink as one slice, so sizing a frozen
    /// payload (the sink a [`ByteCount`](crate::binary::ByteCount)) is
    /// O(1): the flood hot path never re-encodes just to measure.
    pub fn write_binary(&self, out: &mut impl ByteSink) {
        match (&self.bin, &self.shared.event) {
            (Some(bin), _) => {
                write_varint(out, bin.len() as u64);
                out.put(bin);
            }
            (None, Some(event)) => {
                write_varint(out, 1 + event_binary_size(event) as u64);
                out.put_u8(PAYLOAD_EVENT);
                event_to_binary(event, out);
            }
            (None, None) => {
                let bytes = payload_bytes_from_xml(self.xml_element());
                write_varint(out, bytes.len() as u64);
                out.put(&bytes);
            }
        }
    }

    /// The payload as a borrowed XML element, materialised at most once
    /// for the payload and all its clones: built from the source event,
    /// or thawed from frozen bytes. Malformed bytes (which a conforming
    /// encoder never produces) thaw to an `<invalid-payload/>` marker
    /// rather than panicking mid-flood.
    pub fn xml_element(&self) -> &XmlElement {
        self.shared.xml.get_or_init(|| match (&self.shared.event, &self.bin) {
            (Some(event), _) => event_to_xml(event),
            (None, Some(bin)) => payload_xml_from_bytes(bin)
                .unwrap_or_else(|_| XmlElement::new("invalid-payload")),
            (None, None) => unreachable!("payload has a representation"),
        })
    }

    /// The payload as an owned XML element (a copy of
    /// [`xml_element`](Self::xml_element)).
    pub fn to_xml_element(&self) -> XmlElement {
        self.xml_element().clone()
    }

    /// The serialised length of [`xml_element`](Self::xml_element),
    /// counted once per payload: what the v1 wire charges for it on
    /// every hop after the first, in O(1).
    pub fn xml_size(&self) -> usize {
        *self
            .shared
            .xml_len
            .get_or_init(|| self.xml_element().wire_size())
    }

    /// Decodes the payload as an alerting event. On frozen payloads
    /// this is the lazy-decode fast path: the native binary codec runs
    /// directly and no XML tree is built. Unfrozen payloads decode the
    /// XML tree — what a v1 receiver parsed off the wire.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the payload is not a well-formed
    /// event.
    pub fn decode_event(&self) -> Result<Event, WireError> {
        match &self.bin {
            Some(bin) => payload_event_from_bytes(bin),
            None => event_from_xml(self.xml_element()),
        }
    }

    /// Opens a zero-materialisation attribute probe over the frozen
    /// binary encoding. Returns `None` when no binary representation is
    /// materialised, when the payload took the generic XML fallback
    /// encoding, or when the event header is malformed — in every such
    /// case the caller falls back to [`decode_event`](Self::decode_event),
    /// which reports (or recovers from) the problem exactly as it did
    /// before probes existed.
    pub fn probe_event(&self) -> Option<crate::probe::EventProbe<'_>> {
        let bin = self.bin.as_ref()?;
        crate::probe::EventProbe::from_payload(bin).ok().flatten()
    }
}

/// The wire forms of the payload a message carries. v1: the message
/// element's last child element, whatever it is called. v2: a length
/// and the payload's bytes, which a reader keeps frozen — payloads are
/// *not* deserialised on the way in, they decode lazily at delivery time.
#[derive(Debug, Clone, Copy)]
pub struct PayloadField;

impl Field for PayloadField {
    type Value = Payload;

    fn put_xml(&self, v: &Payload, out: &mut impl XmlPut) {
        out.payload(v);
    }

    fn take_xml(&self, el: &XmlElement) -> Result<Payload, WireError> {
        let body = el.elements().last();
        body.cloned().map(Payload::from).ok_or_else(|| WireError::malformed("missing payload"))
    }

    fn put_bin(&self, v: &Payload, out: &mut impl ByteSink) {
        v.write_binary(out);
    }

    fn take_bin(&self, r: &mut BinReader<'_>) -> Result<Payload, WireError> {
        let len = r.read_varint()? as usize;
        Ok(Payload::from_frozen(FrozenBytes::new(r.read_slice(len)?.to_vec())))
    }
}

impl From<XmlElement> for Payload {
    fn from(el: XmlElement) -> Self {
        Payload::new(None, OnceLock::from(el), None)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        // Fast path: identical frozen bytes are certainly equal.
        if let (Some(a), Some(b)) = (&self.bin, &other.bin) {
            if a == b {
                return true;
            }
        }
        self.xml_element() == other.xml_element()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.shared.xml.get(), &self.shared.event, &self.bin) {
            (Some(xml), _, _) => write!(f, "Payload({})", xml.name()),
            (None, Some(_), _) => f.write_str("Payload(event)"),
            (None, None, Some(bin)) => write!(f, "Payload(frozen, {} bytes)", bin.len()),
            (None, None, None) => unreachable!("payload has a representation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{counted, PAYLOAD_XML};
    use gsa_types::{
        CollectionId, DocSummary, EventId, EventKind, MetadataRecord, SimTime,
    };
    use proptest::prelude::*;

    fn sample_event() -> Event {
        Event::new(
            EventId::new("Hamilton", 7),
            CollectionId::new("Hamilton", "D"),
            EventKind::CollectionRebuilt,
            SimTime::from_millis(99),
        )
    }

    /// Every clone of a payload is handed to another simulated node,
    /// which may run on another thread in the live runtime.
    #[test]
    fn payload_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Payload>();
    }

    #[test]
    fn freeze_is_idempotent_and_preserves_the_element() {
        let el = event_to_xml(&sample_event());
        let mut p = Payload::from(el.clone());
        assert!(!p.is_frozen());
        p.freeze();
        assert!(p.is_frozen());
        let bytes = p.frozen().unwrap().clone();
        p.freeze();
        assert_eq!(p.frozen().unwrap(), &bytes, "second freeze reuses bytes");
        assert_eq!(p.to_xml_element(), el);
    }

    #[test]
    fn frozen_payload_thaws_and_decodes_lazily() {
        let event = sample_event();
        let mut origin = Payload::from(event_to_xml(&event));
        origin.freeze();
        let received = Payload::from_frozen(origin.frozen().unwrap().clone());
        assert_eq!(received.decode_event().unwrap(), event);
        assert_eq!(received.to_xml_element(), event_to_xml(&event));
    }

    #[test]
    fn equality_spans_representations() {
        let event = sample_event();
        let el = event_to_xml(&event);
        let plain = Payload::from(el.clone());
        let mut frozen = Payload::from(el);
        frozen.freeze();
        let binary_only = Payload::from_frozen(frozen.frozen().unwrap().clone());
        let sourced = Payload::from_event(Arc::new(event));
        assert_eq!(plain, frozen);
        assert_eq!(plain, binary_only);
        assert_eq!(frozen, binary_only);
        assert_eq!(sourced, plain);
        assert_eq!(sourced, binary_only);
        let other = Payload::from(XmlElement::new("other"));
        assert_ne!(plain, other);
        assert_ne!(sourced, other);
    }

    #[test]
    fn binary_size_matches_written_bytes() {
        for payload in [
            Payload::from(event_to_xml(&sample_event())),
            Payload::from(XmlElement::new("blob").with_text("free-form")),
            Payload::from_event(Arc::new(sample_event())),
        ] {
            let mut frozen = payload.clone();
            frozen.freeze();
            let mut buf = Vec::new();
            frozen.write_binary(&mut buf);
            assert_eq!(buf.len(), counted(|n| frozen.write_binary(n)));
            // Unfrozen encode agrees with the frozen one.
            let mut buf2 = Vec::new();
            payload.write_binary(&mut buf2);
            assert_eq!(buf, buf2);
            assert_eq!(counted(|n| payload.write_binary(n)), buf2.len());
        }
    }

    #[test]
    fn non_event_payloads_fail_event_decode() {
        let mut p = Payload::from(XmlElement::new("announcement"));
        assert!(p.decode_event().is_err());
        p.freeze();
        assert!(p.decode_event().is_err());
    }

    #[test]
    fn non_canonical_xml_still_takes_the_generic_path() {
        // An `<event>` element that decodes, but not back to itself (an
        // extra attribute), and one that is no event at all.
        let almost = event_to_xml(&sample_event()).with_attr("note", "hand-written");
        for el in [almost, XmlElement::new("announcement").with_text("hi")] {
            let mut p = Payload::from(el.clone());
            p.freeze();
            assert_eq!(p.frozen().unwrap()[0], PAYLOAD_XML);
            let received = Payload::from_frozen(p.frozen().unwrap().clone());
            assert_eq!(received.to_xml_element(), el, "thawing is the identity");
        }
    }

    #[test]
    fn debug_is_compact() {
        let mut p = Payload::from(XmlElement::new("event"));
        assert_eq!(format!("{p:?}"), "Payload(event)");
        p.freeze();
        let bin_only = Payload::from_frozen(p.frozen().unwrap().clone());
        assert!(format!("{bin_only:?}").starts_with("Payload(frozen"));
        let sourced = Payload::from_event(Arc::new(sample_event()));
        assert_eq!(format!("{sourced:?}"), "Payload(event)");
    }

    #[test]
    fn the_xml_view_is_built_once_and_shared_by_clones() {
        let p = Payload::from_event(Arc::new(sample_event()));
        let clone = p.clone();
        assert!(p.shared.xml.get().is_none(), "nothing is encoded up front");
        let size = clone.xml_size();
        assert_eq!(size, event_to_xml(&sample_event()).wire_size());
        assert!(std::ptr::eq(p.xml_element(), clone.xml_element()));
        assert_eq!(p.shared.xml_len.get(), Some(&size));
    }

    /// A receiver holds what crossed the wire, never the publisher's
    /// event. The witness is a host name with a dot in it, which the v1
    /// text form cannot carry faithfully (`a.b` + `c` reads back as `a` +
    /// `b.c`) and the v2 bytes can: a decode that peeked at the source
    /// event would return it unchanged on both.
    #[test]
    fn decode_reads_the_tree_or_the_bytes_never_the_source_event() {
        let event = Event::new(
            EventId::new("a.b", 1),
            CollectionId::new("a.b", "c"),
            EventKind::DocumentsAdded,
            SimTime::from_millis(5),
        );
        let unfrozen = Payload::from_event(Arc::new(event.clone()));
        let via_tree = unfrozen.decode_event().unwrap();
        assert_eq!(via_tree, event_from_xml(&event_to_xml(&event)).unwrap());
        assert_eq!(via_tree.origin, CollectionId::new("a", "b.c"));
        assert!(unfrozen.shared.xml.get().is_some(), "the v1 decode built the tree");

        let mut frozen = Payload::from_event(Arc::new(event.clone()));
        frozen.freeze();
        assert_eq!(frozen.decode_event().unwrap(), event, "v2 decodes its bytes");
        assert!(frozen.shared.xml.get().is_none(), "and builds no tree to do so");
    }

    fn name() -> &'static str {
        "[A-Za-z][A-Za-z0-9-]{0,8}"
    }

    /// Free text with everything the two codecs treat specially: the
    /// escaped characters, quotes, whitespace runs and non-ASCII.
    fn text() -> &'static str {
        "[ -~\t\u{e9}\u{df}\u{3bb}\u{65e5}\u{1f4da}]{0,24}"
    }

    fn arb_doc() -> BoxedStrategy<DocSummary> {
        (
            "[A-Za-z0-9<&\"]{1,10}",
            prop::collection::vec(("[A-Za-z.]{1,8}", text()), 0..4),
            text(),
        )
            .prop_map(|(id, pairs, excerpt)| {
                let mut md = MetadataRecord::new();
                for (k, v) in pairs {
                    md.add(k, v);
                }
                DocSummary::new(id).with_metadata(md).with_excerpt(excerpt)
            })
    }

    /// Events as servers issue them: dot-free host names, non-empty
    /// collection names; 0, 1 or many documents; with and without
    /// provenance and a rewritten root.
    fn arb_event() -> BoxedStrategy<Event> {
        (
            (name(), name(), 0u64..=u64::MAX, 0usize..EventKind::ALL.len()),
            0u64..=u64::MAX,
            prop::collection::vec(arb_doc(), 0..5),
            prop::collection::vec((name(), "[A-Za-z][A-Za-z0-9.]{0,8}"), 0..3),
            prop_oneof![Just(None), (name(), 0u64..1000).prop_map(Some)],
        )
            .prop_map(|((host, coll, seq, kind), issued, docs, provenance, root)| {
                let mut event = Event::new(
                    EventId::new(host.as_str(), seq),
                    CollectionId::new(host.as_str(), coll.as_str()),
                    EventKind::ALL[kind],
                    SimTime::from_micros(issued),
                )
                .with_docs(docs);
                event.provenance = provenance
                    .into_iter()
                    .map(|(h, n)| CollectionId::new(h.as_str(), n.as_str()))
                    .collect();
                if let Some((h, s)) = root {
                    event.root = EventId::new(h.as_str(), s);
                }
                event
            })
    }

    proptest! {
        /// The event-sourced payload is indistinguishable, on both wires,
        /// from the XML-sourced one it replaces on the publish path.
        #[test]
        fn event_sourced_payload_encodes_like_the_xml_sourced_one(event in arb_event()) {
            let el = event_to_xml(&event);
            let mut from_xml = Payload::from(el.clone());
            let sourced = Payload::from_event(Arc::new(event.clone()));

            // v2: sized and written unfrozen, then frozen, byte for byte.
            let mut unfrozen = Vec::new();
            sourced.write_binary(&mut unfrozen);
            prop_assert_eq!(unfrozen.len(), counted(|n| sourced.write_binary(n)));
            let mut frozen = sourced.clone();
            frozen.freeze();
            from_xml.freeze();
            prop_assert_eq!(frozen.frozen().unwrap(), from_xml.frozen().unwrap());
            prop_assert_eq!(frozen.frozen().unwrap()[0], PAYLOAD_EVENT);
            let mut written = Vec::new();
            frozen.write_binary(&mut written);
            prop_assert_eq!(&written, &unfrozen);

            // v1: the same tree, and its length is the memoised one.
            prop_assert_eq!(sourced.xml_element(), &el);
            prop_assert_eq!(sourced.xml_size(), el.to_xml_string().len());
            prop_assert_eq!(frozen.xml_size(), sourced.to_xml_element().wire_size());

            // Receivers on either wire decode the event that was sent.
            let received = Payload::from_frozen(frozen.frozen().unwrap().clone());
            prop_assert_eq!(received.decode_event().unwrap(), event.clone());
            prop_assert_eq!(received.xml_size(), el.wire_size());
            prop_assert_eq!(sourced.decode_event().unwrap(), event);
        }
    }
}
