//! GDS protocol messages and their two wire forms.
//!
//! The enum says what a message is; the `gds_messages!` table below it
//! says, once per variant, what it looks like on the wire — v2 opcode,
//! XML tag, and the fields in wire order, each of a [`Field`] kind that
//! knows how to put a value of it into, and take it out of, both wires. The
//! XML writer and reader, the v2 writer and reader, both size functions
//! and the tag a message prints as are all read off that table (through
//! [`WireMessage`]), so a new message is a variant and a table row.

use gsa_types::{Event, HostName, MessageId};
use gsa_wire::binary::{write_str, write_varint, BinReader, ByteSink};
use gsa_wire::payload::PayloadField;
use gsa_wire::summary::{AttrMap, AttrMapField, SummaryField};
use gsa_wire::xml::XmlPut;
use gsa_wire::{Field, InterestSummary, Payload, WireError, WireMessage, XmlElement};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Correlates a naming-service resolution with its answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResolveToken(pub u64);

impl fmt::Display for ResolveToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "resolve-{}", self.0)
    }
}

/// The messages of the GDS protocol.
///
/// Duplicate suppression keys on `(origin, id)`: message ids are only
/// unique per publishing Greenstone server.
#[derive(Debug, Clone, PartialEq)]
pub enum GdsMessage {
    /// A Greenstone server registers with its GDS node.
    Register {
        /// The registering Greenstone server.
        gs_host: HostName,
    },
    /// A Greenstone server deregisters.
    Unregister {
        /// The deregistering Greenstone server.
        gs_host: HostName,
    },
    /// Registration propagated up the tree so ancestors learn their
    /// subtree membership.
    RegisterUp {
        /// The Greenstone server now reachable through `via`.
        gs_host: HostName,
        /// The child GDS node through which it is reachable.
        via: HostName,
    },
    /// Deregistration propagated up the tree.
    UnregisterUp {
        /// The Greenstone server no longer reachable.
        gs_host: HostName,
    },
    /// A Greenstone server asks its GDS node to broadcast a payload to
    /// every registered server.
    Publish {
        /// Publisher-chosen id, unique per publisher.
        id: MessageId,
        /// The payload (an encoded alerting event).
        payload: Payload,
    },
    /// A Greenstone server asks its GDS node to deliver a payload to a
    /// specific set of servers (multicast; a single target is
    /// point-to-point).
    PublishTargeted {
        /// Publisher-chosen id.
        id: MessageId,
        /// The Greenstone servers to reach.
        targets: Vec<HostName>,
        /// The payload.
        payload: Payload,
    },
    /// Tree flooding between GDS nodes.
    Broadcast {
        /// Publisher-chosen id.
        id: MessageId,
        /// The publishing Greenstone server.
        origin: HostName,
        /// The payload.
        payload: Payload,
    },
    /// Targeted routing between GDS nodes.
    Route {
        /// Publisher-chosen id.
        id: MessageId,
        /// The publishing Greenstone server.
        origin: HostName,
        /// Targets still to reach.
        targets: Vec<HostName>,
        /// The payload.
        payload: Payload,
    },
    /// Final delivery from a GDS node to a Greenstone server.
    Deliver {
        /// Publisher-chosen id (dedup key together with `origin`).
        id: MessageId,
        /// The publishing Greenstone server.
        origin: HostName,
        /// The payload.
        payload: Payload,
    },
    /// Naming-service query: which GDS node serves `name`?
    Resolve {
        /// Correlation token.
        token: ResolveToken,
        /// The Greenstone server name to resolve.
        name: HostName,
        /// Who asked (the answer is sent back here).
        reply_to: HostName,
    },
    /// Naming-service answer.
    ResolveResponse {
        /// Correlation token.
        token: ResolveToken,
        /// The name that was queried.
        name: HostName,
        /// The GDS node responsible, or `None` when unknown network-wide.
        result: Option<HostName>,
    },
    /// Parent→child liveness beacon (tree maintenance, §3), sent
    /// unprompted once per interval; a child that hears none for a few
    /// intervals declares its parent dead. The name is older than the
    /// beacon: it once answered a child's ping.
    HeartbeatAck {
        /// The version of the child's interest summary the parent holds,
        /// 0 for none: the child re-announces only when this is behind.
        version: u64,
    },
    /// A GDS node whose parent was declared dead asks its recorded
    /// grandparent to adopt it as a child (tree self-healing).
    Adopt {
        /// The re-parenting GDS node.
        child: HostName,
    },
    /// A re-parented GDS node tells its old parent to forget the edge
    /// (delivered after the heal; retried until then).
    Detach {
        /// The departed GDS node.
        child: HostName,
    },
    /// Several messages coalesced into one frame by the per-edge
    /// batcher. A batch travels (and is acked) as a unit. No sender puts
    /// a batch inside a batch, and both decoders refuse one as malformed.
    ///
    /// The items are shared: cloning a batch is one reference-count
    /// bump, so a directory node hands the frame it received to every
    /// edge it floods on instead of copying its items per edge.
    Batch(Arc<[GdsMessage]>),
    /// A child (GDS node or Greenstone server) announces the interest
    /// summary of its subtree to its parent. Versions are per-sender and
    /// monotonic: the receiver keeps only the newest summary per edge,
    /// so updates may be lost or reordered without corrupting state —
    /// a missing summary just means the edge stays unpruned.
    SummaryUpdate {
        /// Whose subtree the summary describes (the direct child edge).
        from: HostName,
        /// Monotonic per-sender version; stale updates are ignored.
        version: u64,
        /// The conservative interest digest of the sender's subtree,
        /// boxed so that every other message does not pay its size.
        summary: Box<InterestSummary>,
    },
    /// A parent grants its child rendezvous authority for a set of
    /// `(attribute, value)` subgroups: the parent has proved, from its
    /// aggregated edge summaries, that no live interest in those
    /// subgroups exists outside the child's subtree. An event inside
    /// the subtree that provably belongs to a granted subgroup need not
    /// climb past the child — it is confined and floods down from the
    /// rendezvous point instead of from the root. The grant set is a
    /// full replacement at a per-sender monotonic version (stale or
    /// replayed grants are ignored, like summary updates), and is
    /// re-sent with every beacon as an idempotent heal.
    RendezvousGrant {
        /// The granting parent.
        from: HostName,
        /// Monotonic per-sender version; stale grants are ignored.
        version: u64,
        /// `attribute key → granted values`; empty revokes everything.
        grants: AttrMap,
    },
}

impl GdsMessage {
    /// Convenience: a `Publish` of an alerting event. The event is
    /// copied into a [`Payload::from_event`]; a caller that already holds
    /// it behind an `Arc` shares it by handing the payload to
    /// [`GdsClient::publish`](crate::GdsClient::publish).
    pub fn publish_event(id: MessageId, event: &Event) -> Self {
        GdsMessage::Publish {
            id,
            payload: Payload::from_event(Arc::new(event.clone())),
        }
    }

    /// Decodes an alerting event out of a `Deliver` payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when this is not a `Deliver` or the payload is
    /// not a valid event element.
    pub fn deliver_event(&self) -> Result<Event, WireError> {
        match self {
            GdsMessage::Deliver { payload, .. } => payload.decode_event(),
            _ => Err(WireError::malformed("not a Deliver message")),
        }
    }

    /// Encodes the message as an XML element.
    pub fn to_xml(&self) -> XmlElement {
        WireMessage::to_xml(self)
    }

    /// Decodes a message from the element [`GdsMessage::to_xml`] produces.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on unknown tags or missing/invalid parts.
    pub fn from_xml(el: &XmlElement) -> Result<GdsMessage, WireError> {
        WireMessage::from_xml(el)
    }

    /// The serialized size in bytes of the v1 XML text, without producing
    /// it: O(1) in the payload on every hop after the first.
    pub fn wire_size(&self) -> usize {
        WireMessage::wire_size(self)
    }

    /// Encodes the message as a wire-format-v2 binary frame.
    pub fn to_binary(&self) -> Vec<u8> {
        WireMessage::to_binary(self)
    }

    /// Decodes a message from a v2 binary frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on bad framing, unknown opcodes, malformed
    /// fields or trailing bytes.
    pub fn from_binary(bytes: &[u8]) -> Result<GdsMessage, WireError> {
        WireMessage::from_binary(bytes)
    }

    /// The exact size in bytes of the v2 binary frame, without producing
    /// it: O(1) in the payload when the payload is frozen.
    pub fn binary_wire_size(&self) -> usize {
        WireMessage::binary_wire_size(self)
    }
}

/// Event messages held by reference: one message on its own, or a range
/// of a shared frame's items (a reference, not a copy). A flood run is
/// sent as one, the replay ring keeps them, and an edge buffer of the
/// transport holds them until it sends its frame.
#[derive(Debug, Clone)]
pub enum Items {
    /// One message on its own.
    One(GdsMessage),
    /// The items of a shared frame in a range.
    Shared(Arc<[GdsMessage]>, Range<usize>),
}

impl Items {
    /// The messages held.
    #[inline]
    pub fn as_slice(&self) -> &[GdsMessage] {
        match self {
            Items::One(msg) => std::slice::from_ref(msg),
            Items::Shared(frame, range) => &frame[range.clone()],
        }
    }

    /// The frame the items go out as on their own: one item plain, a
    /// whole shared frame as that frame, a part of one as a new frame.
    #[inline]
    pub fn into_frame(self) -> GdsMessage {
        match self {
            Items::One(msg) => msg,
            Items::Shared(frame, range) if range.len() == 1 => frame[range.start].clone(),
            Items::Shared(frame, range) if range.len() == frame.len() => GdsMessage::Batch(frame),
            Items::Shared(frame, range) => GdsMessage::Batch(frame[range].into()),
        }
    }
}

fn missing(what: &str) -> WireError {
    WireError::malformed(format!("missing {what}"))
}

/// A host name that must not be empty: the named attribute, a v2 string.
struct Host(&'static str);

impl Field for Host {
    type Value = HostName;

    fn put_xml(&self, v: &HostName, out: &mut impl XmlPut) {
        out.attr(self.0, v.as_str());
    }

    fn take_xml(&self, el: &XmlElement) -> Result<HostName, WireError> {
        match el.attr(self.0) {
            Some(name) if !name.is_empty() => Ok(HostName::new(name)),
            _ => Err(missing(self.0)),
        }
    }

    fn put_bin(&self, v: &HostName, out: &mut impl ByteSink) {
        write_str(out, v.as_str());
    }

    fn take_bin(&self, r: &mut BinReader<'_>) -> Result<HostName, WireError> {
        match r.read_str()? {
            "" => Err(missing(self.0)),
            name => Ok(HostName::new(name)),
        }
    }
}

/// A host name that may be absent: the named attribute or none, a v2
/// presence byte and then the string.
struct OptHost(&'static str);

impl Field for OptHost {
    type Value = Option<HostName>;

    fn put_xml(&self, v: &Option<HostName>, out: &mut impl XmlPut) {
        if let Some(host) = v {
            out.attr(self.0, host.as_str());
        }
    }

    fn take_xml(&self, el: &XmlElement) -> Result<Option<HostName>, WireError> {
        Ok(el.attr(self.0).map(HostName::new))
    }

    fn put_bin(&self, v: &Option<HostName>, out: &mut impl ByteSink) {
        out.put_u8(u8::from(v.is_some()));
        if let Some(host) = v {
            write_str(out, host.as_str());
        }
    }

    fn take_bin(&self, r: &mut BinReader<'_>) -> Result<Option<HostName>, WireError> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(HostName::new(r.read_str()?))),
            other => Err(WireError::malformed(format!("bad {} marker {other}", self.0))),
        }
    }
}

/// A number: the named attribute in decimal, a v2 varint. The two
/// functions convert it from and to the field's own type.
struct Num<T>(&'static str, fn(u64) -> T, fn(&T) -> u64);

const ID: Num<MessageId> = Num("id", MessageId::from_raw, |id| id.as_u64());
const TOKEN: Num<ResolveToken> = Num("token", ResolveToken, |token| token.0);
const VERSION: Num<u64> = Num("version", |v| v, |v| *v);

impl<T> Field for Num<T> {
    type Value = T;

    fn put_xml(&self, v: &T, out: &mut impl XmlPut) {
        out.num_attr(self.0, (self.2)(v));
    }

    fn take_xml(&self, el: &XmlElement) -> Result<T, WireError> {
        let number = el.attr(self.0).and_then(|n| n.parse().ok());
        number.map(self.1).ok_or_else(|| missing(self.0))
    }

    fn put_bin(&self, v: &T, out: &mut impl ByteSink) {
        write_varint(out, (self.2)(v));
    }

    fn take_bin(&self, r: &mut BinReader<'_>) -> Result<T, WireError> {
        r.read_varint().map(self.1)
    }
}


/// The servers a multicast still has to reach: `<target>` children ahead
/// of the payload, a v2 count and strings.
struct Targets;

impl Field for Targets {
    type Value = Vec<HostName>;

    fn put_xml(&self, v: &Vec<HostName>, out: &mut impl XmlPut) {
        for target in v {
            out.child("target", |el| el.text(target.as_str()));
        }
    }

    fn take_xml(&self, el: &XmlElement) -> Result<Vec<HostName>, WireError> {
        // The last child element is the payload, whatever it is called.
        let before_payload = el.elements().count().saturating_sub(1);
        let targets = el.elements().take(before_payload).filter(|e| e.name() == "target");
        Ok(targets.map(|t| HostName::new(t.text())).collect())
    }

    fn put_bin(&self, v: &Vec<HostName>, out: &mut impl ByteSink) {
        write_varint(out, v.len() as u64);
        for target in v {
            write_str(out, target.as_str());
        }
    }

    fn take_bin(&self, r: &mut BinReader<'_>) -> Result<Vec<HostName>, WireError> {
        let count = r.read_varint()?;
        (0..count).map(|_| r.read_str().map(HostName::new)).collect()
    }
}

/// The messages of a batch: child elements, a v2 count and bodies. A
/// batch among them is malformed.
struct BatchItems;

impl BatchItems {
    fn not_a_batch(item: GdsMessage) -> Result<GdsMessage, WireError> {
        match item {
            GdsMessage::Batch(_) => Err(WireError::malformed("a batch inside a batch")),
            item => Ok(item),
        }
    }
}

impl Field for BatchItems {
    type Value = Arc<[GdsMessage]>;

    fn put_xml(&self, v: &Arc<[GdsMessage]>, out: &mut impl XmlPut) {
        for item in v.iter() {
            out.child(item.tag(), |el| item.put_xml(el));
        }
    }

    fn take_xml(&self, el: &XmlElement) -> Result<Arc<[GdsMessage]>, WireError> {
        let item = |el| GdsMessage::from_xml(el).and_then(Self::not_a_batch);
        el.elements().map(item).collect()
    }

    fn put_bin(&self, v: &Arc<[GdsMessage]>, out: &mut impl ByteSink) {
        write_varint(out, v.len() as u64);
        for item in v.iter() {
            item.put_bin(out);
        }
    }

    fn take_bin(&self, r: &mut BinReader<'_>) -> Result<Arc<[GdsMessage]>, WireError> {
        let count = r.read_varint()?;
        let mut item = || r.nested(GdsMessage::take_bin).and_then(Self::not_a_batch);
        (0..count).map(|_| item()).collect()
    }
}

/// Declares the wire forms. A row is a v2 opcode (one byte, stable
/// across versions — new messages append, never renumber), an XML tag, a
/// variant, and the variant's fields in wire order with the [`Field`] kind of
/// each. Both writers walk a row's fields in that order and both readers
/// build the variant from them in that order. (A writer re-matches each
/// field by name inside the variant's arm because the field of a tuple
/// variant, `0`, cannot name a binding in the arm's own pattern.) A reader
/// converts what a kind reads `into` the variant's field, so a boxed field
/// shares its kind with the unboxed value.
macro_rules! gds_messages {
    ($($opcode:literal $tag:literal $variant:ident { $($field:tt: $kind:expr),* })+) => {
        impl WireMessage for GdsMessage {
            fn tag(&self) -> &'static str {
                match self {
                    $(GdsMessage::$variant { .. } => $tag,)+
                }
            }

            fn put_xml(&self, out: &mut impl XmlPut) {
                match self {
                    $(GdsMessage::$variant { .. } => {
                        $(if let GdsMessage::$variant { $field: value, .. } = self {
                            $kind.put_xml(value, out);
                        })*
                    })+
                }
            }

            fn from_xml(el: &XmlElement) -> Result<Self, WireError> {
                match el.name() {
                    $($tag => Ok(GdsMessage::$variant { $($field: $kind.take_xml(el)?.into()),* }),)+
                    other => Err(WireError::malformed(format!("unknown GDS message <{other}>"))),
                }
            }

            fn put_bin(&self, out: &mut impl ByteSink) {
                match self {
                    $(GdsMessage::$variant { .. } => {
                        out.put_u8($opcode);
                        $(if let GdsMessage::$variant { $field: value, .. } = self {
                            $kind.put_bin(value, out);
                        })*
                    })+
                }
            }

            fn take_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
                match r.read_u8()? {
                    $($opcode => Ok(GdsMessage::$variant { $($field: $kind.take_bin(r)?.into()),* }),)+
                    other => Err(WireError::malformed(format!("unknown GDS opcode {other}"))),
                }
            }
        }
    };
}

gds_messages! {
    0  "gds:register"         Register { gs_host: Host("host") }
    1  "gds:unregister"       Unregister { gs_host: Host("host") }
    2  "gds:register-up"      RegisterUp { gs_host: Host("host"), via: Host("via") }
    3  "gds:unregister-up"    UnregisterUp { gs_host: Host("host") }
    4  "gds:publish"          Publish { id: ID, payload: PayloadField }
    5  "gds:publish-targeted" PublishTargeted { id: ID, targets: Targets, payload: PayloadField }
    6  "gds:broadcast"        Broadcast { id: ID, origin: Host("origin"), payload: PayloadField }
    7  "gds:route"            Route { id: ID, origin: Host("origin"), targets: Targets, payload: PayloadField }
    8  "gds:deliver"          Deliver { id: ID, origin: Host("origin"), payload: PayloadField }
    9  "gds:resolve"          Resolve { token: TOKEN, name: Host("name"), reply_to: Host("reply-to") }
    10 "gds:resolve-response" ResolveResponse { token: TOKEN, name: Host("name"), result: OptHost("result") }
    // 11 and "gds:heartbeat" were the child's ping, retired for the
    // parent's beacon: both decode to an error.
    12 "gds:heartbeat-ack"    HeartbeatAck { version: VERSION }
    13 "gds:adopt"            Adopt { child: Host("child") }
    14 "gds:detach"           Detach { child: Host("child") }
    // 15 "gds:hello" and 16 "gds:hello-ack" negotiated a format per
    // edge before the format became deployment-wide: all four decode to
    // an error.
    17 "gds:batch"            Batch { 0: BatchItems }
    18 "gds:summary"          SummaryUpdate { from: Host("from"), version: VERSION, summary: SummaryField }
    19 "gds:rendezvous-grant" RendezvousGrant { from: Host("from"), version: VERSION, grants: AttrMapField("grant") }
}

impl fmt::Display for GdsMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_types::{CollectionId, EventId, EventKind, SimTime};
    use gsa_wire::codec::event_to_xml;
    use std::collections::BTreeMap;

    fn round_trip(msg: GdsMessage) {
        let text = msg.to_xml().to_document_string();
        let parsed = gsa_wire::parse_document(&text).unwrap();
        assert_eq!(GdsMessage::from_xml(&parsed).unwrap(), msg);
    }

    #[test]
    fn registration_messages_round_trip() {
        round_trip(GdsMessage::Register { gs_host: "Hamilton".into() });
        round_trip(GdsMessage::Unregister { gs_host: "Hamilton".into() });
        round_trip(GdsMessage::RegisterUp {
            gs_host: "Hamilton".into(),
            via: "gds-4".into(),
        });
        round_trip(GdsMessage::UnregisterUp { gs_host: "Hamilton".into() });
    }

    #[test]
    fn publish_and_deliver_round_trip() {
        let payload = gsa_wire::Payload::from(
            XmlElement::new("event").with_attr("kind", "collection-rebuilt"),
        );
        round_trip(GdsMessage::Publish {
            id: MessageId::from_raw(1),
            payload: payload.clone(),
        });
        round_trip(GdsMessage::Broadcast {
            id: MessageId::from_raw(1),
            origin: "Hamilton".into(),
            payload: payload.clone(),
        });
        round_trip(GdsMessage::Deliver {
            id: MessageId::from_raw(1),
            origin: "Hamilton".into(),
            payload,
        });
    }

    #[test]
    fn targeted_messages_round_trip() {
        let payload = gsa_wire::Payload::from(XmlElement::new("x"));
        round_trip(GdsMessage::PublishTargeted {
            id: MessageId::from_raw(2),
            targets: vec!["London".into(), "Paris".into()],
            payload: payload.clone(),
        });
        round_trip(GdsMessage::Route {
            id: MessageId::from_raw(2),
            origin: "Hamilton".into(),
            targets: vec!["London".into()],
            payload,
        });
    }

    #[test]
    fn resolve_round_trips() {
        round_trip(GdsMessage::Resolve {
            token: ResolveToken(9),
            name: "London".into(),
            reply_to: "Hamilton".into(),
        });
        round_trip(GdsMessage::ResolveResponse {
            token: ResolveToken(9),
            name: "London".into(),
            result: Some("gds-2".into()),
        });
        round_trip(GdsMessage::ResolveResponse {
            token: ResolveToken(9),
            name: "Nowhere".into(),
            result: None,
        });
    }

    #[test]
    fn event_payload_round_trips_through_deliver() {
        let event = Event::new(
            EventId::new("Hamilton", 1),
            CollectionId::new("Hamilton", "D"),
            EventKind::CollectionRebuilt,
            SimTime::from_millis(1),
        );
        let publish = GdsMessage::publish_event(MessageId::from_raw(3), &event);
        let GdsMessage::Publish { payload, .. } = publish else {
            panic!("expected publish");
        };
        let deliver = GdsMessage::Deliver {
            id: MessageId::from_raw(3),
            origin: "Hamilton".into(),
            payload,
        };
        assert_eq!(deliver.deliver_event().unwrap(), event);
    }

    #[test]
    fn deliver_event_on_wrong_variant_errors() {
        assert!(GdsMessage::Register { gs_host: "x".into() }.deliver_event().is_err());
    }

    #[test]
    fn maintenance_messages_round_trip() {
        round_trip(GdsMessage::HeartbeatAck { version: 0 });
        round_trip(GdsMessage::HeartbeatAck { version: 7 });
        round_trip(GdsMessage::Adopt { child: "gds-5".into() });
        round_trip(GdsMessage::Detach { child: "gds-5".into() });
    }

    #[test]
    fn unknown_tag_errors() {
        assert!(GdsMessage::from_xml(&XmlElement::new("gds:nope")).is_err());
    }

    fn sample_summary() -> InterestSummary {
        let mut summary = InterestSummary::empty();
        summary.add_host("Hamilton");
        summary.add_collection("London.E");
        summary
    }

    fn attr_summary() -> InterestSummary {
        let mut summary = sample_summary();
        summary.constrain_attr("kind", ["documents-added".to_owned()]);
        summary.constrain_attr("meta:Language", ["en".to_owned(), "mi".to_owned()]);
        summary
    }

    #[test]
    fn summary_updates_round_trip_in_both_formats() {
        for summary in [
            InterestSummary::empty(),
            InterestSummary::wildcard(),
            sample_summary(),
            attr_summary(),
        ] {
            let msg = GdsMessage::SummaryUpdate {
                from: "gds-4".into(),
                version: 7,
                summary: Box::new(summary),
            };
            round_trip(msg.clone());
            binary_round_trip(msg);
        }
    }

    fn sample_grants() -> AttrMap {
        let mut grants = BTreeMap::new();
        grants.insert(
            "kind".to_owned(),
            ["documents-added".to_owned()].into_iter().collect(),
        );
        grants.insert(
            "meta:Language".to_owned(),
            ["en".to_owned(), "mi".to_owned()].into_iter().collect(),
        );
        grants
    }

    #[test]
    fn rendezvous_grants_round_trip_in_both_formats() {
        for grants in [BTreeMap::new(), sample_grants()] {
            let msg = GdsMessage::RendezvousGrant {
                from: "gds-2".into(),
                version: 4,
                grants,
            };
            round_trip(msg.clone());
            binary_round_trip(msg);
        }
    }

    #[test]
    fn batch_round_trips_in_both_formats() {
        let batch = GdsMessage::Batch(
            vec![
                GdsMessage::Broadcast {
                    id: MessageId::from_raw(1),
                    origin: "Hamilton".into(),
                    payload: XmlElement::new("event").with_attr("kind", "documents-added").into(),
                },
                GdsMessage::HeartbeatAck { version: 0 },
                GdsMessage::Deliver {
                    id: MessageId::from_raw(2),
                    origin: "Hamilton".into(),
                    payload: XmlElement::new("x").into(),
                },
            ]
            .into(),
        );
        round_trip(batch.clone());
        let back = GdsMessage::from_binary(&batch.to_binary()).unwrap();
        assert_eq!(back, batch);
    }

    fn binary_round_trip(msg: GdsMessage) {
        let frame = msg.to_binary();
        assert_eq!(frame.len(), msg.binary_wire_size(), "size fn is exact");
        assert_eq!(GdsMessage::from_binary(&frame).unwrap(), msg);
    }

    #[test]
    fn every_variant_round_trips_in_binary() {
        let payload: Payload = XmlElement::new("event").with_attr("kind", "documents-added").into();
        for msg in [
            GdsMessage::Register { gs_host: "Hamilton".into() },
            GdsMessage::Unregister { gs_host: "Hamilton".into() },
            GdsMessage::RegisterUp {
                gs_host: "Hamilton".into(),
                via: "gds-4".into(),
            },
            GdsMessage::UnregisterUp { gs_host: "Hamilton".into() },
            GdsMessage::Publish {
                id: MessageId::from_raw(1),
                payload: payload.clone(),
            },
            GdsMessage::PublishTargeted {
                id: MessageId::from_raw(2),
                targets: vec!["London".into(), "Paris".into()],
                payload: payload.clone(),
            },
            GdsMessage::Broadcast {
                id: MessageId::from_raw(3),
                origin: "Hamilton".into(),
                payload: payload.clone(),
            },
            GdsMessage::Route {
                id: MessageId::from_raw(4),
                origin: "Hamilton".into(),
                targets: vec!["London".into()],
                payload: payload.clone(),
            },
            GdsMessage::Deliver {
                id: MessageId::from_raw(5),
                origin: "Hamilton".into(),
                payload,
            },
            GdsMessage::Resolve {
                token: ResolveToken(9),
                name: "London".into(),
                reply_to: "Hamilton".into(),
            },
            GdsMessage::ResolveResponse {
                token: ResolveToken(9),
                name: "London".into(),
                result: Some("gds-2".into()),
            },
            GdsMessage::ResolveResponse {
                token: ResolveToken(9),
                name: "Nowhere".into(),
                result: None,
            },
            GdsMessage::HeartbeatAck { version: 300 },
            GdsMessage::Adopt { child: "gds-5".into() },
            GdsMessage::Detach { child: "gds-5".into() },
            GdsMessage::SummaryUpdate {
                from: "gds-4".into(),
                version: 3,
                summary: Box::new(attr_summary()),
            },
            GdsMessage::RendezvousGrant {
                from: "gds-2".into(),
                version: 4,
                grants: sample_grants(),
            },
        ] {
            binary_round_trip(msg);
        }
    }

    #[test]
    fn binary_wire_size_is_o1_for_frozen_payloads() {
        let event = Event::new(
            EventId::new("Hamilton", 1),
            CollectionId::new("Hamilton", "D"),
            EventKind::CollectionRebuilt,
            SimTime::from_millis(1),
        );
        let mut payload: Payload = event_to_xml(&event).into();
        payload.freeze();
        let msg = GdsMessage::Broadcast {
            id: MessageId::from_raw(1),
            origin: "Hamilton".into(),
            payload,
        };
        assert_eq!(msg.to_binary().len(), msg.binary_wire_size());
        assert!(
            msg.binary_wire_size() < msg.wire_size(),
            "binary frame beats XML text: {} vs {}",
            msg.binary_wire_size(),
            msg.wire_size()
        );
    }

    #[test]
    fn binary_decode_rejects_garbage() {
        assert!(GdsMessage::from_binary(&[]).is_err());
        assert!(GdsMessage::from_binary(&[0x00, 0x01, 0xff]).is_err());
        // Grow the declared body by one stray byte: [magic, len=2, op,
        // version] becomes [magic, len=3, op, version, 0x00] and must be
        // rejected.
        let mut frame = GdsMessage::HeartbeatAck { version: 0 }.to_binary();
        assert_eq!(frame.len(), 4);
        frame[1] += 1;
        frame.push(0x00);
        assert!(GdsMessage::from_binary(&frame).is_err());
    }

    #[test]
    fn publish_without_payload_errors() {
        let el = XmlElement::new("gds:publish").with_attr("id", "1");
        assert!(GdsMessage::from_xml(&el).is_err());
    }
}
