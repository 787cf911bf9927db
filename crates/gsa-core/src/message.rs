//! The unified on-the-wire message type and the alerting payloads that
//! ride the GS network.

use gsa_gds::GdsMessage;
use gsa_greenstone::GsMessage;
use gsa_types::{CollectionId, CollectionName};
use gsa_wire::codec::collection_from_text;
use gsa_wire::xml::{XmlLen, XmlPut};
use gsa_wire::{Payload, Reliable, WireError, WireMessage, XmlElement};
use std::fmt;

/// Every message a node in the full system can receive: GS network
/// traffic (server ↔ server, receptionist ↔ server) — the Greenstone
/// protocol and the alerting payloads beside it — or GDS protocol
/// (server ↔ directory, directory ↔ directory), the latter optionally
/// wrapped in the reliable-delivery envelope. The `*Bin` variants are
/// the same GDS messages travelling as wire-format-v2 binary frames: a
/// deployment configured for v2 sends every GDS frame in them, one
/// configured for the paper's XML never does.
#[derive(Debug, Clone, PartialEq)]
pub enum SysMessage {
    /// A Greenstone-protocol message.
    Gs(GsMessage),
    /// An alerting payload riding the GS network (auxiliary profiles and
    /// forwarded events, Section 4.2): on the wire a `gs:alerting`
    /// element, which a Greenstone server never interprets.
    Aux(AuxPayload),
    /// A directory-service message (v1 XML text encoding).
    Gds(GdsMessage),
    /// A directory-service message under the opt-in reliable-delivery
    /// envelope (per-hop sequence numbers, acks and retransmission).
    RelGds(Reliable<GdsMessage>),
    /// A directory-service message as a v2 binary frame.
    GdsBin(GdsMessage),
    /// A reliable-enveloped directory-service message as a v2 binary
    /// frame.
    RelGdsBin(Reliable<GdsMessage>),
}

impl SysMessage {
    /// The serialized size in bytes (for the simulator's byte
    /// accounting): the v1 XML text length for text variants, the exact
    /// v2 frame length for binary variants.
    pub fn wire_size(&self) -> usize {
        match self {
            SysMessage::Gs(m) => m.wire_size(),
            SysMessage::Aux(p) => p.wire_size(),
            SysMessage::Gds(m) => m.wire_size(),
            SysMessage::RelGds(rel) => rel.wire_size(),
            SysMessage::GdsBin(m) => m.binary_wire_size(),
            SysMessage::RelGdsBin(rel) => rel.binary_wire_size(),
        }
    }
}

impl fmt::Display for SysMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SysMessage::Gs(m) => write!(f, "gs:{m}"),
            SysMessage::Aux(p) => write!(f, "gs:{p}"),
            SysMessage::Gds(m) => write!(f, "gds:{m}"),
            SysMessage::RelGds(rel) => write!(f, "rel-gds:{}", rel.seq()),
            SysMessage::GdsBin(m) => write!(f, "gds-bin:{m}"),
            SysMessage::RelGdsBin(rel) => write!(f, "rel-gds-bin:{}", rel.seq()),
        }
    }
}

impl From<GsMessage> for SysMessage {
    fn from(m: GsMessage) -> Self {
        SysMessage::Gs(m)
    }
}

impl From<GdsMessage> for SysMessage {
    fn from(m: GdsMessage) -> Self {
        SysMessage::Gds(m)
    }
}

/// The alerting-layer payloads of the GS network (Section 4.2). `op`
/// numbers make every operation retryable and idempotent: the receiver
/// acknowledges with the same `op`, and the sender retries until
/// acknowledged (Section 7 reconciliation).
#[derive(Debug, Clone, PartialEq)]
pub enum AuxPayload {
    /// Plant an auxiliary profile: "the sub-collection you host under
    /// `sub_name` is part of my collection `super_collection`".
    Plant {
        /// Retry/ack correlation, unique per sending host.
        op: u64,
        /// The super-collection (on the sending host).
        super_collection: CollectionId,
        /// The sub-collection's local name on the receiving host.
        sub_name: CollectionName,
    },
    /// Remove a previously planted auxiliary profile (the sub-collection
    /// was removed from the super-collection).
    Delete {
        /// Retry/ack correlation.
        op: u64,
        /// The super-collection the profile pointed at.
        super_collection: CollectionId,
        /// The sub-collection's local name on the receiving host.
        sub_name: CollectionName,
    },
    /// An event matched by an auxiliary profile, forwarded from the
    /// sub-collection's host to the super-collection's host.
    ForwardEvent {
        /// Retry/ack correlation.
        op: u64,
        /// The super-collection's local name on the receiving host.
        super_name: CollectionName,
        /// The matched event (still with its original origin), as it
        /// travels everywhere else: the receiver decodes it from what
        /// crossed ([`Payload::decode_event`]).
        event: Payload,
    },
    /// Acknowledges the operation with the same `op` number.
    Ack {
        /// The acknowledged operation.
        op: u64,
    },
}

/// The GS-network element every alerting payload rides in.
const ENVELOPE: &str = "gs:alerting";

impl AuxPayload {
    /// The retry/ack correlation number.
    pub fn op(&self) -> u64 {
        match self {
            AuxPayload::Plant { op, .. }
            | AuxPayload::Delete { op, .. }
            | AuxPayload::ForwardEvent { op, .. }
            | AuxPayload::Ack { op } => *op,
        }
    }

    /// The name of the payload's own element inside `gs:alerting`.
    pub fn tag(&self) -> &'static str {
        match self {
            AuxPayload::Plant { .. } => "aux-plant",
            AuxPayload::Delete { .. } => "aux-delete",
            AuxPayload::ForwardEvent { .. } => "aux-event",
            AuxPayload::Ack { .. } => "aux-ack",
        }
    }

    /// Puts the content of the `gs:alerting` element — the payload's own
    /// element: the one description of its XML form. A forwarded event
    /// goes in as the payload it is, so its size is the memoised one.
    pub fn put_xml(&self, out: &mut impl XmlPut) {
        out.child(self.tag(), |el| {
            el.num_attr("op", self.op());
            match self {
                AuxPayload::Plant {
                    super_collection,
                    sub_name,
                    ..
                }
                | AuxPayload::Delete {
                    super_collection,
                    sub_name,
                    ..
                } => {
                    el.attr("super", &super_collection.to_string());
                    el.attr("sub-name", sub_name.as_str());
                }
                AuxPayload::ForwardEvent {
                    super_name, event, ..
                } => {
                    el.attr("super-name", super_name.as_str());
                    el.payload(event);
                }
                AuxPayload::Ack { .. } => {}
            }
        });
    }

    /// Encodes the payload as its `gs:alerting` element.
    pub fn to_xml(&self) -> XmlElement {
        let mut el = XmlElement::new(ENVELOPE);
        self.put_xml(&mut el);
        el
    }

    /// The serialized size in bytes, for the simulator's byte
    /// accounting, without producing the text or the tree.
    pub fn wire_size(&self) -> usize {
        let mut len = XmlLen::default();
        self.put_xml(&mut len);
        len.element(ENVELOPE)
    }

    /// Decodes a payload from the element produced by
    /// [`AuxPayload::to_xml`]. A forwarded event is taken as it came —
    /// the last child element — and decoded when it is delivered.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on unknown tags or missing/invalid parts.
    pub fn from_xml(envelope: &XmlElement) -> Result<AuxPayload, WireError> {
        let el = match envelope.elements().next() {
            Some(el) if envelope.name() == ENVELOPE => el,
            _ => return Err(WireError::malformed("not an alerting payload")),
        };
        let attr = |name: &str| {
            el.attr(name)
                .ok_or_else(|| WireError::malformed(format!("missing {name}")))
        };
        let op = attr("op")?
            .parse::<u64>()
            .map_err(|_| WireError::malformed("invalid op"))?;
        match el.name() {
            tag @ ("aux-plant" | "aux-delete") => {
                let super_collection = collection_from_text(attr("super")?)?;
                let sub_name = CollectionName::new(attr("sub-name")?);
                Ok(match tag {
                    "aux-plant" => AuxPayload::Plant {
                        op,
                        super_collection,
                        sub_name,
                    },
                    _ => AuxPayload::Delete {
                        op,
                        super_collection,
                        sub_name,
                    },
                })
            }
            "aux-event" => Ok(AuxPayload::ForwardEvent {
                op,
                super_name: CollectionName::new(attr("super-name")?),
                event: el
                    .elements()
                    .last()
                    .cloned()
                    .map(Payload::from)
                    .ok_or_else(|| WireError::malformed("aux-event without event"))?,
            }),
            "aux-ack" => Ok(AuxPayload::Ack { op }),
            other => Err(WireError::malformed(format!(
                "unknown alerting payload <{other}>"
            ))),
        }
    }

    /// Wraps the payload as the frame that carries it.
    pub fn into_message(self) -> SysMessage {
        SysMessage::Aux(self)
    }
}

impl fmt::Display for AuxPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_types::{Event, EventId, EventKind, SimTime};
    use std::sync::Arc;

    fn round_trip(p: AuxPayload) {
        let text = p.to_xml().to_document_string();
        let parsed = gsa_wire::parse_document(&text).unwrap();
        assert_eq!(AuxPayload::from_xml(&parsed).unwrap(), p);
    }

    #[test]
    fn all_payloads_round_trip() {
        round_trip(AuxPayload::Plant {
            op: 1,
            super_collection: CollectionId::new("Hamilton", "D"),
            sub_name: "E".into(),
        });
        round_trip(AuxPayload::Delete {
            op: 2,
            super_collection: CollectionId::new("Hamilton", "D"),
            sub_name: "E".into(),
        });
        round_trip(AuxPayload::ForwardEvent {
            op: 3,
            super_name: "D".into(),
            event: Payload::from_event(Arc::new(Event::new(
                EventId::new("London", 4),
                CollectionId::new("London", "E"),
                EventKind::CollectionRebuilt,
                SimTime::from_millis(8),
            ))),
        });
        round_trip(AuxPayload::Ack { op: 4 });
    }

    #[test]
    fn op_accessor() {
        assert_eq!(AuxPayload::Ack { op: 9 }.op(), 9);
    }

    #[test]
    fn unknown_payload_errors() {
        let inside =
            |el: XmlElement| AuxPayload::from_xml(&XmlElement::new(ENVELOPE).with_child(el));
        assert!(inside(XmlElement::new("aux-ack").with_attr("op", "1")).is_ok());
        assert!(inside(XmlElement::new("aux-bogus").with_attr("op", "1")).is_err());
        assert!(inside(XmlElement::new("aux-ack")).is_err());
        assert!(inside(XmlElement::new("aux-plant").with_attr("op", "1")).is_err());
        assert!(inside(XmlElement::new("aux-event").with_attr("op", "1")).is_err());
        // Nothing inside, or the right thing inside the wrong element.
        assert!(AuxPayload::from_xml(&XmlElement::new(ENVELOPE)).is_err());
        let ack = XmlElement::new("aux-ack").with_attr("op", "1");
        assert!(AuxPayload::from_xml(&XmlElement::new("gs:fetch").with_child(ack)).is_err());
    }

    #[test]
    fn sys_message_conversions_and_size() {
        let ack = AuxPayload::Ack { op: 1 };
        let m = ack.clone().into_message();
        assert_eq!(m.wire_size(), ack.to_xml().wire_size());
        assert_eq!(m.to_string(), "gs:aux-ack");
        let m: SysMessage = GsMessage::DescribeRequest {
            request: gsa_greenstone::RequestId(1),
            collection: "D".into(),
        }
        .into();
        assert_eq!(m.to_string(), "gs:gs:describe");
        let m: SysMessage = GdsMessage::Register {
            gs_host: "h".into(),
        }
        .into();
        assert!(m.to_string().starts_with("gds:"));
    }

    #[test]
    fn binary_variants_report_exact_frame_sizes() {
        let inner = GdsMessage::Deliver {
            id: gsa_types::MessageId::from_raw(7),
            origin: "Hamilton".into(),
            payload: XmlElement::new("event").with_attr("kind", "documents-added").into(),
        };
        let bin = SysMessage::GdsBin(inner.clone());
        assert_eq!(bin.wire_size(), inner.to_binary().len());
        assert!(
            bin.wire_size() < SysMessage::Gds(inner.clone()).wire_size(),
            "binary frame beats XML text"
        );
        for rel in [
            Reliable::Data {
                seq: 3,
                payload: inner,
            },
            Reliable::Ack { seq: 3, more: 0 },
            Reliable::Ack { seq: 4, more: 0b11 },
        ] {
            let encoded = rel.to_binary();
            assert_eq!(
                SysMessage::RelGdsBin(rel.clone()).wire_size(),
                encoded.len(),
                "size fn matches actual encoding"
            );
            assert_eq!(Reliable::from_binary(&encoded).unwrap(), rel);
        }
        assert!(SysMessage::RelGdsBin(Reliable::Ack { seq: 1, more: 0 })
            .to_string()
            .starts_with("rel-gds-bin:"));
    }

    #[test]
    fn reliable_envelope_accounts_payload_bytes() {
        let inner = GdsMessage::Register { gs_host: "h".into() };
        let plain = SysMessage::Gds(inner.clone()).wire_size();
        let data = SysMessage::RelGds(Reliable::Data {
            seq: 3,
            payload: inner,
        });
        assert!(data.wire_size() > plain, "envelope adds header bytes");
        assert!(data.to_string().starts_with("rel-gds:"));
        let ack = SysMessage::RelGds(Reliable::Ack { seq: 3, more: 0 });
        assert!(ack.wire_size() > 0);
        assert!(ack.wire_size() < plain, "acks are small");
    }
}
