//! The unified on-the-wire message type and the alerting payloads that
//! ride the GS network.

use gsa_gds::GdsMessage;
use gsa_greenstone::GsMessage;
use gsa_types::{CollectionId, CollectionName};
use gsa_wire::codec::collection_from_text;
use gsa_wire::xml::{XmlLen, XmlPut};
use gsa_wire::{Payload, Reliable, WireError, WireFormat, WireMessage, XmlElement};
use std::fmt;

/// Every message a node in the full system can receive: GS network
/// traffic (server ↔ server, receptionist ↔ server) — the Greenstone
/// protocol and the alerting payloads beside it — or GDS protocol
/// (server ↔ directory, directory ↔ directory), the latter optionally
/// wrapped in the reliable-delivery envelope. A GDS frame travels in
/// the deployment's one wire format, so the carrier does not name it:
/// [`SysMessage::wire_size`] takes it as an argument.
#[derive(Debug, Clone, PartialEq)]
pub enum SysMessage {
    /// A Greenstone-protocol message.
    Gs(GsMessage),
    /// An alerting operation riding the GS network (auxiliary profiles
    /// and forwarded events, Section 4.2) under the sender's sequence
    /// number, or the acknowledgement of a window of them: on the wire a
    /// `gs:alerting` element, which a Greenstone server never
    /// interprets.
    Aux(Reliable<AuxPayload>),
    /// A directory-service message.
    Gds(GdsMessage),
    /// A directory-service message under the opt-in reliable-delivery
    /// envelope (per-hop sequence numbers, acks and retransmission).
    RelGds(Reliable<GdsMessage>),
}

impl SysMessage {
    /// The serialized size in bytes (for the simulator's byte
    /// accounting) in a deployment speaking `format`: a GDS frame is its
    /// v1 XML text length or its exact v2 frame length, a GS-network
    /// frame is XML text on either wire.
    pub fn wire_size(&self, format: WireFormat) -> usize {
        let binary = format == WireFormat::Binary;
        match self {
            SysMessage::Gs(m) => m.wire_size(),
            SysMessage::Aux(frame) => {
                let mut len = XmlLen::default();
                put_aux(frame, &mut len);
                len.element(ENVELOPE)
            }
            SysMessage::Gds(m) if binary => m.binary_wire_size(),
            SysMessage::Gds(m) => m.wire_size(),
            SysMessage::RelGds(rel) if binary => rel.binary_wire_size(),
            SysMessage::RelGds(rel) => rel.wire_size(),
        }
    }
}

impl fmt::Display for SysMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SysMessage::Gs(m) => write!(f, "gs:{m}"),
            SysMessage::Aux(frame) => write!(f, "gs:{}", aux_tag(frame)),
            SysMessage::Gds(m) => write!(f, "gds:{m}"),
            SysMessage::RelGds(rel) => write!(f, "rel-gds:{}", rel.seq()),
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

/// The alerting-layer operations of the GS network (Section 4.2). Each
/// crosses as the data of a [`Reliable`] envelope: the sender keeps it in
/// its retransmission queue until the receiver acknowledges the
/// envelope's sequence number, and retries it until then (Section 7
/// reconciliation). Handling one twice is harmless.
#[derive(Debug, Clone, PartialEq)]
pub enum AuxPayload {
    /// Plant an auxiliary profile: "the sub-collection you host under
    /// `sub_name` is part of my collection `super_collection`".
    Plant {
        /// The super-collection (on the sending host).
        super_collection: CollectionId,
        /// The sub-collection's local name on the receiving host.
        sub_name: CollectionName,
    },
    /// Remove a previously planted auxiliary profile (the sub-collection
    /// was removed from the super-collection).
    Delete {
        /// The super-collection the profile pointed at.
        super_collection: CollectionId,
        /// The sub-collection's local name on the receiving host.
        sub_name: CollectionName,
    },
    /// An event matched by an auxiliary profile, forwarded from the
    /// sub-collection's host to the super-collection's host.
    ForwardEvent {
        /// The super-collection's local name on the receiving host.
        super_name: CollectionName,
        /// The matched event (still with its original origin), as it
        /// travels everywhere else: the receiver decodes it from what
        /// crossed ([`Payload::decode_event`]).
        event: Payload,
    },
}

/// The GS-network element every alerting frame rides in.
const ENVELOPE: &str = "gs:alerting";

/// The name of a frame's own element inside `gs:alerting`.
fn aux_tag(frame: &Reliable<AuxPayload>) -> &'static str {
    match frame {
        Reliable::Data {
            payload: AuxPayload::Plant { .. },
            ..
        } => "aux-plant",
        Reliable::Data {
            payload: AuxPayload::Delete { .. },
            ..
        } => "aux-delete",
        Reliable::Data {
            payload: AuxPayload::ForwardEvent { .. },
            ..
        } => "aux-event",
        Reliable::Ack { .. } => "aux-ack",
    }
}

/// Puts the content of the `gs:alerting` element — the frame's own
/// element, with the sequence number as its `op`: the one description
/// of its XML form. An acknowledgement carries its window as `more`
/// when it names more than `op`. A forwarded event goes in as the
/// payload it is, so its size is the memoised one.
fn put_aux(frame: &Reliable<AuxPayload>, out: &mut impl XmlPut) {
    out.child(aux_tag(frame), |el| {
        el.num_attr("op", frame.seq());
        match frame {
            Reliable::Data {
                payload: AuxPayload::ForwardEvent { super_name, event },
                ..
            } => {
                el.attr("super-name", super_name.as_str());
                el.payload(event);
            }
            Reliable::Data {
                payload:
                    AuxPayload::Plant {
                        super_collection,
                        sub_name,
                    },
                ..
            }
            | Reliable::Data {
                payload:
                    AuxPayload::Delete {
                        super_collection,
                        sub_name,
                    },
                ..
            } => {
                el.attr("super", &super_collection.to_string());
                el.attr("sub-name", sub_name.as_str());
            }
            Reliable::Ack { more: 0, .. } => {}
            Reliable::Ack { more, .. } => el.num_attr("more", *more),
        }
    });
}

/// Encodes an alerting frame as its `gs:alerting` element.
pub fn aux_to_xml(frame: &Reliable<AuxPayload>) -> XmlElement {
    let mut el = XmlElement::new(ENVELOPE);
    put_aux(frame, &mut el);
    el
}

/// Decodes an alerting frame from the element [`aux_to_xml`] produces.
/// A forwarded event is taken as it came — the last child element — and
/// decoded when it is delivered.
///
/// # Errors
///
/// Returns [`WireError`] on unknown tags or missing/invalid parts.
pub fn aux_from_xml(envelope: &XmlElement) -> Result<Reliable<AuxPayload>, WireError> {
    let el = match envelope.elements().next() {
        Some(el) if envelope.name() == ENVELOPE => el,
        _ => return Err(WireError::malformed("not an alerting payload")),
    };
    let attr = |name: &str| {
        el.attr(name)
            .ok_or_else(|| WireError::malformed(format!("missing {name}")))
    };
    let number = |text: &str| {
        text.parse::<u64>()
            .map_err(|_| WireError::malformed("invalid op or window"))
    };
    let seq = number(attr("op")?)?;
    let payload = match el.name() {
        tag @ ("aux-plant" | "aux-delete") => {
            let super_collection = collection_from_text(attr("super")?)?;
            let sub_name = CollectionName::new(attr("sub-name")?);
            match tag {
                "aux-plant" => AuxPayload::Plant {
                    super_collection,
                    sub_name,
                },
                _ => AuxPayload::Delete {
                    super_collection,
                    sub_name,
                },
            }
        }
        "aux-event" => AuxPayload::ForwardEvent {
            super_name: CollectionName::new(attr("super-name")?),
            event: el
                .elements()
                .last()
                .cloned()
                .map(Payload::from)
                .ok_or_else(|| WireError::malformed("aux-event without event"))?,
        },
        "aux-ack" => {
            let more = el.attr("more").map_or(Ok(0), number)?;
            return Ok(Reliable::Ack { seq, more });
        }
        other => {
            return Err(WireError::malformed(format!(
                "unknown alerting payload <{other}>"
            )))
        }
    };
    Ok(Reliable::Data { seq, payload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_types::{Event, EventId, EventKind, SimTime};
    use std::sync::Arc;

    fn round_trip(frame: Reliable<AuxPayload>) {
        let text = aux_to_xml(&frame).to_document_string();
        let parsed = gsa_wire::parse_document(&text).unwrap();
        assert_eq!(aux_from_xml(&parsed).unwrap(), frame);
    }

    #[test]
    fn all_payloads_round_trip() {
        let data = |seq, payload| Reliable::Data { seq, payload };
        round_trip(data(
            1,
            AuxPayload::Plant {
                super_collection: CollectionId::new("Hamilton", "D"),
                sub_name: "E".into(),
            },
        ));
        round_trip(data(
            2,
            AuxPayload::Delete {
                super_collection: CollectionId::new("Hamilton", "D"),
                sub_name: "E".into(),
            },
        ));
        round_trip(data(
            3,
            AuxPayload::ForwardEvent {
                super_name: "D".into(),
                event: Payload::from_event(Arc::new(Event::new(
                    EventId::new("London", 4),
                    CollectionId::new("London", "E"),
                    EventKind::CollectionRebuilt,
                    SimTime::from_millis(8),
                ))),
            },
        ));
        round_trip(Reliable::Ack { seq: 4, more: 0 });
        round_trip(Reliable::Ack {
            seq: 4,
            more: 0b101,
        });
        round_trip(Reliable::Ack {
            seq: u64::MAX,
            more: u64::MAX,
        });
    }

    #[test]
    fn unknown_payload_errors() {
        let inside = |el: XmlElement| aux_from_xml(&XmlElement::new(ENVELOPE).with_child(el));
        assert!(inside(XmlElement::new("aux-ack").with_attr("op", "1")).is_ok());
        assert!(inside(XmlElement::new("aux-bogus").with_attr("op", "1")).is_err());
        assert!(inside(XmlElement::new("aux-ack")).is_err());
        let window = XmlElement::new("aux-ack").with_attr("op", "1");
        assert!(inside(window.clone().with_attr("more", "-1")).is_err());
        assert!(inside(window.with_attr("more", "x")).is_err());
        assert!(inside(XmlElement::new("aux-plant").with_attr("op", "1")).is_err());
        assert!(inside(XmlElement::new("aux-event").with_attr("op", "1")).is_err());
        // Nothing inside, or the right thing inside the wrong element.
        assert!(aux_from_xml(&XmlElement::new(ENVELOPE)).is_err());
        let ack = XmlElement::new("aux-ack").with_attr("op", "1");
        assert!(aux_from_xml(&XmlElement::new("gs:fetch").with_child(ack)).is_err());
    }

    #[test]
    fn sys_message_conversions_and_size() {
        for ack in [
            Reliable::Ack { seq: 1, more: 0 },
            Reliable::Ack { seq: 1, more: 6 },
        ] {
            let m = SysMessage::Aux(ack.clone());
            for format in [WireFormat::Xml, WireFormat::Binary] {
                assert_eq!(m.wire_size(format), aux_to_xml(&ack).wire_size());
            }
            assert_eq!(m.to_string(), "gs:aux-ack");
        }
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
        let frame = SysMessage::Gds(inner.clone());
        assert_eq!(frame.wire_size(WireFormat::Binary), inner.to_binary().len());
        assert!(
            frame.wire_size(WireFormat::Binary) < frame.wire_size(WireFormat::Xml),
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
                SysMessage::RelGds(rel.clone()).wire_size(WireFormat::Binary),
                encoded.len(),
                "size fn matches actual encoding"
            );
            assert_eq!(Reliable::from_binary(&encoded).unwrap(), rel);
        }
    }

    #[test]
    fn reliable_envelope_accounts_payload_bytes() {
        let inner = GdsMessage::Register { gs_host: "h".into() };
        let plain = SysMessage::Gds(inner.clone()).wire_size(WireFormat::Xml);
        let data = SysMessage::RelGds(Reliable::Data {
            seq: 3,
            payload: inner,
        });
        assert!(data.wire_size(WireFormat::Xml) > plain, "envelope adds header bytes");
        assert!(data.to_string().starts_with("rel-gds:"));
        let ack = SysMessage::RelGds(Reliable::Ack { seq: 3, more: 0 });
        assert!(ack.wire_size(WireFormat::Xml) > 0);
        assert!(ack.wire_size(WireFormat::Xml) < plain, "acks are small");
    }
}
