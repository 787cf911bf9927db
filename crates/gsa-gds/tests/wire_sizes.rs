//! The sizes charged to the network are computed, not measured: a
//! message that carries a payload sizes as envelope arithmetic plus the
//! payload's memoised length. These properties hold that arithmetic to
//! the bytes the encoders actually write, on both wires, for every
//! payload-carrying variant and every payload representation — and check
//! that an event published from an `Arc<Event>` is, to a receiver on
//! either wire, the event that was sent.

use gsa_gds::GdsMessage;
use gsa_types::{
    CollectionId, DocSummary, Event, EventId, EventKind, HostName, MessageId, MetadataRecord,
    SimTime,
};
use gsa_wire::codec::event_to_xml;
use gsa_wire::reliable::{reliable_to_xml, reliable_wire_size};
use gsa_wire::{InterestSummary, Payload, Reliable, XmlElement};
use proptest::prelude::*;
use std::sync::Arc;

/// Free text with the escaped characters, quotes and non-ASCII.
const TEXT: &str = "[ -~\u{e9}\u{3bb}\u{65e5}]{0,20}";
/// Host names as a hostile peer might spell them: every character the
/// XML writer escapes, in attribute and in text position, and the empty
/// name.
const NASTY_HOST: &str = "[A-Za-z<>&\"' .\u{e9}-]{0,10}";

fn arb_event() -> BoxedStrategy<Event> {
    let doc = (
        "[a-z0-9<&]{1,8}",
        prop::collection::vec(("[A-Za-z.]{1,6}", TEXT), 0..3),
        TEXT,
    )
        .prop_map(|(id, pairs, excerpt)| {
            let mut md = MetadataRecord::new();
            for (k, v) in pairs {
                md.add(k, v);
            }
            DocSummary::new(id).with_metadata(md).with_excerpt(excerpt)
        });
    (
        "[A-Za-z][A-Za-z0-9]{0,8}",
        "[A-Za-z][A-Za-z0-9]{0,8}",
        0u64..=u64::MAX,
        0usize..EventKind::ALL.len(),
        prop::collection::vec(doc, 0..4),
        prop::collection::vec("[A-Za-z][A-Za-z0-9]{0,6}", 0..3),
    )
        .prop_map(|(host, coll, seq, kind, docs, provenance)| {
            let mut event = Event::new(
                EventId::new(host.as_str(), seq),
                CollectionId::new(host.as_str(), coll.as_str()),
                EventKind::ALL[kind],
                SimTime::from_micros(seq / 3),
            )
            .with_docs(docs);
            event.provenance = provenance
                .into_iter()
                .map(|h| CollectionId::new(h.as_str(), "P"))
                .collect();
            event
        })
}

/// A payload in each of its representations: event-sourced, XML-sourced,
/// either of them frozen, received as bytes, and a non-event body.
fn arb_payload() -> BoxedStrategy<Payload> {
    (arb_event(), 0u8..6, TEXT).prop_map(|(event, shape, text)| {
        let mut payload = match shape {
            0 | 1 => Payload::from_event(Arc::new(event)),
            2 | 3 => Payload::from(event_to_xml(&event)),
            4 => {
                let mut p = Payload::from_event(Arc::new(event));
                p.freeze();
                Payload::from_frozen(p.frozen().unwrap().clone())
            }
            _ => Payload::from(
                XmlElement::new("note")
                    .with_attr("a", text.as_str())
                    .with_text(text),
            ),
        };
        if shape % 2 == 1 {
            payload.freeze();
        }
        payload
    })
}

fn arb_id() -> BoxedStrategy<MessageId> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        Just(9u64),
        Just(10u64),
        0u64..=u64::MAX
    ]
    .prop_map(MessageId::from_raw)
}

fn arb_hosts() -> BoxedStrategy<Vec<HostName>> {
    prop::collection::vec(NASTY_HOST, 0..4)
        .prop_map(|hosts| hosts.into_iter().map(HostName::new).collect())
}

/// Every variant that carries a payload.
fn arb_carrier() -> BoxedStrategy<GdsMessage> {
    (0u8..5, arb_id(), NASTY_HOST, arb_hosts(), arb_payload()).prop_map(
        |(variant, id, origin, targets, payload)| {
            let origin = HostName::new(origin);
            match variant {
                0 => GdsMessage::Publish { id, payload },
                1 => GdsMessage::PublishTargeted {
                    id,
                    targets,
                    payload,
                },
                2 => GdsMessage::Broadcast {
                    id,
                    origin,
                    payload,
                },
                3 => GdsMessage::Route {
                    id,
                    origin,
                    targets,
                    payload,
                },
                _ => GdsMessage::Deliver {
                    id,
                    origin,
                    payload,
                },
            }
        },
    )
}

fn arb_message() -> BoxedStrategy<GdsMessage> {
    let control = (0u8..4, NASTY_HOST).prop_map(|(variant, host)| match variant {
        0 => GdsMessage::Heartbeat,
        1 => GdsMessage::Register {
            gs_host: HostName::new(host),
        },
        2 => GdsMessage::Hello { version: 2 },
        _ => {
            let mut summary = InterestSummary::empty();
            summary.add_host(&host);
            GdsMessage::SummaryUpdate {
                from: HostName::new(host),
                version: 7,
                summary,
            }
        }
    });
    let item = prop_oneof![arb_carrier(), arb_carrier(), control];
    prop_oneof![
        arb_carrier(),
        arb_carrier(),
        prop::collection::vec(item, 0..4).prop_map(GdsMessage::Batch),
    ]
}

proptest! {
    #[test]
    fn computed_sizes_are_the_encoded_lengths_on_both_wires(msg in arb_message()) {
        prop_assert_eq!(msg.wire_size(), msg.to_xml().to_xml_string().len());
        prop_assert_eq!(msg.binary_wire_size(), msg.to_binary().len());
        // Sizing twice reads the memo; it must say the same.
        prop_assert_eq!(msg.wire_size(), msg.to_xml().wire_size());
        // A clone (what the next hop holds) sizes the same.
        prop_assert_eq!(msg.clone().wire_size(), msg.wire_size());
    }

    #[test]
    fn the_reliable_envelope_adds_exactly_its_own_bytes(msg in arb_message(), seq in arb_id()) {
        let seq = seq.as_u64();
        for rel in [
            Reliable::Data { seq, payload: msg.clone() },
            Reliable::Ack { seq },
            Reliable::Nack { seq },
        ] {
            prop_assert_eq!(
                reliable_wire_size(&rel, GdsMessage::wire_size),
                reliable_to_xml(&rel, GdsMessage::to_xml).to_xml_string().len()
            );
        }
    }

    /// An event published from the publisher's `Arc<Event>` reaches a
    /// receiver on either wire as the event that was sent — decoded from
    /// what crossed the wire, frozen or not.
    #[test]
    fn an_event_sourced_publish_decodes_equal_across_both_wires(
        event in arb_event(),
        id in arb_id(),
        freeze in 0u8..2,
    ) {
        let mut payload = Payload::from_event(Arc::new(event.clone()));
        if freeze == 1 {
            payload.freeze();
        }
        let sent = GdsMessage::Deliver { id, origin: HostName::new("Hamilton"), payload };

        let over_v2 = GdsMessage::from_binary(&sent.to_binary()).unwrap();
        prop_assert_eq!(over_v2.deliver_event().unwrap(), event.clone());
        prop_assert_eq!(&over_v2, &sent);

        let text = sent.to_xml().to_document_string();
        let over_v1 = GdsMessage::from_xml(&gsa_wire::parse_document(&text).unwrap()).unwrap();
        prop_assert_eq!(over_v1.deliver_event().unwrap(), event.clone());
        prop_assert_eq!(&over_v1, &sent);

        // And without a wire in between (the simulator hands the value
        // over): still the tree or the bytes.
        prop_assert_eq!(sent.deliver_event().unwrap(), event);
    }
}
