//! The sizes charged to the network are computed, not measured: a size
//! is the message's wire description run into a counter instead of a
//! tree or a buffer, with a payload counted at its memoised length.
//! These properties hold the counters to the bytes the encoders actually
//! write, on both wires, for every variant and every payload
//! representation; check that sizing allocates nothing; that both
//! decoders return what was sent; and that an event published from an
//! `Arc<Event>` is, to a receiver on either wire, the event that was
//! sent.

use gsa_gds::{GdsMessage, ResolveToken};
use gsa_types::{
    keys, CollectionId, DocSummary, Event, EventId, EventKind, HostName, MessageId,
    MetadataRecord, SimTime,
};
use gsa_wire::codec::event_to_xml;
use gsa_wire::{parse_document, InterestSummary, Payload, Reliable, WireMessage, XmlElement};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread. Per thread, so that the other
    /// properties running beside a measured window do not show in it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The counting allocator of the zero-allocation tests
/// (`gsa-simnet/tests/step_zero_alloc.rs`), counting per thread.
struct CountingAlloc;

fn count_one() {
    // No destructor is registered for a `Cell<u64>`, so the slot is
    // there for as long as the thread allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Free text with the escaped characters, quotes and non-ASCII.
const TEXT: &str = "[ -~\u{e9}\u{3bb}\u{65e5}]{0,20}";
/// Host names as a hostile peer might spell them: every character the
/// XML writer escapes, in attribute and in text position, and the empty
/// name. Sized, never decoded: the readers refuse an empty name.
const NASTY_HOST: &str = "[A-Za-z<>&\"' .\u{e9}-]{0,10}";
/// Free text that is not whitespace alone, which the XML parser drops.
const VALUE: &str = "[!-~\u{e9}\u{3bb}\u{65e5}][ -~\u{e9}\u{3bb}\u{65e5}]{0,12}";
/// Host names both wires carry faithfully.
const PLAIN_HOST: &str = "[A-Za-z][A-Za-z0-9-]{0,8}";

/// A metadata key the v2 wire writes as a code (a Dublin Core element)
/// or spells out (anything else, a near miss like `dc.title` included).
fn arb_key() -> BoxedStrategy<String> {
    prop_oneof![
        prop::sample::select(&keys::DUBLIN_CORE).prop_map(str::to_owned),
        "[A-Za-z.]{1,6}",
        "dc\\.[a-z]{1,8}",
    ]
}

/// An event whose root and origin host the v2 wire writes by reference
/// (a fresh event at its publisher) or spells out (a rewritten one, or
/// one whose origin is on another host).
fn arb_event() -> BoxedStrategy<Event> {
    let doc = (
        "[a-z0-9<&]{1,8}",
        prop::collection::vec((arb_key(), TEXT), 0..3),
        TEXT,
    )
        .prop_map(|(id, pairs, excerpt)| {
            let mut md = MetadataRecord::new();
            for (k, v) in pairs {
                md.add(k, v);
            }
            DocSummary::new(id).with_metadata(md).with_excerpt(excerpt)
        });
    let elsewhere = (0u8..4, "[A-Za-z][A-Za-z0-9]{0,8}", 0u64..=u64::MAX);
    (
        "[A-Za-z][A-Za-z0-9]{0,8}",
        "[A-Za-z][A-Za-z0-9]{0,8}",
        0u64..=u64::MAX,
        0usize..EventKind::ALL.len(),
        (prop::collection::vec(doc, 0..4), elsewhere),
        prop::collection::vec("[A-Za-z][A-Za-z0-9]{0,6}", 0..3),
    )
        .prop_map(|(host, coll, seq, kind, (docs, (shape, other, root_seq)), provenance)| {
            // Bit 0 moves the origin to another host, bit 1 the root
            // to another id.
            let origin_host = if shape & 1 == 1 { &other } else { &host };
            let mut event = Event::new(
                EventId::new(host.as_str(), seq),
                CollectionId::new(origin_host.as_str(), coll.as_str()),
                EventKind::ALL[kind],
                SimTime::from_micros(seq / 3),
            )
            .with_docs(docs);
            if shape & 2 == 2 {
                event.root = EventId::new(other.as_str(), root_seq);
            }
            event.provenance = provenance
                .into_iter()
                .map(|h| CollectionId::new(h.as_str(), "P"))
                .collect();
            event
        })
}

/// A payload in each of its representations: event-sourced, XML-sourced,
/// either of them frozen, received as bytes, and three non-event bodies —
/// free-form, one whose root is called `target` like the children it
/// follows, and one called like a GDS message.
fn arb_payload() -> BoxedStrategy<Payload> {
    (arb_event(), 0u8..10, TEXT).prop_map(|(event, shape, text)| {
        let body = |name: &str| {
            XmlElement::new(name)
                .with_attr("a", text.as_str())
                // Not whitespace alone, which the parser drops.
                .with_text(format!("n{text}"))
        };
        let mut payload = match shape {
            0 | 1 => Payload::from_event(Arc::new(event)),
            2 | 3 => Payload::from(event_to_xml(&event)),
            4 => {
                let mut p = Payload::from_event(Arc::new(event));
                p.freeze();
                Payload::from_frozen(p.frozen().unwrap().clone())
            }
            5 => Payload::from(body("note")),
            6 | 7 => Payload::from(body("target")),
            _ => Payload::from(body("gds:publish").with_child(XmlElement::new("target"))),
        };
        if shape % 2 == 1 {
            payload.freeze();
        }
        payload
    })
}

fn arb_id() -> BoxedStrategy<u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        Just(9u64),
        Just(10u64),
        0u64..=u64::MAX
    ]
}

fn arb_host(host: &'static str) -> BoxedStrategy<HostName> {
    host.prop_map(HostName::new)
}

/// Every variant that carries a payload.
fn arb_carrier(host: &'static str) -> BoxedStrategy<GdsMessage> {
    let targets = prop::collection::vec(arb_host(host), 0..4);
    (0u8..5, arb_id(), arb_host(host), targets, arb_payload()).prop_map(
        |(variant, id, origin, targets, payload)| {
            let id = MessageId::from_raw(id);
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

fn arb_attr_map() -> BoxedStrategy<BTreeMap<String, BTreeSet<String>>> {
    let values = prop::collection::btree_set(VALUE, 1..4);
    prop::collection::vec(("[a-z:<&]{1,8}", values), 0..4)
        .prop_map(|entries| entries.into_iter().collect())
}

fn arb_summary() -> BoxedStrategy<InterestSummary> {
    (0u8..4, prop::collection::vec(PLAIN_HOST, 1..3), arb_attr_map()).prop_map(
        |(shape, anchors, digests)| {
            let mut summary = match shape {
                0 => return InterestSummary::wildcard(),
                1 => return InterestSummary::empty(),
                _ => InterestSummary::empty(),
            };
            for anchor in anchors {
                summary.add_collection(format!("{anchor}.D"));
                summary.add_host(anchor);
            }
            for (key, values) in digests {
                summary.constrain_attr(key, values);
            }
            summary
        },
    )
}

/// The eleven variants that carry neither a payload nor other
/// messages, the beacon twice: at version 0 and at any version.
fn arb_control(host: &'static str) -> BoxedStrategy<GdsMessage> {
    (
        (0u8..12, arb_host(host), arb_host(host), arb_id(), 0u8..=255),
        arb_summary(),
        arb_attr_map(),
    )
        .prop_map(|((variant, a, b, number, version), summary, grants)| match variant {
            0 => GdsMessage::Register { gs_host: a },
            1 => GdsMessage::Unregister { gs_host: a },
            2 => GdsMessage::RegisterUp { gs_host: a, via: b },
            3 => GdsMessage::UnregisterUp { gs_host: a },
            4 => GdsMessage::Resolve {
                token: ResolveToken(number),
                name: a,
                reply_to: b,
            },
            5 => GdsMessage::ResolveResponse {
                token: ResolveToken(number),
                name: a,
                result: (version % 2 == 0).then_some(b),
            },
            6 => GdsMessage::HeartbeatAck { version: 0 },
            7 => GdsMessage::HeartbeatAck { version: number },
            8 => GdsMessage::Adopt { child: a },
            9 => GdsMessage::Detach { child: a },
            10 => GdsMessage::SummaryUpdate {
                from: a,
                version: number,
                summary: Box::new(summary),
            },
            _ => GdsMessage::RendezvousGrant {
                from: a,
                version: number,
                grants,
            },
        })
}

/// All seventeen variants, a batch nested as deep as the decoders allow:
/// once, around anything but a batch.
fn arb_message(host: &'static str) -> BoxedStrategy<GdsMessage> {
    let item = prop_oneof![arb_carrier(host), arb_control(host)];
    prop_oneof![
        arb_carrier(host),
        arb_control(host),
        prop::collection::vec(item, 0..4).prop_map(|items| GdsMessage::Batch(items.into())),
    ]
}

/// Freezes every payload in `msg`, as a v2 sender does before it sends.
fn freeze(msg: &mut GdsMessage) {
    match msg {
        GdsMessage::Publish { payload, .. }
        | GdsMessage::PublishTargeted { payload, .. }
        | GdsMessage::Broadcast { payload, .. }
        | GdsMessage::Route { payload, .. }
        | GdsMessage::Deliver { payload, .. } => payload.freeze(),
        GdsMessage::Batch(items) => {
            *items = items
                .iter()
                .cloned()
                .map(|mut item| {
                    freeze(&mut item);
                    item
                })
                .collect();
        }
        _ => {}
    }
}

proptest! {
    #[test]
    fn computed_sizes_are_the_encoded_lengths_on_both_wires(msg in arb_message(NASTY_HOST)) {
        prop_assert_eq!(msg.wire_size(), msg.to_xml().to_xml_string().len());
        // The counter and the `Vec` sink agree.
        prop_assert_eq!(msg.binary_wire_size(), msg.to_binary().len());
        // Sizing twice reads the memo; it must say the same.
        prop_assert_eq!(msg.wire_size(), msg.to_xml().wire_size());
        // A clone (what the next hop holds) sizes the same.
        prop_assert_eq!(msg.clone().wire_size(), msg.wire_size());
    }

    #[test]
    fn the_reliable_envelope_adds_exactly_its_own_bytes(
        msg in arb_message(NASTY_HOST),
        seq in arb_id(),
        more in arb_id(),
    ) {
        for rel in [
            Reliable::Data { seq, payload: msg.clone() },
            Reliable::Ack { seq, more: 0 },
            Reliable::Ack { seq, more },
        ] {
            prop_assert_eq!(rel.wire_size(), rel.to_xml().to_xml_string().len());
            prop_assert_eq!(rel.binary_wire_size(), rel.to_binary().len());
            if !matches!(rel, Reliable::Data { .. }) {
                prop_assert_eq!(&Reliable::from_binary(&rel.to_binary()).unwrap(), &rel);
                let text = rel.to_xml().to_document_string();
                prop_assert_eq!(&Reliable::from_xml(&parse_document(&text).unwrap()).unwrap(), &rel);
            }
        }
        // Tag 2 was a nack no node ever sent: at any seq, it is refused.
        let mut nack = Reliable::<GdsMessage>::Ack { seq, more: 0 }.to_binary();
        nack[2] = 2;
        prop_assert!(Reliable::<GdsMessage>::from_binary(&nack).is_err());
    }

    /// Sizing any message allocates nothing once its payloads' XML
    /// lengths are memoised — and, on the v2 wire, once its payloads are
    /// frozen, as they are before a v2 edge sends them.
    #[test]
    fn sizing_allocates_nothing(msg in arb_message(NASTY_HOST)) {
        let mut msg = msg;
        let text_size = msg.wire_size();
        let before = allocations();
        let again = msg.wire_size();
        prop_assert!(allocations() == before, "v1 size of {} allocated", &msg);
        prop_assert_eq!(again, text_size);

        freeze(&mut msg);
        // Also freezes a summary's encoding, which clones share.
        let frame_size = msg.binary_wire_size();
        let rel = Reliable::Data { seq: 7, payload: msg };
        let before = allocations();
        let sizes = (rel.wire_size(), rel.binary_wire_size());
        prop_assert!(allocations() == before, "a size under the envelope allocated");
        prop_assert!(sizes.0 > text_size && sizes.1 > frame_size);
    }

    /// Whatever is sent with names the wires can carry comes back equal
    /// from both decoders, bare and under the reliable envelope.
    #[test]
    fn every_message_round_trips_on_both_wires(msg in arb_message(PLAIN_HOST), seq in arb_id()) {
        prop_assert_eq!(&GdsMessage::from_binary(&msg.to_binary()).unwrap(), &msg);
        let text = msg.to_xml().to_document_string();
        prop_assert_eq!(&GdsMessage::from_xml(&parse_document(&text).unwrap()).unwrap(), &msg);

        let rel = Reliable::Data { seq, payload: msg };
        prop_assert_eq!(&Reliable::from_binary(&rel.to_binary()).unwrap(), &rel);
        let text = rel.to_xml().to_document_string();
        prop_assert_eq!(&Reliable::from_xml(&parse_document(&text).unwrap()).unwrap(), &rel);
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
        let id = MessageId::from_raw(id);
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

/// Every flood frame, replay-ring entry and edge buffer holds messages by
/// value, so each pays the largest variant. The summary is boxed to keep
/// an announcement's 88-byte `InterestSummary` out of that size.
#[test]
fn a_message_is_at_most_seventy_two_bytes() {
    let size = std::mem::size_of::<GdsMessage>();
    assert!(size <= 72, "a GdsMessage is {size} bytes");
}
