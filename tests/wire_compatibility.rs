//! Wire-format integration tests: every protocol message survives the
//! full XML text path — element → text → parse → decode — including
//! randomized events and profiles (proptest), and the v2 binary
//! encoding is *equivalent* to the v1 XML text — decoding a value from
//! either wire yields the same thing, and the format-aware size
//! accounting matches the bytes actually produced.

use gsa_gds::{GdsMessage, ResolveToken};
use gsa_greenstone::{GsMessage, RequestId};
use gsa_profile::{parse_profile, xml::expr_from_xml, xml::expr_to_xml};
use gsa_store::Query;
use gsa_types::{
    keys, CollectionId, DocSummary, Event, EventId, EventKind, MessageId,
    MetadataRecord, SimTime,
};
use gsa_wire::binary::{
    event_binary_size, event_from_binary, event_to_binary, metadata_from_binary,
    metadata_to_binary, BinReader,
};
use gsa_wire::codec::{event_from_xml, event_to_xml};
use gsa_wire::{parse_document, XmlElement};
use proptest::prelude::*;

/// The XML wire's text path: what a sender writes, read back.
fn through_text(body: XmlElement) -> XmlElement {
    parse_document(&body.to_xml_string()).expect("the written text parses")
}

#[test]
fn gs_messages_survive_the_full_wire_path() {
    let messages = vec![
        GsMessage::DescribeRequest {
            request: RequestId(1),
            collection: "D".into(),
        },
        GsMessage::SearchRequest {
            request: RequestId(2),
            collection: "D".into(),
            index: "text".into(),
            query: Query::parse("digital AND (librar* OR NOT archive)").unwrap(),
            visited: vec![CollectionId::new("A", "B")],
            via_parent: true,
        },
        GsMessage::FetchRequest {
            request: RequestId(3),
            collection: "E".into(),
            visited: vec![],
            via_parent: false,
        },
    ];
    for msg in messages {
        let body = through_text(msg.to_xml());
        assert_eq!(GsMessage::from_xml(&body).unwrap(), msg);
    }
}

#[test]
fn gds_messages_survive_the_full_wire_path() {
    let event = Event::new(
        EventId::new("Hamilton", 5),
        CollectionId::new("Hamilton", "D"),
        EventKind::CollectionRebuilt,
        SimTime::from_millis(100),
    );
    let messages = vec![
        GdsMessage::Register {
            gs_host: "Hamilton".into(),
        },
        GdsMessage::publish_event(MessageId::from_raw(1), &event),
        GdsMessage::Resolve {
            token: ResolveToken(4),
            name: "London".into(),
            reply_to: "Hamilton".into(),
        },
    ];
    for msg in messages {
        let body = through_text(msg.to_xml());
        assert_eq!(GdsMessage::from_xml(&body).unwrap(), msg);
    }
}

#[test]
fn profiles_with_nasty_strings_survive() {
    let texts = [
        r#"dc.Title = "quotes \" and <angles> & ampersands""#,
        r#"text ~ "*digi*tal*""#,
        r#"doc in ["id<1>", "id&2", "id\"3\""]"#,
    ];
    for text in texts {
        let expr = parse_profile(text).unwrap();
        let body = through_text(expr_to_xml(&expr));
        assert_eq!(expr_from_xml(&body).unwrap(), expr, "profile {text}");
    }
}

proptest! {
    #[test]
    fn random_events_round_trip(
        host in "[A-Za-z][A-Za-z0-9]{0,8}",
        name in "[A-Za-z][A-Za-z0-9]{0,8}",
        seq in 0u64..1000,
        kind_idx in 0usize..EventKind::ALL.len(),
        titles in prop::collection::vec("[ -~]{0,40}", 0..4),
        excerpt in "[ -~]{0,80}",
    ) {
        let mut event = Event::new(
            EventId::new(host.as_str(), seq),
            CollectionId::new(host.as_str(), name.as_str()),
            EventKind::ALL[kind_idx],
            SimTime::from_micros(seq),
        );
        let docs = titles
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let md: MetadataRecord = [(keys::TITLE, t.as_str())].into_iter().collect();
                DocSummary::new(format!("doc-{i}"))
                    .with_metadata(md)
                    .with_excerpt(excerpt.as_str())
            })
            .collect();
        event.docs = docs;
        let body = through_text(event_to_xml(&event));
        prop_assert_eq!(event_from_xml(&body).unwrap(), event);
    }

    /// Cross-format equivalence for events: decoding the binary wire
    /// and decoding the XML wire yield the same event, and the binary
    /// size accounting matches the bytes actually produced.
    #[test]
    fn random_events_agree_across_formats(
        host in "[A-Za-z][A-Za-z0-9]{0,8}",
        name in "[A-Za-z][A-Za-z0-9]{0,8}",
        seq in 0u64..1000,
        kind_idx in 0usize..EventKind::ALL.len(),
        titles in prop::collection::vec("[ -~]{0,40}", 0..4),
    ) {
        let mut event = Event::new(
            EventId::new(host.as_str(), seq),
            CollectionId::new(host.as_str(), name.as_str()),
            EventKind::ALL[kind_idx],
            SimTime::from_micros(seq),
        );
        event.provenance = vec![CollectionId::new(name.as_str(), host.as_str())];
        event.docs = titles
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let md: MetadataRecord = [(keys::TITLE, t.as_str())].into_iter().collect();
                DocSummary::new(format!("doc-{i}")).with_metadata(md)
            })
            .collect();
        let mut bin = Vec::new();
        event_to_binary(&event, &mut bin);
        prop_assert_eq!(bin.len(), event_binary_size(&event));
        let from_binary = event_from_binary(&mut BinReader::new(&bin)).unwrap();
        let from_xml = event_from_xml(&event_to_xml(&event)).unwrap();
        prop_assert_eq!(&from_binary, &from_xml);
        prop_assert_eq!(&from_binary, &event);
    }

    /// Cross-format equivalence for metadata records, including
    /// repeated keys (multi-valued fields).
    #[test]
    fn random_metadata_round_trips_in_binary(
        pairs in prop::collection::vec(("[A-Za-z.]{1,12}", "[ -~]{0,30}"), 0..8),
    ) {
        let mut md = MetadataRecord::new();
        for (k, v) in &pairs {
            md.add(k.as_str(), v.as_str());
        }
        let mut bin = Vec::new();
        metadata_to_binary(&md, &mut bin);
        let back = metadata_from_binary(&mut BinReader::new(&bin)).unwrap();
        prop_assert_eq!(back, md);
    }
}

/// Replays a shrunk proptest counterexample (a one-document event
/// whose title is a single space, once mangled by whitespace-trimming
/// in the XML decoder). The vendored proptest shim does not read
/// `.proptest-regressions` files, so recorded counterexamples are
/// pinned as explicit tests like this one and the seed file is then
/// removed — see DESIGN.md.
#[test]
fn regression_single_space_title_round_trips() {
    let mut event = Event::new(
        EventId::new("A", 0),
        CollectionId::new("A", "A"),
        EventKind::ALL[0],
        SimTime::from_micros(0),
    );
    let md: MetadataRecord = [(keys::TITLE, " ")].into_iter().collect();
    event.docs = vec![DocSummary::new("doc-0").with_metadata(md).with_excerpt("")];
    let body = through_text(event_to_xml(&event));
    assert_eq!(event_from_xml(&body).unwrap(), event);
}

/// The sizes the simulator charges to the network are the sizes the
/// wire actually produces, in both formats — the byte counters in the
/// experiments are real serialization costs, not estimates.
#[test]
fn sim_byte_accounting_matches_actual_encodings() {
    let event = Event::new(
        EventId::new("Hamilton", 7),
        CollectionId::new("Hamilton", "D"),
        EventKind::DocumentsAdded,
        SimTime::from_millis(40),
    )
    .with_docs(vec![DocSummary::new("doc-1")
        .with_metadata([(keys::TITLE, "On Digital Libraries")].into_iter().collect())]);
    let messages = vec![
        GdsMessage::publish_event(MessageId::from_raw(1), &event),
        GdsMessage::Register {
            gs_host: "Hamilton".into(),
        },
        GdsMessage::Batch(vec![
            GdsMessage::publish_event(MessageId::from_raw(2), &event),
            GdsMessage::publish_event(MessageId::from_raw(3), &event),
        ].into()),
    ];
    for msg in messages {
        // v1: the XML text the paper's implementation would write.
        assert_eq!(
            msg.wire_size(),
            msg.to_xml().to_xml_string().len(),
            "XML wire_size must equal the serialized text length"
        );
        // v2: the framed binary encoding, computed without encoding.
        assert_eq!(
            msg.binary_wire_size(),
            msg.to_binary().len(),
            "binary wire_size must equal the actual frame length"
        );
        // And both wires carry the same message.
        assert_eq!(GdsMessage::from_binary(&msg.to_binary()).unwrap(), msg);
        assert_eq!(GdsMessage::from_xml(&msg.to_xml()).unwrap(), msg);
    }
}
