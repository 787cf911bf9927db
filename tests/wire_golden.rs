//! Golden bytes: one sample of every GDS message variant, and the
//! reliable envelope around one, pinned as literals on both wires — the
//! v2 frame in hex, the v1 text as `to_document_string()` writes it —
//! and one sample of every message of the GS network (the six
//! request/response messages, the three alerting operations and their
//! ack), which is XML only.
//!
//! For each sample the encoders must produce the literal, the three
//! size functions (`wire_size`, `binary_wire_size`, `SysMessage::wire_size`)
//! must report its length, and both decoders must return the value. A
//! codec change that moves a byte on either wire fails here first.

use gsa_core::{aux_from_xml, aux_to_xml, AlertingCore, AuxPayload, SysMessage};
use gsa_gds::{GdsMessage, ResolveToken};
use gsa_greenstone::protocol::{CollectionInfo, FetchedDoc, SearchHit};
use gsa_greenstone::{CollectionConfig, GsError, GsMessage, RequestId, SubCollectionRef};
use gsa_store::{Query, SourceDocument};
use gsa_types::{
    CollectionId, DocSummary, DocumentRef, Event, EventId, EventKind, MessageId, MetadataRecord,
    SimDuration, SimTime,
};
use gsa_wire::binary::{
    decode_frame, payload_bytes_from_event, payload_bytes_from_xml, payload_event_from_bytes,
    payload_xml_from_bytes, write_frame, ByteSink, MAX_DEPTH,
};
use gsa_wire::codec::event_to_xml;
use gsa_wire::reliable::acked_seqs;
use gsa_wire::{
    parse_document, FrozenBytes, InterestSummary, Payload, Reliable, RetransmitQueue,
    RetryPolicy, WireFormat, WireMessage, XmlElement,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const DECLARATION: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex literal"))
        .collect()
}

/// Holds one message to its two literals.
fn pin(msg: GdsMessage, frame: &str, document: &str) {
    assert_eq!(hex(&msg.to_binary()), frame, "v2 frame of {msg}");
    assert_eq!(
        msg.to_xml().to_document_string(),
        document,
        "v1 text of {msg}"
    );

    let text_len = document.len() - DECLARATION.len();
    assert_eq!(
        msg.binary_wire_size(),
        frame.len() / 2,
        "binary_wire_size of {msg}"
    );
    assert_eq!(msg.wire_size(), text_len, "wire_size of {msg}");
    let carried = SysMessage::Gds(msg.clone());
    assert_eq!(carried.wire_size(WireFormat::Binary), frame.len() / 2);
    assert_eq!(carried.wire_size(WireFormat::Xml), text_len);

    assert_eq!(
        GdsMessage::from_binary(&unhex(frame)).unwrap(),
        msg,
        "v2 decode of {msg}"
    );
    let parsed = parse_document(document).unwrap();
    assert_eq!(
        GdsMessage::from_xml(&parsed).unwrap(),
        msg,
        "v1 decode of {msg}"
    );
}

fn id(raw: u64) -> MessageId {
    MessageId::from_raw(raw)
}

fn event() -> Event {
    let mut metadata = MetadataRecord::new();
    metadata.add("dc.Title", "Digital <Libraries> & \"more\"");
    metadata.add("dc.Language", "mi");
    let mut event = Event::new(
        EventId::new("Hamilton", 42),
        CollectionId::new("Hamilton", "D"),
        EventKind::DocumentsAdded,
        SimTime::from_millis(1234),
    )
    .with_docs(vec![
        DocSummary::new("doc-1")
            .with_metadata(metadata)
            .with_excerpt("an excerpt\u{2026}"),
        DocSummary::new("doc-2"),
    ]);
    event.provenance = vec![CollectionId::new("London", "E")];
    event
}

/// A payload built from the publisher's event (nothing encoded yet).
fn event_sourced() -> Payload {
    Payload::from_event(Arc::new(event()))
}

/// A payload built from an XML body that is not an event.
fn xml_sourced() -> Payload {
    Payload::from(
        XmlElement::new("note")
            .with_attr("lang", "en")
            .with_child(XmlElement::new("line").with_text("a < b & c"))
            .with_text("tail"),
    )
}

/// A payload as a v2 receiver holds it: the frozen bytes only.
fn received_frozen() -> Payload {
    let mut sent = event_sourced();
    sent.freeze();
    Payload::from_frozen(sent.frozen().unwrap().clone())
}

fn digest_summary() -> InterestSummary {
    let mut summary = InterestSummary::empty();
    summary.add_host("Hamilton");
    summary.add_collection("London.E");
    summary.constrain_attr("kind", ["documents-added".to_owned()]);
    summary.constrain_attr("meta:Language", ["en".to_owned(), "mi".to_owned()]);
    summary
}

fn grants() -> BTreeMap<String, BTreeSet<String>> {
    let mut grants = BTreeMap::new();
    grants.insert(
        "kind".to_owned(),
        BTreeSet::from(["documents-added".to_owned()]),
    );
    grants.insert(
        "meta:Language".to_owned(),
        BTreeSet::from(["en".to_owned(), "mi".to_owned()]),
    );
    grants
}

#[test]
fn registration_messages_are_pinned() {
    pin(
        GdsMessage::Register {
            gs_host: "Hamilton".into(),
        },
        "b20a000848616d696c746f6e",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:register host=\"Hamilton\"/>",
    );
    pin(
        GdsMessage::Unregister {
            gs_host: "Hamilton".into(),
        },
        "b20a010848616d696c746f6e",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:unregister host=\"Hamilton\"/>",
    );
    pin(
        GdsMessage::RegisterUp {
            gs_host: "Hamilton".into(),
            via: "gds-4".into(),
        },
        "b210020848616d696c746f6e056764732d34",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
         <gds:register-up host=\"Hamilton\" via=\"gds-4\"/>",
    );
    pin(
        GdsMessage::UnregisterUp {
            gs_host: "Ham<&>\"ilton".into(),
        },
        "b20e030c48616d3c263e22696c746f6e",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
         <gds:unregister-up host=\"Ham&lt;&amp;&gt;&quot;ilton\"/>",
    );
}

#[test]
fn payload_carriers_are_pinned_in_every_payload_representation() {
    pin(GdsMessage::Publish { id: id(1), payload: event_sourced() }, "b2850104018101010848616d696c746f6e2a0848616d696c746f6e2a0848616d696c746f6e014401\
         d0a84b01064c6f6e646f6e01450205646f632d31020b64632e4c616e6775616765026d690864632e\
         5469746c651c4469676974616c203c4c69627261726965733e202620226d6f7265220d616e206578\
         6365727074e280a605646f632d320000", "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:publish id=\"1\">\
         <event host=\"Hamilton\" seq=\"42\" root-host=\"Hamilton\" root-seq=\"42\" kind=\"documents-added\" issued-us=\"1234000\">\
         <origin>Hamilton.D</origin><provenance>London.E</provenance><document id=\"doc-1\">\
         <metadata><meta name=\"dc.Language\" value=\"mi\"/>\
         <meta name=\"dc.Title\" value=\"Digital &lt;Libraries&gt; &amp; &quot;more&quot;\"/>\
         </metadata><excerpt value=\"an excerpt…\"/></document><document id=\"doc-2\">\
         <metadata/></document></event></gds:publish>");
    pin(
        GdsMessage::PublishTargeted {
            id: id(300),
            targets: vec!["London".into(), "Paris".into()],
            payload: xml_sourced(),
        },
        "b23b05ac0202064c6f6e646f6e0550617269732900046e6f746501046c616e6702656e0200046c69\
         6e650001010961203c20622026206301047461696c",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:publish-targeted id=\"300\">\
         <target>London</target><target>Paris</target><note lang=\"en\">\
         <line>a &lt; b &amp; c</line>tail</note></gds:publish-targeted>",
    );
    pin(
        GdsMessage::Broadcast { id: id(u64::MAX), origin: "Hamilton".into(), payload: received_frozen() },
        "b2970106ffffffffffffffffff010848616d696c746f6e8101010848616d696c746f6e2a0848616d\
         696c746f6e2a0848616d696c746f6e014401d0a84b01064c6f6e646f6e01450205646f632d31020b\
         64632e4c616e6775616765026d690864632e5469746c651c4469676974616c203c4c696272617269\
         65733e202620226d6f7265220d616e2065786365727074e280a605646f632d320000",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
         <gds:broadcast id=\"18446744073709551615\" origin=\"Hamilton\">\
         <event host=\"Hamilton\" seq=\"42\" root-host=\"Hamilton\" root-seq=\"42\" kind=\"documents-added\" issued-us=\"1234000\">\
         <origin>Hamilton.D</origin><provenance>London.E</provenance><document id=\"doc-1\">\
         <metadata><meta name=\"dc.Language\" value=\"mi\"/>\
         <meta name=\"dc.Title\" value=\"Digital &lt;Libraries&gt; &amp; &quot;more&quot;\"/>\
         </metadata><excerpt value=\"an excerpt…\"/></document><document id=\"doc-2\">\
         <metadata/></document></event></gds:broadcast>",
    );
    pin(
        GdsMessage::Route {
            id: id(4),
            origin: "Hamilton".into(),
            targets: vec!["London".into()],
            payload: Payload::from(event_to_xml(&event())),
        },
        "b2960107040848616d696c746f6e01064c6f6e646f6e8101010848616d696c746f6e2a0848616d69\
         6c746f6e2a0848616d696c746f6e014401d0a84b01064c6f6e646f6e01450205646f632d31020b64\
         632e4c616e6775616765026d690864632e5469746c651c4469676974616c203c4c69627261726965\
         733e202620226d6f7265220d616e2065786365727074e280a605646f632d320000",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:route id=\"4\" origin=\"Hamilton\">\
         <target>London</target>\
         <event host=\"Hamilton\" seq=\"42\" root-host=\"Hamilton\" root-seq=\"42\" kind=\"documents-added\" issued-us=\"1234000\">\
         <origin>Hamilton.D</origin><provenance>London.E</provenance><document id=\"doc-1\">\
         <metadata><meta name=\"dc.Language\" value=\"mi\"/>\
         <meta name=\"dc.Title\" value=\"Digital &lt;Libraries&gt; &amp; &quot;more&quot;\"/>\
         </metadata><excerpt value=\"an excerpt…\"/></document><document id=\"doc-2\">\
         <metadata/></document></event></gds:route>",
    );
    pin(
        GdsMessage::Route {
            id: id(5),
            origin: "Hamilton".into(),
            targets: vec![],
            payload: xml_sourced(),
        },
        "b23607050848616d696c746f6e002900046e6f746501046c616e6702656e0200046c696e65000101\
         0961203c20622026206301047461696c",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:route id=\"5\" origin=\"Hamilton\">\
         <note lang=\"en\"><line>a &lt; b &amp; c</line>tail</note></gds:route>",
    );
    let mut frozen_at_origin = event_sourced();
    frozen_at_origin.freeze();
    pin(
        GdsMessage::Deliver { id: id(0), origin: "Hamilton".into(), payload: frozen_at_origin },
        "b28e0108000848616d696c746f6e8101010848616d696c746f6e2a0848616d696c746f6e2a084861\
         6d696c746f6e014401d0a84b01064c6f6e646f6e01450205646f632d31020b64632e4c616e677561\
         6765026d690864632e5469746c651c4469676974616c203c4c69627261726965733e202620226d6f\
         7265220d616e2065786365727074e280a605646f632d320000",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:deliver id=\"0\" origin=\"Hamilton\">\
         <event host=\"Hamilton\" seq=\"42\" root-host=\"Hamilton\" root-seq=\"42\" kind=\"documents-added\" issued-us=\"1234000\">\
         <origin>Hamilton.D</origin><provenance>London.E</provenance><document id=\"doc-1\">\
         <metadata><meta name=\"dc.Language\" value=\"mi\"/>\
         <meta name=\"dc.Title\" value=\"Digital &lt;Libraries&gt; &amp; &quot;more&quot;\"/>\
         </metadata><excerpt value=\"an excerpt…\"/></document><document id=\"doc-2\">\
         <metadata/></document></event></gds:deliver>",
    );
}

#[test]
fn naming_service_messages_are_pinned() {
    pin(
        GdsMessage::Resolve {
            token: ResolveToken(9),
            name: "London".into(),
            reply_to: "Hamilton".into(),
        },
        "b2120909064c6f6e646f6e0848616d696c746f6e",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
         <gds:resolve token=\"9\" name=\"London\" reply-to=\"Hamilton\"/>",
    );
    pin(
        GdsMessage::ResolveResponse {
            token: ResolveToken(9),
            name: "London".into(),
            result: Some("gds-2".into()),
        },
        "b2100a09064c6f6e646f6e01056764732d32",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
         <gds:resolve-response token=\"9\" name=\"London\" result=\"gds-2\"/>",
    );
    pin(
        GdsMessage::ResolveResponse {
            token: ResolveToken(128),
            name: "Nowhere".into(),
            result: None,
        },
        "b20c0a8001074e6f776865726500",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
         <gds:resolve-response token=\"128\" name=\"Nowhere\"/>",
    );
}

#[test]
fn maintenance_and_negotiation_messages_are_pinned() {
    // The parent's beacon names the summary version it holds for the
    // child's edge, so an idle child stops re-announcing an unchanged
    // summary every interval (it was a bare `b2010c`).
    pin(
        GdsMessage::HeartbeatAck { version: 300 },
        "b2030cac02",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:heartbeat-ack version=\"300\"/>",
    );
    pin(
        GdsMessage::HeartbeatAck { version: 0 },
        "b2020c00",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:heartbeat-ack version=\"0\"/>",
    );
    pin(
        GdsMessage::Adopt {
            child: "gds-5".into(),
        },
        "b2070d056764732d35",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:adopt child=\"gds-5\"/>",
    );
    pin(
        GdsMessage::Detach {
            child: "gds-5".into(),
        },
        "b2070e056764732d35",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:detach child=\"gds-5\"/>",
    );
}

#[test]
fn batches_are_pinned() {
    pin(
        GdsMessage::Batch(vec![].into()),
        "b2021100",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:batch/>",
    );
    pin(
        GdsMessage::Batch(vec![
            GdsMessage::Broadcast { id: id(7), origin: "Hamilton".into(), payload: received_frozen() },
            GdsMessage::HeartbeatAck { version: 0 },
            GdsMessage::Deliver { id: id(8), origin: "London".into(), payload: xml_sourced() },
        ].into()),
        "b2c501110306070848616d696c746f6e8101010848616d696c746f6e2a0848616d696c746f6e2a08\
         48616d696c746f6e014401d0a84b01064c6f6e646f6e01450205646f632d31020b64632e4c616e67\
         75616765026d690864632e5469746c651c4469676974616c203c4c69627261726965733e20262022\
         6d6f7265220d616e2065786365727074e280a605646f632d3200000c000808064c6f6e646f6e2900\
         046e6f746501046c616e6702656e0200046c696e650001010961203c20622026206301047461696c",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:batch>\
         <gds:broadcast id=\"7\" origin=\"Hamilton\">\
         <event host=\"Hamilton\" seq=\"42\" root-host=\"Hamilton\" root-seq=\"42\" kind=\"documents-added\" issued-us=\"1234000\">\
         <origin>Hamilton.D</origin><provenance>London.E</provenance><document id=\"doc-1\">\
         <metadata><meta name=\"dc.Language\" value=\"mi\"/>\
         <meta name=\"dc.Title\" value=\"Digital &lt;Libraries&gt; &amp; &quot;more&quot;\"/>\
         </metadata><excerpt value=\"an excerpt…\"/></document><document id=\"doc-2\">\
         <metadata/></document></event></gds:broadcast><gds:heartbeat-ack version=\"0\"/>\
         <gds:deliver id=\"8\" origin=\"London\"><note lang=\"en\"><line>a &lt; b &amp; c\
         </line>tail</note></gds:deliver></gds:batch>",
    );
}

#[test]
fn summaries_and_grants_are_pinned() {
    pin(
        GdsMessage::SummaryUpdate {
            from: "gds-4".into(),
            version: 7,
            summary: InterestSummary::wildcard(),
        },
        "b20c12056764732d340701000000",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
         <gds:summary wildcard=\"true\" from=\"gds-4\" version=\"7\"/>",
    );
    pin(
        GdsMessage::SummaryUpdate {
            from: "gds-4".into(),
            version: 1 << 40,
            summary: digest_summary(),
        },
        "b24e12056764732d3480808080802000010848616d696c746f6e01084c6f6e646f6e2e4502046b69\
         6e64010f646f63756d656e74732d61646465640d6d6574613a4c616e67756167650202656e026d69",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
         <gds:summary from=\"gds-4\" version=\"1099511627776\"><host name=\"Hamilton\"/>\
         <collection id=\"London.E\"/><attr key=\"kind\"><value>documents-added</value>\
         </attr><attr key=\"meta:Language\"><value>en</value><value>mi</value></attr>\
         </gds:summary>",
    );
    pin(
        GdsMessage::SummaryUpdate {
            from: "Hamilton".into(),
            version: 0,
            summary: InterestSummary::empty(),
        },
        "b20f120848616d696c746f6e0000000000",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
         <gds:summary from=\"Hamilton\" version=\"0\"/>",
    );
    pin(
        GdsMessage::RendezvousGrant {
            from: "gds-2".into(),
            version: 4,
            grants: BTreeMap::new(),
        },
        "b20913056764732d320400",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
         <gds:rendezvous-grant from=\"gds-2\" version=\"4\"/>",
    );
    pin(
        GdsMessage::RendezvousGrant {
            from: "gds-2".into(),
            version: 5,
            grants: grants(),
        },
        "b23413056764732d320502046b696e64010f646f63756d656e74732d61646465640d6d6574613a4c\
         616e67756167650202656e026d69",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
         <gds:rendezvous-grant from=\"gds-2\" version=\"5\"><grant key=\"kind\">\
         <value>documents-added</value></grant><grant key=\"meta:Language\"><value>en</value>\
         <value>mi</value></grant></gds:rendezvous-grant>",
    );
}

/// The reliable envelope around one of the samples, and its
/// acknowledgements. A bare ack is the frame it always was; an ack that
/// covers more of a window (acks are coalesced per edge, RFC 2018
/// style) is a form of its own on v2 and one more attribute on v1.
#[test]
fn the_reliable_envelope_is_pinned() {
    let inner = GdsMessage::Deliver {
        id: id(8),
        origin: "London".into(),
        payload: xml_sourced(),
    };
    for (rel, frame, document) in [
        (
            Reliable::Data {
                seq: 300,
                payload: inner,
            },
            "b23800ac02b2330808064c6f6e646f6e2900046e6f746501046c616e6702656e0200046c696e6500\
         01010961203c20622026206301047461696c",
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><rel-data seq=\"300\">\
         <gds:deliver id=\"8\" origin=\"London\"><note lang=\"en\"><line>a &lt; b &amp; c\
         </line>tail</note></gds:deliver></rel-data>",
        ),
        (
            Reliable::Ack { seq: 7, more: 0 },
            "b2020107",
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><rel-ack seq=\"7\"/>",
        ),
        (
            Reliable::Ack {
                seq: 7,
                more: 0b101,
            },
            "b203030705",
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><rel-ack seq=\"7\" more=\"5\"/>",
        ),
        (
            Reliable::Ack {
                seq: u64::MAX,
                more: u64::MAX,
            },
            "b21503ffffffffffffffffff01ffffffffffffffffff01",
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
             <rel-ack seq=\"18446744073709551615\" more=\"18446744073709551615\"/>",
        ),
    ] {
        assert_eq!(hex(&reliable_to_binary(&rel)), frame, "v2 frame of {rel:?}");
        assert_eq!(
            reliable_to_xml(&rel).to_document_string(),
            document,
            "v1 text of {rel:?}"
        );
        assert_eq!(
            SysMessage::RelGds(rel.clone()).wire_size(WireFormat::Binary),
            frame.len() / 2
        );
        assert_eq!(
            SysMessage::RelGds(rel.clone()).wire_size(WireFormat::Xml),
            document.len() - DECLARATION.len()
        );
        assert_eq!(reliable_from_binary(&unhex(frame)).unwrap(), rel);
        assert_eq!(
            reliable_from_xml(&parse_document(document).unwrap()).unwrap(),
            rel
        );
    }
}

/// Tag 2 and `rel-nack` were a negative acknowledgement no node ever
/// sent, and are retired. The frames the retired encoder wrote decode to
/// an error on both wires: never a panic, never an ack.
#[test]
fn the_retired_nack_is_refused_on_both_wires() {
    for frame in ["b20b02ffffffffffffffffff01", "b2020207"] {
        assert!(
            reliable_from_binary(&unhex(frame)).is_err(),
            "v2 frame {frame}"
        );
    }
    for document in [
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><rel-nack seq=\"18446744073709551615\"/>",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><rel-nack seq=\"7\"/>",
    ] {
        let el = parse_document(document).unwrap();
        assert!(reliable_from_xml(&el).is_err(), "v1 text {document}");
    }
}

/// Opcode 11 and `<gds:heartbeat/>` were the child's ping to its
/// parent, retired when the parent took to beaconing its children. The
/// frame and the document the retired encoder wrote decode to an error:
/// never a panic, never a message.
#[test]
fn the_retired_ping_is_refused_on_both_wires() {
    for frame in ["b2010b", "b2020b00"] {
        assert!(
            GdsMessage::from_binary(&unhex(frame)).is_err(),
            "v2 frame {frame}"
        );
    }
    let document = "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:heartbeat/>";
    let el = parse_document(document).unwrap();
    assert!(GdsMessage::from_xml(&el).is_err(), "v1 text {document}");
}

/// Opcodes 15 and 16, `<gds:hello/>` and `<gds:hello-ack/>`, negotiated
/// a wire format per edge, retired when the format became a fact of the
/// deployment. The frames and documents the retired encoder wrote decode
/// to an error: never a panic, never a message.
#[test]
fn the_retired_hellos_are_refused_on_both_wires() {
    for frame in ["b2020f02", "b20210ff"] {
        assert!(
            GdsMessage::from_binary(&unhex(frame)).is_err(),
            "v2 frame {frame}"
        );
    }
    for document in [
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:hello version=\"2\"/>",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:hello-ack version=\"255\"/>",
    ] {
        let el = parse_document(document).unwrap();
        assert!(GdsMessage::from_xml(&el).is_err(), "v1 text {document}");
    }
}

/// The hostile window pinned above, every bit set past the last sequence
/// number, is applied to a sender's queue without an overflow: it
/// acknowledges `u64::MAX` and nothing else.
#[test]
fn a_window_past_the_last_sequence_number_is_applied_safely() {
    let frame = unhex("b21503ffffffffffffffffff01ffffffffffffffffff01");
    let Reliable::<GdsMessage>::Ack { seq, more } = reliable_from_binary(&frame).unwrap() else {
        panic!("expected an ack");
    };
    let policy = RetryPolicy {
        base: SimDuration::from_millis(500),
        multiplier: 2.0,
        max_interval: SimDuration::from_secs(4),
        jitter: 0.2,
    };
    let mut queue = RetransmitQueue::new(policy, 1);
    let first = queue.send(9u32, "first", SimTime::ZERO);
    let lost = queue.ack(9, acked_seqs(seq, more), SimTime::from_millis(1));
    assert!(lost.is_empty());
    assert_eq!(queue.len(), 1, "seq {first} is still in flight");
    assert_eq!(acked_seqs(seq, more).collect::<Vec<_>>(), vec![u64::MAX]);
    assert_eq!(
        acked_seqs(u64::MAX - 2, more).collect::<Vec<_>>(),
        [u64::MAX - 2, u64::MAX - 1, u64::MAX]
    );
}

// The reliable envelope's four codec entry points, by the names they
// have at this commit.

fn reliable_to_binary(rel: &Reliable<GdsMessage>) -> Vec<u8> {
    rel.to_binary()
}

fn reliable_from_binary(bytes: &[u8]) -> Result<Reliable<GdsMessage>, gsa_wire::WireError> {
    Reliable::from_binary(bytes)
}

fn reliable_to_xml(rel: &Reliable<GdsMessage>) -> XmlElement {
    rel.to_xml()
}

fn reliable_from_xml(el: &XmlElement) -> Result<Reliable<GdsMessage>, gsa_wire::WireError> {
    Reliable::from_xml(el)
}

// --- cases added with the three decoder fixes --------------------------

/// The payload is the message's last child element whatever it is
/// called: a body named like the `target` children before it, or like a
/// GDS message, decodes on both wires.
#[test]
fn bodies_named_like_protocol_elements_are_pinned() {
    let target = || Payload::from(XmlElement::new("target").with_text("Hamilton"));
    pin(
        GdsMessage::Publish {
            id: id(1),
            payload: target(),
        },
        "b21704011400067461726765740001010848616d696c746f6e",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:publish id=\"1\">\
         <target>Hamilton</target></gds:publish>",
    );
    pin(
        GdsMessage::Route {
            id: id(2),
            origin: "Hamilton".into(),
            targets: vec!["London".into(), "Paris".into()],
            payload: target(),
        },
        "b22e07020848616d696c746f6e02064c6f6e646f6e0550617269731400067461726765740001010848\
         616d696c746f6e",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:route id=\"2\" origin=\"Hamilton\">\
         <target>London</target><target>Paris</target><target>Hamilton</target></gds:route>",
    );
    let nested = XmlElement::new("gds:deliver")
        .with_attr("id", "9")
        .with_child(XmlElement::new("target").with_text("x"));
    pin(
        GdsMessage::PublishTargeted {
            id: id(3),
            targets: vec![],
            payload: Payload::from(nested),
        },
        "b22505030021000b6764733a64656c697665720102696401390100067461726765740001010178",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gds:publish-targeted id=\"3\">\
         <gds:deliver id=\"9\"><target>x</target></gds:deliver></gds:publish-targeted>",
    );
}

fn body_of(frame: &[u8]) -> Vec<u8> {
    decode_frame(frame, |r| r.read_slice(r.remaining()).map(<[u8]>::to_vec)).unwrap()
}

fn framed(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, body.len(), |out| out.put(body));
    frame
}

/// A batch inside a batch is malformed on both wires, at any depth: two
/// levels are refused for what they are, and a frame of nothing but
/// batch headers — 20 KB of them aborted the process on a stack
/// overflow — is refused at the nesting bound.
#[test]
fn a_batch_inside_a_batch_is_refused() {
    let beacon = GdsMessage::HeartbeatAck { version: 0 };
    let nested = GdsMessage::Batch(vec![GdsMessage::Batch(vec![beacon.clone()].into())].into());
    assert!(GdsMessage::from_binary(&nested.to_binary()).is_err());
    assert!(GdsMessage::from_xml(&nested.to_xml()).is_err());

    let batch_of_one = GdsMessage::Batch(vec![beacon].into()).to_binary();
    let header = &batch_of_one[2..4]; // [opcode, count 1]
    for levels in [10_000, 500_000] {
        let err = GdsMessage::from_binary(&framed(&header.repeat(levels))).unwrap_err();
        assert!(
            err.to_string().contains("nested deeper"),
            "{levels} levels: {err}"
        );
    }
}

fn nest(depth: usize) -> XmlElement {
    (1..depth).fold(XmlElement::new("a"), |inner, _| {
        XmlElement::new("a").with_child(inner)
    })
}

/// Both element-tree readers follow `MAX_DEPTH` levels and no more: a
/// 64-deep body crosses both wires, a 65-deep one is refused, and the
/// inputs that overflowed the stack — 40 KB of v2 element headers, 70 KB
/// of `<a>` — are refused like their 1 MB versions.
#[test]
fn element_nesting_is_bounded_on_both_wires() {
    let deepest = nest(MAX_DEPTH);
    assert_eq!(
        parse_document(&deepest.to_document_string()).unwrap(),
        deepest
    );
    assert_eq!(
        payload_xml_from_bytes(&payload_bytes_from_xml(&deepest)).unwrap(),
        deepest
    );
    let too_deep = nest(MAX_DEPTH + 1);
    assert!(parse_document(&too_deep.to_document_string()).is_err());
    assert!(payload_xml_from_bytes(&payload_bytes_from_xml(&too_deep)).is_err());

    let one_level = payload_bytes_from_xml(&nest(2));
    let (tag, header) = (one_level[0], &one_level[1..6]); // "a", no attributes, one child, an element
    for levels in [8_000, 200_000] {
        let bytes = [&[tag][..], &header.repeat(levels)].concat();
        assert!(payload_xml_from_bytes(&bytes).is_err(), "{levels} levels");
        let received = Payload::from_frozen(FrozenBytes::new(bytes));
        assert!(received.decode_event().is_err());
        assert_eq!(received.xml_element().name(), "invalid-payload");
    }
    for levels in [23_000, 350_000] {
        let err = parse_document(&"<a>".repeat(levels)).unwrap_err();
        assert!(
            err.to_string().contains("nested deeper"),
            "{levels} levels: {err}"
        );
    }
}

/// Every frame decoder refuses bytes left over inside the frame, and so
/// does every decoder of a frozen payload, whichever encoding its tag
/// names.
#[test]
fn trailing_bytes_inside_a_frame_are_refused() {
    let inner = GdsMessage::Register {
        gs_host: "Hamilton".into(),
    };
    let data = Reliable::Data {
        seq: 7,
        payload: inner.clone(),
    };
    type Decoder = fn(&[u8]) -> bool;
    let decoders: [(&str, Vec<u8>, Decoder); 5] = [
        ("message", inner.to_binary(), |b| {
            GdsMessage::from_binary(b).is_ok()
        }),
        (
            "batch",
            GdsMessage::Batch(vec![inner.clone()].into()).to_binary(),
            |b| GdsMessage::from_binary(b).is_ok(),
        ),
        ("data", data.to_binary(), |b| {
            Reliable::<GdsMessage>::from_binary(b).is_ok()
        }),
        (
            "ack",
            Reliable::<GdsMessage>::Ack { seq: 7, more: 0 }.to_binary(),
            |b| Reliable::<GdsMessage>::from_binary(b).is_ok(),
        ),
        (
            "selective ack",
            Reliable::<GdsMessage>::Ack { seq: 7, more: 3 }.to_binary(),
            |b| Reliable::<GdsMessage>::from_binary(b).is_ok(),
        ),
    ];
    for (name, frame, decodes) in decoders {
        assert!(decodes(&frame), "{name}: the frame itself decodes");
        let body = body_of(&frame);
        assert!(
            !decodes(&framed(&[&body[..], b"garbage"].concat())),
            "{name}: bytes after the body"
        );
        assert!(
            !decodes(&framed(&body[..body.len() - 1])),
            "{name}: a byte short"
        );
    }
    // Under `Data` the payload is a frame of its own: bytes after it, and
    // bytes inside it, are both left over.
    let seq_and_tag = 2;
    let body = body_of(&data.to_binary());
    let stuffed = [
        &body[..seq_and_tag],
        &framed(&[&inner.to_binary()[2..], b"x"].concat()),
    ]
    .concat();
    assert!(Reliable::<GdsMessage>::from_binary(&framed(&stuffed)).is_err());

    // A frozen payload is its tag byte and one encoding: the native event
    // (`PAYLOAD_EVENT`), or the XML-tree fallback (`PAYLOAD_XML`), here
    // an event element with one attribute too many, which decodes as an
    // event all the same.
    let event = event();
    let unusual = event_to_xml(&event).with_attr("note", "not canonical");
    let payloads = [
        ("event payload", payload_bytes_from_event(&event)),
        ("XML-tree payload", payload_bytes_from_xml(&unusual)),
    ];
    assert_ne!(payloads[0].1[0], payloads[1].1[0], "one row per tag");
    for (name, bytes) in payloads {
        assert!(payload_xml_from_bytes(&bytes).is_ok(), "{name}: the payload itself decodes");
        assert_eq!(payload_event_from_bytes(&bytes).unwrap(), event, "{name}");
        let stuffed = [&bytes[..], b"garbage"].concat();
        assert!(payload_xml_from_bytes(&stuffed).is_err(), "{name}: bytes after the tree");
        assert!(payload_event_from_bytes(&stuffed).is_err(), "{name}: bytes after the event");
        let received = Payload::from_frozen(FrozenBytes::new(stuffed));
        assert!(received.decode_event().is_err(), "{name}: decode_event");
        assert_eq!(received.xml_element().name(), "invalid-payload", "{name}: xml_element");
    }
}

/// Holds one GS request or response to its literal.
fn pin_gs(msg: GsMessage, document: &str) {
    assert_eq!(msg.to_xml().to_document_string(), document, "text of {msg}");
    let text_len = document.len() - DECLARATION.len();
    assert_eq!(msg.wire_size(), text_len, "wire_size of {msg}");
    for format in [WireFormat::Xml, WireFormat::Binary] {
        assert_eq!(SysMessage::Gs(msg.clone()).wire_size(format), text_len);
    }
    let parsed = parse_document(document).unwrap();
    assert_eq!(
        GsMessage::from_xml(&parsed).unwrap(),
        msg,
        "decode of {msg}"
    );
}

/// Holds one alerting frame, inside its `gs:alerting` element, to its
/// literal.
fn pin_aux(frame: Reliable<AuxPayload>, document: &str) {
    assert_eq!(
        aux_to_xml(&frame).to_document_string(),
        document,
        "text of {frame:?}"
    );
    let text_len = document.len() - DECLARATION.len();
    for format in [WireFormat::Xml, WireFormat::Binary] {
        let size = SysMessage::Aux(frame.clone()).wire_size(format);
        assert_eq!(size, text_len, "wire_size of {frame:?}");
    }
    let parsed = parse_document(document).unwrap();
    assert_eq!(aux_from_xml(&parsed).unwrap(), frame, "decode of {frame:?}");
}

#[test]
fn gs_requests_and_responses_are_pinned() {
    pin_gs(
        GsMessage::DescribeRequest {
            request: RequestId(1),
            collection: "D".into(),
        },
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gs:describe request=\"1\" collection=\"D\"/>",
    );
    pin_gs(
        GsMessage::DescribeResponse {
            request: RequestId(1),
            result: Ok(CollectionInfo {
                id: CollectionId::new("Hamilton", "D"),
                title: "Demo & \"more\"".into(),
                doc_count: 3,
                indexes: vec!["text".into(), "titles".into()],
                classifiers: vec!["creators".into()],
                subcollections: vec![CollectionId::new("London", "E")],
                is_virtual: false,
            }),
        },
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gs:describe-response request=\"1\">\
         <info id=\"Hamilton.D\" title=\"Demo &amp; &quot;more&quot;\" docs=\"3\" virtual=\"false\">\
         <index>text</index><index>titles</index><classifier>creators</classifier>\
         <sub>London.E</sub></info></gs:describe-response>",
    );
    pin_gs(
        GsMessage::DescribeResponse {
            request: RequestId(2),
            result: Err(GsError::UnknownCollection("X<y>".into())),
        },
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gs:describe-response request=\"2\">\
         <error code=\"unknown-collection\" detail=\"X&lt;y&gt;\"/></gs:describe-response>",
    );
    pin_gs(
        GsMessage::FetchRequest {
            request: RequestId(9),
            collection: "E".into(),
            visited: vec![
                CollectionId::new("Hamilton", "D"),
                CollectionId::new("Paris", "Z"),
            ],
            via_parent: true,
        },
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
         <gs:fetch request=\"9\" collection=\"E\" via-parent=\"true\">\
         <visited>Hamilton.D</visited><visited>Paris.Z</visited></gs:fetch>",
    );
    let mut metadata = MetadataRecord::new();
    metadata.add("dc.Title", "Digital <Libraries> & \"more\"");
    metadata.add("dc.Subject", "alerting");
    metadata.add("dc.Subject", "digital libraries");
    pin_gs(
        GsMessage::FetchResponse {
            request: RequestId(9),
            docs: vec![
                FetchedDoc {
                    collection: CollectionId::new("London", "E"),
                    doc: SourceDocument::new("HASH1", "body <text> & more").with_metadata(metadata),
                },
                FetchedDoc {
                    collection: CollectionId::new("London", "E"),
                    doc: SourceDocument::new("HASH2", ""),
                },
            ],
            errors: vec![GsError::Timeout, GsError::UnknownIndex("titles".into())],
            fatal: Some(GsError::PrivateCollection("G".into())),
        },
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gs:fetch-response request=\"9\">\
         <fetched collection=\"London.E\" id=\"HASH1\"><metadata>\
         <meta name=\"dc.Subject\" value=\"alerting\"/>\
         <meta name=\"dc.Subject\" value=\"digital libraries\"/>\
         <meta name=\"dc.Title\" value=\"Digital &lt;Libraries&gt; &amp; &quot;more&quot;\"/>\
         </metadata><text>body &lt;text&gt; &amp; more</text></fetched>\
         <fetched collection=\"London.E\" id=\"HASH2\"><metadata/></fetched>\
         <error code=\"timeout\" detail=\"\"/><error code=\"unknown-index\" detail=\"titles\"/>\
         <fatal><error code=\"private-collection\" detail=\"G\"/></fatal></gs:fetch-response>",
    );
    pin_gs(
        GsMessage::SearchRequest {
            request: RequestId(3),
            collection: "D".into(),
            index: "text".into(),
            query: Query::parse("digital AND librar*").unwrap(),
            visited: vec![CollectionId::new("Hamilton", "D")],
            via_parent: false,
        },
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
         <gs:search request=\"3\" collection=\"D\" index=\"text\" via-parent=\"false\" \
         query=\"(digital AND librar*)\"><visited>Hamilton.D</visited></gs:search>",
    );
    pin_gs(
        GsMessage::SearchResponse {
            request: RequestId(3),
            hits: vec![
                SearchHit {
                    doc: DocumentRef::new(CollectionId::new("London", "E"), "HASH2"),
                    score: 0.5,
                },
                SearchHit {
                    doc: DocumentRef::new(CollectionId::new("Hamilton", "D"), "HASH<3>"),
                    score: 1.0,
                },
            ],
            errors: vec![GsError::UnknownIndex("text".into())],
            fatal: Some(GsError::Timeout),
        },
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gs:search-response request=\"3\">\
         <hit collection=\"London.E\" doc=\"HASH2\" score=\"0.500000\"/>\
         <hit collection=\"Hamilton.D\" doc=\"HASH&lt;3&gt;\" score=\"1.000000\"/>\
         <error code=\"unknown-index\" detail=\"text\"/>\
         <fatal><error code=\"timeout\" detail=\"\"/></fatal></gs:search-response>",
    );
}

#[test]
fn alerting_payloads_are_pinned_inside_their_gs_element() {
    pin_aux(
        Reliable::Data {
            seq: 1,
            payload: AuxPayload::Plant {
                super_collection: CollectionId::new("Hamilton", "D"),
                sub_name: "E".into(),
            },
        },
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gs:alerting>\
         <aux-plant op=\"1\" super=\"Hamilton.D\" sub-name=\"E\"/></gs:alerting>",
    );
    pin_aux(
        Reliable::Data {
            seq: 300,
            payload: AuxPayload::Delete {
                super_collection: CollectionId::new("Hamilton", "D<&>"),
                sub_name: "E\"e".into(),
            },
        },
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gs:alerting>\
         <aux-delete op=\"300\" super=\"Hamilton.D&lt;&amp;&gt;\" sub-name=\"E&quot;e\"/>\
         </gs:alerting>",
    );
    // Provenance and a multi-valued metadata key travel with the event.
    let mut forwarded = event();
    forwarded.docs[0].metadata.add("dc.Language", "en");
    pin_aux(
        Reliable::Data {
            seq: u64::MAX,
            payload: AuxPayload::ForwardEvent {
                super_name: "D".into(),
                event: Payload::from_event(Arc::new(forwarded)),
            },
        },
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gs:alerting>\
         <aux-event op=\"18446744073709551615\" super-name=\"D\">\
         <event host=\"Hamilton\" seq=\"42\" root-host=\"Hamilton\" root-seq=\"42\" kind=\"documents-added\" issued-us=\"1234000\">\
         <origin>Hamilton.D</origin><provenance>London.E</provenance><document id=\"doc-1\">\
         <metadata><meta name=\"dc.Language\" value=\"mi\"/><meta name=\"dc.Language\" value=\"en\"/>\
         <meta name=\"dc.Title\" value=\"Digital &lt;Libraries&gt; &amp; &quot;more&quot;\"/>\
         </metadata><excerpt value=\"an excerpt…\"/></document><document id=\"doc-2\">\
         <metadata/></document></event></aux-event></gs:alerting>",
    );
    pin_aux(
        Reliable::Ack { seq: 0, more: 0 },
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gs:alerting><aux-ack op=\"0\"/></gs:alerting>",
    );
    // The one ack form of both networks: `op` and, after it, the window.
    pin_aux(
        Reliable::Ack { seq: 7, more: 0b101 },
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><gs:alerting>\
         <aux-ack op=\"7\" more=\"5\"/></gs:alerting>",
    );
}

/// A hostile `aux-ack` is refused when its window or its `op` is not a
/// number; a window bit past `u64::MAX` names nothing and is skipped, as
/// on a GDS edge, and the host it reaches takes it without a fault.
#[test]
fn hostile_alerting_acks_are_refused_or_skipped() {
    let parse = |ack: &str| aux_from_xml(&parse_document(&format!("<gs:alerting>{ack}</gs:alerting>")).unwrap());
    assert!(parse("<aux-ack op=\"7\" more=\"x\"/>").is_err());
    assert!(parse("<aux-ack op=\"7\" more=\"-1\"/>").is_err());
    assert!(parse("<aux-ack more=\"1\"/>").is_err());
    let past_the_end = parse("<aux-ack op=\"18446744073709551615\" more=\"18446744073709551615\"/>");
    let Ok(Reliable::Ack { seq, more }) = past_the_end else {
        panic!("expected an ack, got {past_the_end:?}");
    };
    assert_eq!(acked_seqs(seq, more).collect::<Vec<_>>(), [u64::MAX]);
    let mut hamilton = AlertingCore::new("Hamilton", "gds-4");
    hamilton.add_collection(CollectionConfig::simple("D", "d"), SimTime::ZERO).unwrap();
    let sub = SubCollectionRef::new("e", CollectionId::new("London", "E"));
    hamilton.add_subcollection(&"D".into(), sub, SimTime::ZERO).unwrap();
    let ack = SysMessage::Aux(Reliable::Ack { seq, more });
    let effects = hamilton.handle_message(&"London".into(), ack, SimTime::from_millis(1));
    assert!(effects.outbound.is_empty());
    assert_eq!(hamilton.pending_ops().len(), 1, "the plant, seq 0, is still owed");
}
