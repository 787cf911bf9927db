//! Delivery-equivalence oracle for the zero-materialisation attribute
//! probe (the binary pre-filter in front of full event decode).
//!
//! The probe's contract is one-sided exactness: `probe_matches == false`
//! must *prove* the full decode-and-match path would deliver nothing
//! (a false negative loses a notification), while `true` is allowed to
//! be conservative — wildcards, retrieval queries and negation-only
//! profiles pass straight through and are verified on the decoded
//! event. The oracle drives arbitrary profile sets against arbitrary
//! event streams at two layers:
//!
//! * engine level — `FilterEngine::probe_matches` on the frozen v2
//!   bytes versus `matches_into` on the decoded event;
//! * core level — `AlertingCore` notification sets with the probe on
//!   versus off, for XML payloads, frozen binary payloads, and binary
//!   payloads round-tripped through the framed v2 wire (plain and
//!   batched).

use gsa_core::{AlertingCore, SysMessage};
use gsa_filter::{FilterEngine, MatchScratch};
use gsa_gds::GdsMessage;
use gsa_profile::{AttrValue, Predicate, ProfileAttr, ProfileExpr, Wildcard};
use gsa_store::Query;
use gsa_types::{
    keys, ClientId, CollectionId, CounterId, DocSummary, Event, EventId, EventKind, HostName,
    MessageId, MetadataRecord, ProfileId, SimTime,
};
use gsa_wire::binary::payload_bytes_from_xml;
use gsa_wire::codec::event_to_xml;
use gsa_wire::{EventProbe, Payload};
use proptest::prelude::*;

const VOCAB: &[&str] = &["alpha", "beta", "gamma", "delta", "epsilon"];

fn arb_value() -> impl Strategy<Value = String> {
    prop::sample::select(VOCAB).prop_map(str::to_string)
}

fn arb_attr() -> impl Strategy<Value = ProfileAttr> {
    prop_oneof![
        Just(ProfileAttr::Host),
        Just(ProfileAttr::Kind),
        Just(ProfileAttr::DocId),
        Just(ProfileAttr::Text),
        Just(ProfileAttr::Meta(keys::SUBJECT.to_string())),
    ]
}

/// Predicate shapes cover every indexing class the probe distinguishes:
/// indexed equalities and in-lists (counted), wildcards and retrieval
/// queries (residual / scan-set pass-through), and — via `arb_expr`'s
/// NOT — pure-negation conjunctions.
fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        arb_value().prop_map(AttrValue::Equals),
        prop::collection::btree_set(arb_value(), 1..3).prop_map(AttrValue::OneOf),
        arb_value().prop_map(|v| AttrValue::Like(Wildcard::new(format!("*{}*", &v[..2])))),
        arb_value().prop_map(|v| AttrValue::Matches(Query::Term(v))),
    ]
}

fn arb_pred() -> impl Strategy<Value = ProfileExpr> {
    prop_oneof![
        (arb_attr(), arb_attr_value())
            .prop_map(|(attr, value)| ProfileExpr::Pred(Predicate::new(attr, value))),
        arb_value().prop_map(|v| {
            ProfileExpr::Pred(Predicate::equals(ProfileAttr::Collection, format!("{v}.C")))
        }),
    ]
}

fn arb_expr() -> impl Strategy<Value = ProfileExpr> {
    arb_pred().prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(ProfileExpr::And),
            prop::collection::vec(inner.clone(), 1..4).prop_map(ProfileExpr::Or),
            inner.prop_map(|e| ProfileExpr::Not(Box::new(e))),
        ]
    })
}

fn arb_doc() -> impl Strategy<Value = DocSummary> {
    (
        arb_value(),
        prop::collection::vec(arb_value(), 0..3),
        prop::collection::vec(arb_value(), 0..4),
    )
        .prop_map(|(id, subjects, words)| {
            let md: MetadataRecord = subjects.into_iter().map(|s| (keys::SUBJECT, s)).collect();
            DocSummary::new(id)
                .with_metadata(md)
                .with_excerpt(words.join(" "))
        })
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        arb_value(),
        prop::sample::select(&EventKind::ALL[..]),
        prop::collection::vec(arb_doc(), 0..3),
    )
        .prop_map(|(host, kind, docs)| {
            Event::new(
                EventId::new(host.clone(), 1),
                CollectionId::new(host, "C"),
                kind,
                SimTime::ZERO,
            )
            .with_docs(docs)
        })
}

/// The frozen v2 payload bytes the GDS flood would carry for `event`.
fn frozen_bytes(event: &Event) -> Vec<u8> {
    payload_bytes_from_xml(&event_to_xml(event))
}

/// One delivered notification, reduced to a comparable tuple.
fn drain(core: &mut AlertingCore, clients: &[ClientId]) -> Vec<(u64, String, usize)> {
    let mut out: Vec<(u64, String, usize)> = clients
        .iter()
        .flat_map(|c| core.take_notifications(*c))
        .map(|n| {
            (
                n.profile.as_u64(),
                n.event.origin.to_string(),
                n.matched_docs().count(),
            )
        })
        .collect();
    out.sort();
    out
}

/// Builds a core with one client per profile (probe on or off) and
/// returns the notification tuples after delivering every message.
fn deliver_all(
    exprs: &[ProfileExpr],
    messages: Vec<GdsMessage>,
    probe: bool,
) -> Vec<(u64, String, usize)> {
    let mut core = AlertingCore::new("Watcher", "gds-1");
    core.set_probe(probe);
    let mut clients = Vec::new();
    for (i, expr) in exprs.iter().enumerate() {
        let client = ClientId::from_raw(i as u64);
        // Profiles the DNF normalizer rejects (size blow-ups) are skipped
        // identically in both runs, so equivalence still holds.
        if core.subscribe(client, expr.clone()).is_ok() {
            clients.push(client);
        }
    }
    for msg in messages {
        core.handle_message(&HostName::new("gds-1"), SysMessage::Gds(msg), SimTime::ZERO);
    }
    drain(&mut core, &clients)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Engine layer: `probe_matches == false` implies `matches_into`
    /// delivers nothing, and any non-empty match set implies the probe
    /// said `true` — for every profile shape the generator produces.
    #[test]
    fn probe_never_contradicts_the_full_matcher(
        exprs in prop::collection::vec(arb_expr(), 1..8),
        events in prop::collection::vec(arb_event(), 1..8),
    ) {
        let mut engine = FilterEngine::new();
        for (i, expr) in exprs.iter().enumerate() {
            // DNF blow-ups are skipped; the engines that remain agree.
            let _ = engine.insert(ProfileId::from_raw(i as u64), expr);
        }
        let mut scratch = MatchScratch::new();
        let mut matched = Vec::new();
        for event in &events {
            let bytes = frozen_bytes(event);
            let mut probe = EventProbe::from_payload(&bytes)
                .expect("frozen event bytes parse")
                .expect("event payloads are probeable");
            let candidate = engine
                .probe_matches(&mut probe, &mut scratch)
                .expect("well-formed bytes never error");
            engine.matches_into(event, &mut scratch, &mut matched);
            if !candidate {
                prop_assert!(
                    matched.is_empty(),
                    "probe rejected an event that matches {:?}",
                    matched
                );
            }
            if !matched.is_empty() {
                prop_assert!(candidate, "match set non-empty but probe said no");
            }
        }
    }

    /// Core layer: the probe-on and probe-off delivery sets are
    /// identical for the same profiles and event stream, whichever wire
    /// representation the Deliver arrives in — XML tree, frozen binary,
    /// or binary round-tripped through the framed v2 encoding both
    /// plain and inside a Batch.
    #[test]
    fn probe_on_and_off_agree_for_every_wire_shape(
        exprs in prop::collection::vec(arb_expr(), 1..6),
        events in prop::collection::vec(arb_event(), 1..5),
    ) {
        let deliver = |seq: u64, payload: Payload| GdsMessage::Deliver {
            id: MessageId::from_raw(seq),
            origin: "Origin".into(),
            payload,
        };
        // Distinct message ids per (event, representation): the client-side
        // dedup must never collapse two representations of the stream.
        let mut messages = Vec::new();
        for (i, event) in events.iter().enumerate() {
            let base = (i as u64) * 4;
            messages.push(deliver(base, event_to_xml(event).into()));
            messages.push(deliver(base + 1, Payload::from_frozen(frozen_bytes(event).into())));
            let framed = deliver(base + 2, Payload::from_frozen(frozen_bytes(event).into()));
            messages.push(GdsMessage::from_binary(&framed.to_binary()).expect("frame decodes"));
            let batched = GdsMessage::Batch(vec![deliver(
                base + 3,
                Payload::from_frozen(frozen_bytes(event).into()),
            )].into());
            match GdsMessage::from_binary(&batched.to_binary()).expect("batch decodes") {
                GdsMessage::Batch(inner) => messages.extend(inner.iter().cloned()),
                other => messages.push(other),
            }
        }
        let with_probe = deliver_all(&exprs, messages.clone(), true);
        let without_probe = deliver_all(&exprs, messages, false);
        prop_assert_eq!(with_probe, without_probe);
    }
}

/// The conservative pass-throughs stay conservative: a wildcard profile
/// and a retrieval-query profile keep every binary delivery on the
/// decode path (probe passes, residual decides), while an
/// all-equalities profile set lets the probe reject without decoding.
#[test]
fn scan_profiles_force_pass_through_and_equalities_allow_rejection() {
    let mut core = AlertingCore::new("Watcher", "gds-1");
    let client = ClientId::from_raw(1);
    core.subscribe(
        client,
        gsa_profile::parse_profile(r#"dc.Subject ~ "*zeta*""#).unwrap(),
    )
    .unwrap();
    let event = Event::new(
        EventId::new("alpha", 1),
        CollectionId::new("alpha", "C"),
        EventKind::DocumentsAdded,
        SimTime::ZERO,
    );
    let deliver = GdsMessage::Deliver {
        id: MessageId::from_raw(1),
        origin: "alpha".into(),
        payload: Payload::from_frozen(frozen_bytes(&event).into()),
    };
    core.handle_message(
        &HostName::new("gds-1"),
        SysMessage::Gds(deliver),
        SimTime::ZERO,
    );
    let counts = core.counts_mut();
    assert_eq!(counts.get(CounterId::CORE_PROBE_PASS), 1, "wildcard profiles must pass through");
    assert_eq!(counts.get(CounterId::CORE_PROBE_SKIP), 0);

    // Replace the wildcard with an equality that cannot match: now the
    // probe alone settles the delivery.
    assert!(core.subscriptions().len() == 1);
    let mut core = AlertingCore::new("Watcher", "gds-1");
    core.subscribe(
        client,
        gsa_profile::parse_profile(r#"host = "omega""#).unwrap(),
    )
    .unwrap();
    let deliver = GdsMessage::Deliver {
        id: MessageId::from_raw(2),
        origin: "alpha".into(),
        payload: Payload::from_frozen(frozen_bytes(&event).into()),
    };
    core.handle_message(
        &HostName::new("gds-1"),
        SysMessage::Gds(deliver),
        SimTime::ZERO,
    );
    let counts = core.counts_mut();
    assert_eq!(counts.get(CounterId::CORE_PROBE_SKIP), 1, "equality-only miss must skip decode");
    assert_eq!(counts.get(CounterId::CORE_PROBE_PASS), 0);
}
