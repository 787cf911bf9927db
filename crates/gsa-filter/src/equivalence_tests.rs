//! Property tests: the clustering engine, the string-keyed baseline and
//! the naive linear scan (direct expression evaluation) agree on arbitrary profiles and events — whatever order
//! the profiles were inserted in and under insert/remove churn — the
//! probe is sound everywhere and exact on equalities, and the documents
//! the engine reports are the documents the expression matches.
//!
//! The generators draw what access-key selection depends on: many
//! profiles sharing one event-level anchor next to a filter query, a
//! wildcard or a second equality; ID lists, empty ones included; queries
//! with `And`/`Or`/`Prefix`/`Not` around a required term; mixed-case and
//! non-ASCII patterns and values; multi-valued metadata; docless events.

use crate::{BaselineEngine, DocMatch, FilterEngine, MatchScratch, NaiveFilter};
use gsa_profile::dnf::to_dnf;
use crate::engine::is_equality;
use gsa_profile::{AttrValue, Predicate, ProfileAttr, ProfileExpr, Wildcard};
use gsa_store::Query;
use gsa_types::{
    keys, CollectionId, DocSummary, Event, EventId, EventKind, MetadataRecord, ProfileId, SimTime,
};
use gsa_wire::EventProbe;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Hosts, document ids, query terms.
const VOCAB: &[&str] = &["alpha", "beta", "gamma", "delta", "epsilon"];

/// Titles, subjects and excerpt words: the vocabulary in mixed case and
/// in longer strings, and non-ASCII text — including a character whose
/// lowercase form is ASCII (the Kelvin sign), one whose lowercase form
/// is longer than itself (İ), and a long ASCII run behind a non-ASCII
/// prefix; and a near miss that carries all but the last window of
/// `epsilon-alpha`.
const VALUES: &[&str] = &[
    "alpha",
    "Beta",
    "GAMMA delta",
    "epsilon-Alpha",
    "Epsilon-ALPHA beta",
    "epsilon-alphx",
    "Überdelta gamma",
    "Überepsilon-alpha",
    "\u{212a}elvin beta",
    "İota",
];

/// Wildcards over those values: keyable on a window or not (short,
/// bare `*`), on segments of 3, 4, 7, 8 and 13 bytes (windows of 3, 4
/// and 8 bytes, one 8-byte window sliding through the longest),
/// anchored or floating, several segments, mixed case, non-ASCII with
/// and without an ASCII segment.
const PATTERNS: &[&str] = &[
    "*alpha*",
    "*ALPHA",
    "bet*",
    "*gam*del*",
    "*lon-Al*",
    "*amma*",
    "*psilon*",
    "*Lon-Alph*",
    "*epsilon-alpha*",
    "EPSILON-ALPHA*",
    "*silon-alpha",
    "*über*epsilon-alpha",
    "*über*",
    "ü*gamma",
    "*kelvin*",
    "*kelvin beta*",
    "*ota",
    "*iot*",
    "*al*",
    "epsilon",
    "*",
];

fn arb_word() -> impl Strategy<Value = String> {
    prop::sample::select(VOCAB).prop_map(str::to_string)
}

fn arb_value() -> impl Strategy<Value = String> {
    prop::sample::select(VALUES).prop_map(str::to_string)
}

fn arb_attr() -> impl Strategy<Value = ProfileAttr> {
    prop_oneof![
        Just(ProfileAttr::Host),
        Just(ProfileAttr::Kind),
        Just(ProfileAttr::DocId),
        Just(ProfileAttr::Text),
        Just(ProfileAttr::Meta(keys::SUBJECT.to_string())),
        Just(ProfileAttr::Meta(keys::TITLE.to_string())),
    ]
}

fn arb_query() -> impl Strategy<Value = Query> {
    let leaf = prop_oneof![
        arb_word().prop_map(Query::Term),
        arb_word().prop_map(Query::Term),
        arb_word().prop_map(|w| Query::Prefix(w[..3].to_string())),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Query::And),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Query::Or),
            inner.prop_map(|q| Query::Not(Box::new(q))),
        ]
    })
}

fn arb_equality_value() -> impl Strategy<Value = AttrValue> {
    let value = || prop_oneof![arb_word(), arb_value()];
    prop_oneof![
        value().prop_map(AttrValue::Equals),
        prop::collection::btree_set(value(), 0..3).prop_map(AttrValue::OneOf),
    ]
}

fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        arb_equality_value(),
        prop::sample::select(PATTERNS).prop_map(|p| AttrValue::Like(Wildcard::new(p))),
        arb_query().prop_map(AttrValue::Matches),
    ]
}

/// `collection = "<host>.C"`: generated events come from `<host>.C`, so
/// the composed collection key has a real chance of matching.
fn arb_anchor() -> impl Strategy<Value = ProfileExpr> {
    arb_word().prop_map(|host| {
        ProfileExpr::Pred(Predicate::equals(ProfileAttr::Collection, format!("{host}.C")))
    })
}

fn arb_pred() -> impl Strategy<Value = ProfileExpr> {
    prop_oneof![
        (arb_attr(), arb_attr_value())
            .prop_map(|(attr, value)| ProfileExpr::Pred(Predicate::new(attr, value))),
        arb_anchor(),
        arb_word().prop_map(|v| {
            ProfileExpr::Pred(Predicate::new(
                ProfileAttr::Collection,
                AttrValue::Like(Wildcard::new(format!("{}*", &v[..2]))),
            ))
        }),
    ]
}

fn arb_tree() -> impl Strategy<Value = ProfileExpr> {
    arb_pred().prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(ProfileExpr::And),
            prop::collection::vec(inner.clone(), 1..4).prop_map(ProfileExpr::Or),
            inner.prop_map(|e| ProfileExpr::Not(Box::new(e))),
        ]
    })
}

/// The paper-configuration shape: one of five anchors, which many
/// profiles of a draw therefore share, and one document-level literal.
fn arb_anchored() -> impl Strategy<Value = ProfileExpr> {
    let doc_level = prop_oneof![
        arb_query().prop_map(|q| Predicate::new(ProfileAttr::Text, AttrValue::Matches(q))),
        prop::sample::select(PATTERNS).prop_map(|p| {
            let title = ProfileAttr::Meta(keys::TITLE.to_string());
            Predicate::new(title, AttrValue::Like(Wildcard::new(p)))
        }),
        arb_equality_value().prop_map(|value| {
            Predicate::new(ProfileAttr::Meta(keys::SUBJECT.to_string()), value)
        }),
    ];
    (arb_anchor(), doc_level)
        .prop_map(|(anchor, lit)| ProfileExpr::And(vec![anchor, ProfileExpr::Pred(lit)]))
}

fn arb_expr() -> impl Strategy<Value = ProfileExpr> {
    prop_oneof![arb_tree(), arb_anchored()]
}

/// An expression every DNF conjunction of which has a positive equality
/// literal (the conjunct distributes over whatever the tree expands to).
fn arb_expr_with_equality() -> impl Strategy<Value = ProfileExpr> {
    let attr = prop_oneof![
        Just(ProfileAttr::Host),
        Just(ProfileAttr::Kind),
        Just(ProfileAttr::DocId),
        Just(ProfileAttr::Meta(keys::SUBJECT.to_string())),
    ];
    let equality = prop_oneof![
        (attr, arb_equality_value())
            .prop_map(|(attr, value)| ProfileExpr::Pred(Predicate::new(attr, value))),
        arb_anchor(),
    ];
    (equality, arb_expr()).prop_map(|(eq, rest)| ProfileExpr::And(vec![rest, eq]))
}

fn arb_doc() -> impl Strategy<Value = DocSummary> {
    (
        arb_word(),
        prop::collection::vec(arb_value(), 0..3),
        prop::collection::vec(arb_value(), 0..2),
        prop::collection::vec(arb_value(), 0..4),
    )
        .prop_map(|(id, subjects, titles, words)| {
            let subjects = subjects.into_iter().map(|s| (keys::SUBJECT, s));
            let titles = titles.into_iter().map(|t| (keys::TITLE, t));
            let md: MetadataRecord = subjects.chain(titles).collect();
            DocSummary::new(id)
                .with_metadata(md)
                .with_excerpt(words.join(" "))
        })
}

fn event_of(host: String, kind: EventKind, docs: Vec<DocSummary>) -> Event {
    Event::new(
        EventId::new(host.clone(), 1),
        CollectionId::new(host, "C"),
        kind,
        SimTime::ZERO,
    )
    .with_docs(docs)
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        arb_word(),
        prop::sample::select(&EventKind::ALL[..]),
        prop::collection::vec(arb_doc(), 0..3),
    )
        .prop_map(|(host, kind, docs)| event_of(host, kind, docs))
}

/// Events with no, one, a few and more than 64 documents.
fn arb_sized_event() -> impl Strategy<Value = Event> {
    (
        arb_word(),
        prop::sample::select(&[0usize, 1, 3, 70][..]),
        prop::collection::vec(arb_doc(), 70..71),
    )
        .prop_map(|(host, docs, mut pool)| {
            pool.truncate(docs);
            event_of(host, EventKind::DocumentsAdded, pool)
        })
}

/// An engine that keys on tokens and grams wherever it can: the few
/// profiles of one case never grow an equality list to the default
/// handicap, and those keys (and the probe guard behind them) are what
/// most needs checking.
fn eager_engine() -> FilterEngine {
    FilterEngine::with_derived_key_handicap(0)
}

fn pid(index: usize) -> ProfileId {
    ProfileId::from_raw(index as u64)
}

/// Opens a probe over the event's frozen binary encoding.
fn probe_says(engine: &FilterEngine, event: &Event, scratch: &mut MatchScratch) -> bool {
    let bytes = gsa_wire::binary::payload_bytes_from_xml(&gsa_wire::codec::event_to_xml(event));
    let mut probe = EventProbe::from_payload(&bytes).unwrap().unwrap();
    engine.probe_matches(&mut probe, scratch).unwrap()
}

/// The probe's specification, straight-line: some context satisfies all
/// equality literals of some conjunction.
fn some_context_satisfies_the_equalities<'a>(
    exprs: impl Iterator<Item = &'a ProfileExpr>,
    event: &Event,
) -> bool {
    let contexts: Vec<Option<&DocSummary>> = if event.docs.is_empty() {
        vec![None]
    } else {
        event.docs.iter().map(Some).collect()
    };
    exprs.flat_map(|expr| to_dnf(expr).unwrap()).any(|conj| {
        let equalities = conj.literals.iter().filter(|lit| is_equality(lit));
        assert!(equalities.clone().next().is_some(), "{conj} has no equality");
        contexts
            .iter()
            .any(|doc| equalities.clone().all(|lit| lit.matches(event, *doc)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// All three engines report exactly the profile set direct expression
    /// evaluation gives, and the clustering engine does so whatever order
    /// the profiles arrived in and however readily it takes token and
    /// gram keys (which together decide who gets which access key).
    /// The clustering engine is driven through the scratch API, so the
    /// hot path is the one being cross-checked.
    #[test]
    fn engines_agree(
        exprs in prop::collection::vec(arb_expr(), 1..12),
        order in prop::collection::vec(0u32..1_000, 12..13),
        events in prop::collection::vec(arb_event(), 1..8),
    ) {
        let mut fast = FilterEngine::new();
        let mut permuted = eager_engine();
        let mut baseline = BaselineEngine::new();
        let mut naive = NaiveFilter::new();
        for (i, expr) in exprs.iter().enumerate() {
            fast.insert(pid(i), expr).unwrap();
            baseline.insert(pid(i), expr).unwrap();
            naive.insert(pid(i), expr.clone());
        }
        let mut shuffled: Vec<usize> = (0..exprs.len()).collect();
        shuffled.sort_by_key(|&i| order[i]);
        for i in shuffled {
            permuted.insert(pid(i), &exprs[i]).unwrap();
        }
        let mut scratch = MatchScratch::new();
        let mut matched = Vec::new();
        for event in &events {
            let expected: Vec<ProfileId> = (0..exprs.len())
                .filter(|&i| exprs[i].matches_event(event))
                .map(pid)
                .collect();
            prop_assert_eq!(naive.matches(event), expected.clone());
            fast.matches_into(event, &mut scratch, &mut matched);
            prop_assert_eq!(&matched, &expected);
            permuted.matches_into(event, &mut scratch, &mut matched);
            prop_assert_eq!(&matched, &expected);
            prop_assert_eq!(baseline.matches(event), expected);
        }
    }

    /// Matching agrees with direct expression evaluation.
    #[test]
    fn engine_agrees_with_expr_eval(expr in arb_expr(), event in arb_event()) {
        let mut fast = FilterEngine::new();
        fast.insert(ProfileId::from_raw(0), &expr).unwrap();
        let engine_says = !fast.matches(&event).is_empty();
        prop_assert_eq!(engine_says, expr.matches_event(&event));
    }

    /// Removal leaves the remaining profiles' behaviour untouched.
    #[test]
    fn removal_is_clean(
        exprs in prop::collection::vec(arb_expr(), 2..6),
        event in arb_event(),
    ) {
        let mut fast = FilterEngine::new();
        for (i, expr) in exprs.iter().enumerate() {
            fast.insert(ProfileId::from_raw(i as u64), expr).unwrap();
        }
        fast.remove(ProfileId::from_raw(0));
        let mut expected = BTreeSet::new();
        for (i, expr) in exprs.iter().enumerate().skip(1) {
            if expr.matches_event(&event) {
                expected.insert(ProfileId::from_raw(i as u64));
            }
        }
        let got: BTreeSet<ProfileId> = fast.matches(&event).into_iter().collect();
        prop_assert_eq!(got, expected);
    }

    /// Interleaved removals and re-insertions (slot reuse and re-chosen
    /// access keys in the clustering engine) keep all engines in
    /// agreement with the naive reference — also while one access key
    /// gains a second profile and a third (its posting list leaves the
    /// map entry for a slab row) and loses them again.
    #[test]
    fn engines_agree_under_churn(
        exprs in prop::collection::vec(arb_expr(), 4..10),
        churn in prop::collection::vec((0usize..10, arb_expr()), 1..6),
        twin in arb_anchor(),
        events in prop::collection::vec(arb_event(), 1..5),
    ) {
        let mut fast = eager_engine();
        let mut baseline = BaselineEngine::new();
        let mut naive = NaiveFilter::new();
        // The twins: one literal each, so all three share its key.
        let twins = (exprs.len()..).map(pid).take(3);
        for (id, expr) in (0..).map(pid).zip(&exprs).chain(twins.clone().zip([&twin; 3])) {
            fast.insert(id, expr).unwrap();
            baseline.insert(id, expr).unwrap();
            naive.insert(id, expr.clone());
        }
        let mut scratch = MatchScratch::new();
        let mut matched = Vec::new();
        for gone in twins.take(2) {
            for event in &events {
                fast.matches_into(event, &mut scratch, &mut matched);
                prop_assert_eq!(&matched, &naive.matches(event));
            }
            prop_assert!(fast.remove(gone) && baseline.remove(gone));
            naive.remove(gone);
        }
        // Alternate removing and replacing profiles; indices may repeat so
        // double-removals and reinserts after removal are exercised too.
        for (step, (slot, replacement)) in churn.iter().enumerate() {
            let id = ProfileId::from_raw((slot % exprs.len()) as u64);
            if step % 2 == 0 {
                let removed = fast.remove(id);
                prop_assert_eq!(baseline.remove(id), removed);
                naive.remove(id);
            } else {
                fast.insert(id, replacement).unwrap();
                baseline.insert(id, replacement).unwrap();
                naive.insert(id, replacement.clone());
            }
        }
        prop_assert_eq!(fast.len(), naive.len());
        for event in &events {
            let expected = naive.matches(event);
            fast.matches_into(event, &mut scratch, &mut matched);
            prop_assert_eq!(&matched, &expected);
            prop_assert_eq!(baseline.matches(event), expected);
        }
    }

    /// `probe_matches == false` proves the full match is empty, for any
    /// profile set; and where every conjunction has an equality literal
    /// the probe is exactly its specification — also for conjunctions
    /// keyed on a token or a gram the probe cannot see, and after some of
    /// them are cancelled again.
    #[test]
    fn probe_is_sound_and_exact_on_equalities(
        guarded in prop::collection::vec(arb_expr_with_equality(), 1..8),
        loose in prop::collection::vec(arb_expr(), 1..4),
        events in prop::collection::vec(arb_event(), 1..6),
    ) {
        let mut exact = eager_engine();
        let mut sound = FilterEngine::new();
        for (i, expr) in guarded.iter().enumerate() {
            exact.insert(pid(i), expr).unwrap();
            sound.insert(pid(i), expr).unwrap();
        }
        for (i, expr) in loose.iter().enumerate() {
            sound.insert(pid(guarded.len() + i), expr).unwrap();
        }
        let mut scratch = MatchScratch::new();
        for live in [0, guarded.len() / 2] {
            for i in 0..live {
                exact.remove(pid(i));
            }
            for event in &events {
                let spec = some_context_satisfies_the_equalities(guarded[live..].iter(), event);
                prop_assert_eq!(probe_says(&exact, event, &mut scratch), spec);
                prop_assert!(spec || exact.matches(event).is_empty());
                prop_assert!(
                    probe_says(&sound, event, &mut scratch) || sound.matches(event).is_empty()
                );
            }
        }
    }

    /// The documents the engine reports for a matched profile are the
    /// documents its expression matches, in event order — for events
    /// with no, one, a few and more than 64 documents.
    #[test]
    fn reported_documents_are_the_matching_documents(
        exprs in prop::collection::vec(arb_expr(), 1..10),
        event in arb_sized_event(),
    ) {
        let mut fast = eager_engine();
        for (i, expr) in exprs.iter().enumerate() {
            fast.insert(pid(i), expr).unwrap();
        }
        let mut expected = Vec::new();
        for (i, expr) in exprs.iter().enumerate() {
            let matching = expr.matching_docs(&event);
            if event.docs.is_empty() {
                prop_assert!(matching.is_empty());
                if expr.matches_event(&event) {
                    expected.push(DocMatch { profile: pid(i), doc: None });
                }
                continue;
            }
            let mut matching = matching.into_iter().peekable();
            for (at, doc) in event.docs.iter().enumerate() {
                // `matching_docs` yields references into `event.docs`.
                if matching.next_if(|id| std::ptr::eq(*id, &doc.doc)).is_some() {
                    expected.push(DocMatch { profile: pid(i), doc: Some(at as u32) });
                }
            }
            prop_assert!(matching.next().is_none());
        }
        let mut hits = Vec::new();
        fast.match_docs_into(&event, &mut MatchScratch::new(), &mut hits);
        prop_assert_eq!(hits, expected);
    }
}
