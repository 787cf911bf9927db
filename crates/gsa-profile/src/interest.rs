//! Origin-anchor extraction: profiles → [`InterestSummary`].
//!
//! The GDS flood-pruning layer needs to know, per subscriber, which
//! event origins a profile could possibly match. This module derives
//! that digest from the profile's DNF:
//!
//! * A *positive* `collection = "Host.Name"` (or `collection in [...]`)
//!   literal anchors its conjunction to those exact origin collections
//!   — [`Predicate::matches`](crate::Predicate::matches) compares the event's
//!   `origin.to_string()` against the value with exact, case-sensitive
//!   equality, so an event from any other origin cannot satisfy the
//!   literal, and therefore cannot satisfy the conjunction.
//! * Likewise a *positive* `host = "Name"` / `host in [...]` literal
//!   anchors the conjunction to those exact origin hosts.
//! * Any conjunction with no such anchor (wildcard or filter-query
//!   values, negated literals, doc/text/metadata-only predicates) may
//!   match events from anywhere, so the whole summary collapses to
//!   [`InterestSummary::wildcard`].
//!
//! The result over-approximates by construction: it can claim interest
//! in origins the profile would reject (a false positive merely
//! forwards an event that local filtering then drops), but every event
//! the profile *can* match is matched by the summary — the
//! no-false-negative half of the contract, pinned by the property test
//! below.

use crate::attr::{AttrValue, ProfileAttr};
use crate::dnf::{to_dnf, Conjunction};
use crate::expr::ProfileExpr;
use gsa_wire::{InterestSummary, ATTR_KEY_KIND, ATTR_META_PREFIX};

/// Collects the exact values of an Equals/OneOf literal into `out`.
fn anchor_values(value: &AttrValue, out: &mut Vec<String>) -> bool {
    match value {
        AttrValue::Equals(v) => {
            out.push(v.clone());
            true
        }
        AttrValue::OneOf(vs) => {
            out.extend(vs.iter().cloned());
            true
        }
        // Wildcards are case-insensitive substring machines and filter
        // queries match document content: neither pins the origin.
        AttrValue::Like(_) | AttrValue::Matches(_) => false,
    }
}

/// The narrowest sound anchor of one conjunction, folded into `summary`.
/// Returns `false` when the conjunction has no anchor at all.
fn anchor_conjunction(conj: &Conjunction, summary: &mut InterestSummary) -> bool {
    // Collection anchors are strictly narrower than host anchors
    // ("Host.Name" implies the host), so prefer them when both exist.
    let mut collections = Vec::new();
    let mut hosts = Vec::new();
    for literal in &conj.literals {
        if !literal.positive {
            continue; // a negation excludes origins, it never pins one
        }
        match literal.predicate.attr {
            ProfileAttr::Collection => {
                anchor_values(&literal.predicate.value, &mut collections);
            }
            ProfileAttr::Host => {
                anchor_values(&literal.predicate.value, &mut hosts);
            }
            _ => {}
        }
    }
    if !collections.is_empty() {
        for c in collections {
            summary.add_collection(c);
        }
        true
    } else if !hosts.is_empty() {
        for h in hosts {
            summary.add_host(h);
        }
        true
    } else {
        false
    }
}

/// Folds one conjunction's equality-attribute digests into its summary
/// part. Only *positive* Equals/OneOf literals on `kind` or a metadata
/// key tighten; everything else (negations, wildcards, filter queries,
/// doc-id/text predicates) contributes nothing and the key stays
/// unconstrained. A repeated key takes the first literal only —
/// `constrain_attr` is first-write-wins, because intersecting two
/// literal sets would claim a tighter constraint than a multi-valued
/// metadata attribute actually imposes.
fn digest_conjunction(conj: &Conjunction, part: &mut InterestSummary) {
    for literal in &conj.literals {
        if !literal.positive {
            continue;
        }
        let key = match &literal.predicate.attr {
            ProfileAttr::Kind => ATTR_KEY_KIND.to_owned(),
            ProfileAttr::Meta(key) => format!("{ATTR_META_PREFIX}{key}"),
            _ => continue,
        };
        let mut values = Vec::new();
        if anchor_values(&literal.predicate.value, &mut values) {
            part.constrain_attr(key, values);
        }
    }
}

/// The conservative interest summary of one profile expression.
///
/// Expressions too large to normalise (a [`crate::DnfError`]) digest to
/// the wildcard — the pruning layer must never be less permissive than
/// the matcher.
pub fn interests_of(expr: &ProfileExpr) -> InterestSummary {
    let Ok(conjunctions) = to_dnf(expr) else {
        return InterestSummary::wildcard();
    };
    // An empty DNF is an unsatisfiable expression: it matches nothing,
    // and so does the empty summary.
    let mut summary = InterestSummary::empty();
    for conj in &conjunctions {
        // Each conjunction digests independently (anchors plus
        // attribute constraints), then the union rule reconciles them:
        // anchors union, digest keys intersect.
        let mut part = InterestSummary::empty();
        if !anchor_conjunction(conj, &mut part) {
            return InterestSummary::wildcard();
        }
        digest_conjunction(conj, &mut part);
        summary.union_with(&part);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_profile;
    use gsa_types::{CollectionId, DocSummary, Event, EventId, EventKind, SimTime};
    use proptest::prelude::*;

    fn interests(text: &str) -> InterestSummary {
        interests_of(&parse_profile(text).unwrap())
    }

    #[test]
    fn equality_anchors() {
        let s = interests(r#"host = "Hamilton""#);
        assert!(s.may_match("Hamilton", "Hamilton.D"));
        assert!(!s.may_match("London", "London.E"));

        let s = interests(r#"collection = "London.E""#);
        assert!(s.may_match("London", "London.E"));
        assert!(!s.may_match("London", "London.F"));

        let s = interests(r#"host in ["A", "B"]"#);
        assert!(s.may_match("A", "A.X") && s.may_match("B", "B.Y"));
        assert!(!s.may_match("C", "C.Z"));
    }

    #[test]
    fn collection_anchor_preferred_over_host() {
        let s = interests(r#"host = "London" AND collection = "London.E""#);
        assert!(s.may_match("London", "London.E"));
        // The conjunction requires the collection too, so other London
        // collections are excluded by the narrower anchor.
        assert!(!s.may_match("London", "London.F"));
    }

    #[test]
    fn disjunction_unions_anchors() {
        let s = interests(r#"host = "A" OR collection = "B.C""#);
        assert!(s.may_match("A", "A.X"));
        assert!(s.may_match("B", "B.C"));
        assert!(!s.may_match("B", "B.D"));
    }

    #[test]
    fn unanchored_shapes_go_wildcard() {
        for text in [
            r#"text ~ "*digital*""#,
            r#"kind = "rebuilt""#,
            r#"host ~ "Lon*""#,
            r#"NOT host = "A""#,
            r#"host = "A" OR dc.Title = "x""#,
        ] {
            assert!(interests(text).is_wildcard(), "{text} must digest to wildcard");
        }
    }

    #[test]
    fn conjunction_with_doc_predicates_keeps_its_anchor() {
        let s = interests(r#"host = "A" AND dc.Title = "x""#);
        assert!(!s.is_wildcard());
        assert!(s.may_match("A", "A.X"));
        assert!(!s.may_match("B", "B.Y"));
    }

    #[test]
    fn equality_literals_tighten_anchored_conjunctions() {
        let s = interests(r#"host = "A" AND kind = "documents-added""#);
        assert!(s.may_match("A", "A.X"));
        let kinds = s.attr_constraint(ATTR_KEY_KIND).unwrap();
        assert!(kinds.contains("documents-added") && kinds.len() == 1);

        let s = interests(r#"collection = "A.X" AND dc.Title in ["a", "b"]"#);
        let titles = s.attr_constraint("meta:dc.Title").unwrap();
        assert_eq!(titles.iter().collect::<Vec<_>>(), ["a", "b"]);
    }

    #[test]
    fn non_equality_and_negated_literals_do_not_tighten() {
        for text in [
            r#"host = "A" AND dc.Title ~ "x*""#,
            r#"host = "A" AND NOT kind = "documents-added""#,
            r#"host = "A" AND text ~ "*digital*""#,
        ] {
            let s = interests(text);
            assert!(!s.has_attrs(), "{text} must not digest attributes");
            assert!(s.may_match("A", "A.X"));
        }
    }

    #[test]
    fn disjunction_keeps_only_shared_digest_keys() {
        // Both branches constrain kind: the union keeps the key with
        // both values.
        let s = interests(
            r#"(host = "A" AND kind = "documents-added")
               OR (host = "B" AND kind = "collection-rebuilt")"#,
        );
        let kinds = s.attr_constraint(ATTR_KEY_KIND).unwrap();
        assert_eq!(
            kinds.iter().collect::<Vec<_>>(),
            ["collection-rebuilt", "documents-added"]
        );
        // Only one branch constrains kind: the union must drop it.
        let s = interests(r#"(host = "A" AND kind = "documents-added") OR host = "B""#);
        assert!(s.attr_constraint(ATTR_KEY_KIND).is_none());
        assert!(s.may_match("B", "B.Y"));
    }

    #[test]
    fn repeated_key_in_one_conjunction_takes_first_literal_only() {
        // dc.Title is multi-valued: a doc carrying both "a" and "b"
        // satisfies both literals, so intersecting them to ∅ would be a
        // false negative. First write wins instead.
        let s = interests(r#"host = "A" AND dc.Title = "a" AND dc.Title = "b""#);
        let titles = s.attr_constraint("meta:dc.Title").unwrap();
        assert_eq!(titles.iter().collect::<Vec<_>>(), ["a"]);
    }

    /// The attribute-prune view of an event, mirroring what a GDS node
    /// extracts at flood time: `kind` is the event kind, `meta:K` is
    /// the union of values of metadata key `K` across the event's docs.
    fn event_attr_values<'a>(event: &'a Event, key: &str) -> Vec<&'a str> {
        if key == ATTR_KEY_KIND {
            return vec![event.kind.as_str()];
        }
        let Some(meta_key) = key.strip_prefix(ATTR_META_PREFIX) else {
            return Vec::new();
        };
        event
            .docs
            .iter()
            .flat_map(|d| d.metadata.all(meta_key))
            .map(String::as_str)
            .collect()
    }

    proptest! {
        /// Soundness: whenever a profile matches an event, the digest
        /// claims interest in that event's origin *and* no attribute
        /// digest excludes the event's attribute values — over random
        /// profiles (anchored, unanchored and attribute-tightened
        /// shapes) and random events.
        #[test]
        fn summary_never_misses_a_matching_event(
            profile_host in "[A-C]",
            profile_name in "[X-Z]",
            shape in 0usize..9,
            event_host in "[A-D]",
            event_name in "[W-Z]",
            event_kind_choice in 0usize..2,
            title in "[a-c]",
            profile_title in "[a-c]",
        ) {
            let text = match shape {
                0 => format!(r#"host = "{profile_host}""#),
                1 => format!(r#"collection = "{profile_host}.{profile_name}""#),
                2 => format!(r#"host = "{profile_host}" AND dc.Title = "a""#),
                3 => format!(r#"host = "{profile_host}" OR collection = "B.{profile_name}""#),
                4 => format!(r#"NOT host = "{profile_host}""#),
                5 => format!(r#"host = "{profile_host}" AND kind = "documents-added""#),
                6 => format!(
                    r#"host = "{profile_host}" AND dc.Title in ["{profile_title}", "z"]"#
                ),
                7 => format!(
                    r#"(host = "{profile_host}" AND kind = "collection-rebuilt")
                       OR (collection = "B.{profile_name}" AND kind = "documents-added")"#
                ),
                _ => format!(r#"dc.Title = "{title}""#),
            };
            let expr = parse_profile(&text).unwrap();
            let summary = interests_of(&expr);
            let kind = if event_kind_choice == 0 {
                EventKind::CollectionRebuilt
            } else {
                EventKind::DocumentsAdded
            };
            let event = Event::new(
                EventId::new(event_host.as_str(), 1),
                CollectionId::new(event_host.as_str(), event_name.as_str()),
                kind,
                SimTime::ZERO,
            )
            .with_docs(vec![DocSummary::new("d1").with_metadata(
                [(gsa_types::keys::TITLE, title.as_str())].into_iter().collect(),
            )]);
            if expr.matches_event(&event) {
                prop_assert!(
                    summary.may_match(
                        event.origin.host().as_str(),
                        &event.origin.to_string()
                    ),
                    "profile {text} matched an event its summary excludes"
                );
                for (key, allowed) in summary.attrs() {
                    let values = event_attr_values(&event, key);
                    prop_assert!(
                        values.iter().any(|v| allowed.contains(*v)),
                        "profile {text} matched an event its {key} digest excludes"
                    );
                }
            }
        }
    }
}
