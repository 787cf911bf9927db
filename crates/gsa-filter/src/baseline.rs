//! The first-generation equality-preferred engine, kept as a baseline.
//!
//! This is the original string-keyed implementation: a two-level
//! `attribute -> value -> postings` index, a fresh counter map allocated
//! per matching context, and profile removal by sweeping the whole index.
//! [`FilterEngine`](crate::FilterEngine) replaces it with an interned,
//! allocation-free core; this module stays so experiment E3 can measure
//! the replacement against the engine it replaced (and so the equivalence
//! property suite can cross-check three independent implementations).

use crate::engine::FilterStats;
use gsa_profile::{AttrValue, Literal, Predicate, ProfileAttr, ProfileExpr};
use gsa_types::{DocSummary, Event, ProfileId};
use std::collections::{BTreeSet, HashMap};

/// Maximum number of indexed equality predicates per conjunction (bits of
/// the counting bitmask); further equality predicates are verified as
/// residuals, which is slower but exact.
const MAX_INDEXED: usize = 64;

#[derive(Debug)]
struct ConjEntry {
    profile: ProfileId,
    /// Bitmask with one bit per indexed predicate; candidate when all set.
    required: u64,
    /// Literals verified only on candidates: a predicate and whether it
    /// must hold (`true`) or fail.
    residual: Vec<(Predicate, bool)>,
}

/// The string-keyed, allocation-per-event baseline engine.
///
/// Semantically identical to [`FilterEngine`](crate::FilterEngine); only
/// the index representation differs.
#[derive(Debug, Default)]
pub struct BaselineEngine {
    conjs: Vec<Option<ConjEntry>>,
    /// attribute name -> value -> [(conjunction index, predicate bit)].
    eq_index: HashMap<String, HashMap<String, Vec<(usize, u64)>>>,
    /// Conjunctions with no indexed predicate, always candidates.
    scan: BTreeSet<usize>,
    by_profile: HashMap<ProfileId, Vec<usize>>,
}

impl BaselineEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        BaselineEngine::default()
    }

    /// Number of registered profiles.
    pub fn len(&self) -> usize {
        self.by_profile.len()
    }

    /// Returns `true` when no profiles are registered.
    pub fn is_empty(&self) -> bool {
        self.by_profile.is_empty()
    }

    /// Whether the profile id is registered.
    pub fn contains(&self, id: ProfileId) -> bool {
        self.by_profile.contains_key(&id)
    }

    /// Index structure statistics.
    pub fn stats(&self) -> FilterStats {
        FilterStats {
            profiles: self.by_profile.len(),
            conjunctions: self.conjs.iter().flatten().count(),
            scan_conjunctions: self.scan.len(),
            index_entries: self.eq_index.values().map(HashMap::len).sum(),
            ..FilterStats::default()
        }
    }

    /// Registers a profile expression under `id`. Re-inserting an existing
    /// id replaces the previous expression.
    ///
    /// # Errors
    ///
    /// Returns [`gsa_profile::DnfError`] when the expression is too large
    /// to normalize.
    pub fn insert(
        &mut self,
        id: ProfileId,
        expr: &ProfileExpr,
    ) -> Result<(), gsa_profile::DnfError> {
        let dnf = gsa_profile::dnf::to_dnf(expr)?;
        self.remove(id);
        let mut indexes = Vec::with_capacity(dnf.len());
        for conj in dnf {
            let ci = self.conjs.len();
            let mut required = 0u64;
            let mut residual = Vec::new();
            let mut bit = 0usize;
            for lit in conj.literals {
                if bit < MAX_INDEXED && Self::indexable(&lit) {
                    let mask = 1u64 << bit;
                    required |= mask;
                    let by_value = self
                        .eq_index
                        .entry(lit.predicate.attr.name().to_string())
                        .or_default();
                    match &lit.predicate.value {
                        AttrValue::Equals(v) => {
                            by_value.entry(v.clone()).or_default().push((ci, mask));
                        }
                        AttrValue::OneOf(set) => {
                            for v in set {
                                by_value.entry(v.clone()).or_default().push((ci, mask));
                            }
                        }
                        _ => unreachable!("indexable() only admits Equals/OneOf"),
                    }
                    bit += 1;
                } else {
                    residual.push((lit.predicate.clone(), lit.positive));
                }
            }
            if required == 0 {
                self.scan.insert(ci);
            }
            self.conjs.push(Some(ConjEntry {
                profile: id,
                required,
                residual,
            }));
            indexes.push(ci);
        }
        self.by_profile.insert(id, indexes);
        Ok(())
    }

    fn indexable(lit: &Literal<'_>) -> bool {
        if !lit.positive {
            return false;
        }
        // Equality on the excerpt text is never what a profile means and
        // text values are not enumerated as attribute pairs; verify such
        // predicates as residuals.
        if lit.predicate.attr == ProfileAttr::Text {
            return false;
        }
        matches!(
            lit.predicate.value,
            AttrValue::Equals(_) | AttrValue::OneOf(_)
        )
    }

    /// Removes a profile. Returns `true` when it was registered.
    ///
    /// Note the cost: the whole index is swept to prune postings (this is
    /// one of the things the replacement engine fixes with back-pointers).
    pub fn remove(&mut self, id: ProfileId) -> bool {
        let Some(indexes) = self.by_profile.remove(&id) else {
            return false;
        };
        for ci in indexes {
            self.conjs[ci] = None;
            self.scan.remove(&ci);
        }
        // Prune index postings pointing at removed conjunctions.
        self.eq_index.retain(|_, by_value| {
            by_value.retain(|_, postings| {
                postings.retain(|(ci, _)| self.conjs[*ci].is_some());
                !postings.is_empty()
            });
            !by_value.is_empty()
        });
        true
    }

    /// The profiles matching `event` (in ascending id order). A profile
    /// matches when any of the event's documents — or the document-free
    /// context, for docless events — satisfies it.
    pub fn matches(&self, event: &Event) -> Vec<ProfileId> {
        let mut out: BTreeSet<ProfileId> = BTreeSet::new();
        if event.docs.is_empty() {
            self.match_context(event, None, &mut out);
        } else {
            for doc in &event.docs {
                self.match_context(event, Some(doc), &mut out);
            }
        }
        out.into_iter().collect()
    }

    fn match_context(
        &self,
        event: &Event,
        doc: Option<&DocSummary>,
        out: &mut BTreeSet<ProfileId>,
    ) {
        // Phase 1: counting over the indexed equality predicates.
        let mut counters: HashMap<usize, u64> = HashMap::new();
        let mut probe = |attr: &str, value: &str| {
            if let Some(postings) = self.eq_index.get(attr).and_then(|m| m.get(value)) {
                for (ci, mask) in postings {
                    *counters.entry(*ci).or_default() |= mask;
                }
            }
        };
        probe("host", event.origin.host().as_str());
        probe("collection", &event.origin.to_string());
        probe("kind", event.kind.as_str());
        if let Some(doc) = doc {
            probe("doc", doc.doc.as_str());
            for (key, value) in doc.metadata.iter_flat() {
                probe(key.as_str(), value);
            }
        }

        // Phase 2: verification of candidates.
        let mut verify = |ci: usize| {
            let Some(entry) = &self.conjs[ci] else {
                return;
            };
            if out.contains(&entry.profile) {
                return;
            }
            let holds = |(p, positive): &(Predicate, bool)| p.matches(event, doc) == *positive;
            if entry.residual.iter().all(holds) {
                out.insert(entry.profile);
            }
        };
        for (ci, bits) in &counters {
            let Some(entry) = &self.conjs[*ci] else {
                continue;
            };
            if bits & entry.required == entry.required {
                verify(*ci);
            }
        }
        for ci in &self.scan {
            verify(*ci);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_profile::parse_profile;
    use gsa_types::{keys, CollectionId, DocSummary, EventId, EventKind, MetadataRecord, SimTime};

    fn pid(raw: u64) -> ProfileId {
        ProfileId::from_raw(raw)
    }

    fn event(host: &str, coll: &str, subject: &str, text: &str) -> Event {
        let md: MetadataRecord = [(keys::SUBJECT, subject)].into_iter().collect();
        Event::new(
            EventId::new(host, 1),
            CollectionId::new(host, coll),
            EventKind::DocumentsAdded,
            SimTime::ZERO,
        )
        .with_docs(vec![DocSummary::new("d1").with_metadata(md).with_excerpt(text)])
    }

    fn engine_with(profiles: &[(u64, &str)]) -> BaselineEngine {
        let mut e = BaselineEngine::new();
        for (id, text) in profiles {
            e.insert(pid(*id), &parse_profile(text).unwrap()).unwrap();
        }
        e
    }

    #[test]
    fn equality_profiles_are_indexed_and_match() {
        let e = engine_with(&[
            (1, r#"host = "London""#),
            (2, r#"host = "Paris""#),
            (3, r#"dc.Subject = "dl""#),
        ]);
        assert_eq!(e.stats().scan_conjunctions, 0);
        let matched = e.matches(&event("London", "E", "dl", ""));
        assert_eq!(matched, vec![pid(1), pid(3)]);
    }

    #[test]
    fn conjunction_requires_all_indexed_predicates() {
        let e = engine_with(&[(1, r#"host = "London" AND dc.Subject = "dl""#)]);
        assert!(e.matches(&event("London", "E", "dl", "")).contains(&pid(1)));
        assert!(e.matches(&event("London", "E", "other", "")).is_empty());
        assert!(e.matches(&event("Paris", "E", "dl", "")).is_empty());
    }

    #[test]
    fn residuals_scan_and_negation() {
        let e = engine_with(&[(1, r#"host = "London" AND text ? (digital)"#)]);
        assert!(!e.matches(&event("London", "E", "x", "analog stuff")).contains(&pid(1)));
        assert!(e.matches(&event("London", "E", "x", "digital stuff")).contains(&pid(1)));

        let e = engine_with(&[(1, r#"text ~ "*digital*""#)]);
        assert_eq!(e.stats().scan_conjunctions, 1);
        assert!(e.matches(&event("A", "C", "x", "the digital age")).contains(&pid(1)));

        let e = engine_with(&[(1, r#"NOT host = "London""#)]);
        assert!(e.matches(&event("Paris", "E", "x", "")).contains(&pid(1)));
        assert!(e.matches(&event("London", "E", "x", "")).is_empty());
    }

    #[test]
    fn remove_and_reinsert() {
        let mut e = engine_with(&[(1, r#"host = "London""#), (2, r#"host = "London""#)]);
        assert!(e.remove(pid(1)));
        assert!(!e.remove(pid(1)));
        assert_eq!(e.matches(&event("London", "E", "x", "")), vec![pid(2)]);
        e.insert(pid(2), &parse_profile(r#"host = "Paris""#).unwrap())
            .unwrap();
        assert!(e.matches(&event("London", "E", "x", "")).is_empty());
        assert!(e.matches(&event("Paris", "E", "x", "")).contains(&pid(2)));
        assert_eq!(e.len(), 1);
        assert!(!e.is_empty());
        assert!(e.contains(pid(2)));
    }
}
