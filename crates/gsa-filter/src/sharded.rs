//! Shard-parallel filtering.
//!
//! A large profile population can be partitioned by profile id across N
//! independent [`FilterEngine`] shards and matched in parallel: each
//! shard owns a disjoint subset of the profiles, so per-event results
//! merge by concatenation (no deduplication across shards is needed).
//! Matching borrows the shards immutably, which lets
//! [`std::thread::scope`] fan the work out without `Arc` or locking.

use crate::engine::{profile_ids, DocMatch, FilterEngine, FilterStats, MatchScratch};
use gsa_profile::{DnfError, ProfileExpr};
use gsa_types::{Event, ProfileId};
use gsa_wire::{EventProbe, WireError};
use std::thread;

/// A filter engine partitioned into independently matched shards.
///
/// Semantically identical to one [`FilterEngine`] holding all profiles;
/// a property test in this crate checks exactly that.
#[derive(Debug)]
pub struct ShardedFilterEngine {
    shards: Vec<FilterEngine>,
}

impl ShardedFilterEngine {
    /// Creates an engine with `shards` partitions (at least one).
    pub fn new(shards: usize) -> Self {
        ShardedFilterEngine {
            shards: (0..shards.max(1)).map(|_| FilterEngine::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, id: ProfileId) -> usize {
        (id.as_u64() % self.shards.len() as u64) as usize
    }

    /// Registers a profile expression under `id` in its home shard.
    ///
    /// # Errors
    ///
    /// Returns [`DnfError`] when the expression is too large to normalize.
    pub fn insert(&mut self, id: ProfileId, expr: &ProfileExpr) -> Result<(), DnfError> {
        let shard = self.shard_of(id);
        self.shards[shard].insert(id, expr)
    }

    /// Removes a profile. Returns `true` when it was registered.
    pub fn remove(&mut self, id: ProfileId) -> bool {
        let shard = self.shard_of(id);
        self.shards[shard].remove(id)
    }

    /// Whether the profile id is registered.
    pub fn contains(&self, id: ProfileId) -> bool {
        self.shards[self.shard_of(id)].contains(id)
    }

    /// Number of registered profiles across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(FilterEngine::len).sum()
    }

    /// Returns `true` when no profiles are registered.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(FilterEngine::is_empty)
    }

    /// Aggregated index statistics across all shards.
    pub fn stats(&self) -> FilterStats {
        self.shards
            .iter()
            .map(FilterEngine::stats)
            .fold(FilterStats::default(), FilterStats::merge)
    }

    /// Every (profile, document) match of `event`, sorted by profile id
    /// then document index — [`FilterEngine::match_docs_into`] over the
    /// union of the shards, one scoped thread per shard.
    pub fn match_docs(&self, event: &Event) -> Vec<DocMatch> {
        self.match_docs_batch(&[event])
            .pop()
            .expect("one result per event")
    }

    /// [`match_docs`](Self::match_docs) for a batch of events held by
    /// reference, one result per event.
    ///
    /// This is the intended high-throughput entry point: threads are
    /// spawned once per *batch*, each shard thread reuses one
    /// [`MatchScratch`] across the whole batch, and the delivery
    /// pipeline's `Arc`-shared events cross the fan-out without a clone.
    /// Shards own disjoint profiles, so their sorted runs merge by
    /// concatenating and sorting per event.
    pub fn match_docs_batch(&self, events: &[&Event]) -> Vec<Vec<DocMatch>> {
        let match_shard = |shard: &FilterEngine| {
            let mut scratch = MatchScratch::new();
            let per_event = |event: &&Event| {
                let mut hits = Vec::new();
                shard.match_docs_into(event, &mut scratch, &mut hits);
                hits
            };
            events.iter().map(per_event).collect::<Vec<_>>()
        };
        if let [only] = self.shards.as_slice() {
            return match_shard(only);
        }
        let per_shard = thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| scope.spawn(move || match_shard(shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard matcher panicked"))
                .collect::<Vec<_>>()
        });
        let mut merged: Vec<Vec<DocMatch>> = vec![Vec::new(); events.len()];
        for shard_results in per_shard {
            for (event_idx, mut hits) in shard_results.into_iter().enumerate() {
                merged[event_idx].append(&mut hits);
            }
        }
        for hits in &mut merged {
            hits.sort_unstable();
        }
        merged
    }

    /// The profiles matching `event` (in ascending id order).
    pub fn matches(&self, event: &Event) -> Vec<ProfileId> {
        self.matches_batch_refs(&[event])
            .pop()
            .expect("one result per event")
    }

    /// Matches a batch of events, returning one match set per event (each
    /// in ascending id order).
    pub fn matches_batch(&self, events: &[Event]) -> Vec<Vec<ProfileId>> {
        let refs: Vec<&Event> = events.iter().collect();
        self.matches_batch_refs(&refs)
    }

    /// [`ShardedFilterEngine::matches_batch`] for events held by
    /// reference: the distinct profiles of
    /// [`match_docs_batch`](Self::match_docs_batch).
    pub fn matches_batch_refs(&self, events: &[&Event]) -> Vec<Vec<ProfileId>> {
        let ids = |hits: Vec<DocMatch>| {
            let mut out = Vec::new();
            profile_ids(&hits, &mut out);
            out
        };
        self.match_docs_batch(events).into_iter().map(ids).collect()
    }

    /// Conservative pre-filter across all shards: `Ok(false)` proves no
    /// shard holds a profile that could match the frozen binary event.
    ///
    /// Shards probe sequentially — a probe is a cheap cursor over the
    /// frozen bytes (cloning one copies offsets, not payload), and the
    /// first shard that cannot rule the event out short-circuits.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the frozen encoding is malformed;
    /// callers treat an error as "may match" so the decode path reports
    /// it.
    pub fn probe_matches(
        &self,
        probe: &mut EventProbe<'_>,
        scratch: &mut MatchScratch,
    ) -> Result<bool, WireError> {
        if self.shards.len() == 1 {
            return self.shards[0].probe_matches(probe, scratch);
        }
        for shard in &self.shards {
            if shard.probe_matches(&mut probe.clone(), scratch)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_profile::parse_profile;
    use gsa_types::{CollectionId, DocSummary, EventId, EventKind, SimTime};

    fn pid(raw: u64) -> ProfileId {
        ProfileId::from_raw(raw)
    }

    fn event(host: &str) -> Event {
        Event::new(
            EventId::new(host, 1),
            CollectionId::new(host, "E"),
            EventKind::DocumentsAdded,
            SimTime::ZERO,
        )
        .with_docs(vec![DocSummary::new("d1")])
    }

    fn sharded_with(shards: usize, profiles: &[(u64, &str)]) -> ShardedFilterEngine {
        let mut e = ShardedFilterEngine::new(shards);
        for (id, text) in profiles {
            e.insert(pid(*id), &parse_profile(text).unwrap()).unwrap();
        }
        e
    }

    #[test]
    fn shards_partition_profiles() {
        let e = sharded_with(
            3,
            &[
                (0, r#"host = "London""#),
                (1, r#"host = "London""#),
                (2, r#"host = "London""#),
                (3, r#"host = "Paris""#),
            ],
        );
        assert_eq!(e.shard_count(), 3);
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
        assert!(e.contains(pid(3)));
        assert_eq!(e.stats().profiles, 4);
        // Matches merge across shards, sorted ascending.
        assert_eq!(e.matches(&event("London")), vec![pid(0), pid(1), pid(2)]);
        assert_eq!(e.matches(&event("Paris")), vec![pid(3)]);
    }

    #[test]
    fn remove_routes_to_home_shard() {
        let mut e = sharded_with(2, &[(0, r#"host = "X""#), (1, r#"host = "X""#)]);
        assert!(e.remove(pid(0)));
        assert!(!e.remove(pid(0)));
        assert!(!e.contains(pid(0)));
        assert_eq!(e.matches(&event("X")), vec![pid(1)]);
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let e = ShardedFilterEngine::new(0);
        assert_eq!(e.shard_count(), 1);
        assert!(e.is_empty());
        assert!(e.matches(&event("X")).is_empty());
    }

    #[test]
    fn batch_refs_agrees_with_owned_batch() {
        let e = sharded_with(
            3,
            &[(0, r#"host = "A""#), (1, r#"host = "B""#), (2, r#"text ~ "*""#)],
        );
        let events = vec![event("A"), event("B"), event("C")];
        let refs: Vec<&Event> = events.iter().collect();
        assert_eq!(e.matches_batch_refs(&refs), e.matches_batch(&events));
    }

    #[test]
    fn sharded_probe_agrees_with_single_engine() {
        let profiles: &[(u64, &str)] = &[
            (0, r#"host = "A""#),
            (1, r#"host = "B""#),
            (2, r#"host = "C" AND kind = "collection-rebuilt""#),
        ];
        let sharded = sharded_with(3, profiles);
        let mut single = FilterEngine::new();
        for (id, text) in profiles {
            single.insert(pid(*id), &parse_profile(text).unwrap()).unwrap();
        }
        let mut scratch = MatchScratch::new();
        for host in ["A", "B", "C", "Z"] {
            let ev = event(host);
            let bytes =
                gsa_wire::binary::payload_bytes_from_xml(&gsa_wire::codec::event_to_xml(&ev));
            let mut probe = EventProbe::from_payload(&bytes).unwrap().unwrap();
            let sharded_verdict = sharded
                .probe_matches(&mut probe.clone(), &mut scratch)
                .unwrap();
            let single_verdict = single.probe_matches(&mut probe, &mut scratch).unwrap();
            assert_eq!(sharded_verdict, single_verdict, "host {host}");
            assert_eq!(sharded_verdict, matches!(host, "A" | "B"), "host {host}");
        }
    }

    #[test]
    fn batch_agrees_with_per_event_matching() {
        let e = sharded_with(
            4,
            &[
                (0, r#"host = "A""#),
                (1, r#"host = "B""#),
                (2, r#"host in ["A", "B"]"#),
                (3, r#"text ~ "*""#),
            ],
        );
        let events = vec![event("A"), event("B"), event("C")];
        let batched = e.matches_batch(&events);
        let singles: Vec<_> = events.iter().map(|ev| e.matches(ev)).collect();
        assert_eq!(batched, singles);
        assert_eq!(batched[0], vec![pid(0), pid(2), pid(3)]);
        assert_eq!(batched[2], vec![pid(3)]);
    }
}
