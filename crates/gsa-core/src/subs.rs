//! The per-server subscription manager.
//!
//! Profiles live only on the server the client registered them with
//! (research problems 3 and 4: one access point per user, and no profile
//! on a server that might become unreachable). Cancellation is therefore
//! always a local operation, which is what rules out dangling *user*
//! profiles by construction.

use gsa_filter::{DocMatch, FilterEngine, MatchScratch, ShardedFilterEngine};
use gsa_profile::{DnfError, Profile, ProfileExpr};
use gsa_types::{ClientId, DocId, Event, ProfileId, SimTime};
use gsa_wire::InterestSummary;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A notification queued for a client.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// The matching profile.
    pub profile: ProfileId,
    /// The owning client.
    pub client: ClientId,
    /// The matched event (shared — one rebuild can notify many
    /// profiles, so notifications hold the event by reference count).
    pub event: Arc<Event>,
    /// The documents within the event that satisfied the profile (empty
    /// for event-level matches on docless events).
    pub matched_docs: Vec<DocId>,
    /// When the notification was produced (local server time).
    pub at: SimTime,
}

impl fmt::Display for Notification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} for {}: {} ({} docs)",
            self.at,
            self.profile,
            self.client,
            self.event,
            self.matched_docs.len()
        )
    }
}

/// The matching backend: one equality-preferred engine, or the same
/// engine partitioned by profile id into shards matched in parallel
/// when a batch of deliveries drains at once. The two agree exactly on
/// semantics (a property test in `gsa-filter` pins that), so switching
/// backends never changes which notifications are produced.
#[derive(Debug)]
// One engine per server, never stored in collections — the size gap
// between variants costs nothing, while boxing would cost a deref on
// every match.
#[allow(clippy::large_enum_variant)]
enum MatchEngine {
    Single(FilterEngine),
    Sharded(ShardedFilterEngine),
}

impl Default for MatchEngine {
    fn default() -> Self {
        MatchEngine::Single(FilterEngine::new())
    }
}

impl MatchEngine {
    fn insert(
        &mut self,
        id: ProfileId,
        expr: &ProfileExpr,
    ) -> Result<(), DnfError> {
        match self {
            MatchEngine::Single(e) => e.insert(id, expr),
            MatchEngine::Sharded(e) => e.insert(id, expr),
        }
    }

    fn remove(&mut self, id: ProfileId) {
        match self {
            MatchEngine::Single(e) => {
                e.remove(id);
            }
            MatchEngine::Sharded(e) => {
                e.remove(id);
            }
        }
    }

    fn probe_matches(
        &self,
        probe: &mut gsa_wire::EventProbe<'_>,
        scratch: &mut MatchScratch,
    ) -> Result<bool, gsa_wire::WireError> {
        match self {
            MatchEngine::Single(e) => e.probe_matches(probe, scratch),
            MatchEngine::Sharded(e) => e.probe_matches(probe, scratch),
        }
    }

    fn match_docs_into(&self, event: &Event, scratch: &mut MatchScratch, out: &mut Vec<DocMatch>) {
        match self {
            MatchEngine::Single(e) => e.match_docs_into(event, scratch, out),
            MatchEngine::Sharded(e) => *out = e.match_docs(event),
        }
    }
}

/// Stores one server's client profiles and filters events against them
/// with the equality-preferred engine.
#[derive(Debug, Default)]
pub struct SubscriptionManager {
    engine: MatchEngine,
    profiles: HashMap<ProfileId, Profile>,
    next_profile: u64,
    mailboxes: HashMap<ClientId, Vec<Notification>>,
    /// Reusable matching state; after warm-up the engine's indexed path
    /// runs allocation-free across the event stream.
    scratch: MatchScratch,
    hits: Vec<DocMatch>,
}

impl SubscriptionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        SubscriptionManager::default()
    }

    /// Repartitions the matching backend into `shards` independently
    /// matched engines (`1` restores the single engine). Every stored
    /// profile is re-indexed into its home shard; match results are
    /// unchanged — only batch drains fan out across the shards.
    pub fn set_shards(&mut self, shards: usize) {
        let mut engine = if shards <= 1 {
            MatchEngine::Single(FilterEngine::new())
        } else {
            MatchEngine::Sharded(ShardedFilterEngine::new(shards))
        };
        for profile in self.profiles.values() {
            engine
                .insert(profile.id(), profile.expr())
                .expect("previously indexed profile re-indexes");
        }
        self.engine = engine;
    }

    /// Number of shards in the matching backend (1 for the single
    /// engine).
    pub fn shards(&self) -> usize {
        match &self.engine {
            MatchEngine::Single(_) => 1,
            MatchEngine::Sharded(e) => e.shard_count(),
        }
    }

    /// Number of stored profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Returns `true` when no profiles are stored.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Registers a profile for `client`.
    ///
    /// # Errors
    ///
    /// Returns [`DnfError`] when the expression is too large to index.
    pub fn subscribe(
        &mut self,
        client: ClientId,
        expr: ProfileExpr,
    ) -> Result<ProfileId, DnfError> {
        let id = ProfileId::from_raw(self.next_profile);
        self.engine.insert(id, &expr)?;
        self.next_profile += 1;
        self.profiles.insert(id, Profile::new(id, client, expr));
        Ok(id)
    }

    /// Re-registers a recovered profile under its original id (the
    /// durable-state replay path). Unlike [`subscribe`](Self::subscribe)
    /// the id is the caller's: recovery must reproduce the pre-crash id
    /// space so persisted unsubscribe records and client-held handles
    /// keep meaning the same profile. Bumps the id allocator past `id`.
    ///
    /// # Errors
    ///
    /// Returns [`DnfError`] when the expression is too large to index
    /// (cannot happen for expressions that indexed before the crash).
    pub fn restore(
        &mut self,
        id: ProfileId,
        client: ClientId,
        expr: ProfileExpr,
    ) -> Result<(), DnfError> {
        self.engine.insert(id, &expr)?;
        self.profiles.insert(id, Profile::new(id, client, expr));
        self.set_next_profile_at_least(id.as_u64() + 1);
        Ok(())
    }

    /// Ensures the next assigned profile id is at least `n` (recovery
    /// resumes the allocator from the persisted high-water mark, which
    /// can sit above every live profile when the newest ones were
    /// unsubscribed before the crash).
    pub fn set_next_profile_at_least(&mut self, n: u64) {
        self.next_profile = self.next_profile.max(n);
    }

    /// Models a server crash: every profile, the filter index and the
    /// id allocator vanish — exactly what an in-memory server loses.
    /// Client mailboxes survive deliberately: they model the *client
    /// side* inbox of already-produced notifications, not server state.
    /// The shard count is preserved (it is deployment configuration,
    /// not data).
    pub fn wipe_for_crash(&mut self) {
        let shards = self.shards();
        self.engine = if shards <= 1 {
            MatchEngine::Single(FilterEngine::new())
        } else {
            MatchEngine::Sharded(ShardedFilterEngine::new(shards))
        };
        self.profiles.clear();
        self.next_profile = 0;
    }

    /// Cancels a profile. Local and immediate (research problem 4).
    /// Returns `true` when it existed.
    pub fn unsubscribe(&mut self, profile: ProfileId) -> bool {
        self.engine.remove(profile);
        self.profiles.remove(&profile).is_some()
    }

    /// Cancels all profiles of a client, returning how many were removed.
    pub fn unsubscribe_client(&mut self, client: ClientId) -> usize {
        let ids: Vec<ProfileId> = self
            .profiles
            .values()
            .filter(|p| p.owner() == client)
            .map(Profile::id)
            .collect();
        for id in &ids {
            self.unsubscribe(*id);
        }
        ids.len()
    }

    /// Borrows a profile.
    pub fn profile(&self, id: ProfileId) -> Option<&Profile> {
        self.profiles.get(&id)
    }

    /// Iterates over all profiles (arbitrary order).
    pub fn profiles(&self) -> impl Iterator<Item = &Profile> {
        self.profiles.values()
    }

    /// The conservative interest digest of every stored profile — the
    /// union of [`gsa_profile::interests_of`] over all expressions,
    /// announced to the GDS flood-pruning layer. Empty when no profiles
    /// are stored; wildcard as soon as any profile cannot be anchored to
    /// exact origins.
    pub fn interest_summary(&self) -> InterestSummary {
        let mut summary = InterestSummary::empty();
        for profile in self.profiles.values() {
            summary.union_with(&gsa_profile::interests_of(profile.expr()));
            if summary.is_wildcard() {
                break;
            }
        }
        summary
    }

    /// Conservative zero-materialisation pre-filter over a frozen binary
    /// event: `false` proves no stored profile can match, so the caller
    /// may skip decoding entirely. `true` (including probe errors, which
    /// pass through so the decode path reports them) means "decode and
    /// run [`filter_event`](Self::filter_event)". Shares the manager's
    /// warm [`MatchScratch`], so after warm-up a rejected event costs no
    /// heap allocation.
    pub fn could_match_probe(&mut self, probe: &mut gsa_wire::EventProbe<'_>) -> bool {
        self.engine
            .probe_matches(probe, &mut self.scratch)
            .unwrap_or(true)
    }

    /// Filters an event against every stored profile, queueing a
    /// notification per matching profile. Returns the notifications
    /// produced.
    pub fn filter_event(&mut self, event: &Arc<Event>, now: SimTime) -> Vec<Notification> {
        self.match_and_notify(std::slice::from_ref(event), now, true)
    }

    /// Like [`filter_event`](Self::filter_event) but without touching
    /// client mailboxes: the caller decides which of the produced
    /// notifications are actually queued (the delivery-policy layer —
    /// a suppressed notification must not land in a mailbox either).
    pub fn filter_event_unqueued(
        &mut self,
        event: &Arc<Event>,
        now: SimTime,
    ) -> Vec<Notification> {
        self.match_and_notify(std::slice::from_ref(event), now, false)
    }

    /// Filters a batch of events in one pass, queueing notifications
    /// exactly as per-event [`filter_event`](Self::filter_event) calls
    /// would, in event order. With a sharded backend the whole batch
    /// crosses the shard fan-out once instead of once per event.
    pub fn filter_events(&mut self, events: &[Arc<Event>], now: SimTime) -> Vec<Notification> {
        self.match_and_notify(events, now, true)
    }

    /// Batch variant of [`filter_event_unqueued`](Self::filter_event_unqueued):
    /// same match pass as [`filter_events`](Self::filter_events), no
    /// mailbox writes.
    pub fn filter_events_unqueued(
        &mut self,
        events: &[Arc<Event>],
        now: SimTime,
    ) -> Vec<Notification> {
        self.match_and_notify(events, now, false)
    }

    /// The one match → notification routine behind the four `filter_*`
    /// entry points: one match pass per event in arrival order (one
    /// fan-out per batch on a sharded backend), one notification per
    /// matched profile in ascending id order, built from the documents
    /// the engine reports — the expression is not evaluated again.
    fn match_and_notify(
        &mut self,
        events: &[Arc<Event>],
        now: SimTime,
        queue: bool,
    ) -> Vec<Notification> {
        let mut out = Vec::new();
        let mut emit = |event: &Arc<Event>, hits: &[DocMatch]| {
            for of_profile in hits.chunk_by(|a, b| a.profile == b.profile) {
                let profile = &self.profiles[&of_profile[0].profile];
                // A docless event matches with no document at all.
                let docs = of_profile.iter().filter_map(|hit| hit.doc);
                let mut matched_docs = Vec::with_capacity(docs.clone().count());
                matched_docs.extend(docs.map(|at| event.docs[at as usize].doc.clone()));
                let notification = Notification {
                    profile: profile.id(),
                    client: profile.owner(),
                    event: Arc::clone(event),
                    matched_docs,
                    at: now,
                };
                if queue {
                    self.mailboxes
                        .entry(notification.client)
                        .or_default()
                        .push(notification.clone());
                }
                out.push(notification);
            }
        };
        match &self.engine {
            MatchEngine::Sharded(sharded) if events.len() > 1 => {
                let refs: Vec<&Event> = events.iter().map(Arc::as_ref).collect();
                for (event, hits) in events.iter().zip(sharded.match_docs_batch(&refs)) {
                    emit(event, &hits);
                }
            }
            engine => {
                for event in events {
                    engine.match_docs_into(event, &mut self.scratch, &mut self.hits);
                    emit(event, &self.hits);
                }
            }
        }
        out
    }

    /// Queues an already-built notification into its client's mailbox —
    /// the admission path for policy-gated deliveries (immediate or
    /// digest-flushed).
    pub fn queue_notification(&mut self, n: &Notification) {
        self.mailboxes.entry(n.client).or_default().push(n.clone());
    }

    /// Drains a client's mailbox.
    pub fn take_notifications(&mut self, client: ClientId) -> Vec<Notification> {
        self.mailboxes.remove(&client).unwrap_or_default()
    }

    /// Peeks at a client's mailbox without draining it.
    pub fn peek_notifications(&self, client: ClientId) -> &[Notification] {
        self.mailboxes
            .get(&client)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total queued notifications across all mailboxes.
    pub fn queued_notifications(&self) -> usize {
        self.mailboxes.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_profile::parse_profile;
    use gsa_types::{CollectionId, DocSummary, EventId, EventKind};

    fn event(host: &str, doc: &str) -> Arc<Event> {
        Arc::new(Event::new(
            EventId::new(host, 1),
            CollectionId::new(host, "C"),
            EventKind::DocumentsAdded,
            SimTime::from_millis(5),
        )
        .with_docs(vec![DocSummary::new(doc)]))
    }

    fn client(raw: u64) -> ClientId {
        ClientId::from_raw(raw)
    }

    #[test]
    fn subscribe_filter_notify() {
        let mut subs = SubscriptionManager::new();
        let p = subs
            .subscribe(client(1), parse_profile(r#"host = "London""#).unwrap())
            .unwrap();
        let notifications = subs.filter_event(&event("London", "d1"), SimTime::ZERO);
        assert_eq!(notifications.len(), 1);
        assert_eq!(notifications[0].profile, p);
        assert_eq!(notifications[0].client, client(1));
        assert_eq!(notifications[0].matched_docs, vec![DocId::new("d1")]);
        let inbox = subs.take_notifications(client(1));
        assert_eq!(inbox.len(), 1);
        assert!(subs.take_notifications(client(1)).is_empty());
    }

    #[test]
    fn matched_docs_are_the_documents_the_engine_reports() {
        let docs = ["d0", "d1", "d2"].map(|id| DocSummary::new(id).with_excerpt(id));
        let rebuilt = Arc::new(
            Event::new(
                EventId::new("London", 1),
                CollectionId::new("London", "C"),
                EventKind::CollectionRebuilt,
                SimTime::ZERO,
            )
            .with_docs(docs.to_vec()),
        );
        let deleted = Arc::new(Event::new(
            EventId::new("London", 2),
            CollectionId::new("London", "C"),
            EventKind::CollectionDeleted,
            SimTime::ZERO,
        ));
        for shards in [1, 3] {
            let mut subs = SubscriptionManager::new();
            subs.set_shards(shards);
            for text in [
                r#"collection = "London.C" AND (doc = "d0" OR text ? (d2))"#,
                r#"host = "London""#,
                r#"doc = "nope""#,
            ] {
                subs.subscribe(client(1), parse_profile(text).unwrap()).unwrap();
            }
            let single = subs.filter_event(&rebuilt, SimTime::ZERO);
            let docs_of = |n: &Notification| -> Vec<String> {
                n.matched_docs.iter().map(|d| d.as_str().to_string()).collect()
            };
            assert_eq!(single.len(), 2, "{shards} shards");
            assert_eq!(docs_of(&single[0]), ["d0", "d2"]);
            assert_eq!(docs_of(&single[1]), ["d0", "d1", "d2"]);
            // The expression, evaluated directly, names the same documents.
            for n in &single {
                let oracle = subs.profile(n.profile).unwrap().expr().matching_docs(&rebuilt);
                assert_eq!(n.matched_docs.iter().collect::<Vec<_>>(), oracle);
                assert_eq!(n.matched_docs.capacity(), n.matched_docs.len());
            }
            // A docless event matches on its envelope, with no documents;
            // the batch path builds the same notifications.
            let batch = subs.filter_events(&[Arc::clone(&rebuilt), deleted.clone()], SimTime::ZERO);
            assert_eq!(batch[..2], single[..]);
            assert_eq!(batch.len(), 3);
            assert_eq!(batch[2].profile, single[1].profile);
            assert!(batch[2].matched_docs.is_empty());
        }
    }

    #[test]
    fn unsubscribe_is_immediate() {
        let mut subs = SubscriptionManager::new();
        let p = subs
            .subscribe(client(1), parse_profile(r#"host = "London""#).unwrap())
            .unwrap();
        assert!(subs.unsubscribe(p));
        assert!(!subs.unsubscribe(p));
        assert!(subs.filter_event(&event("London", "d"), SimTime::ZERO).is_empty());
    }

    #[test]
    fn unsubscribe_client_removes_all() {
        let mut subs = SubscriptionManager::new();
        subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        subs.subscribe(client(1), parse_profile(r#"host = "B""#).unwrap()).unwrap();
        subs.subscribe(client(2), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        assert_eq!(subs.unsubscribe_client(client(1)), 2);
        assert_eq!(subs.len(), 1);
    }

    #[test]
    fn distinct_clients_distinct_mailboxes() {
        let mut subs = SubscriptionManager::new();
        subs.subscribe(client(1), parse_profile(r#"host = "X""#).unwrap()).unwrap();
        subs.subscribe(client(2), parse_profile(r#"host = "X""#).unwrap()).unwrap();
        subs.filter_event(&event("X", "d"), SimTime::ZERO);
        assert_eq!(subs.peek_notifications(client(1)).len(), 1);
        assert_eq!(subs.peek_notifications(client(2)).len(), 1);
        assert_eq!(subs.queued_notifications(), 2);
    }

    #[test]
    fn profile_ids_are_unique_across_removals() {
        let mut subs = SubscriptionManager::new();
        let p1 = subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        subs.unsubscribe(p1);
        let p2 = subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn notification_display() {
        let mut subs = SubscriptionManager::new();
        subs.subscribe(client(3), parse_profile(r#"host = "X""#).unwrap()).unwrap();
        let n = subs.filter_event(&event("X", "d"), SimTime::from_millis(7));
        let s = n[0].to_string();
        assert!(s.contains("client-3"));
        assert!(s.contains("X.C"));
    }

    #[test]
    fn interest_summary_unions_profiles() {
        let mut subs = SubscriptionManager::new();
        assert!(subs.interest_summary().is_empty());
        let p = subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        subs.subscribe(client(2), parse_profile(r#"collection = "B.C""#).unwrap()).unwrap();
        let s = subs.interest_summary();
        assert!(s.may_match("A", "A.X") && s.may_match("B", "B.C"));
        assert!(!s.may_match("Z", "Z.Z"));
        // An unanchorable profile widens the whole digest.
        subs.subscribe(client(3), parse_profile(r#"kind = "rebuilt""#).unwrap()).unwrap();
        assert!(subs.interest_summary().is_wildcard());
        // Cancellation narrows it back.
        subs.unsubscribe_client(client(3));
        subs.unsubscribe(p);
        let s = subs.interest_summary();
        assert!(!s.may_match("A", "A.X") && s.may_match("B", "B.C"));
    }

    #[test]
    fn filter_events_batch_equals_per_event_calls() {
        let build = || {
            let mut subs = SubscriptionManager::new();
            subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
            subs.subscribe(client(2), parse_profile(r#"text ~ "*""#).unwrap()).unwrap();
            subs
        };
        let events = vec![event("A", "d1"), event("B", "d2"), event("A", "d3")];
        let mut per_event = build();
        let mut batched = build();
        let singles: Vec<Notification> = events
            .iter()
            .flat_map(|e| per_event.filter_event(e, SimTime::ZERO))
            .collect();
        let batch = batched.filter_events(&events, SimTime::ZERO);
        assert_eq!(singles, batch);
        assert_eq!(per_event.queued_notifications(), batched.queued_notifications());
    }

    #[test]
    fn sharded_backend_matches_like_single() {
        let build = |shards| {
            let mut subs = SubscriptionManager::new();
            for c in 0..3u64 {
                let text = format!(r#"host = "H{c}""#);
                subs.subscribe(client(c), parse_profile(&text).unwrap()).unwrap();
            }
            subs.subscribe(client(9), parse_profile(r#"text ~ "*""#).unwrap()).unwrap();
            subs.set_shards(shards);
            subs
        };
        let events: Vec<_> = ["H0", "H1", "H2", "H9"]
            .iter()
            .map(|h| event(h, "d"))
            .collect();
        let mut single = build(1);
        let mut sharded = build(4);
        assert_eq!(single.shards(), 1);
        assert_eq!(sharded.shards(), 4);
        // Batch drain across shards, per-event drain on the single
        // engine: byte-identical notification streams.
        let a: Vec<Notification> = events
            .iter()
            .flat_map(|e| single.filter_event(e, SimTime::ZERO))
            .collect();
        let b = sharded.filter_events(&events, SimTime::ZERO);
        assert_eq!(a, b);
        // Single-event drains agree too.
        assert_eq!(
            single.filter_event(&events[0], SimTime::ZERO),
            sharded.filter_event(&events[0], SimTime::ZERO)
        );
        // Unsubscribing routes to the home shard.
        assert!(sharded.unsubscribe(ProfileId::from_raw(3)));
        assert!(sharded.filter_events(&[event("Zzz", "d")], SimTime::ZERO).is_empty());
    }

    #[test]
    fn wipe_then_restore_reproduces_the_id_space() {
        let mut subs = SubscriptionManager::new();
        let p1 = subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        let p2 = subs.subscribe(client(2), parse_profile(r#"host = "B""#).unwrap()).unwrap();
        subs.unsubscribe(p2);
        subs.filter_event(&event("A", "d"), SimTime::ZERO);
        assert_eq!(subs.queued_notifications(), 1);

        subs.wipe_for_crash();
        assert!(subs.is_empty());
        assert!(subs.filter_event(&event("A", "d"), SimTime::ZERO).is_empty());
        // Mailboxes are client-side state and survive the crash.
        assert_eq!(subs.queued_notifications(), 1);

        // Replay what durable state would hand back.
        subs.restore(p1, client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        subs.set_next_profile_at_least(2);
        assert_eq!(subs.profile(p1).unwrap().owner(), client(1));
        assert_eq!(subs.filter_event(&event("A", "d"), SimTime::ZERO).len(), 1);
        // The allocator resumes past the unsubscribed-high-water mark.
        let p3 = subs.subscribe(client(3), parse_profile(r#"host = "C""#).unwrap()).unwrap();
        assert_ne!(p3, p1);
        assert_ne!(p3, p2);
    }

    #[test]
    fn wipe_for_crash_preserves_shard_count() {
        let mut subs = SubscriptionManager::new();
        subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        subs.set_shards(4);
        subs.wipe_for_crash();
        assert_eq!(subs.shards(), 4);
        assert!(subs.is_empty());
        subs.restore(
            ProfileId::from_raw(0),
            client(1),
            parse_profile(r#"host = "A""#).unwrap(),
        )
        .unwrap();
        assert_eq!(subs.filter_event(&event("A", "d"), SimTime::ZERO).len(), 1);
    }

    #[test]
    fn unqueued_variants_match_but_do_not_touch_mailboxes() {
        let mut subs = SubscriptionManager::new();
        subs.subscribe(client(1), parse_profile(r#"host = "X""#).unwrap()).unwrap();
        let single = subs.filter_event_unqueued(&event("X", "d"), SimTime::ZERO);
        assert_eq!(single.len(), 1);
        assert_eq!(subs.queued_notifications(), 0);
        let batch = subs.filter_events_unqueued(&[event("X", "d")], SimTime::ZERO);
        assert_eq!(batch, single);
        assert_eq!(subs.queued_notifications(), 0);
        // The queueing variant produces the same notifications.
        let queued = subs.filter_event(&event("X", "d"), SimTime::ZERO);
        assert_eq!(queued, single);
        assert_eq!(subs.queued_notifications(), 1);
        // Explicit admission lands in the right mailbox.
        subs.queue_notification(&single[0]);
        assert_eq!(subs.peek_notifications(client(1)).len(), 2);
    }

    #[test]
    fn profiles_accessor() {
        let mut subs = SubscriptionManager::new();
        let p = subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        assert!(subs.profile(p).is_some());
        assert_eq!(subs.profiles().count(), 1);
        assert!(!subs.is_empty());
    }
}
