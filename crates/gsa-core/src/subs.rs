//! The per-server subscription manager: the profile machine.
//!
//! Profiles live only on the server the client registered them with
//! (research problems 3 and 4: one access point per user, and no profile
//! on a server that might become unreachable). Cancellation is therefore
//! always a local operation, which is what rules out dangling *user*
//! profiles by construction.
//!
//! Events are matched by the server's one [`FilterEngine`] (the paper's
//! §5 equality-preferred filter); there is no other matching backend.
//! The manager also keeps the interest counts the server's summary is
//! read from, and decides when that summary is announced for flood
//! pruning and under which version.

use gsa_filter::{DocMatch, FilterEngine, FilterStats, MatchScratch};
use gsa_profile::{DnfError, Profile, ProfileExpr};
use gsa_types::{ClientId, DocId, Event, FxHashMap, ProfileId, SimTime};
use gsa_wire::{InterestCounts, InterestSummary};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A notification: built once, when a match is admitted, and kept in
/// its client's mailbox until drained. It names its documents by
/// position in its event, so up to 64 of them cost no allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// The matching profile.
    pub profile: ProfileId,
    /// The owning client.
    pub client: ClientId,
    /// The matched event (shared — one rebuild can notify many
    /// profiles, so notifications hold the event by reference count).
    pub event: Arc<Event>,
    /// Which of `event.docs` satisfied the profile: read through
    /// [`matched_docs`](Self::matched_docs).
    pub(crate) docs: DocPositions,
    /// When the notification was produced (local server time).
    pub at: SimTime,
}

/// Ascending positions into an event's documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DocPositions {
    /// Bit `i` stands for `event.docs[i]`: events of up to 64 documents.
    Bits(u64),
    /// Events of more: one exactly sized block.
    List(Box<[u32]>),
}

impl DocPositions {
    /// The ascending positions `at` of an event of `len` documents.
    fn of(at: impl Iterator<Item = u32> + Clone, len: usize) -> DocPositions {
        if len <= 64 {
            return DocPositions::Bits(at.fold(0, |bits, at| bits | 1 << at));
        }
        let mut list = Vec::with_capacity(at.clone().count());
        list.extend(at);
        DocPositions::List(list.into_boxed_slice())
    }
}

impl Notification {
    /// The documents within the event that satisfied the profile, in
    /// event order (none for an event-level match on a docless event).
    pub fn matched_docs(&self) -> impl Iterator<Item = &DocId> {
        let (bits, list) = match &self.docs {
            DocPositions::Bits(bits) => (*bits, &[][..]),
            DocPositions::List(list) => (0, &list[..]),
        };
        let set = (0..64).filter(move |at| bits >> at & 1 == 1);
        set.chain(list.iter().copied()).map(|at| &self.event.docs[at as usize].doc)
    }
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
            self.matched_docs().count()
        )
    }
}

/// Stores one server's client profiles and filters events against them
/// with the equality-preferred engine.
#[derive(Debug, Default)]
pub struct SubscriptionManager {
    engine: FilterEngine,
    /// The stored profiles, indexed by the slot the engine keeps each
    /// under ([`FilterEngine::slot`]); `None` where the engine has none.
    profiles: Vec<Option<Profile>>,
    next_profile: u64,
    /// One entry per client ever notified; a drain leaves it in place.
    mailboxes: FxHashMap<ClientId, Vec<Notification>>,
    /// Reusable matching state; after warm-up the engine's indexed path
    /// runs allocation-free across the event stream.
    scratch: MatchScratch,
    hits: Vec<(DocMatch, u32)>,
    /// Reference counts over the stored profiles' interest digests, kept
    /// from the first [`interest_summary`](Self::interest_summary) on —
    /// a server that never announces a summary never derives a digest.
    interests: Option<InterestCounts>,
    /// When true, the server announces its interest summary to its GDS
    /// node (subscription-aware flood pruning). Off by default.
    pub(crate) pruning: bool,
    /// The last summary announced, so no-op refreshes send nothing.
    pub(crate) last_summary: Option<InterestSummary>,
    /// The version of the last announcement (0 before the first). The
    /// GDS node keeps only the newest version it has seen, so a durable
    /// server journals it and a restart announces above it.
    pub(crate) summary_version: u64,
}

#[cfg(test)]
thread_local! {
    static DERIVATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Digests derived on this thread so far (the cost pin reads it).
#[cfg(test)]
pub(crate) fn derivations() -> usize {
    DERIVATIONS.with(std::cell::Cell::get)
}

/// The interest digest of one profile expression. A pure function of the
/// expression, so what a cancel subtracts from the counts is what the
/// subscribe added.
fn digest_of(expr: &ProfileExpr) -> InterestSummary {
    #[cfg(test)]
    DERIVATIONS.with(|n| n.set(n.get() + 1));
    gsa_profile::interests_of(expr)
}

impl SubscriptionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        SubscriptionManager::default()
    }

    /// The manager after a crash (DESIGN.md §4): the client mailboxes
    /// and the pruning setting are kept and all else is lost. Then the
    /// profiles, id high-water mark and summary version that the state
    /// store recovered are replayed: all of them from a durable store,
    /// so the announcement after the restart is not discarded as stale,
    /// none from the in-memory default.
    pub(crate) fn crashed(
        self,
        profiles: BTreeMap<ProfileId, (ClientId, ProfileExpr)>,
        next_profile: u64,
        summary_version: u64,
    ) -> Self {
        let SubscriptionManager {
            mailboxes, pruning, summary_version: _, engine: _, profiles: _, next_profile: _,
            interests: _, last_summary: _, scratch: _, hits: _,
        } = self;
        let mut subs = SubscriptionManager { mailboxes, pruning, summary_version, ..Self::default() };
        for (id, (client, expr)) in profiles {
            // An expression that indexed before the crash indexes
            // again; restore() bypasses the store so replay is never
            // re-journaled.
            let _ = subs.restore(id, client, expr);
        }
        subs.set_next_profile_at_least(next_profile);
        subs
    }

    /// Number of stored profiles.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// Returns `true` when no profiles are stored.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// The filter index's size counters.
    pub fn filter_stats(&self) -> FilterStats {
        self.engine.stats()
    }

    /// Registers a profile for `client` under the next free id and
    /// returns it as stored.
    ///
    /// # Errors
    ///
    /// Returns [`DnfError`] when the expression is too large to index.
    pub fn subscribe(&mut self, client: ClientId, expr: ProfileExpr) -> Result<&Profile, DnfError> {
        let id = ProfileId::from_raw(self.next_profile);
        let slot = self.insert_profile(id, client, expr)?;
        self.next_profile += 1;
        Ok(self.profiles[slot].as_ref().expect("just stored"))
    }

    /// Re-registers a recovered profile under its original id (the
    /// durable-state replay path). Unlike [`subscribe`](Self::subscribe)
    /// the id is the caller's: recovery must reproduce the pre-crash id
    /// space so persisted unsubscribe records and client-held handles
    /// keep meaning the same profile. Bumps the id allocator past `id`.
    /// Restoring over a live id replaces that profile, as the later of
    /// two journal records for one id replaces the earlier.
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
        self.insert_profile(id, client, expr)?;
        self.set_next_profile_at_least(id.as_u64() + 1);
        Ok(())
    }

    /// Indexes and stores a profile — the one way a profile comes to be
    /// stored — and returns its slot. Kept counts gain its digest and
    /// lose that of the profile it replaced (same id, so same slot); a
    /// profile replaced by an equal expression — every one, when a server
    /// replays its journal over live state — derives none.
    fn insert_profile(
        &mut self,
        id: ProfileId,
        client: ClientId,
        expr: ProfileExpr,
    ) -> Result<usize, DnfError> {
        self.engine.insert(id, &expr)?;
        let slot = self.engine.slot(id).expect("just inserted") as usize;
        if slot >= self.profiles.len() {
            self.profiles.resize_with(slot + 1, || None);
        }
        let replaced = self.profiles[slot].take();
        let stored = self.profiles[slot].insert(Profile::new(id, client, expr));
        if let Some(counts) = &mut self.interests {
            if replaced.as_ref().map(Profile::expr) != Some(stored.expr()) {
                if let Some(replaced) = replaced {
                    counts.remove(&digest_of(replaced.expr()));
                }
                counts.add(&digest_of(stored.expr()));
            }
        }
        Ok(slot)
    }

    /// Ensures the next assigned profile id is at least `n` (recovery
    /// resumes the allocator from the persisted high-water mark, which
    /// can sit above every live profile when the newest ones were
    /// unsubscribed before the crash).
    pub fn set_next_profile_at_least(&mut self, n: u64) {
        self.next_profile = self.next_profile.max(n);
    }

    /// Cancels a profile. Local and immediate (research problem 4).
    /// Returns `true` when it existed.
    pub fn unsubscribe(&mut self, profile: ProfileId) -> bool {
        let Some(slot) = self.engine.slot(profile) else {
            return false;
        };
        self.engine.remove(profile);
        let removed = self.profiles[slot as usize].take();
        if let Some(counts) = &mut self.interests {
            let removed = removed.expect("an indexed profile is stored");
            counts.remove(&digest_of(removed.expr()));
        }
        true
    }

    /// Borrows a profile.
    pub fn profile(&self, id: ProfileId) -> Option<&Profile> {
        self.profiles[self.engine.slot(id)? as usize].as_ref()
    }

    /// Iterates over all profiles (arbitrary order).
    pub fn profiles(&self) -> impl Iterator<Item = &Profile> {
        self.profiles.iter().flatten()
    }

    /// `true` when a subscribe, cancel or restore since the last
    /// [`interest_summary`](Self::interest_summary) may have changed what
    /// it returns (and before its first call).
    pub fn interests_changed(&self) -> bool {
        self.interests.as_ref().is_none_or(InterestCounts::changed)
    }

    /// The conservative interest digest of every stored profile — the
    /// union of [`gsa_profile::interests_of`] over all expressions,
    /// announced to the GDS flood-pruning layer. Empty when no profiles
    /// are stored; wildcard as soon as any profile cannot be anchored to
    /// exact origins. Read off reference counts that the first call
    /// builds from the stored profiles and every later subscribe and
    /// cancel adjusts by its own profile's digest.
    pub fn interest_summary(&mut self) -> InterestSummary {
        let counts = self.interests.get_or_insert_with(|| {
            let mut counts = InterestCounts::default();
            for profile in self.profiles.iter().flatten() {
                counts.add(&digest_of(profile.expr()));
            }
            counts
        });
        counts.summary()
    }

    /// The announcement a refresh owes, when pruning is on and the
    /// summary changed since the last one (or there was none): the next
    /// version and the summary, now recorded as announced. `None`
    /// otherwise.
    pub(crate) fn announcement(&mut self) -> Option<(u64, InterestSummary)> {
        // Pruning off; or no subscribe or cancel since the last refresh
        // moved a count the summary is read from: the announcement stands,
        // and nothing the size of the summary is built or compared.
        if !self.pruning || self.last_summary.is_some() && !self.interests_changed() {
            return None;
        }
        let summary = self.interest_summary();
        if self.last_summary.as_ref() == Some(&summary) {
            return None;
        }
        self.last_summary = Some(summary.clone());
        self.summary_version += 1;
        Some((self.summary_version, summary))
    }

    /// The fold the counts replace, kept as the oracle they are tested
    /// against.
    #[cfg(test)]
    fn interest_summary_fold<'a>(profiles: impl Iterator<Item = &'a Profile>) -> InterestSummary {
        let mut summary = InterestSummary::empty();
        for profile in profiles {
            summary.union_with(&gsa_profile::interests_of(profile.expr()));
        }
        summary
    }

    /// Conservative zero-materialisation pre-filter over a frozen binary
    /// event: `false` proves no stored profile can match, so the caller
    /// may skip decoding entirely. `true` (including probe errors, which
    /// pass through so the decode path reports them) means "decode and
    /// run [`match_event`](Self::match_event)". Shares the manager's
    /// warm [`MatchScratch`], so after warm-up a rejected event costs no
    /// heap allocation.
    pub fn could_match_probe(&mut self, probe: &mut gsa_wire::EventProbe<'_>) -> bool {
        self.engine
            .probe_matches(probe, &mut self.scratch)
            .unwrap_or(true)
    }

    /// Matches an event against every stored profile: one notification
    /// per matching profile, in ascending id order, built from the
    /// documents the engine reports — the expression is not evaluated
    /// again. Mailboxes are not touched; the caller decides which of
    /// the notifications are delivered
    /// ([`queue_notification`](Self::queue_notification)).
    pub fn match_event(&mut self, event: &Arc<Event>, now: SimTime) -> Vec<Notification> {
        let mut matched = Vec::new();
        // Admits nothing: the mailboxes are the caller's to fill.
        self.deliver_matches(event, now, |_, build| {
            matched.push(build());
            false
        });
        matched
    }

    /// Matches an event and, in the same pass over the engine's hits,
    /// delivers what `admit` lets through: it sees each matching
    /// profile's id (ascending) and a builder of its notification, and
    /// on `true` the notification is built into its client's mailbox. It
    /// names its documents by position, so a delivery from an event of
    /// up to 64 documents, like a refused match, allocates nothing.
    /// Returns how many were delivered.
    pub(crate) fn deliver_matches(
        &mut self,
        event: &Arc<Event>,
        now: SimTime,
        mut admit: impl FnMut(ProfileId, &dyn Fn() -> Notification) -> bool,
    ) -> usize {
        self.engine
            .match_slots_into(event, &mut self.scratch, &mut self.hits);
        let mut delivered = 0;
        for of_profile in self.hits.chunk_by(|a, b| a.0.profile == b.0.profile) {
            let profile = self.profiles[of_profile[0].1 as usize].as_ref();
            let profile = profile.expect("a matched profile is stored");
            let build = || {
                // A docless event matches with no document at all.
                let docs = of_profile.iter().filter_map(|(hit, _slot)| hit.doc);
                Notification {
                    profile: profile.id(),
                    client: profile.owner(),
                    event: Arc::clone(event),
                    docs: DocPositions::of(docs, event.docs.len()),
                    at: now,
                }
            };
            if admit(profile.id(), &build) {
                self.mailboxes.entry(profile.owner()).or_default().push(build());
                delivered += 1;
            }
        }
        delivered
    }

    /// Moves a notification into its client's mailbox: how one admitted
    /// outside a matching pass (a flushed digest) is delivered.
    pub fn queue_notification(&mut self, n: Notification) {
        self.mailboxes.entry(n.client).or_default().push(n);
    }

    /// Drains a client's mailbox: the caller gets the buffer itself, the
    /// emptied entry stays for the next delivery.
    pub fn take_notifications(&mut self, client: ClientId) -> Vec<Notification> {
        self.mailboxes
            .get_mut(&client)
            .map(std::mem::take)
            .unwrap_or_default()
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

    /// Clients ever notified here: each has a mailbox, drained or not.
    pub fn mailboxes(&self) -> usize {
        self.mailboxes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_profile::parse_profile;
    use gsa_types::{CollectionId, DocSummary, EventId, EventKind};
    use proptest::prelude::*;

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

    /// Matches and delivers every match, as a core without delivery
    /// policies does.
    fn filter_event(
        subs: &mut SubscriptionManager,
        event: &Arc<Event>,
        now: SimTime,
    ) -> Vec<Notification> {
        let produced = subs.match_event(event, now);
        for n in &produced {
            subs.queue_notification(n.clone());
        }
        produced
    }

    #[test]
    fn subscribe_filter_notify() {
        let mut subs = SubscriptionManager::new();
        let p = subs
            .subscribe(client(1), parse_profile(r#"host = "London""#).unwrap())
            .unwrap()
            .id();
        let notifications = filter_event(&mut subs, &event("London", "d1"), SimTime::ZERO);
        assert_eq!(notifications.len(), 1);
        assert_eq!(notifications[0].profile, p);
        assert_eq!(notifications[0].client, client(1));
        assert_eq!(notifications[0].matched_docs().collect::<Vec<_>>(), [&DocId::new("d1")]);
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
        let mut subs = SubscriptionManager::new();
        for text in [
            r#"collection = "London.C" AND (doc = "d0" OR text ? (d2))"#,
            r#"host = "London""#,
            r#"doc = "nope""#,
        ] {
            subs.subscribe(client(1), parse_profile(text).unwrap()).unwrap();
        }
        let single = subs.match_event(&rebuilt, SimTime::ZERO);
        let docs_of = |n: &Notification| -> Vec<String> {
            n.matched_docs().map(|d| d.as_str().to_string()).collect()
        };
        assert_eq!(single.len(), 2);
        assert_eq!(docs_of(&single[0]), ["d0", "d2"]);
        assert_eq!(docs_of(&single[1]), ["d0", "d1", "d2"]);
        // The expression, evaluated directly, names the same documents.
        for n in &single {
            let oracle = subs.profile(n.profile).unwrap().expr().matching_docs(&rebuilt);
            assert_eq!(n.matched_docs().collect::<Vec<_>>(), oracle);
        }
        // A docless event matches on its envelope, with no documents.
        let docless = subs.match_event(&deleted, SimTime::ZERO);
        assert_eq!(docless.len(), 1);
        assert_eq!(docless[0].profile, single[1].profile);
        assert!(docless[0].matched_docs().next().is_none());
    }

    #[test]
    fn unsubscribe_is_immediate() {
        let mut subs = SubscriptionManager::new();
        let p = subs
            .subscribe(client(1), parse_profile(r#"host = "London""#).unwrap())
            .unwrap()
            .id();
        assert!(subs.unsubscribe(p));
        assert!(!subs.unsubscribe(p));
        assert!(filter_event(&mut subs, &event("London", "d"), SimTime::ZERO).is_empty());
    }

    #[test]
    fn restoring_over_a_live_id_forgets_the_profile_it_replaces() {
        let mut subs = SubscriptionManager::new();
        let host = |h: &str| parse_profile(&format!(r#"host = "{h}""#)).unwrap();
        let p = subs.subscribe(client(1), host("A")).unwrap().id();
        assert!(subs.interest_summary().may_match("A", "A.X"));
        let derived = derivations();
        subs.restore(p, client(2), host("B")).unwrap();
        assert_eq!(derivations() - derived, 2, "one digest out, one in");
        // One profile, the new one: stored, matched and announced.
        assert_eq!((subs.len(), subs.profiles().count()), (1, 1));
        assert_eq!(subs.profile(p).unwrap().owner(), client(2));
        assert!(filter_event(&mut subs, &event("A", "d"), SimTime::ZERO).is_empty());
        assert_eq!(filter_event(&mut subs, &event("B", "d"), SimTime::ZERO).len(), 1);
        let s = subs.interest_summary();
        assert!(s.may_match("B", "B.X"));
        assert!(!s.may_match("A", "A.X"), "the replaced digest is still announced");
        // Restored as itself (a journal replayed over live state), it
        // moves no count and derives nothing.
        let derived = derivations();
        subs.restore(p, client(2), host("B")).unwrap();
        assert_eq!(derivations(), derived);
        assert!(!subs.interests_changed() && subs.interest_summary().may_match("B", "B.X"));
        // Cancelling it leaves nothing behind.
        assert!(subs.unsubscribe(p));
        assert!(subs.interest_summary().is_empty());
    }

    #[test]
    fn distinct_clients_distinct_mailboxes() {
        let mut subs = SubscriptionManager::new();
        subs.subscribe(client(1), parse_profile(r#"host = "X""#).unwrap()).unwrap();
        subs.subscribe(client(2), parse_profile(r#"host = "X""#).unwrap()).unwrap();
        filter_event(&mut subs, &event("X", "d"), SimTime::ZERO);
        assert_eq!(subs.peek_notifications(client(1)).len(), 1);
        assert_eq!(subs.peek_notifications(client(2)).len(), 1);
        assert_eq!(subs.queued_notifications(), 2);
    }

    #[test]
    fn profile_ids_are_unique_across_removals() {
        let mut subs = SubscriptionManager::new();
        let p1 = subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap().id();
        subs.unsubscribe(p1);
        let p2 = subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap().id();
        assert_ne!(p1, p2);
    }

    #[test]
    fn notification_display() {
        let mut subs = SubscriptionManager::new();
        subs.subscribe(client(3), parse_profile(r#"host = "X""#).unwrap()).unwrap();
        let n = filter_event(&mut subs, &event("X", "d"), SimTime::from_millis(7));
        let s = n[0].to_string();
        assert!(s.contains("client-3"));
        assert!(s.contains("X.C"));
    }

    #[test]
    fn interest_summary_unions_profiles() {
        let mut subs = SubscriptionManager::new();
        let sub = |subs: &mut SubscriptionManager, c, text: &str| {
            subs.subscribe(client(c), parse_profile(text).unwrap())
                .unwrap()
                .id()
        };
        assert!(subs.interests_changed(), "nothing read yet");
        assert!(subs.interest_summary().is_empty());
        let p = sub(&mut subs, 1, r#"host = "A""#);
        sub(&mut subs, 2, r#"collection = "B.C""#);
        let s = subs.interest_summary();
        assert!(s.may_match("A", "A.X") && s.may_match("B", "B.C"));
        assert!(!s.may_match("Z", "Z.Z"));
        // A second holder of an anchor changes nothing that is announced.
        let again = sub(&mut subs, 2, r#"host = "A""#);
        assert!(!subs.interests_changed());
        // An unanchorable profile widens the whole digest.
        let unanchored = sub(&mut subs, 3, r#"kind = "rebuilt""#);
        assert!(subs.interests_changed());
        assert!(subs.interest_summary().is_wildcard());
        // Cancellation narrows it back: the last wildcard profile leaving
        // un-wildcards the server, the last holder of an anchor drops it.
        subs.unsubscribe(unanchored);
        subs.unsubscribe(p);
        assert!(subs.interest_summary().may_match("A", "A.X"));
        subs.unsubscribe(again);
        assert!(subs.interests_changed());
        let s = subs.interest_summary();
        assert!(!s.may_match("A", "A.X") && s.may_match("B", "B.C"));
    }

    #[test]
    fn digest_keys_come_and_go_with_the_profiles_that_decide_them() {
        let mut subs = SubscriptionManager::new();
        let mut titled: Vec<ProfileId> = (0..InterestSummary::MAX_ATTR_VALUES)
            .map(|v| {
                let text = format!(r#"host = "A" AND dc.Title = "v{v}""#);
                subs.subscribe(client(1), parse_profile(&text).unwrap())
                    .unwrap()
                    .id()
            })
            .collect();
        let titles = |subs: &mut SubscriptionManager| {
            subs.interest_summary()
                .attr_constraint("meta:dc.Title")
                .map(std::collections::BTreeSet::len)
        };
        assert_eq!(titles(&mut subs), Some(InterestSummary::MAX_ATTR_VALUES));
        // A ninth value drops the digest; it returns when one leaves.
        titled.push(
            subs.subscribe(
                client(1),
                parse_profile(r#"host = "A" AND dc.Title = "x""#).unwrap(),
            )
            .unwrap()
            .id(),
        );
        assert_eq!(titles(&mut subs), None);
        subs.unsubscribe(titled[0]);
        assert_eq!(titles(&mut subs), Some(InterestSummary::MAX_ATTR_VALUES));
        // One profile that does not constrain the key unconstrains it for
        // the server, for as long as it stays.
        let untitled = subs
            .subscribe(client(2), parse_profile(r#"host = "A""#).unwrap())
            .unwrap()
            .id();
        assert!(subs.interests_changed());
        assert_eq!(titles(&mut subs), None);
        subs.unsubscribe(untitled);
        assert!(subs.interests_changed());
        assert_eq!(titles(&mut subs), Some(InterestSummary::MAX_ATTR_VALUES));
        // An unsatisfiable profile holds no interest: it counts for nothing.
        subs.subscribe(client(2), ProfileExpr::Or(Vec::new()))
            .unwrap();
        assert!(!subs.interests_changed());
    }

    #[test]
    fn wipe_then_restore_reproduces_the_id_space() {
        let mut subs = SubscriptionManager::new();
        let p1 = subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap().id();
        let p2 = subs.subscribe(client(2), parse_profile(r#"host = "B""#).unwrap()).unwrap().id();
        subs.unsubscribe(p2);
        filter_event(&mut subs, &event("A", "d"), SimTime::ZERO);
        assert_eq!(subs.queued_notifications(), 1);

        // The restarted server's manager: new, with the crashed one's
        // mailboxes.
        let mut subs = SubscriptionManager { mailboxes: subs.mailboxes, ..SubscriptionManager::new() };
        assert!(subs.is_empty());
        assert!(filter_event(&mut subs, &event("A", "d"), SimTime::ZERO).is_empty());
        // Mailboxes are client-side state and survive the crash.
        assert_eq!(subs.queued_notifications(), 1);

        // Replay what durable state would hand back.
        subs.restore(p1, client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        subs.set_next_profile_at_least(2);
        assert_eq!(subs.profile(p1).unwrap().owner(), client(1));
        assert_eq!(filter_event(&mut subs, &event("A", "d"), SimTime::ZERO).len(), 1);
        // The allocator resumes past the unsubscribed-high-water mark.
        let p3 = subs.subscribe(client(3), parse_profile(r#"host = "C""#).unwrap()).unwrap().id();
        assert_ne!(p3, p1);
        assert_ne!(p3, p2);
    }

    #[test]
    fn matching_leaves_mailboxes_to_queue_notification() {
        let mut subs = SubscriptionManager::new();
        subs.subscribe(client(1), parse_profile(r#"host = "X""#).unwrap()).unwrap();
        let matched = subs.match_event(&event("X", "d"), SimTime::ZERO);
        assert_eq!(matched.len(), 1);
        assert_eq!(subs.queued_notifications(), 0);
        // Explicit admission lands in the right mailbox.
        subs.queue_notification(matched[0].clone());
        assert_eq!(subs.peek_notifications(client(1)), &matched[..]);
        // Draining hands the buffer over and keeps the mailbox.
        assert_eq!(subs.take_notifications(client(1)), matched);
        assert_eq!((subs.queued_notifications(), subs.mailboxes()), (0, 1));
    }

    #[test]
    fn profiles_accessor() {
        let mut subs = SubscriptionManager::new();
        let p = subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap().id();
        assert!(subs.profile(p).is_some());
        assert_eq!(subs.profiles().count(), 1);
        assert!(!subs.is_empty());
    }

    /// An expression for each digest shape the counts have to get right.
    fn shaped(shape: usize, host: usize, name: usize, value: usize) -> ProfileExpr {
        let h = ["A", "B", "C"][host % 3];
        let n = ["X", "Y"][name % 2];
        let kind = ["documents-added", "collection-rebuilt"][value % 2];
        let next = value + 1;
        let text = match shape {
            0 => r#"text ~ "*x*""#.to_owned(),
            1 => format!(r#"host = "{h}""#),
            2 => format!(r#"collection = "{h}.{n}""#),
            3 => format!(r#"host = "{h}" OR collection = "B.{n}""#),
            4 => format!(r#"host = "{h}" AND kind = "{kind}""#),
            5 => format!(r#"collection = "{h}.{n}" AND dc.Title in ["v{value}", "v{next}"]"#),
            6 => format!(r#"host = "{h}" AND dc.Title = "v{value}""#),
            7 => format!(r#"host = "{h}" AND dc.Title = "v{value}" AND kind = "{kind}""#),
            8 => format!(
                r#"(host = "{h}" AND kind = "{kind}")
                   OR (collection = "B.{n}" AND kind = "documents-added" AND dc.Title = "v{value}")"#
            ),
            // Unsatisfiable (an empty DNF) and always true (one empty
            // conjunction, which nothing anchors).
            9 => return ProfileExpr::Or(Vec::new()),
            10 => return ProfileExpr::And(Vec::new()),
            // Too large to normalise: subscribing fails, nothing is stored
            // (rarely — each attempt expands 4 096 conjunctions).
            11 if value == 0 => {
                let either = parse_profile(r#"host = "A" OR host = "B""#).unwrap();
                return ProfileExpr::And(vec![either; 13]);
            }
            _ => format!(r#"host in ["{h}", "C"]"#),
        };
        parse_profile(&text).unwrap()
    }

    /// Shape mixes: everything; every profile constrains the title (nine
    /// values of one key are in reach); all but a few do; kinds beside
    /// profiles that count for nothing; anchors and wildcards only.
    const PALETTES: [&[usize]; 5] = [
        &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
        &[5, 6, 6, 7],
        &[6, 6, 6, 7, 7, 1],
        &[4, 7, 8, 9],
        &[0, 1, 2, 3, 10],
    ];

    /// The `(digest key, value)` pairs a profile's positive equality
    /// literals name — all a digest may ever be made of.
    fn equality_pairs(expr: &ProfileExpr, out: &mut Vec<(String, String)>) {
        use gsa_profile::{AttrValue, ProfileAttr};
        for literal in gsa_profile::dnf::to_dnf(expr)
            .unwrap()
            .iter()
            .flat_map(|c| &c.literals)
        {
            let key = match &literal.predicate.attr {
                ProfileAttr::Kind if literal.positive => gsa_wire::ATTR_KEY_KIND.to_owned(),
                ProfileAttr::Meta(k) if literal.positive => {
                    format!("{}{k}", gsa_wire::ATTR_META_PREFIX)
                }
                _ => continue,
            };
            match &literal.predicate.value {
                AttrValue::Equals(v) => out.push((key, v.clone())),
                AttrValue::OneOf(vs) => out.extend(vs.iter().map(|v| (key.clone(), v.clone()))),
                _ => {}
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// After every subscribe, cancel, client cancel, crash, restore
        /// and restore over a live id, the summary read off the counts is
        /// the fold of
        /// `union_with` over the live profiles — in whatever order the
        /// fold takes them — and an unraised change flag means the
        /// summary did not move.
        #[test]
        fn counted_summary_equals_the_fold(
            palette in 0usize..PALETTES.len(),
            first_read in 0usize..12,
            ops in prop::collection::vec(
                (0usize..10, 0usize..12, 0usize..3, 0usize..2, 0usize..11),
                1..70,
            ),
        ) {
            let mut subs = SubscriptionManager::new();
            let mut last: Option<InterestSummary> = None;
            for (step, (op, pick, host, name, value)) in ops.into_iter().enumerate() {
                let mut live: Vec<ProfileId> = subs.profiles().map(Profile::id).collect();
                live.sort_unstable();
                match op {
                    0..=5 => {
                        let shape = PALETTES[palette][pick % PALETTES[palette].len()];
                        let expr = shaped(shape, host, name, value);
                        let stored = subs.subscribe(client(host as u64), expr);
                        prop_assert_eq!(stored.is_err(), shape == 11 && value == 0);
                    }
                    6 | 7 if !live.is_empty() => {
                        prop_assert!(subs.unsubscribe(live[(pick * 7 + value) % live.len()]));
                    }
                    8 => {
                        let owner = client(host as u64);
                        for id in live {
                            if subs.profile(id).unwrap().owner() == owner {
                                prop_assert!(subs.unsubscribe(id));
                            }
                        }
                    }
                    9 => {
                        // A crash, then whatever prefix of the population a
                        // journal would hand back (none, for a volatile host).
                        let kept: Vec<Profile> = live[..(pick * value) % (live.len() + 1)]
                            .iter()
                            .map(|id| subs.profile(*id).unwrap().clone())
                            .collect();
                        subs = SubscriptionManager::new();
                        for p in &kept {
                            subs.restore(p.id(), p.owner(), p.expr().clone()).unwrap();
                        }
                        // A second record for a live id replaces the first
                        // (or, too large to index, leaves it as it was).
                        if let Some(p) = kept.get(pick % kept.len().max(1)) {
                            let shape = PALETTES[palette][pick % PALETTES[palette].len()];
                            let expr = shaped(shape, host, name, value);
                            let again = subs.restore(p.id(), client(host as u64), expr);
                            prop_assert_eq!(again.is_err(), shape == 11 && value == 0);
                            prop_assert_eq!(subs.len(), kept.len());
                        }
                    }
                    _ => {}
                }
                // Some populations exist before counts are first built.
                if step < first_read {
                    continue;
                }
                let moved = subs.interests_changed();
                let counted = subs.interest_summary();
                // The fold, in the map's order and in three others.
                let fold = |order: &[&Profile]| {
                    SubscriptionManager::interest_summary_fold(order.iter().copied())
                };
                let mut profiles: Vec<&Profile> = subs.profiles().collect();
                prop_assert_eq!(&counted, &fold(&profiles));
                profiles.sort_unstable_by_key(|p| p.id());
                prop_assert_eq!(&counted, &fold(&profiles));
                profiles.reverse();
                prop_assert_eq!(&counted, &fold(&profiles));
                let mid = pick % profiles.len().max(1);
                profiles.rotate_left(mid);
                prop_assert_eq!(&counted, &fold(&profiles));
                if !moved {
                    prop_assert_eq!(Some(&counted), last.as_ref());
                }
                // The digest names only pairs some live profile uses.
                let mut pairs = Vec::new();
                for p in &profiles {
                    equality_pairs(p.expr(), &mut pairs);
                }
                for (key, values) in counted.attrs() {
                    for v in values {
                        let pair = (key.to_owned(), v.clone());
                        prop_assert!(pairs.contains(&pair), "{key}={v} is nobody's");
                    }
                }
                last = Some(counted);
            }
        }
    }
}
