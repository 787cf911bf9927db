//! The auxiliary machine: auxiliary profiles, and how the operations on
//! them are retried (§4.3, Figure 3).
//!
//! An auxiliary profile is a *server-to-server* subscription (Section 7):
//! it lives on exactly one host (the sub-collection's), refers to exactly
//! one super-collection, and exists because that super-collection lists
//! the local collection as a sub-collection. [`AuxStore`] holds the
//! profiles planted *at* a host. What a host has *sent* (plants, deletes,
//! forwarded events) waits in its [`AuxLog`], the retransmission queue
//! the GDS edges use, until the receiver acknowledges it: the paper's
//! Section 7 argument that partitions only delay, never corrupt. The
//! host's auxiliary machine holds both, and decides whether a forwarded
//! event is re-issued here.

use crate::core::CoreEffects;
use crate::message::{AuxPayload, SysMessage};
use gsa_gds::SeenIds;
use gsa_greenstone::{CollectionConfig, Server};
use gsa_types::{CollectionId, CollectionName, Event, HostName, SimDuration, SimTime};
use gsa_wire::reliable::{acked_seqs, Reliable};
use gsa_wire::{Payload, RetransmitQueue, RetryPolicy};
use std::collections::BTreeMap;
use std::fmt;

/// How long an unacknowledged auxiliary operation waits before it is
/// sent again: every two seconds, for ever — the paper's "delayed, not
/// lost" (§7). The log is read on the host's maintenance tick, so a
/// retry goes out on the first tick at or after this.
pub const AUX_RETRY_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// The log's retry schedule: [`AUX_RETRY_INTERVAL`], fixed, without
/// jitter.
pub(crate) const AUX_RETRY: RetryPolicy = RetryPolicy {
    base: AUX_RETRY_INTERVAL,
    multiplier: 1.0,
    max_interval: AUX_RETRY_INTERVAL,
    jitter: 0.0,
};

/// The not-yet-acknowledged operations one host has sent, by destination
/// host. An operation's sequence number is the `op` it crosses the GS
/// network under, and what the receiver acknowledges.
pub type AuxLog = RetransmitQueue<HostName, AuxPayload>;

/// An auxiliary profile planted at this host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuxProfile {
    /// The local collection observed (the sub-collection).
    pub sub_name: CollectionName,
    /// The remote super-collection to forward matching events to.
    pub super_collection: CollectionId,
}

impl fmt::Display for AuxProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aux: {} ⊂ {}", self.sub_name, self.super_collection)
    }
}

/// The auxiliary profiles planted at one host, keyed by
/// (sub-collection name, super-collection).
#[derive(Debug, Default)]
pub struct AuxStore {
    profiles: BTreeMap<(CollectionName, CollectionId), AuxProfile>,
}

impl AuxStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        AuxStore::default()
    }

    /// Plants a profile. Idempotent: re-planting the same pair is a no-op.
    pub fn plant(&mut self, sub_name: CollectionName, super_collection: CollectionId) {
        self.profiles
            .entry((sub_name.clone(), super_collection.clone()))
            .or_insert(AuxProfile {
                sub_name,
                super_collection,
            });
    }

    /// Removes a profile. Idempotent. Returns `true` when it existed.
    pub fn delete(&mut self, sub_name: &CollectionName, super_collection: &CollectionId) -> bool {
        self.profiles
            .remove(&(sub_name.clone(), super_collection.clone()))
            .is_some()
    }

    /// The profiles observing a local collection.
    pub fn matching(&self, sub_name: &CollectionName) -> Vec<&AuxProfile> {
        self.profiles
            .range((sub_name.clone(), CollectionId::new("", ""))..)
            .take_while(|((name, _), _)| name == sub_name)
            .map(|(_, p)| p)
            .collect()
    }

    /// Number of stored profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Returns `true` when no profiles are stored.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Iterates over all profiles.
    pub fn iter(&self) -> impl Iterator<Item = &AuxProfile> {
        self.profiles.values()
    }
}

/// Sends an auxiliary operation to `to`, logged until `to` acknowledges
/// it.
fn send(log: &mut AuxLog, to: &HostName, op: AuxPayload, now: SimTime, out: &mut CoreEffects) {
    let seq = log.send(to.clone(), op.clone(), now);
    out.send(to.clone(), SysMessage::Aux(Reliable::Data { seq, payload: op }));
}

/// One host's auxiliary machine: the profiles planted at it, the
/// operations it sent and awaits acknowledgement of, and the forwarded
/// events it already rewrote.
#[derive(Debug)]
pub(crate) struct Auxiliary {
    host: HostName,
    pub(crate) store: AuxStore,
    pub(crate) log: AuxLog,
    /// Per local super-collection, the original event ids already
    /// rewritten under it (runs per origin host) — makes retried
    /// ForwardEvents idempotent.
    pub(crate) rewritten: BTreeMap<CollectionName, SeenIds>,
}

impl Auxiliary {
    pub(crate) fn new(host: HostName) -> Self {
        let (store, log, rewritten) = (AuxStore::new(), AuxLog::new(AUX_RETRY, 0), BTreeMap::new());
        Auxiliary { host, store, log, rewritten }
    }

    /// The machine after a crash: all of it kept, a modelling choice
    /// (DESIGN.md §4) — a real crash loses it, and journalling it is
    /// ROADMAP item 23(b).
    pub(crate) fn crashed(self) -> Self {
        let Auxiliary { host, store, log, rewritten } = self;
        Auxiliary { host, store, log, rewritten }
    }

    /// Plants the auxiliary profile of every remote sub-collection the
    /// collection `c` lists.
    pub(crate) fn plant_all(&mut self, c: &CollectionConfig, now: SimTime, out: &mut CoreEffects) {
        for sub in &c.subcollections {
            self.op(true, &c.name, &sub.target, now, out);
        }
    }

    /// Plants (`plant`) or deletes the auxiliary profile of a remote `sub`
    /// under the local `parent`. The operation supersedes the opposite
    /// one still owed for the pair, which is cancelled: a plant retried
    /// after a delete would resurrect the profile, and a delete retried
    /// after a re-add would take it away. An identical operation still
    /// owed (a collection added before the startup re-planting pass) is
    /// not sent twice.
    pub(crate) fn op(
        &mut self,
        plant: bool,
        parent: &CollectionName,
        sub: &CollectionId,
        now: SimTime,
        out: &mut CoreEffects,
    ) {
        let to = sub.host();
        if to == &self.host {
            return; // local sub-collections need no auxiliary profile
        }
        let super_collection = CollectionId::new(self.host.clone(), parent.clone());
        let (s, sub_name) = (super_collection.clone(), sub.name().clone());
        let delete = AuxPayload::Delete { super_collection: s, sub_name: sub_name.clone() };
        let plant_op = AuxPayload::Plant { super_collection, sub_name };
        let (op, opposite) = if plant { (plant_op, delete) } else { (delete, plant_op) };
        if self.log.iter().any(|(host, p)| host == to && *p == op) {
            return;
        }
        self.log.cancel(|host, p| host == to && *p == opposite);
        send(&mut self.log, to, op, now, out);
    }

    /// Forwards an event of the local collection `name` to every
    /// super-collection host whose auxiliary profile observes it.
    pub(crate) fn forward(
        &mut self,
        name: &CollectionName,
        event: &Payload,
        now: SimTime,
        out: &mut CoreEffects,
    ) {
        for profile in self.store.matching(name) {
            let to = profile.super_collection.host();
            let payload = AuxPayload::ForwardEvent {
                super_name: profile.super_collection.name().clone(),
                event: event.clone(),
            };
            send(&mut self.log, to, payload, now, out);
        }
    }

    /// Re-sends every operation whose retry came due.
    pub(crate) fn poll(&mut self, now: SimTime, out: &mut CoreEffects) {
        for (seq, to, payload, _) in self.log.poll(now) {
            out.send(to, SysMessage::Aux(Reliable::Data { seq, payload }));
        }
    }

    /// Takes a frame from `from`: applies an ack, a plant or a delete, and
    /// hands a forwarded event back with the local super-collection it is
    /// for.
    pub(crate) fn receive(
        &mut self,
        from: &HostName,
        frame: Reliable<AuxPayload>,
        now: SimTime,
        out: &mut CoreEffects,
    ) -> Option<(CollectionName, Payload)> {
        let payload = match frame {
            // An ack that proves an earlier operation lost has it re-sent
            // at once.
            Reliable::Ack { seq, more } => {
                for (seq, payload) in self.log.ack(from.clone(), acked_seqs(seq, more), now) {
                    out.send(from.clone(), SysMessage::Aux(Reliable::Data { seq, payload }));
                }
                return None;
            }
            // Every operation is acknowledged at once, whatever becomes
            // of it: the sender retries until then.
            Reliable::Data { seq, payload } => {
                out.send(from.clone(), SysMessage::Aux(Reliable::Ack { seq, more: 0 }));
                payload
            }
        };
        match payload {
            AuxPayload::Plant {
                super_collection,
                sub_name,
            } => self.store.plant(sub_name, super_collection),
            AuxPayload::Delete {
                super_collection,
                sub_name,
            } => drop(self.store.delete(&sub_name, &super_collection)),
            AuxPayload::ForwardEvent { super_name, event } => return Some((super_name, event)),
        }
        None
    }

    /// Whether a forwarded `event` is re-issued under the local
    /// `super_name`, the first time it arrives: `Some(is_public)` of that
    /// collection if so.
    pub(crate) fn admit(
        &mut self,
        server: &Server,
        super_name: &CollectionName,
        event: &Event,
    ) -> Option<bool> {
        // Cycle guard (research problem 2): a chain of rewrites may come
        // back to a collection it already passed through — on this host
        // or any other — because the collection graph may be cyclic.
        // Every rewrite appends to the provenance chain, so "already in
        // provenance" exactly detects the loop.
        let super_id = CollectionId::new(self.host.clone(), super_name.clone());
        if event.origin == super_id || event.provenance.contains(&super_id) {
            return None;
        }
        // Only a collection this host holds can be re-issued under, so
        // only such a name is ever remembered.
        let config = server.collection(super_name)?.config();
        // The relationship may have been dropped while the forwarded
        // event was in flight (a dangling auxiliary profile, Section 7):
        // the restructuring wins, the stale event is ignored (but
        // acknowledged, so the sender stops retrying).
        let still_included = config.subcollections.iter().any(|s| s.target == event.origin);
        let seen = self.rewritten.entry(super_name.clone()).or_default();
        if !still_included || !seen.insert(event.root.host(), event.root.seq()) {
            return None;
        }
        Some(config.visibility.is_public())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_types::SimTime;

    fn super_d() -> CollectionId {
        CollectionId::new("Hamilton", "D")
    }

    #[test]
    fn plant_is_idempotent() {
        let mut store = AuxStore::new();
        store.plant("E".into(), super_d());
        store.plant("E".into(), super_d());
        assert_eq!(store.len(), 1);
        assert_eq!(store.matching(&"E".into()).len(), 1);
    }

    #[test]
    fn one_sub_many_supers() {
        let mut store = AuxStore::new();
        store.plant("E".into(), super_d());
        store.plant("E".into(), CollectionId::new("Paris", "Z"));
        store.plant("F".into(), super_d());
        assert_eq!(store.matching(&"E".into()).len(), 2);
        assert_eq!(store.matching(&"F".into()).len(), 1);
        assert!(store.matching(&"G".into()).is_empty());
    }

    #[test]
    fn delete_is_idempotent() {
        let mut store = AuxStore::new();
        store.plant("E".into(), super_d());
        assert!(store.delete(&"E".into(), &super_d()));
        assert!(!store.delete(&"E".into(), &super_d()));
        assert!(store.is_empty());
    }

    fn ms(millis: u64) -> SimTime {
        SimTime::from_millis(millis)
    }

    fn plant(sub_name: &str) -> AuxPayload {
        AuxPayload::Plant {
            super_collection: super_d(),
            sub_name: sub_name.into(),
        }
    }

    /// The sequence numbers `poll` re-sends at `now`.
    fn retried(log: &mut AuxLog, now: SimTime) -> Vec<u64> {
        log.poll(now).into_iter().map(|(seq, ..)| seq).collect()
    }

    #[test]
    fn pending_retry_cadence() {
        let mut log = AuxLog::new(AUX_RETRY, 0);
        let op = log.send("London".into(), plant("E"), ms(0));
        // Not yet due.
        assert!(retried(&mut log, ms(1_999)).is_empty());
        // Due.
        assert_eq!(retried(&mut log, ms(2_000)), [op]);
        // Due again only after another interval.
        assert!(retried(&mut log, ms(3_999)).is_empty());
        // A late tick retries once, and the interval counts from it.
        assert_eq!(retried(&mut log, ms(4_300)), [op]);
        assert!(retried(&mut log, ms(6_299)).is_empty());
    }

    #[test]
    fn unlimited_policy_retries_forever() {
        let mut log = AuxLog::new(AUX_RETRY, 0);
        let op = log.send("L".into(), plant("E"), SimTime::ZERO);
        for k in 1..100u64 {
            assert_eq!(retried(&mut log, ms(2_000 * k)), [op], "attempt {k}");
        }
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn ack_removes() {
        let mut log = AuxLog::new(AUX_RETRY, 0);
        let op = log.send("L".into(), plant("E"), SimTime::ZERO);
        assert_eq!(log.len(), 1);
        log.ack("Paris".into(), [op], ms(1));
        assert_eq!(log.len(), 1, "only its destination acknowledges it");
        log.ack("L".into(), [op], ms(1));
        assert!(log.is_empty());
        log.ack("L".into(), [op], ms(2));
        assert!(log.is_empty());
    }

    #[test]
    fn cancel_filters() {
        let mut log = AuxLog::new(AUX_RETRY, 0);
        log.send("L".into(), plant("E"), SimTime::ZERO);
        let kept = log.send("L".into(), plant("F"), SimTime::ZERO);
        log.cancel(|to, p| to.as_str() == "L" && *p == plant("E"));
        assert_eq!(log.len(), 1);
        assert_eq!(retried(&mut log, ms(2_000)), [kept]);
    }

    #[test]
    fn display_forms() {
        let p = AuxProfile {
            sub_name: "E".into(),
            super_collection: super_d(),
        };
        assert!(p.to_string().contains("Hamilton.D"));
    }
}
