//! Auxiliary profiles, and how the operations on them are retried.
//!
//! An auxiliary profile is a *server-to-server* subscription (Section 7):
//! it lives on exactly one host (the sub-collection's), refers to exactly
//! one super-collection, and exists because that super-collection lists
//! the local collection as a sub-collection. [`AuxStore`] holds the
//! profiles planted *at* a host. What a host has *sent* (plants, deletes,
//! forwarded events) waits in its [`AuxLog`], the retransmission queue
//! the GDS edges use, until the receiver acknowledges it: the paper's
//! Section 7 argument that partitions only delay, never corrupt.

use crate::message::AuxPayload;
use gsa_types::{CollectionId, CollectionName, HostName, SimDuration};
use gsa_wire::{RetransmitQueue, RetryPolicy};
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
