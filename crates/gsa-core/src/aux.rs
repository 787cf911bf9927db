//! Auxiliary profiles and the pending-operation log.
//!
//! An auxiliary profile is a *server-to-server* subscription (Section 7):
//! it lives on exactly one host (the sub-collection's), refers to exactly
//! one super-collection, and exists because that super-collection lists
//! the local collection as a sub-collection. [`AuxStore`] holds the
//! profiles planted *at* a host; [`PendingOps`] holds the not-yet-
//! acknowledged operations a host has *sent* (plants, deletes, forwarded
//! events), which are retried until acknowledged — the paper's Section 7
//! argument that partitions only delay, never corrupt.

use crate::message::AuxPayload;
use gsa_types::{CollectionId, CollectionName, HostName, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// How long an unacknowledged auxiliary operation waits before it is
/// sent again: every two seconds, for ever — the paper's "delayed, not
/// lost" (§7). The log is read on the host's maintenance tick, so a
/// retry goes out on the first tick at or after this.
pub const AUX_RETRY_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// A batch of addressed auxiliary payloads (destination, payload).
pub type AuxBatch = Vec<(HostName, AuxPayload)>;

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

/// One queued, retried-until-acknowledged operation.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingOp {
    /// The destination host.
    pub to: HostName,
    /// The payload (its `op` number is the ack key).
    pub payload: AuxPayload,
    /// When the operation was last transmitted.
    pub last_sent: SimTime,
}

/// The not-yet-acknowledged operations of one host.
#[derive(Debug, Default)]
pub struct PendingOps {
    ops: BTreeMap<u64, PendingOp>,
    next_op: u64,
}

impl PendingOps {
    /// Creates an empty log.
    pub fn new() -> Self {
        PendingOps::default()
    }

    /// Allocates the next operation number.
    pub fn next_op(&mut self) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        op
    }

    /// Enqueues an operation (already numbered via [`PendingOps::next_op`])
    /// and marks it as sent now.
    pub fn enqueue(&mut self, to: HostName, payload: AuxPayload, now: SimTime) {
        let op = payload.op();
        self.ops.insert(
            op,
            PendingOp {
                to,
                payload,
                last_sent: now,
            },
        );
    }

    /// Acknowledges an operation, removing it. Returns `true` when it was
    /// pending.
    pub fn ack(&mut self, op: u64) -> bool {
        self.ops.remove(&op).is_some()
    }

    /// Cancels pending ops the predicate selects — superseded operations
    /// (e.g. a delete following an unacknowledged plant) must not
    /// resurrect. The predicate sees the whole [`PendingOp`] so it can
    /// discriminate by destination host as well as payload.
    pub fn cancel_matching(&mut self, f: impl Fn(&PendingOp) -> bool) -> usize {
        let before = self.ops.len();
        self.ops.retain(|_, pending| !f(pending));
        before - self.ops.len()
    }

    /// The operations last sent [`AUX_RETRY_INTERVAL`] or more before
    /// `now`, in op order, marked re-sent now. Nothing leaves the log but
    /// by an ack or a cancel.
    pub fn due_for_retry(&mut self, now: SimTime) -> AuxBatch {
        let mut retry = Vec::new();
        for pending in self.ops.values_mut() {
            if pending.last_sent + AUX_RETRY_INTERVAL <= now {
                pending.last_sent = now;
                retry.push((pending.to.clone(), pending.payload.clone()));
            }
        }
        retry
    }

    /// Number of pending operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates over pending operations in op order.
    pub fn iter(&self) -> impl Iterator<Item = &PendingOp> {
        self.ops.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(millis: u64) -> SimTime {
        SimTime::from_millis(millis)
    }

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

    #[test]
    fn pending_retry_cadence() {
        let mut ops = PendingOps::new();
        let op = ops.next_op();
        ops.enqueue("London".into(), AuxPayload::Ack { op }, ms(0));
        // Not yet due.
        assert!(ops.due_for_retry(ms(1_999)).is_empty());
        // Due.
        assert_eq!(ops.due_for_retry(ms(2_000)).len(), 1);
        assert_eq!(ops.iter().next().unwrap().last_sent, ms(2_000));
        // Due again only after another interval.
        assert!(ops.due_for_retry(ms(3_999)).is_empty());
        // A late tick retries once, and the interval counts from it.
        assert_eq!(ops.due_for_retry(ms(4_300)).len(), 1);
        assert!(ops.due_for_retry(ms(6_299)).is_empty());
    }

    #[test]
    fn unlimited_policy_retries_forever() {
        let mut ops = PendingOps::new();
        let op = ops.next_op();
        ops.enqueue("L".into(), AuxPayload::Ack { op }, SimTime::ZERO);
        for k in 1..100u64 {
            assert_eq!(ops.due_for_retry(ms(2_000 * k)).len(), 1, "attempt {k}");
        }
        assert_eq!(ops.len(), 1);
    }

    #[test]
    fn ack_removes() {
        let mut ops = PendingOps::new();
        let op = ops.next_op();
        ops.enqueue("L".into(), AuxPayload::Ack { op }, SimTime::ZERO);
        assert_eq!(ops.len(), 1);
        assert!(ops.ack(op));
        assert!(!ops.ack(op));
        assert!(ops.is_empty());
    }

    #[test]
    fn cancel_matching_filters() {
        let mut ops = PendingOps::new();
        let op1 = ops.next_op();
        ops.enqueue(
            "L".into(),
            AuxPayload::Plant {
                op: op1,
                super_collection: super_d(),
                sub_name: "E".into(),
            },
            SimTime::ZERO,
        );
        let op2 = ops.next_op();
        ops.enqueue("L".into(), AuxPayload::Ack { op: op2 }, SimTime::ZERO);
        let removed = ops.cancel_matching(|p| matches!(p.payload, AuxPayload::Plant { .. }));
        assert_eq!(removed, 1);
        assert_eq!(ops.len(), 1);
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
