//! The [`StateStore`] trait and its two in-tree backends.

use crate::medium::Medium;
use crate::record::{
    decode_snapshot, encode_record, encode_snapshot, replay_journal, ReplayStop, SnapshotState,
    StateRecord,
};
use gsa_profile::ProfileExpr;
use gsa_types::{ClientId, CounterId, Counts, ProfileId};
use std::collections::BTreeMap;

/// What recovery hands back to the core: the durable state as of the
/// last intact journal record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Every recovered profile: `(id, owner, expression)`, id-ordered.
    pub profiles: Vec<(ProfileId, ClientId, ProfileExpr)>,
    /// The next profile id to assign (strictly above every recovered id).
    pub next_profile: u64,
    /// The interest-summary version to resume announcing from.
    pub summary_version: u64,
    /// Latest lifecycle record per alert instance:
    /// `(fingerprint, state tag, at_micros)`, fingerprint-ordered. The
    /// core decodes the tag (failing closed on unknown bytes) and
    /// restores its alert engine from these.
    pub alerts: Vec<(u64, u8, u64)>,
}

/// The persistence seam an `AlertingCore` writes durable state through.
///
/// Calls sit on the subscribe / unsubscribe / summary-announce paths —
/// never the per-event hot path — and the default in-memory backend
/// makes each a no-op, so the paper-figure scenarios pay nothing.
pub trait StateStore {
    /// Whether this backend survives a crash (drives the chaos oracle's
    /// expectations).
    fn is_durable(&self) -> bool;
    /// A profile was registered.
    fn record_subscribe(&mut self, id: ProfileId, client: ClientId, expr: &ProfileExpr);
    /// A profile was cancelled.
    fn record_unsubscribe(&mut self, id: ProfileId);
    /// The server announced its interest summary at `version`.
    fn record_summary_version(&mut self, version: u64);
    /// An alert instance transitioned; only the latest record per
    /// fingerprint matters for recovery (last-write-wins).
    fn record_alert(&mut self, fingerprint: u64, state: u8, at_micros: u64);
    /// Rebuild state from the backing medium (snapshot + journal
    /// replay). The memory backend recovers nothing, by design.
    fn recover(&mut self) -> RecoveredState;
    /// What the backend counted (the `state.*` rows of the counter
    /// table — no per-profile labels, ever) since the core last merged
    /// this into its own counts.
    fn counts_mut(&mut self) -> &mut Counts;
}

/// The default backend: volatile, free, faithful to the paper. A crash
/// loses everything, exactly as the in-memory seed behaved.
#[derive(Debug, Clone, Default)]
pub struct MemoryStateStore {
    /// Never counted into: nothing is recorded.
    counts: Counts,
}

impl StateStore for MemoryStateStore {
    fn is_durable(&self) -> bool {
        false
    }
    fn record_subscribe(&mut self, _id: ProfileId, _client: ClientId, _expr: &ProfileExpr) {}
    fn record_unsubscribe(&mut self, _id: ProfileId) {}
    fn record_summary_version(&mut self, _version: u64) {}
    fn record_alert(&mut self, _fingerprint: u64, _state: u8, _at_micros: u64) {}
    fn recover(&mut self) -> RecoveredState {
        RecoveredState::default()
    }
    fn counts_mut(&mut self) -> &mut Counts {
        &mut self.counts
    }
}

/// Tuning for [`JournalStateStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Sync the journal after this many appends. The default of 1
    /// (sync every append) is what makes the chaos oracle's "zero lost
    /// subscriptions" claim honest: a subscription ack implies the
    /// record is durable. Values > 1 batch fsyncs and accept losing up
    /// to `fsync_every - 1` acknowledged records on a crash.
    pub fsync_every: usize,
    /// Fold the journal into a snapshot after this many records.
    /// 0 disables automatic compaction (journal grows until
    /// [`JournalStateStore::compact`] is called).
    pub snapshot_every: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self {
            fsync_every: 1,
            snapshot_every: 256,
        }
    }
}

/// The durable backend: append-only CRC-framed journal + periodic
/// snapshot over a [`Medium`], with snapshot-then-truncate compaction.
///
/// The store keeps a shadow of the durable state so compaction never
/// re-reads the medium. Compaction writes the snapshot (atomic,
/// durable) *before* truncating the journal; a crash in between leaves
/// a snapshot plus a journal whose records it already folded in —
/// harmless, because replay is idempotent over its own snapshot
/// (subscribe overwrites by id, unsubscribe removes by id, versions
/// take the max).
#[derive(Debug)]
pub struct JournalStateStore<M: Medium> {
    medium: M,
    config: JournalConfig,
    counts: Counts,
    /// id → (client, expr): the durable state as this store knows it.
    shadow: BTreeMap<u64, (u64, ProfileExpr)>,
    /// fingerprint → (state tag, at_micros): latest alert lifecycle
    /// record per instance.
    alerts: BTreeMap<u64, (u8, u64)>,
    next_profile: u64,
    summary_version: u64,
    unsynced: usize,
    journal_records: usize,
    buf: Vec<u8>,
}

impl<M: Medium> JournalStateStore<M> {
    /// A store over `medium` with the given tuning. Does *not* recover
    /// automatically — call [`StateStore::recover`] to load existing
    /// state (the core does this on startup).
    pub fn new(medium: M, config: JournalConfig) -> Self {
        Self {
            medium,
            config,
            counts: Counts::default(),
            shadow: BTreeMap::new(),
            alerts: BTreeMap::new(),
            next_profile: 0,
            summary_version: 0,
            unsynced: 0,
            journal_records: 0,
            buf: Vec::new(),
        }
    }

    /// The backing medium (fault injection keeps its own clone of a
    /// [`MemMedium`](crate::MemMedium); this is for inspection).
    pub fn medium(&self) -> &M {
        &self.medium
    }

    fn apply_shadow(
        shadow: &mut BTreeMap<u64, (u64, ProfileExpr)>,
        alerts: &mut BTreeMap<u64, (u8, u64)>,
        next_profile: &mut u64,
        summary_version: &mut u64,
        rec: StateRecord,
    ) {
        match rec {
            StateRecord::Subscribe { id, client, expr } => {
                shadow.insert(id.as_u64(), (client.as_u64(), expr));
                *next_profile = (*next_profile).max(id.as_u64() + 1);
            }
            StateRecord::Unsubscribe { id } => {
                shadow.remove(&id.as_u64());
            }
            StateRecord::SummaryVersion { version } => {
                *summary_version = (*summary_version).max(version);
            }
            StateRecord::AlertLifecycle {
                fingerprint,
                state,
                at_micros,
            } => {
                alerts.insert(fingerprint, (state, at_micros));
            }
        }
    }

    fn append(&mut self, rec: StateRecord) {
        Self::apply_shadow(
            &mut self.shadow,
            &mut self.alerts,
            &mut self.next_profile,
            &mut self.summary_version,
            rec.clone(),
        );
        self.buf.clear();
        encode_record(&rec, &mut self.buf);
        self.medium.append_journal(&self.buf);
        self.counts.add(CounterId::STATE_JOURNAL_APPENDS, 1);
        self.unsynced += 1;
        if self.unsynced >= self.config.fsync_every.max(1) {
            self.medium.sync_journal();
            self.unsynced = 0;
        }
        self.journal_records += 1;
        if self.config.snapshot_every > 0 && self.journal_records >= self.config.snapshot_every {
            self.compact();
        }
    }

    /// Fold the journal into a fresh snapshot and truncate it.
    /// Snapshot first (atomic + durable), truncate second — see the
    /// type-level docs for why the in-between crash window is safe.
    pub fn compact(&mut self) {
        let snap = SnapshotState {
            summary_version: self.summary_version,
            next_profile: self.next_profile,
            profiles: self
                .shadow
                .iter()
                .map(|(&id, (client, expr))| {
                    (
                        ProfileId::from_raw(id),
                        ClientId::from_raw(*client),
                        expr.clone(),
                    )
                })
                .collect(),
            alerts: self
                .alerts
                .iter()
                .map(|(&fp, &(tag, at))| (fp, tag, at))
                .collect(),
        };
        self.medium.replace_snapshot(&encode_snapshot(&snap));
        self.medium.truncate_journal();
        self.counts.add(CounterId::STATE_SNAPSHOT_WRITES, 1);
        self.journal_records = 0;
        self.unsynced = 0;
    }

    /// Records currently sitting in the journal (drives compaction).
    pub fn journal_records(&self) -> usize {
        self.journal_records
    }
}

impl<M: Medium> StateStore for JournalStateStore<M> {
    fn is_durable(&self) -> bool {
        true
    }

    fn record_subscribe(&mut self, id: ProfileId, client: ClientId, expr: &ProfileExpr) {
        self.append(StateRecord::Subscribe {
            id,
            client,
            expr: expr.clone(),
        });
    }

    fn record_unsubscribe(&mut self, id: ProfileId) {
        self.append(StateRecord::Unsubscribe { id });
    }

    fn record_summary_version(&mut self, version: u64) {
        self.append(StateRecord::SummaryVersion { version });
    }

    fn record_alert(&mut self, fingerprint: u64, state: u8, at_micros: u64) {
        self.append(StateRecord::AlertLifecycle {
            fingerprint,
            state,
            at_micros,
        });
    }

    fn recover(&mut self) -> RecoveredState {
        self.shadow.clear();
        self.alerts.clear();
        self.next_profile = 0;
        self.summary_version = 0;
        self.unsynced = 0;

        let snap_bytes = self.medium.read_snapshot();
        match decode_snapshot(&snap_bytes) {
            Some(snap) => {
                self.summary_version = snap.summary_version;
                self.next_profile = snap.next_profile;
                for (id, client, expr) in snap.profiles {
                    self.shadow.insert(id.as_u64(), (client.as_u64(), expr));
                    self.next_profile = self.next_profile.max(id.as_u64() + 1);
                }
                for (fingerprint, tag, at) in snap.alerts {
                    self.alerts.insert(fingerprint, (tag, at));
                }
            }
            None => {
                // Snapshot replacement is atomic, so this should never
                // happen in nature — but a store must fail closed, not
                // fall over: count it, start empty, let the journal
                // recover what it can.
                self.counts.add(CounterId::STATE_JOURNAL_CORRUPT, 1);
            }
        }

        let journal = self.medium.read_journal();
        let shadow = &mut self.shadow;
        let alerts = &mut self.alerts;
        let next_profile = &mut self.next_profile;
        let summary_version = &mut self.summary_version;
        let (applied, stop) = replay_journal(&journal, |rec| {
            Self::apply_shadow(shadow, alerts, next_profile, summary_version, rec);
        });
        self.counts.add(CounterId::STATE_REPLAY_RECORDS, applied);
        if stop == ReplayStop::Corrupt {
            self.counts.add(CounterId::STATE_JOURNAL_CORRUPT, 1);
        }
        // The intact records stay in the journal; compaction cadence
        // picks up from here.
        self.journal_records = applied as usize;

        RecoveredState {
            profiles: self
                .shadow
                .iter()
                .map(|(&id, (client, expr))| {
                    (
                        ProfileId::from_raw(id),
                        ClientId::from_raw(*client),
                        expr.clone(),
                    )
                })
                .collect(),
            next_profile: self.next_profile,
            summary_version: self.summary_version,
            alerts: self
                .alerts
                .iter()
                .map(|(&fp, &(tag, at))| (fp, tag, at))
                .collect(),
        }
    }

    fn counts_mut(&mut self) -> &mut Counts {
        &mut self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::MemMedium;
    use gsa_profile::{Predicate, ProfileAttr};

    fn expr(host: &str) -> ProfileExpr {
        ProfileExpr::Pred(Predicate::equals(ProfileAttr::Host, host))
    }

    fn store(config: JournalConfig) -> (JournalStateStore<MemMedium>, MemMedium) {
        let medium = MemMedium::new();
        (JournalStateStore::new(medium.clone(), config), medium)
    }

    fn no_snapshots() -> JournalConfig {
        JournalConfig {
            fsync_every: 1,
            snapshot_every: 0,
        }
    }

    #[test]
    fn crash_and_recover_round_trips_subscriptions_and_version() {
        let (mut s, medium) = store(no_snapshots());
        s.record_subscribe(ProfileId::from_raw(0), ClientId::from_raw(7), &expr("a"));
        s.record_subscribe(ProfileId::from_raw(1), ClientId::from_raw(8), &expr("b"));
        s.record_summary_version(3);
        s.record_unsubscribe(ProfileId::from_raw(0));
        medium.crash();

        let mut fresh = JournalStateStore::new(medium, no_snapshots());
        let recovered = fresh.recover();
        assert_eq!(
            recovered.profiles,
            vec![(ProfileId::from_raw(1), ClientId::from_raw(8), expr("b"))]
        );
        assert_eq!(recovered.next_profile, 2);
        assert_eq!(recovered.summary_version, 3);
        let counters = fresh.counts_mut();
        assert_eq!(counters.get(CounterId::STATE_REPLAY_RECORDS), 4);
        assert_eq!(counters.get(CounterId::STATE_JOURNAL_CORRUPT), 0);
    }

    #[test]
    fn fsync_batching_loses_only_unsynced_records_on_crash() {
        let config = JournalConfig {
            fsync_every: 3,
            snapshot_every: 0,
        };
        let (mut s, medium) = store(config);
        for i in 0..5u64 {
            s.record_subscribe(
                ProfileId::from_raw(i),
                ClientId::from_raw(1),
                &expr(&format!("h{i}")),
            );
        }
        // 5 appends, fsync_every = 3: records 0..3 synced, 3..5 pending.
        assert_eq!(medium.syncs(), 1);
        medium.crash();

        let mut fresh = JournalStateStore::new(medium, config);
        let recovered = fresh.recover();
        let ids: Vec<u64> = recovered.profiles.iter().map(|(id, _, _)| id.as_u64()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(recovered.next_profile, 3);
    }

    #[test]
    fn kill_between_append_and_fsync_tears_the_tail_silently() {
        let config = JournalConfig {
            fsync_every: 100,
            snapshot_every: 0,
        };
        let (mut s, medium) = store(config);
        s.record_subscribe(ProfileId::from_raw(0), ClientId::from_raw(1), &expr("a"));
        s.record_subscribe(ProfileId::from_raw(1), ClientId::from_raw(1), &expr("b"));
        // The torn write: half of the pending bytes reach the platter.
        let torn = medium.pending_len() / 2;
        medium.crash_keeping(torn);

        let mut fresh = JournalStateStore::new(medium, config);
        let recovered = fresh.recover();
        // Record 0 fits inside the kept prefix, record 1 is torn away.
        assert_eq!(recovered.profiles.len(), 1);
        assert_eq!(recovered.profiles[0].0, ProfileId::from_raw(0));
        let counters = fresh.counts_mut();
        assert_eq!(counters.get(CounterId::STATE_JOURNAL_CORRUPT), 0, "a torn tail is not corruption");
        assert_eq!(counters.get(CounterId::STATE_REPLAY_RECORDS), 1);
    }

    #[test]
    fn compaction_preserves_equivalence_and_truncates_the_journal() {
        let config = no_snapshots();
        let (mut s, medium) = store(config);
        for i in 0..10u64 {
            s.record_subscribe(
                ProfileId::from_raw(i),
                ClientId::from_raw(i % 3),
                &expr(&format!("host-{i}")),
            );
        }
        s.record_unsubscribe(ProfileId::from_raw(4));
        s.record_summary_version(6);
        let before = {
            let mut probe = JournalStateStore::new(medium.clone(), config);
            probe.recover()
        };

        s.compact();
        assert_eq!(medium.journal_len(), 0, "compaction truncates the journal");
        assert!(medium.snapshot_len() > 0);

        let mut fresh = JournalStateStore::new(medium, config);
        let after = fresh.recover();
        assert_eq!(after, before, "snapshot+truncate must preserve state");
        let counters = fresh.counts_mut();
        assert_eq!(counters.get(CounterId::STATE_REPLAY_RECORDS), 0, "nothing left to replay");
        assert_eq!(counters.get(CounterId::STATE_JOURNAL_CORRUPT), 0);
    }

    #[test]
    fn automatic_snapshot_cadence_compacts_and_recovery_still_agrees() {
        let config = JournalConfig {
            fsync_every: 1,
            snapshot_every: 4,
        };
        let (mut s, medium) = store(config);
        for i in 0..11u64 {
            s.record_subscribe(
                ProfileId::from_raw(i),
                ClientId::from_raw(0),
                &expr(&format!("host-{i}")),
            );
        }
        let counters = s.counts_mut();
        assert_eq!(counters.get(CounterId::STATE_SNAPSHOT_WRITES), 2, "11 records at cadence 4");
        assert_eq!(s.journal_records(), 3);

        let mut fresh = JournalStateStore::new(medium, config);
        let recovered = fresh.recover();
        assert_eq!(recovered.profiles.len(), 11);
        assert_eq!(recovered.next_profile, 11);
        assert_eq!(fresh.counts_mut().get(CounterId::STATE_REPLAY_RECORDS), 3);
    }

    #[test]
    fn stale_snapshot_plus_long_journal_recovers_the_union() {
        // Compact early, then keep appending: recovery must fold the
        // old snapshot with the long journal suffix.
        let config = no_snapshots();
        let (mut s, medium) = store(config);
        s.record_subscribe(ProfileId::from_raw(0), ClientId::from_raw(1), &expr("a"));
        s.compact();
        for i in 1..8u64 {
            s.record_subscribe(
                ProfileId::from_raw(i),
                ClientId::from_raw(1),
                &expr(&format!("h{i}")),
            );
        }
        s.record_unsubscribe(ProfileId::from_raw(0));
        s.record_summary_version(9);

        let mut fresh = JournalStateStore::new(medium, config);
        let recovered = fresh.recover();
        let ids: Vec<u64> = recovered.profiles.iter().map(|(id, _, _)| id.as_u64()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(recovered.summary_version, 9);
        assert_eq!(fresh.counts_mut().get(CounterId::STATE_REPLAY_RECORDS), 9);
    }

    #[test]
    fn crash_between_snapshot_and_truncate_is_idempotent() {
        // Simulate the compaction crash window by hand: write the
        // snapshot but leave the journal in place, then recover. Every
        // journal record is already folded into the snapshot; replaying
        // them on top must be a no-op state-wise.
        let config = no_snapshots();
        let (mut s, medium) = store(config);
        s.record_subscribe(ProfileId::from_raw(0), ClientId::from_raw(1), &expr("a"));
        s.record_subscribe(ProfileId::from_raw(1), ClientId::from_raw(2), &expr("b"));
        s.record_unsubscribe(ProfileId::from_raw(0));
        s.record_summary_version(2);
        let clean = {
            let mut probe = JournalStateStore::new(medium.clone(), config);
            probe.recover()
        };
        // The snapshot that compaction would have written...
        let snap = SnapshotState {
            summary_version: clean.summary_version,
            next_profile: clean.next_profile,
            profiles: clean.profiles.clone(),
            alerts: clean.alerts.clone(),
        };
        let mut m = medium.clone();
        m.replace_snapshot(&encode_snapshot(&snap));
        // ...but the truncate never happened (crash window).
        assert!(medium.journal_len() > 0);

        let mut fresh = JournalStateStore::new(medium, config);
        let recovered = fresh.recover();
        assert_eq!(recovered, clean);
    }

    #[test]
    fn corrupt_snapshot_fails_closed_and_journal_still_replays() {
        let config = no_snapshots();
        let (mut s, mut medium) = store(config);
        s.record_subscribe(ProfileId::from_raw(0), ClientId::from_raw(1), &expr("a"));
        // A corrupt snapshot appears (not one this store wrote).
        medium.replace_snapshot(b"\x5A\x01 this is not a snapshot");

        let mut fresh = JournalStateStore::new(medium, config);
        let recovered = fresh.recover();
        assert_eq!(recovered.profiles.len(), 1, "journal replay still works");
        let counters = fresh.counts_mut();
        assert_eq!(counters.get(CounterId::STATE_JOURNAL_CORRUPT), 1);
    }

    #[test]
    fn mid_journal_flip_surfaces_corruption_and_stops_at_last_good_record() {
        let config = no_snapshots();
        let (mut s, medium) = store(config);
        let mut boundaries = Vec::new();
        for i in 0..4u64 {
            s.record_subscribe(
                ProfileId::from_raw(i),
                ClientId::from_raw(1),
                &expr(&format!("h{i}")),
            );
            boundaries.push(medium.journal_len());
        }
        // Flip a byte inside record 1's body: records 2 and 3 sit
        // behind the failure, so this is corruption, not a torn tail.
        medium.flip_at(boundaries[0] + 3);

        let mut fresh = JournalStateStore::new(medium, config);
        let recovered = fresh.recover();
        assert_eq!(recovered.profiles.len(), 1, "stops at last good record");
        let counters = fresh.counts_mut();
        assert_eq!(counters.get(CounterId::STATE_JOURNAL_CORRUPT), 1);
        assert_eq!(counters.get(CounterId::STATE_REPLAY_RECORDS), 1);
    }

    #[test]
    fn memory_store_is_free_and_forgets_everything() {
        let mut s = MemoryStateStore::default();
        assert!(!s.is_durable());
        s.record_subscribe(ProfileId::from_raw(0), ClientId::from_raw(1), &expr("a"));
        s.record_summary_version(5);
        s.record_alert(0xabc, 0, 1_000_000);
        assert_eq!(s.recover(), RecoveredState::default());
        assert!(s.counts_mut().is_empty());
    }

    #[test]
    fn alert_lifecycle_records_survive_crash_with_last_write_winning() {
        let (mut s, medium) = store(no_snapshots());
        s.record_alert(0xaaa, 0, 1_000_000); // firing
        s.record_alert(0xbbb, 0, 2_000_000); // firing
        s.record_alert(0xaaa, 1, 3_000_000); // acked — supersedes
        medium.crash();

        let mut fresh = JournalStateStore::new(medium, no_snapshots());
        let recovered = fresh.recover();
        assert_eq!(
            recovered.alerts,
            vec![(0xaaa, 1, 3_000_000), (0xbbb, 0, 2_000_000)]
        );
        assert_eq!(fresh.counts_mut().get(CounterId::STATE_REPLAY_RECORDS), 3);
    }

    #[test]
    fn alert_lifecycle_records_fold_through_compaction() {
        let (mut s, medium) = store(no_snapshots());
        s.record_subscribe(ProfileId::from_raw(0), ClientId::from_raw(1), &expr("a"));
        s.record_alert(0xccc, 0, 4_000_000);
        s.compact();
        // Post-compaction records land in the journal on top.
        s.record_alert(0xccc, 2, 5_000_000); // resolved
        s.record_alert(0xddd, 0, 6_000_000);

        let mut fresh = JournalStateStore::new(medium, no_snapshots());
        let recovered = fresh.recover();
        assert_eq!(
            recovered.alerts,
            vec![(0xccc, 2, 5_000_000), (0xddd, 0, 6_000_000)]
        );
        assert_eq!(recovered.profiles.len(), 1);
    }
}
