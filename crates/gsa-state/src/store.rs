//! The [`StateStore`] trait and its two in-tree backends.

use crate::medium::Medium;
use crate::record::{compact, encode_record, replay, snapshot_records, ReplayStop, StateRecord};
use gsa_profile::ProfileExpr;
use gsa_types::{ClientId, CounterId, Counts, ProfileId};
use std::collections::BTreeMap;

/// The durable state: what a record stream folds into, and what recovery
/// hands back to the core — the state as of the last intact record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Every live profile: id → (owner, expression).
    pub profiles: BTreeMap<ProfileId, (ClientId, ProfileExpr)>,
    /// The next profile id to assign (strictly above every id ever
    /// recorded, cancelled ones included).
    pub next_profile: u64,
    /// The interest-summary version to resume announcing from.
    pub summary_version: u64,
    /// Latest lifecycle record per alert instance: fingerprint →
    /// (state tag, at_micros). The core decodes the tag (failing closed
    /// on unknown bytes) and restores its alert engine from these.
    pub alerts: BTreeMap<u64, (u8, u64)>,
}

impl RecoveredState {
    /// Folds one record in. Idempotent over a replayed suffix — a
    /// subscribe overwrites by id, an unsubscribe removes by id, an
    /// alert record overwrites by fingerprint, versions and the id mark
    /// take the maximum — which is what makes a snapshot plus the
    /// journal it was compacted from recover to the same state.
    pub fn apply(&mut self, rec: StateRecord) {
        match rec {
            StateRecord::Subscribe { id, client, expr } => {
                self.profiles.insert(id, (client, expr));
                self.next_profile = self.next_profile.max(id.as_u64().saturating_add(1));
            }
            StateRecord::Unsubscribe { id } => drop(self.profiles.remove(&id)),
            StateRecord::SummaryVersion { version } => {
                self.summary_version = self.summary_version.max(version);
            }
            StateRecord::AlertLifecycle {
                fingerprint,
                state,
                at_micros,
            } => drop(self.alerts.insert(fingerprint, (state, at_micros))),
            StateRecord::NextProfile { next } => self.next_profile = self.next_profile.max(next),
        }
    }
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
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self { fsync_every: 1 }
    }
}

/// The least journal worth compacting, in bytes: below it a compaction
/// costs more than the replay it saves.
pub const COMPACT_FLOOR: usize = 64 * 1024;

/// The durable backend: an append-only journal of CRC-framed records
/// and a snapshot — the same records, compacted — over a [`Medium`].
///
/// The store keeps no copy of the state. Compaction reads what the
/// medium holds, merges it frame by frame and writes it back, snapshot
/// first (atomic, durable), journal truncate second; a crash in between
/// leaves a snapshot plus a journal whose records it already folded in
/// — harmless, because [`RecoveredState::apply`] is idempotent over its
/// own snapshot. The store compacts by itself when the journal has
/// grown to the size of the snapshot the last compaction wrote (or
/// [`COMPACT_FLOOR`], if larger): unless records died, each compaction
/// doubles the bytes the next one waits for, so n appends cost O(n)
/// compacted bytes in all, and the medium holds at most twice the live
/// state plus the floor.
#[derive(Debug)]
pub struct JournalStateStore<M: Medium> {
    medium: M,
    config: JournalConfig,
    counts: Counts,
    unsynced: usize,
    /// Bytes of the journal and of the snapshot on the medium: what was
    /// appended since the last compaction, and what it wrote.
    journal_bytes: usize,
    snapshot_bytes: usize,
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
            unsynced: 0,
            journal_bytes: 0,
            snapshot_bytes: 0,
            buf: Vec::new(),
        }
    }

    /// The backing medium (fault injection keeps its own clone of a
    /// [`MemMedium`](crate::MemMedium); this is for inspection).
    pub fn medium(&self) -> &M {
        &self.medium
    }

    fn append(&mut self, rec: StateRecord) {
        self.buf.clear();
        encode_record(&rec, &mut self.buf);
        self.medium.append_journal(&self.buf);
        self.counts.add(CounterId::STATE_JOURNAL_APPENDS, 1);
        self.unsynced += 1;
        if self.unsynced >= self.config.fsync_every.max(1) {
            self.medium.sync_journal();
            self.unsynced = 0;
        }
        self.journal_bytes += self.buf.len();
        if self.journal_bytes >= self.snapshot_bytes.max(COMPACT_FLOOR) {
            self.compact();
        }
    }

    /// Fold the journal into a fresh snapshot and truncate it.
    /// Snapshot first (atomic + durable), truncate second — see the
    /// type-level docs for why the in-between crash window is safe.
    pub fn compact(&mut self) {
        let snapshot = self.medium.read_snapshot();
        let journal = self.medium.read_journal();
        self.write_compacted(snapshot_records(&snapshot).unwrap_or_default(), &journal);
    }

    fn write_compacted(&mut self, snapshot: &[u8], journal: &[u8]) {
        let blob = compact([snapshot, journal]);
        self.medium.replace_snapshot(&blob);
        self.medium.truncate_journal();
        self.counts.add(CounterId::STATE_SNAPSHOT_WRITES, 1);
        self.snapshot_bytes = blob.len();
        self.journal_bytes = 0;
        self.unsynced = 0;
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
        let mut state = RecoveredState::default();
        let snapshot = self.medium.read_snapshot();
        let journal = self.medium.read_journal();
        // Snapshot replacement is atomic, so a damaged snapshot should
        // never happen in nature — but a store fails closed, not over:
        // count it, keep the records ahead of the damage (none, of a blob
        // without the header), let the journal recover what it can.
        let (kept, snapshot_stop) = match snapshot_records(&snapshot) {
            Some(records) => {
                let (_, good, stop) = replay(records, |rec| state.apply(rec));
                (&records[..good], stop)
            }
            None => (&[][..], ReplayStop::Corrupt),
        };
        let (applied, good, journal_stop) = replay(&journal, |rec| state.apply(rec));
        self.counts.add(CounterId::STATE_REPLAY_RECORDS, applied);
        let corrupt = u64::from(snapshot_stop != ReplayStop::Clean)
            + u64::from(journal_stop == ReplayStop::Corrupt);
        self.counts.add(CounterId::STATE_JOURNAL_CORRUPT, corrupt);
        self.snapshot_bytes = snapshot.len();
        self.journal_bytes = journal.len();
        self.unsynced = 0;
        if (snapshot_stop, journal_stop) != (ReplayStop::Clean, ReplayStop::Clean) {
            // Leave the medium holding exactly what was recovered: an
            // append behind a torn tail would make it mid-journal
            // corruption, and itself unreadable, at the next restart.
            self.write_compacted(kept, &journal[..good]);
        }
        state
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

    /// The default tuning; the journals of these tests stay far below
    /// [`COMPACT_FLOOR`], so only explicit compactions run.
    fn no_snapshots() -> JournalConfig {
        JournalConfig::default()
    }

    fn profiles(
        of: impl IntoIterator<Item = (u64, u64, ProfileExpr)>,
    ) -> BTreeMap<ProfileId, (ClientId, ProfileExpr)> {
        of.into_iter()
            .map(|(id, client, expr)| (ProfileId::from_raw(id), (ClientId::from_raw(client), expr)))
            .collect()
    }

    fn ids(recovered: &RecoveredState) -> Vec<u64> {
        recovered.profiles.keys().map(|id| id.as_u64()).collect()
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
        assert_eq!(recovered.profiles, profiles([(1, 8, expr("b"))]));
        assert_eq!(recovered.next_profile, 2);
        assert_eq!(recovered.summary_version, 3);
        let counters = fresh.counts_mut();
        assert_eq!(counters.get(CounterId::STATE_REPLAY_RECORDS), 4);
        assert_eq!(counters.get(CounterId::STATE_JOURNAL_CORRUPT), 0);
    }

    #[test]
    fn fsync_batching_loses_only_unsynced_records_on_crash() {
        let config = JournalConfig { fsync_every: 3 };
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
        assert_eq!(ids(&recovered), vec![0, 1, 2]);
        assert_eq!(recovered.next_profile, 3);
    }

    #[test]
    fn kill_between_append_and_fsync_tears_the_tail_silently() {
        let config = JournalConfig { fsync_every: 100 };
        let (mut s, medium) = store(config);
        s.record_subscribe(ProfileId::from_raw(0), ClientId::from_raw(1), &expr("a"));
        s.record_subscribe(ProfileId::from_raw(1), ClientId::from_raw(1), &expr("b"));
        // The torn write: half of the pending bytes reach the platter.
        let torn = medium.pending_len() / 2;
        medium.crash_keeping(torn);

        let mut fresh = JournalStateStore::new(medium, config);
        let recovered = fresh.recover();
        // Record 0 fits inside the kept prefix, record 1 is torn away.
        assert_eq!(ids(&recovered), vec![0]);
        let counters = fresh.counts_mut();
        assert_eq!(
            counters.get(CounterId::STATE_JOURNAL_CORRUPT),
            0,
            "a torn tail is not corruption"
        );
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
        assert_eq!(
            counters.get(CounterId::STATE_REPLAY_RECORDS),
            0,
            "nothing left to replay"
        );
        assert_eq!(counters.get(CounterId::STATE_JOURNAL_CORRUPT), 0);
    }

    #[test]
    fn automatic_snapshot_cadence_compacts_and_recovery_still_agrees() {
        let config = JournalConfig::default();
        let (mut s, medium) = store(config);
        // The store compacts by itself once the journal reaches the
        // floor, and then again only when it has grown to the size of
        // the snapshot it wrote.
        let mut appended = 0u64;
        while s.counts_mut().get(CounterId::STATE_SNAPSHOT_WRITES) < 2 {
            assert!(medium.journal_len() < COMPACT_FLOOR.max(medium.snapshot_len()));
            let host = format!("host-{appended}");
            s.record_subscribe(
                ProfileId::from_raw(appended),
                ClientId::from_raw(0),
                &expr(&host),
            );
            appended += 1;
        }
        assert_eq!(
            medium.journal_len(),
            0,
            "the append that compacted left nothing behind"
        );
        assert!(
            medium.snapshot_len() >= 2 * COMPACT_FLOOR,
            "nobody cancelled: the state doubled"
        );
        for i in 0..3 {
            s.record_unsubscribe(ProfileId::from_raw(i));
        }

        let mut fresh = JournalStateStore::new(medium, config);
        let recovered = fresh.recover();
        assert_eq!(recovered.profiles.len() as u64, appended - 3);
        assert_eq!(recovered.next_profile, appended);
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
        assert_eq!(ids(&recovered), vec![1, 2, 3, 4, 5, 6, 7]);
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
        let mut compacted = JournalStateStore::new(medium.clone_deep(), config);
        compacted.compact();
        let mut m = medium.clone();
        m.replace_snapshot(&compacted.medium.read_snapshot());
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
        // A blob without our header appears (here: format version 1).
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
            BTreeMap::from([(0xaaa, (1, 3_000_000)), (0xbbb, (0, 2_000_000))])
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
            BTreeMap::from([(0xccc, (2, 5_000_000)), (0xddd, (0, 6_000_000))])
        );
        assert_eq!(recovered.profiles.len(), 1);
    }
}
