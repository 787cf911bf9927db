//! Property: the journal is a faithful, torn-tail-tolerant log.
//!
//! Arbitrary subscribe / unsubscribe / summary-version sequences are
//! written through a [`JournalStateStore`], then the durable bytes are
//! optionally mutilated (tail truncation at an arbitrary byte, a
//! bit-flipped byte) and replayed by a fresh store. The replayed state
//! must equal the in-memory model folded over the records whose frames
//! survived intact — never more, never a panic — and compaction at any
//! cadence must not change what recovery returns.

use gsa_profile::{Predicate, ProfileAttr, ProfileExpr};
use gsa_state::{
    JournalConfig, JournalStateStore, MemMedium, RecoveredState, StateStore,
};
use gsa_types::{ClientId, CounterId, ProfileId};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    /// Subscribe a new profile for client `client` over anchor `host`.
    Subscribe { client: u64, host: u8 },
    /// Unsubscribe the `pick`-th live profile (no-op when none live).
    Unsubscribe { pick: usize },
    /// Announce the next summary version.
    Announce,
}

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        (0u64..5, 0u8..8).prop_map(|(client, host)| Op::Subscribe { client, host }),
        (0u64..5, 0u8..8).prop_map(|(client, host)| Op::Subscribe { client, host }),
        (0usize..16).prop_map(|pick| Op::Unsubscribe { pick }),
        Just(Op::Announce),
    ]
    .boxed()
}

fn expr(host: u8) -> ProfileExpr {
    ProfileExpr::Pred(Predicate::equals(ProfileAttr::Host, format!("host-{host}")))
}

/// The in-memory model the journal must agree with.
#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    profiles: BTreeMap<u64, (u64, u8)>,
    next_profile: u64,
    summary_version: u64,
}

impl Model {
    fn as_recovered(&self) -> RecoveredState {
        RecoveredState {
            profiles: self
                .profiles
                .iter()
                .map(|(&id, &(client, host))| {
                    (ProfileId::from_raw(id), ClientId::from_raw(client), expr(host))
                })
                .collect(),
            next_profile: self.next_profile,
            summary_version: self.summary_version,
            alerts: Vec::new(),
        }
    }
}

/// One applied mutation, as the store saw it, for prefix re-folding.
#[derive(Debug, Clone)]
enum Applied {
    Sub { id: u64, client: u64, host: u8 },
    Unsub { id: u64 },
    Version { v: u64 },
}

fn fold(applied: &[Applied]) -> Model {
    let mut m = Model::default();
    for a in applied {
        match *a {
            Applied::Sub { id, client, host } => {
                m.profiles.insert(id, (client, host));
                m.next_profile = m.next_profile.max(id + 1);
            }
            Applied::Unsub { id } => {
                m.profiles.remove(&id);
            }
            Applied::Version { v } => m.summary_version = m.summary_version.max(v),
        }
    }
    m
}

/// Drive `ops` through a journal store over a fresh medium, returning
/// the medium, the applied-record trace and the byte boundary after
/// each record.
fn run_ops(
    ops: &[Op],
    config: JournalConfig,
) -> (MemMedium, Vec<Applied>, Vec<usize>) {
    let medium = MemMedium::new();
    let mut store = JournalStateStore::new(medium.clone(), config);
    let mut applied = Vec::new();
    let mut boundaries = Vec::new();
    let mut model = Model::default();
    let mut version = 0u64;
    for op in ops {
        match *op {
            Op::Subscribe { client, host } => {
                let id = model.next_profile;
                store.record_subscribe(ProfileId::from_raw(id), ClientId::from_raw(client), &expr(host));
                model.profiles.insert(id, (client, host));
                model.next_profile += 1;
                applied.push(Applied::Sub { id, client, host });
            }
            Op::Unsubscribe { pick } => {
                let live: Vec<u64> = model.profiles.keys().copied().collect();
                if live.is_empty() {
                    continue;
                }
                let id = live[pick % live.len()];
                store.record_unsubscribe(ProfileId::from_raw(id));
                model.profiles.remove(&id);
                applied.push(Applied::Unsub { id });
            }
            Op::Announce => {
                version += 1;
                store.record_summary_version(version);
                model.summary_version = version;
                applied.push(Applied::Version { v: version });
            }
        }
        // Total bytes written so far (synced or not): the frame
        // boundary of the record just appended.
        boundaries.push(medium.journal_len() + medium.pending_len());
    }
    (medium, applied, boundaries)
}

fn recover_fresh(medium: MemMedium, config: JournalConfig) -> (RecoveredState, u64) {
    let mut store = JournalStateStore::new(medium, config);
    let recovered = store.recover();
    (recovered, store.counts_mut().get(CounterId::STATE_JOURNAL_CORRUPT))
}

const PLAIN: JournalConfig = JournalConfig {
    fsync_every: 1,
    snapshot_every: 0,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Clean replay reproduces the model exactly.
    #[test]
    fn clean_replay_matches_the_model(ops in prop::collection::vec(op_strategy(), 0..60)) {
        let (medium, applied, _) = run_ops(&ops, PLAIN);
        let (recovered, corrupt) = recover_fresh(medium, PLAIN);
        prop_assert_eq!(recovered, fold(&applied).as_recovered());
        prop_assert_eq!(corrupt, 0);
    }

    /// Truncating the journal at any byte replays exactly the records
    /// whose frames fit entirely before the cut — silently.
    #[test]
    fn truncated_tail_replays_the_intact_prefix(
        ops in prop::collection::vec(op_strategy(), 1..60),
        cut_frac in 0u32..=1000,
    ) {
        let (medium, applied, boundaries) = run_ops(&ops, PLAIN);
        let total = medium.journal_len();
        let cut = (total as u64 * u64::from(cut_frac) / 1000) as usize;
        medium.tear_tail(cut);
        let kept = total - cut;
        let intact = boundaries.iter().filter(|&&b| b <= kept).count();
        let (recovered, corrupt) = recover_fresh(medium, PLAIN);
        prop_assert_eq!(recovered, fold(&applied[..intact]).as_recovered());
        // A torn tail is never counted as corruption.
        prop_assert_eq!(corrupt, 0);
    }

    /// A crash that loses unsynced appends (fsync batching) replays a
    /// record-aligned prefix of what was acknowledged.
    #[test]
    fn fsync_batched_crash_replays_a_synced_prefix(
        ops in prop::collection::vec(op_strategy(), 1..60),
        fsync_every in 1usize..8,
    ) {
        let config = JournalConfig { fsync_every, snapshot_every: 0 };
        let (medium, applied, boundaries) = run_ops(&ops, config);
        medium.crash();
        let kept = medium.journal_len();
        let intact = boundaries.iter().filter(|&&b| b <= kept).count();
        // The sync boundary is always a record boundary.
        prop_assert!(intact == 0 || boundaries[intact - 1] == kept);
        prop_assert!(applied.len() - intact < fsync_every);
        let (recovered, corrupt) = recover_fresh(medium, config);
        prop_assert_eq!(recovered, fold(&applied[..intact]).as_recovered());
        prop_assert_eq!(corrupt, 0);
    }

    /// Flipping any single durable byte never panics and never invents
    /// state: the replayed result is the fold of some record prefix.
    #[test]
    fn flipped_byte_degrades_to_a_prefix_never_panics(
        ops in prop::collection::vec(op_strategy(), 1..40),
        flip_frac in 0u32..1000,
    ) {
        let (medium, applied, boundaries) = run_ops(&ops, PLAIN);
        let total = medium.journal_len();
        if total == 0 {
            // All ops were no-op unsubscribes; nothing to flip.
            return Ok(());
        }
        let idx = (total as u64 * u64::from(flip_frac) / 1000) as usize;
        let idx = idx.min(total - 1);
        medium.flip_at(idx);
        let (recovered, _corrupt) = recover_fresh(medium, PLAIN);
        // The flip lands inside record `hit`; every record before it
        // replays, the damaged one (and - for corruption stops -
        // everything after) does not. CRC framing guarantees the
        // replayed state is the fold of a prefix no longer than `hit`.
        let hit = boundaries.iter().filter(|&&b| b <= idx).count();
        let ok = (0..=hit).any(|n| recovered == fold(&applied[..n]).as_recovered());
        prop_assert!(ok, "replay of a flipped journal must be a prefix fold (flip at {})", idx);
    }

    /// Compaction at any cadence is invisible to recovery.
    #[test]
    fn compaction_cadence_is_invisible_to_recovery(
        ops in prop::collection::vec(op_strategy(), 0..60),
        snapshot_every in 0usize..10,
        fsync_every in 1usize..4,
    ) {
        let config = JournalConfig { fsync_every, snapshot_every };
        let (medium, applied, _) = run_ops(&ops, config);
        // Everything acknowledged is either snapshotted or in the
        // journal; no crash here, so recovery sees it all.
        let (recovered, corrupt) = recover_fresh(medium, config);
        prop_assert_eq!(recovered, fold(&applied).as_recovered());
        prop_assert_eq!(corrupt, 0);
    }
}
