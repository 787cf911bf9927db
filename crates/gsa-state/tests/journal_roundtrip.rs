//! Property: the journal is a faithful, torn-tail-tolerant log.
//!
//! Arbitrary subscribe / unsubscribe sequences, with the summary-version
//! frames an older build journaled among them, are written through a
//! [`JournalStateStore`], then the durable bytes are
//! optionally mutilated (tail truncation at an arbitrary byte, a
//! bit-flipped byte) and replayed by a fresh store. The replayed state
//! must equal the in-memory model folded over the records whose frames
//! survived intact — never more, never a panic — and compaction at any
//! point, completed or cut short between its two steps, must not change
//! what recovery returns. The snapshot is the same record stream behind
//! a header, so the same damage is swept over it.

use gsa_profile::{Predicate, ProfileAttr, ProfileExpr};
use gsa_state::{
    replay_journal, JournalConfig, JournalStateStore, Medium, MemMedium, RecoveredState, StateStore,
};
use gsa_types::{ClientId, CounterId, ProfileId};
use gsa_wire::binary::{crc32, write_varint};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    /// Subscribe a new profile for client `client` over anchor `host`.
    Subscribe { client: u64, host: u8 },
    /// Unsubscribe the `pick`-th live profile (no-op when none live).
    Unsubscribe { pick: usize },
    /// Announce the next summary version, as an older build journaled
    /// it: a retired tag-3 frame, which replay folds to nothing.
    Announce,
    /// Compact. When it does not complete, the process dies between
    /// the snapshot write and the journal truncate, and the run with it.
    Compact { completes: bool },
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

/// [`op_strategy`] with compactions among the ops, one in eight of them
/// cut short.
fn op_or_compact_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        op_strategy(),
        op_strategy(),
        op_strategy(),
        (0u8..8).prop_map(|roll| Op::Compact {
            completes: roll != 0
        }),
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
}

impl Model {
    fn as_recovered(&self) -> RecoveredState {
        RecoveredState {
            profiles: self
                .profiles
                .iter()
                .map(|(&id, &(client, host))| {
                    (
                        ProfileId::from_raw(id),
                        (ClientId::from_raw(client), expr(host)),
                    )
                })
                .collect(),
            alerts: BTreeMap::new(),
        }
    }
}

/// One applied mutation, as the store saw it, for prefix re-folding.
#[derive(Debug, Clone)]
enum Applied {
    Sub { id: u64, client: u64, host: u8 },
    Unsub { id: u64 },
    Retired,
}

fn fold(applied: &[Applied]) -> Model {
    let mut m = Model::default();
    for a in applied {
        match *a {
            Applied::Sub { id, client, host } => {
                m.profiles.insert(id, (client, host));
            }
            Applied::Unsub { id } => {
                m.profiles.remove(&id);
            }
            Applied::Retired => {}
        }
    }
    m
}

/// A medium whose process can die between the two steps of a
/// compaction: once `dying` is set, the journal truncate never reaches
/// the disk.
#[derive(Debug, Clone, Default)]
struct Mortal {
    disk: MemMedium,
    dying: bool,
}

impl Medium for Mortal {
    fn read_snapshot(&mut self) -> Vec<u8> {
        self.disk.read_snapshot()
    }
    fn replace_snapshot(&mut self, bytes: &[u8]) {
        self.disk.replace_snapshot(bytes);
    }
    fn append_journal(&mut self, bytes: &[u8]) {
        self.disk.append_journal(bytes);
    }
    fn sync_journal(&mut self) {
        self.disk.sync_journal();
    }
    fn read_journal(&mut self) -> Vec<u8> {
        self.disk.read_journal()
    }
    fn truncate_journal(&mut self) {
        if !self.dying {
            self.disk.truncate_journal();
        }
    }
}

/// Drive `ops` through a journal store over a fresh medium, up to the
/// first compaction that does not complete, returning the medium, the
/// applied-record trace and the byte boundary after each record.
fn run_ops(
    ops: &[Op],
    config: JournalConfig,
) -> (MemMedium, Vec<Applied>, Vec<usize>) {
    let medium = MemMedium::new();
    let mortal = Mortal {
        disk: medium.clone(),
        dying: false,
    };
    let mut store = JournalStateStore::new(mortal, config);
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
                // Appended and synced past the store, as the older
                // build's store did.
                version += 1;
                let mut body = vec![3];
                write_varint(&mut body, version);
                let mut frame = Vec::new();
                write_varint(&mut frame, body.len() as u64);
                frame.extend_from_slice(&body);
                frame.extend_from_slice(&crc32(&body).to_le_bytes());
                let mut disk = medium.clone();
                disk.append_journal(&frame);
                disk.sync_journal();
                applied.push(Applied::Retired);
            }
            Op::Compact { completes: true } => {
                store.compact();
                continue;
            }
            Op::Compact { completes: false } => {
                let mut dying = JournalStateStore::new(
                    Mortal {
                        disk: medium.clone(),
                        dying: true,
                    },
                    config,
                );
                dying.compact();
                break;
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

/// Sync every append. The journals here stay far below the size at
/// which the store compacts by itself, so a compaction is an op.
const PLAIN: JournalConfig = JournalConfig { fsync_every: 1 };

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
        let config = JournalConfig { fsync_every };
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

    /// Compaction is invisible to recovery, whenever it runs and
    /// whether or not it gets to truncate the journal.
    #[test]
    fn compaction_cadence_is_invisible_to_recovery(
        ops in prop::collection::vec(op_or_compact_strategy(), 0..60),
        fsync_every in 1usize..4,
    ) {
        let config = JournalConfig { fsync_every };
        let (medium, applied, _) = run_ops(&ops, config);
        // Everything acknowledged is either snapshotted or in the
        // journal — or, after a compaction cut short, in both; no lost
        // write here, so recovery sees it all.
        let (recovered, corrupt) = recover_fresh(medium.clone(), config);
        prop_assert_eq!(&recovered, &fold(&applied).as_recovered());
        prop_assert_eq!(corrupt, 0);
        // And a compaction of whatever that left changes nothing.
        let mut store = JournalStateStore::new(medium.clone(), config);
        store.compact();
        prop_assert_eq!(recover_fresh(medium, config), (recovered, 0));
    }

    /// The snapshot is a record stream too: a flipped byte or a cut
    /// anywhere in it never panics and never invents state — recovery
    /// keeps the snapshot records ahead of the damage and the whole
    /// journal, counts the damage once, and leaves the medium holding
    /// exactly that.
    #[test]
    fn damaged_snapshot_degrades_to_a_prefix_plus_the_journal(
        before in prop::collection::vec(op_strategy(), 1..40),
        after in prop::collection::vec(op_strategy(), 0..20),
        at_frac in 0u32..1000,
        flip in 0u8..2,
    ) {
        let ops: Vec<Op> = before
            .into_iter()
            .chain([Op::Compact { completes: true }])
            .chain(after)
            .collect();
        let (mut medium, _, _) = run_ops(&ops, PLAIN);
        let clean = medium.read_snapshot();
        let at = (clean.len() as u64 * u64::from(at_frac) / 1000) as usize;
        // What the snapshot and the journal hold, record by record.
        let mut snapshot_records = Vec::new();
        let mut ends = Vec::new();
        let mut end = 2;
        replay_journal(&clean[2..], |rec| {
            let mut frame = Vec::new();
            gsa_state::encode_record(&rec, &mut frame);
            end += frame.len();
            ends.push(end);
            snapshot_records.push(rec);
        });
        prop_assert_eq!(end, clean.len());
        let mut journal_records = Vec::new();
        replay_journal(&medium.read_journal(), |rec| journal_records.push(rec));

        let flip = flip == 1;
        let mut damaged = clean.clone();
        if flip {
            damaged[at] ^= 0xFF;
        } else {
            damaged.truncate(at);
        }
        medium.replace_snapshot(&damaged);
        // A cut to nothing is "no snapshot yet"; otherwise a blob with
        // a broken header is refused whole, and past the header the
        // records whose frames end before the damage survive.
        let intact = if at < 2 { 0 } else { ends.iter().filter(|&&e| e <= at).count() };
        let mut expected = RecoveredState::default();
        for rec in snapshot_records[..intact].iter().chain(&journal_records) {
            expected.apply(rec.clone());
        }
        let (recovered, corrupt) = recover_fresh(medium.clone(), PLAIN);
        prop_assert_eq!(&recovered, &expected);
        let unnoticed = !flip && (at == 0 || at == 2 || ends.contains(&at));
        prop_assert_eq!(corrupt, u64::from(!unnoticed));
        // The repair: a second recovery finds nothing to complain about.
        prop_assert_eq!(recover_fresh(medium, PLAIN), (recovered, 0));
    }
}
