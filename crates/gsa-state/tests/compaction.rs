//! The store repairs what it recovers and times its own compactions.
//!
//! * A recovery that met damage — a torn or flipped tail, a corrupt
//!   record — leaves the medium holding exactly what it recovered, so
//!   nothing acknowledged afterwards is appended behind bytes the next
//!   recovery refuses (`second_crash_after_a_damaged_tail_loses_nothing`).
//! * Compaction runs when the journal has grown to the size of the last
//!   snapshot (or [`COMPACT_FLOOR`]): appends are amortised O(1) in
//!   compacted bytes and the medium holds at most twice the live state
//!   plus the floor. Both are pinned through a medium that counts, so
//!   the pins are deterministic
//!   (`forty_thousand_subscribes_cost_a_handful_of_snapshots`,
//!   `churn_over_a_fixed_population_keeps_the_medium_bounded`).

use gsa_profile::{Predicate, ProfileAttr, ProfileExpr};
use gsa_state::{JournalConfig, JournalStateStore, Medium, MemMedium, StateStore, COMPACT_FLOOR};
use gsa_types::{ClientId, CounterId, ProfileId};

/// A three-literal profile, as the set-up sweeps subscribe them.
fn expr(i: u64) -> ProfileExpr {
    ProfileExpr::And(vec![
        ProfileExpr::Pred(Predicate::equals(
            ProfileAttr::Host,
            format!("host-{}", i % 40),
        )),
        ProfileExpr::Pred(Predicate::equals(ProfileAttr::Kind, "documents-added")),
        ProfileExpr::Pred(Predicate::equals(
            ProfileAttr::Meta("dc.Subject".into()),
            format!("subject-{}", i % 997),
        )),
    ])
}

fn subscribe(store: &mut impl StateStore, id: u64) {
    store.record_subscribe(
        ProfileId::from_raw(id),
        ClientId::from_raw(id % 64),
        &expr(id),
    );
}

fn recover(medium: &MemMedium) -> (Vec<u64>, u64, JournalStateStore<MemMedium>) {
    let mut store = JournalStateStore::new(medium.clone(), JournalConfig::default());
    let ids = store
        .recover()
        .profiles
        .keys()
        .map(|id| id.as_u64())
        .collect();
    let corrupt = store.counts_mut().get(CounterId::STATE_JOURNAL_CORRUPT);
    (ids, corrupt, store)
}

/// Ten subscriptions, a crash that damages the tail, a recovery, ten
/// more subscriptions each synced and acknowledged, a second crash:
/// every acknowledged subscription is there, and the second recovery
/// finds nothing wrong. Swept over every way to tear or flip the last
/// record. (Before the repair the second recovery stopped at the old
/// tear, for good: ten acknowledged subscriptions gone, and every later
/// one until a compaction happened to run.)
#[test]
fn second_crash_after_a_damaged_tail_loses_nothing() {
    let pristine = MemMedium::new();
    let mut store = JournalStateStore::new(pristine.clone(), JournalConfig::default());
    for id in 0..9 {
        subscribe(&mut store, id);
    }
    let before_last = pristine.journal_len();
    subscribe(&mut store, 9);
    let last = pristine.journal_len() - before_last;
    pristine.crash();

    let tears = (1..=last).map(|n| (n, false));
    let flips = (1..=last).map(|n| (n, true));
    for (n, flip) in tears.chain(flips) {
        let medium = pristine.clone_deep();
        if flip {
            medium.flip_tail(n);
        } else {
            medium.tear_tail(n);
        }
        let (ids, corrupt, mut store) = recover(&medium);
        let damage = if flip { "flip" } else { "tear" };
        assert_eq!(
            ids,
            (0..9).collect::<Vec<_>>(),
            "{damage} {n}: first recovery"
        );
        // Damage to the tail is a torn write, not corruption — unless a
        // flip shortens the length prefix, which leaves bytes behind the
        // frame it fails.
        assert!(
            corrupt == 0 || (flip && n == last),
            "{damage} {n}: counted {corrupt}"
        );
        for id in 10..20 {
            subscribe(&mut store, id);
        }
        medium.crash();

        let (ids, corrupt, _) = recover(&medium);
        let acknowledged: Vec<u64> = (0..9).chain(10..20).collect();
        assert_eq!(ids, acknowledged, "{damage} {n}: second recovery");
        assert_eq!(corrupt, 0, "{damage} {n}: second recovery is clean");
    }
}

/// A medium that counts what compaction hands it.
#[derive(Debug, Default)]
struct Counting {
    disk: MemMedium,
    snapshot_writes: u64,
    snapshot_bytes_written: usize,
}

impl Medium for Counting {
    fn read_snapshot(&mut self) -> Vec<u8> {
        self.disk.read_snapshot()
    }
    fn replace_snapshot(&mut self, bytes: &[u8]) {
        self.snapshot_writes += 1;
        self.snapshot_bytes_written += bytes.len();
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
        self.disk.truncate_journal();
    }
}

/// Filling a store is linear: each compaction waits for as many journal
/// bytes as the one before it wrote, so the snapshots of a population
/// nobody cancels double, their count is logarithmic and their bytes
/// sum to less than twice the last. (A compaction every 256 records
/// wrote 156 snapshots here, 78 times the last one's bytes.)
#[test]
fn forty_thousand_subscribes_cost_a_handful_of_snapshots() {
    let mut store = JournalStateStore::new(Counting::default(), JournalConfig::default());
    for id in 0..40_000 {
        subscribe(&mut store, id);
    }
    let medium = store.medium();
    let last = medium.disk.snapshot_len();
    println!(
        "40 000 subscribes: {} snapshot writes, {} bytes compacted, last snapshot {last}",
        medium.snapshot_writes, medium.snapshot_bytes_written
    );
    assert!(last > COMPACT_FLOOR, "the population outgrew the floor");
    assert!(
        medium.snapshot_writes <= 16,
        "{} snapshot writes",
        medium.snapshot_writes
    );
    assert!(
        medium.snapshot_bytes_written <= 3 * last,
        "{} bytes compacted for a snapshot of {last}",
        medium.snapshot_bytes_written
    );
    let (ids, corrupt, _) = recover(&medium.disk);
    assert_eq!((ids.len(), corrupt), (40_000, 0));
}

/// Subscribe-then-cancel churn over a fixed population: dead records
/// are what a compaction drops, and the store runs one before they
/// outweigh the live state — the medium never holds more than twice the
/// live state plus the floor (and one record, the one whose append
/// triggers the compaction).
#[test]
fn churn_over_a_fixed_population_keeps_the_medium_bounded() {
    const LIVE: u64 = 1_000;
    let mut store = JournalStateStore::new(Counting::default(), JournalConfig::default());
    for id in 0..LIVE {
        subscribe(&mut store, id);
    }
    // The live state, as a snapshot holds it.
    let live = {
        let copy = store.medium().disk.clone_deep();
        JournalStateStore::new(copy.clone(), JournalConfig::default()).compact();
        copy.snapshot_len()
    };
    assert!(
        live > COMPACT_FLOOR,
        "the bound under test is the live state's, not the floor's"
    );
    let record = 2 * live / LIVE as usize;
    let mut most = 0;
    for id in LIVE..LIVE + 40_000 {
        subscribe(&mut store, id);
        store.record_unsubscribe(ProfileId::from_raw(id - LIVE));
        let disk = &store.medium().disk;
        most = most.max(disk.snapshot_len() + disk.journal_len());
    }
    println!(
        "churn: at most {most} bytes on the medium for {live} live, {} snapshot writes",
        store.medium().snapshot_writes
    );
    assert!(
        most <= 2 * (live + record) + COMPACT_FLOOR,
        "{most} bytes on the medium for {live} live"
    );
    assert!(
        store.medium().snapshot_writes >= 10,
        "the churn was compacted away"
    );
    let (ids, corrupt, _) = recover(&store.medium().disk);
    assert_eq!(ids, (40_000..40_000 + LIVE).collect::<Vec<_>>());
    assert_eq!(corrupt, 0);
}
