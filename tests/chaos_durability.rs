//! Chaos with hard server crashes: the durable-state contract.
//!
//! Three claims are pinned here, all on seeded, reproducible fault
//! plans:
//!
//! 1. With the journal+snapshot state store, every crash+restart cell
//!    delivers exactly-once against the oracle — zero false negatives,
//!    zero false positives, zero duplicates — and zero subscriptions
//!    are lost.
//! 2. Without durability (the paper-faithful default), the same crashes
//!    measurably lose subscriptions: the damage the journal repairs is
//!    real, not hypothetical.
//! 3. Storage-level fault injection — torn trailing writes, flipped
//!    bytes — never panics recovery and never forges state: the
//!    recovered registry is always a prefix-consistent subset of what
//!    was journalled, and mid-journal corruption is surfaced through
//!    the `state.journal_corrupt` counter.
//!
//! And one boundary: a crash loses the server's transport, so what its
//! first hop had not yet acknowledged is lost with it and nothing from
//! before the crash is re-sent after it.

use gsa_core::{AlertPolicyConfig, AlertState, ReliabilityConfig, System, WireConfig};
use gsa_gds::figure2_tree;
use gsa_greenstone::CollectionConfig;
use gsa_store::SourceDocument;
use gsa_types::{ClientId, SimDuration, SimTime};
use gsa_workload::{
    run_scheme, FaultPlan, FaultPlanParams, GsWorld, Oracle, ProfileMix, ProfilePopulation,
    RebuildSchedule, RunConfig, Scheme, WorldParams,
};

const SEEDS: [u64; 3] = [61, 62, 63];

struct Cell {
    world: GsWorld,
    population: ProfilePopulation,
    schedule: RebuildSchedule,
    faults: FaultPlan,
}

/// A chaos cell that is strictly harder than `chaos_faultplan`'s: the
/// same ambient loss, plus two hard server crashes that wipe volatile
/// state.
fn cell(seed: u64) -> Cell {
    let params = WorldParams {
        servers: 12,
        ..WorldParams::small(seed)
    };
    let world = GsWorld::generate(&params);
    let population = ProfilePopulation::generate(seed + 1, &world, 24, &ProfileMix::default());
    let horizon = SimDuration::from_secs(40);
    let schedule = RebuildSchedule::generate(seed + 2, &world, 10, horizon, 3);
    let faults = FaultPlan::generate_with_servers(
        seed + 3,
        &[],
        &world.hosts,
        &[],
        &FaultPlanParams {
            horizon,
            base_drop: 0.1,
            loss_bursts: 1,
            crashes: 0,
            partition_waves: 0,
            server_crashes: 2,
            server_outage: SimDuration::from_secs(8),
            ..FaultPlanParams::default()
        },
    );
    Cell {
        world,
        population,
        schedule,
        faults,
    }
}

/// Runs the hybrid and returns (quality, lost subscriptions).
fn run(cell: &Cell, durable: bool) -> (gsa_workload::Quality, usize) {
    let outcome = run_scheme(
        Scheme::Hybrid,
        &cell.world,
        &cell.population,
        &cell.schedule,
        &[],
        &RunConfig {
            seed: 77,
            drain: SimDuration::from_secs(40),
            reliable: true,
            base_drop: 0.1,
            faults: Some(cell.faults.clone()),
            durable,
            ..RunConfig::default()
        },
    );
    let oracle = Oracle::build(
        &cell.world,
        &cell.population,
        &cell.schedule,
        &outcome.cancels,
        &outcome.partitions,
        SimDuration::from_secs(5),
    );
    let lost = outcome
        .subscribed
        .saturating_sub(outcome.cancels.len())
        .saturating_sub(outcome.stored_client_profiles);
    (oracle.classify(&outcome.deliveries), lost)
}

#[test]
fn durable_hybrid_is_exactly_once_across_hard_crashes() {
    for seed in SEEDS {
        let cell = cell(seed);
        let crashes = cell
            .faults
            .actions
            .iter()
            .filter(|a| matches!(a, gsa_workload::FaultAction::CrashServer { .. }))
            .count();
        assert!(crashes > 0, "seed {seed}: the plan actually crashes servers");
        let (q, lost) = run(&cell, true);
        assert!(q.expected > 0, "seed {seed}: workload produced deliveries");
        assert_eq!(q.false_negatives, 0, "seed {seed}: no lost notifications");
        assert_eq!(q.false_positives, 0, "seed {seed}: no spurious notifications");
        assert_eq!(q.duplicates, 0, "seed {seed}: no duplicate notifications");
        assert_eq!(lost, 0, "seed {seed}: no subscriptions lost to crashes");
    }
}

#[test]
fn volatile_hybrid_measurably_loses_subscriptions_on_the_same_crashes() {
    let mut lost_total = 0;
    for seed in SEEDS {
        let cell = cell(seed);
        lost_total += run(&cell, false).1;
    }
    assert!(
        lost_total > 0,
        "hard crashes without durability must lose subscriptions \
         (otherwise the plan never hit a subscribed server and proves nothing)"
    );
}

/// Builds the Figure 2 world with a durable Hamilton server holding
/// `n` subscriptions, settled and ready for storage-fault injection.
fn durable_hamilton(seed: u64, n: u64) -> System {
    let mut system = System::new(seed);
    system.set_durability(true);
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
    system.run_until_quiet(SimTime::from_secs(5));
    let client = system.add_client("Hamilton");
    for i in 0..n {
        system
            .subscribe_text("Hamilton", client, &format!(r#"host = "host-{i}""#))
            .unwrap();
    }
    system.run_until_quiet(system.now() + SimDuration::from_secs(2));
    system
}

#[test]
fn torn_trailing_write_recovers_the_intact_prefix() {
    let mut system = durable_hamilton(21, 4);
    // Tear a few bytes off the journal tail, as a crash between append
    // and fsync would: the last record drops silently, no corruption is
    // flagged, and everything before it survives.
    system.storage_of("Hamilton").unwrap().tear_tail(2);
    system.crash_server("Hamilton");
    system.restart_server("Hamilton");
    system.run_until_quiet(system.now() + SimDuration::from_secs(5));
    let recovered = system.inspect_core("Hamilton", |c| c.subscriptions().len());
    assert_eq!(recovered, 3, "the torn record drops, the first three survive");
    assert_eq!(system.metrics().counter("state.journal_corrupt"), 0);
}

#[test]
fn subscription_acknowledged_after_a_torn_tail_recovery_survives_the_next_crash() {
    // The second crash. The first restart recovers past a torn tail; a
    // client then subscribes and is acknowledged. Were the torn bytes
    // still in the journal ahead of that record, the second restart
    // would read them as mid-journal corruption and stop there: the
    // late subscriber gone, and silent at the publish below.
    let mut system = durable_hamilton(23, 4);
    system.storage_of("Hamilton").unwrap().tear_tail(2);
    system.crash_server("Hamilton");
    system.restart_server("Hamilton");
    system.run_until_quiet(system.now() + SimDuration::from_secs(5));

    let late = system.add_client("Hamilton");
    system
        .subscribe_text("Hamilton", late, r#"host = "Hamilton""#)
        .unwrap();
    system.run_until_quiet(system.now() + SimDuration::from_secs(2));
    system.crash_server("Hamilton");
    system.restart_server("Hamilton");
    system.run_until_quiet(system.now() + SimDuration::from_secs(5));

    let recovered = system.inspect_core("Hamilton", |c| c.subscriptions().len());
    assert_eq!(
        recovered, 4,
        "three survivors of the tear and the late subscriber"
    );
    assert_eq!(system.metrics().counter("state.journal_corrupt"), 0);
    system
        .rebuild("Hamilton", "D", vec![SourceDocument::new("d1", "v1")])
        .unwrap();
    system.run_until_quiet(system.now() + SimDuration::from_secs(5));
    assert_eq!(
        system.take_notifications("Hamilton", late).len(),
        1,
        "the late subscriber is notified"
    );
}

#[test]
fn mid_journal_flip_stops_at_the_last_good_record_and_is_counted() {
    let mut system = durable_hamilton(22, 4);
    let storage = system.storage_of("Hamilton").unwrap();
    // Flip a byte inside the first record's body (offset 2 is past its
    // one-byte length varint), with three intact records after it:
    // recovery must stop before the damage and say so. (A flip that
    // lands in a length varint can instead read as a torn tail — that
    // case is covered by the exhaustive sweep below.)
    storage.flip_at(2);
    system.crash_server("Hamilton");
    system.restart_server("Hamilton");
    system.run_until_quiet(system.now() + SimDuration::from_secs(5));
    let recovered = system.inspect_core("Hamilton", |c| c.subscriptions().len());
    assert!(recovered < 4, "damage must cost at least the damaged record");
    assert_eq!(
        system.metrics().counter("state.journal_corrupt"),
        1,
        "mid-journal corruption is surfaced, not swallowed"
    );
}

/// One Hamilton server with dedup policies on, one local watcher, one
/// matching rebuild already delivered and settled.
fn lifecycle_world(seed: u64, durable: bool) -> (System, ClientId) {
    let mut system = System::new(seed);
    system.set_durability(durable);
    system.set_alert_policies(Some(AlertPolicyConfig::dedup_only()));
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
    system.run_until_quiet(SimTime::from_secs(5));
    let client = system.add_client("Hamilton");
    system
        .subscribe_text("Hamilton", client, r#"host = "Hamilton""#)
        .unwrap();
    system.run_until_quiet(system.now() + SimDuration::from_secs(2));
    system
        .rebuild("Hamilton", "D", vec![SourceDocument::new("d1", "v1")])
        .unwrap();
    system.run_until_quiet(system.now() + SimDuration::from_secs(5));
    (system, client)
}

#[test]
fn durable_lifecycle_survives_crash_without_losing_acks_or_double_notifying() {
    for seed in SEEDS {
        let (mut system, client) = lifecycle_world(seed, true);
        let inbox = system.take_notifications("Hamilton", client);
        assert_eq!(inbox.len(), 1, "seed {seed}: the first rebuild notifies");
        let fp = system
            .alert_fingerprint("Hamilton", &inbox[0])
            .expect("seed {seed}: policies are on, so the engine fingerprints");
        assert_eq!(
            system.alert_state("Hamilton", fp),
            Some(AlertState::Firing),
            "seed {seed}"
        );
        assert!(system.ack_alert("Hamilton", fp), "seed {seed}: ack lands");

        system.crash_server("Hamilton");
        system.restart_server("Hamilton");
        system.run_until_quiet(system.now() + SimDuration::from_secs(5));
        assert_eq!(
            system.alert_state("Hamilton", fp),
            Some(AlertState::Acked),
            "seed {seed}: the ack survives the crash"
        );

        // The same alert fires again after restart: the recovered
        // instance is still active, so dedup suppresses the duplicate.
        system
            .rebuild("Hamilton", "D", vec![SourceDocument::new("d2", "v2")])
            .unwrap();
        system.run_until_quiet(system.now() + SimDuration::from_secs(5));
        assert_eq!(
            system.take_notifications("Hamilton", client).len(),
            0,
            "seed {seed}: an acked instance must not re-notify after restart"
        );
        assert!(
            system.metrics().counter("alerts.suppressed") >= 1,
            "seed {seed}: the suppression is counted, not silent"
        );
    }
}

#[test]
fn volatile_lifecycle_forgets_acks_and_double_notifies_on_the_same_crash() {
    // The comparison cell: without the journal the crash erases the
    // instance table along with the registry, so the ack is gone and
    // the re-fired alert notifies a second time.
    let (mut system, client) = lifecycle_world(71, false);
    let inbox = system.take_notifications("Hamilton", client);
    assert_eq!(inbox.len(), 1);
    let fp = system.alert_fingerprint("Hamilton", &inbox[0]).unwrap();
    assert!(system.ack_alert("Hamilton", fp));

    system.crash_server("Hamilton");
    system.restart_server("Hamilton");
    system.run_until_quiet(system.now() + SimDuration::from_secs(5));
    assert_eq!(
        system.alert_state("Hamilton", fp),
        None,
        "volatile state store: the ack is lost with the instance table"
    );

    // The subscription died with the crash too; the client re-registers
    // and the re-fired alert is delivered afresh — a duplicate the
    // durable cell above proves the journal prevents.
    system
        .subscribe_text("Hamilton", client, r#"host = "Hamilton""#)
        .unwrap();
    system.run_until_quiet(system.now() + SimDuration::from_secs(2));
    system
        .rebuild("Hamilton", "D", vec![SourceDocument::new("d2", "v2")])
        .unwrap();
    system.run_until_quiet(system.now() + SimDuration::from_secs(5));
    assert_eq!(
        system.take_notifications("Hamilton", client).len(),
        1,
        "without durability the acked alert notifies again"
    );
}

#[test]
fn a_crash_loses_the_transport() {
    // Hamilton rebuilds and crashes in the same instant. On XML the
    // publish left as a frame of its own: London hears it once, and the
    // frame whose ack found Hamilton down is not re-sent after the
    // restart. On v2 it still sat in the batch buffer, flushed at the end
    // of the instant, and is lost with the process: no hop owed it yet.
    for (wire, heard) in [(WireConfig::default(), 1), (WireConfig::v2(), 0)] {
        let mut system = System::new(42);
        system.set_reliability(ReliabilityConfig);
        system.set_wire(wire.clone());
        system.add_gds_topology(&figure2_tree());
        system.add_server("Hamilton", "gds-4");
        system.add_server("London", "gds-2");
        system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
        system.run_until_quiet(SimTime::from_secs(5));
        let client = system.add_client("London");
        system
            .subscribe_text("London", client, r#"host = "Hamilton""#)
            .unwrap();
        system.run_until_quiet(system.now() + SimDuration::from_secs(2));

        system
            .rebuild("Hamilton", "D", vec![SourceDocument::new("d1", "v1")])
            .unwrap();
        system.crash_server("Hamilton");
        system.run_for(SimDuration::from_secs(2));
        let retransmits = system.metrics().counter("net.retransmits");
        system.restart_server("Hamilton");
        system.run_until_quiet(system.now() + SimDuration::from_secs(30));
        assert_eq!(
            system.take_notifications("London", client).len(),
            heard,
            "{wire:?}: London hears the publish {heard} time(s)"
        );
        assert_eq!(
            system.metrics().counter("net.retransmits"),
            retransmits,
            "{wire:?}: nothing from before the crash is re-sent after it"
        );
    }
}

#[test]
fn every_single_byte_flip_recovers_a_subset_without_panicking() {
    // Exhaustive storage-fault sweep: flip each journal byte in turn,
    // recover, and require a subset of the real registry every time.
    // The sweep runs on the store directly (no sim) to stay fast.
    use gsa_state::{JournalConfig, JournalStateStore, MemMedium, StateStore};
    use gsa_types::{ClientId, ProfileId};

    let medium = MemMedium::new();
    let mut store = JournalStateStore::new(medium.clone(), JournalConfig::default());
    let expr = gsa_profile::parse_profile(r#"host = "London""#).unwrap();
    for i in 0..6u64 {
        store.record_subscribe(ProfileId::from_raw(i), ClientId::from_raw(i), &expr);
    }
    let len = medium.journal_len();
    assert!(len > 0);
    for idx in 0..len {
        let hurt = medium.clone_deep();
        hurt.flip_at(idx);
        let mut reopened = JournalStateStore::new(hurt, JournalConfig::default());
        let recovered = reopened.recover();
        assert!(
            recovered.profiles.len() <= 6,
            "byte {idx}: recovery must never invent profiles"
        );
        for (id, (client, _)) in &recovered.profiles {
            assert_eq!(id.as_u64(), client.as_u64(), "byte {idx}: pairing preserved");
        }
    }
}
