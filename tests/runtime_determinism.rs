//! Determinism regression suite for the zero-allocation runtime.
//!
//! The same seed must yield byte-identical metric snapshots and
//! per-client delivery sets. These tests pin that bar, plus the
//! paper-figure message counts recorded before the E7 scale refactor
//! (interned counters, indexed link table, pooled command buffers).

use gsa_core::{System, WireConfig};
use gsa_gds::figure2_tree;
use gsa_greenstone::{CollectionConfig, SubCollectionRef};
use gsa_store::SourceDocument;
use gsa_types::{ClientId, CollectionId, HostName, SimDuration, SimTime};
use gsa_workload::{
    run_scheme, ChurnEvent, FaultPlan, FaultPlanParams, GsWorld, ProfileMix, ProfilePopulation,
    RebuildSchedule, RunConfig, RunOutcome, Scheme, WorldParams,
};
use std::collections::BTreeMap;

fn doc(id: &str, text: &str) -> SourceDocument {
    SourceDocument::new(id, text)
}

/// One full hybrid scenario: v2 wire (batching), pruning, a federated
/// sub-collection, four profile shapes, loss, a partition and a heal.
/// Returns the rendered metrics snapshot and the per-client delivery
/// sets, both in deterministic order.
fn hybrid_run(seed: u64) -> (String, Vec<String>) {
    let mut system = System::new(seed);
    system.set_wire(WireConfig::v2());
    system.set_pruning(true);
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("London", "gds-2");
    system.add_server("Cairo", "gds-5");
    system.add_server("Berlin", "gds-3");
    system.add_collection("London", CollectionConfig::simple("E", "e"));
    system.add_collection(
        "Hamilton",
        CollectionConfig::simple("D", "d").with_subcollection(SubCollectionRef::new(
            "e",
            CollectionId::new("London", "E"),
        )),
    );
    system.add_collection("Cairo", CollectionConfig::simple("news", "news"));

    let mut clients: Vec<(&str, ClientId)> = Vec::new();
    for (host, profile) in [
        ("London", r#"host = "Hamilton""#),
        ("Hamilton", r#"collection = "Hamilton.D""#),
        ("Cairo", r#"text ~ "*""#),
        ("Berlin", r#"host = "Cairo""#),
    ] {
        let client = system.add_client(host);
        system.subscribe_text(host, client, profile).unwrap();
        clients.push((host, client));
    }
    system.run_until_quiet(SimTime::from_secs(5));

    system.set_drop_probability(0.02);
    system.rebuild("Hamilton", "D", vec![doc("d1", "alpha"), doc("d2", "beta")]).unwrap();
    system.import("London", "E", vec![doc("e1", "gamma")]).unwrap();
    system.rebuild("Cairo", "news", vec![doc("n1", "delta")]).unwrap();
    system.run_until_quiet(SimTime::from_secs(40));

    // Partition London away mid-run, publish into the fracture, heal.
    system.set_partition("London", 1);
    system.rebuild("Hamilton", "D", vec![doc("d3", "epsilon")]).unwrap();
    system.run_for(gsa_types::SimDuration::from_secs(10));
    system.heal_network();
    system.run_until_quiet(system.now() + gsa_types::SimDuration::from_secs(40));

    let mut deliveries = Vec::new();
    for (host, client) in clients {
        for n in system.take_notifications(host, client) {
            deliveries.push(format!("{host}/{client}: {n}"));
        }
    }
    (system.metrics().to_string(), deliveries)
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let (metrics_a, deliveries_a) = hybrid_run(11);
    let (metrics_b, deliveries_b) = hybrid_run(11);
    assert_eq!(metrics_a, metrics_b, "same seed must replay bit-identically");
    assert_eq!(deliveries_a, deliveries_b);
    assert!(!deliveries_a.is_empty(), "scenario must actually deliver");
    // A different seed draws different jitter: the snapshot moves.
    let (metrics_c, _) = hybrid_run(12);
    assert_ne!(metrics_a, metrics_c, "seed must actually steer the run");
}

/// FNV-1a, 64 bit, written out here so the pinned values below do not
/// depend on the standard library's (unspecified) default hasher.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The whole observable output of [`hybrid_run`] — every counter, every
/// histogram summary, every delivery line — hashed and pinned per seed,
/// so a refactor that claims "nothing observable moves" is checked by
/// `cargo test`. A PR that means to change behaviour updates the three
/// constants and says why.
#[test]
fn hybrid_run_output_is_pinned_per_seed() {
    let hashes = [11, 21, 31].map(|seed| {
        let (metrics, deliveries) = hybrid_run(seed);
        fnv1a64(format!("{metrics}\n---\n{}", deliveries.join("\n")).as_bytes())
    });
    let pinned = [
        0x347e_4dbf_5acd_d282_u64,
        0xb174_e9ae_db9b_564a,
        0x6950_8a9d_763e_5a75,
    ];
    assert_eq!(
        hashes, pinned,
        "same-seed output moved at seeds 11/21/31: {hashes:#018x?}"
    );
}

/// FNV-1a of one run's whole outcome. `cancels` and `partitions` are
/// hash maps, so they are sorted before hashing.
fn outcome_hash(mut outcome: RunOutcome) -> u64 {
    let cancels: BTreeMap<_, _> = std::mem::take(&mut outcome.cancels).into_iter().collect();
    let partitions: BTreeMap<_, _> = std::mem::take(&mut outcome.partitions).into_iter().collect();
    fnv1a64(format!("{outcome:?}\n{cancels:?}\n{partitions:?}").as_bytes())
}

/// Every scheme's [`RunOutcome`] on an E4-sized world (16 servers, 40
/// profiles, 25 rebuilds) under churn, 10 % ambient loss and a fault plan
/// with loss bursts, directory crashes, a partition wave and hard server
/// crashes, plus one reliable, durable hybrid run of the same plan. Every
/// delivery, delay, count and applied fault window is hashed, so a
/// refactor of the runners or the baselines that claims "nothing
/// observable moves" is checked per scheme. A PR that means to change
/// behaviour updates the six constants and says why.
#[test]
fn every_scheme_outcome_is_pinned_per_seed() {
    let seed = 4_300;
    let world = GsWorld::generate(&WorldParams {
        seed,
        servers: 16,
        p_solitary: 0.4,
        max_island: 5,
        collections_per_server: 2,
        p_remote_sub: 0.5,
        p_extra_edge: 0.3,
        p_private: 0.15,
    });
    let population = ProfilePopulation::generate(seed + 1, &world, 40, &ProfileMix::default());
    let horizon = SimDuration::from_secs(60);
    let schedule = RebuildSchedule::generate(seed + 2, &world, 25, horizon, 3);
    let churn = ChurnEvent::schedule(seed + 3, &world, 2, 8, population.len(), horizon);
    let fanout = 3;
    let (topo, _) = world.gds_tree(fanout);
    let crashable: Vec<HostName> = topo
        .specs()
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| s.name.clone())
        .collect();
    let faults = FaultPlan::generate_with_servers(
        seed + 4,
        &crashable,
        &world.hosts,
        &world.hosts,
        &FaultPlanParams {
            horizon,
            base_drop: 0.1,
            server_crashes: 2,
            ..FaultPlanParams::default()
        },
    );
    let cfg = RunConfig {
        seed: seed + 5,
        fanout,
        drain: SimDuration::from_secs(60),
        base_drop: 0.1,
        faults: Some(faults),
        ..RunConfig::default()
    };
    let durable = RunConfig {
        reliable: true,
        durable: true,
        ..cfg.clone()
    };
    let runs = Scheme::ALL
        .iter()
        .map(|&scheme| (scheme, &cfg))
        .chain([(Scheme::Hybrid, &durable)]);
    let hashes: Vec<u64> = runs
        .map(|(scheme, cfg)| {
            outcome_hash(run_scheme(scheme, &world, &population, &schedule, &churn, cfg))
        })
        .collect();
    let pinned = [
        0x980f_5d28_9317_3db3_u64,
        0xa307_faef_9947_cef8,
        0xd47d_a9a5_a64b_41f1,
        0xc9bf_1640_40ae_6f27,
        0x8157_295b_5969_ef72,
        0x9b8e_e30e_33e4_86c5,
    ];
    assert_eq!(
        hashes, pinned,
        "outcomes moved (hybrid, gs-flood, gs-flood-nodedup, profile-flood, rendezvous, \
         durable hybrid): {hashes:#018x?}"
    );
}

/// The Figure 2 broadcast-cost fixture recorded before the refactor:
/// one rebuild on a seven-node tree costs 1 publish, 6 edge crossings
/// and 6 server deliveries — 13 messages, all delivered.
#[test]
fn paper_figure_message_counts_are_pinned() {
    let mut system = System::new(3);
    system.add_gds_topology(&figure2_tree());
    for (host, gds) in [
        ("Hamilton", "gds-4"),
        ("London", "gds-2"),
        ("Auckland", "gds-1"),
        ("Berlin", "gds-3"),
        ("Cairo", "gds-5"),
        ("Delhi", "gds-6"),
        ("Edmonton", "gds-7"),
    ] {
        system.add_server(host, gds);
    }
    system.add_collection("Hamilton", CollectionConfig::simple("news", "news"));
    system.run_until_quiet(SimTime::from_secs(5));
    let sent_before = system.metrics().counter("net.sent");
    let delivered_before = system.metrics().counter("net.delivered");
    system.rebuild("Hamilton", "news", vec![doc("n1", "x")]).unwrap();
    system.run_until_quiet(SimTime::from_secs(60));
    let sent = system.metrics().counter("net.sent") - sent_before;
    let delivered = system.metrics().counter("net.delivered") - delivered_before;
    assert_eq!(sent, 13, "figure-2 fixture moved");
    assert_eq!(delivered, 13, "lossless tree must deliver every frame");
}
