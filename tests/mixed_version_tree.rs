//! Mixed-version deployments: wire-v2 hosts interoperating with a
//! v1-only directory node in the middle of the tree.
//!
//! The tree, servers and workload mirror `gds_lossy_broadcast.rs`; the
//! difference is that every host speaks wire v2 with batching on,
//! except `gds-3` — a mid-tree directory node (parent `gds-1`, child
//! `gds-7`) pinned to v1. It never answers hellos, so all four of its
//! edges must stay on XML while the rest of the tree upgrades, and
//! exactly-once delivery must hold across the format boundary, with
//! and without loss.

use gsa_core::{BatchConfig, ReliabilityConfig, System, WireConfig};
use gsa_gds::figure2_tree;
use gsa_greenstone::CollectionConfig;
use gsa_store::SourceDocument;
use gsa_types::SimTime;

fn doc(id: &str) -> SourceDocument {
    SourceDocument::new(id, "content")
}

/// Figure 2 tree, all reliable, all wire-v2 with batching — then
/// `gds-3` is pinned back to v1. Hamilton (gds-4) publishes; watchers
/// sit on gds-2, gds-5 and gds-7 — Berlin's whole delivery path runs
/// through the legacy node.
fn mixed_world(seed: u64) -> (System, Vec<(&'static str, gsa_types::ClientId)>) {
    let mut system = System::new(seed);
    system.set_reliability(ReliabilityConfig);
    system.set_wire(WireConfig::v2_batched(BatchConfig));
    system.add_gds_topology(&figure2_tree());
    system.set_host_wire("gds-3", WireConfig::default());
    system.add_server("Hamilton", "gds-4");
    let watchers = ["London", "Paris", "Berlin"];
    for (host, gds) in watchers.iter().zip(["gds-2", "gds-5", "gds-7"]) {
        system.add_server(host, gds);
    }
    system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
    let mut clients = Vec::new();
    for host in watchers {
        let client = system.add_client(host);
        system
            .subscribe_text(host, client, r#"host = "Hamilton""#)
            .unwrap();
        clients.push((host, client));
    }
    // Setup traffic (registrations, hellos) runs clean.
    system.run_until_quiet(SimTime::from_secs(5));
    (system, clients)
}

#[test]
fn mixed_version_broadcast_is_exactly_once() {
    for seed in [1, 2, 3] {
        let (mut system, clients) = mixed_world(seed);
        system.rebuild("Hamilton", "D", vec![doc("d1")]).unwrap();
        system.rebuild("Hamilton", "D", vec![doc("d2")]).unwrap();
        system.run_until_quiet(SimTime::from_secs(60));
        for (host, client) in clients {
            let inbox = system.take_notifications(host, client);
            assert_eq!(
                inbox.len(),
                2,
                "seed {seed}: {host} must see both events exactly once \
                 across the v1/v2 boundary"
            );
        }
    }
}

#[test]
fn mixed_version_broadcast_survives_loss() {
    for seed in [1, 2, 3] {
        for drop in [0.1, 0.2, 0.3] {
            let (mut system, clients) = mixed_world(seed);
            system.set_drop_probability(drop);
            system.rebuild("Hamilton", "D", vec![doc("d1")]).unwrap();
            system.run_until(SimTime::from_secs(20));
            system.rebuild("Hamilton", "D", vec![doc("d2")]).unwrap();
            system.run_until_quiet(SimTime::from_secs(90));
            for (host, client) in clients {
                let inbox = system.take_notifications(host, client);
                assert_eq!(
                    inbox.len(),
                    2,
                    "seed {seed} drop {drop}: {host} exactly once under loss \
                     in a mixed-version tree"
                );
            }
            assert!(
                system.metrics().counter("net.acks") > 0,
                "reliable edges were exercised"
            );
        }
    }
}

/// The carrier (`SysMessage` variant) of the first frame from `from` to
/// `to` in the simulator's trace whose summary mentions `what`.
fn carrier(system: &System, from: &str, to: &str, what: &str) -> String {
    let sim = system.sim();
    let (from, to) = (sim.node_id(from).unwrap(), sim.node_id(to).unwrap());
    let entry = sim
        .trace()
        .iter()
        .find(|e| e.from == from && e.to == to && e.summary.contains(what))
        .unwrap_or_else(|| panic!("no {what} frame in the trace"));
    entry.summary.split('(').next().unwrap().to_string()
}

/// Hamilton (gds-4) publishes, London (gds-6) watches, every host on
/// wire v2 with reliability; with `lose_start_up`, every frame of the
/// first microsecond — the start-up hellos among them — is dropped.
/// Returns the carriers of Hamilton's publish and of London's delivery,
/// and London's inbox size, for a rebuild 30 s in.
fn start_up_world(seed: u64, lose_start_up: bool) -> (String, String, usize) {
    let mut system = System::new(seed);
    system.set_reliability(ReliabilityConfig);
    system.set_wire(WireConfig::v2());
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("London", "gds-6");
    system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
    let client = system.add_client("London");
    system
        .subscribe_text("London", client, r#"host = "Hamilton""#)
        .unwrap();
    system.sim_mut().enable_trace();
    if lose_start_up {
        system.set_drop_probability(1.0);
        system.run_until(SimTime::from_micros(1));
        system.set_drop_probability(0.0);
    }
    system.run_until(SimTime::from_secs(30));
    system.rebuild("Hamilton", "D", vec![doc("d1")]).unwrap();
    system.run_until_quiet(SimTime::from_secs(60));
    let inbox = system.take_notifications("London", client).len();
    (
        carrier(&system, "Hamilton", "gds-4", "Publish"),
        carrier(&system, "gds-6", "London", "Deliver"),
        inbox,
    )
}

/// A hello and its ack ride plain, so either can be lost. A server
/// whose start-up exchange was lost says hello again on its maintenance
/// tick until the edge to its directory node upgrades: 30 s later its
/// publish and its deliveries travel in binary, as its calm twin's do,
/// not as XML for ever.
#[test]
fn a_server_whose_start_up_hello_is_lost_still_upgrades() {
    for seed in [1, 2, 3] {
        let calm = start_up_world(seed, false);
        assert_eq!(
            calm,
            ("RelGdsBin".to_string(), "RelGdsBin".to_string(), 1),
            "seed {seed}: a calm start-up upgrades both edges"
        );
        assert_eq!(
            start_up_world(seed, true),
            calm,
            "seed {seed}: a lost start-up hello upgrades late, not never"
        );
    }
}
