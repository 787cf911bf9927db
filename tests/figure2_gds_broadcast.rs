//! Integration test F2: the exact Figure 2 scenario — seven GDS nodes on
//! three strata, solitary Greenstone servers, event flooding up and down
//! the tree with exactly-once delivery.

use gsa_core::System;
use gsa_gds::figure2_tree;
use gsa_greenstone::CollectionConfig;
use gsa_store::SourceDocument;
use gsa_types::{ClientId, SimTime};

const SERVERS: [(&str, &str); 7] = [
    ("Hamilton", "gds-4"),
    ("London", "gds-2"),
    ("Auckland", "gds-1"),
    ("Berlin", "gds-3"),
    ("Cairo", "gds-5"),
    ("Delhi", "gds-6"),
    ("Edmonton", "gds-7"),
];

fn figure2_world(seed: u64) -> System {
    let mut system = System::new(seed);
    system.add_gds_topology(&figure2_tree());
    for (host, gds) in SERVERS {
        system.add_server(host, gds);
    }
    system.add_collection("Hamilton", CollectionConfig::simple("news", "news"));
    system.run_until_quiet(SimTime::from_secs(5));
    system
}

#[test]
fn broadcast_reaches_every_server_exactly_once() {
    let mut system = figure2_world(1);
    let mut clients = Vec::new();
    for (host, _) in SERVERS.iter().skip(1) {
        let client = system.add_client(host);
        system
            .subscribe_text(host, client, r#"host = "Hamilton""#)
            .unwrap();
        clients.push((host, client));
    }
    system
        .rebuild("Hamilton", "news", vec![SourceDocument::new("n1", "x")])
        .unwrap();
    system.run_until_quiet(SimTime::from_secs(60));
    for (host, client) in clients {
        let inbox = system.take_notifications(host, client);
        assert_eq!(inbox.len(), 1, "{host} must be notified exactly once");
    }
}

#[test]
fn publisher_does_not_hear_its_own_broadcast() {
    let mut system = figure2_world(2);
    let client = system.add_client("Hamilton");
    system
        .subscribe_text("Hamilton", client, r#"host = "Hamilton""#)
        .unwrap();
    system
        .rebuild("Hamilton", "news", vec![SourceDocument::new("n1", "x")])
        .unwrap();
    system.run_until_quiet(SimTime::from_secs(60));
    // The publisher's own clients are notified by *local* filtering, not
    // by a GDS echo — still exactly once.
    let inbox = system.take_notifications("Hamilton", client);
    assert_eq!(inbox.len(), 1);
}

#[test]
fn broadcast_cost_is_bounded_by_tree_size() {
    let mut system = figure2_world(3);
    system.run_until_quiet(SimTime::from_secs(5));
    let before = system.metrics().counter("net.sent");
    system
        .rebuild("Hamilton", "news", vec![SourceDocument::new("n1", "x")])
        .unwrap();
    system.run_until_quiet(SimTime::from_secs(60));
    let sent = system.metrics().counter("net.sent") - before;
    // 1 publish + one Broadcast per tree edge (6 edges, each crossed
    // once) + 6 deliveries = 13 messages.
    assert_eq!(sent, 13, "flooding must traverse each tree edge exactly once");
}

#[test]
fn two_publishers_do_not_interfere() {
    let mut system = figure2_world(4);
    system.add_collection("London", CollectionConfig::simple("arts", "arts"));
    let c1 = system.add_client("Cairo");
    system
        .subscribe_text("Cairo", c1, r#"collection = "Hamilton.news""#)
        .unwrap();
    let c2 = system.add_client("Cairo");
    system
        .subscribe_text("Cairo", c2, r#"collection = "London.arts""#)
        .unwrap();
    system
        .rebuild("Hamilton", "news", vec![SourceDocument::new("n1", "x")])
        .unwrap();
    system
        .rebuild("London", "arts", vec![SourceDocument::new("a1", "y")])
        .unwrap();
    system.run_until_quiet(SimTime::from_secs(60));
    let inbox1 = system.take_notifications("Cairo", c1);
    let inbox2 = system.take_notifications("Cairo", c2);
    assert_eq!(inbox1.len(), 1);
    assert_eq!(inbox2.len(), 1);
    assert_eq!(inbox1[0].event.origin.to_string(), "Hamilton.news");
    assert_eq!(inbox2[0].event.origin.to_string(), "London.arts");
}

#[test]
fn downed_gds_node_loses_its_subtree_only() {
    let mut system = figure2_world(5);
    let mut clients = Vec::new();
    for (host, _) in SERVERS.iter().skip(1) {
        let client = system.add_client(host);
        system
            .subscribe_text(host, client, r#"host = "Hamilton""#)
            .unwrap();
        clients.push((*host, client));
    }
    // gds-3 down: Berlin (at gds-3), Delhi (gds-6) and Edmonton (gds-7)
    // are cut off from broadcasts; everyone else still hears.
    let gds3 = system.sim().node_id("gds-3").unwrap();
    system.sim_mut().set_node_up(gds3, false);
    system
        .rebuild("Hamilton", "news", vec![SourceDocument::new("n1", "x")])
        .unwrap();
    system.run_until_quiet(SimTime::from_secs(60));
    for (host, client) in clients {
        let inbox = system.take_notifications(host, ClientId::from_raw(client.as_u64()));
        let expected = match host {
            "Berlin" | "Delhi" | "Edmonton" => 0, // best-effort: lost
            _ => 1,
        };
        assert_eq!(inbox.len(), expected, "unexpected inbox at {host}");
    }
}
