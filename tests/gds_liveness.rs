//! What tree liveness costs and what it buys, on a reliable Figure-2
//! tree.
//!
//! Every reliable directory node beacons each of its children once per
//! heartbeat interval, and a child that hears no beacon for three
//! intervals re-parents to its grandparent. Three pins: an idle tree
//! pays exactly one liveness frame per edge per interval; a parent taken
//! down for good hands each of its children to the grandparent within
//! four intervals, after which a publish still reaches every watcher
//! exactly once; and light loss alone never moves a child.

use gsa_core::{System, SystemConfig};
use gsa_gds::figure2_tree;
use gsa_greenstone::CollectionConfig;
use gsa_store::SourceDocument;
use gsa_types::{ClientId, HostName, SimDuration, SimTime};

/// Silent heartbeat intervals, a second each, that declare a parent
/// dead.
const MISSES: u64 = 3;

/// The six parent-child edges of Figure 2.
const TREE_EDGES: u64 = 6;

/// Watcher servers and the directory nodes they sit on: one under each
/// child of gds-3 (the parent the reparent pin takes down) and two
/// elsewhere.
const WATCHERS: [(&str, &str); 4] = [
    ("London", "gds-2"),
    ("Paris", "gds-5"),
    ("Oslo", "gds-6"),
    ("Berlin", "gds-7"),
];

/// A reliable Figure-2 tree on the paper's XML wire with pruning off:
/// Hamilton on gds-4 publishes, and every watcher subscribes to it.
/// Runs the set-up until `settle`.
fn reliable_world(seed: u64, settle: SimTime) -> (System, Vec<(&'static str, ClientId)>) {
    let reliable = SystemConfig { reliable: true, ..SystemConfig::default() };
    let mut system = System::with_config(seed, reliable);
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    for (host, gds) in WATCHERS {
        system.add_server(host, gds);
    }
    system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
    let mut clients = Vec::new();
    for (host, _) in WATCHERS {
        let client = system.add_client(host);
        system
            .subscribe_text(host, client, r#"host = "Hamilton""#)
            .unwrap();
        clients.push((host, client));
    }
    system.run_until_quiet(settle);
    (system, clients)
}

fn parent_of(system: &mut System, gds: &str) -> Option<HostName> {
    system.inspect_gds(gds, |node| node.parent().cloned())
}

/// Ten idle seconds on a settled, calm tree send exactly one frame per
/// tree edge per interval — the parent's beacon — and nothing else: no
/// ping, no reply, no ack, no retransmission.
#[test]
fn an_idle_tree_pays_one_liveness_frame_per_edge_per_interval() {
    const SECONDS: u64 = 10;
    let (mut system, _) = reliable_world(1, SimTime::from_secs(5));
    let before = system.metrics().counter("net.sent");
    system.run_for(SimDuration::from_secs(SECONDS));
    let sent = system.metrics().counter("net.sent") - before;
    assert_eq!(
        sent,
        TREE_EDGES * SECONDS,
        "liveness frames in {SECONDS} idle seconds"
    );
    assert_eq!(system.metrics().counter("gds.reparent"), 0);
}

/// gds-3 goes down for good between two ticks. Each of its children,
/// gds-6 and gds-7, re-parents to gds-1 within `MISSES + 1` intervals,
/// and nothing else moves. A publish after that reaches every watcher,
/// the two under the healed edges included, exactly once.
#[test]
fn a_dead_parent_hands_its_children_to_the_grandparent() {
    for seed in [1, 2, 3] {
        let down_at = SimTime::from_millis(5_500);
        let (mut system, clients) = reliable_world(seed, down_at);
        system.set_host_up("gds-3", false);
        let deadline = down_at + SimDuration::from_secs(MISSES + 1);
        while system.now() < deadline {
            system.run_for(SimDuration::from_millis(100));
        }
        for child in ["gds-6", "gds-7"] {
            assert_eq!(
                parent_of(&mut system, child),
                Some(HostName::new("gds-1")),
                "seed {seed}: {child} re-parented within {} intervals",
                MISSES + 1
            );
        }
        for (node, parent) in [("gds-2", "gds-1"), ("gds-4", "gds-1"), ("gds-5", "gds-2")] {
            assert_eq!(parent_of(&mut system, node), Some(HostName::new(parent)));
        }
        assert_eq!(
            system.metrics().counter("gds.reparent"),
            2,
            "seed {seed}: one re-parenting per child of the dead node"
        );

        system
            .rebuild("Hamilton", "D", vec![SourceDocument::new("d1", "content")])
            .unwrap();
        system.run_for(SimDuration::from_secs(30));
        for (host, client) in clients {
            assert_eq!(
                system.take_notifications(host, client).len(),
                1,
                "seed {seed}: {host} sees the rebuild exactly once"
            );
        }
    }
}

/// A minute of idle tree at 2 % loss: beacons are lost now and then, but
/// never three in a row on one edge, so no child takes its live parent
/// for dead.
#[test]
fn light_loss_never_reparents_an_idle_tree() {
    for seed in [1, 2, 3] {
        let (mut system, _) = reliable_world(seed, SimTime::from_secs(5));
        system.set_drop_probability(0.02);
        system.run_for(SimDuration::from_secs(60));
        assert!(
            system.metrics().counter("net.dropped") > 0,
            "seed {seed}: the links lost traffic"
        );
        assert_eq!(
            system.metrics().counter("gds.reparent"),
            0,
            "seed {seed}: no child re-parented"
        );
    }
}
