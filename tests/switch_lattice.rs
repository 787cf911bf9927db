//! The product of the node switches: whatever combination a deployment
//! turns on, every client receives exactly what the paper's
//! configuration delivers.
//!
//! Each switch has its own oracle (`prune_equivalence`,
//! `policy_equivalence`, `probe_equivalence`, the chaos and durability
//! suites), but each of those holds every other switch at one setting.
//! This file runs a pairwise covering array over the six node switches
//! — reliability, wire (v1, v2), pruning, rendezvous,
//! durability and alert policies (none or observe-only) — so every pair
//! of values meets in some cell. Each cell runs a Figure-2 broadcast and
//! a Figure-3 auxiliary rewrite on calm links over three seeds, and its
//! per-client list of (root event, origin) pairs must equal the all-off
//! cell's. A last pass over the cells pins what each actor takes from
//! the cell's wire — whether events share a frame — from the first
//! frame on, through a node bounce and a re-parenting.

use gsa_core::{AlertPolicyConfig, ReliabilityConfig, System, WireConfig};
use gsa_gds::figure2_tree;
use gsa_greenstone::{CollectionConfig, SubCollectionRef};
use gsa_simnet::TraceEntry;
use gsa_store::SourceDocument;
use gsa_types::{ClientId, CollectionId, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

const SEEDS: [u64; 3] = [1, 2, 3];

/// The two wires a deployment can run.
#[derive(Debug, Clone, Copy)]
enum Wire {
    V1,
    V2,
}

/// One setting of the six node switches.
#[derive(Debug, Clone, Copy)]
struct Cell {
    reliable: bool,
    wire: Wire,
    pruning: bool,
    rendezvous: bool,
    durable: bool,
    policies: bool,
}

const fn cell(
    reliable: bool,
    wire: Wire,
    pruning: bool,
    rendezvous: bool,
    durable: bool,
    policies: bool,
) -> Cell {
    Cell {
        reliable,
        wire,
        pruning,
        rendezvous,
        durable,
        policies,
    }
}

/// A pairwise covering array: the all-off reference first, then seven
/// cells that with it cover every pair of switch values, the last of
/// them everything on (what `production_churn` deploys).
const CELLS: [Cell; 8] = [
    cell(false, Wire::V1, false, false, false, false),
    cell(true, Wire::V1, true, true, true, true),
    cell(false, Wire::V2, true, false, false, true),
    cell(true, Wire::V2, false, true, true, false),
    cell(true, Wire::V2, true, false, false, false),
    cell(false, Wire::V2, false, false, true, true),
    cell(false, Wire::V2, true, true, false, true),
    cell(true, Wire::V2, true, true, true, true),
];

/// A cell's value of each switch, in `Cell`'s field order.
fn values(c: &Cell) -> [u8; 6] {
    [
        c.reliable as u8,
        c.wire as u8,
        c.pruning as u8,
        c.rendezvous as u8,
        c.durable as u8,
        c.policies as u8,
    ]
}

#[test]
fn the_cells_cover_every_pair_of_switch_values() {
    let mut levels = vec![BTreeSet::new(); 6];
    let mut met = BTreeSet::new();
    for v in CELLS.iter().map(values) {
        for i in 0..6 {
            levels[i].insert(v[i]);
            for j in i + 1..6 {
                met.insert((i, v[i], j, v[j]));
            }
        }
    }
    let sizes: Vec<usize> = levels.iter().map(BTreeSet::len).collect();
    assert_eq!(
        sizes,
        [2; 6],
        "every value of every switch appears"
    );
    let pairs: usize = (0..6)
        .flat_map(|i| (i + 1..6).map(move |j| (i, j)))
        .map(|(i, j)| sizes[i] * sizes[j])
        .sum();
    assert_eq!(met.len(), pairs, "every pair of values meets in some cell");
}

/// A deployment of `cell` with the Figure-2 tree in place.
fn deploy(seed: u64, c: &Cell) -> System {
    let mut system = System::new(seed);
    if c.reliable {
        system.set_reliability(ReliabilityConfig);
    }
    system.set_wire(match c.wire {
        Wire::V1 => WireConfig::default(),
        Wire::V2 => WireConfig::v2(),
    });
    system.set_pruning(c.pruning);
    system.set_rendezvous(c.rendezvous);
    system.set_durability(c.durable);
    system.set_alert_policies(c.policies.then(AlertPolicyConfig::observe_only));
    system.add_gds_topology(&figure2_tree());
    system
}

fn doc(id: &str) -> SourceDocument {
    SourceDocument::new(id, "fresh content")
}

/// Per watching host, the (root event, origin) of every notification
/// its client received, sorted: a duplicate shows as a repeat.
type Delivered = BTreeMap<&'static str, Vec<(String, String)>>;

fn watch(system: &mut System, watchers: &[(&'static str, &str)]) -> Vec<(&'static str, ClientId)> {
    watchers
        .iter()
        .map(|&(host, profile)| {
            let client = system.add_client(host);
            system.subscribe_text(host, client, profile).unwrap();
            (host, client)
        })
        .collect()
}

fn drain(system: &mut System, clients: &[(&'static str, ClientId)]) -> Delivered {
    clients
        .iter()
        .map(|&(host, client)| {
            let mut got: Vec<(String, String)> = system
                .take_notifications(host, client)
                .into_iter()
                .map(|n| (n.event.root.to_string(), n.event.origin.to_string()))
                .collect();
            got.sort();
            (host, got)
        })
        .collect()
}

/// Figure-2 broadcast: publishers on two branches, watchers with
/// host-, collection- and kind-anchored and never-matching profiles
/// across the rest of the tree, three rebuilds.
fn broadcast(seed: u64, c: &Cell) -> Delivered {
    let (mut system, clients) = run_broadcast(seed, c);
    drain(&mut system, &clients)
}

/// The deployment after [`broadcast`]'s run, with its watchers.
fn run_broadcast(seed: u64, c: &Cell) -> (System, Vec<(&'static str, ClientId)>) {
    let mut system = deploy(seed, c);
    for (host, gds) in [
        ("Hamilton", "gds-4"),
        ("London", "gds-2"),
        ("Paris", "gds-5"),
        ("Berlin", "gds-3"),
        ("Oslo", "gds-6"),
        ("Madrid", "gds-7"),
    ] {
        system.add_server(host, gds);
    }
    system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
    system.add_collection("London", CollectionConfig::simple("E", "e"));
    let clients = watch(
        &mut system,
        &[
            ("Paris", r#"host = "Hamilton""#),
            ("Berlin", r#"collection = "London.E""#),
            ("Oslo", r#"kind = "collection-rebuilt""#),
            ("Madrid", r#"host = "Nowhere""#),
        ],
    );
    system.run_until_quiet(SimTime::from_secs(5));
    system.rebuild("Hamilton", "D", vec![doc("d1")]).unwrap();
    system.run_until(SimTime::from_secs(20));
    system.rebuild("London", "E", vec![doc("e1")]).unwrap();
    system.run_until(SimTime::from_secs(35));
    system.rebuild("Hamilton", "D", vec![doc("d2")]).unwrap();
    system.run_until_quiet(SimTime::from_secs(120));
    (system, clients)
}

/// Figure-3 auxiliary rewrite: Hamilton.D includes London.E, so one
/// rebuild of E is announced under both origins.
fn aux_rewrite(seed: u64, c: &Cell) -> Delivered {
    let mut system = deploy(seed, c);
    for (host, gds) in [
        ("Hamilton", "gds-4"),
        ("London", "gds-2"),
        ("Berlin", "gds-3"),
        ("Paris", "gds-5"),
        ("Madrid", "gds-7"),
    ] {
        system.add_server(host, gds);
    }
    system.add_collection("London", CollectionConfig::simple("E", "E"));
    system.add_collection(
        "Hamilton",
        CollectionConfig::simple("D", "D")
            .with_subcollection(SubCollectionRef::new("e", CollectionId::new("London", "E"))),
    );
    let clients = watch(
        &mut system,
        &[
            ("Berlin", r#"collection = "Hamilton.D""#),
            ("Paris", r#"collection = "London.E""#),
            ("Madrid", r#"host = "Nowhere""#),
        ],
    );
    system.run_until_quiet(SimTime::from_secs(5));
    system.rebuild("London", "E", vec![doc("e1")]).unwrap();
    system.run_until_quiet(SimTime::from_secs(90));
    drain(&mut system, &clients)
}

/// Every cell delivers what the all-off cell delivers, on every seed;
/// `expected` pins the all-off cell's per-host counts so the comparison
/// is not between two empty runs.
fn every_cell_matches(world: fn(u64, &Cell) -> Delivered, expected: &[(&str, usize)]) {
    for seed in SEEDS {
        let reference = world(seed, &CELLS[0]);
        let counts: Vec<(&str, usize)> = reference.iter().map(|(h, d)| (*h, d.len())).collect();
        let mut want = expected.to_vec();
        want.sort();
        assert_eq!(counts, want, "seed {seed}: the all-off cell");
        for c in &CELLS[1..] {
            assert_eq!(world(seed, c), reference, "seed {seed}, {c:?}");
        }
    }
}

#[test]
fn every_cell_delivers_the_paper_broadcast() {
    every_cell_matches(
        broadcast,
        &[("Paris", 2), ("Berlin", 1), ("Oslo", 3), ("Madrid", 0)],
    );
}

/// Rendezvous without pruning is the paper's flood: with pruning off no
/// summary is ever announced, so no grant is ever issued. On the
/// Figure-2 broadcast that cell sends the all-off cell's GDS frames,
/// frame for frame and byte for byte.
#[test]
fn rendezvous_without_pruning_sends_the_flood_frames() {
    let all_off = CELLS[0];
    let rendezvous_only = Cell { rendezvous: true, ..all_off };
    for seed in SEEDS {
        let sent = |c: &Cell| {
            let (system, _) = run_broadcast(seed, c);
            ["gds.messages", "net.sent", "net.bytes_sent"].map(|k| system.metrics().counter(k))
        };
        let flood = sent(&all_off);
        assert!(flood[0] > 0, "seed {seed}: the broadcast floods");
        assert_eq!(sent(&rendezvous_only), flood, "seed {seed}");
    }
}

#[test]
fn every_cell_delivers_the_paper_aux_rewrite() {
    every_cell_matches(aux_rewrite, &[("Berlin", 1), ("Paris", 1), ("Madrid", 0)]);
}

/// Every GDS frame the trace holds from `since` on.
fn gds_frames(system: &System, since: SimTime) -> Vec<&TraceEntry> {
    system
        .sim()
        .trace()
        .iter()
        .filter(|e| e.at >= since)
        .filter(|e| e.summary.starts_with("Gds(") || e.summary.starts_with("RelGds("))
        .collect()
}

/// The GDS frames from `since` on that carry a `Batch`.
fn batches(system: &System, since: SimTime) -> Vec<&TraceEntry> {
    let mut frames = gds_frames(system, since);
    frames.retain(|e| e.summary.contains("Batch("));
    frames
}

/// Two rebuilds of Hamilton.D in one instant: two event frames for the
/// server's transport to send in that instant.
fn rebuild_twice(system: &mut System, docs: [&str; 2]) {
    for id in docs {
        system.rebuild("Hamilton", "D", vec![doc(id)]).unwrap();
    }
}

/// The wire is a fact each actor is built with, and what an actor
/// still takes from it is how many events a frame carries. On v2 cells,
/// two rebuilds in one instant leave Hamilton as a `Batch` frame and
/// reach every watcher in one from its directory node; on XML cells,
/// which have no `gds:batch`, no traced frame is a `Batch`. Pinned from
/// the very first frame — a server's registration included — on calm
/// links, after gds-5 bounces, and (reliable cells) after gds-3 goes
/// down for good and its children re-parent to gds-1, the `Adopt` that
/// opens the new edge included.
#[test]
fn every_gds_frame_rides_the_cells_wire_from_the_first_frame() {
    let watchers = ["Paris", "Oslo", "Berlin"];
    for seed in SEEDS {
        for c in &CELLS {
            let mut system = deploy(seed, c);
            system.sim_mut().enable_trace();
            for (host, gds) in [
                ("Hamilton", "gds-4"),
                ("Paris", "gds-5"),
                ("Oslo", "gds-6"),
                ("Berlin", "gds-7"),
            ] {
                system.add_server(host, gds);
            }
            system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
            let profile = r#"host = "Hamilton""#;
            watch(
                &mut system,
                &[("Paris", profile), ("Oslo", profile), ("Berlin", profile)],
            );
            system.run_until_quiet(SimTime::from_secs(5));
            let calm = system.now();
            rebuild_twice(&mut system, ["d1", "d2"]);
            system.run_until(SimTime::from_secs(10));

            let bounced = system.now();
            system.set_host_up("gds-5", false);
            system.run_for(SimDuration::from_millis(50));
            system.set_host_up("gds-5", true);
            rebuild_twice(&mut system, ["d3", "d4"]);
            system.run_until(SimTime::from_secs(20));

            let reparented = system.now();
            if c.reliable {
                system.set_host_up("gds-3", false);
                system.run_for(SimDuration::from_secs(5));
                assert_eq!(
                    system.metrics().counter("gds.reparent"),
                    2,
                    "seed {seed}, {c:?}: gds-6 and gds-7 re-parent"
                );
            }
            rebuild_twice(&mut system, ["d5", "d6"]);
            system.run_until_quiet(SimTime::from_secs(60));

            let node = |host: &str| system.sim().node_id(host).expect("a node");
            assert!(
                gds_frames(&system, SimTime::ZERO)
                    .iter()
                    .any(|e| e.summary.contains("Register")),
                "seed {seed}, {c:?}: the registrations are traced"
            );
            let after = |since: SimTime, what: &str| {
                gds_frames(&system, since)
                    .iter()
                    .any(|e| e.summary.contains(what))
            };
            assert!(
                after(bounced, "Deliver"),
                "seed {seed}, {c:?}: a delivery after the bounce"
            );
            if c.reliable {
                assert!(after(reparented, "Adopt"), "seed {seed}, {c:?}: the adopts");
                assert!(
                    after(reparented, "Deliver"),
                    "seed {seed}, {c:?}: a delivery after the re-parenting"
                );
            }
            match c.wire {
                Wire::V1 => {
                    let batch = batches(&system, SimTime::ZERO).first().copied();
                    assert!(batch.is_none(), "seed {seed}, {c:?}: {batch:?} on XML");
                }
                Wire::V2 => {
                    let phases = [("calm", calm), ("bounce", bounced), ("re-parent", reparented)];
                    for (phase, since) in phases {
                        let sent = batches(&system, since);
                        assert!(
                            sent.iter().any(|e| e.from == node("Hamilton")),
                            "seed {seed}, {c:?}, {phase}: Hamilton sends a batch"
                        );
                        for watcher in watchers {
                            assert!(
                                sent.iter().any(|e| e.to == node(watcher)),
                                "seed {seed}, {c:?}, {phase}: {watcher} receives a batch"
                            );
                        }
                    }
                }
            }
        }
    }
}
