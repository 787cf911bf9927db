//! Experiment E6-prune — flood cost under three delivery modes:
//! {clustered, uniform} watcher locality × tree size × {flood,
//! attr-prune, rendezvous}.
//!
//! Each cell attaches one watcher server per directory node and a
//! publisher at the deepest node, floods a `documents-added` event
//! storm three times — the paper's full GDS flood, interest summaries
//! (anchors plus attribute digests), and summaries plus rendezvous
//! routing — and compares messages
//! per event, bytes per event and mean delivery latency. Watchers come
//! in three classes: *matching* (anchored to the publisher and to the
//! storm's event kind), *wrong-attribute* (anchored to the publisher
//! but tightened to a kind the storm never produces — prunable by
//! the summaries' digests, not by their anchors), and *uninterested* (anchored to a
//! host that never publishes). Interest locality is either *clustered*
//! (matching watchers fill exactly the root-child subtree holding the
//! publisher, making that subtree a rendezvous candidate) or *uniform*
//! (matching watchers alternate across the whole tree, so no subtree
//! is exclusive and rendezvous cannot engage).
//!
//! Every cell is pinned to its flood twin: the per-watcher
//! notification counts must be identical (zero false negatives, zero
//! new deliveries) before a number is reported.
//!
//! Writes `BENCH_e6_prune.json` in the working directory. `--smoke`
//! runs the figure-2 tree only, 16 events per cell, for CI.

use gsa_bench::Table;
use gsa_core::System;
use gsa_gds::{balanced_tree, figure2_tree, GdsMessage, GdsTopology};
use gsa_types::{
    keys, CollectionId, DocSummary, Event, EventId, EventKind, HostName, MessageId,
    MetadataRecord, SimDuration, SimTime,
};
use gsa_wire::codec::event_to_xml;
use gsa_wire::Payload;
use std::fmt::Write as _;

/// One swept tree. `events` is per-cell storm size — smaller for the
/// scale row so the sweep stays minutes, not hours.
struct Tree {
    label: &'static str,
    topo: GdsTopology,
    depth: u8,
    events: usize,
    /// Scale rows only run the clustered cell (the uniform twin adds
    /// no information at 1000 nodes: rendezvous provably cannot engage).
    clustered_only: bool,
}

fn trees(smoke: bool) -> Vec<Tree> {
    if smoke {
        return vec![Tree {
            label: "figure2",
            topo: figure2_tree(),
            depth: 3,
            events: 16,
            clustered_only: false,
        }];
    }
    vec![
        Tree {
            label: "figure2",
            topo: figure2_tree(),
            depth: 3,
            events: 200,
            clustered_only: false,
        },
        Tree {
            label: "bal-2x4",
            topo: balanced_tree(2, 4),
            depth: 4,
            events: 200,
            clustered_only: false,
        },
        Tree {
            label: "bal-3x4",
            topo: balanced_tree(3, 4),
            depth: 4,
            events: 200,
            clustered_only: false,
        },
        Tree {
            label: "bal-3x7",
            topo: balanced_tree(3, 7),
            depth: 7,
            events: 32,
            clustered_only: true,
        },
    ]
}

#[derive(Clone, Copy, PartialEq)]
enum Locality {
    /// Matching watchers fill exactly the root-child subtree that
    /// holds the publisher; the rest of the tree splits between
    /// wrong-attribute and uninterested watchers.
    Clustered,
    /// Matching watchers alternate across the spec order, so every
    /// subtree holds at least some matching interest.
    Uniform,
}

impl Locality {
    fn label(self) -> &'static str {
        match self {
            Locality::Clustered => "clustered",
            Locality::Uniform => "uniform",
        }
    }
}

/// The three delivery modes, each layered on the previous one.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// The paper's full flood — no summaries at all.
    Flood,
    /// Interest summaries: anchors plus attribute digests.
    AttrPrune,
    /// Attribute summaries plus rendezvous routing.
    Rendezvous,
}

const MODES: [Mode; 3] = [Mode::Flood, Mode::AttrPrune, Mode::Rendezvous];

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Flood => "flood",
            Mode::AttrPrune => "attr-prune",
            Mode::Rendezvous => "rendezvous",
        }
    }

    fn configure(self, system: &mut System) {
        match self {
            Mode::Flood => {}
            Mode::AttrPrune => system.set_pruning(true),
            Mode::Rendezvous => {
                system.set_pruning(true);
                system.set_rendezvous(true);
            }
        }
    }
}

/// What one watcher subscribes to.
#[derive(Clone, Copy, PartialEq)]
enum Want {
    /// Anchored to the publisher and to the storm's event kind.
    Match,
    /// Anchored to the publisher but tightened to a kind the storm
    /// never produces — anchors alone cannot prune this watcher.
    WrongAttr,
    /// Anchored to a host that never publishes.
    Nothing,
}

impl Want {
    fn profile(self) -> &'static str {
        match self {
            Want::Match => r#"host = "Hamilton" AND kind = "documents-added""#,
            Want::WrongAttr => r#"host = "Hamilton" AND kind = "collection-rebuilt""#,
            Want::Nothing => r#"host = "Nowhere" AND kind = "collection-rebuilt""#,
        }
    }
}

/// The same realistic import payload the wire benchmark floods, issued
/// at the injection instant so delivery latency is measurable.
fn event_payload(publisher: &HostName, seq: u64, issued_at: SimTime) -> Payload {
    let mut md = MetadataRecord::new();
    md.add(keys::TITLE, format!("Bulk import {seq}"));
    md.add(keys::CREATOR, "Witten, I.");
    let event = Event::new(
        EventId::new(publisher.clone(), seq),
        CollectionId::new(publisher.clone(), "D"),
        EventKind::DocumentsAdded,
        issued_at,
    )
    .with_docs(vec![DocSummary::new(format!("doc-{seq}"))
        .with_metadata(md)
        .with_excerpt("an excerpt of the imported document text")]);
    Payload::from(event_to_xml(&event))
}

/// The deepest directory node — where the publisher attaches.
fn deepest_node(topo: &GdsTopology) -> HostName {
    topo.specs()
        .iter()
        .max_by_key(|s| s.stratum)
        .expect("non-empty tree")
        .name
        .clone()
}

/// Assigns every non-publisher node a watcher class per the locality.
fn watcher_classes(topo: &GdsTopology, locality: Locality) -> Vec<(HostName, Want)> {
    let deepest = deepest_node(topo);
    let cluster: Vec<HostName> = match locality {
        Locality::Clustered => {
            let root = topo
                .specs()
                .iter()
                .find(|s| s.parent.is_none())
                .expect("rooted tree")
                .name
                .clone();
            topo.specs()
                .iter()
                .filter(|s| s.parent.as_ref() == Some(&root))
                .map(|s| topo.subtree_of(&s.name))
                .find(|subtree| subtree.contains(&deepest))
                .expect("publisher sits under some root child")
        }
        Locality::Uniform => Vec::new(),
    };
    topo.specs()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name != deepest)
        .map(|(i, s)| {
            let want = match locality {
                Locality::Clustered if cluster.contains(&s.name) => Want::Match,
                Locality::Clustered if i % 2 == 0 => Want::WrongAttr,
                Locality::Clustered => Want::Nothing,
                Locality::Uniform if i % 2 == 0 => Want::Match,
                Locality::Uniform if i % 4 == 1 => Want::WrongAttr,
                Locality::Uniform => Want::Nothing,
            };
            (s.name.clone(), want)
        })
        .collect()
}

struct Cell {
    notifications: usize,
    /// Per-watcher notification counts, in spec order — the delivery
    /// set every other mode must reproduce exactly.
    per_watcher: Vec<(String, usize)>,
    messages: u64,
    msgs_per_event: f64,
    bytes_per_event: f64,
    /// Mean publish-to-notification latency in milliseconds.
    latency_ms: f64,
    pruned_edges: u64,
    summary_updates: u64,
    confined: u64,
    grants: u64,
}

/// Runs one cell: the same workload under one delivery mode.
fn run_cell(tree: &Tree, locality: Locality, mode: Mode) -> Cell {
    let events = tree.events;
    let mut system = System::new(611);
    mode.configure(&mut system);
    system.add_gds_topology(&tree.topo);

    let deepest = deepest_node(&tree.topo);
    let publisher = HostName::new("Hamilton");
    system.add_server(publisher.as_str(), deepest.as_str());

    let classes = watcher_classes(&tree.topo, locality);
    let mut watchers = Vec::new();
    for (node, want) in &classes {
        let host = format!("watcher-{}", node.as_str());
        system.add_server(&host, node.as_str());
        let client = system.add_client(&host);
        system
            .subscribe_text(&host, client, want.profile())
            .expect("valid profile");
        watchers.push((host, client, *want));
    }
    // Settle registrations, the interest-summary exchange and (in
    // rendezvous mode) the grant election.
    system.run_until_quiet(SimTime::from_secs(10));

    let publisher_node = system
        .sim()
        .node_id(publisher.as_str())
        .expect("publisher registered");
    let origin_node = system.sim().node_id(deepest.as_str()).expect("gds node");
    let sent_before = system.metrics().counter("net.sent");
    let bytes_before = system.metrics().counter("net.bytes");
    let pruned_before = system.metrics().counter("gds.pruned_edges");
    let confined_before = system.metrics().counter("gds.rendezvous_confined");

    let mut seq = 0u64;
    while (seq as usize) < events {
        for _ in 0..8 {
            if seq as usize >= events {
                break;
            }
            seq += 1;
            let payload = event_payload(&publisher, seq, system.now());
            system.sim_mut().inject(
                publisher_node,
                origin_node,
                gsa_core::SysMessage::Gds(GdsMessage::Publish {
                    id: MessageId::from_raw(seq),
                    payload,
                }),
            );
        }
        let next = system.now() + SimDuration::from_millis(10);
        system.run_until(next);
    }
    let drain = system.now() + SimDuration::from_secs(5);
    system.run_until_quiet(drain);

    let mut notifications = 0usize;
    let mut per_watcher = Vec::new();
    let mut latency_total = 0.0f64;
    for (host, client, want) in &watchers {
        let got = system.take_notifications(host, *client);
        let expected = if *want == Want::Match { events } else { 0 };
        assert_eq!(
            got.len(),
            expected,
            "cell {}/{}/{}: watcher {host} expected {expected} notifications",
            tree.label,
            locality.label(),
            mode.label(),
        );
        for n in &got {
            latency_total += (n.at - n.event.issued_at).as_secs_f64() * 1_000.0;
        }
        notifications += got.len();
        per_watcher.push((host.clone(), got.len()));
    }

    let messages = system.metrics().counter("net.sent") - sent_before;
    let bytes = system.metrics().counter("net.bytes") - bytes_before;
    Cell {
        notifications,
        per_watcher,
        messages,
        msgs_per_event: messages as f64 / events as f64,
        bytes_per_event: bytes as f64 / events as f64,
        latency_ms: latency_total / (notifications.max(1) as f64),
        pruned_edges: system.metrics().counter("gds.pruned_edges") - pruned_before,
        summary_updates: system.metrics().counter("gds.summary_updates"),
        confined: system.metrics().counter("gds.rendezvous_confined") - confined_before,
        grants: system.metrics().counter("gds.rendezvous_grants"),
    }
}

struct Row {
    tree: &'static str,
    nodes: usize,
    depth: u8,
    locality: &'static str,
    events: usize,
    /// Cells in MODES order: flood, attr-prune, rendezvous.
    cells: Vec<Cell>,
}

impl Row {
    fn cell(&self, mode: Mode) -> &Cell {
        &self.cells[MODES.iter().position(|m| *m == mode).expect("known mode")]
    }

    fn reduction(&self, mode: Mode) -> f64 {
        1.0 - self.cell(mode).messages as f64 / self.cell(Mode::Flood).messages as f64
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    println!("E6-prune: flood cost under three delivery modes");
    println!("    one watcher server per directory node; storm kind = documents-added");
    println!();

    let mut rows: Vec<Row> = Vec::new();
    for tree in trees(smoke) {
        for locality in [Locality::Clustered, Locality::Uniform] {
            if tree.clustered_only && locality != Locality::Clustered {
                continue;
            }
            let cells: Vec<Cell> = MODES
                .iter()
                .map(|mode| run_cell(&tree, locality, *mode))
                .collect();
            // The oracle pin: no mode may change a single watcher's
            // delivery count.
            for (mode, cell) in MODES.iter().zip(&cells) {
                assert_eq!(
                    cells[0].per_watcher,
                    cell.per_watcher,
                    "{}/{}: {} deliveries diverged from the full flood",
                    tree.label,
                    locality.label(),
                    mode.label(),
                );
            }
            rows.push(Row {
                tree: tree.label,
                nodes: tree.topo.len(),
                depth: tree.depth,
                locality: locality.label(),
                events: tree.events,
                cells,
            });
        }
    }

    let mut table = Table::new(vec![
        "tree", "nodes", "locality", "events", "flood-m/ev", "attr-m/ev",
        "rdv-m/ev", "rdv-kB/ev", "lat-ms", "edges-cut", "confined", "red-attr", "red-rdv",
    ]);
    for r in &rows {
        table.row(vec![
            r.tree.to_string(),
            r.nodes.to_string(),
            r.locality.to_string(),
            r.events.to_string(),
            format!("{:.1}", r.cell(Mode::Flood).msgs_per_event),
            format!("{:.1}", r.cell(Mode::AttrPrune).msgs_per_event),
            format!("{:.1}", r.cell(Mode::Rendezvous).msgs_per_event),
            format!("{:.1}", r.cell(Mode::Rendezvous).bytes_per_event / 1024.0),
            format!("{:.1}", r.cell(Mode::Rendezvous).latency_ms),
            r.cell(Mode::AttrPrune).pruned_edges.to_string(),
            r.cell(Mode::Rendezvous).confined.to_string(),
            format!("{:.0}%", 100.0 * r.reduction(Mode::AttrPrune)),
            format!("{:.0}%", 100.0 * r.reduction(Mode::Rendezvous)),
        ]);
    }
    println!("{table}");

    for r in &rows {
        let flood = r.cell(Mode::Flood);
        let attr = r.cell(Mode::AttrPrune);
        let rdv = r.cell(Mode::Rendezvous);
        // Monotone layering, everywhere: each mode may never cost
        // messages over the one below it.
        assert!(
            attr.messages <= flood.messages,
            "{}/{}: pruning may never cost messages over the flood",
            r.tree,
            r.locality,
        );
        assert!(
            rdv.messages <= attr.messages,
            "{}/{}: rendezvous may never cost messages over attr-prune",
            r.tree,
            r.locality,
        );
        if r.locality == "clustered" {
            // Strict where the workload is shaped for it: the
            // rendezvous point confines the hot subgroup's events to
            // its subtree.
            assert!(
                rdv.messages < attr.messages,
                "{}/clustered: rendezvous must strictly out-prune attr digests \
                 ({} vs {})",
                r.tree,
                rdv.messages,
                attr.messages,
            );
            assert!(
                rdv.confined > 0 && rdv.grants > 0,
                "{}/clustered: the rendezvous machinery must actually engage",
                r.tree,
            );
            // The headline claim: clustered interest at depth >= 3
            // saves at least 30% of flood messages without losing a
            // delivery.
            if r.depth >= 3 {
                assert!(
                    r.reduction(Mode::AttrPrune) >= 0.30,
                    "{}/clustered: reduction {:.0}% below the 30% bar",
                    r.tree,
                    100.0 * r.reduction(Mode::AttrPrune),
                );
            }
        }
        assert_eq!(flood.confined, 0, "{}: flood mode never confines", r.tree);
        assert_eq!(attr.confined, 0, "{}: attr mode never confines", r.tree);
    }
    println!("clustered cells: rdv < attr < flood, all strict; 30% bar clear");

    if !smoke {
        let json = render_json(&rows);
        let path = "BENCH_e6_prune.json";
        std::fs::write(path, &json).expect("write BENCH_e6_prune.json");
        println!("\nwrote {path}");
    }
}

fn render_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e6_prune_efficiency\",\n");
    out.push_str("  \"modes\": [\"flood\", \"attr_prune\", \"rendezvous\"],\n");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"tree\": \"{}\", \"nodes\": {}, \"depth\": {}, \"locality\": \"{}\", \
             \"events\": {}, \"notifications\": {},",
            r.tree, r.nodes, r.depth, r.locality, r.events, r.cells[0].notifications,
        );
        for (mode, key) in MODES.iter().zip(["flood", "attr_prune", "rendezvous"]) {
            let c = r.cell(*mode);
            let _ = writeln!(
                out,
                "     \"{key}\": {{\"messages\": {}, \"msgs_per_event\": {:.2}, \
                 \"bytes_per_event\": {:.0}, \"latency_ms\": {:.2}, \"pruned_edges\": {}, \
                 \"summary_updates\": {}, \"confined\": {}, \"grants\": {}}},",
                c.messages,
                c.msgs_per_event,
                c.bytes_per_event,
                c.latency_ms,
                c.pruned_edges,
                c.summary_updates,
                c.confined,
                c.grants,
            );
        }
        let _ = writeln!(
            out,
            "     \"reduction_attr\": {:.3}, \"reduction_rendezvous\": {:.3}, \
             \"false_negatives\": 0}}{}",
            r.reduction(Mode::AttrPrune),
            r.reduction(Mode::Rendezvous),
            comma,
        );
    }
    out.push_str("  ]\n}\n");
    out
}
