//! Exactly-once GDS broadcast over lossy trees.
//!
//! Property exercised across a grid of seeds × drop probabilities (up to
//! the 0.3 the chaos experiments use): with the reliability layer on,
//! every subscriber sees every event exactly once — no loss-induced
//! false negatives, no retransmission-induced duplicates — and the
//! repair work is visible in the `net.retransmits` / `net.acks`
//! counters. Three more pins hold the repair to its cost: on calm links
//! nothing is retransmitted or probed; at light loss a lost frame delays
//! a notification by about a round trip, not by a retransmission
//! timeout; and so does a frame lost at the tail of a burst or in its
//! own retransmission. A last pin holds a publisher's burst to its
//! batches: on v2 its events leave the server eight to a frame, while a
//! lone publish leaves in the instant it was made.

use gsa_core::{InterestMode, System, SystemConfig, WireFormat};
use gsa_gds::figure2_tree;
use gsa_greenstone::CollectionConfig;
use gsa_simnet::LinkConfig;
use gsa_store::SourceDocument;
use gsa_types::{SimDuration, SimTime};
use std::collections::BTreeSet;

fn doc(id: &str) -> SourceDocument {
    SourceDocument::new(id, "content")
}

/// Figure 2 tree, one publisher (Hamilton on gds-4) and three watcher
/// servers spread across different branches (gds-2, gds-5, gds-7), all
/// edges reliable. With `pruned` set, flood pruning is on and a fourth
/// server (Oslo on gds-6) watches a host that never publishes, giving
/// the summaries a subtree to actually cut. `configure` sets the links
/// before any node exists.
type Watchers = Vec<(&'static str, gsa_types::ClientId)>;

fn lossy_world(
    seed: u64,
    pruned: bool,
    wire: WireFormat,
    configure: impl FnOnce(&mut System),
) -> (System, Watchers, Option<gsa_types::ClientId>) {
    let config = SystemConfig {
        wire,
        reliable: true,
        interest: if pruned { InterestMode::Prune } else { InterestMode::Flood },
        ..SystemConfig::default()
    };
    let mut system = System::with_config(seed, config);
    configure(&mut system);
    system.add_gds_topology(&figure2_tree());
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
    let bystander = pruned.then(|| {
        system.add_server("Oslo", "gds-6");
        let bystander = system.add_client("Oslo");
        system
            .subscribe_text("Oslo", bystander, r#"host = "Nowhere""#)
            .unwrap();
        bystander
    });
    // Setup traffic runs clean; loss starts with the workload.
    system.run_until_quiet(SimTime::from_secs(5));
    (system, clients, bystander)
}

#[test]
fn broadcast_is_exactly_once_under_loss() {
    let mut total_retransmits = 0;
    let mut total_drops = 0;
    for seed in [1, 2, 3, 4, 5] {
        for drop in [0.1, 0.2, 0.3] {
            let (mut system, clients, _) = lossy_world(seed, false, WireFormat::Xml, |_| {});
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
                    "seed {seed} drop {drop}: {host} must see both rebuilds exactly once"
                );
            }
            total_retransmits += system.metrics().counter("net.retransmits");
            total_drops += system.metrics().counter("net.dropped");
        }
    }
    // The grid is large enough that loss certainly struck somewhere and
    // retransmission certainly repaired something.
    assert!(total_drops > 0, "the lossy links actually lost traffic");
    assert!(
        total_retransmits > 0,
        "deliveries were repaired by retransmission, not luck"
    );
}

/// The same exactly-once grid with pruning steering the flood: loss may
/// strike the summary announcements as well as the events, yet every
/// interested watcher still sees each event exactly once, the bystander
/// stays silent, and the summaries demonstrably cut edges while the
/// links were dropping traffic.
#[test]
fn pruned_broadcast_is_exactly_once_under_loss() {
    let mut total_retransmits = 0;
    let mut total_drops = 0;
    let mut total_pruned = 0;
    for seed in [1, 2, 3, 4, 5] {
        for drop in [0.1, 0.2, 0.3] {
            let (mut system, clients, bystander) = lossy_world(seed, true, WireFormat::Xml, |_| {});
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
                    "seed {seed} drop {drop}: {host} must see both rebuilds exactly once \
                     with pruning on"
                );
            }
            let silent = system.take_notifications("Oslo", bystander.unwrap());
            assert!(
                silent.is_empty(),
                "seed {seed} drop {drop}: the uninterested bystander stays silent"
            );
            total_retransmits += system.metrics().counter("net.retransmits");
            total_drops += system.metrics().counter("net.dropped");
            total_pruned += system.metrics().counter("gds.pruned_edges");
        }
    }
    assert!(total_drops > 0, "the lossy links actually lost traffic");
    assert!(
        total_retransmits > 0,
        "deliveries were repaired by retransmission, not luck"
    );
    assert!(
        total_pruned > 0,
        "pruning engaged under loss — the grid is not testing a plain flood"
    );
}

/// The duplicate-suppression memory is kept as id runs: loss makes
/// floods arrive out of order and opens gaps, and every gap that
/// retransmission later fills closes again. With the reliability layer
/// on nothing stays lost, so every GDS node and every watcher ends on a
/// single run for the one publisher — while still remembering each
/// event.
#[test]
fn dedup_memory_closes_every_gap_that_retransmission_fills() {
    const REBUILDS: usize = 12;
    let mut total_drops = 0;
    let mut most_runs = 0;
    for seed in [1, 2, 3] {
        let (mut system, clients, _) = lossy_world(seed, false, WireFormat::Xml, |_| {});
        system.set_drop_probability(0.3);
        for n in 0..REBUILDS {
            system
                .rebuild("Hamilton", "D", vec![doc(&format!("d{n}"))])
                .unwrap();
            // Publish faster than a lost frame is repaired, so later
            // floods overtake earlier ones.
            system.run_for(gsa_types::SimDuration::from_millis(40));
            for gds in figure2_tree().names() {
                most_runs = most_runs.max(system.inspect_gds(gds.as_str(), |node| node.seen_runs()));
            }
        }
        system.run_until_quiet(SimTime::from_secs(240));
        let lost_and_never_recovered = 0;
        for gds in figure2_tree().names() {
            let runs = system.inspect_gds(gds.as_str(), |node| node.seen_runs());
            assert!(
                runs <= lost_and_never_recovered + 1,
                "seed {seed}: {gds} holds {runs} runs"
            );
        }
        for (host, client) in clients {
            let (runs, seen) = system.inspect_core(host, |core| {
                (core.gds_client().seen_runs(), core.gds_client().seen_count())
            });
            assert!(runs <= lost_and_never_recovered + 1, "seed {seed}: {host} holds {runs} runs");
            assert_eq!(seen, REBUILDS, "seed {seed}: {host} remembers every event");
            assert_eq!(system.take_notifications(host, client).len(), REBUILDS);
        }
        total_drops += system.metrics().counter("net.dropped");
    }
    assert!(total_drops > 0, "the lossy links actually lost traffic");
    assert!(most_runs > 1, "floods did overtake each other: there were gaps to close");
}

/// The wires a reliable edge runs on: the paper's XML, and v2.
fn wires() -> [(&'static str, WireFormat); 2] {
    [("xml", WireFormat::Xml), ("v2", WireFormat::Binary)]
}

/// Publishes 200 rebuilds 0.7 ms apart, which keeps many frames in
/// flight on every edge at once, and settles; returns every
/// notification's delay from its publish, having checked that each
/// watcher saw each rebuild exactly once.
fn burst(system: &mut System, clients: &Watchers) -> Vec<SimDuration> {
    const REBUILDS: usize = 200;
    for n in 0..REBUILDS {
        system
            .rebuild("Hamilton", "D", vec![doc(&format!("d{n}"))])
            .unwrap();
        system.run_for(SimDuration::from_micros(700));
    }
    system.run_until_quiet(system.now() + SimDuration::from_secs(60));
    let mut delays = Vec::new();
    for &(host, client) in clients {
        let inbox = system.take_notifications(host, client);
        assert_eq!(
            inbox.len(),
            REBUILDS,
            "{host} sees each rebuild exactly once"
        );
        delays.extend(inbox.iter().map(|n| n.at.since(n.event.issued_at)));
    }
    delays
}

/// Nothing lost, nothing retransmitted: acks held back to coalesce
/// still arrive far inside the retransmission timeout, and a frame that
/// a later one overtakes on a jittery link is not taken for lost —
/// least of all on the WAN's 10 ms of jitter, which fast retransmit
/// without its reorder window mistook for loss about a thousand times.
#[test]
fn acks_flow_even_on_clean_links() {
    for (link_name, link) in [("lan", LinkConfig::lan()), ("wan", LinkConfig::wan())] {
        for (wire_name, wire) in wires() {
            let (mut system, clients, _) =
                lossy_world(9, false, wire, |s| s.set_default_link(link.clone()));
            burst(&mut system, &clients);
            assert!(system.metrics().counter("net.acks") > 0);
            assert_eq!(
                system.metrics().counter("net.retransmits"),
                0,
                "{link_name} x {wire_name}: nothing lost, nothing retransmitted"
            );
            assert_eq!(
                system.metrics().counter("net.tail_probes"),
                0,
                "{link_name} x {wire_name}: every tail acked inside the probe timeout"
            );
        }
    }
}

/// A lost frame costs about one round trip: the peer's ack of a later
/// frame proves the loss, and the frame is sent again at once instead of
/// after the 500 ms retransmission timeout. At 2 % loss at least 99 % of
/// notifications land within 100 ms of their publish (without fast
/// retransmit, 87-92 %).
#[test]
fn a_lost_frame_costs_a_round_trip_not_a_timeout() {
    for seed in [1, 2, 3] {
        for (wire_name, wire) in wires() {
            let (mut system, clients, _) = lossy_world(seed, false, wire, |_| {});
            system.set_drop_probability(0.02);
            let delays = burst(&mut system, &clients);
            let prompt = delays
                .iter()
                .filter(|d| **d <= SimDuration::from_millis(100))
                .count();
            assert!(
                prompt * 100 >= delays.len() * 99,
                "seed {seed} {wire_name}: {prompt} of {} notifications within 100 ms",
                delays.len()
            );
            assert!(
                system.metrics().counter("net.dropped") > 0,
                "the links lost traffic"
            );
            let fast = system.metrics().counter("net.fast_retransmits");
            assert!(fast > 0, "seed {seed} {wire_name}: acks proved losses");
            assert!(fast <= system.metrics().counter("net.retransmits"));
        }
    }
}

/// The tail of the same run: a frame lost at the end of a burst, or a
/// retransmission lost in its turn, is found by the tail probe or by
/// the ack of a frame sent after it, not by the 500 ms timeout. Every
/// notification lands within 100 ms of its publish, and every
/// retransmission is a fast one.
#[test]
fn a_lost_retransmission_costs_a_round_trip_too() {
    let mut probes = 0;
    for seed in [1, 2, 3] {
        for (wire_name, wire) in wires() {
            let (mut system, clients, _) = lossy_world(seed, false, wire, |_| {});
            system.set_drop_probability(0.02);
            let delays = burst(&mut system, &clients);
            let worst = delays.iter().max().expect("notifications landed");
            assert!(
                *worst <= SimDuration::from_millis(100),
                "seed {seed} {wire_name}: a notification took {worst}"
            );
            let metrics = system.metrics();
            assert_eq!(
                metrics.counter("net.retransmits"),
                metrics.counter("net.fast_retransmits"),
                "seed {seed} {wire_name}: nothing waited for the backoff"
            );
            probes += metrics.counter("net.tail_probes");
        }
    }
    assert!(probes > 0, "some losses were found by the tail probe");
}

/// The reliable data frames Hamilton handed its directory node gds-4
/// from trace entry `since` on, and when the last of them was sent. The
/// links are calm, so every frame sent is a frame delivered.
fn publisher_frames(system: &System, since: usize) -> (usize, Option<SimTime>) {
    let sim = system.sim();
    let (from, to) = (sim.node_id("Hamilton").unwrap(), sim.node_id("gds-4").unwrap());
    let frames: Vec<SimTime> = sim.trace()[since..]
        .iter()
        .filter(|e| e.from == from && e.to == to && e.summary.contains("Data {"))
        .map(|e| e.sent_at)
        .collect();
    (frames.len(), frames.last().copied())
}

/// A publisher's burst rides the batcher from its first hop. On a calm
/// reliable Figure-2 world Hamilton publishes 32 rebuilds in one
/// instant: v2 hands gds-4 two data frames of sixteen events, XML one
/// frame per event, and every watcher sees each event exactly once.
/// Then one lone rebuild: on every wire its frame leaves Hamilton in
/// the instant it was published (on v2 the end-of-instant flush, not
/// the size cap, sends it).
#[test]
fn a_published_burst_leaves_its_server_in_batches() {
    const BURST: usize = 32;
    for (wire_name, wire, burst_frames) in [
        ("xml", WireFormat::Xml, BURST),
        ("v2", WireFormat::Binary, BURST / 16),
    ] {
        let (mut system, clients, _) = lossy_world(1, false, wire, |_| {});
        system.sim_mut().enable_trace();
        for n in 0..BURST {
            system
                .rebuild("Hamilton", "D", vec![doc(&format!("d{n}"))])
                .unwrap();
        }
        system.run_until_quiet(system.now() + SimDuration::from_secs(5));
        assert_eq!(
            publisher_frames(&system, 0).0,
            burst_frames,
            "{wire_name}: data frames Hamilton sent for {BURST} publishes"
        );

        let since = system.sim().trace().len();
        let published = system.now();
        system.rebuild("Hamilton", "D", vec![doc("lone")]).unwrap();
        system.run_until_quiet(system.now() + SimDuration::from_secs(5));
        let (frames, sent) = publisher_frames(&system, since);
        assert_eq!(frames, 1, "{wire_name}: the lone publish left Hamilton");
        let waited = sent != Some(published);
        assert!(
            !waited,
            "{wire_name}: the lone publish left Hamilton in the instant it was published"
        );

        for &(host, client) in &clients {
            let inbox = system.take_notifications(host, client);
            let events: BTreeSet<u64> = inbox.iter().map(|n| n.event.id.seq()).collect();
            assert_eq!(
                (inbox.len(), events.len()),
                (BURST + 1, BURST + 1),
                "{wire_name}: {host} sees each event exactly once"
            );
        }
        assert_eq!(
            system.metrics().counter("net.retransmits"),
            0,
            "{wire_name}: calm links"
        );
    }
}
