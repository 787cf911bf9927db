//! A node that goes down and comes back must run each timer exactly
//! once: none lost for good, none twice.
//!
//! `Sim::set_node_up(true)` re-runs `on_start`, and every timer set
//! before the node went down is dropped. An actor that remembers "my
//! flush timer is armed" across the outage therefore never arms it
//! again: whatever the timer was to flush waits for ever. Those
//! scenarios bounce one node on the Figure-2 tree — a directory node, or
//! the publishing server itself (Hamilton@gds-4 publishes, Cairo@gds-5
//! listens; the flood runs Hamilton → gds-4 → gds-1 → gds-2 → gds-5) —
//! and assert that a notification published long after the node is back
//! still arrives. The last one holds a bounced node's periodic chains to
//! one each.

use gsa_core::{InterestMode, System, SystemConfig, WireFormat};
use gsa_gds::figure2_tree;
use gsa_greenstone::CollectionConfig;
use gsa_simnet::NodeId;
use gsa_store::SourceDocument;
use gsa_types::{ClientId, SimDuration, SimTime};

const SEED: u64 = 7;

/// How long the bounced node stays down: longer than the 1 ms announce
/// delay, so a timer pending when the node goes down always comes due
/// inside the outage (a batch flush is due in the instant it was set).
const OUTAGE: SimDuration = SimDuration::from_millis(50);

fn world(config: SystemConfig) -> (System, ClientId) {
    let mut system = System::with_config(SEED, config);
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("Cairo", "gds-5");
    system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
    let client = system.add_client("Cairo");
    system.run_until_quiet(SimTime::from_secs(5));
    (system, client)
}

fn reliable() -> SystemConfig {
    SystemConfig { reliable: true, ..SystemConfig::default() }
}

fn bounce(system: &mut System, host: &str) {
    system.set_host_up(host, false);
    system.run_for(OUTAGE);
    system.set_host_up(host, true);
}

fn rebuild(system: &mut System, doc: &str) {
    system
        .rebuild("Hamilton", "D", vec![SourceDocument::new(doc, "fresh content")])
        .unwrap();
}

/// Pruning on, reliability off (so no beacon re-announces on the
/// node's behalf). gds-5 goes down with its deferred-announcement timer
/// pending; the subscription Cairo registers afterwards must still
/// reach gds-2, or gds-2 prunes Hamilton's flood away from the only
/// subscriber.
#[test]
fn a_deferred_announcement_survives_its_node_bouncing() {
    let pruned = SystemConfig { interest: InterestMode::Prune, ..SystemConfig::default() };
    let (mut system, client) = world(pruned);
    // Any change to Cairo's summary marks gds-5's aggregate dirty and
    // arms its 1 ms announce timer when the update arrives.
    system
        .subscribe_text("Cairo", client, r#"host = "Nowhere""#)
        .unwrap();
    let deadline = system.now() + SimDuration::from_millis(10);
    while !system.inspect_gds("gds-5", |node| node.announce_pending()) {
        assert!(system.now() < deadline, "Cairo's update never reached gds-5");
        system.run_for(SimDuration::from_micros(50));
    }
    bounce(&mut system, "gds-5");
    system.run_until_quiet(system.now() + SimDuration::from_secs(5));

    system
        .subscribe_text("Cairo", client, r#"host = "Hamilton""#)
        .unwrap();
    system.run_until_quiet(system.now() + SimDuration::from_secs(5));
    rebuild(&mut system, "d1");
    system.run_until_quiet(system.now() + SimDuration::from_secs(30));
    assert_eq!(
        system.take_notifications("Cairo", client).len(),
        1,
        "pruning may cost messages, never a delivery ({} edges pruned)",
        system.metrics().counter("gds.pruned_edges")
    );
}

/// Whether `host` went down holding the first rebuild in its batch
/// buffer: the event had reached it by `down` (over the edge from
/// `prev`; a publisher has its own at once), and the first frame
/// carrying it on to `next` arrived only after `host` was back `up`.
/// The links are calm and the outage far longer than a link, so a frame
/// sent before the outage arrives during it.
fn held_over_the_outage(
    system: &System,
    prev: Option<&str>,
    host: &str,
    next: &str,
    (down, up): (SimTime, SimTime),
) -> bool {
    let sim = system.sim();
    let id = |name: &str| sim.node_id(name).unwrap();
    let first_event = |from: NodeId, to: NodeId| {
        sim.trace()
            .iter()
            .find(|e| {
                e.from == from
                    && e.to == to
                    && (e.summary.contains("Publish") || e.summary.contains("Broadcast"))
            })
            .map(|e| e.at)
    };
    let had_it =
        prev.is_none_or(|prev| first_event(id(prev), id(host)).is_some_and(|at| at <= down));
    had_it && first_event(id(host), id(next)).is_some_and(|at| at >= up)
}

/// v2 wire. After a first rebuild the simulator runs one step at a time
/// until `host` holds that rebuild's event frame for `next` in its batch
/// buffer — a publisher at once, a directory node in the step that
/// delivers the event from `prev` — and `host` goes down in that
/// instant, before its end-of-instant flush fires. The held frame must
/// leave only after `host` is back up, or the bounce tests nothing. On
/// reliable edges nothing is lost: the first rebuild arrives too. The
/// second, published half a minute after the node is back on a healthy
/// tree, must arrive on either kind of edge.
fn later_rebuild_crosses_a_bounced_batcher(
    (prev, host, next): (Option<&str>, &str, &str),
    reliable: bool,
) {
    let (mut system, client) = world(SystemConfig {
        wire: WireFormat::Binary,
        reliable,
        ..SystemConfig::default()
    });
    system
        .subscribe_text("Cairo", client, r#"host = "Hamilton""#)
        .unwrap();
    system.sim_mut().enable_trace();
    rebuild(&mut system, "d1");
    if let Some(prev) = prev {
        let (from, to) = (system.sim().node_id(prev), system.sim().node_id(host));
        let delivered = |system: &System| {
            system.sim().trace().last().is_some_and(|e| {
                Some(e.from) == from && Some(e.to) == to && e.summary.contains("Broadcast")
            })
        };
        while !delivered(&system) {
            assert!(
                system.sim_mut().step(),
                "reliable={reliable}: the first rebuild never reached {host}"
            );
        }
    }
    let down = system.now();
    bounce(&mut system, host);
    let outage = (down, system.now());
    system.run_for(SimDuration::from_secs(30));
    let first = system.take_notifications("Cairo", client).len();
    if reliable {
        assert_eq!(first, 1, "{host} bounced: reliable edges lose nothing");
    }

    rebuild(&mut system, "d2");
    system.run_for(SimDuration::from_secs(30));
    assert_eq!(
        system.take_notifications("Cairo", client).len(),
        1,
        "reliable={reliable}, {host} bounced holding the first rebuild: \
         the second rebuild never arrived"
    );
    assert!(
        held_over_the_outage(&system, prev, host, next, outage),
        "reliable={reliable}: {host} did not go down holding the first rebuild's frame for {next}"
    );
}

/// gds-2 holds the first rebuild's broadcast for gds-5 from the step
/// that delivers it from gds-1 (about 3 ms after the rebuild: three
/// links, each hop flushing at the end of its instant).
const GDS_2: (Option<&str>, &str, &str) = (Some("gds-1"), "gds-2", "gds-5");

#[test]
fn a_batch_flush_survives_its_node_bouncing_best_effort() {
    later_rebuild_crosses_a_bounced_batcher(GDS_2, false);
}

#[test]
fn a_batch_flush_survives_its_node_bouncing_reliable() {
    later_rebuild_crosses_a_bounced_batcher(GDS_2, true);
}

/// The publisher itself: Hamilton holds a lone publish for gds-4 from
/// the rebuild call until the end of that instant, and goes down before
/// the instant ends.
const HAMILTON: (Option<&str>, &str, &str) = (None, "Hamilton", "gds-4");

/// A lone publish held when its publisher goes down leaves after the restart.
#[test]
fn a_held_publish_survives_its_publisher_bouncing_best_effort() {
    later_rebuild_crosses_a_bounced_batcher(HAMILTON, false);
}

/// The same on reliable edges.
#[test]
fn a_held_publish_survives_its_publisher_bouncing_reliable() {
    later_rebuild_crosses_a_bounced_batcher(HAMILTON, true);
}

/// Reliable edges on the paper's wire. A receiver holds its acks
/// `ACK_DELAY` (0.5 ms) to coalesce them; gds-2 goes down while it owes gds-1 the ack of the
/// first rebuild's broadcast, at every 100 µs offset across the time that
/// broadcast is in reach. Back up, gds-2 must acknowledge again: a node
/// that still believed its ack flush armed would never send another ack,
/// and its peers would retransmit to it for ever.
#[test]
fn an_ack_flush_survives_its_node_bouncing() {
    for offset_us in (2_000..6_000).step_by(100) {
        let (mut system, client) = world(reliable());
        system
            .subscribe_text("Cairo", client, r#"host = "Hamilton""#)
            .unwrap();
        rebuild(&mut system, "d1");
        system.run_for(SimDuration::from_micros(offset_us));
        bounce(&mut system, "gds-2");
        rebuild(&mut system, "d2");
        system.run_for(SimDuration::from_secs(30));
        assert_eq!(
            system.take_notifications("Cairo", client).len(),
            2,
            "gds-2 down {offset_us} µs after the first rebuild: both rebuilds arrive"
        );
        let settled = system.metrics().counter("net.retransmits");
        system.run_for(SimDuration::from_secs(30));
        assert_eq!(
            system.metrics().counter("net.retransmits"),
            settled,
            "gds-2 down {offset_us} µs after the first rebuild: its peers still retransmit"
        );
    }
}

/// Frames sent and simulator steps taken over an idle 20 s window.
fn idle_window(system: &mut System) -> (u64, usize) {
    let sent = system.metrics().counter("net.sent");
    let steps = system.run_for(SimDuration::from_secs(20));
    (system.metrics().counter("net.sent") - sent, steps)
}

/// Reliable edges, so every node runs periodic chains (tick, poll,
/// liveness). A node coming back re-runs `on_start`, which arms them
/// afresh; a chain set before the outage must not run beside the new
/// one, and neither may a second `Start` queued by another down/up in
/// the same instant. Either shows as extra frames and steps against a
/// twin that never bounced.
#[test]
fn a_bounced_node_runs_each_timer_once() {
    let (mut twin, _) = world(reliable());
    twin.run_for(OUTAGE);
    twin.run_for(SimDuration::from_secs(5));
    let expected = idle_window(&mut twin);
    for host in ["gds-2", "Cairo"] {
        for double in [false, true] {
            let (mut system, _) = world(reliable());
            bounce(&mut system, host);
            if double {
                system.set_host_up(host, false);
                system.set_host_up(host, true);
            }
            system.run_for(SimDuration::from_secs(5));
            assert_eq!(
                idle_window(&mut system),
                expected,
                "{host} bounced (double: {double}): (frames, steps) against a twin that never bounced"
            );
        }
    }
}
