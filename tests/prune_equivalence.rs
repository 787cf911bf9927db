//! Delivery-equivalence oracle for subscription-aware flood pruning.
//!
//! The pruning contract is behavioural invisibility: for any workload,
//! the pruned GDS tree delivers exactly the notification sets the full
//! flood delivers — false positives in a *summary* merely cost a
//! message, but a false negative would lose a notification, so the
//! oracle runs every figure-style scenario twice (pruning off, then
//! on) across five simulator seeds and demands identical per-client
//! delivery sets, while also checking the pruned run actually pruned
//! (the comparison must not be vacuous).

use gsa_core::{InterestMode, System, SystemConfig};
use gsa_gds::figure2_tree;
use gsa_greenstone::{CollectionConfig, SubCollectionRef};
use gsa_simnet::CounterId;
use gsa_store::SourceDocument;
use gsa_types::{keys, ClientId, CollectionId, MetadataRecord, SimTime};
use std::collections::BTreeMap;

const SEEDS: [u64; 5] = [11, 12, 13, 14, 15];

fn doc(id: &str) -> SourceDocument {
    SourceDocument::new(id, "fresh content")
}

/// An empty deployment whose directory nodes route in `interest`.
fn deployment(seed: u64, interest: InterestMode) -> System {
    System::with_config(seed, SystemConfig { interest, ..SystemConfig::default() })
}

/// One watcher's delivered notifications, reduced to a comparable form:
/// (profile, announced origin, event sequence, matched doc count),
/// sorted so ordering differences between runs cannot matter. Each
/// host carries exactly one watcher client in these scenarios.
type Delivered = BTreeMap<String, Vec<(String, String, u64, usize)>>;

fn drain(system: &mut System, watchers: &[(&'static str, ClientId)]) -> Delivered {
    let mut out = Delivered::new();
    for (host, client) in watchers {
        let mut got: Vec<(String, String, u64, usize)> = system
            .take_notifications(host, *client)
            .into_iter()
            .map(|n| {
                (
                    n.profile.to_string(),
                    n.event.origin.to_string(),
                    n.event.id.seq(),
                    n.matched_docs().count(),
                )
            })
            .collect();
        got.sort();
        out.insert(host.to_string(), got);
    }
    out
}

/// Figure-2 broadcast scenario: publishers on two branches, watchers
/// with host-anchored, collection-anchored, unanchorable (wildcard)
/// and never-matching profiles spread across the rest of the tree.
fn broadcast_run(seed: u64, interest: InterestMode) -> (Delivered, u64, u64) {
    let mut system = deployment(seed, interest);
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("London", "gds-2");
    system.add_server("Paris", "gds-5");
    system.add_server("Berlin", "gds-3");
    system.add_server("Oslo", "gds-6");
    system.add_server("Madrid", "gds-7");
    system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
    system.add_collection("London", CollectionConfig::simple("E", "e"));

    let mut watchers = Vec::new();
    for (host, profile) in [
        ("Paris", r#"host = "Hamilton""#),
        ("Berlin", r#"collection = "London.E""#),
        ("Oslo", r#"kind = "collection-rebuilt""#),
        ("Madrid", r#"host = "Nowhere""#),
    ] {
        let client = system.add_client(host);
        system.subscribe_text(host, client, profile).unwrap();
        watchers.push((host, client));
    }
    system.run_until_quiet(SimTime::from_secs(5));

    let sent_before = system.metrics().counter("net.sent");
    system.rebuild("Hamilton", "D", vec![doc("d1")]).unwrap();
    system.run_until(SimTime::from_secs(20));
    system.rebuild("London", "E", vec![doc("e1")]).unwrap();
    system.run_until(SimTime::from_secs(35));
    system.rebuild("Hamilton", "D", vec![doc("d2")]).unwrap();
    system.run_until_quiet(SimTime::from_secs(120));

    let delivered = drain(&mut system, &watchers);
    let messages = system.metrics().counter("net.sent") - sent_before;
    let pruned_edges = system.metrics().counter("gds.pruned_edges");
    (delivered, messages, pruned_edges)
}

#[test]
fn pruned_broadcast_delivers_exactly_the_flood_sets() {
    for seed in SEEDS {
        let (flood, flood_msgs, flood_pruned) = broadcast_run(seed, InterestMode::Flood);
        let (pruned, pruned_msgs, pruned_edges) = broadcast_run(seed, InterestMode::Prune);
        assert_eq!(
            flood, pruned,
            "seed {seed}: pruned delivery sets diverged from the full flood"
        );
        // Not vacuous: the expected matches arrived, the never-matching
        // watcher stayed silent, and pruning actually cut edges.
        let count = |host: &str| pruned[host].len();
        assert_eq!(count("Paris"), 2, "seed {seed}: both Hamilton rebuilds");
        assert_eq!(count("Berlin"), 1, "seed {seed}: the London rebuild");
        assert_eq!(count("Oslo"), 3, "seed {seed}: wildcard watcher sees all");
        assert_eq!(count("Madrid"), 0, "seed {seed}: no spurious deliveries");
        assert_eq!(flood_pruned, 0, "seed {seed}: flood mode never prunes");
        assert!(pruned_edges > 0, "seed {seed}: pruning must actually engage");
        assert!(
            pruned_msgs <= flood_msgs,
            "seed {seed}: pruning may never add flood messages"
        );
    }
}

/// A clustered-attribute workload on the figure-2 tree: every watcher
/// of Oslo's `documents-added` events lives in the gds-3 subtree, so a
/// rendezvous point can be elected there, while Paris (gds-5) anchors
/// to Oslo with a digest that provably excludes that kind — prunable
/// only once summaries carry attributes.
fn attr_mode_run(seed: u64, interest: InterestMode) -> (Delivered, u64, u64, u64, u64) {
    let mut system = deployment(seed, interest);
    let (delivered, messages) = attr_workload(&mut system);
    let pruned_edges = system.metrics().counter("gds.pruned_edges");
    let confined = system.metrics().counter("gds.rendezvous_confined");
    let grants = system.metrics().counter("gds.rendezvous_grants");
    (delivered, messages, pruned_edges, confined, grants)
}

/// The workload of [`attr_mode_run`] on a configured, still empty
/// system: what each watcher received and the messages it took.
fn attr_workload(system: &mut System) -> (Delivered, u64) {
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("Oslo", "gds-6");
    system.add_server("London", "gds-2");
    system.add_server("Paris", "gds-5");
    system.add_server("Berlin", "gds-3");
    system.add_server("Madrid", "gds-7");
    system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
    system.add_collection("Oslo", CollectionConfig::simple("X", "x"));

    let mut watchers = Vec::new();
    for (host, profiles) in [
        (
            "Paris",
            &[
                r#"host = "Hamilton" AND kind = "collection-rebuilt""#,
                r#"host = "Oslo" AND kind = "collection-rebuilt""#,
            ][..],
        ),
        ("London", &[r#"host = "Nowhere" AND kind = "collection-rebuilt""#][..]),
        ("Madrid", &[r#"host = "Oslo" AND kind = "documents-added""#][..]),
        (
            "Berlin",
            &[r#"host = "Oslo" AND kind = "documents-added" AND dc.Language = "mi""#][..],
        ),
    ] {
        let client = system.add_client(host);
        for profile in profiles {
            system.subscribe_text(host, client, profile).unwrap();
        }
        watchers.push((host, client));
    }
    system.run_until_quiet(SimTime::from_secs(5));

    let mi_doc = |id: &str| {
        let md: MetadataRecord = [(keys::LANGUAGE, "mi")].into_iter().collect();
        SourceDocument::new(id, "he whakaaturanga").with_metadata(md)
    };
    let sent_before = system.metrics().counter("net.sent");
    system.rebuild("Hamilton", "D", vec![doc("d1")]).unwrap();
    system.run_until(SimTime::from_secs(20));
    system.rebuild("Oslo", "X", vec![mi_doc("x0")]).unwrap();
    system.run_until(SimTime::from_secs(35));
    for (i, at) in [(1u64, 50u64), (2, 65), (3, 80)] {
        system.import("Oslo", "X", vec![mi_doc(&format!("x{i}"))]).unwrap();
        system.run_until(SimTime::from_secs(at));
    }
    system.run_until_quiet(SimTime::from_secs(180));

    let delivered = drain(system, &watchers);
    let messages = system.metrics().counter("net.sent") - sent_before;
    (delivered, messages)
}

/// Every counter the product bumps has a row in the counter table, so
/// none allocates a `String` per bump and walks the metrics store's
/// fallback map: after the clustered workload with every switch on —
/// which issues grants and confines floods — each name the run left
/// behind resolves to a slot. (`gds.rendezvous_confined` and
/// `gds.rendezvous_grants` once had a name constant and no slot.)
#[test]
fn every_counter_of_a_run_with_every_switch_on_has_a_slot() {
    let mut system = System::with_config(SEEDS[0], SystemConfig::production());
    let (delivered, _) = attr_workload(&mut system);
    assert_eq!(delivered["Madrid"].len(), 3, "the workload ran");
    assert!(system.metrics().counter("gds.rendezvous_grants") > 0);
    assert!(system.metrics().counter("gds.rendezvous_confined") > 0);
    let names: Vec<&str> = system.metrics().counters().map(|(name, _)| name).collect();
    assert!(names.len() >= 15, "every layer counted something: {names:?}");
    for name in names {
        assert!(CounterId::from_name(name).is_some(), "{name} has no slot");
    }
}

/// The three interest modes E6-prune compares, each layered on the one
/// before, are behaviourally invisible: identical notification sets,
/// fewer messages.
#[test]
fn attr_and_rendezvous_modes_deliver_exactly_the_flood_sets() {
    for seed in SEEDS {
        let (flood, flood_msgs, _, flood_confined, flood_grants) =
            attr_mode_run(seed, InterestMode::Flood);
        let (attr, attr_msgs, attr_edges, attr_confined, _) =
            attr_mode_run(seed, InterestMode::Prune);
        let (rdv, rdv_msgs, _, rdv_confined, rdv_grants) =
            attr_mode_run(seed, InterestMode::PruneWithGrants);

        for (name, got) in [("attr-prune", &attr), ("rendezvous", &rdv)] {
            assert_eq!(
                &flood, got,
                "seed {seed}: {name} delivery sets diverged from the full flood"
            );
        }
        // Not vacuous: the clustered watchers saw their events.
        assert_eq!(flood["Paris"].len(), 2, "seed {seed}: both rebuilds");
        assert_eq!(flood["Madrid"].len(), 3, "seed {seed}: all three imports");
        assert_eq!(flood["Berlin"].len(), 3, "seed {seed}: all three mi imports");
        assert_eq!(flood["London"].len(), 0, "seed {seed}: no spurious deliveries");

        // Each layer must pay for itself, strictly on this workload:
        // summaries prune edges the flood crosses, rendezvous confines
        // hops summaries still forward.
        assert!(
            attr_msgs < flood_msgs,
            "seed {seed}: pruning saves messages ({attr_msgs} vs {flood_msgs})"
        );
        assert!(
            rdv_msgs < attr_msgs,
            "seed {seed}: rendezvous must out-prune attr digests \
             ({rdv_msgs} vs {attr_msgs})"
        );
        assert!(attr_edges > 0, "seed {seed}: pruning must actually engage");
        assert_eq!(flood_confined, 0, "seed {seed}: flood never confines");
        assert_eq!(flood_grants, 0, "seed {seed}: flood never grants");
        assert_eq!(attr_confined, 0, "seed {seed}: attr mode never confines");
        assert!(rdv_confined > 0, "seed {seed}: rendezvous actually confined");
        assert!(rdv_grants > 0, "seed {seed}: rendezvous actually granted");
    }
}

/// Satellite pin: a burst of subscriptions landing on a GDS node in one
/// actor frame coalesces into a single upward re-announcement. The
/// global `gds.summary_updates` counter sees one acceptance per
/// burst member at the leaf (unavoidable — each carries a new version)
/// plus O(1), not O(burst), acceptances at the parent.
#[test]
fn announcement_bursts_coalesce_upward() {
    const BURST: u64 = 8;
    let mut system = deployment(21, InterestMode::Prune);
    system.add_gds_topology(&figure2_tree());
    system.add_server("London", "gds-2");
    system.run_until_quiet(SimTime::from_secs(5));
    let before = system.metrics().counter("gds.summary_updates");

    let client = system.add_client("London");
    for i in 0..BURST {
        system
            .subscribe_text("London", client, &format!(r#"host = "h{i}""#))
            .unwrap();
    }
    let deadline = system.now() + gsa_types::SimDuration::from_secs(5);
    system.run_until_quiet(deadline);

    let updates = system.metrics().counter("gds.summary_updates") - before;
    // Each update carries the complete digest, so jittered arrival
    // already drops stale versions at the leaf; what this pins is the
    // upward direction — the node re-announces once per frame, not once
    // per accepted update.
    assert!(
        updates >= 2,
        "the burst must reach the leaf and re-announce upward (saw {updates})"
    );
    assert!(
        updates <= BURST + 2,
        "upward announcements must coalesce: expected ≤ {} total summary \
         acceptances for a burst of {BURST}, saw {updates}",
        BURST + 2
    );
    // The aggregated interest still converged to the full burst: the
    // last host subscribed is routable end-to-end.
    let aggregate = system.inspect_gds("gds-1", |node| node.aggregate_summary());
    assert!(aggregate.may_match("h7", "h7.c"), "digest converged upward");
}

/// Figure-3 scenario under pruning: Hamilton.D includes London.E as a
/// sub-collection, so a rebuild of E is announced twice — once with its
/// original origin and once rewritten to the super-collection. The
/// pruned tree must route the original to sub-collection watchers and
/// the rewrite to super-collection watchers, and nothing anywhere else.
fn aux_rewrite_run(seed: u64, interest: InterestMode) -> (Delivered, u64) {
    let mut system = deployment(seed, interest);
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("London", "gds-2");
    system.add_server("Berlin", "gds-3");
    system.add_server("Paris", "gds-5");
    system.add_server("Madrid", "gds-7");
    system.add_collection("London", CollectionConfig::simple("E", "E"));
    system.add_collection(
        "Hamilton",
        CollectionConfig::simple("D", "D").with_subcollection(SubCollectionRef::new(
            "e",
            CollectionId::new("London", "E"),
        )),
    );

    let mut watchers = Vec::new();
    for (host, profile) in [
        ("Berlin", r#"collection = "Hamilton.D""#),
        ("Paris", r#"collection = "London.E""#),
        ("Madrid", r#"host = "Nowhere""#),
    ] {
        let client = system.add_client(host);
        system.subscribe_text(host, client, profile).unwrap();
        watchers.push((host, client));
    }
    system.run_until_quiet(SimTime::from_secs(5));

    system.rebuild("London", "E", vec![doc("e1")]).unwrap();
    system.run_until_quiet(SimTime::from_secs(90));

    let delivered = drain(&mut system, &watchers);
    let pruned_edges = system.metrics().counter("gds.pruned_edges");
    (delivered, pruned_edges)
}

#[test]
fn pruned_tree_routes_rewritten_events_to_super_collection_watchers() {
    for seed in SEEDS {
        let (flood, flood_pruned) = aux_rewrite_run(seed, InterestMode::Flood);
        let (pruned, pruned_edges) = aux_rewrite_run(seed, InterestMode::Prune);
        assert_eq!(
            flood, pruned,
            "seed {seed}: pruned aux-rewrite deliveries diverged from the flood"
        );
        let get = |host: &str| &pruned[host];
        let berlin = get("Berlin");
        assert_eq!(berlin.len(), 1, "seed {seed}: exactly the rewrite");
        assert_eq!(berlin[0].1, "Hamilton.D", "seed {seed}: rewritten origin");
        let paris = get("Paris");
        assert_eq!(paris.len(), 1, "seed {seed}: exactly the original");
        assert_eq!(paris[0].1, "London.E", "seed {seed}: original origin");
        assert!(get("Madrid").is_empty(), "seed {seed}: no spurious deliveries");
        assert_eq!(flood_pruned, 0, "seed {seed}: flood mode never prunes");
        assert!(pruned_edges > 0, "seed {seed}: pruning must actually engage");
    }
}
