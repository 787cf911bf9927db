//! Delivery-equivalence oracle for the alert-policy layer.
//!
//! The lifecycle engine's contract mirrors the pruning one: with every
//! delivery policy off (`AlertPolicyConfig::observe_only`), the engine
//! may track instances and counters but must be behaviourally invisible
//! — for any workload, per-client delivery sets are bit-identical to a
//! run without the engine at all. The oracle replays the figure-style
//! broadcast and aux-rewrite scenarios across five simulator seeds with
//! the engine absent and present, demands identical delivery sets, and
//! pins non-vacuity twice over: the expected notifications arrived, and
//! the observe-only run really ran the engine (instances fired). Both
//! scenarios run on the paper's XML wire and on the v2 wire, which
//! batches, and a third publishes a burst in one instant so that its
//! events really share batch frames — policies behind batch frames is
//! what the benchmark's `production_churn` workload deploys.

use gsa_core::{AlertPolicyConfig, System, SystemConfig, WireFormat};
use gsa_gds::figure2_tree;
use gsa_greenstone::{CollectionConfig, SubCollectionRef};
use gsa_simnet::NodeId;
use gsa_store::SourceDocument;
use gsa_types::{ClientId, CollectionId, SimTime};
use std::collections::BTreeMap;

const SEEDS: [u64; 5] = [11, 12, 13, 14, 15];

/// The wire configurations every scenario is replayed on.
fn wires() -> [WireFormat; 2] {
    [WireFormat::Xml, WireFormat::Binary]
}

/// An empty deployment on `wire` with `policies` on every server.
fn deployment(seed: u64, wire: WireFormat, policies: Option<AlertPolicyConfig>) -> System {
    let config = SystemConfig {
        wire,
        alert_policies: policies,
        ..SystemConfig::default()
    };
    System::with_config(seed, config)
}

fn doc(id: &str) -> SourceDocument {
    SourceDocument::new(id, "fresh content")
}

/// One watcher's delivered notifications, reduced to a comparable form:
/// (profile, announced origin, event sequence, matched doc count),
/// sorted so ordering differences between runs cannot matter.
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

/// Figure-2 broadcast scenario (the prune-oracle shape): publishers on
/// two branches, watchers with host-anchored, collection-anchored,
/// unanchorable and never-matching profiles across the rest of the
/// tree. Returns the delivery sets plus the `alerts.firing` counter.
fn broadcast_run(
    seed: u64,
    wire: &WireFormat,
    policies: Option<AlertPolicyConfig>,
) -> (Delivered, u64) {
    let mut system = deployment(seed, *wire, policies);
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

    system.rebuild("Hamilton", "D", vec![doc("d1")]).unwrap();
    system.run_until(SimTime::from_secs(20));
    system.rebuild("London", "E", vec![doc("e1")]).unwrap();
    system.run_until(SimTime::from_secs(35));
    system.rebuild("Hamilton", "D", vec![doc("d2")]).unwrap();
    system.run_until_quiet(SimTime::from_secs(120));

    let delivered = drain(&mut system, &watchers);
    let firing = system.metrics().counter("alerts.firing");
    (delivered, firing)
}

#[test]
fn observe_only_broadcast_delivers_exactly_the_baseline_sets() {
    for (wire, seed) in wires().iter().flat_map(|w| SEEDS.map(|s| (w, s))) {
        let (baseline, baseline_firing) = broadcast_run(seed, wire, None);
        let (observed, observed_firing) =
            broadcast_run(seed, wire, Some(AlertPolicyConfig::observe_only()));
        assert_eq!(
            baseline, observed,
            "seed {seed}, {wire:?}: observe-only delivery sets diverged from the baseline"
        );
        // Not vacuous, part 1: the expected matches arrived and the
        // never-matching watcher stayed silent.
        let count = |host: &str| observed[host].len();
        assert_eq!(count("Paris"), 2, "seed {seed}: both Hamilton rebuilds");
        assert_eq!(count("Berlin"), 1, "seed {seed}: the London rebuild");
        assert_eq!(count("Oslo"), 3, "seed {seed}: wildcard watcher sees all");
        assert_eq!(count("Madrid"), 0, "seed {seed}: no spurious deliveries");
        // Not vacuous, part 2: the engine really ran in the observed
        // pass — every delivery opened (or re-observed) an instance.
        assert_eq!(baseline_firing, 0, "seed {seed}: no engine, no instances");
        assert!(
            observed_firing > 0,
            "seed {seed}: observe-only must actually track instances"
        );
        // Observation alone suppresses nothing.
        assert_eq!(
            broadcast_suppressed(seed),
            0,
            "seed {seed}: observe-only must not suppress"
        );
    }
}

/// The `alerts.suppressed` counter after an observe-only broadcast run.
fn broadcast_suppressed(seed: u64) -> u64 {
    let mut system = deployment(seed, WireFormat::Xml, Some(AlertPolicyConfig::observe_only()));
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("Paris", "gds-5");
    system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
    let client = system.add_client("Paris");
    system
        .subscribe_text("Paris", client, r#"host = "Hamilton""#)
        .unwrap();
    system.run_until_quiet(SimTime::from_secs(5));
    system.rebuild("Hamilton", "D", vec![doc("d1")]).unwrap();
    system.rebuild("Hamilton", "D", vec![doc("d2")]).unwrap();
    system.run_until_quiet(SimTime::from_secs(60));
    system.metrics().counter("alerts.suppressed")
}

/// Figure-3 scenario: Hamilton.D includes London.E, so a rebuild of E
/// is announced twice — the original origin and the rewritten
/// super-collection origin. The policy layer sits between matching and
/// the mailbox on *both* paths (GDS delivery and local rewrite), so
/// this pins the aux-forwarding pipeline too. Returns the delivery
/// sets, `alerts.firing` and how the event frames left.
fn aux_rewrite_run(
    seed: u64,
    wire: &WireFormat,
    policies: Option<AlertPolicyConfig>,
) -> (Delivered, u64, Coalescing) {
    let mut system = deployment(seed, *wire, policies);
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

    system.sim_mut().enable_trace();
    system.rebuild("London", "E", vec![doc("e1")]).unwrap();
    system.run_until_quiet(SimTime::from_secs(90));

    let delivered = drain(&mut system, &watchers);
    let firing = system.metrics().counter("alerts.firing");
    (delivered, firing, Coalescing::of(&system))
}

/// How a traced run's event frames left: `wire.batch.coalesced`, the
/// batch frames, and the GDS frames that carry events (publish,
/// forward, deliver or batch) on each edge in each send instant.
struct Coalescing {
    coalesced: u64,
    batches: usize,
    per_edge_instant: BTreeMap<(NodeId, NodeId, SimTime), usize>,
}

impl Coalescing {
    /// Each wire coalesces by its rule. XML never does. v2 coalesces
    /// whenever two event frames share an edge and an instant, so no
    /// edge carries two event frames sent in one instant, and the
    /// counter moves exactly when a batch flew.
    fn assert_rule(&self, seed: u64, wire: &WireFormat) {
        if *wire == WireFormat::Xml {
            assert_eq!(
                (self.coalesced, self.batches),
                (0, 0),
                "seed {seed}: XML coalesces nothing"
            );
        } else {
            assert!(
                self.per_edge_instant.values().all(|&n| n == 1),
                "seed {seed}: two event frames left one edge in one instant apart"
            );
            assert_eq!(
                self.coalesced > 0,
                self.batches > 0,
                "seed {seed}: the counter moves exactly when a batch flies"
            );
        }
    }

    fn of(system: &System) -> Self {
        let mut out = Coalescing {
            coalesced: system.metrics().counter("wire.batch.coalesced"),
            batches: 0,
            per_edge_instant: BTreeMap::new(),
        };
        for e in system.sim().trace() {
            let Some(body) = e.summary.strip_prefix("Gds(") else {
                continue;
            };
            let kinds = ["Publish", "Broadcast", "Route", "Deliver", "Batch"];
            if kinds.iter().any(|k| body.starts_with(k)) {
                out.batches += usize::from(body.starts_with("Batch"));
                *out.per_edge_instant
                    .entry((e.from, e.to, e.sent_at))
                    .or_default() += 1;
            }
        }
        out
    }
}

#[test]
fn observe_only_aux_rewrite_delivers_exactly_the_baseline_sets() {
    for (wire, seed) in wires().iter().flat_map(|w| SEEDS.map(|s| (w, s))) {
        let (baseline, baseline_firing, _) = aux_rewrite_run(seed, wire, None);
        let (observed, observed_firing, coalescing) =
            aux_rewrite_run(seed, wire, Some(AlertPolicyConfig::observe_only()));
        assert_eq!(
            baseline, observed,
            "seed {seed}, {wire:?}: observe-only aux-rewrite deliveries diverged"
        );
        let get = |host: &str| &observed[host];
        let berlin = get("Berlin");
        assert_eq!(berlin.len(), 1, "seed {seed}: exactly the rewrite");
        assert_eq!(berlin[0].1, "Hamilton.D", "seed {seed}: rewritten origin");
        let paris = get("Paris");
        assert_eq!(paris.len(), 1, "seed {seed}: exactly the original");
        assert_eq!(paris[0].1, "London.E", "seed {seed}: original origin");
        assert!(
            get("Madrid").is_empty(),
            "seed {seed}: no spurious deliveries"
        );
        assert_eq!(baseline_firing, 0, "seed {seed}: no engine, no instances");
        assert!(
            observed_firing > 0,
            "seed {seed}: observe-only must actually track instances"
        );
        // Part 3: each wire coalesces by its rule. The two
        // announcements leave their servers apart, so on these seeds
        // nothing shares an edge and an instant and no batch flies.
        coalescing.assert_rule(seed, wire);
    }
}

/// Policies behind batch frames: Hamilton rebuilds twice in one
/// instant, so on XML the two events share the frames' edges and send
/// instants all along the flood, and on v2 they share the frames. The
/// observe-only deliveries equal the baseline's on both wires.
#[test]
fn observe_only_burst_delivers_the_baseline_sets_behind_batch_frames() {
    let run = |seed: u64, wire: &WireFormat, policies: Option<AlertPolicyConfig>| {
        let mut system = deployment(seed, *wire, policies);
        system.add_gds_topology(&figure2_tree());
        system.add_server("Hamilton", "gds-4");
        system.add_server("Paris", "gds-5");
        system.add_server("Madrid", "gds-7");
        system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
        let mut watchers = Vec::new();
        for (host, profile) in [
            ("Paris", r#"host = "Hamilton""#),
            ("Madrid", r#"host = "Nowhere""#),
        ] {
            let client = system.add_client(host);
            system.subscribe_text(host, client, profile).unwrap();
            watchers.push((host, client));
        }
        system.run_until_quiet(SimTime::from_secs(5));
        system.sim_mut().enable_trace();
        system.rebuild("Hamilton", "D", vec![doc("d1")]).unwrap();
        system.rebuild("Hamilton", "D", vec![doc("d2")]).unwrap();
        system.run_until_quiet(SimTime::from_secs(60));
        let firing = system.metrics().counter("alerts.firing");
        (
            drain(&mut system, &watchers),
            firing,
            Coalescing::of(&system),
        )
    };
    for (wire, seed) in wires().iter().flat_map(|w| SEEDS.map(|s| (w, s))) {
        let (baseline, _, _) = run(seed, wire, None);
        let (observed, firing, coalescing) =
            run(seed, wire, Some(AlertPolicyConfig::observe_only()));
        assert_eq!(
            baseline, observed,
            "seed {seed}, {wire:?}: observe-only burst deliveries diverged"
        );
        assert_eq!(observed["Paris"].len(), 2, "seed {seed}: both rebuilds");
        assert!(
            observed["Madrid"].is_empty(),
            "seed {seed}: no spurious deliveries"
        );
        assert!(
            firing > 0,
            "seed {seed}: observe-only must actually track instances"
        );
        coalescing.assert_rule(seed, wire);
        let shared = if *wire == WireFormat::Xml {
            coalescing.per_edge_instant.values().any(|&n| n > 1)
        } else {
            coalescing.batches > 0
        };
        assert!(
            shared,
            "seed {seed}, {wire:?}: the burst shared edges and instants"
        );
    }
}
