//! The paper's claims (DESIGN.md §2) as assertions.
//!
//! Every row of DESIGN.md §2 that the simulator can decide is measured
//! here on a fixed seed set and asserted by its *shape* — who is exact,
//! what grows with what, which side of a ratio wins — never by a number
//! a harmless change could move. F1–F3 are the `figure*` tests. E1 and
//! E3 are timed claims: their numbers are the rebuild → mailbox
//! benchmark's `paper_match` layer metrics (`core.alerting_overhead_ratio`,
//! `filter.match_ns`), and only their structural precondition is
//! asserted here. The engineering sweeps E4b, E6-prune and E9 are pinned
//! by the shapes their experiments stand on.
//!
//! Each claim is measured once per test binary and rendered as one row
//! of the claim table in EXPERIMENTS.md; `claim_table_matches_experiments_md`
//! fails when the document and the measurement disagree, and prints the
//! block the document should hold.

use gsa_core::aux::AUX_RETRY_INTERVAL;
use gsa_core::{AlertPolicyConfig, InterestMode, SysMessage, System, SystemConfig, WireFormat};
use gsa_filter::FilterEngine;
use gsa_gds::{balanced_tree, figure2_tree, GdsMessage, GdsTopology};
use gsa_greenstone::{CollectionConfig, SubCollectionRef};
use gsa_profile::parse_profile;
use gsa_simnet::LinkConfig;
use gsa_types::{
    keys, ClientId, CollectionId, DocSummary, Event, EventId, EventKind, HostName, MessageId,
    MetadataRecord, ProfileId, SimDuration, SimTime,
};
use gsa_wire::codec::event_to_xml;
use gsa_wire::Payload;
use gsa_workload::{
    run_scheme, ChurnEvent, DocumentGenerator, FaultPlan, FaultPlanParams, GsWorld, Oracle,
    ProfileMix, ProfilePopulation, Quality, RebuildSchedule, RunConfig, RunOutcome, Scheme,
    WorldParams,
};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// One row of the claim table: what was measured, and the shape checks
/// the measurement must pass.
struct Claim {
    id: &'static str,
    claim: &'static str,
    measured: String,
    /// `(what, holds)`; `what` carries the numbers a failure needs.
    checks: Vec<(String, bool)>,
}

impl Claim {
    fn new(id: &'static str, claim: &'static str) -> Self {
        Claim {
            id,
            claim,
            measured: String::new(),
            checks: Vec::new(),
        }
    }

    fn check(&mut self, what: String, holds: bool) {
        self.checks.push((what, holds));
    }

    fn verdict(&self) -> &'static str {
        if self.checks.iter().all(|(_, holds)| *holds) {
            "holds"
        } else {
            "**fails**"
        }
    }

    /// Asserts every check whose description starts with `scope` (all of
    /// them for `""`), and that there is at least one.
    fn assert_holds(&self, scope: &str) {
        let scoped: Vec<&(String, bool)> = self
            .checks
            .iter()
            .filter(|(what, _)| what.starts_with(scope))
            .collect();
        assert!(!scoped.is_empty(), "{}: no check under {scope:?}", self.id);
        let failed: Vec<&str> = scoped
            .iter()
            .filter(|(_, holds)| !holds)
            .map(|(what, _)| what.as_str())
            .collect();
        assert!(
            failed.is_empty(),
            "{} does not hold — {}\nmeasured: {}\nfailed: {failed:#?}",
            self.id,
            self.claim,
            self.measured
        );
    }
}

fn classify(
    world: &GsWorld,
    population: &ProfilePopulation,
    schedule: &RebuildSchedule,
    outcome: &RunOutcome,
) -> Quality {
    Oracle::build(
        world,
        population,
        schedule,
        &outcome.cancels,
        &outcome.partitions,
        SimDuration::from_secs(5),
    )
    .classify(&outcome.deliveries)
}

fn exact(q: &Quality) -> bool {
    q.false_positives == 0 && q.false_negatives == 0 && q.duplicates == 0
}

// ---------------------------------------------------------------- E1/E3

/// E1/E3: the equality-preferred filter never scans an equality-anchored
/// profile, whatever the population size.
fn e1_e3() -> &'static Claim {
    static CELL: OnceLock<Claim> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut c = Claim::new(
            "E1/E3",
            "the build extends insignificantly (§8) because the equality-preferred filter \
             (§5) never scans an equality-anchored profile; the timed halves are `paper_match`'s \
             `core.alerting_overhead_ratio` and `filter.match_ns`",
        );
        let world = GsWorld::generate(&WorldParams {
            seed: 41,
            servers: 100,
            ..WorldParams::default()
        });
        let mut scans = Vec::new();
        for count in [100usize, 1_000, 10_000] {
            let population =
                ProfilePopulation::generate(42, &world, count, &ProfileMix::equality_only());
            let mut engine = FilterEngine::new();
            for (i, (_, _, expr)) in population.profiles.iter().enumerate() {
                engine
                    .insert(ProfileId::from_raw(i as u64), expr)
                    .expect("indexable");
            }
            let stats = engine.stats();
            c.check(
                format!("{count} profiles: {stats}"),
                stats.profiles == count && stats.scan_conjunctions == 0,
            );
            scans.push(stats.scan_conjunctions.to_string());
        }
        c.measured = format!(
            "scan set {} at 10² / 10³ / 10⁴ equality profiles",
            scans.join(" / ")
        );
        c
    })
}

#[test]
fn e1_e3_equality_anchored_profiles_are_never_scanned() {
    e1_e3().assert_holds("");
}

// ------------------------------------------------------------------- E2

/// One GDS broadcast over the directory tree `world.gds_tree(fanout)`
/// builds, with every other server subscribed to the publisher.
struct Broadcast {
    messages: u64,
    directory_nodes: usize,
    depth: u8,
    /// Notifications per subscriber.
    counts: Vec<usize>,
    mean_latency_us: u64,
}

fn broadcast(servers: usize, fanout: usize) -> Broadcast {
    let world = GsWorld::generate(&WorldParams {
        seed: 5,
        servers,
        ..WorldParams::default()
    });
    let (topo, assignment) = world.gds_tree(fanout);
    let mut system = System::new(9);
    system.add_gds_topology(&topo);
    for (host, gds) in &assignment {
        system.add_server(host.as_str(), gds.as_str());
    }
    for host in &world.hosts {
        system.add_collection(host.as_str(), CollectionConfig::simple("c", "c"));
    }
    let publisher = world.hosts[0].as_str().to_string();
    for (i, host) in world.hosts.iter().enumerate().skip(1) {
        system
            .subscribe_text(
                host.as_str(),
                ClientId::from_raw(i as u64),
                &format!(r#"host = "{publisher}""#),
            )
            .expect("profile");
    }
    system.run_until_quiet(SimTime::from_secs(10));
    let sent_before = system.metrics().counter("net.sent");
    let publish_at = system.now();
    system
        .rebuild(
            &publisher,
            "c",
            DocumentGenerator::new(11).documents("d", 5),
        )
        .expect("rebuild");
    system.run_until_quiet(publish_at + SimDuration::from_secs(60));
    let sent = system.metrics().counter("net.sent") - sent_before;
    let mut counts = Vec::new();
    let mut latency_us = 0;
    for (i, host) in world.hosts.iter().enumerate().skip(1) {
        let inbox = system.take_notifications(host.as_str(), ClientId::from_raw(i as u64));
        latency_us += inbox
            .iter()
            .map(|n| (n.at - publish_at).as_micros())
            .sum::<u64>();
        counts.push(inbox.len());
    }
    let delivered = counts.iter().sum::<usize>().max(1) as u64;
    Broadcast {
        messages: sent,
        directory_nodes: topo.len(),
        depth: topo.specs().iter().map(|s| s.stratum).max().unwrap_or(0),
        counts,
        mean_latency_us: latency_us / delivered,
    }
}

/// The flood payload of the scale cell and E6-prune: a one-document
/// import, issued at `at`.
fn import_payload(publisher: &HostName, seq: u64, at: SimTime) -> Payload {
    let mut md = MetadataRecord::new();
    md.add(keys::TITLE, format!("Bulk import {seq}"));
    md.add(keys::CREATOR, "Witten, I.");
    let event = Event::new(
        EventId::new(publisher.clone(), seq),
        CollectionId::new(publisher.clone(), "D"),
        EventKind::DocumentsAdded,
        at,
    )
    .with_docs(vec![DocSummary::new(format!("doc-{seq}"))
        .with_metadata(md)
        .with_excerpt("an excerpt of the imported document text")]);
    Payload::from(event_to_xml(&event))
}

/// The deepest directory node of a tree, where a storm's publisher sits.
fn deepest_node(topo: &GdsTopology) -> HostName {
    topo.specs()
        .iter()
        .max_by_key(|s| s.stratum)
        .expect("non-empty tree")
        .name
        .clone()
}

/// Floods `events` publishes from `publisher` (attached at `origin`) in
/// bursts of `burst` every 10 ms, then drains.
fn storm(system: &mut System, publisher: &HostName, origin: &HostName, events: u64, burst: u64) {
    let from = system.sim().node_id(publisher.as_str()).expect("publisher");
    let to = system.sim().node_id(origin.as_str()).expect("origin");
    for seq in 1..=events {
        let payload = import_payload(publisher, seq, system.now());
        system.sim_mut().inject(
            from,
            to,
            SysMessage::Gds(GdsMessage::Publish {
                id: MessageId::from_raw(seq),
                payload,
            }),
        );
        if seq % burst == 0 {
            let next = system.now() + SimDuration::from_millis(10);
            system.run_until(next);
        }
    }
    let drain = system.now() + SimDuration::from_secs(5);
    system.run_until_quiet(drain);
}

/// A storm over a 40-node tree on the v2 wire, four watchers holding a
/// thousand cold profiles between them and one hot profile each: the
/// per-watcher notification counts.
fn scale_cell(events: u64) -> Vec<usize> {
    let topo = balanced_tree(3, 4);
    let v2 = SystemConfig { wire: WireFormat::Binary, ..SystemConfig::default() };
    let mut system = System::with_config(0xE7, v2);
    system.add_gds_topology(&topo);
    let publisher = HostName::new("Hamilton");
    let origin = deepest_node(&topo);
    system.add_server(publisher.as_str(), origin.as_str());
    let mut watchers = Vec::new();
    for (w, spec) in topo
        .specs()
        .iter()
        .step_by(topo.len() / 4)
        .take(4)
        .enumerate()
    {
        let host = format!("watcher-{w}");
        system.add_server(&host, spec.name.as_str());
        for i in 0..249 {
            system
                .subscribe_text(
                    &host,
                    ClientId::from_raw((w * 1_000 + i) as u64),
                    &format!(r#"host = "cold-{w}-{i}""#),
                )
                .expect("cold profile");
        }
        let hot = system.add_client(&host);
        system
            .subscribe_text(&host, hot, r#"host = "Hamilton""#)
            .expect("hot profile");
        watchers.push((host, hot));
    }
    system.run_until_quiet(SimTime::from_secs(5));
    storm(&mut system, &publisher, &origin, events, 32);
    watchers
        .iter()
        .map(|(host, client)| system.take_notifications(host, *client).len())
        .collect()
}

/// E2: GDS alerting scales — flooding reaches everyone once, at a
/// constant number of messages per server.
fn e2() -> &'static Claim {
    static CELL: OnceLock<Claim> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut c = Claim::new(
            "E2",
            "GDS alerting scales (§8): one broadcast costs ≤ 1.5 messages per server and \
             reaches every subscriber exactly once; latency does not fall as the tree deepens",
        );
        let mut per_server = Vec::new();
        let mut latency = Vec::new();
        for servers in [20usize, 40, 160] {
            let mut by_depth = Vec::new();
            for fanout in [2usize, 8] {
                let b = broadcast(servers, fanout);
                let ratio = b.messages as f64 / servers as f64;
                // Flooding by design: one publish, one message per tree
                // edge, one delivery per other server.
                c.check(
                    format!(
                        "{servers} servers, fanout {fanout}: {} messages over {} directory nodes",
                        b.messages, b.directory_nodes
                    ),
                    b.messages == (servers + b.directory_nodes - 1) as u64 && ratio <= 1.5,
                );
                c.check(
                    format!(
                        "{servers} servers, fanout {fanout}: notifications {:?}",
                        b.counts
                    ),
                    b.counts.iter().all(|n| *n == 1),
                );
                per_server.push(ratio);
                by_depth.push((b.depth, b.mean_latency_us));
            }
            by_depth.sort_unstable();
            c.check(
                format!("{servers} servers: (depth, mean latency µs) {by_depth:?}"),
                by_depth.windows(2).all(|w| w[0].1 <= w[1].1),
            );
            latency.push(format!(
                "{servers} servers {:.1} / {:.1} ms at depth {} / {}",
                by_depth[0].1 as f64 / 1e3,
                by_depth[1].1 as f64 / 1e3,
                by_depth[0].0,
                by_depth[1].0
            ));
        }
        let events = 96;
        let counts = scale_cell(events);
        c.check(
            format!("40 nodes, 10³ profiles, v2 wire: watcher counts {counts:?}"),
            counts.iter().all(|n| *n == events as usize),
        );
        let (lo, hi) = per_server
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), r| (lo.min(*r), hi.max(*r)));
        c.measured = format!(
            "{lo:.2}–{hi:.2} messages per server over 20–160 servers, every subscriber notified \
             once; mean latency {}; 96 events × 4 watchers exact on 40 nodes with 10³ \
             profiles, all but 4 cold (v2 wire)",
            latency.join(", ")
        );
        c
    })
}

#[test]
fn e2_broadcast_cost_is_linear_and_delivery_exactly_once() {
    e2().assert_holds("");
}

// ------------------------------------------------------------------- E4

/// The randomized whole-system worlds: 16 servers, fragmented, cyclic,
/// with private collections.
fn hybrid_seed(seed: u64, with_churn: bool) -> Quality {
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
    let churn = if with_churn {
        ChurnEvent::schedule(seed + 3, &world, 2, 8, population.len(), horizon)
    } else {
        Vec::new()
    };
    let outcome = run_scheme(
        Scheme::Hybrid,
        &world,
        &population,
        &schedule,
        &churn,
        &RunConfig {
            seed: seed + 4,
            drain: SimDuration::from_secs(60),
            ..RunConfig::default()
        },
    );
    classify(&world, &population, &schedule, &outcome)
}

/// E4: the hybrid is the only exact scheme.
fn e4() -> &'static Claim {
    static CELL: OnceLock<Claim> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut c = Claim::new(
            "E4",
            "the §2 baselines fail on a fragmented, cyclic network: only the hybrid has \
             0 false positives, 0 false negatives and 0 duplicates",
        );
        for (label, seeds, churn) in [
            ("calm", [101, 202, 303], false),
            ("churn", [404, 505, 606], true),
        ] {
            for seed in seeds {
                let q = hybrid_seed(seed, churn);
                c.check(
                    format!("{label} seed {seed}: {q}"),
                    exact(&q) && q.expected > 0,
                );
            }
        }
        let seed = 900;
        let world = GsWorld::generate(&WorldParams {
            seed,
            servers: 16,
            ..WorldParams::default()
        });
        let population = ProfilePopulation::generate(seed + 1, &world, 40, &ProfileMix::default());
        let schedule =
            RebuildSchedule::generate(seed + 2, &world, 25, SimDuration::from_secs(60), 3);
        let quality: Vec<(Scheme, Quality)> = Scheme::ALL
            .into_iter()
            .map(|scheme| {
                let outcome = run_scheme(
                    scheme,
                    &world,
                    &population,
                    &schedule,
                    &[],
                    &RunConfig::default(),
                );
                (scheme, classify(&world, &population, &schedule, &outcome))
            })
            .collect();
        let hybrid = quality[0].1;
        c.check(
            format!("world {seed} {}: {hybrid}", Scheme::Hybrid),
            exact(&hybrid) && hybrid.recall() == 1.0,
        );
        let mut baselines = Vec::new();
        for (scheme, q) in &quality[1..] {
            c.check(format!("world {seed} {scheme}: {q}"), !exact(q));
            if matches!(scheme, Scheme::GsFlood | Scheme::Rendezvous) {
                c.check(
                    format!(
                        "world {seed} {scheme} recall {:.3} below the hybrid's",
                        q.recall()
                    ),
                    q.recall() < hybrid.recall(),
                );
            }
            baselines.push(format!(
                "{scheme} {}/{}/{}",
                q.false_positives, q.false_negatives, q.duplicates
            ));
        }
        c.measured = format!(
            "FP/FN/dup: hybrid 0/0/0 on 7 worlds (3 with churn); {}",
            baselines.join(", ")
        );
        c
    })
}

#[test]
fn hybrid_is_exact_without_churn_across_seeds() {
    e4().assert_holds("calm");
}

#[test]
fn hybrid_is_exact_with_churn_across_seeds() {
    e4().assert_holds("churn");
}

#[test]
fn baselines_are_strictly_worse_on_fragmented_worlds() {
    e4().assert_holds("world");
}

// ------------------------------------------------------------------ E4b

/// E4b: under loss bursts, directory crashes and partition waves the
/// reliable hybrid stays exact, and durable state keeps every
/// subscription through hard server crashes.
fn e4b() -> &'static Claim {
    static CELL: OnceLock<Claim> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut c = Claim::new(
            "E4b",
            "under chaos the reliable hybrid stays exact where the best-effort one loses; \
             with durable state a hard server crash loses no subscription, without it some",
        );
        let world = GsWorld::generate(&WorldParams {
            servers: 10,
            ..WorldParams::small(201)
        });
        let population = ProfilePopulation::generate(202, &world, 20, &ProfileMix::default());
        let horizon = SimDuration::from_secs(30);
        let schedule = RebuildSchedule::generate(203, &world, 8, horizon, 3);
        let fanout = 2;
        let (topo, _) = world.gds_tree(fanout);
        let crashable: Vec<HostName> = topo
            .specs()
            .iter()
            .filter(|s| s.parent.is_some())
            .map(|s| s.name.clone())
            .collect();
        let drop = 0.15;
        let params = FaultPlanParams {
            horizon,
            base_drop: drop,
            burst_drop: drop + 0.3,
            loss_bursts: 1,
            crashes: 1,
            crash_outage: SimDuration::from_secs(8),
            partition_waves: 1,
            partition_length: SimDuration::from_secs(6),
            server_crashes: 1,
            server_outage: SimDuration::from_secs(8),
        };
        let faults = FaultPlan::generate(315, &crashable, &world.hosts, &params);
        let server_faults =
            FaultPlan::generate_with_servers(315, &crashable, &world.hosts, &world.hosts, &params);
        let mut rows = Vec::new();
        for (label, reliable, durable, plan) in [
            ("reliable", true, false, &faults),
            ("best-effort", false, false, &faults),
            ("durable", true, true, &server_faults),
            ("volatile", true, false, &server_faults),
        ] {
            let cfg = RunConfig {
                seed: 204,
                fanout,
                drain: SimDuration::from_secs(45),
                system: SystemConfig {
                    reliable,
                    durable,
                    ..SystemConfig::default()
                },
                base_drop: drop,
                faults: Some(plan.clone()),
            };
            let outcome = run_scheme(Scheme::Hybrid, &world, &population, &schedule, &[], &cfg);
            let q = classify(&world, &population, &schedule, &outcome);
            let lost = outcome.subscribed - outcome.cancels.len() - outcome.stored_client_profiles;
            let holds = match label {
                "reliable" => exact(&q),
                "best-effort" => q.false_negatives > 0,
                "durable" => exact(&q) && lost == 0,
                _ => lost > 0,
            };
            c.check(format!("{label}: {q} lost-subscriptions={lost}"), holds);
            rows.push(format!("{label} {} FN, {lost} lost", q.false_negatives));
        }
        c.measured = format!(
            "10 servers, 15 % loss, one burst, crash and partition wave: {}",
            rows.join("; ")
        );
        c
    })
}

#[test]
fn e4b_reliability_and_durability_repair_what_chaos_breaks() {
    e4b().assert_holds("");
}

// ------------------------------------------------------------------- E5

/// The Figure-3 pair: `Hamilton.D ⊃ London.E`, retrying pending
/// auxiliary operations every two seconds (the default).
fn figure3_world(seed: u64) -> System {
    let mut system = System::new(seed);
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("London", "gds-2");
    system.add_collection("London", CollectionConfig::simple("E", "e"));
    system.add_collection(
        "Hamilton",
        CollectionConfig::simple("D", "d")
            .with_subcollection(SubCollectionRef::new("e", CollectionId::new("London", "E"))),
    );
    system.run_until_quiet(SimTime::from_secs(5));
    system
}

/// E5: a partitioned aux link only delays.
fn e5() -> &'static Claim {
    static CELL: OnceLock<Claim> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut c = Claim::new(
            "E5",
            "a severed super ↔ sub link only delays (§7): no false positive, the notification \
             arrives within one retry interval and one hop of the heal, and a dangling \
             auxiliary profile is reaped",
        );
        let retry = AUX_RETRY_INTERVAL;
        // The first retry after the heal crosses one GS hop, London to
        // Hamilton, on the default link.
        let link = LinkConfig::default();
        let hop = link.base_latency() + link.jitter();
        let mut delays = Vec::new();
        for partition_secs in [0u64, 5, 30, 120] {
            let mut system = figure3_world(100 + partition_secs);
            let client = system.add_client("Hamilton");
            system
                .subscribe_text("Hamilton", client, r#"collection = "Hamilton.D""#)
                .expect("profile");
            system.run_until_quiet(SimTime::from_secs(8));
            let t0 = SimTime::from_secs(10);
            system.run_until(t0);
            if partition_secs > 0 {
                system.set_partition("London", 1);
            }
            system.run_until(t0 + SimDuration::from_secs(1));
            system
                .rebuild("London", "E", DocumentGenerator::new(7).documents("e", 3))
                .expect("rebuild");
            let heal_at = t0 + SimDuration::from_secs(partition_secs.max(1));
            system.run_until(heal_at);
            if partition_secs > 0 {
                system.heal_network();
            }
            system.run_until_quiet(heal_at + SimDuration::from_secs(300));
            let inbox = system.take_notifications("Hamilton", client);
            let about_d = inbox
                .iter()
                .filter(|n| n.event.origin == CollectionId::new("Hamilton", "D"))
                .count();
            let delay = inbox.first().map(|n| n.at.since(heal_at));
            c.check(
                format!(
                    "{partition_secs} s partition: {} notifications, {about_d} about \
                     Hamilton.D, {delay:?} after heal",
                    inbox.len()
                ),
                inbox.len() == 1 && about_d == 1 && delay.is_some_and(|d| d <= retry + hop),
            );
            if partition_secs > 0 {
                delays.push(format!(
                    "{:.1} s after a {partition_secs} s partition",
                    delay.unwrap_or(SimDuration::ZERO).as_secs_f64()
                ));
            }
        }
        // Remove the sub-collection while partitioned: the auxiliary
        // profile dangles on London until the heal, then is deleted.
        let mut system = figure3_world(999);
        let client = system.add_client("Hamilton");
        system
            .subscribe_text("Hamilton", client, r#"collection = "Hamilton.D""#)
            .expect("profile");
        system.run_until_quiet(SimTime::from_secs(8));
        system.set_partition("London", 1);
        system
            .remove_subcollection("Hamilton", "D", "e")
            .expect("restructure");
        system.run_for(SimDuration::from_secs(30));
        let dangling = system.inspect_core("London", |core| core.aux_store().len());
        system.heal_network();
        system.run_for(SimDuration::from_secs(30));
        let after = system.inspect_core("London", |core| core.aux_store().len());
        let pending = system.inspect_core("Hamilton", |core| core.pending_ops().len());
        c.check(
            format!("removal: {dangling} aux profiles during, {after} after, {pending} pending"),
            dangling == 1 && after == 0 && pending == 0,
        );
        c.measured = format!(
            "0 false positives; notified {} (retry interval {:.0} s, one hop ≤ {:.1} ms); a \
             removal's aux profile dangles during the partition and is reaped after it, \
             0 pending",
            delays.join(", "),
            retry.as_secs_f64(),
            hop.as_secs_f64() * 1e3
        );
        c
    })
}

#[test]
fn e5_a_partitioned_aux_link_only_delays() {
    e5().assert_holds("");
}

// ------------------------------------------------------------------- E6

/// E6: a rendezvous node concentrates load.
fn e6() -> &'static Claim {
    static CELL: OnceLock<Claim> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut c = Claim::new(
            "E6",
            "a rendezvous node may become a bottleneck (§2): on a skewed workload its per-node \
             load is more unequal than the hybrid's, by max/mean and by Gini",
        );
        let world = GsWorld::generate(&WorldParams {
            seed: 61,
            servers: 24,
            ..WorldParams::default()
        });
        // Half the profiles and half the rebuilds on one hot collection.
        let hot = world.public_collections()[0].clone();
        let mut population =
            ProfilePopulation::generate(62, &world, 60, &ProfileMix::equality_only());
        for (_, topic, expr) in population.profiles.iter_mut().step_by(2) {
            *topic = hot.clone();
            *expr = parse_profile(&format!(r#"collection = "{hot}""#)).expect("profile");
        }
        let mut schedule = RebuildSchedule::generate(63, &world, 40, SimDuration::from_secs(60), 3);
        for r in schedule.rebuilds.iter_mut().step_by(2) {
            r.collection = hot.clone();
        }
        let load = |scheme| {
            let cfg = RunConfig {
                seed: 64,
                ..RunConfig::default()
            };
            let outcome = run_scheme(scheme, &world, &population, &schedule, &[], &cfg);
            let (max, mean, gini) = outcome.load.expect("load recorded");
            (max as f64 / mean, gini)
        };
        let (hybrid_ratio, hybrid_gini) = load(Scheme::Hybrid);
        let (rdv_ratio, rdv_gini) = load(Scheme::Rendezvous);
        c.check(
            format!("max/mean rendezvous {rdv_ratio:.3} vs hybrid {hybrid_ratio:.3}"),
            rdv_ratio > hybrid_ratio,
        );
        c.check(
            format!("Gini rendezvous {rdv_gini:.3} vs hybrid {hybrid_gini:.3}"),
            rdv_gini > hybrid_gini,
        );
        c.measured = format!(
            "max/mean {rdv_ratio:.2} vs {hybrid_ratio:.2}, Gini {rdv_gini:.3} vs \
             {hybrid_gini:.3} (rendezvous vs hybrid, 24 servers, half the profiles and \
             rebuilds on one collection)"
        );
        c
    })
}

#[test]
fn e6_rendezvous_load_is_more_unequal_than_the_hybrids() {
    e6().assert_holds("");
}

// ------------------------------------------------------------- E6-prune

#[derive(Clone, Copy, PartialEq, Debug)]
enum Locality {
    /// Matching watchers fill exactly the root-child subtree holding
    /// the publisher.
    Clustered,
    /// Matching watchers alternate across the whole tree.
    Uniform,
}

/// What watcher `i` subscribes to: the storm's publisher and kind, the
/// publisher under a kind the storm never produces (only attribute
/// digests can prune it), or a host that never publishes.
fn watcher_profile(i: usize, in_cluster: bool, locality: Locality) -> &'static str {
    const MATCH: &str = r#"host = "Hamilton" AND kind = "documents-added""#;
    const WRONG_ATTR: &str = r#"host = "Hamilton" AND kind = "collection-rebuilt""#;
    const NOTHING: &str = r#"host = "Nowhere" AND kind = "collection-rebuilt""#;
    match locality {
        Locality::Clustered if in_cluster => MATCH,
        Locality::Clustered if i.is_multiple_of(2) => WRONG_ATTR,
        Locality::Clustered => NOTHING,
        Locality::Uniform if i.is_multiple_of(2) => MATCH,
        Locality::Uniform if i % 4 == 1 => WRONG_ATTR,
        Locality::Uniform => NOTHING,
    }
}

/// One E6-prune cell on the Figure-2 tree: per-watcher delivery counts,
/// messages, rendezvous confinements and grants.
fn prune_cell(
    locality: Locality,
    interest: InterestMode,
    events: u64,
) -> (Vec<usize>, u64, u64, u64) {
    let topo = figure2_tree();
    let mut system = System::with_config(611, SystemConfig { interest, ..SystemConfig::default() });
    system.add_gds_topology(&topo);
    let deepest = deepest_node(&topo);
    let publisher = HostName::new("Hamilton");
    system.add_server(publisher.as_str(), deepest.as_str());
    let root = &topo
        .specs()
        .iter()
        .find(|s| s.parent.is_none())
        .expect("rooted tree")
        .name;
    let cluster = topo
        .specs()
        .iter()
        .filter(|s| s.parent.as_ref() == Some(root))
        .map(|s| topo.subtree_of(&s.name))
        .find(|subtree| subtree.contains(&deepest))
        .expect("publisher under a root child");
    let mut watchers = Vec::new();
    for (i, spec) in topo
        .specs()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name != deepest)
    {
        let host = format!("watcher-{}", spec.name.as_str());
        system.add_server(&host, spec.name.as_str());
        let client = system.add_client(&host);
        let profile = watcher_profile(i, cluster.contains(&spec.name), locality);
        system
            .subscribe_text(&host, client, profile)
            .expect("profile");
        watchers.push((host, client));
    }
    system.run_until_quiet(SimTime::from_secs(10));
    let sent_before = system.metrics().counter("net.sent");
    let confined_before = system.metrics().counter("gds.rendezvous_confined");
    storm(&mut system, &publisher, &deepest, events, 8);
    let counts = watchers
        .iter()
        .map(|(host, client)| system.take_notifications(host, *client).len())
        .collect();
    (
        counts,
        system.metrics().counter("net.sent") - sent_before,
        system.metrics().counter("gds.rendezvous_confined") - confined_before,
        system.metrics().counter("gds.rendezvous_grants"),
    )
}

/// E6-prune: each routing layer costs no more messages than the one
/// below it and delivers exactly the same sets.
fn e6_prune() -> &'static Claim {
    static CELL: OnceLock<Claim> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut c = Claim::new(
            "E6-prune",
            "interest summaries and rendezvous grants only remove messages: flood ≥ attr-prune \
             ≥ rendezvous with identical per-watcher deliveries, strictly where interest \
             clusters",
        );
        let events = 16;
        let mut rows = Vec::new();
        for locality in [Locality::Clustered, Locality::Uniform] {
            let (flood, flood_msgs, flood_confined, _) = prune_cell(locality, InterestMode::Flood, events);
            let (attr, attr_msgs, attr_confined, _) = prune_cell(locality, InterestMode::Prune, events);
            let (rdv, rdv_msgs, rdv_confined, grants) =
                prune_cell(locality, InterestMode::PruneWithGrants, events);
            let msgs = format!("{locality:?}: messages {flood_msgs} / {attr_msgs} / {rdv_msgs}");
            c.check(
                format!("{locality:?}: deliveries flood {flood:?} attr {attr:?} rdv {rdv:?}"),
                flood == attr && attr == rdv && flood.contains(&(events as usize)),
            );
            c.check(
                format!("{msgs}, layered"),
                rdv_msgs <= attr_msgs && attr_msgs <= flood_msgs,
            );
            c.check(
                format!("{locality:?}: confined flood {flood_confined} attr {attr_confined}"),
                flood_confined == 0 && attr_confined == 0,
            );
            if locality == Locality::Clustered {
                let saved = 1.0 - attr_msgs as f64 / flood_msgs as f64;
                c.check(
                    format!(
                        "{msgs}, strict, attr-prune saves {:.0} % ≥ 30 %",
                        saved * 100.0
                    ),
                    rdv_msgs < attr_msgs && saved >= 0.30,
                );
                c.check(
                    format!("{locality:?}: {rdv_confined} confined, {grants} grants"),
                    rdv_confined > 0 && grants > 0,
                );
            }
            rows.push(format!(
                "{} {:.1} / {:.1} / {:.1}",
                format!("{locality:?}").to_lowercase(),
                flood_msgs as f64 / events as f64,
                attr_msgs as f64 / events as f64,
                rdv_msgs as f64 / events as f64
            ));
        }
        c.measured = format!(
            "messages per event flood / attr-prune / rendezvous on the Figure-2 tree: {}; \
             every watcher's deliveries identical",
            rows.join(", ")
        );
        c
    })
}

#[test]
fn e6_prune_layers_only_remove_messages() {
    e6_prune().assert_holds("");
}

// ------------------------------------------------------------------- E7

/// E7: profile flooding replicates and orphans; the hybrid does neither.
fn e7() -> &'static Claim {
    static CELL: OnceLock<Claim> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut c = Claim::new(
            "E7",
            "profile flooding costs memory and leaves orphans (§2): it stores more profiles \
             than the hybrid, and a cancel it cannot deliver leaves a replica; the hybrid \
             leaves none",
        );
        let mut rows = Vec::new();
        for servers in [10usize, 20, 40] {
            let world = GsWorld::generate(&WorldParams {
                seed: 51,
                servers,
                p_solitary: 0.3,
                max_island: 8,
                ..WorldParams::default()
            });
            let profiles = servers * 3;
            let population =
                ProfilePopulation::generate(52, &world, profiles, &ProfileMix::equality_only());
            let horizon = SimDuration::from_secs(60);
            let schedule = RebuildSchedule::generate(53, &world, 10, horizon, 2);
            // A third of the profiles cancelled, some during partitions.
            let churn =
                ChurnEvent::schedule(54, &world, 4, profiles / 3, population.len(), horizon);
            let cfg = RunConfig {
                seed: 55,
                ..RunConfig::default()
            };
            let hybrid = run_scheme(Scheme::Hybrid, &world, &population, &schedule, &churn, &cfg);
            let flood = run_scheme(
                Scheme::ProfileFlood,
                &world,
                &population,
                &schedule,
                &churn,
                &cfg,
            );
            c.check(
                format!(
                    "{servers} servers: stored flood {} vs hybrid {}",
                    flood.stored_profiles, hybrid.stored_profiles
                ),
                flood.stored_profiles > hybrid.stored_profiles,
            );
            c.check(
                format!(
                    "{servers} servers: orphans hybrid {} (of {} cancels)",
                    hybrid.orphan_profiles,
                    hybrid.cancels.len()
                ),
                hybrid.orphan_profiles == 0 && !hybrid.cancels.is_empty(),
            );
            if servers == 10 {
                c.check(
                    format!("{servers} servers: orphans flood {}", flood.orphan_profiles),
                    flood.orphan_profiles >= 1,
                );
            }
            rows.push(format!(
                "{servers} servers {:.1}× / {} / {}",
                flood.stored_profiles as f64 / hybrid.stored_profiles as f64,
                flood.orphan_profiles,
                hybrid.orphan_profiles
            ));
        }
        c.measured = format!(
            "stored flood/hybrid, orphans flood, orphans hybrid: {}",
            rows.join("; ")
        );
        c
    })
}

#[test]
fn e7_profile_flooding_replicates_and_orphans_the_hybrid_does_not() {
    e7().assert_holds("");
}

// ------------------------------------------------------------------- E9

/// E9: delivery policies gate notifications, never correctness.
fn e9() -> &'static Claim {
    static CELL: OnceLock<Claim> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut c = Claim::new(
            "E9",
            "alert policies are invisible until they gate: observe-only delivers exactly the \
             baseline, policies off open no instance, dedup suppresses re-firing",
        );
        let world = GsWorld::generate(&WorldParams {
            servers: 6,
            collections_per_server: 1,
            ..WorldParams::small(901)
        });
        let population = ProfilePopulation::generate(902, &world, 12, &ProfileMix::default());
        let schedule = RebuildSchedule::generate(903, &world, 24, SimDuration::from_secs(120), 2);
        let run = |policies: Option<AlertPolicyConfig>| {
            let cfg = RunConfig {
                seed: 904,
                drain: SimDuration::from_secs(90),
                system: SystemConfig {
                    reliable: true,
                    alert_policies: policies,
                    ..SystemConfig::default()
                },
                ..RunConfig::default()
            };
            run_scheme(Scheme::Hybrid, &world, &population, &schedule, &[], &cfg)
        };
        let baseline = run(None);
        let observe = run(Some(AlertPolicyConfig::observe_only()));
        let dedup = run(Some(AlertPolicyConfig::dedup_only()));
        c.check(
            format!(
                "observe-only delivered {} of the baseline's {}",
                observe.deliveries.len(),
                baseline.deliveries.len()
            ),
            observe.deliveries.len() == baseline.deliveries.len()
                && !baseline.deliveries.is_empty(),
        );
        c.check(
            format!("policies off opened {} instances", baseline.alerts_firing),
            baseline.alerts_firing == 0,
        );
        c.check(
            format!("dedup suppressed {}", dedup.alerts_suppressed),
            dedup.alerts_suppressed > 0,
        );
        c.measured = format!(
            "delivered baseline {} / observe {} / dedup {}; {} instances opened under a \
             policy, none without; dedup suppressed {}",
            baseline.deliveries.len(),
            observe.deliveries.len(),
            dedup.deliveries.len(),
            observe.alerts_firing,
            dedup.alerts_suppressed
        );
        c
    })
}

#[test]
fn e9_policies_gate_only_what_they_suppress() {
    e9().assert_holds("");
}

// ---------------------------------------------------------- claim table

const BEGIN: &str = "<!-- paper_claims: begin -->\n";
const END: &str = "<!-- paper_claims: end -->";

fn render() -> String {
    let mut out = String::from(BEGIN);
    out.push_str("| id | claim | measured | verdict |\n|---|---|---|---|\n");
    for c in [
        e1_e3(),
        e2(),
        e4(),
        e4b(),
        e5(),
        e6(),
        e6_prune(),
        e7(),
        e9(),
    ] {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} |",
            c.id,
            c.claim,
            c.measured,
            c.verdict()
        );
    }
    out.push_str(END);
    out
}

#[test]
fn claim_table_matches_experiments_md() {
    let doc = include_str!("../EXPERIMENTS.md");
    let block = doc.find(BEGIN).and_then(|start| {
        doc[start..]
            .find(END)
            .map(|len| &doc[start..start + len + END.len()])
    });
    let expected = render();
    assert!(
        block == Some(expected.as_str()),
        "EXPERIMENTS.md's claim table differs from the measurement; it should read:\n\n\
         {expected}\n"
    );
}
