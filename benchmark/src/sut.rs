//! Every call into the system under test.
//!
//! No other file of the benchmark names a `gsa-*` crate, so a change
//! that reshapes the system's public API ports this file only. The list
//! of public items used here is kept in `README.md` ("SUT API").

use crate::gen::Doc;
use gsa_alerts::AlertEngine;
use gsa_core::actor::BatchConfig;
use gsa_core::{
    AlertPolicyConfig, AlertingCore, ReliabilityConfig, SysMessage, System, WireConfig,
};
use gsa_filter::{FilterEngine, MatchScratch};
use gsa_gds::{figure2_tree, GdsEffects, GdsMessage, GdsNode, GdsTopology};
use gsa_greenstone::collection::EXCERPT_CHARS;
use gsa_greenstone::{CollectionConfig, Server, SubCollectionRef};
use gsa_profile::{interests_of, parse_profile, ProfileExpr};
use gsa_simnet::{Actor, Ctx, LinkConfig, NodeId, Sim};
use gsa_state::{JournalConfig, JournalStateStore, MemMedium, StateStore};
use gsa_store::{DocumentStore, IndexSpec, SourceDocument};
use gsa_types::{
    keys, ClientId, CollectionId, CollectionName, DocSummary, Event, EventId, EventKind, HostName,
    MessageId, MetadataRecord, ProfileId, SimDuration, SimTime,
};
use gsa_wire::binary::{event_to_binary, payload_bytes_from_xml, payload_event_from_bytes};
use gsa_wire::codec::{event_from_xml, event_to_xml};
use gsa_wire::{parse_document, EventProbe, Payload};
use std::hint::black_box;

/// The seed of the system's own RNG (link jitter, drops, retry jitter).
/// Fixed: `--seed` reaches the generator only.
const SYSTEM_SEED: u64 = 0x11;

/// Metadata key carrying the generator's event number on every document,
/// so a notification can be traced back to the publish that caused it
/// whatever identifiers the system assigned on the way.
const STAMP_KEY: &str = "dc.Identifier";

/// Fan-out of the exact breadth-first directory trees.
const FANOUT: usize = 4;

/// Which of the shipped switches a deployment turns on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Switches {
    /// `System::new` defaults: XML wire, nothing opted in.
    Paper,
    /// Binary wire, everything else off.
    V2,
    /// Every shipped switch: batched binary wire, reliability, pruning,
    /// rendezvous, durability, observe-only alert policies.
    Production,
}

/// How a publisher hands documents to its collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Build {
    Import,
    Rebuild,
}

/// One notification as the harness records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Delivery {
    pub client: u64,
    pub event: u32,
    pub at_us: u64,
    /// The event reached the subscriber re-issued under a
    /// super-collection (non-empty provenance).
    pub rewritten: bool,
}

/// A simulated deployment under test.
pub struct Deployment {
    system: System,
}

impl Deployment {
    /// A deployment whose links are all LAN links: `link_base_us` of
    /// latency plus up to 0.2 ms of jitter.
    pub fn new(switches: Switches, link_base_us: u64) -> Self {
        let mut system = System::new(SYSTEM_SEED);
        system.set_default_link(
            LinkConfig::new(SimDuration::from_micros(link_base_us))
                .with_jitter(SimDuration::from_micros(200)),
        );
        match switches {
            Switches::Paper => {}
            Switches::V2 => system.set_wire(WireConfig::v2()),
            Switches::Production => {
                system.set_wire(WireConfig::v2_batched(BatchConfig::default()));
                system.set_reliability(ReliabilityConfig::default());
                system.set_pruning(true);
                system.set_rendezvous(true);
                system.set_durability(true);
                system.set_alert_policies(Some(AlertPolicyConfig::observe_only()));
            }
        }
        Deployment { system }
    }

    /// The seven-node directory tree of the paper's Figure 2.
    pub fn add_figure2_tree(&mut self) {
        self.system.add_gds_topology(&figure2_tree());
    }

    /// An exact `nodes`-node breadth-first tree of fan-out 4: `gds-1` is
    /// the root and node `i` hangs off node `(i - 2) / 4 + 1`.
    pub fn add_exact_tree(&mut self, nodes: usize) {
        let mut topo = GdsTopology::new();
        topo.add("gds-1", 1, None);
        let mut stratum = vec![1u8; nodes + 1];
        for i in 2..=nodes {
            let parent = (i - 2) / FANOUT + 1;
            stratum[i] = stratum[parent] + 1;
            topo.add(
                format!("gds-{i}"),
                stratum[i],
                Some(&format!("gds-{parent}")),
            );
        }
        self.system.add_gds_topology(&topo);
    }

    pub fn add_server(&mut self, host: &str, gds: &str) {
        self.system.add_server(host, gds);
    }

    pub fn add_collection(&mut self, host: &str, name: &str) {
        self.system
            .add_collection(host, CollectionConfig::simple(name, name));
    }

    /// Adds `host.name` with the remote collection `sub_host.sub_name`
    /// as a sub-collection, which plants an auxiliary profile there.
    pub fn add_collection_over(&mut self, host: &str, name: &str, sub_host: &str, sub_name: &str) {
        self.system.add_collection(
            host,
            CollectionConfig::simple(name, name).with_subcollection(SubCollectionRef::new(
                sub_name.to_lowercase(),
                CollectionId::new(sub_host, sub_name),
            )),
        );
    }

    /// Subscribes; `None` when the system refused the profile.
    pub fn subscribe(&mut self, host: &str, client: u64, text: &str) -> Option<u64> {
        self.system
            .subscribe_text(host, ClientId::from_raw(client), text)
            .ok()
            .map(ProfileId::as_u64)
    }

    pub fn unsubscribe(&mut self, host: &str, profile: u64) -> bool {
        self.system.unsubscribe(host, ProfileId::from_raw(profile))
    }

    /// Builds `host.collection` from `batch`; `false` when the system
    /// refused the build.
    pub fn publish(&mut self, how: Build, host: &str, collection: &str, batch: Batch) -> bool {
        match how {
            Build::Import => self.system.import(host, collection, batch.0).is_ok(),
            Build::Rebuild => self.system.rebuild(host, collection, batch.0).is_ok(),
        }
    }

    /// Runs everything scheduled up to `at_us`; returns simulator steps.
    pub fn advance_to(&mut self, at_us: u64) -> usize {
        self.system.run_until(SimTime::from_micros(at_us))
    }

    /// Runs `horizon_ms` of simulated time past the last publish, long
    /// enough for every retransmission to land (the maintenance timers
    /// are periodic, so the queue itself never empties); returns
    /// simulator steps.
    pub fn settle(&mut self, horizon_ms: u64) -> usize {
        self.system.run_for(SimDuration::from_millis(horizon_ms))
    }

    pub fn now_us(&self) -> u64 {
        self.system.now().as_micros()
    }

    pub fn set_link_drop(&mut self, p: f64) {
        self.system.set_drop_probability(p);
    }

    /// Empties one client's mailbox into `out`.
    pub fn drain(&mut self, host: &str, client: u64, out: &mut Vec<Delivery>) {
        for n in self
            .system
            .take_notifications(host, ClientId::from_raw(client))
        {
            let event = n
                .event
                .docs
                .iter()
                .find_map(|d| d.metadata.first(STAMP_KEY))
                .and_then(|s| s.parse().ok())
                .unwrap_or(u32::MAX);
            out.push(Delivery {
                client,
                event,
                at_us: n.at.as_micros(),
                rewritten: !n.event.provenance.is_empty(),
            });
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.system.metrics().counter(name)
    }
}

/// Generated documents in the form the system's build calls take.
pub struct Batch(Vec<SourceDocument>);

impl Batch {
    /// Converts `docs`, stamping each with the event number. Harness
    /// work: the driver accounts it to the generator, not the system.
    pub fn new(docs: &[Doc], event: u32) -> Self {
        Batch(docs.iter().map(|d| source_doc(d, event)).collect())
    }
}

fn source_doc(d: &Doc, event: u32) -> SourceDocument {
    let mut md = MetadataRecord::new();
    md.add(keys::TITLE, d.title.as_str());
    md.add(keys::CREATOR, d.creator.as_str());
    md.add(keys::SUBJECT, d.subject.as_str());
    md.add(STAMP_KEY, event.to_string());
    SourceDocument::new(d.id.as_str(), d.text.as_str()).with_metadata(md)
}

/// The reference computation: the events subscribers should see, built
/// from the generator's documents alone, and `ProfileExpr::matches_event`
/// over them. It shares the profile parser and the matching *semantics*
/// with the system, and none of its indexes, codecs or routing.
#[derive(Default)]
pub struct Oracle {
    events: Vec<Event>,
}

impl Oracle {
    /// Records the event subscribers should see for one publish:
    /// `docs` announced under `host.collection`, plus the ids a rebuild
    /// drops (announced by id only).
    pub fn push(
        &mut self,
        host: &str,
        collection: &str,
        kind: OracleKind,
        docs: &[Doc],
        removed: &[String],
    ) {
        let n = self.events.len() as u32;
        let kind = match kind {
            OracleKind::Rebuilt => EventKind::CollectionRebuilt,
            OracleKind::Added => EventKind::DocumentsAdded,
            OracleKind::Updated => EventKind::DocumentsUpdated,
        };
        let mut summaries: Vec<DocSummary> = docs
            .iter()
            .map(|d| source_doc(d, n).summary(EXCERPT_CHARS))
            .collect();
        summaries.extend(removed.iter().map(|id| DocSummary::new(id.as_str())));
        self.events.push(
            Event::new(
                EventId::new(host, u64::from(n)),
                CollectionId::new(host, collection),
                kind,
                SimTime::ZERO,
            )
            .with_docs(summaries),
        );
    }

    /// Whether `profile` matches event number `event`.
    pub fn matches(&self, profile: &OracleProfile, event: u32) -> bool {
        profile.0.matches_event(&self.events[event as usize])
    }
}

/// A profile text parsed for the oracle.
pub struct OracleProfile(ProfileExpr);

impl OracleProfile {
    /// `None` when the text does not parse.
    pub fn parse(text: &str) -> Option<Self> {
        parse_profile(text).ok().map(OracleProfile)
    }
}

/// The kind of event a build announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    Rebuilt,
    Added,
    Updated,
}

// --- layer micro-measurements ------------------------------------------
//
// Each layer is measured from outside, by timing calls into its public
// functions on fixtures taken from the workload's own generated inputs.
// One method of `Layers` is one call; `layers.rs` owns the timing loop.

/// Events the micro-measurements cycle through.
const FIXTURE_EVENTS: usize = 64;

/// A simulator actor that returns every message to its sender.
struct Bounce;

impl Actor<u64> for Bounce {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        ctx.send(from, msg);
    }
}

/// Standalone instances of each layer, loaded with one subscriber
/// server's share of the workload.
pub struct Layers {
    build: Build,
    /// The first publishes of the workload, as documents and as the
    /// events subscribers see.
    batches: Vec<Vec<SourceDocument>>,
    events: Vec<Event>,
    /// Each event as a frozen v2 payload, and as an XML document string.
    frozen: Vec<Vec<u8>>,
    xml: Vec<String>,
    payloads: Vec<Payload>,
    texts: Vec<String>,
    exprs: Vec<ProfileExpr>,
    engine: FilterEngine,
    scratch: MatchScratch,
    matched: Vec<ProfileId>,
    buf: Vec<u8>,
    next: usize,
    next_id: u64,
    inserted: Vec<u64>,
    node: GdsNode,
    effects: GdsEffects,
    parent: HostName,
    origin: HostName,
    sim: Sim<u64>,
    server: Server,
    collection: CollectionName,
    store: DocumentStore,
    core: AlertingCore,
    journal: JournalStateStore<MemMedium>,
    journal_medium: MemMedium,
    journaled: usize,
    alerts: AlertEngine<u32>,
}

impl Layers {
    /// `publishes` are the workload's first document batches; `texts`
    /// the profile texts of one subscriber server.
    pub fn new(switches: Switches, build: Build, publishes: &[&[Doc]], texts: Vec<String>) -> Self {
        let mut oracle = Oracle::default();
        let kind = match build {
            Build::Rebuild => OracleKind::Rebuilt,
            Build::Import => OracleKind::Added,
        };
        for docs in publishes.iter().take(FIXTURE_EVENTS) {
            oracle.push("Hamilton", "D", kind, docs, &[]);
        }
        let events = oracle.events;
        let batches = (0u32..)
            .zip(publishes.iter().take(FIXTURE_EVENTS))
            .map(|(e, docs)| docs.iter().map(|d| source_doc(d, e)).collect())
            .collect();
        let frozen: Vec<Vec<u8>> = events
            .iter()
            .map(|e| payload_bytes_from_xml(&event_to_xml(e)))
            .collect();
        let xml = events
            .iter()
            .map(|e| event_to_xml(e).to_document_string())
            .collect();
        // What a delivery carries: frozen bytes on the binary wire, the
        // XML tree on the paper's.
        let payloads = events
            .iter()
            .map(|e| {
                let mut p = Payload::from(event_to_xml(e));
                if switches != Switches::Paper {
                    p.freeze();
                }
                p
            })
            .collect();

        let exprs: Vec<ProfileExpr> = texts
            .iter()
            .map(|t| parse_profile(t).expect("generated profiles parse"))
            .collect();
        let mut engine = FilterEngine::new();
        let mut core = AlertingCore::new("watcher", "gds-1");
        if switches == Switches::Production {
            core.set_alert_policies(Some(AlertPolicyConfig::observe_only()));
        }
        for (i, expr) in (0u64..).zip(&exprs) {
            engine
                .insert(ProfileId::from_raw(i), expr)
                .expect("generated profiles index");
            core.subscribe(ClientId::from_raw(i), expr.clone())
                .expect("generated profiles index");
        }

        let parent = HostName::new("gds-1");
        let mut node = GdsNode::new("gds-2", 2, Some(parent.clone()));
        for child in 0..FANOUT {
            node.add_child(format!("gds-{}", 3 + child));
        }

        let mut sim = Sim::new(SYSTEM_SEED);
        let a = sim.add_node("a", Bounce);
        let b = sim.add_node("b", Bounce);
        sim.inject(a, b, 0);

        let collection = CollectionName::new("D");
        let mut server = Server::new("Hamilton");
        server
            .add_collection(CollectionConfig::simple("D", "D"))
            .expect("first collection of the server");
        let journal_medium = MemMedium::new();

        Layers {
            build,
            batches,
            events,
            frozen,
            xml,
            payloads,
            texts,
            exprs,
            engine,
            scratch: MatchScratch::new(),
            matched: Vec::new(),
            buf: Vec::new(),
            next: 0,
            next_id: 1 << 32,
            inserted: Vec::new(),
            node,
            effects: GdsEffects::default(),
            parent,
            origin: HostName::new("Hamilton"),
            sim,
            server,
            collection,
            store: DocumentStore::new(vec![IndexSpec::full_text("text")], Vec::new()),
            core,
            journal: JournalStateStore::new(journal_medium.clone(), JournalConfig::default()),
            journal_medium,
            journaled: 0,
            alerts: AlertEngine::new(AlertPolicyConfig::observe_only()),
        }
    }

    /// The next fixture index, round-robin.
    fn turn(&mut self) -> usize {
        self.next += 1;
        self.next % self.events.len()
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    pub fn wire_encode_v2(&mut self) {
        let i = self.turn();
        self.buf.clear();
        event_to_binary(&self.events[i], &mut self.buf);
        black_box(&self.buf);
    }

    pub fn wire_decode_v2(&mut self) {
        let i = self.turn();
        black_box(payload_event_from_bytes(&self.frozen[i]).expect("own encoding decodes"));
    }

    /// Opens a probe and walks every document and metadata pair.
    pub fn wire_probe_walk(&mut self) {
        let i = self.turn();
        let mut probe = EventProbe::from_payload(&self.frozen[i])
            .expect("own encoding probes")
            .expect("an event payload");
        let mut pairs = 0;
        while let Some(doc) = probe.next_doc().expect("own encoding walks") {
            pairs += doc.metadata().count();
        }
        black_box(pairs);
    }

    pub fn wire_encode_xml(&mut self) {
        let i = self.turn();
        black_box(event_to_xml(&self.events[i]).to_document_string());
    }

    pub fn wire_decode_xml(&mut self) {
        let i = self.turn();
        let el = parse_document(&self.xml[i]).expect("own encoding parses");
        black_box(event_from_xml(&el).expect("own encoding decodes"));
    }

    pub fn wire_v2_bytes_per_event(&self) -> f64 {
        self.frozen.iter().map(Vec::len).sum::<usize>() as f64 / self.frozen.len() as f64
    }

    pub fn wire_xml_bytes_per_event(&self) -> f64 {
        self.xml.iter().map(String::len).sum::<usize>() as f64 / self.xml.len() as f64
    }

    pub fn filter_match(&mut self) {
        let i = self.turn();
        self.engine
            .matches_into(&self.events[i], &mut self.scratch, &mut self.matched);
        black_box(&self.matched);
    }

    pub fn filter_probe(&mut self) {
        let i = self.turn();
        let mut probe = EventProbe::from_payload(&self.frozen[i])
            .expect("own encoding probes")
            .expect("an event payload");
        black_box(
            self.engine
                .probe_matches(&mut probe, &mut self.scratch)
                .expect("own encoding walks"),
        );
    }

    /// Inserts one more profile of the population under a fresh id.
    pub fn filter_insert(&mut self) {
        let i = self.turn() % self.exprs.len();
        let id = self.fresh_id();
        self.engine
            .insert(ProfileId::from_raw(id), &self.exprs[i])
            .expect("generated profiles index");
        self.inserted.push(id);
    }

    /// Removes a profile an earlier `filter_insert` added; call the two
    /// in equal numbers, inserts first.
    pub fn filter_remove(&mut self) {
        let id = self.inserted.pop().expect("an insert to undo");
        black_box(self.engine.remove(ProfileId::from_raw(id)));
    }

    pub fn filter_index_entries(&self) -> f64 {
        self.engine.stats().index_entries as f64
    }

    pub fn filter_scan_conjunctions(&self) -> f64 {
        self.engine.stats().scan_conjunctions as f64
    }

    pub fn profile_parse(&mut self) {
        let i = self.turn() % self.texts.len();
        black_box(parse_profile(&self.texts[i]).expect("generated profiles parse"));
    }

    pub fn profile_interests(&mut self) {
        let i = self.turn() % self.exprs.len();
        black_box(interests_of(&self.exprs[i]));
    }

    /// One broadcast step at an interior node of fan-out 4.
    pub fn gds_route(&mut self) {
        let i = self.turn();
        let msg = GdsMessage::Broadcast {
            id: MessageId::from_raw(self.fresh_id()),
            origin: self.origin.clone(),
            payload: self.payloads[i].clone(),
        };
        self.effects.clear();
        self.node
            .handle_message_into(&self.parent, msg, &mut self.effects);
        black_box(&self.effects);
    }

    /// One simulator step: a message bouncing between two idle actors.
    pub fn sim_step(&mut self) {
        black_box(self.sim.step());
    }

    /// One build of the workload's batch with no alerting attached.
    pub fn greenstone_build(&mut self) {
        let i = self.turn();
        let docs = self.batches[i].clone();
        let report = match self.build {
            Build::Import => self.server.import(&self.collection, docs),
            Build::Rebuild => self.server.rebuild(&self.collection, docs),
        };
        black_box(report.expect("collection exists"));
    }

    /// One document into a store with a full-text index.
    pub fn store_ingest(&mut self) {
        let i = self.turn();
        let doc = self.batches[i][0].clone();
        self.store.add_document(doc);
    }

    /// One delivery handled by a core holding the server's profiles.
    pub fn core_deliver(&mut self) {
        let i = self.turn();
        let msg = SysMessage::Gds(GdsMessage::Deliver {
            id: MessageId::from_raw(self.fresh_id()),
            origin: self.origin.clone(),
            payload: self.payloads[i].clone(),
        });
        black_box(self.core.handle_message(&self.parent, msg, SimTime::ZERO));
    }

    pub fn state_append(&mut self) {
        let i = self.turn() % self.exprs.len();
        let id = self.fresh_id();
        self.journal.record_subscribe(
            ProfileId::from_raw(id),
            ClientId::from_raw(id),
            &self.exprs[i],
        );
        self.journaled += 1;
    }

    /// Journal bytes per recorded subscribe so far (0 before the first).
    pub fn state_journal_bytes_per_sub(&self) -> f64 {
        let bytes = self.journal_medium.journal_len() + self.journal_medium.snapshot_len();
        bytes as f64 / self.journaled.max(1) as f64
    }

    pub fn alerts_observe(&mut self) {
        let fingerprint = self.fresh_id() % 4_096;
        black_box(
            self.alerts
                .observe(fingerprint, "Hamilton.D", 0, SimTime::ZERO),
        );
    }
}
