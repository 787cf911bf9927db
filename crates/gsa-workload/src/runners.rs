//! Per-scheme experiment runners.
//!
//! [`run_scheme`] plays one generated workload (world + profiles +
//! rebuild schedule + churn) through one alerting scheme and returns the
//! raw deliveries plus the transport and storage metrics the paper-claim
//! and chaos tests assert on.

use crate::{
    ChurnEvent, DocumentGenerator, FaultAction, FaultPlan, GsWorld, ProfilePopulation,
    RebuildSchedule,
};
use gsa_baselines::{GsFloodSystem, ProfileFloodSystem, RendezvousSystem};
use gsa_core::{AlertPolicyConfig, ReliabilityConfig, System};
use gsa_store::SourceDocument;
use gsa_types::{
    ClientId, CollectionId, Event, EventId, EventKind, HostName, ProfileId, SimDuration, SimTime,
};
use std::collections::HashMap;
use std::fmt;

/// Which alerting scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's hybrid service (GDS flooding + auxiliary profiles).
    Hybrid,
    /// Event flooding over the GS reference graph, with duplicate
    /// suppression.
    GsFlood,
    /// Event flooding without duplicate suppression (cycle cost).
    GsFloodNoDedup,
    /// Profile flooding/replication.
    ProfileFlood,
    /// Rendezvous-node routing.
    Rendezvous,
}

impl Scheme {
    /// All schemes in table order.
    pub const ALL: [Scheme; 5] = [
        Scheme::Hybrid,
        Scheme::GsFlood,
        Scheme::GsFloodNoDedup,
        Scheme::ProfileFlood,
        Scheme::Rendezvous,
    ];

    /// The scheme's display name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Hybrid => "hybrid(GDS)",
            Scheme::GsFlood => "gs-flood",
            Scheme::GsFloodNoDedup => "gs-flood-nodedup",
            Scheme::ProfileFlood => "profile-flood",
            Scheme::Rendezvous => "rendezvous",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Run parameters shared by all schemes.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Simulator seed.
    pub seed: u64,
    /// GDS tree fanout (hybrid only).
    pub fanout: usize,
    /// Extra simulated time after the last scheduled action, so retries
    /// and in-flight deliveries drain.
    pub drain: SimDuration,
    /// Turn on the reliability layer (hybrid only): per-hop
    /// acks/retransmission and beacon-driven tree healing.
    pub reliable: bool,
    /// Ambient per-link drop probability applied once the workload
    /// starts (setup traffic runs clean).
    pub base_drop: f64,
    /// Optional chaos plan replayed alongside the workload.
    pub faults: Option<FaultPlan>,
    /// Turn on subscription-aware flood pruning (hybrid only).
    pub pruned: bool,
    /// Give every hybrid server a journal+snapshot state store, so
    /// hard server crashes ([`FaultAction::CrashServer`]) recover
    /// their subscriptions on restart (hybrid only).
    pub durable: bool,
    /// Optional alert delivery policies applied to every hybrid server
    /// (hybrid only; `None` keeps the paper-faithful fire-and-forget
    /// path byte-identical).
    pub policies: Option<AlertPolicyConfig>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 1,
            fanout: 3,
            drain: SimDuration::from_secs(30),
            reliable: false,
            base_drop: 0.0,
            faults: None,
            pruned: false,
            durable: false,
            policies: None,
        }
    }
}

/// The raw outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// One entry per delivered notification: (profile index, rebuild
    /// index, announced origin).
    pub deliveries: Vec<(usize, usize, CollectionId)>,
    /// Messages sent on the wire.
    pub messages: u64,
    /// Bytes sent on the wire.
    pub bytes: u64,
    /// Profiles stored across all servers at the end (including
    /// replicas/auxiliaries).
    pub stored_profiles: usize,
    /// Stored profiles whose owner has cancelled them (client profiles
    /// only for the hybrid, counted on every server at the end).
    pub orphan_profiles: usize,
    /// Per-node receive-load imbalance `(max, mean, gini)`.
    pub load: Option<(u64, f64, f64)>,
    /// Cancellation times actually applied (profile index → time), for
    /// the oracle.
    pub cancels: HashMap<usize, SimTime>,
    /// Partition intervals actually applied, for the oracle.
    pub partitions: HashMap<HostName, Vec<(SimTime, SimTime)>>,
    /// Per-delivery latency (delivery time − rebuild time), aligned with
    /// `deliveries`.
    pub delays: Vec<SimDuration>,
    /// Retransmissions performed (reliable hybrid only, else 0).
    pub retransmits: u64,
    /// GDS re-parenting events (reliable hybrid only, else 0).
    pub reparents: u64,
    /// Messages dropped by the network (loss + downed/partitioned
    /// destinations).
    pub dropped: u64,
    /// Flood edges skipped by subscription-aware pruning (pruned hybrid
    /// only, else 0).
    pub pruned_edges: u64,
    /// Profiles successfully subscribed at the start of the run.
    pub subscribed: usize,
    /// Client subscriptions still registered server-side at the end
    /// (excluding auxiliary forwarding profiles). With `subscribed`
    /// and `cancels` this exposes subscriptions lost to server
    /// crashes: `subscribed - cancels - stored_client_profiles`.
    pub stored_client_profiles: usize,
    /// Alert instances opened by the lifecycle engine (hybrid with
    /// [`RunConfig::policies`] only, else 0).
    pub alerts_firing: u64,
    /// Notifications suppressed by dedup or throttle (ditto).
    pub alerts_suppressed: u64,
    /// Notifications deferred into digest batches (ditto).
    pub alerts_digested: u64,
}

/// Deterministic per-rebuild document batches, shared by every scheme and
/// by the oracle. Document ids are `r{k}-{i}`, which is how deliveries
/// are mapped back to rebuilds.
pub(crate) fn rebuild_docs(k: usize, n: usize) -> Vec<SourceDocument> {
    DocumentGenerator::new(1_000 + k as u64).documents(&format!("r{k}"), n)
}

/// Parses the rebuild index back out of an announced document id.
pub(crate) fn rebuild_index_of(doc_id: &str) -> Option<usize> {
    doc_id
        .strip_prefix('r')?
        .split('-')
        .next()?
        .parse()
        .ok()
}

/// The event a baseline publishes for rebuild `k` (baselines have no
/// build process of their own).
pub(crate) fn rebuild_event(k: usize, collection: &CollectionId, docs: &[SourceDocument], at: SimTime) -> Event {
    Event::new(
        EventId::new(collection.host().clone(), k as u64),
        collection.clone(),
        EventKind::CollectionRebuilt,
        at,
    )
    .with_docs(docs.iter().map(|d| d.summary(200)).collect())
}

/// One timed action of the merged schedule.
enum Action<'a> {
    Rebuild(usize, &'a crate::schedule::Rebuild),
    Churn(&'a ChurnEvent),
    Fault(&'a FaultAction),
}

fn merged_actions<'a>(
    schedule: &'a RebuildSchedule,
    churn: &'a [ChurnEvent],
    faults: Option<&'a FaultPlan>,
) -> Vec<(SimTime, Action<'a>)> {
    let mut actions: Vec<(SimTime, Action<'a>)> = Vec::new();
    for (k, r) in schedule.rebuilds.iter().enumerate() {
        actions.push((r.at, Action::Rebuild(k, r)));
    }
    for c in churn {
        actions.push((c.at(), Action::Churn(c)));
    }
    if let Some(plan) = faults {
        for f in &plan.actions {
            actions.push((f.at(), Action::Fault(f)));
        }
    }
    actions.sort_by_key(|(at, _)| *at);
    actions
}

/// Plays the workload through `scheme`.
pub fn run_scheme(
    scheme: Scheme,
    world: &GsWorld,
    population: &ProfilePopulation,
    schedule: &RebuildSchedule,
    churn: &[ChurnEvent],
    cfg: &RunConfig,
) -> RunOutcome {
    match scheme {
        Scheme::Hybrid => run_hybrid(world, population, schedule, churn, cfg),
        Scheme::GsFlood => run_gsflood(world, population, schedule, churn, cfg, true),
        Scheme::GsFloodNoDedup => run_gsflood(world, population, schedule, churn, cfg, false),
        Scheme::ProfileFlood => run_profileflood(world, population, schedule, churn, cfg),
        Scheme::Rendezvous => run_rendezvous(world, population, schedule, churn, cfg),
    }
}

/// Tracks partition intervals as they are applied.
#[derive(Default)]
struct PartitionTracker {
    open: HashMap<HostName, SimTime>,
    intervals: HashMap<HostName, Vec<(SimTime, SimTime)>>,
}

impl PartitionTracker {
    fn partition(&mut self, host: &HostName, at: SimTime) {
        self.open.entry(host.clone()).or_insert(at);
    }

    fn heal_all(&mut self, at: SimTime) {
        for (host, start) in self.open.drain() {
            self.intervals.entry(host).or_default().push((start, at));
        }
    }

    fn finish(mut self, at: SimTime) -> HashMap<HostName, Vec<(SimTime, SimTime)>> {
        self.heal_all(at);
        self.intervals
    }
}

fn run_hybrid(
    world: &GsWorld,
    population: &ProfilePopulation,
    schedule: &RebuildSchedule,
    churn: &[ChurnEvent],
    cfg: &RunConfig,
) -> RunOutcome {
    let (topo, assignment) = world.gds_tree(cfg.fanout);
    let mut system = System::new(cfg.seed);
    if cfg.reliable {
        system.set_reliability(ReliabilityConfig);
    }
    system.set_pruning(cfg.pruned);
    system.set_durability(cfg.durable);
    system.set_alert_policies(cfg.policies.clone());
    system.add_gds_topology(&topo);
    for (host, gds) in &assignment {
        system.add_server(host.as_str(), gds.as_str());
    }
    for (host, configs) in &world.collections {
        for config in configs {
            system.add_collection(host.as_str(), config.clone());
        }
    }
    system.run_until_quiet(SimTime::from_secs(5));

    // Subscribe: client id == profile index.
    let mut handles: Vec<(HostName, ProfileId)> = Vec::new();
    for (idx, (host, _topic, expr)) in population.profiles.iter().enumerate() {
        let pid = system
            .subscribe(host.as_str(), ClientId::from_raw(idx as u64), expr.clone())
            .expect("profile indexes");
        handles.push((host.clone(), pid));
    }
    // A subscription only counts once its interest announcement has
    // propagated (the SDI subscribe round-trip): let the burst settle
    // on clean links before loss and faults start, or an immediately
    // scheduled rebuild can race a half-propagated summary.
    system.run_until_quiet(system.now() + SimDuration::from_secs(2));

    let mut cancels = HashMap::new();
    let mut tracker = PartitionTracker::default();
    // Server-crash downtime is tracked apart from partitions so a
    // network-wide Heal cannot close a crash window early; the windows
    // merge into the oracle's don't-care intervals at the end.
    let mut crash_open: HashMap<HostName, SimTime> = HashMap::new();
    let mut crash_windows: HashMap<HostName, Vec<(SimTime, SimTime)>> = HashMap::new();
    if cfg.base_drop > 0.0 {
        system.set_drop_probability(cfg.base_drop);
    }
    for (at, action) in merged_actions(schedule, churn, cfg.faults.as_ref()) {
        system.run_until(at);
        match action {
            Action::Rebuild(k, r) => {
                let docs = rebuild_docs(k, r.docs);
                system
                    .rebuild(r.collection.host().as_str(), r.collection.name().as_str(), docs)
                    .expect("collection exists");
            }
            Action::Churn(ChurnEvent::Partition { host, group, .. }) => {
                system.set_partition(host.as_str(), *group);
                tracker.partition(host, at);
            }
            Action::Churn(ChurnEvent::Heal { .. }) => {
                system.heal_network();
                tracker.heal_all(at);
            }
            Action::Churn(ChurnEvent::Cancel { index, .. }) => {
                if let Some((host, pid)) = handles.get(*index) {
                    if system.unsubscribe(host.as_str(), *pid) {
                        cancels.insert(*index, at);
                    }
                }
            }
            Action::Fault(FaultAction::SetDropProbability { p, .. }) => {
                system.set_drop_probability(*p);
            }
            Action::Fault(FaultAction::SetNodeUp { host, up, .. }) => {
                if system.sim().node_id(host.as_str()).is_some() {
                    system.set_host_up(host.as_str(), *up);
                }
            }
            Action::Fault(FaultAction::Partition { host, group, .. }) => {
                if system.sim().node_id(host.as_str()).is_some() {
                    system.set_partition(host.as_str(), *group);
                    tracker.partition(host, at);
                }
            }
            Action::Fault(FaultAction::Heal { .. }) => {
                system.heal_network();
                tracker.heal_all(at);
            }
            Action::Fault(FaultAction::CrashServer { host, .. }) => {
                if system.sim().node_id(host.as_str()).is_some() {
                    system.crash_server(host.as_str());
                    crash_open.entry(host.clone()).or_insert(at);
                }
            }
            Action::Fault(FaultAction::RestartServer { host, .. }) => {
                if system.sim().node_id(host.as_str()).is_some() {
                    system.restart_server(host.as_str());
                    if let Some(start) = crash_open.remove(host) {
                        crash_windows.entry(host.clone()).or_default().push((start, at));
                    }
                }
            }
        }
    }
    let end = system.now() + cfg.drain;
    system.run_until_quiet(end);

    let mut deliveries = Vec::new();
    let mut delays = Vec::new();
    for (idx, (host, _)) in handles.iter().enumerate() {
        for n in system.take_notifications(host.as_str(), ClientId::from_raw(idx as u64)) {
            let k = n
                .event
                .docs
                .iter()
                .filter_map(|d| rebuild_index_of(d.doc.as_str()))
                .max();
            if let Some(k) = k {
                deliveries.push((idx, k, n.event.origin.clone()));
                delays.push(n.at.since(schedule.rebuilds[k].at));
            }
        }
    }

    let mut stored = 0;
    let mut stored_client = 0;
    let mut orphans = 0;
    for host in &world.hosts {
        let (subs, aux, orphaned) = system.inspect_core(host.as_str(), |core| {
            let subs = core.subscriptions();
            // Client id == profile index, so a stored profile whose
            // owner's index was cancelled is an orphan.
            let orphaned = subs
                .profiles()
                .filter(|p| cancels.contains_key(&(p.owner().as_u64() as usize)))
                .count();
            (subs.len(), core.aux_store().len(), orphaned)
        });
        stored += subs + aux;
        stored_client += subs;
        orphans += orphaned;
    }
    let subscribed = handles.len();

    let mut partitions = tracker.finish(end);
    for (host, start) in crash_open {
        crash_windows.entry(host).or_default().push((start, end));
    }
    for (host, windows) in crash_windows {
        partitions.entry(host).or_default().extend(windows);
    }

    RunOutcome {
        deliveries,
        messages: system.metrics().counter("net.sent"),
        bytes: system.metrics().counter("net.bytes_sent"),
        stored_profiles: stored,
        orphan_profiles: orphans,
        load: system.metrics().receive_load_imbalance(),
        cancels,
        partitions,
        delays,
        retransmits: system.metrics().counter("net.retransmits"),
        reparents: system.metrics().counter("gds.reparent"),
        dropped: system.metrics().counter("net.dropped"),
        pruned_edges: system.metrics().counter("gds.pruned_edges"),
        subscribed,
        stored_client_profiles: stored_client,
        alerts_firing: system.metrics().counter("alerts.firing"),
        alerts_suppressed: system.metrics().counter("alerts.suppressed"),
        alerts_digested: system.metrics().counter("alerts.digested"),
    }
}

fn run_gsflood(
    world: &GsWorld,
    population: &ProfilePopulation,
    schedule: &RebuildSchedule,
    churn: &[ChurnEvent],
    cfg: &RunConfig,
    dedup: bool,
) -> RunOutcome {
    let mut sys = GsFloodSystem::new(cfg.seed, dedup);
    for host in &world.hosts {
        sys.add_server(host.as_str(), world.neighbors(host));
    }
    let mut handles = Vec::new();
    for (idx, (host, _topic, expr)) in population.profiles.iter().enumerate() {
        let gpid = sys.subscribe(host.as_str(), ClientId::from_raw(idx as u64), expr.clone());
        handles.push(gpid);
    }
    let mut cancels = HashMap::new();
    let mut tracker = PartitionTracker::default();
    if cfg.base_drop > 0.0 {
        sys.sim_mut().set_drop_probability(cfg.base_drop);
    }
    for (at, action) in merged_actions(schedule, churn, cfg.faults.as_ref()) {
        sys.sim_mut().run_until(at);
        match action {
            Action::Rebuild(k, r) => {
                let docs = rebuild_docs(k, r.docs);
                let event = rebuild_event(k, &r.collection, &docs, at);
                sys.publish(r.collection.host().as_str(), event);
            }
            Action::Churn(ChurnEvent::Partition { host, group, .. })
            | Action::Fault(FaultAction::Partition { host, group, .. }) => {
                sys.set_partition(host.as_str(), *group);
                tracker.partition(host, at);
            }
            Action::Churn(ChurnEvent::Heal { .. }) | Action::Fault(FaultAction::Heal { .. }) => {
                sys.sim_mut().heal_network();
                tracker.heal_all(at);
            }
            Action::Churn(ChurnEvent::Cancel { index, .. }) => {
                if let Some(gpid) = handles.get(*index) {
                    if sys.unsubscribe(gpid) {
                        cancels.insert(*index, at);
                    }
                }
            }
            Action::Fault(FaultAction::SetDropProbability { p, .. }) => {
                sys.sim_mut().set_drop_probability(*p);
            }
            // Baselines have no directory tier or durable state: GDS
            // crashes and hard server crashes have no counterpart here
            // and are skipped.
            Action::Fault(
                FaultAction::SetNodeUp { .. }
                | FaultAction::CrashServer { .. }
                | FaultAction::RestartServer { .. },
            ) => {}
        }
    }
    let end = sys.sim_mut().now() + cfg.drain;
    sys.run_until_quiet(end);

    let mut deliveries = Vec::new();
    let mut delays = Vec::new();
    for d in sys.take_deliveries() {
        let k = d.event_id.seq() as usize;
        deliveries.push((
            d.client.as_u64() as usize,
            k,
            schedule.rebuilds[k].collection.clone(),
        ));
        delays.push(d.at.since(schedule.rebuilds[k].at));
    }
    RunOutcome {
        subscribed: population.len(),
        stored_client_profiles: population.len() - cancels.len(),
        deliveries,
        messages: sys.metrics().counter("net.sent"),
        bytes: sys.metrics().counter("net.bytes_sent"),
        stored_profiles: population.len() - cancels.len(),
        orphan_profiles: 0,
        load: sys.metrics().receive_load_imbalance(),
        cancels,
        partitions: tracker.finish(end),
        delays,
        retransmits: 0,
        reparents: 0,
        dropped: sys.metrics().counter("net.dropped"),
        pruned_edges: 0,
        ..Default::default()
    }
}

fn run_profileflood(
    world: &GsWorld,
    population: &ProfilePopulation,
    schedule: &RebuildSchedule,
    churn: &[ChurnEvent],
    cfg: &RunConfig,
) -> RunOutcome {
    let mut sys = ProfileFloodSystem::new(cfg.seed);
    for host in &world.hosts {
        sys.add_server(host.as_str(), world.neighbors(host));
    }
    let mut handles = Vec::new();
    for (idx, (host, _topic, expr)) in population.profiles.iter().enumerate() {
        handles.push(sys.subscribe(host.as_str(), ClientId::from_raw(idx as u64), expr.clone()));
    }
    let mut cancels = HashMap::new();
    let mut tracker = PartitionTracker::default();
    if cfg.base_drop > 0.0 {
        sys.sim_mut().set_drop_probability(cfg.base_drop);
    }
    for (at, action) in merged_actions(schedule, churn, cfg.faults.as_ref()) {
        sys.sim_mut().run_until(at);
        match action {
            Action::Rebuild(k, r) => {
                let docs = rebuild_docs(k, r.docs);
                let event = rebuild_event(k, &r.collection, &docs, at);
                sys.publish(r.collection.host().as_str(), event);
            }
            Action::Churn(ChurnEvent::Partition { host, group, .. })
            | Action::Fault(FaultAction::Partition { host, group, .. }) => {
                sys.set_partition(host.as_str(), *group);
                tracker.partition(host, at);
            }
            Action::Churn(ChurnEvent::Heal { .. }) | Action::Fault(FaultAction::Heal { .. }) => {
                sys.heal_network();
                tracker.heal_all(at);
            }
            Action::Churn(ChurnEvent::Cancel { index, .. }) => {
                if let Some(gpid) = handles.get(*index) {
                    if sys.unsubscribe(gpid) {
                        cancels.insert(*index, at);
                    }
                }
            }
            Action::Fault(FaultAction::SetDropProbability { p, .. }) => {
                sys.sim_mut().set_drop_probability(*p);
            }
            // No directory tier or durable state to crash in this
            // baseline.
            Action::Fault(
                FaultAction::SetNodeUp { .. }
                | FaultAction::CrashServer { .. }
                | FaultAction::RestartServer { .. },
            ) => {}
        }
    }
    let end = sys.sim_mut().now() + cfg.drain;
    sys.run_until_quiet(end);
    let mut deliveries = Vec::new();
    let mut delays = Vec::new();
    for d in sys.take_deliveries() {
        let k = d.event_id.seq() as usize;
        deliveries.push((
            d.client.as_u64() as usize,
            k,
            schedule.rebuilds[k].collection.clone(),
        ));
        delays.push(d.at.since(schedule.rebuilds[k].at));
    }
    let stored = sys.stored_profiles();
    let orphans = sys.orphan_profiles();
    RunOutcome {
        subscribed: population.len(),
        stored_client_profiles: population.len() - cancels.len(),
        deliveries,
        messages: sys.metrics().counter("net.sent"),
        bytes: sys.metrics().counter("net.bytes_sent"),
        stored_profiles: stored,
        orphan_profiles: orphans,
        load: sys.metrics().receive_load_imbalance(),
        cancels,
        partitions: tracker.finish(end),
        delays,
        retransmits: 0,
        reparents: 0,
        dropped: sys.metrics().counter("net.dropped"),
        pruned_edges: 0,
        ..Default::default()
    }
}

fn run_rendezvous(
    world: &GsWorld,
    population: &ProfilePopulation,
    schedule: &RebuildSchedule,
    churn: &[ChurnEvent],
    cfg: &RunConfig,
) -> RunOutcome {
    let mut sys = RendezvousSystem::new(cfg.seed);
    for host in &world.hosts {
        sys.add_server(host.as_str());
    }
    let mut handles = Vec::new();
    for (idx, (host, topic, expr)) in population.profiles.iter().enumerate() {
        let gpid = sys.subscribe(
            host.as_str(),
            ClientId::from_raw(idx as u64),
            &topic.to_string(),
            expr.clone(),
        );
        handles.push((gpid, topic.to_string()));
    }
    let mut cancels = HashMap::new();
    let mut tracker = PartitionTracker::default();
    if cfg.base_drop > 0.0 {
        sys.sim_mut().set_drop_probability(cfg.base_drop);
    }
    for (at, action) in merged_actions(schedule, churn, cfg.faults.as_ref()) {
        sys.sim_mut().run_until(at);
        match action {
            Action::Rebuild(k, r) => {
                let docs = rebuild_docs(k, r.docs);
                let event = rebuild_event(k, &r.collection, &docs, at);
                sys.publish(r.collection.host().as_str(), event);
            }
            Action::Churn(ChurnEvent::Partition { host, group, .. })
            | Action::Fault(FaultAction::Partition { host, group, .. }) => {
                sys.set_partition(host.as_str(), *group);
                tracker.partition(host, at);
            }
            Action::Churn(ChurnEvent::Heal { .. }) | Action::Fault(FaultAction::Heal { .. }) => {
                sys.heal_network();
                tracker.heal_all(at);
            }
            Action::Churn(ChurnEvent::Cancel { index, .. }) => {
                if let Some((gpid, topic)) = handles.get(*index) {
                    if sys.unsubscribe(gpid, topic) {
                        cancels.insert(*index, at);
                    }
                }
            }
            Action::Fault(FaultAction::SetDropProbability { p, .. }) => {
                sys.sim_mut().set_drop_probability(*p);
            }
            // No directory tier or durable state to crash in this
            // baseline.
            Action::Fault(
                FaultAction::SetNodeUp { .. }
                | FaultAction::CrashServer { .. }
                | FaultAction::RestartServer { .. },
            ) => {}
        }
    }
    let end = sys.sim_mut().now() + cfg.drain;
    sys.run_until_quiet(end);
    let mut deliveries = Vec::new();
    let mut delays = Vec::new();
    for d in sys.take_deliveries() {
        let k = d.event_id.seq() as usize;
        deliveries.push((
            d.client.as_u64() as usize,
            k,
            schedule.rebuilds[k].collection.clone(),
        ));
        delays.push(d.at.since(schedule.rebuilds[k].at));
    }
    let stored: usize = sys.stored_profiles_per_host().values().sum();
    RunOutcome {
        subscribed: population.len(),
        stored_client_profiles: population.len() - cancels.len(),
        deliveries,
        messages: sys.metrics().counter("net.sent"),
        bytes: sys.metrics().counter("net.bytes_sent"),
        stored_profiles: stored,
        orphan_profiles: 0,
        load: sys.metrics().receive_load_imbalance(),
        cancels,
        partitions: tracker.finish(end),
        delays,
        retransmits: 0,
        reparents: 0,
        dropped: sys.metrics().counter("net.dropped"),
        pruned_edges: 0,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use crate::{ProfileMix, WorldParams};

    fn workload() -> (GsWorld, ProfilePopulation, RebuildSchedule) {
        let world = GsWorld::generate(&WorldParams::small(21));
        let pop = ProfilePopulation::generate(22, &world, 16, &ProfileMix::default());
        let schedule = RebuildSchedule::generate(23, &world, 10, SimDuration::from_secs(30), 3);
        (world, pop, schedule)
    }

    #[test]
    fn rebuild_docs_round_trip_index() {
        let docs = rebuild_docs(7, 3);
        assert_eq!(docs.len(), 3);
        for d in &docs {
            assert_eq!(rebuild_index_of(d.id.as_str()), Some(7));
        }
        assert_eq!(rebuild_index_of("nonsense"), None);
        assert_eq!(rebuild_index_of("r12-0"), Some(12));
    }

    #[test]
    fn hybrid_is_clean_without_churn() {
        let (world, pop, schedule) = workload();
        let outcome = run_scheme(
            Scheme::Hybrid,
            &world,
            &pop,
            &schedule,
            &[],
            &RunConfig::default(),
        );
        let oracle = Oracle::build(
            &world,
            &pop,
            &schedule,
            &outcome.cancels,
            &outcome.partitions,
            SimDuration::from_secs(5),
        );
        let q = oracle.classify(&outcome.deliveries);
        assert_eq!(q.false_positives, 0, "hybrid produced FPs: {q}");
        assert_eq!(q.false_negatives, 0, "hybrid produced FNs: {q}");
        assert_eq!(q.duplicates, 0, "hybrid produced duplicates: {q}");
    }

    #[test]
    fn gsflood_misses_cross_island_traffic() {
        let (world, pop, schedule) = workload();
        let outcome = run_scheme(
            Scheme::GsFlood,
            &world,
            &pop,
            &schedule,
            &[],
            &RunConfig::default(),
        );
        let oracle = Oracle::build(
            &world,
            &pop,
            &schedule,
            &outcome.cancels,
            &outcome.partitions,
            SimDuration::from_secs(5),
        );
        let q = oracle.classify(&outcome.deliveries);
        assert!(
            q.false_negatives > 0,
            "fragmented world must cause flooding misses: {q}"
        );
    }

    /// Cancels profile `index` while its host is partitioned, healing at
    /// `heal` if given.
    fn partitioned_cancel(pop: &ProfilePopulation, index: usize, heal: bool) -> Vec<ChurnEvent> {
        let mut churn = vec![
            ChurnEvent::Partition {
                at: SimTime::from_secs(1),
                host: pop.profiles[index].0.clone(),
                group: 1,
            },
            ChurnEvent::Cancel {
                at: SimTime::from_secs(2),
                index,
            },
        ];
        if heal {
            churn.push(ChurnEvent::Heal {
                at: SimTime::from_secs(3),
            });
        }
        churn
    }

    #[test]
    fn profileflood_orphans_after_partitioned_cancel() {
        let (world, pop, schedule) = workload();
        // A profile whose host has island neighbours is replicated to
        // them; cancelled behind a partition, those replicas never hear.
        let index = pop
            .profiles
            .iter()
            .position(|(host, _, _)| !world.neighbors(host).is_empty())
            .expect("a profile on a host with island neighbours");
        let churn = partitioned_cancel(&pop, index, true);
        let outcome = run_scheme(
            Scheme::ProfileFlood,
            &world,
            &pop,
            &schedule,
            &churn,
            &RunConfig::default(),
        );
        assert!(outcome.cancels.contains_key(&index));
        assert!(
            outcome.orphan_profiles >= 1,
            "a replica must outlive the partitioned cancel: {} orphans",
            outcome.orphan_profiles
        );
    }

    #[test]
    fn hybrid_orphans_count_cancelled_profiles_still_stored() {
        let (world, pop, schedule) = workload();
        // The hybrid stores a profile only at its subscriber's server, so
        // a cancel applies there even behind a partition that never heals.
        let churn = partitioned_cancel(&pop, 0, false);
        let outcome = run_scheme(
            Scheme::Hybrid,
            &world,
            &pop,
            &schedule,
            &churn,
            &RunConfig::default(),
        );
        assert!(outcome.cancels.contains_key(&0));
        assert_eq!(outcome.orphan_profiles, 0, "the cancel was applied server-side");
        assert_eq!(outcome.stored_client_profiles, pop.len() - 1);
    }

    #[test]
    fn all_schemes_run_and_produce_metrics() {
        let (world, pop, schedule) = workload();
        for scheme in Scheme::ALL {
            let outcome = run_scheme(scheme, &world, &pop, &schedule, &[], &RunConfig::default());
            assert!(outcome.messages > 0, "{scheme} sent nothing");
            assert!(outcome.bytes > 0, "{scheme} byte accounting missing");
        }
    }
}
