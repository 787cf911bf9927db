//! Per-scheme experiment runners.
//!
//! [`run_scheme`] plays one generated workload (world + profiles +
//! rebuild schedule + churn) through one alerting scheme and returns the
//! raw deliveries plus the transport and storage metrics the paper-claim
//! and chaos tests assert on.

use crate::{
    ChurnEvent, DocumentGenerator, FaultAction, FaultPlan, GsWorld, ProfilePopulation, Rebuild,
    RebuildSchedule,
};
use gsa_baselines::{
    Baseline, BaselineMsg, GlobalProfileId, GsFloodServer, ProfileFloodServer, RendezvousServer,
    Server,
};
use gsa_core::{SysMessage, System, SystemConfig};
use gsa_simnet::Sim;
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
    /// What the hybrid deployment runs (hybrid only). Give it
    /// `durable` servers so hard server crashes
    /// ([`FaultAction::CrashServer`]) recover their subscriptions on
    /// restart.
    pub system: SystemConfig,
    /// Ambient per-link drop probability applied once the workload
    /// starts (setup traffic runs clean).
    pub base_drop: f64,
    /// Optional chaos plan replayed alongside the workload.
    pub faults: Option<FaultPlan>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 1,
            fanout: 3,
            drain: SimDuration::from_secs(30),
            system: SystemConfig::default(),
            base_drop: 0.0,
            faults: None,
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
    /// `alert_policies` only, else 0).
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

/// One timed step of the merged schedule.
enum Action<'a> {
    Rebuild(usize, &'a Rebuild),
    Cancel(usize),
    SetDropProbability(f64),
    Heal,
    Host(&'a HostName, HostStep),
}

/// A step aimed at one host.
enum HostStep {
    Partition(u32),
    SetUp(bool),
    Crash,
    Restart,
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
        let action = match c {
            ChurnEvent::Partition { host, group, .. } => {
                Action::Host(host, HostStep::Partition(*group))
            }
            ChurnEvent::Heal { .. } => Action::Heal,
            ChurnEvent::Cancel { index, .. } => Action::Cancel(*index),
        };
        actions.push((c.at(), action));
    }
    for f in faults.map_or(&[][..], |plan| &plan.actions) {
        let action = match f {
            FaultAction::SetDropProbability { p, .. } => Action::SetDropProbability(*p),
            FaultAction::SetNodeUp { host, up, .. } => Action::Host(host, HostStep::SetUp(*up)),
            FaultAction::Partition { host, group, .. } => {
                Action::Host(host, HostStep::Partition(*group))
            }
            FaultAction::Heal { .. } => Action::Heal,
            FaultAction::CrashServer { host, .. } => Action::Host(host, HostStep::Crash),
            FaultAction::RestartServer { host, .. } => Action::Host(host, HostStep::Restart),
        };
        actions.push((f.at(), action));
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
    let w = Workload {
        world,
        population,
        schedule,
        churn,
        cfg,
    };
    let flood = |dedup| {
        move |host: &HostName| GsFloodServer::new(host.as_str(), world.neighbors(host), dedup)
    };
    match scheme {
        Scheme::Hybrid => w.play(Hybrid::deploy(&w)),
        Scheme::GsFlood => w.play(Deployed::deploy(&w, flood(true))),
        Scheme::GsFloodNoDedup => w.play(Deployed::deploy(&w, flood(false))),
        Scheme::ProfileFlood => w.play(Deployed::deploy(&w, |host| {
            ProfileFloodServer::new(host.as_str(), world.neighbors(host))
        })),
        Scheme::Rendezvous => w.play(Deployed::deploy(&w, |host| {
            RendezvousServer::new(host.as_str())
        })),
    }
}

/// One generated workload and the configuration it runs under.
struct Workload<'a> {
    world: &'a GsWorld,
    population: &'a ProfilePopulation,
    schedule: &'a RebuildSchedule,
    churn: &'a [ChurnEvent],
    cfg: &'a RunConfig,
}

/// One scheme, deployed and subscribed, as the schedule loop drives it.
trait Deployment {
    /// The scheme's network message.
    type Msg: fmt::Debug + 'static;

    /// Whether node outages apply: fault plans' `SetNodeUp`,
    /// `CrashServer` and `RestartServer`. The baselines have no directory
    /// tier and no state store, so they skip all three.
    const OUTAGES: bool;

    /// The simulator the scheme runs in.
    fn sim(&mut self) -> &mut Sim<Self::Msg>;

    /// Publishes rebuild `k`, scheduled at `at`.
    fn rebuild(&mut self, k: usize, rebuild: &Rebuild, at: SimTime);

    /// Cancels profile `index`; `true` when it was still registered.
    fn cancel(&mut self, index: usize) -> bool;

    /// Hard-crashes the server at `host` (called only when `OUTAGES`).
    fn crash_server(&mut self, _host: &HostName) {}

    /// The deliveries, their delays and the storage counts once the run
    /// has drained; the loop fills in the rest.
    fn read_out(
        &mut self,
        schedule: &RebuildSchedule,
        cancels: &HashMap<usize, SimTime>,
    ) -> RunOutcome;
}

impl Workload<'_> {
    /// Plays the merged schedule through a deployed scheme.
    fn play<D: Deployment>(&self, mut d: D) -> RunOutcome {
        let cfg = self.cfg;
        let mut cancels = HashMap::new();
        let mut partitions = Windows::default();
        // Server-crash downtime is tracked apart from partitions so a
        // network-wide Heal cannot close a crash window early; the windows
        // merge into the oracle's don't-care intervals at the end.
        let mut crashes = Windows::default();
        if cfg.base_drop > 0.0 {
            d.sim().set_drop_probability(cfg.base_drop);
        }
        for (at, action) in merged_actions(self.schedule, self.churn, cfg.faults.as_ref()) {
            d.sim().run_until(at);
            match action {
                Action::Rebuild(k, r) => d.rebuild(k, r, at),
                Action::Cancel(index) => {
                    if d.cancel(index) {
                        cancels.insert(index, at);
                    }
                }
                Action::SetDropProbability(p) => d.sim().set_drop_probability(p),
                Action::Heal => {
                    d.sim().heal_network();
                    partitions.close_all(at);
                }
                Action::Host(_, HostStep::SetUp(_) | HostStep::Crash | HostStep::Restart)
                    if !D::OUTAGES => {}
                Action::Host(host, step) => {
                    // A step naming a host the deployment lacks applies
                    // nothing and records no window.
                    let Some(node) = d.sim().node_id(host.as_str()) else {
                        continue;
                    };
                    match step {
                        HostStep::Partition(group) => {
                            d.sim().set_partition(node, group);
                            partitions.open(host, at);
                        }
                        HostStep::SetUp(up) => d.sim().set_node_up(node, up),
                        HostStep::Crash => {
                            d.crash_server(host);
                            crashes.open(host, at);
                        }
                        HostStep::Restart => {
                            d.sim().set_node_up(node, true);
                            crashes.close(host, at);
                        }
                    }
                }
            }
        }
        let end = d.sim().now() + cfg.drain;
        d.sim().run_until_quiet(end);
        let outcome = d.read_out(self.schedule, &cancels);

        let mut partitions = partitions.finish(end);
        for (host, windows) in crashes.finish(end) {
            partitions.entry(host).or_default().extend(windows);
        }
        let metrics = d.sim().metrics();
        RunOutcome {
            messages: metrics.counter("net.sent"),
            bytes: metrics.counter("net.bytes_sent"),
            load: metrics.receive_load_imbalance(),
            cancels,
            partitions,
            retransmits: metrics.counter("net.retransmits"),
            reparents: metrics.counter("gds.reparent"),
            dropped: metrics.counter("net.dropped"),
            pruned_edges: metrics.counter("gds.pruned_edges"),
            alerts_firing: metrics.counter("alerts.firing"),
            alerts_suppressed: metrics.counter("alerts.suppressed"),
            alerts_digested: metrics.counter("alerts.digested"),
            ..outcome
        }
    }
}

/// Per-host fault windows (partitions or crashes) as they are applied.
#[derive(Default)]
struct Windows {
    open: HashMap<HostName, SimTime>,
    closed: HashMap<HostName, Vec<(SimTime, SimTime)>>,
}

impl Windows {
    fn open(&mut self, host: &HostName, at: SimTime) {
        self.open.entry(host.clone()).or_insert(at);
    }

    fn close(&mut self, host: &HostName, at: SimTime) {
        if let Some((host, start)) = self.open.remove_entry(host) {
            self.closed.entry(host).or_default().push((start, at));
        }
    }

    fn close_all(&mut self, at: SimTime) {
        for (host, start) in self.open.drain() {
            self.closed.entry(host).or_default().push((start, at));
        }
    }

    fn finish(mut self, at: SimTime) -> HashMap<HostName, Vec<(SimTime, SimTime)>> {
        self.close_all(at);
        self.closed
    }
}

/// The paper's hybrid service.
struct Hybrid<'w> {
    system: System,
    /// Per profile index (which is also the client id): where it lives.
    handles: Vec<(HostName, ProfileId)>,
    hosts: &'w [HostName],
}

impl<'w> Hybrid<'w> {
    fn deploy(w: &Workload<'w>) -> Self {
        let (world, cfg) = (w.world, w.cfg);
        let (topo, assignment) = world.gds_tree(cfg.fanout);
        let mut system = System::with_config(cfg.seed, cfg.system.clone());
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

        let mut handles: Vec<(HostName, ProfileId)> = Vec::new();
        for (idx, (host, _topic, expr)) in w.population.profiles.iter().enumerate() {
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
        Hybrid {
            system,
            handles,
            hosts: &world.hosts,
        }
    }
}

impl Deployment for Hybrid<'_> {
    type Msg = SysMessage;
    const OUTAGES: bool = true;

    fn sim(&mut self) -> &mut Sim<SysMessage> {
        self.system.sim_mut()
    }

    fn rebuild(&mut self, k: usize, r: &Rebuild, _at: SimTime) {
        let docs = rebuild_docs(k, r.docs);
        self.system
            .rebuild(
                r.collection.host().as_str(),
                r.collection.name().as_str(),
                docs,
            )
            .expect("collection exists");
    }

    fn cancel(&mut self, index: usize) -> bool {
        self.handles
            .get(index)
            .is_some_and(|(host, pid)| self.system.unsubscribe(host.as_str(), *pid))
    }

    fn crash_server(&mut self, host: &HostName) {
        self.system.crash_server(host.as_str());
    }

    fn read_out(
        &mut self,
        schedule: &RebuildSchedule,
        cancels: &HashMap<usize, SimTime>,
    ) -> RunOutcome {
        let mut out = RunOutcome {
            subscribed: self.handles.len(),
            ..RunOutcome::default()
        };
        for (idx, (host, _)) in self.handles.iter().enumerate() {
            let client = ClientId::from_raw(idx as u64);
            for n in self.system.take_notifications(host.as_str(), client) {
                let k = n
                    .event
                    .docs
                    .iter()
                    .filter_map(|d| rebuild_index_of(d.doc.as_str()))
                    .max();
                if let Some(k) = k {
                    out.deliveries.push((idx, k, n.event.origin.clone()));
                    out.delays.push(n.at.since(schedule.rebuilds[k].at));
                }
            }
        }
        for host in self.hosts {
            let (subs, aux, orphaned) = self.system.inspect_core(host.as_str(), |core| {
                let subs = core.subscriptions();
                // Client id == profile index, so a stored profile whose
                // owner's index was cancelled is an orphan.
                let orphaned = subs
                    .profiles()
                    .filter(|p| cancels.contains_key(&(p.owner().as_u64() as usize)))
                    .count();
                (subs.len(), core.aux_store().len(), orphaned)
            });
            out.stored_profiles += subs + aux;
            out.stored_client_profiles += subs;
            out.orphan_profiles += orphaned;
        }
        out
    }
}

/// One of the §2 baselines, deployed and subscribed.
struct Deployed<S> {
    net: Baseline<S>,
    /// Per profile index: its identity and its topic.
    handles: Vec<(GlobalProfileId, String)>,
}

impl<S: Server> Deployed<S> {
    fn deploy(w: &Workload<'_>, server: impl Fn(&HostName) -> S) -> Self {
        let mut net = Baseline::new(w.cfg.seed);
        for host in &w.world.hosts {
            net.add_server(server(host));
        }
        let mut handles = Vec::new();
        for (idx, (host, topic, expr)) in w.population.profiles.iter().enumerate() {
            let (client, topic) = (ClientId::from_raw(idx as u64), topic.to_string());
            let profile = net.subscribe(host.as_str(), client, &topic, expr.clone());
            handles.push((profile, topic));
        }
        Deployed { net, handles }
    }
}

impl<S: Server> Deployment for Deployed<S> {
    type Msg = BaselineMsg;
    const OUTAGES: bool = false;

    fn sim(&mut self) -> &mut Sim<BaselineMsg> {
        self.net.sim_mut()
    }

    /// Baselines have no build process of their own: they publish the
    /// rebuild's event directly.
    fn rebuild(&mut self, k: usize, r: &Rebuild, at: SimTime) {
        let host = r.collection.host();
        let docs = rebuild_docs(k, r.docs);
        let event = Event::new(
            EventId::new(host.clone(), k as u64),
            r.collection.clone(),
            EventKind::CollectionRebuilt,
            at,
        )
        .with_docs(docs.iter().map(|d| d.summary(200)).collect());
        self.net.publish(host.as_str(), event);
    }

    fn cancel(&mut self, index: usize) -> bool {
        self.handles
            .get(index)
            .is_some_and(|(profile, topic)| self.net.unsubscribe(profile, topic))
    }

    fn read_out(
        &mut self,
        schedule: &RebuildSchedule,
        cancels: &HashMap<usize, SimTime>,
    ) -> RunOutcome {
        let (deliveries, delays) = self
            .net
            .take_deliveries()
            .into_iter()
            .map(|d| {
                let k = d.event_id.seq() as usize;
                let rebuild = &schedule.rebuilds[k];
                let delivery = (d.client.as_u64() as usize, k, rebuild.collection.clone());
                (delivery, d.at.since(rebuild.at))
            })
            .unzip();
        RunOutcome {
            deliveries,
            delays,
            stored_profiles: self.net.stored_profiles(),
            orphan_profiles: self.net.orphan_profiles(),
            subscribed: self.handles.len(),
            stored_client_profiles: self.handles.len() - cancels.len(),
            ..RunOutcome::default()
        }
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
        assert_eq!(
            outcome.orphan_profiles, 0,
            "the cancel was applied server-side"
        );
        assert_eq!(outcome.stored_client_profiles, pop.len() - 1);
    }

    /// A fault plan may name a host the deployment lacks (here every host
    /// step names one). Every scheme skips such a step: it applies nothing
    /// and records no window.
    #[test]
    fn every_scheme_skips_faults_naming_an_unknown_host() {
        let (world, pop, schedule) = workload();
        let host = HostName::new("nowhere");
        let at = SimTime::from_secs;
        let faults = FaultPlan {
            actions: vec![
                FaultAction::Partition {
                    at: at(1),
                    host: host.clone(),
                    group: 1,
                },
                FaultAction::SetNodeUp {
                    at: at(2),
                    host: host.clone(),
                    up: false,
                },
                FaultAction::CrashServer {
                    at: at(3),
                    host: host.clone(),
                },
                FaultAction::RestartServer {
                    at: at(4),
                    host: host.clone(),
                },
                FaultAction::SetNodeUp {
                    at: at(5),
                    host,
                    up: true,
                },
            ],
        };
        for scheme in Scheme::ALL {
            let clean = run_scheme(scheme, &world, &pop, &schedule, &[], &RunConfig::default());
            let cfg = RunConfig {
                faults: Some(faults.clone()),
                ..RunConfig::default()
            };
            let outcome = run_scheme(scheme, &world, &pop, &schedule, &[], &cfg);
            assert!(outcome.partitions.is_empty(), "{scheme} recorded a window");
            assert_eq!(
                outcome.deliveries, clean.deliveries,
                "{scheme} applied a step"
            );
            assert_eq!(outcome.messages, clean.messages, "{scheme} applied a step");
        }
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
