//! [`System`]: a whole-deployment facade over the simulator.
//!
//! Assembles a GDS tree, Greenstone servers and clients into one
//! deterministic simulation and exposes the driver operations the
//! examples, integration tests and benchmarks use.

use crate::actor::{AlertingActor, GdsActor, ReliabilityConfig, WireConfig};
use crate::core::AlertingCore;
use crate::message::SysMessage;
use crate::subs::Notification;
use gsa_alerts::{AlertKey, AlertPolicyConfig, AlertState};
use gsa_gds::{GdsMessage, GdsNode, GdsTopology, InterestMode};
use gsa_greenstone::server::{FetchResult, SearchResult};
use gsa_greenstone::{BuildReport, CollectionConfig, GsError, SubCollectionRef};
use gsa_profile::{parse_profile, DnfError, ParseProfileError, ProfileExpr};
use gsa_simnet::{LinkConfig, Metrics, NodeId, Sim};
use gsa_state::{JournalConfig, JournalStateStore, MemMedium};
use gsa_store::{Query, SourceDocument};
use gsa_types::{
    ClientId, CollectionName, HostName, ProfileId, SimDuration, SimTime,
};
use gsa_wire::WireFormat;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// What a deployment runs: one value, fixed when the [`System`] is built
/// and applied alike to every node. The default is the paper's
/// configuration, message for message: XML over best-effort hops, full
/// floods, in-memory servers and fire-and-forget notifications.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SystemConfig {
    /// The format of every GDS frame. [`WireFormat::Xml`], the default,
    /// is the paper's XML messaging, frame for frame.
    /// [`WireFormat::Binary`] puts every edge on the version-2 codec from
    /// its first frame, with encode-once flood forwarding, and batches the
    /// frames that carry events per edge: flushed as one
    /// [`GdsMessage::Batch`] at 16 events or at the end of the instant
    /// they were sent in, so a lone event waits for no clock. There is no
    /// per-host override: a tree of mixed formats is not supported.
    pub wire: WireFormat,
    /// The per-hop reliability layer. GDS traffic is acknowledged within
    /// [`ACK_DELAY`](gsa_wire::reliable::ACK_DELAY) and retransmitted
    /// until acknowledged (RACK-TLP loss detection over 500 ms doubling
    /// to 4 s, ± 20 %). Every directory node beacons each child once a
    /// second, and a child whose parent stays silent for 3 intervals
    /// re-parents to its recorded grandparent. Off by default: the
    /// paper's §6 best-effort hops.
    pub reliable: bool,
    /// How directory nodes route a flood. [`InterestMode::Flood`], the
    /// default, is the paper's full flood, message for message. Under
    /// [`InterestMode::Prune`] servers announce conservative interest
    /// summaries, nodes aggregate them per subtree, and a flood skips the
    /// edges that cannot match its event. [`InterestMode::PruneWithGrants`]
    /// adds rendezvous grants: a node that can prove a hot (attribute,
    /// value) subgroup lives entirely under one child edge grants that
    /// edge, and matching events are confined to the subtree instead of
    /// flooding through the root.
    pub interest: InterestMode,
    /// A durable state backend on every server: an append-only journal
    /// and snapshot store over a simulated disk that survives
    /// [`System::crash_server`]. Off by default: the paper's in-memory
    /// servers, whose store records nothing.
    pub durable: bool,
    /// Stateful alert lifecycles and delivery policies on every server:
    /// matched events are fingerprinted into firing / acked / resolved /
    /// stale instances and run through the dedup / throttle / digest
    /// pipeline. `None` by default: the paper's fire-and-forget
    /// notifications (the policy-equivalence oracle pins that
    /// [`AlertPolicyConfig::observe_only`] changes no delivery either).
    pub alert_policies: Option<AlertPolicyConfig>,
}

impl SystemConfig {
    /// Every shipped switch on: the v2 wire, reliable hops, pruning with
    /// rendezvous grants, durable servers and observe-only alert
    /// policies.
    pub fn production() -> Self {
        SystemConfig {
            wire: WireFormat::Binary,
            reliable: true,
            interest: InterestMode::PruneWithGrants,
            durable: true,
            alert_policies: Some(AlertPolicyConfig::observe_only()),
        }
    }
}

/// A whole simulated deployment: GDS tree + Greenstone servers + clients.
///
/// All driver methods address nodes by host name and panic on unknown
/// names — a deployment-script bug, not a runtime condition.
pub struct System {
    sim: Sim<SysMessage>,
    next_client: u64,
    seed: u64,
    config: SystemConfig,
    /// The simulated disk of every durable server, held by the harness
    /// so fault injection and crashes reach the storage its store reads.
    media: HashMap<HostName, MemMedium>,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("nodes", &self.sim.node_count())
            .field("now", &self.sim.now())
            .finish()
    }
}

/// Sizes each sent message in `format`, for `net.bytes_sent`. A flood
/// run goes out as one shared frame on each of its edges in turn, so
/// the last frame sized is kept with its size and a send of the same
/// frame reuses it. The kept reference holds the frame alive, so no
/// other frame can take its address while it is compared.
fn wire_sizer(format: WireFormat) -> impl Fn(&SysMessage) -> usize {
    let last: RefCell<Option<(Arc<[GdsMessage]>, usize)>> = RefCell::default();
    move |m: &SysMessage| {
        let SysMessage::Gds(GdsMessage::Batch(frame)) = m else {
            return m.wire_size(format);
        };
        let mut last = last.borrow_mut();
        match &*last {
            Some((held, size)) if Arc::ptr_eq(held, frame) => *size,
            _ => {
                let size = m.wire_size(format);
                *last = Some((frame.clone(), size));
                size
            }
        }
    }
}

impl System {
    /// Creates an empty deployment of the paper's configuration with the
    /// given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, SystemConfig::default())
    }

    /// Creates an empty deployment of `config` with the given RNG seed.
    pub fn with_config(seed: u64, config: SystemConfig) -> Self {
        let mut sim = Sim::new(seed);
        sim.set_wire_size_fn(wire_sizer(config.wire));
        System {
            sim,
            next_client: 0,
            seed,
            config,
            media: HashMap::new(),
        }
    }

    /// Sets the default link characteristics (latency/jitter/loss).
    pub fn set_default_link(&mut self, cfg: LinkConfig) {
        self.sim.set_default_link(cfg);
    }

    /// Changes the drop probability of every link, keeping its latency
    /// and jitter — the chaos-harness control knob.
    pub fn set_drop_probability(&mut self, p: f64) {
        self.sim.set_drop_probability(p);
    }

    /// Panics once a node exists: `switch` applies to every node or to
    /// none, so it is set before the first one is added.
    fn before_any_node(&self, switch: &str) {
        assert!(
            self.sim.node_count() == 0,
            "{switch} must be called before the first node is added"
        );
    }

    // The six node switches below each write the deployment's
    // `SystemConfig` and panic once a node exists. They are kept for the
    // benchmark's `sut.rs`, which still builds a deployment switch by
    // switch.

    /// Turns [`SystemConfig::reliable`] on.
    pub fn set_reliability(&mut self, _: ReliabilityConfig) {
        self.before_any_node("set_reliability");
        self.config.reliable = true;
    }

    /// Sets [`SystemConfig::wire`].
    pub fn set_wire(&mut self, config: WireConfig) {
        self.before_any_node("set_wire");
        self.sim.set_wire_size_fn(wire_sizer(config.format));
        self.config.wire = config.format;
    }

    /// Sets [`SystemConfig::interest`] to [`InterestMode::Prune`], or to
    /// [`InterestMode::Flood`] when `enabled` is false.
    pub fn set_pruning(&mut self, enabled: bool) {
        self.before_any_node("set_pruning");
        self.config.interest = if enabled { InterestMode::Prune } else { InterestMode::Flood };
    }

    /// Adds rendezvous grants to pruning
    /// ([`InterestMode::PruneWithGrants`]), or takes them away when
    /// `enabled` is false. Panics when enabling while pruning is off.
    pub fn set_rendezvous(&mut self, enabled: bool) {
        self.before_any_node("set_rendezvous");
        self.config.interest = match (self.config.interest, enabled) {
            (InterestMode::Flood, true) => {
                panic!("set_rendezvous(true) needs set_pruning(true) first")
            }
            (InterestMode::Flood, false) => InterestMode::Flood,
            (_, true) => InterestMode::PruneWithGrants,
            (_, false) => InterestMode::Prune,
        };
    }

    /// Sets [`SystemConfig::durable`].
    pub fn set_durability(&mut self, enabled: bool) {
        self.before_any_node("set_durability");
        self.config.durable = enabled;
    }

    /// Sets [`SystemConfig::alert_policies`].
    pub fn set_alert_policies(&mut self, config: Option<AlertPolicyConfig>) {
        self.before_any_node("set_alert_policies");
        self.config.alert_policies = config;
    }

    /// The alert instance a server would file this notification under
    /// (`None` while that server runs without policies).
    pub fn alert_key(&mut self, host: &str, n: &Notification) -> Option<AlertKey> {
        self.inspect_core(host, |core| core.alert_key(n))
    }

    /// The lifecycle state of an alert instance at `host`.
    pub fn alert_state(&mut self, host: &str, key: AlertKey) -> Option<AlertState> {
        self.inspect_core(host, |core| core.alert_state(key))
    }

    /// Acknowledges a firing alert instance at `host` (journaled when
    /// the server is durable). Returns `true` when the state changed.
    pub fn ack_alert(&mut self, host: &str, key: AlertKey) -> bool {
        self.with_core(host, |core, now| (core.ack_alert(key, now), Default::default()))
    }

    /// Resolves an active alert instance at `host`. Returns `true` when
    /// the state changed.
    pub fn resolve_alert(&mut self, host: &str, key: AlertKey) -> bool {
        self.with_core(host, |core, now| (core.resolve_alert(key, now), Default::default()))
    }

    /// The simulated disk of a durable server (a shared handle — fault
    /// injection mutates the same storage the server's store reads).
    /// `None` for a server of a deployment that is not durable.
    pub fn storage_of(&self, host: &str) -> Option<MemMedium> {
        self.media.get(&HostName::new(host)).cloned()
    }

    /// The underlying simulator (topology control, scheduling).
    pub fn sim(&self) -> &Sim<SysMessage> {
        &self.sim
    }

    /// Mutable access to the underlying simulator.
    pub fn sim_mut(&mut self) -> &mut Sim<SysMessage> {
        &mut self.sim
    }

    /// Adds every node of a GDS topology. With reliability enabled,
    /// each node also records its grandparent as the fallback
    /// attachment point for tree self-healing.
    pub fn add_gds_topology(&mut self, topo: &GdsTopology) {
        for node in topo.build() {
            let grandparent = topo.grandparent_of(node.name()).cloned();
            self.add_gds_node_with_fallback(node, grandparent);
        }
    }

    /// Adds one GDS directory server (no re-parenting fallback): a test
    /// root may name a child that never registers, which a
    /// [`GdsTopology`] cannot build.
    #[cfg(test)]
    pub(crate) fn add_gds_node(&mut self, node: GdsNode) -> NodeId {
        self.add_gds_node_with_fallback(node, None)
    }

    /// Adds one GDS directory server with an explicit re-parenting
    /// fallback (only meaningful with reliability enabled).
    fn add_gds_node_with_fallback(
        &mut self,
        mut node: GdsNode,
        grandparent: Option<HostName>,
    ) -> NodeId {
        let name = node.name().clone();
        node.set_interest(self.config.interest);
        let reliable = self.jitter_seed(self.joining()).map(|seed| (grandparent, seed));
        let actor = GdsActor::new(node, self.config.wire, reliable);
        self.sim.add_node(name.as_str(), actor)
    }

    /// The id the next node added will get: ids are dense and follow
    /// join order.
    fn joining(&self) -> NodeId {
        NodeId::from_raw(self.sim.node_count() as u32)
    }

    /// The retransmission jitter seed of `node`, `None` with
    /// reliability off: a function of the system seed and the node's id,
    /// so runs replay bit-identically and a server rebuilt after a crash
    /// gets the seed it was first built with.
    fn jitter_seed(&self, node: NodeId) -> Option<u64> {
        let mix = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        self.config.reliable.then(|| mix.wrapping_mul(2 * u64::from(node.as_u32()) + 1))
    }

    /// Adds a Greenstone server registered at the named GDS node.
    pub fn add_server(&mut self, host: &str, gds_server: &str) -> NodeId {
        let mut core = AlertingCore::new(host, gds_server);
        core.set_pruning(self.config.interest != InterestMode::Flood);
        if let Some(policies) = &self.config.alert_policies {
            core.set_alert_policies(Some(policies.clone()));
        }
        if self.config.durable {
            let medium = MemMedium::new();
            self.media.insert(HostName::new(host), medium.clone());
            core.set_state_store(Box::new(JournalStateStore::new(
                medium,
                JournalConfig::default(),
            )));
        }
        let actor = AlertingActor::new(core, self.config.wire, self.jitter_seed(self.joining()));
        self.sim.add_node(host, actor)
    }

    /// Allocates a new client identity (clients are passive in the
    /// simulation: they own profiles and mailboxes at a server).
    pub fn add_client(&mut self, _host: &str) -> ClientId {
        let id = ClientId::from_raw(self.next_client);
        self.next_client += 1;
        id
    }

    fn node(&self, host: &str) -> NodeId {
        self.sim
            .node_id(host)
            .unwrap_or_else(|| panic!("unknown host {host:?}"))
    }

    /// Runs `f` against a server's core, transmitting the effects.
    ///
    /// # Panics
    ///
    /// Panics when `host` is unknown or not a Greenstone server.
    pub fn with_core<R>(
        &mut self,
        host: &str,
        f: impl FnOnce(&mut AlertingCore, SimTime) -> (R, crate::core::CoreEffects),
    ) -> R {
        let node = self.node(host);
        self.sim
            .with_actor::<AlertingActor, R>(node, |actor, ctx| {
                let (r, effects) = f(actor.core_mut(), ctx.now());
                actor.apply(effects, ctx);
                r
            })
            .unwrap_or_else(|| panic!("{host:?} is not a Greenstone server"))
    }

    /// Read-only access to a server's core.
    ///
    /// # Panics
    ///
    /// Panics when `host` is unknown or not a Greenstone server.
    pub fn inspect_core<R>(&mut self, host: &str, f: impl FnOnce(&AlertingCore) -> R) -> R {
        let node = self.node(host);
        self.sim
            .actor::<AlertingActor, R>(node, |actor| f(actor.core()))
            .unwrap_or_else(|| panic!("{host:?} is not a Greenstone server"))
    }

    /// Read-only access to a GDS node's tree state (tests and
    /// benchmarks inspecting summaries or membership).
    ///
    /// # Panics
    ///
    /// Panics when `host` is unknown or not a GDS node.
    pub fn inspect_gds<R>(&mut self, host: &str, f: impl FnOnce(&gsa_gds::GdsNode) -> R) -> R {
        let node = self.node(host);
        self.sim
            .actor::<GdsActor, R>(node, |actor| f(actor.node()))
            .unwrap_or_else(|| panic!("{host:?} is not a GDS node"))
    }

    /// Adds a collection to a server (auxiliary profiles for remote
    /// sub-collections are planted immediately).
    ///
    /// # Panics
    ///
    /// Panics when the collection name is already taken on that host.
    pub fn add_collection(&mut self, host: &str, config: CollectionConfig) {
        self.with_core(host, |core, now| {
            let effects = core
                .add_collection(config, now)
                .unwrap_or_else(|c| panic!("duplicate collection {:?}", c.name));
            ((), effects)
        });
    }

    /// Adds a sub-collection reference to an existing collection.
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when the parent is missing.
    pub fn add_subcollection(
        &mut self,
        host: &str,
        parent: &str,
        sub: SubCollectionRef,
    ) -> Result<(), GsError> {
        self.with_core(host, |core, now| {
            match core.add_subcollection(&CollectionName::new(parent), sub, now) {
                Ok(effects) => (Ok(()), effects),
                Err(e) => (Err(e), Default::default()),
            }
        })
    }

    /// Removes a sub-collection reference (collection restructuring).
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when the parent or alias is
    /// missing.
    pub fn remove_subcollection(
        &mut self,
        host: &str,
        parent: &str,
        alias: &str,
    ) -> Result<(), GsError> {
        self.with_core(host, |core, now| {
            match core.remove_subcollection(
                &CollectionName::new(parent),
                &CollectionName::new(alias),
                now,
            ) {
                Ok(effects) => (Ok(()), effects),
                Err(e) => (Err(e), Default::default()),
            }
        })
    }

    /// Registers a profile for `client` at `host`'s server.
    ///
    /// # Errors
    ///
    /// Returns [`DnfError`] when the expression is too large to index.
    pub fn subscribe(
        &mut self,
        host: &str,
        client: ClientId,
        expr: ProfileExpr,
    ) -> Result<ProfileId, DnfError> {
        self.with_core(host, |core, _| {
            let result = core.subscribe(client, expr);
            // The interest digest may have changed; tell the GDS (a
            // no-op unless pruning is enabled for this server).
            let effects = core.summary_refresh();
            (result, effects)
        })
    }

    /// Registers a profile given in the textual profile syntax.
    ///
    /// # Errors
    ///
    /// Returns the parse error message, or the indexing error, as a
    /// [`SubscribeError`].
    pub fn subscribe_text(
        &mut self,
        host: &str,
        client: ClientId,
        profile: &str,
    ) -> Result<ProfileId, SubscribeError> {
        let expr = parse_profile(profile)?;
        Ok(self.subscribe(host, client, expr)?)
    }

    /// Cancels a profile — local and immediate.
    pub fn unsubscribe(&mut self, host: &str, profile: ProfileId) -> bool {
        self.with_core(host, |core, _| {
            let removed = core.unsubscribe(profile);
            let effects = core.summary_refresh();
            (removed, effects)
        })
    }

    /// Rebuilds a collection from a full document set, triggering the
    /// alerting pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when the collection is
    /// missing on that host.
    pub fn rebuild(
        &mut self,
        host: &str,
        collection: &str,
        docs: Vec<SourceDocument>,
    ) -> Result<BuildReport, GsError> {
        self.with_core(host, |core, now| {
            match core.rebuild(&CollectionName::new(collection), docs, now) {
                Ok((report, effects)) => (Ok(report), effects),
                Err(e) => (Err(e), Default::default()),
            }
        })
    }

    /// Incrementally imports documents into a collection.
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when the collection is
    /// missing on that host.
    pub fn import(
        &mut self,
        host: &str,
        collection: &str,
        docs: Vec<SourceDocument>,
    ) -> Result<BuildReport, GsError> {
        self.with_core(host, |core, now| {
            match core.import(&CollectionName::new(collection), docs, now) {
                Ok((report, effects)) => (Ok(report), effects),
                Err(e) => (Err(e), Default::default()),
            }
        })
    }

    /// Deletes a collection, announcing the deletion.
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when missing.
    pub fn delete_collection(&mut self, host: &str, collection: &str) -> Result<(), GsError> {
        self.with_core(host, |core, now| {
            match core.delete_collection(&CollectionName::new(collection), now) {
                Ok(effects) => (Ok(()), effects),
                Err(e) => (Err(e), Default::default()),
            }
        })
    }

    /// Drains a client's notification mailbox at `host`.
    pub fn take_notifications(&mut self, host: &str, client: ClientId) -> Vec<Notification> {
        self.with_core(host, |core, _| {
            (core.take_notifications(client), Default::default())
        })
    }

    /// Starts a distributed fetch and runs the simulation until it
    /// completes (or `within` elapses; the request itself also times out
    /// per the server's config, yielding partial results).
    ///
    /// # Panics
    ///
    /// Panics when the request produced no result within `within` —
    /// meaning even the timeout machinery did not run; raise `within`.
    pub fn fetch(&mut self, host: &str, collection: &str, within: SimDuration) -> FetchResult {
        let rid = self.with_core(host, |core, now| {
            core.start_fetch(&CollectionName::new(collection), now)
        });
        let deadline = self.sim.now() + within;
        self.sim.run_until_quiet(deadline);
        self.take_completed(host, |actor| take_entry(&mut actor.completed_fetches, &rid))
            .expect("fetch did not complete within the window; raise `within`")
    }

    /// Starts a distributed search and runs the simulation until it
    /// completes, as [`System::fetch`].
    ///
    /// # Panics
    ///
    /// Panics when no result was produced within `within`.
    pub fn search(
        &mut self,
        host: &str,
        collection: &str,
        index: &str,
        query: &Query,
        within: SimDuration,
    ) -> SearchResult {
        let rid = self.with_core(host, |core, now| {
            core.start_search(&CollectionName::new(collection), index, query, now)
        });
        let deadline = self.sim.now() + within;
        self.sim.run_until_quiet(deadline);
        self.take_completed(host, |actor| take_entry(&mut actor.completed_searches, &rid))
            .expect("search did not complete within the window; raise `within`")
    }

    /// Resolves a Greenstone host name through the GDS naming service,
    /// running the simulation until the answer arrives or `within`
    /// elapses. Returns `None` when the name is unknown network-wide (or
    /// the answer never arrived).
    pub fn resolve(&mut self, host: &str, name: &str, within: SimDuration) -> Option<HostName> {
        let token = self.with_core(host, |core, _| core.resolve(name));
        let deadline = self.sim.now() + within;
        self.sim.run_until_quiet(deadline);
        self.take_completed(host, |actor| take_entry(&mut actor.resolved, &token))
            .flatten()
    }

    /// Takes one completion off a server's actor: the lists are the
    /// driver's to drain, and an answer read is an answer removed.
    fn take_completed<R>(
        &mut self,
        host: &str,
        take: impl FnOnce(&mut AlertingActor) -> Option<R>,
    ) -> Option<R> {
        let node = self.node(host);
        self.sim
            .with_actor::<AlertingActor, Option<R>>(node, |actor, _| take(actor))
            .flatten()
    }

    // --- simulation control -------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Runs until the queue is quiet or `deadline` passes.
    pub fn run_until_quiet(&mut self, deadline: SimTime) -> usize {
        self.sim.run_until_quiet(deadline)
    }

    /// Runs everything scheduled up to `t`, then advances the clock to
    /// `t`.
    pub fn run_until(&mut self, t: SimTime) -> usize {
        self.sim.run_until(t)
    }

    /// Runs for `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) -> usize {
        self.sim.run_for(d)
    }

    /// Assigns a host to a partition group (group 0 is the default).
    ///
    /// # Panics
    ///
    /// Panics when `host` is unknown.
    pub fn set_partition(&mut self, host: &str, group: u32) {
        let node = self.node(host);
        self.sim.set_partition(node, group);
    }

    /// Heals all partitions.
    pub fn heal_network(&mut self) {
        self.sim.heal_network();
    }

    /// Marks a host up or down.
    ///
    /// # Panics
    ///
    /// Panics when `host` is unknown.
    pub fn set_host_up(&mut self, host: &str, up: bool) {
        let node = self.node(host);
        self.sim.set_node_up(node, up);
    }

    /// Crashes a Greenstone server: the unsynced bytes on its simulated
    /// disk are lost, its actor is replaced by one built around
    /// `AlertingCore::crashed` — only what a crash keeps, the state store
    /// already replayed, profile ids and summary versions of a new
    /// incarnation numbered from the crash instant, a new edge transport
    /// — and the node goes down.
    /// Contrast with [`set_host_up`](Self::set_host_up)`(host, false)`,
    /// which models a frozen-but-intact node (a partition of one).
    /// Restart with [`restart_server`](Self::restart_server).
    ///
    /// # Panics
    ///
    /// Panics when `host` is unknown or not a Greenstone server.
    pub fn crash_server(&mut self, host: &str) {
        let node = self.node(host);
        if let Some(medium) = self.media.get(&HostName::new(host)) {
            medium.crash();
        }
        let (wire, reliable, now) = (self.config.wire, self.jitter_seed(node), self.sim.now());
        let rebuilt = self.sim.replace_actor(node, |crashed: AlertingActor| {
            AlertingActor::new(crashed.core.crashed(now), wire, reliable)
        });
        assert!(rebuilt, "{host:?} is not a Greenstone server");
        self.sim.set_node_up(node, false);
    }

    /// Restarts a crashed server: the node comes back up, and the actor
    /// [`crash_server`](Self::crash_server) built starts — GDS
    /// re-registration, the auxiliary plants of its collections, and an
    /// interest-summary announcement at the first version of its new
    /// incarnation, above every version the crashed one sent.
    ///
    /// # Panics
    ///
    /// Panics when `host` is unknown.
    pub fn restart_server(&mut self, host: &str) {
        let node = self.node(host);
        self.sim.set_node_up(node, true);
    }

    /// The accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }
}

/// Removes and returns the entry filed under `key`, if it is there.
fn take_entry<K: PartialEq, V>(entries: &mut Vec<(K, V)>, key: &K) -> Option<V> {
    let at = entries.iter().position(|(k, _)| k == key)?;
    Some(entries.swap_remove(at).1)
}

/// Error from [`System::subscribe_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscribeError {
    /// The profile text did not parse.
    Parse(ParseProfileError),
    /// The profile was too large to index.
    Dnf(DnfError),
}

impl fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubscribeError::Parse(e) => write!(f, "{e}"),
            SubscribeError::Dnf(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SubscribeError {}

impl From<ParseProfileError> for SubscribeError {
    fn from(e: ParseProfileError) -> Self {
        SubscribeError::Parse(e)
    }
}

impl From<DnfError> for SubscribeError {
    fn from(e: DnfError) -> Self {
        SubscribeError::Dnf(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_gds::figure2_tree;
    use gsa_types::CollectionId;

    fn doc(id: &str, text: &str) -> SourceDocument {
        SourceDocument::new(id, text)
    }

    /// The full Figure 2/3 world: 7 GDS nodes, servers Hamilton (gds-4)
    /// and London (gds-2), Hamilton.D ⊃ London.E.
    fn figure_world() -> System {
        let mut system = System::new(42);
        system.add_gds_topology(&figure2_tree());
        system.add_server("Hamilton", "gds-4");
        system.add_server("London", "gds-2");
        system.add_collection("London", CollectionConfig::simple("E", "e"));
        system.add_collection(
            "Hamilton",
            CollectionConfig::simple("D", "d").with_subcollection(SubCollectionRef::new(
                "e",
                CollectionId::new("London", "E"),
            )),
        );
        system.run_until_quiet(SimTime::from_secs(5));
        system
    }

    #[test]
    fn federated_alerting_end_to_end() {
        let mut system = figure_world();
        let client = system.add_client("London");
        system
            .subscribe_text("London", client, r#"host = "Hamilton""#)
            .unwrap();
        system.rebuild("Hamilton", "D", vec![doc("d1", "hello world")]).unwrap();
        system.run_until_quiet(SimTime::from_secs(30));
        let inbox = system.take_notifications("London", client);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].event.origin, CollectionId::new("Hamilton", "D"));
        // Exactly once.
        assert!(system.take_notifications("London", client).is_empty());
    }

    #[test]
    fn a_server_added_after_the_tree_has_run_is_addressable_by_name_at_once() {
        // Every actor of the figure world has handled messages by now;
        // names resolve in the simulator's table, so a host that joins
        // afterwards needs no refresh anywhere to be reachable.
        let mut system = figure_world();
        system.add_server("Waikato", "gds-7");
        system.add_collection("Waikato", CollectionConfig::simple("W", "w"));
        let late = system.add_client("Waikato");
        system
            .subscribe_text("Waikato", late, r#"host = "Hamilton""#)
            .unwrap();
        let early = system.add_client("London");
        system
            .subscribe_text("London", early, r#"host = "Waikato""#)
            .unwrap();
        system.run_until_quiet(SimTime::from_secs(10));

        // Old actor → new host: gds-7 addresses its delivery to a name
        // registered after gds-7 started.
        system.rebuild("Hamilton", "D", vec![doc("d1", "hello")]).unwrap();
        // New host → old actor: gds-7 names the publisher from the
        // sender's node id, and the name travels as the event's origin.
        system.rebuild("Waikato", "W", vec![doc("w1", "kia ora")]).unwrap();
        system.run_until_quiet(SimTime::from_secs(40));
        let inbox = system.take_notifications("Waikato", late);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].event.origin, CollectionId::new("Hamilton", "D"));
        let inbox = system.take_notifications("London", early);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].event.origin, CollectionId::new("Waikato", "W"));
        assert_eq!(system.metrics().counter("gds.unknown_host"), 0);
        assert_eq!(system.metrics().counter("alert.unknown_host"), 0);
    }

    #[test]
    fn a_message_to_a_name_nobody_registered_is_counted_once_and_not_sent() {
        let mut system = System::new(3);
        let mut root = GdsNode::new("gds-1", 1, None);
        root.add_child("ghost");
        system.add_gds_node(root);
        system.add_server("Hamilton", "gds-1");
        system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
        system.run_until_quiet(SimTime::from_secs(5));
        assert_eq!(system.metrics().counter("gds.unknown_host"), 0);

        // One frame crosses the network, the publish Hamilton → gds-1;
        // the flood's forward to the child nobody registered goes nowhere.
        let sent = system.metrics().counter("net.sent");
        system.rebuild("Hamilton", "D", vec![doc("d1", "hello")]).unwrap();
        system.run_until_quiet(SimTime::from_secs(10));
        assert_eq!(system.metrics().counter("gds.unknown_host"), 1);
        assert_eq!(system.metrics().counter("net.sent"), sent + 1);

        // The same at a server whose directory node does not exist: its
        // registration is counted and dropped.
        system.add_server("Lost", "gds-99");
        system.run_until_quiet(SimTime::from_secs(15));
        assert_eq!(system.metrics().counter("alert.unknown_host"), 1);
        assert_eq!(system.metrics().counter("gds.unknown_host"), 1);
        assert_eq!(system.metrics().counter("net.sent"), sent + 1);
        assert_eq!(system.metrics().counter("net.dropped"), 0);
    }

    #[test]
    fn distributed_alerting_end_to_end() {
        let mut system = figure_world();
        let client = system.add_client("Hamilton");
        system
            .subscribe_text("Hamilton", client, r#"collection = "Hamilton.D""#)
            .unwrap();
        system.rebuild("London", "E", vec![doc("e1", "euro docs")]).unwrap();
        system.run_until_quiet(SimTime::from_secs(30));
        let inbox = system.take_notifications("Hamilton", client);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].event.origin, CollectionId::new("Hamilton", "D"));
        assert_eq!(
            inbox[0].event.provenance,
            vec![CollectionId::new("London", "E")]
        );
    }

    #[test]
    fn distributed_fetch_through_system() {
        let mut system = figure_world();
        system.rebuild("Hamilton", "D", vec![doc("d1", "alpha")]).unwrap();
        system.rebuild("London", "E", vec![doc("e1", "beta")]).unwrap();
        system.run_until_quiet(SimTime::from_secs(60));
        let result = system.fetch("Hamilton", "D", SimDuration::from_secs(30));
        assert!(result.fatal.is_none());
        let mut ids: Vec<&str> = result.docs.iter().map(|d| d.doc.id.as_str()).collect();
        ids.sort();
        assert_eq!(ids, vec!["d1", "e1"]);
    }

    #[test]
    fn fetch_times_out_partially_when_partitioned() {
        let mut system = figure_world();
        system.rebuild("Hamilton", "D", vec![doc("d1", "alpha")]).unwrap();
        system.rebuild("London", "E", vec![doc("e1", "beta")]).unwrap();
        system.run_until_quiet(SimTime::from_secs(60));
        system.set_partition("London", 1);
        let result = system.fetch("Hamilton", "D", SimDuration::from_secs(30));
        assert_eq!(result.docs.len(), 1);
        assert!(result.errors.contains(&GsError::Timeout));
    }

    #[test]
    fn naming_service_through_system() {
        let mut system = figure_world();
        let resolved = system.resolve("Hamilton", "London", SimDuration::from_secs(10));
        assert_eq!(resolved, Some(HostName::new("gds-2")));
        let unknown = system.resolve("Hamilton", "Nowhere", SimDuration::from_secs(10));
        assert_eq!(unknown, None);
    }

    #[test]
    fn completions_are_taken_not_left_behind() {
        let mut system = figure_world();
        system.rebuild("London", "E", vec![doc("e1", "beta")]).unwrap();
        system.run_until_quiet(SimTime::from_secs(60));
        let within = SimDuration::from_secs(10);
        for _ in 0..5 {
            assert_eq!(system.fetch("Hamilton", "D", within).docs.len(), 1);
            let hits = system.search("Hamilton", "D", "text", &Query::term("beta"), within);
            assert_eq!(hits.hits.len(), 1);
            assert!(system.resolve("Hamilton", "London", within).is_some());
            assert!(system.resolve("Hamilton", "Nowhere", within).is_none());
        }
        let node = system.node("Hamilton");
        let left = system.sim.actor::<AlertingActor, _>(node, |actor| {
            (
                actor.completed_fetches.len(),
                actor.completed_searches.len(),
                actor.resolved.len(),
            )
        });
        assert_eq!(left, Some((0, 0, 0)));
    }

    #[test]
    fn unsubscribe_stops_notifications() {
        let mut system = figure_world();
        let client = system.add_client("London");
        let profile = system
            .subscribe_text("London", client, r#"host = "Hamilton""#)
            .unwrap();
        assert!(system.unsubscribe("London", profile));
        system.rebuild("Hamilton", "D", vec![doc("d1", "x")]).unwrap();
        system.run_until_quiet(SimTime::from_secs(30));
        assert!(system.take_notifications("London", client).is_empty());
    }

    #[test]
    fn subscribe_text_parse_error() {
        let mut system = figure_world();
        let client = system.add_client("London");
        let err = system.subscribe_text("London", client, "@@@").unwrap_err();
        assert!(matches!(err, SubscribeError::Parse(_)));
        assert!(err.to_string().contains("invalid profile"));
    }

    #[test]
    #[should_panic(expected = "unknown host")]
    fn unknown_host_panics() {
        let mut system = System::new(1);
        system.take_notifications("Ghost", ClientId::from_raw(0));
    }

    /// A node switch set once a node exists would reach only the nodes
    /// added after it: it panics instead, as an unknown host does.
    #[test]
    #[should_panic(expected = "set_wire must be called before the first node is added")]
    fn a_node_switch_set_after_the_first_node_panics() {
        let mut system = System::new(1);
        system.add_gds_topology(&figure2_tree());
        system.set_wire(WireConfig::v2());
    }

    /// Each of the six node switches refuses a late call; the link
    /// knobs are for a running deployment and do not.
    #[test]
    fn every_node_switch_refuses_a_late_call_and_the_link_knobs_do_not() {
        let late: [fn(&mut System); 6] = [
            |s| s.set_reliability(ReliabilityConfig),
            |s| s.set_wire(WireConfig::v2()),
            |s| s.set_pruning(true),
            |s| s.set_rendezvous(true),
            |s| s.set_durability(true),
            |s| s.set_alert_policies(None),
        ];
        for (i, set) in late.into_iter().enumerate() {
            let mut system = System::new(1);
            system.add_gds_node(GdsNode::new("gds-1", 1, None));
            let call = std::panic::AssertUnwindSafe(|| set(&mut system));
            assert!(std::panic::catch_unwind(call).is_err(), "switch {i}");
        }
        let mut system = System::new(1);
        system.add_gds_node(GdsNode::new("gds-1", 1, None));
        system.set_default_link(LinkConfig::lan());
        system.set_drop_probability(0.1);
    }

    /// The six wrappers, called in the order the benchmark's production
    /// deployment calls them, leave exactly the production preset, and a
    /// new deployment holds the paper's configuration.
    #[test]
    fn the_wrappers_in_the_benchmarks_order_leave_the_production_preset() {
        assert_eq!(System::new(1).config, SystemConfig::default());
        let mut system = System::new(1);
        system.set_wire(WireConfig::v2_batched(crate::actor::BatchConfig));
        system.set_reliability(ReliabilityConfig);
        system.set_pruning(true);
        system.set_rendezvous(true);
        system.set_durability(true);
        system.set_alert_policies(Some(AlertPolicyConfig::observe_only()));
        assert_eq!(system.config, SystemConfig::production());
    }

    /// Grants need pruning: asked for while the nodes flood, they are a
    /// configuration that would behave as the flood, so it is refused.
    #[test]
    #[should_panic(expected = "set_rendezvous(true) needs set_pruning(true) first")]
    fn rendezvous_before_pruning_panics() {
        System::new(1).set_rendezvous(true);
    }

    #[test]
    fn reliable_layer_delivers_exactly_once_over_lossy_links() {
        let reliable = SystemConfig { reliable: true, ..SystemConfig::default() };
        let mut system = System::with_config(11, reliable);
        system.add_gds_topology(&figure2_tree());
        system.add_server("Hamilton", "gds-4");
        system.add_server("London", "gds-2");
        system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
        let client = system.add_client("London");
        system
            .subscribe_text("London", client, r#"host = "Hamilton""#)
            .unwrap();
        system.run_until_quiet(SimTime::from_secs(5));
        // Every link now loses a quarter of its traffic; acks and
        // retransmission must still get the one event through, once.
        system.set_drop_probability(0.25);
        system.rebuild("Hamilton", "D", vec![doc("d1", "x")]).unwrap();
        system.run_until_quiet(SimTime::from_secs(65));
        let inbox = system.take_notifications("London", client);
        assert_eq!(inbox.len(), 1, "exactly one notification despite loss");
        assert!(system.metrics().counter("net.dropped") > 0, "loss happened");
        assert!(
            system.metrics().counter("net.retransmits") > 0,
            "losses were repaired by retransmission"
        );
        assert!(system.metrics().counter("net.acks") > 0);
    }

    #[test]
    fn gds_crash_heals_by_reparenting_to_grandparent() {
        let reliable = SystemConfig { reliable: true, ..SystemConfig::default() };
        let mut system = System::with_config(5, reliable);
        system.add_gds_topology(&figure2_tree());
        // London sits on gds-6, a leaf under gds-3; Hamilton far away.
        system.add_server("Hamilton", "gds-4");
        system.add_server("London", "gds-6");
        system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
        let client = system.add_client("London");
        system
            .subscribe_text("London", client, r#"host = "Hamilton""#)
            .unwrap();
        system.run_until_quiet(SimTime::from_secs(5));
        // Kill gds-3 (London's grandparent in GDS terms: gds-6's parent).
        // gds-6 should declare it dead after ~3 missed beacons and
        // re-attach to gds-1, keeping the broadcast tree connected.
        system.set_host_up("gds-3", false);
        system.run_for(SimDuration::from_secs(10));
        assert!(
            system.metrics().counter("gds.reparent") >= 1,
            "failure detector re-parented the orphaned subtree"
        );
        system.rebuild("Hamilton", "D", vec![doc("d1", "x")]).unwrap();
        system.run_until_quiet(system.now() + SimDuration::from_secs(60));
        let inbox = system.take_notifications("London", client);
        assert_eq!(
            inbox.len(),
            1,
            "event crossed the healed tree to the orphaned leaf"
        );
    }

    #[test]
    fn metrics_account_bytes_and_messages() {
        let mut system = figure_world();
        let client = system.add_client("London");
        system
            .subscribe_text("London", client, r#"host = "Hamilton""#)
            .unwrap();
        system.rebuild("Hamilton", "D", vec![doc("d1", "x")]).unwrap();
        system.run_until_quiet(SimTime::from_secs(30));
        assert!(system.metrics().counter("net.sent") > 0);
        assert!(system.metrics().counter("net.bytes_sent") > 0);
        assert_eq!(system.metrics().counter("alert.notifications"), 1);
        assert!(system.metrics().counter("alert.events_published") >= 1);
    }

    /// A frame is counted at its size in the deployment's format: one
    /// server registering at one directory node sends one frame, and
    /// `net.bytes_sent` is that frame's size on the XML wire and on v2.
    #[test]
    fn a_registration_is_counted_in_the_deployments_format() {
        let register = SysMessage::Gds(gsa_gds::GdsMessage::Register {
            gs_host: "Hamilton".into(),
        });
        assert_ne!(
            register.wire_size(WireFormat::Xml),
            register.wire_size(WireFormat::Binary),
            "the two formats size the frame apart"
        );
        for format in [WireFormat::Xml, WireFormat::Binary] {
            let wire = SystemConfig { wire: format, ..SystemConfig::default() };
            let mut system = System::with_config(7, wire);
            system.add_gds_node(GdsNode::new("gds-1", 1, None));
            system.add_server("Hamilton", "gds-1");
            system.run_until_quiet(SimTime::from_secs(5));
            let metrics = system.metrics();
            assert_eq!(metrics.counter("net.sent"), 1, "{format}: one frame");
            assert_eq!(
                metrics.counter("net.bytes_sent"),
                register.wire_size(format) as u64,
                "{format}: the registration's size"
            );
        }
    }

    /// A v2 frame of `ids` as a directory node floods it, its payloads
    /// frozen so every hop forwards the frame itself.
    fn flood_frame(ids: std::ops::Range<u64>) -> Arc<[GdsMessage]> {
        let mut payload: gsa_wire::Payload = gsa_wire::XmlElement::new("event").into();
        payload.freeze();
        ids.map(|id| GdsMessage::Broadcast {
            id: gsa_types::MessageId::from_raw(id),
            origin: "Hamilton".into(),
            payload: payload.clone(),
        })
        .collect()
    }

    /// On v2 a shared frame flooded on k edges is counted k times at its
    /// size, sized once or not. Two roots, each with four children, are
    /// handed equal frames (distinct references) by one child in the same
    /// instant and forward each on the other three; a smaller frame
    /// afterwards is counted at its own size.
    #[test]
    fn a_shared_frame_is_counted_once_per_edge() {
        let v2 = SystemConfig { wire: WireFormat::Binary, ..SystemConfig::default() };
        let mut system = System::with_config(7, v2);
        let mut topo = GdsTopology::new();
        for root in [1, 11] {
            topo.add(format!("gds-{root}"), 1, None);
            for child in root + 1..root + 5 {
                topo.add(format!("gds-{child}"), 2, Some(&format!("gds-{root}")));
            }
        }
        system.add_gds_topology(&topo);
        system.run_until_quiet(SimTime::from_secs(5));
        let id = |name: &str| system.sim.node_id(name).expect("added");
        let (one, one_child) = (id("gds-1"), id("gds-2"));
        let (two, two_child) = (id("gds-11"), id("gds-12"));
        let bytes = |system: &System| system.metrics().counter("net.bytes_sent");
        let size =
            |frame: &Arc<[GdsMessage]>| GdsMessage::Batch(frame.clone()).binary_wire_size() as u64;

        let (a, b) = (flood_frame(1..9), flood_frame(1..9));
        assert!(!Arc::ptr_eq(&a, &b) && a[..] == b[..], "equal contents, two frames");
        let before = bytes(&system);
        system.sim.inject(one_child, one, SysMessage::Gds(GdsMessage::Batch(a.clone())));
        system.sim.inject(two_child, two, SysMessage::Gds(GdsMessage::Batch(b.clone())));
        system.run_until_quiet(system.now() + SimDuration::from_secs(1));
        assert_eq!(bytes(&system) - before, 3 * size(&a) + 3 * size(&b), "each frame on 3 edges");

        let c = flood_frame(9..12);
        assert_ne!(size(&c), size(&a));
        let before = bytes(&system);
        system.sim.inject(one_child, one, SysMessage::Gds(GdsMessage::Batch(c.clone())));
        system.run_until_quiet(system.now() + SimDuration::from_secs(1));
        assert_eq!(bytes(&system) - before, 3 * size(&c), "the next frame at its own size");
    }

    /// Shared shape of the crash/restart tests: build the figure
    /// world (durable or not), subscribe London to Hamilton events,
    /// crash + restart London, then publish and count notifications.
    fn crash_restart_notifications(durable: bool) -> usize {
        let mut system = System::with_config(42, SystemConfig { durable, ..SystemConfig::default() });
        system.add_gds_topology(&figure2_tree());
        system.add_server("Hamilton", "gds-4");
        system.add_server("London", "gds-2");
        system.add_collection("London", CollectionConfig::simple("E", "e"));
        system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
        system.run_until_quiet(SimTime::from_secs(5));

        let client = system.add_client("London");
        system
            .subscribe_text("London", client, r#"host = "Hamilton""#)
            .unwrap();
        system.run_until_quiet(system.now() + SimDuration::from_secs(2));

        system.crash_server("London");
        system.run_for(SimDuration::from_secs(2));
        system.restart_server("London");
        system.run_until_quiet(system.now() + SimDuration::from_secs(5));

        system.rebuild("Hamilton", "D", vec![doc("d1", "x")]).unwrap();
        system.run_until_quiet(system.now() + SimDuration::from_secs(30));
        system.take_notifications("London", client).len()
    }

    #[test]
    fn durable_server_survives_crash_and_restart() {
        assert_eq!(crash_restart_notifications(true), 1);
    }

    #[test]
    fn memory_server_loses_subscriptions_on_crash() {
        // The honest baseline: without durability the crash really does
        // lose the subscription — the notification never arrives.
        assert_eq!(crash_restart_notifications(false), 0);
    }

    #[test]
    fn durable_recovery_counts_surface_as_state_metrics() {
        let durable = SystemConfig { durable: true, ..SystemConfig::default() };
        let mut system = System::with_config(7, durable);
        system.add_gds_topology(&figure2_tree());
        system.add_server("Hamilton", "gds-4");
        system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
        system.run_until_quiet(SimTime::from_secs(5));
        let client = system.add_client("Hamilton");
        for host in ["A", "B", "C"] {
            system
                .subscribe_text("Hamilton", client, &format!(r#"host = "{host}""#))
                .unwrap();
        }
        system.run_until_quiet(system.now() + SimDuration::from_secs(2));
        assert!(system.metrics().counter("state.journal_appends") >= 3);

        system.crash_server("Hamilton");
        system.restart_server("Hamilton");
        system.run_until_quiet(system.now() + SimDuration::from_secs(5));
        assert!(system.metrics().counter("state.replay_records") >= 3);
        assert_eq!(system.metrics().counter("state.journal_corrupt"), 0);
        assert_eq!(
            system.inspect_core("Hamilton", |core| core.subscriptions().len()),
            3
        );
    }

    fn pruned_durable() -> SystemConfig {
        SystemConfig {
            interest: InterestMode::Prune,
            durable: true,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn durable_restart_reannounces_at_a_version_pruning_accepts() {
        // Pruning + durability: after crash+restart the re-announced
        // summary must not be dropped as stale, or the recovered
        // server's events stop flowing (a false negative PR 5 forbids).
        let mut system = System::with_config(9, pruned_durable());
        system.add_gds_topology(&figure2_tree());
        system.add_server("Hamilton", "gds-4");
        system.add_server("London", "gds-2");
        system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
        system.run_until_quiet(SimTime::from_secs(5));

        let client = system.add_client("London");
        system
            .subscribe_text("London", client, r#"host = "Hamilton""#)
            .unwrap();
        system.run_until_quiet(system.now() + SimDuration::from_secs(2));

        system.crash_server("London");
        system.run_for(SimDuration::from_secs(2));
        system.restart_server("London");
        system.run_until_quiet(system.now() + SimDuration::from_secs(5));

        // The recovered announcement must reach gds-2 with a version
        // above the pre-crash one, so the flood still turns toward
        // London's branch.
        system.rebuild("Hamilton", "D", vec![doc("d1", "x")]).unwrap();
        system.run_until_quiet(system.now() + SimDuration::from_secs(30));
        assert_eq!(system.take_notifications("London", client).len(), 1);
    }

    #[test]
    fn durable_restart_announces_the_pre_crash_summary_and_still_narrows() {
        let mut system = System::with_config(13, pruned_durable());
        system.add_gds_topology(&figure2_tree());
        system.add_server("London", "gds-2");
        system.run_until_quiet(SimTime::from_secs(5));
        let client = system.add_client("London");
        let mut ids = Vec::new();
        for text in [
            r#"host = "Hamilton" AND kind = "documents-added""#,
            r#"collection = "Berlin.B" AND kind = "collection-rebuilt""#,
            r#"host in ["Hamilton", "Auckland"] AND kind = "documents-added""#,
        ] {
            ids.push(system.subscribe_text("London", client, text).unwrap());
        }
        let cancelled = system.subscribe_text("London", client, r#"text ~ "*x*""#).unwrap();
        assert!(system.unsubscribe("London", cancelled));
        // What London's directory node holds as London's summary.
        let announced = |system: &mut System| {
            system.run_until_quiet(system.now() + SimDuration::from_secs(5));
            let held = system.inspect_gds("gds-2", |node| {
                node.edge_summary(&HostName::new("London")).cloned()
            });
            held.expect("London announces")
        };
        let before = announced(&mut system);
        assert!(before.may_match("Auckland", "Auckland.A") && before.has_attrs());

        system.crash_server("London");
        system.run_for(SimDuration::from_secs(2));
        system.restart_server("London");
        assert_eq!(announced(&mut system), before);
        assert!(system.metrics().counter("state.replay_records") >= 5);

        // The counts were rebuilt from the journal: the recovered
        // profile that alone held Auckland takes it along.
        system.unsubscribe("London", ids[2]);
        let narrowed = announced(&mut system);
        assert!(!narrowed.may_match("Auckland", "Auckland.A"));
        assert!(narrowed.may_match("Hamilton", "Hamilton.D") && narrowed.has_attrs());
    }

    #[test]
    fn torn_storage_never_panics_and_never_forges_subscriptions() {
        let durable = SystemConfig { durable: true, ..SystemConfig::default() };
        let mut system = System::with_config(11, durable);
        system.add_gds_topology(&figure2_tree());
        system.add_server("Hamilton", "gds-4");
        system.add_collection("Hamilton", CollectionConfig::simple("D", "d"));
        system.run_until_quiet(SimTime::from_secs(5));
        let client = system.add_client("Hamilton");
        for host in ["A", "B"] {
            system
                .subscribe_text("Hamilton", client, &format!(r#"host = "{host}""#))
                .unwrap();
        }
        system.run_until_quiet(system.now() + SimDuration::from_secs(2));

        // Tear bytes off the durable journal, then crash + restart:
        // recovery must come back with a subset of the real
        // subscriptions and no panic anywhere.
        let storage = system.storage_of("Hamilton").expect("durable server");
        storage.tear_tail(3);
        system.crash_server("Hamilton");
        system.restart_server("Hamilton");
        system.run_until_quiet(system.now() + SimDuration::from_secs(5));
        let recovered = system.inspect_core("Hamilton", |core| core.subscriptions().len());
        assert_eq!(recovered, 1, "the torn record drops, the intact one survives");
    }
}
