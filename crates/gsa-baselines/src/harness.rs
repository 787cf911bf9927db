//! The one harness every baseline runs in.

use crate::msg::{BaselineMsg, Delivery, GlobalProfileId};
use gsa_profile::ProfileExpr;
use gsa_simnet::{Actor, Ctx, Metrics, NodeId, Sim};
use gsa_types::{ClientId, Event, HostName, SimTime};
use std::fmt;
use std::marker::PhantomData;

/// One server of a baseline scheme: its actor, plus the client
/// operations that start at it.
///
/// `ring` lists every server of the deployment in join order (rendezvous
/// hashing picks from it). `topic` names the collection a profile
/// observes; only rendezvous routing reads it.
pub trait Server: Actor<BaselineMsg> + Sized {
    /// The host this server runs on.
    fn host(&self) -> &HostName;

    /// Registers `expr` for `client` here under the identity `profile`.
    fn subscribe(
        &mut self,
        ctx: &mut Ctx<'_, BaselineMsg>,
        ring: &[HostName],
        profile: &GlobalProfileId,
        client: ClientId,
        topic: &str,
        expr: ProfileExpr,
    );

    /// Cancels a profile owned here; `true` when it was still active.
    fn unsubscribe(
        &mut self,
        ctx: &mut Ctx<'_, BaselineMsg>,
        ring: &[HostName],
        profile: &GlobalProfileId,
        topic: &str,
    ) -> bool;

    /// Publishes an event that originates here.
    fn publish(&mut self, ctx: &mut Ctx<'_, BaselineMsg>, ring: &[HostName], event: Event);

    /// The notifications delivered here since the last drain.
    fn deliveries(&mut self) -> &mut Vec<Delivery>;

    /// Profiles stored here: own ones, replicas and rendezvous entries.
    fn stored_profiles(&self) -> usize;

    /// Stored profiles, across the deployment, whose owner has cancelled
    /// them. Only profile flooding counts them; the other schemes report
    /// none.
    fn orphan_profiles(_net: &mut Baseline<Self>) -> usize {
        0
    }
}

/// A baseline deployment: one simulator whose servers all run `S`.
///
/// Every method that names a host panics when the host is unknown.
pub struct Baseline<S> {
    sim: Sim<BaselineMsg>,
    /// Every server in join order: the ring rendezvous hashing picks from.
    /// Every node is a server, so node `i` runs on `ring[i]`.
    pub(crate) ring: Vec<HostName>,
    /// Profiles registered so far, per server in join order.
    registered: Vec<u64>,
    scheme: PhantomData<S>,
}

impl<S: Server> Baseline<S> {
    /// Creates an empty deployment. Messages are charged their XML size,
    /// as in the hybrid service.
    pub fn new(seed: u64) -> Self {
        let mut sim = Sim::new(seed);
        sim.set_wire_size_fn(BaselineMsg::wire_size);
        Baseline {
            sim,
            ring: Vec::new(),
            registered: Vec::new(),
            scheme: PhantomData,
        }
    }

    /// Adds a server under its host name.
    pub fn add_server(&mut self, server: S) -> NodeId {
        let host = server.host().clone();
        let node = self.sim.add_node(host.as_str(), server);
        self.ring.push(host);
        self.registered.push(0);
        node
    }

    fn node(&self, host: &str) -> NodeId {
        self.sim
            .node_id(host)
            .unwrap_or_else(|| panic!("unknown host {host:?}"))
    }

    /// Runs `op` on the server at `node`.
    fn at<R>(
        &mut self,
        node: NodeId,
        op: impl FnOnce(&mut S, &mut Ctx<'_, BaselineMsg>, &[HostName]) -> R,
    ) -> R {
        let ring = &self.ring;
        self.sim
            .with_actor(node, |server, ctx| op(server, ctx, ring))
            .expect("every node runs the scheme's server")
    }

    /// Runs `f` on every server, in join order.
    pub(crate) fn servers<R>(&mut self, mut f: impl FnMut(&mut S) -> R) -> Vec<R> {
        let nodes: Vec<NodeId> = self.sim.node_ids().collect();
        nodes
            .into_iter()
            .filter_map(|node| self.sim.with_actor(node, |server, _| f(server)))
            .collect()
    }

    /// Registers a profile at `host` for `topic`.
    pub fn subscribe(
        &mut self,
        host: &str,
        client: ClientId,
        topic: &str,
        expr: ProfileExpr,
    ) -> GlobalProfileId {
        let node = self.node(host);
        let i = node.as_u32() as usize;
        let profile = GlobalProfileId {
            owner: self.ring[i].clone(),
            seq: self.registered[i],
        };
        self.registered[i] += 1;
        self.at(node, |server, ctx, ring| {
            server.subscribe(ctx, ring, &profile, client, topic, expr);
        });
        profile
    }

    /// Cancels a profile at its owner; `true` when it was still active.
    pub fn unsubscribe(&mut self, profile: &GlobalProfileId, topic: &str) -> bool {
        let node = self.node(profile.owner.as_str());
        self.at(node, |server, ctx, ring| {
            server.unsubscribe(ctx, ring, profile, topic)
        })
    }

    /// Publishes an event at its origin server.
    pub fn publish(&mut self, host: &str, event: Event) {
        let node = self.node(host);
        self.at(node, |server, ctx, ring| server.publish(ctx, ring, event));
    }

    /// Drains every server's delivery log, in join order.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        self.servers(|server| std::mem::take(server.deliveries()))
            .concat()
    }

    /// Profiles stored across all servers: the E7 memory metric.
    pub fn stored_profiles(&mut self) -> usize {
        self.servers(|server| server.stored_profiles())
            .into_iter()
            .sum()
    }

    /// Stored profiles whose owner has cancelled them.
    pub fn orphan_profiles(&mut self) -> usize {
        S::orphan_profiles(self)
    }

    /// The underlying simulator.
    pub fn sim_mut(&mut self) -> &mut Sim<BaselineMsg> {
        &mut self.sim
    }

    /// Runs until quiet, capped at `deadline`.
    pub fn run_until_quiet(&mut self, deadline: SimTime) -> usize {
        self.sim.run_until_quiet(deadline)
    }

    /// Marks a host up or down.
    pub fn set_host_up(&mut self, host: &str, up: bool) {
        let node = self.node(host);
        self.sim.set_node_up(node, up);
    }

    /// Assigns a host to a partition group (group 0 is the default).
    pub fn set_partition(&mut self, host: &str, group: u32) {
        let node = self.node(host);
        self.sim.set_partition(node, group);
    }

    /// Heals all partitions.
    pub fn heal_network(&mut self) {
        self.sim.heal_network();
    }

    /// The accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }
}

impl<S> fmt::Debug for Baseline<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Baseline")
            .field("scheme", &std::any::type_name::<S>())
            .field("servers", &self.ring)
            .finish()
    }
}
