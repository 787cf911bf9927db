//! Rendezvous-node routing (Scribe/Hermes-style).

use crate::msg::{fnv1a, BaselineMsg, Delivery, GlobalProfileId};
use gsa_profile::ProfileExpr;
use gsa_simnet::{Actor, CounterId, Ctx, NodeId, Sim};
use gsa_types::{ClientId, Event, HostName, SimDuration, SimTime};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The shared ring of hosts rendezvous hashing selects from.
type Ring = Arc<RwLock<Vec<HostName>>>;

fn rendezvous_of(ring: &Ring, topic: &str) -> Option<HostName> {
    let ring = ring.read();
    if ring.is_empty() {
        return None;
    }
    let idx = (fnv1a(topic) % ring.len() as u64) as usize;
    Some(ring[idx].clone())
}

struct RendezvousActor {
    host: HostName,
    /// Profiles this node is the rendezvous for, by topic.
    table: HashMap<String, Vec<(GlobalProfileId, ClientId, ProfileExpr)>>,
    /// Profiles owned here that are still active.
    own_active: HashSet<u64>,
    next_profile: u64,
    deliveries: Vec<Delivery>,
}

impl Actor<BaselineMsg> for RendezvousActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, BaselineMsg>, _from: NodeId, msg: BaselineMsg) {
        match msg {
            BaselineMsg::RvProfileAdd {
                topic,
                profile,
                client,
                expr,
            } => {
                let entry = self.table.entry(topic).or_default();
                if !entry.iter().any(|(p, _, _)| p == &profile) {
                    entry.push((profile, client, expr));
                    ctx.count_id(CounterId::RENDEZVOUS_STORED_PROFILES, 1);
                }
            }
            BaselineMsg::RvProfileRemove { topic, profile } => {
                if let Some(entry) = self.table.get_mut(&topic) {
                    entry.retain(|(p, _, _)| p != &profile);
                    if entry.is_empty() {
                        self.table.remove(&topic);
                    }
                }
            }
            BaselineMsg::RvEvent { topic, event } => {
                ctx.count_id(CounterId::RENDEZVOUS_FILTERED_EVENTS, 1);
                let Some(entry) = self.table.get(&topic) else {
                    return;
                };
                for (profile, client, expr) in entry {
                    if expr.matches_event(&event) {
                        if let Some(owner_node) = ctx.resolve(profile.owner.as_str()) {
                            ctx.send(
                                owner_node,
                                BaselineMsg::Notify {
                                    profile: profile.clone(),
                                    client: *client,
                                    event: event.clone(),
                                },
                            );
                        }
                    }
                }
            }
            BaselineMsg::Notify {
                profile,
                client,
                event,
            } => {
                let spurious =
                    !(profile.owner == self.host && self.own_active.contains(&profile.seq));
                if spurious {
                    ctx.count_id(CounterId::RENDEZVOUS_SPURIOUS, 1);
                }
                self.deliveries.push(Delivery {
                    host: self.host.clone(),
                    client,
                    profile,
                    event_id: event.id.clone(),
                    at: ctx.now(),
                    spurious,
                });
            }
            _ => {}
        }
    }
}

/// The rendezvous-routing deployment.
///
/// Profiles subscribe to a *topic* (the collection they observe); topic
/// and event meet at the hash-selected rendezvous server. This gives
/// routing without flooding, at the price Section 2 names: the rendezvous
/// "may become a bottleneck", and its failure silently loses events.
pub struct RendezvousSystem {
    sim: Sim<BaselineMsg>,
    ring: Ring,
}

impl RendezvousSystem {
    /// Creates a deployment.
    pub fn new(seed: u64) -> Self {
        let mut sim = Sim::new(seed);
        sim.set_wire_size_fn(BaselineMsg::wire_size);
        RendezvousSystem {
            sim,
            ring: Arc::new(RwLock::new(Vec::new())),
        }
    }

    /// Adds a server; it joins the rendezvous ring.
    pub fn add_server(&mut self, host: &str) -> NodeId {
        let actor = RendezvousActor {
            host: HostName::new(host),
            table: HashMap::new(),
            own_active: HashSet::new(),
            next_profile: 0,
            deliveries: Vec::new(),
        };
        self.ring.write().push(HostName::new(host));
        self.sim.add_node(host, actor)
    }

    fn node(&self, host: &str) -> NodeId {
        self.sim
            .node_id(host)
            .unwrap_or_else(|| panic!("unknown host {host:?}"))
    }

    /// The rendezvous host responsible for a topic.
    pub fn rendezvous_host(&self, topic: &str) -> Option<HostName> {
        rendezvous_of(&self.ring, topic)
    }

    /// Registers a profile at `host` for `topic`; it is stored at the
    /// topic's rendezvous server.
    pub fn subscribe(
        &mut self,
        host: &str,
        client: ClientId,
        topic: &str,
        expr: ProfileExpr,
    ) -> GlobalProfileId {
        let node = self.node(host);
        let ring = Arc::clone(&self.ring);
        let topic = topic.to_string();
        self.sim
            .with_actor::<RendezvousActor, GlobalProfileId>(node, move |actor, ctx| {
                let seq = actor.next_profile;
                actor.next_profile += 1;
                actor.own_active.insert(seq);
                let profile = GlobalProfileId {
                    owner: actor.host.clone(),
                    seq,
                };
                if let Some(rv) = rendezvous_of(&ring, &topic) {
                    if let Some(rv_node) = ctx.resolve(rv.as_str()) {
                        ctx.send(
                            rv_node,
                            BaselineMsg::RvProfileAdd {
                                topic,
                                profile: profile.clone(),
                                client,
                                expr,
                            },
                        );
                    }
                }
                profile
            })
            .expect("rendezvous actor")
    }

    /// Cancels a profile: marks it inactive at the owner and sends the
    /// removal to the rendezvous (which may be unreachable).
    pub fn unsubscribe(&mut self, profile: &GlobalProfileId, topic: &str) -> bool {
        let node = self.node(profile.owner.as_str());
        let ring = Arc::clone(&self.ring);
        let topic = topic.to_string();
        let p = profile.clone();
        self.sim
            .with_actor::<RendezvousActor, bool>(node, move |actor, ctx| {
                let was_active = actor.own_active.remove(&p.seq);
                if let Some(rv) = rendezvous_of(&ring, &topic) {
                    if let Some(rv_node) = ctx.resolve(rv.as_str()) {
                        ctx.send(rv_node, BaselineMsg::RvProfileRemove { topic, profile: p });
                    }
                }
                was_active
            })
            .expect("rendezvous actor")
    }

    /// Publishes an event; it is routed to its topic's rendezvous for
    /// filtering. The topic is the event's origin collection.
    pub fn publish(&mut self, host: &str, event: Event) {
        let node = self.node(host);
        let ring = Arc::clone(&self.ring);
        self.sim
            .with_actor::<RendezvousActor, ()>(node, move |_, ctx| {
                let topic = event.origin.to_string();
                if let Some(rv) = rendezvous_of(&ring, &topic) {
                    if let Some(rv_node) = ctx.resolve(rv.as_str()) {
                        ctx.send(rv_node, BaselineMsg::RvEvent { topic, event });
                    }
                }
            })
            .expect("rendezvous actor");
    }

    /// Drains every server's delivery log.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        for node in self.sim.node_ids().collect::<Vec<_>>() {
            if let Some(mut d) =
                self.sim
                    .with_actor::<RendezvousActor, Vec<Delivery>>(node, |actor, _| {
                        std::mem::take(&mut actor.deliveries)
                    })
            {
                out.append(&mut d);
            }
        }
        out
    }

    /// Profiles stored at rendezvous tables, per host — the bottleneck
    /// metric's numerator.
    pub fn stored_profiles_per_host(&mut self) -> HashMap<HostName, usize> {
        let mut out = HashMap::new();
        for node in self.sim.node_ids().collect::<Vec<_>>() {
            if let Some((host, n)) =
                self.sim.actor::<RendezvousActor, (HostName, usize)>(node, |actor| {
                    (
                        actor.host.clone(),
                        actor.table.values().map(Vec::len).sum(),
                    )
                })
            {
                out.insert(host, n);
            }
        }
        out
    }

    /// The underlying simulator.
    pub fn sim_mut(&mut self) -> &mut Sim<BaselineMsg> {
        &mut self.sim
    }

    /// Runs until quiet, capped at `deadline`.
    pub fn run_until_quiet(&mut self, deadline: SimTime) -> usize {
        self.sim.run_until_quiet(deadline)
    }

    /// Runs for `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) -> usize {
        self.sim.run_for(d)
    }

    /// Marks a host up or down (rendezvous failure experiments).
    ///
    /// # Panics
    ///
    /// Panics when `host` is unknown.
    pub fn set_host_up(&mut self, host: &str, up: bool) {
        let node = self.node(host);
        self.sim.set_node_up(node, up);
    }

    /// Partition control by host name.
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

    /// The accumulated metrics.
    pub fn metrics(&self) -> &gsa_simnet::Metrics {
        self.sim.metrics()
    }
}

impl std::fmt::Debug for RendezvousSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RendezvousSystem")
            .field("nodes", &self.sim.node_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_profile::parse_profile;
    use gsa_types::{CollectionId, EventId, EventKind};

    fn event(host: &str, seq: u64) -> Event {
        Event::new(
            EventId::new(host, seq),
            CollectionId::new(host, "C"),
            EventKind::CollectionRebuilt,
            SimTime::ZERO,
        )
    }

    fn trio() -> RendezvousSystem {
        let mut sys = RendezvousSystem::new(1);
        sys.add_server("A");
        sys.add_server("B");
        sys.add_server("C");
        sys
    }

    #[test]
    fn subscribe_and_notify_through_rendezvous() {
        let mut sys = trio();
        let c = ClientId::from_raw(1);
        let topic = "A.C";
        sys.subscribe("B", c, topic, parse_profile(r#"host = "A""#).unwrap());
        sys.run_until_quiet(SimTime::from_secs(10));
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(20));
        let d = sys.take_deliveries();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].host, HostName::new("B"));
        assert!(!d[0].spurious);
    }

    #[test]
    fn rendezvous_failure_loses_events() {
        let mut sys = trio();
        let c = ClientId::from_raw(1);
        let topic = "A.C";
        sys.subscribe("B", c, topic, parse_profile(r#"host = "A""#).unwrap());
        sys.run_until_quiet(SimTime::from_secs(10));
        let rv = sys.rendezvous_host(topic).unwrap();
        sys.set_host_up(rv.as_str(), false);
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(20));
        // False negative: nothing delivered.
        assert!(sys.take_deliveries().is_empty());
    }

    #[test]
    fn unsubscribe_at_rendezvous() {
        let mut sys = trio();
        let c = ClientId::from_raw(1);
        let topic = "A.C";
        let p = sys.subscribe("B", c, topic, parse_profile(r#"host = "A""#).unwrap());
        sys.run_until_quiet(SimTime::from_secs(10));
        assert!(sys.unsubscribe(&p, topic));
        sys.run_until_quiet(SimTime::from_secs(20));
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(30));
        assert!(sys.take_deliveries().is_empty());
    }

    #[test]
    fn unreachable_rendezvous_orphans_profile_and_spurious_notify() {
        let mut sys = trio();
        let c = ClientId::from_raw(1);
        let topic = "A.C";
        let p = sys.subscribe("B", c, topic, parse_profile(r#"host = "A""#).unwrap());
        sys.run_until_quiet(SimTime::from_secs(10));
        // Partition B away; the removal cannot reach the rendezvous.
        let rv = sys.rendezvous_host(topic).unwrap();
        assert_ne!(rv, HostName::new("B"), "test assumes remote rendezvous");
        sys.set_partition("B", 1);
        assert!(sys.unsubscribe(&p, topic));
        sys.run_until_quiet(SimTime::from_secs(20));
        sys.heal_network();
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(30));
        let d = sys.take_deliveries();
        assert_eq!(d.len(), 1);
        assert!(d[0].spurious);
    }

    #[test]
    fn load_concentrates_on_rendezvous() {
        let mut sys = trio();
        let topic = "A.C";
        for i in 0..30 {
            let c = ClientId::from_raw(i);
            sys.subscribe("B", c, topic, parse_profile(r#"host = "A""#).unwrap());
        }
        sys.run_until_quiet(SimTime::from_secs(10));
        let per_host = sys.stored_profiles_per_host();
        let max = per_host.values().copied().max().unwrap();
        assert_eq!(max, 30, "all profiles of one topic on one node");
    }

    #[test]
    fn rendezvous_choice_is_deterministic() {
        let sys = trio();
        assert_eq!(sys.rendezvous_host("x"), sys.rendezvous_host("x"));
    }
}
