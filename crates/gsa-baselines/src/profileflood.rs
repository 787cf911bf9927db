//! Profile flooding/replication.

use crate::msg::{BaselineMsg, Delivery, GlobalProfileId};
use gsa_profile::ProfileExpr;
use gsa_simnet::{Actor, CounterId, Ctx, NodeId, Sim};
use gsa_types::{ClientId, Event, HostName, SimDuration, SimTime};
use std::collections::{HashMap, HashSet};

const TTL: u32 = 32;

struct ProfileFloodActor {
    host: HostName,
    neighbors: Vec<HostName>,
    seen: HashSet<(HostName, u64)>,
    /// Every profile this server knows: own ones and replicas.
    profiles: HashMap<GlobalProfileId, (ClientId, ProfileExpr)>,
    /// The profiles *owned* here (still active from the owner's view).
    own_active: HashSet<u64>,
    next_profile: u64,
    next_flood: u64,
    deliveries: Vec<Delivery>,
}

impl ProfileFloodActor {
    fn flood(&self, ctx: &mut Ctx<'_, BaselineMsg>, msg: &BaselineMsg, except: Option<NodeId>) {
        let ttl = match msg {
            BaselineMsg::FloodProfileAdd { ttl, .. }
            | BaselineMsg::FloodProfileRemove { ttl, .. } => *ttl,
            _ => 0,
        };
        if ttl == 0 {
            return;
        }
        for n in &self.neighbors {
            let Some(node) = ctx.resolve(n.as_str()) else {
                continue;
            };
            if Some(node) == except {
                continue;
            }
            let mut fwd = msg.clone();
            match &mut fwd {
                BaselineMsg::FloodProfileAdd { ttl, .. }
                | BaselineMsg::FloodProfileRemove { ttl, .. } => *ttl -= 1,
                _ => {}
            }
            ctx.send(node, fwd);
        }
    }
}

impl Actor<BaselineMsg> for ProfileFloodActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, BaselineMsg>, from: NodeId, msg: BaselineMsg) {
        match msg {
            BaselineMsg::FloodProfileAdd {
                flood_id,
                ttl,
                profile,
                client,
                expr,
            } => {
                if !self.seen.insert(flood_id.clone()) {
                    return;
                }
                self.profiles.insert(profile.clone(), (client, expr.clone()));
                ctx.count_id(CounterId::PROFILEFLOOD_REPLICAS, 1);
                self.flood(
                    ctx,
                    &BaselineMsg::FloodProfileAdd {
                        flood_id,
                        ttl,
                        profile,
                        client,
                        expr,
                    },
                    Some(from),
                );
            }
            BaselineMsg::FloodProfileRemove {
                flood_id,
                ttl,
                profile,
            } => {
                if !self.seen.insert(flood_id.clone()) {
                    return;
                }
                self.profiles.remove(&profile);
                self.flood(
                    ctx,
                    &BaselineMsg::FloodProfileRemove {
                        flood_id,
                        ttl,
                        profile,
                    },
                    Some(from),
                );
            }
            BaselineMsg::Notify {
                profile,
                client,
                event,
            } => {
                // The owner checks whether the profile is still active;
                // a notification for a cancelled profile is the
                // user-visible orphan-profile false positive.
                let spurious = !(profile.owner == self.host && self.own_active.contains(&profile.seq));
                if spurious {
                    ctx.count_id(CounterId::PROFILEFLOOD_SPURIOUS, 1);
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

/// The profile-flooding deployment.
///
/// Profiles are replicated to every server reachable over the reference
/// graph; events are filtered *at their source* against all replicas and
/// notifications go point-to-point to the owner. Replicas a cancellation
/// cannot reach become **orphan profiles** — the Section 2 failure mode.
pub struct ProfileFloodSystem {
    sim: Sim<BaselineMsg>,
}

impl ProfileFloodSystem {
    /// Creates a deployment.
    pub fn new(seed: u64) -> Self {
        let mut sim = Sim::new(seed);
        sim.set_wire_size_fn(BaselineMsg::wire_size);
        ProfileFloodSystem {
            sim,
        }
    }

    /// Adds a server with its direct reference neighbours.
    pub fn add_server(&mut self, host: &str, neighbors: Vec<HostName>) -> NodeId {
        let actor = ProfileFloodActor {
            host: HostName::new(host),
            neighbors,
            seen: HashSet::new(),
            profiles: HashMap::new(),
            own_active: HashSet::new(),
            next_profile: 0,
            next_flood: 0,
            deliveries: Vec::new(),
        };
        self.sim.add_node(host, actor)
    }

    fn node(&self, host: &str) -> NodeId {
        self.sim
            .node_id(host)
            .unwrap_or_else(|| panic!("unknown host {host:?}"))
    }

    /// Registers a profile at `host`; the registration floods to every
    /// reachable server.
    pub fn subscribe(&mut self, host: &str, client: ClientId, expr: ProfileExpr) -> GlobalProfileId {
        let node = self.node(host);
        self.sim
            .with_actor::<ProfileFloodActor, GlobalProfileId>(node, |actor, ctx| {
                let seq = actor.next_profile;
                actor.next_profile += 1;
                let profile = GlobalProfileId {
                    owner: actor.host.clone(),
                    seq,
                };
                actor.own_active.insert(seq);
                actor.profiles.insert(profile.clone(), (client, expr.clone()));
                let flood_id = (actor.host.clone(), actor.next_flood);
                actor.next_flood += 1;
                actor.seen.insert(flood_id.clone());
                let msg = BaselineMsg::FloodProfileAdd {
                    flood_id,
                    ttl: TTL,
                    profile: profile.clone(),
                    client,
                    expr,
                };
                actor.flood(ctx, &msg, None);
                profile
            })
            .expect("profileflood actor")
    }

    /// Cancels a profile at its owner; the cancellation floods, but
    /// replicas it cannot reach stay orphaned.
    pub fn unsubscribe(&mut self, profile: &GlobalProfileId) -> bool {
        let node = self.node(profile.owner.as_str());
        let p = profile.clone();
        self.sim
            .with_actor::<ProfileFloodActor, bool>(node, move |actor, ctx| {
                let was_active = actor.own_active.remove(&p.seq);
                actor.profiles.remove(&p);
                let flood_id = (actor.host.clone(), actor.next_flood);
                actor.next_flood += 1;
                actor.seen.insert(flood_id.clone());
                let msg = BaselineMsg::FloodProfileRemove {
                    flood_id,
                    ttl: TTL,
                    profile: p,
                };
                actor.flood(ctx, &msg, None);
                was_active
            })
            .expect("profileflood actor")
    }

    /// Publishes an event; filtering happens at the source against all
    /// replicated profiles.
    pub fn publish(&mut self, host: &str, event: Event) {
        let node = self.node(host);
        self.sim
            .with_actor::<ProfileFloodActor, ()>(node, |actor, ctx| {
                let mut local = Vec::new();
                for (gpid, (client, expr)) in &actor.profiles {
                    if !expr.matches_event(&event) {
                        continue;
                    }
                    if gpid.owner == actor.host {
                        local.push((gpid.clone(), *client));
                    } else if let Some(owner_node) = ctx.resolve(gpid.owner.as_str()) {
                        ctx.send(
                            owner_node,
                            BaselineMsg::Notify {
                                profile: gpid.clone(),
                                client: *client,
                                event: event.clone(),
                            },
                        );
                    }
                }
                for (gpid, client) in local {
                    let spurious = !actor.own_active.contains(&gpid.seq);
                    actor.deliveries.push(Delivery {
                        host: actor.host.clone(),
                        client,
                        profile: gpid,
                        event_id: event.id.clone(),
                        at: ctx.now(),
                        spurious,
                    });
                }
            })
            .expect("profileflood actor");
    }

    /// Total profiles stored across all servers (own + replicas): the E7
    /// memory metric.
    pub fn stored_profiles(&mut self) -> usize {
        let mut total = 0;
        for node in self.sim.node_ids().collect::<Vec<_>>() {
            if let Some(n) = self
                .sim
                .actor::<ProfileFloodActor, usize>(node, |actor| actor.profiles.len())
            {
                total += n;
            }
        }
        total
    }

    /// Replicas whose owner has cancelled them — orphan profiles.
    pub fn orphan_profiles(&mut self) -> usize {
        // Collect the owners' active sets first.
        let nodes: Vec<NodeId> = self.sim.node_ids().collect();
        let mut active: HashSet<GlobalProfileId> = HashSet::new();
        for node in &nodes {
            if let Some(set) = self
                .sim
                .actor::<ProfileFloodActor, Vec<GlobalProfileId>>(*node, |actor| {
                    actor
                        .own_active
                        .iter()
                        .map(|seq| GlobalProfileId {
                            owner: actor.host.clone(),
                            seq: *seq,
                        })
                        .collect()
                })
            {
                active.extend(set);
            }
        }
        let mut orphans = 0;
        for node in &nodes {
            if let Some(n) = self.sim.actor::<ProfileFloodActor, usize>(*node, |actor| {
                actor
                    .profiles
                    .keys()
                    .filter(|gpid| !active.contains(gpid))
                    .count()
            }) {
                orphans += n;
            }
        }
        orphans
    }

    /// Drains every server's delivery log.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        for node in self.sim.node_ids().collect::<Vec<_>>() {
            if let Some(mut d) =
                self.sim
                    .with_actor::<ProfileFloodActor, Vec<Delivery>>(node, |actor, _| {
                        std::mem::take(&mut actor.deliveries)
                    })
            {
                out.append(&mut d);
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

impl std::fmt::Debug for ProfileFloodSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileFloodSystem")
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

    fn h(s: &str) -> HostName {
        HostName::new(s)
    }

    fn pair() -> ProfileFloodSystem {
        let mut sys = ProfileFloodSystem::new(1);
        sys.add_server("A", vec![h("B")]);
        sys.add_server("B", vec![h("A")]);
        sys
    }

    #[test]
    fn profile_replication_and_remote_notification() {
        let mut sys = pair();
        let c = ClientId::from_raw(1);
        sys.subscribe("B", c, parse_profile(r#"host = "A""#).unwrap());
        sys.run_until_quiet(SimTime::from_secs(10));
        assert_eq!(sys.stored_profiles(), 2); // original + replica on A
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(20));
        let d = sys.take_deliveries();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].host, h("B"));
        assert!(!d[0].spurious);
    }

    #[test]
    fn orphan_profile_causes_spurious_notification() {
        let mut sys = pair();
        let c = ClientId::from_raw(1);
        let p = sys.subscribe("B", c, parse_profile(r#"host = "A""#).unwrap());
        sys.run_until_quiet(SimTime::from_secs(10));
        // Partition, then cancel: the removal flood cannot reach A.
        sys.set_partition("B", 1);
        assert!(sys.unsubscribe(&p));
        sys.run_until_quiet(SimTime::from_secs(20));
        assert_eq!(sys.orphan_profiles(), 1);
        // Heal only the network (the replica on A is still there).
        sys.heal_network();
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(30));
        let d = sys.take_deliveries();
        assert_eq!(d.len(), 1);
        assert!(d[0].spurious, "cancelled profile must show as spurious");
        assert!(sys.metrics().counter("profileflood.spurious") >= 1);
    }

    #[test]
    fn cancellation_reaches_replicas_when_connected() {
        let mut sys = pair();
        let c = ClientId::from_raw(1);
        let p = sys.subscribe("B", c, parse_profile(r#"host = "A""#).unwrap());
        sys.run_until_quiet(SimTime::from_secs(10));
        sys.unsubscribe(&p);
        sys.run_until_quiet(SimTime::from_secs(20));
        assert_eq!(sys.stored_profiles(), 0);
        assert_eq!(sys.orphan_profiles(), 0);
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(30));
        assert!(sys.take_deliveries().is_empty());
    }

    #[test]
    fn memory_grows_with_servers() {
        let mut sys = ProfileFloodSystem::new(1);
        let hosts = ["A", "B", "C", "D"];
        for (i, host) in hosts.iter().enumerate() {
            // A chain A-B-C-D.
            let mut neighbors = Vec::new();
            if i > 0 {
                neighbors.push(h(hosts[i - 1]));
            }
            if i + 1 < hosts.len() {
                neighbors.push(h(hosts[i + 1]));
            }
            sys.add_server(host, neighbors);
        }
        let c = ClientId::from_raw(1);
        sys.subscribe("A", c, parse_profile(r#"host = "D""#).unwrap());
        sys.run_until_quiet(SimTime::from_secs(10));
        // One profile, four copies.
        assert_eq!(sys.stored_profiles(), 4);
    }

    #[test]
    fn local_delivery_for_local_event() {
        let mut sys = pair();
        let c = ClientId::from_raw(1);
        sys.subscribe("A", c, parse_profile(r#"host = "A""#).unwrap());
        sys.run_until_quiet(SimTime::from_secs(5));
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(10));
        let d = sys.take_deliveries();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].host, h("A"));
    }
}
