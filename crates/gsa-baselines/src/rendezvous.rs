//! Rendezvous-node routing (Scribe/Hermes-style).

use crate::harness::{Baseline, Server};
use crate::msg::{fnv1a, BaselineMsg, Delivery, GlobalProfileId};
use gsa_profile::ProfileExpr;
use gsa_simnet::{Actor, CounterId, Ctx, NodeId};
use gsa_types::{ClientId, Event, HostName};
use std::collections::{HashMap, HashSet};

/// The server of `ring` that `topic` hashes to.
fn rendezvous_of<'r>(ring: &'r [HostName], topic: &str) -> Option<&'r HostName> {
    if ring.is_empty() {
        return None;
    }
    Some(&ring[(fnv1a(topic) % ring.len() as u64) as usize])
}

/// Sends `msg` to `topic`'s rendezvous, if the simulator knows it.
fn to_rendezvous(ctx: &mut Ctx<'_, BaselineMsg>, ring: &[HostName], topic: &str, msg: BaselineMsg) {
    if let Some(node) = rendezvous_of(ring, topic).and_then(|rv| ctx.resolve(rv.as_str())) {
        ctx.send(node, msg);
    }
}

/// A server of the rendezvous-routing deployment.
///
/// Profiles subscribe to a *topic* (the collection they observe); topic
/// and event meet at the hash-selected rendezvous server. This gives
/// routing without flooding, at the price Section 2 names: the rendezvous
/// "may become a bottleneck", and its failure silently loses events.
pub struct RendezvousServer {
    host: HostName,
    /// Profiles this node is the rendezvous for, by topic.
    table: HashMap<String, Vec<(GlobalProfileId, ClientId, ProfileExpr)>>,
    /// Profiles owned here that are still active.
    own_active: HashSet<GlobalProfileId>,
    deliveries: Vec<Delivery>,
}

impl RendezvousServer {
    /// A server at `host`; it joins the rendezvous ring.
    pub fn new(host: &str) -> Self {
        RendezvousServer {
            host: HostName::new(host),
            table: HashMap::new(),
            own_active: HashSet::new(),
            deliveries: Vec::new(),
        }
    }
}

impl Actor<BaselineMsg> for RendezvousServer {
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
                let (host, active) = (&self.host, &self.own_active);
                let d = Delivery::at_owner(host, active, client, profile, &event, ctx.now());
                if d.spurious {
                    ctx.count_id(CounterId::RENDEZVOUS_SPURIOUS, 1);
                }
                self.deliveries.push(d);
            }
            _ => {}
        }
    }
}

impl Server for RendezvousServer {
    fn host(&self) -> &HostName {
        &self.host
    }

    /// The profile is stored at the topic's rendezvous server.
    fn subscribe(
        &mut self,
        ctx: &mut Ctx<'_, BaselineMsg>,
        ring: &[HostName],
        profile: &GlobalProfileId,
        client: ClientId,
        topic: &str,
        expr: ProfileExpr,
    ) {
        self.own_active.insert(profile.clone());
        let msg = BaselineMsg::RvProfileAdd {
            topic: topic.to_string(),
            profile: profile.clone(),
            client,
            expr,
        };
        to_rendezvous(ctx, ring, topic, msg);
    }

    /// Marks the profile inactive here and sends the removal to the
    /// rendezvous, which may be unreachable.
    fn unsubscribe(
        &mut self,
        ctx: &mut Ctx<'_, BaselineMsg>,
        ring: &[HostName],
        profile: &GlobalProfileId,
        topic: &str,
    ) -> bool {
        let was_active = self.own_active.remove(profile);
        let msg = BaselineMsg::RvProfileRemove {
            topic: topic.to_string(),
            profile: profile.clone(),
        };
        to_rendezvous(ctx, ring, topic, msg);
        was_active
    }

    /// The event is routed to its topic's rendezvous for filtering. The
    /// topic is the event's origin collection.
    fn publish(&mut self, ctx: &mut Ctx<'_, BaselineMsg>, ring: &[HostName], event: Event) {
        let topic = event.origin.to_string();
        let msg = BaselineMsg::RvEvent {
            topic: topic.clone(),
            event,
        };
        to_rendezvous(ctx, ring, &topic, msg);
    }

    fn deliveries(&mut self) -> &mut Vec<Delivery> {
        &mut self.deliveries
    }

    fn stored_profiles(&self) -> usize {
        self.table.values().map(Vec::len).sum()
    }

    /// Rendezvous entries whose owner has cancelled them: a removal
    /// lost on the way to the rendezvous leaves its entry behind.
    fn orphan_profiles(net: &mut Baseline<Self>) -> usize {
        net.count_orphans(
            |server| &server.own_active,
            |server, active| {
                let stored = server.table.values().flatten();
                stored.filter(|(gpid, _, _)| !active.contains(gpid)).count()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_profile::parse_profile;
    use gsa_types::SimTime;
    use gsa_types::{CollectionId, EventId, EventKind};

    fn event(host: &str, seq: u64) -> Event {
        Event::new(
            EventId::new(host, seq),
            CollectionId::new(host, "C"),
            EventKind::CollectionRebuilt,
            SimTime::ZERO,
        )
    }

    impl Baseline<RendezvousServer> {
        /// The rendezvous host responsible for a topic.
        fn rendezvous_host(&self, topic: &str) -> Option<HostName> {
            rendezvous_of(&self.ring, topic).cloned()
        }
    }

    fn trio() -> Baseline<RendezvousServer> {
        let mut sys = Baseline::new(1);
        for host in ["A", "B", "C"] {
            sys.add_server(RendezvousServer::new(host));
        }
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
        assert_eq!(sys.orphan_profiles(), 1);
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
        let per_host = sys.servers(|server| server.stored_profiles());
        let max = per_host.into_iter().max().unwrap();
        assert_eq!(max, 30, "all profiles of one topic on one node");
    }

    #[test]
    fn rendezvous_choice_is_deterministic() {
        let sys = trio();
        assert_eq!(sys.rendezvous_host("x"), sys.rendezvous_host("x"));
    }
}
