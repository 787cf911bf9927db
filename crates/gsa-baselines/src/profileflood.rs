//! Profile flooding/replication.

use crate::harness::{Baseline, Server};
use crate::msg::{flood_on, BaselineMsg, Delivery, GlobalProfileId};
use gsa_profile::ProfileExpr;
use gsa_simnet::{Actor, CounterId, Ctx, NodeId};
use gsa_types::{ClientId, Event, HostName};
use std::collections::{HashMap, HashSet};

const TTL: u32 = 32;

/// A server of the profile-flooding deployment.
///
/// Profiles are replicated to every server reachable over the reference
/// graph; events are filtered *at their source* against all replicas and
/// notifications go point-to-point to the owner. Replicas a cancellation
/// cannot reach become **orphan profiles**: the Section 2 failure mode.
pub struct ProfileFloodServer {
    host: HostName,
    neighbors: Vec<HostName>,
    seen: HashSet<(HostName, u64)>,
    /// Every profile this server knows: own ones and replicas.
    profiles: HashMap<GlobalProfileId, (ClientId, ProfileExpr)>,
    /// The profiles *owned* here (still active from the owner's view).
    own_active: HashSet<GlobalProfileId>,
    next_flood: u64,
    deliveries: Vec<Delivery>,
}

impl ProfileFloodServer {
    /// A server at `host` with its direct reference neighbours.
    pub fn new(host: &str, neighbors: Vec<HostName>) -> Self {
        ProfileFloodServer {
            host: HostName::new(host),
            neighbors,
            seen: HashSet::new(),
            profiles: HashMap::new(),
            own_active: HashSet::new(),
            next_flood: 0,
            deliveries: Vec::new(),
        }
    }

    /// Starts a flood of `msg` from here under a fresh flood id.
    fn flood_from_here(
        &mut self,
        ctx: &mut Ctx<'_, BaselineMsg>,
        msg: impl FnOnce((HostName, u64)) -> BaselineMsg,
    ) {
        let flood_id = (self.host.clone(), self.next_flood);
        self.next_flood += 1;
        self.seen.insert(flood_id.clone());
        flood_on(ctx, &self.neighbors, &msg(flood_id), None);
    }
}

impl Actor<BaselineMsg> for ProfileFloodServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_, BaselineMsg>, from: NodeId, msg: BaselineMsg) {
        match &msg {
            BaselineMsg::FloodProfileAdd {
                flood_id,
                profile,
                client,
                expr,
                ..
            } => {
                if !self.seen.insert(flood_id.clone()) {
                    return;
                }
                self.profiles
                    .insert(profile.clone(), (*client, expr.clone()));
                ctx.count_id(CounterId::PROFILEFLOOD_REPLICAS, 1);
            }
            BaselineMsg::FloodProfileRemove {
                flood_id, profile, ..
            } => {
                if !self.seen.insert(flood_id.clone()) {
                    return;
                }
                self.profiles.remove(profile);
            }
            BaselineMsg::Notify {
                profile,
                client,
                event,
            } => {
                // A notification for a cancelled profile is the
                // user-visible orphan-profile false positive.
                let (host, active) = (&self.host, &self.own_active);
                let d =
                    Delivery::at_owner(host, active, *client, profile.clone(), event, ctx.now());
                if d.spurious {
                    ctx.count_id(CounterId::PROFILEFLOOD_SPURIOUS, 1);
                }
                self.deliveries.push(d);
                return;
            }
            _ => return,
        }
        flood_on(ctx, &self.neighbors, &msg, Some(from));
    }
}

impl Server for ProfileFloodServer {
    fn host(&self) -> &HostName {
        &self.host
    }

    /// The registration floods to every reachable server.
    fn subscribe(
        &mut self,
        ctx: &mut Ctx<'_, BaselineMsg>,
        _ring: &[HostName],
        profile: &GlobalProfileId,
        client: ClientId,
        _topic: &str,
        expr: ProfileExpr,
    ) {
        self.own_active.insert(profile.clone());
        self.profiles
            .insert(profile.clone(), (client, expr.clone()));
        self.flood_from_here(ctx, |flood_id| BaselineMsg::FloodProfileAdd {
            flood_id,
            ttl: TTL,
            profile: profile.clone(),
            client,
            expr,
        });
    }

    /// The cancellation floods, but replicas it cannot reach stay
    /// orphaned.
    fn unsubscribe(
        &mut self,
        ctx: &mut Ctx<'_, BaselineMsg>,
        _ring: &[HostName],
        profile: &GlobalProfileId,
        _topic: &str,
    ) -> bool {
        let was_active = self.own_active.remove(profile);
        self.profiles.remove(profile);
        self.flood_from_here(ctx, |flood_id| BaselineMsg::FloodProfileRemove {
            flood_id,
            ttl: TTL,
            profile: profile.clone(),
        });
        was_active
    }

    /// Filtering happens here, at the source, against every replica.
    fn publish(&mut self, ctx: &mut Ctx<'_, BaselineMsg>, _ring: &[HostName], event: Event) {
        let mut local = Vec::new();
        for (gpid, (client, expr)) in &self.profiles {
            if !expr.matches_event(&event) {
                continue;
            }
            if gpid.owner == self.host {
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
            let (host, active) = (&self.host, &self.own_active);
            let d = Delivery::at_owner(host, active, client, gpid, &event, ctx.now());
            self.deliveries.push(d);
        }
    }

    fn deliveries(&mut self) -> &mut Vec<Delivery> {
        &mut self.deliveries
    }

    fn stored_profiles(&self) -> usize {
        self.profiles.len()
    }

    /// Replicas whose owner has cancelled them.
    fn orphan_profiles(net: &mut Baseline<Self>) -> usize {
        let active: HashSet<GlobalProfileId> = net
            .servers(|server| server.own_active.clone())
            .into_iter()
            .flatten()
            .collect();
        net.servers(|server| {
            server
                .profiles
                .keys()
                .filter(|gpid| !active.contains(gpid))
                .count()
        })
        .into_iter()
        .sum()
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

    fn h(s: &str) -> HostName {
        HostName::new(s)
    }

    fn pair() -> Baseline<ProfileFloodServer> {
        let mut sys = Baseline::new(1);
        sys.add_server(ProfileFloodServer::new("A", vec![h("B")]));
        sys.add_server(ProfileFloodServer::new("B", vec![h("A")]));
        sys
    }

    #[test]
    fn profile_replication_and_remote_notification() {
        let mut sys = pair();
        let c = ClientId::from_raw(1);
        sys.subscribe("B", c, "A.C", parse_profile(r#"host = "A""#).unwrap());
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
        let p = sys.subscribe("B", c, "A.C", parse_profile(r#"host = "A""#).unwrap());
        sys.run_until_quiet(SimTime::from_secs(10));
        // Partition, then cancel: the removal flood cannot reach A.
        sys.set_partition("B", 1);
        assert!(sys.unsubscribe(&p, "A.C"));
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
        let p = sys.subscribe("B", c, "A.C", parse_profile(r#"host = "A""#).unwrap());
        sys.run_until_quiet(SimTime::from_secs(10));
        sys.unsubscribe(&p, "A.C");
        sys.run_until_quiet(SimTime::from_secs(20));
        assert_eq!(sys.stored_profiles(), 0);
        assert_eq!(sys.orphan_profiles(), 0);
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(30));
        assert!(sys.take_deliveries().is_empty());
    }

    #[test]
    fn memory_grows_with_servers() {
        let mut sys = Baseline::new(1);
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
            sys.add_server(ProfileFloodServer::new(host, neighbors));
        }
        let c = ClientId::from_raw(1);
        sys.subscribe("A", c, "D.C", parse_profile(r#"host = "D""#).unwrap());
        sys.run_until_quiet(SimTime::from_secs(10));
        // One profile, four copies.
        assert_eq!(sys.stored_profiles(), 4);
    }

    #[test]
    fn local_delivery_for_local_event() {
        let mut sys = pair();
        let c = ClientId::from_raw(1);
        sys.subscribe("A", c, "A.C", parse_profile(r#"host = "A""#).unwrap());
        sys.run_until_quiet(SimTime::from_secs(5));
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(10));
        let d = sys.take_deliveries();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].host, h("A"));
    }
}
