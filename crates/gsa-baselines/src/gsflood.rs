//! Event flooding over the raw GS reference graph.

use crate::msg::{BaselineMsg, Delivery, GlobalProfileId};
use gsa_profile::ProfileExpr;
use gsa_simnet::{Actor, CounterId, Ctx, NodeId, Sim};
use gsa_types::{ClientId, Event, HostName, SimDuration, SimTime};
use std::collections::{HashMap, HashSet};

/// Default TTL bounding propagation when duplicate suppression is off.
pub(crate) const DEFAULT_TTL: u32 = 16;

struct GsFloodActor {
    host: HostName,
    neighbors: Vec<HostName>,
    dedup: bool,
    seen: HashSet<(HostName, u64)>,
    profiles: HashMap<u64, (ClientId, ProfileExpr)>,
    next_profile: u64,
    next_flood: u64,
    deliveries: Vec<Delivery>,
}

impl GsFloodActor {
    fn deliver(&mut self, event: &Event, at: SimTime) {
        for (seq, (client, expr)) in &self.profiles {
            if expr.matches_event(event) {
                self.deliveries.push(Delivery {
                    host: self.host.clone(),
                    client: *client,
                    profile: GlobalProfileId {
                        owner: self.host.clone(),
                        seq: *seq,
                    },
                    event_id: event.id.clone(),
                    at,
                    spurious: false,
                });
            }
        }
    }

    fn forward(
        &self,
        ctx: &mut Ctx<'_, BaselineMsg>,
        flood_id: (HostName, u64),
        ttl: u32,
        event: &Event,
        except: Option<NodeId>,
    ) {
        if ttl == 0 {
            ctx.count_id(CounterId::GSFLOOD_TTL_EXHAUSTED, 1);
            return;
        }
        for n in &self.neighbors {
            let Some(node) = ctx.resolve(n.as_str()) else {
                continue;
            };
            if Some(node) == except {
                continue;
            }
            ctx.send(
                node,
                BaselineMsg::FloodEvent {
                    flood_id: flood_id.clone(),
                    ttl: ttl - 1,
                    event: event.clone(),
                },
            );
        }
    }
}

impl Actor<BaselineMsg> for GsFloodActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, BaselineMsg>, from: NodeId, msg: BaselineMsg) {
        let BaselineMsg::FloodEvent {
            flood_id,
            ttl,
            event,
        } = msg
        else {
            return;
        };
        if self.dedup && !self.seen.insert(flood_id.clone()) {
            ctx.count_id(CounterId::GSFLOOD_DUPLICATE_SUPPRESSED, 1);
            return;
        }
        self.deliver(&event, ctx.now());
        self.forward(ctx, flood_id, ttl, &event, Some(from));
    }
}

/// The GS-graph event-flooding deployment.
///
/// Servers know only their direct sub-collection references (the
/// `neighbors` passed to [`GsFloodSystem::add_server`]); events flood
/// along those edges. With `dedup` off, a TTL bounds propagation on
/// cycles so the duplicate cost is measurable rather than unbounded.
pub struct GsFloodSystem {
    sim: Sim<BaselineMsg>,
    dedup: bool,
}

impl GsFloodSystem {
    /// Creates a deployment. `dedup` enables sequence-number duplicate
    /// suppression (the Hall et al. fix discussed in Section 2).
    pub fn new(seed: u64, dedup: bool) -> Self {
        let mut sim = Sim::new(seed);
        sim.set_wire_size_fn(BaselineMsg::wire_size);
        GsFloodSystem {
            sim,
            dedup,
        }
    }

    /// Adds a server with its direct reference neighbours (directed
    /// edges; pass both directions for a bidirectional reference).
    pub fn add_server(&mut self, host: &str, neighbors: Vec<HostName>) -> NodeId {
        let actor = GsFloodActor {
            host: HostName::new(host),
            neighbors,
            dedup: self.dedup,
            seen: HashSet::new(),
            profiles: HashMap::new(),
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

    /// Registers a profile at `host` (profiles stay local in this
    /// scheme, as in the hybrid).
    pub fn subscribe(&mut self, host: &str, client: ClientId, expr: ProfileExpr) -> GlobalProfileId {
        let node = self.node(host);
        self.sim
            .with_actor::<GsFloodActor, GlobalProfileId>(node, |actor, _| {
                let seq = actor.next_profile;
                actor.next_profile += 1;
                actor.profiles.insert(seq, (client, expr));
                GlobalProfileId {
                    owner: actor.host.clone(),
                    seq,
                }
            })
            .expect("gsflood actor")
    }

    /// Cancels a profile (local operation).
    pub fn unsubscribe(&mut self, profile: &GlobalProfileId) -> bool {
        let node = self.node(profile.owner.as_str());
        let seq = profile.seq;
        self.sim
            .with_actor::<GsFloodActor, bool>(node, |actor, _| actor.profiles.remove(&seq).is_some())
            .expect("gsflood actor")
    }

    /// Publishes an event at its origin server, flooding it over the
    /// reference graph.
    pub fn publish(&mut self, host: &str, event: Event) {
        let node = self.node(host);
        self.sim
            .with_actor::<GsFloodActor, ()>(node, |actor, ctx| {
                let flood_id = (actor.host.clone(), actor.next_flood);
                actor.next_flood += 1;
                if actor.dedup {
                    actor.seen.insert(flood_id.clone());
                }
                actor.deliver(&event, ctx.now());
                actor.forward(ctx, flood_id, DEFAULT_TTL, &event, None);
            })
            .expect("gsflood actor");
    }

    /// Drains every server's delivery log.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        for node in self.sim.node_ids().collect::<Vec<_>>() {
            if let Some(mut d) =
                self.sim
                    .with_actor::<GsFloodActor, Vec<Delivery>>(node, |actor, _| {
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

    /// The accumulated metrics.
    pub fn metrics(&self) -> &gsa_simnet::Metrics {
        self.sim.metrics()
    }
}

impl std::fmt::Debug for GsFloodSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GsFloodSystem")
            .field("nodes", &self.sim.node_count())
            .field("dedup", &self.dedup)
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

    /// A connected pair plus a solitary island, the paper's fragmentation.
    fn fragmented() -> GsFloodSystem {
        let mut sys = GsFloodSystem::new(1, true);
        sys.add_server("A", vec![h("B")]);
        sys.add_server("B", vec![h("A")]);
        sys.add_server("Island", vec![]);
        sys
    }

    #[test]
    fn events_reach_connected_servers_only() {
        let mut sys = fragmented();
        let c1 = ClientId::from_raw(1);
        sys.subscribe("B", c1, parse_profile(r#"host = "A""#).unwrap());
        let c2 = ClientId::from_raw(2);
        sys.subscribe("Island", c2, parse_profile(r#"host = "A""#).unwrap());
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(10));
        let deliveries = sys.take_deliveries();
        // B gets it; the island is a false negative.
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].host, h("B"));
    }

    #[test]
    fn cycles_with_dedup_deliver_once() {
        let mut sys = GsFloodSystem::new(1, true);
        sys.add_server("A", vec![h("B"), h("C")]);
        sys.add_server("B", vec![h("C"), h("A")]);
        sys.add_server("C", vec![h("A"), h("B")]);
        let c = ClientId::from_raw(1);
        sys.subscribe("C", c, parse_profile(r#"host = "A""#).unwrap());
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(10));
        let deliveries = sys.take_deliveries();
        assert_eq!(deliveries.len(), 1);
        assert!(sys.metrics().counter("gsflood.duplicate_suppressed") > 0);
    }

    #[test]
    fn cycles_without_dedup_deliver_duplicates() {
        let mut sys = GsFloodSystem::new(1, false);
        sys.add_server("A", vec![h("B"), h("C")]);
        sys.add_server("B", vec![h("C"), h("A")]);
        sys.add_server("C", vec![h("A"), h("B")]);
        let c = ClientId::from_raw(1);
        sys.subscribe("C", c, parse_profile(r#"host = "A""#).unwrap());
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(60));
        let deliveries = sys.take_deliveries();
        assert!(
            deliveries.len() > 1,
            "cycle should cause duplicates, got {}",
            deliveries.len()
        );
        // TTL terminated the storm.
        assert!(sys.metrics().counter("gsflood.ttl_exhausted") > 0);
    }

    #[test]
    fn local_subscriber_hears_local_event() {
        let mut sys = fragmented();
        let c = ClientId::from_raw(1);
        sys.subscribe("Island", c, parse_profile(r#"host = "Island""#).unwrap());
        sys.publish("Island", event("Island", 1));
        sys.run_until_quiet(SimTime::from_secs(10));
        assert_eq!(sys.take_deliveries().len(), 1);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut sys = fragmented();
        let c = ClientId::from_raw(1);
        let p = sys.subscribe("B", c, parse_profile(r#"host = "A""#).unwrap());
        assert!(sys.unsubscribe(&p));
        assert!(!sys.unsubscribe(&p));
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(10));
        assert!(sys.take_deliveries().is_empty());
    }
}
