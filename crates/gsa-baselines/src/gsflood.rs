//! Event flooding over the raw GS reference graph.

use crate::harness::Server;
use crate::msg::{flood_on, BaselineMsg, Delivery, GlobalProfileId};
use gsa_profile::ProfileExpr;
use gsa_simnet::{Actor, CounterId, Ctx, NodeId};
use gsa_types::{ClientId, Event, HostName};
use std::collections::{HashMap, HashSet};

/// Default TTL bounding propagation when duplicate suppression is off.
pub(crate) const DEFAULT_TTL: u32 = 16;

/// A server of the GS-graph event-flooding deployment.
///
/// Servers know only their direct sub-collection references (their
/// `neighbors`); events flood along those edges and profiles stay local,
/// as in the hybrid. With `dedup` off, a TTL bounds propagation on cycles
/// so the duplicate cost is measurable rather than unbounded.
pub struct GsFloodServer {
    host: HostName,
    neighbors: Vec<HostName>,
    dedup: bool,
    seen: HashSet<(HostName, u64)>,
    profiles: HashMap<u64, (ClientId, ProfileExpr)>,
    next_flood: u64,
    deliveries: Vec<Delivery>,
}

impl GsFloodServer {
    /// A server at `host` with its direct reference neighbours (directed
    /// edges; give both ends for a bidirectional reference). `dedup`
    /// enables sequence-number duplicate suppression (the Hall et al. fix
    /// discussed in Section 2).
    pub fn new(host: &str, neighbors: Vec<HostName>, dedup: bool) -> Self {
        GsFloodServer {
            host: HostName::new(host),
            neighbors,
            dedup,
            seen: HashSet::new(),
            profiles: HashMap::new(),
            next_flood: 0,
            deliveries: Vec::new(),
        }
    }

    /// Delivers `msg`'s event to the local profiles, then floods it on.
    fn deliver_and_forward(
        &mut self,
        ctx: &mut Ctx<'_, BaselineMsg>,
        msg: &BaselineMsg,
        except: Option<NodeId>,
    ) {
        let BaselineMsg::FloodEvent { event, .. } = msg else {
            return;
        };
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
                    at: ctx.now(),
                    spurious: false,
                });
            }
        }
        if !flood_on(ctx, &self.neighbors, msg, except) {
            ctx.count_id(CounterId::GSFLOOD_TTL_EXHAUSTED, 1);
        }
    }
}

impl Actor<BaselineMsg> for GsFloodServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_, BaselineMsg>, from: NodeId, msg: BaselineMsg) {
        let BaselineMsg::FloodEvent { flood_id, .. } = &msg else {
            return;
        };
        if self.dedup && !self.seen.insert(flood_id.clone()) {
            ctx.count_id(CounterId::GSFLOOD_DUPLICATE_SUPPRESSED, 1);
            return;
        }
        self.deliver_and_forward(ctx, &msg, Some(from));
    }
}

impl Server for GsFloodServer {
    fn host(&self) -> &HostName {
        &self.host
    }

    fn subscribe(
        &mut self,
        _ctx: &mut Ctx<'_, BaselineMsg>,
        _ring: &[HostName],
        profile: &GlobalProfileId,
        client: ClientId,
        _topic: &str,
        expr: ProfileExpr,
    ) {
        self.profiles.insert(profile.seq, (client, expr));
    }

    fn unsubscribe(
        &mut self,
        _ctx: &mut Ctx<'_, BaselineMsg>,
        _ring: &[HostName],
        profile: &GlobalProfileId,
        _topic: &str,
    ) -> bool {
        self.profiles.remove(&profile.seq).is_some()
    }

    fn publish(&mut self, ctx: &mut Ctx<'_, BaselineMsg>, _ring: &[HostName], event: Event) {
        let flood_id = (self.host.clone(), self.next_flood);
        self.next_flood += 1;
        if self.dedup {
            self.seen.insert(flood_id.clone());
        }
        let msg = BaselineMsg::FloodEvent {
            flood_id,
            ttl: DEFAULT_TTL,
            event,
        };
        self.deliver_and_forward(ctx, &msg, None);
    }

    fn deliveries(&mut self) -> &mut Vec<Delivery> {
        &mut self.deliveries
    }

    fn stored_profiles(&self) -> usize {
        self.profiles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Baseline;
    use gsa_profile::parse_profile;
    use gsa_types::{CollectionId, EventId, EventKind, SimTime};

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

    /// The flooding baseline, every server with the same `dedup`.
    fn deploy(dedup: bool, servers: &[(&str, &[&str])]) -> Baseline<GsFloodServer> {
        let mut sys = Baseline::new(1);
        for (host, neighbors) in servers {
            sys.add_server(GsFloodServer::new(
                host,
                neighbors.iter().map(|n| h(n)).collect(),
                dedup,
            ));
        }
        sys
    }

    /// A connected pair plus a solitary island, the paper's fragmentation.
    fn fragmented() -> Baseline<GsFloodServer> {
        deploy(true, &[("A", &["B"]), ("B", &["A"]), ("Island", &[])])
    }

    #[test]
    fn events_reach_connected_servers_only() {
        let mut sys = fragmented();
        let c1 = ClientId::from_raw(1);
        sys.subscribe("B", c1, "A.C", parse_profile(r#"host = "A""#).unwrap());
        let c2 = ClientId::from_raw(2);
        sys.subscribe("Island", c2, "A.C", parse_profile(r#"host = "A""#).unwrap());
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(10));
        let deliveries = sys.take_deliveries();
        // B gets it; the island is a false negative.
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].host, h("B"));
    }

    #[test]
    fn cycles_with_dedup_deliver_once() {
        let mut sys = deploy(
            true,
            &[("A", &["B", "C"]), ("B", &["C", "A"]), ("C", &["A", "B"])],
        );
        let c = ClientId::from_raw(1);
        sys.subscribe("C", c, "A.C", parse_profile(r#"host = "A""#).unwrap());
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(10));
        let deliveries = sys.take_deliveries();
        assert_eq!(deliveries.len(), 1);
        assert!(sys.metrics().counter("gsflood.duplicate_suppressed") > 0);
    }

    #[test]
    fn cycles_without_dedup_deliver_duplicates() {
        let mut sys = deploy(
            false,
            &[("A", &["B", "C"]), ("B", &["C", "A"]), ("C", &["A", "B"])],
        );
        let c = ClientId::from_raw(1);
        sys.subscribe("C", c, "A.C", parse_profile(r#"host = "A""#).unwrap());
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
        sys.subscribe(
            "Island",
            c,
            "Island.C",
            parse_profile(r#"host = "Island""#).unwrap(),
        );
        sys.publish("Island", event("Island", 1));
        sys.run_until_quiet(SimTime::from_secs(10));
        assert_eq!(sys.take_deliveries().len(), 1);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut sys = fragmented();
        let c = ClientId::from_raw(1);
        let p = sys.subscribe("B", c, "A.C", parse_profile(r#"host = "A""#).unwrap());
        assert!(sys.unsubscribe(&p, "A.C"));
        assert!(!sys.unsubscribe(&p, "A.C"));
        sys.publish("A", event("A", 1));
        sys.run_until_quiet(SimTime::from_secs(10));
        assert!(sys.take_deliveries().is_empty());
    }
}
