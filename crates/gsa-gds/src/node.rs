//! The GDS directory-server state machine: one dispatcher over three
//! machines — membership (the node's place in the tree and its subtree
//! registry), flood (the paper's broadcast, with dedup, shared frames
//! and replay) and interest (what the flood may skip).

use crate::flood::{Flood, Frame};
use crate::interest::{Interest, InterestMode};
use crate::membership::Membership;
use crate::message::GdsMessage;
use gsa_types::{Counts, HostName};
use gsa_wire::{summary::AttrMap, InterestSummary};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A message to be sent to another network participant (GDS node or
/// Greenstone server — both are addressed by host name).
#[derive(Debug, Clone, PartialEq)]
pub struct GdsOutbound {
    /// Destination.
    pub to: HostName,
    /// The message.
    pub msg: GdsMessage,
}

/// What a [`GdsNode`] wants done after handling one input.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GdsEffects {
    /// Messages to transmit.
    pub outbound: Vec<GdsOutbound>,
    /// The stretches of `outbound` that carry one flood run each (see
    /// [`GdsNode`]): every entry of a stretch is a [`GdsMessage::Batch`]
    /// of the run's items in the form its edge receives, all of one
    /// length. Sent as they stand, the entries deliver exactly the run;
    /// a transport that batches per edge walks the run's items across
    /// the stretch's edges instead, item by item, to form the frames the
    /// items would have formed one by one. Every entry outside a stretch
    /// is one message.
    pub runs: Vec<Range<usize>>,
    /// Multicast targets that could not be resolved anywhere in the tree.
    pub undeliverable: Vec<HostName>,
}

impl GdsEffects {
    pub(crate) fn send(&mut self, to: HostName, msg: GdsMessage) {
        self.outbound.push(GdsOutbound { to, msg });
    }

    /// Empties the lists, keeping their capacity — callers that
    /// process effects per message reuse one buffer across messages
    /// instead of allocating fresh vectors each time.
    pub fn clear(&mut self) {
        self.outbound.clear();
        self.runs.clear();
        self.undeliverable.clear();
    }
}

/// One auxiliary directory server in the GDS tree.
///
/// The node knows its parent, its children, the Greenstone servers
/// registered with it and — via registration propagation — which child
/// subtree every server below it lives in, so a stratum-1 node knows
/// the entire network (Section 4.1). It forwards the frame it received,
/// one shared frame per run of flood items, and asks its
/// [`InterestMode`]'s machine which edges each item may skip.
pub struct GdsNode {
    name: HostName,
    stratum: u8,
    members: Membership,
    flood: Flood,
    interest: Interest,
    /// Pruned edges, accepted summary updates, confined hops and issued
    /// grants since the driver last drained [`GdsNode::counts_mut`].
    counts: Counts,
}

impl fmt::Debug for GdsNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GdsNode")
            .field("name", &self.name)
            .field("stratum", &self.stratum)
            .field("parent", &self.members.parent)
            .field("children", &self.members.children.len())
            .field("local", &self.members.local.len())
            .finish()
    }
}

impl GdsNode {
    /// Creates a flood node on the given stratum. Stratum 1 nodes have
    /// no parent.
    pub fn new(name: impl Into<HostName>, stratum: u8, parent: Option<HostName>) -> Self {
        GdsNode {
            name: name.into(),
            stratum,
            members: Membership { parent, ..Membership::default() },
            flood: Flood::default(),
            interest: Interest::new(InterestMode::Flood),
            counts: Counts::default(),
        }
    }

    /// Enables encode-once forwarding (wire v2): flood payloads are
    /// frozen to binary on entry and every edge shares the same buffer.
    pub fn set_encode_once(&mut self, enabled: bool) {
        self.flood.encode_once = enabled;
    }

    /// Chooses the interest machine at construction; the default,
    /// [`InterestMode::Flood`], is the paper's broadcast message for
    /// message.
    pub fn set_interest(&mut self, mode: InterestMode) {
        self.interest = Interest::new(mode);
    }

    /// The newest interest summary recorded for a direct edge, if any.
    pub fn edge_summary(&self, edge: &HostName) -> Option<&InterestSummary> {
        self.interest.summary(edge)
    }

    /// The conservative union of this node's whole subtree: every direct
    /// edge's summary, with any edge lacking one widening the result to
    /// the wildcard (unknown means "could match anything").
    pub fn aggregate_summary(&self) -> InterestSummary {
        self.interest.aggregate(&self.members)
    }

    /// Id runs the duplicate-suppression memory holds: one per origin
    /// while floods arrive in order, one more per id still missing.
    pub fn seen_runs(&self) -> usize {
        self.flood.seen.runs()
    }

    /// What the node counted since its driver last drained this (the
    /// actor layer turns it into metrics).
    pub fn counts_mut(&mut self) -> &mut Counts {
        &mut self.counts
    }

    /// An unconditional re-announcement of the aggregate to the parent
    /// (a beacon heal, or a new parent after a reparent). `None` for a
    /// flood node, the root, or while there has never been anything
    /// better than the parent's wildcard-by-absence default to say.
    pub fn summary_announcement(&mut self) -> Option<GdsOutbound> {
        self.interest.announce(&self.name, &self.members, false)
    }

    /// The beacon heal: a [`GdsNode::summary_announcement`] unless the
    /// parent's beacon ([`GdsNode::beacons`]) shows it holds the newest
    /// version sent (`held`, 0 for none, as after a restart or a loss).
    pub fn summary_refresh(&mut self, held: u64) -> Option<GdsOutbound> {
        if held != 0 && held >= self.interest.version() {
            return None;
        }
        self.summary_announcement()
    }

    /// Whether a deferred announcement is waiting to be flushed.
    pub fn announce_pending(&self) -> bool {
        self.interest.pending()
    }

    /// Flushes a pending deferred announcement: at most one upward
    /// `SummaryUpdate` per burst of edge changes, none if the burst
    /// cancelled out to the aggregate already announced.
    pub fn flush_deferred_announcement(&mut self) -> Option<GdsOutbound> {
        if !self.interest.take_pending() {
            return None;
        }
        self.interest.announce(&self.name, &self.members, true)
    }

    /// The grants currently held from the parent (test/inspection hook).
    pub fn held_grants(&self) -> &AttrMap {
        self.interest.held_grants()
    }

    /// One liveness beacon to every child, once per interval, saying
    /// which of the child's summaries this node holds; with grants on,
    /// the child's current grants follow as a heal.
    pub fn beacons(&mut self, effects: &mut GdsEffects) {
        self.interest.beacons(&self.name, &self.members, &mut self.counts, effects);
    }

    /// The node's network name.
    pub fn name(&self) -> &HostName {
        &self.name
    }

    /// The node's stratum (1 = primary).
    pub fn stratum(&self) -> u8 {
        self.stratum
    }

    /// The node's parent, if any.
    pub fn parent(&self) -> Option<&HostName> {
        self.members.parent.as_ref()
    }

    /// The node's children.
    pub fn children(&self) -> impl Iterator<Item = &HostName> {
        self.members.children.iter()
    }

    /// Declares `child` as a child of this node (topology construction).
    pub fn add_child(&mut self, child: impl Into<HostName>) {
        self.members.children.insert(child.into());
    }

    /// Removes a child (topology change); subtree entries routed through
    /// it, its summary and its grants are dropped.
    pub fn remove_child(&mut self, child: &HostName) {
        self.members.remove_child(child);
        self.interest.forget(child, true);
    }

    /// Changes the node's parent. Grants held from the old parent are
    /// dropped (see the interest machine). Use [`GdsNode::reparent`] to
    /// tell the tree as well.
    pub fn set_parent(&mut self, parent: Option<HostName>) {
        self.members.parent = parent;
        self.interest.drop_held();
    }

    /// Re-attaches this node and its subtree under `parent` once the
    /// old parent is declared dead: a `Detach` to the old parent (should
    /// it heal), an `Adopt` and the subtree's `RegisterUp`s to the new
    /// one, the summary announcement that resumes pruning on the new
    /// edge, and the revocations of grants delegated to children, which
    /// lost their upward cover with the held grants.
    pub fn reparent(&mut self, parent: HostName, effects: &mut GdsEffects) {
        let old = self.members.parent.clone();
        self.set_parent(Some(parent.clone()));
        if let Some(old) = old.filter(|old| *old != parent) {
            effects.send(old, GdsMessage::Detach { child: self.name.clone() });
        }
        effects.send(parent, GdsMessage::Adopt { child: self.name.clone() });
        effects.outbound.extend(self.reregistrations());
        effects.outbound.extend(self.summary_announcement());
        self.interest_changed(false, effects);
    }

    /// Whether `gs_host` is known in this node's subtree.
    pub fn knows(&self, gs_host: &HostName) -> bool {
        self.members.subtree.contains_key(gs_host)
    }

    /// `RegisterUp` messages re-announcing this node's whole subtree to
    /// its (new) parent.
    pub fn reregistrations(&self) -> Vec<GdsOutbound> {
        let Some(parent) = &self.members.parent else {
            return Vec::new();
        };
        let up = |gs_host: &HostName| GdsOutbound {
            to: parent.clone(),
            msg: GdsMessage::RegisterUp { gs_host: gs_host.clone(), via: self.name.clone() },
        };
        self.members.subtree.keys().map(up).collect()
    }

    /// Handles one inbound message. `from` is the network sender.
    ///
    /// Convenience wrapper over [`GdsNode::handle_message_into`] that
    /// allocates a fresh effects buffer; per-message hot paths should
    /// pass a reused buffer to the `_into` form instead.
    pub fn handle_message(&mut self, from: &HostName, msg: GdsMessage) -> GdsEffects {
        let mut effects = GdsEffects::default();
        self.handle_message_into(from, msg, &mut effects);
        effects
    }

    /// Handles one inbound message, appending the resulting effects to
    /// `effects` (which the caller typically [`clear`](GdsEffects::clear)s
    /// and reuses across messages, so the steady-state flood hop does
    /// not allocate an effects vector per frame).
    pub fn handle_message_into(
        &mut self,
        from: &HostName,
        msg: GdsMessage,
        effects: &mut GdsEffects,
    ) {
        match msg {
            GdsMessage::Register { gs_host } => {
                // Any summary the server already announced stays: the
                // transport may reorder a registration past the server's
                // first announcements, and summary versions are monotonic
                // for a server's lifetime, so what is stored is never
                // staler than wildcard-by-absence. Departures reset the
                // edge via Unregister/Detach instead.
                self.members.local.insert(gs_host.clone());
                self.members.register(gs_host, self.name.clone(), &self.name, effects);
                self.interest_changed(true, effects);
            }
            GdsMessage::Unregister { gs_host } => {
                self.members.local.remove(&gs_host);
                self.interest.forget(&gs_host, false);
                self.members.unregister(gs_host, effects);
                self.interest_changed(true, effects);
            }
            GdsMessage::RegisterUp { gs_host, via } => {
                self.members.register(gs_host, via, &self.name, effects);
            }
            GdsMessage::UnregisterUp { gs_host } => self.members.unregister(gs_host, effects),
            GdsMessage::Batch(frame) => self.forward(from, Some(&frame), &frame, effects),
            msg @ (GdsMessage::Publish { .. }
            | GdsMessage::Broadcast { .. }
            | GdsMessage::PublishTargeted { .. }
            | GdsMessage::Route { .. }) => {
                self.forward(from, None, std::slice::from_ref(&msg), effects);
            }
            GdsMessage::Resolve { token, name, reply_to } => {
                self.members.resolve(token, name, reply_to, from, &self.name, effects);
            }
            GdsMessage::Adopt { child } => {
                // A grandchild lost its parent and re-parents here. A
                // broadcast in flight while its old parent was down would
                // miss the moved subtree (the old parent stops forwarding;
                // this node finished before the edge existed): replay.
                self.flood.replay(&child, effects);
                // A summary from a previous stint as its parent is stale:
                // wildcard-by-absence until the child announces afresh.
                self.interest.forget(&child, false);
                self.add_child(child);
                self.interest_changed(true, effects);
            }
            GdsMessage::Detach { child } => {
                // An old child re-parented elsewhere: its re-registrations
                // via the new path rebuild the subtree view.
                self.remove_child(&child);
                self.interest_changed(true, effects);
            }
            GdsMessage::SummaryUpdate { from: edge, version, summary } => {
                // Keyed by the announced edge (the direct child or local
                // server the summary describes).
                if self.interest.on_summary(edge, version, summary, &mut self.counts) {
                    self.interest_changed(true, effects);
                }
            }
            GdsMessage::RendezvousGrant { from: granter, version, grants } => {
                // Only the current parent grants.
                let from_parent = self.members.parent.as_ref() == Some(&granter);
                if from_parent && self.interest.on_grant(version, grants) {
                    // Our own exclusivity proof feeds the children's:
                    // re-derive what we can delegate further down.
                    self.interest_changed(false, effects);
                }
            }
            // Not the node's business (the actor layer takes beacons for
            // its failure detector).
            GdsMessage::Deliver { .. }
            | GdsMessage::ResolveResponse { .. }
            | GdsMessage::HeartbeatAck { .. } => {}
        }
    }

    /// See [`Interest::changed`]; `dirty` for a change of edges or
    /// summaries, which the parent must hear of.
    fn interest_changed(&mut self, dirty: bool, effects: &mut GdsEffects) {
        self.interest.changed(dirty, &self.name, &self.members, &mut self.counts, effects);
    }

    /// Floods and routes the items of a frame in order — a frame
    /// received whole (`shared`), or one message, a frame of one. The
    /// flood machine takes the flood items; a targeted or control item
    /// ends the run before it and is handled here, alone.
    fn forward(
        &mut self,
        from: &HostName,
        shared: Option<&Arc<[GdsMessage]>>,
        items: &[GdsMessage],
        effects: &mut GdsEffects,
    ) {
        let (frame, mut next) = (Frame { from, shared, items }, 0);
        loop {
            let (members, interest, counts) = (&self.members, &mut self.interest, &mut self.counts);
            let Some(i) = self.flood.forward(frame, next, members, interest, counts, effects) else {
                return;
            };
            match &items[i] {
                GdsMessage::PublishTargeted { id, targets, payload } => {
                    self.members.route(from, *id, targets, payload, None, effects);
                }
                GdsMessage::Route { id, origin, targets, payload } => {
                    self.members.route(origin, *id, targets, payload, Some(from), effects);
                }
                other => self.handle_message_into(from, other.clone(), effects),
            }
            next = i + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flood::RECENT_CAP;
    use crate::message::ResolveToken;
    use gsa_types::{CounterId, MessageId};
    use gsa_wire::{Payload, XmlElement};
    use std::collections::{BTreeMap, BTreeSet};

    /// A tiny in-test router over a map of GDS nodes; Greenstone-server
    /// deliveries are collected instead of routed.
    fn pump(
        nodes: &mut BTreeMap<HostName, GdsNode>,
        first_to: &HostName,
        first_from: &HostName,
        msg: GdsMessage,
    ) -> (Vec<(HostName, GdsMessage)>, Vec<HostName>) {
        let mut gs_deliveries = Vec::new();
        let mut undeliverable = Vec::new();
        let mut queue = vec![(first_from.clone(), first_to.clone(), msg)];
        let mut steps = 0;
        while let Some((from, to, msg)) = queue.pop() {
            steps += 1;
            assert!(steps < 10_000, "routing did not terminate");
            let Some(node) = nodes.get_mut(&to) else {
                gs_deliveries.push((to, msg));
                continue;
            };
            let mut effects = node.handle_message(&from, msg);
            effects.outbound.extend(node.flush_deferred_announcement());
            undeliverable.extend(effects.undeliverable);
            for out in effects.outbound {
                queue.push((to.clone(), out.to, out.msg));
            }
        }
        (gs_deliveries, undeliverable)
    }

    /// Builds the Figure 2 tree: gds-1 (stratum 1); gds-2, gds-3, gds-4
    /// (stratum 2, children of 1); gds-5, gds-6, gds-7 (stratum 3,
    /// children of 2, 3, 3). Greenstone servers gs-a..gs-g registered one
    /// per node.
    fn figure2() -> BTreeMap<HostName, GdsNode> {
        let mut nodes = BTreeMap::new();
        let spec: &[(&str, u8, Option<&str>, &[&str])] = &[
            ("gds-1", 1, None, &["gds-2", "gds-3", "gds-4"]),
            ("gds-2", 2, Some("gds-1"), &["gds-5"]),
            ("gds-3", 2, Some("gds-1"), &["gds-6", "gds-7"]),
            ("gds-4", 2, Some("gds-1"), &[]),
            ("gds-5", 3, Some("gds-2"), &[]),
            ("gds-6", 3, Some("gds-3"), &[]),
            ("gds-7", 3, Some("gds-3"), &[]),
        ];
        for (name, stratum, parent, children) in spec {
            let mut node = GdsNode::new(*name, *stratum, parent.map(HostName::new));
            for c in *children {
                node.add_child(*c);
            }
            nodes.insert(HostName::new(*name), node);
        }
        // Register one Greenstone server per GDS node.
        for i in 1..=7 {
            let gds = HostName::new(format!("gds-{i}"));
            let gs = HostName::new(format!("gs-{i}"));
            let (deliveries, _) = pump(&mut nodes, &gds, &gs, GdsMessage::Register { gs_host: gs.clone() });
            assert!(deliveries.is_empty());
        }
        nodes
    }

    #[test]
    fn registration_propagates_to_root() {
        let nodes = figure2();
        let root = &nodes[&HostName::new("gds-1")];
        assert_eq!(root.members.subtree.len(), 7);
        assert!(root.knows(&"gs-7".into()));
        // Intermediate node knows only its subtree.
        let gds3 = &nodes[&HostName::new("gds-3")];
        assert_eq!(gds3.members.subtree.len(), 3); // gs-3, gs-6, gs-7
        assert!(!gds3.knows(&"gs-5".into()));
    }

    #[test]
    fn broadcast_reaches_every_server_exactly_once() {
        let mut nodes = figure2();
        let payload = Payload::from(XmlElement::new("event"));
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(1),
                payload,
            },
        );
        let mut recipients: Vec<String> = deliveries.iter().map(|(to, _)| to.to_string()).collect();
        recipients.sort();
        // Everyone except the origin gs-5.
        assert_eq!(
            recipients,
            vec!["gs-1", "gs-2", "gs-3", "gs-4", "gs-6", "gs-7"]
        );
    }

    #[test]
    fn broadcast_is_deduplicated_on_replay() {
        let mut nodes = figure2();
        let payload = Payload::from(XmlElement::new("event"));
        let publish = GdsMessage::Publish {
            id: MessageId::from_raw(1),
            payload,
        };
        let (first, _) = pump(&mut nodes, &"gds-5".into(), &"gs-5".into(), publish.clone());
        assert_eq!(first.len(), 6);
        let (second, _) = pump(&mut nodes, &"gds-5".into(), &"gs-5".into(), publish);
        assert!(second.is_empty(), "replayed publish must be suppressed");
    }

    /// The dedup memory of a long-lived tree: floods that lose nothing
    /// arrive in id order everywhere, so every node and every client
    /// holds one run per publisher however many events have passed,
    /// while still answering for each of them.
    #[test]
    fn in_order_floods_cost_one_run_per_origin_everywhere() {
        const FLOODS: u64 = 50_000;
        let mut nodes = figure2();
        let mut clients: BTreeMap<HostName, crate::GdsClient> = (1..=7)
            .map(|i| {
                let gs = HostName::new(format!("gs-{i}"));
                (gs.clone(), crate::GdsClient::new(gs, format!("gds-{i}")))
            })
            .collect();
        for n in 0..FLOODS {
            let publisher = HostName::new(if n % 2 == 0 { "gs-5" } else { "gs-1" });
            let (_, out) = clients
                .get_mut(&publisher)
                .unwrap()
                .publish(XmlElement::new("event"));
            let (deliveries, _) = pump(&mut nodes, &out.to, &publisher, out.msg);
            assert_eq!(deliveries.len(), 6);
            for (to, msg) in deliveries {
                assert!(clients.get_mut(&to).unwrap().accept(&msg).is_some());
            }
        }
        for (name, node) in &nodes {
            assert_eq!(node.seen_runs(), 2, "{name}: one run per publisher");
        }
        for (name, client) in &clients {
            assert_eq!(client.seen_runs(), 2, "{name}: one run per publisher");
            assert_eq!(client.seen_count() as u64, FLOODS, "{name} remembers every flood");
        }
        // And the memory still suppresses: a replay of the first flood
        // goes nowhere.
        let replay = GdsMessage::Publish {
            id: MessageId::from_raw(0),
            payload: XmlElement::new("event").into(),
        };
        let (again, _) = pump(&mut nodes, &"gds-5".into(), &"gs-5".into(), replay);
        assert!(again.is_empty());
    }

    #[test]
    fn multicast_routes_only_to_targets() {
        let mut nodes = figure2();
        let (deliveries, undeliverable) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::PublishTargeted {
                id: MessageId::from_raw(2),
                targets: vec!["gs-7".into(), "gs-1".into()],
                payload: XmlElement::new("x").into(),
            },
        );
        let mut recipients: Vec<String> = deliveries.iter().map(|(to, _)| to.to_string()).collect();
        recipients.sort();
        assert_eq!(recipients, vec!["gs-1", "gs-7"]);
        assert!(undeliverable.is_empty());
    }

    #[test]
    fn multicast_to_unknown_target_reports_undeliverable() {
        let mut nodes = figure2();
        let (deliveries, undeliverable) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::PublishTargeted {
                id: MessageId::from_raw(3),
                targets: vec!["gs-ghost".into()],
                payload: XmlElement::new("x").into(),
            },
        );
        assert!(deliveries.is_empty());
        assert_eq!(undeliverable, vec![HostName::new("gs-ghost")]);
    }

    #[test]
    fn resolve_finds_responsible_node() {
        let mut nodes = figure2();
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Resolve {
                token: ResolveToken(1),
                name: "gs-6".into(),
                reply_to: "gs-5".into(),
            },
        );
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, HostName::new("gs-5"));
        match &deliveries[0].1 {
            GdsMessage::ResolveResponse { result, .. } => {
                assert_eq!(result, &Some(HostName::new("gds-6")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resolve_unknown_name_answers_none() {
        let mut nodes = figure2();
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Resolve {
                token: ResolveToken(2),
                name: "gs-ghost".into(),
                reply_to: "gs-5".into(),
            },
        );
        match &deliveries[0].1 {
            GdsMessage::ResolveResponse { result, .. } => assert_eq!(result, &None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unregister_removes_from_all_ancestors() {
        let mut nodes = figure2();
        pump(
            &mut nodes,
            &"gds-7".into(),
            &"gs-7".into(),
            GdsMessage::Unregister { gs_host: "gs-7".into() },
        );
        assert!(!nodes[&HostName::new("gds-7")].knows(&"gs-7".into()));
        assert!(!nodes[&HostName::new("gds-3")].knows(&"gs-7".into()));
        assert!(!nodes[&HostName::new("gds-1")].knows(&"gs-7".into()));
        // Broadcast no longer reaches gs-7.
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(9),
                payload: XmlElement::new("event").into(),
            },
        );
        assert!(deliveries.iter().all(|(to, _)| to != &HostName::new("gs-7")));
    }

    #[test]
    fn reparenting_reregisters_subtree() {
        let mut nodes = figure2();
        // Move gds-7 from gds-3 to gds-2.
        nodes.get_mut(&HostName::new("gds-3")).unwrap().remove_child(&"gds-7".into());
        // gds-3 must forget gs-7 (routed via gds-7) and tell ancestors.
        assert!(!nodes[&HostName::new("gds-3")].knows(&"gs-7".into()));
        nodes.get_mut(&HostName::new("gds-2")).unwrap().add_child("gds-7");
        let node7 = nodes.get_mut(&HostName::new("gds-7")).unwrap();
        node7.set_parent(Some("gds-2".into()));
        let rereg = node7.reregistrations();
        assert_eq!(rereg.len(), 1);
        for out in rereg {
            pump(&mut nodes, &out.to.clone(), &"gds-7".into(), out.msg);
        }
        assert!(nodes[&HostName::new("gds-2")].knows(&"gs-7".into()));
        // Targeted routing still works along the new path.
        let (deliveries, undeliverable) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::PublishTargeted {
                id: MessageId::from_raw(11),
                targets: vec!["gs-7".into()],
                payload: XmlElement::new("x").into(),
            },
        );
        assert!(undeliverable.is_empty());
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, HostName::new("gs-7"));
    }

    /// A node beacons each of its children once, and no one else: not
    /// its parent, not its local servers. A leaf beacons no one.
    #[test]
    fn each_child_gets_a_beacon() {
        let mut nodes = figure2();
        let parent = nodes.get_mut(&HostName::new("gds-3")).unwrap();
        let mut effects = GdsEffects::default();
        parent.beacons(&mut effects);
        let beacon = GdsMessage::HeartbeatAck { version: 0 };
        let sent: Vec<(&str, &GdsMessage)> = effects
            .outbound
            .iter()
            .map(|out| (out.to.as_str(), &out.msg))
            .collect();
        assert_eq!(sent, vec![("gds-6", &beacon), ("gds-7", &beacon)]);
        let leaf = nodes.get_mut(&HostName::new("gds-7")).unwrap();
        let mut effects = GdsEffects::default();
        leaf.beacons(&mut effects);
        assert!(effects.outbound.is_empty());
        // The beacon is ignored at the node layer (the actor's failure
        // detector consumes it).
        let effects = leaf.handle_message(&"gds-3".into(), beacon);
        assert!(effects.outbound.is_empty());
    }

    /// The beacon carries the summary version the parent holds for the
    /// edge, and the child re-announces only when that is none or behind
    /// what it last sent.
    #[test]
    fn a_beacon_says_which_summary_the_parent_holds() {
        let mut parent = GdsNode::new("gds-3", 2, Some(HostName::new("gds-1")));
        parent.set_interest(InterestMode::Prune);
        parent.add_child("gds-7");
        let mut child = GdsNode::new("gds-7", 3, Some(HostName::new("gds-3")));
        child.set_interest(InterestMode::Prune);
        child.handle_message(
            &"gs-7".into(),
            GdsMessage::Register {
                gs_host: "gs-7".into(),
            },
        );
        child.handle_message(
            &"gs-7".into(),
            GdsMessage::SummaryUpdate {
                from: "gs-7".into(),
                version: 1,
                summary: host_summary("gs-5"),
            },
        );
        fn held(parent: &mut GdsNode) -> u64 {
            let mut effects = GdsEffects::default();
            parent.beacons(&mut effects);
            match effects.outbound[..] {
                [GdsOutbound {
                    msg: GdsMessage::HeartbeatAck { version },
                    ..
                }] => version,
                ref other => panic!("expected one beacon, got {other:?}"),
            }
        }
        let version_of = |out: &GdsOutbound| match &out.msg {
            GdsMessage::SummaryUpdate { version, .. } => *version,
            other => panic!("expected an announcement, got {other}"),
        };
        assert_eq!(held(&mut parent), 0, "the parent holds nothing yet");
        let first = child
            .summary_refresh(0)
            .expect("a parent holding nothing is told");
        // Say the first was lost: still nothing held, so announce again.
        assert!(child.summary_refresh(0).is_some());
        // The first arrives late and the second never does: the parent
        // holds a version behind the newest sent.
        let first_version = version_of(&first);
        parent.handle_message(&"gds-7".into(), first.msg);
        assert_eq!(held(&mut parent), first_version);
        let third = child
            .summary_refresh(first_version)
            .expect("behind the newest sent");
        let third_version = version_of(&third);
        parent.handle_message(&"gds-7".into(), third.msg);
        assert_eq!(held(&mut parent), third_version);
        assert!(
            child.summary_refresh(third_version).is_none(),
            "an idle edge re-announces nothing"
        );
    }

    #[test]
    fn adopt_and_detach_drive_protocol_level_reparenting() {
        let mut nodes = figure2();
        // gds-7's parent gds-3 "died"; gds-7 re-parents to grandparent
        // gds-1 using only protocol messages.
        let node7 = nodes.get_mut(&HostName::new("gds-7")).unwrap();
        node7.set_parent(Some("gds-1".into()));
        let rereg = node7.reregistrations();
        pump(
            &mut nodes,
            &"gds-1".into(),
            &"gds-7".into(),
            GdsMessage::Adopt { child: "gds-7".into() },
        );
        for out in rereg {
            pump(&mut nodes, &out.to.clone(), &"gds-7".into(), out.msg);
        }
        assert!(nodes[&HostName::new("gds-1")]
            .children()
            .any(|c| c == &HostName::new("gds-7")));
        // After the heal the old parent is told to forget the edge.
        pump(
            &mut nodes,
            &"gds-3".into(),
            &"gds-7".into(),
            GdsMessage::Detach { child: "gds-7".into() },
        );
        assert!(nodes[&HostName::new("gds-3")]
            .children()
            .all(|c| c != &HostName::new("gds-7")));
        // Broadcasts still reach everyone exactly once over the healed tree.
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(21),
                payload: XmlElement::new("event").into(),
            },
        );
        let mut recipients: Vec<String> =
            deliveries.iter().map(|(to, _)| to.to_string()).collect();
        recipients.sort();
        assert_eq!(
            recipients,
            vec!["gs-1", "gs-2", "gs-3", "gs-4", "gs-6", "gs-7"]
        );
    }

    fn event_payload(host: &str, seq: u64) -> Payload {
        let event = gsa_types::Event::new(
            gsa_types::EventId::new(host, seq),
            gsa_types::CollectionId::new(host, "D"),
            gsa_types::EventKind::CollectionRebuilt,
            gsa_types::SimTime::from_millis(1),
        );
        gsa_wire::codec::event_to_xml(&event).into()
    }

    fn host_summary(host: &str) -> InterestSummary {
        let mut s = InterestSummary::empty();
        s.add_host(host);
        s
    }

    /// figure2 with pruning enabled everywhere and every server having
    /// announced its interests: gs-6 wants events from gs-5, everyone
    /// else wants nothing.
    fn pruned_figure2() -> BTreeMap<HostName, GdsNode> {
        let mut nodes = figure2();
        for node in nodes.values_mut() {
            node.set_interest(InterestMode::Prune);
        }
        for i in 1..=7 {
            let gds = HostName::new(format!("gds-{i}"));
            let gs = HostName::new(format!("gs-{i}"));
            let summary = if i == 6 { host_summary("gs-5") } else { InterestSummary::empty() };
            pump(
                &mut nodes,
                &gds,
                &gs,
                GdsMessage::SummaryUpdate { from: gs.clone(), version: 1, summary },
            );
        }
        nodes
    }

    #[test]
    fn pruned_flood_reaches_exactly_the_interested_server() {
        let mut nodes = pruned_figure2();
        // The summaries carry no digests (what a population without
        // equality literals announces): anchors alone do the pruning.
        assert!(!host_summary("gs-5").has_attrs());
        // Sanity: summaries aggregated up — the root sees gds-3's
        // subtree as interested in gs-5.
        let root = &nodes[&HostName::new("gds-1")];
        assert_eq!(root.edge_summary(&"gds-3".into()), Some(&host_summary("gs-5")));
        assert_eq!(root.edge_summary(&"gds-2".into()), Some(&InterestSummary::empty()));

        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish { id: MessageId::from_raw(1), payload: event_payload("gs-5", 1) },
        );
        let recipients: Vec<String> = deliveries.iter().map(|(to, _)| to.to_string()).collect();
        assert_eq!(recipients, vec!["gs-6"], "only the interested server is reached");
        let pruned: u64 = nodes
            .values_mut()
            .map(|n| n.counts_mut().get(CounterId::GDS_PRUNED_EDGES))
            .sum();
        assert!(pruned > 0, "some edges must have been pruned");
    }

    #[test]
    fn unannounced_edges_and_undecodable_payloads_are_never_pruned() {
        // A newly registered server that has not announced interests yet
        // widens its node to wildcard, and the widening cascades up.
        let mut nodes = pruned_figure2();
        pump(
            &mut nodes,
            &"gds-4".into(),
            &"gs-8".into(),
            GdsMessage::Register { gs_host: "gs-8".into() },
        );
        assert!(nodes[&HostName::new("gds-1")].edge_summary(&"gds-4".into()).unwrap().is_wildcard());
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish { id: MessageId::from_raw(2), payload: event_payload("gs-5", 2) },
        );
        let mut recipients: Vec<String> = deliveries.iter().map(|(to, _)| to.to_string()).collect();
        recipients.sort();
        // gs-8's edge is wildcard, so the flood re-enters gds-4's subtree;
        // gs-4's own (empty) summary still prunes its local edge.
        assert_eq!(recipients, vec!["gs-6", "gs-8"]);

        // A payload that is not a decodable event floods everywhere.
        let mut nodes = pruned_figure2();
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish { id: MessageId::from_raw(3), payload: XmlElement::new("x").into() },
        );
        assert_eq!(deliveries.len(), 6, "conservative fallback floods to all");
    }

    #[test]
    fn stale_summary_versions_are_ignored() {
        let mut nodes = pruned_figure2();
        let gds6 = nodes.get_mut(&HostName::new("gds-6")).unwrap();
        gds6.handle_message(
            &"gs-6".into(),
            GdsMessage::SummaryUpdate { from: "gs-6".into(), version: 3, summary: host_summary("gs-1") },
        );
        // An older (delayed) update must not clobber the newer one.
        gds6.handle_message(
            &"gs-6".into(),
            GdsMessage::SummaryUpdate { from: "gs-6".into(), version: 2, summary: host_summary("gs-5") },
        );
        assert_eq!(gds6.edge_summary(&"gs-6".into()), Some(&host_summary("gs-1")));
    }

    #[test]
    fn adoption_resets_the_edge_to_wildcard() {
        let mut nodes = pruned_figure2();
        // Move gds-6 (the only interested subtree) under gds-1 directly.
        nodes.get_mut(&HostName::new("gds-3")).unwrap().remove_child(&"gds-6".into());
        let node6 = nodes.get_mut(&HostName::new("gds-6")).unwrap();
        node6.set_parent(Some("gds-1".into()));
        let rereg = node6.reregistrations();
        pump(&mut nodes, &"gds-1".into(), &"gds-6".into(), GdsMessage::Adopt { child: "gds-6".into() });
        for out in rereg {
            pump(&mut nodes, &out.to.clone(), &"gds-6".into(), out.msg);
        }
        // The new edge has no summary, so it is wildcard: events still
        // reach gs-6 even before gds-6 re-announces.
        assert_eq!(nodes[&HostName::new("gds-1")].edge_summary(&"gds-6".into()), None);
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish { id: MessageId::from_raw(4), payload: event_payload("gs-5", 4) },
        );
        assert!(
            deliveries.iter().any(|(to, _)| to == &HostName::new("gs-6")),
            "adopted subtree must not be pruned before it re-announces"
        );
    }

    #[test]
    fn disabled_pruning_sends_no_summary_traffic_and_full_floods() {
        let mut nodes = figure2();
        // A flood node keeps no summary it is sent, so nothing
        // propagates upward and floods stay full.
        pump(
            &mut nodes,
            &"gds-6".into(),
            &"gs-6".into(),
            GdsMessage::SummaryUpdate { from: "gs-6".into(), version: 1, summary: InterestSummary::empty() },
        );
        assert!(nodes[&HostName::new("gds-6")].edge_summary(&"gs-6".into()).is_none());
        assert!(nodes[&HostName::new("gds-3")].edge_summary(&"gds-6".into()).is_none());
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish { id: MessageId::from_raw(5), payload: event_payload("gs-5", 5) },
        );
        assert_eq!(deliveries.len(), 6, "full flood when pruning is off");
    }

    #[test]
    fn summary_announcement_bumps_versions_and_skips_initial_wildcard() {
        let mut node = GdsNode::new("gds-9", 2, Some(HostName::new("gds-1")));
        node.set_interest(InterestMode::Prune);
        node.add_child("gds-10");
        // Child edge has no summary → aggregate is wildcard → nothing
        // better than the parent's default to say.
        assert!(node.summary_announcement().is_none());
        node.handle_message(
            &"gds-10".into(),
            GdsMessage::SummaryUpdate { from: "gds-10".into(), version: 1, summary: host_summary("gs-5") },
        );
        let first = node.summary_announcement().expect("announces once known");
        let second = node.summary_announcement().expect("re-announce allowed");
        let version_of = |out: &GdsOutbound| match &out.msg {
            GdsMessage::SummaryUpdate { version, .. } => *version,
            other => panic!("unexpected {other:?}"),
        };
        assert!(version_of(&second) > version_of(&first));
    }

    fn kind_event_payload(host: &str, seq: u64, kind: gsa_types::EventKind) -> Payload {
        let mut event = gsa_types::Event::new(
            gsa_types::EventId::new(host, seq),
            gsa_types::CollectionId::new(host, "D"),
            kind,
            gsa_types::SimTime::from_millis(1),
        );
        event.docs = vec![gsa_types::DocSummary::new("doc-1").with_metadata(
            [("Language", "mi")].into_iter().collect::<gsa_types::MetadataRecord>(),
        )];
        gsa_wire::codec::event_to_xml(&event).into()
    }

    fn kind_summary(host: &str, kind: gsa_types::EventKind) -> InterestSummary {
        let mut s = host_summary(host);
        s.constrain_attr(
            gsa_wire::ATTR_KEY_KIND.to_owned(),
            vec![kind.as_str().to_owned()],
        );
        s
    }

    /// pruned_figure2 but gs-6's interest carries a kind digest: events
    /// from gs-5, and only documents-added ones.
    fn attr_pruned_figure2() -> BTreeMap<HostName, GdsNode> {
        let mut nodes = figure2();
        for node in nodes.values_mut() {
            node.set_interest(InterestMode::Prune);
        }
        for i in 1..=7 {
            let gds = HostName::new(format!("gds-{i}"));
            let gs = HostName::new(format!("gs-{i}"));
            let summary = if i == 6 {
                kind_summary("gs-5", gsa_types::EventKind::DocumentsAdded)
            } else {
                InterestSummary::empty()
            };
            pump(
                &mut nodes,
                &gds,
                &gs,
                GdsMessage::SummaryUpdate { from: gs.clone(), version: 1, summary },
            );
        }
        nodes
    }

    #[test]
    fn attr_digests_prune_within_an_interested_collection() {
        let mut nodes = attr_pruned_figure2();
        // A collection-rebuilt event from gs-5: the collection anchor
        // matches gs-6's interest but the kind digest rules it out —
        // the whole gds-3 subtree is skipped.
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(1),
                payload: kind_event_payload("gs-5", 1, gsa_types::EventKind::CollectionRebuilt),
            },
        );
        assert!(deliveries.is_empty(), "kind digest must prune: {deliveries:?}");
        // A documents-added event still gets through.
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(2),
                payload: kind_event_payload("gs-5", 2, gsa_types::EventKind::DocumentsAdded),
            },
        );
        let recipients: Vec<String> = deliveries.iter().map(|(to, _)| to.to_string()).collect();
        assert_eq!(recipients, vec!["gs-6"]);
    }

    #[test]
    fn attr_digests_prune_on_the_frozen_probe_path_too() {
        let mut nodes = attr_pruned_figure2();
        for node in nodes.values_mut() {
            node.set_encode_once(true);
        }
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(3),
                payload: kind_event_payload("gs-5", 3, gsa_types::EventKind::CollectionRebuilt),
            },
        );
        assert!(deliveries.is_empty(), "probe path must see the kind: {deliveries:?}");
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(4),
                payload: kind_event_payload("gs-5", 4, gsa_types::EventKind::DocumentsAdded),
            },
        );
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, HostName::new("gs-6"));
    }

    /// A pruning node decides every item of a frame: publishes of one
    /// server, one after another, still go where each one's kind does.
    #[test]
    fn attr_digests_prune_each_item_of_a_frame() {
        let mut nodes = attr_pruned_figure2();
        let kinds = [
            gsa_types::EventKind::DocumentsAdded,
            gsa_types::EventKind::CollectionRebuilt,
            gsa_types::EventKind::DocumentsAdded,
            gsa_types::EventKind::CollectionRebuilt,
        ];
        let frame: Arc<[GdsMessage]> = (5u64..)
            .zip(kinds)
            .map(|(id, kind)| GdsMessage::Publish {
                id: MessageId::from_raw(id),
                payload: kind_event_payload("gs-5", id, kind),
            })
            .collect();
        let (deliveries, _) =
            pump(&mut nodes, &"gds-5".into(), &"gs-5".into(), GdsMessage::Batch(frame));
        let mut delivered: Vec<(String, u64)> = Vec::new();
        for (to, msg) in &deliveries {
            let single = std::slice::from_ref(msg);
            let items = match msg {
                GdsMessage::Batch(items) => &items[..],
                _ => single,
            };
            for item in items {
                let GdsMessage::Deliver { id, .. } = item else {
                    panic!("{to} is sent {item}");
                };
                delivered.push((to.to_string(), id.as_u64()));
            }
        }
        delivered.sort();
        assert_eq!(delivered, [("gs-6".to_owned(), 5), ("gs-6".to_owned(), 7)]);
    }

    #[test]
    fn meta_digests_prune_events_lacking_the_attribute() {
        let mut nodes = figure2();
        for node in nodes.values_mut() {
            node.set_interest(InterestMode::Prune);
        }
        let mut wants_maori = host_summary("gs-5");
        wants_maori.constrain_attr("meta:Language".to_owned(), vec!["mi".to_owned()]);
        for i in 1..=7 {
            let gds = HostName::new(format!("gds-{i}"));
            let gs = HostName::new(format!("gs-{i}"));
            let summary = if i == 6 { wants_maori.clone() } else { InterestSummary::empty() };
            pump(
                &mut nodes,
                &gds,
                &gs,
                GdsMessage::SummaryUpdate { from: gs.clone(), version: 1, summary },
            );
        }
        // kind_event_payload docs carry Language=mi → delivered.
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(1),
                payload: kind_event_payload("gs-5", 1, gsa_types::EventKind::DocumentsAdded),
            },
        );
        assert_eq!(deliveries.len(), 1);
        // An event with no Language metadata at all provably cannot
        // satisfy the positive-equality digest → pruned.
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish { id: MessageId::from_raw(2), payload: event_payload("gs-5", 2) },
        );
        assert!(deliveries.is_empty(), "missing digested attribute must prune");
    }

    /// attr_pruned_figure2 with rendezvous enabled everywhere: the
    /// (kind, documents-added) subgroup is exclusive to the gds-3 →
    /// gds-6 chain, so grants flow root → gds-3 → gds-6.
    fn rendezvous_figure2() -> BTreeMap<HostName, GdsNode> {
        let mut nodes = figure2();
        for node in nodes.values_mut() {
            node.set_interest(InterestMode::PruneWithGrants);
        }
        for i in 1..=7 {
            let gds = HostName::new(format!("gds-{i}"));
            let gs = HostName::new(format!("gs-{i}"));
            let summary = if i == 6 {
                kind_summary("gs-5", gsa_types::EventKind::DocumentsAdded)
            } else {
                InterestSummary::empty()
            };
            pump(
                &mut nodes,
                &gds,
                &gs,
                GdsMessage::SummaryUpdate { from: gs.clone(), version: 1, summary },
            );
        }
        nodes
    }

    #[test]
    fn rendezvous_grants_flow_down_the_exclusive_chain() {
        let nodes = rendezvous_figure2();
        let held = |name: &str| nodes[&HostName::new(name)].held_grants();
        let expect: BTreeMap<String, BTreeSet<String>> = [(
            "kind".to_owned(),
            ["documents-added".to_owned()].into_iter().collect(),
        )]
        .into_iter()
        .collect();
        // What gds-1 granted gds-3 and what gds-3 granted gds-6 is what
        // each holds.
        assert_eq!(held("gds-3"), &expect);
        assert_eq!(held("gds-6"), &expect);
        // The uninterested subtree holds nothing.
        assert!(held("gds-5").is_empty());
    }

    #[test]
    fn held_grants_confine_matching_floods_to_the_subtree() {
        let mut nodes = rendezvous_figure2();
        // A documents-added event *originating at gs-6* stays inside
        // gds-6: the grant proves nobody outside wants the subgroup.
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-6".into(),
            &"gs-6".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(1),
                payload: kind_event_payload("gs-6", 1, gsa_types::EventKind::DocumentsAdded),
            },
        );
        assert!(deliveries.is_empty());
        let node6 = nodes.get_mut(&HostName::new("gds-6")).unwrap();
        let confined = std::mem::take(node6.counts_mut()).get(CounterId::GDS_RENDEZVOUS_CONFINED);
        assert_eq!(confined, 1, "the upward hop must be confined");
        // An event of a different kind is NOT confined and floods up.
        let (_, _) = pump(
            &mut nodes,
            &"gds-6".into(),
            &"gs-6".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(2),
                payload: kind_event_payload("gs-6", 2, gsa_types::EventKind::CollectionRebuilt),
            },
        );
        let node6 = nodes.get_mut(&HostName::new("gds-6")).unwrap();
        assert_eq!(node6.counts_mut().get(CounterId::GDS_RENDEZVOUS_CONFINED), 0);
        // The root saw it (dedup now suppresses a replay through it).
        let root = nodes.get_mut(&HostName::new("gds-1")).unwrap();
        let effects = root.handle_message(
            &"gds-3".into(),
            GdsMessage::Broadcast {
                id: MessageId::from_raw(2),
                origin: "gs-6".into(),
                payload: kind_event_payload("gs-6", 2, gsa_types::EventKind::CollectionRebuilt),
            },
        );
        assert!(effects.outbound.is_empty(), "root must have seen the unconfined flood");
    }

    #[test]
    fn new_interest_elsewhere_revokes_grants_in_the_same_batch() {
        let mut nodes = rendezvous_figure2();
        // gs-7 now also wants documents-added events: the subgroup is no
        // longer exclusive to gds-6, so the grant must be revoked.
        pump(
            &mut nodes,
            &"gds-7".into(),
            &"gs-7".into(),
            GdsMessage::SummaryUpdate {
                from: "gs-7".into(),
                version: 2,
                summary: kind_summary("gs-5", gsa_types::EventKind::DocumentsAdded),
            },
        );
        assert!(
            nodes[&HostName::new("gds-6")].held_grants().is_empty(),
            "grant must be revoked once exclusivity is lost"
        );
        // And the flood leaves the subtree again (no confinement).
        pump(
            &mut nodes,
            &"gds-6".into(),
            &"gs-6".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(3),
                payload: kind_event_payload("gs-6", 3, gsa_types::EventKind::DocumentsAdded),
            },
        );
        let node6 = nodes.get_mut(&HostName::new("gds-6")).unwrap();
        assert_eq!(
            node6.counts_mut().get(CounterId::GDS_RENDEZVOUS_CONFINED),
            0,
            "revoked grant must not confine"
        );
        let root = nodes.get_mut(&HostName::new("gds-1")).unwrap();
        let effects = root.handle_message(
            &"gds-3".into(),
            GdsMessage::Broadcast {
                id: MessageId::from_raw(3),
                origin: "gs-6".into(),
                payload: kind_event_payload("gs-6", 3, gsa_types::EventKind::DocumentsAdded),
            },
        );
        assert!(effects.outbound.is_empty(), "root must have seen the flood after revocation");
    }

    #[test]
    fn mixed_trees_with_rendezvous_off_upstream_never_confine() {
        // Same network, but the root keeps the feature off: nobody can
        // prove upward exclusivity, so no grants exist anywhere and the
        // flood is plain digest-pruned.
        let mut nodes = figure2();
        for (name, node) in nodes.iter_mut() {
            node.set_interest(if name == &HostName::new("gds-1") {
                InterestMode::Prune
            } else {
                InterestMode::PruneWithGrants
            });
        }
        for i in 1..=7 {
            let gds = HostName::new(format!("gds-{i}"));
            let gs = HostName::new(format!("gs-{i}"));
            let summary = if i == 6 {
                kind_summary("gs-5", gsa_types::EventKind::DocumentsAdded)
            } else {
                InterestSummary::empty()
            };
            pump(
                &mut nodes,
                &gds,
                &gs,
                GdsMessage::SummaryUpdate { from: gs.clone(), version: 1, summary },
            );
        }
        for node in nodes.values() {
            assert!(node.held_grants().is_empty());
        }
        let (_, _) = pump(
            &mut nodes,
            &"gds-6".into(),
            &"gs-6".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(1),
                payload: kind_event_payload("gs-6", 1, gsa_types::EventKind::DocumentsAdded),
            },
        );
        let confined: u64 = nodes
            .values_mut()
            .map(|n| n.counts_mut().get(CounterId::GDS_RENDEZVOUS_CONFINED))
            .sum();
        assert_eq!(confined, 0, "no grants, no confinement");
    }

    #[test]
    fn reparenting_drops_held_grants() {
        let mut nodes = rendezvous_figure2();
        let node6 = nodes.get_mut(&HostName::new("gds-6")).unwrap();
        assert!(!node6.held_grants().is_empty());
        node6.set_parent(Some("gds-1".into()));
        assert!(node6.held_grants().is_empty(), "grants are per-position in the tree");
    }

    #[test]
    fn heartbeats_heal_lost_grants() {
        let mut nodes = rendezvous_figure2();
        // Simulate a grant lost in transit: wipe it via a reparent round
        // trip back to the same parent (versions reset with it).
        let node6 = nodes.get_mut(&HostName::new("gds-6")).unwrap();
        node6.set_parent(Some("gds-3".into()));
        assert!(node6.held_grants().is_empty());
        // The parent's next beacon carries a re-grant.
        let parent = nodes.get_mut(&HostName::new("gds-3")).unwrap();
        let mut effects = GdsEffects::default();
        parent.beacons(&mut effects);
        for out in effects.outbound {
            pump(&mut nodes, &out.to, &"gds-3".into(), out.msg);
        }
        assert!(
            !nodes[&HostName::new("gds-6")].held_grants().is_empty(),
            "the beacon must re-send current grants"
        );
    }

    #[test]
    fn deferred_announcements_coalesce_a_burst_into_one_update() {
        let mut node = GdsNode::new("gds-9", 2, Some(HostName::new("gds-1")));
        node.set_interest(InterestMode::Prune);
        let mut updates = 0;
        for (i, gs) in ["gs-a", "gs-b", "gs-c"].iter().enumerate() {
            let effects = node.handle_message(
                &HostName::new(*gs),
                GdsMessage::SummaryUpdate {
                    from: HostName::new(*gs),
                    version: 1,
                    summary: host_summary(&format!("gs-{i}")),
                },
            );
            node.handle_message(&HostName::new(*gs), GdsMessage::Register { gs_host: HostName::new(*gs) });
            updates += effects
                .outbound
                .iter()
                .filter(|o| matches!(o.msg, GdsMessage::SummaryUpdate { .. }))
                .count();
        }
        assert_eq!(updates, 0, "a node never announces inline");
        assert!(node.announce_pending());
        let flushed = node.flush_deferred_announcement().expect("one coalesced announce");
        assert!(matches!(flushed.msg, GdsMessage::SummaryUpdate { .. }));
        assert!(node.flush_deferred_announcement().is_none(), "burst collapses to one");
        // A no-op burst (same aggregate re-announced) flushes to nothing.
        node.handle_message(
            &"gs-a".into(),
            GdsMessage::SummaryUpdate {
                from: "gs-a".into(),
                version: 2,
                summary: host_summary("gs-0"),
            },
        );
        assert!(node.announce_pending());
        assert!(node.flush_deferred_announcement().is_none(), "unchanged aggregate is dropped");
    }

    #[test]
    fn node_accessors() {
        let nodes = figure2();
        let root = &nodes[&HostName::new("gds-1")];
        assert_eq!(root.stratum(), 1);
        assert!(root.parent().is_none());
        assert_eq!(root.children().count(), 3);
        assert_eq!(root.name().as_str(), "gds-1");
    }

    /// A frame of `ids` as the parent floods it.
    fn broadcast_frame(ids: std::ops::RangeInclusive<u64>) -> Arc<[GdsMessage]> {
        ids.map(|id| GdsMessage::Broadcast {
            id: MessageId::from_raw(id),
            origin: "gs-1".into(),
            payload: XmlElement::new("event").into(),
        })
        .collect()
    }

    /// The replay ring holds items as references into the frames they
    /// came in: the newest `RECENT_CAP`, across frame boundaries, and
    /// nothing of a frame it evicted whole.
    #[test]
    fn the_replay_ring_keeps_the_newest_items_by_reference() {
        let mut node = GdsNode::new("gds-2", 2, Some("gds-1".into()));
        let parent = HostName::new("gds-1");
        // 17 frames of 8 and one of 5: 141 items, 13 past the cap.
        let frames: Vec<Arc<[GdsMessage]>> = (0..17u64)
            .map(|f| broadcast_frame(f * 8 + 1..=f * 8 + 8))
            .chain([broadcast_frame(137..=141)])
            .collect();
        let first = Arc::downgrade(&frames[0]);
        let mut frames = frames.into_iter();
        node.handle_message(&parent, GdsMessage::Batch(frames.next().expect("17 + 1")));
        let frames: Vec<Arc<[GdsMessage]>> = frames.collect();
        for frame in &frames {
            node.handle_message(&parent, GdsMessage::Batch(frame.clone()));
        }
        assert_eq!(node.flood.recent_items, RECENT_CAP);
        assert!(first.upgrade().is_none(), "the fully evicted frame is released");
        // The second frame lost its first five items to the cap; each
        // frame is one entry, however many of its items it holds.
        assert_eq!(Arc::strong_count(&frames[0]), 1 + 1);
        assert_eq!(Arc::strong_count(&frames[16]), 1 + 1);

        let effects = node.handle_message(&"gds-9".into(), GdsMessage::Adopt { child: "gds-9".into() });
        let replayed: Vec<u64> = effects
            .outbound
            .iter()
            .filter(|out| out.to.as_str() == "gds-9")
            .map(|out| match &out.msg {
                GdsMessage::Broadcast { id, .. } => id.as_u64(),
                other => panic!("replay sends broadcasts, not {other}"),
            })
            .collect();
        assert_eq!(replayed, (14..=141).collect::<Vec<u64>>(), "in flood order");
    }

    /// The ids a node replays to an adopted child, which it then
    /// detaches again so the next flood goes where it did before.
    fn replayed_ids(node: &mut GdsNode) -> Vec<u64> {
        let child = HostName::new("gds-9");
        let effects = node.handle_message(&child, GdsMessage::Adopt { child: child.clone() });
        let ids = effects
            .outbound
            .iter()
            .filter(|out| out.to == child)
            .map(|out| match &out.msg {
                GdsMessage::Broadcast { id, .. } => id.as_u64(),
                other => panic!("replay sends broadcasts, not {other}"),
            })
            .collect();
        node.handle_message(&child.clone(), GdsMessage::Detach { child });
        ids
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The replay ring against a queue of the newest `RECENT_CAP`
        /// fresh ids: frames of 1 to 40 items, some with a repeated id
        /// in the middle, and one frame longer than the ring.
        #[test]
        fn the_replay_ring_holds_the_newest_floods_like_a_queue(
            frames in proptest::prop::collection::vec((1usize..=40, 0u8..4), 1..30),
            long_at in 0usize..30,
            long_len in RECENT_CAP + 1..RECENT_CAP + 80,
        ) {
            let mut node = GdsNode::new("gds-2", 2, Some("gds-1".into()));
            let parent = HostName::new("gds-1");
            let mut model: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
            let mut sent: Vec<(std::sync::Weak<[GdsMessage]>, Vec<u64>)> = Vec::new();
            let (mut next, mut total) = (1u64, 0usize);
            let lens = frames.iter().enumerate().map(|(at, &(len, dup))| {
                (if at == long_at { long_len } else { len }, dup == 0)
            });
            for (len, repeat) in lens {
                let mut ids: Vec<u64> = (next..next + len as u64).collect();
                next += len as u64;
                if repeat {
                    ids.insert(len / 2 + 1, ids[len / 2]);
                }
                let frame: Arc<[GdsMessage]> = ids
                    .iter()
                    .map(|&id| GdsMessage::Broadcast {
                        id: MessageId::from_raw(id),
                        origin: "gs-1".into(),
                        payload: XmlElement::new("event").into(),
                    })
                    .collect();
                sent.push((Arc::downgrade(&frame), ids.clone()));
                node.handle_message(&parent, GdsMessage::Batch(frame));
                ids.dedup();
                total += ids.len();
                for id in ids {
                    if model.len() == RECENT_CAP {
                        model.pop_front();
                    }
                    model.push_back(id);
                }

                assert_eq!(node.flood.recent_items, total.min(RECENT_CAP));
                assert_eq!(replayed_ids(&mut node), Vec::from(model.clone()), "in flood order");
                for (weak, ids) in &sent {
                    let held = ids.iter().any(|id| model.contains(id));
                    assert_eq!(weak.upgrade().is_some(), held, "frame of {ids:?}");
                }
            }
        }
    }

    /// One frame from a child interleaving a remote origin and a local
    /// server's, with a repeated id in the middle: every fresh item goes
    /// to exactly the edges its own decision names, in frame order, and
    /// never back to its own server; the repeat goes nowhere.
    #[test]
    fn a_frame_of_two_origins_goes_where_each_item_is_decided() {
        let mut node = GdsNode::new("gds-2", 2, Some("gds-1".into()));
        node.add_child("gds-3");
        node.add_child("gds-4");
        for gs in ["gs-a", "gs-b"] {
            node.handle_message(&gs.into(), GdsMessage::Register { gs_host: gs.into() });
        }
        let items: Vec<(&str, u64)> = vec![
            ("Hamilton", 1),
            ("Hamilton", 2),
            ("gs-a", 1),
            ("gs-a", 2),
            ("Hamilton", 2),
            ("Hamilton", 3),
            ("gs-a", 3),
            ("gs-a", 4),
            ("Hamilton", 4),
        ];
        let frame: Arc<[GdsMessage]> = items
            .iter()
            .map(|&(origin, id)| GdsMessage::Broadcast {
                id: MessageId::from_raw(id),
                origin: origin.into(),
                payload: XmlElement::new("event").into(),
            })
            .collect();
        let effects = node.handle_message(&"gds-3".into(), GdsMessage::Batch(frame));

        let mut got: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
        for out in &effects.outbound {
            let to = out.to.as_str();
            let single = std::slice::from_ref(&out.msg);
            let sent = match &out.msg {
                GdsMessage::Batch(frame) => &frame[..],
                _ => single,
            };
            for msg in sent {
                let (id, origin) = match (msg, to.starts_with("gs-")) {
                    (GdsMessage::Deliver { id, origin, .. }, true)
                    | (GdsMessage::Broadcast { id, origin, .. }, false) => (id, origin),
                    (other, _) => panic!("{to} is sent {other}"),
                };
                got.entry(to.to_owned()).or_default().push((origin.to_string(), id.as_u64()));
            }
        }
        // The per-item decision: the local servers but the origin, the
        // parent, and the children but the sender gds-3.
        let fresh = [0, 1, 2, 3, 5, 6, 7, 8].map(|i| items[i]);
        let mut want: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
        for (origin, id) in fresh {
            for edge in ["gs-a", "gs-b", "gds-1", "gds-4"] {
                if edge != origin {
                    want.entry(edge.to_owned()).or_default().push((origin.to_owned(), id));
                }
            }
        }
        assert_eq!(got, want);
        assert!(!got["gs-a"].iter().any(|(origin, _)| origin == "gs-a"));
    }
}
