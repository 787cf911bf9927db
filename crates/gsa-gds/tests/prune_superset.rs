//! Property: under arbitrary subscribe / unsubscribe / reparent /
//! crash sequences interleaved with event floods, a pruning GDS tree's
//! interest summaries stay *conservative*: every node's aggregate is a
//! superset of the interests currently announced by the live servers
//! in its subtree, and a flood therefore reaches every server whose
//! announced interest matches the event — false positives (extra
//! forwarding) are allowed, false negatives never are.
//!
//! Summaries may be attribute-tightened (a `kind` equality digest), and
//! each run draws a per-node rendezvous mask, so the same invariant is
//! exercised over anchors-only trees, digest-tightened trees, fully
//! rendezvous-routed trees and mixed deployments where only some nodes
//! understand grants.
//!
//! A crash is modelled as the sans-IO layers see it: the server
//! vanishes from its node (`Unregister`) and re-registers somewhere
//! else, re-announcing its interests with its next summary version.

use gsa_gds::{GdsMessage, GdsNode, InterestMode};
use gsa_types::{CollectionId, Event, EventId, EventKind, HostName, MessageId, SimTime};
use gsa_wire::codec::event_to_xml;
use gsa_wire::{InterestSummary, ATTR_KEY_KIND};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const ANCHORS: [&str; 5] = ["A", "B", "C", "D", "E"];
const KINDS: [EventKind; 2] = [EventKind::CollectionRebuilt, EventKind::DocumentsAdded];
const SERVERS: usize = 7;

#[derive(Debug, Clone)]
enum Op {
    /// Server gains interest in an anchor host and re-announces.
    Subscribe { server: usize, anchor: usize },
    /// Server drops interest in an anchor host and re-announces.
    Unsubscribe { server: usize, anchor: usize },
    /// Server admits one more event kind into its digest (the first
    /// such op turns an unconstrained interest into `kind ∈ {k}`).
    ConstrainKind { server: usize, kind: usize },
    /// Server drops its kind digest, back to kind-unconstrained.
    RelaxKinds { server: usize },
    /// Node `gds-(node+2)` detaches from its parent and is adopted by
    /// the root (the failure-recovery move; root keeps it cycle-free).
    Reparent { node: usize },
    /// Server crashes away from its node and re-registers at another.
    Crash { server: usize, to: usize },
    /// A probe event for an anchor host floods from a publisher.
    Flood { publisher: usize, anchor: usize, kind: usize },
}

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        (0usize..SERVERS, 0usize..ANCHORS.len())
            .prop_map(|(server, anchor)| Op::Subscribe { server, anchor }),
        (0usize..SERVERS, 0usize..ANCHORS.len())
            .prop_map(|(server, anchor)| Op::Unsubscribe { server, anchor }),
        (0usize..SERVERS, 0usize..KINDS.len())
            .prop_map(|(server, kind)| Op::ConstrainKind { server, kind }),
        (0usize..SERVERS).prop_map(|server| Op::RelaxKinds { server }),
        (0usize..6).prop_map(|node| Op::Reparent { node }),
        (0usize..SERVERS, 0usize..SERVERS).prop_map(|(server, to)| Op::Crash { server, to }),
        (0usize..SERVERS, 0usize..ANCHORS.len(), 0usize..KINDS.len())
            .prop_map(|(publisher, anchor, kind)| Op::Flood { publisher, anchor, kind }),
    ]
}

/// Routes a message and every cascading effect until the network is
/// quiet, collecting deliveries to Greenstone servers.
fn pump(
    nodes: &mut BTreeMap<HostName, GdsNode>,
    first_to: &HostName,
    first_from: &HostName,
    msg: GdsMessage,
) -> Vec<(HostName, GdsMessage)> {
    let mut gs_deliveries = Vec::new();
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
        for out in effects.outbound {
            queue.push((to.clone(), out.to, out.msg));
        }
    }
    gs_deliveries
}

fn gds(i: usize) -> HostName {
    HostName::new(format!("gds-{}", i + 1))
}

fn gs(i: usize) -> HostName {
    HostName::new(format!("gs-{}", i + 1))
}

/// The figure-2 tree with pruning on, one server per node, plus the
/// model state the invariant is checked against.
struct Harness {
    nodes: BTreeMap<HostName, GdsNode>,
    /// Per-server interest model: which anchors it has announced.
    anchors: Vec<BTreeSet<usize>>,
    /// Per-server kind digest: empty = unconstrained (any kind).
    kinds: Vec<BTreeSet<usize>>,
    versions: Vec<u64>,
    /// Which node each server is currently registered at.
    node_of: Vec<HostName>,
    /// Model of the tree shape, updated on reparent.
    parent_of: BTreeMap<HostName, Option<HostName>>,
    seq: u64,
}

impl Harness {
    /// Builds the tree; bit `i` of `rendezvous_mask` turns rendezvous
    /// routing on for node `gds-(i+1)`, so runs range over anchors-only,
    /// fully-routed and mixed deployments.
    fn new(rendezvous_mask: u8) -> Self {
        let spec: &[(&str, u8, Option<&str>, &[&str])] = &[
            ("gds-1", 1, None, &["gds-2", "gds-3", "gds-4"]),
            ("gds-2", 2, Some("gds-1"), &["gds-5"]),
            ("gds-3", 2, Some("gds-1"), &["gds-6", "gds-7"]),
            ("gds-4", 2, Some("gds-1"), &[]),
            ("gds-5", 3, Some("gds-2"), &[]),
            ("gds-6", 3, Some("gds-3"), &[]),
            ("gds-7", 3, Some("gds-3"), &[]),
        ];
        let mut nodes = BTreeMap::new();
        let mut parent_of = BTreeMap::new();
        for (i, (name, stratum, parent, children)) in spec.iter().enumerate() {
            let mut node = GdsNode::new(*name, *stratum, parent.map(HostName::new));
            node.set_interest(if rendezvous_mask & (1 << i) != 0 {
                InterestMode::PruneWithGrants
            } else {
                InterestMode::Prune
            });
            for c in *children {
                node.add_child(*c);
            }
            parent_of.insert(HostName::new(*name), parent.map(HostName::new));
            nodes.insert(HostName::new(*name), node);
        }
        let mut harness = Harness {
            nodes,
            anchors: vec![BTreeSet::new(); SERVERS],
            kinds: vec![BTreeSet::new(); SERVERS],
            versions: vec![0; SERVERS],
            node_of: (0..SERVERS).map(gds).collect(),
            parent_of,
            seq: 0,
        };
        for i in 0..SERVERS {
            pump(
                &mut harness.nodes,
                &gds(i),
                &gs(i),
                GdsMessage::Register { gs_host: gs(i) },
            );
            harness.announce(i);
        }
        harness
    }

    /// The server's current interest as an announced summary.
    fn summary_of(&self, server: usize) -> InterestSummary {
        let mut summary = InterestSummary::empty();
        for &a in &self.anchors[server] {
            summary.add_host(ANCHORS[a]);
        }
        if !summary.is_empty() && !self.kinds[server].is_empty() {
            summary.constrain_attr(
                ATTR_KEY_KIND,
                self.kinds[server].iter().map(|&k| KINDS[k].as_str().to_owned()),
            );
        }
        summary
    }

    fn announce(&mut self, server: usize) {
        self.versions[server] += 1;
        let summary = self.summary_of(server);
        let to = self.node_of[server].clone();
        pump(
            &mut self.nodes,
            &to,
            &gs(server),
            GdsMessage::SummaryUpdate {
                from: gs(server),
                version: self.versions[server],
                summary,
            },
        );
    }

    /// All nodes inside `root`'s subtree, per the model shape.
    fn subtree(&self, root: &HostName) -> BTreeSet<HostName> {
        let mut members = BTreeSet::new();
        for node in self.parent_of.keys() {
            let mut cursor = Some(node.clone());
            while let Some(c) = cursor {
                if &c == root {
                    members.insert(node.clone());
                    break;
                }
                cursor = self.parent_of[&c].clone();
            }
        }
        members
    }

    /// Does the model say server `s` matches an `(anchor, kind)` event?
    fn interested(&self, s: usize, anchor: usize, kind: usize) -> bool {
        self.anchors[s].contains(&anchor)
            && (self.kinds[s].is_empty() || self.kinds[s].contains(&kind))
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::Subscribe { server, anchor } => {
                self.anchors[server].insert(anchor);
                self.announce(server);
            }
            Op::Unsubscribe { server, anchor } => {
                self.anchors[server].remove(&anchor);
                self.announce(server);
            }
            Op::ConstrainKind { server, kind } => {
                self.kinds[server].insert(kind);
                self.announce(server);
            }
            Op::RelaxKinds { server } => {
                self.kinds[server].clear();
                self.announce(server);
            }
            Op::Reparent { node } => {
                let child = gds(node + 1);
                let root = gds(0);
                if let Some(old) = self.parent_of[&child].clone() {
                    pump(
                        &mut self.nodes,
                        &old,
                        &child,
                        GdsMessage::Detach { child: child.clone() },
                    );
                    self.nodes
                        .get_mut(&child)
                        .unwrap()
                        .set_parent(Some(root.clone()));
                    self.parent_of.insert(child.clone(), Some(root.clone()));
                    pump(
                        &mut self.nodes,
                        &root,
                        &child,
                        GdsMessage::Adopt { child: child.clone() },
                    );
                    // The actor layer re-registers the subtree and
                    // re-announces its summary after adoption; mirror it.
                    let child_node = self.nodes.get_mut(&child).unwrap();
                    let mut outbound = child_node.reregistrations();
                    outbound.extend(child_node.summary_announcement());
                    for out in outbound {
                        pump(&mut self.nodes, &out.to, &child, out.msg);
                    }
                }
            }
            Op::Crash { server, to } => {
                let old = self.node_of[server].clone();
                pump(
                    &mut self.nodes,
                    &old,
                    &gs(server),
                    GdsMessage::Unregister { gs_host: gs(server) },
                );
                self.node_of[server] = gds(to);
                pump(
                    &mut self.nodes,
                    &gds(to),
                    &gs(server),
                    GdsMessage::Register { gs_host: gs(server) },
                );
                self.announce(server);
            }
            Op::Flood { publisher, anchor, kind } => {
                self.seq += 1;
                let origin_host = ANCHORS[anchor];
                let event = Event::new(
                    EventId::new(origin_host, self.seq),
                    CollectionId::new(origin_host, "C"),
                    KINDS[kind],
                    SimTime::from_millis(self.seq),
                );
                let to = self.node_of[publisher].clone();
                let delivered: BTreeSet<HostName> = pump(
                    &mut self.nodes,
                    &to,
                    &gs(publisher),
                    GdsMessage::Publish {
                        id: MessageId::from_raw(self.seq),
                        payload: event_to_xml(&event).into(),
                    },
                )
                .into_iter()
                .filter(|(_, msg)| matches!(msg, GdsMessage::Deliver { .. }))
                .map(|(to, _)| to)
                .collect();
                for s in 0..SERVERS {
                    if s == publisher || !self.interested(s, anchor, kind) {
                        continue;
                    }
                    prop_assert!(
                        delivered.contains(&gs(s)),
                        "false negative: {} announced interest in {}/{:?} but \
                         missed event {} (delivered: {:?})",
                        gs(s),
                        origin_host,
                        KINDS[kind],
                        self.seq,
                        delivered,
                    );
                }
            }
        }
        Ok(())
    }

    /// The safety invariant: every node's aggregate summary covers the
    /// union of the live subtree's announced interests.
    fn check_superset(&self) -> Result<(), TestCaseError> {
        for (name, node) in &self.nodes {
            let members = self.subtree(name);
            let mut expected = InterestSummary::empty();
            for s in 0..SERVERS {
                if members.contains(&self.node_of[s]) {
                    expected.union_with(&self.summary_of(s));
                }
            }
            let aggregate = node.aggregate_summary();
            prop_assert!(
                aggregate.covers(&expected),
                "{} aggregate {:?} no longer covers live subtree interests {:?}",
                name,
                aggregate,
                expected,
            );
        }
        Ok(())
    }

    /// Every grant a node holds must be provably exclusive: no live
    /// server outside that node's subtree may currently match the
    /// granted `(attribute, value)` pair (here, a kind digest value).
    fn check_grant_exclusivity(&self) -> Result<(), TestCaseError> {
        for (name, node) in &self.nodes {
            let members = self.subtree(name);
            for (key, values) in node.held_grants() {
                if key != ATTR_KEY_KIND {
                    continue;
                }
                for value in values {
                    let kind = KINDS.iter().position(|k| k.as_str() == value);
                    let Some(kind) = kind else { continue };
                    for s in 0..SERVERS {
                        if members.contains(&self.node_of[s]) {
                            continue;
                        }
                        for anchor in 0..ANCHORS.len() {
                            prop_assert!(
                                !self.interested(s, anchor, kind),
                                "{} holds a grant for kind={} but {} outside \
                                 its subtree matches that kind",
                                name,
                                value,
                                gs(s),
                            );
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn summaries_stay_supersets_of_live_subtree_interests(
        rendezvous_mask in 0u8..128,
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut harness = Harness::new(rendezvous_mask);
        for op in &ops {
            harness.apply(op)?;
            harness.check_superset()?;
            harness.check_grant_exclusivity()?;
        }
    }
}
