//! The membership machine: a directory node's place in the tree and the
//! registry of the Greenstone servers below it (§4.1). Registrations
//! propagate to the root, so a stratum-1 node knows the whole network;
//! the registry answers the naming service's resolves and routes
//! targeted messages down the right child.

use crate::message::{GdsMessage, ResolveToken};
use crate::node::GdsEffects;
use gsa_types::{HostName, MessageId};
use gsa_wire::Payload;
use std::collections::{BTreeMap, BTreeSet};

/// A node's edges, which the flood and interest machines share, and its
/// subtree registry.
#[derive(Default)]
pub(crate) struct Membership {
    pub(crate) parent: Option<HostName>,
    pub(crate) children: BTreeSet<HostName>,
    /// The Greenstone servers registered directly with this node.
    pub(crate) local: BTreeSet<HostName>,
    /// Greenstone server -> next hop (the node itself for local, else a
    /// child).
    pub(crate) subtree: BTreeMap<HostName, HostName>,
}

impl Membership {
    /// The edges in flood order: local servers, parent, children.
    pub(crate) fn edges(&self) -> impl Iterator<Item = &HostName> {
        self.local.iter().chain(&self.parent).chain(&self.children)
    }

    /// `gs_host` registered below `via` (this node, `me`, for a local
    /// server): recorded, and the ancestors are told.
    pub(crate) fn register(
        &mut self,
        gs_host: HostName,
        via: HostName,
        me: &HostName,
        effects: &mut GdsEffects,
    ) {
        self.subtree.insert(gs_host.clone(), via);
        if let Some(parent) = &self.parent {
            effects.send(parent.clone(), GdsMessage::RegisterUp { gs_host, via: me.clone() });
        }
    }

    pub(crate) fn unregister(&mut self, gs_host: HostName, effects: &mut GdsEffects) {
        self.subtree.remove(&gs_host);
        if let Some(parent) = &self.parent {
            effects.send(parent.clone(), GdsMessage::UnregisterUp { gs_host });
        }
    }

    /// Drops a child and every registration routed through it.
    pub(crate) fn remove_child(&mut self, child: &HostName) {
        self.children.remove(child);
        self.subtree.retain(|_, via| via != child);
    }

    /// The naming service: answer for a local server, pass the query
    /// down towards a known one or up (never back where it came from),
    /// and answer `None` where neither is possible.
    pub(crate) fn resolve(
        &self,
        token: ResolveToken,
        name: HostName,
        reply_to: HostName,
        from: &HostName,
        me: &HostName,
        effects: &mut GdsEffects,
    ) {
        let local = self.local.contains(&name);
        let next = self
            .subtree
            .get(&name)
            .or(self.parent.as_ref().filter(|parent| *parent != from));
        match next {
            Some(next) if !local => {
                effects.send(next.clone(), GdsMessage::Resolve { token, name, reply_to });
            }
            _ => {
                let result = local.then(|| me.clone());
                effects.send(reply_to, GdsMessage::ResolveResponse { token, name, result });
            }
        }
    }

    /// Targeted routing along the tree using the subtree registry.
    pub(crate) fn route(
        &self,
        origin: &HostName,
        id: MessageId,
        targets: &[HostName],
        payload: &Payload,
        came_from: Option<&HostName>,
        effects: &mut GdsEffects,
    ) {
        let mut per_child: BTreeMap<&HostName, Vec<HostName>> = BTreeMap::new();
        let mut upward = Vec::new();
        for target in targets {
            if self.local.contains(target) {
                let (origin, payload) = (origin.clone(), payload.clone());
                effects.send(target.clone(), GdsMessage::Deliver { id, origin, payload });
            } else if let Some(via) = self.subtree.get(target) {
                per_child.entry(via).or_default().push(target.clone());
            } else {
                upward.push(target.clone());
            }
        }
        let route = |targets| {
            let (origin, payload) = (origin.clone(), payload.clone());
            GdsMessage::Route { id, origin, targets, payload }
        };
        for (child, targets) in per_child {
            effects.send(child.clone(), route(targets));
        }
        match (&self.parent, came_from) {
            _ if upward.is_empty() => {}
            (Some(parent), came) if came != Some(parent) => {
                effects.send(parent.clone(), route(upward));
            }
            _ => effects.undeliverable.extend(upward),
        }
    }
}
