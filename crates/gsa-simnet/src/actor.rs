//! The actor abstraction: protocol state machines driven by the simulator.

use crate::metrics::CounterId;
use crate::sim::{NodeId, NodeMeta};
use gsa_types::{FxHashMap, SimTime};
use rand::rngs::StdRng;
use std::fmt;
use std::sync::Arc;

/// A protocol state machine living on one simulated node.
///
/// Implementations react to messages and timers through the [`Ctx`] handed
/// to each callback; they must not block or keep references into the
/// context between callbacks.
///
/// An actor does not set timers. After every callback the simulator asks
/// it for [`Actor::next_deadline`] and keeps the node's one timer there:
/// an unchanged deadline keeps its place in the queue, a changed one
/// replaces it, and `None` withdraws it. [`Actor::on_timer`] runs when
/// the deadline comes, so an actor with several things to time reports
/// the earliest and, when called, does every one that is due.
pub trait Actor<M>: 'static {
    /// Called once when the simulation starts (or when the node is added to
    /// an already-running simulation).
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Called for every message delivered to this node.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// Called when the deadline last reported by
    /// [`Actor::next_deadline`] comes.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// When this actor next needs [`Actor::on_timer`]; `None` when it
    /// needs no timer. Asked after every callback. A deadline already
    /// past is due at once, behind what is queued for the current
    /// instant.
    fn next_deadline(&self) -> Option<SimTime> {
        None
    }
}

/// Commands buffered by a [`Ctx`] during one actor callback.
#[derive(Debug)]
pub(crate) enum Command<M> {
    Send { to: NodeId, msg: M },
    Count { id: CounterId, delta: u64 },
}

/// The interface an [`Actor`] uses to interact with the simulated world.
///
/// All effects are buffered and applied by the simulator after the callback
/// returns, in order. For the length of the callback the context also
/// lends the actor what the simulator owns: the RNG and the one
/// name ↔ node table of the world. There is no timer call: the
/// simulator reads when the actor next needs the clock from
/// [`Actor::next_deadline`] once the callback returns.
pub struct Ctx<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) commands: Vec<Command<M>>,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) meta: &'a [NodeMeta],
    pub(crate) names: &'a FxHashMap<Arc<str>, NodeId>,
}

impl<'a, M> Ctx<'a, M> {
    /// The id of the node this actor runs on.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node added under `name`, if any — including nodes added
    /// after this actor started. (For the actor's own id see
    /// [`Ctx::node_id`].)
    pub fn resolve(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// The name `node` was added under, shared with the simulator's
    /// table: cloning it is a reference-count bump.
    ///
    /// # Panics
    ///
    /// Panics when `node` does not belong to this simulation.
    pub fn name_of(&self, node: NodeId) -> &Arc<str> {
        &self.meta[node.as_u32() as usize].name
    }

    /// Sends `msg` to `to`. Delivery is subject to the link model: latency,
    /// jitter, loss, partitions and downed nodes.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.commands.push(Command::Send { to, msg });
    }

    /// Adds `delta` to a table counter's slot: no lookup, no
    /// allocation.
    pub fn count_id(&mut self, id: CounterId, delta: u64) {
        self.commands.push(Command::Count { id, delta });
    }

    /// Deterministic per-run random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

impl<'a, M> fmt::Debug for Ctx<'a, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("node", &self.node)
            .field("now", &self.now)
            .field("buffered", &self.commands.len())
            .finish()
    }
}
