//! The actor abstraction: protocol state machines driven by the simulator.

use crate::metrics::CounterId;
use crate::sim::{NodeId, NodeMeta};
use gsa_types::{FxHashMap, SimDuration, SimTime};
use rand::rngs::StdRng;
use std::fmt;
use std::sync::Arc;

/// A protocol state machine living on one simulated node.
///
/// Implementations react to messages and timers through the [`Ctx`] handed
/// to each callback; they must not block or keep references into the
/// context between callbacks.
pub trait Actor<M>: 'static {
    /// Called once when the simulation starts (or when the node is added to
    /// an already-running simulation).
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Called for every message delivered to this node.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// Called when a timer set through [`Ctx::set_timer`] fires. `tag` is
    /// the caller-chosen discriminator passed when the timer was set.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64) {
        let _ = (ctx, tag);
    }
}

/// Commands buffered by a [`Ctx`] during one actor callback.
#[derive(Debug)]
pub(crate) enum Command<M> {
    Send { to: NodeId, msg: M },
    SetTimer { delay: SimDuration, tag: u64 },
    Count { id: CounterId, delta: u64 },
}

/// The interface an [`Actor`] uses to interact with the simulated world.
///
/// All effects are buffered and applied by the simulator after the callback
/// returns, in order. For the length of the callback the context also
/// lends the actor what the simulator owns: the RNG and the one
/// name ↔ node table of the world.
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

    /// Schedules a timer `delay` from now. `tag` is passed back to
    /// [`Actor::on_timer`] so one actor can multiplex timer purposes.
    /// The timer dies with the node: if the node goes down before it
    /// fires, it never fires.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.commands.push(Command::SetTimer { delay, tag });
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
