//! The discrete-event simulation engine.

use crate::actor::{Actor, Command, Ctx};
use crate::link::LinkConfig;
use crate::metrics::{CounterId, Metrics};
use gsa_types::{FxHashMap, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// How many drained command buffers the simulator keeps for reuse.
/// Actor callbacks never nest, so one buffer cycles in steady state;
/// the small headroom covers transient shapes without hoarding memory.
const COMMAND_POOL_LIMIT: usize = 4;

/// Identifies a node in one simulation. Ids are dense, starting at zero,
/// in the order nodes were added.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Wraps a raw index.
    pub const fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One recorded message delivery, available when tracing is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Delivery time.
    pub at: SimTime,
    /// Send time.
    pub sent_at: SimTime,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// A `Debug`-derived summary of the message, truncated.
    pub summary: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} -> {}: {}", self.at, self.from, self.to, self.summary)
    }
}

/// Object-safe actor wrapper that supports downcasting; implemented for
/// every [`Actor`] automatically.
trait ActorObj<M>: Actor<M> {
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<M: 'static, T: Actor<M>> ActorObj<M> for T {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A scheduled item. A start carries the incarnation its node was in
/// when it was scheduled, a timer its node's slot generation: either is
/// dropped when its node has moved on since.
enum What<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        sent_at: SimTime,
    },
    Timer {
        node: NodeId,
        generation: u32,
    },
    Start {
        node: NodeId,
        incarnation: u32,
    },
}

/// Per-message wire-size estimator used for byte accounting.
type WireSizeFn<M> = Box<dyn Fn(&M) -> usize>;

/// A node on the scheduling heap: ordering keys only, the payload
/// parks in the slab. 24 bytes, so a heap sift moves an order of
/// magnitude fewer bytes than sifting the message itself.
#[derive(Clone, Copy, PartialEq, Eq)]
struct SlimScheduled {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for SlimScheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SlimScheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The scheduling queue: slim key-only heap nodes; payloads park in a
/// slab whose slots recycle through a free list, so the steady state
/// allocates nothing.
struct Queue<M> {
    heap: BinaryHeap<SlimScheduled>,
    slab: Vec<Option<What<M>>>,
    free: Vec<u32>,
}

impl<M> Queue<M> {
    fn new() -> Self {
        Queue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// The next item to pop, if any.
    fn peek(&self) -> Option<(SimTime, &What<M>)> {
        let slim = self.heap.peek()?;
        let what = self.slab[slim.slot as usize].as_ref();
        Some((slim.at, what.expect("occupied slot")))
    }

    fn push(&mut self, at: SimTime, seq: u64, what: What<M>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(what);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("queue below u32::MAX items");
                self.slab.push(Some(what));
                slot
            }
        };
        self.heap.push(SlimScheduled { at, seq, slot });
    }

    fn pop(&mut self) -> Option<(SimTime, What<M>)> {
        let slim = self.heap.pop()?;
        let what = self.slab[slim.slot as usize].take().expect("occupied slot");
        self.free.push(slim.slot);
        Some((slim.at, what))
    }
}

pub(crate) struct NodeMeta {
    /// The node's name, stored once: `names` keys share this `Arc`, and
    /// an actor that needs it as a host name clones the `Arc` too.
    pub(crate) name: Arc<str>,
    up: bool,
    partition: u32,
    /// How many times the node has gone down.
    incarnation: u32,
    /// The deadline the actor last reported, queued as the one timer
    /// entry of the current `generation`; bumping it drops the entry.
    deadline: Option<SimTime>,
    generation: u32,
}

/// The deterministic discrete-event simulator.
///
/// See the [crate documentation](crate) for the model and an example.
pub struct Sim<M> {
    now: SimTime,
    seq: u64,
    queue: Queue<M>,
    actors: Vec<Option<Box<dyn ActorObj<M>>>>,
    meta: Vec<NodeMeta>,
    /// Name → node, lent to actors through [`Ctx::resolve`]. Probe-only,
    /// so the fast hasher cannot leak an iteration order into behaviour.
    names: FxHashMap<Arc<str>, NodeId>,
    /// The one link config every node pair shares.
    link: LinkConfig,
    rng: StdRng,
    metrics: Metrics,
    trace: Option<Vec<TraceEntry>>,
    wire_size: Option<WireSizeFn<M>>,
    /// Drained per-callback command buffers kept for reuse.
    command_pool: Vec<Vec<Command<M>>>,
}

impl<M> fmt::Debug for Sim<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("nodes", &self.meta.len())
            .field("pending", &self.queue.len())
            .finish()
    }
}

impl<M: fmt::Debug + 'static> Sim<M> {
    /// Creates an empty simulation seeded with `seed`. Identical seeds and
    /// identical action sequences give identical runs.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: Queue::new(),
            actors: Vec::new(),
            meta: Vec::new(),
            names: FxHashMap::default(),
            link: LinkConfig::lan(),
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::new(),
            trace: None,
            wire_size: None,
            command_pool: Vec::new(),
        }
    }

    /// Sets the link characteristics every node pair shares.
    pub fn set_default_link(&mut self, cfg: LinkConfig) {
        self.link = cfg;
    }

    /// Sets the drop probability of every link, keeping its latency and
    /// jitter. Chaos harnesses use this to open and close loss bursts
    /// without re-describing the topology.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not within `0.0..=1.0`.
    pub fn set_drop_probability(&mut self, p: f64) {
        self.link = self.link.clone().with_drop_probability(p);
    }

    /// Enables trace recording of every delivered message.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded trace (empty unless [`Sim::enable_trace`] was called).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Installs a function measuring the wire size of a message, enabling
    /// the `net.bytes_sent` counter.
    pub fn set_wire_size_fn(&mut self, f: impl Fn(&M) -> usize + 'static) {
        self.wire_size = Some(Box::new(f));
    }

    /// Adds a node running `actor`; its [`Actor::on_start`] runs at the
    /// current simulation time.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already taken.
    pub fn add_node(&mut self, name: impl Into<String>, actor: impl Actor<M>) -> NodeId {
        let name: Arc<str> = name.into().into();
        assert!(
            !self.names.contains_key(&*name),
            "duplicate node name {name:?}"
        );
        let id = NodeId(self.actors.len() as u32);
        self.actors.push(Some(Box::new(actor)));
        self.meta.push(NodeMeta {
            name: name.clone(),
            up: true,
            partition: 0,
            incarnation: 0,
            deadline: None,
            generation: 0,
        });
        self.names.insert(name, id);
        self.push(
            self.now,
            What::Start {
                node: id,
                incarnation: 0,
            },
        );
        id
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.actors.len()
    }

    /// Looks a node up by name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// The name a node was added under.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not belong to this simulation.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.meta[id.index()].name
    }

    /// All node ids, in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.actors.len() as u32).map(NodeId)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Marks a node up or down. A downed node neither receives nor runs
    /// timers; messages to it are dropped. Going down withdraws the
    /// node's timer, and bringing it back up re-runs its
    /// [`Actor::on_start`] once, after which the deadline the actor
    /// reports is queued afresh, even one that did not change.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not belong to this simulation.
    pub fn set_node_up(&mut self, id: NodeId, up: bool) {
        let meta = &mut self.meta[id.index()];
        let was_up = std::mem::replace(&mut meta.up, up);
        if was_up && !up {
            meta.incarnation += 1;
            meta.deadline = None;
            meta.generation = meta.generation.wrapping_add(1);
        } else if up && !was_up {
            let incarnation = meta.incarnation;
            self.push(
                self.now,
                What::Start {
                    node: id,
                    incarnation,
                },
            );
        }
    }

    /// Assigns a node to a partition group. Nodes in different groups
    /// cannot exchange messages. All nodes start in group 0.
    pub fn set_partition(&mut self, id: NodeId, group: u32) {
        self.meta[id.index()].partition = group;
    }

    /// Moves every node back to partition group 0.
    pub fn heal_network(&mut self) {
        for meta in &mut self.meta {
            meta.partition = 0;
        }
    }

    /// Injects a message delivered to `to` immediately, as if sent by
    /// `from`. Used by experiment drivers to stand in for external clients.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.push(
            self.now,
            What::Deliver {
                from,
                to,
                msg,
                sent_at: self.now,
            },
        );
    }

    /// Runs a closure against the node's actor, downcast to `T`, with a
    /// full [`Ctx`] whose buffered effects are applied afterwards. Returns
    /// `None` when the actor is not a `T`.
    ///
    /// This is how experiment drivers call protocol entry points
    /// ("subscribe", "rebuild collection") between simulation steps.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not belong to this simulation.
    pub fn with_actor<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_, M>) -> R,
    ) -> Option<R> {
        let mut actor = self.actors[id.index()].take().expect("actor present");
        let result = match actor.as_any_mut().downcast_mut::<T>() {
            Some(typed) => {
                let mut ctx = Ctx {
                    node: id,
                    now: self.now,
                    commands: self.checkout_commands(),
                    rng: &mut self.rng,
                    meta: &self.meta,
                    names: &self.names,
                };
                let r = f(typed, &mut ctx);
                let commands = ctx.commands;
                self.end_callback(id, actor, commands);
                return Some(r);
            }
            None => None,
        };
        self.actors[id.index()] = Some(actor);
        result
    }

    /// Replaces the node's actor, downcast to `T`, with the one `f`
    /// builds from it by value; the node's name and state stay, and its
    /// timer follows the new actor's deadline. Returns `false`, the
    /// actor untouched, when it is not a `T`.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not belong to this simulation.
    pub fn replace_actor<T: Actor<M>>(&mut self, id: NodeId, f: impl FnOnce(T) -> T) -> bool {
        let slot = &mut self.actors[id.index()];
        if !slot.as_mut().expect("actor present").as_any_mut().is::<T>() {
            return false;
        }
        let old = slot.take().expect("actor present").into_any();
        let old = old.downcast::<T>().expect("the type was checked above");
        let new = f(*old);
        let deadline = new.next_deadline();
        *slot = Some(Box::new(new));
        self.set_deadline(id, deadline);
        true
    }

    /// Reads from the node's actor, downcast to `T`, without a context.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not belong to this simulation.
    pub fn actor<T: 'static, R>(&mut self, id: NodeId, f: impl FnOnce(&T) -> R) -> Option<R> {
        let mut actor = self.actors[id.index()].take().expect("actor present");
        let r = actor.as_any_mut().downcast_mut::<T>().map(|t| f(t));
        self.actors[id.index()] = Some(actor);
        r
    }

    /// Executes the next scheduled item. Returns `false` when the queue is
    /// empty. A timer entry that was replaced or withdrawn is dropped
    /// on the way, and is not a step.
    pub fn step(&mut self) -> bool {
        self.next_at();
        let Some((at, what)) = self.queue.pop() else {
            return false;
        };
        self.now = self.now.max(at);
        match what {
            What::Start { node, incarnation } => {
                if self.is_live(node, incarnation) {
                    self.run_actor(node, |actor, ctx| actor.on_start(ctx));
                }
            }
            What::Timer { node, .. } => {
                self.meta[node.index()].deadline = None;
                self.run_actor(node, |actor, ctx| actor.on_timer(ctx));
            }
            What::Deliver {
                from,
                to,
                msg,
                sent_at,
            } => {
                if !self.meta[to.index()].up {
                    self.metrics.count_id(CounterId::NET_DROPPED, 1);
                    return true;
                }
                self.metrics.count_id(CounterId::NET_DELIVERED, 1);
                self.metrics.note_received(to);
                self.metrics
                    .record_latency((self.now - sent_at).as_micros());
                if let Some(trace) = &mut self.trace {
                    let mut summary = format!("{msg:?}");
                    if summary.len() > 160 {
                        summary.truncate(summary.floor_char_boundary(157));
                        summary.push_str("...");
                    }
                    trace.push(TraceEntry {
                        at: self.now,
                        sent_at,
                        from,
                        to,
                        summary,
                    });
                }
                self.run_actor(to, |actor, ctx| actor.on_message(ctx, from, msg));
            }
        }
        true
    }

    /// Whether `node` is up and still in `incarnation`.
    fn is_live(&self, node: NodeId, incarnation: u32) -> bool {
        let meta = &self.meta[node.index()];
        meta.up && meta.incarnation == incarnation
    }

    /// When the next item is due, once the timer entries at the head of
    /// the queue that are no longer their node's are dropped (the clock
    /// does not move for them).
    fn next_at(&mut self) -> Option<SimTime> {
        loop {
            match self.queue.peek()? {
                (_, &What::Timer { node, generation })
                    if self.meta[node.index()].generation != generation =>
                {
                    self.queue.pop();
                }
                (at, _) => return Some(at),
            }
        }
    }

    /// Keeps `node`'s one timer at `deadline`, the one its actor just
    /// reported: an unchanged deadline keeps its place in the queue, a
    /// changed one replaces it (behind what is already queued for its
    /// instant, and no earlier than now), and `None` withdraws it. A
    /// node that is down has no timer.
    fn set_deadline(&mut self, node: NodeId, deadline: Option<SimTime>) {
        let meta = &mut self.meta[node.index()];
        if !meta.up || meta.deadline == deadline {
            return;
        }
        meta.generation = meta.generation.wrapping_add(1);
        meta.deadline = deadline;
        let generation = meta.generation;
        if let Some(at) = deadline {
            self.push(at.max(self.now), What::Timer { node, generation });
        }
    }

    /// Runs until the queue is exhausted or simulated time would exceed
    /// `deadline`. Returns the number of items processed.
    pub fn run_until_quiet(&mut self, deadline: SimTime) -> usize {
        let mut processed = 0;
        while let Some(head_at) = self.next_at() {
            if head_at > deadline {
                break;
            }
            self.step();
            processed += 1;
        }
        processed
    }

    /// Processes everything scheduled up to and including `t`, then
    /// advances the clock to exactly `t`.
    pub fn run_until(&mut self, t: SimTime) -> usize {
        let n = self.run_until_quiet(t);
        self.now = self.now.max(t);
        n
    }

    /// Convenience: [`Sim::run_until`] relative to the current time.
    pub fn run_for(&mut self, d: SimDuration) -> usize {
        self.run_until(self.now + d)
    }

    /// Number of items still scheduled, replaced timer entries included.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    fn push(&mut self, at: SimTime, what: What<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, what);
    }

    /// Takes a pooled command buffer for one actor callback.
    fn checkout_commands(&mut self) -> Vec<Command<M>> {
        self.command_pool.pop().unwrap_or_default()
    }

    /// Returns a drained command buffer to the pool (dropped past the
    /// pool cap).
    fn checkin_commands(&mut self, mut buf: Vec<Command<M>>) {
        if self.command_pool.len() < COMMAND_POOL_LIMIT {
            buf.clear();
            self.command_pool.push(buf);
        }
    }

    fn run_actor(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn ActorObj<M>, &mut Ctx<'_, M>),
    ) {
        let Some(mut actor) = self.actors[node.index()].take() else {
            return;
        };
        let mut ctx = Ctx {
            node,
            now: self.now,
            commands: self.checkout_commands(),
            rng: &mut self.rng,
            meta: &self.meta,
            names: &self.names,
        };
        f(actor.as_mut(), &mut ctx);
        let commands = ctx.commands;
        self.end_callback(node, actor, commands);
    }

    /// Puts `actor` back after a callback, applies what it buffered, and
    /// keeps its node's timer at the deadline it now reports.
    fn end_callback(
        &mut self,
        node: NodeId,
        actor: Box<dyn ActorObj<M>>,
        mut commands: Vec<Command<M>>,
    ) {
        let deadline = actor.next_deadline();
        self.actors[node.index()] = Some(actor);
        self.apply_commands(node, &mut commands);
        self.checkin_commands(commands);
        self.set_deadline(node, deadline);
    }

    fn apply_commands(&mut self, node: NodeId, commands: &mut Vec<Command<M>>) {
        for command in commands.drain(..) {
            match command {
                Command::Send { to, msg } => self.route(node, to, msg),
                Command::Count { id, delta } => self.metrics.count_id(id, delta),
            }
        }
    }

    fn route(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.metrics.count_id(CounterId::NET_SENT, 1);
        self.metrics.count_id(CounterId::NET_FRAMES, 1);
        if let Some(f) = &self.wire_size {
            self.metrics.count_id(CounterId::NET_BYTES_SENT, f(&msg) as u64);
        }
        if to.index() >= self.actors.len() {
            self.metrics.count_id(CounterId::NET_DROPPED, 1);
            return;
        }
        let same_partition = self.meta[from.index()].partition == self.meta[to.index()].partition;
        if !same_partition || !self.meta[to.index()].up || self.link.sample_drop(&mut self.rng) {
            self.metrics.count_id(CounterId::NET_DROPPED, 1);
            return;
        }
        let latency = self.link.sample_latency(&mut self.rng);
        self.push(
            self.now + latency,
            What::Deliver {
                from,
                to,
                msg,
                sent_at: self.now,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, Ctx};

    /// Replies "pong" to "ping"; remembers everything it sees.
    #[derive(Default)]
    struct Echo {
        received: Vec<String>,
    }
    impl Actor<String> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, String>, from: NodeId, msg: String) {
            if msg == "ping" {
                ctx.send(from, "pong".to_string());
            }
            self.received.push(msg);
        }
    }

    /// Sends one ping to node 0 on start; remembers pongs.
    #[derive(Default)]
    struct Pinger {
        pongs: u32,
    }
    impl Actor<String> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, String>) {
            ctx.send(NodeId::from_raw(0), "ping".into());
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, String>, _from: NodeId, msg: String) {
            if msg == "pong" {
                self.pongs += 1;
            }
        }
    }

    fn ping_sim() -> Sim<String> {
        let mut sim = Sim::new(1);
        sim.add_node("echo", Echo::default());
        sim.add_node("pinger", Pinger::default());
        sim
    }

    /// How many messages the echo node (node 0) has received.
    fn pings(sim: &mut Sim<String>) -> usize {
        sim.actor::<Echo, _>(NodeId::from_raw(0), |e| e.received.len())
            .unwrap()
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = ping_sim();
        sim.run_until_quiet(SimTime::from_secs(1));
        assert_eq!(pings(&mut sim), 1);
        let pongs = sim
            .actor::<Pinger, _>(NodeId::from_raw(1), |p| p.pongs)
            .unwrap();
        assert_eq!(pongs, 1);
        assert_eq!(sim.metrics().counter("net.sent"), 2);
        assert_eq!(sim.metrics().counter("net.delivered"), 2);
    }

    #[test]
    fn latency_is_applied() {
        let mut sim = ping_sim();
        sim.set_default_link(LinkConfig::new(SimDuration::from_millis(10)));
        sim.run_until_quiet(SimTime::from_secs(1));
        // start(0us) -> ping arrives at 10ms -> pong arrives at 20ms.
        assert_eq!(sim.now(), SimTime::from_millis(20));
    }

    #[test]
    fn set_drop_probability_keeps_the_default_links_latency_and_jitter() {
        let mut sim = ping_sim();
        let wan =
            LinkConfig::new(SimDuration::from_millis(40)).with_jitter(SimDuration::from_millis(10));
        sim.set_default_link(wan.clone());
        sim.set_drop_probability(0.25);
        assert_eq!(sim.link, wan.with_drop_probability(0.25));
    }

    #[test]
    fn downed_node_drops_messages() {
        let mut sim = ping_sim();
        sim.set_node_up(NodeId::from_raw(0), false);
        sim.run_until_quiet(SimTime::from_secs(1));
        assert_eq!(sim.metrics().counter("net.dropped"), 1);
        assert_eq!(pings(&mut sim), 0);
    }

    #[test]
    fn partitioned_nodes_cannot_talk() {
        let mut sim = ping_sim();
        sim.set_partition(NodeId::from_raw(1), 1);
        sim.run_until_quiet(SimTime::from_secs(1));
        assert_eq!(pings(&mut sim), 0);
        sim.heal_network();
        sim.with_actor::<Pinger, _>(NodeId::from_raw(1), |_, ctx| {
            ctx.send(NodeId::from_raw(0), "ping".into());
        });
        sim.run_until_quiet(SimTime::from_secs(2));
        assert_eq!(pings(&mut sim), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = Sim::new(seed);
            sim.set_default_link(
                LinkConfig::new(SimDuration::from_millis(1))
                    .with_jitter(SimDuration::from_millis(5)),
            );
            sim.add_node("echo", Echo::default());
            sim.add_node("pinger", Pinger::default());
            sim.run_until_quiet(SimTime::from_secs(1));
            sim.now()
        };
        assert_eq!(run(7), run(7));
    }

    /// Times two tags, 1 and 2 ms after each start, and records each
    /// as it comes due.
    #[derive(Default)]
    struct TimerActor {
        fired: Vec<u64>,
        due: Vec<(SimTime, u64)>,
    }
    impl Actor<String> for TimerActor {
        fn on_start(&mut self, ctx: &mut Ctx<'_, String>) {
            let now = ctx.now();
            self.due = vec![
                (now + SimDuration::from_millis(1), 1),
                (now + SimDuration::from_millis(2), 2),
            ];
        }
        fn on_message(&mut self, _: &mut Ctx<'_, String>, _: NodeId, _: String) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, String>) {
            let now = ctx.now();
            let fired = &mut self.fired;
            self.due.retain(|&(at, tag)| {
                at > now || {
                    fired.push(tag);
                    false
                }
            });
        }
        fn next_deadline(&self) -> Option<SimTime> {
            self.due.iter().map(|&(at, _)| at).min()
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim: Sim<String> = Sim::new(1);
        let id = sim.add_node("t", TimerActor::default());
        sim.run_until_quiet(SimTime::from_secs(1));
        assert_eq!(sim.actor::<TimerActor, _>(id, |t| t.fired.clone()).unwrap(), vec![1, 2]);
    }

    /// Counts its starts and runs one 10 ms tick chain from each.
    #[derive(Default)]
    struct Ticker {
        starts: u32,
        ticks: u32,
        next: Option<SimTime>,
    }
    impl Actor<String> for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, String>) {
            self.starts += 1;
            self.next = Some(ctx.now() + SimDuration::from_millis(10));
        }
        fn on_message(&mut self, _: &mut Ctx<'_, String>, _: NodeId, _: String) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, String>) {
            self.ticks += 1;
            self.next = Some(ctx.now() + SimDuration::from_millis(10));
        }
        fn next_deadline(&self) -> Option<SimTime> {
            self.next
        }
    }

    #[test]
    fn a_node_bounced_twice_in_one_instant_starts_once_and_ticks_once() {
        let mut sim: Sim<String> = Sim::new(1);
        let id = sim.add_node("t", Ticker::default());
        // Ticks at 10 and 20 ms; the chain's next tick is due at 30.
        sim.run_until(SimTime::from_millis(25));
        for up in [false, true, false, true] {
            sim.set_node_up(id, up);
        }
        // The restarted chain ticks at 35, 45, ..., 115 ms: nine times.
        // The old chain (30, 40, ...) and a second start would each add
        // as many again.
        sim.run_until(SimTime::from_millis(120));
        let (starts, ticks) = sim.actor::<Ticker, _>(id, |t| (t.starts, t.ticks)).unwrap();
        assert_eq!((starts, ticks), (2, 2 + 9));
    }

    #[test]
    fn inject_delivers_external_messages() {
        let mut sim = ping_sim();
        sim.run_until_quiet(SimTime::from_secs(1));
        sim.inject(NodeId::from_raw(1), NodeId::from_raw(0), "ping".into());
        sim.run_until_quiet(SimTime::from_secs(2));
        assert_eq!(pings(&mut sim), 2);
    }

    #[test]
    fn trace_records_deliveries() {
        let mut sim = ping_sim();
        sim.enable_trace();
        sim.run_until_quiet(SimTime::from_secs(1));
        assert_eq!(sim.trace().len(), 2);
        assert!(sim.trace()[0].summary.contains("ping"));
        assert!(sim.trace()[0].to_string().contains("->"));

        // Byte 157 of a long non-ASCII summary falls inside a character
        // for one parity of the ASCII padding: the cut backs off to the
        // nearest boundary instead of panicking.
        for pad in ["", "x"] {
            let msg = format!("{pad}{}", "é".repeat(120));
            sim.inject(NodeId::from_raw(1), NodeId::from_raw(0), msg);
            sim.run_until_quiet(SimTime::from_secs(2));
            let summary = &sim.trace().last().unwrap().summary;
            assert!(summary.ends_with("é..."), "{summary}");
            assert!((159..=160).contains(&summary.len()), "{summary}");
        }
    }

    #[test]
    fn wire_size_fn_enables_byte_accounting() {
        let mut sim = ping_sim();
        sim.set_wire_size_fn(|m: &String| m.len());
        sim.run_until_quiet(SimTime::from_secs(1));
        assert_eq!(sim.metrics().counter("net.bytes_sent"), 8); // "ping" + "pong"
    }

    #[test]
    fn node_lookup_by_name() {
        let sim = ping_sim();
        assert_eq!(sim.node_id("echo"), Some(NodeId::from_raw(0)));
        assert_eq!(sim.node_name(NodeId::from_raw(1)), "pinger");
        assert_eq!(sim.node_count(), 2);
        assert_eq!(sim.node_ids().count(), 2);
    }

    /// Forwards every message to the node named in it.
    #[derive(Default)]
    struct ByName {
        unknown: u32,
    }
    impl Actor<String> for ByName {
        fn on_message(&mut self, ctx: &mut Ctx<'_, String>, from: NodeId, msg: String) {
            match ctx.resolve(&msg) {
                Some(node) => ctx.send(node, format!("from {}", ctx.name_of(from))),
                None => self.unknown += 1,
            }
        }
    }

    #[test]
    fn ctx_lends_the_simulators_name_table() {
        let mut sim: Sim<String> = Sim::new(1);
        let router = sim.add_node("router", ByName::default());
        sim.run_until_quiet(SimTime::from_secs(1));
        // Added after the router started: visible on its next callback.
        let echo = sim.add_node("echo", Echo::default());
        sim.inject(echo, router, "echo".into());
        sim.inject(echo, router, "nobody".into());
        sim.run_until_quiet(SimTime::from_secs(2));
        let received = sim.actor::<Echo, _>(echo, |e| e.received.clone()).unwrap();
        assert_eq!(received, ["from echo"]);
        assert_eq!(sim.actor::<ByName, _>(router, |r| r.unknown), Some(1));
        assert_eq!(sim.metrics().counter("net.sent"), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_panic() {
        let mut sim: Sim<String> = Sim::new(1);
        sim.add_node("x", Echo::default());
        sim.add_node("x", Echo::default());
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim: Sim<String> = Sim::new(1);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn lossy_link_eventually_drops() {
        let mut sim: Sim<String> = Sim::new(3);
        sim.set_default_link(LinkConfig::lan().with_drop_probability(1.0));
        sim.add_node("echo", Echo::default());
        sim.add_node("pinger", Pinger::default());
        sim.run_until_quiet(SimTime::from_secs(1));
        assert_eq!(sim.metrics().counter("net.dropped"), 1);
        assert_eq!(sim.metrics().counter("net.delivered"), 0);
    }

    #[test]
    fn with_actor_wrong_type_returns_none() {
        let mut sim = ping_sim();
        let r = sim.with_actor::<TimerActor, _>(NodeId::from_raw(0), |_, _| 1);
        assert_eq!(r, None);
    }

    #[test]
    fn a_replaced_actor_is_built_from_the_old_one_and_restarts_on_the_next_up() {
        let mut sim: Sim<String> = Sim::new(1);
        let id = sim.add_node("t", TimerActor::default());
        sim.run_until_quiet(SimTime::from_secs(1));
        assert!(!sim.replace_actor::<Echo>(id, |echo| echo), "not an Echo");
        assert!(sim.replace_actor::<TimerActor>(id, |old| TimerActor {
            fired: old.fired.into_iter().map(|tag| tag * 10).collect(),
            due: old.due,
        }));
        sim.set_node_up(id, false);
        sim.set_node_up(id, true);
        sim.run_until_quiet(SimTime::from_secs(2));
        let fired = sim.actor::<TimerActor, _>(id, |t| t.fired.clone());
        assert_eq!(fired, Some(vec![10, 20, 1, 2]));
    }

    /// Reports the deadline a driver gives it, and records when each
    /// firing comes. On start it keeps a deadline it holds, or takes
    /// one 10 ms out.
    #[derive(Default)]
    struct Alarm {
        at: Option<SimTime>,
        fired: Vec<SimTime>,
    }
    impl Actor<String> for Alarm {
        fn on_start(&mut self, ctx: &mut Ctx<'_, String>) {
            let later = ctx.now() + SimDuration::from_millis(10);
            self.at.get_or_insert(later);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, String>, _: NodeId, _: String) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, String>) {
            self.fired.push(ctx.now());
            self.at = None;
        }
        fn next_deadline(&self) -> Option<SimTime> {
            self.at
        }
    }

    /// An alarm started, its deadline 10 ms out, then moved by the
    /// driver through each of `moves` in turn.
    fn alarm(moves: &[Option<SimTime>]) -> (Sim<String>, NodeId) {
        let mut sim: Sim<String> = Sim::new(1);
        let id = sim.add_node("alarm", Alarm::default());
        assert!(sim.step(), "the start");
        for &at in moves {
            sim.with_actor::<Alarm, _>(id, |alarm, _| alarm.at = at);
        }
        (sim, id)
    }

    fn fired(sim: &mut Sim<String>, id: NodeId) -> Vec<SimTime> {
        sim.actor::<Alarm, _>(id, |a| a.fired.clone()).unwrap()
    }

    #[test]
    fn a_deadline_moved_earlier_fires_once_at_the_earlier_instant() {
        let (mut sim, id) = alarm(&[Some(SimTime::from_millis(4))]);
        sim.run_until_quiet(SimTime::from_secs(1));
        assert_eq!(fired(&mut sim, id), [SimTime::from_millis(4)]);
    }

    #[test]
    fn a_deadline_moved_later_fires_once_at_the_later_instant() {
        let (mut sim, id) = alarm(&[Some(SimTime::from_millis(30))]);
        sim.run_until_quiet(SimTime::from_secs(1));
        assert_eq!(fired(&mut sim, id), [SimTime::from_millis(30)]);
    }

    #[test]
    fn a_withdrawn_deadline_never_fires() {
        let (mut sim, id) = alarm(&[None]);
        sim.run_until_quiet(SimTime::from_secs(1));
        assert_eq!(fired(&mut sim, id), []);
    }

    #[test]
    fn a_dropped_entry_is_not_a_step() {
        // Entries at 10, 4 and 6 ms are queued; only the last is the
        // node's.
        let moves = [Some(SimTime::from_millis(4)), Some(SimTime::from_millis(6))];
        let (mut sim, id) = alarm(&moves);
        assert_eq!(sim.pending(), 3);
        assert_eq!(sim.run_until_quiet(SimTime::from_secs(1)), 1);
        assert_eq!(sim.now(), SimTime::from_millis(6));
        assert!(!sim.step(), "the entry at 10 ms is dropped, not stepped");
        assert_eq!(sim.pending(), 0);
        assert_eq!(fired(&mut sim, id), [SimTime::from_millis(6)]);
    }

    #[test]
    fn a_downed_node_loses_its_timer_and_its_restart_sets_one() {
        // Back before its deadline: the unchanged deadline still fires,
        // once.
        let mut sim: Sim<String> = Sim::new(1);
        let id = sim.add_node("alarm", Alarm::default());
        sim.run_until(SimTime::from_millis(5));
        sim.set_node_up(id, false);
        sim.run_until(SimTime::from_millis(7));
        sim.set_node_up(id, true);
        sim.run_until_quiet(SimTime::from_secs(1));
        assert_eq!(fired(&mut sim, id), [SimTime::from_millis(10)]);

        // Down across its deadline: nothing fires while it is down, and
        // the deadline, past by then, fires at the restart.
        let mut sim: Sim<String> = Sim::new(1);
        let id = sim.add_node("alarm", Alarm::default());
        sim.run_until(SimTime::from_millis(5));
        sim.set_node_up(id, false);
        sim.run_until(SimTime::from_millis(15));
        assert_eq!(fired(&mut sim, id), []);
        sim.set_node_up(id, true);
        sim.run_until_quiet(SimTime::from_secs(1));
        assert_eq!(fired(&mut sim, id), [SimTime::from_millis(15)]);
    }

    /// Logs every message and firing; each message asks for a firing in
    /// the same instant, as the per-edge batcher does.
    #[derive(Default)]
    struct Flusher {
        log: Vec<String>,
        due: Option<SimTime>,
    }
    impl Actor<String> for Flusher {
        fn on_message(&mut self, ctx: &mut Ctx<'_, String>, _: NodeId, msg: String) {
            self.log.push(msg);
            self.due = Some(ctx.now());
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, String>) {
            self.log.push("flush".into());
            self.due = None;
        }
        fn next_deadline(&self) -> Option<SimTime> {
            self.due
        }
    }

    #[test]
    fn an_unchanged_deadline_keeps_its_place_behind_what_its_instant_had_queued() {
        let mut sim: Sim<String> = Sim::new(1);
        let id = sim.add_node("f", Flusher::default());
        sim.run_until_quiet(SimTime::ZERO);
        sim.inject(id, id, "m1".into());
        sim.inject(id, id, "m2".into());
        assert!(sim.step(), "m1");
        // Queued behind the timer m1 asked for. m2 leaves the deadline
        // as it was, so the timer keeps its place: behind m2, and ahead
        // of x.
        sim.inject(id, id, "x".into());
        sim.run_until_quiet(SimTime::ZERO);
        let log = sim.actor::<Flusher, _>(id, |f| f.log.clone()).unwrap();
        assert_eq!(log, ["m1", "m2", "flush", "x", "flush"]);
    }
}
