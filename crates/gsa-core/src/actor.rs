//! Simulation actors: adapters from the sans-IO state machines to
//! `gsa-simnet`.
//!
//! An actor carries only what is the transport's — its edge transport
//! (`transport.rs`: batch buffers sized by the deployment's wire, the
//! reliable envelope) and the deadlines of its periodic work. Names and
//! counters pass through it without being kept: a host name resolves in the
//! simulator's own name table, lent through [`Ctx::resolve`] /
//! [`Ctx::name_of`] for the length of a callback (the name ↔ node
//! relation exists once per world, so there is no copy to keep in
//! step), and whatever a state machine counted arrives as one
//! [`Counts`], drained into the metrics with one loop.

use crate::core::{AlertingCore, CoreEffects};
use crate::message::SysMessage;
use crate::transport::{EdgeTransport, Received};
use gsa_gds::{GdsEffects, GdsMessage, GdsNode, GdsOutbound};
use gsa_simnet::{Actor, CounterId, Ctx, NodeId};
use gsa_types::{Counts, HostName, SimDuration, SimTime};
use gsa_wire::reliable::RetryPolicy;
use gsa_wire::WireFormat;
use std::sync::Arc;

/// Surfaces what a state machine counted as simulation metrics.
fn drain_counts(counts: &mut Counts, ctx: &mut Ctx<'_, SysMessage>) {
    for (id, n) in counts.drain() {
        ctx.count_id(id, n);
    }
}

/// The host name the simulator knows `node` by (a reference-count bump
/// on the simulator's own string).
fn host_of(ctx: &Ctx<'_, SysMessage>, node: NodeId) -> HostName {
    HostName::new(ctx.name_of(node).clone())
}

/// How long a GDS node sits on a dirty aggregate before announcing it
/// upward: long enough to coalesce a registration burst arriving in one
/// actor frame, short against the beacon re-announce cadence.
const ANNOUNCE_DELAY: SimDuration = SimDuration::from_millis(1);

/// How often a server runs its maintenance: auxiliary retries, request
/// timeouts and alert-lifecycle expiry.
const MAINTENANCE_TICK: SimDuration = SimDuration::from_millis(500);

/// How a reliable edge retransmits an unacknowledged GDS message: after
/// 500 ms, doubling to 4 s, ± 20 % jitter, until it is acknowledged.
pub(crate) const GDS_RETRY: RetryPolicy = RetryPolicy {
    base: SimDuration::from_millis(500),
    multiplier: 2.0,
    max_interval: SimDuration::from_secs(4),
    jitter: 0.2,
};

/// How often a reliable directory node beacons each of its children
/// (a [`GdsMessage::HeartbeatAck`], unprompted) and counts whether its
/// own parent's beacon came: one liveness frame per edge per interval.
const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Consecutive intervals without a beacon that declare the parent dead
/// (≈ 3 s), after which the node re-parents to its grandparent.
const HEARTBEAT_MISSES: u32 = 3;

/// A binary-wire edge flushes its buffer as soon as it holds this many
/// events; otherwise at the end of the instant.
pub(crate) const BATCH_MAX_EVENTS: usize = 16;

/// The argument of [`WireConfig::v2_batched`]; it switches nothing,
/// since [`WireConfig::v2`] always batches. Kept, with [`WireConfig`]
/// and [`ReliabilityConfig`], only as an argument of `System`'s `set_*`
/// wrappers; a deployment is a [`SystemConfig`](crate::SystemConfig).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchConfig;

/// The argument of [`System::set_wire`](crate::System::set_wire): the
/// format of [`SystemConfig::wire`](crate::SystemConfig::wire).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireConfig {
    /// The format of every GDS frame.
    pub format: WireFormat,
}

impl WireConfig {
    /// Version-2 wire format, with per-edge event batching.
    pub fn v2() -> Self {
        WireConfig {
            format: WireFormat::Binary,
        }
    }

    /// An alias of [`WireConfig::v2`], which always batches.
    pub fn v2_batched(_: BatchConfig) -> Self {
        Self::v2()
    }
}

/// The argument of
/// [`System::set_reliability`](crate::System::set_reliability), which
/// turns [`SystemConfig::reliable`](crate::SystemConfig::reliable) on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReliabilityConfig;

/// The simulation actor wrapping an [`AlertingCore`].
#[derive(Debug)]
pub struct AlertingActor {
    pub(crate) core: AlertingCore,
    edge: EdgeTransport,
    /// When the next maintenance tick is due, once started.
    next_tick: Option<SimTime>,
    /// Locally-initiated distributed fetches that completed (taken by
    /// the [`System`](crate::System) driver).
    pub completed_fetches: Vec<(gsa_greenstone::RequestId, gsa_greenstone::server::FetchResult)>,
    /// Locally-initiated distributed searches that completed.
    pub completed_searches: Vec<(gsa_greenstone::RequestId, gsa_greenstone::server::SearchResult)>,
    /// Naming-service answers that arrived.
    pub resolved: Vec<(gsa_gds::ResolveToken, Option<HostName>)>,
}

impl AlertingActor {
    /// Wraps a core on the deployment's `wire`. With a `reliable` seed,
    /// which derives the retransmission jitter, this host's GDS-bound
    /// traffic (registration, publishes, resolves) rides the reliable
    /// envelope.
    pub fn new(core: AlertingCore, wire: WireFormat, reliable: Option<u64>) -> Self {
        AlertingActor {
            core,
            edge: EdgeTransport::new(wire, reliable),
            next_tick: None,
            completed_fetches: Vec::new(),
            completed_searches: Vec::new(),
            resolved: Vec::new(),
        }
    }

    /// The wrapped core.
    pub fn core(&self) -> &AlertingCore {
        &self.core
    }

    /// Mutable access to the wrapped core. Use
    /// [`AlertingActor::apply`] to transmit the effects of any call made
    /// through this.
    pub fn core_mut(&mut self) -> &mut AlertingCore {
        &mut self.core
    }

    /// Transmits a [`CoreEffects`]' outbound messages through the
    /// simulator context, stores request completions, and records metrics
    /// counters.
    pub fn apply(&mut self, effects: CoreEffects, ctx: &mut Ctx<'_, SysMessage>) {
        if effects.notified > 0 {
            ctx.count_id(CounterId::ALERT_NOTIFICATIONS, effects.notified as u64);
        }
        if effects.published > 0 {
            ctx.count_id(CounterId::ALERT_EVENTS_PUBLISHED, effects.published as u64);
        }
        drain_counts(self.core.counts_mut(), ctx);
        self.completed_fetches.extend(effects.fetches);
        self.completed_searches.extend(effects.searches);
        self.resolved.extend(effects.resolved);
        for (to, msg) in effects.outbound {
            let Some(node) = ctx.resolve(to.as_str()) else {
                ctx.count_id(CounterId::ALERT_UNKNOWN_HOST, 1);
                continue;
            };
            match msg {
                SysMessage::Gds(m) => self.edge.send(ctx, node, m),
                msg => ctx.send(node, msg),
            }
        }
    }
}

impl Actor<SysMessage> for AlertingActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        let effects = self.core.startup(ctx.now());
        self.apply(effects, ctx);
        self.next_tick = Some(ctx.now() + MAINTENANCE_TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SysMessage>, from: NodeId, msg: SysMessage) {
        let msg = match self.edge.receive(ctx, from, msg) {
            Received::Gds(m) => SysMessage::Gds(m),
            Received::Gs(frame) => frame,
            Received::Consumed => return,
        };
        let effects = self.core.handle_message(&host_of(ctx, from), msg, ctx.now());
        self.apply(effects, ctx);
    }

    /// The maintenance tick, then the transport's machines, each when
    /// due.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        let now = ctx.now();
        debug_assert!(
            self.next_deadline().is_some_and(|at| at <= now),
            "nothing due"
        );
        if self.next_tick.is_some_and(|at| at <= now) {
            self.next_tick = Some(now + MAINTENANCE_TICK);
            let effects = self.core.on_tick(now);
            self.apply(effects, ctx);
        }
        self.edge.on_timer(ctx);
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.next_tick
            .into_iter()
            .chain(self.edge.next_deadline())
            .min()
    }
}

/// The failure detector of one reliable [`GdsActor`]: the parent
/// beacons every [`HEARTBEAT_INTERVAL`], and the child counts the
/// intervals in which none came. The child sends nothing for it.
#[derive(Debug)]
struct FailureDetector {
    /// The fallback attachment point recorded at join time (the
    /// grandparent); consumed by one re-parenting.
    grandparent: Option<HostName>,
    /// A beacon from the parent arrived since the last tick. Set at
    /// start and after a re-parenting, so a parent has a whole interval
    /// before its silence counts.
    heard: bool,
    /// Consecutive intervals without a beacon.
    misses: u32,
}

/// The simulation actor wrapping a [`GdsNode`].
#[derive(Debug)]
pub struct GdsActor {
    node: GdsNode,
    edge: EdgeTransport,
    detector: Option<FailureDetector>,
    /// Reused effects buffer for the per-message hot path; capacity
    /// survives between frames so steady-state handling allocates
    /// nothing.
    scratch: GdsEffects,
    /// Reused legs of the flood run being sent: each edge and its frame.
    legs: Vec<(NodeId, Arc<[GdsMessage]>)>,
    /// When the next liveness tick is due (reliability on, once
    /// started).
    next_beat: Option<SimTime>,
    /// When the deferred announcement is due: `ANNOUNCE_DELAY` after it
    /// became pending.
    announce_due: Option<SimTime>,
}

impl GdsActor {
    /// Wraps a directory-server node on the deployment's `wire`; a v2
    /// node also freezes flood payloads at the origin (encode-once
    /// forwarding). Without `reliable`, hops are best-effort and there is
    /// no failure detector (the paper's §6 behaviour). With it, edges are
    /// reliable and the node beacons its children and watches its
    /// parent: `reliable` is the grandparent it re-parents to when the
    /// parent is declared dead, and the seed of the retransmission jitter.
    pub fn new(
        mut node: GdsNode,
        wire: WireFormat,
        reliable: Option<(Option<HostName>, u64)>,
    ) -> Self {
        node.set_encode_once(wire == WireFormat::Binary);
        GdsActor {
            node,
            edge: EdgeTransport::new(wire, reliable.as_ref().map(|&(_, seed)| seed)),
            detector: reliable.map(|(grandparent, _)| FailureDetector {
                grandparent,
                heard: true,
                misses: 0,
            }),
            scratch: GdsEffects::default(),
            legs: Vec::new(),
            next_beat: None,
            announce_due: None,
        }
    }

    /// The wrapped node.
    pub fn node(&self) -> &GdsNode {
        &self.node
    }

    /// Runs `f` on the node into the reused effects buffer and transmits
    /// what it produced. The buffer goes back with its capacity intact,
    /// so steady-state handling allocates nothing.
    fn step(&mut self, ctx: &mut Ctx<'_, SysMessage>, f: impl FnOnce(&mut GdsNode, &mut GdsEffects)) {
        let mut effects = std::mem::take(&mut self.scratch);
        effects.clear();
        f(&mut self.node, &mut effects);
        if !effects.undeliverable.is_empty() {
            ctx.count_id(CounterId::GDS_UNDELIVERABLE, effects.undeliverable.len() as u64);
        }
        drain_counts(self.node.counts_mut(), ctx);
        if self.node.announce_pending() {
            self.announce_due.get_or_insert(ctx.now() + ANNOUNCE_DELAY);
        }
        let mut outbound = effects.outbound.drain(..);
        let mut sent = 0;
        let mut legs = std::mem::take(&mut self.legs);
        for run in effects.runs.drain(..) {
            for out in outbound.by_ref().take(run.start - sent) {
                self.send_one(ctx, out);
            }
            legs.clear();
            for out in outbound.by_ref().take(run.len()) {
                let GdsMessage::Batch(frame) = out.msg else {
                    unreachable!("a run's entries are frames");
                };
                match ctx.resolve(out.to.as_str()) {
                    Some(node) => legs.push((node, frame)),
                    None => ctx.count_id(CounterId::GDS_UNKNOWN_HOST, frame.len() as u64),
                }
            }
            self.edge.send_run(ctx, &legs);
            sent = run.end;
        }
        legs.clear();
        self.legs = legs;
        for out in outbound {
            self.send_one(ctx, out);
        }
        self.scratch = effects;
    }

    fn send_one(&mut self, ctx: &mut Ctx<'_, SysMessage>, out: GdsOutbound) {
        match ctx.resolve(out.to.as_str()) {
            Some(node) => self.edge.send(ctx, node, out.msg),
            None => ctx.count_id(CounterId::GDS_UNKNOWN_HOST, 1),
        }
    }

    /// The liveness tick: count an interval without the parent's
    /// beacon as a miss, re-parent when the detector trips, and beacon
    /// every child.
    fn heartbeat_tick(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        let Some(detector) = self.detector.as_mut() else {
            return;
        };
        self.next_beat = Some(ctx.now() + HEARTBEAT_INTERVAL);
        if self.node.parent().is_some() {
            if !std::mem::replace(&mut detector.heard, false) {
                detector.misses += 1;
            }
            if detector.misses >= HEARTBEAT_MISSES && detector.grandparent.is_some() {
                self.reparent(ctx);
            }
        }
        self.step(ctx, |node, effects| node.beacons(effects));
    }

    /// Re-attaches the whole subtree to the grandparent recorded at join
    /// time ([`GdsNode::reparent`]), all over reliable edges so the moves
    /// survive further loss.
    fn reparent(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        let Some(detector) = self.detector.as_mut() else {
            return;
        };
        let Some(new_parent) = detector.grandparent.take() else {
            return;
        };
        detector.misses = 0;
        detector.heard = true;
        ctx.count_id(CounterId::GDS_REPARENT, 1);
        self.step(ctx, |node, effects| node.reparent(new_parent, effects));
    }
}

impl Actor<SysMessage> for GdsActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        if self.detector.is_some() {
            self.next_beat = Some(ctx.now() + HEARTBEAT_INTERVAL);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SysMessage>, from: NodeId, msg: SysMessage) {
        let msg = match self.edge.receive(ctx, from, msg) {
            Received::Gds(m) => m,
            Received::Gs(_) => {
                ctx.count_id(CounterId::GDS_NON_GDS_MESSAGE, 1);
                return;
            }
            Received::Consumed => return,
        };
        if let GdsMessage::HeartbeatAck { version } = msg {
            // Only the parent's beacon counts: an old parent that has
            // not yet heard of a re-parenting still beacons.
            if self.node.parent() != Some(&host_of(ctx, from)) {
                return;
            }
            if let Some(detector) = &mut self.detector {
                detector.heard = true;
                detector.misses = 0;
            }
            // The summary heal rides the beacon cadence: an update that
            // was lost, or a parent that forgot us, shows as a held
            // version that is behind (or none).
            if let Some(out) = self.node.summary_refresh(version) {
                self.step(ctx, |_, effects| effects.outbound.push(out));
            }
            return;
        }
        ctx.count_id(CounterId::GDS_MESSAGES, 1);
        if let GdsMessage::Batch(ref items) = msg {
            ctx.count_id(CounterId::WIRE_BATCH_RECEIVED, items.len() as u64);
        }
        let from = host_of(ctx, from);
        self.step(ctx, |node, effects| node.handle_message_into(&from, msg, effects));
    }

    /// The liveness tick, the deferred announcement, then the
    /// transport's machines, each when due.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        let now = ctx.now();
        debug_assert!(
            self.next_deadline().is_some_and(|at| at <= now),
            "nothing due"
        );
        if self.next_beat.is_some_and(|at| at <= now) {
            self.heartbeat_tick(ctx);
        }
        if self.announce_due.is_some_and(|at| at <= now) {
            self.announce_due = None;
            if let Some(out) = self.node.flush_deferred_announcement() {
                self.step(ctx, |_, effects| effects.outbound.push(out));
            }
        }
        self.edge.on_timer(ctx);
    }

    fn next_deadline(&self) -> Option<SimTime> {
        [self.next_beat, self.announce_due, self.edge.next_deadline()]
            .into_iter()
            .flatten()
            .min()
    }
}
