//! Simulation actors: adapters from the sans-IO state machines to
//! `gsa-simnet`.
//!
//! An actor carries only what is the transport's — its edge transport
//! (`transport.rs`: batch buffers sized by the deployment's wire, the
//! reliable envelope) and its timers. Names and
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
use gsa_types::{Counts, HostName, SimDuration};
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

/// Timer tag for the periodic maintenance tick.
const TICK_TAG: u64 = 1;
/// Timer tag for the reliable link's loss timer (reliability on).
pub(crate) const LOSS_TAG: u64 = 2;
/// Timer tag for the liveness tick: beacons to the children, the
/// parent's silence counted (reliability on).
const HEARTBEAT_TAG: u64 = 3;
/// Timer tag for the per-edge batch flush (binary wire).
pub(crate) const BATCH_TAG: u64 = 4;
/// Timer tag for the coalesced summary-announcement flush (pruning on).
const ANNOUNCE_TAG: u64 = 5;
/// Timer tag for the coalesced acknowledgement flush.
pub(crate) const ACK_TAG: u64 = 6;

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
/// since [`WireConfig::v2`] always batches. Kept for callers that still
/// name it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchConfig;

/// Deployment-wide wire-protocol configuration: the format every edge
/// speaks.
///
/// The default — XML — reproduces the paper's XML-over-SOAP behaviour
/// exactly, frame for frame. [`WireConfig::v2`] puts every edge on the
/// binary codec from its first frame, and batches the frames that carry
/// events per edge: buffered per neighbour and flushed as one
/// [`GdsMessage::Batch`] frame at 16 events or at the end of the instant
/// they were sent in, whichever comes first, so a lone event waits for
/// no clock. The format is a fact of the deployment, not negotiated per
/// edge: a tree whose hosts speak different formats is not supported.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireConfig {
    /// The format of every GDS frame: XML text (version 1, the paper's
    /// §6 protocol) or the length-prefixed binary codec (version 2).
    pub format: WireFormat,
}

impl WireConfig {
    /// Version-2 wire format, with per-edge event batching.
    pub fn v2() -> Self {
        WireConfig {
            format: WireFormat::Binary,
        }
    }

    /// The most events one frame carries: [`BATCH_MAX_EVENTS`] on the
    /// binary wire, one on the paper's XML, which has no `gds:batch`.
    pub(crate) fn batch_cap(&self) -> usize {
        match self.format {
            WireFormat::Binary => BATCH_MAX_EVENTS,
            WireFormat::Xml => 1,
        }
    }

    /// An alias of [`WireConfig::v2`], which always batches.
    pub fn v2_batched(_: BatchConfig) -> Self {
        Self::v2()
    }
}

/// Turns on the per-hop reliability layer
/// ([`System::set_reliability`](crate::System::set_reliability)): GDS
/// traffic acknowledged within
/// [`ACK_DELAY`](gsa_wire::reliable::ACK_DELAY) and retransmitted until
/// acknowledged (RACK-TLP loss detection over 500 ms doubling to 4 s,
/// ± 20 %), and the failure detector that drives tree self-healing
/// (every parent beacons each child once a second; a child declares its
/// parent dead after 3 silent intervals).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReliabilityConfig;

/// The simulation actor wrapping an [`AlertingCore`].
#[derive(Debug)]
pub struct AlertingActor {
    pub(crate) core: AlertingCore,
    edge: EdgeTransport,
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
    pub fn new(core: AlertingCore, wire: &WireConfig, reliable: Option<u64>) -> Self {
        AlertingActor {
            core,
            edge: EdgeTransport::new(wire, reliable),
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
        self.edge.start(ctx);
        ctx.set_timer(MAINTENANCE_TICK, TICK_TAG);
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

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SysMessage>, tag: u64) {
        if tag == TICK_TAG {
            let effects = self.core.on_tick(ctx.now());
            self.apply(effects, ctx);
            ctx.set_timer(MAINTENANCE_TICK, TICK_TAG);
        } else {
            self.edge.on_timer(ctx, tag);
        }
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
    /// An `ANNOUNCE_TAG` timer is outstanding (deferred announcements).
    announce_armed: bool,
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
        wire: &WireConfig,
        reliable: Option<(Option<HostName>, u64)>,
    ) -> Self {
        node.set_encode_once(wire.format == WireFormat::Binary);
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
            announce_armed: false,
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
        self.arm_announce(ctx);
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

    /// Sets the `ANNOUNCE_TAG` timer when a deferred announcement waits
    /// and none is outstanding.
    fn arm_announce(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        if self.node.announce_pending() && !self.announce_armed {
            self.announce_armed = true;
            ctx.set_timer(ANNOUNCE_DELAY, ANNOUNCE_TAG);
        }
    }

    /// The liveness-timer body: count an interval without the parent's
    /// beacon as a miss, re-parent when the detector trips, and beacon
    /// every child.
    fn heartbeat_tick(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        let Some(detector) = self.detector.as_mut() else {
            return;
        };
        if self.node.parent().is_some() {
            if !std::mem::replace(&mut detector.heard, false) {
                detector.misses += 1;
            }
            if detector.misses >= HEARTBEAT_MISSES && detector.grandparent.is_some() {
                self.reparent(ctx);
            }
        }
        self.step(ctx, |node, effects| node.beacons(effects));
        ctx.set_timer(HEARTBEAT_INTERVAL, HEARTBEAT_TAG);
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
        self.edge.start(ctx);
        if self.detector.is_some() {
            ctx.set_timer(HEARTBEAT_INTERVAL, HEARTBEAT_TAG);
        }
        // As for the transport's flush timer: an announce timer set
        // before the node went down is gone, and the aggregate it was
        // to announce is still dirty.
        self.announce_armed = false;
        self.arm_announce(ctx);
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

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SysMessage>, tag: u64) {
        match tag {
            HEARTBEAT_TAG => self.heartbeat_tick(ctx),
            ANNOUNCE_TAG => {
                self.announce_armed = false;
                if let Some(out) = self.node.flush_deferred_announcement() {
                    self.step(ctx, |_, effects| effects.outbound.push(out));
                }
            }
            tag => self.edge.on_timer(ctx, tag),
        }
    }
}
