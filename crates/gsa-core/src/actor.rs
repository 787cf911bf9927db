//! Simulation actors: adapters from the sans-IO state machines to
//! `gsa-simnet`.

use crate::core::{AlertingCore, CoreEffects};
use crate::message::SysMessage;
use gsa_gds::{GdsEffects, GdsMessage, GdsNode, GdsOutbound};
use gsa_simnet::metrics::{names as metric, CounterId};
use gsa_simnet::{Actor, Ctx, NodeId, TimerId};
use gsa_types::{FxHashMap, HostName, SimDuration};
use gsa_wire::reliable::{Reliable, RetransmitQueue, RetryPolicy};
use gsa_wire::WireFormat;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared host-name → node-id directory, the simulation's stand-in for
/// IP routing. Populated by [`System`](crate::System) as nodes are added.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    inner: Arc<RwLock<DirectoryInner>>,
    /// Bumped on every [`Directory::insert`]; lets per-actor caches
    /// detect staleness with one atomic load instead of taking the
    /// read lock on every message.
    version: Arc<AtomicU64>,
}

#[derive(Debug, Default)]
struct DirectoryInner {
    by_name: HashMap<HostName, NodeId>,
    by_node: HashMap<NodeId, HostName>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Registers a host name for a node.
    pub fn insert(&self, name: HostName, node: NodeId) {
        let mut inner = self.inner.write();
        inner.by_name.insert(name.clone(), node);
        inner.by_node.insert(node, name);
        // Bumped while the write lock is held, so a reader that
        // observes the new version and then takes the read lock is
        // guaranteed to see the insert.
        self.version.fetch_add(1, Ordering::Release);
    }

    /// The current change counter; advances on every insert.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Copies the current contents into a cache's tables.
    fn snapshot_into(
        &self,
        by_name: &mut FxHashMap<HostName, NodeId>,
        by_node: &mut Vec<Option<HostName>>,
    ) {
        let inner = self.inner.read();
        by_name.clear();
        by_node.clear();
        for (name, node) in &inner.by_name {
            by_name.insert(name.clone(), *node);
        }
        for (node, name) in &inner.by_node {
            let idx = node.as_u32() as usize;
            if by_node.len() <= idx {
                by_node.resize(idx + 1, None);
            }
            by_node[idx] = Some(name.clone());
        }
    }

    /// Resolves a host name to its node.
    pub fn lookup(&self, name: &HostName) -> Option<NodeId> {
        self.inner.read().by_name.get(name).copied()
    }

    /// Reverse lookup: the host name of a node.
    pub fn name_of(&self, node: NodeId) -> Option<HostName> {
        self.inner.read().by_node.get(&node).cloned()
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.inner.read().by_name.len()
    }

    /// Returns `true` when no names are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A per-actor snapshot of the shared [`Directory`], refreshed only
/// when the directory's change counter moves. The directory is
/// insert-only and effectively frozen once a topology is built, so the
/// per-message name↔node translations hit these local tables — no lock,
/// no SipHash — after the first message following any change.
#[derive(Debug, Default)]
struct DirectoryCache {
    /// Directory version the tables were copied at.
    version: u64,
    by_name: FxHashMap<HostName, NodeId>,
    by_node: Vec<Option<HostName>>,
}

impl DirectoryCache {
    /// Refreshes the tables when the directory has changed since the
    /// last call.
    fn sync(&mut self, directory: &Directory) {
        let version = directory.version();
        if version != self.version {
            directory.snapshot_into(&mut self.by_name, &mut self.by_node);
            self.version = version;
        }
    }

    /// Cached equivalent of [`Directory::lookup`].
    fn lookup(&mut self, directory: &Directory, name: &HostName) -> Option<NodeId> {
        self.sync(directory);
        self.by_name.get(name).copied()
    }

    /// Cached equivalent of [`Directory::name_of`].
    fn name_of(&mut self, directory: &Directory, node: NodeId) -> Option<&HostName> {
        self.sync(directory);
        self.by_node.get(node.as_u32() as usize).and_then(Option::as_ref)
    }
}

/// Timer tag for the periodic maintenance tick.
const TICK_TAG: u64 = 1;
/// Timer tag for the retransmission-queue poll (reliability on).
const RELIABLE_TAG: u64 = 2;
/// Timer tag for the child→parent heartbeat (reliability on).
const HEARTBEAT_TAG: u64 = 3;
/// Timer tag for the per-edge batch flush (batching on).
const BATCH_TAG: u64 = 4;
/// Timer tag for the coalesced summary-announcement flush (pruning on).
const ANNOUNCE_TAG: u64 = 5;

/// How long a GDS node sits on a dirty aggregate before announcing it
/// upward: long enough to coalesce a registration burst arriving in one
/// actor frame, short against the heartbeat re-announce cadence.
const ANNOUNCE_DELAY: SimDuration = SimDuration::from_millis(1);

/// Tunables of the per-edge event batcher: flood traffic buffered per
/// neighbour and flushed as one [`GdsMessage::Batch`] frame when either
/// bound is hit.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Flush an edge's buffer as soon as it holds this many events.
    pub max_events: usize,
    /// Flush all buffers this long after the first event was queued.
    pub max_delay: SimDuration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_events: 8,
            max_delay: SimDuration::from_millis(2),
        }
    }
}

/// Per-host wire-protocol configuration: which format version the host
/// speaks and whether flood traffic is batched per edge.
///
/// The default — version 1, no batching — reproduces the paper's
/// XML-over-SOAP behaviour exactly, frame for frame. Version 2 hosts
/// announce themselves with a [`GdsMessage::Hello`] exchange and switch
/// an edge to the binary codec only once the peer has proven it
/// understands it, so mixed-version trees interoperate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireConfig {
    /// Highest wire-format version this host speaks. Version 1 is the
    /// XML text protocol; version 2 adds the length-prefixed binary
    /// codec and per-edge negotiation.
    pub version: WireVersion,
    /// Per-edge event batching; `None` (the default) sends every flood
    /// message as its own frame, preserving the paper's message counts.
    pub batch: Option<BatchConfig>,
}

/// Wire-format versions a host can be configured to speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireVersion {
    /// XML messaging over SOAP-style envelopes (the paper's §6 format).
    #[default]
    V1,
    /// Negotiated length-prefixed binary framing with XML fallback.
    V2,
}

impl WireConfig {
    /// Version-2 wire format, batching off.
    pub fn v2() -> Self {
        WireConfig {
            version: WireVersion::V2,
            batch: None,
        }
    }

    /// Version-2 wire format with per-edge batching.
    pub fn v2_batched(batch: BatchConfig) -> Self {
        WireConfig {
            version: WireVersion::V2,
            batch: Some(batch),
        }
    }

    fn speaks_v2(&self) -> bool {
        self.version == WireVersion::V2
    }
}

/// Messages eligible for per-edge batching: only the flood-path frames
/// (broadcast forwarding and final delivery). Control traffic —
/// registrations, resolves, topology changes — always rides alone so
/// its latency and ordering stay untouched.
fn batchable(msg: &GdsMessage) -> bool {
    matches!(
        msg,
        GdsMessage::Broadcast { .. } | GdsMessage::Deliver { .. }
    )
}

/// One actor's view of the wire protocol: the negotiated format per
/// neighbour and the per-edge batch buffers.
#[derive(Debug)]
struct WireLink {
    config: WireConfig,
    /// Edges proven (via hello/hello-ack) to understand the binary
    /// codec. Absent edges ride XML — always safe. Insert/probe only,
    /// so the fast hasher cannot leak an order into behaviour.
    peer_fmt: FxHashMap<NodeId, WireFormat>,
    /// Per-edge buffered flood messages awaiting a flush.
    pending: HashMap<NodeId, Vec<GdsMessage>>,
    /// A `BATCH_TAG` timer is outstanding.
    timer_armed: bool,
}

impl WireLink {
    fn new(config: WireConfig) -> Self {
        WireLink {
            config,
            peer_fmt: FxHashMap::default(),
            pending: HashMap::new(),
            timer_armed: false,
        }
    }

    /// The format negotiated for an edge; XML until proven otherwise.
    fn fmt_for(&self, node: NodeId) -> WireFormat {
        self.peer_fmt.get(&node).copied().unwrap_or(WireFormat::Xml)
    }

    /// Whether a peer's announced version upgrades the edge, given our
    /// own configuration.
    fn accepts(&self, version: u8) -> bool {
        self.config.speaks_v2() && version >= 2
    }

    fn record_peer_v2(&mut self, node: NodeId) {
        self.peer_fmt.insert(node, WireFormat::Binary);
    }

    /// The hello announcement this host sends on tree edges, if any.
    fn hello(&self) -> Option<GdsMessage> {
        self.config
            .speaks_v2()
            .then_some(GdsMessage::Hello { version: 2 })
    }

    /// Queues or sends one data message on an edge. Batchable flood
    /// traffic on a negotiated binary edge is buffered (when batching
    /// is on) and flushed by size or by the `BATCH_TAG` timer;
    /// everything else goes out immediately in the edge's format.
    fn dispatch(
        &mut self,
        ctx: &mut Ctx<'_, SysMessage>,
        node: NodeId,
        msg: GdsMessage,
        link: Option<&mut ReliableLink>,
    ) {
        let fmt = self.fmt_for(node);
        let batch = match &self.config.batch {
            // Only binary edges batch: a v1 peer has no gds:batch tag.
            Some(b) if fmt == WireFormat::Binary && batchable(&msg) => b,
            _ => return send_data(ctx, node, fmt, msg, link),
        };
        let max_events = batch.max_events.max(1);
        let max_delay = batch.max_delay;
        let buf = self.pending.entry(node).or_default();
        buf.push(msg);
        if buf.len() >= max_events {
            self.flush_edge(ctx, node, link);
        } else if !self.timer_armed {
            ctx.set_timer(max_delay, BATCH_TAG);
            self.timer_armed = true;
        }
    }

    /// Flushes one edge's buffer: a single message rides plain, more
    /// coalesce into one [`GdsMessage::Batch`] frame (one sequence
    /// number, one ack, when the edge is reliable).
    fn flush_edge(
        &mut self,
        ctx: &mut Ctx<'_, SysMessage>,
        node: NodeId,
        link: Option<&mut ReliableLink>,
    ) {
        let Some(mut items) = self.pending.remove(&node) else {
            return;
        };
        let fmt = self.fmt_for(node);
        let msg = match items.len() {
            0 => return,
            1 => items.pop().expect("len checked"),
            n => {
                ctx.count(metric::WIRE_BATCH_FLUSHES, 1);
                ctx.count(metric::WIRE_BATCH_COALESCED, n as u64);
                GdsMessage::Batch(items)
            }
        };
        send_data(ctx, node, fmt, msg, link);
    }

    /// Flushes every buffered edge (the `BATCH_TAG` timer body).
    fn flush_all(&mut self, ctx: &mut Ctx<'_, SysMessage>, mut link: Option<&mut ReliableLink>) {
        self.timer_armed = false;
        let mut edges: Vec<NodeId> = self.pending.keys().copied().collect();
        // The map's iteration order is seeded per instance; it must not
        // steer the send order (and with it the link RNG draw order),
        // or same-seed runs stop replaying bit-identically.
        edges.sort_unstable();
        for node in edges {
            self.flush_edge(ctx, node, link.as_deref_mut());
        }
    }
}

/// Tunables of the opt-in per-hop reliability layer: ack/retransmit
/// parameters for GDS traffic, and the heartbeat failure detector that
/// drives tree self-healing. Defaults: retry every 500 ms doubling to
/// 4 s with ±20 % jitter and no budget, queue polled every 250 ms,
/// heartbeats every second, parent declared dead after 3 silent
/// heartbeats (≈3 s).
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityConfig {
    /// Backoff/budget for retransmitting unacknowledged GDS messages.
    pub retry: RetryPolicy,
    /// How often the retransmission queue is polled.
    pub tick: SimDuration,
    /// How often a child pings its parent.
    pub heartbeat_interval: SimDuration,
    /// Consecutive unanswered heartbeats before the parent is declared
    /// dead and the child re-parents to its recorded grandparent.
    pub heartbeat_misses: u32,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            retry: RetryPolicy::default(),
            tick: SimDuration::from_millis(250),
            heartbeat_interval: SimDuration::from_secs(1),
            heartbeat_misses: 3,
        }
    }
}

/// One actor's reliable GDS-hop sender: wraps outgoing messages in the
/// [`Reliable`] envelope and retransmits until acknowledged. Each
/// queued entry remembers the wire format its edge had negotiated at
/// send time, so retransmissions reuse a frame the peer is known to
/// understand.
#[derive(Debug)]
pub struct ReliableLink {
    queue: RetransmitQueue<(NodeId, WireFormat, GdsMessage)>,
}

impl ReliableLink {
    /// Creates a link with the given retry policy and jitter seed.
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        ReliableLink {
            queue: RetransmitQueue::new(policy, seed),
        }
    }

    /// Wraps `msg` in a data envelope, transmits it in the edge's
    /// format, and remembers it for retransmission until acknowledged.
    fn transmit(
        &mut self,
        ctx: &mut Ctx<'_, SysMessage>,
        node: NodeId,
        fmt: WireFormat,
        msg: GdsMessage,
    ) {
        let seq = self.queue.send((node, fmt, msg.clone()), ctx.now());
        ctx.send(node, rel_frame(fmt, Reliable::Data { seq, payload: msg }));
    }

    fn ack(&mut self, seq: u64) {
        self.queue.ack(seq);
    }

    fn nack(&mut self, seq: u64) {
        self.queue.nack(seq);
    }

    /// Retransmits everything due (counting `net.retransmits`) and
    /// returns messages whose retry budget ran out.
    fn poll(&mut self, ctx: &mut Ctx<'_, SysMessage>) -> Vec<(NodeId, GdsMessage)> {
        let outcome = self.queue.poll(ctx.now());
        if !outcome.retransmit.is_empty() {
            ctx.count(metric::NET_RETRANSMITS, outcome.retransmit.len() as u64);
        }
        for (seq, (node, fmt, msg)) in outcome.retransmit {
            ctx.send(node, rel_frame(fmt, Reliable::Data { seq, payload: msg }));
        }
        outcome
            .dead
            .into_iter()
            .map(|(_, (node, _, msg))| (node, msg))
            .collect()
    }

    /// Number of unacknowledged messages in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }
}

/// Picks the `SysMessage` carrier for a plain data frame in a format.
fn data_frame(fmt: WireFormat, msg: GdsMessage) -> SysMessage {
    match fmt {
        WireFormat::Xml => SysMessage::Gds(msg),
        WireFormat::Binary => SysMessage::GdsBin(msg),
    }
}

/// Picks the `SysMessage` carrier for a reliable envelope in a format.
fn rel_frame(fmt: WireFormat, rel: Reliable<GdsMessage>) -> SysMessage {
    match fmt {
        WireFormat::Xml => SysMessage::RelGds(rel),
        WireFormat::Binary => SysMessage::RelGdsBin(rel),
    }
}

/// Sends one data message on an edge, through the reliable link when
/// one is supplied, otherwise fire-and-forget, in the edge's format.
fn send_data(
    ctx: &mut Ctx<'_, SysMessage>,
    node: NodeId,
    fmt: WireFormat,
    msg: GdsMessage,
    link: Option<&mut ReliableLink>,
) {
    match link {
        Some(l) => l.transmit(ctx, node, fmt, msg),
        None => ctx.send(node, data_frame(fmt, msg)),
    }
}

/// Acknowledges a received data envelope back to its sender, in the
/// same format the data frame arrived in.
fn send_ack(ctx: &mut Ctx<'_, SysMessage>, from: NodeId, seq: u64, fmt: WireFormat) {
    ctx.count(metric::NET_ACKS, 1);
    ctx.send(from, rel_frame(fmt, Reliable::Ack { seq }));
}

/// Heartbeats ride plain — wrapping the liveness probe in the
/// retransmit machinery would defeat its purpose (a lost probe *is*
/// the signal). Hellos ride plain too: a version-1 peer would drop the
/// unknown tag without acking, so retransmitting one forever would
/// defeat the fallback the hello exists to provide.
fn rides_plain(msg: &GdsMessage) -> bool {
    matches!(
        msg,
        GdsMessage::Heartbeat
            | GdsMessage::HeartbeatAck
            | GdsMessage::Hello { .. }
            | GdsMessage::HelloAck { .. }
    )
}

/// The simulation actor wrapping an [`AlertingCore`].
#[derive(Debug)]
pub struct AlertingActor {
    core: AlertingCore,
    directory: Directory,
    dir_cache: DirectoryCache,
    tick: SimDuration,
    /// Locally-initiated distributed fetches that completed (drained by
    /// the [`System`](crate::System) driver).
    pub completed_fetches: Vec<(gsa_greenstone::RequestId, gsa_greenstone::server::FetchResult)>,
    /// Locally-initiated distributed searches that completed.
    pub completed_searches: Vec<(gsa_greenstone::RequestId, gsa_greenstone::server::SearchResult)>,
    /// Naming-service answers that arrived.
    pub resolved: Vec<(gsa_gds::ResolveToken, Option<HostName>)>,
    reliability: Option<(ReliabilityConfig, ReliableLink)>,
    wire: WireLink,
}

impl AlertingActor {
    /// Wraps a core; `tick` is the maintenance-timer period (retries,
    /// request timeouts).
    pub fn new(core: AlertingCore, directory: Directory, tick: SimDuration) -> Self {
        AlertingActor {
            core,
            directory,
            dir_cache: DirectoryCache::default(),
            tick,
            completed_fetches: Vec::new(),
            completed_searches: Vec::new(),
            resolved: Vec::new(),
            reliability: None,
            wire: WireLink::new(WireConfig::default()),
        }
    }

    /// Turns on the reliable envelope for this host's GDS-bound traffic
    /// (registration, publishes, resolves). `seed` derives the
    /// retransmission jitter.
    pub fn enable_reliability(&mut self, config: ReliabilityConfig, seed: u64) {
        let link = ReliableLink::new(config.retry.clone(), seed);
        self.reliability = Some((config, link));
    }

    /// Sets the wire-protocol configuration (format version,
    /// batching). Takes effect from the next hello exchange.
    pub fn set_wire(&mut self, config: WireConfig) {
        self.wire = WireLink::new(config);
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
        if !effects.notifications.is_empty() {
            ctx.count_id(CounterId::ALERT_NOTIFICATIONS, effects.notifications.len() as u64);
        }
        if !effects.published.is_empty() {
            ctx.count_id(CounterId::ALERT_EVENTS_PUBLISHED, effects.published.len() as u64);
        }
        if !effects.dead_letters.is_empty() {
            ctx.count(metric::AUX_DEAD_LETTER, effects.dead_letters.len() as u64);
        }
        let counters = self.core.take_counters();
        if !counters.is_zero() {
            if counters.decode_errors > 0 {
                ctx.count(metric::CORE_DECODE_ERROR, counters.decode_errors);
            }
            if counters.probe_skipped > 0 {
                ctx.count(metric::CORE_PROBE_SKIP, counters.probe_skipped);
            }
            if counters.probe_passed > 0 {
                ctx.count(metric::CORE_PROBE_PASS, counters.probe_passed);
            }
            if counters.mirrored_docs > 0 {
                ctx.count(metric::CORE_MIRRORED_DOCS, counters.mirrored_docs);
            }
            if counters.journal_appends > 0 {
                ctx.count(metric::STATE_JOURNAL_APPENDS, counters.journal_appends);
            }
            if counters.snapshot_writes > 0 {
                ctx.count(metric::STATE_SNAPSHOT_WRITES, counters.snapshot_writes);
            }
            if counters.replay_records > 0 {
                ctx.count(metric::STATE_REPLAY_RECORDS, counters.replay_records);
            }
            if counters.journal_corrupt > 0 {
                ctx.count(metric::STATE_JOURNAL_CORRUPT, counters.journal_corrupt);
            }
            if counters.alerts_firing > 0 {
                ctx.count_id(CounterId::ALERTS_FIRING, counters.alerts_firing);
            }
            if counters.alerts_acked > 0 {
                ctx.count_id(CounterId::ALERTS_ACKED, counters.alerts_acked);
            }
            if counters.alerts_resolved > 0 {
                ctx.count_id(CounterId::ALERTS_RESOLVED, counters.alerts_resolved);
            }
            if counters.alerts_stale > 0 {
                ctx.count_id(CounterId::ALERTS_STALE, counters.alerts_stale);
            }
            if counters.alerts_suppressed > 0 {
                ctx.count_id(CounterId::ALERTS_SUPPRESSED, counters.alerts_suppressed);
            }
            if counters.alerts_digested > 0 {
                ctx.count_id(CounterId::ALERTS_DIGESTED, counters.alerts_digested);
            }
        }
        self.completed_fetches.extend(effects.fetches);
        self.completed_searches.extend(effects.searches);
        self.resolved.extend(effects.resolved);
        for (to, msg) in effects.outbound {
            let Some(node) = self.dir_cache.lookup(&self.directory, &to) else {
                ctx.count("alert.unknown_host", 1);
                continue;
            };
            match msg {
                SysMessage::Gds(m) if !rides_plain(&m) => {
                    let link = self.reliability.as_mut().map(|(_, l)| l);
                    self.wire.dispatch(ctx, node, m, link);
                }
                SysMessage::Gds(m) => ctx.send(node, data_frame(self.wire.fmt_for(node), m)),
                msg => ctx.send(node, msg),
            }
        }
    }
}

impl Actor<SysMessage> for AlertingActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        let effects = self.core.startup(ctx.now());
        self.apply(effects, ctx);
        // Announce wire v2 to this host's directory node; the edge
        // upgrades when (if) the hello-ack comes back.
        if let Some(hello) = self.wire.hello() {
            if let Some(node) = self.directory.lookup(self.core.gds_server()) {
                ctx.send(node, SysMessage::Gds(hello));
            }
        }
        ctx.set_timer(self.tick, TICK_TAG);
        if let Some((config, _)) = &self.reliability {
            ctx.set_timer(config.tick, RELIABLE_TAG);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SysMessage>, from: NodeId, msg: SysMessage) {
        let msg = match msg {
            SysMessage::RelGds(Reliable::Data { seq, payload }) => {
                // Always ack, even a redelivery: processing below is
                // idempotent, and the ack is what stops the sender.
                send_ack(ctx, from, seq, WireFormat::Xml);
                SysMessage::Gds(payload)
            }
            SysMessage::RelGdsBin(Reliable::Data { seq, payload }) => {
                send_ack(ctx, from, seq, WireFormat::Binary);
                SysMessage::Gds(payload)
            }
            SysMessage::RelGds(rel) | SysMessage::RelGdsBin(rel) => {
                if let Some((_, link)) = &mut self.reliability {
                    match rel {
                        Reliable::Ack { seq } => link.ack(seq),
                        Reliable::Nack { seq } => link.nack(seq),
                        Reliable::Data { .. } => unreachable!("handled above"),
                    }
                }
                return;
            }
            SysMessage::GdsBin(m) => SysMessage::Gds(m),
            other => other,
        };
        // Version negotiation terminates at the actor layer.
        match &msg {
            SysMessage::Gds(GdsMessage::Hello { version }) => {
                if self.wire.accepts(*version) {
                    self.wire.record_peer_v2(from);
                    ctx.send(from, SysMessage::Gds(GdsMessage::HelloAck { version: 2 }));
                }
                return;
            }
            SysMessage::Gds(GdsMessage::HelloAck { version }) => {
                if self.wire.accepts(*version) {
                    self.wire.record_peer_v2(from);
                }
                return;
            }
            _ => {}
        }
        let from_host = self
            .directory
            .name_of(from)
            .unwrap_or_else(|| HostName::new(format!("unknown-{from}")));
        // A batch from the directory node drains through one core call:
        // accept, probe and mirror run per item in arrival order, then a
        // single filter pass matches every surviving event. Effects (and
        // hence notification order, counters and outbound sends) are
        // exactly what per-item frames would have produced.
        if let SysMessage::Gds(GdsMessage::Batch(items)) = msg {
            let effects = self.core.handle_gds_batch(items, ctx.now());
            self.apply(effects, ctx);
            return;
        }
        let effects = self.core.handle_message(&from_host, msg, ctx.now());
        self.apply(effects, ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SysMessage>, _timer: TimerId, tag: u64) {
        match tag {
            TICK_TAG => {
                let effects = self.core.on_tick(ctx.now());
                self.apply(effects, ctx);
                ctx.set_timer(self.tick, TICK_TAG);
            }
            RELIABLE_TAG => {
                if let Some((config, link)) = &mut self.reliability {
                    let dead = link.poll(ctx);
                    if !dead.is_empty() {
                        ctx.count("gds.dead_letter", dead.len() as u64);
                    }
                    ctx.set_timer(config.tick, RELIABLE_TAG);
                }
            }
            BATCH_TAG => {
                let link = self.reliability.as_mut().map(|(_, l)| l);
                self.wire.flush_all(ctx, link);
            }
            _ => {}
        }
    }
}

/// The failure-detector and retransmission state of one reliable
/// [`GdsActor`].
#[derive(Debug)]
struct GdsReliability {
    config: ReliabilityConfig,
    link: ReliableLink,
    /// The fallback attachment point recorded at join time (the
    /// grandparent); consumed by one re-parenting.
    grandparent: Option<HostName>,
    /// A heartbeat is outstanding (sent, not yet acked).
    heartbeat_pending: bool,
    /// Consecutive unanswered heartbeats.
    misses: u32,
}

/// The simulation actor wrapping a [`GdsNode`].
#[derive(Debug)]
pub struct GdsActor {
    node: GdsNode,
    directory: Directory,
    dir_cache: DirectoryCache,
    reliability: Option<GdsReliability>,
    wire: WireLink,
    /// Reused effects buffer for the per-message hot path; capacity
    /// survives between frames so steady-state handling allocates
    /// nothing.
    scratch: GdsEffects,
    /// An `ANNOUNCE_TAG` timer is outstanding (deferred announcements).
    announce_armed: bool,
}

impl GdsActor {
    /// Wraps a directory-server node (best-effort hops, no failure
    /// detector — the paper's §6 baseline behaviour).
    pub fn new(node: GdsNode, directory: Directory) -> Self {
        GdsActor {
            node,
            directory,
            dir_cache: DirectoryCache::default(),
            reliability: None,
            wire: WireLink::new(WireConfig::default()),
            scratch: GdsEffects::default(),
            announce_armed: false,
        }
    }

    /// Sets the wire-protocol configuration. A v2 node also freezes
    /// flood payloads at the origin (encode-once forwarding).
    pub fn set_wire(&mut self, config: WireConfig) {
        self.node.set_encode_once(config.speaks_v2());
        self.wire = WireLink::new(config);
    }

    /// Enables subscription-aware flood pruning on the wrapped node.
    /// Under the actor, upward announcements are deferred and coalesced:
    /// a burst of registrations in one frame produces one announce when
    /// the `ANNOUNCE_TAG` timer fires, not one per registration.
    pub fn set_pruning(&mut self, enabled: bool) {
        self.node.set_pruning(enabled);
        self.node.set_deferred_announce(enabled);
    }

    /// Enables rendezvous placement on the wrapped node (construction-
    /// time knob; requires pruning for grants to mean anything).
    pub fn set_rendezvous(&mut self, enabled: bool) {
        self.node.set_rendezvous(enabled);
    }

    /// Turns on reliable per-edge delivery and the heartbeat failure
    /// detector. `grandparent` is the fallback attachment point this
    /// node re-parents to when its parent is declared dead; `seed`
    /// derives the retransmission jitter.
    pub fn enable_reliability(
        &mut self,
        config: ReliabilityConfig,
        grandparent: Option<HostName>,
        seed: u64,
    ) {
        let link = ReliableLink::new(config.retry.clone(), seed);
        self.reliability = Some(GdsReliability {
            config,
            link,
            grandparent,
            heartbeat_pending: false,
            misses: 0,
        });
    }

    /// The wrapped node.
    pub fn node(&self) -> &GdsNode {
        &self.node
    }

    /// Mutable access to the wrapped node (topology changes).
    pub fn node_mut(&mut self) -> &mut GdsNode {
        &mut self.node
    }

    fn apply(&mut self, effects: &mut GdsEffects, ctx: &mut Ctx<'_, SysMessage>) {
        if !effects.undeliverable.is_empty() {
            ctx.count("gds.undeliverable", effects.undeliverable.len() as u64);
        }
        let counters = self.node.take_counters();
        if counters.pruned_edges > 0 {
            ctx.count(metric::GDS_PRUNED_EDGES, counters.pruned_edges);
        }
        if counters.summary_updates > 0 {
            ctx.count(metric::GDS_SUMMARY_UPDATES, counters.summary_updates);
        }
        if counters.rendezvous_confined > 0 {
            ctx.count(metric::GDS_RENDEZVOUS_CONFINED, counters.rendezvous_confined);
        }
        if counters.rendezvous_grants > 0 {
            ctx.count(metric::GDS_RENDEZVOUS_GRANTS, counters.rendezvous_grants);
        }
        if self.node.announce_pending() && !self.announce_armed {
            self.announce_armed = true;
            ctx.set_timer(ANNOUNCE_DELAY, ANNOUNCE_TAG);
        }
        for out in effects.outbound.drain(..) {
            let Some(node) = self.dir_cache.lookup(&self.directory, &out.to) else {
                ctx.count("gds.unknown_host", 1);
                continue;
            };
            if rides_plain(&out.msg) {
                ctx.send(node, data_frame(self.wire.fmt_for(node), out.msg));
            } else {
                let link = self.reliability.as_mut().map(|r| &mut r.link);
                self.wire.dispatch(ctx, node, out.msg, link);
            }
        }
    }

    /// Announces wire v2 on one edge (no-op for v1 configurations).
    fn say_hello(&self, ctx: &mut Ctx<'_, SysMessage>, peer: &HostName) {
        if let Some(hello) = self.wire.hello() {
            if let Some(node) = self.directory.lookup(peer) {
                ctx.send(node, SysMessage::Gds(hello));
            }
        }
    }

    /// The heartbeat-timer body: count the silence, re-parent when the
    /// detector trips, and probe the (possibly new) parent again.
    fn heartbeat_tick(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        let interval = {
            let Some(rel) = self.reliability.as_mut() else {
                return;
            };
            if self.node.parent().is_none() {
                return;
            }
            if rel.heartbeat_pending {
                rel.misses += 1;
            }
            rel.config.heartbeat_interval
        };
        let tripped = self.reliability.as_ref().is_some_and(|r| {
            r.misses >= r.config.heartbeat_misses && r.grandparent.is_some()
        });
        if tripped {
            self.reparent(ctx);
        }
        if let Some(parent) = self.node.parent().cloned() {
            if let Some(node) = self.directory.lookup(&parent) {
                ctx.send(
                    node,
                    data_frame(self.wire.fmt_for(node), GdsMessage::Heartbeat),
                );
                // A hello can be lost (it rides plain); piggyback a
                // fresh announcement on the heartbeat cadence until the
                // edge upgrades.
                if self.wire.fmt_for(node) == WireFormat::Xml {
                    self.say_hello(ctx, &parent);
                }
            }
            if let Some(rel) = self.reliability.as_mut() {
                rel.heartbeat_pending = true;
            }
        }
        // Piggyback a summary re-announcement on the heartbeat cadence:
        // an update lost before the reliable layer (or a parent that
        // restarted and forgot us) heals within one heartbeat.
        if let Some(out) = self.node.summary_announcement() {
            let mut effects = GdsEffects::default();
            effects.outbound.push(out);
            self.apply(&mut effects, ctx);
        }
        ctx.set_timer(interval, HEARTBEAT_TAG);
    }

    /// Detaches from the dead parent and re-attaches the whole subtree
    /// to the grandparent recorded at join time: adopt + re-register,
    /// all over reliable edges so the moves survive further loss. The
    /// detach is also reliable — it reaches the old parent when (if) it
    /// heals, at which point it stops routing through a stale edge.
    fn reparent(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        let Some(new_parent) = self
            .reliability
            .as_mut()
            .and_then(|rel| rel.grandparent.take())
        else {
            return;
        };
        let old_parent = self.node.parent().cloned();
        ctx.count(metric::GDS_REPARENT, 1);
        if let Some(rel) = self.reliability.as_mut() {
            rel.misses = 0;
            rel.heartbeat_pending = false;
        }
        self.node.set_parent(Some(new_parent.clone()));
        let me = self.node.name().clone();
        let mut effects = GdsEffects::default();
        if let Some(old) = old_parent {
            if old != new_parent {
                effects.outbound.push(GdsOutbound {
                    to: old,
                    msg: GdsMessage::Detach { child: me.clone() },
                });
            }
        }
        effects.outbound.push(GdsOutbound {
            to: new_parent.clone(),
            msg: GdsMessage::Adopt { child: me },
        });
        effects.outbound.extend(self.node.reregistrations());
        // The new parent starts us at wildcard-by-absence (Adopt drops
        // any stale edge summary); tell it what we actually cover so
        // pruning resumes on the healed edge.
        effects.outbound.extend(self.node.summary_announcement());
        // set_parent dropped the grants held from the old parent, so
        // grants delegated to children lost their upward cover: revoke
        // them in the same batch (the new parent re-grants over its own
        // heartbeat/announce cycle once summaries settle).
        self.node.refresh_rendezvous(&mut effects);
        self.apply(&mut effects, ctx);
        // The new parent is an unknown quantity: renegotiate the edge
        // from the XML-safe default.
        self.say_hello(ctx, &new_parent);
    }
}

impl Actor<SysMessage> for GdsActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        // Announce wire v2 on every tree edge; each one upgrades
        // independently when its hello-ack comes back.
        let neighbours: Vec<HostName> = self
            .node
            .parent()
            .into_iter()
            .chain(self.node.children())
            .cloned()
            .collect();
        for peer in &neighbours {
            self.say_hello(ctx, peer);
        }
        if let Some(rel) = &self.reliability {
            ctx.set_timer(rel.config.tick, RELIABLE_TAG);
            if self.node.parent().is_some() {
                ctx.set_timer(rel.config.heartbeat_interval, HEARTBEAT_TAG);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SysMessage>, from: NodeId, msg: SysMessage) {
        let msg = match msg {
            SysMessage::Gds(m) => m,
            SysMessage::GdsBin(m) => m,
            SysMessage::RelGds(Reliable::Data { seq, payload }) => {
                // Ack first, even for a redelivery — the directory's
                // duplicate suppression makes reprocessing harmless,
                // and the ack is what silences the sender.
                send_ack(ctx, from, seq, WireFormat::Xml);
                payload
            }
            SysMessage::RelGdsBin(Reliable::Data { seq, payload }) => {
                send_ack(ctx, from, seq, WireFormat::Binary);
                payload
            }
            SysMessage::RelGds(rel) | SysMessage::RelGdsBin(rel) => {
                if let Some(r) = &mut self.reliability {
                    match rel {
                        Reliable::Ack { seq } => r.link.ack(seq),
                        Reliable::Nack { seq } => r.link.nack(seq),
                        Reliable::Data { .. } => unreachable!("handled above"),
                    }
                }
                return;
            }
            _ => {
                ctx.count("gds.non_gds_message", 1);
                return;
            }
        };
        if matches!(msg, GdsMessage::HeartbeatAck) {
            if let Some(rel) = &mut self.reliability {
                rel.heartbeat_pending = false;
                rel.misses = 0;
            }
            return;
        }
        // Version negotiation terminates at the actor layer. A host
        // configured for v1 falls through to the node, which ignores
        // the tags — modelling a legacy peer that never upgrades.
        match msg {
            GdsMessage::Hello { version } if self.wire.accepts(version) => {
                self.wire.record_peer_v2(from);
                ctx.send(
                    from,
                    data_frame(
                        self.wire.fmt_for(from),
                        GdsMessage::HelloAck { version: 2 },
                    ),
                );
                return;
            }
            GdsMessage::HelloAck { version } if self.wire.accepts(version) => {
                self.wire.record_peer_v2(from);
                return;
            }
            _ => {}
        }
        let from_host = self
            .dir_cache
            .name_of(&self.directory, from)
            .cloned()
            .unwrap_or_else(|| HostName::new(format!("unknown-{from}")));
        ctx.count_id(CounterId::GDS_MESSAGES, 1);
        if let GdsMessage::Batch(ref items) = msg {
            ctx.count(metric::WIRE_BATCH_RECEIVED, items.len() as u64);
        }
        // Steady-state frames reuse one effects buffer: take it, handle
        // into it, transmit, put it back with its capacity intact.
        let mut effects = std::mem::take(&mut self.scratch);
        effects.clear();
        self.node.handle_message_into(&from_host, msg, &mut effects);
        self.apply(&mut effects, ctx);
        self.scratch = effects;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SysMessage>, _timer: TimerId, tag: u64) {
        match tag {
            RELIABLE_TAG => {
                if let Some(rel) = &mut self.reliability {
                    let dead = rel.link.poll(ctx);
                    if !dead.is_empty() {
                        ctx.count("gds.dead_letter", dead.len() as u64);
                    }
                    ctx.set_timer(rel.config.tick, RELIABLE_TAG);
                }
            }
            HEARTBEAT_TAG => self.heartbeat_tick(ctx),
            BATCH_TAG => {
                let link = self.reliability.as_mut().map(|r| &mut r.link);
                self.wire.flush_all(ctx, link);
            }
            ANNOUNCE_TAG => {
                self.announce_armed = false;
                if let Some(out) = self.node.flush_deferred_announcement() {
                    let mut effects = std::mem::take(&mut self.scratch);
                    effects.clear();
                    effects.outbound.push(out);
                    self.apply(&mut effects, ctx);
                    self.scratch = effects;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_round_trips() {
        let d = Directory::new();
        assert!(d.is_empty());
        d.insert("Hamilton".into(), NodeId::from_raw(3));
        assert_eq!(d.lookup(&"Hamilton".into()), Some(NodeId::from_raw(3)));
        assert_eq!(d.name_of(NodeId::from_raw(3)), Some(HostName::new("Hamilton")));
        assert_eq!(d.lookup(&"X".into()), None);
        assert_eq!(d.name_of(NodeId::from_raw(9)), None);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn directory_is_shared_between_clones() {
        let d = Directory::new();
        let d2 = d.clone();
        d.insert("A".into(), NodeId::from_raw(0));
        assert_eq!(d2.lookup(&"A".into()), Some(NodeId::from_raw(0)));
    }
}
