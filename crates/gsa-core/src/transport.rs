//! The edge transport: everything between a [`SysMessage`] frame on a
//! tree edge and the plain [`GdsMessage`] a state machine handles — the
//! per-edge batch buffers, the reliable envelope and the acks owed. Its
//! timer tags and per-hop constants are the actors' (`actor.rs`).

use crate::actor::{ACK_TAG, BATCH_MAX_EVENTS, BATCH_TAG, GDS_RETRY, LOSS_TAG};
use crate::message::SysMessage;
use gsa_gds::{GdsMessage, Items};
use gsa_simnet::{CounterId, Ctx, NodeId};
use gsa_types::{SimDuration, SimTime};
use gsa_wire::reliable::{ack_windows, acked_seqs, Reliable, Resend, RetransmitQueue, ACK_DELAY};
use gsa_wire::WireFormat;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Messages eligible for per-edge batching: exactly the frames that
/// carry an event payload — a server's publish (flooded or targeted),
/// forwarding between directory nodes (broadcast or routed) and final
/// delivery. Control traffic — registrations, resolves, summaries,
/// grants, topology changes, beacons — always rides alone so
/// its latency and ordering stay untouched.
fn batchable(msg: &GdsMessage) -> bool {
    matches!(
        msg,
        GdsMessage::Publish { .. }
            | GdsMessage::PublishTargeted { .. }
            | GdsMessage::Broadcast { .. }
            | GdsMessage::Route { .. }
            | GdsMessage::Deliver { .. }
    )
}

/// One edge's buffered events.
#[derive(Debug, Default)]
struct EdgeBuf {
    slices: Vec<Items>,
    /// Events the slices hold.
    items: usize,
}

impl EdgeBuf {
    fn push(&mut self, slice: Items, cap: usize) {
        self.items += slice.as_slice().len();
        self.slices.push(slice);
        debug_assert!(
            self.items <= cap,
            "an edge buffer holds {} events, over the cap of {cap}",
            self.items
        );
    }

    /// The frame the buffer goes out as: one slice as that slice's
    /// frame, several as the concatenation of their events (one
    /// sequence number, one ack, when the edge is reliable).
    fn into_frame(mut self) -> GdsMessage {
        match self.slices.len() {
            1 => self.slices.pop().expect("one slice").into_frame(),
            _ => GdsMessage::Batch(self.slices.iter().flat_map(Items::as_slice).cloned().collect()),
        }
    }
}

/// The most events one frame carries: [`BATCH_MAX_EVENTS`] on the
/// binary wire, one on the paper's XML, which has no `gds:batch`.
fn batch_cap(wire: WireFormat) -> usize {
    match wire {
        WireFormat::Binary => BATCH_MAX_EVENTS,
        WireFormat::Xml => 1,
    }
}

/// What the batcher asks of the wire.
#[derive(Debug)]
enum Flush {
    /// Send an edge's frame.
    Send(NodeId, GdsMessage),
    /// Set the `BATCH_TAG` timer: an edge holds events and no timer is
    /// outstanding.
    Arm,
}

/// The per-edge batch buffers of the deployment's wire. An edge is sent
/// its frame the moment it holds `cap` events, the rest at the end of
/// the instant, in `NodeId` order: a hasher's per-instance order must
/// not steer the send order, and with it the link RNG draw order. With
/// the XML wire's cap of one, every event goes out alone the moment it
/// is pushed. A buffer holds references into shared frames, so an event
/// forwarded on several edges is not copied per edge, and a frame
/// forwarded whole goes out as the frame that came in.
#[derive(Debug)]
struct Batcher {
    /// The most events one frame carries ([`batch_cap`]).
    cap: usize,
    pending: BTreeMap<NodeId, EdgeBuf>,
    /// A `BATCH_TAG` timer is outstanding.
    armed: bool,
    /// Per leg of the run being dispatched: the edge's fill, and where
    /// the part of the run it has not been sent starts.
    marks: Vec<(usize, usize)>,
}

impl Batcher {
    fn new(cap: usize) -> Self {
        Batcher {
            cap,
            pending: BTreeMap::new(),
            armed: false,
            marks: Vec::new(),
        }
    }

    /// Buffers one event for `node`.
    fn push(&mut self, node: NodeId, msg: GdsMessage, out: &mut impl FnMut(Flush)) {
        let fill = self.pending.get(&node).map_or(0, |buf| buf.items);
        if fill + 1 == self.cap {
            self.send_full(node, Items::One(msg), out);
        } else {
            self.pending.entry(node).or_default().push(Items::One(msg), self.cap);
            self.arm(out);
        }
    }

    /// Buffers a flood run: every leg's frame holds the run's items in
    /// the form that leg's edge receives (see `GdsEffects::runs`), and
    /// no edge has two legs. The items are walked across the legs in
    /// the order they would have been buffered one by one, counting
    /// instead of copying, so every frame, every send and the timer go
    /// out exactly where they would have.
    fn push_run(&mut self, legs: &[(NodeId, Arc<[GdsMessage]>)], out: &mut impl FnMut(Flush)) {
        let n = legs.first().map_or(0, |(_, frame)| frame.len());
        let mut marks = std::mem::take(&mut self.marks);
        marks.clear();
        marks.extend(
            legs.iter()
                .map(|(node, _)| (self.pending.get(node).map_or(0, |buf| buf.items), 0)),
        );
        for i in 0..n {
            for ((node, frame), (fill, start)) in legs.iter().zip(&mut marks) {
                *fill += 1;
                if *fill == self.cap {
                    self.send_full(*node, Items::Shared(frame.clone(), *start..i + 1), out);
                    (*fill, *start) = (0, i + 1);
                } else if !self.armed {
                    self.armed = true;
                    out(Flush::Arm);
                }
            }
        }
        for ((node, frame), &(_, start)) in legs.iter().zip(&marks) {
            if start < n {
                let slice = Items::Shared(frame.clone(), start..n);
                self.pending.entry(*node).or_default().push(slice, self.cap);
            }
        }
        self.marks = marks;
    }

    /// Sends `node` its buffer and `slice`, which fills it to the cap.
    fn send_full(&mut self, node: NodeId, slice: Items, out: &mut impl FnMut(Flush)) {
        let frame = match self.pending.remove(&node) {
            Some(mut buf) => {
                buf.push(slice, self.cap);
                buf.into_frame()
            }
            None => slice.into_frame(),
        };
        out(Flush::Send(node, frame));
    }

    /// Asks for the timer when an edge holds something (a flushed edge
    /// leaves the map) and none is outstanding. The timer is due now:
    /// the simulator runs same-instant items in the order they were
    /// queued, so it fires after every frame already due in this
    /// instant, and whatever those frames send shares the flush.
    fn arm(&mut self, out: &mut impl FnMut(Flush)) {
        if !self.armed && !self.pending.is_empty() {
            self.armed = true;
            out(Flush::Arm);
        }
    }

    /// Sends every buffered edge (the `BATCH_TAG` timer body).
    fn flush(&mut self, out: &mut impl FnMut(Flush)) {
        self.armed = false;
        for (node, buf) in std::mem::take(&mut self.pending) {
            out(Flush::Send(node, buf.into_frame()));
        }
    }
}

/// Carries out what the batcher asks: a frame of several events is a
/// [`GdsMessage::Batch`], counted as one flush.
fn wire_out(ctx: &mut Ctx<'_, SysMessage>, flush: Flush, link: Option<&mut ReliableLink>) {
    match flush {
        Flush::Arm => ctx.set_timer(SimDuration::ZERO, BATCH_TAG),
        Flush::Send(node, msg) => {
            if let GdsMessage::Batch(items) = &msg {
                ctx.count_id(CounterId::WIRE_BATCH_FLUSHES, 1);
                ctx.count_id(CounterId::WIRE_BATCH_COALESCED, items.len() as u64);
            }
            send_data(ctx, node, msg, link);
        }
    }
}



/// One actor's reliable GDS-hop sender: wraps outgoing messages in the
/// [`Reliable`] envelope and retransmits until acknowledged — when an
/// ack proves a frame lost, on a tail probe, or on the backoff
/// schedule. One `LOSS_TAG` timer stands at the queue's next deadline.
#[derive(Debug)]
struct ReliableLink {
    queue: RetransmitQueue<NodeId, GdsMessage>,
    /// When the earliest outstanding `LOSS_TAG` timer fires. A timer
    /// cannot be cancelled, so one set for a later deadline may still
    /// be outstanding too; it finds nothing due and re-arms.
    armed: Option<SimTime>,
}

impl ReliableLink {
    /// Creates a link with the given jitter seed.
    fn new(seed: u64) -> Self {
        ReliableLink {
            queue: RetransmitQueue::new(GDS_RETRY, seed),
            armed: None,
        }
    }

    /// Sets a `LOSS_TAG` timer at the queue's next deadline when none
    /// outstanding fires by then.
    fn arm(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        let Some(at) = self.queue.next_deadline() else {
            return;
        };
        if self.armed.is_none_or(|armed| at < armed) {
            ctx.set_timer(at.since(ctx.now()), LOSS_TAG);
            self.armed = Some(at);
        }
    }

    /// Wraps `msg` in a data envelope, transmits it, and remembers it
    /// for retransmission until acknowledged.
    fn transmit(&mut self, ctx: &mut Ctx<'_, SysMessage>, node: NodeId, msg: GdsMessage) {
        let seq = self.queue.send(node, msg.clone(), ctx.now());
        ctx.send(node, SysMessage::RelGds(Reliable::Data { seq, payload: msg }));
        self.arm(ctx);
    }

    /// Takes `from`'s ack window, and re-sends at once what it proves
    /// lost.
    fn ack(&mut self, ctx: &mut Ctx<'_, SysMessage>, from: NodeId, seq: u64, more: u64) {
        for (seq, msg) in self.queue.ack(from, acked_seqs(seq, more), ctx.now()) {
            resend(ctx, from, seq, msg, Resend::Lost);
        }
        self.arm(ctx);
    }

    /// The `LOSS_TAG` timer body: re-sends everything due, then re-arms.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        let now = ctx.now();
        if self.armed.is_some_and(|armed| armed <= now) {
            self.armed = None;
        }
        for (seq, node, msg, why) in self.queue.poll(now) {
            resend(ctx, node, seq, msg, why);
        }
        self.arm(ctx);
    }
}

/// Re-sends a queued entry, counting `net.retransmits`, and
/// `net.fast_retransmits` and `net.tail_probes` for what did not wait
/// for the backoff.
fn resend(ctx: &mut Ctx<'_, SysMessage>, node: NodeId, seq: u64, msg: GdsMessage, why: Resend) {
    ctx.count_id(CounterId::NET_RETRANSMITS, 1);
    if why != Resend::Timeout {
        ctx.count_id(CounterId::NET_FAST_RETRANSMITS, 1);
    }
    if why == Resend::Probe {
        ctx.count_id(CounterId::NET_TAIL_PROBES, 1);
    }
    ctx.send(node, SysMessage::RelGds(Reliable::Data { seq, payload: msg }));
}

/// Sends one data message on an edge, through the reliable link when
/// one is supplied, otherwise fire-and-forget.
fn send_data(
    ctx: &mut Ctx<'_, SysMessage>,
    node: NodeId,
    msg: GdsMessage,
    link: Option<&mut ReliableLink>,
) {
    match link {
        Some(l) => l.transmit(ctx, node, msg),
        None => ctx.send(node, SysMessage::Gds(msg)),
    }
}

/// Beacons ride plain — wrapping the liveness signal in the
/// retransmit machinery would defeat its purpose (a lost beacon *is*
/// a miss).
fn rides_plain(msg: &GdsMessage) -> bool {
    matches!(msg, GdsMessage::HeartbeatAck { .. })
}

/// The receiving half of the reliable envelope: the sequence numbers
/// that arrived per edge since the last flush, acknowledged `ACK_DELAY`
/// after the first of them in as few selective-ack frames as cover
/// them.
#[derive(Debug, Default)]
struct PendingAcks {
    /// In `NodeId` order: a hasher's per-instance order must not steer
    /// the send order, and with it the link RNG draw order.
    by_edge: BTreeMap<NodeId, Vec<u64>>,
    /// An `ACK_TAG` timer is outstanding.
    armed: bool,
}

impl PendingAcks {
    fn note(&mut self, ctx: &mut Ctx<'_, SysMessage>, from: NodeId, seq: u64) {
        self.by_edge.entry(from).or_default().push(seq);
        self.arm(ctx);
    }

    /// Sets the `ACK_TAG` timer when an edge waits for its acks and no
    /// timer is outstanding.
    fn arm(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        if !self.armed && !self.by_edge.is_empty() {
            ctx.set_timer(ACK_DELAY, ACK_TAG);
            self.armed = true;
        }
    }

    /// The `ACK_TAG` timer body: every edge's windows, one frame each.
    fn flush(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        self.armed = false;
        for (node, mut seqs) in std::mem::take(&mut self.by_edge) {
            for (seq, more) in ack_windows(&mut seqs) {
                ctx.send(node, SysMessage::RelGds(Reliable::Ack { seq, more }));
            }
        }
    }
}

/// What [`EdgeTransport::receive`] leaves of a frame.
pub(crate) enum Received {
    /// A GDS message for the state machine.
    Gds(GdsMessage),
    /// GS-network traffic, which never was the transport's: the frame
    /// as it came.
    Gs(SysMessage),
    /// Nothing: the frame was the transport's own business.
    Consumed,
}

/// One actor's edge transport: everything between a [`SysMessage`] frame
/// on a tree edge and the plain message its state machine handles — the
/// per-edge batch buffers and (when enabled) the reliable envelope. The
/// deployment's wire sets the batch cap when the transport is built;
/// nothing here names a format. [`AlertingActor`](crate::AlertingActor)
/// and [`GdsActor`](crate::GdsActor) each own one; neither unwraps a
/// carrier, acknowledges or polls a queue by itself.
#[derive(Debug)]
pub(crate) struct EdgeTransport {
    batcher: Batcher,
    /// The retransmission queue (reliability on).
    reliable: Option<ReliableLink>,
    /// Data envelopes received and not yet acknowledged.
    acks: PendingAcks,
}

impl EdgeTransport {
    /// A transport on `wire`, reliable when given a jitter seed.
    pub(crate) fn new(wire: WireFormat, reliable: Option<u64>) -> Self {
        EdgeTransport {
            batcher: Batcher::new(batch_cap(wire)),
            reliable: reliable.map(ReliableLink::new),
            acks: PendingAcks::default(),
        }
    }

    /// The actor's `on_start`, which a node coming back up runs again.
    /// Every timer set before the node went down is gone, so the armed
    /// flags are forgotten and each timer set again when it has work: a
    /// batch to flush, acks owed (left owed, the peer would retransmit
    /// them for ever), or frames still unacknowledged.
    pub(crate) fn start(&mut self, ctx: &mut Ctx<'_, SysMessage>) {
        if let Some(link) = &mut self.reliable {
            link.armed = None;
            link.arm(ctx);
        }
        self.batcher.armed = false;
        self.batcher.arm(&mut |flush| wire_out(ctx, flush, None));
        self.acks.armed = false;
        self.acks.arm(ctx);
    }

    /// The transport's share of an arriving frame — the one place the
    /// GDS carriers are taken apart. A data envelope is noted for the
    /// next ack flush and an ack feeds the retransmission queue; what is
    /// left is the state machine's.
    pub(crate) fn receive(
        &mut self,
        ctx: &mut Ctx<'_, SysMessage>,
        from: NodeId,
        msg: SysMessage,
    ) -> Received {
        match msg {
            SysMessage::Gds(m) => Received::Gds(m),
            SysMessage::RelGds(Reliable::Data { seq, payload }) => {
                // Always ack, even a redelivery: handling is idempotent
                // (duplicate suppression at nodes and servers), and the
                // ack is what stops the sender.
                ctx.count_id(CounterId::NET_ACKS, 1);
                self.acks.note(ctx, from, seq);
                Received::Gds(payload)
            }
            SysMessage::RelGds(Reliable::Ack { seq, more }) => {
                if let Some(link) = &mut self.reliable {
                    link.ack(ctx, from, seq, more);
                }
                Received::Consumed
            }
            other @ (SysMessage::Gs(_) | SysMessage::Aux(_)) => Received::Gs(other),
        }
    }

    /// Sends one GDS message on an edge: beacons plain, a frame carrying
    /// an event through the batcher, and everything but beacons through
    /// the reliable envelope when enabled.
    pub(crate) fn send(&mut self, ctx: &mut Ctx<'_, SysMessage>, node: NodeId, msg: GdsMessage) {
        let mut link = self.reliable.as_mut();
        if rides_plain(&msg) {
            ctx.send(node, SysMessage::Gds(msg));
        } else if batchable(&msg) {
            let out = &mut |flush| wire_out(ctx, flush, link.as_deref_mut());
            self.batcher.push(node, msg, out);
        } else {
            send_data(ctx, node, msg, link);
        }
    }

    /// Sends a flood run (see [`Batcher::push_run`]) through the batcher
    /// and, when enabled, the reliable envelope.
    pub(crate) fn send_run(&mut self, ctx: &mut Ctx<'_, SysMessage>, legs: &[(NodeId, Arc<[GdsMessage]>)]) {
        let mut link = self.reliable.as_mut();
        let out = &mut |flush| wire_out(ctx, flush, link.as_deref_mut());
        self.batcher.push_run(legs, out);
    }

    /// The three timers the transport owns; any other tag is not its.
    pub(crate) fn on_timer(&mut self, ctx: &mut Ctx<'_, SysMessage>, tag: u64) {
        match tag {
            LOSS_TAG => {
                if let Some(link) = &mut self.reliable {
                    link.on_timer(ctx);
                }
            }
            BATCH_TAG => {
                let mut link = self.reliable.as_mut();
                self.batcher
                    .flush(&mut |flush| wire_out(ctx, flush, link.as_deref_mut()));
            }
            ACK_TAG => self.acks.flush(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_types::{HostName, MessageId};
    use gsa_wire::XmlElement;
    use proptest::prelude::*;

    /// The per-item dispatcher the run walk replaced, kept as the
    /// reference it must agree with: every event is pushed on its own,
    /// and an edge's buffer holds copies.
    struct ItemBatcher {
        cap: usize,
        pending: BTreeMap<NodeId, Vec<GdsMessage>>,
        armed: bool,
    }

    impl ItemBatcher {
        fn new(cap: usize) -> Self {
            ItemBatcher {
                cap,
                pending: BTreeMap::new(),
                armed: false,
            }
        }

        fn push(&mut self, node: NodeId, msg: GdsMessage, out: &mut impl FnMut(Flush)) {
            let buf = self.pending.entry(node).or_default();
            buf.push(msg);
            if buf.len() >= self.cap {
                let items = self.pending.remove(&node).expect("just pushed");
                out(Flush::Send(node, Self::frame(items)));
            } else if !self.armed {
                self.armed = true;
                out(Flush::Arm);
            }
        }

        /// A run, item by item across its legs.
        fn push_run(&mut self, legs: &[(NodeId, Arc<[GdsMessage]>)], out: &mut impl FnMut(Flush)) {
            let n = legs.first().map_or(0, |(_, frame)| frame.len());
            for i in 0..n {
                for (node, frame) in legs {
                    self.push(*node, frame[i].clone(), out);
                }
            }
        }

        fn flush(&mut self, out: &mut impl FnMut(Flush)) {
            self.armed = false;
            for (node, items) in std::mem::take(&mut self.pending) {
                out(Flush::Send(node, Self::frame(items)));
            }
        }

        fn frame(mut items: Vec<GdsMessage>) -> GdsMessage {
            match items.len() {
                1 => items.pop().expect("one item"),
                _ => GdsMessage::Batch(items.into()),
            }
        }
    }

    /// The form a leg's frame carries its items in.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Form {
        Broadcast,
        Deliver,
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Step {
        /// One event dispatched on its own.
        One(u32),
        /// A flood run of `len` items; each leg an edge and its form.
        /// Runs over different edge sets in a row are pruned sub-runs.
        Run { len: usize, legs: Vec<(u32, Form)> },
        /// The end of the instant: the `BATCH_TAG` timer fires.
        EndOfInstant,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Scenario {
        /// The wire's batch cap: the XML wire's one, or the binary
        /// wire's [`BATCH_MAX_EVENTS`].
        cap: usize,
        /// Events each edge holds before the first step.
        fills: Vec<usize>,
        /// Edges behind a reliable link: every frame takes a sequence
        /// number there.
        reliable: Vec<bool>,
        steps: Vec<Step>,
    }

    /// What the wire saw: a frame to an edge — a batch or one plain
    /// event, its events by form and id — sent in the instant or at its
    /// end, with its sequence number on a reliable edge; or the timer
    /// set.
    #[derive(Debug, Clone, PartialEq)]
    enum Seen {
        Frame {
            edge: u32,
            batch: bool,
            events: Vec<(Form, u64)>,
            at_end: bool,
            seq: Option<u64>,
        },
        Arm,
    }

    fn form_and_id(msg: &GdsMessage) -> (Form, u64) {
        match msg {
            GdsMessage::Broadcast { id, .. } => (Form::Broadcast, id.as_u64()),
            GdsMessage::Deliver { id, .. } => (Form::Deliver, id.as_u64()),
            other => panic!("only events are dispatched, not {other}"),
        }
    }

    /// A deterministic stream of draws (splitmix64).
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    /// On either wire's cap, runs of 1 to 2.5 × the cap items (1 or 2
    /// on the XML wire) over up to six edges, from a random starting
    /// fill below the cap per edge, with mixed forms, lone events
    /// between runs, ends of instants and reliable edges: every starting
    /// fill can reach a full-cap flush.
    fn scenario(seed: u64) -> Scenario {
        let mut d = Draws(seed);
        let cap = [1, BATCH_MAX_EVENTS][d.below(2)];
        let edges = 1 + d.below(6);
        let fills = (0..edges).map(|_| d.below(cap)).collect();
        let reliable = (0..edges).map(|_| d.below(2) == 1).collect();
        let steps = (0..1 + d.below(8))
            .map(|_| match d.below(8) {
                0 => Step::EndOfInstant,
                1 => Step::One(d.below(edges) as u32),
                _ => {
                    let len = 1 + d.below(cap * 5 / 2);
                    let legs = (0..edges as u32)
                        .filter_map(|e| {
                            let form = [Form::Broadcast, Form::Deliver][d.below(2)];
                            (d.below(4) != 0).then_some((e, form))
                        })
                        .collect();
                    Step::Run { len, legs }
                }
            })
            .collect();
        Scenario {
            cap,
            fills,
            reliable,
            steps,
        }
    }

    fn event(id: u64, form: Form) -> GdsMessage {
        let (id, origin) = (MessageId::from_raw(id), HostName::new("Hamilton"));
        let payload = XmlElement::new("event").into();
        match form {
            Form::Broadcast => GdsMessage::Broadcast {
                id,
                origin,
                payload,
            },
            Form::Deliver => GdsMessage::Deliver {
                id,
                origin,
                payload,
            },
        }
    }

    /// Plays a scenario through one dispatcher and records the wire.
    fn play<B>(
        scn: &Scenario,
        batcher: &mut B,
        push: impl Fn(&mut B, NodeId, GdsMessage, &mut dyn FnMut(Flush)),
        push_run: impl Fn(&mut B, &[(NodeId, Arc<[GdsMessage]>)], &mut dyn FnMut(Flush)),
        flush: impl Fn(&mut B, &mut dyn FnMut(Flush)),
    ) -> Vec<Seen> {
        let mut seen = Vec::new();
        let mut seqs = vec![0u64; scn.fills.len()];
        let mut record = |flush: Flush, at_end: bool| {
            seen.push(match flush {
                Flush::Arm => Seen::Arm,
                Flush::Send(node, frame) => {
                    let edge = node.as_u32();
                    let seq = scn.reliable[edge as usize].then(|| {
                        seqs[edge as usize] += 1;
                        seqs[edge as usize]
                    });
                    let (batch, events) = match &frame {
                        GdsMessage::Batch(items) => (true, items.iter().map(form_and_id).collect()),
                        one => (false, vec![form_and_id(one)]),
                    };
                    Seen::Frame {
                        edge,
                        batch,
                        events,
                        at_end,
                        seq,
                    }
                }
            })
        };
        let mut next_id = 0u64;
        let mut fresh = || {
            next_id += 1;
            next_id
        };
        for (edge, &fill) in (0u32..).zip(&scn.fills) {
            for _ in 0..fill {
                let msg = event(fresh(), Form::Broadcast);
                push(batcher, NodeId::from_raw(edge), msg, &mut |f| record(f, false));
            }
        }
        for step in &scn.steps {
            match step {
                Step::One(edge) => {
                    let msg = event(fresh(), Form::Deliver);
                    push(batcher, NodeId::from_raw(*edge), msg, &mut |f| record(f, false));
                }
                Step::Run { len, legs } => {
                    let ids: Vec<u64> = (0..*len).map(|_| fresh()).collect();
                    let frame = |form| ids.iter().map(|&id| event(id, form)).collect();
                    let (broadcast, deliver): (Arc<[GdsMessage]>, Arc<[GdsMessage]>) =
                        (frame(Form::Broadcast), frame(Form::Deliver));
                    let legs: Vec<(NodeId, Arc<[GdsMessage]>)> = legs
                        .iter()
                        .map(|&(edge, form)| {
                            let frame = match form {
                                Form::Broadcast => &broadcast,
                                Form::Deliver => &deliver,
                            };
                            (NodeId::from_raw(edge), frame.clone())
                        })
                        .collect();
                    push_run(batcher, &legs, &mut |f| record(f, false));
                }
                Step::EndOfInstant => flush(batcher, &mut |f| record(f, true)),
            }
        }
        flush(batcher, &mut |f| record(f, true));
        seen
    }

    /// Where the run walk and the per-item reference part ways, if they
    /// do: the two records.
    fn disagreement(scn: &Scenario) -> Option<(Vec<Seen>, Vec<Seen>)> {
        let walked = play(
            scn,
            &mut Batcher::new(scn.cap),
            |b, node, msg, out| b.push(node, msg, &mut |f| out(f)),
            |b, legs, out| b.push_run(legs, &mut |f| out(f)),
            |b, out| b.flush(&mut |f| out(f)),
        );
        let reference = play(
            scn,
            &mut ItemBatcher::new(scn.cap),
            |b, node, msg, out| b.push(node, msg, &mut |f| out(f)),
            |b, legs, out| b.push_run(legs, &mut |f| out(f)),
            |b, out| b.flush(&mut |f| out(f)),
        );
        (walked != reference).then_some((walked, reference))
    }

    /// The smaller scenarios one step from `scn`: a step, a leg, an item,
    /// a starting event or a reliable link fewer.
    fn smaller(scn: &Scenario) -> Vec<Scenario> {
        let mut out = Vec::new();
        let mut with = |change: &dyn Fn(&mut Scenario)| {
            let mut s = scn.clone();
            change(&mut s);
            if s != *scn {
                out.push(s);
            }
        };
        for i in 0..scn.steps.len() {
            with(&|s| {
                s.steps.remove(i);
            });
            with(&|s| {
                if let Step::Run { len, .. } = &mut s.steps[i] {
                    *len = (*len).max(2) - 1;
                }
            });
            let legs = match &scn.steps[i] {
                Step::Run { legs, .. } => legs.len(),
                _ => 0,
            };
            for l in 0..legs {
                with(&|s| {
                    if let Step::Run { legs, .. } = &mut s.steps[i] {
                        legs.remove(l);
                    }
                });
            }
        }
        for e in 0..scn.fills.len() {
            with(&|s| s.fills[e] = s.fills[e].saturating_sub(1));
            with(&|s| s.reliable[e] = false);
        }
        out
    }

    /// Greedily shrinks a failing scenario until no one-step-smaller
    /// scenario still fails.
    fn shrink(mut scn: Scenario) -> Scenario {
        while let Some(next) = smaller(&scn)
            .into_iter()
            .find(|s| disagreement(s).is_some())
        {
            scn = next;
        }
        scn
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Dispatching a run by counting sends the same frames, to the
        /// same edges, at the same points, and sets the timer at the
        /// same point, as pushing its items one by one. A failure
        /// shrinks to a minimal scenario before it is reported.
        #[test]
        fn run_dispatch_matches_the_per_item_reference(seed in 0u64..=u64::MAX) {
            let scn = scenario(seed);
            if disagreement(&scn).is_some() {
                let min = shrink(scn);
                let (walked, reference) = disagreement(&min).expect("still fails");
                prop_assert!(
                    false,
                    "minimal scenario {min:#?}\nrun walk {walked:#?}\nreference {reference:#?}"
                );
            }
        }
    }

    /// A buffer holding exactly one whole shared frame sends that frame,
    /// not a copy; a sub-range or a concatenation is a new frame.
    #[test]
    fn a_whole_shared_frame_goes_out_as_itself() {
        let frame: Arc<[GdsMessage]> = (1..=3).map(|id| event(id, Form::Broadcast)).collect();
        let node = NodeId::from_raw(0);
        let mut batcher = Batcher::new(BATCH_MAX_EVENTS);
        let mut sent = Vec::new();
        batcher.push_run(&[(node, frame.clone())], &mut |_| {});
        batcher.flush(&mut |f| sent.push(f));
        let [Flush::Send(_, GdsMessage::Batch(out))] = sent.as_slice() else {
            panic!("one batch frame, got {sent:?}");
        };
        assert!(Arc::ptr_eq(out, &frame));

        sent.clear();
        batcher.push(node, event(9, Form::Deliver), &mut |_| {});
        batcher.push_run(&[(node, frame.clone())], &mut |_| {});
        batcher.flush(&mut |f| sent.push(f));
        let [Flush::Send(_, GdsMessage::Batch(out))] = sent.as_slice() else {
            panic!("one batch frame, got {sent:?}");
        };
        assert_eq!(out.len(), 4);
        assert!(!Arc::ptr_eq(out, &frame));
    }
}
