//! The flood machine: the paper's broadcast (§4, Figure 2), once per
//! node behind duplicate suppression. It reads a frame's items by
//! reference; consecutive items with one decision form a run, and every
//! edge of a run is sent one shared frame — the received frame itself
//! when the run is all of it and goes out as it came, otherwise one
//! frame built per run and form (`Broadcast`s built from publishes,
//! `Deliver`s to local servers, a sub-run). A lone message is a run of
//! one and goes out plain. Recent floods are kept for replay, one
//! entry per run.

use crate::interest::Interest;
use crate::membership::Membership;
use crate::message::GdsMessage;
use crate::node::GdsEffects;
use crate::seen::SeenIds;
use gsa_types::{CounterId, Counts, HostName, MessageId};
use gsa_wire::Payload;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// How many recently flooded events a node keeps for replay to an
/// adopted child. Only needs to cover the traffic of one outage window:
/// an event older than that already reached the child through its former
/// parent (per-edge delivery is reliable when the layer is on).
pub(crate) const RECENT_CAP: usize = 128;

/// Floods remembered for replay to an adopted child: the `Broadcast`s
/// of a range of a shared frame (one reference per run, however many
/// of its items the ring holds), or the parts of one that arrived or
/// was built alone.
pub(crate) enum Recent {
    Shared(Arc<[GdsMessage]>, Range<usize>),
    Lone(MessageId, HostName, Payload),
}

impl Recent {
    fn lone(msg: &GdsMessage) -> Self {
        let GdsMessage::Broadcast { id, origin, payload } = msg else {
            unreachable!("a flood run holds broadcasts, not {msg}");
        };
        Recent::Lone(*id, origin.clone(), payload.clone())
    }

    /// The floods it holds.
    fn len(&self) -> usize {
        match self {
            Recent::Shared(_, items) => items.len(),
            Recent::Lone(..) => 1,
        }
    }

    fn replay(&self, child: &HostName, effects: &mut GdsEffects) {
        match self {
            Recent::Shared(frame, items) => {
                for item in &frame[items.clone()] {
                    effects.send(child.clone(), item.clone());
                }
            }
            Recent::Lone(id, origin, payload) => {
                let (id, origin, payload) = (*id, origin.clone(), payload.clone());
                effects.send(child.clone(), GdsMessage::Broadcast { id, origin, payload });
            }
        }
    }
}

/// Consecutive flood items of one frame with one flood decision.
#[derive(Clone, Copy)]
struct Run {
    /// The items' indices in the frame.
    start: usize,
    end: usize,
    /// Where the run's `Broadcast`s start in [`Scratch::built`] when
    /// they were built, not received as they go out.
    built: Option<usize>,
}

/// The reused buffers of [`Flood::forward`]: the flood decision of the
/// current item and of the run being gathered, as edge positions in
/// [`Membership::edges`], and the `Broadcast`s built from publishes or
/// from payloads frozen on entry.
#[derive(Default)]
struct Scratch {
    edges: Vec<u32>,
    run_edges: Vec<u32>,
    built: Vec<GdsMessage>,
}

/// The items of a received frame, or of one message (a frame of one,
/// `shared` is `None`), and the neighbour they came from.
#[derive(Clone, Copy)]
pub(crate) struct Frame<'a> {
    pub(crate) from: &'a HostName,
    pub(crate) shared: Option<&'a Arc<[GdsMessage]>>,
    pub(crate) items: &'a [GdsMessage],
}

/// A node's flood state.
#[derive(Default)]
pub(crate) struct Flood {
    /// Duplicate suppression: every (origin, message id) flooded, kept
    /// as id runs per origin, one run for an in-order flood.
    pub(crate) seen: SeenIds,
    /// The last [`RECENT_CAP`] floods, oldest first and one entry per
    /// run, replayed to an adopted child: a broadcast in flight may miss
    /// the moved subtree.
    pub(crate) recent: VecDeque<Recent>,
    /// The floods `recent` holds: at most [`RECENT_CAP`].
    pub(crate) recent_items: usize,
    scratch: Scratch,
    /// Flood payloads are frozen to binary once on entry (wire v2), so
    /// every forwarded copy shares one encoded buffer.
    pub(crate) encode_once: bool,
}

impl Flood {
    /// Replays the remembered floods to an adopted child, whose dedup
    /// absorbs what it already has.
    pub(crate) fn replay(&self, child: &HostName, effects: &mut GdsEffects) {
        for entry in &self.recent {
            entry.replay(child, effects);
        }
    }

    /// Remembers a run's floods, first dropping the oldest past
    /// [`RECENT_CAP`] — whole entries, then the front of the oldest one
    /// left — so the ring never grows past the cap.
    fn remember(&mut self, mut entry: Recent) {
        if let Recent::Shared(_, items) = &mut entry {
            items.start = items.start.max(items.end.saturating_sub(RECENT_CAP));
        }
        self.recent_items += entry.len();
        while self.recent_items > RECENT_CAP {
            let excess = self.recent_items - RECENT_CAP;
            match self.recent.front_mut() {
                Some(Recent::Shared(_, items)) if items.len() > excess => {
                    items.start += excess;
                    self.recent_items = RECENT_CAP;
                }
                _ => {
                    let oldest = self.recent.pop_front().expect("past the cap, so not empty");
                    self.recent_items -= oldest.len();
                }
            }
        }
        self.recent.push_back(entry);
    }

    /// Floods the frame's items from `start` on, in order, up to the
    /// first that is not a flood item, and returns that one's index for
    /// the caller to handle alone; the run before it is closed first.
    pub(crate) fn forward(
        &mut self,
        frame: Frame<'_>,
        start: usize,
        members: &Membership,
        interest: &mut Interest,
        counts: &mut Counts,
        effects: &mut GdsEffects,
    ) -> Option<usize> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.built.clear();
        let mut run: Option<Run> = None;
        // The origin and sender of the run's last item: a flood node's
        // decision reads nothing else, so the next item with both reuses
        // the run's edges.
        let mut last: Option<(&HostName, bool)> = None;
        let reads_events = interest.reads_events();
        let mut stop = None;
        for (i, item) in frame.items.iter().enumerate().skip(start) {
            let (publish, id, origin, payload) = match item {
                // `from` is the publishing Greenstone server.
                GdsMessage::Publish { id, payload } => (true, *id, frame.from, payload),
                GdsMessage::Broadcast { id, origin, payload } => (false, *id, origin, payload),
                _ => {
                    stop = Some(i);
                    break;
                }
            };
            if !self.seen.insert(origin, id.as_u64()) {
                self.close_run(run.take(), frame, &scratch, members, effects);
                continue;
            }
            // A publish becomes the `Broadcast` every hop forwards, and a
            // v2 node serialises a payload once, here: every frame that
            // carries the item shares the one buffer.
            let built = (publish || (self.encode_once && !payload.is_frozen())).then(|| {
                let mut payload = payload.clone();
                if self.encode_once {
                    payload.freeze();
                }
                scratch.built.push(GdsMessage::Broadcast {
                    id,
                    origin: origin.clone(),
                    payload,
                });
                scratch.built.len() - 1
            });
            let payload = match built.map(|b| &scratch.built[b]) {
                Some(GdsMessage::Broadcast { payload, .. }) => payload,
                _ => payload,
            };
            let same =
                !reads_events && run.is_some_and(|r| r.end == i) && last == Some((origin, publish));
            if !same {
                let came_from = (!publish).then_some(frame.from);
                decide(&mut scratch.edges, origin, payload, came_from, members, interest, counts);
            }
            last = Some((origin, publish));
            // Compared item by item: comparing two empty slices with
            // `==` costs a library call, and a leaf's decision is empty.
            let extends = run.is_some_and(|r| r.end == i && r.built.is_some() == built.is_some())
                && (same || scratch.edges.iter().eq(&scratch.run_edges));
            if !extends {
                self.close_run(run.take(), frame, &scratch, members, effects);
                if !same {
                    std::mem::swap(&mut scratch.edges, &mut scratch.run_edges);
                }
            }
            let run = run.get_or_insert(Run {
                start: i,
                end: i,
                built,
            });
            run.end = i + 1;
        }
        self.close_run(run, frame, &scratch, members, effects);
        self.scratch = scratch;
        stop
    }

    /// Sends a run every edge of its decision (`scratch.run_edges`) and
    /// remembers its items. A local server gets the `Deliver` form, the
    /// parent and the children the `Broadcast` form. A run of one goes
    /// out as the one message; a longer run goes out as one shared frame
    /// per form — the received frame when the run is all of it and was
    /// received as it goes out, otherwise a frame built here — and its
    /// entries are a stretch of [`GdsEffects::runs`].
    fn close_run(
        &mut self,
        run: Option<Run>,
        frame: Frame<'_>,
        scratch: &Scratch,
        members: &Membership,
        effects: &mut GdsEffects,
    ) {
        let Some(run) = run else {
            return;
        };
        let n = run.end - run.start;
        let src = match run.built {
            Some(b) => &scratch.built[b..b + n],
            None => &frame.items[run.start..run.end],
        };
        let edges = &scratch.run_edges;
        let locals = members.local.len();
        // A longer run goes out as one frame per form, built once.
        let broadcast = (n > 1
            && (run.built.is_some() || edges.last().is_some_and(|&e| e as usize >= locals)))
        .then(|| match frame.shared {
            Some(whole) if run.built.is_none() && n == whole.len() => whole.clone(),
            _ => src.iter().cloned().collect(),
        });
        let deliver = (n > 1 && edges.first().is_some_and(|&e| (e as usize) < locals))
            .then(|| src.iter().map(deliver_form).collect::<Arc<[GdsMessage]>>());
        let first = effects.outbound.len();
        let mut wanted = edges.iter().peekable();
        for (pos, edge) in (0u32..).zip(members.edges()) {
            let Some(&&next) = wanted.peek() else {
                break;
            };
            if next != pos {
                continue;
            }
            wanted.next();
            let msg = match ((pos as usize) < locals, &deliver, &broadcast) {
                (true, Some(frame), _) | (false, _, Some(frame)) => {
                    GdsMessage::Batch(frame.clone())
                }
                (true, None, _) => deliver_form(&src[0]),
                (false, _, None) => src[0].clone(),
            };
            effects.send(edge.clone(), msg);
        }
        if n > 1 && effects.outbound.len() > first {
            effects.runs.push(first..effects.outbound.len());
        }
        match (run.built, frame.shared, broadcast) {
            (None, Some(shared), _) => {
                self.remember(Recent::Shared(shared.clone(), run.start..run.end));
            }
            (Some(_), _, Some(built)) => self.remember(Recent::Shared(built, 0..n)),
            _ => {
                for item in src {
                    self.remember(Recent::lone(item));
                }
            }
        }
    }
}

/// The tree flood's decision for one event, as positions in
/// [`Membership::edges`]: every local server but the origin, the parent
/// and every child but the neighbour the event came from — less the
/// downward edges the interest machine's verdict skips, and the parent
/// when the verdict confines the event to this subtree.
fn decide(
    edges: &mut Vec<u32>,
    origin: &HostName,
    payload: &Payload,
    came_from: Option<&HostName>,
    members: &Membership,
    interest: &mut Interest,
    counts: &mut Counts,
) {
    edges.clear();
    let verdict = interest.verdict(payload);
    let (mut pos, mut pruned, mut confined) = (0u32, 0, 0);
    for gs in &members.local {
        if gs != origin {
            if verdict.skips(gs) {
                pruned += 1;
            } else {
                edges.push(pos);
            }
        }
        pos += 1;
    }
    if let Some(parent) = &members.parent {
        if Some(parent) != came_from {
            if verdict.confined {
                confined += 1;
            } else {
                edges.push(pos);
            }
        }
        pos += 1;
    }
    for child in &members.children {
        if Some(child) != came_from {
            if verdict.skips(child) {
                pruned += 1;
            } else {
                edges.push(pos);
            }
        }
        pos += 1;
    }
    counts.add(CounterId::GDS_PRUNED_EDGES, pruned);
    counts.add(CounterId::GDS_RENDEZVOUS_CONFINED, confined);
}

/// The final delivery of a flooded `Broadcast` to a local server.
fn deliver_form(msg: &GdsMessage) -> GdsMessage {
    let GdsMessage::Broadcast { id, origin, payload } = msg else {
        unreachable!("a flood run holds broadcasts, not {msg}");
    };
    GdsMessage::Deliver { id: *id, origin: origin.clone(), payload: payload.clone() }
}
