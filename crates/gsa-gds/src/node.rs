//! The GDS directory-server state machine.

use crate::message::GdsMessage;
use crate::seen::SeenIds;
use gsa_types::{CounterId, Counts, HostName, MessageId};
use gsa_wire::{InterestSummary, Payload, ATTR_KEY_KIND, ATTR_META_PREFIX};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// How many recently flooded events a node keeps for replay to an
/// adopted child. Only needs to cover the traffic of one outage window:
/// an event older than that already reached the child through its former
/// parent (per-edge delivery is reliable when the layer is on).
const RECENT_CAP: usize = 128;

/// Most `(attribute, value)` subgroup grants a node hands to one child.
/// Grants are routing state replicated down an edge; the cap keeps a
/// pathological subscription mix from turning every beacon heal into
/// a bulk state transfer. Excess candidates simply stay ungranted —
/// events for them flood from the root as before, which is always safe.
const MAX_GRANTS: usize = 8;

/// A grant set: attribute key → values the holder owns exclusively.
type GrantMap = BTreeMap<String, BTreeSet<String>>;

/// A message to be sent to another network participant (GDS node or
/// Greenstone server — both are addressed by host name).
#[derive(Debug, Clone, PartialEq)]
pub struct GdsOutbound {
    /// Destination.
    pub to: HostName,
    /// The message.
    pub msg: GdsMessage,
}

/// What a [`GdsNode`] wants done after handling one input.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GdsEffects {
    /// Messages to transmit.
    pub outbound: Vec<GdsOutbound>,
    /// The stretches of `outbound` that carry one flood run each (see
    /// [`GdsNode`]): every entry of a stretch is a [`GdsMessage::Batch`]
    /// of the run's items in the form its edge receives, all of one
    /// length. Sent as they stand, the entries deliver exactly the run;
    /// a transport that batches per edge walks the run's items across
    /// the stretch's edges instead, item by item, to form the frames the
    /// items would have formed one by one. Every entry outside a stretch
    /// is one message.
    pub runs: Vec<Range<usize>>,
    /// Multicast targets that could not be resolved anywhere in the tree.
    pub undeliverable: Vec<HostName>,
}

impl GdsEffects {
    fn send(&mut self, to: HostName, msg: GdsMessage) {
        self.outbound.push(GdsOutbound { to, msg });
    }

    /// Empties the lists, keeping their capacity — callers that
    /// process effects per message reuse one buffer across messages
    /// instead of allocating fresh vectors each time.
    pub fn clear(&mut self) {
        self.outbound.clear();
        self.runs.clear();
        self.undeliverable.clear();
    }
}

/// A flood remembered for replay to an adopted child: the `Broadcast`
/// at an index of a shared frame (one reference, however many of the
/// frame's items the ring holds), or the parts of one that arrived or
/// was built alone.
#[derive(Debug)]
enum Recent {
    Shared(Arc<[GdsMessage]>, usize),
    Lone(MessageId, HostName, Payload),
}

impl Recent {
    fn lone(msg: &GdsMessage) -> Self {
        match msg {
            GdsMessage::Broadcast {
                id,
                origin,
                payload,
            } => Recent::Lone(*id, origin.clone(), payload.clone()),
            other => unreachable!("a flood run holds broadcasts, not {other}"),
        }
    }

    fn broadcast(&self) -> GdsMessage {
        match self {
            Recent::Shared(frame, i) => frame[*i].clone(),
            Recent::Lone(id, origin, payload) => GdsMessage::Broadcast {
                id: *id,
                origin: origin.clone(),
                payload: payload.clone(),
            },
        }
    }
}

/// Consecutive flood items of one frame with one flood decision.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// The items' indices in the frame.
    start: usize,
    end: usize,
    /// Where the run's `Broadcast`s start in [`ForwardScratch::built`]
    /// when they were built, not received as they go out.
    built: Option<usize>,
}

/// The reused buffers of [`GdsNode::forward`]: the flood decision of
/// the current item and of the run being gathered, as edge positions
/// (local servers, then the parent, then the children), and the
/// `Broadcast`s built from publishes or from payloads frozen on entry.
#[derive(Debug, Default)]
struct ForwardScratch {
    edges: Vec<u32>,
    run_edges: Vec<u32>,
    built: Vec<GdsMessage>,
}

/// One auxiliary directory server in the GDS tree.
///
/// The node knows its parent, its children, the Greenstone servers
/// registered directly with it (`local`), and — via registration
/// propagation — which child subtree every Greenstone server below it
/// lives in. A stratum-1 node (no parent) therefore knows the entire
/// network, exactly as Section 4.1 describes.
///
/// The node forwards the frame it received. It reads a frame's items
/// by reference and decides each flood item as the paper does (local
/// servers, then the parent, then the children); consecutive items with
/// one decision form a run, and every edge of a run is sent one shared
/// frame: the received frame itself when the run is all of it and goes
/// out as it came, otherwise one frame built per run and form (the
/// `Broadcast`s built from publishes, the `Deliver`s to local servers,
/// a sub-run). A lone message is a run of one and goes out plain.
pub struct GdsNode {
    name: HostName,
    stratum: u8,
    parent: Option<HostName>,
    children: BTreeSet<HostName>,
    local: BTreeSet<HostName>,
    /// Greenstone server -> next hop (self for local, else a child).
    subtree: BTreeMap<HostName, HostName>,
    /// Duplicate-suppression memory: (origin, message id), probed on
    /// every flood hop and never forgotten — kept as id runs per origin,
    /// so an in-order flood costs one run however long it lasts.
    seen: SeenIds,
    /// Recently flooded events as `Broadcast`s, oldest first, at most
    /// [`RECENT_CAP`] (so at most that many frames kept alive); replayed
    /// to an adopted child to close the reparenting race where an
    /// in-flight broadcast misses the moved subtree.
    recent: VecDeque<Recent>,
    /// Reused buffers of the flood path.
    scratch: ForwardScratch,
    /// When true (the deployment speaks wire format v2), flood
    /// payloads are frozen to their binary bytes once on entry, so
    /// every forwarded copy shares one encoded buffer instead of
    /// re-serialising per edge.
    encode_once: bool,
    /// When true, flood forwarding consults `edge_summaries` and skips
    /// edges whose subtree cannot match the event. Off by default: the
    /// paper's full flood, byte-identical message counts.
    pruning: bool,
    /// Newest interest summary per direct edge (local Greenstone server
    /// or child GDS node), with the sender's version. An edge with no
    /// entry is treated as wildcard — never pruned — which is what makes
    /// loss, reordering, restarts and reparenting safe: forgetting a
    /// summary only ever widens delivery.
    edge_summaries: BTreeMap<HostName, (u64, InterestSummary)>,
    /// Version of this node's own upward summary announcements.
    agg_version: u64,
    /// What this node last announced to its parent (dedup of no-op
    /// refreshes). `None` until the first announcement: the parent's
    /// wildcard-by-absence default already covers us, so an initial
    /// wildcard aggregate is never sent.
    last_sent_summary: Option<InterestSummary>,
    /// The attribute keys a flood must read off the event, sorted: the
    /// union of digest keys across all edge summaries and of the held
    /// grants' keys, rebuilt whenever either changes rather than per
    /// flood. When it is empty the attribute machinery is provably a
    /// no-op and the flood takes exactly the PR 5 code path.
    requested_keys: Vec<String>,
    /// Scratch for the prune anchor (`host.name` of the event's origin),
    /// reused across floods so the anchor costs no allocation per hop.
    anchor_scratch: String,
    /// Opt-in rendezvous placement (off by default — the paper's flood).
    rendezvous: bool,
    /// Grants this node holds from its parent: for every `(key, value)`
    /// listed here the parent proved no interest exists outside this
    /// node's subtree, so matching events need not be forwarded upward.
    held_grants: GrantMap,
    /// Version of the newest grant accepted from the parent. Reset on
    /// reparent (versions are per-granter).
    held_grant_version: u64,
    /// Grants currently extended to each child (dedup of no-op re-sends).
    granted: BTreeMap<HostName, GrantMap>,
    /// Version counter for outgoing grants (monotonic per this node).
    grant_version: u64,
    /// Popularity of each `(attribute, value)` subgroup, counted from
    /// accepted summary aggregations; ranks grant candidates so the
    /// [`MAX_GRANTS`] budget goes to the hottest subgroups first.
    hot_hits: BTreeMap<String, BTreeMap<String, u64>>,
    /// The aggregate may have changed since the last upward
    /// announcement: registrations and edge updates only mark this, and
    /// the driver sends at most one announcement per burst via
    /// [`GdsNode::flush_deferred_announcement`].
    announce_dirty: bool,
    /// Pruned edges, accepted summary updates, confined hops and issued
    /// grants since the driver last drained [`GdsNode::counts_mut`].
    counts: Counts,
}

impl fmt::Debug for GdsNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GdsNode")
            .field("name", &self.name)
            .field("stratum", &self.stratum)
            .field("parent", &self.parent)
            .field("children", &self.children.len())
            .field("local", &self.local.len())
            .field("subtree", &self.subtree.len())
            .finish()
    }
}

impl GdsNode {
    /// Creates a node on the given stratum. Stratum 1 nodes have no
    /// parent.
    pub fn new(name: impl Into<HostName>, stratum: u8, parent: Option<HostName>) -> Self {
        GdsNode {
            name: name.into(),
            stratum,
            parent,
            children: BTreeSet::new(),
            local: BTreeSet::new(),
            subtree: BTreeMap::new(),
            seen: SeenIds::default(),
            recent: VecDeque::new(),
            scratch: ForwardScratch::default(),
            encode_once: false,
            pruning: false,
            edge_summaries: BTreeMap::new(),
            agg_version: 0,
            last_sent_summary: None,
            requested_keys: Vec::new(),
            anchor_scratch: String::new(),
            rendezvous: false,
            held_grants: GrantMap::new(),
            held_grant_version: 0,
            granted: BTreeMap::new(),
            grant_version: 0,
            hot_hits: BTreeMap::new(),
            announce_dirty: false,
            counts: Counts::default(),
        }
    }

    /// Enables encode-once forwarding: flood payloads are frozen to
    /// binary on entry and every edge shares the same buffer. Off by
    /// default (v1 behaviour is byte-identical to the paper's text
    /// wire).
    pub fn set_encode_once(&mut self, enabled: bool) {
        self.encode_once = enabled;
    }

    /// Enables subscription-aware flood pruning. Off by default: with
    /// pruning disabled the node neither consults nor announces interest
    /// summaries, so the flood is the paper's full broadcast and message
    /// counts are untouched.
    pub fn set_pruning(&mut self, enabled: bool) {
        self.pruning = enabled;
    }

    /// The newest interest summary recorded for a direct edge, if any.
    pub fn edge_summary(&self, edge: &HostName) -> Option<&InterestSummary> {
        self.edge_summaries.get(edge).map(|(_, s)| s)
    }

    /// All direct edges with a recorded interest summary, in edge-name
    /// order. Edges absent here are treated as wildcard by the flood.
    pub fn edge_summaries(&self) -> impl Iterator<Item = (&HostName, &InterestSummary)> {
        self.edge_summaries.iter().map(|(edge, (_, s))| (edge, s))
    }

    /// The conservative union of this node's whole subtree: every direct
    /// edge's summary, with any edge lacking one widening the result to
    /// the wildcard (unknown means "could match anything").
    pub fn aggregate_summary(&self) -> InterestSummary {
        let mut agg = InterestSummary::empty();
        for member in self.local.iter().chain(self.children.iter()) {
            match self.edge_summaries.get(member) {
                Some((_, summary)) => agg.union_with(summary),
                None => return InterestSummary::wildcard(),
            }
            if agg.is_wildcard() {
                return agg;
            }
        }
        agg
    }

    /// Id runs the duplicate-suppression memory holds: one per origin
    /// while floods arrive in order, one more per id still missing.
    pub fn seen_runs(&self) -> usize {
        self.seen.runs()
    }

    /// What the node counted since its driver last drained this (the
    /// actor layer turns it into metrics).
    pub fn counts_mut(&mut self) -> &mut Counts {
        &mut self.counts
    }

    /// Builds the upward `SummaryUpdate` for `agg`, bumping the version.
    /// When the aggregate equals what was last announced, the previously
    /// sent summary object is reused so its frozen binary encoding (one
    /// `Arc`'d buffer) is shared instead of re-serialised — beacon and
    /// reparent re-announcements are byte-identical by definition.
    fn announce(&mut self, agg: InterestSummary) -> Option<GdsOutbound> {
        let parent = self.parent.clone()?;
        self.agg_version += 1;
        let summary = match &self.last_sent_summary {
            Some(prev) if *prev == agg => prev.clone(),
            _ => {
                self.last_sent_summary = Some(agg.clone());
                agg
            }
        };
        Some(GdsOutbound {
            to: parent,
            msg: GdsMessage::SummaryUpdate {
                from: self.name.clone(),
                version: self.agg_version,
                summary,
            },
        })
    }

    /// An unconditional re-announcement of the current aggregate to the
    /// parent (the beacon heal of [`GdsNode::summary_refresh`], or
    /// telling a brand-new parent after a reparent). Versions bump on
    /// every announcement so the receiver — which keeps only the newest
    /// per edge — always accepts it. Returns
    /// `None` when pruning is off, the node is the root, or there has
    /// never been anything better than the parent's wildcard-by-absence
    /// default to say.
    pub fn summary_announcement(&mut self) -> Option<GdsOutbound> {
        if !self.pruning {
            return None;
        }
        self.parent.as_ref()?;
        let agg = self.aggregate_summary();
        if self.last_sent_summary.is_none() && agg.is_wildcard() {
            return None;
        }
        self.announce(agg)
    }

    /// The beacon heal: a [`GdsNode::summary_announcement`] unless the
    /// parent's beacon ([`GdsNode::beacons`]) shows it holds the newest
    /// version sent (`held`, 0 for none). A parent that forgot this node
    /// holds nothing, and one whose update was lost holds an older
    /// version; an idle edge re-announces nothing. A node whose
    /// aggregate is empty from the start is never marked dirty, so its
    /// first announcement is this one.
    pub fn summary_refresh(&mut self, held: u64) -> Option<GdsOutbound> {
        if held != 0 && held >= self.agg_version {
            return None;
        }
        self.summary_announcement()
    }

    /// Whether a deferred announcement is waiting to be flushed.
    pub fn announce_pending(&self) -> bool {
        self.announce_dirty
    }

    /// Flushes a pending deferred announcement: at most one upward
    /// `SummaryUpdate` no matter how many edge changes marked the node
    /// dirty since the last flush (and none at all if the burst cancelled
    /// out to the already-announced aggregate).
    pub fn flush_deferred_announcement(&mut self) -> Option<GdsOutbound> {
        if !std::mem::take(&mut self.announce_dirty) {
            return None;
        }
        if !self.pruning || self.parent.is_none() {
            return None;
        }
        let agg = self.aggregate_summary();
        if self.last_sent_summary.as_ref() == Some(&agg)
            || (self.last_sent_summary.is_none() && agg.is_wildcard())
        {
            return None;
        }
        self.announce(agg)
    }

    /// Opt-in rendezvous placement (construction-time knob; default off).
    /// With it off the node neither issues grants nor honours held ones,
    /// so message counts match the paper's flood exactly.
    pub fn set_rendezvous(&mut self, enabled: bool) {
        self.rendezvous = enabled;
        if !enabled {
            self.held_grants.clear();
            self.held_grant_version = 0;
            self.rebuild_requested_keys();
        }
    }

    /// The grants currently held from the parent (test/inspection hook).
    pub fn held_grants(&self) -> &BTreeMap<String, BTreeSet<String>> {
        &self.held_grants
    }

    /// Re-derives everything downstream of an edge-summary change: the
    /// requested-key cache and the children's rendezvous grants
    /// (revocations ride the same effects batch as the change that
    /// caused them). The upward announcement is only flagged: the driver
    /// sends at most one per burst via
    /// [`GdsNode::flush_deferred_announcement`].
    fn interest_changed(&mut self, effects: &mut GdsEffects) {
        self.rebuild_requested_keys();
        self.recompute_grants(effects);
        if self.pruning && self.parent.is_some() {
            self.announce_dirty = true;
        }
    }

    /// Called wherever `edge_summaries` or `held_grants` change. Held
    /// grants are only ever non-empty with rendezvous on (disabling it
    /// clears them), so their keys need no further condition here.
    fn rebuild_requested_keys(&mut self) {
        let keys: BTreeSet<&str> = self
            .edge_summaries
            .values()
            .flat_map(|(_, summary)| summary.attrs().map(|(key, _)| key))
            .chain(self.held_grants.keys().map(String::as_str))
            .collect();
        self.requested_keys.clear();
        self.requested_keys.extend(keys.into_iter().map(str::to_owned));
    }

    /// Recomputes and (re)issues grants for every child whose entitled
    /// set changed. Safe under loss/reorder because a grant only ever
    /// *narrows* delivery when it is provably exclusive right now; any
    /// widening of interest elsewhere immediately revokes in the same
    /// effects batch, and beacons re-send current grants as a heal.
    fn recompute_grants(&mut self, effects: &mut GdsEffects) {
        if !self.rendezvous || !self.pruning {
            return;
        }
        let children: Vec<HostName> = self.children.iter().cloned().collect();
        for child in children {
            let grants = self.grants_for(&child);
            let unchanged = self
                .granted
                .get(&child)
                .map_or(grants.is_empty(), |g| *g == grants);
            if unchanged {
                continue;
            }
            self.grant_version += 1;
            self.counts.add(CounterId::GDS_RENDEZVOUS_GRANTS, 1);
            effects.send(
                child.clone(),
                GdsMessage::RendezvousGrant {
                    from: self.name.clone(),
                    version: self.grant_version,
                    grants: grants.clone(),
                },
            );
            if grants.is_empty() {
                self.granted.remove(&child);
            } else {
                self.granted.insert(child, grants);
            }
        }
    }

    /// The `(attribute, value)` subgroups `child` is entitled to own:
    /// pairs its own summary digests declare interest in, where every
    /// *other* downward edge provably excludes the value and the upward
    /// side is covered (this node is the root, or it holds the pair from
    /// its own parent — exclusivity is transitive). Hottest subgroups
    /// first, capped at [`MAX_GRANTS`].
    fn grants_for(&self, child: &HostName) -> GrantMap {
        let Some((_, child_summary)) = self.edge_summaries.get(child) else {
            return GrantMap::new();
        };
        let mut candidates: Vec<(&str, &str)> = Vec::new();
        for (key, values) in child_summary.attrs() {
            for value in values {
                candidates.push((key, value.as_str()));
            }
        }
        candidates.retain(|(key, value)| {
            let outside_excluded = self
                .local
                .iter()
                .chain(self.children.iter())
                .filter(|edge| *edge != child)
                .all(|edge| match self.edge_summaries.get(edge) {
                    Some((_, summary)) => summary.excludes_value(key, value),
                    None => false,
                });
            let upward_covered = self.parent.is_none()
                || self
                    .held_grants
                    .get(*key)
                    .is_some_and(|values| values.contains(*value));
            outside_excluded && upward_covered
        });
        let hits = |pair: &(&str, &str)| -> u64 {
            self.hot_hits
                .get(pair.0)
                .and_then(|per_value| per_value.get(pair.1))
                .copied()
                .unwrap_or(0)
        };
        candidates.sort_by(|a, b| hits(b).cmp(&hits(a)).then_with(|| a.cmp(b)));
        candidates.truncate(MAX_GRANTS);
        let mut grants = GrantMap::new();
        for (key, value) in candidates {
            grants
                .entry(key.to_owned())
                .or_default()
                .insert(value.to_owned());
        }
        grants
    }

    /// One liveness beacon to every child, sent unprompted once per
    /// interval; the child's detector does the timing. The beacon says
    /// which of the child's summaries this node holds, so the child
    /// re-announces only when that is behind. With rendezvous on, the
    /// child's current grants follow (full replacement, fresh version),
    /// so a lost grant or a restarted child converges on the next
    /// beacon, the same way summaries re-announce.
    pub fn beacons(&mut self, effects: &mut GdsEffects) {
        for child in &self.children {
            let version = self.edge_summaries.get(child).map_or(0, |(v, _)| *v);
            effects.send(child.clone(), GdsMessage::HeartbeatAck { version });
            if !self.rendezvous {
                continue;
            }
            if let Some(grants) = self.granted.get(child) {
                self.grant_version += 1;
                self.counts.add(CounterId::GDS_RENDEZVOUS_GRANTS, 1);
                effects.send(
                    child.clone(),
                    GdsMessage::RendezvousGrant {
                        from: self.name.clone(),
                        version: self.grant_version,
                        grants: grants.clone(),
                    },
                );
            }
        }
    }

    /// Recomputes children's grants outside a message context (the actor
    /// calls this after a reparent so revocations implied by the new
    /// topology go out immediately).
    pub fn refresh_rendezvous(&mut self, effects: &mut GdsEffects) {
        self.recompute_grants(effects);
    }

    /// Remembers a flooded event for replay to later-adopted children.
    fn remember(&mut self, entry: Recent) {
        if self.recent.len() == RECENT_CAP {
            self.recent.pop_front();
        }
        self.recent.push_back(entry);
    }

    /// The node's network name.
    pub fn name(&self) -> &HostName {
        &self.name
    }

    /// The node's stratum (1 = primary).
    pub fn stratum(&self) -> u8 {
        self.stratum
    }

    /// The node's parent, if any.
    pub fn parent(&self) -> Option<&HostName> {
        self.parent.as_ref()
    }

    /// The node's children.
    pub fn children(&self) -> impl Iterator<Item = &HostName> {
        self.children.iter()
    }

    /// Declares `child` as a child of this node (topology construction).
    pub fn add_child(&mut self, child: impl Into<HostName>) {
        self.children.insert(child.into());
    }

    /// Removes a child (topology change); subtree entries routed through
    /// it are dropped.
    pub fn remove_child(&mut self, child: &HostName) {
        self.children.remove(child);
        self.subtree.retain(|_, via| via != child);
        self.edge_summaries.remove(child);
        self.granted.remove(child);
    }

    /// Changes the node's parent (reparenting after a failure). Use
    /// [`GdsNode::reregistrations`] to rebuild the new parent's view.
    /// Grants held from the old parent are dropped — their exclusivity
    /// proof was relative to the old position in the tree — and grant
    /// versions restart because they are per-granter.
    pub fn set_parent(&mut self, parent: Option<HostName>) {
        self.parent = parent;
        self.held_grants.clear();
        self.held_grant_version = 0;
        self.rebuild_requested_keys();
    }

    /// Whether `gs_host` is known in this node's subtree.
    pub fn knows(&self, gs_host: &HostName) -> bool {
        self.subtree.contains_key(gs_host)
    }

    /// `RegisterUp` messages re-announcing this node's whole subtree to
    /// its (new) parent.
    pub fn reregistrations(&self) -> Vec<GdsOutbound> {
        let Some(parent) = &self.parent else {
            return Vec::new();
        };
        self.subtree
            .keys()
            .map(|gs| GdsOutbound {
                to: parent.clone(),
                msg: GdsMessage::RegisterUp {
                    gs_host: gs.clone(),
                    via: self.name.clone(),
                },
            })
            .collect()
    }

    /// Handles one inbound message. `from` is the network sender.
    ///
    /// Convenience wrapper over [`GdsNode::handle_message_into`] that
    /// allocates a fresh effects buffer; per-message hot paths should
    /// pass a reused buffer to the `_into` form instead.
    pub fn handle_message(&mut self, from: &HostName, msg: GdsMessage) -> GdsEffects {
        let mut effects = GdsEffects::default();
        self.handle_message_into(from, msg, &mut effects);
        effects
    }

    /// Handles one inbound message, appending the resulting effects to
    /// `effects` (which the caller typically [`clear`](GdsEffects::clear)s
    /// and reuses across messages, so the steady-state flood hop does
    /// not allocate an effects vector per frame).
    pub fn handle_message_into(
        &mut self,
        from: &HostName,
        msg: GdsMessage,
        effects: &mut GdsEffects,
    ) {
        match msg {
            GdsMessage::Register { gs_host } => {
                self.local.insert(gs_host.clone());
                self.subtree.insert(gs_host.clone(), self.name.clone());
                // Any summary the server already announced stays: the
                // transport may reorder a registration past the server's
                // first announcements, and summary versions are monotonic
                // for a server's lifetime, so what is stored is never
                // staler than wildcard-by-absence. Departures reset the
                // edge via Unregister/Detach instead.
                if let Some(parent) = &self.parent {
                    effects.send(
                        parent.clone(),
                        GdsMessage::RegisterUp {
                            gs_host,
                            via: self.name.clone(),
                        },
                    );
                }
                self.interest_changed(effects);
            }
            GdsMessage::Unregister { gs_host } => {
                self.local.remove(&gs_host);
                self.subtree.remove(&gs_host);
                self.edge_summaries.remove(&gs_host);
                if let Some(parent) = &self.parent {
                    effects.send(parent.clone(), GdsMessage::UnregisterUp { gs_host });
                }
                self.interest_changed(effects);
            }
            GdsMessage::RegisterUp { gs_host, via } => {
                self.subtree.insert(gs_host.clone(), via);
                if let Some(parent) = &self.parent {
                    effects.send(
                        parent.clone(),
                        GdsMessage::RegisterUp {
                            gs_host,
                            via: self.name.clone(),
                        },
                    );
                }
            }
            GdsMessage::UnregisterUp { gs_host } => {
                self.subtree.remove(&gs_host);
                if let Some(parent) = &self.parent {
                    effects.send(parent.clone(), GdsMessage::UnregisterUp { gs_host });
                }
            }
            GdsMessage::Batch(frame) => self.forward(from, Some(&frame), &frame, effects),
            msg @ (GdsMessage::Publish { .. }
            | GdsMessage::Broadcast { .. }
            | GdsMessage::PublishTargeted { .. }
            | GdsMessage::Route { .. }) => {
                self.forward(from, None, std::slice::from_ref(&msg), effects);
            }
            GdsMessage::Resolve {
                token,
                name,
                reply_to,
            } => {
                if self.local.contains(&name) {
                    effects.send(
                        reply_to.clone(),
                        GdsMessage::ResolveResponse {
                            token,
                            name,
                            result: Some(self.name.clone()),
                        },
                    );
                } else if let Some(via) = self.subtree.get(&name).cloned() {
                    effects.send(via, GdsMessage::Resolve { token, name, reply_to });
                } else if let Some(parent) = self.parent.clone() {
                    if &parent != from {
                        effects.send(parent, GdsMessage::Resolve { token, name, reply_to });
                    } else {
                        effects.send(
                            reply_to.clone(),
                            GdsMessage::ResolveResponse {
                                token,
                                name,
                                result: None,
                            },
                        );
                    }
                } else {
                    effects.send(
                        reply_to.clone(),
                        GdsMessage::ResolveResponse {
                            token,
                            name,
                            result: None,
                        },
                    );
                }
            }
            GdsMessage::Adopt { child } => {
                // A grandchild lost its parent and re-parents here.
                // Replay recent events down the new edge: a broadcast
                // that was in flight while the child's old parent was
                // down would otherwise miss the moved subtree (the old
                // parent learns of the detach and stops forwarding; this
                // node finished its broadcast before the edge existed).
                // The child's duplicate suppression absorbs re-sends.
                for entry in &self.recent {
                    effects.send(child.clone(), entry.broadcast());
                }
                // The adopted subtree's summary (if we ever had one from
                // a previous stint as its parent) is stale; start at
                // wildcard-by-absence until the child announces afresh.
                self.edge_summaries.remove(&child);
                self.add_child(child);
                self.interest_changed(effects);
            }
            GdsMessage::Detach { child } => {
                // An old child re-parented elsewhere; drop the edge and
                // everything routed through it (re-registrations via the
                // new path rebuild the subtree view).
                self.remove_child(&child);
                self.interest_changed(effects);
            }
            GdsMessage::SummaryUpdate {
                from: edge,
                version,
                summary,
            } => {
                // Keyed by the announced edge (the direct child or local
                // server the summary describes); only strictly newer
                // versions are kept, so delayed or reordered updates can
                // never clobber fresher knowledge.
                let newer = self
                    .edge_summaries
                    .get(&edge)
                    .is_none_or(|(v, _)| version > *v);
                if newer {
                    // Count subgroup popularity for rendezvous ranking:
                    // every aggregation that mentions an (attr, value)
                    // pair is one "hit" for that subgroup.
                    for (key, values) in summary.attrs() {
                        for value in values {
                            *self
                                .hot_hits
                                .entry(key.to_owned())
                                .or_default()
                                .entry(value.clone())
                                .or_insert(0) += 1;
                        }
                    }
                    self.edge_summaries.insert(edge, (version, summary));
                    self.counts.add(CounterId::GDS_SUMMARY_UPDATES, 1);
                    self.interest_changed(effects);
                }
            }
            GdsMessage::RendezvousGrant {
                from: granter,
                version,
                grants,
            } => {
                // Full-replacement grant set from the parent; accepted
                // only from the *current* parent and only when strictly
                // newer (per-granter monotonic versions, like summaries).
                // With rendezvous off the node ignores grants entirely —
                // mixed trees degrade to plain pruning, never to loss.
                if self.rendezvous
                    && Some(&granter) == self.parent.as_ref()
                    && version > self.held_grant_version
                {
                    self.held_grant_version = version;
                    self.held_grants = grants;
                    self.rebuild_requested_keys();
                    // Our own exclusivity proof feeds the children's:
                    // re-derive what we can delegate further down.
                    self.recompute_grants(effects);
                }
            }
            // Final deliveries, resolve answers and beacons are not the
            // state machine's business; a GDS node receiving one ignores
            // it (the actor layer intercepts beacons for its failure
            // detector).
            GdsMessage::Deliver { .. }
            | GdsMessage::ResolveResponse { .. }
            | GdsMessage::HeartbeatAck { .. } => {}
        }
    }

    /// Floods and routes the items of a frame in order — a frame
    /// received whole (`shared`), or one message, a frame of one.
    ///
    /// Per item, duplicate suppression and the flood decision
    /// ([`GdsNode::decide`]) are the paper's. Consecutive flood items
    /// with one decision form a run, which [`GdsNode::close_run`] sends
    /// every edge of the run as one frame per form. Targeted and
    /// control items end the run before them and are handled alone.
    fn forward(
        &mut self,
        from: &HostName,
        shared: Option<&Arc<[GdsMessage]>>,
        items: &[GdsMessage],
        effects: &mut GdsEffects,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.built.clear();
        let mut run: Option<Run> = None;
        for (i, item) in items.iter().enumerate() {
            let (publish, id, origin, payload) = match item {
                // `from` is the publishing Greenstone server.
                GdsMessage::Publish { id, payload } => (true, *id, from, payload),
                GdsMessage::Broadcast {
                    id,
                    origin,
                    payload,
                } => (false, *id, origin, payload),
                other => {
                    self.close_run(run.take(), shared, items, &scratch, effects);
                    self.handle_item(from, other, effects);
                    continue;
                }
            };
            if !self.seen.insert(origin, id.as_u64()) {
                self.close_run(run.take(), shared, items, &scratch, effects);
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
            let came_from = (!publish).then_some(from);
            self.decide(origin, payload, came_from, &mut scratch.edges);
            // Compared item by item: comparing two empty slices with
            // `==` costs a library call, and a leaf's decision is empty.
            let extends = run.is_some_and(|r| r.end == i && r.built.is_some() == built.is_some())
                && scratch.edges.iter().eq(&scratch.run_edges);
            if !extends {
                self.close_run(run.take(), shared, items, &scratch, effects);
                std::mem::swap(&mut scratch.edges, &mut scratch.run_edges);
            }
            let run = run.get_or_insert(Run {
                start: i,
                end: i,
                built,
            });
            run.end = i + 1;
        }
        self.close_run(run, shared, items, &scratch, effects);
        self.scratch = scratch;
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
        shared: Option<&Arc<[GdsMessage]>>,
        items: &[GdsMessage],
        scratch: &ForwardScratch,
        effects: &mut GdsEffects,
    ) {
        let Some(run) = run else {
            return;
        };
        let n = run.end - run.start;
        let src = match run.built {
            Some(b) => &scratch.built[b..b + n],
            None => &items[run.start..run.end],
        };
        let edges = &scratch.run_edges;
        let locals = self.local.len();
        // A longer run goes out as one frame per form, built once.
        let broadcast = (n > 1
            && (run.built.is_some() || edges.last().is_some_and(|&e| e as usize >= locals)))
        .then(|| match shared {
            Some(whole) if run.built.is_none() && n == whole.len() => whole.clone(),
            _ => src.iter().cloned().collect(),
        });
        let deliver = (n > 1 && edges.first().is_some_and(|&e| (e as usize) < locals))
            .then(|| src.iter().map(deliver_form).collect::<Arc<[GdsMessage]>>());
        let first = effects.outbound.len();
        let mut wanted = edges.iter().peekable();
        let all = self.local.iter().chain(&self.parent).chain(&self.children);
        for (pos, edge) in (0u32..).zip(all) {
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
        for (k, item) in src.iter().enumerate() {
            let entry = match (run.built, shared, &broadcast) {
                (None, Some(frame), _) => Recent::Shared(frame.clone(), run.start + k),
                (Some(_), _, Some(frame)) => Recent::Shared(frame.clone(), k),
                _ => Recent::lone(item),
            };
            self.remember(entry);
        }
    }

    /// A frame's targeted item is routed by reference; any other item
    /// that is not a flood is handled as a message of its own.
    fn handle_item(&mut self, from: &HostName, item: &GdsMessage, effects: &mut GdsEffects) {
        match item {
            GdsMessage::PublishTargeted {
                id,
                targets,
                payload,
            } => self.route(from, id.as_u64(), targets, payload, None, effects),
            GdsMessage::Route {
                id,
                origin,
                targets,
                payload,
            } => self.route(origin, id.as_u64(), targets, payload, Some(from), effects),
            other => self.handle_message_into(from, other.clone(), effects),
        }
    }

    /// The tree flood's decision for one event: deliver to local
    /// Greenstone servers (except the origin) and forward to every tree
    /// neighbour except the one the message came from. Writes the
    /// chosen edges into `edges` as positions in the order local
    /// servers, parent, children.
    ///
    /// With pruning on, downward edges (local servers and children)
    /// whose recorded summary cannot match the event's origin are
    /// skipped. The parent edge is never pruned — the rest of the tree
    /// is reachable only through it, and upward interest is not
    /// summarised here. Any reason to doubt the skip (no summary for
    /// the edge, an undecodable payload, pruning off) falls back to
    /// forwarding: false positives cost a message, false negatives are
    /// impossible by construction.
    fn decide(
        &mut self,
        origin: &HostName,
        payload: &Payload,
        came_from: Option<&HostName>,
        edges: &mut Vec<u32>,
    ) {
        edges.clear();
        // Attribute digests and held grants only matter when some edge
        // summary (or the parent) actually mentions them; with no key
        // requested — always the case with the features off — the flood
        // below is exactly the PR 5 anchor-only path.
        let confinable = self.rendezvous && !self.held_grants.is_empty();
        let requested = &self.requested_keys;
        let mut event_attrs: Vec<(String, Vec<String>)> = Vec::new();
        // The prune anchor: `coll` holds the origin as `host.name` and
        // the host is its first `host_len` bytes.
        let mut coll = std::mem::take(&mut self.anchor_scratch);
        coll.clear();
        let mut host_len = 0;
        let mut set_anchor = |host: &str, name: &str| {
            coll.push_str(host);
            host_len = host.len();
            coll.push('.');
            coll.push_str(name);
        };
        if self.pruning && (!self.edge_summaries.is_empty() || confinable) {
            // The anchor needs only the origin header. On frozen binary
            // payloads the attribute probe reads it in place — no per-hop
            // Event (and per-doc metadata) materialisation. Attribute
            // values (event kind, per-doc metadata) are only gathered
            // when a digest or grant could use them.
            match payload.probe_event() {
                Some(probe) => {
                    set_anchor(probe.origin_host(), probe.origin_name());
                    if !requested.is_empty() {
                        // A probe failure mid-docs leaves `event_attrs`
                        // empty: no attribute pruning, no confinement —
                        // the conservative fallback, same as the anchor.
                        event_attrs = probe_attr_values(probe, requested).unwrap_or_default();
                    }
                }
                None => {
                    if let Ok(event) = payload.decode_event() {
                        set_anchor(event.origin.host().as_str(), event.origin.name().as_str());
                        if !requested.is_empty() {
                            event_attrs = event_attr_values(&event, requested);
                        }
                    }
                }
            }
        }
        let anchor = (!coll.is_empty()).then(|| (&coll[..host_len], coll.as_str()));
        // Whether the event may be confined to this subtree: some held
        // grant key where the event has values and *all* of them are
        // granted to us (a partially granted value set must still go up —
        // the ungranted values may have interest elsewhere).
        let confined = confinable
            && !event_attrs.is_empty()
            && event_attrs.iter().any(|(key, values)| {
                !values.is_empty()
                    && self
                        .held_grants
                        .get(key)
                        .is_some_and(|granted| values.iter().all(|v| granted.contains(v)))
            });
        let mut pruned = 0u64;
        let summaries = &self.edge_summaries;
        let event_attrs = &event_attrs;
        let mut prunable = |edge: &HostName| -> bool {
            let skip = match (&anchor, summaries.get(edge)) {
                (Some((host, coll)), Some((_, summary))) => {
                    !summary.may_match(host, coll)
                        || (!event_attrs.is_empty()
                            && summary.has_attrs()
                            && excluded_by_digests(summary, event_attrs))
                }
                _ => false,
            };
            pruned += u64::from(skip);
            skip
        };
        let mut pos = 0u32;
        for gs in &self.local {
            if gs != origin && !prunable(gs) {
                edges.push(pos);
            }
            pos += 1;
        }
        let mut confined_hops = 0u64;
        if let Some(parent) = &self.parent {
            if Some(parent) != came_from {
                if confined {
                    // A held grant proves no interest in this event's
                    // subgroup exists outside our subtree: the upward
                    // hop (and the flood it would seed across the rest
                    // of the tree) is skipped entirely.
                    confined_hops += 1;
                } else {
                    edges.push(pos);
                }
            }
            pos += 1;
        }
        for child in &self.children {
            if Some(child) != came_from && !prunable(child) {
                edges.push(pos);
            }
            pos += 1;
        }
        self.counts.add(CounterId::GDS_PRUNED_EDGES, pruned);
        self.counts.add(CounterId::GDS_RENDEZVOUS_CONFINED, confined_hops);
        self.anchor_scratch = coll;
    }

    /// Targeted routing along the tree using the subtree registry.
    fn route(
        &self,
        origin: &HostName,
        id: u64,
        targets: &[HostName],
        payload: &Payload,
        came_from: Option<&HostName>,
        effects: &mut GdsEffects,
    ) {
        let mid = MessageId::from_raw(id);
        let mut per_child: BTreeMap<HostName, Vec<HostName>> = BTreeMap::new();
        let mut upward: Vec<HostName> = Vec::new();
        for target in targets {
            if self.local.contains(target) {
                effects.send(
                    target.clone(),
                    GdsMessage::Deliver {
                        id: mid,
                        origin: origin.clone(),
                        payload: payload.clone(),
                    },
                );
            } else if let Some(via) = self.subtree.get(target) {
                per_child.entry(via.clone()).or_default().push(target.clone());
            } else {
                upward.push(target.clone());
            }
        }
        for (child, targets) in per_child {
            effects.send(
                child,
                GdsMessage::Route {
                    id: mid,
                    origin: origin.clone(),
                    targets,
                    payload: payload.clone(),
                },
            );
        }
        if !upward.is_empty() {
            match (&self.parent, came_from) {
                (Some(parent), came) if came != Some(parent) => {
                    effects.send(
                        parent.clone(),
                        GdsMessage::Route {
                            id: mid,
                            origin: origin.clone(),
                            targets: upward,
                            payload: payload.clone(),
                        },
                    );
                }
                _ => effects.undeliverable.extend(upward),
            }
        }
    }
}

/// The final delivery of a flooded `Broadcast` to a local server.
fn deliver_form(msg: &GdsMessage) -> GdsMessage {
    match msg {
        GdsMessage::Broadcast {
            id,
            origin,
            payload,
        } => GdsMessage::Deliver {
            id: *id,
            origin: origin.clone(),
            payload: payload.clone(),
        },
        other => unreachable!("a flood run holds broadcasts, not {other}"),
    }
}

/// Whether an edge summary's attribute digests rule the event out: some
/// digested key where none of the event's values is in the allowed set.
/// An event that *lacks* a digested attribute entirely (empty values) is
/// also excluded — every interest behind the digest demands a positive
/// equality on it. `event_attrs` covers every key any edge digests, so a
/// missing entry cannot mean "not extracted" here (extraction failure
/// leaves the whole list empty and the caller skips this test).
fn excluded_by_digests(summary: &InterestSummary, event_attrs: &[(String, Vec<String>)]) -> bool {
    event_attrs.iter().any(|(key, values)| {
        summary
            .attr_constraint(key)
            .is_some_and(|allowed| !values.iter().any(|v| allowed.contains(v)))
    })
}

/// Collects the event's values for each requested digest key by probing
/// the frozen payload in place: the event kind for [`ATTR_KEY_KIND`],
/// and the union across documents of metadata values for `meta:`-prefixed
/// keys. Returns one entry per requested key — an empty value list means
/// the event provably lacks that attribute. `None` on a malformed doc
/// section (callers fall back to no attribute knowledge).
fn probe_attr_values(
    mut probe: gsa_wire::EventProbe<'_>,
    requested: &[String],
) -> Option<Vec<(String, Vec<String>)>> {
    let mut out: Vec<(String, Vec<String>)> = requested
        .iter()
        .map(|key| (key.clone(), Vec::new()))
        .collect();
    let mut wants_meta = false;
    for (key, values) in &mut out {
        if key == ATTR_KEY_KIND {
            values.push(probe.kind().as_str().to_owned());
        } else if key.starts_with(ATTR_META_PREFIX) {
            wants_meta = true;
        }
    }
    if wants_meta {
        while let Some(doc) = probe.next_doc().ok()? {
            for (key, values) in &mut out {
                let Some(target) = key.strip_prefix(ATTR_META_PREFIX) else {
                    continue;
                };
                for (meta_key, meta_value) in doc.metadata() {
                    if meta_key == target && !values.iter().any(|v| v == meta_value) {
                        values.push(meta_value.to_owned());
                    }
                }
            }
        }
    }
    Some(out)
}

/// Decoded-event twin of [`probe_attr_values`] for XML (v1) payloads.
fn event_attr_values(event: &gsa_types::Event, requested: &[String]) -> Vec<(String, Vec<String>)> {
    requested
        .iter()
        .map(|key| {
            let mut values: Vec<String> = Vec::new();
            if key == ATTR_KEY_KIND {
                values.push(event.kind.as_str().to_owned());
            } else if let Some(target) = key.strip_prefix(ATTR_META_PREFIX) {
                for doc in &event.docs {
                    for value in doc.metadata.all(target) {
                        if !values.iter().any(|v| v == value) {
                            values.push(value.clone());
                        }
                    }
                }
            }
            (key.clone(), values)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ResolveToken;
    use gsa_types::MessageId;
    use gsa_wire::XmlElement;
    use std::collections::BTreeMap;

    /// A tiny in-test router over a map of GDS nodes; Greenstone-server
    /// deliveries are collected instead of routed.
    fn pump(
        nodes: &mut BTreeMap<HostName, GdsNode>,
        first_to: &HostName,
        first_from: &HostName,
        msg: GdsMessage,
    ) -> (Vec<(HostName, GdsMessage)>, Vec<HostName>) {
        let mut gs_deliveries = Vec::new();
        let mut undeliverable = Vec::new();
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
            undeliverable.extend(effects.undeliverable);
            for out in effects.outbound {
                queue.push((to.clone(), out.to, out.msg));
            }
        }
        (gs_deliveries, undeliverable)
    }

    /// Builds the Figure 2 tree: gds-1 (stratum 1); gds-2, gds-3, gds-4
    /// (stratum 2, children of 1); gds-5, gds-6, gds-7 (stratum 3,
    /// children of 2, 3, 3). Greenstone servers gs-a..gs-g registered one
    /// per node.
    fn figure2() -> BTreeMap<HostName, GdsNode> {
        let mut nodes = BTreeMap::new();
        let spec: &[(&str, u8, Option<&str>, &[&str])] = &[
            ("gds-1", 1, None, &["gds-2", "gds-3", "gds-4"]),
            ("gds-2", 2, Some("gds-1"), &["gds-5"]),
            ("gds-3", 2, Some("gds-1"), &["gds-6", "gds-7"]),
            ("gds-4", 2, Some("gds-1"), &[]),
            ("gds-5", 3, Some("gds-2"), &[]),
            ("gds-6", 3, Some("gds-3"), &[]),
            ("gds-7", 3, Some("gds-3"), &[]),
        ];
        for (name, stratum, parent, children) in spec {
            let mut node = GdsNode::new(*name, *stratum, parent.map(HostName::new));
            for c in *children {
                node.add_child(*c);
            }
            nodes.insert(HostName::new(*name), node);
        }
        // Register one Greenstone server per GDS node.
        for i in 1..=7 {
            let gds = HostName::new(format!("gds-{i}"));
            let gs = HostName::new(format!("gs-{i}"));
            let (deliveries, _) = pump(&mut nodes, &gds, &gs, GdsMessage::Register { gs_host: gs.clone() });
            assert!(deliveries.is_empty());
        }
        nodes
    }

    #[test]
    fn registration_propagates_to_root() {
        let nodes = figure2();
        let root = &nodes[&HostName::new("gds-1")];
        assert_eq!(root.subtree.len(), 7);
        assert!(root.knows(&"gs-7".into()));
        // Intermediate node knows only its subtree.
        let gds3 = &nodes[&HostName::new("gds-3")];
        assert_eq!(gds3.subtree.len(), 3); // gs-3, gs-6, gs-7
        assert!(!gds3.knows(&"gs-5".into()));
    }

    #[test]
    fn broadcast_reaches_every_server_exactly_once() {
        let mut nodes = figure2();
        let payload = Payload::from(XmlElement::new("event"));
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(1),
                payload,
            },
        );
        let mut recipients: Vec<String> = deliveries.iter().map(|(to, _)| to.to_string()).collect();
        recipients.sort();
        // Everyone except the origin gs-5.
        assert_eq!(
            recipients,
            vec!["gs-1", "gs-2", "gs-3", "gs-4", "gs-6", "gs-7"]
        );
    }

    #[test]
    fn broadcast_is_deduplicated_on_replay() {
        let mut nodes = figure2();
        let payload = Payload::from(XmlElement::new("event"));
        let publish = GdsMessage::Publish {
            id: MessageId::from_raw(1),
            payload,
        };
        let (first, _) = pump(&mut nodes, &"gds-5".into(), &"gs-5".into(), publish.clone());
        assert_eq!(first.len(), 6);
        let (second, _) = pump(&mut nodes, &"gds-5".into(), &"gs-5".into(), publish);
        assert!(second.is_empty(), "replayed publish must be suppressed");
    }

    /// The dedup memory of a long-lived tree: floods that lose nothing
    /// arrive in id order everywhere, so every node and every client
    /// holds one run per publisher however many events have passed,
    /// while still answering for each of them.
    #[test]
    fn in_order_floods_cost_one_run_per_origin_everywhere() {
        const FLOODS: u64 = 50_000;
        let mut nodes = figure2();
        let mut clients: BTreeMap<HostName, crate::GdsClient> = (1..=7)
            .map(|i| {
                let gs = HostName::new(format!("gs-{i}"));
                (gs.clone(), crate::GdsClient::new(gs, format!("gds-{i}")))
            })
            .collect();
        for n in 0..FLOODS {
            let publisher = HostName::new(if n % 2 == 0 { "gs-5" } else { "gs-1" });
            let (_, out) = clients
                .get_mut(&publisher)
                .unwrap()
                .publish(XmlElement::new("event"));
            let (deliveries, _) = pump(&mut nodes, &out.to, &publisher, out.msg);
            assert_eq!(deliveries.len(), 6);
            for (to, msg) in deliveries {
                assert!(clients.get_mut(&to).unwrap().accept(&msg).is_some());
            }
        }
        for (name, node) in &nodes {
            assert_eq!(node.seen_runs(), 2, "{name}: one run per publisher");
        }
        for (name, client) in &clients {
            assert_eq!(client.seen_runs(), 2, "{name}: one run per publisher");
            assert_eq!(client.seen_count() as u64, FLOODS, "{name} remembers every flood");
        }
        // And the memory still suppresses: a replay of the first flood
        // goes nowhere.
        let replay = GdsMessage::Publish {
            id: MessageId::from_raw(0),
            payload: XmlElement::new("event").into(),
        };
        let (again, _) = pump(&mut nodes, &"gds-5".into(), &"gs-5".into(), replay);
        assert!(again.is_empty());
    }

    #[test]
    fn multicast_routes_only_to_targets() {
        let mut nodes = figure2();
        let (deliveries, undeliverable) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::PublishTargeted {
                id: MessageId::from_raw(2),
                targets: vec!["gs-7".into(), "gs-1".into()],
                payload: XmlElement::new("x").into(),
            },
        );
        let mut recipients: Vec<String> = deliveries.iter().map(|(to, _)| to.to_string()).collect();
        recipients.sort();
        assert_eq!(recipients, vec!["gs-1", "gs-7"]);
        assert!(undeliverable.is_empty());
    }

    #[test]
    fn multicast_to_unknown_target_reports_undeliverable() {
        let mut nodes = figure2();
        let (deliveries, undeliverable) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::PublishTargeted {
                id: MessageId::from_raw(3),
                targets: vec!["gs-ghost".into()],
                payload: XmlElement::new("x").into(),
            },
        );
        assert!(deliveries.is_empty());
        assert_eq!(undeliverable, vec![HostName::new("gs-ghost")]);
    }

    #[test]
    fn resolve_finds_responsible_node() {
        let mut nodes = figure2();
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Resolve {
                token: ResolveToken(1),
                name: "gs-6".into(),
                reply_to: "gs-5".into(),
            },
        );
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, HostName::new("gs-5"));
        match &deliveries[0].1 {
            GdsMessage::ResolveResponse { result, .. } => {
                assert_eq!(result, &Some(HostName::new("gds-6")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resolve_unknown_name_answers_none() {
        let mut nodes = figure2();
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Resolve {
                token: ResolveToken(2),
                name: "gs-ghost".into(),
                reply_to: "gs-5".into(),
            },
        );
        match &deliveries[0].1 {
            GdsMessage::ResolveResponse { result, .. } => assert_eq!(result, &None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unregister_removes_from_all_ancestors() {
        let mut nodes = figure2();
        pump(
            &mut nodes,
            &"gds-7".into(),
            &"gs-7".into(),
            GdsMessage::Unregister { gs_host: "gs-7".into() },
        );
        assert!(!nodes[&HostName::new("gds-7")].knows(&"gs-7".into()));
        assert!(!nodes[&HostName::new("gds-3")].knows(&"gs-7".into()));
        assert!(!nodes[&HostName::new("gds-1")].knows(&"gs-7".into()));
        // Broadcast no longer reaches gs-7.
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(9),
                payload: XmlElement::new("event").into(),
            },
        );
        assert!(deliveries.iter().all(|(to, _)| to != &HostName::new("gs-7")));
    }

    #[test]
    fn reparenting_reregisters_subtree() {
        let mut nodes = figure2();
        // Move gds-7 from gds-3 to gds-2.
        nodes.get_mut(&HostName::new("gds-3")).unwrap().remove_child(&"gds-7".into());
        // gds-3 must forget gs-7 (routed via gds-7) and tell ancestors.
        assert!(!nodes[&HostName::new("gds-3")].knows(&"gs-7".into()));
        nodes.get_mut(&HostName::new("gds-2")).unwrap().add_child("gds-7");
        let node7 = nodes.get_mut(&HostName::new("gds-7")).unwrap();
        node7.set_parent(Some("gds-2".into()));
        let rereg = node7.reregistrations();
        assert_eq!(rereg.len(), 1);
        for out in rereg {
            pump(&mut nodes, &out.to.clone(), &"gds-7".into(), out.msg);
        }
        assert!(nodes[&HostName::new("gds-2")].knows(&"gs-7".into()));
        // Targeted routing still works along the new path.
        let (deliveries, undeliverable) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::PublishTargeted {
                id: MessageId::from_raw(11),
                targets: vec!["gs-7".into()],
                payload: XmlElement::new("x").into(),
            },
        );
        assert!(undeliverable.is_empty());
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, HostName::new("gs-7"));
    }

    /// A node beacons each of its children once, and no one else: not
    /// its parent, not its local servers. A leaf beacons no one.
    #[test]
    fn each_child_gets_a_beacon() {
        let mut nodes = figure2();
        let parent = nodes.get_mut(&HostName::new("gds-3")).unwrap();
        let mut effects = GdsEffects::default();
        parent.beacons(&mut effects);
        let beacon = GdsMessage::HeartbeatAck { version: 0 };
        let sent: Vec<(&str, &GdsMessage)> = effects
            .outbound
            .iter()
            .map(|out| (out.to.as_str(), &out.msg))
            .collect();
        assert_eq!(sent, vec![("gds-6", &beacon), ("gds-7", &beacon)]);
        let leaf = nodes.get_mut(&HostName::new("gds-7")).unwrap();
        let mut effects = GdsEffects::default();
        leaf.beacons(&mut effects);
        assert!(effects.outbound.is_empty());
        // The beacon is ignored at the node layer (the actor's failure
        // detector consumes it).
        let effects = leaf.handle_message(&"gds-3".into(), beacon);
        assert!(effects.outbound.is_empty());
    }

    /// The beacon carries the summary version the parent holds for the
    /// edge, and the child re-announces only when that is none or behind
    /// what it last sent.
    #[test]
    fn a_beacon_says_which_summary_the_parent_holds() {
        let mut parent = GdsNode::new("gds-3", 2, Some(HostName::new("gds-1")));
        parent.set_pruning(true);
        parent.add_child("gds-7");
        let mut child = GdsNode::new("gds-7", 3, Some(HostName::new("gds-3")));
        child.set_pruning(true);
        child.handle_message(
            &"gs-7".into(),
            GdsMessage::Register {
                gs_host: "gs-7".into(),
            },
        );
        child.handle_message(
            &"gs-7".into(),
            GdsMessage::SummaryUpdate {
                from: "gs-7".into(),
                version: 1,
                summary: host_summary("gs-5"),
            },
        );
        fn held(parent: &mut GdsNode) -> u64 {
            let mut effects = GdsEffects::default();
            parent.beacons(&mut effects);
            match effects.outbound[..] {
                [GdsOutbound {
                    msg: GdsMessage::HeartbeatAck { version },
                    ..
                }] => version,
                ref other => panic!("expected one beacon, got {other:?}"),
            }
        }
        let version_of = |out: &GdsOutbound| match &out.msg {
            GdsMessage::SummaryUpdate { version, .. } => *version,
            other => panic!("expected an announcement, got {other}"),
        };
        assert_eq!(held(&mut parent), 0, "the parent holds nothing yet");
        let first = child
            .summary_refresh(0)
            .expect("a parent holding nothing is told");
        // Say the first was lost: still nothing held, so announce again.
        assert!(child.summary_refresh(0).is_some());
        // The first arrives late and the second never does: the parent
        // holds a version behind the newest sent.
        let first_version = version_of(&first);
        parent.handle_message(&"gds-7".into(), first.msg);
        assert_eq!(held(&mut parent), first_version);
        let third = child
            .summary_refresh(first_version)
            .expect("behind the newest sent");
        let third_version = version_of(&third);
        parent.handle_message(&"gds-7".into(), third.msg);
        assert_eq!(held(&mut parent), third_version);
        assert!(
            child.summary_refresh(third_version).is_none(),
            "an idle edge re-announces nothing"
        );
    }

    #[test]
    fn adopt_and_detach_drive_protocol_level_reparenting() {
        let mut nodes = figure2();
        // gds-7's parent gds-3 "died"; gds-7 re-parents to grandparent
        // gds-1 using only protocol messages.
        let node7 = nodes.get_mut(&HostName::new("gds-7")).unwrap();
        node7.set_parent(Some("gds-1".into()));
        let rereg = node7.reregistrations();
        pump(
            &mut nodes,
            &"gds-1".into(),
            &"gds-7".into(),
            GdsMessage::Adopt { child: "gds-7".into() },
        );
        for out in rereg {
            pump(&mut nodes, &out.to.clone(), &"gds-7".into(), out.msg);
        }
        assert!(nodes[&HostName::new("gds-1")]
            .children()
            .any(|c| c == &HostName::new("gds-7")));
        // After the heal the old parent is told to forget the edge.
        pump(
            &mut nodes,
            &"gds-3".into(),
            &"gds-7".into(),
            GdsMessage::Detach { child: "gds-7".into() },
        );
        assert!(nodes[&HostName::new("gds-3")]
            .children()
            .all(|c| c != &HostName::new("gds-7")));
        // Broadcasts still reach everyone exactly once over the healed tree.
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(21),
                payload: XmlElement::new("event").into(),
            },
        );
        let mut recipients: Vec<String> =
            deliveries.iter().map(|(to, _)| to.to_string()).collect();
        recipients.sort();
        assert_eq!(
            recipients,
            vec!["gs-1", "gs-2", "gs-3", "gs-4", "gs-6", "gs-7"]
        );
    }

    fn event_payload(host: &str, seq: u64) -> Payload {
        let event = gsa_types::Event::new(
            gsa_types::EventId::new(host, seq),
            gsa_types::CollectionId::new(host, "D"),
            gsa_types::EventKind::CollectionRebuilt,
            gsa_types::SimTime::from_millis(1),
        );
        gsa_wire::codec::event_to_xml(&event).into()
    }

    fn host_summary(host: &str) -> InterestSummary {
        let mut s = InterestSummary::empty();
        s.add_host(host);
        s
    }

    /// figure2 with pruning enabled everywhere and every server having
    /// announced its interests: gs-6 wants events from gs-5, everyone
    /// else wants nothing.
    fn pruned_figure2() -> BTreeMap<HostName, GdsNode> {
        let mut nodes = figure2();
        for node in nodes.values_mut() {
            node.set_pruning(true);
        }
        for i in 1..=7 {
            let gds = HostName::new(format!("gds-{i}"));
            let gs = HostName::new(format!("gs-{i}"));
            let summary = if i == 6 { host_summary("gs-5") } else { InterestSummary::empty() };
            pump(
                &mut nodes,
                &gds,
                &gs,
                GdsMessage::SummaryUpdate { from: gs.clone(), version: 1, summary },
            );
        }
        nodes
    }

    #[test]
    fn pruned_flood_reaches_exactly_the_interested_server() {
        let mut nodes = pruned_figure2();
        // The summaries carry no digests (what a population without
        // equality literals announces): anchors alone do the pruning.
        assert!(!host_summary("gs-5").has_attrs());
        // Sanity: summaries aggregated up — the root sees gds-3's
        // subtree as interested in gs-5.
        let root = &nodes[&HostName::new("gds-1")];
        assert_eq!(root.edge_summary(&"gds-3".into()), Some(&host_summary("gs-5")));
        assert_eq!(root.edge_summary(&"gds-2".into()), Some(&InterestSummary::empty()));

        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish { id: MessageId::from_raw(1), payload: event_payload("gs-5", 1) },
        );
        let recipients: Vec<String> = deliveries.iter().map(|(to, _)| to.to_string()).collect();
        assert_eq!(recipients, vec!["gs-6"], "only the interested server is reached");
        let pruned: u64 = nodes
            .values_mut()
            .map(|n| n.counts_mut().get(CounterId::GDS_PRUNED_EDGES))
            .sum();
        assert!(pruned > 0, "some edges must have been pruned");
    }

    #[test]
    fn unannounced_edges_and_undecodable_payloads_are_never_pruned() {
        // A newly registered server that has not announced interests yet
        // widens its node to wildcard, and the widening cascades up.
        let mut nodes = pruned_figure2();
        pump(
            &mut nodes,
            &"gds-4".into(),
            &"gs-8".into(),
            GdsMessage::Register { gs_host: "gs-8".into() },
        );
        assert!(nodes[&HostName::new("gds-1")].edge_summary(&"gds-4".into()).unwrap().is_wildcard());
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish { id: MessageId::from_raw(2), payload: event_payload("gs-5", 2) },
        );
        let mut recipients: Vec<String> = deliveries.iter().map(|(to, _)| to.to_string()).collect();
        recipients.sort();
        // gs-8's edge is wildcard, so the flood re-enters gds-4's subtree;
        // gs-4's own (empty) summary still prunes its local edge.
        assert_eq!(recipients, vec!["gs-6", "gs-8"]);

        // A payload that is not a decodable event floods everywhere.
        let mut nodes = pruned_figure2();
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish { id: MessageId::from_raw(3), payload: XmlElement::new("x").into() },
        );
        assert_eq!(deliveries.len(), 6, "conservative fallback floods to all");
    }

    #[test]
    fn stale_summary_versions_are_ignored() {
        let mut nodes = pruned_figure2();
        let gds6 = nodes.get_mut(&HostName::new("gds-6")).unwrap();
        gds6.handle_message(
            &"gs-6".into(),
            GdsMessage::SummaryUpdate { from: "gs-6".into(), version: 3, summary: host_summary("gs-1") },
        );
        // An older (delayed) update must not clobber the newer one.
        gds6.handle_message(
            &"gs-6".into(),
            GdsMessage::SummaryUpdate { from: "gs-6".into(), version: 2, summary: host_summary("gs-5") },
        );
        assert_eq!(gds6.edge_summary(&"gs-6".into()), Some(&host_summary("gs-1")));
    }

    #[test]
    fn adoption_resets_the_edge_to_wildcard() {
        let mut nodes = pruned_figure2();
        // Move gds-6 (the only interested subtree) under gds-1 directly.
        nodes.get_mut(&HostName::new("gds-3")).unwrap().remove_child(&"gds-6".into());
        let node6 = nodes.get_mut(&HostName::new("gds-6")).unwrap();
        node6.set_parent(Some("gds-1".into()));
        let rereg = node6.reregistrations();
        pump(&mut nodes, &"gds-1".into(), &"gds-6".into(), GdsMessage::Adopt { child: "gds-6".into() });
        for out in rereg {
            pump(&mut nodes, &out.to.clone(), &"gds-6".into(), out.msg);
        }
        // The new edge has no summary, so it is wildcard: events still
        // reach gs-6 even before gds-6 re-announces.
        assert_eq!(nodes[&HostName::new("gds-1")].edge_summary(&"gds-6".into()), None);
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish { id: MessageId::from_raw(4), payload: event_payload("gs-5", 4) },
        );
        assert!(
            deliveries.iter().any(|(to, _)| to == &HostName::new("gs-6")),
            "adopted subtree must not be pruned before it re-announces"
        );
    }

    #[test]
    fn disabled_pruning_sends_no_summary_traffic_and_full_floods() {
        let mut nodes = figure2();
        // Updates are stored even with pruning off (cheap, and they are
        // ready if pruning turns on), but nothing propagates upward and
        // floods stay full.
        pump(
            &mut nodes,
            &"gds-6".into(),
            &"gs-6".into(),
            GdsMessage::SummaryUpdate { from: "gs-6".into(), version: 1, summary: InterestSummary::empty() },
        );
        assert!(nodes[&HostName::new("gds-3")].edge_summary(&"gds-6".into()).is_none());
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish { id: MessageId::from_raw(5), payload: event_payload("gs-5", 5) },
        );
        assert_eq!(deliveries.len(), 6, "full flood when pruning is off");
    }

    #[test]
    fn summary_announcement_bumps_versions_and_skips_initial_wildcard() {
        let mut node = GdsNode::new("gds-9", 2, Some(HostName::new("gds-1")));
        node.set_pruning(true);
        node.add_child("gds-10");
        // Child edge has no summary → aggregate is wildcard → nothing
        // better than the parent's default to say.
        assert!(node.summary_announcement().is_none());
        node.handle_message(
            &"gds-10".into(),
            GdsMessage::SummaryUpdate { from: "gds-10".into(), version: 1, summary: host_summary("gs-5") },
        );
        let first = node.summary_announcement().expect("announces once known");
        let second = node.summary_announcement().expect("re-announce allowed");
        let version_of = |out: &GdsOutbound| match &out.msg {
            GdsMessage::SummaryUpdate { version, .. } => *version,
            other => panic!("unexpected {other:?}"),
        };
        assert!(version_of(&second) > version_of(&first));
    }

    fn kind_event_payload(host: &str, seq: u64, kind: gsa_types::EventKind) -> Payload {
        let mut event = gsa_types::Event::new(
            gsa_types::EventId::new(host, seq),
            gsa_types::CollectionId::new(host, "D"),
            kind,
            gsa_types::SimTime::from_millis(1),
        );
        event.docs = vec![gsa_types::DocSummary::new("doc-1").with_metadata(
            [("Language", "mi")].into_iter().collect::<gsa_types::MetadataRecord>(),
        )];
        gsa_wire::codec::event_to_xml(&event).into()
    }

    fn kind_summary(host: &str, kind: gsa_types::EventKind) -> InterestSummary {
        let mut s = host_summary(host);
        s.constrain_attr(
            gsa_wire::ATTR_KEY_KIND.to_owned(),
            vec![kind.as_str().to_owned()],
        );
        s
    }

    /// pruned_figure2 but gs-6's interest carries a kind digest: events
    /// from gs-5, and only documents-added ones.
    fn attr_pruned_figure2() -> BTreeMap<HostName, GdsNode> {
        let mut nodes = figure2();
        for node in nodes.values_mut() {
            node.set_pruning(true);
        }
        for i in 1..=7 {
            let gds = HostName::new(format!("gds-{i}"));
            let gs = HostName::new(format!("gs-{i}"));
            let summary = if i == 6 {
                kind_summary("gs-5", gsa_types::EventKind::DocumentsAdded)
            } else {
                InterestSummary::empty()
            };
            pump(
                &mut nodes,
                &gds,
                &gs,
                GdsMessage::SummaryUpdate { from: gs.clone(), version: 1, summary },
            );
        }
        nodes
    }

    #[test]
    fn attr_digests_prune_within_an_interested_collection() {
        let mut nodes = attr_pruned_figure2();
        // A collection-rebuilt event from gs-5: the collection anchor
        // matches gs-6's interest but the kind digest rules it out —
        // the whole gds-3 subtree is skipped.
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(1),
                payload: kind_event_payload("gs-5", 1, gsa_types::EventKind::CollectionRebuilt),
            },
        );
        assert!(deliveries.is_empty(), "kind digest must prune: {deliveries:?}");
        // A documents-added event still gets through.
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(2),
                payload: kind_event_payload("gs-5", 2, gsa_types::EventKind::DocumentsAdded),
            },
        );
        let recipients: Vec<String> = deliveries.iter().map(|(to, _)| to.to_string()).collect();
        assert_eq!(recipients, vec!["gs-6"]);
    }

    #[test]
    fn attr_digests_prune_on_the_frozen_probe_path_too() {
        let mut nodes = attr_pruned_figure2();
        for node in nodes.values_mut() {
            node.set_encode_once(true);
        }
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(3),
                payload: kind_event_payload("gs-5", 3, gsa_types::EventKind::CollectionRebuilt),
            },
        );
        assert!(deliveries.is_empty(), "probe path must see the kind: {deliveries:?}");
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(4),
                payload: kind_event_payload("gs-5", 4, gsa_types::EventKind::DocumentsAdded),
            },
        );
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, HostName::new("gs-6"));
    }

    #[test]
    fn meta_digests_prune_events_lacking_the_attribute() {
        let mut nodes = figure2();
        for node in nodes.values_mut() {
            node.set_pruning(true);
        }
        let mut wants_maori = host_summary("gs-5");
        wants_maori.constrain_attr("meta:Language".to_owned(), vec!["mi".to_owned()]);
        for i in 1..=7 {
            let gds = HostName::new(format!("gds-{i}"));
            let gs = HostName::new(format!("gs-{i}"));
            let summary = if i == 6 { wants_maori.clone() } else { InterestSummary::empty() };
            pump(
                &mut nodes,
                &gds,
                &gs,
                GdsMessage::SummaryUpdate { from: gs.clone(), version: 1, summary },
            );
        }
        // kind_event_payload docs carry Language=mi → delivered.
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(1),
                payload: kind_event_payload("gs-5", 1, gsa_types::EventKind::DocumentsAdded),
            },
        );
        assert_eq!(deliveries.len(), 1);
        // An event with no Language metadata at all provably cannot
        // satisfy the positive-equality digest → pruned.
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-5".into(),
            &"gs-5".into(),
            GdsMessage::Publish { id: MessageId::from_raw(2), payload: event_payload("gs-5", 2) },
        );
        assert!(deliveries.is_empty(), "missing digested attribute must prune");
    }

    /// attr_pruned_figure2 with rendezvous enabled everywhere: the
    /// (kind, documents-added) subgroup is exclusive to the gds-3 →
    /// gds-6 chain, so grants flow root → gds-3 → gds-6.
    fn rendezvous_figure2() -> BTreeMap<HostName, GdsNode> {
        let mut nodes = figure2();
        for node in nodes.values_mut() {
            node.set_pruning(true);
            node.set_rendezvous(true);
        }
        for i in 1..=7 {
            let gds = HostName::new(format!("gds-{i}"));
            let gs = HostName::new(format!("gs-{i}"));
            let summary = if i == 6 {
                kind_summary("gs-5", gsa_types::EventKind::DocumentsAdded)
            } else {
                InterestSummary::empty()
            };
            pump(
                &mut nodes,
                &gds,
                &gs,
                GdsMessage::SummaryUpdate { from: gs.clone(), version: 1, summary },
            );
        }
        nodes
    }

    #[test]
    fn rendezvous_grants_flow_down_the_exclusive_chain() {
        let nodes = rendezvous_figure2();
        let held = |name: &str| nodes[&HostName::new(name)].held_grants();
        let expect: BTreeMap<String, BTreeSet<String>> = [(
            "kind".to_owned(),
            ["documents-added".to_owned()].into_iter().collect(),
        )]
        .into_iter()
        .collect();
        // What gds-1 granted gds-3 and what gds-3 granted gds-6 is what
        // each holds.
        assert_eq!(held("gds-3"), &expect);
        assert_eq!(held("gds-6"), &expect);
        // The uninterested subtree holds nothing.
        assert!(held("gds-5").is_empty());
    }

    #[test]
    fn held_grants_confine_matching_floods_to_the_subtree() {
        let mut nodes = rendezvous_figure2();
        // A documents-added event *originating at gs-6* stays inside
        // gds-6: the grant proves nobody outside wants the subgroup.
        let (deliveries, _) = pump(
            &mut nodes,
            &"gds-6".into(),
            &"gs-6".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(1),
                payload: kind_event_payload("gs-6", 1, gsa_types::EventKind::DocumentsAdded),
            },
        );
        assert!(deliveries.is_empty());
        let node6 = nodes.get_mut(&HostName::new("gds-6")).unwrap();
        let confined = std::mem::take(node6.counts_mut()).get(CounterId::GDS_RENDEZVOUS_CONFINED);
        assert_eq!(confined, 1, "the upward hop must be confined");
        // An event of a different kind is NOT confined and floods up.
        let (_, _) = pump(
            &mut nodes,
            &"gds-6".into(),
            &"gs-6".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(2),
                payload: kind_event_payload("gs-6", 2, gsa_types::EventKind::CollectionRebuilt),
            },
        );
        let node6 = nodes.get_mut(&HostName::new("gds-6")).unwrap();
        assert_eq!(node6.counts_mut().get(CounterId::GDS_RENDEZVOUS_CONFINED), 0);
        // The root saw it (dedup now suppresses a replay through it).
        let root = nodes.get_mut(&HostName::new("gds-1")).unwrap();
        let effects = root.handle_message(
            &"gds-3".into(),
            GdsMessage::Broadcast {
                id: MessageId::from_raw(2),
                origin: "gs-6".into(),
                payload: kind_event_payload("gs-6", 2, gsa_types::EventKind::CollectionRebuilt),
            },
        );
        assert!(effects.outbound.is_empty(), "root must have seen the unconfined flood");
    }

    #[test]
    fn new_interest_elsewhere_revokes_grants_in_the_same_batch() {
        let mut nodes = rendezvous_figure2();
        // gs-7 now also wants documents-added events: the subgroup is no
        // longer exclusive to gds-6, so the grant must be revoked.
        pump(
            &mut nodes,
            &"gds-7".into(),
            &"gs-7".into(),
            GdsMessage::SummaryUpdate {
                from: "gs-7".into(),
                version: 2,
                summary: kind_summary("gs-5", gsa_types::EventKind::DocumentsAdded),
            },
        );
        assert!(
            nodes[&HostName::new("gds-6")].held_grants().is_empty(),
            "grant must be revoked once exclusivity is lost"
        );
        // And the flood leaves the subtree again (no confinement).
        pump(
            &mut nodes,
            &"gds-6".into(),
            &"gs-6".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(3),
                payload: kind_event_payload("gs-6", 3, gsa_types::EventKind::DocumentsAdded),
            },
        );
        let node6 = nodes.get_mut(&HostName::new("gds-6")).unwrap();
        assert_eq!(
            node6.counts_mut().get(CounterId::GDS_RENDEZVOUS_CONFINED),
            0,
            "revoked grant must not confine"
        );
        let root = nodes.get_mut(&HostName::new("gds-1")).unwrap();
        let effects = root.handle_message(
            &"gds-3".into(),
            GdsMessage::Broadcast {
                id: MessageId::from_raw(3),
                origin: "gs-6".into(),
                payload: kind_event_payload("gs-6", 3, gsa_types::EventKind::DocumentsAdded),
            },
        );
        assert!(effects.outbound.is_empty(), "root must have seen the flood after revocation");
    }

    #[test]
    fn mixed_trees_with_rendezvous_off_upstream_never_confine() {
        // Same network, but the root keeps the feature off: nobody can
        // prove upward exclusivity, so no grants exist anywhere and the
        // flood is plain digest-pruned.
        let mut nodes = figure2();
        for (name, node) in nodes.iter_mut() {
            node.set_pruning(true);
            node.set_rendezvous(name != &HostName::new("gds-1"));
        }
        for i in 1..=7 {
            let gds = HostName::new(format!("gds-{i}"));
            let gs = HostName::new(format!("gs-{i}"));
            let summary = if i == 6 {
                kind_summary("gs-5", gsa_types::EventKind::DocumentsAdded)
            } else {
                InterestSummary::empty()
            };
            pump(
                &mut nodes,
                &gds,
                &gs,
                GdsMessage::SummaryUpdate { from: gs.clone(), version: 1, summary },
            );
        }
        for node in nodes.values() {
            assert!(node.held_grants().is_empty());
        }
        let (_, _) = pump(
            &mut nodes,
            &"gds-6".into(),
            &"gs-6".into(),
            GdsMessage::Publish {
                id: MessageId::from_raw(1),
                payload: kind_event_payload("gs-6", 1, gsa_types::EventKind::DocumentsAdded),
            },
        );
        let confined: u64 = nodes
            .values_mut()
            .map(|n| n.counts_mut().get(CounterId::GDS_RENDEZVOUS_CONFINED))
            .sum();
        assert_eq!(confined, 0, "no grants, no confinement");
    }

    #[test]
    fn reparenting_drops_held_grants() {
        let mut nodes = rendezvous_figure2();
        let node6 = nodes.get_mut(&HostName::new("gds-6")).unwrap();
        assert!(!node6.held_grants().is_empty());
        node6.set_parent(Some("gds-1".into()));
        assert!(node6.held_grants().is_empty(), "grants are per-position in the tree");
    }

    #[test]
    fn heartbeats_heal_lost_grants() {
        let mut nodes = rendezvous_figure2();
        // Simulate a grant lost in transit: wipe it via a reparent round
        // trip back to the same parent (versions reset with it).
        let node6 = nodes.get_mut(&HostName::new("gds-6")).unwrap();
        node6.set_parent(Some("gds-3".into()));
        assert!(node6.held_grants().is_empty());
        // The parent's next beacon carries a re-grant.
        let parent = nodes.get_mut(&HostName::new("gds-3")).unwrap();
        let mut effects = GdsEffects::default();
        parent.beacons(&mut effects);
        for out in effects.outbound {
            pump(&mut nodes, &out.to, &"gds-3".into(), out.msg);
        }
        assert!(
            !nodes[&HostName::new("gds-6")].held_grants().is_empty(),
            "the beacon must re-send current grants"
        );
    }

    #[test]
    fn deferred_announcements_coalesce_a_burst_into_one_update() {
        let mut node = GdsNode::new("gds-9", 2, Some(HostName::new("gds-1")));
        node.set_pruning(true);
        let mut updates = 0;
        for (i, gs) in ["gs-a", "gs-b", "gs-c"].iter().enumerate() {
            let effects = node.handle_message(
                &HostName::new(*gs),
                GdsMessage::SummaryUpdate {
                    from: HostName::new(*gs),
                    version: 1,
                    summary: host_summary(&format!("gs-{i}")),
                },
            );
            node.handle_message(&HostName::new(*gs), GdsMessage::Register { gs_host: HostName::new(*gs) });
            updates += effects
                .outbound
                .iter()
                .filter(|o| matches!(o.msg, GdsMessage::SummaryUpdate { .. }))
                .count();
        }
        assert_eq!(updates, 0, "a node never announces inline");
        assert!(node.announce_pending());
        let flushed = node.flush_deferred_announcement().expect("one coalesced announce");
        assert!(matches!(flushed.msg, GdsMessage::SummaryUpdate { .. }));
        assert!(node.flush_deferred_announcement().is_none(), "burst collapses to one");
        // A no-op burst (same aggregate re-announced) flushes to nothing.
        node.handle_message(
            &"gs-a".into(),
            GdsMessage::SummaryUpdate {
                from: "gs-a".into(),
                version: 2,
                summary: host_summary("gs-0"),
            },
        );
        assert!(node.announce_pending());
        assert!(node.flush_deferred_announcement().is_none(), "unchanged aggregate is dropped");
    }

    #[test]
    fn node_accessors() {
        let nodes = figure2();
        let root = &nodes[&HostName::new("gds-1")];
        assert_eq!(root.stratum(), 1);
        assert!(root.parent().is_none());
        assert_eq!(root.children().count(), 3);
        assert_eq!(root.name().as_str(), "gds-1");
    }

    /// A frame of `ids` as the parent floods it.
    fn broadcast_frame(ids: std::ops::RangeInclusive<u64>) -> Arc<[GdsMessage]> {
        ids.map(|id| GdsMessage::Broadcast {
            id: MessageId::from_raw(id),
            origin: "gs-1".into(),
            payload: XmlElement::new("event").into(),
        })
        .collect()
    }

    /// The replay ring holds items as references into the frames they
    /// came in: the newest `RECENT_CAP`, across frame boundaries, and
    /// nothing of a frame it evicted whole.
    #[test]
    fn the_replay_ring_keeps_the_newest_items_by_reference() {
        let mut node = GdsNode::new("gds-2", 2, Some("gds-1".into()));
        let parent = HostName::new("gds-1");
        // 17 frames of 8 and one of 5: 141 items, 13 past the cap.
        let frames: Vec<Arc<[GdsMessage]>> = (0..17u64)
            .map(|f| broadcast_frame(f * 8 + 1..=f * 8 + 8))
            .chain([broadcast_frame(137..=141)])
            .collect();
        let first = Arc::downgrade(&frames[0]);
        let mut frames = frames.into_iter();
        node.handle_message(&parent, GdsMessage::Batch(frames.next().expect("17 + 1")));
        let frames: Vec<Arc<[GdsMessage]>> = frames.collect();
        for frame in &frames {
            node.handle_message(&parent, GdsMessage::Batch(frame.clone()));
        }
        assert_eq!(node.recent.len(), RECENT_CAP);
        assert!(first.upgrade().is_none(), "the fully evicted frame is released");
        // The second frame lost its first five items to the cap.
        assert_eq!(Arc::strong_count(&frames[0]), 1 + 3);
        assert_eq!(Arc::strong_count(&frames[16]), 1 + 5);

        let effects = node.handle_message(&"gds-9".into(), GdsMessage::Adopt { child: "gds-9".into() });
        let replayed: Vec<u64> = effects
            .outbound
            .iter()
            .filter(|out| out.to.as_str() == "gds-9")
            .map(|out| match &out.msg {
                GdsMessage::Broadcast { id, .. } => id.as_u64(),
                other => panic!("replay sends broadcasts, not {other}"),
            })
            .collect();
        assert_eq!(replayed, (14..=141).collect::<Vec<u64>>(), "in flood order");
    }
}
