//! The interest machine: what a directory node knows of the interests
//! below each edge, and the flood's one question per event — on which
//! edges is it skipped, and is its upward hop confined? The paper's
//! flood keeps nothing and skips nothing; pruning keeps an
//! [`InterestSummary`] per edge and announces the subtree's aggregate
//! upward; grants confine an `(attribute, value)` subgroup to the one
//! subtree that provably holds all its interest.

use crate::membership::Membership;
use crate::message::GdsMessage;
use crate::node::{GdsEffects, GdsOutbound};
use gsa_types::{CounterId, Counts, HostName};
use gsa_wire::summary::AttrMap;
use gsa_wire::{InterestSummary, Payload, ATTR_KEY_KIND, ATTR_META_PREFIX};
use std::collections::{BTreeMap, BTreeSet};

/// Most `(attribute, value)` subgroup grants a node hands to one child,
/// so a pathological subscription mix cannot turn every beacon heal into
/// a bulk state transfer. Excess candidates stay ungranted: events for
/// them flood from the root as before, which is always safe.
const MAX_GRANTS: usize = 8;

/// The grants of a node that holds none.
static NO_GRANTS: AttrMap = AttrMap::new();

/// Which interest machine a directory node runs: a construction-time
/// choice, made alike for every node of a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterestMode {
    /// The paper's flood: every event reaches every edge, and the node
    /// keeps, announces and honours no summary and no grant.
    #[default]
    Flood,
    /// Subscription-aware pruning: floods skip downward edges whose
    /// interest summary cannot match the event.
    Prune,
    /// Pruning plus rendezvous grants, which confine an event to the
    /// subtree that provably holds every interest in it.
    PruneWithGrants,
}

/// A node's interest machine (see the module docs).
pub(crate) enum Interest {
    Flood,
    Summaries(Box<Summaries>),
}

/// The pruning machine.
#[derive(Default)]
pub(crate) struct Summaries {
    /// Newest summary per direct edge, with the sender's version. An
    /// edge with no entry is wildcard — never pruned — which makes loss,
    /// reordering, restarts and reparenting safe: forgetting a summary
    /// only ever widens delivery.
    edges: BTreeMap<HostName, (u64, InterestSummary)>,
    /// Version of this node's announcements, and the last one sent:
    /// `None` until the first, as the parent's wildcard-by-absence
    /// covers us and an initial wildcard aggregate is never sent.
    version: u64,
    last_sent: Option<InterestSummary>,
    /// The aggregate may have changed since the last announcement.
    dirty: bool,
    /// The attribute keys a flood reads off the event, sorted: the edge
    /// summaries' digest keys and the held grants' keys.
    requested_keys: Vec<String>,
    /// The event's anchor (`host.name` of its origin), reused across
    /// floods so it costs no allocation per hop.
    anchor: String,
    grants: Option<Grants>,
}

/// The rendezvous half of the pruning machine.
#[derive(Default)]
struct Grants {
    /// Held from the parent, which proved no interest in these pairs
    /// exists outside this subtree; with the version accepted.
    held: AttrMap,
    held_version: u64,
    /// Extended to each child, with the version counter of outgoing
    /// grants.
    granted: BTreeMap<HostName, AttrMap>,
    version: u64,
    /// Accepted summaries naming each `(attribute, value)` subgroup:
    /// the [`MAX_GRANTS`] budget goes to the hottest first.
    hot_hits: BTreeMap<String, BTreeMap<String, u64>>,
}

impl Interest {
    pub(crate) fn new(mode: InterestMode) -> Self {
        let grants = match mode {
            InterestMode::Flood => return Interest::Flood,
            InterestMode::Prune => None,
            InterestMode::PruneWithGrants => Some(Grants::default()),
        };
        Interest::Summaries(Box::new(Summaries { grants, ..Summaries::default() }))
    }

    fn summaries(&self) -> Option<&Summaries> {
        match self {
            Interest::Summaries(s) => Some(s),
            Interest::Flood => None,
        }
    }

    fn summaries_mut(&mut self) -> Option<&mut Summaries> {
        match self {
            Interest::Summaries(s) => Some(s),
            Interest::Flood => None,
        }
    }

    pub(crate) fn summary(&self, edge: &HostName) -> Option<&InterestSummary> {
        self.summaries()?.edges.get(edge).map(|(_, summary)| summary)
    }

    pub(crate) fn held_grants(&self) -> &AttrMap {
        self.summaries().and_then(|s| s.grants.as_ref()).map_or(&NO_GRANTS, |g| &g.held)
    }

    pub(crate) fn aggregate(&self, members: &Membership) -> InterestSummary {
        let mut agg = InterestSummary::empty();
        for member in members.local.iter().chain(&members.children) {
            match self.summary(member) {
                Some(summary) => agg.union_with(summary),
                None => return InterestSummary::wildcard(),
            }
            if agg.is_wildcard() {
                return agg;
            }
        }
        agg
    }

    /// The announcement of the aggregate to the parent: unless
    /// `changed_only` and it is what was last sent, or nothing better
    /// than the parent's wildcard-by-absence was ever known. The version
    /// bumps every time so the parent, which keeps the newest per edge,
    /// accepts it; a repeated aggregate reuses the summary sent before,
    /// so its frozen encoding is shared instead of re-serialised.
    pub(crate) fn announce(
        &mut self,
        me: &HostName,
        members: &Membership,
        changed_only: bool,
    ) -> Option<GdsOutbound> {
        let parent = members.parent.clone()?;
        let agg = self.summaries().is_some().then(|| self.aggregate(members))?;
        let s = self.summaries_mut()?;
        if s.last_sent.as_ref().map_or(agg.is_wildcard(), |last| changed_only && *last == agg) {
            return None;
        }
        s.version += 1;
        let summary = match &s.last_sent {
            Some(last) if *last == agg => last.clone(),
            _ => s.last_sent.insert(agg).clone(),
        };
        let (from, version) = (me.clone(), s.version);
        let msg = GdsMessage::SummaryUpdate { from, version, summary };
        Some(GdsOutbound { to: parent, msg })
    }

    /// The newest announcement version sent (0 before the first).
    pub(crate) fn version(&self) -> u64 {
        self.summaries().map_or(0, |s| s.version)
    }

    /// Whether edge changes marked the aggregate for announcement.
    pub(crate) fn pending(&self) -> bool {
        self.summaries().is_some_and(|s| s.dirty)
    }

    pub(crate) fn take_pending(&mut self) -> bool {
        self.summaries_mut().is_some_and(|s| std::mem::take(&mut s.dirty))
    }

    /// Records an edge's summary when strictly newer than the one held,
    /// so delayed or reordered updates never clobber fresher knowledge;
    /// `true` when it was. A flood node keeps nothing.
    pub(crate) fn on_summary(
        &mut self,
        edge: HostName,
        version: u64,
        summary: InterestSummary,
        counts: &mut Counts,
    ) -> bool {
        let Some(s) = self.summaries_mut() else {
            return false;
        };
        if s.edges.get(&edge).is_some_and(|(held, _)| version <= *held) {
            return false;
        }
        if let Some(grants) = &mut s.grants {
            for (key, values) in summary.attrs() {
                let hits = grants.hot_hits.entry(key.to_owned()).or_default();
                for value in values {
                    *hits.entry(value.clone()).or_insert(0) += 1;
                }
            }
        }
        s.edges.insert(edge, (version, summary));
        counts.add(CounterId::GDS_SUMMARY_UPDATES, 1);
        true
    }

    /// Accepts a full-replacement grant set from the parent when strictly
    /// newer; `true` when it did. A node without grants ignores them:
    /// mixed trees degrade to plain pruning, never to loss.
    pub(crate) fn on_grant(&mut self, version: u64, grants: AttrMap) -> bool {
        let held = self.summaries_mut().and_then(|s| s.grants.as_mut());
        let Some(g) = held.filter(|g| version > g.held_version) else {
            return false;
        };
        (g.held, g.held_version) = (grants, version);
        true
    }

    /// Forgets an edge's summary (it is wildcard again until it
    /// announces afresh) and, with `child`, what the edge was granted.
    pub(crate) fn forget(&mut self, edge: &HostName, child: bool) {
        if let Some(s) = self.summaries_mut() {
            s.edges.remove(edge);
            if let Some(grants) = s.grants.as_mut().filter(|_| child) {
                grants.granted.remove(edge);
            }
        }
    }

    /// Drops the grants held from a former parent: their exclusivity
    /// proof was relative to the old position in the tree, and versions
    /// restart with the next granter.
    pub(crate) fn drop_held(&mut self) {
        if let Some(s) = self.summaries_mut() {
            if let Some(grants) = &mut s.grants {
                (grants.held, grants.held_version) = (AttrMap::new(), 0);
                s.rebuild_requested_keys();
            }
        }
    }

    /// Re-derives what follows from a change of edges, summaries or held
    /// grants: the requested keys and the children's grants, whose
    /// revocations ride the same effects batch as the change. An edge
    /// change (`dirty`) also marks the aggregate for announcement.
    pub(crate) fn changed(
        &mut self,
        dirty: bool,
        me: &HostName,
        members: &Membership,
        counts: &mut Counts,
        effects: &mut GdsEffects,
    ) {
        let Some(s) = self.summaries_mut() else {
            return;
        };
        s.rebuild_requested_keys();
        s.dirty |= dirty && members.parent.is_some();
        let Some(grants) = &mut s.grants else {
            return;
        };
        // Safe under loss and reorder: a grant only ever narrows delivery
        // while it is provably exclusive, any widening of interest
        // elsewhere revokes it at once, and beacons re-send it as a heal.
        for child in &members.children {
            let want = grants.entitled(&s.edges, child, members);
            if grants.granted.get(child).map_or(want.is_empty(), |g| *g == want) {
                continue;
            }
            grants.send(child, want.clone(), me, counts, effects);
            if want.is_empty() {
                grants.granted.remove(child);
            } else {
                grants.granted.insert(child.clone(), want);
            }
        }
    }

    /// One beacon per child carrying the version of the child's summary
    /// held here, followed by the child's current grants.
    pub(crate) fn beacons(
        &mut self,
        me: &HostName,
        members: &Membership,
        counts: &mut Counts,
        effects: &mut GdsEffects,
    ) {
        let (edges, mut grants) = match self {
            Interest::Summaries(s) => (Some(&s.edges), s.grants.as_mut()),
            Interest::Flood => (None, None),
        };
        for child in &members.children {
            let version = edges.and_then(|e| e.get(child)).map_or(0, |(v, _)| *v);
            effects.send(child.clone(), GdsMessage::HeartbeatAck { version });
            let granted = grants.as_ref().and_then(|g| g.granted.get(child).cloned());
            if let (Some(g), Some(granted)) = (grants.as_mut(), granted) {
                g.send(child, granted, me, counts, effects);
            }
        }
    }

    /// Whether a verdict reads the event: a flood node's never does, so
    /// its decision for an item rests on the item's origin and sender.
    pub(crate) fn reads_events(&self) -> bool {
        matches!(self, Interest::Summaries(_))
    }

    /// Reads the event's anchor and, when a digest or grant could use
    /// them, its attribute values: the flood's one question per event.
    /// Any doubt — no summary for an edge, an undecodable payload, a
    /// flood node — forwards: a false positive costs a message, a false
    /// negative is impossible by construction.
    #[inline]
    pub(crate) fn verdict(&mut self, payload: &Payload) -> Verdict<'_> {
        match self {
            Interest::Summaries(s) => s.verdict(payload),
            Interest::Flood => Verdict::default(),
        }
    }
}

impl Summaries {
    fn verdict(&mut self, payload: &Payload) -> Verdict<'_> {
        self.anchor.clear();
        let (mut host_len, mut attrs) = (0, Vec::new());
        let held = self.grants.as_ref().map_or(&NO_GRANTS, |g| &g.held);
        let keys = &self.requested_keys;
        if !self.edges.is_empty() || !held.is_empty() {
            // On frozen binary payloads the probe reads the origin header
            // and the values in place: no per-hop Event materialisation.
            // A malformed doc section leaves `attrs` empty, which prunes
            // by no attribute and confines nothing.
            if let Some(mut probe) = payload.probe_event() {
                host_len = set_anchor(&mut self.anchor, probe.origin_host(), probe.origin_name());
                let (kind, mut failed) = (probe.kind(), false);
                let docs = std::iter::from_fn(|| probe.next_doc().map_err(|_| failed = true).ok()?);
                attrs = attr_values(keys, kind.as_str(), docs.map(|doc| doc.metadata()));
                if failed {
                    attrs.clear();
                }
            } else if let Ok(event) = payload.decode_event() {
                let (host, name) = (event.origin.host(), event.origin.name());
                host_len = set_anchor(&mut self.anchor, host.as_str(), name.as_str());
                let docs = event.docs.iter().map(|doc| {
                    doc.metadata.iter_flat().map(|(key, value)| (key.as_str(), value))
                });
                attrs = attr_values(keys, event.kind.as_str(), docs);
            }
        }
        // Confined when some held grant key has event values and *all*
        // of them are granted (a partially granted value set must still
        // go up: the other values may have interest elsewhere).
        let confined = attrs.iter().any(|(key, values)| {
            let granted = held.get(key);
            !values.is_empty() && granted.is_some_and(|g| values.iter().all(|v| g.contains(v)))
        });
        let summaries = (!self.anchor.is_empty()).then_some(&*self);
        Verdict { summaries, host_len, attrs, confined }
    }

    fn rebuild_requested_keys(&mut self) {
        let held = self.grants.as_ref().map(|g| g.held.keys().map(String::as_str));
        let keys: BTreeSet<&str> = self
            .edges
            .values()
            .flat_map(|(_, summary)| summary.attrs().map(|(key, _)| key))
            .chain(held.into_iter().flatten())
            .collect();
        self.requested_keys.clear();
        self.requested_keys.extend(keys.into_iter().map(str::to_owned));
    }
}

impl Grants {
    /// The `(attribute, value)` subgroups `child` is entitled to own:
    /// pairs its own summary digests declare interest in, where every
    /// *other* downward edge provably excludes the value and the upward
    /// side is covered (this node is the root, or it holds the pair from
    /// its own parent — exclusivity is transitive). Hottest subgroups
    /// first, capped at [`MAX_GRANTS`].
    fn entitled(
        &self,
        edges: &BTreeMap<HostName, (u64, InterestSummary)>,
        child: &HostName,
        members: &Membership,
    ) -> AttrMap {
        let Some((_, child_summary)) = edges.get(child) else {
            return AttrMap::new();
        };
        let mut candidates: Vec<(&str, &str)> = child_summary
            .attrs()
            .flat_map(|(key, values)| values.iter().map(move |value| (key, value.as_str())))
            .collect();
        candidates.retain(|&(key, value)| {
            let mut others = members.local.iter().chain(&members.children).filter(|e| *e != child);
            let outside_excluded =
                others.all(|e| edges.get(e).is_some_and(|(_, s)| s.excludes_value(key, value)));
            let upward_covered =
                members.parent.is_none() || self.held.get(key).is_some_and(|vs| vs.contains(value));
            outside_excluded && upward_covered
        });
        let hits = |&(key, value): &(&str, &str)| {
            self.hot_hits.get(key).and_then(|per_value| per_value.get(value)).copied().unwrap_or(0)
        };
        candidates.sort_by(|a, b| hits(b).cmp(&hits(a)).then_with(|| a.cmp(b)));
        candidates.truncate(MAX_GRANTS);
        let mut grants = AttrMap::new();
        for (key, value) in candidates {
            grants.entry(key.to_owned()).or_default().insert(value.to_owned());
        }
        grants
    }

    fn send(
        &mut self,
        child: &HostName,
        grants: AttrMap,
        me: &HostName,
        counts: &mut Counts,
        effects: &mut GdsEffects,
    ) {
        self.version += 1;
        counts.add(CounterId::GDS_RENDEZVOUS_GRANTS, 1);
        let (from, version) = (me.clone(), self.version);
        effects.send(child.clone(), GdsMessage::RendezvousGrant { from, version, grants });
    }
}

/// The interest machine's answer for one event.
#[derive(Default)]
pub(crate) struct Verdict<'a> {
    /// The summaries the event's anchor was read for (`None`: no edge
    /// is skipped); the anchor's host is its first `host_len` bytes.
    summaries: Option<&'a Summaries>,
    host_len: usize,
    /// The event's values per requested key (empty if reading failed).
    attrs: Vec<(String, Vec<String>)>,
    /// A held grant keeps the event in this subtree: no upward hop.
    pub(crate) confined: bool,
}

impl Verdict<'_> {
    /// Whether the event is skipped on the downward `edge`: the edge's
    /// summary cannot match its origin, or a digest rules out its
    /// attribute values.
    #[inline]
    pub(crate) fn skips(&self, edge: &HostName) -> bool {
        let Some(s) = self.summaries else {
            return false;
        };
        let Some((_, summary)) = s.edges.get(edge) else {
            return false;
        };
        let attrs = &self.attrs;
        !summary.may_match(&s.anchor[..self.host_len], &s.anchor)
            || (!attrs.is_empty() && summary.has_attrs() && excluded_by_digests(summary, attrs))
    }
}

/// Writes `host.name` into the empty `anchor`; returns the host's length.
fn set_anchor(anchor: &mut String, host: &str, name: &str) -> usize {
    anchor.push_str(host);
    anchor.push('.');
    anchor.push_str(name);
    host.len()
}

/// Whether an edge summary's attribute digests rule the event out: some
/// digested key where none of the event's values is allowed. An event
/// that *lacks* a digested attribute (empty values) is excluded too —
/// every interest behind the digest demands a positive equality on it.
/// `event_attrs` holds every key any edge digests (or nothing at all).
fn excluded_by_digests(summary: &InterestSummary, event_attrs: &[(String, Vec<String>)]) -> bool {
    event_attrs.iter().any(|(key, values)| {
        summary
            .attr_constraint(key)
            .is_some_and(|allowed| !values.iter().any(|v| allowed.contains(v)))
    })
}

/// The event's values for each requested digest key: its `kind` for
/// [`ATTR_KEY_KIND`], and the union across its documents' metadata
/// (`docs`, one `(key, value)` iterator per document, walked only when
/// a `meta:` key is requested) for a [`ATTR_META_PREFIX`]ed key. An
/// empty value list means the event provably lacks that attribute.
fn attr_values<'d, D>(requested: &[String], kind: &str, docs: D) -> Vec<(String, Vec<String>)>
where
    D: Iterator<Item: Iterator<Item = (&'d str, &'d str)>>,
{
    let mut out: Vec<(String, Vec<String>)> = Vec::with_capacity(requested.len());
    for key in requested {
        let values = if key == ATTR_KEY_KIND { vec![kind.to_owned()] } else { Vec::new() };
        out.push((key.clone(), values));
    }
    if requested.iter().any(|key| key.starts_with(ATTR_META_PREFIX)) {
        for (meta_key, meta_value) in docs.flatten() {
            for (key, values) in &mut out {
                let wanted = key.strip_prefix(ATTR_META_PREFIX) == Some(meta_key);
                if wanted && !values.iter().any(|v| v == meta_value) {
                    values.push(meta_value.to_owned());
                }
            }
        }
    }
    out
}
