//! Subtree interest summaries for GDS flood pruning.
//!
//! An [`InterestSummary`] is a conservative, set-based digest of the
//! subscription interests registered in some scope (one server's
//! profiles, or the union over a directory node's whole subtree). It
//! answers one question at flood time: *can any subscriber below this
//! edge possibly match an event from this origin?* The answer errs
//! toward "yes" — a summary may over-approximate the live interests
//! (false positives merely forward a message that nobody wanted), but
//! it must never under-approximate them (a false negative would drop a
//! notification). The extraction side of that contract lives in
//! `gsa-profile`: any profile shape the extractor cannot anchor to an
//! exact origin host or collection collapses the summary to
//! [`InterestSummary::wildcard`], which matches everything.
//!
//! On top of the host/collection anchors a summary may carry a bounded
//! set of *equality-attribute digests*: an entry `(key, values)` states
//! that **every** interest in the scope requires the event's `key`
//! attribute to take a value in `values` (established by a positive
//! equality or one-of literal). A flood can therefore skip an edge
//! whose subtree subscribes to the event's collection but provably not
//! its attribute values. Absence of a key means "unconstrained" — the
//! conservative default — so digests can only ever tighten, never
//! widen, and any profile shape the extractor cannot analyse simply
//! contributes no digest. Both the key count and the per-key value
//! count are bounded ([`InterestSummary::MAX_ATTR_DIGESTS`],
//! [`InterestSummary::MAX_ATTR_VALUES`]); exceeding a bound drops the
//! digest, which widens toward "forward anyway" and stays sound.
//!
//! Summaries travel inside `gds:summary` messages, so this module also
//! provides the XML (v1) and binary (v2) codec halves, following the
//! same conventions as the rest of the wire layer. Because an
//! aggregated summary is re-announced verbatim by beacon heals and
//! reparents, the binary encoding is computed once per distinct value
//! and frozen (same encode-once pattern as flood payloads): clones
//! share the buffer, mutation detaches it.

use crate::binary::{write_str, write_varint, BinReader, ByteSink};
use crate::message::Field;
use crate::xml::{WireError, XmlElement, XmlPut};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Digest key naming the event kind attribute.
pub const ATTR_KEY_KIND: &str = "kind";

/// Digest key prefix for document metadata attributes: metadata key `K`
/// digests under `meta:K`, so a metadata key literally named "kind"
/// cannot collide with [`ATTR_KEY_KIND`].
pub const ATTR_META_PREFIX: &str = "meta:";

/// `attribute key → set of values`: a summary's equality digests, and the
/// subgroups of a rendezvous grant.
pub type AttrMap = BTreeMap<String, BTreeSet<String>>;

/// The lazily-frozen binary encoding of a summary. Clones share the
/// buffer (it is part of no summary's *value*, so equality and the
/// codecs ignore it); any mutation replaces the slot so stale bytes can
/// never be re-sent.
#[derive(Debug, Clone, Default)]
struct FrozenEncoding(Arc<OnceLock<Box<[u8]>>>);

/// A conservative digest of subscription interests: the set of exact
/// origin hosts and origin collections ("Host.Name") that profiles
/// below some edge are anchored to, plus optional equality-attribute
/// digests tightening them — or *wildcard* when at least one profile
/// could match events from anywhere.
///
/// The empty (non-wildcard) summary matches nothing — the digest of a
/// scope with no subscribers at all.
#[derive(Debug, Clone, Default)]
pub struct InterestSummary {
    /// When set, the summary matches every event (some interest below
    /// this edge could not be anchored to an exact origin).
    wildcard: bool,
    /// Exact origin host names of anchored interests.
    hosts: BTreeSet<String>,
    /// Exact origin collection ids (`Host.Name`) of anchored interests.
    collections: BTreeSet<String>,
    /// Equality-attribute digests: `key → values` means every interest
    /// in scope requires the event's `key` attribute to take one of
    /// `values`. Keys absent from the map are unconstrained. Only
    /// meaningful alongside anchors (wildcard and empty summaries carry
    /// none — the canonical forms).
    attrs: AttrMap,
    /// Frozen binary encoding (encode-once; excluded from equality).
    frozen: FrozenEncoding,
}

impl PartialEq for InterestSummary {
    fn eq(&self, other: &Self) -> bool {
        self.wildcard == other.wildcard
            && self.hosts == other.hosts
            && self.collections == other.collections
            && self.attrs == other.attrs
    }
}

impl Eq for InterestSummary {}

impl InterestSummary {
    /// Most distinct attribute keys a summary will carry; inserting
    /// beyond the bound is ignored (the extra key stays unconstrained).
    pub const MAX_ATTR_DIGESTS: usize = 4;

    /// Most values per attribute digest; a larger set drops the whole
    /// digest (truncating the set would claim a *tighter* constraint
    /// than real and could prune a wanted event).
    pub const MAX_ATTR_VALUES: usize = 8;

    /// The empty summary: no interests, matches nothing.
    pub fn empty() -> Self {
        InterestSummary::default()
    }

    /// The wildcard summary: matches every event.
    pub fn wildcard() -> Self {
        InterestSummary {
            wildcard: true,
            ..InterestSummary::default()
        }
    }

    /// `true` when this summary matches every event.
    pub fn is_wildcard(&self) -> bool {
        self.wildcard
    }

    /// `true` when this summary matches nothing (no interests at all).
    pub fn is_empty(&self) -> bool {
        !self.wildcard && self.hosts.is_empty() && self.collections.is_empty()
    }

    /// Drops any frozen encoding; called by every mutator so stale
    /// bytes are never re-sent. Replaces (rather than clears) the slot
    /// because clones share it.
    fn touch(&mut self) {
        self.frozen = FrozenEncoding::default();
    }

    /// Records an interest anchored to an exact origin host.
    pub fn add_host(&mut self, host: impl Into<String>) {
        self.hosts.insert(host.into());
        self.touch();
    }

    /// Records an interest anchored to an exact origin collection
    /// (`Host.Name`).
    pub fn add_collection(&mut self, collection: impl Into<String>) {
        self.collections.insert(collection.into());
        self.touch();
    }

    /// Widens this summary to match everything.
    pub fn make_wildcard(&mut self) {
        self.wildcard = true;
        // Anchors and digests are redundant under the wildcard;
        // dropping them keeps the encoding minimal and equality
        // canonical.
        self.hosts.clear();
        self.collections.clear();
        self.attrs.clear();
        self.touch();
    }

    /// Records an equality-attribute digest: every interest in this
    /// scope requires the event's `key` attribute to take a value in
    /// `values`. First write per key wins (a repeated literal on the
    /// same key in one conjunction must *not* intersect — an event can
    /// satisfy both through different values of a multi-valued
    /// attribute). An empty or oversize value set, or a key beyond the
    /// digest bound, is skipped: the key just stays unconstrained.
    pub fn constrain_attr(
        &mut self,
        key: impl Into<String>,
        values: impl IntoIterator<Item = String>,
    ) {
        if self.wildcard {
            return;
        }
        let key = key.into();
        if self.attrs.contains_key(&key) || self.attrs.len() >= Self::MAX_ATTR_DIGESTS {
            return;
        }
        let values: BTreeSet<String> = values.into_iter().collect();
        if values.is_empty() || values.len() > Self::MAX_ATTR_VALUES {
            return;
        }
        self.attrs.insert(key, values);
        self.touch();
    }

    /// `true` when the summary carries at least one attribute digest.
    pub fn has_attrs(&self) -> bool {
        !self.attrs.is_empty()
    }

    /// The attribute digests, in sorted key order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &BTreeSet<String>)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The digest for one attribute key, when constrained.
    pub fn attr_constraint(&self, key: &str) -> Option<&BTreeSet<String>> {
        self.attrs.get(key)
    }

    /// `true` when this summary provably matches no event carrying
    /// `value` for attribute `key`: either nothing is subscribed at
    /// all, or every interest requires `key` to take some *other*
    /// value. The rendezvous election uses this to prove an
    /// `(attribute, value)` subgroup has no members below an edge.
    pub fn excludes_value(&self, key: &str, value: &str) -> bool {
        if self.wildcard {
            return false;
        }
        if self.is_empty() {
            return true;
        }
        self.attrs.get(key).is_some_and(|vals| !vals.contains(value))
    }

    /// Keeps the digests canonical: attribute constraints are only
    /// meaningful alongside anchors and never under the wildcard, and
    /// both bounds hold. Decoders funnel through this so a hand-crafted
    /// frame cannot smuggle an out-of-contract summary in.
    fn canonicalize(&mut self) {
        if self.wildcard || self.is_empty() {
            self.attrs.clear();
            return;
        }
        self.attrs
            .retain(|_, vals| !vals.is_empty() && vals.len() <= Self::MAX_ATTR_VALUES);
        while self.attrs.len() > Self::MAX_ATTR_DIGESTS {
            self.attrs.pop_last();
        }
    }

    /// Unions another summary into this one.
    ///
    /// Anchors union as sets. Digests *intersect by key and union by
    /// value*: a key constrains the union only when both sides
    /// constrain it (an unconstrained side may hold interests in any
    /// value), and then any value either side accepts must be kept. The
    /// empty summary is the identity — it holds no interests, so it
    /// neither adds anchors nor weakens digests.
    pub fn union_with(&mut self, other: &InterestSummary) {
        if self.wildcard || other.is_empty() {
            return;
        }
        if other.wildcard {
            self.make_wildcard();
            return;
        }
        if self.is_empty() {
            self.hosts.clone_from(&other.hosts);
            self.collections.clone_from(&other.collections);
            self.attrs.clone_from(&other.attrs);
        } else {
            self.hosts.extend(other.hosts.iter().cloned());
            self.collections.extend(other.collections.iter().cloned());
            self.attrs.retain(|key, _| other.attrs.contains_key(key));
            for (key, vals) in &mut self.attrs {
                vals.extend(other.attrs[key].iter().cloned());
            }
        }
        self.canonicalize();
        self.touch();
    }

    /// Can an event with this exact origin host and origin collection
    /// (`Host.Name`) match any interest in the summary? Anchor check
    /// only — attribute digests are applied separately
    /// ([`InterestSummary::attr_constraint`]) because they need the
    /// event's attribute values, not just its origin.
    pub fn may_match(&self, origin_host: &str, origin_collection: &str) -> bool {
        self.wildcard
            || self.hosts.contains(origin_host)
            || self.collections.contains(origin_collection)
    }

    /// `true` when every event this `other` summary matches is also
    /// matched by `self` — the superset/no-false-negative invariant the
    /// property tests pin. With digests the direction flips: `self`
    /// covers `other` only when each of `self`'s constraints is at
    /// least as *loose* as a constraint `other` states (`other`'s
    /// digest set ⊆ `self`'s), so anything `other` lets through,
    /// `self` lets through too.
    pub fn covers(&self, other: &InterestSummary) -> bool {
        if self.wildcard {
            return true;
        }
        if other.wildcard {
            return false;
        }
        if other.is_empty() {
            return true;
        }
        other.hosts.is_subset(&self.hosts)
            && other.collections.is_subset(&self.collections)
            && self
                .attrs
                .iter()
                .all(|(key, vals)| other.attrs.get(key).is_some_and(|o| o.is_subset(vals)))
    }

    /// The anchored host names, in sorted order.
    pub fn hosts(&self) -> impl Iterator<Item = &str> {
        self.hosts.iter().map(String::as_str)
    }

    /// The anchored collection ids, in sorted order.
    pub fn collections(&self) -> impl Iterator<Item = &str> {
        self.collections.iter().map(String::as_str)
    }

    /// A summary as decoded: whatever arrived, made canonical.
    fn decoded(hosts: BTreeSet<String>, collections: BTreeSet<String>, attrs: AttrMap) -> Self {
        let mut summary = InterestSummary {
            hosts,
            collections,
            attrs,
            ..InterestSummary::default()
        };
        summary.canonicalize();
        summary
    }

    /// The frozen binary encoding, computed on first use and shared by
    /// clones from then on — a summary re-announced many times
    /// serializes exactly once. A wildcard flag byte, the two
    /// length-prefixed anchor sets, then the attribute digests.
    fn frozen_bytes(&self) -> &[u8] {
        self.frozen.0.get_or_init(|| {
            let mut buf = vec![u8::from(self.wildcard)];
            for anchors in [&self.hosts, &self.collections] {
                write_varint(&mut buf, anchors.len() as u64);
                for anchor in anchors {
                    write_str(&mut buf, anchor);
                }
            }
            DIGESTS.put_bin(&self.attrs, &mut buf);
            buf.into_boxed_slice()
        })
    }
}

/// The wire forms of an [`AttrMap`]. v1: one child per key, named by the
/// field, with a `key` attribute and a `<value>` child per value. v2: a
/// count of keys, then per key the key, a count and the values. A key
/// that arrives twice keeps its later set; no writer repeats one.
#[derive(Debug, Clone, Copy)]
pub struct AttrMapField(pub &'static str);

const DIGESTS: AttrMapField = AttrMapField("attr");

impl Field for AttrMapField {
    type Value = AttrMap;

    fn put_xml(&self, v: &AttrMap, out: &mut impl XmlPut) {
        for (key, values) in v {
            out.child(self.0, |entry| {
                entry.attr("key", key);
                for value in values {
                    entry.child("value", |el| el.text(value));
                }
            });
        }
    }

    fn take_xml(&self, el: &XmlElement) -> Result<AttrMap, WireError> {
        let entries = el.children_named(self.0).map(|entry| {
            let key = entry
                .attr("key")
                .ok_or_else(|| WireError::malformed(format!("<{}> without key", self.0)))?;
            let values = entry.children_named("value").map(XmlElement::text).collect();
            Ok((key.to_owned(), values))
        });
        entries.collect()
    }

    fn put_bin(&self, v: &AttrMap, out: &mut impl ByteSink) {
        write_varint(out, v.len() as u64);
        for (key, values) in v {
            write_str(out, key);
            write_varint(out, values.len() as u64);
            for value in values {
                write_str(out, value);
            }
        }
    }

    fn take_bin(&self, r: &mut BinReader<'_>) -> Result<AttrMap, WireError> {
        let keys = r.read_varint()?;
        let mut entry = || {
            let key = r.read_string()?;
            let count = r.read_varint()?;
            let values = (0..count).map(|_| r.read_string()).collect::<Result<_, _>>()?;
            Ok((key, values))
        };
        (0..keys).map(|_| entry()).collect()
    }
}

/// The wire forms of an [`InterestSummary`], which is written into the
/// element of the message that carries it. v1: a `wildcard="true"`
/// attribute ahead of the element's others, or a child per anchor and
/// per digest. v2: the
/// summary's frozen bytes as one slice, so re-announcing an unchanged
/// summary is a memcpy and sizing one is a length. Both readers make
/// what arrives canonical, so a hand-crafted frame cannot smuggle an
/// out-of-contract summary in.
#[derive(Debug, Clone, Copy)]
pub struct SummaryField;

/// The anchor sets' child tag and attribute: hosts, then collections.
const ANCHORS: [(&str, &str); 2] = [("host", "name"), ("collection", "id")];

impl Field for SummaryField {
    type Value = InterestSummary;

    fn put_xml(&self, v: &InterestSummary, out: &mut impl XmlPut) {
        if v.wildcard {
            return out.attr_first("wildcard", "true");
        }
        for ((tag, attr), anchors) in ANCHORS.into_iter().zip([&v.hosts, &v.collections]) {
            for anchor in anchors {
                out.child(tag, |el| el.attr(attr, anchor));
            }
        }
        DIGESTS.put_xml(&v.attrs, out);
    }

    fn take_xml(&self, el: &XmlElement) -> Result<InterestSummary, WireError> {
        if el.attr("wildcard") == Some("true") {
            return Ok(InterestSummary::wildcard());
        }
        let anchors = |(tag, attr): (&'static str, &str)| {
            let names = el.children_named(tag).map(|anchor| anchor.attr(attr).map(str::to_owned));
            let names: Option<BTreeSet<String>> = names.collect();
            names.ok_or_else(|| WireError::malformed(format!("summary {tag} without {attr}")))
        };
        let [hosts, collections] = ANCHORS.map(anchors);
        Ok(InterestSummary::decoded(hosts?, collections?, DIGESTS.take_xml(el)?))
    }

    fn put_bin(&self, v: &InterestSummary, out: &mut impl ByteSink) {
        out.put(v.frozen_bytes());
    }

    fn take_bin(&self, r: &mut BinReader<'_>) -> Result<InterestSummary, WireError> {
        let wildcard = r.read_u8()? != 0;
        let mut anchors = || {
            let count = r.read_varint()?;
            (0..count).map(|_| r.read_string()).collect::<Result<BTreeSet<_>, _>>()
        };
        let (hosts, collections) = (anchors()?, anchors()?);
        let summary = InterestSummary::decoded(hosts, collections, DIGESTS.take_bin(r)?);
        Ok(if wildcard { InterestSummary::wildcard() } else { summary })
    }
}

/// How many digests constrain one attribute key, and with which values.
#[derive(Debug, Default)]
struct AttrCounts {
    /// Anchored digests that constrain this key.
    constraining: usize,
    /// Value → digests naming it under this key.
    values: BTreeMap<String, usize>,
}

/// The union of a changing set of digests, kept as reference counts so
/// that one digest joining or leaving costs its own size, not a fold of
/// [`InterestSummary::union_with`] over the whole set.
///
/// [`summary`](Self::summary) reads the union off the counts, and equals
/// that fold in any order:
///
/// * wildcard is absorbing — any wildcard digest makes the union
///   wildcard; the empty digest is the identity and is not counted;
/// * anchors union — a host or collection is in iff some digest holds it;
/// * digest keys intersect — a key survives a union only when both
///   sides constrain it, so it is in iff *every* anchored digest does
///   (which also keeps the union within
///   [`InterestSummary::MAX_ATTR_DIGESTS`], as each digest is);
/// * values union, and an oversize set drops its key for good — value
///   sets only grow along a fold, so a key is dropped at some step iff
///   the final set exceeds [`InterestSummary::MAX_ATTR_VALUES`].
///
/// Removal subtracts exactly what [`add`](Self::add) counted, so the
/// union narrows when a digest leaves just as re-folding the rest would.
#[derive(Debug, Default)]
pub struct InterestCounts {
    wildcards: usize,
    /// Digests that are neither wildcard nor empty.
    anchored: usize,
    hosts: BTreeMap<String, usize>,
    collections: BTreeMap<String, usize>,
    attrs: BTreeMap<String, AttrCounts>,
    /// `constraining` count → keys at that count. The entry at `anchored`
    /// is the number of keys every anchored digest constrains, which is
    /// how a key *outside* the digest being added or removed is seen to
    /// lose or gain that property without visiting it.
    keys_at: BTreeMap<usize, usize>,
    /// Set when the union may have changed since [`summary`](Self::summary)
    /// last read it.
    changed: bool,
}

/// Moves a count one up or down; `true` when it crossed between 0 and 1.
fn step(n: &mut usize, up: bool) -> bool {
    if up {
        *n += 1;
        *n == 1
    } else {
        *n = n.checked_sub(1).expect("only a counted digest is removed");
        *n == 0
    }
}

/// [`step`] on the count stored under `key`, which exists exactly while
/// the count is positive.
fn step_entry<K: Ord + Clone>(counts: &mut BTreeMap<K, usize>, key: &K, up: bool) -> bool {
    match counts.get_mut(key) {
        Some(n) => {
            let gone = step(n, up);
            if gone {
                counts.remove(key);
            }
            gone
        }
        None => {
            assert!(up, "only a counted digest is removed");
            counts.insert(key.clone(), 1);
            true
        }
    }
}

impl InterestCounts {
    /// Counts one more digest into the union.
    pub fn add(&mut self, digest: &InterestSummary) {
        self.apply(digest, true);
    }

    /// Takes a digest previously [`add`](Self::add)ed out of the union.
    ///
    /// # Panics
    ///
    /// When `digest` was never added.
    pub fn remove(&mut self, digest: &InterestSummary) {
        self.apply(digest, false);
    }

    /// `true` when an [`add`](Self::add) or [`remove`](Self::remove)
    /// since the last [`summary`](Self::summary) may have changed the
    /// union: a count crossed between 0 and 1, or a
    /// key started or stopped being constrained by every anchored digest.
    pub fn changed(&self) -> bool {
        self.changed
    }

    fn keys_all_constrain(&self) -> usize {
        self.keys_at.get(&self.anchored).copied().unwrap_or(0)
    }

    fn apply(&mut self, digest: &InterestSummary, up: bool) {
        if digest.is_empty() {
            return;
        }
        if digest.wildcard {
            self.changed |= step(&mut self.wildcards, up);
            return;
        }
        let all_before = self.keys_all_constrain();
        step(&mut self.anchored, up);
        for host in &digest.hosts {
            self.changed |= step_entry(&mut self.hosts, host, up);
        }
        for collection in &digest.collections {
            self.changed |= step_entry(&mut self.collections, collection, up);
        }
        for (key, values) in &digest.attrs {
            let counts = self.attrs.entry(key.clone()).or_default();
            let before = counts.constraining;
            step(&mut counts.constraining, up);
            let after = counts.constraining;
            let mut crossed = false;
            for value in values {
                crossed |= step_entry(&mut counts.values, value, up);
            }
            // This digest moved `constraining` and `anchored` together, so
            // every anchored digest constrains the key now iff it did
            // before; its value set shows in the union only when so.
            self.changed |= crossed && after == self.anchored;
            if after == 0 {
                self.attrs.remove(key);
            }
            if before > 0 {
                step_entry(&mut self.keys_at, &before, false);
            }
            if after > 0 {
                step_entry(&mut self.keys_at, &after, true);
            }
        }
        // Keys this digest does not constrain: an add ends "every anchored
        // digest constrains it" for them, a remove may begin it. Either
        // way the number of such keys moves, because the digest's own
        // keys keep the property as they had it.
        self.changed |= all_before != self.keys_all_constrain();
    }

    /// The union of the counted digests, and marks it as read.
    pub fn summary(&mut self) -> InterestSummary {
        self.changed = false;
        if self.wildcards > 0 {
            return InterestSummary::wildcard();
        }
        let attrs: AttrMap = self
            .attrs
            .iter()
            .filter(|(_, key)| {
                key.constraining == self.anchored
                    && key.values.len() <= InterestSummary::MAX_ATTR_VALUES
            })
            .map(|(key, counts)| (key.clone(), counts.values.keys().cloned().collect()))
            .collect();
        debug_assert!(attrs.len() <= InterestSummary::MAX_ATTR_DIGESTS);
        InterestSummary {
            wildcard: false,
            hosts: self.hosts.keys().cloned().collect(),
            collections: self.collections.keys().cloned().collect(),
            attrs,
            frozen: FrozenEncoding::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::counted;

    fn sample() -> InterestSummary {
        let mut s = InterestSummary::empty();
        s.add_host("Hamilton");
        s.add_collection("London.E");
        s.add_collection("Berlin.B");
        s
    }

    fn attr_sample() -> InterestSummary {
        let mut s = sample();
        s.constrain_attr("kind", ["documents-added".to_owned()]);
        s.constrain_attr(
            "meta:Language",
            ["en".to_owned(), "de".to_owned()],
        );
        s
    }

    #[test]
    fn matching_semantics() {
        let s = sample();
        assert!(s.may_match("Hamilton", "Hamilton.D"));
        assert!(s.may_match("London", "London.E"));
        assert!(!s.may_match("London", "London.F"));
        assert!(!s.may_match("Paris", "Paris.X"));
        assert!(InterestSummary::wildcard().may_match("Anyone", "Any.Thing"));
        assert!(!InterestSummary::empty().may_match("Anyone", "Any.Thing"));
    }

    #[test]
    fn union_and_covers() {
        let mut a = sample();
        let mut b = InterestSummary::empty();
        b.add_host("Auckland");
        a.union_with(&b);
        assert!(a.covers(&b));
        assert!(a.covers(&sample()));
        assert!(!b.covers(&a));
        assert!(a.may_match("Auckland", "Auckland.Z"));

        a.union_with(&InterestSummary::wildcard());
        assert!(a.is_wildcard());
        assert!(a.covers(&InterestSummary::wildcard()));
        assert!(!sample().covers(&InterestSummary::wildcard()));
        // Everything covers the empty summary.
        assert!(InterestSummary::empty().covers(&InterestSummary::empty()));
        assert!(sample().covers(&InterestSummary::empty()));
        assert!(attr_sample().covers(&InterestSummary::empty()));
    }

    #[test]
    fn wildcard_is_canonical() {
        let mut s = attr_sample();
        s.make_wildcard();
        assert_eq!(s, InterestSummary::wildcard());
        assert!(s.is_wildcard() && !s.is_empty());
        assert!(!s.has_attrs());
    }

    #[test]
    fn attr_digests_constrain_and_bound() {
        let mut s = sample();
        s.constrain_attr("kind", ["thesis".to_owned(), "report".to_owned()]);
        // First write wins: a second literal on the same key must not
        // tighten (an event can satisfy both via different values of a
        // multi-valued attribute).
        s.constrain_attr("kind", ["thesis".to_owned()]);
        assert_eq!(
            s.attr_constraint("kind").unwrap().iter().collect::<Vec<_>>(),
            ["report", "thesis"]
        );
        // Empty sets are skipped, oversize sets are skipped.
        s.constrain_attr("meta:Empty", []);
        assert!(s.attr_constraint("meta:Empty").is_none());
        let many = (0..=InterestSummary::MAX_ATTR_VALUES)
            .map(|i| format!("v{i}"))
            .collect::<Vec<_>>();
        s.constrain_attr("meta:Many", many);
        assert!(s.attr_constraint("meta:Many").is_none());
        // The key-count bound drops later keys, keeps earlier ones.
        for i in 0..2 * InterestSummary::MAX_ATTR_DIGESTS {
            s.constrain_attr(format!("meta:K{i}"), [format!("x{i}")]);
        }
        assert_eq!(s.attrs().count(), InterestSummary::MAX_ATTR_DIGESTS);
        assert!(s.attr_constraint("kind").is_some());
    }

    #[test]
    fn union_intersects_digest_keys_and_unions_values() {
        let mut a = sample();
        a.constrain_attr("kind", ["thesis".to_owned()]);
        a.constrain_attr("meta:Language", ["en".to_owned()]);
        let mut b = InterestSummary::empty();
        b.add_host("Auckland");
        b.constrain_attr("kind", ["report".to_owned()]);
        // b does not constrain Language, so the union must not either.
        a.union_with(&b);
        assert_eq!(
            a.attr_constraint("kind").unwrap().iter().collect::<Vec<_>>(),
            ["report", "thesis"]
        );
        assert!(a.attr_constraint("meta:Language").is_none());

        // The empty summary is the identity: it holds no interests and
        // must not weaken digests.
        let before = a.clone();
        a.union_with(&InterestSummary::empty());
        assert_eq!(a, before);

        // Unioning into the empty summary copies digests over.
        let mut c = InterestSummary::empty();
        c.union_with(&before);
        assert_eq!(c, before);
    }

    #[test]
    fn covers_respects_digests() {
        let tight = attr_sample();
        let loose = sample();
        // The digest-free summary lets more events through: it covers
        // the tightened one, not vice versa.
        assert!(loose.covers(&tight));
        assert!(!tight.covers(&loose));
        assert!(tight.covers(&tight.clone()));

        // A wider value set covers a narrower one on the same key.
        let mut wider = attr_sample();
        wider.union_with(&{
            let mut s = sample();
            s.constrain_attr("kind", ["collection-rebuilt".to_owned()]);
            s.constrain_attr(
                "meta:Language",
                ["en".to_owned(), "de".to_owned(), "fr".to_owned()],
            );
            s
        });
        assert!(wider.covers(&tight));
        assert!(!tight.covers(&wider));
    }

    #[test]
    fn excludes_value_is_exact() {
        let s = attr_sample();
        assert!(s.excludes_value("kind", "collection-rebuilt"));
        assert!(!s.excludes_value("kind", "documents-added"));
        // Unconstrained key: could hold interests in anything.
        assert!(!s.excludes_value("meta:Creator", "Hinze"));
        // No subscribers at all: everything is excluded.
        assert!(InterestSummary::empty().excludes_value("kind", "anything"));
        // Wildcard: nothing is excluded.
        assert!(!InterestSummary::wildcard().excludes_value("kind", "anything"));
    }

    #[test]
    fn xml_round_trip() {
        for s in [
            InterestSummary::empty(),
            InterestSummary::wildcard(),
            sample(),
            attr_sample(),
        ] {
            let mut el = XmlElement::new("gds:summary");
            SummaryField.put_xml(&s, &mut el);
            assert_eq!(SummaryField.take_xml(&el).unwrap(), s);
        }
    }

    #[test]
    fn binary_round_trip_and_size() {
        for s in [
            InterestSummary::empty(),
            InterestSummary::wildcard(),
            sample(),
            attr_sample(),
        ] {
            let mut buf = Vec::new();
            SummaryField.put_bin(&s, &mut buf);
            assert_eq!(buf.len(), counted(|n| SummaryField.put_bin(&s, n)));
            let back = SummaryField.take_bin(&mut BinReader::new(&buf)).unwrap();
            assert_eq!(back, s);
            assert_eq!(BinReader::new(&buf[..buf.len()]).remaining(), buf.len());
        }
    }

    #[test]
    fn binary_rejects_truncation() {
        let mut buf = Vec::new();
        SummaryField.put_bin(&attr_sample(), &mut buf);
        for cut in 0..buf.len() {
            assert!(SummaryField.take_bin(&mut BinReader::new(&buf[..cut])).is_err());
        }
    }

    #[test]
    fn encoding_freezes_once_and_detaches_on_mutation() {
        let s = attr_sample();
        let _ = s.frozen_bytes(); // freeze
        let shared = s.clone();
        // The clone shares the frozen buffer.
        assert!(Arc::ptr_eq(&s.frozen.0, &shared.frozen.0));
        assert_eq!(
            s.frozen_bytes().as_ptr(),
            shared.frozen_bytes().as_ptr(),
            "clone re-uses the same frozen bytes"
        );
        // Mutating the clone detaches it and re-encodes correctly.
        let mut changed = shared.clone();
        changed.add_host("Auckland");
        assert!(!Arc::ptr_eq(&s.frozen.0, &changed.frozen.0));
        let mut buf = Vec::new();
        SummaryField.put_bin(&changed, &mut buf);
        let back = SummaryField.take_bin(&mut BinReader::new(&buf)).unwrap();
        assert_eq!(back, changed);
        // The original's bytes are untouched.
        let mut orig = Vec::new();
        SummaryField.put_bin(&s, &mut orig);
        assert_eq!(
            SummaryField.take_bin(&mut BinReader::new(&orig)).unwrap(),
            s
        );
    }
}
