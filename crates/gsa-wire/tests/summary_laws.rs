//! The interest-summary algebra held to a model.
//!
//! [`InterestSummary`] is what a directory node prunes by, so its laws
//! are what make pruning safe. The model keeps the concrete anchor sets
//! and the digest map a summary documents — anchors union, digests keep
//! the keys both sides constrain with every value either side allows,
//! the empty summary is the identity and the wildcard absorbs — and the
//! test checks, over random profile sets and events:
//!
//! * every summary and every union reads back as the model's value;
//! * `union_with` is commutative, associative and idempotent;
//! * `a.covers(b)` and `b` admitting an event imply `a` admits it;
//! * the union of a profile set's summaries admits every event one of
//!   the profiles matches (the set form of `gsa-profile`'s
//!   `summary_never_misses_a_matching_event`).
//!
//! "Admits" is what a pruning node asks: the anchor check
//! [`InterestSummary::may_match`], then every digest holding some value
//! of the event's attribute.

use gsa_wire::{InterestSummary, ATTR_KEY_KIND};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const HOSTS: [&str; 4] = ["A", "B", "C", "D"];
const NAMES: [&str; 2] = ["X", "Y"];
const KINDS: [&str; 2] = ["collection-rebuilt", "documents-added"];
/// Digest keys and the values each ranges over. `meta:Language` has
/// more values than a digest may hold, and there are more keys than a
/// summary may digest, so both bounds are reached.
const KEYS: [(&str, &[&str]); 5] = [
    (ATTR_KEY_KIND, &KINDS),
    ("meta:Language", &["l0", "l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8", "l9"]),
    ("meta:Title", &["t0", "t1", "t2"]),
    ("meta:Subject", &["s0", "s1", "s2"]),
    ("meta:Creator", &["c0", "c1", "c2"]),
];

/// Where a profile's events come from: an exact host (an index into
/// [`HOSTS`]), an exact collection, or anywhere.
#[derive(Debug, Clone)]
enum Anchor {
    Host(usize),
    Collection(usize, usize),
    Anywhere,
}

/// One conjunctive profile: its anchor and the equality literals it
/// states, as `(key index, allowed values)` — repeats and oversize value
/// sets included, which a summary must survive by widening.
#[derive(Debug, Clone)]
struct Profile {
    anchor: Anchor,
    literals: Vec<(usize, BTreeSet<&'static str>)>,
}

/// An event: its origin, and its values per digest key (its kind, and
/// the metadata values across its documents; possibly none).
#[derive(Debug, Clone)]
struct Event {
    host: usize,
    name: usize,
    values: [BTreeSet<&'static str>; 5],
}

impl Event {
    fn collection(&self) -> String {
        format!("{}.{}", HOSTS[self.host], NAMES[self.name])
    }

    fn values_of(&self, key: &str) -> &BTreeSet<&'static str> {
        let k = KEYS.iter().position(|(name, _)| *name == key).expect("a generated key");
        &self.values[k]
    }
}

impl Profile {
    /// The ground truth: the anchor holds and every literal is met.
    fn matches(&self, e: &Event) -> bool {
        let anchored = match self.anchor {
            Anchor::Host(h) => e.host == h,
            Anchor::Collection(h, n) => e.host == h && e.name == n,
            Anchor::Anywhere => true,
        };
        anchored && self.literals.iter().all(|(k, allowed)| !e.values[*k].is_disjoint(allowed))
    }

    /// The profile's summary, built as the profile layer builds one.
    fn summary(&self) -> InterestSummary {
        let mut s = InterestSummary::empty();
        match self.anchor {
            Anchor::Host(h) => s.add_host(HOSTS[h]),
            Anchor::Collection(h, n) => s.add_collection(format!("{}.{}", HOSTS[h], NAMES[n])),
            Anchor::Anywhere => return InterestSummary::wildcard(),
        }
        for (k, values) in &self.literals {
            s.constrain_attr(KEYS[*k].0, values.iter().map(|v| v.to_string()));
        }
        s
    }

    /// The model of [`Profile::summary`]: the first literal per key is
    /// digested, while it has 1 ..= `MAX_ATTR_VALUES` values and fewer
    /// than `MAX_ATTR_DIGESTS` keys are digested.
    fn model(&self) -> Model {
        let mut m = Model::default();
        match self.anchor {
            Anchor::Host(h) => {
                m.hosts.insert(HOSTS[h].to_owned());
            }
            Anchor::Collection(h, n) => {
                m.collections.insert(format!("{}.{}", HOSTS[h], NAMES[n]));
            }
            Anchor::Anywhere => return Model::wildcard(),
        }
        for (k, values) in &self.literals {
            let key = KEYS[*k].0.to_owned();
            let fits = (1..=InterestSummary::MAX_ATTR_VALUES).contains(&values.len());
            if fits
                && !m.attrs.contains_key(&key)
                && m.attrs.len() < InterestSummary::MAX_ATTR_DIGESTS
            {
                m.attrs.insert(key, values.iter().map(|v| v.to_string()).collect());
            }
        }
        m
    }
}

/// A summary's documented value.
#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    wildcard: bool,
    hosts: BTreeSet<String>,
    collections: BTreeSet<String>,
    attrs: BTreeMap<String, BTreeSet<String>>,
}

impl Model {
    fn wildcard() -> Self {
        Model { wildcard: true, ..Model::default() }
    }

    fn of(s: &InterestSummary) -> Self {
        Model {
            wildcard: s.is_wildcard(),
            hosts: s.hosts().map(str::to_owned).collect(),
            collections: s.collections().map(str::to_owned).collect(),
            attrs: s.attrs().map(|(k, v)| (k.to_owned(), v.clone())).collect(),
        }
    }

    fn is_empty(&self) -> bool {
        !self.wildcard && self.hosts.is_empty() && self.collections.is_empty()
    }

    /// The wildcard absorbs and the empty summary is the identity;
    /// otherwise anchors union, and a digest key survives when both
    /// sides constrain it, allowing every value either side allows —
    /// unless that grows it past `MAX_ATTR_VALUES`, which drops it.
    fn union(&self, other: &Model) -> Model {
        if self.wildcard || other.wildcard {
            return Model::wildcard();
        }
        if other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        let attrs = self
            .attrs
            .iter()
            .filter_map(|(key, mine)| {
                let both: BTreeSet<String> = mine.union(other.attrs.get(key)?).cloned().collect();
                (both.len() <= InterestSummary::MAX_ATTR_VALUES).then(|| (key.clone(), both))
            })
            .collect();
        Model {
            wildcard: false,
            hosts: self.hosts.union(&other.hosts).cloned().collect(),
            collections: self.collections.union(&other.collections).cloned().collect(),
            attrs,
        }
    }
}

fn union(a: &InterestSummary, b: &InterestSummary) -> InterestSummary {
    let mut out = a.clone();
    out.union_with(b);
    out
}

/// Whether a pruning node would forward `e` to an edge holding `s`.
fn admits(s: &InterestSummary, e: &Event) -> bool {
    s.may_match(HOSTS[e.host], &e.collection())
        && s.attrs().all(|(key, allowed)| e.values_of(key).iter().any(|v| allowed.contains(*v)))
}

/// The union of a profile set's summaries, checked against the model
/// after every step.
fn fold(profiles: &[Profile]) -> Result<InterestSummary, TestCaseError> {
    let (mut s, mut m) = (InterestSummary::empty(), Model::default());
    for p in profiles {
        let part = p.summary();
        prop_assert!(Model::of(&part) == p.model(), "the summary of {:?} is {:?}", p, part);
        s.union_with(&part);
        m = m.union(&p.model());
        prop_assert!(Model::of(&s) == m, "the union through {:?} is {:?}, not {:?}", p, s, m);
    }
    Ok(s)
}

fn subset(pool: &'static [&'static str], size: std::ops::Range<usize>) -> BoxedStrategy<BTreeSet<&'static str>> {
    prop::collection::btree_set(prop::sample::select(pool), size)
}

/// A profile; one in sixteen is unanchored, since a wildcard absorbs
/// every union it enters.
fn profile() -> BoxedStrategy<Profile> {
    let anchor = BoxedStrategy::from_fn(|rng| match rng.below(16) {
        0 => Anchor::Anywhere,
        1..=8 => Anchor::Host(rng.below(HOSTS.len())),
        _ => Anchor::Collection(rng.below(HOSTS.len()), rng.below(NAMES.len())),
    });
    let literal = BoxedStrategy::from_fn(|rng| {
        let k = rng.below(KEYS.len());
        let pool = KEYS[k].1;
        (k, subset(pool, 1..pool.len() + 1).generate(rng))
    });
    (anchor, prop::collection::vec(literal, 0..4))
        .prop_map(|(anchor, literals)| Profile { anchor, literals })
}

fn event() -> BoxedStrategy<Event> {
    let values = BoxedStrategy::from_fn(|rng| {
        let kind = BTreeSet::from([KINDS[rng.below(KINDS.len())]]);
        let meta = |k: usize, rng: &mut TestRng| subset(KEYS[k].1, 0..3).generate(rng);
        [kind, meta(1, rng), meta(2, rng), meta(3, rng), meta(4, rng)]
    });
    (0..HOSTS.len(), 0..NAMES.len(), values)
        .prop_map(|(host, name, values)| Event { host, name, values })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn summaries_obey_their_laws_and_the_model(
        pa in prop::collection::vec(profile(), 0..4),
        pb in prop::collection::vec(profile(), 0..4),
        pc in prop::collection::vec(profile(), 0..3),
        events in prop::collection::vec(event(), 1..48),
    ) {
        let (a, b, c) = (fold(&pa)?, fold(&pb)?, fold(&pc)?);

        prop_assert!(union(&a, &b) == union(&b, &a), "commutative: {:?} {:?}", a, b);
        prop_assert!(union(&union(&a, &b), &c) == union(&a, &union(&b, &c)), "associative: {:?}", c);
        prop_assert!(union(&a, &a) == a, "idempotent: {:?}", a);

        let ab = union(&a, &b);
        for (x, y) in [(&a, &b), (&b, &a), (&ab, &a), (&a, &c)] {
            if !x.covers(y) {
                continue;
            }
            for e in &events {
                prop_assert!(!admits(y, e) || admits(x, e), "{:?} covers {:?} but not {:?}", x, y, e);
            }
        }

        for e in &events {
            if pa.iter().any(|p| p.matches(e)) {
                prop_assert!(admits(&a, e), "the union of {:?} misses {:?}", pa, e);
            }
        }
    }
}
