//! The counter table and [`Counts`], the one type state machines count
//! into.
//!
//! Every counter the product bumps is one row of the `counter_table!`
//! invocation below: its constant, its dotted name, its doc line. The
//! [`CounterId`] constants, [`CounterId::name`], the lookup behind
//! [`CounterId::from_name`] and the size of the simulator's slot array
//! are all derived from those rows, so adding a counter is two edits —
//! a row here, and `counts.add(CounterId::X, n)` where it happens.
//!
//! The table lives in this crate because every crate already depends
//! on it: the sans-IO state machines (`gsa-gds`, `gsa-state`,
//! `gsa-alerts`, the alerting core) count without knowing a simulator
//! exists, and the driver that does own a metrics store drains them
//! with one loop.
//!
//! # Examples
//!
//! ```
//! use gsa_types::counter::names;
//! use gsa_types::{CounterId, Counts};
//!
//! let mut counts = Counts::default();
//! counts.add(CounterId::GDS_PRUNED_EDGES, 2);
//! counts.add(CounterId::GDS_PRUNED_EDGES, 1);
//! assert_eq!(counts.get(CounterId::GDS_PRUNED_EDGES), 3);
//! assert_eq!(CounterId::GDS_PRUNED_EDGES.name(), names::GDS_PRUNED_EDGES);
//! assert_eq!(CounterId::from_name(names::GDS_PRUNED_EDGES), Some(CounterId::GDS_PRUNED_EDGES));
//! let drained: Vec<_> = counts.drain().collect();
//! assert_eq!(drained, vec![(CounterId::GDS_PRUNED_EDGES, 3)]);
//! assert!(counts.is_empty());
//! ```

use std::fmt;

/// A handle to one row of the counter table.
///
/// Counting through a `CounterId` is an array write at the metrics
/// store and a probe of a few entries in a [`Counts`]: no string
/// hashing, comparison or allocation on the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CounterId(u16);

/// Declares the table: rows in ascending name order (checked while
/// compiling, below), each `/// doc` + `CONSTANT = "dotted.name",`.
macro_rules! counter_table {
    ($($(#[$doc:meta])+ $konst:ident = $name:literal,)+) => {
        /// Every counter's dotted name, in row order.
        const TABLE: &[&str] = &[$($name),+];

        /// The dotted counter names as constants, for readers that
        /// address a metrics store by string.
        pub mod names {
            $($(#[$doc])+ pub const $konst: &str = $name;)+
        }

        /// Numbers the rows.
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Row {
            $($konst),+
        }

        impl CounterId {
            $($(#[$doc])+ pub const $konst: CounterId = CounterId(Row::$konst as u16);)+
        }
    };
}

counter_table! {
    /// Events accepted for publication by alerting cores.
    ALERT_EVENTS_PUBLISHED = "alert.events_published",
    /// Profile matches delivered to subscribers.
    ALERT_NOTIFICATIONS = "alert.notifications",
    /// Messages an alerting server addressed to a host name nobody
    /// registered (counted, not sent).
    ALERT_UNKNOWN_HOST = "alert.unknown_host",
    /// Alert instances acknowledged.
    ALERTS_ACKED = "alerts.acked",
    /// Notifications buffered into digest batches.
    ALERTS_DIGESTED = "alerts.digested",
    /// Alert instances that entered the firing state.
    ALERTS_FIRING = "alerts.firing",
    /// Alert instances resolved.
    ALERTS_RESOLVED = "alerts.resolved",
    /// Alert instances expired to stale by the quiescence timeout.
    ALERTS_STALE = "alerts.stale",
    /// Notifications withheld by dedup or throttle policies.
    ALERTS_SUPPRESSED = "alerts.suppressed",
    /// Accepted deliveries whose payload failed to decode as an event
    /// (previously dropped silently at the delivery boundary).
    CORE_DECODE_ERROR = "core.decode_error",
    /// Deliveries the probe passed to the full decode + match path.
    CORE_PROBE_PASS = "core.probe_pass",
    /// Deliveries rejected by the binary attribute probe without
    /// materialising an event.
    CORE_PROBE_SKIP = "core.probe_skip",
    /// GDS protocol frames processed by directory nodes.
    GDS_MESSAGES = "gds.messages",
    /// GS-protocol frames that reached a directory node, which has no
    /// use for them.
    GDS_NON_GDS_MESSAGE = "gds.non_gds_message",
    /// Flood edges skipped because the edge's subtree interest summary
    /// could not match the event (subscription-aware pruning).
    GDS_PRUNED_EDGES = "gds.pruned_edges",
    /// Upward flood hops skipped because a held rendezvous grant proved
    /// the event's (attribute, value) subgroup has no interest outside
    /// the node's subtree.
    GDS_RENDEZVOUS_CONFINED = "gds.rendezvous_confined",
    /// Rendezvous grant messages issued by GDS nodes to children.
    GDS_RENDEZVOUS_GRANTS = "gds.rendezvous_grants",
    /// GDS nodes that re-parented to their grandparent after the
    /// failure detector declared the parent dead.
    GDS_REPARENT = "gds.reparent",
    /// Interest-summary updates accepted by GDS nodes.
    GDS_SUMMARY_UPDATES = "gds.summary_updates",
    /// Multicast targets no node of the tree could resolve.
    GDS_UNDELIVERABLE = "gds.undeliverable",
    /// Messages a directory node addressed to a host name nobody
    /// registered (counted, not sent).
    GDS_UNKNOWN_HOST = "gds.unknown_host",
    /// GS-graph flooding baseline: events dropped as already seen.
    GSFLOOD_DUPLICATE_SUPPRESSED = "gsflood.duplicate_suppressed",
    /// GS-graph flooding baseline: events dropped at hop limit zero.
    GSFLOOD_TTL_EXHAUSTED = "gsflood.ttl_exhausted",
    /// Reliable data frames acknowledged (one ack frame acknowledges up
    /// to 65 of them).
    NET_ACKS = "net.acks",
    /// Serialized bytes handed to the network, as measured by the
    /// format-aware wire-size function.
    NET_BYTES_SENT = "net.bytes_sent",
    /// Messages delivered to an up node.
    NET_DELIVERED = "net.delivered",
    /// Messages dropped in flight (loss, partitions, downed nodes,
    /// unknown destinations).
    NET_DROPPED = "net.dropped",
    /// Retransmissions that did not wait for the backoff: RACK proved
    /// the frame lost, or it was a tail probe. A subset of
    /// `net.retransmits`.
    NET_FAST_RETRANSMITS = "net.fast_retransmits",
    /// Wire frames handed to the network (a batch frame counts once).
    NET_FRAMES = "net.frames",
    /// Reliable-envelope retransmissions (second and later attempts).
    NET_RETRANSMITS = "net.retransmits",
    /// Messages handed to the network (sim transport).
    NET_SENT = "net.sent",
    /// Tail loss probes: a peer's newest unacknowledged frame re-sent
    /// when no ack came for it within the probe timeout. A subset of
    /// `net.fast_retransmits`.
    NET_TAIL_PROBES = "net.tail_probes",
    /// Profile-flooding baseline: profile replicas stored network-wide.
    PROFILEFLOOD_REPLICAS = "profileflood.replicas",
    /// Profile-flooding baseline: notifications for a profile its owner
    /// had already cancelled.
    PROFILEFLOOD_SPURIOUS = "profileflood.spurious",
    /// Rendezvous baseline: events filtered at rendezvous nodes.
    RENDEZVOUS_FILTERED_EVENTS = "rendezvous.filtered_events",
    /// Rendezvous baseline: notifications for a profile its owner had
    /// already cancelled.
    RENDEZVOUS_SPURIOUS = "rendezvous.spurious",
    /// Rendezvous baseline: profiles stored at rendezvous nodes.
    RENDEZVOUS_STORED_PROFILES = "rendezvous.stored_profiles",
    /// Records appended to the durable state journal.
    STATE_JOURNAL_APPENDS = "state.journal_appends",
    /// Mid-journal corruption events observed during recovery.
    STATE_JOURNAL_CORRUPT = "state.journal_corrupt",
    /// Journal records applied during crash-recovery replay.
    STATE_REPLAY_RECORDS = "state.replay_records",
    /// Durable state snapshots written (compactions).
    STATE_SNAPSHOT_WRITES = "state.snapshot_writes",
    /// Individual messages coalesced into batch frames at senders.
    WIRE_BATCH_COALESCED = "wire.batch.coalesced",
    /// Batch frames flushed by the per-edge batcher.
    WIRE_BATCH_FLUSHES = "wire.batch.flushes",
    /// Individual messages unpacked from batch frames at receivers.
    WIRE_BATCH_RECEIVED = "wire.batch.received",
}

/// `a < b` for strings, in a form constant evaluation accepts.
const fn const_str_lt(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

// A row out of order (or a name given twice) does not build: the
// binary search in `from_name` and the name-ordered counter snapshots
// both rest on it.
const _: () = {
    let mut i = 1;
    while i < TABLE.len() {
        assert!(
            const_str_lt(TABLE[i - 1], TABLE[i]),
            "counter_table! rows must be in strictly ascending name order"
        );
        i += 1;
    }
};

impl CounterId {
    /// How many counters the table declares; ids are `0..COUNT`.
    pub const COUNT: usize = TABLE.len();

    /// Every id, in table (name) order.
    pub fn all() -> impl Iterator<Item = CounterId> {
        (0..Self::COUNT as u16).map(CounterId)
    }

    /// The id of a dotted name, or `None` when the table has no such
    /// row.
    pub fn from_name(name: &str) -> Option<CounterId> {
        TABLE.binary_search(&name).ok().map(|i| CounterId(i as u16))
    }

    /// The dotted name, as spelled in counter snapshots.
    pub fn name(self) -> &'static str {
        TABLE[self.index()]
    }

    /// The row number: the slot a metrics store keeps this counter in.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CounterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a state machine counted since its driver last looked: at most
/// one `(id, total)` entry per distinct id, kept in id order, so it is
/// bounded by the table however often it is added to and however rarely
/// it is drained, and two `Counts` are equal when they count the same.
///
/// A zero is never stored — a metrics slot shows in snapshots once it
/// is written, and a counter nothing happened to must not appear — and
/// a drained `Counts` keeps its capacity, so a warm one never
/// allocates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    entries: Vec<(CounterId, u64)>,
}

impl Counts {
    /// Adds `n` to `id`'s total.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if n == 0 {
            return;
        }
        match self.entries.binary_search_by_key(&id, |&(have, _)| have) {
            Ok(at) => self.entries[at].1 += n,
            Err(at) => self.entries.insert(at, (id, n)),
        }
    }

    /// `id`'s total (0 when nothing was added).
    pub fn get(&self, id: CounterId) -> u64 {
        self.entries
            .binary_search_by_key(&id, |&(have, _)| have)
            .map_or(0, |at| self.entries[at].1)
    }

    /// Whether nothing was counted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Moves everything `other` holds into `self`, leaving `other`
    /// empty: how a machine hands its counts to the one that owns it.
    pub fn merge(&mut self, other: &mut Counts) {
        for (id, n) in other.drain() {
            self.add(id, n);
        }
    }

    /// Empties the counts, yielding each `(id, total)` once, in id
    /// order.
    pub fn drain(&mut self) -> impl Iterator<Item = (CounterId, u64)> + '_ {
        self.entries.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn every_row_agrees_with_its_constant_and_its_name() {
        assert_eq!(CounterId::all().count(), CounterId::COUNT);
        for (i, id) in CounterId::all().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(CounterId::from_name(id.name()), Some(id));
            assert_eq!(id.to_string(), id.name());
        }
        // The constants are numbered by the same rows.
        assert_eq!(CounterId::NET_SENT.name(), names::NET_SENT);
        assert_eq!(CounterId::GDS_RENDEZVOUS_GRANTS.name(), "gds.rendezvous_grants");
        assert_eq!(CounterId::from_name("definitely.not.a.counter"), None);
        assert_eq!(CounterId::from_name(""), None);
    }

    #[test]
    fn a_zero_leaves_no_trace() {
        let mut counts = Counts::default();
        counts.add(CounterId::NET_ACKS, 0);
        assert!(counts.is_empty());
        assert_eq!(counts.drain().count(), 0);
    }

    #[test]
    fn a_warm_counts_is_bounded_by_the_ids_it_saw() {
        let mut counts = Counts::default();
        for round in 0..10_000u64 {
            counts.add(CounterId::CORE_PROBE_SKIP, 1);
            counts.add(CounterId::CORE_PROBE_PASS, round % 2);
        }
        assert_eq!(counts.entries.len(), 2);
        assert_eq!(counts.get(CounterId::CORE_PROBE_SKIP), 10_000);
        assert_eq!(counts.get(CounterId::CORE_PROBE_PASS), 5_000);
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Add to bag 0 or bag 1.
        Add(usize, u16, u64),
        /// Merge the second bag into the first.
        Merge,
        /// Drain the first bag.
        Drain,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..2, 0..CounterId::COUNT as u16, 0u64..4)
                .prop_map(|(bag, id, n)| Op::Add(bag, id, n)),
            (0usize..2, 0..CounterId::COUNT as u16, 0u64..4)
                .prop_map(|(bag, id, n)| Op::Add(bag, id, n)),
            Just(Op::Merge),
            Just(Op::Drain),
        ]
    }

    type Model = BTreeMap<CounterId, u64>;

    fn as_model(counts: &Counts) -> Model {
        let model: Model = counts.entries.iter().copied().collect();
        assert_eq!(model.len(), counts.entries.len(), "one entry per id");
        assert!(counts.entries.windows(2).all(|w| w[0].0 < w[1].0), "in id order");
        model
    }

    proptest! {
        /// `Counts` ≡ a map that never stores a zero, under add, merge
        /// and drain.
        #[test]
        fn counts_equal_a_map_model(ops in prop::collection::vec(op(), 0..64)) {
            let mut bags = [Counts::default(), Counts::default()];
            let mut models = [Model::new(), Model::new()];
            for op in ops {
                match op {
                    Op::Add(bag, id, n) => {
                        let id = CounterId(id);
                        bags[bag].add(id, n);
                        if n > 0 {
                            *models[bag].entry(id).or_default() += n;
                        }
                    }
                    Op::Merge => {
                        let [first, second] = &mut bags;
                        first.merge(second);
                        for (id, n) in std::mem::take(&mut models[1]) {
                            *models[0].entry(id).or_default() += n;
                        }
                    }
                    Op::Drain => {
                        let drained: Vec<_> = bags[0].drain().collect();
                        let expected: Vec<_> = std::mem::take(&mut models[0]).into_iter().collect();
                        prop_assert_eq!(drained, expected);
                    }
                }
                for (bag, model) in bags.iter().zip(&models) {
                    prop_assert_eq!(&as_model(bag), model);
                    prop_assert!(model.values().all(|&n| n > 0));
                    for id in CounterId::all() {
                        prop_assert_eq!(bag.get(id), model.get(&id).copied().unwrap_or(0));
                    }
                    prop_assert_eq!(bag.is_empty(), model.is_empty());
                }
            }
        }
    }
}
