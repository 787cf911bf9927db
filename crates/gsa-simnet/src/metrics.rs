//! Run metrics: named counters, histograms and per-node load accounting.
//!
//! Counters keep their free-form string API, but the well-known names —
//! everything the simulator and the protocol layers touch per message —
//! are pre-interned into fixed [`CounterId`] slots. The hot loop
//! increments a plain array cell instead of probing a
//! `BTreeMap<String, u64>`; names outside the table fall back to the
//! map, so experiment-specific counters keep working unchanged.

use crate::sim::NodeId;
use std::collections::BTreeMap;
use std::fmt;

/// Well-known counter names shared by the transports and protocol
/// layers, so dashboards and tests agree on spelling.
pub mod names {
    /// Events accepted for publication by alerting cores.
    pub const ALERT_EVENTS_PUBLISHED: &str = "alert.events_published";
    /// Profile matches delivered to subscribers.
    pub const ALERT_NOTIFICATIONS: &str = "alert.notifications";
    /// Alert instances that entered the firing state.
    pub const ALERTS_FIRING: &str = "alerts.firing";
    /// Alert instances acknowledged.
    pub const ALERTS_ACKED: &str = "alerts.acked";
    /// Alert instances resolved.
    pub const ALERTS_RESOLVED: &str = "alerts.resolved";
    /// Alert instances expired to stale by the quiescence timeout.
    pub const ALERTS_STALE: &str = "alerts.stale";
    /// Notifications withheld by dedup or throttle policies.
    pub const ALERTS_SUPPRESSED: &str = "alerts.suppressed";
    /// Notifications buffered into digest batches.
    pub const ALERTS_DIGESTED: &str = "alerts.digested";
    /// GDS protocol frames processed by directory nodes.
    pub const GDS_MESSAGES: &str = "gds.messages";
    /// Messages handed to the network (sim transport).
    pub const NET_SENT: &str = "net.sent";
    /// Serialized bytes handed to the network.
    pub const NET_BYTES: &str = "net.bytes";
    /// Messages delivered to an up node.
    pub const NET_DELIVERED: &str = "net.delivered";
    /// Messages dropped in flight (loss, partitions, downed nodes,
    /// unknown destinations) — mirrored by the real-time transport's
    /// [`dropped_count`](crate::rt::RtNetwork::dropped_count).
    pub const NET_DROPPED: &str = "net.dropped";
    /// Reliable-envelope retransmissions (second and later attempts).
    pub const NET_RETRANSMITS: &str = "net.retransmits";
    /// Reliable-envelope acknowledgements sent.
    pub const NET_ACKS: &str = "net.acks";
    /// GDS nodes that re-parented to their grandparent after the
    /// failure detector declared the parent dead.
    pub const GDS_REPARENT: &str = "gds.reparent";
    /// Auxiliary-profile operations abandoned after exhausting their
    /// retry budget.
    pub const AUX_DEAD_LETTER: &str = "aux.dead_letter";
    /// Wire frames handed to the network (a batch frame counts once).
    pub const NET_FRAMES: &str = "net.frames";
    /// Serialized bytes handed to the network, as measured by the
    /// format-aware wire-size function (alias of [`NET_BYTES`] kept
    /// separate so dashboards can tell the v2 accounting apart).
    pub const NET_BYTES_SENT: &str = "net.bytes_sent";
    /// Batch frames flushed by the per-edge batcher.
    pub const WIRE_BATCH_FLUSHES: &str = "wire.batch.flushes";
    /// Individual messages coalesced into batch frames at senders.
    pub const WIRE_BATCH_COALESCED: &str = "wire.batch.coalesced";
    /// Individual messages unpacked from batch frames at receivers.
    pub const WIRE_BATCH_RECEIVED: &str = "wire.batch.received";
    /// Flood edges skipped because the edge's subtree interest summary
    /// could not match the event (subscription-aware pruning).
    pub const GDS_PRUNED_EDGES: &str = "gds.pruned_edges";
    /// Interest-summary updates accepted by GDS nodes.
    pub const GDS_SUMMARY_UPDATES: &str = "gds.summary_updates";
    /// Upward flood hops skipped because a held rendezvous grant proved
    /// the event's (attribute, value) subgroup has no interest outside
    /// the node's subtree.
    pub const GDS_RENDEZVOUS_CONFINED: &str = "gds.rendezvous_confined";
    /// Rendezvous grant messages issued by GDS nodes to children.
    pub const GDS_RENDEZVOUS_GRANTS: &str = "gds.rendezvous_grants";
    /// Accepted deliveries whose payload failed to decode as an event
    /// (previously dropped silently at the delivery boundary).
    pub const CORE_DECODE_ERROR: &str = "core.decode_error";
    /// Deliveries rejected by the binary attribute probe without
    /// materialising an event.
    pub const CORE_PROBE_SKIP: &str = "core.probe_skip";
    /// Deliveries the probe passed to the full decode + match path.
    pub const CORE_PROBE_PASS: &str = "core.probe_pass";
    /// Records appended to the durable state journal.
    pub const STATE_JOURNAL_APPENDS: &str = "state.journal_appends";
    /// Durable state snapshots written (compactions).
    pub const STATE_SNAPSHOT_WRITES: &str = "state.snapshot_writes";
    /// Journal records applied during crash-recovery replay.
    pub const STATE_REPLAY_RECORDS: &str = "state.replay_records";
    /// Mid-journal corruption events observed during recovery.
    pub const STATE_JOURNAL_CORRUPT: &str = "state.journal_corrupt";
    /// Delivery latency histogram, one sample per delivered message.
    pub const NET_LATENCY_US: &str = "net.latency_us";
}

/// Every pre-interned counter name, in ascending lexicographic order.
/// [`CounterId`] values are indices into this table, which is what lets
/// snapshot iteration merge the fixed slots with the string-keyed
/// fallback map in one sorted pass.
const WELL_KNOWN: &[&str] = &[
    "alert.events_published",
    "alert.notifications",
    "alert.unknown_host",
    "alerts.acked",
    "alerts.digested",
    "alerts.firing",
    "alerts.resolved",
    "alerts.stale",
    "alerts.suppressed",
    "aux.dead_letter",
    "core.decode_error",
    "core.probe_pass",
    "core.probe_skip",
    "gds.dead_letter",
    "gds.messages",
    "gds.non_gds_message",
    "gds.pruned_edges",
    "gds.reparent",
    "gds.summary_updates",
    "gds.undeliverable",
    "gds.unknown_host",
    "gsflood.duplicate_suppressed",
    "gsflood.ttl_exhausted",
    "net.acks",
    "net.bytes",
    "net.bytes_sent",
    "net.delivered",
    "net.dropped",
    "net.frames",
    "net.retransmits",
    "net.sent",
    "profileflood.replicas",
    "profileflood.spurious",
    "rendezvous.filtered_events",
    "rendezvous.spurious",
    "rendezvous.stored_profiles",
    "state.journal_appends",
    "state.journal_corrupt",
    "state.replay_records",
    "state.snapshot_writes",
    "wire.batch.coalesced",
    "wire.batch.flushes",
    "wire.batch.received",
];

const SLOTS: usize = WELL_KNOWN.len();

/// A pre-interned handle to one well-known counter slot.
///
/// Obtained through [`Metrics::resolve`] or the associated constants;
/// incrementing through a `CounterId` is a single array write, with no
/// string hashing, comparison or allocation on the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CounterId(u16);

impl CounterId {
    /// Slot for [`names::ALERT_EVENTS_PUBLISHED`].
    pub const ALERT_EVENTS_PUBLISHED: CounterId = CounterId::slot(names::ALERT_EVENTS_PUBLISHED);
    /// Slot for [`names::ALERT_NOTIFICATIONS`].
    pub const ALERT_NOTIFICATIONS: CounterId = CounterId::slot(names::ALERT_NOTIFICATIONS);
    /// Slot for [`names::ALERTS_ACKED`].
    pub const ALERTS_ACKED: CounterId = CounterId::slot(names::ALERTS_ACKED);
    /// Slot for [`names::ALERTS_DIGESTED`].
    pub const ALERTS_DIGESTED: CounterId = CounterId::slot(names::ALERTS_DIGESTED);
    /// Slot for [`names::ALERTS_FIRING`].
    pub const ALERTS_FIRING: CounterId = CounterId::slot(names::ALERTS_FIRING);
    /// Slot for [`names::ALERTS_RESOLVED`].
    pub const ALERTS_RESOLVED: CounterId = CounterId::slot(names::ALERTS_RESOLVED);
    /// Slot for [`names::ALERTS_STALE`].
    pub const ALERTS_STALE: CounterId = CounterId::slot(names::ALERTS_STALE);
    /// Slot for [`names::ALERTS_SUPPRESSED`].
    pub const ALERTS_SUPPRESSED: CounterId = CounterId::slot(names::ALERTS_SUPPRESSED);
    /// Slot for [`names::GDS_MESSAGES`].
    pub const GDS_MESSAGES: CounterId = CounterId::slot(names::GDS_MESSAGES);
    /// Slot for [`names::NET_SENT`].
    pub const NET_SENT: CounterId = CounterId::slot(names::NET_SENT);
    /// Slot for [`names::NET_BYTES`].
    pub const NET_BYTES: CounterId = CounterId::slot(names::NET_BYTES);
    /// Slot for [`names::NET_BYTES_SENT`].
    pub const NET_BYTES_SENT: CounterId = CounterId::slot(names::NET_BYTES_SENT);
    /// Slot for [`names::NET_DELIVERED`].
    pub const NET_DELIVERED: CounterId = CounterId::slot(names::NET_DELIVERED);
    /// Slot for [`names::NET_DROPPED`].
    pub const NET_DROPPED: CounterId = CounterId::slot(names::NET_DROPPED);
    /// Slot for [`names::NET_FRAMES`].
    pub const NET_FRAMES: CounterId = CounterId::slot(names::NET_FRAMES);
    /// Slot for [`names::NET_RETRANSMITS`].
    pub const NET_RETRANSMITS: CounterId = CounterId::slot(names::NET_RETRANSMITS);
    /// Slot for [`names::NET_ACKS`].
    pub const NET_ACKS: CounterId = CounterId::slot(names::NET_ACKS);

    /// The slot of a well-known name, looked up while compiling: a
    /// constant naming a counter that is not in the table does not
    /// build, and the table can gain or lose a name without any
    /// constant being renumbered.
    const fn slot(name: &str) -> CounterId {
        let mut i = 0;
        while i < SLOTS {
            if const_str_eq(WELL_KNOWN[i], name) {
                return CounterId(i as u16);
            }
            i += 1;
        }
        panic!("counter name missing from WELL_KNOWN");
    }

    /// The name this id resolves, as spelled in counter snapshots.
    pub fn name(self) -> &'static str {
        WELL_KNOWN[self.0 as usize]
    }

    /// The raw slot index.
    pub const fn as_u16(self) -> u16 {
        self.0
    }
}

/// `a == b` for strings, in a form constant evaluation accepts.
const fn const_str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

impl fmt::Display for CounterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A histogram of `u64` samples with on-demand quantiles.
///
/// # Examples
///
/// ```
/// use gsa_simnet::Histogram;
/// let mut h = Histogram::new();
/// for v in [1, 2, 3, 4, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.len(), 5);
/// assert_eq!(h.max(), Some(100));
/// assert_eq!(h.quantile(0.5), Some(3));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Adds one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// The number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64)
    }

    /// The maximum sample.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// The minimum sample.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    /// The `q`-quantile (nearest-rank), `q` clamped into `[0,1]`.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the smallest sample with cumulative frequency >= q.
        let rank = (q * self.samples.len() as f64).ceil() as usize;
        let idx = rank.saturating_sub(1).min(self.samples.len() - 1);
        Some(self.samples[idx])
    }

    /// All samples, in insertion order if quantiles were never queried.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(mean) => write!(
                f,
                "n={} mean={:.1} min={} max={}",
                self.len(),
                mean,
                self.min().unwrap_or(0),
                self.max().unwrap_or(0)
            ),
            None => write!(f, "n=0"),
        }
    }
}

/// Metrics accumulated during a simulation run.
///
/// Counters and histograms are named by free-form strings, so protocol
/// layers can define their own without the simulator knowing about them.
/// The simulator itself maintains `net.sent`, `net.delivered`,
/// `net.dropped`, `net.bytes` and the per-node send/receive loads.
///
/// Well-known names live in fixed slots addressed by [`CounterId`]; a
/// name outside [`Metrics::resolve`]'s table lands in a fallback map.
/// Readers ([`Metrics::counter`], [`Metrics::counters`], `Display`)
/// merge both stores, so the split is invisible in snapshots.
#[derive(Debug, Clone)]
pub struct Metrics {
    slots: [u64; SLOTS],
    /// A slot is reported in snapshots once it has been written, even
    /// with delta 0 — matching the map semantics where `count(name, 0)`
    /// creates a visible zero entry.
    touched: [bool; SLOTS],
    extra: BTreeMap<String, u64>,
    /// Fast slot for the per-delivery `net.latency_us` histogram.
    latency: Histogram,
    latency_touched: bool,
    histograms: BTreeMap<String, Histogram>,
    node_sent: Vec<u64>,
    node_received: Vec<u64>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            slots: [0; SLOTS],
            touched: [false; SLOTS],
            extra: BTreeMap::new(),
            latency: Histogram::new(),
            latency_touched: false,
            histograms: BTreeMap::new(),
            node_sent: Vec::new(),
            node_received: Vec::new(),
        }
    }
}

impl Metrics {
    /// Creates an empty metrics store.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Looks a name up in the pre-interned table. `None` means the name
    /// is experiment-specific and will be kept in the fallback map.
    #[inline]
    pub fn resolve(name: &str) -> Option<CounterId> {
        WELL_KNOWN
            .binary_search(&name)
            .ok()
            .map(|i| CounterId(i as u16))
    }

    /// Adds `delta` to a pre-interned counter slot: one array write.
    #[inline]
    pub fn count_id(&mut self, id: CounterId, delta: u64) {
        self.slots[id.0 as usize] += delta;
        self.touched[id.0 as usize] = true;
    }

    /// Adds `delta` to the named counter.
    pub fn count(&mut self, name: &str, delta: u64) {
        match Self::resolve(name) {
            Some(id) => self.count_id(id, delta),
            None => *self.extra.entry(name.to_string()).or_default() += delta,
        }
    }

    /// Reads a counter (0 when never written).
    pub fn counter(&self, name: &str) -> u64 {
        match Self::resolve(name) {
            Some(id) => self.slots[id.0 as usize],
            None => self.extra.get(name).copied().unwrap_or(0),
        }
    }

    /// Reads a pre-interned counter slot.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.slots[id.0 as usize]
    }

    /// All counters in name order, fixed slots and fallback map merged
    /// (a name lives in exactly one of the two).
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut all: Vec<(&str, u64)> = WELL_KNOWN
            .iter()
            .zip(self.slots.iter())
            .zip(self.touched.iter())
            .filter(|(_, &touched)| touched)
            .map(|((name, &value), _)| (*name, value))
            .collect();
        for (name, &value) in self.extra.iter() {
            all.push((name.as_str(), value));
        }
        all.sort_by(|a, b| a.0.cmp(b.0));
        all.into_iter()
    }

    /// Records a histogram sample.
    pub fn record(&mut self, name: &str, value: u64) {
        if name == names::NET_LATENCY_US {
            self.record_latency(value);
            return;
        }
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Records one delivery-latency sample into the fixed
    /// `net.latency_us` slot: a vector push, no map probe.
    #[inline]
    pub(crate) fn record_latency(&mut self, value: u64) {
        self.latency.record(value);
        self.latency_touched = true;
    }

    /// Reads a histogram, if any samples were recorded under `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        if name == names::NET_LATENCY_US && self.latency_touched {
            return Some(&self.latency);
        }
        self.histograms.get(name)
    }

    /// Mutable access to a histogram (for quantile queries).
    pub fn histogram_mut(&mut self, name: &str) -> Option<&mut Histogram> {
        if name == names::NET_LATENCY_US && self.latency_touched {
            return Some(&mut self.latency);
        }
        self.histograms.get_mut(name)
    }

    #[inline]
    pub(crate) fn note_sent(&mut self, node: NodeId) {
        let idx = node.as_u32() as usize;
        if idx >= self.node_sent.len() {
            self.node_sent.resize(idx + 1, 0);
        }
        self.node_sent[idx] += 1;
    }

    #[inline]
    pub(crate) fn note_received(&mut self, node: NodeId) {
        let idx = node.as_u32() as usize;
        if idx >= self.node_received.len() {
            self.node_received.resize(idx + 1, 0);
        }
        self.node_received[idx] += 1;
    }

    /// Messages sent per node, ascending by node id (nodes that never
    /// sent are skipped).
    pub fn node_sent(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        Self::node_loads(&self.node_sent)
    }

    /// Messages received per node, ascending by node id (nodes that
    /// never received are skipped).
    pub fn node_received(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        Self::node_loads(&self.node_received)
    }

    fn node_loads(dense: &[u64]) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        dense
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(idx, &count)| (NodeId::from_raw(idx as u32), count))
    }

    /// Load-imbalance summary over per-node received counts:
    /// `(max, mean, gini)`. Returns `None` when nothing was received.
    ///
    /// Used by the rendezvous-bottleneck experiment (E6): a rendezvous
    /// scheme concentrates load on few nodes, driving max/mean and the Gini
    /// coefficient up.
    pub fn receive_load_imbalance(&self) -> Option<(u64, f64, f64)> {
        let mut loads: Vec<u64> = self
            .node_received
            .iter()
            .copied()
            .filter(|&c| c > 0)
            .collect();
        if loads.is_empty() {
            return None;
        }
        loads.sort_unstable();
        let n = loads.len() as f64;
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return Some((0, 0.0, 0.0));
        }
        let mean = total as f64 / n;
        let max = *loads.last().expect("non-empty");
        // Gini over the sorted loads.
        let weighted: f64 = loads
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
            .sum();
        let gini = (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n;
        Some((max, mean, gini))
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counters:")?;
        for (k, v) in self.counters() {
            writeln!(f, "  {k} = {v}")?;
        }
        writeln!(f, "histograms:")?;
        let mut hists: Vec<(&str, &Histogram)> = self
            .histograms
            .iter()
            .map(|(k, h)| (k.as_str(), h))
            .collect();
        if self.latency_touched {
            hists.push((names::NET_LATENCY_US, &self.latency));
        }
        hists.sort_by(|a, b| a.0.cmp(b.0));
        for (k, h) in hists {
            writeln!(f, "  {k}: {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.mean(), Some(50.5));
    }

    #[test]
    fn histogram_empty() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.to_string(), "n=0");
    }

    #[test]
    fn counters_default_zero() {
        let m = Metrics::new();
        assert_eq!(m.counter("nothing"), 0);
        assert_eq!(m.counter(names::NET_SENT), 0);
    }

    #[test]
    fn count_and_record() {
        let mut m = Metrics::new();
        m.count("a", 2);
        m.count("a", 3);
        m.record("h", 7);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.histogram("h").unwrap().len(), 1);
    }

    #[test]
    fn interned_table_is_sorted_and_resolvable() {
        assert!(
            WELL_KNOWN.windows(2).all(|w| w[0] < w[1]),
            "WELL_KNOWN must be strictly ascending for binary search \
             and sorted snapshot merging"
        );
        for (i, name) in WELL_KNOWN.iter().enumerate() {
            let id = Metrics::resolve(name).expect("well-known name resolves");
            assert_eq!(id.as_u16() as usize, i);
            assert_eq!(id.name(), *name);
        }
        assert_eq!(Metrics::resolve("definitely.not.a.counter"), None);
    }

    #[test]
    fn counter_id_constants_match_names() {
        // The constants are looked up by name while compiling; what is
        // left to pin is that the run-time lookup lands on the same slot
        // and that an id prints as its name.
        for (id, name) in [
            (CounterId::ALERT_EVENTS_PUBLISHED, names::ALERT_EVENTS_PUBLISHED),
            (CounterId::GDS_MESSAGES, names::GDS_MESSAGES),
            (CounterId::NET_SENT, names::NET_SENT),
        ] {
            assert_eq!(Metrics::resolve(name), Some(id));
            assert_eq!(id.to_string(), name);
        }
    }

    #[test]
    fn string_api_resolves_to_slots() {
        let mut m = Metrics::new();
        m.count(names::NET_SENT, 2);
        m.count_id(CounterId::NET_SENT, 3);
        // Same slot whichever way it was written.
        assert_eq!(m.counter(names::NET_SENT), 5);
        assert_eq!(m.counter_value(CounterId::NET_SENT), 5);
        assert!(m.extra.is_empty(), "well-known names must not hit the map");
    }

    #[test]
    fn unknown_names_fall_back_to_map() {
        let mut m = Metrics::new();
        m.count("experiment.custom", 7);
        assert_eq!(m.counter("experiment.custom"), 7);
        let all: Vec<_> = m.counters().collect();
        assert_eq!(all, vec![("experiment.custom", 7)]);
    }

    #[test]
    fn zero_delta_still_creates_entry() {
        let mut m = Metrics::new();
        m.count(names::NET_DROPPED, 0);
        m.count("custom.zero", 0);
        let all: Vec<_> = m.counters().collect();
        assert_eq!(all, vec![("custom.zero", 0), (names::NET_DROPPED, 0)]);
    }

    #[test]
    fn counters_iterate_in_name_order_across_stores() {
        let mut m = Metrics::new();
        m.count("zzz.last", 1);
        m.count(names::NET_SENT, 1);
        m.count("aaa.first", 1);
        m.count(names::AUX_DEAD_LETTER, 1);
        let keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys.first(), Some(&"aaa.first"));
        assert_eq!(keys.last(), Some(&"zzz.last"));
    }

    #[test]
    fn latency_slot_behaves_like_named_histogram() {
        let mut m = Metrics::new();
        assert!(m.histogram(names::NET_LATENCY_US).is_none());
        m.record(names::NET_LATENCY_US, 10);
        m.record(names::NET_LATENCY_US, 30);
        assert_eq!(m.histogram(names::NET_LATENCY_US).unwrap().len(), 2);
        assert_eq!(
            m.histogram_mut(names::NET_LATENCY_US).unwrap().quantile(1.0),
            Some(30)
        );
        assert!(m.to_string().contains("net.latency_us"));
    }

    #[test]
    fn gini_uniform_is_zero() {
        let mut m = Metrics::new();
        for i in 0..4 {
            for _ in 0..10 {
                m.note_received(NodeId::from_raw(i));
            }
        }
        let (max, mean, gini) = m.receive_load_imbalance().unwrap();
        assert_eq!(max, 10);
        assert!((mean - 10.0).abs() < 1e-9);
        assert!(gini.abs() < 1e-9);
    }

    #[test]
    fn gini_concentrated_is_high() {
        let mut m = Metrics::new();
        for _ in 0..100 {
            m.note_received(NodeId::from_raw(0));
        }
        for i in 1..10 {
            m.note_received(NodeId::from_raw(i));
        }
        let (max, mean, gini) = m.receive_load_imbalance().unwrap();
        assert_eq!(max, 100);
        assert!(mean < 11.0);
        assert!(gini > 0.7, "gini={gini}");
    }

    #[test]
    fn node_loads_skip_idle_nodes() {
        let mut m = Metrics::new();
        m.note_sent(NodeId::from_raw(3));
        m.note_sent(NodeId::from_raw(3));
        m.note_received(NodeId::from_raw(1));
        let sent: Vec<_> = m.node_sent().collect();
        assert_eq!(sent, vec![(NodeId::from_raw(3), 2)]);
        let received: Vec<_> = m.node_received().collect();
        assert_eq!(received, vec![(NodeId::from_raw(1), 1)]);
    }

    #[test]
    fn imbalance_none_when_empty() {
        assert!(Metrics::new().receive_load_imbalance().is_none());
    }
}
