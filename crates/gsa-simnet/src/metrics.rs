//! Run metrics: the counter table's slots, the delivery-latency
//! histogram and per-node receive loads.
//!
//! Every counter is a row of the counter table in [`gsa_types::counter`]
//! — declared once, there — and lives here in a fixed slot addressed by
//! its [`CounterId`]: the hot loop increments a plain array cell. Readers
//! may still name a counter by its string.
//!
//! Histograms are fixed-size: exact count / sum / min / max plus
//! log-linear buckets, so a run's memory does not grow with the number
//! of samples and two histograms merge by adding buckets.

use crate::sim::NodeId;
use std::fmt;

pub use gsa_types::CounterId;

/// Delivery latency histogram, one sample per delivered message.
const NET_LATENCY_US: &str = "net.latency_us";

/// Each power-of-two range of values is split into `2^SUB_BITS` equal
/// buckets, so a bucket is at most `1 / 2^SUB_BITS` of its lower bound
/// wide.
const SUB_BITS: u32 = 5;

/// Buckets covering all of `u64`: `index_of(u64::MAX) + 1`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + (1 << SUB_BITS);

/// A fixed-size histogram of `u64` samples.
///
/// Count, sum, minimum and maximum are exact. Quantiles come from
/// log-linear buckets: values below 64 have a bucket each, so their
/// quantiles are exact; above, [`Histogram::quantile`] answers with the
/// top of the bucket the nearest-rank sample fell in (never above the
/// maximum), which overstates that sample by less than
/// [`Histogram::RELATIVE_ERROR`] of its value.
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
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    n: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            n: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Histogram({self})")
    }
}

impl Histogram {
    /// How far above the true nearest-rank sample a quantile can read,
    /// as a fraction of that sample (samples below 64 read exactly).
    pub const RELATIVE_ERROR: f64 = 1.0 / (1u64 << SUB_BITS) as f64;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// How far a value's bucket is shifted: 0 while buckets are one
    /// value wide, then one more per power of two.
    fn shift_of(value: u64) -> u32 {
        (63 - (value | 1).leading_zeros()).saturating_sub(SUB_BITS)
    }

    fn index_of(value: u64) -> usize {
        let shift = Self::shift_of(value);
        ((shift as usize) << SUB_BITS) + (value >> shift) as usize
    }

    /// The largest value that lands in bucket `index`.
    fn top_of(index: usize) -> u64 {
        // Buckets below `2 << SUB_BITS` hold one value each; every later
        // group of `1 << SUB_BITS` buckets is one more bit wide.
        let shift = (index >> SUB_BITS).saturating_sub(1) as u32;
        let scaled = (index - ((shift as usize) << SUB_BITS)) as u64;
        (scaled << shift) | ((1 << shift) - 1)
    }

    /// Adds one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.n += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::index_of(value)] += 1;
    }

    /// Adds every sample of `other`: the result equals one histogram
    /// that recorded both streams.
    pub fn merge(&mut self, other: &Histogram) {
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// The number of samples recorded.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Returns `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum as f64 / self.n as f64)
    }

    /// The maximum sample.
    pub fn max(&self) -> Option<u64> {
        (self.n > 0).then_some(self.max)
    }

    /// The minimum sample.
    pub fn min(&self) -> Option<u64> {
        (self.n > 0).then_some(self.min)
    }

    /// The `q`-quantile (nearest-rank), `q` clamped into `[0,1]`, to
    /// the resolution the type documents.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        // Nearest-rank: the smallest sample with cumulative frequency >= q.
        let rank = ((q.clamp(0.0, 1.0) * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (index, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(Self::top_of(index).min(self.max));
            }
        }
        unreachable!("bucket counts sum to n");
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(mean) => write!(
                f,
                "n={} mean={:.1} min={} max={}",
                self.n, mean, self.min, self.max
            ),
            None => write!(f, "n=0"),
        }
    }
}

/// Metrics accumulated during a simulation run.
///
/// The simulator maintains the `net.*` counters, the
/// `net.latency_us` histogram and the per-node
/// receive loads; actors add to any other row of the counter table
/// through [`Ctx::count_id`](crate::Ctx::count_id).
#[derive(Debug, Clone)]
pub struct Metrics {
    slots: [u64; CounterId::COUNT],
    /// A slot is reported in snapshots once it has been written, even
    /// with delta 0.
    touched: [bool; CounterId::COUNT],
    /// One sample per delivered message.
    latency: Histogram,
    node_received: Vec<u64>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            slots: [0; CounterId::COUNT],
            touched: [false; CounterId::COUNT],
            latency: Histogram::new(),
            node_received: Vec::new(),
        }
    }
}

impl Metrics {
    /// Creates an empty metrics store.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `delta` to a table counter's slot: one array write.
    #[inline]
    pub fn count_id(&mut self, id: CounterId, delta: u64) {
        self.slots[id.index()] += delta;
        self.touched[id.index()] = true;
    }

    /// Reads a counter by name (0 when never written or not in the
    /// table).
    pub fn counter(&self, name: &str) -> u64 {
        CounterId::from_name(name).map_or(0, |id| self.slots[id.index()])
    }

    /// Reads a table counter's slot.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.slots[id.index()]
    }

    /// Every counter written so far, in name order (the table's).
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        CounterId::all()
            .filter(|id| self.touched[id.index()])
            .map(|id| (id.name(), self.slots[id.index()]))
    }

    /// Records one delivery-latency sample: a bucket increment.
    #[inline]
    pub(crate) fn record_latency(&mut self, value: u64) {
        self.latency.record(value);
    }

    /// The delivery-latency histogram, if any message was delivered.
    pub fn latency(&self) -> Option<&Histogram> {
        (!self.latency.is_empty()).then_some(&self.latency)
    }

    #[inline]
    pub(crate) fn note_received(&mut self, node: NodeId) {
        let idx = node.as_u32() as usize;
        if idx >= self.node_received.len() {
            self.node_received.resize(idx + 1, 0);
        }
        self.node_received[idx] += 1;
    }

    /// Messages received per node, ascending by node id (nodes that
    /// never received are skipped).
    pub fn node_received(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.node_received
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
        if let Some(h) = self.latency() {
            writeln!(f, "  {NET_LATENCY_US}: {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_types::counter::names;

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
    fn histogram_summary_is_exact_and_quantiles_are_within_the_stated_error() {
        // 1 ..= 10^6 in a scrambled order (the multiplier is coprime to
        // the modulus): the true nearest-rank q-quantile is ceil(q * n).
        const N: u64 = 1_000_000;
        let mut h = Histogram::new();
        for i in 0..N {
            h.record(1 + (i * 7_919) % N);
        }
        assert_eq!(h.len() as u64, N);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(N));
        assert_eq!(h.mean(), Some((N + 1) as f64 / 2.0));
        assert_eq!(h.to_string(), "n=1000000 mean=500000.5 min=1 max=1000000");
        for q in [0.0, 0.000_01, 0.000_063, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = ((q * N as f64).ceil() as u64).max(1);
            let got = h.quantile(q).unwrap();
            assert!(got >= exact, "q={q}: {got} < {exact}");
            let over = (got - exact) as f64 / exact as f64;
            assert!(over < Histogram::RELATIVE_ERROR, "q={q}: {got} vs {exact}");
            if exact < 64 {
                assert_eq!(got, exact, "small values have a bucket each");
            }
        }
        assert_eq!(h.quantile(1.0), Some(N), "never above the maximum");

        // A constant stream reads back as the constant at every quantile.
        for c in [0, 63, 64, 1_000, 123_456_789, u64::MAX / 3] {
            let mut h = Histogram::new();
            for _ in 0..3 {
                h.record(c);
            }
            for q in [0.0, 0.5, 1.0] {
                assert_eq!(h.quantile(q), Some(c));
            }
        }
    }

    #[test]
    fn histogram_buckets_tile_the_whole_range() {
        // Every bucket's top maps back to that bucket and the next value
        // starts the next one, so the buckets partition `u64`.
        assert_eq!(Histogram::index_of(0), 0);
        assert_eq!(Histogram::index_of(u64::MAX), BUCKETS - 1);
        for index in 0..BUCKETS {
            let top = Histogram::top_of(index);
            assert_eq!(Histogram::index_of(top), index);
            if let Some(next) = top.checked_add(1) {
                assert_eq!(Histogram::index_of(next), index + 1);
            }
        }
    }

    proptest::proptest! {
        /// `merge` ≡ recording both streams into one histogram.
        #[test]
        fn histogram_merge_equals_recording_both_streams(
            a in proptest::prop::collection::vec(0u64..5_000_000, 0..40),
            b in proptest::prop::collection::vec(0u64..5_000_000, 0..40),
        ) {
            let (mut left, mut right, mut both) =
                (Histogram::new(), Histogram::new(), Histogram::new());
            for &v in &a {
                left.record(v);
                both.record(v);
            }
            for &v in &b {
                right.record(v);
                both.record(v);
            }
            left.merge(&right);
            proptest::prop_assert!(left == both);
            proptest::prop_assert_eq!(left.to_string(), both.to_string());
        }
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
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
    fn interned_table_is_sorted_and_resolvable() {
        // That the rows ascend is checked while `gsa-types` compiles;
        // here: every row resolves to its own slot, by name and by id.
        let mut m = Metrics::new();
        for (i, id) in CounterId::all().enumerate() {
            assert_eq!(CounterId::from_name(id.name()), Some(id));
            m.count_id(id, 1 + i as u64);
        }
        let snapshot: Vec<(&str, u64)> = m.counters().collect();
        let expected: Vec<(&str, u64)> = CounterId::all()
            .enumerate()
            .map(|(i, id)| (id.name(), 1 + i as u64))
            .collect();
        assert_eq!(snapshot, expected, "one slot per row, in name order");
        assert_eq!(CounterId::from_name("definitely.not.a.counter"), None);
    }

    #[test]
    fn counter_id_constants_match_names() {
        // The constants are numbered by the table's rows while compiling;
        // what is left to pin is that the run-time lookup lands on the
        // same slot and that an id prints as its name.
        for (id, name) in [
            (CounterId::ALERT_EVENTS_PUBLISHED, names::ALERT_EVENTS_PUBLISHED),
            (CounterId::GDS_MESSAGES, names::GDS_MESSAGES),
            (CounterId::NET_SENT, names::NET_SENT),
        ] {
            assert_eq!(CounterId::from_name(name), Some(id));
            assert_eq!(id.to_string(), name);
        }
    }

    #[test]
    fn string_api_resolves_to_slots() {
        let mut m = Metrics::new();
        m.count_id(CounterId::NET_SENT, 2);
        m.count_id(CounterId::NET_SENT, 3);
        // The name reads the slot the id wrote.
        assert_eq!(m.counter(names::NET_SENT), 5);
        assert_eq!(m.counter_value(CounterId::NET_SENT), 5);
    }

    #[test]
    fn zero_delta_still_creates_entry() {
        let mut m = Metrics::new();
        m.count_id(CounterId::NET_DROPPED, 0);
        let all: Vec<_> = m.counters().collect();
        assert_eq!(all, vec![(names::NET_DROPPED, 0)]);
    }

    #[test]
    fn latency_slot_behaves_like_named_histogram() {
        let mut m = Metrics::new();
        assert!(m.latency().is_none());
        m.record_latency(10);
        m.record_latency(30);
        assert_eq!(m.latency().unwrap().len(), 2);
        assert_eq!(m.latency().unwrap().quantile(1.0), Some(30));
        assert!(m.to_string().contains("net.latency_us"));
    }

    #[test]
    fn gini_uniform_is_zero() {
        let mut m = Metrics::new();
        for i in [0, 2, 4, 6] {
            for _ in 0..10 {
                m.note_received(NodeId::from_raw(i));
            }
        }
        // Nodes that received nothing are skipped.
        let loads: Vec<u32> = m.node_received().map(|(n, _)| n.as_u32()).collect();
        assert_eq!(loads, [0, 2, 4, 6]);
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
    fn imbalance_none_when_empty() {
        assert!(Metrics::new().receive_load_imbalance().is_none());
    }
}
