//! The link model: latency, jitter, loss and administrative state.

use gsa_types::SimDuration;
use rand::rngs::StdRng;
use rand::Rng;

/// Whether a link (or node) is administratively up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LinkState {
    /// Traffic flows.
    #[default]
    Up,
    /// All traffic is silently dropped (a severed connection, Section 7).
    Down,
}

impl LinkState {
    /// Returns `true` for [`LinkState::Up`].
    pub fn is_up(self) -> bool {
        matches!(self, LinkState::Up)
    }
}

/// Delay and loss characteristics of a (directed) link.
///
/// # Examples
///
/// ```
/// use gsa_simnet::LinkConfig;
/// use gsa_types::SimDuration;
///
/// let wan = LinkConfig::new(SimDuration::from_millis(40))
///     .with_jitter(SimDuration::from_millis(10))
///     .with_drop_probability(0.01);
/// assert_eq!(wan.base_latency(), SimDuration::from_millis(40));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    base_latency: SimDuration,
    jitter: SimDuration,
    drop_probability: f64,
}

impl LinkConfig {
    /// Creates a lossless link with fixed latency.
    pub fn new(base_latency: SimDuration) -> Self {
        LinkConfig {
            base_latency,
            jitter: SimDuration::ZERO,
            drop_probability: 0.0,
        }
    }

    /// A LAN-ish default: 1 ms latency, 200 µs jitter, lossless.
    pub fn lan() -> Self {
        LinkConfig::new(SimDuration::from_millis(1)).with_jitter(SimDuration::from_micros(200))
    }

    /// A WAN-ish default: 40 ms latency, 10 ms jitter, lossless.
    pub fn wan() -> Self {
        LinkConfig::new(SimDuration::from_millis(40)).with_jitter(SimDuration::from_millis(10))
    }

    /// Builder-style: sets uniform jitter added on top of the base latency.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Builder-style: sets independent per-message drop probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not within `0.0..=1.0`.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability must be in [0,1]");
        self.drop_probability = p;
        self
    }

    /// The fixed part of the delivery latency.
    pub fn base_latency(&self) -> SimDuration {
        self.base_latency
    }

    /// The maximum uniform jitter.
    pub fn jitter(&self) -> SimDuration {
        self.jitter
    }

    /// The per-message drop probability.
    pub fn drop_probability(&self) -> f64 {
        self.drop_probability
    }

    /// Samples a delivery latency for one message.
    pub fn sample_latency(&self, rng: &mut StdRng) -> SimDuration {
        if self.jitter == SimDuration::ZERO {
            return self.base_latency;
        }
        let extra = rng.random_range(0..=self.jitter.as_micros());
        self.base_latency + SimDuration::from_micros(extra)
    }

    /// Samples whether one message is dropped.
    pub fn sample_drop(&self, rng: &mut StdRng) -> bool {
        if self.drop_probability <= 0.0 {
            return false;
        }
        if self.drop_probability >= 1.0 {
            return true;
        }
        rng.random_bool(self.drop_probability)
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::lan()
    }
}

/// Indexed adjacency storage for per-pair link overrides and
/// administrative states.
///
/// The simulator consults the link model once per routed message, so the
/// lookup must not hash a `(NodeId, NodeId)` key or clone a config. Node
/// ids are dense, which makes a per-source vector of sorted `(to, …)`
/// pairs the natural shape: the common case (no override, link up) is an
/// empty-slice check, and an override resolves with a binary search over
/// the handful of edges a node actually has.
#[derive(Debug)]
pub(crate) struct LinkTable {
    default: LinkConfig,
    /// Per-source override lists, indexed by the `from` node, each
    /// sorted by the `to` node.
    overrides: Vec<Vec<(u32, LinkConfig)>>,
    /// Per-source lists of peers whose directed link is down, sorted.
    down: Vec<Vec<u32>>,
}

impl LinkTable {
    pub(crate) fn new(default: LinkConfig) -> Self {
        LinkTable {
            default,
            overrides: Vec::new(),
            down: Vec::new(),
        }
    }

    pub(crate) fn set_default(&mut self, cfg: LinkConfig) {
        self.default = cfg;
    }

    fn ensure(&mut self, from: u32) -> usize {
        let idx = from as usize;
        if idx >= self.overrides.len() {
            self.overrides.resize_with(idx + 1, Vec::new);
            self.down.resize_with(idx + 1, Vec::new);
        }
        idx
    }

    /// Installs a directed override `from → to`.
    pub(crate) fn set_override(&mut self, from: u32, to: u32, cfg: LinkConfig) {
        let idx = self.ensure(from);
        let edges = &mut self.overrides[idx];
        match edges.binary_search_by_key(&to, |(peer, _)| *peer) {
            Ok(pos) => edges[pos].1 = cfg,
            Err(pos) => edges.insert(pos, (to, cfg)),
        }
    }

    /// The effective config of the directed link `from → to`.
    #[inline]
    pub(crate) fn cfg(&self, from: u32, to: u32) -> &LinkConfig {
        if let Some(edges) = self.overrides.get(from as usize) {
            if !edges.is_empty() {
                if let Ok(pos) = edges.binary_search_by_key(&to, |(peer, _)| *peer) {
                    return &edges[pos].1;
                }
            }
        }
        &self.default
    }

    /// Sets the administrative state of the directed link `from → to`.
    pub(crate) fn set_state(&mut self, from: u32, to: u32, state: LinkState) {
        let idx = self.ensure(from);
        let peers = &mut self.down[idx];
        match (peers.binary_search(&to), state) {
            (Err(pos), LinkState::Down) => peers.insert(pos, to),
            (Ok(pos), LinkState::Up) => {
                peers.remove(pos);
            }
            _ => {}
        }
    }

    /// Whether the directed link `from → to` is administratively up.
    #[inline]
    pub(crate) fn is_up(&self, from: u32, to: u32) -> bool {
        match self.down.get(from as usize) {
            Some(peers) if !peers.is_empty() => peers.binary_search(&to).is_err(),
            _ => true,
        }
    }

    /// Marks every link administratively up again.
    pub(crate) fn clear_states(&mut self) {
        for peers in &mut self.down {
            peers.clear();
        }
    }

    /// Rewrites the drop probability on the default link and every
    /// override, preserving latency characteristics.
    pub(crate) fn set_drop_probability(&mut self, p: f64) {
        self.default = self.default.clone().with_drop_probability(p);
        for edges in &mut self.overrides {
            for (_, cfg) in edges.iter_mut() {
                *cfg = cfg.clone().with_drop_probability(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zero_jitter_latency_is_fixed() {
        let cfg = LinkConfig::new(SimDuration::from_millis(5));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(cfg.sample_latency(&mut rng), SimDuration::from_millis(5));
        }
    }

    #[test]
    fn jitter_bounds_latency() {
        let cfg = LinkConfig::new(SimDuration::from_millis(5)).with_jitter(SimDuration::from_millis(2));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let l = cfg.sample_latency(&mut rng);
            assert!(l >= SimDuration::from_millis(5));
            assert!(l <= SimDuration::from_millis(7));
        }
    }

    #[test]
    fn drop_probability_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let never = LinkConfig::lan();
        let always = LinkConfig::lan().with_drop_probability(1.0);
        assert!(!never.sample_drop(&mut rng));
        assert!(always.sample_drop(&mut rng));
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn bad_drop_probability_panics() {
        let _ = LinkConfig::lan().with_drop_probability(1.5);
    }

    #[test]
    fn link_state_default_up() {
        assert!(LinkState::default().is_up());
        assert!(!LinkState::Down.is_up());
    }

    #[test]
    fn link_table_resolves_overrides_and_states() {
        let mut table = LinkTable::new(LinkConfig::lan());
        let wan = LinkConfig::wan();
        table.set_override(0, 5, wan.clone());
        assert_eq!(table.cfg(0, 5), &wan);
        assert_eq!(table.cfg(0, 4), &LinkConfig::lan());
        assert_eq!(table.cfg(5, 0), &LinkConfig::lan());
        assert_eq!(table.cfg(99, 100), &LinkConfig::lan());
        // Replacing an override keeps one entry per edge.
        table.set_override(0, 5, LinkConfig::lan());
        assert_eq!(table.cfg(0, 5), &LinkConfig::lan());

        assert!(table.is_up(0, 5));
        table.set_state(0, 5, LinkState::Down);
        assert!(!table.is_up(0, 5));
        assert!(table.is_up(5, 0));
        table.set_state(0, 5, LinkState::Down); // idempotent
        assert!(!table.is_up(0, 5));
        table.set_state(0, 5, LinkState::Up);
        assert!(table.is_up(0, 5));
        table.set_state(3, 1, LinkState::Down);
        table.clear_states();
        assert!(table.is_up(3, 1));
    }

    #[test]
    fn link_table_drop_probability_sweeps_all_links() {
        let mut table = LinkTable::new(LinkConfig::lan());
        table.set_override(1, 2, LinkConfig::wan());
        table.set_drop_probability(0.25);
        assert_eq!(table.cfg(0, 0).drop_probability(), 0.25);
        assert_eq!(table.cfg(1, 2).drop_probability(), 0.25);
        assert_eq!(table.cfg(1, 2).base_latency(), SimDuration::from_millis(40));
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let cfg = LinkConfig::lan().with_drop_probability(0.3);
        let mut rng = StdRng::seed_from_u64(7);
        let drops = (0..10_000).filter(|_| cfg.sample_drop(&mut rng)).count();
        assert!((2_500..3_500).contains(&drops), "drops={drops}");
    }
}
