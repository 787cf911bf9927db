//! The link model: latency, jitter and loss.

use gsa_types::SimDuration;
use rand::rngs::StdRng;
use rand::Rng;

/// Delay and loss characteristics of the simulated network's links.
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
    fn drop_rate_is_roughly_honoured() {
        let cfg = LinkConfig::lan().with_drop_probability(0.3);
        let mut rng = StdRng::seed_from_u64(7);
        let drops = (0..10_000).filter(|_| cfg.sample_drop(&mut rng)).count();
        assert!((2_500..3_500).contains(&drops), "drops={drops}");
    }
}
