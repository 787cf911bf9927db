//! Property: the alert lifecycle engine honours its policy invariants
//! under arbitrary seeded schedules of match / ack / resolve /
//! clock-advance events.
//!
//! A straight-line reference model predicts every outcome, and the
//! schedule asserts after each step:
//!
//! 1. **dedup** — no notification is admitted for a fingerprint whose
//!    instance is active (firing or acked): such observations come back
//!    `Suppressed`, never `Deliver`/`Digested`;
//! 2. **throttle** — admitted deliveries never exceed the budget per
//!    fixed window, per fingerprint;
//! 3. **digest** — every payload routed into a digest appears in a
//!    flush exactly once (checked per flush and over the whole run,
//!    with a final drain flush);
//! 4. **stale** — the stale timeout fires for exactly the active
//!    instances that were quiescent for `stale_after`, and for all of
//!    them after a long enough quiet period.
//!
//! A second engine takes every payload lazily (`observe_with`) and must
//! agree with the eager one on every outcome, tick and transition, and
//! build its payload exactly when the outcome is `Digested`.
//!
//! A final pass replays the drained transition log into a fresh engine
//! via `restore` and requires identical instance states — the
//! durability round-trip the journal relies on.

use gsa_alerts::{
    AlertEngine, AlertKey, AlertPolicyConfig, AlertState, DigestConfig, Outcome, ThrottleConfig,
};
use gsa_types::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Digest flushes as (digest key, payload numbers) batches.
type Flushed = Vec<(String, Vec<u64>)>;

/// One step of a generated schedule. Fingerprints are drawn from a
/// small space so schedules actually revisit instances.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A matched event for fingerprint `fp` (payloads are numbered by
    /// the harness so digest multisets are checkable).
    Match { fp: u64 },
    /// Acknowledge `fp`.
    Ack { fp: u64 },
    /// Resolve `fp`.
    Resolve { fp: u64 },
    /// Advance the clock by `secs` and run a maintenance tick.
    Advance { secs: u64 },
}

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        (0u64..5).prop_map(|fp| Op::Match { fp }),
        (0u64..5).prop_map(|fp| Op::Match { fp }),
        (0u64..5).prop_map(|fp| Op::Match { fp }),
        (0u64..5).prop_map(|fp| Op::Ack { fp }),
        (0u64..5).prop_map(|fp| Op::Resolve { fp }),
        (1u64..15).prop_map(|secs| Op::Advance { secs }),
        (1u64..15).prop_map(|secs| Op::Advance { secs }),
    ]
    .boxed()
}

fn config_strategy() -> BoxedStrategy<AlertPolicyConfig> {
    let throttle = prop_oneof![
        Just(None),
        (0u32..4, 5u64..30).prop_map(|(budget, window)| Some(ThrottleConfig {
            budget,
            window: SimDuration::from_secs(window),
        })),
    ];
    let digest = prop_oneof![
        Just(None),
        (10u64..60).prop_map(|interval| Some(DigestConfig {
            interval: SimDuration::from_secs(interval),
        })),
    ];
    (
        prop_oneof![Just(true), Just(false)],
        throttle,
        digest,
        (20u64..80).prop_map(SimDuration::from_secs),
    )
        .prop_map(|(dedup, throttle, digest, stale_after)| AlertPolicyConfig {
            dedup,
            throttle,
            digest,
            stale_after: Some(stale_after),
            ..AlertPolicyConfig::default()
        })
        .boxed()
}

/// Reference model of one instance.
#[derive(Debug, Clone, Copy)]
struct ModelInstance {
    state: AlertState,
    last_seen: SimTime,
}

/// Straight-line reference model of the policy pipeline.
#[derive(Debug, Default)]
struct Model {
    instances: BTreeMap<u64, ModelInstance>,
    /// Fixed throttle windows: fingerprint → (window start, used).
    buckets: BTreeMap<u64, (SimTime, u32)>,
    /// Payloads currently buffered for digesting, with their keys.
    buffered: Vec<(String, u64)>,
    digest_due: Option<SimTime>,
}

impl Model {
    fn active(&self, fp: u64) -> bool {
        self.instances.get(&fp).is_some_and(|i| i.state.is_active())
    }

    /// Predicts the outcome of `observe` and applies it to the model.
    fn observe(&mut self, config: &AlertPolicyConfig, fp: u64, key: &str, payload: u64, now: SimTime) -> Outcome {
        let was_active = self.active(fp);
        if let Some(instance) = self.instances.get_mut(&fp) {
            instance.last_seen = now;
        }
        if was_active && config.dedup {
            return Outcome::Suppressed;
        }
        if !was_active {
            self.instances.insert(
                fp,
                ModelInstance {
                    state: AlertState::Firing,
                    last_seen: now,
                },
            );
        }
        if let Some(throttle) = config.throttle {
            let bucket = self.buckets.entry(fp).or_insert((now, 0));
            if now.since(bucket.0) >= throttle.window {
                *bucket = (now, 0);
            }
            if bucket.1 >= throttle.budget {
                return Outcome::Throttled;
            }
            bucket.1 += 1;
        }
        if let Some(digest) = config.digest {
            if self.buffered.is_empty() {
                self.digest_due = Some(now + digest.interval);
            }
            self.buffered.push((key.to_string(), payload));
            return Outcome::Digested;
        }
        Outcome::Deliver
    }

    fn ack(&mut self, fp: u64) -> bool {
        match self.instances.get_mut(&fp) {
            Some(i) if i.state == AlertState::Firing => {
                i.state = AlertState::Acked;
                true
            }
            _ => false,
        }
    }

    fn resolve(&mut self, fp: u64) -> bool {
        match self.instances.get_mut(&fp) {
            Some(i) if i.state.is_active() => {
                i.state = AlertState::Resolved;
                true
            }
            _ => false,
        }
    }

    /// Predicts a tick: which instances go stale, and whether (and
    /// with what) the digests flush.
    fn tick(&mut self, config: &AlertPolicyConfig, now: SimTime) -> (Vec<AlertKey>, Option<Flushed>) {
        let mut stale = Vec::new();
        if let Some(stale_after) = config.stale_after {
            for (&fp, instance) in self.instances.iter_mut() {
                if instance.state.is_active() && now.since(instance.last_seen) >= stale_after {
                    instance.state = AlertState::Stale;
                    stale.push(fp.into());
                }
            }
        }
        let flushed = if self.digest_due.is_some_and(|due| now >= due) {
            self.digest_due = None;
            let mut by_key: BTreeMap<String, Vec<u64>> = BTreeMap::new();
            for (key, payload) in self.buffered.drain(..) {
                by_key.entry(key).or_default().push(payload);
            }
            Some(by_key.into_iter().collect())
        } else {
            None
        };
        (stale, flushed)
    }
}

fn digest_key(fp: u64) -> String {
    format!("col-{}", fp % 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every generated (config, schedule) pair upholds the four policy
    /// invariants and the restore round-trip.
    #[test]
    fn lifecycle_invariants_hold(
        config in config_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut engine: AlertEngine<u64> = AlertEngine::new(config.clone());
        let mut lazy: AlertEngine<u64> = AlertEngine::new(config.clone());
        let mut model = Model::default();
        let mut now = SimTime::ZERO;
        let mut next_payload = 0u64;
        let mut digested_payloads: Vec<u64> = Vec::new();
        let mut flushed_payloads: Vec<u64> = Vec::new();
        let mut transitions = Vec::new();

        for &op in &ops {
            match op {
                Op::Match { fp } => {
                    let payload = next_payload;
                    next_payload += 1;
                    let key = digest_key(fp);
                    let was_active = model.active(fp);
                    let expected = model.observe(&config, fp, &key, payload, now);
                    let outcome = engine.observe(fp, &key, payload, now);
                    prop_assert_eq!(outcome, expected);
                    // Lazy ≡ eager, and only a digest builds the payload.
                    let mut built = false;
                    let make = || {
                        built = true;
                        payload
                    };
                    prop_assert_eq!(lazy.observe_with(fp, &key, make, now), outcome);
                    prop_assert_eq!(built, outcome == Outcome::Digested);
                    // Invariant 1: an active fingerprint under dedup is
                    // never notified (neither directly nor via digest).
                    if config.dedup && was_active {
                        prop_assert_eq!(outcome, Outcome::Suppressed);
                    }
                    if outcome == Outcome::Digested {
                        digested_payloads.push(payload);
                    }
                }
                Op::Ack { fp } => {
                    prop_assert_eq!(engine.ack(fp, now), model.ack(fp));
                    lazy.ack(fp, now);
                }
                Op::Resolve { fp } => {
                    prop_assert_eq!(engine.resolve(fp, now), model.resolve(fp));
                    lazy.resolve(fp, now);
                }
                Op::Advance { secs } => {
                    now += SimDuration::from_secs(secs);
                    let (expected_stale, expected_flush) = model.tick(&config, now);
                    let outcome = engine.on_tick(now);
                    prop_assert_eq!(&lazy.on_tick(now), &outcome);
                    // Invariant 4: stale fires for exactly the
                    // quiescent active instances.
                    prop_assert_eq!(&outcome.stale, &expected_stale);
                    match expected_flush {
                        Some(expected) => {
                            // Invariant 3 (per flush): the flush holds
                            // exactly the buffered payloads, per key.
                            prop_assert_eq!(&outcome.flushed, &expected);
                            flushed_payloads
                                .extend(outcome.flushed.iter().flat_map(|(_, p)| p.iter().copied()));
                        }
                        None => prop_assert!(outcome.flushed.is_empty()),
                    }
                }
            }
            // States agree after every step.
            for fp in 0..5 {
                prop_assert_eq!(engine.state(fp), model.instances.get(&fp).map(|i| i.state));
            }
            let step = engine.take_transitions();
            prop_assert_eq!(&lazy.take_transitions(), &step);
            transitions.extend(step);
        }

        // Invariant 2, settled globally: admitted deliveries per
        // fingerprint never exceeded the budget in any throttle window.
        // (The per-step outcome equality against the model's fixed
        // windows already enforces this; here we re-check the counts
        // from the model's final buckets as a sanity floor.)
        if let Some(throttle) = config.throttle {
            for &(_, used) in model.buckets.values() {
                prop_assert!(used <= throttle.budget);
            }
        }

        // Invariant 3, settled globally: drain the remaining buffers
        // with a far-future tick; every digested payload must have
        // flushed exactly once.
        now += SimDuration::from_secs(24 * 3600);
        let (final_stale, final_flush) = model.tick(&config, now);
        let final_outcome = engine.on_tick(now);
        prop_assert_eq!(&final_outcome.stale, &final_stale);
        if let Some(expected) = final_flush {
            prop_assert_eq!(&final_outcome.flushed, &expected);
            flushed_payloads
                .extend(final_outcome.flushed.iter().flat_map(|(_, p)| p.iter().copied()));
        } else {
            prop_assert!(final_outcome.flushed.is_empty());
        }
        digested_payloads.sort_unstable();
        flushed_payloads.sort_unstable();
        prop_assert_eq!(digested_payloads, flushed_payloads);

        // Invariant 4, settled globally: nothing is left active after a
        // day of quiescence.
        for fp in 0..5 {
            if let Some(state) = engine.state(fp) {
                prop_assert!(!state.is_active(), "fp {} still active after quiescence", fp);
            }
        }

        // Durability round-trip: replaying the transition log restores
        // the exact instance states.
        transitions.extend(engine.take_transitions());
        let mut restored: AlertEngine<u64> = AlertEngine::new(config);
        for t in &transitions {
            restored.restore(t.key, t.state, t.at);
        }
        for fp in 0..5 {
            prop_assert_eq!(restored.state(fp), engine.state(fp));
        }
    }
}
