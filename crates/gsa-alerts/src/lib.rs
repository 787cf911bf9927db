//! Stateful alert lifecycles and delivery policies.
//!
//! The paper's alerting service stops at fire-and-forget notification:
//! every matched event becomes exactly one message to the subscriber.
//! This crate adds the production layer on top — matched events are
//! *fingerprinted* (a stable hash over the profile id plus configurable
//! label keys, e.g. collection + kind) into **alert instances** driven
//! by a small state machine:
//!
//! ```text
//! (new) ──match──▶ Firing ──ack──▶ Acked
//!                    │  ▲            │
//!                    │  └───match────┤ (re-fire after resolve/stale)
//!                 resolve            │
//!                    ▼               ▼
//!                 Resolved        Resolved
//!                    │
//!  Firing/Acked ──quiescent ≥ stale_after──▶ Stale
//! ```
//!
//! and per-profile **delivery policies** decide what a match actually
//! sends:
//!
//! * **dedup** — a match whose fingerprint is already firing (or acked)
//!   is suppressed instead of re-notified;
//! * **throttle** — a per-fingerprint token bucket bounds deliveries per
//!   window even when dedup is off or instances keep re-firing;
//! * **digest** — admitted notifications are buffered per digest key
//!   (the collection) and flushed as one batch per interval: "at most
//!   one notification per collection per hour".
//!
//! The engine is sans-IO and generic over the buffered payload type, so
//! the core can run it over its `Notification` values while tests drive
//! it with plain integers. Lifecycle transitions are exposed through
//! [`AlertEngine::take_transitions`] for durable persistence (the core
//! journals them through `gsa-state`), and bounded-label counters
//! through [`AlertEngine::counts_mut`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use gsa_types::{CounterId, Counts, ProfileId, SimDuration, SimTime};
use std::collections::BTreeMap;

/// The lifecycle states of an alert instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertState {
    /// The condition matched and the subscriber has been (or is being)
    /// notified; re-matches are candidates for suppression.
    Firing,
    /// A human (or automation) acknowledged the instance; still active
    /// for dedup purposes, but recorded as handled.
    Acked,
    /// Explicitly closed; the next match opens a fresh firing cycle.
    Resolved,
    /// No match was observed for `stale_after`; timer-driven terminal
    /// state, the next match re-fires.
    Stale,
}

impl AlertState {
    /// Stable one-byte encoding for journal records.
    pub const fn tag(self) -> u8 {
        match self {
            AlertState::Firing => 0,
            AlertState::Acked => 1,
            AlertState::Resolved => 2,
            AlertState::Stale => 3,
        }
    }

    /// Decodes [`AlertState::tag`]; `None` for unknown bytes (fail
    /// closed — a corrupt journal byte must not forge a state).
    pub const fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(AlertState::Firing),
            1 => Some(AlertState::Acked),
            2 => Some(AlertState::Resolved),
            3 => Some(AlertState::Stale),
            _ => None,
        }
    }

    /// Whether the instance is live for dedup: a re-match of an active
    /// instance is a duplicate, not a new alert.
    pub const fn is_active(self) -> bool {
        matches!(self, AlertState::Firing | AlertState::Acked)
    }
}

/// The event labels a fingerprint can be built over, beyond the profile
/// id (which is always included so two profiles never share instances).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelKey {
    /// The event's origin collection (`Hamilton.D`).
    Collection,
    /// The event kind (`collection-rebuilt`, ...).
    Kind,
    /// The host component of the origin collection.
    OriginHost,
}

/// Token-bucket throttle parameters: at most `budget` deliveries per
/// fingerprint per `window` (fixed windows, opening at the first
/// delivery attempt inside each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThrottleConfig {
    /// Deliveries admitted per window; a budget of zero admits nothing.
    pub budget: u32,
    /// Window length.
    pub window: SimDuration,
}

/// Digest-batching parameters: admitted notifications are buffered per
/// digest key and flushed together at most once per `interval`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestConfig {
    /// Minimum spacing between flushes of the same buffer set.
    pub interval: SimDuration,
}

/// Per-profile delivery-policy configuration. The default fingerprint
/// labels are collection + kind; the default policies are all off, so a
/// default-configured engine observes lifecycles without changing what
/// gets delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertPolicyConfig {
    /// Labels hashed (after the profile id) into the fingerprint.
    pub labels: Vec<LabelKey>,
    /// Suppress re-notification while the fingerprint is active.
    pub dedup: bool,
    /// Per-fingerprint delivery budget.
    pub throttle: Option<ThrottleConfig>,
    /// Per-key digest batching.
    pub digest: Option<DigestConfig>,
    /// Quiescence after which an active instance goes stale; `None`
    /// disables the timeout.
    pub stale_after: Option<SimDuration>,
}

impl Default for AlertPolicyConfig {
    fn default() -> Self {
        AlertPolicyConfig {
            labels: vec![LabelKey::Collection, LabelKey::Kind],
            dedup: false,
            throttle: None,
            digest: None,
            stale_after: None,
        }
    }
}

impl AlertPolicyConfig {
    /// Lifecycle tracking with every delivery policy off: instances and
    /// counters are maintained but every observation is delivered, so
    /// delivery sets are bit-identical to an engine-less run. The
    /// policy-equivalence oracle pins exactly this.
    pub fn observe_only() -> Self {
        AlertPolicyConfig::default()
    }

    /// Dedup-only: the smallest policy that changes deliveries.
    pub fn dedup_only() -> Self {
        AlertPolicyConfig {
            dedup: true,
            ..AlertPolicyConfig::default()
        }
    }
}

/// Stable FNV-1a fingerprint over a profile id and its label values.
///
/// The hash must never change across versions — journaled lifecycle
/// records key on it — so this is a hand-rolled FNV-1a with a fixed
/// label separator, not a `std` hasher.
pub fn fingerprint<'a, I>(profile: u64, labels: I) -> u64
where
    I: IntoIterator<Item = &'a str>,
{
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut hash = OFFSET;
    for byte in profile.to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    for label in labels {
        // Separator byte keeps ("ab","c") distinct from ("a","bc").
        hash = (hash ^ 0x1f).wrapping_mul(PRIME);
        for &byte in label.as_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    }
    hash
}

/// An alert instance's name: the profile whose matches it tracks, then
/// its fingerprint. Keys order by profile first, so one range holds all
/// of a profile's instances ([`AlertEngine::forget_profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AlertKey {
    /// The profile the instance belongs to.
    pub profile: ProfileId,
    /// The instance's stable [`fingerprint`].
    pub fingerprint: u64,
}

/// A bare fingerprint names an instance of profile 0, for an engine that
/// serves one profile.
impl From<u64> for AlertKey {
    fn from(fingerprint: u64) -> Self {
        AlertKey { profile: ProfileId::from_raw(0), fingerprint }
    }
}

/// One alert instance: the current state plus the timestamps the timer
/// transitions need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertInstance {
    /// Current lifecycle state.
    pub state: AlertState,
    /// When the current state was entered.
    pub since: SimTime,
    /// Last observation of the fingerprint (drives the stale timeout).
    pub last_seen: SimTime,
}

/// What the policy pipeline decided for one observed match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Notify immediately (no policy intervened).
    Deliver,
    /// Dropped: duplicate of an active instance (dedup).
    Suppressed,
    /// Dropped: the fingerprint's window budget is spent (throttle).
    Throttled,
    /// Buffered into a digest; it will ride the next flush.
    Digested,
}

/// A recorded lifecycle transition, ready for journaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The instance.
    pub key: AlertKey,
    /// The state entered.
    pub state: AlertState,
    /// When it was entered.
    pub at: SimTime,
}

/// What a maintenance tick produced: instances that went stale and
/// digest buffers that came due.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickOutcome<T> {
    /// Instances that transitioned `Firing`/`Acked` → `Stale`.
    pub stale: Vec<AlertKey>,
    /// Flushed digests, one `(key, buffered payloads)` entry per key,
    /// in key order.
    pub flushed: Vec<(String, Vec<T>)>,
}

impl<T> Default for TickOutcome<T> {
    fn default() -> Self {
        TickOutcome {
            stale: Vec::new(),
            flushed: Vec::new(),
        }
    }
}

impl<T> TickOutcome<T> {
    /// True when the tick changed nothing.
    pub fn is_empty(&self) -> bool {
        self.stale.is_empty() && self.flushed.is_empty()
    }
}

/// Fixed-window token bucket for one fingerprint.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    window_start: SimTime,
    used: u32,
}

/// The policy engine: alert instances keyed by profile and fingerprint,
/// plus the volatile throttle buckets and digest buffers.
///
/// Only the instance table is durable state (the host journals
/// transitions and restores via [`AlertEngine::restore`]); buckets and
/// digest buffers are deliberately volatile — a crash may re-admit a
/// throttled notification or drop a buffered digest, which is the
/// documented at-least-once floor, while dedup state survives so an
/// acknowledged or firing instance never double-notifies.
#[derive(Debug, Clone)]
pub struct AlertEngine<T> {
    config: AlertPolicyConfig,
    instances: BTreeMap<AlertKey, AlertInstance>,
    buckets: BTreeMap<AlertKey, Bucket>,
    digests: BTreeMap<String, Vec<T>>,
    /// Earliest time the buffered digests may flush; re-armed when the
    /// first payload lands in an empty buffer set.
    digest_due: Option<SimTime>,
    transitions: Vec<Transition>,
    /// Lifecycle transitions, suppressions and digested observations
    /// since the host last drained [`AlertEngine::counts_mut`].
    counts: Counts,
}

impl<T> AlertEngine<T> {
    /// Creates an engine with the given policy configuration.
    pub fn new(config: AlertPolicyConfig) -> Self {
        AlertEngine {
            config,
            instances: BTreeMap::new(),
            buckets: BTreeMap::new(),
            digests: BTreeMap::new(),
            digest_due: None,
            transitions: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// The engine's policy configuration.
    pub fn config(&self) -> &AlertPolicyConfig {
        &self.config
    }

    /// The current state of an instance, if one exists.
    pub fn state(&self, key: impl Into<AlertKey>) -> Option<AlertState> {
        self.instances.get(&key.into()).map(|i| i.state)
    }

    /// The full instance record.
    pub fn instance(&self, key: impl Into<AlertKey>) -> Option<&AlertInstance> {
        self.instances.get(&key.into())
    }

    /// Number of tracked instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when no instances are tracked.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Enters `state` for an instance the engine already tracks.
    fn transition(&mut self, key: AlertKey, state: AlertState, now: SimTime) {
        if let Some(instance) = self.instances.get_mut(&key) {
            instance.state = state;
            instance.since = now;
        }
        self.record(key, state, now);
    }

    /// Queues a transition for the journal and counts it.
    fn record(&mut self, key: AlertKey, state: AlertState, now: SimTime) {
        self.transitions.push(Transition { key, state, at: now });
        let id = match state {
            AlertState::Firing => CounterId::ALERTS_FIRING,
            AlertState::Acked => CounterId::ALERTS_ACKED,
            AlertState::Resolved => CounterId::ALERTS_RESOLVED,
            AlertState::Stale => CounterId::ALERTS_STALE,
        };
        self.counts.add(id, 1);
    }

    /// [`observe_with`](Self::observe_with) over a payload the caller
    /// already has.
    pub fn observe(&mut self, key: impl Into<AlertKey>, digest_key: &str, payload: T, now: SimTime) -> Outcome {
        self.observe_with(key, digest_key, || payload, now)
    }

    /// Runs one matched event through the policy pipeline.
    ///
    /// `digest_key` is the buffer the payload joins if digesting is on
    /// (the origin collection, for the core); `payload` is called only
    /// then, so a caller whose payload is a copy makes it only for an
    /// engine that keeps it. Decision order is
    /// dedup → throttle → digest → deliver; the instance transitions to
    /// `Firing` whenever it was not already active, *regardless* of
    /// whether the notification itself is then throttled or digested —
    /// the lifecycle tracks the condition, the policies only gate the
    /// messaging.
    pub fn observe_with(
        &mut self,
        key: impl Into<AlertKey>,
        digest_key: &str,
        payload: impl FnOnce() -> T,
        now: SimTime,
    ) -> Outcome {
        let key = key.into();
        // One probe finds the instance, stamps it seen and (re)fires it.
        let mut known = true;
        let instance = self.instances.entry(key).or_insert_with(|| {
            known = false;
            AlertInstance {
                state: AlertState::Firing,
                since: now,
                last_seen: now,
            }
        });
        instance.last_seen = now;
        let active = known && instance.state.is_active();
        if active && self.config.dedup {
            self.counts.add(CounterId::ALERTS_SUPPRESSED, 1);
            return Outcome::Suppressed;
        }
        if !active {
            instance.state = AlertState::Firing;
            instance.since = now;
            self.record(key, AlertState::Firing, now);
        }
        if let Some(throttle) = self.config.throttle {
            let bucket = self.buckets.entry(key).or_insert(Bucket {
                window_start: now,
                used: 0,
            });
            if now.since(bucket.window_start) >= throttle.window {
                bucket.window_start = now;
                bucket.used = 0;
            }
            if bucket.used >= throttle.budget {
                self.counts.add(CounterId::ALERTS_SUPPRESSED, 1);
                return Outcome::Throttled;
            }
            bucket.used += 1;
        }
        if let Some(digest) = self.config.digest {
            if self.digests.is_empty() {
                self.digest_due = Some(now + digest.interval);
            }
            self.digests.entry(digest_key.to_string()).or_default().push(payload());
            self.counts.add(CounterId::ALERTS_DIGESTED, 1);
            return Outcome::Digested;
        }
        Outcome::Deliver
    }

    /// Acknowledges a firing instance. Returns `true` when the state
    /// changed (only `Firing` is ackable).
    pub fn ack(&mut self, key: impl Into<AlertKey>, now: SimTime) -> bool {
        let key = key.into();
        match self.state(key) {
            Some(AlertState::Firing) => {
                self.transition(key, AlertState::Acked, now);
                true
            }
            _ => false,
        }
    }

    /// Resolves an active instance. Returns `true` when the state
    /// changed; the next observation of the fingerprint re-fires.
    pub fn resolve(&mut self, key: impl Into<AlertKey>, now: SimTime) -> bool {
        let key = key.into();
        match self.state(key) {
            Some(state) if state.is_active() => {
                self.transition(key, AlertState::Resolved, now);
                true
            }
            _ => false,
        }
    }

    /// Timer body: expires quiescent instances to `Stale` and flushes
    /// due digest buffers. Designed to ride the host's existing
    /// maintenance tick — calling it more often than the digest
    /// interval is safe (flushes stay spaced by at least the interval).
    pub fn on_tick(&mut self, now: SimTime) -> TickOutcome<T> {
        let mut outcome = TickOutcome::default();
        if let Some(stale_after) = self.config.stale_after {
            // BTreeMap order keeps the stale list (and with it journal
            // record order) deterministic across runs.
            let expired: Vec<AlertKey> = self
                .instances
                .iter()
                .filter(|(_, i)| i.state.is_active() && now.since(i.last_seen) >= stale_after)
                .map(|(&key, _)| key)
                .collect();
            for key in expired {
                self.transition(key, AlertState::Stale, now);
                outcome.stale.push(key);
            }
        }
        if self.digest_due.is_some_and(|due| now >= due) {
            self.digest_due = None;
            outcome.flushed = std::mem::take(&mut self.digests).into_iter().collect();
        }
        outcome
    }

    /// Drains the transitions recorded since the last call (for
    /// journaling).
    pub fn take_transitions(&mut self) -> Vec<Transition> {
        std::mem::take(&mut self.transitions)
    }

    /// What the engine counted (the bounded-label `alerts.*` rows of
    /// the counter table) since the host last drained this.
    pub fn counts_mut(&mut self) -> &mut Counts {
        &mut self.counts
    }

    /// Drops every instance and throttle bucket of a cancelled `profile`:
    /// an alert ends with its profile. Records no transition — the
    /// journal's cancel already ends them.
    pub fn forget_profile(&mut self, profile: ProfileId) {
        let first = AlertKey { profile, fingerprint: 0 };
        let last = AlertKey { profile, fingerprint: u64::MAX };
        let keys: Vec<AlertKey> = self.instances.range(first..=last).map(|(&key, _)| key).collect();
        for key in keys {
            self.instances.remove(&key);
            self.buckets.remove(&key);
        }
    }

    /// Reinstates an instance from durable state (recovery replay).
    /// Does *not* record a transition — the journal already holds it.
    pub fn restore(&mut self, key: impl Into<AlertKey>, state: AlertState, at: SimTime) {
        self.instances.insert(
            key.into(),
            AlertInstance {
                state,
                since: at,
                last_seen: at,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn at(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn fingerprint_is_stable_and_label_sensitive() {
        let a = fingerprint(7, ["Hamilton.D", "collection-rebuilt"]);
        let b = fingerprint(7, ["Hamilton.D", "collection-rebuilt"]);
        assert_eq!(a, b);
        assert_ne!(a, fingerprint(8, ["Hamilton.D", "collection-rebuilt"]));
        assert_ne!(a, fingerprint(7, ["Hamilton.D", "document-added"]));
        // Separator: label boundaries matter.
        assert_ne!(fingerprint(1, ["ab", "c"]), fingerprint(1, ["a", "bc"]));
        // Pinned values: the journal keys on this hash, it must never drift.
        assert_eq!(fingerprint(0, []), 0xa8c7_f832_281a_39c5);
        assert_eq!(a, 0x9f04_1567_6a54_083c);
    }

    #[test]
    fn state_tags_round_trip_and_fail_closed() {
        for state in [
            AlertState::Firing,
            AlertState::Acked,
            AlertState::Resolved,
            AlertState::Stale,
        ] {
            assert_eq!(AlertState::from_tag(state.tag()), Some(state));
        }
        for tag in 4u8..=255 {
            assert_eq!(AlertState::from_tag(tag), None);
        }
    }

    #[test]
    fn observe_only_delivers_everything_but_tracks_lifecycle() {
        let mut engine: AlertEngine<u32> = AlertEngine::new(AlertPolicyConfig::observe_only());
        assert_eq!(engine.observe(1, "c", 10, T0), Outcome::Deliver);
        assert_eq!(engine.observe(1, "c", 11, at(1)), Outcome::Deliver);
        assert_eq!(engine.state(1), Some(AlertState::Firing));
        let counters = engine.counts_mut();
        assert_eq!(counters.get(CounterId::ALERTS_FIRING), 1);
        assert_eq!(counters.get(CounterId::ALERTS_SUPPRESSED), 0);
    }

    #[test]
    fn dedup_suppresses_while_active_and_refires_after_resolve() {
        let mut engine: AlertEngine<u32> = AlertEngine::new(AlertPolicyConfig::dedup_only());
        assert_eq!(engine.observe(1, "c", 0, T0), Outcome::Deliver);
        assert_eq!(engine.observe(1, "c", 1, at(1)), Outcome::Suppressed);
        assert!(engine.ack(1, at(2)));
        // Acked is still active: dedup keeps suppressing.
        assert_eq!(engine.observe(1, "c", 2, at(3)), Outcome::Suppressed);
        assert!(engine.resolve(1, at(4)));
        assert_eq!(engine.observe(1, "c", 3, at(5)), Outcome::Deliver);
        assert_eq!(engine.state(1), Some(AlertState::Firing));
        let counters = engine.counts_mut();
        assert_eq!(counters.get(CounterId::ALERTS_FIRING), 2);
        assert_eq!(counters.get(CounterId::ALERTS_ACKED), 1);
        assert_eq!(counters.get(CounterId::ALERTS_RESOLVED), 1);
        assert_eq!(counters.get(CounterId::ALERTS_SUPPRESSED), 2);
    }

    #[test]
    fn ack_requires_firing_and_resolve_requires_active() {
        let mut engine: AlertEngine<u32> = AlertEngine::new(AlertPolicyConfig::dedup_only());
        assert!(!engine.ack(9, T0), "unknown fingerprint");
        assert!(!engine.resolve(9, T0));
        engine.observe(9, "c", 0, T0);
        assert!(engine.ack(9, at(1)));
        assert!(!engine.ack(9, at(2)), "already acked");
        assert!(engine.resolve(9, at(3)));
        assert!(!engine.resolve(9, at(4)), "already resolved");
        assert!(!engine.ack(9, at(5)), "resolved is not ackable");
    }

    #[test]
    fn throttle_caps_deliveries_per_window_and_refills() {
        let config = AlertPolicyConfig {
            throttle: Some(ThrottleConfig {
                budget: 2,
                window: SimDuration::from_secs(10),
            }),
            ..AlertPolicyConfig::default()
        };
        let mut engine: AlertEngine<u32> = AlertEngine::new(config);
        assert_eq!(engine.observe(1, "c", 0, T0), Outcome::Deliver);
        assert_eq!(engine.observe(1, "c", 1, at(1)), Outcome::Deliver);
        assert_eq!(engine.observe(1, "c", 2, at(2)), Outcome::Throttled);
        // Other fingerprints have their own bucket.
        assert_eq!(engine.observe(2, "c", 3, at(2)), Outcome::Deliver);
        // A new window refills the budget.
        assert_eq!(engine.observe(1, "c", 4, at(10)), Outcome::Deliver);
    }

    #[test]
    fn digest_buffers_and_flushes_once_due() {
        let config = AlertPolicyConfig {
            digest: Some(DigestConfig {
                interval: SimDuration::from_secs(60),
            }),
            ..AlertPolicyConfig::default()
        };
        let mut engine: AlertEngine<u32> = AlertEngine::new(config);
        assert_eq!(engine.observe(1, "Hamilton.D", 10, T0), Outcome::Digested);
        assert_eq!(engine.observe(2, "London.E", 11, at(1)), Outcome::Digested);
        assert_eq!(engine.observe(1, "Hamilton.D", 12, at(2)), Outcome::Digested);
        // Not due yet.
        assert!(engine.on_tick(at(59)).flushed.is_empty());
        let outcome = engine.on_tick(at(60));
        assert_eq!(
            outcome.flushed,
            vec![
                ("Hamilton.D".to_string(), vec![10, 12]),
                ("London.E".to_string(), vec![11]),
            ]
        );
        // Flushed buffers are gone; the next tick flushes nothing.
        assert!(engine.on_tick(at(120)).flushed.is_empty());
        assert_eq!(engine.counts_mut().get(CounterId::ALERTS_DIGESTED), 3);
    }

    #[test]
    fn stale_timeout_fires_after_quiescence_and_rearms_on_match() {
        let config = AlertPolicyConfig {
            dedup: true,
            stale_after: Some(SimDuration::from_secs(30)),
            ..AlertPolicyConfig::default()
        };
        let mut engine: AlertEngine<u32> = AlertEngine::new(config);
        engine.observe(1, "c", 0, T0);
        // A re-match (even suppressed) counts as activity.
        assert_eq!(engine.observe(1, "c", 1, at(20)), Outcome::Suppressed);
        assert!(engine.on_tick(at(40)).stale.is_empty(), "activity at t=20");
        let outcome = engine.on_tick(at(50));
        assert_eq!(outcome.stale, vec![AlertKey::from(1)]);
        assert_eq!(engine.state(1), Some(AlertState::Stale));
        // Stale instances re-fire on the next match.
        assert_eq!(engine.observe(1, "c", 2, at(55)), Outcome::Deliver);
        assert_eq!(engine.state(1), Some(AlertState::Firing));
    }

    #[test]
    fn transitions_are_journal_ready_and_drained() {
        let mut engine: AlertEngine<u32> = AlertEngine::new(AlertPolicyConfig::dedup_only());
        engine.observe(5, "c", 0, T0);
        engine.ack(5, at(1));
        engine.resolve(5, at(2));
        let transitions = engine.take_transitions();
        assert_eq!(
            transitions,
            vec![
                Transition { key: 5.into(), state: AlertState::Firing, at: T0 },
                Transition { key: 5.into(), state: AlertState::Acked, at: at(1) },
                Transition { key: 5.into(), state: AlertState::Resolved, at: at(2) },
            ]
        );
        assert!(engine.take_transitions().is_empty());
    }

    #[test]
    fn restore_reinstates_without_journaling() {
        let mut engine: AlertEngine<u32> = AlertEngine::new(AlertPolicyConfig::dedup_only());
        engine.restore(7, AlertState::Acked, at(3));
        assert!(engine.take_transitions().is_empty());
        assert_eq!(engine.state(7), Some(AlertState::Acked));
        // The restored instance dedups exactly like a live one.
        assert_eq!(engine.observe(7, "c", 0, at(4)), Outcome::Suppressed);
    }

    #[test]
    fn a_cancelled_profile_takes_its_instances_and_buckets_with_it() {
        let config = AlertPolicyConfig {
            throttle: Some(ThrottleConfig { budget: 1, window: SimDuration::from_secs(60) }),
            ..AlertPolicyConfig::dedup_only()
        };
        let mut engine: AlertEngine<u32> = AlertEngine::new(config);
        let key = |profile, fingerprint| AlertKey {
            profile: ProfileId::from_raw(profile),
            fingerprint,
        };
        for (profile, fingerprint) in [(6, u64::MAX), (7, 0), (7, 9), (7, u64::MAX), (8, 0)] {
            assert_eq!(engine.observe(key(profile, fingerprint), "c", 0, T0), Outcome::Deliver);
        }
        engine.forget_profile(ProfileId::from_raw(7));
        assert_eq!(engine.len(), 2);
        assert_eq!(engine.state(key(6, u64::MAX)), Some(AlertState::Firing));
        assert_eq!(engine.state(key(8, 0)), Some(AlertState::Firing));
        // Nothing of profile 7 is left, its spent throttle budget included.
        assert_eq!(engine.state(key(7, 9)), None);
        assert_eq!(engine.observe(key(7, 9), "c", 1, at(1)), Outcome::Deliver);
        assert_eq!(engine.observe(key(8, 0), "c", 2, at(1)), Outcome::Suppressed);
    }

    #[test]
    fn wipe_forgets_everything() {
        let mut engine: AlertEngine<u32> = AlertEngine::new(AlertPolicyConfig::dedup_only());
        engine.observe(1, "c", 0, T0);
        assert!(!engine.is_empty());
        // A crash keeps the policy and builds the engine anew from it.
        let mut engine: AlertEngine<u32> = AlertEngine::new(engine.config().clone());
        assert_eq!(engine.config(), &AlertPolicyConfig::dedup_only());
        assert!(engine.is_empty());
        assert!(engine.take_transitions().is_empty());
        assert!(engine.counts_mut().is_empty());
        // Without the instance the duplicate delivers again — the
        // volatile double-notify the durable store exists to prevent.
        assert_eq!(engine.observe(1, "c", 1, at(1)), Outcome::Deliver);
    }
}
