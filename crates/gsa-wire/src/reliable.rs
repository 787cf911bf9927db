//! Reliable-delivery envelope and retransmission machinery.
//!
//! The paper commits to best-effort delivery (§6); this module supplies
//! the opt-in layer beneath it: a [`Reliable`] envelope that carries a
//! per-sender sequence number (or acknowledges/refuses one), and a
//! [`RetransmitQueue`] — a timer-driven outbox with exponential backoff,
//! jitter and a bounded retry budget that any simulated actor can embed.
//! The queue is transport-agnostic and fully deterministic: jitter comes
//! from an internal xorshift generator seeded by the caller, so the same
//! seed replays the same retry schedule.
//!
//! The envelope is generic in its payload and is itself a
//! [`WireMessage`] around any [`WireMessage`], so every protocol with the
//! two wire forms gets both reliable wire forms for free.

use crate::binary::{write_varint, BinReader, ByteSink};
use crate::message::WireMessage;
use crate::xml::{WireError, XmlElement, XmlPut};
use gsa_types::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A reliable-delivery envelope: either a sequenced payload, a positive
/// acknowledgement, or a negative acknowledgement (the receiver saw the
/// sequence number but refuses the payload — the sender should
/// dead-letter it instead of retrying).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reliable<M> {
    /// A payload with the sender's sequence number.
    Data {
        /// Sender-local sequence number.
        seq: u64,
        /// The wrapped message.
        payload: M,
    },
    /// Positive acknowledgement of `seq`.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Negative acknowledgement: stop retrying `seq`.
    Nack {
        /// The refused sequence number.
        seq: u64,
    },
}

impl<M> Reliable<M> {
    /// The sequence number this envelope refers to.
    pub fn seq(&self) -> u64 {
        match self {
            Reliable::Data { seq, .. } | Reliable::Ack { seq } | Reliable::Nack { seq } => *seq,
        }
    }
}

/// The XML tag of each of the envelope's three forms, at the index that
/// is its v2 tag byte. v1 is `<tag seq="n">` around the payload's
/// element; v2 is the tag byte, a varint seq and the payload's own frame.
const TAGS: [&str; 3] = ["rel-data", "rel-ack", "rel-nack"];

impl<M> Reliable<M> {
    fn form(&self) -> usize {
        match self {
            Reliable::Data { .. } => 0,
            Reliable::Ack { .. } => 1,
            Reliable::Nack { .. } => 2,
        }
    }

    /// The envelope of the given form, decoding the payload only for
    /// [`Reliable::Data`].
    fn of_form(
        form: Option<usize>,
        seq: u64,
        payload: impl FnOnce() -> Result<M, WireError>,
    ) -> Result<Self, WireError> {
        match form {
            Some(0) => Ok(Reliable::Data { seq, payload: payload()? }),
            Some(1) => Ok(Reliable::Ack { seq }),
            Some(2) => Ok(Reliable::Nack { seq }),
            _ => Err(WireError::malformed("unknown reliable envelope form")),
        }
    }
}

impl<M: WireMessage> WireMessage for Reliable<M> {
    fn tag(&self) -> &'static str {
        TAGS[self.form()]
    }

    fn put_xml(&self, out: &mut impl XmlPut) {
        out.num_attr("seq", self.seq());
        if let Reliable::Data { payload, .. } = self {
            out.child(payload.tag(), |el| payload.put_xml(el));
        }
    }

    fn from_xml(el: &XmlElement) -> Result<Self, WireError> {
        let seq = el
            .attr("seq")
            .ok_or_else(|| WireError::malformed("reliable envelope lacks seq"))?
            .parse::<u64>()
            .map_err(|_| WireError::malformed("reliable seq is not a number"))?;
        let form = TAGS.iter().position(|tag| *tag == el.name());
        Self::of_form(form, seq, || match el.elements().next() {
            Some(inner) => M::from_xml(inner),
            None => Err(WireError::malformed("rel-data lacks a payload")),
        })
    }

    fn put_bin(&self, out: &mut impl ByteSink) {
        out.put_u8(self.form() as u8);
        write_varint(out, self.seq());
        if let Reliable::Data { payload, .. } = self {
            payload.put_frame(out);
        }
    }

    fn take_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let tag = r.read_u8()?;
        let seq = r.read_varint()?;
        Self::of_form(Some(usize::from(tag)), seq, || r.read_frame(M::take_bin))
    }
}

/// Retry parameters: exponential backoff from `base` by `multiplier` up
/// to `max_interval`, ± `jitter` (a fraction of the interval), with an
/// optional attempt budget after which the message is dead-lettered.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// First retransmission delay.
    pub base: SimDuration,
    /// Backoff multiplier per attempt (≥ 1.0).
    pub multiplier: f64,
    /// Ceiling on the retransmission delay.
    pub max_interval: SimDuration,
    /// Jitter as a fraction of the interval (0.0 = none, 0.2 = ±20 %).
    pub jitter: f64,
    /// Maximum number of retransmissions before dead-lettering; `None`
    /// retries forever (the §7 "delayed, not lost" regime).
    pub budget: Option<u32>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: SimDuration::from_millis(500),
            multiplier: 2.0,
            max_interval: SimDuration::from_secs(4),
            jitter: 0.2,
            budget: None,
        }
    }
}

impl RetryPolicy {
    /// The un-jittered delay before retransmission `attempt` (0-based).
    pub fn interval(&self, attempt: u32) -> SimDuration {
        let base = self.base.as_micros() as f64;
        let max = self.max_interval.as_micros() as f64;
        let raw = base * self.multiplier.powi(attempt.min(63) as i32);
        SimDuration::from_micros(raw.min(max) as u64)
    }
}

/// One in-flight entry awaiting acknowledgement.
#[derive(Debug, Clone)]
struct InFlight<M> {
    payload: M,
    first_sent: SimTime,
    attempts: u32,
    next_due: SimTime,
}

/// What a [`RetransmitQueue::poll`] decided: payloads to retransmit now,
/// and payloads whose retry budget is exhausted (dead letters).
#[derive(Debug, Clone, Default)]
pub struct PollOutcome<M> {
    /// `(seq, payload)` pairs the caller must re-send.
    pub retransmit: Vec<(u64, M)>,
    /// `(seq, payload)` pairs dropped after exhausting the budget.
    pub dead: Vec<(u64, M)>,
}

/// A timer-driven retransmission queue with exponential backoff, jitter
/// and a bounded retry budget.
///
/// The queue never does I/O: the owner calls [`RetransmitQueue::send`]
/// when it first transmits a payload, [`RetransmitQueue::ack`] /
/// [`RetransmitQueue::nack`] on acknowledgements, and
/// [`RetransmitQueue::poll`] from a periodic timer, re-sending whatever
/// comes back. Determinism: jitter is drawn from an internal xorshift
/// seeded at construction.
#[derive(Debug, Clone)]
pub struct RetransmitQueue<M> {
    policy: RetryPolicy,
    inflight: BTreeMap<u64, InFlight<M>>,
    next_seq: u64,
    rng_state: u64,
}

impl<M: Clone> RetransmitQueue<M> {
    /// Creates a queue with the given policy and jitter seed.
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        RetransmitQueue {
            policy,
            inflight: BTreeMap::new(),
            next_seq: 0,
            // xorshift state must be non-zero.
            rng_state: seed | 1,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Number of unacknowledged payloads.
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// Whether everything sent has been acknowledged.
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Registers a payload the caller is transmitting now; returns the
    /// sequence number to put in the [`Reliable::Data`] envelope.
    pub fn send(&mut self, payload: M, now: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let delay = self.jittered(self.policy.interval(0));
        self.inflight.insert(
            seq,
            InFlight {
                payload,
                first_sent: now,
                attempts: 0,
                next_due: now + delay,
            },
        );
        seq
    }

    /// Acknowledges `seq`. Returns the payload when it was still in
    /// flight (idempotent: duplicate acks return `None`).
    pub fn ack(&mut self, seq: u64) -> Option<M> {
        self.inflight.remove(&seq).map(|e| e.payload)
    }

    /// Negative acknowledgement: drop `seq` without further retries and
    /// return it for dead-lettering.
    pub fn nack(&mut self, seq: u64) -> Option<M> {
        self.inflight.remove(&seq).map(|e| e.payload)
    }

    /// The earliest time any entry wants a retransmission, for callers
    /// that schedule precise timers rather than a fixed tick.
    pub fn next_due(&self) -> Option<SimTime> {
        self.inflight.values().map(|e| e.next_due).min()
    }

    /// Age of the oldest unacknowledged payload.
    pub fn oldest_age(&self, now: SimTime) -> Option<SimDuration> {
        self.inflight
            .values()
            .map(|e| e.first_sent)
            .min()
            .map(|t| now.since(t))
    }

    /// Advances the queue to `now`: every due entry either comes back
    /// for retransmission (attempt counter bumped, next deadline pushed
    /// out by the backed-off, jittered interval) or — once the budget is
    /// exhausted — is removed and returned as a dead letter.
    pub fn poll(&mut self, now: SimTime) -> PollOutcome<M> {
        let mut out = PollOutcome {
            retransmit: Vec::new(),
            dead: Vec::new(),
        };
        let due: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, e)| e.next_due <= now)
            .map(|(seq, _)| *seq)
            .collect();
        for seq in due {
            let entry = self.inflight.get_mut(&seq).expect("due entry exists");
            if self
                .policy
                .budget
                .is_some_and(|budget| entry.attempts >= budget)
            {
                let entry = self.inflight.remove(&seq).expect("due entry exists");
                out.dead.push((seq, entry.payload));
                continue;
            }
            entry.attempts += 1;
            let attempts = entry.attempts;
            out.retransmit.push((seq, entry.payload.clone()));
            let delay = self.jittered(self.policy.interval(attempts));
            let entry = self.inflight.get_mut(&seq).expect("due entry exists");
            entry.next_due = now + delay;
        }
        out
    }

    /// Applies ± `policy.jitter` to an interval using the internal
    /// xorshift generator.
    fn jittered(&mut self, interval: SimDuration) -> SimDuration {
        if self.policy.jitter <= 0.0 {
            return interval;
        }
        // xorshift64* — deterministic, dependency-free.
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        let unit = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64
            / (1u64 << 53) as f64; // uniform [0, 1)
        let factor = 1.0 + self.policy.jitter * (2.0 * unit - 1.0);
        SimDuration::from_micros((interval.as_micros() as f64 * factor).max(1.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(budget: Option<u32>) -> RetryPolicy {
        RetryPolicy {
            base: SimDuration::from_millis(100),
            multiplier: 2.0,
            max_interval: SimDuration::from_millis(800),
            jitter: 0.0,
            budget,
        }
    }

    /// A minimal payload with both wire forms.
    #[derive(Debug, Clone, PartialEq)]
    struct Note(String);

    impl WireMessage for Note {
        fn tag(&self) -> &'static str {
            "p"
        }

        fn put_xml(&self, out: &mut impl XmlPut) {
            out.attr("v", &self.0);
        }

        fn from_xml(el: &XmlElement) -> Result<Self, WireError> {
            Ok(Note(el.attr("v").unwrap_or_default().to_owned()))
        }

        fn put_bin(&self, out: &mut impl ByteSink) {
            crate::binary::write_str(out, &self.0);
        }

        fn take_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
            r.read_string().map(Note)
        }
    }

    #[test]
    fn envelope_round_trips_through_xml() {
        for rel in [
            Reliable::Data {
                seq: 7,
                payload: Note("hello".to_string()),
            },
            Reliable::Ack { seq: 9 },
            Reliable::Nack { seq: 11 },
        ] {
            let el = rel.to_xml();
            assert_eq!(rel.wire_size(), el.to_xml_string().len());
            assert_eq!(Reliable::from_xml(&el).unwrap(), rel);
            let frame = rel.to_binary();
            assert_eq!(rel.binary_wire_size(), frame.len());
            assert_eq!(Reliable::from_binary(&frame).unwrap(), rel);
        }
    }

    #[test]
    fn malformed_envelopes_are_rejected() {
        let no_seq = XmlElement::new("rel-ack");
        assert!(Reliable::<Note>::from_xml(&no_seq).is_err());
        let bad_name = XmlElement::new("rel-what").with_attr("seq", "1");
        assert!(Reliable::<Note>::from_xml(&bad_name).is_err());
        let no_payload = XmlElement::new("rel-data").with_attr("seq", "1");
        assert!(Reliable::<Note>::from_xml(&no_payload).is_err());
        // [magic, len 2, tag 3, seq 1]: no such form.
        assert!(Reliable::<Note>::from_binary(&[0xB2, 2, 3, 1]).is_err());
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = policy(None);
        assert_eq!(p.interval(0), SimDuration::from_millis(100));
        assert_eq!(p.interval(1), SimDuration::from_millis(200));
        assert_eq!(p.interval(2), SimDuration::from_millis(400));
        assert_eq!(p.interval(3), SimDuration::from_millis(800));
        assert_eq!(p.interval(9), SimDuration::from_millis(800), "capped");
    }

    #[test]
    fn ack_stops_retransmission() {
        let mut q = RetransmitQueue::new(policy(None), 1);
        let t0 = SimTime::ZERO;
        let seq = q.send("m".to_string(), t0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.ack(seq), Some("m".to_string()));
        assert_eq!(q.ack(seq), None, "idempotent");
        let out = q.poll(SimTime::from_secs(100));
        assert!(out.retransmit.is_empty() && out.dead.is_empty());
    }

    #[test]
    fn unacked_payloads_retransmit_with_backoff() {
        let mut q = RetransmitQueue::new(policy(None), 1);
        let seq = q.send("m".to_string(), SimTime::ZERO);
        // Not yet due.
        assert!(q.poll(SimTime::from_millis(50)).retransmit.is_empty());
        // First retry at 100 ms.
        let out = q.poll(SimTime::from_millis(100));
        assert_eq!(out.retransmit, vec![(seq, "m".to_string())]);
        // Next due 200 ms later, not before.
        assert!(q.poll(SimTime::from_millis(250)).retransmit.is_empty());
        let out = q.poll(SimTime::from_millis(300));
        assert_eq!(out.retransmit.len(), 1);
    }

    #[test]
    fn budget_exhaustion_dead_letters() {
        let mut q = RetransmitQueue::new(policy(Some(2)), 1);
        let seq = q.send("m".to_string(), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        let mut retransmits = 0;
        let mut dead = Vec::new();
        for _ in 0..10 {
            now += SimDuration::from_secs(2);
            let out = q.poll(now);
            retransmits += out.retransmit.len();
            dead.extend(out.dead);
        }
        assert_eq!(retransmits, 2, "budget bounds retries");
        assert_eq!(dead, vec![(seq, "m".to_string())]);
        assert!(q.is_empty());
    }

    #[test]
    fn nack_dead_letters_immediately() {
        let mut q = RetransmitQueue::new(policy(None), 1);
        let seq = q.send("m".to_string(), SimTime::ZERO);
        assert_eq!(q.nack(seq), Some("m".to_string()));
        assert!(q.is_empty());
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let mut p = policy(None);
        p.jitter = 0.2;
        let mut a: RetransmitQueue<String> = RetransmitQueue::new(p.clone(), 42);
        let mut b: RetransmitQueue<String> = RetransmitQueue::new(p, 42);
        for _ in 0..100 {
            let ja = a.jittered(SimDuration::from_millis(1000));
            let jb = b.jittered(SimDuration::from_millis(1000));
            assert_eq!(ja, jb, "same seed, same schedule");
            assert!(ja >= SimDuration::from_millis(800));
            assert!(ja <= SimDuration::from_millis(1200));
        }
    }

    #[test]
    fn next_due_tracks_earliest_entry() {
        let mut q = RetransmitQueue::new(policy(None), 1);
        assert_eq!(q.next_due(), None);
        q.send("a".to_string(), SimTime::ZERO);
        q.send("b".to_string(), SimTime::from_millis(500));
        assert_eq!(q.next_due(), Some(SimTime::from_millis(100)));
        assert_eq!(
            q.oldest_age(SimTime::from_secs(1)),
            Some(SimDuration::from_secs(1))
        );
    }
}
