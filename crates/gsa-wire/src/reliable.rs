//! Reliable-delivery envelope and retransmission machinery.
//!
//! The paper commits to best-effort delivery (§6); this module supplies
//! the opt-in layer beneath it: a [`Reliable`] envelope that carries a
//! per-sender sequence number (or acknowledges a window of them), and a
//! [`RetransmitQueue`] — an outbox that retries every entry until it is
//! acknowledged, with exponential backoff and jitter, plus RACK fast
//! retransmit (RFC 8985) on acknowledgements, that any simulated actor
//! can embed.
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

/// A reliable-delivery envelope: either a sequenced payload or a
/// positive acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reliable<M> {
    /// A payload with the sender's sequence number.
    Data {
        /// Sender-local sequence number.
        seq: u64,
        /// The wrapped message.
        payload: M,
    },
    /// Positive acknowledgement of a window of 65 sequence numbers, as in
    /// an RFC 2018 selective ack: `seq`, and `seq + 1 + i` for every set
    /// bit `i` of `more` ([`acked_seqs`]). `more == 0` acknowledges `seq`
    /// alone.
    Ack {
        /// The first acknowledged sequence number.
        seq: u64,
        /// The numbers after `seq` that are acknowledged too, one bit each.
        more: u64,
    },
}

impl<M> Reliable<M> {
    /// The sequence number this envelope refers to.
    pub fn seq(&self) -> u64 {
        match self {
            Reliable::Data { seq, .. } | Reliable::Ack { seq, .. } => *seq,
        }
    }
}

/// The sequence numbers an `Ack { seq, more }` acknowledges, in
/// ascending order: `seq`, then `seq + 1 + i` for each set bit `i` of
/// `more`. A bit past `u64::MAX` names no number any sender used and is
/// skipped, so a hostile window cannot overflow.
pub fn acked_seqs(seq: u64, more: u64) -> impl Iterator<Item = u64> {
    let set = (0..64).filter(move |i| more >> i & 1 == 1);
    std::iter::once(seq).chain(set.filter_map(move |i| seq.checked_add(1 + i)))
}

/// Sorts `seqs` and packs them into the fewest `(seq, more)` ack
/// windows: each window starts at the lowest number not yet covered and
/// takes every number of the 64 after it. Duplicates cost nothing.
pub fn ack_windows(seqs: &mut [u64]) -> Vec<(u64, u64)> {
    seqs.sort_unstable();
    let mut windows: Vec<(u64, u64)> = Vec::new();
    for &seq in seqs.iter() {
        match windows.last_mut() {
            Some((first, more)) if seq - *first <= 64 => {
                // A repeat of `first` sets no bit.
                if let Some(bit) = (seq - *first).checked_sub(1) {
                    *more |= 1 << bit;
                }
            }
            _ => windows.push((seq, 0)),
        }
    }
    windows
}

/// The envelope's v2 tag bytes. v1 is `<rel-data seq="n">` around the
/// payload's element, or `<rel-ack seq="n">` with a `more` attribute on a
/// selective ack; v2 is the tag byte, a varint seq, and the payload's
/// own frame or, under tag 3, a varint `more`. A bare ack keeps tag 1,
/// so it is the frame it always was. Tag 2 and `rel-nack` were a
/// negative acknowledgement no node ever sent: both decode to an error.
const DATA_FORM: u8 = 0;
const ACK_FORM: u8 = 1;
const WINDOW_FORM: u8 = 3;

impl<M> Reliable<M> {
    fn form(&self) -> u8 {
        match self {
            Reliable::Data { .. } => DATA_FORM,
            Reliable::Ack { more: 0, .. } => ACK_FORM,
            Reliable::Ack { .. } => WINDOW_FORM,
        }
    }
}

impl<M: WireMessage> WireMessage for Reliable<M> {
    fn tag(&self) -> &'static str {
        match self {
            Reliable::Data { .. } => "rel-data",
            Reliable::Ack { .. } => "rel-ack",
        }
    }

    fn put_xml(&self, out: &mut impl XmlPut) {
        out.num_attr("seq", self.seq());
        match self {
            Reliable::Data { payload, .. } => out.child(payload.tag(), |el| payload.put_xml(el)),
            Reliable::Ack { more, .. } if *more != 0 => out.num_attr("more", *more),
            _ => {}
        }
    }

    fn from_xml(el: &XmlElement) -> Result<Self, WireError> {
        let number = |name: &str| {
            el.attr(name).map(|n| {
                n.parse::<u64>()
                    .map_err(|_| WireError::malformed(format!("reliable {name} is not a number")))
            })
        };
        let seq =
            number("seq").ok_or_else(|| WireError::malformed("reliable envelope lacks seq"))??;
        match el.name() {
            "rel-data" => match el.elements().next() {
                Some(inner) => Ok(Reliable::Data {
                    seq,
                    payload: M::from_xml(inner)?,
                }),
                None => Err(WireError::malformed("rel-data lacks a payload")),
            },
            "rel-ack" => Ok(Reliable::Ack {
                seq,
                more: number("more").unwrap_or(Ok(0))?,
            }),
            _ => Err(WireError::malformed("unknown reliable envelope form")),
        }
    }

    fn put_bin(&self, out: &mut impl ByteSink) {
        out.put_u8(self.form());
        write_varint(out, self.seq());
        match self {
            Reliable::Data { payload, .. } => payload.put_frame(out),
            Reliable::Ack { more, .. } if *more != 0 => write_varint(out, *more),
            _ => {}
        }
    }

    fn take_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let tag = r.read_u8()?;
        let seq = r.read_varint()?;
        match tag {
            DATA_FORM => Ok(Reliable::Data {
                seq,
                payload: r.read_frame(M::take_bin)?,
            }),
            ACK_FORM => Ok(Reliable::Ack { seq, more: 0 }),
            WINDOW_FORM => Ok(Reliable::Ack {
                seq,
                more: r.read_varint()?,
            }),
            _ => Err(WireError::malformed("unknown reliable envelope form")),
        }
    }
}

/// Retry parameters: exponential backoff from `base` by `multiplier` up
/// to `max_interval`, ± `jitter` (a fraction of the interval). There is
/// no attempt budget: an entry is retried until acknowledged, the §7
/// "delayed, not lost" regime.
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
struct InFlight<P, M> {
    peer: P,
    payload: M,
    first_sent: SimTime,
    attempts: u32,
    next_due: SimTime,
    /// Sent more than once, by either retransmission path: its ack no
    /// longer times one send (Karn's rule), and RACK leaves it to the
    /// backoff schedule.
    retransmitted: bool,
}

/// A retransmission queue with exponential backoff, jitter, and RACK
/// fast retransmit (RFC 8985). An entry leaves it only when acknowledged.
///
/// The queue never does I/O: the owner calls [`RetransmitQueue::send`]
/// when it first transmits a payload to a peer, [`RetransmitQueue::ack`]
/// on acknowledgements, and [`RetransmitQueue::poll`] from a periodic
/// timer, re-sending whatever the last two return. Determinism: jitter
/// is drawn from an internal xorshift seeded at construction.
#[derive(Debug, Clone)]
pub struct RetransmitQueue<P, M> {
    policy: RetryPolicy,
    /// By sequence number, which is issued in send order: the entries
    /// sent before a given time are a prefix.
    inflight: BTreeMap<u64, InFlight<P, M>>,
    next_seq: u64,
    rng_state: u64,
    /// The shortest send-to-ack time seen per peer, sampled from
    /// entries sent once only.
    min_rtt: BTreeMap<P, SimDuration>,
}

impl<P: Copy + Ord, M: Clone> RetransmitQueue<P, M> {
    /// Creates a queue with the given policy and jitter seed.
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        RetransmitQueue {
            policy,
            inflight: BTreeMap::new(),
            next_seq: 0,
            // xorshift state must be non-zero.
            rng_state: seed | 1,
            min_rtt: BTreeMap::new(),
        }
    }

    /// Number of unacknowledged payloads.
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// Whether everything sent has been acknowledged.
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Registers a payload the caller is transmitting to `peer` now
    /// (`now` never earlier than at the previous call); returns the
    /// sequence number to put in the [`Reliable::Data`] envelope.
    pub fn send(&mut self, peer: P, payload: M, now: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let delay = self.jittered(self.policy.interval(0));
        self.inflight.insert(
            seq,
            InFlight {
                peer,
                payload,
                first_sent: now,
                attempts: 0,
                next_due: now + delay,
                retransmitted: false,
            },
        );
        seq
    }

    /// `peer` acknowledges `seqs` at `now`; numbers it was never sent, or
    /// that were acknowledged already, are ignored. Returns what RACK
    /// then infers lost, for the caller to re-send to `peer` at once:
    /// every entry to `peer` sent once only and more than a reorder
    /// window before the newest entry just acknowledged, the window
    /// being a quarter of `peer`'s minimum round trip. A fast
    /// retransmission leaves the backoff schedule as it was.
    pub fn ack(
        &mut self,
        peer: P,
        seqs: impl IntoIterator<Item = u64>,
        now: SimTime,
    ) -> Vec<(u64, M)> {
        let mut newest = None;
        for seq in seqs {
            if self.inflight.get(&seq).is_none_or(|e| e.peer != peer) {
                continue;
            }
            let entry = self.inflight.remove(&seq).expect("entry checked above");
            if !entry.retransmitted {
                let rtt = now.since(entry.first_sent);
                let min_rtt = self.min_rtt.entry(peer).or_insert(rtt);
                *min_rtt = (*min_rtt).min(rtt);
            }
            newest = newest.max(Some(entry.first_sent));
        }
        let (Some(newest), Some(min_rtt)) = (newest, self.min_rtt.get(&peer)) else {
            return Vec::new();
        };
        let window = SimDuration::from_micros(min_rtt.as_micros() / 4);
        let mut lost = Vec::new();
        for (&seq, entry) in &mut self.inflight {
            if entry.first_sent + window >= newest {
                break;
            }
            if entry.peer == peer && !entry.retransmitted {
                entry.retransmitted = true;
                lost.push((seq, entry.payload.clone()));
            }
        }
        lost
    }

    /// Advances the queue to `now`: every due entry comes back as
    /// `(seq, peer, payload)` for the caller to re-send, its attempt
    /// counter bumped and its next deadline pushed out by the
    /// backed-off, jittered interval.
    pub fn poll(&mut self, now: SimTime) -> Vec<(u64, P, M)> {
        let due: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, e)| e.next_due <= now)
            .map(|(seq, _)| *seq)
            .collect();
        let mut out = Vec::with_capacity(due.len());
        for seq in due {
            let entry = self.inflight.get_mut(&seq).expect("due entry exists");
            entry.attempts += 1;
            entry.retransmitted = true;
            let attempts = entry.attempts;
            out.push((seq, entry.peer, entry.payload.clone()));
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

    /// 100 ms doubling to 800 ms, no jitter: the actors' schedule, five
    /// times faster and exact.
    fn policy() -> RetryPolicy {
        RetryPolicy {
            base: SimDuration::from_millis(100),
            multiplier: 2.0,
            max_interval: SimDuration::from_millis(800),
            jitter: 0.0,
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
            Reliable::Ack { seq: 9, more: 0 },
            Reliable::Ack {
                seq: 9,
                more: 0b1011,
            },
            Reliable::Ack {
                seq: u64::MAX,
                more: u64::MAX,
            },
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
        let bad_more = XmlElement::new("rel-ack")
            .with_attr("seq", "1")
            .with_attr("more", "x");
        assert!(Reliable::<Note>::from_xml(&bad_more).is_err());
        // [magic, len 2, tag 4, seq 1]: no such form.
        assert!(Reliable::<Note>::from_binary(&[0xB2, 2, 4, 1]).is_err());
        // [magic, len 2, tag 2, seq 1] and `rel-nack`: the retired nack.
        assert!(Reliable::<Note>::from_binary(&[0xB2, 2, 2, 1]).is_err());
        let nack = XmlElement::new("rel-nack").with_attr("seq", "1");
        assert!(Reliable::<Note>::from_xml(&nack).is_err());
        // [magic, len 2, tag 3, seq 1]: a selective ack without its window.
        assert!(Reliable::<Note>::from_binary(&[0xB2, 2, 3, 1]).is_err());
    }

    /// Any set of sequence numbers packs into windows that acknowledge
    /// exactly that set, across both wires, in the fewest frames.
    #[test]
    fn the_window_round_trips() {
        let sets: [&[u64]; 6] = [
            &[5],
            &[9, 3, 4, 3],
            &[0, 64],
            &[0, 65],
            &[1, 2, 3, 70, 71, 200, 264, 265],
            &[u64::MAX - 1, u64::MAX],
        ];
        for set in sets {
            let mut seqs = set.to_vec();
            let windows = ack_windows(&mut seqs);
            seqs.dedup();
            let mut acked = Vec::new();
            for (seq, more) in &windows {
                let ack = Reliable::<Note>::Ack {
                    seq: *seq,
                    more: *more,
                };
                assert_eq!(Reliable::from_binary(&ack.to_binary()).unwrap(), ack);
                assert_eq!(Reliable::from_xml(&ack.to_xml()).unwrap(), ack);
                acked.extend(acked_seqs(*seq, *more));
            }
            assert_eq!(acked, seqs, "{set:?}");
            let fewest = seqs.iter().fold((0, None), |(n, first), &seq| match first {
                Some(first) if seq - first <= 64 => (n, Some(first)),
                _ => (n + 1, Some(seq)),
            });
            assert_eq!(windows.len(), fewest.0, "{set:?}");
        }
        assert_eq!(ack_windows(&mut [0, 64]), vec![(0, 1 << 63)]);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = policy();
        assert_eq!(p.interval(0), SimDuration::from_millis(100));
        assert_eq!(p.interval(1), SimDuration::from_millis(200));
        assert_eq!(p.interval(2), SimDuration::from_millis(400));
        assert_eq!(p.interval(3), SimDuration::from_millis(800));
        assert_eq!(p.interval(9), SimDuration::from_millis(800), "capped");
    }

    /// The peer every test payload goes to, and one that it does not.
    const PEER: u8 = 1;
    const OTHER: u8 = 2;

    fn ms(millis: u64) -> SimTime {
        SimTime::from_millis(millis)
    }

    #[test]
    fn ack_stops_retransmission() {
        let mut q = RetransmitQueue::new(policy(), 1);
        let seq = q.send(PEER, "m".to_string(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        q.ack(OTHER, [seq], ms(1));
        assert_eq!(q.len(), 1, "only the peer it was sent to acknowledges it");
        q.ack(PEER, [seq], ms(1));
        assert!(q.is_empty());
        assert!(q.ack(PEER, [seq], ms(2)).is_empty(), "idempotent");
        assert!(q.poll(SimTime::from_secs(100)).is_empty());
    }

    #[test]
    fn unacked_payloads_retransmit_with_backoff() {
        let mut q = RetransmitQueue::new(policy(), 1);
        let seq = q.send(PEER, "m".to_string(), SimTime::ZERO);
        // Not yet due.
        assert!(q.poll(ms(50)).is_empty());
        // First retry at 100 ms.
        assert_eq!(q.poll(ms(100)), vec![(seq, PEER, "m".to_string())]);
        // Next due 200 ms later, not before.
        assert!(q.poll(ms(250)).is_empty());
        assert_eq!(q.poll(ms(300)).len(), 1);
    }

    /// Three frames to one peer 10 ms apart; the middle one's ack comes
    /// back after a 5 ms round trip, which proves the first lost.
    fn hole_at_the_front() -> (RetransmitQueue<u8, String>, Vec<(u64, String)>) {
        let mut q = RetransmitQueue::new(policy(), 1);
        for (at, payload) in [(0, "a"), (10, "b"), (20, "c")] {
            q.send(PEER, payload.to_string(), ms(at));
        }
        let lost = q.ack(PEER, [1], ms(15));
        (q, lost)
    }

    #[test]
    fn a_hole_is_resent_once_only() {
        let (mut q, lost) = hole_at_the_front();
        assert_eq!(lost, vec![(0, "a".to_string())]);
        // A later ack proves the same hole again: it is already re-sent.
        assert!(q.ack(PEER, [2], ms(25)).is_empty());
        assert_eq!(q.len(), 1);
    }

    /// A fast retransmission is not a backoff step: the entry is still
    /// due at its first deadline, and the one after that is the first
    /// backed-off interval, not the second.
    #[test]
    fn a_fast_retransmit_leaves_the_rto_schedule_untouched() {
        let (mut q, lost) = hole_at_the_front();
        assert_eq!(lost.len(), 1);
        q.ack(PEER, [2], ms(25));
        assert!(q.poll(ms(99)).is_empty());
        assert_eq!(q.poll(ms(100)), vec![(0, PEER, "a".to_string())]);
        assert!(q.poll(ms(299)).is_empty());
        assert_eq!(q.poll(ms(300)).len(), 1);
    }

    /// Karn's rule: the ack of an entry sent twice times neither send,
    /// so it gives no round-trip sample; nor does RACK re-send an entry
    /// the backoff schedule already re-sent.
    #[test]
    fn retransmitted_entries_give_no_rtt_sample() {
        let mut q = RetransmitQueue::new(policy(), 1);
        q.send(PEER, "a".to_string(), SimTime::ZERO);
        q.send(PEER, "b".to_string(), ms(1));
        assert_eq!(q.poll(ms(100)).len(), 1);
        q.send(PEER, "c".to_string(), ms(100));
        assert!(q.ack(PEER, [0], ms(102)).is_empty());
        assert_eq!(q.min_rtt.get(&PEER), None);
        // `b` was sent once; `c`'s ack samples 4 ms and proves it lost.
        assert_eq!(q.ack(PEER, [2], ms(104)), vec![(1, "b".to_string())]);
        assert_eq!(q.min_rtt.get(&PEER), Some(&SimDuration::from_millis(4)));
    }

    /// Frames sent less than a quarter of the minimum round trip before
    /// the acknowledged one may just be reordered: they are left alone,
    /// and so is everything sent to another peer.
    #[test]
    fn nothing_sent_inside_the_reorder_window_is_resent() {
        // A 40 ms round trip makes a 10 ms window.
        let mut q = RetransmitQueue::new(policy(), 1);
        q.send(PEER, "inside".to_string(), ms(0));
        q.send(OTHER, "elsewhere".to_string(), ms(0));
        q.send(PEER, "acked".to_string(), ms(10));
        assert!(q.ack(PEER, [2], ms(50)).is_empty());
        // One more microsecond and the first is outside it.
        let mut q = RetransmitQueue::new(policy(), 1);
        q.send(PEER, "outside".to_string(), ms(0));
        q.send(OTHER, "elsewhere".to_string(), ms(0));
        q.send(PEER, "acked".to_string(), SimTime::from_micros(10_001));
        let lost = q.ack(PEER, [2], SimTime::from_micros(50_001));
        assert_eq!(lost, vec![(0, "outside".to_string())]);
    }

    /// An entry is retried until it is acknowledged, however long that
    /// takes: the queue has no budget to run out of.
    #[test]
    fn an_unacknowledged_entry_is_retried_for_ever() {
        let mut q = RetransmitQueue::new(policy(), 1);
        let seq = q.send(PEER, "m".to_string(), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for _ in 0..50 {
            now += SimDuration::from_secs(1);
            assert_eq!(q.poll(now), vec![(seq, PEER, "m".to_string())]);
        }
        q.ack(PEER, [seq], now);
        assert!(q.is_empty());
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let mut p = policy();
        p.jitter = 0.2;
        let mut a: RetransmitQueue<u8, String> = RetransmitQueue::new(p.clone(), 42);
        let mut b: RetransmitQueue<u8, String> = RetransmitQueue::new(p, 42);
        for _ in 0..100 {
            let ja = a.jittered(SimDuration::from_millis(1000));
            let jb = b.jittered(SimDuration::from_millis(1000));
            assert_eq!(ja, jb, "same seed, same schedule");
            assert!(ja >= SimDuration::from_millis(800));
            assert!(ja <= SimDuration::from_millis(1200));
        }
    }
}
