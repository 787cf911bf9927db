//! Reliable-delivery envelope and retransmission machinery.
//!
//! The paper commits to best-effort delivery (§6); this module supplies
//! the opt-in layer beneath it: a [`Reliable`] envelope that carries a
//! per-sender sequence number (or acknowledges a window of them), and a
//! [`RetransmitQueue`] — an outbox that retries every entry until it is
//! acknowledged, with exponential backoff and jitter under RACK-TLP
//! loss detection (RFC 8985), that any simulated actor can embed.
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
use std::collections::{BTreeMap, BTreeSet};

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

/// How long a receiver holds the sequence numbers that arrived on an
/// edge before acknowledging them in one frame. A burst flushed in one
/// instant lands within the link's jitter, so half a millisecond still
/// acknowledges it together. The sender's tail probe waits out this hold
/// once, as RFC 9002 §6.2.1 adds the peer's maximum ack delay to the
/// probe timeout: the receiver and the sender's probe read this one
/// constant.
pub const ACK_DELAY: SimDuration = SimDuration::from_micros(500);

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

/// Why [`RetransmitQueue::poll`] hands an entry back for re-sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resend {
    /// RACK proved it lost: an entry sent after it was acknowledged,
    /// and its reorder window has passed.
    Lost,
    /// The tail loss probe: it is its peer's newest unacknowledged
    /// entry, and no ack came for it within the probe timeout.
    Probe,
    /// Its backoff deadline passed.
    Timeout,
}

/// One in-flight entry awaiting acknowledgement.
#[derive(Debug, Clone)]
struct InFlight<P, M> {
    peer: P,
    payload: M,
    /// When it was last sent, by any path: with its sequence number,
    /// the entry's place in its peer's send order.
    last_sent: SimTime,
    attempts: u32,
    next_due: SimTime,
    /// Sent more than once, by any path: its ack no longer times one
    /// send (Karn's rule).
    retransmitted: bool,
}

/// A place in the send order: (last send, sequence number), the order
/// RFC 8985 compares transmissions in.
type Sent = (SimTime, u64);

/// The RACK-TLP state the queue keeps for one peer.
#[derive(Debug, Clone, Default)]
struct Peer {
    /// The peer's unacknowledged entries, in send order.
    order: BTreeSet<Sent>,
    /// The shortest send-to-ack time seen, sampled from entries sent
    /// once only.
    min_rtt: Option<SimDuration>,
    /// The newest acknowledged entry in send order, and the round trip
    /// its ack measured.
    rack: Option<(Sent, SimDuration)>,
    /// The tail probe may fire: set by a send or an ack, spent by a
    /// probe.
    probe_armed: bool,
}

impl Peer {
    /// When the oldest entry sent before the RACK entry is proved lost:
    /// its last send plus the RACK round trip plus the reorder window,
    /// a quarter of the minimum round trip.
    fn reorder_deadline(&self) -> Option<SimTime> {
        let (rack, rtt) = self.rack?;
        let window = quarter(self.min_rtt?);
        let &(sent, seq) = self.order.first()?;
        ((sent, seq) < rack).then_some(sent + rtt + window)
    }

    /// When the newest unacknowledged entry is probed: its last send
    /// plus the minimum round trip, the receiver's ack hold
    /// ([`ACK_DELAY`]) and the reorder window.
    fn probe_deadline(&self) -> Option<SimTime> {
        if !self.probe_armed {
            return None;
        }
        let min_rtt = self.min_rtt?;
        let &(sent, _) = self.order.last()?;
        Some(sent + min_rtt + ACK_DELAY + quarter(min_rtt))
    }
}

fn quarter(d: SimDuration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() / 4)
}

/// A retransmission queue with RACK-TLP loss detection (RFC 8985) on
/// top of exponential backoff with jitter. An entry leaves it only when
/// acknowledged, or cancelled by its owner.
///
/// Per peer, the queue orders unacknowledged entries by their last send
/// and sequence number. The newest acknowledged entry in that order,
/// and the round trip its ack measured, prove lost every entry ordered
/// before it, re-sent ones included, once that entry's last send plus
/// the round trip plus a reorder window (a quarter of the peer's
/// minimum round trip) has passed. The newest entry has nothing after
/// it to prove it lost: it is probed, re-sent once, when no ack came
/// for it a probe timeout (the minimum round trip, the receiver's ack
/// hold and the window) after its last send. A peer without a round-trip sample is
/// never probed. Neither path touches an entry's backoff schedule.
///
/// The queue never does I/O: the owner calls [`RetransmitQueue::send`]
/// when it first transmits a payload to a peer, [`RetransmitQueue::ack`]
/// on acknowledgements, and [`RetransmitQueue::poll`] at
/// [`RetransmitQueue::next_deadline`], re-sending whatever the last two
/// return. Determinism: jitter is drawn from an internal xorshift
/// seeded at construction.
#[derive(Debug, Clone)]
pub struct RetransmitQueue<P, M> {
    policy: RetryPolicy,
    inflight: BTreeMap<u64, InFlight<P, M>>,
    /// Every entry's backoff deadline, earliest first.
    due: BTreeSet<(SimTime, u64)>,
    peers: BTreeMap<P, Peer>,
    next_seq: u64,
    rng_state: u64,
}

impl<P: Clone + Ord, M: Clone> RetransmitQueue<P, M> {
    /// Creates a queue with the given policy and jitter seed.
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        RetransmitQueue {
            policy,
            inflight: BTreeMap::new(),
            due: BTreeSet::new(),
            peers: BTreeMap::new(),
            next_seq: 0,
            // xorshift state must be non-zero.
            rng_state: seed | 1,
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
        let next_due = now + self.jittered(self.policy.interval(0));
        self.due.insert((next_due, seq));
        let state = self.peers.entry(peer.clone()).or_default();
        state.order.insert((now, seq));
        state.probe_armed = true;
        self.inflight.insert(
            seq,
            InFlight {
                peer,
                payload,
                last_sent: now,
                attempts: 0,
                next_due,
                retransmitted: false,
            },
        );
        seq
    }

    /// `peer` acknowledges `seqs` at `now`; numbers it was never sent, or
    /// that were acknowledged already, are ignored. Returns what RACK
    /// then proves lost, for the caller to re-send to `peer` at once.
    /// An acknowledged entry, re-sent or not, becomes the RACK entry
    /// when it is newer in send order than the last one; only an entry
    /// sent once gives a round-trip sample (Karn's rule). Any ack
    /// re-arms the peer's tail probe.
    pub fn ack(
        &mut self,
        peer: P,
        seqs: impl IntoIterator<Item = u64>,
        now: SimTime,
    ) -> Vec<(u64, M)> {
        let mut acked = false;
        for seq in seqs {
            if self.inflight.get(&seq).is_none_or(|e| e.peer != peer) {
                continue;
            }
            let entry = self.remove(seq);
            let state = self.peers.get_mut(&peer).expect("a peer with an entry");
            let sent = (entry.last_sent, seq);
            acked = true;
            let rtt = now.since(entry.last_sent);
            if !entry.retransmitted {
                state.min_rtt = Some(state.min_rtt.map_or(rtt, |m| m.min(rtt)));
            }
            if state.rack.is_none_or(|(rack, _)| sent > rack) {
                state.rack = Some((sent, rtt));
            }
        }
        if !acked {
            return Vec::new();
        }
        self.peers.get_mut(&peer).expect("acked above").probe_armed = true;
        self.detect_lost(&peer, now)
    }

    /// The unacknowledged entries in sequence order, each as its peer
    /// and payload.
    pub fn iter(&self) -> impl Iterator<Item = (&P, &M)> {
        self.inflight.values().map(|e| (&e.peer, &e.payload))
    }

    /// Drops every unacknowledged entry `f` selects, for an owner whose
    /// later operation supersedes it: it is never re-sent, and nothing
    /// about its peer's round trips is learnt from it.
    pub fn cancel(&mut self, mut f: impl FnMut(&P, &M) -> bool) {
        let gone: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, e)| f(&e.peer, &e.payload))
            .map(|(&seq, _)| seq)
            .collect();
        for seq in gone {
            self.remove(seq);
        }
    }

    /// Takes entry `seq` out of the queue and both of its orders.
    fn remove(&mut self, seq: u64) -> InFlight<P, M> {
        let entry = self.inflight.remove(&seq).expect("a queued entry");
        self.due.remove(&(entry.next_due, seq));
        let state = self.peers.get_mut(&entry.peer).expect("a peer with an entry");
        state.order.remove(&(entry.last_sent, seq));
        entry
    }

    /// RACK on one peer at `now`: every entry whose reorder deadline has
    /// passed is marked re-sent, moved to the back of the send order and
    /// returned.
    fn detect_lost(&mut self, peer: &P, now: SimTime) -> Vec<(u64, M)> {
        let state = self.peers.get_mut(peer).expect("a known peer");
        let mut lost = Vec::new();
        while state.reorder_deadline().is_some_and(|at| at <= now) {
            let (_, seq) = state.order.pop_first().expect("a deadline has an entry");
            let entry = self.inflight.get_mut(&seq).expect("ordered entry exists");
            entry.retransmitted = true;
            entry.last_sent = now;
            lost.push((seq, entry.payload.clone()));
        }
        state.order.extend(lost.iter().map(|(seq, _)| (now, *seq)));
        lost
    }

    /// The earliest time at which [`RetransmitQueue::poll`] has work: a
    /// reorder window expiring, a tail probe, or a backoff step. `None`
    /// when nothing is in flight. Costs one look per peer, not per
    /// entry.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let backoff = self.due.first().map(|&(at, _)| at);
        self.peers
            .values()
            .flat_map(|p| [p.reorder_deadline(), p.probe_deadline()])
            .chain([backoff])
            .flatten()
            .min()
    }

    /// Advances the queue to `now`: every entry due comes back as
    /// `(seq, peer, payload, why)` for the caller to re-send. A backoff
    /// step bumps the entry's attempt counter and pushes its deadline
    /// out by the backed-off, jittered interval; RACK and the probe
    /// leave that schedule as it was. Backoff runs first, so an entry
    /// it re-sends is neither lost nor probed in the same call.
    pub fn poll(&mut self, now: SimTime) -> Vec<(u64, P, M, Resend)> {
        let mut out = Vec::new();
        while let Some(&(at, seq)) = self.due.first() {
            if at > now {
                break;
            }
            self.due.pop_first();
            let entry = self.inflight.get_mut(&seq).expect("due entry exists");
            entry.attempts += 1;
            let attempts = entry.attempts;
            out.push((seq, entry.peer.clone(), entry.payload.clone(), Resend::Timeout));
            self.resent(seq, now);
            let next_due = now + self.jittered(self.policy.interval(attempts));
            self.inflight.get_mut(&seq).expect("due entry exists").next_due = next_due;
            self.due.insert((next_due, seq));
        }
        let peers: Vec<P> = self.peers.keys().cloned().collect();
        for peer in peers {
            for (seq, payload) in self.detect_lost(&peer, now) {
                out.push((seq, peer.clone(), payload, Resend::Lost));
            }
            let state = self.peers.get_mut(&peer).expect("a known peer");
            if state.probe_deadline().is_some_and(|at| at <= now) {
                state.probe_armed = false;
                let &(_, seq) = state.order.last().expect("a deadline has an entry");
                let payload = self.inflight[&seq].payload.clone();
                out.push((seq, peer.clone(), payload, Resend::Probe));
                self.resent(seq, now);
            }
        }
        out
    }

    /// Records that entry `seq` was re-sent at `now`: Karn's rule, and
    /// its new place at the back of its peer's send order.
    fn resent(&mut self, seq: u64, now: SimTime) {
        let entry = self.inflight.get_mut(&seq).expect("re-sent entry exists");
        let state = self.peers.get_mut(&entry.peer).expect("a peer with an entry");
        state.order.remove(&(entry.last_sent, seq));
        state.order.insert((now, seq));
        entry.last_sent = now;
        entry.retransmitted = true;
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
    use gsa_types::HostName;
    use proptest::prelude::*;
    use std::fmt;

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
        assert_eq!(q.next_deadline(), None);
    }

    #[test]
    fn unacked_payloads_retransmit_with_backoff() {
        let mut q = RetransmitQueue::new(policy(), 1);
        let seq = q.send(PEER, "m".to_string(), SimTime::ZERO);
        // Not yet due.
        assert!(q.poll(ms(50)).is_empty());
        // First retry at 100 ms.
        assert_eq!(q.poll(ms(100)), vec![(seq, PEER, "m".to_string(), Resend::Timeout)]);
        // Next due 200 ms later, not before.
        assert!(q.poll(ms(250)).is_empty());
        assert_eq!(q.poll(ms(300)).len(), 1);
    }

    fn us(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    fn min_rtt(q: &RetransmitQueue<u8, String>) -> Option<SimDuration> {
        q.peers.get(&PEER).and_then(|p| p.min_rtt)
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

    /// A re-sent hole takes its place at the back of the send order: a
    /// later ack proves it lost again only for a frame sent after the
    /// retransmission, once the retransmission's round trip plus the
    /// window has passed.
    #[test]
    fn a_hole_is_resent_again_once_its_retransmission_is_overdue() {
        let (mut q, lost) = hole_at_the_front();
        assert_eq!(lost, vec![(0, "a".to_string())]);
        // `c` was sent at 20, after the re-send at 15, and acked at 25
        // (5 ms): the re-send was due back by 15 + 5 + 1.25 ms.
        assert_eq!(q.ack(PEER, [2], ms(25)), vec![(0, "a".to_string())]);
        assert_eq!(q.len(), 1);
        // The ack of a frame sent before the re-send proves nothing
        // about it.
        let mut q = RetransmitQueue::new(policy(), 1);
        for (at, payload) in [(0, "a"), (10, "b"), (12, "c")] {
            q.send(PEER, payload.to_string(), ms(at));
        }
        assert_eq!(q.ack(PEER, [1], ms(15)).len(), 1);
        assert!(q.ack(PEER, [2], ms(17)).is_empty());
    }

    /// Frames sent in the same instant are ordered by sequence number: a
    /// hole among them is proved lost when its own last send plus the
    /// round trip plus the window has passed, through the deadline,
    /// with no later frame to wait for.
    #[test]
    fn a_hole_in_a_same_instant_burst_is_found_through_the_deadline() {
        let mut q = RetransmitQueue::new(policy(), 1);
        for payload in ["a", "b", "c"] {
            q.send(PEER, payload.to_string(), ms(0));
        }
        assert!(q.ack(PEER, [1, 2], ms(5)).is_empty());
        assert_eq!(q.next_deadline(), Some(us(6_250)));
        assert!(q.poll(us(6_249)).is_empty());
        assert_eq!(
            q.poll(us(6_250)),
            vec![(0, PEER, "a".to_string(), Resend::Lost)]
        );
    }

    /// A fast retransmission that is lost too is proved lost again, by
    /// the ack of a frame sent after it, instead of waiting for the
    /// backoff.
    #[test]
    fn a_lost_fast_retransmission_is_found_again() {
        let mut q = RetransmitQueue::new(policy(), 1);
        q.send(PEER, "a".to_string(), ms(0));
        q.send(PEER, "b".to_string(), ms(0));
        assert!(q.ack(PEER, [1], ms(5)).is_empty());
        let lost = vec![(0, PEER, "a".to_string(), Resend::Lost)];
        assert_eq!(q.poll(us(6_250)), lost);
        // The re-send is lost; `c`, sent after it, is acked.
        q.send(PEER, "c".to_string(), ms(7));
        assert!(q.ack(PEER, [2], ms(12)).is_empty());
        assert_eq!(q.next_deadline(), Some(us(12_500)));
        assert_eq!(q.poll(us(12_500)), lost);
    }

    /// The newest frame has nothing sent after it to prove it lost: it
    /// is probed once, the minimum round trip plus the ack hold plus the
    /// window after its last send — not before, not when it is acked,
    /// and not on a link without a round-trip sample.
    #[test]
    fn the_tail_probe_fires_exactly_once() {
        let mut q = RetransmitQueue::new(policy(), 1);
        q.send(PEER, "unsampled".to_string(), ms(0));
        assert_eq!(q.next_deadline(), Some(ms(100)), "no sample, no probe");
        assert!(q.ack(PEER, [0], ms(4)).is_empty());
        // A 4 ms round trip makes a 4 + 0.5 + 1 ms probe timeout.
        q.send(PEER, "acked".to_string(), ms(10));
        assert_eq!(q.next_deadline(), Some(us(15_500)));
        assert!(q.ack(PEER, [1], ms(14)).is_empty());
        assert_eq!(q.next_deadline(), None, "an acked tail is not probed");
        q.send(PEER, "tail".to_string(), ms(20));
        assert!(q.poll(us(25_499)).is_empty());
        assert_eq!(
            q.poll(us(25_500)),
            vec![(2, PEER, "tail".to_string(), Resend::Probe)]
        );
        assert_eq!(q.next_deadline(), Some(ms(120)), "one probe only");
        assert!(q.poll(us(119_999)).is_empty());
    }

    /// The probe timeout is one round trip, the receiver's ack hold and
    /// the reorder window, whatever the round trip: a calm ack, held
    /// [`ACK_DELAY`] at most, is back before it.
    #[test]
    fn the_probe_waits_a_round_trip_the_ack_hold_and_the_window() {
        for rtt_us in [1_000, 2_200, 4_000, 40_000] {
            let rtt = SimDuration::from_micros(rtt_us);
            let mut q = RetransmitQueue::new(policy(), 1);
            q.send(PEER, "sample".to_string(), ms(0));
            q.ack(PEER, [0], SimTime::ZERO + rtt);
            let sent = ms(200);
            q.send(PEER, "tail".to_string(), sent);
            let at = sent + rtt + ACK_DELAY + SimDuration::from_micros(rtt_us / 4);
            assert_eq!(q.next_deadline(), Some(at), "{rtt}");
            let calm_ack = sent + rtt + ACK_DELAY;
            assert!(
                q.poll(calm_ack).is_empty(),
                "{rtt}: a calm ack is not overdue"
            );
            assert_eq!(q.poll(at)[0].3, Resend::Probe, "{rtt}");
        }
    }

    /// The queue's one deadline is the earliest of its three clocks.
    #[test]
    fn the_next_deadline_is_the_earliest_of_reorder_probe_and_backoff() {
        let mut q = RetransmitQueue::new(policy(), 1);
        assert_eq!(q.next_deadline(), None);
        q.send(PEER, "sample".to_string(), ms(0));
        q.ack(PEER, [0], ms(4));
        q.send(PEER, "a".to_string(), ms(10));
        q.send(PEER, "b".to_string(), ms(10));
        assert!(q.ack(PEER, [2], ms(14)).is_empty());
        // Reorder at 10 + 4 + 1, before the probe at 10 + 5.5.
        assert_eq!(q.next_deadline(), Some(ms(15)));
        assert_eq!(q.poll(ms(15)).len(), 1);
        // The probe of the re-send at 15 + 5.5.
        assert_eq!(q.next_deadline(), Some(us(20_500)));
        assert_eq!(q.poll(us(20_500)).len(), 1);
        // The backoff step of `a`, sent at 10.
        assert_eq!(q.next_deadline(), Some(ms(110)));
        assert_eq!(q.poll(ms(110))[0].3, Resend::Timeout);
    }

    /// A fast retransmission is not a backoff step: the entry is still
    /// due at its first deadline, and the one after that is the first
    /// backed-off interval, not the second.
    #[test]
    fn a_fast_retransmit_leaves_the_rto_schedule_untouched() {
        let (mut q, lost) = hole_at_the_front();
        assert_eq!(lost.len(), 1);
        q.ack(PEER, [2], ms(25));
        // Re-sent twice by RACK, then probed once; the backoff is as it
        // was.
        assert_eq!(q.poll(ms(99))[0].3, Resend::Probe);
        assert_eq!(
            q.poll(ms(100)),
            vec![(0, PEER, "a".to_string(), Resend::Timeout)]
        );
        assert!(q.poll(ms(299)).is_empty());
        assert_eq!(q.poll(ms(300)).len(), 1);
    }

    /// Karn's rule: the ack of an entry sent twice times neither send,
    /// so it gives no round-trip sample.
    #[test]
    fn retransmitted_entries_give_no_rtt_sample() {
        let mut q = RetransmitQueue::new(policy(), 1);
        q.send(PEER, "a".to_string(), SimTime::ZERO);
        q.send(PEER, "b".to_string(), ms(1));
        assert_eq!(q.poll(ms(100)).len(), 1);
        q.send(PEER, "c".to_string(), ms(100));
        assert!(q.ack(PEER, [0], ms(102)).is_empty());
        assert_eq!(min_rtt(&q), None);
        // `b` was sent once; `c`'s ack samples 4 ms and proves it lost.
        assert_eq!(q.ack(PEER, [2], ms(104)), vec![(1, "b".to_string())]);
        assert_eq!(min_rtt(&q), Some(SimDuration::from_millis(4)));
    }

    /// The reorder window runs from an entry's own last send: a frame
    /// sent shortly before the acknowledged one is not lost at the ack,
    /// only when its window has passed; a re-sent one counts from the
    /// re-send. Frames to another peer are left alone.
    #[test]
    fn nothing_sent_inside_the_reorder_window_is_resent() {
        // A 40 ms round trip makes a 10 ms window.
        let mut q = RetransmitQueue::new(policy(), 1);
        q.send(PEER, "inside".to_string(), ms(5));
        q.send(OTHER, "elsewhere".to_string(), ms(5));
        q.send(PEER, "acked".to_string(), ms(10));
        assert!(q.ack(PEER, [2], ms(50)).is_empty());
        assert!(q.poll(us(54_999)).is_empty());
        let lost = vec![(0, PEER, "inside".to_string(), Resend::Lost)];
        assert_eq!(q.poll(ms(55)), lost);
        // Re-sent by the backoff at 100, it is due back by 150, not 55.
        let mut q = RetransmitQueue::new(policy(), 1);
        q.send(PEER, "inside".to_string(), ms(0));
        assert_eq!(q.poll(ms(100)).len(), 1);
        q.send(PEER, "acked".to_string(), ms(101));
        assert!(q.ack(PEER, [1], ms(141)).is_empty());
        assert!(q.poll(us(149_999)).is_empty());
        assert_eq!(q.poll(ms(150))[0].3, Resend::Lost);
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
            assert_eq!(q.poll(now), vec![(seq, PEER, "m".to_string(), Resend::Timeout)]);
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

    /// RFC 8985 RACK-TLP and the backoff, written out literally over a
    /// `Vec` of entries with linear scans: the model
    /// [`RetransmitQueue`] is checked against. Jitter is left out (the
    /// checked policies have none), and so is the RFC's check that
    /// ignores a re-sent entry acknowledged within `min_rtt` of its
    /// re-send, which the queue leaves out on purpose: a re-sent entry's
    /// ack still advances the RACK entry.
    #[derive(Debug)]
    struct ReferenceQueue<P> {
        policy: RetryPolicy,
        entries: Vec<RefEntry<P>>,
        peers: Vec<RefPeer<P>>,
        next_seq: u64,
    }

    #[derive(Debug)]
    struct RefEntry<P> {
        seq: u64,
        peer: P,
        payload: u8,
        last_sent: SimTime,
        retransmits: u32,
        next_due: SimTime,
        retransmitted: bool,
    }

    #[derive(Debug)]
    struct RefPeer<P> {
        peer: P,
        min_rtt: Option<SimDuration>,
        /// RACK.xmit_ts, RACK.seq and RACK.rtt.
        rack: Option<(SimTime, u64, SimDuration)>,
        probe_armed: bool,
    }

    impl<P: Clone + Ord + fmt::Debug> ReferenceQueue<P> {
        fn new(policy: RetryPolicy) -> Self {
            ReferenceQueue {
                policy,
                entries: Vec::new(),
                peers: Vec::new(),
                next_seq: 0,
            }
        }

        /// `base · multiplierⁿ`, capped, one step at a time.
        fn backoff(&self, n: u32) -> SimDuration {
            let max = self.policy.max_interval.as_micros() as f64;
            let mut interval = (self.policy.base.as_micros() as f64).min(max);
            for _ in 0..n {
                interval = (interval * self.policy.multiplier).min(max);
            }
            SimDuration::from_micros(interval as u64)
        }

        fn peer(&mut self, peer: &P) -> &mut RefPeer<P> {
            if !self.peers.iter().any(|p| &p.peer == peer) {
                self.peers.push(RefPeer {
                    peer: peer.clone(),
                    min_rtt: None,
                    rack: None,
                    probe_armed: false,
                });
            }
            self.peers.iter_mut().find(|p| &p.peer == peer).unwrap()
        }

        fn send(&mut self, peer: &P, payload: u8, now: SimTime) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            let next_due = now + self.backoff(0);
            self.entries.push(RefEntry {
                seq,
                peer: peer.clone(),
                payload,
                last_sent: now,
                retransmits: 0,
                next_due,
                retransmitted: false,
            });
            // TLP: a new transmission arms the probe.
            self.peer(peer).probe_armed = true;
            seq
        }

        /// RFC 8985 §6.2 steps 1-2 per acknowledged entry, then step 5.
        fn ack(&mut self, peer: &P, seqs: &[u64], now: SimTime) -> Vec<u64> {
            let mut acked = false;
            for &seq in seqs {
                let Some(i) = self.entries.iter().position(|e| e.seq == seq && &e.peer == peer) else {
                    continue;
                };
                let e = self.entries.remove(i);
                acked = true;
                let rtt = now.since(e.last_sent);
                let state = self.peer(peer);
                // Karn: only an entry sent once times a round trip.
                if !e.retransmitted {
                    state.min_rtt = Some(match state.min_rtt {
                        Some(m) if m < rtt => m,
                        _ => rtt,
                    });
                }
                // RACK.segment: the most recently sent acknowledged one.
                let newer = match state.rack {
                    None => true,
                    Some((t, s, _)) => e.last_sent > t || (e.last_sent == t && seq > s),
                };
                if newer {
                    state.rack = Some((e.last_sent, seq, rtt));
                }
            }
            if !acked {
                return Vec::new();
            }
            self.peer(peer).probe_armed = true;
            self.detect_lost(peer, now)
        }

        /// RFC 8985 §6.2 step 5: an entry sent before the RACK entry is
        /// lost once its send + RACK.rtt + RACK.reo_wnd has passed, with
        /// reo_wnd = min_rtt / 4. Lost entries are re-sent now.
        fn detect_lost(&mut self, peer: &P, now: SimTime) -> Vec<u64> {
            let state = self.peer(peer);
            let (Some((rack_sent, rack_seq, rtt)), Some(min_rtt)) = (state.rack, state.min_rtt)
            else {
                return Vec::new();
            };
            let reo_wnd = SimDuration::from_micros(min_rtt.as_micros() / 4);
            let mut lost: Vec<(SimTime, u64)> = Vec::new();
            for e in &self.entries {
                let before = e.last_sent < rack_sent || (e.last_sent == rack_sent && e.seq < rack_seq);
                if &e.peer == peer && before && e.last_sent + rtt + reo_wnd <= now {
                    lost.push((e.last_sent, e.seq));
                }
            }
            lost.sort();
            for &(_, seq) in &lost {
                let e = self.entries.iter_mut().find(|e| e.seq == seq).unwrap();
                e.last_sent = now;
                e.retransmitted = true;
            }
            lost.into_iter().map(|(_, seq)| seq).collect()
        }

        /// The peer's newest unacknowledged entry, by (send, seq).
        fn newest(&self, peer: &P) -> Option<&RefEntry<P>> {
            self.entries
                .iter()
                .filter(|e| &e.peer == peer)
                .max_by_key(|e| (e.last_sent, e.seq))
        }

        /// TLP: PTO = min_rtt + the receiver's ack hold + reo_wnd after
        /// the newest entry's send, while the probe is armed.
        fn probe_deadline(&self, peer: &P) -> Option<SimTime> {
            let state = self.peers.iter().find(|p| &p.peer == peer)?;
            let min_rtt = state.min_rtt.filter(|_| state.probe_armed)?;
            let pto = min_rtt + ACK_DELAY + SimDuration::from_micros(min_rtt.as_micros() / 4);
            Some(self.newest(peer)?.last_sent + pto)
        }

        fn reorder_deadline(&self, peer: &P) -> Option<SimTime> {
            let state = self.peers.iter().find(|p| &p.peer == peer)?;
            let (rack_sent, rack_seq, rtt) = state.rack?;
            let reo_wnd = SimDuration::from_micros(state.min_rtt?.as_micros() / 4);
            self.entries
                .iter()
                .filter(|e| &e.peer == peer)
                .filter(|e| e.last_sent < rack_sent || (e.last_sent == rack_sent && e.seq < rack_seq))
                .map(|e| e.last_sent + rtt + reo_wnd)
                .min()
        }

        fn next_deadline(&self) -> Option<SimTime> {
            let mut at: Vec<SimTime> = self.entries.iter().map(|e| e.next_due).collect();
            for p in &self.peers {
                at.extend(self.reorder_deadline(&p.peer));
                at.extend(self.probe_deadline(&p.peer));
            }
            at.into_iter().min()
        }

        /// Backoff first, earliest deadline first; then per peer in
        /// order, RACK and the probe.
        fn poll(&mut self, now: SimTime) -> Vec<(u64, P, Resend)> {
            let mut out = Vec::new();
            let mut due: Vec<(SimTime, u64)> = self
                .entries
                .iter()
                .filter(|e| e.next_due <= now)
                .map(|e| (e.next_due, e.seq))
                .collect();
            due.sort();
            for (_, seq) in due {
                let i = self.entries.iter().position(|e| e.seq == seq).unwrap();
                let retransmits = self.entries[i].retransmits + 1;
                let next_due = now + self.backoff(retransmits);
                let e = &mut self.entries[i];
                e.retransmits = retransmits;
                e.next_due = next_due;
                e.last_sent = now;
                e.retransmitted = true;
                out.push((seq, e.peer.clone(), Resend::Timeout));
            }
            let mut peers: Vec<P> = self.peers.iter().map(|p| p.peer.clone()).collect();
            peers.sort();
            for peer in peers {
                for seq in self.detect_lost(&peer, now) {
                    out.push((seq, peer.clone(), Resend::Lost));
                }
                if self.probe_deadline(&peer).is_some_and(|at| at <= now) {
                    self.peer(&peer).probe_armed = false;
                    let seq = self.newest(&peer).unwrap().seq;
                    let e = self.entries.iter_mut().find(|e| e.seq == seq).unwrap();
                    e.last_sent = now;
                    e.retransmitted = true;
                    out.push((seq, peer.clone(), Resend::Probe));
                }
            }
            out
        }

        fn cancel(&mut self, peer: &P, payload: u8) {
            self.entries.retain(|e| !(&e.peer == peer && e.payload == payload));
        }
    }

    /// One step of a generated run. Peers are indices into the run's
    /// three peers; an ack's `peer` of 3 names the entry's own peer.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Send { peer: usize, payload: u8 },
        /// Acknowledges the window at the `back`-th newest sequence
        /// number.
        Ack { peer: usize, back: u64, more: u64 },
        Advance { micros: u64 },
        Poll,
        /// Advances to the queue's next deadline and polls there.
        PollAtDeadline,
        Cancel { peer: usize, payload: u8 },
    }

    fn op() -> BoxedStrategy<Op> {
        prop_oneof![
            (0usize..3, 0u8..3).prop_map(|(peer, payload)| Op::Send { peer, payload }),
            (0usize..4, 0u64..4, 0u64..16).prop_map(|(peer, back, more)| Op::Ack {
                peer,
                back,
                more
            }),
            (0u64..3_000).prop_map(|micros| Op::Advance { micros }),
            (0u64..60_000).prop_map(|micros| Op::Advance { micros }),
            Just(Op::Poll),
            Just(Op::PollAtDeadline),
            (0usize..3, 0u8..3).prop_map(|(peer, payload)| Op::Cancel { peer, payload }),
        ]
    }

    /// Runs `ops` on the queue and the reference side by side, checking
    /// at every step that they re-send the same entries for the same
    /// reasons and name the same next deadline, and four invariants
    /// that need no model: nothing is re-sent before the deadline the
    /// queue named, an acknowledged or cancelled entry never comes back,
    /// a flight is probed at most once, and an entry's backoff deadlines
    /// are those of its timeouts alone.
    fn run<P: Clone + Ord + fmt::Debug>(
        peers: &[P; 3],
        policy: &RetryPolicy,
        ops: &[Op],
    ) -> Result<(), String> {
        let mut q: RetransmitQueue<P, u8> = RetransmitQueue::new(policy.clone(), 1);
        let mut model = ReferenceQueue::new(policy.clone());
        let mut now = SimTime::ZERO;
        // What the harness itself knows of each unacknowledged entry: its
        // peer and payload, and its backoff deadline and timeout count.
        let mut live: BTreeMap<u64, (P, u8, SimTime, u32)> = BTreeMap::new();
        let mut gone = BTreeSet::new();
        // Probed since the peer's last send or ack.
        let mut probed: BTreeMap<P, bool> = BTreeMap::new();
        for (step, &op) in ops.iter().enumerate() {
            let deadline = q.next_deadline();
            match (op, deadline) {
                (Op::Advance { micros }, _) => now += SimDuration::from_micros(micros),
                (Op::PollAtDeadline, Some(deadline)) => now = now.max(deadline),
                _ => {}
            }
            let at = |what: String| format!("step {step} {op:?} at {now:?}: {what}");
            let resends: Vec<(u64, P, Resend)> = match op {
                Op::Send { peer, payload } => {
                    let peer = &peers[peer];
                    let seq = q.send(peer.clone(), payload, now);
                    if seq != model.send(peer, payload, now) {
                        return Err(at("the sequence numbers differ".into()));
                    }
                    probed.insert(peer.clone(), false);
                    live.insert(seq, (peer.clone(), payload, now + model.backoff(0), 0));
                    Vec::new()
                }
                Op::Ack { peer, back, more } => {
                    let seq = model.next_seq.saturating_sub(1 + back);
                    let peer = match (peers.get(peer), live.get(&seq)) {
                        (Some(peer), _) | (None, Some((peer, ..))) => peer.clone(),
                        (None, None) => peers[0].clone(),
                    };
                    let seqs: Vec<u64> = acked_seqs(seq, more).collect();
                    let lost = q.ack(peer.clone(), seqs.iter().copied(), now);
                    let lost: Vec<u64> = lost.into_iter().map(|(seq, _)| seq).collect();
                    let expected = model.ack(&peer, &seqs, now);
                    if lost != expected {
                        return Err(at(format!("lost {lost:?}, reference {expected:?}")));
                    }
                    for seq in seqs {
                        if live.get(&seq).is_some_and(|(p, ..)| *p == peer) {
                            live.remove(&seq);
                            gone.insert(seq);
                            probed.insert(peer.clone(), false);
                        }
                    }
                    lost.into_iter().map(|seq| (seq, peer.clone(), Resend::Lost)).collect()
                }
                Op::Advance { .. } => Vec::new(),
                Op::Poll | Op::PollAtDeadline => {
                    let mut out = Vec::new();
                    for (seq, peer, payload, why) in q.poll(now) {
                        if live.get(&seq).is_some_and(|(_, sent, ..)| *sent != payload) {
                            return Err(at(format!("{seq} came back as another payload")));
                        }
                        out.push((seq, peer, why));
                    }
                    let expected = model.poll(now);
                    if out != expected {
                        return Err(at(format!("re-sent {out:?}, reference {expected:?}")));
                    }
                    if !out.is_empty() && deadline.is_none_or(|deadline| deadline > now) {
                        return Err(at(format!("re-sent {out:?} before {deadline:?}")));
                    }
                    for (seq, _, why) in &out {
                        if let (Resend::Timeout, Some((_, _, due, n))) = (why, live.get_mut(seq)) {
                            *n += 1;
                            *due = now + model.backoff(*n);
                        }
                    }
                    if let Some((seq, _)) = live.iter().find(|(_, (_, _, due, _))| *due <= now) {
                        return Err(at(format!("{seq} was not re-sent at its backoff deadline")));
                    }
                    out
                }
                Op::Cancel { peer, payload } => {
                    let peer = &peers[peer];
                    q.cancel(|p, m| p == peer && *m == payload);
                    model.cancel(peer, payload);
                    live.retain(|seq, (p, m, ..)| {
                        let keep = !(p == peer && *m == payload);
                        if !keep {
                            gone.insert(*seq);
                        }
                        keep
                    });
                    Vec::new()
                }
            };
            for (seq, peer, why) in &resends {
                if gone.contains(seq) {
                    return Err(at(format!("{seq} came back after it left the queue")));
                }
                if *why == Resend::Probe && probed.insert(peer.clone(), true) == Some(true) {
                    return Err(at(format!("a second probe to {peer:?} in one flight")));
                }
            }
            let queued: Vec<(P, u8)> = q.iter().map(|(p, m)| (p.clone(), *m)).collect();
            let held: Vec<(P, u8)> = live.values().map(|(p, m, ..)| (p.clone(), *m)).collect();
            if queued != held || q.len() != live.len() {
                return Err(at(format!("the queue holds {queued:?}, not {held:?}")));
            }
            if q.next_deadline() != model.next_deadline() {
                return Err(at(format!(
                    "next deadline {:?}, reference {:?}",
                    q.next_deadline(),
                    model.next_deadline()
                )));
            }
        }
        Ok(())
    }

    /// Runs `ops`; on a failure, drops one step at a time for as long as
    /// the run still fails, and reports the shortest run found.
    fn shrunk(ops: Vec<Op>, run: impl Fn(&[Op]) -> Result<(), String>) -> Result<(), TestCaseError> {
        let Err(mut failure) = run(&ops) else {
            return Ok(());
        };
        let mut ops = ops;
        let mut i = 0;
        while i < ops.len() {
            let mut fewer = ops.clone();
            fewer.remove(i);
            match run(&fewer) {
                Err(e) => (ops, failure) = (fewer, e),
                Ok(()) => i += 1,
            }
        }
        Err(TestCaseError::fail(format!("{failure}\nshrunk to {ops:#?}")))
    }

    /// A doubling backoff on the scale of the round trips the runs make.
    fn doubling() -> RetryPolicy {
        RetryPolicy {
            base: SimDuration::from_millis(10),
            multiplier: 2.0,
            max_interval: SimDuration::from_millis(80),
            jitter: 0.0,
        }
    }

    /// A fixed interval, as the auxiliary-operation log's.
    fn fixed() -> RetryPolicy {
        RetryPolicy {
            base: SimDuration::from_millis(20),
            multiplier: 1.0,
            max_interval: SimDuration::from_millis(20),
            jitter: 0.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        #[test]
        fn the_queue_matches_its_reference_on_copy_peers(ops in prop::collection::vec(op(), 1..48)) {
            shrunk(ops, |ops| run(&[1u8, 2, 3], &doubling(), ops))?;
        }

        #[test]
        fn the_queue_matches_its_reference_on_host_peers(ops in prop::collection::vec(op(), 1..48)) {
            let hosts = [HostName::new("Hamilton"), HostName::new("London"), HostName::new("Paris")];
            shrunk(ops, |ops| run(&hosts, &fixed(), ops))?;
        }
    }
}
