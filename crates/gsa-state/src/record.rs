//! The durable state's one record stream.
//!
//! Journal and snapshot hold the same thing: [`StateRecord`]s, each
//! framed as `varint(body_len) ++ body ++ crc32(body) as 4 LE bytes` on
//! the v2 binary primitives of `gsa-wire`. Profile expressions travel in
//! their existing XML-tree binary encoding (`expr_to_xml` →
//! `xml_to_binary`), so the journal never invents a second expression
//! codec. The journal is the stream as it was appended; a snapshot
//! (format version 2) is a two-byte header — magic, version — and the
//! stream compacted: a `Subscribe` per live profile in id order, an
//! `AlertLifecycle` per alert instance of a live profile in (profile,
//! fingerprint) order. One writer
//! ([`encode_record`]), one frame reader, one fold
//! ([`RecoveredState::apply`](crate::RecoveredState::apply)): recovery
//! is "replay the snapshot, then the journal".
//!
//! Replay is torn-tail tolerant by construction: a record that fails
//! its CRC (or runs past the end of the buffer) at the very end of a
//! stream is the torn final append a crash legitimately leaves behind
//! and is dropped silently; a CRC failure *with bytes after it* is
//! mid-stream corruption — replay stops at the last good record and
//! reports [`ReplayStop::Corrupt`] so the store can count it. A damaged
//! snapshot degrades the same way, to the records ahead of the damage.
//!
//! No record holds a high-water mark: a restarted server numbers its
//! profiles and announcements from a new incarnation, above everything
//! the old one issued. Three tags an older build wrote, 3 (a summary
//! version), 4 (an alert transition without its profile) and 5 (the
//! profile-id mark), are read and fold to nothing.

use gsa_profile::xml::{expr_from_xml, expr_to_xml};
use gsa_profile::ProfileExpr;
use gsa_types::{ClientId, ProfileId};
use gsa_wire::binary::{crc32, write_varint, xml_from_binary, xml_to_binary, BinReader};
use std::collections::BTreeMap;

/// One durable state mutation, as written to the journal.
#[derive(Debug, Clone, PartialEq)]
pub enum StateRecord {
    /// A profile was registered.
    Subscribe {
        /// The profile id the subscription manager assigned.
        id: ProfileId,
        /// The owning client.
        client: ClientId,
        /// The profile expression, replayed into the filter index.
        expr: ProfileExpr,
    },
    /// A profile was cancelled.
    Unsubscribe {
        /// The profile id being removed.
        id: ProfileId,
    },
    /// An alert instance entered a lifecycle state. The state byte is
    /// `gsa-alerts`' stable tag; this crate treats it as opaque (the
    /// core fails closed on tags it does not recognise), so the journal
    /// format does not chase the lifecycle enum. The instance ends with
    /// its profile: a later `Unsubscribe` of it folds the record away.
    AlertLifecycle {
        /// The profile the instance belongs to.
        profile: ProfileId,
        /// The alert instance's stable fingerprint.
        fingerprint: u64,
        /// Lifecycle state tag (`AlertState::tag`).
        state: u8,
        /// Transition time, microseconds of simulated time.
        at_micros: u64,
    },
}

// Tags append, never renumber, and a retired tag is never reused: a
// journal on a disk outlives the build that wrote it.
const TAG_SUBSCRIBE: u8 = 1;
const TAG_UNSUBSCRIBE: u8 = 2;
/// Retired: a summary version, which a restart no longer resumes from.
const TAG_SUMMARY_VERSION: u8 = 3;
/// Retired: an alert transition keyed by fingerprint alone, which a
/// cancel could not end.
const TAG_FINGERPRINT_ALERT: u8 = 4;
/// Retired: the profile-id high-water mark, which a restart no longer
/// resumes from.
const TAG_NEXT_PROFILE: u8 = 5;
const TAG_ALERT_LIFECYCLE: u8 = 6;

/// Snapshot magic byte (`Z` — "the state so far").
const SNAP_MAGIC: u8 = 0x5A;
/// Snapshot format version: 2, a compacted record stream. A snapshot
/// an older build wrote leads with a tag-5 and a tag-3 record, which
/// read as nothing, so the layout needs no new version.
const SNAP_VERSION: u8 = 2;

impl StateRecord {
    /// What every body starts with, and all [`compact`] reads of one
    /// but an alert's fingerprint: the tag, then the profile id.
    fn head(&self) -> (u8, u64) {
        match self {
            StateRecord::Subscribe { id, .. } => (TAG_SUBSCRIBE, id.as_u64()),
            StateRecord::Unsubscribe { id } => (TAG_UNSUBSCRIBE, id.as_u64()),
            StateRecord::AlertLifecycle { profile, .. } => (TAG_ALERT_LIFECYCLE, profile.as_u64()),
        }
    }
}

fn read_head(body: &[u8]) -> Option<(u8, u64, BinReader<'_>)> {
    let mut r = BinReader::new(body);
    Some((r.read_u8().ok()?, r.read_varint().ok()?, r))
}

fn encode_body(rec: &StateRecord, buf: &mut Vec<u8>) {
    let (tag, key) = rec.head();
    buf.push(tag);
    write_varint(buf, key);
    match rec {
        StateRecord::Subscribe { client, expr, .. } => {
            write_varint(buf, client.as_u64());
            xml_to_binary(&expr_to_xml(expr), buf);
        }
        StateRecord::AlertLifecycle {
            fingerprint, state, at_micros, ..
        } => {
            write_varint(buf, *fingerprint);
            buf.push(*state);
            write_varint(buf, *at_micros);
        }
        _ => {}
    }
}

/// The record a body holds: `Some(None)` for a retired tag, which folds
/// to nothing, and `None` for a body nobody understands.
fn decode_body(body: &[u8]) -> Option<Option<StateRecord>> {
    let (tag, key, mut r) = read_head(body)?;
    let rec = match tag {
        TAG_SUBSCRIBE => Some(StateRecord::Subscribe {
            id: ProfileId::from_raw(key),
            client: ClientId::from_raw(r.read_varint().ok()?),
            expr: expr_from_xml(&xml_from_binary(&mut r).ok()?).ok()?,
        }),
        TAG_UNSUBSCRIBE => Some(StateRecord::Unsubscribe {
            id: ProfileId::from_raw(key),
        }),
        TAG_ALERT_LIFECYCLE => Some(StateRecord::AlertLifecycle {
            profile: ProfileId::from_raw(key),
            fingerprint: r.read_varint().ok()?,
            state: r.read_u8().ok()?,
            at_micros: r.read_varint().ok()?,
        }),
        TAG_FINGERPRINT_ALERT => {
            r.read_u8().and(r.read_varint()).ok()?; // its state and time
            None
        }
        TAG_SUMMARY_VERSION | TAG_NEXT_PROFILE => None,
        _ => return None,
    };
    // Trailing garbage inside a CRC-valid body is structural corruption.
    (r.remaining() == 0).then_some(rec)
}

/// Append one CRC-framed record to `buf`.
pub fn encode_record(rec: &StateRecord, buf: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(32);
    encode_body(rec, &mut body);
    write_varint(buf, body.len() as u64);
    buf.extend_from_slice(&body);
    buf.extend_from_slice(&crc32(&body).to_le_bytes());
}

/// How a replay ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStop {
    /// Every byte decoded as a valid record.
    Clean,
    /// The final record was truncated or failed its CRC with nothing
    /// after it — the torn tail of an interrupted append. Dropped
    /// silently; everything before it was applied.
    TornTail,
    /// A record failed mid-stream (CRC mismatch or an undecodable
    /// CRC-valid body with bytes following). Replay stopped at the
    /// last good record; the store surfaces this via
    /// `state.journal_corrupt`.
    Corrupt,
}

/// The one frame reader. Hands each intact frame at the front of
/// `bytes` — the whole frame, and the body inside it — to `visit`, until
/// the bytes run out, a frame is damaged or `visit` refuses a body.
/// Returns how many bytes the accepted frames occupy and how the walk
/// ended. Never panics, whatever the input.
fn scan<'a>(
    bytes: &'a [u8],
    mut visit: impl FnMut(&'a [u8], &'a [u8]) -> bool,
) -> (usize, ReplayStop) {
    let mut good = 0;
    while good < bytes.len() {
        let rest = &bytes[good..];
        let mut r = BinReader::new(rest);
        // A length prefix or a frame that runs off the end of the bytes
        // is byte for byte an interrupted append.
        let Some(body) = r
            .read_varint()
            .ok()
            .and_then(|len| usize::try_from(len).ok()?.checked_add(4))
            .filter(|&framed| framed <= r.remaining())
            .and_then(|framed| r.read_slice(framed - 4).ok())
        else {
            return (good, ReplayStop::TornTail);
        };
        let crc = r.read_slice(4).expect("length checked above");
        if crc32(body).to_le_bytes() != crc {
            return match r.remaining() {
                0 => (good, ReplayStop::TornTail),
                _ => (good, ReplayStop::Corrupt),
            };
        }
        // A frame that checksummed is not a torn write: a body nobody
        // understands is always structural corruption.
        let frame = &rest[..rest.len() - r.remaining()];
        if !visit(frame, body) {
            return (good, ReplayStop::Corrupt);
        }
        good += frame.len();
    }
    (good, ReplayStop::Clean)
}

/// [`replay_journal`], also returning the length of the intact prefix —
/// what recovery keeps of a damaged stream.
pub(crate) fn replay(bytes: &[u8], mut apply: impl FnMut(StateRecord)) -> (u64, usize, ReplayStop) {
    let mut applied = 0;
    let (good, stop) = scan(bytes, |_, body| {
        let Some(rec) = decode_body(body) else {
            return false;
        };
        if let Some(rec) = rec {
            apply(rec);
            applied += 1;
        }
        true
    });
    (applied, good, stop)
}

/// Replay every intact record in `bytes`, in order, through `apply`.
/// Returns the number of records applied and how the scan ended.
/// Never panics, whatever the input.
pub fn replay_journal(bytes: &[u8], apply: impl FnMut(StateRecord)) -> (u64, ReplayStop) {
    let (applied, _, stop) = replay(bytes, apply);
    (applied, stop)
}

/// The record stream inside a snapshot blob: what follows the header.
/// An empty blob is the no-snapshot-yet case; a blob without the header
/// is not one of ours and is refused whole (`None`).
pub(crate) fn snapshot_records(blob: &[u8]) -> Option<&[u8]> {
    match blob {
        [] => Some(blob),
        [SNAP_MAGIC, SNAP_VERSION, records @ ..] => Some(records),
        _ => None,
    }
}

/// Removes every entry of `profile` from a map keyed by (profile,
/// fingerprint): one range.
pub(crate) fn drop_profile<V>(map: &mut BTreeMap<(ProfileId, u64), V>, profile: ProfileId) {
    let keys: Vec<_> = map.range((profile, 0)..=(profile, u64::MAX)).map(|(&key, _)| key).collect();
    for key in keys {
        map.remove(&key);
    }
}

/// Compacts record streams, oldest first, into a snapshot blob: the
/// header, then the last `Subscribe` frame of every profile no later
/// `Unsubscribe` names, in id order, and the last `AlertLifecycle` frame
/// of every instance whose profile no later `Unsubscribe` names, in
/// (profile, fingerprint) order — the frames themselves, copied; a
/// retired frame is dropped. Only the tag and the key of a frame (and
/// an alert's fingerprint) are read; no expression is decoded. Each
/// stream is read as far as [`scan`] accepts it.
pub(crate) fn compact(streams: [&[u8]; 2]) -> Vec<u8> {
    let mut profiles: BTreeMap<u64, &[u8]> = BTreeMap::new();
    let mut alerts: BTreeMap<(ProfileId, u64), &[u8]> = BTreeMap::new();
    for bytes in streams {
        scan(bytes, |frame, body| {
            let Some((tag, key, mut r)) = read_head(body) else {
                return false;
            };
            match tag {
                TAG_SUBSCRIBE => drop(profiles.insert(key, frame)),
                TAG_UNSUBSCRIBE => {
                    profiles.remove(&key);
                    drop_profile(&mut alerts, ProfileId::from_raw(key));
                }
                TAG_ALERT_LIFECYCLE => match r.read_varint() {
                    Ok(fingerprint) => drop(alerts.insert((ProfileId::from_raw(key), fingerprint), frame)),
                    Err(_) => return false,
                },
                TAG_SUMMARY_VERSION | TAG_FINGERPRINT_ALERT | TAG_NEXT_PROFILE => {}
                _ => return false,
            }
            true
        });
    }
    // At most everything survives, plus the header.
    let mut out = Vec::with_capacity(2 + streams.iter().map(|s| s.len()).sum::<usize>());
    out.extend([SNAP_MAGIC, SNAP_VERSION]);
    for frame in profiles.values().chain(alerts.values()) {
        out.extend_from_slice(frame);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecoveredState;
    use gsa_profile::{Predicate, ProfileAttr};

    fn expr(host: &str) -> ProfileExpr {
        ProfileExpr::Pred(Predicate::equals(ProfileAttr::Host, host))
    }

    fn sample_records() -> Vec<StateRecord> {
        vec![
            StateRecord::Subscribe {
                id: ProfileId::from_raw(0),
                client: ClientId::from_raw(7),
                expr: expr("hamilton.nz"),
            },
            StateRecord::Subscribe {
                id: ProfileId::from_raw(1),
                client: ClientId::from_raw(9),
                expr: expr("london.uk"),
            },
            StateRecord::Unsubscribe {
                id: ProfileId::from_raw(0),
            },
            StateRecord::AlertLifecycle {
                profile: ProfileId::from_raw(1),
                fingerprint: 0x9f04_1567_6a54_083c,
                state: 1,
                at_micros: 12_000_000,
            },
        ]
    }

    #[test]
    fn records_round_trip_through_the_frame() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            encode_record(&rec, &mut buf);
            let mut back = Vec::new();
            let (applied, good, stop) = replay(&buf, |r| back.push(r));
            assert_eq!((applied, good, stop), (1, buf.len(), ReplayStop::Clean));
            assert_eq!(back, vec![rec]);
        }
    }

    #[test]
    fn replay_applies_every_record_in_order() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for rec in &recs {
            encode_record(rec, &mut buf);
        }
        let mut seen = Vec::new();
        let (n, stop) = replay_journal(&buf, |r| seen.push(r));
        assert_eq!(stop, ReplayStop::Clean);
        assert_eq!(n, recs.len() as u64);
        assert_eq!(seen, recs);
    }

    #[test]
    fn truncated_tail_drops_only_the_final_record() {
        let recs = sample_records();
        let mut buf = Vec::new();
        let mut boundaries = Vec::new();
        for rec in &recs {
            encode_record(rec, &mut buf);
            boundaries.push(buf.len());
        }
        // Chop anywhere strictly inside the final record's frame.
        let last_start = boundaries[boundaries.len() - 2];
        for cut in last_start..buf.len() {
            let mut seen = Vec::new();
            let (n, stop) = replay_journal(&buf[..cut], |r| seen.push(r));
            if cut == last_start {
                assert_eq!(stop, ReplayStop::Clean, "clean boundary is a clean stop");
            } else {
                assert_eq!(stop, ReplayStop::TornTail, "cut at byte {cut}");
            }
            assert_eq!(n, (recs.len() - 1) as u64);
            assert_eq!(seen, recs[..recs.len() - 1]);
        }
    }

    #[test]
    fn flipped_trailing_byte_is_a_silent_torn_tail() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for rec in &recs {
            encode_record(rec, &mut buf);
        }
        // Flip the final CRC byte: the last record fails with nothing
        // after it — a torn write, not corruption.
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        let mut seen = 0u64;
        let (n, stop) = replay_journal(&buf, |_| seen += 1);
        assert_eq!(stop, ReplayStop::TornTail);
        assert_eq!(n, (recs.len() - 1) as u64);
        assert_eq!(seen, n);
    }

    #[test]
    fn mid_journal_flip_is_corruption_and_stops_at_last_good_record() {
        let recs = sample_records();
        let mut buf = Vec::new();
        let mut boundaries = Vec::new();
        for rec in &recs {
            encode_record(rec, &mut buf);
            boundaries.push(buf.len());
        }
        // Flip a body byte of record 2 (0-indexed): its CRC fails with
        // record 3 still behind it.
        let idx = boundaries[1] + 3;
        buf[idx] ^= 0xFF;
        let mut seen = Vec::new();
        let (n, stop) = replay_journal(&buf, |r| seen.push(r));
        assert_eq!(stop, ReplayStop::Corrupt);
        assert_eq!(n, 2);
        assert_eq!(seen, recs[..2]);
    }

    #[test]
    fn replay_of_arbitrary_garbage_never_panics() {
        let garbage: &[&[u8]] = &[
            &[0xFF],
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF],
            &[0x00],
            &[0x05, 1, 2, 3],
            &[0x80, 0x80, 0x80],
        ];
        for bytes in garbage {
            let (n, _) = replay_journal(bytes, |_| {});
            assert_eq!(n, 0);
        }
    }

    /// The fold of a snapshot blob, and how its replay ended.
    fn read(blob: &[u8]) -> (RecoveredState, ReplayStop) {
        let mut state = RecoveredState::default();
        let records = snapshot_records(blob).expect("a snapshot of ours");
        let (_, _, stop) = replay(records, |r| state.apply(r));
        (state, stop)
    }

    fn journal(recs: &[StateRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        for rec in recs {
            encode_record(rec, &mut buf);
        }
        buf
    }

    /// A frame around `body`, as the writer frames one.
    fn frame(body: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        write_varint(&mut frame, body.len() as u64);
        frame.extend_from_slice(body);
        frame.extend_from_slice(&crc32(body).to_le_bytes());
        frame
    }

    #[test]
    fn retired_frames_fold_to_nothing_in_replay_and_compaction() {
        // What an older build wrote under the three retired tags, each
        // with a one-byte key: a summary version, the id mark and an
        // acked alert without its profile.
        let (version, mark) = (frame(&[TAG_SUMMARY_VERSION, 3]), frame(&[TAG_NEXT_PROFILE, 2]));
        let unowned = frame(&[TAG_FINGERPRINT_ALERT, 0x34, 1, 0x80, 0x01]);
        let recs = sample_records();
        let old = [&mark[..], &version, &journal(&recs[..2]), &unowned, &journal(&recs[2..])]
            .concat();
        let mut seen = Vec::new();
        assert_eq!(replay_journal(&old, |r| seen.push(r)), (recs.len() as u64, ReplayStop::Clean));
        assert_eq!(seen, recs);
        // Compaction drops them: the snapshot is the one the records
        // alone compact to, whether they came as a journal or as an
        // older build's snapshot.
        let blob = compact([&[], &journal(&recs)]);
        assert_eq!(compact([&[], &old]), blob);
        assert_eq!(compact([&old, &[]]), blob);
        // A retired body with bytes after its key is still corruption.
        let damaged = [frame(&[TAG_SUMMARY_VERSION, 3, 0]), journal(&recs)].concat();
        assert_eq!(replay_journal(&damaged, |_| {}), (0, ReplayStop::Corrupt));
    }

    #[test]
    fn snapshot_round_trips() {
        let recs = sample_records();
        let mut folded = RecoveredState::default();
        recs.iter().cloned().for_each(|r| folded.apply(r));
        let blob = compact([&[], &journal(&recs)]);
        assert_eq!(read(&blob), (folded.clone(), ReplayStop::Clean));
        // Compacting a snapshot with nothing new gives the same bytes,
        // and with the journal it was made of (the crash window between
        // snapshot write and journal truncate) the same bytes again.
        let records = snapshot_records(&blob).unwrap();
        assert_eq!(compact([records, &[]]), blob);
        assert_eq!(compact([records, &journal(&recs)]), blob);
        assert_eq!(read(&[]), (RecoveredState::default(), ReplayStop::Clean));
    }

    #[test]
    fn corrupt_snapshot_is_rejected_not_misparsed() {
        let recs = vec![
            StateRecord::Subscribe {
                id: ProfileId::from_raw(0),
                client: ClientId::from_raw(1),
                expr: expr("x"),
            },
            StateRecord::Subscribe {
                id: ProfileId::from_raw(1),
                client: ClientId::from_raw(1),
                expr: expr("y"),
            },
            StateRecord::Unsubscribe {
                id: ProfileId::from_raw(1),
            },
            StateRecord::AlertLifecycle {
                profile: ProfileId::from_raw(0),
                fingerprint: 0x1234,
                state: 2,
                at_micros: 3_000_000,
            },
        ];
        let clean = compact([&[], &journal(&recs)]);
        // What a reader may make of a damaged blob: the fold of the
        // records ahead of the damage, never anything else.
        let mut prefixes = vec![RecoveredState::default()];
        scan(snapshot_records(&clean).unwrap(), |_, body| {
            let mut next = prefixes.last().unwrap().clone();
            next.apply(decode_body(body).flatten().unwrap());
            prefixes.push(next);
            true
        });
        assert_eq!(prefixes.len(), 3, "one profile, one alert");
        for damaged in (0..clean.len())
            .map(|i| {
                let mut bytes = clean.clone();
                bytes[i] ^= 0xFF;
                bytes
            })
            .chain((1..clean.len()).map(|cut| clean[..cut].to_vec()))
        {
            // The header refuses the blob whole; past it, the damage
            // stops the replay, which is never clean.
            let Some(records) = snapshot_records(&damaged) else {
                assert!(!damaged.starts_with(&clean[..2]));
                continue;
            };
            let mut state = RecoveredState::default();
            let (_, _, stop) = replay(records, |r| state.apply(r));
            assert!(prefixes[..2].contains(&state), "forged: {state:?}");
            assert!(stop != ReplayStop::Clean || damaged.len() < clean.len());
        }
    }
}
