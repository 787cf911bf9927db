//! Golden bytes of the durable state: the journal frame of every
//! [`StateRecord`] variant, the frames of the three retired tags, and one
//! snapshot, pinned in hex. A frame is
//! `varint(body_len) ++ body ++ crc32(body)`, little-endian; the writer
//! must produce the literal and the reader must return the value from
//! it. A codec change that moves a byte a journal already on a disk
//! holds fails here first.

use gsa_profile::{Predicate, ProfileAttr, ProfileExpr};
use gsa_state::{
    encode_record, replay_journal, JournalConfig, JournalStateStore, Medium, MemMedium, ReplayStop,
    StateRecord, StateStore,
};
use gsa_types::{ClientId, ProfileId};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex literal"))
        .collect()
}

/// Holds one record to its frame.
fn pin(rec: StateRecord, frame: &str) {
    let mut written = Vec::new();
    encode_record(&rec, &mut written);
    assert_eq!(hex(&written), frame, "frame of {rec:?}");
    let mut read = Vec::new();
    let (applied, stop) = replay_journal(&unhex(frame), |r| read.push(r));
    assert_eq!((applied, stop), (1, ReplayStop::Clean), "replay of {rec:?}");
    assert_eq!(read, vec![rec]);
}

#[test]
fn journal_records_are_pinned() {
    pin(
        StateRecord::Subscribe {
            id: ProfileId::from_raw(300),
            client: ClientId::from_raw(7),
            expr: ProfileExpr::And(vec![
                ProfileExpr::Pred(Predicate::equals(ProfileAttr::Host, "hamilton.nz")),
                ProfileExpr::Pred(Predicate::equals(ProfileAttr::Kind, "documents-added")),
            ]),
        },
        "6a01ac020703616e64000200047072656403046174747204686f7374026f7006657175616c730576\
         616c75650b68616d696c746f6e2e6e7a00000470726564030461747472046b696e64026f70066571\
         75616c730576616c75650f646f63756d656e74732d616464656400e2b78017",
    );
    pin(
        StateRecord::Unsubscribe {
            id: ProfileId::from_raw(300),
        },
        "0302ac02b59f7910",
    );
    pin(
        StateRecord::AlertLifecycle {
            profile: ProfileId::from_raw(300),
            fingerprint: 0x9f04_1567_6a54_083c,
            state: 1,
            at_micros: 12_000_000,
        },
        "1206ac02bc90d0d2f6ac85829f010180b6dc05ef639ca5",
    );
    // A summary version (tag 3), an alert transition keyed by its
    // fingerprint alone (tag 4) and a profile-id high-water mark (tag 5),
    // as an older build journaled them: retired, they read as nothing.
    for frame in ["02032aea884fb1", "1004bc90d0d2f6ac85829f010180b6dc05d5a3e672", "0305ad0271b82d0c"] {
        let (applied, stop) = replay_journal(&unhex(frame), |r| panic!("{frame} read as {r:?}"));
        assert_eq!((applied, stop), (0, ReplayStop::Clean), "{frame}");
    }
}

/// A snapshot (format version 2) is a two-byte header and then journal
/// frames: the live profiles in id order, their alert instances in
/// (profile, fingerprint) order. A cancelled profile's alerts are gone.
#[test]
fn a_snapshot_is_pinned() {
    let mut medium = MemMedium::new();
    let mut store = JournalStateStore::new(medium.clone(), JournalConfig::default());
    let host = |name: &str| ProfileExpr::Pred(Predicate::equals(ProfileAttr::Host, name));
    store.record_subscribe(
        ProfileId::from_raw(0),
        ClientId::from_raw(7),
        &host("hamilton.nz"),
    );
    store.record_subscribe(
        ProfileId::from_raw(1),
        ClientId::from_raw(9),
        &host("london.uk"),
    );
    let (kept, cancelled) = (ProfileId::from_raw(0), ProfileId::from_raw(1));
    store.record_alert(kept, 0x9f04_1567_6a54_083c, 0, 11_000_000);
    store.record_alert(cancelled, 0x1234, 2, 13_000_000);
    store.record_unsubscribe(cancelled);
    store.record_alert(kept, 0x9f04_1567_6a54_083c, 1, 12_000_000);
    store.compact();
    assert_eq!(medium.journal_len(), 0);
    let snapshot = medium.read_snapshot();
    assert_eq!(hex(&snapshot), SNAPSHOT);
    // Past the header it reads as a journal does.
    let mut read = Vec::new();
    let (applied, stop) = replay_journal(&snapshot[2..], |r| read.push(r));
    assert_eq!((applied, stop), (2, ReplayStop::Clean));
    assert_eq!(
        read[0],
        StateRecord::Subscribe {
            id: ProfileId::from_raw(0),
            client: ClientId::from_raw(7),
            expr: host("hamilton.nz"),
        }
    );
    // The same state as an older build snapshotted it, led by the id
    // high-water mark and the summary version, its alerts without their
    // profile: it recovers to the same profiles and no alert, and
    // compacts to the bytes above less the alert frame.
    let mut old = MemMedium::new();
    old.replace_snapshot(&unhex(OLDER_SNAPSHOT));
    let mut reopened = JournalStateStore::new(old.clone(), JournalConfig::default());
    let (recovered, now) = (reopened.recover(), store.recover());
    assert_eq!((recovered.profiles, recovered.alerts.len()), (now.profiles, 0));
    reopened.compact();
    assert_eq!(hex(&old.read_snapshot()), SNAPSHOT[..SNAPSHOT.len() - ALERT_FRAME_HEX]);
}

/// The hex digits of the alert frame that ends [`SNAPSHOT`].
const ALERT_FRAME_HEX: usize = 44;

/// The snapshot [`a_snapshot_is_pinned`] writes.
const SNAPSHOT: &str = "5a0230010007047072656403046174747204686f7374026f7006657175616c730576616c75650b68\
    616d696c746f6e2e6e7a008d8e478d110600bc90d0d2f6ac85829f010180b6dc05b2e2b724";

/// What an older build wrote for it: a tag-5 and a tag-3 record ahead.
const OLDER_SNAPSHOT: &str = "5a020205029687a0d20203021020fa8430010007047072656403046174747204686f7374026f7006\
    657175616c730576616c75650b68616d696c746f6e2e6e7a008d8e478d0804b42402c0ba9906c6af\
    cb241004bc90d0d2f6ac85829f010180b6dc05d5a3e672";
