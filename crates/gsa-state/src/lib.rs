//! Durable server state for the alerting service.
//!
//! The paper keeps every profile and interest summary in memory, so a
//! crashed server rejoins the GDS tree knowing nothing — reparenting
//! (PR 3) heals the tree but cannot resurrect lost subscriptions, and a
//! profile lives on exactly one server, so nobody else can hand it
//! back. This crate defines the narrow persistence seam that fixes that
//! without disturbing the paper-figure behaviour:
//!
//! * [`StateStore`] — the trait an `AlertingCore` writes its durable
//!   state through: registered profiles (subscribe / unsubscribe) and
//!   alert-lifecycle transitions.
//! * [`MemoryStateStore`] — the default backend: does nothing, costs
//!   nothing, recovers nothing. Paper-figure message counts are
//!   untouched.
//! * [`JournalStateStore`] — the opt-in durable backend: **one record
//!   stream** in two objects. The journal is an append-only run of
//!   CRC-framed [`StateRecord`]s; the snapshot is the same records
//!   behind a two-byte header, compacted — last record per key, dead
//!   ones dropped. One writer, one frame reader, one fold
//!   ([`RecoveredState::apply`]): recovery is "replay the snapshot,
//!   then the journal". Replay tolerates a torn tail (a truncated or
//!   corrupt trailing record is dropped, never a panic) and surfaces
//!   mid-stream corruption through the `state.journal_corrupt`
//!   counter, stopping at the last good record — in the snapshot as in
//!   the journal. A recovery that met damage ends by compacting what it
//!   kept, so nothing acknowledged later is appended behind bytes the
//!   next recovery refuses. The store keeps no copy of the state and
//!   times its own compactions: one runs when the journal has grown to
//!   the size of the last snapshot (or [`COMPACT_FLOOR`]), which makes
//!   appends amortised O(1) and bounds the medium by twice the live
//!   state plus the floor.
//! * [`Medium`] — the byte-level storage abstraction underneath the
//!   journal store, with an in-memory implementation ([`MemMedium`])
//!   whose crash/torn-write fault injection drives the chaos harness,
//!   and a real-files implementation ([`FsMedium`]).
//!
//! Recovery returns a [`RecoveredState`]; the core rebuilds its
//! `SubscriptionManager` / filter index from it. No high-water mark is
//! stored: a restarted server numbers its profiles and summary versions
//! from a new incarnation, above everything the old one issued, so
//! version-monotonic pruning takes its first announcement and no old
//! handle names a new profile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod medium;
mod record;
mod store;

pub use medium::{FsMedium, MemMedium, Medium};
pub use record::{encode_record, replay_journal, ReplayStop, StateRecord};
pub use store::{
    JournalConfig, JournalStateStore, MemoryStateStore, RecoveredState, StateStore, COMPACT_FLOOR,
};
