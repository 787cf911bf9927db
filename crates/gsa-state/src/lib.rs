//! Durable server state for the alerting service.
//!
//! The paper keeps every profile and interest summary in memory, so a
//! crashed server rejoins the GDS tree knowing nothing — reparenting
//! (PR 3) heals the tree but cannot resurrect lost subscriptions. This
//! crate defines the narrow persistence seam that fixes that without
//! disturbing the paper-figure behaviour:
//!
//! * [`StateStore`] — the trait an `AlertingCore` writes its durable
//!   state through: registered profiles (subscribe / unsubscribe) and
//!   the last announced interest-summary version.
//! * [`MemoryStateStore`] — the default backend: does nothing, costs
//!   nothing, recovers nothing. Paper-figure message counts are
//!   untouched.
//! * [`JournalStateStore`] — the opt-in durable backend: an
//!   append-only journal of CRC-framed records plus a periodic
//!   snapshot, with fsync batching and snapshot-then-truncate
//!   compaction. Replay tolerates a torn tail (a truncated or corrupt
//!   trailing record is dropped, never a panic) and surfaces
//!   mid-journal corruption through the `state.journal_corrupt`
//!   counter, stopping at the last good record.
//! * [`Medium`] — the byte-level storage abstraction underneath the
//!   journal store, with an in-memory implementation ([`MemMedium`])
//!   whose crash/torn-write fault injection drives the chaos harness,
//!   and a real-files implementation ([`FsMedium`]).
//!
//! Recovery returns a [`RecoveredState`]; the core rebuilds its
//! `SubscriptionManager` / filter index from it and re-announces its
//! summary at the persisted version, so PR 5's version-monotonic
//! pruning converges without false negatives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod medium;
mod record;
mod store;

pub use medium::{FsMedium, MemMedium, Medium};
pub use record::{
    decode_record, decode_snapshot, encode_record, encode_snapshot, replay_journal, ReplayError,
    ReplayStop, SnapshotState, StateRecord,
};
pub use store::{
    JournalConfig, JournalStateStore, MemoryStateStore, RecoveredState, StateStore,
};
