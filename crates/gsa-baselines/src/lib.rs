//! Baseline alerting schemes, built over the same simulator and data
//! model as the hybrid service, so experiment E4 can compare them
//! head-to-head on the workloads the paper describes.
//!
//! Section 2 of the paper analyses why existing distributed ENS designs
//! fail on the Greenstone network. Each analysis becomes an executable
//! comparator here:
//!
//! * [`GsFloodSystem`] — **event flooding over the raw GS reference
//!   graph** (Siena/JEDI-style, the approach Section 4 explicitly rejects
//!   because "the Greenstone network is too fragmented"): events flood
//!   hop-by-hop along sub-collection references. Islands never hear
//!   anything (false negatives); on cyclic graphs, duplicate suppression
//!   is optional so the cost of cycles is measurable.
//! * [`ProfileFloodSystem`] — **profile flooding/replication**
//!   (Rebecca-style): every profile is replicated to every reachable
//!   server and events are filtered at their source. Cancellations that
//!   cannot reach a replica leave *orphan profiles* which keep producing
//!   spurious notifications (false positives), and memory grows with
//!   profiles × servers.
//! * [`RendezvousSystem`] — **rendezvous-node routing**
//!   (Scribe/Hermes-style): profiles and events meet at the hash-chosen
//!   rendezvous server of their topic. The rendezvous concentrates load
//!   (bottleneck) and its failure silently loses events (false
//!   negatives).
//!
//! All three expose the same driver surface ([`Delivery`] records,
//! subscribe/unsubscribe/publish, partition control), as does the hybrid
//! [`System`](gsa_core::System) via its notification mailboxes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod gsflood;
mod msg;
mod profileflood;
mod rendezvous;

pub use gsflood::GsFloodSystem;
pub use msg::{BaselineMsg, Delivery, GlobalProfileId};
pub use profileflood::ProfileFloodSystem;
pub use rendezvous::RendezvousSystem;
