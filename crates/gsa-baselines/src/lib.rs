//! Baseline alerting schemes, built over the same simulator and data
//! model as the hybrid service, so experiment E4 can compare them
//! head-to-head on the workloads the paper describes.
//!
//! Section 2 of the paper analyses why existing distributed ENS designs
//! fail on the Greenstone network. Each analysis becomes an executable
//! comparator here:
//!
//! * [`GsFloodServer`] — **event flooding over the raw GS reference
//!   graph** (Siena/JEDI-style, the approach Section 4 explicitly rejects
//!   because "the Greenstone network is too fragmented"): events flood
//!   hop-by-hop along sub-collection references. Islands never hear
//!   anything (false negatives); on cyclic graphs, duplicate suppression
//!   is optional so the cost of cycles is measurable.
//! * [`ProfileFloodServer`] — **profile flooding/replication**
//!   (Rebecca-style): every profile is replicated to every reachable
//!   server and events are filtered at their source. Cancellations that
//!   cannot reach a replica leave *orphan profiles* which keep producing
//!   spurious notifications (false positives), and memory grows with
//!   profiles × servers.
//! * [`RendezvousServer`] — **rendezvous-node routing**
//!   (Scribe/Hermes-style): profiles and events meet at the hash-chosen
//!   rendezvous server of their topic. The rendezvous concentrates load
//!   (bottleneck) and its failure silently loses events (false
//!   negatives).
//!
//! A scheme is only its [`Server`]: the actor, its subscribe, unsubscribe
//! and publish, and what it counts as stored. One [`Baseline`] harness runs
//! any of them. It owns the simulator, hands out profile identities, drains
//! the [`Delivery`] logs and holds the network controls, so the three share
//! one control surface by type. The hybrid [`System`](gsa_core::System)
//! offers the same through its notification mailboxes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod gsflood;
mod harness;
mod msg;
mod profileflood;
mod rendezvous;

pub use gsflood::GsFloodServer;
pub use harness::{Baseline, Server};
pub use msg::{BaselineMsg, Delivery, GlobalProfileId};
pub use profileflood::ProfileFloodServer;
pub use rendezvous::RendezvousServer;
