//! The Greenstone Directory Service (GDS).
//!
//! The paper's first contribution (Section 4.1): instead of building a
//! broker overlay out of the fragmented, dynamic, cyclic network of DL
//! servers, a *maintenance network* of auxiliary directory servers is
//! added, organized as a tree of strata (stratum 1 = primary). Every
//! Greenstone server registers with exactly one GDS node. The GDS then
//! offers (Section 6):
//!
//! * **broadcast** — a message handed to any GDS node is "distributed
//!   upwards within the tree and downwards to all tree leaves", reaching
//!   every registered Greenstone server with best-effort delivery;
//! * **multicast / point-to-point** — targeted delivery routed along the
//!   tree using aggregated subtree registries;
//! * **a naming service** similar to DNS — resolving a Greenstone server
//!   name to the GDS node responsible for it, so servers address each
//!   other "without having to be aware of the identity of the recipient".
//!
//! [`GdsNode`] is the sans-IO state machine of one directory server,
//! over membership, flood and [`InterestMode`] machines; [`GdsClient`]
//! is what a Greenstone server embeds to publish, subscribe and dedup;
//! `topology` builds trees (balanced, or Figure 2's 7 nodes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod client;
mod flood;
mod interest;
mod membership;
mod message;
mod node;
mod seen;
mod topology;

pub use client::GdsClient;
pub use interest::InterestMode;
pub use message::{GdsMessage, ResolveToken};
pub use node::{GdsEffects, GdsNode, GdsOutbound};
pub use seen::SeenIds;
pub use topology::{figure2_tree, balanced_tree, GdsNodeSpec, GdsTopology};
