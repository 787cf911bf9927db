//! The Greenstone-like digital-library meta-software substrate.
//!
//! The paper integrates alerting into Greenstone, "a meta-software to build
//! digital libraries". This crate reimplements the parts of that software
//! the alerting service interacts with (paper Section 3):
//!
//! * **Collections** ([`Collection`], [`CollectionConfig`]) — a
//!   configuration plus a data set of documents, possibly with
//!   *sub-collections* on the same or other hosts. Collections can be
//!   *federated* (same access point, different hosts), *distributed* (one
//!   collection, data sets on several hosts), *virtual* (no own data set)
//!   and *private* (reachable only through a parent).
//! * **Servers** ([`Server`]) — one per host, managing that host's
//!   collections, answering the GS protocol and running the collection
//!   *build process* which is what produces alerting events.
//! * **The GS protocol** ([`GsMessage`]) — describe / search / fetch
//!   requests between receptionists and servers and *between* servers for
//!   recursive sub-collection resolution (the Figure 1 walk-through:
//!   `Hamilton.D` pulling data set *e* from `London.E`).
//! * **Receptionists** ([`Receptionist`]) — the user-facing access points
//!   federating several hosts.
//!
//! Protocol logic is written sans-IO: [`Server::handle_message`] consumes a
//! message and returns the messages to send next, so the same code runs on
//! the deterministic simulator, the thread transport, or in unit tests
//! directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod collection;
mod config;
pub mod protocol;
mod receptionist;
pub mod server;

pub use collection::{BuildReport, Collection};
pub use config::{CollectionConfig, SubCollectionRef, Visibility};
pub use protocol::{CollectionInfo, GsError, GsMessage, RequestId, SearchHit};
pub use receptionist::{Completed, Receptionist};
pub use server::{Outbound, Server, ServerEffects};
