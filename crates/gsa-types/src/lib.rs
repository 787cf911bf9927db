//! Shared vocabulary for the `gsalert` workspace.
//!
//! This crate defines the identifiers, metadata model, document model,
//! event model and simulated-time primitives that every other crate in the
//! workspace builds upon. It corresponds to the data definitions that the
//! paper *A Distributed Alerting Service for Open Digital Library Software*
//! (Hinze & Buchanan, ICDCSW 2005) assumes from the Greenstone digital
//! library software:
//!
//! * hosts and servers (Section 3),
//! * collections, sub-collections and documents (Section 3, Figure 1),
//! * event messages produced by the collection build process (Section 4),
//! * metadata records attached to documents and events (Section 5).
//!
//! # Examples
//!
//! ```
//! use gsa_types::{CollectionId, HostName};
//!
//! let hamilton_d = CollectionId::new(HostName::new("Hamilton"), "D");
//! assert_eq!(hamilton_d.to_string(), "Hamilton.D");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod counter;
mod event;
mod fxhash;
mod id;
mod meta;
mod time;

pub use counter::{CounterId, Counts};
pub use event::{DocSummary, Event, EventId, EventKind};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use id::{
    ClientId, CollectionId, CollectionName, DocId, DocumentRef, HostName, MessageId, ProfileId,
};
pub use meta::{keys, MetaKey, MetaValue, MetadataRecord};
pub use time::{SimDuration, SimTime};
