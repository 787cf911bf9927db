//! The distributed alerting service for open digital library software —
//! the paper's primary contribution.
//!
//! This crate composes the substrates into the hybrid alerting design of
//! Section 4:
//!
//! * **Federated collections** — profiles stay at the server where the
//!   client registered them ([`SubscriptionManager`]); events produced by
//!   the collection build process are **flooded over the GDS tree** and
//!   filtered locally at every server (no dangling user profiles, ever).
//! * **Distributed collections** — a super-collection's server plants an
//!   **auxiliary profile** at each remote sub-collection's server
//!   ([`aux`]); when the sub-collection changes, the event is forwarded
//!   over the GS network to the super-collection's server, which
//!   **rewrites the originating collection** (`London.E → Hamilton.D`)
//!   and then broadcasts over the GDS. Chains through virtual and private
//!   collections are followed both locally and across hosts.
//! * **Partition tolerance** (Section 7) — auxiliary plant/delete
//!   operations and forwarded events are queued and retried until
//!   acknowledged, so a severed super↔sub link only *delays*
//!   notifications and deletions; it never produces user-visible false
//!   positives.
//!
//! The central type is [`AlertingCore`], a sans-IO state machine per
//! Greenstone host. [`AlertingActor`] adapts it to the `gsa-simnet`
//! simulator, and [`System`] is the one-stop facade examples, tests and
//! benchmarks use to assemble whole deployments (GDS tree + servers +
//! clients) and drive them deterministically.
//!
//! # Examples
//!
//! ```
//! use gsa_core::System;
//! use gsa_greenstone::CollectionConfig;
//! use gsa_store::SourceDocument;
//! use gsa_types::SimTime;
//!
//! let mut system = System::new(7);
//! system.add_gds_topology(&gsa_gds::figure2_tree());
//! system.add_server("Hamilton", "gds-4");
//! system.add_server("London", "gds-2");
//! system.add_collection("Hamilton", CollectionConfig::simple("D", "demo"));
//! let client = system.add_client("London");
//! system.subscribe_text("London", client, r#"host = "Hamilton""#).unwrap();
//! system.run_until_quiet(SimTime::from_secs(10));
//!
//! system.rebuild("Hamilton", "D", vec![SourceDocument::new("d1", "hello")]).unwrap();
//! system.run_until_quiet(SimTime::from_secs(20));
//! let inbox = system.take_notifications("London", client);
//! assert_eq!(inbox.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod actor;
pub mod aux;
mod core;
mod delivery;
mod message;
mod subs;
mod system;
mod transport;

pub use crate::core::{AlertingCore, CoreEffects};
pub use gsa_alerts::{
    AlertPolicyConfig, AlertState, DigestConfig, LabelKey, ThrottleConfig,
};
pub use actor::{AlertingActor, GdsActor, ReliabilityConfig, WireConfig};
pub use aux::{AuxProfile, AuxStore};
pub use message::{aux_from_xml, aux_to_xml, AuxPayload, SysMessage};
pub use subs::{Notification, SubscriptionManager};
pub use system::{SubscribeError, System};
