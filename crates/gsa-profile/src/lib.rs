//! The profile language of the Greenstone alerting service.
//!
//! Paper Section 5: "Each profile is a Boolean combination of a number of
//! attribute-value pairs (on macro level). ... Values might be sub-queries
//! (micro-level) such as: (1) a list of IDs, e.g., for hosts and
//! documents; (2) wildcards; or (3) filter queries."
//!
//! * [`Predicate`] — one attribute-value pair; the value is an
//!   [`AttrValue`]: equality, an ID list, a [`Wildcard`] or a retrieval
//!   [`Query`](gsa_store::Query) reusing the collection's own search
//!   semantics ("alerting as continuous searching").
//! * [`ProfileExpr`] — the Boolean macro level (AND/OR/NOT).
//! * [`Profile`] — an owned, identified profile, with the convenience
//!   constructors the paper's UI implies: [`Profile::watch_document`] (the
//!   "watch this" button) and [`Profile::from_search`] (a search turned
//!   continuous).
//! * [`parse::parse_profile`] — a textual syntax,
//! * [`xml`] — the wire encoding used when auxiliary profiles travel over
//!   the GS protocol.
//!
//! # Examples
//!
//! ```
//! use gsa_profile::parse_profile;
//! use gsa_types::{CollectionId, DocSummary, Event, EventId, EventKind, SimTime};
//!
//! let expr = parse_profile(r#"host = "London" AND text ? (digital AND librar*)"#)?;
//! let event = Event::new(
//!     EventId::new("London", 1),
//!     CollectionId::new("London", "E"),
//!     EventKind::DocumentsAdded,
//!     SimTime::ZERO,
//! )
//! .with_docs(vec![DocSummary::new("d1").with_excerpt("digital libraries rock")]);
//! assert!(expr.matches_event(&event));
//! # Ok::<(), gsa_profile::ParseProfileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod attr;
pub mod dnf;
mod expr;
mod interest;
mod parse;
mod profile;
pub mod xml;

pub use attr::{AttrValue, Predicate, ProfileAttr, Wildcard};
pub use dnf::{Conjunction, DnfError, Literal};
pub use interest::interests_of;
pub use expr::ProfileExpr;
pub use parse::{parse_profile, ParseProfileError};
pub use profile::Profile;
