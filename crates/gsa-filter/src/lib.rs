//! Local event filtering.
//!
//! Each Greenstone server filters incoming events against its locally
//! stored profiles (Section 4.2) using "a variant of the
//! equality-preferred algorithm" (Section 5, citing Fabret et al.). This
//! crate provides one engine that servers run and two reference
//! implementations it is tested against:
//!
//! * [`FilterEngine`] — the equality-preferred engine: profiles are
//!   normalized to DNF and every conjunction is posted in a hash index
//!   under **one** access key — a positive equality (or ID-list)
//!   predicate, a required term of a filter query, or a window of a
//!   wildcard's longest segment, 8 bytes wide where the segment allows —
//!   chosen for the shortest posting lists (access-predicate
//!   clustering). An event's attribute values, excerpt tokens and value
//!   windows turn up candidate conjunctions, and only on those are the
//!   remaining predicates verified: other equalities against the
//!   context's interned pairs, residuals (wildcards, retrieval queries,
//!   negations) by evaluation. It reports which documents satisfied each
//!   profile ([`DocMatch`]). The per-event state lives in a reusable
//!   [`MatchScratch`], so steady-state matching does not allocate on the
//!   equality path or for excerpt tokens.
//! * [`BaselineEngine`] — the first-generation string-keyed *counting*
//!   implementation (every conjunction posted under every equality
//!   predicate, hits counted per conjunction), kept as a test oracle and
//!   so experiment E3 can measure the current engine against it.
//! * [`NaiveFilter`] — the linear-scan baseline every profile is evaluated
//!   against every event; used by experiment E3 to show the shape of the
//!   equality-preferred speedup.
//!
//! All engines agree exactly on semantics (a property test in this crate
//! checks them against each other on randomized profiles and events).
//!
//! # Examples
//!
//! ```
//! use gsa_filter::{FilterEngine, MatchScratch};
//! use gsa_profile::parse_profile;
//! use gsa_types::{CollectionId, DocSummary, Event, EventId, EventKind, ProfileId, SimTime};
//!
//! let mut engine = FilterEngine::new();
//! engine.insert(
//!     ProfileId::from_raw(1),
//!     &parse_profile(r#"host = "London" AND text ? (digital)"#).unwrap(),
//! )?;
//! let event = Event::new(
//!     EventId::new("London", 1),
//!     CollectionId::new("London", "E"),
//!     EventKind::DocumentsAdded,
//!     SimTime::ZERO,
//! )
//! .with_docs(vec![DocSummary::new("d").with_excerpt("digital library")]);
//! assert_eq!(engine.matches(&event), vec![ProfileId::from_raw(1)]);
//!
//! // Batch path: reusable scratch state, no per-event allocation on the
//! // equality path.
//! let mut scratch = MatchScratch::new();
//! let mut matched = Vec::new();
//! engine.matches_into(&event, &mut scratch, &mut matched);
//! assert_eq!(matched, vec![ProfileId::from_raw(1)]);
//! # Ok::<(), gsa_profile::DnfError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod baseline;
mod engine;
mod intern;
mod naive;
mod postings;

pub use baseline::BaselineEngine;
pub use engine::{profile_ids, DocMatch, FilterEngine, FilterStats, MatchScratch};
pub use naive::NaiveFilter;

#[cfg(test)]
mod equivalence_tests;
