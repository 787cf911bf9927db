//! Local event filtering.
//!
//! Each Greenstone server filters incoming events against its locally
//! stored profiles (Section 4.2) using "a variant of the
//! equality-preferred algorithm" (Section 5, citing Fabret et al.). This
//! crate provides the one engine that servers run:
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
//!
//! Two reference implementations are compiled only into this crate's
//! tests: `BaselineEngine`, the first-generation string-keyed *counting*
//! engine (every conjunction posted under every equality predicate, hits
//! counted per conjunction), and `NaiveFilter`, a linear scan that
//! evaluates every profile against every event. A property test checks
//! all three against each other on randomized profiles and events.
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

mod engine;
mod intern;
mod postings;

pub use engine::{profile_ids, DocMatch, FilterEngine, FilterStats, MatchScratch};

#[cfg(test)]
mod baseline;
#[cfg(test)]
mod equivalence_tests;
#[cfg(test)]
mod naive;
