//! The experiment harness.
//!
//! The paper has no quantitative evaluation section; its claims are
//! spread through Sections 2, 7 and 8. This crate turns every one of
//! them into a measurable experiment (the E-numbers come from
//! `DESIGN.md`):
//!
//! | id | claim | entry point |
//! |----|-------|-------------|
//! | E1 | filtering extends the build process "insignificantly" (§8) | `benches/e1_build_overhead.rs`, `bin/build_overhead.rs` |
//! | E2 | scalability of GDS alerting (§8 future work) | `bin/gds_scalability.rs` |
//! | E3 | equality-preferred filtering (§5) | `benches/e3_filter_throughput.rs`, `bin/filter_throughput.rs` |
//! | E4 | baselines suffer false positives/negatives (§2) | `bin/delivery_quality.rs` |
//! | E5 | partitions only delay, never corrupt (§7) | `bin/partition_healing.rs` |
//! | E6 | rendezvous nodes bottleneck (§2) | `bin/rendezvous_load.rs` |
//! | E7 | profile flooding costs memory, leaves orphans (§2) | `bin/profile_memory.rs` |
//! | E8 | durable-state cost: append and recovery (journal length × fill) | `bin/durability_sweep.rs` |
//! | F1–F3 | the three figures as executable scenarios | `benches/figures.rs`, integration tests |
//!
//! The library half provides the shared machinery: the delivery-quality
//! [`oracle`], the per-scheme [`runners`], and a plain-text [`table`]
//! formatter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod runners;
pub mod table;

pub use oracle::{Oracle, Quality};
pub use runners::{run_scheme, RunConfig, RunOutcome, Scheme};
pub use table::Table;
