//! Test support: deterministic workloads, the scheme runners and the
//! delivery-quality oracle.
//!
//! The paper evaluates against the real, unobservable Greenstone install
//! base; this crate synthesizes networks with the properties Section 1
//! names — *fragmented* (mostly solitary installations, islands),
//! *dynamic* and possibly *cyclic* — plus the collections, documents,
//! profiles and event schedules the integration tests need, plays them
//! through the hybrid service and the §2 baselines, and classifies what
//! each delivered. Everything is seeded: the same seed gives
//! byte-identical workloads.
//!
//! * `text` — Zipfian vocabulary and document synthesis,
//! * `topology` — fragmented Greenstone networks (islands, references,
//!   cycles) together with the collection structures that *cause* the
//!   references (remote sub-collections),
//! * `profiles` — profile populations with configurable operator mixes,
//! * `schedule` — event (rebuild) and churn (partition, cancellation)
//!   schedules,
//! * `faults` — seeded chaos plans (loss bursts, transient node
//!   crashes, partition waves) for robustness experiments,
//! * `runners` — one workload played through one alerting scheme,
//! * `oracle` — the ground-truth notification set a run is classified
//!   against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod faults;
mod oracle;
mod profiles;
mod runners;
mod schedule;
mod text;
mod topology;

pub use faults::{FaultAction, FaultPlan, FaultPlanParams};
pub use oracle::{Oracle, Quality};
pub use profiles::{ProfileMix, ProfilePopulation};
pub use runners::{run_scheme, RunConfig, RunOutcome, Scheme};
pub use schedule::{ChurnEvent, Rebuild, RebuildSchedule};
pub use text::DocumentGenerator;
pub use topology::{GsWorld, WorldParams};
