//! A deterministic discrete-event network simulator.
//!
//! Every protocol in this workspace — the Greenstone (GS) protocol, the
//! Greenstone Directory Service (GDS) protocol, the alerting service and
//! the baseline comparators — runs over this simulator. It replaces the
//! physical testbed of Greenstone installations the paper's authors had:
//! nodes are protocol actors, links have latency/jitter/loss, nodes can
//! fail and recover, and the network can be partitioned and healed
//! mid-run — which is how the severed link of the paper's Section 7 is
//! modelled. Runs are fully deterministic given a seed, which is what
//! makes the reproduced experiments repeatable.
//!
//! # Model
//!
//! * An [`Actor`] reacts to messages and timers via [`Ctx`], which buffers
//!   its outputs (sends, new timers, counter increments) and lends it
//!   what the simulator owns: the RNG and the name ↔ node table
//!   ([`Ctx::resolve`], [`Ctx::name_of`]).
//! * The [`Sim`] owns all actors, a priority queue of pending deliveries
//!   and timers, the one [`LinkConfig`] every node pair shares, the name
//!   of every node — stored once — and the metrics.
//! * Physical connectivity is *universal by default* (the Internet), with
//!   explicit partitions and downed nodes taking precedence. A node that
//!   goes down loses its timers; back up, it runs [`Actor::on_start`]
//!   again. Fragmentation in the paper's sense — who *references* whom —
//!   is a property of the protocols above, not of this layer.
//!
//! # Examples
//!
//! ```
//! use gsa_simnet::{Actor, Ctx, NodeId, Sim};
//! use gsa_types::SimTime;
//!
//! struct Echo;
//! impl Actor<String> for Echo {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, String>, from: NodeId, msg: String) {
//!         if msg == "ping" {
//!             ctx.send(from, "pong".to_string());
//!         }
//!     }
//! }
//!
//! #[derive(Default)]
//! struct Probe {
//!     replies: Vec<String>,
//! }
//! impl Actor<String> for Probe {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, String>) {
//!         ctx.send(NodeId::from_raw(0), "ping".to_string());
//!     }
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_, String>, _from: NodeId, msg: String) {
//!         self.replies.push(msg);
//!     }
//! }
//!
//! let mut sim = Sim::new(42);
//! sim.add_node("echo", Echo);
//! let probe = sim.add_node("probe", Probe::default());
//! sim.run_until_quiet(SimTime::from_secs(10));
//! let replies = sim.actor::<Probe, _>(probe, |p| p.replies.clone()).unwrap();
//! assert_eq!(replies, ["pong"]);
//! assert_eq!(sim.metrics().counter("net.delivered"), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod actor;
mod link;
mod metrics;
mod sim;

pub use actor::{Actor, Ctx};
pub use link::LinkConfig;
pub use metrics::{CounterId, Histogram, Metrics};
pub use sim::{NodeId, Sim, TraceEntry};
