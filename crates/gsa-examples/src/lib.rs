//! Carrier package for the runnable examples living in the repository's
//! top-level `examples/` directory.
//!
//! Run them with, e.g.:
//!
//! ```text
//! cargo run -p gsa-examples --example quickstart
//! cargo run -p gsa-examples --example distributed_collections
//! cargo run -p gsa-examples --example federated_alerting
//! cargo run -p gsa-examples --example distributed_alerting
//! cargo run -p gsa-examples --example partition_healing
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
