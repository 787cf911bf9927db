//! Carrier package for the cross-crate integration tests in the
//! repository's top-level `tests/` directory and the runnable examples
//! in its `examples/` directory: `cargo test -p gsa-integration`, and
//! `cargo run -p gsa-integration --example <name>`.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
