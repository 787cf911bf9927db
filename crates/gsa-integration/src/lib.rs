//! Carrier package for the cross-crate integration tests living in the
//! repository's top-level `tests/` directory.
//!
//! Run them with `cargo test -p gsa-integration`.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
