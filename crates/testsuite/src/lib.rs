//! Host crate for the workspace's cross-crate integration tests, and home
//! of the multi-process harness ([`process`]) that the CLI's end-to-end
//! tests and the cluster benches share.
//!
//! The test sources live in the repository-root `tests/` directory; run
//! them with `cargo test -p resacc-testsuite`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod process;
