//! End-to-end and per-layer benchmark of the SaSeVAL campaign server.
//!
//! `main.rs` runs one workload per invocation; the modules here hold
//! the pieces it is built from, so the test suite in `tests/` can check
//! them on their own. See `README.md` for the workloads and metrics.

pub mod frame;
pub mod layers;
pub mod load;
pub mod spans;
pub mod stats;
pub mod workload;
