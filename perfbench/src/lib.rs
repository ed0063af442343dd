//! The repository benchmark: four workloads driven through the workspace
//! crates' public functions, timed over repeated passes, with every output
//! checked. See `README.md` in this directory for the workloads, the
//! metrics and how they relate.

pub mod algs;
pub mod harness;
pub mod paper;
pub mod stats;
pub mod trace;
pub mod workloads;
