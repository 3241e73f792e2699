//! Root helper crate for the MIX reproduction workspace.
//!
//! All functionality lives in `crates/*` (re-exported through the
//! [`mix`] facade); this crate hosts the workspace-level `examples/`
//! and `tests/` directories plus shared synthetic-workload builders.

#![forbid(unsafe_code)]

pub use mix;

pub mod datagen;
