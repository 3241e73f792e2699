//! # mix-workload
//!
//! The workload harness for the MIX reproduction: everything the
//! paper's evaluation section would have needed, turned into a
//! correctness amplifier.
//!
//! Three layers:
//!
//! * [`gen`] — seeded generation of scaled schema/data families
//!   (customers/orders and the auction scenario, via
//!   `mix_repro::datagen`), query templates spanning the full Fig. 4
//!   grammar, and mixed navigate/query/decontextualize/export session
//!   scripts. Deterministic: a seed *is* a workload.
//! * [`fuzz`] — the knob-matrix equivalence fuzzer: each generated
//!   session runs under the default options and under every variant
//!   (eager, row-store, block policies, nested-loop joins, naive
//!   plans, prefetch, chaos faults, cached plans, over the wire) and
//!   the transcripts must agree at the variant's normalization level.
//!   Failures are minimized automatically before they are reported.
//! * [`soak`] — the served-mode soak runner: N concurrent wire
//!   sessions looping scripts against `mix-serve` under chaos faults,
//!   recording throughput, per-class tail latencies, and counter
//!   invariants (shipped-data conservation, clean quiesce) for
//!   `BENCH_soak.json`.
//!
//! Binaries: `workload_fuzz` (CI smoke: fixed seed, bounded cases) and
//! `workload_soak` (`--smoke` for the seconds-scale CI run, full run
//! writes `BENCH_soak.json`).

#![forbid(unsafe_code)]

pub mod fuzz;
pub mod gen;
pub mod script;
pub mod soak;

pub use fuzz::{run_fuzz, Divergence, FuzzConfig, FuzzReport, Variant, ALL_VARIANTS};
pub use gen::{Dataset, Family, Rng};
pub use script::{gen_script, run_script, run_script_raw, Norm, Op, Reg, Script, Target};
pub use soak::{run_soak, SoakConfig, SoakOutcome};
