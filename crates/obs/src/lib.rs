//! Observability for the MIX mediator stack.
//!
//! The paper's performance argument is about *work avoided*: lazy
//! evaluation "produces the XML result tree as the user navigates into
//! it", and the rewriter pushes "the most restrictive queries" to the
//! sources so that "the minimum amount of data" is transferred. Those
//! claims are only checkable if the substrate observes its own work.
//! This crate holds the three observation mechanisms every other MIX
//! crate shares:
//!
//! * [`Stats`] — typed counters ([`Counter`]) with a point-in-time
//!   [`Snapshot`] and a [`Delta`] between two snapshots;
//! * [`Tracer`] — a span/event API with RAII guards and nesting, plus
//!   the built-in [`NullTracer`], [`CollectingTracer`] (in-memory,
//!   assertable in tests) and [`LogTracer`] (human-readable, gated on
//!   the `MIX_TRACE` environment variable);
//! * [`ExecProfile`] — per-plan-node pull/tuple accounting that powers
//!   the engine's `EXPLAIN ANALYZE` rendering.
//!
//! The crate sits below `mix-common` and has no dependencies, so every
//! layer — the relational executor, the wrappers, the engine, the QDOM
//! session — can report into the same substrate. Everything is
//! `Send + Sync` (atomic counters, `Arc`-shared tracers): one `Stats`
//! handle is shared by a session, its pooled prefetch producers, and
//! the server threads that observe it.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod counter;
mod profile;
mod trace;

pub use counter::{BlockRows, Counter, Delta, Snapshot, Stats};
pub use profile::{ExecProfile, OpMetrics};
pub use trace::{CollectingTracer, LogTracer, NullTracer, SpanGuard, SpanId, Tracer, TracerHandle};
