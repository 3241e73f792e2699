//! The MIX server front-end: many concurrent QDOM sessions over the
//! framed wire protocol.
//!
//! The paper's architecture puts a thin navigation client on one side
//! of a network boundary and the mediator on the other. `mix-serve`
//! implements the mediator side of that boundary over `mix-proto`'s
//! framed protocol:
//!
//! * [`Server`] — a TCP listener that multiplexes every accepted
//!   connection over a **bounded worker pool**: one epoll-driven poller
//!   that accepts connections and decodes frames into per-session event
//!   queues, and a fixed number of session workers woken by a condvar
//!   (OS threads are bounded by [`ServerConfig::workers`], never by
//!   session count). Nothing polls on a timer: the poller blocks in
//!   `epoll_wait` until a socket is ready or an idle deadline is due,
//!   and workers block until a session has work, so an idle server
//!   does not wake at all. The engine is `Send + Sync` (`Arc`-based
//!   virtual results), so owned sessions migrate across workers
//!   between commands; the server builds a *fresh mediator per
//!   session* from a caller-supplied factory, and sessions share
//!   exactly what the factory wires in — e.g. a process-wide
//!   [`mix_qdom::SharedPlanCache`] and the pooled prefetch executor.
//!   The workspace carries no async runtime and no external crates:
//!   the listener is plain `std::net` with nonblocking sockets, and
//!   the readiness calls (`epoll`, `poll`) are declared against the
//!   libc std already links, in the crate's one module allowed to use
//!   `unsafe`. The server is Linux-only.
//! * Session lifecycle — a `Hello`/`Welcome` handshake (version
//!   checked), an idle timeout that closes silent sessions, and a
//!   clean `Bye` in both directions.
//! * Admission control — a `max_sessions` cap answered with
//!   `Frame::Reject` at handshake, and a per-session node budget
//!   answered with `Reply::Err` at query admission, so an overloaded
//!   server degrades with clean errors instead of collapsing.
//! * Graceful shutdown — [`Server::shutdown`] stops accepting, lets
//!   every in-flight command finish, sends `Bye`, joins every worker,
//!   and drops every session (which joins its prefetcher threads:
//!   `active_prefetchers()` returns to zero).
//! * [`WireClient`] — the thin client: connects, speaks the handshake,
//!   and exposes the same named methods as the in-process
//!   `QdomSession`, returning the same `MixError`s.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod client;
mod server;
#[allow(unsafe_code)]
mod sys;

pub use client::{WireClient, WireError};
pub use server::{MediatorFactory, Server, ServerConfig};
