//! QDOM — the Querible Document Object Model (paper Sections 2, 5, 6).
//!
//! QDOM is the client API "that natively supports interleaved querying
//! and navigation of XML data": the DOM-subset navigation commands
//!
//! * `d(p)` — first child,
//! * `r(p)` — right sibling,
//! * `fl(p)` — label fetch,
//! * `fv(p)` — value fetch,
//!
//! plus the *in-place query* command `q(query, p)`, which may be issued
//! from **any node `p`** reached by navigation and returns the root of a
//! new virtual answer document.
//!
//! Issuing `q` from the root of a previous result is *composition*
//! (Section 6): the view plan is spliced under the query and the
//! rewriter optimizes the combination. Issuing `q` from an interior
//! node is *decontextualization* (Section 5): the node's skolem id —
//! which encodes the bound variable and the enclosing group-by keys —
//! is decoded into fixing selections (`select($C = &XYZ123)`, Fig. 10),
//! producing a standalone query the sources can answer with no context
//! mechanism at all.

#![forbid(unsafe_code)]

pub mod decontext;
pub mod mediator;
pub(crate) mod plancache;
pub mod session;
pub mod splice;

pub use mediator::{Mediator, MediatorOptions, MediatorOptionsBuilder};
pub use plancache::{SharedPlanCache, DEFAULT_PLAN_CACHE_CAP};
pub use session::{QNode, QdomSession, ResultInfo};
