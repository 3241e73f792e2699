//! # MIX — Mixing Querying and Navigation
//!
//! A from-scratch Rust implementation of the MIX mediator
//! (Mukhopadhyay & Papakonstantinou, *Mixing Querying and Navigation in
//! MIX*, ICDE 2002): virtual XML views over relational databases with
//! **interleaved querying and navigation** through the QDOM API.
//!
//! ## Quick start
//!
//! ```
//! use mix::prelude::*;
//!
//! // The paper's Fig. 2 database, wrapped as XML sources root1/root2.
//! let (catalog, _db) = mix::wrapper::fig2_catalog();
//! let mediator = Mediator::new(catalog);
//! let mut session = mediator.session();
//!
//! // The running-example query Q1 (Fig. 3).
//! let p0 = session.query(
//!     "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
//!      WHERE $C/id/data() = $O/cid/data() \
//!      RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}",
//! ).unwrap();
//!
//! // Navigate the virtual result: nothing is computed until now.
//! let p1 = session.d(p0).unwrap().unwrap();                 // first CustRec
//! assert_eq!(session.fl(p1).unwrap().unwrap().as_str(), "CustRec");
//!
//! // Query *in place* from the CustRec node (decontextualization).
//! let p9 = session.q(
//!     "FOR $O IN document(root)/OrderInfo WHERE $O/order/value < 600 RETURN $O",
//!     p1,
//! ).unwrap();
//! assert_eq!(session.child_count(p9).unwrap(), 1);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | paper section |
//! |---|---|---|
//! | [`common`] | `mix-common` | values, names, counters |
//! | [`xml`] | `mix-xml` | §2 data model, oids/skolems, paths |
//! | [`relational`] | `mix-relational` | the relational source substrate |
//! | [`wrapper`] | `mix-wrapper` | Fig. 2 relational→XML wrapper |
//! | [`xquery`] | `mix-xquery` | Fig. 4 XQuery subset |
//! | [`algebra`] | `mix-algebra` | §3 XMAS algebra + translation |
//! | [`engine`] | `mix-engine` | §4 navigation-driven lazy evaluation |
//! | [`rewrite`] | `mix-rewrite` | §6 rewriting optimizer, Table 2, Fig. 22 SQL |
//! | [`qdom`] | `mix-qdom` | §2 QDOM API, §5 decontextualization |
//! | [`proto`] | `mix-proto` | the framed QDOM wire protocol |
//! | [`serve`] | `mix-serve` | multi-session server front-end |

#![forbid(unsafe_code)]

pub use mix_algebra as algebra;
pub use mix_common as common;
pub use mix_engine as engine;
pub use mix_obs as obs;
pub use mix_proto as proto;
pub use mix_qdom as qdom;
pub use mix_relational as relational;
pub use mix_rewrite as rewrite;
pub use mix_serve as serve;
pub use mix_wrapper as wrapper;
pub use mix_xml as xml;
pub use mix_xquery as xquery;

/// The names most programs need.
pub mod prelude {
    pub use mix_algebra::{translate, translate_with_root, validate, Plan};
    pub use mix_common::{
        intern, BackendError, BlockPolicy, BlockRows, CmpOp, ColumnBlock, Counter, Delta,
        FaultKind, MixError, Name, PrefetchPolicy, Result, ResultContext, RetryPolicy, Snapshot,
        Stats, Value, MAX_AUTO_BLOCK,
    };
    pub use mix_engine::{AccessMode, EvalContext, GByMode, VirtualResult};
    pub use mix_obs::{CollectingTracer, LogTracer, Tracer, TracerHandle};
    pub use mix_proto::{Command, Frame, Reply, WireNode, PROTO_VERSION};
    pub use mix_qdom::{
        Mediator, MediatorOptions, MediatorOptionsBuilder, QNode, QdomSession, SharedPlanCache,
    };
    pub use mix_relational::{
        active_prefetchers, prefetch_pool_workers, Backend, Database, FaultPolicy, Schema,
        ShardScheme, ShardSpec, ShardedDatabase,
    };
    pub use mix_rewrite::{optimize, rewrite, split_plan};
    pub use mix_serve::{Server, ServerConfig, WireClient, WireError};
    pub use mix_wrapper::{Catalog, RelationSource};
    pub use mix_xml::{Document, NavDoc, Oid};
    pub use mix_xquery::parse_query;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_round_trip() {
        let (catalog, _db) = crate::wrapper::fig2_catalog();
        let mediator = Mediator::new(catalog);
        let mut session = mediator.session();
        let p0 = session
            .query("FOR $C IN source(&root1)/customer RETURN $C")
            .unwrap();
        assert_eq!(session.child_count(p0).unwrap(), 2);
    }
}
