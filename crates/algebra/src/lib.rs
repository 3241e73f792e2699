//! The XMAS algebra (paper Section 3).
//!
//! XMAS is *tuple-oriented*: operators consume and produce sets of
//! *binding lists* — tuples `[$v₁ = val₁, …, $vₖ = valₖ]` — "much in the
//! way that iterator models were built on the relational algebra and
//! enabled the pipelined evaluation of SQL queries". The fourteen
//! operators of the paper are all here:
//!
//! | # | paper | [`Op`] variant |
//! |---|-------|----------------|
//! | 1 | `mksrc_{&srcid,$X}` | [`Op::MkSrc`] |
//! | 2 | `getD_{$A.r→$X}` | [`Op::GetD`] |
//! | 3 | `select_θ` | [`Op::Select`] |
//! | 4 | `π̃_v` (projection, dup-elim) | [`Op::Project`] |
//! | 5 | `join_θ` | [`Op::Join`] |
//! | 6 | `l/rSemijoin_θ` | [`Op::SemiJoin`] |
//! | 7 | `crElt_{l,f(~g),$ch→$name}` | [`Op::CrElt`] |
//! | 8 | `cat_{$x,$y→$z}` | [`Op::Cat`] |
//! | 9 | `tD_{$A[,id]}` (tuple destroy) | [`Op::TupleDestroy`] |
//! | 10 | `groupBy_{gl→$name}` | [`Op::GroupBy`] |
//! | 11 | `apply_{p,$inp→$l}` | [`Op::Apply`] |
//! | 12 | `nestedSrc_{$x}` | [`Op::NestedSrc`] |
//! | 13 | `rQ_{s,q,m}` (relational query) | [`Op::RelQuery`] |
//! | 14 | `orderBy_{[$V…]}` | [`Op::OrderBy`] |
//!
//! plus [`Op::Empty`], the ⊥ plan rewrite rule 4 produces for
//! unsatisfiable paths.
//!
//! The crate also provides the Section 3 translation from the XQuery
//! subset into plans ([`translate()`]), plan validation (variable scoping
//! and join-disjointness), and the paper-figure-style pretty printer.

#![forbid(unsafe_code)]

pub mod builder;
pub mod cond;
pub mod equi;
pub mod op;
pub mod plan;
pub mod translate;
pub mod validate;

pub use builder::{xmas, PlanBuilder};
pub use cond::{Cond, CondArg};
pub use equi::{split_equi, EquiPair, EquiSplit, KeyKind};
pub use op::{CatArg, ChildSpec, Op, RqBinding, RqKind, Side};
pub use plan::Plan;
pub use translate::{translate, translate_with_root};
pub use validate::validate;
