//! The XML data model of the MIX mediator (paper Section 2).
//!
//! MIX abstracts XML as *labeled ordered trees*: every vertex has an id
//! from the set `O` (rendered `&XYZ123`, `&root1`, …) and a label from
//! the constant domain `D`; leaf labels are called *values*; the edges
//! out of a node are ordered. This crate provides:
//!
//! * [`Oid`] — vertex ids, including the *skolem* ids `crElt` builds
//!   ("semantically meaningful id's … that include all information
//!   necessary for tracing the ancestry of an object").
//! * [`Document`] — an arena-allocated labeled ordered tree with O(1)
//!   child append and sibling/child navigation.
//! * [`NavDoc`] — the navigation interface (`d`, `r`, `fl`, `fv` of the
//!   QDOM command set) implemented by in-memory documents and, in
//!   `mix-wrapper`, by lazy virtual views of relational databases.
//! * [`LabelPath`] — the path expressions of `getD` (label sequences
//!   that *include the start node's label*, plus `*` and `data()`).
//! * an XML text [`parser`](parse::parse_document) and
//!   [printers](mod@print) used to load file sources and to regenerate the
//!   paper's figures.

#![forbid(unsafe_code)]

pub mod nav;
pub mod oid;
pub mod parse;
pub mod path;
pub mod print;
pub mod tree;

pub use nav::{node_scalar, NavDoc, NodeRef, RenamedDoc};
pub use oid::Oid;
pub use parse::parse_document;
pub use path::{LabelPath, Step};
pub use tree::{Document, NodeContent};
