//! The XQuery subset of the MIX mediator (paper Fig. 4).
//!
//! ```text
//! Query        ::= ForClause WhereClause? ReturnClause
//! ForClause    ::= FOR Variable IN PathExpression
//!                | ForClause [,] Variable IN PathExpression
//! WhereClause  ::= WHERE PathExpression RelOp PathExpression
//!                | WhereClause AND PathExpression RelOp PathExpression
//! ReturnClause ::= RETURN Element
//! Element      ::= <Label> ElementList </Label> OptGroupByList
//!                | Variable
//! ElementList  ::= Element | Query | ElementList ElementList
//! OptGroupByList ::= { GroupByList } | (empty)
//! GroupByList  ::= Variable | GroupByList , Variable
//! ```
//!
//! plus what the paper's examples use: `document("src")`, `source(&src)`
//! and `document(root)` bases (the `root` keyword names the node a
//! query-in-place was issued from), constants in WHERE comparisons, and
//! the `data()` accessor. The group-by lists `{$v}` follow the group-by
//! extension the paper cites \[8\].

#![forbid(unsafe_code)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod print;

pub use ast::{Condition, Element, ForBinding, Item, Operand, PathBase, Query, ReturnExpr};
pub use parser::parse_query;
pub use print::print_query;
