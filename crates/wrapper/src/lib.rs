//! The relational→XML wrapper (paper Fig. 2).
//!
//! MIX's "current system accesses XML files and relational database
//! sources, which are wrapped to offer an XML view of themselves". The
//! wrapper exports each relation as a virtual document
//!
//! ```text
//! &root1 list
//!   &XYZ123 customer          ← one element per tuple, oid = & + key
//!     &_0 id = XYZ123         ← one field element per column
//!     &_1 addr = LosAngeles
//!     &_2 name = XYZInc.
//! ```
//!
//! Two access modes:
//!
//! * [`RelationSource::materialize`] — build the whole [`mix_xml::Document`]
//!   (what a conventional, non-lazy mediator would do);
//! * [`RelationSource::lazy`] — a [`LazyRelationalDoc`] implementing
//!   [`NavDoc`] that issues `SELECT * FROM r ORDER BY key` on first
//!   child access and *fetches one tuple per `next_sibling` step*, so
//!   navigation that stops early ships only a prefix of the table
//!   (Section 4: "navigations are translated into either queries or
//!   moves of the cursors").
//!
//! [`Catalog`] names the sources (`root1`, `root2`, …) for `mksrc` and
//! records which are relational, exposing the schema information the
//! rewriter needs to push work into SQL.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod lazy;
pub mod relsource;

pub use catalog::{Catalog, Source};
pub use lazy::LazyRelationalDoc;
pub use relsource::RelationSource;

pub use mix_xml::NavDoc;

use mix_relational::Database;

/// Build the paper's Fig. 2 setup: the [`sample
/// database`](mix_relational::fixtures::sample_db) wrapped as sources
/// `root1` (customer tuples, element `customer`) and `root2` (order
/// tuples, element `order`), registered in a [`Catalog`].
pub fn fig2_catalog() -> (Catalog, Database) {
    let db = mix_relational::fixtures::sample_db();
    let mut cat = Catalog::new();
    cat.register_relation(RelationSource::new(
        db.clone(),
        "customer",
        "customer",
        "root1",
    ));
    cat.register_relation(RelationSource::new(db.clone(), "orders", "order", "root2"));
    (cat, db)
}

/// Wrap an arbitrary customers/orders database (e.g. from
/// [`gen_db`](mix_relational::fixtures::gen_db)) the same way as
/// [`fig2_catalog`].
pub fn wrap_customers_orders(db: Database) -> Catalog {
    let mut cat = Catalog::new();
    cat.register_relation(RelationSource::new(
        db.clone(),
        "customer",
        "customer",
        "root1",
    ));
    cat.register_relation(RelationSource::new(db, "orders", "order", "root2"));
    cat
}

/// Wrap a customers/orders database as a *sharded federation*:
/// `customer` partitioned by `id`, `orders` co-partitioned by `cid`,
/// registered under the same roots as [`wrap_customers_orders`]. The
/// returned [`ShardedDatabase`](mix_relational::ShardedDatabase)
/// handle drives per-shard knobs (fault
/// injection, latency) that the catalog's shared clone observes.
pub fn wrap_customers_orders_sharded(
    db: &Database,
    scheme: mix_relational::ShardScheme,
) -> mix_common::Result<(Catalog, mix_relational::ShardedDatabase)> {
    let spec = mix_relational::ShardSpec::new()
        .with("customer", "id")
        .with("orders", "cid");
    let sharded = mix_relational::ShardedDatabase::partition(db, spec, scheme)?;
    let mut cat = Catalog::new();
    cat.register_relation(RelationSource::new(
        sharded.clone(),
        "customer",
        "customer",
        "root1",
    ));
    cat.register_relation(RelationSource::new(
        sharded.clone(),
        "orders",
        "order",
        "root2",
    ));
    Ok((cat, sharded))
}
