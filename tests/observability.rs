//! The observability layer, end to end: QDOM commands as root spans,
//! operator spans under the navigation that demanded them, SQL/row
//! events from the sources, and the laziness claim stated as "zero
//! operator spans until navigation".

use mix::prelude::*;
use std::sync::Arc;

/// Q1 flattened: one `R` element per matching (customer, order) pair.
/// Small enough to pin its whole span tree.
const QJ: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
     WHERE $C/id/data() = $O/cid/data() \
     RETURN <R> $O </R> {$C, $O}";

fn traced_mediator(
    access: AccessMode,
    optimize: bool,
    hash_joins: bool,
) -> (Arc<CollectingTracer>, Mediator) {
    let (catalog, _db) = mix::wrapper::fig2_catalog();
    let tracer = Arc::new(CollectingTracer::new());
    let handle = TracerHandle::new(Arc::clone(&tracer) as Arc<dyn Tracer>);
    let m = Mediator::with_options(
        catalog,
        MediatorOptions::builder()
            .access(access)
            .optimize(optimize)
            .hash_joins(hash_joins)
            .tracer(handle)
            .build(),
    );
    (tracer, m)
}

#[test]
fn unnavigated_lazy_query_emits_no_operator_spans() {
    let (t, m) = traced_mediator(AccessMode::Lazy, false, true);
    {
        let mut s = m.session();
        let _p0 = s.query(QJ).unwrap();
        // No navigation: the virtual result exists, nothing ran.
    }
    assert_eq!(t.span_names(), vec!["cmd:query".to_string()]);
}

#[test]
fn lazy_span_tree_for_one_navigation_step() {
    let (t, m) = traced_mediator(AccessMode::Lazy, false, true);
    {
        let mut s = m.session();
        let p0 = s.query(QJ).unwrap();
        let p1 = s.d(p0).unwrap().unwrap();
        assert_eq!(s.fl(p1).unwrap().unwrap().as_str(), "R");
    }
    // Operator spans open at first pull — inside cmd:d, not cmd:query —
    // in demand order (top of the plan first), and close with their
    // pull/tuple totals when the session drops the streams. The SQL
    // each source issues (and every shipped row) surfaces as events
    // under the mksrc that demanded it: the probe side ships only one
    // customer, the hash build drains all three orders.
    let text = t.render();
    let expected = "\
cmd:query
cmd:d
  crElt node=1 depth=1 pulls=1 tuples=1
    gBy node=2 depth=2 mode=hash pulls=1 tuples=1
      join node=3 depth=3 kernel=hash pulls=1 tuples=1
        getD node=4 depth=4 pulls=1 tuples=1
          getD node=5 depth=5 pulls=1 tuples=1
            mksrc node=6 depth=6 src=root1 pulls=1 tuples=1
              - sql server=db1 stmt=SELECT * FROM customer ORDER BY id
              - row n=1
        getD node=7 depth=4 pulls=4 tuples=3
          getD node=8 depth=5 pulls=4 tuples=3
            mksrc node=9 depth=6 src=root2 pulls=4 tuples=3
              - sql server=db1 stmt=SELECT * FROM orders ORDER BY orid
              - row n=1
              - row n=2
              - row n=3
cmd:fl
";
    assert_eq!(text, expected);
    assert!(text.contains("kernel=hash"));
    assert!(!text.contains("kernel=nl"));
}

#[test]
fn eager_span_tree_is_strictly_nested_under_the_query() {
    let (t, m) = traced_mediator(AccessMode::Eager, false, true);
    {
        let mut s = m.session();
        let p0 = s.query(QJ).unwrap();
        let p1 = s.d(p0).unwrap().unwrap();
        assert_eq!(s.fl(p1).unwrap().unwrap().as_str(), "R");
    }
    // Eager evaluation does all the work inside cmd:query; the later
    // cmd:d/cmd:fl navigate an already-materialized document.
    let text = t.render();
    let expected = "\
cmd:query
  crElt node=1 tuples=3
    gBy node=2 tuples=3
      join node=3 kernel=hash tuples=3
        getD node=4 tuples=2
          getD node=5 tuples=2
            mksrc node=6 tuples=2
              - sql server=db1 stmt=SELECT * FROM customer ORDER BY id
              - row n=1
              - row n=2
        getD node=7 tuples=3
          getD node=8 tuples=3
            mksrc node=9 tuples=3
              - sql server=db1 stmt=SELECT * FROM orders ORDER BY orid
              - row n=1
              - row n=2
              - row n=3
cmd:d
cmd:fl
";
    assert_eq!(text, expected);
    assert!(text.contains("kernel=hash"));
    assert!(!text.contains("kernel=nl"));
}

#[test]
fn nl_fallback_is_visible_in_spans() {
    let (t, m) = traced_mediator(AccessMode::Lazy, false, false);
    {
        let mut s = m.session();
        let p0 = s.query(QJ).unwrap();
        let _ = s.d(p0).unwrap().unwrap();
    }
    let text = t.render();
    assert!(text.contains("kernel=nl"), "{text}");
    assert!(!text.contains("kernel=hash"), "{text}");
}

#[test]
fn sql_and_row_events_nest_under_the_demanding_command() {
    // Optimized lazy run: the join is pushed to SQL; issuing the SQL
    // and each shipped row surface as events.
    let (t, m) = traced_mediator(AccessMode::Lazy, true, true);
    {
        let mut s = m.session();
        let p0 = s.query(QJ).unwrap();
        let _ = s.d(p0).unwrap().unwrap();
    }
    let text = t.render();
    assert!(text.contains("- sql server=db1"), "{text}");
    assert!(text.contains("- row n=1"), "{text}");
}

/// A traced mediator over fig2's data partitioned as a 2-way hash
/// federation (customer by id, orders co-partitioned by cid). Returns
/// the federation handle so tests can read the shard counters.
fn traced_sharded_mediator() -> (Arc<CollectingTracer>, ShardedDatabase, Mediator) {
    let db = mix::relational::fixtures::sample_db();
    let (catalog, sharded) =
        mix::wrapper::wrap_customers_orders_sharded(&db, ShardScheme::Hash { shards: 2 })
            .expect("fig2 spec covers both tables");
    let tracer = Arc::new(CollectingTracer::new());
    let handle = TracerHandle::new(Arc::clone(&tracer) as Arc<dyn Tracer>);
    let m = Mediator::with_options(
        catalog,
        MediatorOptions::builder()
            .access(AccessMode::Lazy)
            .optimize(true)
            .tracer(handle)
            .build(),
    );
    (tracer, sharded, m)
}

/// A shard-key point lookup routes to exactly one shard: one SQL event,
/// `shards=1/2` on the rQ, `ShardQueriesRouted` up, no scatter merge.
#[test]
fn routed_point_query_targets_one_shard() {
    let (t, sharded, m) = traced_sharded_mediator();
    {
        let mut s = m.session();
        let p0 = s
            .query("FOR $C IN source(&root1)/customer WHERE $C/id/data() = \"XYZ123\" RETURN $C")
            .unwrap();
        let _ = s.d(p0).unwrap().unwrap();
        let explain = s.explain(p0);
        assert!(explain.contains("shards=1/2"), "{explain}");
    }
    let text = t.render();
    let expected = "\
cmd:query
  - sql server=db1 stmt=SELECT c1.id, c1.addr, c1.name FROM customer c1 WHERE c1.id = 'XYZ123' ORDER BY c1.id
cmd:d
  rQ node=1 depth=1 server=db1 sql=SELECT c1.id, c1.addr, c1.name FROM customer c1 WHERE c1.id = 'XYZ123' ORDER BY c1.id block=auto shards=1/2 pulls=1 tuples=1
    - row n=1
";
    assert_eq!(text, expected);
    assert_eq!(sharded.stats().get(Counter::ShardQueriesRouted), 1);
    assert_eq!(sharded.stats().get(Counter::ShardsTargeted), 1);
    assert_eq!(sharded.stats().get(Counter::ScatterMerges), 0);
}

/// A pushed-down co-partitioned join with no shard-key constant
/// scatters: one SQL event per shard, `shards=2/2` on the rQ,
/// `ScatterMerges` up, both shards targeted, nothing routed. Rows
/// still ship lazily — one navigation step pulls exactly one row.
#[test]
fn scatter_join_fans_out_and_merges() {
    let (t, sharded, m) = traced_sharded_mediator();
    {
        let mut s = m.session();
        let p0 = s.query(QJ).unwrap();
        let _ = s.d(p0).unwrap().unwrap();
        let explain = s.explain(p0);
        assert!(explain.contains("shards=2/2"), "{explain}");
    }
    let text = t.render();
    let expected = "\
cmd:query
  - sql server=db1 stmt=SELECT c1.id, c1.addr, c1.name, o1.orid, o1.cid, o1.value FROM customer c1, orders o1 WHERE c1.id = o1.cid ORDER BY c1.id, o1.orid
  - sql server=db1 stmt=SELECT c1.id, c1.addr, c1.name, o1.orid, o1.cid, o1.value FROM customer c1, orders o1 WHERE c1.id = o1.cid ORDER BY c1.id, o1.orid
cmd:d
  crElt node=1 depth=1 pulls=1 tuples=1
    gBy node=2 depth=2 mode=presorted pulls=1 tuples=1
      rQ node=3 depth=3 server=db1 sql=SELECT c1.id, c1.addr, c1.name, o1.orid, o1.cid, o1.value FROM customer c1, orders o1 WHERE c1.id = o1.cid ORDER BY c1.id, o1.orid block=auto shards=2/2 pulls=1 tuples=1
        - row n=1
";
    assert_eq!(text, expected);
    assert_eq!(sharded.stats().get(Counter::ScatterMerges), 1);
    assert_eq!(sharded.stats().get(Counter::ShardsTargeted), 2);
    assert_eq!(sharded.stats().get(Counter::ShardQueriesRouted), 0);
}

#[test]
fn explain_renders_three_plans_with_counts() {
    let (_t, m) = traced_mediator(AccessMode::Lazy, true, true);
    let mut s = m.session();
    let p0 = s.query(QJ).unwrap();
    let before = s.explain(p0);
    assert!(before.contains("== logical plan =="), "{before}");
    assert!(before.contains("== optimized plan =="), "{before}");
    assert!(before.contains("== physical plan =="), "{before}");
    // Nothing navigated yet: every operator is unpulled.
    assert!(before.contains("[never pulled]"), "{before}");
    let _ = s.d(p0).unwrap().unwrap();
    let after = s.explain(p0);
    assert!(after.contains("[pulls=1 tuples=1]"), "{after}");
}
