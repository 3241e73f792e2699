//! Longer QDOM sessions: chained queries-in-place, multiple sources,
//! XML file sources, and the API's error paths.

use mix::prelude::*;
use mix_repro::datagen::auction_db;

const Q1: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
     WHERE $C/id/data() = $O/cid/data() \
     RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";

#[test]
fn chained_queries_in_place() {
    // query → navigate → refine from root → navigate → query from node
    // → query again from the *new* result's root.
    let (catalog, _) = mix::wrapper::fig2_catalog();
    let m = Mediator::new(catalog);
    let mut s = m.session();
    let p0 = s.query(Q1).unwrap();
    let p4 = s
        .q(
            "FOR $P IN document(root)/CustRec WHERE $P/customer/name < \"Z\" RETURN $P",
            p0,
        )
        .unwrap();
    assert_eq!(s.child_count(p4).unwrap(), 2);
    let p5 = s.d(p4).unwrap().unwrap();
    let p9 = s
        .q(
            "FOR $O IN document(root)/OrderInfo WHERE $O/order/value > 0 RETURN $O",
            p5,
        )
        .unwrap();
    assert_eq!(s.child_count(p9).unwrap(), 1); // DEF345 has one order
                                               // Compose once more from the newest result's root.
    let p10 = s
        .q(
            "FOR $X IN document(root)/OrderInfo WHERE $X/order/value < 1000 RETURN $X",
            p9,
        )
        .unwrap();
    assert_eq!(s.child_count(p10).unwrap(), 1); // the 500 order again
}

#[test]
fn auction_session_multiple_refinements() {
    let (catalog, _) = auction_db(60, 5, 77);
    let m = Mediator::new(catalog);
    let mut s = m.session();
    let p0 = s
        .query(
            "FOR $C IN document(cameras)/camera $L IN document(lenses)/lens \
         WHERE $C/id/data() = $L/camid/data() AND $C/price/data() < 500 \
         RETURN <Listing> $C <Lens> $L </Lens> {$L} </Listing> {$C}",
        )
        .unwrap();
    let all = s.child_count(p0).unwrap();
    assert!(all > 0);
    let p1 = s
        .q(
            "FOR $P IN document(root)/Listing WHERE $P/camera/rating >= 2 RETURN $P",
            p0,
        )
        .unwrap();
    let rated = s.child_count(p1).unwrap();
    assert!(rated <= all);
    if let Some(listing) = s.d(p1).unwrap() {
        let lenses = s
            .q(
                "FOR $L IN document(root)/Lens WHERE $L/lens/cost < 800 RETURN $L",
                listing,
            )
            .unwrap();
        assert_eq!(s.child_count(lenses).unwrap(), 5); // every lens qualifies
    }
}

#[test]
fn xml_file_source_sessions() {
    let mut catalog = Catalog::new();
    catalog.register_xml(
        mix::xml::parse_document(
            "books",
            r#"<list>
                 <book oid="B1"><title>Mediators</title><year>1992</year></book>
                 <book oid="B2"><title>XMAS</title><year>2000</year></book>
                 <book oid="B3"><title>QDOM</title><year>2002</year></book>
               </list>"#,
        )
        .unwrap(),
    );
    let m = Mediator::new(catalog);
    let mut s = m.session();
    let p = s
        .query("FOR $B IN document(books)/book WHERE $B/year > 1999 RETURN <hit> $B </hit> {$B}")
        .unwrap();
    assert_eq!(s.child_count(p).unwrap(), 2);
    let hit = s.d(p).unwrap().unwrap();
    assert_eq!(s.fl(hit).unwrap().unwrap().as_str(), "hit");
    let book = s.d(hit).unwrap().unwrap();
    assert_eq!(s.oid(book).to_string(), "&B2");
    // In-place query from a constructed node over a file source works
    // too — the whole plan just runs at the mediator.
    let refined = s
        .q(
            "FOR $B IN document(root)/book WHERE $B/year > 2001 RETURN $B",
            hit,
        )
        .unwrap();
    assert_eq!(s.child_count(refined).unwrap(), 0); // B2 is from 2000
}

#[test]
fn error_paths_are_reported() {
    let (catalog, _) = mix::wrapper::fig2_catalog();
    let m = Mediator::new(catalog);
    let mut s = m.session();
    // Unknown source.
    assert!(s.query("FOR $X IN document(nosuch)/a RETURN $X").is_err());
    // Syntax error.
    assert!(s.query("FOR bad syntax").is_err());
    // Unbound variable.
    assert!(s
        .query("FOR $C IN source(&root1)/customer RETURN $D")
        .is_err());
    // document(root) outside q().
    assert!(s.query("FOR $X IN document(root)/a RETURN $X").is_err());
    // q() from a leaf (no skolem context).
    let p0 = s.query(Q1).unwrap();
    let rec = s.d(p0).unwrap().unwrap();
    let cust = s.d(rec).unwrap().unwrap(); // a source-copied customer node
    let err = s
        .q("FOR $X IN document(root)/id RETURN $X", cust)
        .unwrap_err();
    assert!(err.to_string().contains("constructed"), "{err}");
}

#[test]
fn navigation_is_stable_and_repeatable() {
    let (catalog, _) = mix::wrapper::fig2_catalog();
    let m = Mediator::new(catalog);
    let mut s = m.session();
    let p0 = s.query(Q1).unwrap();
    let a1 = s.d(p0).unwrap().unwrap();
    let a2 = s.d(p0).unwrap().unwrap();
    assert_eq!(a1, a2);
    assert_eq!(s.oid(a1), s.oid(a2));
    // Deep revisits produce identical handles.
    let b1 = s.d(a1).unwrap().unwrap();
    let _ = s.r(b1);
    let b2 = s.d(a1).unwrap().unwrap();
    assert_eq!(b1, b2);
}

#[test]
fn unsatisfiable_in_place_query_yields_empty_result() {
    let (catalog, _) = mix::wrapper::fig2_catalog();
    let m = Mediator::new(catalog);
    let mut s = m.session();
    let p0 = s.query(Q1).unwrap();
    let p = s
        .q("FOR $X IN document(root)/NoSuchThing RETURN $X", p0)
        .unwrap();
    assert_eq!(s.child_count(p).unwrap(), 0);
    assert!(s.fl(p).unwrap().is_some());
}

#[test]
fn eager_sessions_support_decontextualization_too() {
    let (catalog, _) = mix::wrapper::fig2_catalog();
    let m = Mediator::with_options(
        catalog,
        MediatorOptions::builder().access(AccessMode::Eager).build(),
    );
    let mut s = m.session();
    let p0 = s.query(Q1).unwrap();
    let rec = s.d(p0).unwrap().unwrap();
    let p = s
        .q(
            "FOR $O IN document(root)/OrderInfo WHERE $O/order/value > 0 RETURN $O",
            rec,
        )
        .unwrap();
    assert_eq!(s.child_count(p).unwrap(), 1);
}

#[test]
fn federated_mediators_stay_lazy() {
    // Section 4: "a MIX mediator can be such a source to another MIX
    // mediator" — and the whole stack stays navigation-driven.
    let (lower_catalog, db) = mix_repro::datagen::customers_orders(500, 2, 99);
    let stats = db.stats().clone();
    let lower = Mediator::new(lower_catalog);
    let mut ls = lower.session();
    let view_root = ls.query(Q1).unwrap();

    let mut upper_catalog = Catalog::new();
    upper_catalog.register_nav("custview", ls.export_result(view_root, "custview"));
    let upper = Mediator::new(upper_catalog);
    let mut us = upper.session();
    stats.reset();
    let p = us
        .query("FOR $R IN document(custview)/CustRec RETURN <Account> $R </Account> {$R}")
        .unwrap();
    assert_eq!(
        stats.get(Counter::TuplesShipped),
        0,
        "still virtual after two queries"
    );
    let a1 = us.d(p).unwrap().unwrap();
    assert_eq!(us.fl(a1).unwrap().unwrap().as_str(), "Account");
    let shipped_one = stats.get(Counter::TuplesShipped);
    assert!(
        shipped_one <= 6,
        "one account ⇒ a handful of tuples, got {shipped_one}"
    );
    // Draining everything ships the rest.
    let mut n = 1;
    let mut cur = us.r(a1).unwrap();
    while let Some(c) = cur {
        n += 1;
        cur = us.r(c).unwrap();
    }
    assert_eq!(n, 500);
    assert!(stats.get(Counter::TuplesShipped) >= 1000);
    // The federated content matches the lower view's content.
    let inner = us.d(a1).unwrap().unwrap();
    assert_eq!(us.fl(inner).unwrap().unwrap().as_str(), "CustRec");
}

#[test]
fn schema_prune_avoids_sql_entirely() {
    // The paper's source-schema extension: a query down a path the
    // wrapper schema cannot produce issues NO SQL at all.
    let (catalog, db) = mix::wrapper::fig2_catalog();
    let stats = db.stats().clone();
    let m = Mediator::new(catalog);
    let mut s = m.session();
    stats.reset();
    let p = s
        .query("FOR $C IN source(&root1)/customer $X IN $C/bogus RETURN $X")
        .unwrap();
    assert_eq!(s.child_count(p).unwrap(), 0);
    assert_eq!(
        stats.get(Counter::SqlQueries),
        0,
        "no SQL for a schema-impossible query"
    );
    // Sanity: a schema-valid query does issue SQL.
    let p2 = s
        .query("FOR $C IN source(&root1)/customer $X IN $C/name RETURN $X")
        .unwrap();
    assert_eq!(s.child_count(p2).unwrap(), 2);
    assert!(stats.get(Counter::SqlQueries) > 0);
}

#[test]
fn decontextualized_query_ships_single_sql() {
    // The full Section 5 + Section 6 pipeline: an in-place query from a
    // CustRec node becomes ONE pushed SQL statement carrying the node's
    // key, with only restructuring left at the mediator.
    let (catalog, _) = mix::wrapper::fig2_catalog();
    let m = Mediator::new(catalog);
    let mut s = m.session();
    let p0 = s.query(Q1).unwrap();
    let p1 = s.d(p0).unwrap().unwrap();
    let p9 = s
        .q(
            "FOR $O IN document(root)/OrderInfo WHERE $O/order/value < 600 RETURN $O",
            p1,
        )
        .unwrap();
    let text = s.result_info(p9).exec_plan.render();
    assert_eq!(text.matches("rQ(").count(), 1, "{text}");
    assert!(text.contains("'DEF345'"), "{text}");
    assert!(text.contains("< 600"), "{text}");
    assert_eq!(s.child_count(p9).unwrap(), 1);
}

#[test]
fn shared_plan_cache_never_crosses_backends() {
    // Regression: the shared plan-cache key must include backend
    // identity. Two mediators over *different* databases (or different
    // shard layouts of the same data) issue identical query texts at
    // identical skolem shapes; a cached decontextualized template bakes
    // in catalog-specific split decisions, so replaying one mediator's
    // template in the other is unsound even when it happens to run.
    use std::sync::Arc;
    let cache = Arc::new(SharedPlanCache::new(2, 16));
    let run = |catalog: Catalog| {
        let opts = MediatorOptions::builder()
            .shared_plan_cache(Arc::clone(&cache))
            .build();
        let m = Mediator::with_options(catalog, opts);
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        let p1 = s.d(p0).unwrap().unwrap();
        let p9 = s
            .q(
                "FOR $O IN document(root)/OrderInfo WHERE $O/order/value < 600 RETURN $O",
                p1,
            )
            .unwrap();
        assert_eq!(s.child_count(p9).unwrap(), 1);
    };
    let hits = || cache.stats().get(Counter::PlanCacheHits);
    let misses = || cache.stats().get(Counter::PlanCacheMisses);

    // First mediator compiles and caches the navigation template...
    let (cat_a, db_a) = mix::wrapper::fig2_catalog();
    run(cat_a);
    assert_eq!((hits(), misses()), (0, 1));
    // ...and a second mediator over the *same* database hits it (the
    // fingerprint is stable across catalog clones).
    run(mix::wrapper::wrap_customers_orders(db_a.clone()));
    assert_eq!((hits(), misses()), (1, 1));
    // A mediator over a *different* database — same schema, same server
    // name, same query text — must miss and compile its own template.
    let (cat_b, _db_b) = mix::wrapper::fig2_catalog();
    run(cat_b);
    assert_eq!((hits(), misses()), (1, 2));
    // So must a *sharded layout of the very same data*: the split
    // decisions (and routed SQL) depend on the layout.
    let (cat_sharded, _handle) =
        mix::wrapper::wrap_customers_orders_sharded(&db_a, ShardScheme::Hash { shards: 2 })
            .unwrap();
    run(cat_sharded);
    assert_eq!((hits(), misses()), (1, 3));
}

#[test]
fn shared_plan_cache_never_crosses_views() {
    // Regression: a cached decontextualized template is only valid for
    // the view it was decontextualized against. Two sessions over the
    // same backend, sharing one cache, issue the same in-place query
    // from the same skolem shape of their first result — but one
    // session's view filters orders. Keying the template on the
    // producing result's *index* let the plain view replay the
    // filtered view's plan and silently drop its orders.
    use std::sync::Arc;
    let (catalog, _) = mix_repro::datagen::customers_orders(20, 2, 7);
    let filtered = Q1.replace(
        "WHERE $C/id/data() = $O/cid/data()",
        "WHERE $C/id/data() = $O/cid/data() AND $O/value/data() > 50000",
    );
    let cache = Arc::new(SharedPlanCache::default());
    // (children of the in-place answer, session PlanCacheHits)
    let run = |view: &str, cache: Option<&Arc<SharedPlanCache>>| {
        let mut opts = MediatorOptions::builder();
        if let Some(c) = cache {
            opts = opts.shared_plan_cache(Arc::clone(c));
        }
        let m = Mediator::with_options(catalog.clone(), opts.build());
        let mut s = m.session();
        let p0 = s.query(view).unwrap();
        let rec = s.d(p0).unwrap().unwrap();
        let p = s
            .q("FOR $O IN document(root)/OrderInfo RETURN $O", rec)
            .unwrap();
        let hits = s.ctx().stats().get(Counter::PlanCacheHits);
        (s.child_count(p).unwrap(), hits)
    };
    // The plain view's first CustRec carries both of its orders.
    assert_eq!(run(Q1, None), (2, 0));
    run(&filtered, Some(&cache));
    assert_eq!(run(Q1, Some(&cache)), (2, 0));
    // Sessions over the *same* view still share the template.
    assert_eq!(run(Q1, Some(&cache)), (2, 1));
}
