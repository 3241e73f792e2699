//! Deterministic equivalence checks: the implementation's load-bearing
//! equivalences, exercised over seeded generated databases.
//!
//! * lazy (navigation-driven) evaluation ≡ eager evaluation;
//! * optimized (rewritten + SQL-pushed) plans ≡ naive plans;
//! * the pipelined SQL executor ≡ the naive reference evaluator;
//! * rewriting is sound on composed plans.

use mix::prelude::*;
use mix::relational::fixtures::Lcg;

/// Query templates over the customers/orders schema, parameterized by
/// an integer threshold.
const TEMPLATES: &[&str] = &[
    // plain scan
    "FOR $C IN source(&root1)/customer RETURN $C",
    // selection on a leaf value
    "FOR $O IN document(root2)/order WHERE $O/value > {N} RETURN $O",
    // join + grouping (the Q1 shape)
    "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
     WHERE $C/id/data() = $O/cid/data() \
     RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}",
    // join + selection, bare-var return
    "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
     WHERE $C/id/data() = $O/cid/data() AND $O/value > {N} RETURN $C",
    // element construction without grouping
    "FOR $O IN document(root2)/order WHERE $O/value <= {N} \
     RETURN <cheap> $O </cheap>",
];

fn instantiate(template: &str, n: i64) -> String {
    template.replace("{N}", &n.to_string())
}

/// Strip oids from a rendering (plan rewrites may rename skolem
/// variable tags; content must still agree).
fn content_only(rendered: &str) -> String {
    rendered
        .lines()
        .map(|l| {
            let trimmed = l.trim_start();
            let indent = &l[..l.len() - trimmed.len()];
            let rest = match trimmed.strip_prefix('&') {
                Some(r) => r.split_once(' ').map(|(_, rest)| rest).unwrap_or(""),
                None => trimmed,
            };
            format!("{indent}{rest}")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn run_with(options: MediatorOptions, catalog: &Catalog, query: &str) -> String {
    let mediator = Mediator::with_options(catalog.clone(), options);
    let mut s = mediator.session();
    let p = s.query(query).expect("query runs");
    s.render(p)
}

fn opts(optimize: bool, access: AccessMode) -> MediatorOptions {
    MediatorOptions::builder()
        .access(access)
        .optimize(optimize)
        .build()
}

/// Lazy ≡ eager and optimized ≡ naive on generated databases.
#[test]
fn four_way_equivalence() {
    let mut rng = Lcg(2002);
    for case in 0..24u64 {
        let n_customers = 1 + rng.below(11) as usize;
        let orders_per = rng.below(5) as usize;
        let seed = rng.below(500);
        let template_idx = (case % TEMPLATES.len() as u64) as usize;
        let threshold = rng.below(100_000) as i64;
        let (catalog, _db) = mix_repro::datagen::customers_orders(n_customers, orders_per, seed);
        let query = instantiate(TEMPLATES[template_idx], threshold);
        let reference = content_only(&run_with(opts(false, AccessMode::Eager), &catalog, &query));
        for (optimize, access) in [
            (false, AccessMode::Lazy),
            (true, AccessMode::Eager),
            (true, AccessMode::Lazy),
        ] {
            let got = content_only(&run_with(opts(optimize, access), &catalog, &query));
            assert_eq!(
                got, reference,
                "case {case}: optimize={optimize} access={access:?} query={query}"
            );
        }
    }
}

/// The hash join/semi-join kernels produce the *identical tuple
/// sequence* as the nested-loop kernels — same content, same oids, same
/// order — across generated databases, both access modes, and both
/// optimizer settings. (The hash kernels preserve left-major order by
/// keeping buckets in build-input arrival order; this pins that claim.)
#[test]
fn hash_and_nested_loop_join_kernels_agree() {
    let mut rng = Lcg(909);
    for case in 0..20u64 {
        let n_customers = 1 + rng.below(12) as usize;
        let orders_per = rng.below(5) as usize;
        let seed = rng.below(500);
        let threshold = rng.below(100_000) as i64;
        let template_idx = (case % TEMPLATES.len() as u64) as usize;
        let (catalog, _db) = mix_repro::datagen::customers_orders(n_customers, orders_per, seed);
        let query = instantiate(TEMPLATES[template_idx], threshold);
        for optimize in [false, true] {
            for access in [AccessMode::Lazy, AccessMode::Eager] {
                let mut renders = Vec::new();
                for hash_joins in [true, false] {
                    let options = MediatorOptions::builder()
                        .access(access)
                        .optimize(optimize)
                        .hash_joins(hash_joins)
                        .build();
                    renders.push(run_with(options, &catalog, &query));
                }
                // Exact equality: oids and sibling order included.
                assert_eq!(
                    renders[0], renders[1],
                    "case {case}: optimize={optimize} access={access:?} query={query}"
                );
            }
        }
    }
}

/// All four `groupBy` kernels (presorted stateless, stateful, hash,
/// auto) produce identical results on key-contiguous inputs — the Q1
/// shape, whose gBy inputs the sortedness analysis proves contiguous —
/// and the order-insensitive kernels also agree with each other on
/// arbitrary inputs.
#[test]
fn gby_kernels_agree() {
    let mut rng = Lcg(424);
    for case in 0..10u64 {
        let n_customers = 1 + rng.below(9) as usize;
        let orders_per = rng.below(4) as usize;
        let seed = rng.below(300);
        let (catalog, _db) = mix_repro::datagen::customers_orders(n_customers, orders_per, seed);
        // The Q1 join+group shape (provably contiguous gBy inputs).
        let query = instantiate(TEMPLATES[2], 0);
        for optimize in [false, true] {
            let reference = run_with(
                MediatorOptions::builder()
                    .optimize(optimize)
                    .gby(GByMode::StatelessPresorted)
                    .build(),
                &catalog,
                &query,
            );
            for gby in [GByMode::Stateful, GByMode::Hash, GByMode::Auto] {
                let got = run_with(
                    MediatorOptions::builder()
                        .optimize(optimize)
                        .gby(gby)
                        .build(),
                    &catalog,
                    &query,
                );
                assert_eq!(
                    got, reference,
                    "case {case}: optimize={optimize} gby={gby:?}"
                );
            }
        }
    }
}

/// The pipelined SQL executor agrees with the cartesian-product
/// reference evaluator.
#[test]
fn sql_executor_matches_reference() {
    let mut rng = Lcg(77);
    for case in 0..25u64 {
        let n_customers = 1 + rng.below(14) as usize;
        let orders_per = rng.below(5) as usize;
        let seed = rng.below(500);
        let threshold = rng.below(100_000) as i64;
        let qidx = (case % 5) as usize;
        let db = mix::relational::fixtures::gen_db(n_customers, orders_per, seed);
        let sqls = [
            format!("SELECT * FROM orders WHERE value > {threshold}"),
            "SELECT c.id, o.orid FROM customer c, orders o WHERE c.id = o.cid ORDER BY c.id, o.orid".to_string(),
            format!("SELECT DISTINCT c.id FROM customer c, orders o WHERE c.id = o.cid AND o.value > {threshold}"),
            "SELECT c1.id FROM customer c1, customer c2 WHERE c1.id = c2.id".to_string(),
            format!("SELECT o.orid, o.value FROM orders o WHERE o.value <= {threshold} ORDER BY o.orid"),
        ];
        let stmt = mix::relational::parse_sql(&sqls[qidx]).unwrap();
        let mut fast = db.execute(&stmt).unwrap().collect_all().unwrap();
        let mut slow = mix::relational::reference::eval_reference(&db, &stmt).unwrap();
        if stmt.order_by.is_empty() {
            let key = |r: &Vec<Value>| {
                r.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("\u{1}")
            };
            fast.sort_by_key(key);
            slow.sort_by_key(key);
        }
        assert_eq!(fast, slow, "case {case}: {}", sqls[qidx]);
    }
}

/// Rewriting composed plans is sound: the optimized composed query
/// and the naive composed query produce the same content.
#[test]
fn composition_rewrite_soundness() {
    let mut rng = Lcg(555);
    for case in 0..12u64 {
        let n_customers = 1 + rng.below(9) as usize;
        let orders_per = 1 + rng.below(3) as usize;
        let seed = rng.below(200);
        let threshold = rng.below(100_000) as i64;
        let (catalog, _db) = mix_repro::datagen::customers_orders(n_customers, orders_per, seed);
        const VIEW: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
             WHERE $C/id/data() = $O/cid/data() \
             RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";
        let report = format!(
            "FOR $R IN document(v)/CustRec $S IN $R/OrderInfo \
             WHERE $S/order/value > {threshold} RETURN $R"
        );
        let mut results = Vec::new();
        for optimize in [true, false] {
            let mut mediator =
                Mediator::with_options(catalog.clone(), opts(optimize, AccessMode::Lazy));
            mediator.define_view("v", VIEW).unwrap();
            let mut s = mediator.session();
            let p = s.query(&report).unwrap();
            results.push(content_only(&s.render(p)));
        }
        assert_eq!(results[0], results[1], "case {case}: thr={threshold}");
    }
}
