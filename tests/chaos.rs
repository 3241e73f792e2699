//! Fault-injection sweep: the fallible backend path end to end.
//!
//! The chaos backend injects deterministic, seeded faults *between*
//! the relational executor and the cursor. Transient faults are
//! scheduled on successful pulls and injected before any row of the
//! faulted block is produced, so a retried pull returns exactly the
//! rows the failed one would have — which is what makes the headline
//! assertion here ("retries succeed ⇒ results bit-for-bit identical to
//! the no-fault run") exact rather than probabilistic. Permanent faults exercise graceful degradation: the
//! navigated prefix of a result stays readable, everything past the
//! failure surfaces as [`MixError::Backend`].

use mix::prelude::*;
use mix_repro::datagen::{customers_orders, customers_orders_sharded, ShardLayout};

const Q1: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
     WHERE $C/id/data() = $O/cid/data() \
     RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";
const Q2: &str = "FOR $P IN document(root)/CustRec WHERE $P/customer/name < \"E\" RETURN $P";
const Q3: &str = "FOR $O IN document(root)/OrderInfo WHERE $O/order/value < 60000 RETURN $O";

const SEED: u64 = 0xC0FFEE;

/// Walk the whole subtree with the fallible navigation commands,
/// recording identity, label, and value of every node.
fn drain_tree(s: &mut QdomSession<'_>, p: QNode, out: &mut String) -> Result<()> {
    out.push_str(&format!("{} {:?} {:?}\n", s.oid(p), s.fl(p)?, s.fv(p)?));
    let mut cur = s.d(p)?;
    while let Some(c) = cur {
        drain_tree(s, c, out)?;
        cur = s.r(c)?;
    }
    Ok(())
}

/// Run the paper's Q1 (query), Q2 (composition), and Q3
/// (decontextualization) session and drain every result completely.
/// Returns the concatenated transcript plus the source-side stats.
fn q123_transcript(
    block: BlockPolicy,
    fault: Option<FaultPolicy>,
    retry: RetryPolicy,
) -> Result<(String, Stats)> {
    let (catalog, db) = customers_orders(12, 3, 17);
    let stats = db.stats().clone();
    db.set_fault_policy(fault);
    let m = Mediator::with_options(
        catalog,
        MediatorOptions::builder().block(block).retry(retry).build(),
    );
    let mut s = m.session();
    let mut out = String::new();
    let p0 = s.query(Q1)?;
    drain_tree(&mut s, p0, &mut out)?;
    let p4 = s.q(Q2, p0)?; // composition from the root
    drain_tree(&mut s, p4, &mut out)?;
    let p1 = s.d(p0)?.expect("Q1 has results");
    let p9 = s.q(Q3, p1)?; // decontextualization from a CustRec
    drain_tree(&mut s, p9, &mut out)?;
    Ok((out, stats))
}

/// The headline equivalence: 10%-per-block transient faults with the
/// default retry budget are invisible — every Q1–Q3 drain is bit-for-bit
/// identical to the no-fault run, across all block policies.
#[test]
fn transient_faults_with_retries_are_invisible() {
    let mut total_faults = 0;
    for block in [BlockPolicy::Off, BlockPolicy::Fixed(8), BlockPolicy::Auto] {
        let (clean, clean_stats) =
            q123_transcript(block, None, RetryPolicy::default()).expect("no-fault run");
        let (chaotic, stats) = q123_transcript(
            block,
            Some(FaultPolicy::transient(SEED, 100)),
            RetryPolicy::default(),
        )
        .unwrap_or_else(|e| panic!("chaos run failed under {block:?}: {e}"));
        assert_eq!(clean, chaotic, "divergence under {block:?}");
        // Retried blocks are accounted exactly once: the shipped-row
        // and shipped-block counters match the fault-free run.
        assert_eq!(
            clean_stats.get(Counter::TuplesShipped),
            stats.get(Counter::TuplesShipped),
            "retried rows double-counted under {block:?}"
        );
        assert_eq!(
            clean_stats.get(Counter::BlocksShipped),
            stats.get(Counter::BlocksShipped),
            "retried blocks double-counted under {block:?}"
        );
        // Burst-1 transient faults: every injected fault fails exactly
        // one pull, and every failed pull is re-issued exactly once.
        assert_eq!(
            stats.get(Counter::RetriesAttempted),
            stats.get(Counter::FaultsInjected),
            "under {block:?}"
        );
        assert_eq!(stats.get(Counter::BackendErrors), 0, "under {block:?}");
        total_faults += stats.get(Counter::FaultsInjected);
    }
    // The sweep actually exercised the fault path.
    assert!(total_faults > 0, "seed {SEED:#x} injected no faults");
}

/// A transient-fault burst longer than the retry budget exhausts it:
/// the navigation command that needed the data reports a transient
/// [`MixError::Backend`]; a budget covering the burst sails through.
#[test]
fn exhausted_retry_budget_surfaces_backend_error() {
    // Default budget is 4 retries; a burst of 9 outlasts it.
    let burst = FaultPolicy::transient(SEED, 1000).with_burst(9);
    let err = q123_transcript(BlockPolicy::Auto, Some(burst), RetryPolicy::default())
        .expect_err("burst must exhaust the default retry budget");
    assert!(
        matches!(err, MixError::Backend(_)),
        "expected a backend error, got: {err}"
    );
    assert!(err.is_transient(), "burst faults are transient: {err}");
    // A budget that covers the burst absorbs every fault.
    let generous = RetryPolicy {
        max_retries: 9,
        ..RetryPolicy::default()
    };
    let (clean, _) =
        q123_transcript(BlockPolicy::Auto, None, RetryPolicy::default()).expect("no-fault run");
    let (absorbed, stats) =
        q123_transcript(BlockPolicy::Auto, Some(burst), generous).expect("budget covers burst");
    assert_eq!(clean, absorbed);
    assert!(stats.get(Counter::RetriesAttempted) >= 9);
}

/// Graceful degradation under a permanent fault: rows before the
/// failure horizon stay navigable (and re-readable), the command that
/// first needs data past the horizon errors, and the error is latched —
/// asking again re-reports it instead of panicking or hanging.
#[test]
fn navigated_prefix_survives_permanent_fault() {
    let (catalog, db) = customers_orders(10, 2, 5);
    let stats = db.stats().clone();
    db.set_fault_policy(Some(FaultPolicy::fail_after(SEED, 3)));
    let m = Mediator::with_options(
        catalog,
        MediatorOptions::builder().block(BlockPolicy::Off).build(),
    );
    let mut s = m.session();
    let p0 = s
        .query("FOR $C IN source(&root1)/customer RETURN $C")
        .expect("plan compiles before any pull");
    // Navigate up to the horizon: 3 rows ship fine.
    let mut seen = Vec::new();
    let mut cur = s.d(p0).expect("row 1 is before the horizon");
    while let Some(c) = cur {
        seen.push(c);
        match s.r(c) {
            Ok(next) => cur = next,
            Err(e) => {
                assert!(
                    matches!(e, MixError::Backend(_)),
                    "expected a backend error, got: {e}"
                );
                assert!(!e.is_transient(), "permanent faults are not retryable");
                cur = None;
            }
        }
    }
    assert_eq!(seen.len(), 3, "exactly the pre-horizon rows are readable");
    // Error-path laziness: the fault at row 3 must not ship rows > 3.
    assert!(
        stats.get(Counter::TuplesShipped) <= 3,
        "shipped {} rows past a horizon of 3",
        stats.get(Counter::TuplesShipped)
    );
    // The materialized prefix stays fully readable after the failure.
    for &c in &seen {
        assert_eq!(s.fl(c).unwrap().unwrap().as_str(), "customer");
        let id_field = s.d(c).unwrap().expect("fields were materialized");
        let leaf = s.d(id_field).unwrap().unwrap();
        assert!(s.fv(leaf).unwrap().is_some());
    }
    // The failure is latched: re-asking past the end re-reports it.
    let last = *seen.last().unwrap();
    assert!(s.r(last).is_err(), "latched error must be re-reported");
    assert!(stats.get(Counter::BackendErrors) >= 1);
}

/// [`q123_transcript`] over the 4-way hash federation: same data, same
/// session script, but every rQ scatters (or routes) across shards and
/// results flow through the mediator's ordered k-way merge.
fn q123_sharded_transcript(
    block: BlockPolicy,
    fault: Option<FaultPolicy>,
    retry: RetryPolicy,
) -> Result<(String, Stats)> {
    let (catalog, sharded) = customers_orders_sharded(12, 3, 17, ShardLayout::Hash(4));
    let stats = sharded.stats().clone();
    sharded.set_fault_policy(fault);
    let m = Mediator::with_options(
        catalog,
        MediatorOptions::builder().block(block).retry(retry).build(),
    );
    let mut s = m.session();
    let mut out = String::new();
    let p0 = s.query(Q1)?;
    drain_tree(&mut s, p0, &mut out)?;
    let p4 = s.q(Q2, p0)?;
    drain_tree(&mut s, p4, &mut out)?;
    let p1 = s.d(p0)?.expect("Q1 has results");
    let p9 = s.q(Q3, p1)?;
    drain_tree(&mut s, p9, &mut out)?;
    Ok((out, stats))
}

/// The federation variant of the headline equivalence: 10%-per-block
/// transient faults across *all four shards* of a hash federation are
/// invisible under the default retry budget. The merge re-pulls only
/// the shard whose pull failed, so every Q1–Q3 drain is bit-for-bit
/// identical to the no-fault sharded run and no retried block is
/// double-counted.
#[test]
fn sharded_transient_faults_with_retries_are_invisible() {
    let mut total_faults = 0;
    for block in [BlockPolicy::Off, BlockPolicy::Fixed(8), BlockPolicy::Auto] {
        let (clean, clean_stats) =
            q123_sharded_transcript(block, None, RetryPolicy::default()).expect("no-fault run");
        let (chaotic, stats) = q123_sharded_transcript(
            block,
            Some(FaultPolicy::transient(SEED, 100)),
            RetryPolicy::default(),
        )
        .unwrap_or_else(|e| panic!("sharded chaos run failed under {block:?}: {e}"));
        assert_eq!(clean, chaotic, "sharded divergence under {block:?}");
        assert_eq!(
            clean_stats.get(Counter::TuplesShipped),
            stats.get(Counter::TuplesShipped),
            "retried shard rows double-counted under {block:?}"
        );
        assert_eq!(
            clean_stats.get(Counter::BlocksShipped),
            stats.get(Counter::BlocksShipped),
            "retried shard blocks double-counted under {block:?}"
        );
        assert_eq!(
            stats.get(Counter::RetriesAttempted),
            stats.get(Counter::FaultsInjected),
            "under {block:?}"
        );
        assert_eq!(stats.get(Counter::BackendErrors), 0, "under {block:?}");
        total_faults += stats.get(Counter::FaultsInjected);
    }
    assert!(
        total_faults > 0,
        "seed {SEED:#x} injected no faults on any shard"
    );
}

/// Kill-one-shard degradation: a permanent fault on one shard of a
/// 4-way hash scatter (a) keeps the merged prefix navigable and
/// bit-for-bit equal to the no-fault merge up to the point where the
/// merge first needs the dead shard, (b) latches the error — asking
/// again re-reports it, (c) keeps the already-materialized prefix
/// readable, and (d) leaves routed point queries that target healthy
/// shards fully usable in the same session.
#[test]
fn kill_one_shard_keeps_survivors_navigable() {
    const SCAN: &str = "FOR $C IN source(&root1)/customer RETURN $C";
    // The no-fault reference: all 12 customers, one transcript per row,
    // in merge order.
    let clean: Vec<String> = {
        let (catalog, _sharded) = customers_orders_sharded(12, 2, 5, ShardLayout::Hash(4));
        let m = Mediator::with_options(
            catalog,
            MediatorOptions::builder().block(BlockPolicy::Off).build(),
        );
        let mut s = m.session();
        let p0 = s.query(SCAN).expect("query");
        let mut rows = Vec::new();
        let mut cur = s.d(p0).expect("first row");
        while let Some(c) = cur {
            let mut one = String::new();
            drain_tree(&mut s, c, &mut one).expect("no-fault drain");
            rows.push(one);
            cur = s.r(c).expect("no-fault advance");
        }
        assert_eq!(rows.len(), 12);
        rows
    };

    // Same data, same layout; shard 2 dies after serving one row.
    let (catalog, sharded) = customers_orders_sharded(12, 2, 5, ShardLayout::Hash(4));
    let stats = sharded.stats().clone();
    let dead = 2;
    sharded
        .shard(dead)
        .set_fault_policy(Some(FaultPolicy::fail_after(SEED, 1)));
    let m = Mediator::with_options(
        catalog,
        MediatorOptions::builder().block(BlockPolicy::Off).build(),
    );
    let mut s = m.session();
    let p0 = s.query(SCAN).expect("plan compiles before any pull");
    let mut handles = Vec::new();
    let mut rows = Vec::new();
    let mut cur = s.d(p0).expect("healthy shards serve the merge head");
    while let Some(c) = cur {
        let mut one = String::new();
        drain_tree(&mut s, c, &mut one).expect("pre-horizon rows are fully readable");
        handles.push(c);
        rows.push(one);
        match s.r(c) {
            Ok(next) => cur = next,
            Err(e) => {
                assert!(
                    matches!(e, MixError::Backend(_)),
                    "expected a backend error, got: {e}"
                );
                assert!(!e.is_transient(), "a dead shard is not retryable");
                cur = None;
            }
        }
    }
    assert!(
        !rows.is_empty() && rows.len() < 12,
        "merge horizon: read {} of 12 rows",
        rows.len()
    );
    // The surviving prefix is exactly the clean merge's prefix.
    assert_eq!(
        rows[..],
        clean[..rows.len()],
        "prefix diverged from the no-fault merge"
    );
    assert!(stats.get(Counter::BackendErrors) >= 1);
    // The failure is latched per shard: re-asking past the horizon
    // re-reports it instead of hanging or panicking.
    let last = *handles.last().unwrap();
    assert!(
        s.r(last).is_err(),
        "latched shard error must be re-reported"
    );
    // The materialized prefix stays readable after the failure.
    for &c in &handles {
        assert_eq!(s.fl(c).unwrap().unwrap().as_str(), "customer");
    }
    // Routed queries that never touch the dead shard still work: point
    // lookups on ids living on healthy shards drain end to end.
    let healthy = (0..sharded.shard_count())
        .find(|&i| i != dead && !sharded.shard(i).table("customer").unwrap().is_empty())
        .expect("some healthy shard holds customers");
    let id_rows = sharded
        .shard(healthy)
        .execute_sql("SELECT c.id FROM customer c")
        .expect("healthy shard answers SQL")
        .collect_all()
        .expect("healthy shard scan");
    let id = id_rows[0][0].as_str().expect("text key").to_string();
    let routed_before = stats.get(Counter::ShardQueriesRouted);
    let q = format!("FOR $C IN source(&root1)/customer WHERE $C/id/data() = \"{id}\" RETURN $C");
    let pr = s.query(&q).expect("routed query plans");
    let mut out = String::new();
    drain_tree(&mut s, pr, &mut out).expect("routed query drains despite the dead shard");
    assert!(out.contains(&id), "point lookup found its row:\n{out}");
    assert!(
        stats.get(Counter::ShardQueriesRouted) > routed_before,
        "the point lookup must route, not scatter"
    );
}

/// Observability of the retry machinery: EXPLAIN ANALYZE annotates the
/// rQ node that retried, scheduled backoff shows up in the
/// `RetryBackoffMs` counter when the policy sleeps, and traced sessions
/// see `fault`/`retry` events.
#[test]
fn retries_show_in_explain_and_backoff_counter() {
    use std::sync::Arc;
    let (catalog, db) = customers_orders(12, 3, 17);
    let stats = db.stats().clone();
    db.set_fault_policy(Some(FaultPolicy::transient(SEED, 250)));
    let retry = RetryPolicy {
        max_retries: 4,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        deadline_ms: None,
    };
    let tracer = Arc::new(CollectingTracer::new());
    let handle = TracerHandle::new(Arc::clone(&tracer) as Arc<dyn Tracer>);
    let m = Mediator::with_options(
        catalog,
        MediatorOptions::builder()
            .retry(retry)
            .tracer(handle)
            .build(),
    );
    let mut s = m.session();
    let p0 = s.query(Q1).expect("query");
    let mut out = String::new();
    drain_tree(&mut s, p0, &mut out).expect("drain succeeds through retries");
    assert!(
        stats.get(Counter::RetriesAttempted) > 0,
        "no retries at 25%"
    );
    let explain = s.explain(p0);
    assert!(
        explain.contains(" retries="),
        "EXPLAIN ANALYZE must show per-rQ retry counts:\n{explain}"
    );
    assert!(
        stats.get(Counter::RetryBackoffMs) > 0,
        "1ms base backoff never registered"
    );
    let trace = tracer.render();
    assert!(
        trace.contains("fault") && trace.contains("retry"),
        "traced session must record fault/retry events:\n{trace}"
    );
}
