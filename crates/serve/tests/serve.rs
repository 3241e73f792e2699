//! The serve suite: lifecycle, admission control, budget, stale
//! handles, idle timeout, graceful shutdown, the wire-vs-in-process
//! equivalence pin, and the shared-state concurrency suite (shared
//! plan cache + pooled prefetch under the worker-pool server).

use mix_common::{MixError, PrefetchPolicy, Value};
use mix_engine::AccessMode;
use mix_obs::Counter;
use mix_proto::{read_frame, write_frame, Command, Frame, Reply, WireNode, PROTO_VERSION};
use mix_qdom::{Mediator, MediatorOptions, SharedPlanCache};
use mix_relational::active_prefetchers;
use mix_serve::{Server, ServerConfig, WireClient, WireError};
use mix_wrapper::fig2_catalog;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const Q1: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
     WHERE $C/id/data() = $O/cid/data() \
     RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";

const Q2: &str = "FOR $P IN document(root)/CustRec WHERE $P/customer/name < \"E\" RETURN $P";

const Q3: &str = "FOR $O IN document(root)/OrderInfo WHERE $O/order/value < 600 RETURN $O";

fn fig2_factory(prefetch: PrefetchPolicy) -> Arc<dyn Fn() -> Mediator + Send + Sync> {
    Arc::new(move || {
        let (cat, _db) = fig2_catalog();
        Mediator::with_options(
            cat,
            MediatorOptions::builder()
                .access(AccessMode::Lazy)
                .optimize(true)
                .prefetch(prefetch)
                .build(),
        )
    })
}

fn start(config: ServerConfig) -> Server {
    Server::start("127.0.0.1:0", config, fig2_factory(PrefetchPolicy::Off)).expect("bind")
}

/// The paper's Example 2.1 as a wire script; returns every observable
/// (labels, renders, counters) for comparison.
fn run_script_wire(client: &mut WireClient) -> Vec<String> {
    let mut out = Vec::new();
    let p0 = client.query(Q1).unwrap();
    let p1 = client.d(p0).unwrap().unwrap();
    out.push(format!("{:?}", client.fl(p1).unwrap()));
    let p4 = client.q(Q2, p0).unwrap();
    let p5 = client.d(p4).unwrap().unwrap();
    out.push(client.render(p5).unwrap());
    let p9 = client.q(Q3, p5).unwrap();
    out.push(client.child_count(p9).unwrap().to_string());
    out.push(client.render(p9).unwrap());
    out.push(format!("{:?}", client.export(p5, 0).unwrap()));
    out.push(format!("{:?}", client.stats().unwrap()));
    out
}

/// The same script in-process, via the named wrappers (which route
/// through the same `dispatch`).
fn run_script_local() -> Vec<String> {
    let m = fig2_factory(PrefetchPolicy::Off)();
    let mut s = m.session();
    let mut out = Vec::new();
    let p0 = s.query(Q1).unwrap();
    let p1 = s.d(p0).unwrap().unwrap();
    out.push(format!("{:?}", s.fl(p1).unwrap()));
    let p4 = s.q(Q2, p0).unwrap();
    let p5 = s.d(p4).unwrap().unwrap();
    out.push(s.render(p5));
    let p9 = s.q(Q3, p5).unwrap();
    out.push(s.child_count(p9).unwrap().to_string());
    out.push(s.render(p9));
    out.push(format!("{:?}", s.export(p5, 0).unwrap()));
    out.push(format!("{:?}", s.stats()));
    out
}

#[test]
fn wire_session_equals_in_process_session() {
    let mut server = start(ServerConfig::default());
    let mut client = WireClient::connect(server.addr()).unwrap();
    let wire = run_script_wire(&mut client);
    client.close().unwrap();
    let local = run_script_local();
    // Same renders, same export blocks, same work counters: the wire
    // and the in-process surface are one API.
    assert_eq!(wire, local);
    server.shutdown();
}

#[test]
fn sixty_four_concurrent_sessions_stay_bit_identical() {
    let mut server = start(ServerConfig {
        max_sessions: 128,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let expected = run_script_local();
    let handles: Vec<_> = (0..64)
        .map(|i| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr)
                    .unwrap_or_else(|e| panic!("session {i}: connect: {e}"));
                let got = run_script_wire(&mut client);
                assert_eq!(got, expected, "session {i} diverged");
                client.close().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("session thread");
    }
    assert_eq!(server.stats().get(mix_obs::Counter::SessionsOpened), 64);
    server.shutdown();
    assert_eq!(server.stats().get(mix_obs::Counter::SessionsClosed), 64);
    assert_eq!(server.live_sessions(), 0);
}

#[test]
fn admission_control_rejects_past_the_cap() {
    let mut server = start(ServerConfig {
        max_sessions: 2,
        ..ServerConfig::default()
    });
    let c1 = WireClient::connect(server.addr()).unwrap();
    let c2 = WireClient::connect(server.addr()).unwrap();
    match WireClient::connect(server.addr()) {
        Err(WireError::Rejected(reason)) => {
            assert!(reason.contains("session limit"), "{reason}")
        }
        Err(other) => panic!("expected rejection, got {other}"),
        Ok(_) => panic!("expected rejection, got a session"),
    }
    assert_eq!(server.stats().get(mix_obs::Counter::SessionsRejected), 1);
    // Closing a session frees the slot.
    c1.close().unwrap();
    // The slot release races with the close reply; retry briefly.
    let mut admitted = None;
    for _ in 0..100 {
        match WireClient::connect(server.addr()) {
            Ok(c) => {
                admitted = Some(c);
                break;
            }
            Err(WireError::Rejected(_)) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("{e}"),
        }
    }
    let c4 = admitted.expect("slot freed by close");
    c4.close().unwrap();
    c2.close().unwrap();
    server.shutdown();
}

#[test]
fn node_budget_rejects_new_queries_not_navigation() {
    let mut server = start(ServerConfig {
        node_budget: 2, // Q1 materializes more nodes than this
        ..ServerConfig::default()
    });
    let mut client = WireClient::connect(server.addr()).unwrap();
    // The first query is admitted (budget is checked at admission, so
    // a fresh session can always start working)...
    let p0 = client.query(Q1).unwrap();
    // ...and navigation keeps working even once the budget is spent.
    let p1 = client.d(p0).unwrap().unwrap();
    assert_eq!(client.fl(p1).unwrap().unwrap().as_str(), "CustRec");
    assert!(!client.render(p1).unwrap().is_empty());
    // But new result-creating commands are refused with a clean error.
    match client.query(Q1) {
        Err(WireError::Mix(MixError::Plan(msg))) => {
            assert!(msg.contains("budget"), "{msg}")
        }
        other => panic!("expected budget rejection, got {other:?}"),
    }
    match client.q(Q2, p0) {
        Err(WireError::Mix(MixError::Plan(msg))) => {
            assert!(msg.contains("budget"), "{msg}")
        }
        other => panic!("expected budget rejection, got {other:?}"),
    }
    // The session survived both rejections.
    assert!(client.child_count(p0).unwrap() > 0);
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn stale_handles_over_the_wire_answer_plan_errors() {
    let mut server = start(ServerConfig::default());
    let mut client = WireClient::connect(server.addr()).unwrap();
    // Forged handles: a result the session never produced, then a node
    // id past anything materialized.
    match client.fl(WireNode { result: 5, node: 0 }) {
        Err(WireError::Mix(MixError::Plan(msg))) => assert!(msg.contains("result"), "{msg}"),
        other => panic!("expected Plan error, got {other:?}"),
    }
    let p0 = client.query(Q1).unwrap();
    match client.d(WireNode {
        result: p0.result,
        node: 1_000_000,
    }) {
        Err(WireError::Mix(MixError::Plan(msg))) => assert!(msg.contains("node"), "{msg}"),
        other => panic!("expected Plan error, got {other:?}"),
    }
    // The session is still usable.
    assert!(client.d(p0).unwrap().is_some());
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn version_mismatch_is_rejected_at_handshake() {
    let mut server = start(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // A well-formed frame claiming a future protocol version: encode
    // Hello{v+1} under the current framing by patching the body byte
    // (the version *field*), not the envelope byte (which the codec
    // itself guards).
    let mut bytes = Frame::Hello {
        version: PROTO_VERSION,
    }
    .encode();
    let last = bytes.len() - 1;
    bytes[last] = PROTO_VERSION + 1;
    use std::io::Write;
    stream.write_all(&bytes).unwrap();
    match read_frame(&mut stream).unwrap() {
        Some((Frame::Reject { reason }, _)) => {
            assert!(reason.contains("version"), "{reason}")
        }
        other => panic!("expected Reject, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn idle_sessions_are_closed_with_bye() {
    let mut server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        },
        fig2_factory(PrefetchPolicy::Off),
    )
    .unwrap();
    let mut client = WireClient::connect(server.addr()).unwrap();
    // Say nothing; the server should Bye us out.
    client.wait_server_close().unwrap();
    server.shutdown();
    assert_eq!(server.stats().get(mix_obs::Counter::SessionsClosed), 1);
}

#[test]
fn graceful_shutdown_drains_sessions_and_joins_prefetchers() {
    let before = active_prefetchers();
    let mut server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default(),
        fig2_factory(PrefetchPolicy::Depth(2)),
    )
    .unwrap();
    // A few live sessions mid-work, with prefetching sessions among
    // them.
    let mut clients: Vec<WireClient> = (0..4)
        .map(|_| WireClient::connect(server.addr()).unwrap())
        .collect();
    for c in &mut clients {
        let p0 = c.query(Q1).unwrap();
        assert!(c.d(p0).unwrap().is_some());
    }
    server.shutdown();
    // Every worker joined: no session is live, open == closed, and no
    // prefetcher thread leaked.
    assert_eq!(server.live_sessions(), 0);
    assert_eq!(
        server.stats().get(mix_obs::Counter::SessionsOpened),
        server.stats().get(mix_obs::Counter::SessionsClosed)
    );
    assert_eq!(active_prefetchers(), before, "leaked prefetcher threads");
    // Clients see a clean Bye (or a closed socket), not a hang.
    for mut c in clients {
        let _ = c.wait_server_close();
    }
}

/// A factory whose mediators share one plan cache (and, implicitly,
/// the process-wide prefetch pool when `prefetch` is on). The catalog
/// is built once and *cloned* per session: cached plans are keyed by
/// backend identity (stable across clones, distinct across independent
/// `fig2_catalog()` calls), so sessions share templates only when they
/// front the same database — exactly a real server's shape.
fn shared_factory(
    shared: &Arc<SharedPlanCache>,
    prefetch: PrefetchPolicy,
) -> Arc<dyn Fn() -> Mediator + Send + Sync> {
    let shared = Arc::clone(shared);
    let (cat, _db) = fig2_catalog();
    Arc::new(move || {
        let cat = cat.clone();
        Mediator::with_options(
            cat,
            MediatorOptions::builder()
                .access(AccessMode::Lazy)
                .optimize(true)
                .prefetch(prefetch)
                .shared_plan_cache(Arc::clone(&shared))
                .build(),
        )
    })
}

/// One script pass over the wire, *without* the stats line (cache
/// hit/miss and prefetch counters legitimately differ when a session
/// rides plans another session compiled).
fn run_pass_wire(client: &mut WireClient) -> Vec<String> {
    let mut out = run_script_wire(client);
    out.pop();
    out
}

#[test]
fn shared_state_sessions_match_the_serial_baseline() {
    // The tentpole equivalence pin: N concurrent sessions over a
    // *shared* plan cache and the pooled prefetch executor produce
    // bit-for-bit the renders/exports of a cold serial session. Shared
    // state may change who compiles a plan — never what it computes.
    let shared = Arc::new(SharedPlanCache::default());
    let mut server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 64,
            ..ServerConfig::default()
        },
        shared_factory(&shared, PrefetchPolicy::Depth(2)),
    )
    .unwrap();
    let addr = server.addr();
    // Baseline: one serial in-process session (its own cache, no
    // prefetch) running the script twice — result-root names embed
    // session-local result indices, so pass 1 has its own baseline.
    let expected: Vec<Vec<String>> = {
        let m = fig2_factory(PrefetchPolicy::Off)();
        let mut s = m.session();
        (0..2)
            .map(|_| {
                let mut out = Vec::new();
                let p0 = s.query(Q1).unwrap();
                let p1 = s.d(p0).unwrap().unwrap();
                out.push(format!("{:?}", s.fl(p1).unwrap()));
                let p4 = s.q(Q2, p0).unwrap();
                let p5 = s.d(p4).unwrap().unwrap();
                out.push(s.render(p5));
                let p9 = s.q(Q3, p5).unwrap();
                out.push(s.child_count(p9).unwrap().to_string());
                out.push(s.render(p9));
                out.push(format!("{:?}", s.export(p5, 0).unwrap()));
                out
            })
            .collect()
    };
    // A serial warm-up session compiles every query class first, so
    // the concurrent fleet's reuse below is deterministic, not a race.
    {
        let mut warm = WireClient::connect(addr).unwrap();
        for (pass, want) in expected.iter().enumerate() {
            assert_eq!(&run_pass_wire(&mut warm), want, "warm-up pass {pass}");
        }
        warm.close().unwrap();
    }
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr)
                    .unwrap_or_else(|e| panic!("session {i}: connect: {e}"));
                // Two passes per session, interleaved with the other
                // fifteen sessions' passes.
                for (pass, want) in expected.iter().enumerate() {
                    let got = run_pass_wire(&mut client);
                    assert_eq!(&got, want, "session {i} pass {pass} diverged");
                }
                client.close().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("session thread");
    }
    // The cache actually crossed sessions. Only the Q3 issues are
    // cacheable (Q2 targets the result *root*, which composes with the
    // producing plan instead): the warm-up compiled Q3's two
    // templates (one per pass — the target result index differs), and
    // the fleet's 16 x 2 Q3 issues all ride them.
    let stats = shared.stats();
    assert!(
        stats.get(Counter::PlanCacheHits) >= 32,
        "expected cross-session plan reuse, got {} hits / {} misses",
        stats.get(Counter::PlanCacheHits),
        stats.get(Counter::PlanCacheMisses),
    );
    server.shutdown();
    assert_eq!(active_prefetchers(), 0, "leaked pooled prefetch jobs");
}

#[test]
fn sessions_multiplex_over_a_small_worker_pool() {
    // 16 concurrent sessions over 2 session workers: every session
    // completes the full script correctly even though sessions
    // outnumber workers 8:1 — a slow session can occupy at most one
    // worker, and the rest drain through the other.
    let mut server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 64,
            workers: 2,
            ..ServerConfig::default()
        },
        fig2_factory(PrefetchPolicy::Off),
    )
    .unwrap();
    assert_eq!(server.worker_count(), 2);
    let addr = server.addr();
    let expected = run_script_local();
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr)
                    .unwrap_or_else(|e| panic!("session {i}: connect: {e}"));
                let got = run_script_wire(&mut client);
                assert_eq!(got, expected, "session {i} diverged");
                client.close().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("session thread");
    }
    assert_eq!(server.stats().get(Counter::SessionsOpened), 16);
    server.shutdown();
    assert_eq!(server.stats().get(Counter::SessionsClosed), 16);
    assert_eq!(server.live_sessions(), 0);
}

#[test]
fn shared_cache_contention_and_eviction_stay_correct() {
    // A deliberately tiny shared cache (2 shards x 2 entries) under 8
    // sessions each issuing 12 distinct query classes: constant
    // eviction and shard contention, yet every answer stays correct
    // and the cache never exceeds its configured capacity.
    let shared = Arc::new(SharedPlanCache::new(2, 2));
    let mut server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 64,
            ..ServerConfig::default()
        },
        shared_factory(&shared, PrefetchPolicy::Off),
    )
    .unwrap();
    let addr = server.addr();
    // Distinct WHERE constants make distinct cache keys. The target
    // must be a *non-root* node (a `d`-derived CustRec): queries in
    // place at the result root compose with the producing plan and
    // never touch the cache — only decontextualized issues do.
    let values: Vec<u64> = (1..=12).map(|n| n * 100).collect();
    let class =
        |v: u64| format!("FOR $O IN document(root)/OrderInfo WHERE $O/order/value < {v} RETURN $O");
    let expected: Vec<u64> = {
        let m = fig2_factory(PrefetchPolicy::Off)();
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        let p1 = s.d(p0).unwrap().unwrap();
        values
            .iter()
            .map(|&v| {
                let p = s.q(&class(v), p1).unwrap();
                s.child_count(p).unwrap() as u64
            })
            .collect()
    };
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let values = values.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr)
                    .unwrap_or_else(|e| panic!("session {i}: connect: {e}"));
                let p0 = client.query(Q1).unwrap();
                let p1 = client.d(p0).unwrap().unwrap();
                // Walk the classes in a session-dependent order so
                // shards see interleaved, conflicting access patterns.
                for k in 0..values.len() {
                    let j = (k + i) % values.len();
                    let p = client.q(&class(values[j]), p1).unwrap();
                    assert_eq!(
                        client.child_count(p).unwrap(),
                        expected[j],
                        "session {i} class {j} diverged under eviction"
                    );
                }
                client.close().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("session thread");
    }
    assert!(
        shared.len() <= shared.shard_count() * shared.per_shard_cap(),
        "cache overflowed its cap: {} entries",
        shared.len()
    );
    // 96 nested issues over 12 classes that cannot all fit in a
    // 4-entry cache: each class was compiled at least once, and
    // eviction forced recompilations beyond the class count.
    assert!(
        shared.stats().get(Counter::PlanCacheMisses) >= 12,
        "hits {} misses {} contention {} len {}",
        shared.stats().get(Counter::PlanCacheHits),
        shared.stats().get(Counter::PlanCacheMisses),
        shared.stats().get(Counter::PlanCacheShardContention),
        shared.len(),
    );
    server.shutdown();
}

#[test]
fn pooled_prefetch_survives_server_shutdown_without_leaks() {
    // The pool-shutdown leak pin: sessions are abandoned mid-prefetch
    // (results half-read, rings full), the server shuts down, and the
    // process-wide prefetch gauge still lands exactly where it began —
    // cancellation reclaims every pooled job, not just happy-path ones.
    let before = active_prefetchers();
    let shared = Arc::new(SharedPlanCache::default());
    let mut server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 64,
            workers: 3,
            ..ServerConfig::default()
        },
        shared_factory(&shared, PrefetchPolicy::Depth(2)),
    )
    .unwrap();
    let mut clients: Vec<WireClient> = (0..8)
        .map(|_| WireClient::connect(server.addr()).unwrap())
        .collect();
    for c in &mut clients {
        // Start the query and navigate just far enough to arm the
        // prefetchers, then abandon the session without closing.
        let p0 = c.query(Q1).unwrap();
        assert!(c.d(p0).unwrap().is_some());
    }
    server.shutdown();
    assert_eq!(server.live_sessions(), 0);
    assert_eq!(
        active_prefetchers(),
        before,
        "pooled prefetch jobs leaked past shutdown"
    );
    for mut c in clients {
        let _ = c.wait_server_close();
    }
}

#[test]
fn raw_command_frames_and_byte_counters() {
    // Drive the protocol without WireClient to pin the frame-level
    // contract, and check the server's byte accounting moves.
    let mut server = start(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTO_VERSION,
        },
    )
    .unwrap();
    let (welcome, _) = read_frame(&mut stream).unwrap().unwrap();
    assert!(matches!(welcome, Frame::Welcome { .. }), "{welcome:?}");
    write_frame(&mut stream, &Frame::Cmd(Command::Query { text: Q1.into() })).unwrap();
    match read_frame(&mut stream).unwrap().unwrap() {
        (Frame::Rep(Reply::Node(n)), _) => assert_eq!(n.result, 0),
        (other, _) => panic!("expected Node reply, got {other:?}"),
    }
    // Export from the root: one row per CustRec, col 1 is the label.
    write_frame(
        &mut stream,
        &Frame::Cmd(Command::Export {
            p: WireNode { result: 0, node: 0 },
            max_rows: 0,
        }),
    )
    .unwrap();
    match read_frame(&mut stream).unwrap().unwrap() {
        (Frame::Rep(Reply::Block(b)), _) => {
            assert_eq!(b.len(), 2);
            assert_eq!(b.value_at(0, 1), Value::str("CustRec"));
        }
        (other, _) => panic!("expected Block reply, got {other:?}"),
    }
    write_frame(&mut stream, &Frame::Bye).unwrap();
    let (bye, _) = read_frame(&mut stream).unwrap().unwrap();
    assert!(matches!(bye, Frame::Bye));
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.get(mix_obs::Counter::WireCommands), 2);
    assert!(stats.get(mix_obs::Counter::WireBytesIn) > 0);
    assert!(stats.get(mix_obs::Counter::WireBytesOut) > 0);
}

/// A tracer that panics on the first span — the vehicle for a session
/// whose very first command blows up inside the engine.
struct PanickingTracer;

impl mix_obs::Tracer for PanickingTracer {
    fn span_start(
        &self,
        _name: &str,
        _parent: Option<mix_obs::SpanId>,
        _attrs: &[(&'static str, String)],
    ) -> mix_obs::SpanId {
        panic!("deliberate tracer panic (test)");
    }
    fn span_end(&self, _id: mix_obs::SpanId, _attrs: &[(&'static str, String)]) {}
    fn event(
        &self,
        _parent: Option<mix_obs::SpanId>,
        _name: &str,
        _attrs: &[(&'static str, String)],
    ) {
    }
}

/// One deliberately-panicking session must cost only itself: with a
/// single worker thread (the worst case — the panicking batch and every
/// other session share one thread and all the pool locks), sessions
/// before and after it keep serving, and shutdown stays clean.
#[test]
fn panicking_session_leaves_others_serving() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let n = Arc::new(AtomicUsize::new(0));
    let factory: Arc<dyn Fn() -> Mediator + Send + Sync> = Arc::new(move || {
        let (cat, _db) = fig2_catalog();
        let nth = n.fetch_add(1, Ordering::SeqCst);
        let mut b = MediatorOptions::builder()
            .access(AccessMode::Lazy)
            .optimize(true);
        if nth == 1 {
            // Second session gets the poisoned pill.
            b = b.tracer(mix_obs::TracerHandle::new(Arc::new(PanickingTracer)));
        }
        Mediator::with_options(cat, b.build())
    });
    let mut server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        factory,
    )
    .expect("bind");
    let addr = server.addr();

    let mut healthy = WireClient::connect(addr).expect("c1 connect");
    assert!(matches!(
        healthy.query(Q1).expect("c1 query"),
        WireNode { result: 0, node: 0 }
    ));

    // The doomed session: its first Query panics inside dispatch. The
    // server reports the panic as an error reply (or drops the
    // connection) — either way the *client* sees an error, not a hang,
    // and the server survives.
    let mut doomed = WireClient::connect(addr).expect("c2 connect");
    match doomed.query(Q1) {
        Err(_) => {}
        Ok(n) => panic!("doomed session should not serve, got {n:?}"),
    }

    // The first session keeps working on the same (sole) worker thread…
    let d = healthy.d(WireNode { result: 0, node: 0 }).unwrap().unwrap();
    assert_eq!(
        healthy.fl(d).unwrap().map(|n| n.to_string()),
        Some("CustRec".to_string())
    );

    // …and brand-new sessions still open.
    let mut late = WireClient::connect(addr).expect("c3 connect");
    late.query(Q1).expect("c3 query");
    late.close().ok();
    healthy.close().ok();

    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.get(Counter::SessionsOpened), 3);
    assert_eq!(
        stats.get(Counter::SessionsOpened),
        stats.get(Counter::SessionsClosed),
        "every session (panicking one included) must release its slot"
    );
}
