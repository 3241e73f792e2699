//! The traced run: the per-layer breakdown of one workload.
//!
//! Layers are measured from outside, by timing calls into each crate's
//! public functions and by reading the existing counters:
//!
//! 1. **Untraced and traced** (60% of the budget, in alternating
//!    slices of about 250 ms): the workload as in the end-to-end run,
//!    which gives the denominators of layer coverage, and the same
//!    items on a second system whose mediators carry [`SpanClock`], a
//!    tracer that timestamps the `cmd:*` spans and counts `sql` events.
//!    The throughput ratio is the tracing overhead.
//! 2. **Counted and probed** (the rest): a fixed number of items run
//!    in process with every command captured; counter deltas over
//!    exactly those items give the count metrics. The captured
//!    sessions are then replayed in process with each query compiled
//!    stage by stage beside the real dispatch (parse → translate →
//!    compose/decontextualize → optimize → rewrite → split → validate
//!    → instantiate → first pull), the largest drained results are
//!    split into engine and relational time, and a prefix is replayed
//!    over a loopback wire session for the serve and proto layers.

use crate::client::is_nav;
use crate::measure::{median_f, percentile, process_cpu_us, Report};
use crate::workload::{
    allowed_cpus, confine_current_thread, pooled, start_server, Focus, Mode, Opener, Stop, Workload,
};
use mix::algebra::{Op, Plan};
use mix::obs::SpanId;
use mix::prelude::*;
use mix::qdom::decontext::decontextualize;
use mix::qdom::splice::{compose, references_source};
use mix::rewrite::schema_prune;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A bench-owned tracer: wall-clock durations of the session's `cmd:*`
/// spans, and the number of SQL statements issued.
#[derive(Default)]
pub struct SpanClock {
    next: AtomicU64,
    open: Mutex<HashMap<u64, (String, Instant)>>,
    closed: Mutex<Vec<(String, u64)>>,
    sql: AtomicU64,
}

impl Tracer for SpanClock {
    fn span_start(
        &self,
        name: &str,
        _parent: Option<SpanId>,
        _attrs: &[(&'static str, String)],
    ) -> SpanId {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        if name.starts_with("cmd:") {
            self.open
                .lock()
                .expect("span clock lock")
                .insert(id, (name.to_string(), Instant::now()));
        }
        SpanId(id)
    }

    fn span_end(&self, id: SpanId, _attrs: &[(&'static str, String)]) {
        let started = self.open.lock().expect("span clock lock").remove(&id.0);
        if let Some((name, t)) = started {
            let ns = t.elapsed().as_nanos() as u64;
            self.closed
                .lock()
                .expect("span clock lock")
                .push((name, ns));
        }
    }

    fn event(&self, _parent: Option<SpanId>, name: &str, _attrs: &[(&'static str, String)]) {
        if name == "sql" {
            self.sql.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Query samples the compile probe takes at most.
const COMPILE_SAMPLES: usize = 240;
/// Drained results the engine/relational split probes at most.
const DRAIN_PROBES: usize = 8;
/// Results with fewer `d`/`r` commands than this are not drains.
const MIN_DRAIN_CMDS: u64 = 8;
/// Commands the wire replay sends at most.
const WIRE_REPLAY: usize = 3000;

/// Compile-stage timings of one top-level query or in-place query.
#[derive(Default, Clone)]
struct Stages {
    parse: f64,
    translate: f64,
    splice: f64,
    optimize: f64,
    rewrite: f64,
    split: f64,
    validate: f64,
    instantiate: f64,
    first_pull: f64,
    rules: usize,
    /// The real dispatch of the same command, in a replay session.
    e2e: f64,
    decontext: bool,
}

impl Stages {
    /// Everything the real command does before returning its root.
    fn covered(&self) -> f64 {
        self.parse
            + self.translate
            + self.splice
            + self.optimize
            + self.rewrite
            + self.validate
            + self.instantiate
    }
}

/// The median of nanosecond samples, in microseconds.
fn p50_us(ns: &[u64]) -> f64 {
    percentile(ns, 50.0).map_or(0.0, |v| v as f64 / 1e3)
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// The rewritten, schema-pruned plan `optimize` splits.
fn pre_split(plan: &Plan, catalog: &Catalog) -> Plan {
    let mut out = rewrite(plan).plan;
    while let Some(pruned) = schema_prune(&out, catalog) {
        out = rewrite(&pruned).plan;
    }
    out
}

/// Compile `text` stage by stage as the session would. `from` is the
/// node and producing result of an in-place query (`None` for a
/// top-level query).
fn compile_stages(
    med: &Mediator,
    s: &QdomSession<'static>,
    scratch: &Arc<EvalContext>,
    text: &str,
    from: Option<(QNode, bool)>,
    result_name: &str,
) -> Option<Stages> {
    let mut st = Stages::default();
    let t = Instant::now();
    let q = parse_query(text).ok()?;
    st.parse = us_since(t);
    let t = Instant::now();
    let mut plan = translate_with_root(&q, result_name).ok()?;
    st.translate = us_since(t);
    let t = Instant::now();
    match from {
        None => {
            for v in med.view_names() {
                if references_source(&plan.root, v.as_str()) {
                    plan = compose(&plan, v.as_str(), med.view(v.as_str())?);
                }
            }
            st.translate += us_since(t);
        }
        Some((node, is_root)) => {
            let view = &s.result_info(node).logical_plan;
            if is_root {
                plan = compose(&plan, "root", view);
                st.translate += us_since(t);
            } else {
                plan = decontextualize(&plan, &s.context(node), view).ok()?;
                st.splice = us_since(t);
                st.decontext = true;
            }
        }
    }
    let t = Instant::now();
    let out = optimize(&plan, med.catalog());
    st.optimize = us_since(t);
    st.rules = out.trace.steps.len();
    let t = Instant::now();
    let logical = rewrite(&plan);
    st.rewrite = us_since(t);
    drop(logical);
    let pre = pre_split(&plan, med.catalog());
    let t = Instant::now();
    let split = split_plan(&pre, med.catalog());
    st.split = us_since(t);
    drop(split);
    let t = Instant::now();
    mix::algebra::validate(&out.plan).ok()?;
    st.validate = us_since(t);
    let t = Instant::now();
    let vr = VirtualResult::new(&out.plan, Arc::clone(scratch)).ok()?;
    st.instantiate = us_since(t);
    let t = Instant::now();
    let _ = vr.try_first_child(vr.root());
    st.first_pull = us_since(t);
    Some(st)
}

/// Walk every node of a navigable document; returns the node count.
fn walk_doc(doc: &dyn NavDoc) -> u64 {
    let mut nodes = 1;
    let mut stack = Vec::new();
    let mut cur = doc.try_first_child(doc.root()).ok().flatten();
    loop {
        match cur {
            Some(c) => {
                nodes += 1;
                stack.push(c);
                cur = doc.try_first_child(c).ok().flatten();
            }
            None => match stack.pop() {
                Some(done) => cur = doc.try_next_sibling(done).ok().flatten(),
                None => return nodes,
            },
        }
    }
}

/// Execute every SQL statement a plan pushes and drain each cursor the
/// way the engine's `rQ` does: the session's block ramp, prefetch and
/// retry settings, column blocks. Returns milliseconds.
fn relational_exec_ms(plan: &Plan, ctx: &EvalContext) -> f64 {
    fn collect<'a>(op: &'a Op, out: &mut Vec<&'a Op>) {
        if matches!(op, Op::RelQuery { .. }) {
            out.push(op);
        }
        for k in mix::rewrite::util::children(op) {
            collect(k, out);
        }
    }
    let mut rqs = Vec::new();
    collect(&plan.root, &mut rqs);
    let t = Instant::now();
    for op in rqs {
        let Op::RelQuery { server, sql, .. } = op else {
            continue;
        };
        let Ok(db) = ctx.catalog().database(server.as_str()) else {
            continue;
        };
        let Ok(mut cursor) = db.execute(sql) else {
            continue;
        };
        let mut ramp = ctx.block_ramp();
        if ctx.prefetch.enabled() {
            cursor.enable_prefetch(ctx.prefetch, ramp.clone(), ctx.retry);
        }
        loop {
            let mut block = ColumnBlock::new(cursor.arity());
            match cursor.next_cblock_retrying(&mut block, ramp.next_size(), &ctx.retry) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }
    t.elapsed().as_nanos() as f64 / 1e6
}

/// Build a fresh `VirtualResult` of `plan` and walk it directly, then
/// walk it again over its materialized nodes. Returns (nodes, first
/// walk ms, second walk ms).
fn engine_walk_ms(plan: &Plan, ctx: &Arc<EvalContext>) -> Option<(u64, f64, f64)> {
    let t = Instant::now();
    let vr = VirtualResult::new(plan, Arc::clone(ctx)).ok()?;
    let nodes = walk_doc(&vr);
    let engine = t.elapsed().as_nanos() as f64 / 1e6;
    let t = Instant::now();
    walk_doc(&vr);
    Some((nodes, engine, t.elapsed().as_nanos() as f64 / 1e6))
}

/// Walk a session result through `dispatch` (`d`/`r` only); returns
/// milliseconds.
fn session_walk_ms(s: &mut QdomSession<'static>, root: WireNode) -> f64 {
    let step = |s: &mut QdomSession<'static>, cmd| match s.dispatch(cmd) {
        Reply::Step(n) => n,
        _ => None,
    };
    let t = Instant::now();
    let mut stack = Vec::new();
    let mut cur = step(s, Command::D { p: root });
    loop {
        match cur {
            Some(c) => {
                stack.push(c);
                cur = step(s, Command::D { p: c });
            }
            None => match stack.pop() {
                Some(done) => cur = step(s, Command::R { p: done }),
                None => break,
            },
        }
    }
    t.elapsed().as_nanos() as f64 / 1e6
}

/// One drained result split into its parts (milliseconds).
struct DrainSplit {
    /// A fresh issue of the result walked through `dispatch`.
    drain: f64,
    /// A direct `NavDoc` walk of a fresh `VirtualResult` of its plan.
    engine: f64,
    /// The same walk again, over materialized nodes: traversal alone.
    traverse: f64,
    /// The pushed SQL, executed and drained as the engine pulls it.
    relational: f64,
    /// Re-walking the materialized session result through `dispatch`.
    dispatch: f64,
    /// The engine's own work: the direct walk minus the pushed SQL
    /// pulled alone, both with any modelled backend RTT switched off,
    /// so overlapped waits cannot hide or exceed it.
    engine_self: f64,
}

/// What the probed replay of the captured sessions found.
#[derive(Default)]
struct Probe {
    queries: Vec<Stages>,
    inplace: Vec<Stages>,
    drains: Vec<DrainSplit>,
}

fn probe_sessions(wl: &dyn Workload, sessions: &[Vec<(Command, Reply)>]) -> Probe {
    let factory = wl.factory();
    let mut probe = Probe::default();
    for session in sessions {
        let med = Arc::new(factory());
        let mut s = med.session_arc();
        let scratch_session = med.session_arc();
        let scratch = Arc::clone(scratch_session.ctx());
        let mut roots: HashMap<u32, WireNode> = HashMap::new();
        // result -> the command that made it, and its d/r commands
        let mut creators: HashMap<u32, Command> = HashMap::new();
        let mut nav: HashMap<u32, u64> = HashMap::new();
        for (cmd, _) in session {
            let n_results = roots.len();
            let sample = probe.queries.len() + probe.inplace.len() < COMPILE_SAMPLES;
            let name = format!("rootv{n_results}");
            let from = match cmd {
                Command::Q { from, .. } => s
                    .resolve_handle(*from)
                    .ok()
                    .map(|node| (node, roots.get(&from.result) == Some(from))),
                _ => None,
            };
            // Each sample is compiled twice; the second, warm pass is
            // kept, as the real dispatch right after it runs warm too.
            let staged = match (cmd, sample) {
                (Command::Query { text }, true) => {
                    compile_stages(&med, &s, &scratch, text, None, &name);
                    compile_stages(&med, &s, &scratch, text, None, &name)
                }
                (Command::Q { text, .. }, true) if from.is_some() => {
                    compile_stages(&med, &s, &scratch, text, from, &name);
                    compile_stages(&med, &s, &scratch, text, from, &name)
                }
                _ => None,
            };
            let t = Instant::now();
            let reply = s.dispatch(cmd.clone());
            let us = us_since(t);
            if let Reply::Node(w) = reply {
                roots.insert(w.result, w);
                creators.insert(w.result, cmd.clone());
                if let Some(mut st) = staged {
                    st.e2e = us;
                    match cmd {
                        Command::Query { .. } => probe.queries.push(st),
                        _ => probe.inplace.push(st),
                    }
                }
            }
            if let Command::D { p } | Command::R { p } = cmd {
                *nav.entry(p.result).or_default() += 1;
            }
        }
        // Results walked in full: a drain sends `d` to every node and
        // `r` to every node but the root. Largest first. Each is issued
        // again in the replay session and split into its parts.
        let mut candidates: Vec<(u32, u64)> = nav
            .into_iter()
            .filter(|&(_, n)| n >= MIN_DRAIN_CMDS)
            .collect();
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (result, cmds) in candidates.into_iter().take(2 * DRAIN_PROBES) {
            if probe.drains.len() >= DRAIN_PROBES {
                break;
            }
            let Some(node) = roots.get(&result).and_then(|&r| s.resolve_handle(r).ok()) else {
                continue;
            };
            let plan = s.result_info(node).exec_plan.clone();
            let Some((nodes, engine, traverse)) = engine_walk_ms(&plan, &scratch) else {
                continue;
            };
            if cmds < 2 * nodes - 1 {
                continue;
            }
            let Reply::Node(fresh) = s.dispatch(creators[&result].clone()) else {
                continue;
            };
            let drain = session_walk_ms(&mut s, fresh);
            let dispatch = session_walk_ms(&mut s, fresh);
            let relational = relational_exec_ms(&plan, &scratch);
            let engine_self = if wl.set_modelled_rtt(false) {
                let walk = engine_walk_ms(&plan, &scratch).map_or(engine, |w| w.1);
                let pulls = relational_exec_ms(&plan, &scratch);
                wl.set_modelled_rtt(true);
                walk - pulls
            } else {
                engine - relational
            };
            probe.drains.push(DrainSplit {
                drain,
                engine,
                traverse,
                relational,
                dispatch,
                engine_self,
            });
        }
        if probe.drains.len() >= DRAIN_PROBES
            && probe.queries.len() + probe.inplace.len() >= COMPILE_SAMPLES
        {
            break;
        }
    }
    probe
}

/// A fallback decontextualization probe for workloads whose own
/// in-place queries all start at result roots: decontextualize a
/// wildcard query from the first child of each captured query result.
fn decontext_fallback(
    factory: &mix::serve::MediatorFactory,
    sessions: &[Vec<(Command, Reply)>],
) -> Vec<f64> {
    let mut out = Vec::new();
    let q = translate_with_root(
        &parse_query("FOR $X IN document(root)/* RETURN $X").expect("static probe query parses"),
        "rootvp",
    )
    .expect("static probe query translates");
    for session in sessions {
        let med = Arc::new(factory());
        let mut s = med.session_arc();
        for (cmd, _) in session {
            let is_query = matches!(cmd, Command::Query { .. });
            if let Reply::Node(root) = s.dispatch(cmd.clone()) {
                if !is_query {
                    continue;
                }
                let Reply::Step(Some(kid)) = s.dispatch(Command::D { p: root }) else {
                    continue;
                };
                let Ok(node) = s.resolve_handle(kid) else {
                    continue;
                };
                let view = s.result_info(node).logical_plan.clone();
                let ctx = s.context(node);
                let t = Instant::now();
                if decontextualize(&q, &ctx, &view).is_ok() {
                    out.push(us_since(t));
                }
            }
        }
    }
    out
}

/// Wire vs in-process replay of the captured commands, plus the proto
/// and loopback floors and the idle CPU of a connected session.
struct Serve {
    wire_nav_us: f64,
    local_nav_us: f64,
    loopback_us: f64,
    idle_cpu_pct: f64,
    bytes_per_cmd: f64,
    encode_ns: f64,
    decode_ns: f64,
    /// Encode + decode of one nav command and its reply, in µs.
    nav_codec_us: f64,
}

fn replay_timed(target: &mut dyn mix_workload::Target, cmds: &[Command]) -> Vec<u64> {
    let mut nav = Vec::new();
    for cmd in cmds {
        let t = Instant::now();
        target.call(cmd.clone());
        if is_nav(cmd) {
            nav.push(t.elapsed().as_nanos() as u64);
        }
    }
    nav
}

/// A bench-owned TCP echo with the captured frame sizes: each request
/// frame is answered with its recorded reply frame. Returns the p50
/// round trip in µs.
fn loopback_rtt_us(frames: &Arc<Vec<(Vec<u8>, Vec<u8>)>>) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let server_frames = Arc::clone(frames);
    let echo = std::thread::spawn(move || {
        if let Some(&cpu) = allowed_cpus().last() {
            confine_current_thread(cpu);
        }
        let (mut sock, _) = listener.accept().expect("echo accepts");
        sock.set_nodelay(true).expect("nodelay");
        for (req, rep) in server_frames.iter() {
            let mut buf = vec![0u8; req.len()];
            if sock.read_exact(&mut buf).is_err() || sock.write_all(rep).is_err() {
                return;
            }
        }
    });
    let mut sock = TcpStream::connect(addr).expect("connect to echo");
    sock.set_nodelay(true).expect("nodelay");
    let mut rtts = Vec::with_capacity(frames.len());
    for (req, rep) in frames.iter() {
        let mut buf = vec![0u8; rep.len()];
        let t = Instant::now();
        sock.write_all(req).expect("echo write");
        sock.read_exact(&mut buf).expect("echo read");
        rtts.push(t.elapsed().as_nanos() as u64);
    }
    drop(sock);
    echo.join().expect("echo thread");
    p50_us(&rtts)
}

/// Mean nanoseconds per call of `f` over `items`, median of 5 passes.
fn per_item_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut passes = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for it in items {
            f(it);
        }
        passes.push(t.elapsed().as_nanos() as f64 / items.len().max(1) as f64);
    }
    median_f(&passes)
}

fn serve_probe(wl: &dyn Workload, sessions: &[Vec<(Command, Reply)>], idle: Duration) -> Serve {
    let pairs: Vec<(Command, Reply)> = sessions
        .iter()
        .flatten()
        .take(WIRE_REPLAY)
        .cloned()
        .collect();
    let cmds_of = |s: &Vec<(Command, Reply)>| s.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>();

    // Wire and in-process replays of the same sessions (a prefix).
    let mut server = start_server(wl.factory());
    let (mut wire_nav, mut local_nav) = (Vec::new(), Vec::new());
    let mut left = WIRE_REPLAY;
    let mut idle_client = None;
    for session in sessions {
        if left == 0 {
            break;
        }
        let mut cmds = cmds_of(session);
        cmds.truncate(left);
        left -= cmds.len();
        let mut client = WireClient::connect(server.addr()).expect("connect");
        wire_nav.extend(replay_timed(&mut client, &cmds));
        idle_client = Some(client);
        let med = Arc::new((wl.factory())());
        let mut s = med.session_arc();
        local_nav.extend(replay_timed(&mut s, &cmds));
    }
    // Idle: one session connected, nothing sent.
    let cpu0 = process_cpu_us();
    let t = Instant::now();
    std::thread::sleep(idle);
    let idle_cpu_pct = (process_cpu_us() - cpu0) / (t.elapsed().as_nanos() as f64 / 1e3) * 100.0;
    drop(idle_client);
    server.shutdown();

    // Proto: encode/decode of the captured frames.
    let frames: Vec<(Vec<u8>, Vec<u8>)> = pairs
        .iter()
        .map(|(c, r)| {
            (
                Frame::Cmd(c.clone()).encode(),
                Frame::Rep(r.clone()).encode(),
            )
        })
        .collect();
    let all_frames: Vec<Frame> = pairs
        .iter()
        .flat_map(|(c, r)| [Frame::Cmd(c.clone()), Frame::Rep(r.clone())])
        .collect();
    let encoded: Vec<Vec<u8>> = all_frames.iter().map(Frame::encode).collect();
    let encode_ns = per_item_ns(&all_frames, |f| {
        std::hint::black_box(f.encode());
    });
    let decode_ns = per_item_ns(&encoded, |b| {
        std::hint::black_box(Frame::decode_payload(&b[4..]).expect("own frames decode"));
    });
    let nav_frames: Vec<Frame> = pairs
        .iter()
        .filter(|(c, _)| is_nav(c))
        .flat_map(|(c, r)| [Frame::Cmd(c.clone()), Frame::Rep(r.clone())])
        .collect();
    let nav_encoded: Vec<Vec<u8>> = nav_frames.iter().map(Frame::encode).collect();
    let nav_codec_us =
        2.0 * (per_item_ns(&nav_frames, |f| {
            std::hint::black_box(f.encode());
        }) + per_item_ns(&nav_encoded, |b| {
            std::hint::black_box(Frame::decode_payload(&b[4..]).expect("own frames decode"));
        })) / 1e3;
    let bytes_per_cmd = frames
        .iter()
        .map(|(a, b)| (a.len() + b.len()) as f64)
        .sum::<f64>()
        / frames.len().max(1) as f64;
    let nav_pairs: Vec<(Vec<u8>, Vec<u8>)> = pairs
        .iter()
        .zip(&frames)
        .filter(|((c, _), _)| is_nav(c))
        .map(|(_, f)| f.clone())
        .take(2000)
        .collect();
    let loopback_us = loopback_rtt_us(&Arc::new(nav_pairs));
    Serve {
        wire_nav_us: p50_us(&wire_nav),
        local_nav_us: p50_us(&local_nav),
        loopback_us,
        idle_cpu_pct,
        bytes_per_cmd,
        encode_ns,
        decode_ns,
        nav_codec_us,
    }
}

fn med_of(xs: &[Stages], f: impl Fn(&Stages) -> f64) -> f64 {
    median_f(&xs.iter().map(f).collect::<Vec<_>>())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run. Returns the per-layer report and the (attempted,
/// failed) command counts of its untraced phase.
pub fn traced_run(
    name: &str,
    seed: u64,
    mut wl: Box<dyn Workload>,
    budget: Duration,
) -> (Report, u64, u64) {
    let focus = wl.focus();

    // 1. Untraced and traced, in slices of about 250 ms: one side runs a
    // slice of items, then the other (a second system carrying the span
    // clock) runs the same items; the sides take turns leading, so both
    // see the same items in the same process state.
    let clock = Arc::new(SpanClock::default());
    let mut traced = crate::build(name, seed, Some(TracerHandle::new(clock.clone())))
        .expect("the workload built once already");
    traced.warm_up();
    let (mut untraced_items, mut traced_items) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + budget.mul_f64(0.6);
    let mut traced_leads = false;
    while Instant::now() < deadline {
        let first = untraced_items.len();
        let (lead, follow) = if traced_leads {
            (traced.as_mut(), wl.as_mut())
        } else {
            (wl.as_mut(), traced.as_mut())
        };
        let mut opener = Opener::new(lead.mode(), false);
        let led = lead.run_with(
            &mut opener,
            Stop::from_for(first, Duration::from_millis(250)),
        );
        let end = first + led.len();
        let mut opener = Opener::new(follow.mode(), false);
        let followed = follow.run_with(&mut opener, Stop::range(first, end));
        let (u, t) = if traced_leads {
            (followed, led)
        } else {
            (led, followed)
        };
        untraced_items.extend(u);
        traced_items.extend(t);
        traced_leads = !traced_leads;
    }
    drop(traced);
    let untraced = pooled(&untraced_items);
    let trace_overhead_pct =
        (1.0 - pooled(&traced_items).ops_per_s() / untraced.ops_per_s()) * 100.0;
    {
        let closed = clock.closed.lock().expect("span clock lock");
        let mut by: HashMap<&str, Vec<u64>> = HashMap::new();
        for (n, ns) in closed.iter() {
            by.entry(n.as_str()).or_default().push(*ns);
        }
        let mut names: Vec<_> = by.keys().copied().collect();
        names.sort_unstable();
        for n in names {
            println!(
                "info: traced in-session {n} p50 {:.2} us (n={})",
                p50_us(&by[n]),
                by[n].len()
            );
        }
        println!(
            "info: traced sql statements {}",
            clock.sql.load(Ordering::Relaxed)
        );
    }

    // 2. Counted run: fixed items, in process, captured.
    // The prefetch pool keeps its own counters (process-wide).
    let pool = mix::relational::prefetch_pool_stats();
    let backend = wl.backend_stats();
    let (before, pool_before) = (backend.snapshot(), pool.get(Counter::PoolTasksRun));
    let mut opener = Opener::new(Mode::InProcess(wl.factory()), true);
    let counted = pooled(&wl.run_with(&mut opener, Stop::items(wl.counted_items())));
    let after = backend.snapshot();
    let pool_tasks = pool.get(Counter::PoolTasksRun) - pool_before;
    let count = |c: Counter| -> u64 {
        let i = Counter::ALL
            .iter()
            .position(|&k| k == c)
            .expect("counter listed in ALL");
        opener.ctx_counters[i] + after.get(c) - before.get(c)
    };
    let sessions = std::mem::take(&mut opener.sessions);

    let factory = wl.factory();
    let probe = probe_sessions(wl.as_ref(), &sessions);
    for d in &probe.drains {
        println!(
            "drain split: {:.3} ms through dispatch = engine {:.3} ms (pushed SQL pulled alone {:.3} ms) \
             + dispatch over materialized nodes {:.3} ms - traversal counted in both {:.3} ms",
            d.drain, d.engine, d.relational, d.dispatch, d.traverse
        );
    }
    let mut decontext: Vec<f64> = probe
        .inplace
        .iter()
        .filter(|s| s.decontext)
        .map(|s| s.splice)
        .collect();
    if decontext.is_empty() {
        decontext = decontext_fallback(factory.as_ref(), &sessions);
    }
    let idle = Duration::from_secs(1).min(budget.mul_f64(0.1));
    let serve = serve_probe(wl.as_ref(), &sessions, idle);
    drop(wl);

    let qs = &probe.queries;
    let all_stages: Vec<Stages> = probe
        .queries
        .iter()
        .chain(&probe.inplace)
        .cloned()
        .collect();
    let e2e_sum: f64 = qs.iter().map(|s| s.e2e).sum();
    let compile_sum: f64 = qs
        .iter()
        .map(|s| s.parse + s.translate + s.optimize + s.rewrite)
        .sum();
    let compile_share = compile_sum / e2e_sum.max(1e-9) * 100.0;
    let q50 = med_of(qs, |s| s.e2e);
    println!(
        "compile breakdown of top-level query (n={}): dispatch p50 {:.1} us; parse {:.1}%, translate+compose {:.1}%, \
         optimize {:.1}% (rewrite and schema prune {:.1}%, split {:.1}%), second rewrite {:.1}%, validate {:.1}%, instantiate {:.1}%",
        qs.len(),
        q50,
        100.0 * med_of(qs, |s| s.parse) / q50,
        100.0 * med_of(qs, |s| s.translate) / q50,
        100.0 * med_of(qs, |s| s.optimize) / q50,
        100.0 * (med_of(qs, |s| s.optimize) - med_of(qs, |s| s.split)).max(0.0) / q50,
        100.0 * med_of(qs, |s| s.split) / q50,
        100.0 * med_of(qs, |s| s.rewrite) / q50,
        100.0 * med_of(qs, |s| s.validate) / q50,
        100.0 * med_of(qs, |s| s.instantiate) / q50,
    );

    let coverage = match focus {
        Focus::Query => qs.iter().map(Stages::covered).sum::<f64>() / e2e_sum.max(1e-9) * 100.0,
        Focus::Drain => {
            let med = |f: fn(&DrainSplit) -> f64| {
                median_f(&probe.drains.iter().map(f).collect::<Vec<_>>())
            };
            (med(|d| d.engine) - med(|d| d.traverse) + med(|d| d.dispatch))
                / med(|d| d.drain).max(1e-9)
                * 100.0
        }
        Focus::WireNav => {
            let wire = untraced.nav.pct(50.0) / 1e3;
            let floors = counted.nav.pct(50.0) / 1e3 + serve.nav_codec_us + serve.loopback_us;
            let gap = wire - counted.nav.pct(50.0) / 1e3;
            println!(
                "wire gap: nav p50 over the wire {:.1} us vs in process {:.1} us; of the {:.1} us gap, \
                 proto encode+decode covers {:.1} us, the loopback echo floor {:.1} us, unattributed {:.1} us \
                 (serve.overhead_us from the replay: {:.1} us)",
                wire,
                counted.nav.pct(50.0) / 1e3,
                gap,
                serve.nav_codec_us,
                serve.loopback_us,
                gap - serve.nav_codec_us - serve.loopback_us,
                serve.wire_nav_us - serve.local_nav_us,
            );
            floors / wire.max(1e-9) * 100.0
        }
    };
    println!(
        "layers.coverage_pct {:.1}% for {:?}{}",
        coverage,
        focus,
        if coverage < 90.0 {
            "  FLAG: below the 90% target"
        } else {
            ""
        }
    );

    let mut r = Report::default();
    r.add(
        "serve.overhead_us",
        serve.wire_nav_us - serve.local_nav_us,
        "us",
        0,
    );
    r.add("serve.loopback_rtt_us", serve.loopback_us, "us", 0);
    r.add("serve.idle_cpu_pct", serve.idle_cpu_pct, "%", 0);
    r.add("serve.bytes_per_cmd", serve.bytes_per_cmd, "B", 0);
    r.add("proto.encode_ns", serve.encode_ns, "ns", 0);
    r.add("proto.decode_ns", serve.decode_ns, "ns", 0);
    r.add(
        "qdom.dispatch_us.nav",
        counted.nav.pct(50.0) / 1e3,
        "us",
        counted.nav.len(),
    );
    r.add(
        "qdom.dispatch_us.query",
        counted.query.pct(50.0) / 1e3,
        "us",
        counted.query.len(),
    );
    r.add(
        "qdom.dispatch_us.inplace",
        counted.inplace.pct(50.0) / 1e3,
        "us",
        counted.inplace.len(),
    );
    r.add(
        "qdom.decontext_us",
        median_f(&decontext),
        "us",
        decontext.len(),
    );
    r.add(
        "qdom.plan_cache_hit_ratio",
        ratio(
            count(Counter::PlanCacheHits),
            count(Counter::PlanCacheHits) + count(Counter::PlanCacheMisses),
        ),
        "ratio",
        0,
    );
    let st = &all_stages;
    r.add("xquery.parse_us", med_of(st, |s| s.parse), "us", st.len());
    r.add(
        "algebra.translate_us",
        med_of(st, |s| s.translate),
        "us",
        st.len(),
    );
    r.add(
        "algebra.validate_us",
        med_of(st, |s| s.validate),
        "us",
        st.len(),
    );
    r.add(
        "rewrite.rewrite_us",
        med_of(st, |s| s.rewrite),
        "us",
        st.len(),
    );
    r.add(
        "rewrite.optimize_us",
        med_of(st, |s| s.optimize),
        "us",
        st.len(),
    );
    r.add("rewrite.split_us", med_of(st, |s| s.split), "us", st.len());
    r.add(
        "rewrite.rules_fired",
        st.iter().map(|s| s.rules).sum::<usize>() as f64,
        "count",
        st.len(),
    );
    r.add(
        "engine.instantiate_us",
        med_of(st, |s| s.instantiate),
        "us",
        st.len(),
    );
    r.add(
        "engine.first_pull_us",
        med_of(st, |s| s.first_pull),
        "us",
        st.len(),
    );
    let dr = &probe.drains;
    r.add(
        "engine.self_ms",
        median_f(&dr.iter().map(|d| d.engine_self).collect::<Vec<_>>()),
        "ms",
        dr.len(),
    );
    for (metric, c) in [
        ("engine.nodes_built", Counter::NodesBuilt),
        ("engine.hash_builds", Counter::HashBuilds),
        ("engine.join_probes", Counter::JoinProbes),
        ("engine.cells_decoded", Counter::CellsDecoded),
    ] {
        r.add(metric, count(c) as f64, "count", 0);
    }
    r.add(
        "relational.exec_ms",
        median_f(&dr.iter().map(|d| d.relational).collect::<Vec<_>>()),
        "ms",
        dr.len(),
    );
    for (metric, c) in [
        ("relational.sql_queries", Counter::SqlQueries),
        ("relational.tuples_shipped", Counter::TuplesShipped),
        ("relational.blocks_shipped", Counter::BlocksShipped),
        ("relational.rows_scanned", Counter::RowsScanned),
    ] {
        r.add(metric, count(c) as f64, "count", 0);
    }
    r.add(
        "relational.tuples_per_node",
        ratio(count(Counter::TuplesShipped), count(Counter::NodesBuilt)),
        "ratio",
        0,
    );
    r.add(
        "relational.prefetch_stall_pct",
        count(Counter::PrefetchStallNs) as f64 / counted.busy_ns.max(1) as f64 * 100.0,
        "%",
        0,
    );
    r.add(
        "relational.prefetch_hit_ratio",
        ratio(
            count(Counter::PrefetchHitBlocks),
            count(Counter::BlocksShipped),
        ),
        "ratio",
        0,
    );
    r.add(
        "relational.prefetch_aborted",
        count(Counter::PrefetchAborted) as f64,
        "count",
        0,
    );
    r.add(
        "relational.shards_per_query",
        ratio(
            count(Counter::ShardsTargeted),
            count(Counter::ShardQueriesRouted),
        ),
        "ratio",
        0,
    );
    for (metric, c) in [
        ("relational.scatter_merges", Counter::ScatterMerges),
        ("relational.retries", Counter::RetriesAttempted),
        ("relational.backend_errors", Counter::BackendErrors),
    ] {
        r.add(metric, count(c) as f64, "count", 0);
    }
    r.add("common.pool_tasks", pool_tasks as f64, "count", 0);
    r.add("obs.trace_overhead_pct", trace_overhead_pct, "%", 0);
    r.add("layers.coverage_pct", coverage, "%", 0);
    r.add("compile.share_pct", compile_share, "%", qs.len());
    (r, untraced.ops, untraced.failed)
}
