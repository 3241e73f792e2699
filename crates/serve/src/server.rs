//! The pooled server: one epoll-driven poller + a bounded worker pool.
//!
//! Two kinds of threads serve every session, and their count is fixed
//! at startup — OS threads are bounded by the pool size, never by the
//! session count:
//!
//! * **One poller** blocks in `epoll_wait` on a single readiness set:
//!   the listener, every connection, and a wake socket. It accepts when
//!   the listener is ready, reads a connection only when it has bytes,
//!   incrementally decodes length-prefixed frames, and pushes them
//!   (plus synthetic idle-timeout and shutdown events) onto
//!   per-session queues, signalling the worker pool's condvar. The wait
//!   timeout is the earliest idle deadline, so a silent server makes no
//!   wake-ups at all; workers and [`Server::shutdown`] reach the poller
//!   through one byte on the wake socket.
//! * **`workers` session workers** drain ready queues. A claimed flag
//!   gives each session exactly one worker at a time (commands of one
//!   session never interleave), while a slow session occupies at most
//!   one worker — it cannot head-of-line-block the rest.
//!
//! Back-pressure: a session whose event queue reaches its cap is
//! disarmed in the readiness set (TCP back-pressure reaches the
//! client) until its worker drains the queue and wakes the poller to
//! re-arm it; the cap bounds memory per session. On the write side, a
//! peer that stops reading gets at most one idle timeout to make room
//! before its session is closed, so it cannot hold a worker forever.
//!
//! Sessions are owned (`QdomSession<'static>` over an `Arc<Mediator>`),
//! so they migrate freely across worker threads between commands — the
//! engine's shared state is `Send + Sync` end to end.

use crate::sys::{self, Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN};
use mix_common::MixError;
use mix_obs::{Counter, Stats};
use mix_proto::{Frame, Reply, MAX_FRAME_LEN, PROTO_VERSION};
use mix_qdom::{Mediator, QdomSession};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Lock without poisoning semantics: a panic on another thread while it
/// held the lock must not cascade into killing this one. Every mutex in
/// this module guards state that stays consistent across a panic (the
/// panic paths are session code, which never leaves queues half-pushed),
/// so recovering the guard is always safe — and one misbehaving session
/// must never take the shared ready/queue locks down with it.
fn lock_np<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Per-session event-queue cap; a session at the cap stops being read
/// until a worker drains it.
const QUEUE_CAP: usize = 128;

/// Readiness tokens of the two descriptors that are not connections;
/// a connection is registered under its id (ids count up from 1).
const LISTENER: u64 = u64::MAX;
const WAKE: u64 = u64::MAX - 1;

/// When `accept` fails for a reason other than an empty backlog
/// (typically: out of file descriptors), the still-pending connection
/// would keep the listener ready forever. The poller disarms the
/// listener instead and retries after this long.
const ACCEPT_RETRY: Duration = Duration::from_millis(100);

/// Server policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-session cap; connection attempts past it are answered
    /// with `Frame::Reject` at handshake. `0` = unlimited.
    pub max_sessions: usize,
    /// Per-session cap on materialized result nodes; once a session's
    /// `NodesBuilt` counter reaches it, further *result-creating*
    /// commands (`Query`/`Q`) answer `Reply::Err(MixError::Plan)`.
    /// Navigation of existing results stays allowed so the client can
    /// still read (and render) what it already paid for. `0` =
    /// unlimited.
    pub node_budget: u64,
    /// A session that sends nothing for this long is closed with a
    /// `Bye`.
    pub idle_timeout: Duration,
    /// Session-worker threads in the pool. `0` (the default) sizes the
    /// pool to the hardware (`available_parallelism`). Sessions
    /// multiplex over this pool; OS threads never grow with session
    /// count.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_sessions: 256,
            node_budget: 0,
            idle_timeout: Duration::from_secs(30),
            workers: 0,
        }
    }
}

impl ServerConfig {
    fn worker_count(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
}

/// Builds one mediator per accepted session. To share compiled plans
/// across sessions, build the mediators inside with a common
/// [`mix_qdom::SharedPlanCache`]
/// (`MediatorOptions::builder().shared_plan_cache(..)`).
pub type MediatorFactory = dyn Fn() -> Mediator + Send + Sync;

/// One session's event, produced by the poller, consumed by a worker.
enum Event {
    /// A decoded frame plus its wire size (header included).
    Frame(Frame, usize),
    /// The idle deadline passed with no traffic.
    Idle,
    /// Peer closed, read error, or undecodable bytes: close silently.
    Closed,
    /// Graceful server shutdown: say `Bye` and close.
    Shutdown,
}

/// The queue half of a connection — the only state the poller touches.
struct ConnQueue {
    events: VecDeque<Event>,
    /// In the ready queue or claimed by a worker — guards against a
    /// session being scheduled twice (and so against two workers
    /// interleaving one session's commands).
    scheduled: bool,
    /// The poller disarmed this connection at `QUEUE_CAP`; the worker
    /// that drains the queue clears it and wakes the poller to re-arm.
    paused: bool,
}

/// The session half — locked only by the (single) claiming worker.
struct SessState {
    session: Option<QdomSession<'static>>,
    handshook: bool,
    /// Holds one `live` slot (released exactly once at close).
    slot_held: bool,
}

struct Conn {
    id: u64,
    stream: TcpStream,
    queue: Mutex<ConnQueue>,
    sess: Mutex<SessState>,
    /// Worker → poller: this connection is finished; stop reading it
    /// and drop its poll state.
    closed: AtomicBool,
}

/// The worker pool's ready queue.
struct Ready {
    conns: VecDeque<Arc<Conn>>,
    /// Set by [`Server::shutdown`] once the poller has queued every
    /// live session's `Shutdown` event and exited — only then may idle
    /// workers exit. Written under this lock, so a worker that saw it
    /// unset is already waiting when the notify comes.
    drained: bool,
}

struct Shared {
    ready: Mutex<Ready>,
    ready_cv: Condvar,
    shutdown: AtomicBool,
    /// The wake socket pair: a byte written to `wake_tx` makes the
    /// poller's `epoll_wait` return. Both ends live here, so a late
    /// write never finds the reader gone.
    wake_tx: UnixStream,
    wake_rx: UnixStream,
    stats: Stats,
    live: AtomicUsize,
    config: ServerConfig,
    factory: Arc<MediatorFactory>,
}

impl Shared {
    /// Queue one event and schedule the session on the worker pool if
    /// it is not already scheduled/claimed.
    fn push_event(&self, conn: &Arc<Conn>, ev: Event) {
        let schedule = {
            let mut q = lock_np(&conn.queue);
            q.events.push_back(ev);
            !std::mem::replace(&mut q.scheduled, true)
        };
        if schedule {
            lock_np(&self.ready).conns.push_back(Arc::clone(conn));
            self.ready_cv.notify_one();
        }
    }

    /// Make the poller look at shared state: the shutdown flag, closed
    /// connections, and sessions whose workers drained them. A full
    /// wake buffer already guarantees a wake-up, so errors are moot.
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// A running MIX server: one poller + a fixed worker pool.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    poller: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving: each
    /// accepted session gets a fresh `factory()` mediator and is
    /// multiplexed over the worker pool.
    pub fn start(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        factory: Arc<MediatorFactory>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(&listener, EPOLLIN, LISTENER)?;
        epoll.add(&wake_rx, EPOLLIN, WAKE)?;
        let worker_count = config.worker_count();
        let shared = Arc::new(Shared {
            ready: Mutex::new(Ready {
                conns: VecDeque::new(),
                drained: false,
            }),
            ready_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            wake_tx,
            wake_rx,
            stats: Stats::new(),
            live: AtomicUsize::new(0),
            config,
            factory,
        });
        let poller = Poller {
            shared: Arc::clone(&shared),
            epoll,
            listener,
            accept_retry: None,
            conns: HashMap::new(),
            next_id: 1,
            tmp: vec![0u8; 16 * 1024],
        };
        let poller = thread::Builder::new()
            .name("mix-serve-poll".into())
            .spawn(move || poller.run())
            .expect("spawn poller");
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("mix-serve-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn session worker")
            })
            .collect();
        Ok(Server {
            addr,
            shared,
            poller: Some(poller),
            workers,
        })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-level counters: `SessionsOpened`/`Closed`/`Rejected`,
    /// `WireCommands`, `WireBytesIn`/`Out`. Session *work* counters
    /// (SQL, tuples, nodes) live on each session's own stats and are
    /// readable over the wire via `Command::Stats`.
    pub fn stats(&self) -> &Stats {
        &self.shared.stats
    }

    /// Sessions currently live (admitted and not yet closed).
    pub fn live_sessions(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Session-worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Graceful shutdown: stop accepting, let every in-flight command
    /// finish, send `Bye` to every session, join every thread. When
    /// this returns, all sessions are dropped — including their
    /// prefetch producers, so `active_prefetchers()` is back to what
    /// it was before the server started.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake();
        // The poller queues a Shutdown event per live session and
        // exits; once it has, workers may exit when the queue is dry.
        if let Some(h) = self.poller.take() {
            let _ = h.join();
        }
        lock_np(&self.shared.ready).drained = true;
        self.shared.ready_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Poller-side per-connection state: the decode buffer and the idle
/// deadline. Lives outside `Conn` — no lock is ever needed to decode.
struct Polled {
    conn: Arc<Conn>,
    buf: Vec<u8>,
    deadline: Instant,
    /// Registered for `EPOLLIN`; false while paused at `QUEUE_CAP`.
    /// Paused connections neither read nor time out.
    armed: bool,
}

/// The poller thread's state: the readiness set and everything
/// registered in it.
struct Poller {
    shared: Arc<Shared>,
    epoll: Epoll,
    listener: TcpListener,
    /// Set while the listener is disarmed after a failed `accept`:
    /// when to re-arm it.
    accept_retry: Option<Instant>,
    /// Registered connections by id; a retired connection is removed
    /// (and deregistered) at once.
    conns: HashMap<u64, Polled>,
    next_id: u64,
    tmp: Vec<u8>,
}

impl Poller {
    fn run(mut self) {
        let mut events = [EpollEvent::default(); 64];
        let mut wake_at = None;
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            let timeout = wake_at.map(|t: Instant| t.saturating_duration_since(Instant::now()));
            let Ok(ready) = self.epoll.wait(&mut events, timeout) else {
                break; // the readiness set is unusable: shut sessions down
            };
            let now = Instant::now();
            let mut woken = false;
            for ev in ready {
                match ev.token() {
                    LISTENER => self.accept(now),
                    WAKE => woken = true,
                    id => self.readable(id, ev.events(), now),
                }
            }
            if woken {
                self.on_wake(now);
            }
            wake_at = self.tick(now);
        }
        // Connections that never reached the poller die with the
        // listener; every registered one is told to say `Bye`.
        for p in self.conns.values() {
            if !p.conn.closed.load(Ordering::SeqCst) {
                self.shared.push_event(&p.conn, Event::Shutdown);
            }
        }
    }

    fn accept(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.register(stream, now),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) => {}
                Err(_) => {
                    if self.epoll.modify(&self.listener, 0, LISTENER).is_ok() {
                        self.accept_retry = Some(now + ACCEPT_RETRY);
                    }
                    return;
                }
            }
        }
    }

    fn register(&mut self, stream: TcpStream, now: Instant) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let id = self.next_id;
        if self.epoll.add(&stream, EPOLLIN, id).is_err() {
            return;
        }
        self.next_id += 1;
        let conn = Arc::new(Conn {
            id,
            stream,
            queue: Mutex::new(ConnQueue {
                events: VecDeque::new(),
                scheduled: false,
                paused: false,
            }),
            sess: Mutex::new(SessState {
                session: None,
                handshook: false,
                slot_held: false,
            }),
            closed: AtomicBool::new(false),
        });
        self.conns.insert(
            id,
            Polled {
                conn,
                buf: Vec::new(),
                deadline: now + self.shared.config.idle_timeout,
                armed: true,
            },
        );
    }

    /// One readiness report for connection `id`: read and decode it,
    /// or retire it when the peer is gone.
    fn readable(&mut self, id: u64, bits: u32, now: Instant) {
        let Some(p) = self.conns.get_mut(&id) else {
            return; // retired earlier in this batch
        };
        if !p.armed {
            // A disarmed connection reports only errors and hang-ups:
            // it is finished either way.
            if bits & (EPOLLERR | EPOLLHUP) != 0 {
                self.retire(id, Event::Closed);
            }
            return;
        }
        if !read_frames(&self.shared, p, &mut self.tmp, now) {
            return self.retire(id, Event::Closed);
        }
        // Back-pressure: a session at its queue cap stops being read
        // until its worker drains it.
        let full = {
            let mut q = lock_np(&p.conn.queue);
            q.paused = q.events.len() >= QUEUE_CAP;
            q.paused
        };
        if full && self.epoll.modify(&p.conn.stream, 0, id).is_ok() {
            p.armed = false;
        }
    }

    /// The poller's part of a connection is over: queue its last event
    /// (unless a worker already closed it) and forget it.
    fn retire(&mut self, id: u64, ev: Event) {
        if let Some(p) = self.conns.remove(&id) {
            let _ = self.epoll.delete(&p.conn.stream);
            if !p.conn.closed.load(Ordering::SeqCst) {
                self.shared.push_event(&p.conn, ev);
            }
        }
    }

    /// Drain the wake socket, drop connections workers closed, and
    /// re-arm paused sessions whose queues were drained.
    fn on_wake(&mut self, now: Instant) {
        let mut sink = [0u8; 64];
        while matches!((&self.shared.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        let epoll = &self.epoll;
        let deadline = now + self.shared.config.idle_timeout;
        self.conns.retain(|&id, p| {
            if p.conn.closed.load(Ordering::SeqCst) {
                let _ = epoll.delete(&p.conn.stream);
                return false;
            }
            if !p.armed
                && !lock_np(&p.conn.queue).paused
                && epoll.modify(&p.conn.stream, EPOLLIN, id).is_ok()
            {
                p.armed = true;
                p.deadline = deadline;
            }
            true
        });
    }

    /// The time-driven work: re-arm the listener once its retry is due,
    /// and close armed connections whose idle deadline passed. Returns
    /// when the next such work is due, if ever — the `epoll_wait`
    /// timeout, so a silent server never wakes before then.
    fn tick(&mut self, now: Instant) -> Option<Instant> {
        if self.accept_retry.is_some_and(|t| now >= t)
            && self.epoll.modify(&self.listener, EPOLLIN, LISTENER).is_ok()
        {
            self.accept_retry = None;
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, p)| p.armed && p.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in idle {
            self.retire(id, Event::Idle);
        }
        let deadlines = self.conns.values().filter(|p| p.armed).map(|p| p.deadline);
        deadlines.chain(self.accept_retry).min()
    }
}

/// Read whatever one socket has and queue every complete frame.
/// Returns false once the connection is finished: the peer closed, the
/// read failed, or the bytes do not decode. Frames that arrived before
/// the end are still queued.
fn read_frames(shared: &Shared, p: &mut Polled, tmp: &mut [u8], now: Instant) -> bool {
    let mut open = true;
    loop {
        match (&p.conn.stream).read(tmp) {
            Ok(0) => {
                open = false;
                break;
            }
            Ok(n) => {
                p.buf.extend_from_slice(&tmp[..n]);
                p.deadline = now + shared.config.idle_timeout;
                if n < tmp.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                open = false;
                break;
            }
        }
    }
    // Decode every complete frame in the buffer.
    let mut consumed = 0;
    while p.buf.len() >= consumed + 4 {
        let len =
            u32::from_le_bytes(p.buf[consumed..consumed + 4].try_into().expect("4 bytes")) as usize;
        if len == 0 || len > MAX_FRAME_LEN as usize {
            return false;
        }
        if p.buf.len() < consumed + 4 + len {
            break; // partial frame; wait for more bytes
        }
        let payload = &p.buf[consumed + 4..consumed + 4 + len];
        match Frame::decode_payload(payload) {
            Ok(f) => shared.push_event(&p.conn, Event::Frame(f, 4 + len)),
            Err(_) => return false,
        }
        consumed += 4 + len;
    }
    if consumed > 0 {
        p.buf.drain(..consumed);
    }
    open
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let conn = {
            let mut r = lock_np(&shared.ready);
            loop {
                if let Some(c) = r.conns.pop_front() {
                    break c;
                }
                if r.drained {
                    return;
                }
                r = shared.ready_cv.wait(r).unwrap_or_else(|p| p.into_inner());
            }
        };
        serve_batch(&shared, &conn);
    }
}

/// Drain one session's queued events. The session is claimed
/// (`scheduled` stayed true when it was popped), so this worker is the
/// only one touching its `sess` state until the batch ends.
fn serve_batch(shared: &Arc<Shared>, conn: &Arc<Conn>) {
    let mut sess = lock_np(&conn.sess);
    loop {
        let ev = lock_np(&conn.queue).events.pop_front();
        let Some(ev) = ev else { break };
        if conn.closed.load(Ordering::Relaxed) {
            continue; // closed mid-batch: discard the remainder
        }
        // A panic in session code (mediator construction, dispatch, a
        // user-supplied tracer) must cost only this session: report it
        // on the wire if the socket still works, close the connection,
        // and keep the worker alive for everyone else. All shared locks
        // are either not held here or recovered via `lock_np`.
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            handle_event(shared, conn, &mut sess, ev)
        }))
        .is_err();
        if panicked {
            send(
                shared,
                conn,
                &Frame::Rep(Reply::Err(MixError::internal(
                    "session panicked; connection closed",
                ))),
            );
            close(conn, &mut sess, shared);
        }
    }
    drop(sess);
    // Unclaim — or reschedule if the poller queued more meanwhile. A
    // session the poller paused at its queue cap is drained now: wake
    // the poller to read it again.
    let (reschedule, resume) = {
        let mut q = lock_np(&conn.queue);
        if q.events.is_empty() || conn.closed.load(Ordering::Relaxed) {
            q.scheduled = false;
            (false, std::mem::take(&mut q.paused))
        } else {
            (true, false)
        }
    };
    if resume {
        shared.wake();
    }
    if reschedule {
        lock_np(&shared.ready).conns.push_back(Arc::clone(conn));
        shared.ready_cv.notify_one();
    }
}

fn budget_exhausted(session: &QdomSession<'_>, budget: u64) -> bool {
    budget != 0 && session.ctx().stats().get(Counter::NodesBuilt) >= budget
}

fn handle_event(shared: &Arc<Shared>, conn: &Arc<Conn>, sess: &mut SessState, ev: Event) {
    let stats = &shared.stats;
    if !sess.handshook {
        // Nothing but a valid Hello opens a session; anything else —
        // silence until the idle deadline included — just drops the
        // connection (no slot was ever held).
        match ev {
            Event::Frame(Frame::Hello { version }, n) => {
                stats.add(Counter::WireBytesIn, n as u64);
                if version != PROTO_VERSION {
                    stats.inc(Counter::SessionsRejected);
                    send(
                        shared,
                        conn,
                        &Frame::Reject {
                            reason: format!(
                            "protocol version mismatch: client v{version}, server v{PROTO_VERSION}"
                        ),
                        },
                    );
                    return close(conn, sess, shared);
                }
                if !acquire_slot(&shared.live, shared.config.max_sessions) {
                    stats.inc(Counter::SessionsRejected);
                    send(
                        shared,
                        conn,
                        &Frame::Reject {
                            reason: format!(
                                "session limit reached ({} live)",
                                shared.config.max_sessions
                            ),
                        },
                    );
                    return close(conn, sess, shared);
                }
                sess.slot_held = true;
                stats.inc(Counter::SessionsOpened);
                if !send(
                    shared,
                    conn,
                    &Frame::Welcome {
                        version: PROTO_VERSION,
                        session: conn.id,
                    },
                ) {
                    return close(conn, sess, shared);
                }
                let mediator = Arc::new((shared.factory)());
                sess.session = Some(mediator.session_arc());
                sess.handshook = true;
            }
            _ => close(conn, sess, shared),
        }
        return;
    }
    match ev {
        Event::Frame(Frame::Cmd(cmd), n) => {
            stats.add(Counter::WireBytesIn, n as u64);
            stats.inc(Counter::WireCommands);
            let session = sess.session.as_mut().expect("handshook session");
            let reply =
                if cmd.creates_result() && budget_exhausted(session, shared.config.node_budget) {
                    Reply::Err(MixError::plan(format!(
                        "session node budget exhausted ({} nodes); navigation of existing \
                     results is still allowed",
                        shared.config.node_budget
                    )))
                } else {
                    session.dispatch(cmd)
                };
            if !send(shared, conn, &Frame::Rep(reply)) {
                close(conn, sess, shared);
            }
        }
        Event::Frame(Frame::Bye, n) => {
            stats.add(Counter::WireBytesIn, n as u64);
            send(shared, conn, &Frame::Bye);
            close(conn, sess, shared);
        }
        Event::Frame(_, n) => {
            // A handshake frame mid-session is a protocol violation;
            // answer once and close.
            stats.add(Counter::WireBytesIn, n as u64);
            send(
                shared,
                conn,
                &Frame::Rep(Reply::Err(MixError::invalid(
                    "unexpected frame: only Cmd and Bye are valid after the handshake",
                ))),
            );
            close(conn, sess, shared);
        }
        Event::Idle | Event::Shutdown => {
            send(shared, conn, &Frame::Bye);
            close(conn, sess, shared);
        }
        Event::Closed => close(conn, sess, shared),
    }
}

/// Finish a connection: drop the session (joining its prefetch
/// producers), release the admission slot, and hand the socket back to
/// the OS. The wake makes the poller drop its state for the connection.
fn close(conn: &Arc<Conn>, sess: &mut SessState, shared: &Arc<Shared>) {
    sess.session = None;
    if std::mem::take(&mut sess.slot_held) {
        shared.live.fetch_sub(1, Ordering::AcqRel);
        shared.stats.inc(Counter::SessionsClosed);
    }
    conn.closed.store(true, Ordering::SeqCst);
    let _ = conn.stream.shutdown(NetShutdown::Both);
    shared.wake();
}

/// Take one session slot, or refuse if the server is full.
fn acquire_slot(live: &AtomicUsize, max: usize) -> bool {
    let mut cur = live.load(Ordering::Relaxed);
    loop {
        if max != 0 && cur >= max {
            return false;
        }
        match live.compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
}

/// Write one frame to the (nonblocking, poller-shared) socket, counting
/// bytes; `false` means the peer is gone. A full send buffer waits for
/// room, but a peer that takes none for a whole idle timeout has
/// stopped reading: the session is given up rather than let it hold
/// this worker forever.
fn send(shared: &Shared, conn: &Conn, frame: &Frame) -> bool {
    let bytes = frame.encode();
    let mut off = 0;
    while off < bytes.len() {
        match (&conn.stream).write(&bytes[off..]) {
            Ok(0) => return false,
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !matches!(
                    sys::wait_writable(&conn.stream, shared.config.idle_timeout),
                    Ok(true)
                ) {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    shared.stats.add(Counter::WireBytesOut, bytes.len() as u64);
    true
}
