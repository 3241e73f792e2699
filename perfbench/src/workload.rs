//! What every workload provides, how its sessions are opened, and the
//! end-to-end metrics computed from its logs.

use crate::client::{Client, Log};
use crate::measure::{median_f, Report, Samples};
use mix::prelude::*;
use mix::serve::MediatorFactory;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which items a run covers: from `first`, until a deadline or an item
/// bound (exclusive), or both.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    pub first: usize,
    deadline: Option<Instant>,
    end: Option<usize>,
}

impl Stop {
    pub fn after(d: Duration) -> Stop {
        Stop {
            first: 0,
            deadline: Some(Instant::now() + d),
            end: None,
        }
    }

    pub fn items(n: usize) -> Stop {
        Stop::range(0, n)
    }

    /// Items `first..end`.
    pub fn range(first: usize, end: usize) -> Stop {
        Stop {
            first,
            deadline: None,
            end: Some(end),
        }
    }

    /// Items from `first` until `d` has passed.
    pub fn from_for(first: usize, d: Duration) -> Stop {
        Stop {
            first,
            ..Stop::after(d)
        }
    }

    /// Whether item `i` should not start.
    pub fn done(&self, i: usize) -> bool {
        self.end.is_some_and(|n| i >= n) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The first warm-up item: far from the measured items `0..`.
const WARM_FIRST: usize = 1 << 40;

/// Where sessions come from: the workload's wire server, or fresh
/// in-process mediators from the same factory.
pub enum Mode {
    Wire(SocketAddr),
    InProcess(Arc<MediatorFactory>),
}

/// Opens the sessions of one run; optionally captures every command and
/// sums the per-session engine counters of in-process sessions.
pub struct Opener {
    mode: Mode,
    capture: bool,
    /// One (command, reply) list per closed session, when capturing.
    pub sessions: Vec<Vec<(Command, Reply)>>,
    /// Per-session (`EvalContext`) counters summed over closed
    /// in-process sessions, indexed like [`Counter::ALL`].
    pub ctx_counters: Vec<u64>,
    open_ctx: Option<Arc<EvalContext>>,
}

impl Opener {
    pub fn new(mode: Mode, capture: bool) -> Opener {
        Opener {
            mode,
            capture,
            sessions: Vec::new(),
            ctx_counters: vec![0; Counter::ALL.len()],
            open_ctx: None,
        }
    }

    pub fn open(&mut self) -> Client<'static> {
        let client = match &self.mode {
            Mode::Wire(addr) => Client::new(Box::new(
                WireClient::connect(addr).expect("the benchmark's server accepts a session"),
            )),
            Mode::InProcess(factory) => {
                let m = Arc::new(factory());
                let s = m.session_arc();
                self.open_ctx = Some(Arc::clone(s.ctx()));
                Client::new(Box::new(s))
            }
        };
        if self.capture {
            client.capturing()
        } else {
            client
        }
    }

    /// End a session; its remaining log is returned.
    pub fn close(&mut self, mut c: Client<'static>) -> Log {
        if let Some(cap) = c.captured.take() {
            self.sessions.push(cap);
        }
        if let Some(ctx) = self.open_ctx.take() {
            for (i, &k) in Counter::ALL.iter().enumerate() {
                self.ctx_counters[i] += ctx.stats().get(k);
            }
        }
        std::mem::take(&mut c.log)
    }
}

/// Which end-to-end operation a workload's layer coverage is judged on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Focus {
    /// A navigation command over the wire.
    WireNav,
    /// A full drain of a result.
    Drain,
    /// A top-level query, up to its root.
    Query,
}

pub trait Workload {
    /// One line stating the inputs (sizes, seed-derived parameters).
    fn describe(&self) -> String;
    /// Run one item untimed, so caches fill and lazy set-up finishes.
    fn warm_up(&mut self) {
        let mut opener = Opener::new(self.mode(), false);
        let n = self.warm_items();
        self.run_with(&mut opener, Stop::range(WARM_FIRST, WARM_FIRST + n));
    }
    /// Items the warm-up runs (drawn far from the measured ones).
    fn warm_items(&self) -> usize;
    /// Items of the traced run's counted replay: a fixed prefix of the
    /// measured items, so every count repeats exactly for a seed.
    fn counted_items(&self) -> usize;
    /// The correctness pin; `Err` describes the first mismatch.
    fn check(&mut self) -> std::result::Result<(), String>;
    /// Run items from the first until `stop`, with sessions from
    /// `opener`; one log per item.
    fn run_with(&mut self, opener: &mut Opener, stop: Stop) -> Vec<Log>;
    /// The workload's own sessions (wire or in-process).
    fn mode(&self) -> Mode;
    /// Builds a mediator configured exactly like the workload's.
    fn factory(&self) -> Arc<MediatorFactory>;
    /// The backend's shared counters.
    fn backend_stats(&self) -> Stats;
    /// The operation whose layer coverage is reported.
    fn focus(&self) -> Focus;
    /// Switch the backend's modelled round-trip time off or back on;
    /// returns whether the workload models one at all.
    fn set_modelled_rtt(&self, _on: bool) -> bool {
        false
    }

    fn run(&mut self, stop: Stop) -> Vec<Log> {
        let mut opener = Opener::new(self.mode(), false);
        self.run_with(&mut opener, stop)
    }
}

/// Sum per-item logs.
pub fn pooled(logs: &[Log]) -> Log {
    let mut all = Log::default();
    for l in logs {
        all.absorb(l);
    }
    all
}

/// The end-to-end metrics of a measured run made of consecutive time
/// slices (each slice's item logs and its process CPU µs). Every gated
/// value is the median over slices of the slice's value; the throughput
/// and the tail percentiles are printed as information lines, also as
/// medians over slices (they spread too much from run to run to be
/// gated; see `DESCRIPTION.md`). Returns (attempted, failed).
pub fn end_to_end(slices: &[(Vec<Log>, f64)], r: &mut Report) -> (u64, u64) {
    type Pick = fn(&Log) -> &Samples;
    let classes: [(&str, Pick, f64); 5] = [
        ("nav", |l| &l.nav, 95.0),
        ("query", |l| &l.query, 95.0),
        ("inplace", |l| &l.inplace, 95.0),
        ("first_node", |l| &l.first_node, 95.0),
        ("drain", |l| &l.drain, 90.0),
    ];
    let (mut ops, mut failed, mut items) = (0, 0, 0);
    let (mut cpu, mut rate) = (Vec::new(), Vec::new());
    let mut p50 = vec![Vec::new(); classes.len()];
    let mut tail = vec![Vec::new(); classes.len()];
    let mut counts = vec![0; classes.len()];
    for (logs, cpu_us) in slices {
        let s = pooled(logs);
        (ops, failed, items) = (ops + s.ops, failed + s.failed, items + logs.len());
        if s.ops > 0 {
            cpu.push(cpu_us / s.ops as f64);
            rate.push(s.ops_per_s());
        }
        for (k, (_, pick, tail_pct)) in classes.iter().enumerate() {
            let x = pick(&s);
            counts[k] += x.len();
            if x.len() > 0 {
                p50[k].push(x.pct(50.0));
                tail[k].push(x.pct(*tail_pct));
            }
        }
    }
    r.add("cpu_us_per_op", median_f(&cpu), "us", ops as usize);
    for (k, (name, _, tail_pct)) in classes.iter().enumerate() {
        let (unit, scale) = if *name == "drain" {
            ("ms", 1e6)
        } else {
            ("us", 1e3)
        };
        r.add(
            &format!("{name}_p50_{unit}"),
            median_f(&p50[k]) / scale,
            unit,
            counts[k],
        );
        println!(
            "info: {name}_p{tail_pct}_{unit}={:.4} (n={}, not gated)",
            median_f(&tail[k]) / scale,
            counts[k]
        );
    }
    println!(
        "info: ops_per_s={:.1} (closed loop, 1 / mean latency; {ops} commands in {items} items, \
         {failed} failed; not gated)",
        median_f(&rate)
    );
    (ops, failed)
}

/// Linux `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u8; 128];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 128];
    // SAFETY: `set` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, set.len(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..set.len() * 8)
        .filter(|&c| set[c / 8] & (1 << (c % 8)) != 0)
        .collect()
}

/// Restrict the calling thread, and the threads it spawns, to `cpu`.
pub fn confine_current_thread(cpu: usize) {
    let mut set: CpuSet = [0; 128];
    set[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `set` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, set.len(), &set) };
    assert_eq!(rc, 0, "sched_setaffinity to an allowed CPU succeeds");
}

/// Start a loopback server over `factory` with the default
/// configuration, its threads confined to one CPU (the last this
/// process may use; they inherit it from the thread that spawns them,
/// and the default pool sizes itself to that one CPU) while clients are
/// left to the scheduler. `DESCRIPTION.md` records why: unconfined, a
/// single-session wire command settles per process in a ~17 µs or a
/// ~160 µs mode; confined, it stays in the ~160 µs mode.
pub fn start_server(factory: Arc<MediatorFactory>) -> Server {
    let server_cpu = allowed_cpus().last().copied();
    std::thread::spawn(move || {
        if let Some(cpu) = server_cpu {
            confine_current_thread(cpu);
        }
        Server::start("127.0.0.1:0", ServerConfig::default(), factory)
    })
    .join()
    .expect("the server start thread does not panic")
    .expect("bind a loopback port")
}
