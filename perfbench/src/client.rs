//! A timed QDOM client over any [`Target`] (an in-process session or a
//! wire client): every command is one timed call, classified for the
//! end-to-end latency metrics, and optionally captured for replay.

use crate::measure::Samples;
use mix::prelude::*;
use mix_workload::script::{render_transcript, Norm, Op, Reg, Script, Target};
use std::time::Instant;

/// What one run observed, summed over its sessions.
#[derive(Debug, Default, Clone)]
pub struct Log {
    /// `d`/`r`/`fl`/`fv` latencies.
    pub nav: Samples,
    /// Top-level `query` latencies, up to the returned root.
    pub query: Samples,
    /// `q(query, node)` latencies.
    pub inplace: Samples,
    /// From issuing `query` or `q` until the first `d` of its root
    /// returned.
    pub first_node: Samples,
    /// Full `d`/`r` walks of every node of a result.
    pub drain: Samples,
    /// Commands completed (every class, including `export`).
    pub ops: u64,
    /// Commands answered with an error.
    pub failed: u64,
    /// Sum of all command latencies, in nanoseconds.
    pub busy_ns: u64,
}

impl Log {
    pub fn absorb(&mut self, other: &Log) {
        self.nav.extend(&other.nav);
        self.query.extend(&other.query);
        self.inplace.extend(&other.inplace);
        self.first_node.extend(&other.first_node);
        self.drain.extend(&other.drain);
        self.ops += other.ops;
        self.failed += other.failed;
        self.busy_ns += other.busy_ns;
    }

    /// Closed-loop throughput: completed commands over the time spent
    /// waiting for them (1 / mean latency).
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.busy_ns.max(1) as f64 / 1e9)
    }
}

/// Whether `cmd` is a navigation command (`d`, `r`, `fl`, `fv`).
pub fn is_nav(cmd: &Command) -> bool {
    matches!(
        cmd,
        Command::D { .. } | Command::R { .. } | Command::Fl { .. } | Command::Fv { .. }
    )
}

/// A session seen through the benchmark: timed, classified calls.
pub struct Client<'a> {
    target: Box<dyn Target + 'a>,
    pub log: Log,
    /// Every (command, reply) pair, when capturing.
    pub captured: Option<Vec<(Command, Reply)>>,
    last_ns: u64,
}

impl<'a> Client<'a> {
    pub fn new(target: Box<dyn Target + 'a>) -> Client<'a> {
        Client {
            target,
            log: Log::default(),
            captured: None,
            last_ns: 0,
        }
    }

    pub fn capturing(mut self) -> Client<'a> {
        self.captured = Some(Vec::new());
        self
    }

    /// One timed command.
    pub fn call(&mut self, cmd: Command) -> Reply {
        let keep = self.captured.as_ref().map(|_| cmd.clone());
        let class = match &cmd {
            c if is_nav(c) => 0,
            Command::Query { .. } => 1,
            Command::Q { .. } => 2,
            _ => 3,
        };
        let t = Instant::now();
        let reply = self.target.call(cmd);
        let ns = t.elapsed().as_nanos() as u64;
        self.last_ns = ns;
        match class {
            0 => self.log.nav.push(ns),
            1 => self.log.query.push(ns),
            2 => self.log.inplace.push(ns),
            _ => {}
        }
        self.log.ops += 1;
        self.log.busy_ns += ns;
        if matches!(reply, Reply::Err(_)) {
            self.log.failed += 1;
        }
        if let (Some(c), Some(cap)) = (keep, self.captured.as_mut()) {
            cap.push((c, reply.clone()));
        }
        reply
    }

    fn node(&mut self, cmd: Command) -> Option<WireNode> {
        match self.call(cmd) {
            Reply::Node(w) => Some(w),
            _ => None,
        }
    }

    fn step(&mut self, cmd: Command) -> Option<WireNode> {
        match self.call(cmd) {
            Reply::Step(s) => s,
            _ => None,
        }
    }

    pub fn query(&mut self, text: &str) -> Option<WireNode> {
        self.node(Command::Query { text: text.into() })
    }

    pub fn q(&mut self, text: &str, from: WireNode) -> Option<WireNode> {
        self.node(Command::Q {
            text: text.into(),
            from,
        })
    }

    pub fn d(&mut self, p: WireNode) -> Option<WireNode> {
        self.step(Command::D { p })
    }

    pub fn r(&mut self, p: WireNode) -> Option<WireNode> {
        self.step(Command::R { p })
    }

    pub fn fl(&mut self, p: WireNode) -> Option<String> {
        match self.call(Command::Fl { p }) {
            Reply::Label(Some(l)) => Some(l.to_string()),
            _ => None,
        }
    }

    pub fn fv(&mut self, p: WireNode) {
        self.call(Command::Fv { p });
    }

    pub fn export(&mut self, p: WireNode, max_rows: u32) {
        self.call(Command::Export { p, max_rows });
    }

    pub fn render(&mut self, p: WireNode) -> String {
        match self.call(Command::Render { p }) {
            Reply::Text(t) => t,
            other => format!("{other:?}"),
        }
    }

    /// Issue a top-level query and its first `d`, recording the
    /// time-to-first-node. Returns the root and its first child.
    pub fn query_first(&mut self, text: &str) -> Option<(WireNode, Option<WireNode>)> {
        let root = self.query(text)?;
        let issue = self.last_ns;
        let first = self.d(root);
        self.log.first_node.push(issue + self.last_ns);
        Some((root, first))
    }

    /// `q` plus its first `d`, recording the time-to-first-node.
    pub fn q_first(&mut self, text: &str, from: WireNode) -> Option<(WireNode, Option<WireNode>)> {
        let root = self.q(text, from)?;
        let issue = self.last_ns;
        let first = self.d(root);
        self.log.first_node.push(issue + self.last_ns);
        Some((root, first))
    }

    /// Walk every node under `p` with `d`/`r`, recording the drain
    /// time. Returns the number of nodes visited, `p` included.
    pub fn drain(&mut self, p: WireNode) -> u64 {
        self.drain_from(p, None)
    }

    /// Issue a top-level query and drain its answer; the drain's first
    /// `d` completes the time-to-first-node.
    pub fn query_drain(&mut self, text: &str) -> Option<(WireNode, u64)> {
        let root = self.query(text)?;
        let issue = self.last_ns;
        Some((root, self.drain_from(root, Some(issue))))
    }

    /// `q` plus a drain of its answer (see [`Client::query_drain`]).
    pub fn q_drain(&mut self, text: &str, from: WireNode) -> Option<(WireNode, u64)> {
        let root = self.q(text, from)?;
        let issue = self.last_ns;
        Some((root, self.drain_from(root, Some(issue))))
    }

    fn drain_from(&mut self, p: WireNode, issue_ns: Option<u64>) -> u64 {
        let busy = self.log.busy_ns;
        let mut nodes = 1;
        let mut stack = Vec::new();
        let mut cur = self.d(p);
        if let Some(issue) = issue_ns {
            self.log.first_node.push(issue + self.last_ns);
        }
        loop {
            match cur {
                Some(c) => {
                    nodes += 1;
                    stack.push(c);
                    cur = self.d(c);
                }
                None => match stack.pop() {
                    Some(done) => cur = self.r(done),
                    None => break,
                },
            }
        }
        self.log.drain.push(self.log.busy_ns - busy);
        nodes
    }
}

/// The fuzzer's transcript rendering of captured replies under `norm`.
pub fn transcript(captured: &[(Command, Reply)], norm: Norm) -> Vec<String> {
    let ops = captured
        .iter()
        .map(|(c, _)| match c {
            Command::Render { .. } => Op::Render(Reg(0)),
            Command::Explain { .. } => Op::Explain(Reg(0)),
            _ => Op::D(Reg(0)),
        })
        .collect();
    let script = Script {
        queries: Vec::new(),
        inplace: Vec::new(),
        ops,
    };
    let raw: Vec<Option<Reply>> = captured.iter().map(|(_, r)| Some(r.clone())).collect();
    render_transcript(&script, &raw, norm)
}

/// Compare two transcripts; on a mismatch, describe the first
/// differing line.
pub fn same_transcript(what: &str, a: &[String], b: &[String]) -> std::result::Result<(), String> {
    if a.len() != b.len() {
        return Err(format!(
            "{what}: transcripts differ in length ({} vs {})",
            a.len(),
            b.len()
        ));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            return Err(format!("{what}: line {i} differs: {x} vs {y}"));
        }
    }
    Ok(())
}
