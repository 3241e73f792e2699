//! Session scripts: mixed navigate/query/decontextualize/export
//! command sequences, plus the machinery to run one script against any
//! [`Target`] (in-process session or wire client) and compare the
//! transcripts under a chosen normalization level.

use crate::gen::{gen_inplace_query, gen_top_query, Dataset, Rng};
use mix::prelude::*;

/// A register naming one of the node handles the script has produced
/// so far; resolved modulo the live-handle count at execution time, so
/// the same script is valid under every knob setting (equivalent runs
/// produce the same *number* of handles even when the numerals differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reg(pub u32);

/// One scripted session command. Node-valued commands name their
/// argument via [`Reg`]; query text lives in the script's pools so a
/// minimizer can drop ops without dangling references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Issue top-level query `queries[i]`.
    Query(usize),
    /// `q(inplace[query], roots[node])` — composition from a result
    /// root (or decontextualization when navigation handed back an
    /// interior root). Resolves over *roots*, not all handles.
    QFrom { query: usize, node: Reg },
    /// First child.
    D(Reg),
    /// Right sibling.
    R(Reg),
    /// Element label.
    Fl(Reg),
    /// Leaf value.
    Fv(Reg),
    /// Force + collect children.
    Children(Reg),
    /// Force + count children.
    ChildCount(Reg),
    /// Render the subtree (the content carrier for equivalence).
    Render(Reg),
    /// EXPLAIN — executed for coverage; its text is never compared
    /// (plan annotations legitimately differ across knobs).
    Explain(Reg),
    /// Bulk columnar export of up to `max_rows` children.
    Export { node: Reg, max_rows: u32 },
    /// Counter snapshot — executed for coverage, never compared
    /// (prefetch makes shipping counters timing-dependent).
    Stats,
}

/// A generated session: query-text pools plus the op sequence.
#[derive(Debug, Clone)]
pub struct Script {
    /// Top-level query texts ([`Op::Query`] indexes these).
    pub queries: Vec<String>,
    /// In-place query texts ([`Op::QFrom`] indexes these).
    pub inplace: Vec<String>,
    /// The command sequence.
    pub ops: Vec<Op>,
}

impl Script {
    /// Human-readable dump (what a failing fuzz case prints).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        for (i, q) in self.queries.iter().enumerate() {
            out.push_str(&format!("query[{i}]: {q}\n"));
        }
        for (i, q) in self.inplace.iter().enumerate() {
            out.push_str(&format!("inplace[{i}]: {q}\n"));
        }
        for (i, op) in self.ops.iter().enumerate() {
            out.push_str(&format!("op[{i}]: {op:?}\n"));
        }
        out
    }
}

/// Generate a mixed session script of about `len` ops over `ds`.
/// Always opens with `Query(0)`, so node registers have something to
/// resolve against from the second op on.
pub fn gen_script(rng: &mut Rng, ds: &Dataset, len: usize) -> Script {
    let n_q = 1 + rng.below(3) as usize;
    let mut queries = Vec::new();
    let mut shapes = Vec::new();
    for _ in 0..n_q {
        let q = gen_top_query(rng, ds);
        queries.push(q.text);
        shapes.push(q.shape);
    }
    let n_ip = 1 + rng.below(3) as usize;
    let mut inplace = Vec::new();
    for _ in 0..n_ip {
        let shape = rng.pick(&shapes).clone();
        inplace.push(gen_inplace_query(rng, ds, &shape));
    }
    let mut ops = vec![Op::Query(0)];
    for _ in 0..len {
        let reg = Reg(rng.next_u64() as u32);
        ops.push(match rng.below(100) {
            0..=7 => Op::Query(rng.below(queries.len() as u64) as usize),
            8..=16 => Op::QFrom {
                query: rng.below(inplace.len() as u64) as usize,
                node: reg,
            },
            17..=31 => Op::D(reg),
            32..=46 => Op::R(reg),
            47..=54 => Op::Fl(reg),
            55..=62 => Op::Fv(reg),
            63..=72 => Op::Children(reg),
            73..=79 => Op::ChildCount(reg),
            80..=87 => Op::Render(reg),
            88..=89 => Op::Explain(reg),
            90..=96 => Op::Export {
                node: reg,
                max_rows: rng.below(5) as u32,
            },
            _ => Op::Stats,
        });
    }
    Script {
        queries,
        inplace,
        ops,
    }
}

// ---- execution -------------------------------------------------------

/// Anything that can serve the QDOM [`Command`] surface: an in-process
/// [`QdomSession`] or a [`WireClient`] talking to `mix-serve`.
pub trait Target {
    /// Execute one command; transport failures should panic (the fuzz
    /// and soak configurations make transport errors impossible by
    /// construction — a chaos fault surfaces as [`Reply::Err`]).
    fn call(&mut self, cmd: Command) -> Reply;
}

impl Target for QdomSession<'_> {
    fn call(&mut self, cmd: Command) -> Reply {
        self.dispatch(cmd)
    }
}

impl Target for WireClient {
    fn call(&mut self, cmd: Command) -> Reply {
        match WireClient::call(self, cmd) {
            Ok(r) => r,
            Err(e) => panic!("wire transport error: {e}"),
        }
    }
}

/// How strictly two transcripts are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Norm {
    /// Bit-for-bit, handles included (wire vs in-process on identical
    /// options).
    Exact,
    /// Handle numerals elided; everything else exact, rendered text
    /// including oids (lazy vs eager, block policies: same oids,
    /// different handle spacing).
    NoHandles,
    /// Additionally strip per-line oid prefixes from rendered text
    /// (cached vs fresh plans re-mint skolem oids).
    Content,
}

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

fn fmt_node(w: WireNode, norm: Norm) -> String {
    match norm {
        Norm::Exact => format!("({},{})", w.result, w.node),
        _ => "(#)".to_string(),
    }
}

fn fmt_value(v: &Value) -> String {
    match v {
        Value::Null => "·".to_string(),
        other => format!("{other}"),
    }
}

fn fmt_block(b: &ColumnBlock, norm: Norm) -> String {
    let mut out = format!("block[{}]", b.len());
    for r in 0..b.len() {
        out.push_str(" {");
        let start = if norm == Norm::Exact { 0 } else { 1 };
        for c in start..b.arity() {
            if c > start {
                out.push(' ');
            }
            out.push_str(&fmt_value(&b.value_at(r, c)));
        }
        out.push('}');
    }
    out
}

/// Render one reply under `norm`. `op` disambiguates the text-valued
/// commands (Render is compared, Explain is not).
fn fmt_reply(op: &Op, reply: &Reply, norm: Norm) -> String {
    match reply {
        Reply::Node(w) => format!("node{}", fmt_node(*w, norm)),
        Reply::Step(Some(w)) => format!("step{}", fmt_node(*w, norm)),
        Reply::Step(None) => "step(-)".to_string(),
        Reply::Label(Some(n)) => format!("label({n})"),
        Reply::Label(None) => "label(-)".to_string(),
        Reply::Value(Some(v)) => format!("value({})", fmt_value(v)),
        Reply::Value(None) => "value(-)".to_string(),
        Reply::Nodes(v) => match norm {
            Norm::Exact => format!(
                "nodes[{}]",
                v.iter()
                    .map(|w| fmt_node(*w, norm))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            _ => format!("nodes[{}]", v.len()),
        },
        Reply::Count(n) => format!("count({n})"),
        Reply::Text(t) => match op {
            Op::Explain(_) => "explain:ok".to_string(),
            _ if norm == Norm::Content => format!("text<{}>", content_only(t)),
            _ => format!("text<{t}>"),
        },
        Reply::Block(b) => fmt_block(b, norm),
        Reply::Stats(_) => "stats:ok".to_string(),
        Reply::Err(e) => format!("err({e})"),
    }
}

/// Run `script` against `target`, returning the raw reply per op
/// (`None` where the op had no resolvable register yet). Handle
/// bookkeeping (`handles`, `roots`) is driven by the replies, so
/// equivalent runs stay register-aligned even though their handle
/// numerals differ.
pub fn run_script_raw(target: &mut dyn Target, script: &Script) -> Vec<Option<Reply>> {
    let mut handles: Vec<WireNode> = Vec::new();
    let mut roots: Vec<WireNode> = Vec::new();
    let mut out = Vec::with_capacity(script.ops.len());
    for op in &script.ops {
        let pick = |regs: &[WireNode], r: Reg| -> Option<WireNode> {
            if regs.is_empty() {
                None
            } else {
                Some(regs[r.0 as usize % regs.len()])
            }
        };
        let cmd = match *op {
            Op::Query(i) => Some(Command::Query {
                text: script.queries[i].clone(),
            }),
            Op::QFrom { query, node } => pick(&roots, node).map(|from| Command::Q {
                text: script.inplace[query].clone(),
                from,
            }),
            Op::D(r) => pick(&handles, r).map(|p| Command::D { p }),
            Op::R(r) => pick(&handles, r).map(|p| Command::R { p }),
            Op::Fl(r) => pick(&handles, r).map(|p| Command::Fl { p }),
            Op::Fv(r) => pick(&handles, r).map(|p| Command::Fv { p }),
            Op::Children(r) => pick(&handles, r).map(|p| Command::Children { p }),
            Op::ChildCount(r) => pick(&handles, r).map(|p| Command::ChildCount { p }),
            Op::Render(r) => pick(&handles, r).map(|p| Command::Render { p }),
            Op::Explain(r) => pick(&handles, r).map(|p| Command::Explain { p }),
            Op::Export { node, max_rows } => {
                pick(&handles, node).map(|p| Command::Export { p, max_rows })
            }
            Op::Stats => Some(Command::Stats),
        };
        let Some(cmd) = cmd else {
            out.push(None);
            continue;
        };
        let reply = target.call(cmd);
        match &reply {
            Reply::Node(w) => {
                handles.push(*w);
                roots.push(*w);
            }
            Reply::Step(Some(w)) => handles.push(*w),
            Reply::Nodes(v) => handles.extend(v.iter().copied()),
            _ => {}
        }
        out.push(Some(reply));
    }
    out
}

/// Render a raw run into one transcript line per op under `norm`.
pub fn render_transcript(script: &Script, raw: &[Option<Reply>], norm: Norm) -> Vec<String> {
    script
        .ops
        .iter()
        .zip(raw)
        .map(|(op, r)| match r {
            None => "skip".to_string(),
            Some(reply) => fmt_reply(op, reply, norm),
        })
        .collect()
}

/// [`run_script_raw`] + [`render_transcript`] in one call.
pub fn run_script(target: &mut dyn Target, script: &Script, norm: Norm) -> Vec<String> {
    let raw = run_script_raw(target, script);
    render_transcript(script, &raw, norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Dataset;
    use std::sync::Arc;

    #[test]
    fn scripts_are_deterministic() {
        let mk = || {
            let mut rng = Rng(42);
            let ds = Dataset::gen(&mut rng, 10);
            (ds, gen_script(&mut rng, &ds, 30))
        };
        let (_, a) = mk();
        let (_, b) = mk();
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn run_script_produces_aligned_transcripts() {
        let mut rng = Rng(9);
        let ds = Dataset::gen(&mut rng, 10);
        let script = gen_script(&mut rng, &ds, 25);
        let (catalog, _db) = ds.build();
        let m = Arc::new(Mediator::new(catalog));
        let mut s1 = m.session_arc();
        let mut s2 = m.session_arc();
        let t1 = run_script(&mut s1, &script, Norm::Exact);
        let t2 = run_script(&mut s2, &script, Norm::Exact);
        assert_eq!(t1.len(), script.ops.len());
        assert_eq!(t1, t2);
    }
}
