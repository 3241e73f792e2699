//! Pipelined execution.
//!
//! Every plan node is an iterator over typed [`ColumnBlock`]s; [`Cursor`]
//! is the source's client handle, which "allows the partial evaluation
//! of the result" (Section 1). A column block is the only shape that
//! crosses the cursor seam. The shared [`Stats`] counts rows scanned
//! internally and tuples shipped through the cursor, so benchmarks can
//! observe how much of a query the mediator actually pulled.
//!
//! Every pull is fallible: a remote backend (or the chaos wrapper,
//! [`crate::FaultPolicy`]) can fail any block, so pulls return `Result`
//! and a failed pull delivers *no* rows — re-issuing the same pull after
//! a transient fault returns exactly what the failed one would have
//! ([`Cursor::next_cblock_retrying`]).

use crate::fault::ChaosState;
use crate::plan::{PhysPlan, ROperand, RPred};
use crate::prefetch::{self, FetchedBlock, PrefetchHandle, PrefetchMsg};
use crate::table::{Row, Table};
use mix_common::ring::TryRecv;
use mix_common::{
    BlockRamp, ColumnBlock, Counter, MixError, PrefetchPolicy, Result, RetryPolicy, Stats, Value,
};
use mix_obs::TracerHandle;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// A pipelined iterator over typed column blocks. Fallible: only the
/// chaos wrapper fails today, but the `Result` contract is what lets
/// real remote backends slot in behind the same cursor. `Send` because
/// blocks are plain [`Value`] data: the pipelined prefetcher can move a
/// compiled plan to its thread without touching anything above the
/// [`Cursor`] seam.
pub(crate) trait RowIter: Send {
    /// Append up to `n` rows to `out`; returns how many were produced
    /// (`0` = exhausted). A join may append every match of the probe
    /// rows it pulled, which can exceed `n`. On `Err`, nothing was
    /// appended.
    fn next_cblock(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize>;

    /// `(lower, upper)` bounds on the rows still to come, like
    /// [`Iterator::size_hint`].
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

/// Block size for internal full drains (build sides, sorts, eager
/// collection). One block of this size costs one virtual dispatch.
const DRAIN_BLOCK: usize = mix_common::MAX_AUTO_BLOCK;

/// Drain `src` (of the given arity) to exhaustion into one block.
fn materialize(src: &mut dyn RowIter, arity: usize) -> Result<ColumnBlock> {
    let mut block = ColumnBlock::new(arity);
    block.reserve(src.size_hint().0);
    while src.next_cblock(&mut block, DRAIN_BLOCK)? > 0 {}
    Ok(block)
}

/// Run one chaos-gated pull against the compiled plan: the fault gate
/// fires *before* any row is produced (so a failed pull is
/// side-effect-free and retryable), and the modelled backend RTT is
/// *returned*, not paid — the synchronous path sleeps it inline, the
/// prefetcher defers delivery to the block's arrival time. Shared by
/// [`Cursor`] and the prefetcher job so both paths run the exact same
/// admit sequence.
pub(crate) fn gated_cpull(
    iter: &mut dyn RowIter,
    chaos: &mut Option<ChaosState>,
    out: &mut ColumnBlock,
    n: usize,
) -> Result<(usize, u64)> {
    match chaos {
        None => Ok((iter.next_cblock(out, n)?, 0)),
        Some(state) => {
            let (allowed, latency_ms) = state.admit(n)?;
            let k = iter.next_cblock(out, allowed)?;
            state.delivered(k as u64);
            Ok((k, latency_ms))
        }
    }
}

fn sleep_ms(ms: u64) {
    if ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Where a cursor's rows come from.
enum Backing {
    /// Synchronous pulls straight from the compiled plan, gated by the
    /// chaos backend. The starting state of every cursor.
    Sync {
        iter: Box<dyn RowIter>,
        chaos: Option<ChaosState>,
    },
    /// A background prefetcher owns the plan; blocks arrive over its
    /// bounded channel.
    Live(PrefetchHandle),
    /// The prefetcher surfaced a terminal error; every further pull
    /// re-reports it (matching the latched-error semantics consumers
    /// already implement for the synchronous path).
    Latched(MixError),
    /// Exhausted: the prefetcher drained the plan and was joined.
    Done,
    /// K-way ordered merge over per-shard child cursors (the
    /// scatter-gather path of a sharded backend). The children account
    /// their own shipped tuples/blocks into the shared aggregate
    /// [`Stats`]; the merge itself only tracks `delivered`.
    Merge(MergeState),
}

/// State of a k-way ordered merge over shard cursors.
///
/// Each child streams rows already sorted by the comparator key
/// positions (`keys`); the merge repeatedly emits the smallest buffered
/// head. Invariants:
///
/// * A child is pulled only when its buffer is drained, so `done[i]`
///   implies buffer `i` is drained — exhaustion never strands rows.
/// * Rows are emitted only while every non-exhausted child has a
///   buffered row; when a buffer runs dry mid-block the pull returns a
///   *partial* count (`> 0`), and only full exhaustion returns `0`.
/// * Refill errors surface before anything is emitted, and a failed
///   child pull is side-effect-free — so the whole merge pull is
///   retryable, and a retry only re-pulls the child that failed.
pub(crate) struct MergeState {
    children: Vec<Cursor>,
    /// Each child's last pulled block; rows `heads[i]..` are unmerged.
    bufs: Vec<ColumnBlock>,
    heads: Vec<usize>,
    done: Vec<bool>,
    /// Comparator positions into the (possibly key-widened) child row.
    keys: Vec<usize>,
    /// Appended trailing columns to drop before delivery (the shard
    /// statements were widened with key columns to make the merge order
    /// total; the consumer sees the original arity).
    strip: usize,
    /// DISTINCT merge: break comparator ties on the full row (equal
    /// rows from different shards become adjacent) and drop adjacent
    /// duplicates.
    dedup: bool,
    /// Last row emitted (pre-strip), for adjacent dedup.
    last: Option<Row>,
}

impl MergeState {
    fn buffered(&self, i: usize) -> usize {
        self.bufs[i].len() - self.heads[i]
    }

    /// Compare the heads of children `a` and `b` (the shard index is
    /// the final tie-break, making the merge deterministic).
    fn cmp_heads(&self, a: usize, b: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering::Equal;
        let (ba, ra) = (&self.bufs[a], self.heads[a]);
        let (bb, rb) = (&self.bufs[b], self.heads[b]);
        let full = 0..if self.dedup { ba.arity() } else { 0 };
        for c in self.keys.iter().copied().chain(full) {
            let o = ba.value_at(ra, c).total_cmp(&bb.value_at(rb, c));
            if o != Equal {
                return o;
            }
        }
        a.cmp(&b)
    }

    /// Append up to `n` merged rows to `out`. See the struct docs for
    /// the refill/emit protocol.
    fn pull(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize> {
        let mut k = 0;
        loop {
            // Phase 1: refill every drained, non-exhausted child buffer.
            // Errors propagate before any row of this round is emitted.
            for i in 0..self.children.len() {
                if self.done[i] || self.buffered(i) > 0 {
                    continue;
                }
                self.bufs[i].clear();
                self.heads[i] = 0;
                if self.children[i].next_cblock(&mut self.bufs[i], n.max(1))? == 0 {
                    self.done[i] = true;
                }
            }
            if (0..self.children.len()).all(|i| self.buffered(i) == 0) {
                return Ok(k); // fully exhausted (k may be 0)
            }
            // Phase 2: emit minima while every live child is buffered.
            loop {
                if k == n {
                    return Ok(k);
                }
                if (0..self.children.len()).any(|i| !self.done[i] && self.buffered(i) == 0) {
                    break; // a live child ran dry: partial block or refill
                }
                let Some(b) = (0..self.children.len())
                    .filter(|&i| self.buffered(i) > 0)
                    .reduce(|best, i| {
                        if self.cmp_heads(i, best).is_lt() {
                            i
                        } else {
                            best
                        }
                    })
                else {
                    return Ok(k); // all buffers empty and all done
                };
                let mut row = self.bufs[b].row(self.heads[b]);
                self.heads[b] += 1;
                if self.dedup {
                    if self.last.as_ref() == Some(&row) {
                        continue; // cross-shard duplicate under DISTINCT
                    }
                    self.last = Some(row.clone());
                }
                row.truncate(row.len() - self.strip);
                out.push_row(row);
                k += 1;
            }
            if k > 0 {
                return Ok(k);
            }
            // Dedup consumed the whole round; refill and continue.
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let buffered: usize = (0..self.children.len()).map(|i| self.buffered(i)).sum();
        let mut lo = buffered;
        let mut hi = Some(buffered);
        for (i, c) in self.children.iter().enumerate() {
            if self.done[i] {
                continue;
            }
            let (l, h) = c.size_hint();
            lo += l;
            hi = match (hi, h) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
        }
        if self.dedup {
            (0, hi)
        } else {
            (lo, hi)
        }
    }
}

/// Prefetch configuration armed on a cursor but not yet started (the
/// thread spawns only after the first demanded pull — see
/// [`Cursor::enable_prefetch`]).
struct ArmedPrefetch {
    depth: usize,
    ramp: BlockRamp,
    retry: RetryPolicy,
}

/// The cursor a source hands back for a query. Pull column blocks with
/// [`Cursor::next_cblock`]; each delivered row bumps the source's
/// `TuplesShipped` counter (a row never pulled is never counted — the
/// measurable benefit of navigation-driven evaluation).
pub struct Cursor {
    backing: Backing,
    armed: Option<ArmedPrefetch>,
    stats: Stats,
    tracer: TracerHandle,
    arity: usize,
    delivered: u64,
    retries: u64,
}

impl Cursor {
    pub(crate) fn new(
        plan: &PhysPlan,
        stats: Stats,
        tracer: TracerHandle,
        chaos: Option<ChaosState>,
    ) -> Cursor {
        let arity = plan.arity();
        let iter = compile(plan, &stats);
        Cursor {
            backing: Backing::Sync { iter, chaos },
            armed: None,
            stats,
            tracer,
            arity,
            delivered: 0,
            retries: 0,
        }
    }

    /// A scatter-gather cursor: k-way ordered merge over per-shard
    /// child cursors. `keys` are comparator positions into the child
    /// rows (which may carry `strip` appended trailing key columns the
    /// consumer never sees); `dedup` drops adjacent duplicates for
    /// DISTINCT statements. `arity` is the *delivered* arity (after
    /// stripping). The children account their own `TuplesShipped`/
    /// `BlocksShipped` into the shared stats; the merge cursor adds no
    /// accounting of its own, so sharded and unsharded runs meter the
    /// source↔mediator boundary the same way.
    pub(crate) fn merged(
        children: Vec<Cursor>,
        keys: Vec<usize>,
        strip: usize,
        dedup: bool,
        arity: usize,
        stats: Stats,
        tracer: TracerHandle,
    ) -> Cursor {
        let n = children.len();
        Cursor {
            backing: Backing::Merge(MergeState {
                bufs: children
                    .iter()
                    .map(|c| ColumnBlock::new(c.arity()))
                    .collect(),
                heads: vec![0; n],
                done: vec![false; n],
                children,
                keys,
                strip,
                dedup,
                last: None,
            }),
            armed: None,
            stats,
            tracer,
            arity,
            delivered: 0,
            retries: 0,
        }
    }

    /// Arm pipelined prefetch on this cursor: once the first block has
    /// been demanded (served synchronously, so the first `d()` still
    /// ships exactly one row), a background thread keeps up to
    /// `policy.depth()` blocks in flight over a bounded channel,
    /// following `ramp` — the consumer's own block schedule — so the
    /// admit sequence, and with it the chaos backend's fault schedule
    /// and all `BlocksShipped` accounting, is bit-for-bit the one the
    /// synchronous path would produce. Transient faults are retried
    /// in-thread under `retry`; errors that escape arrive over the
    /// channel and latch. `PrefetchPolicy::Off` is a no-op.
    ///
    /// `ramp` must be a fresh clone of the ramp the consumer will pull
    /// with, taken before its first `next_size()` call.
    ///
    /// [`PrefetchPolicy::Auto`] additionally gates on the statement's
    /// modelled backend RTT: with nothing to overlap (a zero-latency
    /// local backend), speculation is pure thread-and-channel overhead,
    /// so `Auto` stays synchronous. `Depth(n)` is unconditional.
    pub fn enable_prefetch(&mut self, policy: PrefetchPolicy, ramp: BlockRamp, retry: RetryPolicy) {
        if let Backing::Merge(m) = &mut self.backing {
            // Scatter-gather: each shard child prefetches independently,
            // and starts *now* — the merge needs a head row from every
            // live shard before it can emit anything, so there is no
            // laziness to protect per child, and priming fetches the
            // first blocks of all shards in parallel instead of paying
            // their RTTs serially through the first refill. `Auto`
            // still gates per child on its own backend latency.
            for c in &mut m.children {
                c.enable_prefetch(policy, ramp.clone(), retry);
                c.prime_prefetch();
            }
            return;
        }
        if matches!(policy, PrefetchPolicy::Auto) && self.backend_latency_ms() == 0 {
            return;
        }
        if let Some(depth) = policy.depth() {
            self.armed = Some(ArmedPrefetch { depth, ramp, retry });
        }
    }

    /// The per-pull RTT the chaos gate models for this statement (0
    /// when unconfigured or the cursor already left its sync state).
    fn backend_latency_ms(&self) -> u64 {
        match &self.backing {
            Backing::Sync { chaos, .. } => chaos.as_ref().map_or(0, |c| c.latency_ms()),
            _ => 0,
        }
    }

    /// Start an armed prefetcher *now*, without waiting for the first
    /// demanded pull. For consumers that are about to drain this cursor
    /// anyway (a hash-join build side): laziness is not at stake, and
    /// starting early overlaps the build-side fetch with whatever the
    /// caller does before draining. No-op if prefetch is not armed or
    /// the cursor already started.
    pub fn prime_prefetch(&mut self) {
        if let Backing::Merge(m) = &mut self.backing {
            for c in &mut m.children {
                c.prime_prefetch();
            }
            return;
        }
        if let Some(armed) = self.armed.take() {
            self.start_prefetch(armed);
        }
    }

    fn start_prefetch(&mut self, armed: ArmedPrefetch) {
        if matches!(self.backing, Backing::Sync { .. }) {
            let Backing::Sync { iter, chaos } = std::mem::replace(&mut self.backing, Backing::Done)
            else {
                unreachable!()
            };
            let handle = prefetch::spawn(
                iter,
                chaos,
                armed.ramp,
                armed.retry,
                self.stats.clone(),
                armed.depth,
                self.arity,
            );
            self.backing = Backing::Live(handle);
        }
    }

    /// Number of columns each row carries.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Rows delivered through this cursor so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Retries spent by this cursor so far (across all
    /// [`Cursor::next_cblock_retrying`] calls) — `EXPLAIN ANALYZE`
    /// attributes these to the `rQ` node holding the cursor.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Fetch up to `n` rows appended to the column vectors of `out`,
    /// bumping `TuplesShipped` and `BlocksShipped` once per block (and
    /// recording the block size — see [`mix_obs::Stats::record_block`]);
    /// [`Counter::BlockBytes`] and [`Counter::InternHits`] size what
    /// crossed the seam. Returns the number of rows appended; `0` means
    /// the cursor is exhausted. On `Err`, nothing was appended and
    /// nothing was counted — a failed pull is side-effect-free, so a
    /// retried block is accounted exactly once. The hot drain path never
    /// boxes a cell: scans copy straight from the table's column block.
    ///
    /// On a prefetching cursor the blocks arrive pre-sized by the ramp
    /// the prefetcher replays; `n` is then advisory (a consumer that
    /// follows the ramp it registered sees identical sizes either way).
    pub fn next_cblock(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize> {
        if n == 0 {
            return Ok(0);
        }
        let (iter, chaos) = match &mut self.backing {
            Backing::Latched(e) => return Err(e.clone()),
            Backing::Done => return Ok(0),
            Backing::Live(_) => return self.recv_cblock(out),
            Backing::Merge(m) => {
                // The children already accounted the shipped rows.
                let k = m.pull(out, n)?;
                self.delivered += k as u64;
                return Ok(k);
            }
            Backing::Sync { iter, chaos } => (iter, chaos),
        };
        // `out` may carry earlier rows; meter only this pull's delta.
        let (pre_bytes, pre_shared) = if out.is_empty() {
            (0, 0)
        } else {
            (out.byte_size(), out.shared_str_cells())
        };
        let (k, latency_ms) = gated_cpull(&mut **iter, chaos, out, n)?;
        sleep_ms(latency_ms);
        if k == 0 {
            self.armed = None; // exhausted: nothing to speculate on
            return Ok(0);
        }
        self.account_block(
            k,
            out.byte_size().saturating_sub(pre_bytes),
            out.shared_str_cells().saturating_sub(pre_shared),
        );
        // The first demanded pull just completed synchronously; if
        // prefetch is armed, speculation may begin now. The armed ramp
        // mirrors the consumer's, so advance it past the size this pull
        // consumed before handing it to the job.
        if let Some(mut armed) = self.armed.take() {
            armed.ramp.next_size();
            self.start_prefetch(armed);
        }
        Ok(k)
    }

    /// Per-block delivery accounting, shared by the synchronous and
    /// prefetched paths: `delivered`, `TuplesShipped`, `BlocksShipped`
    /// (+ block-size histogram), block footprint counters, and one
    /// `row` trace event per delivered row (so traced output is
    /// independent of block size).
    fn account_block(&mut self, k: usize, block_bytes: u64, shared_strs: u64) {
        self.delivered += k as u64;
        self.stats.add(Counter::TuplesShipped, k as u64);
        self.stats.record_block(k as u64);
        if block_bytes > 0 {
            self.stats.add(Counter::BlockBytes, block_bytes);
        }
        if shared_strs > 0 {
            self.stats.add(Counter::InternHits, shared_strs);
        }
        if self.tracer.enabled() {
            let base = self.delivered - k as u64;
            for i in 1..=k as u64 {
                self.tracer.event("row", &[("n", (base + i).to_string())]);
            }
        }
    }

    /// Receive one block from the live prefetcher, accounting hits and
    /// stalls, replaying the thread's fault/retry trace, and deferring
    /// delivery to the block's modelled arrival time. `Ok(None)` is
    /// clean end-of-stream (the cursor is now `Done`).
    fn recv_fetched(&mut self) -> Result<Option<FetchedBlock>> {
        let (msg, hit) = {
            let Backing::Live(handle) = &mut self.backing else {
                unreachable!()
            };
            match handle.try_recv() {
                TryRecv::Item(m) => (Some(m), true),
                TryRecv::Closed => (None, true),
                TryRecv::Empty => {
                    let t0 = Instant::now();
                    let m = handle.recv();
                    self.stats
                        .add(Counter::PrefetchStallNs, t0.elapsed().as_nanos() as u64);
                    (m, false)
                }
            }
        };
        match msg {
            None => {
                // The producer drained the plan and exited; dropping
                // the handle joins it.
                self.backing = Backing::Done;
                Ok(None)
            }
            Some(PrefetchMsg::Block(block)) => {
                if hit {
                    self.stats.inc(Counter::PrefetchHitBlocks);
                }
                // A pipelined connection still delivers each response
                // one RTT after its request was issued; blocks may not
                // be consumed before they "arrive".
                let now = Instant::now();
                if block.arrival > now {
                    let wait = block.arrival - now;
                    std::thread::sleep(wait);
                    self.stats
                        .add(Counter::PrefetchStallNs, wait.as_nanos() as u64);
                }
                self.replay_retries(&block.retry_backoff_ms);
                Ok(Some(block))
            }
            Some(PrefetchMsg::Failed {
                error,
                retry_backoff_ms,
            }) => {
                self.replay_retries(&retry_backoff_ms);
                if self.tracer.enabled() {
                    let kind = if error.is_transient() {
                        "transient"
                    } else {
                        "permanent"
                    };
                    self.tracer.event("fault", &[("kind", kind.to_string())]);
                }
                self.backing = Backing::Latched(error.clone());
                Err(error)
            }
        }
    }

    /// Receive one shipped block: an empty `out` adopts it wholesale (a
    /// move, no copy); otherwise it is appended column-at-a-time.
    fn recv_cblock(&mut self, out: &mut ColumnBlock) -> Result<usize> {
        let Some(block) = self.recv_fetched()? else {
            return Ok(0);
        };
        let k = block.cols.len();
        self.account_block(k, block.cols.byte_size(), block.cols.shared_str_cells());
        if out.is_empty() {
            *out = block.cols;
        } else {
            block.cols.append_range(0, k, out);
        }
        Ok(k)
    }

    /// Replay the prefetcher's per-block retry history into this
    /// cursor's trace and EXPLAIN counter. Each in-thread retry was
    /// preceded by an observed transient fault, so traced sessions see
    /// the same `fault`/`retry` event pairs the synchronous path emits;
    /// the `Stats` counters were already bumped by the thread.
    fn replay_retries(&mut self, backoff_ms: &[u64]) {
        for (i, backoff) in backoff_ms.iter().enumerate() {
            self.retries += 1;
            if self.tracer.enabled() {
                self.tracer
                    .event("fault", &[("kind", "transient".to_string())]);
                self.tracer.event(
                    "retry",
                    &[
                        ("attempt", (i as u64 + 1).to_string()),
                        ("backoff_ms", backoff.to_string()),
                    ],
                );
            }
        }
    }

    /// [`Cursor::next_cblock`] with transient faults retried under
    /// `retry`: bounded attempts, exponential backoff, optional
    /// wall-clock deadline. Because a failed pull delivers nothing, the
    /// re-issued pull returns exactly the rows the failed one would
    /// have — retries are invisible to the consumer and to the
    /// block-size ramp. Counts each retry ([`Counter::RetriesAttempted`],
    /// [`Counter::RetryBackoffMs`]) and every error that escapes
    /// ([`Counter::BackendErrors`]); the escaped error's `retries` field
    /// records the spent budget. Traced sessions see a `fault` event per
    /// observed failure and a `retry` event per re-issue.
    pub fn next_cblock_retrying(
        &mut self,
        out: &mut ColumnBlock,
        n: usize,
        retry: &RetryPolicy,
    ) -> Result<usize> {
        if !matches!(self.backing, Backing::Sync { .. } | Backing::Merge(_)) {
            // Prefetched blocks arrive pre-retried (the job runs this
            // same loop); an error surfacing here already spent its
            // budget and is terminal. Merge pulls *do* retry: a failed
            // refill is side-effect-free, and the re-issued pull only
            // re-pulls the shard that failed.
            return self.next_cblock(out, n);
        }
        let mut attempt = 0u32;
        let mut spent_backoff = 0u64;
        loop {
            let e = match self.next_cblock(out, n) {
                Ok(k) => return Ok(k),
                Err(e) => e,
            };
            if self.tracer.enabled() {
                let kind = if e.is_transient() {
                    "transient"
                } else {
                    "permanent"
                };
                self.tracer.event("fault", &[("kind", kind.to_string())]);
            }
            if e.is_transient() && retry.allows(attempt + 1, spent_backoff) {
                attempt += 1;
                let backoff = retry.backoff_ms(attempt);
                spent_backoff += backoff;
                self.retries += 1;
                self.stats.inc(Counter::RetriesAttempted);
                self.stats.add(Counter::RetryBackoffMs, backoff);
                if self.tracer.enabled() {
                    self.tracer.event(
                        "retry",
                        &[
                            ("attempt", attempt.to_string()),
                            ("backoff_ms", backoff.to_string()),
                        ],
                    );
                }
                if backoff > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(backoff));
                }
            } else {
                self.stats.inc(Counter::BackendErrors);
                return Err(match e {
                    MixError::Backend(mut be) => {
                        be.retries = attempt;
                        MixError::Backend(be)
                    }
                    other => other,
                });
            }
        }
    }

    /// `(lower, upper)` bounds on the rows still to come.
    pub fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.backing {
            Backing::Sync { iter, chaos } => {
                let (lo, hi) = iter.size_hint();
                // The permanent-fault horizon caps what will ever ship.
                match chaos.as_ref().and_then(|st| st.remaining_allowance()) {
                    Some(cap) => (lo.min(cap), Some(hi.map_or(cap, |h| h.min(cap)))),
                    None => (lo, hi),
                }
            }
            Backing::Live(_) => (0, None),
            Backing::Latched(_) | Backing::Done => (0, Some(0)),
            Backing::Merge(m) => m.size_hint(),
        }
    }

    /// Drain the remainder into `out` as boxed rows (block at a time,
    /// transient faults retried under `retry`); returns the number of
    /// rows appended. The row-shaped convenience for eager collection.
    pub fn drain_retrying(&mut self, out: &mut Vec<Row>, retry: &RetryPolicy) -> Result<usize> {
        out.reserve(self.size_hint().0);
        let mut block = ColumnBlock::new(self.arity);
        let mut total = 0;
        loop {
            block.clear();
            let k = self.next_cblock_retrying(&mut block, DRAIN_BLOCK, retry)?;
            if k == 0 {
                return Ok(total);
            }
            block.append_rows_to(out);
            total += k;
        }
    }

    /// Drain the remainder into a vector (the *eager* access pattern).
    pub fn collect_all(mut self) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        self.drain_retrying(&mut out, &RetryPolicy::none())?;
        Ok(out)
    }
}

fn compile(plan: &PhysPlan, stats: &Stats) -> Box<dyn RowIter> {
    match plan {
        PhysPlan::Scan { table, preds, .. } => Box::new(ScanIter {
            table: Arc::clone(table),
            idx: 0,
            preds: preds.clone(),
            stats: stats.clone(),
            mask: Vec::new(),
            mask_tmp: Vec::new(),
            sel: Vec::new(),
        }),
        PhysPlan::HashJoin {
            left,
            right,
            left_key,
            right_key,
            post,
        } => Box::new(HashJoinIter {
            lbuf: ColumnBlock::new(left.arity()),
            right_arity: right.arity(),
            left: compile(left, stats),
            right: Some(compile(right, stats)),
            build: ColumnBlock::new(0),
            table: HashMap::new(),
            lidx: Vec::new(),
            ridx: Vec::new(),
            left_key: *left_key,
            right_key: *right_key,
            post: Filter::new(post.clone(), plan.arity()),
        }),
        PhysPlan::NlJoin { left, right, post } => Box::new(NlJoinIter {
            lbuf: ColumnBlock::new(left.arity()),
            lpos: 0,
            right_arity: right.arity(),
            left: compile(left, stats),
            right_src: Some(compile(right, stats)),
            right: ColumnBlock::new(0),
            lidx: Vec::new(),
            ridx: Vec::new(),
            post: Filter::new(post.clone(), plan.arity()),
        }),
        PhysPlan::Sort { input, keys } => Box::new(SortIter {
            arity: input.arity(),
            input: Some(compile(input, stats)),
            keys: keys.clone(),
            cols: ColumnBlock::new(0),
            perm: Vec::new(),
            idx: 0,
        }),
        PhysPlan::Project {
            input,
            cols,
            distinct,
        } => Box::new(ProjectIter {
            cbuf: ColumnBlock::new(input.arity()),
            pbuf: ColumnBlock::new(cols.len()),
            input: compile(input, stats),
            cols: cols.clone(),
            seen: if *distinct {
                Some(HashSet::new())
            } else {
                None
            },
            sel: Vec::new(),
        }),
    }
}

struct ScanIter {
    table: Arc<Table>,
    idx: usize,
    preds: Vec<RPred>,
    stats: Stats,
    /// Scratch for the vectorized predicate path, reused across pulls.
    mask: Vec<bool>,
    mask_tmp: Vec<bool>,
    sel: Vec<usize>,
}

/// Rows a vectorized scan evaluates per predicate kernel invocation.
/// Small enough that a selective early-exit wastes little work past
/// the n-th match, large enough to amortize the per-chunk dispatch.
const SCAN_CHUNK: usize = 256;

/// Conjunction of `preds` over rows `start..end` of `cols`, one
/// vectorized kernel per predicate, AND-folded into `mask`.
fn pred_mask(
    cols: &ColumnBlock,
    preds: &[RPred],
    start: usize,
    end: usize,
    mask: &mut Vec<bool>,
    tmp: &mut Vec<bool>,
) {
    for (i, p) in preds.iter().enumerate() {
        let out = if i == 0 { &mut *mask } else { &mut *tmp };
        match &p.rhs {
            ROperand::Const(v) => cols.cmp_const_mask(p.lhs, p.op, v, start, end, out),
            ROperand::Col(c) => cols.cmp_cols_mask(p.lhs, p.op, *c, start, end, out),
        }
        if i > 0 {
            for (m, t) in mask.iter_mut().zip(tmp.iter()) {
                *m &= t;
            }
        }
    }
}

impl RowIter for ScanIter {
    /// Bulk column-slice copies from the table's block when unfiltered;
    /// otherwise chunked vectorized predicate masks with a gather of the
    /// selected rows. `RowsScanned` counts exactly the rows *consumed* —
    /// up to and including the n-th match — even though a kernel may
    /// have evaluated a few cells past it within the final chunk.
    fn next_cblock(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize> {
        let cols = self.table.block();
        let total = cols.len();
        if n == 0 || self.idx >= total {
            return Ok(0);
        }
        if self.preds.is_empty() {
            let end = (self.idx + n).min(total);
            let k = end - self.idx;
            cols.append_range(self.idx, end, out);
            self.idx = end;
            self.stats.add(Counter::RowsScanned, k as u64);
            return Ok(k);
        }
        let mut k = 0usize;
        let mut scanned = 0u64;
        while k < n && self.idx < total {
            let chunk_end = (self.idx + SCAN_CHUNK).min(total);
            pred_mask(
                cols,
                &self.preds,
                self.idx,
                chunk_end,
                &mut self.mask,
                &mut self.mask_tmp,
            );
            self.sel.clear();
            let mut consumed = chunk_end;
            for (off, &m) in self.mask.iter().enumerate() {
                if m {
                    self.sel.push(self.idx + off);
                    if k + self.sel.len() == n {
                        consumed = self.idx + off + 1;
                        break;
                    }
                }
            }
            scanned += (consumed - self.idx) as u64;
            cols.gather_rows(&self.sel, out);
            k += self.sel.len();
            self.idx = consumed;
        }
        if scanned > 0 {
            self.stats.add(Counter::RowsScanned, scanned);
        }
        Ok(k)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.table.len() - self.idx;
        if self.preds.is_empty() {
            (rem, Some(rem))
        } else {
            (0, Some(rem))
        }
    }
}

/// A join's post-join predicates, evaluated as one vectorized mask over
/// each staged block of joined rows.
struct Filter {
    preds: Vec<RPred>,
    /// Joined rows before filtering (unused when `preds` is empty: the
    /// join then appends straight to its output).
    staged: ColumnBlock,
    mask: Vec<bool>,
    mask_tmp: Vec<bool>,
    sel: Vec<usize>,
}

impl Filter {
    fn new(preds: Vec<RPred>, arity: usize) -> Filter {
        Filter {
            preds,
            staged: ColumnBlock::new(arity),
            mask: Vec::new(),
            mask_tmp: Vec::new(),
            sel: Vec::new(),
        }
    }

    /// Append the joined rows `left[lidx[k]] ++ right[ridx[k]]` that
    /// pass every predicate to `out`; returns how many did.
    fn join_into(
        &mut self,
        left: &ColumnBlock,
        lidx: &[usize],
        right: &ColumnBlock,
        ridx: &[usize],
        out: &mut ColumnBlock,
    ) -> usize {
        if self.preds.is_empty() {
            out.reserve(lidx.len());
            left.append_join(lidx, right, ridx, out);
            return lidx.len();
        }
        self.staged.clear();
        left.append_join(lidx, right, ridx, &mut self.staged);
        pred_mask(
            &self.staged,
            &self.preds,
            0,
            self.staged.len(),
            &mut self.mask,
            &mut self.mask_tmp,
        );
        self.sel.clear();
        self.sel
            .extend((0..self.mask.len()).filter(|&r| self.mask[r]));
        self.staged.gather_rows(&self.sel, out);
        self.sel.len()
    }
}

/// Streams the left input; builds a hash table over the (fully drained)
/// right input on first pull. The pipeline therefore stays lazy in its
/// *driver* (left) input. Probe output is a pure column gather
/// ([`ColumnBlock::append_join`]) — no per-row tuple is built.
struct HashJoinIter {
    left: Box<dyn RowIter>,
    right: Option<Box<dyn RowIter>>,
    right_arity: usize,
    /// The right input as one block, plus bucket row indices into it.
    build: ColumnBlock,
    table: HashMap<Value, Vec<usize>>,
    /// Left probe staging block plus the match selection vectors
    /// (`lidx[k]`/`ridx[k]` = the k-th joined row's sources).
    lbuf: ColumnBlock,
    lidx: Vec<usize>,
    ridx: Vec<usize>,
    left_key: usize,
    right_key: usize,
    post: Filter,
}

impl RowIter for HashJoinIter {
    /// Joins one probe block of `n` left rows per call (so a pull may
    /// return more than `n` rows); probe blocks without a surviving
    /// match are skipped.
    fn next_cblock(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize> {
        if let Some(mut right) = self.right.take() {
            self.build = materialize(&mut *right, self.right_arity)?;
            for r in 0..self.build.len() {
                let k = self.build.value_at(r, self.right_key);
                if !k.is_null() {
                    self.table.entry(k).or_default().push(r);
                }
            }
        }
        loop {
            self.lbuf.clear();
            let got = self.left.next_cblock(&mut self.lbuf, n)?;
            if got == 0 {
                return Ok(0);
            }
            self.lidx.clear();
            self.ridx.clear();
            for i in 0..got {
                if let Some(matches) = self.table.get(&self.lbuf.value_at(i, self.left_key)) {
                    for &m in matches {
                        self.lidx.push(i);
                        self.ridx.push(m);
                    }
                }
            }
            let k = self
                .post
                .join_into(&self.lbuf, &self.lidx, &self.build, &self.ridx, out);
            if k > 0 {
                return Ok(k);
            }
        }
    }
}

/// Nested-loop join (the fallback for theta joins): streams the left
/// input against the fully drained right input, one left row at a time
/// — each left row's joined rows are filtered as one block.
struct NlJoinIter {
    left: Box<dyn RowIter>,
    right_src: Option<Box<dyn RowIter>>,
    right_arity: usize,
    right: ColumnBlock,
    /// The current left block and the next unjoined row in it.
    lbuf: ColumnBlock,
    lpos: usize,
    lidx: Vec<usize>,
    ridx: Vec<usize>,
    post: Filter,
}

impl RowIter for NlJoinIter {
    /// Returns the surviving joined rows of left rows taken one at a
    /// time until at least one survives (so a pull may return more than
    /// `n` rows); a new left block of `n` rows is pulled when the
    /// current one is used up.
    fn next_cblock(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize> {
        if let Some(mut src) = self.right_src.take() {
            self.right = materialize(&mut *src, self.right_arity)?;
            self.ridx = (0..self.right.len()).collect();
        }
        loop {
            if self.lpos == self.lbuf.len() {
                self.lbuf.clear();
                self.lpos = 0;
                if self.left.next_cblock(&mut self.lbuf, n)? == 0 {
                    return Ok(0);
                }
            }
            self.lidx.clear();
            self.lidx.resize(self.right.len(), self.lpos);
            self.lpos += 1;
            let k = self
                .post
                .join_into(&self.lbuf, &self.lidx, &self.right, &self.ridx, out);
            if k > 0 {
                return Ok(k);
            }
        }
    }
}

/// Blocking sort (the one non-pipelined node; `ORDER BY` requires it):
/// the first pull drains the input into one block and stable-sorts a
/// row *permutation* — no row tuple is ever allocated.
struct SortIter {
    input: Option<Box<dyn RowIter>>,
    keys: Vec<usize>,
    arity: usize,
    cols: ColumnBlock,
    /// Sorted row order of `cols`.
    perm: Vec<usize>,
    idx: usize,
}

impl RowIter for SortIter {
    fn next_cblock(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize> {
        if let Some(mut input) = self.input.take() {
            let block = materialize(&mut *input, self.arity)?;
            let mut perm: Vec<usize> = (0..block.len()).collect();
            perm.sort_by(|&a, &b| {
                for &k in &self.keys {
                    let o = block.value_at(a, k).total_cmp(&block.value_at(b, k));
                    if o != std::cmp::Ordering::Equal {
                        return o;
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.perm = perm;
            self.cols = block;
        }
        let end = (self.idx + n).min(self.perm.len());
        let k = end - self.idx;
        if k > 0 {
            self.cols.gather_rows(&self.perm[self.idx..end], out);
            self.idx = end;
        }
        Ok(k)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.input.is_some() {
            (0, None)
        } else {
            let rem = self.perm.len() - self.idx;
            (rem, Some(rem))
        }
    }
}

struct ProjectIter {
    input: Box<dyn RowIter>,
    cols: Vec<usize>,
    /// DISTINCT state: every projected row delivered so far.
    seen: Option<HashSet<Row>>,
    /// Staging blocks at the input's and at the projected arity:
    /// projection is one bulk column copy per output column.
    cbuf: ColumnBlock,
    pbuf: ColumnBlock,
    sel: Vec<usize>,
}

impl RowIter for ProjectIter {
    fn next_cblock(&mut self, out: &mut ColumnBlock, n: usize) -> Result<usize> {
        let Some(seen) = &mut self.seen else {
            self.cbuf.clear();
            let got = self.input.next_cblock(&mut self.cbuf, n)?;
            if got > 0 {
                out.reserve(got);
                self.cbuf.append_projected(&self.cols, 0, got, out);
            }
            return Ok(got);
        };
        // DISTINCT drops rows: keep pulling, asking only for what is
        // still missing, so a short block does not under-fill while the
        // input has more.
        let mut k = 0;
        while k < n {
            self.cbuf.clear();
            let got = self.input.next_cblock(&mut self.cbuf, n - k)?;
            if got == 0 {
                break;
            }
            self.pbuf.clear();
            self.cbuf
                .append_projected(&self.cols, 0, got, &mut self.pbuf);
            self.sel.clear();
            for r in 0..got {
                if seen.insert(self.pbuf.row(r)) {
                    self.sel.push(r);
                }
            }
            self.pbuf.gather_rows(&self.sel, out);
            k += self.sel.len();
        }
        Ok(k)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.input.size_hint();
        if self.seen.is_some() {
            (0, hi)
        } else {
            (lo, hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::sample_db;

    fn run(sql: &str) -> Vec<Row> {
        let db = sample_db();
        db.execute_sql(sql).unwrap().collect_all().unwrap()
    }

    #[test]
    fn scan_with_filter() {
        let rows = run("SELECT * FROM orders WHERE value > 2000");
        assert_eq!(rows.len(), 2); // 2400 and 200000
        assert!(rows.iter().all(|r| r[2].as_int().unwrap() > 2000));
    }

    #[test]
    fn hash_join_matches_fig2_data() {
        let rows = run("SELECT c.id, o.orid, o.value FROM customer c, orders o \
             WHERE c.id = o.cid ORDER BY o.orid");
        // Fig. 2: orders 28904 (XYZ123, 2400) and 87456 (XYZ123, 200000);
        // order 99111 belongs to DEF345.
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0],
            vec![Value::str("XYZ123"), Value::Int(28904), Value::Int(2400)]
        );
    }

    #[test]
    fn distinct_deduplicates() {
        let rows = run("SELECT DISTINCT c.id FROM customer c, orders o WHERE c.id = o.cid");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn order_by_sorts() {
        let rows = run("SELECT o.value FROM orders o ORDER BY o.value");
        let vals: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        assert_eq!(vals, sorted);
    }

    #[test]
    fn cartesian_product() {
        let rows = run("SELECT c.id, o.orid FROM customer c, orders o");
        assert_eq!(rows.len(), 2 * 3);
    }

    /// Pull `cur` dry in blocks of `n` rows; returns the rows and the
    /// number of non-empty blocks.
    fn pull_all(cur: &mut Cursor, n: usize) -> (Vec<Row>, u64) {
        let mut block = ColumnBlock::new(cur.arity());
        let mut rows = Vec::new();
        let mut blocks = 0;
        loop {
            block.clear();
            if cur.next_cblock(&mut block, n).unwrap() == 0 {
                return (rows, blocks);
            }
            blocks += 1;
            block.append_rows_to(&mut rows);
        }
    }

    #[test]
    fn lazy_cursor_ships_only_what_is_pulled() {
        let db = sample_db();
        let stats = db.stats().clone();
        stats.reset();
        let mut cur = db.execute_sql("SELECT * FROM orders").unwrap();
        let mut block = ColumnBlock::new(cur.arity());
        assert_eq!(cur.next_cblock(&mut block, 1).unwrap(), 1);
        assert_eq!(stats.get(Counter::TuplesShipped), 1);
        // The scan may have looked at more rows internally, but only one
        // tuple crossed the source↔mediator boundary.
        drop(cur);
        assert_eq!(stats.get(Counter::TuplesShipped), 1);
    }

    #[test]
    fn block_pull_ships_once_per_block() {
        let db = sample_db();
        let stats = db.stats().clone();
        stats.reset();
        let mut cur = db.execute_sql("SELECT * FROM orders").unwrap();
        assert_eq!(cur.size_hint(), (3, Some(3)));
        let mut out = ColumnBlock::new(cur.arity());
        assert_eq!(cur.next_cblock(&mut out, 2).unwrap(), 2);
        assert_eq!(stats.get(Counter::TuplesShipped), 2);
        assert_eq!(stats.get(Counter::BlocksShipped), 1);
        // Exhaustion: partial block, then zero.
        assert_eq!(cur.next_cblock(&mut out, 2).unwrap(), 1);
        assert_eq!(cur.next_cblock(&mut out, 2).unwrap(), 0);
        assert_eq!(out.len(), 3);
        assert_eq!(stats.get(Counter::TuplesShipped), 3);
        assert_eq!(stats.get(Counter::BlocksShipped), 2);
        assert_eq!(cur.delivered(), 3);
    }

    #[test]
    fn one_and_two_row_pulls_agree() {
        let db = sample_db();
        for sql in [
            "SELECT c.id, o.orid FROM customer c, orders o \
             WHERE c.id = o.cid ORDER BY o.orid",
            // DISTINCT (filtering projection) agrees too.
            "SELECT DISTINCT c.id FROM customer c, orders o WHERE c.id = o.cid",
            // A theta join: nested loops with a post-join predicate.
            "SELECT c.id, o.orid FROM customer c, orders o WHERE o.cid > c.id",
        ] {
            let (by_ones, _) = pull_all(&mut db.execute_sql(sql).unwrap(), 1);
            let (by_twos, _) = pull_all(&mut db.execute_sql(sql).unwrap(), 2);
            assert_eq!(by_ones, by_twos, "{sql}");
        }
    }

    #[test]
    fn block_pulls_ship_pinned_counts() {
        // (sql, RowsScanned, TuplesShipped, BlocksShipped) for 2-row
        // pulls. A scan consumes rows only up to the n-th match, so
        // internal work is pinned along with what crossed the seam.
        let db = sample_db();
        for (sql, scanned, shipped, blocks) in [
            ("SELECT * FROM orders", 3, 3, 2),
            ("SELECT * FROM orders WHERE value > 2000", 3, 2, 1),
            (
                "SELECT c.id, o.orid, o.value FROM customer c, orders o \
                 WHERE c.id = o.cid ORDER BY o.orid",
                5,
                3,
                2,
            ),
            (
                "SELECT DISTINCT c.id FROM customer c, orders o WHERE c.id = o.cid",
                5,
                2,
                1,
            ),
        ] {
            let expected = db.execute_sql(sql).unwrap().collect_all().unwrap();
            let stats = db.stats().clone();
            stats.reset();
            let (rows, pulled) = pull_all(&mut db.execute_sql(sql).unwrap(), 2);
            assert_eq!(rows, expected, "{sql}");
            assert_eq!(stats.get(Counter::RowsScanned), scanned, "{sql}");
            assert_eq!(stats.get(Counter::TuplesShipped), shipped, "{sql}");
            assert_eq!(stats.get(Counter::BlocksShipped), blocks, "{sql}");
            assert_eq!(pulled, blocks, "{sql}");
            assert!(stats.get(Counter::BlockBytes) > 0, "{sql}");
        }
    }

    #[test]
    fn vectorized_scan_stops_scanning_at_nth_match() {
        // 2 matching rows among 3; asking for exactly 1 must consume
        // rows only up to the first match.
        let db = sample_db();
        let sql = "SELECT * FROM orders WHERE value > 2000";
        let first = db.execute_sql(sql).unwrap().collect_all().unwrap()[0].clone();
        let stats = db.stats().clone();
        stats.reset();
        let mut cur = db.execute_sql(sql).unwrap();
        let mut block = ColumnBlock::new(cur.arity());
        assert_eq!(cur.next_cblock(&mut block, 1).unwrap(), 1);
        assert_eq!(stats.get(Counter::RowsScanned), 1);
        assert_eq!(stats.get(Counter::TuplesShipped), 1);
        assert_eq!(stats.get(Counter::BlocksShipped), 1);
        assert_eq!(block.row(0), first);
    }

    #[test]
    fn join_then_filter_post_pred() {
        use crate::schema::{Column, ColumnType, Schema};
        let mut db = crate::db::Database::new("s");
        db.create_table(
            "c",
            Schema::new(
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("budget", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            "o",
            Schema::new(
                vec![
                    Column::new("oid", ColumnType::Int),
                    Column::new("cid", ColumnType::Int),
                    Column::new("value", ColumnType::Int),
                ],
                &["oid"],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert("c", vec![Value::Int(1), Value::Int(1000)])
            .unwrap();
        db.insert("c", vec![Value::Int(2), Value::Int(99999)])
            .unwrap();
        for (oid, cid, v) in [(10, 1, 2400), (11, 1, 500), (12, 2, 500)] {
            db.insert("o", vec![Value::Int(oid), Value::Int(cid), Value::Int(v)])
                .unwrap();
        }
        // The col-vs-col non-equi predicate cannot be a hash key or a
        // scan filter; it must run as a post-join filter.
        let rows = db
            .execute_sql(
                "SELECT x.id, y.value FROM c x, o y WHERE x.id = y.cid AND y.value > x.budget",
            )
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Int(2400)]]);
    }

    #[test]
    fn nulls_never_join() {
        use crate::schema::{Column, ColumnType, Schema};
        let mut db = crate::db::Database::new("s");
        db.create_table(
            "l",
            Schema::new(vec![Column::new("k", ColumnType::Text)], &["k"]).unwrap(),
        )
        .unwrap();
        db.create_table(
            "r",
            Schema::new(vec![Column::new("k", ColumnType::Text)], &["k"]).unwrap(),
        )
        .unwrap();
        db.insert("l", vec![Value::Null]).unwrap();
        db.insert("l", vec![Value::str("a")]).unwrap();
        db.insert("r", vec![Value::Null]).unwrap();
        db.insert("r", vec![Value::str("a")]).unwrap();
        let rows = db
            .execute_sql("SELECT * FROM l x, r y WHERE x.k = y.k")
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(rows.len(), 1);
    }
}
