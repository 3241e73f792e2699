//! The pipelined prefetcher: a pooled, cooperative producer per cursor.
//!
//! Prefetch work runs on a process-wide fixed-size worker pool
//! ([`mix_common::Pool`], one thread per hardware thread by default)
//! instead of one OS thread per cursor — a served workload with
//! hundreds of live cursors keeps a bounded thread count. The pool
//! boundary sits exactly where the thread boundary used to: the job
//! owns the compiled plan (a `RowIter`, plain `Send` data) and its
//! chaos gate; column blocks cross over the same bounded [`mix_common::ring`]
//! channel whose capacity is the prefetch depth, so readahead is
//! bounded by back-pressure, not discipline.
//!
//! A pooled producer must not *block* on its consumer (that would pin a
//! pool worker), so the job is cooperative: each [`PoolJob::step`]
//! produces at most one block and offers it with `try_send`. A full
//! ring parks the job; the ring's free-slot waker (fired when the
//! consumer pops or drops the receiver) re-enqueues it. Retry backoff
//! sleeps stay inside `step` — they are bounded and ms-scale, and
//! moving them off-worker would change the fault schedule.
//!
//! Three invariants make the prefetcher *observationally* identical to
//! the synchronous path (the chaos suite pins this bit-for-bit):
//!
//! 1. **Schedule replay.** The job pulls with the same [`BlockRamp`]
//!    the consumer registered, so the sequence of admit sizes — which
//!    is all the deterministic fault schedule keys off — matches the
//!    synchronous run exactly.
//! 2. **In-job retries.** Transient faults are retried here, with the
//!    same [`RetryPolicy`] loop the synchronous cursor runs; counters
//!    go to the shared atomic [`Stats`], and each block carries its
//!    retry history so the consumer can replay `fault`/`retry` trace
//!    events in order. An error that escapes the budget is shipped
//!    over the channel and latches the cursor.
//! 3. **Deferred RTT.** The chaos gate's `latency_ms` models the
//!    backend round trip. A pipelined connection still delivers each
//!    response one RTT after its request went out — so each block
//!    carries an `arrival` deadline (issue time + RTT) the consumer
//!    waits for. Consecutive requests overlap their RTTs (up to the
//!    channel depth), which is precisely the overlap the synchronous
//!    path cannot have: it pays one full RTT per block, serially.
//!
//! Cancellation: dropping the `PrefetchHandle` sets the stop flag,
//! drops the receiver (which fires the waker, resuming a parked job)
//! and waits for the job to finish — a dropped cursor or abandoned
//! session never leaks prefetch state ([`active_prefetchers`] is the
//! test hook) and never reads ahead unboundedly. The job observes the
//! stop flag on its next step and winds down; its owned state (plan,
//! ring sender, gauge guard) is dropped by the worker *before* the
//! handle's wait returns.

use crate::exec::{gated_cpull, RowIter};
use crate::fault::ChaosState;
use mix_common::ring::{self, Receiver, TryRecv, TrySend};
use mix_common::{
    BlockRamp, ColumnBlock, Counter, JobHandle, MixError, Pool, PoolJob, RetryPolicy, Stats, Step,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// The process-wide prefetch executor, started on first use.
static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool::new("mix-prefetch", Pool::default_workers()))
}

/// Number of live prefetch producers, process-wide. The no-leaked-state
/// guarantee is testable: after dropping a session this returns to its
/// prior value (handle drop waits out the job, whose gauge guard is
/// released by the pool worker).
pub fn active_prefetchers() -> usize {
    ACTIVE.load(Ordering::SeqCst)
}

/// Worker-thread count of the shared prefetch pool (starts the pool if
/// needed). The process runs this many prefetch threads *total*,
/// regardless of cursor count.
pub fn prefetch_pool_workers() -> usize {
    pool().workers()
}

/// A snapshot handle onto the shared pool's counters: `PoolTasksRun`
/// (job dispatches) and `PrefetchQueueDepth` (cumulative queue-depth
/// samples at enqueue). Starts the pool if needed.
pub fn prefetch_pool_stats() -> Stats {
    pool().stats().clone()
}

/// One successfully fetched block: the job builds the typed vectors,
/// and the consumer adopts them by move.
pub(crate) struct FetchedBlock {
    pub(crate) cols: ColumnBlock,
    /// Backoff milliseconds of each in-job retry this block needed,
    /// in order (empty for a clean pull) — the consumer replays these
    /// as `fault`/`retry` trace events.
    pub(crate) retry_backoff_ms: Vec<u64>,
    /// Earliest moment the block may be delivered: the issue time of
    /// its (successful) pull plus the modelled backend RTT.
    pub(crate) arrival: Instant,
}

/// What the prefetcher ships: blocks, or the one terminal error.
pub(crate) enum PrefetchMsg {
    Block(FetchedBlock),
    Failed {
        error: MixError,
        retry_backoff_ms: Vec<u64>,
    },
}

/// Consumer-side handle: receiver + stop flag + job handle. Dropping
/// it cancels the job and waits for its state to be released.
pub(crate) struct PrefetchHandle {
    rx: Option<Receiver<PrefetchMsg>>,
    stop: Arc<AtomicBool>,
    job: JobHandle,
}

impl PrefetchHandle {
    pub(crate) fn try_recv(&mut self) -> TryRecv<PrefetchMsg> {
        self.rx.as_mut().expect("receiver alive").try_recv()
    }

    pub(crate) fn recv(&mut self) -> Option<PrefetchMsg> {
        self.rx.as_mut().expect("receiver alive").recv()
    }
}

impl Drop for PrefetchHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Dropping the receiver closes the ring and fires its waker,
        // re-enqueueing the job if it was parked on a full ring; the
        // job observes the cancellation on its next step.
        self.rx.take();
        self.job.wake();
        self.job.wait_done();
    }
}

/// Panic-safe gauge bump for [`active_prefetchers`].
struct ActiveGuard;

impl ActiveGuard {
    fn acquire() -> ActiveGuard {
        ACTIVE.fetch_add(1, Ordering::SeqCst);
        ActiveGuard
    }
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Submit the prefetch producer for one cursor to the shared pool.
/// `ramp` must already be advanced past every pull the cursor served
/// synchronously.
pub(crate) fn spawn(
    iter: Box<dyn RowIter>,
    chaos: Option<ChaosState>,
    ramp: BlockRamp,
    retry: RetryPolicy,
    stats: Stats,
    depth: usize,
    arity: usize,
) -> PrefetchHandle {
    let (tx, rx) = ring::channel(depth);
    let stop = Arc::new(AtomicBool::new(false));
    // Acquired *before* the job is submitted, so the gauge never dips
    // between spawn and the first step.
    let guard = ActiveGuard::acquire();
    let job = PrefetchJob {
        iter,
        chaos,
        ramp,
        retry,
        stats,
        arity,
        stop: Arc::clone(&stop),
        tx,
        pending: None,
        finished: false,
        _guard: guard,
    };
    let handle = pool().spawn(Box::new(job));
    // Wire the ring's free-slot/close notification to the job *before*
    // the consumer's first pop, so a park on a full ring is always
    // followed by a wake.
    let waker = handle.clone();
    rx.set_waker(move || waker.wake());
    PrefetchHandle {
        rx: Some(rx),
        stop,
        job: handle,
    }
}

/// The cooperative producer: one cursor's compiled plan plus the state
/// needed to offer blocks without ever blocking a pool worker.
struct PrefetchJob {
    iter: Box<dyn RowIter>,
    chaos: Option<ChaosState>,
    ramp: BlockRamp,
    retry: RetryPolicy,
    stats: Stats,
    arity: usize,
    stop: Arc<AtomicBool>,
    tx: ring::Sender<PrefetchMsg>,
    /// A produced message the ring had no room for yet.
    pending: Option<PrefetchMsg>,
    /// No more production: the plan is exhausted or failed terminally.
    /// Once any `pending` is flushed the job is done (dropping `tx`
    /// closes the channel — clean end-of-stream for the consumer).
    finished: bool,
    _guard: ActiveGuard,
}

impl PrefetchJob {
    /// Cancelled before the plan was exhausted.
    fn abort(&self) -> Step {
        self.stats.inc(Counter::PrefetchAborted);
        Step::Done
    }
}

impl PoolJob for PrefetchJob {
    fn step(&mut self) -> Step {
        if self.stop.load(Ordering::SeqCst) && !self.finished {
            return self.abort();
        }
        // Flush a block the ring previously had no room for.
        if let Some(msg) = self.pending.take() {
            match self.tx.try_send(msg) {
                TrySend::Sent => {
                    if self.finished {
                        return Step::Done;
                    }
                    return Step::Again;
                }
                TrySend::Full(msg) => {
                    self.pending = Some(msg);
                    return Step::Park;
                }
                TrySend::Closed(_) => {
                    return if self.finished {
                        Step::Done
                    } else {
                        self.abort()
                    };
                }
            }
        }
        if self.finished {
            return Step::Done;
        }
        // Produce one block. The same retry loop
        // Cursor::next_cblock_retrying runs, moved in-job: identical
        // admit sequence (a failed pull appends nothing, so the
        // re-issued pull is exact), identical counters.
        let want = self.ramp.next_size();
        let mut cols = ColumnBlock::new(self.arity);
        cols.reserve(want);
        let mut retry_backoff_ms = Vec::new();
        let mut attempt = 0u32;
        let mut spent_backoff = 0u64;
        let (k, arrival) = loop {
            let issue = Instant::now();
            match gated_cpull(&mut *self.iter, &mut self.chaos, &mut cols, want) {
                Ok((k, latency_ms)) => break (k, issue + Duration::from_millis(latency_ms)),
                Err(e) => {
                    if e.is_transient() && self.retry.allows(attempt + 1, spent_backoff) {
                        attempt += 1;
                        let backoff = self.retry.backoff_ms(attempt);
                        spent_backoff += backoff;
                        self.stats.inc(Counter::RetriesAttempted);
                        self.stats.add(Counter::RetryBackoffMs, backoff);
                        retry_backoff_ms.push(backoff);
                        if self.stop.load(Ordering::SeqCst) {
                            return self.abort();
                        }
                        if backoff > 0 {
                            std::thread::sleep(Duration::from_millis(backoff));
                        }
                    } else {
                        self.stats.inc(Counter::BackendErrors);
                        let error = match e {
                            MixError::Backend(mut be) => {
                                be.retries = attempt;
                                MixError::Backend(be)
                            }
                            other => other,
                        };
                        self.finished = true;
                        self.pending = Some(PrefetchMsg::Failed {
                            error,
                            retry_backoff_ms,
                        });
                        return Step::Again;
                    }
                }
            }
        };
        if k == 0 {
            // Exhausted; the worker drops the job, dropping the sender,
            // which the consumer reads as clean end-of-stream.
            self.finished = true;
            return Step::Done;
        }
        self.pending = Some(PrefetchMsg::Block(FetchedBlock {
            cols,
            retry_backoff_ms,
            arrival,
        }));
        Step::Again
    }
}
