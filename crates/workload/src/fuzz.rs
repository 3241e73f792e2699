//! The knob-matrix equivalence fuzzer: run each generated session
//! script under the baseline options and under every variant of the
//! knob matrix, and assert the transcripts agree at the variant's
//! normalization level. On divergence, greedily minimize the script
//! before reporting.

use crate::gen::{Dataset, Rng};
use crate::script::{gen_script, render_transcript, run_script, run_script_raw, Norm, Script};
use mix::prelude::*;
use std::sync::Arc;

/// The chaos schedule fuzz variants run under: 10% transient faults in
/// bursts of 1, safely inside the default 4-retry budget, so results
/// must stay bit-identical to the fault-free run.
pub fn chaos_policy(seed: u64) -> FaultPolicy {
    FaultPolicy::transient(seed, 100).with_burst(1)
}

/// One cell of the knob matrix, always compared against the default
/// (lazy, optimizing, auto-block) baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Eager materialization (handles re-spaced, content identical).
    Eager,
    /// One-tuple-per-pull (the paper's pull model).
    BlockOff,
    /// Fixed 3-tuple blocks (off the ramp path).
    BlockFixed,
    /// Nested-loop joins only.
    NoHashJoins,
    /// Buffering (drain-then-partition) groupby operator.
    GByStateful,
    /// Lazy hash groupby forced even where Auto would pick presorted.
    GByHash,
    /// One-tuple blocks under nested-loop joins: every operator
    /// boundary crossed one tuple at a time.
    TinyBlocksNlj,
    /// Naive plans, no rewriting/pushdown.
    NoOptimize,
    /// Pipelined prefetch, depth 2.
    Prefetch,
    /// 10% transient backend faults under the default retry budget.
    Chaos,
    /// Second session over a shared plan cache (cached plans) vs the
    /// first (fresh plans). Skolem oids may differ; content may not.
    CachedPlan,
    /// The same options served over the wire vs in process.
    Wire,
    /// The same data as a 2-shard range-partitioned federation: routed
    /// and scattered SQL must reproduce the single-backend transcripts
    /// bit-for-bit.
    Sharded2,
    /// A 4-shard hash-partitioned federation.
    Sharded4,
    /// The 4-shard federation with transient faults on every shard,
    /// inside the retry budget.
    Sharded4Chaos,
}

/// Every variant, in fuzz order.
pub const ALL_VARIANTS: &[Variant] = &[
    Variant::Eager,
    Variant::BlockOff,
    Variant::BlockFixed,
    Variant::NoHashJoins,
    Variant::GByStateful,
    Variant::GByHash,
    Variant::TinyBlocksNlj,
    Variant::NoOptimize,
    Variant::Prefetch,
    Variant::Chaos,
    Variant::CachedPlan,
    Variant::Wire,
    Variant::Sharded2,
    Variant::Sharded4,
    Variant::Sharded4Chaos,
];

impl Variant {
    /// Short name (used in reports and regression-test names).
    pub fn name(self) -> &'static str {
        match self {
            Variant::Eager => "eager",
            Variant::BlockOff => "block-off",
            Variant::BlockFixed => "block-fixed",
            Variant::NoHashJoins => "no-hash-joins",
            Variant::GByStateful => "gby-stateful",
            Variant::GByHash => "gby-hash",
            Variant::TinyBlocksNlj => "tiny-blocks-nlj",
            Variant::NoOptimize => "no-optimize",
            Variant::Prefetch => "prefetch",
            Variant::Chaos => "chaos",
            Variant::CachedPlan => "cached-plan",
            Variant::Wire => "wire",
            Variant::Sharded2 => "sharded-2",
            Variant::Sharded4 => "sharded-4",
            Variant::Sharded4Chaos => "sharded-4-chaos",
        }
    }

    /// The sharded layout a federation variant runs on (`None` for the
    /// single-backend variants).
    pub fn shard_layout(self) -> Option<mix_repro::datagen::ShardLayout> {
        match self {
            Variant::Sharded2 => Some(mix_repro::datagen::ShardLayout::Range(2)),
            Variant::Sharded4 | Variant::Sharded4Chaos => {
                Some(mix_repro::datagen::ShardLayout::Hash(4))
            }
            _ => None,
        }
    }

    /// How strictly this variant's transcript must match the baseline.
    /// `Wire` runs identical options on both sides, so handles must
    /// match bit-for-bit. Engine-knob variants keep rendered content
    /// (oids included) but allow handle numerals to differ (lazy and
    /// eager sessions mint handles at different times). `CachedPlan`
    /// additionally re-mints skolem oids.
    pub fn norm(self) -> Norm {
        match self {
            // A sharded federation runs the *same* lazy engine over the
            // same reconstructed rows, so even handle numerals must
            // match the single-backend baseline.
            Variant::Wire | Variant::Sharded2 | Variant::Sharded4 | Variant::Sharded4Chaos => {
                Norm::Exact
            }
            Variant::CachedPlan => Norm::Content,
            _ => Norm::NoHandles,
        }
    }

    /// The variant's mediator options, derived from the baseline.
    pub fn options(self) -> MediatorOptions {
        let b = MediatorOptions::builder();
        match self {
            Variant::Eager => b.access(AccessMode::Eager),
            Variant::BlockOff => b.block(BlockPolicy::Off),
            Variant::BlockFixed => b.block(BlockPolicy::Fixed(3)),
            Variant::NoHashJoins => b.hash_joins(false),
            Variant::GByStateful => b.gby(GByMode::Stateful),
            Variant::GByHash => b.gby(GByMode::Hash),
            Variant::TinyBlocksNlj => b.block(BlockPolicy::Fixed(1)).hash_joins(false),
            Variant::NoOptimize => b.optimize(false),
            Variant::Prefetch => b.prefetch(PrefetchPolicy::Depth(2)),
            // Chaos / CachedPlan / Wire / Sharded* run baseline
            // options; the difference lives outside `MediatorOptions`.
            Variant::Chaos
            | Variant::CachedPlan
            | Variant::Wire
            | Variant::Sharded2
            | Variant::Sharded4
            | Variant::Sharded4Chaos => b,
        }
        .build()
    }
}

/// A confirmed baseline-vs-variant divergence, minimized.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The per-case seed (`master.split(case_index)` stream value).
    pub case_seed: u64,
    pub variant: Variant,
    pub dataset: Dataset,
    /// The minimized script.
    pub script: Script,
    /// Index of the first differing transcript line.
    pub first_diff: usize,
    /// Baseline transcript line at `first_diff`.
    pub baseline: String,
    /// Variant transcript line at `first_diff`.
    pub got: String,
}

impl Divergence {
    /// The report a failing fuzz run prints: everything needed to
    /// reproduce without the fuzzer.
    pub fn pretty(&self) -> String {
        format!(
            "equivalence divergence: baseline vs {}\n\
             case seed: {:#x}\n\
             dataset: {:?}\n\
             {}first diff at op[{}]:\n  baseline: {}\n  variant:  {}\n",
            self.variant.name(),
            self.case_seed,
            self.dataset,
            self.script.pretty(),
            self.first_diff,
            self.baseline,
            self.got,
        )
    }
}

/// Run `script` under `variant` and compare with the baseline raw run
/// (rendered at the variant's norm). Returns the first differing line.
fn diverges(
    ds: &Dataset,
    script: &Script,
    baseline_raw: &[Option<Reply>],
    variant: Variant,
) -> Option<(usize, String, String)> {
    let norm = variant.norm();
    let base = render_transcript(script, baseline_raw, norm);
    let got = match variant {
        Variant::Chaos => {
            let (catalog, _db) = ds.build();
            for db in catalog.databases() {
                db.set_fault_policy(Some(chaos_policy(ds.seed)));
            }
            let m = Arc::new(Mediator::with_options(catalog, variant.options()));
            let mut s = m.session_arc();
            run_script(&mut s, script, norm)
        }
        Variant::CachedPlan => {
            let (catalog, _db) = ds.build();
            let opts = MediatorOptions::builder()
                .shared_plan_cache(Arc::new(SharedPlanCache::new(4, 64)))
                .build();
            let m = Arc::new(Mediator::with_options(catalog, opts));
            // Session 1 compiles fresh plans and fills the cache;
            // session 2 replays them from the cache. Their *contents*
            // must agree — and the comparison is 2-vs-1, not
            // 2-vs-baseline, because this variant isolates exactly the
            // cached-plan effect.
            let mut s1 = m.session_arc();
            let fresh = run_script(&mut s1, script, norm);
            let mut s2 = m.session_arc();
            let cached = run_script(&mut s2, script, norm);
            return first_diff(&fresh, &cached);
        }
        Variant::Wire => {
            let ds = *ds;
            let factory = move || {
                let (catalog, _db) = ds.build();
                Mediator::with_options(catalog, Variant::Wire.options())
            };
            let mut server =
                Server::start("127.0.0.1:0", ServerConfig::default(), Arc::new(factory))
                    .expect("start fuzz server");
            let mut client = WireClient::connect(server.addr()).expect("connect fuzz client");
            let got = run_script(&mut client, script, norm);
            client.close().ok();
            server.shutdown();
            got
        }
        Variant::Sharded2 | Variant::Sharded4 | Variant::Sharded4Chaos => {
            let layout = variant.shard_layout().expect("federation variant");
            let (catalog, sharded) = ds.build_sharded(layout);
            if variant == Variant::Sharded4Chaos {
                // Faults on every shard, inside the retry budget:
                // per-shard retries must stay invisible in transcripts.
                sharded.set_fault_policy(Some(chaos_policy(ds.seed)));
            }
            let m = Arc::new(Mediator::with_options(catalog, variant.options()));
            let mut s = m.session_arc();
            run_script(&mut s, script, norm)
        }
        _ => {
            let (catalog, _db) = ds.build();
            let m = Arc::new(Mediator::with_options(catalog, variant.options()));
            let mut s = m.session_arc();
            run_script(&mut s, script, norm)
        }
    };
    first_diff(&base, &got)
}

fn first_diff(a: &[String], b: &[String]) -> Option<(usize, String, String)> {
    if a == b {
        return None;
    }
    let i = a
        .iter()
        .zip(b.iter())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    Some((
        i,
        a.get(i).cloned().unwrap_or_else(|| "<missing>".into()),
        b.get(i).cloned().unwrap_or_else(|| "<missing>".into()),
    ))
}

/// Greedy test-case minimization: repeatedly drop ops (suffix first,
/// then one at a time) while the divergence persists. The first op is
/// pinned (scripts must open with a query).
fn minimize(ds: &Dataset, script: &Script, variant: Variant) -> Script {
    let still_fails = |s: &Script| -> bool {
        if s.ops.is_empty() {
            return false;
        }
        let raw = baseline_raw(ds, s);
        diverges(ds, s, &raw, variant).is_some()
    };
    let mut best = script.clone();
    // Phase 1: binary-search the shortest failing prefix.
    let mut lo = 1; // keep the opening query
    let mut hi = best.ops.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        let mut cand = best.clone();
        cand.ops.truncate(mid);
        if still_fails(&cand) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    best.ops.truncate(hi);
    // Phase 2: drop interior ops one at a time until a fixpoint.
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = best.ops.len().saturating_sub(1);
        loop {
            if best.ops.len() > 1 {
                let mut cand = best.clone();
                cand.ops.remove(i);
                if still_fails(&cand) {
                    best = cand;
                    changed = true;
                }
            }
            if i == 0 {
                break;
            }
            i -= 1;
        }
    }
    best
}

/// Run the baseline (default options) and keep the raw replies, so
/// each variant can be compared at its own normalization level.
fn baseline_raw(ds: &Dataset, script: &Script) -> Vec<Option<Reply>> {
    let (catalog, _db) = ds.build();
    let m = Arc::new(Mediator::new(catalog));
    let mut s = m.session_arc();
    run_script_raw(&mut s, script)
}

/// Fuzz configuration: how many cases, at what data scale, how long
/// the scripts are, and which variants to exercise.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; case `i` runs on the `split(i)` stream.
    pub master_seed: u64,
    /// Number of generated cases.
    pub cases: usize,
    /// Keyed-source scale handed to [`Dataset::gen`].
    pub scale: usize,
    /// Ops per script.
    pub script_len: usize,
    /// Include the (slower) wire variant every `wire_every`-th case
    /// (0 = never).
    pub wire_every: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            master_seed: 0x4d49585f9,
            cases: 200,
            scale: 14,
            script_len: 30,
            wire_every: 16,
        }
    }
}

/// A fuzz run's summary.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// Variant comparisons executed.
    pub comparisons: usize,
    /// Divergences found (minimized). Empty on a clean run.
    pub failures: Vec<Divergence>,
}

/// Run the fuzzer. Deterministic in `cfg`: the same config finds the
/// same divergences (or none) on every machine. Stops after
/// `max_failures` minimized divergences (0 = collect all).
pub fn run_fuzz(cfg: &FuzzConfig, max_failures: usize) -> FuzzReport {
    let master = Rng(cfg.master_seed);
    let mut report = FuzzReport {
        cases: 0,
        comparisons: 0,
        failures: Vec::new(),
    };
    for case in 0..cfg.cases {
        let mut rng = master.split(case as u64);
        let case_seed = rng.0;
        let ds = Dataset::gen(&mut rng, cfg.scale);
        let script = gen_script(&mut rng, &ds, cfg.script_len);
        let raw = baseline_raw(&ds, &script);
        report.cases += 1;
        for &variant in ALL_VARIANTS {
            if variant == Variant::Wire && (cfg.wire_every == 0 || case % cfg.wire_every != 0) {
                continue;
            }
            report.comparisons += 1;
            if diverges(&ds, &script, &raw, variant).is_some() {
                let min = minimize(&ds, &script, variant);
                let min_raw = baseline_raw(&ds, &min);
                let (first, base_line, got_line) = diverges(&ds, &min, &min_raw, variant)
                    .unwrap_or((0, "<vanished>".into(), "<vanished>".into()));
                report.failures.push(Divergence {
                    case_seed,
                    variant,
                    dataset: ds,
                    script: min,
                    first_diff: first,
                    baseline: base_line,
                    got: got_line,
                });
                if max_failures != 0 && report.failures.len() >= max_failures {
                    return report;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A handful of cases across the full matrix — the cheap inline
    /// guard; `scripts/check.sh` runs the 200-case smoke via the
    /// `workload_fuzz` binary.
    #[test]
    fn small_fuzz_run_is_clean() {
        let cfg = FuzzConfig {
            cases: 8,
            scale: 10,
            script_len: 16,
            wire_every: 4,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg, 1);
        assert!(
            report.failures.is_empty(),
            "{}",
            report.failures[0].pretty()
        );
        assert_eq!(report.cases, 8);
    }
}
