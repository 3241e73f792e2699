//! Decontextualized-plan cache.
//!
//! Decontextualizing `q(query, p)` runs the full translate → splice →
//! rewrite pipeline even though sibling nodes (the paper's canonical
//! navigation pattern: walk the `CustRec` list, refine each one) differ
//! *only* in the key constants baked into their skolem ids. This cache
//! keys on everything about a query-in-place *except* those constants —
//! the query text, the producing view, and the skolem *structure* of
//! the node's id — and on a hit re-instantiates the cached plan pair by
//! substituting the old node's keys for the new node's keys:
//!
//! * `$v = &oid` fixing selections ([`Cond::OidEq`]) get the new oid;
//! * SQL constants the rewriter derived from a key (`WHERE c1.id =
//!   'DEF345'`) get the new key's parsed value.
//!
//! Substitution is only sound when the old keys are *unambiguous*
//! markers in the template, so caching is refused when a key collides
//! with a constant the query or view mentions on its own, when a key
//! text contains the composite-key separator `|`, and a hit is refused
//! when two old slots map to conflicting new values. All refusals fall
//! back to the ordinary (correct, slower) pipeline.
//!
//! One cache type serves every session: a [`SharedPlanCache`] (a
//! sharded, mutex-striped LRU of `Arc`'d templates). A session without
//! a configured cache owns a one-stripe instance, which keeps plain LRU
//! order; a server can hand all its sessions one process-wide instance
//! so the Nth session to walk the same navigation pattern hits plans
//! the first one compiled. Templates are immutable once built —
//! instantiation substitutes into a *clone* — which is what makes
//! sharing them across threads safe and hits clone-free.

use mix_algebra::{Cond, CondArg, Op, Plan};
use mix_common::{BlockPolicy, Name, PrefetchPolicy, ShardedLru, Stats, Value, DEFAULT_SHARDS};
use mix_engine::NodeContext;
use mix_relational::Operand;
use mix_rewrite::RewriteTrace;
use mix_xml::{oid::OidKind, Oid};
use std::sync::Arc;

use crate::splice::{children_of, with_child_of};

/// How many distinct (query, view, shape) templates a session keeps by
/// default (and the default per-shard capacity of a
/// [`SharedPlanCache`]).
pub const DEFAULT_PLAN_CACHE_CAP: usize = 16;

/// The skolem structure of a node id, with key values erased: for the
/// node and each skolem ancestor, the skolem function, bound variable,
/// and argument count. Two sibling `CustRec` nodes share a shape; their
/// ids differ only in the argument oids (the *slots*).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SkolemShape(Vec<(String, String, usize)>);

/// Cache key: one query text issued from one view at one shape,
/// compiled under one set of plan-shaping knobs, against one set of
/// backends. The view matters because a template is only valid for the
/// view it was decontextualized against; it is keyed by
/// [`view_fingerprint`] of the producing result's logical plan, so the
/// key means the same thing in every session sharing a cache. The knobs
/// matter: a cached physical plan bakes in kernel choices
/// (`hash_joins`) and the block policy captured at build time, so an
/// entry compiled under one knob setting must never be replayed under
/// another. The backend fingerprint matters for a *shared* cache: two
/// mediators over different databases (or different shard layouts) may
/// issue identical query texts whose cached SQL is only correct against
/// the catalog it was compiled for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    query: String,
    view: u64,
    shape: SkolemShape,
    hash_joins: bool,
    block: BlockPolicy,
    prefetch: PrefetchPolicy,
    backend: u64,
}

impl CacheKey {
    /// The key and slot oids for issuing `query` from a node with
    /// context `ctx` in a result whose logical plan fingerprints to
    /// `view`, compiled with the given plan-shape knobs against the
    /// catalog whose backends fingerprint to `backend` (see
    /// [`mix_wrapper::Catalog`] in the session). `None` when the node's
    /// id is not a skolem term (decontextualization will fail anyway).
    pub(crate) fn new(
        query: &str,
        view: u64,
        ctx: &NodeContext,
        hash_joins: bool,
        block: BlockPolicy,
        prefetch: PrefetchPolicy,
        backend: u64,
    ) -> Option<(CacheKey, Vec<Oid>)> {
        let (func, var, args) = ctx.oid.as_skolem()?;
        let mut shape = vec![(func.to_string(), var.to_string(), args.len())];
        let mut slots: Vec<Oid> = args.to_vec();
        for anc in &ctx.ancestors {
            match anc.as_skolem() {
                Some((f, v, a)) => {
                    shape.push((f.to_string(), v.to_string(), a.len()));
                    slots.extend(a.iter().cloned());
                }
                // Keep non-skolem ancestors in the shape so a node under
                // a source element never aliases one under a constructed
                // element.
                None => shape.push((String::new(), String::new(), 0)),
            }
        }
        let key = CacheKey {
            query: query.to_string(),
            view,
            shape: SkolemShape(shape),
            hash_joins,
            // Fixed(0) and Fixed(1) compile to the same plans.
            block: block.normalized(),
            // Depth(0) clamps to Depth(1) at the cursor; same plans.
            prefetch: prefetch.normalized(),
            backend,
        };
        Some((key, slots))
    }
}

/// Fingerprint of a view plan — the only view input decontextualization
/// reads. Hashes the plan's full debug rendering, so any difference in
/// the plan (including its result-root name) yields a different key.
pub(crate) fn view_fingerprint(plan: &Plan) -> u64 {
    use std::fmt::Write as _;
    use std::hash::Hasher;
    struct HashWriter(std::collections::hash_map::DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut w = HashWriter(Default::default());
    write!(w, "{plan:?}").expect("hashing never fails");
    w.0.finish()
}

/// One immutable decontextualized template. Shared freely (the cache
/// hands out `Arc`s); instantiation substitutes into clones.
pub(crate) struct CachedPlan {
    exec: Plan,
    logical: Plan,
    /// The pre-optimization (spliced) plan — what `explain` shows as
    /// the logical plan; re-instantiated like the other two.
    naive: Plan,
    trace: RewriteTrace,
    slots: Vec<Oid>,
}

/// The plan-template cache: a sharded, mutex-striped LRU of `Arc`'d
/// templates, safe to share across threads. A session with no cache
/// configured owns a one-stripe instance (remove on hit, insert at the
/// front, truncate — plain LRU). Hand one to
/// [`MediatorOptions::builder`](crate::MediatorOptions::builder) via
/// `shared_plan_cache` and every session of that mediator uses it
/// instead — the Nth session to walk a navigation pattern hits the
/// plans the first one compiled.
///
/// Each session still counts its *own* `PlanCacheHits`/`Misses`; the
/// cache's [`SharedPlanCache::stats`] carries the process-wide
/// cross-session hit rate and `PlanCacheShardContention`.
#[derive(Debug)]
pub struct SharedPlanCache {
    inner: ShardedLru<CacheKey, CachedPlan>,
}

impl Default for SharedPlanCache {
    fn default() -> SharedPlanCache {
        SharedPlanCache::new(DEFAULT_SHARDS, DEFAULT_PLAN_CACHE_CAP)
    }
}

impl SharedPlanCache {
    /// A cache of `shards` stripes keeping at most `per_shard_cap`
    /// templates each (both clamped ≥ 1).
    pub fn new(shards: usize, per_shard_cap: usize) -> SharedPlanCache {
        SharedPlanCache {
            inner: ShardedLru::new(shards, per_shard_cap),
        }
    }

    /// Process-wide counters: `PlanCacheHits`/`Misses` (the
    /// cross-session hit rate) and `PlanCacheShardContention`.
    pub fn stats(&self) -> &Stats {
        self.inner.stats()
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    /// Per-stripe capacity.
    pub fn per_shard_cap(&self) -> usize {
        self.inner.per_shard_cap()
    }

    /// Total templates currently cached (racy snapshot).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Look up and instantiate a template for a node whose slots are
    /// `new_slots`, renaming the result root to `result_name`. `None`
    /// on a structural miss or when substitution would be ambiguous. The
    /// shard lock is held only for the lookup itself; substitution runs
    /// on the caller's thread against the `Arc`'d template.
    pub(crate) fn lookup(
        &self,
        key: &CacheKey,
        new_slots: &[Oid],
        result_name: &str,
    ) -> Option<(Plan, Plan, Plan, RewriteTrace)> {
        let cached = self.inner.get(key)?;
        let (omap, vmap) = substitution(&cached.slots, new_slots)?;
        let inst = |p: &Plan| rename_root(&subst_plan(p, &omap, &vmap), result_name);
        Some((
            inst(&cached.exec),
            inst(&cached.logical),
            inst(&cached.naive),
            cached.trace.clone(),
        ))
    }

    /// Remember a freshly decontextualized plan pair as a template, if
    /// its slots are unambiguous markers (see [`cacheable`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert(
        &self,
        key: CacheKey,
        slots: Vec<Oid>,
        exec: &Plan,
        logical: &Plan,
        naive: &Plan,
        trace: &RewriteTrace,
        query_plan: &Plan,
        view_plan: &Plan,
    ) {
        if !cacheable(&slots, query_plan, view_plan) {
            return;
        }
        let template = CachedPlan {
            exec: exec.clone(),
            logical: logical.clone(),
            naive: naive.clone(),
            trace: trace.clone(),
            slots,
        };
        self.inner.insert(key, Arc::new(template));
    }
}

/// The guards that make key substitution sound. A slot must not:
/// * carry the composite-key separator `|` (the rewriter splits such a
///   key across several SQL columns — a later single substitution could
///   not reassemble it);
/// * collide with an oid or constant the query or view plan mentions on
///   its own (substitution could not tell a key occurrence from a
///   user-written constant).
fn cacheable(slots: &[Oid], query_plan: &Plan, view_plan: &Plan) -> bool {
    let mut values = Vec::new();
    let mut oids = Vec::new();
    collect_protected(&query_plan.root, &mut values, &mut oids);
    collect_protected(&view_plan.root, &mut values, &mut oids);
    slots.iter().all(|s| {
        if oids.contains(s) {
            return false;
        }
        match s.kind() {
            OidKind::Key(text) => {
                !text.contains('|') && !values.contains(&Value::parse_literal(text))
            }
            _ => true,
        }
    })
}

/// Constants and oids already present in a plan before
/// decontextualization adds the key-fixing selections.
fn collect_protected(op: &Op, values: &mut Vec<Value>, oids: &mut Vec<Oid>) {
    match op {
        Op::Select { cond, .. } => collect_cond(cond, values, oids),
        Op::Join { cond, .. } | Op::SemiJoin { cond, .. } => {
            if let Some(c) = cond {
                collect_cond(c, values, oids);
            }
        }
        Op::RelQuery { sql, .. } => {
            for p in &sql.preds {
                if let Operand::Const(v) = &p.rhs {
                    values.push(v.clone());
                }
            }
        }
        _ => {}
    }
    for k in children_of(op) {
        collect_protected(k, values, oids);
    }
}

fn collect_cond(c: &Cond, values: &mut Vec<Value>, oids: &mut Vec<Oid>) {
    match c {
        Cond::Cmp { l, r, .. } => {
            for a in [l, r] {
                if let CondArg::Const(v) = a {
                    values.push(v.clone());
                }
            }
        }
        Cond::OidEq { oid, .. } => oids.push(oid.clone()),
        Cond::OidCmp { .. } => {}
        Cond::And(cs) => cs.iter().for_each(|c| collect_cond(c, values, oids)),
    }
}

type OidMap = Vec<(Oid, Oid)>;
type ValueMap = Vec<(Value, Value)>;

/// The simultaneous substitution maps old slots → new slots, or `None`
/// when the mapping would be inconsistent (one old key needing two
/// different replacements) or inexpressible (a new composite key where
/// the template holds a split single-column predicate).
fn substitution(old: &[Oid], new: &[Oid]) -> Option<(OidMap, ValueMap)> {
    if old.len() != new.len() {
        return None;
    }
    let mut omap: OidMap = Vec::new();
    let mut vmap: ValueMap = Vec::new();
    for (o, n) in old.iter().zip(new) {
        match omap.iter().find(|(k, _)| k == o) {
            Some((_, mapped)) if mapped != n => return None,
            Some(_) => continue,
            None => omap.push((o.clone(), n.clone())),
        }
        if let OidKind::Key(otext) = o.kind() {
            // The rewriter may have turned this key into a SQL constant.
            let OidKind::Key(ntext) = n.kind() else {
                return None;
            };
            if ntext.contains('|') {
                return None;
            }
            let ov = Value::parse_literal(otext);
            let nv = Value::parse_literal(ntext);
            match vmap.iter().find(|(k, _)| *k == ov) {
                Some((_, mapped)) if *mapped != nv => return None,
                Some(_) => {}
                None => vmap.push((ov, nv)),
            }
        }
    }
    Some((omap, vmap))
}

/// Apply the slot substitution to every `OidEq` condition and every SQL
/// constant of a plan.
fn subst_plan(plan: &Plan, omap: &OidMap, vmap: &ValueMap) -> Plan {
    Plan::new(subst_op(&plan.root, omap, vmap))
}

fn subst_op(op: &Op, omap: &OidMap, vmap: &ValueMap) -> Op {
    let head = match op {
        Op::Select { input, cond } => Op::Select {
            input: input.clone(),
            cond: subst_cond(cond, omap),
        },
        Op::Join { left, right, cond } => Op::Join {
            left: left.clone(),
            right: right.clone(),
            cond: cond.as_ref().map(|c| subst_cond(c, omap)),
        },
        Op::SemiJoin {
            left,
            right,
            cond,
            keep,
        } => Op::SemiJoin {
            left: left.clone(),
            right: right.clone(),
            cond: cond.as_ref().map(|c| subst_cond(c, omap)),
            keep: *keep,
        },
        Op::RelQuery { server, sql, map } => {
            let mut sql = sql.clone();
            for p in &mut sql.preds {
                if let Operand::Const(v) = &p.rhs {
                    if let Some((_, n)) = vmap.iter().find(|(o, _)| o == v) {
                        p.rhs = Operand::Const(n.clone());
                    }
                }
            }
            Op::RelQuery {
                server: server.clone(),
                sql,
                map: map.clone(),
            }
        }
        other => other.clone(),
    };
    let mut out = head;
    for (i, k) in children_of(op).into_iter().enumerate() {
        out = with_child_of(&out, i, subst_op(k, omap, vmap));
    }
    out
}

fn subst_cond(c: &Cond, omap: &OidMap) -> Cond {
    match c {
        Cond::OidEq { var, oid } => {
            let oid = omap
                .iter()
                .find(|(o, _)| o == oid)
                .map(|(_, n)| n.clone())
                .unwrap_or_else(|| oid.clone());
            Cond::OidEq {
                var: var.clone(),
                oid,
            }
        }
        Cond::And(cs) => Cond::And(cs.iter().map(|c| subst_cond(c, omap)).collect()),
        other => other.clone(),
    }
}

/// The cached template carries the root name of the result it was
/// compiled for (`rootv3`); each instantiation gets the current one.
fn rename_root(plan: &Plan, result_name: &str) -> Plan {
    let mut root = plan.root.clone();
    if let Op::TupleDestroy { root: r, .. } = &mut root {
        if r.is_some() {
            *r = Some(Name::new(result_name));
        }
    }
    Plan::new(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_common::CmpOp;

    fn key_slot(text: &str) -> Oid {
        Oid::key(text)
    }

    fn empty_plan() -> Plan {
        Plan::new(Op::Empty { vars: vec![] })
    }

    #[test]
    fn substitution_consistency() {
        // Same old slot twice: consistent → ok, conflicting → refused.
        let a = key_slot("A");
        let b = key_slot("B");
        let c = key_slot("C");
        assert!(substitution(&[a.clone(), a.clone()], &[b.clone(), b.clone()]).is_some());
        assert!(substitution(&[a.clone(), a.clone()], &[b.clone(), c.clone()]).is_none());
        // Swaps are fine: the maps are applied simultaneously.
        let (omap, _) = substitution(&[a.clone(), b.clone()], &[b.clone(), a.clone()]).unwrap();
        assert_eq!(omap.len(), 2);
        // Composite new key can't replace a split single-column pred.
        assert!(substitution(&[a], &[key_slot("X|Y")]).is_none());
    }

    #[test]
    fn guards_refuse_ambiguous_slots() {
        let q = Plan::new(Op::Select {
            input: Box::new(Op::Empty {
                vars: vec![Name::new("x")],
            }),
            cond: Cond::cmp_const("x", CmpOp::Eq, "DEF345"),
        });
        // The query itself mentions the key constant.
        assert!(!cacheable(&[key_slot("DEF345")], &q, &empty_plan()));
        assert!(cacheable(&[key_slot("XYZ123")], &q, &empty_plan()));
        // Composite keys are never cached.
        assert!(!cacheable(&[key_slot("A|B")], &empty_plan(), &empty_plan()));
    }

    fn insert_empty(cache: &SharedPlanCache, key: CacheKey, slots: Vec<Oid>) {
        cache.insert(
            key,
            slots,
            &empty_plan(),
            &empty_plan(),
            &empty_plan(),
            &RewriteTrace::default(),
            &empty_plan(),
            &empty_plan(),
        );
    }

    #[test]
    fn lru_evicts_beyond_capacity() {
        // A session's own cache: one stripe, plain LRU order.
        let cache = SharedPlanCache::new(1, DEFAULT_PLAN_CACHE_CAP);
        let shape = SkolemShape(vec![("f".into(), "V".into(), 1)]);
        let key = |i: usize| CacheKey {
            query: format!("q{i}"),
            view: 0,
            shape: shape.clone(),
            hash_joins: true,
            block: BlockPolicy::Auto,
            prefetch: PrefetchPolicy::Off,
            backend: 0,
        };
        for i in 0..(DEFAULT_PLAN_CACHE_CAP + 4) {
            insert_empty(&cache, key(i), vec![key_slot("K")]);
        }
        assert_eq!(cache.len(), DEFAULT_PLAN_CACHE_CAP);
        // The oldest entries were evicted.
        assert!(cache.lookup(&key(0), &[key_slot("K")], "rootv0").is_none());
        assert!(cache
            .lookup(&key(DEFAULT_PLAN_CACHE_CAP + 3), &[key_slot("K")], "rootv0")
            .is_some());
    }

    #[test]
    fn plan_shape_knobs_partition_the_key() {
        // A template cached under one (view, hash_joins, block,
        // prefetch) setting must not be replayed under another —
        // toggling an ablation knob changes the physical plan the cache
        // would hand back, and another view changes the logical one.
        let cache = SharedPlanCache::new(1, DEFAULT_PLAN_CACHE_CAP);
        let ctx = NodeContext {
            oid: Oid::skolem("f", "V", vec![key_slot("DEF345")]),
            ancestors: vec![],
        };
        let pf = PrefetchPolicy::Off;
        let auto = BlockPolicy::Auto;
        let (key, slots) = CacheKey::new("q", 7, &ctx, true, auto, pf, 0).expect("skolem oid");
        insert_empty(&cache, key, slots.clone());
        // Same query/node, different view or knobs: structural misses.
        for (view, hash_joins, block, prefetch) in [
            (8, true, auto, pf),
            (7, false, auto, pf),
            (7, true, BlockPolicy::Off, pf),
            (7, true, auto, PrefetchPolicy::Auto),
        ] {
            let (k, _) = CacheKey::new("q", view, &ctx, hash_joins, block, prefetch, 0).unwrap();
            assert!(cache.lookup(&k, &slots, "rootv1").is_none());
        }
        // The original knobs still hit, and Fixed(0) normalizes to
        // Fixed(1) rather than minting a third key for the same plans.
        let (same, _) = CacheKey::new("q", 7, &ctx, true, auto, pf, 0).unwrap();
        assert!(cache.lookup(&same, &slots, "rootv1").is_some());
        let (f0, _) = CacheKey::new("q", 7, &ctx, true, BlockPolicy::Fixed(0), pf, 0).unwrap();
        let (f1, _) = CacheKey::new("q", 7, &ctx, true, BlockPolicy::Fixed(1), pf, 0).unwrap();
        assert_eq!(f0, f1);
        // Depth(0) normalizes to Depth(1) likewise.
        let (d0, _) = CacheKey::new("q", 7, &ctx, true, auto, PrefetchPolicy::Depth(0), 0).unwrap();
        let (d1, _) = CacheKey::new("q", 7, &ctx, true, auto, PrefetchPolicy::Depth(1), 0).unwrap();
        assert_eq!(d0, d1);
    }

    #[test]
    fn view_fingerprint_tells_views_apart() {
        let a = Plan::new(Op::Empty {
            vars: vec![Name::new("x")],
        });
        let b = Plan::new(Op::Empty {
            vars: vec![Name::new("y")],
        });
        assert_eq!(view_fingerprint(&a), view_fingerprint(&a.clone()));
        assert_ne!(view_fingerprint(&a), view_fingerprint(&b));
    }
}
