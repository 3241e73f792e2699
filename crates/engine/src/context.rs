//! Evaluation context: sources, counters, engine options.

use crate::lval::{force_list, LList, LVal};
use mix_common::{
    BlockPolicy, BlockRamp, MixError, Name, PrefetchPolicy, Result, ResultContext, RetryPolicy,
    Stats, Value, MAX_AUTO_BLOCK,
};
use mix_obs::TracerHandle;
use mix_wrapper::Catalog;
use mix_xml::{NavDoc, Oid};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

/// How source views are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Fetch tuples on demand (navigation-driven evaluation).
    Lazy,
    /// Materialize each source view up front (the conventional
    /// mediator baseline).
    Eager,
}

/// Which `groupBy` implementation the lazy engine uses (Section 4:
/// "the stateless gBy assumes that its input is sorted along the
/// group-by variables; the stateful gBy makes no such assumptions").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GByMode {
    /// Table 1's presorted stateless implementation: constant operator
    /// state, groups discovered by scanning until the key changes.
    StatelessPresorted,
    /// Buffering implementation: drains and hash-partitions its input.
    Stateful,
    /// Hash implementation: correct on unsorted input like
    /// [`GByMode::Stateful`], but spools lazily — the first group is
    /// available after one input pull.
    Hash,
    /// Pick per `groupBy` node: presorted when the rewriter's
    /// sortedness analysis proves the input key-contiguous
    /// ([`mix_rewrite::key_contiguous`]), hash otherwise.
    Auto,
}

/// Shared state for one plan evaluation (or one QDOM session).
pub struct EvalContext {
    catalog: Catalog,
    mode: AccessMode,
    pub gby_mode: GByMode,
    /// Use the hash join/semi-join kernels when an equi-key is
    /// extractable (`false` forces the nested-loop kernels — an
    /// ablation/testing knob; both produce identical tuple sequences).
    pub hash_joins: bool,
    /// Where operator spans and source events go (defaults to the
    /// disabled null tracer).
    pub tracer: TracerHandle,
    /// Block-at-a-time execution policy: how many tuples lazy cursors
    /// and vectorized operators may fetch per pull
    /// ([`BlockPolicy::Off`] = the paper's one-tuple-per-pull model).
    pub block: BlockPolicy,
    /// How transient backend faults are retried on every source fetch
    /// (lazy cursors and `rQ` drains alike).
    pub retry: RetryPolicy,
    /// Pipelined prefetch at the backend cursor boundary
    /// ([`PrefetchPolicy::Off`] = the paper's strictly demand-driven
    /// model; `Depth(n)`/`Auto` overlap backend latency with mediator
    /// work once a cursor's first block has been demanded).
    pub prefetch: PrefetchPolicy,
    /// Session high-water mark for `BlockPolicy::Auto` restarts: once a
    /// drain in this session has ramped up, later cursors skip the
    /// small-block warm-up below this floor (see
    /// [`EvalContext::block_ramp`]).
    ramp_floor: AtomicUsize,
    stats: Stats,
    docs: Mutex<HashMap<Name, Arc<dyn NavDoc>>>,
}

impl EvalContext {
    /// A context over `catalog` in the given access mode.
    pub fn new(catalog: Catalog, mode: AccessMode) -> EvalContext {
        EvalContext {
            catalog,
            mode,
            gby_mode: GByMode::Auto,
            hash_joins: true,
            tracer: TracerHandle::null(),
            block: BlockPolicy::default(),
            retry: RetryPolicy::default(),
            prefetch: PrefetchPolicy::default(),
            ramp_floor: AtomicUsize::new(1),
            stats: Stats::new(),
            docs: Mutex::new(HashMap::new()),
        }
    }

    /// A fresh block ramp for one cursor, floored at the session's
    /// high-water mark (affects `BlockPolicy::Auto` only — `Off` and
    /// `Fixed` ramps are returned unchanged). A repeated drain in the
    /// same session thus skips the 1→2→4… warm-up that made small
    /// fixed blocks beat `Auto` on short re-drains.
    pub fn block_ramp(&self) -> BlockRamp {
        self.block
            .ramp()
            .with_floor(self.ramp_floor.load(Ordering::Relaxed))
    }

    /// Record an observed block size, lifting the session ramp floor.
    /// Blocks below 8 rows are ignored: warm-up steps and final partial
    /// blocks must not drag the floor around, and tiny floors save
    /// nothing anyway.
    pub fn note_block(&self, rows: usize) {
        if rows >= 8 && rows > self.ramp_floor.load(Ordering::Relaxed) {
            self.ramp_floor
                .store(rows.min(MAX_AUTO_BLOCK), Ordering::Relaxed);
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mediator-side counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The access mode.
    pub fn mode(&self) -> AccessMode {
        self.mode
    }

    /// The navigable view of a source, cached so all `mksrc` operators
    /// on the same source share one fetch cursor (and node refs stay
    /// stable across the session).
    pub fn doc(&self, name: &Name) -> Result<Arc<dyn NavDoc>> {
        if let Some(d) = self.docs.lock().unwrap().get(name) {
            return Ok(Arc::clone(d));
        }
        let d = match self.mode {
            AccessMode::Lazy => self
                .catalog
                .lazy_with_policies(name.as_str(), self.block, self.retry, self.prefetch)
                .context(name)?,
            AccessMode::Eager => self.catalog.materialized(name.as_str()).context(name)?,
        };
        self.docs
            .lock()
            .unwrap()
            .insert(name.clone(), Arc::clone(&d));
        Ok(d)
    }

    /// Register an in-memory document under its name (used to splice a
    /// materialized intermediate result in as a source — the
    /// "materialize then re-query" baseline of experiment E3).
    pub fn register_doc(&self, doc: Arc<dyn NavDoc>) {
        self.docs
            .lock()
            .unwrap()
            .insert(doc.doc_name().clone(), doc);
    }

    // ---- generic LVal navigation ------------------------------------

    /// The element label of a value (`list` for list values, Fig. 5's
    /// convention for the tree representation of binding lists).
    pub fn lval_label(&self, v: &LVal) -> Option<Name> {
        match v {
            LVal::Src { doc, node } => self.doc(doc).ok()?.label(*node),
            LVal::Leaf(_) => None,
            LVal::Elem(e) => Some(e.label.clone()),
            LVal::List(_) => Some(Name::new("list")),
            LVal::Part(_) => Some(Name::new("list")),
        }
    }

    /// The leaf value of a value node, if it is one.
    pub fn lval_value(&self, v: &LVal) -> Option<Value> {
        match v {
            LVal::Src { doc, node } => self.doc(doc).ok()?.value(*node),
            LVal::Leaf(x) => Some(x.clone()),
            _ => None,
        }
    }

    /// The vertex id of a value.
    pub fn lval_oid(&self, v: &LVal) -> Oid {
        match v {
            LVal::Src { doc, node } => match self.doc(doc) {
                Ok(d) => d.oid(*node),
                Err(_) => Oid::surrogate(u64::MAX),
            },
            LVal::Leaf(x) => Oid::lit(x.clone()),
            LVal::Elem(e) => e.oid.clone(),
            LVal::List(_) | LVal::Part(_) => Oid::surrogate(u64::MAX - 1),
        }
    }

    /// The children of a value, as values (forces lazy lists only when
    /// iterated by the caller — here materialized for simplicity of
    /// path walking; bounded by one element's subtree).
    pub fn lval_children(&self, v: &LVal) -> Result<Vec<LVal>> {
        Ok(match v {
            LVal::Src { doc, node } => {
                let d = self.doc(doc)?;
                let mut out = Vec::new();
                let mut c = d.try_first_child(*node)?;
                while let Some(n) = c {
                    out.push(LVal::Src {
                        doc: doc.clone(),
                        node: n,
                    });
                    c = d.try_next_sibling(n)?;
                }
                out
            }
            LVal::Leaf(_) => Vec::new(),
            LVal::Elem(e) => force_list(&e.children)?,
            LVal::List(l) => force_list(l)?,
            LVal::Part(_) => {
                return Err(MixError::invalid(
                    "cannot navigate into a group partition with a path",
                ))
            }
        })
    }

    /// The child of a value at `index`, forcing lazily only up to it.
    pub fn lval_child_at(&self, v: &LVal, index: usize) -> Result<Option<LVal>> {
        Ok(match v {
            LVal::Src { doc, node } => {
                let d = self.doc(doc)?;
                let mut c = d.try_first_child(*node)?;
                let mut i = 0;
                while let Some(n) = c {
                    if i == index {
                        return Ok(Some(LVal::Src {
                            doc: doc.clone(),
                            node: n,
                        }));
                    }
                    i += 1;
                    c = d.try_next_sibling(n)?;
                }
                None
            }
            LVal::Leaf(_) => None,
            LVal::Elem(e) => e.children.get(index)?,
            LVal::List(l) => l.get(index)?,
            LVal::Part(_) => None,
        })
    }

    /// The scalar a condition sees for a value: a leaf's value, or the
    /// value of an element's single text child (the wrapper's
    /// `<id>XYZ123</id>` shape). `None` (⇒ condition false) otherwise.
    pub fn lval_scalar(&self, v: &LVal) -> Option<Value> {
        if let Some(x) = self.lval_value(v) {
            return Some(x);
        }
        match v {
            LVal::Src { doc, node } => {
                let d = self.doc(doc).ok()?;
                mix_xml::node_scalar(&*d, *node)
            }
            LVal::Elem(e) => {
                // Forcing failures degrade to "no scalar" (⇒ condition
                // false) here; the navigation path reports them.
                let first = e.children.get(0).ok().flatten()?;
                if e.children.get(1).ok().flatten().is_some() {
                    return None;
                }
                self.lval_value(&first)
            }
            _ => None,
        }
    }

    /// The grouping/skolem key of a value: its oid for element nodes,
    /// the *value* for leaves (a leaf's label is its value in the data
    /// model, so two equal-valued leaves group together). This is what
    /// `crElt` puts into constructed ids ("the constructed id's include
    /// all information necessary for tracing the ancestry of an
    /// object").
    pub fn lval_key(&self, v: &LVal) -> Oid {
        match self.lval_value(v) {
            Some(x) => Oid::lit(x),
            None => self.lval_oid(v),
        }
    }

    /// An empty list value (convenience).
    pub fn empty_list() -> LVal {
        LVal::List(LList::empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lval::LElem;
    use mix_wrapper::fig2_catalog;

    fn ctx(mode: AccessMode) -> EvalContext {
        EvalContext::new(fig2_catalog().0, mode)
    }

    #[test]
    fn doc_cache_shares_views() {
        let c = ctx(AccessMode::Lazy);
        let a = c.doc(&Name::new("root1")).unwrap();
        let b = c.doc(&Name::new("root1")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(c.doc(&Name::new("nope")).is_err());
    }

    #[test]
    fn lval_navigation_over_sources() {
        let c = ctx(AccessMode::Eager);
        let d = c.doc(&Name::new("root1")).unwrap();
        let root = LVal::Src {
            doc: Name::new("root1"),
            node: d.root(),
        };
        assert_eq!(c.lval_label(&root).unwrap().as_str(), "list");
        let kids = c.lval_children(&root).unwrap();
        assert_eq!(kids.len(), 2);
        assert_eq!(c.lval_oid(&kids[0]).to_string(), "&DEF345");
        // scalar of the id field
        let id_field = &c.lval_children(&kids[0]).unwrap()[0];
        assert_eq!(c.lval_scalar(id_field), Some(Value::str("DEF345")));
        assert_eq!(
            c.lval_child_at(&root, 1)
                .unwrap()
                .map(|v| c.lval_oid(&v).to_string()),
            Some("&XYZ123".to_string())
        );
        assert!(c.lval_child_at(&root, 2).unwrap().is_none());
    }

    #[test]
    fn lval_navigation_over_constructed() {
        let c = ctx(AccessMode::Eager);
        let e = LVal::Elem(Arc::new(LElem {
            label: Name::new("CustRec"),
            oid: Oid::skolem("f", "V", vec![Oid::key("X")]),
            children: LList::fixed(vec![LVal::Leaf(Value::Int(7))]),
        }));
        assert_eq!(c.lval_label(&e).unwrap().as_str(), "CustRec");
        assert_eq!(c.lval_scalar(&e), Some(Value::Int(7)));
        assert_eq!(c.lval_oid(&e).to_string(), "&($V,f(&X))");
        assert_eq!(c.lval_children(&e).unwrap().len(), 1);
        // leaves
        let leaf = LVal::Leaf(Value::str("x"));
        assert!(c.lval_label(&leaf).is_none());
        assert_eq!(c.lval_value(&leaf), Some(Value::str("x")));
        assert_eq!(c.lval_oid(&leaf).to_string(), "x");
    }
}
