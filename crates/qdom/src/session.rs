//! QDOM client sessions: the `d`/`r`/`fl`/`fv`/`q` command set.

use crate::decontext::decontextualize;
use crate::mediator::Mediator;
use crate::plancache::{view_fingerprint, CacheKey, SharedPlanCache};
use crate::splice::{compose, references_source};
use mix_algebra::{translate_with_root, Plan};
use mix_common::ColumnBlock;
use mix_common::{Counter, MixError, Name, Result, Value};
use mix_engine::{eager, render_annotated, AccessMode, EvalContext, NodeContext, VirtualResult};
use mix_obs::ExecProfile;
use mix_proto::{Command, Reply, WireNode};
use mix_rewrite::{lower, rewrite, RewriteTrace};
use mix_xml::{Document, NavDoc, NodeRef, Oid};
use mix_xquery::parse_query;
use std::sync::Arc;

/// The special source name `document(root)` denotes — the node a
/// query-in-place was issued from.
pub const QUERY_ROOT: &str = "root";

/// A client-side node handle (the paper's `p₀, p₁, …`): a query result
/// plus a node id within it. Cheap to copy; stays valid for the whole
/// session ("a 'thin' client-side library associates with each pᵢ the
/// object id of the corresponding object exported by the mediator").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QNode {
    pub(crate) result: usize,
    pub(crate) node: NodeRef,
}

/// One query's result within a session.
pub struct ResultInfo {
    /// The executed plan (post-optimization).
    pub exec_plan: Plan,
    /// The logical (pre-SQL-split) plan — what composition and
    /// decontextualization splice from.
    pub logical_plan: Plan,
    /// The naive plan straight out of translation/splicing, before any
    /// rewriting — what [`QdomSession::explain`] shows as the logical
    /// plan.
    pub naive_plan: Plan,
    /// The rewrite derivation (empty when optimization is off).
    pub trace: RewriteTrace,
    /// Per-operator execution metrics over `exec_plan` — filled up
    /// front by an eager run, incrementally by navigation in a lazy
    /// one.
    pub profile: Arc<ExecProfile>,
    /// Plan-cache fingerprint of `logical_plan`, computed on the first
    /// query-in-place from one of this result's interior nodes.
    view_fp: Option<u64>,
    doc: ResultDoc,
}

enum ResultDoc {
    Lazy(Arc<VirtualResult>),
    Eager(Arc<Document>),
}

impl ResultDoc {
    fn nav(&self) -> &dyn NavDoc {
        match self {
            ResultDoc::Lazy(v) => v.as_ref(),
            ResultDoc::Eager(d) => d.as_ref(),
        }
    }

    /// One past the largest node id a client can legitimately hold for
    /// this result. Lazy results only hand out ids they have
    /// materialized, so the bound grows as navigation proceeds.
    fn node_bound(&self) -> usize {
        match self {
            ResultDoc::Lazy(v) => v.nodes_materialized(),
            ResultDoc::Eager(d) => d.len(),
        }
    }
}

/// `QNode` → wire handle (a fresh handle the session just minted).
fn wire(p: QNode) -> WireNode {
    WireNode {
        result: p.result as u32,
        node: p.node.0,
    }
}

/// Wire handle → `QNode` *without* validation — only for handles the
/// session itself produced. Arriving handles go through
/// [`QdomSession::resolve`] instead.
fn unwire(w: WireNode) -> QNode {
    QNode {
        result: w.result as usize,
        node: NodeRef(w.node),
    }
}

/// Unwrap the error out of an unexpected reply (wrapper plumbing: a
/// command answered with a variant it never produces is an internal
/// bug, not a user error).
fn reply_err(r: Reply, cmd: &str) -> MixError {
    match r {
        Reply::Err(e) => e,
        other => MixError::internal(format!("{cmd}: unexpected reply variant {other:?}")),
    }
}

/// The session's hold on its mediator: a plain borrow for in-process
/// callers, or an owned `Arc` for sessions that must be `'static` (the
/// pooled server moves sessions across worker threads).
enum MediatorRef<'m> {
    Borrowed(&'m Mediator),
    Owned(Arc<Mediator>),
}

impl MediatorRef<'_> {
    fn get(&self) -> &Mediator {
        match self {
            MediatorRef::Borrowed(m) => m,
            MediatorRef::Owned(m) => m,
        }
    }
}

/// An interactive QDOM session over a [`Mediator`].
pub struct QdomSession<'m> {
    mediator: MediatorRef<'m>,
    ctx: Arc<EvalContext>,
    results: Vec<ResultInfo>,
    /// The template cache: the mediator's shared cache when its options
    /// carry one, else a one-stripe cache of this session's own.
    plan_cache: Arc<SharedPlanCache>,
    /// Fingerprint of the catalog's backends, computed once at session
    /// start — part of every plan-cache key, so mediators over
    /// different databases (or shard layouts) sharing one
    /// [`SharedPlanCache`] never exchange templates.
    backend_fp: u64,
}

impl<'m> QdomSession<'m> {
    pub(crate) fn new(mediator: &'m Mediator) -> QdomSession<'m> {
        QdomSession::init(MediatorRef::Borrowed(mediator))
    }

    pub(crate) fn new_owned(mediator: Arc<Mediator>) -> QdomSession<'static> {
        QdomSession::init(MediatorRef::Owned(mediator))
    }

    fn init(mediator: MediatorRef<'_>) -> QdomSession<'_> {
        let opts = mediator.get().options();
        let mut ctx = EvalContext::new(mediator.get().catalog().clone(), opts.access);
        ctx.gby_mode = opts.gby;
        ctx.hash_joins = opts.hash_joins;
        ctx.tracer = opts.tracer.clone();
        ctx.block = opts.block;
        ctx.retry = opts.retry;
        ctx.prefetch = opts.prefetch;
        // Sources share the session's tracer, so SQL issuance and row
        // shipping show up as events under the operator that caused
        // them.
        for db in mediator.get().catalog().databases() {
            db.set_tracer(opts.tracer.clone());
        }
        let backend_fp = mediator.get().catalog().fingerprint();
        QdomSession {
            ctx: Arc::new(ctx),
            results: Vec::new(),
            plan_cache: opts
                .shared_plan_cache
                .unwrap_or_else(|| Arc::new(SharedPlanCache::new(1, opts.plan_cache_cap))),
            backend_fp,
            mediator,
        }
    }

    fn med(&self) -> &Mediator {
        self.mediator.get()
    }

    /// The shared evaluation context (stats, source views).
    pub fn ctx(&self) -> &Arc<EvalContext> {
        &self.ctx
    }

    /// Metadata about a result (plans + rewrite trace).
    pub fn result_info(&self, p: QNode) -> &ResultInfo {
        &self.results[p.result]
    }

    // ---- the command surface --------------------------------------------

    /// Execute one [`Command`] — the *single* entry point to the
    /// session. The named methods (`query`, `d`, `r`, `fl`, `fv`, …)
    /// are thin wrappers that build a `Command` and unwrap the
    /// [`Reply`], so a wire client and an in-process caller
    /// demonstrably exercise one API.
    ///
    /// Commands never panic on bad input: a stale or out-of-range
    /// handle answers [`Reply::Err`]`(MixError::Plan)` and the session
    /// stays usable.
    pub fn dispatch(&mut self, cmd: Command) -> Reply {
        self.try_dispatch(cmd).unwrap_or_else(Reply::Err)
    }

    fn try_dispatch(&mut self, cmd: Command) -> Result<Reply> {
        Ok(match cmd {
            Command::Query { text } => Reply::Node(wire(self.query_impl(&text)?)),
            Command::Q { text, from } => {
                let from = self.resolve(from)?;
                Reply::Node(wire(self.q_impl(&text, from)?))
            }
            Command::D { p } => Reply::Step(self.d_impl(self.resolve(p)?)?.map(wire)),
            Command::R { p } => Reply::Step(self.r_impl(self.resolve(p)?)?.map(wire)),
            Command::Fl { p } => Reply::Label(self.fl_impl(self.resolve(p)?)?),
            Command::Fv { p } => Reply::Value(self.fv_impl(self.resolve(p)?)?),
            Command::Children { p } => Reply::Nodes(
                self.children_impl(self.resolve(p)?)?
                    .into_iter()
                    .map(wire)
                    .collect(),
            ),
            Command::ChildCount { p } => {
                Reply::Count(self.child_count_impl(self.resolve(p)?)? as u64)
            }
            Command::Render { p } => Reply::Text(self.render_impl(self.resolve(p)?)),
            Command::Explain { p } => Reply::Text(self.explain_impl(self.resolve(p)?)),
            Command::Export { p, max_rows } => {
                Reply::Block(self.export_impl(self.resolve(p)?, max_rows)?)
            }
            Command::Stats => Reply::Stats(self.stats_impl()),
        })
    }

    /// The wire handle for an in-process node — the same value
    /// [`Reply::Node`]/[`Reply::Step`] carry, for callers mixing the
    /// named surface with [`QdomSession::dispatch`].
    pub fn handle(&self, p: QNode) -> WireNode {
        wire(p)
    }

    /// Validate a wire handle into a [`QNode`] (for the non-protocol
    /// helpers: [`QdomSession::oid`], [`QdomSession::result_info`],
    /// …). Stale or out-of-range handles answer `MixError::Plan`.
    pub fn resolve_handle(&self, w: WireNode) -> Result<QNode> {
        self.resolve(w)
    }

    /// Validate an arriving wire handle. Both halves are checked: the
    /// result index against the results this session has produced, and
    /// the node id against that result's materialization bound — lazy
    /// results only ever hand out ids they have materialized, so
    /// anything past the bound was never a handle the client received.
    fn resolve(&self, w: WireNode) -> Result<QNode> {
        let result = w.result as usize;
        let info = self.results.get(result).ok_or_else(|| {
            MixError::plan(format!(
                "stale result handle: result {} of a session with {} result(s)",
                w.result,
                self.results.len()
            ))
        })?;
        let bound = info.doc.node_bound();
        if w.node as usize >= bound {
            return Err(MixError::plan(format!(
                "stale node handle: node {} is outside result {result} (bound {bound})",
                w.node
            )));
        }
        Ok(QNode {
            result,
            node: NodeRef(w.node),
        })
    }

    // ---- queries ------------------------------------------------------

    /// Issue a query against the mediator's sources and views; returns
    /// the root of the (virtual) answer document. Wrapper over
    /// [`Command::Query`].
    pub fn query(&mut self, text: &str) -> Result<QNode> {
        match self.dispatch(Command::Query { text: text.into() }) {
            Reply::Node(w) => Ok(unwire(w)),
            other => Err(reply_err(other, "query")),
        }
    }

    fn query_impl(&mut self, text: &str) -> Result<QNode> {
        let _span = self.ctx.tracer.span("cmd:query", &[]);
        let q = parse_query(text)?;
        let result_name = format!("rootv{}", self.results.len());
        let mut plan = translate_with_root(&q, &result_name)?;
        // Compose away references to defined views.
        for vname in self.med().view_names() {
            if references_source(&plan.root, vname.as_str()) {
                let view = self.med().view(vname.as_str()).expect("listed view exists");
                plan = compose(&plan, vname.as_str(), view);
            }
        }
        if references_source(&plan.root, QUERY_ROOT) {
            return Err(MixError::invalid(
                "document(root) is only meaningful in a query-in-place; use q(query, node)",
            ));
        }
        self.execute(plan)
    }

    /// `q(query, p)`: issue a query *from node `p`* (Section 2). From a
    /// result root this is composition (Section 6); from an interior
    /// node it is decontextualization (Section 5). Inside the query,
    /// `document(root)` denotes `p`. Wrapper over [`Command::Q`].
    pub fn q(&mut self, text: &str, p: QNode) -> Result<QNode> {
        match self.dispatch(Command::Q {
            text: text.into(),
            from: wire(p),
        }) {
            Reply::Node(w) => Ok(unwire(w)),
            other => Err(reply_err(other, "q")),
        }
    }

    fn q_impl(&mut self, text: &str, p: QNode) -> Result<QNode> {
        let _span = self.ctx.tracer.span("cmd:q", &[]);
        let q = parse_query(text)?;
        let result_name = format!("rootv{}", self.results.len());
        let qplan = translate_with_root(&q, &result_name)?;
        let entry = &self.results[p.result];
        if p.node == entry.doc.nav().root() {
            // Composition with the producing plan.
            let plan = compose(&qplan, QUERY_ROOT, &entry.logical_plan);
            return self.execute(plan);
        }
        // Decontextualization from the node's id. Sibling nodes share a
        // plan shape differing only in key constants, so try the plan
        // cache before running the translate → splice → rewrite
        // pipeline.
        let nctx = self.context(p);
        let entry = &mut self.results[p.result];
        let view = *entry
            .view_fp
            .get_or_insert_with(|| view_fingerprint(&entry.logical_plan));
        let cache_key = CacheKey::new(
            text,
            view,
            &nctx,
            self.ctx.hash_joins,
            self.ctx.block,
            self.ctx.prefetch,
            self.backend_fp,
        );
        if let Some((key, new_slots)) = &cache_key {
            if let Some((exec, logical, naive, trace)) =
                self.plan_cache.lookup(key, new_slots, &result_name)
            {
                self.ctx.stats().inc(Counter::PlanCacheHits);
                return self.push_result(exec, logical, naive, trace);
            }
            self.ctx.stats().inc(Counter::PlanCacheMisses);
        }
        let view_plan = &self.results[p.result].logical_plan;
        let plan = decontextualize(&qplan, &nctx, view_plan)?;
        let (exec, logical, naive, trace) = self.compile(plan);
        if let Some((key, slots)) = cache_key {
            let view_plan = &self.results[p.result].logical_plan;
            self.plan_cache.insert(
                key, slots, &exec, &logical, &naive, &trace, &qplan, view_plan,
            );
        }
        self.push_result(exec, logical, naive, trace)
    }

    /// The materialize-then-query strawman for queries-in-place: copy
    /// the full subtree under `p` to the mediator, register it as the
    /// query root, and evaluate against the copy. This is the baseline
    /// experiment E3 compares decontextualization against.
    pub fn q_materialized(&mut self, text: &str, p: QNode) -> Result<QNode> {
        let _span = self.ctx.tracer.span("cmd:q", &[]);
        let q = parse_query(text)?;
        let result_name = format!("rootv{}", self.results.len());
        let plan = translate_with_root(&q, &result_name)?;
        // Materialize the subtree under p as the `root` document.
        let entry = &self.results[p.result];
        let nav = entry.doc.nav();
        let label = nav.try_label(p.node)?.unwrap_or_else(|| Name::new("list"));
        let mut doc = Document::new(QUERY_ROOT, label);
        let root = doc.root_ref();
        copy_subtree_children(nav, p.node, &mut doc, root, &self.ctx)?;
        self.ctx.register_doc(Arc::new(doc));
        // No composition: the plan's mksrc(root) now resolves to the
        // materialized copy.
        self.execute_unoptimized(plan)
    }

    fn execute(&mut self, plan: Plan) -> Result<QNode> {
        let (exec, logical, naive, trace) = self.compile(plan);
        self.push_result(exec, logical, naive, trace)
    }

    /// The (executed, logical, naive) plans and rewrite trace of a
    /// spliced plan. With optimization on, the plan is rewritten once:
    /// the rewritten plan is the logical plan later composition splices
    /// from, and lowering it yields the executed plan.
    fn compile(&self, plan: Plan) -> (Plan, Plan, Plan, RewriteTrace) {
        if !self.med().options().optimize {
            return (plan.clone(), plan.clone(), plan, RewriteTrace::default());
        }
        let rewritten = rewrite(&plan);
        let logical = rewritten.plan.clone();
        let out = lower(rewritten, self.med().catalog());
        (out.plan, logical, plan, out.trace)
    }

    fn execute_unoptimized(&mut self, plan: Plan) -> Result<QNode> {
        let logical = plan.clone();
        let naive = plan.clone();
        self.push_result(plan, logical, naive, RewriteTrace::default())
    }

    fn push_result(
        &mut self,
        exec_plan: Plan,
        logical_plan: Plan,
        naive_plan: Plan,
        trace: RewriteTrace,
    ) -> Result<QNode> {
        mix_algebra::validate(&exec_plan)?;
        let (doc, profile) = match self.ctx.mode() {
            AccessMode::Lazy => {
                let v = Arc::new(VirtualResult::new(&exec_plan, Arc::clone(&self.ctx))?);
                let profile = Arc::clone(v.profile());
                (ResultDoc::Lazy(v), profile)
            }
            AccessMode::Eager => {
                let profile = Arc::new(ExecProfile::new());
                let d = eager::evaluate_profiled(&exec_plan, &self.ctx, Some(&profile))?;
                (ResultDoc::Eager(Arc::new(d)), profile)
            }
        };
        // Handing the (virtual) result root to the client is the
        // protocol's implicit getRoot — a navigation command like d/r.
        self.ctx.stats().inc(Counter::NavCommands);
        let root = doc.nav().root();
        self.results.push(ResultInfo {
            exec_plan,
            logical_plan,
            naive_plan,
            trace,
            profile,
            view_fp: None,
            doc,
        });
        Ok(QNode {
            result: self.results.len() - 1,
            node: root,
        })
    }

    // ---- navigation (Section 2's command set) --------------------------

    /// `d(p)`: the first child, or `Ok(None)` for a leaf. In a lazy
    /// session this is the command that pulls from the sources, so a
    /// backend failure that retries could not fix surfaces *here* as
    /// [`MixError::Backend`] — already-materialized siblings stay
    /// readable. Wrapper over [`Command::D`].
    pub fn d(&mut self, p: QNode) -> Result<Option<QNode>> {
        match self.dispatch(Command::D { p: wire(p) }) {
            Reply::Step(n) => Ok(n.map(unwire)),
            other => Err(reply_err(other, "d")),
        }
    }

    fn d_impl(&self, p: QNode) -> Result<Option<QNode>> {
        let _span = self.ctx.tracer.span("cmd:d", &[]);
        Ok(self.results[p.result]
            .doc
            .nav()
            .try_first_child(p.node)?
            .map(|n| QNode {
                result: p.result,
                node: n,
            }))
    }

    /// `r(p)`: the right sibling, or `Ok(None)`. Fallible for the same
    /// reason as [`QdomSession::d`]. Wrapper over [`Command::R`].
    pub fn r(&mut self, p: QNode) -> Result<Option<QNode>> {
        match self.dispatch(Command::R { p: wire(p) }) {
            Reply::Step(n) => Ok(n.map(unwire)),
            other => Err(reply_err(other, "r")),
        }
    }

    fn r_impl(&self, p: QNode) -> Result<Option<QNode>> {
        let _span = self.ctx.tracer.span("cmd:r", &[]);
        Ok(self.results[p.result]
            .doc
            .nav()
            .try_next_sibling(p.node)?
            .map(|n| QNode {
                result: p.result,
                node: n,
            }))
    }

    /// `fl(p)`: the element label (`Ok(None)` for a text leaf).
    /// Wrapper over [`Command::Fl`].
    pub fn fl(&mut self, p: QNode) -> Result<Option<Name>> {
        match self.dispatch(Command::Fl { p: wire(p) }) {
            Reply::Label(l) => Ok(l),
            other => Err(reply_err(other, "fl")),
        }
    }

    fn fl_impl(&self, p: QNode) -> Result<Option<Name>> {
        let _span = self.ctx.tracer.span("cmd:fl", &[]);
        self.results[p.result].doc.nav().try_label(p.node)
    }

    /// `fv(p)`: the leaf value (`Ok(None)` for an element). Wrapper
    /// over [`Command::Fv`].
    pub fn fv(&mut self, p: QNode) -> Result<Option<Value>> {
        match self.dispatch(Command::Fv { p: wire(p) }) {
            Reply::Value(v) => Ok(v),
            other => Err(reply_err(other, "fv")),
        }
    }

    fn fv_impl(&self, p: QNode) -> Result<Option<Value>> {
        let _span = self.ctx.tracer.span("cmd:fv", &[]);
        self.results[p.result].doc.nav().try_value(p.node)
    }

    /// The node's vertex id.
    pub fn oid(&self, p: QNode) -> Oid {
        self.results[p.result].doc.nav().oid(p.node)
    }

    /// The decontextualization payload of a node.
    pub fn context(&self, p: QNode) -> NodeContext {
        match &self.results[p.result].doc {
            ResultDoc::Lazy(v) => v.context(p.node),
            ResultDoc::Eager(d) => {
                let mut ancestors = Vec::new();
                let mut cur = d.parent(p.node);
                while let Some(a) = cur {
                    if a == d.root_ref() {
                        break;
                    }
                    ancestors.push(d.oid(a));
                    cur = d.parent(a);
                }
                NodeContext {
                    oid: d.oid(p.node),
                    ancestors,
                }
            }
        }
    }

    /// Export a query result as a navigable source for *another*
    /// mediator ("a MIX mediator can be such a source to another MIX
    /// mediator", Section 4), renamed to `name`. Navigation commands
    /// the upper mediator issues propagate into this (lazy) result.
    pub fn export_result(&self, p: QNode, name: &str) -> Arc<dyn NavDoc> {
        let inner: Arc<dyn NavDoc> = match &self.results[p.result].doc {
            ResultDoc::Lazy(v) => Arc::clone(v) as Arc<dyn NavDoc>,
            ResultDoc::Eager(d) => Arc::clone(d) as Arc<dyn NavDoc>,
        };
        Arc::new(mix_xml::RenamedDoc::new(inner, name))
    }

    /// Render the subtree under `p` (paper-figure tree style). Forces
    /// the subtree — a debugging/verification helper, not part of the
    /// QDOM protocol. Wrapper over [`Command::Render`]; panics on a
    /// stale handle (in-process callers only hold handles this session
    /// minted).
    pub fn render(&mut self, p: QNode) -> String {
        match self.dispatch(Command::Render { p: wire(p) }) {
            Reply::Text(t) => t,
            other => panic!("{}", reply_err(other, "render")),
        }
    }

    fn render_impl(&self, p: QNode) -> String {
        mix_xml::print::render_tree(self.results[p.result].doc.nav(), p.node)
    }

    /// EXPLAIN (ANALYZE) for the query that produced `p`'s result: the
    /// naive logical plan, the optimized (pre-SQL-split) plan, and the
    /// executed physical plan annotated with what each operator has
    /// actually done so far — pulls, tuples, kernel choices, pushed
    /// SQL. In a lazy session the counts grow as navigation proceeds;
    /// un-demanded operators show `[never pulled]`. Wrapper over
    /// [`Command::Explain`]; panics on a stale handle.
    pub fn explain(&mut self, p: QNode) -> String {
        match self.dispatch(Command::Explain { p: wire(p) }) {
            Reply::Text(t) => t,
            other => panic!("{}", reply_err(other, "explain")),
        }
    }

    fn explain_impl(&self, p: QNode) -> String {
        let info = &self.results[p.result];
        format!(
            "== logical plan ==\n{}== optimized plan ==\n{}== physical plan ==\n{}",
            info.naive_plan.render(),
            info.logical_plan.render(),
            render_annotated(&info.exec_plan, &info.profile),
        )
    }

    /// Collect the children of `p` via `d`/`r` navigation (forces
    /// them). Wrapper over [`Command::Children`].
    pub fn children(&mut self, p: QNode) -> Result<Vec<QNode>> {
        match self.dispatch(Command::Children { p: wire(p) }) {
            Reply::Nodes(ns) => Ok(ns.into_iter().map(unwire).collect()),
            other => Err(reply_err(other, "children")),
        }
    }

    fn children_impl(&self, p: QNode) -> Result<Vec<QNode>> {
        let mut out = Vec::new();
        let mut cur = self.d_impl(p)?;
        while let Some(c) = cur {
            out.push(c);
            cur = self.r_impl(c)?;
        }
        Ok(out)
    }

    /// Count the children of `p` via `d`/`r` navigation. Wrapper over
    /// [`Command::ChildCount`].
    pub fn child_count(&mut self, p: QNode) -> Result<usize> {
        match self.dispatch(Command::ChildCount { p: wire(p) }) {
            Reply::Count(n) => Ok(n as usize),
            other => Err(reply_err(other, "child_count")),
        }
    }

    fn child_count_impl(&self, p: QNode) -> Result<usize> {
        let mut n = 0;
        let mut cur = self.d_impl(p)?;
        while let Some(c) = cur {
            n += 1;
            cur = self.r_impl(c)?;
        }
        Ok(n)
    }

    /// Bulk navigation: up to `max_rows` children of `p` (0 = no cap)
    /// as one columnar block of `(node, label, value)` rows, so a wire
    /// client walks a wide sibling list in one round trip instead of
    /// `3·n`. Wrapper over [`Command::Export`].
    pub fn export(&mut self, p: QNode, max_rows: u32) -> Result<ColumnBlock> {
        match self.dispatch(Command::Export {
            p: wire(p),
            max_rows,
        }) {
            Reply::Block(b) => Ok(b),
            other => Err(reply_err(other, "export")),
        }
    }

    fn export_impl(&self, p: QNode, max_rows: u32) -> Result<ColumnBlock> {
        let _span = self.ctx.tracer.span("cmd:export", &[]);
        let nav = self.results[p.result].doc.nav();
        let mut block = ColumnBlock::new(3);
        let mut cur = nav.try_first_child(p.node)?;
        while let Some(c) = cur {
            if max_rows != 0 && block.len() >= max_rows as usize {
                break;
            }
            let label = nav
                .try_label(c)?
                .map(|n| Value::str(n.as_str()))
                .unwrap_or(Value::Null);
            let value = nav.try_value(c)?.unwrap_or(Value::Null);
            block.push_row(vec![Value::Int(c.0 as i64), label, value]);
            cur = nav.try_next_sibling(c)?;
        }
        Ok(block)
    }

    /// Snapshot the session's work counters as `(label, value)` pairs.
    /// Wrapper over [`Command::Stats`].
    pub fn stats(&mut self) -> Vec<(String, u64)> {
        match self.dispatch(Command::Stats) {
            Reply::Stats(s) => s,
            other => panic!("{}", reply_err(other, "stats")),
        }
    }

    fn stats_impl(&self) -> Vec<(String, u64)> {
        // Mediator-side counters plus the per-source backend counters
        // (shipped blocks/tuples, faults, retries), summed over the
        // catalog's databases — so a wire client observes the session's
        // whole data path, not just the mediator half. Source counters
        // are shared across clones of a `Database`: sessions whose
        // mediators share one catalog see combined source totals.
        let snap = self.ctx.stats().snapshot();
        let sources: Vec<_> = self
            .ctx
            .catalog()
            .databases()
            .map(|db| db.stats().snapshot())
            .collect();
        Counter::ALL
            .iter()
            .map(|&c| {
                let v = snap.get(c) + sources.iter().map(|s| s.get(c)).sum::<u64>();
                (c.label().to_string(), v)
            })
            .collect()
    }
}

fn copy_subtree_children(
    nav: &dyn NavDoc,
    from: NodeRef,
    doc: &mut Document,
    to: NodeRef,
    ctx: &EvalContext,
) -> Result<()> {
    let mut cur = nav.try_first_child(from)?;
    while let Some(c) = cur {
        ctx.stats().inc(Counter::NodesBuilt);
        if let Some(v) = nav.try_value(c)? {
            doc.add_text_with_oid(to, v.clone(), Oid::lit(v));
        } else if let Some(label) = nav.try_label(c)? {
            let new = doc.add_elem_with_oid(to, label, nav.oid(c));
            copy_subtree_children(nav, c, doc, new, ctx)?;
        }
        cur = nav.try_next_sibling(c)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mediator::MediatorOptions;
    use mix_wrapper::fig2_catalog;

    const Q1: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
         WHERE $C/id/data() = $O/cid/data() \
         RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";

    fn mediator(optimize: bool, access: AccessMode) -> Mediator {
        let (cat, _) = fig2_catalog();
        Mediator::with_options(
            cat,
            MediatorOptions::builder()
                .access(access)
                .optimize(optimize)
                .build(),
        )
    }

    #[test]
    fn example_2_1_full_session() {
        // The paper's Example 2.1, end to end.
        let m = mediator(true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        let p1 = s.d(p0).unwrap().unwrap();
        assert_eq!(s.fl(p1).unwrap().unwrap().as_str(), "CustRec");
        let p2 = s.r(p1).unwrap().unwrap();
        assert_eq!(s.fl(p2).unwrap().unwrap().as_str(), "CustRec");
        let p3 = s.d(p1).unwrap().unwrap();
        assert_eq!(s.fl(p3).unwrap().unwrap().as_str(), "customer");
        // p4 = q(Q2, p0): refine from the root (composition). The
        // paper's Q2 wants names starting with "A"; our Fig. 2 data has
        // DEFCorp./XYZInc., so filter below "E" to keep DEF345.
        let p4 = s
            .q(
                "FOR $P IN document(root)/CustRec WHERE $P/customer/name < \"E\" RETURN $P",
                p0,
            )
            .unwrap();
        let p5 = s.d(p4).unwrap().unwrap();
        assert_eq!(s.fl(p5).unwrap().unwrap().as_str(), "CustRec");
        assert!(s.render(p5).contains("DEFCorp."), "{}", s.render(p5));
        assert!(s.r(p5).unwrap().is_none()); // XYZInc. filtered out
                                             // p6..p8: navigate into customer and OrderInfo children.
        let p6 = s.d(p5).unwrap().unwrap();
        assert_eq!(s.fl(p6).unwrap().unwrap().as_str(), "customer");
        let p7 = s.r(p6).unwrap().unwrap();
        assert_eq!(s.fl(p7).unwrap().unwrap().as_str(), "OrderInfo");
        // p9 = q(Q3, p5): in-place query from the CustRec node
        // (decontextualization). DEF345's only order has value 500.
        let p9 = s
            .q(
                "FOR $O IN document(root)/OrderInfo WHERE $O/order/value < 600 RETURN $O",
                p5,
            )
            .unwrap();
        assert_eq!(s.child_count(p9).unwrap(), 1);
        let oi = s.d(p9).unwrap().unwrap();
        assert_eq!(s.fl(oi).unwrap().unwrap().as_str(), "OrderInfo");
        assert!(s.render(oi).contains("value = 500"), "{}", s.render(oi));
    }

    #[test]
    fn q2_exact_paper_constant_yields_empty() {
        // The literal Q2 (`name < "B"`) matches nothing in Fig. 2.
        let m = mediator(true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        let p4 = s
            .q(
                "FOR $P IN document(root)/CustRec WHERE $P/customer/name < \"B\" RETURN $P",
                p0,
            )
            .unwrap();
        assert!(s.d(p4).unwrap().is_none());
    }

    #[test]
    fn decontextualized_query_pushes_key_predicate_to_sql() {
        let m = mediator(true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        let p1 = s.d(p0).unwrap().unwrap(); // CustRec for DEF345 (key order)
        assert_eq!(s.oid(p1).to_string(), "&($V,f(&DEF345))");
        let p9 = s
            .q(
                "FOR $O IN document(root)/OrderInfo WHERE $O/order/value < 600 RETURN $O",
                p1,
            )
            .unwrap();
        let info = s.result_info(p9);
        let text = info.exec_plan.render();
        assert!(text.contains("'DEF345'"), "{text}");
        assert!(text.contains("rQ("), "{text}");
        assert_eq!(s.child_count(p9).unwrap(), 1);
    }

    #[test]
    fn lazy_and_eager_sessions_agree() {
        for optimize in [false, true] {
            let ml = mediator(optimize, AccessMode::Lazy);
            let me = mediator(optimize, AccessMode::Eager);
            let mut sl = ml.session();
            let mut se = me.session();
            let pl = sl.query(Q1).unwrap();
            let pe = se.query(Q1).unwrap();
            assert_eq!(sl.render(pl), se.render(pe), "optimize={optimize}");
        }
    }

    #[test]
    fn optimized_and_naive_results_agree() {
        let mo = mediator(true, AccessMode::Lazy);
        let mn = mediator(false, AccessMode::Lazy);
        let mut so = mo.session();
        let mut sn = mn.session();
        let po = so.query(Q1).unwrap();
        let pn = sn.query(Q1).unwrap();
        assert_eq!(so.render(po), sn.render(pn));
        // And for the composed query.
        let q2 = "FOR $P IN document(root)/CustRec WHERE $P/customer/name < \"E\" RETURN $P";
        let po2 = so.q(q2, po).unwrap();
        let pn2 = sn.q(q2, pn).unwrap();
        assert_eq!(so.render(po2), sn.render(pn2));
    }

    #[test]
    fn views_compose_by_name() {
        let (cat, _) = fig2_catalog();
        let mut m = Mediator::new(cat);
        m.define_view("custorders", Q1).unwrap();
        let mut s = m.session();
        let p = s
            .query(
                "FOR $R IN document(custorders)/CustRec $S IN $R/OrderInfo \
                 WHERE $S/order/value > 20000 RETURN $R",
            )
            .unwrap();
        // Only XYZ123 has an order above 20000.
        assert_eq!(s.child_count(p).unwrap(), 1);
        let rec = s.d(p).unwrap().unwrap();
        assert!(s.render(rec).contains("XYZInc."), "{}", s.render(rec));
        // The optimized plan pushed a single SQL self-join.
        let text = s.result_info(p).exec_plan.render();
        assert_eq!(text.matches("rQ(").count(), 1, "{text}");
        assert!(text.contains("SELECT DISTINCT"), "{text}");
    }

    /// Strip oids (identity) from a tree rendering, keeping structure
    /// and content — plan transformations may rename skolem variable
    /// tags without changing the result's content.
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

    #[test]
    fn q_materialized_baseline_agrees_with_decontext() {
        let m = mediator(true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        let p1 = s.d(p0).unwrap().unwrap();
        let q3 = "FOR $O IN document(root)/OrderInfo WHERE $O/order/value < 600 RETURN $O";
        let a = s.q(q3, p1).unwrap();
        let b = s.q_materialized(q3, p1).unwrap();
        assert_eq!(content_only(&s.render(a)), content_only(&s.render(b)));
    }

    #[test]
    fn plan_cache_reuses_sibling_plans() {
        let m = mediator(true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        let p1 = s.d(p0).unwrap().unwrap(); // CustRec for DEF345
        let p2 = s.r(p1).unwrap().unwrap(); // CustRec for XYZ123
        let q3 = "FOR $O IN document(root)/OrderInfo WHERE $O/order/value > 100 RETURN $O";
        let a = s.q(q3, p1).unwrap();
        assert_eq!(s.ctx().stats().get(Counter::PlanCacheMisses), 1);
        assert_eq!(s.ctx().stats().get(Counter::PlanCacheHits), 0);
        let b = s.q(q3, p2).unwrap();
        assert_eq!(s.ctx().stats().get(Counter::PlanCacheHits), 1);
        // The instantiated plan carries the sibling's key, not the
        // template's.
        let text = s.result_info(b).exec_plan.render();
        assert!(text.contains("'XYZ123'"), "{text}");
        assert!(!text.contains("'DEF345'"), "{text}");
        // DEF345 has one order over 100 (500); XYZ123 has two.
        assert_eq!(s.child_count(a).unwrap(), 1);
        assert_eq!(s.child_count(b).unwrap(), 2);
        // The cached instantiation matches what a cold session computes.
        let m2 = mediator(true, AccessMode::Lazy);
        let mut s2 = m2.session();
        let c0 = s2.query(Q1).unwrap();
        let c1 = s2.d(c0).unwrap().unwrap();
        let c2 = s2.r(c1).unwrap().unwrap();
        let cold = s2.q(q3, c2).unwrap();
        assert_eq!(content_only(&s.render(b)), content_only(&s2.render(cold)));
    }

    #[test]
    fn plan_cache_hit_on_repeated_node() {
        // The same node twice: identity substitution, same answer.
        let m = mediator(true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        let p1 = s.d(p0).unwrap().unwrap();
        let q3 = "FOR $O IN document(root)/OrderInfo WHERE $O/order/value < 600 RETURN $O";
        let a = s.q(q3, p1).unwrap();
        let b = s.q(q3, p1).unwrap();
        assert_eq!(s.ctx().stats().get(Counter::PlanCacheHits), 1);
        assert_eq!(content_only(&s.render(a)), content_only(&s.render(b)));
    }

    #[test]
    fn plan_cache_cap_evicts_lru() {
        // With a one-entry session cache, a second query class evicts
        // the first: re-issuing the first class misses again.
        let (cat, _) = fig2_catalog();
        let opts = MediatorOptions::builder().plan_cache_cap(1).build();
        let m = Mediator::with_options(cat, opts);
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        let p1 = s.d(p0).unwrap().unwrap();
        let qa = "FOR $O IN document(root)/OrderInfo WHERE $O/order/value < 600 RETURN $O";
        let qb = "FOR $O IN document(root)/OrderInfo WHERE $O/order/value > 100 RETURN $O";
        s.q(qa, p1).unwrap(); // miss, cached
        s.q(qb, p1).unwrap(); // miss, evicts qa's template
        s.q(qa, p1).unwrap(); // miss again — it was evicted
        assert_eq!(s.ctx().stats().get(Counter::PlanCacheMisses), 3);
        assert_eq!(s.ctx().stats().get(Counter::PlanCacheHits), 0);
        // A roomier cache turns the third issue into a hit.
        let (cat2, _) = fig2_catalog();
        let m2 = Mediator::with_options(cat2, MediatorOptions::builder().plan_cache_cap(2).build());
        let mut s2 = m2.session();
        let c0 = s2.query(Q1).unwrap();
        let c1 = s2.d(c0).unwrap().unwrap();
        s2.q(qa, c1).unwrap();
        s2.q(qb, c1).unwrap();
        s2.q(qa, c1).unwrap();
        assert_eq!(s2.ctx().stats().get(Counter::PlanCacheHits), 1);
    }

    #[test]
    fn shared_plan_cache_hits_across_sessions() {
        use crate::plancache::SharedPlanCache;
        let shared = Arc::new(SharedPlanCache::default());
        let (cat, _) = fig2_catalog();
        let opts = MediatorOptions::builder()
            .shared_plan_cache(Arc::clone(&shared))
            .build();
        let m = Mediator::with_options(cat, opts);
        let q3 = "FOR $O IN document(root)/OrderInfo WHERE $O/order/value < 600 RETURN $O";
        // Session 1 compiles the template.
        let mut s1 = m.session();
        let p0 = s1.query(Q1).unwrap();
        let p1 = s1.d(p0).unwrap().unwrap();
        let a = s1.q(q3, p1).unwrap();
        assert_eq!(s1.ctx().stats().get(Counter::PlanCacheMisses), 1);
        // Session 2's *first* issue of the same query class hits the
        // template session 1 compiled, via a sibling node's keys.
        let mut s2 = m.session();
        let c0 = s2.query(Q1).unwrap();
        let c1 = s2.d(c0).unwrap().unwrap();
        let c2 = s2.r(c1).unwrap().unwrap();
        let b = s2.q(q3, c2).unwrap();
        assert_eq!(s2.ctx().stats().get(Counter::PlanCacheHits), 1);
        assert_eq!(s2.ctx().stats().get(Counter::PlanCacheMisses), 0);
        // The shared cache's own counters carry the cross-session rate.
        assert!(shared.stats().get(Counter::PlanCacheHits) >= 1);
        assert!(!shared.is_empty());
        // And the instantiation is correct: same answers a cold,
        // uncached session computes.
        let mc = mediator(true, AccessMode::Lazy);
        let mut sc = mc.session();
        let d0 = sc.query(Q1).unwrap();
        let d1 = sc.d(d0).unwrap().unwrap();
        let d2 = sc.r(d1).unwrap().unwrap();
        let cold_a = sc.q(q3, d1).unwrap();
        let cold_b = sc.q(q3, d2).unwrap();
        assert_eq!(
            content_only(&s1.render(a)),
            content_only(&sc.render(cold_a))
        );
        assert_eq!(
            content_only(&s2.render(b)),
            content_only(&sc.render(cold_b))
        );
    }

    #[test]
    fn plan_cache_guard_refuses_key_constant_in_query() {
        // The query's own WHERE clause mentions DEF345 — the template's
        // slot marker would be ambiguous, so the plan must not be
        // cached, and the sibling query must recompute (a substituting
        // cache would wrongly rewrite the user's constant to XYZ123).
        let m = mediator(true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        let p1 = s.d(p0).unwrap().unwrap(); // DEF345
        let p2 = s.r(p1).unwrap().unwrap(); // XYZ123
        let q = "FOR $O IN document(root)/OrderInfo \
                 WHERE $O/order/cid/data() = \"DEF345\" RETURN $O";
        let a = s.q(q, p1).unwrap();
        assert_eq!(s.child_count(a).unwrap(), 1); // DEF345's own order
        let b = s.q(q, p2).unwrap();
        assert_eq!(s.ctx().stats().get(Counter::PlanCacheHits), 0);
        assert_eq!(s.ctx().stats().get(Counter::PlanCacheMisses), 2);
        // XYZ123's orders have cid XYZ123, so the filter keeps nothing.
        assert_eq!(s.child_count(b).unwrap(), 0);
    }

    #[test]
    fn plan_cache_works_unoptimized_and_eager() {
        for (optimize, access) in [
            (false, AccessMode::Lazy),
            (true, AccessMode::Eager),
            (false, AccessMode::Eager),
        ] {
            let m = mediator(optimize, access);
            let mut s = m.session();
            let p0 = s.query(Q1).unwrap();
            let p1 = s.d(p0).unwrap().unwrap();
            let p2 = s.r(p1).unwrap().unwrap();
            let q3 = "FOR $O IN document(root)/OrderInfo WHERE $O/order/value > 100 RETURN $O";
            let a = s.q(q3, p1).unwrap();
            let b = s.q(q3, p2).unwrap();
            assert_eq!(
                s.ctx().stats().get(Counter::PlanCacheHits),
                1,
                "optimize={optimize}"
            );
            assert_eq!(
                s.child_count(a).unwrap(),
                1,
                "optimize={optimize} access={access:?}"
            );
            assert_eq!(
                s.child_count(b).unwrap(),
                2,
                "optimize={optimize} access={access:?}"
            );
        }
    }

    #[test]
    fn fv_and_oid_commands() {
        let m = mediator(true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s
            .query("FOR $C IN source(&root1)/customer RETURN $C")
            .unwrap();
        let cust = s.d(p0).unwrap().unwrap();
        assert_eq!(s.oid(cust).to_string(), "&DEF345");
        assert!(s.fv(cust).unwrap().is_none());
        let id_field = s.d(cust).unwrap().unwrap();
        let leaf = s.d(id_field).unwrap().unwrap();
        assert_eq!(s.fv(leaf).unwrap(), Some(Value::str("DEF345")));
        assert!(s.d(leaf).unwrap().is_none());
    }

    #[test]
    fn stale_handles_error_instead_of_panicking() {
        let m = mediator(true, AccessMode::Lazy);
        let mut s = m.session();
        // Before any query, every handle is stale.
        let bogus = WireNode { result: 0, node: 0 };
        for cmd in [
            Command::D { p: bogus },
            Command::R { p: bogus },
            Command::Fl { p: bogus },
            Command::Fv { p: bogus },
            Command::Children { p: bogus },
            Command::ChildCount { p: bogus },
            Command::Render { p: bogus },
            Command::Explain { p: bogus },
            Command::Export {
                p: bogus,
                max_rows: 0,
            },
            Command::Q {
                text: "FOR $X IN document(root)/a RETURN $X".into(),
                from: bogus,
            },
        ] {
            let name = cmd.name();
            match s.dispatch(cmd) {
                Reply::Err(MixError::Plan(_)) => {}
                other => panic!("{name} on a stale handle answered {other:?}"),
            }
        }
        let p0 = s.query(Q1).unwrap();
        // A node id past the materialization bound was never handed out.
        let forged_node = WireNode {
            result: 0,
            node: 999_999,
        };
        match s.dispatch(Command::Fl { p: forged_node }) {
            Reply::Err(MixError::Plan(msg)) => assert!(msg.contains("node"), "{msg}"),
            other => panic!("forged node answered {other:?}"),
        }
        // A result index the session never produced.
        let forged_result = WireNode { result: 7, node: 0 };
        match s.dispatch(Command::D { p: forged_result }) {
            Reply::Err(MixError::Plan(msg)) => assert!(msg.contains("result"), "{msg}"),
            other => panic!("forged result answered {other:?}"),
        }
        // The session stays fully usable after rejected commands.
        assert!(s.d(p0).unwrap().is_some());
        // The in-process named methods share the validation: a QNode
        // from a different session errors rather than panicking.
        let foreign = QNode {
            result: 9,
            node: NodeRef(0),
        };
        assert!(matches!(s.fl(foreign), Err(MixError::Plan(_))));
        assert!(matches!(
            s.q("FOR $X IN document(root)/a RETURN $X", foreign),
            Err(MixError::Plan(_))
        ));
    }

    #[test]
    fn export_ships_children_as_one_block() {
        let m = mediator(true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s
            .query("FOR $C IN source(&root1)/customer RETURN $C")
            .unwrap();
        let cust = s.d(p0).unwrap().unwrap();
        // The fields of one customer: elements with labels, no values.
        let block = s.export(cust, 0).unwrap();
        let kids = s.children(cust).unwrap();
        assert_eq!(block.len(), kids.len());
        assert_eq!(block.arity(), 3);
        for (i, k) in kids.iter().enumerate() {
            assert_eq!(block.value_at(i, 0), Value::Int(k.node.0 as i64));
            let label = s.fl(*k).unwrap().map(|n| Value::str(n.as_str()));
            assert_eq!(block.value_at(i, 1), label.unwrap_or(Value::Null));
        }
        // The row cap applies.
        let capped = s.export(cust, 1).unwrap();
        assert_eq!(capped.len(), 1);
        // Leaves under a field carry values in column 2.
        let id_field = s.d(cust).unwrap().unwrap();
        let leaves = s.export(id_field, 0).unwrap();
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves.value_at(0, 1), Value::Null); // text leaf: no label
        assert_eq!(leaves.value_at(0, 2), Value::str("DEF345"));
    }

    #[test]
    fn stats_command_snapshots_counters() {
        let m = mediator(true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        let _ = s.child_count(p0).unwrap();
        let stats = s.stats();
        assert_eq!(stats.len(), Counter::ALL.len());
        let get = |label: &str| {
            stats
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(get("nav_commands") >= 1, "{stats:?}");
        assert!(get("nodes_built") >= 1, "{stats:?}");
    }

    #[test]
    fn stray_document_root_is_rejected() {
        let m = mediator(true, AccessMode::Lazy);
        let mut s = m.session();
        assert!(s.query("FOR $X IN document(root)/a RETURN $X").is_err());
    }
}
