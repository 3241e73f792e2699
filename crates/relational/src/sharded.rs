//! Sharded multi-backend federation.
//!
//! [`ShardedDatabase`] partitions an existing [`Database`]'s tables
//! across N shard instances by a declared *shard key* per table
//! ([`ShardSpec`]), using either hash or range partitioning
//! ([`ShardScheme`]). At execute time each statement is *routed*:
//!
//! * An equi-conjunct pinning the shard key (`WHERE c.id = 'XYZ123'`,
//!   possibly through a chain of shard-key equalities) sends the
//!   statement to exactly **one** shard — the zero-overhead path.
//! * Otherwise the statement *scatters* to every shard; the shard
//!   statements are widened with key columns so each shard's `ORDER BY`
//!   is a total order, and the mediator gathers them through a k-way
//!   ordered merge (`O(rows)` merge cost, one comparison per delivered
//!   row against ≤ N buffered heads).
//!
//! Equivalence to the unsharded baseline: every mediator-generated SQL
//! statement orders by the key columns of its exported tuple variables,
//! so `ORDER BY` ties are either key-distinct (no tie) or exact
//! duplicate visible rows — appending the remaining key columns only
//! refines *within* ties and cannot reorder distinct visible rows.
//! `DISTINCT` (semijoin) statements are not widened; the merge breaks
//! comparator ties on the full row and drops adjacent duplicates, which
//! is exact because the pushed-down semijoin `ORDER BY` carries the
//! kept table's key (the key determines the row). Statements with *no*
//! `ORDER BY` merge into key order, which matches the baseline only
//! when the unsharded base tables are key-sorted — [`partition`]
//! key-sorts every shard, and the mediator never emits orderless SQL.
//!
//! Multi-table statements scatter only when their FROM entries are
//! *co-partitioned*: connected by shard-key-to-shard-key equi-conjuncts
//! (matching rows then live in the same shard). Anything else — and any
//! statement the router cannot analyze — falls back to `whole`, the
//! retained unsharded original, so the federation layer never changes
//! results, only where they are computed.
//!
//! [`partition`]: ShardedDatabase::partition

use crate::ast::{ColRef, Operand, SelectItem, SelectStmt};
use crate::db::Database;
use crate::exec::Cursor;
use crate::fault::FaultPolicy;
use crate::parser::parse_sql;
use crate::table::Table;
use mix_common::{CmpOp, Counter, MixError, Name, Result, Stats, Value};
use mix_obs::TracerHandle;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Declares the shard column of each table. Every table of a
/// partitioned database must have one (co-located reference tables
/// declare their *foreign* key into the owning table, so referencing
/// rows land in their owner's shard).
#[derive(Debug, Clone, Default)]
pub struct ShardSpec {
    cols: HashMap<Name, Name>,
}

impl ShardSpec {
    /// An empty spec.
    pub fn new() -> ShardSpec {
        ShardSpec::default()
    }

    /// Declare `col` as `table`'s shard column (builder style).
    pub fn with(mut self, table: impl Into<Name>, col: impl Into<Name>) -> ShardSpec {
        self.cols.insert(table.into(), col.into());
        self
    }

    /// The declared shard column of `table`, if any.
    pub fn shard_col(&self, table: &str) -> Option<&Name> {
        self.cols.get(table)
    }
}

/// How shard-key values map to shards.
#[derive(Debug, Clone)]
pub enum ShardScheme {
    /// `shard = stable_hash(value) % shards`. The hash is a fixed
    /// FNV-1a over a canonical byte encoding (see [`stable_value_hash`])
    /// — *not* the std `DefaultHasher` — so layouts are reproducible
    /// across runs and builds.
    Hash {
        /// Number of shards (≥ 1).
        shards: usize,
    },
    /// Range partitioning by `total_cmp`: shard `i` holds values below
    /// `bounds[i]` (and above `bounds[i-1]`); values ≥ the last bound
    /// go to the final shard. `bounds` must be sorted ascending;
    /// `bounds.len() + 1` shards result.
    Range {
        /// Ascending, exclusive upper bounds of all but the last shard.
        bounds: Vec<Value>,
    },
}

impl ShardScheme {
    /// Number of shards this scheme produces.
    pub fn shard_count(&self) -> usize {
        match self {
            ShardScheme::Hash { shards } => *shards,
            ShardScheme::Range { bounds } => bounds.len() + 1,
        }
    }

    /// The shard a key value belongs to.
    pub fn shard_of(&self, v: &Value) -> usize {
        match self {
            ShardScheme::Hash { shards } => {
                (stable_value_hash(v) % (*shards).max(1) as u64) as usize
            }
            ShardScheme::Range { bounds } => bounds
                .iter()
                .position(|b| v.total_cmp(b).is_lt())
                .unwrap_or(bounds.len()),
        }
    }

    /// Compute range boundaries from the data: the sorted distinct
    /// union of every declared shard column's values, split into
    /// `shards` even runs. Keyed and referencing tables drawing from
    /// the same id domain therefore co-partition under the resulting
    /// scheme. Degenerate domains may yield fewer than `shards` shards.
    pub fn range_from(db: &Database, spec: &ShardSpec, shards: usize) -> Result<ShardScheme> {
        let mut vals: Vec<Value> = Vec::new();
        for t in db.table_names() {
            let Some(col) = spec.shard_col(t.as_str()) else {
                continue;
            };
            let table = db.table(t.as_str())?;
            let ci = table
                .schema()
                .col_index(col.as_str())
                .ok_or_else(|| MixError::unknown("shard column", format!("{t}.{col}")))?;
            vals.extend(table.rows().iter().map(|r| r[ci].clone()));
        }
        vals.sort_by(|a, b| a.total_cmp(b));
        vals.dedup_by(|a, b| a.total_cmp(b).is_eq());
        let mut bounds: Vec<Value> = Vec::new();
        for i in 1..shards.max(1) {
            let pos = vals.len() * i / shards;
            if pos > 0 && pos < vals.len() {
                let b = vals[pos].clone();
                if bounds.last().is_none_or(|l| l.total_cmp(&b).is_lt()) {
                    bounds.push(b);
                }
            }
        }
        Ok(ShardScheme::Range { bounds })
    }
}

/// Stable, process-independent hash of a [`Value`] (FNV-1a over a
/// type-tagged canonical byte encoding). Values that compare equal
/// under [`Value::total_cmp`] across the `Int`/`Float` divide hash
/// equal too (`Int(2)` vs `Float(2.0)`), so a predicate constant of
/// either type routes to the shard holding the data.
pub fn stable_value_hash(v: &Value) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    fn fnv(h: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }
    match v {
        Value::Null => fnv(OFFSET, &[0]),
        Value::Bool(b) => fnv(OFFSET, &[1, u8::from(*b)]),
        Value::Int(i) => fnv(fnv(OFFSET, &[2]), &i.to_le_bytes()),
        Value::Float(f) => {
            if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                return stable_value_hash(&Value::Int(*f as i64));
            }
            fnv(fnv(OFFSET, &[3]), &f.to_bits().to_le_bytes())
        }
        Value::Str(s) => fnv(fnv(OFFSET, &[4]), s.as_bytes()),
    }
}

/// Where the router decided a statement runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Pinned to exactly one shard.
    One(usize),
    /// Every shard, gathered through the ordered merge.
    Scatter,
    /// The retained unsharded original (non-co-partitioned joins,
    /// unanalyzable statements, error paths).
    Whole,
}

/// A sharded relational source: N shard [`Database`]s behind one
/// server name, sharing one aggregate [`Stats`], plus the retained
/// unsharded original as a correctness fallback.
///
/// Everything is immutable after [`ShardedDatabase::partition`]
/// (per-shard knobs like fault policies live inside each
/// [`Database`]'s own shared state), so the whole federation sits
/// behind one `Arc` and clones — catalog registration, session
/// snapshots — are O(1) regardless of shard count.
#[derive(Debug, Clone)]
pub struct ShardedDatabase {
    inner: Arc<ShardedInner>,
}

#[derive(Debug)]
struct ShardedInner {
    name: Name,
    shards: Vec<Database>,
    spec: ShardSpec,
    scheme: ShardScheme,
    whole: Database,
    stats: Stats,
}

impl ShardedDatabase {
    /// Partition `db` by `spec` under `scheme`. Every table must have a
    /// declared shard column; each shard's tables are key-sorted so
    /// orderless scans merge deterministically (for exact equivalence
    /// with the unsharded original on orderless statements, the
    /// original's tables should be key-sorted too — mediator-generated
    /// SQL always carries an `ORDER BY`, so this only matters for
    /// hand-written scans).
    pub fn partition(
        db: &Database,
        spec: ShardSpec,
        scheme: ShardScheme,
    ) -> Result<ShardedDatabase> {
        let n = scheme.shard_count();
        if n == 0 {
            return Err(MixError::invalid("shard layout needs at least one shard"));
        }
        let stats = Stats::new();
        let mut shards: Vec<Database> = (0..n)
            .map(|_| {
                let mut s = Database::new(db.name().clone());
                s.set_stats(stats.clone());
                s
            })
            .collect();
        for t in db.table_names() {
            let table = db.table(t.as_str())?;
            let col = spec
                .shard_col(t.as_str())
                .ok_or_else(|| MixError::unknown("shard column for table", t.as_str()))?;
            let ci = table
                .schema()
                .col_index(col.as_str())
                .ok_or_else(|| MixError::unknown("shard column", format!("{t}.{col}")))?;
            for s in &mut shards {
                s.create_table(t.clone(), table.schema().clone())?;
            }
            for row in table.rows() {
                let si = scheme.shard_of(&row[ci]);
                shards[si].insert(t.as_str(), row.clone())?;
            }
            for s in &mut shards {
                s.sort_table_by_key(t.as_str())?;
            }
        }
        let mut whole = db.clone();
        whole.set_stats(stats.clone());
        Ok(ShardedDatabase {
            inner: Arc::new(ShardedInner {
                name: db.name().clone(),
                shards,
                spec,
                scheme,
                whole,
                stats,
            }),
        })
    }

    /// The server name (shared by every shard).
    pub fn name(&self) -> &Name {
        &self.inner.name
    }

    /// The aggregate counters every shard (and the fallback) writes to.
    pub fn stats(&self) -> &Stats {
        &self.inner.stats
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// One shard instance (for per-shard fault injection / latency).
    pub fn shard(&self, i: usize) -> &Database {
        &self.inner.shards[i]
    }

    /// All shard instances.
    pub fn shards(&self) -> &[Database] {
        &self.inner.shards
    }

    /// The shard-column declaration.
    pub fn spec(&self) -> &ShardSpec {
        &self.inner.spec
    }

    /// The partitioning scheme.
    pub fn scheme(&self) -> &ShardScheme {
        &self.inner.scheme
    }

    /// Send every shard's (and the fallback's) events to `tracer`.
    pub fn set_tracer(&self, tracer: TracerHandle) {
        for s in &self.inner.shards {
            s.set_tracer(tracer.clone());
        }
        self.inner.whole.set_tracer(tracer);
    }

    /// Install a fault policy on every shard (use
    /// [`ShardedDatabase::shard`] to fault one shard only).
    pub fn set_fault_policy(&self, policy: Option<FaultPolicy>) {
        for s in &self.inner.shards {
            s.set_fault_policy(policy);
        }
    }

    /// The fault policy of shard 0 (the whole-backend view).
    pub fn fault_policy(&self) -> Option<FaultPolicy> {
        self.inner.shards[0].fault_policy()
    }

    /// Model every shard's round-trip time (use
    /// [`ShardedDatabase::shard`] for per-shard RTTs).
    pub fn set_latency_ms(&self, ms: Option<u64>) {
        for s in &self.inner.shards {
            s.set_latency_ms(ms);
        }
    }

    /// The modelled RTT of shard 0.
    pub fn latency_ms(&self) -> Option<u64> {
        self.inner.shards[0].latency_ms()
    }

    /// Schema/full-data view of a table (backed by the unsharded
    /// original — wrappers use this for schemas and key columns).
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.inner.whole.table(name)
    }

    /// Table names in the catalog (sorted).
    pub fn table_names(&self) -> Vec<Name> {
        self.inner.whole.table_names()
    }

    /// Identity of this backend for plan-cache keys: the source
    /// database's instance plus the full shard layout, so the same data
    /// under a different layout (or different data under the same
    /// layout) never shares a cached decontextualized plan.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.inner.whole.instance_id().hash(&mut h);
        self.inner.shards.len().hash(&mut h);
        let mut cols: Vec<(&str, &str)> = self
            .inner
            .spec
            .cols
            .iter()
            .map(|(t, c)| (t.as_str(), c.as_str()))
            .collect();
        cols.sort_unstable();
        cols.hash(&mut h);
        match &self.inner.scheme {
            ShardScheme::Hash { shards } => {
                0u8.hash(&mut h);
                shards.hash(&mut h);
            }
            ShardScheme::Range { bounds } => {
                1u8.hash(&mut h);
                for b in bounds {
                    stable_value_hash(b).hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// The EXPLAIN `shards=` attribute for `stmt`: `1/N` when routed,
    /// `N/N` when scattered, `whole` on the fallback path.
    pub fn shards_attr(&self, stmt: &SelectStmt) -> String {
        let n = self.inner.shards.len();
        match self.route(stmt) {
            Route::One(_) => format!("1/{n}"),
            Route::Scatter if self.scatter_plan(stmt).is_some() => format!("{n}/{n}"),
            _ => "whole".to_string(),
        }
    }

    /// Execute a parsed statement: route to one shard, scatter-gather
    /// across all of them, or fall back to the unsharded original.
    pub fn execute(&self, stmt: &SelectStmt) -> Result<Cursor> {
        match self.route(stmt) {
            Route::One(i) => {
                self.inner.stats.inc(Counter::ShardQueriesRouted);
                self.inner.stats.inc(Counter::ShardsTargeted);
                self.inner.shards[i].execute(stmt)
            }
            Route::Whole => self.inner.whole.execute(stmt),
            Route::Scatter => {
                let Some(plan) = self.scatter_plan(stmt) else {
                    return self.inner.whole.execute(stmt);
                };
                self.inner.stats.inc(Counter::ScatterMerges);
                self.inner
                    .stats
                    .add(Counter::ShardsTargeted, self.inner.shards.len() as u64);
                let children = self
                    .inner
                    .shards
                    .iter()
                    .map(|s| s.execute(&plan.stmt))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Cursor::merged(
                    children,
                    plan.keys,
                    plan.strip,
                    plan.dedup,
                    plan.arity,
                    self.inner.stats.clone(),
                    self.inner.shards[0].tracer(),
                ))
            }
        }
    }

    /// Parse and execute SQL text.
    pub fn execute_sql(&self, sql: &str) -> Result<Cursor> {
        self.execute(&parse_sql(sql)?)
    }

    /// Decide where `stmt` runs. Conservative: anything the analysis
    /// cannot prove shardable routes to [`Route::Whole`].
    fn route(&self, stmt: &SelectStmt) -> Route {
        let Some(b) = Binder::new(&self.inner.whole, stmt) else {
            return Route::Whole;
        };
        let n = stmt.from.len();
        // Shard-column position of every FROM entry.
        let mut shard_ci = Vec::with_capacity(n);
        for (i, item) in stmt.from.iter().enumerate() {
            let Some(ci) = self
                .inner
                .spec
                .shard_col(item.table.as_str())
                .and_then(|c| b.tables[i].schema().col_index(c.as_str()))
            else {
                return Route::Whole;
            };
            shard_ci.push(ci);
        }
        // Union-find over FROM entries, linked by shard-key equality;
        // constant pins on shard keys collected per entry.
        let mut uf: Vec<usize> = (0..n).collect();
        fn find(uf: &mut [usize], mut x: usize) -> usize {
            while uf[x] != x {
                uf[x] = uf[uf[x]];
                x = uf[x];
            }
            x
        }
        let mut pins: Vec<Vec<&Value>> = vec![Vec::new(); n];
        for p in &stmt.preds {
            if p.op != CmpOp::Eq {
                continue;
            }
            let Some((le, lc)) = b.resolve(&p.lhs) else {
                continue;
            };
            let l_is_shard = lc == shard_ci[le];
            match &p.rhs {
                Operand::Const(v) => {
                    if l_is_shard {
                        pins[le].push(v);
                    }
                }
                Operand::Col(c) => {
                    let Some((re, rc)) = b.resolve(c) else {
                        continue;
                    };
                    if l_is_shard && rc == shard_ci[re] {
                        let (a, bb) = (find(&mut uf, le), find(&mut uf, re));
                        uf[a] = bb;
                    }
                }
            }
        }
        // Resolve each group's pin; a conflict (two pins forcing
        // different shards through an equality chain) means the result
        // is empty, so any pinned shard answers it correctly.
        let mut group_pin: HashMap<usize, usize> = HashMap::new();
        for (e, entry_pins) in pins.iter().enumerate() {
            let root = find(&mut uf, e);
            for v in entry_pins {
                let s = self.inner.scheme.shard_of(v);
                match group_pin.get(&root) {
                    Some(&prev) if prev != s => return Route::One(prev),
                    _ => {
                        group_pin.insert(root, s);
                    }
                }
            }
        }
        let mut roots: Vec<usize> = (0..n).map(|e| find(&mut uf, e)).collect();
        roots.sort_unstable();
        roots.dedup();
        if roots.len() == 1 {
            match group_pin.get(&roots[0]) {
                Some(&s) => Route::One(s),
                None => Route::Scatter,
            }
        } else {
            // Disconnected FROM entries (a cross product): routable
            // only if every group is pinned to the same shard.
            let pinned: Vec<usize> = roots
                .iter()
                .filter_map(|r| group_pin.get(r).copied())
                .collect();
            if pinned.len() == roots.len() && pinned.windows(2).all(|w| w[0] == w[1]) {
                Route::One(pinned[0])
            } else {
                Route::Whole
            }
        }
    }

    /// Build the per-shard statement and merge recipe for a scatter.
    /// `None` means the statement cannot be merged exactly (e.g. a
    /// `DISTINCT` ordering by an unprojected column) — fall back.
    fn scatter_plan(&self, stmt: &SelectStmt) -> Option<ScatterPlan> {
        let b = Binder::new(&self.inner.whole, stmt)?;
        if stmt.distinct {
            // No widening (extra columns would change DISTINCT); the
            // merge breaks order ties on the full row instead.
            let keys = if stmt.items.is_empty() {
                stmt.order_by
                    .iter()
                    .map(|c| b.resolve(c).map(|rc| b.global(rc)))
                    .collect::<Option<Vec<_>>>()?
            } else {
                let item_offs: Vec<Option<usize>> = stmt
                    .items
                    .iter()
                    .map(|it| b.resolve(&it.col).map(|rc| b.global(rc)))
                    .collect();
                stmt.order_by
                    .iter()
                    .map(|c| {
                        let off = b.resolve(c).map(|rc| b.global(rc))?;
                        item_offs.iter().position(|&o| o == Some(off))
                    })
                    .collect::<Option<Vec<_>>>()?
            };
            let arity = if stmt.items.is_empty() {
                b.total
            } else {
                stmt.items.len()
            };
            return Some(ScatterPlan {
                stmt: stmt.clone(),
                keys,
                strip: 0,
                dedup: true,
                arity,
            });
        }
        // Widen the ORDER BY with every FROM entry's key columns (FROM
        // order, skipping columns already ordered) so the merge order
        // is total over joined rows.
        let mut widened = stmt.clone();
        let mut order_cols: Vec<(ColRef, usize)> = Vec::new();
        for c in &stmt.order_by {
            let off = b.global(b.resolve(c)?);
            order_cols.push((c.clone(), off));
        }
        for (e, item) in stmt.from.iter().enumerate() {
            let schema = b.tables[e].schema();
            for &ki in schema.key() {
                let off = b.offsets[e] + ki;
                if order_cols.iter().any(|&(_, o)| o == off) {
                    continue;
                }
                let col =
                    ColRef::qualified(item.binding().clone(), schema.columns()[ki].name.clone());
                widened.order_by.push(col.clone());
                order_cols.push((col, off));
            }
        }
        let (keys, strip, arity) = if stmt.items.is_empty() {
            (order_cols.iter().map(|&(_, o)| o).collect(), 0, b.total)
        } else {
            let mut item_offs: Vec<usize> = stmt
                .items
                .iter()
                .map(|it| b.resolve(&it.col).map(|rc| b.global(rc)))
                .collect::<Option<_>>()?;
            let mut keys = Vec::with_capacity(order_cols.len());
            let mut strip = 0;
            for (col, off) in &order_cols {
                match item_offs.iter().position(|o| o == off) {
                    Some(p) => keys.push(p),
                    None => {
                        // Project the merge key through the shard
                        // statement; stripped again before delivery.
                        widened.items.push(SelectItem {
                            col: col.clone(),
                            alias: None,
                        });
                        item_offs.push(*off);
                        keys.push(item_offs.len() - 1);
                        strip += 1;
                    }
                }
            }
            (keys, strip, stmt.items.len())
        };
        Some(ScatterPlan {
            stmt: widened,
            keys,
            strip,
            dedup: false,
            arity,
        })
    }
}

/// The per-shard statement plus the merge recipe for one scatter.
struct ScatterPlan {
    stmt: SelectStmt,
    keys: Vec<usize>,
    strip: usize,
    dedup: bool,
    arity: usize,
}

/// FROM-binding resolution over the fallback database's schemas,
/// mirroring the planner's rules (qualifier match, else unique bare
/// column; ambiguity resolves to nothing).
struct Binder {
    tables: Vec<Arc<Table>>,
    offsets: Vec<usize>,
    total: usize,
    bindings: Vec<Name>,
}

impl Binder {
    fn new(db: &Database, stmt: &SelectStmt) -> Option<Binder> {
        if stmt.from.is_empty() {
            return None;
        }
        let mut tables = Vec::with_capacity(stmt.from.len());
        let mut offsets = Vec::with_capacity(stmt.from.len());
        let mut bindings = Vec::with_capacity(stmt.from.len());
        let mut total = 0;
        for item in &stmt.from {
            let t = db.table(item.table.as_str()).ok()?;
            offsets.push(total);
            total += t.schema().arity();
            tables.push(t);
            bindings.push(item.binding().clone());
        }
        Some(Binder {
            tables,
            offsets,
            total,
            bindings,
        })
    }

    /// `(FROM-entry index, local column index)` of `col`.
    fn resolve(&self, col: &ColRef) -> Option<(usize, usize)> {
        let mut found = None;
        for (i, t) in self.tables.iter().enumerate() {
            let applies = match &col.qualifier {
                Some(q) => *q == self.bindings[i],
                None => true,
            };
            if !applies {
                continue;
            }
            if let Some(ci) = t.schema().col_index(col.column.as_str()) {
                if found.is_some() && col.qualifier.is_none() {
                    return None; // ambiguous bare column
                }
                found = Some((i, ci));
                if col.qualifier.is_some() {
                    break;
                }
            }
        }
        found
    }

    /// Global offset in the concatenated row.
    fn global(&self, (e, c): (usize, usize)) -> usize {
        self.offsets[e] + c
    }
}

/// A relational backend as the wrapper sees it: one database, or a
/// sharded federation of them behind the same interface.
#[derive(Debug, Clone)]
pub enum Backend {
    /// A single unsharded database.
    Single(Database),
    /// A sharded federation.
    Sharded(ShardedDatabase),
}

impl From<Database> for Backend {
    fn from(db: Database) -> Backend {
        Backend::Single(db)
    }
}

impl From<ShardedDatabase> for Backend {
    fn from(db: ShardedDatabase) -> Backend {
        Backend::Sharded(db)
    }
}

impl Backend {
    /// The server name.
    pub fn name(&self) -> &Name {
        match self {
            Backend::Single(db) => db.name(),
            Backend::Sharded(db) => db.name(),
        }
    }

    /// The shared per-source counters.
    pub fn stats(&self) -> &Stats {
        match self {
            Backend::Single(db) => db.stats(),
            Backend::Sharded(db) => db.stats(),
        }
    }

    /// Send this source's events to `tracer`.
    pub fn set_tracer(&self, tracer: TracerHandle) {
        match self {
            Backend::Single(db) => db.set_tracer(tracer),
            Backend::Sharded(db) => db.set_tracer(tracer),
        }
    }

    /// Install (or clear) a fault-injection policy.
    pub fn set_fault_policy(&self, policy: Option<FaultPolicy>) {
        match self {
            Backend::Single(db) => db.set_fault_policy(policy),
            Backend::Sharded(db) => db.set_fault_policy(policy),
        }
    }

    /// The currently installed fault policy, if any.
    pub fn fault_policy(&self) -> Option<FaultPolicy> {
        match self {
            Backend::Single(db) => db.fault_policy(),
            Backend::Sharded(db) => db.fault_policy(),
        }
    }

    /// Model this backend's round-trip time.
    pub fn set_latency_ms(&self, ms: Option<u64>) {
        match self {
            Backend::Single(db) => db.set_latency_ms(ms),
            Backend::Sharded(db) => db.set_latency_ms(ms),
        }
    }

    /// The per-statement RTT override, if any.
    pub fn latency_ms(&self) -> Option<u64> {
        match self {
            Backend::Single(db) => db.latency_ms(),
            Backend::Sharded(db) => db.latency_ms(),
        }
    }

    /// Look up a table (schema view).
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        match self {
            Backend::Single(db) => db.table(name),
            Backend::Sharded(db) => db.table(name),
        }
    }

    /// Table names in the catalog (sorted).
    pub fn table_names(&self) -> Vec<Name> {
        match self {
            Backend::Single(db) => db.table_names(),
            Backend::Sharded(db) => db.table_names(),
        }
    }

    /// Execute a parsed statement, returning a pipelined [`Cursor`].
    pub fn execute(&self, stmt: &SelectStmt) -> Result<Cursor> {
        match self {
            Backend::Single(db) => db.execute(stmt),
            Backend::Sharded(db) => db.execute(stmt),
        }
    }

    /// Parse and execute SQL text.
    pub fn execute_sql(&self, sql: &str) -> Result<Cursor> {
        match self {
            Backend::Single(db) => db.execute_sql(sql),
            Backend::Sharded(db) => db.execute_sql(sql),
        }
    }

    /// Backend identity for plan-cache keys (instance id for a single
    /// database; instance + shard layout for a federation).
    pub fn fingerprint(&self) -> u64 {
        match self {
            Backend::Single(db) => {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                db.instance_id().hash(&mut h);
                h.finish()
            }
            Backend::Sharded(db) => db.fingerprint(),
        }
    }

    /// The EXPLAIN `shards=` attribute for `stmt` — `None` for a
    /// single backend, so unsharded plans render unchanged.
    pub fn shards_attr(&self, stmt: &SelectStmt) -> Option<String> {
        match self {
            Backend::Single(_) => None,
            Backend::Sharded(db) => Some(db.shards_attr(stmt)),
        }
    }

    /// The declared shard column of `table` (`None` for a single
    /// backend or an undeclared table) — the rewriter's co-partitioning
    /// guard reads this.
    pub fn shard_col(&self, table: &str) -> Option<&Name> {
        match self {
            Backend::Single(_) => None,
            Backend::Sharded(db) => db.spec().shard_col(table),
        }
    }

    /// The sharded federation behind this backend, if it is one.
    pub fn as_sharded(&self) -> Option<&ShardedDatabase> {
        match self {
            Backend::Single(_) => None,
            Backend::Sharded(db) => Some(db),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::sample_db;
    use crate::table::Row;
    use mix_common::ColumnBlock;

    fn spec() -> ShardSpec {
        ShardSpec::new()
            .with("customer", "id")
            .with("orders", "cid")
    }

    /// sample_db with key-sorted base tables (orderless-scan
    /// equivalence requires the unsharded original to be key-sorted,
    /// like every shard is).
    fn sorted_sample() -> Database {
        let mut db = sample_db();
        db.sort_table_by_key("customer").unwrap();
        db.sort_table_by_key("orders").unwrap();
        db
    }

    fn run(db: &Database, sql: &str) -> Vec<Row> {
        db.execute_sql(sql).unwrap().collect_all().unwrap()
    }

    fn run_sharded(db: &ShardedDatabase, sql: &str) -> Vec<Row> {
        db.execute_sql(sql).unwrap().collect_all().unwrap()
    }

    const QUERIES: &[&str] = &[
        "SELECT * FROM customer ORDER BY id",
        "SELECT * FROM customer WHERE id = 'XYZ123' ORDER BY id",
        "SELECT c.id, c.name, o.orid, o.value FROM customer c, orders o \
         WHERE c.id = o.cid ORDER BY c.id, o.orid",
        "SELECT c.id, o.orid FROM customer c, orders o \
         WHERE c.id = o.cid AND c.id = 'XYZ123' ORDER BY o.orid",
        "SELECT DISTINCT c.id, c.name FROM orders o, customer c \
         WHERE o.cid = c.id ORDER BY c.id",
        "SELECT o.value FROM orders o ORDER BY o.value",
        "SELECT * FROM orders",
        "SELECT c.id, o.orid FROM customer c, orders o WHERE c.id < o.cid \
         ORDER BY c.id, o.orid",
    ];

    #[test]
    fn hash_and_range_layouts_match_unsharded() {
        let base = sorted_sample();
        for scheme in [
            ShardScheme::Hash { shards: 2 },
            ShardScheme::Hash { shards: 4 },
            ShardScheme::range_from(&base, &spec(), 2).unwrap(),
            ShardScheme::range_from(&base, &spec(), 4).unwrap(),
        ] {
            let sharded = ShardedDatabase::partition(&base, spec(), scheme).unwrap();
            for sql in QUERIES {
                assert_eq!(
                    run(&base, sql),
                    run_sharded(&sharded, sql),
                    "{sql} under {:?}",
                    sharded.scheme()
                );
            }
        }
    }

    #[test]
    fn shard_key_conjunct_routes_to_one_shard() {
        let base = sorted_sample();
        let sharded =
            ShardedDatabase::partition(&base, spec(), ShardScheme::Hash { shards: 4 }).unwrap();
        sharded.stats().reset();
        let rows = run_sharded(
            &sharded,
            "SELECT * FROM customer WHERE id = 'XYZ123' ORDER BY id",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(sharded.stats().get(Counter::ShardQueriesRouted), 1);
        assert_eq!(sharded.stats().get(Counter::ShardsTargeted), 1);
        assert_eq!(sharded.stats().get(Counter::ScatterMerges), 0);
        // The equality chain c.id = o.cid propagates the pin.
        sharded.stats().reset();
        let _ = run_sharded(
            &sharded,
            "SELECT c.id, o.orid FROM customer c, orders o \
             WHERE c.id = o.cid AND o.cid = 'DEF345' ORDER BY o.orid",
        );
        assert_eq!(sharded.stats().get(Counter::ShardQueriesRouted), 1);
        assert_eq!(sharded.stats().get(Counter::ShardsTargeted), 1);
    }

    #[test]
    fn unpinned_statement_scatters_and_merges() {
        let base = sorted_sample();
        let sharded =
            ShardedDatabase::partition(&base, spec(), ShardScheme::Hash { shards: 4 }).unwrap();
        sharded.stats().reset();
        let _ = run_sharded(&sharded, "SELECT * FROM customer ORDER BY id");
        assert_eq!(sharded.stats().get(Counter::ScatterMerges), 1);
        assert_eq!(sharded.stats().get(Counter::ShardsTargeted), 4);
        assert_eq!(sharded.stats().get(Counter::ShardQueriesRouted), 0);
    }

    #[test]
    fn non_co_partitioned_join_falls_back_to_whole() {
        let base = sorted_sample();
        let sharded =
            ShardedDatabase::partition(&base, spec(), ShardScheme::Hash { shards: 2 }).unwrap();
        let sql = "SELECT c.id, o.orid FROM customer c, orders o WHERE c.id < o.cid \
                   ORDER BY c.id, o.orid";
        assert_eq!(sharded.shards_attr(&parse_sql(sql).unwrap()), "whole");
        sharded.stats().reset();
        assert_eq!(run(&base, sql), run_sharded(&sharded, sql));
        assert_eq!(sharded.stats().get(Counter::ScatterMerges), 0);
        assert_eq!(sharded.stats().get(Counter::ShardQueriesRouted), 0);
    }

    #[test]
    fn shards_attr_reflects_routing() {
        let base = sorted_sample();
        let sharded =
            ShardedDatabase::partition(&base, spec(), ShardScheme::Hash { shards: 4 }).unwrap();
        let routed = parse_sql("SELECT * FROM customer WHERE id = 'XYZ123'").unwrap();
        let scatter = parse_sql("SELECT * FROM customer ORDER BY id").unwrap();
        assert_eq!(sharded.shards_attr(&routed), "1/4");
        assert_eq!(sharded.shards_attr(&scatter), "4/4");
        let backend = Backend::from(sharded);
        assert_eq!(backend.shards_attr(&routed).as_deref(), Some("1/4"));
        let single = Backend::from(sample_db());
        assert_eq!(single.shards_attr(&routed), None);
    }

    #[test]
    fn conflicting_pins_yield_empty_from_one_shard() {
        let base = sorted_sample();
        let sharded =
            ShardedDatabase::partition(&base, spec(), ShardScheme::Hash { shards: 4 }).unwrap();
        sharded.stats().reset();
        let rows = run_sharded(
            &sharded,
            "SELECT c.id, o.orid FROM customer c, orders o \
             WHERE c.id = o.cid AND c.id = 'XYZ123' AND o.cid = 'DEF345'",
        );
        assert!(rows.is_empty());
        assert_eq!(sharded.stats().get(Counter::ScatterMerges), 0);
    }

    #[test]
    fn stable_hash_is_canonical_across_numeric_types() {
        assert_eq!(
            stable_value_hash(&Value::Int(2)),
            stable_value_hash(&Value::Float(2.0))
        );
        assert_ne!(
            stable_value_hash(&Value::Int(2)),
            stable_value_hash(&Value::Float(2.5))
        );
        assert_ne!(
            stable_value_hash(&Value::str("2")),
            stable_value_hash(&Value::Int(2))
        );
    }

    #[test]
    fn fingerprint_distinguishes_layouts_and_data() {
        let base = sorted_sample();
        let two =
            ShardedDatabase::partition(&base, spec(), ShardScheme::Hash { shards: 2 }).unwrap();
        let four =
            ShardedDatabase::partition(&base, spec(), ShardScheme::Hash { shards: 4 }).unwrap();
        assert_ne!(two.fingerprint(), four.fingerprint());
        // Same layout over the same source database: shareable.
        let again =
            ShardedDatabase::partition(&base, spec(), ShardScheme::Hash { shards: 2 }).unwrap();
        assert_eq!(two.fingerprint(), again.fingerprint());
        // Different source data, same layout: distinct.
        let other = sorted_sample();
        let other2 =
            ShardedDatabase::partition(&other, spec(), ShardScheme::Hash { shards: 2 }).unwrap();
        assert_ne!(two.fingerprint(), other2.fingerprint());
        // Single backends: one per instance, stable across clones.
        let db = sample_db();
        let b1 = Backend::from(db.clone());
        let b2 = Backend::from(db);
        assert_eq!(b1.fingerprint(), b2.fingerprint());
        assert_ne!(b1.fingerprint(), Backend::from(sample_db()).fingerprint());
    }

    #[test]
    fn partial_pulls_stream_the_merge() {
        let base = sorted_sample();
        let sharded =
            ShardedDatabase::partition(&base, spec(), ShardScheme::Hash { shards: 2 }).unwrap();
        let sql = "SELECT c.id, o.orid FROM customer c, orders o \
                   WHERE c.id = o.cid ORDER BY c.id, o.orid";
        let all = run(&base, sql);
        // One row at a time, then small blocks.
        for n in [1, 2] {
            let mut cur = sharded.execute_sql(sql).unwrap();
            let mut block = ColumnBlock::new(cur.arity());
            let mut rows = Vec::new();
            loop {
                block.clear();
                if cur.next_cblock(&mut block, n).unwrap() == 0 {
                    break;
                }
                block.append_rows_to(&mut rows);
            }
            assert_eq!(rows, all, "{n}-row pulls");
            assert_eq!(cur.delivered(), all.len() as u64);
        }
    }

    #[test]
    fn missing_shard_column_is_rejected() {
        let base = sorted_sample();
        let bad = ShardSpec::new().with("customer", "id"); // orders undeclared
        assert!(ShardedDatabase::partition(&base, bad, ShardScheme::Hash { shards: 2 }).is_err());
        let wrong = ShardSpec::new()
            .with("customer", "nope")
            .with("orders", "cid");
        assert!(ShardedDatabase::partition(&base, wrong, ShardScheme::Hash { shards: 2 }).is_err());
    }
}
