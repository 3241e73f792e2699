//! Seeded workload generation: scaled schema/data families, query
//! templates spanning the Fig. 4 grammar, and mixed
//! navigate/query/decontextualize/export session scripts.
//!
//! Everything here is a pure function of a [`Rng`] seed, so the same
//! seed reproduces the same database, queries, and scripts on every
//! machine — the fuzzer and the soak runner both depend on that.

use mix::prelude::*;

/// SplitMix64 — the same tiny generator the chaos backend uses, local
/// so workload generation never perturbs (or is perturbed by) fault
/// schedules.
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    /// Derive an independent stream for sub-task `salt` (case index,
    /// session index) without consuming this stream.
    pub fn split(&self, salt: u64) -> Rng {
        Rng(self
            .0
            .wrapping_add(0x9e3779b97f4a7c15)
            .wrapping_mul(salt.wrapping_mul(2).wrapping_add(1)))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` (`0` when `bound == 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// `true` with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// A uniformly chosen element of `xs`.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

// ---- schema families -------------------------------------------------

/// How one relational field is populated — drives both data generation
/// (indirectly, via `mix_repro::datagen`) and plausible constant
/// generation for WHERE clauses.
#[derive(Debug, Clone, Copy)]
pub enum FieldKind {
    /// Text primary key with a printf-style prefix (`C000042`).
    Key { prefix: &'static str, width: usize },
    /// Integer primary key counting from 1.
    IntKey,
    /// Text foreign key referencing the sibling source's `Key`.
    RefKey,
    /// Integer uniform in `[lo, hi)`.
    Int { lo: i64, hi: i64 },
    /// Float in `{0.1, 0.2, …, 1.9}` (the auction `afspeed` shape).
    Float,
    /// One of a fixed pool of strings.
    Pool(&'static [&'static str]),
    /// `gen_db`-style names spread across the alphabet (`A0Co.`).
    NamePrefix,
}

/// One wrapped relational source: its catalog name, the element label
/// its rows appear under, and its fields in schema order.
#[derive(Debug, Clone, Copy)]
pub struct SourceShape {
    /// Catalog source name (`root1`, `cameras`, …).
    pub source: &'static str,
    /// Per-row element label (`customer`, `camera`, …).
    pub elem: &'static str,
    /// Fields in schema order.
    pub fields: &'static [(&'static str, FieldKind)],
}

const CITIES: &[&str] = &["LosAngeles", "NewYork", "SanDiego", "Austin"];
const REGIONS: &[&str] = &["SoCal", "NorCal", "PNW", "East", "Midwest"];

const CUSTOMER: SourceShape = SourceShape {
    source: "root1",
    elem: "customer",
    fields: &[
        (
            "id",
            FieldKind::Key {
                prefix: "C",
                width: 6,
            },
        ),
        ("addr", FieldKind::Pool(CITIES)),
        ("name", FieldKind::NamePrefix),
    ],
};

const ORDER: SourceShape = SourceShape {
    source: "root2",
    elem: "order",
    fields: &[
        ("orid", FieldKind::IntKey),
        ("cid", FieldKind::RefKey),
        ("value", FieldKind::Int { lo: 0, hi: 100_000 }),
    ],
};

const CAMERA: SourceShape = SourceShape {
    source: "cameras",
    elem: "camera",
    fields: &[
        (
            "id",
            FieldKind::Key {
                prefix: "CAM",
                width: 5,
            },
        ),
        ("model", FieldKind::NamePrefix),
        ("price", FieldKind::Int { lo: 50, hi: 2000 }),
        ("afspeed", FieldKind::Float),
        ("rating", FieldKind::Int { lo: 0, hi: 3 }),
    ],
};

const LENS: SourceShape = SourceShape {
    source: "lenses",
    elem: "lens",
    fields: &[
        (
            "id",
            FieldKind::Key {
                prefix: "LENS",
                width: 6,
            },
        ),
        ("camid", FieldKind::RefKey),
        ("cost", FieldKind::Int { lo: 20, hi: 800 }),
        ("diameter", FieldKind::Int { lo: 5, hi: 30 }),
        ("region", FieldKind::Pool(REGIONS)),
    ],
};

/// The two scaled schema/data families (TPC-H/XMark-style analogues
/// seeded from `mix_repro::datagen`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The paper's customers/orders schema (`root1`/`root2`).
    CustomersOrders,
    /// The introduction's auction scenario (`cameras`/`lenses`).
    Auction,
}

/// A schema family at a concrete scale: `primary` rows in the keyed
/// source, `per` rows each in the referencing source.
#[derive(Debug, Clone, Copy)]
pub struct Dataset {
    pub family: Family,
    /// Rows in the keyed source (customers / cameras).
    pub primary: usize,
    /// Referencing rows per keyed row (orders per customer / lenses
    /// per camera).
    pub per: usize,
    /// Data seed (orthogonal to the query/script seed).
    pub seed: u64,
}

impl Dataset {
    /// A dataset drawn from `rng` at roughly `scale` keyed rows.
    pub fn gen(rng: &mut Rng, scale: usize) -> Dataset {
        let family = if rng.chance(50) {
            Family::CustomersOrders
        } else {
            Family::Auction
        };
        // ~1 case in 8 is degenerate — a single keyed row and/or an
        // empty referencing source — because empty joins, empty groups,
        // and zero-row blocks are classic divergence territory.
        let primary = if rng.chance(12) {
            1
        } else {
            scale.max(2) / 2 + rng.below(scale.max(2) as u64 / 2 + 1) as usize
        };
        Dataset {
            family,
            primary,
            per: rng.below(4) as usize,
            seed: rng.next_u64(),
        }
    }

    /// Build the catalog + database (deterministic in `self.seed`).
    pub fn build(&self) -> (Catalog, Database) {
        match self.family {
            Family::CustomersOrders => {
                mix_repro::datagen::customers_orders(self.primary, self.per, self.seed)
            }
            Family::Auction => mix_repro::datagen::auction_db(self.primary, self.per, self.seed),
        }
    }

    /// Build the same data as a sharded federation under `layout`
    /// (keyed source by its key, referencing source co-partitioned by
    /// its foreign key). Results must be bit-for-bit identical to
    /// [`Dataset::build`] — the fuzzer's federation variants pin that.
    pub fn build_sharded(
        &self,
        layout: mix_repro::datagen::ShardLayout,
    ) -> (Catalog, ShardedDatabase) {
        match self.family {
            Family::CustomersOrders => mix_repro::datagen::customers_orders_sharded(
                self.primary,
                self.per,
                self.seed,
                layout,
            ),
            Family::Auction => {
                mix_repro::datagen::auction_db_sharded(self.primary, self.per, self.seed, layout)
            }
        }
    }

    /// The keyed source (join build side).
    pub fn keyed(&self) -> SourceShape {
        match self.family {
            Family::CustomersOrders => CUSTOMER,
            Family::Auction => CAMERA,
        }
    }

    /// The referencing source (join probe side).
    pub fn referencing(&self) -> SourceShape {
        match self.family {
            Family::CustomersOrders => ORDER,
            Family::Auction => LENS,
        }
    }

    /// Name of the key field in [`Dataset::keyed`].
    pub fn key_field(&self) -> &'static str {
        match self.family {
            Family::CustomersOrders => "id",
            Family::Auction => "id",
        }
    }

    /// Name of the reference field in [`Dataset::referencing`].
    pub fn ref_field(&self) -> &'static str {
        match self.family {
            Family::CustomersOrders => "cid",
            Family::Auction => "camid",
        }
    }

    /// A plausible constant for `kind`, rendered as an XQuery literal
    /// (strings quoted, numbers bare). Constants land inside, at the
    /// edge of, or just outside the data range, so predicates have
    /// varied selectivity including empty.
    pub fn literal(&self, rng: &mut Rng, kind: FieldKind) -> String {
        match kind {
            FieldKind::Key { prefix, width } => {
                let k = rng.below(self.primary as u64 + 2);
                format!("\"{prefix}{k:0width$}\"")
            }
            FieldKind::IntKey => format!("{}", 1 + rng.below((self.primary * self.per) as u64 + 1)),
            FieldKind::RefKey => {
                let keyed = self.keyed();
                let (_, kind) = keyed.fields[0];
                self.literal(rng, kind)
            }
            FieldKind::Int { lo, hi } => {
                let span = (hi - lo).max(1) as u64;
                // Sometimes outside the range for empty/full answers.
                let v = lo - 1 + rng.below(span + 2) as i64;
                format!("{v}")
            }
            FieldKind::Float => format!("{:.1}", (1 + rng.below(19)) as f64 / 10.0),
            FieldKind::Pool(pool) => format!("\"{}\"", rng.pick(pool)),
            FieldKind::NamePrefix => {
                format!("\"{}\"", (b'A' + rng.below(26) as u8) as char)
            }
        }
    }
}

// ---- query templates -------------------------------------------------

/// A generated query plus the result-shape metadata in-place queries
/// need: which element labels appear as children of the result root,
/// and which source element sits under each.
#[derive(Debug, Clone)]
pub struct GenQuery {
    pub text: String,
    /// `(root_child_label, inner_elem)` pairs: each result-root child
    /// carries `root_child_label` and contains an `inner_elem` row
    /// element somewhere below (the anchor for in-place WHERE paths).
    pub shape: Vec<(String, &'static str)>,
}

const COMPARES: &[&str] = &["=", "!=", "<", "<=", ">", ">="];

/// One WHERE conjunct `$var/field/data() OP literal` over `shape`.
fn conjunct(rng: &mut Rng, ds: &Dataset, var: &str, shape: &SourceShape) -> String {
    let (field, kind) = *rng.pick(shape.fields);
    let op = *rng.pick(COMPARES);
    // ~1 in 10: a literal of a *different* type than the field (string
    // vs int column, float vs string…). Incomparable operands must be
    // uniformly false across row-wise evaluation, the vectorized kernels, and
    // SQL pushdown.
    let lit_kind = if rng.chance(10) {
        rng.pick(shape.fields).1
    } else {
        kind
    };
    let lit = ds.literal(rng, lit_kind);
    if rng.chance(10) {
        // Path-vs-path: both operands are field paths of the same row.
        let (f2, _) = *rng.pick(shape.fields);
        return format!("${var}/{field}/data() {op} ${var}/{f2}/data()");
    }
    if rng.chance(15) {
        // Wildcard step: any field's data.
        format!("${var}/*/data() {op} {lit}")
    } else if rng.chance(20) {
        // Bare path (no data()) — the Fig. 4 grammar allows comparing
        // an element path against a constant directly.
        format!("${var}/{field} {op} {lit}")
    } else {
        format!("${var}/{field}/data() {op} {lit}")
    }
}

/// `WHERE c1 [AND c2 …]` with 0–2 conjuncts ("" when none).
fn where_clause(rng: &mut Rng, ds: &Dataset, var: &str, shape: &SourceShape) -> String {
    match rng.below(3) {
        0 => String::new(),
        1 => format!(" WHERE {}", conjunct(rng, ds, var, shape)),
        _ => format!(
            " WHERE {} AND {}",
            conjunct(rng, ds, var, shape),
            conjunct(rng, ds, var, shape)
        ),
    }
}

/// A generated top-level query over `ds`, spanning the Fig. 4 grammar:
/// joins, single-source scans, nested subqueries, wildcard paths,
/// grouped element construction, and bare-variable returns.
pub fn gen_top_query(rng: &mut Rng, ds: &Dataset) -> GenQuery {
    let keyed = ds.keyed();
    let refing = ds.referencing();
    let n = rng.below(1000); // tag salt, so repeated classes still dedup
    match rng.below(13) {
        // Join with wrapped construction — the Q1 shape. 1 in 5 is a
        // theta join (non-equality key comparison), which cannot use
        // the hash-join path at all.
        0..=3 => {
            let jop = if rng.chance(20) {
                *rng.pick(COMPARES)
            } else {
                "="
            };
            let extra = if rng.chance(40) {
                format!(" AND {}", conjunct(rng, ds, "B", &refing))
            } else {
                String::new()
            };
            let text = format!(
                "FOR $A IN source(&{ks})/{ke} $B IN document(&{rs})/{re} \
                 WHERE $A/{key}/data() {jop} $B/{rf}/data(){extra} \
                 RETURN <Rec{n}> $A <Sub{n}> $B </Sub{n}> {{$B}} </Rec{n}> {{$A}}",
                ks = keyed.source,
                ke = keyed.elem,
                rs = refing.source,
                re = refing.elem,
                key = ds.key_field(),
                rf = ds.ref_field(),
            );
            GenQuery {
                text,
                shape: vec![(format!("Rec{n}"), keyed.elem)],
            }
        }
        // Single-source scan returning the bare row variable.
        4..=5 => {
            let s = if rng.chance(50) { keyed } else { refing };
            let wh = where_clause(rng, ds, "A", &s);
            let text = format!(
                "FOR $A IN source(&{src})/{e}{wh} RETURN $A",
                src = s.source,
                e = s.elem,
            );
            GenQuery {
                text,
                shape: vec![(s.elem.to_string(), s.elem)],
            }
        }
        // Single-source scan with grouped element construction.
        6..=7 => {
            let s = if rng.chance(50) { keyed } else { refing };
            let wh = where_clause(rng, ds, "A", &s);
            let text = format!(
                "FOR $A IN document({src})/{e}{wh} \
                 RETURN <Wrap{n}> $A </Wrap{n}> {{$A}}",
                src = s.source,
                e = s.elem,
            );
            GenQuery {
                text,
                shape: vec![(format!("Wrap{n}"), s.elem)],
            }
        }
        // Nested subquery (correlated FOR inside the element body).
        8 => {
            let text = format!(
                "FOR $A IN document({ks})/{ke} \
                 RETURN <Rec{n}> $A \
                 FOR $B IN document({rs})/{re} \
                 WHERE $B/{rf}/data() = $A/{key}/data() \
                 RETURN <Inner{n}> $B </Inner{n}> {{$B}} \
                 </Rec{n}> {{$A}}",
                ks = keyed.source,
                ke = keyed.elem,
                rs = refing.source,
                re = refing.elem,
                key = ds.key_field(),
                rf = ds.ref_field(),
            );
            GenQuery {
                text,
                shape: vec![(format!("Rec{n}"), keyed.elem)],
            }
        }
        // Dependent binding: the inner variable ranges over a path
        // rooted at the outer variable (Fig. 4's `$B IN $A/y` form).
        9..=10 => {
            let s = if rng.chance(50) { keyed } else { refing };
            let (field, _) = *rng.pick(s.fields);
            let step = if rng.chance(30) { "*" } else { field };
            let text = format!(
                "FOR $A IN document({src})/{e} $B IN $A/{step} \
                 RETURN <Kid{n}> $A <F{n}> $B </F{n}> {{$B}} </Kid{n}> {{$A}}",
                src = s.source,
                e = s.elem,
            );
            GenQuery {
                text,
                shape: vec![(format!("Kid{n}"), s.elem)],
            }
        }
        // Flat pair grouping: both variables in one group-by list.
        11 => {
            let text = format!(
                "FOR $A IN source(&{ks})/{ke} $B IN document(&{rs})/{re} \
                 WHERE $A/{key}/data() = $B/{rf}/data() \
                 RETURN <Pair{n}> $A $B </Pair{n}> {{$A, $B}}",
                ks = keyed.source,
                ke = keyed.elem,
                rs = refing.source,
                re = refing.elem,
                key = ds.key_field(),
                rf = ds.ref_field(),
            );
            GenQuery {
                text,
                shape: vec![(format!("Pair{n}"), keyed.elem)],
            }
        }
        // Semijoin shape: filter the keyed source by a referencing
        // predicate but return only the keyed rows (grouped).
        _ => {
            let extra = conjunct(rng, ds, "B", &refing);
            let text = format!(
                "FOR $A IN source(&{ks})/{ke} $B IN document(&{rs})/{re} \
                 WHERE $A/{key}/data() = $B/{rf}/data() AND {extra} \
                 RETURN <Hit{n}> $A </Hit{n}> {{$A}}",
                ks = keyed.source,
                ke = keyed.elem,
                rs = refing.source,
                re = refing.elem,
                key = ds.key_field(),
                rf = ds.ref_field(),
            );
            GenQuery {
                text,
                shape: vec![(format!("Hit{n}"), keyed.elem)],
            }
        }
    }
}

/// A generated in-place query (`document(root)/…`) against a result of
/// shape `shape` — what `q(query, p)` composes or decontextualizes.
pub fn gen_inplace_query(rng: &mut Rng, ds: &Dataset, shape: &[(String, &'static str)]) -> String {
    let (child, inner) = rng.pick(shape);
    let inner_shape = if *inner == ds.keyed().elem {
        ds.keyed()
    } else {
        ds.referencing()
    };
    let (field, kind) = *rng.pick(inner_shape.fields);
    let op = *rng.pick(COMPARES);
    let lit = ds.literal(rng, kind);
    let n = rng.below(1000);
    match rng.below(4) {
        // Filtered passthrough of the root's children.
        0 => format!(
            "FOR $X IN document(root)/{child} \
             WHERE $X/{inner}/{field}/data() {op} {lit} RETURN $X"
        ),
        // Step below the child label and rewrap (grouped).
        1 => format!(
            "FOR $X IN document(root)/{child}/{inner}{wh} \
             RETURN <Pick{n}> $X </Pick{n}> {{$X}}",
            wh = if rng.chance(60) {
                format!(" WHERE $X/{field}/data() {op} {lit}")
            } else {
                String::new()
            },
        ),
        // Wildcard descent.
        2 => format!(
            "FOR $X IN document(root)/{child} \
             WHERE $X/{inner}/{field} {op} {lit} RETURN $X"
        ),
        // Unfiltered rewrap of everything under the root.
        _ => format!("FOR $X IN document(root)/{child} RETURN <All{n}> $X </All{n}> {{$X}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_split_independent() {
        let mut a = Rng(7);
        let mut b = Rng(7);
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut s1 = Rng(7).split(1);
        let mut s2 = Rng(7).split(2);
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn generated_queries_parse() {
        for seed in 0..40 {
            let mut rng = Rng(seed);
            let ds = Dataset::gen(&mut rng, 20);
            let q = gen_top_query(&mut rng, &ds);
            parse_query(&q.text).unwrap_or_else(|e| panic!("{e}\n{}", q.text));
            let ip = gen_inplace_query(&mut rng, &ds, &q.shape);
            parse_query(&ip).unwrap_or_else(|e| panic!("{e}\n{ip}"));
        }
    }

    #[test]
    fn datasets_build_and_run() {
        let mut rng = Rng(3);
        for _ in 0..4 {
            let ds = Dataset::gen(&mut rng, 12);
            let (catalog, _db) = ds.build();
            let m = Mediator::new(catalog);
            let mut s = m.session();
            let q = gen_top_query(&mut rng, &ds);
            // Generated queries must at least plan and execute.
            let p = s
                .query(&q.text)
                .unwrap_or_else(|e| panic!("{e}\n{}", q.text));
            let _ = s.child_count(p).unwrap();
        }
    }
}
