//! `adhoc_compile`: a stream of distinct queries, each touched briefly.
//!
//! In process, over a 50×2 customers/orders dataset (small, so that the
//! generator's theta joins and nested subqueries stay cheap beside
//! compile) with the Q1 view
//! defined as `custrecs` and one [`SharedPlanCache`] (8 × 16 entries).
//! Each item issues a distinct top-level query from
//! `mix_workload::gen::gen_top_query` (one in five is instead a
//! `gen_inplace_query` text composed over the `custrecs` view), reads
//! its first `d` and up to three `r`, then fires a
//! `gen_inplace_query` text from the first child when that child's
//! shape allows (decontextualization, through the plan cache, and its
//! small answer is drained), or else from the result root (composition)
//! with a first `d` and two `r`. Sessions are reopened every 32 items.
//! The texts are distinct, so the plan cache misses, inserts and
//! evicts; compile is on the critical path.

use crate::client::{same_transcript, transcript, Client, Log};
use crate::workload::{Focus, Mode, Opener, Stop, Workload};
use mix::prelude::*;
use mix::serve::MediatorFactory;
use mix_bench::Q1;
use mix_workload::gen::{gen_inplace_query, gen_top_query};
use mix_workload::{Dataset, Family, Norm, Rng};
use std::sync::Arc;

const CUSTOMERS: usize = 50;
const ORDERS_PER: usize = 2;
const VIEW: &str = "custrecs";
const ITEMS_PER_SESSION: usize = 32;
/// Items the correctness pin samples.
const PIN_ITEMS: usize = 16;

pub struct AdhocCompile {
    seed: u64,
    ds: Dataset,
    catalog: Catalog,
    db: Database,
    tracer: TracerHandle,
    cache: Arc<SharedPlanCache>,
}

fn factory_for(
    catalog: &Catalog,
    cache: &Arc<SharedPlanCache>,
    tracer: &TracerHandle,
    optimize: bool,
) -> Arc<MediatorFactory> {
    let (catalog, cache, tracer) = (catalog.clone(), Arc::clone(cache), tracer.clone());
    Arc::new(move || {
        let mut m = Mediator::with_options(
            catalog.clone(),
            MediatorOptions::builder()
                .optimize(optimize)
                .shared_plan_cache(Arc::clone(&cache))
                .tracer(tracer.clone())
                .build(),
        );
        m.define_view(VIEW, Q1).expect("Q1 is a valid view");
        m
    })
}

/// The row-element label `label` names, as the generator's static str.
fn row_elem(ds: &Dataset, label: &str) -> Option<&'static str> {
    [ds.keyed().elem, ds.referencing().elem]
        .into_iter()
        .find(|e| *e == label)
}

/// The in-place shape of an interior node: a child wrapper that holds
/// a row element (`Sub7` holding `order` under a Q1-shaped record).
fn interior_shape(
    c: &mut Client<'static>,
    ds: &Dataset,
    node: WireNode,
) -> Option<Vec<(String, &'static str)>> {
    let second = c.d(node).and_then(|k| c.r(k))?;
    let label = c.fl(second)?;
    let inner = c.d(second).and_then(|g| c.fl(g))?;
    match (row_elem(ds, &label), row_elem(ds, &inner)) {
        (None, Some(elem)) => Some(vec![(label, elem)]),
        _ => None,
    }
}

impl AdhocCompile {
    pub fn setup(seed: u64, tracer: Option<TracerHandle>) -> AdhocCompile {
        let ds = Dataset {
            family: Family::CustomersOrders,
            primary: CUSTOMERS,
            per: ORDERS_PER,
            seed: Rng(seed).split(6).next_u64(),
        };
        let (catalog, db) = ds.build();
        AdhocCompile {
            seed,
            ds,
            catalog,
            db,
            tracer: tracer.unwrap_or_else(TracerHandle::null),
            cache: Arc::new(SharedPlanCache::default()),
        }
    }

    /// Item `i` on session `c`. With `render`, the first node of each
    /// answer is also rendered.
    fn item(&self, c: &mut Client<'static>, i: usize, render: bool) {
        let mut rng = Rng(self.seed).split(5000 + i as u64);
        let (text, shape) = if rng.chance(20) {
            let q = gen_inplace_query(&mut rng, &self.ds, &[("CustRec".into(), "customer")]);
            (
                q.replace("document(root)", &format!("document({VIEW})")),
                vec![("CustRec".to_string(), "customer")],
            )
        } else {
            let q = gen_top_query(&mut rng, &self.ds);
            (q.text, q.shape)
        };
        let Some((root, first)) = c.query_first(&text) else {
            return;
        };
        if let (true, Some(f)) = (render, first) {
            c.render(f);
        }
        let mut cur = first;
        for _ in 0..3 {
            cur = cur.and_then(|n| c.r(n));
        }
        let interior = first.and_then(|f| interior_shape(c, &self.ds, f).map(|s| (f, s)));
        match interior {
            Some((node, shape)) => {
                let ip = gen_inplace_query(&mut rng, &self.ds, &shape);
                if let Some(p) = c.q(&ip, node) {
                    if render {
                        c.render(p);
                    }
                    c.drain(p);
                }
            }
            None => {
                let ip = gen_inplace_query(&mut rng, &self.ds, &shape);
                if let Some((_, kid)) = c.q_first(&ip, root) {
                    if let (true, Some(k)) = (render, kid) {
                        c.render(k);
                    }
                    let mut cur = kid;
                    for _ in 0..2 {
                        cur = cur.and_then(|n| c.r(n));
                    }
                }
            }
        }
    }
}

impl Workload for AdhocCompile {
    fn describe(&self) -> String {
        format!(
            "adhoc_compile: {CUSTOMERS} customers x {ORDERS_PER} orders, in process, view {VIEW}=Q1, \
             shared plan cache {}x{}, distinct generated queries, sessions of {ITEMS_PER_SESSION} items",
            self.cache.shard_count(),
            self.cache.per_shard_cap()
        )
    }

    fn warm_items(&self) -> usize {
        // Enough in-place misses to fill the plan cache, so the run
        // starts at steady-state eviction.
        self.cache.shard_count() * self.cache.per_shard_cap() + ITEMS_PER_SESSION
    }

    fn counted_items(&self) -> usize {
        2 * ITEMS_PER_SESSION
    }

    fn check(&mut self) -> std::result::Result<(), String> {
        let mut opt = Opener::new(
            Mode::InProcess(factory_for(
                &self.catalog,
                &Arc::new(SharedPlanCache::default()),
                &TracerHandle::null(),
                true,
            )),
            true,
        );
        let mut naive = Opener::new(
            Mode::InProcess(factory_for(
                &self.catalog,
                &Arc::new(SharedPlanCache::default()),
                &TracerHandle::null(),
                false,
            )),
            true,
        );
        let mut pick = Rng(self.seed).split(7);
        let items: Vec<usize> = (0..PIN_ITEMS)
            .map(|_| pick.below(100_000) as usize)
            .collect();
        for &i in &items {
            for opener in [&mut opt, &mut naive] {
                let mut c = opener.open();
                self.item(&mut c, i, true);
                opener.close(c);
            }
        }
        let mut unanswered = 0;
        for (k, (o, n)) in opt.sessions.iter().zip(&naive.sessions).enumerate() {
            let what = format!(
                "adhoc_compile item {}: optimized vs optimize(false)",
                items[k]
            );
            if o.iter().any(|(_, r)| matches!(r, Reply::Err(_))) {
                return Err(format!("{what}: a command failed"));
            }
            let (to, tn) = (
                transcript(o, Norm::NoHandles),
                transcript(n, Norm::NoHandles),
            );
            // The naive baseline cannot decontextualize from some nodes
            // of view-composed answers; compare up to where it stops.
            match tn.iter().position(|l| l.starts_with("err(")) {
                Some(at) => {
                    unanswered += 1;
                    same_transcript(&what, &to[..at.min(to.len())], &tn[..at])?;
                }
                None => same_transcript(&what, &to, &tn)?,
            }
        }
        println!(
            "pin: {} sampled items compared, {unanswered} only up to a command optimize(false) cannot answer",
            items.len()
        );
        Ok(())
    }

    fn run_with(&mut self, opener: &mut Opener, stop: Stop) -> Vec<Log> {
        let mut logs = Vec::new();
        let mut session: Option<Client<'static>> = None;
        let mut i = stop.first;
        while !stop.done(i) {
            if i.is_multiple_of(ITEMS_PER_SESSION) {
                if let Some(c) = session.take() {
                    opener.close(c);
                }
            }
            let c = session.get_or_insert_with(|| opener.open());
            self.item(c, i, false);
            logs.push(std::mem::take(&mut c.log));
            i += 1;
        }
        if let Some(c) = session.take() {
            opener.close(c);
        }
        logs
    }

    fn mode(&self) -> Mode {
        Mode::InProcess(self.factory())
    }

    fn factory(&self) -> Arc<MediatorFactory> {
        factory_for(&self.catalog, &self.cache, &self.tracer, true)
    }

    fn backend_stats(&self) -> Stats {
        self.db.stats().clone()
    }

    fn focus(&self) -> Focus {
        Focus::Query
    }
}
