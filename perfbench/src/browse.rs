//! `browse_wire`: the paper's interactive client over one wire session.
//!
//! A closed loop over one loopback connection to an in-process
//! `mix-serve` server (see [`start_server`] for its placement) fronting
//! a 500×2
//! customers/orders database, with one process-wide
//! [`SharedPlanCache`]. Each episode opens a fresh connection, issues
//! Q1, and walks the first 50 CustRecs with `fl`/`r`; every other
//! CustRec gets an in-place `q` from one of four fixed templates (so
//! the cache holds them all and later episodes hit), every fourth a
//! short `d`/`fl`/`fv` descent. One in-place answer per episode is
//! drained completely, and the episode ends with one `export`. Every
//! episode has the same command count.

use crate::client::{same_transcript, transcript, Client, Log};
use crate::workload::{start_server, Focus, Mode, Opener, Stop, Workload};
use mix::prelude::*;
use mix::serve::MediatorFactory;
use mix_bench::Q1;
use mix_workload::{Norm, Rng};
use std::sync::Arc;

const CUSTOMERS: usize = 500;
const ORDERS_PER: usize = 2;
const SIBLINGS: usize = 50;

/// The in-place templates; few enough that the plan cache keeps them.
const TEMPLATES: [&str; 4] = [
    "FOR $O IN document(root)/OrderInfo RETURN $O",
    "FOR $O IN document(root)/OrderInfo WHERE $O/order/value < 50000 RETURN $O",
    "FOR $O IN document(root)/OrderInfo WHERE $O/order/value > 20000 RETURN $O",
    "FOR $X IN document(root)/customer WHERE $X/addr/data() = \"Austin\" RETURN $X",
];

/// Episodes replayed by the correctness pin.
const PIN_EPISODES: usize = 3;

pub struct BrowseWire {
    seed: u64,
    catalog: Catalog,
    db: Database,
    tracer: TracerHandle,
    cache: Arc<SharedPlanCache>,
    server: Server,
}

fn factory_for(
    catalog: &Catalog,
    cache: &Arc<SharedPlanCache>,
    tracer: &TracerHandle,
) -> Arc<MediatorFactory> {
    let (catalog, cache, tracer) = (catalog.clone(), Arc::clone(cache), tracer.clone());
    Arc::new(move || {
        Mediator::with_options(
            catalog.clone(),
            MediatorOptions::builder()
                .shared_plan_cache(Arc::clone(&cache))
                .tracer(tracer.clone())
                .build(),
        )
    })
}

impl BrowseWire {
    pub fn setup(seed: u64, tracer: Option<TracerHandle>) -> BrowseWire {
        let data_seed = Rng(seed).split(1).next_u64();
        let (catalog, db) = mix_repro::datagen::customers_orders(CUSTOMERS, ORDERS_PER, data_seed);
        let tracer = tracer.unwrap_or_else(TracerHandle::null);
        let cache = Arc::new(SharedPlanCache::default());
        let server = start_server(factory_for(&catalog, &cache, &tracer));
        BrowseWire {
            seed,
            catalog,
            db,
            tracer,
            cache,
            server,
        }
    }

    /// One episode on a fresh session.
    fn episode(&self, opener: &mut Opener, ep: usize) -> Log {
        let mut rng = Rng(self.seed).split(1000 + ep as u64);
        let mut c = opener.open();
        if let Some((p0, first)) = c.query_first(Q1) {
            walk(&mut c, &mut rng, first);
            c.export(p0, SIBLINGS as u32);
        }
        opener.close(c)
    }
}

/// The sibling walk of one episode.
fn walk(c: &mut Client<'static>, rng: &mut Rng, first: Option<WireNode>) {
    let mut cur = first;
    for i in 0..SIBLINGS {
        let Some(node) = cur else { break };
        c.fl(node);
        if i % 2 == 0 {
            if i == 0 {
                // The one full drain of an in-place answer per episode.
                // The answer root's label is read first: the command
                // right after a compile pays the server poller's grown
                // sleep, which would otherwise land in every drain (it
                // shows in the nav tail instead).
                if let Some(root) = c.q(TEMPLATES[0], node) {
                    c.fl(root);
                    c.drain(root);
                }
            } else {
                let t = TEMPLATES[rng.below(TEMPLATES.len() as u64) as usize];
                if let Some((_, Some(kid))) = c.q_first(t, node) {
                    c.fl(kid);
                }
            }
        }
        if i % 4 == 1 {
            if let Some(cust) = c.d(node) {
                c.fl(cust);
                if let Some(field) = c.d(cust) {
                    if let Some(leaf) = c.d(field) {
                        c.fv(leaf);
                    }
                }
            }
        }
        cur = c.r(node);
    }
}

impl Workload for BrowseWire {
    fn describe(&self) -> String {
        format!(
            "browse_wire: {CUSTOMERS} customers x {ORDERS_PER} orders, loopback server with {} workers, \
             {SIBLINGS}-sibling episodes on fresh connections, {} in-place templates",
            self.server.worker_count(),
            TEMPLATES.len()
        )
    }

    /// In process, through the server's own plan cache: the templates
    /// are compiled and cached before timing, and set-up time does not
    /// depend on the wire's timing mode.
    fn warm_up(&mut self) {
        let mut opener = Opener::new(Mode::InProcess(self.factory()), false);
        self.run_with(&mut opener, Stop::range(0, self.warm_items()));
    }

    fn warm_items(&self) -> usize {
        // Enough episodes for every template to be compiled and cached.
        4
    }

    fn counted_items(&self) -> usize {
        8
    }

    fn check(&mut self) -> std::result::Result<(), String> {
        let mut wire = Opener::new(self.mode(), true);
        let mut local = Opener::new(
            Mode::InProcess(factory_for(
                &self.catalog,
                &Arc::new(SharedPlanCache::default()),
                &TracerHandle::null(),
            )),
            true,
        );
        for ep in 0..PIN_EPISODES {
            self.episode(&mut wire, ep);
            self.episode(&mut local, ep);
        }
        for (ep, (w, l)) in wire.sessions.iter().zip(&local.sessions).enumerate() {
            same_transcript(
                &format!("browse_wire episode {ep}: wire vs in-process"),
                &transcript(w, Norm::Exact),
                &transcript(l, Norm::Exact),
            )?;
            if w.iter().any(|(_, r)| matches!(r, Reply::Err(_))) {
                return Err(format!("browse_wire episode {ep}: a command failed"));
            }
        }
        Ok(())
    }

    fn run_with(&mut self, opener: &mut Opener, stop: Stop) -> Vec<Log> {
        let mut logs = Vec::new();
        let mut ep = stop.first;
        while !stop.done(ep) {
            logs.push(self.episode(opener, ep));
            ep += 1;
        }
        logs
    }

    fn mode(&self) -> Mode {
        Mode::Wire(self.server.addr())
    }

    fn factory(&self) -> Arc<MediatorFactory> {
        factory_for(&self.catalog, &self.cache, &self.tracer)
    }

    fn backend_stats(&self) -> Stats {
        self.db.stats().clone()
    }

    fn focus(&self) -> Focus {
        Focus::WireNav
    }
}
