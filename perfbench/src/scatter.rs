//! `scatter_rtt`: a 4-shard federation behind a modelled round trip.
//!
//! The customers/orders data (400 × 2) is hash-partitioned over four
//! shards (customer by `id`, orders co-partitioned by `cid`). Every
//! statement pays a modelled 1 ms per block pull and 5% of block pulls
//! hit a seeded transient fault, under the default retry budget and
//! `PrefetchPolicy::Auto`. A cycle, on one in-process session, issues
//! six routed point lookups (one shard each, looked at shallowly), one
//! full drain of Q1 (a scatter over all four shards through the k-way
//! merge), and two in-place queries from CustRecs of that drain.

use crate::client::{same_transcript, transcript, Client, Log};
use crate::workload::{Focus, Mode, Opener, Stop, Workload};
use mix::prelude::*;
use mix::serve::MediatorFactory;
use mix_bench::Q1;
use mix_repro::datagen::{customers_orders, customers_orders_sharded, ShardLayout};
use mix_workload::{Norm, Rng};
use std::sync::Arc;

const CUSTOMERS: usize = 400;
const ORDERS_PER: usize = 2;
const SHARDS: usize = 4;
const RTT_MS: u64 = 1;
/// Transient faults per thousand block pulls.
const FAULTS_PER_MILLE: u16 = 50;
const LOOKUPS: usize = 6;
const INPLACE: usize = 2;
/// Cycles replayed by the correctness pin.
const PIN_CYCLES: usize = 2;

pub struct ScatterRtt {
    seed: u64,
    catalog: Catalog,
    sharded: ShardedDatabase,
    tracer: TracerHandle,
}

fn factory_for(catalog: &Catalog, tracer: &TracerHandle) -> Arc<MediatorFactory> {
    let (catalog, tracer) = (catalog.clone(), tracer.clone());
    Arc::new(move || {
        Mediator::with_options(
            catalog.clone(),
            MediatorOptions::builder()
                .prefetch(PrefetchPolicy::Auto)
                .tracer(tracer.clone())
                .build(),
        )
    })
}

fn lookup(k: u64) -> String {
    format!("FOR $C IN source(&root1)/customer WHERE $C/id/data() = \"C{k:06}\" RETURN $C")
}

fn inplace(v: u64) -> String {
    format!("FOR $O IN document(root)/OrderInfo WHERE $O/order/value < {v} RETURN $O")
}

impl ScatterRtt {
    pub fn setup(seed: u64, tracer: Option<TracerHandle>) -> ScatterRtt {
        let data_seed = Rng(seed).split(4).next_u64();
        let (catalog, sharded) =
            customers_orders_sharded(CUSTOMERS, ORDERS_PER, data_seed, ShardLayout::Hash(SHARDS));
        sharded.set_latency_ms(Some(RTT_MS));
        sharded.set_fault_policy(Some(
            FaultPolicy::transient(Rng(seed).split(5).next_u64(), FAULTS_PER_MILLE).with_burst(1),
        ));
        ScatterRtt {
            seed,
            catalog,
            sharded,
            tracer: tracer.unwrap_or_else(TracerHandle::null),
        }
    }

    /// One cycle on a fresh session. With `render`, every result root
    /// is also rendered (the pin compares the renders).
    fn cycle(&self, opener: &mut Opener, i: usize, render: bool) -> Log {
        let mut rng = Rng(self.seed).split(3000 + i as u64);
        let mut c = opener.open();
        for _ in 0..LOOKUPS {
            let text = lookup(rng.below(CUSTOMERS as u64));
            if let Some((p, first)) = c.query_first(&text) {
                if let Some(cust) = first {
                    look(&mut c, cust);
                }
                if render {
                    c.render(p);
                }
            }
        }
        if let Some((p0, _)) = c.query_drain(Q1) {
            if render {
                c.render(p0);
            }
            for _ in 0..INPLACE {
                // Step (over materialized nodes) to a CustRec of the drain.
                let mut node = c.d(p0);
                for _ in 0..rng.below(16) {
                    node = node.and_then(|n| c.r(n));
                }
                let Some(rec) = node else { break };
                let text = inplace(rng.below(100_000));
                if let Some((p, first)) = c.q_first(&text, rec) {
                    if let Some(kid) = first {
                        c.fl(kid);
                    }
                    if render {
                        c.render(p);
                    }
                }
            }
        }
        opener.close(c)
    }
}

/// A shallow look at a customer element: its label and first field's
/// value.
fn look(c: &mut Client<'static>, cust: WireNode) {
    c.fl(cust);
    if let Some(field) = c.d(cust) {
        if let Some(leaf) = c.d(field) {
            c.fv(leaf);
        }
    }
}

impl Workload for ScatterRtt {
    fn describe(&self) -> String {
        format!(
            "scatter_rtt: {CUSTOMERS} customers x {ORDERS_PER} orders over {SHARDS} hash shards, \
             {RTT_MS} ms modelled RTT per block pull, {FAULTS_PER_MILLE}/1000 transient faults, \
             Prefetch::Auto; cycle = {LOOKUPS} routed lookups, 1 scatter drain of Q1, {INPLACE} in-place q"
        )
    }

    fn warm_items(&self) -> usize {
        4
    }

    fn counted_items(&self) -> usize {
        8
    }

    fn check(&mut self) -> std::result::Result<(), String> {
        let data_seed = Rng(self.seed).split(4).next_u64();
        let (whole, _db) = customers_orders(CUSTOMERS, ORDERS_PER, data_seed);
        let mut sharded = Opener::new(self.mode(), true);
        let mut single = Opener::new(
            Mode::InProcess(factory_for(&whole, &TracerHandle::null())),
            true,
        );
        for i in 0..PIN_CYCLES {
            self.cycle(&mut sharded, i, true);
            self.cycle(&mut single, i, true);
        }
        for (i, (s, w)) in sharded.sessions.iter().zip(&single.sessions).enumerate() {
            same_transcript(
                &format!("scatter_rtt cycle {i}: 4-shard vs unsharded"),
                &transcript(s, Norm::Exact),
                &transcript(w, Norm::Exact),
            )?;
            if s.iter().any(|(_, r)| matches!(r, Reply::Err(_))) {
                return Err(format!("scatter_rtt cycle {i}: a command failed"));
            }
        }
        Ok(())
    }

    fn run_with(&mut self, opener: &mut Opener, stop: Stop) -> Vec<Log> {
        let mut logs = Vec::new();
        let mut i = stop.first;
        while !stop.done(i) {
            logs.push(self.cycle(opener, i, false));
            i += 1;
        }
        logs
    }

    fn mode(&self) -> Mode {
        Mode::InProcess(self.factory())
    }

    fn factory(&self) -> Arc<MediatorFactory> {
        factory_for(&self.catalog, &self.tracer)
    }

    fn backend_stats(&self) -> Stats {
        self.sharded.stats().clone()
    }

    fn focus(&self) -> Focus {
        Focus::Drain
    }

    fn set_modelled_rtt(&self, on: bool) -> bool {
        self.sharded.set_latency_ms(on.then_some(RTT_MS));
        true
    }
}
