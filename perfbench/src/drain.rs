//! `drain_local`: full result walks in process.
//!
//! One in-process session per cycle, all options at their defaults.
//! A cycle drains Q1, then the Fig. 12 query composed over Q1's result
//! (`q` from Q1's root), then Q1 again: two thirds of the drains are
//! Q1, so the drain median sits inside one population. The database is
//! 1000 customers × 2 orders; one Q1 drain materializes about 24k nodes,
//! several MiB, more than a core's 2 MiB L2.

use crate::client::Log;
use crate::workload::{Focus, Mode, Opener, Stop, Workload};
use mix::prelude::*;
use mix::serve::MediatorFactory;
use mix_bench::{Q1, Q_FIG12};
use mix_workload::Rng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const CUSTOMERS: usize = 1000;
const ORDERS_PER: usize = 2;

/// Fig. 12 as a query in place from Q1's root (composition).
fn fig12_inplace() -> String {
    Q_FIG12.replace("document(rootv)", "document(root)")
}

pub struct DrainLocal {
    catalog: Catalog,
    db: Database,
    tracer: TracerHandle,
    fig12: String,
}

fn factory_for(
    catalog: &Catalog,
    access: AccessMode,
    tracer: &TracerHandle,
) -> Arc<MediatorFactory> {
    let (catalog, tracer) = (catalog.clone(), tracer.clone());
    Arc::new(move || {
        Mediator::with_options(
            catalog.clone(),
            MediatorOptions::builder()
                .access(access)
                .tracer(tracer.clone())
                .build(),
        )
    })
}

impl DrainLocal {
    pub fn setup(seed: u64, tracer: Option<TracerHandle>) -> DrainLocal {
        let data_seed = Rng(seed).split(2).next_u64();
        let (catalog, db) = mix_repro::datagen::customers_orders(CUSTOMERS, ORDERS_PER, data_seed);
        DrainLocal {
            catalog,
            db,
            tracer: tracer.unwrap_or_else(TracerHandle::null),
            fig12: fig12_inplace(),
        }
    }

    /// One cycle on a fresh session: Q1, Fig. 12 over Q1, Q1. With
    /// `digest`, also render each drained result and return
    /// (nodes, render hash) per drain.
    fn cycle(&self, opener: &mut Opener, digest: bool) -> (Log, Vec<(u64, u64)>) {
        let mut c = opener.open();
        let mut out = Vec::new();
        let mut note = |c: &mut crate::client::Client<'static>, root: WireNode, nodes: u64| {
            if digest {
                let mut h = DefaultHasher::new();
                c.render(root).hash(&mut h);
                out.push((nodes, h.finish()));
            }
        };
        if let Some((p0, n)) = c.query_drain(Q1) {
            note(&mut c, p0, n);
            if let Some((p1, n)) = c.q_drain(&self.fig12, p0) {
                note(&mut c, p1, n);
            }
        }
        if let Some((p2, n)) = c.query_drain(Q1) {
            note(&mut c, p2, n);
        }
        (opener.close(c), out)
    }
}

impl Workload for DrainLocal {
    fn describe(&self) -> String {
        format!(
            "drain_local: {CUSTOMERS} customers x {ORDERS_PER} orders, in process, default options, \
             cycle = drain Q1, drain Fig.12 composed over Q1, drain Q1"
        )
    }

    fn warm_items(&self) -> usize {
        1
    }

    fn counted_items(&self) -> usize {
        2
    }

    fn check(&mut self) -> std::result::Result<(), String> {
        let mut lazy = Opener::new(self.mode(), false);
        let mut eager = Opener::new(
            Mode::InProcess(factory_for(
                &self.catalog,
                AccessMode::Eager,
                &TracerHandle::null(),
            )),
            false,
        );
        let (_, l) = self.cycle(&mut lazy, true);
        let (_, e) = self.cycle(&mut eager, true);
        if l.len() != 3 || l != e {
            return Err(format!(
                "drain_local: lazy (nodes, render digest) {l:?} differ from eager {e:?}"
            ));
        }
        Ok(())
    }

    fn run_with(&mut self, opener: &mut Opener, stop: Stop) -> Vec<Log> {
        let mut logs = Vec::new();
        let mut i = stop.first;
        while !stop.done(i) {
            logs.push(self.cycle(opener, false).0);
            i += 1;
        }
        logs
    }

    fn mode(&self) -> Mode {
        Mode::InProcess(self.factory())
    }

    fn factory(&self) -> Arc<MediatorFactory> {
        factory_for(&self.catalog, AccessMode::Lazy, &self.tracer)
    }

    fn backend_stats(&self) -> Stats {
        self.db.stats().clone()
    }

    fn focus(&self) -> Focus {
        Focus::Drain
    }
}
