//! Shared harness for the experiment suite and the benches.
//!
//! The paper has no quantitative evaluation section; its evaluation is
//! the worked example (Figures 2–22, Tables 1–2) and explicit
//! performance claims. [`figures`] regenerates every figure/table;
//! [`experiments`] measures every claim over parameter sweeps (the
//! tables EXPERIMENTS.md records). `cargo bench` runs the same
//! comparisons under the in-repo [`harness`] for wall-clock numbers.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod figures;
pub mod harness;

use mix::prelude::*;

/// The paper's running-example view Q1 (Fig. 3).
pub const Q1: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
     WHERE $C/id/data() = $O/cid/data() \
     RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";

/// The Fig. 12 query against the view.
pub const Q_FIG12: &str = "FOR $R in document(rootv)/CustRec $S in $R/OrderInfo \
     WHERE $S/order/value > 20000 RETURN $R";

/// A mediator over a fresh customers/orders database.
pub fn scaled_mediator(
    n_customers: usize,
    orders_per: usize,
    seed: u64,
    optimize: bool,
    access: AccessMode,
) -> (Mediator, Stats) {
    let (catalog, db) = mix_repro::datagen::customers_orders(n_customers, orders_per, seed);
    let stats = db.stats().clone();
    let m = Mediator::with_options(
        catalog,
        MediatorOptions::builder()
            .access(access)
            .optimize(optimize)
            .build(),
    );
    (m, stats)
}

/// Browse the first `k` children of a result shallowly.
pub fn browse_k(s: &mut mix::qdom::QdomSession, p0: QNode, k: usize) -> usize {
    let mut seen = 0;
    let mut cur = s.d(p0).expect("browse");
    while let Some(c) = cur {
        seen += 1;
        if seen >= k {
            break;
        }
        cur = s.r(c).expect("browse");
    }
    seen
}

/// Walk an entire result (every node).
pub fn drain(s: &mut mix::qdom::QdomSession, p: QNode) -> usize {
    fn walk(s: &mut mix::qdom::QdomSession, p: QNode, n: &mut usize) {
        *n += 1;
        let mut cur = s.d(p).expect("drain");
        while let Some(c) = cur {
            walk(s, c, n);
            cur = s.r(c).expect("drain");
        }
    }
    let mut n = 0;
    walk(s, p, &mut n);
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_browse_and_drain() {
        let (m, _stats) = scaled_mediator(10, 2, 1, true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        assert_eq!(browse_k(&mut s, p0, 3), 3);
        let nodes = drain(&mut s, p0);
        // 10 CustRecs, each: customer(+3 fields ×2 nodes) + 2 OrderInfo(order + 3 fields ×2)
        assert!(nodes > 10 * 8, "{nodes}");
    }
}
