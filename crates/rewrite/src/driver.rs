//! The rewrite driver: applies local rules and global passes to a
//! fixpoint, recording a replayable trace (the Figs. 13→22 derivation).

use crate::passes::{dead_elimination, join_to_semijoin};
use crate::rules::{try_rules, Applied, RuleCtx};
use crate::util::{children, use_counts, with_child};
use mix_algebra::plan::{all_vars, rename_var};
use mix_algebra::{Op, Plan};
use mix_wrapper::Catalog;

/// One recorded rewrite step.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// The rule or pass that fired.
    pub rule: String,
    /// The whole plan after the step (paper-figure rendering).
    pub plan: String,
}

/// The full derivation.
#[derive(Debug, Clone, Default)]
pub struct RewriteTrace {
    pub steps: Vec<TraceStep>,
}

impl RewriteTrace {
    /// Names of the rules applied, in order.
    pub fn rule_sequence(&self) -> Vec<&str> {
        self.steps.iter().map(|s| s.rule.as_str()).collect()
    }

    /// Render the whole derivation (one figure per step).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(&format!(
                "--- step {} ({}) ---\n{}\n",
                i + 1,
                s.rule,
                s.plan
            ));
        }
        out
    }
}

/// A rewritten plan plus its derivation.
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    pub plan: Plan,
    pub trace: RewriteTrace,
}

/// Safety cap on rewrite steps (each step strictly simplifies or pushes
/// work downward; the cap only guards against rule-interaction bugs).
const MAX_STEPS: usize = 500;

/// Run the Table 2 rules plus the global passes (selection pushdown is
/// a local rule; live-variable/dead-operator elimination and
/// join→semijoin conversion are whole-plan passes) to a fixpoint.
pub fn rewrite(plan: &Plan) -> RewriteOutcome {
    rewrite_with_disabled(plan, &[])
}

/// [`rewrite`] with the named rules disabled — the hook the ablation
/// experiments (E8) use to measure what a rule buys.
pub fn rewrite_with_disabled(plan: &Plan, disabled: &[&str]) -> RewriteOutcome {
    let mut plan = plan.clone();
    let mut trace = RewriteTrace::default();
    for _ in 0..MAX_STEPS {
        // Plan-level ⊥: a tD over the empty plan stays a tD over the
        // canonical empty — the tD is what carries the result-root
        // document name, and dropping it would re-root the (empty)
        // answer under a default name, diverging from the naive plan.
        if let Op::TupleDestroy { input, var, root } = &plan.root {
            if let Op::Empty { vars } = &**input {
                if vars.as_slice() != std::slice::from_ref(var) {
                    plan = Plan::new(Op::TupleDestroy {
                        input: Box::new(Op::Empty {
                            vars: vec![var.clone()],
                        }),
                        var: var.clone(),
                        root: root.clone(),
                    });
                    trace.steps.push(TraceStep {
                        rule: "empty-propagation".into(),
                        plan: plan.render(),
                    });
                    continue;
                }
            }
        }
        let counts = use_counts(&plan.root);
        let vars = all_vars(&plan.root);
        let ctx = RuleCtx {
            use_counts: &counts,
            all_vars: &vars,
            disabled,
        };
        if let Some(applied) = rewrite_first(&plan.root, &ctx) {
            let mut root = applied.op;
            for (from, to) in &applied.renames {
                root = rename_var(&root, from, to);
            }
            plan = Plan::new(root);
            trace.steps.push(TraceStep {
                rule: applied.rule.to_string(),
                plan: plan.render(),
            });
            continue;
        }
        if let Some(p2) = dead_elimination(&plan) {
            plan = p2;
            trace.steps.push(TraceStep {
                rule: "dead-elimination".into(),
                plan: plan.render(),
            });
            continue;
        }
        if let Some(p2) = join_to_semijoin(&plan) {
            plan = p2;
            trace.steps.push(TraceStep {
                rule: "join-to-semijoin".into(),
                plan: plan.render(),
            });
            continue;
        }
        break;
    }
    RewriteOutcome { plan, trace }
}

/// Rewrite + split: the full composition-optimization pipeline
/// (Section 6), ending with the maximal relational fragments pushed
/// into `rQ` operators (Fig. 22). Equal to `lower(rewrite(plan))`.
pub fn optimize(plan: &Plan, catalog: &Catalog) -> RewriteOutcome {
    lower(rewrite(plan), catalog)
}

/// The catalog-aware tail of [`optimize`]: schema-aware pruning
/// (interleaved with further rewriting) and the split into SQL
/// fragments, extending `out`'s trace. A caller that also needs the
/// logical (pre-prune, pre-split) plan rewrites once, keeps a copy of
/// [`rewrite`]'s plan, and lowers the outcome.
pub fn lower(mut out: RewriteOutcome, catalog: &Catalog) -> RewriteOutcome {
    // Schema-aware pruning (the paper's suggested source-schema rules):
    // may expose further simplification, so interleave with rewriting.
    while let Some(pruned) = crate::split::schema_prune(&out.plan, catalog) {
        out.trace.steps.push(TraceStep {
            rule: "schema-prune".into(),
            plan: pruned.render(),
        });
        let again = rewrite(&pruned);
        out.trace.steps.extend(again.trace.steps);
        out.plan = again.plan;
    }
    let split = crate::split::split_plan(&out.plan, catalog);
    if split != out.plan {
        out.trace.steps.push(TraceStep {
            rule: "split-to-sql".into(),
            plan: split.render(),
        });
        out.plan = split;
    }
    out
}

/// Find and apply the first (pre-order) rule match in the subtree.
fn rewrite_first(op: &Op, ctx: &RuleCtx) -> Option<Applied> {
    if let Some(a) = try_rules(op, ctx) {
        return Some(a);
    }
    let kids = children(op);
    for (i, kid) in kids.iter().enumerate() {
        if let Some(a) = rewrite_first(kid, ctx) {
            return Some(Applied {
                rule: a.rule,
                op: with_child(op, i, a.op),
                renames: a.renames,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_algebra::{translate, validate};
    use mix_xquery::parse_query;

    const Q1: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
         WHERE $C/id/data() = $O/cid/data() \
         RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";

    /// Fig. 12's query against the Q1 view, naively composed (Fig. 13).
    pub(super) fn fig13_for_fig22() -> Plan {
        fig13_plan()
    }

    fn fig13_plan() -> Plan {
        let view = translate(&parse_query(Q1).unwrap()).unwrap();
        let query = parse_query(
            "FOR $R in document(rootv)/CustRec $S in $R/OrderInfo \
             WHERE $S/order/value > 20000 RETURN $R",
        )
        .unwrap();
        let qplan = translate(&query).unwrap();
        // Splice: replace mksrc(rootv, $v) with mksrc-over-view.
        fn splice(op: &Op, view: &Plan) -> Op {
            match op {
                Op::MkSrc { source, var } if source.as_str() == "rootv" => Op::MkSrcOver {
                    input: Box::new(view.root.clone()),
                    var: var.clone(),
                },
                other => {
                    let kids = crate::util::children(other);
                    let mut out = other.clone();
                    for (i, k) in kids.iter().enumerate() {
                        out = crate::util::with_child(&out, i, splice(k, view));
                    }
                    out
                }
            }
        }
        // Alpha-rename the view to avoid clashes with query vars.
        let qvars = mix_algebra::plan::all_vars(&qplan.root);
        let mut view_renamed = view.root.clone();
        let mut taken = qvars.clone();
        taken.extend(mix_algebra::plan::all_vars(&view.root));
        for v in mix_algebra::plan::all_vars(&view.root) {
            if qvars.contains(&v) {
                let fresh = mix_algebra::plan::fresh_var(&format!("{v}v"), &taken);
                taken.push(fresh.clone());
                view_renamed = rename_var(&view_renamed, &v, &fresh);
            }
        }
        Plan::new(splice(&qplan.root, &Plan::new(view_renamed)))
    }

    #[test]
    fn fig13_to_fig21_derivation() {
        let naive = fig13_plan();
        validate(&naive).unwrap();
        let out = rewrite(&naive);
        validate(&out.plan)
            .unwrap_or_else(|e| panic!("rewritten plan invalid: {e}\n{}", out.plan.render()));
        let rules = out.trace.rule_sequence();
        // The derivation exercises the headline rules of Table 2.
        for expected in [
            "R11-td-mksrc",
            "R2-getd-crelt-exact",
            "R1-getd-crelt-push",
            "R5-getd-cat-push",
            "R9-join-introduction",
            "R10-chain-merge",
            "R3-getd-crelt-single",
            "select-pushdown",
            "join-to-semijoin",
            "R12-semijoin-below-group",
            "dead-elimination",
        ] {
            assert!(
                rules.contains(&expected),
                "expected {expected} in derivation; got {rules:?}\n{}",
                out.trace.render()
            );
        }
        let text = out.plan.render();
        // Fig. 21 shape: semijoin pushed below the grouping, selection
        // down at the source branch.
        assert!(
            text.contains("Lsemijoin") || text.contains("Rsemijoin"),
            "{text}"
        );
        assert!(
            text.contains("select($3 > 20000)") || text.contains("> 20000"),
            "{text}"
        );
        // The re-grouping machinery survives for the result shape.
        assert!(text.contains("gBy"), "{text}");
        assert!(text.contains("crElt(CustRec"), "{text}");
    }

    #[test]
    fn rewrite_is_idempotent_at_fixpoint() {
        let naive = fig13_plan();
        let once = rewrite(&naive);
        let twice = rewrite(&once.plan);
        assert!(twice.trace.steps.is_empty(), "{}", twice.trace.render());
        assert_eq!(once.plan, twice.plan);
    }

    #[test]
    fn unsatisfiable_composition_collapses() {
        let view = translate(&parse_query(Q1).unwrap()).unwrap();
        // Query a label the view never constructs.
        let q = parse_query("FOR $R in document(rootv)/Nothing WHERE $R/x > 1 RETURN $R").unwrap();
        let qplan = translate(&q).unwrap();
        let naive = {
            let Op::TupleDestroy { input, var, root } = qplan.root else {
                panic!()
            };
            // splice manually
            fn splice(op: &Op, view: &Plan) -> Op {
                match op {
                    Op::MkSrc { source, var } if source.as_str() == "rootv" => Op::MkSrcOver {
                        input: Box::new(view.root.clone()),
                        var: var.clone(),
                    },
                    other => {
                        let kids = crate::util::children(other);
                        let mut out = other.clone();
                        for (i, k) in kids.iter().enumerate() {
                            out = crate::util::with_child(&out, i, splice(k, view));
                        }
                        out
                    }
                }
            }
            // rename view vars (R,S,K don't collide except K/J/W/V/X/Z/C/O...)
            let mut vr = view.root.clone();
            let qvars = mix_algebra::plan::all_vars(&input);
            let mut taken = qvars.clone();
            taken.extend(mix_algebra::plan::all_vars(&view.root));
            for v in mix_algebra::plan::all_vars(&view.root) {
                if qvars.contains(&v) {
                    let fresh = mix_algebra::plan::fresh_var(&format!("{v}v"), &taken);
                    taken.push(fresh.clone());
                    vr = rename_var(&vr, &v, &fresh);
                }
            }
            Plan::new(Op::TupleDestroy {
                input: Box::new(splice(&input, &Plan::new(vr))),
                var,
                root,
            })
        };
        let out = rewrite(&naive);
        // The plan collapses to tD over empty: the tD survives because
        // it carries the result-root document name.
        assert!(
            matches!(
                &out.plan.root,
                Op::TupleDestroy { input, .. } if matches!(&**input, Op::Empty { .. })
            ),
            "expected tD(empty) plan:\n{}",
            out.plan.render()
        );
        assert!(out.trace.rule_sequence().contains(&"R4-unsatisfiable"));
    }
}

#[cfg(test)]
mod fig22_tests {
    use super::*;
    use mix_wrapper::fig2_catalog;

    #[test]
    fn fig22_single_pushed_sql_query() {
        // The complete Section 6 pipeline on the Fig. 13 naive
        // composition: rewrite + split must produce ONE rQ carrying a
        // four-table self-join with DISTINCT and the presorted-gBy
        // ORDER BY — the Fig. 22 outcome.
        let naive = super::tests::fig13_for_fig22();
        let (cat, _db) = fig2_catalog();
        let out = optimize(&naive, &cat);
        mix_algebra::validate(&out.plan)
            .unwrap_or_else(|e| panic!("invalid: {e}\n{}", out.plan.render()));
        let text = out.plan.render();
        assert_eq!(text.matches("rQ(").count(), 1, "{text}");
        assert!(text.contains("SELECT DISTINCT"), "{text}");
        // Four-table self-join: customer twice, orders twice.
        assert_eq!(text.matches("customer c").count(), 2, "{text}");
        assert_eq!(text.matches("orders o").count(), 2, "{text}");
        assert!(text.contains("> 20000"), "{text}");
        // ORDER BY the (kept) customer key, then the order key — the
        // presorted-gBy support of Fig. 22 (aliases may differ from the
        // paper's c1/o1).
        assert!(text.contains("ORDER BY c2.id, o2.orid"), "{text}");
        assert!(text.contains("c1.id = c2.id"), "{text}");
        // Mediator part keeps restructuring/grouping only.
        assert!(text.contains("crElt(CustRec"), "{text}");
        assert!(text.contains("gBy("), "{text}");
        assert!(!text.contains("mksrc"), "{text}");
    }
}
