//! `EXPLAIN ANALYZE` for XMAS plans.
//!
//! The engine's builders number plan nodes in *pre-order* (the node
//! itself, then its children in build order: `join` builds left before
//! right, `apply` builds its input before its nested plan). The same
//! walk here joins an [`ExecProfile`]'s per-node metrics back onto the
//! plan tree, so a rendered physical plan shows what each operator
//! actually did: pulls, tuples produced, and the physical detail the
//! builder recorded (kernel choice, `gBy` mode, pushed SQL).

use mix_algebra::{Op, Plan};
use mix_obs::ExecProfile;

/// The children of `op` in build/numbering order. Unlike
/// [`Op::inputs`], this includes `apply`'s nested plan (which the
/// builders number even though it is compiled lazily per tuple).
pub(crate) fn walk_children(op: &Op) -> Vec<&Op> {
    match op {
        Op::Apply { input, plan, .. } => vec![input, plan],
        _ => op.inputs(),
    }
}

/// Number of plan nodes in the subtree rooted at `op` (including `op`).
/// Builders use this to reserve id ranges for subtrees they skip or
/// compile lazily.
pub(crate) fn subtree_size(op: &Op) -> usize {
    1 + walk_children(op)
        .iter()
        .map(|c| subtree_size(c))
        .sum::<usize>()
}

/// Render `plan` as an indented tree with per-node metrics from
/// `profile` appended to each line:
///
/// ```text
/// tD($V, rootv)  [pulls=3 tuples=2]
///   crElt(CustRec, f($C), $W -> $V)  [pulls=3 tuples=2]
///     ...
///       rQ(db1, "SELECT ...", {$C = {1,2}})  [pulls=3 tuples=2] {server=db1 ...}
/// ```
///
/// Nodes the execution never touched (short-circuited branches, the
/// unnavigated part of a lazy result) carry `[never pulled]` — the
/// laziness claim, visible per operator.
pub fn render_annotated(plan: &Plan, profile: &ExecProfile) -> String {
    let mut out = String::new();
    let mut next = 0usize;
    render_node(&plan.root, profile, 0, &mut next, &mut out);
    out
}

fn render_node(op: &Op, profile: &ExecProfile, depth: usize, next: &mut usize, out: &mut String) {
    let id = *next;
    *next += 1;
    out.push_str(&"  ".repeat(depth));
    out.push_str(&op.head());
    match profile.get(id) {
        Some(m) => {
            out.push_str(&format!("  [pulls={} tuples={}", m.pulls, m.tuples_out));
            if m.retries > 0 {
                out.push_str(&format!(" retries={}", m.retries));
            }
            // Approximate: column block footprints, charged by `rQ`.
            // Zero (no blocks pulled) renders nothing.
            if m.alloc_bytes > 0 {
                out.push_str(&format!(" alloc≈{}B", m.alloc_bytes));
            }
            out.push(']');
            if let Some(d) = &m.detail {
                out.push_str(&format!(" {{{d}}}"));
            }
        }
        None => out.push_str("  [never pulled]"),
    }
    out.push('\n');
    for c in walk_children(op) {
        render_node(c, profile, depth + 1, next, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_common::Name;

    fn mk(src: &str, var: &str) -> Op {
        Op::MkSrc {
            source: Name::new(src),
            var: Name::new(var),
        }
    }

    #[test]
    fn subtree_sizes_count_nested_plans() {
        let apply = Op::Apply {
            input: Box::new(mk("r", "X")),
            plan: Box::new(Op::TupleDestroy {
                input: Box::new(mk("r", "Y")),
                var: Name::new("Y"),
                root: None,
            }),
            param: None,
            out: Name::new("Z"),
        };
        assert_eq!(subtree_size(&apply), 4); // apply, input, tD, mksrc
        let join = Op::Join {
            left: Box::new(mk("a", "A")),
            right: Box::new(mk("b", "B")),
            cond: None,
        };
        assert_eq!(subtree_size(&join), 3);
    }

    #[test]
    fn annotation_marks_untouched_nodes() {
        let plan = Plan {
            root: Op::TupleDestroy {
                input: Box::new(mk("r", "X")),
                var: Name::new("X"),
                root: None,
            },
        };
        let profile = ExecProfile::new();
        profile.record_pull(1);
        profile.record_tuples(1, 2);
        profile.set_detail(1, "src=r");
        let text = render_annotated(&plan, &profile);
        assert!(text.contains("tD($X)  [never pulled]"), "{text}");
        assert!(
            text.contains("mksrc(r, $X)  [pulls=1 tuples=2] {src=r}"),
            "{text}"
        );
    }
}
