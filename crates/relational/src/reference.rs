//! A deliberately naive reference evaluator.
//!
//! Computes SELECT statements by materializing the full cartesian
//! product and filtering — obviously correct, obviously slow. Property
//! tests compare the pipelined executor against it.

use crate::ast::{ColRef, Operand, SelectStmt};
use crate::db::Database;
use crate::table::Row;
use mix_common::{MixError, Result, Value};

/// Evaluate `stmt` the slow, obvious way.
pub fn eval_reference(db: &Database, stmt: &SelectStmt) -> Result<Vec<Row>> {
    if stmt.from.is_empty() {
        return Err(MixError::invalid("empty FROM clause"));
    }
    // Materialize the cartesian product, tracking column offsets.
    let mut offsets = Vec::new();
    let mut rows: Vec<Row> = vec![vec![]];
    let mut offset = 0;
    for item in &stmt.from {
        let t = db.table(item.table.as_str())?;
        offsets.push((item.binding().clone(), t.schema().clone(), offset));
        offset += t.schema().arity();
        let mut next = Vec::new();
        for base in &rows {
            for r in t.rows() {
                let mut row = base.clone();
                row.extend(r.iter().cloned());
                next.push(row);
            }
        }
        rows = next;
    }
    let resolve = |col: &ColRef| -> Result<usize> {
        let mut found = None;
        for (name, schema, off) in &offsets {
            let applies = match &col.qualifier {
                Some(q) => q == name,
                None => true,
            };
            if !applies {
                continue;
            }
            if let Some(i) = schema.col_index(col.column.as_str()) {
                if found.is_some() && col.qualifier.is_none() {
                    return Err(MixError::invalid(format!("ambiguous column {col}")));
                }
                found = Some(off + i);
                if col.qualifier.is_some() {
                    break;
                }
            }
        }
        found.ok_or_else(|| MixError::unknown("column", col.to_string()))
    };
    // Filter.
    let mut preds = Vec::new();
    for p in &stmt.preds {
        let l = resolve(&p.lhs)?;
        let r = match &p.rhs {
            Operand::Const(v) => Err(v.clone()),
            Operand::Col(c) => Ok(resolve(c)?),
        };
        preds.push((l, p.op, r));
    }
    rows.retain(|row| {
        preds.iter().all(|(l, op, r)| {
            let rv: &Value = match r {
                Ok(i) => &row[*i],
                Err(v) => v,
            };
            row[*l].satisfies(*op, rv)
        })
    });
    // Sort.
    if !stmt.order_by.is_empty() {
        let keys: Vec<usize> = stmt
            .order_by
            .iter()
            .map(&resolve)
            .collect::<Result<Vec<_>>>()?;
        rows.sort_by(|a, b| {
            for &k in &keys {
                let o = a[k].total_cmp(&b[k]);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    // Project.
    let cols: Vec<usize> = if stmt.items.is_empty() {
        (0..offset).collect()
    } else {
        stmt.items
            .iter()
            .map(|it| resolve(&it.col))
            .collect::<Result<Vec<_>>>()?
    };
    let mut out: Vec<Row> = rows
        .iter()
        .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
        .collect();
    // Distinct (stable, first occurrence wins).
    if stmt.distinct {
        let mut seen = std::collections::HashSet::new();
        out.retain(|r| seen.insert(r.clone()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{gen_db, sample_db};
    use crate::parser::parse_sql;

    /// Sort rows for order-insensitive comparison.
    fn canon(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let o = x.total_cmp(y);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows
    }

    #[test]
    fn executor_agrees_with_reference_on_sample_queries() {
        let dbs = [sample_db(), gen_db(17, 3, 9)];
        let queries = [
            "SELECT * FROM customer",
            "SELECT c.name FROM customer c WHERE c.name < 'B'",
            "SELECT c.id, o.value FROM customer c, orders o WHERE c.id = o.cid",
            "SELECT DISTINCT c.id FROM customer c, orders o WHERE c.id = o.cid AND o.value > 100",
            "SELECT c.id, o.orid FROM customer c, orders o WHERE c.id = o.cid ORDER BY c.id, o.orid",
            "SELECT c1.id FROM customer c1, customer c2 WHERE c1.id = c2.id AND c2.name < 'M'",
            "SELECT c.id, o.orid FROM customer c, orders o",
            "SELECT c.id, o.orid FROM customer c, orders o WHERE o.cid > c.id AND o.value > 100",
            "SELECT o.orid FROM orders o WHERE o.value >= 500 AND o.value != 2400",
        ];
        for db in &dbs {
            for q in &queries {
                let stmt = parse_sql(q).unwrap();
                let fast = db.execute(&stmt).unwrap().collect_all().unwrap();
                let slow = eval_reference(db, &stmt).unwrap();
                if stmt.order_by.is_empty() {
                    assert_eq!(canon(fast), canon(slow), "query: {q}");
                } else {
                    assert_eq!(fast, slow, "query: {q}");
                }
            }
        }
    }
}
