//! Row storage.

use crate::schema::Schema;
use mix_common::{ColumnBlock, Result, Value};
use std::sync::OnceLock;

/// One tuple.
pub type Row = Vec<Value>;

/// An in-memory table: a schema plus rows in insertion order, with a
/// lazily built column-block mirror for the vectorized scan.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    rows: Vec<Row>,
    /// Column-block mirror of `rows`, built on first [`Table::block`]
    /// call and discarded by any mutation. `OnceLock` so concurrent
    /// scans through `Arc<Table>` share one build.
    cols: OnceLock<ColumnBlock>,
}

impl Clone for Table {
    fn clone(&self) -> Table {
        // The mirror is a cache: the clone rebuilds it on demand.
        Table {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            cols: OnceLock::new(),
        }
    }
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Table {
        Table {
            schema,
            rows: Vec::new(),
            cols: OnceLock::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append a row after schema checking.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        self.cols.take();
        self.rows.push(row);
        Ok(())
    }

    /// Append many rows.
    pub fn insert_all<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<()> {
        for r in rows {
            self.insert(r)?;
        }
        Ok(())
    }

    /// All rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table as one column block, built on first use. Cell
    /// values are shared with the row storage (`Arc` string handles are
    /// cloned, not re-interned), so the mirror costs one refcount bump
    /// per string cell plus the typed vectors themselves.
    pub fn block(&self) -> &ColumnBlock {
        self.cols.get_or_init(|| {
            let mut b = ColumnBlock::new(self.schema.arity());
            b.reserve(self.rows.len());
            for r in &self.rows {
                b.push_row(r.clone());
            }
            b
        })
    }

    /// Sort rows by the primary key (the wrapper exports tuples in key
    /// order so repeated scans are deterministic).
    pub fn sort_by_key(&mut self) {
        let key: Vec<usize> = self.schema.key().to_vec();
        self.cols.take();
        self.rows.sort_by(|a, b| {
            for &k in &key {
                let o = a[k].total_cmp(&b[k]);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn orders() -> Table {
        let s = Schema::new(
            vec![
                Column::new("orid", ColumnType::Int),
                Column::new("cid", ColumnType::Text),
                Column::new("value", ColumnType::Int),
            ],
            &["orid"],
        )
        .unwrap();
        Table::new(s)
    }

    #[test]
    fn insert_and_read() {
        let mut t = orders();
        t.insert(vec![
            Value::Int(28904),
            Value::str("XYZ123"),
            Value::Int(2400),
        ])
        .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][2], Value::Int(2400));
        assert!(t.insert(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn columnar_mirror_tracks_mutations() {
        let mut t = orders();
        t.insert(vec![Value::Int(2), Value::str("b"), Value::Int(20)])
            .unwrap();
        let c = t.block();
        assert_eq!(c.len(), 1);
        assert_eq!(c.value_at(0, 2), Value::Int(20));
        // Mutation discards the mirror; the next call rebuilds it.
        t.insert(vec![Value::Int(1), Value::str("a"), Value::Int(10)])
            .unwrap();
        assert_eq!(t.block().len(), 2);
        t.sort_by_key();
        assert_eq!(t.block().value_at(0, 0), Value::Int(1));
        // Clones rebuild their own mirror.
        let u = t.clone();
        assert_eq!(u.block().len(), 2);
    }

    #[test]
    fn sort_by_key_orders_rows() {
        let mut t = orders();
        for orid in [3, 1, 2] {
            t.insert(vec![Value::Int(orid), Value::str("c"), Value::Int(0)])
                .unwrap();
        }
        t.sort_by_key();
        let ids: Vec<_> = t.rows().iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    }
}
