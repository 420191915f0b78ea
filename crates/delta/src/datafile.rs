//! Data-file encoding and statistics collection.
//!
//! Data files are JSON row groups — a stand-in for Parquet that preserves
//! what the experiments need: per-file min/max/null statistics enabling
//! scan pruning, and a realistic relationship between row count and file
//! size so OPTIMIZE/compaction has something to optimize.

use std::collections::BTreeMap;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::actions::ColumnStats;
use crate::error::{DeltaError, DeltaResult};
use crate::expr::Cells;
use crate::value::{Row, Schema, Value, ValueRef};

/// On-storage representation of a data file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataFile {
    pub rows: Vec<Row>,
}

/// Encode rows, validating each against the schema.
#[expect(clippy::expect_used, reason = "rows are schema-validated first; serialization is infallible")]
pub fn encode_rows(schema: &Schema, rows: &[Row]) -> DeltaResult<Bytes> {
    for row in rows {
        schema.validate_row(row).map_err(DeltaError::Schema)?;
    }
    let file = DataFile { rows: rows.to_vec() };
    Ok(Bytes::from(serde_json::to_vec(&file).expect("rows serialize")))
}

/// Decode a data file.
pub fn decode_rows(data: &[u8]) -> DeltaResult<Vec<Row>> {
    let file: DataFile = serde_json::from_slice(data)
        .map_err(|e| DeltaError::Corrupt(format!("bad data file: {e}")))?;
    Ok(file.rows)
}

/// One value of a cached row in 16 bytes; a string is a range of the
/// file's shared text buffer.
#[derive(Debug, Clone, Copy)]
enum Cell {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str { start: u32, len: u32 },
}

/// The decoded rows of one data file, packed: one buffer of fixed-size
/// cells (`width` per row) and one buffer holding every string — two
/// allocations per file, where `Vec<Row>` makes one per row and one per
/// string. This is what the table cache holds. Scans evaluate predicates
/// over it through [`RowRef`], reading each cell in place; a scan builds a
/// `Vec<Value>` only for a row it keeps, of only the columns it keeps.
#[derive(Debug)]
pub struct FileRows {
    width: usize,
    len: usize,
    cells: Box<[Cell]>,
    text: Box<str>,
}

/// One row of a [`FileRows`].
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    cells: &'a [Cell],
    text: &'a str,
}

impl<'a> RowRef<'a> {
    fn view(&self, cell: &Cell) -> ValueRef<'a> {
        match *cell {
            Cell::Null => ValueRef::Null,
            Cell::Bool(b) => ValueRef::Bool(b),
            Cell::Int(i) => ValueRef::Int(i),
            Cell::Float(f) => ValueRef::Float(f),
            Cell::Str { start, len } => {
                let start = start as usize;
                ValueRef::Str(&self.text[start..start + len as usize])
            }
        }
    }

    /// The row as an owned [`Row`].
    pub fn to_vec(&self) -> Row {
        self.cells.iter().map(|c| self.view(c).to_value()).collect()
    }
}

impl Cells for RowRef<'_> {
    fn cell(&self, idx: usize) -> Option<ValueRef<'_>> {
        self.cells.get(idx).map(|c| self.view(c))
    }
}

impl FileRows {
    /// Pack decoded rows. Rows of unequal width cannot come from
    /// [`encode_rows`] (it validates against the schema), and string
    /// offsets are 32-bit: either is reported as corruption.
    pub fn from_rows(rows: Vec<Row>) -> DeltaResult<FileRows> {
        let len = rows.len();
        let width = rows.first().map_or(0, Vec::len);
        if rows.iter().any(|r| r.len() != width) {
            return Err(DeltaError::Corrupt("data file rows differ in width".into()));
        }
        let mut cells = Vec::with_capacity(len * width);
        let mut text = String::new();
        for value in rows.into_iter().flatten() {
            cells.push(match value {
                Value::Null => Cell::Null,
                Value::Bool(b) => Cell::Bool(b),
                Value::Int(i) => Cell::Int(i),
                Value::Float(f) => Cell::Float(f),
                Value::Str(s) => {
                    let (Ok(start), Ok(len)) = (u32::try_from(text.len()), u32::try_from(s.len()))
                    else {
                        return Err(DeltaError::Corrupt(
                            "data file holds more than 4 GiB of text".into(),
                        ));
                    };
                    text.push_str(&s);
                    Cell::Str { start, len }
                }
            });
        }
        Ok(FileRows { width, len, cells: cells.into_boxed_slice(), text: text.into_boxed_str() })
    }

    /// Decode a data file straight into the packed form.
    pub fn decode(data: &[u8]) -> DeltaResult<FileRows> {
        FileRows::from_rows(decode_rows(data)?)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows, in file order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + '_ {
        (0..self.len).map(move |i| RowRef {
            cells: &self.cells[i * self.width..(i + 1) * self.width],
            text: &self.text,
        })
    }

    /// Estimate of the heap held, allocator overhead included.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<FileRows>()
            + crate::cache::alloc_bytes(std::mem::size_of_val(&*self.cells))
            + crate::cache::alloc_bytes(self.text.len())
    }
}

/// Compute per-column min/max/null-count statistics for a row batch.
pub fn collect_stats(schema: &Schema, rows: &[Row]) -> BTreeMap<String, ColumnStats> {
    let mut stats: BTreeMap<String, ColumnStats> = BTreeMap::new();
    for (idx, field) in schema.fields.iter().enumerate() {
        let mut s = ColumnStats::default();
        for row in rows {
            match row.get(idx) {
                Some(Value::Null) | None => s.null_count += 1,
                Some(v) => {
                    let lower = match &s.min {
                        Some(cur) => v.try_cmp(cur) == Some(std::cmp::Ordering::Less),
                        None => true,
                    };
                    if lower {
                        s.min = Some(v.clone());
                    }
                    let higher = match &s.max {
                        Some(cur) => v.try_cmp(cur) == Some(std::cmp::Ordering::Greater),
                        None => true,
                    };
                    if higher {
                        s.max = Some(v.clone());
                    }
                }
            }
        }
        stats.insert(field.name.clone(), s);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Str),
        ])
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = schema();
        let rows = vec![
            vec![Value::Int(1), Value::Str("a".into())],
            vec![Value::Int(2), Value::Null],
        ];
        let bytes = encode_rows(&s, &rows).unwrap();
        assert_eq!(decode_rows(&bytes).unwrap(), rows);
    }

    #[test]
    fn encode_rejects_invalid_rows() {
        let s = schema();
        let bad = vec![vec![Value::Str("not an int".into()), Value::Null]];
        assert!(matches!(encode_rows(&s, &bad), Err(DeltaError::Schema(_))));
    }

    #[test]
    fn stats_cover_min_max_nulls() {
        let s = schema();
        let rows = vec![
            vec![Value::Int(5), Value::Str("m".into())],
            vec![Value::Int(-3), Value::Null],
            vec![Value::Int(9), Value::Str("a".into())],
        ];
        let stats = collect_stats(&s, &rows);
        assert_eq!(stats["id"].min, Some(Value::Int(-3)));
        assert_eq!(stats["id"].max, Some(Value::Int(9)));
        assert_eq!(stats["id"].null_count, 0);
        assert_eq!(stats["name"].min, Some(Value::Str("a".into())));
        assert_eq!(stats["name"].max, Some(Value::Str("m".into())));
        assert_eq!(stats["name"].null_count, 1);
    }

    #[test]
    fn stats_of_empty_batch_are_empty() {
        let stats = collect_stats(&schema(), &[]);
        assert_eq!(stats["id"].min, None);
        assert_eq!(stats["id"].null_count, 0);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_rows(b"[[[").is_err());
    }

    #[test]
    fn packed_rows_read_back_exactly_and_by_reference() {
        let rows = vec![
            vec![Value::Int(1), Value::Str("ann".into()), Value::Null],
            vec![Value::Float(2.5), Value::Str(String::new()), Value::Bool(true)],
            vec![Value::Int(-3), Value::Str("zoë".into()), Value::Bool(false)],
        ];
        let packed = FileRows::from_rows(rows.clone()).unwrap();
        assert_eq!(packed.len(), 3);
        let back: Vec<Row> = packed.iter().map(|r| r.to_vec()).collect();
        assert_eq!(back, rows);
        let second = packed.iter().nth(1).unwrap();
        assert_eq!(second.cell(0).map(ValueRef::to_value), Some(Value::Float(2.5)));
        assert_eq!(second.cell(1).map(ValueRef::to_value), Some(Value::Str(String::new())));
        assert!(second.cell(3).is_none(), "past the end of the row");
        // an expression sees the same row either way
        let e = crate::expr::Expr::cmp("name", crate::expr::CmpOp::Eq, "zoë");
        let s = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("flag", DataType::Bool),
        ]);
        let bound = e.bind(&s, &crate::expr::EvalContext::anonymous()).unwrap();
        let kept: Vec<bool> = packed.iter().map(|r| bound.matches(&r).unwrap()).collect();
        let owned: Vec<bool> = rows.iter().map(|r| bound.matches(r.as_slice()).unwrap()).collect();
        assert_eq!(kept, owned);
        assert_eq!(kept, vec![false, false, true]);
    }

    #[test]
    fn packing_handles_empty_files_and_rejects_ragged_ones() {
        assert!(FileRows::from_rows(vec![]).unwrap().is_empty());
        // rows of no columns are still rows
        let no_columns = FileRows::from_rows(vec![vec![], vec![]]).unwrap();
        assert_eq!(no_columns.iter().map(|r| r.to_vec()).collect::<Vec<_>>(), vec![Row::new(), Row::new()]);
        let ragged = vec![vec![Value::Int(1)], vec![Value::Int(1), Value::Int(2)]];
        assert!(matches!(FileRows::from_rows(ragged), Err(DeltaError::Corrupt(_))));
    }
}
