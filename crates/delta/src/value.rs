//! Values, rows, and schemas — the data vocabulary shared by the table
//! format, the expression language, and the engine.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A dynamically-typed scalar.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "t", content = "v")]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
}

impl Value {
    /// The data type of this value, `None` for null.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Three-valued comparison: [`ValueRef::try_cmp`].
    pub fn try_cmp(&self, other: &Value) -> Option<Ordering> {
        ValueRef::from(self).try_cmp(other.into())
    }
}

/// A value read in place: a borrowed cell of a row, a string pointing into
/// the row's (or the cached file's) text. What bound expressions compare.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
}

impl ValueRef<'_> {
    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Three-valued comparison: `None` when either side is null or the
    /// types are incomparable (ints and floats compare numerically).
    pub fn try_cmp(self, other: ValueRef<'_>) -> Option<Ordering> {
        match (self, other) {
            (ValueRef::Null, _) | (_, ValueRef::Null) => None,
            (ValueRef::Bool(a), ValueRef::Bool(b)) => Some(a.cmp(&b)),
            (ValueRef::Int(a), ValueRef::Int(b)) => Some(a.cmp(&b)),
            (ValueRef::Float(a), ValueRef::Float(b)) => a.partial_cmp(&b),
            (ValueRef::Int(a), ValueRef::Float(b)) => (a as f64).partial_cmp(&b),
            (ValueRef::Float(a), ValueRef::Int(b)) => a.partial_cmp(&(b as f64)),
            (ValueRef::Str(a), ValueRef::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// The owned value; a string is copied.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::Str(s.to_string()),
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Null => write!(f, "NULL"),
            ValueRef::Bool(b) => write!(f, "{b}"),
            ValueRef::Int(i) => write!(f, "{i}"),
            ValueRef::Float(x) => write!(f, "{x}"),
            ValueRef::Str(s) => write!(f, "{s}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Null != Null, SQL-style, is handled at the expression layer;
        // structural equality here treats nulls as equal so values can be
        // used in collections and assertions.
        match (self, other) {
            (Value::Null, Value::Null) => true,
            _ => self.try_cmp(other) == Some(Ordering::Equal),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ValueRef::from(self).fmt(f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "BIGINT",
            DataType::Float => "DOUBLE",
            DataType::Str => "STRING",
        };
        write!(f, "{s}")
    }
}

impl DataType {
    /// Parse a SQL type name (case-insensitive, common aliases accepted).
    pub fn parse(s: &str) -> Option<DataType> {
        match s.to_ascii_uppercase().as_str() {
            "BOOLEAN" | "BOOL" => Some(DataType::Bool),
            "BIGINT" | "INT" | "INTEGER" | "LONG" => Some(DataType::Int),
            "DOUBLE" | "FLOAT" | "REAL" => Some(DataType::Float),
            "STRING" | "VARCHAR" | "TEXT" => Some(DataType::Str),
            _ => None,
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl Field {
    pub fn new(name: &str, data_type: DataType) -> Self {
        Field { name: name.to_string(), data_type, nullable: true }
    }

    pub fn not_null(name: &str, data_type: DataType) -> Self {
        Field { name: name.to_string(), data_type, nullable: false }
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Schema {
    pub fields: Vec<Field>,
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Validate that a row conforms: arity, types, nullability.
    pub fn validate_row(&self, row: &Row) -> Result<(), String> {
        if row.len() != self.fields.len() {
            return Err(format!(
                "row has {} values, schema has {} fields",
                row.len(),
                self.fields.len()
            ));
        }
        for (field, value) in self.fields.iter().zip(row.iter()) {
            match value.data_type() {
                None if !field.nullable => {
                    return Err(format!("null in non-nullable column {}", field.name))
                }
                Some(dt)
                    if dt != field.data_type
                        // ints are acceptable where floats are expected
                        && !(dt == DataType::Int && field.data_type == DataType::Float) =>
                {
                    return Err(format!(
                        "column {} expects {}, got {}",
                        field.name, field.data_type, dt
                    ))
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// A row is a vector of values ordered by the schema's fields.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_comparisons() {
        assert_eq!(Value::Int(1).try_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(Value::Int(2).try_cmp(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(
            Value::Str("a".into()).try_cmp(&Value::Str("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Null.try_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).try_cmp(&Value::Str("1".into())), None);
    }

    #[test]
    fn value_equality_mixes_numeric_types() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn datatype_parsing() {
        assert_eq!(DataType::parse("bigint"), Some(DataType::Int));
        assert_eq!(DataType::parse("STRING"), Some(DataType::Str));
        assert_eq!(DataType::parse("double"), Some(DataType::Float));
        assert_eq!(DataType::parse("bool"), Some(DataType::Bool));
        assert_eq!(DataType::parse("blob"), None);
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Str),
        ]);
        assert_eq!(s.index_of("name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.field("id").unwrap().data_type, DataType::Int);
    }

    #[test]
    fn row_validation() {
        let s = Schema::new(vec![
            Field::not_null("id", DataType::Int),
            Field::new("score", DataType::Float),
        ]);
        assert!(s.validate_row(&vec![Value::Int(1), Value::Float(0.5)]).is_ok());
        // int promoted to float column
        assert!(s.validate_row(&vec![Value::Int(1), Value::Int(2)]).is_ok());
        // nullable column accepts null
        assert!(s.validate_row(&vec![Value::Int(1), Value::Null]).is_ok());
        // non-nullable rejects null
        assert!(s.validate_row(&vec![Value::Null, Value::Null]).is_err());
        // arity mismatch
        assert!(s.validate_row(&vec![Value::Int(1)]).is_err());
        // type mismatch
        assert!(s
            .validate_row(&vec![Value::Str("x".into()), Value::Null])
            .is_err());
    }

    #[test]
    fn value_serde_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(1.5),
            Value::Str("hi".into()),
        ] {
            let json = serde_json::to_string(&v).unwrap();
            let back: Value = serde_json::from_str(&json).unwrap();
            assert_eq!(v, back);
        }
    }
}
