// Vendored offline shim (see shims/README.md): not held to workspace lint
// standards so the call-site-compatible surface can stay close to upstream.
#![allow(clippy::all)]

//! Workspace-local stand-in for `serde`.
//!
//! The real serde is a visitor-driven framework; this shim collapses it to
//! a *content tree*: [`Serialize`] renders a value into [`Value`] (a JSON
//! data model) and [`Deserialize`] rebuilds a value from one. The derive
//! macros (re-exported from the sibling `serde_derive` shim) generate
//! straightforward `to_content`/`from_content` code for the attribute
//! subset this workspace uses: `#[serde(tag = "...")]`,
//! `#[serde(content = "...")]`, `#[serde(rename_all = "camelCase")]`, and
//! `#[serde(rename = "...")]`. `serde_json` (also shimmed) prints and
//! parses the same `Value`, so wire formats match real serde for these
//! shapes: externally / internally / adjacently tagged enums, named-field
//! structs, and transparent newtype structs.

use std::collections::BTreeMap;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Data model
// ---------------------------------------------------------------------------

/// JSON-shaped content tree. Objects preserve insertion order.
#[derive(Clone, Debug)]
pub enum Value {
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// A JSON number, preserving u64 values above `i64::MAX`.
#[derive(Clone, Copy, Debug)]
pub enum Number {
    I64(i64),
    U64(u64),
    F64(f64),
}

impl Number {
    pub fn as_f64(self) -> f64 {
        match self {
            Number::I64(v) => v as f64,
            Number::U64(v) => v as f64,
            Number::F64(v) => v,
        }
    }

    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::I64(v) => Some(v),
            Number::U64(v) => i64::try_from(v).ok(),
            Number::F64(_) => None,
        }
    }

    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::I64(v) => u64::try_from(v).ok(),
            Number::U64(v) => Some(v),
            Number::F64(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.as_i64(), other.as_i64()) {
            (Some(a), Some(b)) => return a == b,
            (None, None) => {}
            _ => {
                // One side fits i64 and the other doesn't: equal only if
                // both are huge u64s (handled above) or numerically equal
                // as floats.
            }
        }
        match (self.as_u64(), other.as_u64()) {
            (Some(a), Some(b)) => return a == b,
            _ => {}
        }
        self.as_f64() == other.as_f64()
    }
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object member lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

static NULL_VALUE: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// Missing keys index to `Null`, like serde_json.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL_VALUE)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL_VALUE),
            _ => &NULL_VALUE,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Number(a), Value::Number(b)) => a == b,
            (Value::String(a), Value::String(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => {
                // Key order is not significant.
                a.len() == b.len()
                    && a.iter().all(|(k, v)| {
                        b.iter().find(|(bk, _)| bk == k).map(|(_, bv)| bv) == Some(v)
                    })
            }
            _ => false,
        }
    }
}

macro_rules! value_eq_prim {
    ($($t:ty => $conv:expr),* $(,)?) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                #[allow(clippy::redundant_closure_call)]
                ($conv)(self, other)
            }
        }

        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}

value_eq_prim! {
    &str => |v: &Value, o: &&str| v.as_str() == Some(*o),
    bool => |v: &Value, o: &bool| v.as_bool() == Some(*o),
    i32 => |v: &Value, o: &i32| v.as_i64() == Some(*o as i64),
}

// ---------------------------------------------------------------------------
// Error
// ---------------------------------------------------------------------------

/// Serialization/deserialization failure, carrying a human-readable path.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error { msg: msg.to_string() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

// ---------------------------------------------------------------------------
// Core traits
// ---------------------------------------------------------------------------

pub trait Serialize {
    fn to_content(&self) -> Value;
}

/// The lifetime mirrors real serde's signature so existing
/// `for<'de> Deserialize<'de>` bounds compile; this shim never borrows
/// from the input.
pub trait Deserialize<'de>: Sized {
    fn from_content(value: &Value) -> Result<Self, Error>;
}

pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

// ---------------------------------------------------------------------------
// Serialize impls for std types
// ---------------------------------------------------------------------------

impl Serialize for Value {
    fn to_content(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Value {
        (**self).to_content()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_content(&self) -> Value {
        (**self).to_content()
    }
}

impl Serialize for bool {
    fn to_content(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_content(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_content(&self) -> Value {
        Value::String(self.clone())
    }
}

macro_rules! ser_int {
    ($($t:ty => $variant:ident as $as:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Value {
                Value::Number(Number::$variant(*self as $as))
            }
        }
    )*};
}

ser_int! {
    i32 => I64 as i64, i64 => I64 as i64,
    u32 => U64 as u64, u64 => U64 as u64, usize => U64 as u64,
}

impl Serialize for f64 {
    fn to_content(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Value {
        match self {
            Some(v) => v.to_content(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_content).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_content(&self) -> Value {
        Value::Array(vec![self.0.to_content(), self.1.to_content()])
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_content(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_content())).collect())
    }
}


// ---------------------------------------------------------------------------
// Deserialize impls for std types
// ---------------------------------------------------------------------------

impl<'de> Deserialize<'de> for Value {
    fn from_content(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Box<T> {
    fn from_content(value: &Value) -> Result<Self, Error> {
        Ok(Box::new(T::from_content(value)?))
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_content(value: &Value) -> Result<Self, Error> {
        value.as_bool().ok_or_else(|| type_err("bool", value))
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_content(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(|s| s.to_string())
            .ok_or_else(|| type_err("string", value))
    }
}

macro_rules! de_int {
    ($($t:ty => $via:ident ($name:literal)),* $(,)?) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn from_content(value: &Value) -> Result<Self, Error> {
                value
                    .$via()
                    .and_then(|v| <$t>::try_from(v).ok())
                    .ok_or_else(|| type_err($name, value))
            }
        }
    )*};
}

de_int! {
    i64 => as_i64 ("i64"),
    u32 => as_u64 ("u32"), u64 => as_u64 ("u64"),
}

impl<'de> Deserialize<'de> for f64 {
    fn from_content(value: &Value) -> Result<Self, Error> {
        value.as_f64().ok_or_else(|| type_err("f64", value))
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Option<T> {
    fn from_content(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_content(other)?)),
        }
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Vec<T> {
    fn from_content(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| type_err("array", value))?
            .iter()
            .map(T::from_content)
            .collect()
    }
}

impl<'de, A: DeserializeOwned, B: DeserializeOwned> Deserialize<'de> for (A, B) {
    fn from_content(value: &Value) -> Result<Self, Error> {
        let arr = value.as_array().ok_or_else(|| type_err("2-tuple", value))?;
        if arr.len() != 2 {
            return Err(Error::custom(format!("expected 2-tuple, got {} elements", arr.len())));
        }
        Ok((A::from_content(&arr[0])?, B::from_content(&arr[1])?))
    }
}

impl<'de, V: DeserializeOwned> Deserialize<'de> for BTreeMap<String, V> {
    fn from_content(value: &Value) -> Result<Self, Error> {
        value
            .as_object()
            .ok_or_else(|| type_err("object", value))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_content(v)?)))
            .collect()
    }
}

fn type_err(expected: &str, got: &Value) -> Error {
    let kind = match got {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Number(_) => "number",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    };
    Error::custom(format!("expected {expected}, got {kind}"))
}

// ---------------------------------------------------------------------------
// Support functions for derive-generated code
// ---------------------------------------------------------------------------

#[doc(hidden)]
pub mod __private {
    use super::{DeserializeOwned, Error, Value};

    pub fn expect_object<'a>(value: &'a Value, ty: &str) -> Result<&'a [(String, Value)], Error> {
        value
            .as_object()
            .map(|v| v.as_slice())
            .ok_or_else(|| Error::custom(format!("expected object for {ty}")))
    }

    pub fn obj_get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Look up a struct field; missing keys deserialize from null, so
    /// `Option` fields tolerate omission while required fields report
    /// a typed error naming the field.
    pub fn field<T: DeserializeOwned>(
        obj: &[(String, Value)],
        key: &str,
        ty: &str,
    ) -> Result<T, Error> {
        let value = obj_get(obj, key).unwrap_or(&Value::Null);
        T::from_content(value).map_err(|e| Error::custom(format!("{ty}.{key}: {e}")))
    }

    /// Required string member (enum tags).
    pub fn tag_str<'a>(obj: &'a [(String, Value)], key: &str, ty: &str) -> Result<&'a str, Error> {
        obj_get(obj, key)
            .and_then(|v| v.as_str())
            .ok_or_else(|| Error::custom(format!("missing `{key}` tag for {ty}")))
    }

    pub fn expect_tuple<'a>(value: &'a Value, len: usize, ctx: &str) -> Result<&'a [Value], Error> {
        let arr = value
            .as_array()
            .ok_or_else(|| Error::custom(format!("expected array for {ctx}")))?;
        if arr.len() != len {
            return Err(Error::custom(format!(
                "expected {len} elements for {ctx}, got {}",
                arr.len()
            )));
        }
        Ok(arr.as_slice())
    }

    /// Prepend the tag member to an internally-tagged variant's content.
    pub fn tag_object(tag: &str, name: &str, content: Value) -> Value {
        match content {
            Value::Object(mut entries) => {
                entries.insert(0, (tag.to_string(), Value::String(name.to_string())));
                Value::Object(entries)
            }
            other => panic!(
                "internally tagged variant `{name}` must serialize to an object, got {other:?}"
            ),
        }
    }

    pub fn unknown_variant(got: &str, ty: &str) -> Error {
        Error::custom(format!("unknown variant `{got}` for {ty}"))
    }
}
