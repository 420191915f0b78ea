// Vendored offline shim (see shims/README.md): not held to workspace lint
// standards so the call-site-compatible surface can stay close to upstream.
#![allow(clippy::all)]

//! Workspace-local stand-in for `serde`.
//!
//! The real serde is a visitor-driven framework; this shim has two paths
//! instead. The *tree* path: [`Serialize`] renders a value into [`Value`]
//! (a JSON data model) and [`Deserialize`] rebuilds a value from one; it
//! serves `json!`, `to_value` / `from_value` and the tagged enums. The
//! *direct* path: `write_json` prints a value into a text buffer and
//! `from_json` reads one off a [`json::Reader`], with no tree in between.
//! Each direct method defaults to the tree path; the derive macros
//! (re-exported from the sibling `serde_derive` shim) and the std impls
//! below override it for named-field structs, unit enums, transparent
//! newtypes, strings and containers, and both paths print and accept the
//! same text. The attribute subset this workspace uses:
//! `#[serde(tag = "...")]`, `#[serde(content = "...")]`,
//! `#[serde(rename_all = "camelCase")]`, and `#[serde(rename = "...")]`,
//! so wire formats match real serde for these shapes: externally /
//! internally / adjacently tagged enums, named-field structs, and
//! transparent newtype structs.

use std::collections::BTreeMap;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

pub mod json;

use json::Reader;

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

// Conversions into the tree, as upstream `serde_json` has them: a value
// built from parts moves each part in, where `json!` renders a finished
// subtree through `Serialize::to_content` and so copies it. An integer
// takes the variant `Serialize` gives it.

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(Number::U64(n))
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Number(Number::U64(n as u64))
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
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

    /// Print as compact JSON: the text `to_content`'s tree prints as.
    fn write_json(&self, out: &mut String) {
        json::write_value(out, &self.to_content(), None);
    }
}

/// The lifetime mirrors real serde's signature so existing
/// `for<'de> Deserialize<'de>` bounds compile; this shim never borrows
/// from the input.
pub trait Deserialize<'de>: Sized {
    fn from_content(value: &Value) -> Result<Self, Error>;

    /// Read one value off `r`: what `from_content` makes of the tree that
    /// value parses to, `Ok` or `Err` alike.
    fn from_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        Self::from_content(&r.parse_value()?)
    }
}

pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

// ---------------------------------------------------------------------------
// Serialize impls for std types
// ---------------------------------------------------------------------------

// A scalar's tree holds nothing on the heap, so `bool`, the integers and
// `f64` keep the default `write_json` / `from_json`: one token, no tree.

impl Serialize for Value {
    fn to_content(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, out: &mut String) {
        json::write_value(out, self, None);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Value {
        (**self).to_content()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_content(&self) -> Value {
        (**self).to_content()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
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

    fn write_json(&self, out: &mut String) {
        json::write_escaped(out, self);
    }
}

impl Serialize for String {
    fn to_content(&self) -> Value {
        Value::String(self.clone())
    }

    fn write_json(&self, out: &mut String) {
        json::write_escaped(out, self);
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

    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Value {
        self.as_slice().to_content()
    }

    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_content).collect())
    }

    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_content(&self) -> Value {
        Value::Array(vec![self.0.to_content(), self.1.to_content()])
    }

    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_content(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_content())).collect())
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(out, k);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }
}


// ---------------------------------------------------------------------------
// Deserialize impls for std types
// ---------------------------------------------------------------------------

impl<'de> Deserialize<'de> for Value {
    fn from_content(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }

    fn from_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.parse_value()
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Box<T> {
    fn from_content(value: &Value) -> Result<Self, Error> {
        Ok(Box::new(T::from_content(value)?))
    }

    fn from_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(Box::new(T::from_json(r)?))
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

    fn from_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.peek() {
            Some(b'"') => Ok(r.str()?.into_owned()),
            _ => __private::from_tree(r),
        }
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

    fn from_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.peek() {
            // `null`, or not a value at all.
            Some(b'n') => r.parse_value().map(|_| None),
            _ => T::from_json(r).map(Some),
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

    fn from_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.peek() != Some(b'[') {
            return __private::from_tree(r);
        }
        let (mut out, mut first) = (Vec::new(), true);
        while r.next_element(&mut first)? {
            out.push(T::from_json(r)?);
        }
        Ok(out)
    }
}

impl<'de, A: DeserializeOwned, B: DeserializeOwned> Deserialize<'de> for (A, B) {
    fn from_content(value: &Value) -> Result<Self, Error> {
        let arr = value.as_array().ok_or_else(|| type_err("2-tuple", value))?;
        if arr.len() != 2 {
            return Err(tuple_len_err(arr.len()));
        }
        Ok((A::from_content(&arr[0])?, B::from_content(&arr[1])?))
    }

    fn from_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.peek() != Some(b'[') {
            return __private::from_tree(r);
        }
        let mut first = true;
        if !r.next_element(&mut first)? {
            return Err(tuple_len_err(0));
        }
        let a = A::from_json(r)?;
        if !r.next_element(&mut first)? {
            return Err(tuple_len_err(1));
        }
        let b = B::from_json(r)?;
        if r.next_element(&mut first)? {
            return Err(tuple_len_err(3));
        }
        Ok((a, b))
    }
}

fn tuple_len_err(len: usize) -> Error {
    Error::custom(format!("expected 2-tuple, got {len} elements"))
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

    /// A repeated key keeps its last value, as collecting the tree does.
    fn from_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.peek() != Some(b'{') {
            return __private::from_tree(r);
        }
        let (mut map, mut first) = (BTreeMap::new(), true);
        while let Some(key) = r.next_key(&mut first)? {
            let value = V::from_json(r)?;
            map.insert(key.into_owned(), value);
        }
        Ok(map)
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
    use super::{DeserializeOwned, Error, Reader, Value};

    /// Read a value the direct path has no shortcut for (a mistyped one,
    /// or a tagged enum) through its tree.
    pub fn from_tree<T: DeserializeOwned>(r: &mut Reader<'_>) -> Result<T, Error> {
        T::from_content(&r.parse_value()?)
    }

    /// A struct field read off the text, with [`field`]'s error context.
    pub fn field_json<T: DeserializeOwned>(r: &mut Reader<'_>, key: &str, ty: &str) -> Result<T, Error> {
        T::from_json(r).map_err(|e| Error::custom(format!("{ty}.{key}: {e}")))
    }

    /// A struct field's slot once the object is read: an absent key reads
    /// as `null`, as it does in [`field`].
    pub fn field_or_null<T: DeserializeOwned>(slot: Option<T>, key: &str, ty: &str) -> Result<T, Error> {
        match slot {
            Some(v) => Ok(v),
            None => field(&[], key, ty),
        }
    }

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
