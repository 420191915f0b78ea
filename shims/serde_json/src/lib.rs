// Vendored offline shim (see shims/README.md): not held to workspace lint
// standards so the call-site-compatible surface can stay close to upstream.
#![allow(clippy::all)]

//! Workspace-local stand-in for `serde_json`.
//!
//! Entry points over the shim `serde` crate's one JSON reader and printer
//! (`serde::json`): typed values go straight between text and struct, and
//! [`Value`] is the tree. Covers the API surface the workspace uses:
//! `to_string`, `to_string_pretty`, `to_vec`, `from_str`, `from_slice`,
//! `to_value`, `from_value`, the [`Value`] type (re-exported from
//! `serde`), and the `json!` macro (a tt-muncher following the canonical
//! structure, so nested literals, match expressions, and iterator
//! pipelines all work as values). Numbers preserve u64 magnitudes above
//! `i64::MAX`.

use std::cell::Cell;

pub use serde::{Error, Number, Value};

use serde::json::{self, Reader};
use serde::{DeserializeOwned, Serialize};

pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    Ok(value.to_content())
}

pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T> {
    T::from_content(&value)
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(print(value, str::to_owned))
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    json::write_value(&mut out, &value.to_content(), Some(2));
    Ok(out)
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    Ok(print(value, |text| text.as_bytes().to_vec()))
}

pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T> {
    let mut r = Reader::new(s);
    let value = T::from_json(&mut r)?;
    r.finish()?;
    Ok(value)
}

pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::custom(format!("invalid utf-8: {e}")))?;
    from_str(s)
}

thread_local! {
    /// The print buffer, kept between calls so an encode makes one
    /// allocation: the exact-size copy `print` hands back.
    static BUFFER: Cell<String> = const { Cell::new(String::new()) };
}

/// A buffer larger than this is dropped after use rather than kept.
const BUFFER_KEEP: usize = 64 * 1024;

/// Print `value` into the thread's buffer and copy the text out with
/// `copy`. A nested call (a `Serialize` impl that prints) finds the buffer
/// taken and prints into a fresh one.
fn print<T: Serialize + ?Sized, R>(value: &T, copy: impl FnOnce(&str) -> R) -> R {
    let mut buf = BUFFER.with(Cell::take);
    value.write_json(&mut buf);
    let out = copy(&buf);
    if buf.capacity() <= BUFFER_KEEP {
        buf.clear();
        BUFFER.with(|b| b.set(buf));
    }
    out
}

// ---------------------------------------------------------------------------
// json! macro
// ---------------------------------------------------------------------------

/// Convert an arbitrary `Serialize` expression inside `json!`.
#[doc(hidden)]
pub fn __to_json_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_content()
}

#[macro_export]
macro_rules! json {
    ($($json:tt)+) => {
        $crate::json_internal!($($json)+)
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    //
    // @array: build up a vec of array elements.
    //
    (@array [$($elems:expr,)*]) => {
        ::std::vec![$($elems,)*]
    };
    (@array [$($elems:expr),*]) => {
        ::std::vec![$($elems),*]
    };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };
    (@array [$($elems:expr),*] $unexpected:tt $($rest:tt)*) => {
        $crate::json_unexpected!($unexpected)
    };

    //
    // @object: munch key tokens, then the value, pushing entries.
    //
    (@object $object:ident () () ()) => {};
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        $object.push((($($key)+).into(), $value));
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr) $unexpected:tt $($rest:tt)*) => {
        $crate::json_unexpected!($unexpected);
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        $object.push((($($key)+).into(), $value));
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    (@object $object:ident ($($key:tt)+) (:) $copy:tt) => {
        // Missing value.
        $crate::json_internal!();
    };
    (@object $object:ident ($($key:tt)+) () $copy:tt) => {
        // Missing colon and value.
        $crate::json_internal!();
    };
    (@object $object:ident () (: $($rest:tt)*) ($colon:tt $($copy:tt)*)) => {
        // Missing key.
        $crate::json_unexpected!($colon);
    };
    (@object $object:ident ($($key:tt)*) (, $($rest:tt)*) ($comma:tt $($copy:tt)*)) => {
        // Misplaced comma.
        $crate::json_unexpected!($comma);
    };
    (@object $object:ident () (($key:expr) : $($rest:tt)*) $copy:tt) => {
        // Parenthesized key.
        $crate::json_internal!(@object $object ($key) (: $($rest)*) (: $($rest)*));
    };
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        // Munch one token into the current key.
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) ($($rest)*));
    };

    //
    // Entry points.
    //
    (null) => {
        $crate::Value::Null
    };
    (true) => {
        $crate::Value::Bool(true)
    };
    (false) => {
        $crate::Value::Bool(false)
    };
    ([]) => {
        $crate::Value::Array(::std::vec::Vec::new())
    };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => {
        $crate::Value::Object(::std::vec::Vec::new())
    };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut object: ::std::vec::Vec<(::std::string::String, $crate::Value)> =
                ::std::vec::Vec::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => {
        $crate::__to_json_value(&$other)
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! json_unexpected {
    () => {};
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        for text in ["null", "true", "false", "0", "-7", "1.5", "\"hi\\n\""] {
            let v: Value = from_str(text).unwrap();
            let back = to_string(&v).unwrap();
            assert_eq!(back, text, "roundtrip of {text}");
        }
    }

    #[test]
    fn u64_preserved_above_i64_max() {
        let big = u64::MAX - 3;
        let text = big.to_string();
        let v: Value = from_str(&text).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(to_string(&v).unwrap(), text);
    }

    #[test]
    fn object_and_array_parse() {
        let v: Value = from_str(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert!(v["a"][1]["b"].is_null());
        assert_eq!(v["c"], "x");
        assert!(v["missing"].is_null());
    }

    #[test]
    fn json_macro_shapes() {
        let name = String::from("n");
        let items: Vec<Value> = (0..2).map(|i| json!({ "i": i })).collect::<Vec<_>>();
        let v = json!({
            "name": name,
            "flag": true,
            "none": Option::<String>::None,
            "nested": {"list": [1, 2, 3]},
            "items": items,
            "picked": match 1 + 1 {
                2 => "two",
                _ => "other",
            },
        });
        assert_eq!(v["name"], "n");
        assert_eq!(v["flag"], true);
        assert!(v["none"].is_null());
        assert_eq!(v["nested"]["list"].as_array().unwrap().len(), 3);
        assert_eq!(v["items"].as_array().unwrap().len(), 2);
        assert_eq!(v["picked"], "two");
        assert_eq!(json!({}), Value::Object(Vec::new()));
        assert_eq!(json!([]), Value::Array(Vec::new()));
    }

    #[test]
    fn pretty_output_roundtrips() {
        let v = json!({"a": {"b": [1.25, "x"]}});
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    /// RFC 8259's grammar: no leading zeros, a digit on both sides of `.`
    /// and after `e`, no raw control characters inside a string. Every
    /// reader rejects the same text: the tree and each typed target.
    #[test]
    fn strict_grammar_rejects_what_rfc_8259_rejects() {
        let rejected = [
            "01", "00", "-01", "1.", "1.e5", "\"a\nb\"", "\"\u{0}\"", "\"\u{1f}\"", "-", "+1", ".5", "1e",
            "1e+", "[1,]", "{\"a\":1,}", "\"\\x\"", "\"\\u12\"", "\"\\u+123\"", "nul", "1 2",
        ];
        for text in rejected {
            assert!(from_str::<Value>(text).is_err(), "Value accepted {text:?}");
            assert!(from_str::<u64>(text).is_err(), "u64 accepted {text:?}");
            assert!(from_str::<f64>(text).is_err(), "f64 accepted {text:?}");
            assert!(from_str::<String>(text).is_err(), "String accepted {text:?}");
            assert!(from_str::<Vec<u64>>(&format!("[{text}]")).is_err(), "Vec accepted [{text}]");
        }
        for (text, value) in [("0", 0.0), ("-0", 0.0), ("0.5", 0.5), ("1e5", 1e5), ("1E-5", 1e-5), ("-0.25e+1", -2.5)] {
            assert_eq!(from_str::<f64>(text).unwrap(), value, "{text}");
        }
        assert_eq!(from_str::<String>("\"a\\nb\\u00e9\\/\"").unwrap(), "a\nb\u{e9}/");
    }

    #[test]
    fn typed_reads_keep_the_tree_semantics() {
        use std::collections::BTreeMap;
        // A repeated map key keeps the last value; whitespace anywhere.
        let map: BTreeMap<String, u64> = from_str(" { \"a\" : 1 , \"b\":2,\"a\":3 } ").unwrap();
        assert_eq!(map.into_iter().collect::<Vec<_>>(), [("a".to_string(), 3), ("b".to_string(), 2)]);
        // Integer range and type errors, as the tree reports them.
        assert!(from_str::<u32>("4294967296").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<i64>("1.0").is_err());
        assert!(from_str::<i64>("9223372036854775808").is_err());
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<Option<String>>("null").unwrap(), None);
        assert!(from_str::<(u64, u64)>("[1]").is_err());
        assert!(from_str::<(u64, u64)>("[1,2,3]").is_err());
        assert_eq!(from_str::<(String, u64)>("[\"x\",2]").unwrap(), ("x".to_string(), 2));
        // Trailing bytes are rejected.
        assert!(from_str::<String>("\"a\" x").is_err());
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::String("a\"b\\c\u{1}d\u{1F600}".to_string());
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        let unicode: Value = from_str(r#""😀""#).unwrap();
        assert_eq!(unicode.as_str(), Some("\u{1F600}"));
    }
}
