//! In-repo shim of the `serde_json` API surface this workspace uses.
//!
//! The heavy lifting (the [`Value`] tree, parser, and printers) lives in the
//! `serde` shim; this crate provides serde_json's public entry points on top:
//! `to_value`/`from_value`/`from_str`/`from_slice`, the string/byte printers,
//! and the [`json!`] macro.

pub use serde::de::Error;
pub use serde::value::{Map, Number, Value};

use serde::{Deserialize, Serialize};

/// serde_json-compatible `value` module (some code paths name
/// `serde_json::value::Value`).
pub mod value {
    pub use serde::value::{Map, Number, Value};
}

/// Converts any serializable value into a [`Value`] tree.
///
/// The shim's serialization is infallible (the data model is JSON itself),
/// but the `Result` shape matches serde_json.
pub fn to_value<T: Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Reconstructs a `T` from a [`Value`] (consumed, as in serde_json).
pub fn from_value<T: Deserialize>(value: Value) -> Result<T, Error> {
    T::from_value(&value)
}

/// Parses a `T` from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    T::from_value(&Value::parse(s)?)
}

/// Parses a `T` from JSON bytes (must be UTF-8).
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes)
        .map_err(|e| Error::custom(format!("invalid UTF-8 in JSON input: {e}")))?;
    from_str(s)
}

/// Serializes a value to compact JSON text.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json_string())
}

/// Serializes a value to 2-space-indented JSON text.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json_string_pretty())
}

/// Serializes a value to compact JSON bytes.
pub fn to_vec<T: Serialize>(value: &T) -> Result<Vec<u8>, Error> {
    Ok(to_string(value)?.into_bytes())
}

/// Serializes a value to pretty-printed JSON bytes.
pub fn to_vec_pretty<T: Serialize>(value: &T) -> Result<Vec<u8>, Error> {
    Ok(to_string_pretty(value)?.into_bytes())
}

#[doc(hidden)]
pub fn value_from<T: Serialize>(value: T) -> Value {
    value.to_value()
}

/// Builds a [`Value`] from JSON-like syntax, as in serde_json.
///
/// Object/array values may be literals, `null`, `true`/`false`, nested
/// arrays/objects, or arbitrary expressions (tokens are accumulated up to
/// the next top-level comma); a bare top-level expression
/// (`json!(x.id())`) also works.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($elems:tt)+ ]) => { $crate::json_array!([]; $($elems)+) };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($entries:tt)+ }) => {{
        let mut __object = $crate::Map::new();
        $crate::json_entries!(__object; $($entries)+);
        $crate::Value::Object(__object)
    }};
    ($other:expr) => { $crate::value_from($other) };
}

/// Internal: munches comma-separated array elements into a `vec![...]`.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    ([$($done:expr),*];) => {
        $crate::Value::Array(::std::vec![$($done),*])
    };
    ([$($done:expr),*]; $($rest:tt)+) => {
        $crate::json_array_value!([$($done),*]; (); $($rest)+)
    };
}

/// Internal: accumulates one array element's tokens up to a top-level comma,
/// then appends the finished element expression to the done-list.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_value {
    ([$($done:expr),*]; ($($acc:tt)+); , $($rest:tt)*) => {
        $crate::json_array!([$($done,)* $crate::json!($($acc)+)]; $($rest)*)
    };
    ([$($done:expr),*]; ($($acc:tt)+);) => {
        $crate::json_array!([$($done,)* $crate::json!($($acc)+)];)
    };
    ([$($done:expr),*]; ($($acc:tt)*); $next:tt $($rest:tt)*) => {
        $crate::json_array_value!([$($done),*]; ($($acc)* $next); $($rest)*)
    };
}

/// Internal: munches comma-separated `"key": value` object entries.
#[doc(hidden)]
#[macro_export]
macro_rules! json_entries {
    ($obj:ident;) => {};
    ($obj:ident; $key:tt : $($rest:tt)+) => {
        $crate::json_entry_value!($obj; $key; (); $($rest)+);
    };
}

/// Internal: accumulates one entry's value tokens up to a top-level comma.
#[doc(hidden)]
#[macro_export]
macro_rules! json_entry_value {
    ($obj:ident; $key:tt; ($($acc:tt)+); , $($rest:tt)*) => {
        $obj.insert($key.to_string(), $crate::json!($($acc)+));
        $crate::json_entries!($obj; $($rest)*);
    };
    ($obj:ident; $key:tt; ($($acc:tt)+);) => {
        $obj.insert($key.to_string(), $crate::json!($($acc)+));
    };
    ($obj:ident; $key:tt; ($($acc:tt)*); $next:tt $($rest:tt)*) => {
        $crate::json_entry_value!($obj; $key; ($($acc)* $next); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_shapes() {
        assert_eq!(json!(null), Value::Null);
        assert!(json!({}).as_object().is_some());
        let v = json!({"a": 1, "s": "x", "b": true, "n": null, "arr": [1, 2, 3]});
        assert_eq!(v["a"], 1u64);
        assert_eq!(v["s"], "x");
        assert_eq!(v["b"], true);
        assert!(v["n"].is_null());
        assert_eq!(v["arr"][2], 3u64);
        let owned = json!("ff".repeat(2));
        assert_eq!(owned, "ffff");
    }

    #[test]
    fn json_macro_multi_token_values() {
        let name = "model";
        let v = json!({
            "msg": format!("{name}-{}", 1 + 1),
            "sum": 2 + 3,
            "list": [name.len(), "x".repeat(2), 4],
        });
        assert_eq!(v["msg"], "model-2");
        assert_eq!(v["sum"], 5u64);
        assert_eq!(v["list"][0], 5u64);
        assert_eq!(v["list"][1], "xx");
        assert_eq!(v["list"][2], 4u64);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A frame header of `[[[[...` is well inside the wire's frame limit;
        // the server parses it on an I/O thread with an ordinary stack.
        let parse = |depth: usize| from_str::<Value>(&("[".repeat(depth) + &"]".repeat(depth)));
        let small_stack = std::thread::Builder::new().stack_size(256 * 1024);
        let hostile = small_stack.spawn(move || parse(100_000)).unwrap().join().unwrap();
        assert!(hostile.unwrap_err().to_string().contains("recursion limit"));
        assert!(parse(128).is_ok());
        assert!(parse(129).is_err());
    }

    #[test]
    fn round_trip_via_text() {
        let v = json!({"x": [1, 2.5, -3], "y": {"z": "hi"}});
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }
}
