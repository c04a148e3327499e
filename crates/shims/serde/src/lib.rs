//! Offline stand-in for `serde`: a self-contained JSON value model, rendered
//! by its `Display` impl, and a `Serialize` trait. `derive(Serialize)` comes
//! from the sibling `serde_derive` proc-macro crate; `derive(Deserialize)`
//! is accepted and inert (nothing in this workspace parses JSON back).

pub use serde_derive::{Deserialize, Serialize};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Value {
    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::UInt(v) => out.push_str(&v.to_string()),
            Value::Float(v) => {
                if v.is_finite() {
                    out.push_str(&v.to_string())
                } else {
                    out.push_str("null")
                }
            }
            Value::Str(s) => escape_into(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.render_into(&mut s);
        f.write_str(&s)
    }
}

/// Conversion to the JSON value model (the shim's whole serialization
/// story; there is no `Serializer` plumbing to thread through).
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Inert marker so `use serde::Deserialize` and `derive(Deserialize)`
/// keep compiling (the macro of the same name lives in the macro
/// namespace; this trait fills the type namespace).
pub trait Deserialize {}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

macro_rules! impl_ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(*self as u64) }
        }
    )*};
}

macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Int(*self as i64) }
        }
    )*};
}

impl_ser_uint!(u8, u16, u32, u64, usize);
impl_ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_ser_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
    };
}

impl_ser_tuple!(A: 0);
impl_ser_tuple!(A: 0, B: 1);
impl_ser_tuple!(A: 0, B: 1, C: 2);
impl_ser_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_json() {
        let v = Value::Object(vec![
            ("n".into(), Value::UInt(3)),
            ("s".into(), Value::Str("a\"b".into())),
            ("xs".into(), Value::Array(vec![Value::Bool(true), Value::Null])),
        ]);
        assert_eq!(v.to_string(), r#"{"n":3,"s":"a\"b","xs":[true,null]}"#);
    }

    #[test]
    fn primitive_conversions() {
        assert_eq!(3usize.to_value(), Value::UInt(3));
        assert_eq!((-2i32).to_value(), Value::Int(-2));
        assert_eq!(Some("x").to_value(), Value::Str("x".into()));
        assert_eq!(None::<u32>.to_value(), Value::Null);
        assert_eq!((1u32, "a").to_value().to_string(), r#"[1,"a"]"#);
    }
}
