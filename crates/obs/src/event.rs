//! Structured telemetry events and their JSONL encoding.

use std::time::Duration;

/// A scalar field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Floating-point number (non-finite encodes as JSON `null`).
    F64(f64),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

/// Conversion into [`Value`] used by [`Event::with`] and span fields.
pub trait IntoValue {
    /// Converts self.
    fn into_value(self) -> Value;
}

macro_rules! impl_into_value {
    ($($t:ty => $variant:ident as $cast:ty),* $(,)?) => {$(
        impl IntoValue for $t {
            fn into_value(self) -> Value { Value::$variant(self as $cast) }
        }
        impl From<$t> for Value {
            fn from(v: $t) -> Value { v.into_value() }
        }
    )*};
}
impl_into_value! {
    f32 => F64 as f64, f64 => F64 as f64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64, i64 => I64 as i64,
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64, u64 => U64 as u64,
    usize => U64 as u64,
}

impl IntoValue for bool {
    fn into_value(self) -> Value {
        Value::Bool(self)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl IntoValue for &str {
    fn into_value(self) -> Value {
        Value::Str(self.to_string())
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl IntoValue for String {
    fn into_value(self) -> Value {
        Value::Str(self)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl IntoValue for Duration {
    fn into_value(self) -> Value {
        Value::F64(self.as_secs_f64())
    }
}
impl From<Duration> for Value {
    fn from(v: Duration) -> Value {
        v.into_value()
    }
}

impl IntoValue for Value {
    fn into_value(self) -> Value {
        self
    }
}

/// One telemetry event: a kind (`epoch`, `span`, `run_start`, …), a
/// process-relative timestamp, and ordered key/value fields.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event kind, the JSONL `type` field.
    pub kind: String,
    /// Milliseconds since the telemetry clock started.
    pub ts_ms: f64,
    /// Ordered fields.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// New event of the given kind, stamped with the current time.
    pub fn new(kind: &str) -> Self {
        Event { kind: kind.to_string(), ts_ms: crate::elapsed_ms(), fields: Vec::new() }
    }

    /// Attaches one field (builder style).
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Reads a field back by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Encodes as one JSON object (no trailing newline):
    /// `{"type":<kind>,"ts_ms":<ts>,<fields...>}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 24);
        out.push_str("{\"type\":");
        push_json_str(&mut out, &self.kind);
        out.push_str(",\"ts_ms\":");
        push_json_num(&mut out, self.ts_ms);
        for (k, v) in &self.fields {
            out.push(',');
            push_json_str(&mut out, k);
            out.push(':');
            match v {
                Value::F64(x) => push_json_num(&mut out, *x),
                Value::I64(x) => out.push_str(&x.to_string()),
                Value::U64(x) => out.push_str(&x.to_string()),
                Value::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
                Value::Str(s) => push_json_str(&mut out, s),
            }
        }
        out.push('}');
        out
    }
}

fn push_json_num(out: &mut String, x: f64) {
    if x.is_finite() {
        // Display for f64 is shortest-roundtrip and always valid JSON
        out.push_str(&x.to_string());
    } else {
        out.push_str("null");
    }
}

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` get their short escapes and
/// every other control character below U+0020 becomes `\u00XX`.
pub fn push_json_str(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_all_value_kinds() {
        let e = Event::new("epoch")
            .with("model", "GMAN")
            .with("epoch", 3usize)
            .with("loss", 0.5f32)
            .with("improved", true)
            .with("delta", -2i64);
        let j = e.to_json();
        assert!(j.starts_with("{\"type\":\"epoch\",\"ts_ms\":"));
        assert!(j.contains("\"model\":\"GMAN\""));
        assert!(j.contains("\"epoch\":3"));
        assert!(j.contains("\"loss\":0.5"));
        assert!(j.contains("\"improved\":true"));
        assert!(j.contains("\"delta\":-2"));
        assert!(j.ends_with('}'));
    }

    #[test]
    fn escapes_strings_and_nan() {
        let e = Event::new("x").with("s", "a\"b\\c\nd").with("bad", f64::NAN);
        let j = e.to_json();
        assert!(j.contains(r#""s":"a\"b\\c\nd""#));
        assert!(j.contains("\"bad\":null"));
    }

    #[test]
    fn get_reads_back() {
        let e = Event::new("x").with("k", 7u64);
        assert_eq!(e.get("k"), Some(&Value::U64(7)));
        assert_eq!(e.get("missing"), None);
    }
}
