//! Trace field values and their JSON serialisation.

use std::fmt::Write as _;

/// A trace-record field value. The variants cover everything the tuning
/// loop emits; `Value::to_json` produces strict JSON for each.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    /// A list of floats (e.g. per-line WIPS). Serialised as a JSON array.
    FloatList(Vec<f64>),
}

impl Value {
    /// Append this value's JSON encoding to `out`. Non-finite floats
    /// become `null` (JSON has no NaN/Infinity).
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Value::Float(f) => write_json_f64(out, *f),
            Value::Str(s) => write_json_str(out, s),
            Value::FloatList(v) => {
                out.push('[');
                for (i, f) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_f64(out, *f);
                }
                out.push(']');
            }
        }
    }

    /// This value's JSON encoding as a fresh string.
    pub(crate) fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }

    /// A flat textual form for CSV cells: like JSON but strings are
    /// unquoted and float lists join with `;` (the repo's historical CSV
    /// convention for per-line WIPS).
    pub fn to_csv_cell(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::FloatList(v) => {
                let parts: Vec<String> = v.iter().map(|f| format!("{f:.3}")).collect();
                parts.join(";")
            }
            other => other.to_json(),
        }
    }

    /// The float content, if this is a numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
}

fn write_json_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        // `{:?}` is Rust's shortest round-trip float formatting; it always
        // contains a '.' or 'e' so the JSON value stays a double.
        let _ = write!(out, "{f:?}");
    } else {
        out.push_str("null");
    }
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
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
impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::FloatList(v)
    }
}
impl From<&[f64]> for Value {
    fn from(v: &[f64]) -> Self {
        Value::FloatList(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(Value::from("a\"b\\c\nd").to_json(), r#""a\"b\\c\nd""#);
        assert_eq!(Value::from("\u{1}").to_json(), r#""\u0001""#);
    }

    #[test]
    fn json_floats() {
        assert_eq!(Value::from(1.5).to_json(), "1.5");
        assert_eq!(Value::from(2.0).to_json(), "2.0");
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn json_lists_and_ints() {
        assert_eq!(Value::from(vec![1.0, 2.5]).to_json(), "[1.0,2.5]");
        assert_eq!(Value::from(-3i64).to_json(), "-3");
        assert_eq!(Value::from(7u32).to_json(), "7");
    }

    #[test]
    fn csv_cells() {
        assert_eq!(Value::from("plain").to_csv_cell(), "plain");
        assert_eq!(Value::from(vec![1.0, 2.0]).to_csv_cell(), "1.000;2.000");
        assert_eq!(Value::from(true).to_csv_cell(), "true");
    }
}
