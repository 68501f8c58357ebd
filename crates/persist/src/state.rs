//! A self-describing value tree with a compact binary codec.
//!
//! `State` is the single interchange format for everything this crate
//! persists: snapshot bodies and journal frame payloads are encoded
//! `State` values. The codec is deliberately trivial — one tag byte per
//! value, little-endian fixed-width scalars, u32-prefixed lengths — so
//! it can be audited by eye and never drifts with an external library.
//!
//! Floats are stored as their IEEE-754 bit pattern ([`f64::to_bits`]):
//! a decoded value is *bit-identical* to the encoded one, which the
//! byte-identical resume guarantee depends on.

use crate::PersistError;

/// Codec tags (first byte of every encoded value).
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_U64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_MAP: u8 = 8;

/// A dynamically typed, serializable state value.
#[derive(Debug, Clone, PartialEq)]
pub enum State {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    List(Vec<State>),
    /// Ordered key/value pairs (insertion order is preserved and
    /// round-trips through the codec).
    Map(Vec<(String, State)>),
}

impl State {
    /// An empty map, ready for [`State::set`].
    pub fn map() -> State {
        State::Map(Vec::new())
    }

    /// Insert (or replace) a key in a map; no-op on non-maps.
    pub fn set(&mut self, key: &str, value: State) {
        if let State::Map(pairs) = self {
            if let Some(pair) = pairs.iter_mut().find(|(k, _)| k == key) {
                pair.1 = value;
            } else {
                pairs.push((key.to_string(), value));
            }
        }
    }

    /// Builder-style [`State::set`].
    pub fn with(mut self, key: &str, value: State) -> State {
        self.set(key, value);
        self
    }

    /// Map lookup.
    pub fn get(&self, key: &str) -> Option<&State> {
        match self {
            State::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required-field map lookup with a typed error.
    pub fn require(&self, key: &str) -> Result<&State, PersistError> {
        self.get(key)
            .ok_or_else(|| PersistError::Schema(format!("missing field '{key}'")))
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            State::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            State::I64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            State::U64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            State::F64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            State::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_list(&self) -> Option<&[State]> {
        match self {
            State::List(items) => Some(items),
            _ => None,
        }
    }

    /// Typed accessors for required fields, with schema errors naming
    /// the offending key.
    pub fn field_u64(&self, key: &str) -> Result<u64, PersistError> {
        self.require(key)?
            .as_u64()
            .ok_or_else(|| PersistError::Schema(format!("field '{key}' is not a u64")))
    }

    pub fn field_i64(&self, key: &str) -> Result<i64, PersistError> {
        self.require(key)?
            .as_i64()
            .ok_or_else(|| PersistError::Schema(format!("field '{key}' is not an i64")))
    }

    pub fn field_f64(&self, key: &str) -> Result<f64, PersistError> {
        self.require(key)?
            .as_f64()
            .ok_or_else(|| PersistError::Schema(format!("field '{key}' is not an f64")))
    }

    pub fn field_bool(&self, key: &str) -> Result<bool, PersistError> {
        self.require(key)?
            .as_bool()
            .ok_or_else(|| PersistError::Schema(format!("field '{key}' is not a bool")))
    }

    pub fn field_str(&self, key: &str) -> Result<&str, PersistError> {
        self.require(key)?
            .as_str()
            .ok_or_else(|| PersistError::Schema(format!("field '{key}' is not a string")))
    }

    pub fn field_list(&self, key: &str) -> Result<&[State], PersistError> {
        self.require(key)?
            .as_list()
            .ok_or_else(|| PersistError::Schema(format!("field '{key}' is not a list")))
    }

    /// Convenience: a list of f64s from native values (exact bits).
    pub fn f64_list(values: &[f64]) -> State {
        State::List(values.iter().map(|&v| State::F64(v)).collect())
    }

    /// Convenience: a list of i64s.
    pub fn i64_list(values: &[i64]) -> State {
        State::List(values.iter().map(|&v| State::I64(v)).collect())
    }

    /// Decode a list of f64s.
    pub fn to_f64_vec(&self) -> Result<Vec<f64>, PersistError> {
        self.as_list()
            .ok_or_else(|| PersistError::Schema("expected f64 list".into()))?
            .iter()
            .map(|s| {
                s.as_f64()
                    .ok_or_else(|| PersistError::Schema("expected f64 list item".into()))
            })
            .collect()
    }

    /// Decode a list of i64s.
    pub fn to_i64_vec(&self) -> Result<Vec<i64>, PersistError> {
        self.as_list()
            .ok_or_else(|| PersistError::Schema("expected i64 list".into()))?
            .iter()
            .map(|s| {
                s.as_i64()
                    .ok_or_else(|| PersistError::Schema("expected i64 list item".into()))
            })
            .collect()
    }

    /// Append the binary encoding of this value to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            State::Null => out.push(TAG_NULL),
            State::Bool(false) => out.push(TAG_FALSE),
            State::Bool(true) => out.push(TAG_TRUE),
            State::I64(v) => {
                out.push(TAG_I64);
                out.extend_from_slice(&v.to_le_bytes());
            }
            State::U64(v) => {
                out.push(TAG_U64);
                out.extend_from_slice(&v.to_le_bytes());
            }
            State::F64(v) => {
                out.push(TAG_F64);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            State::Str(s) => {
                out.push(TAG_STR);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            State::List(items) => {
                out.push(TAG_LIST);
                out.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for item in items {
                    item.encode_into(out);
                }
            }
            State::Map(pairs) => {
                out.push(TAG_MAP);
                out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
                for (k, v) in pairs {
                    out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                    out.extend_from_slice(k.as_bytes());
                    v.encode_into(out);
                }
            }
        }
    }

    /// Exact number of bytes [`State::encode_into`] appends for this
    /// value, so a caller can size its buffer once.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            State::Null | State::Bool(_) => 0,
            State::I64(_) | State::U64(_) | State::F64(_) => 8,
            State::Str(s) => 4 + s.len(),
            State::List(items) => 4 + items.iter().map(State::encoded_len).sum::<usize>(),
            State::Map(pairs) => {
                4 + pairs
                    .iter()
                    .map(|(k, v)| 4 + k.len() + v.encoded_len())
                    .sum::<usize>()
            }
        }
    }

    /// Encode to a fresh, exactly sized byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decode one value from the start of `bytes`; the whole slice must
    /// be consumed (no trailing garbage).
    pub fn decode(bytes: &[u8]) -> Result<State, PersistError> {
        let mut cursor = Cursor { bytes, pos: 0 };
        let value = cursor.value()?;
        if cursor.pos != bytes.len() {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after state value",
                bytes.len() - cursor.pos
            )));
        }
        Ok(value)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| PersistError::Corrupt("state value truncated".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(buf))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn string(&mut self) -> Result<String, PersistError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt("invalid UTF-8 in state string".into()))
    }

    fn value(&mut self) -> Result<State, PersistError> {
        let tag = self.take(1)?[0];
        Ok(match tag {
            TAG_NULL => State::Null,
            TAG_FALSE => State::Bool(false),
            TAG_TRUE => State::Bool(true),
            TAG_I64 => State::I64(self.u64()? as i64),
            TAG_U64 => State::U64(self.u64()?),
            TAG_F64 => State::F64(f64::from_bits(self.u64()?)),
            TAG_STR => State::Str(self.string()?),
            TAG_LIST => {
                let count = self.u32()? as usize;
                // Each item is at least one tag byte — bound up front so
                // a corrupt huge count cannot trigger a giant allocation.
                if count > self.bytes.len() - self.pos {
                    return Err(PersistError::Corrupt("list count exceeds payload".into()));
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.value()?);
                }
                State::List(items)
            }
            TAG_MAP => {
                let count = self.u32()? as usize;
                if count > self.bytes.len() - self.pos {
                    return Err(PersistError::Corrupt("map count exceeds payload".into()));
                }
                let mut pairs = Vec::with_capacity(count);
                for _ in 0..count {
                    let key = self.string()?;
                    let value = self.value()?;
                    pairs.push((key, value));
                }
                State::Map(pairs)
            }
            other => {
                return Err(PersistError::Corrupt(format!(
                    "unknown state tag {other} at offset {}",
                    self.pos - 1
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: State) {
        let encoded = value.encode();
        assert_eq!(State::decode(&encoded).unwrap(), value);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(State::Null);
        roundtrip(State::Bool(true));
        roundtrip(State::Bool(false));
        roundtrip(State::I64(-42));
        roundtrip(State::I64(i64::MIN));
        roundtrip(State::U64(u64::MAX));
        roundtrip(State::Str("hello ✓".into()));
    }

    #[test]
    fn floats_roundtrip_bit_exact() {
        for v in [0.1, -0.0, f64::NEG_INFINITY, 1e-300, 123.456789] {
            let encoded = State::F64(v).encode();
            match State::decode(&encoded).unwrap() {
                State::F64(back) => assert_eq!(back.to_bits(), v.to_bits()),
                other => panic!("decoded {other:?}"),
            }
        }
        // NaN survives with its exact payload too.
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let encoded = State::F64(nan).encode();
        match State::decode(&encoded).unwrap() {
            State::F64(back) => assert_eq!(back.to_bits(), nan.to_bits()),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let value = State::map()
            .with("iteration", State::U64(17))
            .with("wips", State::F64(104.25))
            .with("line_wips", State::f64_list(&[1.0, 2.5, 3.25]))
            .with(
                "servers",
                State::List(vec![
                    State::map().with("values", State::i64_list(&[1, -2, 3])),
                    State::Null,
                ]),
            );
        roundtrip(value);
    }

    #[test]
    fn encoded_len_is_exact() {
        let nested = State::map()
            .with("empty_list", State::List(Vec::new()))
            .with("empty_map", State::map())
            .with("text", State::Str("héllo ✓".into()))
            .with(
                "servers",
                State::List(vec![
                    State::map()
                        .with("values", State::i64_list(&[1, -2, 3]))
                        .with("pending", State::Null)
                        .with("ok", State::Bool(true)),
                    State::f64_list(&[0.5, f64::NAN]),
                    State::List(vec![State::map().with("", State::U64(u64::MAX))]),
                ]),
            );
        for value in [
            State::Null,
            State::Bool(false),
            State::I64(-1),
            State::Str(String::new()),
            nested,
        ] {
            assert_eq!(value.encoded_len(), value.encode().len(), "{value:?}");
        }
    }

    #[test]
    fn map_preserves_insertion_order() {
        let m = State::map()
            .with("zeta", State::U64(1))
            .with("alpha", State::U64(2));
        let decoded = State::decode(&m.encode()).unwrap();
        match decoded {
            State::Map(pairs) => {
                assert_eq!(pairs[0].0, "zeta");
                assert_eq!(pairs[1].0, "alpha");
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut m = State::map().with("k", State::U64(1));
        m.set("k", State::U64(2));
        assert_eq!(m.get("k").unwrap().as_u64(), Some(2));
        match &m {
            State::Map(pairs) => assert_eq!(pairs.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(State::decode(&[]).is_err());
        assert!(State::decode(&[99]).is_err(), "unknown tag");
        assert!(State::decode(&[TAG_I64, 1, 2]).is_err(), "truncated i64");
        // Trailing bytes after a valid value.
        let mut bytes = State::U64(5).encode();
        bytes.push(0);
        assert!(State::decode(&bytes).is_err());
        // Huge list count with no payload must not allocate or panic.
        let mut huge = vec![TAG_LIST];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(State::decode(&huge).is_err());
    }

    #[test]
    fn typed_field_accessors_report_schema_errors() {
        let m = State::map()
            .with("n", State::U64(3))
            .with("s", State::Str("x".into()));
        assert_eq!(m.field_u64("n").unwrap(), 3);
        assert_eq!(m.field_str("s").unwrap(), "x");
        assert!(matches!(
            m.field_u64("missing"),
            Err(PersistError::Schema(_))
        ));
        assert!(matches!(m.field_f64("n"), Err(PersistError::Schema(_))));
    }

    #[test]
    fn int_list_helpers() {
        let l = State::i64_list(&[5, -6]);
        assert_eq!(l.to_i64_vec().unwrap(), vec![5, -6]);
        let f = State::f64_list(&[0.5]);
        assert_eq!(f.to_f64_vec().unwrap(), vec![0.5]);
        assert!(State::U64(1).to_i64_vec().is_err());
    }
}
