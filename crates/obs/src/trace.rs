//! Structured trace records and the sinks that persist them.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::value::Value;

/// One structured event: a `kind` tag plus ordered key/value fields.
/// Field order is preserved — JSONL keys and CSV columns come out in
/// insertion order, which keeps golden files stable.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    kind: String,
    fields: Vec<(String, Value)>,
}

impl TraceRecord {
    pub fn new(kind: impl Into<String>) -> Self {
        TraceRecord {
            kind: kind.into(),
            fields: Vec::new(),
        }
    }

    /// Builder-style field append.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.push(key, value);
        self
    }

    /// In-place field append.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.fields.push((key.into(), value.into()));
    }

    pub fn kind(&self) -> &str {
        &self.kind
    }

    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    /// First field named `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// One JSON object: `{"kind":"...","k1":v1,...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 16);
        out.push_str("{\"kind\":");
        Value::Str(self.kind.clone()).write_json(&mut out);
        for (k, v) in &self.fields {
            out.push(',');
            Value::Str(k.clone()).write_json(&mut out);
            out.push(':');
            v.write_json(&mut out);
        }
        out.push('}');
        out
    }
}

/// Destination for trace records. Implementations decide the encoding.
pub trait TraceSink {
    fn emit(&mut self, record: &TraceRecord);

    fn flush(&mut self) {}
}

/// One JSON object per line.
pub struct JsonlWriter<W: Write> {
    w: W,
}

impl JsonlWriter<BufWriter<File>> {
    /// Create (truncating) a JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlWriter {
            w: BufWriter::new(File::create(path)?),
        })
    }

    /// Open `path` for appending (creating it if absent) — used by
    /// resumed sessions so the continued trace lands in the same stream
    /// as the interrupted run.
    pub fn append(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlWriter {
            w: BufWriter::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ),
        })
    }
}

impl<W: Write> TraceSink for JsonlWriter<W> {
    fn emit(&mut self, record: &TraceRecord) {
        let _ = writeln!(self.w, "{}", record.to_json());
        // Flush per record, matching the checkpoint journal's durability:
        // an abrupt process death must not leave the trace behind the
        // journal, or a resumed session's spliced JSONL would have a
        // hole where the buffered tail died with the process.
        let _ = self.w.flush();
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

/// CSV with a header derived from the first record's field names (the
/// `kind` is not a column; mixed-kind streams should use JSONL). Later
/// records are emitted positionally by header lookup; missing fields
/// become empty cells.
pub struct CsvWriter<W: Write> {
    w: W,
    header: Option<Vec<String>>,
}

impl<W: Write> CsvWriter<W> {
    pub fn new(w: W) -> Self {
        CsvWriter { w, header: None }
    }

    pub fn into_inner(self) -> W {
        self.w
    }
}

/// Quote a CSV cell if it needs quoting (comma, quote, newline).
pub(crate) fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl<W: Write> TraceSink for CsvWriter<W> {
    fn emit(&mut self, record: &TraceRecord) {
        let header = match &mut self.header {
            Some(header) => header,
            none => {
                let cols: Vec<String> = record.fields().iter().map(|(k, _)| k.clone()).collect();
                let _ = writeln!(
                    self.w,
                    "{}",
                    cols.iter()
                        .map(|c| csv_field(c))
                        .collect::<Vec<_>>()
                        .join(",")
                );
                none.insert(cols)
            }
        };
        let row: Vec<String> = header
            .iter()
            .map(|col| {
                record
                    .get(col)
                    .map(|v| csv_field(&v.to_csv_cell()))
                    .unwrap_or_default()
            })
            .collect();
        let _ = writeln!(self.w, "{}", row.join(","));
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

/// Collects records in memory — the test sink.
#[derive(Default)]
pub struct MemorySink {
    pub records: Vec<TraceRecord>,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }
}

impl TraceSink for MemorySink {
    fn emit(&mut self, record: &TraceRecord) {
        self.records.push(record.clone());
    }
}

/// Discards everything.
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&mut self, _record: &TraceRecord) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> TraceRecord {
        TraceRecord::new("iteration")
            .field("i", 3u32)
            .field("wips", 12.5)
            .field("workload", "Browsing")
    }

    #[test]
    fn jsonl_format() {
        let mut w = JsonlWriter { w: Vec::new() };
        w.emit(&rec());
        let out = String::from_utf8(w.w).unwrap();
        assert_eq!(
            out,
            "{\"kind\":\"iteration\",\"i\":3,\"wips\":12.5,\"workload\":\"Browsing\"}\n"
        );
    }

    #[test]
    fn csv_header_from_first_record_and_missing_fields_empty() {
        let mut w = CsvWriter::new(Vec::new());
        w.emit(&rec());
        w.emit(&TraceRecord::new("iteration").field("i", 4u32));
        let out = String::from_utf8(w.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "i,wips,workload");
        assert_eq!(lines[1], "3,12.5,Browsing");
        assert_eq!(lines[2], "4,,");
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("plain"), "plain");
    }

    #[test]
    fn memory_sink_collects() {
        let mut m = MemorySink::new();
        m.emit(&rec());
        assert_eq!(m.records.len(), 1);
        assert_eq!(m.records[0].get("i"), Some(&Value::UInt(3)));
        assert_eq!(m.records[0].kind(), "iteration");
    }
}
