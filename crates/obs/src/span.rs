//! Wall-clock spans: a trace record that measures its own duration.

use std::time::Instant;

use crate::trace::{TraceRecord, TraceSink};
use crate::value::Value;

/// A span starts timing at [`Span::begin`], accumulates fields, and on
/// [`Span::end`] emits its record with a trailing `wall_ms` field.
pub struct Span {
    record: TraceRecord,
    start: Instant,
}

impl Span {
    pub fn begin(kind: impl Into<String>) -> Self {
        Span {
            record: TraceRecord::new(kind),
            start: Instant::now(),
        }
    }

    /// Builder-style field append.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.record.push(key, value);
        self
    }

    /// Elapsed milliseconds since `begin`.
    pub(crate) fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Stamp `wall_ms` and emit into `sink`.
    pub fn end(mut self, sink: &mut dyn TraceSink) {
        let ms = self.elapsed_ms();
        self.record.push("wall_ms", ms);
        sink.emit(&self.record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemorySink;

    #[test]
    fn span_appends_wall_ms_last() {
        let mut sink = MemorySink::new();
        let span = Span::begin("step").field("a", 1u32);
        span.end(&mut sink);
        let rec = &sink.records[0];
        assert_eq!(rec.kind(), "step");
        let keys: Vec<&str> = rec.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "wall_ms"]);
        assert!(rec.get("wall_ms").unwrap().as_f64().unwrap() >= 0.0);
    }
}
