//! Named metrics: counters, gauges, histograms, and the registry that
//! owns them. Handles are cheap clones of `Arc`ed atomics — updating a
//! metric never touches the registry lock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::hist::{HistSnapshot, Histogram};

/// Monotonic counter.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins float gauge (f64 bits in an atomic word).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Keep the larger of the current value and `v` (high-water mark).
    pub fn set_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= v {
                return;
            }
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Lock a registry map, recovering from poisoning: the maps hold only
/// `Arc` handles, so state left by a panicked thread is still coherent.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    hists: Mutex<BTreeMap<String, Histogram>>,
}

/// Shared, thread-safe metrics registry. Cloning shares the metrics.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name` and hand back a lock-free handle.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock(&self.inner.counters);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock(&self.inner.gauges);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock(&self.inner.hists);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Copy out every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.inner.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock(&self.inner.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            hists: lock(&self.inner.hists)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Plain-data copy of a registry at one instant.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub hists: Vec<(String, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// Human-readable dump for the `--metrics` CLI flag.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k} = {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{k} = {v:.4}");
        }
        for (k, h) in &self.hists {
            if h.count == 0 {
                let _ = writeln!(out, "{k}: count=0");
            } else {
                let _ = writeln!(
                    out,
                    "{k}: count={} mean={:.4} min={:.4} p50~{:.4} max={:.4}",
                    h.count,
                    h.mean(),
                    h.min,
                    h.quantile(0.5),
                    h.max
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_state_across_handles() {
        let reg = Registry::new();
        let a = reg.counter("events");
        let b = reg.counter("events");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("events").get(), 3);

        let g = reg.gauge("depth");
        g.set(4.5);
        assert_eq!(reg.gauge("depth").get(), 4.5);
        g.set_max(2.0);
        assert_eq!(g.get(), 4.5);
        g.set_max(9.0);
        assert_eq!(g.get(), 9.0);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("z").inc();
        reg.counter("a").inc();
        reg.gauge("g").set(1.0);
        reg.histogram("h").record(2.0);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "z"]
        );
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.hists[0].1.count, 1);
        let text = snap.render_text();
        assert!(text.contains("a = 1"));
        assert!(text.contains("h: count=1"));
    }
}
