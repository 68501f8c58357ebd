//! Minimal benchmark harness (std-only) with a Criterion-shaped API.
//!
//! The `benches/*.rs` targets are built with `harness = false` and call
//! [`Criterion::from_args`] from their own `main`. Each benchmark warms
//! up once, then runs timed batches until both a minimum wall-time and a
//! minimum iteration count are reached, and prints the per-iteration
//! mean. A substring filter can be passed on the command line
//! (`cargo bench -- lru`).

use std::time::{Duration, Instant};

/// One benchmark's timing result.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    pub(crate) iters: u64,
    pub(crate) total: Duration,
}

impl Measurement {
    /// Mean seconds per iteration.
    pub fn secs_per_iter(&self) -> f64 {
        if self.iters == 0 {
            0.0
        } else {
            self.total.as_secs_f64() / self.iters as f64
        }
    }
}

/// Time `f` repeatedly until both `min_time` and `min_iters` are met.
pub fn measure<O>(mut f: impl FnMut() -> O, min_time: Duration, min_iters: u64) -> Measurement {
    std::hint::black_box(f()); // warmup, also primes caches/allocations
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        std::hint::black_box(f());
        iters += 1;
        if iters >= min_iters && start.elapsed() >= min_time {
            break;
        }
        // Hard cap so micro-benches cannot spin forever under a long
        // min_time on very fast operations.
        if iters >= 1_000_000 {
            break;
        }
    }
    Measurement {
        iters,
        total: start.elapsed(),
    }
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Benchmark driver: filters, runs, and reports.
pub struct Criterion {
    filter: Option<String>,
    min_iters: u64,
    min_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            filter: None,
            min_iters: 10,
            min_time: Duration::from_millis(200),
        }
    }
}

impl Criterion {
    /// Build from CLI args: the first non-flag argument is a substring
    /// filter; `--quick` lowers the measurement floor. Flags injected by
    /// `cargo bench` (e.g. `--bench`) are ignored.
    pub fn from_args() -> Self {
        let mut c = Criterion::default();
        for arg in std::env::args().skip(1) {
            if arg == "--quick" {
                c.min_iters = 3;
                c.min_time = Duration::from_millis(20);
            } else if !arg.starts_with('-') && c.filter.is_none() {
                c.filter = Some(arg);
            }
        }
        c
    }

    fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Run one named benchmark.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        if !self.selected(name) {
            return;
        }
        let mut b = Bencher {
            min_iters: self.min_iters,
            min_time: self.min_time,
            result: None,
        };
        f(&mut b);
        match b.result {
            Some(m) => println!(
                "{name:<44} {:>12}/iter  ({} iters in {:.2} s)",
                fmt_time(m.secs_per_iter()),
                m.iters,
                m.total.as_secs_f64()
            ),
            None => println!("{name:<44} (no measurement)"),
        }
    }

    /// Open a named group; benchmark names become `group/name`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            prefix: name.to_string(),
            min_iters: None,
        }
    }
}

/// A prefix + per-group sample-size override.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    prefix: String,
    min_iters: Option<u64>,
}

impl BenchmarkGroup<'_> {
    /// Override the minimum iteration count for this group.
    pub fn sample_size(&mut self, n: u64) -> &mut Self {
        self.min_iters = Some(n);
        self
    }

    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        let full = format!("{}/{}", self.prefix, name);
        if !self.c.selected(&full) {
            return;
        }
        let saved = self.c.min_iters;
        if let Some(n) = self.min_iters {
            self.c.min_iters = n;
        }
        self.c.bench_function(&full, |b| f(b));
        self.c.min_iters = saved;
    }

    pub fn finish(&mut self) {}
}

/// Handed to each benchmark closure; call [`Bencher::iter`] exactly once.
pub struct Bencher {
    min_iters: u64,
    min_time: Duration,
    result: Option<Measurement>,
}

impl Bencher {
    pub fn iter<O>(&mut self, f: impl FnMut() -> O) {
        self.result = Some(measure(f, self.min_time, self.min_iters));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_runs_at_least_min_iters() {
        let mut n = 0u64;
        let m = measure(
            || {
                n += 1;
                n
            },
            Duration::from_millis(1),
            5,
        );
        assert!(m.iters >= 5);
        assert!(m.secs_per_iter() >= 0.0);
    }

    #[test]
    fn group_prefixes_and_filters() {
        let mut c = Criterion {
            filter: Some("grp/yes".to_string()),
            min_iters: 1,
            min_time: Duration::from_millis(0),
        };
        let mut ran = Vec::new();
        {
            let mut g = c.benchmark_group("grp");
            g.bench_function("yes", |b| {
                ran.push("yes");
                b.iter(|| 1 + 1)
            });
            g.bench_function("no", |b| {
                ran.push("no");
                b.iter(|| 1 + 1)
            });
            g.finish();
        }
        assert_eq!(ran, vec!["yes"]);
    }
}
