//! The Tomcat-like application tier model.
//!
//! Requests reaching the app tier first need an **HTTP processor thread**
//! (`minProcessors`/`maxProcessors`, backlog `acceptCount` — overflow is a
//! refused connection). Dynamic pages additionally need an **AJP worker**
//! (`AJPminProcessors`/`AJPmaxProcessors`/`AJPacceptCount`) for the servlet
//! container, and hold *both* threads for their entire residence —
//! including every database round-trip. That coupling is why the paper's
//! ordering workload tunes the pools up so aggressively.
//!
//! `bufferSize` sets the response I/O chunk: each chunk costs a little
//! CPU, so large responses on small buffers burn measurable cycles.

use crate::params::WebParams;
use crate::request::ReqId;
use simkit::resource::MultiServer;
use simkit::time::{SimDuration, SimTime};

/// Cost in CPU time to spawn a processor thread beyond the warm minimum.
const THREAD_SPAWN_CPU: SimDuration = SimDuration::from_micros(2_500);

/// CPU cost per response buffer chunk flushed.
const CHUNK_CPU: SimDuration = SimDuration::from_micros(40);

/// Per-node application-server state.
#[derive(Debug, Clone)]
pub(crate) struct AppState {
    pub(crate) params: WebParams,
    /// HTTP processor pool (semaphore usage: demand 0, held explicitly).
    pub(crate) http_pool: MultiServer<ReqId>,
    /// AJP worker pool.
    pub(crate) ajp_pool: MultiServer<ReqId>,
}

impl AppState {
    pub(crate) fn new(params: WebParams, start: SimTime) -> Self {
        let http = params.http_pool();
        let ajp = params.ajp_pool();
        AppState {
            params,
            http_pool: MultiServer::new(start, http.max, Some(http.accept as usize)),
            ajp_pool: MultiServer::new(start, ajp.max, Some(ajp.accept as usize)),
        }
    }

    /// CPU demand of servlet execution: base demand plus thread-spawn cost
    /// when the pool is already running beyond its warm minimum (Tomcat
    /// reaps idle threads down to `minProcessors`, so bursts re-create
    /// them), plus per-chunk response flushing.
    pub(crate) fn servlet_cpu(&self, base: SimDuration, response_bytes: u64) -> SimDuration {
        let mut cpu = base;
        if self.http_pool.busy() > self.params.http_pool().min {
            cpu += THREAD_SPAWN_CPU;
        }
        cpu += self.chunk_cpu(response_bytes);
        cpu
    }

    /// CPU to flush a response of `bytes` through `bufferSize` chunks.
    pub(crate) fn chunk_cpu(&self, bytes: u64) -> SimDuration {
        let buf = self.params.buffer_size.max(512) as u64;
        let chunks = bytes.div_ceil(buf).max(1);
        SimDuration::from_micros(CHUNK_CPU.as_micros() * chunks)
    }

    /// Scheduling overhead multiplier. Most held threads are *blocked* on
    /// downstream I/O (sleeping, nearly free); only a fraction are runnable
    /// at any instant, so the per-thread context-switch tax is mild.
    pub(crate) fn scheduling_factor(&self, cores: u32) -> f64 {
        let held = self.http_pool.busy() + self.ajp_pool.busy();
        if held > cores {
            1.0 + 0.0008 * (held - cores) as f64
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::resource::Admission;

    fn app() -> AppState {
        AppState::new(WebParams::default_config(), SimTime::ZERO)
    }

    #[test]
    fn pools_sized_from_params() {
        let a = app();
        assert_eq!(a.http_pool.servers(), 20);
        assert_eq!(a.ajp_pool.servers(), 20);
    }

    #[test]
    fn accept_queue_overflows_at_accept_count() {
        let mut a = app();
        let t = SimTime::ZERO;
        // Fill all 20 threads.
        for r in 0..20 {
            assert_eq!(
                a.http_pool.offer(t, r, SimDuration::ZERO),
                Admission::Started
            );
        }
        // Fill the backlog (acceptCount = 10).
        for r in 20..30 {
            assert_eq!(
                a.http_pool.offer(t, r, SimDuration::ZERO),
                Admission::Enqueued
            );
        }
        // 31st is refused.
        assert_eq!(
            a.http_pool.offer(t, 30, SimDuration::ZERO),
            Admission::Rejected
        );
    }

    #[test]
    fn servlet_cpu_adds_spawn_beyond_min() {
        let mut a = app();
        let base = SimDuration::from_millis(5);
        let idle_cost = a.servlet_cpu(base, 4_096);
        // Occupy more threads than minProcessors (5).
        for r in 0..8 {
            a.http_pool.offer(SimTime::ZERO, r, SimDuration::ZERO);
        }
        let busy_cost = a.servlet_cpu(base, 4_096);
        assert!(busy_cost > idle_cost);
        assert_eq!(busy_cost - idle_cost, THREAD_SPAWN_CPU);
    }

    #[test]
    fn chunk_cpu_falls_with_bigger_buffers() {
        let mut small = WebParams::default_config();
        small.buffer_size = 512;
        let mut big = WebParams::default_config();
        big.buffer_size = 16_384;
        let a_small = AppState::new(small, SimTime::ZERO);
        let a_big = AppState::new(big, SimTime::ZERO);
        let bytes = 64 * 1024;
        assert!(a_small.chunk_cpu(bytes) > a_big.chunk_cpu(bytes));
        // 64 KB / 512 B = 128 chunks.
        assert_eq!(a_small.chunk_cpu(bytes), SimDuration::from_micros(128 * 40));
    }

    #[test]
    fn scheduling_factor_kicks_in_when_oversubscribed() {
        let mut params = WebParams::default_config();
        params.max_processors = 200;
        let mut a = AppState::new(params, SimTime::ZERO);
        assert_eq!(a.scheduling_factor(2), 1.0);
        for r in 0..100 {
            a.http_pool.offer(SimTime::ZERO, r, SimDuration::ZERO);
        }
        let f = a.scheduling_factor(2);
        assert!(f > 1.05 && f < 1.15, "factor {f}");
    }
}
