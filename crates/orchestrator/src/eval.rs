//! The evaluation engine: a hand-off for the outcomes of prefetched
//! trials, and optionally parallel measurement.
//!
//! The tuning loop spends essentially all of its wall-clock time inside
//! the DES — one full warm-up/measure/cool-down run per iteration.
//! Every run is a *pure function of its [`ClusterScenario`]*
//! (deterministic in the scenario seed, with fault windows baked into
//! the scenario itself), so the trials a tuner has already queued can be
//! evaluated ahead on worker threads without perturbing the search, and
//! the sequential loop finds each outcome again by its scenario.
//!
//! The paper measures every iteration in its own window, so a revisited
//! configuration is a new sample, not a lookup: an unpinned session
//! gives every iteration its own seed, and no two of its scenarios share
//! a key. (`cohort-control` makes 1,002 lookups and `fig4-shopping` 32.)
//! The only outcomes a lookup can find are prefetched trials, each asked
//! for once, so there is one lookup, [`EvalEngine::run`]: a hit takes
//! the stored outcome out of the cache, a miss runs the DES and stores
//! nothing, and an empty cache is not fingerprinted at all. The cache
//! holds just the prefetched trials not yet measured: nothing at width 1.
//! A pinned session ([`crate::session::SessionConfig::pin_seed`], for
//! tests) runs the same lookup, so a configuration it measures twice is
//! simulated twice, to the same bits.
//!
//! The switches:
//!
//! * **Cache** ([`EvalSettings::cache`]) — a fingerprint-keyed map from
//!   scenario to [`IterationOutcome`]. Keys cover the *entire* scenario
//!   (configuration, topology, workload, seed, fault timeline, work
//!   lines, …) via its `Debug` rendering, so two scenarios share an
//!   entry only when the simulation would be byte-for-byte identical
//!   anyway.
//! * **Prefetch** ([`EvalSettings::threads`] ≠ 1, requires the cache)
//!   — when a batch-native tuner has queued trials (a BestConfig round,
//!   TUNA's confirmation runs), the session evaluates the current
//!   scenario and the queued ones concurrently on the process-wide
//!   worker pool ([`crate::par::shared_pool`]) and stores the outcomes,
//!   which the sequential loop's lookups then take. Queued trials are
//!   certain proposals, so no prefetched work is wasted, and none can
//!   change a result: the lookup is keyed by the scenario the loop
//!   actually built. Point tuners such as the simplex queue nothing and
//!   run sequentially at any width. The counters keep their historical
//!   names: `speculated` counts prefetched outcomes.
//!
//! Determinism argument: the cache stores the raw simulation outcome
//! (fault-noise multipliers are applied by the session *after* lookup,
//! exactly as on the uncached path), values are deterministic per key,
//! and hit/miss order affects only the counters — so sequential,
//! cached, and prefetching engines produce byte-identical
//! traces and bit-equal WIPS. Only the end-of-session `eval` summary
//! record and the engine-metric totals (hits skip metric publication)
//! reflect the engine configuration; determinism tests strip those,
//! like `wall_ms`.

use cluster::model::ClusterScenario;
use cluster::node::NodeUtilization;
use cluster::runner::{
    run_iteration, run_iteration_checked, run_iteration_observed, IterationOutcome,
};
use obs::Registry;
use persist::{PersistError, State};
use simkit::time::SimDuration;
use tpcw::metrics::IterationMetrics;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// How the evaluation engine runs measurements. The library default is
/// fully transparent (no cache, one thread): sessions behave exactly as
/// if the engine did not exist. The CLI turns the cache on by default
/// (`--no-eval-cache` opts out) and exposes `--eval-threads N`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSettings {
    /// Keep the outcomes of prefetched trials by scenario fingerprint
    /// until they are looked up.
    pub(crate) cache: bool,
    /// Worker threads for evaluating queued trials ahead: `1` (the
    /// default) disables prefetch entirely, `0` uses one thread per
    /// available core, anything else is an explicit thread count.
    pub(crate) threads: usize,
}

impl Default for EvalSettings {
    fn default() -> Self {
        EvalSettings {
            cache: false,
            threads: 1,
        }
    }
}

impl EvalSettings {
    /// Builder: enable/disable the cache.
    pub fn cache(mut self, on: bool) -> Self {
        self.cache = on;
        self
    }

    /// Builder: set the prefetch worker thread count (see
    /// [`EvalSettings::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Cumulative engine activity (monotone counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran the DES, an empty cache's included.
    pub misses: u64,
    /// Prefetched queued trials whose outcome was *stored* for the
    /// sequential loop to consume. The name predates prefetch and is
    /// kept for the `eval` record's golden schema.
    pub speculated: u64,
    /// Prefetched evaluations whose result was discarded because the
    /// scenario failed validation.
    pub speculation_dropped: u64,
}

impl EvalCounters {
    /// Activity since an earlier snapshot of the same engine.
    pub fn since(&self, earlier: &EvalCounters) -> EvalCounters {
        EvalCounters {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            speculated: self.speculated.saturating_sub(earlier.speculated),
            speculation_dropped: self
                .speculation_dropped
                .saturating_sub(earlier.speculation_dropped),
        }
    }

    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Deterministic outcome cache + parallel prefetch of queued trials.
///
/// Shared across everything a [`crate::session::SessionConfig`] is
/// cloned into (retry/re-measurement probes included) via `Arc`; all
/// methods take `&self`.
pub struct EvalEngine {
    settings: EvalSettings,
    cache: Mutex<BTreeMap<u64, IterationOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
    speculated: AtomicU64,
    speculation_dropped: AtomicU64,
}

impl std::fmt::Debug for EvalEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalEngine")
            .field("settings", &self.settings)
            .field("entries", &self.len())
            .finish()
    }
}

/// Fingerprint of a scenario: FNV-1a over its `Debug` rendering, which
/// covers every field that feeds the simulation (config, topology,
/// workload, scale, browsers, plan, seed, lines, markov flag, load
/// balancing, node specs, and the projected fault timeline).
pub fn scenario_fingerprint(scenario: &ClusterScenario) -> u64 {
    crate::checkpoint::fnv1a(format!("{scenario:?}").as_bytes())
}

/// Run one scenario without the cache, through the metrics-publishing
/// runner when a registry is attached.
pub fn run_raw(scenario: &ClusterScenario, registry: Option<&Registry>) -> IterationOutcome {
    match registry {
        Some(r) => run_iteration_observed(scenario, r),
        None => run_iteration(scenario),
    }
}

impl EvalEngine {
    pub(crate) fn new(settings: EvalSettings) -> Self {
        EvalEngine {
            settings,
            cache: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            speculated: AtomicU64::new(0),
            speculation_dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn cache_enabled(&self) -> bool {
        self.settings.cache
    }

    pub fn threads(&self) -> usize {
        self.settings.threads
    }

    /// Is the engine doing anything beyond plain sequential evaluation?
    /// (Controls whether sessions emit an `eval` summary record.)
    pub(crate) fn enabled(&self) -> bool {
        self.settings.cache || self.settings.threads != 1
    }

    /// Does [`EvalEngine::prefetch`] run anything? It needs both the
    /// cache (to hand results back to the sequential loop) and more than
    /// one thread (to be worth anything).
    pub(crate) fn prefetches(&self) -> bool {
        self.settings.cache && self.settings.threads != 1
    }

    /// Number of cached outcomes.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    pub fn counters(&self) -> EvalCounters {
        EvalCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            speculated: self.speculated.load(Ordering::Relaxed),
            speculation_dropped: self.speculation_dropped.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, IterationOutcome>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look `scenario` up. A hit takes the stored outcome out of the
    /// cache and skips engine-metric publication (the simulation did not
    /// run); a miss runs the DES — publishing metrics when a registry is
    /// attached — and stores nothing, since no later lookup asks for the
    /// same scenario. Both are counted.
    pub fn run(&self, scenario: &ClusterScenario, registry: Option<&Registry>) -> IterationOutcome {
        if !self.settings.cache {
            return run_raw(scenario, registry);
        }
        if let Some(hit) = self.take(scenario) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        run_raw(scenario, registry)
    }

    /// Take `scenario`'s stored outcome out of the cache, if there is
    /// one, without counting or simulating: [`EvalEngine::run`]'s hit
    /// path, and what a resume's journal replay does to the cache for
    /// each replayed iteration. An empty cache is not fingerprinted.
    pub(crate) fn take(&self, scenario: &ClusterScenario) -> Option<IterationOutcome> {
        if self.is_empty() {
            return None;
        }
        self.lock().remove(&scenario_fingerprint(scenario))
    }

    /// Evaluate `scenarios` ahead on the shared worker pool
    /// ([`crate::par::shared_pool`]), caching the results for the
    /// sequential loop's lookups to find. Already-cached and duplicate
    /// scenarios are skipped; scenarios that fail validation are
    /// dropped so the consuming path re-runs them and reports the error
    /// with its usual context. Returns the number of evaluations
    /// actually executed; only *stored* results count toward the
    /// `speculated` counter, the rest land in `speculation_dropped`.
    pub(crate) fn prefetch(&self, scenarios: &[ClusterScenario]) -> usize {
        if !self.prefetches() || scenarios.is_empty() {
            return 0;
        }
        let mut keys: Vec<u64> = Vec::new();
        let mut todo: Vec<ClusterScenario> = Vec::new();
        {
            let cache = self.lock();
            let mut seen = BTreeSet::new();
            for s in scenarios {
                let key = scenario_fingerprint(s);
                if !cache.contains_key(&key) && seen.insert(key) {
                    keys.push(key);
                    todo.push(s.clone());
                }
            }
        }
        if todo.is_empty() {
            return 0;
        }
        let executed = todo.len();
        let outs = crate::par::shared_pool().run_batch(todo, self.settings.threads, |s| {
            run_iteration_checked(s).ok()
        });
        let mut stored = 0u64;
        let mut dropped = 0u64;
        {
            let mut cache = self.lock();
            for (key, out) in keys.into_iter().zip(outs) {
                match out {
                    Some(out) => {
                        cache.insert(key, out);
                        stored += 1;
                    }
                    None => dropped += 1,
                }
            }
        }
        self.speculated.fetch_add(stored, Ordering::Relaxed);
        self.speculation_dropped
            .fetch_add(dropped, Ordering::Relaxed);
        executed
    }

    /// Serialize the cache for a session snapshot's `eval_cache` field
    /// (sorted by key, so the encoding is deterministic).
    pub fn save_cache_state(&self) -> State {
        let cache = self.lock();
        State::map().with(
            "entries",
            State::List(
                cache
                    .iter()
                    .map(|(key, out)| {
                        State::map()
                            .with("key", State::U64(*key))
                            .with("outcome", outcome_state(out))
                    })
                    .collect(),
            ),
        )
    }

    /// Merge entries saved by [`EvalEngine::save_cache_state`] back in
    /// (resume with a warm cache). Every entry is kept, since any may be
    /// a prefetched trial the resumed session asks for; the journal
    /// replay then takes out those of the iterations it replays.
    pub(crate) fn restore_cache(&self, state: &State) -> Result<(), PersistError> {
        let entries = state.field_list("entries")?;
        let mut cache = self.lock();
        for entry in entries {
            let key = entry.field_u64("key")?;
            let outcome = outcome_from_state(entry.require("outcome")?)?;
            cache.insert(key, outcome);
        }
        Ok(())
    }
}

/// Serialize one cached outcome. `p90_response` travels as integer
/// microseconds and every float as raw bits (the `State` codec), so the
/// round trip is bit-exact.
pub(crate) fn outcome_state(out: &IterationOutcome) -> State {
    State::map()
        .with("wips", State::F64(out.metrics.wips))
        .with("completed", State::U64(out.metrics.completed))
        .with("browse_completed", State::U64(out.metrics.browse_completed))
        .with("order_completed", State::U64(out.metrics.order_completed))
        .with("errors", State::U64(out.metrics.errors))
        .with("dropped", State::U64(out.metrics.dropped))
        .with(
            "mean_response_secs",
            State::F64(out.metrics.mean_response_secs),
        )
        .with("p90_us", State::U64(out.metrics.p90_response.as_micros()))
        .with(
            "util",
            State::List(
                out.node_utilization
                    .iter()
                    .map(|u| State::f64_list(&[u.cpu, u.disk, u.net, u.mem]))
                    .collect(),
            ),
        )
        .with("total_done", State::U64(out.total_done))
        .with("total_failed", State::U64(out.total_failed))
        .with("line_wips", State::f64_list(&out.line_wips))
        .with("events", State::U64(out.events))
}

pub(crate) fn outcome_from_state(state: &State) -> Result<IterationOutcome, PersistError> {
    let node_utilization = state
        .field_list("util")?
        .iter()
        .map(|u| {
            let quad = u.to_f64_vec()?;
            if quad.len() != 4 {
                return Err(PersistError::Schema(format!(
                    "node utilization expects 4 values, found {}",
                    quad.len()
                )));
            }
            Ok(NodeUtilization {
                cpu: quad[0],
                disk: quad[1],
                net: quad[2],
                mem: quad[3],
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(IterationOutcome {
        metrics: IterationMetrics {
            wips: state.field_f64("wips")?,
            completed: state.field_u64("completed")?,
            browse_completed: state.field_u64("browse_completed")?,
            order_completed: state.field_u64("order_completed")?,
            errors: state.field_u64("errors")?,
            dropped: state.field_u64("dropped")?,
            mean_response_secs: state.field_f64("mean_response_secs")?,
            p90_response: SimDuration::from_micros(state.field_u64("p90_us")?),
        },
        node_utilization,
        total_done: state.field_u64("total_done")?,
        total_failed: state.field_u64("total_failed")?,
        line_wips: state.require("line_wips")?.to_f64_vec()?,
        events: state.field_u64("events")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;
    use cluster::config::{ClusterConfig, Topology};
    use tpcw::metrics::IntervalPlan;
    use tpcw::mix::Workload;

    fn cfg() -> SessionConfig {
        SessionConfig::new(Topology::single(), Workload::Shopping, 200).plan(IntervalPlan::tiny())
    }

    fn scenario(seed_offset: u32) -> ClusterScenario {
        let c = cfg();
        c.scenario(ClusterConfig::defaults(&c.topology), seed_offset)
    }

    #[test]
    fn fingerprint_distinguishes_scenario_inputs() {
        let base = scenario_fingerprint(&scenario(0));
        assert_eq!(base, scenario_fingerprint(&scenario(0)));
        assert_ne!(base, scenario_fingerprint(&scenario(1)), "seed must key");
        let mut c = cfg();
        c.population = 300;
        let other = c.scenario(ClusterConfig::defaults(&c.topology), 0);
        assert_ne!(base, scenario_fingerprint(&other), "population must key");
        let f = cfg().fault_plan(faults::FaultPlan::new().crash(0.0, 0));
        let faulted = f.scenario(ClusterConfig::defaults(&f.topology), 0);
        assert_ne!(base, scenario_fingerprint(&faulted), "faults must key");
    }

    #[test]
    fn consuming_lookup_takes_hits_and_stores_no_misses() {
        let engine = EvalEngine::new(EvalSettings::default().cache(true).threads(2));
        let s = scenario(0);
        // A miss in an empty cache is counted and stores nothing.
        let a = engine.run(&s, None);
        assert!(engine.is_empty());
        assert_eq!((engine.counters().hits, engine.counters().misses), (0, 1));
        // Beside a prefetched outcome, a miss of another key stores
        // nothing either, and leaves the prefetched one alone.
        assert_eq!(engine.prefetch(std::slice::from_ref(&s)), 1);
        let _ = engine.run(&scenario(1), None);
        assert_eq!(engine.len(), 1);
        assert_eq!((engine.counters().hits, engine.counters().misses), (0, 2));
        // A hit returns the stored outcome and removes its entry, so the
        // next lookup of the same scenario simulates again.
        let b = engine.run(&s, None);
        assert_eq!(a.metrics.wips.to_bits(), b.metrics.wips.to_bits());
        assert_eq!(a.line_wips, b.line_wips);
        assert_eq!(a.events, b.events);
        assert!(engine.is_empty());
        assert_eq!((engine.counters().hits, engine.counters().misses), (1, 2));
        let _ = engine.run(&s, None);
        assert_eq!((engine.counters().hits, engine.counters().misses), (1, 3));
        assert!((engine.counters().hit_rate() - 0.25).abs() < 1e-12);
        assert!(engine.is_empty());
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let engine = EvalEngine::new(EvalSettings::default());
        let s = scenario(0);
        let _ = engine.run(&s, None);
        assert!(engine.is_empty());
        assert_eq!(engine.counters(), EvalCounters::default());
        assert!(!engine.enabled());
        assert!(!engine.prefetches());
    }

    #[test]
    fn prefetch_feeds_the_consuming_lookup() {
        let engine = EvalEngine::new(EvalSettings::default().cache(true).threads(2));
        let scenarios: Vec<ClusterScenario> = (0..3).map(scenario).collect();
        // Duplicates and repeats are deduplicated.
        let executed = engine.prefetch(&scenarios);
        assert_eq!(executed, 3);
        assert_eq!(engine.prefetch(&scenarios), 0, "already cached");
        let out = engine.run(&scenarios[1], None);
        let c = engine.counters();
        assert_eq!((c.hits, c.misses, c.speculated), (1, 0, 3));
        assert_eq!(c.speculation_dropped, 0, "every result was stored");
        // The prefetched result equals a fresh sequential run.
        let fresh = run_iteration(&scenarios[1]);
        assert_eq!(out.metrics.wips.to_bits(), fresh.metrics.wips.to_bits());
    }

    #[test]
    fn prefetch_counts_dropped_results_separately() {
        // Regression: `speculated` used to count every executed
        // prefetch, including results that were never stored. A
        // scenario that fails validation is dropped (the consuming path
        // re-runs it for the real error) and must land in
        // `speculation_dropped`, not `speculated`.
        let engine = EvalEngine::new(EvalSettings::default().cache(true).threads(2));
        let good = scenario(0);
        let mut bad = scenario(1);
        bad.topology = cluster::config::Topology::tiers(2, 1, 1).expect("topology");
        let executed = engine.prefetch(&[good, bad]);
        assert_eq!(executed, 2, "both scenarios were evaluated");
        let c = engine.counters();
        assert_eq!(c.speculated, 1, "only the stored result counts");
        assert_eq!(c.speculation_dropped, 1, "the invalid scenario was dropped");
        assert_eq!(engine.len(), 1);
    }

    #[test]
    fn counters_since_includes_dropped() {
        let a = EvalCounters {
            hits: 5,
            misses: 4,
            speculated: 3,
            speculation_dropped: 2,
        };
        let b = EvalCounters {
            hits: 7,
            misses: 5,
            speculated: 6,
            speculation_dropped: 5,
        };
        let d = b.since(&a);
        assert_eq!(
            (d.hits, d.misses, d.speculated, d.speculation_dropped),
            (2, 1, 3, 3)
        );
    }

    #[test]
    fn prefetch_requires_cache_and_threads() {
        let no_cache = EvalEngine::new(EvalSettings::default().threads(4));
        assert_eq!(no_cache.prefetch(&[scenario(0)]), 0);
        let one_thread = EvalEngine::new(EvalSettings::default().cache(true));
        assert_eq!(one_thread.prefetch(&[scenario(0)]), 0);
    }

    #[test]
    fn cache_state_roundtrip_is_bit_exact() {
        let engine = EvalEngine::new(EvalSettings::default().cache(true).threads(2));
        let scenarios: Vec<ClusterScenario> = (0..3).map(scenario).collect();
        assert_eq!(engine.prefetch(&scenarios), 3);
        let originals: Vec<IterationOutcome> = scenarios.iter().map(|s| run_raw(s, None)).collect();
        let saved = engine.save_cache_state();
        let decoded = State::decode(&saved.encode()).expect("decode");
        let restored = EvalEngine::new(EvalSettings::default().cache(true));
        restored.restore_cache(&decoded).expect("restore");
        assert_eq!(restored.len(), 3);
        for (s, orig) in scenarios.iter().zip(&originals) {
            let hit = restored.run(s, None);
            assert_eq!(hit.metrics.wips.to_bits(), orig.metrics.wips.to_bits());
            assert_eq!(
                hit.metrics.mean_response_secs.to_bits(),
                orig.metrics.mean_response_secs.to_bits()
            );
            assert_eq!(hit.metrics.p90_response, orig.metrics.p90_response);
            assert_eq!(hit.metrics.completed, orig.metrics.completed);
            assert_eq!(hit.total_done, orig.total_done);
            assert_eq!(hit.total_failed, orig.total_failed);
            assert_eq!(hit.events, orig.events);
            assert_eq!(hit.line_wips.len(), orig.line_wips.len());
            for (a, b) in hit.line_wips.iter().zip(&orig.line_wips) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(hit.node_utilization.len(), orig.node_utilization.len());
            for (a, b) in hit.node_utilization.iter().zip(&orig.node_utilization) {
                assert_eq!(a.cpu.to_bits(), b.cpu.to_bits());
                assert_eq!(a.disk.to_bits(), b.disk.to_bits());
                assert_eq!(a.net.to_bits(), b.net.to_bits());
                assert_eq!(a.mem.to_bits(), b.mem.to_bits());
            }
        }
        assert_eq!(restored.counters().hits, 3);
        assert!(restored.is_empty());
    }

    #[test]
    fn restore_rejects_malformed_state() {
        let engine = EvalEngine::new(EvalSettings::default().cache(true));
        assert!(engine.restore_cache(&State::Null).is_err());
        let bad = State::map().with(
            "entries",
            State::List(vec![State::map().with("key", State::U64(1))]),
        );
        assert!(engine.restore_cache(&bad).is_err());
    }
}
