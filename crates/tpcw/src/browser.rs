//! Emulated browsers (EBs).
//!
//! TPC-W load is *closed-loop*: a fixed population of emulated browsers
//! each cycles think → request → wait-for-response → think. Each browser
//! owns an independent RNG substream so the draw sequence of one browser is
//! unaffected by the interleaving of others.

use crate::interaction::Interaction;
use crate::mix::Mix;
use simkit::rng::SimRng;
use simkit::time::SimDuration;

/// Identifier of an emulated browser (dense, `0..population`).
pub type BrowserId = u32;

/// Configuration of the emulated-browser population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrowserConfig {
    /// Number of concurrent emulated browsers.
    pub population: u32,
    /// Mean think time between interactions (TPC-W: exponential, 7 s).
    pub think_mean: SimDuration,
    /// Per-interaction client timeout; a response slower than this counts
    /// as an error (the EB gives up).
    pub timeout: SimDuration,
}

impl BrowserConfig {
    /// TPC-W-style defaults at the paper's operating point.
    pub fn hpdc04(population: u32) -> Self {
        BrowserConfig {
            population,
            think_mean: SimDuration::from_secs(7),
            timeout: SimDuration::from_secs(90),
        }
    }
}

/// The population of emulated browsers.
#[derive(Debug, Clone)]
pub struct BrowserPool {
    config: BrowserConfig,
    rngs: Vec<SimRng>,
}

impl BrowserPool {
    /// Create the pool; browser `i` gets substream `i` of `seed_rng`.
    pub fn new(config: BrowserConfig, seed_rng: &SimRng) -> Self {
        let rngs = (0..config.population)
            .map(|i| seed_rng.substream(i as u64))
            .collect();
        BrowserPool { config, rngs }
    }

    pub fn config(&self) -> &BrowserConfig {
        &self.config
    }

    /// Sample the interaction browser `id` requests next, given the mix.
    pub fn sample_interaction(&mut self, id: BrowserId, mix: &Mix) -> Interaction {
        mix.sample(&mut self.rngs[id as usize])
    }

    /// Direct access to a browser's RNG (object choice, size jitter).
    pub fn rng(&mut self, id: BrowserId) -> &mut SimRng {
        &mut self.rngs[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::Workload;

    fn pool(n: u32) -> BrowserPool {
        BrowserPool::new(BrowserConfig::hpdc04(n), &SimRng::new(42))
    }

    /// Draw browser `id`'s next think time the way the cluster model does.
    fn think(p: &mut BrowserPool, id: BrowserId) -> SimDuration {
        let mean = p.config().think_mean;
        p.rng(id).exp_duration(mean)
    }

    #[test]
    fn think_times_average_to_mean() {
        let mut p = pool(4);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| think(&mut p, 1).as_micros()).sum();
        let avg = total as f64 / n as f64 / 1e6;
        assert!((6.6..7.4).contains(&avg), "avg think {avg}");
    }

    #[test]
    fn browsers_have_independent_streams() {
        let mut p1 = pool(2);
        let mut p2 = pool(2);
        // Same browser in two identically-seeded pools: identical sequence.
        for _ in 0..100 {
            assert_eq!(think(&mut p1, 0), think(&mut p2, 0));
        }
        // Different browsers: different sequences.
        let same = (0..100)
            .filter(|_| think(&mut p1, 0) == think(&mut p1, 1))
            .count();
        assert!(same < 3);
    }

    #[test]
    fn interleaving_does_not_perturb_streams() {
        let mut a = pool(2);
        let mut b = pool(2);
        // Drain browser 1 heavily in pool a only.
        for _ in 0..500 {
            think(&mut a, 1);
        }
        // Browser 0 must still match between pools.
        for _ in 0..50 {
            assert_eq!(think(&mut a, 0), think(&mut b, 0));
        }
    }

    #[test]
    fn interactions_follow_mix() {
        let mut p = pool(1);
        let mix = Workload::Browsing.mix();
        let n = 50_000;
        let home = (0..n)
            .filter(|_| p.sample_interaction(0, mix) == Interaction::Home)
            .count();
        let frac = home as f64 / n as f64;
        assert!((0.27..0.31).contains(&frac), "home fraction {frac}");
    }
}
