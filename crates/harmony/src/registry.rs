//! Constructor-by-name tuner registry.
//!
//! One string names one tuning algorithm everywhere: the `--tuner` CLI
//! flag, `SessionConfig::tuner`, checkpoint fingerprints, and the
//! conformance suite all resolve through [`make_tuner`]. Adding a tuner
//! means adding one arm here; everything downstream (CLI validation,
//! the cross-tuner experiment, the conformance tests) picks it up from
//! [`tuner_names`].

use crate::annealing::SimulatedAnnealing;
use crate::baseline::{CoordinateDescent, RandomSearch};
use crate::bestconfig::BestConfigTuner;
use crate::classytune::ClassyTuneTuner;
use crate::simplex::SimplexTuner;
use crate::space::{Configuration, ParamSpace};
use crate::tuna::TunaTuner;
use crate::tuner::Tuner;

/// Every registered tuner name, in presentation order.
pub(crate) const TUNER_NAMES: [&str; 8] = [
    "simplex",
    "simplex-conservative",
    "bestconfig",
    "classytune",
    "tuna",
    "annealing",
    "random",
    "coordinate",
];

/// Registered tuner names (what `--tuner` accepts).
pub fn tuner_names() -> &'static [&'static str] {
    &TUNER_NAMES
}

/// The requested tuner name is not registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTuner(pub String);

impl std::fmt::Display for UnknownTuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown tuner '{}' (available: {})",
            self.0,
            TUNER_NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownTuner {}

/// Construct a registered tuner over `space`.
///
/// `seed` feeds the stochastic tuners' deterministic RNG streams; the
/// deterministic ones (simplex, coordinate) ignore it, so two calls with
/// the same name, space, and seed always yield byte-identical behaviour.
pub fn make_tuner(
    name: &str,
    space: ParamSpace,
    seed: u64,
) -> Result<Box<dyn Tuner + Send>, UnknownTuner> {
    make_tuner_seeded(name, space, None, seed)
}

/// Like [`make_tuner`], but seed the search from a known-good starting
/// configuration where the algorithm supports it (all except the
/// baselines, whose protocols fix their own starting point).
pub fn make_tuner_seeded(
    name: &str,
    space: ParamSpace,
    start: Option<&Configuration>,
    seed: u64,
) -> Result<Box<dyn Tuner + Send>, UnknownTuner> {
    let tuner: Box<dyn Tuner + Send> = match name {
        "simplex" => match start {
            Some(c) => Box::new(SimplexTuner::with_seed(space, c.clone())),
            None => Box::new(SimplexTuner::new(space)),
        },
        "simplex-conservative" => match start {
            Some(c) => Box::new(SimplexTuner::with_seed(space, c.clone()).conservative(true)),
            None => Box::new(SimplexTuner::new(space).conservative(true)),
        },
        "bestconfig" => {
            let t = BestConfigTuner::new(space, seed);
            Box::new(match start {
                Some(c) => t.start_from(c.clone()),
                None => t,
            })
        }
        "classytune" => {
            let t = ClassyTuneTuner::new(space, seed);
            Box::new(match start {
                Some(c) => t.start_from(c.clone()),
                None => t,
            })
        }
        "tuna" => {
            let t = TunaTuner::new(space, seed);
            Box::new(match start {
                Some(c) => t.start_from(c.clone()),
                None => t,
            })
        }
        "annealing" => Box::new(SimulatedAnnealing::new(space, seed)),
        "random" => Box::new(RandomSearch::new(space, seed)),
        "coordinate" => Box::new(CoordinateDescent::new(space)),
        other => return Err(UnknownTuner(other.to_string())),
    };
    Ok(tuner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamDef;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::new("x", 0, 100, 10),
            ParamDef::new("y", 0, 100, 90),
        ])
    }

    #[test]
    fn every_registered_name_constructs_and_reports_itself() {
        for name in tuner_names() {
            let t = make_tuner(name, space(), 42).expect(name);
            assert_eq!(&t.name(), name, "name() must match the registry key");
        }
    }

    #[test]
    fn unknown_names_error_with_the_available_list() {
        let Err(err) = make_tuner("magic", space(), 1) else {
            panic!("'magic' must not resolve to a tuner");
        };
        let msg = err.to_string();
        assert!(msg.contains("unknown tuner 'magic'"), "{msg}");
        for name in tuner_names() {
            assert!(msg.contains(name), "error must list '{name}': {msg}");
        }
    }

    #[test]
    fn same_name_and_seed_is_deterministic() {
        for name in tuner_names() {
            let mut a = make_tuner(name, space(), 7).unwrap();
            let mut b = make_tuner(name, space(), 7).unwrap();
            for i in 0..20 {
                let ca = a.propose();
                let cb = b.propose();
                assert_eq!(ca, cb, "{name} diverged at proposal {i}");
                let p = -(ca.get(0) - 60).abs() as f64;
                a.observe(p);
                b.observe(p);
            }
        }
    }

    #[test]
    fn start_seeding_is_honoured_where_supported() {
        let s = space();
        let start = Configuration::from_values(vec![33, 44]);
        for name in [
            "simplex",
            "simplex-conservative",
            "bestconfig",
            "classytune",
            "tuna",
        ] {
            let mut t = make_tuner_seeded(name, s.clone(), Some(&start), 5).unwrap();
            assert_eq!(t.propose(), start, "{name} must start from the seed");
        }
    }
}
