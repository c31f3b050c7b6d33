//! `--sched-params` mini-language: key=value overrides for scheduler knobs.
//!
//! The CLI accepts a comma-separated list like
//! `candidates=32,ants=10,shards=4` and turns it into a
//! [`SchedTuning`], which then builds a scheduler for an
//! [`AlgorithmKind`]. Unknown keys and incoherent combinations are
//! **errors**, never silently clamped — the sweep scripts must fail loudly
//! when a knob is misspelled, or a night of benchmarks measures the wrong
//! configuration.
//!
//! Keys:
//!
//! | key | values | applies to |
//! |---|---|---|
//! | `candidates` | positive integer or `full` | AntColony |
//! | `ants` | positive integer | AntColony |
//! | `iterations` | positive integer | AntColony |
//! | `batch` | positive integer | AntColony |
//! | `q0` | float in \[0,1\] | AntColony |
//! | `population` | positive integer | CuckooSos, Gsa |
//! | `rounds` | positive integer | CuckooSos, Gsa |
//! | `budget` | positive integer (evaluation units) | Racing |
//! | `quantum` | positive integer (evaluation units) | Racing |
//! | `shards` | positive integer or `dc` | any kind (wraps in [`DivideAndConquer`]) |
//!
//! `candidates` also picks ACO's sampling regime: a width below the fleet
//! size draws from top-η candidate lists, `full` (or any width covering
//! the fleet) from full rows. There is no separate sampler key.

use crate::aco::{AcoParams, AntColony};
use crate::cuckoo_sos::{CsosParams, CuckooSos};
use crate::dnc::{DivideAndConquer, ShardSchedulerBuilder, ShardSpec};
use crate::gsa::{Gsa, GsaParams};
use crate::racing::{RaceParams, RacingScheduler};
use crate::scheduler::{AlgorithmKind, Scheduler};

/// Parsed `--sched-params` overrides. Every field is optional; `None`
/// keeps the algorithm's default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedTuning {
    /// Candidate-list size: `Some(None)` forces full rows (`full`),
    /// `Some(Some(k))` forces k candidates.
    pub candidates: Option<Option<usize>>,
    /// Ants per iteration.
    pub ants: Option<usize>,
    /// Construction/update iterations per batch.
    pub iterations: Option<usize>,
    /// Cloudlets per colony batch.
    pub batch: Option<usize>,
    /// ACS exploitation probability.
    pub q0: Option<f64>,
    /// Divide-and-conquer sharding (`N` balanced ranges or `dc`).
    pub shards: Option<ShardSpec>,
    /// Population size (cuckoo-SOS organisms / GSA agents).
    pub population: Option<usize>,
    /// Search rounds for the population families (their `iterations`).
    pub rounds: Option<usize>,
    /// Racing total-budget cap in evaluation units.
    pub budget: Option<u64>,
    /// Racing per-round funding quantum in evaluation units.
    pub quantum: Option<u64>,
}

const VALID_KEYS: &str = "candidates, ants, iterations, batch, q0, shards, \
                          population, rounds, budget, quantum";

fn parse_count(key: &str, value: &str) -> Result<usize, String> {
    let n: usize = value
        .parse()
        .map_err(|_| format!("{key} expects a positive integer, got '{value}'"))?;
    if n == 0 {
        return Err(format!("{key} must be at least 1"));
    }
    Ok(n)
}

impl SchedTuning {
    /// Parses the comma-separated `key=value` list. Empty input is the
    /// all-defaults tuning.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut tuning = SchedTuning::default();
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{item}'"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "candidates" => {
                    tuning.candidates = Some(if value == "full" {
                        None
                    } else {
                        Some(parse_count(key, value)?)
                    });
                }
                "ants" => tuning.ants = Some(parse_count(key, value)?),
                "iterations" => tuning.iterations = Some(parse_count(key, value)?),
                "batch" => tuning.batch = Some(parse_count(key, value)?),
                "q0" => {
                    let q0: f64 = value
                        .parse()
                        .map_err(|_| format!("q0 expects a float, got '{value}'"))?;
                    tuning.q0 = Some(q0);
                }
                "population" => tuning.population = Some(parse_count(key, value)?),
                "rounds" => tuning.rounds = Some(parse_count(key, value)?),
                "budget" => tuning.budget = Some(parse_count(key, value)? as u64),
                "quantum" => tuning.quantum = Some(parse_count(key, value)? as u64),
                "shards" => {
                    tuning.shards = Some(if value == "dc" {
                        ShardSpec::ByDatacenter
                    } else {
                        ShardSpec::Count(parse_count(key, value)?)
                    });
                }
                _ => {
                    return Err(format!(
                        "unknown scheduler parameter '{key}' (valid: {VALID_KEYS})"
                    ))
                }
            }
        }
        Ok(tuning)
    }

    /// True when any ACO-specific knob is set.
    fn touches_aco(&self) -> bool {
        self.candidates.is_some()
            || self.ants.is_some()
            || self.iterations.is_some()
            || self.batch.is_some()
            || self.q0.is_some()
    }

    /// Applies the ACO overrides on top of `base` and validates the result.
    fn apply_aco(&self, base: AcoParams) -> Result<AcoParams, String> {
        let mut p = base;
        if let Some(c) = self.candidates {
            p.candidates = c;
        }
        if let Some(a) = self.ants {
            p.ants = a;
        }
        if let Some(i) = self.iterations {
            p.iterations = i;
        }
        if let Some(b) = self.batch {
            p.batch_size = b;
        }
        if let Some(q0) = self.q0 {
            p.q0 = q0;
        }
        p.validate()?;
        Ok(p)
    }

    /// True when a population-family knob is set.
    fn touches_population(&self) -> bool {
        self.population.is_some() || self.rounds.is_some()
    }

    /// True when a racing knob is set.
    fn touches_racing(&self) -> bool {
        self.budget.is_some() || self.quantum.is_some()
    }

    /// Builds the tuned scheduler for `kind`, wrapping it in
    /// [`DivideAndConquer`] when `shards` is set.
    pub fn build(&self, kind: AlgorithmKind, seed: u64) -> Result<Box<dyn Scheduler>, String> {
        if self.touches_aco() && kind != AlgorithmKind::AntColony {
            return Err(format!(
                "ACO parameters (candidates/ants/iterations/batch/q0) only apply to AntColony, not {kind}"
            ));
        }
        let population_kind = matches!(kind, AlgorithmKind::CuckooSos | AlgorithmKind::Gsa);
        if self.touches_population() && !population_kind {
            return Err(format!(
                "population/rounds only apply to CuckooSOS and GSA, not {kind}"
            ));
        }
        if self.touches_racing() && !matches!(kind, AlgorithmKind::Racing(_)) {
            return Err(format!("budget/quantum only apply to Racing, not {kind}"));
        }
        let inner: ShardSchedulerBuilder = match kind {
            AlgorithmKind::AntColony => {
                let params = self.apply_aco(AcoParams::paper())?;
                Box::new(move |s| Box::new(AntColony::new(params.clone(), s)))
            }
            AlgorithmKind::CuckooSos => {
                let mut params = CsosParams::standard();
                if let Some(p) = self.population {
                    params.population = p;
                }
                if let Some(r) = self.rounds {
                    params.iterations = r;
                }
                params.validate()?;
                Box::new(move |s| Box::new(CuckooSos::new(params.clone(), s)))
            }
            AlgorithmKind::Gsa => {
                let mut params = GsaParams::standard();
                if let Some(p) = self.population {
                    params.population = p;
                }
                if let Some(r) = self.rounds {
                    params.iterations = r;
                }
                params.validate()?;
                Box::new(move |s| Box::new(Gsa::new(params.clone(), s)))
            }
            AlgorithmKind::Racing(objective) => {
                let params = RaceParams {
                    objective,
                    target_units: None,
                    quantum: self.quantum,
                    budget: self.budget,
                };
                params.validate()?;
                Box::new(move |s| Box::new(RacingScheduler::new(params.clone(), s)))
            }
            _ => Box::new(move |s| kind.build(s)),
        };
        match self.shards {
            Some(spec) => Ok(Box::new(DivideAndConquer::new(spec, seed, inner)?)),
            None => Ok(inner(seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SchedulingProblem;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::vm::VmSpec;

    #[test]
    fn parses_the_full_vocabulary() {
        let t =
            SchedTuning::parse("candidates=16, ants=10, iterations=3, batch=64, q0=0, shards=4")
                .unwrap();
        assert_eq!(t.candidates, Some(Some(16)));
        assert_eq!(t.ants, Some(10));
        assert_eq!(t.iterations, Some(3));
        assert_eq!(t.batch, Some(64));
        assert_eq!(t.q0, Some(0.0));
        assert_eq!(t.shards, Some(ShardSpec::Count(4)));
        assert_eq!(
            SchedTuning::parse("candidates=full,shards=dc")
                .unwrap()
                .shards,
            Some(ShardSpec::ByDatacenter)
        );
        assert_eq!(SchedTuning::parse("").unwrap(), SchedTuning::default());
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        assert!(SchedTuning::parse("candidat=32")
            .unwrap_err()
            .contains("unknown scheduler parameter"));
        assert!(SchedTuning::parse("candidates=zero").is_err());
        assert!(SchedTuning::parse("candidates=0").is_err());
        // The sampler is fixed by the candidate-list width; the old
        // sampler keys are unknown like any misspelt key.
        for removed in ["strategy=random", "sampling=alias"] {
            assert!(SchedTuning::parse(removed)
                .unwrap_err()
                .contains("unknown scheduler parameter"));
        }
        assert!(SchedTuning::parse("shards=0").is_err());
        assert!(SchedTuning::parse("ants").is_err(), "missing '='");
    }

    #[test]
    fn out_of_range_values_surface_aco_validation_errors() {
        // out-of-range q0 rejected by AcoParams::validate, not clamped.
        let t = SchedTuning::parse("q0=1.5").unwrap();
        assert!(t.apply_aco(AcoParams::paper()).is_err());
    }

    #[test]
    fn aco_keys_rejected_for_other_kinds() {
        let t = SchedTuning::parse("ants=5").unwrap();
        assert!(t.build(AlgorithmKind::Ga, 1).is_err());
        assert!(t.build(AlgorithmKind::AntColony, 1).is_ok());
        // shards alone applies to any kind.
        let t = SchedTuning::parse("shards=2").unwrap();
        assert!(t.build(AlgorithmKind::Ga, 1).is_ok());
    }

    #[test]
    fn population_and_racing_keys_are_kind_gated() {
        use crate::objective::Objective;
        let t = SchedTuning::parse("population=8,rounds=5").unwrap();
        assert_eq!(t.population, Some(8));
        assert_eq!(t.rounds, Some(5));
        assert!(t.build(AlgorithmKind::CuckooSos, 1).is_ok());
        assert!(t.build(AlgorithmKind::Gsa, 1).is_ok());
        assert!(matches!(
            t.build(AlgorithmKind::AntColony, 1),
            Err(e) if e.contains("population/rounds")
        ));
        let t = SchedTuning::parse("budget=500,quantum=50").unwrap();
        assert_eq!(t.budget, Some(500));
        assert_eq!(t.quantum, Some(50));
        assert!(t
            .build(AlgorithmKind::Racing(Objective::Makespan), 1)
            .is_ok());
        assert!(matches!(
            t.build(AlgorithmKind::CuckooSos, 1),
            Err(e) if e.contains("budget/quantum")
        ));
        assert!(SchedTuning::parse("population=0").is_err());
        assert!(SchedTuning::parse("budget=0").is_err());
    }

    #[test]
    fn built_scheduler_honors_overrides() {
        let problem = SchedulingProblem::single_datacenter(
            vec![VmSpec::homogeneous_default(); 6],
            vec![CloudletSpec::homogeneous_default(); 24],
            CostModel::default(),
        );
        let t = SchedTuning::parse("shards=3,iterations=2,ants=4").unwrap();
        let mut s = t.build(AlgorithmKind::AntColony, 42).unwrap();
        let a = s.schedule(&problem);
        assert!(a.validate(&problem).is_ok());
    }
}
