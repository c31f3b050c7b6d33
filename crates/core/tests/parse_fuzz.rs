//! Parse-fuzz of the two user-facing mini-languages, `--sched-params`
//! ([`SchedTuning::parse`]) and `--faults` ([`FaultSpec::parse`]).
//!
//! Inputs are random sequences of `key JOIN value SEP` items, each part
//! picked by index from a `|`-separated token list that mixes the real
//! vocabulary with removed keys, hostile numbers and junk, so most cases
//! reach deep into the parsers and some are malformed at every position.
//! Whatever the input, parsing — and, for `--sched-params`, building a
//! scheduler for every algorithm kind, and for `--faults`, generating and
//! validating a plan — must return `Ok` or `Err`, never panic.

use biosched_core::objective::Objective;
use biosched_core::scheduler::AlgorithmKind::{self, *};
use biosched_core::tuning::SchedTuning;
use proptest::prelude::*;
use simcloud::faults::{FaultPlan, FaultSpec};

const SCHED_KEYS: &str = "candidates|ants|iterations|batch|q0|shards|population|rounds|budget|\
                          quantum|sampling|strategy||x| ants ";
const SCHED_VALUES: &str = "0|1|3|32|full|dc|nan|-1|0.5|1.5|inf|18446744073709551616|alias|\
                            prefix|random||=|é";
const FAULT_KEYS: &str = "hosts|fail|repair|stragglers|slow|slowstart|slowdur|sampling||x";
const FAULT_VALUES: &str = "0|0.25|1|2.0|-1|nan|inf|never|500..8000|2000..5000|0..0|8000..500|\
                            -5..5|nan..1|1..inf|..|1..||junk";
// Well-formed joins and separators dominate so most items parse and
// later items get reached; the rest break the grammar.
const JOINS: &str = "=|=|=|=| = ||==";
const SEPS: &str = ",|,|,|,|, |,,||=";

fn tokens(list: &str) -> Vec<&str> {
    list.split('|').collect()
}

/// Up to eight `key JOIN value SEP` items, as token indices.
fn items(keys: &str, values: &str) -> impl Strategy<Value = Vec<(usize, usize, usize, usize)>> {
    let n = |list| tokens(list).len();
    let item = (0..n(keys), 0..n(JOINS), 0..n(values), 0..n(SEPS));
    prop::collection::vec(item, 0..8)
}

fn render(items: &[(usize, usize, usize, usize)], keys: &str, values: &str) -> String {
    let (keys, joins, values, seps) = (tokens(keys), tokens(JOINS), tokens(values), tokens(SEPS));
    items
        .iter()
        .map(|&(k, j, v, s)| [keys[k], joins[j], values[v], seps[s]].concat())
        .collect()
}

/// Every algorithm kind, the objective-carrying ones at every objective.
fn all_kinds() -> Vec<AlgorithmKind> {
    let mut kinds = vec![BaseTest, AntColony, HoneyBee, Rbs, MinMin, MaxMin, Pso, Ga];
    kinds.extend([Sjf, LeastConnection, WeightedRoundRobin]);
    kinds.extend([BestFit, CuckooSos, Gsa]);
    for objective in Objective::ALL {
        kinds.extend([Hybrid(objective), Portfolio(objective), Racing(objective)]);
    }
    kinds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn sched_params_never_panic(items in items(SCHED_KEYS, SCHED_VALUES), seed in 0u64..1_000) {
        let input = render(&items, SCHED_KEYS, SCHED_VALUES);
        if let Ok(tuning) = SchedTuning::parse(&input) {
            for kind in all_kinds() {
                let _ = tuning.build(kind, seed);
            }
        }
    }

    #[test]
    fn fault_specs_never_panic(items in items(FAULT_KEYS, FAULT_VALUES), seed in 0u64..1_000) {
        let input = render(&items, FAULT_KEYS, FAULT_VALUES);
        if let Ok(spec) = FaultSpec::parse(&input) {
            let plan = FaultPlan::generate(&spec, seed, &[2, 3], 6);
            prop_assert!(plan.validate(&[2, 3], 6).is_ok(), "{input:?} gave an invalid plan");
        }
    }
}
