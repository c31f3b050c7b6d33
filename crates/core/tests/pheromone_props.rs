//! The lazy τ^α snapshot against the eager one, bit for bit.
//!
//! `PheromoneMatrix::prepare_pow` powers only the lanes below the
//! colony's live count and marks the rest stale; a stale lane is replayed
//! from the recorded sweep before a deposit into it, an incremental sweep
//! or a renormalisation. These tests run one random op sequence on two
//! matrices: one snapshotted at random live widths, one always over every
//! lane. After each snapshot every live lane must read the same τ^α bits
//! from both, and after a final full sweep every lane must. The sequences
//! mix deposits on any lane, evaporation through the `MIN_PHEROMONE`
//! floor and the scale renormalisation, lane compaction, clones part way
//! through, and α changes including α = 1.

use biosched_core::aco::PheromoneMatrix;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const SLOTS: u32 = 6;
const VMS: u32 = 5;

#[derive(Debug, Clone)]
enum Op {
    Deposit {
        slot: u32,
        vm: u32,
        /// The deposit as a multiple of the edge's current τ, so deposits
        /// stay visible at any pheromone level.
        factor: f64,
    },
    Evaporate {
        rho: f64,
        times: usize,
    },
    Compact {
        per_lane: usize,
    },
    Clone,
    Snapshot {
        incremental: bool,
        alpha: f64,
        live: usize,
    },
}

/// One op, drawn by weight: deposits 40 %, light evaporation 20 %, a
/// heavy evaporation run 3 %, compaction 7 %, a clone 3 %, a snapshot
/// 27 % (two thirds of them incremental). Heavy runs (ρ = 0.9, 60–119
/// times) clamp the base at the floor and underflow the scale past
/// 1e-100, which renormalises every raw value; they stay rare so that
/// most snapshots can take the incremental path.
fn op() -> impl Strategy<Value = Op> {
    (
        (0u32..100, 0..SLOTS, 0..VMS, 0.01f64..50.0),
        (prop::bool::ANY, 1usize..4, 60usize..120, 0usize..4),
        (0u32..6, 0usize..SLOTS as usize + 3, 0u32..3),
    )
        .prop_map(
            |((pick, slot, vm, factor), (strong, light, heavy, per_lane), (a, live, inc))| {
                // Mostly one α, so incremental sweeps rarely fall back.
                let alpha = [0.01, 0.01, 0.01, 1.0, 0.5, 2.0][a as usize];
                match pick {
                    0..40 => Op::Deposit { slot, vm, factor },
                    40..60 => Op::Evaporate {
                        rho: if strong { 0.4 } else { 0.1 },
                        times: light,
                    },
                    60..63 => Op::Evaporate {
                        rho: 0.9,
                        times: heavy,
                    },
                    63..70 => Op::Compact { per_lane },
                    70..73 => Op::Clone,
                    _ => Op::Snapshot {
                        incremental: inc > 0,
                        alpha,
                        live,
                    },
                }
            },
        )
}

/// Compares τ^α of every edge in `slots` (plus the shared base power).
fn same_pow(
    lazy: &PheromoneMatrix,
    eager: &PheromoneMatrix,
    slots: std::ops::Range<u32>,
    at: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        lazy.get_pow(u32::MAX, 0).to_bits(),
        eager.get_pow(u32::MAX, 0).to_bits(),
        "base power after op {}",
        at
    );
    for slot in slots {
        for vm in 0..VMS {
            prop_assert_eq!(
                lazy.get_pow(slot, vm).to_bits(),
                eager.get_pow(slot, vm).to_bits(),
                "edge ({}, {}) after op {}",
                slot,
                vm,
                at
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lazy_snapshot_matches_eager_bitwise(
        // A huge τ(0) keeps the base off the floor through a
        // renormalisation, so an incremental sweep (and with it a stale
        // lane's replay) can follow one.
        initial in prop_oneof![0.1f64..10.0, 1e150f64..1e200],
        ops in prop::collection::vec(op(), 1..80),
    ) {
        let mut lazy = PheromoneMatrix::new(initial);
        let mut eager = PheromoneMatrix::new(initial);
        let mut last_alpha = 0.01;
        for (at, op) in ops.iter().enumerate() {
            match *op {
                Op::Deposit { slot, vm, factor } => {
                    let amount = factor * eager.get(slot, vm);
                    lazy.deposit(slot, vm, amount);
                    eager.deposit(slot, vm, amount);
                }
                Op::Evaporate { rho, times } => {
                    for _ in 0..times {
                        lazy.evaporate(rho);
                        eager.evaporate(rho);
                    }
                }
                Op::Compact { per_lane } => {
                    lazy.compact_top(per_lane);
                    eager.compact_top(per_lane);
                }
                Op::Clone => {
                    lazy = lazy.clone();
                    eager = eager.clone();
                }
                Op::Snapshot { incremental, alpha, live } => {
                    if incremental {
                        lazy.prepare_pow_incremental(alpha, live);
                        eager.prepare_pow_incremental(alpha, SLOTS as usize);
                    } else {
                        lazy.prepare_pow(alpha, live);
                        eager.prepare_pow(alpha, SLOTS as usize);
                    }
                    last_alpha = alpha;
                    same_pow(&lazy, &eager, 0..SLOTS.min(live as u32), at)?;
                }
            }
        }
        // An incremental full sweep replays every stale lane (unless the
        // floor or α forces the exact sweep); then every lane must agree,
        // and so must every raw τ.
        lazy.prepare_pow_incremental(last_alpha, SLOTS as usize);
        eager.prepare_pow_incremental(last_alpha, SLOTS as usize);
        same_pow(&lazy, &eager, 0..SLOTS, ops.len())?;
        for slot in 0..SLOTS {
            for vm in 0..VMS {
                prop_assert_eq!(lazy.get(slot, vm).to_bits(), eager.get(slot, vm).to_bits());
            }
        }
    }
}
