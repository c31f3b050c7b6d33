//! The full-row Eq. 5 kernel against the materialised oracle.
//!
//! `aco::full_row` picks over a slot's dense weight row with tabu entries
//! masked in place. The frozen reference instead pushes every non-tabu
//! VM and its clipped weight into two lists and draws from those: the ACS
//! `max_by` argmax with probability q0, else the linear roulette, else a
//! uniform list index. These tests rebuild that oracle and check that the
//! kernel returns the same VM from the same RNG state, and leaves the RNG
//! in the same state, over generated rows with zero, non-finite and
//! overflowing weights, all-zero rows, tied maxima and tabu masks that
//! leave as few as one free VM.

use biosched_core::aco::full_row::{self, Tabu};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The current ant's tabu generation in these tests; free entries carry
/// other (stale) stamps.
const GEN: u32 = 7;

/// The materialised oracle: the non-tabu VMs and their clipped weights,
/// in index order, as the reference's tour loop builds them.
fn materialise(row: &[f64], stamps: &[u32]) -> (Vec<usize>, Vec<f64>) {
    let mut candidates = Vec::new();
    let mut weights = Vec::new();
    for (j, (&w, &s)) in row.iter().zip(stamps).enumerate() {
        if s == GEN {
            continue;
        }
        candidates.push(j);
        weights.push(if w.is_finite() { w } else { 0.0 });
    }
    (candidates, weights)
}

/// The reference's linear roulette scan for a given spin.
fn oracle_spin(weights: &[f64], mut spin: f64) -> usize {
    for (i, w) in weights.iter().enumerate() {
        spin -= w;
        if spin <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// The reference's whole per-slot draw: q0 exploitation, roulette,
/// uniform fallback.
fn oracle_pick(rng: &mut StdRng, row: &[f64], stamps: &[u32], q0: f64) -> usize {
    let (candidates, weights) = materialise(row, stamps);
    let total: f64 = weights.iter().fold(0.0, |acc, w| acc + w);
    let pick = if q0 > 0.0 && rng.gen_range(0.0..1.0) < q0 {
        weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("candidates are non-empty")
    } else if !(total.is_finite() && total > 0.0) {
        rng.gen_range(0..weights.len())
    } else {
        oracle_spin(&weights, rng.gen_range(0.0..total))
    };
    candidates[pick]
}

fn tabu(stamps: &[u32]) -> Tabu<'_> {
    Tabu { stamps, gen: GEN }
}

/// One weight: zero, non-finite, huge (sums overflow), a small integer
/// (ties are common) or a continuous value.
fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MAX),
        (0u32..4).prop_map(f64::from),
        0.0f64..10.0,
    ]
}

/// A weight row with a tabu stamp per entry, at least one entry free.
#[derive(Debug, Clone)]
struct Case {
    row: Vec<f64>,
    stamps: Vec<u32>,
}

fn case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec((weight(), 0u32..=GEN, prop::bool::ANY), 1..24),
        any::<usize>(),
        prop::bool::ANY,
    )
        .prop_map(|(cells, free_at, all_zero)| {
            let free_at = free_at % cells.len();
            let row = cells
                .iter()
                .map(|&(w, _, _)| if all_zero { 0.0 } else { w })
                .collect();
            // About half the entries tabu; `free_at` always free, so the
            // mask holds up to v − 1 tabu entries.
            let stamps = cells
                .iter()
                .enumerate()
                .map(
                    |(j, &(_, stamp, is_tabu))| match (is_tabu && j != free_at, stamp) {
                        (true, _) => GEN,
                        (false, GEN) => 0,
                        (false, s) => s,
                    },
                )
                .collect();
            Case { row, stamps }
        })
}

fn q0() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(0.5), Just(1.0)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Same RNG state in, same VM out, same RNG state after.
    #[test]
    fn pick_matches_materialised_oracle(c in case(), q0 in q0(), seed in any::<u64>()) {
        let mut kernel_rng = StdRng::seed_from_u64(seed);
        let mut oracle_rng = StdRng::seed_from_u64(seed);
        let got = full_row::pick(&mut kernel_rng, &c.row, tabu(&c.stamps), q0);
        let want = oracle_pick(&mut oracle_rng, &c.row, &c.stamps, q0);
        prop_assert_eq!(got, want);
        prop_assert_eq!(kernel_rng.gen::<u64>(), oracle_rng.gen::<u64>());
    }

    /// The total is the materialised in-order sum bit for bit, and every
    /// pure draw agrees with the oracle: the argmax, each uniform index,
    /// and the roulette at spins of 0, at each partial sum (the ≤ 0
    /// boundary) and at a fraction of the total.
    #[test]
    fn draws_match_oracle_per_spin_and_index(c in case(), u in 0.0f64..1.0) {
        let (candidates, weights) = materialise(&c.row, &c.stamps);
        let t = tabu(&c.stamps);
        let want_total = weights.iter().fold(0.0, |acc: f64, w| acc + w);
        let (total, free) = full_row::mass(&c.row, t);
        prop_assert_eq!(total.to_bits(), want_total.to_bits());
        prop_assert_eq!(free, candidates.len());

        let argmax = weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| candidates[i]);
        prop_assert_eq!(Some(full_row::argmax_pick(&c.row, t)), argmax);

        for (n, &j) in candidates.iter().enumerate() {
            prop_assert_eq!(full_row::nth_free(t, n), j);
        }

        let mut spins = vec![0.0, u * total];
        let mut partial = 0.0;
        for w in &weights {
            partial += w;
            spins.push(partial);
        }
        for spin in spins.into_iter().filter(|s| s.is_finite()) {
            prop_assert_eq!(
                full_row::spin_pick(&c.row, t, spin),
                candidates[oracle_spin(&weights, spin)],
                "spin {}", spin
            );
        }
    }
}

#[test]
fn zero_spin_lands_on_first_free_entry() {
    // A spin of exactly 0 is ≤ 0 after the first subtraction, whatever
    // the weight. The leading tabu entry must be passed over (the
    // materialised list never holds it), and the next free entry is taken
    // even with weight 0.
    let row = [5.0, 0.0, 3.0];
    let stamps = [GEN, 0, 0];
    assert_eq!(full_row::spin_pick(&row, tabu(&stamps), 0.0), 1);

    // A free leading zero-weight entry is the pick at spin 0.
    let stamps = [0, 0, 0];
    assert_eq!(full_row::spin_pick(&row[1..], tabu(&stamps[1..]), 0.0), 0);

    // Tabu entries subtract nothing: spin 5 lands on entry 0 (5 − 5 = 0),
    // and spin 5.5 passes the tabu entry 1 without subtracting its 9 and
    // lands on entry 2.
    let row = [5.0, 9.0, 3.0];
    let stamps = [0, GEN, 0];
    assert_eq!(full_row::spin_pick(&row, tabu(&stamps), 5.0), 0);
    assert_eq!(full_row::spin_pick(&row, tabu(&stamps), 5.5), 2);
}

#[test]
fn argmax_takes_the_last_tie_and_clips_non_finite() {
    // +inf clips to 0, the tabu 9.0 is skipped, and of the two tied 4.0
    // the later one wins, as `max_by` does.
    let row = [1.0, 4.0, f64::INFINITY, 4.0, 9.0];
    let stamps = [0, 0, 0, 0, GEN];
    assert_eq!(full_row::argmax_pick(&row, tabu(&stamps)), 3);
    assert_eq!(full_row::mass(&row, tabu(&stamps)), (9.0, 4));
}
