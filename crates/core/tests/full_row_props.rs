//! The full-row Eq. 5 group kernel against the materialised oracle,
//! lane by lane.
//!
//! `aco::full_row` builds a group of ants (lanes) in lockstep over a
//! slot's dense, pre-clipped weight row, with each lane's tabu set as one
//! bit of a per-VM mask. The frozen reference instead builds one ant at a
//! time: it pushes every non-tabu VM and its clipped weight into two
//! lists and draws from those: the ACS `max_by` argmax with probability
//! q0, else the linear roulette, else a uniform list index. These tests
//! rebuild that oracle for each lane and check that the kernel returns
//! the lane's VM from the lane's RNG state, and leaves that RNG in the
//! same state, over generated rows with zero, non-finite and overflowing
//! weights, all-zero rows, tied maxima, lanes with different tabu masks
//! that leave as few as one free VM, and group sizes 1 to 8 at widths 4
//! (the scheduler's) and 8 (the mask's).

use biosched_core::aco::full_row::{self, clip};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether `mask` makes the VM tabu for `lane`.
fn is_tabu(mask: u8, lane: usize) -> bool {
    mask >> lane & 1 == 1
}

/// The materialised oracle for one lane: its non-tabu VMs and their
/// clipped weights, in index order, as the reference's tour loop builds
/// them from the raw row.
fn materialise(row: &[f64], tabu: &[u8], lane: usize) -> (Vec<usize>, Vec<f64>) {
    let mut candidates = Vec::new();
    let mut weights = Vec::new();
    for (j, (&w, &m)) in row.iter().zip(tabu).enumerate() {
        if is_tabu(m, lane) {
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

/// The reference's in-order total.
fn oracle_total(weights: &[f64]) -> f64 {
    weights.iter().fold(0.0, |acc, w| acc + w)
}

/// The reference's argmax: `max_by`, so the last maximum wins.
fn oracle_argmax(weights: &[f64]) -> usize {
    weights
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("candidates are non-empty")
}

/// The reference's whole per-slot draw for one lane: q0 exploitation,
/// roulette, uniform fallback.
fn oracle_pick(rng: &mut StdRng, row: &[f64], tabu: &[u8], lane: usize, q0: f64) -> usize {
    let (candidates, weights) = materialise(row, tabu, lane);
    let total = oracle_total(&weights);
    let pick = if q0 > 0.0 && rng.gen_range(0.0..1.0) < q0 {
        oracle_argmax(&weights)
    } else if !(total.is_finite() && total > 0.0) {
        rng.gen_range(0..weights.len())
    } else {
        oracle_spin(&weights, rng.gen_range(0.0..total))
    };
    candidates[pick]
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

/// A raw weight row, one lane mask per entry and a group size; every
/// lane of the group has at least one free entry.
#[derive(Debug, Clone)]
struct Case {
    row: Vec<f64>,
    tabu: Vec<u8>,
    lanes: usize,
}

impl Case {
    /// The row as the scheduler hands it to the kernel: clipped once.
    fn clipped(&self) -> Vec<f64> {
        self.row.iter().map(|&w| clip(w)).collect()
    }
}

fn case() -> impl Strategy<Value = Case> {
    // Rows up to 40 VMs span several spin chunks.
    (
        prop::collection::vec((weight(), any::<u8>()), 1..40),
        prop::collection::vec(any::<usize>(), 8..9),
        1usize..=8,
        prop::bool::ANY,
    )
        .prop_map(|(cells, free_at, lanes, all_zero)| {
            let row = cells
                .iter()
                .map(|&(w, _)| if all_zero { 0.0 } else { w })
                .collect();
            // About half of each lane's entries tabu, bits of lanes beyond
            // the group included: the kernel must ignore them. One entry
            // per lane is forced free, so a mask holds up to v − 1 tabu
            // entries.
            let mut tabu: Vec<u8> = cells.iter().map(|&(_, mask)| mask).collect();
            for (lane, at) in free_at.iter().enumerate() {
                tabu[at % cells.len()] &= !(1 << lane);
            }
            Case { row, tabu, lanes }
        })
}

fn q0() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(0.5), Just(1.0)]
}

/// Same RNG state in, same VM out, same RNG state after, for every lane
/// of a `W`-wide group.
fn check_group<const W: usize>(c: &Case, q0: f64, seed: u64) -> Result<(), TestCaseError> {
    let lanes = c.lanes.min(W);
    let lane_seed = |lane: usize| seed.wrapping_add(lane as u64);
    let mut rngs: Vec<StdRng> = (0..lanes)
        .map(|l| StdRng::seed_from_u64(lane_seed(l)))
        .collect();
    let picks = full_row::pick_group::<W, _>(&mut rngs, &c.clipped(), &c.tabu, q0);
    for (lane, rng) in rngs.iter_mut().enumerate() {
        let mut oracle_rng = StdRng::seed_from_u64(lane_seed(lane));
        let want = oracle_pick(&mut oracle_rng, &c.row, &c.tabu, lane, q0);
        prop_assert_eq!(picks[lane], want, "lane {} of {} (W = {})", lane, lanes, W);
        prop_assert_eq!(
            rng.gen::<u64>(),
            oracle_rng.gen::<u64>(),
            "lane {} RNG",
            lane
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn group_pick_matches_oracle_lane_by_lane(c in case(), q0 in q0(), seed in any::<u64>()) {
        check_group::<4>(&c, q0, seed)?;
        check_group::<8>(&c, q0, seed)?;
    }

    /// Each lane's total is its materialised in-order sum bit for bit,
    /// and every pure draw agrees with the oracle per lane: the argmax,
    /// each uniform index, and the roulette at spins of 0, at each partial
    /// sum (the ≤ 0 boundary) and at a fraction of the total.
    #[test]
    fn draws_match_oracle_per_lane_spin_and_index(c in case(), u in 0.0f64..1.0) {
        const W: usize = 8;
        let row = c.clipped();
        let lanes = u8::MAX >> (8 - c.lanes);
        let totals = full_row::masses::<W>(&row, &c.tabu);
        let argmax = full_row::argmax_picks::<W>(&row, &c.tabu, lanes);
        let mut spins: Vec<Vec<f64>> = Vec::new();
        let mut want: Vec<Vec<usize>> = Vec::new();
        for lane in 0..c.lanes {
            let (candidates, weights) = materialise(&c.row, &c.tabu, lane);
            let total = oracle_total(&weights);
            prop_assert_eq!(totals[lane].to_bits(), total.to_bits(), "lane {} total", lane);
            prop_assert_eq!(argmax[lane], candidates[oracle_argmax(&weights)], "lane {}", lane);
            for (n, &j) in candidates.iter().enumerate() {
                prop_assert_eq!(full_row::nth_free(&c.tabu, lane, n), j);
            }
            let mut lane_spins = vec![0.0, u * total];
            let mut partial = 0.0;
            for w in &weights {
                partial += w;
                lane_spins.push(partial);
            }
            lane_spins.retain(|s| s.is_finite());
            want.push(lane_spins.iter().map(|&s| candidates[oracle_spin(&weights, s)]).collect());
            spins.push(lane_spins);
        }
        // Round i spins every lane that still has an i-th spin at once.
        let rounds = spins.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..rounds {
            let mut spin = [0.0; W];
            let mut spinning = 0u8;
            for (lane, lane_spins) in spins.iter().enumerate() {
                if let Some(&s) = lane_spins.get(i) {
                    spin[lane] = s;
                    spinning |= 1 << lane;
                }
            }
            let got = full_row::spin_picks::<W>(&row, &c.tabu, spin, spinning);
            for (lane, lane_want) in want.iter().enumerate() {
                if let Some(&j) = lane_want.get(i) {
                    prop_assert_eq!(got[lane], j, "lane {} spin {}", lane, spin[lane]);
                }
            }
        }
    }
}

#[test]
fn zero_spin_lands_on_first_free_entry() {
    // A spin of exactly 0 is ≤ 0 after the first subtraction, whatever
    // the weight. A leading tabu entry must be passed over (the
    // materialised list never holds it), and the next free entry is taken
    // even with weight 0. Lane 0 has entry 0 tabu; lane 1 has none.
    let row = [5.0, 0.0, 3.0];
    let tabu = [0b01, 0, 0];
    assert_eq!(
        full_row::spin_picks::<2>(&row, &tabu, [0.0, 0.0], 0b11),
        [1, 0]
    );

    // Tabu entries subtract nothing: spin 5 lands on entry 0 (5 − 5 = 0),
    // and spin 5.5 passes the tabu entry 1 without subtracting its 9 and
    // lands on entry 2.
    let row = [5.0, 9.0, 3.0];
    let tabu = [0, 0b11, 0];
    assert_eq!(
        full_row::spin_picks::<2>(&row, &tabu, [5.0, 5.5], 0b11),
        [0, 2]
    );
}

#[test]
fn spin_crossing_before_a_tabu_run_lands_chunks_later() {
    // Spin 0 is ≤ 0 from the start, but lane 0's first 19 entries are
    // tabu, so it lands on entry 19, two chunks on; lane 1 lands on 0.
    // Lane 2's spin outlasts the row and takes its last free entry, 18.
    let row = vec![1.0; 20];
    let mut tabu = vec![0b001u8; 20];
    tabu[19] = 0b100;
    assert_eq!(
        full_row::spin_picks::<4>(&row, &tabu, [0.0, 0.0, 100.0, 0.0], 0b111)[..3],
        [19, 0, 18]
    );
}

#[test]
fn argmax_takes_the_last_tie_per_lane() {
    // Of the two tied 4.0 the later one wins, as `max_by` does; the 9.0
    // is tabu for lane 0 only, and a clipped +inf counts as 0.
    let row = [1.0, 4.0, clip(f64::INFINITY), 4.0, 9.0];
    let tabu = [0, 0, 0, 0, 0b01];
    assert_eq!(full_row::argmax_picks::<2>(&row, &tabu, 0b11), [3, 4]);
    assert_eq!(full_row::masses::<2>(&row, &tabu), [9.0, 18.0]);
}
