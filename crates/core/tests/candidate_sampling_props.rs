//! Property-based tests of the candidate-list machinery behind the ACO
//! fast path: candidate blocks must only ever name real, distinct VMs on
//! arbitrary problems, and the O(log k) prefix-sum roulette must pick
//! exactly the VM a linear left-to-right roulette scan picks given the
//! same weight row and the same spin.

use biosched_core::aco::prefix_pick;
use biosched_core::eval::EvalCache;
use biosched_core::problem::SchedulingProblem;
use proptest::prelude::*;
use simcloud::characteristics::CostModel;
use simcloud::cloudlet::CloudletSpec;
use simcloud::vm::VmSpec;

/// A random fleet/workload pair.
#[derive(Debug, Clone)]
struct Scenario {
    vms: Vec<VmSpec>,
    cloudlets: Vec<CloudletSpec>,
}

impl Scenario {
    fn problem(&self) -> SchedulingProblem {
        SchedulingProblem::single_datacenter(
            self.vms.clone(),
            self.cloudlets.clone(),
            CostModel::default(),
        )
    }
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let vm = (400.0f64..4_000.0, 1u32..=4, 100.0f64..1_000.0)
        .prop_map(|(mips, pes, bw)| VmSpec::new(mips, 5_000.0, 512.0, bw, pes));
    let cloudlet = (100.0f64..20_000.0, 0.0f64..400.0, 1u32..=4)
        .prop_map(|(len, file, pes)| CloudletSpec::new(len, file, file, pes));
    (
        prop::collection::vec(vm, 1..24),
        prop::collection::vec(cloudlet, 1..48),
    )
        .prop_map(|(vms, cloudlets)| Scenario { vms, cloudlets })
}

/// The linear-scan reference: the smallest index whose prefix strictly
/// exceeds the spin, clamping past-the-total spins to the last index.
fn linear_pick(prefix: &[f64], spin: f64) -> usize {
    prefix
        .iter()
        .position(|&p| spin < p)
        .unwrap_or(prefix.len() - 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every candidate row names exactly k distinct, in-range VMs —
    /// ants can never be offered a dead or duplicated VM.
    #[test]
    fn candidate_rows_are_distinct_live_vms(s in scenario(), k in 1usize..12, beta in 0.2f64..2.0) {
        let p = s.problem();
        let cache = EvalCache::new(&p);
        let c = p.cloudlet_count();
        let v = p.vm_count();
        let block = cache.candidate_block(0..c, k, beta);
        prop_assert!(block.k() >= 1);
        prop_assert!(block.k() <= k.min(v));
        prop_assert_eq!(block.slot_count(), c);
        let mut seen = vec![false; v];
        for s in 0..c {
            let row = block.row(s);
            prop_assert_eq!(row.len(), block.k());
            for &vm in row {
                let vm = vm as usize;
                prop_assert!(vm < v, "candidate names VM {} of {}", vm, v);
                prop_assert!(!seen[vm], "slot {} repeats VM {}", s, vm);
                seen[vm] = true;
            }
            for &vm in row {
                seen[vm as usize] = false;
            }
            // The weight row is finite and non-negative.
            for &w in block.eta_row(s) {
                prop_assert!(w.is_finite() && w >= 0.0);
            }
        }
    }

    /// The binary-search roulette and the linear-scan roulette pick the
    /// same index for every spin over the same prefix row, including
    /// spins exactly on cell boundaries and past the total. Zero weights
    /// (clipped non-finite products) repeat prefix values, so boundary
    /// spins also land on empty cells the pick must skip.
    #[test]
    fn prefix_pick_matches_linear_scan(
        weights in prop::collection::vec(prop_oneof![Just(0.0f64), 0.0f64..100.0], 1..40),
        fractions in prop::collection::vec(0.0f64..1.0, 1..20),
    ) {
        let mut prefix = Vec::with_capacity(weights.len());
        let mut running = 0.0f64;
        for &w in &weights {
            running += w;
            prefix.push(running);
        }
        let total = running;
        let mut spins: Vec<f64> = fractions.iter().map(|f| f * total).collect();
        // Boundary spins: exactly on every prefix value, zero, and past
        // the total (a degenerate roulette must clamp, not panic).
        spins.extend(prefix.iter().copied());
        spins.push(0.0);
        spins.push(total);
        spins.push(total * 1.5 + 1.0);
        for spin in spins {
            let fast = prefix_pick(&prefix, spin);
            let slow = linear_pick(&prefix, spin);
            prop_assert_eq!(
                fast, slow,
                "spin {} over prefix {:?} diverged", spin, prefix
            );
        }
    }
}
