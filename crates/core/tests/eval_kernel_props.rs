//! Property-based tests of the evaluation kernel: the incremental
//! [`LoadTracker`] and the batch [`EvalCache`] scoring paths must agree
//! with the from-scratch [`score_assignment`] reference on arbitrary
//! problems, assignments, and mutation sequences.
//!
//! Assign-only sequences reproduce the reference bit-for-bit (the tracker
//! performs the identical additions in the identical order); sequences
//! containing reassignments accumulate floating-point drift of the usual
//! `(x + d) - d != x` kind, so those comparisons use a relative tolerance.

use biosched_core::assignment::Assignment;
use biosched_core::eval::{evaluate_population, EvalCache, LoadTracker};
use biosched_core::objective::{score_assignment, Objective};
use biosched_core::problem::SchedulingProblem;
use proptest::prelude::*;
use simcloud::characteristics::CostModel;
use simcloud::cloudlet::CloudletSpec;
use simcloud::ids::VmId;
use simcloud::vm::VmSpec;

/// A random scheduling scenario plus a mutation script.
#[derive(Debug, Clone)]
struct Scenario {
    vms: Vec<VmSpec>,
    cloudlets: Vec<CloudletSpec>,
    /// Initial full assignment, one VM index per cloudlet.
    initial: Vec<usize>,
    /// Reassignment script: (cloudlet, new VM), indices taken modulo size.
    moves: Vec<(usize, usize)>,
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
    let vm = (400.0f64..4_000.0, 1u32..=4)
        .prop_map(|(mips, pes)| VmSpec::new(mips, 5_000.0, 512.0, 500.0, pes));
    let cloudlet = (100.0f64..20_000.0, 0.0f64..400.0, 1u32..=4)
        .prop_map(|(len, file, pes)| CloudletSpec::new(len, file, file, pes));
    (
        prop::collection::vec(vm, 1..8),
        prop::collection::vec(cloudlet, 1..40),
        prop::collection::vec((0usize..1_000, 0usize..1_000), 0..60),
        any::<u64>(),
    )
        .prop_map(|(vms, cloudlets, moves, pick)| {
            let v = vms.len();
            let initial = (0..cloudlets.len())
                .map(|i| (pick as usize).wrapping_add(i * 13) % v)
                .collect();
            Scenario {
                vms,
                cloudlets,
                initial,
                moves,
            }
        })
}

/// Relative comparison: kernel drift must stay far below any decision
/// threshold the schedulers use.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Every value the cache hands out for `plan`, as bits: Eq. 6 times,
/// heuristics and costs per pair, the three objective scores, the load
/// vector, a candidate block and the η^β block.
fn cache_bits(cache: &EvalCache, plan: &[VmId]) -> Vec<u64> {
    let (c, v) = (cache.cloudlet_count(), cache.vm_count());
    let mut bits = Vec::new();
    for cl in 0..c {
        for vm in 0..v {
            let values = [
                cache.exec_ms(cl, vm),
                cache.heuristic(cl, vm),
                cache.cost(cl, vm),
            ];
            bits.extend(values.map(f64::to_bits));
        }
    }
    bits.extend(Objective::ALL.map(|obj| cache.score(plan, obj).to_bits()));
    bits.extend(cache.load_vector(plan).iter().map(|x| x.to_bits()));
    let block = cache.candidate_block(0..c, 3, 0.99);
    for slot in 0..block.slot_count() {
        bits.extend(block.row(slot).iter().map(|&vm| u64::from(vm)));
        bits.extend(block.eta_row(slot).iter().map(|w| w.to_bits()));
    }
    let eta = cache
        .eta_pow_block(0..c, 0.99, usize::MAX)
        .expect("a small block");
    bits.extend(eta.iter().map(|w| w.to_bits()));
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch cache scoring is bit-identical to the from-scratch reference
    /// for every objective, and materializing the ETC matrix changes no
    /// bit of anything the cache hands out.
    #[test]
    fn cache_is_bit_identical_before_and_after_the_etc_fill(s in scenario()) {
        let p = s.problem();
        let map: Vec<VmId> = s.initial.iter().map(|&v| VmId::from_index(v)).collect();
        let plan = Assignment::new(map);
        let cache = EvalCache::new(&p);
        prop_assert!(!cache.has_dense_etc());
        let lazy = cache_bits(&cache, plan.as_slice());
        cache.expect_evaluations(u64::MAX);
        prop_assert!(cache.has_dense_etc());
        prop_assert_eq!(cache_bits(&cache, plan.as_slice()), lazy);
        for obj in Objective::ALL {
            let reference = score_assignment(&p, &plan, obj);
            let cached = cache.score(plan.as_slice(), obj);
            prop_assert_eq!(
                cached.to_bits(),
                reference.to_bits(),
                "objective {:?}: cache {} vs reference {}",
                obj, cached, reference
            );
        }
    }

    /// An assign-only tracker reproduces the reference bit-for-bit.
    #[test]
    fn tracker_assign_only_is_bit_identical(s in scenario()) {
        let p = s.problem();
        let cache = EvalCache::new(&p);
        let mut tracker = LoadTracker::new(&cache);
        for (c, &v) in s.initial.iter().enumerate() {
            tracker.assign(&cache, c, v);
        }
        let map: Vec<VmId> = s.initial.iter().map(|&v| VmId::from_index(v)).collect();
        let plan = Assignment::new(map);
        for obj in Objective::ALL {
            let reference = score_assignment(&p, &plan, obj);
            prop_assert_eq!(tracker.score(obj).to_bits(), reference.to_bits());
        }
    }

    /// After an arbitrary reassignment script the tracker still matches
    /// the from-scratch reference to relative tolerance, for all three
    /// objectives.
    #[test]
    fn tracker_survives_mutation_scripts(s in scenario()) {
        let p = s.problem();
        let c = p.cloudlet_count();
        let v = p.vm_count();
        let cache = EvalCache::new(&p);
        let mut tracker = LoadTracker::new(&cache);
        let mut current = s.initial.clone();
        for (cl, &vm) in current.iter().enumerate() {
            tracker.assign(&cache, cl, vm);
        }
        for &(cl_raw, vm_raw) in &s.moves {
            let cl = cl_raw % c;
            let vm = vm_raw % v;
            tracker.reassign(&cache, cl, vm);
            current[cl] = vm;
        }
        let map: Vec<VmId> = current.iter().map(|&vm| VmId::from_index(vm)).collect();
        let plan = Assignment::new(map);
        for obj in Objective::ALL {
            let reference = score_assignment(&p, &plan, obj);
            let tracked = tracker.score(obj);
            prop_assert!(
                close(tracked, reference),
                "objective {:?}: tracker {} vs reference {} after {} moves",
                obj, tracked, reference, s.moves.len()
            );
        }
        // The tracker's view of the plan itself is exact, not approximate.
        for (cl, &vm) in current.iter().enumerate() {
            prop_assert_eq!(tracker.vm_of(cl), Some(vm));
        }
    }

    /// Speculative scoring returns the committed value and leaves no trace.
    #[test]
    fn score_if_is_exact_and_stateless(s in scenario()) {
        let p = s.problem();
        let c = p.cloudlet_count();
        let v = p.vm_count();
        let cache = EvalCache::new(&p);
        let mut tracker = LoadTracker::new(&cache);
        for (cl, &vm) in s.initial.iter().enumerate() {
            tracker.assign(&cache, cl, vm);
        }
        for &(cl_raw, vm_raw) in s.moves.iter().take(8) {
            let cl = cl_raw % c;
            let vm = vm_raw % v;
            let orig = tracker.unassign(&cache, cl);
            for obj in Objective::ALL {
                let before: Vec<u64> =
                    tracker.loads().iter().map(|l| l.to_bits()).collect();
                let speculative = tracker.score_if(&cache, cl, vm, obj);
                let after: Vec<u64> =
                    tracker.loads().iter().map(|l| l.to_bits()).collect();
                prop_assert_eq!(&before, &after, "score_if mutated the tracker");

                let mut committed = tracker.clone();
                committed.assign(&cache, cl, vm);
                prop_assert_eq!(speculative.to_bits(), committed.score(obj).to_bits());
            }
            tracker.assign(&cache, cl, orig);
        }
    }

    /// Population evaluation returns, per genome, exactly the serial
    /// cache score regardless of batch size or thread count.
    #[test]
    fn population_scores_match_serial(s in scenario()) {
        let p = s.problem();
        let v = p.vm_count();
        let cache = EvalCache::new(&p);
        let genomes: Vec<Vec<u32>> = (0..12)
            .map(|g| {
                s.initial
                    .iter()
                    .map(|&vm| ((vm + g * 3) % v) as u32)
                    .collect()
            })
            .collect();
        for obj in Objective::ALL {
            let batch = evaluate_population(&cache, &genomes, obj);
            prop_assert_eq!(batch.len(), genomes.len());
            for (genome, score) in genomes.iter().zip(&batch) {
                prop_assert_eq!(score.to_bits(), cache.score_genes(genome, obj).to_bits());
            }
        }
    }
}
