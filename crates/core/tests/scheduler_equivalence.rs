//! Scheduler hot-path equivalence: thread counts and the frozen reference.
//!
//! The scheduler hot-path overhaul (parallel ACO colonies, powf-free tour
//! construction, allocation-free scratch) promises **byte-identical
//! assignments per seed** at any rayon thread count, and byte-identity
//! with the pre-overhaul implementation preserved verbatim in
//! `biosched_core::aco::reference`. This test sweeps ≥3 seeds × both
//! scenario families × thread counts {1, 2, 4, 8} and asserts exactly
//! that for every scheduler whose hot path was touched (ACO, HBO, RBS).
//!
//! Thread counts are switched in-process through rayon's global builder
//! (the vendored shim allows repeated `build_global` calls; last one
//! wins). Tests in this binary may race on that global — harmlessly:
//! thread-count *independence* is precisely the property under test.
#![cfg(feature = "parallel")]

use biosched_core::aco::{reference, AcoParams, AcoRun, AntColony};
use biosched_core::eval::EvalCache;
use biosched_core::problem::SchedulingProblem;
use biosched_core::scheduler::{AlgorithmKind, Scheduler};
use rand::Rng;
use simcloud::characteristics::CostModel;
use simcloud::cloudlet::CloudletSpec;
use simcloud::vm::VmSpec;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SEEDS: [u64; 3] = [11, 42, 9001];

/// The two scenario families from the paper's evaluation.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// One uniform fleet, uniform cloudlets.
    Homogeneous,
    /// Mixed VM sizes and cloudlet lengths drawn from a seeded stream.
    Heterogeneous,
}

fn build_problem(shape: Shape, seed: u64) -> SchedulingProblem {
    build_sized(shape, seed, 24, 160)
}

fn build_sized(
    shape: Shape,
    seed: u64,
    vm_count: usize,
    cloudlet_count: usize,
) -> SchedulingProblem {
    let mut rng = simcloud::rng::stream(seed, "scheduler-equivalence");
    let vms: Vec<VmSpec> = (0..vm_count)
        .map(|_| match shape {
            Shape::Homogeneous => VmSpec::new(1_000.0, 10_000.0, 512.0, 1_000.0, 1),
            Shape::Heterogeneous => VmSpec::new(
                rng.gen_range(500.0..2_500.0),
                10_000.0,
                512.0,
                rng.gen_range(100.0..1_000.0),
                1,
            ),
        })
        .collect();
    let cloudlets: Vec<CloudletSpec> = (0..cloudlet_count)
        .map(|_| {
            let len = rng.gen_range(1_000.0..40_000.0);
            match shape {
                Shape::Homogeneous => CloudletSpec::new(len, 0.0, 0.0, 1),
                Shape::Heterogeneous => {
                    CloudletSpec::new(len, rng.gen_range(0.0..300.0), rng.gen_range(0.0..300.0), 1)
                }
            }
        })
        .collect();
    SchedulingProblem::single_datacenter(vms, cloudlets, CostModel::default())
}

fn set_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("vendored rayon accepts repeated build_global");
}

#[test]
fn assignments_are_byte_identical_across_thread_counts() {
    // ACO is the scheduler that actually fans out; HBO and RBS ride along
    // to prove their hot-path changes (sort-key hoist, free counter) did
    // not sneak in any thread- or order-sensitivity either.
    let schedulers = [
        AlgorithmKind::AntColony,
        AlgorithmKind::HoneyBee,
        AlgorithmKind::Rbs,
    ];
    for shape in [Shape::Homogeneous, Shape::Heterogeneous] {
        for seed in SEEDS {
            let problem = build_problem(shape, seed);
            for kind in schedulers {
                set_threads(1);
                let baseline = kind.build(seed).schedule(&problem);
                for threads in &THREAD_COUNTS[1..] {
                    set_threads(*threads);
                    let got = kind.build(seed).schedule(&problem);
                    assert_eq!(
                        baseline, got,
                        "{kind} diverged at {threads} threads ({shape:?}, seed {seed})"
                    );
                }
            }
        }
    }
    set_threads(0); // restore automatic sizing for other tests
}

#[test]
fn aco_matches_frozen_reference_at_every_thread_count() {
    for shape in [Shape::Homogeneous, Shape::Heterogeneous] {
        for seed in SEEDS {
            let problem = build_problem(shape, seed);
            // The reference is single-path regardless of pool size; run it
            // before touching the global pool.
            let expected = reference::schedule_reference(&AcoParams::fast(), seed, &problem);
            for threads in THREAD_COUNTS {
                set_threads(threads);
                let got = AntColony::new(AcoParams::fast(), seed).schedule(&problem);
                assert_eq!(
                    expected, got,
                    "ACO diverged from reference at {threads} threads \
                     ({shape:?}, seed {seed})"
                );
            }
        }
    }
    set_threads(0);
}

#[test]
fn aco_paper_params_match_reference() {
    // The full paper preset (α = 0.01 exercises the powf snapshot path).
    let problem = build_problem(Shape::Heterogeneous, 7);
    let expected = reference::schedule_reference(&AcoParams::paper(), 7, &problem);
    for threads in [1, 4] {
        set_threads(threads);
        let got = AntColony::new(AcoParams::paper(), 7).schedule(&problem);
        assert_eq!(expected, got, "paper params diverged at {threads} threads");
    }
    set_threads(0);
}

#[test]
fn aco_reference_equivalence_holds_when_candidates_cover_fleet() {
    // The acceptance bar for the candidate-list overhaul: whenever
    // k ≥ #VMs the candidate-list regime must stand down and the optimized
    // scheduler must stay bitwise-equal to the frozen reference — across
    // seeds and thread counts.
    for shape in [Shape::Homogeneous, Shape::Heterogeneous] {
        for seed in SEEDS {
            let problem = build_problem(shape, seed);
            let params = AcoParams {
                candidates: Some(problem.vm_count()), // k == #VMs
                ..AcoParams::paper()
            };
            let expected = reference::schedule_reference(&params, seed, &problem);
            for threads in [1, 4] {
                set_threads(threads);
                let got = AntColony::new(params.clone(), seed).schedule(&problem);
                assert_eq!(
                    expected, got,
                    "k >= #VMs must run the reference-equivalent path \
                     ({shape:?}, seed {seed}, {threads} threads)"
                );
            }
        }
    }
    set_threads(0);
}

#[test]
fn aco_candidate_fast_path_is_thread_independent() {
    // k < #VMs engages the candidate-list regime. It intentionally
    // diverges from the reference plan, but it must stay byte-identical
    // per seed at any thread count (its plans are pinned in aco_golden).
    for shape in [Shape::Homogeneous, Shape::Heterogeneous] {
        for seed in SEEDS {
            let problem = build_problem(shape, seed);
            let params = AcoParams {
                candidates: Some(8), // << 24 VMs
                ..AcoParams::paper()
            };
            set_threads(1);
            let baseline = AntColony::new(params.clone(), seed).schedule(&problem);
            baseline
                .validate(&problem)
                .expect("candidate-list plan valid");
            for threads in &THREAD_COUNTS[1..] {
                set_threads(*threads);
                let got = AntColony::new(params.clone(), seed).schedule(&problem);
                assert_eq!(
                    baseline, got,
                    "candidate-list regime diverged at {threads} threads \
                     ({shape:?}, seed {seed})"
                );
            }
        }
    }
    set_threads(0);
}

#[test]
fn aco_alpha_one_fast_path_matches_reference() {
    // α = 1 takes the snapshot's identity fast path; the reference calls
    // powf(τ, 1.0) — both must agree bit for bit.
    let params = AcoParams {
        alpha: 1.0,
        ..AcoParams::fast()
    };
    let problem = build_problem(Shape::Homogeneous, 13);
    let expected = reference::schedule_reference(&params, 13, &problem);
    for threads in [1, 4] {
        set_threads(threads);
        let got = AntColony::new(params.clone(), 13).schedule(&problem);
        assert_eq!(expected, got, "α=1 fast path diverged at {threads} threads");
    }
    set_threads(0);
}

#[test]
fn fig6_sized_colony_fan_out_matches_reference_and_stepping() {
    // The largest fig6 point: 100 VMs × 500 cloudlets. The paper profile
    // clamps the batch to 50, so ten colonies, and both the one-shot run
    // and each AcoRun step carry enough work to fan colonies out over the
    // pool. The one-shot plan must equal the frozen reference, and a cold
    // AcoRun stepped to done must equal the one-shot plan, in both
    // sampling regimes.
    let problem = build_sized(Shape::Heterogeneous, 42, 100, 500);
    let cache = EvalCache::new(&problem);
    let paper = AcoParams::paper();
    let expected = reference::schedule_reference(&paper, 42, &problem);
    let regimes = [
        paper.clone(),
        AcoParams {
            candidates: Some(24),
            ..paper
        },
    ];
    for threads in [1, 4] {
        set_threads(threads);
        let got = AntColony::new(AcoParams::paper(), 42).schedule_with_cache(&problem, &cache);
        assert_eq!(expected, got, "paper profile diverged at {threads} threads");
        for params in &regimes {
            let mut run = AcoRun::cold(params.clone(), 42, &cache, None);
            while !run.done() {
                run.step(&cache);
            }
            let one_shot = AntColony::new(params.clone(), 42).schedule_with_cache(&problem, &cache);
            let one_shot: Vec<u32> = one_shot.as_slice().iter().map(|vm| vm.0).collect();
            assert_eq!(
                run.incumbent(),
                Some(one_shot),
                "stepped != one-shot at {threads} threads (k = {:?})",
                params.candidates
            );
        }
    }
    set_threads(0);
}

#[test]
fn lockstep_ant_groups_match_reference() {
    // Full-row tours are built a few ants at a time in lockstep, each ant
    // with its own RNG and tabu bit. Ant counts the group width does not
    // divide leave a short last group; q0 = 0.9 sends most lanes of a
    // group to the argmax while the rest spin; one ant for one iteration
    // makes the η^β block unprofitable, so rows are filled inline; and a
    // single 32-slot colony of 50 ants over 64 VMs (102 400 reads per
    // iteration, over the fan-out gate) fans its groups out instead of
    // colonies. Every plan must equal the frozen reference at 1 and 4
    // threads.
    let problems = [
        build_problem(Shape::Heterogeneous, 5),
        build_sized(Shape::Heterogeneous, 5, 64, 32),
    ];
    let full_row = |ants, iterations, q0| AcoParams {
        ants,
        iterations,
        q0,
        candidates: None,
        ..AcoParams::fast()
    };
    let mut cases = vec![full_row(1, 1, 0.0), full_row(1, 1, 0.9)];
    for ants in [7, 12, 50] {
        for q0 in [0.0, 0.9] {
            cases.push(full_row(ants, 4, q0));
        }
    }
    for problem in &problems {
        for params in &cases {
            let expected = reference::schedule_reference(params, 21, problem);
            for threads in [1, 4] {
                set_threads(threads);
                let got = AntColony::new(params.clone(), 21).schedule(problem);
                assert_eq!(
                    expected,
                    got,
                    "{} ants, q0 {}, {} VMs diverged at {threads} threads",
                    params.ants,
                    params.q0,
                    problem.vm_count()
                );
            }
        }
    }
    set_threads(0);
}
