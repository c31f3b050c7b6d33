//! Scheduling-time micro-benchmarks (the measurement behind Figs. 5/6b).
//!
//! Benchmarks each algorithm's pure decision time on fixed problems —
//! one homogeneous point and one heterogeneous point — so relative
//! scheduler costs (Base ≪ RBS < HBO < ACO) can be verified precisely.

use biosched_bench::harness::with_threads;
use biosched_core::aco::{reference, AcoParams, AntColony};
use biosched_core::scheduler::{AlgorithmKind, Scheduler};
use biosched_workload::heterogeneous::HeterogeneousScenario;
use biosched_workload::homogeneous::HomogeneousScenario;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_homogeneous(c: &mut Criterion) {
    let problem = HomogeneousScenario {
        vm_count: 100,
        cloudlet_count: 1_000,
    }
    .build()
    .problem();

    let mut group = c.benchmark_group("scheduling_time/homogeneous_100vm_1000cl");
    group.sample_size(10);
    for kind in AlgorithmKind::PAPER_SET {
        group.bench_function(BenchmarkId::from_parameter(kind.label()), |b| {
            b.iter(|| {
                let mut scheduler = kind.build(42);
                black_box(scheduler.schedule(black_box(&problem)))
            })
        });
    }
    group.finish();
}

fn bench_heterogeneous(c: &mut Criterion) {
    let problem = HeterogeneousScenario {
        vm_count: 200,
        cloudlet_count: 1_000,
        datacenter_count: 4,
        seed: 42,
    }
    .build()
    .problem();

    let mut group = c.benchmark_group("scheduling_time/heterogeneous_200vm_1000cl");
    group.sample_size(10);
    for kind in AlgorithmKind::PAPER_SET {
        group.bench_function(BenchmarkId::from_parameter(kind.label()), |b| {
            b.iter(|| {
                let mut scheduler = kind.build(42);
                black_box(scheduler.schedule(black_box(&problem)))
            })
        });
    }
    group.finish();
}

fn bench_vm_scaling(c: &mut Criterion) {
    // How each scheduler's decision time grows with the fleet (Fig. 5's
    // x-axis effect, scaled down).
    let mut group = c.benchmark_group("scheduling_time/vm_scaling_500cl");
    group.sample_size(10);
    for vms in [50usize, 200, 800] {
        let problem = HeterogeneousScenario {
            vm_count: vms,
            cloudlet_count: 500,
            datacenter_count: 4,
            seed: 7,
        }
        .build()
        .problem();
        for kind in [AlgorithmKind::BaseTest, AlgorithmKind::AntColony] {
            group.bench_function(BenchmarkId::new(kind.label(), vms), |b| {
                b.iter(|| {
                    let mut scheduler = kind.build(7);
                    black_box(scheduler.schedule(black_box(&problem)))
                })
            });
        }
    }
    group.finish();
}

fn bench_colony_parallelism(c: &mut Criterion) {
    // The hot-path overhaul's headline comparison at the issue's gate
    // point (10k cloudlets / 1k VMs): the frozen pre-overhaul loop vs the
    // optimized path with colonies kept sequential (1 rayon thread) vs
    // fanned out (4 threads). Assignments are byte-identical across all
    // three — only wall-clock differs.
    let problem = HomogeneousScenario {
        vm_count: 1_000,
        cloudlet_count: 10_000,
    }
    .build()
    .problem();
    let mut group = c.benchmark_group("scheduling_time/colony_parallelism_1000vm_10000cl");
    group.sample_size(10);
    group.bench_function("reference", |b| {
        with_threads(1, || {
            b.iter(|| {
                black_box(reference::schedule_reference(
                    &AcoParams::paper(),
                    42,
                    black_box(&problem),
                ))
            })
        })
    });
    for threads in [1usize, 4] {
        group.bench_function(BenchmarkId::new("optimized", threads), |b| {
            with_threads(threads, || {
                b.iter(|| {
                    let mut scheduler = AntColony::new(AcoParams::paper(), 42);
                    black_box(scheduler.schedule(black_box(&problem)))
                })
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_homogeneous,
    bench_heterogeneous,
    bench_vm_scaling,
    bench_colony_parallelism
);
criterion_main!(benches);
