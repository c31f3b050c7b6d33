//! Sequential ↔ sharded engine equivalence.
//!
//! The sharded engine's contract is *trace equivalence*: for every
//! eligible scenario it must produce `CloudletRecord`s that are
//! bit-identical (f64 payloads compared by `to_bits`) to the sequential
//! kernel's, along with the same end time, event count and
//! `ResilienceCounters` — across seeds, both scheduler flavours,
//! homogeneous and heterogeneous fleets, fault plans, recovery policies,
//! resubmission, batched submissions under fault shaping, workflow DAGs
//! (alone and composed with faults), both record modes and any rayon
//! thread count. Every shape runs on the epoch driver: a plain batch is
//! an edgeless plan whose whole replay is one final flush, which commits
//! its lanes in chunks when the fleet is wide enough.

use rand::Rng;
use simcloud::datacenter::DatacenterBlueprint;
use simcloud::prelude::*;

/// Scenario shapes exercised by the equivalence sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// One datacenter, identical VMs, batch submission at t=0.
    Homogeneous,
    /// Two datacenters with distinct latencies and prices, mixed VM
    /// sizes, staggered arrivals.
    Heterogeneous,
    /// `Homogeneous` on 1 300 VMs with four cloudlets each on average:
    /// more than two of the epoch driver's 512-lane flush chunks, so one
    /// flush commits several chunks in turn.
    Wide,
    /// `Homogeneous` with hosts for two VMs fewer than the fleet: the last
    /// two VMs are rejected at placement and their cloudlets fail.
    Overcommitted,
}

struct Scenario {
    seed: u64,
    scheduler: SchedulerKind,
    shape: Shape,
}

impl Scenario {
    /// Builds the scenario from scratch (blueprints hold a boxed policy
    /// and cannot be cloned) and runs it on `engine`.
    fn run_on(&self, engine: EngineKind) -> SimulationOutcome {
        let mut rng = simcloud::rng::stream(self.seed, "engine-equivalence");
        let (vm_count, cloudlet_count) = match self.shape {
            Shape::Wide => (1_300, 5_200),
            _ => (12, 160),
        };
        let vms: Vec<VmSpec> = (0..vm_count)
            .map(|_| match self.shape {
                Shape::Heterogeneous => VmSpec::new(
                    rng.gen_range(500.0..2_500.0),
                    10_000.0,
                    512.0,
                    rng.gen_range(100.0..1_000.0),
                    rng.gen_range(1..=4),
                ),
                _ => VmSpec::new(1_000.0, 10_000.0, 512.0, 1_000.0, 2),
            })
            .collect();
        let cloudlets: Vec<CloudletSpec> = (0..cloudlet_count)
            .map(|_| {
                let len = rng.gen_range(1_000.0..40_000.0);
                match self.shape {
                    Shape::Heterogeneous => CloudletSpec::new(
                        len,
                        rng.gen_range(0.0..300.0),
                        rng.gen_range(0.0..300.0),
                        rng.gen_range(1..=3),
                    ),
                    _ => CloudletSpec::new(len, 0.0, 0.0, 1),
                }
            })
            .collect();
        let assignment: Vec<VmId> = (0..cloudlet_count)
            .map(|_| VmId::from_index(rng.gen_range(0..vm_count)))
            .collect();
        let envelope = VmSpec {
            mips: vms.iter().map(|v| v.mips).fold(0.0, f64::max),
            size_mb: 10_000.0,
            ram_mb: 512.0,
            bw_mbps: 1_000.0,
            pes: vms.iter().map(|v| v.pes).max().unwrap(),
        };
        let blueprint = |cost: CostModel, capacity: usize| {
            let mut b = DatacenterBlueprint::sized_for(
                &envelope,
                capacity,
                2,
                DatacenterCharacteristics {
                    cost,
                    ..DatacenterCharacteristics::default()
                },
            );
            b.scheduler = self.scheduler;
            b
        };
        let mut builder = SimulationBuilder::new()
            .engine(engine)
            .vms(vms)
            .cloudlets(cloudlets)
            .assignment(assignment);
        builder = match self.shape {
            Shape::Homogeneous | Shape::Wide => {
                builder.datacenter(blueprint(CostModel::free(), vm_count))
            }
            Shape::Overcommitted => builder.datacenter(blueprint(CostModel::free(), vm_count - 2)),
            Shape::Heterogeneous => {
                let arrivals: Vec<SimTime> = (0..cloudlet_count)
                    .map(|_| SimTime::new(rng.gen_range(0.0..200.0)))
                    .collect();
                let placement: Vec<DatacenterId> = (0..vm_count)
                    .map(|i| DatacenterId::from_index(i % 2))
                    .collect();
                builder
                    .datacenter(blueprint(CostModel::table_vii_midpoint(), vm_count))
                    .datacenter(blueprint(CostModel::new(0.05, 0.001, 0.02, 5.0), vm_count))
                    .vm_placement(placement)
                    .topology(Topology::with_latencies(vec![1.5, 40.0]))
                    .arrivals(arrivals)
            }
        };
        builder.run().expect("scenario is feasible by construction")
    }
}

fn bits(t: Option<SimTime>) -> Option<u64> {
    t.map(|t| t.as_millis().to_bits())
}

/// Asserts two outcomes are byte-identical (modulo the `engine` tag).
fn assert_identical(a: &SimulationOutcome, b: &SimulationOutcome, label: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{label}: record count");
    for (ra, rb) in a.records.iter().zip(&b.records) {
        let id = ra.id;
        assert_eq!(ra.id, rb.id, "{label}: id order");
        assert_eq!(ra.vm, rb.vm, "{label}: vm of {id:?}");
        assert_eq!(ra.status, rb.status, "{label}: status of {id:?}");
        assert_eq!(
            bits(ra.submit),
            bits(rb.submit),
            "{label}: submit of {id:?}"
        );
        assert_eq!(bits(ra.start), bits(rb.start), "{label}: start of {id:?}");
        assert_eq!(
            bits(ra.finish),
            bits(rb.finish),
            "{label}: finish of {id:?}"
        );
        assert_eq!(
            ra.execution_ms.map(f64::to_bits),
            rb.execution_ms.map(f64::to_bits),
            "{label}: execution of {id:?}"
        );
        assert_eq!(
            ra.cost.to_bits(),
            rb.cost.to_bits(),
            "{label}: cost of {id:?} ({} vs {})",
            ra.cost,
            rb.cost
        );
        assert_eq!(ra.met_deadline, rb.met_deadline, "{label}: sla of {id:?}");
    }
    assert_eq!(
        a.end_time.as_millis().to_bits(),
        b.end_time.as_millis().to_bits(),
        "{label}: end_time ({} vs {})",
        a.end_time.as_millis(),
        b.end_time.as_millis()
    );
    assert_eq!(
        a.events_processed, b.events_processed,
        "{label}: events_processed"
    );
    assert_eq!(a.vms_created, b.vms_created, "{label}: vms_created");
    assert_eq!(a.vms_rejected, b.vms_rejected, "{label}: vms_rejected");
    assert_eq!(a.failed_count(), b.failed_count(), "{label}: failed_count");
    assert_resilience_identical(a, b, label);
}

/// Asserts the recovery counters match bit for bit.
fn assert_resilience_identical(a: &SimulationOutcome, b: &SimulationOutcome, label: &str) {
    let (ra, rb) = (&a.resilience, &b.resilience);
    assert_eq!(ra.retries, rb.retries, "{label}: retries");
    assert_eq!(ra.recovered, rb.recovered, "{label}: recovered");
    assert_eq!(ra.abandoned, rb.abandoned, "{label}: abandoned");
    assert_eq!(
        ra.wasted_work_ms.to_bits(),
        rb.wasted_work_ms.to_bits(),
        "{label}: wasted_work_ms ({} vs {})",
        ra.wasted_work_ms,
        rb.wasted_work_ms
    );
    assert_eq!(
        ra.recovery_time_ms.to_bits(),
        rb.recovery_time_ms.to_bits(),
        "{label}: recovery_time_ms ({} vs {})",
        ra.recovery_time_ms,
        rb.recovery_time_ms
    );
}

/// Asserts two aggregate-mode outcomes agree on every accessor the
/// aggregate can answer (the fold itself is private).
fn assert_aggregate_identical(a: &SimulationOutcome, b: &SimulationOutcome, label: &str) {
    let f = |v: Option<f64>| v.map(f64::to_bits);
    assert_eq!(a.finished_count(), b.finished_count(), "{label}: finished");
    assert_eq!(a.failed_count(), b.failed_count(), "{label}: failed");
    assert_eq!(a.observed_count(), b.observed_count(), "{label}: observed");
    assert_eq!(
        f(a.simulation_time_ms()),
        f(b.simulation_time_ms()),
        "{label}: simulation_time_ms"
    );
    assert_eq!(
        f(a.mean_execution_ms()),
        f(b.mean_execution_ms()),
        "{label}: mean_execution_ms"
    );
    assert_eq!(
        f(a.time_imbalance()),
        f(b.time_imbalance()),
        "{label}: time_imbalance"
    );
    assert_eq!(
        f(a.turnaround_imbalance()),
        f(b.turnaround_imbalance()),
        "{label}: turnaround_imbalance"
    );
    assert_eq!(
        a.total_cost().to_bits(),
        b.total_cost().to_bits(),
        "{label}: total_cost"
    );
    assert_eq!(a.sla_violations(), b.sla_violations(), "{label}: sla");
    assert_eq!(f(a.goodput()), f(b.goodput()), "{label}: goodput");
    let (ua, ub) = (a.per_vm_usage(10), b.per_vm_usage(10));
    assert_eq!(ua.counts, ub.counts, "{label}: per-VM counts");
    let busy_a: Vec<u64> = ua.busy_ms.iter().map(|v| v.to_bits()).collect();
    let busy_b: Vec<u64> = ub.busy_ms.iter().map(|v| v.to_bits()).collect();
    assert_eq!(busy_a, busy_b, "{label}: per-VM busy_ms");
    assert_eq!(
        a.end_time.as_millis().to_bits(),
        b.end_time.as_millis().to_bits(),
        "{label}: end_time"
    );
    assert_eq!(
        a.events_processed, b.events_processed,
        "{label}: events_processed"
    );
    assert_resilience_identical(a, b, label);
}

#[test]
fn sharded_matches_sequential_across_seeds_schedulers_and_shapes() {
    for seed in [1u64, 7, 42] {
        for scheduler in [SchedulerKind::SpaceShared, SchedulerKind::TimeShared] {
            for shape in [
                Shape::Homogeneous,
                Shape::Heterogeneous,
                Shape::Wide,
                Shape::Overcommitted,
            ] {
                let sc = Scenario {
                    seed,
                    scheduler,
                    shape,
                };
                let seq = sc.run_on(EngineKind::Sequential);
                let shd = sc.run_on(EngineKind::Sharded);
                assert_eq!(seq.engine, EngineKind::Sequential);
                assert_eq!(
                    shd.engine,
                    EngineKind::Sharded,
                    "eligible scenario must not fall back"
                );
                assert!(seq.finished_count() > 0, "scenario must do work");
                if shape == Shape::Overcommitted {
                    assert!(seq.vms_rejected > 0, "no VM rejected at placement");
                    assert!(seq.failed_count() > 0, "no cloudlet failed");
                }
                let label = format!("seed {seed} / {scheduler:?} / {shape:?}");
                assert_identical(&seq, &shd, &label);
            }
        }
    }
}

/// The worker split of each flush moves with the thread count; results
/// must not.
#[test]
fn sharded_results_are_thread_count_independent() {
    let shapes = [Shape::Heterogeneous, Shape::Wide, Shape::Overcommitted];
    let scenarios = shapes.map(|shape| Scenario {
        seed: 99,
        scheduler: SchedulerKind::SpaceShared,
        shape,
    });
    let references = scenarios
        .each_ref()
        .map(|sc| sc.run_on(EngineKind::Sequential));
    for threads in [1usize, 2, 4, 8] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("vendored rayon accepts repeated global builds");
        for (sc, reference) in scenarios.iter().zip(&references) {
            let shd = sc.run_on(EngineKind::Sharded);
            assert_eq!(shd.engine, EngineKind::Sharded);
            assert_identical(
                reference,
                &shd,
                &format!("{threads} threads / {:?}", sc.shape),
            );
        }
    }
}

#[test]
fn workflow_dag_and_resilience_shapes_all_run_sharded() {
    let vm = VmSpec::new(1_000.0, 10_000.0, 512.0, 1_000.0, 2);
    let mk = || {
        let mut b = DatacenterBlueprint::sized_for(&vm, 2, 1, DatacenterCharacteristics::default());
        b.scheduler = SchedulerKind::SpaceShared;
        b
    };
    let base = |b: DatacenterBlueprint| {
        SimulationBuilder::new()
            .engine(EngineKind::Sharded)
            .datacenter(b)
            .vms(vec![vm.clone(), vm.clone()])
            .cloudlets(vec![
                CloudletSpec::new(5_000.0, 0.0, 0.0, 1),
                CloudletSpec::new(5_000.0, 0.0, 0.0, 1),
            ])
            .assignment(vec![VmId(0), VmId(1)])
    };

    // Workflow dependencies run on the epoch driver, bit-identical to
    // the kernel.
    let seq_deps = base(mk())
        .engine(EngineKind::Sequential)
        .dependencies(vec![vec![], vec![CloudletId(0)]])
        .run()
        .unwrap();
    let with_deps = base(mk())
        .dependencies(vec![vec![], vec![CloudletId(0)]])
        .run()
        .unwrap();
    assert_eq!(with_deps.engine, EngineKind::Sharded);
    assert_eq!(with_deps.finished_count(), 2);
    assert_identical(&seq_deps, &with_deps, "two-cloudlet chain");

    // Resubmission stays on the sharded engine (epoch driver).
    let with_retries = base(mk()).resubmit_failures(2).run().unwrap();
    assert_eq!(with_retries.engine, EngineKind::Sharded);
    assert_eq!(with_retries.finished_count(), 2);

    // So does failure injection.
    let with_failures = base(mk().with_failure(HostId(0), SimTime::new(1.0e9)))
        .run()
        .unwrap();
    assert_eq!(with_failures.engine, EngineKind::Sharded);
}

/// The workflow shapes the paper-scale generators emit, shrunk to test
/// size. Assignments deliberately mix same-VM edges (resolved locally
/// inside a replay lane) and cross-VM edges (promoted to release-barrier
/// events), so both halves of the epoch driver's DAG handling are
/// exercised.
#[derive(Debug, Clone, Copy)]
enum DagShape {
    /// One linear chain, co-located in runs of ten tasks: mostly local
    /// releases with a cross hop at every run boundary.
    Chain,
    /// Root → 30 branches → join: the join waits on 30 parents spread
    /// over the fleet (all cross), branches are a local/cross mix.
    ForkJoin,
    /// 6 layers × 8 tasks, 1–3 random parents in the previous layer,
    /// random assignment, staggered arrivals (release-wait arithmetic).
    LayeredRandom,
    /// 12 independent 6-stage chains, each pinned to one VM: every
    /// release is local, whole chains replay without a single barrier.
    PipelineEnsemble,
}

/// Builds and runs one DAG scenario on `engine`.
fn dag_outcome(
    shape: DagShape,
    seed: u64,
    engine: EngineKind,
    mode: RecordMode,
) -> SimulationOutcome {
    let mut rng = simcloud::rng::stream(seed, "dag-equivalence");
    let vm_count = 8usize;
    let vm = VmSpec::new(1_000.0, 10_000.0, 512.0, 1_000.0, 2);
    let task = |rng: &mut rand::rngs::StdRng| {
        CloudletSpec::new(
            rng.gen_range(1_000.0..30_000.0),
            rng.gen_range(0.0..150.0),
            rng.gen_range(0.0..150.0),
            1,
        )
    };
    let (parents, assignment, cloudlets): (Vec<Vec<CloudletId>>, Vec<VmId>, Vec<CloudletSpec>) =
        match shape {
            DagShape::Chain => {
                let n = 40usize;
                let parents = (0..n)
                    .map(|i| {
                        if i == 0 {
                            vec![]
                        } else {
                            vec![CloudletId::from_index(i - 1)]
                        }
                    })
                    .collect();
                let assignment = (0..n)
                    .map(|i| VmId::from_index((i / 10) % vm_count))
                    .collect();
                let cloudlets = (0..n).map(|_| task(&mut rng)).collect();
                (parents, assignment, cloudlets)
            }
            DagShape::ForkJoin => {
                let branches = 30usize;
                let n = branches + 2;
                let mut parents = vec![vec![]];
                for _ in 0..branches {
                    parents.push(vec![CloudletId(0)]);
                }
                parents.push((1..=branches).map(CloudletId::from_index).collect());
                let assignment = (0..n)
                    .map(|_| VmId::from_index(rng.gen_range(0..vm_count)))
                    .collect();
                let cloudlets = (0..n).map(|_| task(&mut rng)).collect();
                (parents, assignment, cloudlets)
            }
            DagShape::LayeredRandom => {
                let (layers, width) = (6usize, 8usize);
                let n = layers * width;
                let mut parents: Vec<Vec<CloudletId>> = vec![vec![]; n];
                for l in 1..layers {
                    for w in 0..width {
                        let k = rng.gen_range(1..=3usize);
                        let mut ps: Vec<CloudletId> = (0..k)
                            .map(|_| {
                                CloudletId::from_index((l - 1) * width + rng.gen_range(0..width))
                            })
                            .collect();
                        ps.sort_unstable();
                        ps.dedup();
                        parents[l * width + w] = ps;
                    }
                }
                let assignment = (0..n)
                    .map(|_| VmId::from_index(rng.gen_range(0..vm_count)))
                    .collect();
                let cloudlets = (0..n).map(|_| task(&mut rng)).collect();
                (parents, assignment, cloudlets)
            }
            DagShape::PipelineEnsemble => {
                let (jobs, stages) = (12usize, 6usize);
                let n = jobs * stages;
                let mut parents: Vec<Vec<CloudletId>> = vec![vec![]; n];
                for j in 0..jobs {
                    for s in 1..stages {
                        parents[j * stages + s] = vec![CloudletId::from_index(j * stages + s - 1)];
                    }
                }
                let assignment = (0..n)
                    .map(|i| VmId::from_index((i / stages) % vm_count))
                    .collect();
                let cloudlets = (0..n).map(|_| task(&mut rng)).collect();
                (parents, assignment, cloudlets)
            }
        };
    let n = cloudlets.len();
    let mut builder = SimulationBuilder::new()
        .engine(engine)
        .record_mode(mode)
        .datacenter(DatacenterBlueprint::sized_for(
            &vm,
            vm_count,
            2,
            DatacenterCharacteristics::default(),
        ))
        .vms(vec![vm; vm_count])
        .cloudlets(cloudlets)
        .assignment(assignment)
        .dependencies(parents);
    if matches!(shape, DagShape::LayeredRandom) {
        let arrivals: Vec<SimTime> = (0..n)
            .map(|_| SimTime::new(rng.gen_range(0.0..5_000.0)))
            .collect();
        builder = builder.arrivals(arrivals);
    }
    builder.run().expect("DAG scenario is feasible")
}

/// DAG shapes × threads × seeds × record modes: every sharded run is
/// bit-identical to the sequential kernel and completes the whole DAG.
#[test]
fn dag_shape_matrix_matches_sequential_across_threads_seeds_and_modes() {
    let shapes = [
        DagShape::Chain,
        DagShape::ForkJoin,
        DagShape::LayeredRandom,
        DagShape::PipelineEnsemble,
    ];
    for threads in [1usize, 2, 4, 8] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("vendored rayon accepts repeated global builds");
        for seed in [3u64, 13, 77] {
            for shape in shapes {
                for mode in [RecordMode::Full, RecordMode::Aggregate] {
                    let label = format!("{threads} threads / seed {seed} / {shape:?} / {mode:?}");
                    let seq = dag_outcome(shape, seed, EngineKind::Sequential, mode);
                    let shd = dag_outcome(shape, seed, EngineKind::Sharded, mode);
                    assert_eq!(seq.engine, EngineKind::Sequential, "{label}");
                    assert_eq!(shd.engine, EngineKind::Sharded, "{label}");
                    assert_eq!(
                        seq.finished_count(),
                        seq.observed_count(),
                        "{label}: DAG must complete"
                    );
                    match mode {
                        RecordMode::Full => assert_identical(&seq, &shd, &label),
                        RecordMode::Aggregate => assert_aggregate_identical(&seq, &shd, &label),
                    }
                }
            }
        }
    }
}

/// Which resilience machinery a matrix scenario arms on top of the fault
/// plan.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Resilience {
    /// Host outages, a repair and VM slowdowns; failures are final.
    Faults,
    /// `Faults` with two shared input-file sizes, so cloudlets bound for
    /// one VM arrive together and the broker sends submission batches.
    FaultsBatched,
    /// Broker-level retry with backoff and cyclic rebinding.
    Recovery,
    /// Legacy resubmission (`resubmit_failures`).
    Resubmission,
    /// Faults plus a workflow DAG — the epoch driver's DAG path under fault
    /// shaping (every release is cross, barrier-bounded).
    Workflow,
    /// Faults, a workflow DAG *and* broker-level recovery.
    WorkflowRecovery,
    /// Faults, a workflow DAG *and* legacy resubmission.
    WorkflowResubmission,
}

/// Builds and runs one fault-injected matrix scenario: 10 VMs on 5 hosts,
/// 120 mixed cloudlets, two host outages (one repaired), two slowdowns
/// (one bounded).
fn resilient_outcome(
    seed: u64,
    res: Resilience,
    engine: EngineKind,
    mode: RecordMode,
) -> SimulationOutcome {
    use simcloud::faults::{FaultPlan, HostOutage, VmSlowdown};
    let mut rng = simcloud::rng::stream(seed, "resilience-equivalence");
    let (vm_count, cloudlet_count) = (10usize, 120usize);
    let vm = VmSpec::new(1_000.0, 10_000.0, 512.0, 1_000.0, 2);
    let mut cloudlets: Vec<CloudletSpec> = (0..cloudlet_count)
        .map(|_| {
            CloudletSpec::new(
                rng.gen_range(1_000.0..40_000.0),
                rng.gen_range(0.0..200.0),
                rng.gen_range(0.0..200.0),
                rng.gen_range(1..=2),
            )
        })
        .collect();
    let assignment: Vec<VmId> = (0..cloudlet_count)
        .map(|_| VmId::from_index(rng.gen_range(0..vm_count)))
        .collect();
    if res == Resilience::FaultsBatched {
        for (i, c) in cloudlets.iter_mut().enumerate() {
            c.file_size_mb = if i % 2 == 0 { 0.0 } else { 100.0 };
        }
        // The broker groups submissions by (VM, delivery delay); with a
        // flat topology, batch arrivals and one VM bandwidth the delay is
        // a function of the file size alone.
        let mut groups = std::collections::HashMap::new();
        for (vm, c) in assignment.iter().zip(&cloudlets) {
            *groups.entry((vm.0, c.file_size_mb.to_bits())).or_insert(0) += 1;
        }
        assert!(groups.values().any(|&n| n > 1), "no submission batch forms");
    }
    let mut plan = FaultPlan::healthy();
    // Host 0 (VMs 0–1) dies mid-run and comes back; host 2 (VMs 4–5)
    // dies for good; VM 9 limps for a while, VM 7 for the rest of the
    // run. Cloudlets run 1–40 s, so every event lands on live work.
    plan.host_outages.push(HostOutage {
        datacenter: DatacenterId(0),
        host: HostId(0),
        fail_at: SimTime::new(8_000.0),
        repair_at: Some(SimTime::new(20_000.0)),
    });
    plan.host_outages.push(HostOutage {
        datacenter: DatacenterId(0),
        host: HostId(2),
        fail_at: SimTime::new(15_000.0),
        repair_at: None,
    });
    plan.vm_slowdowns.push(VmSlowdown {
        vm: VmId(9),
        from: SimTime::new(5_000.0),
        factor: 0.5,
        until: Some(SimTime::new(30_000.0)),
    });
    plan.vm_slowdowns.push(VmSlowdown {
        vm: VmId(7),
        from: SimTime::new(12_000.0),
        factor: 0.25,
        until: None,
    });
    let mut builder = SimulationBuilder::new()
        .engine(engine)
        .record_mode(mode)
        .datacenter(DatacenterBlueprint::sized_for(
            &vm,
            vm_count,
            2,
            DatacenterCharacteristics::default(),
        ))
        .vms(vec![vm; vm_count])
        .cloudlets(cloudlets)
        .assignment(assignment)
        .faults(plan);
    // Sparse chains: every 7th cloudlet waits for one 3 back.
    let sparse_deps = || -> Vec<Vec<CloudletId>> {
        (0..cloudlet_count)
            .map(|i| {
                if i % 7 == 3 && i >= 3 {
                    vec![CloudletId::from_index(i - 3)]
                } else {
                    vec![]
                }
            })
            .collect()
    };
    builder = match res {
        Resilience::Faults | Resilience::FaultsBatched => builder,
        Resilience::Recovery => builder.recovery(simcloud::broker::RecoveryPolicy::default()),
        Resilience::Resubmission => builder.resubmit_failures(2),
        Resilience::Workflow => builder.dependencies(sparse_deps()),
        Resilience::WorkflowRecovery => builder
            .dependencies(sparse_deps())
            .recovery(simcloud::broker::RecoveryPolicy::default()),
        Resilience::WorkflowResubmission => {
            builder.dependencies(sparse_deps()).resubmit_failures(2)
        }
    };
    builder.run().expect("matrix scenario is feasible")
}

/// The tentpole obligation: faults × recovery × resubmission × workflows,
/// across thread counts, seeds and both record modes, every sharded run
/// bit-identical to the sequential kernel (including the resilience
/// counters).
#[test]
fn resilience_matrix_matches_sequential_across_threads_seeds_and_modes() {
    let variants = [
        Resilience::Faults,
        Resilience::FaultsBatched,
        Resilience::Recovery,
        Resilience::Resubmission,
        Resilience::Workflow,
        Resilience::WorkflowRecovery,
        Resilience::WorkflowResubmission,
    ];
    for threads in [1usize, 2, 4, 8] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("vendored rayon accepts repeated global builds");
        for seed in [5u64, 17, 83] {
            let mut faults_finished = None;
            for res in variants {
                for mode in [RecordMode::Full, RecordMode::Aggregate] {
                    let label = format!("{threads} threads / seed {seed} / {res:?} / {mode:?}");
                    let seq = resilient_outcome(seed, res, EngineKind::Sequential, mode);
                    let shd = resilient_outcome(seed, res, EngineKind::Sharded, mode);
                    assert_eq!(seq.engine, EngineKind::Sequential);
                    assert_eq!(shd.engine, EngineKind::Sharded, "{label}");
                    // The plan must actually bite, in the way each
                    // variant is supposed to react to it.
                    match res {
                        Resilience::Faults => {
                            assert!(seq.finished_count() < 120, "{label}: no work lost");
                            faults_finished = Some(seq.finished_count());
                        }
                        Resilience::FaultsBatched => {
                            assert!(seq.finished_count() < 120, "{label}: no work lost");
                        }
                        Resilience::Recovery => {
                            assert!(seq.resilience.retries > 0, "{label}: nothing retried");
                        }
                        Resilience::Resubmission => {
                            // Rebinding rescues work the bare plan loses
                            // (legacy resubmission counts on the broker,
                            // not in the resilience counters).
                            assert!(
                                seq.finished_count() > faults_finished.expect("Faults ran first"),
                                "{label}: resubmission rescued nothing"
                            );
                        }
                        Resilience::Workflow => {
                            assert!(seq.finished_count() < 120, "{label}: no work lost");
                        }
                        Resilience::WorkflowRecovery => {
                            assert!(seq.resilience.retries > 0, "{label}: nothing retried");
                        }
                        Resilience::WorkflowResubmission => {
                            assert!(seq.finished_count() > 0, "{label}: everything lost");
                        }
                    }
                    match mode {
                        RecordMode::Full => assert_identical(&seq, &shd, &label),
                        RecordMode::Aggregate => assert_aggregate_identical(&seq, &shd, &label),
                    }
                }
            }
        }
    }
}
