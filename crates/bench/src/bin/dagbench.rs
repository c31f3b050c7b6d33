//! Workflow DAG benchmark: emits `BENCH_workflows.json`.
//!
//! Runs the paper-scale workflow shapes ([`biosched_workload::workflow`])
//! on **both** engines — the sequential kernel and the dependency-aware
//! epoch driver — and records per-shape aggregates plus wall clock. The
//! binary asserts three properties before writing anything:
//!
//! 1. every aggregate metric is bit-identical across engines (the
//!    dependency-aware epoch driver's trace-equivalence contract),
//! 2. `Workflow::critical_path_mi` is memoized: repeat calls return the
//!    same bits as a freshly built workflow's first call,
//! 3. in full mode, the sharded engine beats the kernel by ≥ 1.3× on the
//!    largest point (a colocated pipeline ensemble where every release
//!    resolves inside a replay lane — the shape the epoch driver is
//!    built for),
//! 4. in full mode, more threads are never slower: the sharded engine at
//!    4 threads takes at most 1.1× its 1-thread time on the paper-scale
//!    layered DAG (the 10 % covers the run-to-run drift of a 2-vCPU
//!    host).
//!
//! Everything emitted except the `"wall"` block is computed inside the
//! simulation, so the JSON is byte-identical no matter how many rayon
//! threads execute it. CI exploits that: its determinism matrix runs
//! `dagbench --smoke` under `RAYON_NUM_THREADS=1` and `=4` and diffs the
//! outputs with the machine-dependent lines stripped (`grep -v wall_ms`;
//! every machine-dependent line contains `wall_ms`). Full mode adds the
//! two paper-scale points: a 1M-task layered DAG over 100k VMs (run
//! sequentially and sharded at 1 and 4 threads, aggregates compared to
//! the bit) and the 1.2M-task ensemble that carries the speedup gate.

use std::time::Instant;

use biosched_bench::harness::{self, with_threads, Flag, Report, OUT, SEED};
use biosched_workload::workflow::{self, Workflow};
use simcloud::datacenter::DatacenterBlueprint;
use simcloud::prelude::*;

/// One tier: the equivalence-matrix sizes plus, in full mode, the
/// paper-scale points that carry the wall-clock gate.
struct Tier {
    name: &'static str,
    /// VMs under every matrix shape.
    vms: usize,
    chain_tasks: usize,
    /// `fork_join` (width, depth).
    fork_join: (usize, usize),
    /// `layered_sparse` (layers, width).
    layered: (usize, usize),
    /// `pipeline_ensemble` (jobs, stages).
    ensemble: (usize, usize),
    paper_scale: Option<PaperScale>,
}

/// The paper-scale points: a layered DAG `layers` deep and `vms` wide
/// over `vms` VMs, and a `jobs` × 10-stage colocated ensemble that must
/// run ≥ 1.3× faster sharded than sequential.
struct PaperScale {
    vms: usize,
    layers: usize,
    jobs: usize,
}

const FULL: Tier = Tier {
    name: "full",
    vms: 256,
    chain_tasks: 20_000,
    fork_join: (2_000, 4),
    layered: (8, 2_500),
    ensemble: (2_000, 10),
    paper_scale: Some(PaperScale {
        vms: 100_000,
        layers: 10,
        jobs: 120_000,
    }),
};

/// CI preset: the same shapes ~20× smaller, no paper-scale points.
const SMOKE: Tier = Tier {
    name: "smoke",
    vms: 64,
    chain_tasks: 1_000,
    fork_join: (100, 3),
    layered: (6, 200),
    ensemble: (200, 5),
    paper_scale: None,
};

/// The equivalence matrix of `tier` as (name, workflow, run length):
/// task `t` lands on VM `(t / run) % vms`, which decides how many
/// releases resolve locally vs cross-shard. Chains are colocated in runs
/// of ten (one cross hop per run boundary), fork-join and layered DAGs
/// spread round-robin (almost every release crosses shards), and whole
/// pipelines are pinned to one VM (every release is local).
fn matrix(tier: &Tier, seed: u64) -> Vec<(&'static str, Workflow, usize)> {
    let ((width, depth), (layers, layer_width)) = (tier.fork_join, tier.layered);
    let (jobs, stages) = tier.ensemble;
    vec![
        ("chain", workflow::chain(tier.chain_tasks, 4_000.0), 10),
        ("fork_join", workflow::fork_join(width, depth, 4_000.0), 1),
        (
            "layered_sparse",
            workflow::layered_sparse(layers, layer_width, 3, (500.0, 2_000.0), seed),
            1,
        ),
        (
            "pipeline_ensemble",
            workflow::pipeline_ensemble(jobs, stages, 1_000.0, seed),
            stages,
        ),
    ]
}

/// Runs one workflow on `engine` in aggregate mode; returns the outcome
/// and the wall clock in ms.
fn run_shape(
    wf: &Workflow,
    run: usize,
    vms: usize,
    engine: EngineKind,
) -> (SimulationOutcome, f64) {
    let vm = VmSpec::new(1_000.0, 10_000.0, 512.0, 1_000.0, 2);
    let assignment: Vec<VmId> = (0..wf.len())
        .map(|c| VmId::from_index((c / run) % vms))
        .collect();
    let wall = Instant::now();
    let outcome = SimulationBuilder::new()
        .engine(engine)
        .record_mode(RecordMode::Aggregate)
        .datacenter(DatacenterBlueprint::sized_for(
            &vm,
            vms,
            2,
            DatacenterCharacteristics::default(),
        ))
        .vms(vec![vm; vms])
        .cloudlets(wf.specs.clone())
        .assignment(assignment)
        .dependencies(wf.parents.clone())
        .run()
        .expect("DAG scenario is feasible by construction");
    let wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(outcome.engine, engine, "requested engine must run");
    assert_eq!(
        outcome.finished_count(),
        wf.len(),
        "the whole DAG must complete"
    );
    (outcome, wall_ms)
}

/// Asserts every aggregate the outcome can answer agrees to the bit.
fn assert_aggregates_match(a: &SimulationOutcome, b: &SimulationOutcome, label: &str) {
    let aggregates = |o: &SimulationOutcome| {
        let f = |v: Option<f64>| v.map(f64::to_bits);
        (
            (o.finished_count(), o.observed_count(), o.events_processed),
            (o.end_time.as_millis().to_bits(), o.total_cost().to_bits()),
            [o.simulation_time_ms(), o.mean_execution_ms(), o.goodput()].map(f),
        )
    };
    assert_eq!(
        aggregates(a),
        aggregates(b),
        "{label}: ((finished, observed, events), (end_time, cost), \
         [makespan, mean_execution, goodput]) diverged"
    );
}

/// The `critical_path_mi` micro-assert: the memoized value must be
/// bit-identical to a fresh workflow's first computation, and a chain's
/// critical path is exactly its task count × length (both f64-exact).
fn assert_critical_path_memoized(seed: u64) {
    let chain = workflow::chain(1_000, 10.0);
    for call in ["chain lower bound", "memoized repeat call"] {
        assert_eq!(
            chain.critical_path_mi().to_bits(),
            10_000.0f64.to_bits(),
            "{call}"
        );
    }
    let layered = || workflow::layered_sparse(5, 100, 3, (500.0, 2_000.0), seed);
    let (a, b) = (layered(), layered());
    let cached = a.critical_path_mi();
    assert!(cached > 0.0);
    assert_eq!(
        [a.critical_path_mi(), b.critical_path_mi()].map(f64::to_bits),
        [cached.to_bits(); 2],
        "memoized value equals a fresh workflow's computation"
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = [OUT, SEED, Flag::switch("--smoke")];
    let (out_path, seed, tier) = harness::parse_or_exit("dagbench", &flags, &argv, |a| {
        Ok((
            a.get("--out", "BENCH_workflows.json".to_string())?,
            a.get("--seed", 42u64)?,
            if a.switch("--smoke") { SMOKE } else { FULL },
        ))
    });

    assert_critical_path_memoized(seed);

    let shapes = matrix(&tier, seed);
    let vms = tier.vms;
    eprintln!(
        "workflow matrix ({}): {} shapes × 2 engines, seed {seed}",
        tier.name,
        shapes.len(),
    );
    let mut points = Vec::new();
    let mut wall = Vec::new();
    for (name, wf, run) in &shapes {
        let (seq, seq_wall) = run_shape(wf, *run, vms, EngineKind::Sequential);
        let (shd, shd_wall) = run_shape(wf, *run, vms, EngineKind::Sharded);
        assert_aggregates_match(&seq, &shd, name);
        eprintln!(
            "  {:>18}: {} tasks / {} edges / {vms} VMs — sequential {seq_wall:.0} ms, \
             sharded {shd_wall:.0} ms",
            name,
            wf.len(),
            wf.edge_count(),
        );
        points.push(format!(
            "{{\"shape\": \"{}\", \"tasks\": {}, \"edges\": {}, \"vms\": {vms}, \
             \"critical_path_mi\": {:?}, \"finished\": {}, \"makespan_ms\": {:?}, \
             \"mean_execution_ms\": {:?}, \"goodput\": {:?}, \"events\": {}}}",
            name,
            wf.len(),
            wf.edge_count(),
            wf.critical_path_mi(),
            seq.finished_count(),
            seq.end_time.as_millis(),
            seq.mean_execution_ms().unwrap_or(0.0),
            seq.goodput().unwrap_or(0.0),
            seq.events_processed,
        ));
        for (engine, w) in [
            (EngineKind::Sequential, seq_wall),
            (EngineKind::Sharded, shd_wall),
        ] {
            wall.push(format!(
                "{{\"shape\": \"{}\", \"engine\": \"{}\", \"tasks\": {}, \
                 \"vms\": {vms}, \"wall_ms\": {w:.1}}}",
                name,
                engine.name(),
                wf.len(),
            ));
        }
    }

    // Paper-scale points (full tier only; CI smoke must stay fast).
    if let Some(PaperScale {
        vms: big_vms,
        layers,
        jobs,
    }) = tier.paper_scale
    {
        // 1M-task layered DAG over 100k VMs: sequential once, sharded at
        // 1 and 4 threads — aggregates must agree to the bit everywhere.
        let wf = workflow::layered_sparse(layers, big_vms, 2, (500.0, 2_000.0), seed);
        let tasks = wf.len();
        eprintln!(
            "layered at paper scale: {tasks} tasks / {} edges / {big_vms} VMs",
            wf.edge_count(),
        );
        let paper_row = |engine: &str, w: f64| {
            format!(
                "{{\"shape\": \"layered_sparse\", \"point\": \"paper-scale\", \
                 \"engine\": \"{engine}\", \"tasks\": {tasks}, \"vms\": {big_vms}, \
                 \"wall_ms\": {w:.1}}}",
            )
        };
        let (seq, seq_wall) = run_shape(&wf, 1, big_vms, EngineKind::Sequential);
        eprintln!("  sequential: {seq_wall:.0} ms");
        wall.push(paper_row(EngineKind::Sequential.name(), seq_wall));
        let pool_walls = [1usize, 4].map(|pool| {
            let (shd, shd_wall) =
                with_threads(pool, || run_shape(&wf, 1, big_vms, EngineKind::Sharded));
            assert_aggregates_match(&seq, &shd, &format!("layered 1M, {pool} threads"));
            eprintln!("  sharded ({pool} threads): {shd_wall:.0} ms");
            wall.push(paper_row(
                &format!("{}-{pool}t", EngineKind::Sharded.name()),
                shd_wall,
            ));
            shd_wall
        });
        let [one, four] = pool_walls;
        assert!(
            four <= 1.1 * one,
            "the sharded engine must not slow down with threads on the paper-scale layered \
             DAG: 4 threads took {four:.0} ms against {one:.0} ms at 1 thread"
        );

        // The largest point: a colocated pipeline ensemble (10-stage
        // jobs pinned to one VM each) — every release resolves inside a
        // replay lane, so the epoch driver drains the whole DAG in one
        // flush. This is the shape that carries the ≥1.3× gate, on the
        // automatic (`RAYON_NUM_THREADS`) pool.
        let wf = workflow::pipeline_ensemble(jobs, 10, 1_000.0, seed);
        eprintln!(
            "largest point: pipeline ensemble, {} tasks / {big_vms} VMs (colocated)",
            wf.len(),
        );
        let (seq, seq_wall) = run_shape(&wf, 10, big_vms, EngineKind::Sequential);
        eprintln!("  sequential: {seq_wall:.0} ms");
        let (shd, shd_wall) = run_shape(&wf, 10, big_vms, EngineKind::Sharded);
        eprintln!("  sharded:    {shd_wall:.0} ms");
        assert_aggregates_match(&seq, &shd, "largest ensemble");
        let speedup = seq_wall / shd_wall;
        eprintln!("  speedup: {speedup:.2}×");
        assert!(
            speedup >= 1.3,
            "the dependency-aware epoch driver must beat the kernel ≥1.3× on the \
             largest point, got {speedup:.2}× ({seq_wall:.0} ms vs {shd_wall:.0} ms)"
        );
        wall.push(format!(
            "{{\"shape\": \"pipeline_ensemble\", \"point\": \"largest\", \
             \"tasks\": {}, \"vms\": {big_vms}, \
             \"sequential_wall_ms\": {seq_wall:.1}, \"sharded_wall_ms\": {shd_wall:.1}, \
             \"speedup_wall_ms\": {speedup:.2}}}",
            wf.len(),
        ));
    }

    Report::new("workflows")
        .field("seed", seed)
        .text("tier", tier.name)
        .text(
            "note",
            "aggregates are computed in-simulation and byte-identical across engines and rayon \
             thread counts (asserted before writing); wall_ms lines are machine-dependent and \
             are stripped before CI diffs",
        )
        .section("points", points)
        .section("wall", wall)
        .write(&out_path);
}
