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
//!    built for).
//!
//! Everything emitted except the `"wall"` block is computed inside the
//! simulation, so the JSON is byte-identical no matter how many rayon
//! threads execute it. CI exploits that: the dag-smoke job runs
//! `dagbench --smoke` under `RAYON_NUM_THREADS=1` and `=4` and diffs the
//! outputs with the machine-dependent lines stripped (`grep -v wall_ms`;
//! every machine-dependent line contains `wall_ms`). Full mode adds the
//! two paper-scale points: a 1M-task layered DAG over 100k VMs (run
//! sequentially and sharded at 1 and 4 threads, aggregates compared to
//! the bit) and the 1.2M-task ensemble that carries the speedup gate.

use std::io::Write as _;
use std::time::Instant;

use biosched_workload::workflow::{self, Workflow};
use simcloud::datacenter::DatacenterBlueprint;
use simcloud::prelude::*;

/// One matrix entry: a named workflow and the assignment rule that
/// decides how many releases resolve locally vs cross-shard.
struct ShapePoint {
    name: &'static str,
    workflow: Workflow,
    /// Maps task id → VM index (over `vms` VMs).
    assign: fn(usize, usize) -> usize,
    vms: usize,
}

/// Chains colocated in runs of ten: mostly local releases, one cross
/// hop per run boundary.
fn assign_runs_of_ten(task: usize, vms: usize) -> usize {
    (task / 10) % vms
}

/// Round-robin spread: consecutive tasks land on different VMs, so
/// almost every release crosses shards.
fn assign_spread(task: usize, vms: usize) -> usize {
    task % vms
}

/// Whole pipelines pinned to one VM (10-stage jobs): every release is
/// local, chains replay without a single barrier.
fn assign_colocated_10(task: usize, vms: usize) -> usize {
    (task / 10) % vms
}

/// Five-stage variant of [`assign_colocated_10`] for the smoke tier.
fn assign_colocated_5(task: usize, vms: usize) -> usize {
    (task / 5) % vms
}

/// The equivalence matrix at either tier. Shapes match the generators
/// the paper-scale tier uses; smoke shrinks counts ~20×.
fn matrix(smoke: bool, seed: u64) -> Vec<ShapePoint> {
    if smoke {
        vec![
            ShapePoint {
                name: "chain",
                workflow: workflow::chain(1_000, 4_000.0),
                assign: assign_runs_of_ten,
                vms: 64,
            },
            ShapePoint {
                name: "fork_join",
                workflow: workflow::fork_join(100, 3, 4_000.0),
                assign: assign_spread,
                vms: 64,
            },
            ShapePoint {
                name: "layered_sparse",
                workflow: workflow::layered_sparse(6, 200, 3, (500.0, 2_000.0), seed),
                assign: assign_spread,
                vms: 64,
            },
            ShapePoint {
                name: "pipeline_ensemble",
                workflow: workflow::pipeline_ensemble(200, 5, 1_000.0, seed),
                assign: assign_colocated_5,
                vms: 64,
            },
        ]
    } else {
        vec![
            ShapePoint {
                name: "chain",
                workflow: workflow::chain(20_000, 4_000.0),
                assign: assign_runs_of_ten,
                vms: 256,
            },
            ShapePoint {
                name: "fork_join",
                workflow: workflow::fork_join(2_000, 4, 4_000.0),
                assign: assign_spread,
                vms: 256,
            },
            ShapePoint {
                name: "layered_sparse",
                workflow: workflow::layered_sparse(8, 2_500, 3, (500.0, 2_000.0), seed),
                assign: assign_spread,
                vms: 256,
            },
            ShapePoint {
                name: "pipeline_ensemble",
                workflow: workflow::pipeline_ensemble(2_000, 10, 1_000.0, seed),
                assign: assign_colocated_10,
                vms: 256,
            },
        ]
    }
}

/// Runs one workflow on `engine` in aggregate mode; returns the outcome
/// and the wall clock in ms.
fn run_shape(
    wf: &Workflow,
    assign: fn(usize, usize) -> usize,
    vms: usize,
    engine: EngineKind,
) -> (SimulationOutcome, f64) {
    let vm = VmSpec::new(1_000.0, 10_000.0, 512.0, 1_000.0, 2);
    let assignment: Vec<VmId> = (0..wf.len())
        .map(|c| VmId::from_index(assign(c, vms)))
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
    let f = |v: Option<f64>| v.map(f64::to_bits);
    assert_eq!(a.finished_count(), b.finished_count(), "{label}: finished");
    assert_eq!(a.observed_count(), b.observed_count(), "{label}: observed");
    assert_eq!(
        a.end_time.as_millis().to_bits(),
        b.end_time.as_millis().to_bits(),
        "{label}: end_time ({} vs {})",
        a.end_time.as_millis(),
        b.end_time.as_millis()
    );
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
    assert_eq!(f(a.goodput()), f(b.goodput()), "{label}: goodput");
    assert_eq!(
        a.total_cost().to_bits(),
        b.total_cost().to_bits(),
        "{label}: total_cost"
    );
    assert_eq!(
        a.events_processed, b.events_processed,
        "{label}: events_processed"
    );
}

/// The `critical_path_mi` micro-assert: the memoized value must be
/// bit-identical to a fresh workflow's first computation, and a chain's
/// critical path is exactly its task count × length (both f64-exact).
fn assert_critical_path_memoized(seed: u64) {
    let chain = workflow::chain(1_000, 10.0);
    let first = chain.critical_path_mi();
    assert_eq!(
        first.to_bits(),
        (10_000.0f64).to_bits(),
        "chain lower bound"
    );
    assert_eq!(
        first.to_bits(),
        chain.critical_path_mi().to_bits(),
        "memoized repeat call"
    );
    let a = workflow::layered_sparse(5, 100, 3, (500.0, 2_000.0), seed);
    let b = workflow::layered_sparse(5, 100, 3, (500.0, 2_000.0), seed);
    let cached = a.critical_path_mi();
    assert!(cached > 0.0);
    assert_eq!(cached.to_bits(), a.critical_path_mi().to_bits());
    assert_eq!(
        cached.to_bits(),
        b.critical_path_mi().to_bits(),
        "memoized value equals a fresh workflow's computation"
    );
}

fn engine_label(e: EngineKind) -> &'static str {
    match e {
        EngineKind::Sequential => "sequential",
        EngineKind::Sharded => "sharded",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    let mut out_path = String::from("BENCH_workflows.json");
    let mut seed = 42u64;
    let mut smoke = false;
    let mut threads: Option<usize> = None;
    let mut big_vms = 100_000usize;
    let mut big_layers = 10usize;
    let mut big_jobs = 120_000usize;
    while let Some(a) = iter.next() {
        let mut val = || iter.next().expect("flag value").clone();
        match a.as_str() {
            "--out" => out_path = val(),
            "--seed" => seed = val().parse().unwrap(),
            "--smoke" => smoke = true,
            "--threads" => threads = Some(val().parse().unwrap()),
            "--big-vms" => big_vms = val().parse().unwrap(),
            "--big-layers" => big_layers = val().parse().unwrap(),
            "--big-jobs" => big_jobs = val().parse().unwrap(),
            other => panic!(
                "unknown flag {other} (try: --out F --seed N --smoke --threads N \
                 --big-vms N --big-layers N --big-jobs N)"
            ),
        }
    }
    if let Some(n) = threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("thread pool");
    }

    assert_critical_path_memoized(seed);

    let points = matrix(smoke, seed);
    eprintln!(
        "workflow matrix ({}): {} shapes × 2 engines, seed {seed}",
        if smoke { "smoke" } else { "full" },
        points.len(),
    );
    // (shape meta, per-engine outcome + wall)
    let mut rows = Vec::new();
    for p in &points {
        let (seq, seq_wall) = run_shape(&p.workflow, p.assign, p.vms, EngineKind::Sequential);
        let (shd, shd_wall) = run_shape(&p.workflow, p.assign, p.vms, EngineKind::Sharded);
        assert_aggregates_match(&seq, &shd, p.name);
        eprintln!(
            "  {:>18}: {} tasks / {} edges / {} VMs — sequential {seq_wall:.0} ms, \
             sharded {shd_wall:.0} ms",
            p.name,
            p.workflow.len(),
            p.workflow.edge_count(),
            p.vms,
        );
        rows.push((p, seq, seq_wall, shd_wall));
    }

    // Paper-scale points (full mode only; CI smoke must stay fast).
    let mut big_rows = Vec::new();
    let mut big_tasks = 0usize;
    let mut largest: Option<(usize, f64, f64, f64)> = None;
    if !smoke {
        // 1M-task layered DAG over 100k VMs: sequential once, sharded at
        // 1 and 4 threads — aggregates must agree to the bit everywhere.
        let wf = workflow::layered_sparse(big_layers, big_vms, 2, (500.0, 2_000.0), seed);
        eprintln!(
            "layered at paper scale: {} tasks / {} edges / {big_vms} VMs",
            wf.len(),
            wf.edge_count(),
        );
        let (seq, seq_wall) = run_shape(&wf, assign_spread, big_vms, EngineKind::Sequential);
        eprintln!("  sequential: {seq_wall:.0} ms");
        for pool in [1usize, 4] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(pool)
                .build_global()
                .expect("vendored rayon accepts repeated global builds");
            let (shd, shd_wall) = run_shape(&wf, assign_spread, big_vms, EngineKind::Sharded);
            assert_aggregates_match(&seq, &shd, &format!("layered 1M, {pool} threads"));
            eprintln!("  sharded ({pool} threads): {shd_wall:.0} ms");
            big_rows.push((pool, shd_wall));
        }
        big_rows.insert(0, (0, seq_wall)); // pool 0 = sequential row
        big_tasks = wf.len();

        // The largest point: a colocated pipeline ensemble (10-stage
        // jobs pinned to one VM each) — every release resolves inside a
        // replay lane, so the epoch driver drains the whole DAG in one
        // flush. This is the shape that carries the ≥1.3× gate.
        let wf = workflow::pipeline_ensemble(big_jobs, 10, 1_000.0, seed);
        eprintln!(
            "largest point: pipeline ensemble, {} tasks / {} VMs (colocated)",
            wf.len(),
            big_vms,
        );
        let (seq, seq_wall) = run_shape(&wf, assign_colocated_10, big_vms, EngineKind::Sequential);
        eprintln!("  sequential: {seq_wall:.0} ms");
        let (shd, shd_wall) = run_shape(&wf, assign_colocated_10, big_vms, EngineKind::Sharded);
        eprintln!("  sharded:    {shd_wall:.0} ms");
        assert_aggregates_match(&seq, &shd, "largest ensemble");
        let speedup = seq_wall / shd_wall;
        eprintln!("  speedup: {speedup:.2}×");
        assert!(
            speedup >= 1.3,
            "the dependency-aware epoch driver must beat the kernel ≥1.3× on the \
             largest point, got {speedup:.2}× ({seq_wall:.0} ms vs {shd_wall:.0} ms)"
        );
        largest = Some((wf.len(), seq_wall, shd_wall, speedup));
    }

    let mut json = String::from("{\n  \"bench\": \"workflows\",\n");
    json.push_str(&format!(
        "  \"seed\": {seed},\n  \"tier\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str(
        "  \"note\": \"aggregates are computed in-simulation and byte-identical across \
         engines and rayon thread counts (asserted before writing); wall_ms lines are \
         machine-dependent and are stripped before CI diffs\",\n",
    );
    json.push_str("  \"points\": [\n");
    for (i, (p, seq, _, _)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shape\": \"{}\", \"tasks\": {}, \"edges\": {}, \"vms\": {}, \
             \"critical_path_mi\": {:?}, \"finished\": {}, \"makespan_ms\": {:?}, \
             \"mean_execution_ms\": {:?}, \"goodput\": {:?}, \"events\": {}}}{}\n",
            p.name,
            p.workflow.len(),
            p.workflow.edge_count(),
            p.vms,
            p.workflow.critical_path_mi(),
            seq.finished_count(),
            seq.end_time.as_millis(),
            seq.mean_execution_ms().unwrap_or(0.0),
            seq.goodput().unwrap_or(0.0),
            seq.events_processed,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"wall\": [\n");
    let mut wall_lines: Vec<String> = Vec::new();
    for (p, _, seq_wall, shd_wall) in &rows {
        for (engine, w) in [("sequential", seq_wall), ("sharded", shd_wall)] {
            wall_lines.push(format!(
                "    {{\"shape\": \"{}\", \"engine\": \"{engine}\", \"tasks\": {}, \
                 \"vms\": {}, \"wall_ms\": {w:.1}}}",
                p.name,
                p.workflow.len(),
                p.vms,
            ));
        }
    }
    for (pool, w) in &big_rows {
        let engine = if *pool == 0 {
            engine_label(EngineKind::Sequential).to_string()
        } else {
            format!("{}-{pool}t", engine_label(EngineKind::Sharded))
        };
        wall_lines.push(format!(
            "    {{\"shape\": \"layered_sparse\", \"point\": \"paper-scale\", \
             \"engine\": \"{engine}\", \"tasks\": {big_tasks}, \"vms\": {big_vms}, \
             \"wall_ms\": {w:.1}}}",
        ));
    }
    if let Some((tasks, seq_wall, shd_wall, speedup)) = largest {
        wall_lines.push(format!(
            "    {{\"shape\": \"pipeline_ensemble\", \"point\": \"largest\", \
             \"tasks\": {tasks}, \"vms\": {big_vms}, \
             \"sequential_wall_ms\": {seq_wall:.1}, \"sharded_wall_ms\": {shd_wall:.1}, \
             \"speedup_wall_ms\": {speedup:.2}}}",
        ));
    }
    json.push_str(&wall_lines.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let mut f = std::fs::File::create(&out_path).expect("output file");
    f.write_all(json.as_bytes()).expect("write json");
    let peak_rss = biosched_bench::rss::peak_rss_kb()
        .map_or_else(|| "unknown".to_string(), |kb| kb.to_string());
    eprintln!("wrote {out_path} (peak RSS {peak_rss} kB)");
    print!("{json}");
}
