//! Streaming-broker benchmark: emits `BENCH_stream.json`.
//!
//! Drives the warm-state streaming broker ([`biosched_workload::stream`])
//! at the paper's full scale — 10⁶ cloudlets arriving in Poisson waves
//! over a 10⁵-VM space-shared heterogeneous fleet, executed on the
//! epoch-sharded engine — and records what a long-running control plane
//! cares about: per-wave scheduling latency, queue backlog at each replan
//! instant, and the queueing metrics of the merged plan (wait p50/p99,
//! mean wait, throughput).
//!
//! Every roster entry runs in both replan modes: **warm** (resident
//! scheduler, per-wave [`EvalCache::retarget_cloudlets`], carried
//! `WarmState`) and **cold** (fresh scheduler and fresh cache every wave
//! — the control arm runs the identical per-wave algorithm). The binary
//! enforces the headline perf gate: warm ACO must beat cold ACO by
//! [`GATE_RATIO`] (2×) in mean per-wave scheduling time at the
//! 100k-VM tier, where cold's O(#VMs) cache build and candidate-ring
//! sort dominate the per-wave budget.
//!
//! Before the headline, a small **grid tier** re-runs every configuration
//! at 1 and 4 rayon threads in-process and asserts byte-identical merged
//! plans and backlog traces (deterministic baselines stay byte-identical,
//! metaheuristics stay seed-deterministic), then cross-checks the
//! sequential engine and full-record mode bit-for-bit against the
//! sharded/aggregate run. The JSON's `points` rows hold only
//! simulation-derived values, so CI runs `--smoke` under different
//! `RAYON_NUM_THREADS` and diffs outputs with the machine-dependent
//! lines stripped (`grep -v wall_ms`).
//!
//! [`EvalCache::retarget_cloudlets`]: biosched_core::eval::EvalCache::retarget_cloudlets

use std::time::Instant;

use biosched_bench::harness::{self, opt_json, with_threads, Flag, Report, OUT, SEED};
use biosched_core::aco::{AcoParams, AntColony};
use biosched_core::ga::{GaParams, Genetic};
use biosched_core::pso::{ParticleSwarm, PsoParams};
use biosched_core::scheduler::{AlgorithmKind, Scheduler};
use biosched_workload::heterogeneous::HeterogeneousScenario;
use biosched_workload::online::WavePlan;
use biosched_workload::scenario::Scenario;
use biosched_workload::stream::{run_stream_with, ReplanMode, StreamConfig, StreamOutcome};
use simcloud::cloudlet_sched::SchedulerKind as VmSchedKind;
use simcloud::simulation::EngineKind;
use simcloud::stats::{RecordMode, SimulationOutcome};

type Builder = Box<dyn Fn(u64) -> Box<dyn Scheduler>>;

/// Headline-tier size and whether the warm-vs-cold wall-clock gate runs.
struct Tier {
    vms: usize,
    cloudlets: usize,
    /// Target wave count; `WavePlan::poisson` takes the mean wave size.
    waves: usize,
    interval_ms: f64,
    gate: bool,
}

/// Paper scale: cold's per-wave O(#VMs) rebuild dominates, so the gate
/// is meaningful here.
const FULL: Tier = Tier {
    vms: 100_000,
    cloudlets: 1_000_000,
    waves: 4_000,
    interval_ms: 2_000.0,
    gate: true,
};

/// CI preset: big enough for real waves, small enough for minutes; the
/// gate would measure noise.
const SMOKE: Tier = Tier {
    vms: 2_000,
    cloudlets: 20_000,
    waves: 25,
    interval_ms: 2_000.0,
    gate: false,
};

/// Warm ACO must beat cold ACO by this factor in mean per-wave
/// scheduling time when the tier gates.
const GATE_RATIO: f64 = 2.0;

/// Grid tier: thread- and engine-determinism on a small instance.
const GRID_VMS: usize = 600;
const GRID_CLOUDLETS: usize = 6_000;
const GRID_WAVES: usize = 12;

/// Heterogeneous fleet under the space-shared cloudlet policy: cloudlets
/// genuinely queue for PEs, so wait p50/p99 measure scheduling quality
/// instead of the constant VM-provisioning offset every plan pays under
/// time sharing.
fn scenario(vms: usize, cloudlets: usize, seed: u64) -> Scenario {
    let mut s = HeterogeneousScenario {
        vm_count: vms,
        cloudlet_count: cloudlets,
        datacenter_count: 4,
        seed,
    }
    .build();
    s.vm_scheduler = VmSchedKind::SpaceShared;
    s
}

/// The streaming roster: scale-profile metaheuristics (warm state is
/// pheromone / incumbent seeding) plus the stateful balancer baselines
/// (warm state is the instance itself: LC's load vector, WRR's virtual
/// clock, round-robin's cursor).
fn roster(cloudlets: usize) -> Vec<(AlgorithmKind, String, Builder)> {
    let aco = AcoParams::for_scale(cloudlets);
    let ga = GaParams::for_scale(cloudlets);
    let pso = PsoParams::for_scale(cloudlets);
    let mut list: Vec<(AlgorithmKind, String, Builder)> = vec![
        (
            AlgorithmKind::AntColony,
            "AntColony(scale)".into(),
            Box::new(move |seed| Box::new(AntColony::new(aco.clone(), seed))),
        ),
        (
            AlgorithmKind::Ga,
            "GA(scale)".into(),
            Box::new(move |seed| Box::new(Genetic::new(ga.clone(), seed))),
        ),
        (
            AlgorithmKind::Pso,
            "PSO(scale)".into(),
            Box::new(move |seed| Box::new(ParticleSwarm::new(pso.clone(), seed))),
        ),
    ];
    for kind in [
        AlgorithmKind::BaseTest,
        AlgorithmKind::LeastConnection,
        AlgorithmKind::WeightedRoundRobin,
        AlgorithmKind::Sjf,
        AlgorithmKind::BestFit,
    ] {
        list.push((
            kind,
            kind.label().into(),
            Box::new(move |seed| kind.build(seed)),
        ));
    }
    list
}

/// Per-wave scheduling latencies of the waves that scheduled anything.
fn sched_trace(r: &StreamOutcome) -> Vec<f64> {
    r.waves
        .iter()
        .filter(|w| w.scheduled > 0)
        .map(|w| w.sched_ms)
        .collect()
}

fn p95(r: &StreamOutcome) -> f64 {
    let mut sorted = sched_trace(r);
    sorted.sort_by(f64::total_cmp);
    let rank = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

/// The merged plan's queueing metrics as bit patterns.
fn metric_bits(o: &SimulationOutcome) -> [Option<u64>; 5] {
    [
        o.simulation_time_ms(),
        o.wait_p50_ms(),
        o.wait_p99_ms(),
        o.mean_wait_ms(),
        o.throughput_per_s(),
    ]
    .map(|v| v.map(f64::to_bits))
}

/// One finished configuration as its `points` row (simulation-derived,
/// byte-stable across threads and engines) and its `wall` row
/// (machine-dependent wall clock).
fn rows(
    tier: &str,
    name: &str,
    mode: ReplanMode,
    r: &StreamOutcome,
    run_wall_ms: f64,
) -> (String, String) {
    let o = &r.outcome;
    let point = format!(
        "{{\"tier\": \"{tier}\", \"algorithm\": \"{name}\", \"mode\": \"{}\", \"waves\": {}, \
         \"rounds\": {}, \"peak_backlog\": {}, \"finished\": {}, \"makespan_ms\": {}, \
         \"wait_p50_ms\": {}, \"wait_p99_ms\": {}, \"mean_wait_ms\": {}, \
         \"throughput_per_s\": {}}}",
        mode.label(),
        r.waves.len(),
        r.rounds(),
        r.peak_backlog(),
        o.finished_count(),
        opt_json(o.simulation_time_ms()),
        opt_json(o.wait_p50_ms()),
        opt_json(o.wait_p99_ms()),
        opt_json(o.mean_wait_ms()),
        opt_json(o.throughput_per_s()),
    );
    let wall = format!(
        "{{\"tier\": \"{tier}\", \"algorithm\": \"{name}\", \"mode\": \"{}\", \
         \"sched_total_wall_ms\": {:.3}, \"sched_mean_wall_ms\": {:.4}, \
         \"sched_p95_wall_ms\": {:.4}, \"sched_max_wall_ms\": {:.4}, \
         \"run_wall_ms\": {run_wall_ms:.1}}}",
        mode.label(),
        r.total_sched_ms(),
        r.mean_sched_ms().unwrap_or(0.0),
        p95(r),
        r.max_sched_ms().unwrap_or(0.0),
    );
    (point, wall)
}

fn mode_cfg(kind: AlgorithmKind, seed: u64, mode: ReplanMode) -> StreamConfig {
    match mode {
        ReplanMode::Warm => StreamConfig::warm(kind, seed),
        ReplanMode::Cold => StreamConfig::cold(kind, seed),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = [OUT, SEED, Flag::switch("--smoke")];
    let (out_path, seed, tier) = harness::parse_or_exit("streambench", &flags, &argv, |a| {
        Ok((
            a.get("--out", "BENCH_stream.json".to_string())?,
            a.get("--seed", 42u64)?,
            if a.switch("--smoke") { SMOKE } else { FULL },
        ))
    });
    let Tier {
        vms,
        cloudlets,
        waves,
        interval_ms,
        gate,
    } = tier;
    let (mut points, mut walls) = (Vec::new(), Vec::new());

    // ------------------------------------------------------------------
    // Grid tier: thread- and engine-determinism on a small instance.
    // ------------------------------------------------------------------
    let grid_scenario = scenario(GRID_VMS, GRID_CLOUDLETS, seed);
    // `poisson` takes the *mean wave size*; divide to target a wave count.
    let grid_plan = WavePlan::poisson(GRID_CLOUDLETS, GRID_CLOUDLETS / GRID_WAVES, 800.0, seed);
    eprintln!(
        "grid tier: {GRID_VMS} VMs / {GRID_CLOUDLETS} cloudlets / {GRID_WAVES} waves, \
         threads {{1, 4}}, engine x record cross-check"
    );
    for (kind, name, build) in roster(GRID_CLOUDLETS) {
        for mode in [ReplanMode::Warm, ReplanMode::Cold] {
            let cfg = mode_cfg(kind, seed, mode)
                .on_engine(EngineKind::Sharded)
                .with_record(RecordMode::Aggregate);
            let run = |threads| {
                with_threads(threads, || {
                    let wall = Instant::now();
                    let r = run_stream_with(&grid_scenario, &grid_plan, &cfg, &mut |s| build(s))
                        .expect("grid run");
                    (r, wall.elapsed().as_secs_f64() * 1e3)
                })
            };
            let (base, wall_ms) = run(1);
            let (again, _) = run(4);
            let label = format!("{name} {}", mode.label());
            assert_eq!(
                base.assignment, again.assignment,
                "{label}: plan changed with thread count"
            );
            let backlog =
                |r: &StreamOutcome| -> Vec<usize> { r.waves.iter().map(|w| w.backlog).collect() };
            assert_eq!(
                backlog(&base),
                backlog(&again),
                "{label}: backlog trace changed with thread count"
            );
            // Sequential engine + full records must match the sharded +
            // aggregate run bit for bit on every simulated metric.
            let cross = run_stream_with(
                &grid_scenario,
                &grid_plan,
                &mode_cfg(kind, seed, mode),
                &mut |s| build(s),
            )
            .expect("grid cross-check");
            assert_eq!(base.assignment, cross.assignment);
            assert_eq!(
                metric_bits(&base.outcome),
                metric_bits(&cross.outcome),
                "{label}: makespan/wait/throughput diverged across engine/record grid"
            );
            eprintln!(
                "  {label}: {} waves, peak backlog {}, wait p99 {}",
                base.rounds(),
                base.peak_backlog(),
                opt_json(base.outcome.wait_p99_ms()),
            );
            let (point, wall) = rows("grid", &name, mode, &base, wall_ms);
            points.push(point);
            walls.push(wall);
        }
    }

    // ------------------------------------------------------------------
    // Headline tier: rolling arrival load through the sharded engine.
    // ------------------------------------------------------------------
    let head_scenario = scenario(vms, cloudlets, seed);
    let head_plan = WavePlan::poisson(cloudlets, (cloudlets / waves).max(1), interval_ms, seed);
    eprintln!(
        "headline tier: {vms} VMs / {cloudlets} cloudlets / ~{waves} Poisson waves \
         ({} actual, mean interval {interval_ms} ms), sharded engine, space-shared policy",
        head_plan.waves.len()
    );
    // Warm-vs-cold mean per-wave scheduling latency per algorithm, and
    // the per-wave latency traces of the ACO pair (the scheduling-
    // latency-per-wave story the figure family plots).
    let mut speedups = Vec::new();
    let mut aco_traces = Vec::new();
    for (kind, name, build) in roster(cloudlets) {
        let mut means = Vec::new();
        for mode in [ReplanMode::Warm, ReplanMode::Cold] {
            let cfg = mode_cfg(kind, seed, mode)
                .on_engine(EngineKind::Sharded)
                .with_record(RecordMode::Aggregate);
            let wall = Instant::now();
            let r = run_stream_with(&head_scenario, &head_plan, &cfg, &mut |s| build(s))
                .expect("headline run");
            let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                r.outcome.finished_count(),
                cloudlets,
                "{name} {}: streamed cloudlets must all finish",
                mode.label()
            );
            let mean = r.mean_sched_ms().unwrap_or(0.0);
            eprintln!(
                "  {name} {}: sched mean {mean:.2} ms/wave (p95 {:.2}, max {:.2}), \
                 peak backlog {}, wait p99 {}, {wall_ms:.0} ms total wall",
                mode.label(),
                p95(&r),
                r.max_sched_ms().unwrap_or(0.0),
                r.peak_backlog(),
                opt_json(r.outcome.wait_p99_ms()),
            );
            means.push(mean);
            if kind == AlgorithmKind::AntColony {
                aco_traces.push((mode, sched_trace(&r)));
            }
            let (point, wall) = rows("headline", &name, mode, &r, wall_ms);
            points.push(point);
            walls.push(wall);
        }
        let (warm, cold) = (means[0], means[1]);
        let speedup = if warm > 0.0 {
            cold / warm
        } else {
            f64::INFINITY
        };
        eprintln!(
            "  warm speedup {name}: {speedup:.2}x (cold {cold:.2} ms/wave vs warm {warm:.2})"
        );
        speedups.push((name, warm, cold, speedup));
    }

    // The warm-vs-cold gate rides on the ACO arm.
    if gate {
        let (_, warm, cold, speedup) = speedups
            .iter()
            .find(|(n, ..)| n.starts_with("AntColony"))
            .expect("ACO in roster");
        assert!(
            *speedup >= GATE_RATIO,
            "warm ACO replanning must beat cold by {GATE_RATIO}x at the {vms}-VM tier: \
             got {speedup:.2}x (warm {warm:.3} ms/wave, cold {cold:.3} ms/wave)"
        );
        eprintln!("gate: warm ACO {speedup:.2}x over cold >= {GATE_RATIO}x");
    } else {
        eprintln!("gate: skipped on the smoke tier");
    }

    for (name, warm, cold, speedup) in &speedups {
        walls.push(format!(
            "{{\"tier\": \"headline\", \"algorithm\": \"{name}\", \
             \"warm_mean_wall_ms\": {warm:.4}, \"cold_mean_wall_ms\": {cold:.4}, \
             \"warm_speedup\": {speedup:.3}, \"gated\": {}}}",
            gate && name.starts_with("AntColony"),
        ));
    }
    for (mode, trace) in &aco_traces {
        let vals: Vec<String> = trace.iter().map(|ms| format!("{ms:.3}")).collect();
        walls.push(format!(
            "{{\"tier\": \"headline\", \"algorithm\": \"AntColony(scale)\", \"mode\": \"{}\", \
             \"per_wave_sched_wall_ms\": [{}]}}",
            mode.label(),
            vals.join(", "),
        ));
    }
    Report::new("stream")
        .field("seed", seed)
        .field(
            "grid",
            format!(
                "{{\"vms\": {GRID_VMS}, \"cloudlets\": {GRID_CLOUDLETS}, \"waves\": {GRID_WAVES}}}"
            ),
        )
        .field(
            "headline",
            format!(
                "{{\"vms\": {vms}, \"cloudlets\": {cloudlets}, \"waves\": {waves}, \
                 \"mean_interval_ms\": {interval_ms:?}, \"engine\": \"sharded\", \
                 \"policy\": \"space_shared\"}}"
            ),
        )
        .text(
            "note",
            "points rows are simulation-derived and byte-identical across rayon thread counts, \
             engines and record modes (the binary asserts all three on the grid tier); wall rows \
             carry machine-dependent scheduling/run wall clock and are stripped before CI diffs",
        )
        .section("points", points)
        .section("wall", walls)
        .write(&out_path);
}
