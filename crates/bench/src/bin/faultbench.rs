//! Resilience benchmark: emits `BENCH_faults.json`.
//!
//! Runs the seeded chaos campaign — host-failure fractions crossed with
//! the paper's four schedulers, each point repeated over seeds — through
//! [`biosched_workload::resilience::resilience_sweep`] on **both**
//! engines (sequential kernel and epoch-sharded replay) and records the
//! recovery metrics (completion ratio, goodput, retries, wasted work,
//! MTTR) plus the simulated makespan, one row per engine.
//!
//! Every metric in the JSON is computed inside the simulation, so those
//! rows are byte-identical across engines and no matter how many rayon
//! threads execute the sweep — the binary asserts both properties. CI
//! exploits that: its determinism matrix runs this binary under
//! `RAYON_NUM_THREADS=1` and `=4` and diffs the outputs with the
//! machine-dependent `wall_ms` lines stripped (`grep -v wall_ms`). Wall
//! clock per engine × fraction lives in the trailing `"wall"` block
//! (one line per entry) so the committed file still documents the
//! sequential-vs-sharded speed story on the machine that produced it.

use std::time::Instant;

use biosched_bench::harness::{self, Report, OUT, SEED};
use biosched_core::scheduler::AlgorithmKind;
use biosched_workload::heterogeneous::HeterogeneousScenario;
use biosched_workload::resilience::{
    inject_faults, resilience_sweep, run_resilient_point, ResiliencePointResult, ResilienceSummary,
};
use biosched_workload::sweep::RepeatedMetric;
use simcloud::broker::RecoveryPolicy;
use simcloud::faults::FaultSpec;
use simcloud::simulation::EngineKind;

/// Host-failure fractions swept (0 = control row: must be fault-free).
const FRACTIONS: &[f64] = &[0.0, 0.1, 0.25, 0.5];
const ENGINES: [EngineKind; 2] = [EngineKind::Sequential, EngineKind::Sharded];
/// Seeds per campaign point.
const REPS: usize = 3;
/// Campaign fleet and workload.
const VMS: usize = 40;
const CLOUDLETS: usize = 400;
/// The single largest fault-sweep point, run once per engine.
const BIG_VMS: usize = 5_000;
const BIG_CLOUDLETS: usize = 50_000;

/// A campaign point's recorded metrics, in JSON order.
fn metrics(s: &ResilienceSummary) -> [(&'static str, &RepeatedMetric); 6] {
    [
        ("completion_ratio", &s.completion_ratio),
        ("goodput", &s.goodput),
        ("retries", &s.retries),
        ("wasted_work_ms", &s.wasted_work_ms),
        ("mttr_ms", &s.mttr_ms),
        ("makespan_ms", &s.simulation_time_ms),
    ]
}

/// The largest point's metrics as exactly comparable values.
fn point_bits(p: &ResiliencePointResult) -> ([u64; 5], u64, u64, usize) {
    let floats = [
        p.completion_ratio,
        p.goodput,
        p.wasted_work_ms,
        p.mttr_ms,
        p.simulation_time_ms,
    ];
    (floats.map(f64::to_bits), p.retries, p.abandoned, p.finished)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (out_path, seed) = harness::parse_or_exit("faultbench", &[OUT, SEED], &argv, |a| {
        Ok((
            a.get("--out", "BENCH_faults.json".to_string())?,
            a.get("--seed", 42u64)?,
        ))
    });

    let spec = FaultSpec::default();
    let policy = RecoveryPolicy {
        max_attempts: 6,
        base_backoff_ms: 500.0,
        backoff_factor: 2.0,
        max_backoff_ms: 4_000.0,
    };
    let algorithms = AlgorithmKind::PAPER_SET;
    let big_fraction = *FRACTIONS.last().expect("non-empty fractions");
    let hetero = |vms, cloudlets, seed| {
        HeterogeneousScenario {
            vm_count: vms,
            cloudlet_count: cloudlets,
            datacenter_count: 4,
            seed,
        }
        .build()
    };
    eprintln!(
        "chaos campaign: {} fractions × {} algorithms × {REPS} seeds × {} engines, \
         {VMS} VMs / {CLOUDLETS} cloudlets, seed {seed}",
        FRACTIONS.len(),
        algorithms.len(),
        ENGINES.len(),
    );

    // Per engine: one timed sweep per fraction, then the largest point.
    // Rep seeds depend only on the rep index, so sweeping fractions one
    // at a time is metric-identical to one grid call — it just gives wall
    // clock the per-fraction resolution the sequential-vs-sharded
    // comparison needs.
    let mut runs = Vec::new();
    for engine in ENGINES {
        let (mut rows, mut walls) = (Vec::new(), Vec::new());
        for &fraction in FRACTIONS {
            let wall = Instant::now();
            let mut result = resilience_sweep(
                &[fraction],
                &algorithms,
                &spec,
                policy,
                seed,
                REPS,
                engine,
                |s| hetero(VMS, CLOUDLETS, s),
            );
            walls.push(wall.elapsed().as_secs_f64() * 1_000.0);
            rows.push(result.pop().expect("one fraction in, one row out"));
        }
        eprintln!(
            "{:>10}: {:.0} ms wall (per fraction {walls:.0?} ms)",
            engine.name(),
            walls.iter().sum::<f64>(),
        );
        // Control row sanity: with no faults armed, recovery must be free.
        for s in &rows[0] {
            assert!(
                s.completion_ratio.mean == 1.0 && s.retries.mean == 0.0,
                "{:?} lost cloudlets or retried without faults on the {} engine",
                s.algorithm,
                engine.name(),
            );
        }

        // The largest fault-sweep point: one big single run at the
        // harshest fraction. The Base Test binder plans it (cyclic, so
        // scheduling cost is negligible) — the wall clock here measures
        // the engines, not the optimizers.
        let mut scenario = hetero(BIG_VMS, BIG_CLOUDLETS, seed);
        let mut spec = spec.clone();
        spec.host_fail_fraction = big_fraction;
        inject_faults(&mut scenario, &spec, seed, policy);
        let wall = Instant::now();
        let big = run_resilient_point(&scenario, AlgorithmKind::BaseTest, seed, engine)
            .expect("big fault point");
        let big_wall = wall.elapsed().as_secs_f64() * 1_000.0;
        eprintln!(
            "largest point ({BIG_VMS} VMs / {BIG_CLOUDLETS} cloudlets, fraction {big_fraction}): \
             {} engine {big_wall:.0} ms, completion {:.4}, {} retries",
            engine.name(),
            big.completion_ratio,
            big.retries,
        );
        runs.push((engine, rows, walls, big_wall, big));
    }

    // Engine equivalence: every simulated metric must agree to the bit.
    let [(_, seq_rows, _, _, seq_big), (_, shd_rows, _, _, shd_big)] = &runs[..] else {
        unreachable!("one run per engine")
    };
    let means = |s| metrics(s).map(|(_, m)| m.mean.to_bits());
    for (f, (row_a, row_b)) in FRACTIONS.iter().zip(seq_rows.iter().zip(shd_rows)) {
        for (a, b) in row_a.iter().zip(row_b) {
            let algorithm = a.algorithm;
            assert_eq!(
                means(a),
                means(b),
                "engines diverged at fraction {f} / {algorithm:?}"
            );
        }
    }
    assert_eq!(
        point_bits(seq_big),
        point_bits(shd_big),
        "engines diverged on the largest point"
    );

    let (mut points, mut wall) = (Vec::new(), Vec::new());
    for (engine, rows, walls, _, _) in &runs {
        for ((f, row), w) in FRACTIONS.iter().zip(rows).zip(walls) {
            for s in row {
                let fields: String = metrics(s)
                    .iter()
                    .map(|(k, m)| {
                        format!(
                            ", \"{k}\": {{\"mean\": {:?}, \"ci95\": {:?}}}",
                            m.mean, m.ci95
                        )
                    })
                    .collect();
                points.push(format!(
                    "{{\"engine\": \"{}\", \"fraction\": {f:?}, \"algorithm\": \"{}\"{fields}}}",
                    engine.name(),
                    s.algorithm.label(),
                ));
            }
            wall.push(format!(
                "{{\"engine\": \"{}\", \"fraction\": {f:?}, \"vms\": {VMS}, \
                 \"cloudlets\": {CLOUDLETS}, \"wall_ms\": {w:.1}}}",
                engine.name(),
            ));
        }
    }
    for (engine, _, _, w, _) in &runs {
        wall.push(format!(
            "{{\"engine\": \"{}\", \"fraction\": {big_fraction:?}, \"vms\": {BIG_VMS}, \
             \"cloudlets\": {BIG_CLOUDLETS}, \"point\": \"largest\", \"wall_ms\": {w:.1}}}",
            engine.name(),
        ));
    }

    Report::new("faults")
        .field("seed", seed)
        .field("reps", REPS)
        .field("vms", VMS)
        .field("cloudlets", CLOUDLETS)
        .field("datacenters", 4)
        .field(
            "policy",
            format!(
                "{{\"max_attempts\": {}, \"base_backoff_ms\": {:?}, \"backoff_factor\": {:?}, \
                 \"max_backoff_ms\": {:?}}}",
                policy.max_attempts,
                policy.base_backoff_ms,
                policy.backoff_factor,
                policy.max_backoff_ms
            ),
        )
        .text(
            "note",
            "metrics are computed in-simulation and byte-identical across engines and rayon \
             thread counts; wall_ms lines are machine-dependent (committed values: one sweep \
             per engine x fraction on the committing machine) and are stripped before CI diffs",
        )
        .section("points", points)
        .section("wall", wall)
        .write(&out_path);
}
