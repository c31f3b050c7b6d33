//! Simulator throughput benchmark: emits `BENCH_simulator.json`.
//!
//! Measures wall-clock, event throughput and peak RSS of the discrete-event
//! simulator at 1k/10k/100k-cloudlet scales (the paper's 10:1 cloudlet:VM
//! ratio) on both engines, plus the full paper-scale points (100 000 VMs /
//! 1 000 000 cloudlets, homogeneous `full` and heterogeneous
//! `full-hetero`) with `--full-scale`. The homogeneous points are
//! tie-heavy (every VM finishes its batch at the same instants); the
//! `-hetero` points draw the paper's heterogeneous fleet and lengths
//! (Tables V–VII), so time-shared finish times are all distinct and every
//! VM has a spec of its own.
//!
//! Each point runs in a child process (this binary re-invoked as
//! `simbench child`) so peak-RSS figures are per-point rather than
//! cumulative. Children run in a pool of `--threads` workers, by default
//! one per core, so a sequential point is never timed inside a pool
//! larger than the machine.

use std::time::Instant;

use biosched_bench::harness::{self, Flag, Report, OUT};
use biosched_core::scheduler::AlgorithmKind;
use biosched_workload::heterogeneous::HeterogeneousScenario;
use biosched_workload::homogeneous::HomogeneousScenario;
use simcloud::simulation::EngineKind;
use simcloud::stats::RecordMode;

/// (label, divisor into the paper's 100k-VM / 1M-cloudlet point).
const SCALES: &[(&str, usize)] = &[("1k", 1_000), ("10k", 100), ("100k", 10)];

const FLAGS: &[Flag] = &[
    OUT,
    Flag::switch("--full-scale"),
    Flag::value("--threads", "N"),
];

const CHILD_FLAGS: &[Flag] = &[
    Flag::switch("--hetero"),
    Flag::value("--vms", "N"),
    Flag::value("--cloudlets", "N"),
    Flag::value("--engine", "E"),
    Flag::value("--threads", "N"),
];

/// Child side: simulates one point, then emits its wall clock, event
/// count and peak RSS.
fn run_point(hetero: bool, vms: usize, cloudlets: usize, engine: EngineKind) {
    let scenario = if hetero {
        HeterogeneousScenario {
            vm_count: vms,
            cloudlet_count: cloudlets,
            datacenter_count: 4,
            seed: 42,
        }
        .build()
    } else {
        HomogeneousScenario {
            vm_count: vms,
            cloudlet_count: cloudlets,
        }
        .build()
    };
    let assignment = AlgorithmKind::BaseTest
        .build(0)
        .schedule(&scenario.problem());
    let started = Instant::now();
    let outcome = scenario
        .simulate_mode(assignment, engine, RecordMode::Full)
        .expect("simulation must complete");
    let wall = started.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(outcome.finished_count(), cloudlets, "all cloudlets finish");
    assert_eq!(outcome.engine, engine, "requested engine must actually run");
    harness::emit("wall_ms", wall);
    harness::emit("events", outcome.events_processed);
    let rss = biosched_bench::rss::peak_rss_kb();
    harness::emit("peak_rss_kb", harness::opt_json(rss));
}

/// Parent side: runs one point in a child and renders its `points` row;
/// also returns the point's event count.
fn spawn_point(
    label: &str,
    hetero: bool,
    (vms, cloudlets): (usize, usize),
    engine: EngineKind,
    threads: usize,
) -> Result<(String, u64), String> {
    let args = format!(
        "--vms {vms} --cloudlets {cloudlets} --engine {} --threads {threads}",
        engine.name()
    );
    let mut args: Vec<String> = args.split(' ').map(String::from).collect();
    if hetero {
        args.push("--hetero".into());
    }
    let report = harness::spawn_self(&args)?;
    let (wall_ms, events) = (report.get::<f64>("wall_ms")?, report.get::<u64>("events")?);
    let row = format!(
        "{{\"scale\": \"{label}\", \"vms\": {vms}, \"cloudlets\": {cloudlets}, \"engine\": \"{}\", \"threads\": {threads}, \"wall_ms\": {wall_ms:.3}, \"events\": {events}, \"events_per_sec\": {:.1}, \"peak_rss_kb\": {}}}",
        engine.name(),
        events as f64 / (wall_ms / 1_000.0),
        harness::opt_json(report.opt::<u64>("peak_rss_kb")?),
    );
    Ok((row, events))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(child) = harness::child_args(&argv) {
        let (hetero, vms, cloudlets, engine, threads) =
            harness::parse_or_exit("simbench child", CHILD_FLAGS, child, |a| {
                Ok((
                    a.switch("--hetero"),
                    a.get("--vms", 0)?,
                    a.get("--cloudlets", 0)?,
                    a.get("--engine", EngineKind::Sequential)?,
                    a.get("--threads", 1)?,
                ))
            });
        harness::with_threads(threads, || run_point(hetero, vms, cloudlets, engine));
        return;
    }
    let (out_path, full_scale, threads) = harness::parse_or_exit("simbench", FLAGS, &argv, |a| {
        Ok((
            a.get("--out", "BENCH_simulator.json".to_string())?,
            a.switch("--full-scale"),
            a.get("--threads", harness::machine_cores())?,
        ))
    });

    let mut points: Vec<(&str, bool, (usize, usize))> = SCALES
        .iter()
        .map(|&(label, divisor)| {
            let s = HomogeneousScenario::scaled(100_000, divisor);
            (label, false, (s.vm_count, s.cloudlet_count))
        })
        .collect();
    points.push(("100k-hetero", true, (10_000, 100_000)));
    if full_scale {
        points.push(("full", false, (100_000, 1_000_000)));
        points.push(("full-hetero", true, (100_000, 1_000_000)));
    }
    let mut rows = Vec::new();
    for (label, hetero, size @ (vms, cloudlets)) in points {
        let mut events = Vec::new();
        for engine in [EngineKind::Sequential, EngineKind::Sharded] {
            let engine_name = engine.name();
            eprintln!("running {label} ({vms} vms / {cloudlets} cloudlets) on {engine_name}...");
            let (row, n) = spawn_point(label, hetero, size, engine, threads)
                .unwrap_or_else(|e| panic!("point {label}/{engine_name}: {e}"));
            rows.push(row);
            events.push(n);
        }
        // The engines are trace-equivalent, so they process the same events.
        assert_eq!(
            events[0], events[1],
            "point {label}: sequential and sharded event counts differ"
        );
    }

    Report::new("simulator")
        .field("machine_cores", harness::machine_cores())
        .section("points", rows)
        .write(&out_path);
}
