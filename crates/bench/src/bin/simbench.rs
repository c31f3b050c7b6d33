//! Simulator throughput benchmark: emits `BENCH_simulator.json`.
//!
//! Measures wall-clock, event throughput and peak RSS of the discrete-event
//! simulator at 1k/10k/100k-cloudlet scales (the paper's 10:1 cloudlet:VM
//! ratio) on both engines, plus the full paper-scale point (100 000 VMs /
//! 1 000 000 cloudlets) with `--full-scale`.
//!
//! Each point runs in a child process (this binary re-invoked as
//! `simbench child`) so peak-RSS figures are per-point rather than
//! cumulative.

use std::time::Instant;

use biosched_bench::harness::{self, Flag, Report, OUT};
use biosched_core::scheduler::AlgorithmKind;
use biosched_workload::homogeneous::HomogeneousScenario;
use simcloud::simulation::EngineKind;

/// (label, divisor into the paper's 100k-VM / 1M-cloudlet point).
const SCALES: &[(&str, usize)] = &[("1k", 1_000), ("10k", 100), ("100k", 10)];

const FLAGS: &[Flag] = &[
    OUT,
    Flag::switch("--full-scale"),
    Flag::value("--threads", "N"),
];

const CHILD_FLAGS: &[Flag] = &[
    Flag::value("--vms", "N"),
    Flag::value("--cloudlets", "N"),
    Flag::value("--engine", "E"),
    Flag::value("--threads", "N"),
];

/// Child side: simulates one point, then emits its wall clock, event
/// count and peak RSS.
fn run_point(vms: usize, cloudlets: usize, engine: EngineKind) {
    let scenario = HomogeneousScenario {
        vm_count: vms,
        cloudlet_count: cloudlets,
    }
    .build();
    let assignment = AlgorithmKind::BaseTest
        .build(0)
        .schedule(&scenario.problem());
    let started = Instant::now();
    let outcome = scenario
        .simulate_on(assignment, engine)
        .expect("simulation must complete");
    let wall = started.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(outcome.finished_count(), cloudlets, "all cloudlets finish");
    assert_eq!(outcome.engine, engine, "requested engine must actually run");
    harness::emit("wall_ms", wall);
    harness::emit("events", outcome.events_processed);
    let rss = biosched_bench::rss::peak_rss_kb();
    harness::emit("peak_rss_kb", harness::opt_json(rss));
}

/// Parent side: runs one point in a child and renders its `points` row.
fn spawn_point(
    label: &str,
    (vms, cloudlets): (usize, usize),
    engine: EngineKind,
    threads: usize,
) -> Result<String, String> {
    let args = format!(
        "--vms {vms} --cloudlets {cloudlets} --engine {} --threads {threads}",
        engine.name()
    );
    let args: Vec<String> = args.split(' ').map(String::from).collect();
    let report = harness::spawn_self(&args)?;
    let (wall_ms, events) = (report.get::<f64>("wall_ms")?, report.get::<u64>("events")?);
    Ok(format!(
        "{{\"scale\": \"{label}\", \"vms\": {vms}, \"cloudlets\": {cloudlets}, \"engine\": \"{}\", \"threads\": {threads}, \"wall_ms\": {wall_ms:.3}, \"events\": {events}, \"events_per_sec\": {:.1}, \"peak_rss_kb\": {}}}",
        engine.name(),
        events as f64 / (wall_ms / 1_000.0),
        harness::opt_json(report.opt::<u64>("peak_rss_kb")?),
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(child) = harness::child_args(&argv) {
        let (vms, cloudlets, engine, threads) =
            harness::parse_or_exit("simbench child", CHILD_FLAGS, child, |a| {
                Ok((
                    a.get("--vms", 0)?,
                    a.get("--cloudlets", 0)?,
                    a.get("--engine", EngineKind::Sequential)?,
                    a.get("--threads", 1)?,
                ))
            });
        harness::with_threads(threads, || run_point(vms, cloudlets, engine));
        return;
    }
    let (out_path, full_scale, threads) = harness::parse_or_exit("simbench", FLAGS, &argv, |a| {
        Ok((
            a.get("--out", "BENCH_simulator.json".to_string())?,
            a.switch("--full-scale"),
            a.get("--threads", 8)?,
        ))
    });

    let mut points: Vec<(&str, (usize, usize))> = SCALES
        .iter()
        .map(|&(label, divisor)| {
            let s = HomogeneousScenario::scaled(100_000, divisor);
            (label, (s.vm_count, s.cloudlet_count))
        })
        .collect();
    if full_scale {
        points.push(("full", (100_000, 1_000_000)));
    }
    let mut rows = Vec::new();
    for (label, size @ (vms, cloudlets)) in points {
        for engine in [EngineKind::Sequential, EngineKind::Sharded] {
            let engine_name = engine.name();
            eprintln!("running {label} ({vms} vms / {cloudlets} cloudlets) on {engine_name}...");
            let row = spawn_point(label, size, engine, threads)
                .unwrap_or_else(|e| panic!("point {label}/{engine_name}: {e}"));
            rows.push(row);
        }
    }

    Report::new("simulator")
        .field("machine_cores", harness::machine_cores())
        .section("points", rows)
        .write(&out_path);
}
