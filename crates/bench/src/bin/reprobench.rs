//! Record-retention benchmark: emits `BENCH_repro.json`.
//!
//! The `mem-full` / `mem-aggregate` children run the record-heavy
//! Fig. 4b slice while *holding* every
//! [`SimulationOutcome`](simcloud::stats::SimulationOutcome), the
//! retention contract `RecordMode` exists for, and report their peak RSS.
//!
//! `VmHWM` is monotonic per process, so each mode runs in its own child
//! process ([`harness::spawn_self`] re-runs this binary as
//! `reprobench child <mode> …`); each child emits its wall time, peak RSS
//! and finished count, and the parent assembles the comparison file.

use std::time::Instant;

use biosched_bench::harness::{self, opt_json, Flag, Report, OUT, SEED};
use biosched_bench::rss::peak_rss_kb;
use biosched_core::eval::EvalCache;
use biosched_core::scheduler::AlgorithmKind;
use biosched_workload::homogeneous::{fig4b_vm_points, HomogeneousScenario};
use simcloud::simulation::EngineKind;
use simcloud::stats::RecordMode;

const FLAGS: &[Flag] = &[OUT, Flag::value("--scale", "N"), SEED];

#[derive(Debug, Clone)]
struct Options {
    scale: usize,
    seed: u64,
}

impl Options {
    fn parse(a: &harness::Args) -> Result<Self, String> {
        let opts = Options {
            scale: a.get("--scale", 32)?,
            seed: a.get("--seed", 42)?,
        };
        if opts.scale == 0 {
            return Err("--scale must be >= 1".into());
        }
        Ok(opts)
    }
}

/// Record-retention slice: the Fig. 4b axis run serially while keeping
/// every outcome alive, as a CSV-export / drill-down consumer would. In
/// `Full` mode each outcome retains one `CloudletRecord` per cloudlet; in
/// `Aggregate` mode it retains O(VMs) folded metrics.
fn child_mem(opts: &Options, mode: RecordMode) -> usize {
    let mut held = Vec::new();
    for &vms in &fig4b_vm_points() {
        let scenario = HomogeneousScenario::scaled(vms, opts.scale).build();
        let problem = scenario.problem();
        let cache = EvalCache::new(&problem);
        for &alg in &AlgorithmKind::PAPER_SET {
            let assignment = alg.build(opts.seed).schedule_with_cache(&problem, &cache);
            let outcome = scenario
                .simulate_mode(assignment, EngineKind::Sequential, mode)
                .expect("memory-slice simulation");
            held.push(outcome);
        }
    }
    held.iter().map(|o| o.finished_count()).sum()
}

fn run_child(opts: &Options, mode: &str) -> Result<(), String> {
    let start = Instant::now();
    let finished = match mode {
        "mem-full" => child_mem(opts, RecordMode::Full),
        "mem-aggregate" => child_mem(opts, RecordMode::Aggregate),
        other => return Err(format!("unknown child mode {other}")),
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
    assert!(finished > 0, "child {mode} finished zero cloudlets");
    let rss = opt_json(peak_rss_kb());
    eprintln!("child {mode}: {finished} cloudlets finished, {wall_ms:.0} ms, rss {rss} kB");
    harness::emit("wall_ms", wall_ms);
    harness::emit("peak_rss_kb", rss);
    harness::emit("finished", finished);
    Ok(())
}

#[derive(Debug, Clone, Copy)]
struct ChildRun {
    wall_ms: f64,
    peak_rss_kb: Option<u64>,
    finished: usize,
}

/// Runs configuration `mode` as `reprobench child <mode> <argv…>`.
fn spawn_child(argv: &[String], mode: &str) -> ChildRun {
    eprintln!("running child {mode}…");
    let args = [&[mode.to_string()], argv].concat();
    let run = || -> Result<ChildRun, String> {
        let report = harness::spawn_self(&args)?;
        Ok(ChildRun {
            wall_ms: report.get("wall_ms")?,
            peak_rss_kb: report.opt("peak_rss_kb")?,
            finished: report.get("finished")?,
        })
    };
    run().unwrap_or_else(|e| panic!("child {mode}: {e}"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some((mode, rest)) = harness::child_args(&argv).and_then(<[String]>::split_first) {
        harness::parse_or_exit("reprobench child <mode>", FLAGS, rest, |a| {
            run_child(&Options::parse(a)?, mode)
        });
        return;
    }
    let (out_path, opts) = harness::parse_or_exit("reprobench", FLAGS, &argv, |a| {
        Ok((
            a.get("--out", "BENCH_repro.json".to_string())?,
            Options::parse(a)?,
        ))
    });

    let mem_full = spawn_child(&argv, "mem-full");
    let mem_aggregate = spawn_child(&argv, "mem-aggregate");
    assert_eq!(
        mem_full.finished, mem_aggregate.finished,
        "record-mode children must finish identical workloads"
    );

    let rss_ratio = match (mem_full.peak_rss_kb, mem_aggregate.peak_rss_kb) {
        (Some(f), Some(a)) if a > 0 => Some(f as f64 / a as f64),
        _ => None,
    };
    if let Some(r) = rss_ratio {
        eprintln!(
            "record retention: full {} kB vs aggregate {} kB ({r:.2}x)",
            opt_json(mem_full.peak_rss_kb),
            opt_json(mem_aggregate.peak_rss_kb)
        );
    }

    let run = |r: &ChildRun| {
        format!(
            "{{\"wall_ms\": {:.1}, \"peak_rss_kb\": {}, \"finished\": {}}}",
            r.wall_ms,
            opt_json(r.peak_rss_kb),
            r.finished
        )
    };
    Report::new("repro")
        .field("machine_cores", harness::machine_cores())
        .field("seed", opts.seed)
        .field("scale", opts.scale)
        .field(
            "record_memory",
            format!(
                "{{\n    \"workload\": \"fig4b axis, all outcomes held\",\n    \
                 \"full\": {},\n    \"aggregate\": {},\n    \
                 \"rss_ratio\": {}\n  }}",
                run(&mem_full),
                run(&mem_aggregate),
                rss_ratio.map_or_else(|| "null".to_string(), |r| format!("{r:.2}")),
            ),
        )
        .write(&out_path);
}
