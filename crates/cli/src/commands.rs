//! The CLI subcommands.

use std::time::Instant;

use biosched_core::scheduler::AlgorithmKind;
use biosched_core::workflow::heft;
use biosched_metrics::distribution::percentile;
use biosched_metrics::report::{fmt_value, Table};
use biosched_workload::scenario::Scenario;
use biosched_workload::sweep::sweep;
use biosched_workload::workflow;
use simcloud::energy::{estimate_energy, PowerModel};
use simcloud::simulation::EngineKind;
use simcloud::stats::{RecordMode, SimulationOutcome};

use crate::args::{
    parse_algorithm, parse_algorithm_list, parse_common, parse_usize_list, CommonOpts,
};
use crate::scenario_builder::{build_scenario, describe_scenario};

/// Help text for all commands.
pub fn usage() -> &'static str {
    "biosched — bio-inspired cloud task scheduling

usage: biosched <command> [options]

commands:
  run --algorithm <name>      run one scheduler, print every metric
  compare --algorithms a,b,c  run several schedulers side by side
  sweep --points 50,150,...   sweep the VM count, print/export series
  workflow --shape <shape>    schedule a DAG (chain|fork-join|layered|layered-sparse|ensemble)
  online --waves N            re-invoke the scheduler per arrival wave
  stream --waves N            streaming broker: warm-state incremental
                              replanning per wave (--cold for the control
                              arm) with queueing/latency metrics
  describe                    print the scenario a given option set builds

scenario options (all commands):
  --vms N          fleet size (default 50)
  --cloudlets N    workload size (default 500)
  --datacenters N  heterogeneous datacenters (default 4)
  --seed N         RNG seed (default 42)
  --homogeneous    Tables III/IV instead of V-VII
  --space-shared / --time-shared   per-VM execution policy
  --sla-slack F    attach deadlines at F x solo runtime @2000 MIPS
  --csv PATH       also write results as CSV
  --threads N      cap worker threads for parallel evaluation (default:
                   RAYON_NUM_THREADS, else all cores; never changes results)
  --engine E       simulation engine: sequential (default) or sharded
                   (parallel per-VM replay, identical results; faults,
                   recovery, and workflow DAGs all run on its epoch
                   drivers — no shape falls back to sequential)
  --faults SPEC    seeded chaos campaign with broker retries, e.g.
                   hosts=0.25,fail=500..8000,repair=2000..5000,slow=0.4
                   (keys: hosts fail repair stragglers slow slowstart
                   slowdur; repair/slowdur accept 'never')
  --fault-seed N   fault-plan seed (default: --seed)
  --sched-params S scheduler knob overrides, comma-separated key=value:
                   candidates=N|full (N below the VM count samples
                   top-eta candidate lists, else full rows) ants=N
                   iterations=N batch=N q0=F (AntColony only),
                   population=N rounds=N (CuckooSOS/GSA only), budget=N
                   quantum=N (Racing only, in evaluation units),
                   shards=N|dc (any algorithm;
                   divide-and-conquer over VM shards).
                   Bad keys/values are errors, never silently clamped

algorithms: base aco hbo rbs minmin maxmin pso ga hybrid[-cost|-balance]
            lc wrr sjf bf csos gsa portfolio[-cost|-balance]
            racing[-cost|-balance]

examples:
  biosched run --algorithm aco --vms 100 --cloudlets 1000
  biosched run --algorithm racing --vms 100 --cloudlets 1000
  biosched compare --algorithms base,aco,hbo,rbs --sla-slack 8
  biosched compare --algorithms csos,gsa,racing --vms 50
  biosched compare --algorithms base,aco --faults hosts=0.3
  biosched sweep --points 50,250,450 --algorithms base,aco
  biosched workflow --shape fork-join --tasks 32 --scheduler heft
  biosched stream --algorithm aco --waves 8 --poisson --engine sharded"
}

/// Collects every metric for one (scenario, algorithm) pair.
struct RunResult {
    name: String,
    scheduling_ms: f64,
    outcome: SimulationOutcome,
    meta: Option<biosched_core::scheduler::MetaProvenance>,
}

fn run_one(
    scenario: &Scenario,
    kind: AlgorithmKind,
    tuning: &biosched_core::tuning::SchedTuning,
    seed: u64,
    engine: EngineKind,
) -> Result<RunResult, String> {
    let problem = scenario.problem();
    let mut scheduler = tuning.build(kind, seed)?;
    let started = Instant::now();
    let assignment = scheduler.schedule(&problem);
    let scheduling_ms = started.elapsed().as_secs_f64() * 1_000.0;
    let meta = scheduler.last_meta();
    assignment
        .validate(&problem)
        .map_err(|e| format!("{kind} produced an invalid plan: {e}"))?;
    let outcome = if scenario.recovery.is_some() {
        // Fault-armed scenario: the same scheduler instance re-plans
        // every retry batch over the surviving fleet.
        let rescheduler = biosched_workload::resilience::CacheRescheduler::new(scheduler, problem);
        scenario.simulate_resilient(assignment, engine, RecordMode::Full, Box::new(rescheduler))
    } else {
        scenario.simulate_mode(assignment, engine, RecordMode::Full)
    }
    .map_err(|e| format!("simulation failed: {e}"))?;
    Ok(RunResult {
        name: kind.label().to_string(),
        scheduling_ms,
        outcome,
        meta,
    })
}

/// Prints meta-scheduler provenance (portfolio/racer winner and budget)
/// after the metrics table.
fn report_meta(results: &[RunResult]) {
    for r in results {
        if let Some(meta) = &r.meta {
            let spent: Vec<String> = meta
                .spent
                .iter()
                .map(|(name, units)| format!("{name}={units}"))
                .collect();
            println!(
                "{}: winner {} after {} evaluation units ({})",
                r.name,
                meta.winner,
                meta.total_units,
                spent.join(", ")
            );
        }
    }
}

/// Prints resilience counters after the metrics table when faults ran.
fn report_resilience(results: &[RunResult]) {
    for r in results {
        let res = &r.outcome.resilience;
        if res.retries == 0 && res.abandoned == 0 && res.wasted_work_ms == 0.0 {
            continue;
        }
        println!(
            "{}: completion {:.1}%, goodput {:.3}, {} retries, {} abandoned, \
             {:.0} ms wasted, MTTR {:.0} ms",
            r.name,
            r.outcome.completion_ratio().unwrap_or(1.0) * 100.0,
            r.outcome.goodput().unwrap_or(1.0),
            res.retries,
            res.abandoned,
            res.wasted_work_ms,
            r.outcome.mean_time_to_recovery_ms().unwrap_or(0.0),
        );
    }
}

fn metrics_table(results: &[RunResult], vm_count: usize) -> Table {
    let mut table = Table::new(vec![
        "scheduler",
        "sched (ms)",
        "makespan (ms)",
        "imbalance",
        "cost",
        "SLA %",
        "p99 turnaround (ms)",
        "energy (Wh)",
    ]);
    for r in results {
        let turnarounds: Vec<f64> = r
            .outcome
            .records
            .iter()
            .filter_map(|rec| Some(rec.finish?.saturating_sub(rec.submit?).as_millis()))
            .collect();
        let p99 = percentile(&turnarounds, 0.99).unwrap_or(0.0);
        let energy = estimate_energy(&r.outcome, vm_count, &PowerModel::commodity_server());
        table.push_row(vec![
            r.name.clone(),
            fmt_value(r.scheduling_ms),
            fmt_value(r.outcome.simulation_time_ms().unwrap_or(0.0)),
            fmt_value(r.outcome.time_imbalance().unwrap_or(0.0)),
            fmt_value(r.outcome.total_cost()),
            r.outcome
                .sla_attainment()
                .map(|a| format!("{:.1}", a * 100.0))
                .unwrap_or_else(|| "-".into()),
            fmt_value(p99),
            energy
                .map(|e| fmt_value(e.total_wh()))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    table
}

fn emit_table(table: &Table, csv: Option<&str>) -> Result<(), String> {
    println!("{}", table.render());
    if let Some(path) = csv {
        table
            .write_csv(std::path::Path::new(path))
            .map_err(|e| format!("failed to write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `biosched run`.
fn cmd_run(args: &[String]) -> Result<(), String> {
    let (opts, rest) = parse_common(args)?;
    opts.apply_thread_limit()?;
    let mut algorithm = AlgorithmKind::AntColony;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--algorithm" => {
                algorithm = parse_algorithm(it.next().ok_or("--algorithm needs a value")?)?
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let scenario = build_scenario(&opts);
    println!("{}", describe_scenario(&opts));
    let result = run_one(
        &scenario,
        algorithm,
        &opts.sched_params,
        opts.seed,
        opts.engine,
    )?;
    if result.outcome.finished_count() != scenario.cloudlet_count() {
        println!(
            "warning: only {}/{} cloudlets finished",
            result.outcome.finished_count(),
            scenario.cloudlet_count()
        );
    }
    let results = [result];
    emit_table(&metrics_table(&results, opts.vms), opts.csv.as_deref())?;
    report_meta(&results);
    report_resilience(&results);
    Ok(())
}

/// `biosched compare`.
fn cmd_compare(args: &[String]) -> Result<(), String> {
    let (opts, rest) = parse_common(args)?;
    opts.apply_thread_limit()?;
    let mut algorithms = vec![
        AlgorithmKind::BaseTest,
        AlgorithmKind::AntColony,
        AlgorithmKind::HoneyBee,
        AlgorithmKind::Rbs,
    ];
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--algorithms" => {
                algorithms = parse_algorithm_list(it.next().ok_or("--algorithms needs a value")?)?
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let scenario = build_scenario(&opts);
    println!("{}", describe_scenario(&opts));
    let results: Result<Vec<RunResult>, String> = algorithms
        .iter()
        .map(|kind| run_one(&scenario, *kind, &opts.sched_params, opts.seed, opts.engine))
        .collect();
    let results = results?;
    emit_table(&metrics_table(&results, opts.vms), opts.csv.as_deref())?;
    report_meta(&results);
    report_resilience(&results);
    Ok(())
}

/// `biosched sweep`.
fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let (opts, rest) = parse_common(args)?;
    opts.apply_thread_limit()?;
    let mut points = vec![50usize, 150, 250, 350, 450];
    let mut algorithms = AlgorithmKind::PAPER_SET.to_vec();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--points" => points = parse_usize_list(it.next().ok_or("--points needs a value")?)?,
            "--algorithms" => {
                algorithms = parse_algorithm_list(it.next().ok_or("--algorithms needs a value")?)?
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    println!(
        "sweeping {} VM points × {} algorithms ({} cloudlets each)…",
        points.len(),
        algorithms.len(),
        opts.cloudlets
    );
    let base = opts.clone();
    let results = sweep(&points, &algorithms, opts.seed, opts.engine, move |vms| {
        build_scenario(&CommonOpts {
            vms,
            ..base.clone()
        })
    });
    let mut table = Table::new(
        std::iter::once("VMs".to_string())
            .chain(algorithms.iter().flat_map(|a| {
                [
                    format!("{} makespan", a.label()),
                    format!("{} cost", a.label()),
                ]
            }))
            .collect::<Vec<_>>(),
    );
    for (x, row) in points.iter().zip(&results) {
        table.push_row(
            std::iter::once(x.to_string())
                .chain(
                    row.iter()
                        .flat_map(|r| [fmt_value(r.simulation_time_ms), fmt_value(r.total_cost)]),
                )
                .collect::<Vec<_>>(),
        );
    }
    emit_table(&table, opts.csv.as_deref())
}

/// `biosched workflow`.
fn cmd_workflow(args: &[String]) -> Result<(), String> {
    let (opts, rest) = parse_common(args)?;
    opts.apply_thread_limit()?;
    let mut shape = "fork-join".to_string();
    let mut tasks = 32usize;
    let mut use_heft = true;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shape" => shape = it.next().ok_or("--shape needs a value")?.clone(),
            "--tasks" => {
                tasks = it
                    .next()
                    .ok_or("--tasks needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --tasks: {e}"))?
            }
            "--scheduler" => {
                use_heft = match it.next().ok_or("--scheduler needs a value")?.as_str() {
                    "heft" => true,
                    "base" => false,
                    other => return Err(format!("unknown workflow scheduler {other}")),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let tasks = tasks.max(2);
    let wf = match shape.as_str() {
        "chain" => workflow::chain(tasks, 4_000.0),
        "fork-join" => workflow::fork_join((tasks - 2).div_ceil(3).max(1), 3, 4_000.0),
        "layered" => workflow::layered_random(
            4,
            tasks.div_ceil(4).max(1),
            0.3,
            (1_000.0, 8_000.0),
            opts.seed,
        ),
        "ensemble" => workflow::pipeline_ensemble(tasks.div_ceil(4).max(1), 4, 4_000.0, opts.seed),
        // O(tasks × k) generator — the shape that scales to the paper's
        // 1M-task tier (the quadratic "layered" does not).
        "layered-sparse" => workflow::layered_sparse(
            8,
            tasks.div_ceil(8).max(1),
            3,
            (1_000.0, 8_000.0),
            opts.seed,
        ),
        other => {
            return Err(format!(
                "unknown shape {other} (chain|fork-join|layered|layered-sparse|ensemble)"
            ))
        }
    };
    let mut scenario = build_scenario(&opts);
    wf.install(&mut scenario);
    let problem = scenario.problem();
    println!(
        "{} workflow: {} tasks, {} edges, critical path {:.0} MI",
        shape,
        wf.len(),
        wf.edge_count(),
        wf.critical_path_mi()
    );
    let plan = if use_heft {
        heft(&problem, &wf.parents)
    } else {
        opts.sched_params
            .build(AlgorithmKind::BaseTest, opts.seed)?
            .schedule(&problem)
    };
    let outcome = scenario
        .simulate_mode(plan, opts.engine, RecordMode::Full)
        .map_err(|e| format!("simulation failed: {e}"))?;
    let span = outcome
        .records
        .iter()
        .filter_map(|r| Some(r.finish?.as_millis()))
        .fold(0.0, f64::max);
    println!(
        "scheduler: {} | finished {}/{} | span {:.1} ms",
        if use_heft { "HEFT" } else { "Base Test" },
        outcome.finished_count(),
        wf.len(),
        span
    );
    Ok(())
}

/// `biosched online`.
fn cmd_online(args: &[String]) -> Result<(), String> {
    use biosched_workload::online::{run_online, WavePlan};
    let (opts, rest) = parse_common(args)?;
    opts.apply_thread_limit()?;
    let mut algorithm = AlgorithmKind::BaseTest;
    let mut waves = 4usize;
    let mut interval_ms = 5_000.0f64;
    let mut poisson = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--algorithm" => {
                algorithm = parse_algorithm(it.next().ok_or("--algorithm needs a value")?)?
            }
            "--waves" => {
                waves = it
                    .next()
                    .ok_or("--waves needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --waves: {e}"))?
            }
            "--interval-ms" => {
                interval_ms = it
                    .next()
                    .ok_or("--interval-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --interval-ms: {e}"))?
            }
            "--poisson" => poisson = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if waves == 0 {
        return Err("--waves must be positive".into());
    }
    let scenario = build_scenario(&opts);
    println!("{}", describe_scenario(&opts));
    let plan = if poisson {
        WavePlan::poisson(
            scenario.cloudlet_count(),
            scenario.cloudlet_count().div_ceil(waves).max(1),
            interval_ms,
            opts.seed,
        )
    } else {
        WavePlan::uniform(scenario.cloudlet_count(), waves, interval_ms)
    };
    let mut scheduler = opts.sched_params.build(algorithm, opts.seed)?;
    let result = run_online(&scenario, scheduler.as_mut(), &plan)
        .map_err(|e| format!("online run failed: {e}"))?;
    let last_finish = result
        .outcome
        .records
        .iter()
        .filter_map(|r| Some(r.finish?.as_secs()))
        .fold(0.0, f64::max);
    println!(
        "{}: {} waves, finished {}/{}, last completion at {:.1}s, mean exec {:.0} ms",
        algorithm.label(),
        result.rounds,
        result.outcome.finished_count(),
        scenario.cloudlet_count(),
        last_finish,
        result.outcome.mean_execution_ms().unwrap_or(0.0),
    );
    Ok(())
}

/// `biosched stream`.
fn cmd_stream(args: &[String]) -> Result<(), String> {
    use biosched_workload::online::WavePlan;
    use biosched_workload::stream::{run_stream_with, ReplanMode, StreamConfig};
    let (opts, rest) = parse_common(args)?;
    opts.apply_thread_limit()?;
    let mut algorithm = AlgorithmKind::AntColony;
    let mut waves = 8usize;
    let mut interval_ms = 2_000.0f64;
    let mut poisson = false;
    let mut mode = ReplanMode::Warm;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--algorithm" => {
                algorithm = parse_algorithm(it.next().ok_or("--algorithm needs a value")?)?
            }
            "--waves" => {
                waves = it
                    .next()
                    .ok_or("--waves needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --waves: {e}"))?
            }
            "--interval-ms" => {
                interval_ms = it
                    .next()
                    .ok_or("--interval-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --interval-ms: {e}"))?
            }
            "--poisson" => poisson = true,
            "--cold" => mode = ReplanMode::Cold,
            "--warm" => mode = ReplanMode::Warm,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if waves == 0 {
        return Err("--waves must be positive".into());
    }
    let scenario = build_scenario(&opts);
    println!("{}", describe_scenario(&opts));
    let plan = if poisson {
        WavePlan::poisson(
            scenario.cloudlet_count(),
            scenario.cloudlet_count().div_ceil(waves).max(1),
            interval_ms,
            opts.seed,
        )
    } else {
        WavePlan::uniform(scenario.cloudlet_count(), waves, interval_ms)
    };
    // Surface tuning errors before entering the wave loop.
    drop(opts.sched_params.build(algorithm, opts.seed)?);
    let cfg = StreamConfig {
        kind: algorithm,
        seed: opts.seed,
        mode,
        engine: opts.engine,
        record: simcloud::stats::RecordMode::Full,
    };
    let tuning = opts.sched_params.clone();
    let result = run_stream_with(&scenario, &plan, &cfg, &mut |seed| {
        tuning
            .build(algorithm, seed)
            .expect("tuning validated before the wave loop")
    })
    .map_err(|e| format!("stream run failed: {e}"))?;
    println!(
        "{} ({} replanning): {} waves, finished {}/{}, peak backlog {}",
        algorithm.label(),
        cfg.mode.label(),
        result.rounds(),
        result.outcome.finished_count(),
        scenario.cloudlet_count(),
        result.peak_backlog(),
    );
    println!(
        "scheduling latency: total {:.1} ms, mean {:.2} ms/wave, worst {:.2} ms",
        result.total_sched_ms(),
        result.mean_sched_ms().unwrap_or(0.0),
        result.max_sched_ms().unwrap_or(0.0),
    );
    println!(
        "queueing: wait p50 {:.1} ms, p99 {:.1} ms, mean {:.1} ms | throughput {:.1}/s",
        result.outcome.wait_p50_ms().unwrap_or(0.0),
        result.outcome.wait_p99_ms().unwrap_or(0.0),
        result.outcome.mean_wait_ms().unwrap_or(0.0),
        result.outcome.throughput_per_s().unwrap_or(0.0),
    );
    if let Some(path) = opts.csv.as_deref() {
        let mut table = Table::new(vec![
            "wave",
            "arrival_ms",
            "scheduled",
            "backlog",
            "sched_ms",
        ]);
        for w in &result.waves {
            table.push_row(vec![
                w.wave.to_string(),
                fmt_value(w.arrival_ms),
                w.scheduled.to_string(),
                w.backlog.to_string(),
                fmt_value(w.sched_ms),
            ]);
        }
        table
            .write_csv(std::path::Path::new(path))
            .map_err(|e| format!("failed to write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `biosched describe`.
fn cmd_describe(args: &[String]) -> Result<(), String> {
    let (opts, rest) = parse_common(args)?;
    opts.apply_thread_limit()?;
    if !rest.is_empty() {
        return Err(format!("unknown option {}", rest[0]));
    }
    let scenario = build_scenario(&opts);
    println!("{}", describe_scenario(&opts));
    let problem = scenario.problem();
    let mut table = Table::new(vec!["property", "value"]);
    let mips_min = problem
        .vms
        .iter()
        .map(|v| v.mips)
        .fold(f64::INFINITY, f64::min);
    let mips_max = problem.vms.iter().map(|v| v.mips).fold(0.0, f64::max);
    let len_min = problem
        .cloudlets
        .iter()
        .map(|c| c.length_mi)
        .fold(f64::INFINITY, f64::min);
    let len_max = problem
        .cloudlets
        .iter()
        .map(|c| c.length_mi)
        .fold(0.0, f64::max);
    table.push_row(vec![
        "VM MIPS range".to_string(),
        format!("{mips_min:.0}–{mips_max:.0}"),
    ]);
    table.push_row(vec![
        "cloudlet length range (MI)".to_string(),
        format!("{len_min:.0}–{len_max:.0}"),
    ]);
    table.push_row(vec![
        "total demand (MI)".to_string(),
        format!(
            "{:.0}",
            problem.cloudlets.iter().map(|c| c.length_mi).sum::<f64>()
        ),
    ]);
    table.push_row(vec![
        "total capacity (MIPS)".to_string(),
        format!(
            "{:.0}",
            problem.vms.iter().map(|v| v.total_mips()).sum::<f64>()
        ),
    ]);
    for (i, dc) in problem.datacenters.iter().enumerate() {
        table.push_row(vec![
            format!("dc{i} prices (mem/sto/bw/cpu)"),
            format!(
                "{:.3}/{:.4}/{:.3}/{:.1}",
                dc.cost.per_memory,
                dc.cost.per_storage,
                dc.cost.per_bandwidth,
                dc.cost.per_processing
            ),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

/// Dispatches a full argument vector (without the binary name).
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err(usage().to_string());
    };
    let rest = &args[1..];
    match command.as_str() {
        "run" => cmd_run(rest),
        "compare" => cmd_compare(rest),
        "sweep" => cmd_sweep(rest),
        "workflow" => cmd_workflow(rest),
        "online" => cmd_online(rest),
        "stream" => cmd_stream(rest),
        "describe" => cmd_describe(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other}\n\n{}", usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_command_small() {
        cmd_run(&args(
            "--algorithm base --vms 4 --cloudlets 12 --datacenters 2 --seed 1",
        ))
        .unwrap();
    }

    #[test]
    fn run_command_sharded_engine() {
        cmd_run(&args(
            "--algorithm base --vms 4 --cloudlets 12 --datacenters 2 --engine sharded",
        ))
        .unwrap();
    }

    #[test]
    fn run_command_with_faults() {
        cmd_run(&args(
            "--algorithm base --vms 8 --cloudlets 24 --datacenters 2 --seed 3 \
             --faults hosts=0.9,fail=100..2000,repair=1000..2000 --fault-seed 5",
        ))
        .unwrap();
        // Chaos + sharded runs on the epoch driver.
        cmd_run(&args(
            "--algorithm base --vms 8 --cloudlets 24 --datacenters 2 --seed 3 \
             --faults hosts=0.5,fail=100..2000 --engine sharded",
        ))
        .unwrap();
    }

    #[test]
    fn compare_command_small() {
        cmd_compare(&args(
            "--algorithms base,rbs --vms 4 --cloudlets 12 --datacenters 2 --sla-slack 16",
        ))
        .unwrap();
    }

    #[test]
    fn run_command_new_families_and_racer() {
        cmd_run(&args(
            "--algorithm csos --vms 4 --cloudlets 12 --datacenters 2 \
             --sched-params population=6,rounds=3",
        ))
        .unwrap();
        cmd_run(&args(
            "--algorithm gsa --vms 4 --cloudlets 12 --datacenters 2 \
             --sched-params population=6,rounds=3",
        ))
        .unwrap();
        cmd_run(&args(
            "--algorithm racing --vms 4 --cloudlets 12 --datacenters 2 \
             --sched-params budget=200,quantum=20",
        ))
        .unwrap();
        cmd_run(&args(
            "--algorithm portfolio --vms 4 --cloudlets 12 --datacenters 2",
        ))
        .unwrap();
        // Kind-gating errors surface through the CLI.
        assert!(cmd_run(&args(
            "--algorithm aco --vms 4 --cloudlets 12 --sched-params budget=10"
        ))
        .is_err());
    }

    #[test]
    fn sweep_command_small() {
        cmd_sweep(&args(
            "--points 2,4 --algorithms base --cloudlets 8 --datacenters 2",
        ))
        .unwrap();
    }

    #[test]
    fn workflow_command_shapes() {
        for shape in [
            "chain",
            "fork-join",
            "layered",
            "layered-sparse",
            "ensemble",
        ] {
            cmd_workflow(&args(&format!(
                "--shape {shape} --tasks 8 --vms 4 --datacenters 2"
            )))
            .unwrap_or_else(|e| panic!("{shape}: {e}"));
        }
        assert!(cmd_workflow(&args("--shape mystery")).is_err());
    }

    #[test]
    fn online_command_small() {
        cmd_online(&args(
            "--waves 2 --interval-ms 100 --vms 4 --cloudlets 8 --datacenters 2",
        ))
        .unwrap();
        cmd_online(&args("--poisson --vms 4 --cloudlets 8 --datacenters 2")).unwrap();
        assert!(cmd_online(&args("--waves 0")).is_err());
    }

    #[test]
    fn stream_command_small() {
        cmd_stream(&args(
            "--waves 2 --interval-ms 100 --vms 4 --cloudlets 8 --datacenters 2 --algorithm lc",
        ))
        .unwrap();
        cmd_stream(&args(
            "--cold --poisson --vms 4 --cloudlets 8 --datacenters 2 --algorithm wrr \
             --engine sharded",
        ))
        .unwrap();
        assert!(cmd_stream(&args("--waves 0")).is_err());
        assert!(cmd_stream(&args("--bogus")).is_err());
    }

    #[test]
    fn describe_command() {
        cmd_describe(&args("--vms 3 --cloudlets 5 --datacenters 2")).unwrap();
        assert!(cmd_describe(&args("--bogus")).is_err());
    }

    #[test]
    fn dispatch_rejects_unknown() {
        assert!(dispatch(&args("frobnicate")).is_err());
        assert!(dispatch(&[]).is_err());
        dispatch(&args("help")).unwrap();
    }
}
