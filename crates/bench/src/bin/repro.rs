//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <command> [options]
//!
//! Commands:
//!   fig4a fig4b    homogeneous simulation time (Fig. 4)
//!   fig5a fig5b    homogeneous scheduling time (Fig. 5)
//!   fig6           all four heterogeneous figures (Fig. 6a-6d)
//!   fig6a..fig6d   one heterogeneous figure
//!   tables         Tables I-VII from implementation defaults
//!   extended       all nine schedulers x all six metrics (one point)
//!   convergence    ACO vs PSO vs GA convergence curves
//!   fig6-stats     Fig. 6 metrics with 5-seed error bars
//!   resilience     paper metrics + resilience counters vs host-failure
//!                  rate, with 3-seed error bars (chaos campaign)
//!   stream         streaming broker: warm vs cold replanning latency per
//!                  wave, queue backlog and wait/throughput metrics
//!   all            every table and figure above
//!
//! Options:
//!   --seed N            base RNG seed (default 42)
//!   --scale N           homogeneous down-scale divisor (default 100;
//!                       1 = paper scale: 10^6 cloudlets, takes hours)
//!   --full-scale        defaults --scale to 1 and --hetero-cloudlets
//!                       to 5000 (explicit values still win)
//!   --hetero-cloudlets N  heterogeneous workload size (default 1000)
//!   --csv DIR           also write each figure/table as CSV under DIR
//!   --ascii / --no-ascii  toggle ASCII charts (default on)
//!   --engine E          simulation engine: sequential (default) or
//!                       sharded (identical figures, faster wall-clock)
//! ```

use std::path::PathBuf;

use biosched_bench::convergence::{convergence_figure, ConvergenceConfig};
use biosched_bench::extended::{extended_comparison, ExtendedConfig};
use biosched_bench::figures::{
    figure_from_results, heterogeneous_sweep, heterogeneous_sweep_repeated, homogeneous_sweep,
    Metric,
};
use biosched_bench::harness::{self, Args, Flag, SEED};
use biosched_bench::tables::all_tables;
use biosched_metrics::report::{fmt_value, Table};
use biosched_metrics::series::FigureSeries;
use biosched_workload::heterogeneous::fig6_vm_points;
use biosched_workload::homogeneous::{fig4a_vm_points, fig4b_vm_points};
use biosched_workload::sweep::PointResult;
use simcloud::simulation::EngineKind;

#[derive(Debug, Clone)]
struct Options {
    command: String,
    seed: u64,
    scale: usize,
    hetero_cloudlets: usize,
    csv_dir: Option<PathBuf>,
    ascii: bool,
    engine: EngineKind,
}

const COMMANDS: &str = "fig4a fig4b fig5a fig5b fig6 fig6a fig6b fig6c fig6d fig6-stats \
                        resilience stream tables extended convergence all";

const FLAGS: &[Flag] = &[
    SEED,
    Flag::value("--scale", "N"),
    Flag::switch("--full-scale"),
    Flag::value("--hetero-cloudlets", "N"),
    Flag::value("--csv", "DIR"),
    Flag::switch("--ascii"),
    Flag::switch("--no-ascii"),
    Flag::value("--engine", "sequential|sharded"),
];

/// `--full-scale` only changes the defaults: an explicit `--scale` or
/// `--hetero-cloudlets` still wins.
fn parse_args(command: &str, a: &Args) -> Result<Options, String> {
    if !COMMANDS.split_whitespace().any(|c| c == command) {
        return Err(format!("unknown command '{command}' (try: {COMMANDS})"));
    }
    let full = a.switch("--full-scale");
    let opts = Options {
        command: command.to_string(),
        seed: a.get("--seed", 42)?,
        scale: a.get("--scale", if full { 1 } else { 100 })?,
        hetero_cloudlets: a.get("--hetero-cloudlets", if full { 5_000 } else { 1_000 })?,
        csv_dir: a.opt("--csv")?,
        ascii: !a.switch("--no-ascii"),
        engine: a.get("--engine", EngineKind::Sequential)?,
    };
    if opts.scale == 0 {
        return Err("--scale must be >= 1".into());
    }
    Ok(opts)
}

fn emit_figure(fig: &FigureSeries, slug: &str, opts: &Options) {
    println!("\n=== {} ===", fig.title);
    if opts.ascii {
        println!("{}", fig.render_ascii(72, 18));
    }
    // Always print the numeric rows — these are the paper's data points.
    let x_header = if fig.x_label.contains("Virtual Machines") {
        "VMs".to_string()
    } else {
        fig.x_label.clone()
    };
    let mut t = Table::new(
        std::iter::once(x_header)
            .chain(fig.series.iter().map(|(n, _)| n.clone()))
            .collect::<Vec<_>>(),
    );
    for (i, x) in fig.x.iter().enumerate() {
        t.push_row(
            std::iter::once(format!("{x:.0}"))
                .chain(fig.series.iter().map(|(_, v)| fmt_value(v[i])))
                .collect::<Vec<_>>(),
        );
    }
    println!("{}", t.render());
    if let Some(dir) = &opts.csv_dir {
        let path = dir.join(format!("{slug}.csv"));
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&path, fig.to_csv()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

/// One homogeneous sweep, any number of figures extracted from it. Figs. 4
/// and 5 plot different metrics of the *same* experiment, so `all` asks for
/// both at once instead of re-running the sweep per figure.
fn homogeneous(points: Vec<usize>, figs: &[(Metric, &str, &str)], opts: &Options) {
    println!(
        "running homogeneous sweep ({} points, scale 1/{}, seed {})…",
        points.len(),
        opts.scale,
        opts.seed
    );
    let results = homogeneous_sweep(&points, opts.scale, opts.seed, opts.engine);
    sanity_check(&results);
    for (metric, title, slug) in figs {
        let fig = figure_from_results(title, &points, &results, *metric);
        emit_figure(&fig, slug, opts);
    }
}

fn heterogeneous(metrics: &[(Metric, &str, &str)], opts: &Options) {
    let points = fig6_vm_points();
    println!(
        "running heterogeneous sweep ({} points, {} cloudlets, seed {})…",
        points.len(),
        opts.hetero_cloudlets,
        opts.seed
    );
    let results = heterogeneous_sweep(&points, opts.hetero_cloudlets, opts.seed, opts.engine);
    sanity_check(&results);
    for (metric, title, slug) in metrics {
        let fig = figure_from_results(title, &points, &results, *metric);
        emit_figure(&fig, slug, opts);
    }
}

/// Every run must complete its whole workload — anything else means the
/// scenario infrastructure was infeasible and the figures would be lies.
fn sanity_check(results: &[Vec<PointResult>]) {
    for row in results {
        for r in row {
            assert_eq!(
                r.finished, r.cloudlet_count,
                "{} finished only {}/{} cloudlets at {} VMs",
                r.algorithm, r.finished, r.cloudlet_count, r.vm_count
            );
        }
    }
}

/// The streaming-broker figure family: per-wave scheduling latency for
/// warm vs cold replanning, the warm-mode backlog trace, and a summary
/// table of queueing/latency metrics per (algorithm, mode).
fn stream_family(opts: &Options) {
    use biosched_core::scheduler::AlgorithmKind;
    use biosched_workload::heterogeneous::HeterogeneousScenario;
    use biosched_workload::online::WavePlan;
    use biosched_workload::stream::{run_stream, ReplanMode, StreamConfig};
    use simcloud::stats::RecordMode;

    let cloudlets = opts.hetero_cloudlets;
    let vms = (cloudlets / 10).max(20);
    let mut scenario = HeterogeneousScenario {
        vm_count: vms,
        cloudlet_count: cloudlets,
        datacenter_count: 4,
        seed: opts.seed,
    }
    .build();
    // Space-shared execution so cloudlets genuinely queue for PEs: the
    // wait metrics then measure scheduling quality, not just the constant
    // VM-provisioning offset that time-sharing reduces them to.
    scenario.vm_scheduler = simcloud::cloudlet_sched::SchedulerKind::SpaceShared;
    let plan = WavePlan::poisson(cloudlets, cloudlets.div_ceil(10).max(1), 500.0, opts.seed);
    let kinds = [
        AlgorithmKind::AntColony,
        AlgorithmKind::Ga,
        AlgorithmKind::Pso,
        AlgorithmKind::BaseTest,
        AlgorithmKind::LeastConnection,
        AlgorithmKind::WeightedRoundRobin,
        AlgorithmKind::Sjf,
        AlgorithmKind::BestFit,
    ];
    println!(
        "streaming broker: {} waves over {} cloudlets / {} VMs, \
         {} algorithms × warm|cold, seed {}, {:?} engine…",
        plan.waves.len(),
        cloudlets,
        vms,
        kinds.len(),
        opts.seed,
        opts.engine
    );

    let wave_axis: Vec<f64> = (0..plan.waves.len()).map(|w| w as f64).collect();
    let mut latency_fig = FigureSeries::new(
        "Stream — Scheduling Latency per Wave (warm vs cold)",
        "wave",
        "scheduling latency (ms)",
        wave_axis.clone(),
    );
    let mut backlog_fig = FigureSeries::new(
        "Stream — Queue Backlog at Replan (warm)",
        "wave",
        "backlog (cloudlets)",
        wave_axis,
    );
    let mut t = Table::new(vec![
        "algorithm",
        "mode",
        "engine",
        "sched total (ms)",
        "sched mean (ms/wave)",
        "sched worst (ms)",
        "wait p50 (ms)",
        "wait p99 (ms)",
        "throughput (/s)",
        "peak backlog",
    ]);
    for kind in kinds {
        for mode in [ReplanMode::Warm, ReplanMode::Cold] {
            let cfg = StreamConfig {
                kind,
                seed: opts.seed,
                mode,
                engine: opts.engine,
                record: RecordMode::Aggregate,
            };
            let r = run_stream(&scenario, &plan, &cfg).expect("stream run");
            assert_eq!(
                r.outcome.finished_count(),
                cloudlets,
                "{kind} ({}) finished only {}/{} cloudlets",
                mode.label(),
                r.outcome.finished_count(),
                cloudlets
            );
            let sched: Vec<f64> = r.waves.iter().map(|w| w.sched_ms).collect();
            // Latency curves for the metaheuristics (the kinds with real
            // warm state); backlog trace for every warm run.
            if matches!(
                kind,
                AlgorithmKind::AntColony | AlgorithmKind::Ga | AlgorithmKind::Pso
            ) {
                latency_fig.push_series(format!("{} ({})", kind.label(), mode.label()), sched);
            }
            if mode == ReplanMode::Warm {
                backlog_fig.push_series(
                    kind.label(),
                    r.waves.iter().map(|w| w.backlog as f64).collect(),
                );
            }
            t.push_row(vec![
                kind.label().to_string(),
                mode.label().to_string(),
                r.outcome.engine.name().to_string(),
                fmt_value(r.total_sched_ms()),
                fmt_value(r.mean_sched_ms().unwrap_or(0.0)),
                fmt_value(r.max_sched_ms().unwrap_or(0.0)),
                fmt_value(r.outcome.wait_p50_ms().unwrap_or(0.0)),
                fmt_value(r.outcome.wait_p99_ms().unwrap_or(0.0)),
                fmt_value(r.outcome.throughput_per_s().unwrap_or(0.0)),
                r.peak_backlog().to_string(),
            ]);
        }
    }
    emit_figure(&latency_fig, "stream_sched_latency", opts);
    emit_figure(&backlog_fig, "stream_backlog", opts);
    println!("\n{}", t.render());
    write_table(&t, "stream_summary", opts);
}

/// Writes `table` as `<name>.csv` under `--csv DIR`, when given.
fn write_table(table: &Table, name: &str, opts: &Options) {
    if let Some(dir) = &opts.csv_dir {
        let path = dir.join(format!("{name}.csv"));
        if table.write_csv(&path).is_ok() {
            println!("wrote {}", path.display());
        }
    }
}

fn print_tables(opts: &Options) {
    for (title, table) in all_tables() {
        println!("\n=== {title} ===");
        println!("{}", table.render());
        let slug: String = title.chars().take_while(|c| *c != '—').collect();
        write_table(&table, &slug.trim().to_lowercase().replace(' ', "_"), opts);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match argv.split_first() {
        Some((c, rest)) if !c.starts_with("--") => (c.as_str(), rest),
        _ => ("", &argv[..]),
    };
    let opts = harness::parse_or_exit("repro <command>", FLAGS, flags, |a| parse_args(command, a));

    let fig4a = (
        Metric::SimulationTime,
        "Fig 4a — Simulation Time (homogeneous, 1k-9k VMs)",
        "fig4a_simulation_time",
    );
    let fig4b = (
        Metric::SimulationTime,
        "Fig 4b — Simulation Time (homogeneous, 10k-90k VMs)",
        "fig4b_simulation_time",
    );
    let fig5a = (
        Metric::SchedulingTime,
        "Fig 5a — Scheduling Time (homogeneous, 1k-9k VMs)",
        "fig5a_scheduling_time",
    );
    let fig5b = (
        Metric::SchedulingTime,
        "Fig 5b — Scheduling Time (homogeneous, 10k-90k VMs)",
        "fig5b_scheduling_time",
    );
    let fig6_all: [(Metric, &str, &str); 4] = [
        (
            Metric::SimulationTime,
            "Fig 6a — Simulation Time (heterogeneous)",
            "fig6a_simulation_time",
        ),
        (
            Metric::SchedulingTime,
            "Fig 6b — Scheduling Time (heterogeneous)",
            "fig6b_scheduling_time",
        ),
        (
            Metric::Imbalance,
            "Fig 6c — Degree of Time Imbalance (heterogeneous)",
            "fig6c_imbalance",
        ),
        (
            Metric::ProcessingCost,
            "Fig 6d — Processing Cost (heterogeneous)",
            "fig6d_cost",
        ),
    ];

    match opts.command.as_str() {
        "fig4a" => homogeneous(fig4a_vm_points(), &[fig4a], &opts),
        "fig4b" => homogeneous(fig4b_vm_points(), &[fig4b], &opts),
        "fig5a" => homogeneous(fig4a_vm_points(), &[fig5a], &opts),
        "fig5b" => homogeneous(fig4b_vm_points(), &[fig5b], &opts),
        "fig6" => heterogeneous(&fig6_all, &opts),
        "fig6a" => heterogeneous(&fig6_all[0..1], &opts),
        "fig6b" => heterogeneous(&fig6_all[1..2], &opts),
        "fig6c" => heterogeneous(&fig6_all[2..3], &opts),
        "fig6d" => heterogeneous(&fig6_all[3..4], &opts),
        "tables" => print_tables(&opts),
        "fig6-stats" => {
            let points = fig6_vm_points();
            let reps = 5usize;
            println!(
                "heterogeneous sweep with error bars: {} points × 4 algorithms × {} seeds, \
                 {} cloudlets…",
                points.len(),
                reps,
                opts.hetero_cloudlets
            );
            let results = heterogeneous_sweep_repeated(
                &points,
                opts.hetero_cloudlets,
                opts.seed,
                reps,
                opts.engine,
            );
            let mut t = Table::new(vec![
                "VMs".to_string(),
                "algorithm".to_string(),
                "engine".to_string(),
                "makespan ms (±CI95)".to_string(),
                "imbalance (±CI95)".to_string(),
                "cost (±CI95)".to_string(),
            ]);
            for (x, row) in points.iter().zip(&results) {
                for r in row {
                    t.push_row(vec![
                        x.to_string(),
                        r.algorithm.label().to_string(),
                        r.engine.name().to_string(),
                        format!(
                            "{} ±{}",
                            fmt_value(r.simulation_time_ms.mean),
                            fmt_value(r.simulation_time_ms.ci95)
                        ),
                        format!(
                            "{} ±{}",
                            fmt_value(r.imbalance.mean),
                            fmt_value(r.imbalance.ci95)
                        ),
                        format!(
                            "{} ±{}",
                            fmt_value(r.total_cost.mean),
                            fmt_value(r.total_cost.ci95)
                        ),
                    ]);
                }
            }
            println!("\n{}", t.render());
            write_table(&t, "fig6_stats", &opts);
        }
        "resilience" => {
            use biosched_workload::heterogeneous::HeterogeneousScenario;
            use biosched_workload::resilience::resilience_sweep;
            use simcloud::broker::RecoveryPolicy;
            use simcloud::faults::FaultSpec;

            let fractions = [0.0, 0.1, 0.25, 0.5];
            let algorithms = biosched_core::scheduler::AlgorithmKind::PAPER_SET;
            let reps = 3usize;
            let cloudlets = opts.hetero_cloudlets.min(400);
            println!(
                "resilience sweep: {} failure rates × {} algorithms × {} seeds, \
                 {} cloudlets, seed {}, {:?} engine…",
                fractions.len(),
                algorithms.len(),
                reps,
                cloudlets,
                opts.seed,
                opts.engine
            );
            let spec = FaultSpec::default();
            let policy = RecoveryPolicy {
                max_attempts: 6,
                base_backoff_ms: 500.0,
                backoff_factor: 2.0,
                max_backoff_ms: 4_000.0,
            };
            let results = resilience_sweep(
                &fractions,
                &algorithms,
                &spec,
                policy,
                opts.seed,
                reps,
                opts.engine,
                |seed| {
                    HeterogeneousScenario {
                        vm_count: 40,
                        cloudlet_count: cloudlets,
                        datacenter_count: 4,
                        seed,
                    }
                    .build()
                },
            );
            let mut t = Table::new(vec![
                "host fail rate".to_string(),
                "algorithm".to_string(),
                "completion (±CI95)".to_string(),
                "goodput (±CI95)".to_string(),
                "retries (±CI95)".to_string(),
                "wasted ms (±CI95)".to_string(),
                "MTTR ms (±CI95)".to_string(),
                "makespan ms (±CI95)".to_string(),
            ]);
            for (f, row) in fractions.iter().zip(&results) {
                for r in row {
                    let pm = |m: &biosched_workload::sweep::RepeatedMetric| {
                        format!("{} ±{}", fmt_value(m.mean), fmt_value(m.ci95))
                    };
                    t.push_row(vec![
                        format!("{f:.2}"),
                        r.algorithm.label().to_string(),
                        pm(&r.completion_ratio),
                        pm(&r.goodput),
                        pm(&r.retries),
                        pm(&r.wasted_work_ms),
                        pm(&r.mttr_ms),
                        pm(&r.simulation_time_ms),
                    ]);
                }
            }
            println!("\n{}", t.render());
            write_table(&t, "resilience", &opts);

            // Paper-scale spotlight: the harshest fraction at the
            // paper's nominal fleet (100k VMs / 1M cloudlets, divided
            // by --scale like the homogeneous figures), planned by the
            // Base Test binder so the engines — not the optimizers —
            // set the wall clock. Runs on both engines and checks the
            // metrics agree to the bit.
            use biosched_workload::resilience::{inject_faults, run_resilient_point};
            use std::time::Instant;

            let spot_vms = (100_000 / opts.scale).max(40);
            let spot_cloudlets = (1_000_000 / opts.scale).max(400);
            let spot_fraction = *fractions.last().expect("non-empty fractions");
            println!(
                "\nspotlight point: {spot_vms} VMs / {spot_cloudlets} cloudlets \
                 (scale 1/{}), fail fraction {spot_fraction}, Base Test, both engines…",
                opts.scale
            );
            let mut spot = Vec::new();
            for engine in [EngineKind::Sequential, EngineKind::Sharded] {
                let mut scenario = HeterogeneousScenario {
                    vm_count: spot_vms,
                    cloudlet_count: spot_cloudlets,
                    datacenter_count: 4,
                    seed: opts.seed,
                }
                .build();
                let mut spot_spec = spec.clone();
                spot_spec.host_fail_fraction = spot_fraction;
                inject_faults(&mut scenario, &spot_spec, opts.seed, policy);
                let wall = Instant::now();
                let point = run_resilient_point(
                    &scenario,
                    biosched_core::scheduler::AlgorithmKind::BaseTest,
                    opts.seed,
                    engine,
                )
                .expect("spotlight point");
                let wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;
                println!(
                    "  {engine:?}: {wall_ms:.0} ms wall — completion {:.4}, \
                     goodput {:.4}, {} retries, makespan {} ms",
                    point.completion_ratio,
                    point.goodput,
                    point.retries,
                    fmt_value(point.simulation_time_ms),
                );
                spot.push(point);
            }
            if let [a, b] = spot.as_slice() {
                assert_eq!(
                    a.completion_ratio.to_bits(),
                    b.completion_ratio.to_bits(),
                    "spotlight engines diverged"
                );
                assert_eq!(a.retries, b.retries, "spotlight engines diverged");
                assert_eq!(
                    a.simulation_time_ms.to_bits(),
                    b.simulation_time_ms.to_bits(),
                    "spotlight engines diverged"
                );
            }
        }
        "convergence" => {
            println!(
                "convergence curves: ACO vs PSO vs GA, 40 iterations, \
                 60 VMs x 120 cloudlets…"
            );
            let fig = convergence_figure(ConvergenceConfig {
                seed: opts.seed,
                ..ConvergenceConfig::default()
            });
            emit_figure(&fig, "convergence", &opts);
        }
        "extended" => {
            println!(
                "extended comparison: every scheduler in the workspace on one \
                 heterogeneous point (100 VMs, 400 cloudlets, SLA slack 8x)…"
            );
            let table = extended_comparison(ExtendedConfig {
                seed: opts.seed,
                ..ExtendedConfig::default()
            });
            println!("\n{}", table.render());
            write_table(&table, "extended_comparison", &opts);
        }
        "stream" => stream_family(&opts),
        "all" => {
            print_tables(&opts);
            // Figs. 4 and 5 come from the same two sweeps: one run each,
            // two figures each.
            homogeneous(fig4a_vm_points(), &[fig4a, fig5a], &opts);
            homogeneous(fig4b_vm_points(), &[fig4b, fig5b], &opts);
            heterogeneous(&fig6_all, &opts);
            stream_family(&opts);
        }
        _ => unreachable!("parse_args accepts only COMMANDS"),
    }
}
