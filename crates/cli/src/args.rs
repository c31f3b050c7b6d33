//! Hand-rolled argument parsing shared by every subcommand.

use biosched_core::objective::Objective;
use biosched_core::scheduler::AlgorithmKind;
use simcloud::cloudlet_sched::SchedulerKind;
use simcloud::simulation::EngineKind;

/// Scenario + execution options common to all commands.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonOpts {
    /// Fleet size.
    pub vms: usize,
    /// Workload size.
    pub cloudlets: usize,
    /// Datacenters (heterogeneous scenario only).
    pub datacenters: usize,
    /// RNG seed.
    pub seed: u64,
    /// Homogeneous (Tables III/IV) instead of heterogeneous (V–VII).
    pub homogeneous: bool,
    /// Per-VM execution policy.
    pub vm_scheduler: SchedulerKind,
    /// Optional SLA slack (deadline = slack × solo runtime @2000 MIPS).
    pub sla_slack: Option<f64>,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Worker-thread cap for parallel evaluation (`--threads`); `None`
    /// defers to `RAYON_NUM_THREADS` or the machine's core count.
    pub threads: Option<usize>,
    /// Simulation engine (`--engine sequential|sharded`). The sharded
    /// engine replays every CLI scenario — including fault injection
    /// (`--faults`), recovery and workflow DAGs, which run on its epoch
    /// driver — with results bit-identical to the sequential kernel.
    pub engine: EngineKind,
    /// Optional chaos campaign (`--faults hosts=0.25,fail=500..8000,...`),
    /// turned into a seeded [`simcloud::faults::FaultPlan`] over the
    /// scenario's fleet and simulated with broker retries.
    pub faults: Option<simcloud::faults::FaultSpec>,
    /// Seed for the fault plan (`--fault-seed`); defaults to `--seed`.
    pub fault_seed: Option<u64>,
    /// Scheduler knob overrides (`--sched-params candidates=32,shards=4`),
    /// parsed by [`biosched_core::tuning::SchedTuning::parse`]. Unknown
    /// keys and incoherent combinations are hard errors, never clamped.
    pub sched_params: biosched_core::tuning::SchedTuning,
}

impl Default for CommonOpts {
    fn default() -> Self {
        CommonOpts {
            vms: 50,
            cloudlets: 500,
            datacenters: 4,
            seed: 42,
            homogeneous: false,
            vm_scheduler: SchedulerKind::TimeShared,
            sla_slack: None,
            csv: None,
            threads: None,
            engine: EngineKind::Sequential,
            faults: None,
            fault_seed: None,
            sched_params: biosched_core::tuning::SchedTuning::default(),
        }
    }
}

impl CommonOpts {
    /// Installs the `--threads` cap as the global rayon thread count.
    ///
    /// Precedence is `--threads` > `RAYON_NUM_THREADS` > core count; with
    /// no cap set this is a no-op so the environment variable still
    /// applies. Results are thread-count independent (schedulers only
    /// parallelize RNG-free scoring), so this knob trades wall-clock for
    /// CPU without changing any output.
    pub fn apply_thread_limit(&self) -> Result<(), String> {
        let Some(n) = self.threads else {
            return Ok(());
        };
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .map_err(|e| format!("failed to set --threads: {e}"))
    }
}

/// Parses an algorithm name as accepted on the command line.
pub fn parse_algorithm(name: &str) -> Result<AlgorithmKind, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "base" | "base-test" | "roundrobin" | "rr" => AlgorithmKind::BaseTest,
        "aco" | "antcolony" | "ant-colony" => AlgorithmKind::AntColony,
        "hbo" | "honeybee" | "honey-bee" => AlgorithmKind::HoneyBee,
        "rbs" | "random-biased-sampling" => AlgorithmKind::Rbs,
        "minmin" | "min-min" => AlgorithmKind::MinMin,
        "maxmin" | "max-min" => AlgorithmKind::MaxMin,
        "pso" => AlgorithmKind::Pso,
        "ga" | "genetic" => AlgorithmKind::Ga,
        "hybrid" | "hybrid-makespan" => AlgorithmKind::Hybrid(Objective::Makespan),
        "hybrid-cost" => AlgorithmKind::Hybrid(Objective::Cost),
        "hybrid-balance" => AlgorithmKind::Hybrid(Objective::Balance),
        "lc" | "leastconn" | "least-connection" => AlgorithmKind::LeastConnection,
        "wrr" | "weightedrr" | "weighted-round-robin" => AlgorithmKind::WeightedRoundRobin,
        "sjf" | "shortest-job-first" => AlgorithmKind::Sjf,
        "bf" | "bestfit" | "best-fit" => AlgorithmKind::BestFit,
        "csos" | "cuckoo" | "cuckoo-sos" => AlgorithmKind::CuckooSos,
        "gsa" | "gravitational" => AlgorithmKind::Gsa,
        "portfolio" | "portfolio-makespan" => AlgorithmKind::Portfolio(Objective::Makespan),
        "portfolio-cost" => AlgorithmKind::Portfolio(Objective::Cost),
        "portfolio-balance" => AlgorithmKind::Portfolio(Objective::Balance),
        "race" | "racing" | "racing-makespan" => AlgorithmKind::Racing(Objective::Makespan),
        "racing-cost" => AlgorithmKind::Racing(Objective::Cost),
        "racing-balance" => AlgorithmKind::Racing(Objective::Balance),
        other => {
            return Err(format!(
                "unknown algorithm '{other}' (try: base aco hbo rbs minmin maxmin \
                 pso ga hybrid hybrid-cost hybrid-balance lc wrr sjf bf csos gsa \
                 portfolio racing racing-cost racing-balance)"
            ))
        }
    })
}

/// Parses a comma-separated algorithm list.
pub fn parse_algorithm_list(list: &str) -> Result<Vec<AlgorithmKind>, String> {
    let kinds: Result<Vec<_>, _> = list
        .split(',')
        .filter(|s| !s.is_empty())
        .map(parse_algorithm)
        .collect();
    let kinds = kinds?;
    if kinds.is_empty() {
        return Err("algorithm list is empty".into());
    }
    Ok(kinds)
}

/// Parses a comma-separated list of positive integers.
pub fn parse_usize_list(list: &str) -> Result<Vec<usize>, String> {
    let values: Result<Vec<usize>, _> = list
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse::<usize>())
        .collect();
    let values = values.map_err(|e| format!("bad number list '{list}': {e}"))?;
    if values.is_empty() {
        return Err("number list is empty".into());
    }
    if values.contains(&0) {
        return Err("numbers must be positive".into());
    }
    Ok(values)
}

/// Consumes common options from an argument iterator; returns unconsumed
/// arguments for the command-specific parser.
pub fn parse_common(args: &[String]) -> Result<(CommonOpts, Vec<String>), String> {
    let mut opts = CommonOpts::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--vms" => {
                opts.vms = take("--vms")?
                    .parse()
                    .map_err(|e| format!("bad --vms: {e}"))?
            }
            "--cloudlets" => {
                opts.cloudlets = take("--cloudlets")?
                    .parse()
                    .map_err(|e| format!("bad --cloudlets: {e}"))?
            }
            "--datacenters" => {
                opts.datacenters = take("--datacenters")?
                    .parse()
                    .map_err(|e| format!("bad --datacenters: {e}"))?
            }
            "--seed" => {
                opts.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--homogeneous" => opts.homogeneous = true,
            "--space-shared" => opts.vm_scheduler = SchedulerKind::SpaceShared,
            "--backfill" => opts.vm_scheduler = SchedulerKind::SpaceSharedBackfill,
            "--time-shared" => opts.vm_scheduler = SchedulerKind::TimeShared,
            "--sla-slack" => {
                opts.sla_slack = Some(
                    take("--sla-slack")?
                        .parse()
                        .map_err(|e| format!("bad --sla-slack: {e}"))?,
                )
            }
            "--csv" => opts.csv = Some(take("--csv")?),
            "--threads" => {
                opts.threads = Some(
                    take("--threads")?
                        .parse()
                        .map_err(|e| format!("bad --threads: {e}"))?,
                )
            }
            "--engine" => {
                opts.engine = match take("--engine")?.to_ascii_lowercase().as_str() {
                    "sequential" | "seq" => EngineKind::Sequential,
                    "sharded" => EngineKind::Sharded,
                    other => {
                        return Err(format!(
                            "bad --engine: '{other}' (try: sequential, sharded)"
                        ))
                    }
                }
            }
            "--faults" => {
                opts.faults = Some(simcloud::faults::FaultSpec::parse(&take("--faults")?)?)
            }
            "--fault-seed" => {
                opts.fault_seed = Some(
                    take("--fault-seed")?
                        .parse()
                        .map_err(|e| format!("bad --fault-seed: {e}"))?,
                )
            }
            "--sched-params" => {
                opts.sched_params =
                    biosched_core::tuning::SchedTuning::parse(&take("--sched-params")?)
                        .map_err(|e| format!("bad --sched-params: {e}"))?
            }
            _ => rest.push(arg.clone()),
        }
    }
    if opts.vms == 0 || opts.cloudlets == 0 || opts.datacenters == 0 {
        return Err("--vms, --cloudlets and --datacenters must be positive".into());
    }
    if opts.threads == Some(0) {
        return Err("--threads must be positive".into());
    }
    Ok((opts, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(parse_algorithm("aco").unwrap(), AlgorithmKind::AntColony);
        assert_eq!(parse_algorithm("Base").unwrap(), AlgorithmKind::BaseTest);
        assert_eq!(
            parse_algorithm("hybrid-cost").unwrap(),
            AlgorithmKind::Hybrid(Objective::Cost)
        );
        assert_eq!(
            parse_algorithm("lc").unwrap(),
            AlgorithmKind::LeastConnection
        );
        assert_eq!(
            parse_algorithm("weighted-round-robin").unwrap(),
            AlgorithmKind::WeightedRoundRobin
        );
        assert_eq!(parse_algorithm("sjf").unwrap(), AlgorithmKind::Sjf);
        assert_eq!(parse_algorithm("best-fit").unwrap(), AlgorithmKind::BestFit);
        assert_eq!(parse_algorithm("csos").unwrap(), AlgorithmKind::CuckooSos);
        assert_eq!(
            parse_algorithm("cuckoo-sos").unwrap(),
            AlgorithmKind::CuckooSos
        );
        assert_eq!(parse_algorithm("gsa").unwrap(), AlgorithmKind::Gsa);
        assert_eq!(
            parse_algorithm("portfolio").unwrap(),
            AlgorithmKind::Portfolio(Objective::Makespan)
        );
        assert_eq!(
            parse_algorithm("racing").unwrap(),
            AlgorithmKind::Racing(Objective::Makespan)
        );
        assert_eq!(
            parse_algorithm("racing-cost").unwrap(),
            AlgorithmKind::Racing(Objective::Cost)
        );
        assert!(parse_algorithm("nope").is_err());
    }

    #[test]
    fn algorithm_lists() {
        let kinds = parse_algorithm_list("aco,hbo,rbs").unwrap();
        assert_eq!(kinds.len(), 3);
        assert!(parse_algorithm_list("").is_err());
        assert!(parse_algorithm_list("aco,bogus").is_err());
    }

    #[test]
    fn usize_lists() {
        assert_eq!(parse_usize_list("50,150, 250").unwrap(), vec![50, 150, 250]);
        assert!(parse_usize_list("50,0").is_err());
        assert!(parse_usize_list("x").is_err());
    }

    #[test]
    fn common_options_roundtrip() {
        let (opts, rest) = parse_common(&args(
            "--vms 10 --cloudlets 20 --seed 7 --homogeneous --space-shared \
             --sla-slack 4.5 --csv out.csv --extra positional",
        ))
        .unwrap();
        assert_eq!(opts.vms, 10);
        assert_eq!(opts.cloudlets, 20);
        assert_eq!(opts.seed, 7);
        assert!(opts.homogeneous);
        assert_eq!(opts.vm_scheduler, SchedulerKind::SpaceShared);
        assert_eq!(opts.sla_slack, Some(4.5));
        assert_eq!(opts.csv.as_deref(), Some("out.csv"));
        assert_eq!(rest, args("--extra positional"));
    }

    #[test]
    fn defaults_apply() {
        let (opts, rest) = parse_common(&[]).unwrap();
        assert_eq!(opts, CommonOpts::default());
        assert!(rest.is_empty());
    }

    #[test]
    fn threads_option() {
        let (opts, rest) = parse_common(&args("--threads 2")).unwrap();
        assert_eq!(opts.threads, Some(2));
        assert!(rest.is_empty());
        assert!(opts.apply_thread_limit().is_ok());
        assert_eq!(parse_common(&[]).unwrap().0.threads, None);
        assert!(parse_common(&args("--threads 0")).is_err());
        assert!(parse_common(&args("--threads x")).is_err());
    }

    #[test]
    fn engine_option() {
        let (opts, rest) = parse_common(&args("--engine sharded")).unwrap();
        assert_eq!(opts.engine, EngineKind::Sharded);
        assert!(rest.is_empty());
        let (opts, _) = parse_common(&args("--engine sequential")).unwrap();
        assert_eq!(opts.engine, EngineKind::Sequential);
        assert_eq!(parse_common(&[]).unwrap().0.engine, EngineKind::Sequential);
        assert!(parse_common(&args("--engine warp")).is_err());
    }

    #[test]
    fn faults_option() {
        let (opts, rest) =
            parse_common(&args("--faults hosts=0.25,fail=500..8000 --fault-seed 9")).unwrap();
        let spec = opts.faults.expect("spec parsed");
        assert_eq!(spec.host_fail_fraction, 0.25);
        assert_eq!(spec.fail_window_ms, (500.0, 8_000.0));
        assert_eq!(opts.fault_seed, Some(9));
        assert!(rest.is_empty());
        assert!(parse_common(&args("--faults hosts=2.0")).is_err());
        // Chaos timelines replay on the epoch-sharded driver: the
        // combination is valid.
        let (opts, _) = parse_common(&args("--faults hosts=0.2 --engine sharded")).unwrap();
        assert_eq!(opts.engine, EngineKind::Sharded);
        assert!(opts.faults.is_some());
    }

    #[test]
    fn sched_params_option() {
        let (opts, rest) =
            parse_common(&args("--sched-params candidates=16,ants=10,shards=2")).unwrap();
        assert_eq!(opts.sched_params.candidates, Some(Some(16)));
        assert!(opts.sched_params.shards.is_some());
        assert!(rest.is_empty());
        // Errors propagate instead of clamping.
        assert!(parse_common(&args("--sched-params candidates=0")).is_err());
        assert!(parse_common(&args("--sched-params warp=9")).is_err());
        assert!(parse_common(&args("--sched-params sampling=alias")).is_err());
        assert_eq!(
            parse_common(&[]).unwrap().0.sched_params,
            biosched_core::tuning::SchedTuning::default()
        );
    }

    #[test]
    fn missing_values_error() {
        assert!(parse_common(&args("--vms")).is_err());
        assert!(parse_common(&args("--seed abc")).is_err());
    }
}
