//! Streaming broker: warm-state incremental replanning under continuous
//! arrival load.
//!
//! [`run_online`](crate::online::run_online) re-invokes a scheduler per
//! arrival wave but treats every wave as a from-scratch call. This module
//! is the production-shaped version: a long-running broker that carries
//! **warm state** across wave boundaries and measures what a real control
//! plane cares about — per-wave scheduling latency and queue backlog on
//! top of the simulator's wait/throughput metrics.
//!
//! ## Replan modes
//!
//! [`ReplanMode::Warm`] keeps one scheduler instance, one [`EvalCache`]
//! (cloudlet side retargeted per wave via
//! [`EvalCache::retarget_cloudlets`], VM side and candidate ring reused)
//! and one [`WarmState`] alive for the whole run. Each scheduler family
//! consumes the warm state its own way ([`Scheduler::schedule_warm`]):
//! ACO re-seeds from the previous wave's evaporated pheromone matrix,
//! GA/PSO fold the surviving incumbent plan into their initial
//! population/swarm, and the greedy/balancer kinds simply keep their
//! instance state (round-robin cursor, least-connection load vector,
//! weighted-RR virtual clock).
//!
//! [`ReplanMode::Cold`] rebuilds everything every wave — fresh scheduler
//! from the same seed, fresh cache, no carried state. It is the control
//! arm for the warm-speedup claim, not a deliberately hobbled strawman:
//! it runs the identical per-wave algorithm.
//!
//! Warm plans are **not** claimed equal to cold plans. Each mode is
//! separately deterministic: same seed, same wave plan ⇒ byte-identical
//! merged assignment at any rayon thread count and on either engine.
//!
//! ## Interaction with the epoch-sharded engine
//!
//! The broker plans each wave when it arrives, then the merged plan is
//! executed once with per-cloudlet arrival times. On the sharded engine
//! those staggered arrivals land in the epoch-based superstep replay:
//! wave boundaries act as arrival horizons inside the epoch stream, and
//! in-flight execution, fault strikes and retries interleave with the
//! waves exactly as they do for
//! [`run_online`](crate::online::run_online) — bit-identically to the
//! sequential kernel.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use biosched_core::assignment::Assignment;
use biosched_core::eval::EvalCache;
use biosched_core::problem::SchedulingProblem;
use biosched_core::scheduler::{AlgorithmKind, Scheduler};
use biosched_core::warm::WarmState;
use simcloud::error::SimError;
use simcloud::ids::VmId;
use simcloud::simulation::EngineKind;
use simcloud::stats::{RecordMode, SimulationOutcome};

use crate::online::WavePlan;
use crate::scenario::Scenario;

/// Whether the broker carries warm state across wave boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanMode {
    /// Persistent scheduler + retargeted cache + [`WarmState`].
    Warm,
    /// Fresh scheduler and fresh cache every wave (the control arm).
    Cold,
}

impl ReplanMode {
    /// Lower-case label for reports and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            ReplanMode::Warm => "warm",
            ReplanMode::Cold => "cold",
        }
    }
}

/// One streaming-broker run, fully specified.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Which algorithm replans each wave.
    pub kind: AlgorithmKind,
    /// Construction seed (cold mode rebuilds from it every wave).
    pub seed: u64,
    /// Warm or cold replanning.
    pub mode: ReplanMode,
    /// Simulation engine for the merged plan.
    pub engine: EngineKind,
    /// Retention mode for the simulated outcome.
    pub record: RecordMode,
}

impl StreamConfig {
    /// Warm-mode config on the sequential engine with full records.
    pub fn warm(kind: AlgorithmKind, seed: u64) -> Self {
        StreamConfig {
            kind,
            seed,
            mode: ReplanMode::Warm,
            engine: EngineKind::Sequential,
            record: RecordMode::Full,
        }
    }

    /// Cold-mode config on the sequential engine with full records.
    pub fn cold(kind: AlgorithmKind, seed: u64) -> Self {
        StreamConfig {
            mode: ReplanMode::Cold,
            ..Self::warm(kind, seed)
        }
    }

    /// Same config on a different engine.
    pub fn on_engine(self, engine: EngineKind) -> Self {
        StreamConfig { engine, ..self }
    }

    /// Same config with a different record mode.
    pub fn with_record(self, record: RecordMode) -> Self {
        StreamConfig { record, ..self }
    }
}

/// Per-wave broker measurements.
#[derive(Debug, Clone)]
pub struct WaveStat {
    /// Wave index (position in the [`WavePlan`]).
    pub wave: usize,
    /// Wave arrival time in ms from t = 0.
    pub arrival_ms: f64,
    /// Cloudlets scheduled in this wave.
    pub scheduled: usize,
    /// Queue depth at the replan instant: this wave's arrivals plus every
    /// earlier cloudlet whose *estimated* finish (broker-side ETC model,
    /// contention-blind) is still in the future. Deterministic and
    /// identical in both record modes and on both engines.
    pub backlog: usize,
    /// Wall-clock scheduling latency for this wave in ms: wave-problem
    /// construction + cache build/retarget + the scheduler call.
    pub sched_ms: f64,
}

/// Result of a streaming-broker run.
#[derive(Debug)]
pub struct StreamOutcome {
    /// The merged cloudlet→VM plan across all waves.
    pub assignment: Assignment,
    /// Per-cloudlet arrival times used for the simulation.
    pub arrivals: Vec<f64>,
    /// The simulated outcome (wait/throughput metrics live here).
    pub outcome: SimulationOutcome,
    /// One entry per wave, in arrival order.
    pub waves: Vec<WaveStat>,
}

impl StreamOutcome {
    /// Number of scheduler invocations (= non-empty waves).
    pub fn rounds(&self) -> usize {
        self.waves.iter().filter(|w| w.scheduled > 0).count()
    }

    /// Total wall-clock scheduling time across all waves, in ms.
    pub fn total_sched_ms(&self) -> f64 {
        self.waves.iter().map(|w| w.sched_ms).sum()
    }

    /// Mean scheduling latency per non-empty wave, in ms.
    pub fn mean_sched_ms(&self) -> Option<f64> {
        let n = self.rounds();
        (n > 0).then(|| self.total_sched_ms() / n as f64)
    }

    /// Worst single-wave scheduling latency, in ms.
    pub fn max_sched_ms(&self) -> Option<f64> {
        self.waves
            .iter()
            .map(|w| w.sched_ms)
            .fold(None, |m: Option<f64>, s| Some(m.map_or(s, |m| m.max(s))))
    }

    /// Deepest queue backlog observed at any replan instant.
    pub fn peak_backlog(&self) -> usize {
        self.waves.iter().map(|w| w.backlog).max().unwrap_or(0)
    }
}

/// Runs the streaming broker with `cfg.kind`'s registry construction.
pub fn run_stream(
    scenario: &Scenario,
    plan: &WavePlan,
    cfg: &StreamConfig,
) -> Result<StreamOutcome, SimError> {
    let kind = cfg.kind;
    run_stream_with(scenario, plan, cfg, &mut |seed| kind.build(seed))
}

/// [`run_stream`] with a caller-supplied scheduler factory — the hook for
/// non-default parameters (e.g. `AcoParams::for_scale` at the 100k-VM
/// tier). `build` is called once in warm mode and once per non-empty wave
/// in cold mode, always with `cfg.seed`.
pub fn run_stream_with(
    scenario: &Scenario,
    plan: &WavePlan,
    cfg: &StreamConfig,
    build: &mut dyn FnMut(u64) -> Box<dyn Scheduler>,
) -> Result<StreamOutcome, SimError> {
    plan.validate(scenario.cloudlet_count())
        .map_err(|what| SimError::InvalidSpec { what })?;
    let full = scenario.problem();
    let vm_count = full.vm_count();
    let mut merged: Vec<Option<VmId>> = vec![None; scenario.cloudlet_count()];
    let mut arrivals = vec![0.0f64; scenario.cloudlet_count()];
    let mut wave_stats = Vec::with_capacity(plan.waves.len());

    // Broker-side queue model: per-VM virtual completion clocks plus a
    // min-heap of estimated cloudlet finish times (non-negative f64 bits
    // compare like the floats themselves). Powers WaveStat::backlog.
    let mut vm_clock = vec![0.0f64; vm_count];
    let mut est_finish: BinaryHeap<Reverse<u64>> = BinaryHeap::new();

    // Warm-mode persistent state.
    let mut resident: Option<Box<dyn Scheduler>> = None;
    let mut resident_cache: Option<EvalCache> = None;
    let mut warm = WarmState::new();

    // Resident wave problem: the fleet half (VMs, datacenters, placement)
    // is cloned from the scenario once, then each wave swaps only the
    // cloudlet side. A long-running broker keeps its fleet description
    // resident — re-cloning 10⁵ `VmSpec`s per wave would tax both replan
    // modes with an O(#VMs) cost that has nothing to do with scheduling.
    let mut wave_problem: Option<SchedulingProblem> = None;

    for (w, (wave, &wave_time)) in plan.waves.iter().zip(&plan.wave_times).enumerate() {
        while est_finish
            .peek()
            .is_some_and(|Reverse(bits)| f64::from_bits(*bits) <= wave_time)
        {
            est_finish.pop();
        }
        let backlog = est_finish.len() + wave.len();
        if wave.is_empty() {
            wave_stats.push(WaveStat {
                wave: w,
                arrival_ms: wave_time,
                scheduled: 0,
                backlog,
                sched_ms: 0.0,
            });
            continue;
        }

        let clock = Instant::now();
        let wave_cloudlets = wave.iter().map(|&c| full.cloudlets[c].clone()).collect();
        let wp: &SchedulingProblem = match wave_problem.as_mut() {
            Some(p) => {
                p.cloudlets = wave_cloudlets;
                p
            }
            None => wave_problem.insert(
                SchedulingProblem::new(
                    full.vms.clone(),
                    wave_cloudlets,
                    full.datacenters.clone(),
                    full.vm_placement.clone(),
                )
                .expect("wave problems inherit scenario consistency"),
            ),
        };
        let cold_cache;
        let (wave_assignment, cache): (Assignment, &EvalCache) = match cfg.mode {
            ReplanMode::Warm => {
                let sched = resident.get_or_insert_with(|| build(cfg.seed));
                match resident_cache.as_mut() {
                    Some(cache) => cache.retarget_cloudlets(wp),
                    None => resident_cache = Some(EvalCache::new(wp)),
                }
                let cache = resident_cache.as_ref().expect("cache filled above");
                let a = sched.schedule_warm(wp, cache, &mut warm);
                (a, cache)
            }
            ReplanMode::Cold => {
                cold_cache = EvalCache::new(wp);
                let a = build(cfg.seed).schedule_with_cache(wp, &cold_cache);
                (a, &cold_cache)
            }
        };
        let sched_ms = clock.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            wave_assignment.len(),
            wave.len(),
            "wave {w}: scheduler returned a partial plan"
        );

        for (slot, &cloudlet) in wave.iter().enumerate() {
            let vm = wave_assignment.vm_for(slot);
            merged[cloudlet] = Some(vm);
            arrivals[cloudlet] = wave_time;
            let v = vm.index();
            let start_est = vm_clock[v].max(wave_time);
            let finish_est = start_est + cache.exec_ms(slot, v);
            vm_clock[v] = finish_est;
            est_finish.push(Reverse(finish_est.to_bits()));
        }
        wave_stats.push(WaveStat {
            wave: w,
            arrival_ms: wave_time,
            scheduled: wave.len(),
            backlog,
            sched_ms,
        });
    }

    let assignment = Assignment::new(
        merged
            .into_iter()
            .map(|m| m.expect("plan.validate guarantees full coverage"))
            .collect(),
    );
    let mut staged = scenario.clone();
    staged.arrivals = Some(arrivals.clone());
    let outcome = staged.simulate_mode(assignment.clone(), cfg.engine, cfg.record)?;
    Ok(StreamOutcome {
        assignment,
        arrivals,
        outcome,
        waves: wave_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heterogeneous::HeterogeneousScenario;
    use crate::online::run_online;
    use biosched_core::prelude::*;

    fn scenario() -> Scenario {
        HeterogeneousScenario {
            vm_count: 10,
            cloudlet_count: 60,
            datacenter_count: 2,
            seed: 4,
        }
        .build()
    }

    #[test]
    fn warm_stream_schedules_and_finishes_everything() {
        let s = scenario();
        let plan = WavePlan::uniform(60, 4, 2_000.0);
        let r = run_stream(&s, &plan, &StreamConfig::warm(AlgorithmKind::AntColony, 7)).unwrap();
        assert_eq!(r.rounds(), 4);
        assert_eq!(r.outcome.finished_count(), 60);
        assert!(r.assignment.validate(&s.problem()).is_ok());
        assert_eq!(r.waves.len(), 4);
        assert!(r.total_sched_ms() > 0.0);
        assert!(r.mean_sched_ms().unwrap() <= r.max_sched_ms().unwrap());
        // Cloudlets never start before their wave arrives.
        for (c, arrival) in r.arrivals.iter().enumerate() {
            let start = r.outcome.records[c].start.unwrap().as_millis();
            assert!(start + 1e-9 >= *arrival);
        }
    }

    #[test]
    fn warm_baseline_matches_run_online() {
        // For kinds whose cross-wave state already lives in the instance
        // (round-robin's cursor), the warm stream is the same broker as
        // run_online: byte-identical merged plans.
        let s = scenario();
        let plan = WavePlan::uniform(60, 3, 1_000.0);
        let stream =
            run_stream(&s, &plan, &StreamConfig::warm(AlgorithmKind::BaseTest, 0)).unwrap();
        let mut rr = RoundRobin::new();
        let online = run_online(&s, &mut rr, &plan).unwrap();
        assert_eq!(stream.assignment, online.assignment);
        assert_eq!(stream.arrivals, online.arrivals);
    }

    #[test]
    fn each_mode_is_deterministic_per_seed() {
        let s = scenario();
        let plan = WavePlan::poisson(60, 12, 500.0, 3);
        for kind in [
            AlgorithmKind::AntColony,
            AlgorithmKind::Ga,
            AlgorithmKind::Pso,
            AlgorithmKind::CuckooSos,
            AlgorithmKind::Gsa,
            AlgorithmKind::Racing(biosched_core::objective::Objective::Makespan),
            AlgorithmKind::LeastConnection,
            AlgorithmKind::WeightedRoundRobin,
            AlgorithmKind::Sjf,
            AlgorithmKind::BestFit,
        ] {
            for cfg in [StreamConfig::warm(kind, 42), StreamConfig::cold(kind, 42)] {
                let a = run_stream(&s, &plan, &cfg).unwrap();
                let b = run_stream(&s, &plan, &cfg).unwrap();
                assert_eq!(
                    a.assignment,
                    b.assignment,
                    "{kind} {} mode must be deterministic",
                    cfg.mode.label()
                );
            }
        }
    }

    #[test]
    fn backlog_accumulates_when_waves_arrive_at_once() {
        // Every wave at t=0: nothing can have finished, so backlog is the
        // running total of arrivals.
        let s = scenario();
        let plan = WavePlan::uniform(60, 3, 0.0);
        let r = run_stream(&s, &plan, &StreamConfig::warm(AlgorithmKind::BaseTest, 0)).unwrap();
        let sizes: Vec<usize> = plan.waves.iter().map(Vec::len).collect();
        assert_eq!(r.waves[0].backlog, sizes[0]);
        assert_eq!(r.waves[1].backlog, sizes[0] + sizes[1]);
        assert_eq!(r.waves[2].backlog, sizes[0] + sizes[1] + sizes[2]);
        assert_eq!(r.peak_backlog(), 60);
    }

    #[test]
    fn backlog_drains_between_sparse_waves() {
        // Waves spaced far beyond the work's estimated span: each replan
        // sees only its own arrivals.
        let s = scenario();
        let plan = WavePlan::uniform(60, 3, 1e9);
        let r = run_stream(&s, &plan, &StreamConfig::warm(AlgorithmKind::BaseTest, 0)).unwrap();
        for (stat, wave) in r.waves.iter().zip(&plan.waves) {
            assert_eq!(stat.backlog, wave.len());
        }
    }

    #[test]
    fn engines_and_record_modes_agree_on_stream_metrics() {
        let s = scenario();
        let plan = WavePlan::poisson(60, 10, 800.0, 9);
        let base = StreamConfig::warm(AlgorithmKind::AntColony, 11);
        let seq = run_stream(&s, &plan, &base).unwrap();
        let sharded = run_stream(&s, &plan, &base.on_engine(EngineKind::Sharded)).unwrap();
        let agg = run_stream(&s, &plan, &base.with_record(RecordMode::Aggregate)).unwrap();
        assert_eq!(seq.assignment, sharded.assignment);
        assert_eq!(seq.assignment, agg.assignment);
        for other in [&sharded, &agg] {
            assert_eq!(
                seq.outcome.simulation_time_ms().map(f64::to_bits),
                other.outcome.simulation_time_ms().map(f64::to_bits)
            );
            assert_eq!(
                seq.outcome.wait_p50_ms().map(f64::to_bits),
                other.outcome.wait_p50_ms().map(f64::to_bits)
            );
            assert_eq!(
                seq.outcome.wait_p99_ms().map(f64::to_bits),
                other.outcome.wait_p99_ms().map(f64::to_bits)
            );
            assert_eq!(
                seq.outcome.throughput_per_s().map(f64::to_bits),
                other.outcome.throughput_per_s().map(f64::to_bits)
            );
        }
        assert!(seq.outcome.wait_p99_ms().unwrap() >= seq.outcome.wait_p50_ms().unwrap());
        assert!(seq.outcome.throughput_per_s().unwrap() > 0.0);
    }

    #[test]
    fn stream_composes_with_faults_and_recovery() {
        use simcloud::broker::RecoveryPolicy;
        use simcloud::faults::FaultSpec;

        let mut s = scenario();
        crate::resilience::inject_faults(
            &mut s,
            &FaultSpec {
                host_fail_fraction: 0.6,
                repair_after_ms: Some((2_000.0, 4_000.0)),
                ..FaultSpec::default()
            },
            13,
            RecoveryPolicy {
                max_attempts: 6,
                base_backoff_ms: 500.0,
                backoff_factor: 2.0,
                max_backoff_ms: 4_000.0,
            },
        );
        let plan = WavePlan::uniform(60, 3, 1_000.0);
        let cfg = StreamConfig::warm(AlgorithmKind::LeastConnection, 5);
        let seq = run_stream(&s, &plan, &cfg).unwrap();
        let sharded = run_stream(&s, &plan, &cfg.on_engine(EngineKind::Sharded)).unwrap();
        assert_eq!(
            seq.outcome.finished_count() + seq.outcome.resilience.abandoned as usize,
            60,
            "every cloudlet either finishes or exhausts its retry budget"
        );
        assert_eq!(
            seq.outcome.finished_count(),
            sharded.outcome.finished_count()
        );
        assert_eq!(
            seq.outcome.resilience.retries,
            sharded.outcome.resilience.retries
        );
    }

    mod properties {
        use super::*;
        use biosched_core::eval::EvalCache;
        use biosched_core::warm::WarmState;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Warm-state extension on fleet-unchanged waves: driving any
            /// metaheuristic wave by wave through a retargeted cache keeps
            /// plans valid, records the incumbent, grows ACO's pheromone
            /// matrix, and replays byte-identically from a fresh start.
            #[test]
            fn warm_state_extends_across_fleet_unchanged_waves(
                seed in 0u64..300,
                wave_count in 1usize..5,
                cloudlets in 8usize..28,
            ) {
                let s = HeterogeneousScenario {
                    vm_count: 6,
                    cloudlet_count: cloudlets,
                    datacenter_count: 1,
                    seed,
                }
                .build();
                let plan = WavePlan::uniform(cloudlets, wave_count, 50.0);
                let full = s.problem();
                for kind in [
                    AlgorithmKind::AntColony,
                    AlgorithmKind::Ga,
                    AlgorithmKind::Pso,
                    AlgorithmKind::CuckooSos,
                    AlgorithmKind::Gsa,
                ] {
                    let run = |plans: &mut Vec<Vec<u32>>| -> Result<(), TestCaseError> {
                        let mut sched = kind.build(seed);
                        let mut warm = WarmState::new();
                        let mut cache: Option<EvalCache> = None;
                        prop_assert!(warm.is_cold());
                        for wave in plan.waves.iter().filter(|w| !w.is_empty()) {
                            let wp = SchedulingProblem::new(
                                full.vms.clone(),
                                wave.iter().map(|&c| full.cloudlets[c].clone()).collect(),
                                full.datacenters.clone(),
                                full.vm_placement.clone(),
                            )
                            .expect("consistent wave problem");
                            match cache.as_mut() {
                                Some(c) => c.retarget_cloudlets(&wp),
                                None => cache = Some(EvalCache::new(&wp)),
                            }
                            let a = sched.schedule_warm(
                                &wp,
                                cache.as_ref().expect("filled"),
                                &mut warm,
                            );
                            prop_assert!(a.validate(&wp).is_ok());
                            let raw: Vec<u32> =
                                a.as_slice().iter().map(|vm| vm.0).collect();
                            prop_assert_eq!(warm.incumbent.as_deref(), Some(raw.as_slice()));
                            plans.push(raw);
                        }
                        if kind == AlgorithmKind::AntColony {
                            prop_assert!(
                                warm.pheromone.is_some(),
                                "ACO must capture its pheromone matrix"
                            );
                        }
                        Ok(())
                    };
                    let (mut first, mut second) = (Vec::new(), Vec::new());
                    run(&mut first)?;
                    run(&mut second)?;
                    prop_assert_eq!(&first, &second, "{} warm replay diverged", kind);
                }
            }
        }
    }
}
