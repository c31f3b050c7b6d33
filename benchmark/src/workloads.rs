//! The four workloads and the per-pass context that times and checks them.
//!
//! Each workload generates its inputs from the seed in [`Bench::setup`]
//! and repeats one deterministic unit of work in [`Bench::rep`]. Every
//! call into a layer goes through [`Ctx`], which spans it when tracing,
//! checks its output and folds the output into a digest: a rep must
//! reproduce the first rep's digest exactly, at any thread count and with
//! tracing on.

use std::collections::BTreeMap;
use std::time::Instant;

use biosched_core::aco::{AcoParams, AntColony};
use biosched_core::assignment::Assignment;
use biosched_core::eval::EvalCache;
use biosched_core::objective::Objective;
use biosched_core::problem::SchedulingProblem;
use biosched_core::scheduler::{AlgorithmKind, Scheduler};
use biosched_metrics::report::Table;
use biosched_workload::heterogeneous::HeterogeneousScenario;
use biosched_workload::online::WavePlan;
use biosched_workload::resilience::{inject_faults, CacheRescheduler};
use biosched_workload::scenario::Scenario;
use biosched_workload::stream::{run_stream_with, StreamConfig};
use biosched_workload::workflow::{self, Workflow};
use simcloud::prelude::*;

use crate::trace::{percentile, Span, TimedRescheduler, TimedScheduler, Tracer};

/// The repository's benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig6Hetero,
    ScaleBatch,
    DagChaos,
    StreamWarm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig6Hetero,
        Workload::ScaleBatch,
        Workload::DagChaos,
        Workload::StreamWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Hetero => "fig6-hetero",
            Workload::ScaleBatch => "scale-batch",
            Workload::DagChaos => "dag-chaos",
            Workload::StreamWarm => "stream-warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one rep measured and produced.
#[derive(Debug, Default)]
pub struct RepMeasure {
    /// Cloudlets through every scheduling and replay call.
    pub cloudlets: u64,
    /// Operations attempted: plans, replays, stream waves.
    pub ops: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// Deterministic fingerprint of every plan and outcome.
    pub digest: Vec<u64>,
    /// Per-layer values the workload measures itself (counts, simulated
    /// times, broker-reported latencies), summed per name.
    pub layer: BTreeMap<&'static str, f64>,
}

impl RepMeasure {
    fn add_layer(&mut self, name: &'static str, value: f64) {
        *self.layer.entry(name).or_insert(0.0) += value;
    }
}

/// Per-pass state shared by the runner and the workloads.
pub struct Ctx {
    pub tracer: Tracer,
    pub seed: u64,
    pub m: RepMeasure,
}

const ENGINES: [EngineKind; 2] = [EngineKind::Sequential, EngineKind::Sharded];

fn engine_label(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Sequential => "sequential",
        EngineKind::Sharded => "sharded",
    }
}

/// FNV-1a over a sequence of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn plan_hash(plan: &Assignment) -> u64 {
    fnv(plan.as_slice().iter().map(|vm| u64::from(vm.0)))
}

/// Aggregates the engines must agree on to the bit.
fn fingerprint(o: &SimulationOutcome) -> [u64; 8] {
    let bits = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
    [
        o.finished_count() as u64,
        o.events_processed,
        o.resilience.retries,
        o.resilience.abandoned,
        bits(o.simulation_time_ms()),
        bits(o.goodput()),
        o.end_time.as_millis().to_bits(),
        o.total_cost().to_bits(),
    ]
}

/// Scheduler family label used in span and metric names.
fn family(kind: AlgorithmKind) -> &'static str {
    match kind {
        AlgorithmKind::BaseTest => "base",
        AlgorithmKind::AntColony => "aco",
        AlgorithmKind::HoneyBee => "hbo",
        AlgorithmKind::Rbs => "rbs",
        AlgorithmKind::Racing(_) => "racing",
        AlgorithmKind::LeastConnection => "lc",
        other => unreachable!("{other} is in no workload"),
    }
}

/// `inner`, inside `sched.<family>` spans when tracing.
fn timed_scheduler(tracer: &Tracer, inner: Box<dyn Scheduler>, family: &str) -> Box<dyn Scheduler> {
    if tracer.is_on() {
        Box::new(TimedScheduler::new(inner, family, tracer.clone()))
    } else {
        inner
    }
}

impl Ctx {
    pub fn new(tracer: Tracer, seed: u64) -> Self {
        Ctx {
            tracer,
            seed,
            m: RepMeasure::default(),
        }
    }

    fn fail(&mut self, what: String) {
        self.m.failures.push(what);
    }

    fn scheduler(&self, kind: AlgorithmKind) -> Box<dyn Scheduler> {
        timed_scheduler(&self.tracer, kind.build(self.seed), family(kind))
    }

    /// Plans `point` with `sched`; the plan must pass `validate`.
    fn plan(&mut self, sched: &mut dyn Scheduler, point: &Point) -> Assignment {
        let plan = sched.schedule_with_cache(&point.problem, &point.cache);
        self.m.ops += 1;
        self.m.cloudlets += point.problem.cloudlet_count() as u64;
        let valid = self.tracer.span("check", || plan.validate(&point.problem));
        if let Err(e) = valid {
            self.fail(format!("{} produced an invalid plan: {e}", sched.name()));
        }
        self.m.digest.push(plan_hash(&plan));
        plan
    }

    /// Runs one replay on `engine`; `submitted` cloudlets must all finish
    /// or be abandoned.
    fn sim(
        &mut self,
        sub: &str,
        engine: EngineKind,
        submitted: usize,
        run: impl FnOnce() -> Result<SimulationOutcome, SimError>,
    ) -> Option<SimulationOutcome> {
        let name = format!("sim.{sub}.{}", engine_label(engine));
        let out = self.tracer.span(&name, run);
        self.m.ops += 1;
        self.m.cloudlets += submitted as u64;
        match out {
            Err(e) => {
                self.fail(format!("{name} failed: {e}"));
                None
            }
            Ok(o) => {
                let done = o.finished_count() + o.resilience.abandoned as usize;
                if done != submitted {
                    self.fail(format!(
                        "{name}: finished + abandoned = {done}, submitted {submitted}"
                    ));
                }
                Some(o)
            }
        }
    }

    /// The outcomes of one sub-run on every engine must agree to the bit;
    /// the first (sequential) one is folded into the digest and the
    /// per-layer simulated makespan and event count.
    fn agree(&mut self, sub: &str, outcomes: &[Option<SimulationOutcome>]) {
        let prints: Vec<Option<[u64; 8]>> = outcomes
            .iter()
            .map(|o| o.as_ref().map(fingerprint))
            .collect();
        let Some(Some(first)) = prints.first() else {
            return;
        };
        if prints.iter().any(|p| p.as_ref() != Some(first)) {
            self.fail(format!("{sub}: engines disagree: {prints:?}"));
        }
        self.m.digest.extend(first);
        let seq = outcomes[0].as_ref().expect("fingerprinted above");
        self.m.add_layer(
            "sim.makespan_s",
            seq.simulation_time_ms().unwrap_or(0.0) / 1e3,
        );
        self.m.add_layer("sim.events", seq.events_processed as f64);
    }

    /// Replays through `run` on both engines and checks they agree.
    fn replay(
        &mut self,
        sub: &str,
        submitted: usize,
        mut run: impl FnMut(EngineKind) -> Result<SimulationOutcome, SimError>,
    ) -> Option<SimulationOutcome> {
        let outcomes: Vec<_> = ENGINES
            .into_iter()
            .map(|e| self.sim(sub, e, submitted, || run(e)))
            .collect();
        self.agree(sub, &outcomes);
        outcomes.into_iter().next().flatten()
    }
}

/// A scenario with its scheduler-facing problem and evaluation cache.
pub struct Point {
    scenario: Scenario,
    problem: SchedulingProblem,
    cache: EvalCache,
}

impl Point {
    fn build(tracer: &Tracer, gen: impl FnOnce() -> Scenario) -> Point {
        let scenario = tracer.span("workload.gen", gen);
        let problem = tracer.span("problem.build", || scenario.problem());
        let cache = tracer.span("eval.cache_build", || EvalCache::new(&problem));
        Point {
            scenario,
            problem,
            cache,
        }
    }

    fn dense_etc_entries(&self) -> u64 {
        if self.cache.has_dense_etc() {
            (self.cache.cloudlet_count() * self.cache.vm_count()) as u64
        } else {
            0
        }
    }

    fn cloudlets(&self) -> usize {
        self.problem.cloudlet_count()
    }
}

fn heterogeneous(vms: usize, cloudlets: usize, seed: u64) -> Scenario {
    HeterogeneousScenario {
        vm_count: vms,
        cloudlet_count: cloudlets,
        datacenter_count: 4,
        seed,
    }
    .build()
}

/// One workload: inputs generated from a seed, and a repeatable unit of
/// deterministic work over them.
pub trait Bench: Sized {
    fn setup(seed: u64, smoke: bool, tracer: &Tracer) -> Self;
    fn rep(&self, ctx: &mut Ctx);
    /// Dense ETC entries the set-up materialised.
    fn dense_etc_entries(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// fig6-hetero
// ---------------------------------------------------------------------------

/// The paper's Fig. 6 comparison (Tables V–VII, four datacenters,
/// time-shared VMs): every paper algorithm plus the racer plans each
/// point, and each plan is replayed on both engines. Scheduling is nearly
/// all of the work.
pub struct Fig6 {
    points: Vec<Point>,
}

const FIG6_ALGORITHMS: [AlgorithmKind; 5] = [
    AlgorithmKind::BaseTest,
    AlgorithmKind::AntColony,
    AlgorithmKind::HoneyBee,
    AlgorithmKind::Rbs,
    AlgorithmKind::Racing(Objective::Makespan),
];

impl Bench for Fig6 {
    fn setup(seed: u64, smoke: bool, tracer: &Tracer) -> Self {
        // Ten fleet sizes, like the paper's 50..950 sweep. The racer's cost
        // depends on which family wins a point, so each point draws an
        // instance of its own: the sum over ten independent races keeps
        // the rep's cost from swinging with the seed.
        let (cloudlets, vm_step) = if smoke { (100, 2) } else { (500, 10) };
        let points = (1..=10)
            .map(|k| {
                let point_seed = seed.wrapping_mul(16).wrapping_add(k as u64);
                Point::build(tracer, || heterogeneous(k * vm_step, cloudlets, point_seed))
            })
            .collect();
        Fig6 { points }
    }

    fn rep(&self, ctx: &mut Ctx) {
        let mut table = Table::new(vec!["VMs", "algorithm", "makespan (ms)", "cost", "events"]);
        let (mut race_units, mut winner_units) = (0u64, 0u64);
        for point in &self.points {
            for kind in FIG6_ALGORITHMS {
                let mut sched = ctx.scheduler(kind);
                let plan = ctx.plan(&mut *sched, point);
                if let Some(meta) = sched.last_meta() {
                    race_units += meta.total_units;
                    winner_units += meta
                        .spent
                        .iter()
                        .find(|(name, _)| *name == meta.winner)
                        .map_or(0, |(_, units)| *units);
                }
                let outcome = ctx.replay("fig6", point.cloudlets(), |engine| {
                    point
                        .scenario
                        .simulate_mode(plan.clone(), engine, RecordMode::Aggregate)
                });
                if let Some(o) = outcome {
                    table.push_row(vec![
                        point.problem.vm_count().to_string(),
                        kind.label().to_string(),
                        format!("{:?}", o.simulation_time_ms().unwrap_or(0.0)),
                        format!("{:?}", o.total_cost()),
                        o.events_processed.to_string(),
                    ]);
                }
            }
        }
        let (text, csv) = ctx
            .tracer
            .span("report.render", || (table.render(), table.to_csv()));
        ctx.m.digest.push(fnv(csv.bytes().map(u64::from)));
        if text.lines().count() != table.rows.len() + 2 {
            ctx.fail("fig6 report lost rows".into());
        }
        ctx.m.add_layer("racing.units", race_units as f64);
        if race_units > 0 {
            ctx.m.add_layer(
                "racing.winner_units_frac",
                winner_units as f64 / race_units as f64,
            );
        }
    }

    fn dense_etc_entries(&self) -> u64 {
        self.points.iter().map(Point::dense_etc_entries).sum()
    }
}

// ---------------------------------------------------------------------------
// scale-batch
// ---------------------------------------------------------------------------

/// A large batch at the paper's 1:10 VM:cloudlet ratio, planned by the
/// least-connection balancer and replayed on both engines. The simulator
/// does almost all of the work; the scheduler is nearly idle.
pub struct ScaleBatch {
    point: Point,
}

impl Bench for ScaleBatch {
    fn setup(seed: u64, smoke: bool, tracer: &Tracer) -> Self {
        let (vms, cloudlets) = if smoke {
            (200, 2_000)
        } else {
            (20_000, 200_000)
        };
        ScaleBatch {
            point: Point::build(tracer, || heterogeneous(vms, cloudlets, seed)),
        }
    }

    fn rep(&self, ctx: &mut Ctx) {
        let point = &self.point;
        let mut sched = ctx.scheduler(AlgorithmKind::LeastConnection);
        let plan = ctx.plan(&mut *sched, point);
        ctx.replay("batch", point.cloudlets(), |engine| {
            point
                .scenario
                .simulate_mode(plan.clone(), engine, RecordMode::Aggregate)
        });
    }

    fn dense_etc_entries(&self) -> u64 {
        self.point.dense_etc_entries()
    }
}

// ---------------------------------------------------------------------------
// dag-chaos
// ---------------------------------------------------------------------------

/// A workflow DAG pinned to VMs by a fixed rule.
struct Dag {
    workflow: Workflow,
    assignment: Vec<VmId>,
    vms: usize,
}

impl Dag {
    /// Pins task `t` to VM `slot(t) mod vms`.
    fn pinned(workflow: Workflow, vms: usize, slot: fn(usize) -> usize) -> Dag {
        let assignment = (0..workflow.len())
            .map(|t| VmId::from_index(slot(t) % vms))
            .collect();
        Dag {
            workflow,
            assignment,
            vms,
        }
    }

    fn run(&self, engine: EngineKind) -> Result<SimulationOutcome, SimError> {
        let vm = VmSpec::new(1_000.0, 10_000.0, 512.0, 1_000.0, 2);
        SimulationBuilder::new()
            .engine(engine)
            .record_mode(RecordMode::Aggregate)
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                self.vms,
                2,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm; self.vms])
            .cloudlets(self.workflow.specs.clone())
            .assignment(self.assignment.clone())
            .dependencies(self.workflow.parents.clone())
            .run()
    }
}

/// The simulator driven through its epoch drivers: (a) a layered DAG
/// spread one task per VM, so every release crosses shards; (b) a
/// pipeline ensemble colocated ten stages per VM, so every release is
/// local; (c) a faulted batch with retries replanned by the same
/// least-connection scheduler that made the initial plan.
pub struct DagChaos {
    layered: Dag,
    ensemble: Dag,
    chaos: Point,
}

impl Bench for DagChaos {
    fn setup(seed: u64, smoke: bool, tracer: &Tracer) -> Self {
        let (width, jobs, dag_vms, chaos_vms) = if smoke {
            (40, 40, 40, 60)
        } else {
            (4_000, 4_000, 4_000, 6_000)
        };
        let (layered, ensemble) = tracer.span("workload.gen", || {
            (
                Dag::pinned(
                    workflow::layered_sparse(10, width, 3, (500.0, 2_000.0), seed),
                    dag_vms,
                    |task| task,
                ),
                Dag::pinned(
                    workflow::pipeline_ensemble(jobs, 10, 1_000.0, seed),
                    dag_vms,
                    |task| task / 10,
                ),
            )
        });
        let chaos = Point::build(tracer, || {
            let mut s = heterogeneous(chaos_vms, 10 * chaos_vms, seed);
            inject_faults(
                &mut s,
                &FaultSpec::default(),
                seed,
                RecoveryPolicy::default(),
            );
            s
        });
        DagChaos {
            layered,
            ensemble,
            chaos,
        }
    }

    fn rep(&self, ctx: &mut Ctx) {
        for (sub, dag) in [
            ("dag_layered", &self.layered),
            ("dag_ensemble", &self.ensemble),
        ] {
            ctx.replay(sub, dag.workflow.len(), |engine| dag.run(engine));
        }

        // Each engine gets its own plan-then-replay run, so the retry
        // replanner starts from the state the initial plan left behind.
        let point = &self.chaos;
        let mut outcomes = Vec::new();
        for engine in ENGINES {
            let mut sched = ctx.scheduler(AlgorithmKind::LeastConnection);
            let plan = ctx.plan(&mut *sched, point);
            let replanner: Box<dyn Rescheduler> =
                Box::new(CacheRescheduler::new(sched, point.problem.clone()));
            let replanner = if ctx.tracer.is_on() {
                Box::new(TimedRescheduler::new(replanner, ctx.tracer.clone()))
            } else {
                replanner
            };
            outcomes.push(ctx.sim("chaos", engine, point.cloudlets(), || {
                point
                    .scenario
                    .simulate_resilient(plan, engine, RecordMode::Aggregate, replanner)
            }));
        }
        ctx.agree("chaos", &outcomes);
        if let Some(o) = &outcomes[0] {
            ctx.m
                .add_layer("chaos.retries", o.resilience.retries as f64);
            ctx.m
                .add_layer("chaos.abandoned", o.resilience.abandoned as f64);
            ctx.m.add_layer("chaos.goodput", o.goodput().unwrap_or(1.0));
        }
    }

    fn dense_etc_entries(&self) -> u64 {
        self.chaos.dense_etc_entries()
    }
}

// ---------------------------------------------------------------------------
// stream-warm
// ---------------------------------------------------------------------------

/// Poisson arrival waves over a space-shared heterogeneous fleet, replanned
/// by warm ACO (scale profile) through the streaming broker on the sharded
/// engine. Host side it is a closed loop (the next wave is planned when
/// the previous replan returns); in simulated time it is an open loop.
pub struct StreamWarm {
    scenario: Scenario,
    problem: SchedulingProblem,
    plan: WavePlan,
}

impl Bench for StreamWarm {
    fn setup(seed: u64, smoke: bool, tracer: &Tracer) -> Self {
        // Over 1 000 waves either way, so the replan p99 keeps ≥ 10 samples
        // beyond its rank. Smoke waves still hold several cloudlets, so warm
        // and cold ACO plan them differently and the traced-equals-untraced
        // check catches a wrapper that drops the warm state.
        let (vms, cloudlets, mean_wave) = if smoke {
            (100, 4_000, 3)
        } else {
            (2_000, 30_000, 20)
        };
        let (scenario, plan) = tracer.span("workload.gen", || {
            let mut s = heterogeneous(vms, cloudlets, seed);
            s.vm_scheduler = SchedulerKind::SpaceShared;
            (s, WavePlan::poisson(cloudlets, mean_wave, 2_000.0, seed))
        });
        let problem = tracer.span("problem.build", || scenario.problem());
        StreamWarm {
            scenario,
            problem,
            plan,
        }
    }

    fn rep(&self, ctx: &mut Ctx) {
        let n = self.problem.cloudlet_count();
        let params = AcoParams::for_scale(n);
        let cfg = StreamConfig::warm(AlgorithmKind::AntColony, ctx.seed)
            .on_engine(EngineKind::Sharded)
            .with_record(RecordMode::Aggregate);
        let tracer = ctx.tracer.clone();
        let mark = tracer.mark();
        let t = Instant::now();
        let run = tracer.span("stream.run", || {
            run_stream_with(&self.scenario, &self.plan, &cfg, &mut |seed| {
                timed_scheduler(
                    &tracer,
                    Box::new(AntColony::new(params.clone(), seed)),
                    "aco",
                )
            })
        });
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let r = match run {
            Ok(r) => r,
            Err(e) => {
                ctx.m.ops += 1;
                ctx.fail(format!("stream run failed: {e}"));
                return;
            }
        };
        // The broker times each replan; what the run spends beyond that
        // is the merged plan's replay on the sharded engine.
        let replan_ms: Vec<f64> = r
            .waves
            .iter()
            .filter(|w| w.scheduled > 0)
            .map(|w| w.sched_ms)
            .collect();
        let tail_ms = wall_ms - r.total_sched_ms();
        ctx.m.ops += replan_ms.len() as u64 + 1;
        ctx.m.cloudlets += 2 * n as u64;
        ctx.m.add_layer("sim.sharded_ms", tail_ms);
        ctx.m.add_layer("stream.tail_ms", tail_ms);
        ctx.m.add_layer("stream.rounds", r.rounds() as f64);
        ctx.m
            .add_layer("stream.peak_backlog", r.peak_backlog() as f64);
        if let Some(wait) = r.outcome.wait_p99_ms() {
            ctx.m.add_layer("stream.wait_p99_s", wait / 1e3);
        }
        tail_percentiles(
            ctx,
            &replan_ms,
            "stream.replan_p50_ms",
            "stream.replan_p99_ms",
        );
        if tracer.is_on() {
            // Spans of the wrapped scheduler, one per non-empty wave, in
            // wave order: the broker's own share is the rest of the wave.
            let calls: Vec<f64> = tracer
                .since(mark)
                .iter()
                .filter(|s| s.name == "sched.aco")
                .map(Span::ms)
                .collect();
            let broker: Vec<f64> = replan_ms.iter().zip(&calls).map(|(w, c)| w - c).collect();
            if calls.len() != replan_ms.len() {
                ctx.fail(format!(
                    "{} scheduler spans for {} waves",
                    calls.len(),
                    replan_ms.len()
                ));
            }
            tail_percentiles(
                ctx,
                &calls,
                "stream.sched_call_p50_ms",
                "stream.sched_call_p99_ms",
            );
            tail_percentiles(ctx, &broker, "stream.broker_p50_ms", "stream.broker_p99_ms");
        }

        let valid = tracer.span("check", || r.assignment.validate(&self.problem));
        if let Err(e) = valid {
            ctx.fail(format!("merged stream plan is invalid: {e}"));
        }
        ctx.m.digest.push(plan_hash(&r.assignment));
        ctx.m
            .digest
            .push(fnv(r.waves.iter().map(|w| w.backlog as u64)));
        let seq = ctx.sim("stream", EngineKind::Sequential, n, || {
            let mut staged = self.scenario.clone();
            staged.arrivals = Some(r.arrivals.clone());
            staged.simulate_mode(
                r.assignment.clone(),
                EngineKind::Sequential,
                RecordMode::Aggregate,
            )
        });
        let done = r.outcome.finished_count() + r.outcome.resilience.abandoned as usize;
        if done != n {
            ctx.fail(format!(
                "stream: finished + abandoned = {done}, submitted {n}"
            ));
        }
        ctx.agree("stream", &[seq, Some(r.outcome)]);
    }
}

/// Records the p50 and p99 of `samples` under the two names given.
fn tail_percentiles(ctx: &mut Ctx, samples: &[f64], p50: &'static str, p99: &'static str) {
    for (name, q) in [(p50, 0.5), (p99, 0.99)] {
        match percentile(samples, q) {
            Ok(v) => ctx.m.add_layer(name, v),
            Err(e) => ctx.fail(format!("{name}: {e}")),
        }
    }
}
