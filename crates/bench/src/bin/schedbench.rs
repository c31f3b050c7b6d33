//! Scheduler throughput benchmark: emits `BENCH_schedulers.json`.
//!
//! Measures pure scheduling time (no simulation) for the paper algorithms
//! at 1k/10k/100k/1m-cloudlet scales (the paper's 10:1 cloudlet:VM ratio;
//! "1m" is the full 10⁶-cloudlet × 10⁵-VM headline point) across a set of
//! rayon thread counts. While timing, it also enforces the overhaul's
//! correctness and performance gates:
//!
//! * at 1k the full-row ACO ("AntColony", the paper profile) must be
//!   byte-identical to the frozen pre-overhaul
//!   [`biosched_core::aco::reference`] at every thread count;
//! * at 10k the candidate-list fast path ("AntColony(topk)", top-η k=32)
//!   must land within 1% of the full-row default's estimated makespan —
//!   on homogeneous fleets the quality cost of the k-candidate
//!   restriction stays in the noise (heterogeneous fleets pay more,
//!   which is why the paper profile keeps full rows; see EXPERIMENTS.md);
//! * at 1k the candidate-list ACO must not be slower at 4 threads than
//!   at 1 thread beyond a 1.5× margin — small problems stay on the
//!   serial path instead of paying fan-out overhead;
//! * every algorithm must produce byte-identical plans at every thread
//!   count (scheduling is seed-deterministic, threads only change speed);
//! * the incremental τ^α snapshot feeding the candidate-list path
//!   ([`PheromoneMatrix::prepare_pow_incremental`]) must track the exact
//!   sweep within float rounding on every deposited edge — and exactly on
//!   the shared base — across interleaved deposit/evaporate rounds
//!   (checked up front, before any timing run);
//! * with `--budget-ms B`, the scale-profile ACO at the largest requested
//!   scale must finish within B milliseconds.
//!
//! Large scales time a reduced roster (Base Test, ACO top-k/scale
//! profile/divide-and-conquer, GA and PSO scale profiles): the frozen
//! reference, the full-row ACO and the O(population·C·V) HBO path are
//! left at the scales they can finish in sensible wall-clock. Every point also records the
//! plan's estimated makespan so speed never silently trades away quality.
//!
//! Thread counts are switched in-process through
//! [`harness::with_threads`], so one run covers the whole matrix.

use std::collections::HashMap;
use std::time::Instant;

use biosched_bench::harness::{self, with_threads, Flag, Report, OUT, SEED};
use biosched_core::aco::{reference, AcoParams, AntColony, PheromoneMatrix};
use biosched_core::assignment::Assignment;
use biosched_core::dnc::{DivideAndConquer, ShardSpec};
use biosched_core::ga::{GaParams, Genetic};
use biosched_core::problem::SchedulingProblem;
use biosched_core::pso::{ParticleSwarm, PsoParams};
use biosched_core::scheduler::{AlgorithmKind, Scheduler};
use biosched_workload::homogeneous::HomogeneousScenario;

/// (label, divisor into the paper's 100k-VM / 1M-cloudlet point). "10k"
/// (1 000 VMs / 10 000 cloudlets) is the quality-gate point; "1m" is the
/// full paper-scale headline.
const SCALES: &[(&str, usize)] = &[("1k", 1_000), ("10k", 100), ("100k", 10), ("1m", 1)];

/// Cloudlet count from which the reduced large-scale roster runs.
const LARGE_SCALE_CLOUDLETS: usize = 50_000;

const FLAGS: &[Flag] = &[
    OUT,
    Flag::value("--threads", "N,N"),
    Flag::value("--scales", "1k,10k,100k,1m"),
    SEED,
    Flag::value("--reps", "N"),
    Flag::value("--budget-ms", "B"),
];

struct Point {
    algorithm: String,
    scale: String,
    vms: usize,
    cloudlets: usize,
    threads: usize,
    sched_ms: f64,
    est_makespan_ms: f64,
}

type Builder = Box<dyn Fn(u64) -> Box<dyn Scheduler>>;

/// Best-of-`reps` wall time of one scheduling run.
fn time_best<F: FnMut() -> f64>(reps: usize, mut run: F) -> f64 {
    (0..reps.max(1))
        .map(|_| run())
        .fold(f64::INFINITY, f64::min)
}

/// Gate on the incremental τ^α maintenance behind the candidate-list fast
/// path: drive an exact-sweep matrix and an incrementally-refreshed one
/// through identical deposit/evaporate rounds (the warm broker's steady
/// state) and require the incremental snapshot to match the shared base
/// power bit for bit and every deposited edge within float rounding.
/// Timing of the two refresh styles is reported, not asserted — the win
/// is one shared `powf` per call instead of one per touched edge, but a
/// micro-timing assert would be CI noise.
fn incremental_pow_gate() {
    const SLOTS: u64 = 256;
    const VMS: u64 = 4_096;
    const ROUNDS: usize = 24;
    let (alpha, rho) = (0.01, 0.4);
    let mut exact = PheromoneMatrix::new(1.0);
    let mut inc = PheromoneMatrix::new(1.0);
    let mut edges = std::collections::BTreeSet::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for round in 0..ROUNDS {
        for _ in 0..512 {
            let slot = ((next() >> 33) % SLOTS) as u32;
            let vm = ((next() >> 33) % VMS) as u32;
            let amount = 0.05 + (next() >> 11) as f64 / (1u64 << 53) as f64;
            exact.deposit(slot, vm, amount);
            inc.deposit(slot, vm, amount);
            edges.insert((slot, vm));
        }
        exact.evaporate(rho);
        inc.evaporate(rho);
        exact.prepare_pow(alpha);
        inc.prepare_pow_incremental(alpha);
        // A slot past every lane reads the shared base power.
        let base = SLOTS as u32;
        assert_eq!(
            exact.get_pow(base, 0).to_bits(),
            inc.get_pow(base, 0).to_bits(),
            "round {round}: incremental base power diverged from the exact sweep"
        );
        for &(slot, vm) in &edges {
            let (e, p) = (exact.get_pow(slot, vm), inc.get_pow(slot, vm));
            assert!(
                (p - e).abs() <= e * 1e-9,
                "round {round} edge ({slot},{vm}): incremental τ^α {p} vs exact {e}"
            );
        }
    }
    let reps = 50;
    let exact_ms = time_best(1, || {
        let t = Instant::now();
        for _ in 0..reps {
            exact.evaporate(rho);
            exact.prepare_pow(alpha);
        }
        t.elapsed().as_secs_f64() * 1_000.0
    });
    let inc_ms = time_best(1, || {
        let t = Instant::now();
        for _ in 0..reps {
            inc.evaporate(rho);
            inc.prepare_pow_incremental(alpha);
        }
        t.elapsed().as_secs_f64() * 1_000.0
    });
    eprintln!(
        "incremental τ^α gate: {} edges tracked exactly over {ROUNDS} rounds; \
         steady-state refresh ×{reps}: exact {exact_ms:.2} ms, incremental {inc_ms:.2} ms",
        exact.deposited_edges()
    );
}

/// The roster timed at one scale: display label + scheduler factory.
fn roster(cloudlets: usize) -> Vec<(String, Builder)> {
    let mut list: Vec<(String, Builder)> = Vec::new();
    let large = cloudlets >= LARGE_SCALE_CLOUDLETS;
    if !large {
        // The paper-default profile ("AntColony" proper): full weight
        // rows, linear roulette — the quality baseline the 1% gate
        // measures the candidate list against.
        list.push((
            "AntColony".into(),
            Box::new(|seed| Box::new(AntColony::new(AcoParams::paper(), seed))),
        ));
    }
    if cloudlets < 1_000_000 {
        // Candidate-list fast path at the paper's effort (50 ants × 8
        // iterations, top-η k=32). At the 1m point even that blows any
        // single-socket budget; the scale profile below is the headline
        // configuration there.
        list.push((
            "AntColony(topk)".into(),
            Box::new(|seed| {
                Box::new(AntColony::new(
                    AcoParams {
                        candidates: Some(AcoParams::DEFAULT_CANDIDATES),
                        ..AcoParams::paper()
                    },
                    seed,
                ))
            }),
        ));
    }
    if !large {
        for kind in [
            AlgorithmKind::BaseTest,
            AlgorithmKind::HoneyBee,
            AlgorithmKind::Rbs,
            AlgorithmKind::Ga,
            AlgorithmKind::Pso,
        ] {
            list.push((
                kind.label().to_string(),
                Box::new(move |seed| kind.build(seed)),
            ));
        }
    } else {
        let aco_scale = AcoParams::for_scale(cloudlets);
        let dnc_params = aco_scale.clone();
        list.push((
            "AntColony(scale)".into(),
            Box::new(move |seed| Box::new(AntColony::new(aco_scale.clone(), seed))),
        ));
        list.push((
            "AntColony(dnc4)".into(),
            Box::new(move |seed| {
                let params = dnc_params.clone();
                Box::new(
                    DivideAndConquer::new(
                        ShardSpec::Count(4),
                        seed,
                        Box::new(move |s| Box::new(AntColony::new(params.clone(), s))),
                    )
                    .expect("valid shard spec"),
                )
            }),
        ));
        list.push((
            "Base Test".into(),
            Box::new(|seed| AlgorithmKind::BaseTest.build(seed)),
        ));
        let ga = GaParams::for_scale(cloudlets);
        list.push((
            "GA(scale)".into(),
            Box::new(move |seed| Box::new(Genetic::new(ga.clone(), seed))),
        ));
        let pso = PsoParams::for_scale(cloudlets);
        list.push((
            "PSO(scale)".into(),
            Box::new(move |seed| Box::new(ParticleSwarm::new(pso.clone(), seed))),
        ));
    }
    list
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (out_path, thread_counts, scales, seed, reps, budget_ms) =
        harness::parse_or_exit("schedbench", FLAGS, &argv, |a| {
            Ok((
                a.get("--out", "BENCH_schedulers.json".to_string())?,
                a.list::<usize>("--threads", vec![1, 4])?,
                a.list(
                    "--scales",
                    SCALES.iter().map(|(l, _)| l.to_string()).collect(),
                )?,
                a.get("--seed", 42u64)?,
                a.get("--reps", 2usize)?,
                a.opt::<f64>("--budget-ms")?,
            ))
        });

    incremental_pow_gate();

    let mut points: Vec<Point> = Vec::new();
    let mut summary: Vec<(String, usize, f64)> = Vec::new();
    // First-seen plan per (algorithm, scale): all later thread counts
    // must reproduce it byte for byte.
    let mut plans: HashMap<(String, String), Assignment> = HashMap::new();
    // Candidate-list ACO wall time per (scale, threads) for the parity gate.
    let mut aco_times: HashMap<(String, usize), f64> = HashMap::new();
    let largest_scale = SCALES
        .iter()
        .rfind(|(l, _)| scales.iter().any(|s| s == l))
        .map(|&(l, d)| (l.to_string(), d));

    for (label, divisor) in SCALES {
        if !scales.iter().any(|s| s == label) {
            continue;
        }
        let shape = HomogeneousScenario::scaled(100_000, *divisor);
        let problem: SchedulingProblem = shape.build().problem();
        let large = shape.cloudlet_count >= LARGE_SCALE_CLOUDLETS;
        // The 1m point runs each configuration once: best-of-N on a
        // 10⁶-cloudlet deterministic run buys nothing but wall-clock.
        let scale_reps = if shape.cloudlet_count >= 1_000_000 {
            1
        } else {
            reps
        };
        eprintln!(
            "scale {label}: {} vms / {} cloudlets",
            shape.vm_count, shape.cloudlet_count
        );

        // Full-row tripwire: at 1k the paper-profile ACO must pick the
        // frozen reference's plan at every thread count.
        let full_row_reference = (*label == "1k")
            .then(|| reference::schedule_reference(&AcoParams::paper(), seed, &problem));
        let ref_params = AcoParams {
            candidates: Some(AcoParams::DEFAULT_CANDIDATES),
            ..AcoParams::paper()
        };

        for &threads in &thread_counts {
            with_threads(threads, || {
                let point = |algorithm: String, sched_ms: f64, est_makespan_ms: f64| Point {
                    algorithm,
                    scale: label.to_string(),
                    vms: shape.vm_count,
                    cloudlets: shape.cloudlet_count,
                    threads,
                    sched_ms,
                    est_makespan_ms,
                };
                let mut ref_assignment = None;
                if !large {
                    // Frozen pre-overhaul ACO with k = 32 random candidate
                    // subsets: the honest baseline (the history in
                    // `reference_aco_ms` has always timed this profile), timed
                    // on the same pool so the comparison is at equal
                    // parallelism.
                    let ref_ms = time_best(scale_reps, || {
                        let t = Instant::now();
                        let a = reference::schedule_reference(&ref_params, seed, &problem);
                        let ms = t.elapsed().as_secs_f64() * 1_000.0;
                        ref_assignment = Some(a);
                        ms
                    });
                    let est = ref_assignment
                        .as_ref()
                        .expect("reference ran")
                        .estimated_makespan_ms(&problem);
                    points.push(point("AntColony(ref)".into(), ref_ms, est));
                    summary.push((label.to_string(), threads, ref_ms));
                }

                for (name, build) in roster(shape.cloudlet_count) {
                    let mut last: Option<Assignment> = None;
                    let ms = time_best(scale_reps, || {
                        let mut scheduler = build(seed);
                        let t = Instant::now();
                        let a = scheduler.schedule(&problem);
                        let ms = t.elapsed().as_secs_f64() * 1_000.0;
                        last = Some(a);
                        ms
                    });
                    let a = last.expect("scheduler ran");
                    a.validate(&problem)
                        .unwrap_or_else(|e| panic!("{name} invalid plan at {label}: {e}"));
                    if name == "AntColony" {
                        if let Some(expected) = &full_row_reference {
                            assert_eq!(
                                &a, expected,
                                "full-row ACO diverged from the frozen reference \
                                 at {threads} threads, scale {label}"
                            );
                        }
                    }
                    if let Some(first) = plans.insert((name.clone(), label.to_string()), a.clone())
                    {
                        assert_eq!(
                            first, a,
                            "{name} plan changed with thread count at scale {label}"
                        );
                    }
                    if name == "AntColony(topk)" {
                        aco_times.insert((label.to_string(), threads), ms);
                    }
                    let est = a.estimated_makespan_ms(&problem);
                    eprintln!("  {threads}t {name}: {ms:.1} ms (est makespan {est:.0} ms)");
                    points.push(point(name, ms, est));
                }

                // Quality gate: the candidate-list fast path must stay within
                // 1% of the unrestricted full-row ACO at the 10k gate point.
                if *label == "10k" {
                    let topk = plans
                        .get(&("AntColony(topk)".to_string(), label.to_string()))
                        .expect("candidate-list ACO ran")
                        .estimated_makespan_ms(&problem);
                    let full = plans
                        .get(&("AntColony".to_string(), label.to_string()))
                        .expect("full-row ACO ran")
                        .estimated_makespan_ms(&problem);
                    assert!(
                        topk <= full * 1.01,
                        "candidate-list ACO makespan {topk:.1} ms exceeds 1% over \
                         full-row {full:.1} ms at the 10k gate"
                    );
                    eprintln!(
                        "  quality gate: top-k {topk:.1} ms vs full-row {full:.1} ms \
                         ({:+.3}%)",
                        (topk / full - 1.0) * 100.0
                    );
                }
            });
        }

        // Parity gate: at 1k the candidate-list ACO stays on the serial
        // path, so extra threads may not cost more than measurement noise.
        if *label == "1k" {
            if let (Some(&t1), Some(&t4)) = (
                aco_times.get(&(label.to_string(), 1)),
                aco_times.get(&(label.to_string(), 4)),
            ) {
                assert!(
                    t4 <= t1 * 1.5,
                    "1k ACO regressed under threads: {t4:.1} ms at 4t vs {t1:.1} ms at 1t"
                );
                eprintln!("  thread parity: 1t {t1:.1} ms, 4t {t4:.1} ms");
            }
        }
    }

    // Wall-clock budget gate on the headline configuration.
    if let (Some(budget), Some((largest, divisor))) = (budget_ms, largest_scale) {
        let cloudlets = HomogeneousScenario::scaled(100_000, divisor).cloudlet_count;
        let gate_algorithm = if cloudlets >= LARGE_SCALE_CLOUDLETS {
            "AntColony(scale)"
        } else {
            "AntColony(topk)"
        };
        let worst = points
            .iter()
            .filter(|p| p.scale == largest && p.algorithm == gate_algorithm)
            .map(|p| p.sched_ms)
            .fold(f64::NAN, f64::max);
        assert!(
            worst.is_finite(),
            "--budget-ms set but {gate_algorithm} never ran at scale {largest}"
        );
        assert!(
            worst <= budget,
            "{gate_algorithm} at {largest} took {worst:.0} ms, over the \
             {budget:.0} ms budget"
        );
        eprintln!("budget gate: {gate_algorithm} at {largest} = {worst:.0} ms <= {budget:.0} ms");
    }

    let points = points.iter().map(|p| {
        format!(
            "{{\"algorithm\": \"{}\", \"scale\": \"{}\", \"vms\": {}, \"cloudlets\": {}, \"threads\": {}, \"sched_ms\": {:.3}, \"est_makespan_ms\": {:.3}}}",
            p.algorithm, p.scale, p.vms, p.cloudlets, p.threads, p.sched_ms, p.est_makespan_ms,
        )
    });
    let reference = summary.iter().map(|(scale, threads, ms)| {
        format!("{{\"scale\": \"{scale}\", \"threads\": {threads}, \"sched_ms\": {ms:.3}}}")
    });
    Report::new("schedulers")
        .field("machine_cores", harness::machine_cores())
        .field("seed", seed)
        .field(
            "peak_rss_kb",
            harness::opt_json(biosched_bench::rss::peak_rss_kb()),
        )
        .section("points", points)
        .section("reference_aco_ms", reference)
        .write(&out_path);
}
