//! Racing meta-scheduler benchmark: emits `BENCH_racing.json`.
//!
//! Races the full anytime roster ([`biosched_core::racing`]: ACO, GA,
//! PSO, cuckoo-SOS, GSA, HBO) against the run-everyone static portfolio
//! on heterogeneous instances up to the paper-scale 10k-cloudlet tier,
//! and enforces the subsystem's three contracts as hard gates:
//!
//! 1. **Never worse** — the raced plan's objective score matches or
//!    beats every roster member run standalone to its full racing
//!    budget on the same seed (exact for the survivor, asserted for
//!    all).
//! 2. **Budget** — the race spends at most [`UNITS_GATE`] (35%) of the
//!    portfolio's evaluation units, the deterministic decision-cost
//!    currency (one unit = one full-assignment evaluation through the
//!    shared [`EvalCache`]).
//! 3. **Decision time** — racer wall clock beats the run-everyone
//!    portfolio by [`GATE_RATIO`] (2×) at the full tier.
//!
//! Before the headline, a **grid tier** re-runs the racer at 1 and 4
//! rayon threads and asserts byte-identical plans and race reports
//! (winner, per-member spend, total units), then cross-checks the
//! sequential and sharded engines bit-for-bit through the sweep layer,
//! meta-provenance columns included. The JSON's `points` rows hold only
//! unit-counted and simulation-derived values, so CI runs `--smoke`
//! under different `RAYON_NUM_THREADS` and diffs outputs with the
//! machine-dependent lines stripped (`grep -v wall_ms`).

use std::time::Instant;

use biosched_bench::harness::{self, with_threads, Flag, Report, OUT, SEED};
use biosched_core::eval::EvalCache;
use biosched_core::objective::Objective;
use biosched_core::racing::{standalone_scores, RaceParams, RacingScheduler};
use biosched_core::scheduler::{AlgorithmKind, Scheduler};
use biosched_workload::heterogeneous::HeterogeneousScenario;
use biosched_workload::scenario::Scenario;
use biosched_workload::sweep::run_point_on;
use simcloud::simulation::EngineKind;

/// Headline-tier size and whether the decision-time gate runs.
struct Tier {
    vms: usize,
    cloudlets: usize,
    wall_gate: bool,
}

/// The paper-scale 10k-cloudlet tier, where evaluation cost dominates.
const FULL: Tier = Tier {
    vms: 1_000,
    cloudlets: 10_000,
    wall_gate: true,
};

/// CI preset: real races, seconds of wall clock. The wall gate is off
/// (small instances gate on noise) but quality and budget are
/// deterministic and stay enforced.
const SMOKE: Tier = Tier {
    vms: 100,
    cloudlets: 1_000,
    wall_gate: false,
};

/// Racer decision time must beat the run-everyone portfolio by this
/// factor when the tier gates.
const GATE_RATIO: f64 = 2.0;
/// Largest share of the portfolio's evaluation units the race may spend.
const UNITS_GATE: f64 = 0.35;

/// Grid tier: thread- and engine-determinism on a small instance.
const GRID_VMS: usize = 32;
const GRID_CLOUDLETS: usize = 256;

fn scenario(vms: usize, cloudlets: usize, seed: u64) -> Scenario {
    HeterogeneousScenario {
        vm_count: vms,
        cloudlet_count: cloudlets,
        datacenter_count: 4,
        seed,
    }
    .build()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = [OUT, SEED, Flag::switch("--smoke")];
    let (out_path, seed, tier) = harness::parse_or_exit("racebench", &flags, &argv, |a| {
        Ok((
            a.get("--out", "BENCH_racing.json".to_string())?,
            a.get("--seed", 42u64)?,
            if a.switch("--smoke") { SMOKE } else { FULL },
        ))
    });
    let Tier {
        vms,
        cloudlets,
        wall_gate,
    } = tier;
    let params = RaceParams::new(Objective::Makespan);

    // ------------------------------------------------------------------
    // Grid tier: thread- and engine-determinism on a small instance.
    // ------------------------------------------------------------------
    eprintln!(
        "grid tier: {GRID_VMS} VMs / {GRID_CLOUDLETS} cloudlets, threads {{1, 4}}, \
         sequential x sharded engine cross-check"
    );
    let s = scenario(GRID_VMS, GRID_CLOUDLETS, seed);
    let problem = s.problem();
    let cache = EvalCache::new(&problem);
    let race = |threads| {
        with_threads(threads, || {
            let mut racer = RacingScheduler::new(params.clone(), seed);
            let plan = racer.schedule_with_cache(&problem, &cache);
            (plan, racer.last_report().expect("race ran").clone())
        })
    };
    let (base_plan, base_report) = race(1);
    let (again_plan, again_report) = race(4);
    assert_eq!(base_plan, again_plan, "race plan changed with thread count");
    assert_eq!(
        base_report, again_report,
        "race provenance changed with thread count"
    );
    // Through the sweep layer on both engines: every simulated
    // metric and the provenance columns must agree bit for bit.
    let kind = AlgorithmKind::Racing(Objective::Makespan);
    let seq = run_point_on(&s, kind, seed, EngineKind::Sequential);
    let sh = run_point_on(&s, kind, seed, EngineKind::Sharded);
    assert_eq!(
        seq.simulation_time_ms.to_bits(),
        sh.simulation_time_ms.to_bits(),
        "racer makespan diverged across engines"
    );
    assert_eq!(seq.total_cost.to_bits(), sh.total_cost.to_bits());
    assert_eq!(seq.meta_winner, sh.meta_winner);
    assert_eq!(seq.meta_spent, sh.meta_spent);
    eprintln!(
        "  winner {} at {} of {} units; engines agree (makespan {:.1} ms, winner {})",
        base_report.winner,
        base_report.total_units,
        base_report.portfolio_units,
        seq.simulation_time_ms,
        seq.meta_winner.as_deref().unwrap_or("-"),
    );

    // ------------------------------------------------------------------
    // Headline tier: racer vs run-everyone portfolio. Both arms share
    // one prebuilt cache, so the wall comparison is pure decision time,
    // not cache construction.
    // ------------------------------------------------------------------
    eprintln!("headline tier: {vms} VMs / {cloudlets} cloudlets, seed {seed}");
    let problem = scenario(vms, cloudlets, seed).problem();
    let cache = EvalCache::new(&problem);
    let wall = Instant::now();
    let mut racer = RacingScheduler::new(params.clone(), seed);
    let plan = racer.schedule_with_cache(&problem, &cache);
    let racer_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let raced_score = cache.score(plan.as_slice(), params.objective);
    let report = racer.last_report().expect("race ran").clone();
    let wall = Instant::now();
    let standalone = standalone_scores(seed, &params, &problem, &cache);
    let portfolio_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let (best_member, best_standalone) = standalone
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|&(n, s)| (n, s))
        .expect("roster is non-empty");

    let (total_units, portfolio_units) = (report.total_units, report.portfolio_units);
    let ratio = total_units as f64 / portfolio_units as f64;
    let speedup = if racer_wall_ms > 0.0 {
        portfolio_wall_ms / racer_wall_ms
    } else {
        f64::INFINITY
    };
    eprintln!(
        "  racer: winner {} scored {raced_score:?} in {total_units} of {portfolio_units} units \
         ({:.1}% of portfolio), {racer_wall_ms:.1} ms wall vs {portfolio_wall_ms:.1} ms \
         run-everyone ({speedup:.2}x)",
        report.winner,
        ratio * 100.0,
    );
    for (name, score) in &standalone {
        eprintln!("  standalone {name}: {score:?}");
    }

    // Gates 1 and 2 are deterministic — always enforced.
    assert!(
        raced_score <= best_standalone + 1e-9,
        "racer ({}) at {raced_score} lost to standalone {best_member} at {best_standalone}",
        report.winner,
    );
    eprintln!(
        "gate: raced score {raced_score:?} <= best standalone {best_member} at {best_standalone:?}"
    );
    assert!(
        ratio <= UNITS_GATE,
        "race spent {:.1}% of the portfolio's evaluation units (gate {:.0}%)",
        ratio * 100.0,
        UNITS_GATE * 100.0
    );
    eprintln!(
        "gate: {total_units} of {portfolio_units} units = {:.1}% <= {:.0}%",
        ratio * 100.0,
        UNITS_GATE * 100.0
    );
    if wall_gate {
        assert!(
            speedup >= GATE_RATIO,
            "racer must beat the run-everyone portfolio by {GATE_RATIO}x at the \
             {cloudlets}-cloudlet tier: got {speedup:.2}x ({racer_wall_ms:.1} ms vs \
             {portfolio_wall_ms:.1} ms)",
        );
        eprintln!("gate: decision time {speedup:.2}x over run-everyone >= {GATE_RATIO}x");
    } else {
        eprintln!("gate: wall-clock gate skipped on the smoke tier");
    }

    let spent: Vec<String> = report
        .spent
        .iter()
        .map(|(n, u)| format!("{{\"member\": \"{n}\", \"units\": {u}}}"))
        .collect();
    let scores: Vec<String> = standalone
        .iter()
        .map(|(n, s)| format!("{{\"member\": \"{n}\", \"score\": {s:?}}}"))
        .collect();
    let point = format!(
        "{{\"tier\": \"headline\", \"vms\": {vms}, \"cloudlets\": {cloudlets}, \"seed\": {seed}, \
         \"winner\": \"{}\", \"raced_score\": {raced_score:?}, \"best_member\": \"{best_member}\", \
         \"best_standalone_score\": {best_standalone:?}, \"total_units\": {total_units}, \
         \"portfolio_units\": {portfolio_units}, \"units_ratio\": {ratio:?},\n     \
         \"spent\": [{}],\n     \"standalone\": [{}]}}",
        report.winner,
        spent.join(", "),
        scores.join(", "),
    );
    let wall = format!(
        "{{\"tier\": \"headline\", \"racer_wall_ms\": {racer_wall_ms:.2}, \
         \"portfolio_wall_ms\": {portfolio_wall_ms:.2}, \"decision_speedup\": {speedup:.3}}}",
    );
    Report::new("racing")
        .field("seed", seed)
        .field(
            "grid",
            format!("{{\"vms\": {GRID_VMS}, \"cloudlets\": {GRID_CLOUDLETS}}}"),
        )
        .field(
            "headline",
            format!(
                "{{\"vms\": {vms}, \"cloudlets\": {cloudlets}, \"units_gate\": {UNITS_GATE:?}, \
                 \"wall_gate_ratio\": {GATE_RATIO:?}, \"wall_gate_enforced\": {wall_gate}}}"
            ),
        )
        .text(
            "note",
            "points rows are evaluation-unit-counted and byte-identical across rayon thread \
             counts and engines (the binary asserts both on the grid tier); wall rows carry \
             machine-dependent decision wall clock and are stripped before CI diffs",
        )
        .section("points", [point])
        .section("wall", [wall])
        .write(&out_path);
}
