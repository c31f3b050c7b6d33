//! Golden plans for the four population metaheuristics (GA, PSO,
//! cuckoo-SOS, GSA) behind the ordinary `Scheduler` interface.
//!
//! The families have no reference oracle, and their determinism tests
//! compare each scheduler only with itself: a changed draw order, seeding
//! policy or decode rule would pass them all. This file pins FNV-1a
//! digests of three calls per family at three seeds on a small
//! heterogeneous fleet: the first cold `schedule`, the first
//! `schedule_warm` from an incumbent plan, and the second `schedule` on
//! the same instance (which pins how one instance seeds repeated calls).
//! A digest may only change together with a deliberate change to a
//! family, and the new value must then be recorded here.

use biosched_core::assignment::Assignment;
use biosched_core::cuckoo_sos::{CsosParams, CuckooSos};
use biosched_core::eval::EvalCache;
use biosched_core::ga::{GaParams, Genetic};
use biosched_core::gsa::{Gsa, GsaParams};
use biosched_core::minmax::{MaxMin, MinMin};
use biosched_core::problem::SchedulingProblem;
use biosched_core::pso::{ParticleSwarm, PsoParams};
use biosched_core::scheduler::Scheduler;
use biosched_core::warm::WarmState;
use rand::Rng;
use simcloud::characteristics::CostModel;
use simcloud::cloudlet::CloudletSpec;
use simcloud::vm::VmSpec;

const SEEDS: [u64; 3] = [11, 42, 9001];
const VMS: usize = 12;
const CLOUDLETS: usize = 60;

/// The 12-VM heterogeneous fleet and 60-cloudlet batch every case runs on.
fn problem() -> SchedulingProblem {
    let mut rng = simcloud::rng::stream(7, "population-golden");
    let vms: Vec<VmSpec> = (0..VMS)
        .map(|_| {
            VmSpec::new(
                rng.gen_range(250.0..4_000.0),
                10_000.0,
                512.0,
                rng.gen_range(100.0..1_000.0),
                rng.gen_range(1..=2),
            )
        })
        .collect();
    let cloudlets: Vec<CloudletSpec> = (0..CLOUDLETS)
        .map(|_| {
            let file = rng.gen_range(0.0..300.0);
            CloudletSpec::new(rng.gen_range(1_000.0..40_000.0), file, file, 1)
        })
        .collect();
    SchedulingProblem::single_datacenter(vms, cloudlets, CostModel::default())
}

/// FNV-1a over the plan's VM indices (little-endian u32 each).
fn digest(plan: &Assignment) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for vm in plan.as_slice() {
        for byte in vm.0.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

type Build = fn(u64) -> Box<dyn Scheduler>;

const FAMILIES: [(&str, Build); 4] = [
    ("ga", |s| Box::new(Genetic::new(GaParams::fast(), s))),
    ("pso", |s| {
        Box::new(ParticleSwarm::new(PsoParams::fast(), s))
    }),
    ("cuckoo-sos", |s| {
        Box::new(CuckooSos::new(CsosParams::fast(), s))
    }),
    ("gsa", |s| Box::new(Gsa::new(GsaParams::fast(), s))),
];

// The `second` digests of cuckoo-SOS and GSA changed when all four
// families moved onto one scheduler over `PopulationRun`: a second call
// on one instance now continues the stream the first call advanced
// (as GA and PSO always did) instead of reseeding from
// `seed + round·φ`. Every first call, cold or warm, is unchanged.
const GOLDEN: [(&str, u64); 36] = [
    ("ga/first/11", 0xe104fac68969862e),
    ("ga/warm/11", 0x07ccf6175b7a79b7),
    ("ga/second/11", 0x613b239f71ca0c80),
    ("pso/first/11", 0x9239ab8e1a6d20c0),
    ("pso/warm/11", 0x9239ab8e1a6d20c0),
    ("pso/second/11", 0x1c6a6bc1eee62d2f),
    ("cuckoo-sos/first/11", 0x386144c4644e24c8),
    ("cuckoo-sos/warm/11", 0xf6933ae7c4010fe4),
    ("cuckoo-sos/second/11", 0x1cf2d9bb311f9830), // carried stream, see above
    ("gsa/first/11", 0xc89dfc061d3db4a6),
    ("gsa/warm/11", 0xc89dfc061d3db4a6),
    ("gsa/second/11", 0x420868b549abeb43), // carried stream, see above
    ("ga/first/42", 0x82de17aa8ffe37de),
    ("ga/warm/42", 0x277282e301bbe55d),
    ("ga/second/42", 0xd382c1ac1d3c0cc8),
    ("pso/first/42", 0x66770a193a35954a),
    ("pso/warm/42", 0xaeca8b779daeb0a7),
    ("pso/second/42", 0x1562eb8e1b220a7d),
    ("cuckoo-sos/first/42", 0x8eb9a5a2965c7c5e),
    ("cuckoo-sos/warm/42", 0xfb5338b2d92aaa21),
    ("cuckoo-sos/second/42", 0x1e0bfdb69fd96200), // carried stream, see above
    ("gsa/first/42", 0x223d46c20c4418b2),
    ("gsa/warm/42", 0x3338ccdf625b8293),
    ("gsa/second/42", 0x472de73858b2ae6b), // carried stream, see above
    ("ga/first/9001", 0x7543aae79d31ba1e),
    ("ga/warm/9001", 0x5c219cbd0002edad),
    ("ga/second/9001", 0xa32d9aa94abb5682),
    ("pso/first/9001", 0xcbd70e84e61556ef),
    ("pso/warm/9001", 0x3fb1c317dfd60420),
    ("pso/second/9001", 0x7a71356d1bd5456d),
    ("cuckoo-sos/first/9001", 0xa1f8d25da4571101),
    ("cuckoo-sos/warm/9001", 0x4a1820b9d3a188fe),
    ("cuckoo-sos/second/9001", 0x4529713e4666fa4b), // carried stream, see above
    ("gsa/first/9001", 0x2f12fbf111674c4e),
    ("gsa/warm/9001", 0x7364382160d42cd6),
    ("gsa/second/9001", 0x37b6cd9fd42416b2), // carried stream, see above
];

#[test]
fn population_plans_match_golden_digests() {
    let p = problem();
    let cache = EvalCache::new(&p);
    // A good but improvable incumbent: Min-Min's plan with every third
    // cloudlet moved, so the warm member steers the search without
    // already being its optimum.
    let incumbent: Vec<u32> = MinMin::new()
        .schedule(&p)
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, vm)| {
            if i % 3 == 0 {
                (i * 7 % VMS) as u32
            } else {
                vm.0
            }
        })
        .collect();
    let mut got = Vec::new();
    for seed in SEEDS {
        for (name, build) in FAMILIES {
            let mut s = build(seed);
            let first = s.schedule(&p);
            let second = s.schedule(&p);
            let mut warm = WarmState {
                incumbent: Some(incumbent.clone()),
                ..WarmState::default()
            };
            let warm_plan = build(seed).schedule_warm(&p, &cache, &mut warm);
            for plan in [&first, &second, &warm_plan] {
                assert!(plan.validate(&p).is_ok(), "{name}/{seed}");
            }
            got.push((format!("{name}/first/{seed}"), digest(&first)));
            got.push((format!("{name}/warm/{seed}"), digest(&warm_plan)));
            got.push((format!("{name}/second/{seed}"), digest(&second)));
        }
    }
    let table: String = got
        .iter()
        .map(|(case, d)| format!("    (\"{case}\", {d:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(c, d)| (c.to_string(), d)).collect();
    assert_eq!(got, expected, "population plans changed; now:\n{table}");
}

/// Min-Min's and Max-Min's plans, pinned the same way on the
/// heterogeneous batch and on 40 identical VMs × 400 identical-shape
/// cloudlets, where every pick rescans every unassigned cloudlet. Their
/// Eq. 6 reads come from the dense ETC matrix or are recomputed, with the
/// same bits either way, so these digests must not move when the matrix
/// rule does.
const GREEDY_GOLDEN: [(&str, u64); 4] = [
    ("min-min/heterogeneous", 0x1909489073754ac5),
    ("max-min/heterogeneous", 0x2cb249aef979cd7d),
    ("min-min/homogeneous", 0xfb56522230650d85),
    ("max-min/homogeneous", 0xd82ce28d24d35d65),
];

#[test]
fn greedy_baseline_plans_match_golden_digests() {
    let mut rng = simcloud::rng::stream(7, "greedy-golden");
    let homogeneous = SchedulingProblem::single_datacenter(
        vec![VmSpec::new(1_000.0, 10_000.0, 512.0, 1_000.0, 1); 40],
        (0..400)
            .map(|_| CloudletSpec::new(rng.gen_range(1_000.0..40_000.0), 0.0, 0.0, 1))
            .collect(),
        CostModel::default(),
    );
    let mut got = Vec::new();
    for (shape, p) in [("heterogeneous", problem()), ("homogeneous", homogeneous)] {
        let plans = [
            ("min-min", MinMin::new().schedule(&p)),
            ("max-min", MaxMin::new().schedule(&p)),
        ];
        for (name, plan) in plans {
            assert!(plan.validate(&p).is_ok(), "{name}/{shape}");
            got.push((format!("{name}/{shape}"), digest(&plan)));
        }
    }
    let table: String = got
        .iter()
        .map(|(case, d)| format!("    (\"{case}\", {d:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GREEDY_GOLDEN
        .iter()
        .map(|&(c, d)| (c.to_string(), d))
        .collect();
    assert_eq!(got, expected, "greedy plans changed; now:\n{table}");
}
