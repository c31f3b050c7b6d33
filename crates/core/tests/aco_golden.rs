//! Golden plans for the ACO candidate-list regime (k < #VMs).
//!
//! The full-row regime has an oracle: `aco::reference` must match it bit
//! for bit. The candidate-list regime (top-η blocks, prefix-sum draws,
//! exact conditional roulette as the tabu fallback) has none, and its
//! thread-independence tests compare the scheduler only with itself — a
//! changed draw order would pass them all. This file pins FNV-1a digests
//! of candidate-list plans for every profile that reaches that regime,
//! plus a two-wave warm-pheromone run, at three seeds. A second table pins
//! a broker-shaped warm stream in both regimes: many waves of varying
//! size replanned by one resident colony through one retargeted cache,
//! long enough for the carried base to sit at the pheromone floor, with
//! lanes a smaller wave never reads. A digest may only change together
//! with a deliberate change to the sampler, and the new value must then
//! be recorded here.

use biosched_core::aco::{AcoParams, AntColony};
use biosched_core::assignment::Assignment;
use biosched_core::eval::EvalCache;
use biosched_core::problem::SchedulingProblem;
use biosched_core::scheduler::Scheduler;
use biosched_core::warm::WarmState;
use rand::Rng;
use simcloud::characteristics::CostModel;
use simcloud::cloudlet::CloudletSpec;
use simcloud::vm::VmSpec;

const SEEDS: [u64; 3] = [11, 42, 9001];
const VMS: usize = 40;
const CLOUDLETS: usize = 240;

/// The 40-VM heterogeneous fleet every case runs on, with one wave of
/// cloudlets drawn from the stream named `wave`.
fn problem(wave: &str) -> SchedulingProblem {
    let mut rng = simcloud::rng::stream(7, wave);
    let cloudlets: Vec<CloudletSpec> = (0..CLOUDLETS).map(|_| cloudlet(&mut rng)).collect();
    SchedulingProblem::single_datacenter(fleet(), cloudlets, CostModel::default())
}

fn fleet() -> Vec<VmSpec> {
    let mut rng = simcloud::rng::stream(7, "aco-golden-fleet");
    (0..VMS)
        .map(|_| {
            VmSpec::new(
                rng.gen_range(250.0..4_000.0),
                10_000.0,
                512.0,
                rng.gen_range(100.0..1_000.0),
                rng.gen_range(1..=2),
            )
        })
        .collect()
}

fn cloudlet(rng: &mut impl Rng) -> CloudletSpec {
    let file = rng.gen_range(0.0..300.0);
    CloudletSpec::new(rng.gen_range(1_000.0..40_000.0), file, file, 1)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the plan's VM indices (little-endian u32 each).
fn digest(plan: &Assignment) -> u64 {
    extend_digest(FNV_OFFSET, plan)
}

/// Continues an FNV-1a digest `h` over `plan`'s VM indices.
fn extend_digest(mut h: u64, plan: &Assignment) -> u64 {
    for vm in plan.as_slice() {
        for byte in vm.0.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

const GOLDEN: [(&str, u64); 15] = [
    ("fast/11", 0x49e94a4e38e4b816),
    ("for_scale/11", 0x25195446f457ed08),
    ("acs_k8/11", 0x45f7791cb341e11a),
    ("warm_wave1/11", 0x25195446f457ed08),
    ("warm_wave2/11", 0x40a00aa3c518c971),
    ("fast/42", 0x457899f2f9ae800a),
    ("for_scale/42", 0xb612ff551579c583),
    ("acs_k8/42", 0x5e7307e183ea4ded),
    ("warm_wave1/42", 0xb612ff551579c583),
    ("warm_wave2/42", 0x9aa791d3916c0f68),
    ("fast/9001", 0x226301ab64329ac7),
    ("for_scale/9001", 0x7cffd076b0f7e120),
    ("acs_k8/9001", 0x75ea42692e876512),
    ("warm_wave1/9001", 0x7cffd076b0f7e120),
    ("warm_wave2/9001", 0x5856da724c67b786),
];

#[test]
fn candidate_list_plans_match_golden_digests() {
    let wave1 = problem("aco-golden-wave-1");
    let wave2 = problem("aco-golden-wave-2");
    let acs_k8 = AcoParams {
        candidates: Some(8),
        ..AcoParams::acs()
    };
    let mut got = Vec::new();
    for seed in SEEDS {
        // Every profile restricts k below the fleet size, so the
        // candidate-list regime is the one that runs.
        let scale = AcoParams::for_scale(10_000);
        for (name, params) in [
            ("fast", AcoParams::fast()),
            ("for_scale", scale.clone()),
            ("acs_k8", acs_k8.clone()),
        ] {
            assert!(params.candidates.is_some_and(|k| k < VMS), "{name}");
            let plan = AntColony::new(params, seed).schedule(&wave1);
            assert!(plan.validate(&wave1).is_ok());
            got.push((format!("{name}/{seed}"), digest(&plan)));
        }
        // Two waves replanned through one carried pheromone matrix, the
        // streaming broker's warm path (aging + lane compaction included).
        let mut warm = None;
        for (i, wave) in [&wave1, &wave2].into_iter().enumerate() {
            let plan = AntColony::new(scale.clone(), seed + i as u64).schedule_with_warm_pheromone(
                wave,
                &EvalCache::new(wave),
                &mut warm,
            );
            assert!(plan.validate(wave).is_ok());
            got.push((format!("warm_wave{}/{seed}", i + 1), digest(&plan)));
        }
    }
    let table: String = got
        .iter()
        .map(|(case, d)| format!("    (\"{case}\", {d:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(c, d)| (c.to_string(), d)).collect();
    assert_eq!(got, expected, "candidate-list plans changed; now:\n{table}");
}

/// Wave sizes of the warm stream. With 40 VMs a colony holds at most 20
/// slots, so the carried matrix keeps the lanes of the largest wave so
/// far while most later waves read fewer; the 33-cloudlet wave splits
/// into two colonies. Eight iterations plus one aging per wave take the
/// base (1.0, ρ = 0.4) to the pheromone floor by about the seventh wave.
const STREAM_WAVES: [usize; 14] = [20, 6, 13, 3, 18, 9, 33, 2, 15, 7, 11, 4, 17, 5];

const STREAM_GOLDEN: [(&str, u64); 6] = [
    ("stream_topk/11", 0xf8edf8720da96d4f),
    ("stream_full/11", 0xf7a47a82940af5a2),
    ("stream_topk/42", 0x69826a397ce37051),
    ("stream_full/42", 0xc7a473971b3c4e80),
    ("stream_topk/9001", 0x4eca5aeef9ed2f14),
    ("stream_full/9001", 0xded812fab8f74699),
];

#[test]
fn warm_stream_plans_match_golden_digests() {
    let mut got = Vec::new();
    for seed in SEEDS {
        for (name, params) in [
            ("stream_topk", AcoParams::for_scale(10_000)),
            ("stream_full", AcoParams::paper()),
        ] {
            // The broker's warm path: one resident scheduler, one cache
            // retargeted to each wave, one carried warm state.
            let mut rng = simcloud::rng::stream(seed, "aco-golden-stream");
            let mut aco = AntColony::new(params, seed);
            let mut cache: Option<EvalCache> = None;
            let mut warm = WarmState::new();
            let mut h = FNV_OFFSET;
            for size in STREAM_WAVES {
                let cloudlets = (0..size).map(|_| cloudlet(&mut rng)).collect();
                let wave =
                    SchedulingProblem::single_datacenter(fleet(), cloudlets, CostModel::default());
                match cache.as_mut() {
                    Some(c) => c.retarget_cloudlets(&wave),
                    None => cache = Some(EvalCache::new(&wave)),
                }
                let c = cache.as_ref().expect("cache filled above");
                let plan = aco.schedule_warm(&wave, c, &mut warm);
                assert!(plan.validate(&wave).is_ok());
                h = extend_digest(h, &plan);
            }
            // The carried base sits at the floor: a never-deposited edge
            // reads the clamp value.
            let carried = warm.pheromone.as_ref().expect("warm matrix captured");
            assert!(carried.get(u32::MAX, 0) <= 1e-12, "{name}/{seed}");
            got.push((format!("{name}/{seed}"), h));
        }
    }
    let table: String = got
        .iter()
        .map(|(case, d)| format!("    (\"{case}\", {d:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = STREAM_GOLDEN
        .iter()
        .map(|&(c, d)| (c.to_string(), d))
        .collect();
    assert_eq!(got, expected, "warm stream plans changed; now:\n{table}");
}
