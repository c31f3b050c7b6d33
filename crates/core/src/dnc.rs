//! Divide-and-conquer meta-scheduler: shard the fleet, schedule shards in
//! parallel, merge the assignments.
//!
//! The metaheuristics in this crate optimize one global batch at a time.
//! At paper scale (1M cloudlets × 100k VMs) even the candidate-list fast
//! path leaves a long serial colony sweep; this wrapper gives the
//! schedulers the same parallel scaling the sharded sim engine already
//! has. VMs are partitioned into shards (per datacenter, or balanced
//! contiguous ranges), cloudlets are distributed to shards proportionally
//! to shard MIPS capacity by a deterministic largest-remainder
//! accumulator, every shard becomes an independent [`SchedulingProblem`]
//! scheduled through [`eval::par_map_if`], and the local assignments are
//! mapped back to global [`VmId`]s.
//!
//! Sharding changes results versus the global run (pheromone and tabu
//! state never cross shards), so this is an explicit opt-in mode —
//! quality deltas are recorded in `BENCH_schedulers.json`, not promised
//! bitwise. Determinism is preserved: shard seeds are derived from the
//! wrapper's seed, the shard index and an internal round counter, so the
//! same construction always yields the same merged plan at any thread
//! count (the fan-out is order-preserving).

use std::ops::Range;

use simcloud::ids::VmId;

use crate::assignment::Assignment;
use crate::eval;
use crate::problem::SchedulingProblem;
use crate::scheduler::Scheduler;

/// How [`DivideAndConquer`] partitions the VM fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSpec {
    /// Balanced contiguous VM ranges (clamped to the fleet size so every
    /// shard holds at least one VM).
    Count(usize),
    /// One shard per datacenter that hosts at least one VM.
    ByDatacenter,
}

impl ShardSpec {
    /// Validates the spec independent of any problem.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ShardSpec::Count(0) => Err("shards must be at least 1".into()),
            _ => Ok(()),
        }
    }
}

/// Builds a fresh inner scheduler per shard; the `u64` is the shard seed.
pub type ShardSchedulerBuilder = Box<dyn Fn(u64) -> Box<dyn Scheduler> + Send + Sync>;

/// The divide-and-conquer wrapper. See the module docs.
pub struct DivideAndConquer {
    spec: ShardSpec,
    seed: u64,
    round: u64,
    builder: ShardSchedulerBuilder,
}

impl DivideAndConquer {
    /// Wraps an arbitrary scheduler constructor.
    pub fn new(spec: ShardSpec, seed: u64, builder: ShardSchedulerBuilder) -> Result<Self, String> {
        spec.validate()?;
        Ok(DivideAndConquer {
            spec,
            seed,
            round: 0,
            builder,
        })
    }

    /// VM index groups for `problem` under the spec. Every group is
    /// non-empty and ascending; together they cover the fleet exactly.
    fn shard_vms(&self, problem: &SchedulingProblem) -> Vec<Vec<usize>> {
        let v = problem.vm_count();
        match self.spec {
            ShardSpec::Count(n) => {
                let n = n.min(v).max(1);
                split_ranges(v, n)
                    .into_iter()
                    .map(|r| r.collect())
                    .collect()
            }
            ShardSpec::ByDatacenter => {
                let mut groups: Vec<Vec<usize>> = vec![Vec::new(); problem.datacenters.len()];
                for (vm, dc) in problem.vm_placement.iter().enumerate() {
                    groups[dc.index()].push(vm);
                }
                groups.retain(|g| !g.is_empty());
                groups
            }
        }
    }

    fn run(&mut self, problem: &SchedulingProblem) -> Assignment {
        let shards = self.shard_vms(problem);
        if shards.len() <= 1 {
            let mut inner = (self.builder)(shard_seed(self.seed, self.round, 0));
            self.round += 1;
            return inner.schedule(problem);
        }

        // Cloudlets per shard, proportional to shard MIPS×PEs capacity:
        // a deterministic credit accumulator (each cloudlet goes to the
        // shard with the largest outstanding quota) keeps the split exact
        // for any fraction without floating-point drift ever skipping or
        // double-assigning a cloudlet.
        let capacity: Vec<f64> = shards
            .iter()
            .map(|vms| {
                vms.iter()
                    .map(|&vm| problem.vms[vm].mips * f64::from(problem.vms[vm].pes))
                    .sum::<f64>()
            })
            .collect();
        let total_capacity: f64 = capacity.iter().sum();
        let share: Vec<f64> = if total_capacity.is_finite() && total_capacity > 0.0 {
            capacity.iter().map(|c| c / total_capacity).collect()
        } else {
            vec![1.0 / shards.len() as f64; shards.len()]
        };

        let c = problem.cloudlet_count();
        // cloudlet_shard[c] = (shard, local index within the shard).
        let mut cloudlet_shard: Vec<(u32, u32)> = Vec::with_capacity(c);
        let mut shard_cloudlets: Vec<Vec<usize>> = vec![Vec::new(); shards.len()];
        let mut credit = vec![0.0f64; shards.len()];
        for cl in 0..c {
            let mut pick = 0;
            for s in 0..shards.len() {
                credit[s] += share[s];
                if credit[s] > credit[pick] {
                    pick = s;
                }
            }
            credit[pick] -= 1.0;
            cloudlet_shard.push((pick as u32, shard_cloudlets[pick].len() as u32));
            shard_cloudlets[pick].push(cl);
        }

        // Independent subproblems: the shard's VMs/cloudlets with the full
        // datacenter list (placement indices stay valid unchanged).
        let subproblems: Vec<SchedulingProblem> = shards
            .iter()
            .zip(&shard_cloudlets)
            .map(|(vms, cls)| SchedulingProblem {
                vms: vms.iter().map(|&vm| problem.vms[vm].clone()).collect(),
                cloudlets: cls
                    .iter()
                    .map(|&cl| problem.cloudlets[cl].clone())
                    .collect(),
                datacenters: problem.datacenters.clone(),
                vm_placement: vms.iter().map(|&vm| problem.vm_placement[vm]).collect(),
            })
            .collect();

        let seeds: Vec<u64> = (0..shards.len() as u64)
            .map(|s| shard_seed(self.seed, self.round, s))
            .collect();
        self.round += 1;

        let builder = &self.builder;
        let indexed: Vec<usize> = (0..subproblems.len()).collect();
        let locals: Vec<Assignment> = eval::par_map_if(subproblems.len() >= 2, &indexed, |&s| {
            let mut inner = builder(seeds[s]);
            inner.schedule(&subproblems[s])
        });

        // Merge: map each shard-local VM index back to the global fleet.
        let mut map = vec![VmId(0); c];
        for (cl, &(shard, local_cl)) in cloudlet_shard.iter().enumerate() {
            let local_vm = locals[shard as usize].as_slice()[local_cl as usize];
            map[cl] = VmId(shards[shard as usize][local_vm.index()] as u32);
        }
        Assignment::new(map)
    }
}

/// Derives a shard's seed from the wrapper seed, the scheduling round and
/// the shard index — distinct, deterministic streams per shard and round.
fn shard_seed(seed: u64, round: u64, shard: u64) -> u64 {
    simcloud::rng::mix(
        seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        &format!("dnc-shard-{shard}"),
    )
}

/// Splits `0..total` into `parts` contiguous near-equal ranges.
fn split_ranges(total: usize, parts: usize) -> Vec<Range<usize>> {
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

impl Scheduler for DivideAndConquer {
    fn name(&self) -> &'static str {
        "divide-and-conquer"
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        self.run(problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::AlgorithmKind;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::ids::DatacenterId;
    use simcloud::vm::VmSpec;

    /// The wrapper around one stock algorithm kind.
    fn of_kind(
        kind: AlgorithmKind,
        spec: ShardSpec,
        seed: u64,
    ) -> Result<DivideAndConquer, String> {
        DivideAndConquer::new(spec, seed, Box::new(move |s| kind.build(s)))
    }

    fn problem(vms: usize, cloudlets: usize) -> SchedulingProblem {
        let vm_specs: Vec<VmSpec> = (0..vms)
            .map(|i| {
                let mips = if i % 2 == 0 { 500.0 } else { 4_000.0 };
                VmSpec::new(mips, 5_000.0, 512.0, 500.0, 1)
            })
            .collect();
        let cl = CloudletSpec::new(10_000.0, 0.0, 0.0, 1);
        SchedulingProblem::single_datacenter(vm_specs, vec![cl; cloudlets], CostModel::default())
    }

    fn two_dc_problem() -> SchedulingProblem {
        let vms: Vec<VmSpec> = (0..12)
            .map(|_| VmSpec::new(1_000.0, 5_000.0, 512.0, 500.0, 1))
            .collect();
        let cloudlets = vec![CloudletSpec::new(5_000.0, 0.0, 0.0, 1); 60];
        let dcs = vec![
            crate::problem::DatacenterView {
                id: DatacenterId(0),
                cost: CostModel::default(),
            },
            crate::problem::DatacenterView {
                id: DatacenterId(1),
                cost: CostModel::default(),
            },
        ];
        // VMs 0..8 in DC 0, VMs 8..12 in DC 1.
        let placement = (0..12).map(|i| DatacenterId(u32::from(i >= 8))).collect();
        SchedulingProblem::new(vms, cloudlets, dcs, placement).unwrap()
    }

    #[test]
    fn merges_into_a_complete_valid_assignment() {
        let p = problem(16, 100);
        let mut dnc = of_kind(AlgorithmKind::AntColony, ShardSpec::Count(4), 42).unwrap();
        let a = dnc.schedule(&p);
        assert!(a.validate(&p).is_ok());
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn deterministic_per_seed_and_advances_per_round() {
        let p = problem(16, 60);
        let mut a1 = of_kind(AlgorithmKind::AntColony, ShardSpec::Count(4), 7).unwrap();
        let mut a2 = of_kind(AlgorithmKind::AntColony, ShardSpec::Count(4), 7).unwrap();
        let first = a1.schedule(&p);
        assert_eq!(first, a2.schedule(&p), "same seed, same plan");
        assert_ne!(first, a1.schedule(&p), "rounds draw fresh shard seeds");
        let mut b = of_kind(AlgorithmKind::AntColony, ShardSpec::Count(4), 8).unwrap();
        assert_ne!(first, b.schedule(&p), "different seed, different plan");
    }

    #[test]
    fn contiguous_shards_respect_vm_ranges() {
        // 16 VMs in 4 shards of 4: a cloudlet routed to shard s must land
        // on a VM in [4s, 4s+4).
        let p = problem(16, 80);
        let mut dnc = of_kind(AlgorithmKind::BaseTest, ShardSpec::Count(4), 1).unwrap();
        let a = dnc.schedule(&p);
        // Every VM range receives some work under a balanced split.
        let counts = a.counts_per_vm(16);
        for shard in 0..4 {
            let total: usize = counts[shard * 4..(shard + 1) * 4].iter().sum();
            assert!(total > 0, "shard {shard} received no cloudlets");
        }
    }

    #[test]
    fn by_datacenter_keeps_cloudlets_inside_their_shard_dc() {
        let p = two_dc_problem();
        let mut dnc = of_kind(AlgorithmKind::AntColony, ShardSpec::ByDatacenter, 3).unwrap();
        let a = dnc.schedule(&p);
        assert!(a.validate(&p).is_ok());
        // Both DCs host VMs, so both receive work (2/3 vs 1/3 capacity).
        let counts = a.counts_per_vm(12);
        let dc0: usize = counts[..8].iter().sum();
        let dc1: usize = counts[8..].iter().sum();
        assert!(dc0 > 0 && dc1 > 0);
        // Capacity-proportional split: DC0 has 2× the capacity of DC1.
        assert!(
            dc0 > dc1,
            "larger DC should receive more cloudlets: {dc0} vs {dc1}"
        );
    }

    #[test]
    fn capacity_proportional_cloudlet_split() {
        // One shard 3× the capacity: it must receive ~3× the cloudlets.
        let mut vms: Vec<VmSpec> = (0..4)
            .map(|_| VmSpec::new(1_000.0, 5_000.0, 512.0, 500.0, 1))
            .collect();
        vms[0] = VmSpec::new(3_000.0, 5_000.0, 512.0, 500.0, 1);
        vms[1] = VmSpec::new(3_000.0, 5_000.0, 512.0, 500.0, 1);
        let p = SchedulingProblem::single_datacenter(
            vms,
            vec![CloudletSpec::new(5_000.0, 0.0, 0.0, 1); 80],
            CostModel::default(),
        );
        let mut dnc = of_kind(AlgorithmKind::BaseTest, ShardSpec::Count(2), 5).unwrap();
        let a = dnc.schedule(&p);
        let counts = a.counts_per_vm(4);
        let big: usize = counts[..2].iter().sum();
        let small: usize = counts[2..].iter().sum();
        assert_eq!(big + small, 80);
        assert_eq!(big, 60, "3:1 capacity split of 80 cloudlets");
    }

    #[test]
    fn single_shard_degenerates_to_inner_scheduler() {
        let p = problem(8, 30);
        let mut dnc = of_kind(AlgorithmKind::AntColony, ShardSpec::Count(1), 9).unwrap();
        let a = dnc.schedule(&p);
        assert!(a.validate(&p).is_ok());
    }

    #[test]
    fn shard_count_clamps_to_fleet() {
        let p = problem(3, 12);
        let mut dnc = of_kind(AlgorithmKind::BaseTest, ShardSpec::Count(64), 2).unwrap();
        let a = dnc.schedule(&p);
        assert!(a.validate(&p).is_ok());
    }

    #[test]
    fn zero_shards_is_a_validation_error() {
        assert!(of_kind(AlgorithmKind::BaseTest, ShardSpec::Count(0), 1).is_err());
        assert!(ShardSpec::Count(0).validate().is_err());
        assert!(ShardSpec::ByDatacenter.validate().is_ok());
    }
}
